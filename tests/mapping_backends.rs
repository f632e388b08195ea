//! Property-based equivalence of the two mapping implementations: every
//! production op in `pointacc_geom::index` must produce **bit-identical**
//! results to its brute-force twin in `pointacc_geom::golden` on
//! arbitrary point clouds, radii and tensor strides — including empty,
//! degenerate and adversarial inputs, and every FPS chunk count. This is
//! the contract that lets the executor run the index ops without
//! perturbing traces, golden snapshots, or functional outputs.

use pointacc_geom::index::{self, GridIndex};
use pointacc_geom::{golden, Coord, Point3, PointSet, VoxelCloud};
use proptest::prelude::*;

fn arb_points(min_n: usize, max_n: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec((-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0), min_n..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
}

/// Clouds with heavy duplication pressure (small coordinate range) at a
/// random power-of-two tensor stride.
fn arb_cloud(max_n: usize) -> impl Strategy<Value = VoxelCloud> {
    (prop::collection::vec((-24i32..24, -24i32..24, -24i32..24), 1..max_n), 0u32..3).prop_map(
        |(v, stride_log)| {
            let stride = 1i32 << stride_log;
            VoxelCloud::from_unsorted(
                v.into_iter().map(|(x, y, z)| Coord::new(x, y, z).scale(stride)).collect(),
                stride,
            )
        },
    )
}

/// Runs the pruned FPS kernel on one chunk (inline on the caller) and on
/// up to three tile-aligned chunks, and checks both against the golden
/// sweep.
fn check_pruned_fps(pts: &PointSet, frac: f64) {
    let m = ((pts.len() as f64 * frac) as usize).min(pts.len());
    let want = golden::farthest_point_sampling(pts, m);
    for chunks in [1, 3] {
        assert_eq!(index::fps_pruned(pts, m, chunks), want, "chunks={chunks}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn knn_backends_agree(pts in arb_points(1, 120), q in arb_points(1, 30), k in 0usize..20) {
        prop_assert_eq!(
            index::k_nearest_neighbors(&pts, &q, k),
            golden::k_nearest_neighbors(&pts, &q, k)
        );
    }

    #[test]
    fn self_knn_backends_agree(pts in arb_points(1, 150), k in 1usize..12) {
        // Queries == inputs (the DGCNN TraceOnly graph shape): every
        // distance has an exact zero tie broken by index.
        prop_assert_eq!(
            index::k_nearest_neighbors(&pts, &pts, k),
            golden::k_nearest_neighbors(&pts, &pts, k)
        );
    }

    #[test]
    fn ball_query_backends_agree(
        pts in arb_points(1, 120),
        q in arb_points(1, 25),
        k in 1usize..16,
        r2 in 0.01f32..3000.0,
    ) {
        // The unpadded grid ball, per query, and the padded op.
        let grid = GridIndex::build(pts.points());
        let want = golden::ball_query(&pts, &q, r2, k);
        for (qi, &p) in q.points().iter().enumerate() {
            prop_assert_eq!(grid.ball(p, r2, k), want[qi], "query {}", qi);
        }
        prop_assert_eq!(
            index::ball_query_padded(&pts, &q, r2, k),
            golden::ball_query_padded(&pts, &q, r2, k)
        );
    }

    #[test]
    fn fps_backends_agree(pts in arb_points(1, 150), frac in 0.0f64..1.0) {
        let m = ((pts.len() as f64 * frac) as usize).min(pts.len());
        prop_assert_eq!(
            index::farthest_point_sampling(&pts, m),
            golden::farthest_point_sampling(&pts, m)
        );
    }

    // The bucket-pruned exact FPS must match the golden serial scan
    // bit-for-bit (selection, not tolerance) on the clouds that stress
    // its tile bound the hardest: tight clusters (tiny gaps vs large
    // in-tile dmin spread), collinear points (degenerate AABBs),
    // duplicates (all-tie selection falls back to index order), and
    // non-finite coordinates (the bound must refuse to skip tiles whose
    // dmin stays +inf) — on one chunk and across chunk boundaries.

    #[test]
    fn pruned_fps_matches_golden_on_clustered_clouds(
        centers in arb_points(1, 5),
        jitter in prop::collection::vec((-0.05f32..0.05, -0.05f32..0.05, -0.05f32..0.05), 30..120),
        frac in 0.0f64..1.0,
    ) {
        let pts: PointSet = jitter
            .iter()
            .enumerate()
            .map(|(i, &(dx, dy, dz))| {
                let c = centers.point(i % centers.len());
                Point3::new(c.x + dx, c.y + dy, c.z + dz)
            })
            .collect();
        check_pruned_fps(&pts, frac);
    }

    #[test]
    fn pruned_fps_matches_golden_on_collinear_clouds(
        spacings in prop::collection::vec(0.0f32..4.0, 2..150),
        axis in 0usize..3,
        frac in 0.0f64..1.0,
    ) {
        // Points on one axis, including coincident runs (zero spacing):
        // every tile AABB collapses to a segment.
        let mut t = 0.0f32;
        let pts: PointSet = spacings
            .iter()
            .map(|&s| {
                t += s;
                match axis {
                    0 => Point3::new(t, 0.0, 0.0),
                    1 => Point3::new(0.0, t, 0.0),
                    _ => Point3::new(0.0, 0.0, t),
                }
            })
            .collect();
        check_pruned_fps(&pts, frac);
    }

    #[test]
    fn pruned_fps_matches_golden_on_duplicated_clouds(
        uniques in arb_points(1, 6),
        reps in 2usize..40,
        frac in 0.0f64..1.0,
    ) {
        let pts: PointSet = (0..uniques.len() * reps)
            .map(|i| uniques.point(i % uniques.len()))
            .collect();
        check_pruned_fps(&pts, frac);
    }

    #[test]
    fn pruned_fps_matches_golden_with_infinite_coordinates(
        base in arb_points(4, 100),
        inf_at in prop::collection::vec((0usize..100, 0usize..3), 1..4),
        frac in 0.0f64..1.0,
    ) {
        // Points at +inf keep their running dmin at +inf forever, so the
        // tiles holding them must never be skipped.
        let mut v: Vec<Point3> = base.points().to_vec();
        for &(at, axis) in &inf_at {
            let p = &mut v[at % base.len()];
            match axis {
                0 => p.x = f32::INFINITY,
                1 => p.y = f32::INFINITY,
                _ => p.z = f32::INFINITY,
            }
        }
        check_pruned_fps(&PointSet::from_points(v), frac);
    }

    #[test]
    fn kernel_map_backends_agree(cloud in arb_cloud(150), ks in 2usize..4) {
        let got = index::kernel_map(&cloud, &cloud, ks);
        let want = golden::kernel_map_hash(&cloud, &cloud, ks);
        // Not just as sets: identical grouping and within-group order.
        prop_assert_eq!(got.to_entries(), want.to_entries());
        prop_assert_eq!(got.counts(), want.counts());
    }

    #[test]
    fn downsampled_kernel_map_backends_agree(cloud in arb_cloud(120), ks in 2usize..4) {
        let coarse = cloud.downsample(2);
        let got = index::kernel_map(&cloud, &coarse, ks);
        let want = golden::kernel_map_hash(&cloud, &coarse, ks);
        prop_assert_eq!(got.to_entries(), want.to_entries());
    }

    #[test]
    fn clustered_points_backends_agree(
        centers in arb_points(1, 5),
        jitter in prop::collection::vec((-0.05f32..0.05, -0.05f32..0.05, -0.05f32..0.05), 20..80),
        k in 1usize..8,
    ) {
        // Dense clusters stress the grid's bucket occupancy and the
        // shell-walk termination bound.
        let pts: PointSet = jitter
            .iter()
            .enumerate()
            .map(|(i, &(dx, dy, dz))| {
                let c = centers.point(i % centers.len());
                Point3::new(c.x + dx, c.y + dy, c.z + dz)
            })
            .collect();
        prop_assert_eq!(
            index::k_nearest_neighbors(&pts, &pts, k),
            golden::k_nearest_neighbors(&pts, &pts, k)
        );
        prop_assert_eq!(
            index::ball_query_padded(&pts, &pts, 0.01, k),
            golden::ball_query_padded(&pts, &pts, 0.01, k)
        );
    }
}

#[test]
fn empty_and_degenerate_clouds_agree() {
    let empty = PointSet::new();
    let queries: PointSet = (0..4).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
    // Empty input: every query comes back empty from both sides, padded
    // or not (there is no nearest neighbor to pad with).
    assert_eq!(
        index::k_nearest_neighbors(&empty, &queries, 3),
        golden::k_nearest_neighbors(&empty, &queries, 3)
    );
    assert_eq!(
        index::ball_query_padded(&empty, &queries, 1.0, 3),
        golden::ball_query_padded(&empty, &queries, 1.0, 3)
    );
    assert_eq!(index::ball_query_padded(&empty, &queries, 1.0, 3), vec![Vec::<usize>::new(); 4]);
    // Empty queries: empty result vectors.
    assert!(index::k_nearest_neighbors(&queries, &empty, 3).is_empty());
    assert_eq!(
        index::farthest_point_sampling(&empty, 0),
        golden::farthest_point_sampling(&empty, 0)
    );
    // Every point identical: all distances tie, index order decides.
    let same: PointSet = (0..30).map(|_| Point3::new(2.0, -1.0, 0.5)).collect();
    assert_eq!(
        index::k_nearest_neighbors(&same, &same, 5),
        golden::k_nearest_neighbors(&same, &same, 5)
    );
    assert_eq!(
        index::farthest_point_sampling(&same, 30),
        golden::farthest_point_sampling(&same, 30)
    );
    // Coplanar points: zero extent along one axis.
    let plane: PointSet =
        (0..60).map(|i| Point3::new((i % 10) as f32, (i / 10) as f32, 0.0)).collect();
    assert_eq!(
        index::ball_query_padded(&plane, &plane, 2.0, 6),
        golden::ball_query_padded(&plane, &plane, 2.0, 6)
    );
    // Empty voxel clouds on either side of a kernel map.
    let vc = VoxelCloud::from_unsorted(vec![Coord::new(0, 0, 0), Coord::new(1, 1, 0)], 1);
    let none = VoxelCloud::from_unsorted(vec![], 1);
    for (a, b) in [(&vc, &none), (&none, &vc), (&none, &none)] {
        let got = index::kernel_map(a, b, 3);
        let want = golden::kernel_map_hash(a, b, 3);
        assert_eq!(got.to_entries(), want.to_entries());
        assert_eq!(got.n_weights(), 27);
    }
}

#[test]
fn large_inputs_cross_the_parallel_thresholds_and_agree() {
    // Sizes chosen to exceed QUERY_PAR_WORK / KERNEL_PAR_WORK / the FPS
    // chunk gate (n·m ≥ 2^21), so this exercises the multi-threaded
    // paths of every index op against the serial oracle.
    let pts: PointSet = (0..6000)
        .map(|i| {
            let t = i as f32;
            Point3::new((t * 0.37).sin() * 30.0, (t * 0.61).cos() * 30.0, (t * 0.13).sin() * 10.0)
        })
        .collect();
    let queries: PointSet = (0..400)
        .map(|i| {
            let t = i as f32 + 0.5;
            Point3::new((t * 0.71).sin() * 30.0, (t * 0.29).cos() * 30.0, (t * 0.41).sin() * 10.0)
        })
        .collect();
    assert_eq!(
        index::k_nearest_neighbors(&pts, &queries, 16),
        golden::k_nearest_neighbors(&pts, &queries, 16)
    );
    assert_eq!(
        index::ball_query_padded(&pts, &queries, 4.0, 32),
        golden::ball_query_padded(&pts, &queries, 4.0, 32)
    );
    // 6000 · 400 = 2.4M distance evaluations, above FPS_PAR_WORK.
    assert_eq!(
        index::farthest_point_sampling(&pts, 400),
        golden::farthest_point_sampling(&pts, 400)
    );

    let mut x = 0xDEADBEEFu64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 64) as i32 - 32
    };
    let cloud = VoxelCloud::from_unsorted(
        (0..4000).map(|_| Coord::new(step(), step(), step())).collect(),
        1,
    );
    let got = index::kernel_map(&cloud, &cloud, 3);
    let want = golden::kernel_map_hash(&cloud, &cloud, 3);
    assert_eq!(got.to_entries(), want.to_entries());
}
