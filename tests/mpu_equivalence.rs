//! Property-based equivalence: the PointAcc mapping unit must produce
//! bit-identical results to the golden CPU algorithms on arbitrary
//! point clouds (the paper's correctness claim for the ranking-based
//! unification, §4.1).

use pointacc::Mpu;
use pointacc_geom::{golden, Coord, Point3, PointSet, VoxelCloud};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec((-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0), 1..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
}

fn arb_cloud(max_n: usize) -> impl Strategy<Value = VoxelCloud> {
    prop::collection::vec((-20i32..20, -20i32..20, -20i32..20), 1..max_n).prop_map(|v| {
        VoxelCloud::from_unsorted(v.into_iter().map(|(x, y, z)| Coord::new(x, y, z)).collect(), 1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fps_matches_golden(pts in arb_points(120), frac in 0.1f64..1.0) {
        let m = ((pts.len() as f64 * frac) as usize).clamp(1, pts.len());
        let mpu = Mpu::new(16);
        let (got, stats) = mpu.farthest_point_sampling(&pts, m);
        prop_assert_eq!(got, golden::farthest_point_sampling(&pts, m));
        prop_assert_eq!(stats.cycles, mpu.fps_cycles_estimate(pts.len(), m));
    }

    #[test]
    fn knn_matches_golden(pts in arb_points(100), q in arb_points(20), k in 1usize..16) {
        let mpu = Mpu::new(8);
        let (got, _) = mpu.k_nearest_neighbors(&pts, &q, k);
        prop_assert_eq!(got, golden::k_nearest_neighbors(&pts, &q, k));
    }

    #[test]
    fn ball_query_matches_golden(
        pts in arb_points(100),
        q in arb_points(15),
        k in 1usize..16,
        r2 in 0.5f32..500.0,
    ) {
        let mpu = Mpu::new(16);
        let (got, _) = mpu.ball_query_padded(&pts, &q, r2, k);
        prop_assert_eq!(got, golden::ball_query_padded(&pts, &q, r2, k));
    }

    #[test]
    fn kernel_map_matches_hash(cloud in arb_cloud(150), ks in 2usize..4) {
        let mpu = Mpu::new(16);
        let (got, _) = mpu.kernel_map(&cloud, &cloud, ks);
        let want = golden::kernel_map_hash(&cloud, &cloud, ks);
        prop_assert_eq!(got.canonicalized(), want.canonicalized());
    }

    #[test]
    fn downsampled_kernel_map_matches_hash(cloud in arb_cloud(120)) {
        let mpu = Mpu::new(8);
        let (out, _) = mpu.quantize(&cloud, 2);
        let want_out = cloud.downsample(2);
        prop_assert_eq!(&out, &want_out);
        let (got, _) = mpu.kernel_map(&cloud, &out, 2);
        let want = golden::kernel_map_hash(&cloud, &out, 2);
        prop_assert_eq!(got.canonicalized(), want.canonicalized());
    }

    #[test]
    fn quantize_idempotent_at_same_stride(cloud in arb_cloud(100)) {
        let mpu = Mpu::new(8);
        let (once, _) = mpu.quantize(&cloud, 2);
        let (twice, _) = mpu.quantize(&once, 1);
        prop_assert_eq!(once, twice);
    }
}

#[test]
fn padded_ball_query_on_empty_input_matches_golden() {
    // No input point to group or pad with: every query gets an empty
    // neighborhood instead of a panic.
    let empty = PointSet::new();
    let queries: PointSet = (0..3).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
    let (got, _) = Mpu::new(8).ball_query_padded(&empty, &queries, 1.0, 4);
    assert_eq!(got, vec![Vec::<usize>::new(); 3]);
    assert_eq!(got, golden::ball_query_padded(&empty, &queries, 1.0, 4));
}
