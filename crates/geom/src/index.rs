//! Grid-hash spatial indexing and the production mapping operations.
//!
//! The golden algorithms in [`crate::golden`] are deliberately naive —
//! O(n²) kNN scans, O(n·m) FPS — which makes them a trustworthy test
//! oracle and a terrible hot path: trace compilation and functional
//! execution would spend almost all their time in them. This module is
//! the production path:
//!
//! - [`GridIndex`] — a uniform grid hash over continuous points with
//!   bucketed neighbor iteration (expanding-shell kNN, AABB ball query).
//!   Buckets are laid out in **Morton (Z-curve) order** with the point
//!   coordinates mirrored into x/y/z SoA arrays, so spatially adjacent
//!   cells sit adjacent in memory and shell/AABB scans stream linear
//!   loads instead of chasing the point array,
//! - the four mapping operations, named after their golden twins:
//!   [`farthest_point_sampling`] (the bucket-pruned [`fps_pruned`]
//!   kernel), [`k_nearest_neighbors`], [`ball_query_padded`] (grid
//!   traversal) and [`kernel_map`] (**fused merge-join probing** over
//!   output buckets), each parallel per query, chunk or bucket via
//!   [`crate::par`].
//!
//! **Each op is bit-identical to its golden twin by construction** —
//! same ranking key `(dist², index)`, FPS starting at index 0 with ties
//! to the lowest index, same map emission order per weight group — and
//! `tests/mapping_backends.rs` property-tests the equivalence over random
//! and adversarial clouds, radii and strides. The executor and the
//! [`KernelMap`](crate::KernelMap) constructors call these functions
//! directly. Non-finite coordinates are outside the contract: the golden
//! oracle panics on the NaN distances they produce, while these ops rank
//! them after every real neighbor, so production queries degrade
//! benignly.

use std::collections::BinaryHeap;
use std::sync::Mutex;

use crate::par::{lock, parallel_map, parallel_map_with, worker_threads};
use crate::{golden, Coord, MapTable, Point3, PointSet, VoxelCloud};

/// Packs a non-negative squared distance and tie-breaking index into one
/// ascending comparator key: `(dist² bits, index)`. IEEE-754 bit patterns
/// of non-negative floats preserve order, so sorting by this key equals
/// sorting by `(dist², index)` — the ranking key of the golden kNN, the
/// MPU's top-k comparators, and the grid traversal below.
pub fn dist_key(d2: f32, index: u32) -> u128 {
    debug_assert!(d2 >= 0.0, "squared distances are non-negative");
    ((d2.to_bits() as u128) << 32) | index as u128
}

/// [`dist_key`] hardened against non-finite input coordinates: a NaN
/// distance (e.g. a point with a NaN coordinate, or ∞−∞) ranks **after
/// every real distance**, so a corrupt point can never displace a real
/// neighbor. The golden oracle panics on NaN instead; the two agree bit
/// for bit over finite clouds (the documented contract), while the
/// production path degrades benignly on garbage input.
fn total_dist_key(d2: f32, index: u32) -> u128 {
    let bits = if d2.is_nan() { u32::MAX } else { d2.to_bits() };
    ((bits as u128) << 32) | index as u128
}

/// Work thresholds below which the mapping ops stay serial: thread
/// spawns cost more than the loop they would split. Kernel-map probes
/// are single hash lookups (cheap per unit of "work"), so that gate sits
/// much higher than the distance-heavy query gate.
const QUERY_PAR_WORK: usize = 1 << 13;
const KERNEL_PAR_WORK: usize = 1 << 17;
const FPS_PAR_WORK: u64 = 1 << 21;

/// Minimum points per FPS chunk once the cloud is split: below this the
/// per-iteration pool round dominates the chunk scan.
const FPS_MIN_CHUNK: usize = 2048;

/// Minimum `n·m` work product for the bucket-pruned exact FPS path:
/// below it, the `O(n)` index/tile build costs more than the distance
/// evaluations pruning could save, so the golden serial sweep runs
/// as-is.
const FPS_PRUNE_WORK: u64 = 1 << 14;

/// A uniform grid hash over a slice of continuous points.
///
/// Cell size is chosen from the bounding box so cells hold ~2 points on
/// average (capped so the cell array stays O(n)); buckets are stored CSR
/// style, **ordered by the Morton (Z-curve) code of their cell** so
/// spatially adjacent buckets sit adjacent in memory, and the point
/// coordinates are mirrored into x/y/z SoA arrays in bucket-slot order
/// so candidate scans read linear memory instead of gathering through
/// the point slice. Queries walk cells in expanding Chebyshev shells
/// (kNN) or the ball's AABB (ball query) and rank candidates by
/// [`dist_key`], so the results are identical to a brute-force scan —
/// the layout moves bytes, never bits.
///
/// # Examples
///
/// ```
/// use pointacc_geom::index::GridIndex;
/// use pointacc_geom::Point3;
///
/// let pts: Vec<Point3> = (0..64)
///     .map(|i| Point3::new(i as f32 * 0.25, (i % 8) as f32, 0.0))
///     .collect();
/// let idx = GridIndex::build(&pts);
/// let nn = idx.knn(Point3::new(0.1, 0.0, 0.0), 3);
/// assert_eq!(nn[0], 0); // nearest point first
/// assert_eq!(nn.len(), 3);
/// ```
pub struct GridIndex {
    points: Vec<Point3>,
    cell: f32,
    origin: Point3,
    dims: [usize; 3],
    /// Linear cell id → Morton-ordered bucket slot.
    slot_of: Vec<u32>,
    /// CSR offsets by slot: bucket at slot `s` is
    /// `entries[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// Original point index of each bucket slot.
    entries: Vec<u32>,
    /// Point coordinates in bucket-slot order (SoA mirror of `entries`,
    /// so candidate scans stream linear memory).
    xs: Vec<f32>,
    ys: Vec<f32>,
    zs: Vec<f32>,
}

impl GridIndex {
    /// Builds the index over a copy of `points` (an empty slice yields
    /// an empty, queryable index). The index owns its point storage so
    /// it can outlive the caller's buffer.
    pub fn build(points: &[Point3]) -> Self {
        let points = points.to_vec();
        let n = points.len();
        if n == 0 {
            return GridIndex {
                points,
                cell: 1.0,
                origin: Point3::ORIGIN,
                dims: [1, 1, 1],
                slot_of: vec![0],
                starts: vec![0, 0],
                entries: Vec::new(),
                xs: Vec::new(),
                ys: Vec::new(),
                zs: Vec::new(),
            };
        }
        let mut min = points[0];
        let mut max = points[0];
        for p in &points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            min.z = min.z.min(p.z);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
            max.z = max.z.max(p.z);
        }
        let ext = [max.x - min.x, max.y - min.y, max.z - min.z];
        let (cell, dims) = if ext.iter().all(|e| e.is_finite()) {
            Self::pick_cell(ext, n)
        } else {
            // Non-finite extent: degrade to a single bucket (brute force).
            (1.0, [1, 1, 1])
        };
        let n_cells = dims[0] * dims[1] * dims[2];
        let slot_of = Self::morton_slots(dims);
        let bucket_of = |p: &Point3| -> usize {
            let cx = Self::axis_cell(p.x, min.x, cell).clamp(0, dims[0] as i128 - 1) as usize;
            let cy = Self::axis_cell(p.y, min.y, cell).clamp(0, dims[1] as i128 - 1) as usize;
            let cz = Self::axis_cell(p.z, min.z, cell).clamp(0, dims[2] as i128 - 1) as usize;
            slot_of[(cx * dims[1] + cy) * dims[2] + cz] as usize
        };
        // Counting sort into Morton-ordered CSR buckets.
        let mut starts = vec![0u32; n_cells + 1];
        for p in &points {
            starts[bucket_of(p) + 1] += 1;
        }
        for b in 0..n_cells {
            starts[b + 1] += starts[b];
        }
        let mut cursor = starts.clone();
        let mut entries = vec![0u32; n];
        for (i, p) in points.iter().enumerate() {
            let b = bucket_of(p);
            entries[cursor[b] as usize] = i as u32;
            cursor[b] += 1;
        }
        // SoA mirror of the slot order: one gather at build time buys
        // linear scans on every query.
        let mut xs = vec![0.0f32; n];
        let mut ys = vec![0.0f32; n];
        let mut zs = vec![0.0f32; n];
        for (s, &i) in entries.iter().enumerate() {
            let p = points[i as usize];
            xs[s] = p.x;
            ys[s] = p.y;
            zs[s] = p.z;
        }
        GridIndex { points, cell, origin: min, dims, slot_of, starts, entries, xs, ys, zs }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Spreads the low 21 bits of `v` to every third bit (Morton
    /// interleave helper).
    fn morton_spread(v: u64) -> u64 {
        let mut x = v & 0x1F_FFFF;
        x = (x | (x << 32)) & 0x001F_0000_0000_FFFF;
        x = (x | (x << 16)) & 0x1F_0000_FF00_00FF;
        x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
        x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
        x = (x | (x << 2)) & 0x1249_2492_4924_9249;
        x
    }

    /// Maps every linear cell id to its rank along the Morton curve, so
    /// spatially adjacent cells land in adjacent CSR buckets. Falls back
    /// to the identity (x-major) layout if a dimension exceeds the
    /// 21-bit interleave range — unreachable for any cell array capped
    /// at `4n + 64`, but cheap to guard.
    fn morton_slots(dims: [usize; 3]) -> Vec<u32> {
        let n_cells = dims[0] * dims[1] * dims[2];
        if dims.iter().any(|&d| d >= (1 << 21)) {
            return (0..n_cells as u32).collect();
        }
        let mut order: Vec<u32> = (0..n_cells as u32).collect();
        let code = |b: u32| -> u64 {
            let b = b as usize;
            let x = b / (dims[1] * dims[2]);
            let y = (b / dims[2]) % dims[1];
            let z = b % dims[2];
            Self::morton_spread(x as u64)
                | (Self::morton_spread(y as u64) << 1)
                | (Self::morton_spread(z as u64) << 2)
        };
        order.sort_unstable_by_key(|&b| code(b));
        let mut slot_of = vec![0u32; n_cells];
        for (slot, &b) in order.iter().enumerate() {
            slot_of[b as usize] = slot as u32;
        }
        slot_of
    }

    /// Cell size targeting ~2 points per occupied cell, grown until the
    /// dense cell array stays O(n).
    fn pick_cell(ext: [f32; 3], n: usize) -> (f32, [usize; 3]) {
        let vol = ext.iter().map(|&e| e as f64).product::<f64>();
        let mut cell = ((vol / n as f64) * 2.0).cbrt() as f32;
        if !(cell.is_finite() && cell > 0.0) {
            let max_ext = ext.iter().fold(0.0f32, |a, &b| a.max(b));
            cell = max_ext / (n as f32).cbrt();
        }
        if !(cell.is_finite() && cell > 0.0) {
            cell = 1.0;
        }
        let limit = (4 * n + 64) as f64;
        loop {
            let dims = ext.map(|e| ((e / cell).floor() as i64 + 1).max(1) as usize);
            let total = dims.iter().map(|&d| d as f64).product::<f64>();
            if total <= limit {
                return (cell, dims);
            }
            cell *= 1.5;
        }
    }

    /// The cell coordinate of `v` along one axis (unclamped; `i128` so
    /// arithmetic on far-out queries cannot overflow).
    fn axis_cell(v: f32, origin: f32, cell: f32) -> i128 {
        ((v - origin) / cell).floor() as i128
    }

    /// The (unclamped) cell coordinates of a query point.
    fn cell_of(&self, q: Point3) -> [i128; 3] {
        [
            Self::axis_cell(q.x, self.origin.x, self.cell),
            Self::axis_cell(q.y, self.origin.y, self.cell),
            Self::axis_cell(q.z, self.origin.z, self.cell),
        ]
    }

    /// Slot range of the bucket at cell `(x, y, z)` — scan it with
    /// [`GridIndex::scan_bucket`].
    fn bucket(&self, x: usize, y: usize, z: usize) -> std::ops::Range<usize> {
        let s = self.slot_of[(x * self.dims[1] + y) * self.dims[2] + z] as usize;
        self.starts[s] as usize..self.starts[s + 1] as usize
    }

    /// Streams one bucket's candidates from the SoA coordinate arrays:
    /// `visit(point index, dist²(q))` per slot, in slot order. Distances
    /// come from the same `Point3::dist2` arithmetic as the brute scan,
    /// so the layout changes locality, never values.
    fn scan_bucket(
        &self,
        range: std::ops::Range<usize>,
        q: Point3,
        visit: &mut impl FnMut(u32, f32),
    ) {
        for s in range {
            let d = Point3::new(self.xs[s], self.ys[s], self.zs[s]).dist2(q);
            visit(self.entries[s], d);
        }
    }

    /// Visits every bucket at Chebyshev cell distance exactly `r` from
    /// `c`, clipped to the grid.
    fn for_shell(&self, c: [i128; 3], r: i128, visit: &mut dyn FnMut(std::ops::Range<usize>)) {
        let d = self.dims;
        let clip = |lo: i128, hi: i128, dim: usize| {
            let lo = lo.max(0);
            let hi = hi.min(dim as i128 - 1);
            lo..=hi
        };
        if r == 0 {
            if (0..3).all(|a| (0..d[a] as i128).contains(&c[a])) {
                visit(self.bucket(c[0] as usize, c[1] as usize, c[2] as usize));
            }
            return;
        }
        // x-faces: |δx| = r.
        for x in [c[0] - r, c[0] + r] {
            if !(0..d[0] as i128).contains(&x) {
                continue;
            }
            for y in clip(c[1] - r, c[1] + r, d[1]) {
                for z in clip(c[2] - r, c[2] + r, d[2]) {
                    visit(self.bucket(x as usize, y as usize, z as usize));
                }
            }
        }
        // y-faces: |δy| = r, |δx| < r.
        for y in [c[1] - r, c[1] + r] {
            if !(0..d[1] as i128).contains(&y) {
                continue;
            }
            for x in clip(c[0] - r + 1, c[0] + r - 1, d[0]) {
                for z in clip(c[2] - r, c[2] + r, d[2]) {
                    visit(self.bucket(x as usize, y as usize, z as usize));
                }
            }
        }
        // z-faces: |δz| = r, |δx| < r, |δy| < r.
        for z in [c[2] - r, c[2] + r] {
            if !(0..d[2] as i128).contains(&z) {
                continue;
            }
            for x in clip(c[0] - r + 1, c[0] + r - 1, d[0]) {
                for y in clip(c[1] - r + 1, c[1] + r - 1, d[1]) {
                    visit(self.bucket(x as usize, y as usize, z as usize));
                }
            }
        }
    }

    /// Brute-force fallback (pathological queries, tiny inputs): scan
    /// every point. Identical ranking key, so identical results.
    fn brute(&self, q: Point3, k: usize, radius2: Option<f32>) -> Vec<usize> {
        let mut keys: Vec<u128> = self
            .points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let d = p.dist2(q);
                radius2.is_none_or(|r2| d <= r2).then(|| total_dist_key(d, i as u32))
            })
            .collect();
        keys.sort_unstable();
        keys.truncate(k);
        keys.into_iter().map(|key| (key & 0xFFFF_FFFF) as usize).collect()
    }

    /// The `k` nearest points to `q` in ascending `(dist², index)` order
    /// (fewer than `k` when the index holds fewer points) — identical to
    /// [`golden::k_nearest_neighbors`] on the same input.
    pub fn knn(&self, q: Point3, k: usize) -> Vec<usize> {
        if k == 0 || self.points.is_empty() {
            return Vec::new();
        }
        let c = self.cell_of(q);
        // Distance (in cells) from the query cell to the grid box; shells
        // closer than this are empty and skipped.
        let r0: i128 = (0..3)
            .map(|a| (-c[a]).max(c[a] - (self.dims[a] as i128 - 1)).max(0))
            .max()
            .unwrap_or(0);
        // Shell walking pays off only while shells still intersect the
        // grid box within a few rings; once the query sits further from
        // the box (per axis, in cells) than the *largest* grid dimension,
        // every remaining shell clips to roughly the whole grid and one
        // brute scan is cheaper. (This used to compare against the *sum*
        // of the three dims, so elongated grids — e.g. a LiDAR sweep's
        // long x-extent — kept shell-walking far past the crossover.)
        let span = self.dims.iter().copied().max().unwrap_or(1) as i128;
        if r0 > span + 8 {
            return self.brute(q, k, None);
        }
        let max_ring: i128 =
            (0..3).map(|a| c[a].max(self.dims[a] as i128 - 1 - c[a])).max().unwrap_or(0);
        // Max-heap of the best k candidate keys seen so far.
        let mut heap: BinaryHeap<u128> = BinaryHeap::with_capacity(k + 1);
        for r in r0..=max_ring.max(r0) {
            self.for_shell(c, r, &mut |bucket| {
                self.scan_bucket(bucket, q, &mut |i, d| {
                    let key = total_dist_key(d, i);
                    if heap.len() < k {
                        heap.push(key);
                    } else if *heap.peek().expect("heap holds k keys") > key {
                        heap.pop();
                        heap.push(key);
                    }
                });
            });
            if heap.len() == k {
                // Points in shells ≥ r+1 are ≥ (r-1)·cell away (one cell
                // of slack absorbs floating-point bucketing error); once
                // that exceeds the kth distance, no candidate remains.
                let kth_d2 = f32::from_bits((*heap.peek().expect("k > 0") >> 32) as u32);
                let bound = ((r - 1).max(0) as f64) * self.cell as f64;
                if bound * bound > kth_d2 as f64 {
                    break;
                }
            }
        }
        let mut keys = heap.into_vec();
        keys.sort_unstable();
        keys.into_iter().map(|key| (key & 0xFFFF_FFFF) as usize).collect()
    }

    /// The ≤ `k` nearest points within squared radius `radius2`, in
    /// ascending `(dist², index)` order — identical to
    /// [`golden::ball_query`] on the same input.
    pub fn ball(&self, q: Point3, radius2: f32, k: usize) -> Vec<usize> {
        if k == 0 || self.points.is_empty() {
            return Vec::new();
        }
        let r = radius2.max(0.0).sqrt();
        if !r.is_finite() {
            return self.brute(q, k, Some(radius2));
        }
        // Cells overlapping the ball's AABB (computed with the same
        // monotone cell mapping as bucketing, so no candidate escapes).
        let clamp = |v: i128, dim: usize| v.clamp(0, dim as i128 - 1);
        let lo = self.cell_of(Point3::new(q.x - r, q.y - r, q.z - r));
        let hi = self.cell_of(Point3::new(q.x + r, q.y + r, q.z + r));
        if (0..3).any(|a| hi[a] < 0 || lo[a] >= self.dims[a] as i128) {
            return Vec::new();
        }
        let mut keys: Vec<u128> = Vec::new();
        for x in clamp(lo[0], self.dims[0])..=clamp(hi[0], self.dims[0]) {
            for y in clamp(lo[1], self.dims[1])..=clamp(hi[1], self.dims[1]) {
                for z in clamp(lo[2], self.dims[2])..=clamp(hi[2], self.dims[2]) {
                    let bucket = self.bucket(x as usize, y as usize, z as usize);
                    self.scan_bucket(bucket, q, &mut |i, d| {
                        if d <= radius2 {
                            keys.push(total_dist_key(d, i));
                        }
                    });
                }
            }
        }
        keys.sort_unstable();
        keys.truncate(k);
        keys.into_iter().map(|key| (key & 0xFFFF_FFFF) as usize).collect()
    }
}

/// Runs `query` over every query point against one [`GridIndex`] of
/// `input`, parallelizing when the total work justifies it. Queries are
/// handed out in chunks (several per worker for balance) so per-item
/// scheduling stays off the per-query cost.
fn batch<F>(input: &PointSet, queries: &PointSet, query: F) -> Vec<Vec<usize>>
where
    F: Fn(&GridIndex, Point3) -> Vec<usize> + Sync,
{
    let index = GridIndex::build(input.points());
    let work = input.len().saturating_mul(queries.len());
    if work >= QUERY_PAR_WORK && queries.len() > 1 && worker_threads() > 1 {
        let qs = queries.points();
        let chunk = qs.len().div_ceil(worker_threads() * 4).max(8);
        let chunks: Vec<&[Point3]> = qs.chunks(chunk).collect();
        parallel_map(&chunks, |c| c.iter().map(|&q| query(&index, q)).collect::<Vec<_>>()).concat()
    } else {
        queries.points().iter().map(|&q| query(&index, q)).collect()
    }
}

/// Exact farthest point sampling (paper §2.1.1): `m` indices in
/// selection order, starting at index 0, ties to the lowest index —
/// bit-identical to [`golden::farthest_point_sampling`].
///
/// Tiny workloads (`n·m` below the index build's break-even) run the
/// golden serial sweep as-is; everything else runs [`fps_pruned`] on one
/// chunk, or on up to one chunk per worker once `n·m` reaches the
/// chunk-parallel gate. Both gates select on input size alone.
///
/// # Panics
///
/// Panics if `m > points.len()`.
pub fn farthest_point_sampling(points: &PointSet, m: usize) -> Vec<usize> {
    assert!(m <= points.len(), "cannot sample {m} from {} points", points.len());
    let n = points.len();
    if (n as u64).saturating_mul(m as u64) < FPS_PRUNE_WORK || m < 2 {
        return golden::farthest_point_sampling(points, m);
    }
    fps_pruned(points, m, fps_workers(worker_threads(), n, m))
}

/// k-nearest-neighbors of every query: ≤ `k` indices per query in
/// ascending `(dist², index)` order — bit-identical to
/// [`golden::k_nearest_neighbors`].
pub fn k_nearest_neighbors(input: &PointSet, queries: &PointSet, k: usize) -> Vec<Vec<usize>> {
    batch(input, queries, |index, q| index.knn(q, k))
}

/// Ball query with PointNet++-style padding: the ≤ `k` nearest points
/// within squared radius `radius2`, short neighborhoods repeating their
/// nearest member and empty balls falling back to the global nearest
/// neighbor, so every query gets exactly `k` entries — unless `input` is
/// empty, which yields empty neighborhoods. Bit-identical to
/// [`golden::ball_query_padded`]; the ball pass and the fallback share
/// one [`GridIndex`] build.
pub fn ball_query_padded(
    input: &PointSet,
    queries: &PointSet,
    radius2: f32,
    k: usize,
) -> Vec<Vec<usize>> {
    batch(input, queries, |index, q| {
        let mut nbrs = index.ball(q, radius2, k);
        if nbrs.is_empty() {
            nbrs = index.knn(q, 1);
        }
        if let Some(&first) = nbrs.first() {
            while nbrs.len() < k {
                nbrs.push(first);
            }
        }
        nbrs
    })
}

/// Kernel mapping between an input and an output cloud for a cubic
/// kernel of size `kernel_size` — bit-identical to
/// [`golden::kernel_map_hash`]: offsets in [`golden::kernel_offsets`]
/// order, maps within each weight group in output order.
///
/// Fused kernel-map probing: instead of one hash lookup per (output
/// point × kernel offset) — `kernel_volume · m` SipHash-class probes,
/// each a random access — the output coords are cut into contiguous
/// buckets (already spatially coherent, since a [`VoxelCloud`] is
/// sorted lexicographically) and every offset of a bucket is
/// resolved while the bucket stays hot in cache. Per offset the
/// probe coords `q + δ` ascend with `q` and the packed keys are
/// monotone in the cloud order, so each bucket×offset pass is a
/// **sorted-set intersection** against the input keys: no hashing at
/// all, both sides stream sequentially, and the two cursor advances
/// compile to conditional moves rather than data-dependent branches.
/// The keys pack into 21-bit lanes of a `u64` and the probe key is
/// one `wrapping_add` of a per-offset constant; the rare cloud whose
/// lanes exceed the ±2^19 guard delegates to the golden hash probe,
/// which is bit-identical by definition. Parallelism is over
/// buckets, so small kernels (k=2: 8 offsets) scale past 8 workers.
/// Hits leave each bucket offset-major and in ascending output
/// order, so the bucket-order merge yields exactly the golden
/// emission order regardless of worker count.
pub fn kernel_map(input: &VoxelCloud, output: &VoxelCloud, kernel_size: usize) -> MapTable {
    let offsets = golden::kernel_offsets(kernel_size);
    let s = input.stride();
    let deltas: Vec<Coord> = offsets.iter().map(|d| d.scale(s)).collect();
    let v = offsets.len();
    let qs = output.coords();

    // 64-bit fast path: with every lane in ±2^19 the biased 21-bit
    // lanes can absorb any guarded delta without wrapping into a
    // neighbor lane, so `key64(q + δ) = key64(q) + key64_delta(δ)`
    // with plain wrapping adds, and key order still matches the
    // cloud's lexicographic order.
    const LANE64: i32 = 1 << 19;
    let lane_ok = |c: &Coord| {
        c.x > -LANE64
            && c.x < LANE64
            && c.y > -LANE64
            && c.y < LANE64
            && c.z > -LANE64
            && c.z < LANE64
    };
    if !(input.coords().iter().all(lane_ok) && qs.iter().all(lane_ok) && deltas.iter().all(lane_ok))
    {
        return golden::kernel_map_hash(input, output, kernel_size);
    }
    // Ascending, since `key64` preserves the lexicographic sort
    // order of the cloud; the index of a key is the input index.
    let in64: Vec<u64> = input.coords().iter().map(|&c| key64(c)).collect();
    let q64: Vec<u64> = qs.iter().map(|&c| key64(c)).collect();
    let origin64 = key64(Coord::new(0, 0, 0));
    let d64: Vec<u64> = deltas.iter().map(|&d| key64(d).wrapping_sub(origin64)).collect();
    let n_in = input.len();

    // Self-map symmetry (odd kernels over one cloud — every
    // stride-1 sparse-conv layer): `q + δ = p  ⟺  p + (−δ) = q`,
    // and `kernel_offsets` lists `−δ` at the mirrored weight index,
    // so the upper half of the weight groups is the transpose of
    // the lower half and the center offset is the identity map.
    // Only the lower half gets probed; the rest is derived.
    let self_map =
        kernel_size % 2 == 1 && (std::ptr::eq(input, output) || input.coords() == output.coords());
    let center = v / 2;
    let n_probe = if self_map { center } else { v };

    // One bucket's fused probe: SoA hit arrays, CSR by weight. Per
    // offset, binary-search to the bucket's window, then intersect;
    // hits land in a pre-sized scratch pair (plain cursor stores —
    // `Vec::push` in this loop defeats the register allocation of
    // the merge state) and are bulk-appended per offset.
    let probe_bucket = |&(base, chunk): &(usize, &[Coord])| -> BucketHits {
        let mlen = chunk.len();
        let qk = &q64[base..base + mlen];
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut counts = vec![0usize; n_probe + 1];
        let mut buf_i = vec![0u32; mlen];
        let mut buf_o = vec![0u32; mlen];
        for (w, &dk) in d64[..n_probe].iter().enumerate() {
            let mut c = 0usize;
            let mut i = match qk.first() {
                Some(&k0) => in64.partition_point(|&key| key < k0.wrapping_add(dk)),
                None => 0,
            };
            let mut j = 0usize;
            while i < n_in && j < mlen {
                let a = in64[i];
                let b = qk[j].wrapping_add(dk);
                if a == b {
                    buf_i[c] = i as u32;
                    buf_o[c] = (base + j) as u32;
                    c += 1;
                }
                i += usize::from(a <= b);
                j += usize::from(a >= b);
            }
            inputs.extend_from_slice(&buf_i[..c]);
            outputs.extend_from_slice(&buf_o[..c]);
            counts[w + 1] = inputs.len();
        }
        BucketHits { inputs, outputs, offsets: counts }
    };

    let work = qs.len().saturating_mul(v);
    let parts: Vec<BucketHits> = if work >= KERNEL_PAR_WORK && worker_threads() > 1 {
        // Several buckets per worker for balance; large enough that
        // the per-bucket sort and merge copies stay amortized.
        let chunk = qs.len().div_ceil(worker_threads() * 4).max(256);
        let jobs: Vec<(usize, &[Coord])> =
            qs.chunks(chunk).enumerate().map(|(i, c)| (i * chunk, c)).collect();
        parallel_map(&jobs, probe_bucket)
    } else {
        vec![probe_bucket(&(0, qs))]
    };

    // Deterministic merge: weight-major over buckets in output
    // order, straight into the table's SoA storage. Derived groups
    // (self-map only) mirror the probed totals; the center offset
    // maps every point to itself.
    let mut group_len = vec![0usize; v];
    for part in &parts {
        for (w, len) in group_len[..n_probe].iter_mut().enumerate() {
            *len += part.group_len(w);
        }
    }
    if self_map {
        for w in 0..center {
            group_len[v - 1 - w] = group_len[w];
        }
        group_len[center] = n_in;
    }
    let mut offsets = vec![0usize; v + 1];
    for (w, &len) in group_len.iter().enumerate() {
        offsets[w + 1] = offsets[w] + len;
    }
    let total = offsets[v];
    let mut inputs = vec![0u32; total];
    let mut outputs = vec![0u32; total];
    let mut cursor = offsets[..n_probe].to_vec();
    for part in &parts {
        for (w, at) in cursor.iter_mut().enumerate() {
            let (pi, qi) = part.group(w);
            inputs[*at..*at + pi.len()].copy_from_slice(pi);
            outputs[*at..*at + qi.len()].copy_from_slice(qi);
            *at += pi.len();
        }
    }
    if self_map {
        // Center: the identity map, in ascending output order.
        let at = offsets[center];
        for (i, (pi, qi)) in
            inputs[at..at + n_in].iter_mut().zip(&mut outputs[at..at + n_in]).enumerate()
        {
            *pi = i as u32;
            *qi = i as u32;
        }
        // Mirrors: transpose the probed group, counting-sorted by
        // its input index — the mirrored group's output — so the
        // golden per-group emission order (ascending output) holds.
        // The probed + center groups all precede the mirrored ones,
        // so one split separates reads from writes.
        let split = offsets[center + 1];
        let (in_src, in_dst) = inputs.split_at_mut(split);
        let (out_src, out_dst) = outputs.split_at_mut(split);
        let mut pos = vec![0u32; n_in + 1];
        for w in 0..center {
            let src = offsets[w]..offsets[w + 1];
            let dst0 = offsets[v - 1 - w] - split;
            pos.fill(0);
            for &p in &in_src[src.clone()] {
                pos[p as usize + 1] += 1;
            }
            for b in 0..n_in {
                pos[b + 1] += pos[b];
            }
            for (&p, &q) in in_src[src.clone()].iter().zip(&out_src[src.clone()]) {
                let at = dst0 + pos[p as usize] as usize;
                in_dst[at] = q;
                out_dst[at] = p;
                pos[p as usize] += 1;
            }
        }
    }
    MapTable::from_soa(inputs, outputs, offsets)
}

/// [`Coord::key`]'s 21-bit-lane sibling: packs a coordinate whose lanes
/// all lie in ±2^19 into a `u64` that preserves the lexicographic coord
/// order. The headroom above the guard is what lets kernel-map probes
/// add a per-offset delta with one wrapping add — see [`kernel_map`].
fn key64(c: Coord) -> u64 {
    const BIAS: i64 = 1 << 20;
    (((c.x as i64 + BIAS) as u64) << 42)
        | (((c.y as i64 + BIAS) as u64) << 21)
        | ((c.z as i64 + BIAS) as u64)
}

/// One output bucket's kernel-map hits, grouped by weight (the
/// per-bucket product of the fused probe, merged bucket-major into the
/// final [`MapTable`]).
struct BucketHits {
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    /// CSR offsets by weight into `inputs`/`outputs`.
    offsets: Vec<usize>,
}

impl BucketHits {
    fn group_len(&self, w: usize) -> usize {
        self.offsets[w + 1] - self.offsets[w]
    }

    fn group(&self, w: usize) -> (&[u32], &[u32]) {
        let range = self.offsets[w]..self.offsets[w + 1];
        (&self.inputs[range.clone()], &self.outputs[range])
    }
}

/// FPS chunk count, as a single predicate: the op's work is `n·m`
/// distance evaluations — below [`FPS_PAR_WORK`] a per-iteration pool
/// round costs more than it splits, and above it each chunk still needs
/// at least [`FPS_MIN_CHUNK`] points to amortize its share of the round.
/// Returns 1 (one chunk, run on the caller) or the capped worker count.
fn fps_workers(available: usize, n: usize, m: usize) -> usize {
    if (n as u64).saturating_mul(m as u64) < FPS_PAR_WORK {
        1
    } else {
        available.min(n.div_ceil(FPS_MIN_CHUNK)).max(1)
    }
}

/// One contiguous run of Morton-ordered bucket slots with the tight
/// AABB of its member points — the pruning granule of [`fps_pruned`].
struct FpsTile {
    /// Global slot range `[start, end)`.
    start: u32,
    end: u32,
    lo: [f32; 3],
    hi: [f32; 3],
}

impl FpsTile {
    /// Conservative lower bound on the squared distance from `q` to any
    /// point of the tile: the squared gap to the AABB (0 inside).
    /// Non-finite coordinates degrade safely — `f32::max` discards a
    /// NaN operand, and a NaN result fails the `>=` skip test — so the
    /// bound can only ever under-estimate, never prune wrongly.
    fn gap2(&self, q: Point3) -> f32 {
        let gx = (self.lo[0] - q.x).max(q.x - self.hi[0]).max(0.0);
        let gy = (self.lo[1] - q.y).max(q.y - self.hi[1]).max(0.0);
        let gz = (self.lo[2] - q.z).max(q.z - self.hi[2]).max(0.0);
        gx * gx + gy * gy + gz * gz
    }
}

/// Packs a running min-distance and original point index into the
/// total-order arg-max key: `(dist² bits << 32) | (MAX − index)`, so
/// `max` picks the greatest distance with ties to the **lowest** index —
/// exactly the golden serial scan's selection policy. `dmin` is never
/// NaN (updates are gated on `nd < dmin`), so bit order equals numeric
/// order.
fn fps_key(dmin: f32, index: u32) -> u64 {
    ((dmin.to_bits() as u64) << 32) | u64::from(u32::MAX - index)
}

/// One chunk's contiguous share of the pruned-FPS state: the running
/// min-distances of its slot range plus the cached per-tile arg-max
/// keys and upper bounds.
struct FpsChunk<'a> {
    index: &'a GridIndex,
    /// First global slot of this chunk (`dmin[0]` is that slot).
    slot_base: usize,
    dmin: Vec<f32>,
    tiles: Vec<FpsTile>,
    /// Cached arg-max key of each tile — exact as long as the tile's
    /// `dmin` entries are unchanged, which is precisely what the skip
    /// condition proves.
    keys: Vec<u64>,
    /// Slots whose distance to a selected point was evaluated so far
    /// (the pruned inner-loop trip count).
    scanned: u64,
}

impl<'a> FpsChunk<'a> {
    /// Builds the chunk state over global slots `[lo, hi)`, cutting the
    /// range into tiles of `tile_len` slots with member-point AABBs.
    fn new(index: &'a GridIndex, lo: usize, hi: usize, tile_len: usize) -> Self {
        let mut tiles = Vec::with_capacity((hi - lo).div_ceil(tile_len.max(1)));
        let mut keys = Vec::with_capacity(tiles.capacity());
        let mut s = lo;
        while s < hi {
            let e = (s + tile_len).min(hi);
            let mut t = FpsTile {
                start: s as u32,
                end: e as u32,
                lo: [f32::INFINITY; 3],
                hi: [f32::NEG_INFINITY; 3],
            };
            let mut key = 0u64;
            for j in s..e {
                t.lo[0] = t.lo[0].min(index.xs[j]);
                t.lo[1] = t.lo[1].min(index.ys[j]);
                t.lo[2] = t.lo[2].min(index.zs[j]);
                t.hi[0] = t.hi[0].max(index.xs[j]);
                t.hi[1] = t.hi[1].max(index.ys[j]);
                t.hi[2] = t.hi[2].max(index.zs[j]);
                // All min-distances start at +∞, so the initial arg-max
                // key of a tile is its lowest original index.
                key = key.max(fps_key(f32::INFINITY, index.entries[j]));
            }
            tiles.push(t);
            keys.push(key);
            s = e;
        }
        FpsChunk {
            index,
            slot_base: lo,
            dmin: vec![f32::INFINITY; hi - lo],
            tiles,
            keys,
            scanned: 0,
        }
    }

    /// One FPS iteration over this chunk with `q` the newly selected
    /// point: per tile, either *prove* no min-distance can drop —
    /// `gap²(q, tile) ≥ max dmin` means every update `nd < dmin` fails,
    /// so the cached arg-max key stays exact — or scan the tile,
    /// updating `dmin` and re-deriving the key. Returns the chunk's
    /// arg-max key.
    fn step(&mut self, q: Point3) -> u64 {
        let idx = self.index;
        let mut best = 0u64;
        for (t, tile) in self.tiles.iter().enumerate() {
            // The cached key's distance field *is* the tile's max dmin.
            let ub = f32::from_bits((self.keys[t] >> 32) as u32);
            if tile.gap2(q) >= ub {
                best = best.max(self.keys[t]);
                continue;
            }
            let mut tile_key = 0u64;
            for s in tile.start as usize..tile.end as usize {
                let dx = idx.xs[s] - q.x;
                let dy = idx.ys[s] - q.y;
                let dz = idx.zs[s] - q.z;
                let nd = dx * dx + dy * dy + dz * dz;
                let d = &mut self.dmin[s - self.slot_base];
                if nd < *d {
                    *d = nd;
                }
                tile_key = tile_key.max(fps_key(*d, idx.entries[s]));
            }
            self.scanned += u64::from(tile.end - tile.start);
            self.keys[t] = tile_key;
            best = best.max(tile_key);
        }
        best
    }
}

/// Tile size for pruned FPS: ~√n slots balances the per-iteration tile
/// sweep (`n / tile_len` bound checks) against the scan granularity.
fn fps_tile_len(n: usize) -> usize {
    ((n as f64).sqrt() as usize).clamp(16, 4096)
}

/// Bucket-pruned **exact** farthest point sampling over a [`GridIndex`]
/// of the cloud (its `O(n)` build amortizes over the `m` pruned
/// iterations), with the Morton slot range split into `chunks`
/// tile-aligned chunks.
///
/// The running min-distance array lives in Morton slot order; tiles of
/// ~√n consecutive slots cache their arg-max key (max dmin, ties to the
/// lowest original index, packed by `fps_key`). Per iteration a tile
/// whose AABB gap to the new point is ≥ its cached max dmin is skipped
/// outright — the gap lower-bounds every new distance, so no update
/// could fire and the cached key is still exact.
///
/// Each iteration is one [`parallel_map_with`] round over the chunks
/// (one chunk is one item, which runs inline on the caller): every chunk
/// updates its own tiles and returns its arg-max key, and the `max` over
/// those keys implements exactly the serial scan's policy (greatest
/// distance, ties to the lowest original index). Selection is therefore
/// **bit-identical to [`golden::farthest_point_sampling`]** for every
/// input and chunk count (property-tested on adversarial clouds,
/// including +∞ coordinates, in `tests/mapping_backends.rs`).
pub fn fps_pruned(points: &PointSet, m: usize, chunks: usize) -> Vec<usize> {
    let n = points.len();
    if m == 0 || n == 0 {
        return Vec::new();
    }
    let index = GridIndex::build(points.points());
    let tile_len = fps_tile_len(n);
    // Chunk boundaries in whole tiles, sized for `chunks` chunks.
    let chunk_len = n.div_ceil(tile_len).div_ceil(chunks.max(1)) * tile_len;
    let chunks: Vec<Mutex<FpsChunk>> = (0..n)
        .step_by(chunk_len)
        .map(|lo| Mutex::new(FpsChunk::new(&index, lo, (lo + chunk_len).min(n), tile_len)))
        .collect();
    let mut selected = Vec::with_capacity(m);
    let mut current = 0usize;
    selected.push(current);
    for _ in 1..m {
        let q = index.points[current];
        let keys = parallel_map_with(chunks.len(), &chunks, |c| lock(c).step(q));
        let key = keys.into_iter().max().unwrap_or(0);
        current = (u32::MAX - (key & 0xFFFF_FFFF) as u32) as usize;
        selected.push(current);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_points(n: usize, seed: u64) -> PointSet {
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f32 / 50.0 - 10.0
        };
        (0..n).map(|_| Point3::new(step(), step(), step())).collect()
    }

    fn pseudo_cloud(n: usize, seed: u64, stride: i32) -> VoxelCloud {
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 48) as i32 - 24) * stride
        };
        VoxelCloud::from_unsorted(
            (0..n).map(|_| Coord::new(step(), step(), step())).collect(),
            stride,
        )
    }

    #[test]
    fn dist_key_orders_like_floats() {
        assert!(dist_key(0.5, 9) < dist_key(0.5, 10));
        assert!(dist_key(0.5, 10) < dist_key(1.5, 0));
        assert!(dist_key(0.0, 0) < dist_key(f32::MIN_POSITIVE, 0));
    }

    #[test]
    fn grid_knn_matches_golden() {
        let input = pseudo_points(300, 3);
        let queries = pseudo_points(40, 7);
        let index = GridIndex::build(input.points());
        for k in [1usize, 3, 8, 300, 500] {
            let want = golden::k_nearest_neighbors(&input, &queries, k);
            for (qi, &q) in queries.points().iter().enumerate() {
                assert_eq!(index.knn(q, k), want[qi], "k={k} query={qi}");
            }
        }
    }

    #[test]
    fn grid_ball_matches_golden() {
        let input = pseudo_points(250, 11);
        let queries = pseudo_points(30, 5);
        let index = GridIndex::build(input.points());
        for r2 in [0.01f32, 1.0, 25.0, 1e6] {
            let want = golden::ball_query(&input, &queries, r2, 6);
            for (qi, &q) in queries.points().iter().enumerate() {
                assert_eq!(index.ball(q, r2, 6), want[qi], "r2={r2} query={qi}");
            }
        }
    }

    #[test]
    fn grid_handles_degenerate_clouds() {
        // All points identical: zero extent in every axis.
        let same: PointSet = (0..20).map(|_| Point3::new(1.5, -2.0, 3.0)).collect();
        let index = GridIndex::build(same.points());
        assert_eq!(index.knn(Point3::ORIGIN, 3), vec![0, 1, 2]);
        // Collinear points: zero extent in two axes.
        let line: PointSet = (0..50).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        let index = GridIndex::build(line.points());
        assert_eq!(index.knn(Point3::new(10.2, 0.0, 0.0), 2), vec![10, 11]);
        // Empty cloud.
        let empty = GridIndex::build(&[]);
        assert!(empty.knn(Point3::ORIGIN, 4).is_empty());
        assert!(empty.ball(Point3::ORIGIN, 1.0, 4).is_empty());
    }

    #[test]
    fn nan_points_rank_last_never_first() {
        // A point with a NaN coordinate must not displace any real
        // neighbor (NaN distances rank after every finite distance).
        let mut pts: Vec<Point3> = (0..20).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        pts[7] = Point3::new(f32::NAN, 0.0, 0.0);
        let index = GridIndex::build(&pts);
        let q = Point3::new(15.0, 0.0, 0.0);
        assert_eq!(index.knn(q, 3), vec![15, 14, 16]);
        // The corrupt point only appears once every real point is taken.
        assert_eq!(index.knn(q, 20).last(), Some(&7));
        // Balls never admit a NaN distance (NaN ≤ r² is false).
        assert!(index.ball(Point3::new(7.0, 0.0, 0.0), 4.0, 8).iter().all(|&i| i != 7));
    }

    #[test]
    fn far_queries_fall_back_to_brute_force() {
        let input = pseudo_points(100, 9);
        let index = GridIndex::build(input.points());
        let far = Point3::new(1e30, -1e30, 1e30);
        let queries = PointSet::from_points(vec![far]);
        assert_eq!(vec![index.knn(far, 5)], golden::k_nearest_neighbors(&input, &queries, 5));
    }

    #[test]
    fn indexed_backend_matches_golden_end_to_end() {
        let input = pseudo_points(220, 1);
        let queries = pseudo_points(35, 2);
        assert_eq!(
            k_nearest_neighbors(&input, &queries, 9),
            golden::k_nearest_neighbors(&input, &queries, 9)
        );
        assert_eq!(
            ball_query_padded(&input, &queries, 4.0, 8),
            golden::ball_query_padded(&input, &queries, 4.0, 8)
        );
        assert_eq!(
            farthest_point_sampling(&input, 64),
            golden::farthest_point_sampling(&input, 64)
        );
        let cloud = pseudo_cloud(150, 5, 1);
        assert_eq!(
            kernel_map(&cloud, &cloud, 3).canonicalized(),
            golden::kernel_map_hash(&cloud, &cloud, 3).canonicalized()
        );
    }

    #[test]
    fn parallel_fps_is_bit_identical_to_serial() {
        // Big enough to cross FPS_PAR_WORK with several workers.
        let pts = pseudo_points(8192, 17);
        let want = golden::farthest_point_sampling(&pts, 300);
        assert_eq!(fps_pruned(&pts, 300, 1), want);
        assert_eq!(fps_pruned(&pts, 300, 4), want);
        assert_eq!(farthest_point_sampling(&pts, 300), want);
    }

    #[test]
    fn padded_ball_query_on_empty_input_is_empty() {
        let queries = pseudo_points(4, 3);
        let empty = PointSet::new();
        let out = ball_query_padded(&empty, &queries, 1.0, 4);
        assert_eq!(out, vec![Vec::<usize>::new(); 4]);
        assert_eq!(out, golden::ball_query_padded(&empty, &queries, 1.0, 4));
    }

    #[test]
    fn fps_gating_is_one_predicate() {
        // Below the work threshold: one chunk regardless of availability.
        assert_eq!(fps_workers(8, 4096, 511), 1);
        // At the threshold (4096·512 = FPS_PAR_WORK): two chunks.
        assert_eq!(fps_workers(8, 4096, 512), 2);
        // Mid-size cloud, large m: n·m alone decides, so this splits.
        assert_eq!(fps_workers(8, 3000, 1000), 2);
        // Chunk count caps at availability.
        assert_eq!(fps_workers(2, 1 << 20, 64), 2);
        // m = 0 does no update work.
        assert_eq!(fps_workers(8, 1 << 20, 0), 1);
    }

    #[test]
    fn pruned_fps_is_bit_identical_to_golden_and_prunes_work() {
        let pts = pseudo_points(4096, 41);
        for m in [1usize, 2, 37, 300] {
            assert_eq!(fps_pruned(&pts, m, 1), golden::farthest_point_sampling(&pts, m), "m={m}");
        }
        // At a realistic sampling ratio the bound scan must actually
        // prune: a whole-cloud chunk stepped through the 512 golden
        // selections picks each next one while scanning well below half
        // the dense sweep.
        let m = 512;
        let sel = golden::farthest_point_sampling(&pts, m);
        let index = GridIndex::build(pts.points());
        let mut chunk = FpsChunk::new(&index, 0, pts.len(), fps_tile_len(pts.len()));
        for w in sel.windows(2) {
            let key = chunk.step(pts.point(w[0]));
            assert_eq!((u32::MAX - key as u32) as usize, w[1]);
        }
        let dense = (pts.len() * (m - 1)) as u64;
        assert!(chunk.scanned * 2 < dense, "no pruning: scanned {} of {dense}", chunk.scanned);
    }

    #[test]
    fn pruned_fps_handles_duplicate_and_degenerate_clouds() {
        // All-identical points: every dmin collapses to 0 and golden
        // re-selects index 0 forever — the packed key must reproduce it.
        let dup: PointSet = (0..64).map(|_| Point3::new(1.0, 2.0, 3.0)).collect();
        assert_eq!(fps_pruned(&dup, 5, 1), golden::farthest_point_sampling(&dup, 5));
        // Collinear cloud.
        let line: PointSet = (0..257).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
        assert_eq!(fps_pruned(&line, 31, 1), golden::farthest_point_sampling(&line, 31));
        // A +∞ coordinate: dmin stays +∞, its tile is never skipped, and
        // golden keeps re-selecting it — exactness must survive.
        let mut pts: Vec<Point3> =
            (0..128).map(|i| Point3::new(i as f32, (i % 7) as f32, 0.0)).collect();
        pts[17] = Point3::new(f32::INFINITY, 0.0, 0.0);
        let inf: PointSet = pts.into_iter().collect();
        assert_eq!(fps_pruned(&inf, 9, 1), golden::farthest_point_sampling(&inf, 9));
    }

    #[test]
    fn morton_slots_are_a_permutation() {
        let slots = GridIndex::morton_slots([3, 4, 5]);
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60u32).collect::<Vec<_>>());
        // The Z-curve keeps the all-zero cell first.
        assert_eq!(slots[0], 0);
    }

    #[test]
    fn fused_kernel_map_emission_order_matches_golden() {
        // Bit-for-bit table equality, including grouping and the
        // within-group output order the cache simulator binary-searches.
        let cloud = pseudo_cloud(500, 77, 1);
        for ks in [2usize, 3] {
            let got = kernel_map(&cloud, &cloud, ks);
            let want = golden::kernel_map_hash(&cloud, &cloud, ks);
            assert_eq!(got.to_entries(), want.to_entries(), "kernel_size={ks}");
        }
        let coarse = cloud.downsample(2);
        let got = kernel_map(&cloud, &coarse, 2);
        let want = golden::kernel_map_hash(&cloud, &coarse, 2);
        assert_eq!(got.to_entries(), want.to_entries());
    }
}
