//! Criterion micro-benchmarks of the PointAcc compute kernels: streaming
//! merge, top-k, FPS, kernel mapping (merge-sort vs hash), cache
//! simulation and the systolic functional model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pointacc::mmu::{simulate_sparse_accesses, CacheConfig, SparseAccessPlan};
use pointacc::mpu::{Mpu, RankEngine, StreamMerger};
use pointacc_geom::{golden, Coord, FeatureMatrix, Point3, PointSet, VoxelCloud};
use pointacc_sim::{SortItem, SystolicArray};

fn items(n: usize, seed: u64) -> Vec<SortItem> {
    let mut x = seed | 1;
    let mut v: Vec<SortItem> = (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            SortItem::new((x % 1_000_000) as u128, i as u64)
        })
        .collect();
    v.sort_by_key(|i| i.key);
    v
}

fn points(n: usize) -> PointSet {
    (0..n)
        .map(|i| {
            let t = i as f32;
            Point3::new((t * 0.37).sin() * 10.0, (t * 0.61).cos() * 10.0, (t * 0.13).sin())
        })
        .collect()
}

fn cloud(n: usize) -> VoxelCloud {
    let mut x = 7u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 64) as i32 - 32
    };
    VoxelCloud::from_unsorted((0..n).map(|_| Coord::new(step(), step(), step())).collect(), 1)
}

fn bench_stream_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_merge");
    g.sample_size(20);
    for n in [1024usize, 8192] {
        let a = items(n, 1);
        let b = items(n, 2);
        let merger = StreamMerger::new(64);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| merger.merge(&a, &b));
        });
    }
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("topk");
    g.sample_size(20);
    let engine = RankEngine::new(64);
    for (n, k) in [(4096usize, 32usize), (8192, 64)] {
        let input = items(n, 3);
        g.bench_with_input(BenchmarkId::new("rank", format!("n{n}_k{k}")), &n, |bench, _| {
            bench.iter(|| engine.topk(&input, k));
        });
    }
    g.finish();
}

fn bench_fps(c: &mut Criterion) {
    let mut g = c.benchmark_group("fps");
    g.sample_size(10);
    let pts = points(2048);
    let mpu = Mpu::new(64);
    g.bench_function("mpu_2048_to_512", |b| b.iter(|| mpu.farthest_point_sampling(&pts, 512)));
    g.bench_function("golden_2048_to_512", |b| {
        b.iter(|| golden::farthest_point_sampling(&pts, 512))
    });
    g.finish();
}

fn bench_kernel_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_map");
    g.sample_size(10);
    let vc = cloud(5000);
    let mpu = Mpu::new(64);
    g.bench_function("mergesort_mpu", |b| b.iter(|| mpu.kernel_map(&vc, &vc, 3)));
    g.bench_function("hash_golden", |b| b.iter(|| golden::kernel_map_hash(&vc, &vc, 3)));
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_sim");
    g.sample_size(10);
    let vc = cloud(8000);
    let maps = golden::kernel_map_hash(&vc, &vc, 3);
    let plan = SparseAccessPlan { ic_tiles: 1, oc_tiles: 1, out_tile_points: 1024 };
    for bp in [8usize, 64] {
        let cfg = CacheConfig { capacity_bytes: 256 * 1024, block_points: bp, row_bytes: 128 };
        g.bench_with_input(BenchmarkId::from_parameter(bp), &bp, |b, _| {
            b.iter(|| simulate_sparse_accesses(&[cfg], &maps, plan));
        });
    }
    g.finish();
}

fn bench_systolic(c: &mut Criterion) {
    let mut g = c.benchmark_group("systolic_functional");
    g.sample_size(10);
    let arr = SystolicArray::new(16, 16);
    let a = FeatureMatrix::from_fn(512, 64, |r, k| ((r * k) % 17) as f32 * 0.1);
    let b = FeatureMatrix::from_fn(64, 64, |r, k| ((r + k) % 13) as f32 * 0.1);
    g.bench_function("512x64x64", |bench| bench.iter(|| arr.matmul_functional(&a, &b)));
    g.finish();
}

criterion_group!(
    benches,
    bench_stream_merge,
    bench_topk,
    bench_fps,
    bench_kernel_map,
    bench_cache,
    bench_systolic
);
criterion_main!(benches);
