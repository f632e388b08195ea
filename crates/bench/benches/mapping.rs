//! Mapping-op benchmark: wall-clock of each production op in
//! `pointacc_geom::index` vs its brute-force twin in
//! `pointacc_geom::golden`, plus the modeled (host-independent) points/s
//! of the accelerator configs on the same workload.
//!
//! Besides the printed rows, the run writes `BENCH_mapping.json`
//! (override the path with `BENCH_MAPPING_OUT`) so CI records the perf
//! trajectory: index-over-golden speedup per operation and modeled
//! points/s. The acceptance bar is a ≥ 3× speedup on kNN / ball-query /
//! fused kernel-map construction / bucket-pruned exact FPS.
//!
//! Workload size follows `POINTACC_SCALE` (clamped so the golden O(n²)
//! side stays benchmarkable at scale 1.0).

use std::hint::black_box;
use std::time::Instant;

use criterion::{BenchmarkId, Criterion};
use pointacc::{Accelerator, Engine, PointAccConfig};
use pointacc_data::Dataset;
use pointacc_geom::{golden, index, PointSet};
use pointacc_nn::zoo;

/// Minimum index-over-golden wall-clock speedup per op at full size.
const MIN_SPEEDUP: f64 = 3.0;

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut ts = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        ts.push(t.elapsed().as_secs_f64());
    }
    ts.sort_by(f64::total_cmp);
    ts[reps / 2]
}

/// One op timed as its golden twin and its index op; returns
/// `(golden_s, indexed_s)`.
fn compare<G, I>(reps: usize, golden: impl FnMut() -> G, index: impl FnMut() -> I) -> (f64, f64) {
    (time_median(reps, golden), time_median(reps, index))
}

fn main() {
    let scale = pointacc_bench::scale();
    // The golden side is O(n²) per op; clamp so scale 1.0 stays feasible
    // while the floor keeps the comparison meaningful at smoke scales.
    let n = ((40_000.0 * scale) as usize).clamp(4_000, 12_000);
    let n_queries = n / 4;
    let k = 16;
    let m = n / 4;
    let reps = 5;

    let pts = Dataset::S3dis.generate(42, n);
    let queries = PointSet::from_points(pts.points()[..n_queries].to_vec());
    let (min, max) = pts.bounds().expect("non-empty dataset");
    let diag = max.sub(min).norm();
    let radius = diag * 0.05;
    let cloud = pts.voxelize((diag / 64.0).max(1e-3));

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("mapping");
    g.sample_size(reps);

    let r2 = radius * radius;
    let (knn_g, knn_i) = compare(
        reps,
        || golden::k_nearest_neighbors(&pts, &queries, k),
        || index::k_nearest_neighbors(&pts, &queries, k),
    );
    let (ball_g, ball_i) = compare(
        reps,
        || golden::ball_query_padded(&pts, &queries, r2, k),
        || index::ball_query_padded(&pts, &queries, r2, k),
    );
    let (km_g, km_i) = compare(
        reps,
        || golden::kernel_map_hash(&cloud, &cloud, 3),
        || index::kernel_map(&cloud, &cloud, 3),
    );
    let (fps_g, fps_i) = compare(
        reps,
        || golden::farthest_point_sampling(&pts, m),
        || index::farthest_point_sampling(&pts, m),
    );

    let rows = [
        ("knn", knn_g, knn_i),
        ("ball_query", ball_g, ball_i),
        ("kernel_map", km_g, km_i),
        ("fps", fps_g, fps_i),
    ];
    println!("mapping workload: {n} points, {n_queries} queries, k={k}, {} voxels", cloud.len());
    for (name, golden_s, indexed_s) in rows {
        println!(
            "mapping/{name:<12} golden {:>9.3} ms | indexed {:>9.3} ms",
            golden_s * 1e3,
            indexed_s * 1e3
        );
        g.report_metric(
            BenchmarkId::new(name, "indexed_speedup"),
            golden_s / indexed_s.max(1e-12),
            "x",
        );
    }

    // Modeled (simulated, host-independent) throughput on the same
    // workload family: the capacity signal the serving front-end prices
    // requests with.
    let full = Accelerator::new(PointAccConfig::full());
    let edge = Accelerator::new(PointAccConfig::edge());
    let bench = &zoo::benchmarks()[0];
    let trace = pointacc_bench::cached_benchmark_trace(bench, 42, scale);
    let mut modeled = Vec::new();
    for engine in [&full as &dyn Engine, &edge] {
        let pps = engine.evaluate(&trace).points_per_s(trace.input_points());
        g.report_metric(BenchmarkId::new(engine.name(), bench.notation), pps, "points/s");
        modeled.push((engine.name().to_string(), pps));
    }
    g.finish();

    // Machine-readable trajectory record.
    let json = format!(
        concat!(
            "{{\n",
            "  \"scale\": {},\n",
            "  \"points\": {},\n",
            "  \"queries\": {},\n",
            "  \"k\": {},\n",
            "  \"wall_clock_speedup_indexed_over_golden\": {{\n",
            "    \"knn\": {:.3},\n",
            "    \"ball_query\": {:.3},\n",
            "    \"kernel_map\": {:.3},\n",
            "    \"fps\": {:.3}\n",
            "  }},\n",
            "  \"modeled_points_per_s\": {{\n",
            "    \"{}\": {:.1},\n",
            "    \"{}\": {:.1}\n",
            "  }}\n",
            "}}\n"
        ),
        scale,
        n,
        n_queries,
        k,
        knn_g / knn_i.max(1e-12),
        ball_g / ball_i.max(1e-12),
        km_g / km_i.max(1e-12),
        fps_g / fps_i.max(1e-12),
        modeled[0].0,
        modeled[0].1,
        modeled[1].0,
        modeled[1].1,
    );
    // Default to the workspace root, regardless of `cargo bench` cwd.
    let out = std::env::var("BENCH_MAPPING_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mapping.json").into()
    });
    std::fs::write(&out, &json).expect("write BENCH_mapping.json");
    println!("wrote {out}");

    // Enforce the documented per-op bar: kNN, ball-query, the fused
    // kernel map and bucket-pruned exact FPS must each beat golden ≥ 3×
    // (every op is bit-identical by property test, so the bar is pure
    // wall-clock). A regression fails the
    // bench-smoke CI job, not just a number in the JSON. Clamped smoke
    // workloads (n below the default 12k) run ops in the low
    // milliseconds where fixed costs — index build, buffer setup, the
    // golden hash table turning cache-resident — compress the ratios,
    // so the bar derates to 60% there; that still fails hard on a real
    // regression (the pre-merge-join kernel map measured 1.1×).
    let floor = if n < 12_000 { 0.6 * MIN_SPEEDUP } else { MIN_SPEEDUP };
    for (name, golden_s, indexed_s) in rows {
        let ratio = golden_s / indexed_s.max(1e-12);
        assert!(ratio >= floor, "{name}: index op is only {ratio:.2}x over golden (bar: {floor}x)");
    }
}
