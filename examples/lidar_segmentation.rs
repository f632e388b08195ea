//! LiDAR semantic segmentation scenario: a synthetic SemanticKITTI sweep
//! through MinkowskiUNet, comparing PointAcc against GPU/CPU baselines
//! through the unified engine surface — the workload of the paper's
//! headline result. The three engines evaluate concurrently.
//!
//! ```sh
//! cargo run --release --example lidar_segmentation
//! ```

use pointacc::{Accelerator, Engine, PointAccConfig};
use pointacc_baselines::Platform;
use pointacc_bench::harness::parallel_map;
use pointacc_data::Dataset;
use pointacc_nn::{zoo, ExecMode, Executor};

fn main() {
    let n_points = 40_000;
    let sweep = Dataset::SemanticKitti.generate(3, n_points);
    let voxels = sweep.voxelize(0.1);
    println!(
        "LiDAR sweep: {} points -> {} voxels (density {:.5}%)",
        sweep.len(),
        voxels.len(),
        voxels.density() * 100.0
    );

    let net = zoo::minknet_outdoor();
    let trace = Executor::new(ExecMode::TraceOnly, 3).run(&net, &sweep).trace;
    println!(
        "MinkowskiUNet: {} layers, {:.1} GMACs, {:.1} M maps",
        trace.layers.len(),
        trace.total_macs() as f64 / 1e9,
        trace.total_maps() as f64 / 1e6
    );

    // The accelerator replays once, natively (we also want its per-layer
    // detail below); the platform models evaluate concurrently.
    let acc = Accelerator::new(PointAccConfig::full());
    let detail = acc.run(&trace);
    let gpu = Platform::rtx_2080ti();
    let cpu = Platform::xeon_6130();
    let engines: Vec<&dyn Engine> = vec![&gpu, &cpu];
    let mut reports = vec![detail.to_engine_report()];
    reports.extend(parallel_map(&engines, |e| e.evaluate(&trace)));

    let ours = &reports[0];
    println!(
        "\n{:<14} {:>8.2} ms  {:>8.1} mJ",
        ours.engine,
        ours.latency_ms(),
        ours.energy.to_millijoules()
    );
    for r in &reports[1..] {
        println!(
            "{:<14} {:>8.2} ms  {:>8.1} mJ  ({:.1}x slower, {:.0}x more energy)",
            r.engine,
            r.latency_ms(),
            r.energy.to_millijoules(),
            r.latency_ms() / ours.latency_ms(),
            r.energy.get() / ours.energy.get()
        );
    }

    // Per-level view: the five heaviest layers (accelerator-native report).
    let mut heavy: Vec<_> = detail.layers.iter().collect();
    heavy.sort_by_key(|l| std::cmp::Reverse(l.latency.get()));
    println!("\nheaviest layers:");
    for l in heavy.iter().take(5) {
        println!(
            "  {:<16} {:>10} cyc  dram {:>8} KB  cache block {:?}",
            l.name,
            l.latency.get(),
            l.dram_bytes / 1024,
            l.cache_block_points
        );
    }
}
