//! Golden regression test: the geometric-mean speedup **and energy
//! ratio** of PointAcc over every baseline engine, locked to snapshot
//! values at two fixed workloads (`scale = 0.05` and `scale = 0.1`,
//! seed 42).
//!
//! The harness, the engines and the trace generator are all
//! deterministic, so these numbers must reproduce bit-for-bit modulo
//! floating-point noise. An engine or compiler refactor that changes the
//! reported results — intentionally or not — fails this test loudly;
//! update the snapshot only when the change is understood and the new
//! numbers are the ones future figures should report. The mapping ops
//! of `pointacc_geom::index` are bit-identical to their golden oracles
//! by contract (`tests/mapping_backends.rs`), so speeding them up must
//! *not* move these numbers.

use pointacc::{Accelerator, Engine, PointAccConfig};
use pointacc_baselines::{Mesorasi, MesorasiSw, Platform};
use pointacc_bench::harness::{Grid, GridRun};

/// Workload lock: do not change without regenerating the snapshots.
///
/// Snapshot history: regenerated when the LiDAR generator's range
/// jitter was clamped to `(MIN_RANGE, max_range]` and along-ray to the
/// ground plane — the fix changes every generated outdoor cloud, so
/// the platform geomeans (which include KITTI/SemanticKITTI cells)
/// moved by ~1 %. Mesorasi rows, whose supported benchmarks run on
/// object/indoor clouds only, did not move — the expected signature of
/// a data-only change.
const GOLDEN_SEED: u64 = 42;

/// `(baseline name, geomean speedup of PointAcc.Full over it)` across
/// every (benchmark, seed) cell the baseline supports, at scale 0.05.
const GOLDEN_GEOMEANS: [(&str, f64); 9] = [
    ("RTX 2080Ti", 4.080054851929079),
    ("Xeon + TPUv3", 49.43726289166521),
    ("Xeon Gold 6130", 77.94400435418369),
    ("Jetson Xavier NX", 16.29305904062138),
    ("Jetson Nano", 39.489281450546),
    ("Raspberry Pi 4B", 670.389106568264),
    ("Mesorasi", 28.319231858542654),
    ("Mesorasi-SW on Jetson Nano", 27.289168025352986),
    ("Mesorasi-SW on Raspberry Pi 4B", 314.7041152127234),
];

/// `(baseline name, geomean energy ratio rival/PointAcc.Full)` at scale
/// 0.05 — the "energy savings" axis of Fig. 13/14.
const GOLDEN_ENERGY_RATIOS: [(&str, f64); 9] = [
    ("RTX 2080Ti", 27.137951279976413),
    ("Xeon + TPUv3", 368.2845476627045),
    ("Xeon Gold 6130", 259.2171759320842),
    ("Jetson Xavier NX", 6.502269089403624),
    ("Jetson Nano", 10.506311654898521),
    ("Raspberry Pi 4B", 107.01613133896795),
    ("Mesorasi", 1.6924768870519833),
    ("Mesorasi-SW on Jetson Nano", 7.35422971357169),
    ("Mesorasi-SW on Raspberry Pi 4B", 50.8862641674638),
];

/// Geomean speedups at the larger scale 0.1 workload (feasible in a
/// test because trace compilation runs the grid-hash `index` ops).
const GOLDEN_GEOMEANS_SCALE_0_1: [(&str, f64); 9] = [
    ("RTX 2080Ti", 4.224138584427365),
    ("Xeon + TPUv3", 50.69234232515822),
    ("Xeon Gold 6130", 82.45071791160262),
    ("Jetson Xavier NX", 17.741070959899265),
    ("Jetson Nano", 43.72709828102217),
    ("Raspberry Pi 4B", 770.1969849333992),
    ("Mesorasi", 35.280599519970096),
    ("Mesorasi-SW on Jetson Nano", 29.75230717675847),
    ("Mesorasi-SW on Raspberry Pi 4B", 371.2077620461859),
];

/// Relative tolerance: generous against FP-order noise, far tighter
/// than any real modeling change.
const REL_TOL: f64 = 1e-6;

/// Runs the full 10-engine grid (PointAcc.Full + 9 baselines) at one
/// scale.
fn golden_grid(scale: f64) -> GridRun {
    let acc = Accelerator::new(PointAccConfig::full());
    let platforms = [
        Platform::rtx_2080ti(),
        Platform::xeon_tpu_v3(),
        Platform::xeon_6130(),
        Platform::jetson_xavier_nx(),
        Platform::jetson_nano(),
        Platform::raspberry_pi_4b(),
    ];
    let mesorasi = Mesorasi::new();
    let sw_nano = MesorasiSw::on(Platform::jetson_nano());
    let sw_rpi = MesorasiSw::on(Platform::raspberry_pi_4b());

    let mut engines: Vec<&dyn Engine> = vec![&acc];
    engines.extend(platforms.iter().map(|p| p as &dyn Engine));
    engines.extend([&mesorasi as &dyn Engine, &sw_nano, &sw_rpi]);

    Grid::new().engines(engines).seeds([GOLDEN_SEED]).scale(scale).run()
}

/// Compares one metric against its snapshot, collecting drift reports.
fn check_snapshot(
    run: &GridRun,
    snapshot: &[(&str, f64)],
    metric: impl Fn(usize) -> f64,
    label: &str,
) {
    let mut failures = Vec::new();
    for (i, &(name, golden)) in snapshot.iter().enumerate() {
        let rival = 1 + i;
        assert_eq!(run.engines[rival], name, "baseline order changed — regenerate the snapshot");
        let got = metric(rival);
        println!("    (\"{name}\", {got}),");
        let rel = ((got - golden) / golden).abs();
        if rel.is_nan() || rel >= REL_TOL {
            failures.push(format!(
                "{name}: {label} {got} drifted from snapshot {golden} (rel {rel:.2e})"
            ));
        }
    }
    assert!(failures.is_empty(), "reported {label}s changed:\n{}", failures.join("\n"));
}

#[test]
fn geomean_speedups_and_energy_match_snapshot() {
    let run = golden_grid(0.05);
    println!("speedups @0.05:");
    check_snapshot(&run, &GOLDEN_GEOMEANS, |r| run.geomean_speedup(0, r), "geomean speedup");
    println!("energy ratios @0.05:");
    check_snapshot(
        &run,
        &GOLDEN_ENERGY_RATIOS,
        |r| run.geomean_energy_ratio(0, r),
        "geomean energy ratio",
    );
}

#[test]
fn geomean_speedups_match_snapshot_at_scale_0_1() {
    let run = golden_grid(0.1);
    println!("speedups @0.1:");
    check_snapshot(
        &run,
        &GOLDEN_GEOMEANS_SCALE_0_1,
        |r| run.geomean_speedup(0, r),
        "geomean speedup",
    );
}
