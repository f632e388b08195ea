//! Smoke test for the unified engine harness: every hardware model —
//! both PointAcc configurations, all six general-purpose platforms,
//! Mesorasi-HW and both Mesorasi-SW variants — produces finite, nonzero
//! latency and energy on every Table 2 benchmark it supports, evaluated
//! as one thread-parallel grid.

use pointacc::{Accelerator, Engine, PointAccConfig, Seconds};
use pointacc_baselines::{Mesorasi, MesorasiSw, Platform};
use pointacc_bench::harness::Grid;
use pointacc_nn::zoo;
use pointacc_sim::PicoJoules;

/// Keeps the full 11-engine × 8-benchmark grid cheap in debug CI runs.
/// Passed explicitly through [`Grid::scale`] — mutating `POINTACC_SCALE`
/// from tests is racy under the parallel test runner.
const TEST_SCALE: f64 = 0.1;

#[test]
fn every_engine_is_physical_on_every_benchmark() {
    let full = Accelerator::new(PointAccConfig::full());
    let edge = Accelerator::new(PointAccConfig::edge());
    let platforms = [
        Platform::rtx_2080ti(),
        Platform::xeon_6130(),
        Platform::xeon_tpu_v3(),
        Platform::jetson_xavier_nx(),
        Platform::jetson_nano(),
        Platform::raspberry_pi_4b(),
    ];
    let mesorasi = Mesorasi::new();
    let sw_nano = MesorasiSw::on(Platform::jetson_nano());
    let sw_rpi = MesorasiSw::on(Platform::raspberry_pi_4b());

    let mut engines: Vec<&dyn Engine> = vec![&full, &edge];
    engines.extend(platforms.iter().map(|p| p as &dyn Engine));
    engines.extend([&mesorasi as &dyn Engine, &sw_nano, &sw_rpi]);
    let n_engines = engines.len();

    let run = Grid::new().engines(engines).scale(TEST_SCALE).run();
    assert_eq!(run.benchmarks.len(), zoo::benchmarks().len());

    let mut evaluated = 0;
    let mut skipped = 0;
    for e in 0..n_engines {
        for b in 0..run.benchmarks.len() {
            let label = format!("{} on {}", run.engines[e], run.benchmarks[b].notation);
            match run.report(e, b, 0) {
                Some(r) => {
                    evaluated += 1;
                    assert!(r.is_physical(), "{label}: non-physical report {r:?}");
                    assert!(r.latency_ms() > 0.0 && r.latency_ms().is_finite(), "{label}");
                    assert!(r.energy.to_millijoules() > 0.0, "{label}");
                    assert_eq!(r.engine, run.engines[e], "{label}");
                }
                None => {
                    skipped += 1;
                    // Only the Mesorasi family may skip benchmarks, and
                    // only the SparseConv-based MinkNets.
                    assert!(
                        run.engines[e].starts_with("Mesorasi"),
                        "{label} unexpectedly unsupported"
                    );
                    assert!(run.benchmarks[b].notation.starts_with("MinkNet"), "{label}");
                }
            }
        }
    }
    // 11 engines × 8 benchmarks, minus 3 Mesorasi variants × 2 MinkNets.
    assert_eq!(evaluated, n_engines * 8 - 6);
    assert_eq!(skipped, 6);
}

#[test]
fn accelerator_stays_fastest_in_the_unified_grid() {
    let full = Accelerator::new(PointAccConfig::full());
    let cpu = Platform::xeon_6130();
    let tpu = Platform::xeon_tpu_v3();
    let run = Grid::new().engines([&full as &dyn Engine, &cpu, &tpu]).scale(TEST_SCALE).run();
    for b in 0..run.benchmarks.len() {
        for rival in 1..=2 {
            let speedup = run.speedup(0, rival, b, 0).expect("all supported");
            assert!(
                speedup > 1.0,
                "{} should lose to PointAcc on {} (speedup {speedup})",
                run.engines[rival],
                run.benchmarks[b].notation
            );
        }
    }
}

#[test]
fn multi_seed_grids_index_correctly() {
    let edge = Accelerator::new(PointAccConfig::edge());
    let benchmarks: Vec<_> = zoo::benchmarks()
        .into_iter()
        .filter(|b| b.notation == "PointNet++(c)" || b.notation == "MinkNet(i)")
        .collect();
    let run =
        Grid::new().engine(&edge).benchmarks(benchmarks).seeds([1, 2, 3]).scale(TEST_SCALE).run();
    for b in 0..2 {
        for s in 0..3 {
            let r = run.report(0, b, s).expect("accelerator runs everything");
            assert!(r.is_physical());
            assert_eq!(r.network, run.trace(b, s).network);
        }
        // Sparse-conv workloads (kernel maps) depend on voxel occupancy,
        // so different seeds must produce different map counts. Dense and
        // padded-neighborhood networks have structurally fixed sizes.
        if run.benchmarks[b].notation == "MinkNet(i)" {
            assert_ne!(
                run.trace(b, 0).total_maps(),
                run.trace(b, 1).total_maps(),
                "seeds should vary the sparse workload"
            );
        }
    }
}

#[test]
fn grid_layout_matches_hand_computed_indexing() {
    // 2 engines × 3 benchmarks × 2 seeds: every lookup helper must agree
    // with the flat row-major layout (engine, then benchmark, then seed)
    // computed by hand against independent sequential evaluation.
    let edge = Accelerator::new(PointAccConfig::edge());
    let nano = Platform::jetson_nano();
    let engines: [&dyn Engine; 2] = [&edge, &nano];
    let benchmarks: Vec<_> = zoo::benchmarks().into_iter().take(3).collect();
    let seeds = [5u64, 6];
    let run = Grid::new()
        .engines(engines)
        .benchmarks(benchmarks.clone())
        .seeds(seeds)
        .scale(TEST_SCALE)
        .run();

    for (b, bench) in benchmarks.iter().enumerate() {
        for (s, &seed) in seeds.iter().enumerate() {
            let trace = pointacc_bench::benchmark_trace_at(bench, seed, TEST_SCALE);
            assert_eq!(run.trace(b, s).fingerprint(), trace.fingerprint(), "trace({b},{s})");
            for (e, engine) in engines.iter().enumerate() {
                let want = engine.evaluate(&trace);
                assert_eq!(run.report(e, b, s), Some(&want), "report({e},{b},{s})");
            }
            let want_speedup = nano.evaluate(&trace).total.0 / edge.evaluate(&trace).total.0;
            let got = run.speedup(0, 1, b, s).expect("both supported");
            assert!((got - want_speedup).abs() < 1e-12, "speedup({b},{s})");
        }
        // The seed-axis statistics must aggregate exactly the two
        // per-seed samples of this benchmark.
        let samples: Vec<f64> = (0..2).map(|s| run.speedup(0, 1, b, s).unwrap()).collect();
        let want = pointacc::Summary::from_samples(&samples);
        assert_eq!(run.speedup_summary(0, 1, b), Some(want), "summary({b})");
        assert_eq!(run.mean_speedup(0, 1, b), Some(want.mean));
        assert_eq!(run.ci95_speedup(0, 1, b), Some(want.ci95));
    }
}

#[test]
fn repeated_grid_runs_compile_each_trace_exactly_once() {
    // Two identical grids: the process-wide trace cache must compile
    // each (benchmark, seed, scale) trace once and serve the second run
    // entirely from cache. The seed/scale pair is unique to this test so
    // concurrent tests sharing the global cache cannot interfere.
    let seed = 90_042u64;
    let scale = 0.061;
    let edge = Accelerator::new(PointAccConfig::edge());
    let nano = Platform::jetson_nano();
    let benchmarks: Vec<_> = zoo::benchmarks().into_iter().take(4).collect();

    let grid = || {
        Grid::new()
            .engines([&edge as &dyn Engine, &nano])
            .benchmarks(benchmarks.clone())
            .seeds([seed])
            .scale(scale)
            .run()
    };
    let first = grid();
    let second = grid();

    for (b, bench) in benchmarks.iter().enumerate() {
        // A recompile would have allocated a second trace.
        assert!(
            std::ptr::eq(first.trace(b, 0), second.trace(b, 0)),
            "{} compiled more than once across identical runs",
            bench.notation
        );
        // So both runs price it identically.
        assert_eq!(first.report(0, b, 0), second.report(0, b, 0));
        assert_eq!(first.report(1, b, 0), second.report(1, b, 0));
    }
}

#[test]
fn unit_conversions_at_the_unified_report_boundary() {
    // Seconds → milliseconds.
    assert_eq!(Seconds(1.0).to_millis(), 1000.0);
    assert_eq!(Seconds(0.0125).to_millis(), 12.5);
    // PicoJoules → millijoules / joules round trips.
    assert!((PicoJoules::new(1e9).to_millijoules() - 1.0).abs() < 1e-12);
    assert!((PicoJoules::from_joules(2.0).to_joules() - 2.0).abs() < 1e-12);
    // A platform report carries joule-scale energy through PicoJoules
    // without precision loss at the boundary.
    let trace = pointacc_bench::benchmark_trace_at(&zoo::benchmarks()[0], 42, TEST_SCALE);
    let r = Platform::jetson_nano().evaluate(&trace);
    assert!((r.energy.to_joules() - r.total.0 * 10.0).abs() < 1e-9);
    assert!((r.total.to_millis() - r.latency_ms()).abs() < 1e-12);
}
