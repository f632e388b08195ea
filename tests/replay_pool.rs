//! The first replay in a process spawns no pool threads:
//! `Accelerator::new` builds the process-wide pool, so thread start-up
//! never lands on a request. This file holds one test, so it runs in a
//! process of its own, where nothing else has built the pool.

use pointacc::{Accelerator, PointAccConfig};
use pointacc_geom::par::{threads_spawned, worker_threads};
use pointacc_geom::{Point3, PointSet};
use pointacc_nn::{zoo, ExecMode, Executor};

#[test]
fn first_replay_spawns_no_threads() {
    // Compiling 1 200 points of mini MinkowskiUNet stays serial, and on
    // Edge its cache walks come to about 72 000 accesses, far above the
    // replay's work gate, so `run` prices its layers on the pool.
    let pts: PointSet = (0..1200)
        .map(|i| {
            let t = i as f32;
            Point3::new((t * 0.3).sin() * 3.0, (t * 0.7).cos() * 3.0, (t * 0.11).sin())
        })
        .collect();
    let trace = Executor::new(ExecMode::TraceOnly, 1).run(&zoo::mini_minkunet(), &pts).trace;
    assert_eq!(threads_spawned(), 0, "compiling the trace built the pool");

    let acc = Accelerator::new(PointAccConfig::edge());
    let spawned = threads_spawned();
    assert_eq!(spawned, worker_threads() - 1, "Accelerator::new builds the pool");
    let report = acc.run(&trace);
    assert_eq!(threads_spawned(), spawned, "the first replay spawned pool threads");
    assert!(report.latency_ms() > 0.0);
}
