//! The unified execution surface every hardware model plugs into.
//!
//! The evaluation compares heterogeneous models — the PointAcc
//! [`Accelerator`], analytic CPU/GPU/TPU platform models, and the
//! Mesorasi prior-work accelerator. Before this module each surfaced its
//! own report type; [`Engine`] unifies them behind one
//! `evaluate(trace) -> EngineReport` call so drivers (the parallel bench
//! harness, smoke tests, examples) can treat every model uniformly and
//! run (engine × benchmark × seed) grids concurrently.

use pointacc_nn::NetworkTrace;
use pointacc_sim::PicoJoules;

use crate::perf::Seconds;
use crate::Accelerator;

/// Latency / energy / DRAM-traffic report of one engine running one
/// network — the single report type shared by every hardware model.
///
/// Latency components are absolute seconds; `total` is reported
/// separately because engines overlap components differently (PointAcc
/// hides DRAM cycles under the matrix unit, general-purpose platforms
/// serialize them).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineReport {
    /// Engine name as shown in figures (e.g. "PointAcc", "RTX 2080Ti").
    pub engine: String,
    /// Network name from the trace.
    pub network: String,
    /// Time in mapping operations.
    pub mapping: Seconds,
    /// Time in matrix computation.
    pub matmul: Seconds,
    /// Time in data movement not hidden under compute.
    pub datamove: Seconds,
    /// End-to-end latency after overlap.
    pub total: Seconds,
    /// Total energy.
    pub energy: PicoJoules,
    /// DRAM bytes moved (0 when the model does not track traffic).
    pub dram_bytes: u64,
}

impl EngineReport {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.total.to_millis()
    }

    /// Fractional latency breakdown `(mapping, matmul, datamove)`
    /// (paper Fig. 6 / Fig. 21a).
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let t = self.total.0.max(f64::MIN_POSITIVE);
        (self.mapping.0 / t, self.matmul.0 / t, self.datamove.0 / t)
    }

    /// Modeled sustained throughput in input points per second: how
    /// many points this engine processes per second of **simulated**
    /// time when fed this workload back to back. The serving layer's
    /// capacity model is built on this number — it depends only on the
    /// modeled cycle costs, never on host wall-clock, so capacity-based
    /// admission decisions are reproducible across machines.
    pub fn points_per_s(&self, input_points: usize) -> f64 {
        input_points as f64 / self.total.0.max(f64::MIN_POSITIVE)
    }

    /// Whether latency and energy are finite and strictly positive —
    /// the invariant every engine must uphold on every benchmark.
    pub fn is_physical(&self) -> bool {
        self.total.0.is_finite()
            && self.total.0 > 0.0
            && self.energy.get().is_finite()
            && self.energy.get() > 0.0
    }
}

/// A hardware model that can evaluate a network trace.
///
/// `Sync` is a supertrait so engines can be shared across the threads of
/// a batched run driver (`&dyn Engine` grids evaluate concurrently).
pub trait Engine: Sync {
    /// Engine name as shown in figures and tables.
    fn name(&self) -> String;

    /// Whether this engine can execute `trace` at all (e.g. Mesorasi
    /// cannot run SparseConv layers). Defaults to `true`.
    fn supports(&self, trace: &NetworkTrace) -> bool {
        let _ = trace;
        true
    }

    /// Evaluates one trace into the unified report.
    ///
    /// Implementations may panic on unsupported traces; drivers must
    /// check [`Engine::supports`] first.
    fn evaluate(&self, trace: &NetworkTrace) -> EngineReport;

    /// Modeled serving capacity on `trace`'s workload: the points/s
    /// budget one shard of this engine can sustain, derived from the
    /// simulated cycle costs ([`EngineReport::points_per_s`]). Returns
    /// `0.0` when the engine cannot execute the trace at all — a
    /// zero-capacity shard advertises that it can absorb no load.
    fn capacity_points_per_s(&self, trace: &NetworkTrace) -> f64 {
        if !self.supports(trace) {
            return 0.0;
        }
        self.evaluate(trace).points_per_s(trace.input_points())
    }
}

impl Engine for Accelerator {
    fn name(&self) -> String {
        self.config().name.clone()
    }

    fn evaluate(&self, trace: &NetworkTrace) -> EngineReport {
        self.run(trace).to_engine_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointAccConfig;
    use pointacc_geom::{Point3, PointSet};
    use pointacc_nn::{zoo, ExecMode, Executor};
    use pointacc_sim::Cycles;

    fn trace() -> NetworkTrace {
        let pts: PointSet = (0..300)
            .map(|i| {
                let t = i as f32;
                Point3::new((t * 0.3).sin() * 2.0, (t * 0.7).cos() * 2.0, (t * 0.11).sin())
            })
            .collect();
        Executor::new(ExecMode::TraceOnly, 1).run(&zoo::pointnet_pp_classification(), &pts).trace
    }

    #[test]
    fn seconds_to_millis_at_the_report_boundary() {
        assert_eq!(Seconds(4.0).to_millis(), 4000.0);
        assert_eq!(Seconds::from_cycles(Cycles::new(500_000), 1.0e9).to_millis(), 0.5);
        assert_eq!(format!("{}", Seconds(0.0015)), "1.500 ms");
    }

    #[test]
    fn picojoules_to_millijoules_at_the_report_boundary() {
        assert!((PicoJoules::new(2.5e9).to_millijoules() - 2.5).abs() < 1e-12);
        assert!((PicoJoules::from_joules(0.5).to_millijoules() - 500.0).abs() < 1e-9);
        assert!((PicoJoules::from_joules(3.0).to_joules() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn accelerator_engine_report_matches_run_report() {
        let t = trace();
        let acc = Accelerator::new(PointAccConfig::edge());
        let run = acc.run(&t);
        let unified = acc.evaluate(&t);
        assert_eq!(unified.engine, "PointAcc.Edge");
        assert_eq!(unified.network, t.network);
        assert!((unified.latency_ms() - run.latency_ms()).abs() < 1e-12);
        assert!((unified.energy.get() - run.energy().get()).abs() < 1e-9);
        assert_eq!(unified.dram_bytes, run.dram_bytes());
        assert!(unified.is_physical());
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let r = Accelerator::new(PointAccConfig::full()).evaluate(&trace());
        let (m, x, d) = r.breakdown();
        assert!((m + x + d - 1.0).abs() < 1e-9, "{m} {x} {d}");
        // Component seconds must not exceed the overlapped total.
        assert!(r.mapping.0 + r.matmul.0 + r.datamove.0 <= r.total.0 * (1.0 + 1e-9));
    }

    #[test]
    fn points_per_s_is_simulated_not_wall_clock() {
        let t = trace();
        let acc = Accelerator::new(PointAccConfig::full());
        let r = acc.evaluate(&t);
        // points / simulated seconds, by definition.
        let want = t.input_points() as f64 / r.total.0;
        assert!((r.points_per_s(t.input_points()) - want).abs() < 1e-9);
        assert!(want > 0.0 && want.is_finite());
        // Identical traces give identical throughput: nothing here can
        // depend on the host machine's clock.
        assert_eq!(r.points_per_s(1000), acc.evaluate(&t).points_per_s(1000));
    }

    #[test]
    fn capacity_matches_report_throughput_and_zeroes_when_unsupported() {
        struct Refuses;
        impl Engine for Refuses {
            fn name(&self) -> String {
                "Refuses".into()
            }
            fn supports(&self, _: &NetworkTrace) -> bool {
                false
            }
            fn evaluate(&self, _: &NetworkTrace) -> EngineReport {
                panic!("must not be evaluated: supports() is false")
            }
        }
        let t = trace();
        let acc = Accelerator::new(PointAccConfig::edge());
        let want = acc.evaluate(&t).points_per_s(t.input_points());
        assert!((acc.capacity_points_per_s(&t) - want).abs() < 1e-9);
        assert_eq!(Refuses.capacity_points_per_s(&t), 0.0);
    }

    #[test]
    fn engines_are_object_safe_and_default_support_everything() {
        let acc = Accelerator::new(PointAccConfig::full());
        let dyn_engine: &dyn Engine = &acc;
        assert!(dyn_engine.supports(&trace()));
        assert_eq!(dyn_engine.name(), "PointAcc");
    }
}
