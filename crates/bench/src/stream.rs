//! Streaming frame serving: a LiDAR [`FrameStream`] driven through the
//! cross-frame reuse path against a per-frame latency SLO.
//!
//! The scenario is a single-server queue on a [`Clock`]: frame *k*
//! arrives at `k × period`, is traced through a
//! [`StreamingTracer`] (exact reuse before compilation), and
//! its modeled service time comes from the engine's evaluation of the
//! trace — the full `total` for a compiled frame, `total − mapping` for
//! a reused one (the serving system skips the mapping phase when it
//! already holds the previous frame's kernel maps, which is precisely
//! the phase the paper's accelerator exists to accelerate). Everything
//! is simulated-time arithmetic on [`Duration`]s, so a scenario run is
//! a pure function of its options: SLO attainment, queue latencies and
//! reuse counts are exactly reproducible and scenario-testable in
//! `tests/streaming.rs`.

use std::time::Duration;

use pointacc::{Engine, EngineReport};
use pointacc_data::lidar::{FrameStream, ScanProfile};
use pointacc_nn::stream::{ReuseOutcome, StreamStats, StreamingTracer};
use pointacc_nn::{ExecError, ExecMode, Executor, Network};

use crate::frontend::{Clock, SimClock};

/// Scenario knobs for [`serve_stream`].
#[derive(Clone, Debug)]
pub struct StreamOptions {
    /// Stream seed (scene, jitter, churn schedule).
    pub seed: u64,
    /// Frames to serve.
    pub frames: usize,
    /// Target points per frame (the stream sizes its sweep for this).
    pub points_hint: usize,
    /// Frame interarrival period (10 Hz LiDAR ⇒ 100 ms).
    pub period: Duration,
    /// Per-frame latency SLO (arrival → finish).
    pub slo: Duration,
    /// Ego motion per frame, meters.
    pub ego_step: f32,
    /// Azimuth columns re-raycast per frame (`None` = stream default,
    /// ~10 % of the sweep).
    pub churn_cols: Option<usize>,
    /// After this many frames the ego stops (zero motion, zero churn):
    /// the steady-state dwell whose frames repeat bit-identically.
    pub dwell_after: Option<usize>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            seed: 42,
            frames: 12,
            points_hint: 20_000,
            period: Duration::from_millis(100),
            slo: Duration::from_millis(100),
            ego_step: 0.5,
            churn_cols: None,
            dwell_after: None,
        }
    }
}

/// One served frame's timeline and accounting.
#[derive(Clone, Debug)]
pub struct FrameRecord {
    /// Frame number.
    pub index: usize,
    /// Points in the frame's cloud.
    pub points: usize,
    /// How the trace was produced (reused or compiled).
    pub outcome: ReuseOutcome,
    /// Simulated arrival time (`index × period`).
    pub arrival: Duration,
    /// Modeled service time actually spent (mapping skipped on reuse).
    pub service: Duration,
    /// Modeled service time a cold compile would have spent.
    pub full_service: Duration,
    /// Simulated completion time (queueing included).
    pub finish: Duration,
    /// `finish − arrival`.
    pub latency: Duration,
    /// Whether `latency ≤ slo`.
    pub met_slo: bool,
}

/// Result of a [`serve_stream`] run.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Per-frame records, in arrival order.
    pub records: Vec<FrameRecord>,
    /// The tracer's reuse accounting.
    pub stats: StreamStats,
}

impl StreamReport {
    /// Fraction of frames that met the SLO.
    pub fn slo_attainment(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.met_slo).count() as f64 / self.records.len() as f64
    }

    /// Amortized modeled throughput with reuse: total points served per
    /// second of modeled service time.
    pub fn amortized_points_per_s(&self) -> f64 {
        let points: usize = self.records.iter().map(|r| r.points).sum();
        let busy: f64 = self.records.iter().map(|r| r.service.as_secs_f64()).sum();
        points as f64 / busy.max(f64::MIN_POSITIVE)
    }

    /// Modeled throughput if every frame compiled cold (no reuse).
    pub fn cold_points_per_s(&self) -> f64 {
        let points: usize = self.records.iter().map(|r| r.points).sum();
        let busy: f64 = self.records.iter().map(|r| r.full_service.as_secs_f64()).sum();
        points as f64 / busy.max(f64::MIN_POSITIVE)
    }

    /// Worst frame latency.
    pub fn max_latency(&self) -> Duration {
        self.records.iter().map(|r| r.latency).max().unwrap_or(Duration::ZERO)
    }

    /// Accounting over the steady-state suffix (frames from `from` on):
    /// what the CI zero-compile check inspects.
    pub fn stats_from(&self, from: usize) -> StreamStats {
        let mut stats = StreamStats::default();
        for r in self.records.iter().filter(|r| r.index >= from) {
            stats.record(r.outcome);
        }
        stats
    }
}

/// Serves `opts.frames` LiDAR sweeps from a seeded [`FrameStream`]
/// through `net` on `engine`, pacing arrivals on `clock` (advanced by
/// one period per frame). Traces run in [`ExecMode::TraceOnly`] — bit-
/// identical mapping traces at a fraction of the cost, the same fidelity
/// the figure binaries profile with.
///
/// Returns the per-frame records plus reuse accounting, or the first
/// executor error (a stream frame is never empty, so errors indicate a
/// malformed network).
pub fn serve_stream(
    engine: &dyn Engine,
    net: &Network,
    clock: &SimClock,
    opts: &StreamOptions,
) -> Result<StreamReport, ExecError> {
    let mut stream = FrameStream::new(opts.seed, opts.points_hint, ScanProfile::semantic_kitti());
    if let Some(cols) = opts.churn_cols {
        stream.set_motion(opts.ego_step, cols);
    } else {
        let default_cols = (stream.azimuth_steps() / 10).max(1);
        stream.set_motion(opts.ego_step, default_cols);
    }
    let mut tracer = StreamingTracer::over(Executor::new(ExecMode::TraceOnly, opts.seed));
    let mut records = Vec::with_capacity(opts.frames);
    let mut busy_until = Duration::ZERO;
    let mut last_eval: Option<EngineReport> = None;
    for k in 0..opts.frames {
        if opts.dwell_after == Some(k) {
            stream.set_motion(0.0, 0);
        }
        if k > 0 {
            clock.advance(opts.period);
        }
        let arrival = clock.now();
        let frame = stream.next_frame();
        let (output, outcome) = tracer.run_frame(net, &frame.points)?;
        // Engine evaluation is a pure function of the trace; a reused
        // trace reuses the previous report rather than re-walking it.
        let report = match (&last_eval, outcome) {
            (Some(r), ReuseOutcome::ExactReuse) => r.clone(),
            _ => engine.evaluate(&output.trace),
        };
        let full_service = Duration::from_secs_f64(report.total.0.max(0.0));
        let service = match outcome {
            ReuseOutcome::Compiled => full_service,
            ReuseOutcome::ExactReuse => {
                Duration::from_secs_f64((report.total.0 - report.mapping.0).max(0.0))
            }
        };
        last_eval = Some(report);
        let start = busy_until.max(arrival);
        let finish = start + service;
        busy_until = finish;
        let latency = finish.saturating_sub(arrival);
        records.push(FrameRecord {
            index: frame.index,
            points: frame.points.len(),
            outcome,
            arrival,
            service,
            full_service,
            finish,
            latency,
            met_slo: latency <= opts.slo,
        });
    }
    Ok(StreamReport { records, stats: tracer.stats() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc::{Accelerator, PointAccConfig};

    fn small_opts() -> StreamOptions {
        StreamOptions {
            frames: 8,
            points_hint: 2_000,
            dwell_after: Some(4),
            ..StreamOptions::default()
        }
    }

    #[test]
    fn stream_scenario_is_deterministic() {
        let engine = Accelerator::new(PointAccConfig::full());
        let net = pointacc_nn::zoo::minknet_outdoor();
        let a = serve_stream(&engine, &net, &SimClock::new(), &small_opts()).unwrap();
        let b = serve_stream(&engine, &net, &SimClock::new(), &small_opts()).unwrap();
        assert_eq!(a.stats, b.stats);
        let lat_a: Vec<Duration> = a.records.iter().map(|r| r.latency).collect();
        let lat_b: Vec<Duration> = b.records.iter().map(|r| r.latency).collect();
        assert_eq!(lat_a, lat_b);
    }

    #[test]
    fn dwell_frames_reuse_and_speed_up() {
        let engine = Accelerator::new(PointAccConfig::full());
        let net = pointacc_nn::zoo::minknet_outdoor();
        let report = serve_stream(&engine, &net, &SimClock::new(), &small_opts()).unwrap();
        assert_eq!(report.records.len(), 8);
        assert_eq!(report.records[0].outcome, ReuseOutcome::Compiled);
        // Dwell starts at frame 4: frame 5 on is bit-identical geometry.
        let steady = report.stats_from(5);
        assert_eq!(
            steady.compiles,
            0,
            "steady state must compile nothing: {}",
            steady.accounting()
        );
        assert!(steady.exact_reuses >= 3);
        // Reuse strictly shortens the modeled service time.
        for r in &report.records {
            match r.outcome {
                ReuseOutcome::Compiled => assert_eq!(r.service, r.full_service),
                _ => assert!(r.service < r.full_service, "frame {} did not speed up", r.index),
            }
        }
        assert!(report.amortized_points_per_s() > report.cold_points_per_s());
    }

    #[test]
    fn arrivals_pace_on_the_sim_clock() {
        let engine = Accelerator::new(PointAccConfig::full());
        let net = pointacc_nn::zoo::minknet_outdoor();
        let clock = SimClock::new();
        let opts = small_opts();
        let report = serve_stream(&engine, &net, &clock, &opts).unwrap();
        for (k, r) in report.records.iter().enumerate() {
            assert_eq!(r.arrival, opts.period * k as u32);
            assert_eq!(r.latency, r.finish - r.arrival);
        }
        assert_eq!(clock.now(), opts.period * (opts.frames - 1) as u32);
    }
}
