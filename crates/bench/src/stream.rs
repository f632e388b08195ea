//! Streaming frame serving: a LiDAR [`FrameStream`] served frame by
//! frame against a per-frame latency SLO.
//!
//! The scenario is a single-server queue on a [`Clock`]: frame *k*
//! arrives at `k × period`. A frame whose points repeat the previous
//! frame's bit for bit reuses that frame's [`EngineReport`]; any other
//! frame compiles its trace and evaluates it. The modeled service time
//! is the report's full `total` for a compiled frame and
//! `total − mapping` for a reused one (the serving system skips the
//! mapping phase when it already holds the previous frame's kernel
//! maps, which is precisely the phase the paper's accelerator exists to
//! accelerate). Everything is simulated-time arithmetic on
//! [`Duration`]s, so a scenario run is a pure function of its options:
//! SLO attainment, queue latencies and reuse flags are exactly
//! reproducible and scenario-testable in `tests/streaming.rs`.

use std::time::Duration;

use pointacc::{Engine, EngineReport};
use pointacc_data::lidar::{FrameStream, ScanProfile};
use pointacc_geom::{Point3, PointSet};
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
    /// Whether the frame repeated the previous one bit for bit and
    /// reused its report instead of compiling.
    pub reused: bool,
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
}

/// Whether two clouds hold bit-identical coordinates, stopping at the
/// first difference. Bit patterns, not float `==`: `-0.0 == 0.0`, yet
/// the two are different inputs.
fn same_bits(a: &PointSet, b: &PointSet) -> bool {
    let bits = |p: &Point3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
    a.len() == b.len() && a.points().iter().zip(b.points()).all(|(p, q)| bits(p) == bits(q))
}

/// Serves `opts.frames` LiDAR sweeps from a seeded [`FrameStream`]
/// through `net` on `engine`, pacing arrivals on `clock` (advanced by
/// one period per frame). Traces run in [`ExecMode::TraceOnly`] — bit-
/// identical mapping traces at a fraction of the cost, the same fidelity
/// the figure binaries profile with.
///
/// Returns the per-frame records, or the first executor error (a stream
/// frame is never empty, so errors indicate a malformed network).
pub fn serve_stream(
    engine: &dyn Engine,
    net: &Network,
    clock: &SimClock,
    opts: &StreamOptions,
) -> Result<StreamReport, ExecError> {
    let mut stream = FrameStream::new(opts.seed, opts.points_hint, ScanProfile::semantic_kitti());
    stream.set_motion(opts.ego_step, opts.churn_cols);
    let exec = Executor::new(ExecMode::TraceOnly, opts.seed);
    let mut records = Vec::with_capacity(opts.frames);
    let mut busy_until = Duration::ZERO;
    // The previous frame and its report: the report is a pure function
    // of the trace, and the trace of the points.
    let mut last: Option<(PointSet, EngineReport)> = None;
    for index in 0..opts.frames {
        if opts.dwell_after == Some(index) {
            stream.set_motion(0.0, Some(0));
        }
        if index > 0 {
            clock.advance(opts.period);
        }
        let arrival = clock.now();
        let points = stream.next_frame();
        let (reused, report) = match last {
            Some((prev, report)) if same_bits(&prev, &points) => (true, report),
            _ => (false, engine.evaluate(&exec.try_run(net, &points)?.trace)),
        };
        let full_service = Duration::from_secs_f64(report.total.0.max(0.0));
        let service = if reused {
            Duration::from_secs_f64((report.total.0 - report.mapping.0).max(0.0))
        } else {
            full_service
        };
        let start = busy_until.max(arrival);
        let finish = start + service;
        busy_until = finish;
        let latency = finish.saturating_sub(arrival);
        records.push(FrameRecord {
            index,
            points: points.len(),
            reused,
            arrival,
            service,
            full_service,
            finish,
            latency,
            met_slo: latency <= opts.slo,
        });
        last = Some((points, report));
    }
    Ok(StreamReport { records })
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
        let timeline =
            |r: &StreamReport| r.records.iter().map(|r| (r.reused, r.latency)).collect::<Vec<_>>();
        assert_eq!(timeline(&a), timeline(&b));
    }

    #[test]
    fn dwell_frames_reuse_and_speed_up() {
        let engine = Accelerator::new(PointAccConfig::full());
        let net = pointacc_nn::zoo::minknet_outdoor();
        let report = serve_stream(&engine, &net, &SimClock::new(), &small_opts()).unwrap();
        assert_eq!(report.records.len(), 8);
        assert!(!report.records[0].reused);
        // Dwell starts at frame 4: frame 5 on is bit-identical geometry.
        let steady = &report.records[5..];
        assert!(steady.iter().all(|r| r.reused), "steady state must compile nothing");
        assert!(steady.len() >= 3);
        // Reuse strictly shortens the modeled service time.
        for r in &report.records {
            if r.reused {
                assert!(r.service < r.full_service, "frame {} did not speed up", r.index);
            } else {
                assert_eq!(r.service, r.full_service);
            }
        }
        assert!(report.amortized_points_per_s() > report.cold_points_per_s());
    }

    #[test]
    fn changed_geometry_recompiles() {
        let engine = Accelerator::new(PointAccConfig::full());
        let net = pointacc_nn::zoo::minknet_outdoor();
        let opts = small_opts();
        let report = serve_stream(&engine, &net, &SimClock::new(), &opts).unwrap();
        // Frames before the dwell move, so none repeats its predecessor.
        for r in &report.records[..opts.dwell_after.unwrap()] {
            assert!(!r.reused, "moving frame {} reused a stale report", r.index);
            assert_eq!(r.service, r.full_service);
        }
    }

    /// A repeated frame reuses the report of the frame before it, and
    /// that report is what a fresh compile of the repeat gives: the same
    /// trace fingerprint, `full_service` = the fresh total and `service`
    /// = the fresh total − mapping.
    #[test]
    fn exact_reuse_matches_fresh_compile() {
        let engine = Accelerator::new(PointAccConfig::full());
        let net = pointacc_nn::zoo::minknet_outdoor();
        // Motion stops before frame 0, so frame 1 repeats it.
        let opts = StreamOptions {
            frames: 2,
            points_hint: 600,
            dwell_after: Some(0),
            ..StreamOptions::default()
        };
        let report = serve_stream(&engine, &net, &SimClock::new(), &opts).unwrap();
        assert_eq!(report.records.len(), 2);
        let (first, second) = (&report.records[0], &report.records[1]);
        assert!(!first.reused && second.reused);

        let mut stream =
            FrameStream::new(opts.seed, opts.points_hint, ScanProfile::semantic_kitti());
        stream.set_motion(0.0, Some(0));
        let (cold, repeat) = (stream.next_frame(), stream.next_frame());
        assert!(same_bits(&cold, &repeat));
        let exec = Executor::new(ExecMode::TraceOnly, opts.seed);
        let cold = exec.try_run(&net, &cold).unwrap().trace;
        let fresh = exec.try_run(&net, &repeat).unwrap().trace;
        assert_eq!(cold.fingerprint(), fresh.fingerprint());
        let fresh = engine.evaluate(&fresh);
        assert_eq!(second.full_service, Duration::from_secs_f64(fresh.total.0));
        assert_eq!(second.service, Duration::from_secs_f64(fresh.total.0 - fresh.mapping.0));
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

    #[test]
    fn same_bits_matches_only_bit_identical_clouds() {
        // Point 0 sits at x = 0.0.
        let cloud: PointSet =
            (0..400).map(|i| Point3::new(i as f32 * 0.3, (i % 16) as f32 * 0.4, 1.5)).collect();
        let with_x0 = |x: f32| -> PointSet {
            let mut points = cloud.points().to_vec();
            points[0].x = x;
            points.into_iter().collect()
        };
        assert!(same_bits(&cloud, &with_x0(0.0)));
        let shorter: PointSet = cloud.points()[1..].iter().copied().collect();
        assert!(!same_bits(&cloud, &shorter), "a different length is not a match");
        assert!(!same_bits(&cloud, &with_x0(1e-6)), "a nudged cloud is not an exact match");
        // A signed zero: `-0.0 == 0.0` as floats, but not bit for bit.
        assert!(!same_bits(&cloud, &with_x0(-0.0)), "-0.0 is not bit-identical to 0.0");
    }
}
