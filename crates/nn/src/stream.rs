//! Cross-frame trace reuse for streaming point-cloud serving.
//!
//! A LiDAR stream's consecutive sweeps overlap heavily (the paper's
//! SemanticKITTI workload is a sequence, not independent clouds), yet
//! mapping-op compilation — the dominant trace cost — recomputes from
//! scratch per request. [`StreamingTracer`] wraps an [`Executor`] with
//! one fast path checked per frame: **exact reuse**. When the frame's
//! points are bit-identical to the previous frame's (every coordinate's
//! bit pattern compared, stopping at the first difference), the cached
//! output is returned as-is — every executor product is a pure function
//! of `(network, seed, points)`.
//!
//! Anything else compiles normally and replaces the cached frame.
//! Reuse is reported through [`StreamStats`], mirroring the
//! `CacheStats::accounting` style the warm-start CI check greps.

use pointacc_geom::{Point3, PointSet};

use crate::{ExecError, ExecMode, ExecOutput, Executor, Network};

/// How a frame's request was satisfied.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReuseOutcome {
    /// Points bit-identical to the previous frame: cached output reused.
    ExactReuse,
    /// No reusable previous frame: compiled by the executor.
    Compiled,
}

/// Per-stream reuse accounting, in the same spirit (and greppable line
/// format) as the trace cache's `CacheStats`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames served (successful runs only).
    pub frames: u64,
    /// Frames served from the exact-match fast path.
    pub exact_reuses: u64,
    /// Frames that compiled a fresh trace.
    pub compiles: u64,
}

impl StreamStats {
    /// One-line accounting summary; `compiles=…` is the token CI greps
    /// to enforce that steady-state identical-geometry frames compile
    /// zero new traces.
    pub fn accounting(&self) -> String {
        format!(
            "frames={} exact_reuses={} compiles={}",
            self.frames, self.exact_reuses, self.compiles
        )
    }

    /// Counts one served frame under its outcome.
    pub fn record(&mut self, outcome: ReuseOutcome) {
        self.frames += 1;
        match outcome {
            ReuseOutcome::ExactReuse => self.exact_reuses += 1,
            ReuseOutcome::Compiled => self.compiles += 1,
        }
    }
}

/// Whether two clouds hold bit-identical coordinates, stopping at the
/// first difference. Bit patterns, not float `==`: `-0.0 == 0.0`, yet
/// the two are different inputs.
fn same_bits(a: &PointSet, b: &PointSet) -> bool {
    let bits = |p: &Point3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
    a.len() == b.len() && a.points().iter().zip(b.points()).all(|(p, q)| bits(p) == bits(q))
}

struct CachedFrame {
    network: String,
    points: PointSet,
    output: ExecOutput,
}

/// An [`Executor`] wrapper that serves a frame stream, reusing the
/// previous frame's compiled output whenever the frame's points match
/// the previous frame's exactly.
///
/// # Examples
///
/// ```
/// use pointacc_nn::stream::{ReuseOutcome, StreamingTracer};
/// use pointacc_nn::{zoo, ExecMode};
/// use pointacc_geom::{Point3, PointSet};
///
/// let net = zoo::minknet_outdoor();
/// let pts: PointSet = (0..256)
///     .map(|i| Point3::new(i as f32 * 0.3, (i % 16) as f32 * 0.4, 0.0))
///     .collect();
/// let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, 42);
/// let (_, first) = tracer.run_frame(&net, &pts).unwrap();
/// let (_, second) = tracer.run_frame(&net, &pts).unwrap();
/// assert_eq!(first, ReuseOutcome::Compiled);
/// assert_eq!(second, ReuseOutcome::ExactReuse);
/// assert_eq!(tracer.stats().compiles, 1);
/// ```
pub struct StreamingTracer {
    exec: Executor,
    last: Option<CachedFrame>,
    stats: StreamStats,
}

impl StreamingTracer {
    /// Creates a streaming tracer over [`Executor::new`] with the given
    /// fidelity and weight seed.
    pub fn new(mode: ExecMode, seed: u64) -> Self {
        Self::over(Executor::new(mode, seed))
    }

    /// Wraps an explicitly configured executor (exec options).
    pub fn over(exec: Executor) -> Self {
        StreamingTracer { exec, last: None, stats: StreamStats::default() }
    }

    /// Runs one frame, reusing the previous frame's output when the
    /// points match it exactly. Returns the output and how it was
    /// produced. A failed run neither counts a frame nor disturbs the
    /// cached one.
    pub fn run_frame(
        &mut self,
        net: &Network,
        points: &PointSet,
    ) -> Result<(ExecOutput, ReuseOutcome), ExecError> {
        if let Some(last) = &self.last {
            if last.network == net.name() && same_bits(&last.points, points) {
                self.stats.record(ReuseOutcome::ExactReuse);
                return Ok((last.output.clone(), ReuseOutcome::ExactReuse));
            }
        }
        let output = self.exec.try_run(net, points)?;
        self.last = Some(CachedFrame {
            network: net.name().to_string(),
            points: points.clone(),
            output: output.clone(),
        });
        self.stats.record(ReuseOutcome::Compiled);
        Ok((output, ReuseOutcome::Compiled))
    }

    /// Cumulative reuse accounting.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Drops the cached frame (the next run compiles), keeping stats.
    pub fn invalidate(&mut self) {
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn cloud(n: usize, seed: u64) -> PointSet {
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f32 / 50.0 - 10.0
        };
        (0..n).map(|_| Point3::new(step(), step(), step())).collect()
    }

    #[test]
    fn exact_reuse_matches_fresh_compile() {
        let net = zoo::minknet_outdoor();
        let pts = cloud(600, 3);
        let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, 42);
        let (first, o1) = tracer.run_frame(&net, &pts).unwrap();
        let (second, o2) = tracer.run_frame(&net, &pts).unwrap();
        assert_eq!(o1, ReuseOutcome::Compiled);
        assert_eq!(o2, ReuseOutcome::ExactReuse);
        assert_eq!(first.trace.fingerprint(), second.trace.fingerprint());
        assert_eq!(tracer.stats().accounting(), "frames=2 exact_reuses=1 compiles=1");
    }

    #[test]
    fn changed_geometry_recompiles() {
        let net = zoo::minknet_outdoor();
        let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, 42);
        tracer.run_frame(&net, &cloud(500, 7)).unwrap();
        let (_, outcome) = tracer.run_frame(&net, &cloud(500, 9)).unwrap();
        assert_eq!(outcome, ReuseOutcome::Compiled);
        assert_eq!(tracer.stats().compiles, 2);
    }

    #[test]
    fn point_domain_networks_only_reuse_exact_matches() {
        let net = zoo::pointnet_pp_segmentation();
        let pts = cloud(400, 11);
        let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, 42);
        tracer.run_frame(&net, &pts).unwrap();
        let nudged: PointSet =
            pts.points().iter().map(|p| Point3::new(p.x + 1e-6, p.y, p.z)).collect();
        let (_, outcome) = tracer.run_frame(&net, &nudged).unwrap();
        assert_eq!(outcome, ReuseOutcome::Compiled, "a nudged cloud is not an exact match");
        // A signed zero: `-0.0 == 0.0` as floats, but not bit for bit.
        let with_x0 = |x: f32| -> PointSet {
            let mut points = pts.points().to_vec();
            points[0].x = x;
            points.into_iter().collect()
        };
        tracer.run_frame(&net, &with_x0(0.0)).unwrap();
        let (_, outcome) = tracer.run_frame(&net, &with_x0(-0.0)).unwrap();
        assert_eq!(outcome, ReuseOutcome::Compiled, "-0.0 is not bit-identical to 0.0");
    }

    #[test]
    fn network_switch_invalidates_reuse() {
        let pts = cloud(500, 13);
        let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, 42);
        tracer.run_frame(&zoo::minknet_outdoor(), &pts).unwrap();
        let (_, outcome) = tracer.run_frame(&zoo::minknet_indoor(), &pts).unwrap();
        assert_eq!(outcome, ReuseOutcome::Compiled);
    }

    #[test]
    fn failed_runs_leave_cache_and_stats_untouched() {
        let net = zoo::minknet_outdoor();
        let pts = cloud(300, 17);
        let mut tracer = StreamingTracer::new(ExecMode::TraceOnly, 42);
        tracer.run_frame(&net, &pts).unwrap();
        assert!(tracer.run_frame(&net, &PointSet::new()).is_err());
        assert_eq!(tracer.stats().frames, 1);
        let (_, outcome) = tracer.run_frame(&net, &pts).unwrap();
        assert_eq!(outcome, ReuseOutcome::ExactReuse, "cached frame survived the failed run");
    }
}
