//! Batched, thread-parallel run driver over the unified
//! [`Engine`] surface.
//!
//! Every figure of the evaluation is some slice of the same cube: a set
//! of engines (PointAcc configurations, general-purpose platforms,
//! Mesorasi variants) × a set of Table 2 benchmarks × trace seeds. The
//! [`Grid`] builder evaluates that cube concurrently — trace generation
//! parallelized over (benchmark × seed), model evaluation over
//! (engine × benchmark × seed) — and the result exposes uniform lookup,
//! speedup and table helpers so the per-figure binaries stay tiny.
//!
//! # Example
//!
//! ```
//! use pointacc::{Accelerator, PointAccConfig};
//! use pointacc_baselines::Platform;
//! use pointacc_bench::harness::Grid;
//!
//! let acc = Accelerator::new(PointAccConfig::full());
//! let gpu = Platform::rtx_2080ti();
//! let run = Grid::new()
//!     .engine(&acc)
//!     .engine(&gpu)
//!     .benchmarks(pointacc_nn::zoo::benchmarks().into_iter().take(2))
//!     .scale(0.05)
//!     .run();
//! let ours = run.report(0, 0, 0).expect("supported");
//! assert!(ours.is_physical());
//! ```

use std::sync::Arc;

use pointacc::{Engine, EngineReport, Summary};
use pointacc_nn::zoo::{self, Benchmark};
use pointacc_nn::NetworkTrace;

use crate::{cached_benchmark_trace, geomean};

// The scheduler itself lives in `pointacc_geom::par` so the mapping
// ops can parallelize per-query/per-offset work with the same
// work-stealing map the grid uses for (engine × benchmark × seed)
// cells; re-exported here unchanged for all existing callers.
pub use pointacc_geom::par::{parallel_map, parallel_map_with, worker_threads};

/// Builds (or fetches from the process-wide trace cache) the traces of
/// several benchmarks concurrently, in order, at the process-wide
/// [`scale`](crate::scale).
pub fn parallel_traces(benchmarks: &[Benchmark], seed: u64) -> Vec<Arc<NetworkTrace>> {
    let scale = crate::scale();
    parallel_map(benchmarks, |b| cached_benchmark_trace(b, seed, scale))
}

/// Builder for one (engine × benchmark × seed) evaluation grid.
#[derive(Default)]
pub struct Grid<'a> {
    engines: Vec<&'a dyn Engine>,
    benchmarks: Option<Vec<Benchmark>>,
    seeds: Option<Vec<u64>>,
    scale: Option<f64>,
}

impl<'a> Grid<'a> {
    /// An empty grid: add engines, then benchmarks/seeds, then [`run`].
    ///
    /// [`run`]: Grid::run
    pub fn new() -> Self {
        Grid { engines: Vec::new(), benchmarks: None, seeds: None, scale: None }
    }

    /// Adds one engine (row of the grid).
    #[must_use]
    pub fn engine(mut self, engine: &'a dyn Engine) -> Self {
        self.engines.push(engine);
        self
    }

    /// Adds several engines.
    #[must_use]
    pub fn engines(mut self, engines: impl IntoIterator<Item = &'a dyn Engine>) -> Self {
        self.engines.extend(engines);
        self
    }

    /// Adds benchmarks (columns of the grid).
    #[must_use]
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.benchmarks.get_or_insert_with(Vec::new).extend(benchmarks);
        self
    }

    /// Adds trace seeds (depth of the grid).
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.get_or_insert_with(Vec::new).extend(seeds);
        self
    }

    /// Sets the point-count scale factor explicitly (default: the
    /// process-wide [`scale`](crate::scale) read once from
    /// `POINTACC_SCALE`). Tests should use this instead of mutating the
    /// environment, which is racy under the parallel test runner.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Evaluates the full grid concurrently.
    ///
    /// Defaults when never set: all eight Table 2 benchmarks, seed 42.
    /// Unsupported (engine, trace) combinations — e.g. Mesorasi on a
    /// SparseConv network — yield `None` instead of running.
    ///
    /// # Panics
    ///
    /// Panics if no engines were added, or if [`Grid::benchmarks`] /
    /// [`Grid::seeds`] was called but contributed nothing (a filter
    /// that matches no benchmark is a bug in the caller, not a request
    /// for the default grid).
    pub fn run(self) -> GridRun {
        assert!(!self.engines.is_empty(), "grid needs at least one engine");
        let benchmarks = self.benchmarks.unwrap_or_else(zoo::benchmarks);
        assert!(!benchmarks.is_empty(), "grid benchmark filter matched nothing");
        let seeds = self.seeds.unwrap_or_else(|| vec![42]);
        assert!(!seeds.is_empty(), "grid seed list is empty");
        let scale = self.scale.unwrap_or_else(crate::scale);

        let jobs: Vec<(usize, u64)> = benchmarks
            .iter()
            .enumerate()
            .flat_map(|(b, _)| seeds.iter().map(move |&s| (b, s)))
            .collect();
        let traces =
            parallel_map(&jobs, |&(b, seed)| cached_benchmark_trace(&benchmarks[b], seed, scale));

        let cells: Vec<(usize, usize)> =
            (0..self.engines.len()).flat_map(|e| (0..traces.len()).map(move |t| (e, t))).collect();
        let engines = &self.engines;
        let traces_ref = &traces;
        let reports = parallel_map(&cells, |&(e, t)| {
            let engine = engines[e];
            let trace: &NetworkTrace = &traces_ref[t];
            engine.supports(trace).then(|| engine.evaluate(trace))
        });

        GridRun {
            engines: self.engines.iter().map(|e| e.name()).collect(),
            benchmarks,
            seeds,
            scale,
            traces,
            reports,
        }
    }
}

/// The evaluated grid: reports indexed by (engine, benchmark, seed).
pub struct GridRun {
    /// Engine names, in insertion order.
    pub engines: Vec<String>,
    /// Benchmarks, in insertion order.
    pub benchmarks: Vec<Benchmark>,
    /// Seeds, in insertion order.
    pub seeds: Vec<u64>,
    /// Point-count scale factor the traces were built at.
    pub scale: f64,
    traces: Vec<Arc<NetworkTrace>>,
    reports: Vec<Option<EngineReport>>,
}

impl GridRun {
    /// The trace of `(benchmark, seed)`.
    pub fn trace(&self, benchmark: usize, seed: usize) -> &NetworkTrace {
        &self.traces[benchmark * self.seeds.len() + seed]
    }

    /// The report of `(engine, benchmark, seed)`; `None` when the engine
    /// does not support that benchmark.
    pub fn report(&self, engine: usize, benchmark: usize, seed: usize) -> Option<&EngineReport> {
        self.reports[engine * self.traces.len() + benchmark * self.seeds.len() + seed].as_ref()
    }

    /// Latency ratio `rival / base` on `(benchmark, seed)` — the paper's
    /// "speedup of base over rival". `None` if either side is missing.
    pub fn speedup(&self, base: usize, rival: usize, benchmark: usize, seed: usize) -> Option<f64> {
        let b = self.report(base, benchmark, seed)?;
        let r = self.report(rival, benchmark, seed)?;
        Some(r.total.0 / b.total.0)
    }

    /// Energy ratio `rival / base` on `(benchmark, seed)`.
    pub fn energy_ratio(
        &self,
        base: usize,
        rival: usize,
        benchmark: usize,
        seed: usize,
    ) -> Option<f64> {
        let b = self.report(base, benchmark, seed)?;
        let r = self.report(rival, benchmark, seed)?;
        Some(r.energy.get() / b.energy.get())
    }

    /// Geometric-mean speedup of `base` over `rival` across every
    /// supported (benchmark, seed) pair; `NaN` when the pair shares no
    /// supported cell (matching the `None` contract of [`GridRun::speedup`]).
    pub fn geomean_speedup(&self, base: usize, rival: usize) -> f64 {
        self.geomean_over(|b, s| self.speedup(base, rival, b, s))
    }

    /// Geometric-mean energy ratio of `rival` over `base`; `NaN` when
    /// the pair shares no supported cell.
    pub fn geomean_energy_ratio(&self, base: usize, rival: usize) -> f64 {
        self.geomean_over(|b, s| self.energy_ratio(base, rival, b, s))
    }

    /// Mean ± 95 % CI of the speedup of `base` over `rival` on one
    /// benchmark, aggregated over the seed axis. `None` when no seed has
    /// both sides supported.
    pub fn speedup_summary(&self, base: usize, rival: usize, benchmark: usize) -> Option<Summary> {
        self.summary_over_seeds(|s| self.speedup(base, rival, benchmark, s))
    }

    /// Mean speedup of `base` over `rival` on one benchmark across
    /// seeds; `None` when no seed has both sides supported.
    pub fn mean_speedup(&self, base: usize, rival: usize, benchmark: usize) -> Option<f64> {
        self.speedup_summary(base, rival, benchmark).map(|s| s.mean)
    }

    /// 95 % CI half-width of the per-seed speedups of `base` over
    /// `rival` on one benchmark; `None` when no seed has both sides
    /// supported.
    pub fn ci95_speedup(&self, base: usize, rival: usize, benchmark: usize) -> Option<f64> {
        self.speedup_summary(base, rival, benchmark).map(|s| s.ci95)
    }

    /// Mean ± 95 % CI of `engine`'s end-to-end latency (ms) on one
    /// benchmark across seeds; `None` when unsupported on every seed.
    pub fn latency_summary(&self, engine: usize, benchmark: usize) -> Option<Summary> {
        self.summary_over_seeds(|s| self.report(engine, benchmark, s).map(|r| r.latency_ms()))
    }

    /// Mean ± 95 % CI over seeds of the per-seed geometric-mean speedup
    /// of `base` over `rival` across benchmarks — the headline
    /// "GeoMean" number of Fig. 13/14/15 with honest error bars. `None`
    /// when no seed has any supported (base, rival) pair.
    pub fn geomean_speedup_summary(&self, base: usize, rival: usize) -> Option<Summary> {
        self.summary_over_seeds(|s| {
            let per_seed: Vec<f64> = (0..self.benchmarks.len())
                .filter_map(|b| self.speedup(base, rival, b, s))
                .collect();
            (!per_seed.is_empty()).then(|| geomean(&per_seed))
        })
    }

    fn summary_over_seeds(&self, get: impl Fn(usize) -> Option<f64>) -> Option<Summary> {
        let samples: Vec<f64> = (0..self.seeds.len()).filter_map(get).collect();
        (!samples.is_empty()).then(|| Summary::from_samples(&samples))
    }

    fn geomean_over(&self, get: impl Fn(usize, usize) -> Option<f64>) -> f64 {
        let values: Vec<f64> = (0..self.benchmarks.len())
            .flat_map(|b| (0..self.seeds.len()).map(move |s| (b, s)))
            .filter_map(|(b, s)| get(b, s))
            .collect();
        if values.is_empty() {
            f64::NAN
        } else {
            geomean(&values)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc::{Accelerator, PointAccConfig};
    use pointacc_baselines::{Mesorasi, Platform};

    #[test]
    fn parallel_map_preserves_order_across_workers() {
        // Force several workers so the concurrent path runs even on
        // single-core CI machines.
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map_with(4, &items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_tiny_inputs() {
        assert_eq!(parallel_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn grid_matches_sequential_evaluation() {
        let acc = Accelerator::new(PointAccConfig::edge());
        let gpu = Platform::jetson_nano();
        let benchmarks: Vec<_> = zoo::benchmarks().into_iter().take(3).collect();
        let run = Grid::new()
            .engines([&acc as &dyn Engine, &gpu])
            .benchmarks(benchmarks.clone())
            .seeds([1, 2])
            .scale(0.05)
            .run();
        assert_eq!(run.engines, vec!["PointAcc.Edge", "Jetson Nano"]);
        assert_eq!(run.scale, 0.05);
        for (b, bench) in benchmarks.iter().enumerate() {
            for s in 0..2 {
                let trace = crate::benchmark_trace_at(bench, [1, 2][s], 0.05);
                assert_eq!(run.trace(b, s).network, trace.network);
                assert_eq!(run.trace(b, s).fingerprint(), trace.fingerprint());
                let want = gpu.run(&trace);
                assert_eq!(run.report(1, b, s), Some(&want));
                assert!(run.speedup(0, 1, b, s).unwrap() > 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "matched nothing")]
    fn empty_benchmark_filter_panics_instead_of_defaulting() {
        let edge = Accelerator::new(PointAccConfig::edge());
        let none = zoo::benchmarks().into_iter().filter(|b| b.notation == "renamed-away");
        let _ = Grid::new().engine(&edge).benchmarks(none).run();
    }

    #[test]
    fn unsupported_cells_are_none_not_panics() {
        let mesorasi = Mesorasi::new();
        let minknet = zoo::benchmarks()
            .into_iter()
            .find(|b| b.notation == "MinkNet(i)")
            .expect("MinkNet(i) exists");
        let run = Grid::new().engine(&mesorasi).benchmarks([minknet]).scale(0.05).run();
        assert_eq!(run.report(0, 0, 0), None);
        assert_eq!(run.speedup(0, 0, 0, 0), None);
        assert!(run.geomean_speedup(0, 0).is_nan());
    }
}
