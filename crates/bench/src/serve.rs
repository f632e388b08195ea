//! Batched request serving over a set of [`Engine`]s.
//!
//! The paper evaluates single-inference latency; serving heavy traffic
//! needs the opposite shape: a bounded queue of inference requests
//! drained by sharded worker threads, with trace compilation amortized
//! through a [`TraceCache`](crate::cache::TraceCache) and throughput —
//! not just latency — reported. This module provides the serving
//! primitives and the classic drain-everything entry point:
//!
//! - [`BoundedQueue`], a bounded MPSC channel with blocking `push`/`pop`
//!   between the producer and the worker threads;
//! - [`Request`], one inference request, optionally carrying a relative
//!   latency [`Request::deadline`];
//! - [`ServeReport`], the aggregate: requests/s, points/s, queue-latency
//!   percentiles, the trace-cache hit rate, admission-control counters
//!   ([`ServeReport::rejected`] / [`ServeReport::expired`]) and modeled
//!   per-shard utilization;
//! - [`serve`], the admit-everything configuration of the
//!   [`frontend`](crate::frontend): every request is accepted and
//!   drained, exactly as a batch harness wants.
//!
//! Admission control, per-shard capacity modeling, and the [`Clock`]
//! abstraction that makes all of this testable without sleeping live in
//! [`crate::frontend`].
//!
//! [`Clock`]: crate::frontend::Clock
//!
//! ```
//! use pointacc::{Accelerator, Engine, PointAccConfig};
//! use pointacc_bench::serve::{serve, Request, ServeOptions};
//! use pointacc_nn::zoo;
//!
//! let full = Accelerator::new(PointAccConfig::full());
//! let edge = Accelerator::new(PointAccConfig::edge());
//! let benchmarks: Vec<_> = zoo::benchmarks().into_iter().take(2).collect();
//! let requests: Vec<Request> = (0..8).map(|i| Request::new(i % 2, 42)).collect();
//! let report = serve(
//!     &[&full as &dyn Engine, &edge],
//!     &benchmarks,
//!     requests,
//!     ServeOptions { scale: 0.02, ..ServeOptions::default() },
//! );
//! assert_eq!(report.completed, 8);
//! assert!(report.accounting_balances());
//! assert!(report.cache.hit_rate() > 0.0);
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use pointacc::Engine;
use pointacc_nn::zoo::Benchmark;

use crate::cache::CacheStats;
use crate::frontend::{AdmissionPolicy, Frontend, FrontendOptions};
use crate::sync::{lock, wait};

/// One inference request: a benchmark (index into the server's
/// benchmark list), the dataset seed identifying the input cloud, and
/// an optional latency budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into the benchmark list the server was started with.
    pub benchmark: usize,
    /// Dataset seed of the input point cloud.
    pub seed: u64,
    /// Latency budget relative to arrival. The front-end expires the
    /// request — counted, never executed — when its modeled (or actual)
    /// sojourn time exceeds the budget; `None` means the request waits
    /// forever.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request without a deadline.
    pub fn new(benchmark: usize, seed: u64) -> Self {
        Request { benchmark, seed, deadline: None }
    }

    /// The same request with a latency budget relative to its arrival.
    pub fn with_deadline(self, deadline: Duration) -> Self {
        Request { deadline: Some(deadline), ..self }
    }
}

/// Tuning knobs of one [`serve`] run.
#[derive(Copy, Clone, Debug)]
pub struct ServeOptions {
    /// Maximum queued (not yet claimed) requests per engine shard; the
    /// producer blocks when a shard's queue is full. Must be positive.
    pub queue_capacity: usize,
    /// Worker threads per engine shard.
    pub workers_per_engine: usize,
    /// Point-count scale factor of the input clouds.
    pub scale: f64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { queue_capacity: 16, workers_per_engine: 1, scale: 1.0 }
    }
}

/// A bounded MPSC queue between the serving producer and its worker
/// threads: `push` blocks while the queue is full, `pop` blocks while it
/// is empty, both parking on a condvar. `close` drains remaining items
/// then ends the stream.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// An open queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0 (every push would deadlock).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item`, blocking while the queue is at capacity.
    /// Returns `false` (dropping the item) if the queue was closed.
    pub fn push(&self, item: T) -> bool {
        let mut state = lock(&self.state);
        while state.items.len() >= self.capacity && !state.closed {
            state = wait(&self.not_full, state);
        }
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = wait(&self.not_empty, state);
        }
    }

    /// Closes the queue: queued items still drain, further pushes fail,
    /// and poppers return `None` once empty.
    pub fn close(&self) {
        let mut state = lock(&self.state);
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued (racy; for monitoring only).
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// Whether the queue is currently empty (racy; for monitoring only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Aggregate statistics of one serving run ([`serve`] or
/// [`Frontend::run`](crate::frontend::Frontend::run)).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Requests pulled from the request stream, whatever their fate.
    /// Every submitted request lands in exactly one bucket:
    /// `completed + unsupported + failed + rejected + expired`
    /// ([`ServeReport::accounting_balances`]).
    pub submitted: usize,
    /// Requests evaluated to completion.
    pub completed: usize,
    /// Requests skipped because the assigned engine shard does not
    /// support the benchmark.
    pub unsupported: usize,
    /// Requests rejected as invalid (out-of-range benchmark index, or a
    /// benchmark whose trace cannot be built). Each failure is counted
    /// here and sampled in [`ServeReport::failures`]; the worker that
    /// hit it keeps serving.
    pub failed: usize,
    /// Requests shed by admission control
    /// ([`Rejected::Overloaded`](crate::frontend::Rejected::Overloaded)):
    /// the modeled queueing delay exceeded the policy's bound, so the
    /// request was never enqueued. Always 0 under [`serve`], which
    /// admits everything.
    pub rejected: usize,
    /// Requests whose deadline could not be met — either the modeled
    /// sojourn time already exceeded the budget at admission, or the
    /// deadline had passed by the time a worker claimed the request.
    /// Expired requests are counted, never executed.
    pub expired: usize,
    /// Error messages of the first [`MAX_FAILURE_SAMPLES`] failed
    /// requests (in completion order), for diagnostics.
    pub failures: Vec<String>,
    /// Input points across completed requests.
    pub points: u64,
    /// Serving time from start to last completion, measured on the
    /// run's [`Clock`](crate::frontend::Clock) — wall time under
    /// [`WallClock`](crate::frontend::WallClock), simulated time under
    /// [`SimClock`](crate::frontend::SimClock).
    pub wall: Duration,
    /// Median time requests spent queued before a worker claimed them
    /// (on the run's clock).
    pub queue_p50: Duration,
    /// 99th-percentile queue time.
    pub queue_p99: Duration,
    /// Trace-cache counters of the run (private cache, so the hit rate
    /// reflects this request stream only).
    pub cache: CacheStats,
    /// `(engine name, completed requests)` per shard, in engine order.
    pub per_engine: Vec<(String, usize)>,
    /// `(engine name, modeled utilization)` per shard: executed points
    /// divided by the shard's capacity budget over the run's elapsed
    /// clock time. 0 when the shard's capacity is unknown (zero) or no
    /// clock time elapsed.
    pub utilization_per_shard: Vec<(String, f64)>,
}

impl ServeReport {
    /// Completed requests per second of elapsed clock time; 0 when no
    /// clock time elapsed (e.g. under a never-advanced
    /// [`SimClock`](crate::frontend::SimClock)).
    pub fn requests_per_s(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.wall.as_secs_f64()
    }

    /// Input points evaluated per second of elapsed clock time; 0 when
    /// no clock time elapsed.
    pub fn points_per_s(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.points as f64 / self.wall.as_secs_f64()
    }

    /// Whether every submitted request is accounted for in exactly one
    /// outcome bucket — the invariant every serving run must uphold.
    pub fn accounting_balances(&self) -> bool {
        self.completed + self.unsupported + self.failed + self.rejected + self.expired
            == self.submitted
    }
}

/// How many failed-request messages [`ServeReport::failures`] retains.
pub const MAX_FAILURE_SAMPLES: usize = 16;

/// Drains `requests` through per-shard bounded queues fanned out to
/// `options.workers_per_engine` workers per engine shard, amortizing
/// trace compilation through a run-private
/// [`TraceCache`](crate::cache::TraceCache).
///
/// This is the admit-everything configuration of the [`Frontend`]: no
/// request is ever shed ([`ServeReport::rejected`] is always 0) and
/// requests without deadlines never expire. Invalid requests — an
/// out-of-range benchmark index, or a benchmark whose trace cannot be
/// built ([`crate::TraceBuildError`]) — are counted into
/// [`ServeReport::failed`] with the message sampled in
/// [`ServeReport::failures`]; the worker keeps draining the queue.
/// Unsupported (engine, benchmark) combinations are counted, not
/// evaluated.
///
/// # Panics
///
/// Panics when `engines` or `benchmarks` is empty, or when
/// `options.queue_capacity` is 0.
pub fn serve(
    engines: &[&dyn Engine],
    benchmarks: &[Benchmark],
    requests: impl IntoIterator<Item = Request>,
    options: ServeOptions,
) -> ServeReport {
    let options = FrontendOptions {
        queue_capacity: options.queue_capacity,
        // `serve` predates zero-worker semantics: it always drains.
        workers_per_engine: options.workers_per_engine.max(1),
        scale: options.scale,
        policy: AdmissionPolicy::admit_all(),
        capacities: None,
        artifact_dir: crate::artifact_dir(),
        // Retain cached failures: `serve` is a batch harness whose
        // hit/miss accounting treats a deterministic failure as paid
        // for once; serving layers that need transient-fault recovery
        // use the `Frontend` directly (it defaults to retry).
        failure_policy: crate::cache::FailurePolicy::Retain,
    };
    Frontend::new(engines, benchmarks, options).run(requests)
}

/// Nearest-rank percentile of sorted durations; zero for an empty set.
pub(crate) fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc::{Accelerator, PointAccConfig};
    use pointacc_baselines::Mesorasi;
    use pointacc_nn::zoo;

    #[test]
    fn bounded_queue_applies_backpressure_and_drains_in_order() {
        let queue: BoundedQueue<u32> = BoundedQueue::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..64 {
                    assert!(queue.push(i));
                }
                queue.close();
            });
            let consumer = scope.spawn(|| {
                let mut got = Vec::new();
                while let Some(i) = queue.pop() {
                    // A capacity-2 queue can never be more than 2 deep.
                    assert!(queue.len() <= 2);
                    got.push(i);
                }
                got
            });
            assert_eq!(consumer.join().unwrap(), (0..64).collect::<Vec<_>>());
        });
        assert!(!queue.push(99), "closed queue rejects pushes");
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&ms[..1], 99.0), Duration::from_millis(1));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }

    #[test]
    fn serve_drains_every_request_across_shards() {
        let full = Accelerator::new(PointAccConfig::full());
        let edge = Accelerator::new(PointAccConfig::edge());
        let benchmarks: Vec<_> = zoo::benchmarks()
            .into_iter()
            .filter(|b| b.notation == "PointNet" || b.notation == "DGCNN")
            .collect();
        // 3 rounds × 2 benchmarks × 2 seeds = 12 unique keys hit 3×.
        let requests: Vec<Request> = (0..3)
            .flat_map(|_| (0..2).flat_map(|b| [1, 2].map(|seed| Request::new(b, seed))))
            .collect();
        let n = requests.len();
        let report = serve(
            &[&full as &dyn Engine, &edge],
            &benchmarks,
            requests,
            ServeOptions { queue_capacity: 4, workers_per_engine: 2, scale: 0.05 },
        );
        assert_eq!(report.submitted, n);
        assert_eq!(report.completed, n);
        assert_eq!(report.unsupported, 0);
        assert_eq!(report.failed, 0);
        assert_eq!(report.rejected, 0, "serve admits everything");
        assert_eq!(report.expired, 0, "no request carried a deadline");
        assert!(report.accounting_balances());
        assert!(report.failures.is_empty());
        assert!(report.points > 0);
        assert!(report.requests_per_s() > 0.0);
        assert!(report.points_per_s() > 0.0);
        // Structural invariant — never an absolute wall-clock bound.
        assert!(report.queue_p50 <= report.queue_p99);
        // 12 requests over 4 unique (benchmark, seed) keys: 4 compiles,
        // 8 cache hits.
        assert_eq!(report.cache.misses, 4);
        assert_eq!(report.cache.hits, 8);
        assert_eq!(report.per_engine.len(), 2);
        assert_eq!(report.per_engine.iter().map(|(_, n)| n).sum::<usize>(), n);
        assert_eq!(report.utilization_per_shard.len(), 2);
        for (name, u) in &report.utilization_per_shard {
            assert!(u.is_finite() && *u >= 0.0, "{name}: utilization {u}");
        }
    }

    #[test]
    // The scope join rethrows with its own message (the worker's
    // "engine exploded" payload is still printed by the panic hook).
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panics_propagate_instead_of_hanging() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Survives the front-end's one calibration evaluation on the
        // main thread, then explodes inside the worker.
        struct Exploding(AtomicUsize);
        impl Engine for Exploding {
            fn name(&self) -> String {
                "Exploding".into()
            }
            fn evaluate(&self, trace: &pointacc_nn::NetworkTrace) -> pointacc::EngineReport {
                if self.0.fetch_add(1, Ordering::SeqCst) > 0 {
                    panic!("engine exploded");
                }
                pointacc::EngineReport {
                    engine: self.name(),
                    network: trace.network.clone(),
                    mapping: pointacc::Seconds(0.0),
                    matmul: pointacc::Seconds(1e-3),
                    datamove: pointacc::Seconds(0.0),
                    total: pointacc::Seconds(1e-3),
                    energy: pointacc_sim::PicoJoules::new(1.0),
                    dram_bytes: 0,
                }
            }
        }
        let engine = Exploding(AtomicUsize::new(0));
        let benchmarks: Vec<_> =
            zoo::benchmarks().into_iter().filter(|b| b.notation == "PointNet").collect();
        // More requests than queue capacity: without close-on-panic the
        // producer would block forever against a full queue no worker
        // drains; with it, the scope join rethrows the worker's panic.
        let requests = (0..32).map(|_| Request::new(0, 42));
        let _ = serve(
            &[&engine as &dyn Engine],
            &benchmarks,
            requests,
            ServeOptions { queue_capacity: 2, scale: 0.05, ..ServeOptions::default() },
        );
    }

    #[test]
    fn invalid_requests_fail_without_hanging_the_queue() {
        use pointacc_nn::zoo::Benchmark;
        use pointacc_nn::{Domain, Network, Op};
        let full = Accelerator::new(PointAccConfig::full());
        let mut benchmarks: Vec<_> =
            zoo::benchmarks().into_iter().filter(|b| b.notation == "PointNet").collect();
        // A benchmark whose network pops an empty skip stack: its trace
        // can never be built.
        benchmarks.push(Benchmark {
            notation: "Broken",
            application: "Segmentation",
            dataset: "S3DIS",
            network: Network::new("broken", Domain::VoxelBased, 4)
                .with_voxel_size(0.1)
                .push(Op::SparseConvTr { out_ch: 8, kernel_size: 2 }),
        });
        // Interleave valid requests, out-of-range indices, and the
        // unbuildable benchmark — far more than the queue capacity, so a
        // dead worker would deadlock the producer.
        let requests: Vec<Request> = (0..8)
            .flat_map(|i| [Request::new(0, 42), Request::new(99, i), Request::new(1, 42)])
            .collect();
        let report = serve(
            &[&full as &dyn Engine],
            &benchmarks,
            requests,
            ServeOptions { queue_capacity: 2, scale: 0.05, ..ServeOptions::default() },
        );
        assert_eq!(report.submitted, 24);
        assert_eq!(report.completed, 8, "valid requests still complete");
        assert_eq!(report.failed, 16, "both failure kinds are counted");
        assert!(report.accounting_balances());
        assert!(!report.failures.is_empty());
        assert!(report.failures.len() <= MAX_FAILURE_SAMPLES);
        assert!(
            report.failures.iter().any(|m| m.contains("unknown benchmark index 99")),
            "{:?}",
            report.failures
        );
        assert!(
            report.failures.iter().any(|m| m.contains("skip stack is empty")),
            "{:?}",
            report.failures
        );
        // One miss for PointNet@42, one for the unbuildable trace (which
        // then keeps failing from the negative cache); out-of-range
        // indices never reach the cache.
        assert_eq!(report.cache.misses, 2);
    }

    #[test]
    fn unsupported_shards_count_instead_of_evaluating() {
        let mesorasi = Mesorasi::new();
        let minknet: Vec<_> =
            zoo::benchmarks().into_iter().filter(|b| b.notation == "MinkNet(i)").collect();
        let requests = (0..4).map(|_| Request::new(0, 42));
        let report = serve(
            &[&mesorasi as &dyn Engine],
            &minknet,
            requests,
            ServeOptions { scale: 0.05, ..ServeOptions::default() },
        );
        assert_eq!(report.completed, 0);
        assert_eq!(report.unsupported, 4);
        assert_eq!(report.points, 0);
        assert!(report.accounting_balances());
    }
}
