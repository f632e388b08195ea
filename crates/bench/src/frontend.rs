//! Admission-controlled serving front-end with per-shard capacity
//! modeling.
//!
//! [`serve`](crate::serve::serve) drains everything it is handed — the
//! right shape for a batch harness, the wrong one for a service: under
//! overload an admit-everything queue grows without bound and every
//! request eventually misses its latency target. This module adds the
//! serving-system discipline on top of the same worker machinery:
//!
//! - **Capacity modeling** — each engine shard advertises a points/s
//!   budget derived from its simulated cycle costs
//!   ([`Engine::capacity_points_per_s`]), either calibrated on the
//!   first supported benchmark or supplied explicitly
//!   ([`FrontendOptions::capacities`]). Admitted work accumulates in a
//!   per-shard fluid backlog that drains at the budget rate as clock
//!   time passes — deliberately *modeled*, never measured, so admission
//!   decisions are a pure function of arrival times and are exactly
//!   reproducible.
//! - **Admission control** — each arriving request is routed to the
//!   shard with the earliest modeled completion among those whose
//!   queueing delay meets the [`AdmissionPolicy`] bound, shed
//!   ([`Rejected::Overloaded`]) when no shard qualifies, or expired
//!   ([`Rejected::DeadlineExceeded`]) when its latency budget cannot be
//!   met. Shed and expired requests are counted, never executed.
//! - **A [`Clock`] abstraction** — [`WallClock`] for production,
//!   [`SimClock`] for tests: every timestamp in the serving path
//!   (arrival, dispatch, latency percentiles, utilization) reads the
//!   injected clock, so scheduling behavior is testable without
//!   sleeping. [`paced`] builds deterministic arrival processes by
//!   advancing a `SimClock` as the request stream is consumed.
//! - **A blocking producer** — admission and enqueueing run on the
//!   calling thread, which blocks on [`BoundedQueue::push`]
//!   backpressure while worker threads drain the per-shard queues
//!   exactly as in the batch path.
//!
//! One code path serves both worlds: `serve` is simply
//! [`AdmissionPolicy::admit_all`] on this front-end.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pointacc::Engine;
use pointacc_nn::zoo::Benchmark;
use pointacc_nn::TraceKey;

use crate::cache::{FailurePolicy, TraceCache};
use crate::serve::{percentile, BoundedQueue, Request, ServeReport, MAX_FAILURE_SAMPLES};
use crate::sync::lock;
use crate::{modeled_points, try_benchmark_trace_at};

/// A monotonic time source for the serving path: everything the
/// front-end stamps — arrivals, dispatches, queue-latency percentiles,
/// utilization windows — is a [`Duration`] since the clock's epoch.
///
/// Implementations must be cheap and callable from many threads.
pub trait Clock: Sync {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
}

/// The production clock: real elapsed time since construction.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        // lint: allow(wall-clock): WallClock is the designated production Clock impl.
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A deterministic test clock: time advances only when the test says
/// so. Threading a `SimClock` through a serving run makes every
/// scheduling decision — admission, expiry, latency percentiles — a
/// pure function of the request stream, with no sleeps and no
/// wall-clock luck.
#[derive(Default)]
pub struct SimClock {
    now: Mutex<Duration>,
}

impl SimClock {
    /// A simulated clock at epoch zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Advances simulated time by `dt`.
    pub fn advance(&self, dt: Duration) {
        let mut now = lock(&self.now);
        *now = now.saturating_add(dt);
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        *lock(&self.now)
    }
}

/// Iterator adapter building a deterministic arrival process: advances
/// `clock` by `interarrival` before yielding each request after the
/// first, so request *k* arrives at simulated time `k × interarrival`.
/// Because the front-end's producer pulls requests lazily, the clock
/// advances exactly when the corresponding arrival is admitted.
pub fn paced<'c, I: IntoIterator<Item = Request>>(
    requests: I,
    clock: &'c SimClock,
    interarrival: Duration,
) -> Paced<'c, I::IntoIter> {
    Paced { inner: requests.into_iter(), clock, interarrival, started: false }
}

/// Iterator returned by [`paced`].
pub struct Paced<'c, I> {
    inner: I,
    clock: &'c SimClock,
    interarrival: Duration,
    started: bool,
}

impl<I: Iterator<Item = Request>> Iterator for Paced<'_, I> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        // Pull first: an exhausted stream must not advance the clock,
        // or every paced run would end one interarrival late and
        // understate utilization and requests/s.
        let request = self.inner.next()?;
        if self.started {
            self.clock.advance(self.interarrival);
        }
        self.started = true;
        Some(request)
    }
}

/// Why admission control turned a request away.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// No shard's modeled queueing delay meets the
    /// [`AdmissionPolicy::max_queue_delay`] bound: admitting the
    /// request anywhere would only grow a queue that is already beyond
    /// its latency target. `predicted_wait` is [`Duration::MAX`] when
    /// the least-loaded shard has no capacity at all.
    Overloaded {
        /// The least-loaded shard — the best the request could have
        /// gotten.
        shard: usize,
        /// That shard's modeled time until a worker would have claimed
        /// the request.
        predicted_wait: Duration,
    },
    /// The request's latency budget cannot be met: its modeled sojourn
    /// time (queueing plus service) already exceeds the deadline at
    /// admission, or the deadline passed while it was queued.
    DeadlineExceeded {
        /// Modeled queueing + service time at the admission decision,
        /// or the actual queue time when expiry was detected at
        /// dispatch.
        predicted_sojourn: Duration,
        /// The request's latency budget relative to its arrival.
        deadline: Duration,
    },
}

/// When to shed load instead of queueing it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Shed a request ([`Rejected::Overloaded`]) when the modeled
    /// queueing delay on its best shard exceeds this bound. `None`
    /// admits everything — the [`serve`](crate::serve::serve)
    /// configuration.
    pub max_queue_delay: Option<Duration>,
    /// Also expire admitted requests whose absolute deadline has
    /// already passed when a worker claims them (on the run's clock).
    /// This is the right guard under a [`WallClock`] — the admission
    /// model may underestimate real queueing. Turn it **off** when
    /// pacing arrivals on a [`SimClock`] while executing for real:
    /// there the producer advances simulated time at arrival speed
    /// while workers dispatch at host speed, so a queue-time comparison
    /// of the two clocks is an artifact, not a scheduling decision.
    /// With it off, expiry is decided purely by the admission model.
    pub expire_in_queue: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::admit_all()
    }
}

impl AdmissionPolicy {
    /// Admit every request, whatever the backlog (batch-harness mode).
    pub fn admit_all() -> Self {
        AdmissionPolicy { max_queue_delay: None, expire_in_queue: true }
    }

    /// Shed requests whose modeled queueing delay exceeds `bound`.
    pub fn shed_after(bound: Duration) -> Self {
        AdmissionPolicy { max_queue_delay: Some(bound), expire_in_queue: true }
    }
}

/// Tuning knobs of one [`Frontend`].
#[derive(Clone, Debug)]
pub struct FrontendOptions {
    /// Maximum queued (not yet claimed) requests per engine shard; the
    /// producer blocks while the assigned shard's queue is full. Must be
    /// positive ([`Frontend::new`] panics on 0).
    pub queue_capacity: usize,
    /// Worker threads per engine shard. With 0 workers nothing can ever
    /// drain, so admission sheds every request ([`Rejected::Overloaded`])
    /// instead of deadlocking against a queue nobody serves.
    pub workers_per_engine: usize,
    /// Point-count scale factor of the input clouds.
    pub scale: f64,
    /// When to shed load.
    pub policy: AdmissionPolicy,
    /// Per-shard capacity budgets in points/s, in engine order. `None`
    /// calibrates each shard at construction: the engine's
    /// [`Engine::capacity_points_per_s`] on the first benchmark it
    /// supports (compiled through the process-wide trace cache, so the
    /// run's private cache statistics stay untouched). A shard
    /// supporting none of the benchmarks gets capacity 0.
    pub capacities: Option<Vec<f64>>,
    /// Persistent trace-artifact directory of the run's private cache
    /// (see [`pointacc_nn::artifact`]). Defaults to the process-wide
    /// [`crate::artifact_dir`] (`POINTACC_ARTIFACT_DIR`), so a serving
    /// process restarted against a warm artifact directory compiles
    /// zero traces. `None` disables the disk tier.
    pub artifact_dir: Option<PathBuf>,
    /// What the run's cache does when a request hits a negatively
    /// cached build failure. A serving front-end defaults to
    /// [`FailurePolicy::RetryOnRequest`] — a transient build fault must
    /// not make a key permanently unservable — while the batch
    /// [`serve`](crate::serve::serve) path keeps
    /// [`FailurePolicy::Retain`] for exact amortization accounting.
    pub failure_policy: FailurePolicy,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            queue_capacity: 16,
            workers_per_engine: 1,
            scale: 1.0,
            policy: AdmissionPolicy::admit_all(),
            capacities: None,
            artifact_dir: crate::artifact_dir(),
            failure_policy: FailurePolicy::RetryOnRequest,
        }
    }
}

/// Seed of the calibration traces (kept equal to the first statistical
/// seed so calibration shares compiles with the figure binaries).
const CALIBRATION_SEED: u64 = crate::SEEDS[0];

/// The fluid capacity model of one engine shard: admitted points
/// accumulate in `backlog` and drain at `capacity` points/s as clock
/// time passes. Purely modeled — actual completions never feed back —
/// so the admission sequence is a deterministic function of arrivals.
struct ShardModel {
    capacity: f64,
    backlog: f64,
    as_of: Duration,
}

impl ShardModel {
    fn drain_to(&mut self, now: Duration) {
        let dt = now.saturating_sub(self.as_of).as_secs_f64();
        self.backlog = (self.backlog - dt * self.capacity).max(0.0);
        self.as_of = now;
    }

    /// Modeled seconds until a newly admitted request would be claimed.
    fn wait_s(&self) -> f64 {
        if self.capacity > 0.0 {
            self.backlog / self.capacity
        } else {
            f64::INFINITY
        }
    }

    /// Modeled seconds until a newly admitted request of `points` would
    /// complete (routing score).
    fn completion_s(&self, points: f64) -> f64 {
        if self.capacity > 0.0 {
            (self.backlog + points) / self.capacity
        } else {
            f64::INFINITY
        }
    }
}

fn secs_to_duration(s: f64) -> Duration {
    if s.is_finite() {
        Duration::try_from_secs_f64(s.max(0.0)).unwrap_or(Duration::MAX)
    } else {
        Duration::MAX
    }
}

/// One admitted request in flight to a worker.
struct Admitted {
    request: Request,
    enqueued: Duration,
    /// Absolute deadline on the run's clock (arrival + budget).
    deadline: Option<Duration>,
}

/// How one request ended, as recorded by a worker or by admission.
enum Outcome {
    Done,
    Unsupported,
    Failed(String),
    Shed,
    Expired,
}

/// One finished request as recorded by a worker or by admission.
struct Completion {
    engine: usize,
    queue_latency: Duration,
    points: u64,
    outcome: Outcome,
}

/// The admission-controlled serving front-end: engines with calibrated
/// capacity budgets, per-shard bounded queues, and a blocking producer
/// applying the [`AdmissionPolicy`].
pub struct Frontend<'a> {
    engines: &'a [&'a dyn Engine],
    benchmarks: &'a [Benchmark],
    options: FrontendOptions,
    capacities: Vec<f64>,
    /// Modeled input points per benchmark index at the serving scale.
    points: Vec<f64>,
}

impl<'a> Frontend<'a> {
    /// Builds a front-end over `engines` serving `benchmarks`,
    /// calibrating per-shard capacities unless
    /// [`FrontendOptions::capacities`] supplies them.
    ///
    /// # Panics
    ///
    /// Panics when `engines` or `benchmarks` is empty, when
    /// [`FrontendOptions::queue_capacity`] is 0, or when explicit
    /// capacities disagree with the engine count.
    pub fn new(
        engines: &'a [&'a dyn Engine],
        benchmarks: &'a [Benchmark],
        options: FrontendOptions,
    ) -> Self {
        assert!(!engines.is_empty(), "serving needs at least one engine");
        assert!(!benchmarks.is_empty(), "serving needs at least one benchmark");
        assert!(options.queue_capacity > 0, "queue capacity must be positive");
        let capacities = match &options.capacities {
            Some(c) => {
                assert_eq!(
                    c.len(),
                    engines.len(),
                    "explicit capacities must match the engine count"
                );
                c.clone()
            }
            None => engines.iter().map(|e| calibrate(*e, benchmarks, options.scale)).collect(),
        };
        let points = benchmarks.iter().map(|b| modeled_points(b, options.scale) as f64).collect();
        Frontend { engines, benchmarks, options, capacities, points }
    }

    /// The points/s budget of every shard, in engine order.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Serves `requests` on a fresh [`WallClock`].
    pub fn run(&self, requests: impl IntoIterator<Item = Request>) -> ServeReport {
        self.run_with_clock(&WallClock::new(), requests)
    }

    /// Serves `requests`, reading every timestamp from `clock`.
    ///
    /// The producer runs on the calling thread (admission, routing,
    /// blocking backpressure); `workers_per_engine` threads per shard
    /// drain the queues. The returned report accounts for every
    /// request: [`ServeReport::accounting_balances`] always holds.
    pub fn run_with_clock(
        &self,
        clock: &dyn Clock,
        requests: impl IntoIterator<Item = Request>,
    ) -> ServeReport {
        let mut cache = TraceCache::new().with_failure_policy(self.options.failure_policy);
        if let Some(dir) = &self.options.artifact_dir {
            cache = cache.with_artifact_dir(dir);
        }
        self.run_on_cache(clock, &cache, requests)
    }

    /// [`Frontend::run_with_clock`] against a caller-owned
    /// [`TraceCache`] instead of a run-private one. This is how a
    /// long-lived server keeps its compiled traces warm across request
    /// waves — and how a driver recovers a cache that negatively cached
    /// a transient fault: serve again on the same cache under
    /// [`FailurePolicy::RetryOnRequest`] (or after
    /// [`TraceCache::invalidate`]) and the failed keys rebuild. The
    /// report's [`ServeReport::cache`] snapshots the cache *after* this
    /// run; pair with [`TraceCache::reset_stats`] at wave boundaries
    /// for per-wave accounting.
    pub fn run_on_cache(
        &self,
        clock: &dyn Clock,
        cache: &TraceCache,
        requests: impl IntoIterator<Item = Request>,
    ) -> ServeReport {
        let workers_per_engine = self.options.workers_per_engine;
        let start = clock.now();
        let queues: Vec<BoundedQueue<Admitted>> =
            self.engines.iter().map(|_| BoundedQueue::new(self.options.queue_capacity)).collect();

        // Closes every queue when a worker exits for any reason —
        // crucially including a panic unwinding through
        // `engine.evaluate`. Without it the producer could block
        // forever against a full queue that no surviving worker will
        // drain; closing resolves the pending push, lets the scope
        // join, and the scope then rethrows the worker's panic. Normal
        // worker exit only happens once the queues are already closed,
        // so the eager close is harmless there.
        struct CloseOnExit<'q>(&'q [BoundedQueue<Admitted>]);
        impl Drop for CloseOnExit<'_> {
            fn drop(&mut self) {
                for q in self.0 {
                    q.close();
                }
            }
        }

        // These per-engine workers are blocking queue consumers that block
        // on `queue.pop()` for the whole run — not map-shaped work, so routing
        // them through the pointacc_geom::par pool would wedge its workers
        // behind queues the pool itself is expected to feed.
        // lint: allow(thread-spawn): blocking per-engine queue consumers, not map-shaped.
        let (submitted, completions): (usize, Vec<Completion>) = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<Completion>();
            for (engine_idx, engine) in self.engines.iter().enumerate() {
                for _ in 0..workers_per_engine {
                    let engine: &dyn Engine = *engine;
                    let queues = &queues;
                    let queue = &queues[engine_idx];
                    let cache: &TraceCache = cache;
                    let tx = tx.clone();
                    let benchmarks = self.benchmarks;
                    let scale = self.options.scale;
                    let expire_in_queue = self.options.policy.expire_in_queue;
                    scope.spawn(move || {
                        let _close_on_exit = CloseOnExit(queues);
                        while let Some(adm) = queue.pop() {
                            let now = clock.now();
                            let queue_latency = now.saturating_sub(adm.enqueued);
                            let completion = match adm.deadline {
                                // The budget ran out while the request
                                // was queued: count it, don't run it.
                                Some(dl) if expire_in_queue && now > dl => Completion {
                                    engine: engine_idx,
                                    queue_latency,
                                    points: 0,
                                    outcome: Outcome::Expired,
                                },
                                _ => execute(
                                    engine,
                                    engine_idx,
                                    benchmarks,
                                    cache,
                                    scale,
                                    &adm.request,
                                    queue_latency,
                                ),
                            };
                            if tx.send(completion).is_err() {
                                break;
                            }
                        }
                    });
                }
            }

            // This thread is the producer: admit, route, enqueue with
            // blocking backpressure, then close so workers drain and
            // exit. A failed push means a worker died and closed the
            // queues — stop producing so its panic can surface through
            // the scope join.
            let mut shards: Vec<ShardModel> = self
                .capacities
                .iter()
                .map(|&capacity| ShardModel { capacity, backlog: 0.0, as_of: start })
                .collect();
            let mut submitted = 0usize;
            for request in requests {
                submitted += 1;
                let now = clock.now();
                match self.admit(&mut shards, &request, now) {
                    Ok(shard) => {
                        let deadline =
                            request.deadline.map(|d| now.checked_add(d).unwrap_or(Duration::MAX));
                        let admitted = Admitted { request, enqueued: now, deadline };
                        if !queues[shard].push(admitted) {
                            break;
                        }
                    }
                    Err(rejection) => {
                        let outcome = match rejection {
                            Rejected::Overloaded { .. } => Outcome::Shed,
                            Rejected::DeadlineExceeded { .. } => Outcome::Expired,
                        };
                        let shard = match rejection {
                            Rejected::Overloaded { shard, .. } => shard,
                            Rejected::DeadlineExceeded { .. } => 0,
                        };
                        if tx
                            .send(Completion {
                                engine: shard,
                                queue_latency: Duration::ZERO,
                                points: 0,
                                outcome,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                }
            }
            for q in &queues {
                q.close();
            }
            drop(tx);
            (submitted, rx.into_iter().collect())
        });

        self.aggregate(submitted, completions, cache, start, clock.now())
    }

    /// The admission decision for one arriving request: route it, then
    /// apply the shed bound and the request's deadline against the
    /// fluid backlog model. On admission the routed shard's backlog
    /// grows by the request's modeled points.
    ///
    /// Under a shed bound, routing picks the modeled-earliest
    /// completion among the shards whose queueing delay meets the
    /// bound, and sheds only when no shard qualifies. A deadline-only
    /// request routes to the earliest completion outright; a pure
    /// admit-all request balances outstanding modeled work instead
    /// (see the inline comments for why each regime differs).
    fn admit(
        &self,
        shards: &mut [ShardModel],
        request: &Request,
        now: Duration,
    ) -> Result<usize, Rejected> {
        if self.options.workers_per_engine == 0 {
            // Nothing can drain: admitting would deadlock, so shed.
            return Err(Rejected::Overloaded { shard: 0, predicted_wait: Duration::MAX });
        }
        for shard in shards.iter_mut() {
            shard.drain_to(now);
        }
        // Modeled load of the request; an invalid benchmark index costs
        // no capacity (the worker will count it as failed).
        let points = self.points.get(request.benchmark).copied().unwrap_or(0.0);
        // Earliest modeled completion, falling back to least backlog
        // when neither shard has calibratable capacity.
        let by_completion = |&a: &usize, &b: &usize| {
            let (ca, cb) = (shards[a].completion_s(points), shards[b].completion_s(points));
            if ca.is_finite() || cb.is_finite() {
                ca.total_cmp(&cb)
            } else {
                shards[a].backlog.total_cmp(&shards[b].backlog)
            }
        };
        let shard = if let Some(bound) = self.options.policy.max_queue_delay {
            // Route among the shards whose modeled queueing delay meets
            // the bound; shed only when none does — an idle slow shard
            // within the bound beats shedding behind a fast busy one.
            match (0..shards.len())
                .filter(|&s| shards[s].wait_s() <= bound.as_secs_f64())
                .min_by(by_completion)
            {
                Some(shard) => shard,
                None => {
                    let least_loaded = (0..shards.len())
                        .min_by(|&a, &b| shards[a].wait_s().total_cmp(&shards[b].wait_s()))
                        .expect("at least one engine");
                    return Err(Rejected::Overloaded {
                        shard: least_loaded,
                        predicted_wait: secs_to_duration(shards[least_loaded].wait_s()),
                    });
                }
            }
        } else if request.deadline.is_some() {
            // The capacity model gates this request: minimize its
            // modeled completion so a meetable deadline is met.
            (0..shards.len()).min_by(by_completion).expect("at least one engine")
        } else {
            // Pure admit-all: every request completes regardless, and
            // the engines' *wall-clock* cost per request is roughly
            // uniform (they are all simulators), so balance outstanding
            // modeled work to keep the whole worker pool busy —
            // capacity-proportional routing would idle most of it
            // behind the modeled-fastest shard.
            (0..shards.len())
                .min_by(|&a, &b| shards[a].backlog.total_cmp(&shards[b].backlog))
                .expect("at least one engine")
        };
        if let Some(deadline) = request.deadline {
            let sojourn_s = shards[shard].completion_s(points);
            if sojourn_s > deadline.as_secs_f64() {
                return Err(Rejected::DeadlineExceeded {
                    predicted_sojourn: secs_to_duration(sojourn_s),
                    deadline,
                });
            }
        }
        shards[shard].backlog += points;
        Ok(shard)
    }

    fn aggregate(
        &self,
        submitted: usize,
        completions: Vec<Completion>,
        cache: &TraceCache,
        start: Duration,
        end: Duration,
    ) -> ServeReport {
        let wall = end.saturating_sub(start);
        let mut latencies: Vec<Duration> = Vec::new();
        let mut per_engine: Vec<(String, usize)> =
            self.engines.iter().map(|e| (e.name(), 0)).collect();
        let mut executed_points = vec![0u64; self.engines.len()];
        let mut completed = 0;
        let mut unsupported = 0;
        let mut failed = 0;
        let mut rejected = 0;
        let mut expired = 0;
        let mut failures = Vec::new();
        let mut points = 0;
        for c in completions {
            match c.outcome {
                Outcome::Done => {
                    completed += 1;
                    points += c.points;
                    per_engine[c.engine].1 += 1;
                    executed_points[c.engine] += c.points;
                    latencies.push(c.queue_latency);
                }
                Outcome::Unsupported => {
                    unsupported += 1;
                    latencies.push(c.queue_latency);
                }
                Outcome::Failed(msg) => {
                    failed += 1;
                    latencies.push(c.queue_latency);
                    if failures.len() < MAX_FAILURE_SAMPLES {
                        failures.push(msg);
                    }
                }
                Outcome::Shed => rejected += 1,
                Outcome::Expired => expired += 1,
            }
        }
        latencies.sort_unstable();
        let elapsed_s = wall.as_secs_f64();
        let utilization_per_shard = self
            .engines
            .iter()
            .zip(&self.capacities)
            .zip(&executed_points)
            .map(|((engine, &capacity), &pts)| {
                let utilization = if capacity > 0.0 && elapsed_s > 0.0 {
                    pts as f64 / capacity / elapsed_s
                } else {
                    0.0
                };
                (engine.name(), utilization)
            })
            .collect();
        ServeReport {
            submitted,
            completed,
            unsupported,
            failed,
            rejected,
            expired,
            failures,
            points,
            wall,
            queue_p50: percentile(&latencies, 50.0),
            queue_p99: percentile(&latencies, 99.0),
            cache: cache.stats(),
            per_engine,
            utilization_per_shard,
        }
    }
}

/// Calibrates one shard: the engine's modeled points/s budget on the
/// first benchmark whose trace it supports. Calibration traces compile
/// through the **process-wide** cache so a run-private cache's hit-rate
/// accounting never sees them.
fn calibrate(engine: &dyn Engine, benchmarks: &[Benchmark], scale: f64) -> f64 {
    for bench in benchmarks {
        let key = TraceKey::new(bench.notation, CALIBRATION_SEED, scale);
        let trace = match crate::cache::global()
            .try_get_or_build(&key, || try_benchmark_trace_at(bench, CALIBRATION_SEED, scale))
        {
            Ok(trace) => trace,
            Err(_) => continue,
        };
        if engine.supports(&trace) {
            return engine.capacity_points_per_s(&trace);
        }
    }
    0.0
}

/// Runs one admitted request on its shard's engine (the worker half of
/// the pipeline, unchanged from the batch path): build or fetch the
/// trace through the run-private cache, skip unsupported combinations,
/// evaluate the rest.
fn execute(
    engine: &dyn Engine,
    engine_idx: usize,
    benchmarks: &[Benchmark],
    cache: &TraceCache,
    scale: f64,
    request: &Request,
    queue_latency: Duration,
) -> Completion {
    let built = match benchmarks.get(request.benchmark) {
        None => Err(format!(
            "request names unknown benchmark index {} ({} benchmarks served)",
            request.benchmark,
            benchmarks.len()
        )),
        Some(bench) => {
            let key = TraceKey::new(bench.notation, request.seed, scale);
            cache
                .try_get_or_build(&key, || try_benchmark_trace_at(bench, request.seed, scale))
                .map_err(|e| e.to_string())
        }
    };
    let (points, outcome) = match built {
        Err(msg) => (0, Outcome::Failed(msg)),
        Ok(trace) if engine.supports(&trace) => {
            let report = engine.evaluate(&trace);
            debug_assert!(report.is_physical());
            (trace.input_points() as u64, Outcome::Done)
        }
        Ok(_) => (0, Outcome::Unsupported),
    };
    Completion { engine: engine_idx, queue_latency, points, outcome }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc::EngineReport;
    use pointacc_nn::{zoo, NetworkTrace};
    use pointacc_sim::PicoJoules;

    /// A deterministic engine with a fixed simulated latency — cheap
    /// enough for admission-logic tests that don't care about the
    /// hardware model.
    struct ConstEngine {
        name: &'static str,
        total_s: f64,
    }

    impl Engine for ConstEngine {
        fn name(&self) -> String {
            self.name.into()
        }
        fn evaluate(&self, trace: &NetworkTrace) -> EngineReport {
            EngineReport {
                engine: self.name(),
                network: trace.network.clone(),
                mapping: pointacc::Seconds(0.0),
                matmul: pointacc::Seconds(self.total_s),
                datamove: pointacc::Seconds(0.0),
                total: pointacc::Seconds(self.total_s),
                energy: PicoJoules::new(1.0),
                dram_bytes: 0,
            }
        }
    }

    fn pointnet_only() -> Vec<Benchmark> {
        zoo::benchmarks().into_iter().filter(|b| b.notation == "PointNet").collect()
    }

    #[test]
    fn sim_clock_advances_only_on_demand() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(250));
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(500));
    }

    #[test]
    fn paced_iterator_spaces_arrivals() {
        let clock = SimClock::new();
        let step = Duration::from_millis(10);
        let reqs: Vec<(Request, Duration)> =
            paced((0..4).map(|i| Request::new(0, i)), &clock, step)
                .map(|r| (r, clock.now()))
                .collect();
        let arrivals: Vec<Duration> = reqs.iter().map(|(_, t)| *t).collect();
        assert_eq!(arrivals, (0..4).map(|k| step * k).collect::<Vec<_>>());
        // Exhausting the stream (collect polls one extra `next`) must
        // not advance the clock past the last arrival: a paced run's
        // elapsed time is (n-1) interarrivals, not n.
        assert_eq!(clock.now(), step * 3);
    }

    #[test]
    fn calibration_derives_capacity_from_simulated_throughput() {
        let engine = ConstEngine { name: "Const", total_s: 0.5 };
        let benchmarks = pointnet_only();
        let engines = [&engine as &dyn Engine];
        let frontend = Frontend::new(
            &engines,
            &benchmarks,
            FrontendOptions { scale: 0.02, ..FrontendOptions::default() },
        );
        // 64 modeled points per 0.5 simulated seconds.
        let points = modeled_points(&benchmarks[0], 0.02) as f64;
        assert!((frontend.capacities()[0] - points / 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "queue capacity must be positive")]
    fn zero_queue_capacity_panics_at_construction() {
        let engine = ConstEngine { name: "Const", total_s: 0.5 };
        let benchmarks = pointnet_only();
        let engines = [&engine as &dyn Engine];
        // Fails before calibration compiles anything, not later inside
        // the first run.
        let _ = Frontend::new(
            &engines,
            &benchmarks,
            FrontendOptions { queue_capacity: 0, scale: 0.02, ..FrontendOptions::default() },
        );
    }

    #[test]
    fn fluid_backlog_drains_with_clock_time() {
        let mut shard = ShardModel { capacity: 100.0, backlog: 50.0, as_of: Duration::ZERO };
        shard.drain_to(Duration::from_millis(200));
        assert!((shard.backlog - 30.0).abs() < 1e-9, "50 - 0.2×100 = 30");
        shard.drain_to(Duration::from_secs(10));
        assert_eq!(shard.backlog, 0.0, "backlog never goes negative");
        assert_eq!(shard.wait_s(), 0.0);
    }

    #[test]
    fn zero_capacity_shards_report_infinite_wait() {
        let shard = ShardModel { capacity: 0.0, backlog: 0.0, as_of: Duration::ZERO };
        assert!(shard.wait_s().is_infinite());
        assert!(shard.completion_s(64.0).is_infinite());
        assert_eq!(secs_to_duration(f64::INFINITY), Duration::MAX);
        assert_eq!(secs_to_duration(1.5), Duration::from_millis(1500));
    }
}
