//! Persistent-pool thread-parallel map, shared by the whole workspace.
//!
//! This lives at the bottom of the crate graph so the mapping ops in
//! [`crate::index`] can parallelize per-query and per-offset work with
//! the *same* scheduler the bench harness uses for (engine × benchmark ×
//! seed) grids — `pointacc_bench::harness` re-exports these functions
//! unchanged.
//!
//! # Pool lifecycle
//!
//! The process-wide pool is built on the first parallel call, or earlier
//! by [`start_pool`] (`pointacc::Accelerator::new` calls it, so that no
//! replay pays for thread start-up):
//! [`worker_threads`]` − 1` helper threads are spawned once and parked on
//! a condvar for the life of the process — steady-state [`parallel_map`]
//! calls spawn **zero** threads (verified by test via
//! [`threads_spawned`]). Each call is a *round*: the caller publishes a
//! type-erased reference to its loop body, enqueues one helper job per
//! extra worker, runs the body itself, then retires whatever jobs no
//! helper claimed (the shared cursor is exhausted by then, so an
//! unclaimed job has no work left) and blocks until every claimed job
//! has finished. Because a round always completes on its caller alone,
//! nested rounds — a grid cell's `parallel_map` fanning out into the
//! executor's per-group conv map — can never deadlock, whatever the pool
//! size. Tests that need a private scheduler build their own [`Pool`].
//!
//! # `POINTACC_THREADS`
//!
//! `POINTACC_THREADS` (read **once** per process) sets both the pool
//! size (helpers = threads − 1; the caller is always the last worker)
//! and the default fan-out of [`parallel_map`]. `POINTACC_THREADS=1`
//! keeps every map on the calling thread. [`parallel_map_with`] may ask
//! for any worker count: the pool caps *concurrency* at its size, while
//! order and results stay identical for every count by construction.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Poison-recovering `Mutex::lock`: a panic in another worker's closure
/// must not cascade into every later round. (`pointacc_bench::sync`
/// holds the workspace helpers, but `geom` sits below it in the crate
/// graph, so the idiom is mirrored here.)
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Worker-thread count: `POINTACC_THREADS` when set, otherwise one per
/// available core.
///
/// The environment is read **once** per process; later mutations are
/// ignored. The first parallel call also sizes the process-wide pool
/// from this value, so the count is fixed for the process lifetime.
/// Callers that need a specific worker count (tests, tuned drivers)
/// should use [`parallel_map_with`] instead of mutating the process
/// environment.
pub fn worker_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        // lint: allow(env-var): designated read-once accessor for POINTACC_THREADS.
        std::env::var("POINTACC_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map_or(4, |n| n.get()))
    })
}

/// Monotone count of helper threads ever spawned by [`Pool`]s in this
/// process (the global pool and any test-local ones). `parallel_map`
/// itself never spawns, so in steady state this number is constant — the
/// property the pool tests pin.
pub fn threads_spawned() -> usize {
    SPAWNED.load(Ordering::SeqCst)
}

static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Type-erased shared reference to one round's worker body.
///
/// The pointee is a stack-allocated closure in the caller's
/// [`Pool::map_with`] frame. The round protocol keeps it alive for every
/// dereference: each run happens strictly before that job's `pending`
/// decrement, and the owning caller does not leave its frame until
/// `pending` reaches zero. After the round the pointer may dangle, but
/// it is never dereferenced again (a raw pointer, unlike a reference,
/// may dangle safely).
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are safe)
// and outlives every dereference per the round protocol above. This is
// the one lifetime erasure that lets a persistent pool run borrowing
// closures — the same erasure every scoped-pool implementation makes.
// lint: allow(allow-attr): the crate denies unsafe_code; this is the one audited exemption.
#[allow(unsafe_code)]
// lint: allow(unsafe): audited pool-task lifetime erasure; see TaskRef docs.
unsafe impl Send for TaskRef {}

impl TaskRef {
    /// Erases `body`'s borrow lifetime so the job can sit in the
    /// process-wide queue. The caller must uphold the round protocol
    /// documented on [`TaskRef`]: stay in its frame until every job
    /// holding this pointer has been retired.
    // lint: allow(allow-attr): the crate denies unsafe_code; this is the one audited exemption.
    #[allow(unsafe_code)]
    fn erase(body: &(dyn Fn() + Sync)) -> TaskRef {
        // SAFETY: only the lifetime is transmuted (the pointee type is
        // unchanged), and the pointer is dereferenced exclusively while
        // the round's caller is still blocked in `map_with`.
        // lint: allow(unsafe): audited pool-task lifetime erasure; see TaskRef docs.
        let erased: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(body) };
        TaskRef(erased as *const (dyn Fn() + Sync))
    }

    /// Runs the body once, catching panics so a poisoned closure cannot
    /// take the pool worker down with it.
    // lint: allow(allow-attr): the crate denies unsafe_code; this is the one audited exemption.
    #[allow(unsafe_code)]
    fn run(&self) -> Result<(), Box<dyn Any + Send>> {
        // SAFETY: see the `Send` impl — the round's caller is blocked in
        // `map_with` until this job is retired, so the pointee is alive.
        // lint: allow(unsafe): audited pool-task lifetime erasure; see TaskRef docs.
        let body = unsafe { &*self.0 };
        catch_unwind(AssertUnwindSafe(body))
    }
}

/// Completion tracking for one `map_with` round.
struct Round {
    /// Helper jobs enqueued for this round and not yet retired.
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by a helper body, re-raised by the
    /// caller once the round has quiesced.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Round {
    /// Retires `k` helper jobs, waking the caller when none remain.
    fn retire(&self, k: usize) {
        let mut pending = lock(&self.pending);
        *pending -= k;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// One queued helper job: run the round body, record any panic, retire.
struct Job {
    task: TaskRef,
    round: Arc<Round>,
}

impl Job {
    fn run(self) {
        if let Err(payload) = self.task.run() {
            lock(&self.round.panic).get_or_insert(payload);
        }
        self.round.retire(1);
    }
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signaled when jobs arrive (or at shutdown).
    available: Condvar,
}

/// A pool of parked helper threads executing [`Pool::map_with`] rounds.
///
/// The process-wide instance behind [`parallel_map`] is built once and
/// lives forever; tests that must observe scheduling in isolation
/// construct their own (helpers join on drop). See the module docs for
/// the round protocol and its no-deadlock argument.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool with `helpers` parked worker threads (the caller of
    /// each map is always an additional worker, so `helpers = 0` still
    /// completes every round serially).
    pub fn new(helpers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        });
        let handles = (0..helpers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                SPAWNED.fetch_add(1, Ordering::SeqCst);
                thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of helper threads this pool parked at construction.
    pub fn helpers(&self) -> usize {
        self.handles.len()
    }

    fn worker_loop(shared: &Shared) {
        loop {
            let job = {
                let mut q = lock(&shared.queue);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = shared.available.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.run();
        }
    }

    /// Order-preserving parallel map on this pool — the semantics of
    /// [`parallel_map_with`], scheduled on this pool's helpers.
    ///
    /// The unit of scheduling is one item: a shared atomic cursor hands
    /// the next index to whichever participant frees up first, so skewed
    /// workloads (MinkNet traces cost orders of magnitude more than
    /// PointNet) balance automatically. Each participant accumulates its
    /// `(index, value)` pairs locally and merges them into the result
    /// once, so there is no per-item channel traffic.
    pub fn map_with<T, U, F>(&self, workers: usize, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        if items.len() <= 1 || workers <= 1 {
            return items.iter().map(&f).collect();
        }
        let workers = workers.min(items.len());
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..items.len()).map(|_| None).collect());
        let body = || {
            let mut local: Vec<(usize, U)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                local.push((i, f(&items[i])));
            }
            if !local.is_empty() {
                let mut sink = lock(&slots);
                for (i, v) in local {
                    sink[i] = Some(v);
                }
            }
        };
        let helpers = workers - 1;
        let round = Arc::new(Round {
            pending: Mutex::new(helpers),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let task = TaskRef::erase(&body);
        {
            let mut q = lock(&self.shared.queue);
            for _ in 0..helpers {
                q.jobs.push_back(Job { task, round: Arc::clone(&round) });
            }
        }
        self.shared.available.notify_all();
        // The caller is the round's first participant.
        let mine = catch_unwind(AssertUnwindSafe(&body));
        // Retire the helper jobs no pool worker claimed: the cursor is
        // exhausted, so running one would be a no-op. This is what makes
        // nested rounds deadlock-free — a caller never waits on work
        // only a busy pool could perform.
        {
            let mut q = lock(&self.shared.queue);
            let before = q.jobs.len();
            q.jobs.retain(|j| !Arc::ptr_eq(&j.round, &round));
            let unclaimed = before - q.jobs.len();
            drop(q);
            if unclaimed > 0 {
                round.retire(unclaimed);
            }
        }
        // Block until every claimed job has finished running the body —
        // only then may the borrowed closure (and this frame) go away.
        let mut pending = lock(&round.pending);
        while *pending > 0 {
            pending = round.done.wait(pending).unwrap_or_else(PoisonError::into_inner);
        }
        drop(pending);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = lock(&round.panic).take() {
            resume_unwind(payload);
        }
        let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        slots.into_iter().map(|v| v.expect("every index produced")).collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide pool: [`worker_threads`]` − 1` helpers, built on
/// first use, never torn down.
fn global_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(worker_threads().saturating_sub(1)))
}

/// Builds the process-wide pool now, unless it is built already, so that
/// the first parallel round does not pay for thread start-up.
pub fn start_pool() {
    global_pool();
}

/// Runs `f` over `items` on all available cores (override with
/// `POINTACC_THREADS`), preserving input order.
///
/// Scheduled on the process-wide persistent pool — no threads are
/// spawned per call. See the module docs for the round protocol.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(worker_threads(), items, f)
}

/// [`parallel_map`] with an explicit worker count (an upper bound on
/// concurrency; results are identical for every count).
pub fn parallel_map_with<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    global_pool().map_with(workers, items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_across_workers() {
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
    fn steady_state_maps_spawn_zero_threads() {
        // Warm the global pool (first call may build it).
        let warm: Vec<u64> = (0..64).collect();
        let _ = parallel_map_with(8, &warm, |&x| x);
        let spawned = threads_spawned();
        for workers in [1usize, 2, 3, 8, worker_threads()] {
            for round in 0..25u64 {
                let items: Vec<u64> = (0..97).collect();
                let out = parallel_map_with(workers, &items, |&x| x * 7 + round);
                let want: Vec<u64> = items.iter().map(|&x| x * 7 + round).collect();
                assert_eq!(out, want, "workers={workers} round={round}");
            }
        }
        assert_eq!(threads_spawned(), spawned, "steady-state parallel_map must not spawn threads");
    }

    #[test]
    fn injectable_pool_is_order_identical_for_every_worker_count() {
        let pool = Pool::new(3);
        assert_eq!(pool.helpers(), 3);
        let items: Vec<u64> = (0..513).collect();
        let want: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
        for workers in [1usize, 2, 3, 8, worker_threads().max(2)] {
            assert_eq!(
                pool.map_with(workers, &items, |&x| x.wrapping_mul(31) ^ 7),
                want,
                "workers={workers}"
            );
        }
        // Drop joins the helpers cleanly.
    }

    #[test]
    fn nested_rounds_complete_without_deadlock() {
        let outer: Vec<u64> = (0..8).collect();
        let out = parallel_map_with(4, &outer, |&x| {
            let inner: Vec<u64> = (0..32).collect();
            parallel_map_with(4, &inner, |&y| y * x).iter().sum::<u64>()
        });
        let want: Vec<u64> = (0..8).map(|x| (0..32).map(|y| y * x).sum()).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn worker_panics_propagate_and_leave_the_pool_usable() {
        let items: Vec<u64> = (0..64).collect();
        let poisoned = std::panic::catch_unwind(|| {
            parallel_map_with(4, &items, |&x| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(poisoned.is_err(), "the item panic must reach the caller");
        // The pool survives: later rounds still run and stay ordered.
        let out = parallel_map_with(4, &items, |&x| x + 1);
        assert_eq!(out, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
    }
}
