//! Process-wide trace cache: compile each `(benchmark, seed, scale)`
//! trace once, share it across every harness grid and figure binary.
//!
//! Trace compilation (the functional executor replaying the network on
//! the synthetic dataset) dominates harness cost for the MinkowskiNet
//! benchmarks, and every figure binary re-derives the same traces. The
//! [`TraceCache`] amortizes that: lookups are keyed by
//! [`TraceKey`]`(network, seed, scale)`, concurrent requests for the
//! same key block on one in-flight build (each trace compiles exactly
//! once), and hits return a shared [`Arc`] without copying layer data.
//!
//! # Tiers
//!
//! The in-memory tier is unbounded by default; [`TraceCache::bounded`]
//! caps it, evicting the least-recently-used *completed* outcome when a
//! new key would exceed the capacity (in-flight builds are never
//! evicted — if every slot is mid-build the cache overflows temporarily
//! rather than tearing a build out from under its waiters).
//!
//! [`TraceCache::with_artifact_dir`] adds an opt-in disk tier backed by
//! [`pointacc_nn::artifact`]: a miss first tries to load a persisted
//! artifact (a *disk hit* — no compile), and every fresh compile is
//! persisted back with an atomic write-rename, so concurrent processes
//! can share one artifact directory safely. A corrupt or wrong-version
//! artifact is simply recompiled (and rewritten); it never fails the
//! lookup.
//!
//! # Failure caching
//!
//! [`TraceCache::try_get_or_build`] caches build failures (negative
//! caching) so a key that cannot compile keeps failing cheaply. What
//! happens on the *next* request for a failed key is policy-driven
//! ([`FailurePolicy`]): [`FailurePolicy::Retain`] (the default) keeps
//! returning the cached error — right for deterministic failures like
//! an unknown dataset — while [`FailurePolicy::RetryOnRequest`] drops
//! the failed slot and rebuilds, so a *transient* fault does not make
//! the key permanently unservable. [`TraceCache::invalidate`] gives
//! callers per-key recovery under either policy.
//!
//! [`global`] is the cache the [`Grid`](crate::harness::Grid) uses; it
//! picks up its disk tier from `POINTACC_ARTIFACT_DIR` (see
//! [`crate::artifact_dir`]). Independent subsystems can own a private
//! [`TraceCache`] when they need isolated hit-rate accounting —
//! [`serve`](crate::serve::serve) does exactly that, so its reported
//! hit rate reflects one request stream and is **not** warmed by
//! earlier grid runs.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use crate::sync::lock;
use crate::TraceBuildError;
use pointacc_nn::{artifact, verify_trace, NetworkTrace, TraceKey, VerifyError};

/// What a [`TraceCache`] does with a key whose cached outcome is a
/// [`TraceBuildError`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Keep returning the cached error without re-running the builder.
    /// Right for deterministic failures (an unknown dataset will not
    /// start existing), and what exact hit/miss accounting expects.
    #[default]
    Retain,
    /// Drop the failed slot when the key is requested again and rebuild
    /// from scratch (counted as a miss). Right for serving layers where
    /// a build failure may be transient and availability beats
    /// amortization.
    RetryOnRequest,
}

/// Counters of one cache (a consistent snapshot).
///
/// "Hit" means the memory tier skipped a build — including lookups
/// served from a *negatively cached* failure
/// ([`TraceCache::try_get_or_build`]). A miss is settled by either a
/// disk-tier load (`disk_hits`) or a builder run (`compiles`), so
/// `misses == disk_hits + compiles` whenever no builder panicked
/// mid-build. The counters measure build amortization, not serving
/// health; a failure-heavy request stream shows a high hit rate while
/// completing nothing, so read them alongside
/// [`ServeReport::failed`](crate::serve::ServeReport::failed).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-cached outcome (compiled trace
    /// **or** cached build failure).
    pub hits: u64,
    /// Lookups that had to settle a fresh slot — by loading an
    /// artifact or running (or waiting on a concurrent run of) the
    /// builder.
    pub misses: u64,
    /// Misses settled by loading a persisted artifact instead of
    /// compiling (always 0 without [`TraceCache::with_artifact_dir`]).
    pub disk_hits: u64,
    /// Builder runs, successful or failed. Zero across a whole run
    /// means every trace came from memory or disk — a warm start.
    pub compiles: u64,
    /// Traces refused by the static verifier
    /// ([`pointacc_nn::verify_trace`]) at a cache insertion boundary:
    /// disk-tier artifacts whose integrity metadata checked out but
    /// whose trace was semantically malformed (recompiled, never
    /// served), plus builder outputs rejected before caching. Zero in
    /// any healthy run.
    pub verify_rejects: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the memory tier; 0 when nothing
    /// was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One-line accounting summary, stable enough to grep in CI
    /// (`compiles=0 verify_rejects=0` is the warm-start criterion).
    pub fn accounting(&self) -> String {
        format!(
            "hits={} misses={} disk_hits={} compiles={} verify_rejects={}",
            self.hits, self.misses, self.disk_hits, self.compiles, self.verify_rejects
        )
    }
}

/// One cache slot: a once-cell so concurrent misses on the same key
/// serialize behind a single build. Failed builds are cached too
/// (negative caching); see [`FailurePolicy`] for what happens when a
/// failed key is requested again.
type Slot = Arc<OnceLock<Result<Arc<NetworkTrace>, TraceBuildError>>>;

/// A slot plus its recency stamp for LRU eviction.
struct SlotEntry {
    slot: Slot,
    last_used: u64,
}

/// The memory tier: slots plus a logical clock advanced per lookup.
#[derive(Default)]
struct SlotMap {
    map: HashMap<TraceKey, SlotEntry>,
    tick: u64,
}

impl SlotMap {
    /// Evicts least-recently-used *completed* entries until the map
    /// fits `capacity`. In-flight builds are never evicted; if only
    /// in-flight entries remain the map overflows temporarily.
    fn evict_to(&mut self, capacity: usize) {
        while self.map.len() > capacity {
            let victim = self
                .map
                .iter()
                .filter(|(_, e)| e.slot.get().is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.map.remove(&k);
                }
                None => break,
            }
        }
    }
}

/// A concurrent, compile-once cache of network traces keyed by
/// [`TraceKey`], with optional bounded LRU eviction and an optional
/// persistent artifact tier (see the module docs).
#[derive(Default)]
pub struct TraceCache {
    slots: Mutex<SlotMap>,
    stats: Mutex<CacheStats>,
    compiles: Mutex<HashMap<TraceKey, u64>>,
    capacity: Option<usize>,
    artifact_dir: Option<PathBuf>,
    failure_policy: FailurePolicy,
}

impl TraceCache {
    /// An empty cache: unbounded memory tier, no disk tier, failures
    /// retained ([`FailurePolicy::Retain`]).
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Caps the memory tier at `capacity` cached outcomes, evicting the
    /// least-recently-used completed entry when a new key would exceed
    /// it. An evicted trace reloads from the artifact tier (when
    /// configured) instead of recompiling.
    pub fn bounded(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Adds the persistent artifact tier rooted at `dir` (created on
    /// first save): misses try [`artifact::load`] before compiling, and
    /// fresh compiles are persisted via [`artifact::save`]'s atomic
    /// write-rename, so the directory can be shared across processes.
    pub fn with_artifact_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifact_dir = Some(dir.into());
        self
    }

    /// Sets what happens when a negatively cached key is requested
    /// again (default [`FailurePolicy::Retain`]).
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Returns the trace of `key`, building it with `build` on the first
    /// request. Concurrent requests for the same key run `build` exactly
    /// once; the rest block until it finishes and share the result.
    ///
    /// # Panics
    ///
    /// Panics if the key is negatively cached under
    /// [`FailurePolicy::Retain`] — an earlier
    /// [`TraceCache::try_get_or_build`] for the same key failed.
    /// Fallible callers (the serving layer) should use
    /// `try_get_or_build`.
    pub fn get_or_build(
        &self,
        key: &TraceKey,
        build: impl FnOnce() -> NetworkTrace,
    ) -> Arc<NetworkTrace> {
        // lint: allow(panic): documented panicking facade over try_get_or_build.
        self.try_get_or_build(key, || Ok(build())).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TraceCache::get_or_build`] with a fallible builder: the first
    /// request for `key` runs `build` exactly once and the outcome —
    /// success **or** [`TraceBuildError`] — is cached. A cached failure
    /// is either returned or retried per the cache's [`FailurePolicy`].
    pub fn try_get_or_build(
        &self,
        key: &TraceKey,
        build: impl FnOnce() -> Result<NetworkTrace, TraceBuildError>,
    ) -> Result<Arc<NetworkTrace>, TraceBuildError> {
        let (slot, fresh_slot) = {
            let mut slots = lock(&self.slots);
            slots.tick += 1;
            let tick = slots.tick;
            let retry_failures = self.failure_policy == FailurePolicy::RetryOnRequest;
            match slots.map.get_mut(key) {
                Some(entry) if retry_failures && matches!(entry.slot.get(), Some(Err(_))) => {
                    // Transient-fault recovery: drop the failed outcome
                    // and rebuild from scratch (a fresh miss).
                    let slot: Slot = Arc::new(OnceLock::new());
                    entry.slot = slot.clone();
                    entry.last_used = tick;
                    (slot, true)
                }
                Some(entry) => {
                    entry.last_used = tick;
                    (entry.slot.clone(), false)
                }
                None => {
                    let slot: Slot = Arc::new(OnceLock::new());
                    slots
                        .map
                        .insert(key.clone(), SlotEntry { slot: slot.clone(), last_used: tick });
                    if let Some(capacity) = self.capacity {
                        slots.evict_to(capacity);
                    }
                    (slot, true)
                }
            }
        };
        // A slot that exists but is still initializing counts as a miss
        // for the thread that inserted it and a hit for everyone who
        // found it present — "present" means the compile is already paid
        // for, which is what hit rate should measure.
        {
            let mut stats = lock(&self.stats);
            if fresh_slot {
                stats.misses += 1;
            } else {
                stats.hits += 1;
            }
        }
        slot.get_or_init(|| self.settle_miss(key, build)).clone()
    }

    /// Settles a fresh slot: disk tier first (a validated artifact is a
    /// disk hit, no compile), then the builder, persisting its success
    /// back to the artifact tier. Runs outside the slots lock, so slow
    /// builds never block unrelated lookups.
    fn settle_miss(
        &self,
        key: &TraceKey,
        build: impl FnOnce() -> Result<NetworkTrace, TraceBuildError>,
    ) -> Result<Arc<NetworkTrace>, TraceBuildError> {
        if let Some(dir) = &self.artifact_dir {
            match artifact::load(dir, key) {
                // `load` already ran the static verifier, so a loaded
                // trace enters the memory tier pre-validated.
                Ok(Some(trace)) => {
                    lock(&self.stats).disk_hits += 1;
                    return Ok(Arc::new(trace));
                }
                // The dangerous case: the checksum checked out but the
                // trace is semantically malformed. Count it, then
                // recompile (the save below atomically replaces the
                // rejected file).
                Err(artifact::ArtifactError::Rejected(_)) => {
                    lock(&self.stats).verify_rejects += 1;
                }
                // A missing, corrupt, truncated, or wrong-version
                // artifact is not a lookup failure — fall through and
                // recompile.
                _ => {}
            }
        }
        let result = build().map(Arc::new).and_then(|trace| {
            // The builder's output crosses the same trust boundary as a
            // disk artifact: a semantically malformed trace is refused
            // (and negatively cached) instead of being handed to
            // engines that would index feature rows with it.
            match verify_trace(key, &trace) {
                Ok(_) => Ok(trace),
                Err(e) => {
                    lock(&self.stats).verify_rejects += 1;
                    Err(TraceBuildError::Invalid(e))
                }
            }
        });
        lock(&self.stats).compiles += 1;
        *lock(&self.compiles).entry(key.clone()).or_insert(0) += 1;
        if let (Some(dir), Ok(trace)) = (&self.artifact_dir, &result) {
            // Persistence is best-effort: a full disk must not fail a
            // lookup that already holds a perfectly good trace.
            let _ = artifact::save(dir, key, trace);
        }
        result
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        *lock(&self.stats)
    }

    /// Zeroes the counters and per-key compile counts. Figure binaries
    /// sweeping seeds or scales call this at sweep boundaries so each
    /// epoch's reported hit rate reflects that epoch alone instead of
    /// mixing history.
    pub fn reset_stats(&self) {
        *lock(&self.stats) = CacheStats::default();
        lock(&self.compiles).clear();
    }

    /// How many times `key`'s build ran since the last
    /// [`TraceCache::reset_stats`], successful or failed (≤ 1 unless
    /// the key was cleared, evicted, invalidated, or retried under
    /// [`FailurePolicy::RetryOnRequest`]).
    pub fn compile_count(&self, key: &TraceKey) -> u64 {
        lock(&self.compiles).get(key).copied().unwrap_or(0)
    }

    /// Drops the cached outcome of one `key` (success or failure); the
    /// next request rebuilds it. An in-flight build is detached, not
    /// cancelled: its waiters still receive its result, but the map
    /// forgets it. Per-key recovery for callers that know a specific
    /// cached failure was transient.
    pub fn invalidate(&self, key: &TraceKey) {
        lock(&self.slots).map.remove(key);
    }

    /// Evicts every cached trace, releasing the memory (traces still
    /// borrowed by live grids stay alive through their `Arc`s until
    /// those drop). Counters and per-key compile counts are kept:
    /// `clear` trades memory for recompilation, it does not rewrite
    /// history — after a clear, a re-requested key compiles again and
    /// its [`TraceCache::compile_count`] exceeds 1. Pair with
    /// [`TraceCache::reset_stats`] to also start a fresh accounting
    /// epoch.
    pub fn clear(&self) {
        lock(&self.slots).map.clear();
    }

    /// Statically re-verifies every *successfully* cached trace
    /// (negatively cached failures and in-flight builds are skipped),
    /// returning how many were checked or the first failing key with
    /// its [`VerifyError`]. Every insertion path already verifies, so a
    /// failure here means the cached data was mutated after the fact —
    /// this is the audit behind the figure binaries' `--verify` flag.
    pub fn verify_all(&self) -> Result<usize, (TraceKey, VerifyError)> {
        let cached: Vec<(TraceKey, Arc<NetworkTrace>)> = {
            let slots = lock(&self.slots);
            slots
                .map
                .iter()
                .filter_map(|(key, entry)| {
                    let trace = entry.slot.get()?.as_ref().ok()?;
                    Some((key.clone(), trace.clone()))
                })
                .collect()
        };
        let checked = cached.len();
        for (key, trace) in cached {
            verify_trace(&key, &trace).map_err(|e| (key, e))?;
        }
        Ok(checked)
    }

    /// Number of cached build outcomes (compiled traces plus negatively
    /// cached failures).
    pub fn len(&self) -> usize {
        lock(&self.slots).map.len()
    }

    /// Whether the cache holds no build outcomes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide cache shared by [`Grid`](crate::harness::Grid) runs
/// and figure binaries. Gains the persistent artifact tier when
/// `POINTACC_ARTIFACT_DIR` is set (read once; see
/// [`crate::artifact_dir`]).
pub fn global() -> &'static TraceCache {
    static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
    GLOBAL.get_or_init(|| match crate::artifact_dir() {
        Some(dir) => TraceCache::new().with_artifact_dir(dir),
        None => TraceCache::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_trace(name: &str) -> NetworkTrace {
        NetworkTrace { network: name.into(), input_desc: "test".into(), layers: vec![] }
    }

    fn temp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pointacc-cache-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn second_lookup_hits_without_rebuilding() {
        let cache = TraceCache::new();
        let key = TraceKey::new("net", 1, 0.5);
        let builds = AtomicU64::new(0);
        let a = cache.get_or_build(&key, || {
            builds.fetch_add(1, Ordering::SeqCst);
            tiny_trace("net")
        });
        let b = cache.get_or_build(&key, || {
            builds.fetch_add(1, Ordering::SeqCst);
            tiny_trace("other")
        });
        assert!(Arc::ptr_eq(&a, &b), "hit must share the compiled trace");
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(cache.compile_count(&key), 1);
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 1, disk_hits: 0, compiles: 1, verify_rejects: 0 }
        );
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = TraceCache::new();
        let a = cache.get_or_build(&TraceKey::new("net", 1, 0.5), || tiny_trace("a"));
        let b = cache.get_or_build(&TraceKey::new("net", 2, 0.5), || tiny_trace("b"));
        let c = cache.get_or_build(&TraceKey::new("net", 1, 0.25), || tiny_trace("c"));
        assert_eq!((a.network.as_str(), b.network.as_str(), c.network.as_str()), ("a", "b", "c"));
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 3, disk_hits: 0, compiles: 3, verify_rejects: 0 }
        );
    }

    #[test]
    fn concurrent_misses_compile_exactly_once() {
        let cache = TraceCache::new();
        let key = TraceKey::new("contended", 7, 1.0);
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_build(&key, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so laggards really do
                        // observe an in-flight build.
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        tiny_trace("contended")
                    })
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one compile under contention");
        assert_eq!(cache.compile_count(&key), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.compiles, 1);
    }

    #[test]
    fn clear_releases_entries_but_keeps_history() {
        let cache = TraceCache::new();
        let key = TraceKey::new("net", 1, 0.5);
        let first = cache.get_or_build(&key, || tiny_trace("net"));
        cache.clear();
        assert!(cache.is_empty());
        // The evicted trace stays alive through its Arc.
        assert_eq!(first.network, "net");
        // A re-request compiles again — visible in the compile count.
        let second = cache.get_or_build(&key, || tiny_trace("net"));
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(cache.compile_count(&key), 2);
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 2, disk_hits: 0, compiles: 2, verify_rejects: 0 }
        );
    }

    #[test]
    fn reset_stats_starts_a_fresh_accounting_epoch() {
        let cache = TraceCache::new();
        let key = TraceKey::new("net", 1, 0.5);
        cache.get_or_build(&key, || tiny_trace("net"));
        cache.get_or_build(&key, || tiny_trace("net"));
        assert_eq!(cache.stats().hits, 1);
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.compile_count(&key), 0);
        // The cached trace itself survives: the next lookup is a pure
        // hit in the new epoch.
        cache.get_or_build(&key, || tiny_trace("net"));
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 0, disk_hits: 0, compiles: 0, verify_rejects: 0 }
        );
    }

    #[test]
    fn failed_builds_are_negatively_cached() {
        use crate::UnknownDataset;
        let cache = TraceCache::new();
        let key = TraceKey::new("broken", 1, 0.5);
        let builds = AtomicU64::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            Err(UnknownDataset { name: "NuScenes".into() }.into())
        };
        let first = cache.try_get_or_build(&key, build).unwrap_err();
        let second = cache.try_get_or_build(&key, build).unwrap_err();
        assert_eq!(first, second, "both lookups return the cached error");
        assert_eq!(builds.load(Ordering::SeqCst), 1, "failed build runs once under Retain");
        assert_eq!(cache.compile_count(&key), 1);
        // A different key still compiles normally.
        let ok = cache.try_get_or_build(&TraceKey::new("fine", 1, 0.5), || Ok(tiny_trace("fine")));
        assert_eq!(ok.unwrap().network, "fine");
    }

    #[test]
    fn retry_policy_recovers_from_a_transient_failure() {
        use crate::UnknownDataset;
        let cache = TraceCache::new().with_failure_policy(FailurePolicy::RetryOnRequest);
        let key = TraceKey::new("flaky", 1, 0.5);
        let builds = AtomicU64::new(0);
        let build = || {
            if builds.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(UnknownDataset { name: "transient".into() }.into())
            } else {
                Ok(tiny_trace("flaky"))
            }
        };
        assert!(cache.try_get_or_build(&key, build).is_err());
        // The re-request drops the failed slot and rebuilds.
        let recovered = cache.try_get_or_build(&key, build).unwrap();
        assert_eq!(recovered.network, "flaky");
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiles), (0, 2, 2));
        // The recovered success is now cached like any other.
        cache.try_get_or_build(&key, build).unwrap();
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn invalidate_drops_one_key_only() {
        use crate::UnknownDataset;
        let cache = TraceCache::new();
        let bad = TraceKey::new("bad", 1, 0.5);
        let good = TraceKey::new("good", 1, 0.5);
        cache
            .try_get_or_build(&bad, || Err(UnknownDataset { name: "blip".into() }.into()))
            .unwrap_err();
        cache.get_or_build(&good, || tiny_trace("good"));
        cache.invalidate(&bad);
        // The invalidated failure rebuilds even under Retain…
        let ok = cache.try_get_or_build(&bad, || Ok(tiny_trace("bad"))).unwrap();
        assert_eq!(ok.network, "bad");
        // …while the untouched key is still a hit.
        let builds = AtomicU64::new(0);
        cache.get_or_build(&good, || {
            builds.fetch_add(1, Ordering::SeqCst);
            tiny_trace("good")
        });
        assert_eq!(builds.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used_completed_entry() {
        let cache = TraceCache::new().bounded(2);
        let k1 = TraceKey::new("net", 1, 0.5);
        let k2 = TraceKey::new("net", 2, 0.5);
        let k3 = TraceKey::new("net", 3, 0.5);
        cache.get_or_build(&k1, || tiny_trace("1"));
        cache.get_or_build(&k2, || tiny_trace("2"));
        // Touch k1 so k2 is the LRU entry when k3 overflows the cache.
        cache.get_or_build(&k1, || tiny_trace("1"));
        cache.get_or_build(&k3, || tiny_trace("3"));
        assert_eq!(cache.len(), 2);
        let builds = AtomicU64::new(0);
        cache.get_or_build(&k1, || {
            builds.fetch_add(1, Ordering::SeqCst);
            tiny_trace("1")
        });
        assert_eq!(builds.load(Ordering::SeqCst), 0, "k1 survived the eviction");
        cache.get_or_build(&k2, || {
            builds.fetch_add(1, Ordering::SeqCst);
            tiny_trace("2")
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "k2 was evicted and recompiled");
        assert_eq!(cache.compile_count(&k2), 2);
    }

    #[test]
    fn eviction_never_removes_in_flight_builds() {
        use std::sync::mpsc;
        let cache = TraceCache::new().bounded(1);
        let slow = TraceKey::new("slow", 1, 0.5);
        let fast = TraceKey::new("fast", 1, 0.5);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let (cache, slow) = (&cache, &slow);
            scope.spawn(move || {
                cache.get_or_build(slow, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    tiny_trace("slow")
                });
            });
            started_rx.recv().unwrap();
            // `fast` overflows the capacity-1 cache while `slow` is
            // mid-build; the only eviction candidate is `fast` itself
            // once complete — `slow` must never be torn out.
            cache.get_or_build(&fast, || tiny_trace("fast"));
            release_tx.send(()).unwrap();
        });
        let builds = AtomicU64::new(0);
        cache.get_or_build(&slow, || {
            builds.fetch_add(1, Ordering::SeqCst);
            tiny_trace("slow")
        });
        assert_eq!(builds.load(Ordering::SeqCst), 0, "in-flight build was preserved");
    }

    #[test]
    fn artifact_dir_warm_starts_a_second_cache() {
        let dir = temp_dir("warm-start");
        let _ = std::fs::remove_dir_all(&dir);
        let key = TraceKey::new("net", 1, 0.5);

        let cold = TraceCache::new().with_artifact_dir(&dir);
        let compiled = cold.get_or_build(&key, || tiny_trace("net"));
        assert_eq!(
            cold.stats(),
            CacheStats { hits: 0, misses: 1, disk_hits: 0, compiles: 1, verify_rejects: 0 }
        );

        // A fresh cache (fresh process, conceptually) loads the
        // artifact instead of compiling: zero builder runs.
        let warm = TraceCache::new().with_artifact_dir(&dir);
        let builds = AtomicU64::new(0);
        let loaded = warm.get_or_build(&key, || {
            builds.fetch_add(1, Ordering::SeqCst);
            tiny_trace("net")
        });
        assert_eq!(builds.load(Ordering::SeqCst), 0, "warm start must not compile");
        assert_eq!(*loaded, *compiled, "loaded trace is structurally identical");
        assert_eq!(loaded.fingerprint(), compiled.fingerprint());
        assert_eq!(
            warm.stats(),
            CacheStats { hits: 0, misses: 1, disk_hits: 1, compiles: 0, verify_rejects: 0 }
        );
        assert_eq!(warm.compile_count(&key), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_recompiled_and_replaced() {
        let dir = temp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let key = TraceKey::new("net", 1, 0.5);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(artifact::file_name(&key)), b"not an artifact").unwrap();

        let cache = TraceCache::new().with_artifact_dir(&dir);
        let trace = cache.get_or_build(&key, || tiny_trace("net"));
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 1, disk_hits: 0, compiles: 1, verify_rejects: 0 },
            "a corrupt artifact is a compile, not a disk hit or a failure"
        );
        // The compile atomically replaced the corrupt file: a fresh
        // cache now disk-hits.
        let fresh = TraceCache::new().with_artifact_dir(&dir);
        let reloaded = fresh.get_or_build(&key, || panic!("must load from disk"));
        assert_eq!(*reloaded, *trace);
        assert_eq!(fresh.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_artifact_is_recompiled_and_rewritten() {
        let dir = temp_dir("v1-upgrade");
        let _ = std::fs::remove_dir_all(&dir);
        let key = TraceKey::new("net", 1, 0.5);
        let path = dir.join(artifact::file_name(&key));
        // A well-formed artifact under the retired version-1 header.
        let mut old = artifact::encode(&key, &tiny_trace("net"));
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, old).unwrap();

        let cache = TraceCache::new().with_artifact_dir(&dir);
        let trace = cache.get_or_build(&key, || tiny_trace("net"));
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 1, disk_hits: 0, compiles: 1, verify_rejects: 0 },
            "an old-version artifact is a compile, not a disk hit or a verifier reject"
        );
        // The compile atomically rewrote the file at the current version,
        // so a fresh cache now disk-hits.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[8..12], artifact::FORMAT_VERSION.to_le_bytes());
        assert_eq!(bytes, artifact::encode(&key, &trace));
        let fresh = TraceCache::new().with_artifact_dir(&dir);
        fresh.get_or_build(&key, || panic!("must load from disk"));
        assert_eq!(fresh.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_entries_reload_from_the_artifact_tier() {
        let dir = temp_dir("evict-reload");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::new().bounded(1).with_artifact_dir(&dir);
        let k1 = TraceKey::new("net", 1, 0.5);
        let k2 = TraceKey::new("net", 2, 0.5);
        cache.get_or_build(&k1, || tiny_trace("1"));
        cache.get_or_build(&k2, || tiny_trace("2")); // evicts k1
        assert_eq!(cache.len(), 1);
        // The evicted key comes back from disk, not the builder.
        let back = cache.get_or_build(&k1, || panic!("must reload from disk"));
        assert_eq!(back.network, "1");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.disk_hits, stats.compiles), (3, 1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicked_build_does_not_take_the_cache_down() {
        let cache = TraceCache::new();
        let key = TraceKey::new("panicky", 1, 0.5);
        let panicked = std::thread::scope(|scope| {
            scope.spawn(|| cache.get_or_build(&key, || panic!("builder exploded"))).join().is_err()
        });
        assert!(panicked, "the builder's panic reaches its own caller");
        // The cache survives: same key rebuilds, other keys work, and
        // stats are still readable.
        let ok = cache.get_or_build(&key, || tiny_trace("recovered"));
        assert_eq!(ok.network, "recovered");
        let other = cache.get_or_build(&TraceKey::new("other", 1, 0.5), || tiny_trace("other"));
        assert_eq!(other.network, "other");
        assert!(cache.stats().compiles >= 1);
    }

    #[test]
    fn poisoned_internal_locks_recover() {
        let cache = TraceCache::new();
        cache.get_or_build(&TraceKey::new("pre", 1, 0.5), || tiny_trace("pre"));
        // Poison every internal mutex by panicking while holding it.
        for _ in 0..1 {
            let _ = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _slots = lock(&cache.slots);
                        panic!("poison slots");
                    })
                    .join()
            });
            let _ = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _stats = lock(&cache.stats);
                        panic!("poison stats");
                    })
                    .join()
            });
        }
        // Lookups and accounting still work on the recovered state.
        let trace = cache.get_or_build(&TraceKey::new("post", 1, 0.5), || tiny_trace("post"));
        assert_eq!(trace.network, "post");
        assert!(cache.stats().misses >= 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = TraceCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert_eq!(cache.compile_count(&TraceKey::new("none", 0, 1.0)), 0);
        assert_eq!(
            cache.stats().accounting(),
            "hits=0 misses=0 disk_hits=0 compiles=0 verify_rejects=0"
        );
    }

    /// A structurally malformed trace: dense layers are point-wise, so
    /// `n_in != n_out` fails [`verify_trace`] while still encoding (and
    /// checksumming) cleanly through the artifact codec.
    fn invalid_trace(name: &str) -> NetworkTrace {
        use pointacc_nn::{Aggregation, ComputeKind, LayerTrace};
        NetworkTrace {
            network: name.into(),
            input_desc: "test".into(),
            layers: vec![LayerTrace {
                name: "dense".into(),
                compute: ComputeKind::Dense,
                n_in: 4,
                n_out: 8,
                in_ch: 3,
                out_ch: 3,
                maps: None,
                mapping: vec![],
                aggregation: Aggregation::None,
                pool_group: None,
                fusable: true,
            }],
        }
    }

    #[test]
    fn builder_output_failing_verification_is_rejected_and_counted() {
        let cache = TraceCache::new();
        let key = TraceKey::new("bogus", 1, 0.5);
        let err = cache.try_get_or_build(&key, || Ok(invalid_trace("bogus"))).unwrap_err();
        assert!(matches!(err, TraceBuildError::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("failed static verification"), "{err}");
        let stats = cache.stats();
        assert_eq!((stats.compiles, stats.verify_rejects), (1, 1));
        // The rejection is negatively cached like any build failure: a
        // re-request under Retain returns the error without rebuilding.
        let again = cache.try_get_or_build(&key, || panic!("must not rebuild")).unwrap_err();
        assert_eq!(err, again);
        assert_eq!(cache.stats().verify_rejects, 1);
    }

    #[test]
    fn verify_rejected_artifact_recompiles_and_is_replaced() {
        let dir = temp_dir("verify-reject");
        let _ = std::fs::remove_dir_all(&dir);
        let key = TraceKey::new("net", 1, 0.5);
        // An honestly encoded artifact — its checksum is valid, so only
        // the semantic verifier can refuse it.
        artifact::save(&dir, &key, &invalid_trace("net")).unwrap();

        let cache = TraceCache::new().with_artifact_dir(&dir);
        let trace = cache.get_or_build(&key, || tiny_trace("net"));
        assert!(trace.layers.is_empty(), "the recompiled trace is served, not the artifact");
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.compiles, stats.verify_rejects), (0, 1, 1));
        // The compile atomically replaced the rejected artifact: a
        // fresh cache disk-hits with no rejection.
        let fresh = TraceCache::new().with_artifact_dir(&dir);
        let reloaded = fresh.get_or_build(&key, || panic!("must load from disk"));
        assert_eq!(*reloaded, *trace);
        assert_eq!((fresh.stats().disk_hits, fresh.stats().verify_rejects), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_all_audits_cached_successes_and_skips_failures() {
        use crate::UnknownDataset;
        let cache = TraceCache::new();
        cache.get_or_build(&TraceKey::new("a", 1, 0.5), || tiny_trace("a"));
        cache.get_or_build(&TraceKey::new("b", 1, 0.5), || tiny_trace("b"));
        let _ = cache.try_get_or_build(&TraceKey::new("bad", 1, 0.5), || {
            Err(UnknownDataset { name: "nope".into() }.into())
        });
        assert_eq!(cache.verify_all(), Ok(2), "two successes audited, the failure skipped");
        assert_eq!(TraceCache::new().verify_all(), Ok(0));
    }
}
