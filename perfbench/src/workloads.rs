//! Set-up, timed phases and per-request output checks of the four
//! workloads.
//!
//! The untraced and traced phases make the same calls: the traced phase
//! only wraps each call into a layer in a span, and after each request
//! it calls the layers that a composite call hides (artifact decode,
//! cache-free replay, fusion planning, MPU and MXU costing) one at a time
//! under a separate `probe` span, outside the request's own span.

use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pointacc::mmu::plan_fusion;
use pointacc::{
    Accelerator, CachePolicy, Engine, EngineReport, PointAccConfig, RunOptions, RunReport,
};
use pointacc_bench::cache::{CacheStats, FailurePolicy, TraceCache};
use pointacc_bench::frontend::{AdmissionPolicy, Clock, Frontend, FrontendOptions, WallClock};
use pointacc_bench::serve::Request;
use pointacc_bench::sync::lock;
use pointacc_bench::{dataset_by_name, modeled_points, TraceBuildError};
use pointacc_geom::par::threads_spawned;
use pointacc_nn::zoo::{self, Benchmark};
use pointacc_nn::{artifact, verify_trace, ExecMode, Executor, NetworkTrace, TraceKey};

use crate::reference::{line, Modeled, Reference, EMBEDDED};
use crate::spans::{Tracer, SETUP_REQUEST};
use crate::{Config, Workload};

/// Data seeds every key set draws from; the reference table covers
/// each of them for every benchmark, engine and supported scale.
pub const SEED_POOL: [u64; 8] = [42, 43, 44, 45, 46, 47, 48, 49];

/// Engine index of full-size PointAcc in [`Bench::engines`].
const POINTACC: usize = 0;
/// Engine index of PointAcc.Edge.
const EDGE: usize = 1;

/// One request class: a Table 2 benchmark (index into
/// [`zoo::benchmarks`]) on one generated cloud.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key {
    /// Index into [`zoo::benchmarks`].
    pub bench: usize,
    /// Data seed from [`SEED_POOL`].
    pub seed: u64,
}

/// The workload's fixed key set for `seed`, in request order: round
/// robin over the workload's benchmarks, each with its own seed-chosen
/// subset of [`SEED_POOL`].
pub fn key_set(workload: Workload, seed: u64) -> Vec<Key> {
    let all = zoo::benchmarks();
    let benches: Vec<usize> = workload
        .benchmarks()
        .iter()
        .map(|n| all.iter().position(|b| b.notation == *n).expect("Table 2 notation"))
        .collect();
    // A point network's modeled cost depends on its point count, not on
    // the cloud, so on cold_point the seed also picks one network that is
    // requested once more per round; otherwise the seed would not move
    // that workload's modeled numbers at all.
    let extra = (workload == Workload::ColdPoint).then(|| {
        let mut state = seed;
        (splitmix64(&mut state) % benches.len() as u64) as usize
    });
    let picks: Vec<Vec<u64>> = benches
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let k = workload.seeds_per_benchmark(all[b].notation) + usize::from(extra == Some(i));
            pick_seeds(seed, b, k)
        })
        .collect();
    let rounds = picks.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|j| {
            benches
                .iter()
                .zip(&picks)
                .filter_map(move |(&bench, p)| p.get(j).map(|&seed| Key { bench, seed }))
        })
        .collect()
}

/// `k` distinct pool seeds, shuffled by `seed` and the benchmark.
fn pick_seeds(seed: u64, bench: usize, k: usize) -> Vec<u64> {
    let mut state = seed ^ (bench as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut pool = SEED_POOL.to_vec();
    for i in (1..pool.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-request sums over a report's layers.
#[derive(Copy, Clone, Debug, Default)]
pub struct LayerSums {
    /// Mapping-unit cycles.
    pub mpu_cycles: u64,
    /// Matrix-unit cycles.
    pub mxu_cycles: u64,
    /// DRAM transfer cycles.
    pub dram_cycles: u64,
    /// DRAM bytes.
    pub dram_bytes: u64,
    /// Sum of the cached layers' miss rates.
    pub miss_rate_sum: f64,
    /// Number of cached layers.
    pub cached_layers: u64,
}

impl LayerSums {
    fn of(report: &RunReport) -> Self {
        let mut s = LayerSums::default();
        for l in &report.layers {
            s.mpu_cycles += l.mpu_cycles.get();
            s.mxu_cycles += l.mxu_cycles.get();
            s.dram_cycles += l.dram_cycles.get();
            s.dram_bytes += l.dram_bytes;
            if let Some(m) = l.cache_miss_rate {
                s.miss_rate_sum += m;
                s.cached_layers += 1;
            }
        }
        s
    }
}

/// Modeled outputs of one completed request.
#[derive(Copy, Clone, Debug)]
pub struct Served {
    /// Engine that served it.
    pub engine: usize,
    /// End-to-end modeled numbers.
    pub modeled: Modeled,
    /// Per-layer modeled sums.
    pub layers: LayerSums,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests attempted.
    pub requests: usize,
    /// Failed requests (errors, rejects, non-physical reports, check
    /// mismatches).
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Host latency of every completed request by key position, ms.
    pub by_key_ms: Vec<Vec<f64>>,
    /// Wall time of each serving wave, s.
    pub wave_s: Vec<f64>,
    /// Whole rounds over the key set.
    pub rounds: usize,
    /// Modeled outputs of the first round, in key order.
    pub first_round: Vec<Served>,
    /// Traces compiled in the request path, with their mapping ops and
    /// map entries.
    pub compiled: (u64, u64, u64),
    /// Trace-cache counters over the phase.
    pub cache: CacheStats,
    /// Pool threads spawned during the phase.
    pub spawned: usize,
    /// Workload guards: (description, held).
    pub guards: Vec<(String, bool)>,
    /// Per-wave median and p99 queue wait (serving only), ms.
    pub queue_wait_ms: Vec<(f64, f64)>,
    /// Highest modeled busy share of a serving shard's host wall time.
    pub utilization_max: f64,
}

impl Phase {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    fn guard(&mut self, what: String, held: bool) {
        self.guards.push((what, held));
    }

    /// Guards violated in this phase.
    pub fn violated_guards(&self) -> usize {
        self.guards.iter().filter(|(_, ok)| !ok).count()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        disk_hits: after.disk_hits - before.disk_hits,
        compiles: after.compiles - before.compiles,
        verify_rejects: after.verify_rejects - before.verify_rejects,
    }
}

fn add_stats(a: &mut CacheStats, b: CacheStats) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.disk_hits += b.disk_hits;
    a.compiles += b.compiles;
    a.verify_rejects += b.verify_rejects;
}

/// Where warm_voxel writes its artifacts (removed when the run ends).
pub fn artifact_dir(cfg: &Config) -> PathBuf {
    cfg.work_dir.join(format!("artifacts-{}", std::process::id()))
}

/// The reference table for every benchmark, pool seed and engine at
/// each of `scales`, as [`crate::reference`] lines.
pub fn capture_reference(scales: &[f64]) -> Result<String, String> {
    let engines = [PointAccConfig::full(), PointAccConfig::edge()].map(Accelerator::new);
    let mut out =
        String::from("# benchmark\tseed\tscale_ppm\tengine\tlatency_ms\tenergy_pj\tdram_bytes\n");
    for &scale in scales {
        for bench in zoo::benchmarks() {
            for seed in SEED_POOL {
                let tk = TraceKey::new(bench.notation, seed, scale);
                let trace = pointacc_bench::try_benchmark_trace_at(&bench, seed, scale)
                    .map_err(|e| format!("{tk:?}: {e}"))?;
                for accel in &engines {
                    let m = Modeled::of(&accel.run(&trace));
                    let name = &accel.config().name;
                    out.push_str(&line(&tk.network, seed, tk.scale_ppm, name, m));
                    out.push('\n');
                }
            }
        }
    }
    Ok(out)
}

/// The set-up state of one workload.
pub struct Bench {
    cfg: Config,
    benches: Vec<Benchmark>,
    keys: Vec<Key>,
    engines: [Accelerator; 2],
    reference: Reference,
    cache: TraceCache,
    /// Cold-compiled fingerprints by key position (warm_voxel).
    fingerprints: Vec<u64>,
    /// Encoded artifact sizes by key position (warm_voxel).
    pub artifact_bytes: Vec<u64>,
    /// Pre-warmed traces by key position (serve_hot).
    traces: Vec<Arc<NetworkTrace>>,
    artifact_dir: PathBuf,
}

impl Bench {
    /// Builds the workload's inputs. Spans of set-up work (artifact
    /// encode and save) carry [`SETUP_REQUEST`].
    pub fn setup(cfg: &Config, tracer: &Tracer) -> Result<Bench, String> {
        let mut bench = Bench {
            cfg: cfg.clone(),
            benches: zoo::benchmarks(),
            keys: key_set(cfg.workload, cfg.seed),
            engines: [
                Accelerator::new(PointAccConfig::full()),
                Accelerator::new(PointAccConfig::edge()),
            ],
            reference: Reference::parse(EMBEDDED)?,
            cache: TraceCache::new(),
            fingerprints: Vec::new(),
            artifact_bytes: Vec::new(),
            traces: Vec::new(),
            artifact_dir: artifact_dir(cfg),
        };
        match cfg.workload {
            Workload::ColdPoint | Workload::ColdVoxel => bench.setup_cold()?,
            Workload::WarmVoxel => bench.setup_warm(tracer)?,
            Workload::ServeHot => bench.setup_serve()?,
        }
        Ok(bench)
    }

    /// A memory tier of one trace, so a round robin over two or more
    /// keys compiles on every request. One untimed request per
    /// benchmark first lets lazy initialization (the worker pool, code
    /// pages) finish.
    fn setup_cold(&mut self) -> Result<(), String> {
        let quiet = Tracer::new(false);
        let mut seen = Vec::new();
        for key in &self.keys {
            if seen.contains(&key.bench) {
                continue;
            }
            seen.push(key.bench);
            let trace = self.build(key, &quiet, SETUP_REQUEST, None).map_err(|e| e.to_string())?;
            black_box(self.engines[POINTACC].run(&trace));
        }
        self.cache = TraceCache::new().bounded(1);
        Ok(())
    }

    /// Compiles every key, records its fingerprint and writes its
    /// artifact; the timed cache has a one-trace memory tier over that
    /// directory, so every request is a disk hit.
    fn setup_warm(&mut self, tracer: &Tracer) -> Result<(), String> {
        let quiet = Tracer::new(false);
        let (mut fingerprints, mut sizes) = (Vec::new(), Vec::new());
        for key in &self.keys {
            let tk = self.trace_key(key);
            let trace = self.build(key, &quiet, SETUP_REQUEST, None).map_err(|e| e.to_string())?;
            verify_trace(&tk, &trace).map_err(|e| format!("set-up trace failed verify: {e}"))?;
            fingerprints.push(trace.fingerprint());
            let bytes = tracer
                .span("nn.artifact.encode", SETUP_REQUEST, None, |_| artifact::encode(&tk, &trace));
            sizes.push(bytes.len() as u64);
            tracer
                .span("nn.artifact.save", SETUP_REQUEST, None, |_| {
                    artifact::save(&self.artifact_dir, &tk, &trace)
                })
                .map_err(|e| format!("artifact save: {e}"))?;
        }
        self.fingerprints = fingerprints;
        self.artifact_bytes = sizes;
        self.cache = TraceCache::new().bounded(1).with_artifact_dir(&self.artifact_dir);
        Ok(())
    }

    /// Pre-warms an unbounded memory tier with every key.
    fn setup_serve(&mut self) -> Result<(), String> {
        let quiet = Tracer::new(false);
        let cache = TraceCache::new();
        let mut traces = Vec::new();
        for key in &self.keys {
            let trace = cache
                .try_get_or_build(&self.trace_key(key), || {
                    self.build(key, &quiet, SETUP_REQUEST, None)
                })
                .map_err(|e| e.to_string())?;
            traces.push(trace);
        }
        self.cache = cache;
        self.traces = traces;
        Ok(())
    }

    fn trace_key(&self, key: &Key) -> TraceKey {
        TraceKey::new(self.benches[key.bench].notation, key.seed, self.cfg.scale)
    }

    /// The calls of `pointacc_bench::try_benchmark_trace_at`, one layer
    /// at a time: generate the cloud, compile the trace.
    fn build(
        &self,
        key: &Key,
        tracer: &Tracer,
        request: u64,
        parent: Option<u64>,
    ) -> Result<NetworkTrace, TraceBuildError> {
        let bench = &self.benches[key.bench];
        let dataset = dataset_by_name(bench.dataset)?;
        let n = modeled_points(bench, self.cfg.scale);
        let points =
            tracer.span("data.generate", request, parent, |_| dataset.generate(key.seed, n));
        let out = tracer.span("nn.exec.compile", request, parent, |_| {
            Executor::new(ExecMode::TraceOnly, key.seed).try_run(&bench.network, &points)
        })?;
        let mut trace = out.trace;
        trace.network = bench.notation.to_string();
        trace.input_desc = format!("{} ({n} pts)", bench.dataset);
        Ok(trace)
    }

    /// Runs the timed phase for the configured number of seconds, in
    /// whole rounds over the key set.
    pub fn phase(&self, tracer: &Tracer, next_request: &AtomicU64) -> Phase {
        match self.cfg.workload {
            Workload::ServeHot => self.serve_phase(tracer, next_request),
            _ => self.sequential_phase(tracer, next_request),
        }
    }

    fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.cfg.seconds)
    }

    /// cold_point, cold_voxel and warm_voxel: one request at a time,
    /// cache lookup then replay on PointAcc.
    fn sequential_phase(&self, tracer: &Tracer, next_request: &AtomicU64) -> Phase {
        let clock = WallClock::new();
        let mut phase = Phase { by_key_ms: vec![Vec::new(); self.keys.len()], ..Phase::default() };
        let stats_before = self.cache.stats();
        let spawned_before = threads_spawned();
        loop {
            for (pos, key) in self.keys.iter().enumerate() {
                let rid = next_request.fetch_add(1, Ordering::Relaxed) + 1;
                let tk = self.trace_key(key);
                let compiled = Cell::new(None);
                let start = clock.now();
                let outcome = tracer.span("request", rid, None, |root| {
                    let trace = tracer.span("bench.cache.lookup", rid, root, |p| {
                        self.cache.try_get_or_build(&tk, || {
                            let trace = self.build(key, tracer, rid, p)?;
                            compiled.set(Some((trace.total_mapping_ops(), trace.total_maps())));
                            Ok(trace)
                        })
                    })?;
                    let report = tracer
                        .span("core.replay", rid, root, |_| self.engines[POINTACC].run(&trace));
                    Ok::<_, TraceBuildError>((trace, report))
                });
                let host = clock.now().saturating_sub(start);
                phase.requests += 1;
                if let Some((ops, maps)) = compiled.get() {
                    phase.compiled.0 += 1;
                    phase.compiled.1 += ops;
                    phase.compiled.2 += maps;
                }
                match outcome {
                    Err(e) => phase.fail(format!("{tk:?}: {e}")),
                    Ok((trace, report)) => {
                        phase.by_key_ms[pos].push(ms(host));
                        self.check(tracer, rid, pos, &trace, &report, POINTACC, true, &mut phase);
                    }
                }
            }
            phase.rounds += 1;
            if clock.now() >= self.deadline() {
                break;
            }
        }
        phase.cache = cache_delta(stats_before, self.cache.stats());
        phase.spawned = threads_spawned() - spawned_before;
        let (n, c) = (phase.requests as u64, phase.cache);
        match self.cfg.workload {
            Workload::WarmVoxel => {
                phase.guard(format!("disk_hits={} == requests={n}", c.disk_hits), c.disk_hits == n);
                phase.guard(format!("compiles={} == 0", c.compiles), c.compiles == 0);
            }
            _ => phase.guard(format!("compiles={} == requests={n}", c.compiles), c.compiles == n),
        }
        self.common_guards(&mut phase);
        phase
    }

    fn common_guards(&self, phase: &mut Phase) {
        let spawned = phase.spawned;
        phase
            .guard(format!("geom.par.threads_spawned grew by {spawned} (must be 0)"), spawned == 0);
        let rejects = phase.cache.verify_rejects;
        if rejects > 0 {
            phase.fail(format!("trace cache counted {rejects} verifier rejects"));
        }
    }

    /// The per-request output checks, plus (traced phase only) the
    /// layer probes. Runs outside the request's timing.
    // lint: allow(allow-attr): the request's identity, outputs and phase travel together.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &self,
        tracer: &Tracer,
        rid: u64,
        pos: usize,
        trace: &NetworkTrace,
        report: &RunReport,
        engine: usize,
        verify: bool,
        phase: &mut Phase,
    ) {
        let key = &self.keys[pos];
        let tk = self.trace_key(key);
        let result = tracer.span("probe", rid, None, |p| {
            if verify {
                tracer
                    .span("nn.verify", rid, p, |_| verify_trace(&tk, trace))
                    .map_err(|e| format!("{tk:?} failed verify: {e}"))?;
            }
            if self.cfg.workload == Workload::WarmVoxel {
                let fp = tracer.span("nn.trace.fingerprint", rid, p, |_| trace.fingerprint());
                if fp != self.fingerprints[pos] {
                    return Err(format!("{tk:?}: warm fingerprint {fp:#x} != cold-compiled"));
                }
            }
            if tracer.enabled() {
                self.probes(tracer, rid, p, key, &tk, trace, engine);
            }
            let engine_report = report.to_engine_report();
            if !engine_report.is_physical() {
                return Err(format!("{tk:?}: non-physical report {engine_report:?}"));
            }
            let name = &self.engines[engine].config().name;
            self.reference.check(&tk.network, tk.seed, tk.scale_ppm, name, Modeled::of(report))
        });
        if phase.rounds == 0 {
            phase.first_round.push(Served {
                engine,
                modeled: Modeled::of(report),
                layers: LayerSums::of(report),
            });
        }
        if let Err(e) = result {
            phase.fail(e);
        }
    }

    /// Layer calls hidden inside composite calls, made one at a time.
    // lint: allow(allow-attr): the probes need the request's identity and trace.
    #[allow(clippy::too_many_arguments)]
    fn probes(
        &self,
        tracer: &Tracer,
        rid: u64,
        parent: Option<u64>,
        key: &Key,
        tk: &TraceKey,
        trace: &NetworkTrace,
        engine: usize,
    ) {
        match self.cfg.workload {
            Workload::WarmVoxel => {
                tracer.span("nn.artifact.load", rid, parent, |_| {
                    black_box(artifact::load(&self.artifact_dir, tk).is_ok())
                });
                if let Ok(bytes) = std::fs::read(self.artifact_dir.join(artifact::file_name(tk))) {
                    tracer.span("nn.artifact.decode", rid, parent, |_| {
                        black_box(artifact::decode(&bytes).is_ok())
                    });
                }
            }
            Workload::ServeHot => {
                tracer.span("bench.cache.lookup", rid, parent, |_| {
                    let quiet = Tracer::new(false);
                    let hit =
                        self.cache.try_get_or_build(tk, || self.build(key, &quiet, rid, None));
                    black_box(hit.is_ok())
                });
            }
            _ => {}
        }
        let accel = &self.engines[engine];
        let cfg = accel.config();
        tracer.span("core.replay_nocache", rid, parent, |_| {
            let off = RunOptions { cache: CachePolicy::Off, ..RunOptions::default() };
            black_box(accel.run_with(trace, off))
        });
        tracer.span("core.mmu.fusion", rid, parent, |_| {
            black_box(plan_fusion(
                &trace.layers,
                cfg.input_buf_bytes + cfg.output_buf_bytes,
                cfg.elem_bytes,
            ))
        });
        tracer.span("core.mpu.cost", rid, parent, |_| {
            black_box(trace.layers.iter().map(|l| accel.mapping_cycles(l).get()).sum::<u64>())
        });
        tracer.span("core.mxu.cost", rid, parent, |_| {
            black_box(trace.layers.iter().map(|l| accel.mxu().layer_cycles(l).get()).sum::<u64>())
        });
    }

    /// Each engine's share of the key set: every key goes to the engine
    /// with fewer modeled points queued so far (ties to PointAcc), the
    /// rule the frontend's admit-all routing balances a request list by.
    fn shares(&self) -> [Vec<usize>; 2] {
        let mut backlog = [0usize; 2];
        let mut shares = [Vec::new(), Vec::new()];
        for (pos, key) in self.keys.iter().enumerate() {
            let e = if backlog[EDGE] < backlog[POINTACC] { EDGE } else { POINTACC };
            backlog[e] += modeled_points(&self.benches[key.bench], self.cfg.scale);
            shares[e].push(pos);
        }
        shares
    }

    /// serve_hot: waves of the key set. Each engine's share is served on
    /// its own shard: a `Frontend` over that engine alone, one worker,
    /// admit-all, `run_on_cache`. The shards take turns, so the
    /// (engine, trace) pairs are fixed and one shard's replays never
    /// contend with the other's for memory bandwidth, which would move
    /// a request's service time by up to 2x from wave to wave.
    fn serve_phase(&self, tracer: &Tracer, next_request: &AtomicU64) -> Phase {
        let clock = WallClock::new();
        let shards = [POINTACC, EDGE].map(|i| Shard {
            index: i,
            accel: &self.engines[i],
            tracer,
            clock: &clock,
            next_request,
            served: Mutex::new(Vec::new()),
        });
        let engines: [&dyn Engine; 2] = [&shards[0], &shards[1]];
        let options = FrontendOptions {
            queue_capacity: 2,
            workers_per_engine: 1,
            scale: self.cfg.scale,
            policy: AdmissionPolicy::admit_all(),
            // No calibration: with one shard and admit-all, capacity only
            // feeds `ServeReport::utilization_per_shard`, which this
            // benchmark replaces with modeled busy time per host second.
            capacities: Some(vec![0.0]),
            artifact_dir: None,
            failure_policy: FailurePolicy::Retain,
        };
        let frontends =
            [0, 1].map(|e| Frontend::new(&engines[e..=e], &self.benches, options.clone()));
        let shares = self.shares();
        let engine_of: HashMap<usize, usize> = shares
            .iter()
            .enumerate()
            .flat_map(|(e, s)| s.iter().map(move |&pos| (pos, e)))
            .collect();
        let position: HashMap<usize, usize> =
            self.traces.iter().enumerate().map(|(pos, t)| (Arc::as_ptr(t) as usize, pos)).collect();

        let mut phase = Phase { by_key_ms: vec![Vec::new(); self.keys.len()], ..Phase::default() };
        let spawned_before = threads_spawned();
        let (mut busy_s, mut wall_s) = ([0.0f64; 2], [0.0f64; 2]);
        loop {
            let mut wave_s = 0.0;
            for (e, frontend) in frontends.iter().enumerate() {
                let requests = shares[e].iter().map(|&pos| {
                    let key = &self.keys[pos];
                    Request::new(key.bench, key.seed)
                });
                let stats_before = self.cache.stats();
                let report = frontend.run_on_cache(&clock, &self.cache, requests);
                add_stats(&mut phase.cache, cache_delta(stats_before, self.cache.stats()));
                phase.requests += report.submitted;
                wave_s += report.wall.as_secs_f64();
                wall_s[e] += report.wall.as_secs_f64();
                phase.queue_wait_ms.push((ms(report.queue_p50), ms(report.queue_p99)));
                for _ in report.completed..report.submitted {
                    phase.fail(format!(
                        "a request was not completed: failed={} unsupported={} rejected={} \
                         expired={} {:?}",
                        report.failed,
                        report.unsupported,
                        report.rejected,
                        report.expired,
                        report.failures
                    ));
                }
            }
            phase.wave_s.push(wave_s);

            let mut services: Vec<(usize, Service)> = Vec::new();
            for shard in &shards {
                for s in std::mem::take(&mut *lock(&shard.served)) {
                    match position.get(&s.trace) {
                        Some(&pos) => services.push((pos, s)),
                        None => phase.fail("served a trace that was not pre-warmed".into()),
                    }
                }
            }
            services.sort_by_key(|(pos, _)| *pos);
            for (pos, s) in &services {
                if engine_of.get(pos) != Some(&s.engine) {
                    phase.fail(format!("key {pos} was served off its engine's share"));
                }
                phase.by_key_ms[*pos].push(ms(s.time));
                busy_s[s.engine] += Modeled::of(&s.report).latency_ms / 1e3;
                let trace = &self.traces[*pos];
                self.check(
                    tracer,
                    s.request,
                    *pos,
                    trace,
                    &s.report,
                    s.engine,
                    phase.rounds == 0,
                    &mut phase,
                );
            }
            phase.rounds += 1;
            if clock.now() >= self.deadline() {
                break;
            }
        }
        phase.spawned = threads_spawned() - spawned_before;
        phase.utilization_max =
            (0..2).map(|e| busy_s[e] / wall_s[e].max(f64::MIN_POSITIVE)).fold(0.0, f64::max);
        let (n, c) = (phase.requests as u64, phase.cache);
        phase.guard(format!("hits={} == requests={n}", c.hits), c.hits == n);
        phase.guard(format!("compiles={} == 0", c.compiles), c.compiles == 0);
        self.common_guards(&mut phase);
        phase
    }
}

/// One replay as the serving wrapper saw it.
struct Service {
    /// Address of the served trace (identifies the pre-warmed key).
    trace: usize,
    request: u64,
    engine: usize,
    time: Duration,
    report: RunReport,
}

/// The benchmark's `Engine` wrapper around one accelerator shard: it
/// times each `evaluate` (the request's service time) and keeps the
/// full report for the output checks.
struct Shard<'a> {
    index: usize,
    accel: &'a Accelerator,
    tracer: &'a Tracer,
    clock: &'a WallClock,
    next_request: &'a AtomicU64,
    served: Mutex<Vec<Service>>,
}

impl Engine for Shard<'_> {
    fn name(&self) -> String {
        self.accel.config().name.clone()
    }

    fn evaluate(&self, trace: &NetworkTrace) -> EngineReport {
        let request = self.next_request.fetch_add(1, Ordering::Relaxed) + 1;
        let replay = if self.index == POINTACC { "core.replay" } else { "core.replay_edge" };
        let start = self.clock.now();
        let report = self.tracer.span("bench.frontend.service", request, None, |p| {
            self.tracer.span(replay, request, p, |_| self.accel.run(trace))
        });
        let time = self.clock.now().saturating_sub(start);
        let out = report.to_engine_report();
        lock(&self.served).push(Service {
            trace: trace as *const NetworkTrace as usize,
            request,
            engine: self.index,
            time,
            report,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sets_are_seeded_round_robins_over_distinct_pool_seeds() {
        for w in Workload::ALL {
            let keys = key_set(w, 7);
            assert_eq!(keys, key_set(w, 7), "same seed, same inputs");
            let per_bench: usize = w.benchmarks().iter().map(|n| w.seeds_per_benchmark(n)).sum();
            assert_eq!(keys.len(), per_bench + usize::from(w == Workload::ColdPoint));
            for pair in keys.windows(2) {
                assert_ne!(pair[0], pair[1], "consecutive requests differ");
            }
            for k in &keys {
                assert!(SEED_POOL.contains(&k.seed));
                assert_eq!(keys.iter().filter(|o| *o == k).count(), 1, "keys are distinct");
            }
        }
        assert_ne!(key_set(Workload::ColdVoxel, 1), key_set(Workload::ColdVoxel, 2));
    }

    #[test]
    fn layered_build_matches_the_library_builder() {
        let cfg = Config { scale: 0.02, ..Config::new(Workload::ColdPoint, 1) };
        let bench = Bench::setup(&cfg, &Tracer::new(false)).unwrap();
        for key in bench.keys.iter().take(6) {
            let ours = bench.build(key, &Tracer::new(false), 1, None).unwrap();
            let lib = pointacc_bench::try_benchmark_trace_at(
                &bench.benches[key.bench],
                key.seed,
                cfg.scale,
            )
            .unwrap();
            assert_eq!(ours, lib);
        }
    }
}
