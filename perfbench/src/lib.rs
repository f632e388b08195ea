//! End-to-end host benchmark of the PointAcc reproduction.
//!
//! Each workload prices Table 2 clouds on the modeled accelerator the way
//! a user of the repository does: generate a cloud, compile its trace
//! (or load a persisted one), verify it, replay it through the cost
//! model. The benchmark reports host time per request next to the
//! modeled device time of the same request, checks every request's
//! output, and enforces guards that pin what each workload exercises.
//! See `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod reference;
pub mod spans;
pub mod workloads;

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;

use pointacc_bench::frontend::{Clock, WallClock};

use crate::spans::{self_times, to_json_lines, Tracer};
use crate::workloads::{Bench, Phase};

/// The four workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Six point-based networks, every request compiles.
    ColdPoint,
    /// MinkNet(i) and MinkNet(o), every request compiles.
    ColdVoxel,
    /// The cold_voxel keys, every request loads a persisted artifact.
    WarmVoxel,
    /// All eight networks, cache hits served by the frontend on two shards.
    ServeHot,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::ColdPoint, Workload::ColdVoxel, Workload::WarmVoxel, Workload::ServeHot];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPoint => "cold_point",
            Workload::ColdVoxel => "cold_voxel",
            Workload::WarmVoxel => "warm_voxel",
            Workload::ServeHot => "serve_hot",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Table 2 notations the workload requests.
    pub fn benchmarks(self) -> &'static [&'static str] {
        const POINT: &[&str] = &[
            "PointNet",
            "PointNet++(c)",
            "PointNet++(ps)",
            "DGCNN",
            "F-PointNet++",
            "PointNet++(s)",
        ];
        const VOXEL: &[&str] = &["MinkNet(i)", "MinkNet(o)"];
        const ALL: &[&str] = &[
            "PointNet",
            "PointNet++(c)",
            "PointNet++(ps)",
            "DGCNN",
            "F-PointNet++",
            "PointNet++(s)",
            "MinkNet(i)",
            "MinkNet(o)",
        ];
        match self {
            Workload::ColdPoint => POINT,
            Workload::ColdVoxel | Workload::WarmVoxel => VOXEL,
            Workload::ServeHot => ALL,
        }
    }

    /// Data seeds of `notation` in the key set. The voxel workloads
    /// request MinkNet(o) more often than the slower MinkNet(i), so the
    /// median falls inside the MinkNet(o) class and p90 inside the
    /// MinkNet(i) class instead of on the boundary between them.
    pub fn seeds_per_benchmark(self, notation: &str) -> usize {
        match (self, notation) {
            (Workload::ServeHot, _) => 3,
            (Workload::ColdVoxel | Workload::WarmVoxel, "MinkNet(o)") => 6,
            _ => 4,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: picks the key set.
    pub seed: u64,
    /// Length of the timed phase (whole rounds, at least one).
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Point-count scale of the generated clouds.
    pub scale: f64,
    /// Scratch directory for artifacts and span dumps.
    pub work_dir: PathBuf,
}

impl Config {
    /// Paper-scale defaults for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Config {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
            work_dir: PathBuf::from(".bench_build/perfbench-work"),
        }
    }
}

/// End-to-end metrics, reported with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("modeled_device_ms", "ms"),
    ("modeled_energy_mj", "mJ"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run: (name, unit). Times
/// are mean self time per call; a layer that does not run reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("data.generate_ms", "ms"),
    ("nn.exec.compile_ms", "ms"),
    ("nn.exec.mapping_ops", "count"),
    ("nn.exec.map_entries", "count"),
    ("nn.verify.verify_ms", "ms"),
    ("nn.trace.fingerprint_ms", "ms"),
    ("nn.artifact.load_ms", "ms"),
    ("nn.artifact.decode_ms", "ms"),
    ("nn.artifact.encode_ms", "ms"),
    ("nn.artifact.save_ms", "ms"),
    ("nn.artifact.bytes", "bytes"),
    ("core.replay_ms", "ms"),
    ("core.replay_edge_ms", "ms"),
    ("core.replay_nocache_ms", "ms"),
    ("core.mmu.cache_sim_ms", "ms"),
    ("core.mmu.fusion_ms", "ms"),
    ("core.mpu.cost_ms", "ms"),
    ("core.mxu.cost_ms", "ms"),
    ("modeled.mpu_cycles", "cycles"),
    ("modeled.mxu_cycles", "cycles"),
    ("modeled.dram_cycles", "cycles"),
    ("modeled.dram_bytes", "bytes"),
    ("modeled.cache_miss_rate", "ratio"),
    ("bench.cache.lookup_ms", "ms"),
    ("bench.cache.hits", "count"),
    ("bench.cache.misses", "count"),
    ("bench.cache.disk_hits", "count"),
    ("bench.cache.compiles", "count"),
    ("bench.cache.verify_rejects", "count"),
    ("bench.frontend.queue_wait_ms_p50", "ms"),
    ("bench.frontend.queue_wait_ms_p99", "ms"),
    ("bench.frontend.service_ms", "ms"),
    ("bench.frontend.utilization_max", "ratio"),
    ("bench.request.self_ms", "ms"),
    ("geom.par.threads_spawned", "count"),
    ("trace.requests_per_s", "1/s"),
    ("trace.untraced_requests_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload run reports: one process's run, or several
/// processes' runs combined by [`combine`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Requests plus guards checked.
    pub attempted: usize,
    /// Failed requests plus violated guards.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Host latency of every completed request of the untraced phase,
    /// by key position, ms.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Host ms per request (the inverse of `requests_per_s`).
    pub host_ms: f64,
    /// Mean modeled device ms per request.
    pub device_ms: f64,
    /// Guard, failure and sample-count lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Metric lines, the host-vs-device verdict and the error rate.
    pub fn report_lines(&self) -> Vec<String> {
        let name = self.workload.name();
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("metric workload={name} {} {} {}", m.name, m.value, m.unit))
            .collect();
        lines.push(format!("metric workload={name} error_rate {} ratio", self.error_rate()));
        let (host, device) = (self.host_ms, self.device_ms);
        lines.push(format!(
            "host_vs_device workload={name} host_ms_per_request={host:.4} \
             device_ms_per_request={device:.4} ratio={:.1} bottleneck={}",
            host / device.max(f64::MIN_POSITIVE),
            if host > device { "host" } else { "device" }
        ));
        lines
    }

    /// The lines a worker process prints for its parent to [`parse`](Outcome::parse).
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = self.notes.clone();
        lines.push(format!(
            "outcome attempted={} failed={} host_ms={} device_ms={}",
            self.attempted, self.failed, self.host_ms, self.device_ms
        ));
        for key in &self.latencies_ms {
            let samples: Vec<String> = key.iter().map(f64::to_string).collect();
            lines.push(format!("latencies_ms {}", samples.join(" ")));
        }
        for m in &self.metrics {
            lines.push(format!("value {} {}", m.name, m.value));
        }
        lines
    }

    /// Reads back the output of [`Outcome::to_lines`].
    pub fn parse(workload: Workload, text: &str) -> Result<Outcome, String> {
        let units: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        let number = |v: &str| v.parse::<f64>().map_err(|_| format!("bad number {v}"));
        let mut out = Outcome {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            latencies_ms: Vec::new(),
            host_ms: 0.0,
            device_ms: 0.0,
            notes: Vec::new(),
        };
        let mut seen_outcome = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "outcome" => {
                    seen_outcome = true;
                    for field in rest.split_whitespace() {
                        let (k, v) = field.split_once('=').ok_or("bad outcome line")?;
                        match k {
                            "attempted" => out.attempted = v.parse().map_err(|_| "bad count")?,
                            "failed" => out.failed = v.parse().map_err(|_| "bad count")?,
                            "host_ms" => out.host_ms = number(v)?,
                            "device_ms" => out.device_ms = number(v)?,
                            _ => return Err(format!("unknown outcome field {k}")),
                        }
                    }
                }
                "latencies_ms" => out
                    .latencies_ms
                    .push(rest.split_whitespace().map(number).collect::<Result<_, _>>()?),
                "value" => {
                    let (name, v) = rest.split_once(' ').ok_or("bad value line")?;
                    let unit = units
                        .iter()
                        .find(|(n, _)| *n == name)
                        .ok_or_else(|| format!("unknown metric {name}"))?
                        .1;
                    out.metrics.push(Metric { name: name.into(), value: number(v)?, unit });
                }
                _ => out.notes.push(line.to_string()),
            }
        }
        if seen_outcome {
            Ok(out)
        } else {
            Err("worker printed no outcome".into())
        }
    }
}

/// Metrics that are a pure function of the key set: every process of one
/// run must report them bit for bit.
fn is_modeled(name: &str) -> bool {
    name.starts_with("modeled")
}

/// Combines the runs of several processes: each metric is the median
/// across processes, except the latency percentiles, which are taken
/// over every process's requests together. Counts add up; processes
/// that disagree on a modeled metric count as one failure.
pub fn combine(runs: &[Outcome]) -> Outcome {
    let first = &runs[0];
    let mut out = Outcome {
        workload: first.workload,
        attempted: runs.iter().map(|r| r.attempted).sum::<usize>() + 1,
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics: Vec::new(),
        latencies_ms: (0..first.latencies_ms.len())
            .map(|k| {
                runs.iter()
                    .flat_map(|r| r.latencies_ms.get(k).into_iter().flatten())
                    .copied()
                    .collect()
            })
            .collect(),
        host_ms: median(&runs.iter().map(|r| r.host_ms).collect::<Vec<_>>()),
        device_ms: median(&runs.iter().map(|r| r.device_ms).collect::<Vec<_>>()),
        notes: Vec::new(),
    };
    let samples = out.latencies_ms.concat();
    let mut disagree = Vec::new();
    for (i, m) in first.metrics.iter().enumerate() {
        let values: Vec<f64> =
            runs.iter().map(|r| r.metrics.get(i).map_or(f64::NAN, |x| x.value)).collect();
        let value = match m.name.as_str() {
            "request_ms_p50" => percentile(&samples, 50.0),
            "request_ms_p90" => percentile(&samples, 90.0),
            _ => median(&values),
        };
        if is_modeled(&m.name) && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            disagree.push(m.name.clone());
        }
        out.metrics.push(Metric { name: m.name.clone(), value, unit: m.unit });
    }
    if !disagree.is_empty() {
        out.failed += 1;
        out.notes.push(format!(
            "failure workload={} processes disagree on {}",
            first.workload.name(),
            disagree.join(", ")
        ));
    }
    let n = samples.len();
    out.notes.push(format!(
        "samples workload={} processes={} requests={n} beyond_p90={}",
        first.workload.name(),
        runs.len(),
        n - (n * 9).div_ceil(10)
    ));
    out
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Requests per host second over one sweep of the key set, with each
/// part taken as a median over the phase's rounds so that a burst of
/// interference in one round does not move it: a serving wave's median
/// wall time, or the sum of each key's median latency.
fn requests_per_s(phase: &Phase) -> f64 {
    let (requests, sweep_s) = if phase.wave_s.is_empty() {
        let medians: Vec<f64> =
            phase.by_key_ms.iter().filter(|l| !l.is_empty()).map(|l| median(l)).collect();
        (medians.len(), medians.iter().sum::<f64>() / 1e3)
    } else {
        (phase.first_round.len(), median(&phase.wave_s))
    };
    requests as f64 / sweep_s.max(f64::MIN_POSITIVE)
}

/// Runs one workload in this process: set up once, then the timed phase
/// (untraced; with `trace`, an untraced and a traced phase).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let result = run_inner(cfg);
    let _ = std::fs::remove_dir_all(workloads::artifact_dir(cfg));
    result
}

fn run_inner(cfg: &Config) -> Result<Outcome, String> {
    let clock = WallClock::new();
    let tracer = Tracer::new(cfg.trace);
    let start = clock.now();
    let bench = Bench::setup(cfg, &tracer)?;
    let setup_s = clock.now().saturating_sub(start).as_secs_f64();
    let next_request = AtomicU64::new(0);
    let mut phases = vec![bench.phase(&Tracer::new(false), &next_request)];
    if cfg.trace {
        phases.push(bench.phase(&tracer, &next_request));
    }

    let name = cfg.workload.name();
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (phase, label) in phases.iter().zip(["untraced", "traced"]) {
        attempted += phase.requests + phase.guards.len();
        failed += phase.failed + phase.violated_guards();
        for (what, held) in &phase.guards {
            notes.push(format!(
                "guard workload={name} phase={label} {} {what}",
                if *held { "ok" } else { "VIOLATED" }
            ));
        }
        for f in &phase.failures {
            notes.push(format!("failure workload={name} phase={label} {f}"));
        }
        notes.push(format!(
            "requests workload={name} phase={label} completed={} rounds={}",
            phase.by_key_ms.iter().map(Vec::len).sum::<usize>(),
            phase.rounds
        ));
    }
    let measured = &phases[0];
    let rps = requests_per_s(measured);
    let device_ms = mean(measured.first_round.iter().map(|s| s.modeled.latency_ms));

    let metrics = if cfg.trace {
        let spans = tracer.take();
        std::fs::create_dir_all(&cfg.work_dir).map_err(|e| e.to_string())?;
        let dump = cfg.work_dir.join(format!(
            "spans-{name}-seed{}-pid{}.jsonl",
            cfg.seed,
            std::process::id()
        ));
        std::fs::write(&dump, to_json_lines(&spans)).map_err(|e| e.to_string())?;
        notes.push(format!("spans workload={name} count={} file={}", spans.len(), dump.display()));
        per_layer(&bench, &phases[0], &phases[1], &spans)
    } else {
        let values = [
            setup_s,
            rps,
            percentile(&measured.by_key_ms.concat(), 50.0),
            percentile(&measured.by_key_ms.concat(), 90.0),
            device_ms,
            mean(measured.first_round.iter().map(|s| s.modeled.energy_pj)) / 1e9,
            peak_rss_mb()?,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name: name.into(), value, unit })
            .collect()
    };
    Ok(Outcome {
        workload: cfg.workload,
        attempted,
        failed,
        metrics,
        latencies_ms: phases[0].by_key_ms.clone(),
        host_ms: 1e3 / rps.max(f64::MIN_POSITIVE),
        device_ms,
        notes,
    })
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The per-layer metrics of the traced phase, in [`PER_LAYER`] order.
fn per_layer(
    bench: &Bench,
    untraced: &Phase,
    traced: &Phase,
    spans: &[spans::Span],
) -> Vec<Metric> {
    let selfs = self_times(spans);
    let total_ms = |name: &str| selfs.get(name).map_or(0.0, |(_, d)| d.as_secs_f64() * 1e3);
    let calls = |name: &str| selfs.get(name).map_or(0, |(n, _)| *n);
    let per_call = |name: &str| total_ms(name) / calls(name).max(1) as f64;
    let round = &traced.first_round;
    let modeled =
        |f: &dyn Fn(&workloads::LayerSums) -> f64| mean(round.iter().map(|s| f(&s.layers)));
    let (compiles, ops, maps) = traced.compiled;
    let per_compile = |x: u64| x as f64 / compiles.max(1) as f64;
    let cache_sim = if calls("core.replay_nocache") == 0 {
        0.0
    } else {
        let replays = total_ms("core.replay") + total_ms("core.replay_edge");
        (replays - total_ms("core.replay_nocache")) / calls("core.replay_nocache") as f64
    };
    let miss = {
        let (sum, n) = round
            .iter()
            .fold((0.0, 0), |(s, n), r| (s + r.layers.miss_rate_sum, n + r.layers.cached_layers));
        sum / n.max(1) as f64
    };
    let (is_serve, c) = (!traced.queue_wait_ms.is_empty(), traced.cache);
    let queue = |pick: fn(&(f64, f64)) -> f64| {
        median(&traced.queue_wait_ms.iter().map(pick).collect::<Vec<_>>())
    };
    let (traced_rps, untraced_rps) = (requests_per_s(traced), requests_per_s(untraced));
    let values: [f64; 38] = [
        per_call("data.generate"),
        per_call("nn.exec.compile"),
        per_compile(ops),
        per_compile(maps),
        per_call("nn.verify"),
        per_call("nn.trace.fingerprint"),
        per_call("nn.artifact.load"),
        per_call("nn.artifact.decode"),
        per_call("nn.artifact.encode"),
        per_call("nn.artifact.save"),
        mean(bench.artifact_bytes.iter().map(|&b| b as f64)),
        per_call("core.replay"),
        per_call("core.replay_edge"),
        per_call("core.replay_nocache"),
        cache_sim.max(0.0),
        per_call("core.mmu.fusion"),
        per_call("core.mpu.cost"),
        per_call("core.mxu.cost"),
        modeled(&|l| l.mpu_cycles as f64),
        modeled(&|l| l.mxu_cycles as f64),
        modeled(&|l| l.dram_cycles as f64),
        modeled(&|l| l.dram_bytes as f64),
        miss,
        per_call("bench.cache.lookup"),
        c.hits as f64,
        c.misses as f64,
        c.disk_hits as f64,
        c.compiles as f64,
        c.verify_rejects as f64,
        queue(|q| q.0),
        queue(|q| q.1),
        if is_serve { mean(traced.by_key_ms.iter().flatten().copied()) } else { 0.0 },
        traced.utilization_max,
        per_call("request"),
        traced.spawned as f64,
        traced_rps,
        untraced_rps,
        (untraced_rps - traced_rps) / untraced_rps.max(f64::MIN_POSITIVE) * 100.0,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name: name.into(), value, unit })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Metric names are prefixed with the workload
/// when several outcomes are merged.
pub fn result_json(outcomes: &[Outcome]) -> String {
    let prefix = outcomes.len() > 1;
    let attempted: usize = outcomes.iter().map(|o| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|o| o.failed).sum();
    let mut metrics = Vec::new();
    for o in outcomes {
        for m in &o.metrics {
            let name =
                if prefix { format!("{}.{}", o.workload.name(), m.name) } else { m.name.clone() };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.unit));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let o = Outcome {
            workload: Workload::ColdPoint,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "setup_s".into(), value: 0.5, unit: "s" }],
            latencies_ms: vec![vec![1.5, 2.0], vec![]],
            host_ms: 2.0,
            device_ms: 0.5,
            notes: vec!["guard ok".into()],
        };
        let back = Outcome::parse(Workload::ColdPoint, &o.to_lines().join("\n")).unwrap();
        assert_eq!(back.to_lines(), o.to_lines());
        let both = combine(&[o.clone(), back]);
        assert_eq!((both.attempted, both.failed), (7, 0));
        assert_eq!(both.latencies_ms, vec![vec![1.5, 2.0, 1.5, 2.0], vec![]]);
        assert_eq!(
            result_json(&[o]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
