//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <cold_point|cold_voxel|warm_voxel|serve_hot|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--scale <f>] [--work-dir <dir>]
//! perfbench --capture-reference <file>
//! ```
//!
//! A run splits `--seconds` across [`PROCESSES`] fresh worker processes
//! (this binary with `--worker`), run one after another; each sets the
//! workload up once and measures its share. Fresh processes sample
//! memory layout and host noise independently, and the run reports each
//! metric's median across them (`setup_s` is the median set-up time).
//!
//! Prints guard, sample-count, metric and verdict lines, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero on a usage or set-up error, without a
//! result line.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::{combine, result_json, run, workloads, Config, Outcome, Workload};

/// Scale of the reference entries the smoke test uses.
const SMOKE_SCALE: f64 = 0.02;

/// Worker processes per run.
const PROCESSES: usize = 3;

struct Args {
    configs: Vec<Config>,
    worker: bool,
    capture: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut cfg = Config::new(Workload::ColdPoint, 0);
    let (mut worker, mut capture) = (false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                cfg.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                cfg.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                cfg.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--scale" => {
                let v = value()?;
                cfg.scale = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad(&v))?;
            }
            "--work-dir" => cfg.work_dir = PathBuf::from(value()?),
            "--worker" => worker = true,
            "--capture-reference" => capture = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let configs = match (&capture, workload) {
        (Some(_), _) => Vec::new(),
        (None, None) => return Err("--workload is required".into()),
        (None, Some(w)) if w == "all" => {
            Workload::ALL.iter().map(|&workload| Config { workload, ..cfg.clone() }).collect()
        }
        (None, Some(w)) => {
            let workload = Workload::parse(&w).ok_or_else(|| format!("unknown workload {w}"))?;
            vec![Config { workload, ..cfg }]
        }
    };
    Ok(Args { configs, worker, capture })
}

/// Runs `cfg` in a fresh worker process and reads back its outcome.
fn run_worker(cfg: &Config, seconds: f64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--worker", "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }, "--scale", &cfg.scale.to_string()])
        .arg("--work-dir")
        .arg(&cfg.work_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start worker: {e}"))?;
    if !output.status.success() {
        return Err(format!("worker exited with {}", output.status));
    }
    Outcome::parse(cfg.workload, &String::from_utf8_lossy(&output.stdout))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = args.capture {
        let written = workloads::capture_reference(&[1.0, SMOKE_SCALE])
            .and_then(|table| std::fs::write(&path, table).map_err(|e| e.to_string()));
        return match written {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.worker {
        return match args.configs.first().map(run) {
            Some(Ok(outcome)) => {
                for line in outcome.to_lines() {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Some(Err(e)) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
            None => ExitCode::FAILURE,
        };
    }
    let mut outcomes = Vec::new();
    for cfg in &args.configs {
        let mut runs = Vec::new();
        for i in 0..PROCESSES {
            match run_worker(cfg, cfg.seconds / PROCESSES as f64) {
                Ok(run) => {
                    for note in &run.notes {
                        println!("process={i} {note}");
                    }
                    runs.push(run);
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", cfg.workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        let outcome = combine(&runs);
        for line in outcome.notes.iter().chain(&outcome.report_lines()) {
            println!("{line}");
        }
        outcomes.push(outcome);
    }
    println!("{}", result_json(&outcomes));
    ExitCode::SUCCESS
}
