//! Tiny-scale smoke of all four workloads through the command line:
//! every metric is emitted with its unit, every request passes its
//! output checks and every guard holds.

use std::path::PathBuf;
use std::process::Command;

use perfbench::{Workload, END_TO_END, PER_LAYER};

/// Scale whose modeled outputs the reference table also covers.
const SCALE: &str = "0.02";

fn run(workload: Workload, trace: bool) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", SCALE])
        .arg("--work-dir")
        .arg(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{}: {}\n{stdout}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
    stdout
}

#[test]
fn every_workload_emits_every_metric_with_no_errors() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(workload, trace);
            let w = workload.name();
            let result = out.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\": true, "), "{w}: {result}");
            assert!(result.contains("\"failed\": 0, "), "{w}: {result}");
            assert!(out.contains(&format!("metric workload={w} error_rate 0 ratio")), "{out}");
            assert!(!out.contains("VIOLATED"), "{w}: {out}");
            let host_vs_device = format!("host_vs_device workload={w} host_ms_per_request=");
            assert!(out.contains(&host_vs_device) && out.contains("bottleneck="), "{out}");
            let names = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
            for (name, unit) in names {
                let json = format!("\"{name}\": {{\"value\": ");
                assert!(result.contains(&json), "{w}: {name} missing from {result}");
                assert!(result.contains(&format!("\"unit\": \"{unit}\"")), "{w}: {unit}");
                let line = format!("metric workload={w} {name} ");
                let printed = out.lines().find(|l| l.starts_with(&line));
                assert!(printed.is_some_and(|l| l.ends_with(&format!(" {unit}"))), "{w}: {name}");
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap_or_default().to_string())
            .collect()
    };
    let (_, rest) = json.split_once("\"end_to_end\"").expect("end_to_end section");
    let (end_to_end, per_layer) = rest.split_once("\"per_layer\"").expect("per_layer section");
    let want =
        |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(end_to_end), want(&END_TO_END));
    assert_eq!(names(per_layer), want(&PER_LAYER));
}
