//! Streaming serving demo: a seeded multi-frame LiDAR stream served
//! through the cross-frame reuse path ([`pointacc_bench::stream`]).
//!
//! The scenario has two phases: a *motion* phase (ego advances, ~10 % of
//! azimuth columns churn per frame — every frame compiles) and a *dwell*
//! phase (ego stops, frames repeat bit-identically — every frame reuses
//! the cached trace and skips the mapping phase). The demo prints the
//! per-frame timeline, the reuse accounting (overall and steady-state —
//! CI greps the steady-state line for `compiles=0`), and writes
//! `BENCH_streaming.json` with amortized-vs-cold throughput.
//!
//! Scale the workload with `POINTACC_SCALE` (e.g. 0.02 for CI smoke).
//! Override the output path with `BENCH_STREAMING_OUT` and the
//! throughput bar with `BENCH_STREAMING_MIN_GAIN` (0 = record-only).

use std::fmt::Write as _;
use std::time::Duration;

use pointacc::{Accelerator, PointAccConfig};
use pointacc_bench::frontend::{Clock, SimClock, WallClock};
use pointacc_bench::stream::{serve_stream, StreamOptions, StreamReport};
use pointacc_nn::stream::ReuseOutcome;
use pointacc_nn::zoo;

const MOTION_FRAMES: usize = 6;
const DWELL_FRAMES: usize = 6;

fn outcome_tag(outcome: ReuseOutcome) -> &'static str {
    match outcome {
        ReuseOutcome::Compiled => "compiled",
        ReuseOutcome::ExactReuse => "exact-reuse",
    }
}

fn json_record(report: &StreamReport, opts: &StreamOptions, wall: Duration) -> String {
    let mut frames = String::new();
    for (i, r) in report.records.iter().enumerate() {
        if i > 0 {
            frames.push_str(",\n");
        }
        let _ = write!(
            frames,
            concat!(
                "    {{\"frame\": {}, \"points\": {}, \"outcome\": \"{}\", ",
                "\"service_ms\": {:.6}, \"full_service_ms\": {:.6}, ",
                "\"latency_ms\": {:.6}, \"met_slo\": {}}}"
            ),
            r.index,
            r.points,
            outcome_tag(r.outcome),
            r.service.as_secs_f64() * 1e3,
            r.full_service.as_secs_f64() * 1e3,
            r.latency.as_secs_f64() * 1e3,
            r.met_slo,
        );
    }
    let steady = report.stats_from(opts.dwell_after.unwrap_or(opts.frames) + 1);
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"streaming\",\n",
            "  \"scale\": {},\n",
            "  \"network\": \"MinkowskiNet-outdoor\",\n",
            "  \"frames\": {},\n",
            "  \"points_hint\": {},\n",
            "  \"dwell_after\": {},\n",
            "  \"period_ms\": {:.3},\n",
            "  \"slo_ms\": {:.3},\n",
            "  \"amortized_points_per_s\": {:.3},\n",
            "  \"cold_points_per_s\": {:.3},\n",
            "  \"gain\": {:.6},\n",
            "  \"slo_attainment\": {:.6},\n",
            "  \"max_latency_ms\": {:.6},\n",
            "  \"accounting\": \"{}\",\n",
            "  \"steady_accounting\": \"{}\",\n",
            "  \"wall_s\": {:.6},\n",
            "  \"frame_records\": [\n{}\n  ]\n",
            "}}\n"
        ),
        pointacc_bench::scale(),
        opts.frames,
        opts.points_hint,
        opts.dwell_after.unwrap_or(opts.frames),
        opts.period.as_secs_f64() * 1e3,
        opts.slo.as_secs_f64() * 1e3,
        report.amortized_points_per_s(),
        report.cold_points_per_s(),
        report.amortized_points_per_s() / report.cold_points_per_s(),
        report.slo_attainment(),
        report.max_latency().as_secs_f64() * 1e3,
        report.stats.accounting(),
        steady.accounting(),
        wall.as_secs_f64(),
        frames,
    )
}

fn main() {
    let scale = pointacc_bench::scale();
    let points_hint = ((20_000.0 * scale) as usize).max(1_200);
    let opts = StreamOptions {
        seed: 42,
        frames: MOTION_FRAMES + DWELL_FRAMES,
        points_hint,
        period: Duration::from_millis(100),
        slo: Duration::from_millis(100),
        ego_step: 0.5,
        churn_cols: None,
        dwell_after: Some(MOTION_FRAMES),
    };
    println!(
        "== Streaming demo: {} frames ({} motion + {} dwell), ~{} points/frame, scale {} ==\n",
        opts.frames, MOTION_FRAMES, DWELL_FRAMES, points_hint, scale
    );

    let engine = Accelerator::new(PointAccConfig::full());
    let net = zoo::minknet_outdoor();
    let wall = WallClock::new();
    let report = serve_stream(&engine, &net, &SimClock::new(), &opts)
        .expect("stream frames are never empty; serving must succeed");
    let elapsed = wall.now();

    println!("frame  points  outcome       service    cold-service  latency    slo");
    for r in &report.records {
        println!(
            "{:>5}  {:>6}  {:<12}  {:>7.3} ms  {:>9.3} ms  {:>7.3} ms  {}",
            r.index,
            r.points,
            outcome_tag(r.outcome),
            r.service.as_secs_f64() * 1e3,
            r.full_service.as_secs_f64() * 1e3,
            r.latency.as_secs_f64() * 1e3,
            if r.met_slo { "met" } else { "MISS" },
        );
    }
    let steady = report.stats_from(MOTION_FRAMES + 1);
    println!("\noverall accounting: {}", report.stats.accounting());
    println!("steady-state accounting: {}", steady.accounting());
    println!(
        "amortized {:.1} points/s vs cold {:.1} points/s ({:.2}x), SLO attainment {:.0}%, wall {:.3} s",
        report.amortized_points_per_s(),
        report.cold_points_per_s(),
        report.amortized_points_per_s() / report.cold_points_per_s(),
        report.slo_attainment() * 100.0,
        elapsed.as_secs_f64(),
    );

    let out = pointacc_bench::streaming_out();
    std::fs::write(&out, json_record(&report, &opts, elapsed))
        .unwrap_or_else(|e| panic!("writing {}: {e}", out.display())); // lint: allow(panic): bin top-level IO failure is fatal by design.
    println!("wrote {}", out.display());

    assert_eq!(
        steady.compiles,
        0,
        "steady-state dwell frames must compile nothing: {}",
        steady.accounting()
    );
    assert!(
        steady.frames >= (DWELL_FRAMES - 1) as u64,
        "dwell phase too short: {}",
        steady.accounting()
    );
    // The gain ceiling is the mapping phase's share of total modeled
    // time — small on the full accelerator precisely because PointAcc
    // accelerates mapping. The bar only asserts reuse strictly beats
    // cold; the JSON records the exact margin.
    let min_gain = pointacc_bench::streaming_min_gain().unwrap_or(1.005);
    let gain = report.amortized_points_per_s() / report.cold_points_per_s();
    assert!(
        gain >= min_gain,
        "amortized throughput gain {gain:.3}x below bar {min_gain:.3}x \
         (override with BENCH_STREAMING_MIN_GAIN; 0 disables)"
    );
}
