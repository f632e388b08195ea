//! Streaming scenario family: the multi-frame LiDAR pipeline end to
//! end — [`FrameStream`] determinism and overlap, [`GridIndex`] kNN on
//! far-outside and degenerate queries against the golden ranking, the
//! point-order invariance of voxel-net traces that scan-slot frames rest
//! on, and the [`serve_stream`] SLO scenario on a simulated clock,
//! checked record by record against fresh compiles.

use std::collections::HashSet;
use std::time::Duration;

use pointacc::{Accelerator, Engine, EngineReport, PointAccConfig};
use pointacc_bench::frontend::SimClock;
use pointacc_bench::stream::{serve_stream, StreamOptions};
use pointacc_data::lidar::{FrameStream, ScanProfile};
use pointacc_geom::golden;
use pointacc_geom::index::GridIndex;
use pointacc_geom::{Point3, PointSet};
use pointacc_nn::{zoo, ExecMode, Executor, Network};
use proptest::prelude::*;

/// Every coordinate's bit pattern, point by point.
fn bits(set: &PointSet) -> Vec<[u32; 3]> {
    set.points().iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

/// Fraction of `cur`'s points found bit-identically in `prev`.
fn overlap(prev: &PointSet, cur: &PointSet) -> f32 {
    let prev: HashSet<[u32; 3]> = bits(prev).into_iter().collect();
    bits(cur).iter().filter(|p| prev.contains(*p)).count() as f32 / cur.len() as f32
}

// ---------------------------------------------------------------------
// FrameStream scenarios
// ---------------------------------------------------------------------

#[test]
fn frame_stream_is_reproducible_and_overlapping() {
    let collect = || {
        let mut s = FrameStream::new(77, 2_000, ScanProfile::semantic_kitti());
        (0..4).map(|_| s.next_frame()).collect::<Vec<_>>()
    };
    let a = collect();
    let b = collect();
    for (k, (fa, fb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(bits(fa), bits(fb), "frame {k} not reproducible");
    }
    for (k, pair) in a.windows(2).enumerate() {
        let carried = overlap(&pair[0], &pair[1]);
        assert!(carried > 0.75, "frame {} overlap {carried} too low", k + 1);
    }
}

/// Stream frames list their returns in scan-slot order, not in the
/// order a remove/insert delta would leave them. That is sound only
/// because a voxel net's trace is a function of the point set alone:
/// voxelization sorts and de-duplicates the coordinates.
#[test]
fn voxel_net_traces_ignore_point_order() {
    let mut stream = FrameStream::new(9, 1_200, ScanProfile::semantic_kitti());
    let frames: Vec<PointSet> = (0..2).map(|_| stream.next_frame()).collect();
    let exec = Executor::new(ExecMode::TraceOnly, 9);
    for net in [zoo::minknet_outdoor(), zoo::mini_minkunet()] {
        for (k, frame) in frames.iter().enumerate() {
            let fingerprint = |points: Vec<Point3>| {
                exec.try_run(&net, &PointSet::from_points(points)).unwrap().trace.fingerprint()
            };
            let want = fingerprint(frame.points().to_vec());
            let mut reversed = frame.points().to_vec();
            reversed.reverse();
            let mut rotated = frame.points().to_vec();
            rotated.rotate_left(frame.len() / 3);
            for (how, points) in [("reversed", reversed), ("rotated", rotated)] {
                assert_eq!(fingerprint(points), want, "{} frame {k} {how}", net.name());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Grid-index kNN against the golden ranking
// ---------------------------------------------------------------------

/// A deterministic pseudo-cloud of `n` points in a ±30 m box.
fn cloud(n: usize, seed: u64) -> Vec<Point3> {
    (0..n)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(seed | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let f = |s: u64| ((h >> s) & 0xFFFF) as f32 / 65535.0 * 60.0 - 30.0;
            Point3::new(f(0), f(16), f(32))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Far-outside and degenerate (collinear/coincident) knn queries
    /// agree with the golden brute-force ranking.
    #[test]
    fn knn_far_outside_and_degenerate_matches_golden(
        n in 1usize..60,
        seed in 1u64..5_000,
        k in 1usize..12,
        shape in prop::sample::select(vec!["cloud", "collinear", "coincident"]),
        far in prop::sample::select(vec![1.0f32, 50.0, 1_000.0, 100_000.0]),
    ) {
        let pts: Vec<Point3> = match shape {
            "collinear" => (0..n).map(|i| Point3::new(i as f32 * 0.25, 0.0, 0.0)).collect(),
            "coincident" => (0..n).map(|_| Point3::new(1.5, -2.5, 3.5)).collect(),
            _ => cloud(n, seed),
        };
        let idx = GridIndex::build(&pts);
        let set = PointSet::from_points(pts);
        let queries = PointSet::from_points(vec![
            Point3::new(far, far * 0.5, -far),
            Point3::new(-far, 0.0, 0.0),
            Point3::new(0.0, 0.0, far),
            set.point(0),
        ]);
        let want = golden::k_nearest_neighbors(&set, &queries, k);
        for (qi, want_q) in want.iter().enumerate() {
            prop_assert_eq!(
                &idx.knn(queries.point(qi), k), want_q,
                "shape={} far={} q={}", shape, far, qi
            );
        }
    }
}

// ---------------------------------------------------------------------
// Serving scenario on the simulated clock
// ---------------------------------------------------------------------

fn scenario_opts() -> StreamOptions {
    StreamOptions {
        seed: 9,
        frames: 10,
        points_hint: 2_000,
        period: Duration::from_millis(100),
        slo: Duration::from_millis(100),
        dwell_after: Some(5),
        ..StreamOptions::default()
    }
}

#[test]
fn serve_stream_meets_slo_and_compiles_nothing_in_steady_state() {
    let engine = Accelerator::new(PointAccConfig::full());
    let net = zoo::minknet_outdoor();
    let report = serve_stream(&engine, &net, &SimClock::new(), &scenario_opts()).unwrap();
    assert_eq!(report.records.len(), 10);
    assert_eq!(report.slo_attainment(), 1.0, "max latency {:?}", report.max_latency());
    assert!(report.max_latency() <= Duration::from_millis(100));
    let steady = &report.records[6..];
    assert!(steady.iter().all(|r| r.reused), "steady state compiled: {steady:?}");
    assert!(report.amortized_points_per_s() > report.cold_points_per_s());
}

#[test]
fn serve_stream_is_a_pure_function_of_its_options() {
    let engine = Accelerator::new(PointAccConfig::full());
    let net = zoo::minknet_outdoor();
    let a = serve_stream(&engine, &net, &SimClock::new(), &scenario_opts()).unwrap();
    let b = serve_stream(&engine, &net, &SimClock::new(), &scenario_opts()).unwrap();
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.reused, rb.reused);
        assert_eq!(ra.service, rb.service);
        assert_eq!(ra.latency, rb.latency);
    }
}

/// Each frame of the stream `opts` describes, rebuilt independently of
/// [`serve_stream`], with the trace fingerprint and report of a fresh
/// compile.
fn fresh_frames(
    engine: &dyn Engine,
    net: &Network,
    opts: &StreamOptions,
) -> Vec<(PointSet, u64, EngineReport)> {
    let mut stream = FrameStream::new(opts.seed, opts.points_hint, ScanProfile::semantic_kitti());
    stream.set_motion(opts.ego_step, opts.churn_cols);
    let exec = Executor::new(ExecMode::TraceOnly, opts.seed);
    (0..opts.frames)
        .map(|k| {
            if opts.dwell_after == Some(k) {
                stream.set_motion(0.0, Some(0));
            }
            let frame = stream.next_frame();
            let trace = exec.try_run(net, &frame).unwrap().trace;
            (frame, trace.fingerprint(), engine.evaluate(&trace))
        })
        .collect()
}

/// Every record against an independent replay of its frame: the same
/// stream rebuilt from the options, each frame compiled and evaluated
/// afresh. A frame is reused exactly when its bits repeat the previous
/// frame's, and a reused frame is priced as the fresh compile's total
/// minus its mapping phase.
#[test]
fn serve_stream_records_match_fresh_compiles() {
    let engine = Accelerator::new(PointAccConfig::full());
    let net = zoo::minknet_outdoor();
    let opts = scenario_opts();
    let report = serve_stream(&engine, &net, &SimClock::new(), &opts).unwrap();
    let fresh = fresh_frames(&engine, &net, &opts);
    assert_eq!(report.records.len(), fresh.len());
    for (k, (record, (frame, _, want))) in report.records.iter().zip(&fresh).enumerate() {
        assert_eq!(record.index, k);
        assert_eq!(record.points, frame.len());
        let repeats = k > 0 && bits(&fresh[k - 1].0) == bits(frame);
        assert_eq!(record.reused, repeats, "frame {k}");
        assert_eq!(record.full_service, Duration::from_secs_f64(want.total.0), "frame {k}");
        let service = if repeats { want.total.0 - want.mapping.0 } else { want.total.0 };
        assert_eq!(record.service, Duration::from_secs_f64(service), "frame {k}");
    }
    assert!(report.records.iter().any(|r| r.reused) && report.records.iter().any(|r| !r.reused));
}

/// A stream that never moves: frame 0 compiles, every later frame
/// repeats it bit for bit and reuses its report, and a fresh compile of
/// each repeat gives frame 0's trace fingerprint and report.
#[test]
fn exact_reuse_matches_fresh_compile_fingerprint() {
    let engine = Accelerator::new(PointAccConfig::full());
    let net = zoo::minknet_outdoor();
    let opts = StreamOptions {
        seed: 5,
        frames: 4,
        points_hint: 1_500,
        dwell_after: Some(0),
        ..StreamOptions::default()
    };
    let report = serve_stream(&engine, &net, &SimClock::new(), &opts).unwrap();
    let reused: Vec<bool> = report.records.iter().map(|r| r.reused).collect();
    assert_eq!(reused, [false, true, true, true], "exactly one compile");
    let fresh = fresh_frames(&engine, &net, &opts);
    let (cold, cold_fingerprint, _) = &fresh[0];
    for (k, (frame, fingerprint, want)) in fresh.iter().enumerate().skip(1) {
        assert_eq!(bits(frame), bits(cold), "frame {k}");
        // The reused report stands for the compiled trace, byte for byte.
        assert_eq!(fingerprint, cold_fingerprint, "frame {k}");
        let record = &report.records[k];
        assert_eq!(record.full_service, report.records[0].full_service, "frame {k}");
        assert_eq!(record.full_service, Duration::from_secs_f64(want.total.0), "frame {k}");
    }
}

/// A stream that keeps moving: no frame repeats its predecessor's trace,
/// so every frame compiles and is priced as a fresh compile of it.
#[test]
fn moving_frames_recompile_and_still_match_fresh_compiles() {
    let engine = Accelerator::new(PointAccConfig::full());
    let net = zoo::minknet_outdoor();
    let opts = StreamOptions { seed: 6, frames: 4, points_hint: 1_500, ..StreamOptions::default() };
    let report = serve_stream(&engine, &net, &SimClock::new(), &opts).unwrap();
    let fresh = fresh_frames(&engine, &net, &opts);
    for (k, pair) in fresh.windows(2).enumerate() {
        assert_ne!(pair[0].1, pair[1].1, "frame {} kept its predecessor's trace", k + 1);
    }
    assert_eq!(report.records.len(), fresh.len());
    for (k, (record, (_, _, want))) in report.records.iter().zip(&fresh).enumerate() {
        assert!(!record.reused, "moving frame {k} reused a stale report");
        assert_eq!(record.service, record.full_service, "frame {k}");
        assert_eq!(record.full_service, Duration::from_secs_f64(want.total.0), "frame {k}");
    }
}
