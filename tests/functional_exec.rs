//! Functional correctness of the reference executor on real synthetic
//! data: exact shapes, value sanity, and agreement between the systolic
//! functional model and plain matmul inside a real network layer.

use pointacc_data::Dataset;
use pointacc_geom::FeatureMatrix;
use pointacc_nn::{zoo, ExecMode, ExecOptions, Executor};
use pointacc_sim::SystolicArray;

#[test]
fn classification_networks_emit_class_logits() {
    let pts = Dataset::ModelNet40.generate(1, 256);
    for (net, classes) in
        [(zoo::pointnet(), 40), (zoo::pointnet_pp_classification(), 40), (zoo::dgcnn(), 40)]
    {
        let out = Executor::new(ExecMode::Full, 5).run(&net, &pts);
        assert_eq!(out.features.rows(), 1, "{}", net.name());
        assert_eq!(out.features.cols(), classes, "{}", net.name());
        assert!(
            out.features.row(0).iter().all(|v| v.is_finite()),
            "{} produced non-finite logits",
            net.name()
        );
    }
}

#[test]
fn segmentation_networks_emit_per_point_logits() {
    let pts = Dataset::S3dis.generate(2, 512);
    let out = Executor::new(ExecMode::Full, 5).run(&zoo::pointnet_pp_segmentation(), &pts);
    assert_eq!(out.features.rows(), 512);
    assert_eq!(out.features.cols(), 13);
}

#[test]
fn voxel_network_preserves_resolution_through_unet() {
    let pts = Dataset::S3dis.generate(3, 2000);
    let out = Executor::new(ExecMode::Full, 5).run(&zoo::mini_minkunet(), &pts);
    let (voxels, _) = pts.voxelize(0.05);
    assert_eq!(out.features.rows(), voxels.len());
    assert_eq!(out.features.cols(), 13);
}

#[test]
fn minkowski_net_full_mode_produces_nonzero_per_voxel_features() {
    let pts = Dataset::S3dis.generate(42, 400);
    let out = Executor::new(ExecMode::Full, 42).run(&zoo::minkowski_net(), &pts);
    let (voxels, _) = pts.voxelize(0.05);
    assert_eq!(out.features.rows(), voxels.len(), "U-Net restores input resolution");
    assert_eq!(out.features.cols(), 20, "MinkowskiNet emits 20 class channels");
    assert!(out.features.data().iter().all(|v| v.is_finite()), "features must be finite");
    let nonzero = out.features.data().iter().filter(|&&v| v != 0.0).count();
    assert!(
        nonzero > 0,
        "ExecMode::Full must compute real sparse-conv features, not the trace-only zeros"
    );
}

#[test]
fn minkowski_net_full_and_trace_only_produce_identical_traces() {
    let pts = Dataset::S3dis.generate(7, 400);
    let net = zoo::minkowski_net();
    let full = Executor::new(ExecMode::Full, 7).run(&net, &pts);
    let fast = Executor::new(ExecMode::TraceOnly, 7).run(&net, &pts);
    assert_eq!(full.trace.layers.len(), fast.trace.layers.len());
    assert_eq!(full.trace.total_macs(), fast.trace.total_macs());
    assert_eq!(full.trace.total_maps(), fast.trace.total_maps());
    assert_eq!(full.trace.total_mapping_ops(), fast.trace.total_mapping_ops());
    for (a, b) in full.trace.layers.iter().zip(&fast.trace.layers) {
        assert_eq!(
            (a.n_in, a.n_out, a.in_ch, a.out_ch),
            (b.n_in, b.n_out, b.in_ch, b.out_ch),
            "{}",
            a.name
        );
        assert_eq!(a.maps, b.maps, "{}: sparse kernel maps must not depend on fidelity", a.name);
    }
    // TraceOnly skips the arithmetic entirely.
    assert!(fast.features.data().iter().all(|&v| v == 0.0));
}

#[test]
fn minkowski_net_features_are_seed_deterministic() {
    let pts = Dataset::S3dis.generate(11, 300);
    let net = zoo::minkowski_net();
    let a = Executor::new(ExecMode::Full, 9).run(&net, &pts);
    let b = Executor::new(ExecMode::Full, 9).run(&net, &pts);
    assert_eq!(a.features, b.features, "same seed must be bit-identical");
    let c = Executor::new(ExecMode::Full, 10).run(&net, &pts);
    assert_ne!(a.features, c.features, "different weight seeds must differ");
}

#[test]
fn parallel_sparse_conv_is_bit_identical_across_worker_counts() {
    // The gather-GEMM-scatter loop computes per-weight partials in
    // parallel but scatters them in one serial pass in ascending weight
    // order, so the float-addition order — and every feature bit — must
    // not depend on the worker count. `conv_workers` overrides the
    // process-wide POINTACC_THREADS count (read once per process), so a
    // single test run covers serial, two-way and wide configurations.
    let pts = Dataset::S3dis.generate(13, 500);
    let net = zoo::minkowski_net();
    let serial = Executor::new(ExecMode::Full, 13)
        .with_options(ExecOptions { conv_workers: Some(1) })
        .run(&net, &pts);
    for workers in [2usize, 3, 8] {
        let parallel = Executor::new(ExecMode::Full, 13)
            .with_options(ExecOptions { conv_workers: Some(workers) })
            .run(&net, &pts);
        assert_eq!(
            serial.features, parallel.features,
            "{workers}-worker conv features diverged from serial"
        );
    }
    // The default (auto-threaded) executor matches too.
    let auto = Executor::new(ExecMode::Full, 13).run(&net, &pts);
    assert_eq!(serial.features, auto.features);
}

#[test]
fn systolic_functional_model_matches_reference_matmul() {
    // Shapes taken from a real SA layer of PointNet++(c).
    let a =
        FeatureMatrix::from_fn(512 * 32, 67, |r, c| ((r * 31 + c * 17) % 101) as f32 * 0.01 - 0.5);
    let b = FeatureMatrix::from_fn(67, 64, |r, c| ((r * 13 + c * 7) % 89) as f32 * 0.01 - 0.4);
    for (rows, cols) in [(16, 16), (64, 64)] {
        let arr = SystolicArray::new(rows, cols);
        let got = arr.matmul_functional(&a, &b);
        let want = a.matmul(&b);
        let diff = got.max_abs_diff(&want).expect("same shape");
        assert!(diff < 1e-2, "{rows}x{cols}: max diff {diff}");
    }
}

#[test]
fn full_and_trace_only_agree_on_all_costs() {
    let pts = Dataset::ShapeNet.generate(4, 300);
    let net = zoo::pointnet_pp_part_seg();
    let full = Executor::new(ExecMode::Full, 8).run(&net, &pts).trace;
    let fast = Executor::new(ExecMode::TraceOnly, 8).run(&net, &pts).trace;
    assert_eq!(full.total_macs(), fast.total_macs());
    assert_eq!(full.total_maps(), fast.total_maps());
    assert_eq!(full.total_mapping_ops(), fast.total_mapping_ops());
}
