//! Mutation tests for the static trace verifier on a *real* MinkowskiNet
//! trace: each test clones the compiled trace, corrupts exactly one
//! aspect (CSR offsets, map indices, layer shapes, skip domains,
//! aggregation/pool/fusability metadata), and asserts that
//! [`verify_trace`] rejects it with the precise [`VerifyError`] variant
//! naming the mutated layer — plus a property that every trace served
//! through the cache verifies clean.
//!
//! CSR violations themselves (non-monotone or non-covering offsets) are
//! unrepresentable in a live [`MapTable`]: every constructor validates,
//! so those mutations are asserted at the [`MapTable::try_from_soa`]
//! boundary, which returns the same typed [`MapTableError`]s that
//! [`verify_trace`] surfaces as `MalformedTable` when a deserialized
//! table crosses it.

use std::sync::OnceLock;

use pointacc_bench::cache::TraceCache;
use pointacc_bench::{benchmark_trace_at, benchmark_trace_key};
use pointacc_geom::{MapTable, MapTableError};
use pointacc_nn::{
    artifact, verify_trace, zoo, Aggregation, ComputeKind, MappingOp, NetworkTrace, TraceKey,
    VerifyError,
};
use proptest::prelude::*;

const SCALE: f64 = 0.02;

/// One compiled MinkNet(i) trace shared by every mutation test (the
/// compile is the expensive part; each test clones and corrupts it).
fn minknet() -> &'static (TraceKey, NetworkTrace) {
    static TRACE: OnceLock<(TraceKey, NetworkTrace)> = OnceLock::new();
    TRACE.get_or_init(|| {
        let bench = zoo::benchmarks()
            .into_iter()
            .find(|b| b.notation == "MinkNet(i)")
            .expect("Table 2 lists MinkNet(i)");
        let key = benchmark_trace_key(&bench, 42, SCALE);
        (key, benchmark_trace_at(&bench, 42, SCALE))
    })
}

/// Index of the first layer carrying a non-empty map table.
fn first_mapped_layer(trace: &NetworkTrace) -> usize {
    trace
        .layers
        .iter()
        .position(|l| l.maps.as_ref().is_some_and(|m| !m.is_empty()))
        .expect("MinkNet traces carry map tables")
}

/// Index of the first sparse-conv layer.
fn first_sparse_layer(trace: &NetworkTrace) -> usize {
    trace
        .layers
        .iter()
        .position(|l| l.compute == ComputeKind::SparseConv)
        .expect("MinkNet is built from sparse convs")
}

/// Index of the first transposed conv: a sparse conv whose single
/// mapping op spans two resolutions (the decoder's upsampling path).
fn first_transposed_layer(trace: &NetworkTrace) -> usize {
    trace
        .layers
        .iter()
        .position(|l| {
            l.compute == ComputeKind::SparseConv && l.mapping.len() == 1 && l.n_in != l.n_out
        })
        .expect("MinkUNet decoders hold transposed convs")
}

/// Index of the first strided downsampling conv (Quantize + KernelMap).
fn first_downsample_layer(trace: &NetworkTrace) -> usize {
    trace
        .layers
        .iter()
        .position(|l| l.compute == ComputeKind::SparseConv && l.mapping.len() == 2)
        .expect("MinkUNet encoders hold strided convs")
}

#[test]
fn minknet_trace_verifies_clean() {
    let (key, trace) = minknet();
    let report = verify_trace(key, trace).expect("freshly compiled trace");
    assert_eq!(report.layers, trace.layers.len());
    assert_eq!(report.map_entries, trace.total_maps());
    assert!(report.tables >= 4, "MinkNet holds several kernel-map tables");
}

#[test]
fn csr_offset_mutations_cannot_even_construct_a_table() {
    let (_, trace) = minknet();
    let m = trace.layers[first_mapped_layer(trace)].maps.as_ref().unwrap();
    let (inputs, outputs) = (m.inputs().to_vec(), m.outputs().to_vec());

    // Flip the leading offset off zero.
    let mut offs = m.offsets().to_vec();
    offs[0] += 1;
    assert!(matches!(
        MapTable::try_from_soa(inputs.clone(), outputs.clone(), offs),
        Err(MapTableError::OffsetsStartNonzero(1))
    ));

    // Permute an ascending adjacent pair (past the pinned-to-zero
    // leading offset): monotonicity breaks.
    let mut offs = m.offsets().to_vec();
    let j = (1..offs.len() - 1)
        .find(|&j| offs[j] < offs[j + 1])
        .expect("a populated table ascends somewhere past offset 0");
    offs.swap(j, j + 1);
    assert!(matches!(
        MapTable::try_from_soa(inputs.clone(), outputs.clone(), offs),
        Err(MapTableError::OffsetsNotMonotone)
    ));

    // Stretch the final offset past the arrays: coverage breaks.
    let mut offs = m.offsets().to_vec();
    *offs.last_mut().unwrap() += 1;
    assert!(matches!(
        MapTable::try_from_soa(inputs, outputs, offs),
        Err(MapTableError::OffsetsDoNotCover { .. })
    ));
}

#[test]
fn out_of_range_input_index_is_rejected_with_location() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_mapped_layer(&trace);
    let l = &mut trace.layers[li];
    let bound = l.n_in;
    let m = l.maps.as_mut().unwrap();
    let mut inputs = m.inputs().to_vec();
    inputs[0] = bound as u32;
    *m = MapTable::try_from_soa(inputs, m.outputs().to_vec(), m.offsets().to_vec()).unwrap();
    match verify_trace(key, &trace).unwrap_err() {
        VerifyError::InputIndexOutOfBounds { layer, index, bound: b, .. } => {
            assert_eq!(layer, li);
            assert_eq!(index as usize, bound);
            assert_eq!(b, bound);
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn out_of_range_output_index_is_rejected_with_location() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_mapped_layer(&trace);
    let l = &mut trace.layers[li];
    let bound = l.n_out;
    let m = l.maps.as_mut().unwrap();
    let mut outputs = m.outputs().to_vec();
    let last = outputs.len() - 1;
    outputs[last] = bound as u32 + 9;
    *m = MapTable::try_from_soa(m.inputs().to_vec(), outputs, m.offsets().to_vec()).unwrap();
    match verify_trace(key, &trace).unwrap_err() {
        VerifyError::OutputIndexOutOfBounds { layer, index, bound: b, .. } => {
            assert_eq!(layer, li);
            assert_eq!(index as usize, bound + 9);
            assert_eq!(b, bound);
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn row_mutation_breaks_the_dataflow_chain() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = 1; // any non-first layer: its rows must match upstream
    let expected = trace.layers[li].n_in;
    trace.layers[li].n_in += 1;
    assert_eq!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::RowMismatch { layer: li, expected, found: expected + 1 }
    );
}

#[test]
fn channel_mutation_breaks_the_dataflow_chain() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = 1;
    let expected = trace.layers[li].in_ch;
    trace.layers[li].in_ch += 1;
    assert_eq!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::ChannelMismatch { layer: li, expected, found: expected + 1 }
    );
}

#[test]
fn zeroed_shape_is_rejected_before_anything_else() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    trace.layers[0].out_ch = 0;
    assert_eq!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::EmptyShape { layer: 0, what: "out_ch" }
    );
}

#[test]
fn quantize_shape_mutation_is_pinned_to_the_op() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_downsample_layer(&trace);
    match &mut trace.layers[li].mapping[0] {
        MappingOp::Quantize { n_out, .. } => *n_out += 1,
        other => panic!("downsample conv leads with Quantize, got {other:?}"),
    }
    assert!(matches!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::MappingShape { layer, op: 0, .. } if layer == li
    ));
}

#[test]
fn kernel_volume_mutation_is_rejected() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_downsample_layer(&trace);
    let groups = trace.layers[li].maps.as_ref().unwrap().n_weights();
    match &mut trace.layers[li].mapping[1] {
        MappingOp::KernelMap { kernel_volume, .. } => *kernel_volume += 1,
        other => panic!("downsample conv ends with KernelMap, got {other:?}"),
    }
    assert_eq!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::KernelVolumeMismatch { layer: li, declared: groups + 1, groups }
    );
}

#[test]
fn map_count_mutation_is_rejected() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_downsample_layer(&trace);
    let found = trace.layers[li].maps.as_ref().unwrap().len();
    match &mut trace.layers[li].mapping[1] {
        MappingOp::KernelMap { n_maps, .. } => *n_maps += 1,
        other => panic!("downsample conv ends with KernelMap, got {other:?}"),
    }
    assert_eq!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::MapCountMismatch { layer: li, declared: found + 1, found }
    );
}

/// Grow a transposed conv's output domain (keeping its mapping op
/// consistent with the new shape, so the shape checks pass): the layer
/// no longer matches the encoder level on the skip stack.
#[test]
fn skip_domain_mutation_is_rejected() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_transposed_layer(&trace);
    let orig = trace.layers[li].n_out;
    // +1, or +2 if that would collapse the trace back to unit stride.
    let delta = if orig + 1 == trace.layers[li].n_in { 2 } else { 1 };
    trace.layers[li].n_out = orig + delta;
    match &mut trace.layers[li].mapping[0] {
        // The op records the forward fine→coarse construction, so its
        // input side is the layer's (fine) output domain.
        MappingOp::KernelMap { n_in, .. } => *n_in = orig + delta,
        other => panic!("transposed conv maps with KernelMap, got {other:?}"),
    }
    assert_eq!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::SkipDomainMismatch { layer: li, skip_rows: orig, n_out: orig + delta }
    );
}

#[test]
fn aggregation_flip_is_rejected() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_sparse_layer(&trace);
    trace.layers[li].aggregation = Aggregation::Max;
    assert_eq!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::AggregationMismatch {
            layer: li,
            expected: Aggregation::Sum,
            found: Aggregation::Max,
        }
    );
}

#[test]
fn pool_group_on_a_conv_is_rejected() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_sparse_layer(&trace);
    trace.layers[li].pool_group = Some(3);
    assert!(matches!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::PoolGroup { layer, .. } if layer == li
    ));
}

#[test]
fn fusability_flip_is_rejected() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_sparse_layer(&trace);
    trace.layers[li].fusable = true;
    assert_eq!(
        verify_trace(key, &trace).unwrap_err(),
        VerifyError::Fusability { layer: li, expected: false }
    );
}

#[test]
fn dropped_map_table_is_rejected() {
    let (key, trace) = minknet();
    let mut trace = trace.clone();
    let li = first_sparse_layer(&trace);
    trace.layers[li].maps = None;
    assert_eq!(verify_trace(key, &trace).unwrap_err(), VerifyError::MissingMaps { layer: li });
}

/// The acceptance criterion at the artifact boundary: a structurally
/// corrupt trace written through the *honest* encoder (checksum freshly
/// computed over the corrupt body) must be rejected by the verifier at
/// load — not executed.
#[test]
fn corrupt_but_checksum_valid_artifact_is_rejected_at_load() {
    let (key, trace) = minknet();
    let mut mutated = trace.clone();
    let li = first_sparse_layer(&mutated);
    mutated.layers[li].fusable = true;

    let dir = std::env::temp_dir().join(format!("pointacc-verify-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    artifact::save(&dir, key, &mutated).expect("save does not verify; load does");
    match artifact::load(&dir, key) {
        Err(artifact::ArtifactError::Rejected(VerifyError::Fusability { layer, .. })) => {
            assert_eq!(layer, li);
        }
        other => panic!("checksum-valid corrupt artifact must be Rejected, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every trace served through the cache verifies clean — across the
    /// whole zoo and varying seeds, on both the build and audit paths.
    #[test]
    fn every_cache_served_trace_verifies_clean(which in 0usize..8, seed in 0u64..1000) {
        let benches = zoo::benchmarks();
        let bench = &benches[which % benches.len()];
        let key = benchmark_trace_key(bench, seed, SCALE);
        let cache = TraceCache::new();
        let served = cache.get_or_build(&key, || benchmark_trace_at(bench, seed, SCALE));
        prop_assert!(verify_trace(&key, &served).is_ok(), "{} must verify", bench.notation);
        prop_assert_eq!(cache.verify_all().expect("cached traces re-verify"), 1);
        prop_assert_eq!(cache.stats().verify_rejects, 0);
    }
}
