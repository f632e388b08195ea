//! Persistent trace artifacts: serialize→deserialize bit-exactness on
//! randomized traces and kernel maps, typed rejection of damaged or
//! wrong-version files, and a real-benchmark warm start through the
//! trace cache's disk tier.
//!
//! The artifact codec is the only part of the workspace that parses
//! bytes it did not just produce, so the properties here are its safety
//! contract: every stream [`encode`](artifact::encode) emits decodes to
//! an equal `(key, trace)` pair and re-encodes to the same bytes, while
//! any truncation or bit flip is rejected with an [`ArtifactError`] —
//! never a panic, never a silently wrong trace.

use pointacc_bench::cache::TraceCache;
use pointacc_bench::{benchmark_trace_at, benchmark_trace_key};
use pointacc_geom::{MapEntry, MapTable};
use pointacc_nn::{
    artifact, zoo, Aggregation, ComputeKind, LayerTrace, MappingOp, NetworkTrace, TraceKey,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random CSR kernel map with `n_weights` groups over plausible
/// index ranges — including empty groups and the empty table.
fn random_map_table(rng: &mut StdRng, n_in: usize, n_out: usize) -> MapTable {
    let n_weights = rng.gen_range(1usize..28);
    let n_entries = rng.gen_range(0usize..64);
    let entries = (0..n_entries)
        .map(|_| {
            MapEntry::new(
                rng.gen_range(0u32..n_in as u32),
                rng.gen_range(0u32..n_out as u32),
                rng.gen_range(0u16..n_weights as u16),
            )
        })
        .collect();
    MapTable::from_entries(entries, n_weights)
}

fn random_mapping_op(rng: &mut StdRng) -> MappingOp {
    let n_in = rng.gen_range(1usize..100_000);
    let n_out = rng.gen_range(1usize..100_000);
    match rng.gen_range(0u8..6) {
        0 => MappingOp::Quantize { n_in, n_out },
        1 => MappingOp::KernelMap {
            n_in,
            n_out,
            kernel_volume: rng.gen_range(1usize..28),
            n_maps: rng.gen_range(0usize..1_000_000),
        },
        2 => MappingOp::Fps { n_in, n_out },
        3 => MappingOp::Knn { n_in, n_queries: n_out, k: rng.gen_range(1usize..64) },
        4 => MappingOp::BallQuery { n_in, n_queries: n_out, k: rng.gen_range(1usize..64) },
        _ => MappingOp::KnnFeature {
            n_in,
            n_queries: n_out,
            k: rng.gen_range(1usize..64),
            dim: rng.gen_range(1usize..512),
        },
    }
}

fn random_layer(rng: &mut StdRng, idx: usize) -> LayerTrace {
    const COMPUTES: [ComputeKind; 5] = [
        ComputeKind::SparseConv,
        ComputeKind::Grouped,
        ComputeKind::Dense,
        ComputeKind::Interpolate,
        ComputeKind::Pool,
    ];
    const AGGS: [Aggregation; 3] = [Aggregation::Sum, Aggregation::Max, Aggregation::None];
    let n_in = rng.gen_range(1usize..512);
    let n_out = rng.gen_range(1usize..512);
    let maps = if rng.gen_bool(0.7) { Some(random_map_table(rng, n_in, n_out)) } else { None };
    let n_ops = rng.gen_range(0usize..4);
    LayerTrace {
        name: format!("layer{idx}.op{}", rng.gen_range(0u32..1000)),
        compute: COMPUTES[rng.gen_range(0usize..COMPUTES.len())],
        n_in,
        n_out,
        in_ch: rng.gen_range(1usize..256),
        out_ch: rng.gen_range(1usize..256),
        maps,
        mapping: (0..n_ops).map(|_| random_mapping_op(rng)).collect(),
        aggregation: AGGS[rng.gen_range(0usize..AGGS.len())],
        pool_group: if rng.gen_bool(0.3) { Some(rng.gen_range(1usize..64)) } else { None },
        fusable: rng.gen_bool(0.5),
    }
}

/// A fully random `(key, trace)` pair — the whole structure the codec
/// must carry, including non-ASCII names and the zero-layer trace.
fn random_artifact(seed: u64) -> (TraceKey, NetworkTrace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = ["PointNet", "MinkNet(i)", "DGCNN", "Net-π", "a b/c"];
    let network = names[rng.gen_range(0usize..names.len())].to_string();
    let n_layers = rng.gen_range(0usize..6);
    let layers = (0..n_layers).map(|i| random_layer(&mut rng, i)).collect();
    let trace = NetworkTrace {
        network: network.clone(),
        input_desc: format!("synthetic ({} pts)", rng.gen_range(1usize..100_000)),
        layers,
    };
    let key = TraceKey {
        network,
        seed: rng.gen_range(0u64..u64::MAX),
        scale_ppm: rng.gen_range(0u64..10_000_000),
    };
    (key, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_is_bit_exact(seed in 0u64..1_000_000) {
        let (key, trace) = random_artifact(seed);
        let bytes = artifact::encode(&key, &trace);
        let (key2, trace2) = artifact::decode(&bytes).expect("own bytes must decode");
        prop_assert_eq!(&key2, &key);
        prop_assert_eq!(&trace2, &trace);
        prop_assert_eq!(trace2.fingerprint(), trace.fingerprint());
        // Determinism closes the loop: re-encoding the decoded pair
        // reproduces the byte stream exactly.
        prop_assert_eq!(artifact::encode(&key2, &trace2), bytes);
    }

    #[test]
    fn any_truncation_is_rejected(seed in 0u64..1_000_000, cut_sel in 0u64..u64::MAX) {
        let (key, trace) = random_artifact(seed);
        let bytes = artifact::encode(&key, &trace);
        let cut = (cut_sel % bytes.len() as u64) as usize;
        prop_assert!(
            artifact::decode(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte artifact must be rejected",
            bytes.len()
        );
    }

    #[test]
    fn any_bit_flip_is_rejected(seed in 0u64..1_000_000, flip_sel in 0u64..u64::MAX) {
        let (key, trace) = random_artifact(seed);
        let mut bytes = artifact::encode(&key, &trace);
        let byte = (flip_sel % bytes.len() as u64) as usize;
        let bit = (flip_sel / bytes.len() as u64 % 8) as u32;
        bytes[byte] ^= 1 << bit;
        prop_assert!(
            artifact::decode(&bytes).is_err(),
            "flipping bit {bit} of byte {byte} must be rejected"
        );
    }
}

#[test]
fn wrong_version_files_are_rejected_with_the_version() {
    let (key, trace) = random_artifact(7);
    let mut bytes = artifact::encode(&key, &trace);
    for version in [0u32, 2, artifact::FORMAT_VERSION + 1, u32::MAX] {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            artifact::decode(&bytes),
            Err(artifact::ArtifactError::UnsupportedVersion(version)),
            "version {version} must be rejected before any body parsing"
        );
    }
}

#[test]
fn garbage_files_yield_typed_errors_not_panics() {
    assert!(artifact::decode(&[]).is_err());
    assert!(artifact::decode(b"PACCTRC1").is_err());
    assert!(artifact::decode(&[0xFF; 4096]).is_err());
    let mut rng = StdRng::seed_from_u64(99);
    for len in [1usize, 20, 21, 100, 1000] {
        let noise: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        assert!(artifact::decode(&noise).is_err(), "random {len}-byte noise must be rejected");
    }
}

/// The acceptance criterion end to end on a real benchmark: compile a
/// MinkowskiNet trace (real kernel-map tables) through a disk-tier
/// cache, then warm-start a second cache from the same directory — zero
/// compiles, and the loaded trace is bit-exactly the compiled one.
#[test]
fn real_benchmark_warm_start_is_bit_exact() {
    let bench = zoo::benchmarks()
        .into_iter()
        .find(|b| b.notation == "MinkNet(i)")
        .expect("Table 2 lists MinkNet(i)");
    let scale = 0.02;
    let dir =
        std::env::temp_dir().join(format!("pointacc-artifact-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = benchmark_trace_key(&bench, 42, scale);

    let cold = TraceCache::new().with_artifact_dir(&dir);
    let compiled = cold.get_or_build(&key, || benchmark_trace_at(&bench, 42, scale));
    assert!(compiled.layers.iter().any(|l| l.maps.is_some()), "MinkNet traces carry map tables");
    assert_eq!(cold.stats().compiles, 1);

    let warm = TraceCache::new().with_artifact_dir(&dir);
    let loaded = warm.get_or_build(&key, || panic!("warm start must not compile"));
    assert_eq!(warm.stats().compiles, 0, "second run compiles zero traces");
    assert_eq!(warm.stats().disk_hits, 1);
    assert_eq!(*loaded, *compiled, "loaded trace equals the freshly compiled one");
    assert_eq!(loaded.fingerprint(), compiled.fingerprint());
    assert_eq!(loaded.total_macs(), compiled.total_macs());
    assert_eq!(loaded.total_maps(), compiled.total_maps());
    let _ = std::fs::remove_dir_all(&dir);
}
