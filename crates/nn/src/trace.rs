//! Execution traces: the interface between the functional executor and
//! every performance model (PointAcc, CPU/GPU/TPU baselines, Mesorasi).
//!
//! The reference executor records, for every executed layer, the exact
//! map table, matrix dimensions and mapping operations — everything a
//! timing model needs to replay the layer on its hardware.

use pointacc_geom::MapTable;

/// A mapping operation executed before a layer (paper §2.1). The fields
/// carry the sizes a hardware model needs to cost the operation.
#[derive(Clone, Debug, PartialEq)]
pub enum MappingOp {
    /// Output cloud construction by coordinate quantization.
    Quantize {
        /// Input points.
        n_in: usize,
        /// Output (deduplicated) points.
        n_out: usize,
    },
    /// Kernel mapping between an input and an output cloud.
    KernelMap {
        /// Input points.
        n_in: usize,
        /// Output points.
        n_out: usize,
        /// Number of kernel offsets (kernel_size³).
        kernel_volume: usize,
        /// Total maps found.
        n_maps: usize,
    },
    /// Farthest point sampling.
    Fps {
        /// Input points.
        n_in: usize,
        /// Sampled output points (= iterations).
        n_out: usize,
    },
    /// k-nearest-neighbors on point coordinates.
    Knn {
        /// Input points scanned per query.
        n_in: usize,
        /// Number of queries.
        n_queries: usize,
        /// Neighbors kept.
        k: usize,
    },
    /// Ball query (radius-limited top-k).
    BallQuery {
        /// Input points scanned per query.
        n_in: usize,
        /// Number of queries.
        n_queries: usize,
        /// Neighbors kept.
        k: usize,
    },
    /// k-NN in feature space (DGCNN); distance cost scales with the
    /// feature dimension.
    KnnFeature {
        /// Input rows scanned per query.
        n_in: usize,
        /// Number of queries.
        n_queries: usize,
        /// Neighbors kept.
        k: usize,
        /// Feature dimensionality of the distance computation.
        dim: usize,
    },
}

impl MappingOp {
    /// Number of scalar distance/compare operations a brute-force
    /// implementation performs (the CPU/GPU cost driver).
    pub fn scalar_ops(&self) -> u64 {
        match *self {
            MappingOp::Quantize { n_in, .. } => n_in as u64,
            MappingOp::KernelMap { n_in, n_out, kernel_volume, .. } => {
                // One hash probe per (output, offset) + table build.
                (n_out as u64) * kernel_volume as u64 + n_in as u64
            }
            MappingOp::Fps { n_in, n_out } => (n_in as u64) * n_out as u64,
            MappingOp::Knn { n_in, n_queries, .. }
            | MappingOp::BallQuery { n_in, n_queries, .. } => (n_in as u64) * n_queries as u64,
            MappingOp::KnnFeature { n_in, n_queries, dim, .. } => {
                (n_in as u64) * n_queries as u64 * dim as u64
            }
        }
    }
}

impl MappingOp {
    /// Stable wire/fingerprint tag of the operation kind.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            MappingOp::Quantize { .. } => 0,
            MappingOp::KernelMap { .. } => 1,
            MappingOp::Fps { .. } => 2,
            MappingOp::Knn { .. } => 3,
            MappingOp::BallQuery { .. } => 4,
            MappingOp::KnnFeature { .. } => 5,
        }
    }

    /// The operation's size fields in declaration order (the payload of
    /// its wire encoding, which the fingerprint hashes).
    pub(crate) fn fields(&self) -> Vec<u64> {
        match *self {
            MappingOp::Quantize { n_in, n_out } => vec![n_in as u64, n_out as u64],
            MappingOp::KernelMap { n_in, n_out, kernel_volume, n_maps } => {
                vec![n_in as u64, n_out as u64, kernel_volume as u64, n_maps as u64]
            }
            MappingOp::Fps { n_in, n_out } => vec![n_in as u64, n_out as u64],
            MappingOp::Knn { n_in, n_queries, k } => vec![n_in as u64, n_queries as u64, k as u64],
            MappingOp::BallQuery { n_in, n_queries, k } => {
                vec![n_in as u64, n_queries as u64, k as u64]
            }
            MappingOp::KnnFeature { n_in, n_queries, k, dim } => {
                vec![n_in as u64, n_queries as u64, k as u64, dim as u64]
            }
        }
    }
}

/// How a layer's matrix computation consumes its inputs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ComputeKind {
    /// Map-guided sparse convolution: gather by weight, per-offset
    /// matmul, scatter-accumulate by output.
    SparseConv,
    /// Shared-weight matmul over gathered neighborhood rows
    /// (PointNet++-style; `maps` describe the gather).
    Grouped,
    /// Dense point-wise FC (rows already contiguous; fusable).
    Dense,
    /// Map-guided interpolation (feature propagation): one
    /// multiply-accumulate per map per channel, no weight matrix.
    Interpolate,
    /// Pure reduction (global max pool): no MACs.
    Pool,
}

impl ComputeKind {
    /// Stable wire/fingerprint tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            ComputeKind::SparseConv => 0,
            ComputeKind::Grouped => 1,
            ComputeKind::Dense => 2,
            ComputeKind::Interpolate => 3,
            ComputeKind::Pool => 4,
        }
    }

    /// Inverse of [`ComputeKind::tag`]; `None` on an unknown tag.
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ComputeKind::SparseConv,
            1 => ComputeKind::Grouped,
            2 => ComputeKind::Dense,
            3 => ComputeKind::Interpolate,
            4 => ComputeKind::Pool,
            _ => return None,
        })
    }
}

/// Aggregation applied to partial sums after scatter (paper Table 1).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Aggregation {
    /// Accumulation (SparseConv family).
    Sum,
    /// Max-pooling over each neighborhood (PointNet++ family).
    Max,
    /// No cross-row aggregation.
    None,
}

impl Aggregation {
    /// Stable wire/fingerprint tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Aggregation::Sum => 0,
            Aggregation::Max => 1,
            Aggregation::None => 2,
        }
    }

    /// Inverse of [`Aggregation::tag`]; `None` on an unknown tag.
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Aggregation::Sum,
            1 => Aggregation::Max,
            2 => Aggregation::None,
            _ => return None,
        })
    }
}

/// Record of one executed layer.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerTrace {
    /// Human-readable layer name, e.g. `"enc2.conv_down"`.
    pub name: String,
    /// Matrix-computation kind.
    pub compute: ComputeKind,
    /// Points (or rows) in the layer's input tensor.
    pub n_in: usize,
    /// Rows in the layer's output tensor (before any pooling).
    pub n_out: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Map table guiding gather/scatter (`None` for dense layers).
    pub maps: Option<MapTable>,
    /// Mapping operations executed to produce `maps`.
    pub mapping: Vec<MappingOp>,
    /// Post-scatter aggregation.
    pub aggregation: Aggregation,
    /// If `Some(g)`, the `n_out` rows are max-pooled in groups of `g`
    /// after the matmul (neighborhood pooling).
    pub pool_group: Option<usize>,
    /// Whether the MMU may temporally fuse this layer with dense
    /// neighbors (consecutive FC layers, paper §4.2.4).
    pub fusable: bool,
}

impl LayerTrace {
    /// Multiply-accumulate count of the layer.
    pub fn macs(&self) -> u64 {
        match self.compute {
            ComputeKind::SparseConv => {
                let maps = self.maps.as_ref().map_or(0, MapTable::len) as u64;
                maps * self.in_ch as u64 * self.out_ch as u64
            }
            ComputeKind::Grouped | ComputeKind::Dense => {
                self.n_out as u64 * self.in_ch as u64 * self.out_ch as u64
            }
            ComputeKind::Interpolate => {
                let maps = self.maps.as_ref().map_or(0, MapTable::len) as u64;
                maps * self.out_ch as u64
            }
            ComputeKind::Pool => 0,
        }
    }

    /// Bytes of input features the layer reads from DRAM at `bytes_per
    /// _element` precision, assuming no reuse (upper bound; the MMU's job
    /// is to beat this).
    pub fn input_feature_bytes(&self, bytes_per_element: usize) -> u64 {
        let reads = match (&self.compute, &self.maps) {
            (
                ComputeKind::SparseConv | ComputeKind::Grouped | ComputeKind::Interpolate,
                Some(m),
            ) => m.len() as u64,
            _ => self.n_in as u64,
        };
        reads * self.in_ch as u64 * bytes_per_element as u64
    }

    /// Weight bytes of the layer at the given precision.
    pub fn weight_bytes(&self, bytes_per_element: usize) -> u64 {
        let n_w = self.maps.as_ref().map_or(1, MapTable::n_weights).max(1) as u64;
        match self.compute {
            ComputeKind::SparseConv => {
                n_w * self.in_ch as u64 * self.out_ch as u64 * bytes_per_element as u64
            }
            ComputeKind::Grouped | ComputeKind::Dense => {
                self.in_ch as u64 * self.out_ch as u64 * bytes_per_element as u64
            }
            _ => 0,
        }
    }

    /// Total scalar mapping-op cost preceding this layer.
    pub fn mapping_scalar_ops(&self) -> u64 {
        self.mapping.iter().map(MappingOp::scalar_ops).sum()
    }
}

/// Cache identity of a compiled trace: the complete set of inputs that
/// determine it.
///
/// A benchmark trace is a pure function of the network, the dataset seed
/// and the point-count scale, so `(network, seed, scale)` is a sound
/// cache key for sharing compiled traces across runs. The scale is
/// stored in parts-per-million so the key is `Eq + Hash` without
/// touching raw floats.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Network notation, e.g. `"MinkNet(i)"`.
    pub network: String,
    /// Dataset generator seed.
    pub seed: u64,
    /// Point-count scale factor in parts-per-million (1.0 → 1_000_000).
    pub scale_ppm: u64,
}

impl TraceKey {
    /// Key for `network` at `seed` and a fractional point-count `scale`.
    pub fn new(network: &str, seed: u64, scale: f64) -> Self {
        TraceKey {
            network: network.to_string(),
            seed,
            scale_ppm: (scale.max(0.0) * 1e6).round() as u64,
        }
    }

    /// The scale factor the key was built from (ppm → fraction).
    pub fn scale(&self) -> f64 {
        self.scale_ppm as f64 / 1e6
    }
}

/// Trace of a full network execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkTrace {
    /// Network name.
    pub network: String,
    /// Input description (dataset / point count), free-form.
    pub input_desc: String,
    /// Per-layer records, in execution order.
    pub layers: Vec<LayerTrace>,
}

impl NetworkTrace {
    /// Total multiply-accumulates.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerTrace::macs).sum()
    }

    /// Total maps across all layers.
    pub fn total_maps(&self) -> u64 {
        self.layers.iter().filter_map(|l| l.maps.as_ref()).map(|m| m.len() as u64).sum()
    }

    /// Total scalar mapping-operation work.
    pub fn total_mapping_ops(&self) -> u64 {
        self.layers.iter().map(LayerTrace::mapping_scalar_ops).sum()
    }

    /// Peak feature bytes per input point at the given precision: the
    /// largest per-point activation footprint any layer produces
    /// (paper Fig. 5 right).
    pub fn peak_feature_bytes_per_point(&self, bytes_per_element: usize) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                let rows = l.n_out.max(1) as u64;
                rows * l.out_ch as u64 * bytes_per_element as u64
                    / self.input_points().max(1) as u64
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of points at the network input.
    pub fn input_points(&self) -> usize {
        self.layers.first().map_or(0, |l| l.n_in)
    }

    /// Content fingerprint: the artifact's word hash (the same function
    /// as its checksum) over the trace's canonical encoding, the trace
    /// section of an [`artifact`](crate::artifact), streamed into the
    /// hash without building a buffer. It covers every field the wire
    /// format carries: names, shapes, compute and aggregation metadata,
    /// every mapping-op descriptor and the **full map tables**. Two
    /// traces agree iff they encode to the same bytes, up to 64-bit hash
    /// collisions; encodings of equal length that differ in one aligned
    /// 8-byte word never collide. Unlike a shape-only hash, it tells
    /// apart same-shaped traces with different kernel maps.
    pub fn fingerprint(&self) -> u64 {
        crate::artifact::fingerprint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc_geom::{MapEntry, MapTable};

    fn sparse_layer() -> LayerTrace {
        let maps = MapTable::from_entries(
            vec![MapEntry::new(0, 0, 0), MapEntry::new(1, 0, 1), MapEntry::new(1, 1, 0)],
            2,
        );
        LayerTrace {
            name: "conv".into(),
            compute: ComputeKind::SparseConv,
            n_in: 2,
            n_out: 2,
            in_ch: 4,
            out_ch: 8,
            maps: Some(maps),
            mapping: vec![MappingOp::KernelMap { n_in: 2, n_out: 2, kernel_volume: 2, n_maps: 3 }],
            aggregation: Aggregation::Sum,
            pool_group: None,
            fusable: false,
        }
    }

    #[test]
    fn sparse_macs_count_maps() {
        assert_eq!(sparse_layer().macs(), 3 * 4 * 8);
    }

    #[test]
    fn dense_macs_count_rows() {
        let l = LayerTrace {
            compute: ComputeKind::Dense,
            maps: None,
            mapping: vec![],
            n_out: 10,
            ..sparse_layer()
        };
        assert_eq!(l.macs(), 10 * 4 * 8);
    }

    #[test]
    fn pool_has_no_macs() {
        let l = LayerTrace { compute: ComputeKind::Pool, ..sparse_layer() };
        assert_eq!(l.macs(), 0);
    }

    #[test]
    fn weight_bytes_scale_with_offsets() {
        let l = sparse_layer();
        assert_eq!(l.weight_bytes(2), 2 * 4 * 8 * 2);
    }

    #[test]
    fn trace_totals() {
        let t = NetworkTrace {
            network: "t".into(),
            input_desc: "x".into(),
            layers: vec![sparse_layer(), sparse_layer()],
        };
        assert_eq!(t.total_macs(), 2 * 3 * 4 * 8);
        assert_eq!(t.total_maps(), 6);
        assert!(t.total_mapping_ops() > 0);
    }

    #[test]
    fn trace_keys_hash_scale_in_ppm() {
        let a = TraceKey::new("PointNet", 42, 0.05);
        let b = TraceKey::new("PointNet", 42, 0.05);
        assert_eq!(a, b);
        assert!((a.scale() - 0.05).abs() < 1e-12);
        assert_ne!(a, TraceKey::new("PointNet", 42, 0.1));
        assert_ne!(a, TraceKey::new("PointNet", 43, 0.05));
        assert_ne!(a, TraceKey::new("DGCNN", 42, 0.05));
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let t = NetworkTrace {
            network: "t".into(),
            input_desc: "x".into(),
            layers: vec![sparse_layer()],
        };
        assert_eq!(t.fingerprint(), t.clone().fingerprint());
        let mut bigger = t.clone();
        bigger.layers.push(sparse_layer());
        assert_ne!(t.fingerprint(), bigger.fingerprint());
        let mut wider = t.clone();
        wider.layers[0].out_ch += 1;
        assert_ne!(t.fingerprint(), wider.fingerprint());
    }

    #[test]
    fn fingerprint_covers_map_contents_and_aggregation() {
        let base = NetworkTrace {
            network: "t".into(),
            input_desc: "x".into(),
            layers: vec![sparse_layer()],
        };
        // Same shapes and map count, different map-table contents: a
        // shape-only fingerprint collides here, which is unsound as a
        // disk-artifact validity check.
        let mut remapped = base.clone();
        remapped.layers[0].maps = Some(MapTable::from_entries(
            vec![MapEntry::new(0, 0, 0), MapEntry::new(0, 1, 1), MapEntry::new(1, 1, 0)],
            2,
        ));
        assert_eq!(remapped.layers[0].maps.as_ref().unwrap().len(), 3);
        assert_ne!(base.fingerprint(), remapped.fingerprint());
        // Aggregation metadata is covered too.
        let mut maxed = base.clone();
        maxed.layers[0].aggregation = Aggregation::Max;
        assert_ne!(base.fingerprint(), maxed.fingerprint());
        let mut pooled = base.clone();
        pooled.layers[0].pool_group = Some(4);
        assert_ne!(base.fingerprint(), pooled.fingerprint());
        let mut fused = base.clone();
        fused.layers[0].fusable = true;
        assert_ne!(base.fingerprint(), fused.fingerprint());
        // Names are covered too: the fingerprint hashes the canonical
        // encoding, which carries them.
        let mut renamed = base.clone();
        renamed.network = "other".into();
        renamed.layers[0].name = "other.conv".into();
        assert_ne!(base.fingerprint(), renamed.fingerprint());
    }

    #[test]
    fn mapping_op_costs_positive() {
        for op in [
            MappingOp::Quantize { n_in: 10, n_out: 5 },
            MappingOp::KernelMap { n_in: 10, n_out: 5, kernel_volume: 27, n_maps: 40 },
            MappingOp::Fps { n_in: 10, n_out: 4 },
            MappingOp::Knn { n_in: 10, n_queries: 4, k: 2 },
            MappingOp::BallQuery { n_in: 10, n_queries: 4, k: 2 },
            MappingOp::KnnFeature { n_in: 10, n_queries: 4, k: 2, dim: 16 },
        ] {
            assert!(op.scalar_ops() > 0, "{op:?}");
        }
    }
}
