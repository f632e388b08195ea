//! Static semantic verification of compiled traces.
//!
//! A [`NetworkTrace`] is trusted by every consumer
//! in the workspace: timing models index its map tables straight into
//! feature rows, the serve stack replays it for millions of simulated
//! requests, and the artifact codec persists it across processes. The
//! executor constructs well-formed traces by design, but traces also
//! arrive from *untrusted* sources — disk artifacts whose checksum was
//! recomputed after corruption, or future builders with bugs. This
//! module proves a trace well-formed **before** it is executed:
//!
//! - **CSR well-formedness** of every map table: monotone,
//!   non-overflowing group offsets covering the parallel index arrays
//!   ([`MapTable::validate`]).
//! - **Index bounds**: every map's input index stays inside the layer's
//!   input domain and every output index inside its scatter domain, and
//!   outputs do not decrease within a weight group (the replay slices
//!   each group by output tile), with the offending group/entry named in
//!   the error.
//! - **Mapping-op consistency**: the recorded mapping operations match
//!   the layer kind (quantize/kernel-map for SparseConv, FPS + ball
//!   query for set abstraction, feature-space k-NN for EdgeConv, k-NN
//!   for interpolation) and their size fields agree with the layer and
//!   the table (kernel volume = weight groups, declared map count =
//!   table length).
//! - **Cross-layer dataflow**: layer *n*'s effective output rows and
//!   channels (after neighborhood pooling and skip concatenation) feed
//!   layer *n+1*, and every decoder layer pops a skip connection whose
//!   domain and kind match what the encoder pushed.
//! - **Metadata consistency**: aggregation, pool grouping and
//!   fusability are the unique combination the executor emits for each
//!   compute kind.
//!
//! [`verify_trace`] checks structure only and computes no hash.
//! [`artifact::load`](crate::artifact::load) calls it after the codec has
//! checked the file's checksum, so a corrupt file whose checksum was
//! recomputed is still refused on its structure.

use crate::trace::{Aggregation, ComputeKind, LayerTrace, MappingOp, NetworkTrace, TraceKey};
use pointacc_geom::{MapTable, MapTableError};
use std::fmt;

/// Summary of a successful verification pass.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Layers checked.
    pub layers: usize,
    /// Map tables validated.
    pub tables: usize,
    /// Total map entries bounds-checked.
    pub map_entries: u64,
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} layers, {} map tables, {} map entries",
            self.layers, self.tables, self.map_entries
        )
    }
}

/// Why a trace failed static verification. Every variant names the
/// offending layer (and where applicable the weight group and entry) so
/// a rejected artifact is diagnosable without re-execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A layer shape field that must be positive is zero.
    EmptyShape {
        /// Index of the offending layer.
        layer: usize,
        /// Which shape field is empty.
        what: &'static str,
    },
    /// A map table violates the CSR invariants.
    MalformedTable {
        /// Index of the offending layer.
        layer: usize,
        /// The underlying CSR violation.
        source: MapTableError,
    },
    /// The layer kind requires a map table but the layer has none.
    MissingMaps {
        /// Index of the offending layer.
        layer: usize,
    },
    /// The layer kind forbids a map table but the layer has one.
    UnexpectedMaps {
        /// Index of the offending layer.
        layer: usize,
    },
    /// A map's input index is outside the layer's input domain.
    InputIndexOutOfBounds {
        /// Index of the offending layer.
        layer: usize,
        /// Weight group holding the offending map.
        group: usize,
        /// Entry position within the group.
        entry: usize,
        /// The out-of-range index.
        index: u32,
        /// Domain size the index must stay below.
        bound: usize,
    },
    /// A map's output index is outside the layer's scatter domain.
    OutputIndexOutOfBounds {
        /// Index of the offending layer.
        layer: usize,
        /// Weight group holding the offending map.
        group: usize,
        /// Entry position within the group.
        entry: usize,
        /// The out-of-range index.
        index: u32,
        /// Domain size the index must stay below.
        bound: usize,
    },
    /// A map's output is below the previous map's in its weight group.
    /// The replay finds each output tile's maps by binary search, so
    /// outputs must not decrease within a group.
    OutputsOutOfOrder {
        /// Index of the offending layer.
        layer: usize,
        /// Weight group holding the offending map.
        group: usize,
        /// Entry position within the group.
        entry: usize,
    },
    /// A kernel-map op's kernel volume disagrees with the table's
    /// weight-group count.
    KernelVolumeMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Kernel volume the mapping op declares.
        declared: usize,
        /// Weight groups the table actually holds.
        groups: usize,
    },
    /// The declared map count disagrees with the table length.
    MapCountMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Map count the layer metadata declares.
        declared: usize,
        /// Maps the table actually holds.
        found: usize,
    },
    /// A shared-weight table holds the wrong number of weight groups.
    WeightGroups {
        /// Index of the offending layer.
        layer: usize,
        /// Groups the layer kind requires.
        expected: usize,
        /// Groups the table holds.
        found: usize,
    },
    /// The mapping-op sequence does not match the layer kind.
    MappingOps {
        /// Index of the offending layer.
        layer: usize,
        /// What was expected.
        detail: String,
    },
    /// A mapping op's size fields disagree with the layer shapes.
    MappingShape {
        /// Index of the offending layer.
        layer: usize,
        /// Position of the op in the layer's mapping sequence.
        op: usize,
        /// What disagrees.
        detail: String,
    },
    /// An intra-layer shape rule is violated.
    ShapeInvariant {
        /// Index of the offending layer.
        layer: usize,
        /// The violated rule.
        detail: String,
    },
    /// The aggregation is not the one the compute kind mandates.
    AggregationMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Aggregation the kind requires here.
        expected: Aggregation,
        /// Aggregation the layer records.
        found: Aggregation,
    },
    /// The pool grouping is inconsistent with the layer.
    PoolGroup {
        /// Index of the offending layer.
        layer: usize,
        /// What disagrees.
        detail: String,
    },
    /// The fusability flag is wrong for the compute kind.
    Fusability {
        /// Index of the offending layer.
        layer: usize,
        /// Fusability the kind mandates.
        expected: bool,
    },
    /// A layer's input rows disagree with the previous layer's output.
    RowMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Rows the previous layer produces.
        expected: usize,
        /// Rows the layer declares as input.
        found: usize,
    },
    /// A layer's input channels disagree with the previous layer's
    /// output (after skip concatenation / grouping expansion).
    ChannelMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Channels the previous layer feeds forward.
        expected: usize,
        /// Channels the layer declares as input.
        found: usize,
    },
    /// A decoder layer pops a skip connection that was never pushed.
    SkipUnderflow {
        /// Index of the offending layer.
        layer: usize,
    },
    /// The popped skip connection is the wrong kind (voxel vs point).
    SkipKindMismatch {
        /// Index of the offending layer.
        layer: usize,
    },
    /// The popped skip connection's domain disagrees with the layer's
    /// output domain.
    SkipDomainMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Rows the matching encoder stage pushed.
        skip_rows: usize,
        /// Output rows the decoder layer declares.
        n_out: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyShape { layer, what } => {
                write!(f, "layer {layer}: {what} must be positive")
            }
            VerifyError::MalformedTable { layer, source } => {
                write!(f, "layer {layer}: malformed map table: {source}")
            }
            VerifyError::MissingMaps { layer } => {
                write!(f, "layer {layer}: compute kind requires a map table")
            }
            VerifyError::UnexpectedMaps { layer } => {
                write!(f, "layer {layer}: compute kind forbids a map table")
            }
            VerifyError::InputIndexOutOfBounds { layer, group, entry, index, bound } => write!(
                f,
                "layer {layer}: map (group {group}, entry {entry}) input {index} \
                 outside input domain of {bound}"
            ),
            VerifyError::OutputIndexOutOfBounds { layer, group, entry, index, bound } => write!(
                f,
                "layer {layer}: map (group {group}, entry {entry}) output {index} \
                 outside output domain of {bound}"
            ),
            VerifyError::OutputsOutOfOrder { layer, group, entry } => write!(
                f,
                "layer {layer}: map (group {group}, entry {entry}) output below the \
                 previous entry's"
            ),
            VerifyError::KernelVolumeMismatch { layer, declared, groups } => write!(
                f,
                "layer {layer}: declared kernel volume {declared} != {groups} weight groups"
            ),
            VerifyError::MapCountMismatch { layer, declared, found } => {
                write!(f, "layer {layer}: declared {declared} maps, table holds {found}")
            }
            VerifyError::WeightGroups { layer, expected, found } => {
                write!(f, "layer {layer}: expected {expected} weight groups, found {found}")
            }
            VerifyError::MappingOps { layer, detail } => {
                write!(f, "layer {layer}: mapping ops: {detail}")
            }
            VerifyError::MappingShape { layer, op, detail } => {
                write!(f, "layer {layer}: mapping op {op}: {detail}")
            }
            VerifyError::ShapeInvariant { layer, detail } => {
                write!(f, "layer {layer}: {detail}")
            }
            VerifyError::AggregationMismatch { layer, expected, found } => {
                write!(f, "layer {layer}: expected {expected:?} aggregation, found {found:?}")
            }
            VerifyError::PoolGroup { layer, detail } => {
                write!(f, "layer {layer}: pool group: {detail}")
            }
            VerifyError::Fusability { layer, expected } => {
                write!(f, "layer {layer}: fusable must be {expected} for this compute kind")
            }
            VerifyError::RowMismatch { layer, expected, found } => write!(
                f,
                "layer {layer}: input rows {found} != {expected} rows produced by the previous layer"
            ),
            VerifyError::ChannelMismatch { layer, expected, found } => write!(
                f,
                "layer {layer}: input channels {found} != {expected} fed by the previous layer"
            ),
            VerifyError::SkipUnderflow { layer } => {
                write!(f, "layer {layer}: pops a skip connection that was never pushed")
            }
            VerifyError::SkipKindMismatch { layer } => {
                write!(f, "layer {layer}: popped skip connection has the wrong tensor kind")
            }
            VerifyError::SkipDomainMismatch { layer, skip_rows, n_out } => write!(
                f,
                "layer {layer}: skip connection carries {skip_rows} rows but the layer \
                 upsamples to {n_out}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::MalformedTable { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Tensor kind of a skip-connection entry (mirrors the executor's
/// `State::Vox` / `State::Pts` distinction).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum SkipKind {
    /// Pushed by a strided SparseConv encoder stage.
    Voxel,
    /// Pushed by a set-abstraction stage.
    Point,
}

/// One entry of the simulated skip stack.
#[derive(Copy, Clone, Debug)]
struct Skip {
    rows: usize,
    ch: usize,
    kind: SkipKind,
}

/// Rows and channels a layer feeds to its successor (after neighborhood
/// pooling and skip concatenation).
#[derive(Copy, Clone, Debug)]
struct Flow {
    rows: usize,
    ch: usize,
}

/// Statically verifies a compiled trace against every invariant the
/// executor guarantees by construction (see the module docs), walking
/// the layers with a simulated skip stack exactly as the hardware
/// models will replay them.
///
/// The `key` is the cache/artifact identity the trace is served under.
/// Binding trace to key is the artifact layer's job ([`artifact::load`]
/// checks the key stored in the file and the checksum over its bytes),
/// so the key does not influence the structural checks.
///
/// [`artifact::load`]: crate::artifact::load
pub fn verify_trace(key: &TraceKey, trace: &NetworkTrace) -> Result<VerifyReport, VerifyError> {
    let _ = key;
    let mut report = VerifyReport { layers: trace.layers.len(), ..VerifyReport::default() };
    let mut stack: Vec<Skip> = Vec::new();
    let mut prev: Option<Flow> = None;

    for (i, l) in trace.layers.iter().enumerate() {
        check_shapes(i, l)?;
        if let Some(m) = &l.maps {
            m.validate().map_err(|source| VerifyError::MalformedTable { layer: i, source })?;
            report.tables += 1;
            report.map_entries += m.len() as u64;
        }
        if let Some(p) = prev {
            if l.n_in != p.rows {
                return Err(VerifyError::RowMismatch { layer: i, expected: p.rows, found: l.n_in });
            }
            let expected_ch = expected_in_ch(l, p.ch);
            if l.in_ch != expected_ch {
                return Err(VerifyError::ChannelMismatch {
                    layer: i,
                    expected: expected_ch,
                    found: l.in_ch,
                });
            }
        }
        let flow = match l.compute {
            ComputeKind::SparseConv => verify_sparse(i, l, &mut stack)?,
            ComputeKind::Grouped => verify_grouped(i, l, &mut stack)?,
            ComputeKind::Dense => verify_dense(i, l)?,
            ComputeKind::Interpolate => verify_interpolate(i, l, &mut stack)?,
            ComputeKind::Pool => verify_pool(i, l)?,
        };
        prev = Some(flow);
    }
    // Unpopped skips are legal: classification networks abstract away
    // from their encoder levels without ever propagating back.
    Ok(report)
}

/// Channels layer `l` must declare as input given the `prev_ch` its
/// predecessor feeds forward: grouping expands the channel count
/// (relative-coordinate concat for set abstraction, `(f_i, f_j - f_i)`
/// pairs for EdgeConv); every other kind consumes them unchanged.
fn expected_in_ch(l: &LayerTrace, prev_ch: usize) -> usize {
    if l.compute == ComputeKind::Grouped {
        if matches!(l.mapping.first(), Some(MappingOp::KnnFeature { .. })) {
            return 2 * prev_ch;
        }
        return prev_ch + 3;
    }
    prev_ch
}

fn check_shapes(i: usize, l: &LayerTrace) -> Result<(), VerifyError> {
    for (value, what) in
        [(l.n_in, "n_in"), (l.n_out, "n_out"), (l.in_ch, "in_ch"), (l.out_ch, "out_ch")]
    {
        if value == 0 {
            return Err(VerifyError::EmptyShape { layer: i, what });
        }
    }
    Ok(())
}

/// Bounds-checks every map entry: inputs below `in_bound`, outputs
/// below `out_bound` and non-decreasing within each weight group, with
/// group/entry attribution on failure.
fn check_bounds(
    i: usize,
    m: &MapTable,
    in_bound: usize,
    out_bound: usize,
) -> Result<(), VerifyError> {
    for group in 0..m.n_weights() {
        let g = m.group(group);
        let mut previous = 0;
        for (entry, (&input, &output)) in g.inputs().iter().zip(g.outputs()).enumerate() {
            if input as usize >= in_bound {
                return Err(VerifyError::InputIndexOutOfBounds {
                    layer: i,
                    group,
                    entry,
                    index: input,
                    bound: in_bound,
                });
            }
            if output as usize >= out_bound {
                return Err(VerifyError::OutputIndexOutOfBounds {
                    layer: i,
                    group,
                    entry,
                    index: output,
                    bound: out_bound,
                });
            }
            if output < previous {
                return Err(VerifyError::OutputsOutOfOrder { layer: i, group, entry });
            }
            previous = output;
        }
    }
    Ok(())
}

/// Checks a kernel-map op's declared volume and map count against the
/// table.
fn check_kernel_decl(
    i: usize,
    m: &MapTable,
    kernel_volume: usize,
    n_maps: usize,
) -> Result<(), VerifyError> {
    if kernel_volume != m.n_weights() {
        return Err(VerifyError::KernelVolumeMismatch {
            layer: i,
            declared: kernel_volume,
            groups: m.n_weights(),
        });
    }
    if n_maps != m.len() {
        return Err(VerifyError::MapCountMismatch { layer: i, declared: n_maps, found: m.len() });
    }
    Ok(())
}

fn verify_sparse(i: usize, l: &LayerTrace, stack: &mut Vec<Skip>) -> Result<Flow, VerifyError> {
    if l.fusable {
        return Err(VerifyError::Fusability { layer: i, expected: false });
    }
    if l.aggregation != Aggregation::Sum {
        return Err(VerifyError::AggregationMismatch {
            layer: i,
            expected: Aggregation::Sum,
            found: l.aggregation,
        });
    }
    if let Some(g) = l.pool_group {
        return Err(VerifyError::PoolGroup {
            layer: i,
            detail: format!("sparse conv layers never pool (found group {g})"),
        });
    }
    let m = l.maps.as_ref().ok_or(VerifyError::MissingMaps { layer: i })?;
    match l.mapping.as_slice() {
        // Strided downsampling conv: quantize then map, and remember the
        // finer level for the decoder.
        [MappingOp::Quantize { n_in: qi, n_out: qo }, MappingOp::KernelMap { n_in: ki, n_out: ko, kernel_volume, n_maps }] =>
        {
            if *qi != l.n_in || *qo != l.n_out {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 0,
                    detail: format!("quantize {qi}→{qo} != layer domain {}→{}", l.n_in, l.n_out),
                });
            }
            if qo > qi {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 0,
                    detail: format!("quantization cannot grow the cloud ({qi}→{qo})"),
                });
            }
            if *ki != l.n_in || *ko != l.n_out {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 1,
                    detail: format!("kernel map {ki}→{ko} != layer domain {}→{}", l.n_in, l.n_out),
                });
            }
            check_kernel_decl(i, m, *kernel_volume, *n_maps)?;
            check_bounds(i, m, l.n_in, l.n_out)?;
            stack.push(Skip { rows: l.n_in, ch: l.in_ch, kind: SkipKind::Voxel });
            Ok(Flow { rows: l.n_out, ch: l.out_ch })
        }
        // Unit-stride conv, or the decoder's transposed conv.
        [MappingOp::KernelMap { n_in: ki, n_out: ko, kernel_volume, n_maps }] => {
            // A transposed conv changes resolution (n_in != n_out); when
            // the cloud sizes coincide, the zoo's kernel parities break
            // the tie: unit-stride convs use odd kernels (3³), up/down
            // convs even ones (2³) — and a transposed conv must find its
            // matching encoder level on top of the skip stack.
            let transposed = if l.n_in != l.n_out {
                true
            } else {
                kernel_volume % 2 == 0
                    && matches!(
                        stack.last(),
                        Some(s) if s.kind == SkipKind::Voxel && s.rows == l.n_out
                    )
            };
            let (want_ki, want_ko) = if transposed {
                // The op records the forward fine→coarse construction.
                (l.n_out, l.n_in)
            } else {
                (l.n_in, l.n_out)
            };
            if *ki != want_ki || *ko != want_ko {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 0,
                    detail: format!("kernel map {ki}→{ko} != expected {want_ki}→{want_ko}"),
                });
            }
            check_kernel_decl(i, m, *kernel_volume, *n_maps)?;
            check_bounds(i, m, l.n_in, l.n_out)?;
            if transposed {
                let s = stack.pop().ok_or(VerifyError::SkipUnderflow { layer: i })?;
                if s.kind != SkipKind::Voxel {
                    return Err(VerifyError::SkipKindMismatch { layer: i });
                }
                if s.rows != l.n_out {
                    return Err(VerifyError::SkipDomainMismatch {
                        layer: i,
                        skip_rows: s.rows,
                        n_out: l.n_out,
                    });
                }
                // U-Net concatenation: the decoder output carries the
                // conv channels plus the skip channels.
                return Ok(Flow { rows: l.n_out, ch: l.out_ch + s.ch });
            }
            Ok(Flow { rows: l.n_out, ch: l.out_ch })
        }
        other => Err(VerifyError::MappingOps {
            layer: i,
            detail: format!(
                "sparse conv expects [Quantize, KernelMap] or [KernelMap], got {} ops",
                other.len()
            ),
        }),
    }
}

fn verify_grouped(i: usize, l: &LayerTrace, stack: &mut Vec<Skip>) -> Result<Flow, VerifyError> {
    if !l.fusable {
        return Err(VerifyError::Fusability { layer: i, expected: true });
    }
    let m = l.maps.as_ref().ok_or(VerifyError::MissingMaps { layer: i })?;
    if m.n_weights() != 1 {
        return Err(VerifyError::WeightGroups { layer: i, expected: 1, found: m.n_weights() });
    }
    let k = match l.mapping.as_slice() {
        // EdgeConv: feature-space k-NN over the layer's own cloud.
        [MappingOp::KnnFeature { n_in, n_queries, k, dim }] => {
            if *n_in != l.n_in || *n_queries != l.n_in {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 0,
                    detail: format!(
                        "edge conv queries its own cloud: knn {n_in} over {n_queries} queries \
                         != layer n_in {}",
                        l.n_in
                    ),
                });
            }
            if l.n_out != n_queries * k {
                return Err(VerifyError::ShapeInvariant {
                    layer: i,
                    detail: format!(
                        "grouped rows {} != {n_queries} queries × {k} neighbors",
                        l.n_out
                    ),
                });
            }
            if l.in_ch != 2 * dim {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 0,
                    detail: format!(
                        "edge features are (f_i, f_j - f_i) pairs: in_ch {} != 2×{dim}",
                        l.in_ch
                    ),
                });
            }
            // Degenerate single-point clouds may yield short neighbor
            // lists; the gather pads the missing rows.
            if m.len() > l.n_out {
                return Err(VerifyError::MapCountMismatch {
                    layer: i,
                    declared: l.n_out,
                    found: m.len(),
                });
            }
            check_bounds(i, m, l.n_in, *n_queries)?;
            *k
        }
        // Set abstraction: FPS selects the centroids, ball query groups.
        [MappingOp::Fps { n_in: fi, n_out: fo }, MappingOp::BallQuery { n_in: bi, n_queries, k }] =>
        {
            if *fi != l.n_in || *fo > *fi {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 0,
                    detail: format!("fps {fi}→{fo} must sample from layer n_in {}", l.n_in),
                });
            }
            if *bi != l.n_in || *n_queries != *fo {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 1,
                    detail: format!(
                        "ball query over {bi} points / {n_queries} queries must match \
                         fps output {fo} over layer n_in {}",
                        l.n_in
                    ),
                });
            }
            if l.n_out != n_queries * k {
                return Err(VerifyError::ShapeInvariant {
                    layer: i,
                    detail: format!(
                        "grouped rows {} != {n_queries} queries × {k} neighbors",
                        l.n_out
                    ),
                });
            }
            check_sa_channels(i, l)?;
            if m.len() != l.n_out {
                return Err(VerifyError::MapCountMismatch {
                    layer: i,
                    declared: l.n_out,
                    found: m.len(),
                });
            }
            check_bounds(i, m, l.n_in, *n_queries)?;
            stack.push(Skip { rows: l.n_in, ch: l.in_ch - 3, kind: SkipKind::Point });
            *k
        }
        // Group-all set abstraction: one neighborhood with every point.
        [] => {
            if l.n_out != l.n_in {
                return Err(VerifyError::ShapeInvariant {
                    layer: i,
                    detail: format!(
                        "group-all abstraction groups every point once: n_out {} != n_in {}",
                        l.n_out, l.n_in
                    ),
                });
            }
            check_sa_channels(i, l)?;
            if m.len() != l.n_out {
                return Err(VerifyError::MapCountMismatch {
                    layer: i,
                    declared: l.n_out,
                    found: m.len(),
                });
            }
            check_bounds(i, m, l.n_in, 1)?;
            stack.push(Skip { rows: l.n_in, ch: l.in_ch - 3, kind: SkipKind::Point });
            l.n_in
        }
        other => {
            return Err(VerifyError::MappingOps {
                layer: i,
                detail: format!(
                    "grouped layers expect [KnnFeature], [Fps, BallQuery] or no ops, got {} ops",
                    other.len()
                ),
            })
        }
    };
    grouped_flow(i, l, k)
}

/// Set abstraction concatenates 3 relative-coordinate channels onto the
/// gathered features, so its input channel count must exceed 3.
fn check_sa_channels(i: usize, l: &LayerTrace) -> Result<(), VerifyError> {
    if l.in_ch <= 3 {
        return Err(VerifyError::ShapeInvariant {
            layer: i,
            detail: format!(
                "set abstraction concatenates 3 coordinate channels: in_ch {} too small",
                l.in_ch
            ),
        });
    }
    Ok(())
}

/// Pool/aggregation consistency of a grouped layer with neighborhood
/// size `k`, yielding its effective output flow.
fn grouped_flow(i: usize, l: &LayerTrace, k: usize) -> Result<Flow, VerifyError> {
    match l.pool_group {
        Some(g) => {
            if l.aggregation != Aggregation::Max {
                return Err(VerifyError::AggregationMismatch {
                    layer: i,
                    expected: Aggregation::Max,
                    found: l.aggregation,
                });
            }
            if g != k || g == 0 || !l.n_out.is_multiple_of(g) {
                return Err(VerifyError::PoolGroup {
                    layer: i,
                    detail: format!(
                        "group {g} must equal the neighborhood size {k} and divide rows {}",
                        l.n_out
                    ),
                });
            }
            Ok(Flow { rows: l.n_out / g, ch: l.out_ch })
        }
        None => {
            if l.aggregation != Aggregation::None {
                return Err(VerifyError::AggregationMismatch {
                    layer: i,
                    expected: Aggregation::None,
                    found: l.aggregation,
                });
            }
            Ok(Flow { rows: l.n_out, ch: l.out_ch })
        }
    }
}

fn verify_dense(i: usize, l: &LayerTrace) -> Result<Flow, VerifyError> {
    if !l.fusable {
        return Err(VerifyError::Fusability { layer: i, expected: true });
    }
    if l.maps.is_some() {
        return Err(VerifyError::UnexpectedMaps { layer: i });
    }
    if !l.mapping.is_empty() {
        return Err(VerifyError::MappingOps {
            layer: i,
            detail: "dense layers run no mapping ops".into(),
        });
    }
    if l.n_in != l.n_out {
        return Err(VerifyError::ShapeInvariant {
            layer: i,
            detail: format!("dense layers are point-wise: n_in {} != n_out {}", l.n_in, l.n_out),
        });
    }
    match l.pool_group {
        Some(g) => {
            if l.aggregation != Aggregation::Max {
                return Err(VerifyError::AggregationMismatch {
                    layer: i,
                    expected: Aggregation::Max,
                    found: l.aggregation,
                });
            }
            if g == 0 || !l.n_out.is_multiple_of(g) {
                return Err(VerifyError::PoolGroup {
                    layer: i,
                    detail: format!("group {g} must divide rows {}", l.n_out),
                });
            }
            Ok(Flow { rows: l.n_out / g, ch: l.out_ch })
        }
        None => {
            if l.aggregation != Aggregation::None {
                return Err(VerifyError::AggregationMismatch {
                    layer: i,
                    expected: Aggregation::None,
                    found: l.aggregation,
                });
            }
            Ok(Flow { rows: l.n_out, ch: l.out_ch })
        }
    }
}

fn verify_interpolate(
    i: usize,
    l: &LayerTrace,
    stack: &mut Vec<Skip>,
) -> Result<Flow, VerifyError> {
    if l.fusable {
        return Err(VerifyError::Fusability { layer: i, expected: false });
    }
    if l.aggregation != Aggregation::Sum {
        return Err(VerifyError::AggregationMismatch {
            layer: i,
            expected: Aggregation::Sum,
            found: l.aggregation,
        });
    }
    if let Some(g) = l.pool_group {
        return Err(VerifyError::PoolGroup {
            layer: i,
            detail: format!("interpolation layers never pool (found group {g})"),
        });
    }
    if l.in_ch != l.out_ch {
        return Err(VerifyError::ShapeInvariant {
            layer: i,
            detail: format!(
                "interpolation preserves channels: in_ch {} != out_ch {}",
                l.in_ch, l.out_ch
            ),
        });
    }
    match (&l.maps, l.mapping.as_slice()) {
        // k-NN interpolation from the coarse level onto the fine one.
        (Some(m), [MappingOp::Knn { n_in, n_queries, k }]) => {
            if m.n_weights() != 1 {
                return Err(VerifyError::WeightGroups {
                    layer: i,
                    expected: 1,
                    found: m.n_weights(),
                });
            }
            if *n_in != l.n_in || *n_queries != l.n_out {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 0,
                    detail: format!(
                        "knn {n_in}→{n_queries} queries != layer domain {}→{}",
                        l.n_in, l.n_out
                    ),
                });
            }
            if *k == 0 || *k > l.n_in {
                return Err(VerifyError::MappingShape {
                    layer: i,
                    op: 0,
                    detail: format!("knn cannot return {k} neighbors from {} inputs", l.n_in),
                });
            }
            if m.len() != n_queries * k {
                return Err(VerifyError::MapCountMismatch {
                    layer: i,
                    declared: n_queries * k,
                    found: m.len(),
                });
            }
            check_bounds(i, m, l.n_in, l.n_out)?;
        }
        // Broadcast of the single global row to every fine point.
        (None, []) => {
            if l.n_in != 1 {
                return Err(VerifyError::ShapeInvariant {
                    layer: i,
                    detail: format!(
                        "broadcast interpolation reads the single global row, n_in is {}",
                        l.n_in
                    ),
                });
            }
        }
        (Some(_), _) => {
            return Err(VerifyError::MappingOps {
                layer: i,
                detail: "map-guided interpolation requires exactly one Knn op".into(),
            })
        }
        (None, _) => {
            return Err(VerifyError::MappingOps {
                layer: i,
                detail: "broadcast interpolation runs no mapping ops".into(),
            })
        }
    }
    let s = stack.pop().ok_or(VerifyError::SkipUnderflow { layer: i })?;
    if s.kind != SkipKind::Point {
        return Err(VerifyError::SkipKindMismatch { layer: i });
    }
    if s.rows != l.n_out {
        return Err(VerifyError::SkipDomainMismatch {
            layer: i,
            skip_rows: s.rows,
            n_out: l.n_out,
        });
    }
    // Skip concatenation onto the interpolated features.
    Ok(Flow { rows: l.n_out, ch: l.out_ch + s.ch })
}

fn verify_pool(i: usize, l: &LayerTrace) -> Result<Flow, VerifyError> {
    if !l.fusable {
        return Err(VerifyError::Fusability { layer: i, expected: true });
    }
    if l.maps.is_some() {
        return Err(VerifyError::UnexpectedMaps { layer: i });
    }
    if !l.mapping.is_empty() {
        return Err(VerifyError::MappingOps {
            layer: i,
            detail: "global pooling runs no mapping ops".into(),
        });
    }
    if l.aggregation != Aggregation::Max {
        return Err(VerifyError::AggregationMismatch {
            layer: i,
            expected: Aggregation::Max,
            found: l.aggregation,
        });
    }
    if l.in_ch != l.out_ch {
        return Err(VerifyError::ShapeInvariant {
            layer: i,
            detail: format!("pooling preserves channels: in_ch {} != out_ch {}", l.in_ch, l.out_ch),
        });
    }
    if l.n_out != 1 {
        return Err(VerifyError::ShapeInvariant {
            layer: i,
            detail: format!("global pooling reduces to one row, n_out is {}", l.n_out),
        });
    }
    if l.pool_group != Some(l.n_in) {
        return Err(VerifyError::PoolGroup {
            layer: i,
            detail: format!(
                "global pooling groups all {} input rows, found {:?}",
                l.n_in, l.pool_group
            ),
        });
    }
    Ok(Flow { rows: 1, ch: l.out_ch })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, ExecMode, Executor};
    use pointacc_geom::{Point3, PointSet};

    fn cloud(n: usize) -> PointSet {
        (0..n)
            .map(|i| {
                let t = i as f32;
                Point3::new((t * 0.37).sin() * 2.0, (t * 0.61).cos() * 2.0, (t * 0.13).sin())
            })
            .collect()
    }

    fn trace_of(net: &crate::Network, n: usize) -> (TraceKey, NetworkTrace) {
        let out = Executor::new(ExecMode::TraceOnly, 7).run(net, &cloud(n));
        (TraceKey::new(&out.trace.network, 7, 1.0), out.trace)
    }

    #[test]
    fn every_zoo_network_verifies_clean() {
        for bench in zoo::benchmarks() {
            let (key, trace) = trace_of(&bench.network, 256);
            let report =
                verify_trace(&key, &trace).unwrap_or_else(|e| panic!("{}: {e}", bench.notation));
            assert_eq!(report.layers, trace.layers.len());
        }
    }

    #[test]
    fn full_mode_traces_verify_too() {
        // Full mode builds EdgeConv graphs in feature space — different
        // edges than TraceOnly, same invariants.
        let out = Executor::new(ExecMode::Full, 3).run(&zoo::dgcnn(), &cloud(96));
        let key = TraceKey::new(&out.trace.network, 3, 1.0);
        verify_trace(&key, &out.trace).expect("full-mode DGCNN trace");
        let out = Executor::new(ExecMode::Full, 3).run(&zoo::mini_minkunet(), &cloud(200));
        let key = TraceKey::new(&out.trace.network, 3, 1.0);
        verify_trace(&key, &out.trace).expect("full-mode MinkUNet trace");
    }

    #[test]
    fn report_counts_tables_and_entries() {
        let (key, trace) = trace_of(&zoo::mini_minkunet(), 200);
        let report = verify_trace(&key, &trace).expect("clean trace");
        let tables = trace.layers.iter().filter(|l| l.maps.is_some()).count();
        assert_eq!(report.tables, tables);
        assert_eq!(report.map_entries, trace.total_maps());
        assert!(report.tables >= 4, "MinkUNet has sparse layers");
    }

    #[test]
    fn empty_trace_is_vacuously_valid() {
        let key = TraceKey::new("empty", 0, 1.0);
        let trace = NetworkTrace::default();
        let report = verify_trace(&key, &trace).expect("no layers, no violations");
        assert_eq!(report.layers, 0);
    }

    #[test]
    fn out_of_bounds_input_is_named() {
        let (key, mut trace) = trace_of(&zoo::mini_minkunet(), 200);
        let (li, l) =
            trace.layers.iter_mut().enumerate().find(|(_, l)| l.maps.is_some()).expect("has maps");
        let m = l.maps.as_mut().unwrap();
        let mut inputs = m.inputs().to_vec();
        inputs[0] = l.n_in as u32 + 7;
        *m = MapTable::try_from_soa(inputs, m.outputs().to_vec(), m.offsets().to_vec()).unwrap();
        match verify_trace(&key, &trace).unwrap_err() {
            VerifyError::InputIndexOutOfBounds { layer, bound, .. } => {
                assert_eq!(layer, li);
                assert_eq!(bound, trace.layers[li].n_in);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn errors_render_layer_context() {
        let err = VerifyError::RowMismatch { layer: 4, expected: 100, found: 90 };
        assert!(err.to_string().contains("layer 4"));
        let err = VerifyError::InputIndexOutOfBounds {
            layer: 2,
            group: 13,
            entry: 5,
            index: 999,
            bound: 500,
        };
        let s = err.to_string();
        assert!(s.contains("group 13") && s.contains("entry 5") && s.contains("999"), "{s}");
    }
}
