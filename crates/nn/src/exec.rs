//! Reference executor: runs a [`Network`] on a point cloud with plain
//! CPU arithmetic, producing functional outputs **and** the
//! [`NetworkTrace`] every hardware model replays.
//!
//! Mapping operations run on the production ops of
//! [`pointacc_geom::index`], which are bit-identical to the golden
//! oracle (and to the PointAcc mapping unit), so traces and features
//! match what the brute-force algorithms would produce. SparseConv
//! layers execute the MinkowskiEngine-style gather–GEMM–scatter flow
//! over [`KernelMap`]s with per-offset weights from the seeded
//! [`WeightGen`], so [`ExecMode::Full`] yields real, reproducible
//! features for voxel networks end to end.
//!
//! Malformed network/tensor combinations never panic: every fault is a
//! typed [`ExecError`] from [`Executor::try_run`].

use pointacc_geom::index::{self, dist_key};
use pointacc_geom::par::{parallel_map_with, worker_threads};
use pointacc_geom::{golden, FeatureMatrix, KernelMap, MapTable, Point3, PointSet, VoxelCloud};

use crate::{
    Aggregation, ComputeKind, Domain, ExecError, LayerTrace, MappingOp, Network, NetworkTrace, Op,
    WeightGen,
};

/// MAC count below which the gather-GEMM-scatter loop stays serial:
/// worker spawns and psum-buffer traffic cost more than the matmuls
/// they would split.
const CONV_PAR_WORK: usize = 1 << 20;

/// Execution fidelity.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Compute every feature value (slow, exact outputs).
    Full,
    /// Compute mapping operations and shapes only; skip matrix math.
    /// Traces are identical to [`ExecMode::Full`] except that DGCNN's
    /// feature-space k-NN graph is built on coordinates instead (same
    /// size, different edges). Use for large profiling runs.
    TraceOnly,
}

/// Execution tuning knobs, orthogonal to fidelity ([`ExecMode`]) and the
/// weight seed. The default is the auto-threaded configuration; a
/// worker-count override changes wall-clock only (the conv reduction is
/// deterministic by construction).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker-thread count for the parallel gather-GEMM-scatter path
    /// (`None` = the process-wide [`worker_threads`] count). `Some(1)`
    /// forces the serial path; any value yields bit-identical features.
    pub conv_workers: Option<usize>,
}

/// Result of executing a network.
#[derive(Clone, Debug)]
pub struct ExecOutput {
    /// Per-layer execution trace.
    pub trace: NetworkTrace,
    /// Final feature matrix (all zeros in [`ExecMode::TraceOnly`]).
    pub features: FeatureMatrix,
}

/// The reference executor.
///
/// # Examples
///
/// ```
/// use pointacc_nn::{zoo, Executor, ExecMode};
/// use pointacc_geom::{Point3, PointSet};
///
/// let net = zoo::pointnet();
/// let pts: PointSet = (0..64)
///     .map(|i| Point3::new(i as f32 * 0.1, (i % 8) as f32 * 0.2, 0.0))
///     .collect();
/// let out = Executor::new(ExecMode::Full, 42).run(&net, &pts);
/// assert_eq!(out.features.rows(), 1); // classification head
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Executor {
    mode: ExecMode,
    weights: WeightGen,
    options: ExecOptions,
}

/// Current tensor flowing through the network.
#[derive(Clone, Debug)]
enum State {
    Pts(PointSet),
    Vox(VoxelCloud),
    Global,
}

impl State {
    fn rows(&self, feats: &FeatureMatrix) -> usize {
        let _ = self;
        feats.rows()
    }

    /// Human-readable tensor kind for error reporting.
    fn kind(&self) -> &'static str {
        match self {
            State::Pts(_) => "point-cloud",
            State::Vox(_) => "voxelized",
            State::Global => "global",
        }
    }
}

struct Ctx {
    state: State,
    feats: FeatureMatrix,
    skips: Vec<(State, FeatureMatrix)>,
    layers: Vec<LayerTrace>,
    layer_idx: usize,
}

impl Executor {
    /// Creates an executor with the given fidelity and weight seed.
    pub fn new(mode: ExecMode, seed: u64) -> Self {
        Executor { mode, weights: WeightGen::new(seed), options: ExecOptions::default() }
    }

    /// Returns this executor with the given tuning knobs (builder style).
    #[must_use]
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs `net` on `points`, returning outputs and trace.
    ///
    /// Thin compatibility wrapper over [`Executor::try_run`].
    ///
    /// # Panics
    ///
    /// Panics with the [`ExecError`] message if the network/tensor
    /// combination is malformed (e.g. an empty point cloud, a
    /// `FeaturePropagation` with an empty skip stack, or a voxel network
    /// without a voxel size). Serving paths should call
    /// [`Executor::try_run`] instead.
    pub fn run(&self, net: &Network, points: &PointSet) -> ExecOutput {
        // lint: allow(panic): documented panicking facade over try_run.
        self.try_run(net, points).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `net` on `points`, returning outputs and trace, or a typed
    /// [`ExecError`] when the network/tensor combination is malformed.
    /// No `panic!` is reachable from op dispatch.
    pub fn try_run(&self, net: &Network, points: &PointSet) -> Result<ExecOutput, ExecError> {
        if points.is_empty() {
            return Err(ExecError::EmptyInput);
        }
        let (state, feats) = self.build_input(net, points)?;
        let mut ctx = Ctx { state, feats, skips: Vec::new(), layers: Vec::new(), layer_idx: 0 };
        for op in net.ops() {
            self.exec_op(op, &mut ctx)?;
        }
        Ok(ExecOutput {
            trace: NetworkTrace {
                network: net.name().to_string(),
                input_desc: format!("{} points", points.len()),
                layers: ctx.layers,
            },
            features: ctx.feats,
        })
    }

    fn build_input(
        &self,
        net: &Network,
        points: &PointSet,
    ) -> Result<(State, FeatureMatrix), ExecError> {
        match net.domain() {
            Domain::PointBased => {
                let f = input_features(points.points(), net.in_ch());
                Ok((State::Pts(points.clone()), f))
            }
            Domain::VoxelBased => {
                let v = net
                    .voxel_size()
                    .ok_or_else(|| ExecError::MissingVoxelSize { network: net.name().into() })?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(ExecError::InvalidVoxelSize {
                        network: net.name().into(),
                        voxel_size: v,
                    });
                }
                let vc = points.voxelize(v);
                let centers: Vec<Point3> = vc
                    .coords()
                    .iter()
                    .map(|c| Point3::new(c.x as f32 * v, c.y as f32 * v, c.z as f32 * v))
                    .collect();
                let f = input_features(&centers, net.in_ch());
                Ok((State::Vox(vc), f))
            }
        }
    }

    fn exec_op(&self, op: &Op, ctx: &mut Ctx) -> Result<(), ExecError> {
        match op {
            Op::Mlp { dims } => {
                self.exec_mlp(ctx, dims, "mlp", true);
                Ok(())
            }
            Op::Head { dims } => self.exec_head(ctx, dims),
            Op::GlobalMaxPool => {
                self.exec_global_pool(ctx);
                Ok(())
            }
            Op::SparseConv { out_ch, kernel_size, stride } => {
                self.exec_sparse_conv(ctx, *out_ch, *kernel_size, *stride)
            }
            Op::SparseConvTr { out_ch, kernel_size } => {
                self.exec_sparse_conv_tr(ctx, *out_ch, *kernel_size)
            }
            Op::SetAbstraction { n_out, radius, k, dims } => {
                self.exec_sa(ctx, Some((*n_out, *radius, *k)), dims)
            }
            Op::GlobalSetAbstraction { dims } => self.exec_sa(ctx, None, dims),
            Op::FeaturePropagation { dims } => self.exec_fp(ctx, dims),
            Op::EdgeConv { k, dims } => self.exec_edgeconv(ctx, *k, dims),
        }
    }

    /// Pops the skip pushed by the matching encoder stage, surfacing an
    /// empty stack or a wrong-kind skip as a typed error.
    fn pop_skip(
        ctx: &mut Ctx,
        op: &'static str,
        expected: &'static str,
    ) -> Result<(State, FeatureMatrix), ExecError> {
        let (state, feats) =
            ctx.skips.pop().ok_or(ExecError::MissingSkip { layer: ctx.layer_idx, op })?;
        if state.kind() != expected {
            return Err(ExecError::SkipMismatch {
                layer: ctx.layer_idx,
                op,
                expected,
                found: state.kind(),
            });
        }
        Ok((state, feats))
    }

    /// Point-wise FC chain with ReLU; each FC is one fusable dense trace.
    fn exec_mlp(&self, ctx: &mut Ctx, dims: &[usize], tag: &str, relu_last: bool) {
        for (i, &d) in dims.iter().enumerate() {
            let in_ch = ctx.feats.cols();
            let rows = ctx.state.rows(&ctx.feats);
            if self.mode == ExecMode::Full {
                let w = self.weights.matrix(ctx.layer_idx, 0, in_ch, d);
                let mut out = ctx.feats.matmul(&w);
                if relu_last || i + 1 < dims.len() {
                    out.relu_in_place();
                }
                ctx.feats = out;
            } else {
                ctx.feats = FeatureMatrix::zeros(rows, d);
            }
            ctx.layers.push(LayerTrace {
                name: format!("{}.{}[{}]", ctx.layer_idx, tag, i),
                compute: ComputeKind::Dense,
                n_in: rows,
                n_out: rows,
                in_ch,
                out_ch: d,
                maps: None,
                mapping: vec![],
                aggregation: Aggregation::None,
                pool_group: None,
                fusable: true,
            });
            ctx.layer_idx += 1;
        }
    }

    fn exec_head(&self, ctx: &mut Ctx, dims: &[usize]) -> Result<(), ExecError> {
        if !matches!(ctx.state, State::Global) {
            return Err(ExecError::DomainMismatch {
                layer: ctx.layer_idx,
                op: "Head",
                expected: "global",
                found: ctx.state.kind(),
            });
        }
        let n = dims.len();
        for (i, &d) in dims.iter().enumerate() {
            let in_ch = ctx.feats.cols();
            if self.mode == ExecMode::Full {
                let w = self.weights.matrix(ctx.layer_idx, 0, in_ch, d);
                let mut out = ctx.feats.matmul(&w);
                if i + 1 < n {
                    out.relu_in_place();
                }
                ctx.feats = out;
            } else {
                ctx.feats = FeatureMatrix::zeros(1, d);
            }
            ctx.layers.push(LayerTrace {
                name: format!("{}.head[{}]", ctx.layer_idx, i),
                compute: ComputeKind::Dense,
                n_in: 1,
                n_out: 1,
                in_ch,
                out_ch: d,
                maps: None,
                mapping: vec![],
                aggregation: Aggregation::None,
                pool_group: None,
                fusable: true,
            });
            ctx.layer_idx += 1;
        }
        Ok(())
    }

    fn exec_global_pool(&self, ctx: &mut Ctx) {
        let rows = ctx.feats.rows();
        let c = ctx.feats.cols();
        let pooled = if self.mode == ExecMode::Full {
            let mut out = FeatureMatrix::from_fn(1, c, |_, _| f32::NEG_INFINITY);
            for r in 0..rows {
                out.scatter_max(0, &ctx.feats, r);
            }
            out
        } else {
            FeatureMatrix::zeros(1, c)
        };
        ctx.layers.push(LayerTrace {
            name: format!("{}.maxpool", ctx.layer_idx),
            compute: ComputeKind::Pool,
            n_in: rows,
            n_out: 1,
            in_ch: c,
            out_ch: c,
            maps: None,
            mapping: vec![],
            aggregation: Aggregation::Max,
            pool_group: Some(rows),
            fusable: true,
        });
        ctx.layer_idx += 1;
        ctx.state = State::Global;
        ctx.feats = pooled;
    }

    fn exec_sparse_conv(
        &self,
        ctx: &mut Ctx,
        out_ch: usize,
        ks: usize,
        stride: usize,
    ) -> Result<(), ExecError> {
        let vc = match &ctx.state {
            State::Vox(v) => v.clone(),
            other => {
                return Err(ExecError::DomainMismatch {
                    layer: ctx.layer_idx,
                    op: "SparseConv",
                    expected: "voxelized",
                    found: other.kind(),
                })
            }
        };
        let mut mapping = Vec::new();
        let (out_vc, km) = if stride > 1 {
            // U-Net encoder: remember the finer level for the decoder.
            ctx.skips.push((State::Vox(vc.clone()), ctx.feats.clone()));
            let (ds, km) = KernelMap::downsample(&vc, ks, stride as i32);
            mapping.push(MappingOp::Quantize { n_in: vc.len(), n_out: ds.len() });
            (ds, km)
        } else {
            (vc.clone(), KernelMap::unit_stride(&vc, ks))
        };
        mapping.push(MappingOp::KernelMap {
            n_in: km.n_in(),
            n_out: km.n_out(),
            kernel_volume: km.kernel_volume(),
            n_maps: km.table().len(),
        });
        let in_ch = ctx.feats.cols();
        let out = self.sparse_conv_compute(ctx, km.table(), km.n_out(), in_ch, out_ch);
        ctx.layers.push(LayerTrace {
            name: format!("{}.{}", ctx.layer_idx, if stride > 1 { "conv_down" } else { "conv" }),
            compute: ComputeKind::SparseConv,
            n_in: vc.len(),
            n_out: out_vc.len(),
            in_ch,
            out_ch,
            maps: Some(km.into_table()),
            mapping,
            aggregation: Aggregation::Sum,
            pool_group: None,
            fusable: false,
        });
        ctx.layer_idx += 1;
        ctx.state = State::Vox(out_vc);
        ctx.feats = out;
        Ok(())
    }

    fn exec_sparse_conv_tr(
        &self,
        ctx: &mut Ctx,
        out_ch: usize,
        ks: usize,
    ) -> Result<(), ExecError> {
        let coarse = match &ctx.state {
            State::Vox(v) => v.clone(),
            other => {
                return Err(ExecError::DomainMismatch {
                    layer: ctx.layer_idx,
                    op: "SparseConvTr",
                    expected: "voxelized",
                    found: other.kind(),
                })
            }
        };
        let (fine_state, skip_feats) = Self::pop_skip(ctx, "SparseConvTr", "voxelized")?;
        let fine = match &fine_state {
            State::Vox(v) => v.clone(),
            _ => unreachable!("pop_skip checked the tensor kind"),
        };
        // Maps of the transposed conv = transpose of the forward
        // downsampling conv's maps (fine → coarse).
        let km = KernelMap::transposed(&fine, &coarse, ks);
        let mapping = vec![MappingOp::KernelMap {
            n_in: fine.len(),
            n_out: coarse.len(),
            kernel_volume: km.kernel_volume(),
            n_maps: km.table().len(),
        }];
        let in_ch = ctx.feats.cols();
        let conv_out = self.sparse_conv_compute(ctx, km.table(), km.n_out(), in_ch, out_ch);
        // U-Net skip concatenation.
        let out = if self.mode == ExecMode::Full {
            conv_out.concat_cols(&skip_feats)
        } else {
            FeatureMatrix::zeros(fine.len(), out_ch + skip_feats.cols())
        };
        ctx.layers.push(LayerTrace {
            name: format!("{}.conv_up", ctx.layer_idx),
            compute: ComputeKind::SparseConv,
            n_in: coarse.len(),
            n_out: fine.len(),
            in_ch,
            out_ch,
            maps: Some(km.into_table()),
            mapping,
            aggregation: Aggregation::Sum,
            pool_group: None,
            fusable: false,
        });
        ctx.layer_idx += 1;
        ctx.state = State::Vox(fine);
        ctx.feats = out;
        Ok(())
    }

    /// Gather-matmul-scatter over one map table (functional reference for
    /// both SparseConv and SparseConvTr).
    ///
    /// Gathers index straight off the table's SoA slices (no per-group
    /// index materialization). Above [`CONV_PAR_WORK`] the per-weight
    /// gather+GEMM partials run on [`parallel_map_with`]; the scatter
    /// stays a single serial pass in ascending weight order, so the
    /// float-addition order into every output row — and therefore every
    /// feature bit — is identical to the serial path for any worker
    /// count.
    fn sparse_conv_compute(
        &self,
        ctx: &mut Ctx,
        maps: &MapTable,
        n_out: usize,
        in_ch: usize,
        out_ch: usize,
    ) -> FeatureMatrix {
        if self.mode != ExecMode::Full {
            return FeatureMatrix::zeros(n_out, out_ch);
        }
        let groups: Vec<usize> =
            (0..maps.n_weights()).filter(|&w| !maps.group(w).is_empty()).collect();
        let feats = &ctx.feats;
        let layer_idx = ctx.layer_idx;
        let psum_of = |&w: &usize| -> FeatureMatrix {
            let wm = self.weights.matrix(layer_idx, w, in_ch, out_ch);
            feats.gather(maps.group(w).inputs()).matmul(&wm)
        };
        let work = maps.len().saturating_mul(in_ch).saturating_mul(out_ch);
        let workers = self.options.conv_workers.unwrap_or_else(worker_threads);
        let psums: Vec<FeatureMatrix> = if workers > 1 && groups.len() > 1 && work >= CONV_PAR_WORK
        {
            parallel_map_with(workers, &groups, psum_of)
        } else {
            groups.iter().map(psum_of).collect()
        };
        let mut out = FeatureMatrix::zeros(n_out, out_ch);
        for (&w, psum) in groups.iter().zip(&psums) {
            for (r, &o) in maps.group(w).outputs().iter().enumerate() {
                out.scatter_add(o as usize, psum, r);
            }
        }
        out.relu_in_place();
        out
    }

    fn exec_sa(
        &self,
        ctx: &mut Ctx,
        spec: Option<(usize, f32, usize)>,
        dims: &[usize],
    ) -> Result<(), ExecError> {
        let pts = match &ctx.state {
            State::Pts(p) => p.clone(),
            other => {
                return Err(ExecError::DomainMismatch {
                    layer: ctx.layer_idx,
                    op: "SetAbstraction",
                    expected: "point-cloud",
                    found: other.kind(),
                })
            }
        };
        // Push the pre-abstraction level for FeaturePropagation.
        ctx.skips.push((State::Pts(pts.clone()), ctx.feats.clone()));

        let (centroids, nbrs, mapping, k) = match spec {
            Some((n_out, radius, k)) => {
                let n_out = n_out.min(pts.len());
                let sel = index::farthest_point_sampling(&pts, n_out);
                let centroids = pts.select(&sel);
                let nbrs = index::ball_query_padded(&pts, &centroids, radius * radius, k);
                let mapping = vec![
                    MappingOp::Fps { n_in: pts.len(), n_out },
                    MappingOp::BallQuery { n_in: pts.len(), n_queries: n_out, k },
                ];
                (centroids, nbrs, mapping, k)
            }
            None => {
                // Group-all: one neighborhood with every point.
                let centroids = PointSet::from_points(vec![Point3::ORIGIN]);
                let nbrs = vec![(0..pts.len()).collect::<Vec<_>>()];
                (centroids, nbrs, vec![], pts.len())
            }
        };
        let maps = golden::neighbors_to_maps(&nbrs);
        let in_ch = ctx.feats.cols() + 3; // features ++ relative xyz
        let rows = centroids.len() * k;

        // Build grouped features.
        let grouped = if self.mode == ExecMode::Full {
            let mut g = FeatureMatrix::zeros(rows, in_ch);
            for (q, ns) in nbrs.iter().enumerate() {
                for (j, &p) in ns.iter().enumerate() {
                    let row = g.row_mut(q * k + j);
                    row[..ctx.feats.cols()].copy_from_slice(ctx.feats.row(p));
                    let rel = pts.point(p).sub(centroids.point(q));
                    row[ctx.feats.cols()] = rel.x;
                    row[ctx.feats.cols() + 1] = rel.y;
                    row[ctx.feats.cols() + 2] = rel.z;
                }
            }
            g
        } else {
            FeatureMatrix::zeros(rows, in_ch)
        };

        // Shared MLP over grouped rows; first layer carries the gather
        // maps, last layer max-pools each neighborhood.
        let mut cur = grouped;
        let n_dims = dims.len();
        for (i, &d) in dims.iter().enumerate() {
            let ic = cur.cols();
            if self.mode == ExecMode::Full {
                let w = self.weights.matrix(ctx.layer_idx, 0, ic, d);
                cur = cur.matmul(&w);
                cur.relu_in_place();
            } else {
                cur = FeatureMatrix::zeros(rows, d);
            }
            let last = i + 1 == n_dims;
            ctx.layers.push(LayerTrace {
                name: format!("{}.sa_mlp[{}]", ctx.layer_idx, i),
                compute: if i == 0 { ComputeKind::Grouped } else { ComputeKind::Dense },
                n_in: if i == 0 { pts.len() } else { rows },
                n_out: rows,
                in_ch: ic,
                out_ch: d,
                maps: if i == 0 { Some(maps.clone()) } else { None },
                mapping: if i == 0 { mapping.clone() } else { vec![] },
                aggregation: if last { Aggregation::Max } else { Aggregation::None },
                pool_group: last.then_some(k),
                fusable: true,
            });
            ctx.layer_idx += 1;
        }

        // Max-pool over each neighborhood.
        let pooled = if self.mode == ExecMode::Full {
            let c = cur.cols();
            let mut out = FeatureMatrix::from_fn(centroids.len(), c, |_, _| f32::NEG_INFINITY);
            for q in 0..centroids.len() {
                for j in 0..k {
                    out.scatter_max(q, &cur, q * k + j);
                }
            }
            out
        } else {
            FeatureMatrix::zeros(centroids.len(), cur.cols())
        };
        if spec.is_some() {
            ctx.state = State::Pts(centroids);
        } else {
            ctx.state = State::Global;
        }
        ctx.feats = pooled;
        Ok(())
    }

    fn exec_fp(&self, ctx: &mut Ctx, dims: &[usize]) -> Result<(), ExecError> {
        if matches!(ctx.state, State::Vox(_)) {
            return Err(ExecError::DomainMismatch {
                layer: ctx.layer_idx,
                op: "FeaturePropagation",
                expected: "point-cloud or global",
                found: ctx.state.kind(),
            });
        }
        let (fine_state, skip_feats) = Self::pop_skip(ctx, "FeaturePropagation", "point-cloud")?;
        let fine = match &fine_state {
            State::Pts(p) => p.clone(),
            _ => unreachable!("pop_skip checked the tensor kind"),
        };
        let c = ctx.feats.cols();
        let (interp, maps, mapping) = match &ctx.state {
            State::Global => {
                // Broadcast the single global vector to every fine point.
                let mut f = FeatureMatrix::zeros(fine.len(), c);
                if self.mode == ExecMode::Full {
                    for r in 0..fine.len() {
                        f.row_mut(r).copy_from_slice(ctx.feats.row(0));
                    }
                }
                (f, None, vec![])
            }
            State::Pts(coarse) => {
                let k = 3.min(coarse.len());
                let nbrs = index::k_nearest_neighbors(coarse, &fine, k);
                let maps = golden::neighbors_to_maps(&nbrs);
                let mut f = FeatureMatrix::zeros(fine.len(), c);
                if self.mode == ExecMode::Full {
                    for (q, ns) in nbrs.iter().enumerate() {
                        let qp = fine.point(q);
                        let ws: Vec<f32> =
                            ns.iter().map(|&p| 1.0 / (coarse.point(p).dist2(qp) + 1e-8)).collect();
                        let total: f32 = ws.iter().sum();
                        for (j, &p) in ns.iter().enumerate() {
                            let w = ws[j] / total;
                            let src = ctx.feats.row(p);
                            let dst = f.row_mut(q);
                            for (dv, &sv) in dst.iter_mut().zip(src) {
                                *dv += w * sv;
                            }
                        }
                    }
                }
                let mapping = vec![MappingOp::Knn { n_in: coarse.len(), n_queries: fine.len(), k }];
                (f, Some(maps), mapping)
            }
            State::Vox(_) => unreachable!("rejected above"),
        };
        let n_coarse = ctx.feats.rows();
        ctx.layers.push(LayerTrace {
            name: format!("{}.fp_interp", ctx.layer_idx),
            compute: ComputeKind::Interpolate,
            n_in: n_coarse,
            n_out: fine.len(),
            in_ch: c,
            out_ch: c,
            maps,
            mapping,
            aggregation: Aggregation::Sum,
            pool_group: None,
            fusable: false,
        });
        ctx.layer_idx += 1;

        ctx.feats = if self.mode == ExecMode::Full {
            interp.concat_cols(&skip_feats)
        } else {
            FeatureMatrix::zeros(fine.len(), c + skip_feats.cols())
        };
        ctx.state = State::Pts(fine);
        self.exec_mlp(ctx, dims, "fp_mlp", true);
        Ok(())
    }

    fn exec_edgeconv(&self, ctx: &mut Ctx, k: usize, dims: &[usize]) -> Result<(), ExecError> {
        let pts = match &ctx.state {
            State::Pts(p) => p.clone(),
            other => {
                return Err(ExecError::DomainMismatch {
                    layer: ctx.layer_idx,
                    op: "EdgeConv",
                    expected: "point-cloud",
                    found: other.kind(),
                })
            }
        };
        let n = pts.len();
        let c = ctx.feats.cols();
        let k = k.min(n.saturating_sub(1)).max(1);
        // DGCNN rebuilds the k-NN graph in *feature* space each layer. In
        // TraceOnly mode the graph is built on coordinates (identical
        // size and cost, different edges).
        let nbrs: Vec<Vec<usize>> = if self.mode == ExecMode::Full {
            feature_knn(&ctx.feats, k)
                .map_err(|_| ExecError::NonFiniteFeature { layer: ctx.layer_idx, op: "EdgeConv" })?
        } else {
            index::k_nearest_neighbors(&pts, &pts, k + 1)
                .into_iter()
                .enumerate()
                .map(|(i, mut v)| {
                    v.retain(|&j| j != i);
                    v.truncate(k);
                    v
                })
                .collect()
        };
        let maps = golden::neighbors_to_maps(&nbrs);
        let mapping = vec![MappingOp::KnnFeature { n_in: n, n_queries: n, k, dim: c }];
        let rows = n * k;
        let in_ch = 2 * c;

        let mut cur = if self.mode == ExecMode::Full {
            let mut g = FeatureMatrix::zeros(rows, in_ch);
            for (i, ns) in nbrs.iter().enumerate() {
                for (j, &nb) in ns.iter().enumerate() {
                    let row = g.row_mut(i * k + j);
                    let fi = ctx.feats.row(i);
                    let fj = ctx.feats.row(nb);
                    row[..c].copy_from_slice(fi);
                    for (t, (a, b)) in fj.iter().zip(fi).enumerate() {
                        row[c + t] = a - b;
                    }
                }
                // Pad short neighbor lists by self-edges (zeros already).
            }
            g
        } else {
            FeatureMatrix::zeros(rows, in_ch)
        };

        let n_dims = dims.len();
        for (i, &d) in dims.iter().enumerate() {
            let ic = cur.cols();
            if self.mode == ExecMode::Full {
                let w = self.weights.matrix(ctx.layer_idx, 0, ic, d);
                cur = cur.matmul(&w);
                cur.relu_in_place();
            } else {
                cur = FeatureMatrix::zeros(rows, d);
            }
            let last = i + 1 == n_dims;
            ctx.layers.push(LayerTrace {
                name: format!("{}.edge_mlp[{}]", ctx.layer_idx, i),
                compute: if i == 0 { ComputeKind::Grouped } else { ComputeKind::Dense },
                n_in: if i == 0 { n } else { rows },
                n_out: rows,
                in_ch: ic,
                out_ch: d,
                maps: if i == 0 { Some(maps.clone()) } else { None },
                mapping: if i == 0 { mapping.clone() } else { vec![] },
                aggregation: if last { Aggregation::Max } else { Aggregation::None },
                pool_group: last.then_some(k),
                fusable: true,
            });
            ctx.layer_idx += 1;
        }

        // Max over neighbors.
        let pooled = if self.mode == ExecMode::Full {
            let oc = cur.cols();
            let mut out = FeatureMatrix::from_fn(n, oc, |_, _| f32::NEG_INFINITY);
            for i in 0..n {
                for j in 0..k {
                    out.scatter_max(i, &cur, i * k + j);
                }
            }
            out
        } else {
            FeatureMatrix::zeros(n, cur.cols())
        };
        ctx.state = State::Pts(pts);
        ctx.feats = pooled;
        Ok(())
    }
}

/// Initial per-point features: xyz in the first three channels (when they
/// fit), remaining channels filled with a deterministic pseudo-color.
fn input_features(points: &[Point3], in_ch: usize) -> FeatureMatrix {
    FeatureMatrix::from_fn(points.len(), in_ch, |r, c| {
        let p = points[r];
        match c {
            0 if in_ch >= 3 => p.x,
            1 if in_ch >= 3 => p.y,
            2 if in_ch >= 3 => p.z,
            _ => {
                // Pseudo-color derived from position; bounded [0, 1).
                let h = (p.x * 12.9898 + p.y * 78.233 + p.z * 37.719 + c as f32).sin() * 43758.547;
                h.fract().abs()
            }
        }
    })
}

/// Marker error: a feature-space distance came out NaN (the caller maps
/// it to [`ExecError::NonFiniteFeature`] with layer context).
struct NonFiniteDistance;

/// Brute-force k-NN over feature rows (excluding self).
///
/// Feature space is high-dimensional, so the 3-D grid index does not
/// apply; the scan ranks with the same total-order [`dist_key`] as the
/// spatial mapping ops, which makes the sort immune to non-finite values —
/// a NaN distance (NaN or overflowed features) is detected up front and
/// surfaced as an error instead of panicking mid-sort.
fn feature_knn(feats: &FeatureMatrix, k: usize) -> Result<Vec<Vec<usize>>, NonFiniteDistance> {
    let n = feats.rows();
    (0..n)
        .map(|i| {
            let fi = feats.row(i);
            let mut keys: Vec<u128> = Vec::with_capacity(n.saturating_sub(1));
            for j in (0..n).filter(|&j| j != i) {
                let fj = feats.row(j);
                let dist: f32 = fi.iter().zip(fj).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist.is_nan() {
                    return Err(NonFiniteDistance);
                }
                keys.push(dist_key(dist, j as u32));
            }
            keys.sort_unstable();
            keys.truncate(k);
            Ok(keys.into_iter().map(|key| (key & 0xFFFF_FFFF) as usize).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use pointacc_geom::Point3;

    fn cloud(n: usize) -> PointSet {
        (0..n)
            .map(|i| {
                let t = i as f32;
                Point3::new((t * 0.37).sin() * 2.0, (t * 0.61).cos() * 2.0, (t * 0.13).sin() * 1.0)
            })
            .collect()
    }

    #[test]
    fn pointnet_runs_and_classifies() {
        let net = zoo::pointnet();
        let out = Executor::new(ExecMode::Full, 1).run(&net, &cloud(128));
        assert_eq!(out.features.rows(), 1);
        assert_eq!(out.features.cols(), 40);
        assert!(out.trace.total_macs() > 0);
    }

    #[test]
    fn trace_only_matches_full_trace_shape() {
        let net = zoo::pointnet_pp_classification();
        let pts = cloud(256);
        let full = Executor::new(ExecMode::Full, 1).run(&net, &pts);
        let fast = Executor::new(ExecMode::TraceOnly, 1).run(&net, &pts);
        assert_eq!(full.trace.layers.len(), fast.trace.layers.len());
        assert_eq!(full.trace.total_macs(), fast.trace.total_macs());
        for (a, b) in full.trace.layers.iter().zip(&fast.trace.layers) {
            assert_eq!(a.n_out, b.n_out, "{}", a.name);
            assert_eq!(a.out_ch, b.out_ch, "{}", a.name);
        }
    }

    #[test]
    fn minkunet_trace_has_sparse_layers() {
        let net = zoo::mini_minkunet();
        let out = Executor::new(ExecMode::Full, 3).run(&net, &cloud(400));
        let sparse =
            out.trace.layers.iter().filter(|l| l.compute == ComputeKind::SparseConv).count();
        assert!(sparse >= 4, "expected sparse conv layers, got {sparse}");
        // Decoder restores the input-resolution cloud.
        let last_sparse =
            out.trace.layers.iter().rev().find(|l| l.compute == ComputeKind::SparseConv).unwrap();
        let first_sparse =
            out.trace.layers.iter().find(|l| l.compute == ComputeKind::SparseConv).unwrap();
        assert_eq!(last_sparse.n_out, first_sparse.n_in);
    }

    #[test]
    fn executor_is_deterministic() {
        let net = zoo::dgcnn();
        let pts = cloud(64);
        let a = Executor::new(ExecMode::Full, 9).run(&net, &pts);
        let b = Executor::new(ExecMode::Full, 9).run(&net, &pts);
        assert_eq!(a.features, b.features);
    }

    #[test]
    fn seg_network_outputs_per_point() {
        let net = zoo::pointnet_pp_segmentation();
        let pts = cloud(512);
        let out = Executor::new(ExecMode::Full, 2).run(&net, &pts);
        assert_eq!(out.features.rows(), 512);
        assert_eq!(out.features.cols(), 13);
    }

    #[test]
    #[should_panic(expected = "empty point cloud")]
    fn empty_input_rejected() {
        let net = zoo::pointnet();
        let _ = Executor::new(ExecMode::Full, 1).run(&net, &PointSet::new());
    }

    #[test]
    fn try_run_surfaces_empty_input() {
        let net = zoo::pointnet();
        let err = Executor::new(ExecMode::Full, 1).try_run(&net, &PointSet::new());
        assert_eq!(err.unwrap_err(), ExecError::EmptyInput);
    }

    #[test]
    fn voxel_network_without_voxel_size_is_an_error() {
        let net = Network::new("no-voxel", Domain::VoxelBased, 4).push(Op::SparseConv {
            out_ch: 8,
            kernel_size: 3,
            stride: 1,
        });
        let err = Executor::new(ExecMode::Full, 1).try_run(&net, &cloud(16)).unwrap_err();
        assert_eq!(err, ExecError::MissingVoxelSize { network: "no-voxel".into() });
    }

    #[test]
    fn non_positive_voxel_size_is_an_error() {
        for bad in [0.0f32, -0.5, f32::NAN, f32::INFINITY] {
            let net = Network::new("bad-voxel", Domain::VoxelBased, 4).with_voxel_size(bad);
            let err = Executor::new(ExecMode::Full, 1).try_run(&net, &cloud(16)).unwrap_err();
            assert!(
                matches!(err, ExecError::InvalidVoxelSize { .. }),
                "voxel size {bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn sparse_conv_on_point_cloud_is_domain_mismatch() {
        let net = Network::new("mixed", Domain::PointBased, 3).push(Op::SparseConv {
            out_ch: 8,
            kernel_size: 3,
            stride: 1,
        });
        let err = Executor::new(ExecMode::Full, 1).try_run(&net, &cloud(16)).unwrap_err();
        assert_eq!(
            err,
            ExecError::DomainMismatch {
                layer: 0,
                op: "SparseConv",
                expected: "voxelized",
                found: "point-cloud",
            }
        );
    }

    #[test]
    fn unbalanced_decoder_is_missing_skip() {
        // A SparseConvTr with no stride-2 SparseConv before it: the skip
        // stack underflows, which must be a typed error, not an abort.
        let net = Network::new("unbalanced", Domain::VoxelBased, 4)
            .with_voxel_size(0.1)
            .push(Op::SparseConv { out_ch: 8, kernel_size: 3, stride: 1 })
            .push(Op::SparseConvTr { out_ch: 8, kernel_size: 2 });
        let err = Executor::new(ExecMode::Full, 1).try_run(&net, &cloud(64)).unwrap_err();
        assert_eq!(err, ExecError::MissingSkip { layer: 1, op: "SparseConvTr" });
    }

    #[test]
    fn fp_without_sa_is_missing_skip() {
        let net = Network::new("fp-only", Domain::PointBased, 3)
            .push(Op::FeaturePropagation { dims: vec![16] });
        let err = Executor::new(ExecMode::TraceOnly, 1).try_run(&net, &cloud(32)).unwrap_err();
        assert_eq!(err, ExecError::MissingSkip { layer: 0, op: "FeaturePropagation" });
    }

    #[test]
    fn head_before_pool_is_domain_mismatch() {
        let net = Network::new("headless", Domain::PointBased, 3).push(Op::Head { dims: vec![8] });
        let err = Executor::new(ExecMode::Full, 1).try_run(&net, &cloud(16)).unwrap_err();
        assert_eq!(
            err,
            ExecError::DomainMismatch {
                layer: 0,
                op: "Head",
                expected: "global",
                found: "point-cloud",
            }
        );
    }

    #[test]
    fn nan_features_surface_as_typed_error_not_panic() {
        // A NaN coordinate propagates into the input features, so
        // DGCNN's feature-space k-NN computes NaN distances. Before the
        // total-order ranking key this panicked inside the sort
        // comparator ("finite distances"); now it is a typed error.
        let net = Network::new("edge-nan", Domain::PointBased, 3)
            .push(Op::EdgeConv { k: 2, dims: vec![8] });
        let mut pts: Vec<Point3> = cloud(8).points().to_vec();
        pts[3] = Point3::new(f32::NAN, 0.0, 0.0);
        let err = Executor::new(ExecMode::Full, 1)
            .try_run(&net, &PointSet::from_points(pts))
            .unwrap_err();
        assert!(matches!(err, ExecError::NonFiniteFeature { op: "EdgeConv", .. }), "{err:?}");
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn infinite_features_still_rank_totally() {
        // +inf distances (overflowed but not NaN features) are orderable
        // under the total-order key: execution completes.
        let net = Network::new("edge-inf", Domain::PointBased, 3)
            .push(Op::EdgeConv { k: 2, dims: vec![8] });
        let mut pts: Vec<Point3> = cloud(8).points().to_vec();
        pts[5] = Point3::new(1e38, 1e38, 0.0); // dist² overflows to +inf
        let out = Executor::new(ExecMode::Full, 1).try_run(&net, &PointSet::from_points(pts));
        assert!(out.is_ok(), "{:?}", out.err());
    }

    #[test]
    fn run_panics_with_the_typed_message() {
        let net = Network::new("unbalanced", Domain::VoxelBased, 4)
            .with_voxel_size(0.1)
            .push(Op::SparseConvTr { out_ch: 8, kernel_size: 2 });
        let result = std::panic::catch_unwind(|| {
            let _ = Executor::new(ExecMode::Full, 1).run(&net, &cloud(32));
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("panic carries the error message");
        assert!(msg.contains("SparseConvTr"), "{msg}");
        assert!(msg.contains("skip stack is empty"), "{msg}");
    }
}
