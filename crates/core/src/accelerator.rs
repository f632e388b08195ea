//! The top-level PointAcc model: compiles a network trace (fusion groups,
//! cache block sizes) and replays it through the MPU / MMU / MXU models,
//! producing a [`RunReport`].

use pointacc_geom::{par, MapTable};
use pointacc_nn::{ComputeKind, LayerTrace, NetworkTrace};
use pointacc_sim::{Cycles, DramChannel, EnergyTable, PicoJoules, SramSpec};

use crate::mmu::{
    dense_layer_traffic, fused_activation_bytes, plan_fusion, simulate_sparse_accesses,
    sparse_layer_traffic, CacheConfig, CacheStats, Flow, FusionPlan, SparseAccessPlan,
};
use crate::mpu::Mpu;
use crate::mxu::Mxu;
use crate::perf::{LayerPerf, RunReport};
use crate::PointAccConfig;

/// Input-cache policy for sparse layers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache: pure streaming Fetch-on-Demand (ablation).
    Off,
    /// Fixed block size in points.
    Fixed(usize),
    /// The compiler's behaviour (paper §4.2.3): each sparse layer's
    /// block size is chosen from 1–128 points on a sample of its access
    /// stream (see [`crate::mmu::simulate_sparse_accesses`]).
    Search,
}

/// Execution options (ablation switches).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Computation flow for sparse layers.
    pub gather_scatter_flow: bool,
    /// Input-cache policy.
    pub cache: CachePolicy,
    /// Temporal layer fusion of dense chains.
    pub fusion: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { gather_scatter_flow: false, cache: CachePolicy::Search, fusion: true }
    }
}

/// Block sizes the compiler considers (paper Fig. 18 sweeps 1–128).
const BLOCK_CANDIDATES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Cache work below which `run_with` walks a trace's caches serially,
/// counted as the accesses of each distinct walk's stream: the walk visits
/// each map once, and prices every other segment with one compare per set
/// it touches, at most one per map. Measured on a 2-core host with mini
/// MinkowskiUNet replays on Edge, medians of 400 replays in three to five
/// sessions: up to 3 852 accesses the serial walk won most sessions
/// (3 852: 78–118 µs serially, 78–111 µs on the pool), at 4 706 the pool
/// won two of three (101–122 µs against 105–136 µs), and from 6 010 on it
/// won every session (107–112 µs against 121–189 µs).
const REPLAY_PAR_WORK: u64 = 1 << 12;

/// One layer's walk through the input cache: what
/// [`simulate_sparse_accesses`] prices. Layers with equal walks price
/// alike. The derived `==` compares fields in order, so the table is
/// compared only once the cheap fields match.
#[derive(PartialEq)]
struct Walk<'t> {
    candidates: Vec<CacheConfig>,
    plan: SparseAccessPlan,
    maps: &'t MapTable,
}

/// The accelerator model.
///
/// # Examples
///
/// ```
/// use pointacc::{Accelerator, PointAccConfig};
/// use pointacc_nn::{zoo, ExecMode, Executor};
/// use pointacc_geom::{Point3, PointSet};
///
/// let pts: PointSet = (0..256)
///     .map(|i| Point3::new((i as f32).sin(), (i as f32).cos(), 0.0))
///     .collect();
/// let out = Executor::new(ExecMode::TraceOnly, 0).run(&zoo::pointnet(), &pts);
/// let report = Accelerator::new(PointAccConfig::edge()).run(&out.trace);
/// assert!(report.latency_ms() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Accelerator {
    cfg: PointAccConfig,
    mpu: Mpu,
    mxu: Mxu,
    energy: EnergyTable,
}

impl Accelerator {
    /// Builds an accelerator from a configuration, and the process-wide
    /// worker pool its replays run on, so that thread start-up is paid
    /// here and not by the first [`Accelerator::run`].
    pub fn new(cfg: PointAccConfig) -> Self {
        par::start_pool();
        let mpu = Mpu::new(cfg.merger_width);
        let mxu = Mxu::new(cfg.pe_rows, cfg.pe_cols);
        Accelerator { cfg, mpu, mxu, energy: EnergyTable::tsmc40() }
    }

    /// The configuration.
    pub fn config(&self) -> &PointAccConfig {
        &self.cfg
    }

    /// The mapping unit.
    pub fn mpu(&self) -> &Mpu {
        &self.mpu
    }

    /// The matrix unit.
    pub fn mxu(&self) -> &Mxu {
        &self.mxu
    }

    /// Runs a trace with default options.
    pub fn run(&self, trace: &NetworkTrace) -> RunReport {
        self.run_with(trace, RunOptions::default())
    }

    /// Runs a trace with explicit options (ablations).
    ///
    /// Each distinct cache walk is priced once: layers whose candidates,
    /// access plan and map table are equal share one walk. The distinct
    /// walks run on the [`par`] pool, or serially when they are short,
    /// and then the layers are priced in trace order.
    pub fn run_with(&self, trace: &NetworkTrace, opts: RunOptions) -> RunReport {
        let fusion = if opts.fusion {
            plan_fusion(
                &trace.layers,
                self.cfg.input_buf_bytes + self.cfg.output_buf_bytes,
                self.cfg.elem_bytes,
            )
        } else {
            FusionPlan::default()
        };
        let (walks, walk_of) = self.walks(trace, &fusion, opts);
        let simulate = |w: &Walk<'_>| simulate_sparse_accesses(&w.candidates, w.maps, w.plan);
        let work: usize =
            walks.iter().map(|w| w.maps.len() * w.plan.ic_tiles * w.plan.oc_tiles).sum();
        let walked = if (work as u64) < REPLAY_PAR_WORK {
            walks.iter().map(simulate).collect()
        } else {
            par::parallel_map(&walks, simulate)
        };
        let layers = trace
            .layers
            .iter()
            .zip(walk_of)
            .enumerate()
            .map(|(i, (l, w))| {
                self.run_layer(i, l, trace, &fusion, opts, w.and_then(|w| walked[w]))
            })
            .collect();
        RunReport {
            config: self.cfg.name.clone(),
            network: trace.network.clone(),
            layers,
            freq_hz: self.cfg.freq_hz,
        }
    }

    /// The distinct cache walks of `trace`, and for each layer the index
    /// of its walk, if it takes one.
    fn walks<'t>(
        &self,
        trace: &'t NetworkTrace,
        fusion: &FusionPlan,
        opts: RunOptions,
    ) -> (Vec<Walk<'t>>, Vec<Option<usize>>) {
        let mut walks: Vec<Walk<'t>> = Vec::new();
        let walk_of = (trace.layers.iter().enumerate())
            .map(|(i, layer)| {
                let walk = self.walk(i, layer, fusion, opts)?;
                Some(walks.iter().position(|w| *w == walk).unwrap_or_else(|| {
                    walks.push(walk);
                    walks.len() - 1
                }))
            })
            .collect();
        (walks, walk_of)
    }

    /// The cache walk of layer `index`: an unfused sparse, grouped or
    /// interpolate layer with a map table, in Fetch-on-Demand flow
    /// through a cache.
    fn walk<'t>(
        &self,
        index: usize,
        layer: &'t LayerTrace,
        fusion: &FusionPlan,
        opts: RunOptions,
    ) -> Option<Walk<'t>> {
        let sparse = matches!(
            layer.compute,
            ComputeKind::SparseConv | ComputeKind::Grouped | ComputeKind::Interpolate
        );
        if !sparse || opts.gather_scatter_flow || fusion.group_of(index).is_some() {
            return None;
        }
        let maps = layer.maps.as_ref()?;
        let candidates = self.cache_candidates(layer, opts.cache);
        (!candidates.is_empty()).then(|| Walk { candidates, plan: self.access_plan(layer), maps })
    }

    fn run_layer(
        &self,
        index: usize,
        layer: &LayerTrace,
        trace: &NetworkTrace,
        fusion: &FusionPlan,
        opts: RunOptions,
        walked: Option<(CacheConfig, CacheStats)>,
    ) -> LayerPerf {
        let mpu_cycles = self.mapping_cycles(layer);
        let mxu_cycles = self.mxu.layer_cycles(layer);
        let (dram_bytes, fused) = self.layer_dram(index, layer, trace, fusion, opts, walked);

        let mut channel = DramChannel::new(self.cfg.dram);
        channel.read(dram_bytes);
        let dram_cycles = channel.transfer_cycles(self.cfg.freq_hz);
        let latency = mxu_cycles.max(dram_cycles) + mpu_cycles;

        // --- Energy ---
        let macs = layer.macs();
        // Comparator activity estimate: the MPU datapath is fully busy
        // during mapping cycles.
        let evals_per_cycle = (self.cfg.merger_width as u64 / 2)
            * (self.cfg.merger_width.trailing_zeros() as u64 + 2);
        let mut compute_energy =
            self.energy.macs(macs) + self.energy.compares(mpu_cycles.get() * evals_per_cycle);
        // Banked-access and control overhead beyond the raw CACTI
        // per-access figure (calibration constant).
        let mut sram_energy = self.sram_energy(layer, dram_bytes) * 3.0;
        let mut dram_energy =
            PicoJoules::new(dram_bytes as f64 * self.cfg.dram.energy_pj_per_byte());
        // Uncounted system power (clock tree, control, DRAM background)
        // accrues with latency and is distributed proportionally so the
        // component breakdown is preserved.
        let static_pj = latency.to_seconds(self.cfg.freq_hz) * self.cfg.system_power_w * 1e12;
        let dynamic = (compute_energy.get() + sram_energy.get() + dram_energy.get()).max(1e-12);
        let scale = 1.0 + static_pj / dynamic;
        compute_energy = compute_energy * scale;
        sram_energy = sram_energy * scale;
        dram_energy = dram_energy * scale;

        LayerPerf {
            name: layer.name.clone(),
            mpu_cycles,
            mxu_cycles,
            dram_cycles,
            latency,
            dram_bytes,
            macs,
            compute_energy,
            sram_energy,
            dram_energy,
            cache_miss_rate: walked.map(|(_, s)| s.miss_rate()),
            cache_block_points: walked.map(|(c, _)| c.block_points),
            fused,
        }
    }

    /// Mapping-operation cycles from the MPU's closed-form estimates
    /// (verified against the functional unit in `mpu::ops` tests).
    ///
    /// Each [`pointacc_nn::MappingOp`] descriptor recorded by the
    /// executor is costed
    /// through [`Mpu::op_cycles`] — the executed mapping work and the
    /// modeled cycles come from the same descriptors by construction.
    pub fn mapping_cycles(&self, layer: &LayerTrace) -> Cycles {
        Cycles::new(layer.mapping.iter().map(|m| self.mpu.op_cycles(m)).sum())
    }

    /// DRAM bytes of a layer under the chosen options, given the layer's
    /// cache walk, and its fusion membership.
    fn layer_dram(
        &self,
        index: usize,
        layer: &LayerTrace,
        trace: &NetworkTrace,
        fusion: &FusionPlan,
        opts: RunOptions,
        walked: Option<(CacheConfig, CacheStats)>,
    ) -> (u64, bool) {
        // Fusion-group members (dense FCs, grouped shared-MLP layers and
        // inline pools) keep their activations on the MIR stack; only the
        // group head touches DRAM for activations.
        if let Some(group) = fusion.group_of(index) {
            let weights = layer.weight_bytes(self.cfg.elem_bytes);
            let act = match group.layers[..] {
                // Group members are consecutive trace indices.
                [first, .., last] if first == index => {
                    fused_activation_bytes(&trace.layers[first..=last], self.cfg.elem_bytes)
                }
                _ => 0,
            };
            return (weights + act, true);
        }
        let bytes = match layer.compute {
            // Map-less "sparse" layers (e.g. the broadcast interpolation
            // after a global set abstraction) stream like dense layers.
            ComputeKind::SparseConv | ComputeKind::Grouped | ComputeKind::Interpolate
                if layer.maps.is_none() =>
            {
                let e = self.cfg.elem_bytes as u64;
                layer.n_in as u64 * layer.in_ch as u64 * e
                    + layer.n_out as u64 * layer.out_ch as u64 * e
            }
            ComputeKind::SparseConv | ComputeKind::Grouped | ComputeKind::Interpolate => {
                let flow = if opts.gather_scatter_flow {
                    Flow::GatherMatMulScatter
                } else {
                    Flow::FetchOnDemand { cache: walked.map(|(_, stats)| stats) }
                };
                sparse_layer_traffic(flow, layer, self.cfg.elem_bytes).total()
            }
            ComputeKind::Dense => dense_layer_traffic(layer, self.cfg.elem_bytes).total(),
            // Pooling reduces in the output datapath; its inputs are the
            // previous layer's outputs, already on chip (output
            // stationary).
            ComputeKind::Pool => 0,
        };
        (bytes, false)
    }

    fn access_plan(&self, layer: &LayerTrace) -> SparseAccessPlan {
        let oc_rows = layer.out_ch.max(1) * self.cfg.elem_bytes;
        SparseAccessPlan {
            ic_tiles: layer.in_ch.div_ceil(self.cfg.pe_rows).max(1),
            oc_tiles: layer.out_ch.div_ceil(self.cfg.pe_cols).max(1),
            out_tile_points: (self.cfg.output_buf_bytes / oc_rows).max(1),
        }
    }

    fn cache_config(&self, layer: &LayerTrace, block_points: usize) -> CacheConfig {
        let ic_tile = layer.in_ch.min(self.cfg.pe_rows).max(1);
        CacheConfig {
            capacity_bytes: self.cfg.input_buf_bytes,
            block_points: block_points.max(1),
            row_bytes: ic_tile * self.cfg.elem_bytes,
        }
    }

    /// The input-cache geometries `policy` lets `layer` choose from.
    fn cache_candidates(&self, layer: &LayerTrace, policy: CachePolicy) -> Vec<CacheConfig> {
        let blocks: &[usize] = match &policy {
            CachePolicy::Off => &[],
            CachePolicy::Fixed(bp) => std::slice::from_ref(bp),
            // An empty map table has no stream to search on.
            CachePolicy::Search if layer.maps.as_ref().is_none_or(|m| m.is_empty()) => &[32],
            CachePolicy::Search => &BLOCK_CANDIDATES,
        };
        blocks.iter().map(|&bp| self.cache_config(layer, bp)).collect()
    }

    /// SRAM energy of one layer (input, weight and output buffer
    /// activity).
    fn sram_energy(&self, layer: &LayerTrace, dram_bytes: u64) -> PicoJoules {
        let e = self.cfg.elem_bytes as u64;
        let maps = layer.maps.as_ref().map_or(layer.n_out as u64, |m| m.len() as u64);
        let word = 16usize;
        let input = SramSpec::new(self.cfg.input_buf_bytes, word);
        let output = SramSpec::new(self.cfg.output_buf_bytes, word);
        let weight = SramSpec::new(self.cfg.weight_buf_bytes, word);
        let input_reads = maps * layer.in_ch as u64 * e / word as u64;
        let input_writes = dram_bytes / word as u64;
        let out_words = maps * layer.out_ch as u64 * e / word as u64;
        let weight_words = layer.weight_bytes(self.cfg.elem_bytes) / word as u64;
        input.read_energy() * input_reads as f64
            + input.write_energy() * input_writes as f64
            + output.write_energy() * out_words as f64
            + output.read_energy() * out_words as f64
            + weight.read_energy() * weight_words as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc_geom::{MapEntry, Point3, PointSet};
    use pointacc_nn::{zoo, Aggregation, ExecMode, Executor};

    fn trace(n: usize) -> NetworkTrace {
        let pts: PointSet = (0..n)
            .map(|i| {
                let t = i as f32;
                Point3::new((t * 0.3).sin() * 3.0, (t * 0.7).cos() * 3.0, (t * 0.11).sin())
            })
            .collect();
        Executor::new(ExecMode::TraceOnly, 1).run(&zoo::mini_minkunet(), &pts).trace
    }

    #[test]
    fn report_has_one_record_per_layer() {
        let t = trace(400);
        let report = Accelerator::new(PointAccConfig::edge()).run(&t);
        assert_eq!(report.layers.len(), t.layers.len());
        assert!(report.latency_ms() > 0.0);
        assert!(report.energy().get() > 0.0);
    }

    #[test]
    fn full_config_is_faster_than_edge() {
        let t = trace(600);
        let full = Accelerator::new(PointAccConfig::full()).run(&t);
        let edge = Accelerator::new(PointAccConfig::edge()).run(&t);
        assert!(
            full.latency_ms() < edge.latency_ms(),
            "full {} ms should beat edge {} ms",
            full.latency_ms(),
            edge.latency_ms()
        );
    }

    #[test]
    fn gather_scatter_ablation_moves_more_dram() {
        let t = trace(500);
        let acc = Accelerator::new(PointAccConfig::edge());
        let fod = acc.run(&t);
        let gms =
            acc.run_with(&t, RunOptions { gather_scatter_flow: true, ..RunOptions::default() });
        assert!(
            gms.dram_bytes() > 2 * fod.dram_bytes(),
            "GMS {} should far exceed FoD {}",
            gms.dram_bytes(),
            fod.dram_bytes()
        );
    }

    #[test]
    fn cache_ablation_increases_traffic() {
        let t = trace(500);
        let acc = Accelerator::new(PointAccConfig::edge());
        let cached = acc.run(&t);
        let uncached =
            acc.run_with(&t, RunOptions { cache: CachePolicy::Off, ..RunOptions::default() });
        assert!(uncached.dram_bytes() > cached.dram_bytes());
    }

    #[test]
    fn fusion_ablation_increases_dense_traffic() {
        let pts: PointSet =
            (0..512).map(|i| Point3::new((i as f32).sin(), (i as f32).cos(), 0.0)).collect();
        let t = Executor::new(ExecMode::TraceOnly, 1).run(&zoo::pointnet(), &pts).trace;
        let acc = Accelerator::new(PointAccConfig::edge());
        let fused = acc.run(&t);
        let unfused = acc.run_with(&t, RunOptions { fusion: false, ..RunOptions::default() });
        assert!(
            unfused.dram_bytes() > fused.dram_bytes(),
            "unfused {} should exceed fused {}",
            unfused.dram_bytes(),
            fused.dram_bytes()
        );
        assert!(fused.layers.iter().any(|l| l.fused));
    }

    #[test]
    fn search_prices_each_layer_as_its_chosen_fixed_block() {
        let t = trace(3000);
        let acc = Accelerator::new(PointAccConfig::edge());
        // Some layer's winner runs on past the sample.
        let past_sample = |l: &LayerTrace| {
            let plan = acc.access_plan(l);
            let stream = l.maps.as_ref().map_or(0, |m| m.len() * plan.ic_tiles * plan.oc_tiles);
            stream > crate::mmu::cache::SEARCH_SAMPLE as usize
        };
        assert!(t.layers.iter().any(past_sample));
        for (i, l) in acc.run(&t).layers.iter().enumerate() {
            let Some(bp) = l.cache_block_points else { continue };
            let opts = RunOptions { cache: CachePolicy::Fixed(bp), ..RunOptions::default() };
            let want = &acc.run_with(&t, opts).layers[i];
            let got = (l.dram_bytes, l.cache_miss_rate);
            assert_eq!(got, (want.dram_bytes, want.cache_miss_rate), "{}", l.name);
        }
    }

    #[test]
    fn every_cached_layer_matches_the_oracle() {
        use crate::mmu::cache::{tests::naive_search, SEARCH_SAMPLE};
        use crate::mmu::simulate_sparse_accesses;
        let t = trace(1200);
        let acc = Accelerator::new(PointAccConfig::edge());
        let mut oc_tiles = Vec::new();
        let policies =
            [CachePolicy::Off, CachePolicy::Fixed(3), CachePolicy::Fixed(32), CachePolicy::Search];
        for policy in policies {
            let report = acc.run_with(&t, RunOptions { cache: policy, ..RunOptions::default() });
            for (l, got) in t.layers.iter().zip(&report.layers) {
                let Some(maps) = l.maps.as_ref() else { continue };
                let candidates = acc.cache_candidates(l, policy);
                let plan = acc.access_plan(l);
                let want = (!candidates.is_empty())
                    .then(|| naive_search(&candidates, maps, plan, SEARCH_SAMPLE as usize));
                let name = format!("{} under {policy:?}", l.name);
                assert_eq!(simulate_sparse_accesses(&candidates, maps, plan), want, "{name}");
                assert_eq!(got.cache_block_points, want.map(|(c, _)| c.block_points), "{name}");
                assert_eq!(got.cache_miss_rate, want.map(|(_, s)| s.miss_rate()), "{name}");
                oc_tiles.push(plan.oc_tiles);
            }
        }
        for tiles in [1..=1, 2..=2, 3..=usize::MAX] {
            assert!(oc_tiles.iter().any(|n| tiles.contains(n)), "no layer with {tiles:?} tiles");
        }
    }

    /// `n_out` outputs, each reading three seeded inputs below `n_in`.
    fn seeded_table(seed: u64, n_in: u64, n_out: u32) -> MapTable {
        let mut x = seed;
        let entries = (0..n_out * 3)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                MapEntry::new((x % n_in) as u32, i / 3, (i % 3) as u16)
            })
            .collect();
        MapTable::from_entries(entries, 3)
    }

    #[test]
    fn layers_share_a_walk_only_when_candidates_plan_and_table_are_equal() {
        use crate::mmu::cache::{tests::naive_search, SEARCH_SAMPLE};
        let (n_in, n_out) = (50_000, 20_000);
        let conv = |name: &str, in_ch, maps| LayerTrace {
            name: name.into(),
            compute: ComputeKind::SparseConv,
            n_in: n_in as usize,
            n_out: n_out as usize,
            in_ch,
            out_ch: 32,
            maps: Some(maps),
            mapping: vec![],
            aggregation: Aggregation::Sum,
            pool_group: None,
            fusable: false,
        };
        let table = seeded_table(1, n_in, n_out);
        let other = seeded_table(2, n_in, n_out);
        assert_eq!(table.len(), other.len());
        let trace = NetworkTrace {
            network: "walks".into(),
            input_desc: String::new(),
            layers: vec![
                conv("table", 32, table.clone()),
                conv("cloned table", 32, table.clone()),
                // On the full config one input-channel tile holds 4 or
                // 32 channels alike: the plans are equal, the cache rows
                // (and so the candidates) are not.
                conv("narrow rows", 4, table),
                conv("other table", 32, other),
            ],
        };
        let acc = Accelerator::new(PointAccConfig::full());
        let opts = RunOptions::default();
        let layers = &trace.layers;
        assert_eq!(acc.access_plan(&layers[2]), acc.access_plan(&layers[0]));
        let (walks, walk_of) = acc.walks(&trace, &FusionPlan::default(), opts);
        assert_eq!(walk_of, [Some(0), Some(0), Some(1), Some(2)]);
        assert_eq!(walks.len(), 3);
        let report = acc.run_with(&trace, opts);
        let mut oracles = Vec::new();
        for (l, got) in layers.iter().zip(&report.layers) {
            let candidates = acc.cache_candidates(l, opts.cache);
            let (maps, plan) = (l.maps.as_ref().unwrap(), acc.access_plan(l));
            let (cfg, stats) = naive_search(&candidates, maps, plan, SEARCH_SAMPLE as usize);
            let want = (Some(cfg.block_points), Some(stats.miss_rate()));
            assert_eq!((got.cache_block_points, got.cache_miss_rate), want, "{}", l.name);
            oracles.push(want);
        }
        // Separate walks price differently, so a wrongly shared one shows.
        assert_ne!(oracles[2], oracles[0]);
        assert_ne!(oracles[3], oracles[0]);
    }

    #[test]
    fn breakdown_fractions_are_sane() {
        let t = trace(400);
        let report = Accelerator::new(PointAccConfig::full()).run(&t);
        let (m, x, d) = report.latency_breakdown();
        assert!(m >= 0.0 && x > 0.0 && d >= 0.0);
        assert!((m + x + d - 1.0).abs() < 1e-9);
    }
}
