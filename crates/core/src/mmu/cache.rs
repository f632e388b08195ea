//! Input-buffer cache for sparse computation (paper §4.2.3, Fig. 18).
//!
//! In Fetch-on-Demand flow the MMU configures the input feature buffers
//! as a direct-mapped cache with a *software-controllable block size*:
//! one block holds the features of `block_points` consecutive input
//! points for one input-channel tile. The compiler picks each sparse
//! layer's block size by simulating a sample of the layer's access
//! stream; [`simulate_sparse_accesses`] makes that choice and prices the
//! whole stream in one walk of the loop nest.
//!
//! The walk is bit-exact but need not visit every access, nor probe
//! every access it visits:
//!
//! - **Segments.** The loop nest sweeps an output tile's resident maps
//!   once per (output-channel pass, input-channel tile): a *segment*.
//!   Channel tile `ic` reads the blocks of tile 0 with every id shifted by
//!   exactly `2·ic`. An id is `(block·0x9E37_79B9 + 2·ic) | 1`, and
//!   `(x + 2·ic) | 1 == (x | 1) + 2·ic` since `2·ic` is even; nothing
//!   wraps, since `block·0x9E37_79B9 + 2·ic + 1 < 2^64` for any u32 block
//!   and tile. So set `s` of tile 0 becomes set `(s + 2·ic) mod sets`, a
//!   bijection, and it sees the same sequence of ids, shifted. A
//!   direct-mapped set holds the last block mapped to it, so only each
//!   set's first access in a segment depends on the state before it. The
//!   walk takes segment (pass 0, tile 0) access by access, recording for
//!   every set `s` it touches the first id `first[s]` and the last id
//!   `last[s]`, and `internal`, the misses after each set's first access.
//!   Segment (pass, `ic`) then misses
//!   `internal + #{touched s : tags[(s + 2·ic) mod sets] ≠ first[s] + 2·ic}`
//!   and leaves `last[s] + 2·ic` in each such set: one compare and one
//!   store per touched set, for every live candidate. A complete pass
//!   leaves each set it touches holding that set's last id of the pass,
//!   so every pass after the first starts from the same state: the walk
//!   prices a tile's second pass and multiplies it over the later ones.
//!   This is the one-pass idea of stack-based cache evaluation (Mattson
//!   et al., "Evaluation techniques for storage hierarchies", IBM Systems
//!   Journal 1970): later runs follow from one run's per-set state. So
//!   the walk takes one segment per output tile, plus the one that the
//!   search's sample boundary cuts, if any.
//! - **Repeat-block rule.** An access to the block of the access just
//!   before it, in the same geometry and input-channel tile, hits: that
//!   access left the block resident and nothing came between. The walk
//!   counts it as a hit without a probe.

use pointacc_geom::MapTable;

/// Accesses over which the candidate block sizes are compared.
pub(crate) const SEARCH_SAMPLE: u64 = 50_000;

/// Cache geometry for one sparse layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache capacity, bytes (the input feature buffer).
    pub capacity_bytes: usize,
    /// Points per cache block (software-chosen, paper Fig. 18 sweeps
    /// 1–128).
    pub block_points: usize,
    /// Bytes of one point-row within one channel tile
    /// (`ic_tile × elem_bytes`).
    pub row_bytes: usize,
}

impl CacheConfig {
    /// Bytes per cache block.
    pub fn block_bytes(&self) -> usize {
        self.block_points * self.row_bytes
    }

    /// Number of blocks (direct-mapped sets).
    pub fn n_blocks(&self) -> usize {
        (self.capacity_bytes / self.block_bytes()).max(1)
    }
}

/// Access-level results of a cache simulation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total feature-row accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (each loading one block from DRAM).
    pub misses: u64,
    /// DRAM bytes fetched (`misses × block_bytes`).
    pub dram_bytes: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// `ceil(2^64 / d)`, the multiplier [`div_block`] divides by.
fn block_recip(d: u64) -> u128 {
    (1u128 << 64).div_ceil(u128::from(d))
}

/// `point / d`, given `recip = block_recip(d)`: the high part of
/// `recip·point`. Exact for every `d`: up to `2^32`, `F = 64 ≥ 32 + 32`;
/// a larger `d` exceeds every 32-bit point, and `recip·point` stays below
/// `2^32·2^32`, so the quotient is 0.
fn div_block(point: u32, recip: u128) -> u64 {
    ((recip * u128::from(point)) >> 64) as u64
}

/// `ceil(2^128 / sets)` mod 2^128, the multiplier [`rem_set`] reduces
/// by (0 for one set, where every remainder is 0).
fn set_recip(sets: u64) -> u128 {
    (u128::MAX / u128::from(sets)).wrapping_add(1)
}

/// `id % sets`, given `recip = set_recip(sets)`: the high 128 bits of
/// `(recip·id mod 2^128)·sets`, taken in two 64-bit halves. Exact for
/// every 64-bit id when `sets < 2^32`, as `F = 128 ≥ 64 + 32`.
fn rem_set(id: u64, recip: u128, sets: u64) -> u64 {
    let low = recip.wrapping_mul(u128::from(id));
    let sets = u128::from(sets);
    (((low >> 64) * sets + ((low as u64 as u128 * sets) >> 64)) >> 64) as u64
}

/// One candidate's direct-mapped tag array: `tags[set]` holds the id of
/// the block resident in that set. Ids are odd, so 0 marks an empty set.
///
/// The probe divides by multiplying (Lemire, Kaser & Kurz, "Faster
/// remainder by direct computation", SPE 2019): with `c = ceil(2^F/d)`,
/// `n / d` is the high part of `c·n`, and `n % d` the high part of
/// `(c·n mod 2^F)·d`, both exact for every `n < 2^N` when
/// `F ≥ N + log2 d`. A power-of-two block below `2^32` points, which
/// every block the search considers is, divides by shifting instead.
struct TagArray {
    cfg: CacheConfig,
    tags: Vec<u64>,
    misses: u64,
    /// The current output tile's recorded segment.
    record: SegmentRecord,
    block_shift: Option<u32>,
    block_recip: u128,
    set_recip: u128,
}

impl TagArray {
    fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.block_bytes() > 0, "cache block must be nonzero");
        let sets = cfg.n_blocks() as u64;
        assert!(sets < 1 << 32, "{sets} cache sets: the set remainder needs fewer than 2^32");
        let block_points = cfg.block_points as u64;
        TagArray {
            cfg,
            tags: vec![0; sets as usize],
            misses: 0,
            record: SegmentRecord::default(),
            block_shift: (block_points.is_power_of_two() && block_points < 1 << 32)
                .then(|| block_points.trailing_zeros()),
            block_recip: block_recip(block_points),
            set_recip: set_recip(sets),
        }
    }

    /// Accesses the features of each input point of `inputs`, in order,
    /// in channel tile `ic_tile`. A miss loads the block. Every probe
    /// reports `(set, id, hit)` to `probed`; an access to the block of
    /// the access before it is a hit without a probe.
    fn walk(&mut self, inputs: &[u32], ic_tile: u32, mut probed: impl FnMut(usize, u64, bool)) {
        let (block_shift, block_recip) = (self.block_shift, self.block_recip);
        let set_recip = self.set_recip;
        let tags = &mut self.tags[..];
        let sets = tags.len() as u64;
        let mut misses = 0;
        // No block: a block index is at most `u32::MAX`.
        let mut last = u64::MAX;
        for &point in inputs {
            let block = match block_shift {
                Some(shift) => u64::from(point >> shift),
                None => div_block(point, block_recip),
            };
            if block == last {
                continue;
            }
            last = block;
            // Tag = (point block, channel tile); mixing the tile into the
            // id spreads tiles across sets.
            let id = block.wrapping_mul(0x9E37_79B9).wrapping_add(u64::from(ic_tile) << 1) | 1;
            let set = rem_set(id, set_recip, sets) as usize;
            let hit = tags[set] == id;
            probed(set, id, hit);
            // A hit stores the id the set already holds: no branch.
            tags[set] = id;
            misses += u64::from(!hit);
        }
        self.misses += misses;
    }

    /// Starts the record of an output tile's segment (pass 0, tile 0).
    fn begin_record(&mut self) {
        let record = &mut self.record;
        record.seen.resize(self.tags.len(), false);
        record.sets.clear();
        record.internal = 0;
    }

    /// [`TagArray::walk`] in channel tile 0, adding every probe to the
    /// record.
    fn walk_recorded(&mut self, inputs: &[u32]) {
        let mut record = std::mem::take(&mut self.record);
        self.walk(inputs, 0, |set, id, hit| record.probed(set, id, hit));
        self.record = record;
    }

    /// Ends the recorded segment: each set it touched holds its last id.
    fn end_record(&mut self) {
        let SegmentRecord { seen, sets, .. } = &mut self.record;
        for (set, _, last) in sets {
            *last = self.tags[*set as usize];
            seen[*set as usize] = false;
        }
    }

    /// Prices the current output tile's segment in channel tile `ic` from
    /// the record: set `s` becomes `(s + 2·ic) mod sets`, and every id
    /// grows by `2·ic` (see the module docs).
    fn price(&mut self, ic: u32) {
        let step = 2 * u64::from(ic);
        let n = self.tags.len();
        let shift = (step % n as u64) as usize;
        let mut misses = self.record.internal;
        for &(set, first, last) in &self.record.sets {
            let s = set as usize + shift;
            let s = if s < n { s } else { s - n };
            misses += u64::from(self.tags[s] != first + step);
            self.tags[s] = last + step;
        }
        self.misses += misses;
    }

    fn dram_bytes(&self) -> u64 {
        self.misses * self.cfg.block_bytes() as u64
    }
}

/// Each set's accesses in the recorded segment of an output tile.
#[derive(Default)]
struct SegmentRecord {
    /// Whether the segment has touched each set; cleared when it ends.
    seen: Vec<bool>,
    /// `(set, first id, last id)` of each set the segment touched.
    sets: Vec<(u32, u64, u64)>,
    /// Misses after each set's first access.
    internal: u64,
}

impl SegmentRecord {
    fn probed(&mut self, set: usize, id: u64, hit: bool) {
        if self.seen[set] {
            self.internal += u64::from(!hit);
        } else {
            self.seen[set] = true;
            self.sets.push((set as u32, id, 0));
        }
    }
}

/// Keeps only the candidate that moved the fewest DRAM bytes per access
/// over the `accesses` seen so far; ties go to the earlier candidate.
fn keep_cheapest(live: &mut Vec<TagArray>, accesses: u64) {
    let cost = |c: &TagArray| c.dram_bytes() * 1_000 / accesses.max(1);
    if let Some(best) = (0..live.len()).min_by_key(|&i| cost(&live[i])) {
        live.swap(0, best);
        live.truncate(1);
    }
}

/// Loop-nest description of one sparse layer's input accesses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SparseAccessPlan {
    /// Input-channel tiles (`ceil(in_ch / pe_rows)`).
    pub ic_tiles: usize,
    /// Output-channel tiles (`ceil(out_ch / pe_cols)`).
    pub oc_tiles: usize,
    /// Output points resident per output tile (bounded by the output
    /// buffer; the weight-stationary inner loop streams all maps whose
    /// output lies in the resident tile).
    pub out_tile_points: usize,
}

/// Simulates the Fetch-on-Demand access stream of one sparse layer
/// through the input cache. Returns the geometry that priced the stream
/// and its statistics, or `None` when `candidates` is empty (no cache).
///
/// Several candidates make this the compiler's block-size search: all
/// see the first `SEARCH_SAMPLE` accesses (or the whole, shorter
/// stream), then the one that moved the fewest DRAM bytes per access,
/// the earlier on a tie, runs on alone. A cache's state depends only on
/// the accesses it has seen, so the winner's statistics equal those of
/// a fresh run over the whole stream.
///
/// Loop nest (paper §4.2.2): output-stationary outer over output tiles
/// and output-channel tiles; weight-stationary inner over kernel offsets
/// and the maps of the resident outputs; input channels tiled innermost.
/// Each (output-channel pass, input-channel tile) of an output tile is a
/// segment over the same maps. The walk takes the tile's first segment
/// access by access, recording each set's first and last ids, and
/// prices the other segments from that record for every live candidate
/// (see the module docs); only a segment that the sample boundary cuts
/// is walked as well.
///
/// # Panics
///
/// Panics if a candidate's block is zero-sized, or if it has 2^32 or
/// more sets (the set remainder's exactness bound).
pub fn simulate_sparse_accesses(
    candidates: &[CacheConfig],
    maps: &MapTable,
    plan: SparseAccessPlan,
) -> Option<(CacheConfig, CacheStats)> {
    if candidates.is_empty() {
        return None;
    }
    let mut live: Vec<TagArray> = candidates.iter().map(|&cfg| TagArray::new(cfg)).collect();
    let mut accesses = 0u64;
    // Tile bounds are u64: a tile of 2^32 or more points ends past every
    // u32 output.
    let n_out = maps.outputs().iter().max().map_or(0, |&m| u64::from(m) + 1);
    let tile_pts = plan.out_tile_points.max(1) as u64;
    let mut resident: Vec<&[u32]> = Vec::with_capacity(maps.n_weights());
    for t in 0..n_out.div_ceil(tile_pts).max(1) {
        let (lo, hi) = (t * tile_pts, (t + 1) * tile_pts);
        // Outputs ascend within each weight group (`verify_trace` checks
        // it), so each weight's resident maps are a contiguous slice.
        resident.clear();
        resident.extend((0..maps.n_weights()).map(|w| {
            let group = maps.group(w);
            let start = group.outputs().partition_point(|&o| u64::from(o) < lo);
            let end = group.outputs().partition_point(|&o| u64::from(o) < hi);
            &group.inputs()[start..end]
        }));
        walk_tile(&mut live, &mut accesses, &resident, plan);
    }
    keep_cheapest(&mut live, accesses);
    let winner = live.pop()?;
    let stats = CacheStats {
        accesses,
        hits: accesses - winner.misses,
        misses: winner.misses,
        dram_bytes: winner.dram_bytes(),
    };
    Some((winner.cfg, stats))
}

/// Every segment of one output tile, in loop-nest order: each
/// output-channel pass sweeps each input-channel tile over the
/// `resident` maps of each weight. Segment (0, 0) is walked and
/// recorded, the rest priced from the record, and once one geometry is
/// live a pass after the first is priced once for all later passes.
fn walk_tile(
    live: &mut Vec<TagArray>,
    accesses: &mut u64,
    resident: &[&[u32]],
    plan: SparseAccessPlan,
) {
    let len: u64 = resident.iter().map(|inputs| inputs.len() as u64).sum();
    let (ic_tiles, passes) = (plan.ic_tiles as u32, plan.oc_tiles as u64);
    let segments = u64::from(ic_tiles) * passes;
    if len == 0 || segments == 0 {
        return;
    }
    // A tile with one segment needs no record.
    if segments == 1 {
        walk_segment(live, accesses, resident, 0, false);
        return;
    }
    live.iter_mut().for_each(TagArray::begin_record);
    walk_segment(live, accesses, resident, 0, true);
    live.iter_mut().for_each(TagArray::end_record);
    for pass in 0..passes {
        if let ([cache], 1..) = (&mut live[..], pass) {
            // Each later pass starts from the state this one starts from.
            let before = cache.misses;
            (0..ic_tiles).for_each(|ic| cache.price(ic));
            cache.misses += (passes - pass - 1) * (cache.misses - before);
            *accesses += (passes - pass) * u64::from(ic_tiles) * len;
            return;
        }
        for ic in u32::from(pass == 0)..ic_tiles {
            if live.len() > 1 && *accesses + len > SEARCH_SAMPLE {
                walk_segment(live, accesses, resident, ic, false);
                continue;
            }
            live.iter_mut().for_each(|cache| cache.price(ic));
            *accesses += len;
            if *accesses == SEARCH_SAMPLE {
                keep_cheapest(live, *accesses);
            }
        }
    }
}

/// One segment of an output tile, walked access by access: channel tile
/// `ic` over the `resident` maps of each weight, added to the record if
/// `record` (segment (0, 0) only). While several candidates are live,
/// each walks a slice in turn up to `SEARCH_SAMPLE` accesses, where the
/// search decides; the one live geometry walks the rest.
fn walk_segment(
    live: &mut Vec<TagArray>,
    accesses: &mut u64,
    resident: &[&[u32]],
    ic: u32,
    record: bool,
) {
    let walk = |cache: &mut TagArray, inputs| {
        if record {
            cache.walk_recorded(inputs);
        } else {
            cache.walk(inputs, ic, |_, _, _| ());
        }
    };
    for &inputs in resident {
        let mut rest = inputs;
        if live.len() > 1 {
            let sample;
            (sample, rest) =
                inputs.split_at(inputs.len().min((SEARCH_SAMPLE - *accesses) as usize));
            for cache in live.iter_mut() {
                walk(cache, sample);
            }
            *accesses += sample.len() as u64;
            if *accesses == SEARCH_SAMPLE {
                keep_cheapest(live, *accesses);
            }
        }
        if let [cache] = &mut live[..] {
            walk(cache, rest);
            *accesses += rest.len() as u64;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pointacc_geom::MapEntry;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn seq_maps(n: usize, k: usize) -> MapTable {
        // Each output q reads inputs q, q+1, …, q+k−1 under k weights —
        // a 1-D convolution pattern.
        let mut entries = Vec::new();
        for q in 0..n {
            for w in 0..k {
                let p = (q + w) % n;
                entries.push(MapEntry::new(p as u32, q as u32, w as u16));
            }
        }
        MapTable::from_entries(entries, k)
    }

    fn plan() -> SparseAccessPlan {
        SparseAccessPlan { ic_tiles: 1, oc_tiles: 1, out_tile_points: 64 }
    }

    fn fixed(cfg: CacheConfig, maps: &MapTable) -> CacheStats {
        simulate_sparse_accesses(&[cfg], maps, plan()).unwrap().1
    }

    #[test]
    fn tag_array_hits_and_misses() {
        let cfg = CacheConfig { capacity_bytes: 4 * 64, block_points: 1, row_bytes: 64 };
        let mut c = TagArray::new(cfg);
        assert_eq!(c.tags.len(), 4);
        let mut probes = Vec::new();
        // Cold miss, a repeat of the same block (a hit without a probe),
        // a conflict (both ids land in set 1 of 4), then point 0 again:
        // evicted by point 4.
        c.walk(&[0, 0, 4, 0], 0, |set, _, hit| probes.push((set, hit)));
        assert_eq!(probes, [(1, false), (1, false), (1, false)]);
        // A new slice probes its first access: point 0 is resident.
        c.walk(&[0], 0, |set, _, hit| probes.push((set, hit)));
        assert_eq!(probes[3..], [(1, true)]);
        assert_eq!(c.misses, 3);
    }

    #[test]
    fn bigger_blocks_reduce_miss_rate() {
        // Paper Fig. 18: miss rate decreases with block size.
        let maps = seq_maps(4096, 3);
        let mut last = f64::INFINITY;
        for bp in [1usize, 4, 16, 64] {
            let cfg = CacheConfig { capacity_bytes: 64 * 1024, block_points: bp, row_bytes: 128 };
            let s = fixed(cfg, &maps);
            assert!(
                s.miss_rate() <= last + 1e-9,
                "block {bp}: rate {} should not exceed {last}",
                s.miss_rate()
            );
            last = s.miss_rate();
        }
    }

    #[test]
    fn more_neighbors_reduce_miss_rate() {
        // Paper Fig. 18: higher kernel size (more neighbors) → more reuse.
        let cfg = CacheConfig { capacity_bytes: 32 * 1024, block_points: 8, row_bytes: 128 };
        let s2 = fixed(cfg, &seq_maps(4096, 2));
        let s3 = fixed(cfg, &seq_maps(4096, 8));
        assert!(
            s3.miss_rate() < s2.miss_rate(),
            "k=8 rate {} should be below k=2 rate {}",
            s3.miss_rate(),
            s2.miss_rate()
        );
    }

    #[test]
    fn dram_bytes_equal_misses_times_block() {
        let cfg = CacheConfig { capacity_bytes: 4 * 1024, block_points: 4, row_bytes: 64 };
        let s = fixed(cfg, &seq_maps(512, 3));
        assert_eq!(s.dram_bytes, s.misses * cfg.block_bytes() as u64);
        assert_eq!(s.accesses, s.hits + s.misses);
    }

    #[test]
    fn perfect_reuse_when_everything_fits() {
        // Working set fits: only cold misses remain.
        let maps = seq_maps(64, 4);
        let cfg = CacheConfig { capacity_bytes: 1024 * 1024, block_points: 1, row_bytes: 128 };
        let s = fixed(cfg, &maps);
        assert_eq!(s.misses, 64, "one cold miss per distinct input point");
    }

    /// The two-step search, modeled independently of the one pass: the
    /// access order from its own loop nest (a filter in place of the
    /// binary search), a fresh `HashMap` (set → tag) per run, every
    /// candidate on the first `sample` accesses, then the winner fresh
    /// over the whole stream.
    pub(crate) fn naive_search(
        candidates: &[CacheConfig],
        maps: &MapTable,
        plan: SparseAccessPlan,
        sample: usize,
    ) -> (CacheConfig, CacheStats) {
        let n_out = maps.outputs().iter().map(|&q| q as usize + 1).max().unwrap_or(0);
        let mut order = Vec::new();
        for lo in (0..n_out.max(1)).step_by(plan.out_tile_points) {
            let resident = lo..lo + plan.out_tile_points;
            for _oc in 0..plan.oc_tiles {
                for ic in 0..plan.ic_tiles as u32 {
                    for w in 0..maps.n_weights() {
                        let g = maps.group(w);
                        for (&p, &q) in g.inputs().iter().zip(g.outputs()) {
                            if resident.contains(&(q as usize)) {
                                order.push((p, ic));
                            }
                        }
                    }
                }
            }
        }
        let run = |cfg: CacheConfig, n: usize| {
            let mut sets = HashMap::new();
            let mut s = CacheStats::default();
            for &(p, ic) in order.iter().take(n) {
                let block = (p as usize / cfg.block_points) as u64;
                let id = block.wrapping_mul(0x9E37_79B9).wrapping_add(u64::from(ic) << 1) | 1;
                s.accesses += 1;
                if sets.insert(id % cfg.n_blocks() as u64, id) == Some(id) {
                    s.hits += 1;
                } else {
                    s.misses += 1;
                    s.dram_bytes += cfg.block_bytes() as u64;
                }
            }
            s
        };
        let mut best = (candidates[0], u64::MAX);
        for &cfg in candidates {
            let s = run(cfg, sample);
            let cost = s.dram_bytes * 1_000 / s.accesses.max(1);
            if cost < best.1 {
                best = (cfg, cost);
            }
        }
        (best.0, run(best.0, order.len()))
    }

    /// `n_maps` maps under `k` weights, outputs ascending. Output `q`
    /// reads inputs at seeded offsets in `q..q + spread(q)`: a narrow
    /// window favours bigger blocks, a wide one block 1.
    fn seeded_maps(seed: u64, n_maps: usize, k: usize, spread: impl Fn(usize) -> u64) -> MapTable {
        let mut x = seed;
        let entries = (0..n_maps)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let q = i / k;
                MapEntry::new((q as u64 + x % spread(q)) as u32, q as u32, (i % k) as u16)
            })
            .collect();
        MapTable::from_entries(entries, k)
    }

    #[test]
    fn one_pass_matches_sample_then_fresh_run() {
        let geometry =
            |cap, bp| CacheConfig { capacity_bytes: cap, block_points: bp, row_bytes: 64 };
        let all = [1, 2, 4, 8, 16, 32, 64, 128].map(|bp| geometry(64 << 10, bp));
        let tiles =
            |ic_tiles, oc_tiles| SparseAccessPlan { ic_tiles, oc_tiles, out_tile_points: 300 };
        let sample = SEARCH_SAMPLE as usize;
        let wide_then_narrow = |q| if q < 1_000 { 4096 } else { 8 };
        let cases = [
            // Shorter than the sample: decided at the end of the stream.
            ("short", seeded_maps(1, 20_000, 4, |_| 64), tiles(1, 1), &all[..], 20_000),
            ("exact", seeded_maps(2, 25_000, 8, |_| 16), tiles(2, 1), &all, sample),
            // The sample's wide windows pick block 1, although block 2
            // moves fewer bytes over the whole stream.
            ("long", seeded_maps(3, 30_000, 3, wide_then_narrow), tiles(2, 2), &all, 120_000),
        ];
        for (name, maps, plan, candidates, len) in cases {
            let (cfg, stats) = simulate_sparse_accesses(candidates, &maps, plan).unwrap();
            assert_eq!((cfg, stats), naive_search(candidates, &maps, plan, sample), "{name}");
            assert_eq!(stats.accesses, len as u64, "{name}");
            if name == "long" {
                let whole_stream_best = naive_search(candidates, &maps, plan, len).0;
                assert_ne!(cfg, whole_stream_best, "the sample, not the stream, decides");
            }
        }
        // Every input read once and everything fits: both block sizes
        // load the same bytes, and the earlier candidate wins the tie.
        let maps = seq_maps(4096, 1);
        let pair = [geometry(1 << 20, 8), geometry(1 << 20, 4)];
        let (cfg, stats) = simulate_sparse_accesses(&pair, &maps, plan()).unwrap();
        assert_eq!((cfg, stats), naive_search(&pair, &maps, plan(), sample));
        assert_eq!(fixed(pair[1], &maps).dram_bytes, stats.dram_bytes);
        assert_eq!(cfg.block_points, 8);
    }

    #[test]
    fn skipped_passes_match_the_oracle() {
        let geometry =
            |bp| CacheConfig { capacity_bytes: 64 << 10, block_points: bp, row_bytes: 64 };
        let all = [1, 2, 4, 8, 16, 32, 64, 128].map(geometry);
        let tiles = |ic_tiles, oc_tiles, out_tile_points| SparseAccessPlan {
            ic_tiles,
            oc_tiles,
            out_tile_points,
        };
        // Every output resident at once: a single output tile.
        let one_tile = 1 << 20;
        let sample = SEARCH_SAMPLE as usize;
        // (name, maps, plan, candidates, pass of the single output tile
        // in which the search decides)
        let cases = [
            // 12 000 accesses a pass.
            ("late", seeded_maps(4, 12_000, 4, |_| 64), tiles(1, 7, one_tile), &all[..], Some(5)),
            // 60 000 accesses a pass.
            ("early", seeded_maps(5, 30_000, 6, |_| 16), tiles(2, 3, one_tile), &all, Some(1)),
            // 17 output tiles of 300 points, 16 passes each.
            ("tiled", seeded_maps(6, 15_000, 3, |_| 512), tiles(1, 16, 300), &all, None),
            ("fixed 3", seeded_maps(7, 20_000, 4, |_| 32), tiles(1, 16, 300), &[geometry(3)], None),
            ("fixed 8", seeded_maps(8, 20_000, 8, |_| 256), tiles(3, 5, 300), &[geometry(8)], None),
            ("late, 16", seeded_maps(9, 12_000, 4, |_| 64), tiles(1, 16, one_tile), &all, Some(5)),
            // The search decides in some tile; later tiles record pass 1
            // of 2.
            ("tiled, 2", seeded_maps(10, 30_000, 4, |_| 64), tiles(1, 2, 300), &all, None),
            ("fixed 5", seeded_maps(11, 20_000, 4, |_| 32), tiles(2, 2, 300), &[geometry(5)], None),
        ];
        for (name, maps, plan, candidates, decides_in) in cases {
            let got = simulate_sparse_accesses(candidates, &maps, plan).unwrap();
            assert_eq!(got, naive_search(candidates, &maps, plan, sample), "{name}");
            let pass = maps.len() * plan.ic_tiles;
            assert_eq!(got.1.accesses, (pass * plan.oc_tiles) as u64, "{name}");
            if let Some(k) = decides_in {
                assert_eq!((sample - 1) / pass + 1, k, "{name}");
            }
        }
    }

    /// One weight group that reads `inputs` in order, map `q` into
    /// output `q`.
    fn stream(inputs: &[u32]) -> MapTable {
        let entries =
            (inputs.iter().enumerate()).map(|(q, &p)| MapEntry::new(p, q as u32, 0)).collect();
        MapTable::from_entries(entries, 1)
    }

    /// A four-set geometry, so that blocks conflict.
    fn four_sets(block_points: usize) -> CacheConfig {
        CacheConfig { capacity_bytes: 4 * 64 * block_points, block_points, row_bytes: 64 }
    }

    #[test]
    fn repeat_block_hits_match_the_oracle() {
        let inside = [0, 1, 2, 0, 1, 2, 2, 1, 0];
        let across: Vec<u32> = (1..20).collect();
        let descending: Vec<u32> = (0..20).rev().collect();
        let repeated = [4, 4, 4, 5, 5, 9, 9, 4, 4, 13, 13, 4];
        let streams: [(&str, &[u32]); 4] = [
            ("inside one block", &inside),
            ("across block edges", &across),
            ("descending", &descending),
            ("repeated", &repeated),
        ];
        let sample = SEARCH_SAMPLE as usize;
        for (name, inputs) in streams {
            let maps = stream(inputs);
            // 1 000: a block larger than every point.
            for block_points in [3, 5, 1_000] {
                for (ic_tiles, oc_tiles) in [(1, 1), (2, 3)] {
                    let plan = SparseAccessPlan { ic_tiles, oc_tiles, out_tile_points: 8 };
                    let cfg = [four_sets(block_points)];
                    let got = simulate_sparse_accesses(&cfg, &maps, plan).unwrap();
                    let want = naive_search(&cfg, &maps, plan, sample);
                    assert_eq!(got, want, "{name}, block {block_points}, {plan:?}");
                }
            }
        }
        // The rule fires: points 1–19 in blocks of 3 probe once per block.
        let mut probes = 0;
        TagArray::new(four_sets(3)).walk(&across, 0, |_, _, _| probes += 1);
        assert_eq!(probes, 7);
    }

    #[test]
    fn recorded_pass_matches_the_oracle() {
        // Points 0 and 4 share set 1 of 4 at block 1. The third case has
        // two output tiles: the first leaves point 0 resident, so the
        // second tile's recorded pass starts with a hit.
        let cases = [
            ("first equals last", stream(&[0, 4, 0]), 8, [5, 33]),
            ("first differs from last", stream(&[0, 4]), 8, [4, 32]),
            ("first access hit", stream(&[4, 0, 0, 4]), 2, [7, 63]),
        ];
        for (name, maps, out_tile_points, misses) in cases {
            for (oc_tiles, misses) in [2, 16].into_iter().zip(misses) {
                let plan = SparseAccessPlan { ic_tiles: 1, oc_tiles, out_tile_points };
                let cfg = [four_sets(1)];
                let got = simulate_sparse_accesses(&cfg, &maps, plan).unwrap();
                let want = naive_search(&cfg, &maps, plan, SEARCH_SAMPLE as usize);
                assert_eq!(got, want, "{name}, {oc_tiles} passes");
                assert_eq!(got.1.misses, misses, "{name}, {oc_tiles} passes");
            }
        }
    }

    #[test]
    fn sample_boundary_in_any_segment_matches_the_oracle() {
        let geometry =
            |bp| CacheConfig { capacity_bytes: 64 << 10, block_points: bp, row_bytes: 64 };
        let all = [1, 2, 4, 8, 16, 32, 64, 128].map(geometry);
        let tiles = |ic_tiles, oc_tiles, out_tile_points| SparseAccessPlan {
            ic_tiles,
            oc_tiles,
            out_tile_points,
        };
        let one_tile = 1 << 20;
        let sample = SEARCH_SAMPLE as usize;
        // (name, maps, plan, maps per output tile, the (output tile, pass,
        // channel tile) whose segment the boundary cuts)
        let cases = [
            ("recorded", seeded_maps(12, 40_000, 4, |_| 64), tiles(2, 1, 5_000), 20_000, (1, 0, 0)),
            ("ic 2", seeded_maps(13, 20_000, 4, |_| 8), tiles(4, 2, one_tile), 20_000, (0, 0, 2)),
            ("pass 2", seeded_maps(14, 9_000, 3, |_| 256), tiles(2, 5, one_tile), 9_000, (0, 2, 1)),
        ];
        for (name, maps, plan, len, cut) in cases {
            let got = simulate_sparse_accesses(&all, &maps, plan).unwrap();
            assert_eq!(got, naive_search(&all, &maps, plan, sample), "{name}");
            let (ic_tiles, segments) = (plan.ic_tiles, plan.ic_tiles * plan.oc_tiles);
            let segment = sample / len;
            assert_ne!(sample % len, 0, "{name}: the boundary ends a segment");
            let at = (segment / segments, segment % segments / ic_tiles, segment % ic_tiles);
            assert_eq!(at, cut, "{name}");
        }
    }

    #[test]
    fn channel_tile_shifts_wrap_around_few_sets() {
        // Twelve channel tiles shift sets by up to 22, so with at most 22
        // sets the shifts wrap; one set holds one block at a time.
        let maps = seeded_maps(15, 600, 3, |_| 40);
        let geometry = |sets: usize, block_points| CacheConfig {
            capacity_bytes: sets * 64 * block_points,
            block_points,
            row_bytes: 64,
        };
        let search = [1, 3, 7, 22].map(|sets| geometry(sets, 1));
        let fixed = [1, 3, 7, 22].map(|sets| [geometry(sets, 1), geometry(sets, 3)]);
        let fixed = fixed.iter().flatten().map(std::slice::from_ref);
        for (ic_tiles, oc_tiles, out_tile_points) in [(12, 1, 64), (12, 3, 16), (5, 4, 7)] {
            let plan = SparseAccessPlan { ic_tiles, oc_tiles, out_tile_points };
            for candidates in fixed.clone().chain([&search[..]]) {
                let got = simulate_sparse_accesses(candidates, &maps, plan).unwrap();
                let want = naive_search(candidates, &maps, plan, SEARCH_SAMPLE as usize);
                assert_eq!(got, want, "{candidates:?}, {plan:?}");
            }
        }
    }

    #[test]
    fn empty_output_tiles_match_the_oracle() {
        // Outputs 0–9 and 30–39 in tiles of 10: tiles 1 and 2 are empty.
        let entries = (0..10)
            .chain(30..40)
            .flat_map(|q| (0..3).map(move |w| MapEntry::new((q * 3 + w) % 17, q, w as u16)))
            .collect();
        let maps = MapTable::from_entries(entries, 3);
        let search = [four_sets(1), four_sets(2), four_sets(5)];
        for candidates in [&search[..1], &search] {
            for (ic_tiles, oc_tiles) in [(1, 1), (3, 1), (1, 4), (3, 2)] {
                let plan = SparseAccessPlan { ic_tiles, oc_tiles, out_tile_points: 10 };
                let got = simulate_sparse_accesses(candidates, &maps, plan).unwrap();
                let want = naive_search(candidates, &maps, plan, SEARCH_SAMPLE as usize);
                assert_eq!(got, want, "{candidates:?}, {plan:?}");
                assert_eq!(got.1.accesses, (60 * ic_tiles * oc_tiles) as u64);
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn output_tiles_past_u32_max_hold_every_output() {
        let maps = stream(&(0..100).collect::<Vec<u32>>());
        let cfg = [four_sets(1)];
        for (ic_tiles, oc_tiles) in [(1, 1), (2, 3)] {
            let plan = SparseAccessPlan { ic_tiles, oc_tiles, out_tile_points: (1 << 32) + 8 };
            let got = simulate_sparse_accesses(&cfg, &maps, plan).unwrap();
            assert_eq!(got, naive_search(&cfg, &maps, plan, SEARCH_SAMPLE as usize));
            assert_eq!(got.1.accesses, (100 * ic_tiles * oc_tiles) as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random small tables, plans and geometries; the longest streams
        /// (1 500 maps × 12 channel tiles × 5 passes) cross the sample.
        #[test]
        fn segments_match_the_oracle(
            seed in 0u64..u64::MAX,
            n_maps in 0usize..1_500,
            weights in 1usize..5,
            spread in 1u64..2_000,
            tiling in (1usize..13, 1usize..6, 1usize..300),
            blocks in prop::collection::vec(1usize..130, 1..5),
            sets in 1usize..48,
            row_bytes in 1usize..65,
        ) {
            let maps = seeded_maps(seed, n_maps, weights, |_| spread);
            let (ic_tiles, oc_tiles, out_tile_points) = tiling;
            let plan = SparseAccessPlan { ic_tiles, oc_tiles, out_tile_points };
            // Eight blocks of `block_points` per `sets`, at least one set.
            let candidates: Vec<CacheConfig> = (blocks.iter())
                .map(|&block_points| CacheConfig {
                    capacity_bytes: sets * 8 * row_bytes,
                    block_points,
                    row_bytes,
                })
                .collect();
            let got = simulate_sparse_accesses(&candidates, &maps, plan).unwrap();
            let want = naive_search(&candidates, &maps, plan, SEARCH_SAMPLE as usize);
            prop_assert_eq!(got, want, "{:?}, {:?}", candidates, plan);
        }
    }

    /// Set counts of every geometry the full and Edge configurations
    /// give the search: each input-channel tile width, each block size.
    fn config_set_counts() -> Vec<u64> {
        let mut counts = Vec::new();
        for cfg in [crate::PointAccConfig::full(), crate::PointAccConfig::edge()] {
            for ic_tile in 1..=cfg.pe_rows {
                for bp in [1, 2, 4, 8, 16, 32, 64, 128] {
                    let row_bytes = ic_tile * cfg.elem_bytes;
                    let geometry = CacheConfig {
                        capacity_bytes: cfg.input_buf_bytes,
                        block_points: bp,
                        row_bytes,
                    };
                    counts.push(geometry.n_blocks() as u64);
                }
            }
        }
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// `0, 1, max`, a random value, and `k·d − 1, k·d, k·d + 1` for
    /// `k = 1`, a random `k`, and the largest `k` that fits.
    fn probe_values(d: u64, max: u64, random: u64, k: u64) -> Vec<u64> {
        let mut values = vec![0, 1, max, random];
        for k in [1, k % (max / d).max(1) + 1, max / d] {
            let m = k.saturating_mul(d).min(max);
            values.extend([m.wrapping_sub(1), m, m.saturating_add(1).min(max)]);
        }
        values
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn reciprocal_probe_matches_division(
            sets in 1u64..1 << 32,
            id in 0u64..u64::MAX,
            block in 1u64..1 << 33,
            point in 0u32..u32::MAX,
            k in 0u64..u64::MAX,
        ) {
            for d in config_set_counts().into_iter().chain([sets]) {
                let recip = set_recip(d);
                for id in probe_values(d, u64::MAX, id, k) {
                    prop_assert_eq!(rem_set(id, recip, d), id % d, "{} % {}", id, d);
                }
            }
            let blocks = [1, 2, 3, 4, 8, 16, 32, 64, 128, block, block << 31, u64::MAX];
            for d in blocks {
                let recip = block_recip(d);
                for point in probe_values(d, u32::MAX.into(), point.into(), k) {
                    let point = point as u32;
                    prop_assert_eq!(div_block(point, recip), u64::from(point) / d, "{} / {}", point, d);
                }
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "cache sets")]
    fn tag_array_rejects_2_pow_32_sets() {
        TagArray::new(CacheConfig { capacity_bytes: 1 << 32, block_points: 1, row_bytes: 1 });
    }
}
