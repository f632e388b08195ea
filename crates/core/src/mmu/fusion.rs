//! Temporal layer fusion of consecutive dense (FC) layers
//! (paper §4.2.4, Fig. 12, Fig. 20).
//!
//! Point-wise FCs treat the point dimension like a batch dimension, so
//! fusion needs no halo exchange: the planner tiles the point dimension,
//! keeps each tile's intermediate activations on a MIR stack, and only
//! touches DRAM for the first layer's inputs and the last layer's
//! outputs. The planner implements the paper's greedy algorithm: try to
//! fuse all unprocessed FCs; if every tiling overflows the buffer, drop
//! the last layer and retry.

use pointacc_nn::{ComputeKind, LayerTrace};

use super::mir::MirContainer;

/// A planned fusion group: consecutive trace indices executed without
/// spilling intermediates to DRAM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusionGroup {
    /// Indices into the network trace (consecutive).
    pub layers: Vec<usize>,
    /// Points per tile.
    pub tile_points: usize,
}

/// Fusion plan for a whole trace: disjoint groups in order. Layers not
/// covered by any group run standalone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FusionPlan {
    /// The groups (each with ≥ 2 layers).
    pub groups: Vec<FusionGroup>,
}

impl FusionPlan {
    /// Returns the group containing trace index `i`, if any.
    pub fn group_of(&self, i: usize) -> Option<&FusionGroup> {
        self.groups.iter().find(|g| g.layers.contains(&i))
    }
}

/// Smallest tile worth scheduling (amortizes weight-tile switching).
const MIN_TILE_POINTS: usize = 16;

/// Plans fusion groups over `layers` given an on-chip activation budget
/// of `buf_bytes` (the input + output feature buffers in stack mode).
///
/// A chain is a maximal run of consecutive layers marked `fusable` with
/// matching row counts. Within a chain the greedy algorithm fuses the
/// longest feasible prefix, then continues after it.
pub fn plan_fusion(layers: &[LayerTrace], buf_bytes: usize, elem_bytes: usize) -> FusionPlan {
    let mut groups = Vec::new();
    let mut i = 0;
    while i < layers.len() {
        if !layers[i].fusable {
            i += 1;
            continue;
        }
        // Extend the chain of fusable layers with matching row counts.
        // A fusable pooling layer may join and transforms the row count
        // (the output datapath reduces inline), letting an MLP chain,
        // the global pool and the classifier head fuse into one group.
        let mut chain_rows = layers[i].n_out;
        let mut j = i + 1;
        while j < layers.len() && layers[j].fusable {
            let l = &layers[j];
            let joins =
                l.n_out == chain_rows || (l.compute == ComputeKind::Pool && l.n_in == chain_rows);
            if !joins {
                break;
            }
            chain_rows = l.n_out;
            j += 1;
        }
        let rows = layers[i].n_out;
        let chain = &layers[i..j];
        if chain.len() >= 2 {
            let mut start = 0;
            while start < chain.len() {
                let len = max_fusable_prefix(&chain[start..], buf_bytes, elem_bytes, rows);
                if len >= 2 {
                    let tile = tile_points_for(&chain[start..start + len], buf_bytes, elem_bytes)
                        .min(rows.max(1));
                    groups.push(FusionGroup {
                        layers: (i + start..i + start + len).collect(),
                        tile_points: tile,
                    });
                    start += len;
                } else {
                    start += 1;
                }
            }
        }
        i = j;
    }
    FusionPlan { groups }
}

/// The paper's greedy step: longest prefix of `chain` for which some
/// tiling fits the buffer.
fn max_fusable_prefix(
    chain: &[LayerTrace],
    buf_bytes: usize,
    elem_bytes: usize,
    rows: usize,
) -> usize {
    let mut len = chain.len();
    while len >= 2 {
        let t = tile_points_for(&chain[..len], buf_bytes, elem_bytes);
        if t >= MIN_TILE_POINTS.min(rows.max(1)) {
            return len;
        }
        len -= 1; // "discard the last layer and try to fuse remaining"
    }
    0
}

/// Largest tile (in points) whose resident stack fits the buffer: the
/// stack simultaneously holds one tile of every layer's activations
/// (input of layer 0 plus each layer's output).
fn tile_points_for(chain: &[LayerTrace], buf_bytes: usize, elem_bytes: usize) -> usize {
    // Layers after a pooling reduction hold one row per tile; their
    // footprint is negligible next to the pre-pool activations.
    let pre_pool =
        chain.iter().position(|l| l.compute == ComputeKind::Pool).map_or(chain.len(), |p| p + 1);
    let per_point: usize = chain
        .first()
        .map(|l| l.in_ch)
        .unwrap_or(0)
        .saturating_add(chain[..pre_pool].iter().map(|l| l.out_ch).sum::<usize>())
        * elem_bytes;
    if per_point == 0 {
        return 0;
    }
    buf_bytes / per_point
}

/// DRAM activation traffic of a fused group: first inputs in, last
/// outputs out — intermediates never leave the chip. Verified against a
/// stack-machine simulation in tests.
pub fn fused_activation_bytes(chain: &[LayerTrace], elem_bytes: usize) -> u64 {
    let first = chain.first().expect("fusion group cannot be empty");
    let last = chain.last().expect("fusion group cannot be empty");
    (first.n_in * first.in_ch + last.n_out * last.out_ch) as u64 * elem_bytes as u64
}

/// DRAM activation traffic of the same chain run layer by layer.
pub fn unfused_activation_bytes(chain: &[LayerTrace], elem_bytes: usize) -> u64 {
    chain.iter().map(|l| (l.n_in * l.in_ch + l.n_out * l.out_ch) as u64 * elem_bytes as u64).sum()
}

/// Simulates the fused execution of one chain on a MIR stack (Fig. 12b),
/// returning the DRAM bytes actually moved. Panics if the tile schedule
/// would overflow the stack — i.e. validates the planner.
pub fn simulate_fused_chain(
    chain: &[LayerTrace],
    tile_points: usize,
    buf_bytes: usize,
    elem_bytes: usize,
) -> u64 {
    assert!(!chain.is_empty() && tile_points > 0, "invalid fusion schedule");
    let rows = chain[0].n_out;
    let mut stack = MirContainer::new(chain.len() + 1, buf_bytes);
    let mut dram: u64 = 0;
    let n_tiles = rows.div_ceil(tile_points);
    for t in 0..n_tiles {
        let pts = tile_points.min(rows - t * tile_points);
        // Load layer-0 inputs for this tile.
        let in_bytes = pts * chain[0].in_ch * elem_bytes;
        stack.push(0, in_bytes).expect("planner must size tiles to fit the stack");
        dram += in_bytes as u64;
        // Walk down the chain: each layer consumes the tile below and
        // pushes its own (Fig. 12b stages 1–2). The consumed tile is
        // released immediately (whole-tile consumption in this
        // schedule).
        for (li, l) in chain.iter().enumerate() {
            let out_bytes = pts * l.out_ch * elem_bytes;
            stack.pop().expect("input tile must be resident");
            stack.push(li as u64 + 1, out_bytes).expect("planner must size tiles to fit the stack");
        }
        // Final layer's tile goes to DRAM (or the next group).
        let out = stack.pop().expect("output tile must be resident");
        dram += out.occupancy as u64;
    }
    dram
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointacc_nn::{Aggregation, ComputeKind};

    fn fc(n: usize, ic: usize, oc: usize, fusable: bool) -> LayerTrace {
        LayerTrace {
            name: format!("fc{ic}x{oc}"),
            compute: ComputeKind::Dense,
            n_in: n,
            n_out: n,
            in_ch: ic,
            out_ch: oc,
            maps: None,
            mapping: vec![],
            aggregation: Aggregation::None,
            pool_group: None,
            fusable,
        }
    }

    #[test]
    fn plans_single_group_when_it_fits() {
        let layers =
            vec![fc(1024, 64, 64, true), fc(1024, 64, 128, true), fc(1024, 128, 128, true)];
        let plan = plan_fusion(&layers, 256 * 1024, 2);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].layers, vec![0, 1, 2]);
        assert!(plan.groups[0].tile_points >= MIN_TILE_POINTS);
    }

    #[test]
    fn drops_last_layer_on_overflow() {
        // Huge final layer forces the greedy planner to split.
        let layers =
            vec![fc(1024, 64, 64, true), fc(1024, 64, 64, true), fc(1024, 64, 100_000, true)];
        let plan = plan_fusion(&layers, 16 * 1024, 2);
        assert!(!plan.groups.is_empty());
        assert!(
            !plan.groups.iter().any(|g| g.layers.contains(&2)),
            "oversized layer must stay unfused: {plan:?}"
        );
    }

    #[test]
    fn non_fusable_layers_break_chains() {
        let layers = vec![fc(512, 32, 32, true), fc(512, 32, 32, false), fc(512, 32, 32, true)];
        let plan = plan_fusion(&layers, 256 * 1024, 2);
        assert!(plan.groups.is_empty(), "chains of length 1 cannot fuse: {plan:?}");
    }

    #[test]
    fn fusion_cuts_activation_traffic() {
        // Paper Fig. 20: fusion cuts DRAM access 33–64 %.
        let chain = vec![
            fc(1024, 3, 64, true),
            fc(1024, 64, 64, true),
            fc(1024, 64, 128, true),
            fc(1024, 128, 1024, true),
        ];
        let fused = fused_activation_bytes(&chain, 2);
        let unfused = unfused_activation_bytes(&chain, 2);
        let reduction = 1.0 - fused as f64 / unfused as f64;
        assert!(reduction > 0.3, "expected ≥ 30 % reduction, got {:.0} %", reduction * 100.0);
    }

    #[test]
    fn stack_simulation_matches_closed_form() {
        let chain = vec![fc(512, 16, 32, true), fc(512, 32, 64, true)];
        let tile = tile_points_for(&chain, 64 * 1024, 2);
        let simulated = simulate_fused_chain(&chain, tile, 64 * 1024, 2);
        assert_eq!(simulated, fused_activation_bytes(&chain, 2));
    }

    #[test]
    fn mixed_row_counts_do_not_fuse_across() {
        let layers = vec![fc(512, 32, 32, true), fc(256, 32, 32, true), fc(256, 32, 32, true)];
        let plan = plan_fusion(&layers, 256 * 1024, 2);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].layers, vec![1, 2]);
    }
}
