//! Memory-tile Meta-Info Registers (MIRs) and their container
//! (paper Fig. 11a/b).
//!
//! The MMU manages on-chip buffers in the granularity of *tiles*; each
//! tile's metadata (base offset, capacity, occupancy, id) lives in a
//! MIR. For temporal layer fusion the container works as a **stack** of
//! per-layer tiles (Fig. 12a); [`crate::mmu::fusion::simulate_fused_chain`]
//! replays fused chains on it to check the fusion planner. When the
//! input buffers act as a cache (Fig. 11b), only the tags matter to the
//! model, so [`crate::mmu::cache`] keeps them in a plain array.

/// Metadata of one memory tile.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Mir {
    /// Tile identity (the layer id).
    pub id: u64,
    /// Base offset of the tile in the buffer, bytes.
    pub base: usize,
    /// Allocated capacity, bytes.
    pub capacity: usize,
    /// Bytes currently valid.
    pub occupancy: usize,
}

/// The MIR container: a fixed number of MIR slots plus the byte budget of
/// the buffer they describe.
#[derive(Clone, Debug)]
pub struct MirContainer {
    capacity_bytes: usize,
    slots: Vec<Option<Mir>>,
}

impl MirContainer {
    /// Creates a container with `n_slots` MIRs over a buffer of
    /// `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `n_slots == 0` or `capacity_bytes == 0`.
    pub fn new(n_slots: usize, capacity_bytes: usize) -> Self {
        assert!(n_slots > 0 && capacity_bytes > 0, "container must be nonzero");
        MirContainer { capacity_bytes, slots: vec![None; n_slots] }
    }

    /// Pushes a tile; fails with `None` if the byte budget or slot count
    /// would overflow.
    pub fn push(&mut self, id: u64, bytes: usize) -> Option<usize> {
        let used: usize = self.slots.iter().flatten().map(|m| m.occupancy).sum();
        if used + bytes > self.capacity_bytes {
            return None;
        }
        let slot = self.slots.iter().position(Option::is_none)?;
        self.slots[slot] = Some(Mir { id, base: used, capacity: bytes, occupancy: bytes });
        Some(slot)
    }

    /// The top-of-stack MIR (highest base), if any.
    pub fn top(&self) -> Option<&Mir> {
        self.slots.iter().flatten().max_by_key(|m| m.base)
    }

    /// Pops the top tile.
    pub fn pop(&mut self) -> Option<Mir> {
        let top_idx = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|m| (i, m.base)))
            .max_by_key(|&(_, base)| base)?
            .0;
        self.slots[top_idx].take()
    }

    /// Shrinks the occupancy of the tile `id` (partial release when a
    /// previous layer's inputs are partly consumed — Fig. 12b stage 2).
    ///
    /// Returns `false` if no such tile exists.
    pub fn shrink(&mut self, id: u64, new_occupancy: usize) -> bool {
        for slot in self.slots.iter_mut().flatten() {
            if slot.id == id {
                slot.occupancy = new_occupancy.min(slot.occupancy);
                return true;
            }
        }
        false
    }

    /// Total occupied bytes.
    pub fn occupied_bytes(&self) -> usize {
        self.slots.iter().flatten().map(|m| m.occupancy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_push_pop_lifo() {
        let mut c = MirContainer::new(4, 1000);
        c.push(0, 400).unwrap();
        c.push(1, 300).unwrap();
        assert_eq!(c.top().unwrap().id, 1);
        assert_eq!(c.pop().unwrap().id, 1);
        assert_eq!(c.pop().unwrap().id, 0);
        assert!(c.pop().is_none());
    }

    #[test]
    fn stack_respects_byte_budget() {
        let mut c = MirContainer::new(4, 1000);
        c.push(0, 800).unwrap();
        assert!(c.push(1, 300).is_none(), "must reject overflow");
        assert_eq!(c.occupied_bytes(), 800);
    }

    #[test]
    fn shrink_releases_used_half() {
        // Fig. 12b stage 2: layer-1 tile capacity halves after half its
        // inputs are consumed.
        let mut c = MirContainer::new(4, 1000);
        c.push(1, 600).unwrap();
        assert!(c.shrink(1, 300));
        assert_eq!(c.occupied_bytes(), 300);
        assert!(c.push(2, 600).is_some(), "freed space is reusable");
    }
}
