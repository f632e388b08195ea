//! 40 nm per-operation energy constants.
//!
//! PointAcc is synthesized in TSMC 40 nm; this table provides the
//! logic-level energies the simulator multiplies by event counts.
//! Values follow published per-op energy surveys at 45/40 nm (Horowitz,
//! ISSCC'14, scaled): a 16-bit multiply-accumulate ≈ 1 pJ, a 96-bit
//! compare-exchange ≈ 0.4 pJ, register/pipeline overheads folded in.

use crate::PicoJoules;

/// Per-operation energies at the 40 nm node.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EnergyTable {
    /// One 16-bit multiply-accumulate in the systolic array, including
    /// local register movement, operand forwarding and its share of
    /// array control (system-level figure, calibrated to the paper's
    /// Fig. 21 energy breakdown).
    pub mac_pj: f64,
    /// One comparator (compare-exchange) evaluation in the sorting
    /// networks, key width ~96 bit.
    pub compare_pj: f64,
}

impl EnergyTable {
    /// The 40 nm table used throughout the reproduction.
    pub const fn tsmc40() -> Self {
        EnergyTable { mac_pj: 3.2, compare_pj: 0.5 }
    }

    /// Energy of `n` MACs.
    pub fn macs(&self, n: u64) -> PicoJoules {
        PicoJoules::new(self.mac_pj * n as f64)
    }

    /// Energy of `n` comparator evaluations.
    pub fn compares(&self, n: u64) -> PicoJoules {
        PicoJoules::new(self.compare_pj * n as f64)
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        Self::tsmc40()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_dominates_compare() {
        let t = EnergyTable::tsmc40();
        assert!(t.mac_pj > t.compare_pj);
        assert!((t.macs(1000).get() - 1000.0 * t.mac_pj).abs() < 1e-9);
    }
}
