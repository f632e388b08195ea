//! Accelerator configurations (paper Table 3).

use pointacc_sim::DramKind;

/// Hardware parameters of one PointAcc instance.
///
/// # Examples
///
/// ```
/// use pointacc::PointAccConfig;
/// let full = PointAccConfig::full();
/// assert_eq!(full.pe_rows * full.pe_cols, 4096);
/// let edge = PointAccConfig::edge();
/// assert_eq!(edge.pe_rows * edge.pe_cols, 256);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PointAccConfig {
    /// Configuration name.
    pub name: String,
    /// Systolic-array rows (input-channel parallelism).
    pub pe_rows: usize,
    /// Systolic-array columns (output-channel parallelism).
    pub pe_cols: usize,
    /// Mapping-unit merger width N (elements per merge pass).
    pub merger_width: usize,
    /// Clock frequency, Hz.
    pub freq_hz: f64,
    /// DRAM technology.
    pub dram: DramKind,
    /// Input feature buffer, bytes (configurable as cache in sparse mode).
    pub input_buf_bytes: usize,
    /// Output feature buffer, bytes.
    pub output_buf_bytes: usize,
    /// Weight buffer, bytes.
    pub weight_buf_bytes: usize,
    /// Sorter + merger buffers of the MPU, bytes.
    pub sorter_buf_bytes: usize,
    /// Bytes per feature element (fp16 datapath).
    pub elem_bytes: usize,
    /// Chip + memory-system average power beyond the counted events
    /// (clock tree, control, DRAM background), watts. Distributed over
    /// the per-layer energy components proportionally.
    pub system_power_w: f64,
}

impl PointAccConfig {
    /// Full-size PointAcc (Table 3): 64×64 PEs, HBM2, 776 KB SRAM,
    /// 1 GHz, 8 TOPS peak.
    pub fn full() -> Self {
        PointAccConfig {
            name: "PointAcc".into(),
            pe_rows: 64,
            pe_cols: 64,
            merger_width: 64,
            freq_hz: 1.0e9,
            dram: DramKind::Hbm2,
            input_buf_bytes: 320 * 1024,
            output_buf_bytes: 256 * 1024,
            weight_buf_bytes: 128 * 1024,
            sorter_buf_bytes: 72 * 1024,
            elem_bytes: 2,
            system_power_w: 30.0,
        }
    }

    /// PointAcc.Edge (Table 3): 16×16 PEs, DDR4-2133, 274 KB SRAM,
    /// 1 GHz, 512 GOPS peak.
    pub fn edge() -> Self {
        PointAccConfig {
            name: "PointAcc.Edge".into(),
            pe_rows: 16,
            pe_cols: 16,
            merger_width: 16,
            freq_hz: 1.0e9,
            dram: DramKind::Ddr4_2133,
            input_buf_bytes: 112 * 1024,
            output_buf_bytes: 96 * 1024,
            weight_buf_bytes: 48 * 1024,
            sorter_buf_bytes: 18 * 1024,
            elem_bytes: 2,
            system_power_w: 3.0,
        }
    }

    /// Total on-chip SRAM in bytes.
    pub fn total_sram_bytes(&self) -> usize {
        self.input_buf_bytes + self.output_buf_bytes + self.weight_buf_bytes + self.sorter_buf_bytes
    }

    /// Peak throughput in operations (2 × MAC) per second.
    pub fn peak_ops(&self) -> f64 {
        2.0 * (self.pe_rows * self.pe_cols) as f64 * self.freq_hz
    }

    /// Silicon area estimate, mm² (40 nm model).
    pub fn area_mm2(&self) -> f64 {
        pointacc_sim::area::accelerator_area_mm2(
            self.pe_rows,
            self.pe_cols,
            self.total_sram_bytes(),
            self.merger_width,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_sram_budgets() {
        // Table 3: 776 KB full, 274 KB edge.
        assert_eq!(PointAccConfig::full().total_sram_bytes(), 776 * 1024);
        assert_eq!(PointAccConfig::edge().total_sram_bytes(), 274 * 1024);
    }

    #[test]
    fn table3_peak_performance() {
        // 8 TOPS full, 512 GOPS edge.
        assert!((PointAccConfig::full().peak_ops() - 8.192e12).abs() < 1e10);
        assert!((PointAccConfig::edge().peak_ops() - 512e9).abs() < 1e9);
    }

    #[test]
    fn dram_matches_table3() {
        assert_eq!(PointAccConfig::full().dram, DramKind::Hbm2);
        assert_eq!(PointAccConfig::edge().dram, DramKind::Ddr4_2133);
    }
}
