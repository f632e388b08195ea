//! Weight-stationary systolic array model (the Matrix Unit's core).
//!
//! PointAcc's MXU parallelizes input channels across PE rows and output
//! channels across PE columns (paper §4.3), so one output point's features
//! are produced per cycle and no on-chip scatter crossbar is needed. This
//! module provides both a functional systolic simulation (used by tests to
//! show the dataflow computes exact matrix products) and closed-form cycle
//! counts (used by the accelerator model).

use crate::Cycles;
use pointacc_geom::FeatureMatrix;

/// A `rows × cols` weight-stationary systolic array.
///
/// `rows` spans the input-channel (reduction) dimension, `cols` the
/// output-channel dimension.
///
/// # Examples
///
/// ```
/// use pointacc_sim::SystolicArray;
/// let arr = SystolicArray::new(16, 16);
/// let c = arr.matmul_cycles(1000, 64, 64);
/// assert!(c.get() > 1000 * (64 / 16) * (64 / 16));
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
}

impl SystolicArray {
    /// Creates an array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        SystolicArray { rows, cols }
    }

    /// PE rows (input-channel parallelism).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// PE columns (output-channel parallelism).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Peak throughput in MACs per cycle.
    pub fn peak_macs_per_cycle(&self) -> u64 {
        (self.rows * self.cols) as u64
    }

    /// Cycle count for an `m × k` by `k × n` matrix multiply in
    /// weight-stationary mode: the weight tile (`rows × cols` slice of the
    /// `k × n` weight matrix) is pinned while all `m` activations stream
    /// through, then the next tile loads. Per tile: `m` streaming cycles
    /// plus `rows + cols` fill/drain plus `rows` weight-load cycles
    /// (double-buffered weights would hide the load; we charge it to stay
    /// conservative).
    pub fn matmul_cycles(&self, m: usize, k: usize, n: usize) -> Cycles {
        if m == 0 || k == 0 || n == 0 {
            return Cycles::ZERO;
        }
        let tiles_k = k.div_ceil(self.rows) as u64;
        let tiles_n = n.div_ceil(self.cols) as u64;
        let per_tile = m as u64 + (self.rows + self.cols) as u64 + self.rows as u64;
        Cycles::new(tiles_k * tiles_n * per_tile)
    }

    /// Actual MAC count of an `m × k × n` matmul (utilization numerator).
    pub fn matmul_macs(&self, m: usize, k: usize, n: usize) -> u64 {
        (m as u64) * (k as u64) * (n as u64)
    }

    /// Utilization of a matmul: useful MACs over peak MACs for the cycles
    /// taken.
    pub fn utilization(&self, m: usize, k: usize, n: usize) -> f64 {
        let cyc = self.matmul_cycles(m, k, n).get();
        if cyc == 0 {
            return 0.0;
        }
        self.matmul_macs(m, k, n) as f64 / (cyc * self.peak_macs_per_cycle()) as f64
    }

    /// Functional weight-stationary systolic execution: computes
    /// `a (m×k) * b (k×n)` by explicitly iterating weight tiles and
    /// streaming rows, accumulating partial sums across k-tiles — the
    /// exact dataflow of the hardware. Produces the same result as a
    /// naive matmul (verified by tests), just slower; use it for
    /// correctness checks, not throughput.
    pub fn matmul_functional(&self, a: &FeatureMatrix, b: &FeatureMatrix) -> FeatureMatrix {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let m = a.rows();
        let k = a.cols();
        let n = b.cols();
        let mut out = FeatureMatrix::zeros(m, n);
        // Output-stationary across tiles: psums stay in `out` while the
        // weight tile (kt, nt) changes in the inner loops.
        for kt in (0..k).step_by(self.rows) {
            let k_hi = (kt + self.rows).min(k);
            for nt in (0..n).step_by(self.cols) {
                let n_hi = (nt + self.cols).min(n);
                // Weight tile pinned; stream every activation row.
                for r in 0..m {
                    let arow = a.row(r);
                    for j in nt..n_hi {
                        let mut acc = 0.0f32;
                        for (i, &av) in arow.iter().enumerate().take(k_hi).skip(kt) {
                            acc += av * b.row(i)[j];
                        }
                        out.row_mut(r)[j] += acc;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_matches_naive() {
        let a = FeatureMatrix::from_fn(7, 9, |r, c| (r as f32 - 2.0) * 0.3 + c as f32 * 0.1);
        let b = FeatureMatrix::from_fn(9, 5, |r, c| (r as f32 * 0.2) - (c as f32 * 0.05));
        let arr = SystolicArray::new(4, 4);
        let got = arr.matmul_functional(&a, &b);
        let want = a.matmul(&b);
        assert!(got.max_abs_diff(&want).unwrap() < 1e-4);
    }

    #[test]
    fn cycles_scale_with_tiles() {
        let arr = SystolicArray::new(16, 16);
        let one_tile = arr.matmul_cycles(100, 16, 16);
        let four_tiles = arr.matmul_cycles(100, 32, 32);
        assert_eq!(four_tiles.get(), 4 * one_tile.get());
    }

    #[test]
    fn utilization_improves_with_m() {
        let arr = SystolicArray::new(16, 16);
        assert!(arr.utilization(1000, 16, 16) > arr.utilization(10, 16, 16));
        assert!(arr.utilization(100_000, 16, 16) > 0.95);
    }

    #[test]
    fn empty_matmul_is_free() {
        let arr = SystolicArray::new(8, 8);
        assert_eq!(arr.matmul_cycles(0, 64, 64), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_rejected() {
        let _ = SystolicArray::new(0, 4);
    }
}
