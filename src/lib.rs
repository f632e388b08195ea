//! Workspace root crate for the PointAcc reproduction.
//!
//! This crate only re-exports the member crates so that the integration
//! tests in `tests/` and the examples in `examples/` can reach the whole
//! system through one dependency. The real functionality lives in:
//!
//! - [`pointacc`] — the accelerator model (MPU / MMU / MXU, compiler, perf).
//! - [`pointacc_geom`] — point-cloud geometry and the mapping ops
//!   (grid-hash `index` production path, `golden` oracle).
//! - [`pointacc_data`] — synthetic dataset generators.
//! - [`pointacc_nn`] — network definitions, reference executor, stats.
//! - [`pointacc_sim`] — DRAM / SRAM / energy / systolic / sorter substrates.
//! - [`pointacc_baselines`] — CPU/GPU/TPU/edge/Mesorasi comparison models.
//! - [`pointacc_bench`] — the parallel `Engine` run harness and the
//!   paper-figure benchmark binaries.
//!
//! Every hardware model implements [`pointacc::Engine`], so whole
//! evaluations are (engine × benchmark × seed) grids driven by
//! [`pointacc_bench::harness`].

pub use pointacc;
pub use pointacc_baselines;
pub use pointacc_bench;
pub use pointacc_data;
pub use pointacc_geom;
pub use pointacc_nn;
pub use pointacc_sim;
