//! The Memory Management Unit (MMU): explicit, decoupled data
//! orchestration over tile-managed on-chip buffers (paper §4.2).
//!
//! - [`mir`] — Memory-tile Meta-Info Registers and their container,
//!   the stack that temporal layer fusion runs on.
//! - [`cache`] — the configurable-block direct-mapped input cache for
//!   Fetch-on-Demand sparse computation and its block-size search (Fig. 18).
//! - [`flows`] — DRAM traffic of Fetch-on-Demand vs
//!   Gather-MatMul-Scatter computation flows (Fig. 17/19).
//! - [`fusion`] — temporal layer fusion of consecutive FCs over a MIR
//!   stack (Fig. 12, Fig. 20).

pub mod cache;
pub mod flows;
pub mod fusion;
pub mod mir;

pub use cache::{simulate_sparse_accesses, CacheConfig, CacheStats, SparseAccessPlan};
pub use flows::{dense_layer_traffic, sparse_layer_traffic, Flow, LayerTraffic};
pub use fusion::{
    fused_activation_bytes, plan_fusion, simulate_fused_chain, unfused_activation_bytes,
    FusionGroup, FusionPlan,
};
pub use mir::{Mir, MirContainer};
