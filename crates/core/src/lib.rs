//! PointAcc: a functional + cycle-approximate model of the point cloud
//! accelerator from "PointAcc: Efficient Point Cloud Accelerator"
//! (MICRO 2021).
//!
//! Architecture (paper Fig. 7):
//!
//! - [`mpu`] — the **Mapping Unit**: every mapping operation (farthest
//!   point sampling, kNN / ball query, kernel mapping, coordinate
//!   quantization) unified onto a ranking-based sorting-network kernel
//!   with streaming support for arbitrary-length point clouds.
//! - [`mmu`] — the **Memory Management Unit**: explicit decoupled data
//!   orchestration over MIR-managed tiles; a configurable-block input
//!   cache for Fetch-on-Demand sparse computation; temporal layer fusion
//!   of dense FC chains.
//! - `mxu` — the **Matrix Unit**: a weight-stationary systolic array
//!   parallelizing input × output channels (no scatter crossbar).
//!
//! [`Accelerator`] compiles a [`pointacc_nn::NetworkTrace`] (fusion
//! groups, per-layer cache block sizes) and replays it, producing a
//! [`RunReport`] with the latency / energy / DRAM breakdowns the paper's
//! evaluation reports.
//!
//! # Quick start
//!
//! ```
//! use pointacc::{Accelerator, PointAccConfig};
//! use pointacc_nn::{zoo, ExecMode, Executor};
//! use pointacc_geom::{Point3, PointSet};
//!
//! let pts: PointSet = (0..256)
//!     .map(|i| Point3::new((i as f32).sin(), (i as f32).cos(), 0.1))
//!     .collect();
//! let trace = Executor::new(ExecMode::TraceOnly, 0)
//!     .run(&zoo::pointnet_pp_classification(), &pts)
//!     .trace;
//! let report = Accelerator::new(PointAccConfig::full()).run(&trace);
//! println!("{:.3} ms, {:.3} mJ", report.latency_ms(), report.energy().to_millijoules());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accelerator;
mod config;
pub mod engine;
pub mod mmu;
pub mod mpu;
mod mxu;
mod perf;
pub mod summary;

pub use accelerator::{Accelerator, CachePolicy, RunOptions};
pub use config::PointAccConfig;
pub use engine::{Engine, EngineReport};
pub use mpu::Mpu;
pub use mxu::Mxu;
pub use perf::{LayerPerf, RunReport, Seconds};
pub use summary::Summary;
