//! Point cloud network definitions, reference executor and statistics for
//! the PointAcc reproduction.
//!
//! The crate covers paper Table 1's full operator taxonomy:
//!
//! - **SparseConv-based**: [`Op::SparseConv`] / [`Op::SparseConvTr`] with
//!   coordinate quantization + kernel mapping and per-offset weights.
//! - **PointNet++-based**: [`Op::SetAbstraction`] /
//!   [`Op::FeaturePropagation`] with FPS + ball query and shared weights.
//! - **Graph-based**: [`Op::EdgeConv`] with feature-space k-NN.
//! - Dense glue: [`Op::Mlp`], [`Op::Head`], [`Op::GlobalMaxPool`].
//!
//! [`Executor`] runs a [`Network`] functionally and records a
//! [`NetworkTrace`] — exact map tables and matrix shapes — which is the
//! interface every hardware timing model in the workspace consumes.
//! [`Executor::try_run`] surfaces malformed network/tensor combinations
//! as typed [`ExecError`]s instead of panicking. [`zoo`] provides the
//! eight Table 2 benchmarks. [`artifact`] persists recorded traces as
//! versioned, checksummed binary files so downstream harnesses can
//! warm-start instead of recompiling.
//!
//! # Example
//!
//! ```
//! use pointacc_nn::{zoo, ExecMode, Executor};
//! use pointacc_geom::{Point3, PointSet};
//!
//! let pts: PointSet = (0..128)
//!     .map(|i| Point3::new((i as f32).sin(), (i as f32).cos(), 0.1))
//!     .collect();
//! let out = Executor::new(ExecMode::Full, 0).run(&zoo::pointnet(), &pts);
//! println!("total MACs: {}", out.trace.total_macs());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
mod error;
mod exec;
mod layer;
mod network;
pub mod stats;
mod trace;
pub mod verify;
mod weights;
pub mod zoo;

pub use error::ExecError;
pub use exec::{ExecMode, ExecOptions, ExecOutput, Executor};
pub use layer::{Domain, Op};
pub use network::Network;
pub use trace::{Aggregation, ComputeKind, LayerTrace, MappingOp, NetworkTrace, TraceKey};
pub use verify::{verify_trace, VerifyError, VerifyReport};
pub use weights::WeightGen;
