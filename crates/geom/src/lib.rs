//! Point cloud geometry substrate for the PointAcc reproduction.
//!
//! This crate provides the data structures shared by the whole workspace —
//! lattice coordinates, continuous points, clouds, feature matrices and
//! map tables — plus two implementations of every mapping operation the
//! paper discusses (farthest point sampling, k-nearest neighbors, ball
//! query, kernel mapping):
//!
//! - [`index`] — the production ops every consumer calls:
//!   grid-hash spatial indexing, bucket-pruned FPS and fused kernel maps
//!   with per-query/per-chunk/per-bucket parallelism, and
//! - [`golden`] — brute-force **reference oracles** with the same names,
//!   kept deliberately naive so they are easy to audit; the property
//!   suite in `tests/mapping_backends.rs` holds each [`index`] op
//!   bit-identical to its golden twin.
//!
//! The accelerator model in the `pointacc` crate implements the same
//! operations with the hardware's ranking-based algorithms and is tested
//! for bit-identical results against this crate.
//!
//! # Quick example
//!
//! ```
//! use pointacc_geom::{golden, Coord, VoxelCloud};
//!
//! // A tiny sparse tensor at stride 1.
//! let cloud = VoxelCloud::from_unsorted(
//!     vec![Coord::new(0, 0, 0), Coord::new(1, 1, 0), Coord::new(4, 2, 0)],
//!     1,
//! );
//! // Kernel mapping for a 3×3×3 SparseConv.
//! let maps = golden::kernel_map_hash(&cloud, &cloud, 3);
//! assert_eq!(maps.n_weights(), 27);
//! ```

#![warn(missing_docs)]
// Denied (not forbidden) so the single audited lifetime erasure in the
// `par` worker pool can carry an item-level allow; everything else in
// the crate remains compiler-checked safe code.
#![deny(unsafe_code)]

mod cloud;
mod coord;
mod feature;
mod maps;
mod point;

pub mod golden;
pub mod index;
pub mod par;

pub use cloud::{PointSet, VoxelCloud};
pub use coord::Coord;
pub use feature::FeatureMatrix;
pub use maps::{KernelMap, MapEntry, MapTable, MapTableError};
pub use point::Point3;
