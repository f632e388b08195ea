//! Deterministic synthetic dataset generators for the PointAcc
//! reproduction.
//!
//! The paper evaluates on five datasets (Table 2): ModelNet40 and ShapeNet
//! (single objects), S3DIS (indoor scenes), KITTI and SemanticKITTI
//! (outdoor LiDAR scans). Real datasets are not redistributable inside
//! this repository, so this crate generates *synthetic stand-ins* that
//! match each dataset's load-bearing characteristics: point count, spatial
//! extent, and — critically for the paper's analysis — the sparsity
//! pattern (surface-constrained points, Fig. 5's density profile).
//!
//! All generators are seeded and fully deterministic.
//!
//! # Example
//!
//! ```
//! use pointacc_data::Dataset;
//! let scan = Dataset::SemanticKitti.generate(42, 20_000);
//! assert_eq!(scan.len(), 20_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod indoor;
pub mod lidar;
mod object;
pub mod stats;

use pointacc_geom::PointSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The five evaluation datasets of paper Table 2.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Dataset {
    /// ModelNet40: CAD objects (classification), ~1k points / object.
    ModelNet40,
    /// ShapeNet: CAD objects (part segmentation), ~2k points / object.
    ShapeNet,
    /// S3DIS: indoor office scans (semantic segmentation).
    S3dis,
    /// KITTI: outdoor LiDAR (detection).
    Kitti,
    /// SemanticKITTI: outdoor LiDAR (semantic segmentation).
    SemanticKitti,
}

impl Dataset {
    /// All datasets, in the order of paper Fig. 5.
    pub const ALL: [Dataset; 5] = [
        Dataset::ModelNet40,
        Dataset::ShapeNet,
        Dataset::S3dis,
        Dataset::Kitti,
        Dataset::SemanticKitti,
    ];

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::ModelNet40 => "ModelNet40",
            Dataset::ShapeNet => "ShapeNet",
            Dataset::S3dis => "S3DIS",
            Dataset::Kitti => "KITTI",
            Dataset::SemanticKitti => "SemanticKITTI",
        }
    }

    /// The point count the paper's networks consume from this dataset
    /// (inputs to PointNet++-style models; SparseConv models voxelize the
    /// full set).
    pub fn default_points(self) -> usize {
        match self {
            Dataset::ModelNet40 => 1024,
            Dataset::ShapeNet => 2048,
            Dataset::S3dis => 4096,
            Dataset::Kitti => 16_384,
            Dataset::SemanticKitti => 80_000,
        }
    }

    /// The voxel size (meters) SparseConv-based networks use on this
    /// dataset (MinkowskiNet: 5 cm indoor, 10 cm outdoor).
    pub fn voxel_size(self) -> f32 {
        match self {
            Dataset::ModelNet40 | Dataset::ShapeNet => 0.02,
            Dataset::S3dis => 0.05,
            Dataset::Kitti | Dataset::SemanticKitti => 0.1,
        }
    }

    /// Generates a deterministic synthetic sample with `n_points` points.
    ///
    /// # Panics
    ///
    /// Panics if `n_points == 0`.
    pub fn generate(self, seed: u64, n_points: usize) -> PointSet {
        assert!(n_points > 0, "cannot generate an empty sample");
        // Mix the dataset tag into the seed so the same seed yields
        // different scenes per dataset.
        let tag = self as u64 + 1;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag);
        match self {
            Dataset::ModelNet40 => object::generate_object(&mut rng, n_points, false),
            Dataset::ShapeNet => object::generate_object(&mut rng, n_points, true),
            Dataset::S3dis => indoor::generate_room(&mut rng, n_points),
            Dataset::Kitti => lidar::generate_scan(&mut rng, n_points, lidar::ScanProfile::kitti()),
            Dataset::SemanticKitti => {
                lidar::generate_scan(&mut rng, n_points, lidar::ScanProfile::semantic_kitti())
            }
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for ds in Dataset::ALL {
            let a = ds.generate(7, 500);
            let b = ds.generate(7, 500);
            assert_eq!(a, b, "{ds} generation must be deterministic");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::S3dis.generate(1, 500);
        let b = Dataset::S3dis.generate(2, 500);
        assert_ne!(a, b);
    }

    #[test]
    fn point_counts_respected() {
        for ds in Dataset::ALL {
            assert_eq!(ds.generate(3, 777).len(), 777);
        }
    }

    #[test]
    fn outdoor_scenes_are_larger_than_objects() {
        let obj = Dataset::ModelNet40.generate(1, 1024);
        let scan = Dataset::SemanticKitti.generate(1, 1024);
        let (omin, omax) = obj.bounds().unwrap();
        let (smin, smax) = scan.bounds().unwrap();
        let oext = omax.sub(omin).norm();
        let sext = smax.sub(smin).norm();
        assert!(sext > 10.0 * oext, "LiDAR extent {sext} should dwarf object extent {oext}");
    }
}
