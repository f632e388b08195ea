//! Dataset profiling used by paper Fig. 5 (left): occupancy density of
//! each dataset after voxelization, compared against a dense image.

use crate::Dataset;
use pointacc_geom::PointSet;

/// Density profile of one dataset sample.
#[derive(Clone, Debug, PartialEq)]
pub struct DensityProfile {
    /// Dataset name.
    pub name: String,
    /// Points in the sample.
    pub n_points: usize,
    /// Occupied voxels after quantization.
    pub n_voxels: usize,
    /// Occupied fraction of the bounding volume (Fig. 5's y-axis).
    pub density: f64,
}

/// Profiles a sample at the dataset's native voxel size.
pub fn profile(dataset: Dataset, sample: &PointSet) -> DensityProfile {
    let vc = sample.voxelize(dataset.voxel_size());
    DensityProfile {
        name: dataset.name().to_string(),
        n_points: sample.len(),
        n_voxels: vc.len(),
        density: vc.density(),
    }
}

/// Density of a dense image input (ImageNet reference line in Fig. 5):
/// 100 % by construction.
pub fn imagenet_density() -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_ordering_matches_fig5() {
        // Objects > indoor > outdoor in density; all far below ImageNet.
        let obj = Dataset::ModelNet40;
        let indoor = Dataset::S3dis;
        let outdoor = Dataset::SemanticKitti;
        let p_obj = profile(obj, &obj.generate(1, 2048));
        let p_in = profile(indoor, &indoor.generate(1, 20_000));
        let p_out = profile(outdoor, &outdoor.generate(1, 40_000));
        assert!(p_obj.density < imagenet_density());
        assert!(p_in.density < p_obj.density * 2.0);
        assert!(
            p_out.density < p_in.density,
            "outdoor {} should be sparser than indoor {}",
            p_out.density,
            p_in.density
        );
        assert!(p_out.density < 1e-2);
    }
}
