//! Point cloud containers: continuous [`PointSet`]s and lattice
//! [`VoxelCloud`]s.

use crate::{Coord, Point3};

/// A set of continuous points (a raw sensor point cloud).
///
/// This is the input representation for PointNet++-based networks and the
/// source for voxelization into a [`VoxelCloud`].
///
/// # Examples
///
/// ```
/// use pointacc_geom::{Point3, PointSet};
/// let ps = PointSet::from_points(vec![Point3::new(0.0, 0.0, 0.0)]);
/// assert_eq!(ps.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointSet {
    points: Vec<Point3>,
}

impl PointSet {
    /// Creates an empty point set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing vector of points.
    pub fn from_points(points: Vec<Point3>) -> Self {
        PointSet { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points as a slice.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// Point at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn point(&self, i: usize) -> Point3 {
        self.points[i]
    }

    /// Returns the subset selected by `indices` (e.g. FPS centroids).
    #[must_use]
    pub fn select(&self, indices: &[usize]) -> PointSet {
        PointSet::from_points(indices.iter().map(|&i| self.points[i]).collect())
    }

    /// Axis-aligned bounding box as `(min, max)`, or `None` if empty.
    pub fn bounds(&self) -> Option<(Point3, Point3)> {
        let first = *self.points.first()?;
        let mut min = first;
        let mut max = first;
        for p in &self.points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            min.z = min.z.min(p.z);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
            max.z = max.z.max(p.z);
        }
        Some((min, max))
    }

    /// Voxelizes into a [`VoxelCloud`] at `voxel_size`. Duplicate voxels
    /// are merged (the standard sparse-tensor construction).
    pub fn voxelize(&self, voxel_size: f32) -> VoxelCloud {
        VoxelCloud::from_unsorted(self.points.iter().map(|p| p.voxelize(voxel_size)).collect(), 1)
    }
}

impl FromIterator<Point3> for PointSet {
    fn from_iter<I: IntoIterator<Item = Point3>>(iter: I) -> Self {
        PointSet::from_points(iter.into_iter().collect())
    }
}

/// A sparse tensor's coordinate list: sorted, de-duplicated lattice
/// coordinates plus the tensor stride they live at.
///
/// Invariants: `coords` is strictly increasing in the lexicographic
/// [`Coord`] order and every coordinate is a multiple of `stride`
/// (enforced on construction by quantizing).
///
/// # Examples
///
/// ```
/// use pointacc_geom::{Coord, VoxelCloud};
/// let vc = VoxelCloud::from_unsorted(
///     vec![Coord::new(1, 1, 0), Coord::new(0, 0, 0), Coord::new(1, 1, 0)],
///     1,
/// );
/// assert_eq!(vc.len(), 2); // duplicates merged
/// assert!(vc.index_of(Coord::new(1, 1, 0)).is_some());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoxelCloud {
    coords: Vec<Coord>,
    stride: i32,
}

impl VoxelCloud {
    /// Builds a cloud from arbitrary coordinates: sorts, de-duplicates and
    /// records the tensor stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride <= 0` or any coordinate is not aligned to
    /// `stride`.
    pub fn from_unsorted(mut coords: Vec<Coord>, stride: i32) -> Self {
        assert!(stride > 0, "tensor stride must be positive, got {stride}");
        coords.sort_unstable();
        coords.dedup();
        for c in &coords {
            assert_eq!(
                c.quantize(stride),
                *c,
                "coordinate {c} is not aligned to tensor stride {stride}"
            );
        }
        VoxelCloud { coords, stride }
    }

    /// Builds a cloud from coordinates already known to be sorted, unique
    /// and stride-aligned.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the invariants do not hold.
    pub fn from_sorted(coords: Vec<Coord>, stride: i32) -> Self {
        debug_assert!(coords.windows(2).all(|w| w[0] < w[1]), "coords not sorted/unique");
        debug_assert!(coords.iter().all(|c| c.quantize(stride) == *c));
        VoxelCloud { coords, stride }
    }

    /// Number of nonzero points.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the cloud has no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The sorted coordinates.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Coordinate at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn coord(&self, i: usize) -> Coord {
        self.coords[i]
    }

    /// The tensor stride of the cloud.
    pub fn stride(&self) -> i32 {
        self.stride
    }

    /// Binary-searches for a coordinate; `Some(index)` if present.
    pub fn index_of(&self, c: Coord) -> Option<usize> {
        self.coords.binary_search(&c).ok()
    }

    /// Constructs the downsampled output cloud by coordinate quantization
    /// (paper §2.1.1): every coordinate is floored to the new stride
    /// `self.stride() * factor` and duplicates are merged.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn downsample(&self, factor: i32) -> VoxelCloud {
        assert!(factor > 0, "downsample factor must be positive, got {factor}");
        let new_stride = self.stride * factor;
        // Quantization is monotone per component but NOT in the
        // lexicographic order, so the quantized sequence must be re-sorted
        // before de-duplication — which is why the hardware routes the
        // quantized cloud through the mapping unit's sorter.
        let quantized = self.coords.iter().map(|c| c.quantize(new_stride)).collect();
        VoxelCloud::from_unsorted(quantized, new_stride)
    }

    /// Returns the occupancy density of the cloud inside its bounding box
    /// at its own stride: `len / volume(bbox in stride units)`. This is the
    /// "dataset density" metric of paper Fig. 5.
    pub fn density(&self) -> f64 {
        if self.coords.is_empty() {
            return 0.0;
        }
        let mut min = self.coords[0];
        let mut max = self.coords[0];
        for c in &self.coords {
            min.x = min.x.min(c.x);
            min.y = min.y.min(c.y);
            min.z = min.z.min(c.z);
            max.x = max.x.max(c.x);
            max.y = max.y.max(c.y);
            max.z = max.z.max(c.z);
        }
        let s = self.stride as f64;
        let vx = ((max.x - min.x) as f64 / s + 1.0).max(1.0);
        let vy = ((max.y - min.y) as f64 / s + 1.0).max(1.0);
        let vz = ((max.z - min.z) as f64 / s + 1.0).max(1.0);
        self.coords.len() as f64 / (vx * vy * vz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(cs: &[(i32, i32, i32)]) -> VoxelCloud {
        VoxelCloud::from_unsorted(cs.iter().map(|&c| Coord::from(c)).collect(), 1)
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let vc = cloud(&[(2, 0, 0), (1, 0, 0), (2, 0, 0), (0, 5, 5)]);
        assert_eq!(vc.len(), 3);
        assert!(vc.coords().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn index_of_finds_members_only() {
        let vc = cloud(&[(0, 0, 0), (1, 2, 3)]);
        assert_eq!(vc.index_of(Coord::new(1, 2, 3)), Some(1));
        assert_eq!(vc.index_of(Coord::new(9, 9, 9)), None);
    }

    #[test]
    fn downsample_merges_cells() {
        let vc = cloud(&[(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]);
        let ds = vc.downsample(2);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.stride(), 2);
        assert_eq!(ds.coords(), &[Coord::new(0, 0, 0), Coord::new(2, 2, 2)]);
        // Each input voxel quantizes onto a member of the coarse cloud.
        let cells: Vec<_> = vc.coords().iter().map(|c| ds.index_of(c.quantize(2))).collect();
        assert_eq!(cells, [Some(0), Some(0), Some(1), Some(1)]);
    }

    #[test]
    fn downsample_preserves_alignment_invariant() {
        let vc = VoxelCloud::from_unsorted(vec![Coord::new(-4, 6, 2), Coord::new(0, -2, 4)], 2);
        let ds = vc.downsample(2);
        assert_eq!(ds.stride(), 4);
        for c in ds.coords() {
            assert_eq!(c.quantize(4), *c);
        }
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_coord_rejected() {
        let _ = VoxelCloud::from_unsorted(vec![Coord::new(1, 0, 0)], 2);
    }

    #[test]
    fn pointset_voxelize_maps_every_point() {
        let ps = PointSet::from_points(vec![
            Point3::new(0.1, 0.1, 0.1),
            Point3::new(0.2, 0.2, 0.2),
            Point3::new(1.5, 0.0, 0.0),
        ]);
        let vc = ps.voxelize(1.0);
        assert_eq!(vc.len(), 2);
        // Every point's voxel is a member; the first two share one.
        let idx: Vec<_> = ps.points().iter().map(|p| vc.index_of(p.voxelize(1.0))).collect();
        assert_eq!(idx, [Some(0), Some(0), Some(1)]);
    }

    #[test]
    fn density_of_full_block_is_one() {
        let mut cs = Vec::new();
        for x in 0..3 {
            for y in 0..3 {
                for z in 0..3 {
                    cs.push(Coord::new(x, y, z));
                }
            }
        }
        let vc = VoxelCloud::from_unsorted(cs, 1);
        assert!((vc.density() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_and_select() {
        let ps =
            PointSet::from_points(vec![Point3::new(-1.0, 2.0, 0.0), Point3::new(3.0, -4.0, 5.0)]);
        let (min, max) = ps.bounds().unwrap();
        assert_eq!(min, Point3::new(-1.0, -4.0, 0.0));
        assert_eq!(max, Point3::new(3.0, 2.0, 5.0));
        assert_eq!(ps.select(&[1]).point(0), Point3::new(3.0, -4.0, 5.0));
    }
}
