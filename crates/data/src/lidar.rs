//! Rotating-LiDAR scan generator standing in for KITTI / SemanticKITTI.
//!
//! A Velodyne HDL-64E sweeps 64 laser beams (elevation −25°…+3°) through
//! 360° of azimuth and records the first surface each ray hits. The
//! generator ray-casts that pattern against a synthetic street scene
//! (ground plane, building facades, parked boxes), which reproduces the
//! signature LiDAR sparsity: concentric ground rings that thin with range
//! and dense vertical structure at obstacles — density < 1e-4 when
//! voxelized over the full extent (paper Fig. 5).

use pointacc_geom::index::apply_point_delta;
use pointacc_geom::{Point3, PointSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Closest return the sensor reports, meters ([`Scene::raycast`] rejects
/// nearer hits, and range jitter is clamped to stay strictly beyond it).
const MIN_RANGE: f32 = 0.1;

/// Per-return range noise amplitude, meters (1σ-ish jitter applied along
/// the ray).
const RANGE_NOISE: f32 = 0.02;

/// Expected fraction of rays that hit a surface in a typical scene. The
/// single source of truth for azimuth-count sizing: [`generate_scan`]
/// starts from it and regrows on shortfall, [`FrameStream`] sizes its
/// fixed azimuth grid with it.
const EXPECTED_HIT_RATE: f32 = 0.6;

/// Scan parameters for one LiDAR configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScanProfile {
    /// Number of laser beams (vertical channels).
    pub beams: usize,
    /// Lowest beam elevation, radians.
    pub elev_min: f32,
    /// Highest beam elevation, radians.
    pub elev_max: f32,
    /// Maximum usable range, meters.
    pub max_range: f32,
    /// Sensor height above ground, meters.
    pub sensor_height: f32,
}

impl ScanProfile {
    /// HDL-64E profile used by the KITTI detection benchmark.
    pub fn kitti() -> Self {
        ScanProfile {
            beams: 64,
            elev_min: -24.9f32.to_radians(),
            elev_max: 2.0f32.to_radians(),
            max_range: 80.0,
            sensor_height: 1.73,
        }
    }

    /// Same sensor, SemanticKITTI-style full sweeps.
    pub fn semantic_kitti() -> Self {
        ScanProfile { max_range: 90.0, ..Self::kitti() }
    }
}

/// A simple street scene: obstacles are axis-aligned boxes, plus two long
/// building facades and the ground plane.
struct Scene {
    /// Boxes: (center, half-extents).
    boxes: Vec<(Point3, Point3)>,
}

impl Scene {
    fn random(rng: &mut StdRng) -> Scene {
        let mut boxes = Vec::new();
        // Parked / driving cars along the road.
        let n_cars = rng.gen_range(8..24);
        for _ in 0..n_cars {
            let x = rng.gen_range(-60.0..60.0f32);
            let y = if rng.gen_bool(0.5) {
                rng.gen_range(2.5..7.0f32)
            } else {
                rng.gen_range(-7.0..-2.5f32)
            };
            boxes.push((
                Point3::new(x, y, 0.8),
                Point3::new(rng.gen_range(1.8..2.4), rng.gen_range(0.8..1.1), 0.8),
            ));
        }
        // Building facades: long thin boxes on both sides.
        let left = rng.gen_range(9.0..18.0f32);
        let right = rng.gen_range(9.0..18.0f32);
        boxes.push((Point3::new(0.0, left + 0.5, 4.0), Point3::new(80.0, 0.5, 4.0)));
        boxes.push((Point3::new(0.0, -right - 0.5, 4.0), Point3::new(80.0, 0.5, 4.0)));
        // A few poles / trees.
        for _ in 0..rng.gen_range(4..10) {
            let x = rng.gen_range(-50.0..50.0f32);
            let y = rng.gen_range(-8.0..8.0f32);
            boxes.push((Point3::new(x, y, 2.5), Point3::new(0.15, 0.15, 2.5)));
        }
        Scene { boxes }
    }

    /// Distance along `dir` (unit) from `origin` to the first hit, if any.
    fn raycast(&self, origin: Point3, dir: Point3, max_t: f32) -> Option<f32> {
        let mut best = max_t;
        let mut hit = false;
        // Ground plane z = 0.
        if dir.z < -1e-6 {
            let t = -origin.z / dir.z;
            if t > 0.1 && t < best {
                best = t;
                hit = true;
            }
        }
        for &(c, h) in &self.boxes {
            if let Some(t) = ray_box(origin, dir, c, h) {
                if t > 0.1 && t < best {
                    best = t;
                    hit = true;
                }
            }
        }
        hit.then_some(best)
    }
}

/// Slab-method ray / axis-aligned-box intersection, returning the entry
/// distance.
fn ray_box(o: Point3, d: Point3, c: Point3, h: Point3) -> Option<f32> {
    let mut tmin = f32::NEG_INFINITY;
    let mut tmax = f32::INFINITY;
    for (oc, dc, cc, hc) in [(o.x, d.x, c.x, h.x), (o.y, d.y, c.y, h.y), (o.z, d.z, c.z, h.z)] {
        if dc.abs() < 1e-8 {
            if (oc - cc).abs() > hc {
                return None;
            }
        } else {
            let t1 = (cc - hc - oc) / dc;
            let t2 = (cc + hc - oc) / dc;
            let (lo, hi) = if t1 < t2 { (t1, t2) } else { (t2, t1) };
            tmin = tmin.max(lo);
            tmax = tmax.min(hi);
            if tmin > tmax {
                return None;
            }
        }
    }
    (tmax > 0.0).then_some(tmin.max(0.0))
}

/// Beam direction for one (azimuth, beam) pair of a profile's sweep
/// pattern: azimuth from a uniform grid of `azimuth_steps` columns,
/// elevation interpolated across the beam stack.
fn beam_dir(profile: ScanProfile, azimuth_steps: usize, col: usize, beam: usize) -> Point3 {
    let az = col as f32 / azimuth_steps as f32 * std::f32::consts::TAU;
    let elev = profile.elev_min
        + (profile.elev_max - profile.elev_min) * beam as f32 / (profile.beams - 1).max(1) as f32;
    Point3::new(elev.cos() * az.cos(), elev.cos() * az.sin(), elev.sin())
}

/// Applies range jitter to a raycast hit, clamped so the jittered return
/// stays physical: strictly beyond [`MIN_RANGE`], within
/// `profile.max_range`, and never past the ground plane along a
/// downward ray (raw `t + jitter` used to push ground returns below
/// z = 0 and far returns beyond the sensor's usable range).
fn jittered_range(t: f32, jitter: f32, origin: Point3, dir: Point3, max_range: f32) -> f32 {
    let mut tj = (t + jitter).clamp(MIN_RANGE + 1e-4, max_range);
    if dir.z < -1e-6 {
        // Ground intersection distance: the farthest a downward ray can
        // physically travel.
        tj = tj.min(-origin.z / dir.z);
    }
    tj
}

/// Generates a LiDAR sweep with exactly `n` return points.
///
/// Azimuth resolution is chosen so the full sweep yields roughly `n`
/// returns; rays that miss everything (sky) produce no point, so the sweep
/// is re-run with more azimuth steps until `n` points exist, then
/// truncated deterministically.
pub fn generate_scan(rng: &mut StdRng, n: usize, profile: ScanProfile) -> PointSet {
    let scene = Scene::random(rng);
    let origin = Point3::new(0.0, 0.0, profile.sensor_height);

    // Start with an azimuth count sized for [`EXPECTED_HIT_RATE`] and
    // grow if needed.
    let mut azimuth_steps = (n as f32 / (profile.beams as f32 * EXPECTED_HIT_RATE)).ceil() as usize;
    loop {
        let mut points = Vec::with_capacity(n + profile.beams);
        'sweep: for a in 0..azimuth_steps {
            for b in 0..profile.beams {
                let dir = beam_dir(profile, azimuth_steps, a, b);
                if let Some(t) = scene.raycast(origin, dir, profile.max_range) {
                    let jitter = rng.gen_range(-RANGE_NOISE..RANGE_NOISE);
                    let tj = jittered_range(t, jitter, origin, dir, profile.max_range);
                    points.push(origin.add(dir.scale(tj)));
                    if points.len() == n {
                        break 'sweep;
                    }
                }
            }
        }
        if points.len() >= n {
            points.truncate(n);
            return PointSet::from_points(points);
        }
        azimuth_steps = azimuth_steps * 3 / 2 + 8;
    }
}

/// Sentinel for a ray slot with no current return.
const NO_RETURN: u32 = u32::MAX;

/// One frame of a [`FrameStream`]: the full registered cloud plus the
/// exact delta from the previous frame.
///
/// `removed` holds positions **in the previous frame's point array**;
/// `inserted` holds the new points. Applying
/// [`pointacc_geom::index::apply_point_delta`] with this delta to the
/// previous frame's array reproduces `points` bit-exactly — the stream
/// maintains its own state through that same transformation.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Frame number, starting at 0.
    pub index: usize,
    /// The frame's full point cloud (ego-registered world frame).
    pub points: PointSet,
    /// Positions removed from the previous frame's array (unsorted
    /// original slot-scan order; positions are distinct).
    pub removed: Vec<u32>,
    /// Points inserted this frame, in insertion order.
    pub inserted: Vec<Point3>,
}

impl Frame {
    /// Fraction of this frame's points carried over unchanged from the
    /// previous frame (1.0 for an identical frame, 0.0 for a cold one).
    pub fn overlap(&self) -> f32 {
        if self.points.is_empty() {
            return 0.0;
        }
        1.0 - self.inserted.len() as f32 / self.points.len() as f32
    }
}

/// A deterministic stream of overlapping LiDAR sweeps: one persistent
/// `Scene` traversed with per-frame ego motion, re-raycasting only a
/// bounded rotating window of azimuth columns each frame.
///
/// Points are kept in the ego-registered world frame (as a
/// SLAM-registered pipeline would feed them), so the untouched columns'
/// returns are **bit-identical** across frames — consecutive sweeps
/// overlap heavily, and each [`FrameStream::next_frame`] reports the
/// exact churn as a remove/insert delta whose layout matches
/// [`apply_point_delta`]. With motion and churn set to zero (a stopped
/// ego, [`FrameStream::set_motion`]) frames repeat bit-identically,
/// which is what lets the serving layer's exact-match reuse path fire.
///
/// Everything (scene, jitter, churn schedule) derives from the seed, so
/// two streams with equal parameters produce equal frame sequences.
pub struct FrameStream {
    rng: StdRng,
    profile: ScanProfile,
    scene: Scene,
    azimuth_steps: usize,
    /// Sensor x-position; advances by `ego_step` per frame.
    ego_x: f32,
    ego_step: f32,
    /// Azimuth columns re-raycast per frame.
    churn_cols: usize,
    /// Rotating churn cursor (next column to refresh).
    next_col: usize,
    /// Ray slot (`col * beams + beam`) → current point position, or
    /// [`NO_RETURN`].
    slot_point: Vec<u32>,
    /// Point position → ray slot (inverse of `slot_point`).
    point_slot: Vec<u32>,
    points: Vec<Point3>,
    frame: usize,
}

impl FrameStream {
    /// Creates a stream whose frames hold roughly `points_hint` returns.
    /// Defaults: 0.5 m of ego motion per frame and ~10 % of azimuth
    /// columns re-raycast per frame; tune with
    /// [`FrameStream::set_motion`].
    pub fn new(seed: u64, points_hint: usize, profile: ScanProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F4A3_17EA_0001);
        let scene = Scene::random(&mut rng);
        let azimuth_steps = (points_hint as f32 / (profile.beams as f32 * EXPECTED_HIT_RATE))
            .ceil()
            .max(1.0) as usize;
        FrameStream {
            rng,
            profile,
            scene,
            azimuth_steps,
            ego_x: 0.0,
            ego_step: 0.5,
            churn_cols: (azimuth_steps / 10).max(1),
            next_col: 0,
            slot_point: vec![NO_RETURN; azimuth_steps * profile.beams],
            point_slot: Vec::new(),
            points: Vec::new(),
            frame: 0,
        }
    }

    /// Sets the per-frame ego motion (meters) and churn window (azimuth
    /// columns re-raycast per frame, capped at the column count). Zero
    /// churn freezes the geometry: subsequent frames are bit-identical.
    pub fn set_motion(&mut self, ego_step: f32, churn_cols: usize) {
        self.ego_step = ego_step;
        self.churn_cols = churn_cols.min(self.azimuth_steps);
    }

    /// Number of azimuth columns in the sweep pattern.
    pub fn azimuth_steps(&self) -> usize {
        self.azimuth_steps
    }

    /// Produces the next frame. Frame 0 raycasts the full sweep from
    /// the initial pose (its delta inserts everything); each later frame
    /// advances the ego pose and re-raycasts only the churn window.
    pub fn next_frame(&mut self) -> Frame {
        let (cols, full) = if self.frame == 0 {
            ((0..self.azimuth_steps).collect::<Vec<_>>(), true)
        } else {
            self.ego_x += self.ego_step;
            let cols = (0..self.churn_cols)
                .map(|i| (self.next_col + i) % self.azimuth_steps)
                .collect::<Vec<_>>();
            (cols, false)
        };
        if !full {
            self.next_col = (self.next_col + self.churn_cols) % self.azimuth_steps.max(1);
        }

        let origin = Point3::new(self.ego_x, 0.0, self.profile.sensor_height);
        let mut removed: Vec<u32> = Vec::new();
        let mut inserted: Vec<Point3> = Vec::new();
        let mut ins_slots: Vec<u32> = Vec::new();
        for &col in &cols {
            for b in 0..self.profile.beams {
                let slot = col * self.profile.beams + b;
                if self.slot_point[slot] != NO_RETURN {
                    removed.push(self.slot_point[slot]);
                    self.slot_point[slot] = NO_RETURN;
                }
                let dir = beam_dir(self.profile, self.azimuth_steps, col, b);
                if let Some(t) = self.scene.raycast(origin, dir, self.profile.max_range) {
                    let jitter = self.rng.gen_range(-RANGE_NOISE..RANGE_NOISE);
                    let tj = jittered_range(t, jitter, origin, dir, self.profile.max_range);
                    inserted.push(origin.add(dir.scale(tj)));
                    ins_slots.push(slot as u32);
                }
            }
        }

        // Apply the delta to the point array and mirror the same layout
        // onto the slot maps: holes (ascending) take the inserts in
        // order, spill appends, relocated tail survivors follow the
        // returned moves.
        let mut holes = removed.clone();
        holes.sort_unstable();
        let old_n = self.points.len();
        let moves = apply_point_delta(&mut self.points, &removed, &inserted);
        let n_new = self.points.len();
        let filled = holes.len().min(ins_slots.len());
        for (&h, &s) in holes.iter().zip(ins_slots.iter()) {
            self.point_slot[h as usize] = s;
        }
        self.point_slot.extend_from_slice(&ins_slots[filled..]);
        for &(from, to) in &moves {
            self.point_slot[to as usize] = self.point_slot[from as usize];
        }
        self.point_slot.truncate(n_new);
        debug_assert_eq!(self.point_slot.len(), self.points.len());
        // Refresh the forward map for every position that changed hands.
        for &h in &holes[..filled] {
            self.slot_point[self.point_slot[h as usize] as usize] = h;
        }
        for i in old_n - holes.len() + filled..n_new {
            self.slot_point[self.point_slot[i] as usize] = i as u32;
        }
        for &(_, to) in &moves {
            self.slot_point[self.point_slot[to as usize] as usize] = to;
        }

        let frame = Frame {
            index: self.frame,
            points: PointSet::from_points(self.points.clone()),
            removed,
            inserted,
        };
        self.frame += 1;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ray_box_hits_center() {
        let t = ray_box(
            Point3::new(-5.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::ORIGIN,
            Point3::new(1.0, 1.0, 1.0),
        );
        assert!((t.unwrap() - 4.0).abs() < 1e-5);
    }

    #[test]
    fn ray_box_misses_offset() {
        let t = ray_box(
            Point3::new(-5.0, 3.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::ORIGIN,
            Point3::new(1.0, 1.0, 1.0),
        );
        assert!(t.is_none());
    }

    #[test]
    fn scan_is_ultra_sparse() {
        let mut rng = StdRng::seed_from_u64(21);
        let scan = generate_scan(&mut rng, 30_000, ScanProfile::semantic_kitti());
        let (vc, _) = scan.voxelize(0.1);
        // Outdoor scenes reach < 1e-3 density even at coarse voxels.
        assert!(vc.density() < 1e-2, "outdoor scan too dense: {}", vc.density());
        // Extent should span tens of meters.
        let (min, max) = scan.bounds().unwrap();
        assert!(max.sub(min).norm() > 40.0);
    }

    #[test]
    fn scan_points_above_or_on_ground() {
        let mut rng = StdRng::seed_from_u64(2);
        let profile = ScanProfile::kitti();
        let scan = generate_scan(&mut rng, 5_000, profile);
        let origin = Point3::new(0.0, 0.0, profile.sensor_height);
        for p in scan.points() {
            // Jitter is clamped along-ray, so no return lands below the
            // ground plane (small fp slack) …
            assert!(p.z >= -2.0 * RANGE_NOISE, "point below ground: {p}");
            // … or beyond the sensor's usable range.
            let range = p.sub(origin).norm();
            assert!(
                range <= profile.max_range + 2.0 * RANGE_NOISE,
                "return beyond max range: {range} at {p}"
            );
        }
    }

    #[test]
    fn frame_stream_is_deterministic_per_seed() {
        let mut a = FrameStream::new(7, 4_000, ScanProfile::kitti());
        let mut b = FrameStream::new(7, 4_000, ScanProfile::kitti());
        for _ in 0..4 {
            let fa = a.next_frame();
            let fb = b.next_frame();
            assert_eq!(fa.points.points(), fb.points.points());
            assert_eq!(fa.removed, fb.removed);
        }
        let mut c = FrameStream::new(8, 4_000, ScanProfile::kitti());
        c.next_frame();
        assert_ne!(a.next_frame().points.points(), c.next_frame().points.points());
    }

    #[test]
    fn frame_stream_delta_reproduces_frames() {
        let mut stream = FrameStream::new(3, 5_000, ScanProfile::semantic_kitti());
        let mut mirror: Vec<Point3> = Vec::new();
        for _ in 0..6 {
            let frame = stream.next_frame();
            apply_point_delta(&mut mirror, &frame.removed, &frame.inserted);
            assert_eq!(
                mirror,
                frame.points.points(),
                "frame {} delta does not reproduce the cloud",
                frame.index
            );
        }
    }

    #[test]
    fn frame_stream_overlaps_heavily_and_freezes_on_zero_churn() {
        let mut stream = FrameStream::new(11, 5_000, ScanProfile::kitti());
        let first = stream.next_frame();
        assert_eq!(first.overlap(), 0.0, "frame 0 is cold");
        let second = stream.next_frame();
        // Default churn refreshes ~10 % of columns, so ≥ 3/4 of the
        // cloud carries over bit-identically.
        assert!(second.overlap() > 0.75, "overlap too low: {}", second.overlap());
        // Zero motion + zero churn: frames repeat exactly, empty delta.
        stream.set_motion(0.0, 0);
        let frozen = stream.next_frame();
        assert!(frozen.removed.is_empty() && frozen.inserted.is_empty());
        assert_eq!(frozen.points.points(), second.points.points());
    }

    #[test]
    fn frame_stream_points_stay_physical() {
        let profile = ScanProfile::kitti();
        let mut stream = FrameStream::new(5, 3_000, profile);
        for _ in 0..3 {
            let frame = stream.next_frame();
            for p in frame.points.points() {
                assert!(p.z >= -2.0 * RANGE_NOISE, "point below ground: {p}");
            }
        }
    }
}
