//! Indoor room generator standing in for S3DIS.
//!
//! An S3DIS room is dominated by large planar structures (floor, ceiling,
//! walls) plus box-like furniture. The generator reproduces that geometry
//! so the voxelized sparsity pattern — thin 2-D shells in a 3-D volume,
//! density < 1e-2 (paper Fig. 5) — matches the real dataset.

use pointacc_geom::{Point3, PointSet};
use rand::rngs::StdRng;
use rand::Rng;

/// Generates one office-like room scan with `n` points.
///
/// Room dimensions are sampled in the 4–10 m range with a ~3 m ceiling,
/// matching typical S3DIS areas. Around 60 % of points fall on the room
/// shell (floor/ceiling/walls) and 40 % on furniture boxes.
pub fn generate_room(rng: &mut StdRng, n: usize) -> PointSet {
    let lx = rng.gen_range(4.0..10.0f32);
    let ly = rng.gen_range(4.0..10.0f32);
    let lz = rng.gen_range(2.6..3.4f32);

    // Furniture: boxes resting on the floor.
    let n_furniture = rng.gen_range(5..14);
    let mut furniture = Vec::with_capacity(n_furniture);
    for _ in 0..n_furniture {
        let hw = rng.gen_range(0.2..1.0f32);
        let hd = rng.gen_range(0.2..1.0f32);
        let h = rng.gen_range(0.4..1.6f32);
        let cx = rng.gen_range(hw..lx - hw);
        let cy = rng.gen_range(hd..ly - hd);
        furniture.push((Point3::new(cx, cy, h / 2.0), Point3::new(hw, hd, h / 2.0)));
    }

    // Surface areas for weighting.
    let shell_area = 2.0 * lx * ly + 2.0 * lx * lz + 2.0 * ly * lz;
    let furn_area: f32 =
        furniture.iter().map(|(_, h)| 8.0 * (h.x * h.y + h.y * h.z + h.x * h.z)).sum();

    let noise = 0.01f32;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let on_shell = rng.gen_range(0.0..shell_area + furn_area) < shell_area;
        let p = if on_shell {
            sample_room_shell(rng, lx, ly, lz)
        } else {
            let (c, h) = furniture[rng.gen_range(0..furniture.len())];
            sample_box(rng, c, h)
        };
        points.push(Point3::new(
            p.x + rng.gen_range(-noise..noise),
            p.y + rng.gen_range(-noise..noise),
            p.z + rng.gen_range(-noise..noise),
        ));
    }
    PointSet::from_points(points)
}

fn sample_room_shell(rng: &mut StdRng, lx: f32, ly: f32, lz: f32) -> Point3 {
    let a_floor = lx * ly;
    let a_wall_x = lx * lz;
    let a_wall_y = ly * lz;
    let total = 2.0 * (a_floor + a_wall_x + a_wall_y);
    let mut pick = rng.gen_range(0.0..total);
    // Floor, ceiling, 2 × x-walls, 2 × y-walls.
    for (area, face) in
        [(a_floor, 0), (a_floor, 1), (a_wall_x, 2), (a_wall_x, 3), (a_wall_y, 4), (a_wall_y, 5)]
    {
        if pick < area {
            let u = rng.gen_range(0.0..1.0f32);
            let v = rng.gen_range(0.0..1.0f32);
            return match face {
                0 => Point3::new(u * lx, v * ly, 0.0),
                1 => Point3::new(u * lx, v * ly, lz),
                2 => Point3::new(u * lx, 0.0, v * lz),
                3 => Point3::new(u * lx, ly, v * lz),
                4 => Point3::new(0.0, u * ly, v * lz),
                _ => Point3::new(lx, u * ly, v * lz),
            };
        }
        pick -= area;
    }
    Point3::new(0.0, 0.0, 0.0)
}

fn sample_box(rng: &mut StdRng, c: Point3, h: Point3) -> Point3 {
    let ax = h.y * h.z;
    let ay = h.x * h.z;
    let az = h.x * h.y;
    let total = ax + ay + az;
    let pick = rng.gen_range(0.0..total);
    let sign: f32 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let (dx, dy, dz) = if pick < ax {
        (sign * h.x, rng.gen_range(-h.y..h.y), rng.gen_range(-h.z..h.z))
    } else if pick < ax + ay {
        (rng.gen_range(-h.x..h.x), sign * h.y, rng.gen_range(-h.z..h.z))
    } else {
        (rng.gen_range(-h.x..h.x), rng.gen_range(-h.y..h.y), sign * h.z)
    };
    c.add(Point3::new(dx, dy, dz))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn room_extent_is_room_sized() {
        let mut rng = StdRng::seed_from_u64(11);
        let room = generate_room(&mut rng, 4096);
        let (min, max) = room.bounds().unwrap();
        let ext = max.sub(min);
        assert!(ext.x > 3.0 && ext.x < 11.0);
        assert!(ext.z > 2.0 && ext.z < 4.0);
    }

    #[test]
    fn room_is_sparse_when_voxelized() {
        let mut rng = StdRng::seed_from_u64(5);
        let room = generate_room(&mut rng, 20_000);
        let vc = room.voxelize(0.05);
        // Indoor scenes are shell-like: orders of magnitude below a dense
        // volume (paper Fig. 5 reports < 1e-2 at the full-room point
        // count; a 20k sample at 5 cm voxels sits slightly above).
        assert!(vc.density() < 5e-2, "indoor density should be shell-like, got {}", vc.density());
    }
}
