//! Single-object generators standing in for ModelNet40 / ShapeNet.
//!
//! Objects are unions of randomized primitive surfaces (box, sphere,
//! cylinder) normalized to the unit sphere — the same normalization the
//! real datasets receive before being fed to PointNet-family networks.

use pointacc_geom::{Point3, PointSet};
use rand::rngs::StdRng;
use rand::Rng;

/// One primitive surface a sample point can land on.
#[derive(Clone, Copy, Debug)]
enum Primitive {
    /// Axis-aligned box surface: center + half extents.
    Box { c: Point3, h: Point3 },
    /// Sphere surface: center + radius.
    Sphere { c: Point3, r: f32 },
    /// Upright cylinder wall: center, radius, half height.
    Cylinder { c: Point3, r: f32, hh: f32 },
}

impl Primitive {
    fn area(&self) -> f32 {
        match *self {
            Primitive::Box { h, .. } => 8.0 * (h.x * h.y + h.y * h.z + h.x * h.z),
            Primitive::Sphere { r, .. } => 4.0 * std::f32::consts::PI * r * r,
            Primitive::Cylinder { r, hh, .. } => 2.0 * std::f32::consts::PI * r * 2.0 * hh,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> Point3 {
        match *self {
            Primitive::Box { c, h } => sample_box_surface(rng, c, h),
            Primitive::Sphere { c, r } => {
                // Uniform direction via normalized Gaussian triple.
                let v = loop {
                    let v = Point3::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    );
                    let n = v.norm();
                    if n > 1e-3 && n <= 1.0 {
                        break v.scale(1.0 / n);
                    }
                };
                c.add(v.scale(r))
            }
            Primitive::Cylinder { c, r, hh } => {
                let theta = rng.gen_range(0.0..std::f32::consts::TAU);
                let z = rng.gen_range(-hh..hh);
                c.add(Point3::new(r * theta.cos(), r * theta.sin(), z))
            }
        }
    }
}

fn sample_box_surface(rng: &mut StdRng, c: Point3, h: Point3) -> Point3 {
    // Pick a face weighted by area, then sample it uniformly.
    let ax = h.y * h.z; // ±x faces
    let ay = h.x * h.z;
    let az = h.x * h.y;
    let total = ax + ay + az;
    let pick = rng.gen_range(0.0..total);
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let (dx, dy, dz) = if pick < ax {
        (sign * h.x, rng.gen_range(-h.y..h.y), rng.gen_range(-h.z..h.z))
    } else if pick < ax + ay {
        (rng.gen_range(-h.x..h.x), sign * h.y, rng.gen_range(-h.z..h.z))
    } else {
        (rng.gen_range(-h.x..h.x), rng.gen_range(-h.y..h.y), sign * h.z)
    };
    c.add(Point3::new(dx, dy, dz))
}

/// Generates one object as `n` surface samples from a random union of
/// 2–5 primitives, normalized to fit the unit sphere. `part_structure`
/// biases toward articulated multi-part shapes (ShapeNet-like) rather than
/// compact ones (ModelNet-like).
pub fn generate_object(rng: &mut StdRng, n: usize, part_structure: bool) -> PointSet {
    let n_prims = if part_structure { rng.gen_range(3..=5) } else { rng.gen_range(2..=4) };
    let spread = if part_structure { 0.6 } else { 0.3 };
    let mut prims = Vec::with_capacity(n_prims);
    for _ in 0..n_prims {
        let c = Point3::new(
            rng.gen_range(-spread..spread),
            rng.gen_range(-spread..spread),
            rng.gen_range(-spread..spread),
        );
        let prim = match rng.gen_range(0..3) {
            0 => Primitive::Box {
                c,
                h: Point3::new(
                    rng.gen_range(0.1..0.4),
                    rng.gen_range(0.1..0.4),
                    rng.gen_range(0.1..0.4),
                ),
            },
            1 => Primitive::Sphere { c, r: rng.gen_range(0.1..0.35) },
            _ => Primitive::Cylinder {
                c,
                r: rng.gen_range(0.05..0.25),
                hh: rng.gen_range(0.1..0.45),
            },
        };
        prims.push(prim);
    }
    let areas: Vec<f32> = prims.iter().map(Primitive::area).collect();
    let total_area: f32 = areas.iter().sum();

    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pick = rng.gen_range(0.0..total_area);
        let mut idx = 0;
        for (i, a) in areas.iter().enumerate() {
            if pick < *a {
                idx = i;
                break;
            }
            pick -= a;
        }
        points.push(prims[idx].sample(rng));
    }

    // Normalize to the unit sphere (standard ModelNet preprocessing).
    let centroid = points.iter().fold(Point3::ORIGIN, |acc, p| acc.add(*p)).scale(1.0 / n as f32);
    let max_r = points.iter().map(|p| p.sub(centroid).norm()).fold(0.0f32, f32::max).max(1e-6);
    let points = points.into_iter().map(|p| p.sub(centroid).scale(1.0 / max_r)).collect();
    PointSet::from_points(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn object_fits_unit_sphere() {
        let mut rng = StdRng::seed_from_u64(3);
        let obj = generate_object(&mut rng, 2048, false);
        for p in obj.points() {
            assert!(p.norm() <= 1.0 + 1e-4);
        }
    }

    #[test]
    fn object_is_surface_like() {
        // Surface samples should voxelize to far fewer occupied cells than
        // a solid would, but more than a degenerate point.
        let mut rng = StdRng::seed_from_u64(9);
        let obj = generate_object(&mut rng, 4096, true);
        let vc = obj.voxelize(0.05);
        let occupancy = vc.len() as f64;
        assert!(occupancy > 100.0, "object collapsed: {occupancy}");
        assert!(vc.density() < 0.5, "object too dense: {}", vc.density());
    }
}
