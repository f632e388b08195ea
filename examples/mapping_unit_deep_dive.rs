//! Deep dive into the Mapping Unit: shows each ranking-based mapping
//! operation producing bit-identical results to the golden CPU
//! algorithms, with hardware cycle counts. The four independent
//! operations verify concurrently through the harness.
//!
//! ```sh
//! cargo run --release --example mapping_unit_deep_dive
//! ```

use pointacc::Mpu;
use pointacc_bench::harness::parallel_map;
use pointacc_data::Dataset;
use pointacc_geom::golden;

fn main() {
    let mpu = Mpu::new(64);
    let pts = Dataset::ModelNet40.generate(5, 2048);
    let cloud = pts.voxelize(0.02);

    // FPS runs once; the ball-query check reuses its centroids.
    let (fps_mpu, fps_stats) = mpu.farthest_point_sampling(&pts, 512);
    let centroids = pts.select(&fps_mpu);

    type Check<'a> = Box<dyn Fn() -> String + Send + Sync + 'a>;
    let checks: Vec<Check> = vec![
        Box::new(|| {
            assert_eq!(fps_mpu, golden::farthest_point_sampling(&pts, 512));
            format!("FPS 2048->512:      {:>9} cycles (bit-identical to golden)", fps_stats.cycles)
        }),
        Box::new(|| {
            let (bq_mpu, stats) = mpu.ball_query_padded(&pts, &centroids, 0.2 * 0.2, 32);
            assert_eq!(bq_mpu, golden::ball_query_padded(&pts, &centroids, 0.2 * 0.2, 32));
            format!("BallQuery 512x32:   {:>9} cycles (bit-identical to golden)", stats.cycles)
        }),
        Box::new(|| {
            let (maps_mpu, stats) = mpu.kernel_map(&cloud, &cloud, 3);
            let maps_gold = golden::kernel_map_hash(&cloud, &cloud, 3);
            assert_eq!(maps_mpu.canonicalized(), maps_gold.canonicalized());
            format!(
                "KernelMap 3^3 on {} voxels: {:>9} cycles, {} maps (matches hash table)",
                cloud.len(),
                stats.cycles,
                maps_mpu.len()
            )
        }),
        Box::new(|| {
            let (down, stats) = mpu.quantize(&cloud, 2);
            let down_gold = cloud.downsample(2);
            assert_eq!(down, down_gold);
            format!(
                "Quantize {} -> {}:  {:>9} cycles (matches golden downsample)",
                cloud.len(),
                down.len(),
                stats.cycles
            )
        }),
    ];

    for line in parallel_map(&checks, |check| check()) {
        println!("{line}");
    }
    println!("\nall four mapping operations ran on ONE ranking-based kernel (paper Fig. 8).");
}
