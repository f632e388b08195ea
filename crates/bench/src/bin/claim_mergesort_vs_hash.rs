//! §4.1.1 claim: the merge-sort kernel-mapping engine is ~1.4x faster and
//! ~14x smaller than a hash-table engine of the same parallelism.

use pointacc::Mpu;
use pointacc_baselines::HashKernelMapEngine;
use pointacc_bench::{dataset_or_exit, print_table, scale};
use pointacc_sim::area;

fn main() {
    let ds = dataset_or_exit("SemanticKITTI");
    let n = ((60_000.0 * scale()) as usize).max(1024);
    let pts = ds.generate(42, n);
    let cloud = pts.voxelize(0.1);
    let n_pts = cloud.len();

    let mpu = Mpu::new(64);
    let hash = HashKernelMapEngine { lanes: 64 };
    let mut rows = Vec::new();
    for kv in [8usize, 27] {
        let merge = mpu.kernel_map_cycles_estimate(n_pts, n_pts, kv);
        let h = hash.cycles(n_pts, n_pts, kv);
        rows.push(vec![
            format!("kernel volume {kv}"),
            format!("{merge}"),
            format!("{h}"),
            format!("{:.2}x (paper 1.4x)", h as f64 / merge as f64),
        ]);
    }
    println!("== §4.1.1: mergesort vs hash-table kernel mapping ({n_pts} points) ==\n");
    print_table(&["Workload", "Mergesort(cyc)", "Hash(cyc)", "Speedup"], &rows);

    let merge_area = area::mergesort_engine_area_mm2(64);
    let hash_area = hash.area_mm2(n_pts);
    println!(
        "\narea: mergesort engine {:.2} mm2 vs hash engine {:.2} mm2 -> {:.1}x smaller (paper 14x)",
        merge_area,
        hash_area,
        hash_area / merge_area
    );
}
