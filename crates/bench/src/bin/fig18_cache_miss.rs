//! Fig. 18: cache miss rate vs block size for SparseConv layers with
//! kernel size k in {2, 3} and channel count c in {64, 128}.

use pointacc::mmu::{simulate_sparse_accesses, CacheConfig, SparseAccessPlan};
use pointacc_bench::{dataset_or_exit, print_table, scale};
use pointacc_geom::golden;

fn main() {
    let ds = dataset_or_exit("SemanticKITTI");
    let n = ((20_000.0 * scale()) as usize).max(512);
    let pts = ds.generate(42, n);
    let cloud = pts.voxelize(0.1);
    println!("== Fig. 18: cache miss rate ({} voxels) ==\n", cloud.len());

    let blocks = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let mut rows = Vec::new();
    for &k in &[2usize, 3] {
        let output = if k == 2 { cloud.downsample(2) } else { cloud.clone() };
        let maps = golden::kernel_map_hash(&cloud, &output, k);
        for &c in &[64usize, 128] {
            let ic_tiles = c / 64;
            let plan = SparseAccessPlan {
                ic_tiles: ic_tiles.max(1),
                oc_tiles: ic_tiles.max(1),
                out_tile_points: (256 * 1024) / (c * 2),
            };
            let mut row = vec![format!("k={k}, c={c}")];
            for &bp in &blocks {
                let cfg = CacheConfig {
                    capacity_bytes: 320 * 1024,
                    block_points: bp,
                    row_bytes: c.min(64) * 2,
                };
                let (_, s) = simulate_sparse_accesses(&[cfg], &maps, plan).expect("one geometry");
                row.push(format!("{:.1}%", s.miss_rate() * 100.0));
            }
            rows.push(row);
        }
    }
    let headers: Vec<String> = std::iter::once("config".to_string())
        .chain(blocks.iter().map(|b| format!("bs={b}")))
        .collect();
    let href: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&href, &rows);
    println!("\npaper: miss rate decreases with block size, kernel size and #channels; saturates at larger blocks");
}
