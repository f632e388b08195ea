//! Shared harness utilities for the per-figure benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper; this library holds the common plumbing: the thread-parallel
//! [`harness`] evaluating (engine × benchmark × seed) grids over the
//! unified [`pointacc::Engine`] surface, trace building for the Table 2
//! benchmarks on the synthetic datasets, aligned table printing,
//! geometric means, and the paper's reported numbers for side-by-side
//! comparison.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod frontend;
pub mod harness;
pub mod serve;
pub mod stream;
pub mod sync;

use pointacc_data::Dataset;
use pointacc_nn::{zoo::Benchmark, ExecError, ExecMode, Executor, NetworkTrace, TraceKey};

/// Default seed list of the statistical figure binaries: every reported
/// number aggregates these dataset seeds into mean ± 95 % CI (seed 42
/// first, so single-seed runs stay comparable with older output).
pub const SEEDS: [u64; 3] = [42, 43, 44];

/// A dataset name that matches none of the Table 2 generators. The
/// `Display` message lists every available dataset, so figure binaries
/// can print it verbatim as usage help.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownDataset {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let available: Vec<&str> = Dataset::ALL.into_iter().map(|d| d.name()).collect();
        write!(f, "unknown dataset `{}` (available: {})", self.name, available.join(", "))
    }
}

impl std::error::Error for UnknownDataset {}

/// Why a benchmark trace could not be built: the benchmark names a
/// dataset no generator covers, the executor rejected the network/input
/// combination, or the compiled trace failed static verification
/// ([`pointacc_nn::verify_trace`]) before being cached.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceBuildError {
    /// The benchmark's dataset name resolved to no generator.
    UnknownDataset(UnknownDataset),
    /// The executor rejected the network (see [`ExecError`]).
    Exec(ExecError),
    /// The executor produced a trace, but the static verifier rejected
    /// it — the trace never reaches the cache or an engine.
    Invalid(pointacc_nn::VerifyError),
}

impl std::fmt::Display for TraceBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceBuildError::UnknownDataset(e) => e.fmt(f),
            TraceBuildError::Exec(e) => e.fmt(f),
            TraceBuildError::Invalid(e) => {
                write!(f, "compiled trace failed static verification: {e}")
            }
        }
    }
}

impl std::error::Error for TraceBuildError {}

impl From<pointacc_nn::VerifyError> for TraceBuildError {
    fn from(e: pointacc_nn::VerifyError) -> Self {
        TraceBuildError::Invalid(e)
    }
}

impl From<UnknownDataset> for TraceBuildError {
    fn from(e: UnknownDataset) -> Self {
        TraceBuildError::UnknownDataset(e)
    }
}

impl From<ExecError> for TraceBuildError {
    fn from(e: ExecError) -> Self {
        TraceBuildError::Exec(e)
    }
}

/// Resolves a Table 2 dataset name to the generator enum, or an
/// [`UnknownDataset`] whose message lists the available names.
pub fn dataset_by_name(name: &str) -> Result<Dataset, UnknownDataset> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| UnknownDataset { name: name.to_string() })
}

/// [`dataset_by_name`] for figure binaries: prints the error (which
/// lists the available datasets) and exits with status 2 on an unknown
/// name.
pub fn dataset_or_exit(name: &str) -> Dataset {
    dataset_by_name(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Point-count scale factor from `POINTACC_SCALE` (default 1.0). Set
/// e.g. `POINTACC_SCALE=0.25` for quick smoke runs.
///
/// The environment is read **once** per process; later mutations of the
/// variable are ignored. Code that needs a specific scale (tests, the
/// serving layer) should pass it explicitly — [`benchmark_trace_at`],
/// [`harness::Grid::scale`] — instead of mutating the process
/// environment, which is racy under the parallel test runner.
pub fn scale() -> f64 {
    static SCALE: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *SCALE.get_or_init(|| {
        std::env::var("POINTACC_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
    })
}

/// Persistent trace-artifact directory from `POINTACC_ARTIFACT_DIR`
/// (default: none — the disk tier stays off). Point several processes
/// at one directory to share compiled traces across them: writes are
/// atomic rename-into-place, so readers never see a torn artifact.
///
/// Like [`scale`], the environment is read **once** per process; code
/// that needs a specific directory (tests, embedding harnesses) should
/// pass it explicitly via
/// [`cache::TraceCache::with_artifact_dir`] or
/// [`frontend::FrontendOptions`] instead of mutating the process
/// environment.
pub fn artifact_dir() -> Option<std::path::PathBuf> {
    static DIR: std::sync::OnceLock<Option<std::path::PathBuf>> = std::sync::OnceLock::new();
    DIR.get_or_init(|| {
        std::env::var_os("POINTACC_ARTIFACT_DIR")
            .filter(|s| !s.is_empty())
            .map(std::path::PathBuf::from)
    })
    .clone()
}

/// Output path for the streaming benchmark record from
/// `BENCH_STREAMING_OUT` (default: `BENCH_streaming.json` at the
/// workspace root, regardless of invocation cwd). Read **once** per
/// process, like [`scale`].
pub fn streaming_out() -> std::path::PathBuf {
    static OUT: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    OUT.get_or_init(|| {
        std::env::var_os("BENCH_STREAMING_OUT")
            .filter(|s| !s.is_empty())
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::path::PathBuf::from(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../BENCH_streaming.json"
                ))
            })
    })
    .clone()
}

/// Builds the execution trace of one benchmark on its synthetic dataset
/// (trace-only fidelity — identical costs, no feature arithmetic) at the
/// process-wide [`scale`].
pub fn benchmark_trace(bench: &Benchmark, seed: u64) -> NetworkTrace {
    benchmark_trace_at(bench, seed, scale())
}

/// [`benchmark_trace`] with an explicit point-count scale factor.
///
/// # Panics
///
/// Panics with the [`TraceBuildError`] message on a malformed benchmark;
/// serving paths should call [`try_benchmark_trace_at`] instead.
pub fn benchmark_trace_at(bench: &Benchmark, seed: u64, scale: f64) -> NetworkTrace {
    // lint: allow(panic): documented panicking facade over try_benchmark_trace_at.
    try_benchmark_trace_at(bench, seed, scale).unwrap_or_else(|e| panic!("{e}"))
}

/// [`benchmark_trace_at`] with the failure modes surfaced as a typed
/// [`TraceBuildError`] instead of a panic — the entry point the serving
/// layer uses so a malformed request cannot poison a worker thread.
pub fn try_benchmark_trace_at(
    bench: &Benchmark,
    seed: u64,
    scale: f64,
) -> Result<NetworkTrace, TraceBuildError> {
    let ds = dataset_by_name(bench.dataset)?;
    let n = modeled_points(bench, scale);
    let pts = ds.generate(seed, n);
    let mut trace = Executor::new(ExecMode::TraceOnly, seed).try_run(&bench.network, &pts)?;
    trace.trace.network = bench.notation.to_string();
    trace.trace.input_desc = format!("{} ({n} pts)", bench.dataset);
    Ok(trace.trace)
}

/// Input point count of `bench` at `scale` — the number
/// [`try_benchmark_trace_at`] generates and the load unit the serving
/// front-end's capacity model charges per request. Kept as one function
/// so admission control can price a request **without** compiling its
/// trace and still agree exactly with the executed workload.
pub fn modeled_points(bench: &Benchmark, scale: f64) -> usize {
    ((bench.network.default_points() as f64 * scale) as usize).max(64)
}

/// The cache key of one benchmark trace at `seed` and `scale`.
pub fn benchmark_trace_key(bench: &Benchmark, seed: u64, scale: f64) -> TraceKey {
    TraceKey::new(bench.notation, seed, scale)
}

/// Builds (or fetches) the benchmark trace through the process-wide
/// [`cache::global`] trace cache, sharing compilation work across grids
/// and figure binaries ([`serve::serve`] deliberately uses a
/// run-private cache instead, so its hit rate reflects one request
/// stream). Cached traces are retained until [`cache::TraceCache::clear`].
pub fn cached_benchmark_trace(
    bench: &Benchmark,
    seed: u64,
    scale: f64,
) -> std::sync::Arc<NetworkTrace> {
    cache::global().get_or_build(&benchmark_trace_key(bench, seed, scale), || {
        benchmark_trace_at(bench, seed, scale)
    })
}

/// Whether the process was invoked with the `--verify` flag. Figure
/// and demo binaries that honor it re-run the static trace verifier
/// ([`pointacc_nn::verify_trace`]) over every cached trace after their
/// workload, via [`verify_global_cache_or_exit`].
pub fn verify_flag() -> bool {
    std::env::args().any(|a| a == "--verify")
}

/// Statically re-verifies every successfully cached trace in the
/// process-wide [`cache::global`] cache, printing a one-line summary.
/// Exits with status 1 naming the offending key and error when any
/// cached trace fails verification — the teeth behind `--verify`.
pub fn verify_global_cache_or_exit() {
    match cache::global().verify_all() {
        Ok(n) => println!("verify: {n} cached trace(s) passed static verification"),
        Err((key, e)) => {
            eprintln!("verify: cached trace {key:?} failed static verification: {e}");
            std::process::exit(1);
        }
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<width$}", c, width = widths[i] + 2));
            } else {
                s.push_str(&format!("{:>width$}", c, width = widths[i] + 2));
            }
        }
        println!("{s}");
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum()));
    for row in rows {
        line(row);
    }
}

/// Paper-reported reference numbers, printed alongside measurements so
/// every figure shows "paper vs ours".
pub mod paper {
    /// Benchmark order of Fig. 13/14 (matches `zoo::benchmarks()`).
    pub const NETWORKS: [&str; 8] = [
        "PointNet",
        "PointNet++(c)",
        "PointNet++(ps)",
        "DGCNN",
        "F-PointNet++",
        "PointNet++(s)",
        "MinkNet(i)",
        "MinkNet(o)",
    ];
    /// Fig. 13: PointAcc speedup over RTX 2080Ti.
    pub const FIG13_SPEEDUP_GPU: [f64; 8] = [3.7, 2.8, 2.8, 3.7, 3.7, 4.7, 8.3, 2.4];
    /// Fig. 13: PointAcc speedup over Xeon + TPUv3.
    pub const FIG13_SPEEDUP_TPU: [f64; 8] = [27.0, 113.0, 37.0, 3.4, 269.0, 88.0, 102.0, 71.0];
    /// Fig. 13: PointAcc speedup over Xeon Gold 6130.
    pub const FIG13_SPEEDUP_CPU: [f64; 8] = [127.0, 97.0, 82.0, 65.0, 131.0, 106.0, 94.0, 51.0];
    /// Fig. 13: energy savings vs RTX 2080Ti.
    pub const FIG13_ENERGY_GPU: [f64; 8] = [18.0, 14.0, 25.0, 27.0, 16.0, 45.0, 36.0, 13.0];
    /// Fig. 14: PointAcc.Edge speedup over Jetson Xavier NX.
    pub const FIG14_SPEEDUP_NX: [f64; 8] = [2.2, 2.3, 2.7, 3.4, 2.8, 4.6, 2.1, 1.3];
    /// Fig. 14: PointAcc.Edge speedup over Jetson Nano.
    pub const FIG14_SPEEDUP_NANO: [f64; 8] = [6.7, 7.8, 10.0, 14.0, 11.0, 23.0, 8.3, 5.4];
    /// Fig. 14: PointAcc.Edge speedup over Raspberry Pi 4B.
    pub const FIG14_SPEEDUP_RPI: [f64; 8] = [148.0, 159.0, 156.0, 131.0, 262.0, 181.0, 107.0, 63.0];
    /// Fig. 15 benchmark subset (PointNet++-based).
    pub const FIG15_NETWORKS: [&str; 4] =
        ["PointNet++(c)", "PointNet++(ps)", "F-PointNet++", "PointNet++(s)"];
    /// Fig. 15: PointAcc.Edge speedup over Mesorasi-HW.
    pub const FIG15_SPEEDUP_HW: [f64; 4] = [2.5, 3.1, 6.2, 7.1];
    /// Fig. 15: speedup over Mesorasi-SW on Jetson Nano.
    pub const FIG15_SPEEDUP_SW_NANO: [f64; 4] = [10.0, 9.3, 19.0, 21.0];
    /// Fig. 15: speedup over Mesorasi-SW on Raspberry Pi 4B.
    pub const FIG15_SPEEDUP_SW_RPI: [f64; 4] = [109.0, 87.0, 209.0, 134.0];
    /// Fig. 16: mIoU of PointNet++SSG on S3DIS (quoted).
    pub const FIG16_MIOU_POINTNETPP: f64 = 53.5;
    /// Fig. 16: mIoU of Mini-MinkowskiUNet on S3DIS (quoted; +9.1 %).
    pub const FIG16_MIOU_MINI_MINK: f64 = 62.6;
    /// Fig. 19: DRAM reduction from caching, S3DIS / SemanticKITTI.
    pub const FIG19_REDUCTION: [f64; 2] = [6.3, 3.5];
    /// Fig. 20: DRAM reduction from fusion per network.
    pub const FIG20_NETWORKS: [&str; 4] =
        ["PointNet", "PointNet++(c)", "PointNet++(ps)", "PointNet++(s)"];
    /// Fig. 20 reduction percentages.
    pub const FIG20_REDUCTION_PCT: [f64; 4] = [64.0, 41.0, 33.0, 39.0];
    /// Fig. 21: energy breakdown (compute, SRAM, DRAM).
    pub const FIG21_ENERGY: [f64; 3] = [0.74, 0.06, 0.20];
    /// §4.1.1: mergesort vs hash-table speed and area factors.
    pub const MERGESORT_VS_HASH: (f64, f64) = (1.4, 14.0);
    /// §4.1.4: top-k speedup over quick-select.
    pub const TOPK_VS_QUICKSELECT: f64 = 1.18;
    /// Fig. 13/14 geomeans: (GPU, TPU, CPU, NX, Nano, RPi) speedups.
    pub const GEOMEAN_SPEEDUPS: [f64; 6] = [3.7, 53.0, 90.0, 2.5, 9.8, 141.0];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dataset_lookup_by_table2_names() {
        for b in pointacc_nn::zoo::benchmarks() {
            dataset_by_name(b.dataset).unwrap();
        }
    }

    #[test]
    fn unknown_dataset_lists_available_names() {
        let err = dataset_by_name("NuScenes").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown dataset `NuScenes`"), "{msg}");
        for d in pointacc_data::Dataset::ALL {
            assert!(msg.contains(d.name()), "{msg} missing {}", d.name());
        }
    }

    #[test]
    fn malformed_benchmark_surfaces_exec_error() {
        use pointacc_nn::{Domain, Network, Op};
        let bench = Benchmark {
            notation: "Broken",
            application: "Segmentation",
            dataset: "S3DIS",
            network: Network::new("broken", Domain::VoxelBased, 4)
                .with_voxel_size(0.1)
                .push(Op::SparseConvTr { out_ch: 8, kernel_size: 2 }),
        };
        let err = try_benchmark_trace_at(&bench, 42, 0.05).unwrap_err();
        assert!(matches!(err, TraceBuildError::Exec(_)), "{err:?}");
        assert!(err.to_string().contains("skip stack is empty"), "{err}");
    }
}
