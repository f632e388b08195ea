#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given flags:
#
#   bash perfbench/run.sh --workload <cold_point|cold_voxel|warm_voxel|serve_hot|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the warm_voxel artifact directory and the span
# dump of a traced run go to $CARGO_TARGET_DIR/perfbench-work.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

# The host has two cores: the mapping-op pool gets two workers, and the
# serving workload runs one worker per shard.
export POINTACC_THREADS=2
exec "$CARGO_TARGET_DIR/release/perfbench" --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
