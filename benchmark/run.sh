#!/usr/bin/env bash
# Builds bpred-bench from this checkout and runs it with the given
# arguments, e.g. `benchmark/run.sh run` or
# `benchmark/run.sh --workload serve-stream --seed 1 --seconds 15 --trace 0`.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd -P)
# Workload traces name each branch site by its source file (`file!()`).
# Cargo passes the repository's own crates to rustc by paths relative to
# the repository root, but path dependencies of this separate workspace
# by absolute paths; stripping the checkout prefix gives the benchmark
# the same traces, and so the same results, as `repro`, wherever the
# checkout lives.
export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }--remap-path-prefix=$root/="
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
