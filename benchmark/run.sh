#!/usr/bin/env bash
# Builds the benchmark offline, runs the normal set, then the traced set.
# Leaves benchmark/out/ holding results.json (end-to-end metrics),
# results-traced.json (per-layer metrics) and one trace-<workload>.json per
# workload. Extra arguments (--seed N, --seconds S) go to both runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dinefd-benchmark"

"$bin" "$@"
"$bin" --trace 1 "$@"
