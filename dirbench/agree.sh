#!/usr/bin/env bash
# Runs two sets of the same build and compares them: exit 0 when all 45
# (workload, end-to-end metric) pairs agree within the benchmark's own
# bounds, 1 when a pair is worse, 2 when a pair is unresolved. The first
# set carries one traced run per workload; recorded, it is BASELINE.json
# and this script's output AGREE.txt.
#
#   ./agree.sh [seconds per run, default 10 as in BENCHMARK.json] [runs per set, default 5]
set -euo pipefail
cd "$(dirname "$0")"
seconds="${1:-10}"
runs="${2:-5}"
out="${CARGO_TARGET_DIR:-target}/agree"
mkdir -p "$out"
cargo build --release --offline
cargo run --release --offline --quiet -- all --seed 1 --runs "$runs" --seconds "$seconds" --trace --out "$out/a.json"
cargo run --release --offline --quiet -- all --seed 101 --runs "$runs" --seconds "$seconds" --out "$out/b.json"
cargo run --release --offline --quiet -- compare "$out/a.json" "$out/b.json"
