#!/usr/bin/env bash
# Perf smoke test: runs the fusion, serving and SIMD benches in quick mode.
#
# * bench_fusion fails when the modeled cost of the fused estimate hot
#   path regresses by more than 2x against the checked-in baseline
#   (BENCH_fusion.json).
# * bench_serve fails when coalesced serving is less than 2x faster
#   (modeled) than one-request-per-launch serving at batch 16.
# * bench_simd (run with PERF_SMOKE=1) fails when the vectorized SoA
#   Epanechnikov or Gaussian estimate sweep, or the Gaussian one on a
#   Power sample whose dictionary-coded columns read per-query factor
#   tables, is less than 2x faster than the scalar row-major (AoS)
#   baseline at n=16384, d=8, single thread,
#   or (gate or not) when either kernel's SoA estimate or fused
#   value+gradient disagrees with the baseline by more than
#   1e-12*max(|a|,|b|,1). The division-free Epanechnikov sweep holds
#   ~2.5x on a plain AVX2 core and the lane-erf Gaussian sweep ~4x,
#   leaving headroom over the threshold.
#
# bench_fusion modeled seconds and the bench_serve coalescing speedup
# come from the deterministic device cost model, so those gates are
# immune to machine noise — they only trip when the launch / flop
# structure of a hot path actually changes. The SIMD gate measures wall
# clock and is machine-sensitive.
#
# Every bench run also appends a git-rev-stamped metrics line to the
# perf-trend history (results/BENCH_history.jsonl by default; this
# script points BENCH_HISTORY_OUT at a throwaway copy seeded from the
# checked-in history so smoke runs don't dirty the tree). BENCH_TREND=1
# turns the history into a gate: a metric falling outside its tolerance
# of the rolling median of the last 5 runs fails with the metric name,
# measured value, and threshold. Trend-gate the smoke run with:
#   BENCH_TREND=1 scripts/perf_smoke.sh
#
# Usage: scripts/perf_smoke.sh
# Refresh the checked-in reports by running, from the repo root:
#   cargo run --release --bin bench_fusion   (writes BENCH_fusion.json)
#   cargo run --release --bin bench_serve    (writes BENCH_serve.json)
#   cargo run --release --bin bench_simd     (writes BENCH_simd.json)
# and committing the results (plus the results/BENCH_history.jsonl lines
# those runs append).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --bin bench_fusion --bin bench_serve \
    --bin bench_simd
out=$(mktemp /tmp/bench_fusion.XXXXXX.json)
serve_out=$(mktemp /tmp/bench_serve.XXXXXX.json)
simd_out=$(mktemp /tmp/bench_simd.XXXXXX.json)
hist_out=$(mktemp /tmp/bench_history.XXXXXX.jsonl)
trap 'rm -f "$out" "$serve_out" "$simd_out" "$hist_out"' EXIT
# Seed the throwaway history with the checked-in one so BENCH_TREND=1 has
# a rolling baseline to compare against.
if [[ -f results/BENCH_history.jsonl ]]; then
    cp results/BENCH_history.jsonl "$hist_out"
fi
export BENCH_HISTORY_OUT="$hist_out"
BENCH_FUSION_BASELINE=BENCH_fusion.json BENCH_FUSION_OUT="$out" \
    ./target/release/bench_fusion
BENCH_SERVE_OUT="$serve_out" ./target/release/bench_serve
PERF_SMOKE=1 BENCH_SIMD_OUT="$simd_out" ./target/release/bench_simd
echo "=== perf smoke passed ==="
