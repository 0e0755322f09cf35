#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting. Works offline
# (the workspace has no external dependencies; --offline keeps cargo
# from ever touching the network).
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "=== $* ==="
    "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
# The serving layer's threaded stress test only means much with optimized
# code and real contention, so it is #[ignore]d in the default pass and
# run explicitly in release mode here.
run cargo test -q --offline --release -p kdesel-serve -- --ignored
# The lane erf's monotonicity pin walks a 1e-7 grid over [-6, 6] (120M
# evaluations) and the lane exp's pin against its two-halves form a 1e-4
# grid over [-760, 720] (14.8M arguments, scalar, pack and pair): minutes
# unoptimized and seconds in release, so they are #[ignore]d by default
# and run here.
run cargo test -q --offline --release -p kdesel-math -- --ignored
# The lane pack `kdesel_math::simd::F64s` has an AVX-512 arm, which the
# workspace's target-cpu=native picks on an AVX-512 host, and a portable
# `[f64; 8]` arm for every other build. Test the portable arm too, built
# for a target without AVX-512 in its own target dir: its packs must equal
# the scalar lane functions bitwise and reproduce the pinned hashes of
# tests/simd_soa.rs, and the device's dictionary staging tests run there
# too.
run env RUSTFLAGS="-C target-cpu=x86-64-v3" \
    cargo test -q --offline --target-dir target/portable -p kdesel-math -p kdesel-kde \
    -p kdesel-device
run env RUSTFLAGS="-C target-cpu=x86-64-v3" \
    cargo test -q --offline --target-dir target/portable -p kdesel --test simd_soa
# The adaptive serve round-trip (feedback-tuned model checkpointed at
# shutdown, restarted from disk, bitwise continuation of estimates and
# tuning) is the serving layer's persistence contract; run it by name so
# a checkpoint-format change can't slip through a filtered test run.
run cargo test -q --offline --release -p kdesel --test serve \
    adaptive_snapshot_roundtrip_through_serve
# The benchmark harness (perfbench/, its own package outside the
# workspace) builds against the library crates: build it and run its
# tests, so a removed or renamed API it calls fails here rather than in
# a benchmark run. --locked: a new edge between the library crates would
# otherwise silently rewrite perfbench/Cargo.lock, a benchmark file.
run cargo test -q --offline --locked --release --manifest-path perfbench/Cargo.toml
run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo fmt --check --all

# Capture/replay determinism gate: record a 200-request mixed-tenant
# workload, then verify its span trees and replay it at max speed.
# kdesel-replay exits non-zero on any bitwise estimate mismatch or
# dropped/incomplete span.
replay_dir="$(mktemp -d)"
trap 'rm -rf "$replay_dir"' EXIT
run cargo run --release --offline --bin kdesel-replay -- \
    record --out "$replay_dir/capture.jsonl" --requests 200
run cargo run --release --offline --bin kdesel-replay -- \
    run --capture "$replay_dir/capture.jsonl" --speed max

# Cost-model calibration smoke: a quick sequential-CPU microbenchmark
# sweep must converge and model its own measurements to within 20%
# median residual — the same acceptance bound tests/cost_calibration.rs
# pins. Exit 1 from kdesel-calibrate names the failing quantity.
run cargo run --release --offline --bin kdesel-calibrate -- \
    --backend cpu-seq --quick --gate 20 --out "$replay_dir/calibration.json"

# Optional perf gate: PERF_SMOKE=1 scripts/check.sh additionally runs the
# fusion, serving and SIMD microbenches and fails on a >2x modeled-cost
# regression of the estimate hot path, <2x modeled coalescing at batch
# 16, or a <2x wall-clock SoA estimate sweep speedup (Epanechnikov or
# Gaussian) (see scripts/perf_smoke.sh). Add
# BENCH_TREND=1 to also gate each bench's metrics against the rolling
# median of results/BENCH_history.jsonl.
if [[ "${PERF_SMOKE:-0}" == "1" ]]; then
    run scripts/perf_smoke.sh
fi

echo "=== all checks passed ==="
