#!/usr/bin/env bash
# Offline repo gate: formatting, lints, build, and the full test suite.
# Everything runs without network access (the workspace has no external
# dependencies); run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> net Rust line count (informational, not a gate)"
echo "$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l) lines of Rust under crates src tests examples"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> fault matrix (kill/drop/corrupt + elastic chaos scenarios, fixed seeds)"
cargo run --release -q -p pic-bench --bin fault_matrix

echo "==> elastic gate (weighted re-cut load bound, kill -> rejoin timing)"
cargo run --release -q -p pic-bench --bin bench_elastic

echo "==> job runtime gate (multi-tenant fault isolation, SRTF vs FIFO makespan)"
# The makespan comparison is wall-clock; retry once like perf_smoke.
cargo run --release -q -p pic-bench --bin bench_jobs || {
    echo "job runtime gate failed once; retrying"
    cargo run --release -q -p pic-bench --bin bench_jobs
}

echo "==> species gate (2d3v scenarios: conservation, cyclotron vs analytic, lane parity)"
# Physics gates are seeded and deterministic, but keep the standing
# one-retry policy of the other release-binary gates.
cargo run --release -q -p pic-bench --bin bench_species || {
    echo "species gate failed once; retrying"
    cargo run --release -q -p pic-bench --bin bench_species
}

echo "==> deposition parity matrix (DepositPath x layout x threads, release)"
cargo test -q --release --test parity_kernel_path

echo "==> kernel microbenches -> results/BENCH_kernels.json"
cargo bench -p pic-bench --bench bench_kernels

echo "==> perf smoke (lane-blocked vs scalar kernels + vectorized deposit)"
# A shared/loaded box can miss the speedup threshold on an unlucky run;
# retry once before declaring a regression.
cargo run --release -q -p pic-bench --bin perf_smoke || {
    echo "perf smoke failed once; retrying"
    cargo run --release -q -p pic-bench --bin perf_smoke
}

echo "==> adaptive gate (controller vs static grid, steady + drifting workloads)"
# Wall-clock gates on a shared box jitter; retry once like perf_smoke.
cargo run --release -q -p pic-bench --bin bench_adaptive || {
    echo "adaptive gate failed once; retrying"
    cargo run --release -q -p pic-bench --bin bench_adaptive
}

echo "==> scaling gate (replication vs decomposition comm volume)"
cargo run --release -q -p pic-bench --bin bench_scaling

echo "==> solver gate (serial vs pool-parallel vs slab-distributed solve)"
# Wall-clock gates on a shared box jitter; retry once like perf_smoke.
cargo run --release -q -p pic-bench --bin bench_solver || {
    echo "solver gate failed once; retrying"
    cargo run --release -q -p pic-bench --bin bench_solver
}

echo "All checks passed."
