#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh [--release]
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE_FLAGS=()
if [[ "${1:-}" == "--release" ]]; then
  PROFILE_FLAGS+=(--release)
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets "${PROFILE_FLAGS[@]}" -- -D warnings

echo "==> cargo test"
cargo test -q --workspace "${PROFILE_FLAGS[@]}"

echo "==> cargo test (FI_FORCE_SCALAR=1, portable SIMD arm)"
FI_FORCE_SCALAR=1 cargo test -q --workspace "${PROFILE_FLAGS[@]}"

echo "==> unsafe stays confined to the SIMD arms and the KV store"
# Product code only: tests may implement unsafe traits for
# instrumentation (e.g. the counting GlobalAlloc in fi-core's
# alloc_free test), but library and binary sources must not grow new
# unsafe outside the two sanctioned spots.
if grep -rln 'unsafe' --include='*.rs' crates/*/src src examples 2>/dev/null \
    | grep -v '^crates/tensor/src/simd' \
    | grep -v '^crates/kvcache/src/store.rs'; then
  echo "error: unsafe code found outside crates/tensor/src/simd* and" >&2
  echo "crates/kvcache/src/store.rs (DESIGN.md §11)" >&2
  exit 1
fi

echo "==> fi-runtime concurrency gate (forced parallelism + repeated-seed smoke)"
cargo test -q -p fi-runtime "${PROFILE_FLAGS[@]}" -- --test-threads=8
for _ in 1 2 3; do
  cargo test -q --test runtime_serving "${PROFILE_FLAGS[@]}" repeated_seed
done

echo "==> auto-cascade bit-exactness gate (8-thread, repeated smoke)"
cargo test -q --test runtime_cascade "${PROFILE_FLAGS[@]}" -- --test-threads=8
for _ in 1 2 3; do
  cargo test -q --test runtime_cascade "${PROFILE_FLAGS[@]}" auto_cascade_poisson
done

echo "==> fi-dist gate (forced parallelism + repeated tp=4 bit-exactness smoke)"
cargo test -q -p fi-dist "${PROFILE_FLAGS[@]}" -- --test-threads=8
for _ in 1 2 3; do
  cargo test -q --test dist_exec "${PROFILE_FLAGS[@]}" sharded_executor_matches_oracle_across_tp
  cargo test -q --test runtime_serving "${PROFILE_FLAGS[@]}" tensor_parallel_serving
done

echo "==> fi-router gate (8-thread bursty smoke x3 + drain-under-load)"
cargo test -q -p fi-router "${PROFILE_FLAGS[@]}" -- --test-threads=8
for _ in 1 2 3; do
  cargo test -q --test router_serving "${PROFILE_FLAGS[@]}" bursty_arrivals
done
cargo test -q --test router_serving "${PROFILE_FLAGS[@]}" drain_under_load

echo "==> fi-cluster gate (8-thread, 3-replica bursty smoke x3 + disaggregation)"
cargo test -q -p fi-cluster "${PROFILE_FLAGS[@]}" -- --test-threads=8
for _ in 1 2 3; do
  cargo test -q --test cluster_serving "${PROFILE_FLAGS[@]}" three_replicas_smoke
done
cargo test -q --test cluster_serving "${PROFILE_FLAGS[@]}" disaggregated_prefill_decode
cargo test -q --test cluster_serving "${PROFILE_FLAGS[@]}" draining_a_replica

echo "==> benchmark/ builds offline against its pinned API surface + --quick smoke"
benchmark/check.sh

echo "CI OK"
