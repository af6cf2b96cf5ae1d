#!/usr/bin/env bash
# Checks of the benchmark itself, from the root of the repository:
#
#   benchmark/check.sh            build, then the --quick smoke test (every
#                                 name in BENCHMARK.json emitted once, with
#                                 its unit and a finite value; ~1 min)
#   benchmark/check.sh --selfcheck   also run every workload twice (A/A,
#                                 order alternated) and fail if an end-to-end
#                                 metric differs by more than its bound
#                                 (~4 min at the default 20 s per run)
#
# Builds into CARGO_TARGET_DIR when set, else into benchmark/target.

set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
if [ "${1:-}" = "--selfcheck" ]; then
    shift
    cargo run --release --offline --quiet --manifest-path "$manifest" -- --selfcheck "$@"
fi
echo "benchmark/check.sh: OK"
