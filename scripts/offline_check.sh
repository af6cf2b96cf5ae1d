#!/usr/bin/env bash
# Build + test the workspace with no network and no registry, using the
# stub dependency crates in stubs/ (see stubs/README.md).
#
# The repo's own Cargo.toml is never modified: we copy the workspace to a
# scratch directory, append a [patch.crates-io] section there, and run
# cargo inside the copy. With registry access, plain `cargo build` /
# `scripts/ci.sh` use the real crates and these stubs are inert.
#
# Usage: scripts/offline_check.sh [extra cargo-test args...]

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
scratch="${OFFLINE_CHECK_DIR:-$(mktemp -d /tmp/offline-check.XXXXXX)}"
keep="${OFFLINE_CHECK_KEEP:-0}"

cleanup() {
    if [ "$keep" != "1" ]; then
        rm -rf "$scratch"
    else
        echo "offline_check: scratch kept at $scratch"
    fi
}
trap cleanup EXIT

echo "offline_check: copying workspace to $scratch"
mkdir -p "$scratch"
# Exclude build products and VCS metadata; keep everything cargo needs.
tar -C "$repo_root" \
    --exclude=./target --exclude=./.git --exclude='./stubs/*/target' \
    -cf - . | tar -C "$scratch" -xf -

cat >>"$scratch/Cargo.toml" <<'EOF'

# --- appended by scripts/offline_check.sh (never committed) ---
[patch.crates-io]
serde = { path = "stubs/serde" }
serde_json = { path = "stubs/serde_json" }
rand = { path = "stubs/rand" }
rand_distr = { path = "stubs/rand_distr" }
proptest = { path = "stubs/proptest" }
EOF

export CARGO_NET_OFFLINE=true
cd "$scratch"

echo "offline_check: cargo build --workspace --all-targets"
cargo build --workspace --all-targets

echo "offline_check: cargo test -q --workspace"
cargo test -q --workspace "$@"

echo "offline_check: OK (stub-backed offline build)"
