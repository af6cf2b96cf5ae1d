#!/usr/bin/env bash
# Snapshot the flash-kernel microbenchmarks into BENCH_kernel.json.
#
# Runs the criterion groups `flash_kernel_decode` (per-KV-length decode
# shapes), `flash_kernel_dtype` (decode with the KV arena stored at
# f32/f16/fp8, widen-on-stage included), and `flash_kernel_scratch`
# (fresh vs reused scratch arena on the standard decode shape), then
# collects criterion's mean point estimates (ns/iter) from
# target/criterion/*/new/estimates.json, tagging the snapshot with the
# detected CPU features and dispatch arm (offline_timing --simd-info).
#
# With --offline, skips criterion entirely and runs the registry-free
# timing binary (crates/bench/src/bin/offline_timing.rs), which measures
# the same shapes with std::time::Instant and writes the same schema —
# for environments where the crates.io mirror cannot resolve criterion.
#
# With --cascade, snapshots shared-prefix decode scaling instead: the
# registry-free cascade_timing binary serves {8,64,256} sessions over one
# shared system prompt with cascade grouping on (CascadeMode::Auto) vs
# off (flat per-request decode), reporting tokens/s and gathered KV bytes
# per mode, into BENCH_cascade.json. Also criterion-free.
#
# With --router, snapshots routed serving instead: the registry-free
# router_timing binary replays one Poisson three-tenant trace through the
# fi-router front-door at waiting_served_ratio {0.3, 1.2, 4.0}, reporting
# end-to-end tokens/s and TTFT/ITL p50/p99 per ratio, into
# BENCH_router.json. Also criterion-free.
#
# With --cluster, snapshots multi-replica scaling instead: the
# registry-free cluster_timing binary replays one Poisson trace through
# fi-cluster at matched total workers — 1 replica x4 workers, 2x2, 4x1,
# and a 1+1 disaggregated prefill/decode pair — reporting end-to-end
# tokens/s (and speedup over the single replica), TTFT p50/p99 from the
# merged replica rollup, and the disaggregated row's migrated bytes and
# simulated link time, into BENCH_cluster.json. Also criterion-free.
#
# Usage: scripts/bench_snapshot.sh [--offline] [--cascade] [--router]
#        [--cluster] [output.json]
#        (default output: BENCH_kernel.json, BENCH_cascade.json with
#        --cascade, BENCH_router.json with --router, or BENCH_cluster.json
#        with --cluster)
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=0
CASCADE=0
ROUTER=0
CLUSTER=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --offline) OFFLINE=1 ;;
    --cascade) CASCADE=1 ;;
    --router) ROUTER=1 ;;
    --cluster) CLUSTER=1 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ "$CLUSTER" == 1 ]]; then
  OUT="${1:-BENCH_cluster.json}"
  echo "==> cluster scaling sweep (1x4 / 2x2 / 4x1 / disaggregated 2+2)"
  cargo run --release -q -p fi-bench --bin cluster_timing > "$OUT"
  echo "wrote ${OUT}"
  exit 0
fi

if [[ "$ROUTER" == 1 ]]; then
  OUT="${1:-BENCH_router.json}"
  echo "==> router growth-policy sweep (waiting_served_ratio 0.3/1.2/4.0)"
  cargo run --release -q -p fi-bench --bin router_timing > "$OUT"
  echo "wrote ${OUT}"
  exit 0
fi

if [[ "$CASCADE" == 1 ]]; then
  OUT="${1:-BENCH_cascade.json}"
  echo "==> auto-cascade sweep (sessions 8/64/256, cascade vs flat decode)"
  cargo run --release -q -p fi-bench --bin cascade_timing > "$OUT"
  echo "wrote ${OUT}"
  exit 0
fi

OUT="${1:-BENCH_kernel.json}"

if [[ "$OFFLINE" == 1 ]]; then
  echo "==> offline timing fallback (no criterion)"
  cargo run --release -q -p fi-bench --bin offline_timing > "$OUT"
  echo "wrote ${OUT}"
  exit 0
fi

echo "==> cargo bench (flash_kernel groups)"
cargo bench -p fi-bench --bench microbench -- 'flash_kernel'

echo "==> collecting criterion estimates into ${OUT}"
SIMD_INFO="$(cargo run --release -q -p fi-bench --bin offline_timing -- --simd-info)"
export SIMD_INFO
python3 - "$OUT" <<'PY'
import json, os, sys

out_path = sys.argv[1]
root = os.path.join("target", "criterion")
results = {}
for group in ("flash_kernel_decode", "flash_kernel_dtype", "flash_kernel_scratch"):
    gdir = os.path.join(root, group)
    if not os.path.isdir(gdir):
        continue
    for bench in sorted(os.listdir(gdir)):
        est = os.path.join(gdir, bench, "new", "estimates.json")
        if not os.path.isfile(est):
            continue
        with open(est) as f:
            mean_ns = json.load(f)["mean"]["point_estimate"]
        results.setdefault(group, {})[bench] = round(mean_ns, 1)

if not results:
    sys.exit("no criterion estimates found under target/criterion — did the bench run?")

scratch = results.get("flash_kernel_scratch", {})
speedup = None
if "fresh_scratch_per_call" in scratch and "reused_scratch" in scratch:
    speedup = round(scratch["fresh_scratch_per_call"] / scratch["reused_scratch"], 3)

simd = json.loads(os.environ.get("SIMD_INFO") or "{}")

with open(out_path, "w") as f:
    json.dump(
        {
            "unit": "ns_per_iter_mean",
            "source": "scripts/bench_snapshot.sh (criterion mean point estimates)",
            "groups": results,
            "simd": simd,
            # > 1.0 means reusing the scratch arena beats re-allocating it.
            "scratch_reuse_speedup": speedup,
        },
        f,
        indent=2,
    )
    f.write("\n")
print(f"wrote {out_path}")
PY
