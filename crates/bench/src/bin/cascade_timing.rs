//! Auto-cascade benchmark for `scripts/bench_snapshot.sh --cascade`:
//! measures serving throughput and decode KV staging traffic for N
//! sessions sharing one system prompt, with cascade grouping on
//! (`CascadeMode::Auto`) vs off (`CascadeMode::Off` — flat per-request
//! decode over the full prefix+suffix timeline) in the same run. Prints
//! the `BENCH_cascade.json` snapshot to stdout.
//!
//! Both modes store the shared prefix once and skip its prefill; the
//! delta under measurement is purely decode staging: Auto stages the
//! 64-token prefix once per *fused group* per step, Off stages it once
//! per *request* per step. `gathered_kv_bytes` is the end-to-end count
//! of KV bytes staged by the real kernels
//! (`serving.pipeline.gather_rows` x KV row width x 4 bytes x K and V).

use fi_core::config::HeadConfig;
use fi_core::tiles::TileConfig;
use fi_runtime::{CascadeMode, Runtime, RuntimeConfig, RuntimeOptions, RuntimeRequest};
use fi_serving::engine::{EngineConfig, PreemptionPolicy};

const SESSION_COUNTS: [usize; 3] = [8, 64, 256];

// One shared 64-token system prompt; every session adds an 8-token tail
// and decodes 12 tokens.
const PREFIX_SEED: u64 = 0xCAFE;
const PREFIX_LEN: usize = 64;
const OWN_TAIL: usize = 8;
const OUTPUT_LEN: usize = 12;

const TILE: TileConfig = TileConfig { tq: 4, tkv: 8 };
const NUM_CTAS: usize = 8;
const PAGE_SIZE: usize = 4;

fn heads() -> HeadConfig {
    HeadConfig::new(4, 2, 16).expect("static head config")
}

struct RunStats {
    tokens_per_s: f64,
    gather_rows: u64,
    gathered_kv_bytes: u64,
    cascade_groups: u64,
    gather_rows_saved: u64,
}

/// Serve `sessions` shared-prefix requests to completion under `mode`
/// and report throughput plus staging traffic.
fn run(sessions: usize, mode: CascadeMode) -> RunStats {
    let h = heads();
    let num_pages = (PREFIX_LEN + sessions * (OWN_TAIL + OUTPUT_LEN)).div_ceil(PAGE_SIZE) + 64;
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: num_pages * PAGE_SIZE,
            max_batch: 32,
            prefix_caching: false,
            chunked_prefill_budget: Some(32),
            optimistic_admission: true,
            preemption: PreemptionPolicy::Recompute,
        },
        queue_capacity: 2 * sessions,
        num_workers: 4,
        tensor_parallel: 1,
        num_ctas: NUM_CTAS,
        heads: h,
        tile: TILE,
        page_size: PAGE_SIZE,
        num_pages,
    };
    let opts = RuntimeOptions {
        cascade: mode,
        ..RuntimeOptions::default()
    };
    let rt = Runtime::start_with(cfg, opts).expect("runtime starts");
    let handles: Vec<_> = (0..sessions)
        .map(|i| {
            rt.submit(
                RuntimeRequest::new(PREFIX_LEN + OWN_TAIL, OUTPUT_LEN, 0x4000 + i as u64)
                    .with_shared_prefix(PREFIX_SEED, PREFIX_LEN),
            )
        })
        .collect();
    for h in handles {
        h.wait().completed().expect("request completes");
    }
    let m = rt.finish();
    assert_eq!(m.completed() as usize, sessions);
    assert!(m.kv_pool_drained(), "bench run leaked pages");
    let pipe = &m.serving.pipeline;
    // K and V rows both stage kv_width f32 elements per gathered row.
    let row_bytes = (h.kv_width() * 4 * 2) as u64;
    RunStats {
        tokens_per_s: m.serving.tokens_generated as f64 / m.serving.duration,
        gather_rows: pipe.gather_rows,
        gathered_kv_bytes: pipe.gather_rows * row_bytes,
        cascade_groups: pipe.cascade_groups,
        gather_rows_saved: pipe.cascade_gather_rows_saved,
    }
}

/// Best-of-N by throughput (fresh runtime per rep; the fastest rep is
/// the least scheduler-perturbed one). Staging counters are reported
/// from the same rep that won on throughput.
fn best_of(reps: usize, sessions: usize, mode: CascadeMode) -> RunStats {
    (0..reps)
        .map(|_| run(sessions, mode))
        .max_by(|a, b| a.tokens_per_s.total_cmp(&b.tokens_per_s))
        .expect("reps >= 1")
}

fn main() {
    let mut rows = Vec::new();
    for &n in &SESSION_COUNTS {
        let casc = best_of(3, n, CascadeMode::Auto);
        let flat = best_of(3, n, CascadeMode::Off);
        eprintln!(
            "sessions={n:3}  cascade={:9.1} tok/s ({} KV bytes gathered, {} groups)  \
             flat={:9.1} tok/s ({} KV bytes gathered)",
            casc.tokens_per_s,
            casc.gathered_kv_bytes,
            casc.cascade_groups,
            flat.tokens_per_s,
            flat.gathered_kv_bytes,
        );
        rows.push(format!(
            concat!(
                "    {{\"sessions\": {}, \"cascade_tokens_per_s\": {:.1}, ",
                "\"flat_tokens_per_s\": {:.1}, \"cascade_gathered_kv_bytes\": {}, ",
                "\"flat_gathered_kv_bytes\": {}, \"cascade_gather_rows\": {}, ",
                "\"flat_gather_rows\": {}, \"cascade_groups\": {}, ",
                "\"gather_rows_saved\": {}}}"
            ),
            n,
            casc.tokens_per_s,
            flat.tokens_per_s,
            casc.gathered_kv_bytes,
            flat.gathered_kv_bytes,
            casc.gather_rows,
            flat.gather_rows,
            casc.cascade_groups,
            casc.gather_rows_saved
        ));
    }
    println!("{{");
    println!("  \"schema\": \"fi-bench/cascade/v1\",");
    println!(
        "  \"workload\": {{\"prefix_len\": {PREFIX_LEN}, \"own_tail\": {OWN_TAIL}, \
         \"output_len\": {OUTPUT_LEN}, \"page_size\": {PAGE_SIZE}, \"num_workers\": 4}},"
    );
    println!("  \"scaling\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
