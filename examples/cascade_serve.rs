//! Auto-cascade serving: many sessions share one system prompt, and the
//! live runtime stores that prefix once, groups their decodes by radix
//! match each step, and executes every group as two-level cascade
//! attention (DESIGN.md §12) — then the same traffic runs with
//! `CascadeMode::Off` to show the staging delta on identical results.
//!
//! Run with: `cargo run --release --example cascade_serve`

use flashinfer::runtime::{CascadeMode, Runtime, RuntimeConfig, RuntimeOptions, RuntimeRequest};

const SESSIONS: usize = 32;
const PREFIX_SEED: u64 = 7;
const PREFIX_LEN: usize = 64; // one shared 64-token system prompt

type Outputs = Vec<Vec<Vec<f32>>>;

fn serve(
    mode: CascadeMode,
) -> Result<(flashinfer::runtime::RuntimeMetrics, Outputs), Box<dyn std::error::Error>> {
    let cfg = RuntimeConfig::default();
    let opts = RuntimeOptions {
        cascade: mode,
        ..RuntimeOptions::default()
    };
    let rt = Runtime::start_with(cfg, opts)?;
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            // 64 shared tokens + an 8-token per-user tail, 12 decode steps.
            rt.submit(
                RuntimeRequest::new(PREFIX_LEN + 8, 12, 100 + i as u64)
                    .with_shared_prefix(PREFIX_SEED, PREFIX_LEN),
            )
        })
        .collect();
    let mut outputs = Vec::with_capacity(SESSIONS);
    for h in handles {
        outputs.push(
            h.wait()
                .completed()
                .ok_or("session did not complete")?
                .outputs,
        );
    }
    let m = rt.finish();
    assert!(m.reconciles(), "lifecycle counters must reconcile");
    assert!(m.kv_pool_drained(), "prefix owner pages must drain");
    Ok((m, outputs))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (auto, auto_out) = serve(CascadeMode::Auto)?;
    let (flat, flat_out) = serve(CascadeMode::Off)?;
    // Grouping must never leak into results: fused (Auto) and flat (Off)
    // runs of the same sessions decode bit-identical token streams.
    assert_eq!(auto_out, flat_out, "outputs depend on grouping?");
    assert!(auto.serving.pipeline.cascade_groups > 0, "no groups fused");
    assert_eq!(flat.serving.pipeline.cascade_groups, 0, "Off must not fuse");
    assert!(
        auto.serving.pipeline.gather_rows < flat.serving.pipeline.gather_rows,
        "cascade must stage fewer KV rows than flat"
    );

    println!("{SESSIONS} sessions sharing one {PREFIX_LEN}-token prompt:");
    for (name, m) in [("cascade (Auto)", &auto), ("flat (Off)", &flat)] {
        let p = &m.serving.pipeline;
        println!(
            "  {name:14} gathered KV rows {:>7}  fused groups {:>3}  rows saved {:>6}",
            p.gather_rows, p.cascade_groups, p.cascade_gather_rows_saved
        );
    }
    let saved = 100.0
        - 100.0 * auto.serving.pipeline.gather_rows as f64
            / flat.serving.pipeline.gather_rows as f64;
    println!("  => identical outputs, {saved:.0}% less KV staging traffic");
    Ok(())
}
