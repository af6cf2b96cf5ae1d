//! # fi-bench
//!
//! The figure-reproduction harness. One binary per paper figure
//! regenerates its table/series (see DESIGN.md §4 for the index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig7_serving` | Figure 7 — end-to-end ITL/TTFT vs Triton and TRT-LLM |
//! | `fig8_kernels` | Figure 8 — decode bandwidth / prefill FLOPs utilization |
//! | `fig9_streaming` | Figure 9 — Streaming-LLM fused-RoPE latency + bandwidth |
//! | `fig10_parallel` | Figure 10 — parallel generation with composable formats |
//! | `fig12_sparse_overhead` | Figure 12 (App. B) — sparse-gather overhead |
//! | `ablation_scheduler` | Algorithm 1 vs naive scheduling (makespan/idle) |
//! | `ablation_gqa_fusion` | Appendix A — head-group fusion traffic/latency |
//!
//! Each binary prints a table and writes `target/experiments/<id>.json`.
//! These bins reproduce the paper on the simulator; wall-clock numbers of
//! the real stack come from `benchmark/` (see its README).

use std::fs;
use std::path::PathBuf;

use fi_core::arch::Arch;
use fi_core::tiles::TileConfig;
use fi_sched::pipeline::{AttentionPipeline, SchedulePolicy};
use fi_sched::plan::Plan;
use fi_sparse::BlockSparseMatrix;

/// Plan a layout through the shared [`AttentionPipeline`] — the same
/// plan→run path the engine and serving backends use — so the figure
/// harnesses price exactly the schedules production code executes.
pub fn plan_layout(
    layout: &BlockSparseMatrix,
    num_ctas: usize,
    tile: TileConfig,
    policy: SchedulePolicy,
) -> Plan {
    let mut pipeline =
        AttentionPipeline::analytical(num_ctas, tile, policy, Arch::Ampere).expect("num_ctas > 0");
    pipeline
        .plan(layout, 1, 1)
        .expect("cost layout admits a plan")
        .clone()
}

/// One named series of (x, y) points.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Series {
    /// Series label (e.g. backend name).
    pub name: String,
    /// Points as (x label, value).
    pub points: Vec<(String, f64)>,
}

/// One reproduced experiment: id, metric description, series.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Experiment {
    /// Paper figure/table id (e.g. "fig8_decode_bandwidth_h100").
    pub id: String,
    /// What the values are (units).
    pub metric: String,
    /// Data series.
    pub series: Vec<Series>,
}

impl Experiment {
    /// Create an empty experiment.
    pub fn new(id: &str, metric: &str) -> Experiment {
        Experiment {
            id: id.into(),
            metric: metric.into(),
            series: Vec::new(),
        }
    }

    /// Append a series.
    pub fn push(&mut self, name: &str, points: Vec<(String, f64)>) {
        self.series.push(Series {
            name: name.into(),
            points,
        });
    }

    /// Print as an aligned table.
    pub fn print(&self) {
        println!("\n== {} [{}] ==", self.id, self.metric);
        if self.series.is_empty() {
            return;
        }
        let xs: Vec<&String> = self.series[0].points.iter().map(|(x, _)| x).collect();
        print!("{:<26}", "");
        for x in &xs {
            print!("{:>12}", x);
        }
        println!();
        for s in &self.series {
            print!("{:<26}", s.name);
            for (_, v) in &s.points {
                print!("{:>12.4}", v);
            }
            println!();
        }
    }

    /// Write JSON under `target/experiments/`.
    pub fn save(&self) {
        let dir = PathBuf::from("target/experiments");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.json", self.id));
        match serde_json::to_string_pretty(self) {
            Ok(json) => {
                if let Err(e) = fs::write(&path, json) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                } else {
                    println!("  -> {}", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not serialize {}: {e}", self.id),
        }
    }
}

/// Relative change `(new - base) / base` in percent.
pub fn pct_change(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (new - base) / base * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_roundtrip() {
        let mut e = Experiment::new("test", "ms");
        e.push("a", vec![("x".into(), 1.0), ("y".into(), 2.0)]);
        assert_eq!(e.series.len(), 1);
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"test\""));
    }

    #[test]
    fn pct() {
        assert_eq!(pct_change(2.0, 1.0), -50.0);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }
}
