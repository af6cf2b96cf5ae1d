//! Every metric the benchmark emits, by name, with its unit. The same names
//! and units are in `BENCHMARK.json` at the root of the repository; the
//! `--quick` test holds the two lists together.

use std::collections::BTreeMap;

/// Emitted with `--trace 0`, on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("output_tok_s", "tok/s"),
    ("cpu_ms_per_tok", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Emitted with `--trace 1`, on every workload; a layer the workload
/// bypasses reports zeros.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("client.ttft_p90_ms", "ms"),
    ("client.ttft_p99_ms", "ms"),
    ("client.tpot_p90_ms", "ms"),
    ("client.itl_p99_ms", "ms"),
    ("client.e2e_p50_ms", "ms"),
    ("client.poll_gap_p99_us", "us"),
    ("client.output_checksum_ok", "count"),
    ("client.trace_overhead_frac", "frac"),
    ("router.submit_call_us_p50", "us"),
    ("router.dispatched", "count"),
    ("router.gate_rejected", "count"),
    ("router.rate_delayed_ticks", "count"),
    ("router.tenant_share_spread", "frac"),
    ("router.hop_ttft_ms", "ms"),
    ("cluster.affinity_hit_frac", "frac"),
    ("cluster.placements_balanced", "count"),
    ("cluster.replica_imbalance", "frac"),
    ("cluster.peak_pending", "count"),
    ("cluster.migrations", "count"),
    ("cluster.hop_ttft_ms", "ms"),
    ("runtime.steps", "count"),
    ("runtime.tokens_per_step", "tok"),
    ("runtime.step_ms_mean", "ms"),
    ("runtime.peak_queue_depth", "count"),
    ("runtime.preemptions", "count"),
    ("runtime.stream_stalls", "count"),
    ("runtime.server_ttft_p50_ms", "ms"),
    ("runtime.delivery_gap_ms", "ms"),
    ("runtime.unattributed_frac", "frac"),
    ("sched.plans_computed", "count"),
    ("sched.plan_hit_rate", "frac"),
    ("sched.items_executed", "count"),
    ("sched.merges", "count"),
    ("sched.plan_miss_us", "us"),
    ("sched.plan_hit_us", "us"),
    ("sched.run_us", "us"),
    ("sched.merge_us", "us"),
    ("sched.cascade_groups", "count"),
    ("sched.cascade_rows_saved_frac", "frac"),
    ("sched.cascade_flat_fallbacks", "count"),
    ("core.kernel_flops_per_tok", "flop"),
    ("core.staged_kv_bytes_per_tok", "B"),
    ("core.gather_contiguous_frac", "frac"),
    ("core.decode_kernel_us", "us"),
    ("core.stage_us", "us"),
    ("core.decode_gbps", "GB/s"),
    ("core.decode_pct_of_stream", "%"),
    ("core.prefill_kernel_us", "us"),
    ("core.prefill_gflops", "GFLOP/s"),
    ("core.prefill_pct_of_fma", "%"),
    ("core.busy_share", "frac"),
    ("kvcache.append_many_ns_per_row", "ns"),
    ("kvcache.append_ns", "ns"),
    ("kvcache.page_table_us", "us"),
    ("kvcache.alloc_free_ns_per_page", "ns"),
    ("kvcache.radix_match_us", "us"),
    ("kvcache.pages_total", "count"),
    ("kvcache.pool_drained", "count"),
    ("sparse.to_bsr_us", "us"),
    ("tensor.dot_gflops", "GFLOP/s"),
    ("tensor.axpy_gbps", "GB/s"),
    ("gpusim.cascade_gate_ns", "ns"),
    ("host.stream_gbps", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
    ("host.cores", "count"),
    ("host.speed_factor", "ratio"),
];

/// One measured value and, where the run repeated it, the values it is the
/// median of.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub value: f64,
    pub per_rep: Vec<f64>,
}

/// Values by metric name, filled as a run goes.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Measured>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(
            name,
            Measured {
                value,
                per_rep: Vec::new(),
            },
        );
    }

    /// Record the median of `per_rep` and keep the values for the envelope.
    pub fn set_median(&mut self, name: &'static str, per_rep: Vec<f64>) {
        let value = crate::stats::median(&per_rep);
        self.0.insert(name, Measured { value, per_rep });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.0.get(name)
    }

    /// The values of `table`, in its order. A name the run did not fill is
    /// a bug in the benchmark.
    pub fn in_order<'a>(
        &'a self,
        table: &'a [(&'static str, &'static str)],
    ) -> impl Iterator<Item = (&'static str, &'static str, &'a Measured)> + 'a {
        table.iter().map(|&(name, unit)| {
            let m = self
                .0
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, unit, m)
        })
    }
}
