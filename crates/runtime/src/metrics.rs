//! The runtime's observable state: lifecycle counters on top of the
//! latency and planner/kernel metrics shared with the simulator.

use fi_dist::CommStats;
use fi_serving::{LatencyHistogram, LatencySummary, ServingMetrics};

/// TTFT/ITL digests for one run (or one tenant's slice of it): the
/// [`LatencySummary`] pair that replaces raw sample dumps as the
/// runtime's latency reporting surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RequestLatency {
    /// Time-to-first-token digest.
    pub ttft: LatencySummary,
    /// Inter-token-latency digest.
    pub itl: LatencySummary,
}

impl RequestLatency {
    /// Digest the TTFT samples (one per request: sorted once) and the ITL
    /// histogram (one sample per token: never kept raw).
    pub fn digest(ttft: &[f64], itl: &LatencyHistogram) -> RequestLatency {
        RequestLatency {
            ttft: LatencySummary::from_samples(ttft),
            itl: LatencySummary::from_histogram(itl),
        }
    }
}

/// One tenant's slice of a run: lifecycle counts plus latency digests,
/// keyed by the [`crate::RuntimeRequest::tenant`] tag. This is what makes
/// SLO-aware admission testable — a router experiment can assert tenant
/// A's p99 ITL stayed flat while tenant B's burst was absorbed.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantLatency {
    /// The tenant tag requests carried.
    pub tenant: u32,
    /// Requests of this tenant that ran to completion.
    pub completed: u64,
    /// TTFT/ITL digests over this tenant's samples.
    pub latency: RequestLatency,
    /// What `latency.itl` digests, kept so that two replicas' slices of
    /// one tenant merge exactly.
    pub itl_histogram: LatencyHistogram,
}

/// Snapshot of a runtime run, returned by `Runtime::finish`.
///
/// Embeds [`ServingMetrics`] — the same struct the discrete-event
/// simulator reports (TTFT/ITL percentiles, steps, preemptions,
/// plan-cache and gather counters), here filled from wall-clock events —
/// and adds the lifecycle accounting only a concurrent runtime has: every
/// submission ends in exactly one of completed / rejected / cancelled,
/// and [`RuntimeMetrics::reconciles`] checks that identity.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RuntimeMetrics {
    /// Latency samples, step counts, and planner/kernel observables —
    /// shared shape with the simulator's report.
    pub serving: ServingMetrics,
    /// Requests submitted (including ones bounced at the queue gate).
    pub submitted: u64,
    /// Requests admitted into the KV pool at least once.
    pub admitted: u64,
    /// Requests rejected (queue full or oversize).
    pub rejected: u64,
    /// Requests cancelled (user, deadline, or failure).
    pub cancelled: u64,
    /// Preempt-by-swap evictions (KV copied out of the pool).
    pub swap_outs: u64,
    /// Swap restores on re-admission.
    pub swap_ins: u64,
    /// Highest submission-queue depth observed.
    pub peak_queue_depth: usize,
    /// KV pool size in pages.
    pub kv_pages_total: usize,
    /// Free pages after drain — equals `kv_pages_total` iff no page
    /// leaked.
    pub kv_pages_free_at_drain: usize,
    /// Tensor-parallel degree the run executed at (1 = unsharded).
    pub tensor_parallel: usize,
    /// Storage dtype of the KV arena the run executed with ("f32",
    /// "f16", or "f8e4m3"); empty only on a default-constructed report.
    pub kv_dtype: String,
    /// Collective calls and bytes moved by the workers' tensor-parallel
    /// groups, summed over workers. All-zero at `tensor_parallel == 1`
    /// (the unsharded path issues no collectives).
    pub comm: CommStats,
    /// Whole-run TTFT/ITL digests (made once at drain) — the reporting
    /// surface for latency. What [`RuntimeMetrics::merge`] re-digests
    /// across replicas is `serving.ttft` and `itl_histogram`.
    pub latency: RequestLatency,
    /// Every inter-token gap of the run, in bounded memory. `serving.itl`
    /// stays empty: the runtime keeps no raw per-token series.
    pub itl_histogram: LatencyHistogram,
    /// Per-tenant latency digests, ascending by tenant tag. Only tenants
    /// that produced at least one first token appear.
    pub tenants: Vec<TenantLatency>,
    /// Decode steps a request sat out because its bounded stream channel
    /// was full (client-side backpressure reached the scheduler).
    pub stream_stalls: u64,
    /// Requests cancelled because the client dropped its stream receiver
    /// mid-generation (included in `cancelled`).
    pub stream_dropped: u64,
    /// Prefill-only requests whose finished KV pages were exported for
    /// migration (disaggregated prefill/decode).
    pub kv_exports: u64,
    /// KV rows exported across all `kv_exports`.
    pub kv_export_rows: u64,
    /// Resumed requests whose KV pages were imported from a snapshot.
    pub kv_imports: u64,
    /// KV rows imported across all `kv_imports`.
    pub kv_import_rows: u64,
}

impl RuntimeMetrics {
    /// Requests that ran to completion.
    pub fn completed(&self) -> u64 {
        self.serving.completed as u64
    }

    /// Every submission accounted for exactly once:
    /// `submitted == completed + rejected + cancelled`.
    pub fn reconciles(&self) -> bool {
        self.submitted == self.completed() + self.rejected + self.cancelled
    }

    /// True iff the pool drained back to fully free.
    pub fn kv_pool_drained(&self) -> bool {
        self.kv_pages_free_at_drain == self.kv_pages_total
    }

    /// The latency digest of one tenant, if it surfaced any samples.
    pub fn tenant(&self, tenant: u32) -> Option<&TenantLatency> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Fold another runtime's report into this one (cluster rollup).
    ///
    /// Lifecycle counters, KV pages, comm stats, raw TTFT samples and ITL
    /// histograms sum; `peak_queue_depth` and `tensor_parallel` take the
    /// max (replicas run in parallel, not in sequence). The whole-run
    /// `latency` digest and every tenant's ITL digest are **re-digested
    /// from the merged samples / histograms**, so they are what one
    /// runtime serving everything would have reported (ITL to the
    /// bucket), not a percentile-of-percentiles approximation; only
    /// per-tenant TTFT, of which no samples are kept, still uses the
    /// count-weighted [`LatencySummary::merge`].
    /// Merging preserves [`RuntimeMetrics::reconciles`]: if both sides
    /// reconcile, the merged report does too.
    pub fn merge(&mut self, other: &RuntimeMetrics) {
        self.serving.merge(&other.serving);
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.cancelled += other.cancelled;
        self.swap_outs += other.swap_outs;
        self.swap_ins += other.swap_ins;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.kv_pages_total += other.kv_pages_total;
        self.kv_pages_free_at_drain += other.kv_pages_free_at_drain;
        self.tensor_parallel = self.tensor_parallel.max(other.tensor_parallel);
        if self.kv_dtype.is_empty() {
            self.kv_dtype = other.kv_dtype.clone();
        }
        self.comm.merge(&other.comm);
        self.itl_histogram.merge(&other.itl_histogram);
        self.latency = RequestLatency::digest(&self.serving.ttft, &self.itl_histogram);
        for t in &other.tenants {
            match self.tenants.iter_mut().find(|x| x.tenant == t.tenant) {
                Some(mine) => {
                    mine.completed += t.completed;
                    mine.latency.ttft = mine.latency.ttft.merge(&t.latency.ttft);
                    mine.itl_histogram.merge(&t.itl_histogram);
                    mine.latency.itl = LatencySummary::from_histogram(&mine.itl_histogram);
                }
                None => self.tenants.push(t.clone()),
            }
        }
        self.tenants.sort_by_key(|t| t.tenant);
        self.stream_stalls += other.stream_stalls;
        self.stream_dropped += other.stream_dropped;
        self.kv_exports += other.kv_exports;
        self.kv_export_rows += other.kv_export_rows;
        self.kv_imports += other.kv_imports;
        self.kv_import_rows += other.kv_import_rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconciliation_identity() {
        let mut m = RuntimeMetrics {
            submitted: 10,
            rejected: 2,
            cancelled: 3,
            ..RuntimeMetrics::default()
        };
        m.serving.completed = 5;
        assert!(m.reconciles());
        m.cancelled = 2;
        assert!(!m.reconciles());
    }

    #[test]
    fn merge_sums_counters_and_redigests_latency() {
        let mut a = RuntimeMetrics {
            submitted: 4,
            admitted: 3,
            rejected: 1,
            cancelled: 1,
            peak_queue_depth: 3,
            kv_pages_total: 64,
            kv_pages_free_at_drain: 64,
            tensor_parallel: 1,
            kv_dtype: "f32".into(),
            kv_exports: 2,
            kv_export_rows: 20,
            ..RuntimeMetrics::default()
        };
        let histogram = |gaps: &[f64]| {
            let mut h = LatencyHistogram::default();
            gaps.iter().for_each(|&g| h.record(g));
            h
        };
        a.serving.completed = 2;
        a.serving.ttft = vec![1.0, 3.0];
        a.itl_histogram = histogram(&[0.5]);
        a.serving.tokens_generated = 10;
        a.latency = RequestLatency::digest(&a.serving.ttft, &a.itl_histogram);
        a.tenants = vec![TenantLatency {
            tenant: 1,
            completed: 2,
            latency: a.latency,
            itl_histogram: a.itl_histogram.clone(),
        }];

        let mut b = RuntimeMetrics {
            submitted: 3,
            admitted: 3,
            rejected: 0,
            cancelled: 0,
            peak_queue_depth: 5,
            kv_pages_total: 64,
            kv_pages_free_at_drain: 64,
            tensor_parallel: 1,
            kv_dtype: "f32".into(),
            kv_imports: 1,
            kv_import_rows: 7,
            ..RuntimeMetrics::default()
        };
        b.serving.completed = 3;
        b.serving.ttft = vec![2.0, 4.0, 6.0];
        b.itl_histogram = histogram(&[0.25, 0.75]);
        b.serving.tokens_generated = 8;
        b.latency = RequestLatency::digest(&b.serving.ttft, &b.itl_histogram);
        let slice = |tenant: u32, ttft: &[f64], gaps: &[f64]| TenantLatency {
            tenant,
            completed: ttft.len() as u64,
            latency: RequestLatency::digest(ttft, &histogram(gaps)),
            itl_histogram: histogram(gaps),
        };
        b.tenants = vec![slice(0, &[2.0], &[0.25]), slice(1, &[4.0, 6.0], &[0.75])];

        assert!(a.reconciles() && b.reconciles());
        a.merge(&b);
        assert_eq!(a.submitted, 7);
        assert_eq!(a.completed(), 5);
        assert!(a.reconciles());
        assert_eq!(a.peak_queue_depth, 5);
        assert_eq!(a.kv_pages_total, 128);
        assert!(a.kv_pool_drained());
        assert_eq!(a.serving.tokens_generated, 18);
        assert_eq!(a.kv_exports, 2);
        assert_eq!(a.kv_export_rows, 20);
        assert_eq!(a.kv_imports, 1);
        assert_eq!(a.kv_import_rows, 7);

        // The whole-run digest is what one runtime that saw every sample
        // would report: TTFT from the concatenated raw samples, ITL from
        // one histogram of all three gaps.
        let exact =
            RequestLatency::digest(&[1.0, 3.0, 2.0, 4.0, 6.0], &histogram(&[0.5, 0.25, 0.75]));
        assert_eq!(a.latency, exact);
        assert_eq!(a.latency.itl.count, 3);
        assert_eq!(a.latency.itl.max, 0.75);
        assert!((a.latency.itl.p50 - 0.5).abs() <= 0.005 * 0.5);
        assert!(a.serving.itl.is_empty(), "no raw per-token series");

        // Tenants merged by tag, ascending; a tenant's ITL digest is that
        // of its merged histogram, not an average of percentiles.
        let tags: Vec<u32> = a.tenants.iter().map(|t| t.tenant).collect();
        assert_eq!(tags, vec![0, 1]);
        assert_eq!(a.tenant(1).unwrap().completed, 4);
        assert_eq!(a.tenant(1).unwrap().latency.ttft.count, 4);
        assert_eq!(
            a.tenant(1).unwrap().latency.itl,
            LatencySummary::from_histogram(&histogram(&[0.5, 0.75]))
        );
        assert_eq!(a.tenant(0).unwrap().completed, 1);
        assert_eq!(a.tenant(0).unwrap().latency.itl.count, 1);
    }

    #[test]
    fn merge_into_default_adopts_dtype() {
        let mut total = RuntimeMetrics::default();
        let part = RuntimeMetrics {
            kv_dtype: "f16".into(),
            tensor_parallel: 2,
            ..RuntimeMetrics::default()
        };
        total.merge(&part);
        assert_eq!(total.kv_dtype, "f16");
        assert_eq!(total.tensor_parallel, 2);
    }

    #[test]
    fn drain_check() {
        let m = RuntimeMetrics {
            kv_pages_total: 8,
            kv_pages_free_at_drain: 8,
            ..RuntimeMetrics::default()
        };
        assert!(m.kv_pool_drained());
    }
}
