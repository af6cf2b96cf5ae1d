//! TTFT / ITL metric collection, percentile summaries, and the planner /
//! kernel observables shared between the simulator and `fi-runtime`.

use fi_core::kernel::KernelStats;
use fi_sched::pipeline::AttentionPipeline;

/// Planner and kernel counters surfaced by a serving run.
///
/// Both the discrete-event simulator ([`crate::engine::Engine`]) and the
/// real-kernel runtime (`fi-runtime`) report through this one struct so
/// their behaviour can be cross-checked: plan counters (cache hits, work
/// items, merges) are meaningful on both sides, while the kernel-level
/// counters (FLOPs, gather traffic) are nonzero only where real kernels
/// run. Previously these numbers were dropped at the executor boundary —
/// each backend built a throwaway [`AttentionPipeline`] per step and its
/// statistics died with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PipelineObservables {
    /// Plans computed (plan-cache misses).
    pub plans_computed: u64,
    /// Plan-cache hits (same batch shape reused).
    pub plan_cache_hits: u64,
    /// Schedule work items executed (or priced, in the simulator).
    pub items_executed: u64,
    /// Merge groups contracted.
    pub merges: u64,
    /// Multiply-add FLOPs executed by real kernels.
    pub kernel_flops: u64,
    /// Bytes moved from "global memory" by real kernels.
    pub kernel_global_bytes: u64,
    /// KV tiles staged by real kernels.
    pub kv_tiles: u64,
    /// Tiles run on the tensor-core path.
    pub tensor_core_tiles: u64,
    /// Tiles run on the CUDA-core path.
    pub cuda_core_tiles: u64,
    /// Gather: rows staged from the paged pool.
    pub gather_rows: u64,
    /// Gather: contiguous (TMA-eligible) staged runs.
    pub gather_contiguous_runs: u64,
    /// Gather: scattered runs needing per-run address computation.
    pub gather_scattered_runs: u64,
    /// Shared-prefix decode groups executed as cascades (≥2 members
    /// whose prefix KV was staged once for the whole group).
    pub cascade_groups: u64,
    /// Cascade levels executed across all grouped steps (two per group
    /// in the runtime's two-level prefix/suffix split).
    pub cascade_levels: u64,
    /// Prefix KV rows the cascade did *not* re-gather vs the flat path
    /// (`(group_size - 1) * prefix_len` per grouped execution).
    pub cascade_gather_rows_saved: u64,
    /// Prefix groups the cost model sent down the flat per-request path.
    pub cascade_flat_fallbacks: u64,
}

impl PipelineObservables {
    /// Fold a pipeline's counters (plan statistics plus the kernel
    /// statistics it absorbed from every `run`) into this accumulator.
    pub fn absorb_pipeline(&mut self, pipeline: &AttentionPipeline) {
        let s = pipeline.stats();
        self.plans_computed += s.plans_computed;
        self.plan_cache_hits += s.plan_cache_hits;
        self.items_executed += s.items_executed;
        self.merges += s.merges;
        self.absorb_kernel(&pipeline.kernel_stats());
    }

    /// Fold raw kernel statistics into this accumulator.
    pub fn absorb_kernel(&mut self, k: &KernelStats) {
        self.kernel_flops += k.flops;
        self.kernel_global_bytes += k.global_bytes;
        self.kv_tiles += k.kv_tiles;
        self.tensor_core_tiles += k.tensor_core_tiles;
        self.cuda_core_tiles += k.cuda_core_tiles;
        self.gather_rows += k.gather.rows as u64;
        self.gather_contiguous_runs += k.gather.contiguous_runs as u64;
        self.gather_scattered_runs += k.gather.scattered_runs as u64;
    }

    /// Fold another accumulator (e.g. a worker's) into this one.
    pub fn absorb(&mut self, other: &PipelineObservables) {
        self.plans_computed += other.plans_computed;
        self.plan_cache_hits += other.plan_cache_hits;
        self.items_executed += other.items_executed;
        self.merges += other.merges;
        self.kernel_flops += other.kernel_flops;
        self.kernel_global_bytes += other.kernel_global_bytes;
        self.kv_tiles += other.kv_tiles;
        self.tensor_core_tiles += other.tensor_core_tiles;
        self.cuda_core_tiles += other.cuda_core_tiles;
        self.gather_rows += other.gather_rows;
        self.gather_contiguous_runs += other.gather_contiguous_runs;
        self.gather_scattered_runs += other.gather_scattered_runs;
        self.cascade_groups += other.cascade_groups;
        self.cascade_levels += other.cascade_levels;
        self.cascade_gather_rows_saved += other.cascade_gather_rows_saved;
        self.cascade_flat_fallbacks += other.cascade_flat_fallbacks;
    }

    /// Fraction of plan requests served from the cache.
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plans_computed + self.plan_cache_hits;
        if total == 0 {
            return 0.0;
        }
        self.plan_cache_hits as f64 / total as f64
    }
}

/// Latency samples collected over a serving run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServingMetrics {
    /// Time-to-first-token per request, seconds.
    pub ttft: Vec<f64>,
    /// Inter-token latency samples (one per generated token), seconds.
    ///
    /// Filled by the simulator only, whose virtual-time runs are short.
    /// `fi-runtime` leaves it empty: a live run's one per-token series
    /// goes into a bounded [`LatencyHistogram`] on its own report instead.
    pub itl: Vec<f64>,
    /// Requests completed.
    pub completed: usize,
    /// Wall-clock duration of the run, seconds.
    pub duration: f64,
    /// Total tokens generated.
    pub tokens_generated: usize,
    /// Preempt-and-recompute events (optimistic admission only).
    pub preemptions: usize,
    /// Serving steps executed (batches formed and priced).
    pub steps: usize,
    /// Planner / kernel counters accumulated over the run.
    pub pipeline: PipelineObservables,
}

/// Samples sorted once, so any number of percentile queries costs O(1)
/// sorts total instead of one clone-and-sort per query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PercentileSummary {
    sorted: Vec<f64>,
}

impl PercentileSummary {
    /// Sort the samples once.
    pub fn new(samples: &[f64]) -> PercentileSummary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        PercentileSummary { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Percentile with linear interpolation. Returns 0 for empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let s = &self.sorted;
        if s.is_empty() {
            return 0.0;
        }
        let rank = (p / 100.0) * (s.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            s[lo]
        } else {
            s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
        }
    }
}

/// A serializable latency digest: the percentiles a serving report
/// actually quotes, computed from one [`PercentileSummary`] sort instead
/// of shipping the raw sample vector around.
///
/// This is the reporting surface for TTFT/ITL in `fi-runtime`'s metrics
/// (overall and per tenant): consumers read `p50`/`p99` straight off the
/// struct rather than re-sorting a `Vec<f64>` dump per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: usize,
    /// Arithmetic mean, seconds. Zero when empty.
    pub mean: f64,
    /// Median, seconds.
    pub p50: f64,
    /// 90th percentile, seconds.
    pub p90: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Largest sample, seconds.
    pub max: f64,
}

/// Lower edge of [`LatencyHistogram`]'s first bucket, seconds. Anything
/// shorter (a microsecond is far below one scheduler step) lands in it.
const HISTOGRAM_MIN_S: f64 = 1e-6;
/// Ratio of a bucket's upper edge to its lower edge: 1 % wide.
const HISTOGRAM_GROWTH: f64 = 1.01;
/// Buckets in all; the last one's lower edge is `1e-6 * 1.01^1899`, about
/// 160 s, and takes anything longer.
const HISTOGRAM_BUCKETS: usize = 1900;

/// A mergeable, bounded-memory digest of latency samples, seconds.
///
/// Samples are counted in log-spaced buckets 1 % wide, so a percentile
/// read back is within half a percent of the sample it stands for, while
/// `count`, `sum` and `max` are exact. Only the span between the lowest
/// and the highest occupied bucket is stored — at most
/// 1900 counters (15 KiB), a few hundred for one run's inter-token
/// gaps — however many samples are recorded. Merging adds bucket by
/// bucket, so the digest of two runs *is* the digest of their pooled
/// samples: no percentile-of-percentiles approximation.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencyHistogram {
    /// Bucket index of `counts[0]`.
    first: usize,
    /// Occupancy of buckets `first ..`; both end buckets are occupied.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl LatencyHistogram {
    fn bucket_of(seconds: f64) -> usize {
        // `as usize` saturates: a zero, negative or NaN sample (whose
        // logarithm is negative or NaN) lands in bucket 0, +inf in the last.
        let i = ((seconds / HISTOGRAM_MIN_S).ln() / HISTOGRAM_GROWTH.ln()) as usize;
        i.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Widen the stored span to cover buckets `lo ..= hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.first = lo;
        } else if lo < self.first {
            let grow = self.first - lo;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = lo;
        }
        let len = (hi + 1 - self.first).max(self.counts.len());
        self.counts.resize(len, 0);
    }

    /// Count one sample.
    pub fn record(&mut self, seconds: f64) {
        let i = Self::bucket_of(seconds);
        self.cover(i, i);
        self.counts[i - self.first] += 1;
        self.count += 1;
        self.sum += seconds;
        self.max = self.max.max(seconds);
    }

    /// Fold another histogram in: afterwards this one digests both
    /// sample sets pooled.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.is_empty() {
            return;
        }
        self.cover(other.first, other.first + other.counts.len() - 1);
        let at = other.first - self.first;
        for (mine, theirs) in self.counts[at..].iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the samples, seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest sample, seconds; 0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `k`-th smallest sample (from 0), to the bucket: the geometric
    /// middle of the bucket holding it, or the exact maximum for the
    /// largest.
    fn order_statistic(&self, k: u64) -> f64 {
        if k + 1 >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > k {
                let mid = HISTOGRAM_MIN_S * HISTOGRAM_GROWTH.powf((self.first + i) as f64 + 0.5);
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Percentile with [`PercentileSummary::percentile`]'s convention
    /// (linear interpolation between the two neighbouring order
    /// statistics), each read to the bucket. Returns 0 for empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p / 100.0) * (self.count - 1) as f64;
        let lo = self.order_statistic(rank.floor() as u64);
        if rank.fract() == 0.0 {
            return lo;
        }
        lo + (self.order_statistic(rank.ceil() as u64) - lo) * rank.fract()
    }
}

impl LatencySummary {
    /// Digest a histogram: exact `count`, `mean` and `max`, percentiles
    /// to the bucket (within 0.5 %).
    pub fn from_histogram(h: &LatencyHistogram) -> LatencySummary {
        LatencySummary {
            count: h.count() as usize,
            mean: if h.count() == 0 {
                0.0
            } else {
                h.sum() / h.count() as f64
            },
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }

    /// Digest a sample set: one sort (via [`PercentileSummary`]), every
    /// quoted percentile read from it.
    pub fn from_samples(samples: &[f64]) -> LatencySummary {
        let sorted = PercentileSummary::new(samples);
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        LatencySummary {
            count: sorted.len(),
            mean,
            p50: sorted.percentile(50.0),
            p90: sorted.percentile(90.0),
            p99: sorted.percentile(99.0),
            max: sorted.percentile(100.0),
        }
    }

    /// Combine two digests whose raw samples are gone (e.g. per-tenant
    /// TTFT digests from different replicas of a cluster).
    ///
    /// `count`, `mean`, and `max` are exact; the percentiles are
    /// *count-weighted averages* of the inputs' percentiles — an
    /// approximation, since the true quantiles of the union cannot be
    /// recovered from two digests. Consumers that need merged
    /// percentiles must merge what the digests were made from instead:
    /// [`LatencyHistogram`]s, or raw sample vectors (`RuntimeMetrics::merge`
    /// does the first for ITL and the second for the run-wide TTFT).
    pub fn merge(&self, other: &LatencySummary) -> LatencySummary {
        if self.count == 0 {
            return *other;
        }
        if other.count == 0 {
            return *self;
        }
        let (wa, wb) = (self.count as f64, other.count as f64);
        let weighted = |a: f64, b: f64| (a * wa + b * wb) / (wa + wb);
        LatencySummary {
            count: self.count + other.count,
            mean: weighted(self.mean, other.mean),
            p50: weighted(self.p50, other.p50),
            p90: weighted(self.p90, other.p90),
            p99: weighted(self.p99, other.p99),
            max: self.max.max(other.max),
        }
    }
}

/// Percentile of a sample set (linear interpolation). Returns 0 for empty.
///
/// Sorts per call — fine for one-off queries; build a
/// [`PercentileSummary`] when asking several percentiles of one set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    PercentileSummary::new(samples).percentile(p)
}

impl ServingMetrics {
    /// TTFT samples sorted once for repeated percentile queries.
    pub fn ttft_summary(&self) -> PercentileSummary {
        PercentileSummary::new(&self.ttft)
    }

    /// ITL samples sorted once for repeated percentile queries.
    pub fn itl_summary(&self) -> PercentileSummary {
        PercentileSummary::new(&self.itl)
    }

    /// Median TTFT in seconds.
    pub fn median_ttft(&self) -> f64 {
        percentile(&self.ttft, 50.0)
    }

    /// P99 TTFT in seconds.
    pub fn p99_ttft(&self) -> f64 {
        percentile(&self.ttft, 99.0)
    }

    /// Median inter-token latency in seconds.
    pub fn median_itl(&self) -> f64 {
        percentile(&self.itl, 50.0)
    }

    /// P99 inter-token latency in seconds.
    pub fn p99_itl(&self) -> f64 {
        percentile(&self.itl, 99.0)
    }

    /// Output throughput in tokens/second.
    pub fn throughput(&self) -> f64 {
        if self.duration <= 0.0 {
            return 0.0;
        }
        self.tokens_generated as f64 / self.duration
    }

    /// Fold another run's samples and counters into this one.
    ///
    /// Raw TTFT/ITL sample vectors are concatenated, so any digest
    /// recomputed from the merged metrics is *exact* (unlike
    /// [`LatencySummary::merge`], which only has digests to work with).
    /// Counters add; `duration` takes the max because merged runs are
    /// replicas executing in parallel wall-clock, not back to back.
    pub fn merge(&mut self, other: &ServingMetrics) {
        self.ttft.extend_from_slice(&other.ttft);
        self.itl.extend_from_slice(&other.itl);
        self.completed += other.completed;
        self.duration = self.duration.max(other.duration);
        self.tokens_generated += other.tokens_generated;
        self.preemptions += other.preemptions;
        self.steps += other.steps;
        self.pipeline.absorb(&other.pipeline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summaries() {
        let m = ServingMetrics {
            ttft: vec![0.1, 0.2, 0.3],
            itl: vec![0.01; 100],
            completed: 3,
            duration: 10.0,
            tokens_generated: 100,
            ..ServingMetrics::default()
        };
        assert_eq!(m.median_ttft(), 0.2);
        assert_eq!(m.median_itl(), 0.01);
        assert_eq!(m.throughput(), 10.0);
    }

    #[test]
    fn observables_fold() {
        let mut a = PipelineObservables {
            plans_computed: 1,
            plan_cache_hits: 3,
            items_executed: 10,
            ..PipelineObservables::default()
        };
        let b = PipelineObservables {
            plans_computed: 1,
            gather_rows: 7,
            ..PipelineObservables::default()
        };
        a.absorb(&b);
        assert_eq!(a.plans_computed, 2);
        assert_eq!(a.gather_rows, 7);
        assert_eq!(a.items_executed, 10);
        assert!((a.plan_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(PipelineObservables::default().plan_hit_rate(), 0.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let s = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
    }

    #[test]
    fn latency_summary_digests_once() {
        let s = [0.1, 0.2, 0.3, 0.4];
        let d = LatencySummary::from_samples(&s);
        assert_eq!(d.count, 4);
        assert!((d.mean - 0.25).abs() < 1e-12);
        assert_eq!(d.p50, percentile(&s, 50.0));
        assert_eq!(d.p90, percentile(&s, 90.0));
        assert_eq!(d.p99, percentile(&s, 99.0));
        assert_eq!(d.max, 0.4);
        let empty = LatencySummary::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.p99, 0.0);
    }

    #[test]
    fn histogram_percentiles_track_exact_ones_to_the_bucket() {
        // Inter-token gaps from 50 us to 2 s, unevenly spread.
        let samples: Vec<f64> = (0..5000)
            .map(|i| 5e-5 * (1.0 + (i * i % 977) as f64) * (1.0 + (i % 41) as f64))
            .collect();
        let mut h = LatencyHistogram::default();
        for &s in &samples {
            h.record(s);
        }
        let exact = LatencySummary::from_samples(&samples);
        let got = LatencySummary::from_histogram(&h);
        assert_eq!(got.count, exact.count);
        assert_eq!(got.max, exact.max, "max is exact");
        assert!((got.mean - exact.mean).abs() <= 1e-12 * exact.mean);
        for (g, e) in [
            (got.p50, exact.p50),
            (got.p90, exact.p90),
            (got.p99, exact.p99),
        ] {
            assert!((g - e).abs() <= 0.006 * e, "{g} vs {e}");
        }
        assert_eq!(h.percentile(100.0), exact.max);
        // Bounded however many samples went in.
        assert!(h.counts.len() <= HISTOGRAM_BUCKETS);
    }

    #[test]
    fn histogram_merge_equals_recording_everything_in_one() {
        let a: Vec<f64> = (1..400).map(|i| 1e-4 * i as f64).collect();
        let b: Vec<f64> = (1..90).map(|i| 3e-6 * (i * i) as f64).collect();
        let digest = |xs: &[f64]| {
            let mut h = LatencyHistogram::default();
            xs.iter().for_each(|&x| h.record(x));
            h
        };
        let pooled = digest(&[&a[..], &b[..]].concat());
        for (x, y) in [(&a, &b), (&b, &a)] {
            let mut merged = digest(x);
            merged.merge(&digest(y));
            assert_eq!(
                (merged.first, &merged.counts),
                (pooled.first, &pooled.counts)
            );
            assert_eq!(merged.count(), pooled.count());
            assert_eq!(merged.max(), pooled.max());
            assert!((merged.sum() - pooled.sum()).abs() <= 1e-12 * pooled.sum());
            assert_eq!(merged.percentile(50.0), pooled.percentile(50.0));
        }
        // Empty histograms are identity elements, and digest to zeros.
        let mut h = digest(&a);
        h.merge(&LatencyHistogram::default());
        assert_eq!(h, digest(&a));
        let mut e = LatencyHistogram::default();
        e.merge(&digest(&a));
        assert_eq!(e, digest(&a));
        assert_eq!(
            LatencySummary::from_histogram(&LatencyHistogram::default()),
            LatencySummary::default()
        );
    }

    #[test]
    fn histogram_takes_out_of_range_samples_at_its_ends() {
        let mut h = LatencyHistogram::default();
        for x in [0.0, -1.0, 1e-9, 1e9, f64::INFINITY] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        assert_eq!((h.first, h.counts.len()), (0, HISTOGRAM_BUCKETS));
        assert_eq!(h.counts[0], 3);
        assert_eq!(h.counts[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(h.max(), f64::INFINITY);
    }

    #[test]
    fn latency_summary_merge_is_count_weighted() {
        let a = LatencySummary::from_samples(&[0.1, 0.2, 0.3]);
        let b = LatencySummary::from_samples(&[0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
        let m = a.merge(&b);
        assert_eq!(m.count, 9);
        // Mean and max are exact.
        let exact = LatencySummary::from_samples(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
        assert!((m.mean - exact.mean).abs() < 1e-12);
        assert_eq!(m.max, 0.9);
        // Percentiles are count-weighted: between the two inputs' values.
        assert!(m.p50 > a.p50 && m.p50 < b.p50);
        assert!((m.p50 - (a.p50 * 3.0 + b.p50 * 6.0) / 9.0).abs() < 1e-12);
        // Empty digests are identity elements.
        let empty = LatencySummary::default();
        assert_eq!(a.merge(&empty), a);
        assert_eq!(empty.merge(&b), b);
        assert_eq!(empty.merge(&empty), empty);
    }

    #[test]
    fn serving_metrics_merge_concatenates_samples() {
        let mut a = ServingMetrics {
            ttft: vec![0.1, 0.2],
            itl: vec![0.01],
            completed: 2,
            duration: 5.0,
            tokens_generated: 10,
            preemptions: 1,
            steps: 4,
            ..ServingMetrics::default()
        };
        let b = ServingMetrics {
            ttft: vec![0.3],
            itl: vec![0.02, 0.03],
            completed: 1,
            duration: 7.0,
            tokens_generated: 5,
            steps: 3,
            ..ServingMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.ttft, vec![0.1, 0.2, 0.3]);
        assert_eq!(a.itl, vec![0.01, 0.02, 0.03]);
        assert_eq!(a.completed, 3);
        assert_eq!(a.duration, 7.0); // parallel replicas: max, not sum
        assert_eq!(a.tokens_generated, 15);
        assert_eq!(a.preemptions, 1);
        assert_eq!(a.steps, 7);
        // Re-digesting the merged samples is exact.
        let d = LatencySummary::from_samples(&a.ttft);
        assert_eq!(d.count, 3);
        assert_eq!(d.max, 0.3);
    }

    #[test]
    fn summary_matches_free_function() {
        let s = [0.4, 0.1, 0.9, 0.2, 0.6, 0.3];
        let summary = PercentileSummary::new(&s);
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(summary.percentile(p), percentile(&s, p));
        }
        assert_eq!(summary.len(), 6);
        assert!(PercentileSummary::new(&[]).is_empty());
        assert_eq!(PercentileSummary::new(&[]).percentile(50.0), 0.0);
    }
}
