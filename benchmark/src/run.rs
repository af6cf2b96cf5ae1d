//! One run of one workload: set-up, output check, timed repetitions, and in
//! a traced run the per-layer probes.

use std::time::{Duration, Instant};

use fi_runtime::Runtime;

use crate::driver::{run_direct, run_rep, run_rep_on, Rep};
use crate::host;
use crate::layers::{probe_host, probe_kvcache, replay_unit, UnitShape, UnitTimes};
use crate::metrics::Values;
use crate::speed::HostSpeed;
use crate::stats::{fnv_row, median, percentile, sorted, FNV_SEED};
use crate::trace::Tracer;
use crate::workload::{Spec, TraceRequest, PREFILL_CHUNK};

/// Requests replayed alone against a fresh single-worker runtime.
const ORACLE_SAMPLES: usize = 4;
/// Set-ups per untraced run; the median is `setup_s`.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One repetition of a quarter of the requests, short probes.
    pub quick: bool,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub reps: usize,
    pub values: Values,
    /// How slow the host was against the reference (`speed::HostSpeed`),
    /// and the probes behind it.
    pub speed: HostSpeed,
    /// Share of the process's CPU time the layer replay explains, by layer;
    /// traced runs only.
    pub attribution: Vec<(&'static str, f64)>,
    pub tracer: Option<Tracer>,
}

/// Replay sampled requests alone on a fresh single-worker runtime and
/// compare their rows, bit for bit, with what `rep` streamed for them.
/// Returns the mismatches.
fn oracle_mismatches(spec: &Spec, trace: &[TraceRequest], rep: &Rep) -> usize {
    let rt = Runtime::start(spec.runtime_config(1)).expect("oracle runtime starts");
    let samples = ORACLE_SAMPLES.min(trace.len());
    let mut bad = 0;
    for k in 0..samples {
        let idx = k * trace.len() / samples;
        let rows = rt
            .submit(trace[idx].req)
            .wait()
            .completed()
            .map(|c| c.outputs)
            .unwrap_or_default();
        let hash = rows.iter().fold(FNV_SEED, |h, r| fnv_row(h, r));
        if rows.len() != trace[idx].req.output_len || hash != rep.s.hashes[idx] {
            bad += 1;
        }
    }
    let m = rt.finish();
    assert!(
        m.reconciles() && m.kv_pool_drained(),
        "oracle runtime leaked"
    );
    bad
}

/// The identities every repetition must leave behind.
fn check_rep(rep: &Rep) {
    assert!(rep.report.reconciles(), "router report does not reconcile");
    let drained = match &rep.report.cluster {
        Some(c) => c.kv_pools_drained(),
        None => rep.report.runtime.kv_pool_drained(),
    };
    assert!(drained, "kv pool not drained");
    assert_eq!(
        rep.report.runtime.serving.preemptions, 0,
        "pool sized so nothing preempts"
    );
}

/// One set-up: build the trace, start the front door, serve the first half
/// of the trace untimed (threads spawned, pools touched, plan caches and
/// allocator warm) and shut down. Returns its duration too.
fn set_up(spec: &Spec, seed: u64) -> (Vec<TraceRequest>, Rep, f64) {
    let t = Instant::now();
    let trace = spec.trace(seed);
    let rep = run_rep(spec, &trace[..trace.len().div_ceil(2)], None);
    let secs = t.elapsed().as_secs_f64();
    check_rep(&rep);
    (trace, rep, secs)
}

/// Repetition number `index` of the trace: the requests in an order of its
/// own through a fresh front door. Also returns how many requests failed or
/// streamed rows other than `expected` (indexed by request id).
fn one_rep(
    spec: &Spec,
    trace: &[TraceRequest],
    seed: u64,
    index: usize,
    expected: &[u64],
    tracer: Option<&mut Tracer>,
) -> (Rep, usize) {
    let rep = run_rep(spec, &Spec::reordered(trace, seed, index), tracer);
    check_rep(&rep);
    let mismatched = rep
        .s
        .hashes
        .iter()
        .zip(expected)
        .filter(|(a, b)| a != b)
        .count();
    let bad = rep.s.failed + mismatched;
    (rep, bad)
}

struct Timed {
    reps: Vec<Rep>,
    cpu_s: f64,
    failed: usize,
}

/// Repetitions of the whole trace for about `seconds`. Every repetition
/// must stream the same rows per request: the warm-up's for the requests it
/// covered, the first repetition's for the rest.
fn timed_reps(
    spec: &Spec,
    trace: &[TraceRequest],
    seed: u64,
    seconds: f64,
    warm_hashes: &[u64],
    speed: &mut HostSpeed,
) -> Timed {
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut failed = 0;
    loop {
        let expected = reps.first().map_or(warm_hashes, |r| &r.s.hashes);
        let (rep, bad) = one_rep(spec, trace, seed, reps.len(), expected, None);
        failed += bad;
        speed.sample();
        let rep_s = rep.s.wall_s;
        reps.push(rep);
        // Stop where one more repetition would end further from `seconds`
        // than this one did.
        if t0.elapsed().as_secs_f64() + rep_s / 2.0 >= seconds {
            break;
        }
    }
    Timed {
        reps,
        cpu_s: host::process_cpu_s() - cpu0,
        failed,
    }
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// Largest minus smallest share, over the mean: 0 when all got the same.
fn range_over_mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (lo, hi) = v
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    if mean > 0.0 {
        (hi - lo) / mean
    } else {
        0.0
    }
}

fn tok_s(r: &Rep) -> f64 {
    r.s.tokens as f64 / r.s.wall_s
}

pub fn run(spec: &Spec, args: &RunArgs) -> Outcome {
    let seconds = if args.quick { 0.0 } else { args.seconds };
    if args.trace {
        run_traced(spec, args.seed, seconds, args.quick)
    } else {
        run_end_to_end(spec, args.seed, seconds, args.quick)
    }
}

fn run_end_to_end(spec: &Spec, seed: u64, seconds: f64, quick: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut last = None;
    out.speed.sample();
    for _ in 0..if quick { 1 } else { SETUPS } {
        let (trace, warm, secs) = set_up(spec, seed);
        out.speed.sample();
        setup_s.push(secs);
        out.failed += warm.s.failed;
        last = Some((trace, warm));
    }
    let (trace, warm) = last.expect("at least one set-up");
    out.failed += oracle_mismatches(spec, &trace[..warm.s.hashes.len()], &warm);

    let t = timed_reps(spec, &trace, seed, seconds, &warm.s.hashes, &mut out.speed);
    out.reps = t.reps.len();
    out.attempted = trace.len() * t.reps.len();
    out.failed += t.failed;
    let tokens: u64 = t.reps.iter().map(|r| r.s.tokens).sum();

    // Times are divided by the host speed factor and rates multiplied: the
    // values read as on a host at its reference speed.
    let f = out.speed.factor();
    let scaled =
        |values: Vec<f64>, by: f64| -> Vec<f64> { values.iter().map(|x| x * by).collect() };
    let v = &mut out.values;
    v.set_median("setup_s", scaled(setup_s, 1.0 / f));
    v.set_median(
        "ttft_p50_ms",
        scaled(per_rep(&t.reps, |r| median(&r.s.ttft_ms)), 1.0 / f),
    );
    v.set_median(
        "tpot_p50_ms",
        scaled(per_rep(&t.reps, |r| median(&r.s.tpot_ms)), 1.0 / f),
    );
    v.set_median("output_tok_s", scaled(per_rep(&t.reps, tok_s), f));
    v.set("cpu_ms_per_tok", t.cpu_s * 1e3 / tokens.max(1) as f64 / f);
    v.set("peak_rss_mb", host::peak_rss_mb());
    out
}

/// The unit shapes a worker sees most on this trace: a decode step halfway
/// through a median request, and the middle prefill chunk of a median
/// prompt.
fn median_shapes(spec: &Spec, trace: &[TraceRequest]) -> (UnitShape, UnitShape) {
    let lens = |f: fn(&TraceRequest) -> usize| -> usize {
        median(&trace.iter().map(|t| f(t) as f64).collect::<Vec<_>>()) as usize
    };
    let own_prompt = lens(|t| t.req.prompt_len) - spec.shared_prefix;
    let output = lens(|t| t.req.output_len);
    let chunk = own_prompt.min(PREFILL_CHUNK);
    let chunks = own_prompt.div_ceil(chunk);
    let decode = UnitShape {
        qo_len: 1,
        kv_len: spec.shared_prefix + own_prompt + output / 2,
    };
    let prefill = UnitShape {
        qo_len: chunk,
        kv_len: spec.shared_prefix + (chunk * chunks.div_ceil(2)).min(own_prompt),
    };
    (decode, prefill)
}

fn run_traced(spec: &Spec, seed: u64, seconds: f64, quick: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let (trace, warm, _) = set_up(spec, seed);
    out.failed += warm.s.failed + oracle_mismatches(spec, &trace[..warm.s.hashes.len()], &warm);

    // Traced and untraced repetitions of the same trace, alternating so
    // that host drift falls on both; their difference is what recording
    // spans costs.
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let (mut traced, mut plain): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    out.speed.sample();
    loop {
        let with_spans = traced.len() == plain.len();
        let expected = traced.first().map_or(&warm.s.hashes, |r| &r.s.hashes);
        let (rep, bad) = one_rep(
            spec,
            &trace,
            seed,
            traced.len() + plain.len(),
            expected,
            with_spans.then_some(&mut tracer),
        );
        out.failed += bad;
        out.speed.sample();
        out.attempted += trace.len();
        if with_spans { &mut traced } else { &mut plain }.push(rep);
        if traced.len() == plain.len() && t0.elapsed().as_secs_f64() >= seconds * 0.6 {
            break;
        }
    }
    let cpu_per_rep_us = (host::process_cpu_s() - cpu0) * 1e6 / (traced.len() + plain.len()) as f64;
    out.reps = traced.len();
    let reps = &traced;
    let routed_ttft = median(&per_rep(reps, |r| median(&r.s.ttft_ms)));

    // Hop differentials: the same trace with one layer fewer in front.
    let direct_ttft = median(&run_direct(spec, &trace));
    let single_ttft = spec.cluster.then(|| {
        let rep = run_rep_on(spec.start_router_single(), spec.clients, &trace, None);
        check_rep(&rep);
        median(&rep.s.ttft_ms)
    });

    let budget = Duration::from_millis(if quick { 5 } else { 300 });
    let (decode_shape, prefill_shape) = median_shapes(spec, &trace);
    let dec = replay_unit(decode_shape, budget, &mut tracer);
    let pre = replay_unit(prefill_shape, budget, &mut tracer);
    let probe_budget = budget / 6;
    let kv = probe_kvcache(prefill_shape.qo_len, probe_budget);
    let hostp = probe_host(probe_budget);

    let v = &mut out.values;
    let pooled = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        sorted(
            &reps
                .iter()
                .flat_map(|r| f(r).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let ttft = pooled(|r| &r.s.ttft_ms);
    let tpot = pooled(|r| &r.s.tpot_ms);
    let itl = pooled(|r| &r.s.itl_ms);
    v.set("client.ttft_p90_ms", percentile(&ttft, 90.0));
    v.set("client.ttft_p99_ms", percentile(&ttft, 99.0));
    v.set("client.tpot_p90_ms", percentile(&tpot, 90.0));
    v.set("client.itl_p99_ms", percentile(&itl, 99.0));
    v.set(
        "client.e2e_p50_ms",
        percentile(&pooled(|r| &r.s.e2e_ms), 50.0),
    );
    v.set(
        "client.poll_gap_p99_us",
        percentile(&pooled(|r| &r.s.poll_gap_us), 99.0),
    );
    v.set(
        "client.output_checksum_ok",
        f64::from(reps.iter().all(|r| r.s.checksum() == reps[0].s.checksum())),
    );
    v.set(
        "client.trace_overhead_frac",
        1.0 - median(&per_rep(reps, tok_s)) / median(&per_rep(&plain, tok_s)),
    );
    eprintln!(
        "samples: ttft {} tpot {} itl {} over {} traced reps",
        ttft.len(),
        tpot.len(),
        itl.len(),
        reps.len()
    );

    v.set_median(
        "router.submit_call_us_p50",
        per_rep(reps, |r| median(&r.s.submit_us)),
    );
    v.set_median(
        "router.dispatched",
        per_rep(reps, |r| r.report.dispatched as f64),
    );
    v.set_median(
        "router.gate_rejected",
        per_rep(reps, |r| r.report.gate_rejected as f64),
    );
    v.set_median(
        "router.rate_delayed_ticks",
        per_rep(reps, |r| {
            r.report
                .tenants
                .iter()
                .map(|t| t.rate_delayed_ticks as f64)
                .sum()
        }),
    );
    v.set_median(
        "router.tenant_share_spread",
        per_rep(reps, |r| {
            range_over_mean(r.report.tenants.iter().map(|t| t.dispatched as f64))
        }),
    );
    v.set(
        "router.hop_ttft_ms",
        single_ttft.unwrap_or(routed_ttft) - direct_ttft,
    );

    let cluster = |f: fn(&fi_cluster::ClusterMetrics) -> f64| -> Vec<f64> {
        per_rep(reps, |r| r.report.cluster.as_ref().map_or(0.0, f))
    };
    v.set_median(
        "cluster.affinity_hit_frac",
        cluster(|c| c.placements_affinity as f64 / c.submitted.max(1) as f64),
    );
    v.set_median(
        "cluster.placements_balanced",
        cluster(|c| c.placements_balanced as f64),
    );
    v.set_median(
        "cluster.replica_imbalance",
        cluster(|c| range_over_mean(c.replicas.iter().map(|r| r.placed as f64))),
    );
    v.set_median("cluster.peak_pending", cluster(|c| c.peak_pending as f64));
    v.set_median("cluster.migrations", cluster(|c| c.migrations as f64));
    v.set(
        "cluster.hop_ttft_ms",
        single_ttft.map_or(0.0, |single| routed_ttft - single),
    );

    let rt = |f: fn(&fi_runtime::RuntimeMetrics) -> f64| -> Vec<f64> {
        per_rep(reps, |r| f(&r.report.runtime))
    };
    v.set_median("runtime.steps", rt(|m| m.serving.steps as f64));
    v.set_median(
        "runtime.tokens_per_step",
        rt(|m| m.serving.tokens_generated as f64 / m.serving.steps.max(1) as f64),
    );
    v.set_median(
        "runtime.step_ms_mean",
        per_rep(reps, |r| {
            r.s.wall_s * 1e3 / r.report.runtime.serving.steps.max(1) as f64
        }),
    );
    v.set_median(
        "runtime.peak_queue_depth",
        rt(|m| m.peak_queue_depth as f64),
    );
    v.set_median("runtime.preemptions", rt(|m| m.serving.preemptions as f64));
    v.set_median("runtime.stream_stalls", rt(|m| m.stream_stalls as f64));
    let server_ttft = rt(|m| m.latency.ttft.p50 * 1e3);
    v.set(
        "runtime.delivery_gap_ms",
        routed_ttft - median(&server_ttft),
    );
    v.set_median("runtime.server_ttft_p50_ms", server_ttft);

    let pipe = |f: fn(&fi_serving::PipelineObservables) -> f64| -> Vec<f64> {
        per_rep(reps, |r| f(&r.report.runtime.serving.pipeline))
    };
    v.set_median("sched.plans_computed", pipe(|p| p.plans_computed as f64));
    v.set_median(
        "sched.plan_hit_rate",
        pipe(|p| p.plan_cache_hits as f64 / (p.plan_cache_hits + p.plans_computed).max(1) as f64),
    );
    v.set_median("sched.items_executed", pipe(|p| p.items_executed as f64));
    v.set_median("sched.merges", pipe(|p| p.merges as f64));
    v.set("sched.plan_miss_us", dec.plan_miss_us);
    v.set("sched.plan_hit_us", dec.plan_hit_us);
    v.set("sched.run_us", dec.run_us);
    v.set("sched.merge_us", dec.run_us - dec.kernel_us);
    v.set_median("sched.cascade_groups", pipe(|p| p.cascade_groups as f64));
    v.set_median(
        "sched.cascade_rows_saved_frac",
        pipe(|p| {
            p.cascade_gather_rows_saved as f64
                / (p.cascade_gather_rows_saved + p.gather_rows).max(1) as f64
        }),
    );
    v.set_median(
        "sched.cascade_flat_fallbacks",
        pipe(|p| p.cascade_flat_fallbacks as f64),
    );

    let tokens = reps[0].s.tokens.max(1) as f64;
    let kv_row_bytes = (2 * crate::workload::heads().kv_width() * 4) as f64;
    v.set_median(
        "core.kernel_flops_per_tok",
        pipe(|p| p.kernel_flops as f64)
            .iter()
            .map(|f| f / tokens)
            .collect(),
    );
    // Computed from tensor sizes: rows gathered times the bytes of a K row
    // and a V row.
    v.set_median(
        "core.staged_kv_bytes_per_tok",
        pipe(|p| p.gather_rows as f64)
            .iter()
            .map(|rows| rows * kv_row_bytes / tokens)
            .collect(),
    );
    v.set_median(
        "core.gather_contiguous_frac",
        pipe(|p| {
            p.gather_contiguous_runs as f64
                / (p.gather_contiguous_runs + p.gather_scattered_runs).max(1) as f64
        }),
    );
    v.set("core.decode_kernel_us", dec.kernel_us);
    v.set("core.stage_us", dec.stage_us);
    let decode_gbps = dec.staged_bytes / dec.kernel_us / 1e3;
    v.set("core.decode_gbps", decode_gbps);
    v.set(
        "core.decode_pct_of_stream",
        100.0 * decode_gbps / hostp.stream_gbps,
    );
    v.set("core.prefill_kernel_us", pre.kernel_us);
    let prefill_gflops = pre.flops / pre.kernel_us / 1e3;
    v.set("core.prefill_gflops", prefill_gflops);
    v.set(
        "core.prefill_pct_of_fma",
        100.0 * prefill_gflops / hostp.fma_gflops,
    );

    // Attribution: what the replayed calls would cost for the units of one
    // repetition, as shares of the CPU time one repetition really took.
    let own_prompts: Vec<usize> = trace
        .iter()
        .map(|t| t.req.prompt_len - spec.shared_prefix)
        .collect();
    // Prefill work in units of the replayed chunk: a prompt's last chunk is
    // usually shorter, and costs in proportion.
    let n_prefill = own_prompts.iter().sum::<usize>() as f64 / prefill_shape.qo_len as f64;
    let rows_appended = own_prompts.iter().sum::<usize>() as f64 + tokens;
    let units =
        |f: fn(&UnitTimes) -> f64| (tokens * f(&dec) + n_prefill * f(&pre)) / cpu_per_rep_us;
    let core = units(|u| u.kernel_us);
    out.attribution = vec![
        ("core", core),
        (
            "sched",
            units(|u| u.total_us() - u.page_table_us - u.to_bsr_us - u.kernel_us),
        ),
        ("sparse", units(|u| u.to_bsr_us)),
        (
            "kvcache",
            units(|u| u.page_table_us) + rows_appended * kv.append_ns / 1e3 / cpu_per_rep_us,
        ),
    ];
    let explained: f64 = out.attribution.iter().map(|(_, s)| s).sum();
    out.attribution.push(("unattributed", 1.0 - explained));
    v.set("core.busy_share", core);
    v.set("runtime.unattributed_frac", 1.0 - explained);

    v.set("kvcache.append_many_ns_per_row", kv.append_many_ns_per_row);
    v.set("kvcache.append_ns", kv.append_ns);
    v.set("kvcache.page_table_us", dec.page_table_us);
    v.set("kvcache.alloc_free_ns_per_page", kv.alloc_free_ns_per_page);
    v.set("kvcache.radix_match_us", kv.radix_match_us);
    v.set_median("kvcache.pages_total", rt(|m| m.kv_pages_total as f64));
    v.set_median(
        "kvcache.pool_drained",
        rt(|m| f64::from(m.kv_pool_drained())),
    );
    v.set("sparse.to_bsr_us", dec.to_bsr_us);
    v.set("tensor.dot_gflops", hostp.dot_gflops);
    v.set("tensor.axpy_gbps", hostp.axpy_gbps);
    v.set("gpusim.cascade_gate_ns", hostp.cascade_gate_ns);
    v.set("host.stream_gbps", hostp.stream_gbps);
    v.set("host.fma_gflops", hostp.fma_gflops);
    v.set("host.cores", host::cores() as f64);
    v.set("host.speed_factor", out.speed.factor());
    out.tracer = Some(tracer);
    out
}
