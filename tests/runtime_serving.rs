//! fi-runtime integration: a concurrent continuous-batching run over the
//! real kernels must be *bit-identical*, per request, to a sequential
//! single-request replay — across worker counts, Poisson arrival jitter,
//! chunked prefill, preemption (recompute and swap), cancellation, and
//! backpressure — while KV pages and lifecycle counters reconcile
//! exactly.

use std::sync::Arc;
use std::time::Duration;

use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel};
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{VanillaAttention, VariantParams};
use flashinfer::kvcache::paged::{PagedKvCache, PagedKvConfig};
use flashinfer::runtime::{kv_row, q_row, RequestOutcome, Runtime, RuntimeConfig, RuntimeRequest};
use flashinfer::sched::pipeline::AttentionPipeline;
use flashinfer::sched::pipeline::SchedulePolicy;
use flashinfer::sched::plan::CostModel;
use flashinfer::serving::engine::{EngineConfig, PreemptionPolicy};
use flashinfer::serving::workload::{deterministic_mix, poisson_arrivals};
use flashinfer::tensor::RaggedTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sequential oracle: replay one request alone against a fresh pool and
/// a fresh pipeline, producing its decode outputs. The runtime's decode
/// units are batch-of-one problems over the same logical rows, so the
/// concurrent run must reproduce these outputs bit-for-bit.
fn oracle_decode(cfg: &RuntimeConfig, prompt: usize, output: usize, seed: u64) -> Vec<Vec<f32>> {
    let heads = cfg.heads;
    let (kvw, qow) = (heads.kv_width(), heads.qo_width());
    let total = prompt + output;
    let mut cache = PagedKvCache::<f32>::new(PagedKvConfig {
        page_size: cfg.page_size,
        num_pages: total.div_ceil(cfg.page_size) + 2,
        num_kv_heads: heads.num_kv_heads,
        head_dim: heads.head_dim,
    })
    .unwrap();
    cache.add_request(0).unwrap();
    for pos in 0..prompt {
        cache
            .append(
                0,
                &kv_row(seed, pos, kvw, false),
                &kv_row(seed, pos, kvw, true),
            )
            .unwrap();
    }
    let mut pipeline = AttentionPipeline::new(
        FlashKernel {
            tile: cfg.tile,
            head_fusion: true,
        },
        cfg.num_ctas,
        CostModel::default(),
        SchedulePolicy::Balanced,
        flashinfer::core::arch::Arch::Hopper,
    )
    .unwrap();
    let params = VariantParams::for_head_dim(heads.head_dim);
    let variant = VanillaAttention { causal: true };
    let mut outs = Vec::with_capacity(output);
    for t in 0..output {
        let pos = prompt + t;
        let pt = cache.page_table(&[0]).unwrap();
        let layout = pt.to_bsr(&[1], cfg.tile.tq).unwrap();
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], qow);
        q.as_tensor_mut()
            .as_mut_slice()
            .copy_from_slice(&q_row(seed, pos, qow));
        let problem = AttentionProblem::standard_batch(
            &q,
            cache.k_pool(),
            cache.v_pool(),
            &layout,
            heads,
            &[pos],
        )
        .unwrap();
        pipeline
            .plan(&layout, heads.num_qo_heads, heads.head_dim)
            .unwrap();
        let out = pipeline.run(&problem, &variant, &params).unwrap();
        outs.push(out.o.seq(0).to_vec());
        cache
            .append(
                0,
                &kv_row(seed, pos, kvw, false),
                &kv_row(seed, pos, kvw, true),
            )
            .unwrap();
    }
    outs
}

/// Deterministic request mix: prompts 4..=35, outputs 3..=10 (the shared
/// `fi_serving::workload::deterministic_mix` trace).
fn request_mix(n: usize, seed0: u64) -> Vec<RuntimeRequest> {
    deterministic_mix(n, seed0)
        .into_iter()
        .map(|s| RuntimeRequest::new(s.prompt_len, s.output_len, s.seed))
        .collect()
}

fn assert_bit_identical(cfg: &RuntimeConfig, req: &RuntimeRequest, outputs: &[Vec<f32>]) {
    let expect = oracle_decode(cfg, req.prompt_len, req.output_len, req.seed);
    assert_eq!(
        outputs.len(),
        expect.len(),
        "token count for seed {}",
        req.seed
    );
    for (t, (got, want)) in outputs.iter().zip(expect.iter()).enumerate() {
        assert!(
            got == want,
            "decode token {t} of request seed {} differs from the sequential oracle",
            req.seed
        );
    }
}

#[test]
fn concurrent_poisson_serving_matches_sequential_oracle() {
    const N: usize = 72;
    const SUBMITTERS: usize = 4;
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: 4096,
            max_batch: 24,
            prefix_caching: false,
            chunked_prefill_budget: Some(32),
            optimistic_admission: true,
            preemption: PreemptionPolicy::Recompute,
        },
        queue_capacity: 2 * N,
        num_workers: 4,
        tensor_parallel: 1,
        num_ctas: 8,
        heads: HeadConfig::new(2, 1, 16).unwrap(),
        tile: TileConfig { tq: 4, tkv: 8 },
        page_size: 4,
        num_pages: 1024,
    };
    let requests = request_mix(N, 0xFEED);
    let mut rng = StdRng::seed_from_u64(41);
    let arrivals = poisson_arrivals(&mut rng, N, 4000.0); // ~0.25 ms mean gap

    let rt = Arc::new(Runtime::start(cfg.clone()).unwrap());
    let mut joins = Vec::new();
    for s in 0..SUBMITTERS {
        let rt = Arc::clone(&rt);
        let batch: Vec<(RuntimeRequest, f64)> = requests
            .iter()
            .zip(arrivals.iter())
            .skip(s)
            .step_by(SUBMITTERS)
            .map(|(r, &a)| (*r, a))
            .collect();
        joins.push(std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            batch
                .into_iter()
                .map(|(req, at)| {
                    let due = Duration::from_secs_f64(at);
                    if let Some(wait) = due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    (req, rt.submit(req))
                })
                .collect::<Vec<_>>()
        }));
    }

    let mut completed = 0;
    for j in joins {
        for (req, handle) in j.join().unwrap() {
            match handle.wait() {
                RequestOutcome::Completed(c) => {
                    assert_bit_identical(&cfg, &req, &c.outputs);
                    assert!(c.ttft > 0.0);
                    completed += 1;
                }
                other => panic!("request unexpectedly not completed: {other:?}"),
            }
        }
    }
    assert_eq!(completed, N);

    let m = Arc::try_unwrap(rt).ok().expect("sole owner").finish();
    assert_eq!(m.submitted, N as u64);
    assert_eq!(m.completed(), N as u64);
    assert!(m.reconciles(), "lifecycle counters must reconcile");
    assert!(m.kv_pool_drained(), "kv pages leaked");
    assert!(m.serving.steps > 0);
    assert!(m.serving.pipeline.kernel_flops > 0);
    assert!(m.serving.pipeline.gather_rows > 0);
    assert!(
        m.serving.pipeline.plan_cache_hits > 0,
        "decode shapes repeat; the plan cache must get hits"
    );
    assert_eq!(m.serving.ttft.len(), N);
    assert!(m.serving.ttft_summary().percentile(99.0) > 0.0);
    assert!(m.peak_queue_depth >= 1);
}

/// Pool overflow mid-decode under optimistic admission: requests are
/// preempted (recompute) and resumed, and their outputs still match the
/// oracle bit-for-bit because KV rows regenerate deterministically.
#[test]
fn preemption_recompute_is_bit_exact() {
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: 160,
            max_batch: 16,
            prefix_caching: false,
            chunked_prefill_budget: Some(64),
            optimistic_admission: true,
            preemption: PreemptionPolicy::Recompute,
        },
        queue_capacity: 64,
        num_workers: 4,
        tensor_parallel: 1,
        num_ctas: 8,
        heads: HeadConfig::new(2, 1, 16).unwrap(),
        tile: TileConfig { tq: 4, tkv: 8 },
        page_size: 4,
        num_pages: 40,
    };
    let requests: Vec<RuntimeRequest> = (0..12)
        .map(|i| RuntimeRequest::new(16, 16, 0xA000 + i))
        .collect();
    let rt = Runtime::start(cfg.clone()).unwrap();
    let handles: Vec<_> = requests.iter().map(|r| (*r, rt.submit(*r))).collect();
    for (req, h) in handles {
        let c = h.wait().completed().expect("completes despite preemption");
        assert_bit_identical(&cfg, &req, &c.outputs);
    }
    let m = rt.finish();
    assert!(
        m.serving.preemptions > 0,
        "12 x 32 tokens against a 160-token budget must preempt"
    );
    assert_eq!(m.completed(), 12);
    assert!(m.reconciles());
    assert!(m.kv_pool_drained());
    assert_eq!(m.swap_outs, 0, "recompute policy must not swap");
}

/// Same overflow with the Swap policy: evicted KV rows are copied out
/// and restored on resume instead of recomputed.
#[test]
fn preemption_swap_is_bit_exact() {
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: 160,
            max_batch: 16,
            prefix_caching: false,
            chunked_prefill_budget: Some(64),
            optimistic_admission: true,
            preemption: PreemptionPolicy::Swap,
        },
        queue_capacity: 64,
        num_workers: 4,
        tensor_parallel: 1,
        num_ctas: 8,
        heads: HeadConfig::new(2, 1, 16).unwrap(),
        tile: TileConfig { tq: 4, tkv: 8 },
        page_size: 4,
        num_pages: 40,
    };
    let requests: Vec<RuntimeRequest> = (0..12)
        .map(|i| RuntimeRequest::new(16, 16, 0xB000 + i))
        .collect();
    let rt = Runtime::start(cfg.clone()).unwrap();
    let handles: Vec<_> = requests.iter().map(|r| (*r, rt.submit(*r))).collect();
    for (req, h) in handles {
        let c = h
            .wait()
            .completed()
            .expect("completes despite swap preemption");
        assert_bit_identical(&cfg, &req, &c.outputs);
    }
    let m = rt.finish();
    assert!(m.serving.preemptions > 0);
    assert!(m.swap_outs > 0, "swap policy must swap out decode victims");
    assert!(m.swap_ins > 0, "swapped requests must be restored");
    assert_eq!(m.completed(), 12);
    assert!(m.reconciles());
    assert!(m.kv_pool_drained());
}

/// Cancellation and deadlines terminate in-flight requests, free their
/// pages, and still deliver exactly one outcome each.
#[test]
fn cancellation_and_deadlines_free_pages_and_reconcile() {
    let cfg = RuntimeConfig {
        num_workers: 4,
        tensor_parallel: 1,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::start(cfg).unwrap();
    // Long decodes that will be interrupted: each fits the pool alone
    // (16 + 2000 <= 2048 capacity, so admission does not reject them as
    // oversize) but takes far longer than the cancel/deadline window.
    let doomed: Vec<_> = (0..4)
        .map(|i| rt.submit(RuntimeRequest::new(16, 2000, 0xC000 + i)))
        .collect();
    // Deadline shorter than the decode could ever take.
    let timed: Vec<_> = (0..2)
        .map(|i| {
            rt.submit(
                RuntimeRequest::new(16, 2000, 0xD000 + i).with_deadline(Duration::from_millis(40)),
            )
        })
        .collect();
    // A short request that should complete normally alongside them.
    let ok = rt.submit(RuntimeRequest::new(8, 4, 0xE000));
    std::thread::sleep(Duration::from_millis(20));
    for h in &doomed {
        h.cancel();
    }
    for h in doomed {
        match h.wait() {
            RequestOutcome::Cancelled(_) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }
    for h in timed {
        match h.wait() {
            RequestOutcome::Cancelled(_) => {}
            other => panic!("expected deadline cancellation, got {other:?}"),
        }
    }
    assert!(ok.wait().is_completed());
    let m = rt.finish();
    assert_eq!(m.submitted, 7);
    assert_eq!(m.completed(), 1);
    assert_eq!(m.cancelled, 6);
    assert!(m.reconciles());
    assert!(
        m.kv_pool_drained(),
        "cancelled requests must free their pages"
    );
}

/// A full bounded queue rejects at submission (backpressure) and the
/// rejections reconcile exactly with completions.
#[test]
fn queue_backpressure_rejects_and_reconciles() {
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            chunked_prefill_budget: Some(16),
            ..RuntimeConfig::default().engine
        },
        queue_capacity: 2,
        num_workers: 4,
        tensor_parallel: 1,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::start(cfg).unwrap();
    // A long prefill keeps the scheduler inside steps while the burst
    // lands, so the 2-deep queue fills.
    let burst: Vec<_> = (0..64)
        .map(|i| rt.submit(RuntimeRequest::new(512, 2, 0xF000 + i)))
        .collect();
    let mut completed = 0;
    let mut rejected = 0;
    for h in burst {
        match h.wait() {
            RequestOutcome::Completed(_) => completed += 1,
            RequestOutcome::Rejected(_) => rejected += 1,
            RequestOutcome::Cancelled(r) => panic!("unexpected cancellation: {r:?}"),
        }
    }
    let m = rt.finish();
    assert!(rejected > 0, "a 2-deep queue under a 64-burst must reject");
    assert_eq!(m.completed(), completed);
    assert_eq!(m.rejected, rejected);
    assert_eq!(m.submitted, 64);
    assert!(m.reconciles());
    assert!(m.kv_pool_drained());
    assert!(
        m.peak_queue_depth <= 3,
        "queue depth is bounded by capacity"
    );
}

/// Repeated-seed smoke (the CI loop): the full stack stays bit-exact and
/// leak-free across independent runs with different mixes.
#[test]
fn repeated_seed_smoke() {
    for seed in [1u64, 2, 3] {
        let cfg = RuntimeConfig {
            engine: EngineConfig {
                kv_capacity_tokens: 512,
                max_batch: 8,
                prefix_caching: false,
                chunked_prefill_budget: Some(24),
                optimistic_admission: true,
                preemption: if seed % 2 == 0 {
                    PreemptionPolicy::Swap
                } else {
                    PreemptionPolicy::Recompute
                },
            },
            queue_capacity: 32,
            num_workers: 2 + (seed as usize % 3),
            tensor_parallel: 1,
            num_ctas: 8,
            heads: HeadConfig::new(2, 1, 16).unwrap(),
            tile: TileConfig { tq: 4, tkv: 8 },
            page_size: 4,
            num_pages: 128,
        };
        let requests = request_mix(16, seed);
        let rt = Runtime::start(cfg.clone()).unwrap();
        let handles: Vec<_> = requests.iter().map(|r| (*r, rt.submit(*r))).collect();
        for (req, h) in handles {
            let c = h.wait().completed().expect("smoke request completes");
            assert_bit_identical(&cfg, &req, &c.outputs);
        }
        let m = rt.finish();
        assert_eq!(m.completed(), 16);
        assert!(m.reconciles());
        assert!(m.kv_pool_drained());
    }
}

/// Tensor-parallel serving gate: the same concurrent mix through the
/// sharded worker-pool mode (every logical worker a tp-group of rank
/// threads over the head-sharded KV pool) must reproduce the sequential
/// full-width oracle bit-for-bit, while the collective byte counters
/// surface in the final metrics.
#[test]
fn tensor_parallel_serving_is_bit_exact() {
    const N: usize = 24;
    for (tp, heads) in [
        (2usize, HeadConfig::new(4, 2, 16).unwrap()),
        (4, HeadConfig::new(8, 4, 16).unwrap()),
    ] {
        let cfg = RuntimeConfig {
            engine: EngineConfig {
                kv_capacity_tokens: 2048,
                max_batch: 16,
                prefix_caching: false,
                chunked_prefill_budget: Some(24),
                optimistic_admission: true,
                preemption: PreemptionPolicy::Recompute,
            },
            queue_capacity: 2 * N,
            num_workers: 2,
            tensor_parallel: tp,
            num_ctas: 4,
            heads,
            tile: TileConfig { tq: 4, tkv: 8 },
            page_size: 4,
            num_pages: 512,
        };
        let requests = request_mix(N, 0xD157 + tp as u64);
        let rt = Arc::new(Runtime::start(cfg.clone()).unwrap());
        let mut joins = Vec::new();
        for s in 0..3usize {
            let rt = Arc::clone(&rt);
            let batch: Vec<RuntimeRequest> = requests.iter().skip(s).step_by(3).copied().collect();
            joins.push(std::thread::spawn(move || {
                batch
                    .into_iter()
                    .map(|req| (req, rt.submit(req)))
                    .collect::<Vec<_>>()
            }));
        }
        let mut completed = 0;
        for j in joins {
            for (req, handle) in j.join().unwrap() {
                let c = handle.wait().completed().expect("tp request completes");
                assert_bit_identical(&cfg, &req, &c.outputs);
                completed += 1;
            }
        }
        assert_eq!(completed, N);

        let m = Arc::try_unwrap(rt).ok().expect("sole owner").finish();
        assert_eq!(m.completed(), N as u64);
        assert!(m.reconciles());
        assert!(m.kv_pool_drained(), "sharded pool leaked pages at tp={tp}");
        assert_eq!(m.tensor_parallel, tp);
        assert!(
            m.comm.all_gathers > 0,
            "tp={tp} workers must gather outputs"
        );
        assert!(m.comm.total_bytes() > 0, "tp={tp} moved no bytes?");
        assert!(m.serving.pipeline.kernel_flops > 0);
    }
}
