//! Reduced-precision KV modes end to end: a runtime storing its KV arena
//! at f16 or fp8 (e4m3) must track the full-precision sequential oracle
//! within documented bounds, stay deterministic run to run (narrowing is
//! a pure function of the row values, and swap round-trips are
//! idempotent at storage precision), and survive swap preemption.
//!
//! Tolerance bounds, derived from the element formats over this
//! workload's KV values (|x| <= ~0.5 from `kv_row`, softmax-averaged by
//! the kernel):
//! - f16: 11 significand bits, relative step 2^-11 per element. Bound:
//!   `allclose(rtol=2e-2, atol=2e-3)` — two orders of magnitude of
//!   headroom for accumulation across kv_len.
//! - fp8 e4m3: 3 significand bits, relative step 2^-3 per element.
//!   Bound: `allclose(rtol=0.15, atol=0.02)` plus cosine similarity
//!   > 0.99 against the oracle row.

use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel};
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{VanillaAttention, VariantParams};
use flashinfer::kvcache::paged::{PagedKvCache, PagedKvConfig};
use flashinfer::runtime::{
    kv_row, q_row, KvPrecision, Runtime, RuntimeConfig, RuntimeOptions, RuntimeRequest,
};
use flashinfer::sched::pipeline::AttentionPipeline;
use flashinfer::sched::pipeline::SchedulePolicy;
use flashinfer::sched::plan::CostModel;
use flashinfer::serving::engine::{EngineConfig, PreemptionPolicy};
use flashinfer::tensor::numerics::allclose;
use flashinfer::tensor::{KvDtype, RaggedTensor};

fn base_cfg() -> RuntimeConfig {
    RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: 2048,
            max_batch: 16,
            prefix_caching: false,
            chunked_prefill_budget: Some(32),
            optimistic_admission: true,
            preemption: PreemptionPolicy::Recompute,
        },
        queue_capacity: 64,
        num_workers: 2,
        tensor_parallel: 1,
        num_ctas: 8,
        heads: HeadConfig::new(2, 1, 16).unwrap(),
        tile: TileConfig { tq: 4, tkv: 8 },
        page_size: 4,
        num_pages: 512,
    }
}

/// Full-precision sequential replay of one request (same oracle as
/// `tests/runtime_serving.rs`).
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

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum();
    let na: f64 = a.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|&y| (y as f64).powi(2)).sum::<f64>().sqrt();
    dot / (na * nb).max(f64::MIN_POSITIVE)
}

/// Run a request mix at the given precision and return each request's
/// decode outputs (requests are deterministic functions of their seed).
fn run_mix(
    cfg: &RuntimeConfig,
    precision: KvPrecision,
    reqs: &[RuntimeRequest],
) -> Vec<Vec<Vec<f32>>> {
    let opts = RuntimeOptions {
        precision,
        ..RuntimeOptions::default()
    };
    let rt = Runtime::start_with(cfg.clone(), opts).unwrap();
    let handles: Vec<_> = reqs.iter().map(|r| rt.submit(*r)).collect();
    let outs = handles
        .into_iter()
        .map(|h| h.wait().completed().expect("completes").outputs)
        .collect();
    let m = rt.finish();
    assert!(m.reconciles());
    assert!(m.kv_pool_drained());
    outs
}

fn mix() -> Vec<RuntimeRequest> {
    (0..6)
        .map(|i| RuntimeRequest::new(5 + 3 * i, 4 + i, 0xD000 + i as u64))
        .collect()
}

#[test]
fn f16_kv_tracks_f32_oracle_within_documented_bounds() {
    let cfg = base_cfg();
    let reqs = mix();
    let outs = run_mix(&cfg, KvPrecision::of(KvDtype::F16), &reqs);
    for (req, toks) in reqs.iter().zip(&outs) {
        let expect = oracle_decode(&cfg, req.prompt_len, req.output_len, req.seed);
        assert_eq!(toks.len(), expect.len());
        for (t, (got, want)) in toks.iter().zip(&expect).enumerate() {
            assert!(
                allclose(got, want, 2e-2, 2e-3),
                "f16 token {t} of seed {} outside bounds",
                req.seed
            );
        }
    }
}

#[test]
fn fp8_kv_tracks_f32_oracle_within_documented_bounds() {
    let cfg = base_cfg();
    let reqs = mix();
    let p = KvPrecision {
        dtype: KvDtype::Fp8E4M3,
        fp8_kv_scale: 0.5,
    };
    let outs = run_mix(&cfg, p, &reqs);
    for (req, toks) in reqs.iter().zip(&outs) {
        let expect = oracle_decode(&cfg, req.prompt_len, req.output_len, req.seed);
        assert_eq!(toks.len(), expect.len());
        for (t, (got, want)) in toks.iter().zip(&expect).enumerate() {
            assert!(
                allclose(got, want, 0.15, 0.02),
                "fp8 token {t} of seed {} outside bounds",
                req.seed
            );
            assert!(
                cosine(got, want) > 0.99,
                "fp8 token {t} of seed {} decorrelated from oracle",
                req.seed
            );
        }
    }
}

/// Narrowing is a pure function of the row values and the per-head
/// scales, so two runs of the same workload at the same precision are
/// bit-identical even though the arithmetic is approximate.
#[test]
fn reduced_precision_runs_are_deterministic() {
    let cfg = base_cfg();
    let reqs = mix();
    for p in [
        KvPrecision::of(KvDtype::F16),
        KvPrecision {
            dtype: KvDtype::Fp8E4M3,
            fp8_kv_scale: 0.5,
        },
    ] {
        let a = run_mix(&cfg, p, &reqs);
        let b = run_mix(&cfg, p, &reqs);
        assert_eq!(a, b, "{:?} runs must be bit-identical", p.dtype);
    }
}

/// Swap preemption at reduced precision: evicted rows are widened to f32
/// on swap-out and re-narrowed on swap-in. Re-narrowing a value that was
/// itself produced by widening is idempotent, so the restored arena is
/// bit-identical to the evicted one and outputs stay inside the same
/// bounds as the no-preemption runs.
#[test]
fn swap_preemption_round_trips_at_reduced_precision() {
    let mut cfg = base_cfg();
    cfg.engine.kv_capacity_tokens = 160;
    cfg.engine.preemption = PreemptionPolicy::Swap;
    cfg.num_pages = 40;
    let reqs: Vec<RuntimeRequest> = (0..10)
        .map(|i| RuntimeRequest::new(16, 16, 0xE000 + i))
        .collect();
    for (p, rtol, atol) in [
        (KvPrecision::of(KvDtype::F16), 2e-2, 2e-3),
        (
            KvPrecision {
                dtype: KvDtype::Fp8E4M3,
                fp8_kv_scale: 0.5,
            },
            0.15,
            0.02,
        ),
    ] {
        let opts = RuntimeOptions {
            precision: p,
            ..RuntimeOptions::default()
        };
        let rt = Runtime::start_with(cfg.clone(), opts).unwrap();
        let handles: Vec<_> = reqs.iter().map(|r| (*r, rt.submit(*r))).collect();
        for (req, h) in handles {
            let c = h.wait().completed().expect("completes despite preemption");
            let expect = oracle_decode(&cfg, req.prompt_len, req.output_len, req.seed);
            for (t, (got, want)) in c.outputs.iter().zip(&expect).enumerate() {
                assert!(
                    allclose(got, want, rtol, atol),
                    "{:?} token {t} of seed {} outside bounds after preemption",
                    p.dtype,
                    req.seed
                );
            }
        }
        let m = rt.finish();
        assert!(m.serving.preemptions > 0, "pool pressure must preempt");
        assert!(m.reconciles());
        assert!(m.kv_pool_drained());
    }
}
