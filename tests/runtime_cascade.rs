//! Auto-cascade serving gate: shared-prefix sessions served by the live
//! runtime — radix-tracked prefix storage, per-step decode grouping, and
//! two-level cascade execution — must be *bit-identical*, per request, to
//! a sequential two-level oracle replaying one session at a time against
//! a fresh pool. Grouping is pure staging: whether a step fused 64
//! sharers or ran them alone must never show up in any output bit.

use std::sync::Arc;
use std::time::Duration;

use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{VanillaAttention, VariantParams};
use flashinfer::kvcache::paged::{PagedKvCache, PagedKvConfig};
use flashinfer::runtime::{
    effective_prefix_len, kv_row, q_row, CascadeMode, RequestOutcome, Runtime, RuntimeConfig,
    RuntimeOptions, RuntimeRequest,
};
use flashinfer::sched::pipeline::AttentionPipeline;
use flashinfer::sched::pipeline::SchedulePolicy;
use flashinfer::sched::plan::CostModel;
use flashinfer::sched::CascadeDecodeGroup;
use flashinfer::serving::engine::{EngineConfig, PreemptionPolicy};
use flashinfer::serving::workload::poisson_arrivals;
use flashinfer::tensor::RaggedTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pipeline(cfg: &RuntimeConfig) -> AttentionPipeline {
    AttentionPipeline::new(
        FlashKernel {
            tile: cfg.tile,
            head_fusion: true,
        },
        cfg.num_ctas,
        CostModel::default(),
        SchedulePolicy::Balanced,
        flashinfer::core::arch::Arch::Hopper,
    )
    .unwrap()
}

/// Two-level sequential oracle: replay one shared-prefix session alone —
/// prefix rows under an owner request, own rows under the session's —
/// decoding every token through a single-member [`CascadeDecodeGroup`].
/// The runtime executes prefix decodes through the same group executor
/// (fused or not), whose layouts make planner chunking independent of
/// group width, so the concurrent run must reproduce these bits exactly.
fn cascade_oracle_decode(cfg: &RuntimeConfig, req: &RuntimeRequest) -> Vec<Vec<f32>> {
    let p = req.prefix.expect("oracle is for prefix requests");
    let plen = effective_prefix_len(p.len, req.prompt_len, cfg.page_size);
    assert!(plen > 0, "workload should keep an effective prefix");
    let heads = cfg.heads;
    let (kvw, qow) = (heads.kv_width(), heads.qo_width());
    let total = req.prompt_len + req.output_len;
    let mut cache = PagedKvCache::<f32>::new(PagedKvConfig {
        page_size: cfg.page_size,
        num_pages: total.div_ceil(cfg.page_size) + 4,
        num_kv_heads: heads.num_kv_heads,
        head_dim: heads.head_dim,
    })
    .unwrap();
    // Owner request: the shared prefix, stored once, positions 0..plen of
    // the prefix stream.
    cache.add_request(0).unwrap();
    for pos in 0..plen {
        cache
            .append(
                0,
                &kv_row(p.seed, pos, kvw, false),
                &kv_row(p.seed, pos, kvw, true),
            )
            .unwrap();
    }
    // The session's own rows: global positions plen..prompt.
    cache.add_request(1).unwrap();
    for pos in plen..req.prompt_len {
        cache
            .append(
                1,
                &kv_row(req.seed, pos, kvw, false),
                &kv_row(req.seed, pos, kvw, true),
            )
            .unwrap();
    }
    let mut pipe = pipeline(cfg);
    let params = VariantParams::for_head_dim(heads.head_dim);
    let variant = VanillaAttention { causal: true };
    let mut outs = Vec::with_capacity(req.output_len);
    for t in 0..req.output_len {
        let pos = req.prompt_len + t;
        let owner_pt = cache.page_table(&[0]).unwrap();
        let own_pt = cache.page_table(&[1]).unwrap();
        let group =
            CascadeDecodeGroup::from_page_tables(&owner_pt, std::slice::from_ref(&own_pt), plen)
                .unwrap();
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], qow);
        q.as_tensor_mut()
            .as_mut_slice()
            .copy_from_slice(&q_row(req.seed, pos, qow));
        let meta = [RowMeta {
            batch_idx: 0,
            qo_pos: 0,
            qo_len: 1,
            kv_len: pos,
        }];
        let out = group
            .run(
                &mut pipe,
                &q,
                cache.k_pool(),
                cache.v_pool(),
                heads,
                &meta,
                &variant,
                &params,
                None,
            )
            .unwrap();
        outs.push(out.o.seq(0).to_vec());
        cache
            .append(
                1,
                &kv_row(req.seed, pos, kvw, false),
                &kv_row(req.seed, pos, kvw, true),
            )
            .unwrap();
    }
    outs
}

/// Flat single-level oracle for plain requests (same as the
/// runtime_serving gate's).
fn flat_oracle_decode(
    cfg: &RuntimeConfig,
    prompt: usize,
    output: usize,
    seed: u64,
) -> Vec<Vec<f32>> {
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
    let mut pipe = pipeline(cfg);
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
        pipe.plan(&layout, heads.num_qo_heads, heads.head_dim)
            .unwrap();
        outs.push(
            pipe.run(&problem, &variant, &params)
                .unwrap()
                .o
                .seq(0)
                .to_vec(),
        );
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

fn assert_matches_oracle(cfg: &RuntimeConfig, req: &RuntimeRequest, outputs: &[Vec<f32>]) {
    let expect = if req.prefix.is_some() {
        cascade_oracle_decode(cfg, req)
    } else {
        flat_oracle_decode(cfg, req.prompt_len, req.output_len, req.seed)
    };
    assert_eq!(
        outputs.len(),
        expect.len(),
        "token count, seed {}",
        req.seed
    );
    for (t, (got, want)) in outputs.iter().zip(expect.iter()).enumerate() {
        assert!(
            got == want,
            "decode token {t} of seed {} differs from the two-level oracle",
            req.seed
        );
    }
}

const PREFIX_SEED: u64 = 0xCAFE;

/// One shared 64-token system prompt, `n` sessions with distinct tails.
fn sessions(n: usize, seed0: u64) -> Vec<RuntimeRequest> {
    (0..n)
        .map(|i| {
            let prompt = 64 + 4 + (i % 8);
            let output = 4 + (i % 5);
            RuntimeRequest::new(prompt, output, seed0 + i as u64)
                .with_shared_prefix(PREFIX_SEED, 64)
        })
        .collect()
}

/// The headline gate: 64 sessions over one shared prompt, Poisson
/// arrival jitter, 4 submitter threads, 4 workers — every session's
/// decode stream bit-identical to the sequential two-level oracle, the
/// prefix stored once, groups actually fused, pages fully drained.
#[test]
fn auto_cascade_poisson_serving_matches_two_level_oracle() {
    const N: usize = 64;
    const SUBMITTERS: usize = 4;
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: 4096,
            max_batch: 24,
            prefix_caching: false,
            chunked_prefill_budget: Some(48),
            optimistic_admission: true,
            preemption: PreemptionPolicy::Recompute,
        },
        queue_capacity: 2 * N,
        num_workers: 4,
        tensor_parallel: 1,
        num_ctas: 8,
        heads: HeadConfig::new(4, 2, 16).unwrap(),
        tile: TileConfig { tq: 4, tkv: 8 },
        page_size: 4,
        num_pages: 1024,
    };
    let requests = sessions(N, 0x5000);
    let mut rng = StdRng::seed_from_u64(17);
    let arrivals = poisson_arrivals(&mut rng, N, 4000.0);

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
                    assert_matches_oracle(&cfg, &req, &c.outputs);
                    completed += 1;
                }
                other => panic!("session unexpectedly not completed: {other:?}"),
            }
        }
    }
    assert_eq!(completed, N);

    let m = Arc::try_unwrap(rt).ok().expect("sole owner").finish();
    assert_eq!(m.completed(), N as u64);
    assert!(m.reconciles());
    assert!(m.kv_pool_drained(), "prefix owner pages must drain");
    let pipe = &m.serving.pipeline;
    assert!(
        pipe.cascade_groups > 0,
        "64 sessions on one prompt must fuse at least one group"
    );
    assert_eq!(
        pipe.cascade_levels,
        2 * pipe.cascade_groups,
        "two-level groups"
    );
    assert!(
        pipe.cascade_gather_rows_saved > 0,
        "fused groups must stage the prefix once, not per member"
    );
}

/// Mixed traffic: two distinct shared prefixes plus plain requests in one
/// run — grouping keys by radix node, plain decodes stay on the flat
/// batch-of-one path, and every stream matches its own oracle bitwise.
#[test]
fn mixed_prefix_and_plain_traffic_is_bit_exact() {
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: 2048,
            max_batch: 20,
            prefix_caching: false,
            chunked_prefill_budget: Some(32),
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
        num_pages: 512,
    };
    let mut requests = Vec::new();
    for i in 0..6u64 {
        requests.push(RuntimeRequest::new(40 + i as usize, 6, 0x100 + i).with_shared_prefix(1, 32));
        requests.push(RuntimeRequest::new(28, 5, 0x200 + i).with_shared_prefix(2, 24));
        requests.push(RuntimeRequest::new(10 + i as usize, 4, 0x300 + i));
    }
    let rt = Runtime::start(cfg.clone()).unwrap();
    let handles: Vec<_> = requests.iter().map(|r| (*r, rt.submit(*r))).collect();
    for (req, h) in handles {
        let c = h.wait().completed().expect("completes");
        assert_matches_oracle(&cfg, &req, &c.outputs);
    }
    let m = rt.finish();
    assert_eq!(m.completed(), 18);
    assert!(m.reconciles());
    assert!(m.kv_pool_drained());
}

/// KV pressure: a pool far too small for the working set forces
/// preemption (both policies) around live cascade groups — outputs stay
/// bit-exact because own rows recompute/swap past the still-resident
/// prefix, whose radix lock pins it for each session's whole lifetime.
#[test]
fn prefix_sessions_survive_preemption_bit_exact() {
    for policy in [PreemptionPolicy::Recompute, PreemptionPolicy::Swap] {
        let cfg = RuntimeConfig {
            engine: EngineConfig {
                kv_capacity_tokens: 160,
                max_batch: 16,
                prefix_caching: false,
                chunked_prefill_budget: Some(32),
                optimistic_admission: true,
                preemption: policy,
            },
            queue_capacity: 64,
            num_workers: 4,
            tensor_parallel: 1,
            num_ctas: 8,
            heads: HeadConfig::new(2, 1, 16).unwrap(),
            tile: TileConfig { tq: 4, tkv: 8 },
            page_size: 4,
            num_pages: 64,
        };
        let requests: Vec<RuntimeRequest> = (0..10)
            .map(|i| RuntimeRequest::new(40, 14, 0x7000 + i).with_shared_prefix(5, 32))
            .collect();
        let rt = Runtime::start(cfg.clone()).unwrap();
        let handles: Vec<_> = requests.iter().map(|r| (*r, rt.submit(*r))).collect();
        for (req, h) in handles {
            let c = h.wait().completed().expect("completes despite preemption");
            assert_matches_oracle(&cfg, &req, &c.outputs);
        }
        let m = rt.finish();
        assert!(
            m.serving.preemptions > 0,
            "10 x 54 tokens against a 160-token budget must preempt ({policy:?})"
        );
        assert_eq!(m.completed(), 10);
        assert!(m.reconciles());
        assert!(m.kv_pool_drained());
    }
}

/// `CascadeMode::Off` pins the flat lowering (single-member cascades):
/// zero fused groups, yet outputs still match the same two-level oracle
/// bitwise — direct evidence that fusing is invisible to results.
#[test]
fn cascade_off_matches_the_same_oracle() {
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: 2048,
            max_batch: 16,
            prefix_caching: false,
            chunked_prefill_budget: Some(48),
            optimistic_admission: true,
            preemption: PreemptionPolicy::Recompute,
        },
        queue_capacity: 64,
        num_workers: 4,
        tensor_parallel: 1,
        num_ctas: 8,
        heads: HeadConfig::new(4, 2, 16).unwrap(),
        tile: TileConfig { tq: 4, tkv: 8 },
        page_size: 4,
        num_pages: 512,
    };
    let requests = sessions(12, 0x9000);
    let opts = RuntimeOptions {
        cascade: CascadeMode::Off,
        ..RuntimeOptions::default()
    };
    let rt = Runtime::start_with(cfg.clone(), opts).unwrap();
    let handles: Vec<_> = requests.iter().map(|r| (*r, rt.submit(*r))).collect();
    for (req, h) in handles {
        let c = h.wait().completed().expect("completes");
        assert_matches_oracle(&cfg, &req, &c.outputs);
    }
    let m = rt.finish();
    assert_eq!(m.completed(), 12);
    assert!(m.kv_pool_drained());
    assert_eq!(m.serving.pipeline.cascade_groups, 0, "Off must never fuse");
}
