//! Cross-crate integration: paged KV-cache (fi-kvcache) → block-sparse
//! layout (fi-sparse) → scheduled plan/run (fi-sched) → numeric equality
//! with the naive reference (fi-core), across variants and precisions.

#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]
use flashinfer::core::arch::Arch;
use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel};
use flashinfer::core::reference::reference_attention;
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{
    AttentionVariant, SigmoidAttention, SlidingWindowAttention, SoftCapAttention, VanillaAttention,
    VariantParams,
};
use flashinfer::kvcache::paged::{PagedKvCache, PagedKvConfig};
use flashinfer::sched::pipeline::{AttentionPipeline, SchedulePolicy};
use flashinfer::sched::plan::CostModel;
use flashinfer::sched::workspace::{Workspace, WorkspaceLayout};
use flashinfer::tensor::numerics::allclose;
use flashinfer::tensor::{RaggedTensor, Scalar, F16};

fn mix(i: usize, salt: u64) -> f32 {
    let x = (i as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(salt);
    ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
}

/// Build a populated paged cache + ragged queries for a batch.
fn build_case<T: Scalar>(
    heads: HeadConfig,
    kv_lens: &[usize],
    qo_lens: &[usize],
    page_size: usize,
) -> (PagedKvCache<T>, RaggedTensor<f32>, Vec<u64>) {
    let total: usize = kv_lens.iter().sum();
    let cfg = PagedKvConfig {
        page_size,
        num_pages: total.div_ceil(page_size) + kv_lens.len() + 4,
        num_kv_heads: heads.num_kv_heads,
        head_dim: heads.head_dim,
    };
    let mut cache = PagedKvCache::<T>::new(cfg).unwrap();
    let ids: Vec<u64> = (0..kv_lens.len() as u64).collect();
    for (b, &id) in ids.iter().enumerate() {
        cache.add_request(id).unwrap();
        for pos in 0..kv_lens[b] {
            let k: Vec<T> = (0..cfg.row_width())
                .map(|j| T::from_f32(mix(b * 100_000 + pos * 97 + j, 1)))
                .collect();
            let v: Vec<T> = (0..cfg.row_width())
                .map(|j| T::from_f32(mix(b * 100_000 + pos * 97 + j, 2)))
                .collect();
            cache.append(id, &k, &v).unwrap();
        }
    }
    let mut q = RaggedTensor::<f32>::from_seq_lens(qo_lens, heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = mix(i, 3);
    }
    (cache, q, ids)
}

/// Gather a request's K or V rows in sequence order (for the reference).
fn gather<T: Scalar>(
    cache: &PagedKvCache<T>,
    ids: &[u64],
    b: usize,
    len: usize,
    value: bool,
) -> Vec<T> {
    let pt = cache.page_table(ids).unwrap();
    (0..len)
        .flat_map(|pos| {
            let s = pt.slot_of(b, pos);
            if value {
                cache.v_slot(s).to_vec()
            } else {
                cache.k_slot(s).to_vec()
            }
        })
        .collect()
}

fn run_pipeline<T: Scalar>(
    heads: HeadConfig,
    kv_lens: &[usize],
    qo_lens: &[usize],
    variant: &dyn AttentionVariant,
    params: &VariantParams,
    policy: SchedulePolicy,
    tile: TileConfig,
    tol: f32,
) {
    let (cache, q, ids) = build_case::<T>(heads, kv_lens, qo_lens, 4);
    let pt = cache.page_table(&ids).unwrap();
    let layout = pt.to_bsr(qo_lens, tile.tq).unwrap();
    let problem = AttentionProblem::standard_batch(
        &q,
        cache.k_pool(),
        cache.v_pool(),
        &layout,
        heads,
        kv_lens,
    )
    .unwrap();
    let ws = Workspace::allocate(WorkspaceLayout::compute(
        tile.tq,
        heads.num_qo_heads,
        heads.head_dim,
        24,
        1 << 14,
    ));
    let mut handler = AttentionPipeline::with_workspace(
        FlashKernel {
            tile,
            head_fusion: true,
        },
        24,
        CostModel::default(),
        policy,
        Arch::Ampere,
        ws,
    )
    .unwrap();
    handler
        .plan(&layout, heads.num_qo_heads, heads.head_dim)
        .unwrap();
    let out = handler.run(&problem, variant, params).unwrap();

    for b in 0..kv_lens.len() {
        let k = gather(&cache, &ids, b, kv_lens[b], false);
        let v = gather(&cache, &ids, b, kv_lens[b], true);
        let r = reference_attention(variant, params, heads, b, q.seq(b), &k, &v);
        assert!(
            allclose(out.o.seq(b), &r.o, tol, tol / 10.0),
            "request {b} mismatch for {} under {:?}",
            variant.name(),
            policy
        );
    }
}

#[test]
fn paged_scheduled_vanilla_matches_reference() {
    let heads = HeadConfig::new(4, 2, 16).unwrap();
    let params = VariantParams::for_head_dim(16);
    run_pipeline::<f32>(
        heads,
        &[67, 3, 29, 128],
        &[1, 1, 1, 1],
        &VanillaAttention { causal: true },
        &params,
        SchedulePolicy::Balanced,
        TileConfig { tq: 1, tkv: 16 },
        1e-4,
    );
}

#[test]
fn paged_scheduled_prefill_matches_reference() {
    let heads = HeadConfig::new(2, 1, 16).unwrap();
    let params = VariantParams::for_head_dim(16);
    run_pipeline::<f32>(
        heads,
        &[40, 12],
        &[8, 12],
        &VanillaAttention { causal: true },
        &params,
        SchedulePolicy::Balanced,
        TileConfig { tq: 4, tkv: 8 },
        1e-4,
    );
}

#[test]
fn every_variant_through_the_full_stack() {
    let heads = HeadConfig::new(4, 2, 16).unwrap();
    let base = VariantParams::for_head_dim(16);
    let variants: Vec<(Box<dyn AttentionVariant>, VariantParams)> = vec![
        (Box::new(VanillaAttention { causal: true }), base.clone()),
        (Box::new(VanillaAttention { causal: false }), base.clone()),
        (
            Box::new(SlidingWindowAttention {
                window: 16,
                sink_tokens: 4,
            }),
            base.clone(),
        ),
        (Box::new(SoftCapAttention { cap: 20.0 }), base.clone()),
        (
            Box::new(SigmoidAttention),
            base.clone().with_extra("bias", -0.5),
        ),
    ];
    for (v, p) in variants {
        run_pipeline::<f32>(
            heads,
            &[50, 9],
            &[2, 1],
            v.as_ref(),
            &p,
            SchedulePolicy::Balanced,
            TileConfig { tq: 2, tkv: 8 },
            2e-4,
        );
    }
}

#[test]
fn naive_policy_same_numerics() {
    let heads = HeadConfig::new(2, 2, 16).unwrap();
    let params = VariantParams::for_head_dim(16);
    run_pipeline::<f32>(
        heads,
        &[80, 5, 33],
        &[1, 1, 1],
        &VanillaAttention { causal: true },
        &params,
        SchedulePolicy::Naive,
        TileConfig { tq: 1, tkv: 32 },
        1e-4,
    );
}

#[test]
fn f16_kv_cache_full_stack() {
    let heads = HeadConfig::new(2, 1, 16).unwrap();
    let params = VariantParams::for_head_dim(16);
    // The reference path also reads the f16-rounded cache, so the
    // comparison isolates the pipeline (tolerance covers accumulation
    // order only).
    run_pipeline::<F16>(
        heads,
        &[60, 21],
        &[1, 1],
        &VanillaAttention { causal: true },
        &params,
        SchedulePolicy::Balanced,
        TileConfig { tq: 1, tkv: 8 },
        5e-4,
    );
}
