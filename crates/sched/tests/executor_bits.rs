//! The executors pinned, bit for bit, to a reference executor written out
//! below from public pieces only — the counterpart, one layer up, of
//! `crates/core/tests/block_kernel_bits.rs`.
//!
//! The reference runs each plan item through
//! `FlashKernel::run_block_row_chunk_scratch`, takes the chunk's states as
//! owned values with `KernelScratch::states`, and composes them with a ⊕
//! written out here: a split tile by `tree_reduce` over its chunks in
//! ascending order (`AttentionPipeline::run`), a cascade as one running left
//! fold per `(row, head)` — levels in order, within a level the tile's chunks
//! in ascending order (`CascadeAttention::run`, `CascadeDecodeGroup::run`).
//! It applies `output_transform` itself. Every output bit, every LSE and
//! every `KernelStats` field of a launch must equal the reference's.
//!
//! Both sides go through the same dispatched `numerics` kernels, so the
//! comparison holds on whatever arm is active; CI runs it natively and under
//! `FI_FORCE_SCALAR=1`.

use std::collections::BTreeMap;

use fi_core::arch::Arch;
use fi_core::config::HeadConfig;
use fi_core::kernel::{AttentionProblem, FlashKernel, KernelOutput, KernelStats, RowMeta};
use fi_core::scratch::KernelScratch;
use fi_core::tiles::TileConfig;
use fi_core::variant::{
    AttentionVariant, LogitCtx, QueryCtx, SigmoidAttention, SoftCapAttention, VanillaAttention,
    VariantParams,
};
use fi_sched::cascade::{CascadeAttention, CascadeDecodeGroup, PrefixNode, PrefixTree};
use fi_sched::pipeline::{AttentionPipeline, SchedulePolicy};
use fi_sched::plan::{CostModel, Plan, WorkItem};
use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
use fi_sparse::PageTable;
use fi_tensor::numerics::tree_reduce;
use fi_tensor::{RaggedTensor, Scalar, Tensor, F16};
use proptest::prelude::*;

/// splitmix64: the test's only source of "random" decisions.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `[-1, 1)` for element `i` of stream `salt`.
fn value(seed: u64, salt: u64, i: usize) -> f32 {
    (mix64(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407) ^ i as u64) >> 40) as f32
        / (1u64 << 23) as f32
        - 1.0
}

/// A draw from `lo..=hi`, stream `salt`.
fn pick(seed: u64, salt: u64, lo: usize, hi: usize) -> usize {
    lo + (mix64(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)) % (hi - lo + 1) as u64) as usize
}

/// Causal attention whose output transform depends on the head, the query
/// position and the request. No variant of `fi_core::variant` overrides
/// `output_transform`, so without this one a finalize that mixed up its
/// `(row, head)` would go unseen.
struct HeadPosOutput;

impl AttentionVariant for HeadPosOutput {
    fn name(&self) -> &str {
        "head_pos_output"
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        ctx.causally_visible()
    }

    fn kv_transforms_are_identity(&self) -> bool {
        true
    }

    fn output_transform(&self, _params: &VariantParams, o: &mut [f32], ctx: QueryCtx) {
        let gain = 1.0 + 0.25 * ctx.qo_head_idx as f32;
        let shift = 0.125 * ctx.qo_pos as f32 - ctx.batch_idx as f32;
        for x in o {
            *x = *x * gain + shift;
        }
    }
}

/// The variants every launch is checked under: vanilla ± causal, soft-cap,
/// sigmoid (the summation path), and the output-transforming one.
fn variant_case(which: usize, head_dim: usize) -> (Box<dyn AttentionVariant>, VariantParams) {
    let params = VariantParams::for_head_dim(head_dim);
    match which {
        0 => (Box::new(VanillaAttention { causal: true }), params),
        1 => (Box::new(VanillaAttention { causal: false }), params),
        2 => (Box::new(SoftCapAttention { cap: 8.0 }), params),
        3 => (Box::new(SigmoidAttention), params.with_extra("bias", -0.5)),
        _ => (Box::new(HeadPosOutput), params),
    }
}
const VARIANTS: usize = 5;

/// One owned attention state: `(o, lse)`.
type State = (Vec<f32>, f32);

/// ⊕ written out here, independently of `fi_core::state`.
fn merge(a: State, b: State, softmax: bool) -> State {
    if !softmax {
        let o = a.0.iter().zip(&b.0).map(|(x, y)| x + y).collect();
        return (o, f32::NEG_INFINITY);
    }
    if a.1 == f32::NEG_INFINITY {
        return b;
    }
    if b.1 == f32::NEG_INFINITY {
        return a;
    }
    let m = a.1.max(b.1);
    let (wa, wb) = ((a.1 - m).exp(), (b.1 - m).exp());
    let o = (a.0.iter().zip(&b.0))
        .map(|(&x, &y)| (wa * x + wb * y) / (wa + wb))
        .collect();
    (o, m + (wa + wb).ln())
}

/// What a launch reports: flat `[rows, H_qo * D]` outputs, `[rows, H_qo]`
/// LSEs, statistics.
#[derive(Debug, PartialEq)]
struct Launch {
    o: Vec<u32>,
    lse: Vec<u32>,
    stats: KernelStats,
}

impl Launch {
    fn of(out: &KernelOutput) -> Launch {
        Launch::new(out.o.as_tensor().as_slice(), &out.lse, out.stats)
    }

    fn new(o: &[f32], lse: &[f32], stats: KernelStats) -> Launch {
        Launch {
            o: o.iter().map(|x| x.to_bits()).collect(),
            lse: lse.iter().map(|x| x.to_bits()).collect(),
            stats,
        }
    }
}

fn pipeline(kernel: FlashKernel, num_ctas: usize) -> AttentionPipeline {
    AttentionPipeline::new(
        kernel,
        num_ctas,
        CostModel::default(),
        SchedulePolicy::Balanced,
        Arch::Ampere,
    )
    .unwrap()
}

/// Every item of `plan` through the chunk kernel, in queue order, its
/// states taken as owned values; chunk statistics folded into `stats`.
fn run_items<TKV: Scalar>(
    kernel: FlashKernel,
    plan: &Plan,
    problem: &AttentionProblem<'_, f32, TKV>,
    variant: &dyn AttentionVariant,
    params: &VariantParams,
    stats: &mut KernelStats,
) -> Vec<(WorkItem, Vec<State>)> {
    let mut scratch = KernelScratch::new();
    plan.iter_items()
        .map(|(_, item)| {
            let meta = kernel
                .run_block_row_chunk_scratch(
                    problem,
                    variant,
                    params,
                    item.block_row,
                    item.kv_block_start..item.kv_block_end,
                    &mut scratch,
                )
                .unwrap();
            stats.absorb(&meta.stats);
            let states = scratch.states(problem.heads().head_dim);
            (
                item.clone(),
                states.into_iter().map(|s| (s.o, s.lse)).collect(),
            )
        })
        .collect()
}

/// The test's own finalize: transform and write the final states of the
/// rows from `row_start` on, record LSE for softmax variants.
#[allow(clippy::too_many_arguments)]
fn finalize(
    variant: &dyn AttentionVariant,
    params: &VariantParams,
    heads: HeadConfig,
    row_meta: &[RowMeta],
    row_start: usize,
    states: &[State],
    o: &mut [f32],
    lse: &mut [f32],
) {
    let (hq, d) = (heads.num_qo_heads, heads.head_dim);
    for (i, (state_o, state_lse)) in states.iter().enumerate() {
        let (row, head) = (row_start + i / hq, i % hq);
        let meta = row_meta[row];
        let mut out = state_o.clone();
        variant.output_transform(
            params,
            &mut out,
            QueryCtx {
                batch_idx: meta.batch_idx,
                qo_pos: meta.qo_pos,
                qo_head_idx: head,
                qo_len: meta.qo_len,
                kv_len: meta.kv_len,
            },
        );
        o[(row * hq + head) * d..][..d].copy_from_slice(&out);
        if variant.use_softmax() {
            lse[row * hq + head] = *state_lse;
        }
    }
}

/// Reference for `AttentionPipeline::run`: unsplit tiles are final, split
/// ones are `tree_reduce`d over their partials in `partial_indices` order.
fn reference_run<TKV: Scalar>(
    kernel: FlashKernel,
    plan: &Plan,
    problem: &AttentionProblem<'_, f32, TKV>,
    variant: &dyn AttentionVariant,
    params: &VariantParams,
) -> Launch {
    let (heads, layout) = (problem.heads(), problem.layout());
    let softmax = variant.use_softmax();
    let mut stats = KernelStats::default();
    let mut tiles: Vec<(usize, Vec<State>)> = Vec::new();
    let mut partials: BTreeMap<usize, Vec<State>> = BTreeMap::new();
    for (item, states) in run_items(kernel, plan, problem, variant, params, &mut stats) {
        match item.partial_index {
            Some(slot) => assert!(partials.insert(slot, states).is_none()),
            None => tiles.push((item.block_row, states)),
        }
    }
    for g in &plan.merge_groups {
        let parts: Vec<Vec<State>> = (g.partial_indices.iter())
            .map(|slot| partials.remove(slot).unwrap())
            .collect();
        let merged = tree_reduce(parts, |a, b| {
            (a.into_iter().zip(b))
                .map(|(x, y)| merge(x, y, softmax))
                .collect()
        });
        tiles.push((g.block_row, merged.unwrap()));
    }
    assert!(partials.is_empty());

    let rows = layout.rows();
    let mut o = vec![0.0f32; rows * heads.qo_width()];
    let mut lse = vec![f32::NEG_INFINITY; rows * heads.num_qo_heads];
    for (block_row, states) in &tiles {
        let row_start = layout.block_row_range(*block_row).0;
        let row_meta = problem.row_meta();
        finalize(
            variant, params, heads, row_meta, row_start, states, &mut o, &mut lse,
        );
    }
    // Q read (f32) + O write traffic.
    stats.global_bytes += (rows * heads.qo_width()) as u64 * (4 + 4);
    Launch::new(&o, &lse, stats)
}

/// One cascade level: layout and per-block-row timeline offsets.
type Level = (BlockSparseMatrix, Vec<usize>);

/// Reference for both cascade executors: per `(row, head)` one running left
/// fold over levels in order and, within a level, the covering tile's
/// chunks in ascending chunk index. Every row is finalized, covered or not.
/// Also returns the number of work items over all levels.
#[allow(clippy::too_many_arguments)]
fn reference_cascade<TKV: Scalar>(
    planner: &mut AttentionPipeline,
    levels: &[Level],
    q: &RaggedTensor<f32>,
    k: &Tensor<TKV>,
    v: &Tensor<TKV>,
    heads: HeadConfig,
    row_meta: &[RowMeta],
    variant: &dyn AttentionVariant,
    params: &VariantParams,
    dequant: Option<(&[f32], &[f32])>,
) -> (Launch, u64) {
    let (hq, d) = (heads.num_qo_heads, heads.head_dim);
    let softmax = variant.use_softmax();
    let kernel = planner.kernel();
    let mut stats = KernelStats::default();
    let mut n_items = 0;
    let mut acc: Vec<State> = vec![(vec![0.0; d], f32::NEG_INFINITY); q.total_rows() * hq];
    for (layout, offsets) in levels {
        let plan = planner.plan(layout, hq, d).unwrap().clone();
        let mut problem =
            AttentionProblem::new(q, k, v, layout, heads, row_meta.to_vec(), offsets.clone())
                .unwrap();
        if let Some((ks, vs)) = dequant {
            problem = problem.with_kv_dequant(ks, vs).unwrap();
        }
        let mut items = run_items(kernel, &plan, &problem, variant, params, &mut stats);
        n_items += items.len() as u64;
        items.sort_by_key(|(item, _)| (item.block_row, item.chunk_index));
        for (item, states) in items {
            let first = layout.block_row_range(item.block_row).0 * hq;
            for (i, state) in states.into_iter().enumerate() {
                let running = std::mem::take(&mut acc[first + i]);
                acc[first + i] = merge(running, state, softmax);
            }
        }
    }
    let mut o = vec![0.0f32; q.total_rows() * heads.qo_width()];
    let mut lse = vec![f32::NEG_INFINITY; q.total_rows() * hq];
    finalize(variant, params, heads, row_meta, 0, &acc, &mut o, &mut lse);
    (Launch::new(&o, &lse, stats), n_items)
}

/// Pages for spans needing `needs[i]` pages each, dealt round-robin so
/// spans interleave, with an occasional gap; returns the lists and the pool
/// size in pages.
fn interleaved_pages(needs: &[usize], seed: u64) -> (Vec<Vec<usize>>, usize) {
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); needs.len()];
    let mut next = 0usize;
    while lists.iter().zip(needs).any(|(l, &n)| l.len() < n) {
        for (list, &need) in lists.iter_mut().zip(needs) {
            if list.len() < need {
                list.push(next);
                next += 1 + usize::from(mix64(seed ^ next as u64).is_multiple_of(5));
            }
        }
    }
    (lists, next + 1)
}

/// Block entries covering `len` slots over `pages` of size `ps`.
fn entries(pages: &[usize], len: usize, ps: usize) -> Vec<BlockEntry> {
    (pages.iter().enumerate())
        .map(|(i, &p)| BlockEntry {
            col_block: p,
            len: ps.min(len - i * ps),
        })
        .collect()
}

fn table(pages: &[usize], len: usize, ps: usize, pool_pages: usize) -> PageTable {
    let last = len - (pages.len() - 1) * ps;
    PageTable::new(ps, pool_pages, vec![pages.to_vec()], vec![last]).unwrap()
}

/// Queries and the f32 / f16 pools of a case, plus per-KV-head scales.
struct Tensors {
    q: RaggedTensor<f32>,
    k32: Tensor<f32>,
    v32: Tensor<f32>,
    k16: Tensor<F16>,
    v16: Tensor<F16>,
    k_scales: Vec<f32>,
    v_scales: Vec<f32>,
}

fn tensors(qo_lens: &[usize], slots: usize, heads: HeadConfig, seed: u64) -> Tensors {
    let mut q = RaggedTensor::<f32>::from_seq_lens(qo_lens, heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = value(seed, 1, i);
    }
    let k32 = Tensor::<f32>::from_fn(vec![slots, heads.kv_width()], |i| value(seed, 2, i));
    let v32 = Tensor::<f32>::from_fn(vec![slots, heads.kv_width()], |i| value(seed, 3, i) * 2.0);
    Tensors {
        q,
        k16: k32.cast::<F16>(),
        v16: v32.cast::<F16>(),
        k32,
        v32,
        k_scales: (0..heads.num_kv_heads)
            .map(|h| 1.5 - 0.75 * h as f32)
            .collect(),
        v_scales: (0..heads.num_kv_heads)
            .map(|h| 0.5 + 2.0 * h as f32)
            .collect(),
    }
}

/// Run `$body` with `$k`, `$v`, `$dequant` bound to the f32 pool, then to
/// the f16 pool with its dequant scales.
macro_rules! for_each_pool {
    ($t:expr, |$k:ident, $v:ident, $dequant:ident| $body:block) => {{
        {
            let ($k, $v, $dequant) = (&$t.k32, &$t.v32, None::<(&[f32], &[f32])>);
            $body
        }
        {
            let ($k, $v) = (&$t.k16, &$t.v16);
            let $dequant = Some((&$t.k_scales[..], &$t.v_scales[..]));
            $body
        }
    }};
}

/// The GQA shape of a case.
fn head_config(group: usize, num_kv_heads: usize, d_pick: usize) -> HeadConfig {
    let d = [8usize, 12, 64, 128][d_pick];
    HeadConfig::new(group * num_kv_heads, num_kv_heads, d).unwrap()
}

/// Plan + run one batch through the pipeline and hold it to the reference.
#[allow(clippy::too_many_arguments)]
fn check_run(
    heads: HeadConfig,
    tile: TileConfig,
    num_ctas: usize,
    ps: usize,
    qo_lens: &[usize],
    kv_lens: &[usize],
    which: usize,
    seed: u64,
) -> Result<Plan, String> {
    let needs: Vec<usize> = kv_lens.iter().map(|l| l.div_ceil(ps)).collect();
    let (pages, pool_pages) = interleaved_pages(&needs, seed);
    let last: Vec<usize> = (kv_lens.iter().zip(&needs))
        .map(|(l, n)| l - (n - 1) * ps)
        .collect();
    let pt = PageTable::new(ps, pool_pages, pages, last).unwrap();
    let layout = pt.to_bsr(qo_lens, tile.tq).unwrap();
    let t = tensors(qo_lens, pool_pages * ps, heads, seed);
    let (variant, params) = variant_case(which, heads.head_dim);
    let kernel = FlashKernel {
        tile,
        head_fusion: true,
    };
    let mut p = pipeline(kernel, num_ctas);
    let (hq, d) = (heads.num_qo_heads, heads.head_dim);
    let plan = p.plan(&layout, hq, d).unwrap().clone();
    for_each_pool!(t, |k, v, dequant| {
        let mut problem =
            AttentionProblem::standard_batch(&t.q, k, v, &layout, heads, kv_lens).unwrap();
        if let Some((ks, vs)) = dequant {
            problem = problem.with_kv_dequant(ks, vs).unwrap();
        }
        let before = (p.stats(), p.kernel_stats());
        let got = Launch::of(&p.run(&problem, variant.as_ref(), &params).unwrap());
        let want = reference_run(kernel, &plan, &problem, variant.as_ref(), &params);
        if got != want {
            return Err(format!(
                "{} (dequant {}): launch differs from the reference executor",
                variant.name(),
                dequant.is_some()
            ));
        }
        // The pipeline's cumulative counters move by exactly this launch.
        let mut kernel_stats = before.1;
        kernel_stats.absorb(&want.stats);
        assert_eq!(p.kernel_stats(), kernel_stats);
        let items = before.0.items_executed + plan.num_items() as u64;
        assert_eq!(p.stats().items_executed, items);
        let merges = before.0.merges + plan.merge_groups.len() as u64;
        assert_eq!(p.stats().merges, merges);
    });
    Ok(plan)
}

/// The two cascade executors behind one generic `run`.
enum Cascade<'a> {
    Tree(&'a CascadeAttention),
    /// A decode group is the one that takes dequant scales.
    Group(&'a CascadeDecodeGroup),
}

impl Cascade<'_> {
    #[allow(clippy::too_many_arguments)]
    fn run<TKV: Scalar>(
        &self,
        p: &mut AttentionPipeline,
        q: &RaggedTensor<f32>,
        k: &Tensor<TKV>,
        v: &Tensor<TKV>,
        heads: HeadConfig,
        row_meta: &[RowMeta],
        variant: &dyn AttentionVariant,
        params: &VariantParams,
        dequant: Option<(&[f32], &[f32])>,
    ) -> KernelOutput {
        match self {
            Cascade::Tree(c) => c.run(p, q, k, v, heads, row_meta, variant, params),
            Cascade::Group(g) => g.run(p, q, k, v, heads, row_meta, variant, params, dequant),
        }
        .unwrap()
    }
}

/// Launch `cascade` on a fresh pipeline and hold it to the reference left
/// fold over `levels`.
#[allow(clippy::too_many_arguments)]
fn check_cascade(
    cascade: Cascade<'_>,
    kernel: FlashKernel,
    num_ctas: usize,
    levels: &[Level],
    t: &Tensors,
    heads: HeadConfig,
    row_meta: &[RowMeta],
    which: usize,
) -> Result<(), String> {
    let (variant, params) = variant_case(which, heads.head_dim);
    let (variant, q) = (variant.as_ref(), &t.q);
    for_each_pool!(t, |k, v, dequant| {
        let dequant = dequant.filter(|_| matches!(cascade, Cascade::Group(_)));
        let mut p = pipeline(kernel, num_ctas);
        let got = cascade.run(&mut p, q, k, v, heads, row_meta, variant, &params, dequant);
        let mut planner = pipeline(kernel, num_ctas);
        let (want, n_items) = reference_cascade(
            &mut planner,
            levels,
            q,
            k,
            v,
            heads,
            row_meta,
            variant,
            &params,
            dequant,
        );
        if Launch::of(&got) != want {
            return Err(format!(
                "{} (dequant {}): cascade differs from the reference left fold",
                variant.name(),
                dequant.is_some()
            ));
        }
        // A cascade contracts nothing; its items and kernel statistics
        // are the sum over its levels.
        assert_eq!(p.kernel_stats(), want.stats);
        assert_eq!(p.stats().merges, 0);
        assert_eq!(p.stats().items_executed, n_items);
    });
    Ok(())
}

/// The benchmark's decode shape and a mixed batch, deterministically: the
/// mixed plan must hold split and unsplit tiles side by side.
#[test]
fn fixed_shapes_match_the_reference() {
    let heads = HeadConfig::new(8, 2, 64).unwrap();
    let decode = TileConfig { tq: 16, tkv: 64 };
    for which in 0..VARIANTS {
        for kv in [80usize, 640, 1100] {
            let plan = check_run(heads, decode, 8, 16, &[1], &[kv], which, kv as u64).unwrap();
            assert!(plan.num_partials >= 5, "kv {kv} must split");
        }
        let small = HeadConfig::new(4, 2, 12).unwrap();
        let tile = TileConfig { tq: 4, tkv: 16 };
        let plan = check_run(small, tile, 6, 4, &[1, 7, 2], &[300, 9, 41], which, 3).unwrap();
        assert!(plan.num_partials >= 2, "the long request must split");
        assert!(
            plan.iter_items().any(|(_, w)| w.partial_index.is_none()),
            "the short requests must stay whole"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random GQA shape, tile, CTA count and paged batch (pages interleaved
    /// across requests), prefill and decode requests mixed.
    #[test]
    fn pipeline_run_equals_reference_executor(
        group in 1usize..=4,
        num_kv_heads in 1usize..=2,
        d_pick in 0usize..4,
        tq in 1usize..=32,
        tkv_pick in 0usize..3,
        ps_pick in 0usize..3,
        num_ctas in 1usize..=8,
        n_req in 1usize..=4,
        which in 0usize..VARIANTS,
        seed in 0u64..1_000_000,
    ) {
        let heads = head_config(group, num_kv_heads, d_pick);
        let tile = TileConfig { tq, tkv: [16usize, 64, 128][tkv_pick] };
        let ps = [1usize, 4, 16][ps_pick];
        // Keep the debug-build cost of one request bounded.
        let budget = (1usize << 20) / (heads.num_qo_heads * heads.head_dim);
        let (mut qo_lens, mut kv_lens) = (Vec::new(), Vec::new());
        for r in 0..n_req as u64 {
            let qo = if pick(seed, 10 + r, 0, 2) == 0 { pick(seed, 20 + r, 1, 2 * tq) } else { 1 };
            let kv = pick(seed, 30 + r, 1, (budget / qo).clamp(1, 700)).max(qo);
            qo_lens.push(qo);
            kv_lens.push(kv);
        }
        let result = check_run(heads, tile, num_ctas, ps, &qo_lens, &kv_lens, which, seed);
        prop_assert!(
            result.is_ok(),
            "{} — heads {heads:?} {tile:?} ctas {num_ctas} ps {ps} qo {qo_lens:?} kv {kv_lens:?} \
             seed {seed}",
            result.unwrap_err()
        );
    }

    /// A random three-level prefix tree — a root span over all rows, one or
    /// two group spans, a leaf per request of one to three query rows —
    /// through `CascadeAttention::run`.
    #[test]
    fn cascade_attention_equals_reference_left_fold(
        group in 1usize..=4,
        num_kv_heads in 1usize..=2,
        d_pick in 0usize..4,
        tq in 1usize..=32,
        ps_pick in 0usize..3,
        num_ctas in 1usize..=8,
        n_leaves in 1usize..=5,
        which in 0usize..VARIANTS,
        seed in 0u64..1_000_000,
    ) {
        let heads = head_config(group, num_kv_heads, d_pick);
        let kernel = FlashKernel { tile: TileConfig { tq, tkv: 64 }, head_fusion: true };
        let ps = [1usize, 4, 16][ps_pick];
        let qo_lens: Vec<usize> = (0..n_leaves as u64).map(|l| pick(seed, 10 + l, 1, 3)).collect();
        let rows: usize = qo_lens.iter().sum();
        let budget = (1usize << 20) / (rows * heads.num_qo_heads * heads.head_dim);

        // Span lengths: root, the groups (leaves split at `cut`), leaves.
        // An empty root or group span leaves its level without that tile.
        let cut = pick(seed, 2, 1, n_leaves);
        let root_len = pick(seed, 3, 0, budget.clamp(1, 500));
        let group_lens = [pick(seed, 4, 0, 90), pick(seed, 5, 0, 90)];
        let leaf_lens: Vec<usize> =
            (0..n_leaves).map(|l| pick(seed, 40 + l as u64, qo_lens[l], qo_lens[l] + 40)).collect();
        let span_lens: Vec<usize> =
            [root_len].into_iter().chain(group_lens).chain(leaf_lens.iter().copied()).collect();
        let needs: Vec<usize> = span_lens.iter().map(|l| l.div_ceil(ps)).collect();
        let (pages, pool_pages) = interleaved_pages(&needs, seed);
        let blocks = |span: usize| entries(&pages[span], span_lens[span], ps);

        let row_of = |leaf: usize| qo_lens[..leaf].iter().sum::<usize>();
        let mut row_meta = Vec::new();
        let groups: Vec<PrefixNode> = [(0, cut), (cut, n_leaves)]
            .into_iter()
            .enumerate()
            .filter(|(_, (lo, hi))| lo < hi)
            .map(|(g, (lo, hi))| PrefixNode {
                row_start: row_of(lo),
                row_end: row_of(hi),
                kv_blocks: blocks(1 + g),
                kv_offset: root_len,
                children: (lo..hi)
                    .map(|leaf| {
                        let kv_offset = root_len + group_lens[g];
                        for qo_pos in 0..qo_lens[leaf] {
                            row_meta.push(RowMeta {
                                batch_idx: leaf,
                                qo_pos,
                                qo_len: qo_lens[leaf],
                                kv_len: kv_offset + leaf_lens[leaf],
                            });
                        }
                        PrefixNode {
                            row_start: row_of(leaf),
                            row_end: row_of(leaf + 1),
                            kv_blocks: blocks(3 + leaf),
                            kv_offset,
                            children: vec![],
                        }
                    })
                    .collect(),
            })
            .collect();
        let tree = PrefixTree {
            roots: vec![PrefixNode {
                row_start: 0,
                row_end: rows,
                kv_blocks: blocks(0),
                kv_offset: 0,
                children: groups,
            }],
            rows,
            cols: pool_pages * ps,
            bc: ps,
        };
        let cascade = CascadeAttention::from_prefix_tree(&tree).unwrap();
        let levels: Vec<Level> =
            cascade.levels().iter().map(|l| (l.layout.clone(), l.kv_pos_offsets.clone())).collect();
        let t = tensors(&qo_lens, pool_pages * ps, heads, seed);
        let cascade = Cascade::Tree(&cascade);
        let result = check_cascade(cascade, kernel, num_ctas, &levels, &t, heads, &row_meta, which);
        prop_assert!(
            result.is_ok(),
            "{} — heads {heads:?} tq {tq} ctas {num_ctas} ps {ps} qo {qo_lens:?} spans \
             {span_lens:?} cut {cut} seed {seed}",
            result.unwrap_err()
        );
    }

    /// A shared-prefix decode group of one to eight members through
    /// `CascadeDecodeGroup::run`; the reference rebuilds the group's levels
    /// from the page tables: the prefix as one tile over all rows, then each
    /// member's suffix as a level of its own.
    #[test]
    fn cascade_decode_group_equals_reference_left_fold(
        group in 1usize..=4,
        num_kv_heads in 1usize..=2,
        d_pick in 0usize..4,
        tq in 1usize..=32,
        ps_pick in 0usize..2,
        num_ctas in 1usize..=8,
        members in 1usize..=8,
        which in 0usize..VARIANTS,
        seed in 0u64..1_000_000,
    ) {
        let heads = head_config(group, num_kv_heads, d_pick);
        let kernel = FlashKernel { tile: TileConfig { tq, tkv: 64 }, head_fusion: true };
        let ps = [4usize, 16][ps_pick];
        let budget = (1usize << 20) / (members * heads.num_qo_heads * heads.head_dim);
        let prefix_len = pick(seed, 2, 1, (budget / ps).clamp(1, 44)) * ps;
        let suffix_lens: Vec<usize> = (0..members as u64).map(|m| pick(seed, 10 + m, 1, 70)).collect();
        let needs: Vec<usize> =
            [prefix_len].iter().chain(&suffix_lens).map(|l| l.div_ceil(ps)).collect();
        let (pages, pool_pages) = interleaved_pages(&needs, seed);
        let owner = table(&pages[0], prefix_len, ps, pool_pages);
        let tables: Vec<PageTable> = (0..members)
            .map(|m| table(&pages[1 + m], suffix_lens[m], ps, pool_pages))
            .collect();
        let decode_group = CascadeDecodeGroup::from_page_tables(&owner, &tables, prefix_len).unwrap();

        let cols = pool_pages * ps;
        let level = |rows: (usize, usize), span: usize, len: usize, offset: usize| {
            let tile = vec![(rows.0, rows.1, entries(&pages[span], len, ps))];
            (BlockSparseMatrix::new(members, cols, ps, tile).unwrap(), vec![offset])
        };
        let levels: Vec<Level> = std::iter::once(level((0, members), 0, prefix_len, 0))
            .chain((0..members).map(|m| level((m, m + 1), 1 + m, suffix_lens[m], prefix_len)))
            .collect();
        let row_meta: Vec<RowMeta> = (0..members)
            .map(|m| RowMeta { batch_idx: m, qo_pos: 0, qo_len: 1, kv_len: prefix_len + suffix_lens[m] })
            .collect();
        let t = tensors(&vec![1; members], cols, heads, seed);
        let cascade = Cascade::Group(&decode_group);
        let result = check_cascade(cascade, kernel, num_ctas, &levels, &t, heads, &row_meta, which);
        prop_assert!(
            result.is_ok(),
            "{} — heads {heads:?} tq {tq} ctas {num_ctas} ps {ps} prefix {prefix_len} suffixes \
             {suffix_lens:?} seed {seed}",
            result.unwrap_err()
        );
    }
}
