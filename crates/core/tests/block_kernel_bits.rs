//! The block kernel pinned, bit for bit, to the per-logit formulation it
//! replaced: one `numerics::dot` per (query row, head, key), a scalar
//! `f32::max` chain, `exp` per weight, then `scale_add` on the first
//! visible key of a chunk and `axpy` on the rest — written out below
//! straight from those single-row kernels, staging every row.
//!
//! Because the reference goes through the same dispatched `numerics`
//! entry points, the comparison holds on whatever arm is active; CI runs
//! it natively and under `FI_FORCE_SCALAR=1`.

use fi_core::config::HeadConfig;
use fi_core::gather::GatherStats;
use fi_core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use fi_core::scratch::KernelScratch;
use fi_core::tiles::TileConfig;
use fi_core::variant::{
    AlibiAttention, AttentionVariant, CustomMaskAttention, FusedRopeAttention, KeyCtx, LogitCtx,
    QueryCtx, SigmoidAttention, SlidingWindowAttention, SoftCapAttention, VanillaAttention,
    VariantParams,
};
use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
use fi_sparse::CsrMatrix;
use fi_tensor::{numerics, RaggedTensor, Scalar, Tensor, F16, F8E4M3};
use proptest::prelude::*;

/// splitmix64: the test's only source of "random" layout decisions.
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

/// One work item: a single request's query tile against a paged KV span.
struct Case {
    heads: HeadConfig,
    tkv: usize,
    q: RaggedTensor<f32>,
    layout: BlockSparseMatrix,
    row_meta: Vec<RowMeta>,
    kv_offset: usize,
    kv_blocks: std::ops::Range<usize>,
}

/// The per-logit loop: what `run_block_row_chunk_scratch` computed before
/// the block kernels, for block row 0 of `case`. Returns the finalized
/// `[row, qo_head]` outputs, their log-sum-exps, and the gather accounting
/// of a kernel that stages (or reads) every slot run of every chunk once.
fn per_logit_reference<T: Scalar>(
    case: &Case,
    k: &Tensor<T>,
    v: &Tensor<T>,
    dequant: Option<(&[f32], &[f32])>,
    variant: &dyn AttentionVariant,
    params: &VariantParams,
) -> (Vec<f32>, Vec<f32>, GatherStats) {
    let heads = case.heads;
    let (d, kw) = (heads.head_dim, heads.kv_width());
    let blocks = case.layout.block_row(0);
    let lead: usize = blocks[..case.kv_blocks.start].iter().map(|b| b.len).sum();
    let base_pos = case.kv_offset + lead;
    let slots: Vec<usize> = blocks[case.kv_blocks.clone()]
        .iter()
        .flat_map(|b| (0..b.len).map(|i| b.col_block * case.layout.bc() + i))
        .collect();
    let n_rows = case.row_meta.len();
    let n_states = n_rows * heads.num_qo_heads;

    let mut q_rows = Vec::with_capacity(n_states * d);
    for (row, meta) in case.row_meta.iter().enumerate() {
        for h in 0..heads.num_qo_heads {
            let mut qv = case.q.global_row(row)[h * d..(h + 1) * d].to_vec();
            variant.query_transform(
                params,
                &mut qv,
                QueryCtx {
                    batch_idx: meta.batch_idx,
                    qo_pos: meta.qo_pos,
                    qo_head_idx: h,
                    qo_len: meta.qo_len,
                    kv_len: meta.kv_len,
                },
            );
            q_rows.extend(qv);
        }
    }

    let mut m = vec![f32::NEG_INFINITY; n_states];
    let mut l = vec![0.0f32; n_states];
    let mut acc = vec![0.0f32; n_states * d];
    let mut gather = GatherStats::default();
    let softmax = variant.use_softmax();
    let key_meta = case.row_meta[0];

    for (ci, chunk) in slots.chunks(case.tkv).enumerate() {
        let chunk_pos = base_pos + ci * case.tkv;
        // Stage: widen, scale per KV head, transform per (slot, kv head).
        let stage = |pool: &Tensor<T>, scales: Option<&[f32]>, is_key: bool| -> Vec<f32> {
            let mut tile = Vec::with_capacity(chunk.len() * kw);
            for (j, &slot) in chunk.iter().enumerate() {
                for kv_head in 0..heads.num_kv_heads {
                    let scale = scales.map_or(1.0, |s| s[kv_head]);
                    let mut row: Vec<f32> = pool.row(slot)[kv_head * d..(kv_head + 1) * d]
                        .iter()
                        .map(|x| x.to_f32() * scale)
                        .collect();
                    let ctx = KeyCtx {
                        batch_idx: key_meta.batch_idx,
                        kv_pos: chunk_pos + j,
                        kv_head_idx: kv_head,
                        kv_len: key_meta.kv_len,
                    };
                    if is_key {
                        variant.key_transform(params, &mut row, ctx);
                    } else {
                        variant.value_transform(params, &mut row, ctx);
                    }
                    tile.extend(row);
                }
            }
            tile
        };
        let k_tile = stage(k, dequant.map(|s| s.0), true);
        let v_tile = stage(v, dequant.map(|s| s.1), false);
        gather.rows += chunk.len();
        gather.global_bytes += 2 * chunk.len() * kw * T::DTYPE.size_bytes();
        let mut j = 0;
        while j < chunk.len() {
            let start = j;
            j += 1;
            while j < chunk.len() && chunk[j] == chunk[j - 1] + 1 {
                j += 1;
            }
            if j - start > 1 {
                gather.contiguous_runs += 1;
            } else {
                gather.scattered_runs += 1;
            }
        }

        for (row, meta) in case.row_meta.iter().enumerate() {
            for qo_head in 0..heads.num_qo_heads {
                let kv_head = heads.kv_head_of(qo_head);
                let si = row * heads.num_qo_heads + qo_head;
                let qv = &q_rows[si * d..(si + 1) * d];
                let a = &mut acc[si * d..(si + 1) * d];
                let mut new_m = m[si];
                let mut logits = Vec::with_capacity(chunk.len());
                for j in 0..chunk.len() {
                    let lctx = LogitCtx {
                        batch_idx: meta.batch_idx,
                        qo_pos: meta.qo_pos,
                        kv_pos: chunk_pos + j,
                        qo_head_idx: qo_head,
                        kv_head_idx: kv_head,
                        qo_len: meta.qo_len,
                        kv_len: meta.kv_len,
                    };
                    if !variant.logits_mask(params, lctx) {
                        logits.push(f32::NEG_INFINITY);
                        continue;
                    }
                    let at = j * kw + kv_head * d;
                    let raw = numerics::dot(qv, &k_tile[at..at + d]);
                    let t = variant.logits_transform(params, raw, lctx);
                    if softmax {
                        new_m = new_m.max(t);
                    }
                    logits.push(t);
                }
                let v_row = |j: usize| &v_tile[j * kw + kv_head * d..][..d];
                if !softmax {
                    for (j, &w) in logits.iter().enumerate() {
                        if w != f32::NEG_INFINITY && w != 0.0 {
                            numerics::axpy(w, v_row(j), a);
                        }
                    }
                    continue;
                }
                if new_m == f32::NEG_INFINITY {
                    continue;
                }
                let rescale = if m[si] == f32::NEG_INFINITY {
                    0.0
                } else {
                    (m[si] - new_m).exp()
                };
                m[si] = new_m;
                l[si] *= rescale;
                let mut pending = Some(rescale);
                for (j, &t) in logits.iter().enumerate() {
                    if t == f32::NEG_INFINITY {
                        continue;
                    }
                    let p = (t - new_m).exp();
                    l[si] += p;
                    match pending.take() {
                        Some(s) => numerics::scale_add(s, p, v_row(j), a),
                        None => numerics::axpy(p, v_row(j), a),
                    }
                }
                if let Some(s) = pending {
                    numerics::scale(a, s);
                }
            }
        }
    }

    let mut out_o = vec![0.0f32; n_states * d];
    let mut out_lse = vec![f32::NEG_INFINITY; n_states];
    for si in 0..n_states {
        let (a, o) = (&acc[si * d..(si + 1) * d], &mut out_o[si * d..(si + 1) * d]);
        if !softmax {
            o.copy_from_slice(a);
        } else if l[si] > 0.0 {
            let inv = 1.0 / l[si];
            for (o, &a) in o.iter_mut().zip(a) {
                *o = a * inv;
            }
            out_lse[si] = m[si] + l[si].ln();
        }
    }
    (out_o, out_lse, gather)
}

/// Run the kernel on `case` and hold it to the per-logit reference.
fn check<T: Scalar>(
    case: &Case,
    k: &Tensor<T>,
    v: &Tensor<T>,
    dequant: Option<(&[f32], &[f32])>,
    variant: &dyn AttentionVariant,
    params: &VariantParams,
    what: &str,
) -> Result<(), String> {
    let mut problem = AttentionProblem::new(
        &case.q,
        k,
        v,
        &case.layout,
        case.heads,
        case.row_meta.clone(),
        vec![case.kv_offset],
    )
    .unwrap();
    if let Some((ks, vs)) = dequant {
        problem = problem.with_kv_dequant(ks, vs).unwrap();
    }
    let kernel = FlashKernel {
        tile: TileConfig {
            tq: case.row_meta.len(),
            tkv: case.tkv,
        },
        head_fusion: true,
    };
    let mut scratch = KernelScratch::new();
    let meta = kernel
        .run_block_row_chunk_scratch(
            &problem,
            variant,
            params,
            0,
            case.kv_blocks.clone(),
            &mut scratch,
        )
        .unwrap();
    let (want_o, want_lse, want_gather) = per_logit_reference(case, k, v, dequant, variant, params);

    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(scratch.out_lse()) != bits(&want_lse) {
        return Err(format!("{what}: lse bits differ"));
    }
    if let Some(at) =
        (0..want_o.len()).find(|&i| scratch.out_o()[i].to_bits() != want_o[i].to_bits())
    {
        return Err(format!(
            "{what}: output element {at} is {:?}, per-logit loop gives {:?}",
            scratch.out_o()[at],
            want_o[at]
        ));
    }
    if meta.stats.gather != want_gather {
        return Err(format!(
            "{what}: gather {:?} != {want_gather:?}",
            meta.stats.gather
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random GQA shape, tile, paged layout and chunk range; then every
    /// variant of `fi_core::variant` over every pool precision.
    #[test]
    fn block_kernel_equals_per_logit_loop(
        group in 1usize..=8,
        num_kv_heads in 1usize..=2,
        d_pick in 0usize..5,
        n_rows in 1usize..=32,
        tkv in 32usize..=128,
        l_kv in 1usize..=200,
        bc_pick in 0usize..3,
        placement in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let d = [12usize, 64, 96, 128, 8][d_pick];
        // Keep the debug-build cost of one case bounded.
        let n_rows = n_rows.min(l_kv).min(256 / (group * num_kv_heads)).max(1);
        let heads = HeadConfig::new(group * num_kv_heads, num_kv_heads, d).unwrap();
        let (bc, placement) = if placement == 3 { (1, 2) } else { ([1usize, 4, 16][bc_pick], placement) };

        // Pages of the request in a pool three times its size: physically
        // adjacent (one long run), interleaved with another request's
        // (runs of one page), or scattered (runs of whatever falls
        // adjacent by chance; single slots when bc = 1).
        let n_pages = l_kv.div_ceil(bc);
        let pool_pages = 3 * n_pages + 1;
        let mut pages: Vec<usize> = match placement {
            0 => (1..=n_pages).collect(),
            1 => (0..n_pages).map(|p| 2 * p).collect(),
            _ => {
                let mut all: Vec<usize> = (0..pool_pages).collect();
                for i in 0..n_pages {
                    let j = i + (mix64(seed ^ i as u64) % (pool_pages - i) as u64) as usize;
                    all.swap(i, j);
                }
                all.truncate(n_pages);
                all
            }
        };
        if placement == 2 && bc == 1 && n_pages > 3 {
            // Make sure a genuine two-slot run sits among the singles.
            pages[1] = pages[0] + 1;
            pages.dedup();
        }
        let l_kv = l_kv.min(pages.len() * bc);
        let n_rows = n_rows.min(l_kv);
        let entries: Vec<BlockEntry> = pages
            .iter()
            .enumerate()
            .map(|(i, &p)| BlockEntry { col_block: p, len: bc.min(l_kv - i * bc) })
            .take_while(|e| e.len > 0)
            .collect();
        let n_blocks = entries.len();
        let cols = pool_pages.max(pages.iter().max().unwrap() + 1) * bc;
        let layout = BlockSparseMatrix::new(n_rows, cols, bc, vec![(0, n_rows, entries)]).unwrap();

        // A split-KV item: some leading blocks skipped, some trailing
        // ones left to another item, on a timeline that starts after a
        // shared prefix of `kv_offset` positions.
        let b0 = (mix64(seed ^ 77) % n_blocks as u64) as usize / 2;
        let b1 = n_blocks - (mix64(seed ^ 78) % (n_blocks - b0) as u64) as usize / 3;
        let kv_offset = [0usize, 5][(seed % 2) as usize];
        let kv_len = kv_offset + l_kv;
        let row_meta: Vec<RowMeta> = (0..n_rows)
            .map(|qo_pos| RowMeta { batch_idx: 0, qo_pos, qo_len: n_rows, kv_len })
            .collect();
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[n_rows], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = value(seed, 1, i);
        }
        let case = Case { heads, tkv, q, layout, row_meta, kv_offset, kv_blocks: b0..b1 };

        let k32 = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| value(seed, 2, i));
        let v32 = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| value(seed, 3, i) * 2.0);
        let (k16, v16) = (k32.cast::<F16>(), v32.cast::<F16>());
        let (k8, v8) = (k32.cast::<F8E4M3>(), v32.cast::<F8E4M3>());
        let k_scales: Vec<f32> = (0..num_kv_heads).map(|h| 1.5 - 0.75 * h as f32).collect();
        let v_scales: Vec<f32> = (0..num_kv_heads).map(|h| 0.5 + 2.0 * h as f32).collect();
        let scales = Some((&k_scales[..], &v_scales[..]));

        let mask_entries: Vec<(usize, usize)> = (0..n_rows)
            .flat_map(|r| (0..kv_len).map(move |c| (r, c)))
            .filter(|&(r, c)| mix64(seed ^ (r * 1009 + c) as u64) % 5 < 3)
            .collect();
        let base = VariantParams::for_head_dim(d);
        let variants: Vec<(Box<dyn AttentionVariant>, VariantParams)> = vec![
            (Box::new(VanillaAttention { causal: true }), base.clone()),
            (Box::new(VanillaAttention { causal: false }), base.clone()),
            (Box::new(SlidingWindowAttention { window: 7, sink_tokens: 2 }), base.clone()),
            (Box::new(SoftCapAttention { cap: 8.0 }), base.clone()),
            (Box::new(SigmoidAttention), base.clone().with_extra("bias", -0.5)),
            (Box::new(AlibiAttention::new(heads.num_qo_heads)), base.clone()),
            (
                Box::new(CustomMaskAttention {
                    masks: vec![CsrMatrix::from_entries(n_rows, kv_len, &mask_entries).unwrap()],
                }),
                base.clone(),
            ),
            // The one variant of the menu that rewrites key rows, so the
            // one an f32 pool must still be staged for.
            (Box::new(FusedRopeAttention::new(d)), base),
        ];
        for (variant, params) in &variants {
            let (variant, name) = (variant.as_ref(), variant.name());
            let shape = format!(
                "{name} g{group} hkv{num_kv_heads} d{d} rows{n_rows} tkv{tkv} kv{l_kv} bc{bc} \
                 placement{placement} blocks{b0}..{b1} seed{seed}"
            );
            for result in [
                check(&case, &k32, &v32, None, variant, params, &format!("f32 {shape}")),
                check(&case, &k16, &v16, None, variant, params, &format!("f16 {shape}")),
                check(&case, &k8, &v8, scales, variant, params, &format!("e4m3+scales {shape}")),
                check(&case, &k32, &v32, scales, variant, params, &format!("f32+scales {shape}")),
            ] {
                prop_assert!(result.is_ok(), "{}", result.unwrap_err());
            }
        }
    }
}
