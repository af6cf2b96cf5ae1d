//! Property-based tests: the tiled kernel is extensionally equal to the
//! naive reference for random shapes, tilings and variants, and the state
//! algebra is a commutative monoid.

use fi_core::config::HeadConfig;
use fi_core::kernel::{AttentionProblem, FlashKernel};
use fi_core::reference::reference_attention;
use fi_core::scratch::KernelScratch;
use fi_core::state::AttentionState;
use fi_core::tiles::TileConfig;
use fi_core::variant::{
    AttentionVariant, SigmoidAttention, SlidingWindowAttention, SoftCapAttention, VanillaAttention,
    VariantParams,
};
use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
use fi_tensor::numerics::allclose;
use fi_tensor::{RaggedTensor, Tensor};
use proptest::prelude::*;

fn dense_layout(l_qo: usize, l_kv: usize, tq: usize, bc: usize) -> BlockSparseMatrix {
    let mut rows = Vec::new();
    let mut s = 0;
    while s < l_qo {
        let e = (s + tq).min(l_qo);
        let mut entries = Vec::new();
        let mut c = 0;
        while c * bc < l_kv {
            entries.push(BlockEntry {
                col_block: c,
                len: bc.min(l_kv - c * bc),
            });
            c += 1;
        }
        rows.push((s, e, entries));
        s = e;
    }
    BlockSparseMatrix::new(l_qo, l_kv, bc, rows).unwrap()
}

fn make_variant(i: usize) -> (Box<dyn AttentionVariant>, VariantParams) {
    let base = VariantParams::for_head_dim(8);
    match i {
        0 => (
            Box::new(VanillaAttention { causal: true }) as Box<dyn AttentionVariant>,
            base,
        ),
        1 => (Box::new(VanillaAttention { causal: false }) as _, base),
        2 => (
            Box::new(SlidingWindowAttention {
                window: 3,
                sink_tokens: 1,
            }) as _,
            base,
        ),
        3 => (Box::new(SoftCapAttention { cap: 8.0 }) as _, base),
        _ => (
            Box::new(SigmoidAttention) as _,
            base.with_extra("bias", -0.5),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel == reference across random shapes, variants and tilings.
    #[test]
    fn kernel_matches_reference(
        variant_idx in 0usize..5,
        l_qo in 1usize..7,
        extra_kv in 0usize..9,
        tq in 1usize..4,
        tkv in 1usize..6,
        bc in 1usize..4,
        qo_heads_log in 0usize..2,
        group_log in 0usize..2,
        seed in 0u64..1000,
    ) {
        let (variant, params) = make_variant(variant_idx);
        let l_kv = l_qo + extra_kv;
        let num_kv_heads = 1 << qo_heads_log;
        let num_qo_heads = num_kv_heads << group_log;
        let heads = HeadConfig::new(num_qo_heads, num_kv_heads, 8).unwrap();

        let mix = |i: usize, salt: u64| -> f32 {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[l_qo], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 1);
        }
        let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 2));
        let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 3));

        let layout = dense_layout(l_qo, l_kv, tq, bc);
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();
        let kern = FlashKernel { tile: TileConfig { tq, tkv }, head_fusion: true };
        let out = kern.run_with_scratch(&problem, variant.as_ref(), &params, &mut KernelScratch::new()).unwrap();
        let r = reference_attention(variant.as_ref(), &params, heads, 0, q.seq(0), k.as_slice(), v.as_slice());
        prop_assert!(
            allclose(out.o.seq(0), &r.o, 3e-4, 3e-5),
            "variant {} tq={tq} tkv={tkv} bc={bc}", variant.name()
        );
    }

    /// Splitting the KV axis at any point and merging with ⊕ reproduces the
    /// unsplit result (the scheduler's correctness precondition).
    #[test]
    fn any_split_merges_to_whole(
        n_blocks in 2usize..6,
        split in 1usize..5,
        seed in 0u64..1000,
    ) {
        let split = split.min(n_blocks - 1);
        let heads = HeadConfig::new(2, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let variant = VanillaAttention { causal: false };
        let bc = 2;
        let l_kv = n_blocks * bc;

        let mix = |i: usize, salt: u64| -> f32 {
            let x = (i as u64).wrapping_mul(2862933555777941757).wrapping_add(seed ^ salt);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 7);
        }
        let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 8));
        let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 9));
        let layout = dense_layout(1, l_kv, 1, bc);
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();
        let kern = FlashKernel { tile: TileConfig { tq: 1, tkv: 3 }, head_fusion: true };

        let mut scratch = KernelScratch::new();
        let full = kern.run_with_scratch(&problem, &variant, &params, &mut scratch).unwrap();
        let mut chunk = |blocks| {
            kern.run_block_row_chunk_scratch(&problem, &variant, &params, 0, blocks, &mut scratch).unwrap();
            scratch.states(heads.head_dim)
        };
        let (a, b) = (chunk(0..split), chunk(split..n_blocks));
        for h in 0..heads.num_qo_heads {
            let m = a[h].merge(&b[h]);
            let d = heads.head_dim;
            prop_assert!(allclose(&m.o, &full.o.seq(0)[h * d..(h + 1) * d], 1e-4, 1e-5));
            prop_assert!((m.lse - full.lse[h]).abs() < 1e-3);
        }
    }

    /// ⊕ is associative and commutative for arbitrary states.
    #[test]
    fn merge_monoid_laws(
        os in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 3..=3), 3..=3),
        lses in prop::collection::vec(-20.0f32..20.0, 3..=3),
    ) {
        let s: Vec<AttentionState> = os
            .iter()
            .zip(&lses)
            .map(|(o, &lse)| AttentionState { o: o.clone(), lse })
            .collect();
        let ab_c = s[0].merge(&s[1]).merge(&s[2]);
        let a_bc = s[0].merge(&s[1].merge(&s[2]));
        prop_assert!(allclose(&ab_c.o, &a_bc.o, 1e-4, 1e-5));
        prop_assert!((ab_c.lse - a_bc.lse).abs() < 1e-4);
        let ba = s[1].merge(&s[0]);
        let ab = s[0].merge(&s[1]);
        prop_assert!(allclose(&ab.o, &ba.o, 1e-5, 1e-6));
        // Identity.
        let id = AttentionState::identity(3);
        prop_assert_eq!(s[0].merge(&id), s[0].clone());
    }

    /// The scratch-reuse path is BIT-identical to fresh allocation: one
    /// `KernelScratch` pushed through two random problems (back to back, so
    /// the second sees whatever the first left behind) produces exactly the
    /// outputs of per-problem fresh scratches — no stale state leaks.
    #[test]
    fn scratch_reuse_is_bit_identical(
        variant_idx in 0usize..5,
        l_qo_a in 1usize..6,
        l_kv_a in 1usize..14,
        l_qo_b in 1usize..6,
        l_kv_b in 1usize..14,
        tq in 1usize..4,
        tkv in 1usize..6,
        group_log in 0usize..2,
        seed in 0u64..1000,
    ) {
        let (variant, params) = make_variant(variant_idx);
        // The kernel contract requires kv_len >= qo_len (KV history
        // includes the query rows themselves).
        let l_kv_a = l_kv_a.max(l_qo_a);
        let l_kv_b = l_kv_b.max(l_qo_b);
        let num_qo_heads = 1 << group_log;
        // Shape A uses GQA (2 kv heads when possible), shape B MHA — the
        // two problems deliberately differ in every dimension.
        let heads_a = HeadConfig::new(num_qo_heads * 2, 2, 8).unwrap();
        let heads_b = HeadConfig::new(num_qo_heads, num_qo_heads, 8).unwrap();
        let mix = |i: usize, salt: u64| -> f32 {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let kern = FlashKernel { tile: TileConfig { tq, tkv }, head_fusion: true };

        let mut reused = KernelScratch::new();
        for (case, (heads, l_qo, l_kv)) in
            [(heads_a, l_qo_a, l_kv_a), (heads_b, l_qo_b, l_kv_b)].into_iter().enumerate()
        {
            let mut q = RaggedTensor::<f32>::from_seq_lens(&[l_qo], heads.qo_width());
            for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
                *x = mix(i, 21 + case as u64);
            }
            let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 23));
            let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 29));
            let layout = dense_layout(l_qo, l_kv, tq, 2);
            let problem =
                AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();

            let out_reused = kern
                .run_with_scratch(&problem, variant.as_ref(), &params, &mut reused)
                .unwrap();
            let mut fresh = KernelScratch::new();
            let out_fresh = kern
                .run_with_scratch(&problem, variant.as_ref(), &params, &mut fresh)
                .unwrap();
            prop_assert_eq!(out_reused.o.seq(0), out_fresh.o.seq(0), "case {}", case);
            prop_assert_eq!(out_reused.lse, out_fresh.lse, "case {}", case);
            prop_assert_eq!(out_reused.stats, out_fresh.stats, "case {}", case);
        }
    }

    /// Numerics never depend on tile size: two different tilings agree
    /// bit-for-bit on LSE within tight tolerance.
    #[test]
    fn tiling_invariance(
        tkv_a in 1usize..8,
        tkv_b in 1usize..8,
        l_kv in 1usize..20,
        seed in 0u64..100,
    ) {
        let heads = HeadConfig::new(1, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let variant = VanillaAttention { causal: false };
        let mix = |i: usize, salt: u64| -> f32 {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed ^ salt);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], 4);
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 11);
        }
        let k = Tensor::<f32>::from_fn(vec![l_kv, 4], |i| mix(i, 12));
        let v = Tensor::<f32>::from_fn(vec![l_kv, 4], |i| mix(i, 13));
        let layout = dense_layout(1, l_kv, 1, 1);
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();
        let oa = FlashKernel { tile: TileConfig { tq: 1, tkv: tkv_a }, head_fusion: true }
            .run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new()).unwrap();
        let ob = FlashKernel { tile: TileConfig { tq: 1, tkv: tkv_b }, head_fusion: true }
            .run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new()).unwrap();
        prop_assert!(allclose(oa.o.seq(0), ob.o.seq(0), 1e-5, 1e-6));
        prop_assert!((oa.lse[0] - ob.lse[0]).abs() < 1e-4);
    }
}
