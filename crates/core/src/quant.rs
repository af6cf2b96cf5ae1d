//! FP8 KV-cache quantization (Appendix F).
//!
//! Mixed-precision attention stores the KV-cache in fp8 while queries,
//! outputs and accumulation stay at higher precision. Plain casting to
//! e4m3 saturates at ±448 and wastes dynamic range on small-magnitude
//! heads, so production deployments scale per KV head:
//! `k_q = round_fp8(k / s_k[h])`, and the kernel multiplies the
//! dequantized keys back by `s_k[h]` — which lands exactly on the
//! `KeyTransform`/`ValueTransform` hooks of the variant interface
//! (§3.2.3). [`DequantScale`] is that wrapper: it composes over *any*
//! inner variant, so fp8 storage works with causal, sliding-window,
//! soft-cap, ... unchanged.

use fi_tensor::{Scalar, Tensor, F8E4M3};

use crate::error::AttentionError;
use crate::variant::{AttentionVariant, KeyCtx, LogitCtx, QueryCtx, VariantParams};

/// A per-KV-head-scaled fp8 KV pool.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedKv {
    /// Quantized keys, `[slots, num_kv_heads * head_dim]`.
    pub k: Tensor<F8E4M3>,
    /// Quantized values.
    pub v: Tensor<F8E4M3>,
    /// Per-KV-head key scales (`k_true ≈ k_q * k_scales[h]`).
    pub k_scales: Vec<f32>,
    /// Per-KV-head value scales.
    pub v_scales: Vec<f32>,
}

/// Quantize a KV pool to e4m3 with per-head symmetric scaling calibrated
/// to the observed maxima.
///
/// # Errors
///
/// Returns [`AttentionError::InvalidProblem`] if pool shapes are not
/// `[slots, num_kv_heads * head_dim]`.
pub fn quantize_kv<T: Scalar>(
    k_pool: &Tensor<T>,
    v_pool: &Tensor<T>,
    num_kv_heads: usize,
    head_dim: usize,
) -> Result<QuantizedKv, AttentionError> {
    let width = num_kv_heads * head_dim;
    for (name, t) in [("k", k_pool), ("v", v_pool)] {
        if t.shape().len() != 2 || t.shape()[1] != width {
            return Err(AttentionError::InvalidProblem(format!(
                "{name} pool shape {:?} incompatible with {num_kv_heads} heads x {head_dim}",
                t.shape()
            )));
        }
    }
    let slots = k_pool.shape()[0];

    let head_max = |pool: &Tensor<T>, h: usize| -> f32 {
        let mut m = 0.0f32;
        for s in 0..slots {
            for &x in &pool.row(s)[h * head_dim..(h + 1) * head_dim] {
                m = m.max(x.to_f32().abs());
            }
        }
        m
    };
    // Scale so the head's max magnitude maps to the fp8 max; a zero head
    // gets scale 1 (stores exact zeros).
    let k_scales: Vec<f32> = (0..num_kv_heads)
        .map(|h| {
            let m = head_max(k_pool, h);
            if m == 0.0 {
                1.0
            } else {
                m / F8E4M3::MAX
            }
        })
        .collect();
    let v_scales: Vec<f32> = (0..num_kv_heads)
        .map(|h| {
            let m = head_max(v_pool, h);
            if m == 0.0 {
                1.0
            } else {
                m / F8E4M3::MAX
            }
        })
        .collect();

    let quant = |pool: &Tensor<T>, scales: &[f32]| -> Tensor<F8E4M3> {
        Tensor::from_fn(vec![slots, width], |i| {
            let h = (i % width) / head_dim;
            F8E4M3::from_f32(pool.as_slice()[i].to_f32() / scales[h])
        })
    };
    Ok(QuantizedKv {
        k: quant(k_pool, &k_scales),
        v: quant(v_pool, &v_scales),
        k_scales,
        v_scales,
    })
}

/// Variant wrapper applying dequantization scales in the key/value
/// transforms, delegating everything else to the inner variant.
#[derive(Debug, Clone)]
pub struct DequantScale<V> {
    inner: V,
    k_scales: Vec<f32>,
    v_scales: Vec<f32>,
    name: String,
}

impl<V: AttentionVariant> DequantScale<V> {
    /// Wrap `inner` with the scales of a quantized pool.
    pub fn new(inner: V, quant: &QuantizedKv) -> DequantScale<V> {
        let name = format!("{}+fp8_dequant", inner.name());
        DequantScale {
            inner,
            k_scales: quant.k_scales.clone(),
            v_scales: quant.v_scales.clone(),
            name,
        }
    }
}

impl<V: AttentionVariant> AttentionVariant for DequantScale<V> {
    fn name(&self) -> &str {
        &self.name
    }

    fn use_softmax(&self) -> bool {
        self.inner.use_softmax()
    }

    fn query_transform(&self, params: &VariantParams, q: &mut [f32], ctx: QueryCtx) {
        self.inner.query_transform(params, q, ctx);
    }

    fn key_transform(&self, params: &VariantParams, k: &mut [f32], ctx: KeyCtx) {
        let s = self.k_scales[ctx.kv_head_idx];
        for x in k.iter_mut() {
            *x *= s;
        }
        self.inner.key_transform(params, k, ctx);
    }

    fn value_transform(&self, params: &VariantParams, v: &mut [f32], ctx: KeyCtx) {
        let s = self.v_scales[ctx.kv_head_idx];
        for x in v.iter_mut() {
            *x *= s;
        }
        self.inner.value_transform(params, v, ctx);
    }

    fn logits_transform(&self, params: &VariantParams, logit: f32, ctx: LogitCtx) -> f32 {
        self.inner.logits_transform(params, logit, ctx)
    }

    fn logits_mask(&self, params: &VariantParams, ctx: LogitCtx) -> bool {
        self.inner.logits_mask(params, ctx)
    }

    fn output_transform(&self, params: &VariantParams, o: &mut [f32], ctx: QueryCtx) {
        self.inner.output_transform(params, o, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeadConfig;
    use crate::kernel::{AttentionProblem, FlashKernel};
    use crate::scratch::KernelScratch;
    use crate::tiles::TileConfig;
    use crate::variant::VanillaAttention;
    use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
    use fi_tensor::numerics::allclose;
    use fi_tensor::RaggedTensor;

    fn mix(i: usize, s: u64) -> f32 {
        let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s);
        ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    }

    #[test]
    fn quantize_roundtrip_error_bounded() {
        // Keys with magnitudes far above fp8 range: per-head scaling must
        // keep relative error at fp8 resolution instead of saturating.
        let heads = 2usize;
        let d = 4usize;
        let k = Tensor::<f32>::from_fn(vec![8, heads * d], |i| mix(i, 1) * 3000.0);
        let v = Tensor::<f32>::from_fn(vec![8, heads * d], |i| mix(i, 2) * 0.001);
        let q = quantize_kv(&k, &v, heads, d).unwrap();
        for s in 0..8 {
            for c in 0..heads * d {
                let h = c / d;
                let approx = q.k.row(s)[c].to_f32() * q.k_scales[h];
                let truth = k.row(s)[c];
                assert!(
                    (approx - truth).abs() <= truth.abs() * 0.07 + 1e-6,
                    "k[{s},{c}]: {approx} vs {truth}"
                );
                let approx_v = q.v.row(s)[c].to_f32() * q.v_scales[h];
                let truth_v = v.row(s)[c];
                assert!((approx_v - truth_v).abs() <= truth_v.abs() * 0.07 + 1e-9);
            }
        }
    }

    #[test]
    fn per_head_scales_beat_raw_cast_for_large_magnitudes() {
        let d = 4usize;
        let k = Tensor::<f32>::from_fn(vec![4, d], |i| mix(i, 3) * 5000.0);
        let v = k.clone();
        let q = quantize_kv(&k, &v, 1, d).unwrap();
        let raw: Tensor<F8E4M3> = k.cast();
        let mut scaled_err = 0.0f32;
        let mut raw_err = 0.0f32;
        for i in 0..k.len() {
            let truth = k.as_slice()[i];
            scaled_err += (q.k.as_slice()[i].to_f32() * q.k_scales[0] - truth).abs();
            raw_err += (raw.as_slice()[i].to_f32() - truth).abs();
        }
        assert!(
            scaled_err < raw_err / 2.0,
            "scaled {scaled_err} vs raw {raw_err}"
        );
    }

    #[test]
    fn mixed_precision_attention_close_to_f32() {
        let heads = HeadConfig::new(2, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let l_kv = 24usize;
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[2], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 4);
        }
        // Large-magnitude keys: stresses the scaling.
        let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 5) * 40.0);
        let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 6) * 2.0);
        let layout = BlockSparseMatrix::new(
            2,
            l_kv,
            8,
            vec![(
                0,
                2,
                (0..3)
                    .map(|c| BlockEntry {
                        col_block: c,
                        len: 8,
                    })
                    .collect(),
            )],
        )
        .unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 2, tkv: 8 },
            head_fusion: true,
        };
        let inner = VanillaAttention { causal: true };

        // Full-precision baseline. Scale sm so softmax is non-degenerate.
        let p32 = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();
        let full = kern
            .run_with_scratch(&p32, &inner, &params, &mut KernelScratch::new())
            .unwrap();

        // fp8 path.
        let quant = quantize_kv(&k, &v, heads.num_kv_heads, heads.head_dim).unwrap();
        let variant = DequantScale::new(inner, &quant);
        let p8 = AttentionProblem::standard_batch(&q, &quant.k, &quant.v, &layout, heads, &[l_kv])
            .unwrap();
        let out = kern
            .run_with_scratch(&p8, &variant, &params, &mut KernelScratch::new())
            .unwrap();
        assert!(
            allclose(out.o.seq(0), full.o.seq(0), 0.15, 0.02),
            "fp8 {:?} vs f32 {:?}",
            &out.o.seq(0)[..4],
            &full.o.seq(0)[..4]
        );
        // And it must NOT be garbage: correlation with the baseline.
        let a = out.o.seq(0);
        let b = full.o.seq(0);
        let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(dot / (na * nb) > 0.99, "cosine {}", dot / (na * nb));
    }

    #[test]
    fn stage_dequant_bit_identical_to_variant_wrapper() {
        // The fused dequantize-on-stage path (AttentionProblem::
        // with_kv_dequant) must produce the exact bits of the
        // DequantScale variant wrapper: both compute
        // widen(e) * scales[h] per element, one during staging, one in
        // the key/value transforms.
        let heads = HeadConfig::new(4, 2, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let l_kv = 32usize;
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[3], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 7);
        }
        let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 8) * 30.0);
        let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 9) * 1.5);
        let layout = BlockSparseMatrix::new(
            3,
            l_kv,
            8,
            vec![(
                0,
                3,
                (0..4)
                    .map(|c| BlockEntry {
                        col_block: c,
                        len: 8,
                    })
                    .collect(),
            )],
        )
        .unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 2, tkv: 8 },
            head_fusion: true,
        };
        let inner = VanillaAttention { causal: true };
        let quant = quantize_kv(&k, &v, heads.num_kv_heads, heads.head_dim).unwrap();

        let wrapper = DequantScale::new(inner, &quant);
        let p_wrap =
            AttentionProblem::standard_batch(&q, &quant.k, &quant.v, &layout, heads, &[l_kv])
                .unwrap();
        let out_wrap = kern
            .run_with_scratch(&p_wrap, &wrapper, &params, &mut KernelScratch::new())
            .unwrap();

        let p_stage =
            AttentionProblem::standard_batch(&q, &quant.k, &quant.v, &layout, heads, &[l_kv])
                .unwrap()
                .with_kv_dequant(quant.k_scales.clone(), quant.v_scales.clone())
                .unwrap();
        let out_stage = kern
            .run_with_scratch(&p_stage, &inner, &params, &mut KernelScratch::new())
            .unwrap();

        assert_eq!(out_wrap.o.seq(0), out_stage.o.seq(0), "outputs");
        assert_eq!(out_wrap.lse, out_stage.lse, "lse");
    }

    #[test]
    fn dequant_scale_length_validated() {
        let heads = HeadConfig::new(2, 2, 4).unwrap();
        let q = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
        let k = Tensor::<F8E4M3>::zeros(vec![8, heads.kv_width()]);
        let v = k.clone();
        let layout = BlockSparseMatrix::new(
            1,
            8,
            8,
            vec![(
                0,
                1,
                vec![BlockEntry {
                    col_block: 0,
                    len: 8,
                }],
            )],
        )
        .unwrap();
        let p = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[8]).unwrap();
        assert!(p.with_kv_dequant(vec![1.0], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn shape_validation() {
        let k = Tensor::<f32>::zeros(vec![4, 8]);
        let v = Tensor::<f32>::zeros(vec![4, 6]);
        assert!(quantize_kv(&k, &v, 2, 4).is_err());
        assert!(quantize_kv(&k, &k, 3, 4).is_err());
    }

    #[test]
    fn zero_pool_gets_unit_scales() {
        let z = Tensor::<f32>::zeros(vec![4, 8]);
        let q = quantize_kv(&z, &z, 2, 4).unwrap();
        assert_eq!(q.k_scales, vec![1.0, 1.0]);
        assert!(q.k.as_slice().iter().all(|x| x.to_f32() == 0.0));
    }
}
