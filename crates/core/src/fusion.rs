//! Fused pre-attention transforms (§3.2.3): "FlashInfer's query and key
//! transformation functors making it possible to fuse normalization, RoPE
//! and projection into the attention kernel".
//!
//! * [`QkNormAttention`] — QK-RMSNorm (used by several recent models to
//!   stabilize logits) applied inside the kernel instead of as separate
//!   elementwise passes.
//! * [`ProjectedAttention`] — a low-rank projection of queries and keys
//!   fused into the transforms (the DeepSeek-style absorbed-projection
//!   trick): the cache stores compressed `d_low` vectors and the kernel
//!   up-projects on the fly, trading FLOPs for KV bandwidth.
//!
//! Both compose causally and run through the same kernel skeleton —
//! equivalence against explicitly pre-transformed inputs is tested below.

use crate::rope::RotaryEmbedding;
use crate::variant::{AttentionVariant, KeyCtx, LogitCtx, QueryCtx, VariantParams};

/// RMS-normalize `x` in place to unit RMS, then scale by `gamma`.
fn rms_norm_inplace(x: &mut [f32], gamma: &[f32], eps: f32) {
    let d = x.len() as f32;
    let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / d;
    let inv = 1.0 / (ms + eps).sqrt();
    for (v, &g) in x.iter_mut().zip(gamma) {
        *v *= inv * g;
    }
}

/// Causal attention with QK-RMSNorm (and optional RoPE) fused into the
/// query/key transforms.
#[derive(Debug, Clone, PartialEq)]
pub struct QkNormAttention {
    /// Per-dimension query norm weight (length `head_dim`).
    pub q_gamma: Vec<f32>,
    /// Per-dimension key norm weight.
    pub k_gamma: Vec<f32>,
    /// Norm epsilon.
    pub eps: f32,
    /// Optional fused RoPE applied after the norm.
    pub rope: Option<RotaryEmbedding>,
}

impl QkNormAttention {
    /// Unit-weight QK-norm for a head dimension, no RoPE.
    pub fn unit(head_dim: usize) -> QkNormAttention {
        QkNormAttention {
            q_gamma: vec![1.0; head_dim],
            k_gamma: vec![1.0; head_dim],
            eps: 1e-6,
            rope: None,
        }
    }
}

impl AttentionVariant for QkNormAttention {
    fn name(&self) -> &str {
        "qk_norm"
    }

    fn query_transform(&self, _params: &VariantParams, q: &mut [f32], ctx: QueryCtx) {
        rms_norm_inplace(q, &self.q_gamma, self.eps);
        if let Some(r) = &self.rope {
            r.apply(q, ctx.absolute_pos());
        }
    }

    fn key_transform(&self, _params: &VariantParams, k: &mut [f32], ctx: KeyCtx) {
        rms_norm_inplace(k, &self.k_gamma, self.eps);
        if let Some(r) = &self.rope {
            r.apply(k, ctx.kv_pos);
        }
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        ctx.causally_visible()
    }
}

/// Causal attention over a *compressed* KV cache: queries and keys arrive
/// in a low-rank latent space of width `head_dim` (the storage dim) and
/// are up-projected inside the kernel by per-head matrices before the dot
/// product — the bandwidth-for-FLOPs trade of latent-KV attention.
///
/// The projection matrices are row-major `[head_dim, head_dim]` (square
/// here; the storage dim equals the kernel's head_dim, the up-projection
/// mixes it), one per KV head for keys and per QO head for queries.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedAttention {
    /// Per-QO-head query up-projections, each `[d, d]` row-major.
    pub q_proj: Vec<Vec<f32>>,
    /// Per-KV-head key up-projections.
    pub k_proj: Vec<Vec<f32>>,
    /// Head dimension.
    pub head_dim: usize,
}

impl ProjectedAttention {
    fn project(m: &[f32], x: &mut [f32], d: usize) {
        let input = x.to_vec();
        for (o, xo) in x.iter_mut().enumerate() {
            let row = &m[o * d..(o + 1) * d];
            *xo = fi_tensor::numerics::dot(row, &input);
        }
    }
}

impl AttentionVariant for ProjectedAttention {
    fn name(&self) -> &str {
        "projected_latent"
    }

    fn query_transform(&self, _params: &VariantParams, q: &mut [f32], ctx: QueryCtx) {
        Self::project(&self.q_proj[ctx.qo_head_idx], q, self.head_dim);
    }

    fn key_transform(&self, _params: &VariantParams, k: &mut [f32], ctx: KeyCtx) {
        Self::project(&self.k_proj[ctx.kv_head_idx], k, self.head_dim);
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        ctx.causally_visible()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeadConfig;
    use crate::kernel::{AttentionProblem, FlashKernel};
    use crate::reference::reference_attention;
    use crate::scratch::KernelScratch;
    use crate::tiles::TileConfig;
    use crate::variant::VanillaAttention;
    use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
    use fi_tensor::numerics::allclose;
    use fi_tensor::{RaggedTensor, Tensor};

    fn mix(i: usize, s: u64) -> f32 {
        let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s);
        ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    }

    fn dense_layout(rows: usize, kv: usize, bc: usize) -> BlockSparseMatrix {
        let entries: Vec<BlockEntry> = (0..kv.div_ceil(bc))
            .map(|c| BlockEntry {
                col_block: c,
                len: bc.min(kv - c * bc),
            })
            .collect();
        BlockSparseMatrix::new(rows, kv, bc, vec![(0, rows, entries)]).unwrap()
    }

    #[test]
    fn qk_norm_kernel_matches_reference() {
        let heads = HeadConfig::new(2, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let mut v = QkNormAttention::unit(8);
        v.q_gamma = (0..8).map(|i| 0.8 + i as f32 * 0.05).collect();
        v.k_gamma = (0..8).map(|i| 1.2 - i as f32 * 0.03).collect();
        v.rope = Some(RotaryEmbedding::new(8, 10_000.0));
        let l_kv = 12;
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[3], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 1);
        }
        let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 2));
        let val = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 3));
        let layout = dense_layout(3, l_kv, 4);
        let problem =
            AttentionProblem::standard_batch(&q, &k, &val, &layout, heads, &[l_kv]).unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 3, tkv: 4 },
            head_fusion: true,
        };
        let out = kern
            .run_with_scratch(&problem, &v, &params, &mut KernelScratch::new())
            .unwrap();
        let r = reference_attention(
            &v,
            &params,
            heads,
            0,
            q.seq(0),
            k.as_slice(),
            val.as_slice(),
        );
        assert!(allclose(out.o.seq(0), &r.o, 1e-4, 1e-5));
    }

    #[test]
    fn qk_norm_equals_prenormalized_vanilla() {
        // Fusing the norm must equal normalizing inputs up front and
        // running vanilla attention (values untouched).
        let heads = HeadConfig::new(1, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let v = QkNormAttention::unit(4);
        let l_kv = 6;
        let q_raw: Vec<f32> = (0..4).map(|i| mix(i, 7) * 3.0).collect();
        let k_raw: Vec<f32> = (0..l_kv * 4).map(|i| mix(i, 8) * 2.0).collect();
        let vals: Vec<f32> = (0..l_kv * 4).map(|i| mix(i, 9)).collect();

        let fused = reference_attention(&v, &params, heads, 0, &q_raw, &k_raw, &vals);

        let mut q_pre = q_raw.clone();
        rms_norm_inplace(&mut q_pre, &v.q_gamma, v.eps);
        let mut k_pre = k_raw.clone();
        for row in k_pre.chunks_mut(4) {
            rms_norm_inplace(row, &v.k_gamma, v.eps);
        }
        let plain = reference_attention(
            &VanillaAttention { causal: true },
            &params,
            heads,
            0,
            &q_pre,
            &k_pre,
            &vals,
        );
        assert!(allclose(&fused.o, &plain.o, 1e-5, 1e-6));
    }

    #[test]
    fn projected_kernel_matches_reference_and_explicit_projection() {
        let heads = HeadConfig::new(2, 2, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let d = 4usize;
        let proj = |salt: u64| -> Vec<Vec<f32>> {
            (0..2)
                .map(|h| (0..d * d).map(|i| mix(i + h * 100, salt) * 0.5).collect())
                .collect()
        };
        let v = ProjectedAttention {
            q_proj: proj(21),
            k_proj: proj(22),
            head_dim: d,
        };
        let l_kv = 8;
        let mut q = RaggedTensor::<f32>::from_seq_lens(&[2], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 4);
        }
        let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 5));
        let vals = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| mix(i, 6));
        let layout = dense_layout(2, l_kv, 4);
        let problem =
            AttentionProblem::standard_batch(&q, &k, &vals, &layout, heads, &[l_kv]).unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 2, tkv: 4 },
            head_fusion: true,
        };
        let out = kern
            .run_with_scratch(&problem, &v, &params, &mut KernelScratch::new())
            .unwrap();
        let r = reference_attention(
            &v,
            &params,
            heads,
            0,
            q.seq(0),
            k.as_slice(),
            vals.as_slice(),
        );
        assert!(allclose(out.o.seq(0), &r.o, 1e-4, 1e-5));

        // Equivalence with explicit pre-projection + vanilla attention.
        let mut q_pre = q.clone();
        for row in 0..2 {
            for h in 0..2 {
                let s = q_pre.global_row_mut(row);
                ProjectedAttention::project(&v.q_proj[h], &mut s[h * d..(h + 1) * d], d);
            }
        }
        let mut k_pre = k.clone();
        for slot in 0..l_kv {
            for h in 0..2 {
                let s = k_pre.row_mut(slot);
                ProjectedAttention::project(&v.k_proj[h], &mut s[h * d..(h + 1) * d], d);
            }
        }
        let plain = reference_attention(
            &VanillaAttention { causal: true },
            &params,
            heads,
            0,
            q_pre.seq(0),
            k_pre.as_slice(),
            vals.as_slice(),
        );
        assert!(allclose(&r.o, &plain.o, 1e-5, 1e-6));
    }
}
