//! Customizable attention variants (§3.2.3).
//!
//! FlashInfer keeps one kernel skeleton and specializes it with *functors*
//! supplied by the variant: transformations of the query/key/value rows, a
//! transformation and mask of each logit, an output transformation, and a
//! softmax on/off switch. This module defines those hook points as the
//! [`AttentionVariant`] trait — the Rust analog of the CUDA variant class
//! in Figure 5 — and implements the paper's menu:
//!
//! | Paper feature | Type |
//! |---|---|
//! | vanilla / causal attention | [`VanillaAttention`] |
//! | sliding window + attention sinks (Streaming-LLM, §4.3) | [`SlidingWindowAttention`] |
//! | logits soft-cap (Gemma-2, Grok-1) | [`SoftCapAttention`] |
//! | FlashSigmoid (softmax-free) | [`SigmoidAttention`] |
//! | fused RoPE on Q/K (§4.3) | [`FusedRopeAttention`] |
//! | custom / tree masks (speculative decoding) | [`CustomMaskAttention`] |
//! | ALiBi positional bias | [`AlibiAttention`] |
//!
//! Every hook receives a context carrying the same indices the CUDA functor
//! signature takes (`batch_idx, qo_idx, kv_idx, qo_head_idx, kv_head_idx`)
//! plus the request's query/KV lengths, which the CUDA side derives from
//! the indptr arrays.

use std::collections::BTreeMap;

use fi_sparse::CsrMatrix;

use crate::rope::RotaryEmbedding;

/// Runtime parameters visible to all hooks — the analog of the JIT
/// template's "additional variables" (Figure 5): a required softmax scale
/// plus named extras.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VariantParams {
    /// Softmax scale (usually `1/sqrt(head_dim)`).
    pub sm_scale: f32,
    /// Named extra scalars (the generated `scale`, `bias`, ... variables).
    pub extra: BTreeMap<String, f32>,
}

impl VariantParams {
    /// Params with the conventional `1/sqrt(head_dim)` scale and no extras.
    pub fn for_head_dim(head_dim: usize) -> VariantParams {
        VariantParams {
            sm_scale: 1.0 / (head_dim as f32).sqrt(),
            extra: BTreeMap::new(),
        }
    }

    /// Look up an extra parameter, defaulting to 0.
    pub fn extra(&self, name: &str) -> f32 {
        self.extra.get(name).copied().unwrap_or(0.0)
    }

    /// Builder-style extra insertion.
    pub fn with_extra(mut self, name: &str, value: f32) -> VariantParams {
        self.extra.insert(name.to_owned(), value);
        self
    }
}

impl Default for VariantParams {
    fn default() -> Self {
        VariantParams {
            sm_scale: 1.0,
            extra: BTreeMap::new(),
        }
    }
}

/// Context for query-side hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCtx {
    /// Request index within the batch.
    pub batch_idx: usize,
    /// Query index within the request, `0..qo_len`.
    pub qo_pos: usize,
    /// Query head index, `0..num_qo_heads`.
    pub qo_head_idx: usize,
    /// Request query length.
    pub qo_len: usize,
    /// Request KV length.
    pub kv_len: usize,
}

impl QueryCtx {
    /// Absolute timeline position of this query: the query tokens are the
    /// last `qo_len` positions of the KV sequence.
    pub fn absolute_pos(&self) -> usize {
        self.kv_len - self.qo_len + self.qo_pos
    }
}

/// Context for key/value-side hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyCtx {
    /// Request index within the batch.
    pub batch_idx: usize,
    /// KV position within the request, `0..kv_len` (cache order).
    pub kv_pos: usize,
    /// KV head index, `0..num_kv_heads`.
    pub kv_head_idx: usize,
    /// Request KV length.
    pub kv_len: usize,
}

/// Context for per-logit hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogitCtx {
    /// Request index within the batch.
    pub batch_idx: usize,
    /// Query index within the request.
    pub qo_pos: usize,
    /// KV position within the request.
    pub kv_pos: usize,
    /// Query head index.
    pub qo_head_idx: usize,
    /// KV head index.
    pub kv_head_idx: usize,
    /// Request query length.
    pub qo_len: usize,
    /// Request KV length.
    pub kv_len: usize,
}

impl LogitCtx {
    /// Absolute timeline position of the query (see [`QueryCtx::absolute_pos`]).
    pub fn absolute_qo_pos(&self) -> usize {
        self.kv_len - self.qo_len + self.qo_pos
    }

    /// Causal visibility: the KV position is at or before the query's
    /// absolute position.
    pub fn causally_visible(&self) -> bool {
        self.kv_pos <= self.absolute_qo_pos()
    }
}

/// An attention variant: the set of functors that specialize the kernel
/// template. All hooks default to the identity (vanilla non-causal
/// attention with softmax and `sm_scale` applied to the logits).
///
/// Implementations must be deterministic pure functions of their inputs —
/// the scheduler may replay them in any tiling.
pub trait AttentionVariant: Send + Sync {
    /// Name used in kernel-cache keys and generated source.
    fn name(&self) -> &str;

    /// Whether logits go through online softmax (`true`) or are used
    /// directly as weights with summation composition (`false`).
    fn use_softmax(&self) -> bool {
        true
    }

    /// Transform the query row (one head, length `head_dim`) before use.
    fn query_transform(&self, params: &VariantParams, q: &mut [f32], ctx: QueryCtx) {
        let _ = (params, q, ctx);
    }

    /// Transform the key row before use.
    fn key_transform(&self, params: &VariantParams, k: &mut [f32], ctx: KeyCtx) {
        let _ = (params, k, ctx);
    }

    /// Transform the value row before accumulation.
    fn value_transform(&self, params: &VariantParams, v: &mut [f32], ctx: KeyCtx) {
        let _ = (params, v, ctx);
    }

    /// Transform a raw `q·k` logit. The default applies `sm_scale`.
    fn logits_transform(&self, params: &VariantParams, logit: f32, ctx: LogitCtx) -> f32 {
        let _ = ctx;
        logit * params.sm_scale
    }

    /// Visibility mask: `false` removes the pair from the index set.
    fn logits_mask(&self, params: &VariantParams, ctx: LogitCtx) -> bool {
        let _ = (params, ctx);
        true
    }

    /// Mask and transform one row of raw logits in place: `logits[j]` is
    /// the `q·k` of the pair at `first` with `kv_pos` advanced by `j`, and
    /// becomes `NEG_INFINITY` where [`AttentionVariant::logits_mask`]
    /// removes the pair, else its
    /// [`AttentionVariant::logits_transform`] (never called on a masked
    /// pair).
    ///
    /// This is what the kernel calls — once per (query row, head, KV
    /// chunk) — so that behind a `dyn AttentionVariant` the two per-logit
    /// hooks are dispatched statically and inlined. Implement those;
    /// leave this body alone.
    fn logits_row(&self, params: &VariantParams, first: LogitCtx, logits: &mut [f32]) {
        for (j, logit) in logits.iter_mut().enumerate() {
            let ctx = LogitCtx {
                kv_pos: first.kv_pos + j,
                ..first
            };
            *logit = if self.logits_mask(params, ctx) {
                self.logits_transform(params, *logit, ctx)
            } else {
                f32::NEG_INFINITY
            };
        }
    }

    /// `true` promises that [`AttentionVariant::key_transform`] and
    /// [`AttentionVariant::value_transform`] change nothing, which lets
    /// the kernel read f32 KV rows in place from the pool instead of
    /// staging a copy for the transforms to write into. The default makes
    /// no promise, so a variant that does not say is staged.
    fn kv_transforms_are_identity(&self) -> bool {
        false
    }

    /// Transform the final (normalized) output row.
    fn output_transform(&self, params: &VariantParams, o: &mut [f32], ctx: QueryCtx) {
        let _ = (params, o, ctx);
    }
}

/// Vanilla softmax attention, optionally causal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VanillaAttention {
    /// Apply the causal mask (standard for LLM serving, §4.2).
    pub causal: bool,
}

impl AttentionVariant for VanillaAttention {
    fn name(&self) -> &str {
        if self.causal {
            "vanilla_causal"
        } else {
            "vanilla"
        }
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        !self.causal || ctx.causally_visible()
    }

    fn kv_transforms_are_identity(&self) -> bool {
        true
    }
}

/// Sliding-window attention with optional attention sinks — the
/// Streaming-LLM access pattern (§4.3): a query sees the first
/// `sink_tokens` positions and the most recent `window` positions, all
/// causally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlidingWindowAttention {
    /// Recent-window size (number of most recent visible positions).
    pub window: usize,
    /// Always-visible prefix (attention sinks). 0 = plain Longformer-style
    /// sliding window.
    pub sink_tokens: usize,
}

impl AttentionVariant for SlidingWindowAttention {
    fn name(&self) -> &str {
        "sliding_window"
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        if !ctx.causally_visible() {
            return false;
        }
        let q = ctx.absolute_qo_pos();
        ctx.kv_pos < self.sink_tokens || q - ctx.kv_pos < self.window
    }

    fn kv_transforms_are_identity(&self) -> bool {
        true
    }
}

/// Logits soft-capping, as used by Gemma-2 and Grok-1:
/// `logit <- cap * tanh(scale * logit / cap)`, causal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftCapAttention {
    /// The cap value (e.g. 50.0 in Gemma-2 attention).
    pub cap: f32,
}

impl AttentionVariant for SoftCapAttention {
    fn name(&self) -> &str {
        "soft_cap"
    }

    fn logits_transform(&self, params: &VariantParams, logit: f32, _ctx: LogitCtx) -> f32 {
        self.cap * (logit * params.sm_scale / self.cap).tanh()
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        ctx.causally_visible()
    }

    fn kv_transforms_are_identity(&self) -> bool {
        true
    }
}

/// FlashSigmoid: softmax-free attention where each weight is
/// `sigmoid(scale * logit + bias)` (Figure 5's running example), causal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SigmoidAttention;

impl AttentionVariant for SigmoidAttention {
    fn name(&self) -> &str {
        "flash_sigmoid"
    }

    fn use_softmax(&self) -> bool {
        false
    }

    fn logits_transform(&self, params: &VariantParams, logit: f32, _ctx: LogitCtx) -> f32 {
        let bias = params.extra("bias");
        1.0 / (1.0 + (-(logit * params.sm_scale + bias)).exp())
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        ctx.causally_visible()
    }

    fn kv_transforms_are_identity(&self) -> bool {
        true
    }
}

/// Causal attention with RoPE fused into the kernel: Q and K are rotated by
/// their (cache) positions inside the query/key transforms, exactly the
/// fused kernel Streaming-LLM needs (§4.3). `rotate_by_cache_pos` selects
/// the Streaming-LLM convention (rotate by position *in the cache*, which
/// differs from the token's original index after sink eviction).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedRopeAttention {
    /// The rotary table.
    pub rope: RotaryEmbedding,
}

impl FusedRopeAttention {
    /// Create with standard theta for the given head dimension.
    pub fn new(head_dim: usize) -> FusedRopeAttention {
        FusedRopeAttention {
            rope: RotaryEmbedding::new(head_dim, 10_000.0),
        }
    }
}

impl AttentionVariant for FusedRopeAttention {
    fn name(&self) -> &str {
        "fused_rope"
    }

    fn query_transform(&self, _params: &VariantParams, q: &mut [f32], ctx: QueryCtx) {
        self.rope.apply(q, ctx.absolute_pos());
    }

    fn key_transform(&self, _params: &VariantParams, k: &mut [f32], ctx: KeyCtx) {
        self.rope.apply(k, ctx.kv_pos);
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        ctx.causally_visible()
    }
}

/// Attention with an arbitrary per-request element mask (tree attention for
/// speculative decoding, importance masks, ...). `masks[batch_idx]` is a
/// `qo_len × kv_len` CSR matrix; a pair is visible iff its entry is set.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomMaskAttention {
    /// One mask per request in batch order.
    pub masks: Vec<CsrMatrix>,
}

impl AttentionVariant for CustomMaskAttention {
    fn name(&self) -> &str {
        "custom_mask"
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        let m = &self.masks[ctx.batch_idx];
        // Out-of-shape pairs (mask smaller than the layout) are invisible.
        ctx.qo_pos < m.rows() && ctx.kv_pos < m.cols() && m.is_nonzero(ctx.qo_pos, ctx.kv_pos)
    }

    fn kv_transforms_are_identity(&self) -> bool {
        true
    }
}

/// ALiBi: causal attention with a per-head linear distance bias
/// `-slope_h * (q_pos - kv_pos)`. Slopes follow the standard geometric
/// sequence for `num_heads`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlibiAttention {
    slopes: Vec<f32>,
}

impl AlibiAttention {
    /// Standard ALiBi slopes: `2^(-8i/n)` for head `i` of `n`.
    pub fn new(num_heads: usize) -> AlibiAttention {
        let slopes = (1..=num_heads)
            .map(|i| 2.0f32.powf(-8.0 * i as f32 / num_heads as f32))
            .collect();
        AlibiAttention { slopes }
    }

    /// The slope of a head.
    ///
    /// # Panics
    ///
    /// Panics if `head >= num_heads`.
    pub fn slope(&self, head: usize) -> f32 {
        self.slopes[head]
    }
}

impl AttentionVariant for AlibiAttention {
    fn name(&self) -> &str {
        "alibi"
    }

    fn logits_transform(&self, params: &VariantParams, logit: f32, ctx: LogitCtx) -> f32 {
        let dist = (ctx.absolute_qo_pos() - ctx.kv_pos) as f32;
        logit * params.sm_scale - self.slopes[ctx.qo_head_idx] * dist
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        ctx.causally_visible()
    }

    fn kv_transforms_are_identity(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lctx(qo_pos: usize, kv_pos: usize, qo_len: usize, kv_len: usize) -> LogitCtx {
        LogitCtx {
            batch_idx: 0,
            qo_pos,
            kv_pos,
            qo_head_idx: 0,
            kv_head_idx: 0,
            qo_len,
            kv_len,
        }
    }

    #[test]
    fn causal_mask_boundaries() {
        let v = VanillaAttention { causal: true };
        let p = VariantParams::default();
        // Query 0 of 2 over kv_len 5 has absolute position 3.
        assert!(v.logits_mask(&p, lctx(0, 3, 2, 5)));
        assert!(!v.logits_mask(&p, lctx(0, 4, 2, 5)));
        assert!(v.logits_mask(&p, lctx(1, 4, 2, 5)));
        // Non-causal sees everything.
        let nc = VanillaAttention { causal: false };
        assert!(nc.logits_mask(&p, lctx(0, 4, 2, 5)));
    }

    #[test]
    fn default_logits_transform_scales() {
        let v = VanillaAttention::default();
        let p = VariantParams {
            sm_scale: 0.5,
            extra: BTreeMap::new(),
        };
        assert_eq!(v.logits_transform(&p, 4.0, lctx(0, 0, 1, 1)), 2.0);
    }

    #[test]
    fn sliding_window_with_sinks() {
        let v = SlidingWindowAttention {
            window: 2,
            sink_tokens: 1,
        };
        let p = VariantParams::default();
        // Decode: 1 query, kv_len 6, absolute pos 5.
        assert!(v.logits_mask(&p, lctx(0, 0, 1, 6))); // sink
        assert!(!v.logits_mask(&p, lctx(0, 1, 1, 6))); // evicted middle
        assert!(!v.logits_mask(&p, lctx(0, 3, 1, 6)));
        assert!(v.logits_mask(&p, lctx(0, 4, 1, 6))); // within window
        assert!(v.logits_mask(&p, lctx(0, 5, 1, 6))); // self
    }

    #[test]
    fn soft_cap_saturates() {
        let v = SoftCapAttention { cap: 10.0 };
        let p = VariantParams {
            sm_scale: 1.0,
            extra: BTreeMap::new(),
        };
        let big = v.logits_transform(&p, 1e6, lctx(0, 0, 1, 1));
        assert!((big - 10.0).abs() < 1e-3);
        let small = v.logits_transform(&p, 0.1, lctx(0, 0, 1, 1));
        assert!((small - 0.1).abs() < 1e-4); // tanh(x) ~ x for small x
    }

    #[test]
    fn sigmoid_weights_in_unit_interval() {
        let v = SigmoidAttention;
        assert!(!v.use_softmax());
        let p = VariantParams {
            sm_scale: 1.0,
            extra: BTreeMap::new(),
        }
        .with_extra("bias", -1.0);
        for logit in [-100.0f32, -1.0, 0.0, 1.0, 100.0] {
            let w = v.logits_transform(&p, logit, lctx(0, 0, 1, 1));
            assert!((0.0..=1.0).contains(&w));
        }
        // bias shifts the midpoint: logit 1.0 with bias -1.0 gives 0.5.
        assert!((v.logits_transform(&p, 1.0, lctx(0, 0, 1, 1)) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn fused_rope_changes_q_and_k_consistently() {
        let v = FusedRopeAttention::new(4);
        let p = VariantParams::default();
        let mut q = vec![1.0, 2.0, 3.0, 4.0];
        let q0 = q.clone();
        // Absolute position 0 (qo_pos 0, qo_len 1, kv_len 1): identity.
        v.query_transform(
            &p,
            &mut q,
            QueryCtx {
                batch_idx: 0,
                qo_pos: 0,
                qo_head_idx: 0,
                qo_len: 1,
                kv_len: 1,
            },
        );
        assert_eq!(q, q0);
        // Nonzero position rotates.
        v.query_transform(
            &p,
            &mut q,
            QueryCtx {
                batch_idx: 0,
                qo_pos: 0,
                qo_head_idx: 0,
                qo_len: 1,
                kv_len: 9,
            },
        );
        assert_ne!(q, q0);
    }

    #[test]
    fn custom_mask_lookup() {
        let mask = CsrMatrix::from_entries(1, 3, &[(0, 0), (0, 2)]).unwrap();
        let v = CustomMaskAttention { masks: vec![mask] };
        let p = VariantParams::default();
        assert!(v.logits_mask(&p, lctx(0, 0, 1, 3)));
        assert!(!v.logits_mask(&p, lctx(0, 1, 1, 3)));
        assert!(v.logits_mask(&p, lctx(0, 2, 1, 3)));
        // Past the mask shape: invisible.
        assert!(!v.logits_mask(&p, lctx(0, 5, 1, 6)));
    }

    #[test]
    fn alibi_bias_monotone_in_distance() {
        let v = AlibiAttention::new(8);
        let p = VariantParams {
            sm_scale: 1.0,
            extra: BTreeMap::new(),
        };
        // Same raw logit, increasing distance -> decreasing transformed logit.
        let near = v.logits_transform(&p, 0.0, lctx(0, 7, 1, 8));
        let far = v.logits_transform(&p, 0.0, lctx(0, 0, 1, 8));
        assert!(near > far);
        // Slopes decrease geometrically.
        assert!(v.slope(0) > v.slope(7));
        assert!((v.slope(0) - 2f32.powf(-1.0)).abs() < 1e-6);
    }

    #[test]
    fn logits_row_masks_then_transforms_each_position() {
        let v = SoftCapAttention { cap: 4.0 };
        let p = VariantParams::for_head_dim(16);
        // Query 0 of 2 over kv_len 6 sits at absolute position 4; the row
        // starts at kv_pos 3, so its last entry (kv_pos 5) is masked.
        let first = lctx(0, 3, 2, 6);
        let raw = [0.8f32, -1.3, 2.1];
        let mut row = raw;
        v.logits_row(&p, first, &mut row);
        for (j, (&got, &x)) in row.iter().zip(&raw).enumerate() {
            let ctx = lctx(0, 3 + j, 2, 6);
            let want = if v.logits_mask(&p, ctx) {
                v.logits_transform(&p, x, ctx)
            } else {
                f32::NEG_INFINITY
            };
            assert_eq!(got.to_bits(), want.to_bits(), "position {j}");
        }
        assert_eq!(row[2], f32::NEG_INFINITY);
    }

    #[test]
    fn only_rope_rewrites_kv_rows() {
        assert!(VanillaAttention { causal: true }.kv_transforms_are_identity());
        assert!(SigmoidAttention.kv_transforms_are_identity());
        assert!(AlibiAttention::new(4).kv_transforms_are_identity());
        assert!(!FusedRopeAttention::new(8).kv_transforms_are_identity());
    }

    #[test]
    fn params_extras() {
        let p = VariantParams::for_head_dim(64).with_extra("bias", 2.5);
        assert!((p.sm_scale - 0.125).abs() < 1e-6);
        assert_eq!(p.extra("bias"), 2.5);
        assert_eq!(p.extra("missing"), 0.0);
    }
}
