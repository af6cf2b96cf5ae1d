//! The JIT specialization layer (§3.2.3, Figure 5).
//!
//! In the real system a variant is a CUDA class whose functors are spliced
//! into the kernel template, compiled by NVRTC via PyTorch's extension
//! loader, and cached. This module reproduces that pipeline's *structure*:
//!
//! * [`VariantSpec`] — the declarative specification: named extra
//!   parameters, a pipeline of logits operations, a mask clause, optional
//!   fused RoPE, and the softmax switch. The spec is the input a DSL
//!   front-end (FlexAttention-style) would target.
//! * [`VariantSpec::build`] — "compilation": produces a [`JitVariant`]
//!   whose hooks interpret the pipeline. In Rust the analog of template
//!   instantiation is monomorphization; the interpreter stands in for the
//!   generated PTX while keeping semantics bit-identical to the built-in
//!   variants.
//! * [`VariantSpec::render_cuda`] — the code generator: emits the CUDA-like
//!   source the real JIT would hand to NVRTC, with the variant functors
//!   spliced into the `KernelTemplate` skeleton. Rendered source is exact
//!   enough to diff in tests.
//! * [`KernelCache`] — compile-once semantics keyed by (variant, dtypes,
//!   head dim, tile), with hit/miss counters; `plan`-time code paths check
//!   this cache exactly like `AttentionWrapper.__init__` does.
//! * [`ClosureVariant`] — the escape hatch: arbitrary user closures for
//!   each hook (the analog of hand-written CUDA bodies in the spec string).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::AttentionError;
use crate::rope::RotaryEmbedding;
use crate::tiles::TileConfig;
use crate::variant::{AttentionVariant, KeyCtx, LogitCtx, QueryCtx, VariantParams};
use fi_tensor::DType;

/// One step of the logits pipeline. Steps execute in order on the raw
/// `q·k` value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LogitsOp {
    /// Multiply by `params.sm_scale`.
    Scale,
    /// Add a named extra parameter.
    AddParam(String),
    /// Multiply by a named extra parameter.
    MulParam(String),
    /// Soft-cap: `x <- cap * tanh(x / cap)` with `cap` a named parameter.
    SoftCap(String),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl LogitsOp {
    fn apply(&self, x: f32, params: &VariantParams) -> f32 {
        match self {
            LogitsOp::Scale => x * params.sm_scale,
            LogitsOp::AddParam(p) => x + params.extra(p),
            LogitsOp::MulParam(p) => x * params.extra(p),
            LogitsOp::SoftCap(p) => {
                let cap = params.extra(p);
                cap * (x / cap).tanh()
            }
            LogitsOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            LogitsOp::Tanh => x.tanh(),
        }
    }

    fn cuda_expr(&self, acc: &str) -> String {
        match self {
            LogitsOp::Scale => format!("({acc}) * params.sm_scale"),
            LogitsOp::AddParam(p) => format!("({acc}) + params.{p}"),
            LogitsOp::MulParam(p) => format!("({acc}) * params.{p}"),
            LogitsOp::SoftCap(p) => format!("params.{p} * tanhf(({acc}) / params.{p})"),
            LogitsOp::Sigmoid => format!("1.f / (1.f + __expf(-({acc})))"),
            LogitsOp::Tanh => format!("tanhf({acc})"),
        }
    }
}

/// The mask clause of a spec.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum MaskSpec {
    /// No masking.
    None,
    /// Standard causal mask.
    Causal,
    /// Causal sliding window with attention sinks (window and sink sizes
    /// are compile-time constants of the generated kernel).
    SlidingWindow {
        /// Recent-window size.
        window: usize,
        /// Always-visible prefix.
        sink_tokens: usize,
    },
}

impl MaskSpec {
    fn visible(&self, ctx: LogitCtx) -> bool {
        match self {
            MaskSpec::None => true,
            MaskSpec::Causal => ctx.causally_visible(),
            MaskSpec::SlidingWindow {
                window,
                sink_tokens,
            } => {
                ctx.causally_visible()
                    && (ctx.kv_pos < *sink_tokens || ctx.absolute_qo_pos() - ctx.kv_pos < *window)
            }
        }
    }

    fn cuda_expr(&self) -> String {
        match self {
            MaskSpec::None => "true".into(),
            MaskSpec::Causal => "kv_idx <= kv_len - qo_len + qo_idx".into(),
            MaskSpec::SlidingWindow { window, sink_tokens } => format!(
                "kv_idx <= kv_len - qo_len + qo_idx && (kv_idx < {sink_tokens} || (kv_len - qo_len + qo_idx) - kv_idx < {window})"
            ),
        }
    }
}

/// Declarative variant specification — the JIT compiler's input.
///
/// ```
/// use fi_core::jit::{LogitsOp, VariantSpec};
///
/// # fn main() -> Result<(), fi_core::AttentionError> {
/// // FlashSigmoid (Figure 5): sigmoid(logit * scale + bias), no softmax.
/// let spec = VariantSpec::new("flash_sigmoid")
///     .softmax(false)
///     .extra_param("bias")
///     .logits_op(LogitsOp::Scale)
///     .logits_op(LogitsOp::AddParam("bias".into()))
///     .logits_op(LogitsOp::Sigmoid);
/// let variant = spec.build()?;
/// let source = spec.render_cuda(fi_tensor::DType::F16, 128);
/// assert!(source.contains("LogitsTransform"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VariantSpec {
    name: String,
    use_softmax: bool,
    logits_ops: Vec<LogitsOp>,
    mask: MaskSpec,
    /// Fused RoPE on Q and K with this theta (None = off).
    rope_theta: Option<f32>,
    extra_params: Vec<String>,
}

impl VariantSpec {
    /// Start a spec with the default pipeline (scale only, causal softmax).
    pub fn new(name: &str) -> VariantSpec {
        VariantSpec {
            name: name.to_owned(),
            use_softmax: true,
            logits_ops: Vec::new(),
            mask: MaskSpec::Causal,
            rope_theta: None,
            extra_params: Vec::new(),
        }
    }

    /// Set the softmax switch.
    pub fn softmax(mut self, on: bool) -> VariantSpec {
        self.use_softmax = on;
        self
    }

    /// Append a logits operation.
    pub fn logits_op(mut self, op: LogitsOp) -> VariantSpec {
        self.logits_ops.push(op);
        self
    }

    /// Set the mask clause.
    pub fn mask(mut self, mask: MaskSpec) -> VariantSpec {
        self.mask = mask;
        self
    }

    /// Enable fused RoPE on Q/K.
    pub fn fused_rope(mut self, theta: f32) -> VariantSpec {
        self.rope_theta = Some(theta);
        self
    }

    /// Declare a named extra parameter (a generated "additional variable").
    pub fn extra_param(mut self, name: &str) -> VariantSpec {
        self.extra_params.push(name.to_owned());
        self
    }

    /// The spec name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compile into an executable variant.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidVariant`] if an op references an
    /// undeclared parameter.
    pub fn build(&self) -> Result<JitVariant, AttentionError> {
        for op in &self.logits_ops {
            let p = match op {
                LogitsOp::AddParam(p) | LogitsOp::MulParam(p) | LogitsOp::SoftCap(p) => Some(p),
                _ => None,
            };
            if let Some(p) = p {
                if !self.extra_params.contains(p) {
                    return Err(AttentionError::InvalidVariant(format!(
                        "logits op references undeclared parameter `{p}`"
                    )));
                }
            }
        }
        Ok(JitVariant {
            spec: self.clone(),
            rope: self.rope_theta.map(|_| std::sync::OnceLock::new()),
        })
    }

    /// Render the CUDA-like source the real JIT would compile — the
    /// analogue of Figure 5's populated template.
    pub fn render_cuda(&self, kv_dtype: DType, head_dim: usize) -> String {
        let mut logit = String::from("logits");
        for op in &self.logits_ops {
            logit = op.cuda_expr(&logit);
        }
        let extra_decls: String = self
            .extra_params
            .iter()
            .map(|p| format!("  float {p};\n"))
            .collect();
        let rope_q = if self.rope_theta.is_some() {
            "    apply_llama_rope(q_vec, kv_len - qo_len + qo_idx);\n"
        } else {
            ""
        };
        let rope_k = if self.rope_theta.is_some() {
            "    apply_llama_rope(k_vec, kv_idx);\n"
        } else {
            ""
        };
        format!(
            r#"// Generated by flashinfer-rs JIT for variant `{name}`
template <typename KernelTraits>
struct {struct_name} {{
  static constexpr bool use_softmax = {softmax};
  static constexpr uint32_t HEAD_DIM = {head_dim};
  using DTypeKV = {kv_ty};

  struct Params {{
    DTypeKV *k, *v;
    float sm_scale;
{extra_decls}    int32_t *qo_indptr, *kv_indptr, *kv_indices, *kv_last_page_len;
  }};

  __device__ __forceinline__ void QueryTransform(const Params& params, float* q_vec,
      int batch_idx, int qo_idx, int qo_head_idx, int qo_len, int kv_len) {{
{rope_q}  }}

  __device__ __forceinline__ void KeyTransform(const Params& params, float* k_vec,
      int batch_idx, int kv_idx, int kv_head_idx, int kv_len) {{
{rope_k}  }}

  __device__ __forceinline__ float LogitsTransform(const Params& params, float logits,
      int batch_idx, int qo_idx, int kv_idx, int qo_head_idx, int kv_head_idx,
      int qo_len, int kv_len) {{
    return {logit};
  }}

  __device__ __forceinline__ bool LogitsMask(const Params& params,
      int batch_idx, int qo_idx, int kv_idx, int qo_head_idx, int kv_head_idx,
      int qo_len, int kv_len) {{
    return {mask};
  }}
}};

TORCH_LIBRARY_IMPL("{name}", CUDA, m) {{
  m.impl("run", &attention_call<{struct_name}<KernelTraits>>);
}}
"#,
            name = self.name,
            struct_name = camel(&self.name),
            softmax = self.use_softmax,
            head_dim = head_dim,
            kv_ty = kv_dtype.cuda_name(),
            extra_decls = extra_decls,
            rope_q = rope_q,
            rope_k = rope_k,
            logit = logit,
            mask = self.mask.cuda_expr(),
        )
    }
}

fn camel(s: &str) -> String {
    s.split(['_', '-'])
        .map(|w| {
            let mut c = w.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                None => String::new(),
            }
        })
        .collect()
}

/// A compiled spec: interprets the pipeline through the standard hooks.
#[derive(Debug, Clone)]
pub struct JitVariant {
    spec: VariantSpec,
    /// Lazily-built rotary table (populated on first use).
    rope: Option<std::sync::OnceLock<RotaryEmbedding>>,
}

impl JitVariant {
    fn rope_for(&self, dim: usize) -> Option<&RotaryEmbedding> {
        let cell = self.rope.as_ref()?;
        Some(
            cell.get_or_init(|| {
                RotaryEmbedding::new(dim, self.spec.rope_theta.unwrap_or(10_000.0))
            }),
        )
    }
}

impl AttentionVariant for JitVariant {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn use_softmax(&self) -> bool {
        self.spec.use_softmax
    }

    fn query_transform(&self, _params: &VariantParams, q: &mut [f32], ctx: QueryCtx) {
        if let Some(rope) = self.rope_for(q.len()) {
            rope.apply(q, ctx.absolute_pos());
        }
    }

    fn key_transform(&self, _params: &VariantParams, k: &mut [f32], ctx: KeyCtx) {
        if let Some(rope) = self.rope_for(k.len()) {
            rope.apply(k, ctx.kv_pos);
        }
    }

    fn logits_transform(&self, params: &VariantParams, logit: f32, _ctx: LogitCtx) -> f32 {
        let mut x = logit;
        for op in &self.spec.logits_ops {
            x = op.apply(x, params);
        }
        x
    }

    fn logits_mask(&self, _params: &VariantParams, ctx: LogitCtx) -> bool {
        self.spec.mask.visible(ctx)
    }
}

/// Cache key: what the real JIT hashes to decide whether to recompile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Variant name.
    pub variant: String,
    /// Query/output dtype.
    pub dtype_q: DType,
    /// KV storage dtype.
    pub dtype_kv: DType,
    /// Head dimension.
    pub head_dim: usize,
    /// Tile configuration.
    pub tile: TileConfig,
}

/// Compile cache with hit/miss accounting.
///
/// Compilation here is spec interpretation setup (cheap), but the cache
/// reproduces the real system's behavior: the first `plan` for a new
/// configuration pays a compile, subsequent plans reuse.
#[derive(Debug, Default)]
pub struct KernelCache {
    inner: Mutex<KernelCacheInner>,
}

#[derive(Debug, Default)]
struct KernelCacheInner {
    compiled: HashMap<KernelKey, Arc<JitVariant>>,
    hits: u64,
    misses: u64,
}

impl KernelCache {
    /// Create an empty cache.
    pub fn new() -> KernelCache {
        KernelCache::default()
    }

    /// Poison is ignored: no panic can leave the map half-updated (at worst
    /// a counter lags one insert), so the cache stays usable after one.
    fn lock(&self) -> MutexGuard<'_, KernelCacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch the compiled variant for `key`, compiling `spec` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`VariantSpec::build`] errors.
    pub fn get_or_compile(
        &self,
        key: KernelKey,
        spec: &VariantSpec,
    ) -> Result<Arc<JitVariant>, AttentionError> {
        let mut inner = self.lock();
        if let Some(v) = inner.compiled.get(&key).map(Arc::clone) {
            inner.hits += 1;
            return Ok(v);
        }
        let v = Arc::new(spec.build()?);
        inner.compiled.insert(key, Arc::clone(&v));
        inner.misses += 1;
        Ok(v)
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Number of cached kernels.
    pub fn len(&self) -> usize {
        self.lock().compiled.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fully general variant from user closures — the analog of pasting raw
/// CUDA into the spec string.
#[allow(clippy::type_complexity)]
pub struct ClosureVariant {
    name: String,
    use_softmax: bool,
    /// Query transform hook.
    pub on_query: Option<Box<dyn Fn(&VariantParams, &mut [f32], QueryCtx) + Send + Sync>>,
    /// Key transform hook.
    pub on_key: Option<Box<dyn Fn(&VariantParams, &mut [f32], KeyCtx) + Send + Sync>>,
    /// Value transform hook.
    pub on_value: Option<Box<dyn Fn(&VariantParams, &mut [f32], KeyCtx) + Send + Sync>>,
    /// Logits transform hook.
    pub on_logits: Option<Box<dyn Fn(&VariantParams, f32, LogitCtx) -> f32 + Send + Sync>>,
    /// Mask hook.
    pub on_mask: Option<Box<dyn Fn(&VariantParams, LogitCtx) -> bool + Send + Sync>>,
    /// Output transform hook.
    pub on_output: Option<Box<dyn Fn(&VariantParams, &mut [f32], QueryCtx) + Send + Sync>>,
}

impl std::fmt::Debug for ClosureVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureVariant")
            .field("name", &self.name)
            .field("use_softmax", &self.use_softmax)
            .finish_non_exhaustive()
    }
}

impl ClosureVariant {
    /// Create with all hooks at their defaults.
    pub fn new(name: &str, use_softmax: bool) -> ClosureVariant {
        ClosureVariant {
            name: name.to_owned(),
            use_softmax,
            on_query: None,
            on_key: None,
            on_value: None,
            on_logits: None,
            on_mask: None,
            on_output: None,
        }
    }
}

impl AttentionVariant for ClosureVariant {
    fn name(&self) -> &str {
        &self.name
    }

    fn use_softmax(&self) -> bool {
        self.use_softmax
    }

    fn query_transform(&self, params: &VariantParams, q: &mut [f32], ctx: QueryCtx) {
        if let Some(f) = &self.on_query {
            f(params, q, ctx);
        }
    }

    fn key_transform(&self, params: &VariantParams, k: &mut [f32], ctx: KeyCtx) {
        if let Some(f) = &self.on_key {
            f(params, k, ctx);
        }
    }

    fn value_transform(&self, params: &VariantParams, v: &mut [f32], ctx: KeyCtx) {
        if let Some(f) = &self.on_value {
            f(params, v, ctx);
        }
    }

    fn logits_transform(&self, params: &VariantParams, logit: f32, ctx: LogitCtx) -> f32 {
        match &self.on_logits {
            Some(f) => f(params, logit, ctx),
            None => logit * params.sm_scale,
        }
    }

    fn logits_mask(&self, params: &VariantParams, ctx: LogitCtx) -> bool {
        match &self.on_mask {
            Some(f) => f(params, ctx),
            None => true,
        }
    }

    fn output_transform(&self, params: &VariantParams, o: &mut [f32], ctx: QueryCtx) {
        if let Some(f) = &self.on_output {
            f(params, o, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{SigmoidAttention, SoftCapAttention};

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

    fn sigmoid_spec() -> VariantSpec {
        VariantSpec::new("flash_sigmoid")
            .softmax(false)
            .extra_param("bias")
            .logits_op(LogitsOp::Scale)
            .logits_op(LogitsOp::AddParam("bias".into()))
            .logits_op(LogitsOp::Sigmoid)
    }

    #[test]
    fn spec_matches_builtin_sigmoid() {
        let jit = sigmoid_spec().build().unwrap();
        let builtin = SigmoidAttention;
        let p = VariantParams::for_head_dim(16).with_extra("bias", -0.7);
        assert_eq!(jit.use_softmax(), builtin.use_softmax());
        for raw in [-3.0f32, -0.1, 0.0, 2.5, 40.0] {
            let a = jit.logits_transform(&p, raw, lctx(0, 0, 1, 4));
            let b = builtin.logits_transform(&p, raw, lctx(0, 0, 1, 4));
            assert!((a - b).abs() < 1e-6, "raw {raw}: {a} vs {b}");
        }
        // Mask agrees with causal.
        assert_eq!(
            jit.logits_mask(&p, lctx(0, 3, 2, 5)),
            builtin.logits_mask(&p, lctx(0, 3, 2, 5))
        );
    }

    #[test]
    fn spec_matches_builtin_softcap() {
        let spec = VariantSpec::new("gemma_softcap")
            .extra_param("cap")
            .logits_op(LogitsOp::Scale)
            .logits_op(LogitsOp::SoftCap("cap".into()));
        let jit = spec.build().unwrap();
        let builtin = SoftCapAttention { cap: 30.0 };
        let p = VariantParams::for_head_dim(16).with_extra("cap", 30.0);
        for raw in [-100.0f32, -1.0, 0.0, 5.0, 1e5] {
            let a = jit.logits_transform(&p, raw, lctx(0, 0, 1, 1));
            let b = builtin.logits_transform(&p, raw, lctx(0, 0, 1, 1));
            assert!((a - b).abs() < 1e-4, "raw {raw}: {a} vs {b}");
        }
    }

    #[test]
    fn fused_rope_spec_matches_builtin() {
        let spec = VariantSpec::new("rope")
            .logits_op(LogitsOp::Scale)
            .fused_rope(10_000.0);
        let jit = spec.build().unwrap();
        let builtin = crate::variant::FusedRopeAttention::new(8);
        let p = VariantParams::for_head_dim(8);
        let ctx = QueryCtx {
            batch_idx: 0,
            qo_pos: 1,
            qo_head_idx: 0,
            qo_len: 2,
            kv_len: 7,
        };
        let mut a: Vec<f32> = (0..8).map(|i| i as f32 * 0.3).collect();
        let mut b = a.clone();
        jit.query_transform(&p, &mut a, ctx);
        builtin.query_transform(&p, &mut b, ctx);
        assert!(fi_tensor::numerics::allclose(&a, &b, 1e-6, 1e-7));
    }

    #[test]
    fn undeclared_param_rejected() {
        let spec = VariantSpec::new("bad").logits_op(LogitsOp::AddParam("nope".into()));
        assert!(matches!(
            spec.build(),
            Err(AttentionError::InvalidVariant(_))
        ));
    }

    #[test]
    fn rendered_source_contains_spliced_functors() {
        let src = sigmoid_spec().render_cuda(DType::F16, 128);
        assert!(src.contains("struct FlashSigmoid"));
        assert!(src.contains("float bias;"));
        assert!(src.contains("1.f / (1.f + __expf(-"));
        assert!(src.contains("params.sm_scale"));
        assert!(src.contains("half")); // dtype
        assert!(src.contains("HEAD_DIM = 128"));
        assert!(src.contains("use_softmax = false"));
        assert!(src.contains("TORCH_LIBRARY_IMPL(\"flash_sigmoid\""));
    }

    #[test]
    fn rendered_mask_clauses() {
        let causal = VariantSpec::new("v").render_cuda(DType::F16, 64);
        assert!(causal.contains("kv_idx <= kv_len - qo_len + qo_idx"));
        let sw = VariantSpec::new("v")
            .mask(MaskSpec::SlidingWindow {
                window: 4,
                sink_tokens: 2,
            })
            .render_cuda(DType::F16, 64);
        assert!(sw.contains("kv_idx < 2"));
        assert!(sw.contains("< 4"));
        let rope = VariantSpec::new("v")
            .fused_rope(1e4)
            .render_cuda(DType::F8E4M3, 64);
        assert!(rope.contains("apply_llama_rope"));
        assert!(rope.contains("__nv_fp8_e4m3"));
    }

    #[test]
    fn cache_compiles_once_per_key() {
        let cache = KernelCache::new();
        let spec = sigmoid_spec();
        let key = |dim: usize| KernelKey {
            variant: "flash_sigmoid".into(),
            dtype_q: DType::F16,
            dtype_kv: DType::F16,
            head_dim: dim,
            tile: TileConfig { tq: 16, tkv: 64 },
        };
        let a = cache.get_or_compile(key(128), &spec).unwrap();
        let b = cache.get_or_compile(key(128), &spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let _c = cache.get_or_compile(key(64), &spec).unwrap();
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn closure_variant_hooks_fire() {
        let mut v = ClosureVariant::new("custom", true);
        v.on_logits = Some(Box::new(|p, x, _| x * p.sm_scale + 1.0));
        v.on_mask = Some(Box::new(|_, ctx| ctx.kv_pos % 2 == 0));
        let p = VariantParams {
            sm_scale: 2.0,
            extra: Default::default(),
        };
        assert_eq!(v.logits_transform(&p, 3.0, lctx(0, 0, 1, 1)), 7.0);
        assert!(v.logits_mask(&p, lctx(0, 0, 1, 4)));
        assert!(!v.logits_mask(&p, lctx(0, 1, 1, 4)));
        assert_eq!(v.name(), "custom");
    }

    #[test]
    fn camel_case_helper() {
        assert_eq!(camel("flash_sigmoid"), "FlashSigmoid");
        assert_eq!(camel("rope"), "Rope");
        assert_eq!(camel("a-b_c"), "ABC");
    }
}
