//! # flashinfer
//!
//! Facade crate for the FlashInfer-rs workspace: a from-scratch Rust
//! reproduction of *FlashInfer: Efficient and Customizable Attention Engine
//! for LLM Inference Serving* (Ye et al., MLSys 2025).
//!
//! The workspace is organized bottom-up; this crate re-exports every layer:
//!
//! * [`tensor`] — dense/ragged tensors, f16/fp8 software emulation.
//! * [`sparse`] — block-sparse row (BSR) formats and composable formats.
//! * [`kvcache`] — paged KV-cache and radix-tree prefix cache.
//! * [`core`] — attention states, FA2-style kernels, customizable variants,
//!   the JIT specialization layer, and tile-size heuristics.
//! * [`sched`] — the load-balanced runtime scheduler (Algorithm 1), the
//!   plan/run pipeline and the CUDAGraph-compatible workspace layout.
//! * [`gpusim`] — the analytical GPU execution model used in place of real
//!   CUDA hardware (see `DESIGN.md` for the substitution argument).
//! * [`serving`] — a continuous-batching serving engine, workload
//!   generators, and the baseline backends used in the paper's evaluation.
//! * [`dist`] — tensor-parallel sharded attention: deterministic
//!   thread-backed collectives, GQA-aware head partitioning, and a
//!   sharded executor that is bit-exact against the single-shard
//!   pipeline.
//! * [`runtime`] — a concurrent continuous-batching runtime that drives
//!   the real kernels (scheduler thread + worker pool over the shared
//!   paged KV pool), sharing batch-formation policy with [`serving`];
//!   optionally tensor-parallel via [`dist`].
//! * [`router`] — the request-facing front-door above [`runtime`]:
//!   synchronous validation with typed errors, per-tenant weighted
//!   round-robin under token-bucket rate limits, bounded token-by-token
//!   streaming, `waiting_served_ratio` batch growth, and health-gated
//!   graceful shutdown.
//! * [`cluster`] — multi-replica serving over N independent [`runtime`]
//!   instances: radix-aware session affinity, least-outstanding-tokens
//!   balancing, drain/failover, and disaggregated prefill/decode with KV
//!   page migration over a simulated link — bit-identical to
//!   single-runtime execution.
//!
//! See `examples/quickstart.rs` for the canonical end-to-end usage.

pub use fi_cluster as cluster;
pub use fi_core as core;
pub use fi_dist as dist;
pub use fi_gpusim as gpusim;
pub use fi_kvcache as kvcache;
pub use fi_model as model;
pub use fi_router as router;
pub use fi_runtime as runtime;
pub use fi_sched as sched;
pub use fi_serving as serving;
pub use fi_sparse as sparse;
pub use fi_tensor as tensor;
