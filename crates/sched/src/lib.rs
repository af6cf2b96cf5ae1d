//! # fi-sched
//!
//! FlashInfer's dynamism-aware runtime (§3.3): the load-balanced scheduler,
//! the CUDAGraph-compatible workspace, the split-KV contraction step, and
//! the user-facing plan/run pair.
//!
//! * [`plan`] — Algorithm 1: chunk every query tile's KV into pieces of at
//!   most `L_kv` slots, then assign chunks to CTAs longest-processing-time
//!   first through a min-cost priority queue. Also provides the *naive*
//!   FA-style schedule (one whole tile per CTA, round-robin) used as the
//!   load-imbalance baseline in Figure 8.
//! * [`workspace`] — Appendix D: one user-allocated buffer divided into
//!   fixed-offset sections (plan metadata, split-KV partial outputs) whose
//!   addresses never change across generation steps, the property
//!   CUDAGraph capture requires.
//! * [`contraction`] — the variable-length attention-composition kernel:
//!   reduces each split tile's partial states where they lie in the
//!   workspace, in a deterministic fixed tree order over ascending chunk
//!   index (the paper avoids Stream-K atomic aggregation precisely to keep
//!   outputs deterministic).
//! * [`pipeline`] — the unified plan→workspace→run→merge path (§3.4) and
//!   the `AttentionWrapper` analog (Listing 1): [`AttentionPipeline`] owns
//!   a shape-keyed [`pipeline::PlanCache`] (sorted per-tile
//!   `(qo_rows, kv_len)` signatures + tile + arch), a workspace that grows
//!   monotonically or is caller-allocated with final bounds, `plan(...)` on
//!   sequence-length change and one `run(...)` per layer, with writethrough
//!   of unsplit tiles directly to the final output (Appendix D.2). Every
//!   consumer — serving cost backends, the cascade, the model engine,
//!   CUDAGraph capture — plans through it, and it owns the crate's one
//!   executor: [`cascade`]'s two `run`s are thin callers of its cascade
//!   body.

pub mod cascade;
pub mod contraction;
pub mod error;
pub mod pipeline;
pub mod plan;
pub mod workspace;

pub use cascade::{CascadeAttention, CascadeDecodeGroup, PrefixNode, PrefixTree};
pub use error::SchedError;
pub use pipeline::{AttentionPipeline, PipelineStats, PlanCache, SchedulePolicy, WorkspaceMode};
pub use plan::{CostModel, Plan, WorkItem};
pub use workspace::{Workspace, WorkspaceLayout};
