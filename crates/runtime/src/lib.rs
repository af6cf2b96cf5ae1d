//! # fi-runtime
//!
//! A concurrent continuous-batching serving runtime that drives the
//! *real* attention kernels — the live counterpart of the discrete-event
//! simulator in `fi-serving`.
//!
//! One request path: [`Runtime::start_with`] takes the config plus
//! [`RuntimeOptions`] (KV precision, cascade mode; [`Runtime::start`] is
//! the defaults), [`Runtime::submit_with`] takes the request plus
//! [`SubmitOptions`] (a token stream, a migration leg;
//! [`Runtime::submit`] is the defaults), and every submission — here, in
//! `fi-cluster`, behind `fi-router` — is observed through the one
//! [`RequestHandle`].
//!
//! Architecture (one OS thread each):
//!
//! * **Clients** submit [`RuntimeRequest`]s through a bounded queue;
//!   a full queue rejects immediately (backpressure), and every
//!   submission — admitted or not — resolves its [`RequestHandle`] with
//!   exactly one [`RequestOutcome`]. A prefill-only leg's exported
//!   [`KvSnapshot`] reaches the handle *before* that outcome.
//! * **The scheduler** forms an iteration-level batch every step (Orca):
//!   chunked prefill under the Sarathi budget plus one decode token per
//!   running sequence, with admission, chunking, and preemption decided
//!   by [`fi_serving::policy`] — the *same* functions the simulator runs.
//!   It owns all writes to the KV pool (admission, row appends, eviction)
//!   and observes cancellation and deadlines between steps.
//! * **Workers** execute the step's units concurrently through
//!   [`fi_sched::pipeline::AttentionPipeline`] (plan cache, load-balanced
//!   schedule, real FA2 kernels) against the shared append-only
//!   [`fi_kvcache::KvStore`] arena — lock-free: each unit carries a page
//!   table prebuilt by the scheduler, and the unit channel is the
//!   happens-before edge publishing the scheduler's writes.
//! * **Tensor-parallel mode** (`tensor_parallel > 1`): the KV pool is
//!   sharded by KV head ([`fi_dist::ShardedKvPool`], one storage arena
//!   per rank over shared bookkeeping) and each logical worker becomes a
//!   tp-group
//!   ([`fi_dist::ShardedExecutor`]) whose rank threads run shard-local
//!   attention and reassemble full-width outputs with deterministic
//!   collectives — outputs stay bit-identical to the unsharded run, and
//!   collective byte counts surface in [`RuntimeMetrics`]' `comm` field.
//!
//! Work units preserve bit-exactness by construction: a plan's KV-split
//! decisions are global per layout, so ordinary requests run as
//! batch-of-one problems, making their decoded outputs bit-identical to
//! a sequential replay regardless of batch composition, worker count,
//! preemption, or arrival order — the property the integration tests
//! check against a fresh-pool oracle. Requests declaring a
//! [`request::SharedPrefix`] additionally decode through the two-level
//! cascade ([`fi_sched::CascadeDecodeGroup`]): the scheduler stores the
//! prefix KV once, tracks it in a [`fi_kvcache::RadixTree`], groups
//! co-resident sharers per step, and stages the shared prefix once per
//! *group* instead of once per request — with layouts shaped so grouping
//! changes staging traffic but never bits (the prefix level is one block
//! row whose planner chunking is independent of group width, and each
//! suffix is planned alone). Token embeddings are deterministic functions
//! of `(seed, position)` ([`kv_row`], [`q_row`], [`request_kv_row`]),
//! which is also what makes preempt-and-recompute exact.
//!
//! The final [`RuntimeMetrics`] embeds the simulator's `ServingMetrics`
//! (same fields, filled from wall-clock events) and adds lifecycle
//! accounting that reconciles exactly:
//! `submitted == completed + rejected + cancelled`.

pub mod metrics;
mod pool;
pub mod request;
pub mod scheduler;
mod worker;

pub use metrics::{RequestLatency, RuntimeMetrics, TenantLatency};
pub use request::{
    effective_prefix_len, kv_row, prefix_token, q_row, request_kv_row, CancelReason, ClientEnd,
    CompletedRequest, KvSnapshot, RejectReason, RequestHandle, RequestOutcome, RuntimeRequest,
    SharedPrefix, StreamItem, SubmitMode, SubmitOptions,
};
pub use scheduler::{
    CascadeMode, KvPrecision, Runtime, RuntimeConfig, RuntimeError, RuntimeOptions,
};
