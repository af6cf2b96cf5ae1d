//! # fi-serving
//!
//! An LLM-serving substrate: the stand-in for SGLang / vLLM / MLC-Engine
//! in the paper's end-to-end evaluation (Figures 7, 9, 10).
//!
//! * [`model`] — transformer shape presets (Llama-3.1-8B/70B, Vicuna-13B)
//!   and the roofline cost of a layer's non-attention operators under
//!   tensor parallelism.
//! * [`workload`] — the evaluation's request generators: a ShareGPT-like
//!   length sampler, the uniform "Variable" workload (512–2048), constant
//!   and Zipf-skewed kernel workloads (§4.2), and Poisson arrivals.
//! * [`backend`] — attention backends: FlashInfer (balanced scheduling,
//!   adaptive tiles, CUDAGraph, optional composable formats), a
//!   Triton-like baseline (fixed tiles, naive scheduling, per-launch
//!   overhead), and a TensorRT-LLM-like reference engine.
//! * [`engine`] — a continuous-batching serving loop (Orca-style) driven
//!   by discrete-event simulation: admission under KV-pool capacity,
//!   mixed prefill+decode steps, parallel generation (the OpenAI `n`
//!   parameter) with shared-prefix accounting, TTFT/ITL collection.
//! * [`policy`] — the batch-formation decisions (admission, chunked
//!   prefill, preemption victims) shared with the real-kernel
//!   `fi-runtime`, so the simulator stays a faithful oracle for it.
//! * [`metrics`] — percentile summaries of TTFT and ITL, plus the
//!   planner/kernel observables both serving loops report.
//!
//! Numeric attention (the `fi-core` kernels) is validated elsewhere; the
//! engine runs on the cost model so thousand-request benchmarks finish in
//! milliseconds while exercising the *same* planner code paths.

pub mod backend;
pub mod costlayout;
pub mod engine;
pub mod metrics;
pub mod model;
pub mod policy;
pub mod spec_decode;
pub mod streaming;
pub mod workload;

pub use backend::{Backend, FlashInferBackend, TritonLikeBackend, TrtLikeBackend};
pub use engine::{Engine, EngineConfig, Request};
pub use metrics::{
    LatencyHistogram, LatencySummary, PercentileSummary, PipelineObservables, ServingMetrics,
};
pub use model::ModelConfig;
