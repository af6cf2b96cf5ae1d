//! # fi-model
//!
//! A minimal, CPU-executable decoder-only transformer ("mini-LLM") that
//! drives the FlashInfer-rs attention engine **end-to-end with real
//! numbers**: RMSNorm → QKV projection → fused-RoPE paged attention
//! (through `fi-sched`'s plan/run pipeline over a real `fi-kvcache` pool)
//! → output projection → gated-SiLU MLP, per layer, with greedy sampling
//! on top.
//!
//! The weights are random (there is nothing to learn here); what matters
//! is that the *system* is exercised exactly the way a serving framework
//! would exercise the real FlashInfer: one KV-cache pool per layer, one
//! plan per generation step reused across layers, incremental appends,
//! prefix forking for parallel sampling. The tests assert the properties
//! a correct engine must have and a subtly broken one would not:
//!
//! * prefilling a prompt in one call produces bit-compatible logits with
//!   feeding it token by token (cache + causality + RoPE positions);
//! * sequences in a batch are isolated from each other;
//! * forked branches agree until they diverge.

pub mod config;
pub mod engine;
pub mod linear;
pub mod model;

pub use config::MiniLlmConfig;
pub use engine::MiniLlmEngine;
pub use model::MiniLlm;
