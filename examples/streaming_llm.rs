//! Streaming-LLM with a fused-RoPE kernel (§4.3): attention sinks + a
//! rolling recent window, with keys re-rotated by *cache position* inside
//! the kernel. Shows (a) numeric equivalence of the fused kernel against
//! the reference on the evicted cache, and (b) the latency/bandwidth
//! benefit of fusion from the cost model.
//!
//! Run with: `cargo run --release --example streaming_llm`

use flashinfer::core::config::HeadConfig;
use flashinfer::core::jit::VariantSpec;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel};
use flashinfer::core::reference::reference_attention;
use flashinfer::core::scratch::KernelScratch;
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::VariantParams;
use flashinfer::gpusim::GpuSpec;
use flashinfer::serving::model::ModelConfig;
use flashinfer::serving::streaming::{
    rope_attention_bandwidth_util, streaming_itl, RopeMode, StreamingLlmConfig,
};
use flashinfer::sparse::bsr::{BlockEntry, BlockSparseMatrix};
use flashinfer::tensor::numerics::max_abs_diff;
use flashinfer::tensor::{RaggedTensor, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Numeric path: fused RoPE via the JIT spec ("20 lines of code").
    let heads = HeadConfig::new(2, 2, 32)?;
    let params = VariantParams::for_head_dim(heads.head_dim);
    let fused = VariantSpec::new("streaming_rope")
        .fused_rope(10_000.0)
        .logits_op(flashinfer::core::jit::LogitsOp::Scale)
        .build()?;

    // A Streaming-LLM cache after eviction: 4 sink tokens + 28 recent.
    let cache_len = 32usize;
    let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = ((i * 11) as f32).sin() * 0.3;
    }
    let k = Tensor::<f32>::from_fn(vec![cache_len, heads.kv_width()], |i| {
        ((i * 5) as f32).cos() * 0.25
    });
    let v = Tensor::<f32>::from_fn(vec![cache_len, heads.kv_width()], |i| {
        ((i * 9) as f32).sin() * 0.35
    });
    let layout = BlockSparseMatrix::new(
        1,
        cache_len,
        8,
        vec![(
            0,
            1,
            (0..4)
                .map(|c| BlockEntry {
                    col_block: c,
                    len: 8,
                })
                .collect(),
        )],
    )?;
    let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[cache_len])?;
    let kern = FlashKernel {
        tile: TileConfig { tq: 1, tkv: 16 },
        head_fusion: true,
    };
    let mut scratch = KernelScratch::new();
    let out = kern.run_with_scratch(&problem, &fused, &params, &mut scratch)?;
    let r = reference_attention(
        &fused,
        &params,
        heads,
        0,
        q.seq(0),
        k.as_slice(),
        v.as_slice(),
    );
    println!(
        "fused-RoPE kernel vs reference: max diff = {:.2e}",
        max_abs_diff(out.o.seq(0), &r.o)
    );
    assert!(max_abs_diff(out.o.seq(0), &r.o) < 1e-4);

    // --- Performance path: Vicuna-13B ITL, fused vs unfused vs original.
    let model = ModelConfig::VICUNA_13B;
    let spec = GpuSpec::A100_40G;
    println!("\nVicuna-13B Streaming-LLM inter-token latency (batch 8):");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12}",
        "window", "fused", "unfused", "original", "reduction"
    );
    for window in [256usize, 512, 1024, 2048] {
        let t = |mode| {
            let cfg = StreamingLlmConfig {
                sink_tokens: 4,
                window,
                mode,
            };
            streaming_itl(&cfg, &model, &spec, 8) * 1e3
        };
        let (f, u, o) = (
            t(RopeMode::Fused),
            t(RopeMode::Unfused),
            t(RopeMode::Original),
        );
        println!(
            "{:<10} {f:>9.2}ms {u:>9.2}ms {o:>9.2}ms {:>11.1}%",
            window,
            (1.0 - f / u) * 100.0
        );
    }

    let cfg = StreamingLlmConfig {
        sink_tokens: 4,
        window: 1024,
        mode: RopeMode::Fused,
    };
    let (fu, un) = rope_attention_bandwidth_util(&cfg, &model, &spec, 8);
    println!(
        "\nkernel bandwidth utilization at window 1024: fused {:.2} vs unfused {:.2} ({:.1}x)",
        fu,
        un,
        fu / un
    );
    Ok(())
}
