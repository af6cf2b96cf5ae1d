//! Customizing attention with the JIT layer (§3.2.3, Figure 5): define
//! FlashSigmoid from a declarative spec, inspect the generated CUDA-like
//! source, compile it through the kernel cache, and run it — then do the
//! same with raw closures (the "hand-written CUDA body" escape hatch).
//!
//! Run with: `cargo run --release --example custom_variant`

use flashinfer::core::config::HeadConfig;
use flashinfer::core::jit::{ClosureVariant, KernelCache, KernelKey, LogitsOp, VariantSpec};
use flashinfer::core::kernel::{AttentionProblem, FlashKernel};
use flashinfer::core::reference::reference_attention;
use flashinfer::core::scratch::KernelScratch;
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::VariantParams;
use flashinfer::sparse::bsr::{BlockEntry, BlockSparseMatrix};
use flashinfer::tensor::numerics::max_abs_diff;
use flashinfer::tensor::{DType, RaggedTensor, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // FlashSigmoid: sigmoid(logit * scale + bias), no softmax (Figure 5).
    let spec = VariantSpec::new("flash_sigmoid")
        .softmax(false)
        .extra_param("bias")
        .logits_op(LogitsOp::Scale)
        .logits_op(LogitsOp::AddParam("bias".into()))
        .logits_op(LogitsOp::Sigmoid);

    // The code the real JIT would compile:
    let source = spec.render_cuda(DType::F16, 64);
    println!("--- generated CUDA (excerpt) ---");
    for line in source
        .lines()
        .filter(|l| l.contains("LogitsTransform") || l.contains("return "))
    {
        println!("{line}");
    }

    // Compile-once cache semantics.
    let cache = KernelCache::new();
    let key = KernelKey {
        variant: "flash_sigmoid".into(),
        dtype_q: DType::F32,
        dtype_kv: DType::F32,
        head_dim: 64,
        tile: TileConfig { tq: 1, tkv: 32 },
    };
    let variant = cache.get_or_compile(key.clone(), &spec)?;
    let _again = cache.get_or_compile(key, &spec)?;
    println!("kernel cache: {:?} (hits, misses)", cache.stats());

    // Run it on a small problem and check against the reference.
    let heads = HeadConfig::new(2, 1, 64)?;
    let params = VariantParams::for_head_dim(heads.head_dim).with_extra("bias", -1.0);
    let l_kv = 40usize;
    let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = ((i * 17) as f32).sin() * 0.4;
    }
    let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| {
        ((i * 7) as f32).cos() * 0.3
    });
    let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| {
        ((i * 3) as f32).sin() * 0.5
    });
    let layout = BlockSparseMatrix::new(
        1,
        l_kv,
        8,
        vec![(
            0,
            1,
            (0..5)
                .map(|c| BlockEntry {
                    col_block: c,
                    len: 8,
                })
                .collect(),
        )],
    )?;
    let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv])?;
    let kern = FlashKernel {
        tile: TileConfig { tq: 1, tkv: 32 },
        head_fusion: true,
    };
    let mut scratch = KernelScratch::new();
    let out = kern.run_with_scratch(&problem, variant.as_ref(), &params, &mut scratch)?;
    let r = reference_attention(
        variant.as_ref(),
        &params,
        heads,
        0,
        q.seq(0),
        k.as_slice(),
        v.as_slice(),
    );
    println!(
        "flash_sigmoid: kernel vs reference max diff = {:.2e}",
        max_abs_diff(out.o.seq(0), &r.o)
    );
    assert!(max_abs_diff(out.o.seq(0), &r.o) < 1e-5);

    // The closure escape hatch: an ad-hoc "attention with temperature
    // decaying by distance" variant no spec op covers.
    let mut custom = ClosureVariant::new("distance_temperature", true);
    custom.on_logits = Some(Box::new(|p, logit, ctx| {
        let dist = (ctx.absolute_qo_pos().saturating_sub(ctx.kv_pos)) as f32;
        logit * p.sm_scale / (1.0 + 0.01 * dist)
    }));
    custom.on_mask = Some(Box::new(|_, ctx| ctx.causally_visible()));
    let out2 = kern.run_with_scratch(&problem, &custom, &params, &mut scratch)?;
    let r2 = reference_attention(
        &custom,
        &params,
        heads,
        0,
        q.seq(0),
        k.as_slice(),
        v.as_slice(),
    );
    println!(
        "closure variant: kernel vs reference max diff = {:.2e}",
        max_abs_diff(out2.o.seq(0), &r2.o)
    );
    assert!(max_abs_diff(out2.o.seq(0), &r2.o) < 1e-5);

    // Highest level: the attention DSL (the paper's §6 direction) compiles
    // straight to the same spec.
    let dsl_src = "
        variant gemma_softcap
        param cap
        logits scale
        logits softcap cap
        mask causal
    ";
    let dsl_spec = flashinfer::core::dsl::parse(dsl_src)?;
    let dsl_variant = dsl_spec.build()?;
    let p2 = VariantParams::for_head_dim(64).with_extra("cap", 30.0);
    let out3 = kern.run_with_scratch(&problem, &dsl_variant, &p2, &mut scratch)?;
    let r3 = reference_attention(
        &dsl_variant,
        &p2,
        heads,
        0,
        q.seq(0),
        k.as_slice(),
        v.as_slice(),
    );
    println!(
        "DSL variant `{}`: kernel vs reference max diff = {:.2e}",
        dsl_spec.name(),
        max_abs_diff(out3.o.seq(0), &r3.o)
    );
    assert!(max_abs_diff(out3.o.seq(0), &r3.o) < 1e-5);
    println!("ok: spec, closures and DSL all run through the same kernel skeleton.");
    Ok(())
}
