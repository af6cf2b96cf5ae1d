//! Registry-free fallback for `scripts/bench_snapshot.sh --offline`:
//! times the same `flash_kernel_decode` / `flash_kernel_scratch` /
//! `flash_kernel_dtype` shapes as `benches/microbench.rs` with
//! `std::time::Instant` and prints the `BENCH_kernel.json` snapshot to
//! stdout.
//!
//! Extra provenance this binary records (and `--simd-info` emits alone,
//! for the criterion path to merge):
//! - the detected CPU feature set and the dispatch arm the run used;
//! - per-KV-length speedup of the dispatched SIMD microkernels over the
//!   portable scalar path, measured by re-timing the decode shapes with
//!   the dispatcher forced to scalar in the same process;
//! - staged KV bytes per decode call for each storage dtype, plus
//!   end-to-end runtime tokens/s per dtype on a prompt-heavy workload.
//!
//! Methodology: warm up, then repeat timed batches and keep the *best*
//! batch mean — the minimum is the standard low-noise estimator for a
//! deterministic CPU kernel (everything above it is scheduler jitter).
//! Criterion's mean over a tuned sample count is tighter; this exists so
//! an environment that cannot resolve the criterion crate can still
//! produce a measured snapshot instead of a placeholder.

use std::time::Instant;

use fi_core::config::HeadConfig;
use fi_core::kernel::{AttentionProblem, FlashKernel};
use fi_core::scratch::KernelScratch;
use fi_core::tiles::TileConfig;
use fi_core::variant::{VanillaAttention, VariantParams};
use fi_runtime::{KvPrecision, Runtime, RuntimeConfig, RuntimeOptions, RuntimeRequest};
use fi_serving::engine::{EngineConfig, PreemptionPolicy};
use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
use fi_tensor::{KvDtype, RaggedTensor, Scalar, Tensor, F16, F8E4M3};

/// Best-batch-mean ns/iter of `f`, auto-scaling the batch size so one
/// batch runs ≥ ~5 ms.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    // Warm-up + batch-size calibration.
    let mut iters = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let dt = t0.elapsed();
        if dt.as_secs_f64() >= 5e-3 || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let per = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
        best = best.min(per);
    }
    best
}

/// The microbench decode shape: batch-of-one query, dense KV of length
/// `kv`, 8:2 heads at d=64 (matches `benches/microbench.rs`).
fn decode_fixture(
    kv: usize,
) -> (
    RaggedTensor<f32>,
    Tensor<f32>,
    Tensor<f32>,
    BlockSparseMatrix,
    HeadConfig,
) {
    let heads = HeadConfig::new(8, 2, 64).unwrap();
    let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = (i as f32 * 0.01).sin();
    }
    let k = Tensor::<f32>::from_fn(vec![kv, heads.kv_width()], |i| (i as f32 * 0.001).cos());
    let v = Tensor::<f32>::from_fn(vec![kv, heads.kv_width()], |i| (i as f32 * 0.002).sin());
    let layout = BlockSparseMatrix::new(
        1,
        kv,
        16,
        vec![(
            0,
            1,
            (0..kv / 16)
                .map(|b| BlockEntry {
                    col_block: b,
                    len: 16,
                })
                .collect(),
        )],
    )
    .unwrap();
    (q, k, v, layout, heads)
}

/// Narrow an f32 pool tensor to storage dtype `T`, storing `x / scale`
/// (the runtime's `write_slot_narrowed` convention).
fn narrowed<T: Scalar>(src: &Tensor<f32>, scale: f32) -> Tensor<T> {
    let data = src.as_slice();
    Tensor::<T>::from_fn(src.shape().to_vec(), |i| T::from_f32(data[i] / scale))
}

/// Time one decode call per storage dtype at this KV length. Returns
/// `(dtype name, ns/iter, staged KV bytes per call)`.
fn time_dtypes(kern: &FlashKernel, kv: usize) -> Vec<(&'static str, f64, usize)> {
    let variant = VanillaAttention { causal: true };
    let params = VariantParams::for_head_dim(64);
    let (q, k, v, layout, heads) = decode_fixture(kv);
    let num_kv_heads = heads.num_kv_heads;
    let mut out = Vec::new();

    let p32 = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[kv]).unwrap();
    out.push((
        "f32",
        time_ns(|| kern.run(&p32, &variant, &params).unwrap()),
        2 * kv * heads.kv_width() * KvDtype::F32.size_bytes(),
    ));

    let (k16, v16) = (narrowed::<F16>(&k, 1.0), narrowed::<F16>(&v, 1.0));
    let p16 = AttentionProblem::standard_batch(&q, &k16, &v16, &layout, heads, &[kv]).unwrap();
    out.push((
        "f16",
        time_ns(|| kern.run(&p16, &variant, &params).unwrap()),
        2 * kv * heads.kv_width() * KvDtype::F16.size_bytes(),
    ));

    let fp8_scale = 0.5f32;
    let (k8, v8) = (
        narrowed::<F8E4M3>(&k, fp8_scale),
        narrowed::<F8E4M3>(&v, fp8_scale),
    );
    let p8 = AttentionProblem::standard_batch(&q, &k8, &v8, &layout, heads, &[kv])
        .unwrap()
        .with_kv_dequant(vec![fp8_scale; num_kv_heads], vec![fp8_scale; num_kv_heads])
        .unwrap();
    out.push((
        "f8e4m3",
        time_ns(|| kern.run(&p8, &variant, &params).unwrap()),
        2 * kv * heads.kv_width() * KvDtype::Fp8E4M3.size_bytes(),
    ));
    out
}

/// End-to-end serving tokens/s at one KV storage precision: a small
/// prompt-heavy workload through the real runtime, so staging cost and
/// arena footprint both participate.
fn runtime_tokens_per_s(precision: KvPrecision) -> f64 {
    let cfg = RuntimeConfig {
        engine: EngineConfig {
            kv_capacity_tokens: 8192,
            max_batch: 8,
            prefix_caching: false,
            chunked_prefill_budget: Some(128),
            optimistic_admission: true,
            preemption: PreemptionPolicy::Recompute,
        },
        queue_capacity: 16,
        num_workers: 1,
        tensor_parallel: 1,
        num_ctas: 8,
        heads: HeadConfig::new(8, 2, 64).unwrap(),
        tile: TileConfig { tq: 1, tkv: 64 },
        page_size: 16,
        num_pages: 512,
    };
    let opts = RuntimeOptions {
        precision,
        ..RuntimeOptions::default()
    };
    let rt = Runtime::start_with(cfg, opts).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|i| rt.submit(RuntimeRequest::new(1024, 16, 0xB00 + i)))
        .collect();
    for h in handles {
        h.wait().completed().expect("bench workload completes");
    }
    let m = rt.finish();
    m.serving.tokens_generated as f64 / m.serving.duration.max(1e-9)
}

fn simd_info_json() -> String {
    format!(
        "    \"cpu_features\": \"{}\",\n    \"dispatch_arm\": \"{}\"",
        fi_tensor::simd::feature_summary(),
        fi_tensor::simd::active_arm().name()
    )
}

fn main() {
    if std::env::args().any(|a| a == "--simd-info") {
        // Provenance block alone, for the criterion collector to merge.
        println!("{{\n{}\n}}", simd_info_json());
        return;
    }

    let kern = FlashKernel {
        tile: TileConfig { tq: 1, tkv: 64 },
        head_fusion: true,
    };
    let variant = VanillaAttention { causal: true };
    let params = VariantParams::for_head_dim(64);

    // Decode shapes, native dispatch, then the same shapes with the
    // dispatcher forced to scalar — the pre-PR portable hot path.
    let mut decode = Vec::new();
    let mut portable = Vec::new();
    for kv in [256usize, 1024, 4096] {
        let (q, k, v, layout, heads) = decode_fixture(kv);
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[kv]).unwrap();
        let ns = time_ns(|| kern.run(&problem, &variant, &params).unwrap());
        decode.push((kv, ns));
        eprintln!("flash_kernel_decode/{kv}: {ns:.1} ns/iter");
        fi_tensor::simd::force_scalar(true);
        let ns_scalar = time_ns(|| kern.run(&problem, &variant, &params).unwrap());
        fi_tensor::simd::force_scalar(false);
        portable.push((kv, ns_scalar));
        eprintln!("flash_kernel_decode_portable/{kv}: {ns_scalar:.1} ns/iter");
    }

    let (q, k, v, layout, heads) = decode_fixture(1024);
    let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[1024]).unwrap();
    let fresh = time_ns(|| {
        let mut scratch = KernelScratch::new();
        kern.run_with_scratch(&problem, &variant, &params, &mut scratch)
            .unwrap()
    });
    eprintln!("flash_kernel_scratch/fresh_scratch_per_call: {fresh:.1} ns/iter");
    let mut scratch = KernelScratch::new();
    kern.run_with_scratch(&problem, &variant, &params, &mut scratch)
        .unwrap();
    let reused = time_ns(|| {
        kern.run_with_scratch(&problem, &variant, &params, &mut scratch)
            .unwrap()
    });
    eprintln!("flash_kernel_scratch/reused_scratch: {reused:.1} ns/iter");

    // Storage-dtype sweep: decode at each KV length with the arena held
    // at f32/f16/fp8, widen-on-stage (and dequantize for fp8) included.
    let mut dtype_rows = Vec::new();
    for kv in [256usize, 1024, 4096] {
        for (name, ns, bytes) in time_dtypes(&kern, kv) {
            eprintln!("flash_kernel_dtype/{name}_{kv}: {ns:.1} ns/iter ({bytes} staged bytes)");
            dtype_rows.push((name, kv, ns, bytes));
        }
    }

    let mut tps = Vec::new();
    for (name, p) in [
        ("f32", KvPrecision::of(KvDtype::F32)),
        ("f16", KvPrecision::of(KvDtype::F16)),
        (
            "f8e4m3",
            KvPrecision {
                dtype: KvDtype::Fp8E4M3,
                fp8_kv_scale: 0.5,
            },
        ),
    ] {
        let t = runtime_tokens_per_s(p);
        eprintln!("runtime_tokens_per_s/{name}: {t:.1}");
        tps.push((name, t));
    }

    let fmt_group = |rows: &[(usize, f64)]| -> String {
        rows.iter()
            .map(|(kv, ns)| format!("      \"{kv}\": {ns:.1}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    println!("{{");
    println!("  \"unit\": \"ns_per_iter_mean\",");
    println!(
        "  \"source\": \"scripts/bench_snapshot.sh --offline (best-batch-mean via std::time::Instant; see crates/bench/src/bin/offline_timing.rs)\","
    );
    println!("  \"groups\": {{");
    println!("    \"flash_kernel_decode\": {{");
    println!("{}", fmt_group(&decode));
    println!("    }},");
    println!("    \"flash_kernel_decode_portable\": {{");
    println!("{}", fmt_group(&portable));
    println!("    }},");
    println!("    \"flash_kernel_scratch\": {{");
    println!("      \"fresh_scratch_per_call\": {fresh:.1},");
    println!("      \"reused_scratch\": {reused:.1}");
    println!("    }},");
    println!("    \"flash_kernel_dtype\": {{");
    let dt: Vec<String> = dtype_rows
        .iter()
        .map(|(name, kv, ns, _)| format!("      \"{name}_{kv}\": {ns:.1}"))
        .collect();
    println!("{}", dt.join(",\n"));
    println!("    }}");
    println!("  }},");
    println!("  \"simd\": {{");
    println!("{},", simd_info_json());
    let sp: Vec<String> = decode
        .iter()
        .zip(portable.iter())
        .map(|((kv, ns), (_, slow))| format!("      \"{kv}\": {:.3}", slow / ns))
        .collect();
    println!("    \"simd_f32_speedup_vs_portable\": {{");
    println!("{}", sp.join(",\n"));
    println!("    }}");
    println!("  }},");
    println!("  \"staged_kv_bytes_per_decode_call\": {{");
    let sb: Vec<String> = dtype_rows
        .iter()
        .map(|(name, kv, _, bytes)| format!("    \"{name}_{kv}\": {bytes}"))
        .collect();
    println!("{}", sb.join(",\n"));
    println!("  }},");
    println!("  \"runtime_tokens_per_s\": {{");
    let tp: Vec<String> = tps
        .iter()
        .map(|(name, t)| format!("    \"{name}\": {t:.1}"))
        .collect();
    println!("{}", tp.join(",\n"));
    println!("  }},");
    // > 1.0 means reusing the scratch arena beats re-allocating it.
    println!("  \"scratch_reuse_speedup\": {:.3}", fresh / reused);
    println!("}}");
}
