//! Parallel generation with composable formats (§3.1.2, §4.4): several
//! decode branches share a prompt prefix. A single block-sparse format
//! gathers the shared prefix once *per branch*; the composable
//! decomposition (Figure 3) lifts the prefix into a tall block row gathered
//! once *per group*, with the ⊕ operator stitching the two parts back
//! together — bit-compatible with the single format.
//!
//! Run with: `cargo run --release --example parallel_generation`

use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use flashinfer::core::scratch::KernelScratch;
use flashinfer::core::state::AttentionState;
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{VanillaAttention, VariantParams};
use flashinfer::gpusim::GpuSpec;
use flashinfer::serving::backend::FlashInferBackend;
use flashinfer::serving::engine::{Engine, EngineConfig, Request};
use flashinfer::serving::model::ModelConfig;
use flashinfer::serving::workload::RequestSpec;
use flashinfer::sparse::bsr::{BlockEntry, BlockSparseMatrix};
use flashinfer::sparse::composable::{ComposableFormat, PrefixGroup};
use flashinfer::tensor::numerics::max_abs_diff;
use flashinfer::tensor::{RaggedTensor, Tensor};

const GROUPS: usize = 2;
const BRANCHES: usize = 3;
const PREFIX: usize = 16;
const UNIQUE: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let heads = HeadConfig::new(2, 1, 32)?;
    let params = VariantParams::for_head_dim(heads.head_dim);
    let variant = VanillaAttention { causal: true };
    let rows = GROUPS * BRANCHES; // one decode query per branch
    let kv_len = PREFIX + UNIQUE;

    // KV pool layout: [group0 prefix][group1 prefix][branch uniques...].
    let prefix_base = |g: usize| g * PREFIX;
    let unique_base = |b: usize| GROUPS * PREFIX + b * UNIQUE;
    let cols = GROUPS * PREFIX + rows * UNIQUE;
    let k = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| {
        ((i * 7) as f32).sin() * 0.2
    });
    let v = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| {
        ((i * 3) as f32).cos() * 0.3
    });
    let mut q = RaggedTensor::<f32>::from_seq_lens(&vec![1; rows], heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = ((i * 13) as f32).sin() * 0.25;
    }

    // Single format: each branch's block row gathers prefix + unique.
    let single_rows: Vec<(usize, usize, Vec<BlockEntry>)> = (0..rows)
        .map(|b| {
            let g = b / BRANCHES;
            let mut blocks: Vec<BlockEntry> = (0..PREFIX)
                .map(|i| BlockEntry {
                    col_block: prefix_base(g) + i,
                    len: 1,
                })
                .collect();
            blocks.extend((0..UNIQUE).map(|i| BlockEntry {
                col_block: unique_base(b) + i,
                len: 1,
            }));
            (b, b + 1, blocks)
        })
        .collect();
    let single = BlockSparseMatrix::new(rows, cols, 1, single_rows)?;

    // Composable format: tall prefix block rows + per-branch suffix rows.
    let groups: Vec<PrefixGroup> = (0..GROUPS)
        .map(|g| PrefixGroup {
            row_start: g * BRANCHES,
            row_end: (g + 1) * BRANCHES,
            prefix_blocks: (0..PREFIX)
                .map(|i| BlockEntry {
                    col_block: prefix_base(g) + i,
                    len: 1,
                })
                .collect(),
            unique: (0..BRANCHES)
                .map(|r| {
                    let b = g * BRANCHES + r;
                    (
                        b,
                        b + 1,
                        (0..UNIQUE)
                            .map(|i| BlockEntry {
                                col_block: unique_base(b) + i,
                                len: 1,
                            })
                            .collect(),
                    )
                })
                .collect(),
        })
        .collect();
    let composed = ComposableFormat::decompose_shared_prefix(rows, cols, 1, &groups)?;
    composed.verify_disjoint()?;
    println!(
        "gather slots: single format {} vs composable {} ({}x reduction on the shared prefix)",
        ComposableFormat::single(single.clone()).gather_slots(),
        composed.gather_slots(),
        BRANCHES
    );

    // Run the single format end-to-end.
    let kern = FlashKernel {
        tile: TileConfig { tq: 1, tkv: 8 },
        head_fusion: true,
    };
    let mut scratch = KernelScratch::new();
    let kv_lens = vec![kv_len; rows];
    let p_single = AttentionProblem::standard_batch(&q, &k, &v, &single, heads, &kv_lens)?;
    let out_single = kern.run_with_scratch(&p_single, &variant, &params, &mut scratch)?;

    // Run each composable part and merge states with ⊕ (§2.2).
    let row_meta: Vec<RowMeta> = (0..rows)
        .map(|b| RowMeta {
            batch_idx: b,
            qo_pos: 0,
            qo_len: 1,
            kv_len,
        })
        .collect();
    let prefix_part = &composed.parts()[0];
    let suffix_part = &composed.parts()[1];
    let p_prefix = AttentionProblem::new(
        &q,
        &k,
        &v,
        prefix_part,
        heads,
        row_meta.clone(),
        vec![0; prefix_part.n_block_rows()], // prefix positions start at 0
    )?;
    let p_suffix = AttentionProblem::new(
        &q,
        &k,
        &v,
        suffix_part,
        heads,
        row_meta,
        vec![PREFIX; suffix_part.n_block_rows()], // suffix positions follow the prefix
    )?;
    let out_prefix = kern.run_with_scratch(&p_prefix, &variant, &params, &mut scratch)?;
    let out_suffix = kern.run_with_scratch(&p_suffix, &variant, &params, &mut scratch)?;

    let d = heads.head_dim;
    let mut max_diff = 0.0f32;
    for row in 0..rows {
        for h in 0..heads.num_qo_heads {
            let sa = AttentionState {
                o: out_prefix.o.global_row(row)[h * d..(h + 1) * d].to_vec(),
                lse: out_prefix.lse[row * heads.num_qo_heads + h],
            };
            let sb = AttentionState {
                o: out_suffix.o.global_row(row)[h * d..(h + 1) * d].to_vec(),
                lse: out_suffix.lse[row * heads.num_qo_heads + h],
            };
            let merged = sa.merge(&sb);
            let expect = &out_single.o.global_row(row)[h * d..(h + 1) * d];
            max_diff = max_diff.max(max_abs_diff(&merged.o, expect));
        }
    }
    println!("composable-merged vs single-format outputs: max diff = {max_diff:.2e}");
    assert!(max_diff < 1e-5);

    // End-to-end: the Figure 10 effect at n=8 on Llama-3.1-8B.
    let model = ModelConfig::LLAMA3_8B;
    let spec = GpuSpec::H100_80G;
    let reqs: Vec<Request> = (0..64)
        .map(|i| Request {
            id: i,
            spec: RequestSpec {
                prompt_len: 512,
                output_len: 64,
                arrival: i as f64 / 16.0,
                n_parallel: 8,
            },
        })
        .collect();
    let run = |composable: bool| {
        let cfg = EngineConfig::for_gpu(&spec, &model);
        Engine::new(FlashInferBackend { composable }, model, spec, cfg).serve(&reqs)
    };
    let on = run(true).itl_summary();
    let off = run(false).itl_summary();
    println!(
        "n=8 parallel generation: median ITL {:.2} ms (composable) vs {:.2} ms (single) -> {:.1}% reduction",
        on.percentile(50.0) * 1e3,
        off.percentile(50.0) * 1e3,
        (1.0 - on.percentile(50.0) / off.percentile(50.0)) * 100.0
    );
    Ok(())
}
