//! Multi-level cascade inference: a global system prompt shared by every
//! request, per-tenant prefixes shared by groups, and unique user turns —
//! a three-level prefix tree executed as one cascade of block-sparse
//! kernels whose states compose with ⊕ (§3.1.2 generalized; §5.1's
//! "multi-level, multiple-prefix decoding").
//!
//! Run with: `cargo run --release --example cascade_inference`

use flashinfer::core::arch::Arch;
use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use flashinfer::core::scratch::KernelScratch;
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{VanillaAttention, VariantParams};
use flashinfer::sched::cascade::{CascadeAttention, PrefixNode, PrefixTree};
use flashinfer::sched::pipeline::{AttentionPipeline, SchedulePolicy};
use flashinfer::sched::plan::CostModel;
use flashinfer::sparse::bsr::{BlockEntry, BlockSparseMatrix};
use flashinfer::tensor::numerics::max_abs_diff;
use flashinfer::tensor::{RaggedTensor, Tensor};

const TENANTS: usize = 3;
const USERS_PER_TENANT: usize = 4;
const SYSTEM: usize = 64; // global system prompt tokens
const TENANT: usize = 32; // per-tenant prefix tokens
const UNIQUE: usize = 8; // per-user suffix tokens

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let heads = HeadConfig::new(4, 2, 32)?;
    let params = VariantParams::for_head_dim(heads.head_dim);
    let variant = VanillaAttention { causal: true };
    let rows = TENANTS * USERS_PER_TENANT;
    let kv_len = SYSTEM + TENANT + UNIQUE;

    // Slot map: [system][tenant prefixes][user uniques].
    let tenant_base = |t: usize| SYSTEM + t * TENANT;
    let unique_base = |u: usize| SYSTEM + TENANTS * TENANT + u * UNIQUE;
    let cols = SYSTEM + TENANTS * TENANT + rows * UNIQUE;
    let blocks = |base: usize, n: usize| {
        (0..n)
            .map(|i| BlockEntry {
                col_block: base + i,
                len: 1,
            })
            .collect::<Vec<_>>()
    };

    let tree = PrefixTree {
        rows,
        cols,
        bc: 1,
        roots: vec![PrefixNode {
            row_start: 0,
            row_end: rows,
            kv_blocks: blocks(0, SYSTEM),
            kv_offset: 0,
            children: (0..TENANTS)
                .map(|t| PrefixNode {
                    row_start: t * USERS_PER_TENANT,
                    row_end: (t + 1) * USERS_PER_TENANT,
                    kv_blocks: blocks(tenant_base(t), TENANT),
                    kv_offset: SYSTEM,
                    children: (0..USERS_PER_TENANT)
                        .map(|u| {
                            let row = t * USERS_PER_TENANT + u;
                            PrefixNode {
                                row_start: row,
                                row_end: row + 1,
                                kv_blocks: blocks(unique_base(row), UNIQUE),
                                kv_offset: SYSTEM + TENANT,
                                children: vec![],
                            }
                        })
                        .collect(),
                })
                .collect(),
        }],
    };
    let cascade = CascadeAttention::from_prefix_tree(&tree)?;
    let single_gathers = rows * kv_len;
    println!(
        "{} levels; gather slots {} vs single-format {} ({:.1}x less staging traffic)",
        cascade.num_levels(),
        cascade.gather_slots(),
        single_gathers,
        single_gathers as f64 / cascade.gather_slots() as f64
    );

    // Data + queries.
    let mix = |i: usize, s: u64| {
        let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s);
        ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let k = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| mix(i, 1) * 0.4);
    let v = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| mix(i, 2) * 0.4);
    let mut q = RaggedTensor::<f32>::from_seq_lens(&vec![1; rows], heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = mix(i, 3) * 0.4;
    }
    let row_meta: Vec<RowMeta> = (0..rows)
        .map(|b| RowMeta {
            batch_idx: b,
            qo_pos: 0,
            qo_len: 1,
            kv_len,
        })
        .collect();

    let kernel = FlashKernel {
        tile: TileConfig { tq: 1, tkv: 32 },
        head_fusion: true,
    };
    let mut scratch = KernelScratch::new();
    // One pipeline plans every cascade level; re-running the same tree
    // would hit its shape-keyed plan cache level-for-level.
    let mut pipeline = AttentionPipeline::new(
        kernel,
        8,
        CostModel::default(),
        SchedulePolicy::Balanced,
        Arch::Ampere,
    )?;
    let out = cascade.run(
        &mut pipeline,
        &q,
        &k,
        &v,
        heads,
        &row_meta,
        &variant,
        &params,
    )?;
    println!(
        "pipeline planned {} level schedules ({} cache hits)",
        pipeline.stats().plans_computed,
        pipeline.stats().plan_cache_hits
    );

    // Verify against the flat single-format run.
    let flat_rows: Vec<(usize, usize, Vec<BlockEntry>)> = (0..rows)
        .map(|r| {
            let t = r / USERS_PER_TENANT;
            let mut b = blocks(0, SYSTEM);
            b.extend(blocks(tenant_base(t), TENANT));
            b.extend(blocks(unique_base(r), UNIQUE));
            (r, r + 1, b)
        })
        .collect();
    let flat = BlockSparseMatrix::new(rows, cols, 1, flat_rows)?;
    let problem = AttentionProblem::standard_batch(&q, &k, &v, &flat, heads, &vec![kv_len; rows])?;
    let direct = kernel.run_with_scratch(&problem, &variant, &params, &mut scratch)?;
    let mut worst = 0.0f32;
    for r in 0..rows {
        worst = worst.max(max_abs_diff(out.o.seq(r), direct.o.seq(r)));
    }
    println!("cascade vs single-format: max diff = {worst:.2e} across {rows} users");
    assert!(worst < 1e-5);
    println!("ok: three-level cascade is numerically exact.");
    Ok(())
}
