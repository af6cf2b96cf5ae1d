//! Property tests: the scheduled plan/run pipeline is extensionally equal
//! to the direct kernel for arbitrary batches, policies, and CTA counts,
//! and Algorithm 1's structural invariants hold.

#![allow(clippy::needless_range_loop)]
use fi_core::arch::Arch;
use fi_core::config::HeadConfig;
use fi_core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use fi_core::scratch::KernelScratch;
use fi_core::tiles::TileConfig;
use fi_core::variant::{VanillaAttention, VariantParams};
use fi_sched::cascade::{CascadeAttention, PrefixNode, PrefixTree};
use fi_sched::pipeline::{AttentionPipeline, SchedulePolicy};
use fi_sched::plan::{balanced_plan, naive_plan, CostModel};
use fi_sched::workspace::{Workspace, WorkspaceLayout};
use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
use fi_tensor::numerics::allclose;
use fi_tensor::{RaggedTensor, Tensor};
use proptest::prelude::*;

fn mix(i: usize, salt: u64) -> f32 {
    let x = (i as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(salt);
    ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
}

fn batch_layout(kv_lens: &[usize], qo_lens: &[usize], bc: usize) -> BlockSparseMatrix {
    let total_kv: usize = kv_lens.iter().map(|l| l.div_ceil(bc) * bc).sum();
    let mut rows_spec = Vec::new();
    let mut page = 0usize;
    let mut row = 0usize;
    for (&lkv, &lqo) in kv_lens.iter().zip(qo_lens) {
        let n_pages = lkv.div_ceil(bc);
        let entries: Vec<BlockEntry> = (0..n_pages)
            .map(|p| BlockEntry {
                col_block: page + p,
                len: if p + 1 == n_pages && lkv % bc != 0 {
                    lkv % bc
                } else {
                    bc
                },
            })
            .collect();
        rows_spec.push((row, row + lqo, entries));
        page += n_pages;
        row += lqo;
    }
    BlockSparseMatrix::new(row, total_kv.max(bc), bc, rows_spec).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scheduled execution == direct kernel for random batches.
    #[test]
    fn scheduler_preserves_results(
        kv_lens in prop::collection::vec(1usize..60, 1..5),
        num_ctas in 1usize..12,
        policy_naive in any::<bool>(),
        seed in 0u64..500,
    ) {
        let qo_lens: Vec<usize> = kv_lens.iter().map(|&l| 1 + l % 3).collect();
        // Ensure causal validity: qo_len <= kv_len.
        let qo_lens: Vec<usize> = qo_lens.iter().zip(&kv_lens).map(|(&q, &k)| q.min(k)).collect();
        let heads = HeadConfig::new(2, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let variant = VanillaAttention { causal: true };
        let layout = batch_layout(&kv_lens, &qo_lens, 2);

        let mut q = RaggedTensor::<f32>::from_seq_lens(&qo_lens, heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, seed ^ 1);
        }
        let k = Tensor::<f32>::from_fn(vec![layout.cols(), heads.kv_width()], |i| mix(i, seed ^ 2));
        let v = Tensor::<f32>::from_fn(vec![layout.cols(), heads.kv_width()], |i| mix(i, seed ^ 3));
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &kv_lens).unwrap();

        let tile = TileConfig { tq: 4, tkv: 8 };
        let max_tile_rows = qo_lens.iter().copied().max().unwrap_or(1);
        let ws = Workspace::allocate(WorkspaceLayout::compute(
            max_tile_rows, heads.num_qo_heads, heads.head_dim, num_ctas, 1 << 14,
        ));
        let policy = if policy_naive { SchedulePolicy::Naive } else { SchedulePolicy::Balanced };
        let mut h = AttentionPipeline::with_workspace(
            FlashKernel { tile, head_fusion: true },
            num_ctas,
            CostModel::default(),
            policy,
            Arch::Ampere,
            ws,
        ).unwrap();
        h.plan(&layout, heads.num_qo_heads, heads.head_dim).unwrap();
        let sched = h.run(&problem, &variant, &params).unwrap();
        let direct = FlashKernel { tile, head_fusion: true }.run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new()).unwrap();
        for b in 0..q.batch_size() {
            prop_assert!(
                allclose(sched.o.seq(b), direct.o.seq(b), 3e-4, 3e-5),
                "request {b} differs (policy {policy:?}, ctas {num_ctas})"
            );
        }
    }

    /// Random two-level cascades (groups of random sizes, random prefix
    /// and suffix lengths) are numerically identical to the flat format.
    #[test]
    fn random_cascade_matches_flat(
        group_sizes in prop::collection::vec(1usize..4, 1..4),
        prefix_len in 1usize..6,
        unique_len in 1usize..4,
        seed in 0u64..200,
    ) {
        let rows: usize = group_sizes.iter().sum();
        let n_groups = group_sizes.len();
        let prefix_cols = n_groups * prefix_len;
        let cols = prefix_cols + rows * unique_len;
        let heads = HeadConfig::new(2, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let variant = VanillaAttention { causal: true };
        let blocks = |base: usize, n: usize| {
            (0..n).map(|i| BlockEntry { col_block: base + i, len: 1 }).collect::<Vec<_>>()
        };

        // Tree: one root per group; children = per-row unique tails.
        let mut roots = Vec::new();
        let mut flat_rows = Vec::new();
        let mut row0 = 0usize;
        for (g, &gs) in group_sizes.iter().enumerate() {
            let children: Vec<PrefixNode> = (0..gs)
                .map(|r| {
                    let row = row0 + r;
                    PrefixNode {
                        row_start: row,
                        row_end: row + 1,
                        kv_blocks: blocks(prefix_cols + row * unique_len, unique_len),
                        kv_offset: prefix_len,
                        children: vec![],
                    }
                })
                .collect();
            roots.push(PrefixNode {
                row_start: row0,
                row_end: row0 + gs,
                kv_blocks: blocks(g * prefix_len, prefix_len),
                kv_offset: 0,
                children,
            });
            for r in 0..gs {
                let row = row0 + r;
                let mut all = blocks(g * prefix_len, prefix_len);
                all.extend(blocks(prefix_cols + row * unique_len, unique_len));
                flat_rows.push((row, row + 1, all));
            }
            row0 += gs;
        }
        let tree = PrefixTree { roots, rows, cols, bc: 1 };
        let cascade = CascadeAttention::from_prefix_tree(&tree).unwrap();

        let kv_len = prefix_len + unique_len;
        let mix = |i: usize, s: u64| {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s ^ seed);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut q = RaggedTensor::<f32>::from_seq_lens(&vec![1; rows], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 1);
        }
        let k = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| mix(i, 2));
        let v = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| mix(i, 3));
        let row_meta: Vec<RowMeta> = (0..rows)
            .map(|b| RowMeta { batch_idx: b, qo_pos: 0, qo_len: 1, kv_len })
            .collect();
        let kernel = FlashKernel { tile: TileConfig { tq: 1, tkv: 4 }, head_fusion: true };
        let mut pipeline = fi_sched::pipeline::AttentionPipeline::new(
            kernel,
            4,
            CostModel::default(),
            SchedulePolicy::Balanced,
            Arch::Ampere,
        )
        .unwrap();
        let out = cascade
            .run(&mut pipeline, &q, &k, &v, heads, &row_meta, &variant, &params)
            .unwrap();

        let flat = BlockSparseMatrix::new(rows, cols, 1, flat_rows).unwrap();
        let problem =
            AttentionProblem::standard_batch(&q, &k, &v, &flat, heads, &vec![kv_len; rows]).unwrap();
        let direct = kernel.run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new()).unwrap();
        for r in 0..rows {
            prop_assert!(allclose(out.o.seq(r), direct.o.seq(r), 1e-4, 1e-5), "row {r}");
        }
    }

    /// Plan invariants: exact cover, partial indices dense and unique,
    /// makespan >= mean (sanity), balanced beats naive on makespan.
    #[test]
    fn plan_invariants(
        kv_lens in prop::collection::vec(1usize..200, 1..10),
        num_ctas in 1usize..32,
    ) {
        let qo_lens: Vec<usize> = kv_lens.iter().map(|_| 1).collect();
        let layout = batch_layout(&kv_lens, &qo_lens, 2);
        // gamma = 0 for the makespan-dominance check: with a fixed
        // per-chunk cost, aggressive splitting can legitimately cost more
        // in cost-model units (the executor-level comparison lives in
        // fi-gpusim tests).
        let cost = CostModel { alpha: 1.0, beta: 1.0, gamma: 0.0 };
        let plan = balanced_plan(&layout, num_ctas, cost).unwrap();
        let naive = naive_plan(&layout, num_ctas, cost).unwrap();

        // Exact cover.
        let mut seen: Vec<Vec<bool>> = (0..layout.n_block_rows())
            .map(|br| vec![false; layout.block_row(br).len()])
            .collect();
        let mut partials = Vec::new();
        for (_, item) in plan.iter_items() {
            for b in item.kv_block_start..item.kv_block_end {
                prop_assert!(!seen[item.block_row][b]);
                seen[item.block_row][b] = true;
            }
            if let Some(pi) = item.partial_index {
                partials.push(pi);
            }
        }
        for row in &seen {
            prop_assert!(row.iter().all(|&x| x));
        }
        // Partial indices are 0..num_partials, unique.
        partials.sort_unstable();
        prop_assert_eq!(partials.len(), plan.num_partials);
        for (i, &p) in partials.iter().enumerate() {
            prop_assert_eq!(p, i);
        }
        // Merge groups reference exactly the partials.
        let group_total: usize = plan.merge_groups.iter().map(|g| g.partial_indices.len()).sum();
        prop_assert_eq!(group_total, plan.num_partials);
        // LPT is a heuristic (round-robin can get lucky pointwise), but
        // greedy list scheduling guarantees
        // makespan <= mean load + (1 - 1/m) * max item <= mean + max item
        // (Graham); 4/3*OPT can't be checked directly since OPT is unknown.
        let cost = CostModel { alpha: 1.0, beta: 1.0, gamma: 0.0 };
        let mean = plan.cta_costs.iter().sum::<f64>() / num_ctas as f64;
        let max_chunk = plan
            .iter_items()
            .map(|(_, w)| {
                let (rs, re) = layout.block_row_range(w.block_row);
                cost.cost(re - rs, w.kv_slots)
            })
            .fold(0.0f64, f64::max);
        prop_assert!(
            plan.makespan() <= mean + max_chunk + 1e-6,
            "list-scheduling bound violated: makespan {} vs mean {} + max {}",
            plan.makespan(),
            mean,
            max_chunk
        );
        let _ = naive;
    }
}
