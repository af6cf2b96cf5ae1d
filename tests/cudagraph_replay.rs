//! Integration: CUDAGraph-compatible serving steps. The workspace layout
//! is computed once from upper bounds; per-step sequence-length changes
//! re-plan but never move workspace sections or change grid sizes, so a
//! captured graph replays across a whole generation (§3.3.1, App. D.1).

use flashinfer::core::arch::Arch;
use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel};
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{VanillaAttention, VariantParams};
use flashinfer::gpusim::graph::{capture_pipeline_step, pipeline_step_ops, CudaGraph};
use flashinfer::kvcache::paged::{PagedKvCache, PagedKvConfig};
use flashinfer::sched::pipeline::{AttentionPipeline, SchedulePolicy};
use flashinfer::sched::plan::CostModel;
use flashinfer::sched::workspace::{Workspace, WorkspaceLayout};
use flashinfer::tensor::RaggedTensor;

#[test]
fn generation_loop_replays_one_captured_graph() {
    let heads = HeadConfig::new(2, 1, 8).unwrap();
    let params = VariantParams::for_head_dim(8);
    let variant = VanillaAttention { causal: true };
    let tile = TileConfig { tq: 1, tkv: 8 };
    let num_ctas = 8;
    let num_layers = 4;

    // One pipeline for the whole serving lifetime. Reserve the workspace
    // up front: capture will freeze it, so the sections must already be
    // big enough for every later step.
    let mut pipeline = AttentionPipeline::new(
        FlashKernel {
            tile,
            head_fusion: true,
        },
        num_ctas,
        CostModel::default(),
        SchedulePolicy::Balanced,
        Arch::Ampere,
    )
    .unwrap();
    pipeline
        .reserve(tile.tq, heads.num_qo_heads, heads.head_dim, 1 << 12)
        .unwrap();

    let cfg = PagedKvConfig {
        page_size: 4,
        num_pages: 128,
        num_kv_heads: 1,
        head_dim: 8,
    };
    let mut cache = PagedKvCache::<f32>::new(cfg).unwrap();
    let batch: Vec<u64> = (0..3).collect();
    for &id in &batch {
        cache.add_request(id).unwrap();
        for p in 0..10 + id as usize * 7 {
            let row: Vec<f32> = (0..cfg.row_width())
                .map(|j| (p + j) as f32 * 0.01)
                .collect();
            cache.append(id, &row, &row).unwrap();
        }
    }

    let mut graph = CudaGraph::new();
    let mut prev_out_sum = None::<f32>;
    for step in 0..6 {
        // Every step appends one token per request: lengths change.
        for &id in &batch {
            let row: Vec<f32> = (0..cfg.row_width())
                .map(|j| (step + j) as f32 * 0.02)
                .collect();
            cache.append(id, &row, &row).unwrap();
        }
        let qo_lens = vec![1usize; batch.len()];
        let kv_lens: Vec<usize> = batch.iter().map(|&id| cache.seq_len(id).unwrap()).collect();
        let pt = cache.page_table(&batch).unwrap();
        let bsr = pt.to_bsr(&qo_lens, tile.tq).unwrap();

        // plan() is CPU-side and not captured; run() is.
        pipeline
            .plan(&bsr, heads.num_qo_heads, heads.head_dim)
            .unwrap();
        if !graph.is_captured() {
            // Capture freezes the workspace and pins the plan's cache entry.
            capture_pipeline_step(&mut graph, &mut pipeline, num_layers, "fa2_vanilla_f32");
            assert!(pipeline.is_frozen());
        }
        let ops = pipeline_step_ops(&pipeline, num_layers, "fa2_vanilla_f32");
        graph
            .replay(&ops)
            .expect("replay must survive per-step length dynamism");

        let mut q = RaggedTensor::<f32>::from_seq_lens(&qo_lens, heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = ((i + step) as f32 * 0.1).sin();
        }
        let problem = AttentionProblem::standard_batch(
            &q,
            cache.k_pool(),
            cache.v_pool(),
            &bsr,
            heads,
            &kv_lens,
        )
        .unwrap();
        let out = pipeline.run(&problem, &variant, &params).unwrap();
        let sum: f32 = out.o.as_tensor().as_slice().iter().sum();
        assert!(sum.is_finite());
        // Outputs must change across steps (new tokens, new lengths).
        if let Some(prev) = prev_out_sum {
            assert_ne!(prev, sum);
        }
        prev_out_sum = Some(sum);
    }
    assert_eq!(graph.replay_count(), 6);
    // The pipeline re-planned each step (lengths changed every step).
    assert_eq!(pipeline.stats().plans_computed, 6);
    // The captured step's plan is pinned and survives cache pressure.
    assert!(!pipeline.cache().is_empty());
}

#[test]
fn determinism_across_replans() {
    // Re-running the same lengths produces bit-identical outputs: the
    // deterministic merge order the paper requires for serving.
    let heads = HeadConfig::new(2, 1, 8).unwrap();
    let params = VariantParams::for_head_dim(8);
    let variant = VanillaAttention { causal: true };
    let tile = TileConfig { tq: 1, tkv: 4 };

    let cfg = PagedKvConfig {
        page_size: 4,
        num_pages: 64,
        num_kv_heads: 1,
        head_dim: 8,
    };
    let mut cache = PagedKvCache::<f32>::new(cfg).unwrap();
    cache.add_request(0).unwrap();
    for p in 0..50 {
        let row: Vec<f32> = (0..cfg.row_width())
            .map(|j| ((p * 13 + j) as f32).sin())
            .collect();
        cache.append(0, &row, &row).unwrap();
    }
    let pt = cache.page_table(&[0]).unwrap();
    let bsr = pt.to_bsr(&[1], 1).unwrap();
    let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = (i as f32 * 0.3).cos();
    }
    let problem =
        AttentionProblem::standard_batch(&q, cache.k_pool(), cache.v_pool(), &bsr, heads, &[50])
            .unwrap();

    let run_once = || {
        let ws = Workspace::allocate(WorkspaceLayout::compute(1, 2, 8, 16, 1 << 12));
        let mut h = AttentionPipeline::with_workspace(
            FlashKernel {
                tile,
                head_fusion: true,
            },
            16,
            CostModel::default(),
            SchedulePolicy::Balanced,
            Arch::Ampere,
            ws,
        )
        .unwrap();
        h.plan(&bsr, 2, 8).unwrap();
        h.run(&problem, &variant, &params).unwrap()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(
        a.o.as_tensor().as_slice(),
        b.o.as_tensor().as_slice(),
        "bitwise determinism"
    );
    assert_eq!(a.lse, b.lse);
}
