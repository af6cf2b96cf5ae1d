//! Ablation (Appendix A / Figure 11): GQA head-group fusion. Without
//! fusion, each query head's threadblock re-stages its group's shared KV;
//! with fusion, query heads fold into tile rows and one staged KV tile
//! serves the whole group. Reports decode KV traffic and latency across
//! group sizes, plus the numeric-path byte accounting from the real
//! kernel (`fi-core`).

use fi_bench::{plan_layout, Experiment};
use fi_core::config::HeadConfig;
use fi_core::gqa::kv_load_bytes;
use fi_core::kernel::{AttentionProblem, FlashKernel};
use fi_core::scratch::KernelScratch;
use fi_core::tiles::{select_tile, TileConfig};
use fi_core::variant::{VanillaAttention, VariantParams};
use fi_gpusim::exec::{execute_plan, ExecContext};
use fi_gpusim::GpuSpec;
use fi_sched::pipeline::SchedulePolicy;
use fi_serving::costlayout::{cost_layout, decode_items};
use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
use fi_tensor::{RaggedTensor, Tensor};

fn main() {
    let spec = GpuSpec::H100_80G;
    let kv_len = 2048usize;
    let batch = 16usize;
    let num_qo_heads = 32usize;

    let mut lat = Experiment::new("ablation_gqa_latency", "decode attention time (us)");
    let mut traffic = Experiment::new("ablation_gqa_traffic", "KV bytes per request (MB)");
    let mut fused_pts = Vec::new();
    let mut unfused_pts = Vec::new();
    let mut tf = Vec::new();
    let mut tu = Vec::new();
    for group in [1usize, 2, 4, 8] {
        let num_kv_heads = num_qo_heads / group;
        let heads = HeadConfig::new(num_qo_heads, num_kv_heads, 128).unwrap();
        let tile = select_tile(group as f64, heads.head_dim, spec.sm);
        let items = decode_items(&vec![kv_len; batch], num_kv_heads);
        let layout = cost_layout(&items, 64);
        let plan = plan_layout(&layout, spec.num_sms, tile, SchedulePolicy::Balanced);
        let mut ctx = ExecContext::new(spec, heads, tile);
        ctx.heads_per_item = 1;
        let fused = execute_plan(&plan, &layout, &ctx);
        ctx.head_fusion = false;
        let unfused = execute_plan(&plan, &layout, &ctx);
        let tag = format!("g={group}");
        fused_pts.push((tag.clone(), fused.makespan * 1e6));
        unfused_pts.push((tag.clone(), unfused.makespan * 1e6));
        tf.push((
            tag.clone(),
            kv_load_bytes(heads, kv_len, 2, true) as f64 / 1e6,
        ));
        tu.push((tag, kv_load_bytes(heads, kv_len, 2, false) as f64 / 1e6));
    }
    lat.push("fused", fused_pts);
    lat.push("unfused", unfused_pts);
    traffic.push("fused", tf);
    traffic.push("unfused", tu);
    lat.print();
    lat.save();
    traffic.print();
    traffic.save();

    // Numeric-path confirmation: the real kernel's gather accounting shows
    // exactly a group-size reduction, with identical outputs.
    let heads = HeadConfig::new(8, 2, 16).unwrap();
    let l_kv = 64usize;
    let mut q = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = (i as f32 * 0.37).sin();
    }
    let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| (i as f32 * 0.11).cos());
    let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| (i as f32 * 0.23).sin());
    let layout = BlockSparseMatrix::new(
        1,
        l_kv,
        16,
        vec![(
            0,
            1,
            (0..4)
                .map(|c| BlockEntry {
                    col_block: c,
                    len: 16,
                })
                .collect(),
        )],
    )
    .unwrap();
    let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();
    let params = VariantParams::for_head_dim(16);
    let variant = VanillaAttention { causal: true };
    let mut scratch = KernelScratch::new();
    let f = FlashKernel {
        tile: TileConfig { tq: 1, tkv: 16 },
        head_fusion: true,
    }
    .run_with_scratch(&problem, &variant, &params, &mut scratch)
    .unwrap();
    let u = FlashKernel {
        tile: TileConfig { tq: 1, tkv: 16 },
        head_fusion: false,
    }
    .run_with_scratch(&problem, &variant, &params, &mut scratch)
    .unwrap();
    println!(
        "\nKernel gather bytes: fused {} vs unfused {} (ratio {} = group size {})",
        f.stats.gather.global_bytes,
        u.stats.gather.global_bytes,
        u.stats.gather.global_bytes / f.stats.gather.global_bytes,
        heads.group_size(),
    );
    assert_eq!(f.o, u.o, "fusion must not change numerics");
    println!("Expected shape: unfused traffic/latency grows linearly with group size; fused stays flat (per-KV-head).");
}
