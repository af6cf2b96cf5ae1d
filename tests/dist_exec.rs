//! fi-dist integration: tensor-parallel sharded attention through
//! [`ShardedExecutor`] must be *bit-identical* (exact f32 equality) to a
//! single-shard [`AttentionPipeline`] oracle holding all heads — for
//! tp ∈ {1, 2, 4, 8}, for prefill and decode units, in both reduce
//! modes, over proptest-randomized GQA shapes and traffic — and the
//! `EngineConfig::for_gpu` tensor-parallel KV accounting must agree with
//! the aggregate capacity of an actual sharded pool.
//!
//! Why exact equality is the right bar: attention heads are
//! arithmetically independent, the planner's KV-split decisions depend
//! only on the BSR layout and CTA count (not the head count), and the
//! per-rank pools run in allocator lockstep — so a rank computes the
//! same bits for its head slice as the full-width oracle does, and the
//! deterministic collectives reassemble them without any arithmetic on
//! the AllGather path (and with exactly one nonzero contribution per
//! element on the AllReduce path).

use flashinfer::core::arch::Arch;
use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel};
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{VanillaAttention, VariantParams};
use flashinfer::dist::{BatchUnit, CommStats, ReduceMode, ShardedExecutor, ShardedKvPool};
use flashinfer::gpusim::GpuSpec;
use flashinfer::kvcache::paged::{PagedKvCache, PagedKvConfig};
use flashinfer::runtime::{kv_row, q_row};
use flashinfer::sched::pipeline::AttentionPipeline;
use flashinfer::sched::pipeline::SchedulePolicy;
use flashinfer::sched::plan::CostModel;
use flashinfer::serving::engine::EngineConfig;
use flashinfer::serving::model::ModelConfig;
use flashinfer::tensor::RaggedTensor;
use proptest::prelude::*;

/// One scheduler step of the replay: full-width KV rows appended first,
/// then the step's attention units (batched together on the sharded
/// side, run one-by-one by the oracle — the executor plans per unit, so
/// the grouping must not matter).
#[derive(Debug, Clone, Default)]
struct Step {
    /// `(req_id, seed, position)` rows to append before running.
    appends: Vec<(u64, u64, usize)>,
    /// `(req_id, seed, qo_start, qo_len, kv_len)` attention launches.
    units: Vec<(u64, u64, usize, usize, usize)>,
}

/// Prefill-then-decode traffic over `reqs = [(seed, prompt, output)]`:
/// step 0 appends every prompt and runs one self-attention prefill per
/// request; step `t ≥ 1` appends one generated row per live request and
/// runs its batch-of-one decode unit.
fn schedule(reqs: &[(u64, usize, usize)]) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut prefill = Step::default();
    for (i, &(seed, prompt, _)) in reqs.iter().enumerate() {
        let id = i as u64 + 1;
        for pos in 0..prompt {
            prefill.appends.push((id, seed, pos));
        }
        prefill.units.push((id, seed, 0, prompt, prompt));
    }
    steps.push(prefill);
    let max_out = reqs.iter().map(|r| r.2).max().unwrap_or(0);
    for t in 0..max_out {
        let mut s = Step::default();
        for (i, &(seed, prompt, output)) in reqs.iter().enumerate() {
            if t < output {
                let id = i as u64 + 1;
                let pos = prompt + t;
                s.appends.push((id, seed, pos));
                s.units.push((id, seed, pos, 1, pos + 1));
            }
        }
        steps.push(s);
    }
    steps
}

fn pool_pages(reqs: &[(u64, usize, usize)], page_size: usize) -> usize {
    reqs.iter()
        .map(|&(_, p, o)| (p + o).div_ceil(page_size) + 1)
        .sum::<usize>()
        + 2
}

fn q_rows(seed: u64, start: usize, len: usize, width: usize) -> Vec<f32> {
    let mut q = Vec::with_capacity(len * width);
    for pos in start..start + len {
        q.extend_from_slice(&q_row(seed, pos, width));
    }
    q
}

/// Single-shard oracle: one full-width pool, one pipeline holding all
/// heads, units replayed sequentially in schedule order.
fn oracle_replay(
    heads: HeadConfig,
    tile: TileConfig,
    page_size: usize,
    reqs: &[(u64, usize, usize)],
    steps: &[Step],
) -> Vec<Vec<f32>> {
    let (kvw, qow) = (heads.kv_width(), heads.qo_width());
    let mut cache = PagedKvCache::<f32>::new(PagedKvConfig {
        page_size,
        num_pages: pool_pages(reqs, page_size),
        num_kv_heads: heads.num_kv_heads,
        head_dim: heads.head_dim,
    })
    .unwrap();
    for i in 0..reqs.len() {
        cache.add_request(i as u64 + 1).unwrap();
    }
    let mut pipeline = AttentionPipeline::new(
        FlashKernel {
            tile,
            head_fusion: true,
        },
        NUM_CTAS,
        CostModel::default(),
        SchedulePolicy::Balanced,
        Arch::Hopper,
    )
    .unwrap();
    let params = VariantParams::for_head_dim(heads.head_dim);
    let variant = VanillaAttention { causal: true };

    let mut outputs = Vec::new();
    for step in steps {
        for &(id, seed, pos) in &step.appends {
            let k = kv_row(seed, pos, kvw, false);
            let v = kv_row(seed, pos, kvw, true);
            cache.append(id, &k, &v).unwrap();
        }
        for &(id, seed, qo_start, qo_len, kv_len) in &step.units {
            let pt = cache.page_table(&[id]).unwrap();
            let layout = pt.to_bsr(&[qo_len], tile.tq).unwrap();
            let mut q = RaggedTensor::<f32>::from_seq_lens(&[qo_len], qow);
            q.as_tensor_mut()
                .as_mut_slice()
                .copy_from_slice(&q_rows(seed, qo_start, qo_len, qow));
            let problem = AttentionProblem::standard_batch(
                &q,
                cache.k_pool(),
                cache.v_pool(),
                &layout,
                heads,
                &[kv_len],
            )
            .unwrap();
            pipeline
                .plan(&layout, heads.num_qo_heads, heads.head_dim)
                .unwrap();
            let out = pipeline.run(&problem, &variant, &params).unwrap();
            outputs.push(out.o.seq(0).to_vec());
        }
    }
    outputs
}

/// The same schedule through a `tp`-way [`ShardedExecutor`]: full-width
/// appends sliced per rank by the pool, each step's units fanned out as
/// one batch, outputs reassembled by `mode`.
fn sharded_replay(
    heads: HeadConfig,
    tp: usize,
    mode: ReduceMode,
    tile: TileConfig,
    page_size: usize,
    reqs: &[(u64, usize, usize)],
    steps: &[Step],
) -> (Vec<Vec<f32>>, CommStats) {
    let kvw = heads.kv_width();
    let qow = heads.qo_width();
    let pool = ShardedKvPool::new(heads, tp, page_size, pool_pages(reqs, page_size)).unwrap();
    for i in 0..reqs.len() {
        pool.add_request(i as u64 + 1).unwrap();
    }
    let exec = ShardedExecutor::new(&pool, tile, NUM_CTAS).unwrap();
    let mut outputs = Vec::new();
    for step in steps {
        for &(id, seed, pos) in &step.appends {
            let k = kv_row(seed, pos, kvw, false);
            let v = kv_row(seed, pos, kvw, true);
            pool.append(id, &k, &v).unwrap();
        }
        let batch: Vec<BatchUnit> = step
            .units
            .iter()
            .map(|&(id, seed, qo_start, qo_len, kv_len)| BatchUnit {
                req_id: id,
                qo_len,
                kv_len,
                q: q_rows(seed, qo_start, qo_len, qow),
            })
            .collect();
        if !batch.is_empty() {
            outputs.extend(exec.run(&batch, mode).unwrap());
        }
    }
    let stats = exec.comm_stats();
    exec.join();
    (outputs, stats)
}

fn assert_outputs_bit_identical(got: &[Vec<f32>], want: &[Vec<f32>], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: unit count");
    for (u, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            g == w,
            "{label}: unit {u} differs from the single-shard oracle"
        );
    }
}

const TILE: TileConfig = TileConfig { tq: 4, tkv: 8 };
const NUM_CTAS: usize = 4;

/// The headline property at fixed shapes: tp ∈ {1, 2, 4, 8} all
/// reproduce the single-shard oracle bit-for-bit, prefill and decode,
/// with nonzero collective traffic exactly when tp > 1.
#[test]
fn sharded_executor_matches_oracle_across_tp() {
    let heads = HeadConfig::new(16, 8, 8).unwrap(); // GQA group of 2
    let reqs = [(0xD157u64, 9, 4), (0xD158, 5, 6), (0xD159, 13, 2)];
    let steps = schedule(&reqs);
    let oracle = oracle_replay(heads, TILE, 4, &reqs, &steps);
    assert_eq!(oracle.len(), 3 + 4 + 6 + 2);

    for tp in [1usize, 2, 4, 8] {
        let (got, stats) = sharded_replay(heads, tp, ReduceMode::AllGather, TILE, 4, &reqs, &steps);
        assert_outputs_bit_identical(&got, &oracle, &format!("tp={tp}"));
        if tp == 1 {
            assert_eq!(
                stats.total_bytes(),
                0,
                "a world of one moves no bytes between ranks"
            );
        } else {
            assert!(stats.all_gathers > 0, "tp={tp} must gather outputs");
            assert!(stats.total_bytes() > 0, "tp={tp} must move bytes");
        }
    }
}

/// AllReduce reassembly (the o-projection boundary stand-in) is *also*
/// bit-exact: each output element receives exactly one nonzero
/// contribution, and the tree-sum of zeros is exact.
#[test]
fn all_reduce_mode_is_bit_exact_too() {
    let heads = HeadConfig::new(8, 8, 16).unwrap(); // MHA
    let reqs = [(0xA11Au64, 7, 3), (0xA11B, 4, 5)];
    let steps = schedule(&reqs);
    let oracle = oracle_replay(heads, TILE, 4, &reqs, &steps);
    for tp in [2usize, 4] {
        let (got, stats) = sharded_replay(heads, tp, ReduceMode::AllReduce, TILE, 4, &reqs, &steps);
        assert_outputs_bit_identical(&got, &oracle, &format!("allreduce tp={tp}"));
        assert!(stats.all_reduces > 0);
        assert!(stats.all_reduce_bytes > 0);
    }
}

/// `EngineConfig::for_gpu`'s tensor-parallel KV accounting agrees with
/// an actual sharded pool: the rank shards together cover exactly the
/// model's KV heads (so aggregate bytes/token equals the full-width
/// figure), and a pool sized to `kv_capacity_tokens` fits the group's
/// post-weights KV budget with at most one page of rounding slack.
#[test]
fn for_gpu_tp_accounting_matches_sharded_pool_capacity() {
    let model = ModelConfig::LLAMA3_70B; // tp = 4, 8 KV heads
    let tp = model.tensor_parallel;
    let spec = GpuSpec::H100_80G;
    let ec = EngineConfig::for_gpu(&spec, &model);
    assert!(ec.kv_capacity_tokens > 0);

    let page_size = 16;
    let num_pages = ec.kv_capacity_tokens / page_size;
    let pool = ShardedKvPool::new(model.heads(), tp, page_size, num_pages).unwrap();

    // The shards partition the full KV width: aggregate bytes/token is
    // the same `kv_bytes_per_token` the engine divides by.
    let occ = pool.occupancy();
    assert_eq!(occ.len(), tp);
    let kv_heads_total: usize = occ.iter().map(|o| o.kv_heads).sum();
    assert_eq!(kv_heads_total, model.num_kv_heads);
    let per_rank_bytes_per_token = model.kv_bytes_per_token() / tp;

    // Every rank stores the same token positions (1/tp of each row), so
    // pool capacity in tokens is the per-rank geometry.
    let tokens = num_pages * page_size;
    let aggregate_bytes = tp * tokens * per_rank_bytes_per_token;

    // The engine's budget: per-GPU free HBM after the weight shard,
    // minus the 10% activation reserve, summed over the group.
    let weights_per_gpu = model.weight_bytes().div_ceil(tp);
    let budget = tp * ((spec.hbm_capacity - weights_per_gpu) * 9 / 10);
    assert!(
        aggregate_bytes <= budget,
        "sharded pool must fit the advertised budget"
    );
    let slack = budget - aggregate_bytes;
    assert!(
        slack <= (page_size + 1) * model.kv_bytes_per_token(),
        "unused budget exceeds page-rounding slack: {slack} bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized shapes and traffic: any GQA geometry with 8 KV heads,
    /// any page size, any request mix — sharding at tp ∈ {2, 4, 8} is
    /// bit-exact against the oracle in both reduce modes.
    #[test]
    fn randomized_traffic_is_bit_exact(
        group in 1usize..4,
        dim_sel in 0usize..3,
        page_size in 2usize..6,
        shapes in prop::collection::vec((1usize..18, 0usize..5), 1..4),
        tp_sel in 0usize..3,
        reduce_sel in 0usize..2,
        seed0 in 0u64..1000,
    ) {
        let head_dim = [4usize, 8, 16][dim_sel];
        let heads = HeadConfig::new(8 * group, 8, head_dim).unwrap();
        let tp = [2usize, 4, 8][tp_sel];
        let mode = [ReduceMode::AllGather, ReduceMode::AllReduce][reduce_sel];
        let reqs: Vec<(u64, usize, usize)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(p, o))| (seed0 + 7 * i as u64, p, o))
            .collect();
        let steps = schedule(&reqs);
        let oracle = oracle_replay(heads, TILE, page_size, &reqs, &steps);
        let (got, _) = sharded_replay(heads, tp, mode, TILE, page_size, &reqs, &steps);
        assert_outputs_bit_identical(&got, &oracle, &format!("tp={tp} mode={mode:?}"));
    }
}
