//! Layer replay: the benchmark times calls into each layer's public
//! functions on the workload's median shapes, after the timed repetitions.
//! Spans are recorded here, around those calls; none are inside the program.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fi_core::arch::Arch;
use fi_core::gather::Stager;
use fi_core::kernel::{AttentionProblem, FlashKernel};
use fi_core::scratch::KernelScratch;
use fi_core::variant::{VanillaAttention, VariantParams};
use fi_gpusim::{ExecContext, GpuSpec};
use fi_kvcache::paged::{PagedKvCache, PagedKvConfig};
use fi_kvcache::RadixTree;
use fi_runtime::{kv_row, q_row};
use fi_sched::pipeline::{AttentionPipeline, SchedulePolicy};
use fi_sched::plan::CostModel;
use fi_tensor::{numerics, RaggedTensor};

use crate::speed::{fma_probe, stream_sum, FMA_CHAINS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{heads, NUM_PAGES, PAGE_SIZE, TILE};

/// Median seconds per call of `f`, over batches sized to last about 0.2 ms,
/// for `budget` in total.
fn time_call<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut iters = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if t.elapsed() >= Duration::from_micros(200) || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_call.push(t.elapsed().as_secs_f64() / f64::from(iters));
    }
    median(&per_call)
}

fn pool_config() -> PagedKvConfig {
    let h = heads();
    PagedKvConfig {
        page_size: PAGE_SIZE,
        num_pages: NUM_PAGES,
        num_kv_heads: h.num_kv_heads,
        head_dim: h.head_dim,
    }
}

/// `n` K rows and `n` V rows, flattened, as the runtime would write them.
fn kv_rows(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
    let w = heads().kv_width();
    let rows = |value| -> Vec<f32> { (0..n).flat_map(|p| kv_row(seed, p, w, value)).collect() };
    (rows(false), rows(true))
}

/// One attention launch for one request, as the runtime's workers see it.
#[derive(Debug, Clone, Copy)]
pub struct UnitShape {
    pub qo_len: usize,
    pub kv_len: usize,
}

/// Median time of each call in a worker's unit, microseconds, plus what the
/// kernel reported about the unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitTimes {
    pub page_table_us: f64,
    pub to_bsr_us: f64,
    pub plan_hit_us: f64,
    pub plan_miss_us: f64,
    pub run_us: f64,
    pub kernel_us: f64,
    pub stage_us: f64,
    pub flops: f64,
    pub staged_bytes: f64,
}

impl UnitTimes {
    /// Everything a worker does for the unit that the replay times.
    pub fn total_us(&self) -> f64 {
        self.page_table_us + self.to_bsr_us + self.plan_hit_us + self.run_us
    }
}

/// Replay one unit shape for `budget`: two equal-length requests whose pages
/// interleave in the pool (as concurrent requests' pages do), alternating,
/// so every `plan` is a shape-cache hit on a different layout.
pub fn replay_unit(shape: UnitShape, budget: Duration, tracer: &mut Tracer) -> UnitTimes {
    let h = heads();
    let mut cache = PagedKvCache::<f32>::new(pool_config()).expect("replay pool");
    let ids = [1u64, 2];
    let w = h.kv_width();
    for id in ids {
        cache.add_request(id).expect("fresh id");
    }
    let data = ids.map(|id| kv_rows(id, shape.kv_len));
    for start in (0..shape.kv_len).step_by(PAGE_SIZE) {
        let end = (start + PAGE_SIZE).min(shape.kv_len);
        for (id, (k, v)) in ids.iter().zip(&data) {
            cache
                .append_many(*id, &k[start * w..end * w], &v[start * w..end * w])
                .expect("replay pool holds two requests");
        }
    }
    let mut q = RaggedTensor::<f32>::from_seq_lens(&[shape.qo_len], h.qo_width());
    let q_base = shape.kv_len - shape.qo_len;
    for (r, row) in q
        .as_tensor_mut()
        .as_mut_slice()
        .chunks_mut(h.qo_width())
        .enumerate()
    {
        row.copy_from_slice(&q_row(7, q_base + r, h.qo_width()));
    }
    let kernel = FlashKernel {
        tile: TILE,
        head_fusion: true,
    };
    let mut pipeline = AttentionPipeline::new(
        kernel,
        8,
        CostModel::default(),
        SchedulePolicy::Balanced,
        Arch::Hopper,
    )
    .expect("static pipeline config");
    let variant = VanillaAttention { causal: true };
    let params = VariantParams::for_head_dim(h.head_dim);
    let mut scratch = KernelScratch::new();
    let mut stager = Stager::new();
    let (mut k_out, mut v_out) = (Vec::new(), Vec::new());

    let mut samples: [Vec<f64>; 6] = Default::default();
    let mut times = UnitTimes::default();
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    let start = Instant::now();
    let mut it = 0u64;
    while it < 6 || start.elapsed() < budget {
        let id = ids[(it % 2) as usize];
        let t0 = Instant::now();
        let pt = cache.page_table(&[id]).expect("live request");
        let t1 = Instant::now();
        let layout = pt.to_bsr(&[shape.qo_len], TILE.tq).expect("bsr layout");
        let t2 = Instant::now();
        let problem = AttentionProblem::standard_batch(
            &q,
            cache.k_pool(),
            cache.v_pool(),
            &layout,
            h,
            &[shape.kv_len],
        )
        .expect("replay problem");
        let t3 = Instant::now();
        pipeline
            .plan(&layout, h.num_qo_heads, h.head_dim)
            .expect("plan");
        let t4 = Instant::now();
        let out = pipeline.run(&problem, &variant, &params).expect("run");
        let t5 = Instant::now();
        black_box(&out.o);

        let raw = kernel
            .run_with_scratch(&problem, &variant, &params, &mut scratch)
            .expect("kernel");
        let t6 = Instant::now();
        let slots: Vec<usize> = (0..shape.kv_len).map(|p| pt.slot_of(0, p)).collect();
        let t7 = Instant::now();
        stager.stage_rows_into(
            cache.k_pool(),
            cache.v_pool(),
            &slots,
            w,
            &mut k_out,
            &mut v_out,
            None,
        );
        let t8 = Instant::now();
        black_box((&k_out, &v_out));

        // The first pass of each request computes its plan and grows the
        // scratch: warm-up, not steady state.
        if it >= 2 {
            let root = tracer.record(0, it, "replay", t0, t5);
            tracer.record(root, it, "kvcache.page_table", t0, t1);
            tracer.record(root, it, "sparse.to_bsr", t1, t2);
            tracer.record(root, it, "sched.plan", t3, t4);
            tracer.record(root, it, "sched.run", t4, t5);
            tracer.record(0, it, "core.kernel", t5, t6);
            tracer.record(0, it, "core.stage", t7, t8);
            for (s, v) in samples.iter_mut().zip([
                us(t0, t1),
                us(t1, t2),
                us(t3, t4),
                us(t4, t5),
                us(t5, t6),
                us(t7, t8),
            ]) {
                s.push(v);
            }
            times.flops = raw.stats.flops as f64;
            times.staged_bytes = (2 * shape.kv_len * w * 4) as f64;
        }
        it += 1;
    }
    let [pt, bsr, plan, run, kern, stage] = samples.map(|s| median(&s));
    times.page_table_us = pt;
    times.to_bsr_us = bsr;
    times.plan_hit_us = plan;
    times.run_us = run;
    times.kernel_us = kern;
    times.stage_us = stage;

    let pt = cache.page_table(&[1]).expect("live request");
    let layout = pt.to_bsr(&[shape.qo_len], TILE.tq).expect("bsr layout");
    times.plan_miss_us = time_call(budget / 8, || {
        pipeline.invalidate();
        pipeline
            .plan(&layout, h.num_qo_heads, h.head_dim)
            .expect("plan")
            .num_items()
    }) * 1e6;
    times
}

/// fi-kvcache calls outside a worker's unit: the scheduler's side.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvProbe {
    pub append_many_ns_per_row: f64,
    pub append_ns: f64,
    pub alloc_free_ns_per_page: f64,
    pub radix_match_us: f64,
}

/// `prompt_len` is the median prompt chunk the workload prefills. The radix
/// tree is asked about a 1024-token prefix on every workload, so the figure
/// compares across them.
pub fn probe_kvcache(prompt_len: usize, budget: Duration) -> KvProbe {
    let w = heads().kv_width();
    let mut cache = PagedKvCache::<f32>::new(pool_config()).expect("probe pool");
    let (k, v) = kv_rows(3, prompt_len);
    let append_many = time_call(budget, || {
        cache.add_request(9).expect("fresh id");
        cache.append_many(9, &k, &v).expect("fits");
        cache.remove_request(9).expect("live id");
    });
    // One decode step's write: a row onto a request that keeps growing;
    // the request is recycled before the pool runs out.
    cache.add_request(1).expect("fresh id");
    let mut len = 0usize;
    let append = time_call(budget, || {
        if len == PAGE_SIZE * (NUM_PAGES - 1) {
            cache.remove_request(1).expect("live id");
            cache.add_request(1).expect("fresh id");
            len = 0;
        }
        len += 1;
        cache.append(1, &k[..w], &v[..w]).expect("fits");
    });
    cache.remove_request(1).expect("live id");
    let pages = 64;
    let alloc_free = time_call(budget, || {
        let p = cache.alloc_pages(pages).expect("pool has 64 free pages");
        cache.release_pages(&p);
    });
    let prefix = 1024usize;
    let tokens: Vec<u32> = (0..prefix + 32)
        .map(|i| fi_runtime::prefix_token(5, i))
        .collect();
    let slots: Vec<usize> = (0..prefix).collect();
    let mut radix = RadixTree::new();
    radix
        .insert(&tokens[..prefix], &slots)
        .expect("radix insert");
    let radix_match = time_call(budget, || radix.match_prefix(&tokens).matched_tokens);
    KvProbe {
        append_many_ns_per_row: append_many * 1e9 / prompt_len as f64,
        append_ns: append * 1e9,
        alloc_free_ns_per_page: alloc_free * 1e9 / pages as f64,
        radix_match_us: radix_match * 1e6,
    }
}

/// What this host sustains, for the `pct_of_*` columns. Context only: never
/// a divisor of an end-to-end metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostProbe {
    pub stream_gbps: f64,
    pub fma_gflops: f64,
    pub dot_gflops: f64,
    pub axpy_gbps: f64,
    pub cascade_gate_ns: f64,
}

pub fn probe_host(budget: Duration) -> HostProbe {
    let h = heads();
    // 64 MiB: far past the last-level cache, so the sum streams from memory.
    let big = vec![1.0f32; 16 << 20];
    let stream = time_call(budget, || stream_sum(&big));
    let rounds = 4096;
    let fma = time_call(budget, || fma_probe(rounds));
    // L1-resident operands: the microkernels' own ceiling.
    let x = vec![0.5f32; 4096];
    let mut y = vec![0.25f32; 4096];
    let dot = time_call(budget, || numerics::dot(&x, &y));
    let axpy = time_call(budget, || numerics::axpy(0.001, &x, &mut y));
    let mut ctx = ExecContext::new(GpuSpec::H100_80G, h, TILE);
    ctx.kv_elem_bytes = 4;
    ctx.q_elem_bytes = 4;
    let suffixes = [56usize; 8];
    let gate = time_call(budget, || ctx.cascade_beats_flat(1024, &suffixes));
    HostProbe {
        stream_gbps: (big.len() * 4) as f64 / stream / 1e9,
        fma_gflops: (rounds * FMA_CHAINS * 8 * 2) as f64 / fma / 1e9,
        dot_gflops: (x.len() * 2) as f64 / dot / 1e9,
        axpy_gbps: (x.len() * 12) as f64 / axpy / 1e9,
        cascade_gate_ns: gate * 1e9,
    }
}
