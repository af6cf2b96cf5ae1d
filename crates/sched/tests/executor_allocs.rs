//! Counting-allocator proof that attention states stay flat from kernel
//! chunk to output row: at steady state a launch allocates what its
//! returned `KernelOutput` owns, however many partials, states or group
//! members it has — no state is ever materialized in between.
//!
//! This file deliberately contains exactly one `#[test]`: the global
//! allocation counter is process-wide, and libtest runs tests in a file
//! concurrently, so a second test here would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fi_core::arch::Arch;
use fi_core::config::HeadConfig;
use fi_core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use fi_core::tiles::TileConfig;
use fi_core::variant::{VanillaAttention, VariantParams};
use fi_sched::cascade::CascadeDecodeGroup;
use fi_sched::pipeline::{AttentionPipeline, SchedulePolicy};
use fi_sched::plan::CostModel;
use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
use fi_sparse::PageTable;
use fi_tensor::{RaggedTensor, Tensor};

/// Counts every allocation (alloc, alloc_zeroed, realloc) routed through
/// the global allocator; frees are not counted.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of one steady-state call of `f`: three warmup calls, then
/// the minimum over several windows — the counter is process-wide, and a
/// stray allocation of the libtest harness can only inflate a window, never
/// deflate it (the `alloc_free.rs` protocol).
fn steady_allocs(mut f: impl FnMut()) -> u64 {
    for _ in 0..3 {
        f();
    }
    (0..8)
        .map(|_| {
            let before = ALLOC_CALLS.load(Ordering::SeqCst);
            f();
            ALLOC_CALLS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap()
}

/// The serving geometry of the benchmark: 8/2 heads of 64, tile 16/64,
/// pages of 16, 8 CTAs.
const PAGE: usize = 16;

/// What a `KernelOutput` owns: the output tensor's indptr, shape and data,
/// and the LSE vector.
const OUTPUT_ALLOCS: u64 = 4;

/// What one level's `AttentionProblem` owns: its row metadata and its
/// per-block-row timeline offsets.
const PROBLEM_ALLOCS: u64 = 2;

/// A table of `len` slots over consecutive pages starting at `first_page`.
fn table(first_page: usize, len: usize, pool_pages: usize) -> PageTable {
    let n = len.div_ceil(PAGE);
    let pages = (first_page..first_page + n).collect();
    PageTable::new(PAGE, pool_pages, vec![pages], vec![len - (n - 1) * PAGE]).unwrap()
}

#[test]
fn steady_state_launches_allocate_only_their_outputs() {
    let heads = HeadConfig::new(8, 2, 64).unwrap();
    let (hq, d) = (heads.num_qo_heads, heads.head_dim);
    let params = VariantParams::for_head_dim(d);
    let variant = VanillaAttention { causal: true };
    let kernel = FlashKernel {
        tile: TileConfig { tq: 16, tkv: 64 },
        head_fusion: true,
    };
    let pool_pages = 160;
    let k = Tensor::<f32>::from_fn(vec![pool_pages * PAGE, heads.kv_width()], |i| {
        ((i % 13) as f32) * 0.1
    });
    let v = Tensor::<f32>::from_fn(vec![pool_pages * PAGE, heads.kv_width()], |i| {
        ((i % 7) as f32) * 0.2
    });
    // One pipeline across every launch, as a worker's is across its units.
    let mut pipeline = AttentionPipeline::new(
        kernel,
        8,
        CostModel::default(),
        SchedulePolicy::Balanced,
        Arch::Ampere,
    )
    .unwrap();

    // A split-KV decode unit, `plan` + `run` as a worker issues them.
    for (kv, partials) in [(80usize, 5usize), (640, 8), (1100, 9)] {
        let layout = table(0, kv, pool_pages)
            .to_bsr(&[1], kernel.tile.tq)
            .unwrap();
        let q = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[kv]).unwrap();
        let allocs = steady_allocs(|| {
            pipeline.plan(&layout, hq, d).unwrap();
            let out = pipeline.run(&problem, &variant, &params).unwrap();
            assert!(out.lse.iter().all(|l| l.is_finite()));
        });
        assert_eq!(pipeline.plan_ref().unwrap().num_partials, partials);
        assert_eq!(
            allocs, OUTPUT_ALLOCS,
            "kv {kv}: {partials} partials x {hq} states must not show in the allocation count"
        );
    }

    // A shared-prefix decode group: a 1024-token prefix, 56-token suffixes.
    // Every level is re-planned per launch — a cache hit, whose cost is
    // `plan`'s own and is measured here by planning the same layouts.
    let (prefix, suffix) = (1024usize, 56usize);
    let owner = table(0, prefix, pool_pages);
    for members in [1usize, 4, 8] {
        let tables: Vec<PageTable> = (0..members)
            .map(|m| {
                table(
                    prefix / PAGE + m * suffix.div_ceil(PAGE),
                    suffix,
                    pool_pages,
                )
            })
            .collect();
        let group = CascadeDecodeGroup::from_page_tables(&owner, &tables, prefix).unwrap();
        let q = RaggedTensor::<f32>::from_seq_lens(&vec![1; members], heads.qo_width());
        let row_meta: Vec<RowMeta> = (0..members)
            .map(|m| RowMeta {
                batch_idx: m,
                qo_pos: 0,
                qo_len: 1,
                kv_len: prefix + suffix,
            })
            .collect();
        let launch = steady_allocs(|| {
            let out = group
                .run(
                    &mut pipeline,
                    &q,
                    &k,
                    &v,
                    heads,
                    &row_meta,
                    &variant,
                    &params,
                    None,
                )
                .unwrap();
            assert!(out.lse.iter().all(|l| l.is_finite()));
        });

        // The group's levels: the prefix as one tile over every row, then
        // one single-row level per member.
        let level = |rows: (usize, usize), pt: &PageTable| {
            let pages = pt.request_pages(0);
            let entries = (pages.iter().enumerate())
                .map(|(i, &p)| BlockEntry {
                    col_block: p,
                    len: PAGE.min(pt.kv_len(0) - i * PAGE),
                })
                .collect();
            let tile = vec![(rows.0, rows.1, entries)];
            BlockSparseMatrix::new(members, pool_pages * PAGE, PAGE, tile).unwrap()
        };
        let levels: Vec<BlockSparseMatrix> = std::iter::once(level((0, members), &owner))
            .chain(
                tables
                    .iter()
                    .enumerate()
                    .map(|(m, pt)| level((m, m + 1), pt)),
            )
            .collect();
        let planning = steady_allocs(|| {
            for layout in &levels {
                pipeline.plan(layout, hq, d).unwrap();
            }
        });
        assert_eq!(
            launch - planning,
            OUTPUT_ALLOCS + PROBLEM_ALLOCS * levels.len() as u64,
            "{members} members: the fold must not show in the allocation count \
             (launch {launch}, its {} plan-cache hits {planning})",
            levels.len()
        );
    }
}
