//! Sharded execution: a KV pool split by KV head across ranks, and a
//! [`ShardedExecutor`] whose rank threads run shard-local attention and
//! combine per-head outputs with deterministic collectives.
//!
//! ## Why sharded outputs are bit-exact vs. the single-shard oracle
//!
//! Attention heads are arithmetically independent: the balanced plan's
//! KV-chunk split depends only on the BSR layout and CTA count (never on
//! the head count — heads only size the workspace), and every rank reads
//! the same page table (there is exactly one [`fi_kvcache::PageMap`] for
//! the whole pool), so each rank's layout, plan, and per-head arithmetic
//! are identical to the full-width run's. Reassembling the per-rank
//! output slices by concatenation ([`ReduceMode::AllGather`]) reproduces
//! the oracle's bits exactly; the [`ReduceMode::AllReduce`] path
//! (standing in for the row-parallel o-proj boundary, where each rank
//! contributes a full-width partial sum) scatters the local slice into a
//! zero buffer and tree-sums across ranks, which is `f32`-equal because
//! each output element receives exactly one nonzero contribution.
//!
//! ## Locking model (DESIGN.md §10)
//!
//! Since the storage/allocation split the pool is one shared
//! [`fi_kvcache::PageMap`] + [`fi_kvcache::ShardedPageAllocator`] behind a
//! single mutex, plus one append-only [`fi_kvcache::KvStore`] arena per
//! rank (rank-local column widths). The mutex guards *bookkeeping only*
//! and is taken by the driver between steps; rank threads never touch it.
//! The executor prebuilds every unit's [`PageTable`] under one lock
//! acquisition and ships the tables to the rank threads, whose execute
//! path reads published store slots lock-free.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use fi_core::config::HeadConfig;
use fi_core::kernel::{AttentionProblem, FlashKernel};
use fi_core::tiles::TileConfig;
use fi_core::variant::{VanillaAttention, VariantParams};
use fi_kvcache::{KvCacheError, KvStore, KvStoreWriter, PageCache, PageMap, ShardedPageAllocator};
use fi_sched::pipeline::AttentionPipeline;
use fi_serving::PipelineObservables;
use fi_sparse::page::PageTable;
use fi_tensor::RaggedTensor;

use crate::comm::{CommCost, CommStats, GroupMonitor, ProcessGroup};
use crate::error::DistError;
use crate::shard::{concat_rows, shard_heads, ShardSpec};

/// Shared pool bookkeeping: one request→page map and one allocator for
/// all ranks (ranks store different column slices of the *same* logical
/// rows, so per-rank maps could only ever agree or be a bug), plus the
/// per-rank store writers.
struct PoolInner {
    map: PageMap,
    alloc: ShardedPageAllocator,
    /// Zero capacity: exact free counts, no pages parked.
    cache: PageCache,
    writers: Vec<KvStoreWriter<f32>>,
}

/// A KV cache sharded by KV head: one append-only [`KvStore`] arena per
/// rank holding that rank's column slice of every row, with a single
/// shared [`PageMap`] + allocator — all ranks trivially see the same page
/// tables (and therefore the same BSR layouts and plans) as a
/// single-shard pool would.
///
/// The pool is the runtime's single-writer/many-reader substrate: a
/// driver mutates through `&self` methods (each takes the bookkeeping
/// mutex once), rank threads read published store slots lock-free via
/// prebuilt page tables.
pub struct ShardedKvPool {
    specs: Vec<ShardSpec>,
    page_size: usize,
    num_pages: usize,
    stores: Vec<Arc<KvStore<f32>>>,
    inner: Arc<Mutex<PoolInner>>,
}

impl ShardedKvPool {
    /// Build a `tp`-way sharded pool. The shared map/allocator has the
    /// full `num_pages` × `page_size` geometry; each rank's store covers
    /// its local KV width.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidConfig`] for unshardable head configs (see
    /// [`shard_heads`]) or degenerate pool geometry.
    pub fn new(
        heads: HeadConfig,
        tp: usize,
        page_size: usize,
        num_pages: usize,
    ) -> Result<ShardedKvPool, DistError> {
        let specs = shard_heads(heads, tp)?;
        if page_size == 0 {
            return Err(DistError::InvalidConfig(
                "page_size must be positive".into(),
            ));
        }
        let mut stores = Vec::with_capacity(specs.len());
        let mut writers = Vec::with_capacity(specs.len());
        for s in &specs {
            let (store, writer) = KvStore::with_writer(num_pages, page_size, s.local.kv_width());
            stores.push(store);
            writers.push(writer);
        }
        Ok(ShardedKvPool {
            specs,
            page_size,
            num_pages,
            stores,
            inner: Arc::new(Mutex::new(PoolInner {
                map: PageMap::new(page_size, num_pages),
                alloc: ShardedPageAllocator::with_default_shards(num_pages),
                cache: PageCache::new(0, 0),
                writers,
            })),
        })
    }

    /// Tensor-parallel degree.
    pub fn tp(&self) -> usize {
        self.specs.len()
    }

    /// The unsharded head geometry.
    pub fn heads(&self) -> HeadConfig {
        self.specs[0].full
    }

    /// Rank `r`'s shard spec.
    pub fn spec(&self, r: usize) -> ShardSpec {
        self.specs[r]
    }

    /// Rank `r`'s shard-local storage arena (lock-free read handle).
    pub fn rank_store(&self, r: usize) -> Arc<KvStore<f32>> {
        Arc::clone(&self.stores[r])
    }

    fn lock(&self) -> Result<MutexGuard<'_, PoolInner>, KvCacheError> {
        self.inner
            .lock()
            .map_err(|_| KvCacheError::Poisoned("sharded kv pool mutex".into()))
    }

    /// Register a request (one shared map — all ranks see it).
    ///
    /// # Errors
    ///
    /// Propagates [`KvCacheError`] (e.g. duplicate id).
    pub fn add_request(&self, id: u64) -> Result<(), KvCacheError> {
        self.lock()?.map.add_request(id)
    }

    /// Remove a request; pages reaching zero references return to the
    /// shared allocator.
    ///
    /// # Errors
    ///
    /// Propagates [`KvCacheError`].
    pub fn remove_request(&self, id: u64) -> Result<(), KvCacheError> {
        let inner = &mut *self.lock()?;
        let freed = inner.map.remove_request(id)?;
        inner.cache.free(&inner.alloc, &freed);
        Ok(())
    }

    /// Append one **full-width** KV row; each rank's store receives its
    /// column slice at the same slot. On failure (e.g. `OutOfPages`) no
    /// rank is mutated.
    ///
    /// # Errors
    ///
    /// Propagates [`KvCacheError`].
    pub fn append(&self, id: u64, k_full: &[f32], v_full: &[f32]) -> Result<(), KvCacheError> {
        let width = self.heads().kv_width();
        if k_full.len() != width || v_full.len() != width {
            return Err(KvCacheError::ShapeMismatch {
                expected: width,
                actual: k_full.len(),
            });
        }
        let inner = &mut *self.lock()?;
        let PoolInner {
            map,
            alloc,
            cache,
            writers,
        } = inner;
        let site = map.prepare_append(id, alloc, cache)?;
        for (w, s) in writers.iter_mut().zip(&self.specs) {
            if let Some(cow) = site.cow {
                w.copy_page_prefix(cow.src_page, cow.dst_page, cow.valid_slots);
            }
            w.write_slot(site.slot, &k_full[s.kv_cols()], &v_full[s.kv_cols()]);
        }
        Ok(())
    }

    /// Current KV length of a request (identical on every rank — there is
    /// one map).
    ///
    /// # Errors
    ///
    /// Propagates [`KvCacheError`].
    pub fn seq_len(&self, id: u64) -> Result<usize, KvCacheError> {
        self.lock()?.map.seq_len(id)
    }

    /// Free pages in the shared pool (identical on every rank).
    pub fn free_page_count(&self) -> usize {
        let inner = self.inner.lock().expect("sharded kv pool mutex");
        inner.alloc.free_pages() + inner.cache.cached_pages()
    }

    /// Build the [`PageTable`] descriptor for a batch of live requests.
    ///
    /// # Errors
    ///
    /// Propagates [`KvCacheError`] if any id is unknown.
    pub fn page_table(&self, ids: &[u64]) -> Result<PageTable, KvCacheError> {
        self.lock()?.map.page_table(ids)
    }

    /// Read a request's KV rows back at full width (rank slices
    /// concatenated per row), flattened `[len, kv_width]`, e.g. for
    /// swap-out buffers. Reads each page's rows from the slab in one
    /// contiguous slice per rank.
    ///
    /// # Errors
    ///
    /// Propagates [`KvCacheError`].
    #[allow(clippy::type_complexity)]
    pub fn request_rows(&self, id: u64) -> Result<(Vec<f32>, Vec<f32>, usize), KvCacheError> {
        let inner = self.lock()?;
        let len = inner.map.seq_len(id)?;
        let pages = inner.map.request_pages(id)?.to_vec();
        drop(inner); // stores are read lock-free; bookkeeping lock released
        let width = self.heads().kv_width();
        let mut k = vec![0.0f32; len * width];
        let mut v = vec![0.0f32; len * width];
        for (r, s) in self.specs.iter().enumerate() {
            let cols = s.kv_cols();
            let local_w = cols.len();
            let store = &self.stores[r];
            for (i, &page) in pages.iter().enumerate() {
                let count = (len - i * self.page_size).min(self.page_size);
                if count == 0 {
                    break;
                }
                let ks = store.k_rows(page * self.page_size, count);
                let vs = store.v_rows(page * self.page_size, count);
                for j in 0..count {
                    let base = (i * self.page_size + j) * width + cols.start;
                    k[base..base + local_w].copy_from_slice(&ks[j * local_w..(j + 1) * local_w]);
                    v[base..base + local_w].copy_from_slice(&vs[j * local_w..(j + 1) * local_w]);
                }
            }
        }
        Ok((k, v, len))
    }

    /// Per-rank occupancy snapshot (for dashboards / examples). Page
    /// accounting is shared, so every rank reports the same counts over
    /// its own head slice.
    pub fn occupancy(&self) -> Vec<RankOccupancy> {
        let free = self.free_page_count();
        self.specs
            .iter()
            .map(|s| RankOccupancy {
                rank: s.rank,
                kv_heads: s.local.num_kv_heads,
                total_pages: self.num_pages,
                free_pages: free,
                used_pages: self.num_pages - free,
            })
            .collect()
    }
}

/// One rank's KV-pool occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RankOccupancy {
    /// The rank.
    pub rank: usize,
    /// KV heads this rank stores.
    pub kv_heads: usize,
    /// Pool size in pages.
    pub total_pages: usize,
    /// Currently free pages.
    pub free_pages: usize,
    /// Currently allocated pages.
    pub used_pages: usize,
}

/// How per-rank outputs combine at the batch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceMode {
    /// Concatenate per-head output slices in rank order (the attention
    /// output layout; column-parallel boundary).
    AllGather,
    /// Each rank scatters its slice into a full-width zero buffer and the
    /// group sums — the row-parallel o-proj boundary `fi-model` uses.
    AllReduce,
}

/// One attention launch of a sharded batch: full-width query rows for one
/// request.
#[derive(Debug, Clone)]
pub struct BatchUnit {
    /// Pool request id.
    pub req_id: u64,
    /// Query rows in this unit.
    pub qo_len: usize,
    /// KV rows visible to this unit.
    pub kv_len: usize,
    /// Flattened full-width query rows, `qo_len * heads.qo_width()`.
    pub q: Vec<f32>,
}

enum Cmd {
    Run(Vec<BatchUnit>, Arc<Vec<PageTable>>, ReduceMode),
}

type RunReply = Result<Vec<Vec<f32>>, String>;

/// A tensor-parallel execution group: `tp` rank threads, each owning an
/// [`AttentionPipeline`] (plan cache + workspace scratch) over its shard
/// of a [`ShardedKvPool`], joined by a deterministic [`ProcessGroup`].
///
/// [`ShardedExecutor::run`] prebuilds every unit's page table under one
/// bookkeeping-lock acquisition, then fans the batch to all ranks; each
/// runs shard-local attention per unit *without taking any lock*, and the
/// group combines outputs per [`ReduceMode`]. Every rank computes the
/// assembled full-width result (collectives deliver to all ranks); the
/// driver cross-checks that all ranks returned identical bits before
/// handing results back.
pub struct ShardedExecutor {
    cmd_tx: Vec<Sender<Cmd>>,
    reply_rx: Vec<Receiver<RunReply>>,
    handles: Vec<JoinHandle<PipelineObservables>>,
    monitor: GroupMonitor,
    inner: Arc<Mutex<PoolInner>>,
    tp: usize,
}

impl ShardedExecutor {
    /// Spawn rank threads over `pool`'s shards.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidConfig`] if a rank thread cannot be spawned.
    pub fn new(
        pool: &ShardedKvPool,
        tile: TileConfig,
        num_ctas: usize,
    ) -> Result<ShardedExecutor, DistError> {
        Self::with_cost_opt(pool, tile, num_ctas, None)
    }

    /// Like [`ShardedExecutor::new`] with a [`CommCost`] hook charged per
    /// collective.
    pub fn with_cost(
        pool: &ShardedKvPool,
        tile: TileConfig,
        num_ctas: usize,
        cost: Arc<dyn CommCost>,
    ) -> Result<ShardedExecutor, DistError> {
        Self::with_cost_opt(pool, tile, num_ctas, Some(cost))
    }

    fn with_cost_opt(
        pool: &ShardedKvPool,
        tile: TileConfig,
        num_ctas: usize,
        cost: Option<Arc<dyn CommCost>>,
    ) -> Result<ShardedExecutor, DistError> {
        let tp = pool.tp();
        let (mut groups, monitor) = match cost {
            Some(c) => ProcessGroup::group_with_cost(tp, c),
            None => ProcessGroup::group(tp),
        };
        let mut cmd_tx = Vec::with_capacity(tp);
        let mut reply_rx = Vec::with_capacity(tp);
        let mut handles = Vec::with_capacity(tp);
        // Take groups back-to-front so remove() stays O(1); push order
        // keeps channel index == rank.
        for r in 0..tp {
            let group = groups.remove(0);
            debug_assert_eq!(group.rank(), r);
            let spec = pool.spec(r);
            let store = pool.rank_store(r);
            let (ctx, crx) = mpsc::channel::<Cmd>();
            let (rtx, rrx) = mpsc::channel::<RunReply>();
            let handle = std::thread::Builder::new()
                .name(format!("fi-dist-rank-{r}"))
                .spawn(move || rank_loop(spec, tile, num_ctas, store, group, crx, rtx))
                .map_err(|e| DistError::InvalidConfig(format!("spawn rank {r}: {e}")))?;
            cmd_tx.push(ctx);
            reply_rx.push(rrx);
            handles.push(handle);
        }
        Ok(ShardedExecutor {
            cmd_tx,
            reply_rx,
            handles,
            monitor,
            inner: Arc::clone(&pool.inner),
            tp,
        })
    }

    /// Tensor-parallel degree.
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Snapshot the group's collective counters.
    pub fn comm_stats(&self) -> CommStats {
        self.monitor.stats()
    }

    /// Run a batch through all ranks. Builds every unit's page table
    /// under a single bookkeeping-lock acquisition, then dispatches via
    /// [`ShardedExecutor::run_prebuilt`]. Returns per-unit full-width
    /// output rows (`units[i].qo_len * heads.qo_width()` each).
    ///
    /// # Errors
    ///
    /// [`DistError::Kv`] if a page table cannot be built (e.g. unknown
    /// request id — reported *before* any collective starts, so no rank
    /// can deadlock); [`DistError::Exec`] if any rank failed or rank
    /// outputs diverged.
    pub fn run(&self, units: &[BatchUnit], mode: ReduceMode) -> Result<Vec<Vec<f32>>, DistError> {
        let tables = {
            let guard = self.inner.lock().map_err(|_| {
                DistError::Kv(KvCacheError::Poisoned("sharded kv pool mutex".into()))
            })?;
            units
                .iter()
                .map(|u| guard.map.page_table(&[u.req_id]))
                .collect::<Result<Vec<_>, _>>()
                .map_err(DistError::Kv)?
        };
        self.run_prebuilt(units, Arc::new(tables), mode)
    }

    /// Run a batch whose page tables were already built (one per unit, in
    /// unit order). Rank threads execute entirely lock-free.
    ///
    /// # Errors
    ///
    /// [`DistError::Exec`] if any rank failed or rank outputs diverged.
    pub fn run_prebuilt(
        &self,
        units: &[BatchUnit],
        tables: Arc<Vec<PageTable>>,
        mode: ReduceMode,
    ) -> Result<Vec<Vec<f32>>, DistError> {
        if tables.len() != units.len() {
            return Err(DistError::Exec(format!(
                "{} page tables for {} units",
                tables.len(),
                units.len()
            )));
        }
        for tx in &self.cmd_tx {
            tx.send(Cmd::Run(units.to_vec(), Arc::clone(&tables), mode))
                .map_err(|_| DistError::Exec("rank thread died".into()))?;
        }
        let mut replies = Vec::with_capacity(self.tp);
        for (r, rx) in self.reply_rx.iter().enumerate() {
            replies.push(
                rx.recv()
                    .map_err(|_| DistError::Exec(format!("rank {r} died mid-batch")))?,
            );
        }
        let mut out = None;
        for (r, reply) in replies.into_iter().enumerate() {
            let outs = reply.map_err(DistError::Exec)?;
            match &out {
                None => out = Some(outs),
                Some(first) => {
                    if first != &outs {
                        return Err(DistError::Exec(format!(
                            "rank {r} assembled different output bits than rank 0 \
                             (deterministic collectives violated)"
                        )));
                    }
                }
            }
        }
        Ok(out.expect("tp >= 1"))
    }

    /// Shut the rank threads down and return their merged pipeline
    /// observables (plan-cache and kernel counters, summed over ranks).
    pub fn join(mut self) -> PipelineObservables {
        self.cmd_tx.clear();
        self.reply_rx.clear();
        let mut obs = PipelineObservables::default();
        for h in std::mem::take(&mut self.handles) {
            if let Ok(rank_obs) = h.join() {
                obs.absorb(&rank_obs);
            }
        }
        obs
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        self.cmd_tx.clear();
        self.reply_rx.clear();
        for h in std::mem::take(&mut self.handles) {
            let _ = h.join();
        }
    }
}

/// Rank thread body: serve batches until the driver drops the channel,
/// then return the pipeline's observables. Holds only a lock-free
/// [`KvStore`] read handle — the bookkeeping mutex is never touched here.
fn rank_loop(
    spec: ShardSpec,
    tile: TileConfig,
    num_ctas: usize,
    store: Arc<KvStore<f32>>,
    group: ProcessGroup,
    rx: Receiver<Cmd>,
    tx: Sender<RunReply>,
) -> PipelineObservables {
    let mut pipeline = AttentionPipeline::new(
        FlashKernel {
            tile,
            head_fusion: true,
        },
        num_ctas,
        fi_sched::plan::CostModel::default(),
        fi_sched::pipeline::SchedulePolicy::Balanced,
        fi_core::arch::Arch::Hopper,
    )
    .expect("rank pipeline config validated at executor start");
    let params = VariantParams::for_head_dim(spec.local.head_dim);
    let variant = VanillaAttention { causal: true };

    while let Ok(Cmd::Run(units, tables, mode)) = rx.recv() {
        let reply = run_units(
            &spec,
            &store,
            &mut pipeline,
            &group,
            &variant,
            &params,
            &units,
            &tables,
            mode,
        );
        if tx.send(reply).is_err() {
            break; // driver gone; shut down
        }
    }

    let mut obs = PipelineObservables::default();
    obs.absorb_pipeline(&pipeline);
    obs
}

/// Execute every unit shard-locally, then combine. All ranks walk the
/// same collective sequence even when a local unit fails — a status
/// exchange decides, identically on every rank, whether to proceed to the
/// payload collectives, so no rank can deadlock on a barrier the others
/// never reach.
#[allow(clippy::too_many_arguments)]
fn run_units(
    spec: &ShardSpec,
    store: &Arc<KvStore<f32>>,
    pipeline: &mut AttentionPipeline,
    group: &ProcessGroup,
    variant: &VanillaAttention,
    params: &VariantParams,
    units: &[BatchUnit],
    tables: &[PageTable],
    mode: ReduceMode,
) -> RunReply {
    let locals: Vec<Result<Vec<f32>, String>> = units
        .iter()
        .zip(tables)
        .map(|(u, pt)| run_local(spec, store, pipeline, variant, params, u, pt))
        .collect();
    let my_status = if locals.iter().any(|l| l.is_err()) {
        1.0
    } else {
        0.0
    };
    let statuses = group.all_gather(&[my_status]);
    if statuses.iter().any(|s| s[0] != 0.0) {
        let msg = locals
            .iter()
            .find_map(|l| l.as_ref().err().cloned())
            .unwrap_or_else(|| {
                let bad: Vec<String> = statuses
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s[0] != 0.0)
                    .map(|(r, _)| r.to_string())
                    .collect();
                format!("rank(s) {} failed shard-local attention", bad.join(", "))
            });
        return Err(msg);
    }

    let full_w = spec.full.qo_width();
    let widths = vec![spec.local.qo_width(); spec.tp];
    units
        .iter()
        .zip(locals)
        .map(|(u, local)| {
            let local = local.expect("statuses were all clear");
            match mode {
                ReduceMode::AllGather => {
                    let parts = group.all_gather(&local);
                    Ok(concat_rows(&parts, &widths, u.qo_len))
                }
                ReduceMode::AllReduce => {
                    let mut full = vec![0.0f32; u.qo_len * full_w];
                    let w = spec.local.qo_width();
                    for (row, chunk) in local.chunks_exact(w).enumerate() {
                        let base = row * full_w + spec.qo_cols().start;
                        full[base..base + w].copy_from_slice(chunk);
                    }
                    group.all_reduce(&mut full);
                    Ok(full)
                }
            }
        })
        .collect()
}

/// Prebuilt page table → BSR layout → plan → run over this rank's heads.
/// Mirrors the runtime worker's single-shard execution with the
/// rank-local head config and query slice. Zero locks: pool tensors come
/// straight from the append-only store.
fn run_local(
    spec: &ShardSpec,
    store: &Arc<KvStore<f32>>,
    pipeline: &mut AttentionPipeline,
    variant: &VanillaAttention,
    params: &VariantParams,
    unit: &BatchUnit,
    pt: &PageTable,
) -> Result<Vec<f32>, String> {
    let layout = pt
        .to_bsr(&[unit.qo_len], pipeline.kernel().tile.tq)
        .map_err(|e| format!("rank {}: bsr layout: {e:?}", spec.rank))?;
    if unit.q.len() != unit.qo_len * spec.full.qo_width() {
        return Err(format!(
            "rank {}: query rows have width {}, expected {} ({} rows of full width {})",
            spec.rank,
            unit.q.len().checked_div(unit.qo_len).unwrap_or(0),
            spec.full.qo_width(),
            unit.qo_len,
            spec.full.qo_width()
        ));
    }
    let q_local = spec.slice_qo_rows(&unit.q);
    let mut q = RaggedTensor::<f32>::from_seq_lens(&[unit.qo_len], spec.local.qo_width());
    q.as_tensor_mut().as_mut_slice().copy_from_slice(&q_local);
    let problem = AttentionProblem::standard_batch(
        &q,
        store.k_pool(),
        store.v_pool(),
        &layout,
        spec.local,
        &[unit.kv_len],
    )
    .map_err(|e| format!("rank {}: problem: {e:?}", spec.rank))?;
    pipeline
        .plan(&layout, spec.local.num_qo_heads, spec.local.head_dim)
        .map_err(|e| format!("rank {}: plan: {e:?}", spec.rank))?;
    let out = pipeline
        .run(&problem, variant, params)
        .map_err(|e| format!("rank {}: run: {e:?}", spec.rank))?;
    Ok(out.o.seq(0).to_vec())
}
