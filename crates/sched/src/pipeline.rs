//! The unified plan→workspace→run→merge pipeline (§3.4: plan once, run many).
//!
//! Every consumer of the scheduler — the serving-cost backends, the
//! multi-level cascade, the mini LLM engine, CUDAGraph capture — used to
//! re-derive planning state through its own private path. This module owns
//! the single path. [`AttentionPipeline`] combines:
//!
//! * a shape-keyed [`PlanCache`]: plans are cached under the *sorted*
//!   multiset of per-tile `(qo_rows, kv_len)` signatures plus the tile
//!   config and target architecture, so the same batch shape planned by any
//!   layer — or any permutation of the same request lengths — reuses one
//!   plan (permutations are served by remapping tile indices through the
//!   sort permutation; plans depend on the layout only via per-tile heights
//!   and block-length sequences, both captured in the signature);
//! * a [`Workspace`] that grows monotonically — never reallocated per step,
//!   never shrunk — until a CUDAGraph capture freezes it, after which any
//!   plan that would need more space fails instead of moving the sections
//!   (the frozen-pointer contract, Appendix D);
//! * one executor: the sequential persistent-kernel emulation, the only
//!   loop in this crate that launches kernel chunks. Attention states stay
//!   flat `(o, lse)` slices from the kernel scratch through the workspace
//!   to the output row. [`AttentionPipeline::run`] contracts split tiles
//!   in the workspace ([`crate::contraction`]); the cascades
//!   ([`crate::cascade`]) run each level through the same loop and fold
//!   into one accumulator the pipeline owns. Live parallelism sits above
//!   it — the runtime's worker pool and fi-dist's rank threads each own a
//!   pipeline.
//!
//! [`AttentionPipeline::plan`] / [`AttentionPipeline::run`] are the
//! Listing-1 pair: `plan(seqlen_info)` on the CPU whenever sequence lengths
//! change (cheap, cacheable, *not* captured by CUDAGraph), then `run(q, kv)`
//! per layer (captured and replayed).

use std::collections::{HashMap, VecDeque};

use fi_core::arch::Arch;
use fi_core::config::HeadConfig;
use fi_core::kernel::{
    finalize_tile, AttentionProblem, FlashKernel, KernelOutput, KernelStats, RowMeta,
};
use fi_core::scratch::KernelScratch;
use fi_core::tiles::TileConfig;
use fi_core::variant::{AttentionVariant, VariantParams};
use fi_sparse::BlockSparseMatrix;
use fi_tensor::{RaggedTensor, Scalar, Tensor};

use crate::cascade::CascadeLevel;
use crate::contraction::{contract, merge_states};
use crate::error::SchedError;
use crate::plan::{balanced_plan, naive_plan, CostModel, Plan};
use crate::workspace::{Workspace, WorkspaceLayout};

/// Which scheduling policy the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SchedulePolicy {
    /// Algorithm 1 (FlashInfer).
    Balanced,
    /// One tile per CTA, round-robin (the FA-style baseline).
    Naive,
}

/// Whether the pipeline may enlarge its workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkspaceMode {
    /// Grow the workspace monotonically whenever a plan needs more space.
    Grow,
    /// The caller declared the bounds; plans that exceed them error.
    Fixed,
}

/// Cumulative pipeline statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineStats {
    /// Plans computed (cache misses).
    pub plans_computed: u64,
    /// Plan cache hits (same shape reused, e.g. across layers).
    pub plan_cache_hits: u64,
    /// Work items executed.
    pub items_executed: u64,
    /// Merge groups contracted.
    pub merges: u64,
}

impl PipelineStats {
    /// Fraction of `plan` calls served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.plans_computed + self.plan_cache_hits;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }
}

/// Per-block-row shape signature: tile height, gathered KV length, and a
/// hash of the block-length sequence (chunk boundaries follow block
/// boundaries, so two rows chunk identically iff their block lengths do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowShape {
    rows: usize,
    kv_len: usize,
    blocks_hash: u64,
}

fn row_shapes(layout: &BlockSparseMatrix) -> Vec<RowShape> {
    (0..layout.n_block_rows())
        .map(|br| {
            let (rs, re) = layout.block_row_range(br);
            let mut h: u64 = 0xcbf29ce484222325;
            for b in layout.block_row(br) {
                h ^= b.len as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            RowShape {
                rows: re - rs,
                kv_len: layout.block_row_kv_len(br),
                blocks_hash: h,
            }
        })
        .collect()
}

/// Full structural fingerprint of a layout (FNV-1a, order-sensitive,
/// including column blocks) — the exact-identity check `run` uses to refuse
/// a stale plan.
pub(crate) fn fingerprint(layout: &BlockSparseMatrix) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: usize| {
        h ^= x as u64;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(layout.rows());
    mix(layout.cols());
    mix(layout.bc());
    for (i, (s, e), blocks) in layout.iter_block_rows() {
        mix(i);
        mix(s);
        mix(e);
        for b in blocks {
            mix(b.col_block);
            mix(b.len);
        }
    }
    h
}

/// Plan-cache key: the order-independent batch shape (sorted per-tile
/// signatures), page size, tile config, and target architecture.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    sorted_shapes: Vec<RowShape>,
    bc: usize,
    tile: TileConfig,
    arch: Arch,
}

impl PlanKey {
    /// Compute the key for a layout, returning also the *unsorted* per-tile
    /// shapes (needed to serve permuted lookups).
    pub fn for_layout(
        layout: &BlockSparseMatrix,
        tile: TileConfig,
        arch: Arch,
    ) -> (PlanKey, Vec<RowShape>) {
        let shapes = row_shapes(layout);
        let mut sorted = shapes.clone();
        sorted.sort_unstable();
        (
            PlanKey {
                sorted_shapes: sorted,
                bc: layout.bc(),
                tile,
                arch,
            },
            shapes,
        )
    }
}

struct CacheEntry {
    plan: Plan,
    /// The unsorted shapes the cached plan was built for.
    shapes: Vec<RowShape>,
    /// Pinned entries (e.g. captured by a CUDAGraph) are never evicted.
    pinned: bool,
}

/// Rewrite a plan built for one row order to an equal-shape permutation of
/// it: match rows through the (stable) sort permutation on both sides and
/// substitute tile indices. Chunk ranges, partial slots, and merge groups
/// carry over unchanged because equal signatures chunk identically.
fn remap_plan(plan: &Plan, from: &[RowShape], to: &[RowShape]) -> Plan {
    let n = from.len();
    let mut from_idx: Vec<usize> = (0..n).collect();
    from_idx.sort_by_key(|&i| from[i]);
    let mut to_idx: Vec<usize> = (0..n).collect();
    to_idx.sort_by_key(|&i| to[i]);
    let mut map = vec![0usize; n];
    for (&f, &t) in from_idx.iter().zip(&to_idx) {
        map[f] = t;
    }
    let mut p = plan.clone();
    for queue in &mut p.cta_queues {
        for item in queue {
            item.block_row = map[item.block_row];
        }
    }
    for g in &mut p.merge_groups {
        g.block_row = map[g.block_row];
    }
    p
}

/// A bounded, shape-keyed cache of computed plans.
pub struct PlanCache {
    map: HashMap<PlanKey, CacheEntry>,
    order: VecDeque<PlanKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl PlanCache {
    /// Default number of cached shapes per pipeline.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Create a cache holding at most `capacity` plans (≥ 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Look up a plan for `key`. `shapes` is the layout's unsorted shape
    /// vector (from [`PlanKey::for_layout`]): when the cached entry was
    /// built for a different ordering of the same shapes, the plan is
    /// remapped through the sort permutation before being returned.
    pub fn lookup(&mut self, key: &PlanKey, shapes: &[RowShape]) -> Option<Plan> {
        let Some(entry) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        if entry.shapes == shapes {
            Some(entry.plan.clone())
        } else {
            Some(remap_plan(&entry.plan, &entry.shapes, shapes))
        }
    }

    /// Insert a plan, evicting the oldest unpinned entry when full.
    pub fn insert(&mut self, key: PlanKey, shapes: Vec<RowShape>, plan: Plan) {
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.capacity {
                let Some(pos) = self.order.iter().position(|k| match self.map.get(k) {
                    Some(e) => !e.pinned,
                    None => true,
                }) else {
                    break; // everything pinned: grow past capacity
                };
                let victim = self.order.remove(pos).expect("position is in range");
                self.map.remove(&victim);
            }
            self.order.push_back(key.clone());
        }
        self.map.insert(
            key,
            CacheEntry {
                plan,
                shapes,
                pinned: false,
            },
        );
    }

    /// Pin an entry so it survives eviction (a captured CUDAGraph holds a
    /// reference to its plan). Returns whether the key was present.
    pub fn pin(&mut self, key: &PlanKey) -> bool {
        match self.map.get_mut(key) {
            Some(e) => {
                e.pinned = true;
                true
            }
            None => false,
        }
    }

    /// Drop every unpinned entry and reset the counters.
    pub fn clear(&mut self) {
        self.map.retain(|_, e| e.pinned);
        let map = &self.map;
        self.order.retain(|k| map.contains_key(k));
        self.hits = 0;
        self.misses = 0;
    }
}

/// Monotone upper bounds the growable workspace has been sized for.
#[derive(Debug, Clone, Copy)]
struct GrowBounds {
    max_tile_rows: usize,
    num_qo_heads: usize,
    head_dim: usize,
    max_work_items: usize,
}

impl GrowBounds {
    fn absorb(&mut self, max_tile_rows: usize, num_qo_heads: usize, head_dim: usize, items: usize) {
        self.max_tile_rows = self.max_tile_rows.max(max_tile_rows);
        self.num_qo_heads = self.num_qo_heads.max(num_qo_heads);
        self.head_dim = self.head_dim.max(head_dim);
        self.max_work_items = self.max_work_items.max(items);
    }
}

/// The unified plan/run pipeline: one shape-keyed plan cache, one
/// monotonically growing workspace, one execution entry point.
#[derive(Debug)]
pub struct AttentionPipeline {
    kernel: FlashKernel,
    num_ctas: usize,
    cost: CostModel,
    policy: SchedulePolicy,
    arch: Arch,
    mode: WorkspaceMode,
    frozen: bool,
    bounds: GrowBounds,
    workspace: Workspace,
    cache: PlanCache,
    current: Option<Plan>,
    current_key: Option<PlanKey>,
    current_fingerprint: u64,
    stats: PipelineStats,
    kernel_stats: KernelStats,
    scratch: KernelScratch,
    /// The cascade's running ⊕ accumulator, `[rows · H_qo · D]` outputs and
    /// `[rows · H_qo]` LSEs; like the workspace it only ever grows.
    acc_o: Vec<f32>,
    acc_lse: Vec<f32>,
}

impl AttentionPipeline {
    /// Create a pipeline with a growable workspace.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] if `num_ctas == 0`.
    pub fn new(
        kernel: FlashKernel,
        num_ctas: usize,
        cost: CostModel,
        policy: SchedulePolicy,
        arch: Arch,
    ) -> Result<AttentionPipeline, SchedError> {
        if num_ctas == 0 {
            return Err(SchedError::InvalidConfig(
                "num_ctas must be positive".into(),
            ));
        }
        let bounds = GrowBounds {
            max_tile_rows: 1,
            num_qo_heads: 1,
            head_dim: 1,
            max_work_items: 16,
        };
        let workspace = Workspace::allocate(WorkspaceLayout::compute(
            bounds.max_tile_rows,
            bounds.num_qo_heads,
            bounds.head_dim,
            num_ctas,
            bounds.max_work_items,
        ));
        Ok(AttentionPipeline {
            kernel,
            num_ctas,
            cost,
            policy,
            arch,
            mode: WorkspaceMode::Grow,
            frozen: false,
            bounds,
            workspace,
            cache: PlanCache::new(PlanCache::DEFAULT_CAPACITY),
            current: None,
            current_key: None,
            current_fingerprint: 0,
            stats: PipelineStats::default(),
            kernel_stats: KernelStats::default(),
            scratch: KernelScratch::new(),
            acc_o: Vec::new(),
            acc_lse: Vec::new(),
        })
    }

    /// Create a pipeline over a caller-allocated workspace whose bounds are
    /// final: plans that exceed them fail with
    /// [`SchedError::WorkspaceTooSmall`] instead of growing the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] if `num_ctas == 0`.
    pub fn with_workspace(
        kernel: FlashKernel,
        num_ctas: usize,
        cost: CostModel,
        policy: SchedulePolicy,
        arch: Arch,
        workspace: Workspace,
    ) -> Result<AttentionPipeline, SchedError> {
        let mut p = AttentionPipeline::new(kernel, num_ctas, cost, policy, arch)?;
        p.workspace = workspace;
        p.mode = WorkspaceMode::Fixed;
        Ok(p)
    }

    /// A pipeline for plan-only (analytical) consumers — cost backends,
    /// bench sweeps — with default cost model and head fusion.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] if `num_ctas == 0`.
    pub fn analytical(
        num_ctas: usize,
        tile: TileConfig,
        policy: SchedulePolicy,
        arch: Arch,
    ) -> Result<AttentionPipeline, SchedError> {
        AttentionPipeline::new(
            FlashKernel {
                tile,
                head_fusion: true,
            },
            num_ctas,
            CostModel::default(),
            policy,
            arch,
        )
    }

    /// The kernel configuration.
    pub fn kernel(&self) -> FlashKernel {
        self.kernel
    }

    /// The CTA count plans are computed for.
    pub fn num_ctas(&self) -> usize {
        self.num_ctas
    }

    /// The scheduling policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// The target architecture (part of the cache key).
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Cumulative kernel execution statistics — FLOPs, staged tiles, and
    /// the gather-level detail ([`fi_core::gather::GatherStats`]) — folded
    /// from every `run` and every cascade execution through this pipeline.
    /// This is the executor-boundary accounting PR 2 absorbed into the
    /// per-run [`KernelOutput`]; here it survives across steps so serving
    /// layers can report it.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel_stats
    }

    /// The plan cache (hit/miss counters, occupancy).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The currently staged plan, if any.
    pub fn plan_ref(&self) -> Option<&Plan> {
        self.current.as_ref()
    }

    /// The workspace.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Mutable access to the workspace (integration points and tests).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// Whether the workspace has been frozen by a graph capture.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Freeze the workspace: section offsets become immutable, as a
    /// CUDAGraph capture requires. Subsequent plans that would need a
    /// larger workspace fail instead of moving the sections.
    pub fn freeze_workspace(&mut self) {
        self.frozen = true;
    }

    /// Pin the current plan's cache entry so it is never evicted (a
    /// captured graph holds it). Returns whether there was one to pin.
    pub fn pin_current(&mut self) -> bool {
        match &self.current_key {
            Some(k) => self.cache.pin(k),
            None => false,
        }
    }

    /// Drop the cached plans and the staged plan (pinned entries survive).
    pub fn invalidate(&mut self) {
        self.cache.clear();
        self.current = None;
        self.current_key = None;
        self.current_fingerprint = 0;
    }

    /// Pre-size the growable workspace for the given bounds, so that no
    /// growth happens later (e.g. before freezing for a graph capture).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] if the workspace is frozen or
    /// caller-bounded ([`WorkspaceMode::Fixed`]).
    pub fn reserve(
        &mut self,
        max_tile_rows: usize,
        num_qo_heads: usize,
        head_dim: usize,
        max_work_items: usize,
    ) -> Result<(), SchedError> {
        if self.frozen {
            return Err(SchedError::InvalidConfig(
                "workspace is frozen by a graph capture".into(),
            ));
        }
        if self.mode == WorkspaceMode::Fixed {
            return Err(SchedError::InvalidConfig(
                "workspace bounds are caller-declared (Fixed mode)".into(),
            ));
        }
        self.bounds
            .absorb(max_tile_rows, num_qo_heads, head_dim, max_work_items);
        self.grow_to_bounds();
        Ok(())
    }

    fn grow_to_bounds(&mut self) {
        let need = WorkspaceLayout::compute(
            self.bounds.max_tile_rows,
            self.bounds.num_qo_heads,
            self.bounds.head_dim,
            self.num_ctas,
            self.bounds.max_work_items,
        );
        let cur = self.workspace.layout();
        if need.total_len > cur.total_len
            || need.metadata_len > cur.metadata_len
            || need.partial_slot_len > cur.partial_slot_len
        {
            self.workspace
                .grow_to(need)
                .expect("grow bounds are monotone");
        }
    }

    /// Plan for a layout: serve from the shape-keyed cache (remapping
    /// permuted orders) or compute a fresh schedule, grow the workspace if
    /// allowed, validate the bounds, and stage the plan metadata.
    ///
    /// # Errors
    ///
    /// Returns scheduling and workspace-capacity errors.
    pub fn plan(
        &mut self,
        layout: &BlockSparseMatrix,
        num_qo_heads: usize,
        head_dim: usize,
    ) -> Result<&Plan, SchedError> {
        let fp = fingerprint(layout);
        // Fast path: the exact layout already planned and staged (the
        // across-layers case). No restaging needed.
        // (borrowck forces the is_some/expect dance: an early `return
        // Ok(&plan)` would hold the borrow across the recompute path.)
        #[allow(clippy::unnecessary_unwrap)]
        if self.current.is_some() && fp == self.current_fingerprint {
            self.stats.plan_cache_hits += 1;
            return Ok(self.current.as_ref().expect("just checked"));
        }
        let (key, shapes) = PlanKey::for_layout(layout, self.kernel.tile, self.arch);
        let (plan, was_hit) = match self.cache.lookup(&key, &shapes) {
            Some(p) => (p, true),
            None => {
                let p = match self.policy {
                    SchedulePolicy::Balanced => balanced_plan(layout, self.num_ctas, self.cost)?,
                    SchedulePolicy::Naive => naive_plan(layout, self.num_ctas, self.cost)?,
                };
                (p, false)
            }
        };
        if self.mode == WorkspaceMode::Grow && !self.frozen {
            self.bounds
                .absorb(plan.max_tile_rows, num_qo_heads, head_dim, plan.num_items());
            self.grow_to_bounds();
        }
        self.workspace.check_plan(&plan, num_qo_heads, head_dim)?;
        self.workspace.stage_plan_metadata(&plan)?;
        if was_hit {
            self.stats.plan_cache_hits += 1;
        } else {
            self.stats.plans_computed += 1;
            self.cache.insert(key.clone(), shapes, plan.clone());
        }
        self.current_fingerprint = fp;
        self.current_key = Some(key);
        self.current = Some(plan);
        Ok(self.current.as_ref().expect("just stored"))
    }

    /// Execute the staged plan on a problem (one layer's attention): run
    /// the items, contract the split tiles in the workspace, finalize.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::PlanMismatch`] if no plan is staged or the
    /// problem's layout differs from the planned one, plus kernel errors.
    pub fn run<TQ: Scalar, TKV: Scalar>(
        &mut self,
        problem: &AttentionProblem<'_, TQ, TKV>,
        variant: &dyn AttentionVariant,
        params: &VariantParams,
    ) -> Result<KernelOutput, SchedError> {
        let plan = self
            .current
            .as_ref()
            .ok_or_else(|| SchedError::PlanMismatch("run called before plan".into()))?;
        let layout = problem.layout();
        if fingerprint(layout) != self.current_fingerprint {
            return Err(SchedError::PlanMismatch(
                "problem layout differs from planned layout; call plan again".into(),
            ));
        }
        let heads = problem.heads();
        let mut o =
            RaggedTensor::<f32>::zeros(problem.queries().indptr().to_vec(), heads.qo_width())
                .map_err(fi_core::AttentionError::from)?;
        let mut lse = vec![f32::NEG_INFINITY; layout.rows() * heads.num_qo_heads];
        let mut finalize = |row_start: usize, states_o: &[f32], states_lse: &[f32]| {
            finalize_tile(
                variant,
                params,
                heads,
                problem.row_meta(),
                row_start,
                states_o,
                states_lse,
                &mut o,
                &mut lse,
            )
        };

        // Writethrough tiles go straight to the output (Appendix D.2) ...
        let mut stats = execute_items(
            self.kernel,
            plan,
            &mut self.workspace,
            &mut self.scratch,
            problem,
            variant,
            params,
            &mut finalize,
        )?;
        // ... and the contraction pass merges the split ones.
        for g in &plan.merge_groups {
            let (rs, re) = layout.block_row_range(g.block_row);
            let (merged_o, merged_lse) = contract(
                &mut self.workspace,
                &g.partial_indices,
                (re - rs) * heads.num_qo_heads,
                heads.head_dim,
                variant.use_softmax(),
            );
            finalize(rs, merged_o, merged_lse);
        }

        // Q read + O write traffic, as in the direct kernel path.
        stats.global_bytes +=
            (layout.rows() * heads.qo_width()) as u64 * (TQ::DTYPE.size_bytes() as u64 + 4);
        self.stats.items_executed += plan.num_items() as u64;
        self.stats.merges += plan.merge_groups.len() as u64;
        self.kernel_stats.absorb(&stats);
        Ok(KernelOutput { o, lse, stats })
    }

    /// The one cascade body ([`crate::cascade`]): plan each level, run it
    /// through the executor, and ⊕ its chunk states into the accumulator
    /// as one running **left fold** per `(row, head)` — levels in order,
    /// within a level that tile's chunks in ascending chunk index — then
    /// finalize every row. A deliberately different association from
    /// [`AttentionPipeline::run`]'s tree bracket (DESIGN.md §12): it is what
    /// makes a group's bits those of its single-member groups.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_levels<'l, TQ: Scalar, TKV: Scalar>(
        &mut self,
        levels: impl IntoIterator<Item = &'l CascadeLevel>,
        q: &RaggedTensor<TQ>,
        k: &Tensor<TKV>,
        v: &Tensor<TKV>,
        heads: HeadConfig,
        row_meta: &[RowMeta],
        variant: &dyn AttentionVariant,
        params: &VariantParams,
        dequant: Option<(&[f32], &[f32])>,
    ) -> Result<KernelOutput, SchedError> {
        let (hq, d) = (heads.num_qo_heads, heads.head_dim);
        let n_states = q.total_rows() * hq;
        let use_softmax = variant.use_softmax();
        self.acc_o.clear();
        self.acc_o.resize(n_states * d, 0.0);
        self.acc_lse.clear();
        self.acc_lse.resize(n_states, f32::NEG_INFINITY);
        let mut stats = KernelStats::default();

        for level in levels {
            // Each level is one pipeline stage: plan (or hit the shared
            // cache) for the level's layout, then execute its work items.
            self.plan(&level.layout, hq, d)?;
            let mut problem = AttentionProblem::new(
                q,
                k,
                v,
                &level.layout,
                heads,
                row_meta.to_vec(),
                level.kv_pos_offsets.clone(),
            )?;
            if let Some((ks, vs)) = dequant {
                problem = problem.with_kv_dequant(ks, vs)?;
            }
            let plan = self.current.as_ref().expect("just planned");
            let (acc_o, acc_lse) = (&mut self.acc_o, &mut self.acc_lse);
            let mut fold = |row_start: usize, o: &[f32], lse: &[f32]| {
                let at = row_start * hq..row_start * hq + lse.len();
                let acc_o = &mut acc_o[at.start * d..at.end * d];
                merge_states((acc_o, &mut acc_lse[at]), (o, lse), d, use_softmax)
            };
            stats.absorb(&execute_items(
                self.kernel,
                plan,
                &mut self.workspace,
                &mut self.scratch,
                &problem,
                variant,
                params,
                &mut fold,
            )?);
            for g in &plan.merge_groups {
                let (rs, re) = level.layout.block_row_range(g.block_row);
                for &slot in &g.partial_indices {
                    let (o, lse) = self.workspace.partial(slot, (re - rs) * hq, d);
                    fold(rs, o, lse);
                }
            }
            self.stats.items_executed += plan.num_items() as u64;
        }
        self.kernel_stats.absorb(&stats);

        let mut o = RaggedTensor::<f32>::zeros(q.indptr().to_vec(), heads.qo_width())
            .map_err(fi_core::AttentionError::from)?;
        let mut lse = vec![f32::NEG_INFINITY; n_states];
        finalize_tile(
            variant,
            params,
            heads,
            row_meta,
            0,
            &self.acc_o,
            &self.acc_lse,
            &mut o,
            &mut lse,
        );
        Ok(KernelOutput { o, lse, stats })
    }
}

/// The executor: the sequential persistent-kernel emulation of a plan.
/// Each CTA drains its queue in order; a split chunk's states land in its
/// workspace slot, an unsplit tile's go straight to `unsplit` as
/// `(first query row, states' outputs, states' LSEs)`, read where the
/// kernel left them in the scratch. Returns the folded chunk statistics.
#[allow(clippy::too_many_arguments)]
fn execute_items<TQ: Scalar, TKV: Scalar>(
    kernel: FlashKernel,
    plan: &Plan,
    workspace: &mut Workspace,
    scratch: &mut KernelScratch,
    problem: &AttentionProblem<'_, TQ, TKV>,
    variant: &dyn AttentionVariant,
    params: &VariantParams,
    mut unsplit: impl FnMut(usize, &[f32], &[f32]),
) -> Result<KernelStats, SchedError> {
    let d = problem.heads().head_dim;
    let mut stats = KernelStats::default();
    for (_, item) in plan.iter_items() {
        let meta = kernel.run_block_row_chunk_scratch(
            problem,
            variant,
            params,
            item.block_row,
            item.kv_block_start..item.kv_block_end,
            scratch,
        )?;
        stats.absorb(&meta.stats);
        match item.partial_index {
            Some(slot) => workspace.write_partial_flat(slot, scratch.out_o(), scratch.out_lse(), d),
            None => unsplit(meta.row_start, scratch.out_o(), scratch.out_lse()),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_core::variant::{SigmoidAttention, VanillaAttention};
    use fi_sparse::bsr::BlockEntry;
    use fi_tensor::numerics::allclose;

    fn layout_for(kv_lens: &[usize]) -> BlockSparseMatrix {
        let cols: usize = kv_lens.iter().sum::<usize>().max(1);
        let mut rows = Vec::new();
        let mut col = 0;
        for (i, &l) in kv_lens.iter().enumerate() {
            let entries = (0..l)
                .map(|k| BlockEntry {
                    col_block: col + k,
                    len: 1,
                })
                .collect::<Vec<_>>();
            rows.push((i, i + 1, entries));
            col += l;
        }
        BlockSparseMatrix::new(kv_lens.len(), cols, 1, rows).unwrap()
    }

    fn pipeline(num_ctas: usize) -> AttentionPipeline {
        AttentionPipeline::analytical(
            num_ctas,
            TileConfig { tq: 1, tkv: 8 },
            SchedulePolicy::Balanced,
            Arch::Ampere,
        )
        .unwrap()
    }

    fn mix(i: usize, salt: u64) -> f32 {
        let x = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(salt);
        ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    }

    /// A batch with per-request lengths, bc=2, one block row per request.
    fn make_case(
        kv_lens: &[usize],
        qo_lens: &[usize],
        heads: HeadConfig,
    ) -> (
        RaggedTensor<f32>,
        Tensor<f32>,
        Tensor<f32>,
        BlockSparseMatrix,
    ) {
        let total_kv: usize = kv_lens.iter().map(|l| l.div_ceil(2) * 2).sum();
        let mut q = RaggedTensor::<f32>::from_seq_lens(qo_lens, heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 1);
        }
        let k = Tensor::<f32>::from_fn(vec![total_kv, heads.kv_width()], |i| mix(i, 2));
        let v = Tensor::<f32>::from_fn(vec![total_kv, heads.kv_width()], |i| mix(i, 3));
        // Pages of 2, laid out request-contiguous.
        let mut rows = Vec::new();
        let mut page = 0usize;
        let mut row = 0usize;
        for (&lkv, &lqo) in kv_lens.iter().zip(qo_lens) {
            let n_pages = lkv.div_ceil(2);
            let entries: Vec<BlockEntry> = (0..n_pages)
                .map(|p| BlockEntry {
                    col_block: page + p,
                    len: if p + 1 == n_pages && lkv % 2 == 1 {
                        1
                    } else {
                        2
                    },
                })
                .collect();
            rows.push((row, row + lqo, entries));
            page += n_pages;
            row += lqo;
        }
        let layout = BlockSparseMatrix::new(row, total_kv, 2, rows).unwrap();
        (q, k, v, layout)
    }

    /// The Listing-1 setup: a caller-allocated workspace with final bounds.
    fn fixed_pipeline(
        tile: TileConfig,
        num_ctas: usize,
        policy: SchedulePolicy,
    ) -> AttentionPipeline {
        let ws = Workspace::allocate(WorkspaceLayout::compute(8, 4, 8, num_ctas, 4096));
        AttentionPipeline::with_workspace(
            FlashKernel {
                tile,
                head_fusion: true,
            },
            num_ctas,
            CostModel::default(),
            policy,
            Arch::Ampere,
            ws,
        )
        .unwrap()
    }

    fn direct_kernel<TQ: Scalar, TKV: Scalar>(
        tile: TileConfig,
        problem: &AttentionProblem<'_, TQ, TKV>,
        variant: &dyn AttentionVariant,
        params: &VariantParams,
    ) -> KernelOutput {
        FlashKernel {
            tile,
            head_fusion: true,
        }
        .run_with_scratch(problem, variant, params, &mut KernelScratch::new())
        .unwrap()
    }

    #[test]
    fn plan_run_matches_direct_kernel() {
        let heads = HeadConfig::new(2, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let variant = VanillaAttention { causal: true };
        let (q, k, v, layout) = make_case(&[40, 3, 17], &[2, 1, 3], heads);
        let kv_lens = [40, 3, 17];
        let problem =
            AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &kv_lens).unwrap();

        let tile = TileConfig { tq: 4, tkv: 8 };
        let mut p = fixed_pipeline(tile, 6, SchedulePolicy::Balanced);
        p.plan(&layout, heads.num_qo_heads, heads.head_dim).unwrap();
        let sched_out = p.run(&problem, &variant, &params).unwrap();

        let direct = direct_kernel(tile, &problem, &variant, &params);
        for b in 0..q.batch_size() {
            assert!(
                allclose(sched_out.o.seq(b), direct.o.seq(b), 1e-4, 1e-5),
                "request {b}"
            );
        }
        for (a, b) in sched_out.lse.iter().zip(&direct.lse) {
            if *b == f32::NEG_INFINITY {
                assert_eq!(*a, f32::NEG_INFINITY);
            } else {
                assert!((a - b).abs() < 1e-3);
            }
        }
        // The long request must actually have been split.
        assert!(p.plan_ref().unwrap().num_partials >= 2);
    }

    #[test]
    fn naive_policy_also_correct_just_unbalanced() {
        let heads = HeadConfig::new(1, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let variant = VanillaAttention { causal: true };
        let (q, k, v, layout) = make_case(&[64, 2], &[1, 1], heads);
        let problem =
            AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[64, 2]).unwrap();
        let tile = TileConfig { tq: 1, tkv: 16 };
        let mut np = fixed_pipeline(tile, 4, SchedulePolicy::Naive);
        np.plan(&layout, 1, 8).unwrap();
        let naive_out = np.run(&problem, &variant, &params).unwrap();
        let mut bp = fixed_pipeline(tile, 4, SchedulePolicy::Balanced);
        bp.plan(&layout, 1, 8).unwrap();
        let bal_out = bp.run(&problem, &variant, &params).unwrap();
        assert!(allclose(naive_out.o.seq(0), bal_out.o.seq(0), 1e-4, 1e-5));
        assert!(
            bp.plan_ref().unwrap().balance() > np.plan_ref().unwrap().balance(),
            "balanced should beat naive on skew"
        );
    }

    #[test]
    fn non_softmax_variant_through_scheduler() {
        let heads = HeadConfig::new(1, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8).with_extra("bias", -0.2);
        let variant = SigmoidAttention;
        let (q, k, v, layout) = make_case(&[33], &[1], heads);
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[33]).unwrap();
        let tile = TileConfig { tq: 1, tkv: 8 };
        let mut p = fixed_pipeline(tile, 4, SchedulePolicy::Balanced);
        p.plan(&layout, 1, 8).unwrap();
        let out = p.run(&problem, &variant, &params).unwrap();
        let direct = direct_kernel(tile, &problem, &variant, &params);
        assert!(allclose(out.o.seq(0), direct.o.seq(0), 1e-4, 1e-5));
    }

    #[test]
    fn run_without_plan_or_with_stale_plan_errors() {
        let heads = HeadConfig::new(1, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let variant = VanillaAttention { causal: true };
        let (q, k, v, layout) = make_case(&[8], &[1], heads);
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[8]).unwrap();
        let mut p = fixed_pipeline(TileConfig { tq: 1, tkv: 8 }, 2, SchedulePolicy::Balanced);
        assert!(matches!(
            p.run(&problem, &variant, &params),
            Err(SchedError::PlanMismatch(_))
        ));
        // Plan for a different layout, then run with this problem.
        let (_, _, _, other) = make_case(&[9], &[1], heads);
        p.plan(&other, 1, 8).unwrap();
        assert!(matches!(
            p.run(&problem, &variant, &params),
            Err(SchedError::PlanMismatch(_))
        ));
    }

    #[test]
    fn workspace_too_small_detected_at_plan() {
        let heads = HeadConfig::new(4, 1, 8).unwrap();
        let (_, _, _, layout) = make_case(&[500], &[1], heads);
        // Declare a workspace for 1 CTA but plan with 16: partials overflow.
        let ws = Workspace::allocate(WorkspaceLayout::compute(1, 4, 8, 1, 4096));
        let mut p = AttentionPipeline::with_workspace(
            FlashKernel {
                tile: TileConfig { tq: 1, tkv: 16 },
                head_fusion: true,
            },
            16,
            CostModel::default(),
            SchedulePolicy::Balanced,
            Arch::Ampere,
            ws,
        )
        .unwrap();
        assert!(matches!(
            p.plan(&layout, 4, 8),
            Err(SchedError::WorkspaceTooSmall { .. })
        ));
    }

    #[test]
    fn same_shape_across_layers_plans_once() {
        let layout = layout_for(&[40, 3, 17]);
        // A growable and a caller-bounded workspace cache alike.
        for mut p in [
            pipeline(4),
            fixed_pipeline(TileConfig { tq: 1, tkv: 8 }, 4, SchedulePolicy::Balanced),
        ] {
            for _ in 0..32 {
                p.plan(&layout, 2, 8).unwrap();
            }
            assert_eq!(p.stats().plans_computed, 1);
            assert_eq!(p.stats().plan_cache_hits, 31);
        }
    }

    #[test]
    fn permuted_request_order_is_a_hit_with_valid_plan() {
        let a = layout_for(&[40, 3, 17]);
        let b = layout_for(&[17, 40, 3]);
        let mut p = pipeline(4);
        let plan_a = p.plan(&a, 2, 8).unwrap().clone();
        let plan_b = p.plan(&b, 2, 8).unwrap().clone();
        assert_eq!(p.stats().plans_computed, 1);
        assert_eq!(p.stats().plan_cache_hits, 1);
        // The remapped plan covers b's blocks exactly once, with per-row
        // chunk structure equal to the original modulo the permutation.
        let mut covered: Vec<Vec<bool>> = (0..b.n_block_rows())
            .map(|br| vec![false; b.block_row(br).len()])
            .collect();
        for (_, item) in plan_b.iter_items() {
            for c in &mut covered[item.block_row][item.kv_block_start..item.kv_block_end] {
                assert!(!*c);
                *c = true;
            }
        }
        assert!(covered.iter().all(|r| r.iter().all(|&x| x)));
        assert_eq!(plan_a.num_partials, plan_b.num_partials);
        assert_eq!(plan_a.l_kv_chunk, plan_b.l_kv_chunk);
    }

    #[test]
    fn length_change_misses() {
        let mut p = pipeline(4);
        p.plan(&layout_for(&[40, 3]), 2, 8).unwrap();
        p.plan(&layout_for(&[40, 4]), 2, 8).unwrap();
        assert_eq!(p.stats().plans_computed, 2);
        assert_eq!(p.stats().plan_cache_hits, 0);
    }

    #[test]
    fn tile_or_arch_change_misses_in_cache() {
        let layout = layout_for(&[30, 5]);
        let mut cache = PlanCache::new(8);
        let t1 = TileConfig { tq: 1, tkv: 8 };
        let t2 = TileConfig { tq: 4, tkv: 16 };
        let (k1, s1) = PlanKey::for_layout(&layout, t1, Arch::Ampere);
        let plan = balanced_plan(&layout, 4, CostModel::default()).unwrap();
        cache.insert(k1.clone(), s1.clone(), plan);
        assert!(cache.lookup(&k1, &s1).is_some());
        let (k2, s2) = PlanKey::for_layout(&layout, t2, Arch::Ampere);
        assert!(cache.lookup(&k2, &s2).is_none(), "tile change must miss");
        let (k3, s3) = PlanKey::for_layout(&layout, t1, Arch::Hopper);
        assert!(cache.lookup(&k3, &s3).is_none(), "arch change must miss");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn workspace_grows_monotonically_and_never_shrinks() {
        let mut p = pipeline(8);
        let mut prev = p.workspace().layout().total_len;
        for kv in [4usize, 200, 16, 900, 8] {
            p.plan(&layout_for(&[kv]), 2, 8).unwrap();
            let cur = p.workspace().layout().total_len;
            assert!(cur >= prev, "workspace shrank: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn frozen_workspace_rejects_growth() {
        let mut p = pipeline(8);
        p.plan(&layout_for(&[16]), 2, 8).unwrap();
        p.freeze_workspace();
        // A much larger batch would need a bigger metadata/partials
        // section: 32 block rows alone exceed the 16-item metadata floor
        // the first (single-row) plan established.
        let big = layout_for(&vec![100; 32]);
        assert!(matches!(
            p.plan(&big, 2, 8),
            Err(SchedError::WorkspaceTooSmall { .. })
        ));
    }

    #[test]
    fn pinned_entries_survive_eviction_and_clear() {
        let layout = layout_for(&[12, 7]);
        let mut cache = PlanCache::new(1);
        let tile = TileConfig { tq: 1, tkv: 8 };
        let (k, s) = PlanKey::for_layout(&layout, tile, Arch::Ampere);
        let plan = balanced_plan(&layout, 2, CostModel::default()).unwrap();
        cache.insert(k.clone(), s.clone(), plan.clone());
        assert!(cache.pin(&k));
        // Inserting another shape at capacity 1 must not evict the pin.
        let other = layout_for(&[5]);
        let (k2, s2) = PlanKey::for_layout(&other, tile, Arch::Ampere);
        cache.insert(
            k2,
            s2,
            balanced_plan(&other, 2, CostModel::default()).unwrap(),
        );
        assert!(cache.lookup(&k, &s).is_some());
        cache.clear();
        assert!(
            cache.lookup(&k, &s).is_some(),
            "pinned entry survives clear"
        );
    }
}
