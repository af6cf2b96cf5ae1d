//! Worker pool: each worker owns an [`AttentionPipeline`] (plan cache,
//! workspace, kernel-stat accounting) and executes work units against the
//! shared append-only KV storage arena — with **zero locks** on the hot
//! path.
//!
//! Workers only *read* the arena — the scheduler is the single writer and
//! appends between steps (it blocks on every in-flight result before
//! mutating), so a step's units run concurrently without aliasing. Each
//! unit carries its page table, prebuilt by the scheduler from the same
//! pool state the worker observes; the unit channel's send/recv is the
//! happens-before edge that publishes the scheduler's slot writes.
//! Ordinary units are batch-of-one problems: the scheduler keeps
//! per-request work units separate so outputs are bit-identical to a
//! sequential replay regardless of how requests were batched, preempted,
//! or spread across workers (the plan's KV-split decisions are global per
//! plan, so multi-request batches would change the floating-point
//! association). Shared-prefix decode groups ([`GroupUnit`]) are the one
//! deliberate exception — and they keep the same property, because the
//! cascade's level layouts are shaped so planner chunking is independent
//! of group composition (see [`fi_sched::CascadeDecodeGroup`]).

use std::fmt;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use fi_core::config::HeadConfig;
use fi_core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use fi_core::tiles::TileConfig;
use fi_core::variant::{VanillaAttention, VariantParams};
use fi_dist::{BatchUnit, CommStats, DistError, ReduceMode, ShardedExecutor, ShardedKvPool};
use fi_kvcache::{KvCacheError, KvStore};
use fi_sched::pipeline::AttentionPipeline;
use fi_sched::CascadeDecodeGroup;
use fi_serving::PipelineObservables;
use fi_sparse::page::PageTable;
use fi_tensor::{RaggedTensor, Scalar};

use crate::pool::DequantScales;

/// One attention launch for one request.
#[derive(Debug, Clone)]
pub(crate) struct SingleUnit {
    /// Pool request id.
    pub req_id: u64,
    /// `Some(t)`: decode step `t` (the output row is recorded);
    /// `None`: a prefill chunk (runs the real kernel, output discarded).
    pub token_index: Option<usize>,
    /// Query rows in this unit.
    pub qo_len: usize,
    /// KV rows visible to this unit (the request's current pool length).
    pub kv_len: usize,
    /// Flattened query rows, `qo_len * qo_width`.
    pub q: Vec<f32>,
    /// The request's page table, built by the scheduler after this step's
    /// appends — workers never touch pool bookkeeping.
    pub pt: PageTable,
}

/// One member of a shared-prefix decode group.
#[derive(Debug, Clone)]
pub(crate) struct GroupMember {
    /// Pool request id.
    pub req_id: u64,
    /// Decode step (groups carry decodes only).
    pub token_index: usize,
    /// Full timeline KV length: prefix + suffix.
    pub kv_len: usize,
    /// The member's single query row, `qo_width` floats.
    pub q: Vec<f32>,
    /// Page table over the member's *suffix* pages only.
    pub pt: PageTable,
}

/// A shared-prefix decode group: one cascade launch covering every
/// member, the prefix staged once. Page tables — the owner's and each
/// member's — are prebuilt by the scheduler, same as [`SingleUnit`].
#[derive(Debug, Clone)]
pub(crate) struct GroupUnit {
    pub members: Vec<GroupMember>,
    /// Page table over the shared prefix's pages (owner pseudo-request).
    pub owner_pt: PageTable,
    /// Shared-prefix KV length (page-aligned).
    pub prefix_len: usize,
}

/// What the scheduler hands a worker: a batch-of-one problem, or a
/// shared-prefix decode group executed as a two-level cascade.
#[derive(Debug, Clone)]
pub(crate) enum WorkUnit {
    Single(SingleUnit),
    Group(GroupUnit),
}

impl WorkUnit {
    /// Results the scheduler must collect for this unit (one per member).
    pub fn result_count(&self) -> usize {
        match self {
            WorkUnit::Single(_) => 1,
            WorkUnit::Group(g) => g.members.len(),
        }
    }
}

/// Why a unit failed, typed through the result channel so the scheduler
/// can distinguish KV-cache faults (e.g. [`KvCacheError::Poisoned`]) from
/// kernel-execution faults.
#[derive(Debug, Clone)]
pub(crate) enum WorkerError {
    /// A KV-cache operation failed under the worker.
    Kv(KvCacheError),
    /// Layout, planning, or kernel execution failed.
    Exec(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Kv(e) => write!(f, "kv cache: {e}"),
            WorkerError::Exec(m) => write!(f, "{m}"),
        }
    }
}

/// A completed unit.
#[derive(Debug, Clone)]
pub(crate) struct WorkResult {
    pub req_id: u64,
    pub token_index: Option<usize>,
    /// Output rows, `qo_len * qo_width` (empty on error).
    pub out: Vec<f32>,
    pub err: Option<WorkerError>,
}

/// Shared immutable kernel configuration for the pool of workers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerConfig {
    pub heads: HeadConfig,
    pub tile: TileConfig,
    pub num_ctas: usize,
}

/// What a worker hands back at shutdown: its pipeline counters plus (in
/// tensor-parallel mode) its group's collective counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerReport {
    pub obs: PipelineObservables,
    pub comm: CommStats,
}

/// Send one [`WorkResult`] per `(req_id, token_index)` in `ids` — the
/// unit's output rows in order, or its error repeated — because the
/// scheduler counts `result_count()` messages per unit, success or
/// failure. False once the scheduler is gone (the worker shuts down).
fn emit<I: IntoIterator<Item = Vec<f32>>>(
    tx: &Sender<WorkResult>,
    ids: impl Iterator<Item = (u64, Option<usize>)>,
    result: Result<I, WorkerError>,
) -> bool {
    let (mut outs, err) = match result {
        Ok(outs) => (Some(outs.into_iter()), None),
        Err(e) => (None, Some(e)),
    };
    for (req_id, token_index) in ids {
        let msg = WorkResult {
            req_id,
            token_index,
            out: outs.as_mut().and_then(Iterator::next).unwrap_or_default(),
            err: err.clone(),
        };
        if tx.send(msg).is_err() {
            return false;
        }
    }
    true
}

impl SingleUnit {
    fn ids(&self) -> impl Iterator<Item = (u64, Option<usize>)> {
        std::iter::once((self.req_id, self.token_index))
    }
}

impl GroupUnit {
    fn ids(&self) -> impl Iterator<Item = (u64, Option<usize>)> + '_ {
        self.members.iter().map(|m| (m.req_id, Some(m.token_index)))
    }
}

/// Worker body: drain units until the scheduler drops the sender, then
/// return the pipeline's accumulated observables for the final report.
///
/// `TKV` is the arena's storage dtype, fixed for the life of the worker;
/// `dequant` carries the per-KV-head `(k, v)` scales an fp8 arena applies
/// during staging (`None` for f32 and f16 arenas).
pub(crate) fn worker_loop<TKV: Scalar>(
    cfg: WorkerConfig,
    store: Arc<KvStore<TKV>>,
    dequant: Option<DequantScales>,
    rx: Receiver<WorkUnit>,
    tx: Sender<WorkResult>,
) -> WorkerReport {
    let mut pipeline = AttentionPipeline::new(
        FlashKernel {
            tile: cfg.tile,
            head_fusion: true,
        },
        cfg.num_ctas,
        fi_sched::plan::CostModel::default(),
        fi_sched::pipeline::SchedulePolicy::Balanced,
        fi_core::arch::Arch::Hopper,
    )
    .expect("worker pipeline config validated at runtime start");
    let params = VariantParams::for_head_dim(cfg.heads.head_dim);
    let variant = VanillaAttention { causal: true };
    let dequant = dequant.as_ref().map(|(k, v)| (k.as_slice(), v.as_slice()));

    while let Ok(unit) = rx.recv() {
        let sent = match unit {
            WorkUnit::Single(u) => emit(
                &tx,
                u.ids(),
                execute(&store, dequant, &mut pipeline, cfg, &variant, &params, u)
                    .map(std::iter::once)
                    .map_err(WorkerError::Exec),
            ),
            WorkUnit::Group(g) => emit(
                &tx,
                g.ids(),
                execute_group(&store, dequant, &mut pipeline, cfg, &variant, &params, &g)
                    .map_err(WorkerError::Exec),
            ),
        };
        if !sent {
            break;
        }
    }

    let mut obs = PipelineObservables::default();
    obs.absorb_pipeline(&pipeline);
    WorkerReport {
        obs,
        comm: CommStats::default(),
    }
}

/// Tensor-parallel worker body: this logical worker is a tp-group — a
/// [`ShardedExecutor`] whose rank threads run shard-local attention over
/// the shared [`ShardedKvPool`] and reassemble full-width outputs with a
/// deterministic `all_gather`. Unit handling is otherwise identical to
/// [`worker_loop`]: batch-of-one units in (page table prebuilt by the
/// scheduler, so the rank threads stay lock-free), full-width rows out,
/// so the scheduler cannot tell the modes apart (and the outputs are
/// bit-identical — see `fi_dist::exec`'s module docs).
pub(crate) fn sharded_worker_loop(
    cfg: WorkerConfig,
    pool: Arc<ShardedKvPool>,
    rx: Receiver<WorkUnit>,
    tx: Sender<WorkResult>,
) -> WorkerReport {
    let exec = ShardedExecutor::new(&pool, cfg.tile, cfg.num_ctas)
        .expect("sharded config validated at runtime start");
    while let Ok(unit) = rx.recv() {
        let sent = match unit {
            WorkUnit::Single(u) => {
                let batch = [BatchUnit {
                    req_id: u.req_id,
                    qo_len: u.qo_len,
                    kv_len: u.kv_len,
                    q: u.q.clone(),
                }];
                let tables = Arc::new(vec![u.pt.clone()]);
                let result = exec
                    .run_prebuilt(&batch, tables, ReduceMode::AllGather)
                    .map_err(|e| match e {
                        DistError::Kv(kv) => WorkerError::Kv(kv),
                        other => WorkerError::Exec(other.to_string()),
                    });
                emit(&tx, u.ids(), result)
            }
            // The scheduler rejects shared-prefix requests at submit time
            // on the tensor-parallel backend, so groups cannot reach this
            // loop; answer defensively rather than wedge the scheduler's
            // result count.
            WorkUnit::Group(g) => emit(
                &tx,
                g.ids(),
                Err::<Vec<Vec<f32>>, _>(WorkerError::Exec(
                    "cascade groups are unsupported on the tensor-parallel backend".into(),
                )),
            ),
        };
        if !sent {
            break;
        }
    }
    let comm = exec.comm_stats();
    WorkerReport {
        obs: exec.join(),
        comm,
    }
}

/// Prebuilt page table → BSR layout → plan → run, for one request's unit.
/// No locks: pool tensors come straight from the append-only store.
///
/// Generic over the arena dtype: the kernel reads f32 rows where they lie
/// and widens narrower `TKV` rows into its f32 staging tiles (applying
/// `dequant` scales when given), so the same plan/run path serves every
/// storage precision. The unit is consumed: its query rows become the
/// problem's query tensor without a copy.
fn execute<TKV: Scalar>(
    store: &Arc<KvStore<TKV>>,
    dequant: Option<(&[f32], &[f32])>,
    pipeline: &mut AttentionPipeline,
    cfg: WorkerConfig,
    variant: &VanillaAttention,
    params: &VariantParams,
    unit: SingleUnit,
) -> Result<Vec<f32>, String> {
    let layout = unit
        .pt
        .to_bsr(&[unit.qo_len], cfg.tile.tq)
        .map_err(|e| format!("bsr layout: {e:?}"))?;
    let q = RaggedTensor::from_parts(vec![0, unit.qo_len], unit.q, cfg.heads.qo_width())
        .map_err(|e| format!("query rows: {e:?}"))?;
    let mut problem = AttentionProblem::standard_batch(
        &q,
        store.k_pool(),
        store.v_pool(),
        &layout,
        cfg.heads,
        &[unit.kv_len],
    )
    .map_err(|e| format!("problem: {e:?}"))?;
    if let Some((ks, vs)) = dequant {
        problem = problem
            .with_kv_dequant(ks, vs)
            .map_err(|e| format!("dequant scales: {e:?}"))?;
    }
    pipeline
        .plan(&layout, cfg.heads.num_qo_heads, cfg.heads.head_dim)
        .map_err(|e| format!("plan: {e:?}"))?;
    let out = pipeline
        .run(&problem, variant, params)
        .map_err(|e| format!("run: {e:?}"))?;
    Ok(out.o.seq(0).to_vec())
}

/// Shared-prefix group → [`CascadeDecodeGroup`] → one output row per
/// member. The group's bits equal a per-member replay of single-member
/// groups by construction (see `fi_sched::cascade`), so the scheduler may
/// group or split freely without changing any request's output stream.
fn execute_group<TKV: Scalar>(
    store: &Arc<KvStore<TKV>>,
    dequant: Option<(&[f32], &[f32])>,
    pipeline: &mut AttentionPipeline,
    cfg: WorkerConfig,
    variant: &VanillaAttention,
    params: &VariantParams,
    group: &GroupUnit,
) -> Result<Vec<Vec<f32>>, String> {
    let tables = group.members.iter().map(|m| &m.pt);
    let cascade = CascadeDecodeGroup::from_page_tables(&group.owner_pt, tables, group.prefix_len)
        .map_err(|e| format!("cascade group: {e:?}"))?;
    let rows = group.members.len();
    let width = cfg.heads.qo_width();
    let mut q = RaggedTensor::<f32>::from_seq_lens(&vec![1; rows], width);
    let mut row_meta = Vec::with_capacity(rows);
    for (r, m) in group.members.iter().enumerate() {
        if m.q.len() != width {
            return Err(format!("member {r} query width {} != {width}", m.q.len()));
        }
        if m.kv_len != group.prefix_len + m.pt.kv_len(0) {
            return Err(format!(
                "member {r} kv_len {} != prefix {} + suffix {}",
                m.kv_len,
                group.prefix_len,
                m.pt.kv_len(0)
            ));
        }
        q.as_tensor_mut().as_mut_slice()[r * width..(r + 1) * width].copy_from_slice(&m.q);
        row_meta.push(RowMeta {
            batch_idx: r,
            qo_pos: 0,
            qo_len: 1,
            kv_len: m.kv_len,
        });
    }
    let out = cascade
        .run(
            pipeline,
            &q,
            store.k_pool(),
            store.v_pool(),
            cfg.heads,
            &row_meta,
            variant,
            params,
            dequant,
        )
        .map_err(|e| format!("cascade run: {e:?}"))?;
    Ok((0..rows).map(|r| out.o.seq(r).to_vec()).collect())
}
