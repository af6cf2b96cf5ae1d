//! The continuous-batching scheduler: a dedicated thread that forms
//! iteration-level batches (Orca) from a bounded admission queue and
//! drives them through a worker pool against the shared paged KV pool.
//!
//! Every per-step decision — admission under KV capacity, Sarathi-style
//! chunked prefill, vLLM-style preemption on overflow — is delegated to
//! [`fi_serving::policy`], the same functions the discrete-event
//! simulator runs, so the two serving loops cannot drift apart in policy.
//! What this loop adds over the simulator is everything a real runtime
//! must do and a simulator may pretend away: real threads and channels,
//! real KV pages (with fragmentation, so physical `OutOfPages` backstops
//! the token-level accounting), cancellation and deadlines observed
//! mid-flight, swap buffers that actually hold the evicted rows, and real
//! kernels producing bit-exact attention outputs.
//!
//! Requests declaring a [`SharedPrefix`] add one more concern: the prefix
//! KV is stored **once** under an owner pseudo-request, indexed in a
//! [`RadixTree`], and credited at admission instead of re-charged per
//! request. Each step, co-resident sharers' decodes group by radix node
//! and run as a two-level cascade — the prefix staged once per group —
//! whenever the [`fi_gpusim::ExecContext`] cost gate says grouping beats
//! the flat path. The radix lock held per admitted user pins the prefix
//! against LRU eviction for as long as any formed-but-unexecuted batch
//! might reference it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fi_core::config::HeadConfig;
use fi_core::tiles::TileConfig;
use fi_dist::ShardedKvPool;
use fi_gpusim::{ExecContext, GpuSpec};
use fi_kvcache::{KvCacheError, PrefixMatch, RadixTree};
use fi_serving::engine::{EngineConfig, PreemptionPolicy};
use fi_serving::policy::{self, AdmissionCost, AdmissionVerdict};
use fi_serving::workload::RequestSpec;
use fi_serving::LatencyHistogram;
use fi_sparse::page::PageTable;
use fi_tensor::KvDtype;

use crate::metrics::{RequestLatency, RuntimeMetrics, TenantLatency};
use crate::pool::{KvBackend, SingleKv};
use crate::request::{
    effective_prefix_len, kv_row, prefix_token, q_row, CancelReason, ClientEnd, CompletedRequest,
    KvSnapshot, RejectReason, RequestHandle, RequestOutcome, RuntimeRequest, SharedPrefix,
    StreamItem, SubmitMode, SubmitOptions,
};
use crate::worker::{
    sharded_worker_loop, worker_loop, GroupMember, GroupUnit, SingleUnit, WorkResult, WorkUnit,
    WorkerConfig, WorkerReport,
};

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Policy knobs shared with the simulator: KV-token capacity, batch
    /// cap, chunked-prefill budget, admission mode, preemption policy.
    pub engine: EngineConfig,
    /// Bound of the submission queue; a full queue rejects (backpressure).
    pub queue_capacity: usize,
    /// Worker threads executing attention kernels. At `tensor_parallel
    /// > 1` each worker is a tp-group of that many rank threads.
    pub num_workers: usize,
    /// Tensor-parallel degree: 1 runs the single-pool path; `tp > 1`
    /// shards the KV pool and every worker by KV head across `tp` ranks
    /// (outputs stay bit-identical — heads are independent and the
    /// collectives are deterministic).
    pub tensor_parallel: usize,
    /// CTAs each worker's pipeline schedules over.
    pub num_ctas: usize,
    /// Attention head geometry.
    pub heads: HeadConfig,
    /// Kernel tile configuration.
    pub tile: TileConfig,
    /// KV page size in tokens.
    pub page_size: usize,
    /// KV pool size in pages.
    pub num_pages: usize,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        let (page_size, num_pages) = (4, 512);
        RuntimeConfig {
            engine: EngineConfig {
                kv_capacity_tokens: page_size * num_pages,
                max_batch: 16,
                prefix_caching: false,
                chunked_prefill_budget: Some(64),
                optimistic_admission: true,
                preemption: PreemptionPolicy::Recompute,
            },
            queue_capacity: 64,
            num_workers: 4,
            tensor_parallel: 1,
            num_ctas: 8,
            heads: HeadConfig::new(2, 1, 16).expect("static head config"),
            tile: TileConfig { tq: 4, tkv: 8 },
            page_size,
            num_pages,
        }
    }
}

impl RuntimeConfig {
    fn validate(&self) -> Result<(), RuntimeError> {
        let bad = |m: &str| Err(RuntimeError::InvalidConfig(m.into()));
        if self.queue_capacity == 0 {
            return bad("queue_capacity must be positive");
        }
        if self.num_workers == 0 {
            return bad("num_workers must be positive");
        }
        if self.tensor_parallel == 0 {
            return bad("tensor_parallel must be at least 1");
        }
        if self.num_ctas == 0 {
            return bad("num_ctas must be positive");
        }
        if self.page_size == 0 || self.num_pages == 0 {
            return bad("kv pool must have pages");
        }
        if self.tile.tq == 0 || self.tile.tkv == 0 {
            return bad("tile dims must be positive");
        }
        if self.engine.max_batch == 0 {
            return bad("max_batch must be positive");
        }
        if self.engine.chunked_prefill_budget == Some(0) {
            return bad("chunked_prefill_budget must be positive or None");
        }
        Ok(())
    }
}

/// Storage precision of the runtime's KV arena ([`RuntimeOptions::precision`]).
///
/// `F32` is the exact mode: rows round-trip bit-identically and kernel
/// outputs match the sequential oracle exactly. `F16` halves stored and
/// staged KV bytes (widened on stage); `Fp8E4M3` quarters them, dividing
/// by `fp8_kv_scale` per element on write and multiplying it back during
/// staging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvPrecision {
    /// Element type KV rows are stored at in the arena.
    pub dtype: KvDtype,
    /// Per-head dequantization scale used by the `Fp8E4M3` mode (ignored
    /// otherwise). Values are stored as `x / scale` and dequantized as
    /// `x * scale` on stage, so it should roughly match the magnitude of
    /// the KV activations; must be finite and positive.
    pub fp8_kv_scale: f32,
}

impl Default for KvPrecision {
    fn default() -> KvPrecision {
        KvPrecision {
            dtype: KvDtype::F32,
            fp8_kv_scale: 1.0,
        }
    }
}

impl KvPrecision {
    /// Shorthand for a given dtype with the default fp8 scale.
    pub fn of(dtype: KvDtype) -> KvPrecision {
        KvPrecision {
            dtype,
            ..KvPrecision::default()
        }
    }
}

/// Whether shared-prefix decode groups may fuse into multi-member
/// cascade launches ([`RuntimeOptions::cascade`]).
///
/// Grouping never changes any request's output bits — the cascade level
/// layouts are shaped so planner chunking is independent of group
/// composition (see [`fi_sched::CascadeDecodeGroup`]) — so this switch
/// trades staging traffic only: `Auto` fuses whenever the cost model
/// says staging the prefix once beats re-gathering it per member, `Off`
/// runs every sharer as its own single-member cascade (the flat baseline
/// the benchmarks compare against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CascadeMode {
    /// Fuse co-resident sharers when the cost model favors it.
    #[default]
    Auto,
    /// Never fuse (per-member prefix staging, bit-identical outputs).
    Off,
}

/// What [`Runtime::start_with`] takes besides the [`RuntimeConfig`]
/// (kept out of it so the config struct's literal surface stays stable).
/// The default is what [`Runtime::start`] runs: f32 KV, `Auto` cascade.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeOptions {
    /// KV storage precision. Reduced-precision arenas require
    /// `tensor_parallel == 1` (the sharded pool stores f32).
    pub precision: KvPrecision,
    /// Shared-prefix grouping mode; `Off` lets benchmarks pin the flat
    /// path and compare staged bytes against an otherwise identical
    /// `Auto` run.
    pub cascade: CascadeMode,
}

/// Runtime construction / configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The configuration is unusable.
    InvalidConfig(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::InvalidConfig(m) => write!(f, "invalid runtime config: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Counters shared between the submitting side and the final report.
#[derive(Default)]
struct Gate {
    submitted: AtomicU64,
    gate_rejected: AtomicU64,
    depth: AtomicUsize,
    peak_depth: AtomicUsize,
}

/// An accepted submission travelling to the scheduler.
struct Submission {
    id: u64,
    spec: RuntimeRequest,
    /// Resolves the client's handle. Still holds the token channel only
    /// while the request is queued; admission takes it into a
    /// [`StreamOut`].
    client: ClientEnd,
    submitted_at: Instant,
    /// A resumed leg's snapshot is taken at admission, leaving `Full`.
    mode: SubmitMode,
}

/// The scheduler's end of one request's bounded token stream: tokens are
/// pushed as decode results arrive and forwarded with `try_send`, never a
/// blocking send — a slow client backs the *request* up (its decode is
/// skipped while `stalled`), not the scheduler. A disconnected receiver
/// marks the stream dead, which the cancellation sweep turns into
/// [`CancelReason::StreamDropped`].
struct StreamOut {
    tx: SyncSender<StreamItem>,
    backlog: VecDeque<StreamItem>,
    dead: bool,
}

impl StreamOut {
    fn new(tx: SyncSender<StreamItem>) -> StreamOut {
        StreamOut {
            tx,
            backlog: VecDeque::new(),
            dead: false,
        }
    }

    fn push(&mut self, item: StreamItem) {
        if self.dead {
            return;
        }
        self.backlog.push_back(item);
        self.flush();
    }

    fn flush(&mut self) {
        if self.dead {
            self.backlog.clear();
            return;
        }
        while let Some(item) = self.backlog.pop_front() {
            match self.tx.try_send(item) {
                Ok(()) => {}
                Err(TrySendError::Full(item)) => {
                    self.backlog.push_front(item);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.dead = true;
                    self.backlog.clear();
                    break;
                }
            }
        }
    }

    /// Undelivered items pending behind a full (but live) channel.
    fn stalled(&self) -> bool {
        !self.dead && !self.backlog.is_empty()
    }

    /// Nothing left to deliver (or nobody left to deliver to).
    fn drained(&self) -> bool {
        self.dead || self.backlog.is_empty()
    }
}

/// A concurrent continuous-batching serving runtime.
///
/// `start` spawns a scheduler thread and `num_workers` kernel workers;
/// `submit` enqueues requests (rejecting with backpressure when the
/// bounded queue is full); dropping the submission side via `finish`
/// drains in-flight work and returns the [`RuntimeMetrics`] report.
pub struct Runtime {
    tx: Option<SyncSender<Submission>>,
    scheduler: Option<JoinHandle<RuntimeMetrics>>,
    gate: Arc<Gate>,
    next_id: AtomicU64,
    /// Mirrored from the config so `submit` can reject shared-prefix
    /// requests on the sharded backend without a scheduler round-trip.
    tensor_parallel: usize,
    /// Mirrored KV row width (`num_kv_heads * head_dim`) for gate-side
    /// validation of [`SubmitMode::Resume`] snapshots.
    kv_width: usize,
    /// Mirrored KV storage dtype — resumed snapshots must match it for
    /// the bit-exactness guarantee to hold.
    kv_dtype: KvDtype,
}

impl Runtime {
    /// Spawn the scheduler and worker threads with the default
    /// [`RuntimeOptions`].
    pub fn start(cfg: RuntimeConfig) -> Result<Runtime, RuntimeError> {
        Runtime::start_with(cfg, RuntimeOptions::default())
    }

    /// Spawn the scheduler and worker threads.
    pub fn start_with(cfg: RuntimeConfig, opts: RuntimeOptions) -> Result<Runtime, RuntimeError> {
        let RuntimeOptions { precision, cascade } = opts;
        cfg.validate()?;
        if cfg.tensor_parallel > 1 && precision.dtype != KvDtype::F32 {
            return Err(RuntimeError::InvalidConfig(
                "reduced-precision KV requires tensor_parallel == 1".into(),
            ));
        }
        if precision.dtype == KvDtype::Fp8E4M3
            && !(precision.fp8_kv_scale.is_finite() && precision.fp8_kv_scale > 0.0)
        {
            return Err(RuntimeError::InvalidConfig(
                "fp8_kv_scale must be finite and positive".into(),
            ));
        }
        let pool = if cfg.tensor_parallel == 1 {
            // The single-shard code path: the split kvcache layers, owned
            // by the scheduler thread — no lock anywhere.
            let (ps, np, w, d) = (
                cfg.page_size,
                cfg.num_pages,
                cfg.heads.kv_width(),
                cfg.heads.head_dim,
            );
            let unit = vec![1.0f32; cfg.heads.num_kv_heads];
            match precision.dtype {
                KvDtype::F32 => KvBackend::Single(SingleKv::new(ps, np, w, d, unit.clone(), unit)),
                KvDtype::F16 => {
                    KvBackend::SingleF16(SingleKv::new(ps, np, w, d, unit.clone(), unit))
                }
                KvDtype::Fp8E4M3 => {
                    let s = vec![precision.fp8_kv_scale; cfg.heads.num_kv_heads];
                    KvBackend::SingleFp8(SingleKv::new(ps, np, w, d, s.clone(), s))
                }
            }
        } else {
            let pool =
                ShardedKvPool::new(cfg.heads, cfg.tensor_parallel, cfg.page_size, cfg.num_pages)
                    .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
            KvBackend::Sharded(Arc::new(pool))
        };
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity);
        let gate = Arc::new(Gate::default());
        let sched_gate = Arc::clone(&gate);
        let tensor_parallel = cfg.tensor_parallel;
        let kv_width = cfg.heads.kv_width();
        let kv_dtype = precision.dtype;
        let scheduler = std::thread::Builder::new()
            .name("fi-runtime-scheduler".into())
            .spawn(move || Scheduler::new(cfg, pool, rx, sched_gate, cascade).run())
            .map_err(|e| RuntimeError::InvalidConfig(format!("spawn scheduler: {e}")))?;
        Ok(Runtime {
            tx: Some(tx),
            scheduler: Some(scheduler),
            gate,
            next_id: AtomicU64::new(1),
            tensor_parallel,
            kv_width,
            kv_dtype,
        })
    }

    /// Submit a request. Always returns a handle; exactly one outcome is
    /// delivered per submission, including queue-full rejections.
    pub fn submit(&self, req: RuntimeRequest) -> RequestHandle {
        self.submit_with(req, SubmitOptions::default())
    }

    /// [`Runtime::submit`] with a token stream and/or a migration leg;
    /// see [`SubmitOptions`].
    pub fn submit_with(&self, req: RuntimeRequest, opts: SubmitOptions) -> RequestHandle {
        let SubmitOptions { stream, leg } = opts;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.gate.submitted.fetch_add(1, Ordering::Relaxed);
        let spec = req.normalized();
        let reject = if spec.prefix.is_some()
            && (self.tensor_parallel > 1 || !matches!(leg, SubmitMode::Full))
        {
            // Prefix grouping assumes the single-shard executor and the
            // full lifecycle (migration legs would lose the owner-held
            // prefix rows); reject here — like QueueFull, the depth was
            // never incremented — so the scheduler never sees a request
            // it cannot serve.
            Some(RejectReason::PrefixUnsupported)
        } else if stream.is_some() && matches!(leg, SubmitMode::PrefillOnly) {
            Some(RejectReason::UnsupportedOptions)
        } else if let SubmitMode::Resume(snap) = &leg {
            let n = snap.rows * self.kv_width;
            let geometry_ok = snap.kv_width == self.kv_width
                && snap.rows == spec.prompt_len
                && snap.kv_dtype == self.kv_dtype
                && snap.k.len() == n
                && snap.v.len() == n;
            (!geometry_ok).then_some(RejectReason::SnapshotMismatch)
        } else {
            None
        };
        let (handle, client) = RequestHandle::pair(id, stream);
        if let Some(reason) = reject {
            self.gate.gate_rejected.fetch_add(1, Ordering::Relaxed);
            client.deliver(RequestOutcome::Rejected(reason));
            return handle;
        }
        let sub = Submission {
            id,
            spec,
            client,
            submitted_at: Instant::now(),
            mode: leg,
        };
        let tx = self.tx.as_ref().expect("live until finish()");
        // Count the submission in the depth *before* it becomes visible
        // to the scheduler — the scheduler's decrement-on-drain must
        // never observe an item whose increment hasn't happened yet.
        let d = self.gate.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.gate.peak_depth.fetch_max(d, Ordering::Relaxed);
        match tx.try_send(sub) {
            Ok(()) => {}
            Err(TrySendError::Full(sub)) | Err(TrySendError::Disconnected(sub)) => {
                self.gate.depth.fetch_sub(1, Ordering::Relaxed);
                self.gate.gate_rejected.fetch_add(1, Ordering::Relaxed);
                sub.client
                    .deliver(RequestOutcome::Rejected(RejectReason::QueueFull));
            }
        }
        handle
    }

    /// Submissions currently queued (admitted requests not included).
    pub fn queue_depth(&self) -> usize {
        self.gate.depth.load(Ordering::Relaxed)
    }

    /// Close the queue, drain all in-flight work, and report.
    pub fn finish(mut self) -> RuntimeMetrics {
        self.tx.take();
        let handle = self.scheduler.take().expect("finish called once");
        let mut m = match handle.join() {
            Ok(m) => m,
            Err(_) => panic!("fi-runtime scheduler thread panicked"),
        };
        m.submitted = self.gate.submitted.load(Ordering::Relaxed);
        m.rejected += self.gate.gate_rejected.load(Ordering::Relaxed);
        m.peak_queue_depth = self.gate.peak_depth.load(Ordering::Relaxed);
        m
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler internals.
// ---------------------------------------------------------------------------

enum Phase {
    /// Prefilling rows `done..target` (after a recompute-preemption,
    /// `target` includes the already-generated tokens' KV).
    Prefill { done: usize, target: usize },
    /// One token per step.
    Decode,
}

/// Swapped-out KV rows of a preempted request, flattened
/// `rows * kv_width` in position order.
struct SwapBuf {
    k: Vec<f32>,
    v: Vec<f32>,
    rows: usize,
}

struct Active {
    sub: Submission,
    phase: Phase,
    /// The scheduler's end of the request's token stream, if the client
    /// asked for one. Taken from the submission at admission; survives
    /// preemption (tokens already streamed are never re-sent — only KV is
    /// recomputed, results are kept).
    stream: Option<StreamOut>,
    /// Decoded output rows, in token order. Survives preemption — only
    /// KV is evicted, not results.
    outputs: Vec<Vec<f32>>,
    /// KV tokens currently charged against `kv_used`.
    charged: usize,
    /// Prefill chunk staged for the current step.
    staged: usize,
    /// The *effective* shared prefix (page-aligned, non-empty), if the
    /// request declared one. The request's own pool rows cover global
    /// positions `prefix.len..`; the prefix rows live under the owner
    /// pseudo-request. Survives preemption — the radix lock and user
    /// count are held until the request reaches a terminal state.
    prefix: Option<SharedPrefix>,
    swap: Option<SwapBuf>,
    first_token_at: Option<Instant>,
    last_token_at: Option<Instant>,
    itl: Vec<f64>,
    preemptions: usize,
}

impl Active {
    /// Global positions `0..prefix_len()` are shared-prefix rows; the
    /// request's own pool rows start there.
    fn prefix_len(&self) -> usize {
        self.prefix.map(|p| p.len).unwrap_or(0)
    }
}

enum AppendOutcome {
    Done,
    /// The row can never fit (pool too small for this request alone).
    Failed(String),
}

/// Pool ids above this bound are prefix owners, never client requests
/// (client ids count up from 1), so the two can share the pool's id
/// space without collision.
const PREFIX_OWNER_BASE: u64 = 1 << 63;

/// A shared prefix resident in the pool: its KV rows stored once under
/// an owner pseudo-request (appended directly — the skip-prefill win),
/// its token sequence indexed by the radix tree, its admission charge
/// (`len` tokens) taken once at creation rather than per user.
struct PrefixEntry {
    /// Owner pseudo-request holding the prefix's pool pages.
    owner_id: u64,
    /// Live requests (active *or* preempted) referencing this prefix.
    /// Each holds one radix lock for its whole lifetime, so `users > 0`
    /// pins the path against [`RadixTree::evict_lru`].
    users: usize,
    /// The match the users' locks went through (lock/unlock take the
    /// match, and its node id is the per-step grouping key).
    pmatch: PrefixMatch,
    /// The prefix's token sequence, kept to re-probe the tree when
    /// deciding whether the LRU sweep released this entry.
    tokens: Vec<u32>,
}

struct Scheduler {
    cfg: RuntimeConfig,
    pool: KvBackend,
    rx: Receiver<Submission>,
    gate: Arc<Gate>,
    pending: VecDeque<Submission>,
    active: Vec<Active>,
    preempted: VecDeque<Active>,
    /// Policy-level token reservation (mirrors the simulator's `kv_used`).
    kv_used: usize,
    metrics: RuntimeMetrics,
    worker_tx: Vec<Sender<WorkUnit>>,
    results_rx: Option<Receiver<WorkResult>>,
    workers: Vec<JoinHandle<WorkerReport>>,
    disconnected: bool,
    rr: usize,
    /// Prefix index: token sequences of every resident shared prefix.
    radix: RadixTree,
    /// Resident prefixes by `(seed, effective_len)`.
    prefix_entries: HashMap<(u64, usize), PrefixEntry>,
    next_owner_id: u64,
    cascade: CascadeMode,
    /// Cost model deciding cascade-vs-flat per group per step.
    exec_ctx: ExecContext,
    /// Streams of finished requests still holding undelivered items (the
    /// terminal `Done` and any backlogged tokens); flushed opportunistically
    /// each loop iteration and bounded-flushed at shutdown.
    flushing: Vec<StreamOut>,
    /// Per-tenant latency — TTFT samples (one per request) and ITL
    /// histograms (one sample per token, so never kept raw) — digested
    /// into [`RuntimeMetrics::tenants`] at drain.
    tenant_ttft: HashMap<u32, Vec<f64>>,
    tenant_itl: HashMap<u32, LatencyHistogram>,
    tenant_completed: HashMap<u32, u64>,
}

impl Scheduler {
    fn new(
        cfg: RuntimeConfig,
        pool: KvBackend,
        rx: Receiver<Submission>,
        gate: Arc<Gate>,
        cascade: CascadeMode,
    ) -> Scheduler {
        // The gate costs relative traffic, so any spec works; what must
        // match the runtime is the geometry and the stored KV width.
        let mut exec_ctx = ExecContext::new(GpuSpec::H100_80G, cfg.heads, cfg.tile);
        exec_ctx.kv_elem_bytes = match pool.kv_dtype() {
            KvDtype::F32 => 4,
            KvDtype::F16 => 2,
            KvDtype::Fp8E4M3 => 1,
        };
        exec_ctx.q_elem_bytes = 4;
        Scheduler {
            cfg,
            pool,
            rx,
            gate,
            pending: VecDeque::new(),
            active: Vec::new(),
            preempted: VecDeque::new(),
            kv_used: 0,
            metrics: RuntimeMetrics::default(),
            worker_tx: Vec::new(),
            results_rx: None,
            workers: Vec::new(),
            disconnected: false,
            rr: 0,
            radix: RadixTree::new(),
            prefix_entries: HashMap::new(),
            next_owner_id: 0,
            cascade,
            exec_ctx,
            flushing: Vec::new(),
            tenant_ttft: HashMap::new(),
            tenant_itl: HashMap::new(),
            tenant_completed: HashMap::new(),
        }
    }

    fn run(mut self) -> RuntimeMetrics {
        let start = Instant::now();
        self.spawn_workers();
        loop {
            self.drain_submissions();
            if self.disconnected
                && self.pending.is_empty()
                && self.active.is_empty()
                && self.preempted.is_empty()
            {
                break;
            }
            self.sweep_cancellations();
            self.resume_preempted();
            self.admit_pending();
            let worked = self.step();
            self.flush_streams();
            if !worked && !self.active.is_empty() {
                // Every runnable request is stalled on its full stream
                // channel: yield briefly instead of spinning until the
                // client reads (or drops) its receiver.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        // Flush remaining stream tails (terminal `Done`s and backlogged
        // tokens of already-finished requests), bounded — a client that
        // stopped reading forfeits its tail.
        let flush_deadline = Instant::now() + Duration::from_millis(200);
        while !self.flushing.is_empty() && Instant::now() < flush_deadline {
            self.flush_streams();
            if self.flushing.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.flushing.clear();
        // Graceful shutdown: close the unit channels, collect each
        // worker's pipeline observables and collective counters.
        self.worker_tx.clear();
        self.results_rx.take();
        for h in std::mem::take(&mut self.workers) {
            if let Ok(report) = h.join() {
                self.metrics.serving.pipeline.absorb(&report.obs);
                self.metrics.comm.merge(&report.comm);
            }
        }
        self.metrics.serving.duration = start.elapsed().as_secs_f64();
        self.metrics.tensor_parallel = self.cfg.tensor_parallel;
        self.metrics.kv_dtype = self.pool.kv_dtype().to_string();
        self.metrics.kv_pages_total = self.cfg.num_pages;
        // Prefix owners outlive their users by design; with every user
        // drained they are all idle now, so drop them before drain-time
        // accounting (which expects an empty pool).
        for (_, e) in self.prefix_entries.drain() {
            let _ = self.pool.remove_request(e.owner_id);
        }
        // Return cached pages to the shards so drain-time accounting sees
        // the allocator's true free count.
        self.pool.flush();
        self.metrics.kv_pages_free_at_drain = self.pool.free_page_count();
        // Digest latency samples once, whole-run and per tenant.
        self.metrics.latency =
            RequestLatency::digest(&self.metrics.serving.ttft, &self.metrics.itl_histogram);
        let mut ids: Vec<u32> = self.tenant_ttft.keys().copied().collect();
        ids.sort_unstable();
        self.metrics.tenants = ids
            .into_iter()
            .map(|t| {
                let itl_histogram = self.tenant_itl.remove(&t).unwrap_or_default();
                TenantLatency {
                    tenant: t,
                    completed: self.tenant_completed.get(&t).copied().unwrap_or(0),
                    latency: RequestLatency::digest(&self.tenant_ttft[&t], &itl_histogram),
                    itl_histogram,
                }
            })
            .collect();
        self.metrics
    }

    /// Advance every live stream: active requests' channels (so stalls
    /// clear and receiver drops are noticed even between that request's
    /// decode steps) and the tails of finished requests.
    fn flush_streams(&mut self) {
        for a in self.active.iter_mut().chain(self.preempted.iter_mut()) {
            if let Some(s) = &mut a.stream {
                s.flush();
            }
        }
        self.flushing.retain_mut(|s| {
            s.flush();
            !s.drained()
        });
    }

    /// Terminal delivery for a request that was admitted: push the
    /// outcome into its stream (salvaging any undelivered tail into the
    /// flush list) and resolve its handle.
    fn finish_active(&mut self, mut a: Active, outcome: RequestOutcome) {
        if let Some(mut s) = a.stream.take() {
            s.push(StreamItem::Done(outcome.clone()));
            if !s.drained() {
                self.flushing.push(s);
            }
        }
        // The token channel was taken at admission, so this only resolves
        // the handle.
        a.sub.client.deliver(outcome);
    }

    fn spawn_workers(&mut self) {
        let wcfg = WorkerConfig {
            heads: self.cfg.heads,
            tile: self.cfg.tile,
            num_ctas: self.cfg.num_ctas,
        };
        let (res_tx, res_rx) = mpsc::channel();
        for w in 0..self.cfg.num_workers {
            let (unit_tx, unit_rx) = mpsc::channel();
            let res_tx = res_tx.clone();
            // The arena's storage dtype is fixed here, once per worker:
            // f32 arenas run the exact path, f16/fp8 arenas the same
            // generic kernel with widen-on-stage (and, for fp8, the
            // per-KV-head dequantization scales applied during staging).
            let body: Box<dyn FnOnce() -> WorkerReport + Send> = match &self.pool {
                KvBackend::Single(p) => {
                    let store = p.store();
                    Box::new(move || worker_loop(wcfg, store, None, unit_rx, res_tx))
                }
                KvBackend::SingleF16(p) => {
                    let store = p.store();
                    Box::new(move || worker_loop(wcfg, store, None, unit_rx, res_tx))
                }
                KvBackend::SingleFp8(p) => {
                    let (store, scales) = (p.store(), p.scales());
                    Box::new(move || worker_loop(wcfg, store, Some(scales), unit_rx, res_tx))
                }
                KvBackend::Sharded(p) => {
                    let pool = Arc::clone(p);
                    Box::new(move || sharded_worker_loop(wcfg, pool, unit_rx, res_tx))
                }
            };
            let tp = if self.cfg.tensor_parallel > 1 {
                "tp-"
            } else {
                ""
            };
            let handle = std::thread::Builder::new()
                .name(format!("fi-runtime-{tp}worker-{w}"))
                .spawn(body)
                .expect("spawn worker");
            self.worker_tx.push(unit_tx);
            self.workers.push(handle);
        }
        // Workers hold the only result senders: a recv error means the
        // whole pool died, which we want to observe, not deadlock on.
        drop(res_tx);
        self.results_rx = Some(res_rx);
    }

    // -- intake ------------------------------------------------------------

    fn drain_submissions(&mut self) {
        if self.disconnected {
            return;
        }
        // Idle: block for work instead of spinning — unless finished
        // requests still have stream tails to deliver, in which case keep
        // the loop turning so `flush_streams` runs.
        if self.pending.is_empty() && self.active.is_empty() && self.preempted.is_empty() {
            if self.flushing.is_empty() {
                match self.rx.recv() {
                    Ok(s) => {
                        self.gate.depth.fetch_sub(1, Ordering::Relaxed);
                        self.pending.push_back(s);
                    }
                    Err(_) => {
                        self.disconnected = true;
                        return;
                    }
                }
            } else {
                match self.rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(s) => {
                        self.gate.depth.fetch_sub(1, Ordering::Relaxed);
                        self.pending.push_back(s);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        self.disconnected = true;
                        return;
                    }
                }
            }
        }
        loop {
            match self.rx.try_recv() {
                Ok(s) => {
                    self.gate.depth.fetch_sub(1, Ordering::Relaxed);
                    self.pending.push_back(s);
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
    }

    fn cancel_state(sub: &Submission) -> Option<CancelReason> {
        if sub.client.cancelled() {
            return Some(CancelReason::User);
        }
        if let Some(d) = sub.spec.deadline {
            if sub.submitted_at.elapsed() >= d {
                return Some(CancelReason::Deadline);
            }
        }
        None
    }

    fn sweep_cancellations(&mut self) {
        let metrics = &mut self.metrics;
        self.pending.retain(|s| match Self::cancel_state(s) {
            Some(r) => {
                s.client.deliver(RequestOutcome::Cancelled(r));
                metrics.cancelled += 1;
                false
            }
            None => true,
        });
        // Preempted requests hold no pool pages or charge, but they do
        // hold their prefix user count and radix lock — release it.
        let mut i = 0;
        while i < self.preempted.len() {
            match Self::cancel_or_dropped(&self.preempted[i]) {
                Some(r) => {
                    let a = self.preempted.remove(i).expect("index in bounds");
                    self.release_prefix(&a);
                    if matches!(r, CancelReason::StreamDropped) {
                        self.metrics.stream_dropped += 1;
                    }
                    self.finish_active(a, RequestOutcome::Cancelled(r));
                    self.metrics.cancelled += 1;
                }
                None => i += 1,
            }
        }
        let mut i = 0;
        while i < self.active.len() {
            match Self::cancel_or_dropped(&self.active[i]) {
                Some(r) => {
                    let a = self.active.remove(i);
                    self.release(&a);
                    if matches!(r, CancelReason::StreamDropped) {
                        self.metrics.stream_dropped += 1;
                    }
                    self.finish_active(a, RequestOutcome::Cancelled(r));
                    self.metrics.cancelled += 1;
                }
                None => i += 1,
            }
        }
    }

    /// [`Scheduler::cancel_state`] plus the streaming runtime's third
    /// cancellation source: the client dropped its token receiver, so the
    /// remaining generation would be thrown away anyway.
    fn cancel_or_dropped(a: &Active) -> Option<CancelReason> {
        Self::cancel_state(&a.sub).or_else(|| {
            a.stream
                .as_ref()
                .and_then(|s| s.dead.then_some(CancelReason::StreamDropped))
        })
    }

    /// Free a request's policy reservation, its pool pages, and its
    /// prefix reference (terminal states only — preemption keeps the
    /// prefix pinned).
    fn release(&mut self, a: &Active) {
        self.kv_used = self.kv_used.saturating_sub(a.charged);
        let _ = self.pool.remove_request(a.sub.id);
        self.release_prefix(a);
    }

    /// Drop one user reference on `a`'s shared prefix and release its
    /// radix lock. The entry itself stays resident (and re-creditable)
    /// until page pressure evicts it via [`Scheduler::try_evict_idle_prefix`].
    fn release_prefix(&mut self, a: &Active) {
        let Some(p) = a.prefix else { return };
        if let Some(e) = self.prefix_entries.get_mut(&(p.seed, p.len)) {
            e.users = e.users.saturating_sub(1);
            let m = e.pmatch.clone();
            self.radix.unlock_prefix(&m);
        }
    }

    // -- admission ---------------------------------------------------------

    fn decode_branches(&self) -> usize {
        self.active
            .iter()
            .filter(|a| matches!(a.phase, Phase::Decode))
            .count()
    }

    fn resume_preempted(&mut self) {
        while let Some(front) = self.preempted.front() {
            // Own rows to restore: the prompt minus the still-resident
            // shared prefix, plus every token decoded so far.
            let need = front.sub.spec.prompt_len - front.prefix_len() + front.outputs.len();
            let rem_out = front.sub.spec.output_len - front.outputs.len();
            let reserve = if self.cfg.engine.optimistic_admission {
                need
            } else {
                need + rem_out
            };
            let cost = AdmissionCost {
                full: need + rem_out,
                reserve,
                branches: 1,
            };
            if policy::admission_verdict(
                &self.cfg.engine,
                &cost,
                self.kv_used,
                self.decode_branches(),
            ) != AdmissionVerdict::Admit
            {
                break;
            }
            let mut a = self.preempted.pop_front().expect("front exists");
            self.pool
                .add_request(a.sub.id)
                .expect("preempted request is not in the pool");
            a.charged = reserve;
            self.kv_used += reserve;
            match a.swap.take() {
                Some(buf) => {
                    if self.try_swap_in(&a, &buf, need) {
                        self.metrics.swap_ins += 1;
                        a.phase = Phase::Decode;
                        self.active.push(a);
                    } else {
                        // Fragmentation beat the token accounting. A
                        // swap-in must never evict running work (that
                        // ping-pongs forever when two swapped requests
                        // keep evicting each other before any step can
                        // run): roll back, keep the buffer, and retry
                        // once completed steps free pages.
                        self.kv_used = self.kv_used.saturating_sub(a.charged);
                        a.charged = 0;
                        let _ = self.pool.remove_request(a.sub.id);
                        a.swap = Some(buf);
                        self.preempted.push_front(a);
                        break;
                    }
                }
                None => {
                    a.phase = Phase::Prefill {
                        done: 0,
                        target: need,
                    };
                    self.active.push(a);
                }
            }
        }
    }

    /// Restore swapped rows, then regenerate any rows evicted before they
    /// were ever written (a self-preempt on a failed decode append leaves
    /// the buffer one row short of `need`). Never evicts: false means
    /// "no space right now", with any partial restore rolled back by the
    /// caller via `remove_request`.
    fn try_swap_in(&mut self, a: &Active, buf: &SwapBuf, need: usize) -> bool {
        let id = a.sub.id;
        let width = self.cfg.heads.kv_width();
        for (kr, vr) in buf
            .k
            .chunks_exact(width)
            .zip(buf.v.chunks_exact(width))
            .take(buf.rows)
        {
            if !self.append_kv_no_evict(id, kr, vr) {
                return false;
            }
        }
        // Own-row index i holds global position prefix_len + i, always
        // past the shared prefix, so the request's own stream is right.
        let base = a.prefix_len();
        for pos in buf.rows..need {
            let k = kv_row(a.sub.spec.seed, base + pos, width, false);
            let v = kv_row(a.sub.spec.seed, base + pos, width, true);
            if !self.append_kv_no_evict(id, &k, &v) {
                return false;
            }
        }
        true
    }

    /// Append without preempting anybody; false on page exhaustion.
    fn append_kv_no_evict(&mut self, id: u64, k: &[f32], v: &[f32]) -> bool {
        self.pool.append(id, k, v).is_ok()
    }

    fn admit_pending(&mut self) {
        while let Some(front) = self.pending.front() {
            // A declared prefix shrinks to its page-aligned effective
            // length; zero means the request runs plain.
            let prefix = front.spec.prefix.and_then(|p| {
                let len = effective_prefix_len(p.len, front.spec.prompt_len, self.cfg.page_size);
                (len > 0).then_some(SharedPrefix { seed: p.seed, len })
            });
            let spec = RequestSpec {
                prompt_len: front.spec.prompt_len,
                // A prefill-only leg never decodes here: its pages are
                // exported and freed at the prefill boundary, so no
                // decode-token headroom is costed.
                output_len: match front.mode {
                    SubmitMode::PrefillOnly => 0,
                    _ => front.spec.output_len,
                },
                arrival: 0.0,
                n_parallel: 1,
            };
            // Radix-resident prefix tokens are credited (charged once at
            // entry creation, never per user); a request whose prefix is
            // not yet resident carries the entry's charge through the
            // verdict so admission cannot overshoot capacity.
            let cached = prefix.map(|p| p.len).unwrap_or(0);
            let base = AdmissionCost::compute_with_cached(&self.cfg.engine, &spec, cached);
            let entry_charge = match prefix {
                Some(p) if !self.prefix_entries.contains_key(&(p.seed, p.len)) => p.len,
                _ => 0,
            };
            let cost = AdmissionCost {
                full: base.full + entry_charge,
                reserve: base.reserve + entry_charge,
                branches: base.branches,
            };
            match policy::admission_verdict(
                &self.cfg.engine,
                &cost,
                self.kv_used,
                self.decode_branches(),
            ) {
                AdmissionVerdict::Admit => {
                    let mut sub = self.pending.pop_front().expect("front exists");
                    if let Some(p) = prefix {
                        if let Err(msg) = self.ensure_prefix_entry(p) {
                            sub.client
                                .deliver(RequestOutcome::Cancelled(CancelReason::Failed(msg)));
                            self.metrics.cancelled += 1;
                            continue;
                        }
                        let e = self
                            .prefix_entries
                            .get_mut(&(p.seed, p.len))
                            .expect("entry just ensured");
                        e.users += 1;
                        let m = e.pmatch.clone();
                        self.radix.lock_prefix(&m);
                    }
                    self.pool.add_request(sub.id).expect("fresh request id");
                    self.kv_used += base.reserve;
                    self.metrics.admitted += 1;
                    let target = sub.spec.prompt_len - cached;
                    let stream = sub.client.take_stream().map(StreamOut::new);
                    // A resumed request's KV arrives in its snapshot, not
                    // from prefill compute: take the payload now, import
                    // after the Active exists, and start in Decode.
                    let resume_kv = match std::mem::take(&mut sub.mode) {
                        SubmitMode::Resume(snap) => Some(snap),
                        other => {
                            sub.mode = other;
                            None
                        }
                    };
                    let id = sub.id;
                    let phase = if resume_kv.is_some() {
                        Phase::Decode
                    } else {
                        Phase::Prefill { done: 0, target }
                    };
                    self.active.push(Active {
                        sub,
                        phase,
                        stream,
                        outputs: Vec::new(),
                        charged: base.reserve,
                        staged: 0,
                        prefix,
                        swap: None,
                        first_token_at: None,
                        last_token_at: None,
                        itl: Vec::new(),
                        preemptions: 0,
                    });
                    if let Some(snap) = resume_kv {
                        if let Err(msg) = self.import_snapshot(id, &snap) {
                            self.fail(id, msg);
                            continue;
                        }
                        self.metrics.kv_imports += 1;
                        self.metrics.kv_import_rows += snap.rows as u64;
                    }
                }
                AdmissionVerdict::RejectOversize => {
                    let sub = self.pending.pop_front().expect("front exists");
                    sub.client
                        .deliver(RequestOutcome::Rejected(RejectReason::Oversize));
                    self.metrics.rejected += 1;
                }
                AdmissionVerdict::Defer => break,
            }
        }
    }

    /// Make `(p.seed, p.len)` resident: allocate its owner
    /// pseudo-request, append the prefix's KV rows directly (no prefill
    /// pass — the skip-prefill half of the radix win), and index its
    /// token sequence in the radix tree. Charges `p.len` tokens to
    /// `kv_used` exactly once, at creation. No-op when already resident.
    fn ensure_prefix_entry(&mut self, p: SharedPrefix) -> Result<(), String> {
        let key = (p.seed, p.len);
        if self.prefix_entries.contains_key(&key) {
            return Ok(());
        }
        let owner_id = PREFIX_OWNER_BASE + self.next_owner_id;
        self.next_owner_id += 1;
        self.pool
            .add_request(owner_id)
            .map_err(|e| format!("prefix owner: {e:?}"))?;
        let width = self.cfg.heads.kv_width();
        for pos in 0..p.len {
            let k = kv_row(p.seed, pos, width, false);
            let v = kv_row(p.seed, pos, width, true);
            match self.append_kv(owner_id, &k, &v) {
                AppendOutcome::Done => {}
                AppendOutcome::Failed(msg) => {
                    let _ = self.pool.remove_request(owner_id);
                    return Err(format!("prefix kv: {msg}"));
                }
            }
        }
        let pt = self
            .pool
            .page_table(owner_id)
            .map_err(|e| format!("prefix page table: {e}"))?;
        let tokens: Vec<u32> = (0..p.len).map(|i| prefix_token(p.seed, i)).collect();
        let slots: Vec<usize> = (0..p.len).map(|i| pt.slot_of(0, i)).collect();
        if let Err(e) = self.radix.insert(&tokens, &slots) {
            let _ = self.pool.remove_request(owner_id);
            return Err(format!("radix insert: {e:?}"));
        }
        let pmatch = self.radix.match_prefix(&tokens);
        debug_assert_eq!(pmatch.matched_tokens, p.len, "fresh insert must match");
        self.kv_used += p.len;
        self.prefix_entries.insert(
            key,
            PrefixEntry {
                owner_id,
                users: 0,
                pmatch,
                tokens,
            },
        );
        Ok(())
    }

    /// Under page pressure, drop idle (user-less) prefixes whose radix
    /// paths the LRU sweep reclaims, freeing their owners' pool pages.
    /// Locked paths — prefixes referenced by any admitted request,
    /// including members of a formed-but-unexecuted batch — survive by
    /// construction. True if any owner was freed.
    fn try_evict_idle_prefix(&mut self) -> bool {
        if self.prefix_entries.is_empty() {
            return false;
        }
        self.radix.evict_lru(self.cfg.page_size);
        let idle: Vec<(u64, usize)> = self
            .prefix_entries
            .iter()
            .filter(|(_, e)| e.users == 0)
            .map(|(k, _)| *k)
            .collect();
        let mut freed = false;
        for key in idle {
            let tokens = self.prefix_entries[&key].tokens.clone();
            if self.radix.match_prefix(&tokens).matched_tokens < key.1 {
                let e = self.prefix_entries.remove(&key).expect("key just listed");
                let _ = self.pool.remove_request(e.owner_id);
                self.kv_used = self.kv_used.saturating_sub(key.1);
                freed = true;
            }
        }
        freed
    }

    // -- preemption --------------------------------------------------------

    /// Victim index: the policy's pick among decoding sequences, falling
    /// back to the newest prefilling sequence under physical page
    /// pressure. `exclude` protects the request the eviction serves.
    fn pick_victim(&self, exclude: u64) -> Option<usize> {
        let decode: Vec<usize> = self
            .active
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a.phase, Phase::Decode) && a.sub.id != exclude)
            .map(|(i, _)| i)
            .collect();
        let branches = vec![1usize; decode.len()];
        if let Some(v) = policy::preemption_victim(&branches) {
            return Some(decode[v]);
        }
        self.active
            .iter()
            .enumerate()
            .rev()
            .find(|(_, a)| a.sub.id != exclude)
            .map(|(i, _)| i)
    }

    fn preempt(&mut self, idx: usize) {
        let mut a = self.active.remove(idx);
        self.kv_used = self.kv_used.saturating_sub(a.charged);
        a.charged = 0;
        a.staged = 0;
        a.preemptions += 1;
        self.metrics.serving.preemptions += 1;
        let swap_decode = matches!(a.phase, Phase::Decode)
            && matches!(self.cfg.engine.preemption, PreemptionPolicy::Swap);
        if swap_decode {
            a.swap = Some(self.swap_out(a.sub.id));
            self.metrics.swap_outs += 1;
        } else {
            // Partial prefills always recompute: their saved rows would
            // not be cheaper than regenerating them.
            a.swap = None;
        }
        // Recompute target counts *own* rows only — the shared prefix
        // stays resident under its owner (still locked by this request).
        let target = a.sub.spec.prompt_len - a.prefix_len() + a.outputs.len();
        a.phase = Phase::Prefill { done: 0, target };
        self.pool
            .remove_request(a.sub.id)
            .expect("victim is in the pool");
        self.preempted.push_back(a);
    }

    /// Copy a request's KV rows out of the pool (the "swap to host" of
    /// vLLM's Swap policy; `fi_kvcache::swap` models its cost). Rows come
    /// back at full width regardless of sharding.
    fn swap_out(&self, id: u64) -> SwapBuf {
        let rows = self.pool.request_rows(id).expect("victim in pool");
        SwapBuf {
            k: rows.k,
            v: rows.v,
            rows: rows.rows,
        }
    }

    /// Evict somebody other than `for_id` to free pages. False if no one
    /// else holds pages.
    fn evict_for(&mut self, for_id: u64) -> bool {
        match self.pick_victim(for_id) {
            Some(v) => {
                self.preempt(v);
                true
            }
            None => false,
        }
    }

    // -- KV appends --------------------------------------------------------

    /// Append one KV row, preempting other requests on physical page
    /// exhaustion. Fails only if the request cannot fit even alone.
    fn append_kv(&mut self, id: u64, k: &[f32], v: &[f32]) -> AppendOutcome {
        loop {
            let res = self.pool.append(id, k, v);
            match res {
                Ok(()) => return AppendOutcome::Done,
                Err(KvCacheError::OutOfPages { .. }) => {
                    // Idle prefixes go first — dropping dead cache beats
                    // preempting live work.
                    if !self.try_evict_idle_prefix() && !self.evict_for(id) {
                        return AppendOutcome::Failed(
                            "kv pool too small for this request alone".into(),
                        );
                    }
                }
                Err(e) => return AppendOutcome::Failed(format!("append: {e:?}")),
            }
        }
    }

    fn append_row(&mut self, id: u64, seed: u64, pos: usize) -> AppendOutcome {
        let width = self.cfg.heads.kv_width();
        let k = kv_row(seed, pos, width, false);
        let v = kv_row(seed, pos, width, true);
        self.append_kv(id, &k, &v)
    }

    /// Import a migrated snapshot's rows into `id`'s pages (the resumed
    /// leg of a disaggregated request). Row-by-row through the normal
    /// append path so narrowing to the storage dtype and page allocation
    /// behave exactly as a local prefill's appends would.
    fn import_snapshot(&mut self, id: u64, snap: &KvSnapshot) -> Result<(), String> {
        let width = self.cfg.heads.kv_width();
        for (k, v) in snap
            .k
            .chunks_exact(width)
            .zip(snap.v.chunks_exact(width))
            .take(snap.rows)
        {
            match self.append_kv(id, k, v) {
                AppendOutcome::Done => {}
                AppendOutcome::Failed(msg) => return Err(format!("kv import: {msg}")),
            }
        }
        Ok(())
    }

    // -- the step ----------------------------------------------------------

    fn index_of(&self, id: u64) -> Option<usize> {
        self.active.iter().position(|a| a.sub.id == id)
    }

    fn fail(&mut self, id: u64, msg: String) {
        if let Some(i) = self.index_of(id) {
            let a = self.active.remove(i);
            self.release(&a);
            self.finish_active(a, RequestOutcome::Cancelled(CancelReason::Failed(msg)));
            self.metrics.cancelled += 1;
        }
    }

    /// Retire a prefill-only request at the prefill/decode boundary:
    /// read its rows out of the pool (before releasing the pages), send
    /// the [`KvSnapshot`] to the handle, then complete the request with
    /// zero outputs. The snapshot send happens-before the outcome
    /// delivery, which is what lets a poller that saw `Completed` call
    /// [`RequestHandle::take_snapshot`] without blocking. Counts toward
    /// `serving.completed` (so reconciliation holds) but contributes no
    /// TTFT sample and no tenant completion — the decode replica owns
    /// the request's latency story.
    fn export_prefill_only(&mut self, i: usize) {
        let a = self.active.remove(i);
        match self.pool.request_rows(a.sub.id) {
            Ok(rows) => {
                let snap = KvSnapshot {
                    seed: a.sub.spec.seed,
                    rows: rows.rows,
                    kv_width: self.cfg.heads.kv_width(),
                    kv_dtype: self.pool.kv_dtype(),
                    k: rows.k,
                    v: rows.v,
                };
                self.metrics.kv_exports += 1;
                self.metrics.kv_export_rows += snap.rows as u64;
                a.sub.client.send_snapshot(snap);
                self.release(&a);
                let preemptions = a.preemptions;
                self.finish_active(
                    a,
                    RequestOutcome::Completed(CompletedRequest {
                        outputs: Vec::new(),
                        ttft: 0.0,
                        itl: Vec::new(),
                        preemptions,
                    }),
                );
                self.metrics.serving.completed += 1;
            }
            Err(e) => {
                self.release(&a);
                self.finish_active(
                    a,
                    RequestOutcome::Cancelled(CancelReason::Failed(format!("kv export: {e:?}"))),
                );
                self.metrics.cancelled += 1;
            }
        }
    }

    /// Run one iteration batch. False when no unit could be formed (all
    /// runnable work is stalled on stream backpressure) — the caller
    /// yields instead of spinning.
    fn step(&mut self) -> bool {
        if self.active.is_empty() {
            return true;
        }
        self.stage_prefill_appends();
        let (units, failures) = self.build_units();
        for (id, msg) in failures {
            self.fail(id, msg);
        }
        if units.is_empty() {
            return false;
        }
        let n: usize = units.iter().map(|u| u.result_count()).sum();
        for u in units {
            let w = self.rr % self.worker_tx.len();
            self.rr += 1;
            self.worker_tx[w].send(u).expect("worker pool alive");
        }
        let results: Vec<WorkResult> = {
            let rx = self.results_rx.as_ref().expect("workers spawned");
            (0..n)
                .map(|_| rx.recv().expect("worker pool died mid-step"))
                .collect()
        };
        self.metrics.serving.steps += 1;
        for r in results {
            self.process_result(r);
        }
        self.enforce_optimistic_capacity();
        true
    }

    /// Write this step's prefill chunks into the pool, under the shared
    /// Sarathi budget.
    fn stage_prefill_appends(&mut self) {
        for a in &mut self.active {
            a.staged = 0;
        }
        let (ids, remaining): (Vec<u64>, Vec<usize>) = self
            .active
            .iter()
            .filter_map(|a| match a.phase {
                Phase::Prefill { done, target } => Some((a.sub.id, target - done)),
                Phase::Decode => None,
            })
            .unzip();
        let chunks = policy::prefill_chunks(self.cfg.engine.chunked_prefill_budget, &remaining);
        for (&id, &chunk) in ids.iter().zip(chunks.iter()) {
            if chunk == 0 {
                continue;
            }
            // An earlier append this step may have preempted this request.
            let Some(i) = self.index_of(id) else { continue };
            let (seed, done, base) = {
                let a = &self.active[i];
                match a.phase {
                    // Own-row index `done + j` holds global position
                    // `base + done + j` — past the shared prefix, so the
                    // request's own stream applies.
                    Phase::Prefill { done, .. } => (a.sub.spec.seed, done, a.prefix_len()),
                    Phase::Decode => continue,
                }
            };
            let mut ok = true;
            for pos in done..done + chunk {
                // The request may also preempt *itself* only via evict_for
                // exclusion rules — it cannot; a Failed outcome means it
                // can never fit.
                match self.append_row(id, seed, base + pos) {
                    AppendOutcome::Done => {}
                    AppendOutcome::Failed(msg) => {
                        self.fail(id, msg);
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if let Some(i) = self.index_of(id) {
                    self.active[i].staged = chunk;
                }
            }
        }
    }

    /// Build this step's work units, each carrying its page table so the
    /// worker's execute path takes no lock. The tables snapshot the exact
    /// pool state the step runs against: all of this step's appends are
    /// staged before any unit is dispatched, and the scheduler does not
    /// mutate the pool again until every result is back.
    ///
    /// Shared-prefix decodes never run as plain batch-of-one units: they
    /// group by radix node (first-appearance order) and lower through
    /// [`Scheduler::lower_group`] into cascade launches — fused when the
    /// cost gate approves, single-member otherwise, bit-identical either
    /// way.
    fn build_units(&mut self) -> (Vec<WorkUnit>, Vec<(u64, String)>) {
        let qo_w = self.cfg.heads.qo_width();
        let mut units = Vec::new();
        let mut failures = Vec::new();
        let mut stalls = 0u64;
        let mut groups: Vec<(usize, SharedPrefix, Vec<GroupMember>)> = Vec::new();
        for a in &self.active {
            // Client-side backpressure: a decode whose stream channel is
            // full would only deepen the backlog — sit this step out. The
            // request stays admitted (its KV stays resident), so it
            // resumes the moment the client reads.
            if matches!(a.phase, Phase::Decode) && a.stream.as_ref().is_some_and(|s| s.stalled()) {
                stalls += 1;
                continue;
            }
            match a.phase {
                Phase::Prefill { done, .. } => {
                    if a.staged == 0 {
                        continue;
                    }
                    let base = a.prefix_len();
                    let q: Vec<f32> = (base + done..base + done + a.staged)
                        .flat_map(|p| q_row(a.sub.spec.seed, p, qo_w))
                        .collect();
                    match self.prefill_table(a) {
                        Ok(pt) => units.push(WorkUnit::Single(SingleUnit {
                            req_id: a.sub.id,
                            token_index: None,
                            qo_len: a.staged,
                            kv_len: base + done + a.staged,
                            q,
                            pt,
                        })),
                        Err(e) => failures.push((a.sub.id, e)),
                    }
                }
                Phase::Decode => {
                    let t = a.outputs.len();
                    let pos = a.sub.spec.prompt_len + t;
                    let q = q_row(a.sub.spec.seed, pos, qo_w);
                    let pt = match self.pool.page_table(a.sub.id) {
                        Ok(pt) => pt,
                        Err(e) => {
                            failures.push((a.sub.id, format!("page table: {e}")));
                            continue;
                        }
                    };
                    match a.prefix {
                        None => units.push(WorkUnit::Single(SingleUnit {
                            req_id: a.sub.id,
                            token_index: Some(t),
                            qo_len: 1,
                            kv_len: pos,
                            q,
                            pt,
                        })),
                        Some(p) => {
                            let member = GroupMember {
                                req_id: a.sub.id,
                                token_index: t,
                                kv_len: pos,
                                q,
                                pt,
                            };
                            let node = self.prefix_entries[&(p.seed, p.len)].pmatch.node_id();
                            match groups.iter_mut().find(|(n, _, _)| *n == node) {
                                Some((_, _, ms)) => ms.push(member),
                                None => groups.push((node, p, vec![member])),
                            }
                        }
                    }
                }
            }
        }
        for (_, p, members) in groups {
            self.lower_group(p, members, &mut units, &mut failures);
        }
        self.metrics.stream_stalls += stalls;
        (units, failures)
    }

    /// Page table a prefix request's prefill unit runs against: the
    /// owner's prefix pages (all full — the effective length is
    /// page-aligned) followed by the request's own pages. Plain requests
    /// use their own table unchanged.
    fn prefill_table(&self, a: &Active) -> Result<PageTable, String> {
        let own = self
            .pool
            .page_table(a.sub.id)
            .map_err(|e| format!("page table: {e}"))?;
        let Some(p) = a.prefix else { return Ok(own) };
        let entry = &self.prefix_entries[&(p.seed, p.len)];
        let owner = self
            .pool
            .page_table(entry.owner_id)
            .map_err(|e| format!("prefix page table: {e}"))?;
        let ps = self.cfg.page_size;
        let mut pages = owner.request_pages(0).to_vec();
        pages.extend_from_slice(own.request_pages(0));
        let last = own.kv_len(0) - (own.request_pages(0).len() - 1) * ps;
        PageTable::new(ps, self.cfg.num_pages, vec![pages], vec![last])
            .map_err(|e| format!("prefill table: {e:?}"))
    }

    /// Lower one shared-prefix decode group: a fused multi-member
    /// cascade when the mode is `Auto` and the cost model says staging
    /// the prefix once beats the flat path, single-member cascades
    /// otherwise. Either lowering produces bit-identical outputs — the
    /// gate decides staging traffic, not results.
    fn lower_group(
        &mut self,
        p: SharedPrefix,
        members: Vec<GroupMember>,
        units: &mut Vec<WorkUnit>,
        failures: &mut Vec<(u64, String)>,
    ) {
        let owner_id = self.prefix_entries[&(p.seed, p.len)].owner_id;
        let owner_pt = match self.pool.page_table(owner_id) {
            Ok(pt) => pt,
            Err(e) => {
                let msg = format!("prefix page table: {e}");
                for m in members {
                    failures.push((m.req_id, msg.clone()));
                }
                return;
            }
        };
        let g = members.len();
        let suffix_kvs: Vec<usize> = members.iter().map(|m| m.kv_len - p.len).collect();
        let auto = self.cascade == CascadeMode::Auto;
        if auto && self.exec_ctx.cascade_beats_flat(p.len, &suffix_kvs) {
            let pipe = &mut self.metrics.serving.pipeline;
            pipe.cascade_groups += 1;
            pipe.cascade_levels += 2;
            // The fused launch gathers the prefix once instead of once
            // per member.
            pipe.cascade_gather_rows_saved += ((g - 1) * p.len) as u64;
            units.push(WorkUnit::Group(GroupUnit {
                members,
                owner_pt,
                prefix_len: p.len,
            }));
        } else {
            if auto && g >= 2 {
                self.metrics.serving.pipeline.cascade_flat_fallbacks += 1;
            }
            for m in members {
                units.push(WorkUnit::Group(GroupUnit {
                    members: vec![m],
                    owner_pt: owner_pt.clone(),
                    prefix_len: p.len,
                }));
            }
        }
    }

    fn process_result(&mut self, r: WorkResult) {
        if let Some(err) = r.err {
            self.fail(r.req_id, err.to_string());
            return;
        }
        let Some(i) = self.index_of(r.req_id) else {
            return;
        };
        match r.token_index {
            None => {
                // Prefill chunk retired.
                let a = &mut self.active[i];
                if let Phase::Prefill { done, target } = a.phase {
                    let nd = done + a.staged;
                    a.staged = 0;
                    if nd >= target {
                        if matches!(a.sub.mode, SubmitMode::PrefillOnly) {
                            // Disaggregated prefill leg: export at the
                            // prefill/decode boundary instead of decoding.
                            self.export_prefill_only(i);
                            return;
                        }
                        a.phase = Phase::Decode;
                    } else {
                        a.phase = Phase::Prefill { done: nd, target };
                    }
                }
            }
            Some(t) => {
                let now = Instant::now();
                let a = &mut self.active[i];
                debug_assert_eq!(t, a.outputs.len(), "decode results must arrive in order");
                let tenant = a.sub.spec.tenant;
                if let Some(s) = a.stream.as_mut() {
                    s.push(StreamItem::Token {
                        index: t,
                        row: r.out.clone(),
                    });
                }
                a.outputs.push(r.out);
                if a.first_token_at.is_none() {
                    a.first_token_at = Some(now);
                    let ttft = now.duration_since(a.sub.submitted_at).as_secs_f64();
                    self.metrics.serving.ttft.push(ttft);
                    self.tenant_ttft.entry(tenant).or_default().push(ttft);
                } else if let Some(last) = a.last_token_at {
                    let d = now.duration_since(last).as_secs_f64();
                    a.itl.push(d);
                    self.metrics.itl_histogram.record(d);
                    self.tenant_itl.entry(tenant).or_default().record(d);
                }
                a.last_token_at = Some(now);
                self.metrics.serving.tokens_generated += 1;
                let seed = a.sub.spec.seed;
                let pos = a.sub.spec.prompt_len + t;
                let finished = a.outputs.len() >= a.sub.spec.output_len;
                if finished {
                    let mut a = self.active.remove(i);
                    self.release(&a);
                    let ttft = a
                        .first_token_at
                        .map(|f| f.duration_since(a.sub.submitted_at).as_secs_f64())
                        .unwrap_or(0.0);
                    let outcome = RequestOutcome::Completed(CompletedRequest {
                        outputs: std::mem::take(&mut a.outputs),
                        ttft,
                        itl: std::mem::take(&mut a.itl),
                        preemptions: a.preemptions,
                    });
                    self.finish_active(a, outcome);
                    self.metrics.serving.completed += 1;
                    *self.tenant_completed.entry(tenant).or_default() += 1;
                } else {
                    // Append the generated token's KV row so the next
                    // decode step sees it.
                    match self.append_row(r.req_id, seed, pos) {
                        AppendOutcome::Done => {
                            if self.cfg.engine.optimistic_admission {
                                if let Some(i) = self.index_of(r.req_id) {
                                    self.active[i].charged += 1;
                                    self.kv_used += 1;
                                }
                            }
                        }
                        AppendOutcome::Failed(msg) => self.fail(r.req_id, msg),
                    }
                }
            }
        }
    }

    /// The simulator's optimistic-overflow rule: while reservations
    /// exceed capacity, preempt the policy's victim.
    fn enforce_optimistic_capacity(&mut self) {
        if !self.cfg.engine.optimistic_admission {
            return;
        }
        while self.kv_used > self.cfg.engine.kv_capacity_tokens {
            match self.pick_victim(u64::MAX) {
                Some(v) => self.preempt(v),
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_cfg() -> RuntimeConfig {
        RuntimeConfig {
            num_workers: 2,
            ..RuntimeConfig::default()
        }
    }

    fn with_precision(precision: KvPrecision) -> RuntimeOptions {
        RuntimeOptions {
            precision,
            ..RuntimeOptions::default()
        }
    }

    /// A full-lifecycle submission streaming into a fresh bounded channel.
    fn stream_request(
        rt: &Runtime,
        req: RuntimeRequest,
        capacity: usize,
    ) -> (RequestHandle, Receiver<StreamItem>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        let opts = SubmitOptions {
            stream: Some(tx),
            ..SubmitOptions::default()
        };
        (rt.submit_with(req, opts), rx)
    }

    #[test]
    fn single_request_completes() {
        let rt = Runtime::start(tiny_cfg()).unwrap();
        let h = rt.submit(RuntimeRequest::new(12, 5, 7));
        let out = h.wait().completed().expect("completes");
        assert_eq!(out.outputs.len(), 5);
        let w = RuntimeConfig::default().heads.qo_width();
        assert!(out.outputs.iter().all(|row| row.len() == w));
        assert!(out.ttft > 0.0);
        let m = rt.finish();
        assert_eq!(m.completed(), 1);
        assert_eq!(m.submitted, 1);
        assert!(m.reconciles());
        assert!(m.kv_pool_drained());
        assert!(m.serving.pipeline.kernel_flops > 0);
        assert!(m.serving.pipeline.gather_rows > 0);
    }

    #[test]
    fn oversize_request_rejected() {
        let mut cfg = tiny_cfg();
        cfg.engine.kv_capacity_tokens = 32;
        let rt = Runtime::start(cfg).unwrap();
        let h = rt.submit(RuntimeRequest::new(100, 10, 1));
        assert_eq!(h.wait(), RequestOutcome::Rejected(RejectReason::Oversize));
        let m = rt.finish();
        assert_eq!(m.rejected, 1);
        assert!(m.reconciles());
    }

    #[test]
    fn cancelled_before_service() {
        let rt = Runtime::start(tiny_cfg()).unwrap();
        // A long-running request keeps the scheduler busy so the second
        // one sits in the queue long enough to observe its cancel flag.
        let _busy = rt.submit(RuntimeRequest::new(64, 50, 1));
        let h = rt.submit(RuntimeRequest::new(8, 400, 2));
        h.cancel();
        match h.wait() {
            RequestOutcome::Cancelled(CancelReason::User) | RequestOutcome::Completed(_) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        let m = rt.finish();
        assert!(m.reconciles());
        assert!(m.kv_pool_drained());
    }

    #[test]
    fn deadline_in_the_past_cancels() {
        let rt = Runtime::start(tiny_cfg()).unwrap();
        let h =
            rt.submit(RuntimeRequest::new(1000, 4000, 3).with_deadline(Duration::from_millis(0)));
        assert_eq!(h.wait(), RequestOutcome::Cancelled(CancelReason::Deadline));
        let m = rt.finish();
        assert_eq!(m.cancelled, 1);
        assert!(m.reconciles());
        assert!(m.kv_pool_drained());
    }

    #[test]
    fn tensor_parallel_worker_pool_completes_with_comm_traffic() {
        let cfg = RuntimeConfig {
            num_workers: 2,
            tensor_parallel: 2,
            heads: HeadConfig::new(4, 2, 16).unwrap(),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::start(cfg).unwrap();
        let h = rt.submit(RuntimeRequest::new(12, 5, 7));
        let out = h.wait().completed().expect("completes");
        assert_eq!(out.outputs.len(), 5);
        assert!(out.outputs.iter().all(|row| row.len() == 4 * 16));
        let m = rt.finish();
        assert_eq!(m.completed(), 1);
        assert!(m.reconciles());
        assert!(m.kv_pool_drained());
        assert_eq!(m.tensor_parallel, 2);
        assert!(m.comm.all_gathers > 0, "collectives should be counted");
        assert!(m.comm.total_bytes() > 0, "collective bytes should surface");
    }

    #[test]
    fn unshardable_heads_rejected_at_start() {
        // The default head config has a single KV head: tp=2 must error
        // clearly, not misalign.
        let cfg = RuntimeConfig {
            tensor_parallel: 2,
            ..RuntimeConfig::default()
        };
        let err = match Runtime::start(cfg) {
            Err(e) => e,
            Ok(_) => panic!("1 KV head cannot shard 2 ways"),
        };
        assert!(err.to_string().contains("KV head"), "{err}");
    }

    #[test]
    fn reduced_precision_kv_serves_requests() {
        for (precision, dtype_name) in [
            (KvPrecision::of(KvDtype::F16), "f16"),
            (
                KvPrecision {
                    dtype: KvDtype::Fp8E4M3,
                    fp8_kv_scale: 0.5,
                },
                "f8e4m3",
            ),
        ] {
            let rt = Runtime::start_with(tiny_cfg(), with_precision(precision)).unwrap();
            let h = rt.submit(RuntimeRequest::new(12, 5, 7));
            let out = h.wait().completed().expect("completes");
            assert_eq!(out.outputs.len(), 5);
            let m = rt.finish();
            assert_eq!(m.completed(), 1);
            assert!(m.reconciles());
            assert!(m.kv_pool_drained());
            assert_eq!(m.kv_dtype, dtype_name);
        }
    }

    #[test]
    fn full_precision_reports_f32_dtype() {
        let rt = Runtime::start(tiny_cfg()).unwrap();
        let h = rt.submit(RuntimeRequest::new(4, 2, 3));
        h.wait().completed().expect("completes");
        assert_eq!(rt.finish().kv_dtype, "f32");
    }

    #[test]
    fn reduced_precision_rejected_under_tensor_parallel() {
        let cfg = RuntimeConfig {
            tensor_parallel: 2,
            heads: HeadConfig::new(4, 2, 16).unwrap(),
            ..RuntimeConfig::default()
        };
        assert!(Runtime::start_with(cfg, with_precision(KvPrecision::of(KvDtype::F16))).is_err());
    }

    #[test]
    fn fp8_scale_must_be_finite_and_positive() {
        for bad in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let p = KvPrecision {
                dtype: KvDtype::Fp8E4M3,
                fp8_kv_scale: bad,
            };
            assert!(
                Runtime::start_with(tiny_cfg(), with_precision(p)).is_err(),
                "scale {bad}"
            );
        }
    }

    #[test]
    fn shared_prefix_requests_complete_and_group() {
        // Eight sessions over one 64-token (page-aligned) shared prompt:
        // the prefix is stored once, decodes fuse into cascade groups
        // whenever several sessions are co-resident, and every session
        // still completes with full-width outputs.
        let cfg = RuntimeConfig {
            num_workers: 2,
            heads: HeadConfig::new(4, 2, 8).unwrap(),
            ..RuntimeConfig::default()
        };
        let qo_w = cfg.heads.qo_width();
        let rt = Runtime::start(cfg).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| rt.submit(RuntimeRequest::new(72, 24, 100 + i).with_shared_prefix(9, 64)))
            .collect();
        for h in handles {
            let out = h.wait().completed().expect("completes");
            assert_eq!(out.outputs.len(), 24);
            assert!(out.outputs.iter().all(|row| row.len() == qo_w));
        }
        let m = rt.finish();
        assert_eq!(m.completed(), 8);
        assert!(m.reconciles());
        assert!(m.kv_pool_drained(), "prefix owners must drain");
        assert!(
            m.serving.pipeline.cascade_groups > 0,
            "co-resident sharers should fuse at least once"
        );
        assert_eq!(
            m.serving.pipeline.cascade_levels,
            2 * m.serving.pipeline.cascade_groups
        );
        assert!(m.serving.pipeline.cascade_gather_rows_saved > 0);
    }

    #[test]
    fn cascade_off_serves_prefix_requests_without_fusing() {
        let cfg = RuntimeConfig {
            num_workers: 2,
            heads: HeadConfig::new(4, 2, 8).unwrap(),
            ..RuntimeConfig::default()
        };
        let opts = RuntimeOptions {
            cascade: CascadeMode::Off,
            ..RuntimeOptions::default()
        };
        let rt = Runtime::start_with(cfg, opts).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|i| rt.submit(RuntimeRequest::new(40, 8, 200 + i).with_shared_prefix(9, 32)))
            .collect();
        for h in handles {
            assert_eq!(h.wait().completed().expect("completes").outputs.len(), 8);
        }
        let m = rt.finish();
        assert_eq!(m.completed(), 4);
        assert!(m.kv_pool_drained());
        assert_eq!(m.serving.pipeline.cascade_groups, 0, "Off must never fuse");
        assert_eq!(m.serving.pipeline.cascade_flat_fallbacks, 0);
    }

    #[test]
    fn prefix_rejected_under_tensor_parallel() {
        let cfg = RuntimeConfig {
            tensor_parallel: 2,
            heads: HeadConfig::new(4, 2, 16).unwrap(),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::start(cfg).unwrap();
        let h = rt.submit(RuntimeRequest::new(24, 4, 7).with_shared_prefix(9, 16));
        assert_eq!(
            h.wait(),
            RequestOutcome::Rejected(RejectReason::PrefixUnsupported)
        );
        // Plain requests still serve.
        let ok = rt.submit(RuntimeRequest::new(12, 3, 8));
        assert_eq!(ok.wait().completed().expect("completes").outputs.len(), 3);
        let m = rt.finish();
        assert_eq!(m.completed(), 1);
        assert_eq!(m.rejected, 1);
        assert!(m.reconciles());
    }

    /// Every representable `(leg, stream?)` pair of [`SubmitOptions`]:
    /// decoding legs produce the bits a plain `submit` does (on the
    /// handle and, if asked, on the stream), the prefill-only leg exports
    /// its snapshot *before* its outcome, and the one meaningless pair is
    /// rejected at the gate.
    #[test]
    fn every_leg_and_stream_pair_matches_plain_submit() {
        let (prompt, out_len, seed) = (13usize, 6usize, 7u64);
        let req = RuntimeRequest::new(prompt, out_len, seed);
        let w = RuntimeConfig::default().heads.kv_width();

        let rt = Runtime::start(tiny_cfg()).unwrap();
        let reference = rt.submit(req).wait().completed().expect("completes");
        assert_eq!(reference.outputs.len(), out_len);
        rt.finish();

        // What the prefill-only row exports is what the resume rows import.
        let mut exported: Option<KvSnapshot> = None;

        for name in ["full", "prefill-only", "resume"] {
            for streaming in [false, true] {
                let row = format!("{name} leg, streaming={streaming}");
                let leg = match name {
                    "full" => SubmitMode::Full,
                    "prefill-only" => SubmitMode::PrefillOnly,
                    _ => SubmitMode::Resume(exported.clone().expect("prefill-only row ran")),
                };
                let decodes = !matches!(leg, SubmitMode::PrefillOnly);
                let resumes = matches!(leg, SubmitMode::Resume(_));
                let rt = Runtime::start(tiny_cfg()).unwrap();
                let (stream, rx) = if streaming {
                    let (tx, rx) = mpsc::sync_channel(2);
                    (Some(tx), Some(rx))
                } else {
                    (None, None)
                };
                let h = rt.submit_with(req, SubmitOptions { stream, leg });

                let mut streamed: Vec<Vec<f32>> = Vec::new();
                let mut done = None;
                for item in rx.into_iter().flatten() {
                    match item {
                        StreamItem::Token { index, row } => {
                            assert_eq!(index, streamed.len(), "tokens arrive in order");
                            streamed.push(row);
                        }
                        StreamItem::Done(o) => done = Some(o),
                    }
                }
                let outcome = loop {
                    match h.try_wait() {
                        Some(o) => break o,
                        None => std::thread::sleep(Duration::from_micros(100)),
                    }
                };
                // No waiting between the outcome and this poll: a snapshot
                // sent after the outcome would be missed.
                let snap = h.take_snapshot();
                let m = rt.finish();
                assert!(m.reconciles(), "{row}");
                assert!(m.kv_pool_drained(), "{row}");

                if !decodes && streaming {
                    let rejected = RequestOutcome::Rejected(RejectReason::UnsupportedOptions);
                    assert_eq!(outcome, rejected, "{row}");
                    assert_eq!(done, Some(rejected), "{row}: the stream is told too");
                    assert!(streamed.is_empty() && snap.is_none(), "{row}");
                    assert_eq!((m.rejected, m.kv_exports), (1, 0), "{row}");
                    continue;
                }
                let out = outcome.completed().expect("completes");
                assert_eq!(m.completed(), 1, "{row}");
                if decodes {
                    assert_eq!(out.outputs, reference.outputs, "{row}: handle rows");
                    assert!(snap.is_none(), "{row}: only prefill legs export");
                    assert_eq!(m.kv_exports, 0, "{row}");
                    assert_eq!(m.kv_imports, u64::from(resumes), "{row}");
                    assert_eq!(m.kv_import_rows, if resumes { prompt as u64 } else { 0 });
                    if streaming {
                        assert_eq!(streamed, reference.outputs, "{row}: streamed rows");
                        assert!(matches!(done, Some(RequestOutcome::Completed(_))), "{row}");
                    }
                } else {
                    assert!(
                        out.outputs.is_empty(),
                        "{row}: a prefill leg decodes nothing"
                    );
                    let snap = snap.expect("snapshot is sent before the outcome");
                    assert_eq!((snap.rows, snap.seed, snap.kv_width), (prompt, seed, w));
                    assert_eq!(snap.kv_dtype, KvDtype::F32);
                    assert_eq!(snap.transfer_bytes(), 2 * prompt * w * 4);
                    for pos in 0..prompt {
                        assert_eq!(snap.k[pos * w..(pos + 1) * w], kv_row(seed, pos, w, false));
                        assert_eq!(snap.v[pos * w..(pos + 1) * w], kv_row(seed, pos, w, true));
                    }
                    assert_eq!((m.kv_exports, m.kv_export_rows), (1, prompt as u64));
                    assert!(m.serving.ttft.is_empty(), "prefill leg emits no TTFT");
                    exported = Some(snap);
                }
            }
        }
    }

    #[test]
    fn mismatched_snapshot_rejected() {
        let rt = Runtime::start(tiny_cfg()).unwrap();
        let w = RuntimeConfig::default().heads.kv_width();
        // Wrong row count for the declared prompt.
        let snap = KvSnapshot {
            seed: 7,
            rows: 4,
            kv_width: w,
            kv_dtype: KvDtype::F32,
            k: vec![0.0; 4 * w],
            v: vec![0.0; 4 * w],
        };
        let leg = |leg| SubmitOptions {
            leg,
            ..SubmitOptions::default()
        };
        let h = rt.submit_with(RuntimeRequest::new(9, 3, 7), leg(SubmitMode::Resume(snap)));
        assert_eq!(
            h.wait(),
            RequestOutcome::Rejected(RejectReason::SnapshotMismatch)
        );
        // Prefix requests cannot ride the migration legs.
        let ph = rt.submit_with(
            RuntimeRequest::new(24, 4, 7).with_shared_prefix(9, 16),
            leg(SubmitMode::PrefillOnly),
        );
        assert_eq!(
            ph.wait(),
            RequestOutcome::Rejected(RejectReason::PrefixUnsupported)
        );
        let m = rt.finish();
        assert_eq!(m.rejected, 2);
        assert!(m.reconciles());
    }

    #[test]
    fn tiny_prefix_with_unaligned_tail_runs_plain() {
        // Declared prefix 3 with page size 4 rounds to zero: the request
        // must fall back to the plain path and still complete.
        let rt = Runtime::start(tiny_cfg()).unwrap();
        let h = rt.submit(RuntimeRequest::new(10, 4, 5).with_shared_prefix(9, 3));
        assert_eq!(h.wait().completed().expect("completes").outputs.len(), 4);
        let m = rt.finish();
        assert_eq!(m.completed(), 1);
        assert!(m.kv_pool_drained());
        assert_eq!(m.serving.pipeline.cascade_groups, 0);
    }

    #[test]
    fn full_stream_channel_stalls_but_never_drops_tokens() {
        // Capacity 1 with a slow reader: the scheduler must pause that
        // request's decode instead of dropping or blocking, and every
        // token must still arrive.
        let rt = Runtime::start(tiny_cfg()).unwrap();
        let (h, rx) = stream_request(&rt, RuntimeRequest::new(8, 12, 3), 1);
        let mut n = 0;
        for item in rx {
            if matches!(item, StreamItem::Token { .. }) {
                n += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert_eq!(n, 12);
        assert!(h.wait().is_completed());
        let m = rt.finish();
        assert!(m.stream_stalls > 0, "a capacity-1 channel must stall");
        assert!(m.reconciles());
        assert!(m.kv_pool_drained());
    }

    #[test]
    fn dropped_stream_receiver_cancels_and_frees_pages() {
        let rt = Runtime::start(tiny_cfg()).unwrap();
        let (h, rx) = stream_request(&rt, RuntimeRequest::new(8, 1500, 5), 1);
        // Read one token so the request is mid-generation, then walk away.
        let first = rx.recv().expect("first token");
        assert!(matches!(first, StreamItem::Token { index: 0, .. }));
        drop(rx);
        assert_eq!(
            h.wait(),
            RequestOutcome::Cancelled(CancelReason::StreamDropped)
        );
        let m = rt.finish();
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.stream_dropped, 1);
        assert!(m.reconciles());
        assert!(m.kv_pool_drained(), "dropped stream must free its pages");
    }

    #[test]
    fn tenant_tags_surface_per_tenant_latency() {
        let rt = Runtime::start(tiny_cfg()).unwrap();
        let handles: Vec<_> = (0..6)
            .map(|i| rt.submit(RuntimeRequest::new(8, 4, 50 + i).with_tenant(1 + (i % 2) as u32)))
            .collect();
        for h in handles {
            assert!(h.wait().is_completed());
        }
        let m = rt.finish();
        assert_eq!(m.tenants.len(), 2);
        for t in [1u32, 2] {
            let tl = m.tenant(t).expect("tenant present");
            assert_eq!(tl.completed, 3);
            assert_eq!(tl.latency.ttft.count, 3);
            assert!(tl.latency.ttft.p99 >= tl.latency.ttft.p50);
        }
        assert!(m.tenant(9).is_none());
        assert_eq!(m.latency.ttft.count, 6, "whole-run digest covers all");
    }

    #[test]
    fn invalid_configs_rejected() {
        for cfg in [
            RuntimeConfig {
                num_workers: 0,
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                queue_capacity: 0,
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                tensor_parallel: 0,
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                engine: EngineConfig {
                    chunked_prefill_budget: Some(0),
                    ..RuntimeConfig::default().engine
                },
                ..RuntimeConfig::default()
            },
        ] {
            assert!(Runtime::start(cfg).is_err());
        }
    }
}
