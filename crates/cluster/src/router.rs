//! The cluster's placement engine: a front gate handing submissions to a
//! single engine thread that owns N [`fi_runtime::Runtime`] replicas.
//!
//! Placement is radix-aware: a request declaring a
//! [`fi_runtime::SharedPrefix`] sticks to the replica that already holds
//! that prefix (so the runtime's cascade grouping keeps working — the
//! prefix KV is resident and shared there, nowhere else), falling back
//! to least-outstanding-tokens balancing with a per-replica in-flight
//! cap as backpressure. The policy itself is
//! [`fi_serving::policy::place_replica`] — the same pure function unit
//! tests exercise.
//!
//! In disaggregated mode, plain requests run their prefill on a
//! [`ReplicaRole::Prefill`] replica, which exports the finished KV pages
//! as a [`KvSnapshot`]; the engine prices the transfer over a simulated
//! link ([`fi_dist::GpuSimCommCost`], one broadcast traversal of the
//! storage-dtype bytes) and resumes the request on a
//! [`ReplicaRole::Decode`] replica as a [`SubmitMode::Resume`] leg. The
//! happens-before story is plain channel causality: the prefill replica's
//! scheduler sends the snapshot before it delivers the leg's outcome (see
//! [`RequestHandle`]), the engine observes the outcome only after both are
//! enqueued, and the decode replica imports the snapshot before its first
//! decode step — so the resumed leg always sees exactly the bytes the
//! prefill leg wrote, and outputs stay bit-identical to single-runtime
//! execution.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fi_dist::{CollectiveOp, CommCost, GpuSimCommCost};
use fi_runtime::{
    CancelReason, ClientEnd, KvSnapshot, RejectReason, RequestHandle, RequestOutcome, Runtime,
    RuntimeMetrics, RuntimeOptions, RuntimeRequest, SubmitMode, SubmitOptions,
};
use fi_serving::policy::{place_replica, ReplicaLoad};

use crate::config::{ClusterConfig, ReplicaRole};
use crate::metrics::{ClusterMetrics, ReplicaReport};

/// Why the cluster could not start.
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration is unusable (or a replica failed to start).
    InvalidConfig(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InvalidConfig(m) => write!(f, "invalid cluster config: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Engine poll interval while work is in flight.
const TICK: Duration = Duration::from_micros(200);

/// Point-in-time load view of one replica (the balancing signal, plus
/// drain state), for observability and drain/failover tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Replica index in the cluster configuration.
    pub replica: usize,
    /// The replica's configured role.
    pub role: ReplicaRole,
    /// True once [`ClusterRouter::drain`] targeted this replica.
    pub draining: bool,
    /// Requests (or legs) currently in flight here.
    pub in_flight: usize,
    /// Outstanding token load (prompt + remaining output reservations).
    pub outstanding_tokens: usize,
}

/// State the engine publishes for [`ClusterRouter::health`] and
/// [`ClusterRouter::affinity_of`].
struct Shared {
    roles: Vec<ReplicaRole>,
    draining: Vec<AtomicBool>,
    in_flight: Vec<AtomicUsize>,
    outstanding: Vec<AtomicUsize>,
    affinity: Mutex<HashMap<(u64, usize), usize>>,
}

struct ClusterSubmission {
    req: RuntimeRequest,
    /// Kept by the engine until the request resolves. Its token channel
    /// is withheld until the request reaches the replica that will decode
    /// it (for migrated requests: the resumed leg, not the prefill leg).
    client: ClientEnd,
    leg: SubmitMode,
}

enum Command {
    Submit(ClusterSubmission),
    Drain(usize),
}

/// Multi-replica front door: owns the replica runtimes and places every
/// accepted request (see the module docs for the policy).
pub struct ClusterRouter {
    tx: Option<Sender<Command>>,
    engine: Option<JoinHandle<ClusterMetrics>>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
}

impl ClusterRouter {
    /// Start every replica runtime and the placement engine thread.
    pub fn start(cfg: ClusterConfig) -> Result<ClusterRouter, ClusterError> {
        cfg.validate().map_err(ClusterError::InvalidConfig)?;
        let mut replicas = Vec::with_capacity(cfg.replicas.len());
        for rc in &cfg.replicas {
            let opts = RuntimeOptions {
                precision: rc.precision,
                ..RuntimeOptions::default()
            };
            let rt = Runtime::start_with(rc.runtime.clone(), opts)
                .map_err(|e| ClusterError::InvalidConfig(e.to_string()))?;
            replicas.push(Replica {
                runtime: Some(rt),
                role: rc.role,
                page_size: rc.runtime.page_size,
                draining: false,
                drained_early: false,
                in_flight: Vec::new(),
                outstanding_tokens: 0,
                placed: 0,
                peak_in_flight: 0,
                peak_outstanding: 0,
            });
        }
        let shared = Arc::new(Shared {
            roles: cfg.replicas.iter().map(|r| r.role).collect(),
            draining: (0..cfg.replicas.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            in_flight: (0..cfg.replicas.len())
                .map(|_| AtomicUsize::new(0))
                .collect(),
            outstanding: (0..cfg.replicas.len())
                .map(|_| AtomicUsize::new(0))
                .collect(),
            affinity: Mutex::new(HashMap::new()),
        });
        let (tx, rx) = mpsc::channel();
        let engine_shared = Arc::clone(&shared);
        let engine = std::thread::Builder::new()
            .name("fi-cluster-engine".into())
            .spawn(move || {
                Engine {
                    cfg,
                    shared: engine_shared,
                    rx,
                    replicas,
                    pending: VecDeque::new(),
                    migrating: VecDeque::new(),
                    comm: GpuSimCommCost::new(1.0),
                    metrics: ClusterMetrics::default(),
                    disconnected: false,
                }
                .run()
            })
            .map_err(|e| ClusterError::InvalidConfig(format!("spawn engine: {e}")))?;
        Ok(ClusterRouter {
            tx: Some(tx),
            engine: Some(engine),
            shared,
            next_id: AtomicU64::new(1),
        })
    }

    /// Submit a request for placement. The cluster's pending queue is
    /// unbounded — backpressure lives at the per-replica in-flight cap,
    /// not at this gate — so the only rejections are replica-side ones.
    /// Exactly one [`RequestOutcome`] is delivered per submission, so
    /// `submitted == completed + rejected + cancelled` reconciles across
    /// the whole cluster as it does per runtime; cancelling the handle
    /// reaches the request wherever it is (pending, prefilling,
    /// migrating, or decoding).
    pub fn submit(&self, req: RuntimeRequest) -> RequestHandle {
        self.submit_with(req, SubmitOptions::default())
    }

    /// [`ClusterRouter::submit`] with the runtime's [`SubmitOptions`]. A
    /// `stream` carries tokens from whichever replica decodes the request
    /// (for disaggregated requests it is attached to the resumed decode
    /// leg, so the client sees one uninterrupted stream). The cluster
    /// plans a request's legs itself: any `leg` but [`SubmitMode::Full`]
    /// is rejected with [`RejectReason::UnsupportedOptions`].
    pub fn submit_with(&self, req: RuntimeRequest, opts: SubmitOptions) -> RequestHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (handle, client) = RequestHandle::pair(id, opts.stream);
        let sub = ClusterSubmission {
            req,
            client,
            leg: opts.leg,
        };
        self.tx
            .as_ref()
            .expect("live until finish()")
            .send(Command::Submit(sub))
            .expect("engine alive until finish()");
        handle
    }

    /// Drain a replica: it stops receiving placements, its affinity
    /// entries are dropped (so prefix sessions re-prefill elsewhere),
    /// and its in-flight work runs to completion. There is no undrain.
    pub fn drain(&self, replica: usize) {
        let _ = self
            .tx
            .as_ref()
            .expect("live until finish()")
            .send(Command::Drain(replica));
    }

    /// Current load/drain state of every replica.
    pub fn health(&self) -> Vec<ReplicaHealth> {
        (0..self.shared.roles.len())
            .map(|i| ReplicaHealth {
                replica: i,
                role: self.shared.roles[i],
                draining: self.shared.draining[i].load(Ordering::Acquire),
                in_flight: self.shared.in_flight[i].load(Ordering::Acquire),
                outstanding_tokens: self.shared.outstanding[i].load(Ordering::Acquire),
            })
            .collect()
    }

    /// The replica a declared prefix `(seed, len)` is currently affine
    /// to, if any request has claimed it.
    pub fn affinity_of(&self, seed: u64, len: usize) -> Option<usize> {
        self.shared
            .affinity
            .lock()
            .expect("affinity lock")
            .get(&(seed, len))
            .copied()
    }

    /// Close the gate, let every queued and in-flight request resolve,
    /// shut the replicas down, and report.
    pub fn finish(mut self) -> ClusterMetrics {
        self.tx.take();
        let engine = self.engine.take().expect("finish called once");
        match engine.join() {
            Ok(m) => m,
            Err(_) => panic!("fi-cluster engine thread panicked"),
        }
    }
}

impl Drop for ClusterRouter {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Engine internals (single thread, owns the replicas).
// ---------------------------------------------------------------------------

struct InFlight {
    client: ClientEnd,
    req: RuntimeRequest,
    /// Token load this entry charges against its replica.
    tokens: usize,
    /// The client's cancel was already forwarded to the inner handle.
    cancel_forwarded: bool,
    /// The leg running on the replica: a full placement, the prefill leg
    /// of a disaggregated request, or its resumed decode leg.
    handle: RequestHandle,
}

/// A finished prefill leg whose KV is waiting for decode-replica room.
struct Migration {
    client: ClientEnd,
    req: RuntimeRequest,
    snap: KvSnapshot,
}

struct Replica {
    runtime: Option<Runtime>,
    role: ReplicaRole,
    page_size: usize,
    draining: bool,
    drained_early: bool,
    in_flight: Vec<InFlight>,
    outstanding_tokens: usize,
    placed: u64,
    peak_in_flight: usize,
    peak_outstanding: usize,
}

impl Replica {
    fn accepting(&self) -> bool {
        !self.draining && self.runtime.is_some()
    }
}

struct Engine {
    cfg: ClusterConfig,
    shared: Arc<Shared>,
    rx: Receiver<Command>,
    replicas: Vec<Replica>,
    pending: VecDeque<ClusterSubmission>,
    migrating: VecDeque<Migration>,
    comm: GpuSimCommCost,
    metrics: ClusterMetrics,
    disconnected: bool,
}

impl Engine {
    fn run(mut self) -> ClusterMetrics {
        self.comm = GpuSimCommCost::new(self.cfg.link_bandwidth);
        loop {
            self.drain_commands();
            self.sweep_queued_cancels();
            self.poll_in_flight();
            self.place_migrations();
            self.place_pending();
            if self.disconnected
                && self.pending.is_empty()
                && self.migrating.is_empty()
                && self.replicas.iter().all(|r| r.in_flight.is_empty())
            {
                break;
            }
        }
        self.finish()
    }

    fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.migrating.is_empty()
            && self.replicas.iter().all(|r| r.in_flight.is_empty())
    }

    fn drain_commands(&mut self) {
        if self.disconnected {
            // The gate is closed; just pace the polling loop.
            std::thread::sleep(TICK);
            return;
        }
        // Block when idle (no work to poll); otherwise poll at the tick.
        let first = if self.idle() {
            self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            self.rx.recv_timeout(TICK)
        };
        match first {
            Ok(cmd) => self.handle(cmd),
            Err(RecvTimeoutError::Timeout) => return,
            Err(RecvTimeoutError::Disconnected) => {
                self.disconnected = true;
                return;
            }
        }
        while let Ok(cmd) = self.rx.try_recv() {
            self.handle(cmd);
        }
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Submit(sub) => {
                self.metrics.submitted += 1;
                if !matches!(sub.leg, SubmitMode::Full) {
                    sub.client
                        .deliver(RequestOutcome::Rejected(RejectReason::UnsupportedOptions));
                    self.metrics.rejected += 1;
                    return;
                }
                self.pending.push_back(sub);
                self.metrics.peak_pending = self.metrics.peak_pending.max(self.pending.len());
            }
            Command::Drain(i) => {
                let Some(r) = self.replicas.get_mut(i) else {
                    return;
                };
                if !r.draining {
                    r.draining = true;
                    r.drained_early = true;
                    self.shared.draining[i].store(true, Ordering::Release);
                    let mut map = self.shared.affinity.lock().expect("affinity lock");
                    let before = map.len();
                    map.retain(|_, &mut home| home != i);
                    self.metrics.affinity_dropped_on_drain += (before - map.len()) as u64;
                }
            }
        }
    }

    /// Resolve queued submissions whose clients cancelled before
    /// placement — they never reach a replica.
    fn sweep_queued_cancels(&mut self) {
        let count = &mut self.metrics.cancelled;
        let mut keep = |client: &ClientEnd| {
            let cancelled = client.cancelled();
            if cancelled {
                client.deliver(RequestOutcome::Cancelled(CancelReason::User));
                *count += 1;
            }
            !cancelled
        };
        self.pending.retain(|sub| keep(&sub.client));
        self.migrating.retain(|m| keep(&m.client));
    }

    fn count_outcome(&mut self, outcome: &RequestOutcome) {
        match outcome {
            RequestOutcome::Completed(_) => self.metrics.completed += 1,
            RequestOutcome::Rejected(_) => self.metrics.rejected += 1,
            RequestOutcome::Cancelled(_) => self.metrics.cancelled += 1,
        }
    }

    fn poll_in_flight(&mut self) {
        for ri in 0..self.replicas.len() {
            let mut i = 0;
            while i < self.replicas[ri].in_flight.len() {
                let f = &mut self.replicas[ri].in_flight[i];
                if f.client.cancelled() && !f.cancel_forwarded {
                    f.handle.cancel();
                    f.cancel_forwarded = true;
                }
                let Some(outcome) = f.handle.try_wait() else {
                    i += 1;
                    continue;
                };
                let f = self.replicas[ri].in_flight.remove(i);
                self.replicas[ri].outstanding_tokens = self.replicas[ri]
                    .outstanding_tokens
                    .saturating_sub(f.tokens);
                // Only a completed prefill leg exports a snapshot, and it
                // was sent before the outcome just observed.
                match f.handle.take_snapshot() {
                    Some(snap) => {
                        // Price the page transfer: one traversal of the
                        // simulated link, at the storage dtype's width.
                        let bytes = snap.transfer_bytes();
                        self.comm.collective(CollectiveOp::Broadcast, 2, bytes);
                        self.metrics.migrated_bytes += bytes as u64;
                        self.metrics.migrated_pages +=
                            snap.pages(self.replicas[ri].page_size) as u64;
                        self.migrating.push_back(Migration {
                            client: f.client,
                            req: f.req,
                            snap,
                        });
                    }
                    None => {
                        self.count_outcome(&outcome);
                        f.client.deliver(outcome);
                    }
                }
            }
            self.sync_shared(ri);
        }
    }

    /// Resume finished migrations on decode replicas, oldest first;
    /// migrations take priority over fresh placements for decode room.
    fn place_migrations(&mut self) {
        while let Some(m) = self.migrating.front() {
            if m.client.cancelled() {
                let m = self.migrating.pop_front().expect("front exists");
                m.client
                    .deliver(RequestOutcome::Cancelled(CancelReason::User));
                self.metrics.cancelled += 1;
                continue;
            }
            let eligible = |r: &Replica| r.role == ReplicaRole::Decode;
            if !self.replicas.iter().any(|r| eligible(r) && r.accepting()) {
                let m = self.migrating.pop_front().expect("front exists");
                m.client
                    .deliver(RequestOutcome::Cancelled(CancelReason::Failed(
                        "no decode replica available for migrated request".into(),
                    )));
                self.metrics.cancelled += 1;
                continue;
            }
            let loads = self.loads(eligible);
            let Some(ri) = place_replica(&loads, None) else {
                break; // all decode replicas full; retry next tick
            };
            let m = self.migrating.pop_front().expect("front exists");
            let mut client = m.client;
            let rt = self.replicas[ri].runtime.as_ref().expect("accepting");
            let handle = rt.submit_with(
                m.req,
                SubmitOptions {
                    stream: client.take_stream(),
                    leg: SubmitMode::Resume(m.snap),
                },
            );
            self.metrics.migrations += 1;
            let tokens = m.req.prompt_len + m.req.output_len;
            self.dispatch(
                ri,
                InFlight {
                    client,
                    req: m.req,
                    tokens,
                    cancel_forwarded: false,
                    handle,
                },
            );
        }
    }

    fn place_pending(&mut self) {
        // A cluster with nothing accepting can never place again (drain
        // is one-way): bounce the queue instead of spinning forever.
        if !self.replicas.iter().any(Replica::accepting) {
            for sub in self.pending.drain(..) {
                sub.client
                    .deliver(RequestOutcome::Rejected(RejectReason::QueueFull));
                self.metrics.rejected += 1;
            }
            return;
        }
        while let Some(front) = self.pending.front() {
            let prefix = front.req.prefix;
            let disagg_leg = self.cfg.disaggregated() && prefix.is_none();
            let (placed, affinity) = if disagg_leg {
                let loads = self.loads(|r| r.role == ReplicaRole::Prefill);
                (place_replica(&loads, None), None)
            } else {
                // Full lifecycle: unified replicas, or (in disaggregated
                // clusters) decode replicas — prefix sessions stay
                // aggregated so cascade grouping keeps working.
                let affinity = prefix.and_then(|p| {
                    self.shared
                        .affinity
                        .lock()
                        .expect("affinity lock")
                        .get(&(p.seed, p.len))
                        .copied()
                });
                let loads = self.loads(|r| r.role != ReplicaRole::Prefill);
                (place_replica(&loads, affinity), affinity)
            };
            let Some(ri) = placed else {
                break; // head-of-line wait for room (or for the affine home)
            };
            let sub = self.pending.pop_front().expect("front exists");
            let mut client = sub.client;
            let rt = self.replicas[ri].runtime.as_ref().expect("accepting");
            let (opts, tokens) = if disagg_leg {
                self.metrics.placements_disaggregated += 1;
                let opts = SubmitOptions {
                    stream: None,
                    leg: SubmitMode::PrefillOnly,
                };
                (opts, sub.req.prompt_len)
            } else {
                if affinity == Some(ri) {
                    self.metrics.placements_affinity += 1;
                } else {
                    self.metrics.placements_balanced += 1;
                }
                if let Some(p) = prefix {
                    // First placement claims the prefix's home; a
                    // re-placement after drain moves it.
                    self.shared
                        .affinity
                        .lock()
                        .expect("affinity lock")
                        .insert((p.seed, p.len), ri);
                }
                let opts = SubmitOptions {
                    stream: client.take_stream(),
                    leg: SubmitMode::Full,
                };
                (opts, sub.req.prompt_len + sub.req.output_len)
            };
            let handle = rt.submit_with(sub.req, opts);
            self.dispatch(
                ri,
                InFlight {
                    client,
                    req: sub.req,
                    tokens,
                    cancel_forwarded: false,
                    handle,
                },
            );
        }
    }

    fn loads<F: Fn(&Replica) -> bool>(&self, eligible: F) -> Vec<ReplicaLoad> {
        self.replicas
            .iter()
            .map(|r| ReplicaLoad {
                outstanding_tokens: r.outstanding_tokens,
                in_flight: r.in_flight.len(),
                max_in_flight: self.cfg.max_in_flight,
                accepting: eligible(r) && r.accepting(),
            })
            .collect()
    }

    fn dispatch(&mut self, ri: usize, f: InFlight) {
        let r = &mut self.replicas[ri];
        r.outstanding_tokens += f.tokens;
        r.in_flight.push(f);
        r.placed += 1;
        r.peak_in_flight = r.peak_in_flight.max(r.in_flight.len());
        r.peak_outstanding = r.peak_outstanding.max(r.outstanding_tokens);
        self.sync_shared(ri);
    }

    fn sync_shared(&self, ri: usize) {
        self.shared.in_flight[ri].store(self.replicas[ri].in_flight.len(), Ordering::Release);
        self.shared.outstanding[ri].store(self.replicas[ri].outstanding_tokens, Ordering::Release);
    }

    fn finish(mut self) -> ClusterMetrics {
        let mut total = RuntimeMetrics::default();
        let mut reports = Vec::with_capacity(self.replicas.len());
        for (i, mut r) in self.replicas.drain(..).enumerate() {
            let rm = r
                .runtime
                .take()
                .expect("replica runtime lives until engine finish")
                .finish();
            total.merge(&rm);
            reports.push(ReplicaReport {
                replica: i,
                role: r.role,
                placed: r.placed,
                peak_in_flight: r.peak_in_flight,
                peak_outstanding_tokens: r.peak_outstanding,
                drained_early: r.drained_early,
                runtime: rm,
            });
        }
        self.metrics.replicas = reports;
        self.metrics.total = total;
        self.metrics.transfer_seconds = self.comm.simulated_seconds();
        self.metrics
    }
}
