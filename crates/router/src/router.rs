//! The router proper: a validating front gate, per-tenant queues, and a
//! dispatcher thread that owns the backend — a single
//! [`fi_runtime::Runtime`], or a whole [`fi_cluster::ClusterRouter`]
//! when started with [`Router::start_cluster`].

use std::collections::VecDeque;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fi_cluster::{ClusterConfig, ClusterMetrics, ClusterRouter};
use fi_runtime::{
    RequestHandle, RequestLatency, Runtime, RuntimeConfig, RuntimeError, RuntimeMetrics,
    RuntimeRequest, StreamItem, SubmitOptions,
};
use fi_serving::policy::{batch_growth_quota, GrowthPolicy};

use crate::error::{RouterError, SubmitError};
use crate::stream::TokenStream;
use crate::tenant::{TenantConfig, TokenBucket, WrrPicker};

/// Per-request validation bounds, enforced synchronously at
/// [`Router::submit`] before the request touches the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RequestLimits {
    /// Largest accepted prompt, tokens.
    pub max_prompt_len: usize,
    /// Largest accepted output, tokens.
    pub max_output_len: usize,
    /// Largest accepted `prompt_len + output_len`.
    pub max_total_tokens: usize,
}

impl Default for RequestLimits {
    fn default() -> RequestLimits {
        RequestLimits {
            max_prompt_len: 4096,
            max_output_len: 2048,
            max_total_tokens: 4096 + 2048,
        }
    }
}

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The tenants requests may be submitted under.
    pub tenants: Vec<TenantConfig>,
    /// Request validation bounds.
    pub limits: RequestLimits,
    /// The `waiting_served_ratio` batch-growth policy: queued requests
    /// are dispatched only when the backlog justifies disturbing the
    /// running batch (or the escape hatch fires) — the second consumer of
    /// the `fi_serving::policy` seam.
    pub growth: GrowthPolicy,
    /// Most requests in the runtime at once (dispatched, not finished).
    /// Must not exceed the runtime's `queue_capacity`, so a dispatch can
    /// never bounce off the runtime's own gate.
    pub max_in_flight: usize,
    /// Bound of each request's token stream channel.
    pub stream_capacity: usize,
}

/// Dispatcher poll interval while requests are in flight.
const TICK: Duration = Duration::from_micros(500);

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            tenants: vec![TenantConfig::new("default")],
            limits: RequestLimits::default(),
            growth: GrowthPolicy::default(),
            max_in_flight: 32,
            stream_capacity: 16,
        }
    }
}

impl RouterConfig {
    /// `dispatch_bound` is the backend gate's capacity when the backend
    /// has a bounded gate (a single runtime's `queue_capacity`); the
    /// cluster backend's gate is unbounded — its backpressure is the
    /// per-replica in-flight cap — so cluster mode passes `None`.
    fn validate(&self, dispatch_bound: Option<usize>) -> Result<(), RouterError> {
        let bad = |m: String| Err(RouterError::InvalidConfig(m));
        if self.tenants.is_empty() {
            return bad("at least one tenant required".into());
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() {
                return bad(format!("tenant {i} has an empty name"));
            }
            if self.tenants[..i].iter().any(|u| u.name == t.name) {
                return bad(format!("duplicate tenant name {:?}", t.name));
            }
            if t.weight == 0 {
                return bad(format!("tenant {:?} weight must be positive", t.name));
            }
            if t.max_queued == 0 {
                return bad(format!("tenant {:?} max_queued must be positive", t.name));
            }
            if let Some(r) = t.rate {
                if !(r.tokens_per_sec > 0.0 && r.tokens_per_sec.is_finite()) {
                    return bad(format!("tenant {:?} rate must be positive", t.name));
                }
                if !(r.burst > 0.0 && r.burst.is_finite()) {
                    return bad(format!("tenant {:?} burst must be positive", t.name));
                }
            }
        }
        if self.limits.max_prompt_len == 0
            || self.limits.max_output_len == 0
            || self.limits.max_total_tokens == 0
        {
            return bad("request limits must be positive".into());
        }
        if self.max_in_flight == 0 {
            return bad("max_in_flight must be positive".into());
        }
        if let Some(bound) = dispatch_bound {
            if self.max_in_flight > bound {
                return bad(format!(
                    "max_in_flight ({}) exceeds the runtime queue_capacity ({bound}): dispatches \
                     could bounce off the runtime's own gate",
                    self.max_in_flight
                ));
            }
        }
        if self.stream_capacity == 0 {
            return bad("stream_capacity must be positive".into());
        }
        if !(self.growth.waiting_served_ratio > 0.0 && self.growth.waiting_served_ratio.is_finite())
        {
            return bad("waiting_served_ratio must be positive".into());
        }
        Ok(())
    }
}

/// Lifecycle state reported by [`Router::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterState {
    /// Intake open, dispatcher running.
    Accepting,
    /// Intake closed; queued and in-flight requests are being served out.
    Draining,
    /// Fully drained; only [`Router::shutdown`] remains useful.
    Stopped,
}

/// A point-in-time health snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterHealth {
    /// Lifecycle state.
    pub state: RouterState,
    /// Requests waiting in tenant queues.
    pub queued: usize,
    /// Requests dispatched into the runtime and not yet finished.
    pub in_flight: usize,
}

/// One accepted request waiting in its tenant's queue.
struct Queued {
    req: RuntimeRequest,
    tx: SyncSender<StreamItem>,
    cost: f64,
}

struct Shared {
    queues: Vec<VecDeque<Queued>>,
    state: RouterState,
    /// Mirrored by the dispatcher each tick for [`Router::health`].
    in_flight: usize,
    submitted: u64,
    gate_rejected: u64,
}

/// One tenant's slice of the final [`RouterReport`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Requests dispatched into the runtime for this tenant.
    pub dispatched: u64,
    /// Requests of this tenant that completed.
    pub completed: u64,
    /// Dispatcher ticks in which this tenant's queue head sat waiting on
    /// its token bucket (rate-limit delay, never a silent drop).
    pub rate_delayed_ticks: u64,
    /// TTFT/ITL digests over this tenant's requests (from the runtime's
    /// per-tenant samples).
    pub latency: RequestLatency,
}

/// The router's final report, returned by [`Router::shutdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouterReport {
    /// The drained backend's runtime report: the single runtime's own
    /// report, or (in cluster mode) all replica reports merged.
    pub runtime: RuntimeMetrics,
    /// Cluster placement/migration accounting when the router was
    /// started with [`Router::start_cluster`]; `None` in single-runtime
    /// mode.
    pub cluster: Option<ClusterMetrics>,
    /// Every [`Router::submit`] call, accepted or not.
    pub submitted: u64,
    /// Submissions refused at the gate with a typed [`SubmitError`].
    pub gate_rejected: u64,
    /// Requests dispatched into the backend.
    pub dispatched: u64,
    /// Per-tenant accounting, in configuration order.
    pub tenants: Vec<TenantReport>,
}

impl RouterReport {
    /// Every submission accounted for exactly once:
    /// `submitted == gate_rejected + completed + rejected + cancelled`,
    /// with the backend's own identities holding underneath. In cluster
    /// mode the request-level identity runs through the cluster's
    /// counters (a migrated request is two runtime legs but one
    /// dispatch), and the cluster's two-layer reconciliation must hold
    /// too.
    pub fn reconciles(&self) -> bool {
        match &self.cluster {
            Some(c) => {
                c.reconciles()
                    && self.dispatched == c.submitted
                    && self.submitted == self.gate_rejected + c.completed + c.rejected + c.cancelled
            }
            None => {
                self.runtime.reconciles()
                    && self.dispatched == self.runtime.submitted
                    && self.submitted
                        == self.gate_rejected
                            + self.runtime.completed()
                            + self.runtime.rejected
                            + self.runtime.cancelled
            }
        }
    }

    /// One tenant's slice, by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// A request-facing serving front-door over [`fi_runtime::Runtime`].
///
/// `submit` validates synchronously (typed [`SubmitError`]s), enqueues
/// per tenant, and returns a bounded [`TokenStream`]. A dispatcher
/// thread owns the runtime and dequeues with weighted round-robin under
/// token-bucket rate limits, growing the running batch only when the
/// `waiting_served_ratio` policy says the backlog justifies it.
/// `shutdown` closes intake, drains everything, and returns a
/// [`RouterReport`] whose accounting reconciles exactly.
pub struct Router {
    shared: Arc<(Mutex<Shared>, Condvar)>,
    tenants: Vec<TenantConfig>,
    limits: RequestLimits,
    stream_capacity: usize,
    dispatcher: Option<JoinHandle<RouterReport>>,
}

/// The dispatcher's backend: one runtime, or a replica cluster. Both
/// take the same [`SubmitOptions`] and hand back the same
/// [`RequestHandle`].
enum Backend {
    Single(Runtime),
    Cluster(ClusterRouter),
}

impl Backend {
    fn submit(&self, req: RuntimeRequest, tx: SyncSender<StreamItem>) -> RequestHandle {
        let opts = SubmitOptions {
            stream: Some(tx),
            ..SubmitOptions::default()
        };
        match self {
            Backend::Single(rt) => rt.submit_with(req, opts),
            Backend::Cluster(c) => c.submit_with(req, opts),
        }
    }

    /// Drain and report: the runtime rollup plus, in cluster mode, the
    /// cluster's placement/migration accounting.
    fn finish(self) -> (RuntimeMetrics, Option<ClusterMetrics>) {
        match self {
            Backend::Single(rt) => (rt.finish(), None),
            Backend::Cluster(c) => {
                let m = c.finish();
                (m.total.clone(), Some(m))
            }
        }
    }
}

impl Router {
    /// Spawn the dispatcher (which starts the runtime) and open intake.
    pub fn start(cfg: RouterConfig, runtime_cfg: RuntimeConfig) -> Result<Router, RouterError> {
        cfg.validate(Some(runtime_cfg.queue_capacity))?;
        let runtime = Runtime::start(runtime_cfg)
            .map_err(|e: RuntimeError| RouterError::InvalidConfig(e.to_string()))?;
        Router::start_inner(cfg, Backend::Single(runtime))
    }

    /// Like [`Router::start`], but dispatch into a multi-replica
    /// [`fi_cluster::ClusterRouter`] instead of a single runtime: the
    /// same gate, tenant fairness, and growth policy, with placement
    /// (radix affinity, balancing, disaggregated prefill/decode) handled
    /// by the cluster. [`RouterReport::cluster`] carries the placement
    /// and migration accounting.
    pub fn start_cluster(
        cfg: RouterConfig,
        cluster_cfg: ClusterConfig,
    ) -> Result<Router, RouterError> {
        cfg.validate(None)?;
        if let Some(small) = cluster_cfg
            .replicas
            .iter()
            .map(|r| r.runtime.queue_capacity)
            .find(|&q| q < cluster_cfg.max_in_flight)
        {
            return Err(RouterError::InvalidConfig(format!(
                "cluster max_in_flight ({}) exceeds a replica queue_capacity ({small}): \
                 placements could bounce off the replica's own gate",
                cluster_cfg.max_in_flight
            )));
        }
        let cluster = ClusterRouter::start(cluster_cfg)
            .map_err(|e| RouterError::InvalidConfig(e.to_string()))?;
        Router::start_inner(cfg, Backend::Cluster(cluster))
    }

    fn start_inner(cfg: RouterConfig, backend: Backend) -> Result<Router, RouterError> {
        let shared = Arc::new((
            Mutex::new(Shared {
                queues: cfg.tenants.iter().map(|_| VecDeque::new()).collect(),
                state: RouterState::Accepting,
                in_flight: 0,
                submitted: 0,
                gate_rejected: 0,
            }),
            Condvar::new(),
        ));
        let tenants = cfg.tenants.clone();
        let limits = cfg.limits;
        let stream_capacity = cfg.stream_capacity;
        let disp_shared = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("fi-router-dispatcher".into())
            .spawn(move || Dispatcher::new(cfg, backend, disp_shared).run())
            .map_err(|e| RouterError::InvalidConfig(format!("spawn dispatcher: {e}")))?;
        Ok(Router {
            shared,
            tenants,
            limits,
            stream_capacity,
            dispatcher: Some(dispatcher),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.0.lock().expect("router state poisoned")
    }

    fn reject(&self, e: SubmitError) -> Result<TokenStream, SubmitError> {
        let mut s = self.lock();
        s.submitted += 1;
        s.gate_rejected += 1;
        Err(e)
    }

    /// Submit a request under `tenant`. Validation is synchronous: an
    /// `Err` is a typed refusal and the request never touched the
    /// runtime; an `Ok` is an accepted request whose tokens (and
    /// terminal outcome) arrive on the returned stream.
    pub fn submit(&self, tenant: &str, req: RuntimeRequest) -> Result<TokenStream, SubmitError> {
        let Some(idx) = self.tenants.iter().position(|t| t.name == tenant) else {
            return self.reject(SubmitError::UnknownTenant(tenant.into()));
        };
        if req.prompt_len == 0 || req.output_len == 0 {
            return self.reject(SubmitError::EmptyRequest);
        }
        if req.prompt_len > self.limits.max_prompt_len {
            return self.reject(SubmitError::PromptTooLong {
                len: req.prompt_len,
                max: self.limits.max_prompt_len,
            });
        }
        if req.output_len > self.limits.max_output_len {
            return self.reject(SubmitError::OutputTooLong {
                len: req.output_len,
                max: self.limits.max_output_len,
            });
        }
        let total = req.prompt_len + req.output_len;
        if total > self.limits.max_total_tokens {
            return self.reject(SubmitError::TotalTooLong {
                len: total,
                max: self.limits.max_total_tokens,
            });
        }
        if let Some(p) = req.prefix {
            // The runtime would clamp a too-long declaration; the router
            // treats it as a client error instead of silently shrinking.
            if p.len == 0 || p.len >= req.prompt_len {
                return self.reject(SubmitError::InvalidPrefix {
                    declared: p.len,
                    prompt_len: req.prompt_len,
                });
            }
        }
        let cost = total as f64;
        let tcfg = &self.tenants[idx];
        if let Some(r) = tcfg.rate {
            if cost > r.burst {
                return self.reject(SubmitError::RateLimited {
                    tenant: tenant.into(),
                    cost: total as u64,
                    burst: r.burst as u64,
                });
            }
        }
        let mut s = self.lock();
        s.submitted += 1;
        if s.state != RouterState::Accepting {
            s.gate_rejected += 1;
            return Err(SubmitError::ShuttingDown);
        }
        if s.queues[idx].len() >= tcfg.max_queued {
            s.gate_rejected += 1;
            return Err(SubmitError::QueueFull {
                tenant: tenant.into(),
                depth: tcfg.max_queued,
            });
        }
        let (tx, rx) = mpsc::sync_channel(self.stream_capacity);
        s.queues[idx].push_back(Queued { req, tx, cost });
        drop(s);
        self.shared.1.notify_all();
        Ok(TokenStream::new(rx, tenant.into()))
    }

    /// A point-in-time health snapshot (state, queue depth, in-flight).
    pub fn health(&self) -> RouterHealth {
        let s = self.lock();
        RouterHealth {
            state: s.state,
            queued: s.queues.iter().map(VecDeque::len).sum(),
            in_flight: s.in_flight,
        }
    }

    /// Graceful shutdown: close intake (new submissions get
    /// [`SubmitError::ShuttingDown`]), serve out every queued and
    /// in-flight request (rate limits are bypassed during the drain — a
    /// drain must terminate), flush the streams, drain the runtime, and
    /// report.
    pub fn shutdown(mut self) -> RouterReport {
        self.begin_drain();
        let handle = self.dispatcher.take().expect("shutdown called once");
        handle.join().expect("fi-router dispatcher panicked")
    }

    /// Close intake without consuming the router: subsequent submissions
    /// get [`SubmitError::ShuttingDown`] while queued and in-flight
    /// requests are served out. [`Router::health`] reaches
    /// [`RouterState::Stopped`] once the drain finishes; call
    /// [`Router::shutdown`] to collect the report. Idempotent.
    pub fn begin_drain(&self) {
        let mut s = self.lock();
        if s.state == RouterState::Accepting {
            s.state = RouterState::Draining;
        }
        drop(s);
        self.shared.1.notify_all();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if let Some(h) = self.dispatcher.take() {
            self.begin_drain();
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatcher internals.
// ---------------------------------------------------------------------------

struct Dispatcher {
    cfg: RouterConfig,
    backend: Backend,
    shared: Arc<(Mutex<Shared>, Condvar)>,
    buckets: Vec<Option<TokenBucket>>,
    wrr: WrrPicker,
    in_flight: Vec<(usize, RequestHandle)>,
    /// Ticks the backlog has waited without the growth gate opening
    /// (resets on every dispatch) — drives the policy's escape hatch.
    steps_waiting: usize,
    dispatched: u64,
    tenant_dispatched: Vec<u64>,
    tenant_delayed: Vec<u64>,
    last_refill: Instant,
}

impl Dispatcher {
    fn new(
        cfg: RouterConfig,
        backend: Backend,
        shared: Arc<(Mutex<Shared>, Condvar)>,
    ) -> Dispatcher {
        let n = cfg.tenants.len();
        Dispatcher {
            buckets: cfg
                .tenants
                .iter()
                .map(|t| t.rate.map(TokenBucket::new))
                .collect(),
            wrr: WrrPicker::new(cfg.tenants.iter().map(|t| t.weight).collect()),
            in_flight: Vec::new(),
            steps_waiting: 0,
            dispatched: 0,
            tenant_dispatched: vec![0; n],
            tenant_delayed: vec![0; n],
            last_refill: Instant::now(),
            cfg,
            backend,
            shared,
        }
    }

    fn run(mut self) -> RouterReport {
        loop {
            self.idle_wait();
            self.poll_in_flight();
            self.refill_buckets();
            let before = self.dispatched;
            if self.dispatch_tick() {
                break;
            }
            if !self.in_flight.is_empty() || self.dispatched == before {
                // Outcomes arrive from the scheduler thread, and bucket
                // refill is wall-clock: poll at a fixed cadence
                // instead of spinning. This also paces rate-limit waits —
                // a blocked queue head re-checks its bucket once per tick,
                // so `rate_delayed_ticks` counts ticks, not loop spins.
                std::thread::sleep(TICK);
            }
        }
        // Everything dispatched has finished; drain the backend itself.
        let (runtime, cluster) = self.backend.finish();
        let (submitted, gate_rejected) = {
            let s = self.shared.0.lock().expect("router state poisoned");
            (s.submitted, s.gate_rejected)
        };
        let tenants = self
            .cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let rt = runtime.tenant(i as u32 + 1);
                TenantReport {
                    name: t.name.clone(),
                    dispatched: self.tenant_dispatched[i],
                    completed: rt.map_or(0, |x| x.completed),
                    rate_delayed_ticks: self.tenant_delayed[i],
                    latency: rt.map(|x| x.latency).unwrap_or_default(),
                }
            })
            .collect();
        RouterReport {
            runtime,
            cluster,
            submitted,
            gate_rejected,
            dispatched: self.dispatched,
            tenants,
        }
    }

    /// Block (briefly) when there is nothing to do at all, so an idle
    /// router costs no CPU; any submit or shutdown notifies the condvar.
    fn idle_wait(&mut self) {
        if !self.in_flight.is_empty() {
            return;
        }
        let (lock, cv) = &*self.shared;
        let s = lock.lock().expect("router state poisoned");
        if s.state == RouterState::Accepting && s.queues.iter().all(VecDeque::is_empty) {
            let _ = cv
                .wait_timeout(s, Duration::from_millis(20))
                .expect("router state poisoned");
        }
    }

    fn poll_in_flight(&mut self) {
        self.in_flight.retain(|(_, h)| h.try_wait().is_none());
    }

    fn refill_buckets(&mut self) {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill);
        self.last_refill = now;
        for b in self.buckets.iter_mut().flatten() {
            b.refill(elapsed);
        }
    }

    /// One dispatch round. Returns true when the router is fully drained
    /// and the loop should exit.
    fn dispatch_tick(&mut self) -> bool {
        let (lock, _) = &*self.shared;
        let mut s = lock.lock().expect("router state poisoned");
        let draining = s.state != RouterState::Accepting;
        let waiting: usize = s.queues.iter().map(VecDeque::len).sum();
        let served = self.in_flight.len();
        // The waiting_served_ratio gate: leave the running batch alone
        // until the backlog is worth the prefill disturbance — except
        // during a drain, where everything must leave the building.
        let quota = if draining {
            waiting
        } else {
            batch_growth_quota(&self.cfg.growth, waiting, served, self.steps_waiting)
        };
        let mut budget = quota.min(self.cfg.max_in_flight.saturating_sub(served));
        let mut dispatched_any = false;
        while budget > 0 {
            let queues = &s.queues;
            let buckets = &self.buckets;
            let pick = self.wrr.pick(|i| {
                queues[i].front().is_some_and(|q| {
                    draining || buckets[i].as_ref().is_none_or(|b| b.level() >= q.cost)
                })
            });
            let Some(i) = pick else { break };
            let q = s.queues[i].pop_front().expect("picked queue is non-empty");
            if !draining {
                if let Some(b) = &mut self.buckets[i] {
                    let charged = b.try_charge(q.cost);
                    debug_assert!(charged, "eligibility checked the level");
                }
            }
            let h = self.backend.submit(q.req.with_tenant(i as u32 + 1), q.tx);
            self.in_flight.push((i, h));
            self.dispatched += 1;
            self.tenant_dispatched[i] += 1;
            dispatched_any = true;
            budget -= 1;
        }
        if !draining {
            // Queue heads waiting on their buckets: delayed, not dropped
            // — surfaced per tenant so a starved tenant is visible.
            for i in 0..s.queues.len() {
                let head_blocked = s.queues[i]
                    .front()
                    .is_some_and(|q| self.buckets[i].as_ref().is_some_and(|b| b.level() < q.cost));
                if head_blocked {
                    self.tenant_delayed[i] += 1;
                }
            }
        }
        let still_waiting: usize = s.queues.iter().map(VecDeque::len).sum();
        if dispatched_any {
            self.steps_waiting = 0;
        } else if still_waiting > 0 {
            self.steps_waiting += 1;
        }
        s.in_flight = self.in_flight.len();
        if draining && still_waiting == 0 && self.in_flight.is_empty() {
            s.state = RouterState::Stopped;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_runtime::RequestOutcome;

    fn small_runtime() -> RuntimeConfig {
        RuntimeConfig {
            num_workers: 2,
            ..RuntimeConfig::default()
        }
    }

    fn two_tenants() -> RouterConfig {
        RouterConfig {
            tenants: vec![
                TenantConfig::new("alpha").with_weight(3),
                TenantConfig::new("beta").with_weight(1),
            ],
            ..RouterConfig::default()
        }
    }

    #[test]
    fn validation_rejects_before_the_runtime() {
        let cfg = RouterConfig {
            limits: RequestLimits {
                max_prompt_len: 64,
                max_output_len: 16,
                max_total_tokens: 70,
            },
            ..two_tenants()
        };
        let r = Router::start(cfg, small_runtime()).unwrap();
        assert!(matches!(
            r.submit("nobody", RuntimeRequest::new(8, 4, 1)),
            Err(SubmitError::UnknownTenant(_))
        ));
        assert!(matches!(
            r.submit("alpha", RuntimeRequest::new(65, 4, 1)),
            Err(SubmitError::PromptTooLong { len: 65, max: 64 })
        ));
        assert!(matches!(
            r.submit("alpha", RuntimeRequest::new(8, 17, 1)),
            Err(SubmitError::OutputTooLong { .. })
        ));
        assert!(matches!(
            r.submit("alpha", RuntimeRequest::new(60, 16, 1)),
            Err(SubmitError::TotalTooLong { len: 76, max: 70 })
        ));
        assert!(matches!(
            r.submit("alpha", RuntimeRequest::new(0, 4, 1)),
            Err(SubmitError::EmptyRequest)
        ));
        assert!(matches!(
            r.submit(
                "alpha",
                RuntimeRequest::new(8, 4, 1).with_shared_prefix(5, 8)
            ),
            Err(SubmitError::InvalidPrefix { .. })
        ));
        // One good request still sails through after all those refusals.
        let stream = r.submit("alpha", RuntimeRequest::new(8, 4, 1)).unwrap();
        let (rows, outcome) = stream.collect_all();
        assert_eq!(rows.len(), 4);
        assert!(matches!(outcome, Some(RequestOutcome::Completed(_))));
        let report = r.shutdown();
        assert_eq!(report.submitted, 7);
        assert_eq!(report.gate_rejected, 6);
        assert_eq!(report.runtime.completed(), 1);
        assert!(report.reconciles());
    }

    #[test]
    fn oversized_burst_is_rejected_not_queued_forever() {
        let cfg = RouterConfig {
            tenants: vec![TenantConfig::new("limited").with_rate(1000.0, 64.0)],
            ..RouterConfig::default()
        };
        let r = Router::start(cfg, small_runtime()).unwrap();
        // 100 tokens can never fit a 64-token bucket: typed rejection.
        assert!(matches!(
            r.submit("limited", RuntimeRequest::new(90, 10, 1)),
            Err(SubmitError::RateLimited {
                cost: 100,
                burst: 64,
                ..
            })
        ));
        // 40 tokens fit the burst: served.
        let s = r.submit("limited", RuntimeRequest::new(32, 8, 2)).unwrap();
        assert_eq!(s.collect_all().0.len(), 8);
        assert!(r.shutdown().reconciles());
    }

    #[test]
    fn queue_bound_rejects_with_queue_full() {
        let cfg = RouterConfig {
            tenants: vec![TenantConfig::new("t")
                .with_max_queued(1)
                .with_rate(1e-3, 64.0)],
            ..RouterConfig::default()
        };
        let r = Router::start(cfg, small_runtime()).unwrap();
        // The bucket starts with 64 tokens; the first request drains it,
        // the second sits queued (refill is ~never), the third bounces.
        let _a = r.submit("t", RuntimeRequest::new(32, 16, 1)).unwrap();
        while r.health().queued > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _b = r.submit("t", RuntimeRequest::new(32, 16, 2)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let err = r
            .submit("t", RuntimeRequest::new(32, 16, 3))
            .expect_err("the bucket is dry, the 1-deep queue is held");
        assert!(matches!(err, SubmitError::QueueFull { depth: 1, .. }));
        let report = r.shutdown();
        // The drain bypasses the bucket, so the delayed request completes.
        assert!(report.reconciles());
        assert!(report.tenant("t").unwrap().rate_delayed_ticks > 0);
    }

    #[test]
    fn health_transitions_accepting_draining_stopped() {
        let r = Router::start(two_tenants(), small_runtime()).unwrap();
        assert_eq!(r.health().state, RouterState::Accepting);
        let streams: Vec<_> = (0..4)
            .filter_map(|i| r.submit("alpha", RuntimeRequest::new(16, 8, i)).ok())
            .collect();
        let report = r.shutdown();
        for s in streams {
            let (rows, outcome) = s.collect_all();
            assert_eq!(rows.len(), 8);
            assert!(matches!(outcome, Some(RequestOutcome::Completed(_))));
        }
        assert_eq!(report.runtime.completed(), 4);
        assert!(report.reconciles());
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let r = Router::start(two_tenants(), small_runtime()).unwrap();
        r.begin_drain();
        assert!(matches!(
            r.submit("alpha", RuntimeRequest::new(8, 4, 1)),
            Err(SubmitError::ShuttingDown)
        ));
        assert!(r.shutdown().reconciles());
    }

    #[test]
    fn invalid_configs_rejected() {
        let ok_rt = small_runtime();
        for cfg in [
            RouterConfig {
                tenants: vec![],
                ..RouterConfig::default()
            },
            RouterConfig {
                tenants: vec![TenantConfig::new("a"), TenantConfig::new("a")],
                ..RouterConfig::default()
            },
            RouterConfig {
                tenants: vec![TenantConfig::new("a").with_weight(0)],
                ..RouterConfig::default()
            },
            RouterConfig {
                tenants: vec![TenantConfig::new("a").with_rate(0.0, 64.0)],
                ..RouterConfig::default()
            },
            RouterConfig {
                max_in_flight: 0,
                ..RouterConfig::default()
            },
            RouterConfig {
                stream_capacity: 0,
                ..RouterConfig::default()
            },
            RouterConfig {
                max_in_flight: 100_000,
                ..RouterConfig::default()
            },
        ] {
            assert!(Router::start(cfg, ok_rt.clone()).is_err());
        }
    }

    #[test]
    fn cluster_backend_serves_and_reconciles() {
        let cluster_cfg = ClusterConfig::homogeneous(2, small_runtime());
        let r = Router::start_cluster(two_tenants(), cluster_cfg).unwrap();
        let mut streams = Vec::new();
        for i in 0..10 {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            streams.push(
                r.submit(tenant, RuntimeRequest::new(10, 5, 50 + i))
                    .unwrap(),
            );
        }
        for s in streams {
            let (rows, outcome) = s.collect_all();
            assert_eq!(rows.len(), 5);
            assert!(matches!(outcome, Some(RequestOutcome::Completed(_))));
        }
        let report = r.shutdown();
        assert!(report.reconciles(), "cluster-mode report must reconcile");
        let c = report
            .cluster
            .as_ref()
            .expect("cluster mode sets the field");
        assert_eq!(c.completed, 10);
        assert_eq!(c.replicas.len(), 2);
        assert_eq!(report.tenant("alpha").unwrap().completed, 5);
        assert_eq!(report.tenant("beta").unwrap().completed, 5);

        // A replica gate smaller than the cluster's in-flight cap is a
        // config error, same as the single-runtime bound.
        let mut bad = ClusterConfig::homogeneous(2, small_runtime());
        bad.max_in_flight = 9;
        bad.replicas[1].runtime.queue_capacity = 4;
        assert!(Router::start_cluster(two_tenants(), bad).is_err());
    }

    #[test]
    fn weighted_tenants_share_a_saturated_router() {
        // Saturate a tiny runtime from two tenants with 3:1 weights; both
        // must make progress (no starvation) and all requests complete.
        let cfg = RouterConfig {
            max_in_flight: 4,
            ..two_tenants()
        };
        let r = Router::start(cfg, small_runtime()).unwrap();
        let mut streams = Vec::new();
        for i in 0..12 {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            streams.push((
                tenant,
                r.submit(tenant, RuntimeRequest::new(12, 6, i)).unwrap(),
            ));
        }
        for (_, s) in streams {
            assert_eq!(s.collect_all().0.len(), 6);
        }
        let report = r.shutdown();
        assert_eq!(report.runtime.completed(), 12);
        assert!(report.reconciles());
        assert_eq!(report.tenant("alpha").unwrap().dispatched, 6);
        assert_eq!(report.tenant("beta").unwrap().dispatched, 6);
        assert!(report.tenant("alpha").unwrap().latency.ttft.count > 0);
    }
}
