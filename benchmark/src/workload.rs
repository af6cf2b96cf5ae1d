//! The four workloads: what traffic each sends, why, and how the serving
//! stack is configured for it. Geometry is the same everywhere so that the
//! workloads differ only in traffic.

use fi_cluster::ClusterConfig;
use fi_core::config::HeadConfig;
use fi_core::tiles::TileConfig;
use fi_router::{Router, RouterConfig, TenantConfig};
use fi_runtime::{RuntimeConfig, RuntimeRequest};
use fi_serving::engine::{EngineConfig, PreemptionPolicy};

use crate::stats::{splitmix, stratified_lengths};

pub const PAGE_SIZE: usize = 16;
/// 16 Ki tokens per runtime: above the largest resident set of any workload
/// (`decode_long`: 8 x 1152), so nothing is ever preempted.
pub const NUM_PAGES: usize = 1024;
/// Sarathi chunk budget per step, tokens.
pub const PREFILL_CHUNK: usize = 256;
pub const TILE: TileConfig = TileConfig { tq: 16, tkv: 64 };
pub const TENANTS: [&str; 3] = ["t0", "t1", "t2"];
/// Worker threads in total, equal to the cores of the reference host.
pub const WORKERS: usize = 2;

pub fn heads() -> HeadConfig {
    HeadConfig::new(8, 2, 64).expect("static head geometry")
}

/// One workload. Lengths are inclusive ranges in tokens.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Logical clients of the closed loop: each sends its next request only
    /// after its previous one finished.
    pub clients: usize,
    /// Requests per repetition.
    pub requests: usize,
    pub tenants: usize,
    pub max_in_flight: usize,
    pub prompt: (usize, usize),
    pub output: (usize, usize),
    /// Length of the shared prefix in front of the prompt (two prefixes,
    /// alternating); 0 for none.
    pub shared_prefix: usize,
    /// Two replicas of one worker each behind `Router::start_cluster`
    /// instead of one runtime of two workers.
    pub cluster: bool,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "decode_long",
        why: "long outputs over kv up to 1152: decode dominates, so the fi-core kernel and fi-tensor read path do most of the work",
        clients: 8,
        requests: 32,
        tenants: 1,
        max_in_flight: 32,
        prompt: (256, 512),
        output: (384, 640),
        shared_prefix: 0,
        cluster: false,
    },
    Spec {
        name: "prefill_long",
        why: "prompts of 1536-2560 tokens and 4 output tokens: TTFT is chunked-prefill compute plus the fi-kvcache append side",
        clients: 2,
        requests: 10,
        tenants: 1,
        max_in_flight: 32,
        prompt: (1536, 2560),
        // Fewer decode gaps than the shortest prompt has prefill chunks, so a
        // request's decode always runs beside the other client's prefill.
        output: (4, 4),
        shared_prefix: 0,
        cluster: false,
    },
    Spec {
        name: "many_short",
        why: "48 clients of short requests over three tenants: kernel nearly free, so step formation, plan cache, to_bsr and router queues dominate",
        clients: 48,
        requests: 1024,
        tenants: 3,
        max_in_flight: 32,
        prompt: (16, 48),
        output: (32, 64),
        shared_prefix: 0,
        cluster: false,
    },
    Spec {
        name: "prefix_cluster",
        why: "two shared 1024-token prefixes on two replicas: the only user of cascade groups, the radix tree and cluster affinity placement",
        clients: 16,
        requests: 128,
        tenants: 1,
        max_in_flight: 32,
        prompt: (32, 32),
        output: (48, 48),
        shared_prefix: 1024,
        cluster: true,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One request of a trace and the tenant it is sent under.
#[derive(Debug, Clone, Copy)]
pub struct TraceRequest {
    /// Position in the trace as generated; a repetition may send the
    /// requests in another order.
    pub id: usize,
    pub tenant: usize,
    pub req: RuntimeRequest,
}

impl Spec {
    /// `--quick` keeps the shapes and sends a quarter of the requests, but
    /// enough that some are sent after the first wave.
    pub fn quick(mut self) -> Spec {
        self.requests = (self.requests / 4).max(2 * self.clients);
        self
    }

    /// The trace for `seed`. The serving stack sees only these requests.
    pub fn trace(&self, seed: u64) -> Vec<TraceRequest> {
        let n = self.requests;
        // Each half of the trace covers the length ranges evenly by itself:
        // the first half is the warm-up of a set-up.
        let halves = [n.div_ceil(2), n / 2];
        let lengths = |salt: u64, (lo, hi): (usize, usize)| -> Vec<usize> {
            let half =
                |k: usize| stratified_lengths(splitmix(seed ^ salt) ^ k as u64, halves[k], lo, hi);
            [half(0), half(1)].concat()
        };
        let prompts = lengths(0x1, self.prompt);
        let outputs = lengths(0xA5A5, self.output);
        (0..n)
            .map(|i| {
                let row_seed = splitmix(seed.wrapping_mul(0x1_0000).wrapping_add(i as u64));
                let mut req =
                    RuntimeRequest::new(self.shared_prefix + prompts[i], outputs[i], row_seed);
                if self.shared_prefix > 0 {
                    let which = (i % 2) as u64;
                    req =
                        req.with_shared_prefix(splitmix(seed ^ 0xF00D) ^ which, self.shared_prefix);
                }
                TraceRequest {
                    id: i,
                    tenant: i % self.tenants,
                    req,
                }
            })
            .collect()
    }

    /// The same requests in the order repetition `rep` sends them. Which
    /// requests meet in a batch depends on the order, so a run's median over
    /// repetitions averages over orders and depends less on the seed.
    pub fn reordered(trace: &[TraceRequest], seed: u64, rep: usize) -> Vec<TraceRequest> {
        let mut out = trace.to_vec();
        for i in (1..out.len()).rev() {
            let r = splitmix(splitmix(seed ^ 0x0DDE) ^ ((rep as u64) << 32 | i as u64));
            out.swap(i, (r % (i as u64 + 1)) as usize);
        }
        out
    }

    pub fn runtime_config(&self, num_workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            engine: EngineConfig {
                kv_capacity_tokens: PAGE_SIZE * NUM_PAGES,
                max_batch: 64,
                prefix_caching: false,
                chunked_prefill_budget: Some(PREFILL_CHUNK),
                optimistic_admission: true,
                preemption: PreemptionPolicy::Recompute,
            },
            queue_capacity: 64,
            num_workers,
            tensor_parallel: 1,
            num_ctas: 8,
            heads: heads(),
            tile: TILE,
            page_size: PAGE_SIZE,
            num_pages: NUM_PAGES,
        }
    }

    fn router_config(&self) -> RouterConfig {
        RouterConfig {
            tenants: TENANTS[..self.tenants]
                .iter()
                .map(|n| TenantConfig::new(*n))
                .collect(),
            max_in_flight: self.max_in_flight,
            // Above what one poll interval of the generator can produce, so a
            // stream never stalls its request (`runtime.stream_stalls` is 0).
            stream_capacity: 64,
            ..RouterConfig::default()
        }
    }

    /// The front door every workload enters through.
    pub fn start_router(&self) -> Router {
        if self.cluster {
            self.start_router_cluster()
        } else {
            self.start_router_single()
        }
    }

    pub fn start_router_single(&self) -> Router {
        Router::start(self.router_config(), self.runtime_config(WORKERS)).expect("router starts")
    }

    fn start_router_cluster(&self) -> Router {
        let mut cluster = ClusterConfig::homogeneous(WORKERS, self.runtime_config(1));
        cluster.max_in_flight = self.max_in_flight;
        Router::start_cluster(self.router_config(), cluster).expect("cluster router starts")
    }
}
