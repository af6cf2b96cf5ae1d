//! fi-router integration: a routed, multi-tenant, streamed run must be
//! *bit-identical*, per request, to direct `Runtime` submission — across
//! Poisson and bursty arrival processes, tenant rate limits and weights,
//! stream-drop cancellation, and drain-under-load — while the router's
//! lifecycle accounting reconciles exactly and the KV pool drains.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flashinfer::cluster::ClusterConfig;
use flashinfer::router::{
    RequestLimits, Router, RouterConfig, RouterState, SubmitError, TenantConfig, TokenStream,
};
use flashinfer::runtime::{RequestOutcome, Runtime, RuntimeConfig, RuntimeRequest, StreamItem};
use flashinfer::serving::policy::GrowthPolicy;
use flashinfer::serving::workload::{bursty_arrivals, deterministic_mix, poisson_arrivals};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TENANTS: [&str; 3] = ["anna", "ben", "carol"];

fn runtime_cfg() -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity: 128,
        ..RuntimeConfig::default()
    }
}

fn router_cfg() -> RouterConfig {
    RouterConfig {
        tenants: TENANTS.iter().map(|n| TenantConfig::new(*n)).collect(),
        limits: RequestLimits {
            max_prompt_len: 64,
            max_output_len: 32,
            max_total_tokens: 96,
        },
        growth: GrowthPolicy::default(),
        max_in_flight: 16,
        stream_capacity: 16,
    }
}

/// Deterministic request mix: prompts 4..=35, outputs 3..=10 (the shared
/// `fi_serving::workload::deterministic_mix` trace).
fn request_mix(n: usize, seed0: u64) -> Vec<RuntimeRequest> {
    deterministic_mix(n, seed0)
        .into_iter()
        .map(|s| RuntimeRequest::new(s.prompt_len, s.output_len, s.seed))
        .collect()
}

/// Serve the same request set through a plain `Runtime` (no router, no
/// pacing) and return each request's decoded rows, submission order.
fn direct_outputs(cfg: &RuntimeConfig, reqs: &[RuntimeRequest]) -> Vec<Vec<Vec<f32>>> {
    let rt = Runtime::start(cfg.clone()).unwrap();
    let handles: Vec<_> = reqs.iter().map(|r| rt.submit(*r)).collect();
    let outs = handles
        .into_iter()
        .map(|h| h.wait().completed().expect("direct run completes").outputs)
        .collect();
    let m = rt.finish();
    assert!(m.reconciles() && m.kv_pool_drained());
    outs
}

/// Drive a full routed run: submit each request under its tenant at its
/// arrival time (scaled), drain every stream, and return the rows.
fn routed_outputs(
    router: &Router,
    reqs: &[RuntimeRequest],
    arrivals: &[f64],
    time_scale: f64,
) -> Vec<Vec<Vec<f32>>> {
    let t0 = Instant::now();
    let mut streams: Vec<TokenStream> = Vec::with_capacity(reqs.len());
    for (i, (req, &at)) in reqs.iter().zip(arrivals).enumerate() {
        let due = Duration::from_secs_f64(at * time_scale);
        if let Some(wait) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let tenant = TENANTS[i % TENANTS.len()];
        streams.push(router.submit(tenant, *req).expect("valid request accepted"));
    }
    streams
        .into_iter()
        .map(|s| {
            let (rows, outcome) = s.collect_all();
            assert!(
                matches!(outcome, Some(RequestOutcome::Completed(_))),
                "routed request must complete"
            );
            rows
        })
        .collect()
}

#[test]
fn poisson_multi_tenant_routing_is_bit_identical_to_direct_submission() {
    let n = 72;
    let reqs = request_mix(n, 42);
    let mut rng = StdRng::seed_from_u64(7);
    // ~400 req/s of model time, scaled to run the trace in ~180ms.
    let arrivals = poisson_arrivals(&mut rng, n, 400.0);
    let rcfg = runtime_cfg();
    let router = Router::start(router_cfg(), rcfg.clone()).unwrap();
    let routed = routed_outputs(&router, &reqs, &arrivals, 1.0);
    let report = router.shutdown();
    let direct = direct_outputs(&rcfg, &reqs);
    for (i, (a, b)) in routed.iter().zip(direct.iter()).enumerate() {
        assert_eq!(a.len(), b.len(), "token count, request {i}");
        for (t, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(ra, rb, "row bits, request {i} token {t}");
        }
    }
    assert!(report.reconciles(), "router accounting reconciles");
    assert_eq!(report.submitted, n as u64);
    assert_eq!(report.gate_rejected, 0);
    assert_eq!(report.runtime.completed(), n as u64);
    assert!(report.runtime.kv_pool_drained());
    // All three tenants produced latency digests.
    for t in TENANTS {
        let tr = report.tenant(t).expect("tenant present");
        assert_eq!(tr.completed, 24, "72 requests round-robin over 3 tenants");
        assert_eq!(tr.dispatched, 24);
        assert_eq!(tr.latency.ttft.count, 24);
        assert!(tr.latency.ttft.p99 >= tr.latency.ttft.p50);
        assert!(tr.latency.itl.count > 0);
    }
}

#[test]
fn bursty_arrivals_with_rate_limits_reconcile_exactly() {
    let n = 48;
    let reqs = request_mix(n, 99);
    let mut rng = StdRng::seed_from_u64(11);
    // Flash crowds: ~6 requests per burst, bursts well past the limited
    // tenant's sustained rate.
    let arrivals = bursty_arrivals(&mut rng, n, 40.0, 6.0, 5000.0);
    let cfg = RouterConfig {
        tenants: vec![
            TenantConfig::new("anna").with_weight(3),
            TenantConfig::new("ben").with_weight(1),
            // Tight sustained rate: bursts must be *delayed*, not dropped.
            TenantConfig::new("carol").with_rate(200.0, 96.0),
        ],
        ..router_cfg()
    };
    let rcfg = runtime_cfg();
    let router = Router::start(cfg, rcfg.clone()).unwrap();
    let routed = routed_outputs(&router, &reqs, &arrivals, 1.0);
    let report = router.shutdown();
    let direct = direct_outputs(&rcfg, &reqs);
    assert_eq!(routed, direct, "bursty routed run must stay bit-identical");
    assert!(report.reconciles());
    assert_eq!(report.runtime.completed(), n as u64);
    assert!(report.runtime.kv_pool_drained());
    let carol = report.tenant("carol").unwrap();
    assert_eq!(carol.completed, carol.dispatched, "delayed, never dropped");
    assert!(
        carol.rate_delayed_ticks > 0,
        "a 200 tok/s bucket under a burst must delay"
    );
}

#[test]
fn routing_over_a_disaggregated_cluster_streams_the_resumed_leg_bit_identically() {
    // Every plain request prefills on one replica, migrates, and streams
    // its tokens from the decode replica's resumed leg — the stream is
    // attached there, not to the prefill leg.
    let n = 36;
    let reqs = request_mix(n, 2718);
    let mut rng = StdRng::seed_from_u64(5);
    let arrivals = poisson_arrivals(&mut rng, n, 400.0);
    let rcfg = runtime_cfg();
    let router = Router::start_cluster(
        router_cfg(),
        ClusterConfig::disaggregated_pair(rcfg.clone()),
    )
    .unwrap();
    let routed = routed_outputs(&router, &reqs, &arrivals, 1.0);
    let report = router.shutdown();
    let direct = direct_outputs(&rcfg, &reqs);
    assert_eq!(routed, direct, "migrated streams must stay bit-identical");
    assert!(report.reconciles(), "router over cluster reconciles");
    assert_eq!(report.submitted, n as u64);
    assert_eq!(report.gate_rejected, 0);
    let c = report
        .cluster
        .as_ref()
        .expect("cluster mode sets the field");
    assert_eq!(c.completed, n as u64);
    assert_eq!(c.migrations, n as u64, "every plain request migrates");
    assert!(c.migrations > 0 && c.migrated_bytes > 0);
    assert!(c.kv_pools_drained(), "both replicas drain");
    assert_eq!(report.runtime.kv_exports, n as u64);
    assert_eq!(report.runtime.kv_imports, n as u64);
}

#[test]
fn stream_drop_mid_generation_cancels_and_frees_pages() {
    let router = Router::start(
        RouterConfig {
            stream_capacity: 2,
            ..router_cfg()
        },
        runtime_cfg(),
    )
    .unwrap();
    // A long request whose client walks away after two tokens.
    let dropped = router
        .submit("anna", RuntimeRequest::new(16, 32, 5))
        .unwrap();
    let mut seen = 0;
    while seen < 2 {
        match dropped.recv() {
            Some(StreamItem::Token { .. }) => seen += 1,
            Some(StreamItem::Done(_)) => panic!("dropped request must not finish"),
            None => panic!("stream ended early"),
        }
    }
    drop(dropped);
    // A bystander request in the same runtime must be unaffected.
    let ok = router.submit("ben", RuntimeRequest::new(8, 4, 6)).unwrap();
    let (rows, outcome) = ok.collect_all();
    assert_eq!(rows.len(), 4);
    assert!(matches!(outcome, Some(RequestOutcome::Completed(_))));
    let report = router.shutdown();
    assert_eq!(report.runtime.stream_dropped, 1, "drop must be observed");
    assert_eq!(report.runtime.cancelled, 1);
    assert_eq!(report.runtime.completed(), 1);
    assert!(report.reconciles(), "cancelled request accounted exactly");
    assert!(report.runtime.kv_pool_drained(), "dropped KV pages freed");
}

#[test]
fn drain_under_load_serves_everything_and_closes_intake() {
    let reqs = request_mix(64, 17);
    let router = Arc::new(Router::start(router_cfg(), runtime_cfg()).unwrap());
    // Flood the router (no pacing), then begin the drain while the
    // backlog is still deep, with a rival submitter hammering intake
    // throughout — every one of its submissions must either be accepted
    // (and then served) or refused with the typed `ShuttingDown` error.
    let streams: Vec<_> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| router.submit(TENANTS[i % 3], *r).unwrap())
        .collect();
    let rival = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || {
            let mut accepted = Vec::new();
            loop {
                match router.submit("ben", RuntimeRequest::new(6, 3, 777)) {
                    Ok(s) => accepted.push(s),
                    Err(SubmitError::ShuttingDown) => break,
                    Err(e) => panic!("unexpected gate error during drain: {e}"),
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            accepted
        })
    };
    // Let the flood and the rival overlap, then close intake mid-load.
    std::thread::sleep(Duration::from_millis(3));
    let health = router.health();
    assert_eq!(health.state, RouterState::Accepting);
    assert!(
        health.queued + health.in_flight > 0,
        "drain must start under load"
    );
    router.begin_drain();
    assert!(matches!(
        router.health().state,
        RouterState::Draining | RouterState::Stopped
    ));
    let rival_streams = rival.join().unwrap();
    let accepted = 64 + rival_streams.len() as u64;
    // Every accepted stream — pre-drain flood and rival alike — ends in a
    // terminal Completed event: the drain serves everything out.
    for s in streams.into_iter().chain(rival_streams) {
        let (_, outcome) = s.collect_all();
        assert!(matches!(outcome, Some(RequestOutcome::Completed(_))));
    }
    // The drain has fully quiesced once every stream closed.
    while router.health().state != RouterState::Stopped {
        std::thread::sleep(Duration::from_millis(1));
    }
    let router = Arc::try_unwrap(router).ok().expect("rival clone joined");
    let report = router.shutdown();
    assert_eq!(report.runtime.completed(), accepted);
    assert!(report.gate_rejected >= 1, "rival saw ShuttingDown");
    assert!(report.reconciles());
    assert!(report.runtime.kv_pool_drained());
}
