//! # fi-cluster — multi-replica serving over independent runtimes
//!
//! Scales `fi-runtime` out instead of up: a [`ClusterRouter`] owns N
//! independent [`fi_runtime::Runtime`] replicas and places every accepted
//! request on exactly one of them.
//!
//! * **Radix-aware affinity** — a request declaring a
//!   [`fi_runtime::SharedPrefix`] sticks to the replica that already holds
//!   that prefix, so the runtime's radix/cascade machinery keeps its hit
//!   rate; the first request of a session claims the home, subsequent ones
//!   follow it ([`ClusterRouter::affinity_of`]).
//! * **Least-outstanding-tokens balancing** with a per-replica in-flight
//!   cap as admission backpressure — the policy is
//!   [`fi_serving::policy::place_replica`], a pure function shared with
//!   its unit tests.
//! * **Disaggregated prefill/decode** — with [`config::ReplicaRole`]
//!   `Prefill`/`Decode` replicas configured, plain requests prefill on a
//!   prefill replica, export their KV pages as a
//!   [`fi_runtime::KvSnapshot`], migrate over a simulated link priced by
//!   the `fi-dist` `CommCost` ring model, and resume decoding on a decode
//!   replica — bit-identical to running the whole lifecycle in one
//!   runtime.
//! * **Drain/failover** — [`ClusterRouter::drain`] takes a replica out of
//!   placement; its in-flight work finishes, its affinity entries drop,
//!   and queued prefix sessions re-prefill on a new home.
//!
//! [`metrics::ClusterMetrics`] reconciles on two layers (requests at the
//! cluster gate, request legs inside the runtimes); see its docs for the
//! exact identities.

pub mod config;
pub mod metrics;
pub mod router;

pub use config::{ClusterConfig, ReplicaConfig, ReplicaRole};
pub use metrics::{ClusterMetrics, ReplicaReport};
pub use router::{ClusterError, ClusterRouter, ReplicaHealth};

#[cfg(test)]
mod tests {
    use super::*;
    use fi_runtime::{
        RejectReason, RequestOutcome, Runtime, RuntimeConfig, RuntimeRequest, SubmitMode,
        SubmitOptions,
    };

    fn tiny_runtime_cfg() -> RuntimeConfig {
        RuntimeConfig {
            num_workers: 2,
            ..RuntimeConfig::default()
        }
    }

    fn req(i: u64) -> RuntimeRequest {
        RuntimeRequest {
            prompt_len: 5 + (i as usize % 7),
            output_len: 3 + (i as usize % 3),
            seed: 100 + i,
            deadline: None,
            prefix: None,
            tenant: 0,
        }
    }

    fn direct_outputs(reqs: &[RuntimeRequest]) -> Vec<Vec<Vec<f32>>> {
        let rt = Runtime::start(tiny_runtime_cfg()).expect("runtime");
        let handles: Vec<_> = reqs.iter().map(|r| rt.submit(*r)).collect();
        let outs = handles
            .into_iter()
            .map(|h| match h.wait() {
                RequestOutcome::Completed(c) => c.outputs,
                other => panic!("direct run failed: {other:?}"),
            })
            .collect();
        let m = rt.finish();
        assert!(m.reconciles());
        outs
    }

    #[test]
    fn two_replicas_match_single_runtime_bit_exactly() {
        let reqs: Vec<_> = (0..12).map(req).collect();
        let want = direct_outputs(&reqs);

        let cluster =
            ClusterRouter::start(ClusterConfig::homogeneous(2, tiny_runtime_cfg())).expect("start");
        let handles: Vec<_> = reqs.iter().map(|r| cluster.submit(*r)).collect();
        for (h, want) in handles.into_iter().zip(&want) {
            match h.wait() {
                RequestOutcome::Completed(c) => assert_eq!(&c.outputs, want),
                other => panic!("cluster run failed: {other:?}"),
            }
        }
        let m = cluster.finish();
        assert!(m.reconciles(), "cluster must reconcile: {m:?}");
        assert_eq!(m.submitted, 12);
        assert_eq!(m.completed, 12);
        assert_eq!(m.migrations, 0);
        assert_eq!(m.placements_balanced + m.placements_affinity, 12);
        assert!(m.kv_pools_drained());
        assert_eq!(m.replicas.len(), 2);
        assert!(
            m.replicas.iter().all(|r| r.placed > 0),
            "both replicas used"
        );
    }

    #[test]
    fn disaggregated_pair_migrates_and_stays_bit_exact() {
        let reqs: Vec<_> = (0..8).map(req).collect();
        let want = direct_outputs(&reqs);

        let cluster = ClusterRouter::start(ClusterConfig::disaggregated_pair(tiny_runtime_cfg()))
            .expect("start");
        let handles: Vec<_> = reqs.iter().map(|r| cluster.submit(*r)).collect();
        for (h, want) in handles.into_iter().zip(&want) {
            match h.wait() {
                RequestOutcome::Completed(c) => assert_eq!(&c.outputs, want),
                other => panic!("disaggregated run failed: {other:?}"),
            }
        }
        let m = cluster.finish();
        assert!(m.reconciles(), "cluster must reconcile: {m:?}");
        assert_eq!(m.completed, 8);
        assert_eq!(m.migrations, 8, "every request migrates in a pure pair");
        assert_eq!(m.placements_disaggregated, 8);
        assert!(m.migrated_pages > 0);
        assert!(m.migrated_bytes > 0);
        assert!(m.transfer_seconds > 0.0);
        assert!(m.kv_pools_drained());
    }

    #[test]
    fn migration_legs_are_the_clusters_to_plan() {
        let cluster =
            ClusterRouter::start(ClusterConfig::homogeneous(1, tiny_runtime_cfg())).expect("start");
        let h = cluster.submit_with(
            req(0),
            SubmitOptions {
                stream: None,
                leg: SubmitMode::PrefillOnly,
            },
        );
        assert_eq!(
            h.wait(),
            RequestOutcome::Rejected(RejectReason::UnsupportedOptions)
        );
        let m = cluster.finish();
        assert_eq!((m.submitted, m.rejected), (1, 1));
        assert!(m.reconciles(), "a gate rejection is still accounted: {m:?}");
    }

    #[test]
    fn invalid_configs_are_rejected_at_start() {
        let empty = ClusterConfig::homogeneous(0, tiny_runtime_cfg());
        assert!(ClusterRouter::start(empty).is_err());

        let mut prefill_only = ClusterConfig::homogeneous(1, tiny_runtime_cfg());
        prefill_only.replicas[0].role = ReplicaRole::Prefill;
        assert!(ClusterRouter::start(prefill_only).is_err());
    }
}
