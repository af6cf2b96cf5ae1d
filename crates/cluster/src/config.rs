//! Cluster topology: how many replicas, what role each plays, and how
//! the inter-replica migration link is priced.

use fi_runtime::{KvPrecision, RuntimeConfig};

/// What part of the request lifecycle a replica serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ReplicaRole {
    /// Full lifecycle: prefill and decode (the aggregated default).
    Unified,
    /// Disaggregated prefill: runs chunked prefill only, then exports
    /// each request's KV pages for migration to a decode replica.
    Prefill,
    /// Disaggregated decode: imports migrated KV pages and decodes.
    /// Also serves full-lifecycle requests that cannot migrate
    /// (shared-prefix sessions stay aggregated).
    Decode,
}

/// One replica: an independent `fi-runtime` instance plus its role.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The runtime configuration this replica starts with.
    pub runtime: RuntimeConfig,
    /// KV storage precision of the replica's pool. Migration requires
    /// source and target dtypes to match (the snapshot round-trip is
    /// only byte-stable within one storage dtype).
    pub precision: KvPrecision,
    /// The replica's lifecycle role.
    pub role: ReplicaRole,
}

impl ReplicaConfig {
    /// A unified replica over `runtime` with f32 KV storage.
    pub fn unified(runtime: RuntimeConfig) -> ReplicaConfig {
        ReplicaConfig {
            runtime,
            precision: KvPrecision::default(),
            role: ReplicaRole::Unified,
        }
    }

    /// The same runtime config in a given role.
    pub fn with_role(runtime: RuntimeConfig, role: ReplicaRole) -> ReplicaConfig {
        ReplicaConfig {
            runtime,
            precision: KvPrecision::default(),
            role,
        }
    }
}

/// Configuration of a [`crate::ClusterRouter`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The replicas, index order = replica id. Either all
    /// [`ReplicaRole::Unified`], or a disaggregated mix with at least
    /// one prefill and one decode replica.
    pub replicas: Vec<ReplicaConfig>,
    /// Per-replica admission cap: at most this many requests in flight
    /// on one replica before placement backs off to another (or waits).
    /// This is the cluster's backpressure seam — it should sit at or
    /// below the replica's own `queue_capacity` so the inner runtime
    /// gate never bounces a placed request.
    pub max_in_flight: usize,
    /// Bandwidth of the simulated inter-replica transfer link in
    /// bytes/second (e.g. `fi_gpusim::GpuSpec::A100_40G.pcie_bandwidth`).
    /// Migration time is priced by the same `CommCost` ring model the
    /// tensor-parallel workers use.
    pub link_bandwidth: f64,
}

impl ClusterConfig {
    /// `n` identical unified replicas over one runtime config.
    pub fn homogeneous(n: usize, runtime: RuntimeConfig) -> ClusterConfig {
        ClusterConfig {
            replicas: (0..n)
                .map(|_| ReplicaConfig::unified(runtime.clone()))
                .collect(),
            ..ClusterConfig::default_shape()
        }
    }

    /// A 1-prefill + 1-decode disaggregated pair over one runtime config.
    pub fn disaggregated_pair(runtime: RuntimeConfig) -> ClusterConfig {
        ClusterConfig {
            replicas: vec![
                ReplicaConfig::with_role(runtime.clone(), ReplicaRole::Prefill),
                ReplicaConfig::with_role(runtime, ReplicaRole::Decode),
            ],
            ..ClusterConfig::default_shape()
        }
    }

    fn default_shape() -> ClusterConfig {
        ClusterConfig {
            replicas: Vec::new(),
            max_in_flight: 8,
            link_bandwidth: 32e9,
        }
    }

    /// True when any replica runs a disaggregated role.
    pub fn disaggregated(&self) -> bool {
        self.replicas.iter().any(|r| r.role != ReplicaRole::Unified)
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.replicas.is_empty() {
            return Err("cluster needs at least one replica".into());
        }
        if self.max_in_flight == 0 {
            return Err("max_in_flight must be positive".into());
        }
        if !(self.link_bandwidth.is_finite() && self.link_bandwidth > 0.0) {
            return Err("link_bandwidth must be finite and positive".into());
        }
        let prefill = self.count_role(ReplicaRole::Prefill);
        let decode = self.count_role(ReplicaRole::Decode);
        if (prefill > 0) != (decode > 0) {
            return Err("disaggregated clusters need both prefill and decode replicas".into());
        }
        if self.disaggregated() {
            let d0 = self.replicas[0].precision.dtype;
            if self.replicas.iter().any(|r| r.precision.dtype != d0) {
                return Err("disaggregated replicas must share one KV storage dtype".into());
            }
            let w0 = self.replicas[0].runtime.heads.kv_width();
            if self
                .replicas
                .iter()
                .any(|r| r.runtime.heads.kv_width() != w0)
            {
                return Err("disaggregated replicas must share one KV row width".into());
            }
        }
        Ok(())
    }

    pub(crate) fn count_role(&self, role: ReplicaRole) -> usize {
        self.replicas.iter().filter(|r| r.role == role).count()
    }
}
