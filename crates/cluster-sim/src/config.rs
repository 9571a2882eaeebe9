//! Cluster configuration: the validated [`ClusterConfig`], its
//! builder, and the buddy-ring topology/provisioning arithmetic.
//!
//! [`ClusterConfig`] describes the *shape* of a simulated cluster —
//! nodes, ranks, container sizes, intervals, failure injection — and
//! nothing about what a particular run should collect. Output
//! selection (tracing, metrics, durable stores, profiling) lives in
//! [`crate::run::RunOptions`] instead, so one config can drive many
//! runs with different instrumentation and the byte-identity gates
//! compare like with like.
//!
//! Construction goes through [`ClusterConfig::builder`], which
//! validates and returns `Result<ClusterConfig, ConfigError>` —
//! mirroring `EngineConfig::builder()`. The struct is
//! `#[non_exhaustive]`: fields stay publicly readable and writable,
//! but literal construction outside this crate must use the builder,
//! so adding a knob is never a breaking change again.
//!
//! All ring-buddy and capacity arithmetic that used to be scattered
//! through the simulator (`(n + 1) % nodes` in four places, headroom
//! terms inlined into provisioning) is centralized here:
//! [`ClusterConfig::buddy_of`], [`ClusterConfig::hosted_by`],
//! [`ClusterConfig::node_nvm_capacity`] and friends are the single
//! source of truth the simulator, the recovery ladder, and the restart
//! cost models all consult.

use crate::failure::{FailureConfig, FailureSchedule};
use nvm_chkpt::EngineConfig;
use nvm_emu::SimDuration;
use rdma_sim::HelperParams;

/// Remote checkpointing configuration.
#[derive(Clone, Copy, Debug)]
pub struct RemoteConfig {
    /// Remote checkpoint interval (>= local interval; the paper uses
    /// 47-180 s against a 40 s local interval).
    pub interval: SimDuration,
    /// Remote pre-copy on/off.
    pub precopy: bool,
    /// Per-node link bandwidth, bytes/s.
    pub link_bandwidth: f64,
    /// Helper cost parameters.
    pub helper: HelperParams,
}

impl RemoteConfig {
    /// 40 Gb/s InfiniBand with default helper costs.
    pub fn infiniband(interval: SimDuration, precopy: bool) -> Self {
        RemoteConfig {
            interval,
            precopy,
            link_bandwidth: rdma_sim::IB_40GBPS,
            helper: HelperParams::default(),
        }
    }
}

/// Smallest per-rank container the simulator provisions for. Two
/// version slots plus allocator slack have to fit in it; anything
/// below a mebibyte cannot hold a meaningful checkpoint.
pub const MIN_CONTAINER_BYTES: usize = 1 << 20;

/// An invalid [`ClusterConfig`], reported by
/// [`ClusterConfigBuilder::build`] (and re-checked when a simulator is
/// constructed, so hand-mutated configs cannot sneak past).
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `nodes` must be >= 1.
    NoNodes,
    /// `ranks_per_node` must be >= 1.
    NoRanksPerNode,
    /// `container_bytes` is below [`MIN_CONTAINER_BYTES`].
    ContainerTooSmall {
        /// Requested container size.
        bytes: usize,
        /// The minimum the simulator provisions for.
        min: usize,
    },
    /// `threads` must be >= 1 (1 = fully serial).
    ZeroThreads,
}

nvm_emu::error_enum! {
    ConfigError, f {
        leaf ConfigError::NoNodes => write!(f, "cluster must have at least one node"),
        leaf ConfigError::NoRanksPerNode =>
            write!(f, "cluster must have at least one rank per node"),
        leaf ConfigError::ContainerTooSmall { bytes, min } => write!(
            f,
            "container of {bytes} bytes is below the {min}-byte minimum"
        ),
        leaf ConfigError::ZeroThreads => write!(f, "threads must be >= 1 (1 = serial)"),
    }
}

/// Cluster/run configuration. See the module docs; construct with
/// [`ClusterConfig::builder`] or [`ClusterConfig::new`].
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Ranks (cores) per node.
    pub ranks_per_node: usize,
    /// NVM container bytes per rank.
    pub container_bytes: usize,
    /// Engine configuration (pre-copy policy, versioning, ...).
    pub engine: EngineConfig,
    /// Fixed effective NVM bandwidth per core; `None` uses the
    /// contended Figure-4 curve.
    pub nvm_bw_per_core: Option<f64>,
    /// Local checkpoint interval; `None` disables local checkpoints
    /// (ideal runs).
    pub local_interval: Option<SimDuration>,
    /// Remote checkpointing; `None` disables it.
    pub remote: Option<RemoteConfig>,
    /// Iterations to run.
    pub iterations: u64,
    /// Failure injection; `None` is a failure-free run.
    pub failures: Option<FailureConfig>,
    /// Horizon for failure-schedule generation.
    pub failure_horizon: SimDuration,
    /// Explicit failure schedule, overriding generation from
    /// [`ClusterConfig::failures`] — scripted failure scenarios for
    /// recovery tests and experiments.
    pub schedule_override: Option<FailureSchedule>,
    /// Worker threads for rank execution (`1` = fully serial). Ranks
    /// advance private virtual clocks inside an epoch and synchronize
    /// only at the coordinated-checkpoint barriers, so a parallel run
    /// is bit-identical to a serial run on the same seed: per-rank
    /// state is disjoint, device charge costs depend only on
    /// length/concurrency (never on arrival order), and every
    /// cross-rank reduction iterates in rank order on the
    /// coordinator.
    pub threads: usize,
    /// Spill byte-materialized device contents to per-device files
    /// (default `true`). Every region a rank's engines or the buddy
    /// remote stores allocate then lives on disk instead of process
    /// RAM; devices charge identical virtual time, wear, and stats
    /// either way, so spilling never changes simulation results —
    /// it only bounds resident memory, which is what makes 1024-rank
    /// byte-materialized runs feasible. Synthetic runs hold no bytes
    /// and ignore this knob.
    pub spill: bool,
}

impl ClusterConfig {
    /// Start building a config. Defaults: 1 node x 1 rank, 64 MiB
    /// containers, synthetic engine, 40 s local interval, 10
    /// iterations, serial execution, spill enabled.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            config: ClusterConfig {
                nodes: 1,
                ranks_per_node: 1,
                container_bytes: 64 << 20,
                engine: EngineConfig::default(),
                nvm_bw_per_core: None,
                local_interval: Some(SimDuration::from_secs(40)),
                remote: None,
                iterations: 10,
                failures: None,
                failure_horizon: SimDuration::from_secs(86_400),
                schedule_override: None,
                threads: 1,
                spill: true,
            },
            engine: None,
        }
    }

    /// A small default cluster (the paper's 8 nodes x 12 cores is the
    /// bench-scale setting; tests use fewer ranks). Panics on zero
    /// nodes or ranks — use [`ClusterConfig::builder`] for fallible
    /// construction.
    pub fn new(nodes: usize, ranks_per_node: usize) -> Self {
        ClusterConfig::builder()
            .nodes(nodes)
            .ranks_per_node(ranks_per_node)
            .build()
            .expect("ClusterConfig::new requires nodes >= 1 and ranks_per_node >= 1")
    }

    /// Check the invariants the builder enforces; the simulator
    /// re-runs this on construction so a hand-mutated config cannot
    /// bypass them.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.ranks_per_node == 0 {
            return Err(ConfigError::NoRanksPerNode);
        }
        if self.container_bytes < MIN_CONTAINER_BYTES {
            return Err(ConfigError::ContainerTooSmall {
                bytes: self.container_bytes,
                min: MIN_CONTAINER_BYTES,
            });
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(())
    }

    /// Set the rank-execution worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Inject an explicit failure schedule instead of generating one
    /// (builder style).
    pub fn with_failure_schedule(mut self, schedule: FailureSchedule) -> Self {
        self.schedule_override = Some(schedule);
        self
    }

    /// The matching ideal (no checkpoint, no failure) configuration —
    /// the denominator of the paper's efficiency metric.
    pub fn ideal_variant(&self) -> Self {
        let mut c = self.clone();
        c.engine = c.engine.with_precopy(nvm_chkpt::PrecopyPolicy::None);
        c.local_interval = None;
        c.remote = None;
        c.failures = None;
        c.schedule_override = None;
        c
    }

    // ---- topology -------------------------------------------------

    /// Total ranks across the cluster.
    pub fn total_ranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    /// Ranks hosted by `node`. The ring is uniform today, but every
    /// capacity and restart-cost formula asks per node so a
    /// heterogeneous topology only has to change this one function.
    pub fn node_rank_count(&self, _node: usize) -> usize {
        self.ranks_per_node
    }

    /// Global rank number of `node`'s first (lowest) rank.
    pub fn first_rank(&self, node: usize) -> u64 {
        (node * self.ranks_per_node) as u64
    }

    /// The ring buddy that hosts `node`'s remote checkpoint copy.
    pub fn buddy_of(&self, node: usize) -> usize {
        (node + 1) % self.nodes
    }

    /// The ring neighbour whose remote copy `node` hosts (the inverse
    /// of [`ClusterConfig::buddy_of`]).
    pub fn hosted_by(&self, node: usize) -> usize {
        (node + self.nodes - 1) % self.nodes
    }

    // ---- provisioning ---------------------------------------------

    /// NVM bytes one rank's own state needs: two shadow version slots
    /// plus allocator slack.
    fn per_rank_nvm_bytes(&self) -> usize {
        self.container_bytes * 2 + (4 << 20)
    }

    /// Extra NVM headroom `node` provisions for the remote images it
    /// hosts — sized by the *hosted neighbour's* rank count, not its
    /// own, because that is whose data lands there.
    fn buddy_headroom_bytes(&self, node: usize) -> usize {
        self.container_bytes * 2 * self.node_rank_count(self.hosted_by(node))
    }

    /// Total NVM capacity provisioned on `node`: its own ranks plus
    /// the buddy headroom.
    pub fn node_nvm_capacity(&self, node: usize) -> usize {
        self.per_rank_nvm_bytes() * self.node_rank_count(node) + self.buddy_headroom_bytes(node)
    }

    /// DRAM capacity provisioned on `node` (working copies + slack).
    pub fn node_dram_capacity(&self, node: usize) -> usize {
        self.container_bytes * self.node_rank_count(node) + (64 << 20)
    }

    /// Per-node interconnect bandwidth, whether or not remote
    /// checkpointing is enabled (restart-cost models charge the wire
    /// either way).
    pub fn link_bandwidth(&self) -> f64 {
        self.remote
            .map(|r| r.link_bandwidth)
            .unwrap_or(rdma_sim::IB_40GBPS)
    }
}

/// Builder for [`ClusterConfig`]; see [`ClusterConfig::builder`].
#[derive(Clone, Debug)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
    /// Explicit engine override; when absent, `build` derives a
    /// synthetic engine with `node_concurrency = ranks_per_node`
    /// (matching what `ClusterConfig::new` always did).
    engine: Option<EngineConfig>,
}

impl ClusterConfigBuilder {
    /// Number of nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Ranks (cores) per node.
    pub fn ranks_per_node(mut self, ranks: usize) -> Self {
        self.config.ranks_per_node = ranks;
        self
    }

    /// NVM container bytes per rank.
    pub fn container_bytes(mut self, bytes: usize) -> Self {
        self.config.container_bytes = bytes;
        self
    }

    /// Engine configuration. When not set, `build` uses a synthetic
    /// checksum-less engine with `node_concurrency` matching the rank
    /// count.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Local checkpoint interval; `None` disables local checkpoints.
    pub fn local_interval(mut self, interval: Option<SimDuration>) -> Self {
        self.config.local_interval = interval;
        self
    }

    /// Enable remote checkpointing.
    pub fn remote(mut self, remote: RemoteConfig) -> Self {
        self.config.remote = Some(remote);
        self
    }

    /// Iterations to run.
    pub fn iterations(mut self, iterations: u64) -> Self {
        self.config.iterations = iterations;
        self
    }

    /// Scripted failure schedule (overrides generation).
    pub fn schedule(mut self, schedule: FailureSchedule) -> Self {
        self.config.schedule_override = Some(schedule);
        self
    }

    /// Worker threads for rank execution (1 = serial).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let mut config = self.config;
        config.engine = match self.engine {
            Some(engine) => engine,
            None => EngineConfig::builder()
                .materialization(nvm_chkpt::Materialization::Synthetic)
                .checksums(false)
                .node_concurrency(config.ranks_per_node.max(1))
                .build()
                .expect("default cluster engine config is valid"),
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_legacy_new() {
        let c = ClusterConfig::new(2, 3);
        assert_eq!((c.nodes, c.ranks_per_node), (2, 3));
        assert_eq!(c.container_bytes, 64 << 20);
        assert_eq!(c.iterations, 10);
        assert_eq!(c.threads, 1);
        assert!(c.spill);
        assert_eq!(c.local_interval, Some(SimDuration::from_secs(40)));
        assert!(c.remote.is_none() && c.failures.is_none());
    }

    #[test]
    fn build_rejects_invalid_shapes() {
        assert_eq!(
            ClusterConfig::builder().nodes(0).build().unwrap_err(),
            ConfigError::NoNodes
        );
        assert_eq!(
            ClusterConfig::builder()
                .ranks_per_node(0)
                .build()
                .unwrap_err(),
            ConfigError::NoRanksPerNode
        );
        assert_eq!(
            ClusterConfig::builder().threads(0).build().unwrap_err(),
            ConfigError::ZeroThreads
        );
        match ClusterConfig::builder().container_bytes(1024).build() {
            Err(ConfigError::ContainerTooSmall { bytes: 1024, min }) => {
                assert_eq!(min, MIN_CONTAINER_BYTES)
            }
            other => panic!("expected ContainerTooSmall, got {other:?}"),
        }
        // Errors display as readable sentences.
        assert!(ConfigError::NoNodes.to_string().contains("node"));
    }

    #[test]
    fn validate_catches_hand_mutated_configs() {
        let mut c = ClusterConfig::new(2, 2);
        assert!(c.validate().is_ok());
        c.threads = 0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroThreads);
    }

    #[test]
    fn ring_topology_helpers_agree() {
        let c = ClusterConfig::new(4, 3);
        assert_eq!(c.total_ranks(), 12);
        assert_eq!(c.first_rank(2), 6);
        for n in 0..4 {
            assert_eq!(c.hosted_by(c.buddy_of(n)), n, "hosted_by inverts buddy_of");
            assert_eq!(c.node_rank_count(n), 3);
        }
        assert_eq!(c.buddy_of(3), 0, "the ring wraps");
        // Single node: its own buddy (remote copies are degenerate).
        let solo = ClusterConfig::new(1, 2);
        assert_eq!(solo.buddy_of(0), 0);
        assert_eq!(solo.hosted_by(0), 0);
    }

    #[test]
    fn provisioning_decomposes_into_rank_and_buddy_shares() {
        let c = ClusterConfig::new(2, 4);
        let own = c.per_rank_nvm_bytes() * c.node_rank_count(0);
        assert_eq!(
            c.node_nvm_capacity(0),
            own + c.buddy_headroom_bytes(0),
            "capacity = own ranks + hosted buddy headroom"
        );
        assert_eq!(
            c.buddy_headroom_bytes(0),
            c.container_bytes * 2 * c.node_rank_count(c.hosted_by(0))
        );
        assert!(c.node_dram_capacity(0) > c.container_bytes * 4);
        assert_eq!(c.link_bandwidth(), rdma_sim::IB_40GBPS);
    }
}
