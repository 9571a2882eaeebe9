//! The multi-node checkpoint simulator.
//!
//! [`Cluster`] reproduces the paper's experimental setup: a cluster
//! of nodes (8 x 12 cores in the paper), one MPI rank per core, each
//! rank running a [`Workload`] against its own
//! [`nvm_chkpt::CheckpointEngine`].
//! Ranks advance private virtual clocks in parallel and synchronize at
//! coordinated checkpoints (a barrier takes every clock to the max).
//! Per-node NVM devices model intra-node bandwidth contention; per-node
//! links, helper processes, and buddy-node [`rdma_sim::RemoteStore`]s
//! model the remote checkpoint path.
//!
//! Two remote modes are simulated:
//!
//! * **no pre-copy** — at each remote interval the helper ships the
//!   entire checkpoint in one burst at full link rate; application
//!   communication that overlaps the burst suffers contention.
//! * **remote pre-copy** — every iteration the helper scans for
//!   chunks that are remote-stale but locally stable and ships them
//!   spread over the iteration window; only a small residue moves at
//!   the remote interval. Peak link usage drops accordingly (Fig. 10).
//!
//! Failure handling: soft failures charge the local restart cost and
//! roll execution back to the last local checkpoint. Hard failures on
//! a byte-materialized run are recovered for real — the node's devices
//! are wiped and the simulator walks a restore ladder (the rank's
//! durable containers if a store directory is attached and intact, the
//! buddy node's remote images fetched chunk-by-chunk over the
//! interconnect with retry/backoff on link faults and bit-for-bit
//! verification, a virgin restart when nothing recoverable exists),
//! then re-replicates the buddy copy the failed node was hosting. Each
//! recovery is described by a [`RecoveryRecord`] in
//! [`RunResult::recovery`]. Losing a node *and its ring buddy* to hard
//! failures in one collapsed batch is a typed
//! [`SimError::Unrecoverable`] error — the condition whose probability
//! [`crate::reliability`] models. Synthetic-materialization runs keep
//! the legacy analytic fetch-cost charge
//! ([`crate::RecoverySource::Modeled`]).
//!
//! This file is the API and the result types. The simulator behind
//! [`Cluster::run`] lives in the private submodules: `phases` (the
//! run loop as named phases over one loop state, and the end-of-run
//! reduction), `remote` (helper polling, link contention, remote
//! commit/ship), `recover` (failure handling and the restore ladder)
//! and `pool` (the worker pool).

use crate::app::Workload;
use crate::profile::{Phase, Profiler, RunProfile};
use crate::recovery::RecoveryRecord;
use crate::store::RankRecovery;
use nvm_chkpt::{EngineError, EngineStats};
use nvm_emu::SimDuration;
use nvm_metrics::MetricsReport;
use nvm_obs::FlightDump;
use nvm_store::{PersistError, StoreStats};
use nvm_trace::TraceEvent;
use rdma_sim::armci::RemoteError;
use rdma_sim::{HelperStats, UsageTrace};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

mod phases;
mod pool;
mod recover;
mod remote;

pub use crate::config::{ClusterConfig, ConfigError, RemoteConfig};

/// Events per rank a [`SimError::WithFlight`] dump keeps: the tail of
/// each rank's trace at the moment the run died.
pub const FLIGHT_TAIL: usize = 16;

/// Errors from a simulation run.
#[non_exhaustive]
#[derive(Debug)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// Engine-level failure.
    Engine(EngineError),
    /// Remote-store failure.
    Remote(RemoteError),
    /// A buddy pair was lost within one interval: the failed node's
    /// remote copy lived on the buddy, so no surviving copy exists —
    /// the run cannot continue (Section IV's unrecoverable case).
    Unrecoverable {
        /// Hard-failed node.
        node: usize,
        /// Its buddy — the node hosting its remote copy — also lost.
        buddy: usize,
        /// Iteration count when the double failure was handled.
        iteration: u64,
    },
    /// A restored chunk's bytes did not match the recovered image —
    /// the recovery path itself is broken (never expected in a
    /// fault-free simulator; this is a self-check, not a model).
    RecoveryMismatch {
        /// Node being recovered.
        node: usize,
        /// Global rank whose chunk mismatched.
        rank: u64,
        /// Chunk id that mismatched.
        chunk: u64,
    },
    /// A fatal error with the flight dump attached: the last
    /// [`FLIGHT_TAIL`] events of every rank's trace. Produced instead
    /// of the bare error when [`RunOptions::trace`] is set; match on
    /// [`SimError::cause`] to handle the underlying failure uniformly.
    WithFlight {
        /// The fatal error itself.
        source: Box<SimError>,
        /// Tail of every rank's event stream at the moment of death.
        dump: FlightDump,
    },
}

impl SimError {
    /// The underlying error, unwrapping a flight-recorder envelope.
    pub fn cause(&self) -> &SimError {
        match self {
            SimError::WithFlight { source, .. } => source.cause(),
            other => other,
        }
    }

    /// The attached flight dump, if the run was traced.
    pub fn flight(&self) -> Option<&FlightDump> {
        match self {
            SimError::WithFlight { dump, .. } => Some(dump),
            _ => None,
        }
    }
}

nvm_emu::error_enum! {
    SimError, f {
        wrap Config(ConfigError) => "config",
        wrap Engine(EngineError) => "engine",
        wrap Remote(RemoteError) => "remote",
        leaf SimError::Unrecoverable { node, buddy, iteration } => write!(
            f,
            "unrecoverable: node {node} and buddy {buddy} lost in one interval \
             (iteration {iteration})"
        ),
        leaf SimError::RecoveryMismatch { node, rank, chunk } => write!(
            f,
            "recovery mismatch on node {node}: rank {rank} chunk {chunk} \
             differs from its recovered image"
        ),
        leaf SimError::WithFlight { source, dump } => write!(f, "{source}\n{}", dump.render()),
    }
}

/// Results of one simulated run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Wall (virtual) time of the whole run.
    pub total_time: SimDuration,
    /// Iterations executed (including redone ones).
    pub iterations_executed: u64,
    /// Coordinated local checkpoints taken.
    pub local_checkpoints: u64,
    /// Remote checkpoints committed.
    pub remote_checkpoints: u64,
    /// Engine statistics summed over every rank.
    pub engine_stats: EngineStats,
    /// Per-node link usage traces.
    pub link_traces: Vec<UsageTrace>,
    /// Per-node helper statistics.
    pub helper_stats: Vec<HelperStats>,
    /// Per-node helper core utilization.
    pub helper_utilization: Vec<f64>,
    /// Soft failures handled.
    pub soft_failures: u64,
    /// Hard failures handled.
    pub hard_failures: u64,
    /// Iterations redone due to failures.
    pub lost_iterations: u64,
    /// Checkpoint bytes per rank (`D`).
    pub checkpoint_bytes_per_rank: u64,
    /// Merged event trace in `(time, rank)` order; empty unless
    /// [`RunOptions::trace`] is set.
    pub trace: Vec<TraceEvent>,
    /// Merged metrics report (raw snapshot + derived paper metrics);
    /// `None` unless [`RunOptions::metrics`] is set.
    pub metrics: Option<MetricsReport>,
    /// Durable-store counters summed over every rank in rank order;
    /// `None` unless [`RunOptions::store_dir`] is set.
    pub store: Option<StoreStats>,
    /// One record per hard-failure node recovery, in handling order.
    pub recovery: Vec<RecoveryRecord>,
}

impl RunResult {
    /// Efficiency against an ideal run: `ideal / actual`.
    pub fn efficiency_vs(&self, ideal: &RunResult) -> f64 {
        ideal.total_time.as_secs_f64() / self.total_time.as_secs_f64()
    }

    /// Peak interconnect usage (bytes in the busiest bucket) over all
    /// node links.
    pub fn peak_link_bytes(&self) -> f64 {
        self.link_traces
            .iter()
            .map(|t| t.peak_bytes())
            .fold(0.0, f64::max)
    }
}

/// Per-run output selection: what a [`Cluster::run`] should collect
/// alongside the simulation result. One [`ClusterConfig`] describes
/// the cluster's *shape* and can drive differently-instrumented runs,
/// all through the same single entry point.
///
/// Every option is result-preserving: tracing, metrics, store
/// mirroring, and profiling each leave [`RunResult`] byte-identical
/// to an uninstrumented run (modulo the fields they fill in), at any
/// thread count.
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Collect a structured event trace. Each rank's engine records its
    /// own events; the node merges combine them in `(time, rank)` order
    /// into [`RunResult::trace`], bit-identical for serial and
    /// multi-threaded execution. A traced run that dies returns
    /// [`SimError::WithFlight`], the tail of those records attached.
    pub trace: bool,
    /// Collect aggregate metrics: a private registry per rank for what
    /// is recorded live, every other counter published from the stats
    /// structs at the node merges — all updates commute, so the snapshot
    /// in [`RunResult::metrics`] is bit-identical at any thread count.
    pub metrics: bool,
    /// Give every rank a durable container file (`rank_<g>.store`)
    /// under this directory and mirror each committed checkpoint into
    /// it. Mirroring is cost-free in virtual time, so a
    /// store-attached run's results are identical to the same run
    /// without one — but its checkpoints survive the process and can
    /// be recovered from the files alone (see
    /// [`Cluster::recover_dir`]).
    pub store_dir: Option<PathBuf>,
    /// Return the wall/CPU timing decomposition in
    /// [`RunOutcome::profile`]. Timing travels *next to* the result,
    /// never inside it — [`RunResult`] stays byte-identity-gated,
    /// timing is not.
    pub profile: bool,
}

impl RunOptions {
    /// No instrumentation: result only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable event-trace collection (builder style).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Enable or disable aggregate-metrics collection (builder style).
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attach per-rank durable container files under `dir` (builder
    /// style).
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Enable or disable run profiling (builder style).
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }
}

/// Where the run's device bytes actually lived: accounting for the
/// per-device spill files a byte-materialized run pushes its images
/// to (see [`ClusterConfig::spill`]). Reported next to the result —
/// like timing, it describes the host-side execution, not the
/// simulation, and must never enter the byte-identity-gated
/// [`RunResult`].
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct SpillReport {
    /// Devices that spilled (one NVM + one DRAM device per node).
    pub devices: usize,
    /// Sum of each spill file's live-byte high-water mark — the RAM
    /// an unspilled run would have held in `Vec<u8>` region backings
    /// (devices hold their steady-state images concurrently, so the
    /// per-device peaks effectively coincide).
    pub peak_bytes: u64,
    /// Bytes still live in spill files when the run ended.
    pub live_bytes: u64,
    /// Region bytes still resident in process RAM (materialized
    /// regions allocated outside spill coverage; 0 when every
    /// materialized region spilled).
    pub resident_bytes: u64,
    /// Bytes the devices read back from their spill files over the run
    /// (`MemoryDevice::spill_read_bytes`, summed).
    pub read_bytes: u64,
    /// Bytes the devices wrote to their spill files over the run.
    pub written_bytes: u64,
}

/// Everything a [`Cluster::run`] produces: the deterministic
/// simulation [`RunResult`], plus host-side side channels that must
/// stay out of it.
#[non_exhaustive]
#[derive(Debug)]
pub struct RunOutcome {
    /// The simulation result — byte-identical across thread counts.
    pub result: RunResult,
    /// Wall/CPU decomposition; `Some` iff [`RunOptions::profile`].
    pub profile: Option<RunProfile>,
    /// Spill-file accounting; `Some` iff the run spilled (see
    /// [`ClusterConfig::spill`]).
    pub spill: Option<SpillReport>,
}

/// The public entry point: a configured cluster plus the workload
/// factory, run with composable [`RunOptions`].
///
/// ```
/// use cluster_sim::{Cluster, ClusterConfig, RunOptions, UniformWorkload};
/// use nvm_emu::SimDuration;
///
/// let config = ClusterConfig::builder()
///     .nodes(2)
///     .ranks_per_node(2)
///     .iterations(4)
///     .local_interval(Some(SimDuration::from_secs(5)))
///     .build()
///     .unwrap();
/// let outcome = Cluster::new(config, |_g| {
///     Box::new(UniformWorkload::new(2, 1 << 20, SimDuration::from_secs(2), 1 << 20))
/// })
/// .run(RunOptions::new().with_profile(true))
/// .unwrap();
/// assert_eq!(outcome.result.iterations_executed, 4);
/// assert!(outcome.profile.is_some());
/// ```
pub struct Cluster {
    config: ClusterConfig,
    factory: Box<dyn FnMut(u64) -> Box<dyn Workload>>,
}

impl Cluster {
    /// A cluster of `config`'s shape; `factory(global_rank)` creates
    /// each rank's workload.
    pub fn new(
        config: ClusterConfig,
        factory: impl FnMut(u64) -> Box<dyn Workload> + 'static,
    ) -> Self {
        Cluster {
            config,
            factory: Box::new(factory),
        }
    }

    /// Run to completion with the given output selection.
    pub fn run(self, options: RunOptions) -> Result<RunOutcome, SimError> {
        let mut profiler = options.profile.then(|| Profiler::new(&self.config));
        let mut sim = Profiler::time(&mut profiler, Phase::Build, |_| {
            phases::ClusterSim::with_options(self.config, options, self.factory)
        })?;
        // Whatever ends a traced run early leaves with the black box.
        let outcome = sim
            .execute(&mut profiler)
            .map_err(|err| sim.attach_flight(err));
        Profiler::time(&mut profiler, Phase::Teardown, |_| sim.teardown());
        let mut outcome = outcome?;
        outcome.profile = profiler.map(Profiler::finish);
        Ok(outcome)
    }

    /// Scan `dir` for the `rank_<n>.store` container files a
    /// store-attached run left behind and recover every rank's
    /// container (sorted by rank). The files are the only input — this
    /// is the offline half of [`RunOptions::store_dir`].
    pub fn recover_dir(dir: impl AsRef<Path>) -> Result<Vec<RankRecovery>, PersistError> {
        crate::store::scan_store_dir(dir.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::UniformWorkload;
    use crate::failure::{FailureConfig, FailureKind, FailureSchedule};
    use crate::recovery::RecoverySource;
    use nvm_chkpt::{CheckpointEngine, Materialization, PrecopyPolicy};
    use nvm_emu::SimTime;
    use nvm_metrics::{names, MergeStats};
    use nvm_trace::TraceEventKind;

    const MB: usize = 1 << 20;

    fn small_config() -> ClusterConfig {
        let mut c = ClusterConfig::new(2, 2);
        c.container_bytes = 24 * MB;
        c.local_interval = Some(SimDuration::from_secs(5));
        c.iterations = 8;
        c
    }

    fn factory(_g: u64) -> Box<dyn Workload> {
        Box::new(UniformWorkload::new(
            4,
            2 * MB,
            SimDuration::from_secs(2),
            1 << 20,
        ))
    }

    fn run_cfg(cfg: ClusterConfig) -> Result<RunResult, SimError> {
        Cluster::new(cfg, factory)
            .run(RunOptions::new())
            .map(|o| o.result)
    }

    fn run_opts(cfg: ClusterConfig, opts: RunOptions) -> RunResult {
        Cluster::new(cfg, factory).run(opts).unwrap().result
    }

    /// The restart time a traced run's spans show, over every rank.
    fn restart_time(r: &RunResult) -> SimDuration {
        let spans = nvm_obs::build_spans(&r.trace);
        (spans.iter())
            .filter(|s| s.kind == nvm_obs::SpanKind::Restart)
            .map(|s| SimDuration::from_nanos(s.dur_ns))
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    #[test]
    fn basic_run_completes_with_checkpoints() {
        let r = run_cfg(small_config()).unwrap();
        assert_eq!(r.iterations_executed, 8);
        assert!(r.local_checkpoints >= 2, "got {}", r.local_checkpoints);
        assert!(r.total_time > SimDuration::from_secs(16));
        assert_eq!(r.checkpoint_bytes_per_rank, 8 * MB as u64);
        assert!(r.engine_stats.checkpoints >= 8); // 4 ranks x >= 2
    }

    #[test]
    fn ideal_variant_is_faster_than_checkpointed() {
        let cfg = small_config();
        let actual = run_cfg(cfg.clone()).unwrap();
        let ideal = run_cfg(cfg.ideal_variant()).unwrap();
        assert_eq!(ideal.local_checkpoints, 0);
        assert!(ideal.total_time < actual.total_time);
        let eff = actual.efficiency_vs(&ideal);
        assert!(eff > 0.3 && eff < 1.0, "efficiency {eff}");
    }

    #[test]
    fn precopy_beats_no_precopy_on_total_time() {
        let mut pre = small_config();
        pre.engine = pre.engine.with_precopy(PrecopyPolicy::Dcpcp);
        let mut nopre = small_config();
        nopre.engine = nopre.engine.with_precopy(PrecopyPolicy::None);
        let r_pre = run_cfg(pre).unwrap();
        let r_no = run_cfg(nopre).unwrap();
        assert!(
            r_pre.total_time < r_no.total_time,
            "precopy {} vs none {}",
            r_pre.total_time,
            r_no.total_time
        );
        assert!(r_pre.engine_stats.precopied_bytes > 0);
        assert_eq!(r_no.engine_stats.precopied_bytes, 0);
    }

    #[test]
    fn remote_precopy_halves_peak_link_usage() {
        // Volumes must exceed one trace bucket's worth of staging rate
        // for the rate difference to be visible: 4 x 160 MB per rank.
        let big_factory = |_g: u64| -> Box<dyn Workload> {
            Box::new(UniformWorkload::new(
                4,
                160 * MB,
                SimDuration::from_secs(2),
                1 << 20,
            ))
        };
        let mut pre = small_config();
        pre.container_bytes = 1400 * MB;
        pre.iterations = 12;
        pre.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let mut nopre = pre.clone();
        nopre.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), false));
        nopre.engine = nopre.engine.with_precopy(PrecopyPolicy::None);

        let r_pre = Cluster::new(pre, big_factory)
            .run(RunOptions::new())
            .unwrap()
            .result;
        let r_no = Cluster::new(nopre, big_factory)
            .run(RunOptions::new())
            .unwrap()
            .result;
        assert!(r_pre.remote_checkpoints >= 1);
        assert!(r_no.remote_checkpoints >= 1);
        let peak_pre = r_pre.peak_link_bytes();
        let peak_no = r_no.peak_link_bytes();
        assert!(
            peak_pre < peak_no * 0.7,
            "pre-copy peak {peak_pre} should be well under burst peak {peak_no}"
        );
    }

    #[test]
    fn soft_failures_cause_rollback_and_restart_time() {
        let mut cfg = small_config();
        cfg.iterations = 10;
        cfg.failures = Some(FailureConfig {
            seed: 11,
            mtbf_soft: SimDuration::from_secs(15),
            mtbf_hard: SimDuration::from_secs(1_000_000),
        });
        cfg.failure_horizon = SimDuration::from_secs(300);
        let r = run_opts(cfg.clone(), RunOptions::new().with_trace(true));
        assert!(r.soft_failures > 0, "expected soft failures");
        assert_eq!(r.hard_failures, 0);
        assert!(restart_time(&r) > SimDuration::ZERO);
        // Failures make the run slower than a failure-free one.
        let mut clean = cfg;
        clean.failures = None;
        let r_clean = run_cfg(clean).unwrap();
        assert!(r.total_time > r_clean.total_time);
        assert!(r.iterations_executed >= r_clean.iterations_executed);
    }

    #[test]
    fn parallel_run_bit_identical_to_serial() {
        let serial = run_cfg(small_config()).unwrap();
        let parallel = run_cfg(small_config().with_threads(3)).unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn parallel_run_reports_lowest_failing_rank_error() {
        // A workload that fails on rank 2 at iteration 1: the parallel
        // executor must surface that engine error deterministically.
        struct Failing {
            inner: UniformWorkload,
            global: u64,
        }
        impl Workload for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn setup(&mut self, engine: &mut CheckpointEngine) -> Result<(), EngineError> {
                self.inner.setup(engine)
            }
            fn iterate(
                &mut self,
                engine: &mut CheckpointEngine,
                iter: u64,
            ) -> Result<(), EngineError> {
                if self.global >= 2 && iter >= 1 {
                    return Err(EngineError::NoCommittedData(nvm_paging::ChunkId(
                        self.global,
                    )));
                }
                self.inner.iterate(engine, iter)
            }
        }
        let make = |g: u64| -> Box<dyn Workload> {
            Box::new(Failing {
                inner: UniformWorkload::new(4, 2 * MB, SimDuration::from_secs(2), 1 << 20),
                global: g,
            })
        };
        let err = Cluster::new(small_config().with_threads(4), make)
            .run(RunOptions::new())
            .unwrap_err();
        // Ranks 2 and 3 both fail; the executor must report the lowest.
        assert!(
            matches!(
                err,
                SimError::Engine(EngineError::NoCommittedData(nvm_paging::ChunkId(2)))
            ),
            "{err}"
        );
        // A traced run dies with the same cause, black box attached.
        let err = Cluster::new(small_config().with_threads(4), make)
            .run(RunOptions::new().with_trace(true))
            .unwrap_err();
        assert!(
            matches!(
                err.cause(),
                SimError::Engine(EngineError::NoCommittedData(nvm_paging::ChunkId(2)))
            ),
            "{err}"
        );
        assert_eq!(err.flight().map(|dump| dump.per_rank), Some(FLIGHT_TAIL));
    }

    #[test]
    fn traced_run_collects_merged_events() {
        let mut cfg = small_config();
        cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let r = run_opts(cfg, RunOptions::new().with_trace(true));
        assert!(!r.trace.is_empty());
        assert!(
            r.trace
                .windows(2)
                .all(|w| (w[0].t_ns, w[0].rank) <= (w[1].t_ns, w[1].rank)),
            "trace must be in (time, rank) order"
        );
        let summary = nvm_trace::summarize(&r.trace);
        assert!(summary.coordinated >= r.local_checkpoints);
        assert!(summary.remote_transfers >= r.remote_checkpoints);
        // Untraced runs keep the field empty.
        let quiet = run_cfg(small_config()).unwrap();
        assert!(quiet.trace.is_empty());
    }

    #[test]
    fn trace_bit_identical_serial_vs_parallel() {
        let mut cfg = small_config();
        cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let serial = run_opts(cfg.clone(), RunOptions::new().with_trace(true));
        let parallel = run_opts(cfg.with_threads(4), RunOptions::new().with_trace(true));
        assert!(!serial.trace.is_empty());
        assert_eq!(
            nvm_trace::to_jsonl(&serial.trace),
            nvm_trace::to_jsonl(&parallel.trace)
        );
    }

    #[test]
    fn metrics_disabled_by_default_and_parity() {
        let plain = run_cfg(small_config()).unwrap();
        assert!(plain.metrics.is_none());
        let metered = run_opts(small_config(), RunOptions::new().with_metrics(true));
        // Metering must not perturb the simulation itself.
        assert_eq!(plain.total_time, metered.total_time);
        assert_eq!(plain.engine_stats, metered.engine_stats);
    }

    #[test]
    fn metrics_bit_identical_serial_vs_parallel() {
        let mut cfg = small_config();
        cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let serial = run_opts(cfg.clone(), RunOptions::new().with_metrics(true));
        let parallel = run_opts(cfg.with_threads(4), RunOptions::new().with_metrics(true));
        let a = serde_json::to_string(&serial.metrics.unwrap()).unwrap();
        let b = serde_json::to_string(&parallel.metrics.unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn metrics_agree_with_merged_stats() {
        let mut cfg = small_config();
        cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let r = run_opts(cfg, RunOptions::new().with_metrics(true));
        let snap = &r.metrics.as_ref().unwrap().snapshot;
        assert!(snap.counter(names::CLUSTER_BARRIERS_TOTAL) > 0);
        assert!(snap.gauge(names::LINK_PEAK_BYTES_PER_S) > 0);
        let d = &r.metrics.as_ref().unwrap().derived;
        assert!(d.precopy_fraction > 0.0 && d.precopy_fraction <= 1.0);
        assert!(d.effective_nvm_bandwidth_bytes_per_s > 0.0);
    }

    #[test]
    fn each_helpers_registry_folds_into_the_report() {
        let mut cfg = small_config();
        cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let r = run_opts(cfg, RunOptions::new().with_metrics(true));
        let snap = &r.metrics.as_ref().unwrap().snapshot;
        let sizes = snap.histogram(names::HELPER_TRANSFER_BYTES).unwrap();
        let helpers = HelperStats::merged(&r.helper_stats);
        assert!(r.helper_stats.iter().filter(|h| h.copy_ops > 0).count() > 1);
        assert_eq!(sizes.count, helpers.copy_ops);
        assert_eq!(sizes.sum, helpers.bytes_copied);
    }

    #[test]
    fn helper_utilization_higher_with_precopy() {
        let mut pre = small_config();
        pre.iterations = 12;
        pre.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let mut nopre = pre.clone();
        nopre.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), false));
        nopre.engine = nopre.engine.with_precopy(PrecopyPolicy::None);
        let r_pre = run_cfg(pre).unwrap();
        let r_no = run_cfg(nopre).unwrap();
        let u_pre = r_pre.helper_utilization[0];
        let u_no = r_no.helper_utilization[0];
        assert!(
            u_pre > u_no,
            "pre-copy helper must work more: {u_pre} vs {u_no}"
        );
    }

    fn event(secs: u64, kind: FailureKind, node: usize) -> crate::failure::FailureEvent {
        crate::failure::FailureEvent {
            at: SimTime::from_secs(secs),
            kind,
            node,
        }
    }

    #[test]
    fn same_interval_failures_are_not_double_charged() {
        // Three events strike node 0 inside one iteration window; the
        // batch must collapse to the single hard failure: one rollback,
        // one restart span, no soft charge on top.
        let mut multi = small_config();
        multi.iterations = 10;
        let mut single = multi.clone();
        multi.schedule_override = Some(FailureSchedule::from_events(vec![
            event(10, FailureKind::Soft, 0),
            event(10, FailureKind::Hard, 0),
            event(10, FailureKind::Soft, 0),
        ]));
        single.schedule_override = Some(FailureSchedule::from_events(vec![event(
            10,
            FailureKind::Hard,
            0,
        )]));
        let traced = RunOptions::new().with_trace(true);
        let r_multi = run_opts(multi, traced.clone());
        let r_single = run_opts(single, traced);
        assert_eq!(r_multi.hard_failures, 1);
        assert_eq!(r_multi.soft_failures, 0, "soft events must be absorbed");
        assert_eq!(
            r_multi.lost_iterations, r_single.lost_iterations,
            "a collapsed batch must charge exactly one rollback"
        );
        assert_eq!(r_multi.total_time, r_single.total_time);
        assert_eq!(restart_time(&r_multi), restart_time(&r_single));
    }

    #[test]
    fn buddy_pair_loss_is_a_typed_unrecoverable_error() {
        // Node 0's sole surviving copy lives on node 1; losing both in
        // one interval must end the run with the typed error — and
        // identically at any thread count.
        let mut cfg = small_config();
        cfg.schedule_override = Some(FailureSchedule::from_events(vec![
            event(10, FailureKind::Hard, 0),
            event(10, FailureKind::Hard, 1),
        ]));
        let mut seen = Vec::new();
        for threads in [1, 4] {
            let err = run_cfg(cfg.clone().with_threads(threads)).unwrap_err();
            match err {
                SimError::Unrecoverable {
                    node,
                    buddy,
                    iteration,
                } => {
                    assert_eq!((node, buddy), (0, 1));
                    seen.push(iteration);
                }
                other => panic!("expected Unrecoverable, got {other}"),
            }
        }
        assert_eq!(seen[0], seen[1], "error must not depend on thread count");
    }

    #[test]
    fn hard_failure_on_one_node_of_a_pair_is_survivable() {
        // Same instant, but only one hard failure: the buddy's copy
        // survives and the run completes (modeled recovery here — the
        // byte-level path is pinned in `crate::store`'s tests).
        let mut cfg = small_config();
        cfg.iterations = 10;
        cfg.schedule_override = Some(FailureSchedule::from_events(vec![
            event(10, FailureKind::Hard, 0),
            event(10, FailureKind::Soft, 1),
        ]));
        let r = run_cfg(cfg).unwrap();
        assert_eq!(r.hard_failures, 1);
        assert_eq!(r.soft_failures, 1);
        assert_eq!(r.recovery.len(), 1);
        assert_eq!(r.recovery[0].source, RecoverySource::Modeled);
        assert_eq!(r.iterations_executed, 10 + r.lost_iterations);
    }

    #[test]
    fn profile_reports_merge_work_and_synthetic_runs_do_not_spill() {
        let out = Cluster::new(small_config().with_threads(2), factory)
            .run(RunOptions::new().with_profile(true))
            .unwrap();
        let p = out.profile.expect("profile requested");
        assert_eq!(p.threads, 2);
        assert_eq!(p.rank_busy_ns.len(), 4);
        assert_eq!(p.merge_busy_ns.len(), small_config().nodes);
        // Synthetic materialization has no byte images to spill.
        assert!(out.spill.is_none());
    }

    #[test]
    fn profile_phases_are_disjoint_spans_of_the_wall() {
        let mut cfg = small_config().with_threads(2);
        cfg.engine = nvm_chkpt::EngineConfig::builder()
            .materialization(Materialization::Bytes)
            .build()
            .unwrap();
        cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let out = Cluster::new(cfg, factory)
            .run(RunOptions::new().with_profile(true))
            .unwrap();
        assert!(out.result.helper_stats.iter().all(|h| h.bytes_copied > 0));
        let p = out.profile.expect("profile requested");
        assert!(p.phase_ns.iter().sum::<u64>() <= p.wall_ns, "{p:?}");
        for phase in [
            Phase::Build,
            Phase::Compute,
            Phase::CheckpointLocal,
            Phase::CheckpointRemote,
            Phase::Reduce,
            Phase::Teardown,
        ] {
            assert!(p.phase(phase) > 0, "{} untimed: {p:?}", phase.name());
        }
    }

    #[test]
    fn only_a_profiled_run_reads_the_thread_clock() {
        use crate::profile::clock_reads;
        // One thread, so every read lands on this thread's counter.
        let cfg = small_config().with_threads(1);
        let before = clock_reads();
        let plain = run_opts(cfg.clone(), RunOptions::new());
        assert_eq!(
            clock_reads() - before,
            0,
            "an unprofiled run read the clock"
        );

        let before = clock_reads();
        let out = Cluster::new(cfg.clone(), factory)
            .run(RunOptions::new().with_profile(true))
            .unwrap();
        let reads = clock_reads() - before;
        // A read per rank boundary of each rank-parallel phase (every
        // iteration's compute, every local checkpoint), and at most two
        // per node merged.
        let r = &out.result;
        let phases = r.iterations_executed + r.local_checkpoints;
        let bound = phases * (cfg.total_ranks() as u64 + 1) + 2 * cfg.nodes as u64;
        assert!(reads > 0 && reads <= bound, "{reads} reads, bound {bound}");
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(r).unwrap()
        );
    }

    #[test]
    fn traces_now_carry_barrier_join_edges() {
        let r = run_opts(small_config(), RunOptions::new().with_trace(true));
        let mut ids: Vec<u64> = r
            .trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::BarrierWait { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert!(!ids.is_empty(), "cluster runs must emit barrier joins");
        ids.sort_unstable();
        ids.dedup();
        // Every barrier id must have one zero-wait straggler among its
        // ranks — the anchor the critical-path extractor keys on.
        for id in ids {
            let zero_waits = r
                .trace
                .iter()
                .filter(|e| {
                    matches!(e.kind, TraceEventKind::BarrierWait { id: i, wait_ns: 0 } if i == id)
                })
                .count();
            assert!(zero_waits >= 1, "barrier {id} has no zero-wait rank");
        }
    }

    #[test]
    fn unrecoverable_run_attaches_a_flight_dump() {
        let mut cfg = small_config();
        cfg.schedule_override = Some(FailureSchedule::from_events(vec![
            event(10, FailureKind::Hard, 0),
            event(10, FailureKind::Hard, 1),
        ]));
        let err = Cluster::new(cfg.clone(), factory)
            .run(RunOptions::new().with_trace(true))
            .unwrap_err();
        match &err {
            SimError::WithFlight { source, dump } => {
                assert!(matches!(**source, SimError::Unrecoverable { .. }));
                assert_eq!(dump.per_rank, FLIGHT_TAIL);
                assert!(!dump.events.is_empty());
                // Bounded: at most the tail of each rank survives.
                for rank in 0..4u64 {
                    let kept = dump.events.iter().filter(|e| e.rank == rank).count();
                    assert!(kept <= FLIGHT_TAIL);
                }
            }
            other => panic!("expected WithFlight, got {other}"),
        }
        assert!(matches!(err.cause(), SimError::Unrecoverable { .. }));
        assert!(err.flight().is_some());
        assert!(err.to_string().contains("flight recorder"));
        // Untraced, the bare error comes back.
        let bare = Cluster::new(cfg, factory)
            .run(RunOptions::new())
            .unwrap_err();
        assert!(matches!(bare, SimError::Unrecoverable { .. }));
    }

    #[test]
    fn virgin_fallthrough_is_in_the_recovery_record_and_the_trace() {
        // Byte-materialized run, no store dir, no remote: a hard
        // failure has nothing to recover from and falls through to
        // virgin — the run survives, and its record and trace say so.
        let mut cfg = small_config();
        cfg.engine = nvm_chkpt::EngineConfig::builder()
            .materialization(Materialization::Bytes)
            .build()
            .unwrap();
        cfg.iterations = 10;
        cfg.schedule_override = Some(FailureSchedule::from_events(vec![event(
            10,
            FailureKind::Hard,
            0,
        )]));
        let untraced = run_opts(cfg.clone(), RunOptions::new());
        let traced = run_opts(cfg, RunOptions::new().with_trace(true));
        for r in [&untraced, &traced] {
            assert_eq!(r.recovery.len(), 1);
            assert_eq!(r.recovery[0].source, RecoverySource::Virgin);
        }
        assert!(untraced.trace.is_empty());
        assert!(traced.trace.iter().any(|e| matches!(
            &e.kind,
            TraceEventKind::RecoveryStart { source, .. } if source == "virgin"
        )));
    }
}
