//! The multi-node checkpoint simulator.
//!
//! [`Cluster`] reproduces the paper's experimental setup: a cluster
//! of nodes (8 x 12 cores in the paper), one MPI rank per core, each
//! rank running a [`Workload`] against its own [`CheckpointEngine`].
//! Ranks advance private virtual clocks in parallel and synchronize at
//! coordinated checkpoints (a barrier takes every clock to the max).
//! Per-node NVM devices model intra-node bandwidth contention; per-node
//! links, helper processes, and buddy-node [`RemoteStore`]s model the
//! remote checkpoint path.
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
//! the legacy analytic fetch-cost charge ([`RecoverySource::Modeled`]).

use crate::app::Workload;
use crate::comm::AlphaBeta;
use crate::failure::{FailureKind, FailureSchedule};
use crate::profile::{thread_cpu_ns, RunProfile};
use crate::recovery::{collapse_batch, RecoveredChunkRecord, RecoveryRecord, RecoverySource};
use crate::schedule::{Activity, ScheduleTrace};
use crate::store::RankRecovery;
use nvm_chkpt::checksum::crc64;
use nvm_chkpt::{
    CheckpointEngine, EngineError, EngineStats, EpochReport, Materialization, RemoteImage,
    RestartStrategy,
};
use nvm_emu::{BandwidthModel, MemoryDevice, SimDuration, SimTime, TempDir, VirtualClock};
use nvm_metrics::{names, MergeStats, Metrics, MetricsRegistry, MetricsReport};
use nvm_obs::FlightDump;
use nvm_store::{FileSpill, FileStore, PersistError, Persistence, StoreStats};
use nvm_trace::{BufferSink, TraceEvent, TraceEventKind, Tracer};
use rdma_sim::armci::RemoteError;
use rdma_sim::{
    fetch_with_retry, FaultModel, HelperParams, HelperProcess, HelperStats, Link, RemoteStore,
    RetryPolicy, UsageTrace,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

pub use crate::config::{ClusterConfig, ConfigError, RemoteConfig};

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
    /// A fatal error with the flight recorder's last-events dump
    /// attached. Produced instead of the bare error when
    /// [`RunOptions::flight`] is set; match on [`SimError::cause`] to
    /// handle the underlying failure uniformly.
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

    /// The attached flight dump, if the run was recorded.
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
    /// Rank 0's per-epoch reports.
    pub rank0_epochs: Vec<EpochReport>,
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
    /// Rank 0's activity schedule.
    pub schedule: ScheduleTrace,
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
/// alongside the simulation result. These knobs used to live on
/// `ClusterConfig`; they moved here so one config describes the
/// cluster's *shape* and can drive differently-instrumented runs —
/// and so every instrumentation combination goes through the same
/// single entry point instead of `run`/`run_profiled`/ad-hoc field
/// twiddling.
///
/// Every option is result-preserving: tracing, metrics, store
/// mirroring, and profiling each leave [`RunResult`] byte-identical
/// to an uninstrumented run (modulo the fields they fill in), at any
/// thread count.
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Collect a structured event trace. Each rank buffers its own
    /// events; merge shards combine them in `(time, rank)` order into
    /// [`RunResult::trace`], bit-identical for serial and
    /// multi-threaded execution.
    pub trace: bool,
    /// Collect aggregate metrics: a private registry per rank for what
    /// is recorded live, every other counter published from the stats
    /// structs at the shard merges — all updates commute, so the snapshot
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
    /// Keep a bounded flight-recorder tail of this many events per
    /// rank and attach it to fatal failures: a
    /// [`SimError::Unrecoverable`] run returns
    /// [`SimError::WithFlight`], and a recovery ladder that falls
    /// through to virgin state surfaces the dump in
    /// [`RunOutcome::flight`]. Without `trace` the per-rank
    /// buffers stay rings of this size, so long runs pay O(bound)
    /// memory, not O(events).
    pub flight: Option<usize>,
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

    /// Keep a flight-recorder tail of `per_rank` events per rank and
    /// attach it to fatal failures (builder style).
    pub fn with_flight(mut self, per_rank: usize) -> Self {
        self.flight = Some(per_rank);
        self
    }

    /// A fresh registry when metrics are collected, else the disabled
    /// handle.
    fn new_metrics(&self) -> Metrics {
        if self.metrics {
            Metrics::new()
        } else {
            Metrics::disabled()
        }
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
    /// Flight-recorder dump taken when a recovery ladder fell all the
    /// way through to a virgin restart (progress was lost, but the
    /// run survived); `Some` only when [`RunOptions::flight`] is set
    /// and that happened. Fatal failures attach their dump to
    /// [`SimError::WithFlight`] instead.
    pub flight: Option<FlightDump>,
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
        ClusterSim::with_options(self.config, options, self.factory)?.execute()
    }

    /// Scan `dir` for the `rank_<n>.store` container files a
    /// store-attached run left behind and recover every rank's
    /// container (sorted by rank). The files are the only input — this
    /// is the offline half of [`RunOptions::store_dir`].
    pub fn recover_dir(dir: impl AsRef<Path>) -> Result<Vec<RankRecovery>, PersistError> {
        crate::store::scan_store_dir(dir.as_ref())
    }
}

struct Rank {
    global: u64,
    clock: VirtualClock,
    engine: CheckpointEngine,
    workload: Box<dyn Workload>,
    /// Private event buffer; engine events land here via the tracer so
    /// parallel ranks never contend on (or reorder) a shared stream.
    sink: Option<Arc<BufferSink>>,
    /// Private metrics registry (disabled unless
    /// [`ClusterConfig::metrics`]); merged in rank order at the end.
    metrics: Metrics,
}

impl Rank {
    /// A tracer into this rank's private sink (disabled without one).
    fn tracer(&self) -> Tracer {
        match &self.sink {
            Some(sink) => Tracer::new(sink.clone()).with_rank(self.global),
            None => Tracer::disabled(),
        }
    }

    /// Point the (new or rebuilt) engine at this rank's tracer and
    /// metrics registry.
    fn instrument(&mut self) {
        self.engine.set_tracer(self.tracer());
        self.engine.set_metrics(self.metrics.clone());
    }

    /// Mirror the engine's commits into this rank's durable container
    /// under `dir` (opened or created).
    fn attach_store(&mut self, dir: &Path, container_bytes: usize) -> Result<(), SimError> {
        let path = rank_store_path(dir, self.global);
        let store =
            FileStore::open_path(&path, self.global, container_bytes).map_err(EngineError::from)?;
        self.engine.set_persistence(Box::new(store));
        Ok(())
    }

    /// Add the current engine's totals, and its store's, to `reg`.
    fn publish(&self, reg: &mut MetricsRegistry) {
        self.engine.stats().publish(reg);
        if let Some(store) = self.engine.persistence_stats() {
            store.publish(reg);
        }
    }

    /// Replace this rank's engine with a rebuilt one — the only place
    /// a recovery swaps engines. The outgoing engine's totals go into
    /// the rank's registry first, so the run's counters stay cumulative
    /// while [`RunResult::engine_stats`] describes the surviving engines.
    fn install(&mut self, engine: CheckpointEngine) {
        self.metrics.update(|reg| self.publish(reg));
        self.engine = engine;
        self.instrument();
    }
}

/// Where rank `global`'s durable container lives under a store directory.
fn rank_store_path(dir: &Path, global: u64) -> PathBuf {
    dir.join(format!("rank_{global}.store"))
}

// The worker pool moves `&mut Rank` across scoped threads; everything
// a rank owns (engine, clock, workload) must therefore be `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Rank>();
    assert_send::<SimError>();
};

/// The one worker pool: run `f` over `items` and return the results in
/// input order. With `threads <= 1` (or a single item) that is a plain
/// in-order loop on the calling thread, stopping at the first error.
/// Otherwise `threads` scoped workers each take one contiguous
/// `div_ceil` chunk and stop at its first error; chunks are in input
/// order, so the first failed chunk holds the lowest failing index and
/// a failing run is as deterministic as a passing one.
fn pool_map<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    f: impl Fn(&mut T) -> Result<R, SimError> + Sync,
) -> Result<Vec<R>, SimError> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| scope.spawn(move || part.iter_mut().map(f).collect::<Result<Vec<R>, _>>()))
            .collect();
        let mut out = Vec::new();
        for handle in handles {
            // A worker's panic is the rank's own: re-raise its payload
            // so the message names what failed, not the pool.
            let part = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            out.extend(part?);
        }
        Ok(out)
    })
}

/// Run `f` over every rank through [`pool_map`], in rank order.
///
/// Correctness under concurrency rests on three properties that the
/// determinism regression tests pin down:
///
/// * ranks touch only their own engine/workload/clock (node devices
///   are shared, but their charge costs and statistics are functions
///   of length and configured concurrency, never of arrival order);
/// * no rank reads another rank's clock inside an epoch — cross-rank
///   time only flows through barriers, which the caller runs serially;
/// * errors are reported by the lowest global rank that failed, so a
///   failing run is also deterministic.
fn for_each_rank_parallel(
    ranks: &mut [Vec<Rank>],
    threads: usize,
    busy: &[AtomicU64],
    f: impl Fn(&mut Rank) -> Result<(), SimError> + Sync,
) -> Result<(), SimError> {
    let mut flat: Vec<&mut Rank> = ranks.iter_mut().flatten().collect();
    // Each callback's thread-CPU time goes to the profile accumulator
    // (indexed by global rank; workers touch disjoint indices, the
    // atomic is only for the shared borrow).
    pool_map(&mut flat, threads, |rank| {
        let t0 = thread_cpu_ns();
        let out = f(rank);
        busy[rank.global as usize].fetch_add(thread_cpu_ns().saturating_sub(t0), Relaxed);
        out
    })
    .map(drop)
}

struct NodeDevices {
    link: Link,
    helper: HelperProcess,
    /// Checkpoint flows in flight: (ends_at, rate bytes/s) — they
    /// contend with application communication until they drain.
    flows: Vec<(SimTime, f64)>,
    /// This node's NVM and DRAM (the handles in `ClusterSim::nvms` and
    /// `drams`), whose totals are published next to the helper's.
    devices: [MemoryDevice; 2],
}

impl NodeDevices {
    fn add_flow(&mut self, end: SimTime, rate: f64) {
        self.flows.push((end, rate));
    }

    /// Aggregate checkpoint-traffic rate active at `now` (prunes
    /// finished flows).
    fn active_rate(&mut self, now: SimTime) -> f64 {
        self.flows.retain(|(end, _)| *end > now);
        self.flows.iter().map(|(_, r)| r).sum()
    }
}

/// The simulator behind [`Cluster::run`].
pub(crate) struct ClusterSim {
    config: ClusterConfig,
    options: RunOptions,
    ranks: Vec<Vec<Rank>>, // [node][rank]
    nodes: Vec<NodeDevices>,
    stores: Vec<RemoteStore>, // stores[i] holds node i's data (on buddy NVM)
    /// Per-node NVM devices — kept so a hard failure can destroy and
    /// repopulate node `n`'s medium (`stores[(n-1+N)%N]` lives on it).
    nvms: Vec<MemoryDevice>,
    /// Per-node DRAM devices (working copies; wiped on hard failure).
    drams: Vec<MemoryDevice>,
    /// Barrier synchronisations executed (coordinator-side counter).
    barriers: u64,
    /// Coordinator-side metrics (comm stalls, recoveries, helper
    /// transfer sizes, barrier count, link peaks), recorded only from
    /// the serial coordinator loop.
    coord_metrics: Metrics,
    /// Owns the per-device spill files for the lifetime of the run;
    /// `None` when the run is synthetic or spill is disabled.
    spill_dir: Option<TempDir>,
}

impl ClusterSim {
    fn io_err(e: std::io::Error) -> SimError {
        SimError::Engine(EngineError::from(PersistError::Io(e)))
    }

    pub(crate) fn with_options(
        config: ClusterConfig,
        options: RunOptions,
        mut factory: impl FnMut(u64) -> Box<dyn Workload>,
    ) -> Result<Self, SimError> {
        config.validate()?;

        // Byte-materialized runs spill every device region to a file:
        // region contents cost identical virtual time/wear/stats
        // wherever they live, and at 1024 ranks the images no longer
        // fit in process RAM. Attach before any engine allocates so
        // every materialized region is covered.
        let spill_dir = if config.spill && config.engine.materialization == Materialization::Bytes {
            Some(TempDir::new("cluster-spill").map_err(Self::io_err)?)
        } else {
            None
        };

        let mut nvms = Vec::new();
        let mut drams = Vec::new();
        for n in 0..config.nodes {
            let nvm = MemoryDevice::pcm(config.node_nvm_capacity(n));
            if let Some(bw) = config.nvm_bw_per_core {
                nvm.set_model(BandwidthModel::fixed_per_core(bw));
            }
            let dram = MemoryDevice::dram(config.node_dram_capacity(n));
            if let Some(dir) = &spill_dir {
                let f =
                    FileSpill::create(&dir.join(format!("nvm_{n}.spill"))).map_err(Self::io_err)?;
                nvm.attach_spill(Box::new(f));
                let f = FileSpill::create(&dir.join(format!("dram_{n}.spill")))
                    .map_err(Self::io_err)?;
                dram.attach_spill(Box::new(f));
            }
            nvms.push(nvm);
            drams.push(dram);
        }

        let helper_params = config.remote.map(|r| r.helper).unwrap_or_default();

        if let Some(dir) = &options.store_dir {
            std::fs::create_dir_all(dir).map_err(Self::io_err)?;
        }

        let coord_metrics = options.new_metrics();
        let mut ranks = Vec::new();
        let mut nodes = Vec::new();
        let mut stores = Vec::new();
        for n in 0..config.nodes {
            let mut node_ranks = Vec::new();
            for r in 0..config.ranks_per_node {
                let global = (n * config.ranks_per_node + r) as u64;
                let clock = VirtualClock::new();
                let mut engine = CheckpointEngine::new(
                    global,
                    &drams[n],
                    &nvms[n],
                    config.container_bytes,
                    clock.clone(),
                    config.engine,
                )?;
                let mut workload = factory(global);
                workload.setup(&mut engine)?;
                // A traced run needs every event; a flight-only run
                // keeps a bounded ring.
                let sink = if options.trace {
                    Some(Arc::new(BufferSink::new()))
                } else {
                    options
                        .flight
                        .map(|bound| Arc::new(BufferSink::with_capacity(bound)))
                };
                let mut rank = Rank {
                    global,
                    clock,
                    engine,
                    workload,
                    sink,
                    metrics: options.new_metrics(),
                };
                rank.instrument();
                if let Some(dir) = &options.store_dir {
                    rank.attach_store(dir, config.container_bytes)?;
                }
                node_ranks.push(rank);
            }
            ranks.push(node_ranks);
            let mut helper = HelperProcess::with_params(helper_params);
            helper.set_metrics(coord_metrics.clone());
            nodes.push(NodeDevices {
                link: Link::new(config.link_bandwidth()),
                helper,
                flows: Vec::new(),
                devices: [nvms[n].clone(), drams[n].clone()],
            });
            let buddy = config.buddy_of(n);
            // Byte-materialized runs keep real chunk images in the
            // remote store, so a hard-failed node can be rebuilt from
            // its buddy bit-for-bit; synthetic runs keep the store
            // size-only as before.
            let materialized = config.engine.materialization == Materialization::Bytes;
            stores.push(RemoteStore::new(&nvms[buddy], materialized));
        }
        Ok(ClusterSim {
            config,
            options,
            ranks,
            nodes,
            stores,
            nvms,
            drams,
            barriers: 0,
            coord_metrics,
            spill_dir,
        })
    }

    fn max_time(&self) -> SimTime {
        self.ranks
            .iter()
            .flatten()
            .map(|r| r.clock.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Materialize the flight recorder: the last `per_rank` events of
    /// every rank's sink, merged. `None` unless
    /// [`RunOptions::flight`] is set. Snapshots (never drains) the
    /// sinks, so a trace-collecting run still merges its full stream
    /// afterwards.
    fn flight_dump(&self, reason: &str) -> Option<FlightDump> {
        let per_rank = self.options.flight?;
        let buffers: Vec<Vec<TraceEvent>> = self
            .ranks
            .iter()
            .flatten()
            .map(|r| r.sink.as_ref().map(|s| s.snapshot()).unwrap_or_default())
            .collect();
        Some(FlightDump::capture(reason, per_rank, buffers))
    }

    fn barrier(&mut self) -> SimTime {
        self.barriers += 1;
        let t = self.max_time();
        for r in self.ranks.iter().flatten() {
            // The barrier join edge of the causal DAG: stamped at the
            // rank's arrival, with its stall. The straggler(s) record
            // wait 0 — that zero is how the critical-path extractor
            // finds the rank that owned the segment. Runs on the
            // coordinator, so per-rank order (and hence the merged
            // trace) is thread-count independent.
            if let Some(sink) = &r.sink {
                let arrival = r.clock.now();
                nvm_trace::TraceSink::record(
                    sink.as_ref(),
                    TraceEvent {
                        t_ns: arrival.as_nanos(),
                        rank: r.global,
                        kind: TraceEventKind::BarrierWait {
                            id: self.barriers,
                            wait_ns: t.since(arrival).as_nanos(),
                        },
                    },
                );
            }
            r.clock.advance_to(t);
        }
        t
    }

    /// The run loop. The [`RunProfile`] and [`SpillReport`] travel
    /// *next to* the result, never inside it — [`RunResult`] stays
    /// byte-identical across thread counts and machines; timing and
    /// host-memory accounting are neither.
    fn execute(mut self) -> Result<RunOutcome, SimError> {
        let total_ranks = self.config.nodes * self.config.ranks_per_node;
        // Host-side profile inputs; they travel next to the tallies.
        let wall_start = std::time::Instant::now();
        let rank_busy: Vec<AtomicU64> = (0..total_ranks).map(|_| AtomicU64::new(0)).collect();
        let mut tally = LoopTallies {
            schedule: ScheduleTrace::new(),
            coord: Vec::new(),
            flight: None,
            executed: 0,
            lost: 0,
            soft: 0,
            hard: 0,
            local_ckpts: 0,
            remote_ckpts: 0,
            d_per_rank: self.ranks[0][0].engine.checkpoint_bytes() as u64,
            recovery: Vec::new(),
        };
        let tracing = self.options.trace;
        let mut failures = match (&self.config.schedule_override, &self.config.failures) {
            (Some(schedule), _) => schedule.clone(),
            (None, Some(cfg)) => FailureSchedule::generate(
                cfg,
                SimTime::ZERO + self.config.failure_horizon,
                self.config.nodes,
            ),
            (None, None) => FailureSchedule::none(),
        };

        let mut iter: u64 = 0;
        let mut last_local_end = SimTime::ZERO;
        let mut last_remote_end = SimTime::ZERO;
        let mut last_local_iter: u64 = 0;
        let mut last_remote_iter: u64 = 0;

        while iter < self.config.iterations {
            let iter_start = self.max_time();

            // -- failures that struck before this iteration ------------
            // All events due in this window form one batch, collapsed
            // to the most severe event per node: a node hit twice in
            // one interval is charged one rollback, not two.
            let due = failures.drain_due(iter_start);
            if !due.is_empty() {
                let batch = collapse_batch(due);
                // A hard-failed node's sole surviving copy lives on its
                // ring buddy. If the buddy hard-failed in the same
                // batch, no copy survives anywhere: the run is over,
                // deterministically, before any recovery is attempted.
                for ev in &batch {
                    if ev.kind != FailureKind::Hard {
                        continue;
                    }
                    let buddy = self.config.buddy_of(ev.node);
                    if buddy != ev.node
                        && batch
                            .iter()
                            .any(|o| o.node == buddy && o.kind == FailureKind::Hard)
                    {
                        let err = SimError::Unrecoverable {
                            node: ev.node,
                            buddy,
                            iteration: iter,
                        };
                        return Err(match self.flight_dump(&err.to_string()) {
                            Some(dump) => SimError::WithFlight {
                                source: Box::new(err),
                                dump,
                            },
                            None => err,
                        });
                    }
                }

                let t0 = self.barrier();
                let mut max_restart = SimDuration::ZERO;
                let mut target = iter;
                for ev in &batch {
                    match ev.kind {
                        FailureKind::Soft => {
                            tally.soft += 1;
                            max_restart = max_restart.max(self.local_restart_cost(ev.node));
                            target = target.min(last_local_iter);
                        }
                        FailureKind::Hard => {
                            tally.hard += 1;
                            let record = self.recover_hard_node(ev.node, iter, &mut tally)?;
                            // A ladder that bottomed out at virgin
                            // lost all progress — worth a black-box
                            // dump even though the run survives.
                            if record.source == RecoverySource::Virgin && tally.flight.is_none() {
                                tally.flight = self.flight_dump(&format!(
                                    "recovery of node {} fell through to virgin at iteration {iter}",
                                    ev.node
                                ));
                            }
                            target = target.min(match record.source {
                                RecoverySource::Virgin => 0,
                                RecoverySource::LocalStore => last_local_iter,
                                RecoverySource::RemoteBuddy | RecoverySource::Modeled => {
                                    last_remote_iter
                                }
                            });
                            max_restart = max_restart.max(record.duration);
                            tally.recovery.push(record);
                        }
                    }
                }
                // The cluster resumes together once the slowest
                // recovery finishes.
                let t = t0 + max_restart;
                for r in self.ranks.iter().flatten() {
                    r.clock.advance_to(t);
                }
                for ev in &batch {
                    tally.schedule.record(Activity::Restart, t0, t);
                    if tracing {
                        tally.coord.push(TraceEvent {
                            t_ns: t0.as_nanos(),
                            rank: self.config.first_rank(ev.node),
                            kind: TraceEventKind::RankFailure {
                                iteration: iter,
                                hard: ev.kind == FailureKind::Hard,
                            },
                        });
                    }
                }
                tally.lost += iter - target;
                iter = target;
            }

            // -- 1: application iteration (parallel epoch) --------------
            let rank0_before = self.ranks[0][0].clock.now();
            for_each_rank_parallel(&mut self.ranks, self.config.threads, &rank_busy, |rank| {
                rank.workload
                    .iterate(&mut rank.engine, iter)
                    .map_err(SimError::from)
            })?;
            tally.schedule.record(
                Activity::Compute,
                rank0_before,
                self.ranks[0][0].clock.now(),
            );
            tally.executed += 1;

            // -- 2: helper polling + link contention --------------------
            if let Some(rc) = self.config.remote {
                for n in 0..self.config.nodes {
                    let window_end = self.ranks[n]
                        .iter()
                        .map(|r| r.clock.now())
                        .max()
                        .unwrap_or(iter_start);
                    let window = window_end
                        .since(iter_start)
                        .max(SimDuration::from_millis(1));
                    if rc.precopy {
                        // The helper continuously polls nvdirty state.
                        let chunk_count: usize =
                            self.ranks[n].iter().map(|r| r.engine.heap().len()).sum();
                        self.nodes[n].helper.scan(chunk_count);
                    }
                    self.nodes[n].helper.advance(window);

                    // Contention between application communication and
                    // in-flight checkpoint traffic (spread or burst):
                    // every round of every collective is slowed by the
                    // checkpoint's share of the link.
                    let rate = self.nodes[n].active_rate(iter_start);
                    if rate > 0.0 {
                        let fabric = AlphaBeta::infiniband(self.nodes[n].link.capacity());
                        for rank in self.ranks[n].iter_mut() {
                            let pattern = rank.workload.comm_pattern();
                            let delay = pattern.contention_delay(total_ranks, &fabric, rate);
                            if !delay.is_zero() {
                                let tracer = rank.engine.tracer();
                                if tracer.enabled() {
                                    let t = rank.clock.now().as_nanos();
                                    for (c, b) in &pattern.ops {
                                        let d = c.contention_delay(*b, total_ranks, &fabric, rate);
                                        if !d.is_zero() {
                                            tracer.emit(
                                                t,
                                                TraceEventKind::CommWait {
                                                    op: c.name().to_string(),
                                                    wait_ns: d.as_nanos(),
                                                },
                                            );
                                        }
                                    }
                                }
                                rank.clock.advance(delay);
                                self.coord_metrics
                                    .observe(names::CLUSTER_COMM_STALL_NS, delay.as_nanos());
                                if n == 0 && rank.global == 0 {
                                    tally.schedule.record(
                                        Activity::Blocked,
                                        rank.clock.now() - delay,
                                        rank.clock.now(),
                                    );
                                }
                            }
                        }
                    }
                }
            }

            iter += 1;

            // -- 3: coordinated local checkpoint ------------------------
            let now = self.max_time();
            let local_due = match self.config.local_interval {
                Some(interval) => {
                    now.since(last_local_end) >= interval || iter == self.config.iterations
                }
                None => false,
            };
            if local_due {
                let t0 = self.barrier();
                for_each_rank_parallel(&mut self.ranks, self.config.threads, &rank_busy, |rank| {
                    rank.engine
                        .nvchkptall()
                        .map(|_report| ())
                        .map_err(SimError::from)
                })?;
                let t1 = self.barrier();
                tally.schedule.record(Activity::LocalCheckpoint, t0, t1);
                last_local_end = t1;
                last_local_iter = iter;
                tally.local_ckpts += 1;

                // -- 4: remote checkpointing ----------------------------
                if let Some(rc) = self.config.remote {
                    let remote_due = t1.since(last_remote_end) >= rc.interval;
                    // Commit first: everything shipped during previous
                    // intervals has arrived and forms the remote
                    // snapshot.
                    if remote_due {
                        for n in 0..self.config.nodes {
                            for rank in self.ranks[n].iter() {
                                self.stores[n].commit_rank(rank.global, tally.remote_ckpts);
                            }
                        }
                        last_remote_end = t1;
                        last_remote_iter = iter;
                        tally.remote_ckpts += 1;
                    }
                    let local_int = self
                        .config
                        .local_interval
                        .unwrap_or(rc.interval)
                        .max(SimDuration::from_millis(1));
                    // Remote DCPCP delay: shipping starts in the last
                    // local interval before the remote boundary, so
                    // chunks re-modified earlier are not shipped over
                    // and over ("the delay time before a remote
                    // pre-copy is dependent on the remote checkpoint
                    // interval").
                    let next_remote = last_remote_end + rc.interval;
                    let ship_now = rc.precopy && t1 + local_int >= next_remote;
                    if ship_now || (!rc.precopy && remote_due) {
                        let end = self.ship_remote(t1, rc.precopy, &rc.helper, &mut tally.coord)?;
                        tally.schedule.record(Activity::RemoteCheckpoint, t1, end);
                    }
                }
            }
        }

        self.reduce(tally, wall_start, rank_busy)
    }

    /// The hierarchical end-of-run reduction of every rank's trace
    /// buffer, engine stats, metrics and store counters, plus the
    /// loop's tallies, into the [`RunOutcome`]. A serial fold is an
    /// O(ranks) floor that dominates wall time at 1024 ranks, so
    /// contiguous node groups ("shards", a function of topology only —
    /// see `ClusterConfig::shard_count`) each reduce their own ranks,
    /// in parallel when `threads > 1`, and the coordinator folds
    /// O(shards) partial results:
    ///
    /// * traces — each shard emits its ranks' events merged in
    ///   `(time, rank)` order; the final fold re-sorts the
    ///   concatenated shard streams (plus the coordinator buffer,
    ///   appended last) with the same stable key. Equal keys always
    ///   come from one rank's buffer — or that rank's buffer plus the
    ///   coordinator's — and both levels preserve their relative
    ///   order, so the result is byte-identical to the flat merge at
    ///   any shard or thread count.
    /// * stats/metrics/store counters — integer sums, gauge maxes and
    ///   histogram bucket adds all commute and associate, so any merge
    ///   tree yields the same totals; snapshots are name-sorted, so
    ///   the report is identical too.
    fn reduce(
        mut self,
        tally: LoopTallies,
        wall_start: std::time::Instant,
        rank_busy: Vec<AtomicU64>,
    ) -> Result<RunOutcome, SimError> {
        let total_time = self.barrier().since(SimTime::ZERO);
        let tracing = self.options.trace;
        let shards = self.config.shard_count();
        let nodes_per_shard = self.config.nodes.div_ceil(shards);
        struct ShardMerge {
            trace: Vec<TraceEvent>,
            engine_stats: EngineStats,
            registry: Option<MetricsRegistry>,
            store_stats: Option<StoreStats>,
            busy_ns: u64,
        }
        let metrics_on = self.options.metrics;
        let merge_shard = |shard_ranks: &[Vec<Rank>], shard_nodes: &[NodeDevices]| {
            let t0 = thread_cpu_ns();
            let ranks = || shard_ranks.iter().flatten();
            let trace = if tracing {
                let buffers: Vec<Vec<TraceEvent>> = ranks()
                    .map(|r| r.sink.as_ref().map(|s| s.drain()).unwrap_or_default())
                    .collect();
                nvm_trace::merge_ranked(buffers)
            } else {
                Vec::new()
            };
            let rank_stats: Vec<EngineStats> = ranks().map(|r| r.engine.stats()).collect();
            let engine_stats = EngineStats::merged(rank_stats.iter());
            // The registries hold what was recorded live (latency
            // distributions, kv counters) and the totals of engines a
            // recovery replaced; every other counter is published
            // here, from the stats structs that are its one record.
            let registry = metrics_on.then(|| {
                let mut reg = MetricsRegistry::new();
                for r in ranks() {
                    r.metrics.merge_into(&mut reg);
                    r.publish(&mut reg);
                }
                for n in shard_nodes {
                    n.helper.stats().publish(&mut reg);
                    for dev in &n.devices {
                        dev.stats().publish(dev.kind(), &mut reg);
                    }
                }
                reg
            });
            let store_stats: Vec<StoreStats> = ranks()
                .filter_map(|r| r.engine.persistence_stats())
                .collect();
            let store_stats = (!store_stats.is_empty()).then(|| StoreStats::merged(&store_stats));
            ShardMerge {
                trace,
                engine_stats,
                registry,
                store_stats,
                busy_ns: thread_cpu_ns().saturating_sub(t0),
            }
        };
        let mut shard_chunks: Vec<(&mut [Vec<Rank>], &[NodeDevices])> = self
            .ranks
            .chunks_mut(nodes_per_shard)
            .zip(self.nodes.chunks(nodes_per_shard))
            .collect();
        let mut shard_results = pool_map(&mut shard_chunks, self.config.threads, |(r, n)| {
            Ok(merge_shard(r, n))
        })?;
        let merge_busy_ns: Vec<u64> = shard_results.iter().map(|s| s.busy_ns).collect();

        let merged_trace = if tracing {
            let mut streams: Vec<Vec<TraceEvent>> = shard_results
                .iter_mut()
                .map(|s| std::mem::take(&mut s.trace))
                .collect();
            streams.push(tally.coord);
            nvm_trace::merge_ranked(streams)
        } else {
            Vec::new()
        };
        let engine_stats = EngineStats::merged(shard_results.iter().map(|s| &s.engine_stats));

        self.coord_metrics
            .counter_add(names::CLUSTER_BARRIERS_TOTAL, self.barriers);
        for n in &self.nodes {
            self.coord_metrics.gauge_max(
                names::LINK_PEAK_BYTES_PER_S,
                n.link.trace().peak_bytes() as i64,
            );
        }
        let metrics = if metrics_on {
            let mut reg = MetricsRegistry::new();
            for s in &shard_results {
                if let Some(partial) = &s.registry {
                    reg.merge_from(partial);
                }
            }
            self.coord_metrics.merge_into(&mut reg);
            Some(MetricsReport::new(reg.snapshot()))
        } else {
            None
        };

        // Store counters (None when no store is attached — so results
        // without `--store` serialize unchanged).
        let store_partials: Vec<&StoreStats> = shard_results
            .iter()
            .filter_map(|s| s.store_stats.as_ref())
            .collect();
        let store = (!store_partials.is_empty()).then(|| StoreStats::merged(store_partials));

        let result = RunResult {
            total_time,
            iterations_executed: tally.executed,
            local_checkpoints: tally.local_ckpts,
            remote_checkpoints: tally.remote_ckpts,
            engine_stats,
            rank0_epochs: self.ranks[0][0].engine.log().to_vec(),
            link_traces: self.nodes.iter().map(|n| n.link.trace().clone()).collect(),
            helper_stats: self.nodes.iter().map(|n| n.helper.stats()).collect(),
            helper_utilization: self
                .nodes
                .iter()
                .map(|n| n.helper.cpu_utilization())
                .collect(),
            soft_failures: tally.soft,
            hard_failures: tally.hard,
            lost_iterations: tally.lost,
            schedule: tally.schedule,
            checkpoint_bytes_per_rank: tally.d_per_rank,
            trace: merged_trace,
            metrics,
            store,
            recovery: tally.recovery,
        };
        let profile = self.options.profile.then(|| RunProfile {
            wall_ns: wall_start.elapsed().as_nanos() as u64,
            rank_busy_ns: rank_busy.into_iter().map(|c| c.into_inner()).collect(),
            merge_busy_ns,
            threads: self.config.threads,
        });
        let spill = self.spill_dir.as_ref().map(|_| {
            let devices = || self.nvms.iter().chain(&self.drams);
            SpillReport {
                devices: devices().count(),
                peak_bytes: devices().map(|d| d.spill_peak_bytes()).sum(),
                live_bytes: devices().map(|d| d.spill_live_bytes()).sum(),
                resident_bytes: devices().map(|d| d.resident_bytes()).sum(),
            }
        });
        Ok(RunOutcome {
            result,
            profile,
            spill,
            flight: tally.flight,
        })
    }

    /// Bit-for-bit verification of freshly restored ranks against the
    /// remote images they were rebuilt from: per rank, read every
    /// restored chunk back, compare against the fetched payload, and
    /// record its CRC. Pure reads over rank-owned engines (shared
    /// device access is commutative stats only), so ranks verify
    /// through [`pool_map`]: results come back in rank order, and on
    /// failure the lowest failing global rank wins — both identical to
    /// the serial path.
    fn verify_restored(
        ranks: &mut [Rank],
        images_per_rank: &[Vec<RemoteImage>],
        threads: usize,
        node: usize,
    ) -> Result<Vec<Vec<RecoveredChunkRecord>>, SimError> {
        // `&mut Rank` is `Send` even though `&Rank` is not `Sync`
        // (boxed workloads/persistence), so the pool gets exclusive
        // rank borrows exactly like `for_each_rank_parallel`.
        let mut pairs: Vec<(&mut Rank, &Vec<RemoteImage>)> =
            ranks.iter_mut().zip(images_per_rank.iter()).collect();
        pool_map(&mut pairs, threads, |(rank, images)| {
            let mut records = Vec::with_capacity(images.len());
            for img in images.iter() {
                let restored = rank.engine.committed_bytes(img.id)?;
                if restored != img.payload {
                    return Err(SimError::RecoveryMismatch {
                        node,
                        rank: rank.global,
                        chunk: img.id.0,
                    });
                }
                records.push(RecoveredChunkRecord {
                    rank: rank.global,
                    chunk: img.id.0,
                    name: img.name.clone(),
                    len: img.len as u64,
                    checksum: crc64(&restored),
                });
            }
            Ok(records)
        })
    }

    /// Ship committed chunks from every node to its buddy's remote
    /// store at time `t1`; returns when the last node's transfer ends.
    ///
    /// `incremental` (remote pre-copy): the helper ships the chunks
    /// that are remote-stale but locally stable, chunk-by-chunk at its
    /// incremental copy rate — a low, flat wire rate (about half the
    /// bulk staging rate), which is what halves the peak in Figure 10.
    /// Otherwise the entire committed checkpoint goes as one burst,
    /// staged by the helper at its bulk copy rate (the wire itself is
    /// faster but fed by one core).
    fn ship_remote(
        &mut self,
        t1: SimTime,
        incremental: bool,
        helper: &HelperParams,
        coord: &mut Vec<TraceEvent>,
    ) -> Result<SimTime, SimError> {
        let bandwidth = if incremental {
            helper.incremental_bandwidth
        } else {
            helper.bulk_bandwidth
        };
        let mut cluster_end = t1;
        for n in 0..self.config.nodes {
            let mut shipped: u64 = 0;
            for rank in self.ranks[n].iter_mut() {
                let chunks = if incremental {
                    rank.engine.remote_stable_chunks()
                } else {
                    rank.engine.heap().persistent_ids()
                };
                for id in chunks {
                    let len = Self::ship_chunk(&mut self.stores[n], rank, id)?;
                    if incremental {
                        self.nodes[n].helper.copy_chunk(len);
                    } else {
                        self.nodes[n].helper.copy_bulk(len);
                    }
                    rank.engine.mark_remote_copied(id);
                    shipped += len;
                }
            }
            if shipped > 0 {
                let window = SimDuration::for_transfer(shipped, bandwidth);
                let dur = self.nodes[n].link.transfer_spread(t1, shipped, window);
                let rate = shipped as f64 / dur.as_secs_f64();
                self.nodes[n].add_flow(t1 + dur, rate);
                cluster_end = cluster_end.max(t1 + dur);
                if self.options.trace {
                    coord.push(TraceEvent {
                        t_ns: t1.as_nanos(),
                        rank: self.config.first_rank(n),
                        kind: TraceEventKind::RemoteTransfer {
                            bytes: shipped,
                            incremental,
                        },
                    });
                }
            }
        }
        Ok(cluster_end)
    }

    /// Mirror one committed chunk into the node's remote store: real
    /// bytes (plus the chunk name, which a recovery needs to rebuild
    /// the rank) under byte materialization, size-only otherwise.
    /// Returns the chunk's length.
    fn ship_chunk(
        store: &mut RemoteStore,
        rank: &Rank,
        id: nvm_paging::ChunkId,
    ) -> Result<u64, SimError> {
        let chunk = rank.engine.heap().chunk(id).map_err(EngineError::from)?;
        if rank.engine.config().materialization == Materialization::Bytes {
            let data = rank.engine.committed_bytes(id)?;
            store.put(rank.global, id, &data)?;
            store.set_chunk_name(rank.global, id, &chunk.name)?;
        } else {
            store.put_synthetic(rank.global, id, chunk.len)?;
        }
        Ok(chunk.len as u64)
    }

    /// True if every rank of `node` has a durable container under
    /// `dir` holding a clean committed epoch — the first rung of the
    /// recovery ladder. A missing file, a virgin container, or any
    /// checksum-corrupt payload fails the probe and recovery falls
    /// back to the remote buddy.
    fn probe_local_store(dir: &std::path::Path, node: usize, rpn: usize) -> bool {
        for r in 0..rpn {
            let global = (node * rpn + r) as u64;
            let Ok(mut store) = FileStore::open_existing(&rank_store_path(dir, global)) else {
                return false;
            };
            let Ok(state) = store.recover() else {
                return false;
            };
            if state.epoch.is_none() || state.chunks.is_empty() {
                return false;
            }
            if state
                .chunks
                .iter()
                .any(|rec| store.read_chunk(rec.id).is_err())
            {
                return false;
            }
        }
        true
    }

    /// Emit the recovery's trace events and counters.
    fn note_recovery(&self, record: &RecoveryRecord, t0: SimTime, coord: &mut Vec<TraceEvent>) {
        if self.options.trace {
            let rank0 = self.config.first_rank(record.node);
            coord.push(TraceEvent {
                t_ns: t0.as_nanos(),
                rank: rank0,
                kind: TraceEventKind::RecoveryStart {
                    node: record.node as u64,
                    source: record.source.name().to_string(),
                },
            });
            // Per-chunk verification records sit between start and
            // end (same timestamp and rank as the end; buffer order
            // keeps them inside), so the Chrome exporter renders them
            // nested under the recovery span rather than as stray
            // instants.
            for chunk in &record.chunks {
                coord.push(TraceEvent {
                    t_ns: (t0 + record.duration).as_nanos(),
                    rank: rank0,
                    kind: TraceEventKind::RecoveryVerify {
                        rank: chunk.rank,
                        chunk: chunk.chunk,
                        bytes: chunk.len,
                    },
                });
            }
            coord.push(TraceEvent {
                t_ns: (t0 + record.duration).as_nanos(),
                rank: rank0,
                kind: TraceEventKind::RecoveryEnd {
                    node: record.node as u64,
                    bytes: record.bytes_fetched,
                    verified: record.verified_chunks,
                },
            });
        }
        let metrics = &self.coord_metrics;
        metrics.counter_add(names::RECOVERY_HARD_TOTAL, 1);
        metrics.counter_add(names::RECOVERY_BYTES_FETCHED_TOTAL, record.bytes_fetched);
        metrics.counter_add(names::RECOVERY_RETRIES_TOTAL, record.retries);
        metrics.counter_add(
            names::RECOVERY_CHUNKS_VERIFIED_TOTAL,
            record.verified_chunks,
        );
        metrics.observe(names::RECOVERY_TIME_NS, record.duration.as_nanos());
    }

    /// Rebuild a hard-failed node at iteration count `iteration`, from
    /// the checkpoint progress `tally` holds.
    ///
    /// Under byte materialization the node's devices are wiped (taking
    /// the remote copy it hosted for its ring neighbour with them) and
    /// every rank is restored down the ladder: durable local container
    /// → buddy node's remote images over the interconnect (with
    /// retry/backoff on link faults and bit-for-bit verification) →
    /// virgin restart. The neighbour's lost remote copy is then
    /// re-replicated from its live committed state. Under synthetic
    /// materialization the legacy analytic fetch cost is charged and
    /// nothing moves.
    fn recover_hard_node(
        &mut self,
        node: usize,
        iteration: u64,
        tally: &mut LoopTallies,
    ) -> Result<RecoveryRecord, SimError> {
        let (local_ckpts, remote_ckpts) = (tally.local_ckpts, tally.remote_ckpts);
        let d_per_rank = tally.d_per_rank;
        let coord = &mut tally.coord;
        let rpn = self.config.node_rank_count(node);
        let t0 = self.ranks[node][0].clock.now();

        if self.config.engine.materialization == Materialization::Synthetic {
            let record = RecoveryRecord {
                node,
                iteration,
                source: RecoverySource::Modeled,
                remote_epoch: remote_ckpts.checked_sub(1),
                bytes_fetched: d_per_rank * rpn as u64,
                retries: 0,
                verified_chunks: 0,
                reprotected_bytes: 0,
                duration: self.remote_restart_cost(node, d_per_rank),
                chunks: Vec::new(),
            };
            self.note_recovery(&record, t0, coord);
            return Ok(record);
        }

        // The node is gone: wipe its devices. This also destroys the
        // remote copy it hosted for its ring neighbour `hosted`, which
        // is re-replicated at the end.
        let hosted = self.config.hosted_by(node);
        self.nvms[node].destroy();
        self.drams[node].destroy();
        self.stores[hosted] = RemoteStore::new(&self.nvms[node], true);

        let mut source = RecoverySource::Virgin;
        let mut remote_epoch = None;
        let mut wire = SimDuration::ZERO;
        let mut bytes_fetched = 0u64;
        let mut retries = 0u64;
        let mut verified = 0u64;
        let mut chunk_records = Vec::new();
        let mut max_install = SimDuration::ZERO;

        let local_dir = self
            .options
            .store_dir
            .clone()
            .filter(|dir| Self::probe_local_store(dir, node, rpn));

        if let Some(dir) = local_dir {
            // Rung 1: every rank's durable container survived intact.
            source = RecoverySource::LocalStore;
            for rank in self.ranks[node].iter_mut() {
                let store = FileStore::open_existing(&rank_store_path(&dir, rank.global))
                    .map_err(EngineError::from)?;
                let (engine, _report) = CheckpointEngine::restart_from_store(
                    &self.drams[node],
                    &self.nvms[node],
                    self.config.container_bytes,
                    rank.clock.clone(),
                    self.config.engine,
                    RestartStrategy::Eager,
                    Box::new(store),
                    rank.tracer(),
                )?;
                rank.install(engine);
                max_install = max_install.max(rank.clock.now().since(t0));
            }
        } else {
            // Rung 2: fetch the last committed remote epoch from the
            // buddy's NVM over the interconnect, chunk by chunk, with
            // retry/timeout/backoff on lost transfers. A remote epoch
            // may exist in name only — the commit-then-ship ordering
            // means the first remote boundary commits before anything
            // was staged — so fetch first and only take this rung if
            // any committed image actually came back.
            let mut images_per_rank: Vec<Vec<RemoteImage>> = Vec::new();
            if remote_ckpts > 0 && self.config.nodes > 1 {
                let host = self.config.buddy_of(node);
                let policy = RetryPolicy::default();
                // ~2% per-attempt loss: a fabric draining a dead node
                // is not the happy path. Deterministic (pure hash of
                // the run seed and the transfer identity).
                let faults =
                    FaultModel::new(self.config.failures.map(|f| f.seed).unwrap_or(0), 20_000);
                for r in 0..rpn {
                    let global = (node * rpn + r) as u64;
                    let mut images = Vec::new();
                    for id in self.stores[node].committed_chunks(global) {
                        let outcome = fetch_with_retry(
                            &self.stores[node],
                            &mut self.nodes[host].link,
                            t0 + wire,
                            global,
                            id,
                            &policy,
                            &faults,
                        )?;
                        if outcome.attempts > 1 {
                            retries += u64::from(outcome.attempts - 1);
                            if self.options.trace {
                                coord.push(TraceEvent {
                                    t_ns: (t0 + wire).as_nanos(),
                                    rank: global,
                                    kind: TraceEventKind::RecoveryRetry {
                                        rank: global,
                                        chunk: id.0,
                                        attempt: u64::from(outcome.attempts),
                                    },
                                });
                            }
                        }
                        wire += outcome.duration;
                        bytes_fetched += outcome.data.len() as u64;
                        let name = self.stores[node]
                            .chunk_name(global, id)
                            .unwrap_or("chunk")
                            .to_string();
                        let epoch = self.stores[node].committed_epoch(global, id).unwrap_or(0);
                        remote_epoch = Some(remote_epoch.map_or(epoch, |e: u64| e.max(epoch)));
                        images.push(RemoteImage {
                            id,
                            name,
                            len: outcome.data.len(),
                            checksum: None,
                            epoch,
                            payload: outcome.data,
                        });
                    }
                    images_per_rank.push(images);
                }
            }

            if images_per_rank.iter().any(|imgs| !imgs.is_empty()) {
                source = RecoverySource::RemoteBuddy;
                // Install serially: engine reconstruction allocates
                // regions on the shared node devices, and region ids
                // are assigned in allocation order — persisted in each
                // rank's metadata, so the order must not depend on
                // thread scheduling.
                for (rank, images) in self.ranks[node].iter_mut().zip(&images_per_rank) {
                    let (engine, _report) = CheckpointEngine::restart_from_images(
                        rank.global,
                        &self.drams[node],
                        &self.nvms[node],
                        self.config.container_bytes,
                        rank.clock.clone(),
                        self.config.engine,
                        RestartStrategy::Eager,
                        images,
                        local_ckpts,
                        rank.tracer(),
                    )?;
                    rank.install(engine);
                    max_install = max_install.max(rank.clock.now().since(t0));
                }
                // Verify the restored contents bit-for-bit against the
                // images that crossed the wire. Read-only per-rank work
                // (reads + CRC over real bytes), so it runs on the
                // worker pool; records are assembled in rank order and
                // a failure reports the lowest failing rank, keeping
                // the serial and parallel paths byte-identical.
                for records in Self::verify_restored(
                    &mut self.ranks[node],
                    &images_per_rank,
                    self.config.threads,
                    node,
                )? {
                    verified += records.len() as u64;
                    chunk_records.extend(records);
                }
            } else {
                // Rung 3: nothing recoverable exists anywhere — no
                // usable container, no committed remote image. The
                // node restarts from scratch (not a panic: a hard
                // failure before the first remote checkpoint is
                // survivable, it just loses all progress).
                remote_epoch = None;
                for rank in self.ranks[node].iter_mut() {
                    rank.install(CheckpointEngine::new(
                        rank.global,
                        &self.drams[node],
                        &self.nvms[node],
                        self.config.container_bytes,
                        rank.clock.clone(),
                        self.config.engine,
                    )?);
                    rank.workload.setup(&mut rank.engine)?;
                    max_install = max_install.max(rank.clock.now().since(t0));
                }
            }
        }

        // A rank rebuilt from remote images or from scratch lost its
        // durable container along with the node: reformat it so the
        // revived process keeps mirroring checkpoints.
        if source != RecoverySource::LocalStore {
            if let Some(dir) = &self.options.store_dir {
                for rank in self.ranks[node].iter_mut() {
                    let _ = std::fs::remove_file(rank_store_path(dir, rank.global));
                    rank.attach_store(dir, self.config.container_bytes)?;
                }
            }
        }

        // Re-replicate the ring neighbour's remote copy that lived on
        // the wiped NVM, committing it back at the last remote epoch.
        // (Staged-but-uncommitted precopy data is not rebuilt: the
        // neighbour's chunks re-dirty as it keeps iterating and are
        // re-shipped by the normal precopy path.)
        let mut reprotected = 0u64;
        let mut reprotect_wire = SimDuration::ZERO;
        if hosted != node && remote_ckpts > 0 {
            for rank in &self.ranks[hosted] {
                for id in rank.engine.heap().persistent_ids() {
                    match Self::ship_chunk(&mut self.stores[hosted], rank, id) {
                        Ok(len) => reprotected += len,
                        Err(SimError::Engine(EngineError::NoCommittedData(_))) => {}
                        Err(e) => return Err(e),
                    }
                }
                self.stores[hosted].commit_rank(rank.global, remote_ckpts - 1);
            }
            if reprotected > 0 {
                reprotect_wire = self.nodes[hosted].link.transfer(t0, reprotected, 1);
            }
        }

        if self.options.store_dir.is_some() && source != RecoverySource::LocalStore {
            self.coord_metrics
                .counter_add(names::RECOVERY_FALLBACK_REMOTE_TOTAL, 1);
        }

        let record = RecoveryRecord {
            node,
            iteration,
            source,
            remote_epoch,
            bytes_fetched,
            retries,
            verified_chunks: verified,
            reprotected_bytes: reprotected,
            duration: wire + max_install + reprotect_wire,
            chunks: chunk_records,
        };
        self.note_recovery(&record, t0, coord);
        Ok(record)
    }

    /// Local restart cost on `node`: metadata load + reading `D` back
    /// from NVM at the contended per-core read bandwidth (all of the
    /// node's ranks restart at once).
    fn local_restart_cost(&self, node: usize) -> SimDuration {
        let d = self.ranks[0][0].engine.checkpoint_bytes() as u64;
        let nvm = self.ranks[0][0].engine.heap().nvm();
        let bw = nvm.per_core_bandwidth(self.config.node_rank_count(node), 32 << 20);
        let params = nvm.params();
        let read_bw = bw * (params.read_bandwidth / params.write_bandwidth);
        SimDuration::for_transfer(d, read_bw.max(1.0)) + SimDuration::from_millis(5)
    }

    /// Remote restart cost for `node`: its whole checkpoint footprint
    /// crosses the interconnect from the buddy, then loads into memory.
    /// Both the byte count and the link speed come from the topology
    /// helpers so non-uniform shapes stay honest in one place.
    fn remote_restart_cost(&self, node: usize, d_per_rank: u64) -> SimDuration {
        let node_bytes = d_per_rank * self.config.node_rank_count(node) as u64;
        SimDuration::for_transfer(node_bytes, self.config.link_bandwidth())
            + self.local_restart_cost(node)
    }
}

/// The run loop's tallies: what hard-failure recovery reads (where the
/// run stood) and records into, and what the end-of-run reduction
/// ([`ClusterSim::reduce`]) folds into the outcome.
struct LoopTallies {
    /// Rank 0's activity schedule.
    schedule: ScheduleTrace,
    /// Cluster-level events (failures, remote shipping) happen on the
    /// coordinator, outside any single rank's timeline; they get their
    /// own buffer and merge with the per-rank streams at the end.
    coord: Vec<TraceEvent>,
    /// Dump taken if a recovery ladder bottomed out at virgin.
    flight: Option<FlightDump>,
    executed: u64,
    lost: u64,
    soft: u64,
    hard: u64,
    /// Local checkpoints committed so far.
    local_ckpts: u64,
    /// Remote epochs committed so far.
    remote_ckpts: u64,
    /// Checkpoint bytes per rank (`D`; the modeled fetch charge).
    d_per_rank: u64,
    recovery: Vec<RecoveryRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::UniformWorkload;
    use crate::failure::FailureConfig;
    use nvm_chkpt::PrecopyPolicy;

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
    fn schedule_shape_matches_figure_1() {
        let r = run_cfg(small_config()).unwrap();
        let seq = r.schedule.sequence();
        // Compute and LocalCheckpoint must alternate somewhere.
        let has_c_then_l = seq
            .windows(2)
            .any(|w| w == [Activity::Compute, Activity::LocalCheckpoint]);
        assert!(has_c_then_l, "sequence {seq:?}");
        assert!(!r
            .schedule
            .overlaps(Activity::Compute, Activity::LocalCheckpoint));
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
        let r = run_cfg(cfg.clone()).unwrap();
        assert!(r.soft_failures > 0, "expected soft failures");
        assert_eq!(r.hard_failures, 0);
        assert!(r.schedule.total(Activity::Restart) > SimDuration::ZERO);
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

    #[test]
    fn local_store_probe_demands_clean_committed_containers() {
        use nvm_paging::ChunkId;
        let tmp = nvm_emu::TempDir::new("probe").unwrap();
        // Node 1 of a 2-ranks-per-node cluster owns ranks 2 and 3.
        for g in [2u64, 3] {
            let mut s = FileStore::open_path(&tmp.join(format!("rank_{g}.store")), g, MB).unwrap();
            s.put_chunk(ChunkId(0), "data", 64, 0, &[7u8; 64]).unwrap();
            s.commit(0).unwrap();
        }
        assert!(ClusterSim::probe_local_store(tmp.path(), 1, 2));

        // A checksum-corrupt payload on any rank fails the whole node's
        // probe: recovery must fall back to the remote buddy.
        let mut s = FileStore::open_existing(&tmp.join("rank_2.store")).unwrap();
        s.recover().unwrap();
        s.corrupt_payload(ChunkId(0)).unwrap();
        drop(s);
        assert!(!ClusterSim::probe_local_store(tmp.path(), 1, 2));

        // So does a virgin (never-committed) container...
        let _ = std::fs::remove_file(tmp.join("rank_2.store"));
        drop(FileStore::open_path(&tmp.join("rank_2.store"), 2, MB).unwrap());
        assert!(!ClusterSim::probe_local_store(tmp.path(), 1, 2));

        // ...and a missing file.
        let _ = std::fs::remove_file(tmp.join("rank_3.store"));
        assert!(!ClusterSim::probe_local_store(tmp.path(), 1, 2));
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
        let r_multi = run_cfg(multi).unwrap();
        let r_single = run_cfg(single).unwrap();
        assert_eq!(r_multi.hard_failures, 1);
        assert_eq!(r_multi.soft_failures, 0, "soft events must be absorbed");
        assert_eq!(
            r_multi.lost_iterations, r_single.lost_iterations,
            "a collapsed batch must charge exactly one rollback"
        );
        assert_eq!(r_multi.total_time, r_single.total_time);
        assert_eq!(
            r_multi.schedule.total(Activity::Restart),
            r_single.schedule.total(Activity::Restart)
        );
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
    fn shard_plan_does_not_change_results() {
        // The hierarchical merge must be invisible: one shard, the
        // automatic plan, and one-shard-per-node all produce the same
        // bytes for result, trace, and metrics at any thread count.
        let mut base = small_config().with_threads(4);
        base.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
        let opts = RunOptions::new().with_trace(true).with_metrics(true);
        let mut golden: Option<(String, String)> = None;
        for shards in [Some(1), None, Some(2)] {
            let mut cfg = base.clone();
            cfg.shards = shards;
            let r = run_opts(cfg, opts.clone());
            let trace = nvm_trace::to_jsonl(&r.trace);
            let all = serde_json::to_string(&r).unwrap();
            match &golden {
                None => golden = Some((trace, all)),
                Some((t, a)) => {
                    assert_eq!(t, &trace, "trace differs at shards={shards:?}");
                    assert_eq!(a, &all, "result differs at shards={shards:?}");
                }
            }
        }
    }

    #[test]
    fn profile_reports_merge_work_and_synthetic_runs_do_not_spill() {
        let out = Cluster::new(small_config().with_threads(2), factory)
            .run(RunOptions::new().with_profile(true))
            .unwrap();
        let p = out.profile.expect("profile requested");
        assert_eq!(p.threads, 2);
        assert_eq!(p.rank_busy_ns.len(), 4);
        assert_eq!(p.merge_busy_ns.len(), small_config().shard_count());
        // Synthetic materialization has no byte images to spill.
        assert!(out.spill.is_none());
    }

    #[test]
    #[should_panic(expected = "rank 3 exploded")]
    fn pool_worker_panic_keeps_its_own_message() {
        let mut ranks = [0u64, 1, 2, 3];
        let _ = pool_map(&mut ranks, 2, |rank| -> Result<(), SimError> {
            assert!(*rank != 3, "rank {rank} exploded");
            Ok(())
        });
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
            .run(RunOptions::new().with_flight(8))
            .unwrap_err();
        match &err {
            SimError::WithFlight { source, dump } => {
                assert!(matches!(**source, SimError::Unrecoverable { .. }));
                assert_eq!(dump.per_rank, 8);
                assert!(!dump.events.is_empty());
                // Bounded: at most 8 events per rank survive.
                for rank in 0..4u64 {
                    assert!(dump.events.iter().filter(|e| e.rank == rank).count() <= 8);
                }
            }
            other => panic!("expected WithFlight, got {other}"),
        }
        assert!(matches!(err.cause(), SimError::Unrecoverable { .. }));
        assert!(err.flight().is_some());
        assert!(err.to_string().contains("flight recorder"));
        // Without the option the bare error comes back, as before.
        let bare = Cluster::new(cfg, factory)
            .run(RunOptions::new())
            .unwrap_err();
        assert!(matches!(bare, SimError::Unrecoverable { .. }));
    }

    #[test]
    fn virgin_fallthrough_surfaces_a_flight_dump_next_to_the_result() {
        // Byte-materialized run, no store dir, no remote: a hard
        // failure has nothing to recover from and falls through to
        // virgin — the run survives and the outcome carries the dump.
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
        let out = Cluster::new(cfg, factory)
            .run(RunOptions::new().with_flight(16))
            .unwrap();
        assert_eq!(out.result.recovery.len(), 1);
        assert_eq!(out.result.recovery[0].source, RecoverySource::Virgin);
        let dump = out.flight.expect("virgin fallthrough must dump");
        assert!(dump.reason.contains("virgin"));
        assert!(!dump.events.is_empty());
        // Flight-only instrumentation must not leak a trace into the
        // deterministic result.
        assert!(out.result.trace.is_empty());
    }
}
