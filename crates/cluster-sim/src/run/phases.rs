//! The coordinator: per-rank state, per-node devices, and the run loop
//! as phases over one [`LoopState`] — failures (`recover.rs`) → compute
//! → helper poll + link contention (`remote.rs`) → coordinated local
//! checkpoint → remote commit/ship (`remote.rs`) — then the end-of-run
//! reduction and the teardown. Everything here runs serially between
//! barriers; only the closures handed to the pool leave the
//! coordinator: per rank (compute, local checkpoint, restore
//! verification) and per node (the remote ship, the reduction, the
//! teardown).

use super::pool::{for_each_rank_parallel, pool_map, pool_map_timed};
use super::{ClusterConfig, RunOptions, RunOutcome, RunResult, SimError, SpillReport};
use crate::app::Workload;
use crate::failure::FailureSchedule;
use crate::profile::{Phase, Profiler};
use crate::recovery::RecoveryRecord;
use nvm_chkpt::{CheckpointEngine, EngineError, EngineStats, Materialization};
use nvm_emu::{BandwidthModel, MemoryDevice, SimTime, TempDir, VirtualClock};
use nvm_metrics::{names, MergeStats, MetricsRegistry, MetricsReport};
use nvm_store::{FileSpill, FileStore, PersistError, StoreStats};
use nvm_trace::{TraceEvent, TraceEventKind, Tracer};
use rdma_sim::{HelperProcess, Link, RemoteStore};
use std::path::{Path, PathBuf};

pub(super) struct Rank {
    pub(super) global: u64,
    pub(super) clock: VirtualClock,
    /// This rank's engine. Its tracer and its metrics registry are the
    /// rank's records: only the one thread holding `&mut Rank` writes
    /// them, so parallel ranks never contend on (or reorder) shared
    /// state. The registry is `None` unless [`RunOptions::metrics`],
    /// and is merged in rank order at the end.
    pub(super) engine: CheckpointEngine,
    pub(super) workload: Box<dyn Workload>,
}

impl Rank {
    /// An empty record for an engine that will replace this rank's:
    /// enabled exactly when the current engine's is. [`Rank::install`]
    /// puts the current engine's events in front of it.
    pub(super) fn fresh_tracer(&self) -> Tracer {
        if self.engine.tracer().enabled() {
            Tracer::new(self.global)
        } else {
            Tracer::disabled()
        }
    }

    /// An empty registry for an engine that will replace this rank's:
    /// present exactly when the current engine's is. [`Rank::install`]
    /// folds it into the current engine's registry.
    pub(super) fn fresh_metrics(&self) -> Option<MetricsRegistry> {
        self.engine.metrics().map(|_| MetricsRegistry::new())
    }

    /// Mirror the engine's commits into this rank's durable container
    /// under `dir` (opened or created).
    pub(super) fn attach_store(
        &mut self,
        dir: &Path,
        container_bytes: usize,
    ) -> Result<(), SimError> {
        let path = rank_store_path(dir, self.global);
        let store =
            FileStore::open_path(&path, self.global, container_bytes).map_err(EngineError::from)?;
        self.engine.set_persistence(Box::new(store));
        Ok(())
    }

    /// Replace this rank's engine with a rebuilt one. The outgoing
    /// engine's totals go into its registry, and the registry moves
    /// into the rebuilt engine, so the run's counters stay cumulative
    /// while [`RunResult::engine_stats`] describes the surviving
    /// engines; what the rebuilt engine recorded before it was
    /// installed (a revived rank's setup) is folded in. Its events
    /// stay the rank's too: the rebuilt engine's record (what its
    /// restart emitted) continues the outgoing one, in emission order.
    pub(super) fn install(&mut self, engine: CheckpointEngine) {
        let mut outgoing = std::mem::replace(&mut self.engine, engine);
        let mut registry = outgoing.metrics_mut().take();
        if let Some(reg) = &mut registry {
            publish(&outgoing, reg);
            if let Some(setup) = self.engine.metrics() {
                reg.merge_from(setup);
            }
        }
        self.engine.set_metrics(registry);
        let mut record = std::mem::take(outgoing.tracer_mut());
        for event in self.engine.tracer_mut().take() {
            record.emit(event.t_ns, event.kind);
        }
        self.engine.set_tracer(record);
    }
}

/// Add `engine`'s totals, and its store's, to `reg`.
fn publish(engine: &CheckpointEngine, reg: &mut MetricsRegistry) {
    engine.stats().publish(reg);
    if let Some(store) = engine.persistence_stats() {
        store.publish(reg);
    }
}

/// Where node `n`'s NVM and DRAM spill files live under the spill
/// directory.
fn spill_paths(dir: &TempDir, n: usize) -> [PathBuf; 2] {
    [
        dir.join(format!("nvm_{n}.spill")),
        dir.join(format!("dram_{n}.spill")),
    ]
}

/// Where rank `global`'s durable container lives under a store directory.
pub(super) fn rank_store_path(dir: &Path, global: u64) -> PathBuf {
    dir.join(format!("rank_{global}.store"))
}

/// An engine made from nothing: empty on `node`'s devices, then the
/// workload's `setup` allocates its chunks. `tracer` and `metrics`
/// see the setup — disabled for a run's first start, fresh ones when
/// the restore ladder bottoms out and a revived rank starts over.
pub(super) fn fresh_engine(
    config: &ClusterConfig,
    node: &NodeDevices,
    global: u64,
    clock: &VirtualClock,
    workload: &mut dyn Workload,
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
) -> Result<CheckpointEngine, SimError> {
    let mut engine = CheckpointEngine::new(
        global,
        &node.dram,
        &node.nvm,
        config.container_bytes,
        clock.clone(),
        config.engine,
    )?;
    engine.set_tracer(tracer);
    engine.set_metrics(metrics);
    workload.setup(&mut engine)?;
    Ok(engine)
}

pub(super) struct NodeDevices {
    pub(super) link: Link,
    pub(super) helper: HelperProcess,
    /// Checkpoint flows in flight: (ends_at, rate bytes/s) — they
    /// contend with application communication until they drain.
    pub(super) flows: Vec<(SimTime, f64)>,
    /// This node's NVM: its ranks' version slots, and the remote copy
    /// it hosts for its ring neighbour (`stores[hosted_by(n)]`).
    pub(super) nvm: MemoryDevice,
    /// This node's DRAM (working copies).
    pub(super) dram: MemoryDevice,
}

impl NodeDevices {
    /// Aggregate checkpoint-traffic rate active at `now` (prunes
    /// finished flows).
    pub(super) fn active_rate(&mut self, now: SimTime) -> f64 {
        self.flows.retain(|(end, _)| *end > now);
        self.flows.iter().map(|(_, r)| r).sum()
    }

    fn devices(&self) -> [&MemoryDevice; 2] {
        [&self.nvm, &self.dram]
    }
}

/// Where the run stands: what every phase reads and advances, what a
/// hard-failure recovery rolls back to and records into, and what
/// [`ClusterSim::reduce`] folds into the outcome.
pub(super) struct LoopState {
    /// The next iteration to execute (rolled back by failures).
    pub(super) iter: u64,
    pub(super) failures: FailureSchedule,
    pub(super) last_local_end: SimTime,
    pub(super) last_remote_end: SimTime,
    /// Iteration the last local checkpoint / remote epoch captured.
    pub(super) last_local_iter: u64,
    pub(super) last_remote_iter: u64,
    /// Cluster-level events (failures, recoveries, remote shipping)
    /// happen on the coordinator, outside any single rank's timeline;
    /// they get their own buffer and merge with the per-rank streams
    /// at the end. `None` unless the run is traced.
    pub(super) coord: Option<Vec<TraceEvent>>,
    pub(super) executed: u64,
    pub(super) lost: u64,
    pub(super) soft: u64,
    /// Local checkpoints committed so far.
    pub(super) local_ckpts: u64,
    /// Remote epochs committed so far.
    pub(super) remote_ckpts: u64,
    /// Checkpoint bytes per rank (`D`; the modeled fetch charge).
    pub(super) d_per_rank: u64,
    pub(super) recovery: Vec<RecoveryRecord>,
}

impl LoopState {
    fn new(sim: &ClusterSim) -> Self {
        let config = &sim.config;
        let failures = match (&config.schedule_override, &config.failures) {
            (Some(schedule), _) => schedule.clone(),
            (None, Some(cfg)) => {
                FailureSchedule::generate(cfg, SimTime::ZERO + config.failure_horizon, config.nodes)
            }
            (None, None) => FailureSchedule::none(),
        };
        LoopState {
            iter: 0,
            failures,
            last_local_end: SimTime::ZERO,
            last_remote_end: SimTime::ZERO,
            last_local_iter: 0,
            last_remote_iter: 0,
            coord: sim.options.trace.then(Vec::new),
            executed: 0,
            lost: 0,
            soft: 0,
            local_ckpts: 0,
            remote_ckpts: 0,
            d_per_rank: sim.ranks[0][0].engine.checkpoint_bytes() as u64,
            recovery: Vec::new(),
        }
    }

    /// Record a coordinator event at `t` on `rank`'s timeline (dropped
    /// unless the run is traced).
    pub(super) fn emit(&mut self, t: SimTime, rank: u64, kind: TraceEventKind) {
        if let Some(coord) = &mut self.coord {
            coord.push(TraceEvent {
                t_ns: t.as_nanos(),
                rank,
                kind,
            });
        }
    }
}

/// The simulator behind [`super::Cluster::run`].
pub(super) struct ClusterSim {
    pub(super) config: ClusterConfig,
    pub(super) options: RunOptions,
    pub(super) ranks: Vec<Vec<Rank>>, // [node][rank]
    pub(super) nodes: Vec<NodeDevices>,
    pub(super) stores: Vec<RemoteStore>, // stores[i] holds node i's data (on buddy NVM)
    /// Barrier synchronisations executed (coordinator-side counter).
    barriers: u64,
    /// Coordinator-side metrics (comm stalls, recovery fallbacks,
    /// barrier count, link peaks); `None` unless
    /// [`RunOptions::metrics`]. Only the coordinator writes it.
    pub(super) coord_metrics: Option<MetricsRegistry>,
    /// Owns the per-device spill files for the lifetime of the run;
    /// `None` when the run is synthetic or spill is disabled.
    spill_dir: Option<TempDir>,
}

impl ClusterSim {
    fn io_err(e: std::io::Error) -> SimError {
        SimError::Engine(EngineError::from(PersistError::Io(e)))
    }

    pub(super) fn with_options(
        config: ClusterConfig,
        options: RunOptions,
        mut factory: impl FnMut(u64) -> Box<dyn Workload>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let materialized = config.engine.materialization == Materialization::Bytes;

        // Byte-materialized runs spill every device region to a file:
        // region contents cost identical virtual time/wear/stats
        // wherever they live, and at 1024 ranks the images no longer
        // fit in process RAM. Attach before any engine allocates so
        // every materialized region is covered.
        let spill_dir = if config.spill && materialized {
            Some(TempDir::new("cluster-spill").map_err(Self::io_err)?)
        } else {
            None
        };

        let coord_metrics = options.metrics.then(MetricsRegistry::new);
        let helper_params = config.remote.map(|r| r.helper).unwrap_or_default();
        let mut nodes = Vec::new();
        for n in 0..config.nodes {
            let nvm = MemoryDevice::pcm(config.node_nvm_capacity(n));
            if let Some(bw) = config.nvm_bw_per_core {
                nvm.set_model(BandwidthModel::fixed_per_core(bw));
            }
            let dram = MemoryDevice::dram(config.node_dram_capacity(n));
            if let Some(dir) = &spill_dir {
                let [nvm_path, dram_path] = spill_paths(dir, n);
                nvm.attach_spill(Box::new(
                    FileSpill::create(&nvm_path).map_err(Self::io_err)?,
                ));
                dram.attach_spill(Box::new(
                    FileSpill::create(&dram_path).map_err(Self::io_err)?,
                ));
            }
            let mut helper = HelperProcess::with_params(helper_params);
            helper.set_metrics(options.metrics.then(MetricsRegistry::new));
            nodes.push(NodeDevices {
                link: Link::new(config.link_bandwidth()),
                helper,
                flows: Vec::new(),
                nvm,
                dram,
            });
        }

        if let Some(dir) = &options.store_dir {
            std::fs::create_dir_all(dir).map_err(Self::io_err)?;
        }

        let mut ranks = Vec::new();
        let mut stores = Vec::new();
        for (n, node) in nodes.iter().enumerate() {
            let mut node_ranks = Vec::new();
            for r in 0..config.ranks_per_node {
                let global = config.first_rank(n) + r as u64;
                let clock = VirtualClock::new();
                let mut workload = factory(global);
                let mut engine = fresh_engine(
                    &config,
                    node,
                    global,
                    &clock,
                    workload.as_mut(),
                    Tracer::disabled(),
                    None,
                )?;
                if options.trace {
                    engine.set_tracer(Tracer::new(global));
                }
                engine.set_metrics(options.metrics.then(MetricsRegistry::new));
                let mut rank = Rank {
                    global,
                    clock,
                    engine,
                    workload,
                };
                if let Some(dir) = &options.store_dir {
                    rank.attach_store(dir, config.container_bytes)?;
                }
                node_ranks.push(rank);
            }
            ranks.push(node_ranks);
            // Byte-materialized runs keep real chunk images in the
            // remote store, so a hard-failed node can be rebuilt from
            // its buddy bit-for-bit; synthetic runs keep it size-only.
            stores.push(RemoteStore::new(
                &nodes[config.buddy_of(n)].nvm,
                materialized,
            ));
        }
        Ok(ClusterSim {
            config,
            options,
            ranks,
            nodes,
            stores,
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

    pub(super) fn barrier(&mut self) -> SimTime {
        self.barriers += 1;
        let (id, t) = (self.barriers, self.max_time());
        for r in self.ranks.iter_mut().flatten() {
            // The barrier join edge of the causal DAG: stamped at the
            // rank's arrival, with its stall. The straggler(s) record
            // wait 0 — that zero is how the critical-path extractor
            // finds the rank that owned the segment. Runs on the
            // coordinator, so per-rank order (and hence the merged
            // trace) is thread-count independent.
            let arrival = r.clock.now();
            r.engine.tracer_mut().emit(
                arrival.as_nanos(),
                TraceEventKind::BarrierWait {
                    id,
                    wait_ns: t.since(arrival).as_nanos(),
                },
            );
            r.clock.advance_to(t);
        }
        t
    }

    /// The run loop, one pass per iteration of the Section-III
    /// schedule. The [`crate::RunProfile`] and [`SpillReport`] travel
    /// *next to* the result, never inside it — [`RunResult`] stays
    /// byte-identical across thread counts and machines; timing and
    /// host-memory accounting are neither. A profiled run's phase, rank
    /// and node-merge times go to `profiler`.
    pub(super) fn execute(
        &mut self,
        profiler: &mut Option<Profiler>,
    ) -> Result<RunOutcome, SimError> {
        let mut st = LoopState::new(self);
        while st.iter < self.config.iterations {
            let iter_start = self.max_time();
            Profiler::time(profiler, Phase::HandleFailures, |_| {
                self.handle_failures(&mut st, iter_start)
            })?;
            Profiler::time(profiler, Phase::Compute, |p| self.compute(&mut st, p))?;
            Profiler::time(profiler, Phase::PollHelpers, |_| {
                self.poll_helpers(iter_start)
            });
            if let Some(t1) = Profiler::time(profiler, Phase::CheckpointLocal, |p| {
                self.checkpoint_local(&mut st, p)
            })? {
                Profiler::time(profiler, Phase::CheckpointRemote, |_| {
                    self.checkpoint_remote(&mut st, t1)
                })?;
            }
        }
        Profiler::time(profiler, Phase::Reduce, |p| self.reduce(st, p))
    }

    /// Close every device and remove its spill file, one node per pool
    /// item, so the spill directory is empty when it is removed. The
    /// ranks' engines and the remote stores hold the other handles to
    /// the devices, so they go first; a node's devices are then closed
    /// by the worker that drops them.
    pub(super) fn teardown(self) {
        let ClusterSim {
            config,
            ranks,
            nodes,
            stores,
            spill_dir,
            ..
        } = self;
        drop(ranks);
        drop(stores);
        let mut nodes: Vec<(usize, Option<NodeDevices>)> =
            nodes.into_iter().map(Some).enumerate().collect();
        // Nothing here can fail the run: a file left behind goes with
        // the directory.
        let _ = pool_map(&mut nodes, config.threads, |(n, node)| {
            drop(node.take());
            if let Some(dir) = &spill_dir {
                for path in spill_paths(dir, *n) {
                    let _ = std::fs::remove_file(path);
                }
            }
            Ok(())
        });
    }

    /// One application iteration on every rank (the parallel epoch).
    fn compute(&mut self, st: &mut LoopState, p: Option<&mut Profiler>) -> Result<(), SimError> {
        let iter = st.iter;
        for_each_rank_parallel(
            &mut self.ranks,
            self.config.threads,
            p.map(Profiler::rank_busy),
            |rank| {
                rank.workload
                    .iterate(&mut rank.engine, iter)
                    .map_err(SimError::from)
            },
        )?;
        st.executed += 1;
        st.iter += 1;
        Ok(())
    }

    /// The coordinated local checkpoint, when one is due (the interval
    /// elapsed, or the run is ending): barrier, every rank's
    /// `nvchkptall`, barrier. Returns when it ended.
    fn checkpoint_local(
        &mut self,
        st: &mut LoopState,
        p: Option<&mut Profiler>,
    ) -> Result<Option<SimTime>, SimError> {
        let now = self.max_time();
        let due = self.config.local_interval.is_some_and(|interval| {
            now.since(st.last_local_end) >= interval || st.iter == self.config.iterations
        });
        if !due {
            return Ok(None);
        }
        self.barrier();
        for_each_rank_parallel(
            &mut self.ranks,
            self.config.threads,
            p.map(Profiler::rank_busy),
            |rank| {
                rank.engine
                    .nvchkptall()
                    .map(|_report| ())
                    .map_err(SimError::from)
            },
        )?;
        let t1 = self.barrier();
        st.last_local_end = t1;
        st.last_local_iter = st.iter;
        st.local_ckpts += 1;
        Ok(Some(t1))
    }

    /// The hierarchical end-of-run reduction of every rank's trace
    /// buffer, engine stats, metrics and store counters, plus the
    /// loop's state, into the [`RunOutcome`]. A serial fold is an
    /// O(ranks) floor that dominates wall time at 1024 ranks, so each
    /// node reduces its own ranks and devices ([`merge_node`]), in
    /// parallel when `threads > 1`, and the coordinator folds one
    /// partial result per node:
    ///
    /// * traces — each node emits its ranks' events merged in
    ///   `(time, rank)` order; the final fold re-sorts the
    ///   concatenated node streams (plus the coordinator buffer,
    ///   appended last) with the same stable key. Equal keys always
    ///   come from one rank's buffer — or that rank's buffer plus the
    ///   coordinator's — and both levels preserve their relative
    ///   order, so the result is byte-identical to the flat merge at
    ///   any thread count.
    /// * stats/metrics/store counters — integer sums, gauge maxes and
    ///   histogram bucket adds all commute and associate, so any merge
    ///   tree yields the same totals; snapshots are name-sorted, so
    ///   the report is identical too.
    fn reduce(&mut self, st: LoopState, p: Option<&mut Profiler>) -> Result<RunOutcome, SimError> {
        let total_time = self.barrier().since(SimTime::ZERO);
        let options = &self.options;
        let mut nodes: Vec<(&mut Vec<Rank>, &NodeDevices)> =
            self.ranks.iter_mut().zip(&self.nodes).collect();
        let busy = p.map(Profiler::merge_busy);
        let mut merged = pool_map_timed(&mut nodes, busy, self.config.threads, |(r, n)| {
            Ok(merge_node(r, n, options))
        })?;

        let trace = match st.coord {
            Some(coord) => {
                let mut streams: Vec<Vec<TraceEvent>> = merged
                    .iter_mut()
                    .map(|s| std::mem::take(&mut s.trace))
                    .collect();
                streams.push(coord);
                nvm_trace::merge_ranked(streams)
            }
            None => Vec::new(),
        };

        let metrics = self.coord_metrics.take().map(|mut reg| {
            reg.counter_add(names::CLUSTER_BARRIERS_TOTAL, self.barriers);
            for n in &self.nodes {
                reg.gauge_max(
                    names::LINK_PEAK_BYTES_PER_S,
                    n.link.trace().peak_bytes() as u64,
                );
            }
            for partial in merged.iter().filter_map(|s| s.registry.as_ref()) {
                reg.merge_from(partial);
            }
            for record in &st.recovery {
                record.publish(&mut reg);
            }
            MetricsReport::new(reg.snapshot())
        });

        // Store counters (None when no store is attached — so results
        // without `--store` serialize unchanged).
        let store_partials: Vec<&StoreStats> = merged
            .iter()
            .filter_map(|s| s.store_stats.as_ref())
            .collect();
        let store = (!store_partials.is_empty()).then(|| StoreStats::merged(store_partials));

        let result = RunResult {
            total_time,
            iterations_executed: st.executed,
            local_checkpoints: st.local_ckpts,
            remote_checkpoints: st.remote_ckpts,
            engine_stats: EngineStats::merged(merged.iter().map(|s| &s.engine_stats)),
            link_traces: self.nodes.iter().map(|n| n.link.trace().clone()).collect(),
            helper_stats: self.nodes.iter().map(|n| n.helper.stats()).collect(),
            helper_utilization: self
                .nodes
                .iter()
                .map(|n| n.helper.cpu_utilization())
                .collect(),
            soft_failures: st.soft,
            hard_failures: st.recovery.len() as u64,
            lost_iterations: st.lost,
            checkpoint_bytes_per_rank: st.d_per_rank,
            trace,
            metrics,
            store,
            recovery: st.recovery,
        };
        let spill = self.spill_dir.as_ref().map(|_| {
            let devices = || self.nodes.iter().flat_map(|n| n.devices());
            SpillReport {
                devices: devices().count(),
                peak_bytes: devices().map(|d| d.spill_peak_bytes()).sum(),
                live_bytes: devices().map(|d| d.spill_live_bytes()).sum(),
                resident_bytes: devices().map(|d| d.resident_bytes()).sum(),
                read_bytes: devices().map(|d| d.spill_read_bytes()).sum(),
                written_bytes: devices().map(|d| d.spill_written_bytes()).sum(),
            }
        });
        // The profile is `Cluster::run`'s to finish, once the teardown
        // has been timed.
        Ok(RunOutcome {
            result,
            profile: None,
            spill,
        })
    }
}

/// One node's share of [`ClusterSim::reduce`].
struct NodeMerge {
    trace: Vec<TraceEvent>,
    engine_stats: EngineStats,
    registry: Option<MetricsRegistry>,
    store_stats: Option<StoreStats>,
}

/// Reduce one node's ranks and devices: the ranks' trace buffers
/// merged in `(time, rank)` order, their engine and store stats
/// summed, their metrics and the node's folded into one registry.
fn merge_node(ranks: &mut [Rank], node: &NodeDevices, options: &RunOptions) -> NodeMerge {
    let trace = if options.trace {
        let buffers: Vec<Vec<TraceEvent>> = (ranks.iter_mut())
            .map(|r| r.engine.tracer_mut().take())
            .collect();
        nvm_trace::merge_ranked(buffers)
    } else {
        Vec::new()
    };
    let rank_stats: Vec<EngineStats> = ranks.iter().map(|r| r.engine.stats()).collect();
    let engine_stats = EngineStats::merged(rank_stats.iter());
    // The registries hold what was recorded live (latency
    // distributions, kv counters) and the totals of engines a recovery
    // replaced; every other counter is published here, from the stats
    // structs that are its one record.
    let registry = options.metrics.then(|| {
        let mut reg = MetricsRegistry::new();
        for r in ranks.iter() {
            if let Some(own) = r.engine.metrics() {
                reg.merge_from(own);
            }
            publish(&r.engine, &mut reg);
        }
        if let Some(own) = node.helper.metrics() {
            reg.merge_from(own);
        }
        node.helper.stats().publish(&mut reg);
        for dev in node.devices() {
            dev.stats().publish(dev.kind(), &mut reg);
        }
        reg
    });
    let store_stats: Vec<StoreStats> = ranks
        .iter()
        .filter_map(|r| r.engine.persistence_stats())
        .collect();
    let store_stats = (!store_stats.is_empty()).then(|| StoreStats::merged(&store_stats));
    NodeMerge {
        trace,
        engine_stats,
        registry,
        store_stats,
    }
}
