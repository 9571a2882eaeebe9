//! The checkpoint engine: one process's (MPI rank's) checkpoint
//! library surface.
//!
//! [`CheckpointEngine`] is a thin facade over the [`CommitCore`]
//! (every byte: allocation, data path, stage, commit, restart — the
//! engine derefs to it) and the pre-copy [`Scheduler`] (only *when*
//! the core stages). It adds what needs both: application writes
//! (made, like reads, through an [`Access`]) and deletes also reach
//! the scheduler, [`CheckpointEngine::compute`]
//! runs the background drain, and [`CheckpointEngine::nvchkptall`]
//! closes the interval the scheduler learns from. All operations
//! charge a shared [`VirtualClock`].

use crate::access::Access;
use crate::checksum::crc64;
use crate::commit::{CommitCore, Committed};
use crate::config::{ConfigError, EngineConfig};
use crate::persist::{PersistError, Persistence, RecoveredChunk};
use crate::precopy::{self, Scheduler};
use crate::restart::RestartStrategy;
use crate::stats::{EngineStats, EpochReport};
use nvm_emu::{DeviceError, MemoryDevice, RegionId, SimDuration, VirtualClock};
use nvm_heap::HeapError;
use nvm_metrics::MetricsRegistry;
use nvm_paging::metadata::MetadataError;
use nvm_paging::ChunkId;
use nvm_trace::{TraceEventKind, Tracer};

/// Errors surfaced by the engine.
#[non_exhaustive]
#[derive(Debug)]
pub enum EngineError {
    /// Allocator failure.
    Heap(HeapError),
    /// Device failure.
    Device(DeviceError),
    /// Metadata region failure.
    Metadata(MetadataError),
    /// A committed chunk failed checksum verification on restart.
    ChecksumMismatch {
        /// The offending chunk.
        chunk: ChunkId,
        /// Checksum stored at commit.
        expected: u64,
        /// Checksum of the bytes actually read back.
        actual: u64,
    },
    /// Restart was asked for a chunk that has no committed version.
    NoCommittedData(ChunkId),
    /// The configuration was rejected at engine construction.
    Config(ConfigError),
    /// The attached durable persistence backend failed.
    Store(PersistError),
}

nvm_emu::error_enum! {
    EngineError, f {
        wrap Heap(HeapError) => "heap",
        wrap Config(ConfigError) => "config",
        wrap Device(DeviceError) => "device",
        wrap Metadata(MetadataError) => "metadata",
        wrap Store(PersistError) => "store",
        leaf EngineError::ChecksumMismatch { chunk, expected, actual } => write!(
            f,
            "checksum mismatch on {chunk:?}: stored {expected:#x}, read {actual:#x}"
        ),
        leaf EngineError::NoCommittedData(id) => write!(f, "no committed checkpoint for {id:?}"),
    }
}

/// Outcome of a restart.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Chunks restored into DRAM from their committed NVM version.
    pub restored: Vec<ChunkId>,
    /// Chunks whose committed data failed checksum verification — the
    /// caller should fetch these from the remote copy.
    pub corrupt: Vec<ChunkId>,
    /// Chunks that had no committed version (allocated but never
    /// checkpointed before the failure).
    pub never_committed: Vec<ChunkId>,
    /// Chunks whose restore was deferred to first access
    /// ([`RestartStrategy::Lazy`]).
    pub deferred: Vec<ChunkId>,
    /// Virtual time the restart took (`R_lcl` in the model).
    pub duration: SimDuration,
}

/// One chunk image fetched from a buddy node's remote container,
/// ready to be installed by [`CheckpointEngine::restart_from_images`].
/// The fetch itself (retries, wire time) is the caller's business —
/// this is the arrived, verified-or-verifiable payload.
#[derive(Clone, Debug)]
pub struct RemoteImage {
    /// Chunk identity, preserved across the restart.
    pub id: ChunkId,
    /// Chunk name, preserved across the restart.
    pub name: String,
    /// Logical chunk length in bytes (equals `payload.len()` for
    /// byte-materialized images).
    pub len: usize,
    /// CRC-64 recorded at remote-put time; `None` recomputes it from
    /// the payload on install.
    pub checksum: Option<u64>,
    /// Remote epoch the image was committed under.
    pub epoch: u64,
    /// The chunk bytes as last committed to the buddy.
    pub payload: Vec<u8>,
}

/// The per-process checkpoint engine: a [`CommitCore`] — to which it
/// derefs, so every `&self` query is the core's — driven by a pre-copy
/// [`Scheduler`].
pub struct CheckpointEngine {
    core: CommitCore,
    sched: Scheduler,
    /// The heap's DRAM device, which an [`Access`] locks apart from
    /// the core it borrows.
    dram: MemoryDevice,
    config: EngineConfig,
    /// [`CommitCore::stats`] as of the interval start; an
    /// [`EpochReport`]'s per-interval counts are the totals' movement
    /// since.
    interval_stats: EngineStats,
}

impl std::ops::Deref for CheckpointEngine {
    type Target = CommitCore;

    fn deref(&self) -> &CommitCore {
        &self.core
    }
}

impl CheckpointEngine {
    /// Create an engine for process `process_id` with an NVM container
    /// of `container_capacity` bytes.
    pub fn new(
        process_id: u64,
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        container_capacity: usize,
        clock: VirtualClock,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let core = CommitCore::fresh(process_id, dram, nvm, container_capacity, clock, &config)?;
        Ok(Self::assemble(core, config))
    }

    /// The one place an engine value is put together, around a new or
    /// restarted core: the first interval starts now.
    fn assemble(core: CommitCore, config: EngineConfig) -> Self {
        CheckpointEngine {
            sched: Scheduler::new(&config, core.clock().now()),
            dram: core.heap().dram().clone(),
            interval_stats: core.stats(),
            core,
            config,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Attach a [`Tracer`]: protection faults, pre-copy activity,
    /// coordinated phases, commit flips, and restarts are recorded into
    /// it, stamped with this engine's virtual clock. Pass
    /// [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.tracer = tracer;
    }

    /// This engine's event record, for callers that emit on the
    /// engine's behalf (the kv layer, a cluster coordinator) or take
    /// its events.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.core.tracer
    }

    /// Attach a [`MetricsRegistry`]: the fault and coordinated-step
    /// latency distributions are recorded into it (event totals are
    /// not: [`EngineStats::publish`] turns [`CommitCore::stats`] into
    /// counters). Pass `None` to detach.
    pub fn set_metrics(&mut self, metrics: Option<MetricsRegistry>) {
        self.core.metrics = metrics;
    }

    /// This engine's metrics registry, for callers that record on the
    /// engine's behalf (the kv layer) or take its registry.
    pub fn metrics_mut(&mut self) -> &mut Option<MetricsRegistry> {
        &mut self.core.metrics
    }

    /// Attach a durable [`Persistence`] backend. Every subsequent
    /// commit is mirrored into it — chunk payloads into shadow slots,
    /// then one atomic commit record — so the checkpoint survives this
    /// process. Mirroring charges no virtual time (the emulated
    /// devices already paid for every copy), so results with and
    /// without a backend are identical.
    pub fn set_persistence(&mut self, store: Box<dyn Persistence>) {
        self.core.set_persistence(store);
    }

    /// Allocate a checkpoint chunk (`nvalloc(genid(name), len, pflg)`).
    pub fn nvmalloc(
        &mut self,
        name: &str,
        len: usize,
        persistent: bool,
    ) -> Result<ChunkId, EngineError> {
        self.core.nvmalloc(name, len, persistent)
    }

    /// 2-D allocation wrapper (`nv2dalloc`).
    pub fn nv2dalloc(
        &mut self,
        name: &str,
        dim1: usize,
        dim2: usize,
        elem_size: usize,
        persistent: bool,
    ) -> Result<ChunkId, EngineError> {
        self.nvmalloc(name, dim1 * dim2 * elem_size, persistent)
    }

    /// Attach existing data as a chunk (`nvattach`).
    pub fn nvattach(&mut self, name: &str, src: &[u8]) -> Result<ChunkId, EngineError> {
        self.core.nvattach(name, src)
    }

    /// Grow a chunk (`nvrealloc`).
    pub fn nvrealloc(&mut self, id: ChunkId, new_len: usize) -> Result<(), EngineError> {
        self.core.nvrealloc(id, new_len)
    }

    /// Delete a chunk (`nvdelete`).
    pub fn nvdelete(&mut self, id: ChunkId) -> Result<(), EngineError> {
        self.core.nvdelete(id)?;
        self.sched.forget(id);
        Ok(())
    }

    /// Run `f` over an [`Access`]: a run of application reads, views
    /// and writes of the working copies under one hold of the DRAM
    /// device's lock, each charged and recorded exactly as the engine
    /// call of its name (see the `access` module docs). `f` must not
    /// use the DRAM device itself.
    pub fn access<R>(&mut self, f: impl FnOnce(&mut Access<'_>) -> R) -> R {
        f(&mut Access::open(
            &mut self.core,
            &mut self.sched,
            &self.dram,
        ))
    }

    /// Application write of real bytes into a chunk's working copy:
    /// one [`Access::write`].
    pub fn write(&mut self, id: ChunkId, offset: usize, data: &[u8]) -> Result<(), EngineError> {
        self.access(|a| a.write(id, offset, data))
    }

    /// Application write, size-only (paper-scale benches): one
    /// [`Access::write_synthetic`].
    pub fn write_synthetic(
        &mut self,
        id: ChunkId,
        offset: usize,
        len: usize,
    ) -> Result<(), EngineError> {
        self.access(|a| a.write_synthetic(id, offset, len))
    }

    /// Read real bytes from a chunk's working copy: one
    /// [`Access::read`].
    pub fn read(&mut self, id: ChunkId, offset: usize, buf: &mut [u8]) -> Result<(), EngineError> {
        self.access(|a| a.read(id, offset, buf))
    }

    /// Model a compute segment of length `dur`. Background pre-copy
    /// runs during the segment per the configured policy; the clock
    /// advances by `dur` plus the memory-interference penalty of any
    /// background copying.
    pub fn compute(&mut self, dur: SimDuration) {
        let (epoch, seg_start) = (self.core.epoch(), self.core.clock().now());
        let window = self.sched.window(epoch, seg_start, dur);
        let mut interference = SimDuration::ZERO;
        if !window.is_zero() {
            if self.core.tracer().enabled() {
                let candidates = self.sched.candidates(self.core.chunks()).count() as u64;
                self.core
                    .trace(TraceEventKind::PrecopyStart { epoch, candidates });
            }
            // Stage what the scheduler picks, within `window` of
            // background-copy time.
            self.sched.open(window);
            let mut busy = SimDuration::ZERO;
            while let Some(id) = self.sched.next(self.core.chunks()) {
                // A failed background stage ends this segment's drain:
                // the chunk stays dirty and un-staged, so the
                // coordinated step stages it and returns the error.
                let Ok(cost) = self.core.stage(id) else {
                    break;
                };
                self.sched.charge(cost);
                busy += cost;
            }
            self.sched.close();
            interference = busy * precopy::INTERFERENCE;
            self.core.trace(TraceEventKind::PrecopyEnd {
                epoch,
                busy_ns: busy.as_nanos(),
                interference_ns: interference.as_nanos(),
            });
        }
        self.core.advance(dur, interference);
    }

    /// Coordinated local checkpoint of all persistent chunks
    /// (`nvchkptall()`). Blocks the application for the copy of
    /// still-dirty data, flushes, checksums, and commits.
    pub fn nvchkptall(&mut self) -> Result<EpochReport, EngineError> {
        let done = self.core.checkpoint(None)?;
        let (totals, before) = (self.core.stats(), self.interval_stats);
        let precopied_bytes = totals.precopied_bytes - before.precopied_bytes;
        let nvm = self.core.heap().nvm();
        let bw = nvm.per_core_bandwidth(self.config.node_concurrency, 32 << 20);
        let moved = done.coordinated_bytes + precopied_bytes;
        let now = self.core.clock().now();
        let interval = self
            .sched
            .end_interval(now, done.coordinated_time, moved, bw);
        let report = EpochReport {
            precopied_bytes,
            wasted_bytes: totals.wasted_precopy_bytes - before.wasted_precopy_bytes,
            faults: totals.faults - before.faults,
            interval,
            ..done
        };
        self.interval_stats = totals;
        Ok(report)
    }

    /// Blocking checkpoint of a single chunk (`nvchkptid(id)`).
    /// Commits just that chunk; does not advance the epoch.
    pub fn nvchkptid(&mut self, id: ChunkId) -> Result<SimDuration, EngineError> {
        Ok(self.core.checkpoint(Some(id))?.coordinated_time)
    }

    /// Overwrite committed NVM bytes of a chunk *without* updating its
    /// checksum — silent data corruption, for failure-injection tests
    /// and the restart-fallback experiments.
    pub fn corrupt_committed(&mut self, id: ChunkId) -> Result<(), EngineError> {
        self.core.corrupt_committed(id)
    }

    /// Clear a chunk's remote-dirty state after the helper copied it.
    pub fn mark_remote_copied(&mut self, id: ChunkId) {
        self.core.mark_remote_copied(id);
    }

    /// Rebuild an engine from a persisted metadata region after a
    /// process restart (soft failure: the NVM device survived).
    ///
    /// `strategy` is `Eager` (verify + restore everything serially),
    /// `Parallel` (concurrent restore streams), or `Lazy` (verify +
    /// restore each chunk on first access). Checksums are verified
    /// where available and committed data restored into fresh DRAM
    /// working copies; chunks that fail verification are listed in the
    /// report for remote recovery. The restart itself is recorded on
    /// `tracer` as a [`TraceEventKind::Restart`] event and the rebuilt
    /// engine keeps the tracer ([`Tracer::disabled`] for none).
    pub fn restart(
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        metadata_region: RegionId,
        clock: VirtualClock,
        config: EngineConfig,
        strategy: RestartStrategy,
        tracer: Tracer,
    ) -> Result<(Self, RestartReport), EngineError> {
        let t0 = clock.now();
        let (core, chunks) = CommitCore::reopen(dram, nvm, metadata_region, clock, &config)?;
        let (core, report) = core.restart_core(t0, 0, chunks, None, strategy, tracer)?;
        Ok((Self::assemble(core, config), report))
    }

    /// Rebuild an engine from a durable [`Persistence`] backend alone:
    /// nothing of the failed process survives except its container
    /// file. Fresh devices are populated from the store's last durable
    /// commit, with restore costs charged exactly as
    /// [`CheckpointEngine::restart`] charges them — the store file
    /// stands in for the surviving NVM medium, so installing its
    /// payloads back into the emulated device is free while the
    /// modeled NVM-read + DRAM-write of each restore is paid per the
    /// strategy. Under [`RestartStrategy::Lazy`] the media read itself
    /// waits for first access: an untouched chunk is never fetched
    /// from the store. The rebuilt engine keeps the store attached.
    #[allow(clippy::too_many_arguments)]
    pub fn restart_from_store(
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        container_capacity: usize,
        clock: VirtualClock,
        config: EngineConfig,
        strategy: RestartStrategy,
        mut store: Box<dyn Persistence>,
        tracer: Tracer,
    ) -> Result<(Self, RestartReport), EngineError> {
        let t0 = clock.now();
        let state = store.recover()?;
        let mut core = CommitCore::fresh(
            state.process_id,
            dram,
            nvm,
            container_capacity,
            clock,
            &config,
        )?;
        core.set_persistence(store);
        let recovery = TraceEventKind::StoreRecovery {
            epoch: state.epoch,
            chunks: state.chunks.len() as u64,
            torn: state.torn_writes_detected,
        };
        let epoch = state.epoch.map_or(0, |e| e + 1);
        let chunks = (state.chunks.into_iter())
            .map(|rec| (rec.id, Some(Committed::Recovered(rec)), None))
            .collect();
        let (core, report) =
            core.restart_core(t0, epoch, chunks, Some(recovery), strategy, tracer)?;
        Ok((Self::assemble(core, config), report))
    }

    /// Rebuild an engine from chunk images fetched off a buddy node's
    /// remote container — the paper's hard-failure path: the failed
    /// node's local NVM is gone, so the replacement process is seeded
    /// entirely from images that crossed the interconnect. Transfer
    /// costs (retries, wire time) belong to the caller; this charges
    /// only the install side — NVM seed + DRAM restore per chunk —
    /// exactly as [`CheckpointEngine::restart_from_store`] charges its
    /// restores. `next_epoch` sets the rebuilt engine's epoch counter
    /// (the cluster's local-checkpoint count, so epoch numbering keeps
    /// advancing instead of rewinding to the remote epoch).
    /// [`RestartStrategy::Lazy`] is charged as `Eager`: remote images
    /// only exist because they were already fetched, so there is
    /// nothing left to defer.
    #[allow(clippy::too_many_arguments)]
    pub fn restart_from_images(
        process_id: u64,
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        container_capacity: usize,
        clock: VirtualClock,
        config: EngineConfig,
        strategy: RestartStrategy,
        images: &[RemoteImage],
        next_epoch: u64,
        tracer: Tracer,
    ) -> Result<(Self, RestartReport), EngineError> {
        let t0 = clock.now();
        let core = CommitCore::fresh(process_id, dram, nvm, container_capacity, clock, &config)?;
        let chunks = images
            .iter()
            .map(|img| {
                let from = Committed::Recovered(RecoveredChunk {
                    id: img.id,
                    name: img.name.clone(),
                    len: img.len,
                    payload_len: img.payload.len(),
                    checksum: img.checksum.unwrap_or_else(|| crc64(&img.payload)),
                    epoch: img.epoch,
                });
                (img.id, Some(from), Some(&img.payload[..]))
            })
            .collect();
        let (core, report) = core.restart_core(t0, next_epoch, chunks, None, strategy, tracer)?;
        Ok((Self::assemble(core, config), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrecopyPolicy;
    use nvm_heap::Materialization;
    use nvm_metrics::names;

    const MB: usize = 1 << 20;

    fn setup(config: EngineConfig) -> (CheckpointEngine, MemoryDevice, MemoryDevice, VirtualClock) {
        let dram = MemoryDevice::dram(256 * MB);
        let nvm = MemoryDevice::pcm(256 * MB);
        let clock = VirtualClock::new();
        let engine =
            CheckpointEngine::new(0, &dram, &nvm, 128 * MB, clock.clone(), config).unwrap();
        (engine, dram, nvm, clock)
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let (mut e, dram, nvm, clock) = setup(EngineConfig::default());
        let a = e.nvmalloc("a", 4096, true).unwrap();
        let b = e.nvmalloc("b", 8192, true).unwrap();
        e.write(a, 0, &[1u8; 4096]).unwrap();
        e.write(b, 0, &[2u8; 8192]).unwrap();
        e.compute(SimDuration::from_secs(1));
        e.nvchkptall().unwrap();

        let region = e.metadata_region();
        drop(e); // process dies (soft failure)

        let (mut e2, report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.restored.len(), 2);
        assert!(report.corrupt.is_empty());
        let mut buf = vec![0u8; 4096];
        e2.read(a, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 4096]);
        let mut buf = vec![0u8; 8192];
        e2.read(b, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![2u8; 8192]);
    }

    #[test]
    fn crash_before_commit_preserves_previous_checkpoint() {
        let (mut e, dram, nvm, clock) = setup(EngineConfig::default());
        let a = e.nvmalloc("a", 4096, true).unwrap();
        e.write(a, 0, &[1u8; 4096]).unwrap();
        e.nvchkptall().unwrap(); // epoch 0 committed with 1s

        // New data, *partially* checkpointed: staged into the
        // in-progress slot but crash before commit (no metadata save).
        e.write(a, 0, &[9u8; 4096]).unwrap();
        e.core.stage(a).unwrap();
        let region = e.metadata_region();
        drop(e); // crash

        let (mut e2, report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.restored, vec![a]);
        let mut buf = vec![0u8; 4096];
        e2.read(a, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 4096], "must restore the committed version");
    }

    #[test]
    fn corruption_is_detected_on_restart() {
        let (mut e, dram, nvm, clock) = setup(EngineConfig::default());
        let a = e.nvmalloc("a", 4096, true).unwrap();
        let b = e.nvmalloc("b", (64 << 10) + 29, true).unwrap();
        e.write(a, 0, &[1u8; 4096]).unwrap();
        e.write(b, 0, &vec![2u8; (64 << 10) + 29]).unwrap();
        e.nvchkptall().unwrap();
        // `a`: its first 64 bytes overwritten. `b`: one bit, deep in
        // the committed slot — a steady-state stride of the CRC kernel.
        e.corrupt_committed(a).unwrap();
        let heap = e.core.heap();
        let slot = heap.chunk(b).unwrap().committed_extent().unwrap();
        nvm.view_mut(heap.container(), slot.offset + 300 * 128 + 5, 1, |byte| {
            byte[0] ^= 0x10
        })
        .unwrap();
        let region = e.metadata_region();
        drop(e);

        let (_e2, report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.corrupt, vec![a, b], "checksum must catch corruption");
        assert!(report.restored.is_empty());
    }

    #[test]
    fn precopy_drains_data_before_coordinated_step() {
        let mut cfg = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
        cfg.checksums = false;
        let (mut e, ..) = setup(cfg);
        let a = e.nvmalloc("a", 4 * MB, true).unwrap();
        e.write(a, 0, &vec![3u8; 4 * MB]).unwrap();
        // Long compute: plenty of background bandwidth to drain 4 MB.
        e.compute(SimDuration::from_secs(5));
        let report = e.nvchkptall().unwrap();
        assert_eq!(report.precopied_bytes, 4 * MB as u64);
        assert_eq!(report.coordinated_bytes, 0);
        assert!(report.coordinated_time < SimDuration::from_millis(100));
    }

    #[test]
    fn no_precopy_copies_everything_at_checkpoint() {
        let (mut e, ..) = setup(EngineConfig::default().with_precopy(PrecopyPolicy::None));
        let a = e.nvmalloc("a", 4 * MB, true).unwrap();
        e.write(a, 0, &vec![3u8; 4 * MB]).unwrap();
        e.compute(SimDuration::from_secs(5));
        let report = e.nvchkptall().unwrap();
        assert_eq!(report.precopied_bytes, 0);
        assert_eq!(report.coordinated_bytes, 4 * MB as u64);
        // And it re-copies even unmodified data next epoch.
        e.compute(SimDuration::from_secs(5));
        let r2 = e.nvchkptall().unwrap();
        assert_eq!(r2.coordinated_bytes, 4 * MB as u64);
        assert_eq!(r2.skipped_bytes, 0);
    }

    #[test]
    fn unmodified_chunks_are_skipped_with_tracking() {
        let mut cfg = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
        cfg.checksums = false;
        let (mut e, ..) = setup(cfg);
        let a = e.nvmalloc("init_only", 4 * MB, true).unwrap();
        let b = e.nvmalloc("hot", MB, true).unwrap();
        e.write(a, 0, &vec![1u8; 4 * MB]).unwrap();
        e.write(b, 0, &vec![2u8; MB]).unwrap();
        e.compute(SimDuration::from_secs(5));
        e.nvchkptall().unwrap();

        // Second epoch: only b is touched.
        e.write(b, 0, &vec![5u8; MB]).unwrap();
        e.compute(SimDuration::from_secs(5));
        let r = e.nvchkptall().unwrap();
        assert_eq!(
            r.skipped_bytes,
            4 * MB as u64,
            "init-only chunk must be skipped (the GTC effect)"
        );
        assert_eq!(r.total_bytes(), MB as u64);
    }

    #[test]
    fn rewriting_precopied_chunk_counts_as_waste() {
        let mut cfg = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
        cfg.checksums = false;
        let (mut e, ..) = setup(cfg);
        let a = e.nvmalloc("a", MB, true).unwrap();
        e.write(a, 0, &vec![1u8; MB]).unwrap();
        e.compute(SimDuration::from_secs(2)); // pre-copies a
        e.write(a, 0, &vec![2u8; MB]).unwrap(); // invalidates the copy
        e.compute(SimDuration::from_secs(2)); // pre-copies a again
        let r = e.nvchkptall().unwrap();
        assert_eq!(r.wasted_bytes, MB as u64);
        assert_eq!(r.precopied_bytes, 2 * MB as u64, "copied twice");
        // Content must still be the latest value.
        let data = e.committed_bytes(a).unwrap();
        assert_eq!(data, vec![2u8; MB]);
    }

    #[test]
    fn committed_content_reflects_last_write_before_checkpoint() {
        let (mut e, ..) = setup(EngineConfig::default());
        let a = e.nvmalloc("a", 1024, true).unwrap();
        for round in 0..5u8 {
            e.write(a, 0, &vec![round; 1024]).unwrap();
            e.compute(SimDuration::from_millis(100));
            e.nvchkptall().unwrap();
            assert_eq!(e.committed_bytes(a).unwrap(), vec![round; 1024]);
        }
        assert_eq!(e.epoch(), 5);
    }

    #[test]
    fn dcpcp_defers_hot_chunks() {
        let mut cfg = EngineConfig::default().with_precopy(PrecopyPolicy::Dcpcp);
        cfg.checksums = false;
        let (mut e, ..) = setup(cfg);
        let hot = e.nvmalloc("hot", MB, true).unwrap();
        // Learning epoch: hot chunk written 3 times.
        for _ in 0..3 {
            e.write_synthetic(hot, 0, MB).unwrap();
            e.compute(SimDuration::from_secs(1));
        }
        e.nvchkptall().unwrap();
        let wasted_learning = e.stats().wasted_precopy_bytes;

        // Trained epoch, same pattern: the first two writes must not
        // trigger pre-copy, so no waste accrues this interval.
        for _ in 0..3 {
            e.write_synthetic(hot, 0, MB).unwrap();
            e.compute(SimDuration::from_secs(1));
        }
        let r = e.nvchkptall().unwrap();
        assert_eq!(
            e.stats().wasted_precopy_bytes,
            wasted_learning,
            "trained predictor must not waste copies on the hot chunk"
        );
        assert!(r.total_bytes() >= MB as u64);
    }

    #[test]
    fn faults_are_charged_and_counted() {
        let mut cfg = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
        cfg.checksums = false;
        let (mut e, ..) = setup(cfg);
        let a = e.nvmalloc("a", MB, true).unwrap();
        e.write(a, 0, &vec![1u8; MB]).unwrap();
        e.compute(SimDuration::from_secs(2)); // precopy protects a
        let faults_before = e.stats().faults;
        e.write(a, 0, &[7u8; 64]).unwrap(); // must fault once
        assert_eq!(e.stats().faults, faults_before + 1);
        assert!(e.stats().fault_time >= SimDuration::from_micros(6));
    }

    #[test]
    fn nvchkptid_commits_single_chunk() {
        let (mut e, ..) = setup(EngineConfig::default());
        let a = e.nvmalloc("a", 1024, true).unwrap();
        let b = e.nvmalloc("b", 1024, true).unwrap();
        e.write(a, 0, &[1u8; 1024]).unwrap();
        e.write(b, 0, &[2u8; 1024]).unwrap();
        let cost = e.nvchkptid(a).unwrap();
        assert!(!cost.is_zero());
        assert!(e.heap().chunk(a).unwrap().has_committed());
        assert!(!e.heap().chunk(b).unwrap().has_committed());
        assert_eq!(e.committed_bytes(a).unwrap(), vec![1u8; 1024]);
        assert!(matches!(
            e.committed_bytes(b),
            Err(EngineError::NoCommittedData(_))
        ));
    }

    #[test]
    fn remote_dirty_tracking_is_exposed() {
        let (mut e, ..) = setup(EngineConfig::default());
        let a = e.nvmalloc("a", 1024, true).unwrap();
        e.write(a, 0, &[1u8; 1024]).unwrap();
        assert_eq!(e.remote_dirty_chunks(), vec![a]);
        e.mark_remote_copied(a);
        assert!(e.remote_dirty_chunks().is_empty());
        e.write(a, 0, &[2u8; 16]).unwrap();
        assert_eq!(e.remote_dirty_chunks(), vec![a]);
    }

    #[test]
    fn clock_advances_with_every_operation() {
        let (mut e, _, _, clock) = setup(EngineConfig::default());
        let t0 = clock.now();
        let a = e.nvmalloc("a", MB, true).unwrap();
        let t1 = clock.now();
        assert!(t1 > t0, "metadata save must cost time");
        e.write(a, 0, &vec![1u8; MB]).unwrap();
        let t2 = clock.now();
        assert!(t2 > t1);
        e.nvchkptall().unwrap();
        assert!(clock.now() > t2);
    }

    #[test]
    fn lazy_restart_defers_until_first_access() {
        let (mut e, dram, nvm, clock) = setup(EngineConfig::default());
        let a = e.nvmalloc("a", 4096, true).unwrap();
        let b = e.nvmalloc("b", 4096, true).unwrap();
        e.write(a, 0, &[1u8; 4096]).unwrap();
        e.write(b, 0, &[2u8; 4096]).unwrap();
        e.nvchkptall().unwrap();
        let region = e.metadata_region();
        drop(e);

        let (mut e2, report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Lazy,
            Tracer::disabled(),
        )
        .unwrap();
        assert!(report.restored.is_empty());
        assert_eq!(report.deferred.len(), 2);
        assert_eq!(e2.lazy_pending_count(), 2);

        // First access restores; the other stays pending.
        let mut buf = vec![0u8; 4096];
        e2.read(a, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 4096]);
        assert_eq!(e2.lazy_pending_count(), 1);
        // Writes also trigger restore first.
        e2.write(b, 0, &[9u8; 16]).unwrap();
        assert_eq!(e2.lazy_pending_count(), 0);
        let mut buf = vec![0u8; 4096];
        e2.read(b, 0, &mut buf).unwrap();
        assert_eq!(&buf[..16], &[9u8; 16]);
        assert_eq!(&buf[16..], &vec![2u8; 4080][..]);
    }

    #[test]
    fn lazy_restart_is_cheaper_upfront_than_eager() {
        let mk = || {
            let dram = MemoryDevice::dram(256 * MB);
            let nvm = MemoryDevice::pcm(256 * MB);
            let clock = VirtualClock::new();
            let mut e = CheckpointEngine::new(
                0,
                &dram,
                &nvm,
                128 * MB,
                clock.clone(),
                EngineConfig::default(),
            )
            .unwrap();
            let a = e.nvmalloc("a", 16 * MB, true).unwrap();
            e.write(a, 0, &vec![1u8; 16 * MB]).unwrap();
            e.nvchkptall().unwrap();
            let region = e.metadata_region();
            drop(e);
            (dram, nvm, clock, region)
        };
        let (dram, nvm, clock, region) = mk();
        let (_, eager) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        let (dram, nvm, clock, region) = mk();
        let (_, lazy) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Lazy,
            Tracer::disabled(),
        )
        .unwrap();
        assert!(
            lazy.duration.as_nanos() * 10 < eager.duration.as_nanos(),
            "lazy {} vs eager {}",
            lazy.duration,
            eager.duration
        );
    }

    #[test]
    fn parallel_restart_is_faster_than_eager() {
        let mk = || {
            let dram = MemoryDevice::dram(512 * MB);
            let nvm = MemoryDevice::pcm(512 * MB);
            let clock = VirtualClock::new();
            let cfg = EngineConfig::builder().checksums(false).build().unwrap();
            let mut e =
                CheckpointEngine::new(0, &dram, &nvm, 256 * MB, clock.clone(), cfg).unwrap();
            for i in 0..8 {
                let id = e.nvmalloc(&format!("c{i}"), 8 * MB, true).unwrap();
                e.write_synthetic(id, 0, 8 * MB).unwrap();
            }
            e.nvchkptall().unwrap();
            let region = e.metadata_region();
            drop(e);
            (dram, nvm, clock, region, cfg)
        };
        let (dram, nvm, clock, region, cfg) = mk();
        let (_, eager) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            cfg,
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        let (dram, nvm, clock, region, cfg) = mk();
        let (_, parallel) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            cfg,
            RestartStrategy::Parallel { streams: 8 },
            Tracer::disabled(),
        )
        .unwrap();
        assert!(
            parallel.duration < eager.duration,
            "parallel {} vs eager {}",
            parallel.duration,
            eager.duration
        );
        assert_eq!(parallel.restored.len(), 8);
    }

    #[test]
    fn lazy_restore_detects_corruption_on_access() {
        let (mut e, dram, nvm, clock) = setup(EngineConfig::default());
        let a = e.nvmalloc("a", 4096, true).unwrap();
        e.write(a, 0, &[1u8; 4096]).unwrap();
        e.nvchkptall().unwrap();
        e.corrupt_committed(a).unwrap();
        let region = e.metadata_region();
        drop(e);
        let (mut e2, report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Lazy,
            Tracer::disabled(),
        )
        .unwrap();
        assert!(report.corrupt.is_empty(), "not detected yet");
        let mut buf = vec![0u8; 4096];
        let err = e2.read(a, 0, &mut buf).unwrap_err();
        assert!(matches!(err, EngineError::ChecksumMismatch { .. }));
    }

    #[test]
    fn nvattach_then_checkpoint_roundtrips() {
        let (mut e, ..) = setup(EngineConfig::default());
        let src: Vec<u8> = (0..8192u32).map(|i| (i % 254) as u8).collect();
        let id = e.nvattach("custom_alloc", &src).unwrap();
        e.nvchkptall().unwrap();
        assert_eq!(e.committed_bytes(id).unwrap(), src);
    }

    #[test]
    fn nvrealloc_invalidates_commit_until_next_checkpoint() {
        let (mut e, ..) = setup(EngineConfig::default());
        let id = e.nvmalloc("grid", 4096, true).unwrap();
        e.write(id, 0, &[1u8; 4096]).unwrap();
        e.nvchkptall().unwrap();
        e.nvrealloc(id, 16384).unwrap();
        assert!(
            matches!(e.committed_bytes(id), Err(EngineError::NoCommittedData(_))),
            "grown chunk has no committed version yet"
        );
        e.write(id, 0, &[2u8; 16384]).unwrap();
        e.nvchkptall().unwrap();
        assert_eq!(e.committed_bytes(id).unwrap(), vec![2u8; 16384]);
    }

    #[test]
    fn nvdelete_survives_restart_cleanly() {
        let (mut e, dram, nvm, clock) = setup(EngineConfig::default());
        let keep = e.nvmalloc("keep", 4096, true).unwrap();
        let gone = e.nvmalloc("gone", 4096, true).unwrap();
        e.write(keep, 0, &[1u8; 4096]).unwrap();
        e.write(gone, 0, &[2u8; 4096]).unwrap();
        e.nvchkptall().unwrap();
        e.nvdelete(gone).unwrap();
        let region = e.metadata_region();
        drop(e);
        let (e2, report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.restored, vec![keep], "deleted chunk stays gone");
        assert!(e2.heap().chunk(gone).is_err());
    }

    #[test]
    fn epoch_log_accumulates_reports() {
        let (mut e, ..) = setup(EngineConfig::default());
        let id = e.nvmalloc("x", 4096, true).unwrap();
        let log: Vec<EpochReport> = (0..4u8)
            .map(|i| {
                e.write(id, 0, &[i; 4096]).unwrap();
                e.compute(SimDuration::from_millis(50));
                e.nvchkptall().unwrap()
            })
            .collect();
        assert!(log.windows(2).all(|w| w[0].epoch + 1 == w[1].epoch));
        assert!(log.iter().all(|r| !r.interval.is_zero()));
        assert_eq!(e.stats().checkpoints, 4);
    }

    #[test]
    fn non_persistent_chunks_never_checkpoint() {
        let (mut e, ..) = setup(EngineConfig::default());
        let tmp = e.nvmalloc("scratch", MB, false).unwrap();
        e.write(tmp, 0, &vec![1u8; MB]).unwrap();
        let r = e.nvchkptall().unwrap();
        assert_eq!(r.total_bytes(), 0);
        assert!(matches!(
            e.nvchkptid(tmp),
            Err(EngineError::NoCommittedData(_))
        ));
    }

    #[test]
    fn invalid_configs_rejected_at_construction() {
        let dram = MemoryDevice::dram(MB);
        let nvm = MemoryDevice::pcm(16 * MB);
        let bad = EngineConfig {
            node_concurrency: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            CheckpointEngine::new(0, &dram, &nvm, 8 * MB, VirtualClock::new(), bad),
            Err(EngineError::Config(ConfigError::ZeroNodeConcurrency))
        ));
        assert!(matches!(
            CheckpointEngine::new(
                0,
                &dram,
                &nvm,
                0,
                VirtualClock::new(),
                EngineConfig::default()
            ),
            Err(EngineError::Config(ConfigError::ZeroShadowRegion))
        ));
    }

    #[test]
    fn error_sources_chain_to_the_device() {
        use std::error::Error as _;
        let err = EngineError::from(HeapError::from(nvm_emu::DeviceError::NoSuchRegion(3)));
        let heap = err.source().expect("engine error wraps heap error");
        assert_eq!(heap.to_string(), "device error: no such region: 3");
        let device = heap.source().expect("heap error wraps device error");
        assert_eq!(device.to_string(), "no such region: 3");
        assert!(device.source().is_none());
        assert_eq!(err.to_string(), "heap: device error: no such region: 3");
    }

    #[test]
    fn tracer_records_fault_precopy_and_commit_events() {
        let (mut e, ..) = setup(EngineConfig::default().with_precopy(PrecopyPolicy::Cpc));
        e.set_tracer(Tracer::new(0));

        let id = e.nvmalloc("x", 64 * 1024, true).unwrap();
        e.write(id, 0, &[7u8; 64 * 1024]).unwrap(); // fresh chunk: no fault
        e.compute(SimDuration::from_secs(1)); // CPC pre-copy drains it
        e.write(id, 0, &[8u8; 64 * 1024]).unwrap(); // fault + waste
        e.nvchkptall().unwrap();

        let kinds: Vec<&'static str> = (e.tracer().events().iter())
            .map(|ev| match &ev.kind {
                TraceEventKind::ProtectionFault { .. } => "fault",
                TraceEventKind::PrecopyStart { .. } => "precopy_start",
                TraceEventKind::PrecopyDrain { .. } => "drain",
                TraceEventKind::PrecopyEnd { .. } => "precopy_end",
                TraceEventKind::PrecopyWaste { .. } => "waste",
                TraceEventKind::CoordinatedBegin { .. } => "begin",
                TraceEventKind::CommitFlip { .. } => "flip",
                TraceEventKind::CoordinatedEnd { .. } => "end",
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "precopy_start",
                "drain",
                "precopy_end",
                "fault",
                "waste",
                "begin",
                "flip",
                "end"
            ]
        );
        // Timestamps are monotone non-decreasing on one engine's clock.
        let ts: Vec<u64> = e.tracer().events().iter().map(|ev| ev.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn disabled_metrics_change_nothing() {
        let run = |metrics: Option<MetricsRegistry>| {
            let cfg = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
            let (mut e, _, _, clock) = setup(cfg);
            e.set_metrics(metrics);
            let id = e.nvmalloc("x", 64 * 1024, true).unwrap();
            for i in 0..3u8 {
                e.write(id, 0, &[i; 64 * 1024]).unwrap();
                e.compute(SimDuration::from_millis(100)); // CPC pre-copy drains it
                e.write(id, 0, &[i + 8; 64 * 1024]).unwrap(); // fault + waste
                e.nvchkptall().unwrap();
            }
            (clock.now().as_nanos(), e.stats(), e.metrics_mut().take())
        };
        let (t, s, m) = run(Some(MetricsRegistry::new()));
        assert_eq!(run(None), (t, s, None));

        // Live recording is the latency distributions only — one
        // sample per coordinated step and per faulting write (one
        // fault each at chunk granularity); totals are published.
        let snap = m.unwrap().snapshot();
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        let coord = snap.histogram(names::CHKPT_COORDINATED_NS).unwrap();
        assert_eq!(coord.count, s.checkpoints);
        assert_eq!(coord.sum, s.coordinated_time.as_nanos());
        let fault = snap.histogram(names::CHKPT_FAULT_NS).unwrap();
        assert!(s.faults > 0);
        assert_eq!(fault.count, s.faults);
        assert_eq!(fault.sum, s.fault_time.as_nanos());
    }

    #[test]
    fn a_taken_registry_leaves_the_engine_unmetered() {
        let cfg = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
        let (mut e, _, _, _) = setup(cfg);
        let id = e.nvmalloc("x", 64 * 1024, true).unwrap();
        e.set_metrics(Some(MetricsRegistry::new()));
        e.nvchkptall().unwrap();
        // Taken the way a recovery moves it into a rebuilt engine.
        let taken = e.metrics_mut().take().unwrap();
        assert!(e.metrics().is_none());
        e.write(id, 0, &[1; 64 * 1024]).unwrap(); // faults
        e.nvchkptall().unwrap();
        assert!(e.metrics().is_none());
        let coord = taken.snapshot();
        let coord = coord.histogram(names::CHKPT_COORDINATED_NS).unwrap();
        assert_eq!(coord.count, 1);
        assert_eq!(e.stats().checkpoints, 2);
    }

    #[test]
    fn disabled_tracer_changes_nothing() {
        let run = |traced: bool| {
            let (mut e, _, _, clock) = setup(EngineConfig::default());
            if traced {
                e.set_tracer(Tracer::new(0));
            }
            let id = e.nvmalloc("x", 4096, true).unwrap();
            for i in 0..3u8 {
                e.write(id, 0, &[i; 4096]).unwrap();
                e.compute(SimDuration::from_millis(100));
                e.nvchkptall().unwrap();
            }
            clock.now().as_nanos()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn restart_from_images_rebuilds_the_process_bit_for_bit() {
        // Simulate the buddy's view: capture committed chunk images
        // from a byte-materialized engine, kill it, and rebuild a new
        // process on fresh devices from the images alone.
        let config = EngineConfig::builder()
            .materialization(Materialization::Bytes)
            .checksums(true)
            .build()
            .unwrap();
        let (mut e, _, _, _) = setup(config);
        let a = e.nvmalloc("a", 4096, true).unwrap();
        let b = e.nvmalloc("b", 10_000, true).unwrap();
        let bytes_a: Vec<u8> = (0..4096).map(|i| (i % 253) as u8).collect();
        let bytes_b: Vec<u8> = (0..10_000).map(|i| (i % 101 + 3) as u8).collect();
        e.write(a, 0, &bytes_a).unwrap();
        e.write(b, 0, &bytes_b).unwrap();
        e.nvchkptall().unwrap();

        let images: Vec<RemoteImage> = [(a, "a"), (b, "b")]
            .iter()
            .map(|&(id, name)| {
                let payload = e.committed_bytes(id).unwrap();
                RemoteImage {
                    id,
                    name: name.to_string(),
                    len: payload.len(),
                    checksum: Some(crc64(&payload)),
                    epoch: 0,
                    payload,
                }
            })
            .collect();
        drop(e); // hard failure: node, devices, everything gone

        let dram = MemoryDevice::dram(256 * MB);
        let nvm = MemoryDevice::pcm(256 * MB);
        let clock = VirtualClock::new();
        let (e2, report) = CheckpointEngine::restart_from_images(
            0,
            &dram,
            &nvm,
            128 * MB,
            clock,
            config,
            RestartStrategy::Eager,
            &images,
            5,
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.restored, vec![a, b]);
        assert!(report.corrupt.is_empty());
        assert!(report.duration > SimDuration::ZERO, "restore costs time");
        assert_eq!(e2.committed_bytes(a).unwrap(), bytes_a);
        assert_eq!(e2.committed_bytes(b).unwrap(), bytes_b);
        assert_eq!(e2.epoch(), 5, "epoch counter resumes where told");
        assert_eq!(e2.stats().restarts, 1);
    }

    /// A durable backend that only checksums: one `crc64` pass over a
    /// staged payload, as the nvm-store container takes it.
    struct HashingStore;

    impl Persistence for HashingStore {
        fn put_chunk(
            &mut self,
            _: ChunkId,
            _: &str,
            _: usize,
            _: u64,
            payload: &[u8],
        ) -> Result<u64, PersistError> {
            Ok(crc64(payload))
        }
        fn delete_chunk(&mut self, _: ChunkId) {}
        fn commit(&mut self, _: u64) -> Result<(), PersistError> {
            Ok(())
        }
        fn recover(&mut self) -> Result<crate::persist::RecoveredState, PersistError> {
            Ok(Default::default())
        }
        fn payload_len(&self, id: ChunkId) -> Result<usize, PersistError> {
            Err(PersistError::NoSuchChunk(id.0))
        }
        fn read_chunk_into(&mut self, id: ChunkId, _: &mut [u8]) -> Result<(), PersistError> {
            Err(PersistError::NoSuchChunk(id.0))
        }
        fn stats(&self) -> crate::persist::StoreStats {
            Default::default()
        }
    }

    #[test]
    fn each_committed_byte_is_checksummed_exactly_once() {
        // Without a store the checksum is taken as a chunk is copied
        // into its slot: a stage hashes what it copies, and a commit
        // only what it copies itself — a staged chunk brings its sum.
        // With one, stages hash nothing and the backend hashes every
        // committed byte once, at commit.
        use crate::checksum::hashed_bytes;
        const A: usize = 3 * 4096 + 5;
        const B: usize = 70_000;
        for policy in [
            PrecopyPolicy::None,
            PrecopyPolicy::Cpc,
            PrecopyPolicy::Dcpc,
            PrecopyPolicy::Dcpcp,
        ] {
            for with_store in [false, true] {
                let (mut e, ..) = setup(EngineConfig::default().with_precopy(policy));
                if with_store {
                    e.set_persistence(Box::new(HashingStore));
                }
                let a = e.nvmalloc("a", A, true).unwrap();
                let b = e.nvmalloc("b", B, true).unwrap();
                for epoch in 0..3u8 {
                    e.write(a, 0, &vec![epoch + 1; A]).unwrap();
                    e.write(b, 100, &vec![0x40 | epoch; 60_000]).unwrap();
                    let (before, staged) = (hashed_bytes(), e.stats().precopied_bytes);
                    e.compute(SimDuration::from_secs(2));
                    let staged = e.stats().precopied_bytes - staged;
                    assert_eq!(
                        hashed_bytes() - before,
                        if with_store { 0 } else { staged },
                        "{policy:?} store={with_store} epoch {epoch}: stage"
                    );
                    // Re-dirty a chunk pre-copy may already have staged:
                    // its staged sum is wasted with its copy.
                    e.write(a, 7, &[0xEE; 3]).unwrap();
                    let before = hashed_bytes();
                    let report = e.nvchkptall().unwrap();
                    assert_eq!(
                        hashed_bytes() - before,
                        if with_store {
                            (A + B) as u64
                        } else {
                            report.coordinated_bytes
                        },
                        "{policy:?} store={with_store} epoch {epoch}: {report:?}"
                    );
                }
                if policy != PrecopyPolicy::None {
                    assert!(e.stats().precopied_bytes > 0, "{policy:?} staged");
                }
                e.write(b, 0, &[9u8; 16]).unwrap();
                let before = hashed_bytes();
                e.nvchkptid(b).unwrap();
                assert_eq!(hashed_bytes() - before, B as u64);
                for id in [a, b] {
                    assert_eq!(
                        e.heap().chunk(id).unwrap().checksum,
                        Some(crc64(&e.committed_bytes(id).unwrap())),
                        "{policy:?} store={with_store}"
                    );
                }
            }
        }
    }

    #[test]
    fn container_wear_is_about_half_the_checkpoint_count_under_double_versioning() {
        let (mut e, _, nvm, _) = setup(EngineConfig::default());
        let id = e.nvmalloc("state", MB, true).unwrap();
        for round in 0..10u8 {
            e.write(id, 0, &vec![round; MB]).unwrap();
            e.nvchkptall().unwrap();
        }
        // The two slots alternate, so each container page takes every
        // other checkpoint's write (plus metadata traffic).
        let container_wear = nvm.max_wear(e.heap().container()).unwrap();
        assert!(
            (5..=10).contains(&container_wear),
            "container wear {container_wear}"
        );
        assert!(nvm.wear_fraction() > 0.0);
    }

    #[test]
    fn restart_from_images_rejects_length_mismatch() {
        let config = EngineConfig::builder()
            .materialization(Materialization::Bytes)
            .build()
            .unwrap();
        let dram = MemoryDevice::dram(64 * MB);
        let nvm = MemoryDevice::pcm(64 * MB);
        let images = vec![RemoteImage {
            id: ChunkId(1),
            name: "x".into(),
            len: 4096,
            checksum: None,
            epoch: 0,
            payload: vec![0u8; 100], // truncated in flight
        }];
        let result = CheckpointEngine::restart_from_images(
            0,
            &dram,
            &nvm,
            32 * MB,
            VirtualClock::new(),
            config,
            RestartStrategy::Eager,
            &images,
            0,
            Tracer::disabled(),
        );
        match result {
            Err(EngineError::Store(PersistError::Corrupt(_))) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("length mismatch must be rejected"),
        }
    }

    #[test]
    fn a_lend_is_charged_like_a_read() {
        use nvm_emu::{MemSpill, PAGE_SIZE};
        const A: usize = 3 * PAGE_SIZE;
        // Twin processes, restarted lazily so that the first access of
        // each chunk restores it: one `read`s the ranges in turn, the
        // other is lent them at once.
        for spilled in [false, true] {
            let twin = || {
                let (mut e, dram, nvm, clock) = setup(EngineConfig::default());
                if spilled {
                    dram.attach_spill(Box::new(MemSpill::new()));
                }
                let a = e.nvmalloc("a", A, true).unwrap();
                let b = e.nvmalloc("b", 1000, true).unwrap();
                let bytes: Vec<u8> = (0..A).map(|i| (i % 251) as u8).collect();
                e.write(a, 0, &bytes).unwrap();
                e.write(b, 0, &bytes[..1000]).unwrap();
                e.nvchkptall().unwrap();
                let region = e.metadata_region();
                drop(e);
                let (e, _) = CheckpointEngine::restart(
                    &dram,
                    &nvm,
                    region,
                    clock.clone(),
                    EngineConfig::default(),
                    RestartStrategy::Lazy,
                    Tracer::new(0),
                )
                .unwrap();
                (e, [a, b], dram, clock)
            };
            let (mut read, [a, b], read_dram, read_clock) = twin();
            let (mut lent, _, lent_dram, lent_clock) = twin();
            let ranges = [(b, 10, 500), (a, 0, A), (a, PAGE_SIZE + 7, 0), (b, 1000, 0)];
            let want: Vec<Vec<u8>> = (ranges.iter())
                .map(|&(id, offset, len)| {
                    let mut buf = vec![0u8; len];
                    read.read(id, offset, &mut buf).unwrap();
                    buf
                })
                .collect();
            let seen = lent.access(|a| {
                let lent = a.views(&ranges)?;
                Ok::<_, EngineError>(lent.iter().map(|bytes| bytes.to_vec()).collect::<Vec<_>>())
            });
            assert_eq!(seen.unwrap(), want, "spilled {spilled}");
            let region = |e: &CheckpointEngine, id| e.heap().chunk(id).unwrap().dram_region;
            let wear = |e: &CheckpointEngine, dram: &MemoryDevice| {
                [a, b].map(|id| dram.max_wear(region(e, id)).unwrap())
            };
            assert_eq!(lent_clock.now(), read_clock.now(), "spilled {spilled}");
            assert_eq!(lent_dram.stats(), read_dram.stats());
            assert_eq!(wear(&lent, &lent_dram), wear(&read, &read_dram));
            assert_eq!(lent_dram.spill_read_bytes(), read_dram.spill_read_bytes());
            // Each range's restore and read come in range order: the
            // lazy restores are stamped alike.
            assert_eq!(lent.tracer().events(), read.tracer().events());

            // A range that is not there fails the lend before anything
            // is charged or read.
            let before = (lent_clock.now(), lent_dram.stats());
            let spill_read = lent_dram.spill_read_bytes();
            let past_end = lent.access(|x| x.views(&[(a, 0, 8), (b, 990, 11)]).map(|_| ()));
            assert!(
                matches!(
                    past_end,
                    Err(EngineError::Heap(HeapError::Device(
                        DeviceError::OutOfBounds { .. }
                    )))
                ),
                "{past_end:?}"
            );
            let unknown = lent.access(|x| x.views(&[(a, 0, 8), (ChunkId(999), 0, 1)]).map(|_| ()));
            assert!(
                matches!(unknown, Err(EngineError::Heap(HeapError::NoSuchChunk(_)))),
                "{unknown:?}"
            );
            assert_eq!((lent_clock.now(), lent_dram.stats()), before);
            assert_eq!(lent_dram.spill_read_bytes(), spill_read);
        }
        // A size-only chunk has no bytes to lend, and is not charged.
        let synthetic = EngineConfig::builder()
            .materialization(Materialization::Synthetic)
            .checksums(false)
            .build()
            .unwrap();
        let (mut e, dram, _, clock) = setup(synthetic);
        let id = e.nvmalloc("a", 64, true).unwrap();
        let before = (clock.now(), dram.stats());
        let sized = e.access(|x| x.views(&[(id, 0, 64)]).map(|_| ()));
        assert!(
            matches!(
                sized,
                Err(EngineError::Heap(HeapError::Device(
                    DeviceError::SyntheticAccess(_)
                )))
            ),
            "{sized:?}"
        );
        assert_eq!((clock.now(), dram.stats()), before);
    }
}
