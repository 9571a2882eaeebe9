//! The checkpoint engine: shadow buffering, pre-copy, versioned
//! commit, and restart.
//!
//! [`CheckpointEngine`] ties the substrates together for one process
//! (MPI rank):
//!
//! * allocation calls go to the [`NvmHeap`] and register pages with the
//!   [`Mmu`];
//! * application writes land in the DRAM working copy, take protection
//!   faults per the configured granularity, and feed the DCPCP
//!   prediction table;
//! * [`CheckpointEngine::compute`] models a compute segment, during
//!   which background pre-copy drains eligible dirty chunks to their
//!   in-progress NVM version slots (CPC immediately; DCPC/DCPCP after
//!   the planner's threshold);
//! * [`CheckpointEngine::nvchkptall`] is the coordinated local
//!   checkpoint: copy what is still dirty, flush, checksum, and commit
//!   by flipping each chunk's committed slot and persisting the
//!   metadata region — a crash at any earlier point leaves the previous
//!   committed version intact;
//! * [`CheckpointEngine::restart`] rebuilds a process from the
//!   metadata region, verifying checksums and restoring working copies.
//!
//! All operations charge a shared [`VirtualClock`].

use crate::checksum::crc64;
#[cfg(test)]
use crate::config::PrecopyPolicy;
use crate::config::{ConfigError, EngineConfig};
use crate::persist::{PersistError, Persistence, RecoveredChunk, SyntheticPayload};
use crate::precopy::PrecopyPlanner;
use crate::predict::{PredictionStats, PredictionTable};
use crate::restart::RestartStrategy;
use crate::stats::{EngineStats, EpochReport};
use nvm_emu::{
    pages_for, DeviceError, MemoryDevice, RegionId, SimDuration, SimTime, VirtualClock, PAGE_SIZE,
};
use nvm_heap::{HeapError, Materialization, NvmHeap};
use nvm_metrics::{names, Metrics};
use nvm_paging::metadata::MetadataError;
use nvm_paging::{ChunkId, MetadataRegion, Mmu};
use nvm_trace::{TraceEventKind, Tracer};
use std::collections::{BTreeMap, BTreeSet};

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

/// Where a chunk's committed bytes are when a restore comes for them.
enum Committed {
    /// In this process's own NVM version slot (the device survived).
    OnDevice,
    /// Outside the device — in the durable store, or in a fetched
    /// remote image — under this commit-table entry.
    Recovered(RecoveredChunk),
}

/// One chunk of a restart's plan: its id, where its committed version
/// is (`None`: never committed), and its payload when the caller
/// already holds it (remote images) rather than leaving it to be read
/// from the store.
type PlannedChunk<'a> = (ChunkId, Option<Committed>, Option<&'a [u8]>);

/// The per-process checkpoint engine.
pub struct CheckpointEngine {
    heap: NvmHeap,
    mmu: Mmu,
    clock: VirtualClock,
    config: EngineConfig,
    metadata: MetadataRegion,
    predictor: PredictionTable,
    planner: PrecopyPlanner,
    epoch: u64,
    interval_start: SimTime,
    /// Chunks fully pre-copied and still clean this interval.
    precopy_done: BTreeSet<ChunkId>,
    /// Background-copy budget in seconds; may go negative when a large
    /// chunk overdraws one compute segment and repays in the next.
    precopy_credit_secs: f64,
    /// [`Self::stats`] as of `interval_start`; an [`EpochReport`]'s
    /// per-interval counts are the totals' movement since.
    interval_stats: EngineStats,
    /// Chunks awaiting lazy (first-access) restore, with where their
    /// committed bytes wait: the NVM device, or the durable store
    /// (payload never materialized in this process's NVM).
    lazy_pending: BTreeMap<ChunkId, Committed>,
    /// Durable backend every commit is mirrored into (cost-free in
    /// virtual time; the devices already charged the copies).
    persistence: Option<Box<dyn Persistence>>,
    stats: EngineStats,
    log: Vec<EpochReport>,
    /// Event-stream handle; disabled (one branch per emission site) by
    /// default.
    tracer: Tracer,
    /// Handle for the latency distributions, which have no stats
    /// twin; disabled (one branch per sample) by default. Counters are
    /// not recorded here: they are [`EngineStats::publish`]ed.
    metrics: Metrics,
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
        config.validate()?;
        let (heap, metadata) =
            Self::fresh_heap(process_id, dram, nvm, container_capacity, &config)?;
        Ok(Self::assemble(heap, metadata, clock, config))
    }

    /// An empty heap and metadata region on `nvm` — what [`Self::new`]
    /// and the restarts that rebuild onto fresh devices start from.
    fn fresh_heap(
        process_id: u64,
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        container_capacity: usize,
        config: &EngineConfig,
    ) -> Result<(NvmHeap, MetadataRegion), EngineError> {
        if container_capacity == 0 {
            return Err(ConfigError::ZeroShadowRegion.into());
        }
        let heap = NvmHeap::new(
            process_id,
            dram,
            nvm,
            container_capacity,
            config.versioning,
            config.materialization,
        )?;
        Ok((heap, MetadataRegion::create(nvm)?))
    }

    /// The one place an engine value is put together: epoch 0, nothing
    /// pending, no store, no instrumentation. Restarts adjust the
    /// result before handing it to [`Self::restart_core`].
    fn assemble(
        heap: NvmHeap,
        metadata: MetadataRegion,
        clock: VirtualClock,
        config: EngineConfig,
    ) -> Self {
        CheckpointEngine {
            heap,
            mmu: Mmu::with_granularity(config.granularity),
            interval_start: clock.now(),
            clock,
            config,
            metadata,
            predictor: PredictionTable::new(),
            planner: PrecopyPlanner::new(),
            epoch: 0,
            precopy_done: BTreeSet::new(),
            precopy_credit_secs: 0.0,
            interval_stats: EngineStats::default(),
            lazy_pending: BTreeMap::new(),
            persistence: None,
            stats: EngineStats::default(),
            log: Vec::new(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// Attach a [`Tracer`]: protection faults, pre-copy activity,
    /// coordinated phases, commit flips, and restarts emit structured
    /// events stamped with this engine's virtual clock. Pass
    /// [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attach a [`Metrics`] handle for the fault and coordinated-step
    /// latency distributions (event totals are not recorded into it:
    /// [`EngineStats::publish`] turns [`Self::stats`] into counters).
    /// Pass [`Metrics::disabled`] to detach.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The attached metrics handle (disabled by default).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attach a durable [`Persistence`] backend. Every subsequent
    /// commit is mirrored into it — chunk payloads into shadow slots,
    /// then one atomic commit record — so the checkpoint survives this
    /// process. Mirroring charges no virtual time (the emulated
    /// devices already paid for every copy), so results with and
    /// without a backend are identical.
    pub fn set_persistence(&mut self, store: Box<dyn Persistence>) {
        self.persistence = Some(store);
    }

    /// Whether a durable backend is attached.
    pub fn has_persistence(&self) -> bool {
        self.persistence.is_some()
    }

    /// Counters of the attached backend, if any.
    pub fn persistence_stats(&self) -> Option<crate::persist::StoreStats> {
        self.persistence.as_ref().map(|p| p.stats())
    }

    /// Flush, checksum and flip chunk `id`'s in-progress `slot`,
    /// mirroring the payload into the durable backend when one is
    /// attached (cost-free in virtual time). Returns the bytes
    /// mirrored, for the caller's [`TraceEventKind::StoreWrite`].
    ///
    /// Every committed byte is read from the slot once and checksummed
    /// once: with a backend attached the buffer read here is the one
    /// handed to [`Persistence::put_chunk`], and the CRC the backend
    /// stores in its slot header is the chunk's checksum; without one
    /// the engine runs that single pass itself.
    fn commit_slot(&mut self, id: ChunkId, slot: u8) -> Result<Option<u64>, EngineError> {
        let flush_cost = self.heap.flush_version(id, slot)?;
        self.clock.advance(flush_cost);
        let bytes = self.heap.materialization() == Materialization::Bytes;
        let slot_data = if self.config.checksums && bytes {
            let (data, read_cost) = self.heap.read_version(id, slot)?;
            self.clock.advance(read_cost);
            Some(data)
        } else {
            None
        };
        let epoch = self.epoch;
        let checksummed = slot_data.is_some();
        let (checksum, mirrored) = match self.persistence.as_mut() {
            Some(store) => {
                let chunk = self.heap.chunk(id)?;
                let payload = match slot_data {
                    Some(data) => data,
                    // Checksums off: nothing was read (or charged), so
                    // mirror the working copy the slot was filled from.
                    None if bytes => self.heap.working_copy(id)?,
                    // Size-only runs persist a fixed descriptor standing
                    // in for the bytes; crash tests still verify it
                    // bit-for-bit.
                    None => SyntheticPayload {
                        id: id.0,
                        epoch,
                        len: chunk.len as u64,
                    }
                    .encode()
                    .to_vec(),
                };
                let crc = store.put_chunk(id, &chunk.name, chunk.len, epoch, &payload)?;
                (checksummed.then_some(crc), Some(payload.len() as u64))
            }
            None => (slot_data.map(|data| crc64(&data)), None),
        };
        let chunk = self.heap.chunk_mut(id)?;
        chunk.committed_slot = Some(slot);
        chunk.checksum = checksum;
        chunk.committed_epoch = epoch;
        self.trace(TraceEventKind::CommitFlip {
            chunk: id.0,
            slot: slot as u64,
        });
        Ok(mirrored)
    }

    /// Durably commit everything mirrored so far (no-op when no
    /// backend is attached).
    fn store_commit(&mut self, epoch: u64) -> Result<(), EngineError> {
        if let Some(store) = self.persistence.as_mut() {
            store.commit(epoch)?;
            self.trace(TraceEventKind::StoreCommit { epoch });
        }
        Ok(())
    }

    #[inline]
    fn trace(&self, kind: TraceEventKind) {
        self.tracer.emit(self.clock.now().as_nanos(), kind);
    }

    // ------------------------------------------------------------------
    // Allocation interfaces (Table III)
    // ------------------------------------------------------------------

    /// Allocate a checkpoint chunk (`nvalloc(genid(name), len, pflg)`).
    pub fn nvmalloc(
        &mut self,
        name: &str,
        len: usize,
        persistent: bool,
    ) -> Result<ChunkId, EngineError> {
        let id = self.heap.nvmalloc(name, len, persistent)?;
        self.register(id, len, persistent)?;
        Ok(id)
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
        let id = self.heap.nvattach(name, src)?;
        self.register(id, src.len(), true)?;
        Ok(id)
    }

    fn register(&mut self, id: ChunkId, len: usize, persistent: bool) -> Result<(), EngineError> {
        if persistent {
            self.mmu.register_chunk(id, pages_for(len).max(1));
            let cost = self.metadata.save(&self.heap.export_metadata())?;
            self.clock.advance(cost);
        }
        Ok(())
    }

    /// Grow a chunk (`nvrealloc`).
    pub fn nvrealloc(&mut self, id: ChunkId, new_len: usize) -> Result<(), EngineError> {
        self.heap.nvrealloc(id, new_len)?;
        if self.heap.chunk(id)?.persistent {
            self.mmu.grow_chunk(id, pages_for(new_len).max(1));
            self.precopy_done.remove(&id);
            let cost = self.metadata.save(&self.heap.export_metadata())?;
            self.clock.advance(cost);
        }
        Ok(())
    }

    /// Delete a chunk (`nvdelete`).
    pub fn nvdelete(&mut self, id: ChunkId) -> Result<(), EngineError> {
        let persistent = self.heap.chunk(id)?.persistent;
        self.heap.nvdelete(id)?;
        if persistent {
            self.mmu.unregister_chunk(id);
            self.predictor.forget(id);
            self.precopy_done.remove(&id);
            self.lazy_pending.remove(&id);
            if let Some(store) = self.persistence.as_mut() {
                // Dropped from the store's table at the next commit;
                // its on-media extents are recycled only after that
                // commit's fsync retires the record referencing them.
                store.delete_chunk(id);
            }
            let cost = self.metadata.save(&self.heap.export_metadata())?;
            self.clock.advance(cost);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Application data path
    // ------------------------------------------------------------------

    /// Application write of real bytes into a chunk's working copy.
    pub fn write(&mut self, id: ChunkId, offset: usize, data: &[u8]) -> Result<(), EngineError> {
        self.ensure_restored(id)?;
        let cost = self.heap.write(id, offset, data)?;
        self.after_write(id, offset, data.len(), cost)
    }

    /// Application write, size-only (paper-scale benches).
    pub fn write_synthetic(
        &mut self,
        id: ChunkId,
        offset: usize,
        len: usize,
    ) -> Result<(), EngineError> {
        self.ensure_restored(id)?;
        let cost = self.heap.write_synthetic(id, offset, len)?;
        self.after_write(id, offset, len, cost)
    }

    fn after_write(
        &mut self,
        id: ChunkId,
        offset: usize,
        len: usize,
        dram_cost: SimDuration,
    ) -> Result<(), EngineError> {
        let chunk = self.heap.chunk(id)?;
        let persistent = chunk.persistent;
        let chunk_len = chunk.len;
        let mut total = dram_cost;
        if persistent && len > 0 {
            let first = offset / PAGE_SIZE;
            let last = (offset + len - 1) / PAGE_SIZE;
            let out = self.mmu.record_write(id, first, last - first + 1);
            total += out.cost;
            if out.faults > 0 {
                self.trace(TraceEventKind::ProtectionFault { chunk: id.0 });
                self.metrics
                    .observe(names::CHKPT_FAULT_NS, out.cost.as_nanos());
            }
            self.predictor.record_modification(id);
            if self.precopy_done.remove(&id) {
                // A pre-copied chunk was modified again: the earlier
                // copy is wasted and must be redone.
                self.stats.wasted_precopy_bytes += chunk_len as u64;
                self.trace(TraceEventKind::PrecopyWaste { chunk: id.0 });
            }
        }
        self.clock.advance(total);
        Ok(())
    }

    /// Read real bytes from a chunk's working copy.
    pub fn read(&mut self, id: ChunkId, offset: usize, buf: &mut [u8]) -> Result<(), EngineError> {
        self.ensure_restored(id)?;
        let cost = self.heap.read(id, offset, buf)?;
        self.clock.advance(cost);
        Ok(())
    }

    /// Model a compute segment of length `dur`. Background pre-copy
    /// runs during the segment per the configured policy; the clock
    /// advances by `dur` plus the memory-interference penalty of any
    /// background copying.
    pub fn compute(&mut self, dur: SimDuration) {
        let seg_start = self.clock.now();
        let window = self.precopy_window(seg_start, dur);
        let mut interference = SimDuration::ZERO;
        if !window.is_zero() {
            if self.tracer.enabled() {
                let candidates = self
                    .heap
                    .iter_persistent_ids()
                    .filter(|id| self.is_precopy_candidate(*id))
                    .count() as u64;
                self.trace(TraceEventKind::PrecopyStart {
                    epoch: self.epoch,
                    candidates,
                });
            }
            let copied_time = self.run_precopy(window);
            interference = copied_time * self.config.precopy_interference;
            self.stats.interference_time += interference;
            if self.tracer.enabled() {
                self.trace(TraceEventKind::PrecopyEnd {
                    epoch: self.epoch,
                    busy_ns: copied_time.as_nanos(),
                    interference_ns: interference.as_nanos(),
                });
            }
        }
        self.clock.advance(dur + interference);
    }

    /// How much of a compute segment starting at `seg_start` with
    /// length `dur` has active pre-copy.
    fn precopy_window(&self, seg_start: SimTime, dur: SimDuration) -> SimDuration {
        if !self.config.precopy.enabled() {
            return SimDuration::ZERO;
        }
        // CPC pre-copies eagerly from the start of every interval.
        if !self.config.precopy.delayed() {
            return dur;
        }
        // Delayed policies wait out the warm-up intervals entirely:
        // "our method waits for the first checkpoint step to complete
        // and finds the approximate interval" — no threshold (and for
        // DCPCP no learned modification counts) exists yet.
        if !self.planner.is_learned() || self.epoch < self.config.warmup_epochs {
            return SimDuration::ZERO;
        }
        let threshold = self
            .planner
            .start_time(self.interval_start)
            .expect("planner is learned");
        let seg_end = seg_start + dur;
        if threshold <= seg_start {
            dur
        } else {
            seg_end.since(threshold)
        }
    }

    /// Drain eligible dirty chunks to their in-progress slots within
    /// the given budget of background-copy time. Returns time actually
    /// spent copying.
    fn run_precopy(&mut self, budget: SimDuration) -> SimDuration {
        self.precopy_credit_secs += budget.as_secs_f64();
        let mut spent = SimDuration::ZERO;
        while self.precopy_credit_secs > 0.0 {
            let Some(id) = self.next_precopy_candidate() else {
                break;
            };
            let chunk = self.heap.chunk(id).expect("candidate exists");
            let slot = chunk.in_progress_slot(self.heap.versioning());
            let len = chunk.len as u64;
            let cost = self
                .heap
                .shadow_copy(id, slot, self.config.node_concurrency)
                .expect("pre-copy shadow copy cannot fail");
            self.precopy_credit_secs -= cost.as_secs_f64();
            spent += cost;
            self.stats.precopied_bytes += len;
            self.mmu.protect_after_precopy(id);
            self.precopy_done.insert(id);
            self.trace(TraceEventKind::PrecopyDrain {
                chunk: id.0,
                bytes: len,
                cost_ns: cost.as_nanos(),
            });
        }
        // Idle budget does not bank: background copying cannot run
        // ahead of data that does not exist yet.
        if self.precopy_credit_secs > 0.0 {
            self.precopy_credit_secs = 0.0;
        }
        spent
    }

    fn is_precopy_candidate(&self, id: ChunkId) -> bool {
        self.mmu.is_dirty(id)
            && !self.precopy_done.contains(&id)
            && (!self.config.precopy.predictive() || self.predictor.ready_for_precopy(id))
    }

    fn next_precopy_candidate(&self) -> Option<ChunkId> {
        self.heap
            .iter_persistent_ids()
            .find(|id| self.is_precopy_candidate(*id))
    }

    // ------------------------------------------------------------------
    // Coordinated checkpoint
    // ------------------------------------------------------------------

    /// Coordinated local checkpoint of all persistent chunks
    /// (`nvchkptall()`). Blocks the application for the copy of
    /// still-dirty data, flushes, checksums, and commits.
    pub fn nvchkptall(&mut self) -> Result<EpochReport, EngineError> {
        // A coordinated checkpoint snapshots every persistent chunk,
        // so chunks whose store-lazy restore is still outstanding must
        // be materialized first — otherwise their unrestored working
        // copies would be committed over the recovered data.
        let in_store = |(id, from): (&ChunkId, &Committed)| {
            matches!(from, Committed::Recovered(_)).then_some(*id)
        };
        while let Some(id) = self.lazy_pending.iter().find_map(in_store) {
            self.ensure_restored(id)?;
        }
        let t0 = self.clock.now();
        if self.tracer.enabled() {
            let dirty = self
                .heap
                .iter_persistent_ids()
                .filter(|id| self.mmu.is_dirty(*id) && !self.precopy_done.contains(id))
                .count() as u64;
            self.trace(TraceEventKind::CoordinatedBegin {
                epoch: self.epoch,
                dirty,
            });
        }
        let mut coordinated_bytes = 0u64;
        let mut skipped_bytes = 0u64;
        // Chunks whose in-progress slot receives (or already received)
        // fresh data this epoch and therefore must be committed.
        let mut to_commit: Vec<ChunkId> = Vec::new();

        for id in self.heap.persistent_ids() {
            let chunk = self.heap.chunk(id)?;
            let len = chunk.len as u64;
            let has_committed = chunk.has_committed();
            let precopied = self.precopy_done.contains(&id);
            let dirty = self.mmu.is_dirty(id);

            let copy_now = if !self.config.precopy.enabled() {
                // Baseline: no dirty tracking, copy everything.
                true
            } else if precopied {
                false // data already staged by pre-copy
            } else {
                dirty || !has_committed
            };

            if copy_now {
                let slot = chunk.in_progress_slot(self.heap.versioning());
                let cost = self
                    .heap
                    .shadow_copy(id, slot, self.config.node_concurrency)?;
                self.clock.advance(cost);
                coordinated_bytes += len;
                to_commit.push(id);
            } else if precopied {
                to_commit.push(id);
            } else {
                // Clean, already committed: dirty tracking lets us skip
                // it entirely (GTC's init-only giant arrays).
                skipped_bytes += len;
            }
        }

        // Flush + checksum + commit each freshly written slot,
        // mirroring it into the durable backend on the way (no-op
        // without one). The store-write events follow the flips: the
        // mirror is free in virtual time, so all of them carry the
        // time of the last flip.
        let mut mirrored: Vec<(ChunkId, u64)> = Vec::new();
        for &id in &to_commit {
            let slot = self
                .heap
                .chunk(id)?
                .in_progress_slot(self.heap.versioning());
            if let Some(bytes) = self.commit_slot(id, slot)? {
                mirrored.push((id, bytes));
            }
        }
        for (id, bytes) in mirrored {
            self.trace(TraceEventKind::StoreWrite { chunk: id.0, bytes });
        }

        // The commit point: persisting the metadata region. A crash
        // before this leaves every chunk's previous committed slot
        // intact.
        let meta_cost = self.metadata.save(&self.heap.export_metadata())?;
        self.clock.advance(meta_cost);
        // And the durable commit point for the backend: one atomic
        // record append + fsync.
        self.store_commit(self.epoch)?;

        // Reset dirty tracking for the next interval.
        for id in self.heap.persistent_ids() {
            if self.config.precopy.enabled() {
                self.mmu.protect_after_precopy(id);
            } else {
                self.mmu.clear_local_dirty(id);
            }
        }

        let now = self.clock.now();
        let coordinated_time = now.since(t0);
        self.trace(TraceEventKind::CoordinatedEnd {
            epoch: self.epoch,
            copied_bytes: coordinated_bytes,
        });
        let interval = now.since(self.interval_start);
        let (totals, before) = (self.stats(), self.interval_stats);
        let report = EpochReport {
            epoch: self.epoch,
            coordinated_time,
            coordinated_bytes,
            precopied_bytes: totals.precopied_bytes - before.precopied_bytes,
            skipped_bytes,
            wasted_bytes: totals.wasted_precopy_bytes - before.wasted_precopy_bytes,
            faults: totals.faults - before.faults,
            interval,
        };

        // Learn/adapt.
        let moved = report.total_bytes();
        let bw = self
            .heap
            .nvm()
            .per_core_bandwidth(self.config.node_concurrency, 32 << 20);
        // Learn the *compute* portion of the interval: pre-copy can only
        // overlap compute, so the threshold must leave T_c of compute
        // time, not T_c of wall time ending inside the checkpoint.
        self.planner
            .observe(interval.saturating_sub(coordinated_time), moved, bw);
        self.predictor.end_interval();

        self.stats.checkpoints += 1;
        self.stats.coordinated_bytes += coordinated_bytes;
        self.stats.skipped_bytes += skipped_bytes;
        self.stats.coordinated_time += coordinated_time;
        self.metrics
            .observe(names::CHKPT_COORDINATED_NS, coordinated_time.as_nanos());

        self.epoch += 1;
        self.interval_start = now;
        self.precopy_done.clear();
        self.precopy_credit_secs = 0.0;
        self.interval_stats = self.stats();
        self.log.push(report);
        Ok(report)
    }

    /// Blocking checkpoint of a single chunk (`nvchkptid(id)`).
    /// Commits just that chunk; does not advance the epoch.
    pub fn nvchkptid(&mut self, id: ChunkId) -> Result<SimDuration, EngineError> {
        let t0 = self.clock.now();
        let chunk = self.heap.chunk(id)?;
        if !chunk.persistent {
            return Err(EngineError::NoCommittedData(id));
        }
        let slot = chunk.in_progress_slot(self.heap.versioning());
        let len = chunk.len as u64;
        let cost = self
            .heap
            .shadow_copy(id, slot, self.config.node_concurrency)?;
        self.clock.advance(cost);
        let epoch = self.epoch;
        if let Some(bytes) = self.commit_slot(id, slot)? {
            self.trace(TraceEventKind::StoreWrite { chunk: id.0, bytes });
        }
        let meta_cost = self.metadata.save(&self.heap.export_metadata())?;
        self.clock.advance(meta_cost);
        self.store_commit(epoch)?;
        self.mmu.clear_local_dirty(id);
        if self.config.precopy.enabled() {
            self.mmu.protect_after_precopy(id);
        }
        self.precopy_done.remove(&id);
        self.stats.coordinated_bytes += len;
        Ok(self.clock.now().since(t0))
    }

    // ------------------------------------------------------------------
    // Restart
    // ------------------------------------------------------------------

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
        let metadata = MetadataRegion::open(nvm, metadata_region)?;
        let (meta, load_cost) = metadata.load()?;
        clock.advance(load_cost);
        let heap = NvmHeap::reopen(dram, nvm, &meta, config.materialization, config.versioning)?;
        let chunks = (heap.chunks())
            .map(|c| (c.id, c.has_committed().then_some(Committed::OnDevice), None))
            .collect();
        Self::assemble(heap, metadata, clock, config)
            .restart_core(t0, chunks, None, strategy, tracer)
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
        let (heap, metadata) =
            Self::fresh_heap(state.process_id, dram, nvm, container_capacity, &config)?;
        let mut engine = Self::assemble(heap, metadata, clock, config);
        engine.epoch = state.epoch.map_or(0, |e| e + 1);
        engine.persistence = Some(store);
        let recovery = TraceEventKind::StoreRecovery {
            epoch: state.epoch,
            chunks: state.chunks.len() as u64,
            torn: state.torn_writes_detected,
        };
        let chunks = (state.chunks.into_iter())
            .map(|rec| (rec.id, Some(Committed::Recovered(rec)), None))
            .collect();
        engine.restart_core(t0, chunks, Some(recovery), strategy, tracer)
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
        let (heap, metadata) =
            Self::fresh_heap(process_id, dram, nvm, container_capacity, &config)?;
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
        let mut engine = Self::assemble(heap, metadata, clock, config);
        engine.epoch = next_epoch;
        engine.restart_core(t0, chunks, None, strategy, tracer)
    }

    /// The restart every source shares. The public entry points only
    /// say where the heap, the metadata region, the next epoch and the
    /// store come from (an engine [`Self::assemble`]d from them) and
    /// list `chunks` in restore order. Everything a restart *does*
    /// happens here, once: the configuration is validated,
    /// every chunk is registered with the MMU and — per `strategy` —
    /// restored now or left for first access, left clean and
    /// re-protected, the summed restore cost is charged, and the
    /// `recovery` (`StoreRecovery`) and `Restart` events are emitted.
    /// `t0` is when the caller's prologue began, so
    /// [`RestartReport::duration`] covers it.
    fn restart_core(
        mut self,
        t0: SimTime,
        chunks: Vec<PlannedChunk<'_>>,
        recovery: Option<TraceEventKind>,
        strategy: RestartStrategy,
        tracer: Tracer,
    ) -> Result<(Self, RestartReport), EngineError> {
        self.config.validate()?;
        self.tracer = tracer;
        self.stats.restarts = 1;
        let mut report = RestartReport::default();
        let mut restore_cost = SimDuration::ZERO;

        for (id, committed, in_hand) in chunks {
            if let Some(Committed::Recovered(rec)) = &committed {
                // Arrived from outside the device: the fresh heap has
                // no such chunk yet.
                self.heap.nvmalloc_id(id, &rec.name, rec.len, true)?;
            }
            let pages = pages_for(self.heap.chunk(id)?.len).max(1);
            self.mmu.register_chunk(id, pages);
            let Some(from) = committed else {
                report.never_committed.push(id);
                continue;
            };
            // A payload already in hand leaves nothing to defer.
            let defer = strategy == RestartStrategy::Lazy && in_hand.is_none();
            if !defer {
                let store = self.persistence.as_mut();
                let charge = |cost| restore_cost += cost;
                match Self::restore_chunk(&mut self.heap, store, id, &from, in_hand, charge) {
                    Ok(()) => {}
                    Err(EngineError::ChecksumMismatch { .. }) => {
                        report.corrupt.push(id);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            // Restored or deferred, the chunk is clean: its committed
            // version is the truth.
            self.mmu.clear_local_dirty(id);
            self.mmu.clear_remote_dirty(id);
            if defer {
                self.lazy_pending.insert(id, from);
                report.deferred.push(id);
            } else {
                if self.config.precopy.enabled() {
                    self.mmu.protect_after_precopy(id);
                }
                report.restored.push(id);
            }
        }
        // Charge the restore time per the strategy: parallel streams
        // overlap, bounded by the contended per-stream bandwidth.
        match strategy {
            RestartStrategy::Parallel { streams } if streams > 1 => {
                let n = streams.min(report.restored.len().max(1));
                let nvm = self.heap.nvm();
                let solo = nvm.per_core_bandwidth(1, 32 << 20);
                let shared = nvm.per_core_bandwidth(n, 32 << 20);
                let slowdown = (solo / shared).max(1.0);
                self.clock.advance(SimDuration::from_secs_f64(
                    restore_cost.as_secs_f64() * slowdown / n as f64,
                ));
            }
            _ => {
                self.clock.advance(restore_cost);
            }
        }
        let now = self.clock.now();
        report.duration = now.since(t0);
        self.interval_start = now;
        if let Some(recovery) = recovery {
            self.trace(recovery);
        }
        self.trace(TraceEventKind::Restart {
            strategy: strategy.name().to_string(),
            chunks: report.restored.len() as u64,
        });
        Ok((self, report))
    }

    /// Restore `id`'s working copy from wherever its committed bytes
    /// are — the one restore body behind eager restarts and lazy first
    /// accesses alike. Each modeled cost goes to `charge` as it is
    /// incurred, so eager restarts can sum per their strategy while
    /// lazy restores advance the clock step by step. `in_hand` is the
    /// payload of a [`Committed::Recovered`] chunk when the caller
    /// already holds it; otherwise it is read from `store`,
    /// checksum-verified on the way.
    fn restore_chunk(
        heap: &mut NvmHeap,
        store: Option<&mut Box<dyn Persistence>>,
        id: ChunkId,
        from: &Committed,
        in_hand: Option<&[u8]>,
        mut charge: impl FnMut(SimDuration),
    ) -> Result<(), EngineError> {
        let rec = match from {
            Committed::OnDevice => return Self::verify_and_restore(heap, id, charge),
            Committed::Recovered(rec) => rec,
        };
        let read;
        let payload = match in_hand {
            Some(payload) => payload,
            None => {
                let store = store.expect("a chunk recovered from a store keeps it attached");
                read = store.read_chunk(id).map_err(|e| match e {
                    PersistError::Checksum {
                        chunk,
                        expected,
                        actual,
                    } => EngineError::ChecksumMismatch {
                        chunk: ChunkId(chunk),
                        expected,
                        actual,
                    },
                    e => e.into(),
                })?;
                &read
            }
        };
        charge(Self::install_recovered(heap, id, rec, payload)?);
        Ok(())
    }

    /// Restore `id`'s working copy from its committed NVM version,
    /// verifying the stored checksum first when there is one (bytes
    /// and a sum recorded at commit). The slot is read once: the
    /// buffer that was verified is the buffer copied into DRAM, and
    /// the restore's own modeled NVM read is charged without a second
    /// host read. Each modeled cost goes to `charge` as it is incurred
    /// — the verification read also when it ends in a mismatch — so
    /// eager restarts can sum per their strategy while lazy restores
    /// advance the clock step by step.
    fn verify_and_restore(
        heap: &mut NvmHeap,
        id: ChunkId,
        mut charge: impl FnMut(SimDuration),
    ) -> Result<(), EngineError> {
        let chunk = heap.chunk(id)?;
        let slot = chunk
            .committed_slot
            .ok_or(EngineError::NoCommittedData(id))?;
        let expected = match chunk.checksum {
            Some(sum) if heap.materialization() == Materialization::Bytes => sum,
            _ => {
                charge(heap.restore_to_dram(id)?);
                return Ok(());
            }
        };
        let (data, read_cost) = heap.read_version(id, slot)?;
        charge(read_cost);
        let actual = crc64(&data);
        if actual != expected {
            return Err(EngineError::ChecksumMismatch {
                chunk: id,
                expected,
                actual,
            });
        }
        charge(heap.restore_to_dram_from(id, &data)?);
        Ok(())
    }

    /// Install one payload recovered from a durable store into a
    /// freshly allocated chunk: seed the NVM version slot (free —
    /// those bytes survived on the medium), mark it committed, and
    /// restore the DRAM working copy. Returns the modeled restore
    /// cost, which the caller charges per its strategy.
    fn install_recovered(
        heap: &mut NvmHeap,
        id: ChunkId,
        rec: &RecoveredChunk,
        payload: &[u8],
    ) -> Result<SimDuration, EngineError> {
        let versioning = heap.versioning();
        let slot = heap.chunk(id)?.in_progress_slot(versioning);
        match heap.materialization() {
            Materialization::Bytes => {
                if payload.len() != rec.len {
                    return Err(EngineError::Store(PersistError::Corrupt(format!(
                        "recovered payload length mismatch for chunk {}",
                        id.0
                    ))));
                }
                heap.seed_version(id, slot, payload)?;
                let chunk = heap.chunk_mut(id)?;
                chunk.committed_slot = Some(slot);
                chunk.checksum = Some(rec.checksum);
                chunk.committed_epoch = rec.epoch;
                // The slot now holds exactly `payload`: fill the working
                // copy from it instead of reading the slot back.
                Ok(heap.restore_to_dram_from(id, payload)?)
            }
            Materialization::Synthetic => {
                let desc = SyntheticPayload::decode(payload).map_err(EngineError::Store)?;
                if desc.id != id.0 || desc.len as usize != rec.len {
                    return Err(EngineError::Store(PersistError::Corrupt(format!(
                        "synthetic descriptor mismatch for chunk {}",
                        id.0
                    ))));
                }
                let chunk = heap.chunk_mut(id)?;
                chunk.committed_slot = Some(slot);
                chunk.checksum = None;
                chunk.committed_epoch = rec.epoch;
                Ok(heap.restore_to_dram(id)?)
            }
        }
    }

    /// Number of chunks still awaiting lazy restore (from the NVM
    /// device or, unread so far, from the durable store).
    pub fn lazy_pending_count(&self) -> usize {
        self.lazy_pending.len()
    }

    /// Verify + restore a lazily-deferred chunk now (called on first
    /// access). No-op for chunks that are not pending.
    fn ensure_restored(&mut self, id: ChunkId) -> Result<(), EngineError> {
        let Some(from) = self.lazy_pending.remove(&id) else {
            return Ok(());
        };
        let clock = &self.clock;
        let store = self.persistence.as_mut();
        Self::restore_chunk(&mut self.heap, store, id, &from, None, |cost| {
            clock.advance(cost);
        })?;
        if self.config.precopy.enabled() {
            self.mmu.protect_after_precopy(id);
        }
        self.trace(TraceEventKind::Restart {
            strategy: "lazy".to_string(),
            chunks: 1,
        });
        Ok(())
    }

    /// Overwrite committed NVM bytes of a chunk *without* updating its
    /// checksum — silent data corruption, for failure-injection tests
    /// and the restart-fallback experiments.
    pub fn corrupt_committed(&mut self, id: ChunkId) -> Result<(), EngineError> {
        let chunk = self.heap.chunk(id)?;
        let ext = chunk
            .committed_extent()
            .ok_or(EngineError::NoCommittedData(id))?;
        let garbage = vec![0xA5u8; ext.len.min(64)];
        self.heap
            .nvm()
            .write(self.heap.container(), ext.offset, &garbage, 1)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection / remote-checkpoint hooks
    // ------------------------------------------------------------------

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Underlying heap (the remote helper reads committed data through
    /// the shared-NVM interface).
    pub fn heap(&self) -> &NvmHeap {
        &self.heap
    }

    /// Mutable heap access (failure-injection tests).
    pub fn heap_mut(&mut self) -> &mut NvmHeap {
        &mut self.heap
    }

    /// The metadata region id (needed to restart this process later).
    pub fn metadata_region(&self) -> RegionId {
        self.metadata.region()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        let m = self.mmu.stats();
        s.faults = m.faults;
        s.fault_time = m.fault_time;
        s
    }

    /// Per-epoch reports so far.
    pub fn log(&self) -> &[EpochReport] {
        &self.log
    }

    /// Completed checkpoint count.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Prediction-table accuracy.
    pub fn predictor_stats(&self) -> PredictionStats {
        self.predictor.stats()
    }

    /// The DCPC planner (read-only).
    pub fn planner(&self) -> &PrecopyPlanner {
        &self.planner
    }

    /// Per-process checkpoint data size `D`.
    pub fn checkpoint_bytes(&self) -> usize {
        self.heap.checkpoint_bytes()
    }

    /// Chunks with pending *remote* (`nvdirty`) state — what the
    /// remote-checkpoint helper scans.
    pub fn remote_dirty_chunks(&self) -> Vec<ChunkId> {
        self.mmu.nvdirty_chunks()
    }

    /// Chunks whose remote copy is stale (`nvdirty`) but whose local
    /// state is stable (not locally dirty) — what the remote pre-copy
    /// helper ships incrementally. Hot chunks stay locally dirty until
    /// late in the interval and are therefore deferred automatically.
    pub fn remote_stable_chunks(&self) -> Vec<ChunkId> {
        self.mmu
            .nvdirty_chunks()
            .into_iter()
            .filter(|id| !self.mmu.is_dirty(*id))
            .collect()
    }

    /// Clear a chunk's remote-dirty state after the helper copied it.
    pub fn mark_remote_copied(&mut self, id: ChunkId) {
        self.mmu.clear_remote_dirty(id);
    }

    /// Length of a chunk in bytes.
    pub fn chunk_len(&self, id: ChunkId) -> Result<usize, EngineError> {
        Ok(self.heap.chunk(id)?.len)
    }

    /// Committed bytes of a chunk (what a remote checkpoint ships).
    pub fn committed_bytes(&self, id: ChunkId) -> Result<Vec<u8>, EngineError> {
        let chunk = self.heap.chunk(id)?;
        let slot = chunk
            .committed_slot
            .ok_or(EngineError::NoCommittedData(id))?;
        let (data, _) = self.heap.read_version(id, slot)?;
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_heap::Versioning;

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

        // New data, *partially* checkpointed: shadow-copy into the
        // in-progress slot but crash before commit (no metadata save).
        e.write(a, 0, &[9u8; 4096]).unwrap();
        let slot = {
            let c = e.heap().chunk(a).unwrap();
            c.in_progress_slot(Versioning::Double)
        };
        e.heap_mut().shadow_copy(a, slot, 1).unwrap();
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
        e.write(a, 0, &[1u8; 4096]).unwrap();
        e.nvchkptall().unwrap();
        e.corrupt_committed(a).unwrap();
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
        assert_eq!(report.corrupt, vec![a], "checksum must catch corruption");
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
        let (mut e, ..) = setup(EngineConfig::no_precopy());
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
    fn dcpc_learns_then_delays() {
        let mut cfg = EngineConfig::default().with_precopy(PrecopyPolicy::Dcpc);
        cfg.checksums = false;
        let (mut e, ..) = setup(cfg);
        let a = e.nvmalloc("a", MB, true).unwrap();
        e.write(a, 0, &vec![1u8; MB]).unwrap();
        e.compute(SimDuration::from_secs(10));
        e.nvchkptall().unwrap(); // learning interval
        assert!(e.planner().is_learned());
        let tp = e.planner().start_offset().unwrap();
        assert!(
            tp > SimDuration::from_secs(5),
            "1 MB drains fast; threshold should sit late in a ~10 s interval (got {tp})"
        );
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
        for i in 0..4u8 {
            e.write(id, 0, &[i; 4096]).unwrap();
            e.compute(SimDuration::from_millis(50));
            e.nvchkptall().unwrap();
        }
        let log = e.log();
        assert_eq!(log.len(), 4);
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
        use nvm_trace::BufferSink;
        use std::sync::Arc;

        let (mut e, ..) = setup(EngineConfig::default().with_precopy(PrecopyPolicy::Cpc));
        let sink = Arc::new(BufferSink::new());
        e.set_tracer(Tracer::new(sink.clone()));

        let id = e.nvmalloc("x", 64 * 1024, true).unwrap();
        e.write(id, 0, &[7u8; 64 * 1024]).unwrap(); // fresh chunk: no fault
        e.compute(SimDuration::from_secs(1)); // CPC pre-copy drains it
        e.write(id, 0, &[8u8; 64 * 1024]).unwrap(); // fault + waste
        e.nvchkptall().unwrap();

        let kinds: Vec<&'static str> = sink
            .snapshot()
            .iter()
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
        let ts: Vec<u64> = sink.snapshot().iter().map(|ev| ev.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn disabled_metrics_change_nothing() {
        let run = |metrics: Metrics| {
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
            (clock.now().as_nanos(), e.stats())
        };
        let m = Metrics::new();
        let (t, s) = run(m.clone());
        assert_eq!(run(Metrics::disabled()), (t, s));

        // Live recording is the latency distributions only — one
        // sample per coordinated step and per faulting write (one
        // fault each at chunk granularity); totals are published.
        let snap = m.registry().snapshot();
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
    fn disabled_tracer_changes_nothing() {
        let run = |traced: bool| {
            let (mut e, _, _, clock) = setup(EngineConfig::default());
            if traced {
                e.set_tracer(Tracer::new(std::sync::Arc::new(nvm_trace::NullSink)));
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

    /// In-memory stand-in for the nvm-store container (which depends
    /// on this crate, so cannot be used here). It checksums a staged
    /// payload the way the container does: one `crc64` pass, kept and
    /// returned.
    #[derive(Default)]
    struct CrcStore {
        staged: BTreeMap<ChunkId, u64>,
    }

    impl Persistence for CrcStore {
        fn put_chunk(
            &mut self,
            id: ChunkId,
            _name: &str,
            _len: usize,
            _epoch: u64,
            payload: &[u8],
        ) -> Result<u64, PersistError> {
            let crc = crc64(payload);
            self.staged.insert(id, crc);
            Ok(crc)
        }
        fn delete_chunk(&mut self, id: ChunkId) {
            self.staged.remove(&id);
        }
        fn commit(&mut self, _epoch: u64) -> Result<(), PersistError> {
            Ok(())
        }
        fn recover(&mut self) -> Result<crate::persist::RecoveredState, PersistError> {
            Ok(Default::default())
        }
        fn read_chunk(&mut self, id: ChunkId) -> Result<Vec<u8>, PersistError> {
            Err(PersistError::NoSuchChunk(id.0))
        }
        fn stats(&self) -> crate::persist::StoreStats {
            Default::default()
        }
    }

    #[test]
    fn each_committed_byte_is_checksummed_exactly_once() {
        use crate::checksum::hashed_bytes;
        for policy in [
            PrecopyPolicy::None,
            PrecopyPolicy::Cpc,
            PrecopyPolicy::Dcpc,
            PrecopyPolicy::Dcpcp,
        ] {
            for with_store in [false, true] {
                let (mut e, ..) = setup(EngineConfig::default().with_precopy(policy));
                if with_store {
                    e.set_persistence(Box::new(CrcStore::default()));
                }
                let a = e.nvmalloc("a", 3 * 4096 + 5, true).unwrap();
                let b = e.nvmalloc("b", 70_000, true).unwrap();
                for epoch in 0..3u8 {
                    e.write(a, 0, &vec![epoch + 1; 3 * 4096 + 5]).unwrap();
                    e.write(b, 100, &vec![0x40 | epoch; 60_000]).unwrap();
                    e.compute(SimDuration::from_secs(2));
                    // Re-dirty a chunk pre-copy may already have staged.
                    e.write(a, 7, &[0xEE; 3]).unwrap();
                    let before = hashed_bytes();
                    let report = e.nvchkptall().unwrap();
                    assert_eq!(
                        hashed_bytes() - before,
                        (3 * 4096 + 5 + 70_000) as u64,
                        "{policy:?} store={with_store} epoch {epoch}: {report:?}"
                    );
                }
                e.write(b, 0, &[9u8; 16]).unwrap();
                let before = hashed_bytes();
                e.nvchkptid(b).unwrap();
                assert_eq!(hashed_bytes() - before, 70_000);
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
}
