//! The commit core: every byte a checkpoint makes durable, and no
//! pre-copy policy.
//!
//! [`CommitCore`] owns the [`NvmHeap`], the [`Mmu`], the metadata
//! region, the durable backend and the two chunk sets the two-version
//! commit turns on: chunks whose restore still waits for first access
//! (*pending*), and chunks whose in-progress slot already holds their
//! current working copy (*staged*), each with the checksum taken of the
//! bytes as they were copied there. Its mutators are allocation
//! (alloc / realloc / delete), the commit side of the application
//! data path — the reads and writes themselves are a
//! [`crate::Access`]'s, which resolves a pending restore here first
//! and records each write here (`note_write`) — `stage`, one
//! `checkpoint` behind `nvchkptall` and `nvchkptid`, and
//! `restart_core`.
//!
//! **Invariant.** Each of them resolves a pending restore before it
//! reads or overwrites a working copy, and a write un-stages its
//! chunk; so what a commit makes durable is the working copy as of
//! the commit, whoever staged it and whenever. The scheduler
//! ([`crate::precopy`]) decides only *when* `stage` runs, from the
//! read-only [`CommitCore::chunks`]. The one policy-derived value in
//! here is `track_dirty`.

use crate::checksum::crc64;
use crate::config::{ConfigError, EngineConfig};
use crate::engine::{EngineError, RestartReport};
use crate::persist::{PersistError, Persistence, RecoveredChunk, StoreStats, SyntheticPayload};
use crate::precopy::ChunkState;
use crate::restart::RestartStrategy;
use crate::stats::{EngineStats, EpochReport};
use nvm_emu::{pages_for, MemoryDevice, RegionId, SimDuration, SimTime, VirtualClock, PAGE_SIZE};
use nvm_heap::{Materialization, NvmHeap};
use nvm_metrics::{names, MetricsRegistry};
use nvm_paging::metadata::MetadataError;
use nvm_paging::{ChunkId, MetadataRegion, Mmu};
use nvm_trace::{TraceEventKind, Tracer};
use std::collections::BTreeMap;

/// Where a chunk's committed bytes are when a restore comes for them.
pub(crate) enum Committed {
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
pub(crate) type PlannedChunk<'a> = (ChunkId, Option<Committed>, Option<&'a [u8]>);

/// Heap, slots, metadata and store of one process, behind the
/// module-level invariant, with the record of what it did. Its `pub`
/// queries are [`crate::CheckpointEngine`]'s, which derefs to it.
pub struct CommitCore {
    heap: NvmHeap,
    mmu: Mmu,
    metadata: MetadataRegion,
    clock: VirtualClock,
    /// Durable backend every commit is mirrored into (cost-free in
    /// virtual time; the devices already charged the copies).
    persistence: Option<Box<dyn Persistence>>,
    epoch: u64,
    /// Chunks awaiting lazy (first-access) restore, with where their
    /// committed bytes wait: the NVM device, or the durable store
    /// (payload never materialized in this process's NVM).
    pending: BTreeMap<ChunkId, Committed>,
    /// Chunks whose in-progress slot holds the current working copy,
    /// with the checksum taken of it as it was copied there (`None`
    /// when the stage did not hash: see [`CommitCore::shadow`]).
    staged: BTreeMap<ChunkId, Option<u64>>,
    checksums: bool,
    node_concurrency: usize,
    /// Dirty tracking is on (`precopy.enabled()`): committed chunks
    /// are write-protected, and one that is still clean at a
    /// coordinated checkpoint is skipped.
    track_dirty: bool,
    stats: EngineStats,
    /// This process's event record; disabled (one branch per emission
    /// site) by default.
    pub(crate) tracer: Tracer,
    /// This process's registry for the latency distributions, which
    /// have no stats twin; `None` (one branch per sample) by default.
    /// Counters are not recorded here: they are
    /// [`EngineStats::publish`]ed.
    pub(crate) metrics: Option<MetricsRegistry>,
}

impl CommitCore {
    /// A core over an empty heap and metadata region on `nvm`.
    pub(crate) fn fresh(
        process_id: u64,
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        container_capacity: usize,
        clock: VirtualClock,
        config: &EngineConfig,
    ) -> Result<Self, EngineError> {
        config.validate()?;
        Self::distinct_devices(dram, nvm)?;
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
        let metadata = MetadataRegion::create(nvm)?;
        Ok(Self::assemble(heap, metadata, clock, config))
    }

    /// A core over the heap a surviving metadata region describes, and
    /// that heap's chunks as a restart plan.
    pub(crate) fn reopen(
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        metadata_region: RegionId,
        clock: VirtualClock,
        config: &EngineConfig,
    ) -> Result<(Self, Vec<PlannedChunk<'static>>), EngineError> {
        Self::distinct_devices(dram, nvm)?;
        let metadata = MetadataRegion::open(nvm, metadata_region)?;
        let (meta, load_cost) = metadata.load()?;
        clock.advance(load_cost);
        // Every save names the container: a table without one was
        // never saved (the process died before its first `nvmalloc`).
        if meta.container_region.is_none() {
            return Err(MetadataError::NeverSaved(metadata_region).into());
        }
        let heap = NvmHeap::reopen(dram, nvm, &meta, config.materialization, config.versioning)?;
        config.validate()?;
        let chunks = (heap.chunks())
            .map(|c| (c.id, c.has_committed().then_some(Committed::OnDevice), None))
            .collect();
        Ok((Self::assemble(heap, metadata, clock, config), chunks))
    }

    /// Shadow copies and restores hold the DRAM device's lock around
    /// an NVM access; on one device that is a self-deadlock.
    fn distinct_devices(dram: &MemoryDevice, nvm: &MemoryDevice) -> Result<(), ConfigError> {
        if dram.same_device(nvm) {
            return Err(ConfigError::SharedDevice);
        }
        Ok(())
    }

    fn assemble(
        heap: NvmHeap,
        metadata: MetadataRegion,
        clock: VirtualClock,
        config: &EngineConfig,
    ) -> Self {
        CommitCore {
            heap,
            mmu: Mmu::with_granularity(config.granularity),
            metadata,
            clock,
            persistence: None,
            epoch: 0,
            pending: BTreeMap::new(),
            staged: BTreeMap::new(),
            checksums: config.checksums,
            node_concurrency: config.node_concurrency,
            track_dirty: config.precopy.enabled(),
            stats: EngineStats::default(),
            tracer: Tracer::disabled(),
            metrics: None,
        }
    }

    pub(crate) fn set_persistence(&mut self, store: Box<dyn Persistence>) {
        self.persistence = Some(store);
    }

    /// Emit `kind` stamped with the current virtual time.
    #[inline]
    pub(crate) fn trace(&mut self, kind: TraceEventKind) {
        self.tracer.emit(self.clock.now().as_nanos(), kind);
    }

    // ------------------------------------------------------------------
    // Allocation interfaces (Table III)
    // ------------------------------------------------------------------

    pub(crate) fn nvmalloc(
        &mut self,
        name: &str,
        len: usize,
        persistent: bool,
    ) -> Result<ChunkId, EngineError> {
        let id = self.heap.nvmalloc(name, len, persistent)?;
        if persistent {
            self.register(id, len)?;
        }
        Ok(id)
    }

    pub(crate) fn nvattach(&mut self, name: &str, src: &[u8]) -> Result<ChunkId, EngineError> {
        let id = self.heap.nvattach(name, src)?;
        self.register(id, src.len())?;
        Ok(id)
    }

    fn register(&mut self, id: ChunkId, len: usize) -> Result<(), EngineError> {
        self.mmu.register_chunk(id, pages_for(len).max(1));
        self.save_metadata()
    }

    /// Persist the chunk table — for a checkpoint, the commit point —
    /// encoded straight from the heap's.
    fn save_metadata(&mut self) -> Result<(), EngineError> {
        let cost = self.metadata.save(&self.heap)?;
        self.clock.advance(cost);
        Ok(())
    }

    pub(crate) fn nvrealloc(&mut self, id: ChunkId, new_len: usize) -> Result<(), EngineError> {
        // Growing frees the committed extents a pending restore would
        // read, and carries the working copy over.
        self.ensure_restored(id)?;
        let grows = new_len > self.heap.chunk(id)?.len;
        self.heap.nvrealloc(id, new_len)?;
        if self.heap.chunk(id)?.persistent {
            self.mmu.grow_chunk(id, pages_for(new_len).max(1));
            self.staged.remove(&id);
            if let (true, Some(store)) = (grows, self.persistence.as_mut()) {
                // The grow superseded the committed version: the store
                // drops it from its table as on `nvdelete`, so the next
                // record does not carry it.
                store.delete_chunk(id);
            }
            self.save_metadata()?;
        }
        Ok(())
    }

    pub(crate) fn nvdelete(&mut self, id: ChunkId) -> Result<(), EngineError> {
        let persistent = self.heap.chunk(id)?.persistent;
        self.heap.nvdelete(id)?;
        if persistent {
            self.mmu.unregister_chunk(id);
            self.staged.remove(&id);
            self.pending.remove(&id);
            if let Some(store) = self.persistence.as_mut() {
                // Dropped from the store's table at the next commit;
                // its on-media extents are recycled only after that
                // commit's fsync retires the record referencing them.
                store.delete_chunk(id);
            }
            self.save_metadata()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Application data path
    // ------------------------------------------------------------------

    /// The commit side of an application write of `len > 0` bytes at
    /// `offset` of persistent chunk `id` (`chunk_len` bytes long), made
    /// in its working copy by a [`crate::Access`]: dirty tracking, with
    /// the protection fault it may take, and un-staging — a staged
    /// copy of the chunk is wasted. Returns the fault's cost. Before an
    /// event is emitted, the cost the access has `accrued` goes onto
    /// the clock, so that the event is stamped when a write made on its
    /// own would stamp it.
    pub(crate) fn note_write(
        &mut self,
        id: ChunkId,
        offset: usize,
        len: usize,
        chunk_len: usize,
        accrued: &mut SimDuration,
    ) -> SimDuration {
        let first = offset / PAGE_SIZE;
        let last = (offset + len - 1) / PAGE_SIZE;
        let out = self.mmu.record_write(id, first, last - first + 1);
        if out.faults > 0 {
            self.clock.advance(std::mem::take(accrued));
            self.trace(TraceEventKind::ProtectionFault { chunk: id.0 });
            if let Some(m) = &mut self.metrics {
                m.observe(names::CHKPT_FAULT_NS, out.cost.as_nanos());
            }
        }
        if self.staged.remove(&id).is_some() {
            // A staged chunk was modified again: the earlier copy
            // is wasted and must be redone.
            self.stats.wasted_precopy_bytes += chunk_len as u64;
            self.clock.advance(std::mem::take(accrued));
            self.trace(TraceEventKind::PrecopyWaste { chunk: id.0 });
        }
        out.cost
    }

    /// Let a compute segment of `dur` pass, slowed by `interference`
    /// from the background copying that ran inside it.
    pub(crate) fn advance(&mut self, dur: SimDuration, interference: SimDuration) {
        self.stats.interference_time += interference;
        self.clock.advance(dur + interference);
    }

    // ------------------------------------------------------------------
    // Stage and commit
    // ------------------------------------------------------------------

    /// Copy `id`'s working copy into its in-progress slot and mark it
    /// staged, with the chunk's checksum taken from the bytes as they
    /// are copied — when the commit will want one and no backend will
    /// return it (checksums on, real bytes, no store). Returns the
    /// bytes copied, the modeled cost, which the caller charges
    /// (blocking) or budgets (background), and that checksum.
    fn shadow(&mut self, id: ChunkId) -> Result<(u64, SimDuration, Option<u64>), EngineError> {
        self.ensure_restored(id)?;
        let chunk = self.heap.chunk(id)?;
        let slot = chunk.in_progress_slot(self.heap.versioning());
        let len = chunk.len as u64;
        let hash = self.checksums && self.persistence.is_none();
        let (cost, crc) = (self.heap).shadow_copy(id, slot, self.node_concurrency, |bytes| {
            hash.then(|| crc64(bytes))
        })?;
        let crc = crc.flatten();
        self.staged.insert(id, crc);
        Ok((len, cost, crc))
    }

    /// [`Self::shadow`] in the background, ahead of the checkpoint; a
    /// later modification un-stages the chunk. Returns the modeled
    /// copy time, which is the caller's to budget — the clock does not
    /// move.
    pub(crate) fn stage(&mut self, id: ChunkId) -> Result<SimDuration, EngineError> {
        let (bytes, cost, _) = self.shadow(id)?;
        self.settle(id);
        self.stats.precopied_bytes += bytes;
        self.trace(TraceEventKind::PrecopyDrain {
            chunk: id.0,
            bytes,
            cost_ns: cost.as_nanos(),
        });
        Ok(cost)
    }

    /// The blocking checkpoint of every persistent chunk (`None`,
    /// `nvchkptall`: bracketed by `Coordinated*` events, advances the
    /// epoch) or of one (`nvchkptid`): stage what is not staged, flush,
    /// checksum and flip each staged slot, persist the chunk table,
    /// commit the store, reset dirty tracking. A crash before the
    /// table is persisted leaves every previous committed slot intact.
    /// Of the report, the blocking step's own fields are filled in; the
    /// per-interval ones are the caller's.
    pub(crate) fn checkpoint(&mut self, only: Option<ChunkId>) -> Result<EpochReport, EngineError> {
        let targets = match only {
            None => self.heap.persistent_ids(),
            Some(id) if self.heap.chunk(id)?.persistent => vec![id],
            Some(id) => return Err(EngineError::NoCommittedData(id)),
        };
        // The chunk table persisted below must describe this device:
        // committed bytes still only in the store land here first.
        let in_store = |(id, from): (&ChunkId, &Committed)| {
            matches!(from, Committed::Recovered(_)).then_some(*id)
        };
        while let Some(id) = self.pending.iter().find_map(in_store) {
            self.ensure_restored(id)?;
        }
        let t0 = self.clock.now();
        let all = only.is_none();
        if all && self.tracer.enabled() {
            let dirty = self.chunks().filter(ChunkState::needs_copy).count() as u64;
            self.trace(TraceEventKind::CoordinatedBegin {
                epoch: self.epoch,
                dirty,
            });
        }
        let mut done = EpochReport {
            epoch: self.epoch,
            ..EpochReport::default()
        };
        let mut to_commit = Vec::with_capacity(targets.len());
        for &id in &targets {
            let crc = match self.staged.get(&id) {
                Some(&crc) => crc,
                None => {
                    let chunk = self.heap.chunk(id)?;
                    // Clean, already committed: dirty tracking lets us
                    // skip it entirely (GTC's init-only giant arrays).
                    if all && self.track_dirty && chunk.has_committed() && !self.mmu.is_dirty(id) {
                        done.skipped_bytes += chunk.len as u64;
                        continue;
                    }
                    let (len, cost, crc) = self.shadow(id)?;
                    self.clock.advance(cost);
                    done.coordinated_bytes += len;
                    crc
                }
            };
            to_commit.push((id, crc));
        }
        // The store-write events follow the flips: the mirror is free
        // in virtual time, so all carry the time of the last flip.
        let mut mirrored = Vec::new();
        for (id, crc) in to_commit {
            if let Some(bytes) = self.commit_slot(id, crc)? {
                mirrored.push((id, bytes));
            }
        }
        for (id, bytes) in mirrored {
            self.trace(TraceEventKind::StoreWrite { chunk: id.0, bytes });
        }
        self.save_metadata()?;
        // And the durable commit point for the backend: one atomic
        // record append + fsync.
        if let Some(store) = self.persistence.as_mut() {
            store.commit(self.epoch)?;
            self.trace(TraceEventKind::StoreCommit { epoch: self.epoch });
        }
        for id in targets {
            self.settle(id);
        }
        done.coordinated_time = self.clock.now().since(t0);
        self.stats.coordinated_bytes += done.coordinated_bytes;
        self.stats.skipped_bytes += done.skipped_bytes;
        if all {
            self.trace(TraceEventKind::CoordinatedEnd {
                epoch: self.epoch,
                copied_bytes: done.coordinated_bytes,
            });
            self.stats.checkpoints += 1;
            self.stats.coordinated_time += done.coordinated_time;
            if let Some(m) = &mut self.metrics {
                m.observe(
                    names::CHKPT_COORDINATED_NS,
                    done.coordinated_time.as_nanos(),
                );
            }
            self.epoch += 1;
        }
        Ok(done)
    }

    /// `id`'s working copy was just copied to a slot or restored from
    /// one: clear its local dirty state and, under dirty tracking,
    /// write-protect it so that the next modification is seen.
    fn settle(&mut self, id: ChunkId) {
        if self.track_dirty {
            self.mmu.protect_after_precopy(id);
        } else {
            self.mmu.clear_local_dirty(id);
        }
    }

    /// Flush, checksum and flip chunk `id`'s in-progress slot, which
    /// holds its working copy (`staged_crc` is what the stage recorded
    /// of it), mirroring the payload into the durable backend when one
    /// is attached (cost-free in virtual time). Returns the bytes
    /// mirrored, for the caller's [`TraceEventKind::StoreWrite`].
    ///
    /// Every committed byte is checksummed once, where it is in hand:
    /// without a backend that pass ran at stage time, over the bytes
    /// being copied into the slot ([`Self::shadow`]), and the slot is
    /// not read again here — a write, `nvrealloc` or `nvdelete` since
    /// then un-staged the chunk, so a staged checksum is the slot's.
    /// With a backend attached the slot's bytes are lent to
    /// [`Persistence::put_chunk`] in place, and the CRC the backend
    /// stores in its slot header is the chunk's checksum. The modeled
    /// read of the slot is charged either way.
    fn commit_slot(
        &mut self,
        id: ChunkId,
        staged_crc: Option<u64>,
    ) -> Result<Option<u64>, EngineError> {
        let slot = (self.heap.chunk(id)?).in_progress_slot(self.heap.versioning());
        let flush_cost = self.heap.flush_version(id, slot)?;
        self.clock.advance(flush_cost);
        let epoch = self.epoch;
        let (checksum, mirrored) = if self.heap.materialization() == Materialization::Bytes {
            // One hold of the NVM lock: the slot's modeled read charged
            // (checksums on), and its bytes lent to the backend where
            // they lie — the working copy the slot was filled from.
            let range = self.heap.version_range(id, slot)?;
            let mut nvm = self.heap.nvm().lock();
            if self.checksums {
                let (region, offset, len) = range;
                self.clock.advance(nvm.charge_read(region, offset, len, 1)?);
            }
            match self.persistence.as_mut() {
                Some(store) => {
                    let chunk = self.heap.chunk(id)?;
                    let payload = nvm.lend_views(&[range])?[0];
                    let crc = store.put_chunk(id, &chunk.name, chunk.len, epoch, payload)?;
                    (self.checksums.then_some(crc), Some(chunk.len as u64))
                }
                None => (staged_crc, None),
            }
        } else {
            match self.persistence.as_mut() {
                // Size-only runs persist a fixed descriptor standing in
                // for the bytes; crash tests still verify it bit-for-bit.
                Some(store) => {
                    let chunk = self.heap.chunk(id)?;
                    let desc = SyntheticPayload {
                        id: id.0,
                        epoch,
                        len: chunk.len as u64,
                    };
                    store.put_chunk(id, &chunk.name, chunk.len, epoch, &desc.encode())?;
                    (None, Some(SyntheticPayload::ENCODED_LEN as u64))
                }
                None => (staged_crc, None),
            }
        };
        let chunk = self.heap.chunk_mut(id)?;
        chunk.committed_slot = Some(slot);
        chunk.checksum = checksum;
        chunk.committed_epoch = epoch;
        // Flipped: the in-progress slot is the other one from here on.
        self.staged.remove(&id);
        self.trace(TraceEventKind::CommitFlip {
            chunk: id.0,
            slot: slot as u64,
        });
        Ok(mirrored)
    }

    // ------------------------------------------------------------------
    // Restart
    // ------------------------------------------------------------------

    /// The restart every source shares. The engine's public entry
    /// points only say where the heap, the metadata region, the next
    /// `epoch` and the store come from and list `chunks` in restore
    /// order. Everything a restart *does* happens here, once: every
    /// chunk is registered with the MMU and — per `strategy` —
    /// restored now or left for first access, left clean and
    /// re-protected, the summed restore cost is charged, and the
    /// `recovery` (`StoreRecovery`) and `Restart` events are emitted
    /// on `tracer`. `t0` is when the caller's prologue began, so
    /// [`RestartReport::duration`] covers it.
    pub(crate) fn restart_core(
        mut self,
        t0: SimTime,
        epoch: u64,
        chunks: Vec<PlannedChunk<'_>>,
        recovery: Option<TraceEventKind>,
        strategy: RestartStrategy,
        tracer: Tracer,
    ) -> Result<(Self, RestartReport), EngineError> {
        self.epoch = epoch;
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
            self.settle(id);
            self.mmu.clear_remote_dirty(id);
            if defer {
                self.pending.insert(id, from);
                report.deferred.push(id);
            } else {
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
        report.duration = self.clock.now().since(t0);
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
    /// already holds it; otherwise it is read from `store`.
    fn restore_chunk(
        heap: &mut NvmHeap,
        store: Option<&mut Box<dyn Persistence>>,
        id: ChunkId,
        from: &Committed,
        in_hand: Option<&[u8]>,
        mut charge: impl FnMut(SimDuration),
    ) -> Result<(), EngineError> {
        match from {
            Committed::OnDevice => Self::verify_in_place(heap, id, &mut charge)?,
            Committed::Recovered(rec) => Self::install_recovered(heap, store, id, rec, in_hand)?,
        }
        charge(heap.restore_to_dram(id)?);
        Ok(())
    }

    /// Verify `id`'s committed NVM version against the checksum
    /// recorded at commit, when there is one (bytes and a sum): one
    /// CRC pass over the slot where it lies. The verification read is
    /// charged also when it ends in a mismatch.
    fn verify_in_place(
        heap: &NvmHeap,
        id: ChunkId,
        mut charge: impl FnMut(SimDuration),
    ) -> Result<(), EngineError> {
        let chunk = heap.chunk(id)?;
        let slot = chunk
            .committed_slot
            .ok_or(EngineError::NoCommittedData(id))?;
        let expected = match chunk.checksum {
            Some(sum) if heap.materialization() == Materialization::Bytes => sum,
            _ => return Ok(()),
        };
        let (region, offset, len) = heap.version_range(id, slot)?;
        let mut nvm = heap.nvm().lock();
        let (bytes, cost) = nvm.read_view(region, offset, len, 1)?;
        charge(cost);
        let actual = crc64(bytes);
        if actual != expected {
            return Err(EngineError::ChecksumMismatch {
                chunk: id,
                expected,
                actual,
            });
        }
        Ok(())
    }

    /// Land one payload recovered from outside the device in a freshly
    /// allocated chunk's NVM version slot (free — those bytes survived
    /// on the medium) — read from `store` straight into the slot and
    /// checksum-verified there, or copied from `in_hand` — and only
    /// then mark the slot committed.
    fn install_recovered(
        heap: &mut NvmHeap,
        store: Option<&mut Box<dyn Persistence>>,
        id: ChunkId,
        rec: &RecoveredChunk,
        in_hand: Option<&[u8]>,
    ) -> Result<(), EngineError> {
        let versioning = heap.versioning();
        let bytes = heap.materialization() == Materialization::Bytes;
        let slot = heap.chunk(id)?.in_progress_slot(versioning);
        let from_store = |buf: &mut [u8]| {
            let store = store.expect("a chunk recovered from a store keeps it attached");
            store.read_chunk_into(id, buf).map_err(|e| match e {
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
            })
        };
        if bytes {
            if in_hand.is_some_and(|payload| payload.len() != rec.len) {
                return Err(EngineError::Store(PersistError::Corrupt(format!(
                    "recovered payload length mismatch for chunk {}",
                    id.0
                ))));
            }
            heap.fill_version(id, slot, |dst| match in_hand {
                Some(payload) => {
                    dst.copy_from_slice(payload);
                    Ok(())
                }
                None => from_store(dst),
            })??;
        } else {
            let mut read = [0u8; SyntheticPayload::ENCODED_LEN];
            let payload = match in_hand {
                Some(payload) => payload,
                None => {
                    from_store(&mut read)?;
                    &read
                }
            };
            let desc = SyntheticPayload::decode(payload).map_err(EngineError::Store)?;
            if desc.id != id.0 || desc.len as usize != rec.len {
                return Err(EngineError::Store(PersistError::Corrupt(format!(
                    "synthetic descriptor mismatch for chunk {}",
                    id.0
                ))));
            }
        }
        let chunk = heap.chunk_mut(id)?;
        chunk.committed_slot = Some(slot);
        chunk.checksum = bytes.then_some(rec.checksum);
        chunk.committed_epoch = rec.epoch;
        Ok(())
    }

    /// Whether chunk `id` still awaits its lazy restore.
    pub(crate) fn awaits_restore(&self, id: ChunkId) -> bool {
        self.pending.contains_key(&id)
    }

    /// Verify + restore a lazily-deferred chunk now. No-op for chunks
    /// that are not pending.
    pub(crate) fn ensure_restored(&mut self, id: ChunkId) -> Result<(), EngineError> {
        let Some(from) = self.pending.remove(&id) else {
            return Ok(());
        };
        let clock = &self.clock;
        let store = self.persistence.as_mut();
        Self::restore_chunk(&mut self.heap, store, id, &from, None, |cost| {
            clock.advance(cost);
        })?;
        self.trace(TraceEventKind::Restart {
            strategy: "lazy".to_string(),
            chunks: 1,
        });
        Ok(())
    }

    /// Overwrite committed NVM bytes without updating the checksum.
    pub(crate) fn corrupt_committed(&mut self, id: ChunkId) -> Result<(), EngineError> {
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

    pub(crate) fn mark_remote_copied(&mut self, id: ChunkId) {
        self.mmu.clear_remote_dirty(id);
    }

    // ------------------------------------------------------------------
    // Introspection / remote-checkpoint hooks
    // ------------------------------------------------------------------

    /// This process's event record (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This process's metrics registry (`None` by default).
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        let m = self.mmu.stats();
        s.faults = m.faults;
        s.fault_time = m.fault_time;
        s
    }

    /// Counters of the attached backend, if any.
    pub fn persistence_stats(&self) -> Option<StoreStats> {
        self.persistence.as_ref().map(|p| p.stats())
    }

    /// Number of chunks still awaiting lazy restore (from the NVM
    /// device or, unread so far, from the durable store).
    pub fn lazy_pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Underlying heap (the remote helper reads committed data through
    /// the shared-NVM interface).
    pub fn heap(&self) -> &NvmHeap {
        &self.heap
    }

    /// The metadata region id (needed to restart this process later).
    pub fn metadata_region(&self) -> RegionId {
        self.metadata.region()
    }

    /// Completed checkpoint count.
    pub fn epoch(&self) -> u64 {
        self.epoch
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
        let mut stable = self.mmu.nvdirty_chunks();
        stable.retain(|id| !self.mmu.is_dirty(*id));
        stable
    }

    /// Committed bytes of a chunk (what a remote checkpoint ships).
    pub fn committed_bytes(&self, id: ChunkId) -> Result<Vec<u8>, EngineError> {
        let chunk = self.heap.chunk(id)?;
        let slot = chunk
            .committed_slot
            .ok_or(EngineError::NoCommittedData(id))?;
        // The reader (the remote helper) goes through the shared-NVM
        // interface: the device counts the read, nobody's clock moves.
        // The one copy-out of a slot: read once, into the returned
        // buffer.
        let (region, offset, len) = self.heap.version_range(id, slot)?;
        let mut bytes = vec![0u8; len];
        (self.heap.nvm().lock()).read(region, offset, &mut bytes, 1)?;
        Ok(bytes)
    }

    /// The persistent chunks in id order — all the pre-copy scheduler
    /// is shown of this type.
    pub fn chunks(&self) -> impl Iterator<Item = ChunkState> + '_ {
        (self.heap.chunks().filter(|c| c.persistent)).map(|c| ChunkState {
            id: c.id,
            len: c.len,
            dirty: self.mmu.is_dirty(c.id),
            staged: self.staged.contains_key(&c.id),
        })
    }
}
