//! A run of application accesses to the working copies, under one hold
//! of the DRAM device's lock.
//!
//! [`crate::CheckpointEngine::access`] opens an [`Access`] and hands it
//! to a closure. Each of its calls — [`Access::view`], [`Access::read`],
//! [`Access::write`], [`Access::write_synthetic`] — does and is charged
//! exactly what the engine call of the same name does and is charged
//! on its own: the same device cost and [`nvm_emu::DeviceStats`]
//! fields, the same dirty tracking, fault, staged-copy waste and
//! scheduler bookkeeping, the same events at the same virtual times.
//! Those engine calls *are* one-access runs of these. [`Access::views`]
//! is `view` of several ranges, each charged in turn, lent at once. What a run saves
//! is what each call paid again: the device lock and the clock update
//! (costs are summed, and put on the clock at the points where a
//! separate call's would be seen) and, on a RAM-backed working copy,
//! the copy of a read (a view lends the bytes where they lie).
//!
//! **When the clock moves.** The summed cost goes onto the clock
//! before an event is emitted — a [`TraceEventKind::ProtectionFault`]
//! or [`TraceEventKind::PrecopyWaste`] keeps its timestamp — before a
//! lazy restore, and when the access ends, however it ends: an access
//! that fails leaves the ones before it charged, as separate calls
//! would have.
//!
//! **Lock order.** Nothing inside an access takes the DRAM lock again.
//! A chunk still awaiting its lazy restore is restored with the lock
//! released and the lock taken back after it; the restore takes the
//! DRAM lock and then the NVM one, the order the device module docs
//! prescribe. The closure must not use the engine's DRAM device.
//!
//! [`TraceEventKind::ProtectionFault`]: nvm_trace::TraceEventKind::ProtectionFault
//! [`TraceEventKind::PrecopyWaste`]: nvm_trace::TraceEventKind::PrecopyWaste

use crate::commit::CommitCore;
use crate::engine::EngineError;
use crate::precopy::Scheduler;
use nvm_emu::{DeviceError, DeviceGuard, MemoryDevice, RegionId, SimDuration};
use nvm_heap::{HeapError, Materialization};
use nvm_paging::ChunkId;

/// One run of accesses to the working copies
/// ([`crate::CheckpointEngine::access`]; see the module docs).
pub struct Access<'a> {
    core: &'a mut CommitCore,
    sched: &'a mut Scheduler,
    dram: &'a MemoryDevice,
    /// The DRAM lock; `None` only while a lazy restore runs.
    guard: Option<DeviceGuard<'a>>,
    /// Cost charged since the clock last moved.
    accrued: SimDuration,
}

impl<'a> Access<'a> {
    /// Take `dram`'s lock — the device `core`'s working copies are
    /// on — for a run of accesses.
    pub(crate) fn open(
        core: &'a mut CommitCore,
        sched: &'a mut Scheduler,
        dram: &'a MemoryDevice,
    ) -> Self {
        Access {
            guard: Some(dram.lock()),
            core,
            sched,
            dram,
            accrued: SimDuration::ZERO,
        }
    }

    /// Lend `len` bytes of chunk `id`'s working copy at `offset` where
    /// they lie, charged as [`Access::read`] of the range. Bytes the
    /// working copy has never been given are lent as zeros, and a view
    /// never grows what a RAM-backed region holds.
    #[inline]
    pub fn view(&mut self, id: ChunkId, offset: usize, len: usize) -> Result<&[u8], EngineError> {
        let (region, ..) = self.working_copy(id)?;
        let lent = held(&mut self.guard).read_view(region, offset, len, 1);
        let (bytes, cost) = lent.map_err(HeapError::from)?;
        self.accrued += cost;
        Ok(bytes)
    }

    /// Lend several ranges, each `(chunk, offset, len)`, at once: each
    /// is charged as [`Access::view`] of it would be, in the order
    /// given — its pending restore, then its read — and then all of
    /// them are lent together. Every range is checked first: an unknown
    /// chunk, a range past a chunk's end or a size-only chunk fails the
    /// call whole, before anything is restored or charged.
    pub fn views(&mut self, ranges: &[(ChunkId, usize, usize)]) -> Result<Vec<&[u8]>, EngineError> {
        let heap = self.core.heap();
        let bytes = heap.materialization() == Materialization::Bytes;
        for &(id, offset, len) in ranges {
            let chunk = heap.chunk(id)?;
            let (region, region_len) = (chunk.dram_region.0, chunk.len);
            let bad = if !bytes {
                DeviceError::SyntheticAccess(region)
            } else if offset.checked_add(len).is_none_or(|end| end > region_len) {
                DeviceError::OutOfBounds {
                    region,
                    offset,
                    len,
                    region_len,
                }
            } else {
                continue;
            };
            return Err(HeapError::from(bad).into());
        }
        let mut regions = Vec::with_capacity(ranges.len());
        for &(id, offset, len) in ranges {
            let (region, ..) = self.working_copy(id)?;
            let cost = held(&mut self.guard).charge_read(region, offset, len, 1);
            self.accrued += cost.map_err(HeapError::from)?;
            regions.push((region, offset, len));
        }
        let lent = held(&mut self.guard).lend_views(&regions);
        Ok(lent.map_err(HeapError::from)?)
    }

    /// Copy `buf.len()` bytes of chunk `id`'s working copy at `offset`
    /// into `buf`.
    #[inline]
    pub fn read(&mut self, id: ChunkId, offset: usize, buf: &mut [u8]) -> Result<(), EngineError> {
        let (region, ..) = self.working_copy(id)?;
        let cost = held(&mut self.guard).read(region, offset, buf, 1);
        self.accrued += cost.map_err(HeapError::from)?;
        Ok(())
    }

    /// Application write of real bytes into chunk `id`'s working copy.
    pub fn write(&mut self, id: ChunkId, offset: usize, data: &[u8]) -> Result<(), EngineError> {
        self.write_with(id, offset, data.len(), |guard, region| {
            guard.write(region, offset, data, 1)
        })
    }

    /// [`Access::write`], size-only.
    pub fn write_synthetic(
        &mut self,
        id: ChunkId,
        offset: usize,
        len: usize,
    ) -> Result<(), EngineError> {
        self.write_with(id, offset, len, |guard, region| {
            guard.write_synthetic(region, offset, len, 1)
        })
    }

    /// One application write of `len` bytes at `offset` of chunk `id`,
    /// which `put` makes in the working copy's DRAM region; a write
    /// that modifies a persistent chunk is also recorded by the commit
    /// core ([`CommitCore::note_write`]) and the scheduler.
    fn write_with(
        &mut self,
        id: ChunkId,
        offset: usize,
        len: usize,
        put: impl FnOnce(&mut DeviceGuard<'a>, RegionId) -> Result<SimDuration, DeviceError>,
    ) -> Result<(), EngineError> {
        let (region, chunk_len, persistent) = self.working_copy(id)?;
        let mut cost = put(held(&mut self.guard), region).map_err(HeapError::from)?;
        if persistent && len > 0 {
            cost += (self.core).note_write(id, offset, len, chunk_len, &mut self.accrued);
            self.sched.record_modification(id);
        }
        self.accrued += cost;
        Ok(())
    }

    /// Chunk `id`'s working-copy region, length and persistence, its
    /// pending restore resolved first — with the lock released, after
    /// the cost accrued so far is on the clock.
    fn working_copy(&mut self, id: ChunkId) -> Result<(RegionId, usize, bool), EngineError> {
        if self.core.awaits_restore(id) {
            self.settle();
            self.guard = None;
            let restored = self.core.ensure_restored(id);
            self.guard = Some(self.dram.lock());
            restored?;
        }
        let chunk = self.core.heap().chunk(id)?;
        Ok((chunk.dram_region, chunk.len, chunk.persistent))
    }

    /// Put the cost accrued so far on the clock.
    fn settle(&mut self) {
        if !self.accrued.is_zero() {
            self.core.clock().advance(std::mem::take(&mut self.accrued));
        }
    }
}

/// The DRAM lock, which an access holds between its calls.
fn held<'g, 'a>(guard: &'g mut Option<DeviceGuard<'a>>) -> &'g mut DeviceGuard<'a> {
    guard
        .as_mut()
        .expect("the DRAM lock is held between accesses")
}

impl Drop for Access<'_> {
    /// However the run ends, what it charged reaches the clock.
    fn drop(&mut self) {
        self.settle();
    }
}
