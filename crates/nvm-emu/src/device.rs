//! Emulated memory device.
//!
//! A [`MemoryDevice`] models one DRAM or NVM device in a node. It hands
//! out *regions* (contiguous logical byte ranges) and charges virtual
//! time for every read, write, and cache flush according to its
//! [`DeviceParams`] and [`BandwidthModel`].
//!
//! Two region flavors exist:
//!
//! * **materialized** — backed by real bytes. Used by the functional
//!   checkpoint path, examples, and all correctness/property tests, so
//!   checksums and restart actually verify data.
//! * **synthetic** — size-only. Used by paper-scale benches (48 ranks x
//!   410 MB) where only the *cost* of data movement matters; copying
//!   charges identical virtual time without allocating gigabytes.
//!
//! **Never-written bytes read as zero**, whichever backing holds a
//! materialized region. A spilled region's slot answers unwritten
//! extents with zeros ([`crate::spill`]). A RAM-backed region holds
//! nothing when it is allocated; the first `write`, `view` or
//! `view_mut` that touches it gives it its first page
//! (`min(PAGE_SIZE, len)` bytes), and the first that reaches past that
//! page gives it all `len` bytes, zero-filled once, with the page it
//! held copied in. A `read` never grows what a region holds: bytes past
//! it are zeros. Capacity (`used`), charges, wear and statistics are
//! all by region length, so only [`MemoryDevice::resident_bytes`] sees
//! the difference — a metadata region that a save writes 2 KiB of costs
//! one page of RAM, not its megabyte.
//!
//! The device is passive with respect to time: operations return the
//! [`SimDuration`] they would take, and the caller advances its clock.
//! Concurrency (how many cores copy simultaneously) is an argument to
//! each transfer, because only the orchestration layer knows it.
//!
//! **Borrowed views and lock order.** [`MemoryDevice::view`] and
//! [`MemoryDevice::view_mut`] lend a range of a region's bytes to a
//! closure instead of copying them out. For a RAM-backed region the
//! closure runs *under this device's lock* (the mutex is not
//! reentrant: the closure must not call back into the same device);
//! for a spilled region it runs on a buffer the range was read into,
//! with the lock released — for `view` the calling thread's reused
//! buffer, for `view_mut` a private one. [`MemoryDevice::view_ranges`]
//! lends several ranges at once, `view` being its one-range case: it
//! takes the lock once and, when any range is RAM-backed, holds it for
//! the whole closure, which must not re-enter this device. A closure
//! may use **another** device, and every such nesting in the workspace
//! takes **DRAM first, then NVM** — a shadow copy is a DRAM `view`
//! around an NVM `write`, a restore a DRAM `view_mut` around an NVM
//! `read` — so two threads sharing a node's devices cannot take the
//! two locks in opposite orders.

use crate::bandwidth::BandwidthModel;
use crate::error::DeviceError;
use crate::idmap::IdMap;
use crate::params::{DeviceKind, DeviceParams};
use crate::spill::SpillStore;
use crate::time::SimDuration;
use crate::wearmap::WearMap;
use crate::{pages_for, PAGE_SIZE};
use nvm_metrics::{names, MetricsRegistry};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// The buffer [`MemoryDevice::view_ranges`] reads spilled ranges
    /// into, one after another, and lends them from: taken for the call
    /// and put back after it, so a thread's views of spilled ranges
    /// allocate and zero-fill only when one is longer than any before
    /// it. A view nested inside another on the same thread finds it
    /// taken and allocates its own.
    static SPILL_VIEW: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Identifier of a region on a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub u64);

/// Cache-line size for the flush cost model.
pub const CACHE_LINE: usize = 64;

/// Cost to flush one cache line to the persistence domain (clflush +
/// memory-controller drain, amortized).
pub const FLUSH_PER_LINE: SimDuration = SimDuration::from_nanos(10);

/// Aggregate statistics for a device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Total bytes written (including synthetic writes).
    pub bytes_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Number of write operations.
    pub write_ops: u64,
    /// Number of read operations.
    pub read_ops: u64,
    /// Number of flush operations.
    pub flush_ops: u64,
    /// Virtual time the device spent busy, summed over operations.
    pub busy: SimDuration,
}

impl DeviceStats {
    /// Add these totals to the `dev_<kind>_*_total` counters of `reg`
    /// — the only path from a device's totals into a registry. No `..`:
    /// a new field needs a counter name or an explicit `_` to compile.
    pub fn publish(&self, kind: DeviceKind, reg: &mut MetricsRegistry) {
        let DeviceStats {
            bytes_written,
            bytes_read,
            write_ops: _,
            read_ops: _,
            flush_ops: _,
            busy,
        } = *self;
        let kind = kind.name();
        reg.publish_totals([
            (names::device_write_bytes_total(kind), bytes_written),
            (names::device_read_bytes_total(kind), bytes_read),
            (names::device_busy_ns_total(kind), busy.as_nanos()),
        ]);
    }
}

/// Backing storage of a region.
enum Backing {
    /// In process RAM: the region's first bytes — none, its first page,
    /// or all of it (`reach` grows it); the rest read as zero.
    Bytes(Vec<u8>),
    /// Materialized, but the bytes live in the attached [`SpillStore`]
    /// instead of process RAM. Behaves exactly like `Bytes` through the
    /// public API (reads, snapshots, checksums all see real data).
    Spilled {
        slot: u64,
    },
    Synthetic,
}

struct Region {
    len: usize,
    backing: Backing,
    /// Writes per page of this region (wear tracking), compressed as
    /// equal-count segments so chunk-sized writes cost O(log segments)
    /// instead of O(pages).
    wear: WearMap,
}

impl Region {
    fn check_bounds(&self, id: RegionId, offset: usize, len: usize) -> Result<(), DeviceError> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(DeviceError::OutOfBounds {
                region: id.0,
                offset,
                len,
                region_len: self.len,
            });
        }
        Ok(())
    }

    fn record_page_writes(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = (offset / PAGE_SIZE) as u64;
        let last = ((offset + len - 1) / PAGE_SIZE) as u64;
        self.wear.increment_range(first, last);
    }
}

struct Inner {
    params: DeviceParams,
    model: BandwidthModel,
    capacity: usize,
    used: usize,
    next_id: u64,
    regions: IdMap<RegionId, Region>,
    stats: DeviceStats,
    /// Optional spill backing: when present, materialized regions
    /// allocated afterwards keep their bytes here instead of in RAM.
    spill: Option<Box<dyn SpillStore>>,
    /// Bytes read from and written to `spill`: host-side I/O, which
    /// the model does not see (never in [`DeviceStats`]).
    spill_read_bytes: u64,
    spill_written_bytes: u64,
}

/// Borrow only the `spill` field mutably (keeps borrows of other
/// `Inner` fields, like a looked-up region, alive across the call).
macro_rules! spill_of {
    ($g:expr) => {
        $g.spill
            .as_deref_mut()
            .expect("spilled region exists without a spill store")
    };
}

/// An emulated DRAM or NVM device. Cloning yields another handle to the
/// same device (it is internally shared), which is how the application
/// ranks and the asynchronous checkpoint helper see common state.
#[derive(Clone)]
pub struct MemoryDevice {
    inner: Arc<Mutex<Inner>>,
}

impl MemoryDevice {
    /// Create a device with the given parameters and capacity in bytes.
    /// The bandwidth model defaults to the contended Figure-4 curve for
    /// the device's peak bandwidth.
    pub fn new(params: DeviceParams, capacity: usize) -> Self {
        MemoryDevice {
            inner: Arc::new(Mutex::new(Inner {
                params,
                model: BandwidthModel::for_device(&params),
                capacity,
                used: 0,
                next_id: 1,
                regions: IdMap::default(),
                stats: DeviceStats::default(),
                spill: None,
                spill_read_bytes: 0,
                spill_written_bytes: 0,
            })),
        }
    }

    /// Convenience: a PCM device of `capacity` bytes.
    pub fn pcm(capacity: usize) -> Self {
        Self::new(DeviceParams::pcm(), capacity)
    }

    /// Convenience: a DRAM device of `capacity` bytes.
    pub fn dram(capacity: usize) -> Self {
        Self::new(DeviceParams::dram(), capacity)
    }

    /// Replace the bandwidth model (used by sweeps that vary effective
    /// NVM bandwidth per core).
    pub fn set_model(&self, model: BandwidthModel) {
        self.inner.lock().model = model;
    }

    /// Device parameter block.
    pub fn params(&self) -> DeviceParams {
        self.inner.lock().params
    }

    /// Device kind.
    pub fn kind(&self) -> DeviceKind {
        self.inner.lock().params.kind
    }

    /// Whether region contents survive process restart.
    pub fn is_persistent(&self) -> bool {
        self.kind().is_persistent()
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.inner.lock().used
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        let g = self.inner.lock();
        g.capacity - g.used
    }

    /// Snapshot of the device statistics.
    pub fn stats(&self) -> DeviceStats {
        self.inner.lock().stats
    }

    /// Attach a spill store: materialized regions allocated from now on
    /// keep their bytes in `store` instead of process RAM. Costs, wear
    /// and statistics are charged by the exact same code as
    /// RAM-backed regions, so simulation results are unaffected —
    /// only the process's resident set shrinks. Regions allocated
    /// before the attach keep their RAM backing.
    pub fn attach_spill(&self, store: Box<dyn SpillStore>) {
        self.inner.lock().spill = Some(store);
    }

    /// Bytes currently held in the attached spill store (0 without one).
    pub fn spill_live_bytes(&self) -> u64 {
        self.inner
            .lock()
            .spill
            .as_ref()
            .map_or(0, |s| s.live_bytes())
    }

    /// High-water mark of spilled bytes over the device's lifetime —
    /// the RAM an unspilled device would have needed for the same
    /// regions at their peak (0 without a spill store).
    pub fn spill_peak_bytes(&self) -> u64 {
        self.inner
            .lock()
            .spill
            .as_ref()
            .map_or(0, |s| s.peak_bytes())
    }

    /// Bytes read from the attached spill store over the device's
    /// lifetime, by every access that reached a spilled region (0
    /// without one). Host-side I/O: no [`DeviceStats`] field sees it.
    pub fn spill_read_bytes(&self) -> u64 {
        self.inner.lock().spill_read_bytes
    }

    /// Bytes written to the attached spill store over the device's
    /// lifetime (0 without one), like [`MemoryDevice::spill_read_bytes`].
    pub fn spill_written_bytes(&self) -> u64 {
        self.inner.lock().spill_written_bytes
    }

    /// Bytes of materialized region content held in process RAM: per
    /// RAM-backed region nothing until an access first touches it,
    /// then its first page, then all of it once an access reaches past
    /// that page (module docs). Spilled and synthetic regions
    /// contribute nothing.
    pub fn resident_bytes(&self) -> u64 {
        let g = self.inner.lock();
        g.regions
            .values()
            .map(|r| match &r.backing {
                Backing::Bytes(b) => b.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Allocate a materialized region of `len` bytes that reads as
    /// zeros. A RAM-backed one holds no bytes until an access reaches
    /// them (module docs).
    pub fn alloc(&self, len: usize) -> Result<RegionId, DeviceError> {
        self.alloc_inner(len, true)
    }

    /// Allocate a synthetic (size-only) region of `len` bytes.
    pub fn alloc_synthetic(&self, len: usize) -> Result<RegionId, DeviceError> {
        self.alloc_inner(len, false)
    }

    fn alloc_inner(&self, len: usize, materialized: bool) -> Result<RegionId, DeviceError> {
        let mut g = self.inner.lock();
        let available = g.capacity - g.used;
        if len > available {
            return Err(DeviceError::OutOfCapacity {
                requested: len,
                available,
            });
        }
        let backing = if materialized {
            match g.spill.as_deref_mut() {
                Some(spill) => {
                    let slot = spill
                        .alloc(len)
                        .map_err(|e| DeviceError::Spill(e.to_string()))?;
                    Backing::Spilled { slot }
                }
                None => Backing::Bytes(Vec::new()),
            }
        } else {
            Backing::Synthetic
        };
        let id = RegionId(g.next_id);
        g.next_id += 1;
        g.used += len;
        g.regions.insert(
            id,
            Region {
                len,
                backing,
                wear: WearMap::new(pages_for(len).max(1)),
            },
        );
        Ok(id)
    }

    /// Free a region, reclaiming its capacity.
    pub fn free(&self, id: RegionId) -> Result<(), DeviceError> {
        let mut g = self.inner.lock();
        let region = g
            .regions
            .remove(&id)
            .ok_or(DeviceError::NoSuchRegion(id.0))?;
        g.used -= region.len;
        if let Backing::Spilled { slot } = region.backing {
            spill_of!(g).free(slot, region.len);
        }
        Ok(())
    }

    /// Length of a region in bytes.
    pub fn region_len(&self, id: RegionId) -> Result<usize, DeviceError> {
        let g = self.inner.lock();
        g.regions
            .get(&id)
            .map(|r| r.len)
            .ok_or(DeviceError::NoSuchRegion(id.0))
    }

    /// Write `data` at `offset`, modeled as one of `concurrency`
    /// simultaneous streams. Returns the virtual time the write takes.
    pub fn write(
        &self,
        id: RegionId,
        offset: usize,
        data: &[u8],
        concurrency: usize,
    ) -> Result<SimDuration, DeviceError> {
        let mut g = self.inner.lock();
        let g = &mut *g;
        let (cost, region) = g.write_common(id, offset, data.len(), concurrency)?;
        match &mut region.backing {
            Backing::Bytes(held) => {
                reach(held, region.len, offset, data.len()).copy_from_slice(data);
            }
            Backing::Spilled { slot } => {
                let slot = *slot;
                g.spill_write(slot, offset, data)?;
            }
            Backing::Synthetic => {}
        }
        Ok(cost)
    }

    /// Charge the cost of writing `len` bytes at `offset` without
    /// transferring real data. Valid on both synthetic and materialized
    /// regions (on the latter it models a write whose content is
    /// irrelevant to the experiment).
    pub fn write_synthetic(
        &self,
        id: RegionId,
        offset: usize,
        len: usize,
        concurrency: usize,
    ) -> Result<SimDuration, DeviceError> {
        let mut g = self.inner.lock();
        let (cost, _) = g.write_common(id, offset, len, concurrency)?;
        Ok(cost)
    }

    /// Read `buf.len()` bytes from `offset` into `buf`. Returns the
    /// virtual read time. Errors on synthetic regions.
    pub fn read(
        &self,
        id: RegionId,
        offset: usize,
        buf: &mut [u8],
        concurrency: usize,
    ) -> Result<SimDuration, DeviceError> {
        let mut g = self.inner.lock();
        g.fill(id, offset, buf)?;
        Ok(g.charge_read(buf.len(), concurrency))
    }

    /// Copy `buf.len()` bytes from `offset` into `buf` without charging
    /// time, statistics or wear: [`MemoryDevice::read`] without its
    /// charge, for a caller that keeps the bytes where
    /// [`MemoryDevice::view`] would only lend them. A spilled range is
    /// read straight into `buf`. Errors on synthetic regions.
    pub fn copy_out(&self, id: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.inner.lock().fill(id, offset, buf)
    }

    /// Charge the cost of reading `len` bytes without materializing them.
    pub fn read_synthetic(
        &self,
        id: RegionId,
        offset: usize,
        len: usize,
        concurrency: usize,
    ) -> Result<SimDuration, DeviceError> {
        let mut g = self.inner.lock();
        let region = g.regions.get(&id).ok_or(DeviceError::NoSuchRegion(id.0))?;
        region.check_bounds(id, offset, len)?;
        Ok(g.charge_read(len, concurrency))
    }

    /// Lend `len` bytes of a materialized region at `offset` to `f`,
    /// without copying them out and without charging time, statistics
    /// or wear — a modeled read is charged separately
    /// ([`MemoryDevice::read_synthetic`]). The one-range case of
    /// [`MemoryDevice::view_ranges`]: RAM-backed bytes are lent in
    /// place under the device lock, a spilled range from the calling
    /// thread's reused buffer with the lock released.
    /// See the module docs for what `f` may call.
    pub fn view<R>(
        &self,
        id: RegionId,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, DeviceError> {
        self.view_ranges(&[(id, offset, len)], |lent| f(lent[0]))
    }

    /// Lend several ranges, each `(region, offset, len)`, to `f` at
    /// once, in the order given — like [`MemoryDevice::view`], without
    /// copying and without charging anything. The device lock is taken
    /// once. Every range is checked before any byte moves, so a
    /// missing region, an out-of-bounds or a synthetic range fails the
    /// call whole. RAM-backed ranges are lent in place, each region
    /// first grown to hold its range (module docs), and the lock is
    /// then held for the whole of `f`; spilled ranges are read under
    /// the lock, one after another, into the calling thread's reused
    /// buffer — over whatever an earlier view left there, which
    /// [`SpillStore::read`] overwrites — and when no range is
    /// RAM-backed, `f` runs with the lock released.
    /// See the module docs for what `f` may call.
    pub fn view_ranges<R>(
        &self,
        ranges: &[(RegionId, usize, usize)],
        f: impl FnOnce(&[&[u8]]) -> R,
    ) -> Result<R, DeviceError> {
        let mut guard = self.inner.lock();
        let g = &mut *guard;
        let (mut spilled, mut in_ram) = (0, false);
        for &(id, offset, len) in ranges {
            let region = g.regions.get(&id).ok_or(DeviceError::NoSuchRegion(id.0))?;
            region.check_bounds(id, offset, len)?;
            match region.backing {
                Backing::Bytes(_) => in_ram = true,
                Backing::Spilled { .. } => spilled += len,
                Backing::Synthetic => return Err(DeviceError::SyntheticAccess(id.0)),
            }
        }
        let mut buf = Vec::new();
        if spilled > 0 {
            buf = SPILL_VIEW.take();
            if buf.len() < spilled {
                buf = materialize(&[], spilled);
            }
        }
        let mut at = 0;
        for &(id, offset, len) in ranges {
            match g.regions.get_mut(&id).map(|r| (r.len, &mut r.backing)) {
                Some((region_len, Backing::Bytes(held))) => {
                    reach(held, region_len, offset, len);
                }
                Some((_, Backing::Spilled { slot })) => {
                    let slot = *slot;
                    g.spill_read(slot, offset, &mut buf[at..at + len])?;
                    at += len;
                }
                _ => {}
            }
        }
        let out = if in_ram {
            lend(ranges, Some(&g.regions), &buf, f)
        } else {
            drop(guard);
            lend(ranges, None, &buf, f)
        };
        if spilled > 0 {
            SPILL_VIEW.set(buf);
        }
        Ok(out)
    }

    /// Lend `len` bytes of a materialized region at `offset` to `f`
    /// for overwriting: what `f` leaves in the slice is what the range
    /// holds afterwards, whatever `f` returns. The slice starts out
    /// as the range's current bytes (RAM-backed, in place under the
    /// device lock) or as zeros (spilled: a private buffer, filled with
    /// the lock released and flushed under it), so `f` is expected to
    /// write all of it.
    ///
    /// Like [`MemoryDevice::view`] this charges no time, statistics or
    /// wear. On its own it is *not* a modeled operation: it
    /// reconstitutes emulator state that conceptually survived a
    /// process failure (re-loading a durable store file into a fresh
    /// NVM device on restart — on real hardware those bytes never left
    /// the medium). A modeled write made through it is charged with
    /// [`MemoryDevice::write_synthetic`].
    pub fn view_mut<R>(
        &self,
        id: RegionId,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, DeviceError> {
        {
            let mut g = self.inner.lock();
            let region = g
                .regions
                .get_mut(&id)
                .ok_or(DeviceError::NoSuchRegion(id.0))?;
            region.check_bounds(id, offset, len)?;
            match &mut region.backing {
                Backing::Bytes(held) => return Ok(f(reach(held, region.len, offset, len))),
                Backing::Spilled { .. } => {}
                Backing::Synthetic => return Err(DeviceError::SyntheticAccess(id.0)),
            }
        }
        let mut buf = materialize(&[], len);
        let out = f(&mut buf);
        let mut g = self.inner.lock();
        let g = &mut *g;
        // Looked up again: the region may have been freed (and its
        // spill slot handed to another) while the lock was released.
        let region = g.regions.get(&id).ok_or(DeviceError::NoSuchRegion(id.0))?;
        if let Backing::Spilled { slot } = region.backing {
            g.spill_write(slot, offset, &buf)?;
        }
        Ok(out)
    }

    /// True when `other` is a handle onto this same device (and so
    /// onto this same lock).
    pub fn same_device(&self, other: &MemoryDevice) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Flush `len` bytes of a region from the processor cache to the
    /// persistence domain (the paper flushes before marking a checkpoint
    /// consistent). Cost: one [`FLUSH_PER_LINE`] per cache line.
    pub fn flush(&self, id: RegionId, len: usize) -> Result<SimDuration, DeviceError> {
        let mut g = self.inner.lock();
        let region = g.regions.get(&id).ok_or(DeviceError::NoSuchRegion(id.0))?;
        let len = len.min(region.len);
        let lines = len.div_ceil(CACHE_LINE) as u64;
        let cost = FLUSH_PER_LINE * lines;
        g.stats.flush_ops += 1;
        g.stats.busy += cost;
        Ok(cost)
    }

    /// Maximum per-page write count observed on a region (wear).
    pub fn max_wear(&self, id: RegionId) -> Result<u64, DeviceError> {
        let g = self.inner.lock();
        g.regions
            .get(&id)
            .map(|r| r.wear.max())
            .ok_or(DeviceError::NoSuchRegion(id.0))
    }

    /// Fraction of the endurance budget consumed by the hottest page of
    /// the hottest region, in [0, 1+].
    pub fn wear_fraction(&self) -> f64 {
        let g = self.inner.lock();
        let max = g.regions.values().map(|r| r.wear.max()).max().unwrap_or(0);
        max as f64 / g.params.write_endurance as f64
    }

    /// Destroy all contents (hard failure: the node's NVM is lost).
    pub fn destroy(&self) {
        let mut g = self.inner.lock();
        let g = &mut *g;
        for (_, region) in g.regions.drain() {
            if let Backing::Spilled { slot } = region.backing {
                spill_of!(g).free(slot, region.len);
            }
        }
        g.used = 0;
    }

    /// Effective per-core bandwidth for `concurrency` streams and
    /// buffers of `buffer_bytes` (exposes the model for planners: the
    /// DCPC threshold needs `NVMBW_core`).
    pub fn per_core_bandwidth(&self, concurrency: usize, buffer_bytes: usize) -> f64 {
        self.inner.lock().model.per_core(concurrency, buffer_bytes)
    }
}

impl Inner {
    /// Charge a write of `len` bytes at `offset` of region `id` — wear,
    /// time, statistics — and return the region with the cost,
    /// for the caller that also has bytes to put there.
    fn write_common(
        &mut self,
        id: RegionId,
        offset: usize,
        len: usize,
        concurrency: usize,
    ) -> Result<(SimDuration, &mut Region), DeviceError> {
        let params = self.params;
        let region = self
            .regions
            .get_mut(&id)
            .ok_or(DeviceError::NoSuchRegion(id.0))?;
        region.check_bounds(id, offset, len)?;
        region.record_page_writes(offset, len);
        // The model already encodes this device's peak bandwidth (or a
        // fixed per-core override); floor it to avoid degenerate zero.
        let stream_bw = self.model.per_core(concurrency, len).max(1.0);
        let transfer = SimDuration::for_transfer(len as u64, stream_bw);
        let latency = params.page_write_latency * pages_for(len.max(1)) as u64;
        let cost = transfer + latency;
        self.stats.bytes_written += len as u64;
        self.stats.write_ops += 1;
        self.stats.busy += cost;
        Ok((cost, region))
    }

    /// Fill `buf` with region `id`'s bytes at `offset`, charging
    /// nothing: the body of [`MemoryDevice::read`] and
    /// [`MemoryDevice::copy_out`].
    fn fill(&mut self, id: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        let region = self
            .regions
            .get(&id)
            .ok_or(DeviceError::NoSuchRegion(id.0))?;
        region.check_bounds(id, offset, buf.len())?;
        match &region.backing {
            Backing::Synthetic => return Err(DeviceError::SyntheticAccess(id.0)),
            Backing::Bytes(held) => match held.get(offset..offset + buf.len()) {
                Some(bytes) => buf.copy_from_slice(bytes),
                None => {
                    // Past what the region holds nothing was ever
                    // written.
                    let held = held.get(offset..).unwrap_or_default();
                    buf[..held.len()].copy_from_slice(held);
                    buf[held.len()..].fill(0);
                }
            },
            Backing::Spilled { slot } => {
                let slot = *slot;
                self.spill_read(slot, offset, buf)?;
            }
        }
        Ok(())
    }

    /// Fill `buf` from spill `slot` at `offset`, and count the bytes.
    fn spill_read(&mut self, slot: u64, offset: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        (spill_of!(self).read(slot, offset, buf)).map_err(|e| DeviceError::Spill(e.to_string()))?;
        self.spill_read_bytes += buf.len() as u64;
        Ok(())
    }

    /// Write `data` into spill `slot` at `offset`, and count the bytes.
    fn spill_write(&mut self, slot: u64, offset: usize, data: &[u8]) -> Result<(), DeviceError> {
        (spill_of!(self).write(slot, offset, data))
            .map_err(|e| DeviceError::Spill(e.to_string()))?;
        self.spill_written_bytes += data.len() as u64;
        Ok(())
    }

    fn charge_read(&mut self, len: usize, concurrency: usize) -> SimDuration {
        let params = self.params;
        // Reads contend like writes but against the read bandwidth.
        let write_bw = self.model.per_core(concurrency, len).max(1.0);
        let read_bw = write_bw * (params.read_bandwidth / params.write_bandwidth);
        let transfer = SimDuration::for_transfer(len as u64, read_bw.max(1.0));
        let latency = params.page_read_latency * pages_for(len.max(1)) as u64;
        let cost = transfer + latency;
        self.stats.bytes_read += len as u64;
        self.stats.read_ops += 1;
        self.stats.busy += cost;
        cost
    }
}

/// Bytes `offset..offset + len` of a RAM-backed region of `region_len`
/// bytes that holds `held`, after growing `held` to what the range
/// reaches: the first page, or the whole region. A range of no bytes
/// touches nothing. The caller has checked the bounds.
fn reach(held: &mut Vec<u8>, region_len: usize, offset: usize, len: usize) -> &mut [u8] {
    if len == 0 {
        return &mut [];
    }
    let end = offset + len;
    if end > held.len() {
        let grown = if end <= PAGE_SIZE {
            region_len.min(PAGE_SIZE)
        } else {
            region_len
        };
        *held = materialize(held, grown);
    }
    &mut held[offset..end]
}

/// Run `f` on the slices [`MemoryDevice::view_ranges`] lends: a
/// RAM-backed range in place in `regions` (`None` when no range is
/// RAM-backed), a spilled one from the next bytes of `spilled`, which
/// holds the spilled ranges read in order. One range is lent without
/// allocating.
fn lend<'a, R>(
    ranges: &[(RegionId, usize, usize)],
    regions: Option<&'a IdMap<RegionId, Region>>,
    spilled: &'a [u8],
    f: impl FnOnce(&[&[u8]]) -> R,
) -> R {
    let mut at = 0;
    let mut slice = |&(id, offset, len): &(RegionId, usize, usize)| -> &'a [u8] {
        if let Some(Backing::Bytes(held)) = regions.and_then(|r| r.get(&id)).map(|r| &r.backing) {
            // A range of no bytes may start past what the region holds.
            return held.get(offset..offset + len).unwrap_or_default();
        }
        at += len;
        &spilled[at - len..at]
    };
    match ranges {
        [one] => f(&[slice(one)]),
        _ => f(&ranges.iter().map(slice).collect::<Vec<_>>()),
    }
}

/// `len` bytes that begin with `held` and are zeros after it — a
/// RAM-backed region grown by [`reach`], a spilled range's private
/// `view_mut` buffer, or a thread's `view` buffer when a view is longer
/// than it. The one zero-fill in this file (CI checks it), so that no
/// allocation fills a region nothing has reached yet.
fn materialize(held: &[u8], len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    bytes[..held.len()].copy_from_slice(held);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    /// Every byte of `r`, copied out through the read view.
    fn contents(d: &MemoryDevice, r: RegionId) -> Vec<u8> {
        let len = d.region_len(r).unwrap();
        d.view(r, 0, len, <[u8]>::to_vec).unwrap()
    }

    #[test]
    fn alloc_free_accounting() {
        let d = MemoryDevice::pcm(10 * MB);
        let a = d.alloc(4 * MB).unwrap();
        let b = d.alloc_synthetic(4 * MB).unwrap();
        assert_eq!(d.used(), 8 * MB);
        assert_eq!(d.available(), 2 * MB);
        assert!(matches!(
            d.alloc(4 * MB),
            Err(DeviceError::OutOfCapacity { .. })
        ));
        d.free(a).unwrap();
        d.free(b).unwrap();
        assert_eq!(d.used(), 0);
        assert!(matches!(d.free(a), Err(DeviceError::NoSuchRegion(_))));
    }

    #[test]
    fn write_read_roundtrip() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(1024).unwrap();
        let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let wcost = d.write(r, 0, &data, 1).unwrap();
        assert!(!wcost.is_zero());
        let mut buf = vec![0u8; 1024];
        let rcost = d.read(r, 0, &mut buf, 1).unwrap();
        assert_eq!(buf, data);
        // PCM: writes much slower than reads.
        assert!(wcost > rcost, "wcost={wcost} rcost={rcost}");
    }

    #[test]
    fn partial_write_preserves_rest() {
        let d = MemoryDevice::dram(MB);
        let r = d.alloc(100).unwrap();
        d.write(r, 10, &[7; 20], 1).unwrap();
        let snap = contents(&d, r);
        assert!(snap[..10].iter().all(|&b| b == 0));
        assert!(snap[10..30].iter().all(|&b| b == 7));
        assert!(snap[30..].iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(100).unwrap();
        assert!(matches!(
            d.write(r, 90, &[0; 20], 1),
            Err(DeviceError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 20];
        assert!(matches!(
            d.read(r, 90, &mut buf, 1),
            Err(DeviceError::OutOfBounds { .. })
        ));
        // offset overflow must not panic
        assert!(matches!(
            d.write(r, usize::MAX, &[0; 2], 1),
            Err(DeviceError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn synthetic_regions_charge_time_but_hold_no_bytes() {
        let d = MemoryDevice::pcm(100 * MB);
        let r = d.alloc_synthetic(50 * MB).unwrap();
        let cost = d.write_synthetic(r, 0, 50 * MB, 1).unwrap();
        assert!(cost.as_secs_f64() > 0.01); // 50 MB at <= 2 GB/s
        let mut buf = [0u8; 16];
        assert!(matches!(
            d.read(r, 0, &mut buf, 1),
            Err(DeviceError::SyntheticAccess(_))
        ));
        assert!(matches!(
            d.view(r, 0, 16, <[u8]>::to_vec),
            Err(DeviceError::SyntheticAccess(_))
        ));
        assert!(matches!(
            d.view_mut(r, 0, 16, |b| b.fill(1)),
            Err(DeviceError::SyntheticAccess(_))
        ));
        // but cost-only reads work
        assert!(d.read_synthetic(r, 0, MB, 1).is_ok());
    }

    #[test]
    fn concurrency_slows_per_stream_writes() {
        let d = MemoryDevice::pcm(100 * MB);
        let r = d.alloc_synthetic(33 * MB).unwrap();
        let solo = d.write_synthetic(r, 0, 33 * MB, 1).unwrap();
        let contended = d.write_synthetic(r, 0, 33 * MB, 12).unwrap();
        let ratio = contended.as_secs_f64() / solo.as_secs_f64();
        assert!(
            ratio > 2.0,
            "12-way contention should be >2x slower: {ratio}"
        );
    }

    #[test]
    fn pcm_slower_than_dram() {
        let pcm = MemoryDevice::pcm(100 * MB);
        let dram = MemoryDevice::dram(100 * MB);
        let rp = pcm.alloc_synthetic(10 * MB).unwrap();
        let rd = dram.alloc_synthetic(10 * MB).unwrap();
        let cp = pcm.write_synthetic(rp, 0, 10 * MB, 1).unwrap();
        let cd = dram.write_synthetic(rd, 0, 10 * MB, 1).unwrap();
        let ratio = cp.as_secs_f64() / cd.as_secs_f64();
        assert!(ratio > 3.0, "PCM writes should be ~4x slower: {ratio}");
    }

    #[test]
    fn stats_accumulate() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(4096).unwrap();
        d.write(r, 0, &[1; 4096], 1).unwrap();
        let mut buf = vec![0u8; 4096];
        d.read(r, 0, &mut buf, 1).unwrap();
        d.flush(r, 4096).unwrap();
        let s = d.stats();
        assert_eq!(s.bytes_written, 4096);
        assert_eq!(s.bytes_read, 4096);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.flush_ops, 1);
        assert!(!s.busy.is_zero());
    }

    #[test]
    fn flush_cost_scales_with_lines() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(128 * 1024).unwrap();
        let small = d.flush(r, 64).unwrap();
        let big = d.flush(r, 64 * 1024).unwrap();
        assert_eq!(small, FLUSH_PER_LINE);
        assert_eq!(big, FLUSH_PER_LINE * 1024);
    }

    #[test]
    fn wear_tracking_counts_page_writes() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(2 * PAGE_SIZE).unwrap();
        for _ in 0..5 {
            d.write(r, 0, &[1; 64], 1).unwrap();
        }
        d.write(r, PAGE_SIZE, &[1; 64], 1).unwrap();
        assert_eq!(d.max_wear(r).unwrap(), 5);
        assert!(d.wear_fraction() > 0.0);
    }

    #[test]
    fn destroy_clears_contents() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(1024).unwrap();
        d.destroy();
        assert_eq!(d.used(), 0);
        assert!(matches!(
            d.write(r, 0, &[1; 8], 1),
            Err(DeviceError::NoSuchRegion(_))
        ));
    }

    #[test]
    fn shared_handles_see_same_device() {
        let d = MemoryDevice::pcm(MB);
        let d2 = d.clone();
        let r = d.alloc(128).unwrap();
        d2.write(r, 0, &[9; 128], 1).unwrap();
        assert_eq!(contents(&d, r), vec![9u8; 128]);
    }

    #[test]
    fn publish_names_every_counted_field() {
        let mut reg = MetricsRegistry::new();
        DeviceStats::default().publish(DeviceKind::Pcm, &mut reg);
        assert!(reg.is_empty(), "zero totals publish no key");
        let stats = DeviceStats {
            bytes_written: 1,
            bytes_read: 2,
            write_ops: 3,
            read_ops: 4,
            flush_ops: 5,
            busy: SimDuration::from_nanos(6),
        };
        stats.publish(DeviceKind::Pcm, &mut reg);
        stats.publish(DeviceKind::Dram, &mut reg);
        assert_eq!(
            reg.snapshot().counters,
            [
                ("dev_dram_busy_ns_total", 6),
                ("dev_dram_read_bytes_total", 2),
                ("dev_dram_write_bytes_total", 1),
                ("dev_pcm_busy_ns_total", 6),
                ("dev_pcm_read_bytes_total", 2),
                ("dev_pcm_write_bytes_total", 1),
            ]
            .map(|(name, v)| (name.to_string(), v))
            .into()
        );
    }

    #[test]
    fn spilled_regions_behave_like_ram_backed_at_identical_cost() {
        use crate::spill::MemSpill;
        let plain = MemoryDevice::pcm(MB);
        let spilly = MemoryDevice::pcm(MB);
        spilly.attach_spill(Box::new(MemSpill::new()));

        let rp = plain.alloc(4096).unwrap();
        let rs = spilly.alloc(4096).unwrap();
        assert_eq!(spilly.resident_bytes(), 0, "bytes live in the spill store");
        assert_eq!(spilly.spill_live_bytes(), 4096);

        // Fresh regions read back zeros either way.
        assert_eq!(contents(&spilly, rs), vec![0u8; 4096]);

        // Identical virtual-time charges, stats, and wear for the same
        // operation sequence — spilling must not perturb the model.
        let data: Vec<u8> = (0..4096).map(|i| (i % 253) as u8).collect();
        let wp = plain.write(rp, 128, &data[..1024], 2).unwrap();
        let ws = spilly.write(rs, 128, &data[..1024], 2).unwrap();
        assert_eq!(wp, ws);
        let mut bp = vec![0u8; 1024];
        let mut bs = vec![0u8; 1024];
        let rp_cost = plain.read(rp, 128, &mut bp, 2).unwrap();
        let rs_cost = spilly.read(rs, 128, &mut bs, 2).unwrap();
        assert_eq!(rp_cost, rs_cost);
        assert_eq!(bp, bs);
        assert_eq!(bs, data[..1024]);
        assert_eq!(plain.stats(), spilly.stats());
        assert_eq!(plain.max_wear(rp).unwrap(), spilly.max_wear(rs).unwrap());

        // Both views round-trip through the spill, free of charge.
        let charged = spilly.stats();
        spilly
            .view_mut(rs, 0, 4096, |b| b.copy_from_slice(&data))
            .unwrap();
        assert_eq!(contents(&spilly, rs), data);
        assert_eq!(spilly.stats(), charged);

        // free and destroy release spill slots.
        let extra = spilly.alloc(512).unwrap();
        assert_eq!(spilly.spill_live_bytes(), 4096 + 512);
        spilly.free(extra).unwrap();
        assert_eq!(spilly.spill_live_bytes(), 4096);
        spilly.destroy();
        assert_eq!(spilly.spill_live_bytes(), 0);
        assert_eq!(spilly.spill_peak_bytes(), 4096 + 512, "peak survives");
    }

    #[test]
    fn spilled_views_reuse_one_buffer_and_every_spill_byte_is_counted() {
        use crate::spill::MemSpill;
        let d = MemoryDevice::pcm(MB);
        d.attach_spill(Box::new(MemSpill::new()));
        let long = d.alloc(8192).unwrap();
        let short = d.alloc(100).unwrap();
        d.write(long, 0, &[7; 8192], 1).unwrap();
        d.write(short, 0, &[1; 50], 1).unwrap();
        let io = || (d.spill_read_bytes(), d.spill_written_bytes());
        assert_eq!(io(), (0, 8192 + 50));
        // The long view leaves 7s in this thread's buffer; the short
        // one, lent from the same buffer, must not show them.
        assert_eq!(contents(&d, long), vec![7u8; 8192]);
        let mut short_bytes = vec![1u8; 50];
        short_bytes.resize(100, 0);
        assert_eq!(contents(&d, short), short_bytes);
        // A view nested in another on the same thread lends its own
        // range, and the outer one's is intact after it.
        let (inner, outer) = d
            .view(long, 0, 16, |outer| {
                let inner = d.view(short, 40, 20, <[u8]>::to_vec).unwrap();
                (inner, outer.to_vec())
            })
            .unwrap();
        assert_eq!(
            (inner, outer),
            (short_bytes[40..60].to_vec(), vec![7u8; 16])
        );
        assert_eq!(io(), (8192 + 100 + 16 + 20, 8192 + 50));
        // `copy_out` reads the range straight into the caller's buffer,
        // counted like any spill read and charged nothing.
        let charged = d.stats();
        let mut buf = [9u8; 10];
        d.copy_out(short, 45, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(d.stats(), charged);
        d.view_mut(short, 0, 4, |b| b.fill(3)).unwrap();
        assert_eq!(io(), (8192 + 100 + 16 + 20 + 10, 8192 + 50 + 4));
        // No spill store, no spill I/O; `copy_out` is `read` uncharged.
        let ram = MemoryDevice::pcm(MB);
        let r = ram.alloc(2 * PAGE_SIZE).unwrap();
        ram.write(r, 10, &[5; 20], 1).unwrap();
        let mut read = [0u8; 40];
        ram.read(r, 0, &mut read, 1).unwrap();
        let charged = ram.stats();
        let mut copied = [9u8; 40];
        ram.copy_out(r, 0, &mut copied).unwrap();
        assert_eq!((copied, ram.stats()), (read, charged));
        assert_eq!((ram.spill_read_bytes(), ram.spill_written_bytes()), (0, 0));
        assert!(matches!(
            ram.copy_out(r, 2 * PAGE_SIZE - 4, &mut copied),
            Err(DeviceError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn several_ranges_are_lent_at_once_in_place_or_from_the_spill() {
        use crate::spill::MemSpill;
        let d = MemoryDevice::dram(MB);
        let ram = d.alloc(2 * PAGE_SIZE).unwrap();
        d.write(ram, 0, &[1; 16], 1).unwrap();
        d.attach_spill(Box::new(MemSpill::new()));
        let (s1, s2) = (d.alloc(100).unwrap(), d.alloc(100).unwrap());
        d.write(s1, 0, &[2; 100], 1).unwrap();
        d.write(s2, 0, &[3; 100], 1).unwrap();
        let charged = d.stats();
        let ranges = [
            (s2, 90, 10),
            (ram, 8, 16),
            (s1, 0, 4),
            (ram, PAGE_SIZE + 5, 0),
            (s2, 0, 2),
        ];
        let lent = d
            .view_ranges(&ranges, |lent| {
                lent.iter().map(|b| b.to_vec()).collect::<Vec<_>>()
            })
            .unwrap();
        let mut ram_bytes = vec![1u8; 8];
        ram_bytes.resize(16, 0);
        assert_eq!(
            lent,
            [vec![3; 10], ram_bytes, vec![2; 4], vec![], vec![3; 2]]
        );
        assert_eq!(d.stats(), charged, "a lend charges nothing");
        assert_eq!(d.spill_read_bytes(), 10 + 4 + 2);
        assert_eq!(
            d.resident_bytes(),
            PAGE_SIZE as u64,
            "the range reached one page"
        );
        // Spilled ranges only: lent with the lock released, so the
        // closure may use the device.
        let nested = d.view_ranges(&[(s1, 0, 2), (s2, 0, 2)], |lent| {
            (lent.concat(), d.view(ram, 0, 2, <[u8]>::to_vec).unwrap())
        });
        assert_eq!(nested.unwrap(), (vec![2, 2, 3, 3], vec![1, 1]));
        // Every range is checked before a spill byte is read.
        let read = d.spill_read_bytes();
        let past_end = d.view_ranges(&[(s1, 0, 4), (s2, 99, 2)], |_| ());
        assert!(matches!(past_end, Err(DeviceError::OutOfBounds { .. })));
        let missing = d.view_ranges(&[(s1, 0, 4), (RegionId(99), 0, 1)], |_| ());
        assert!(matches!(missing, Err(DeviceError::NoSuchRegion(99))));
        assert_eq!(d.spill_read_bytes(), read);
        assert_eq!(d.view_ranges(&[], |lent| lent.len()).unwrap(), 0);
    }

    #[test]
    fn attach_spill_leaves_existing_regions_resident() {
        use crate::spill::MemSpill;
        let d = MemoryDevice::dram(MB);
        let before = d.alloc(256).unwrap();
        d.attach_spill(Box::new(MemSpill::new()));
        let after = d.alloc(256).unwrap();
        d.write(before, 0, &[1; 256], 1).unwrap();
        d.write(after, 0, &[2; 256], 1).unwrap();
        assert_eq!(d.resident_bytes(), 256);
        assert_eq!(d.spill_live_bytes(), 256);
        assert_eq!(contents(&d, before), vec![1u8; 256]);
        assert_eq!(contents(&d, after), vec![2u8; 256]);
    }

    #[test]
    fn views_lend_a_range_in_place_and_charge_nothing() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(100).unwrap();
        d.write(r, 0, &[7; 100], 1).unwrap();
        let charged = d.stats();
        let wear = d.max_wear(r).unwrap();
        let seen = d
            .view_mut(r, 10, 20, |b| {
                let seen = b.to_vec();
                b.fill(9);
                seen
            })
            .unwrap();
        assert_eq!(seen, vec![7u8; 20], "a RAM-backed range is lent as it is");
        assert_eq!(d.view(r, 8, 4, <[u8]>::to_vec).unwrap(), [7, 7, 9, 9]);
        assert_eq!(d.view(r, 28, 4, <[u8]>::to_vec).unwrap(), [9, 9, 7, 7]);
        assert_eq!(d.stats(), charged);
        assert_eq!(d.max_wear(r).unwrap(), wear);
        // A range that does not fit is a typed error, not a panic.
        assert!(matches!(
            d.view(r, 90, 20, <[u8]>::len),
            Err(DeviceError::OutOfBounds { .. })
        ));
        assert!(matches!(
            d.view_mut(r, usize::MAX, 2, |b| b.fill(0)),
            Err(DeviceError::OutOfBounds { .. })
        ));
        assert!(matches!(
            d.view(RegionId(99), 0, 1, <[u8]>::len),
            Err(DeviceError::NoSuchRegion(99))
        ));
    }

    #[test]
    fn a_view_may_use_another_device_but_is_not_the_same_device() {
        let dram = MemoryDevice::dram(MB);
        let nvm = MemoryDevice::pcm(MB);
        assert!(dram.same_device(&dram.clone()));
        assert!(!dram.same_device(&nvm));
        // DRAM first, then NVM: the shadow-copy and restore nestings.
        let src = dram.alloc(64).unwrap();
        let dst = nvm.alloc(64).unwrap();
        dram.write(src, 0, &[5; 64], 1).unwrap();
        dram.view(src, 0, 64, |b| nvm.write(dst, 0, b, 1))
            .unwrap()
            .unwrap();
        dram.view_mut(src, 0, 32, |b| {
            b.fill(0);
            nvm.read(dst, 32, b, 1)
        })
        .unwrap()
        .unwrap();
        assert_eq!(contents(&dram, src), vec![5u8; 64]);
    }

    #[test]
    fn a_spilled_write_view_does_not_land_in_a_freed_region() {
        use crate::spill::MemSpill;
        let d = MemoryDevice::dram(MB);
        d.attach_spill(Box::new(MemSpill::new()));
        let r = d.alloc(16).unwrap();
        // The closure runs with the lock released, so it may free the
        // region it is filling; the flush must then find it gone.
        let freed = d.view_mut(r, 0, 16, |b| {
            b.fill(1);
            d.free(r).unwrap();
        });
        assert!(matches!(freed, Err(DeviceError::NoSuchRegion(_))));
    }

    #[test]
    fn zero_length_ops_are_ok() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(16).unwrap();
        assert!(d.write(r, 0, &[], 1).is_ok());
        assert!(d.write(r, 16, &[], 1).is_ok());
        let mut buf = [0u8; 0];
        assert!(d.read(r, 16, &mut buf, 1).is_ok());
        assert_eq!(d.view(r, 16, 0, <[u8]>::len).unwrap(), 0);
        assert_eq!(d.view_mut(r, 0, 0, |b| b.len()).unwrap(), 0);
    }
}
