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
//! nothing when it is allocated; the first `write` or `view_mut` that
//! touches it gives it its first page (`min(PAGE_SIZE, len)` bytes),
//! and the first that reaches past that page gives it all `len` bytes,
//! zero-filled once, with the page it held copied in. A read never
//! grows what a region holds, whether it copies, lends or only charges:
//! bytes past it are zeros. Capacity (`used`), charges and statistics
//! are all by region length, so only
//! [`MemoryDevice::resident_bytes`] sees the difference — a metadata
//! region that a save writes 2 KiB of costs one page of RAM, not its
//! megabyte.
//!
//! The device is passive with respect to time: operations return the
//! [`SimDuration`] they would take, and the caller advances its clock.
//! Concurrency (how many cores copy simultaneously) is an argument to
//! each transfer, because only the orchestration layer knows it.
//!
//! **One way to read: the guard.** [`MemoryDevice::lock`] returns a
//! [`DeviceGuard`], which holds the device's lock until it is dropped.
//! It is the only way to read a device, lend its bytes or charge a
//! read of them: [`DeviceGuard::read`] copies a range out,
//! [`DeviceGuard::read_view`] lends it charged as that read,
//! [`DeviceGuard::charge_read`] charges the read of a range of any
//! region, size-only ones included, and [`DeviceGuard::lend_views`]
//! lends several ranges at once and charges nothing. A range a
//! RAM-backed region holds is lent where it lies; a range past what it
//! holds, and a spilled range, are lent from the calling thread's
//! reused buffer, so a lend moves neither
//! [`MemoryDevice::resident_bytes`] nor the process's resident set. The
//! guard writes too; the device's own `read`, `write` and
//! `write_synthetic` are one-access runs of the guard's. A cost, once
//! worked out, is remembered by its kind, length and concurrency until
//! [`MemoryDevice::set_model`] replaces the model, which is exact:
//! nothing else changes what an access costs.
//!
//! **Lock order.** While a guard lives nothing may use its device (the
//! mutex is not reentrant): the holder drops the guard before any call
//! that takes the lock and locks again after it (the checkpoint
//! engine's `Access` does this around a lazy restore). Another device
//! may be used under it, and every such nesting in the workspace takes
//! **DRAM first, then NVM** — a shadow copy lends the working copy
//! under the DRAM guard around an NVM `write`, a restore is a DRAM
//! [`MemoryDevice::view_mut`] around an NVM `read` — so two threads
//! sharing a node's devices cannot take the two locks in opposite
//! orders. `view_mut`, the one lend for writing, hands a range to a
//! closure: a RAM-backed one in place under the lock, a spilled one in
//! a private buffer with the lock released.

use crate::bandwidth::BandwidthModel;
use crate::error::DeviceError;
use crate::idmap::IdMap;
use crate::params::{DeviceKind, DeviceParams};
use crate::spill::SpillStore;
use crate::time::SimDuration;
use crate::{pages_for, PAGE_SIZE};
use nvm_metrics::{names, MetricsRegistry};
use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// The buffer a [`DeviceGuard`] lends a range from when the range
    /// does not lie in RAM — spilled, or past what a RAM-backed region
    /// holds — several ranges one after another: taken by the guard and
    /// put back when it drops, so a thread's lends allocate and
    /// zero-fill only when one is longer than any before it. A guard on
    /// another device, held under the first on the same thread, finds
    /// it taken and allocates its own.
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
    /// Add these totals to the `dev_{dram,pcm}_*_total` counters of
    /// `reg` — the only path from a device's totals into a registry. No
    /// `..` and no `_` kind arm: a new field or a new [`DeviceKind`]
    /// needs its counter names to compile.
    pub fn publish(&self, kind: DeviceKind, reg: &mut MetricsRegistry) {
        let DeviceStats {
            bytes_written,
            bytes_read,
            write_ops: _,
            read_ops: _,
            flush_ops: _,
            busy,
        } = *self;
        let [write, read, busy_ns] = match kind {
            DeviceKind::Dram => [
                names::DEV_DRAM_WRITE_BYTES_TOTAL,
                names::DEV_DRAM_READ_BYTES_TOTAL,
                names::DEV_DRAM_BUSY_NS_TOTAL,
            ],
            DeviceKind::Pcm => [
                names::DEV_PCM_WRITE_BYTES_TOTAL,
                names::DEV_PCM_READ_BYTES_TOTAL,
                names::DEV_PCM_BUSY_NS_TOTAL,
            ],
        };
        reg.publish_totals([
            (write, bytes_written),
            (read, bytes_read),
            (busy_ns, busy.as_nanos()),
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

    /// Bytes `offset..offset + len`, where a RAM-backed region holds
    /// them all; `None` for a range past what it holds, or a region
    /// whose bytes are not in RAM.
    fn held(&self, offset: usize, len: usize) -> Option<&[u8]> {
        match &self.backing {
            Backing::Bytes(held) => held.get(offset..offset + len),
            _ => None,
        }
    }

    /// Fill `buf` with this region's bytes at `offset`, which the
    /// caller has checked, charging nothing.
    fn fill(
        &self,
        id: RegionId,
        offset: usize,
        buf: &mut [u8],
        spill: &mut Spill,
    ) -> Result<(), DeviceError> {
        match &self.backing {
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
            Backing::Spilled { slot } => spill.read(*slot, offset, buf)?,
        }
        Ok(())
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
    spill: Spill,
    known: Known,
}

/// Optional spill backing: when present, materialized regions
/// allocated afterwards keep their bytes in `store` instead of in RAM.
/// A field of [`Inner`] of its own, so that it is borrowed apart from a
/// looked-up region.
#[derive(Default)]
struct Spill {
    store: Option<Box<dyn SpillStore>>,
    /// Bytes read from and written to `store`: host-side I/O, which
    /// the model does not see (never in [`DeviceStats`]).
    read_bytes: u64,
    written_bytes: u64,
}

impl Spill {
    fn store(&mut self) -> &mut dyn SpillStore {
        (self.store.as_deref_mut()).expect("spilled region exists without a spill store")
    }

    /// Fill `buf` from `slot` at `offset`, and count the bytes.
    fn read(&mut self, slot: u64, offset: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        (self.store().read(slot, offset, buf)).map_err(|e| DeviceError::Spill(e.to_string()))?;
        self.read_bytes += buf.len() as u64;
        Ok(())
    }

    /// Write `data` into `slot` at `offset`, and count the bytes.
    fn write(&mut self, slot: u64, offset: usize, data: &[u8]) -> Result<(), DeviceError> {
        (self.store().write(slot, offset, data)).map_err(|e| DeviceError::Spill(e.to_string()))?;
        self.written_bytes += data.len() as u64;
        Ok(())
    }
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
                spill: Spill::default(),
                known: Known::default(),
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
        let mut g = self.inner.lock();
        g.model = model;
        g.known = Known::default();
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
    /// keep their bytes in `store` instead of process RAM. Costs and
    /// statistics are charged by the exact same code as
    /// RAM-backed regions, so simulation results are unaffected —
    /// only the process's resident set shrinks. Regions allocated
    /// before the attach keep their RAM backing.
    pub fn attach_spill(&self, store: Box<dyn SpillStore>) {
        self.inner.lock().spill.store = Some(store);
    }

    /// Bytes currently held in the attached spill store (0 without one).
    pub fn spill_live_bytes(&self) -> u64 {
        self.inner
            .lock()
            .spill
            .store
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
            .store
            .as_ref()
            .map_or(0, |s| s.peak_bytes())
    }

    /// Bytes read from the attached spill store over the device's
    /// lifetime, by every access that reached a spilled region (0
    /// without one). Host-side I/O: no [`DeviceStats`] field sees it.
    pub fn spill_read_bytes(&self) -> u64 {
        self.inner.lock().spill.read_bytes
    }

    /// Bytes written to the attached spill store over the device's
    /// lifetime (0 without one), like [`MemoryDevice::spill_read_bytes`].
    pub fn spill_written_bytes(&self) -> u64 {
        self.inner.lock().spill.written_bytes
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
            match g.spill.store.as_deref_mut() {
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
        g.regions.insert(id, Region { len, backing });
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
            g.spill.store().free(slot, region.len);
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

    /// Hold this device's lock for a run of accesses: the
    /// [`DeviceGuard`], the one way to read, lend or charge a read of
    /// this device, and to write it as this handle's calls of the same
    /// names do, one lock for the whole run. Nothing may use this
    /// device while the guard lives (see the module docs); drop it to
    /// release the lock.
    #[inline]
    pub fn lock(&self) -> DeviceGuard<'_> {
        DeviceGuard {
            g: self.inner.lock(),
            buf: Vec::new(),
        }
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
        self.lock().write(id, offset, data, concurrency)
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
        self.lock().write_synthetic(id, offset, len, concurrency)
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
        self.lock().read(id, offset, buf, concurrency)
    }

    /// Lend `len` bytes of a materialized region at `offset` to `f`
    /// for overwriting: what `f` leaves in the slice is what the range
    /// holds afterwards, whatever `f` returns. The slice starts out
    /// as the range's current bytes (RAM-backed, in place under the
    /// device lock) or as zeros (spilled: a private buffer, filled with
    /// the lock released and flushed under it), so `f` is expected to
    /// write all of it.
    ///
    /// This charges no time or statistics. On its own it is *not*
    /// a modeled operation: it reconstitutes emulator state that
    /// conceptually survived a process failure (re-loading a durable
    /// store file into a fresh NVM device on restart — on real hardware
    /// those bytes never left the medium). A modeled write made through
    /// it is charged with [`MemoryDevice::write_synthetic`].
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
            g.spill.write(slot, offset, &buf)?;
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

    /// Destroy all contents (hard failure: the node's NVM is lost).
    pub fn destroy(&self) {
        let mut g = self.inner.lock();
        let g = &mut *g;
        for (_, region) in g.regions.drain() {
            if let Backing::Spilled { slot } = region.backing {
                g.spill.store().free(slot, region.len);
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

/// One hold of a [`MemoryDevice`]'s lock ([`MemoryDevice::lock`]):
/// a run of reads, lent ranges, read charges and writes, the lock taken
/// once for all of them. The device's own `read`, `write` and
/// `write_synthetic` are one-access runs of these methods, charged the
/// same: the same cost, the same [`DeviceStats`] fields.
pub struct DeviceGuard<'a> {
    g: MutexGuard<'a, Inner>,
    /// The calling thread's lend buffer ([`SPILL_VIEW`]), taken by the
    /// first lend that cannot lend in place and put back when the guard
    /// drops.
    buf: Vec<u8>,
}

/// Costs a device has already worked out, by kind (`true`: write),
/// length and concurrency: [`KNOWN`] of them, replaced in turn. Exact:
/// a cost depends on these and on the device's parameters and
/// bandwidth model alone, the parameters never change, and
/// [`MemoryDevice::set_model`] forgets every cost it knew.
///
/// Measured on the benchmark's workloads, one run each: of all cost
/// lookups, 88 % hit on `hpc_model48`, 96–97 % on `ranks512_bytes_*`
/// and `store_commit_restart`, and all but ≈1 in 10⁵ on `kv_ycsb_a/b`.
/// Four entries drop `hpc_model48` to 16 % and `kv_ycsb_a` to 82 %;
/// sixteen raise `hpc_model48` to 98 %. Without the memo,
/// `hpc_model48` and `kv_ycsb_b` `wall_s` are ≈9–10 % higher.
#[derive(Default)]
struct Known {
    costs: [((bool, usize, usize), SimDuration); KNOWN],
    filled: usize,
    next: usize,
}

const KNOWN: usize = 8;

impl Known {
    fn cost(
        &mut self,
        key: (bool, usize, usize),
        work: impl FnOnce() -> SimDuration,
    ) -> SimDuration {
        if let Some(&(_, cost)) = self.costs[..self.filled].iter().find(|e| e.0 == key) {
            return cost;
        }
        let cost = work();
        self.costs[self.next] = (key, cost);
        self.next = (self.next + 1) % KNOWN;
        self.filled = (self.filled + 1).min(KNOWN);
        cost
    }
}

impl DeviceGuard<'_> {
    /// [`MemoryDevice::write`] under this hold.
    pub fn write(
        &mut self,
        id: RegionId,
        offset: usize,
        data: &[u8],
        concurrency: usize,
    ) -> Result<SimDuration, DeviceError> {
        let g = &mut *self.g;
        let (cost, region) = g.write_common(id, offset, data.len(), concurrency)?;
        match &mut region.backing {
            Backing::Bytes(held) => {
                reach(held, region.len, offset, data.len()).copy_from_slice(data);
            }
            Backing::Spilled { slot } => {
                let slot = *slot;
                g.spill.write(slot, offset, data)?;
            }
            Backing::Synthetic => {}
        }
        Ok(cost)
    }

    /// [`MemoryDevice::write_synthetic`] under this hold.
    pub fn write_synthetic(
        &mut self,
        id: RegionId,
        offset: usize,
        len: usize,
        concurrency: usize,
    ) -> Result<SimDuration, DeviceError> {
        let (cost, _) = self.g.write_common(id, offset, len, concurrency)?;
        Ok(cost)
    }

    /// [`MemoryDevice::read`] under this hold.
    pub fn read(
        &mut self,
        id: RegionId,
        offset: usize,
        buf: &mut [u8],
        concurrency: usize,
    ) -> Result<SimDuration, DeviceError> {
        let g = &mut *self.g;
        let region = g.regions.get(&id).ok_or(DeviceError::NoSuchRegion(id.0))?;
        region.check_bounds(id, offset, buf.len())?;
        region.fill(id, offset, buf, &mut g.spill)?;
        Ok(g.charge_read(buf.len(), concurrency))
    }

    /// [`DeviceGuard::read`] without the copy: the range's bytes are
    /// lent, until the guard is used again, and charged as that read.
    /// A range a RAM-backed region holds is lent where it lies. A range
    /// past what it holds is lent from a buffer, zeros after the held
    /// bytes — a view, like a read, never grows a region — and so is a
    /// spilled range, read into it. The buffer is the calling
    /// thread's, reused.
    #[inline]
    pub fn read_view(
        &mut self,
        id: RegionId,
        offset: usize,
        len: usize,
        concurrency: usize,
    ) -> Result<(&[u8], SimDuration), DeviceError> {
        let g = &mut *self.g;
        let region = g.regions.get(&id).ok_or(DeviceError::NoSuchRegion(id.0))?;
        region.check_bounds(id, offset, len)?;
        let (params, model) = (&g.params, &g.model);
        let cost = (g.known).cost((false, len, concurrency), || {
            read_cost(params, model, len, concurrency)
        });
        if let Some(bytes) = region.held(offset, len) {
            g.stats.count_read(len, cost);
            return Ok((bytes, cost));
        }
        if let Backing::Synthetic = region.backing {
            return Err(DeviceError::SyntheticAccess(id.0));
        }
        let bytes = spare(&mut self.buf, len);
        region.fill(id, offset, bytes, &mut g.spill)?;
        g.stats.count_read(len, cost);
        Ok((bytes, cost))
    }

    /// The charge of [`DeviceGuard::read`] alone: the range is checked,
    /// and counted and costed as that read, and no byte is touched. A
    /// size-only region is charged like any other. A run of ranges
    /// charged one by one, each in its turn, is then lent at once by
    /// [`DeviceGuard::lend_views`].
    pub fn charge_read(
        &mut self,
        id: RegionId,
        offset: usize,
        len: usize,
        concurrency: usize,
    ) -> Result<SimDuration, DeviceError> {
        let region = (self.g.regions.get(&id)).ok_or(DeviceError::NoSuchRegion(id.0))?;
        region.check_bounds(id, offset, len)?;
        Ok(self.g.charge_read(len, concurrency))
    }

    /// Lend every `(region, offset, len)` of `ranges` at once, in the
    /// order given and charging nothing: the lend of
    /// [`DeviceGuard::read_view`] for ranges [`DeviceGuard::charge_read`]
    /// charged, or of bytes no modeled read sees. Each is lent as `read_view` lends it — where a
    /// RAM-backed region holds it, else from the calling thread's
    /// buffer, which the ranges lent from it share, one after another —
    /// and every range is checked before any byte is read.
    pub fn lend_views(
        &mut self,
        ranges: &[(RegionId, usize, usize)],
    ) -> Result<Vec<&[u8]>, DeviceError> {
        let g = &mut *self.g;
        let mut buffered = 0;
        for &(id, offset, len) in ranges {
            let region = g.regions.get(&id).ok_or(DeviceError::NoSuchRegion(id.0))?;
            region.check_bounds(id, offset, len)?;
            if region.held(offset, len).is_none() {
                if let Backing::Synthetic = region.backing {
                    return Err(DeviceError::SyntheticAccess(id.0));
                }
                buffered += len;
            }
        }
        let buf = spare(&mut self.buf, buffered);
        let mut at = 0;
        for &(id, offset, len) in ranges {
            let region = &g.regions[&id];
            if region.held(offset, len).is_none() {
                region.fill(id, offset, &mut buf[at..at + len], &mut g.spill)?;
                at += len;
            }
        }
        let (regions, buf) = (&g.regions, &*buf);
        let mut at = 0;
        let lent = |&(id, offset, len): &(RegionId, usize, usize)| {
            regions[&id].held(offset, len).unwrap_or_else(|| {
                at += len;
                &buf[at - len..at]
            })
        };
        Ok(ranges.iter().map(lent).collect())
    }
}

/// The first `len` bytes of a guard's view buffer, `buf`: the calling
/// thread's ([`SPILL_VIEW`]) once the guard has taken it, grown when
/// `len` is longer than any view before.
fn spare(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if buf.len() < len {
        if buf.is_empty() {
            *buf = SPILL_VIEW.take();
        }
        if buf.len() < len {
            *buf = materialize(&[], len);
        }
    }
    &mut buf[..len]
}

impl Drop for DeviceGuard<'_> {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            SPILL_VIEW.set(std::mem::take(&mut self.buf));
        }
    }
}

impl DeviceStats {
    /// Count one read of `len` bytes that cost `cost`.
    fn count_read(&mut self, len: usize, cost: SimDuration) {
        self.bytes_read += len as u64;
        self.read_ops += 1;
        self.busy += cost;
    }
}

/// What a read of `len` bytes as one of `concurrency` streams costs on
/// a device of `params` and `model`.
fn read_cost(
    params: &DeviceParams,
    model: &BandwidthModel,
    len: usize,
    concurrency: usize,
) -> SimDuration {
    // Reads contend like writes but against the read bandwidth.
    let write_bw = model.per_core(concurrency, len).max(1.0);
    let read_bw = write_bw * (params.read_bandwidth / params.write_bandwidth);
    let transfer = SimDuration::for_transfer(len as u64, read_bw.max(1.0));
    transfer + params.page_read_latency * pages_for(len.max(1)) as u64
}

/// What a write of `len` bytes as one of `concurrency` streams costs
/// on a device of `params` and `model`.
fn write_cost(
    params: &DeviceParams,
    model: &BandwidthModel,
    len: usize,
    concurrency: usize,
) -> SimDuration {
    // The model already encodes this device's peak bandwidth (or a
    // fixed per-core override); floor it to avoid degenerate zero.
    let stream_bw = model.per_core(concurrency, len).max(1.0);
    let transfer = SimDuration::for_transfer(len as u64, stream_bw);
    transfer + params.page_write_latency * pages_for(len.max(1)) as u64
}

impl Inner {
    /// Charge a write of `len` bytes at `offset` of region `id` — time
    /// and statistics — and return the region with the cost,
    /// for the caller that also has bytes to put there.
    fn write_common(
        &mut self,
        id: RegionId,
        offset: usize,
        len: usize,
        concurrency: usize,
    ) -> Result<(SimDuration, &mut Region), DeviceError> {
        let region = self
            .regions
            .get_mut(&id)
            .ok_or(DeviceError::NoSuchRegion(id.0))?;
        region.check_bounds(id, offset, len)?;
        let (params, model) = (&self.params, &self.model);
        let cost = (self.known).cost((true, len, concurrency), || {
            write_cost(params, model, len, concurrency)
        });
        self.stats.bytes_written += len as u64;
        self.stats.write_ops += 1;
        self.stats.busy += cost;
        Ok((cost, region))
    }

    fn charge_read(&mut self, len: usize, concurrency: usize) -> SimDuration {
        let (params, model) = (&self.params, &self.model);
        let cost = (self.known).cost((false, len, concurrency), || {
            read_cost(params, model, len, concurrency)
        });
        self.stats.count_read(len, cost);
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

/// `len` bytes that begin with `held` and are zeros after it — a
/// RAM-backed region grown by [`reach`], a spilled range's private
/// `view_mut` buffer, or a thread's lend buffer when a lend is longer
/// than it. The one zero-fill in this file, so that no allocation
/// fills a region nothing has reached yet (`tests/region_model.rs`).
fn materialize(held: &[u8], len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    bytes[..held.len()].copy_from_slice(held);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    /// Every byte of `r`, lent free of charge and copied out.
    fn contents(d: &MemoryDevice, r: RegionId) -> Vec<u8> {
        let len = d.region_len(r).unwrap();
        d.lock().lend_views(&[(r, 0, len)]).unwrap()[0].to_vec()
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
            d.view_mut(r, 0, 16, |b| b.fill(1)),
            Err(DeviceError::SyntheticAccess(_))
        ));
        let mut g = d.lock();
        assert!(matches!(
            g.read_view(r, 0, 16, 1),
            Err(DeviceError::SyntheticAccess(_))
        ));
        assert!(matches!(
            g.lend_views(&[(r, 0, 16)]),
            Err(DeviceError::SyntheticAccess(_))
        ));
        // but cost-only reads work
        assert!(g.charge_read(r, 0, MB, 1).is_ok());
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

        // Identical virtual-time charges and stats for the same
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
        // A guard on another device, held under this one's on the same
        // thread, lends from a buffer of its own, and the range lent
        // under this one is intact after it.
        let other = MemoryDevice::pcm(MB);
        other.attach_spill(Box::new(MemSpill::new()));
        let o = other.alloc(20).unwrap();
        other.write(o, 0, &[4; 20], 1).unwrap();
        let mut g = d.lock();
        let outer = g.lend_views(&[(long, 0, 16)]).unwrap()[0];
        let inner = other.lock().lend_views(&[(o, 0, 20)]).unwrap()[0].to_vec();
        assert_eq!((inner, outer), (vec![4u8; 20], &[7u8; 16][..]));
        drop(g);
        assert_eq!(io(), (8192 + 100 + 16, 8192 + 50));
        d.view_mut(short, 0, 4, |b| b.fill(3)).unwrap();
        assert_eq!(io(), (8192 + 100 + 16, 8192 + 50 + 4));
        // No spill store, no spill I/O.
        let ram = MemoryDevice::pcm(MB);
        let r = ram.alloc(2 * PAGE_SIZE).unwrap();
        ram.write(r, 10, &[5; 20], 1).unwrap();
        assert_eq!(
            contents(&ram, r)[8..32],
            [&[0; 2][..], &[5; 20], &[0; 2]].concat()
        );
        assert_eq!((ram.spill_read_bytes(), ram.spill_written_bytes()), (0, 0));
    }

    #[test]
    fn several_ranges_are_lent_at_once_in_place_or_from_the_spill() {
        use crate::spill::MemSpill;
        // Twin devices: one reads each range in turn, the other charges
        // them one by one and is lent them all at once.
        let twin = || {
            let d = MemoryDevice::dram(MB);
            let ram = d.alloc(2 * PAGE_SIZE).unwrap();
            d.write(ram, 0, &[1; 16], 1).unwrap(); // holds its first page
            d.attach_spill(Box::new(MemSpill::new()));
            let (s1, s2) = (d.alloc(100).unwrap(), d.alloc(100).unwrap());
            d.write(s1, 0, &[2; 100], 1).unwrap();
            d.write(s2, 0, &[3; 100], 1).unwrap();
            (d, [ram, s1, s2])
        };
        let (read, [ram, s1, s2]) = twin();
        let (viewed, _) = twin();
        let ranges = [
            (s2, 90, 10),
            (ram, 8, 16),
            (s1, 0, 4),
            (ram, PAGE_SIZE + 5, 20),
            (ram, PAGE_SIZE + 5, 0),
            (s2, 0, 2),
        ];
        let mut costs = Vec::new();
        let want: Vec<Vec<u8>> = (ranges.iter())
            .map(|&(id, offset, len)| {
                let mut buf = vec![9u8; len];
                costs.push(read.read(id, offset, &mut buf, 1).unwrap());
                buf
            })
            .collect();
        let mut g = viewed.lock();
        let charged: Vec<SimDuration> = (ranges.iter())
            .map(|&(id, offset, len)| g.charge_read(id, offset, len, 1).unwrap())
            .collect();
        assert_eq!(charged, costs);
        let lent = g.lend_views(&ranges).unwrap();
        assert_eq!(lent, want);
        // A range the region holds is lent where it lies.
        assert!(std::ptr::eq(
            lent[1],
            g.lend_views(&[(ram, 8, 16)]).unwrap()[0]
        ));
        drop(g);
        assert_eq!(viewed.stats(), read.stats());
        assert_eq!(viewed.spill_read_bytes(), read.spill_read_bytes());
        assert_eq!(viewed.resident_bytes(), PAGE_SIZE as u64, "no view grew");

        // Every range is checked before a byte is read, and a failed
        // charge counts nothing.
        let (stats, spill_read) = (viewed.stats(), viewed.spill_read_bytes());
        let mut g = viewed.lock();
        let past_end = g.lend_views(&[(s1, 0, 4), (s2, 99, 2)]);
        assert!(matches!(past_end, Err(DeviceError::OutOfBounds { .. })));
        let missing = g.lend_views(&[(s1, 0, 4), (RegionId(99), 0, 1)]);
        assert!(matches!(missing, Err(DeviceError::NoSuchRegion(99))));
        assert!(g.charge_read(s2, 99, 2, 1).is_err());
        assert!(g.lend_views(&[]).unwrap().is_empty());
        drop(g);
        assert_eq!(
            (viewed.stats(), viewed.spill_read_bytes()),
            (stats, spill_read)
        );
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
        let seen = d
            .view_mut(r, 10, 20, |b| {
                let seen = b.to_vec();
                b.fill(9);
                seen
            })
            .unwrap();
        assert_eq!(seen, vec![7u8; 20], "a RAM-backed range is lent as it is");
        let mut g = d.lock();
        let lent = g.lend_views(&[(r, 8, 4), (r, 28, 4)]).unwrap();
        assert_eq!(lent, [[7, 7, 9, 9], [9, 9, 7, 7]]);
        // A range that does not fit is a typed error, not a panic.
        assert!(matches!(
            g.lend_views(&[(r, 90, 20)]),
            Err(DeviceError::OutOfBounds { .. })
        ));
        assert!(matches!(
            g.lend_views(&[(RegionId(99), 0, 1)]),
            Err(DeviceError::NoSuchRegion(99))
        ));
        drop(g);
        assert_eq!(d.stats(), charged);
        assert!(matches!(
            d.view_mut(r, usize::MAX, 2, |b| b.fill(0)),
            Err(DeviceError::OutOfBounds { .. })
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
        let mut g = dram.lock();
        nvm.write(dst, 0, g.lend_views(&[(src, 0, 64)]).unwrap()[0], 1)
            .unwrap();
        drop(g);
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
    fn a_charged_view_is_a_read_that_lends_and_grows_nothing() {
        use crate::spill::MemSpill;
        // Triplet devices: one reads each range, one views it and one
        // only charges its read, each under one guard; bytes, costs,
        // statistics and what the regions hold must agree, on a
        // RAM-backed and on a spilled region. A size-only range is
        // charged as the read of a materialized one of its length.
        let twin = || {
            let d = MemoryDevice::dram(MB);
            let ram = d.alloc(3 * PAGE_SIZE).unwrap();
            d.write(ram, 10, &[7; 20], 1).unwrap(); // holds its first page
            d.attach_spill(Box::new(MemSpill::new()));
            let spilled = d.alloc(100).unwrap();
            d.write(spilled, 0, &[3; 50], 1).unwrap();
            (d, ram, spilled)
        };
        let (read, ram, spilled) = twin();
        let (viewed, ..) = twin();
        let (charged, ..) = twin();
        let synthetic = charged.alloc_synthetic(100).unwrap();
        let ranges = [
            (ram, 0, 40),
            (ram, PAGE_SIZE - 8, 16),
            (ram, 2 * PAGE_SIZE, 100),
            (spilled, 40, 60),
            (ram, 12, 0),
        ];
        let (mut g, mut c) = (viewed.lock(), charged.lock());
        for (id, offset, len) in ranges {
            let mut buf = vec![9u8; len];
            let cost = read.read(id, offset, &mut buf, 1).unwrap();
            let (bytes, view_cost) = g.read_view(id, offset, len, 1).unwrap();
            assert_eq!((bytes, view_cost), (&buf[..], cost), "{offset}+{len}");
            assert_eq!(c.charge_read(id, offset, len, 1).unwrap(), cost);
        }
        let cost = read.read(spilled, 40, &mut [0; 60], 1).unwrap();
        assert_eq!(c.charge_read(synthetic, 40, 60, 1).unwrap(), cost);
        assert!(matches!(
            c.charge_read(synthetic, 41, 60, 1),
            Err(DeviceError::OutOfBounds { .. })
        ));
        drop(c);
        assert_eq!(charged.stats(), read.stats());
        assert_eq!(charged.resident_bytes(), PAGE_SIZE as u64);
        assert_eq!(charged.spill_read_bytes(), 0, "a charge reads nothing");
        assert!(matches!(
            g.read_view(ram, 3 * PAGE_SIZE - 1, 2, 1),
            Err(DeviceError::OutOfBounds { .. })
        ));
        g.read_view(spilled, 40, 60, 1).unwrap();
        drop(g);
        assert_eq!(viewed.stats(), read.stats());
        assert_eq!(viewed.resident_bytes(), PAGE_SIZE as u64, "no view grew");
        assert_eq!(viewed.resident_bytes(), read.resident_bytes());
        assert_eq!(viewed.spill_read_bytes(), read.spill_read_bytes());
    }

    #[test]
    fn a_remembered_cost_goes_with_the_model() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc_synthetic(MB).unwrap();
        let before = d.write_synthetic(r, 0, 4096, 1).unwrap();
        let model = BandwidthModel::FixedPerCore(1.0e9);
        d.set_model(model);
        let fresh = MemoryDevice::pcm(MB);
        fresh.set_model(model);
        let fr = fresh.alloc_synthetic(MB).unwrap();
        let after = d.write_synthetic(r, 0, 4096, 1).unwrap();
        assert_ne!(after, before);
        assert_eq!(after, fresh.write_synthetic(fr, 0, 4096, 1).unwrap());
        let reads = [
            d.lock().charge_read(r, 0, 100, 2),
            fresh.lock().charge_read(fr, 0, 100, 2),
        ];
        assert_eq!(reads[0].as_ref().unwrap(), reads[1].as_ref().unwrap());
    }

    #[test]
    fn zero_length_ops_are_ok() {
        let d = MemoryDevice::pcm(MB);
        let r = d.alloc(16).unwrap();
        assert!(d.write(r, 0, &[], 1).is_ok());
        assert!(d.write(r, 16, &[], 1).is_ok());
        let mut buf = [0u8; 0];
        assert!(d.read(r, 16, &mut buf, 1).is_ok());
        assert_eq!(d.lock().read_view(r, 16, 0, 1).unwrap().0, []);
        assert!(d.lock().charge_read(r, 16, 0, 1).is_ok());
        assert_eq!(d.view_mut(r, 0, 0, |b| b.len()).unwrap(), 0);
    }
}
