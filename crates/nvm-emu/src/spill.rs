//! Spill backing for materialized regions.
//!
//! A [`MemoryDevice`] normally keeps materialized region contents in
//! process RAM (`Vec<u8>` per region). That is fine at paper scale
//! (8 nodes) but sinks thousand-rank byte-materialized cluster runs:
//! every rank's two NVM version slots, its DRAM working copy, *and*
//! its buddy's remote checkpoint images all end up resident at once.
//!
//! [`SpillStore`] is the narrow interface a device uses to push those
//! bytes out of RAM instead: slot-granular alloc/free plus random
//! access reads and writes. Attaching one (see
//! `MemoryDevice::attach_spill`) changes **only where bytes live** —
//! every virtual-time charge, wear increment, statistic, and metric is
//! computed by the same code path as before, so simulation results
//! stay bit-identical with and without a spill store.
//!
//! Both backings follow one rule: **bytes never written read as
//! zero**. A RAM-backed region holds only what an access has reached
//! and answers the rest with zeros (`crate::device` module docs); a
//! slot answers the extents never written to it with zeros —
//! `nvm_store::FileSpill` through a short read past the end of its
//! file (and by re-zeroing an extent it recycles), [`MemSpill`] by
//! zero-filling the slot up front. Either way a read *writes* those
//! zeros: a guard's lends (`DeviceGuard::read_view`,
//! `DeviceGuard::lend_views`) lend a spilled range from a buffer the
//! calling thread reuses, read over whatever the last lend left there,
//! so a store that skipped the zeros would lend stale bytes.
//! The device counts every byte it reads from and writes to its store
//! (`MemoryDevice::spill_read_bytes` / `spill_written_bytes`):
//! host-side I/O the model never charges.
//!
//! The production implementation (`nvm_store::FileSpill`) keeps slots
//! in an extent-allocated file through the nvm-store media layer; the
//! [`MemSpill`] here is the in-RAM reference used by unit tests.
//!
//! [`MemoryDevice`]: crate::device::MemoryDevice

use std::io;

/// Slot-granular byte store a [`MemoryDevice`] can spill materialized
/// regions to. One slot backs one region for the region's lifetime.
///
/// Contract: [`SpillStore::alloc`] returns a slot that reads back as
/// `len` zero bytes; reads and writes are bounds-checked by the caller
/// (the device validates against region length before calling down);
/// and a successful [`SpillStore::read`] writes **every** byte of its
/// `buf`, zeros included — the device reads into a buffer it reuses
/// across lends, so a byte left untouched would be another range's.
///
/// [`MemoryDevice`]: crate::device::MemoryDevice
pub trait SpillStore: Send {
    /// Allocate a zero-filled slot of `len` bytes and return its id.
    fn alloc(&mut self, len: usize) -> io::Result<u64>;

    /// Write `data` into `slot` at `offset`.
    fn write(&mut self, slot: u64, offset: usize, data: &[u8]) -> io::Result<()>;

    /// Fill all of `buf` from `slot` at `offset`: an extent never
    /// written reads as zeros, which `read` must write into `buf` —
    /// `buf` holds stale bytes, not zeros (trait docs).
    fn read(&mut self, slot: u64, offset: usize, buf: &mut [u8]) -> io::Result<()>;

    /// Release a slot of `len` bytes (the caller tracks slot lengths).
    fn free(&mut self, slot: u64, len: usize);

    /// Bytes currently live in slots.
    fn live_bytes(&self) -> u64;

    /// High-water mark of [`SpillStore::live_bytes`] over the store's
    /// lifetime — what the spilled data would have cost in RAM at its
    /// peak had it not been spilled.
    fn peak_bytes(&self) -> u64;
}

/// In-RAM [`SpillStore`]: one `Vec<u8>` per slot. Defeats the purpose
/// of spilling (the bytes are still resident) but exercises the exact
/// same device code path as a file-backed store, which is what the
/// emulator's own tests need.
#[derive(Debug, Default)]
pub struct MemSpill {
    slots: Vec<Option<Vec<u8>>>,
    live: u64,
    peak: u64,
}

impl MemSpill {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpillStore for MemSpill {
    fn alloc(&mut self, len: usize) -> io::Result<u64> {
        self.live += len as u64;
        self.peak = self.peak.max(self.live);
        self.slots.push(Some(vec![0u8; len]));
        Ok(self.slots.len() as u64 - 1)
    }

    fn write(&mut self, slot: u64, offset: usize, data: &[u8]) -> io::Result<()> {
        let bytes = self.slots[slot as usize]
            .as_mut()
            .ok_or_else(|| io::Error::other("slot freed"))?;
        bytes[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read(&mut self, slot: u64, offset: usize, buf: &mut [u8]) -> io::Result<()> {
        let bytes = self.slots[slot as usize]
            .as_ref()
            .ok_or_else(|| io::Error::other("slot freed"))?;
        buf.copy_from_slice(&bytes[offset..offset + buf.len()]);
        Ok(())
    }

    fn free(&mut self, slot: u64, len: usize) {
        if self.slots[slot as usize].take().is_some() {
            self.live -= len as u64;
        }
    }

    fn live_bytes(&self) -> u64 {
        self.live
    }

    fn peak_bytes(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_spill_round_trips_and_tracks_bytes() {
        let mut s = MemSpill::new();
        let a = s.alloc(8).unwrap();
        let b = s.alloc(4).unwrap();
        assert_eq!(s.live_bytes(), 12);
        let mut buf = [0xFFu8; 8];
        s.read(a, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8], "fresh slots read as zeros");
        s.write(a, 2, &[1, 2, 3]).unwrap();
        s.read(a, 0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 1, 2, 3, 0, 0, 0]);
        s.free(b, 4);
        assert_eq!(s.live_bytes(), 8);
        assert_eq!(s.peak_bytes(), 12, "peak survives frees");
    }
}
