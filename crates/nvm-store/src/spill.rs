//! File-backed spill store for emulated memory devices.
//!
//! [`FileSpill`] implements [`nvm_emu::SpillStore`] over the same
//! [`Media`] layer the crash-consistent container uses, so a
//! byte-materialized cluster run can push every checkpoint image —
//! a rank's two NVM version slots and the buddy-hosted remote
//! images — out of process RAM and onto one spill file per node's NVM
//! device (DRAM working copies stay in RAM). Spilling changes *where
//! bytes live*, never what
//! the simulation computes: the device charges identical virtual
//! time, stats, and metrics either way (see
//! [`nvm_emu::spill`]).
//!
//! Unlike the container, a spill file needs no crash consistency (it
//! models *volatile-until-shipped* emulator state, and is recreated on
//! every run), so the layout is the simplest thing that supports
//! random access: slots are byte extents handed out first-fit from a
//! free list, with the slot id being the extent's file offset. Frees
//! recycle extents of the same size exactly — the device's allocation
//! pattern (fixed-size version slots, re-put chunk images) makes
//! first-fit reuse effectively fragmentation-free — and a freed extent
//! merges with its free neighbours, so what a smaller allocation split
//! can serve the original size again.

use crate::media::{FileMedia, Media};
use std::io;
use std::path::Path;

/// Extent-allocated spill file. See the module docs; construct with
/// [`FileSpill::create`] and hand it to
/// [`nvm_emu::MemoryDevice::attach_spill`].
pub struct FileSpill {
    media: FileMedia,
    /// Free extents as `(offset, len)`, most recently freed last.
    free: Vec<(u64, u64)>,
    /// File length high-water mark (next fresh extent starts here).
    end: u64,
    live: u64,
    peak: u64,
}

impl FileSpill {
    /// Create (truncating any previous content logically — stale
    /// extents are simply never handed out again) a spill file at
    /// `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let media = FileMedia::open(path).map_err(io_err)?;
        Ok(FileSpill {
            media,
            free: Vec::new(),
            end: 0,
            live: 0,
            peak: 0,
        })
    }
}

/// What a recycled extent is re-zeroed from, one piece at a time.
static ZEROS: [u8; 64 << 10] = [0; 64 << 10];

fn io_err(e: crate::PersistError) -> io::Error {
    io::Error::other(e.to_string())
}

impl nvm_emu::SpillStore for FileSpill {
    fn alloc(&mut self, len: usize) -> io::Result<u64> {
        let want = len as u64;
        // First-fit over the free list; split when the extent is
        // larger. Reused extents must be re-zeroed (a fresh region
        // reads back zeros); fresh extents past EOF read back zeros
        // already via the short-read path.
        let offset = match self.free.iter().position(|&(_, flen)| flen >= want) {
            Some(i) => {
                let (off, flen) = self.free[i];
                if flen == want {
                    self.free.swap_remove(i);
                } else {
                    self.free[i] = (off + want, flen - want);
                }
                for at in (off..off + want).step_by(ZEROS.len()) {
                    let piece = (off + want - at).min(ZEROS.len() as u64) as usize;
                    self.media
                        .write_at(at, &[&ZEROS[..piece]])
                        .map_err(io_err)?;
                }
                off
            }
            None => {
                let off = self.end;
                self.end += want;
                off
            }
        };
        self.live += want;
        self.peak = self.peak.max(self.live);
        Ok(offset)
    }

    fn write(&mut self, slot: u64, offset: usize, data: &[u8]) -> io::Result<()> {
        self.media
            .write_at(slot + offset as u64, &[data])
            .map_err(io_err)
    }

    fn read(&mut self, slot: u64, offset: usize, buf: &mut [u8]) -> io::Result<()> {
        let got = self
            .media
            .read_at(slot + offset as u64, buf)
            .map_err(io_err)?;
        // Never-written tail of a fresh extent: logically zero.
        buf[got..].fill(0);
        Ok(())
    }

    fn free(&mut self, slot: u64, len: usize) {
        self.live -= len as u64;
        // Merge with the free neighbour on either side, so an extent
        // split by smaller allocations can serve its original size
        // again. No two free extents are adjacent: one pass finds both.
        let (mut start, mut end) = (slot, slot + len as u64);
        self.free.retain(|&(off, flen)| {
            if off + flen == start {
                start = off;
                false
            } else if off == end {
                end = off + flen;
                false
            } else {
                true
            }
        });
        self.free.push((start, end - start));
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
    use nvm_emu::{MemoryDevice, SpillStore};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    #[test]
    fn file_spill_round_trips_and_recycles_extents() {
        let td = nvm_emu::TempDir::new("nvm_store_spill_test").unwrap();
        let mut s = FileSpill::create(&td.join("dev.spill")).unwrap();
        let a = s.alloc(64).unwrap();
        let b = s.alloc(32).unwrap();
        assert_eq!(s.live_bytes(), 96);
        let mut buf = vec![0xAAu8; 64];
        s.read(a, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 64], "fresh extents read as zeros");
        s.write(a, 8, &[7; 16]).unwrap();
        s.read(a, 0, &mut buf).unwrap();
        assert_eq!(&buf[8..24], &[7u8; 16]);
        assert_eq!(&buf[..8], &[0u8; 8]);

        // Free `a`, allocate the same size: the extent is reused and
        // reads back zeros again.
        s.free(a, 64);
        let c = s.alloc(64).unwrap();
        assert_eq!(c, a, "same-size extent recycled first-fit");
        s.read(c, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 64], "recycled extents are re-zeroed");
        assert_eq!(s.live_bytes(), 96);
        assert_eq!(s.peak_bytes(), 96);
        // b's content was untouched by the recycling.
        let mut bb = vec![0u8; 32];
        s.read(b, 0, &mut bb).unwrap();
        assert_eq!(bb, vec![0u8; 32]);
        assert_eq!(s.end, 96, "no growth after reuse");
    }

    #[test]
    fn split_extents_serve_smaller_allocations() {
        let td = nvm_emu::TempDir::new("nvm_store_spill_split").unwrap();
        let mut s = FileSpill::create(&td.join("dev.spill")).unwrap();
        let a = s.alloc(100).unwrap();
        s.free(a, 100);
        let b = s.alloc(40).unwrap();
        let c = s.alloc(60).unwrap();
        assert_eq!(b, a);
        assert_eq!(c, a + 40);
        assert_eq!(s.end, 100);
        // Freed, the two halves are one extent again: the original
        // size fits without growing the file.
        s.free(b, 40);
        s.free(c, 60);
        assert_eq!(s.alloc(100).unwrap(), a);
        assert_eq!(s.end, 100);
        assert_eq!((s.live_bytes(), s.peak_bytes()), (100, 100));
    }

    /// [`FileSpill`] that counts the reads and writes it is asked for.
    struct CountingSpill {
        inner: FileSpill,
        reads: Arc<AtomicU64>,
        writes: Arc<AtomicU64>,
    }

    impl SpillStore for CountingSpill {
        fn alloc(&mut self, len: usize) -> io::Result<u64> {
            self.inner.alloc(len)
        }
        fn write(&mut self, slot: u64, offset: usize, data: &[u8]) -> io::Result<()> {
            self.writes.fetch_add(1, Relaxed);
            self.inner.write(slot, offset, data)
        }
        fn read(&mut self, slot: u64, offset: usize, buf: &mut [u8]) -> io::Result<()> {
            self.reads.fetch_add(1, Relaxed);
            self.inner.read(slot, offset, buf)
        }
        fn free(&mut self, slot: u64, len: usize) {
            self.inner.free(slot, len)
        }
        fn live_bytes(&self) -> u64 {
            self.inner.live_bytes()
        }
        fn peak_bytes(&self) -> u64 {
            self.inner.peak_bytes()
        }
    }

    #[test]
    fn device_attached_file_spill_matches_ram_backing() {
        let td = nvm_emu::TempDir::new("nvm_store_spill_dev").unwrap();
        let (reads, writes) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let io = || (reads.load(Relaxed), writes.load(Relaxed));
        let plain = MemoryDevice::pcm(1 << 20);
        let spilly = MemoryDevice::pcm(1 << 20);
        spilly.attach_spill(Box::new(CountingSpill {
            inner: FileSpill::create(&td.join("pcm.spill")).unwrap(),
            reads: reads.clone(),
            writes: writes.clone(),
        }));
        let rp = plain.alloc(8192).unwrap();
        let rs = spilly.alloc(8192).unwrap();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        let cp = plain.write(rp, 0, &data, 3).unwrap();
        let cs = spilly.write(rs, 0, &data, 3).unwrap();
        assert_eq!(cp, cs, "spilling must not change modeled cost");
        let charged = plain.stats();
        assert_eq!(spilly.stats(), charged);

        // A lend and a write view, whole region and sub-range: the same
        // bytes seen, the same bytes left behind, nothing charged on
        // either device, and one spill read per lend / one spill write
        // per write view — what the copy-out and copy-in calls they
        // replaced made.
        let lent = |d: &MemoryDevice, r, offset, len| {
            d.lock().lend_views(&[(r, offset, len)]).unwrap()[0].to_vec()
        };
        let fresh: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
        for (offset, len) in [(0, 8192), (100, 3000)] {
            let before = io();
            let charged = (plain.stats(), spilly.stats());
            assert_eq!(
                lent(&plain, rp, offset, len),
                lent(&spilly, rs, offset, len)
            );
            assert_eq!(io(), (before.0 + 1, before.1), "lend of {len}");

            let fill = |b: &mut [u8]| b.copy_from_slice(&fresh[offset..offset + len]);
            plain.view_mut(rp, offset, len, fill).unwrap();
            spilly.view_mut(rs, offset, len, fill).unwrap();
            assert_eq!(io(), (before.0 + 1, before.1 + 1), "write view of {len}");
            assert_eq!(lent(&plain, rp, 0, 8192), lent(&spilly, rs, 0, 8192));
            assert_eq!((plain.stats(), spilly.stats()), charged);
            plain.write(rp, 0, &data, 1).unwrap();
            spilly.write(rs, 0, &data, 1).unwrap();
        }
        assert_eq!(plain.stats(), spilly.stats());
        assert_eq!(spilly.resident_bytes(), 0);
        assert_eq!(spilly.spill_live_bytes(), 8192);
    }
}
