//! ARMCI-style remote memory for checkpoints.
//!
//! The paper extends the aggregate-remote-memory-copy (ARMCI) library
//! so a node can allocate, access and copy NVM buffers on *remote*
//! nodes over RDMA. [`RemoteStore`] is the receiving side: a buddy
//! node's NVM holding checkpoint copies for every (rank, chunk) pair,
//! with the same two-version commit discipline as local checkpoints —
//! a crash mid-remote-checkpoint must leave the previous remote
//! version intact, whatever length the new one has.
//!
//! An image's checksum is the sender's: [`RemoteStore::put_with_checksum`]
//! records the CRC the sender committed the chunk under, so
//! [`RemoteStore::fetch`] checks the bytes it hands out against the
//! committed slot they were read from — damage anywhere between that
//! slot and the reader is caught, the wire and this store's medium
//! included. [`RemoteStore::put`] hashes what arrived instead, for a
//! sender that has no checksum.

use nvm_chkpt::checksum::crc64;
use nvm_emu::{DeviceError, MemoryDevice, RegionId, SimDuration};
use nvm_paging::ChunkId;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// Key of a remote entry: source rank + chunk.
pub type RemoteKey = (u64, ChunkId);

/// One version slot of an entry: a region of `capacity` bytes holding
/// a payload of `len`, under `checksum` (`None`: size-only).
#[derive(Debug)]
struct RemoteSlot {
    region: RegionId,
    capacity: usize,
    len: usize,
    checksum: Option<u64>,
}

#[derive(Debug, Default)]
struct RemoteEntry {
    /// Per-slot payloads: staging a new version must not clobber the
    /// committed version's bytes, length or checksum.
    slots: [Option<RemoteSlot>; 2],
    committed: Option<u8>,
    /// Slot holding data newer than `committed`, not yet committed.
    staged: Option<u8>,
    epoch: u64,
    /// Variable name of the source chunk, if the sender recorded it —
    /// needed when a failed rank is rebuilt from this store alone.
    name: Option<String>,
}

/// Errors from the remote store.
#[non_exhaustive]
#[derive(Debug)]
pub enum RemoteError {
    /// Device-level failure on the remote NVM.
    Device(DeviceError),
    /// No entry for this (rank, chunk).
    NoSuchEntry(RemoteKey),
    /// The entry exists but nothing was ever committed.
    NothingCommitted(RemoteKey),
    /// Fetched bytes do not match the stored checksum.
    ChecksumMismatch(RemoteKey),
    /// A recovery transfer was lost on the wire (injected link fault).
    LinkFault {
        /// Entry whose transfer was lost.
        key: RemoteKey,
        /// 1-based attempt number that was lost.
        attempt: u32,
    },
    /// Every retry of a recovery transfer was lost.
    RetriesExhausted {
        /// Entry whose transfers kept failing.
        key: RemoteKey,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

nvm_emu::error_enum! {
    RemoteError, f {
        wrap Device(DeviceError) => "remote device",
        leaf RemoteError::NoSuchEntry(k) => write!(f, "no remote entry for {k:?}"),
        leaf RemoteError::NothingCommitted(k) => write!(f, "nothing committed for {k:?}"),
        leaf RemoteError::ChecksumMismatch(k) => write!(f, "remote checksum mismatch for {k:?}"),
        leaf RemoteError::LinkFault { key, attempt } => {
            write!(f, "recovery transfer for {key:?} lost on attempt {attempt}")
        },
        leaf RemoteError::RetriesExhausted { key, attempts } => {
            write!(f, "recovery of {key:?} gave up after {attempts} lost transfers")
        },
    }
}

/// Every key of `rank`.
fn of_rank(rank: u64) -> RangeInclusive<RemoteKey> {
    (rank, ChunkId(0))..=(rank, ChunkId(u64::MAX))
}

/// A buddy node's NVM-backed checkpoint store.
pub struct RemoteStore {
    nvm: MemoryDevice,
    /// Ordered by rank, then chunk: a rank's entries are one range.
    entries: BTreeMap<RemoteKey, RemoteEntry>,
    materialized: bool,
}

impl RemoteStore {
    /// A store on the given (remote) NVM device. `materialized`
    /// controls whether real bytes are kept.
    pub fn new(nvm: &MemoryDevice, materialized: bool) -> Self {
        RemoteStore {
            nvm: nvm.clone(),
            entries: BTreeMap::new(),
            materialized,
        }
    }

    /// Stage a `len`-byte payload of `key` under `checksum` in the slot
    /// its committed version does not occupy — reallocated first when
    /// that slot is missing or too short — with `write` putting it
    /// there. Returns the write's cost.
    fn stage(
        &mut self,
        key: RemoteKey,
        len: usize,
        checksum: Option<u64>,
        write: impl FnOnce(&MemoryDevice, RegionId) -> Result<SimDuration, DeviceError>,
    ) -> Result<SimDuration, RemoteError> {
        let entry = self.entries.entry(key).or_default();
        let slot = match entry.committed {
            Some(0) => 1,
            _ => 0,
        };
        let held = &mut entry.slots[slot as usize];
        let (region, capacity) = match held.take() {
            Some(s) if s.capacity >= len => (s.region, s.capacity),
            old => {
                if let Some(old) = old {
                    self.nvm.free(old.region)?;
                }
                let region = if self.materialized {
                    self.nvm.alloc(len)?
                } else {
                    self.nvm.alloc_synthetic(len)?
                };
                (region, len)
            }
        };
        *held = Some(RemoteSlot {
            region,
            capacity,
            len,
            checksum,
        });
        let cost = write(&self.nvm, region)?;
        entry.staged = Some(slot);
        Ok(cost)
    }

    /// RDMA put of real bytes into the in-progress slot, checksummed
    /// here as they arrived — for a sender that has no checksum of
    /// them ([`RemoteStore::put_with_checksum`] otherwise). Returns the
    /// remote NVM write cost (the wire cost is the caller's [`Link`]
    /// business).
    ///
    /// [`Link`]: crate::link::Link
    pub fn put(
        &mut self,
        rank: u64,
        chunk: ChunkId,
        data: &[u8],
    ) -> Result<SimDuration, RemoteError> {
        self.put_with_checksum(rank, chunk, data, crc64(data))
    }

    /// [`RemoteStore::put`] of bytes the sender committed under
    /// `checksum`, which [`RemoteStore::fetch`] then verifies them
    /// against (module docs): nothing is hashed here.
    pub fn put_with_checksum(
        &mut self,
        rank: u64,
        chunk: ChunkId,
        data: &[u8],
        checksum: u64,
    ) -> Result<SimDuration, RemoteError> {
        self.stage((rank, chunk), data.len(), Some(checksum), |nvm, region| {
            nvm.write(region, 0, data, 1)
        })
    }

    /// RDMA put, size-only.
    pub fn put_synthetic(
        &mut self,
        rank: u64,
        chunk: ChunkId,
        len: usize,
    ) -> Result<SimDuration, RemoteError> {
        self.stage((rank, chunk), len, None, |nvm, region| {
            nvm.write_synthetic(region, 0, len, 1)
        })
    }

    /// Commit every staged entry of `rank` at `epoch` — the remote
    /// checkpoint completion barrier.
    pub fn commit_rank(&mut self, rank: u64, epoch: u64) -> usize {
        let mut committed = 0;
        for (_, entry) in self.entries.range_mut(of_rank(rank)) {
            if let Some(slot) = entry.staged.take() {
                entry.committed = Some(slot);
                entry.epoch = epoch;
                committed += 1;
            }
        }
        committed
    }

    /// The committed slot of `key`.
    fn committed(&self, key: RemoteKey) -> Result<&RemoteSlot, RemoteError> {
        let entry = (self.entries.get(&key)).ok_or(RemoteError::NoSuchEntry(key))?;
        let slot = entry.committed.ok_or(RemoteError::NothingCommitted(key))?;
        Ok((entry.slots[slot as usize].as_ref()).expect("a committed slot was staged"))
    }

    /// Fetch the committed bytes for a chunk (remote recovery path), at
    /// the length they were put with. Verifies the checksum recorded at
    /// put time.
    pub fn fetch(&self, rank: u64, chunk: ChunkId) -> Result<(Vec<u8>, SimDuration), RemoteError> {
        let key = (rank, chunk);
        let committed = self.committed(key)?;
        let mut buf = vec![0u8; committed.len];
        let cost = self.nvm.read(committed.region, 0, &mut buf, 1)?;
        if let Some(expected) = committed.checksum {
            if crc64(&buf) != expected {
                return Err(RemoteError::ChecksumMismatch(key));
            }
        }
        Ok((buf, cost))
    }

    /// Committed epoch of a chunk, if any.
    pub fn committed_epoch(&self, rank: u64, chunk: ChunkId) -> Option<u64> {
        self.entries
            .get(&(rank, chunk))
            .and_then(|e| e.committed.map(|_| e.epoch))
    }

    /// Record the variable name of an entry (used when a failed rank
    /// is rebuilt from this store: the name is part of the chunk
    /// table a fresh engine needs).
    pub fn set_chunk_name(
        &mut self,
        rank: u64,
        chunk: ChunkId,
        name: &str,
    ) -> Result<(), RemoteError> {
        let key = (rank, chunk);
        let entry = self
            .entries
            .get_mut(&key)
            .ok_or(RemoteError::NoSuchEntry(key))?;
        entry.name = Some(name.to_string());
        Ok(())
    }

    /// Recorded variable name of an entry, if the sender set one.
    pub fn chunk_name(&self, rank: u64, chunk: ChunkId) -> Option<&str> {
        self.entries
            .get(&(rank, chunk))
            .and_then(|e| e.name.as_deref())
    }

    /// Chunk ids of `rank` holding a committed version, sorted — the
    /// enumeration a recovery walks to rebuild the rank.
    pub fn committed_chunks(&self, rank: u64) -> Vec<ChunkId> {
        (self.entries.range(of_rank(rank)))
            .filter(|(_, e)| e.committed.is_some())
            .map(|((_, c), _)| *c)
            .collect()
    }

    /// Overwrite a committed slot's bytes *without* updating its
    /// checksum — silent remote corruption, for fault-injection tests
    /// of the checksum-verified fetch.
    pub fn corrupt_committed(&mut self, rank: u64, chunk: ChunkId) -> Result<(), RemoteError> {
        let committed = self.committed((rank, chunk))?;
        let garbage = vec![0x5Au8; committed.len.min(64)];
        self.nvm.write(committed.region, 0, &garbage, 1)?;
        Ok(())
    }

    /// Number of (rank, chunk) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Simulate losing the buddy node (hard failure of the remote).
    pub fn destroy(&mut self) {
        self.entries.clear();
        self.nvm.destroy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    fn store() -> RemoteStore {
        RemoteStore::new(&MemoryDevice::pcm(64 * MB), true)
    }

    #[test]
    fn put_commit_fetch_roundtrip() {
        let mut s = store();
        let c = ChunkId(1);
        s.put(0, c, &[7u8; 1024]).unwrap();
        // Staged but not committed: fetch fails.
        assert!(matches!(
            s.fetch(0, c),
            Err(RemoteError::NothingCommitted(_))
        ));
        assert_eq!(s.commit_rank(0, 5), 1);
        let (data, cost) = s.fetch(0, c).unwrap();
        assert_eq!(data, vec![7u8; 1024]);
        assert!(!cost.is_zero());
        assert_eq!(s.committed_epoch(0, c), Some(5));
    }

    #[test]
    fn two_version_discipline_survives_partial_update() {
        let mut s = store();
        let c = ChunkId(1);
        s.put(0, c, &[1u8; 512]).unwrap();
        s.commit_rank(0, 1);
        // New epoch staged but "crash" before commit.
        s.put(0, c, &[2u8; 512]).unwrap();
        let (data, _) = s.fetch(0, c).unwrap();
        assert_eq!(data, vec![1u8; 512], "old version must survive");
        // Now commit and see the new one.
        s.commit_rank(0, 2);
        let (data, _) = s.fetch(0, c).unwrap();
        assert_eq!(data, vec![2u8; 512]);
    }

    #[test]
    fn slots_alternate_across_epochs() {
        let mut s = store();
        let c = ChunkId(9);
        for epoch in 0..6u64 {
            let fill = epoch as u8;
            s.put(3, c, &[fill; 256]).unwrap();
            s.commit_rank(3, epoch);
            let (data, _) = s.fetch(3, c).unwrap();
            assert_eq!(data, vec![fill; 256]);
        }
        // Exactly two slots allocated despite six epochs.
        assert_eq!(s.entries[&(3, c)].slots.iter().flatten().count(), 2);
    }

    #[test]
    fn ranks_commit_independently() {
        let mut s = store();
        let c = ChunkId(1);
        s.put(0, c, &[1u8; 64]).unwrap();
        s.put(1, c, &[2u8; 64]).unwrap();
        s.commit_rank(0, 1);
        assert!(s.fetch(0, c).is_ok());
        assert!(matches!(
            s.fetch(1, c),
            Err(RemoteError::NothingCommitted(_))
        ));
    }

    #[test]
    fn synthetic_puts_track_size_only() {
        let mut s = RemoteStore::new(&MemoryDevice::pcm(64 * MB), false);
        let c = ChunkId(1);
        let cost = s.put_synthetic(0, c, 8 * MB).unwrap();
        assert!(!cost.is_zero());
        s.commit_rank(0, 1);
        assert!(matches!(s.fetch(0, c), Err(RemoteError::Device(_))));
        assert_eq!(s.committed((0, c)).unwrap().len, 8 * MB);
    }

    #[test]
    fn a_re_put_of_any_length_fetches_at_its_own_length_and_only_once_committed() {
        let fill = |len: usize, b: u8| vec![b; len];
        for (first, second) in [(4096, 1024), (4096, 4096), (1024, 4096)] {
            for commit_between in [false, true] {
                let mut s = store();
                let c = ChunkId(3);
                s.put(0, c, &fill(first, 1)).unwrap();
                s.commit_rank(0, 1);
                if commit_between {
                    s.put(0, c, &fill(first, 2)).unwrap();
                    s.commit_rank(0, 2);
                }
                let before = s.fetch(0, c).unwrap().0;
                s.put(0, c, &fill(second, 3)).unwrap();
                // Staged, not committed: the previous version stands,
                // at its own length.
                assert_eq!(s.fetch(0, c).unwrap().0, before, "{first} -> {second}");
                s.commit_rank(0, 3);
                assert_eq!(
                    s.fetch(0, c).unwrap().0,
                    fill(second, 3),
                    "{first} -> {second}, commit between: {commit_between}"
                );
                // And back: the slot the longer version left behind
                // serves a shorter one again.
                s.put(0, c, &fill(first, 4)).unwrap();
                assert_eq!(s.fetch(0, c).unwrap().0, fill(second, 3));
                s.commit_rank(0, 4);
                assert_eq!(s.fetch(0, c).unwrap().0, fill(first, 4));
            }
        }
    }

    #[test]
    fn a_carried_checksum_is_verified_as_the_senders() {
        // Bytes damaged before they reach the store: a receiver-side
        // hash would vouch for them; the sender's checksum does not.
        let mut s = store();
        let c = ChunkId(8);
        let committed = vec![6u8; 3000];
        let mut damaged = committed.clone();
        damaged[1234] ^= 0x40;
        s.put_with_checksum(0, c, &damaged, crc64(&committed))
            .unwrap();
        s.commit_rank(0, 1);
        assert!(matches!(
            s.fetch(0, c),
            Err(RemoteError::ChecksumMismatch(_))
        ));
        s.put_with_checksum(0, c, &committed, crc64(&committed))
            .unwrap();
        s.commit_rank(0, 2);
        assert_eq!(s.fetch(0, c).unwrap().0, committed);
    }

    #[test]
    fn grown_chunk_reallocates() {
        let mut s = store();
        let c = ChunkId(1);
        s.put(0, c, &[1u8; 1024]).unwrap();
        s.commit_rank(0, 1);
        s.put(0, c, &vec![2u8; 4096]).unwrap();
        s.commit_rank(0, 2);
        let (data, _) = s.fetch(0, c).unwrap();
        assert_eq!(data.len(), 4096);
    }

    #[test]
    fn corrupt_replica_fails_the_verified_fetch() {
        // The second image is many strides of the CRC kernel plus a
        // remainder block and a table tail.
        for len in [4096, (64 << 10) + 29] {
            let mut s = store();
            let c = ChunkId(6);
            s.put(0, c, &vec![7u8; len]).unwrap();
            s.commit_rank(0, 0);
            s.corrupt_committed(0, c).unwrap();
            assert!(matches!(
                s.fetch(0, c),
                Err(RemoteError::ChecksumMismatch(_))
            ));
        }
    }

    #[test]
    fn destroy_loses_everything() {
        let mut s = store();
        s.put(0, ChunkId(1), &[1u8; 64]).unwrap();
        s.commit_rank(0, 1);
        s.destroy();
        assert!(s.is_empty());
    }
}
