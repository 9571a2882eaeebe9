//! ARMCI-style remote memory for checkpoints.
//!
//! The paper extends the aggregate-remote-memory-copy (ARMCI) library
//! so a node can allocate, access and copy NVM buffers on *remote*
//! nodes over RDMA. [`RemoteStore`] is the receiving side: a buddy
//! node's NVM holding checkpoint copies for every (rank, chunk) pair,
//! with the same two-version commit discipline as local checkpoints —
//! a crash mid-remote-checkpoint must leave the previous remote
//! version intact.

use nvm_chkpt::checksum::crc64;
use nvm_emu::{DeviceError, MemoryDevice, RegionId, SimDuration};
use nvm_paging::ChunkId;
use std::collections::HashMap;

/// Key of a remote entry: source rank + chunk.
pub type RemoteKey = (u64, ChunkId);

#[derive(Debug)]
struct RemoteEntry {
    len: usize,
    slots: [Option<RegionId>; 2],
    committed: Option<u8>,
    /// Slot holding data newer than `committed`, not yet committed.
    staged: Option<u8>,
    /// Per-slot checksums: staging a new version must not clobber the
    /// committed version's checksum.
    checksums: [Option<u64>; 2],
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

/// A buddy node's NVM-backed checkpoint store.
pub struct RemoteStore {
    nvm: MemoryDevice,
    entries: HashMap<RemoteKey, RemoteEntry>,
    materialized: bool,
}

impl RemoteStore {
    /// A store on the given (remote) NVM device. `materialized`
    /// controls whether real bytes are kept.
    pub fn new(nvm: &MemoryDevice, materialized: bool) -> Self {
        RemoteStore {
            nvm: nvm.clone(),
            entries: HashMap::new(),
            materialized,
        }
    }

    fn ensure_entry(&mut self, key: RemoteKey, len: usize) -> Result<(), RemoteError> {
        use std::collections::hash_map::Entry;
        match self.entries.entry(key) {
            Entry::Occupied(mut e) => {
                // Grown chunk: reallocate both slots.
                if e.get().len < len {
                    let old = e.get_mut();
                    for slot in old.slots.iter_mut().flatten() {
                        self.nvm.free(*slot)?;
                    }
                    let name = old.name.take();
                    *old = RemoteEntry {
                        len,
                        slots: [None, None],
                        committed: None,
                        staged: None,
                        checksums: [None, None],
                        epoch: 0,
                        name,
                    };
                }
                Ok(())
            }
            Entry::Vacant(v) => {
                v.insert(RemoteEntry {
                    len,
                    slots: [None, None],
                    committed: None,
                    staged: None,
                    checksums: [None, None],
                    epoch: 0,
                    name: None,
                });
                Ok(())
            }
        }
    }

    fn slot_region(&mut self, key: RemoteKey, slot: u8) -> Result<RegionId, RemoteError> {
        let materialized = self.materialized;
        let entry = self
            .entries
            .get_mut(&key)
            .ok_or(RemoteError::NoSuchEntry(key))?;
        if let Some(r) = entry.slots[slot as usize] {
            return Ok(r);
        }
        let region = if materialized {
            self.nvm.alloc(entry.len)?
        } else {
            self.nvm.alloc_synthetic(entry.len)?
        };
        let entry = self.entries.get_mut(&key).expect("present");
        entry.slots[slot as usize] = Some(region);
        Ok(region)
    }

    /// RDMA put of real bytes into the in-progress slot. Returns the
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
        let key = (rank, chunk);
        self.ensure_entry(key, data.len())?;
        let slot = self.staging_slot(key);
        let region = self.slot_region(key, slot)?;
        let cost = self.nvm.write(region, 0, data, 1)?;
        let sum = crc64(data);
        let entry = self.entries.get_mut(&key).expect("present");
        entry.staged = Some(slot);
        entry.checksums[slot as usize] = Some(sum);
        Ok(cost)
    }

    /// RDMA put, size-only.
    pub fn put_synthetic(
        &mut self,
        rank: u64,
        chunk: ChunkId,
        len: usize,
    ) -> Result<SimDuration, RemoteError> {
        let key = (rank, chunk);
        self.ensure_entry(key, len)?;
        let slot = self.staging_slot(key);
        let region = self.slot_region(key, slot)?;
        let cost = self.nvm.write_synthetic(region, 0, len, 1)?;
        let entry = self.entries.get_mut(&key).expect("present");
        entry.staged = Some(slot);
        entry.checksums[slot as usize] = None;
        Ok(cost)
    }

    fn staging_slot(&self, key: RemoteKey) -> u8 {
        match self.entries.get(&key).and_then(|e| e.committed) {
            Some(0) => 1,
            _ => 0,
        }
    }

    /// Commit every staged entry of `rank` at `epoch` — the remote
    /// checkpoint completion barrier.
    pub fn commit_rank(&mut self, rank: u64, epoch: u64) -> usize {
        let mut committed = 0;
        for (key, entry) in self.entries.iter_mut() {
            if key.0 == rank {
                if let Some(slot) = entry.staged.take() {
                    entry.committed = Some(slot);
                    entry.epoch = epoch;
                    committed += 1;
                }
            }
        }
        committed
    }

    /// Fetch the committed bytes for a chunk (remote recovery path).
    /// Verifies the checksum recorded at put time.
    pub fn fetch(&self, rank: u64, chunk: ChunkId) -> Result<(Vec<u8>, SimDuration), RemoteError> {
        let key = (rank, chunk);
        let entry = self
            .entries
            .get(&key)
            .ok_or(RemoteError::NoSuchEntry(key))?;
        let slot = entry.committed.ok_or(RemoteError::NothingCommitted(key))?;
        let region = entry.slots[slot as usize].expect("committed slot allocated");
        let mut buf = vec![0u8; entry.len];
        let cost = self.nvm.read(region, 0, &mut buf, 1)?;
        if let Some(expected) = entry.checksums[slot as usize] {
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
        let mut ids: Vec<ChunkId> = self
            .entries
            .iter()
            .filter(|((r, _), e)| *r == rank && e.committed.is_some())
            .map(|((_, c), _)| *c)
            .collect();
        ids.sort();
        ids
    }

    /// Overwrite a committed slot's bytes *without* updating its
    /// checksum — silent remote corruption, for fault-injection tests
    /// of the checksum-verified fetch.
    pub fn corrupt_committed(&mut self, rank: u64, chunk: ChunkId) -> Result<(), RemoteError> {
        let key = (rank, chunk);
        let entry = self
            .entries
            .get(&key)
            .ok_or(RemoteError::NoSuchEntry(key))?;
        let slot = entry.committed.ok_or(RemoteError::NothingCommitted(key))?;
        let region = entry.slots[slot as usize].expect("committed slot allocated");
        let garbage = vec![0x5Au8; entry.len.min(64)];
        self.nvm.write(region, 0, &garbage, 1)?;
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
        assert_eq!(s.entries[&(0, c)].len, 8 * MB);
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
