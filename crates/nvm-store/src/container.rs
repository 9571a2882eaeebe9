//! The durable container: shadow slot pairs + append-only commit log.
//!
//! [`Container`] implements [`Persistence`] over any [`Media`]. The
//! crash-consistency discipline is:
//!
//! 1. **Staged payloads only ever go to the slot the last durable
//!    commit record does not reference.** The committed slot is never
//!    rewritten in place.
//! 2. **Commit is a single append + fsync.** The record carries the
//!    full chunk table; once the fsync returns, that record *is* the
//!    checkpoint. A crash anywhere before it leaves the previous
//!    record's data untouched on media.
//! 3. **Extents referenced by the last durable record are never
//!    reused.** A deleted chunk's committed extent goes on a deferred
//!    list and returns to the allocator only after the *next* commit's
//!    fsync — the first moment no durable record references it.
//!    Non-committed (spare) extents may be recycled immediately: no
//!    future recovery can need them.
//!
//! Data-region layout is delegated to the engine's own
//! [`Arena`] allocator, so container files stay deterministic:
//! identical operation sequences produce byte-identical files.

use crate::format::{
    decode_record, encode_record, RecordParse, SlotHeader, Superblock, TableEntry, SB_LEN,
    SLOT_HEADER_LEN,
};
use crate::media::{FileMedia, Media};
use nvm_chkpt::checksum::crc64;
use nvm_chkpt::persist::{PersistError, Persistence, RecoveredChunk, RecoveredState, StoreStats};
use nvm_heap::{Arena, Extent};
use nvm_paging::ChunkId;
use std::collections::BTreeMap;
use std::path::Path;

/// Payload metadata for one slot of a pair.
#[derive(Clone, Copy, Debug)]
struct SlotMeta {
    slot: u8,
    payload_len: usize,
    crc: u64,
    epoch: u64,
}

/// In-memory state for one chunk's slot pair.
#[derive(Clone, Debug)]
struct ChunkState {
    name: String,
    len: usize,
    /// Data-region-relative extents of the two slots.
    slots: [Option<Extent>; 2],
    /// Slot referenced by the last durable commit record.
    committed: Option<SlotMeta>,
    /// Slot staged since that record (flips to committed on commit).
    staged: Option<SlotMeta>,
}

impl ChunkState {
    /// The slot the next `put_chunk` must target.
    fn target_slot(&self) -> u8 {
        match (&self.committed, &self.staged) {
            (Some(c), _) => 1 - c.slot,
            (None, Some(s)) => s.slot,
            (None, None) => 0,
        }
    }
}

/// A crash-consistent checkpoint container over some [`Media`].
pub struct Container<M: Media> {
    media: M,
    sb: Superblock,
    arena: Arena,
    chunks: BTreeMap<ChunkId, ChunkState>,
    /// Extents referenced by the last durable record but dropped from
    /// the working table; freed after the next commit's fsync.
    deferred_free: Vec<Extent>,
    /// Media offset where the next commit record is appended.
    log_tail: u64,
    /// Snapshot of what the open-time scan recovered.
    recovered: RecoveredState,
    stats: StoreStats,
}

impl<M: Media> Container<M> {
    /// Open a container on `media`. Empty/invalid media is formatted
    /// fresh with the given identity and geometry; valid media keeps
    /// its recorded geometry (the arguments are ignored) and the last
    /// durable commit is recovered immediately.
    pub fn open(mut media: M, process_id: u64, data_capacity: usize) -> Result<Self, PersistError> {
        let mut sb_buf = [0u8; SB_LEN];
        let got = media.read_at(0, &mut sb_buf)?;
        let (sb, fresh) = match Superblock::decode(&sb_buf[..got]) {
            Some(sb) => (sb, false),
            None => (
                Superblock {
                    process_id,
                    data_capacity: data_capacity as u64,
                },
                true,
            ),
        };
        let mut this = Container {
            media,
            sb,
            arena: Arena::new(sb.data_capacity as usize),
            chunks: BTreeMap::new(),
            deferred_free: Vec::new(),
            log_tail: sb.log_start(),
            recovered: RecoveredState {
                process_id: sb.process_id,
                ..RecoveredState::default()
            },
            stats: StoreStats::default(),
        };
        if fresh {
            // Geometry must be durable before any slot write lands
            // beyond it.
            this.write(0, &[&sb.encode()])?;
            this.fsync()?;
        } else {
            this.scan_log()?;
        }
        Ok(this)
    }

    /// Borrow the underlying media (harness introspection).
    pub fn media(&self) -> &M {
        &self.media
    }

    /// Consume the container, returning its media.
    pub fn into_media(self) -> M {
        self.media
    }

    /// Flip one byte of `id`'s *committed* payload directly on media,
    /// bypassing the shadow-slot discipline. Test support: simulates
    /// media corruption (bit rot) so checksum verification paths can
    /// be exercised.
    pub fn corrupt_payload(&mut self, id: ChunkId) -> Result<(), PersistError> {
        let (_, ext) = self.committed(id)?;
        let at = self.sb.data_start() + ext.offset as u64 + SLOT_HEADER_LEN as u64;
        let mut byte = [0u8; 1];
        if self.media.read_at(at, &mut byte)? != 1 {
            return Err(PersistError::Corrupt("payload beyond media".to_string()));
        }
        byte[0] ^= 0xFF;
        self.media.write_at(at, &[&byte])?;
        self.media.fsync()?;
        Ok(())
    }

    /// The slot the last durable commit record references for `id`, and
    /// its extent.
    fn committed(&self, id: ChunkId) -> Result<(SlotMeta, Extent), PersistError> {
        let chunk = self
            .chunks
            .get(&id)
            .ok_or(PersistError::NoSuchChunk(id.0))?;
        let meta = chunk.committed.ok_or(PersistError::NoSuchChunk(id.0))?;
        let ext = chunk.slots[meta.slot as usize]
            .ok_or_else(|| PersistError::Corrupt("committed slot has no extent".to_string()))?;
        Ok((meta, ext))
    }

    /// Tracked media write (byte accounting) of `parts`, back to back,
    /// as one [`Media::write_at`].
    fn write(&mut self, offset: u64, parts: &[&[u8]]) -> Result<(), PersistError> {
        self.media.write_at(offset, parts)?;
        self.stats.bytes_written += parts.iter().map(|part| part.len() as u64).sum::<u64>();
        Ok(())
    }

    /// Tracked durability barrier.
    fn fsync(&mut self) -> Result<(), PersistError> {
        self.media.fsync()?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Scan the commit log, adopt the last fully valid record, and
    /// rebuild the arena + chunk table from it.
    fn scan_log(&mut self) -> Result<(), PersistError> {
        let start = self.sb.log_start();
        let avail = self.media.len().saturating_sub(start) as usize;
        let mut buf = vec![0u8; avail];
        let got = self.media.read_at(start, &mut buf)?;
        buf.truncate(got);

        let mut pos = 0usize;
        let mut torn = 0u64;
        let mut last: Option<(u64, Vec<TableEntry>)> = None;
        loop {
            match decode_record(&buf[pos..]) {
                RecordParse::End => break,
                RecordParse::Torn => {
                    torn += 1;
                    break;
                }
                RecordParse::Valid {
                    epoch,
                    table,
                    total_len,
                } => {
                    last = Some((epoch, table));
                    pos += total_len;
                }
            }
        }
        // Appends resume here: a torn tail record is overwritten.
        self.log_tail = start + pos as u64;
        self.stats.torn_writes_detected += torn;

        let mut recovered = RecoveredState {
            process_id: self.sb.process_id,
            torn_writes_detected: torn,
            ..RecoveredState::default()
        };
        if let Some((epoch, table)) = last {
            recovered.epoch = Some(epoch);
            for e in &table {
                let ext = Extent {
                    offset: e.offset as usize,
                    len: e.cap as usize,
                };
                if !self.arena.reserve(ext) {
                    return Err(PersistError::Corrupt(format!(
                        "commit record references overlapping extent for chunk {}",
                        e.id
                    )));
                }
                let mut slots = [None, None];
                slots[e.slot as usize] = Some(ext);
                if let Some((off, len)) = e.spare {
                    let spare = Extent {
                        offset: off as usize,
                        len: len as usize,
                    };
                    if !self.arena.reserve(spare) {
                        return Err(PersistError::Corrupt(format!(
                            "commit record references overlapping spare for chunk {}",
                            e.id
                        )));
                    }
                    slots[1 - e.slot as usize] = Some(spare);
                }
                self.chunks.insert(
                    ChunkId(e.id),
                    ChunkState {
                        name: e.name.clone(),
                        len: e.len as usize,
                        slots,
                        committed: Some(SlotMeta {
                            slot: e.slot,
                            payload_len: e.payload_len as usize,
                            crc: e.crc,
                            epoch: e.epoch,
                        }),
                        staged: None,
                    },
                );
                recovered.chunks.push(RecoveredChunk {
                    id: ChunkId(e.id),
                    name: e.name.clone(),
                    len: e.len as usize,
                    payload_len: e.payload_len as usize,
                    checksum: e.crc,
                    epoch: e.epoch,
                });
            }
        }
        self.recovered = recovered;
        Ok(())
    }
}

impl<M: Media> Persistence for Container<M> {
    fn put_chunk(
        &mut self,
        id: ChunkId,
        name: &str,
        len: usize,
        epoch: u64,
        payload: &[u8],
    ) -> Result<u64, PersistError> {
        let needed = SLOT_HEADER_LEN + payload.len();
        let chunk = self.chunks.entry(id).or_insert_with(|| ChunkState {
            name: name.to_string(),
            len,
            slots: [None, None],
            committed: None,
            staged: None,
        });
        chunk.name = name.to_string();
        chunk.len = len;
        let t = chunk.target_slot() as usize;

        // Make sure the target slot's extent fits; recycle it if not.
        // The target slot is by construction not referenced by the
        // last durable record as a committed payload, so immediate
        // reuse of its extent is crash-safe.
        if let Some(ext) = chunk.slots[t] {
            if ext.len < needed {
                chunk.slots[t] = None;
                if chunk.staged.is_some_and(|s| s.slot as usize == t) {
                    chunk.staged = None;
                }
                self.arena.free(ext);
            }
        }
        if self.chunks[&id].slots[t].is_none() {
            let Some(ext) = self.arena.alloc(needed) else {
                return Err(PersistError::OutOfSpace { requested: needed });
            };
            self.chunks.get_mut(&id).expect("chunk just touched").slots[t] = Some(ext);
        }
        let ext = self.chunks[&id].slots[t].expect("target slot allocated");

        let crc = crc64(payload);
        let header = SlotHeader {
            id: id.0,
            epoch,
            payload_len: payload.len() as u64,
            payload_crc: crc,
        };
        // One media write per slot: header + payload together, so a
        // torn slot write can never pass the header CRC against a
        // stale payload. The payload goes out from where the caller
        // holds it.
        let at = self.sb.data_start() + ext.offset as u64;
        self.write(at, &[&header.encode(), payload])?;

        let chunk = self.chunks.get_mut(&id).expect("chunk just touched");
        chunk.staged = Some(SlotMeta {
            slot: t as u8,
            payload_len: payload.len(),
            crc,
            epoch,
        });
        Ok(crc)
    }

    fn delete_chunk(&mut self, id: ChunkId) {
        let Some(chunk) = self.chunks.remove(&id) else {
            return;
        };
        for (slot, ext) in chunk.slots.iter().enumerate() {
            let Some(ext) = *ext else { continue };
            if chunk.committed.is_some_and(|c| c.slot as usize == slot) {
                // Still referenced by the last durable record: hold
                // until the next commit's fsync retires that record.
                self.deferred_free.push(ext);
            } else {
                self.arena.free(ext);
            }
        }
    }

    fn commit(&mut self, epoch: u64) -> Result<(), PersistError> {
        let mut table = Vec::with_capacity(self.chunks.len());
        for (id, chunk) in &self.chunks {
            let Some(meta) = chunk.staged.or(chunk.committed) else {
                continue;
            };
            let ext = chunk.slots[meta.slot as usize]
                .ok_or_else(|| PersistError::Corrupt("slot meta without extent".to_string()))?;
            let spare =
                chunk.slots[1 - meta.slot as usize].map(|s| (s.offset as u64, s.len as u64));
            table.push(TableEntry {
                id: id.0,
                name: chunk.name.clone(),
                len: chunk.len as u64,
                payload_len: meta.payload_len as u64,
                slot: meta.slot,
                offset: ext.offset as u64,
                cap: ext.len as u64,
                crc: meta.crc,
                epoch: meta.epoch,
                spare,
            });
        }
        let rec = encode_record(epoch, &table);
        let at = self.log_tail;
        self.write(at, &[&rec])?;
        self.fsync()?;
        // --- Durable from here on. ---
        self.log_tail = at + rec.len() as u64;
        self.stats.commits += 1;
        for chunk in self.chunks.values_mut() {
            if let Some(s) = chunk.staged.take() {
                chunk.committed = Some(s);
            }
        }
        // The previous record is retired: extents it referenced that
        // left the working table are reusable now.
        for ext in self.deferred_free.drain(..) {
            self.arena.free(ext);
        }
        Ok(())
    }

    fn recover(&mut self) -> Result<RecoveredState, PersistError> {
        self.stats.recoveries += 1;
        Ok(self.recovered.clone())
    }

    fn payload_len(&self, id: ChunkId) -> Result<usize, PersistError> {
        Ok(self.committed(id)?.0.payload_len)
    }

    fn read_chunk_into(&mut self, id: ChunkId, buf: &mut [u8]) -> Result<(), PersistError> {
        let (meta, ext) = self.committed(id)?;
        if buf.len() != meta.payload_len {
            return Err(PersistError::Corrupt(format!(
                "chunk {} holds {} payload bytes, asked to read {}",
                id.0,
                meta.payload_len,
                buf.len()
            )));
        }
        let at = self.sb.data_start() + ext.offset as u64;
        let truncated =
            || PersistError::Corrupt(format!("slot for chunk {} truncated on media", id.0));
        let mut header = [0u8; SLOT_HEADER_LEN];
        if self.media.read_at(at, &mut header)? != SLOT_HEADER_LEN {
            return Err(truncated());
        }
        let header = SlotHeader::decode(&header)?;
        if header.id != id.0 || header.payload_len as usize != meta.payload_len {
            return Err(PersistError::Corrupt(format!(
                "slot header mismatch for chunk {}",
                id.0
            )));
        }
        // The payload lands directly in the caller's buffer and is
        // verified there: never copied out of a larger one.
        if self.media.read_at(at + SLOT_HEADER_LEN as u64, buf)? != buf.len() {
            return Err(truncated());
        }
        let actual = crc64(buf);
        if actual != meta.crc || actual != header.payload_crc {
            return Err(PersistError::Checksum {
                chunk: id.0,
                expected: meta.crc,
                actual,
            });
        }
        self.stats.payload_reads += 1;
        self.stats.payload_read_bytes += buf.len() as u64;
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

/// A container on a real file: the backend `--store DIR` wires into
/// every rank.
pub type FileStore = Container<FileMedia>;

impl FileStore {
    /// Open (or create) the container file at `path`.
    pub fn open_path(
        path: &Path,
        process_id: u64,
        data_capacity: usize,
    ) -> Result<Self, PersistError> {
        Container::open(FileMedia::open(path)?, process_id, data_capacity)
    }

    /// Open an existing container, refusing to format: recovery from a
    /// directory of container files alone must not depend on knowing
    /// the original geometry.
    pub fn open_existing(path: &Path) -> Result<Self, PersistError> {
        let mut media = FileMedia::open(path)?;
        let mut sb_buf = [0u8; SB_LEN];
        let got = media.read_at(0, &mut sb_buf)?;
        if Superblock::decode(&sb_buf[..got]).is_none() {
            return Err(PersistError::Corrupt(format!(
                "{} is not an nvm-store container",
                path.display()
            )));
        }
        Container::open(media, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MemMedia;

    fn open_mem(pid: u64) -> Container<MemMedia> {
        Container::open(MemMedia::new(), pid, 1 << 20).unwrap()
    }

    #[test]
    fn virgin_container_recovers_no_checkpoint() {
        let mut c = open_mem(7);
        let state = c.recover().unwrap();
        assert_eq!(state.process_id, 7);
        assert_eq!(state.epoch, None);
        assert!(state.chunks.is_empty());
        assert_eq!(c.stats().recoveries, 1);
    }

    #[test]
    fn put_commit_read_round_trip() {
        let mut c = open_mem(1);
        let payload = vec![0xA5u8; 4096];
        c.put_chunk(ChunkId(3), "field", 4096, 0, &payload).unwrap();
        c.commit(0).unwrap();
        assert_eq!(c.read_chunk(ChunkId(3)).unwrap(), payload);
        let s = c.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.fsyncs, 2, "format fsync + commit fsync");
        assert_eq!(s.payload_reads, 1);
        assert_eq!(s.payload_read_bytes, 4096);
    }

    #[test]
    fn read_chunk_into_wants_a_buffer_of_the_stored_length() {
        let mut c = open_mem(1);
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        c.put_chunk(ChunkId(3), "field", 300, 0, &payload).unwrap();
        c.commit(0).unwrap();
        assert_eq!(c.payload_len(ChunkId(3)).unwrap(), 300);
        for wrong in [0, 299, 301] {
            let mut buf = vec![0u8; wrong];
            assert!(
                matches!(
                    c.read_chunk_into(ChunkId(3), &mut buf),
                    Err(PersistError::Corrupt(_))
                ),
                "a {wrong}-byte buffer for a 300-byte payload"
            );
        }
        assert_eq!(c.stats().payload_reads, 0, "a refused read is not a read");
        let mut buf = vec![0u8; 300];
        c.read_chunk_into(ChunkId(3), &mut buf).unwrap();
        assert_eq!(buf, payload);
        assert_eq!(c.stats().payload_read_bytes, 300);
        assert!(matches!(
            c.payload_len(ChunkId(4)),
            Err(PersistError::NoSuchChunk(4))
        ));
    }

    #[test]
    fn uncommitted_put_is_not_readable_and_not_recovered() {
        let mut c = open_mem(1);
        c.put_chunk(ChunkId(1), "x", 64, 0, &[1u8; 64]).unwrap();
        assert!(matches!(
            c.read_chunk(ChunkId(1)),
            Err(PersistError::NoSuchChunk(1))
        ));
        let reopened = Container::open(MemMedia::from_bytes(c.media.bytes().to_vec()), 0, 0)
            .unwrap()
            .recovered;
        assert_eq!(reopened.epoch, None, "no commit record, no checkpoint");
    }

    #[test]
    fn reopen_recovers_last_commit_bit_for_bit() {
        let mut c = open_mem(9);
        let v0 = vec![1u8; 300];
        let v1 = vec![2u8; 300];
        c.put_chunk(ChunkId(5), "v", 300, 0, &v0).unwrap();
        c.commit(0).unwrap();
        c.put_chunk(ChunkId(5), "v", 300, 1, &v1).unwrap();
        c.commit(1).unwrap();
        let image = c.media.bytes().to_vec();
        let mut r = Container::open(MemMedia::from_bytes(image), 0, 0).unwrap();
        let state = r.recover().unwrap();
        assert_eq!(state.process_id, 9, "identity comes from the superblock");
        assert_eq!(state.epoch, Some(1));
        assert_eq!(state.chunks.len(), 1);
        assert_eq!(state.chunks[0].name, "v");
        assert_eq!(r.read_chunk(ChunkId(5)).unwrap(), v1);
    }

    #[test]
    fn commit_alternates_slots_and_never_rewrites_committed() {
        let mut c = open_mem(1);
        for epoch in 0..6u64 {
            let payload = vec![epoch as u8; 128];
            c.put_chunk(ChunkId(1), "w", 128, epoch, &payload).unwrap();
            // Before commit, the previous epoch must still be intact.
            if epoch > 0 {
                assert_eq!(
                    c.read_chunk(ChunkId(1)).unwrap(),
                    vec![epoch as u8 - 1; 128]
                );
            }
            c.commit(epoch).unwrap();
            assert_eq!(c.read_chunk(ChunkId(1)).unwrap(), payload);
        }
        let chunk = &c.chunks[&ChunkId(1)];
        assert!(chunk.slots[0].is_some() && chunk.slots[1].is_some());
    }

    #[test]
    fn growth_moves_the_spare_slot_only() {
        let mut c = open_mem(1);
        c.put_chunk(ChunkId(2), "g", 100, 0, &[7u8; 100]).unwrap();
        c.commit(0).unwrap();
        // Growing rewrites the spare slot's extent; committed data
        // stays readable throughout.
        c.put_chunk(ChunkId(2), "g", 5000, 1, &[8u8; 5000]).unwrap();
        assert_eq!(c.read_chunk(ChunkId(2)).unwrap(), vec![7u8; 100]);
        c.commit(1).unwrap();
        assert_eq!(c.read_chunk(ChunkId(2)).unwrap(), vec![8u8; 5000]);
    }

    #[test]
    fn delete_defers_the_committed_extent() {
        let mut c = open_mem(1);
        c.put_chunk(ChunkId(1), "a", 64, 0, &[1u8; 64]).unwrap();
        c.commit(0).unwrap();
        let free_before = c.arena.free_bytes();
        c.delete_chunk(ChunkId(1));
        assert_eq!(
            c.arena.free_bytes(),
            free_before,
            "committed extent must not be reusable before the next commit"
        );
        assert_eq!(c.deferred_free.len(), 1);
        c.commit(1).unwrap();
        assert!(c.arena.free_bytes() > free_before);
        assert!(matches!(
            c.read_chunk(ChunkId(1)),
            Err(PersistError::NoSuchChunk(1))
        ));
    }

    #[test]
    fn corruption_is_caught_by_checksum() {
        let mut c = open_mem(1);
        c.put_chunk(ChunkId(4), "z", 256, 0, &[9u8; 256]).unwrap();
        // A payload of many CRC-kernel strides, one bit flipped deep
        // inside it (`corrupt_payload` inverts the first byte).
        let long = vec![9u8; (64 << 10) + 29];
        c.put_chunk(ChunkId(5), "long", long.len(), 0, &long)
            .unwrap();
        c.commit(0).unwrap();
        c.corrupt_payload(ChunkId(4)).unwrap();
        let (_, ext) = c.committed(ChunkId(5)).unwrap();
        let at = c.sb.data_start() + (ext.offset + SLOT_HEADER_LEN + 300 * 128 + 5) as u64;
        let mut byte = [0u8; 1];
        assert_eq!(c.media.read_at(at, &mut byte).unwrap(), 1);
        c.media.write_at(at, &[&[byte[0] ^ 0x10]]).unwrap();
        for id in [4, 5] {
            match c.read_chunk(ChunkId(id)) {
                Err(PersistError::Checksum { chunk, .. }) => assert_eq!(chunk, id),
                other => panic!("expected checksum error, got {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_space_is_reported() {
        let mut c = Container::open(MemMedia::new(), 1, 256).unwrap();
        assert!(matches!(
            c.put_chunk(ChunkId(1), "big", 4096, 0, &[0u8; 4096]),
            Err(PersistError::OutOfSpace { .. })
        ));
    }

    #[test]
    fn file_store_survives_process_boundary() {
        let td = nvm_emu::TempDir::new("nvm_store_container_test").unwrap();
        let path = td.join("rank_0.store");
        {
            let mut s = FileStore::open_path(&path, 0, 1 << 20).unwrap();
            s.put_chunk(ChunkId(1), "m", 512, 0, &[3u8; 512]).unwrap();
            s.commit(0).unwrap();
        }
        let mut s = FileStore::open_existing(&path).unwrap();
        let state = s.recover().unwrap();
        assert_eq!(state.epoch, Some(0));
        assert_eq!(s.read_chunk(ChunkId(1)).unwrap(), vec![3u8; 512]);
        assert!(FileStore::open_existing(&td.join("missing.store")).is_err());
    }

    #[test]
    fn identical_histories_give_identical_files() {
        let run = || {
            let mut c = open_mem(1);
            for e in 0..3u64 {
                c.put_chunk(ChunkId(1), "a", 128, e, &[e as u8; 128])
                    .unwrap();
                c.put_chunk(ChunkId(2), "b", 64, e, &[e as u8 ^ 0xFF; 64])
                    .unwrap();
                c.commit(e).unwrap();
            }
            c.media.bytes().to_vec()
        };
        assert_eq!(run(), run(), "container layout must be deterministic");
    }
}
