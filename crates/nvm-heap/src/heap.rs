//! The per-process NVM heap: `nvmalloc` and friends.
//!
//! [`NvmHeap`] is the user-library allocation component from Section V
//! of the paper: every data structure that needs checkpointing is
//! allocated through it, getting a DRAM working copy (returned to the
//! application) plus shadow version slots carved out of the process'
//! NVM container by the [`crate::arena::Arena`].
//!
//! Time costs: application writes to the DRAM working copy charge DRAM
//! costs; shadow copies to NVM charge NVM write bandwidth (the
//! dominant cost of a checkpoint — the DRAM read side overlaps the NVM
//! write in a real DMA pipeline, so only the slower side bounds time).

use crate::arena::{Arena, ArenaStats, Extent};
use crate::chunk::{Chunk, Versioning};
use nvm_emu::{DeviceError, MemoryDevice, RegionId, SimDuration};
use nvm_paging::{genid, ChunkId, ChunkTable, ProcessMetadata, RecordRef};
use std::collections::BTreeMap;

/// Errors from the heap layer.
#[non_exhaustive]
#[derive(Debug)]
pub enum HeapError {
    /// A chunk with this id already exists.
    AlreadyExists(ChunkId),
    /// No chunk with this id.
    NoSuchChunk(ChunkId),
    /// The NVM container has no room for the requested shadow extents.
    OutOfNvm {
        /// Bytes requested.
        requested: usize,
        /// Largest contiguous free run in the container.
        largest_free: usize,
    },
    /// Underlying device failure.
    Device(DeviceError),
    /// A version slot that should exist does not.
    MissingVersion {
        /// Chunk in question.
        chunk: ChunkId,
        /// Slot index.
        slot: u8,
    },
}

nvm_emu::error_enum! {
    HeapError, f {
        wrap Device(DeviceError) => "device error",
        leaf HeapError::AlreadyExists(id) => write!(f, "chunk {id:?} already exists"),
        leaf HeapError::NoSuchChunk(id) => write!(f, "no such chunk {id:?}"),
        leaf HeapError::OutOfNvm { requested, largest_free } => write!(
            f,
            "NVM container exhausted: requested {requested}, largest free run {largest_free}"
        ),
        leaf HeapError::MissingVersion { chunk, slot } =>
            write!(f, "chunk {chunk:?} has no version in slot {slot}"),
    }
}

/// Whether chunk payloads are byte-backed or size-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Materialization {
    /// Real bytes everywhere (functional tests, examples, restart).
    Bytes,
    /// Size-only payloads (paper-scale performance benches).
    Synthetic,
}

/// The per-process NVM heap.
pub struct NvmHeap {
    process_id: u64,
    dram: MemoryDevice,
    nvm: MemoryDevice,
    container: RegionId,
    arena: Arena,
    chunks: BTreeMap<ChunkId, Chunk>,
    versioning: Versioning,
    materialization: Materialization,
}

impl NvmHeap {
    /// Create a heap for process `process_id`, carving a container of
    /// `container_capacity` bytes out of `nvm`. `dram` and `nvm` must
    /// be two devices ([`MemoryDevice::same_device`]): copies between
    /// working copy and slot hold the DRAM lock around an NVM access.
    pub fn new(
        process_id: u64,
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        container_capacity: usize,
        versioning: Versioning,
        materialization: Materialization,
    ) -> Result<Self, HeapError> {
        let container = match materialization {
            Materialization::Bytes => nvm.alloc(container_capacity)?,
            Materialization::Synthetic => nvm.alloc_synthetic(container_capacity)?,
        };
        Ok(NvmHeap {
            process_id,
            dram: dram.clone(),
            nvm: nvm.clone(),
            container,
            arena: Arena::new(container_capacity),
            chunks: BTreeMap::new(),
            versioning,
            materialization,
        })
    }

    /// The container region on the NVM device.
    pub fn container(&self) -> RegionId {
        self.container
    }

    /// The NVM device backing this heap.
    pub fn nvm(&self) -> &MemoryDevice {
        &self.nvm
    }

    /// The DRAM device backing working copies.
    pub fn dram(&self) -> &MemoryDevice {
        &self.dram
    }

    /// Versioning policy.
    pub fn versioning(&self) -> Versioning {
        self.versioning
    }

    /// Materialization mode.
    pub fn materialization(&self) -> Materialization {
        self.materialization
    }

    /// Arena statistics (NVM space accounting).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Allocate a chunk by name — the paper's
    /// `nvalloc(genid(varname), size, pflg)`.
    pub fn nvmalloc(
        &mut self,
        name: &str,
        len: usize,
        persistent: bool,
    ) -> Result<ChunkId, HeapError> {
        self.nvmalloc_id(genid(name), name, len, persistent)
    }

    /// Allocate with an explicit id (restart path: ids must match the
    /// previous run).
    pub fn nvmalloc_id(
        &mut self,
        id: ChunkId,
        name: &str,
        len: usize,
        persistent: bool,
    ) -> Result<ChunkId, HeapError> {
        if self.chunks.contains_key(&id) {
            return Err(HeapError::AlreadyExists(id));
        }
        let dram_region = match self.materialization {
            Materialization::Bytes => self.dram.alloc(len)?,
            Materialization::Synthetic => self.dram.alloc_synthetic(len)?,
        };
        // Persistent chunks get shadow version extents eagerly — the
        // paper's allocator creates the NVM chunk alongside the DRAM
        // chunk.
        let mut versions: [Option<Extent>; 2] = [None, None];
        if persistent {
            for slot in versions.iter_mut().take(self.versioning.slots()) {
                match self.arena.alloc(len) {
                    Some(ext) => *slot = Some(ext),
                    None => {
                        // Roll back whatever we grabbed.
                        for v in versions.iter().flatten() {
                            self.arena.free(*v);
                        }
                        let _ = self.dram.free(dram_region);
                        return Err(HeapError::OutOfNvm {
                            requested: len,
                            largest_free: self.arena.largest_free(),
                        });
                    }
                }
            }
        }
        self.chunks.insert(
            id,
            Chunk {
                id,
                name: name.to_string(),
                len,
                persistent,
                dram_region,
                versions,
                committed_slot: None,
                checksum: None,
                committed_epoch: 0,
            },
        );
        Ok(id)
    }

    /// 2-D allocation wrapper — the paper's Fortran-facing
    /// `nv2dalloc(dim1, dim2)`.
    pub fn nv2dalloc(
        &mut self,
        name: &str,
        dim1: usize,
        dim2: usize,
        elem_size: usize,
        persistent: bool,
    ) -> Result<ChunkId, HeapError> {
        self.nvmalloc(name, dim1 * dim2 * elem_size, persistent)
    }

    /// Attach existing DRAM data as a checkpoint chunk — the paper's
    /// `nvattach(id, src, size)` for applications (like LAMMPS) whose
    /// data structures are allocated by custom memory managers.
    /// Copies `src` into the working copy.
    pub fn nvattach(&mut self, name: &str, src: &[u8]) -> Result<ChunkId, HeapError> {
        let id = self.nvmalloc(name, src.len(), true)?;
        if self.materialization == Materialization::Bytes {
            let region = self.chunks[&id].dram_region;
            self.dram.write(region, 0, src, 1)?;
        }
        Ok(id)
    }

    /// Grow a chunk — the paper's `nvrealloc(id, src, size)`. Contents
    /// of the working copy are preserved; shadow extents are
    /// re-allocated at the new size (the old committed data is
    /// superseded — the next checkpoint must rewrite everything).
    pub fn nvrealloc(&mut self, id: ChunkId, new_len: usize) -> Result<(), HeapError> {
        let chunk = self.chunks.get(&id).ok_or(HeapError::NoSuchChunk(id))?;
        if new_len <= chunk.len {
            return Ok(()); // shrink is a no-op, like the paper's grow-only realloc
        }
        let old_dram = chunk.dram_region;
        let old_len = chunk.len;
        let persistent = chunk.persistent;
        let old_versions = chunk.versions;

        let new_dram = match self.materialization {
            Materialization::Bytes => {
                let r = self.dram.alloc(new_len)?;
                // Same device on both sides, one hold of its lock: the
                // old bytes are lent, free, and their copy is charged
                // as a write to the new region.
                let mut dram = self.dram.lock();
                let data = dram.lend_views(&[(old_dram, 0, old_len)])?[0].to_vec();
                dram.write(r, 0, &data, 1)?;
                r
            }
            Materialization::Synthetic => self.dram.alloc_synthetic(new_len)?,
        };
        let mut new_versions: [Option<Extent>; 2] = [None, None];
        if persistent {
            for slot in new_versions.iter_mut().take(self.versioning.slots()) {
                match self.arena.alloc(new_len) {
                    Some(ext) => *slot = Some(ext),
                    None => {
                        for v in new_versions.iter().flatten() {
                            self.arena.free(*v);
                        }
                        let _ = self.dram.free(new_dram);
                        return Err(HeapError::OutOfNvm {
                            requested: new_len,
                            largest_free: self.arena.largest_free(),
                        });
                    }
                }
            }
        }
        // Commit the swap.
        for v in old_versions.iter().flatten() {
            self.arena.free(*v);
        }
        self.dram.free(old_dram)?;
        let chunk = self.chunks.get_mut(&id).expect("checked above");
        chunk.dram_region = new_dram;
        chunk.len = new_len;
        chunk.versions = new_versions;
        chunk.committed_slot = None;
        chunk.checksum = None;
        debug_assert!(old_len < new_len);
        Ok(())
    }

    /// Delete a chunk — the paper's `nvdelete`.
    pub fn nvdelete(&mut self, id: ChunkId) -> Result<(), HeapError> {
        let chunk = self.chunks.remove(&id).ok_or(HeapError::NoSuchChunk(id))?;
        for v in chunk.versions.iter().flatten() {
            self.arena.free(*v);
        }
        self.dram.free(chunk.dram_region)?;
        Ok(())
    }

    /// Shadow-copy the working copy into NVM version `slot`, as one of
    /// `concurrency` simultaneous streams, lending the bytes copied to
    /// `lend` while they are in hand (the stage-time checksum). Returns
    /// the NVM-bound cost and what `lend` returned — `None` when there
    /// are no bytes to lend (synthetic).
    pub fn shadow_copy<R>(
        &mut self,
        id: ChunkId,
        slot: u8,
        concurrency: usize,
        lend: impl FnOnce(&[u8]) -> R,
    ) -> Result<(SimDuration, Option<R>), HeapError> {
        let chunk = self.chunks.get(&id).ok_or(HeapError::NoSuchChunk(id))?;
        let ext =
            chunk.versions[slot as usize].ok_or(HeapError::MissingVersion { chunk: id, slot })?;
        Ok(match self.materialization {
            // One copy, working copy to slot, lent under the DRAM lock
            // around the NVM write.
            Materialization::Bytes => {
                let mut dram = self.dram.lock();
                let data = dram.lend_views(&[(chunk.dram_region, 0, chunk.len)])?[0];
                let lent = lend(data);
                let cost = (self.nvm).write(self.container, ext.offset, data, concurrency)?;
                (cost, Some(lent))
            }
            Materialization::Synthetic => {
                let cost =
                    self.nvm
                        .write_synthetic(self.container, ext.offset, chunk.len, concurrency)?;
                (cost, None)
            }
        })
    }

    /// Flush a version slot's bytes from cache to the persistence
    /// domain (done before marking a checkpoint committed).
    pub fn flush_version(&self, id: ChunkId, slot: u8) -> Result<SimDuration, HeapError> {
        let (ext, _) = self.version(id, slot)?;
        Ok(self.nvm.flush(self.container, ext.len)?)
    }

    /// The extent of version `slot` and the chunk's length within it.
    fn version(&self, id: ChunkId, slot: u8) -> Result<(Extent, usize), HeapError> {
        let chunk = self.chunks.get(&id).ok_or(HeapError::NoSuchChunk(id))?;
        let ext =
            chunk.versions[slot as usize].ok_or(HeapError::MissingVersion { chunk: id, slot })?;
        Ok((ext, chunk.len))
    }

    /// Where version `slot` of chunk `id` lies on the NVM device
    /// ([`NvmHeap::nvm`]): `(region, offset, len)`, a range to read,
    /// lend or charge through one [`nvm_emu::DeviceGuard`].
    pub fn version_range(
        &self,
        id: ChunkId,
        slot: u8,
    ) -> Result<(RegionId, usize, usize), HeapError> {
        let (ext, len) = self.version(id, slot)?;
        Ok((self.container, ext.offset, len))
    }

    /// Lend version `slot`'s bytes to `f` for overwriting, without
    /// charging time or device statistics: reconstitutes NVM contents
    /// that survived a process failure inside a durable store (the
    /// store file *is* the surviving medium, so re-loading it is
    /// emulator bookkeeping, not a modeled operation). `f` is expected
    /// to write the whole slice (see [`MemoryDevice::view_mut`]).
    pub fn fill_version<R>(
        &mut self,
        id: ChunkId,
        slot: u8,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, HeapError> {
        let (ext, len) = self.version(id, slot)?;
        Ok(self.nvm.view_mut(self.container, ext.offset, len, f)?)
    }

    /// Copy a committed version back into the working copy (restart):
    /// one copy, slot to working copy, charged as the modeled NVM read
    /// and then the DRAM write.
    pub fn restore_to_dram(&mut self, id: ChunkId) -> Result<SimDuration, HeapError> {
        let chunk = self.chunks.get(&id).ok_or(HeapError::NoSuchChunk(id))?;
        let slot = chunk
            .committed_slot
            .ok_or(HeapError::MissingVersion { chunk: id, slot: 0 })?;
        let (ext, len) = self.version(id, slot)?;
        let read_cost = match self.materialization {
            // DRAM lock, then NVM; the write the view makes is charged
            // to the DRAM device below.
            Materialization::Bytes => self.dram.view_mut(chunk.dram_region, 0, len, |data| {
                self.nvm.read(self.container, ext.offset, data, 1)
            })??,
            Materialization::Synthetic => {
                (self.nvm.lock()).charge_read(self.container, ext.offset, len, 1)?
            }
        };
        let write_cost = self.dram.write_synthetic(chunk.dram_region, 0, len, 1)?;
        Ok(read_cost + write_cost)
    }

    /// Immutable access to a chunk.
    #[inline]
    pub fn chunk(&self, id: ChunkId) -> Result<&Chunk, HeapError> {
        self.chunks.get(&id).ok_or(HeapError::NoSuchChunk(id))
    }

    /// Mutable access to a chunk (the checkpoint engine updates
    /// committed slots/checksums).
    pub fn chunk_mut(&mut self, id: ChunkId) -> Result<&mut Chunk, HeapError> {
        self.chunks.get_mut(&id).ok_or(HeapError::NoSuchChunk(id))
    }

    /// Iterate chunks in id order.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.values()
    }

    /// Ids of persistent chunks only (the checkpoint set).
    pub fn persistent_ids(&self) -> Vec<ChunkId> {
        self.chunks
            .values()
            .filter(|c| c.persistent)
            .map(|c| c.id)
            .collect()
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True if no chunks exist.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total bytes of persistent chunks (the per-process checkpoint
    /// data size `D` in the Section-III model).
    pub fn checkpoint_bytes(&self) -> usize {
        self.chunks
            .values()
            .filter(|c| c.persistent)
            .map(|c| c.len)
            .sum()
    }

    /// Rebuild a heap from persisted metadata after a process restart.
    /// The NVM device (and the container region it holds) survived; the
    /// DRAM working copies did not and are re-allocated empty — the
    /// restart component then calls [`NvmHeap::restore_to_dram`].
    pub fn reopen(
        dram: &MemoryDevice,
        nvm: &MemoryDevice,
        meta: &ProcessMetadata,
        materialization: Materialization,
        versioning: Versioning,
    ) -> Result<Self, HeapError> {
        let container = RegionId(
            meta.container_region
                .ok_or(HeapError::Device(DeviceError::NoSuchRegion(u64::MAX)))?,
        );
        // Verify the container still exists on the device.
        let cap = nvm.region_len(container)?;
        debug_assert_eq!(cap, meta.container_capacity);
        let mut arena = Arena::new(meta.container_capacity);
        let mut chunks = BTreeMap::new();
        for rec in &meta.records {
            let dram_region = match materialization {
                Materialization::Bytes => dram.alloc(rec.len)?,
                Materialization::Synthetic => dram.alloc_synthetic(rec.len)?,
            };
            // Re-reserve the persisted extents. We re-run the arena
            // allocations in record order; extents are persisted, so we
            // carve them by replaying exact offsets.
            let mut versions: [Option<Extent>; 2] = [None, None];
            for (i, v) in rec.versions.iter().enumerate() {
                if let Some((off, len)) = v {
                    versions[i] = Some(Extent {
                        offset: *off as usize,
                        len: *len as usize,
                    });
                }
            }
            for ext in versions.iter().flatten() {
                assert!(
                    arena.reserve(*ext),
                    "corrupt metadata: overlapping extents on reopen ({ext:?})"
                );
            }
            chunks.insert(
                rec.id,
                Chunk {
                    id: rec.id,
                    name: rec.name.clone(),
                    len: rec.len,
                    persistent: rec.persistent,
                    dram_region,
                    versions,
                    committed_slot: rec.committed_slot,
                    checksum: rec.checksum,
                    committed_epoch: rec.committed_epoch,
                },
            );
        }
        Ok(NvmHeap {
            process_id: meta.process_id,
            dram: dram.clone(),
            nvm: nvm.clone(),
            container,
            arena,
            chunks,
            versioning,
            materialization,
        })
    }
}

/// The heap's persistent chunks, lent to a metadata save as they are:
/// a save builds no record and copies no name.
impl ChunkTable for NvmHeap {
    fn process_id(&self) -> u64 {
        self.process_id
    }

    fn container_region(&self) -> Option<u64> {
        Some(self.container.0)
    }

    fn container_capacity(&self) -> usize {
        self.arena.capacity()
    }

    fn records(&self) -> impl Iterator<Item = RecordRef<'_>> {
        // `chunks` is keyed by id: already unique and in order.
        let extent = |e: Option<Extent>| e.map(|e| (e.offset as u64, e.len as u64));
        (self.chunks.values().filter(|c| c.persistent)).map(move |c| RecordRef {
            id: c.id,
            name: &c.name,
            len: c.len,
            persistent: c.persistent,
            versions: [extent(c.versions[0]), extent(c.versions[1])],
            committed_slot: c.committed_slot,
            checksum: c.checksum,
            committed_epoch: c.committed_epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_paging::MetadataRegion;

    const MB: usize = 1 << 20;

    fn devices() -> (MemoryDevice, MemoryDevice) {
        (MemoryDevice::dram(64 * MB), MemoryDevice::pcm(64 * MB))
    }

    fn heap(versioning: Versioning) -> NvmHeap {
        let (dram, nvm) = devices();
        NvmHeap::new(1, &dram, &nvm, 32 * MB, versioning, Materialization::Bytes).unwrap()
    }

    /// The persistent state as an owned table: a copy of what a
    /// [`MetadataRegion`] saves from the heap itself.
    fn export_metadata(h: &NvmHeap) -> ProcessMetadata {
        ProcessMetadata {
            process_id: h.process_id(),
            container_region: h.container_region(),
            container_capacity: h.container_capacity(),
            records: h.records().map(RecordRef::to_record).collect(),
        }
    }

    /// An application write into the working copy at offset 0.
    fn write(h: &NvmHeap, id: ChunkId, data: &[u8]) {
        let region = h.chunk(id).unwrap().dram_region;
        h.dram().write(region, 0, data, 1).unwrap();
    }

    /// An application read of the working copy at offset 0.
    fn read(h: &NvmHeap, id: ChunkId, buf: &mut [u8]) {
        let region = h.chunk(id).unwrap().dram_region;
        h.dram().read(region, 0, buf, 1).unwrap();
    }

    /// Version `slot`'s bytes, lent free of charge and copied out.
    fn version_bytes(h: &NvmHeap, id: ChunkId, slot: u8) -> Result<Vec<u8>, HeapError> {
        let range = h.version_range(id, slot)?;
        Ok(h.nvm().lock().lend_views(&[range])?[0].to_vec())
    }

    #[test]
    fn nvmalloc_creates_dram_and_shadow_pair() {
        let mut h = heap(Versioning::Double);
        let id = h.nvmalloc("electrons", MB, true).unwrap();
        let c = h.chunk(id).unwrap();
        assert_eq!(c.len, MB);
        assert!(c.versions[0].is_some() && c.versions[1].is_some());
        assert_eq!(h.checkpoint_bytes(), MB);
        assert_eq!(h.arena_stats().allocated, 2 * MB);
    }

    #[test]
    fn non_persistent_chunks_take_no_nvm() {
        let mut h = heap(Versioning::Double);
        let id = h.nvmalloc("scratch", MB, false).unwrap();
        let c = h.chunk(id).unwrap();
        assert!(c.versions[0].is_none());
        assert_eq!(h.arena_stats().allocated, 0);
        assert_eq!(h.checkpoint_bytes(), 0);
        assert!(h.persistent_ids().is_empty());
    }

    #[test]
    fn single_versioning_takes_half_the_nvm() {
        let mut h = heap(Versioning::Single);
        h.nvmalloc("x", MB, true).unwrap();
        assert_eq!(h.arena_stats().allocated, MB);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut h = heap(Versioning::Double);
        h.nvmalloc("x", 1024, true).unwrap();
        assert!(matches!(
            h.nvmalloc("x", 1024, true),
            Err(HeapError::AlreadyExists(_))
        ));
    }

    #[test]
    fn write_then_shadow_copy_then_lend_the_version() {
        let mut h = heap(Versioning::Double);
        let id = h.nvmalloc("x", 1024, true).unwrap();
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 256) as u8).collect();
        write(&h, id, &data);
        let (cost, lent) = h.shadow_copy(id, 0, 1, <[u8]>::to_vec).unwrap();
        assert!(!cost.is_zero());
        assert_eq!(lent, Some(data.clone()), "the copy lends what it copies");
        let read = h.nvm().stats();
        assert_eq!(version_bytes(&h, id, 0).unwrap(), data);
        assert_eq!(h.nvm().stats(), read, "a lend is free");
        let (region, offset, len) = h.version_range(id, 0).unwrap();
        let (bytes, cost) = (h.nvm().lock().read_view(region, offset, len, 1))
            .map(|(bytes, cost)| (bytes.to_vec(), cost))
            .unwrap();
        assert_eq!((bytes, cost.is_zero()), (data, false));
        assert_eq!(h.nvm().stats().bytes_read, read.bytes_read + 1024);
    }

    #[test]
    fn fill_version_seeds_a_slot_free_of_charge() {
        let mut h = heap(Versioning::Double);
        let id = h.nvmalloc("x", 5000, true).unwrap();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let before = (h.dram().stats(), h.nvm().stats());
        let seen = h.fill_version(id, 1, |slot| {
            slot.copy_from_slice(&data);
            slot.len()
        });
        assert_eq!(
            seen.unwrap(),
            5000,
            "the slot is lent at the chunk's length"
        );
        assert_eq!((h.dram().stats(), h.nvm().stats()), before);
        assert_eq!(version_bytes(&h, id, 1).unwrap(), data);
        // A slot or a chunk that is not there is a typed error.
        let mut single = heap(Versioning::Single);
        let one = single.nvmalloc("y", 64, true).unwrap();
        assert!(matches!(
            single.fill_version(one, 1, |slot| slot.fill(0)),
            Err(HeapError::MissingVersion { slot: 1, .. })
        ));
        assert!(matches!(
            h.version_range(ChunkId(77), 0),
            Err(HeapError::NoSuchChunk(_))
        ));
    }

    #[test]
    fn nvattach_copies_existing_data() {
        let mut h = heap(Versioning::Double);
        let src = vec![0xABu8; 2048];
        let id = h.nvattach("lammps_custom", &src).unwrap();
        let mut buf = vec![0u8; 2048];
        read(&h, id, &mut buf);
        assert_eq!(buf, src);
    }

    #[test]
    fn nv2dalloc_sizes_correctly() {
        let mut h = heap(Versioning::Double);
        let id = h.nv2dalloc("grid", 100, 50, 8, true).unwrap();
        assert_eq!(h.chunk(id).unwrap().len, 100 * 50 * 8);
    }

    #[test]
    fn nvrealloc_grows_and_preserves_content() {
        let mut h = heap(Versioning::Double);
        let id = h.nvmalloc("x", 1024, true).unwrap();
        write(&h, id, &[7u8; 1024]);
        h.nvrealloc(id, 4096).unwrap();
        let c = h.chunk(id).unwrap();
        assert_eq!(c.len, 4096);
        assert_eq!(c.committed_slot, None, "old commits are invalidated");
        let mut buf = vec![0u8; 1024];
        read(&h, id, &mut buf);
        assert_eq!(buf, vec![7u8; 1024]);
        // shrink is a no-op
        h.nvrealloc(id, 16).unwrap();
        assert_eq!(h.chunk(id).unwrap().len, 4096);
    }

    #[test]
    fn nvdelete_releases_space() {
        let mut h = heap(Versioning::Double);
        let id = h.nvmalloc("x", MB, true).unwrap();
        let before = h.arena_stats().allocated;
        h.nvdelete(id).unwrap();
        assert_eq!(h.arena_stats().allocated, before - 2 * MB);
        assert!(matches!(h.chunk(id), Err(HeapError::NoSuchChunk(_))));
        // id can be reused afterwards
        h.nvmalloc("x", MB, true).unwrap();
    }

    #[test]
    fn out_of_nvm_rolls_back_cleanly() {
        let (dram, nvm) = devices();
        let mut h = NvmHeap::new(
            1,
            &dram,
            &nvm,
            3 * MB,
            Versioning::Double,
            Materialization::Bytes,
        )
        .unwrap();
        // Needs 2*2MB = 4MB > 3MB container.
        let err = h.nvmalloc("big", 2 * MB, true).unwrap_err();
        assert!(matches!(err, HeapError::OutOfNvm { .. }));
        assert_eq!(h.arena_stats().allocated, 0, "rollback must free slot 0");
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn restore_to_dram_roundtrips() {
        let mut h = heap(Versioning::Double);
        let id = h.nvmalloc("x", 512, true).unwrap();
        write(&h, id, &[9u8; 512]);
        h.shadow_copy(id, 1, 1, |_| ()).unwrap();
        h.chunk_mut(id).unwrap().committed_slot = Some(1);
        // clobber the working copy
        write(&h, id, &[0u8; 512]);
        h.restore_to_dram(id).unwrap();
        let mut buf = vec![0u8; 512];
        read(&h, id, &mut buf);
        assert_eq!(buf, vec![9u8; 512]);
    }

    #[test]
    fn restore_to_dram_charges_an_nvm_read_and_a_dram_write() {
        // The restore copies slot -> working copy inside a DRAM write
        // view. Same bytes land in DRAM, and both devices are charged
        // (time, statistics, wear) exactly what the plain `read` +
        // `write` of those bytes charges.
        let run = |plain: bool| {
            let (dram, nvm) = devices();
            let mut h = NvmHeap::new(
                1,
                &dram,
                &nvm,
                32 * MB,
                Versioning::Double,
                Materialization::Bytes,
            )
            .unwrap();
            let id = h.nvmalloc("x", 5000, true).unwrap();
            let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
            write(&h, id, &data);
            h.shadow_copy(id, 1, 1, |_| ()).unwrap();
            h.chunk_mut(id).unwrap().committed_slot = Some(1);
            write(&h, id, &[0u8; 5000]);
            let chunk = h.chunk(id).unwrap();
            let (region, ext) = (chunk.dram_region, chunk.versions[1].unwrap());
            let cost = if plain {
                let mut buf = vec![0u8; 5000];
                let read = nvm.read(h.container(), ext.offset, &mut buf, 1).unwrap();
                read + dram.write(region, 0, &buf, 1).unwrap()
            } else {
                h.restore_to_dram(id).unwrap()
            };
            let mut buf = vec![0u8; 5000];
            read(&h, id, &mut buf);
            assert_eq!(buf, data);
            let wear = dram.max_wear(region).unwrap();
            (cost, dram.stats(), nvm.stats(), wear)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn metadata_export_reopen_roundtrip() {
        let (dram, nvm) = devices();
        let mut h = NvmHeap::new(
            42,
            &dram,
            &nvm,
            32 * MB,
            Versioning::Double,
            Materialization::Bytes,
        )
        .unwrap();
        let a = h.nvmalloc("alpha", 4096, true).unwrap();
        let _scratch = h.nvmalloc("tmp", 4096, false).unwrap();
        let b = h.nvmalloc("beta", 8192, true).unwrap();
        write(&h, a, &[1u8; 4096]);
        h.shadow_copy(a, 0, 1, |_| ()).unwrap();
        h.chunk_mut(a).unwrap().committed_slot = Some(0);

        let meta = export_metadata(&h);
        assert_eq!(meta.records.len(), 2, "only persistent chunks exported");
        drop(h); // process dies; NVM device survives

        let h2 = NvmHeap::reopen(
            &dram,
            &nvm,
            &meta,
            Materialization::Bytes,
            Versioning::Double,
        )
        .unwrap();
        assert_eq!(export_metadata(&h2).process_id, 42);
        assert_eq!(h2.len(), 2);
        let data = version_bytes(&h2, a, 0).unwrap();
        assert_eq!(data, vec![1u8; 4096], "committed bytes survive restart");
        assert_eq!(h2.chunk(b).unwrap().committed_slot, None);
    }

    #[test]
    fn the_live_table_saves_the_bytes_of_its_export() {
        let mut h = heap(Versioning::Double);
        let a = h.nvmalloc("alpha \"quoted\"", 4096, true).unwrap();
        h.nvmalloc("tmp", 4096, false).unwrap();
        h.nvmalloc("beta", 8192, true).unwrap();
        let chunk = h.chunk_mut(a).unwrap();
        (chunk.committed_slot, chunk.checksum, chunk.committed_epoch) = (Some(1), Some(7), 3);
        // Header and payload, and what the save cost.
        let saved = |save: &dyn Fn(&mut MetadataRegion) -> SimDuration| {
            let mut region = MetadataRegion::create(h.nvm()).unwrap();
            let cost = save(&mut region);
            let mut nvm = h.nvm().lock();
            (
                cost,
                nvm.lend_views(&[(region.region(), 0, 4096)]).unwrap()[0].to_vec(),
            )
        };
        let live = saved(&|r| r.save(&h).unwrap());
        assert_eq!(live, saved(&|r| r.save(&export_metadata(&h)).unwrap()));
    }

    #[test]
    fn synthetic_mode_charges_time_without_bytes() {
        let (dram, nvm) = devices();
        let mut h = NvmHeap::new(
            1,
            &dram,
            &nvm,
            32 * MB,
            Versioning::Double,
            Materialization::Synthetic,
        )
        .unwrap();
        let id = h.nvmalloc("big", 8 * MB, true).unwrap();
        let region = h.chunk(id).unwrap().dram_region;
        let wc = h.dram().write_synthetic(region, 0, 8 * MB, 1).unwrap();
        assert!(!wc.is_zero());
        let (cc, lent) = h.shadow_copy(id, 0, 1, <[u8]>::len).unwrap();
        assert!(cc > wc, "NVM copy slower than DRAM write");
        assert_eq!(lent, None, "no bytes to lend");
        assert!(version_bytes(&h, id, 0).is_err(), "no bytes to read back");
    }

    #[test]
    fn shadow_copy_missing_slot_errors() {
        let mut h = heap(Versioning::Single);
        let id = h.nvmalloc("x", 1024, true).unwrap();
        assert!(matches!(
            h.shadow_copy(id, 1, 1, |_| ()),
            Err(HeapError::MissingVersion { .. })
        ));
    }
}
