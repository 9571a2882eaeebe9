//! Write-protection and fault-cost model (the MMU).
//!
//! Pre-copy relies on hardware paging: after a chunk is pre-copied to
//! NVM its pages are write-protected, and the next application write
//! faults, marking the chunk dirty again. The paper measures a page
//! protection fault at **6-12 µs** and argues that page-granularity
//! protection would cost ~3 s per GB of fully-rewritten data — hence
//! *chunk-level* protection: one fault re-opens (and re-dirties) the
//! whole chunk.
//!
//! [`Mmu`] implements both granularities; the page-level mode exists
//! for the paper's implied ablation (`bench/ablation_granularity`).

use crate::page::PageMap;
use crate::ChunkId;
use nvm_emu::idmap::IdMap;
use nvm_emu::SimDuration;
use serde::{Deserialize, Serialize};

/// Protection/dirty-tracking granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// One fault re-opens the whole chunk (the paper's design).
    Chunk,
    /// Each page faults individually (transparent-checkpoint style).
    Page,
}

/// Cost model for a protection fault. The paper cites 6-12 µs per
/// fault; the cost is deterministic in the fault index so simulations
/// are reproducible while still spanning the measured range.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCostModel {
    /// Cheapest observed fault.
    pub min: SimDuration,
    /// Most expensive observed fault.
    pub max: SimDuration,
}

impl Default for FaultCostModel {
    fn default() -> Self {
        FaultCostModel {
            min: SimDuration::from_micros(6),
            max: SimDuration::from_micros(12),
        }
    }
}

impl FaultCostModel {
    /// Cost of the `index`-th fault: a deterministic triangle sweep of
    /// [min, max].
    pub fn cost(&self, index: u64) -> SimDuration {
        let span = self.max.as_nanos().saturating_sub(self.min.as_nanos());
        if span == 0 {
            return self.min;
        }
        // Triangle wave with period 16 faults.
        let phase = index % 16;
        let up = if phase <= 8 { phase } else { 16 - phase };
        SimDuration::from_nanos(self.min.as_nanos() + span * up / 8)
    }
}

/// Counters kept by the MMU.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtectionStats {
    /// Total protection faults delivered.
    pub faults: u64,
    /// Total virtual time spent in fault handling.
    pub fault_time: SimDuration,
    /// Application write events observed.
    pub write_events: u64,
}

/// Result of recording one application write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Protection faults this write triggered.
    pub faults: usize,
    /// Virtual-time cost of those faults.
    pub cost: SimDuration,
    /// True if the chunk transitioned clean -> dirty (the engine uses
    /// this to requeue the chunk for pre-copy).
    pub chunk_newly_dirty: bool,
}

/// Per-process MMU model: registered chunks, their page maps, the
/// protection granularity and fault accounting.
#[derive(Clone, Debug)]
pub struct Mmu {
    granularity: Granularity,
    fault_cost: FaultCostModel,
    chunks: IdMap<ChunkId, PageMap>,
    stats: ProtectionStats,
}

impl Mmu {
    /// An MMU with the paper's chunk-level granularity and default
    /// fault costs.
    pub fn new() -> Self {
        Self::with_granularity(Granularity::Chunk)
    }

    /// An MMU with an explicit granularity.
    pub fn with_granularity(granularity: Granularity) -> Self {
        Mmu {
            granularity,
            fault_cost: FaultCostModel::default(),
            chunks: IdMap::default(),
            stats: ProtectionStats::default(),
        }
    }

    /// Register a chunk of `pages` pages. New chunks start fully dirty:
    /// nothing has been checkpointed yet.
    pub fn register_chunk(&mut self, id: ChunkId, pages: usize) {
        let mut map = PageMap::new(pages.max(1));
        map.mark_written(0, map.len());
        self.chunks.insert(id, map);
    }

    /// Remove a chunk (the paper's `nvdelete`).
    pub fn unregister_chunk(&mut self, id: ChunkId) -> bool {
        self.chunks.remove(&id).is_some()
    }

    /// Grow a chunk to `pages` pages (`nvrealloc`).
    pub fn grow_chunk(&mut self, id: ChunkId, pages: usize) {
        if let Some(m) = self.chunks.get_mut(&id) {
            m.grow(pages);
        }
    }

    /// Record an application write of pages `[first, first+count)` of
    /// chunk `id`. Delivers protection faults per the granularity and
    /// returns their cost.
    ///
    /// One chunk lookup, then O(1) in the chunk's page count while its
    /// pages agree (every whole-chunk write, every write into a chunk
    /// that is already all dirty, every chunk-granularity fault);
    /// O(`count`) once they have diverged; O(pages) only for the
    /// partial write that makes them diverge — see [`crate::page`].
    ///
    /// Panics if the chunk is unknown — that is a checkpoint-library
    /// bug, not a recoverable condition.
    pub fn record_write(&mut self, id: ChunkId, first: usize, count: usize) -> WriteOutcome {
        let map = self
            .chunks
            .get_mut(&id)
            .unwrap_or_else(|| panic!("write to unregistered chunk {id:?}"));
        self.stats.write_events += 1;
        let was_dirty = map.any_dirty();
        let faults = match self.granularity {
            // One fault if any page in the written range traps; the
            // handler unprotects the *entire* chunk and marks it all
            // dirty (the paper's chunk-level scheme).
            Granularity::Chunk if map.any_protected_in(first, count) => {
                map.mark_written(0, map.len());
                1
            }
            Granularity::Chunk => {
                map.mark_written(first, count);
                0
            }
            Granularity::Page => map.mark_written(first, count),
        };
        let mut cost = SimDuration::ZERO;
        for _ in 0..faults {
            cost += self.fault_cost.cost(self.stats.faults);
            self.stats.faults += 1;
        }
        self.stats.fault_time += cost;
        WriteOutcome {
            faults,
            cost,
            chunk_newly_dirty: !was_dirty && map.any_dirty(),
        }
    }

    /// Write-protect a chunk (after its pre-copy completes) and clear
    /// its local dirty bits.
    pub fn protect_after_precopy(&mut self, id: ChunkId) {
        if let Some(m) = self.chunks.get_mut(&id) {
            m.clear_dirty();
            m.protect_all();
        }
    }

    /// Clear local dirty state without protecting (used at coordinated
    /// checkpoint completion when no further pre-copy will run).
    pub fn clear_local_dirty(&mut self, id: ChunkId) {
        if let Some(m) = self.chunks.get_mut(&id) {
            m.clear_dirty();
        }
    }

    /// Clear the remote (`nvdirty`) bits after a remote copy of the
    /// chunk. Never faults: the helper reads dirty state through the
    /// `nvdirty` syscall interface, not through protection.
    pub fn clear_remote_dirty(&mut self, id: ChunkId) {
        if let Some(m) = self.chunks.get_mut(&id) {
            m.clear_nvdirty();
        }
    }

    /// Is the chunk locally dirty (needs local pre-copy/checkpoint)?
    pub fn is_dirty(&self, id: ChunkId) -> bool {
        self.chunks.get(&id).is_some_and(|m| m.any_dirty())
    }

    /// Is the chunk remotely dirty (needs remote pre-copy/checkpoint)?
    pub fn is_nvdirty(&self, id: ChunkId) -> bool {
        self.chunks.get(&id).is_some_and(|m| m.any_nvdirty())
    }

    /// Locally dirty page count of a chunk (page-granularity copies).
    pub fn dirty_pages(&self, id: ChunkId) -> usize {
        self.chunks.get(&id).map_or(0, |m| m.dirty_pages())
    }

    /// `nvdirty` page count of a chunk.
    pub fn nvdirty_pages(&self, id: ChunkId) -> usize {
        self.chunks.get(&id).map_or(0, |m| m.nvdirty_pages())
    }

    /// Ids of all remotely dirty chunks.
    pub fn nvdirty_chunks(&self) -> Vec<ChunkId> {
        let mut v: Vec<ChunkId> = self
            .chunks
            .iter()
            .filter(|(_, m)| m.any_nvdirty())
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// Fault/write counters.
    pub fn stats(&self) -> ProtectionStats {
        self.stats
    }
}

impl Default for Mmu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ChunkId {
        ChunkId(n)
    }

    #[test]
    fn fault_cost_spans_measured_range() {
        let m = FaultCostModel::default();
        for i in 0..64 {
            let c = m.cost(i);
            assert!(c >= m.min && c <= m.max, "fault {i} cost {c} out of range");
        }
        // Both extremes are hit.
        assert!((0..16).any(|i| m.cost(i) == m.min));
        assert!((0..16).any(|i| m.cost(i) == m.max));
    }

    #[test]
    fn new_chunk_starts_dirty() {
        let mut mmu = Mmu::new();
        mmu.register_chunk(id(1), 4);
        assert!(mmu.is_dirty(id(1)));
        assert!(mmu.is_nvdirty(id(1)));
    }

    #[test]
    fn chunk_granularity_single_fault_reopens_whole_chunk() {
        let mut mmu = Mmu::new();
        mmu.register_chunk(id(1), 100);
        mmu.protect_after_precopy(id(1));
        assert!(!mmu.is_dirty(id(1)));

        // Touch one page: exactly one fault, whole chunk dirty again.
        let out = mmu.record_write(id(1), 42, 1);
        assert_eq!(out.faults, 1);
        assert!(out.chunk_newly_dirty);
        assert_eq!(mmu.dirty_pages(id(1)), 100);

        // Touch more pages: no further faults (protection is gone).
        let out2 = mmu.record_write(id(1), 0, 50);
        assert_eq!(out2.faults, 0);
        assert!(!out2.chunk_newly_dirty);
        assert_eq!(mmu.stats().faults, 1);
    }

    #[test]
    fn page_granularity_faults_per_page() {
        let mut mmu = Mmu::with_granularity(Granularity::Page);
        mmu.register_chunk(id(1), 100);
        mmu.protect_after_precopy(id(1));
        let out = mmu.record_write(id(1), 0, 10);
        assert_eq!(out.faults, 10);
        assert_eq!(mmu.dirty_pages(id(1)), 10, "only written pages dirty");
        // Re-writing the same pages: no protection left on them.
        let out2 = mmu.record_write(id(1), 0, 10);
        assert_eq!(out2.faults, 0);
        // A different page still faults.
        let out3 = mmu.record_write(id(1), 50, 1);
        assert_eq!(out3.faults, 1);
        assert_eq!(mmu.stats().faults, 11);
    }

    #[test]
    fn page_granularity_fault_storm_costs_more_than_chunk() {
        // The argument for chunk granularity: full-rewrite workloads.
        let pages = 1000;
        let mut chunk_mmu = Mmu::new();
        let mut page_mmu = Mmu::with_granularity(Granularity::Page);
        for m in [&mut chunk_mmu, &mut page_mmu] {
            m.register_chunk(id(1), pages);
            m.protect_after_precopy(id(1));
        }
        let c = chunk_mmu.record_write(id(1), 0, pages);
        let p = page_mmu.record_write(id(1), 0, pages);
        assert_eq!(c.faults, 1);
        assert_eq!(p.faults, pages);
        assert!(p.cost.as_nanos() > 100 * c.cost.as_nanos());
    }

    #[test]
    fn remote_dirty_is_independent_of_local() {
        let mut mmu = Mmu::new();
        mmu.register_chunk(id(1), 4);
        mmu.protect_after_precopy(id(1)); // clears local only
        assert!(!mmu.is_dirty(id(1)));
        assert!(mmu.is_nvdirty(id(1)), "remote copy not yet done");
        mmu.clear_remote_dirty(id(1));
        assert!(!mmu.is_nvdirty(id(1)));

        mmu.record_write(id(1), 0, 1);
        assert!(mmu.is_dirty(id(1)));
        assert!(mmu.is_nvdirty(id(1)));
    }

    #[test]
    fn dirty_chunk_listing_is_sorted_and_filtered() {
        let mut mmu = Mmu::new();
        for n in [5u64, 1, 3] {
            mmu.register_chunk(id(n), 2);
        }
        mmu.protect_after_precopy(id(3));
        assert_eq!(mmu.nvdirty_chunks(), vec![id(1), id(3), id(5)]);
    }

    #[test]
    fn unregister_and_grow() {
        let mut mmu = Mmu::new();
        mmu.register_chunk(id(1), 2);
        mmu.protect_after_precopy(id(1));
        mmu.clear_remote_dirty(id(1));
        mmu.grow_chunk(id(1), 6);
        assert!(mmu.is_dirty(id(1)), "grown pages arrive dirty");
        assert!(mmu.unregister_chunk(id(1)));
        assert!(!mmu.unregister_chunk(id(1)));
        assert!(!mmu.is_dirty(id(1)));
    }

    /// The sequences the cluster and kv workloads produce cost the
    /// same on a chunk of any size: this one has 2^36 pages, so a
    /// single walk of them (or one materialized map: 256 GiB) would
    /// not return.
    #[test]
    fn write_path_does_not_depend_on_chunk_size() {
        const PAGES: usize = 1 << 36;
        let mut mmu = Mmu::new();
        mmu.register_chunk(id(1), PAGES);
        let whole = mmu.record_write(id(1), 0, PAGES);
        assert_eq!((whole.faults, whole.chunk_newly_dirty), (0, false));
        mmu.protect_after_precopy(id(1));
        assert!(!mmu.is_dirty(id(1)));

        let fault = mmu.record_write(id(1), PAGES - 1, 1);
        assert_eq!((fault.faults, fault.chunk_newly_dirty), (1, true));
        assert_eq!(mmu.dirty_pages(id(1)), PAGES, "the fault re-opens it all");
        let again = mmu.record_write(id(1), 12_345, 1);
        assert_eq!((again.faults, again.chunk_newly_dirty), (0, false));
        let whole = mmu.record_write(id(1), 0, PAGES);
        assert_eq!((whole.faults, whole.chunk_newly_dirty), (0, false));

        mmu.clear_remote_dirty(id(1));
        assert!(mmu.is_dirty(id(1)) && !mmu.is_nvdirty(id(1)));
        assert_eq!(mmu.dirty_pages(id(1)), PAGES);
        assert_eq!(mmu.nvdirty_pages(id(1)), 0);
        assert_eq!(mmu.stats().faults, 1);
    }

    #[test]
    #[should_panic(expected = "unregistered chunk")]
    fn write_to_unknown_chunk_panics() {
        let mut mmu = Mmu::new();
        mmu.record_write(id(99), 0, 1);
    }

    #[test]
    fn write_to_unprotected_clean_chunk_marks_newly_dirty() {
        let mut mmu = Mmu::new();
        mmu.register_chunk(id(1), 4);
        // simulate a coordinated checkpoint that clears dirty without
        // re-protecting (no further pre-copy planned)
        mmu.clear_local_dirty(id(1));
        assert!(!mmu.is_dirty(id(1)));
        let out = mmu.record_write(id(1), 0, 1);
        assert_eq!(out.faults, 0);
        assert!(out.chunk_newly_dirty, "engine must requeue this chunk");
        assert!(mmu.is_dirty(id(1)));
    }
}
