//! Offset arena for the per-process NVM container.
//!
//! The paper extends jemalloc to manage NVM allocations. Here the NVM
//! container is one large device region per process, and this arena
//! hands out *extents* (offset + length) within it: size-class
//! rounding for small requests, page rounding for large ones, a
//! first-fit free list with split-on-alloc and coalesce-on-free.
//!
//! The arena is deliberately deterministic — identical allocation
//! sequences yield identical layouts — because layouts feed checksums
//! in crash/restart tests.

use nvm_emu::PAGE_SIZE;
use serde::{Deserialize, Serialize};

/// Minimum allocation granule for small objects (jemalloc's smallest
/// size classes are 8/16 bytes; we use 16).
pub const SMALL_GRANULE: usize = 16;

/// Requests at or above this size are rounded to whole pages.
pub const LARGE_THRESHOLD: usize = PAGE_SIZE;

/// A contiguous allocation within the container region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Extent {
    /// Byte offset within the container region.
    pub offset: usize,
    /// Length in bytes (already rounded to the allocation granule).
    pub len: usize,
}

impl Extent {
    /// Exclusive end offset.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// Whether two extents overlap.
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }
}

/// Arena statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArenaStats {
    /// Bytes currently allocated (after rounding).
    pub allocated: usize,
    /// High-water mark of `allocated`.
    pub high_water: usize,
    /// Number of live extents.
    pub live_extents: usize,
    /// Total successful allocations.
    pub total_allocs: u64,
    /// Total frees.
    pub total_frees: u64,
    /// Allocations that failed for lack of space.
    pub failed_allocs: u64,
}

/// First-fit offset allocator with coalescing.
#[derive(Clone, Debug)]
pub struct Arena {
    capacity: usize,
    /// Free extents, sorted by offset, non-adjacent (always coalesced).
    free: Vec<Extent>,
    stats: ArenaStats,
}

/// Round a request to its size class.
pub fn round_size(len: usize) -> usize {
    if len == 0 {
        SMALL_GRANULE
    } else if len >= LARGE_THRESHOLD {
        len.div_ceil(PAGE_SIZE) * PAGE_SIZE
    } else {
        // Quasi-jemalloc small classes: next multiple of the granule up
        // to 128, then next power-of-two fraction spacing.
        if len <= 128 {
            len.div_ceil(SMALL_GRANULE) * SMALL_GRANULE
        } else {
            // Spacing = 1/4 of the containing power of two.
            let pow = usize::BITS - (len - 1).leading_zeros(); // ceil log2
            let space = (1usize << pow) / 4;
            len.div_ceil(space) * space
        }
    }
}

impl Arena {
    /// An arena over `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Arena {
            capacity,
            free: vec![Extent {
                offset: 0,
                len: capacity,
            }],
            stats: ArenaStats::default(),
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes free (sum over free list).
    pub fn free_bytes(&self) -> usize {
        self.free.iter().map(|e| e.len).sum()
    }

    /// Largest single free extent (allocatability differs from
    /// `free_bytes` under fragmentation).
    pub fn largest_free(&self) -> usize {
        self.free.iter().map(|e| e.len).max().unwrap_or(0)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Allocate `len` bytes (rounded to its size class). First-fit.
    pub fn alloc(&mut self, len: usize) -> Option<Extent> {
        let len = round_size(len);
        let idx = self.free.iter().position(|e| e.len >= len);
        match idx {
            None => {
                self.stats.failed_allocs += 1;
                None
            }
            Some(i) => {
                let slot = self.free[i];
                let ext = Extent {
                    offset: slot.offset,
                    len,
                };
                if slot.len == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = Extent {
                        offset: slot.offset + len,
                        len: slot.len - len,
                    };
                }
                self.stats.allocated += len;
                self.stats.high_water = self.stats.high_water.max(self.stats.allocated);
                self.stats.live_extents += 1;
                self.stats.total_allocs += 1;
                Some(ext)
            }
        }
    }

    /// Reserve an exact extent (restart path: persisted layouts are
    /// replayed verbatim). Fails if any byte of the range is taken.
    pub fn reserve(&mut self, ext: Extent) -> bool {
        if ext.len == 0 || ext.end() > self.capacity {
            return false;
        }
        let Some(i) = self
            .free
            .iter()
            .position(|e| e.offset <= ext.offset && ext.end() <= e.end())
        else {
            return false;
        };
        let slot = self.free[i];
        let before = Extent {
            offset: slot.offset,
            len: ext.offset - slot.offset,
        };
        let after = Extent {
            offset: ext.end(),
            len: slot.end() - ext.end(),
        };
        self.free.remove(i);
        if after.len > 0 {
            self.free.insert(i, after);
        }
        if before.len > 0 {
            self.free.insert(i, before);
        }
        self.stats.allocated += ext.len;
        self.stats.high_water = self.stats.high_water.max(self.stats.allocated);
        self.stats.live_extents += 1;
        self.stats.total_allocs += 1;
        true
    }

    /// Return an extent to the arena, coalescing with neighbors.
    ///
    /// Panics on double-free or freeing an extent that overlaps the
    /// free list — both are library bugs.
    pub fn free(&mut self, ext: Extent) {
        assert!(ext.end() <= self.capacity, "extent beyond capacity");
        // Find insertion point by offset.
        let pos = self.free.partition_point(|e| e.offset < ext.offset);
        if let Some(prev) = pos.checked_sub(1).map(|p| &self.free[p]) {
            assert!(
                prev.end() <= ext.offset,
                "double free / overlap with previous free extent"
            );
        }
        if let Some(next) = self.free.get(pos) {
            assert!(
                ext.end() <= next.offset,
                "double free / overlap with next free extent"
            );
        }
        self.stats.allocated -= ext.len;
        self.stats.live_extents -= 1;
        self.stats.total_frees += 1;

        let merge_prev = pos > 0 && self.free[pos - 1].end() == ext.offset;
        let merge_next = pos < self.free.len() && self.free[pos].offset == ext.end();
        match (merge_prev, merge_next) {
            (true, true) => {
                self.free[pos - 1].len += ext.len + self.free[pos].len;
                self.free.remove(pos);
            }
            (true, false) => self.free[pos - 1].len += ext.len,
            (false, true) => {
                self.free[pos].offset = ext.offset;
                self.free[pos].len += ext.len;
            }
            (false, false) => self.free.insert(pos, ext),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn size_classes() {
        assert_eq!(round_size(0), SMALL_GRANULE);
        assert_eq!(round_size(1), 16);
        assert_eq!(round_size(16), 16);
        assert_eq!(round_size(17), 32);
        assert_eq!(round_size(128), 128);
        assert_eq!(round_size(129), 192); // 256/4 = 64 spacing
        assert_eq!(round_size(4095), 4096);
        assert_eq!(round_size(4096), PAGE_SIZE);
        assert_eq!(round_size(4097), 2 * PAGE_SIZE);
        assert_eq!(round_size(10 * PAGE_SIZE), 10 * PAGE_SIZE);
    }

    #[test]
    fn alloc_free_coalesce() {
        let mut a = Arena::new(10 * PAGE_SIZE);
        let x = a.alloc(PAGE_SIZE).unwrap();
        let y = a.alloc(PAGE_SIZE).unwrap();
        let z = a.alloc(PAGE_SIZE).unwrap();
        assert_eq!(a.stats().live_extents, 3);
        assert_eq!(a.free_bytes(), 7 * PAGE_SIZE);
        // Free middle then neighbors: must coalesce back to one block.
        a.free(y);
        a.free(x);
        a.free(z);
        assert_eq!(a.free_bytes(), 10 * PAGE_SIZE);
        assert_eq!(a.largest_free(), 10 * PAGE_SIZE);
    }

    #[test]
    fn first_fit_reuses_holes() {
        let mut a = Arena::new(10 * PAGE_SIZE);
        let x = a.alloc(2 * PAGE_SIZE).unwrap();
        let _y = a.alloc(2 * PAGE_SIZE).unwrap();
        a.free(x);
        let z = a.alloc(PAGE_SIZE).unwrap();
        assert_eq!(z.offset, 0, "first fit should reuse the hole");
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        let mut a = Arena::new(2 * PAGE_SIZE);
        assert!(a.alloc(PAGE_SIZE).is_some());
        assert!(a.alloc(PAGE_SIZE).is_some());
        assert!(a.alloc(1).is_none());
        assert_eq!(a.stats().failed_allocs, 1);
    }

    #[test]
    fn fragmentation_blocks_large_allocs() {
        let mut a = Arena::new(4 * PAGE_SIZE);
        let x = a.alloc(PAGE_SIZE).unwrap();
        let _y = a.alloc(PAGE_SIZE).unwrap();
        let z = a.alloc(PAGE_SIZE).unwrap();
        a.free(x);
        // Two non-adjacent pages free + one tail page: 3 pages free
        // but the largest contiguous run is 2 (z + tail).
        a.free(z);
        assert_eq!(a.free_bytes(), 3 * PAGE_SIZE);
        assert_eq!(a.largest_free(), 2 * PAGE_SIZE);
        assert!(a.alloc(3 * PAGE_SIZE).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = Arena::new(4 * PAGE_SIZE);
        let x = a.alloc(PAGE_SIZE).unwrap();
        a.free(x);
        a.free(x);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut a = Arena::new(8 * PAGE_SIZE);
        let x = a.alloc(4 * PAGE_SIZE).unwrap();
        a.free(x);
        let _ = a.alloc(PAGE_SIZE).unwrap();
        assert_eq!(a.stats().high_water, 4 * PAGE_SIZE);
        assert_eq!(a.stats().allocated, PAGE_SIZE);
    }

    #[test]
    fn reserve_carves_exact_ranges() {
        let mut a = Arena::new(10 * PAGE_SIZE);
        assert!(a.reserve(Extent {
            offset: 3 * PAGE_SIZE,
            len: 2 * PAGE_SIZE
        }));
        // Overlapping reservation fails.
        assert!(!a.reserve(Extent {
            offset: 4 * PAGE_SIZE,
            len: PAGE_SIZE
        }));
        // Beyond capacity fails.
        assert!(!a.reserve(Extent {
            offset: 9 * PAGE_SIZE,
            len: 2 * PAGE_SIZE
        }));
        // Zero-length fails.
        assert!(!a.reserve(Extent { offset: 0, len: 0 }));
        // Allocation skips the reserved hole.
        let x = a.alloc(4 * PAGE_SIZE).unwrap();
        assert!(!x.overlaps(&Extent {
            offset: 3 * PAGE_SIZE,
            len: 2 * PAGE_SIZE
        }));
        assert_eq!(a.stats().allocated, 6 * PAGE_SIZE);
    }

    proptest! {
        /// Reserving any set of disjoint extents succeeds and keeps
        /// the accounting exact.
        #[test]
        fn disjoint_reserves_always_fit(
            offsets in proptest::collection::btree_set(0usize..250, 1..20)
        ) {
            let mut a = Arena::new(256 * PAGE_SIZE);
            let mut reserved = 0;
            for &o in &offsets {
                let ext = Extent { offset: o * PAGE_SIZE, len: PAGE_SIZE };
                prop_assert!(a.reserve(ext), "reserve {ext:?}");
                reserved += PAGE_SIZE;
            }
            prop_assert_eq!(a.stats().allocated, reserved);
            prop_assert_eq!(a.free_bytes(), 256 * PAGE_SIZE - reserved);
        }

        /// No two live extents ever overlap; free bytes + allocated
        /// bytes always equals capacity.
        #[test]
        fn live_extents_never_overlap(ops in proptest::collection::vec(0usize..8192, 1..120)) {
            let mut a = Arena::new(1 << 22);
            let mut live: Vec<Extent> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let ext = live.swap_remove(op % live.len());
                    a.free(ext);
                } else if let Some(ext) = a.alloc(*op) {
                    for other in &live {
                        prop_assert!(!ext.overlaps(other), "overlap: {ext:?} vs {other:?}");
                    }
                    live.push(ext);
                }
                let alloc_sum: usize = live.iter().map(|e| e.len).sum();
                prop_assert_eq!(alloc_sum, a.stats().allocated);
                prop_assert_eq!(a.free_bytes() + alloc_sum, a.capacity());
            }
            // Free everything: arena must return to a single extent.
            for e in live.drain(..) {
                a.free(e);
            }
            prop_assert_eq!(a.largest_free(), a.capacity());
        }
    }
}
