//! Per-page state tracking.
//!
//! The paper's kernel manager keeps page-level state for every NVM page
//! of a process: standard protection bits for the pre-copy fault path,
//! plus an extra `nvdirty` bit (queried via a system call) that lets
//! the remote-checkpoint helper find modified pages *without* taking
//! protection faults. [`PageMap`] models that per-chunk page-state
//! array.
//!
//! Representation: HPC checkpoint chunks are overwhelmingly touched as
//! whole chunks (the premise of chunk-level protection), so the map
//! keeps a `Uniform` fast path — one flag word standing for every page
//! — and only materializes a per-page vector when a *partial* write
//! makes pages diverge. Full-chunk operations are O(1) regardless of
//! chunk size, which is what makes paper-scale runs (hundreds of
//! thousands of pages per chunk) cheap.

use serde::{Deserialize, Serialize};

/// Flags carried by one page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageFlags {
    /// Page is mapped.
    pub present: bool,
    /// Writes trap (pre-copy protection).
    pub write_protected: bool,
    /// Page was written since the last local checkpoint/pre-copy.
    pub dirty: bool,
    /// Page was written since the last *remote* checkpoint/pre-copy —
    /// the paper's `nvdirty` bit, tracked separately so local and
    /// remote pre-copy cycles don't clobber each other.
    pub nvdirty: bool,
}

#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum Repr {
    /// Every page carries these flags.
    Uniform(PageFlags),
    /// Pages diverge; one entry per page.
    Mixed(Vec<PageFlags>),
}

/// Page-state array for one chunk's pages.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageMap {
    len: usize,
    repr: Repr,
}

impl PageMap {
    /// A map of `pages` present, unprotected, clean pages.
    pub fn new(pages: usize) -> Self {
        PageMap {
            len: pages,
            repr: Repr::Uniform(PageFlags {
                present: true,
                ..PageFlags::default()
            }),
        }
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map tracks zero pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flags of page `i`.
    pub fn get(&self, i: usize) -> PageFlags {
        assert!(i < self.len, "page index {i} out of {}", self.len);
        match &self.repr {
            Repr::Uniform(f) => *f,
            Repr::Mixed(v) => v[i],
        }
    }

    fn materialize(&mut self) -> &mut Vec<PageFlags> {
        if let Repr::Uniform(f) = self.repr {
            self.repr = Repr::Mixed(vec![f; self.len]);
        }
        match &mut self.repr {
            Repr::Mixed(v) => v,
            Repr::Uniform(_) => unreachable!(),
        }
    }

    /// Collapse back to `Uniform` if all pages agree (keeps later bulk
    /// operations O(1)).
    fn normalize(&mut self) {
        if let Repr::Mixed(v) = &self.repr {
            if let Some(first) = v.first() {
                if v.iter().all(|f| f == first) {
                    self.repr = Repr::Uniform(*first);
                }
            }
        }
    }

    fn for_all(&mut self, f: impl Fn(&mut PageFlags)) {
        match &mut self.repr {
            Repr::Uniform(u) => f(u),
            Repr::Mixed(v) => {
                for p in v.iter_mut() {
                    f(p);
                }
            }
        }
        self.normalize();
    }

    /// Write-protect every page.
    pub fn protect_all(&mut self) {
        self.for_all(|f| f.write_protected = true);
    }

    /// Remove write protection from every page.
    pub fn unprotect_all(&mut self) {
        self.for_all(|f| f.write_protected = false);
    }

    /// Mark pages `[first, first+count)` written: sets `dirty` and
    /// `nvdirty`, clears protection. Returns how many of them were
    /// write-protected (i.e. how many faults page-granularity
    /// protection would have taken).
    pub fn mark_written(&mut self, first: usize, count: usize) -> usize {
        assert!(
            first.checked_add(count).is_some_and(|end| end <= self.len),
            "range [{first}, {first}+{count}) out of {} pages",
            self.len
        );
        if count == self.len {
            // Whole-chunk write: O(1) on the uniform path.
            let faulted = self.protected_pages();
            self.repr = Repr::Uniform(PageFlags {
                present: true,
                write_protected: false,
                dirty: true,
                nvdirty: true,
            });
            return faulted;
        }
        let v = self.materialize();
        let mut faulted = 0;
        for f in &mut v[first..first + count] {
            if f.write_protected {
                faulted += 1;
                f.write_protected = false;
            }
            f.dirty = true;
            f.nvdirty = true;
        }
        self.normalize();
        faulted
    }

    /// Clear the local dirty bit on all pages (after a local
    /// checkpoint/pre-copy of the chunk).
    pub fn clear_dirty(&mut self) {
        self.for_all(|f| f.dirty = false);
    }

    /// Clear the `nvdirty` bit on all pages (after a remote
    /// checkpoint/pre-copy of the chunk).
    pub fn clear_nvdirty(&mut self) {
        self.for_all(|f| f.nvdirty = false);
    }

    fn count(&self, pred: impl Fn(&PageFlags) -> bool) -> usize {
        match &self.repr {
            Repr::Uniform(f) => {
                if pred(f) {
                    self.len
                } else {
                    0
                }
            }
            Repr::Mixed(v) => v.iter().filter(|f| pred(f)).count(),
        }
    }

    /// Count of locally dirty pages.
    pub fn dirty_pages(&self) -> usize {
        self.count(|f| f.dirty)
    }

    /// Count of `nvdirty` pages.
    pub fn nvdirty_pages(&self) -> usize {
        self.count(|f| f.nvdirty)
    }

    /// Count of write-protected pages.
    pub fn protected_pages(&self) -> usize {
        self.count(|f| f.write_protected)
    }

    /// True if any page is locally dirty.
    pub fn any_dirty(&self) -> bool {
        match &self.repr {
            Repr::Uniform(f) => f.dirty && self.len > 0,
            Repr::Mixed(v) => v.iter().any(|f| f.dirty),
        }
    }

    /// True if any page is `nvdirty`.
    pub fn any_nvdirty(&self) -> bool {
        match &self.repr {
            Repr::Uniform(f) => f.nvdirty && self.len > 0,
            Repr::Mixed(v) => v.iter().any(|f| f.nvdirty),
        }
    }

    /// Grow the map to `pages` pages (e.g. after `nvrealloc`). New pages
    /// arrive dirty: they have never been checkpointed.
    pub fn grow(&mut self, pages: usize) {
        if pages <= self.len {
            return;
        }
        let fresh = PageFlags {
            present: true,
            dirty: true,
            nvdirty: true,
            ..PageFlags::default()
        };
        match &mut self.repr {
            Repr::Uniform(f) if *f == fresh => {
                // still uniform
            }
            _ => {
                let v = self.materialize();
                v.resize(pages, fresh);
            }
        }
        self.len = pages;
        if let Repr::Mixed(v) = &mut self.repr {
            v.resize(pages, fresh);
        }
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_clean_and_unprotected() {
        let m = PageMap::new(8);
        assert_eq!(m.len(), 8);
        assert_eq!(m.dirty_pages(), 0);
        assert_eq!(m.protected_pages(), 0);
        assert!(!m.any_dirty());
    }

    #[test]
    fn write_sets_both_dirty_bits_and_clears_protection() {
        let mut m = PageMap::new(4);
        m.protect_all();
        let faults = m.mark_written(1, 2);
        assert_eq!(faults, 2);
        assert_eq!(m.dirty_pages(), 2);
        assert_eq!(m.nvdirty_pages(), 2);
        assert_eq!(m.protected_pages(), 2); // pages 0 and 3 still protected
                                            // second write to same range: no protection left, no faults
        assert_eq!(m.mark_written(1, 2), 0);
    }

    #[test]
    fn dirty_bits_are_independent() {
        let mut m = PageMap::new(4);
        m.mark_written(0, 4);
        m.clear_dirty();
        assert_eq!(m.dirty_pages(), 0);
        assert_eq!(m.nvdirty_pages(), 4, "remote bit survives local clear");
        m.clear_nvdirty();
        assert_eq!(m.nvdirty_pages(), 0);
    }

    #[test]
    fn grow_adds_dirty_pages() {
        let mut m = PageMap::new(2);
        m.grow(5);
        assert_eq!(m.len(), 5);
        assert_eq!(m.dirty_pages(), 3, "new pages must be checkpointed");
        // shrink request is a no-op
        m.grow(1);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn grow_on_fully_dirty_map_stays_uniform() {
        let mut m = PageMap::new(2);
        m.mark_written(0, 2);
        m.grow(1000);
        assert_eq!(m.dirty_pages(), 1000);
        assert!(matches!(m.repr, Repr::Uniform(_)), "fast path retained");
    }

    #[test]
    #[should_panic]
    fn mark_written_out_of_range_panics() {
        let mut m = PageMap::new(2);
        m.mark_written(1, 5);
    }

    #[test]
    #[should_panic]
    fn mark_written_overflow_panics() {
        let mut m = PageMap::new(2);
        m.mark_written(usize::MAX, 2);
    }

    #[test]
    fn full_chunk_write_is_uniform_and_counts_faults() {
        let mut m = PageMap::new(100_000);
        m.protect_all();
        assert!(matches!(m.repr, Repr::Uniform(_)));
        let faults = m.mark_written(0, 100_000);
        assert_eq!(faults, 100_000);
        assert!(matches!(m.repr, Repr::Uniform(_)), "no materialization");
        assert_eq!(m.dirty_pages(), 100_000);
    }

    #[test]
    fn partial_then_full_write_renormalizes() {
        let mut m = PageMap::new(16);
        m.protect_all();
        m.mark_written(3, 1); // diverges -> Mixed
        assert!(matches!(m.repr, Repr::Mixed(_)));
        m.mark_written(0, 16); // full write -> Uniform again
        assert!(matches!(m.repr, Repr::Uniform(_)));
        assert_eq!(m.dirty_pages(), 16);
    }

    #[test]
    fn mixed_and_uniform_agree_on_counts() {
        // The same operation sequence applied through partial writes
        // (Mixed) and whole writes (Uniform) must agree with a naive
        // model.
        let mut m = PageMap::new(10);
        m.protect_all();
        m.mark_written(0, 3);
        m.mark_written(7, 3);
        assert_eq!(m.dirty_pages(), 6);
        assert_eq!(m.protected_pages(), 4);
        m.clear_dirty();
        m.protect_all();
        assert_eq!(m.protected_pages(), 10);
        assert!(!m.any_dirty());
        assert!(m.any_nvdirty());
    }

    #[test]
    fn get_reflects_state() {
        let mut m = PageMap::new(4);
        m.protect_all();
        m.mark_written(1, 1);
        assert!(!m.get(1).write_protected);
        assert!(m.get(1).dirty);
        assert!(m.get(0).write_protected);
        assert!(!m.get(0).dirty);
    }
}
