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
//! makes pages diverge. Beside either representation it caches how many
//! pages are dirty, `nvdirty` and write-protected; the map is uniform
//! exactly when each count is 0 or `len`.
//!
//! Cost of each operation, in the chunk's page count:
//!
//! | operation | uniform map | diverged map |
//! |---|---|---|
//! | `any_*`, `*_pages`, `len`, `get` | O(1) | O(1) — a cached count |
//! | `any_protected_in(range)` | O(1) | O(1) when no page is protected, else O(range) |
//! | `mark_written`, whole chunk | O(1) | O(1) — the vector is dropped, not read |
//! | `mark_written`, part, map already all written | O(1) | — (such a map is uniform) |
//! | `mark_written`, part, otherwise | **O(pages)**: the first divergence builds the vector | O(range) |
//! | `protect_all`, `unprotect_all`, `clear_dirty`, `clear_nvdirty` | O(1) | **O(pages)**: once per stage or commit, next to a copy of the same chunk |
//! | `grow` | O(1) when all written, else **O(pages)** | O(new pages) |
//!
//! Nothing on the uniform path allocates, so a paper-scale chunk
//! (hundreds of thousands of pages) that is only ever written whole
//! costs the same as a one-page chunk.

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

/// A page an application write just landed on (and every page of a
/// grown range: never checkpointed).
const WRITTEN: PageFlags = PageFlags {
    present: true,
    write_protected: false,
    dirty: true,
    nvdirty: true,
};

#[derive(Clone, Debug, PartialEq, Eq)]
enum Repr {
    /// Every page carries these flags.
    Uniform(PageFlags),
    /// Pages diverge; one entry per page.
    Mixed(Vec<PageFlags>),
}

/// Page-state array for one chunk's pages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageMap {
    len: usize,
    repr: Repr,
    /// Pages with `dirty` / `nvdirty` / `write_protected` set. Every
    /// whole-map query reads these; each mutator updates them where it
    /// changes the flags, then calls `normalize`.
    dirty: usize,
    nvdirty: usize,
    protected: usize,
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
            dirty: 0,
            nvdirty: 0,
            protected: 0,
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

    fn check_range(&self, first: usize, count: usize) {
        assert!(
            first.checked_add(count).is_some_and(|end| end <= self.len),
            "range [{first}, {first}+{count}) out of {} pages",
            self.len
        );
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

    /// Collapse back to `Uniform` once all pages agree — each count is
    /// 0 or `len`; `present` never varies — without reading them.
    fn normalize(&mut self) {
        let len = self.len;
        let agree = |count: usize| count == 0 || count == len;
        if matches!(self.repr, Repr::Mixed(_))
            && agree(self.protected)
            && agree(self.dirty)
            && agree(self.nvdirty)
        {
            self.repr = Repr::Uniform(PageFlags {
                present: true,
                write_protected: self.protected == len,
                dirty: self.dirty == len,
                nvdirty: self.nvdirty == len,
            });
        }
    }

    fn for_all(&mut self, f: impl Fn(&mut PageFlags)) {
        match &mut self.repr {
            Repr::Uniform(u) => f(u),
            Repr::Mixed(v) => v.iter_mut().for_each(f),
        }
        self.normalize();
    }

    /// Write-protect every page.
    pub fn protect_all(&mut self) {
        self.protected = self.len;
        self.for_all(|f| f.write_protected = true);
    }

    /// Remove write protection from every page.
    pub fn unprotect_all(&mut self) {
        self.protected = 0;
        self.for_all(|f| f.write_protected = false);
    }

    /// True if every page is dirty, `nvdirty` and unprotected: the
    /// state any write leaves its own pages in.
    fn all_written(&self) -> bool {
        self.protected == 0 && self.dirty == self.len && self.nvdirty == self.len
    }

    /// Mark pages `[first, first+count)` written: sets `dirty` and
    /// `nvdirty`, clears protection. Returns how many of them were
    /// write-protected (i.e. how many faults page-granularity
    /// protection would have taken).
    pub fn mark_written(&mut self, first: usize, count: usize) -> usize {
        self.check_range(first, count);
        if count == 0 || self.all_written() {
            return 0;
        }
        let (mut faulted, mut dirtied, mut nvdirtied) = (0, 0, 0);
        if count == self.len {
            // Whole-chunk write: whatever the pages held is replaced.
            faulted = self.protected;
            (dirtied, nvdirtied) = (self.len - self.dirty, self.len - self.nvdirty);
            self.repr = Repr::Uniform(WRITTEN);
        } else {
            for f in &mut self.materialize()[first..first + count] {
                faulted += usize::from(f.write_protected);
                dirtied += usize::from(!f.dirty);
                nvdirtied += usize::from(!f.nvdirty);
                *f = WRITTEN;
            }
        }
        self.protected -= faulted;
        self.dirty += dirtied;
        self.nvdirty += nvdirtied;
        self.normalize();
        faulted
    }

    /// Clear the local dirty bit on all pages (after a local
    /// checkpoint/pre-copy of the chunk).
    pub fn clear_dirty(&mut self) {
        self.dirty = 0;
        self.for_all(|f| f.dirty = false);
    }

    /// Clear the `nvdirty` bit on all pages (after a remote
    /// checkpoint/pre-copy of the chunk).
    pub fn clear_nvdirty(&mut self) {
        self.nvdirty = 0;
        self.for_all(|f| f.nvdirty = false);
    }

    /// Count of locally dirty pages.
    pub fn dirty_pages(&self) -> usize {
        self.dirty
    }

    /// Count of `nvdirty` pages.
    pub fn nvdirty_pages(&self) -> usize {
        self.nvdirty
    }

    /// Count of write-protected pages.
    pub fn protected_pages(&self) -> usize {
        self.protected
    }

    /// True if any page is locally dirty.
    pub fn any_dirty(&self) -> bool {
        self.dirty > 0
    }

    /// True if any page is `nvdirty`.
    pub fn any_nvdirty(&self) -> bool {
        self.nvdirty > 0
    }

    /// True if any page of `[first, first+count)` is write-protected:
    /// would a write of that range trap?
    pub fn any_protected_in(&self, first: usize, count: usize) -> bool {
        self.check_range(first, count);
        match &self.repr {
            Repr::Uniform(f) => f.write_protected && count > 0,
            Repr::Mixed(v) => {
                self.protected > 0 && v[first..first + count].iter().any(|f| f.write_protected)
            }
        }
    }

    /// Grow the map to `pages` pages (e.g. after `nvrealloc`). New pages
    /// arrive dirty: they have never been checkpointed.
    pub fn grow(&mut self, pages: usize) {
        if pages <= self.len {
            return;
        }
        let added = pages - self.len;
        if self.all_written() {
            // Still uniform (an empty map is all written whatever its
            // flag word says).
            self.repr = Repr::Uniform(WRITTEN);
        } else {
            // Some old page is not in the new pages' state: diverged.
            self.materialize().resize(pages, WRITTEN);
        }
        self.len = pages;
        self.dirty += added;
        self.nvdirty += added;
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
