//! Interval-compressed per-page wear tracking.
//!
//! The paper preset writes hundreds of megabytes per rank per epoch, so
//! the naive wear tracker — one counter bump per 4 KiB page per write —
//! turns every full-chunk store into a loop over ~10k pages and
//! dominates the whole simulation (≈78% of wall time when profiled).
//! Checkpoint traffic is highly regular, though: the same chunk-aligned
//! ranges are written over and over, so the per-page counter array is
//! almost always a handful of flat plateaus. [`WearMap`] stores those
//! plateaus directly as runs of equal count, making a full-chunk write
//! O(log runs) instead of O(pages).
//!
//! A run boundary is placed at each edge of each written range and is
//! never taken away again, even when the counts on its two sides come
//! to agree. Traffic repeats its ranges — a page of a hash index, a
//! whole chunk, a version slot of the container — so every write after
//! the first lands exactly on one run: one descent and an increment in
//! place. Re-merging equal neighbours instead kept the map smaller but
//! made exactly that traffic pay for it: the pages of an index meet
//! and part from their neighbours' counts at random, and the page
//! under a log's append head climbs away from the untouched tail it
//! was just cut from, so each small write spent most of its time
//! inserting and removing the same few boundaries. The run count is
//! bounded by the distinct range edges seen plus one, and by the page
//! count.
//!
//! Semantics are identical to the flat array: [`WearMap::increment_range`]
//! adds one write to every page in the range and returns the hottest
//! post-increment count inside it (the value strict endurance checks
//! compare against), and [`WearMap::max`] is the device-lifetime hottest
//! page. Counts only ever increase, so the global max can be cached and
//! updated on the way in rather than recomputed by scanning.

use std::collections::BTreeMap;

/// One run of pages sharing a write count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Seg {
    /// Exclusive end page of the run.
    end: u64,
    /// Writes recorded for every page in the run.
    count: u64,
}

/// Per-page write counters compressed as equal-count segments.
///
/// Invariants: segments are non-overlapping and cover `[0, pages)`
/// exactly. Adjacent segments may share a count (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct WearMap {
    /// First page of each segment -> the segment.
    segs: BTreeMap<u64, Seg>,
    pages: u64,
    /// Cached `max(count)` over all segments; counts are monotone so
    /// this never needs a rescan.
    max: u64,
}

impl WearMap {
    /// A map covering `pages` pages, all with zero recorded writes.
    pub fn new(pages: usize) -> Self {
        let pages = pages as u64;
        let mut segs = BTreeMap::new();
        if pages > 0 {
            segs.insert(
                0,
                Seg {
                    end: pages,
                    count: 0,
                },
            );
        }
        WearMap {
            segs,
            pages,
            max: 0,
        }
    }

    /// Hottest page count over the whole map.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Write count of a single page.
    pub fn get(&self, page: u64) -> u64 {
        self.segs
            .range(..=page)
            .next_back()
            .filter(|(_, seg)| page < seg.end)
            .map(|(_, seg)| seg.count)
            .unwrap_or(0)
    }

    /// Number of internal segments (test/diagnostic aid).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Add one write to every page in `[first, last]` (inclusive) and
    /// return the hottest post-increment count within that range.
    pub fn increment_range(&mut self, first: u64, last: u64) -> u64 {
        debug_assert!(
            first <= last && last < self.pages,
            "wear range out of bounds"
        );
        // A range written before is one whole segment by now.
        if let Some(seg) = self.segs.get_mut(&first) {
            if seg.end == last + 1 {
                seg.count += 1;
                self.max = self.max.max(seg.count);
                return seg.count;
            }
        }
        self.split_at(first);
        self.split_at(last + 1);
        let mut range_max = 0;
        for seg in self.segs.range_mut(first..=last).map(|(_, s)| s) {
            seg.count += 1;
            range_max = range_max.max(seg.count);
        }
        self.max = self.max.max(range_max);
        range_max
    }

    /// Ensure a segment boundary exists at page `p` (no-op at the map
    /// edges or if one is already there).
    fn split_at(&mut self, p: u64) {
        if p == 0 || p >= self.pages {
            return;
        }
        let (&start, seg) = self
            .segs
            .range_mut(..=p)
            .next_back()
            .expect("segments cover [0, pages)");
        if start == p {
            return;
        }
        debug_assert!(p < seg.end);
        let right = *seg;
        seg.end = p;
        self.segs.insert(p, right);
    }

    /// Expand back to a flat per-page counter array (test aid).
    #[cfg(test)]
    fn to_vec(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.pages as usize];
        for (&start, seg) in &self.segs {
            for p in start..seg.end {
                v[p as usize] = seg.count;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: the flat array the map replaces.
    struct Flat(Vec<u64>);

    impl Flat {
        fn increment_range(&mut self, first: u64, last: u64) -> u64 {
            let mut max = 0;
            for p in first..=last {
                self.0[p as usize] += 1;
                max = max.max(self.0[p as usize]);
            }
            max
        }
    }

    #[test]
    fn single_range_counts() {
        let mut m = WearMap::new(16);
        assert_eq!(m.increment_range(0, 15), 1);
        assert_eq!(m.increment_range(0, 15), 2);
        assert_eq!(m.max(), 2);
        assert_eq!(m.get(7), 2);
        assert_eq!(m.segment_count(), 1, "full-range writes stay compressed");
    }

    #[test]
    fn overlapping_ranges_return_post_increment_range_max() {
        let mut m = WearMap::new(8);
        m.increment_range(0, 3); // pages 0..=3 -> 1
        m.increment_range(2, 5); // pages 2..=3 -> 2, 4..=5 -> 1
        assert_eq!(m.get(0), 1);
        assert_eq!(m.get(2), 2);
        assert_eq!(m.get(4), 1);
        assert_eq!(m.get(6), 0);
        assert_eq!(m.max(), 2);
        // Range max is over the incremented range only, post-increment.
        assert_eq!(m.increment_range(4, 7), 2);
        assert_eq!(m.increment_range(6, 7), 2);
    }

    #[test]
    fn runs_are_bounded_by_write_edges_and_pages() {
        let mut m = WearMap::new(8);
        m.increment_range(0, 3);
        m.increment_range(4, 7);
        assert_eq!(m.segment_count(), 2, "one edge, at page 4: equal halves");
        m.increment_range(0, 1);
        m.increment_range(2, 7);
        assert_eq!(m.segment_count(), 3, "edges at 2 and 4: a catch-up write");
        assert_eq!(m.to_vec(), vec![2; 8]);
        for _ in 0..3 {
            m.increment_range(0, 1);
            m.increment_range(4, 7);
        }
        assert_eq!(m.segment_count(), 3, "repeated ranges add no edge");
        for _ in 0..3 {
            for p in 0..8 {
                m.increment_range(p, p);
            }
        }
        assert_eq!(m.segment_count(), 8, "never more runs than pages");
        assert_eq!(m.max(), 8);
    }

    #[test]
    fn zero_and_one_page_maps() {
        let mut m = WearMap::new(1);
        assert_eq!(m.increment_range(0, 0), 1);
        assert_eq!(m.max(), 1);
        let m0 = WearMap::new(0);
        assert_eq!(m0.max(), 0);
        assert_eq!(m0.get(0), 0);
    }

    #[test]
    fn matches_flat_reference_on_deterministic_workload() {
        // Deterministic LCG so the test needs no RNG dependency.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let pages = 97u64;
        let mut map = WearMap::new(pages as usize);
        let mut flat = Flat(vec![0; pages as usize]);
        for _ in 0..2000 {
            let a = next() % pages;
            let b = next() % pages;
            let (first, last) = (a.min(b), a.max(b));
            assert_eq!(
                map.increment_range(first, last),
                flat.increment_range(first, last)
            );
        }
        assert_eq!(map.to_vec(), flat.0);
        assert_eq!(map.max(), flat.0.iter().copied().max().unwrap());
        // Compression holds: far fewer segments than pages even under
        // random ranges.
        assert!(map.segment_count() <= pages as usize);
    }
}
