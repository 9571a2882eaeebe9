//! `PageMap` keeps two representations and three cached counts; `Mmu`
//! answers every write from them without looking at a page. Both are
//! held here against the obvious model — one `PageFlags` per page,
//! every answer a scan — through random operation sequences: after
//! every operation every query agrees, so a count that drifts from a
//! recount, a collapse to `Uniform` that loses a flag, or a shortcut
//! in `record_write` that changes an outcome fails here.

use nvm_emu::SimDuration;
use nvm_paging::{
    ChunkId, FaultCostModel, Granularity, Mmu, PageFlags, PageMap, ProtectionStats, WriteOutcome,
};
use proptest::prelude::*;

/// One entry per page, nothing cached.
#[derive(Clone, Debug)]
struct Naive(Vec<PageFlags>);

impl Naive {
    fn new(pages: usize) -> Self {
        Naive(vec![
            PageFlags {
                present: true,
                ..PageFlags::default()
            };
            pages
        ])
    }

    fn for_all(&mut self, f: impl Fn(&mut PageFlags)) {
        self.0.iter_mut().for_each(f);
    }

    fn mark_written(&mut self, first: usize, count: usize) -> usize {
        let mut faulted = 0;
        for f in &mut self.0[first..first + count] {
            if f.write_protected {
                faulted += 1;
                f.write_protected = false;
            }
            f.dirty = true;
            f.nvdirty = true;
        }
        faulted
    }

    fn grow(&mut self, pages: usize) {
        if pages > self.0.len() {
            let fresh = PageFlags {
                present: true,
                dirty: true,
                nvdirty: true,
                ..PageFlags::default()
            };
            self.0.resize(pages, fresh);
        }
    }

    fn count(&self, pred: impl Fn(&PageFlags) -> bool) -> usize {
        self.0.iter().filter(|f| pred(f)).count()
    }
}

/// An operation, as three raw draws: which one, and two numbers it
/// turns into a page range (or a growth) of whatever length the map
/// has by then.
type Op = (u8, usize, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..10, any::<usize>(), any::<usize>()), 1..40)
}

/// `(first, count)` within `len` pages: `kind` 0–2 a partial range, 3
/// the whole map, 4 an empty range.
fn range(kind: u8, a: usize, b: usize, len: usize) -> (usize, usize) {
    let first = a % (len + 1);
    match kind {
        0..=2 => (first, b % (len - first + 1)),
        3 => (0, len),
        _ => (first, 0),
    }
}

fn check_map(map: &PageMap, naive: &Naive) -> Result<(), TestCaseError> {
    let len = naive.0.len();
    prop_assert_eq!(map.len(), len);
    prop_assert_eq!(map.is_empty(), len == 0);
    for (i, flags) in naive.0.iter().enumerate() {
        prop_assert_eq!(map.get(i), *flags, "page {}", i);
    }
    // Each cached count against a recount of the model and of the
    // map's own pages.
    let recount = |pred: fn(&PageFlags) -> bool| (0..len).filter(|&i| pred(&map.get(i))).count();
    prop_assert_eq!(map.dirty_pages(), naive.count(|f| f.dirty));
    prop_assert_eq!(map.dirty_pages(), recount(|f| f.dirty));
    prop_assert_eq!(map.nvdirty_pages(), naive.count(|f| f.nvdirty));
    prop_assert_eq!(map.nvdirty_pages(), recount(|f| f.nvdirty));
    prop_assert_eq!(map.protected_pages(), naive.count(|f| f.write_protected));
    prop_assert_eq!(map.protected_pages(), recount(|f| f.write_protected));
    prop_assert_eq!(map.any_dirty(), naive.count(|f| f.dirty) > 0);
    prop_assert_eq!(map.any_nvdirty(), naive.count(|f| f.nvdirty) > 0);
    for first in 0..=len {
        for count in 0..=len - first {
            prop_assert_eq!(
                map.any_protected_in(first, count),
                naive.0[first..first + count]
                    .iter()
                    .any(|f| f.write_protected),
                "range [{}, +{})",
                first,
                count
            );
        }
    }
    Ok(())
}

/// HEAD-of-PR-20 `Mmu`, one chunk of it, run over the naive vector:
/// the algorithm `record_write` had before it stopped walking pages,
/// line for line.
struct NaiveMmu {
    granularity: Granularity,
    fault_cost: FaultCostModel,
    pages: Naive,
    stats: ProtectionStats,
}

impl NaiveMmu {
    fn record_write(&mut self, first: usize, count: usize) -> WriteOutcome {
        let map = &mut self.pages;
        self.stats.write_events += 1;
        let was_dirty = map.count(|f| f.dirty) > 0;
        let faults = match self.granularity {
            Granularity::Chunk => {
                let range_protected = (first..first + count).any(|p| map.0[p].write_protected);
                map.mark_written(first, count);
                if range_protected {
                    map.for_all(|f| f.write_protected = false);
                    let len = map.0.len();
                    map.mark_written(0, len);
                    1
                } else {
                    0
                }
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
            chunk_newly_dirty: !was_dirty && (faults > 0 || map.count(|f| f.dirty) > 0),
        }
    }
}

proptest! {
    #[test]
    fn page_map_agrees_with_one_flag_word_per_page(pages in 0usize..24, ops in ops()) {
        let (mut map, mut naive) = (PageMap::new(pages), Naive::new(pages));
        check_map(&map, &naive)?;
        for (kind, a, b) in ops {
            match kind {
                0..=4 => {
                    let (first, count) = range(kind, a, b, naive.0.len());
                    prop_assert_eq!(
                        map.mark_written(first, count),
                        naive.mark_written(first, count)
                    );
                }
                5 => {
                    map.protect_all();
                    naive.for_all(|f| f.write_protected = true);
                }
                6 => {
                    map.unprotect_all();
                    naive.for_all(|f| f.write_protected = false);
                }
                7 => {
                    map.clear_dirty();
                    naive.for_all(|f| f.dirty = false);
                }
                8 => {
                    map.clear_nvdirty();
                    naive.for_all(|f| f.nvdirty = false);
                }
                _ => {
                    // By up to three pages, or a shrink request (no-op).
                    let pages = (naive.0.len() + a % 5).saturating_sub(1);
                    map.grow(pages);
                    naive.grow(pages);
                }
            }
            check_map(&map, &naive)?;
        }
    }

    #[test]
    fn record_write_agrees_with_the_page_walking_algorithm(
        pages in 1usize..24,
        page_granularity in any::<bool>(),
        ops in ops(),
    ) {
        let id = ChunkId(7);
        let granularity = if page_granularity { Granularity::Page } else { Granularity::Chunk };
        let mut mmu = Mmu::with_granularity(granularity);
        mmu.register_chunk(id, pages);
        let mut model = NaiveMmu {
            granularity,
            fault_cost: FaultCostModel::default(),
            pages: Naive::new(pages),
            stats: ProtectionStats::default(),
        };
        model.pages.mark_written(0, pages); // a new chunk starts fully dirty
        for (kind, a, b) in ops {
            match kind {
                0..=4 => {
                    let (first, count) = range(kind, a, b, model.pages.0.len());
                    prop_assert_eq!(
                        mmu.record_write(id, first, count),
                        model.record_write(first, count),
                        "write [{}, +{})", first, count
                    );
                }
                5 | 6 => {
                    mmu.protect_after_precopy(id);
                    model.pages.for_all(|f| {
                        f.dirty = false;
                        f.write_protected = true;
                    });
                }
                7 => {
                    mmu.clear_local_dirty(id);
                    model.pages.for_all(|f| f.dirty = false);
                }
                8 => {
                    mmu.clear_remote_dirty(id);
                    model.pages.for_all(|f| f.nvdirty = false);
                }
                _ => {
                    let pages = model.pages.0.len() + a % 4;
                    mmu.grow_chunk(id, pages);
                    model.pages.grow(pages);
                }
            }
            let (dirty, nvdirty) = (
                model.pages.count(|f| f.dirty),
                model.pages.count(|f| f.nvdirty),
            );
            prop_assert_eq!(mmu.stats(), model.stats);
            prop_assert_eq!(mmu.dirty_pages(id), dirty);
            prop_assert_eq!(mmu.nvdirty_pages(id), nvdirty);
            prop_assert_eq!(mmu.is_dirty(id), dirty > 0);
            prop_assert_eq!(mmu.is_nvdirty(id), nvdirty > 0);
            prop_assert_eq!(mmu.nvdirty_chunks(), if nvdirty > 0 { vec![id] } else { vec![] });
        }
    }
}
