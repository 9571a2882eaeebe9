//! [`WearMap`] against the flat per-page counter array it compresses,
//! over the three shapes device traffic has: random single pages (a
//! hash index), an advancing append head whose records sometimes
//! straddle two pages (a record log), and adjacent extents written
//! whole again and again (version slots of a container) — all inside
//! one large map, overlapping each other.

use nvm_emu::wearmap::WearMap;
use nvm_emu::PAGE_SIZE;
use proptest::prelude::*;
use std::collections::BTreeSet;

const PAGES: u64 = 4096;
/// Pages the random single-page writes fall on.
const INDEX: u64 = 96;
/// The log: bytes `[LOG_START, LOG_END)` of the map, wrapping.
const LOG_START: u64 = 64 * PAGE_SIZE as u64;
const LOG_END: u64 = 128 * PAGE_SIZE as u64;
/// First page and widths, in pages, of the adjacent extents.
const EXTENTS_AT: u64 = 120;
const EXTENT_PAGES: [u64; 6] = [3, 5, 1, 8, 2, 4];

proptest! {
    #[test]
    fn wear_map_agrees_with_one_counter_per_page(
        ops in proptest::collection::vec((0u8..3, 0u64..100_000), 1..400),
    ) {
        let mut map = WearMap::new(PAGES as usize);
        let mut flat = vec![0u64; PAGES as usize];
        let mut edges = BTreeSet::new();
        let mut head = LOG_START;
        let mut flat_max = 0;
        for (shape, a) in ops {
            let (first, last) = match shape {
                0 => (a % INDEX, a % INDEX),
                1 => {
                    let len = 24 + a % 3000;
                    if head + len > LOG_END {
                        head = LOG_START;
                    }
                    let at = head;
                    head += len;
                    (at / PAGE_SIZE as u64, (at + len - 1) / PAGE_SIZE as u64)
                }
                _ => {
                    let which = (a % EXTENT_PAGES.len() as u64) as usize;
                    let first = EXTENTS_AT + EXTENT_PAGES[..which].iter().sum::<u64>();
                    (first, first + EXTENT_PAGES[which] - 1)
                }
            };
            let mut hottest = 0;
            for count in &mut flat[first as usize..=last as usize] {
                *count += 1;
                hottest = hottest.max(*count);
            }
            prop_assert_eq!(map.increment_range(first, last), hottest);
            flat_max = flat_max.max(hottest);
            prop_assert_eq!(map.max(), flat_max);
            edges.extend([first, last + 1]);
            edges.remove(&0);
            prop_assert!(map.segment_count() <= edges.len() + 1);
        }
        for (page, &count) in flat.iter().enumerate() {
            prop_assert_eq!(map.get(page as u64), count, "page {}", page);
        }
    }
}
