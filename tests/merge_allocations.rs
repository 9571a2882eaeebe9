//! Pins the allocation behaviour of the coordinator-side merge paths.
//!
//! The trace merge used to copy event-by-event; it now drains whole
//! per-rank buffers into one capacity-preallocated vector, and the
//! metrics fold merges each rank's registry entry by entry. Both are
//! therefore O(ranks) in allocator traffic, not O(events) — this test counts
//! actual global-allocator calls around each merge and fails if
//! per-event allocation ever sneaks back in.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test can
//! pollute the process-wide counter between the two samples.

use nvm_metrics::names;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// System allocator wrapped with an allocation-call counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Relaxed);
    f();
    ALLOCATIONS.load(Relaxed) - before
}

#[test]
fn coordinator_merges_allocate_per_rank_not_per_event() {
    const RANKS: usize = 48;
    const EVENTS_PER_RANK: usize = 256;

    // --- Trace merge: quick-preset-sized per-rank buffers. ---
    let buffers: Vec<Vec<nvm_trace::TraceEvent>> = (0..RANKS as u64)
        .map(|rank| {
            (0..EVENTS_PER_RANK as u64)
                .map(|i| nvm_trace::TraceEvent {
                    t_ns: i * 1_000 + rank,
                    rank,
                    kind: nvm_trace::TraceEventKind::ProtectionFault { chunk: i % 13 },
                })
                .collect()
        })
        .collect();
    let total_events = RANKS * EVENTS_PER_RANK;

    let mut merged = Vec::new();
    let trace_allocs = allocations_during(|| {
        merged = nvm_trace::merge_ranked(buffers);
    });
    assert_eq!(merged.len(), total_events);
    // One preallocated output vector plus sort scratch — nowhere near
    // one allocation per event. (Measured: ~2; bound leaves room for
    // allocator/std drift while still catching per-event copying,
    // which would cost thousands.)
    assert!(
        trace_allocs <= RANKS,
        "trace merge made {trace_allocs} allocations for {total_events} events \
         (expected O(ranks) = <= {RANKS})"
    );

    // --- Metrics fold: per-rank registries, as each engine owns one. ---
    let mut ranks: Vec<nvm_metrics::MetricsRegistry> = (0..RANKS)
        .map(|r| {
            let mut m = nvm_metrics::MetricsRegistry::new();
            for i in 0..EVENTS_PER_RANK as u64 {
                m.counter_add(names::CHKPT_FAULTS_TOTAL, 1);
                m.observe(names::CHKPT_FAULT_NS, 500 + i * 31 + r as u64);
            }
            m
        })
        .collect();

    let mut folded = nvm_metrics::MetricsRegistry::new();
    let fold_allocs = allocations_during(|| {
        for m in &ranks {
            folded.merge_from(m);
        }
    });
    assert_eq!(
        folded.snapshot().counter(names::CHKPT_FAULTS_TOTAL),
        (RANKS * EVENTS_PER_RANK) as u64
    );
    // Each rank folds a fixed set of metrics into the coordinator's
    // registry: allocations scale with ranks x metrics, never with
    // the event count behind each counter.
    assert!(
        fold_allocs <= RANKS * 8,
        "metrics fold made {fold_allocs} allocations for {} observations \
         (expected O(ranks) = <= {})",
        RANKS * EVENTS_PER_RANK,
        RANKS * 8
    );

    // --- The hot update itself is allocation-free. ---
    let hot = &mut ranks[0];
    let hot_allocs = allocations_during(|| {
        for i in 0..10_000u64 {
            hot.counter_add(names::CHKPT_FAULTS_TOTAL, 1);
            hot.observe(names::CHKPT_FAULT_NS, i);
        }
    });
    assert_eq!(
        hot_allocs, 0,
        "by-name updates to existing metrics must not allocate (got {hot_allocs})"
    );
}
