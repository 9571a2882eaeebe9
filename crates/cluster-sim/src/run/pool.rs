//! The worker pool: the only code in the `run` module that spawns.
//!
//! Its items are ranks (compute, the local checkpoint, restore
//! verification), nodes (the remote ship, the teardown) or merge
//! shards. Correctness under concurrency rests on four properties that
//! the determinism regression tests pin down:
//!
//! * a rank closure touches only its own engine/workload/clock (node
//!   devices are shared, but their charge costs and statistics are
//!   functions of length and configured concurrency, never of arrival
//!   order);
//! * a node closure touches only its ranks, its `NodeDevices`, and the
//!   remote store on its buddy's NVM — the one allocator on that
//!   device while the closure runs, so region ids are the serial ones;
//! * no rank reads another rank's clock inside an epoch — cross-rank
//!   time only flows through barriers, which the caller runs serially;
//! * errors are reported by the lowest item that failed, so a failing
//!   run is also deterministic.

use super::phases::Rank;
use super::SimError;
use crate::profile::thread_cpu_ns;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// The worker pool moves `&mut Rank` across scoped threads; everything
// a rank owns (engine, clock, workload) must therefore be `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Rank>();
    assert_send::<SimError>();
};

/// The one worker pool: run `f` over `items` and return the results in
/// input order. With `threads <= 1` (or a single item) that is a plain
/// in-order loop on the calling thread, stopping at the first error.
/// Otherwise `threads` scoped workers each take one contiguous
/// `div_ceil` chunk and stop at its first error; chunks are in input
/// order, so the first failed chunk holds the lowest failing index and
/// a failing run is as deterministic as a passing one.
pub(super) fn pool_map<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    f: impl Fn(&mut T) -> Result<R, SimError> + Sync,
) -> Result<Vec<R>, SimError> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| scope.spawn(move || part.iter_mut().map(f).collect::<Result<Vec<R>, _>>()))
            .collect();
        let mut out = Vec::new();
        for handle in handles {
            // A worker's panic is the rank's own: re-raise its payload
            // so the message names what failed, not the pool.
            let part = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            out.extend(part?);
        }
        Ok(out)
    })
}

/// Run `f` over every rank through [`pool_map`], in rank order (the
/// module docs say why that is deterministic).
pub(super) fn for_each_rank_parallel(
    ranks: &mut [Vec<Rank>],
    threads: usize,
    busy: &[AtomicU64],
    f: impl Fn(&mut Rank) -> Result<(), SimError> + Sync,
) -> Result<(), SimError> {
    let mut flat: Vec<&mut Rank> = ranks.iter_mut().flatten().collect();
    // Each callback's thread-CPU time goes to the profile accumulator
    // (indexed by global rank; workers touch disjoint indices, the
    // atomic is only for the shared borrow).
    pool_map(&mut flat, threads, |rank| {
        let t0 = thread_cpu_ns();
        let out = f(rank);
        busy[rank.global as usize].fetch_add(thread_cpu_ns().saturating_sub(t0), Relaxed);
        out
    })
    .map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "rank 3 exploded")]
    fn pool_worker_panic_keeps_its_own_message() {
        let mut ranks = [0u64, 1, 2, 3];
        let _ = pool_map(&mut ranks, 2, |rank| -> Result<(), SimError> {
            assert!(*rank != 3, "rank {rank} exploded");
            Ok(())
        });
    }
}
