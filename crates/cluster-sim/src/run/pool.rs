//! The worker pool: the only code in the `run` module that spawns.
//!
//! Its items are ranks (compute, the local checkpoint, restore
//! verification) or nodes (the remote ship, the end-of-run merge, the
//! teardown). Correctness under concurrency rests on four properties that
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
use crate::profile::time_each;

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
    pool_chunks(items, threads, |part| part.iter_mut().map(&f).collect())
}

/// [`pool_map`] with each item's thread-CPU time added to its slot in
/// `busy` (one per item) when the run is profiled: each worker reads
/// its clock once per item boundary of its chunk
/// ([`time_each`]). Unprofiled, it is [`pool_map`].
pub(super) fn pool_map_timed<T: Send, R: Send>(
    items: &mut [T],
    busy: Option<&mut [u64]>,
    threads: usize,
    f: impl Fn(&mut T) -> Result<R, SimError> + Sync,
) -> Result<Vec<R>, SimError> {
    let Some(busy) = busy else {
        return pool_map(items, threads, f);
    };
    // A short slot list would drop items from the zip, and so from the
    // run.
    assert_eq!(busy.len(), items.len(), "one busy slot per item");
    let mut timed: Vec<(&mut T, &mut u64)> = items.iter_mut().zip(busy).collect();
    pool_chunks(&mut timed, threads, |part| time_each(part, |item| f(item)))
}

/// The chunking and spawning behind [`pool_map`]: `f` gets the whole
/// of `items` on the calling thread, or each worker's contiguous chunk,
/// and the chunks' results are concatenated in input order.
fn pool_chunks<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    f: impl Fn(&mut [T]) -> Result<Vec<R>, SimError> + Sync,
) -> Result<Vec<R>, SimError> {
    if threads <= 1 || items.len() <= 1 {
        return f(items);
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| scope.spawn(move || f(part)))
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

/// Run `f` over every rank through [`pool_map_timed`], in rank order
/// (the module docs say why that is deterministic); `busy` is the
/// profile's per-rank slots, indexed by global rank.
pub(super) fn for_each_rank_parallel(
    ranks: &mut [Vec<Rank>],
    threads: usize,
    busy: Option<&mut [u64]>,
    f: impl Fn(&mut Rank) -> Result<(), SimError> + Sync,
) -> Result<(), SimError> {
    let mut flat: Vec<&mut Rank> = ranks.iter_mut().flatten().collect();
    debug_assert!((flat.iter().enumerate()).all(|(i, rank)| rank.global == i as u64));
    pool_map_timed(&mut flat, busy, threads, |rank| f(rank)).map(drop)
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
