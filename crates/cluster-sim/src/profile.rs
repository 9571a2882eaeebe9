//! Wall-clock/CPU profiling side channel for [`crate::Cluster`].
//!
//! [`RunProfile`] is returned *next to* a
//! [`crate::run::RunResult`] in [`crate::run::RunOutcome`] (request it
//! with `RunOptions::new().with_profile(true)`), never inside it:
//! results are byte-identity-gated across thread counts and machines,
//! and timing data is neither. The profile decomposes a run into
//!
//! * **per-rank busy time** — thread CPU time spent inside each rank's
//!   workload iteration and checkpoint callbacks (the part
//!   `--threads N` spreads over workers),
//! * **per-shard merge time** — thread CPU time spent draining and
//!   pre-merging each shard's trace/metrics/stat streams (spread over
//!   workers shard-by-shard), and
//! * **coordinator overhead** — everything else on the wall: barrier
//!   arithmetic, failure handling, helper/link bookkeeping, and the
//!   final O(shards) fold (the serial floor that caps scaling).
//!
//! The split is measured, never modelled: what `--threads N` buys on a
//! given host is read off two profiled runs' `wall_ns`, not projected
//! from one.

/// Thread CPU time (CLOCK_THREAD_CPUTIME_ID) in nanoseconds.
///
/// Raw `clock_gettime` so no external crate is needed; falls back to a
/// process-wide monotonic clock off Linux (still monotone, just not
/// per-thread).
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` outlives the call and the clock id is valid on
    // every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Fallback: monotonic wall clock (not per-thread).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Timing decomposition of one simulator run. See the module docs for
/// what each part means; all fields are measured, none feed back into
/// the deterministic simulation state.
#[derive(Clone, Debug)]
pub struct RunProfile {
    /// Total wall-clock nanoseconds for the run.
    pub wall_ns: u64,
    /// Thread-CPU nanoseconds spent in rank callbacks, indexed by
    /// global rank (flattened node-major order — the same order the
    /// worker pool chunks).
    pub rank_busy_ns: Vec<u64>,
    /// Thread-CPU nanoseconds spent pre-merging each shard's
    /// trace/metrics/stat streams, indexed by shard (contiguous node
    /// chunks — the same partition the merge pool uses).
    pub merge_busy_ns: Vec<u64>,
    /// Worker threads the run was configured with.
    pub threads: usize,
}

impl RunProfile {
    /// Total rank-parallel work on the wall.
    pub fn total_rank_busy_ns(&self) -> u64 {
        self.rank_busy_ns.iter().sum()
    }

    /// Total shard-parallel merge work on the wall.
    pub fn total_merge_busy_ns(&self) -> u64 {
        self.merge_busy_ns.iter().sum()
    }

    /// The serial floor: wall time not attributable to rank callbacks
    /// or shard merges. Meaningful as a *serial* floor only when the
    /// run itself was serial (`threads == 1`); in a parallel run that
    /// work overlaps the wall and the subtraction under-counts.
    pub fn coordinator_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.total_rank_busy_ns())
            .saturating_sub(self.total_merge_busy_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_is_monotone_and_advances_under_load() {
        let t0 = thread_cpu_ns();
        // Burn a little CPU so the thread clock must move.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(acc);
        let t1 = thread_cpu_ns();
        assert!(t1 >= t0);
        assert!(t1 > 0);
    }

    #[test]
    fn degenerate_profiles_do_not_panic() {
        let p = RunProfile {
            wall_ns: 0,
            rank_busy_ns: Vec::new(),
            merge_busy_ns: Vec::new(),
            threads: 1,
        };
        assert_eq!(p.coordinator_ns(), 0);
        // The serial floor is what the wall has left after rank and
        // merge work: 600 - 4 x 100 - 2 x 50.
        let p = RunProfile {
            wall_ns: 600,
            rank_busy_ns: vec![100; 4],
            merge_busy_ns: vec![50; 2],
            threads: 1,
        };
        assert_eq!(p.coordinator_ns(), 100);
        // A parallel run's busy time can exceed its wall: saturate.
        let p = RunProfile { wall_ns: 300, ..p };
        assert_eq!(p.coordinator_ns(), 0);
    }
}
