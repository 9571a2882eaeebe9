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
//! * **per-node merge time** — thread CPU time spent draining and
//!   pre-merging each node's trace/metrics/stat streams (spread over
//!   workers node by node), and
//! * **coordinator overhead** — everything else on the wall: building
//!   the cluster, barrier arithmetic, failure handling, helper/link
//!   bookkeeping, the final O(nodes) fold and the teardown (the serial
//!   floor that caps scaling).
//!
//! Across both, the wall is also split by [`Phase`]: how long the run
//! spent building, in each phase of the run loop, reducing and tearing
//! down, so the coordinator's share can be read per phase.
//!
//! The split is measured, never modelled: what `--threads N` buys on a
//! given host is read off two profiled runs' `wall_ns`, not projected
//! from one.
//!
//! Measuring costs host time too: a thread-CPU clock read costs about
//! ten monotonic ones (≈380–430 ns against ≈45 ns on a 2-vCPU guest). So
//! the clocks are read only through a `Profiler`, which a run holds
//! only when it asks for a profile: an unprofiled run reads no thread
//! clock and pays one branch per timer. A profiled run reads it once
//! per item boundary of each worker's contiguous chunk: `ranks + 1`
//! times per rank-parallel phase on one thread, and at most twice per
//! node merged.

use crate::config::ClusterConfig;
use std::time::Instant;

#[cfg(test)]
thread_local! {
    /// Thread-clock reads made on this thread, so tests can assert
    /// which runs pay for them.
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Thread-clock reads made on the calling thread so far (tests only).
#[cfg(test)]
pub(crate) fn clock_reads() -> u64 {
    CLOCK_READS.with(|c| c.get())
}

/// Thread CPU time (CLOCK_THREAD_CPUTIME_ID) in nanoseconds.
///
/// Raw `clock_gettime` so no external crate is needed. Its `timespec`
/// is two C `long`s on every Linux target, so the fields are declared
/// `c_long`: 8 bytes on 32-bit Linux, 16 on 64-bit. Off Linux it falls
/// back to a process-wide monotonic clock (still monotone, just not
/// per-thread).
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clockid: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    #[cfg(test)]
    CLOCK_READS.with(|c| c.set(c.get() + 1));
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` outlives the call and has the layout of the C
    // `struct timespec`; the clock id is valid on every Linux since
    // 2.6.12.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Fallback: monotonic wall clock (not per-thread).
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    #[cfg(test)]
    CLOCK_READS.with(|c| c.set(c.get() + 1));
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span of a [`crate::Cluster::run`] on the coordinator's wall clock,
/// in the order a run enters them; [`RunProfile::phase_ns`] is indexed
/// by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Devices, spill files, every rank's engine and workload setup.
    Build,
    /// Failure batches and the restore ladder.
    HandleFailures,
    /// One application iteration on every rank.
    Compute,
    /// Helper polling and link contention.
    PollHelpers,
    /// The coordinated local checkpoint, barriers included.
    CheckpointLocal,
    /// The remote commit and the ship to each node's buddy.
    CheckpointRemote,
    /// The end-of-run reduction into the result.
    Reduce,
    /// Closing the devices and removing their spill files.
    Teardown,
}

impl Phase {
    /// Every phase, in index order.
    pub const ALL: [Phase; 8] = [
        Phase::Build,
        Phase::HandleFailures,
        Phase::Compute,
        Phase::PollHelpers,
        Phase::CheckpointLocal,
        Phase::CheckpointRemote,
        Phase::Reduce,
        Phase::Teardown,
    ];

    /// The phase's name, as the coordinator method it times.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::HandleFailures => "handle_failures",
            Phase::Compute => "compute",
            Phase::PollHelpers => "poll_helpers",
            Phase::CheckpointLocal => "checkpoint_local",
            Phase::CheckpointRemote => "checkpoint_remote",
            Phase::Reduce => "reduce",
            Phase::Teardown => "teardown",
        }
    }
}

/// The host-time accounting of one profiled [`crate::Cluster::run`]:
/// its wall, each [`Phase`], each rank's callbacks and each node's
/// merge. A run holds it as `Option<Profiler>`, `Some` only when
/// `RunOptions::profile` is set, and every timer takes that option:
/// without a profile a timer is one branch and reads no clock.
pub(crate) struct Profiler {
    start: Instant,
    phase_ns: [u64; Phase::ALL.len()],
    rank_busy_ns: Vec<u64>,
    merge_busy_ns: Vec<u64>,
    threads: usize,
}

impl Profiler {
    /// A profiler for a run of `config`'s shape, its wall starting now.
    pub(crate) fn new(config: &ClusterConfig) -> Self {
        Profiler {
            start: Instant::now(),
            phase_ns: [0; Phase::ALL.len()],
            rank_busy_ns: vec![0; config.total_ranks()],
            merge_busy_ns: vec![0; config.nodes],
            threads: config.threads,
        }
    }

    /// Run `f`, adding its wall time to `phase`. `f` gets the profiler
    /// back, to time the rank or node work inside the phase.
    pub(crate) fn time<R>(
        profiler: &mut Option<Self>,
        phase: Phase,
        f: impl FnOnce(Option<&mut Self>) -> R,
    ) -> R {
        let Some(p) = profiler else {
            return f(None);
        };
        let t0 = Instant::now();
        let out = f(Some(&mut *p));
        p.phase_ns[phase as usize] += t0.elapsed().as_nanos() as u64;
        out
    }

    /// The slots a rank-parallel phase adds its thread-CPU time to, one
    /// per rank in global order.
    pub(crate) fn rank_busy(&mut self) -> &mut [u64] {
        &mut self.rank_busy_ns
    }

    /// The slots the end-of-run merge adds its thread-CPU time to, one
    /// per node.
    pub(crate) fn merge_busy(&mut self) -> &mut [u64] {
        &mut self.merge_busy_ns
    }

    /// The profile, its wall ending now.
    pub(crate) fn finish(self) -> RunProfile {
        RunProfile {
            wall_ns: self.start.elapsed().as_nanos() as u64,
            phase_ns: self.phase_ns,
            rank_busy_ns: self.rank_busy_ns,
            merge_busy_ns: self.merge_busy_ns,
            threads: self.threads,
        }
    }
}

/// Run `f` over one worker's contiguous chunk of items in order, adding
/// each item's thread-CPU time to the slot it is paired with; stops at
/// the first error. The clock is read once before the first item and
/// once after each (`part.len() + 1` reads), so an item's time also
/// holds the loop's own bookkeeping since the item before it.
pub(crate) fn time_each<T, R, E>(
    part: &mut [(T, &mut u64)],
    f: impl Fn(&mut T) -> Result<R, E>,
) -> Result<Vec<R>, E> {
    let mut last = thread_cpu_ns();
    part.iter_mut()
        .map(|(item, busy)| {
            let out = f(item);
            let now = thread_cpu_ns();
            **busy += now.saturating_sub(last);
            last = now;
            out
        })
        .collect()
}

/// Timing decomposition of one simulator run. See the module docs for
/// what each part means; all fields are measured, none feed back into
/// the deterministic simulation state.
#[derive(Clone, Debug)]
pub struct RunProfile {
    /// Total wall-clock nanoseconds for the run, from the start of
    /// construction to the end of the teardown.
    pub wall_ns: u64,
    /// Wall-clock nanoseconds spent in each [`Phase`], indexed by it.
    /// The phases are disjoint spans of `wall_ns`; what they leave is
    /// the run loop's own bookkeeping.
    pub phase_ns: [u64; Phase::ALL.len()],
    /// Thread-CPU nanoseconds spent in rank callbacks, indexed by
    /// global rank (flattened node-major order — the same order the
    /// worker pool chunks). A rank's time runs from the clock read that
    /// ended the callback before it on the same worker, so it also
    /// holds the pool's bookkeeping between two adjacent callbacks.
    pub rank_busy_ns: Vec<u64>,
    /// Thread-CPU nanoseconds spent pre-merging each node's
    /// trace/metrics/stat streams, indexed by node, timed as
    /// `rank_busy_ns` is.
    pub merge_busy_ns: Vec<u64>,
    /// Worker threads the run was configured with.
    pub threads: usize,
}

impl RunProfile {
    /// Wall-clock nanoseconds spent in `phase`.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Total rank-parallel work on the wall.
    pub fn total_rank_busy_ns(&self) -> u64 {
        self.rank_busy_ns.iter().sum()
    }

    /// Total node-parallel merge work on the wall.
    pub fn total_merge_busy_ns(&self) -> u64 {
        self.merge_busy_ns.iter().sum()
    }

    /// The serial floor: wall time not attributable to rank callbacks
    /// or node merges. Meaningful as a *serial* floor only when the
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
            phase_ns: [0; Phase::ALL.len()],
            rank_busy_ns: Vec::new(),
            merge_busy_ns: Vec::new(),
            threads: 1,
        };
        assert_eq!(p.coordinator_ns(), 0);
        // The serial floor is what the wall has left after rank and
        // merge work: 600 - 4 x 100 - 2 x 50.
        let p = RunProfile {
            wall_ns: 600,
            phase_ns: [0; Phase::ALL.len()],
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
