//! The pre-copy scheduler: *when* a chunk moves DRAM→NVM, never
//! *what* a commit makes durable.
//!
//! [`Scheduler`] holds everything policy: the configured
//! [`PrecopyPolicy`], the DCPC threshold [`PrecopyPlanner`], the DCPCP
//! [`PredictionTable`], the interval start and the background-copy
//! credit. All it is shown of the commit core are [`ChunkState`]s and
//! clock values, and it answers with a window length or "stage this
//! chunk next"; it holds no heap, slot or store. A new policy plugs in
//! here: a [`PrecopyPolicy`] variant and its arm in
//! [`Scheduler::window`] / [`Scheduler::candidates`].
//!
//! # The DCPC threshold
//!
//! Starting pre-copy at the very beginning of a compute interval is
//! wasteful: chunks modified repeatedly would be copied repeatedly.
//! DCPC instead starts pre-copy at the *pre-copy threshold*
//!
//! ```text
//! T_c = D / NVMBW_core        (estimated checkpoint copy time)
//! T_p = I - T_c               (offset into the interval to start)
//! ```
//!
//! so that background copying has just enough time to drain all
//! checkpoint data before the coordinated step. `I` and `D` are
//! *learned* from the first checkpoint and continuously adapted — the
//! paper: "We continuously adapt the pre-copy threshold to deal with
//! application changes across iterations."

use crate::config::{EngineConfig, PrecopyPolicy};
use crate::predict::PredictionTable;
use nvm_emu::{SimDuration, SimTime};
use nvm_paging::ChunkId;

/// EWMA weight for new observations when adapting `I` and `D`.
const ADAPT_ALPHA: f64 = 0.5;

/// Safety factor on the estimated copy time: start slightly earlier
/// than strictly necessary so jitter does not leave data uncopied.
const HEADROOM: f64 = 1.2;

/// Fraction of a background copy's duration that surfaces as
/// application slowdown (memory-bandwidth interference between the
/// pre-copy stream and the computation). 0 = free overlap,
/// 1 = fully serialized.
pub(crate) const INTERFERENCE: f64 = 0.25;

/// Epochs the delayed pre-copy policies observe before the learned
/// threshold (and, for DCPCP, the prediction table) takes effect: the
/// paper's scheme "waits for the first checkpoint step to complete".
const WARMUP_EPOCHS: u64 = 1;

/// Planner state for the delayed pre-copy threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrecopyPlanner {
    /// Smoothed checkpoint interval `I` (compute + local checkpoint),
    /// `None` until the first checkpoint completes.
    interval: Option<SimDuration>,
    /// Smoothed per-process checkpoint data size `D`, bytes.
    data_bytes: f64,
    /// Effective NVM bandwidth per core used for the `T_c` estimate.
    bw_core: f64,
}

impl Default for PrecopyPlanner {
    /// A planner that has not yet observed a checkpoint.
    fn default() -> Self {
        PrecopyPlanner {
            interval: None,
            data_bytes: 0.0,
            bw_core: 1.0,
        }
    }
}

impl PrecopyPlanner {
    /// Feed one completed checkpoint interval: its duration, the bytes
    /// the checkpoint had to move, and the effective per-core NVM
    /// bandwidth seen.
    pub fn observe(&mut self, interval: SimDuration, data_bytes: u64, bw_core: f64) {
        assert!(bw_core > 0.0, "bandwidth must be positive");
        match self.interval {
            None => {
                self.interval = Some(interval);
                self.data_bytes = data_bytes as f64;
            }
            Some(prev) => {
                let blended =
                    prev.as_secs_f64() * (1.0 - ADAPT_ALPHA) + interval.as_secs_f64() * ADAPT_ALPHA;
                self.interval = Some(SimDuration::from_secs_f64(blended));
                self.data_bytes =
                    self.data_bytes * (1.0 - ADAPT_ALPHA) + data_bytes as f64 * ADAPT_ALPHA;
            }
        }
        self.bw_core = bw_core;
    }

    /// Offset into the interval at which pre-copy should start:
    /// `T_p = I - T_c`, where `T_c = D / BW` is the estimated
    /// checkpoint copy time, clamped at zero — if the checkpoint cannot
    /// drain within one interval, start immediately. `None` while
    /// still unlearned.
    fn start_offset(&self) -> Option<SimDuration> {
        let t_c = SimDuration::from_secs_f64(self.data_bytes / self.bw_core * HEADROOM);
        Some(self.interval?.saturating_sub(t_c))
    }
}

/// One persistent chunk as the scheduler sees it.
#[derive(Clone, Copy, Debug)]
pub struct ChunkState {
    /// Chunk identity.
    pub id: ChunkId,
    /// Length in bytes.
    pub len: usize,
    /// Modified since it was last staged or committed.
    pub dirty: bool,
    /// Its in-progress slot already holds the current working copy.
    pub staged: bool,
}

impl ChunkState {
    /// Dirty and not staged: the next commit has to copy it first.
    pub fn needs_copy(&self) -> bool {
        self.dirty && !self.staged
    }
}

/// Policy state of one engine: decides the pre-copy window of each
/// compute segment and which chunk background copying stages next.
#[derive(Clone, Debug)]
pub struct Scheduler {
    policy: PrecopyPolicy,
    planner: PrecopyPlanner,
    predictor: PredictionTable,
    interval_start: SimTime,
    /// Background-copy budget in seconds; may go negative when a large
    /// chunk overdraws one compute segment and repays in the next.
    credit_secs: f64,
    /// The open drain's candidates not yet handed out, last first.
    drain: Vec<ChunkId>,
}

impl Scheduler {
    /// A scheduler for `config`'s policy whose first interval starts
    /// at `now`.
    pub fn new(config: &EngineConfig, now: SimTime) -> Self {
        Scheduler {
            policy: config.precopy,
            planner: PrecopyPlanner::default(),
            predictor: PredictionTable::default(),
            interval_start: now,
            credit_secs: 0.0,
            drain: Vec::new(),
        }
    }

    /// The application modified persistent chunk `id`.
    pub fn record_modification(&mut self, id: ChunkId) {
        self.predictor.record_modification(id);
    }

    /// Chunk `id` was deleted.
    pub fn forget(&mut self, id: ChunkId) {
        self.predictor.forget(id);
    }

    /// How much of a compute segment starting at `seg_start` with
    /// length `dur`, in checkpoint epoch `epoch`, has active pre-copy.
    pub fn window(&self, epoch: u64, seg_start: SimTime, dur: SimDuration) -> SimDuration {
        if !self.policy.enabled() {
            return SimDuration::ZERO;
        }
        // CPC pre-copies eagerly from the start of every interval.
        if !self.policy.delayed() {
            return dur;
        }
        // Delayed policies wait out the warm-up intervals entirely:
        // "our method waits for the first checkpoint step to complete
        // and finds the approximate interval" — no threshold (and for
        // DCPCP no learned modification counts) exists yet.
        if epoch < WARMUP_EPOCHS {
            return SimDuration::ZERO;
        }
        match self
            .planner
            .start_offset()
            .map(|off| self.interval_start + off)
        {
            None => SimDuration::ZERO,
            Some(threshold) if threshold <= seg_start => dur,
            Some(threshold) => (seg_start + dur).since(threshold),
        }
    }

    /// Which of `chunks` background copying may stage now: dirty, not
    /// staged and — under a predictive policy — past their learned
    /// modification count.
    pub fn candidates<'a>(
        &'a self,
        chunks: impl Iterator<Item = ChunkState> + 'a,
    ) -> impl Iterator<Item = ChunkId> + 'a {
        let gated = self.policy.predictive();
        chunks
            .filter(move |c| c.needs_copy() && (!gated || self.predictor.ready_for_precopy(c.id)))
            .map(|c| c.id)
    }

    /// Open a segment's drain: `window` of background-copy time joins
    /// the credit, and the drain will stage the [`Scheduler::candidates`]
    /// of `chunks` as they stand now, in order. One pass is enough:
    /// staging a chunk changes no other chunk's candidacy. Returns the
    /// candidate count.
    pub fn open(&mut self, window: SimDuration, chunks: impl Iterator<Item = ChunkState>) -> usize {
        self.credit_secs += window.as_secs_f64();
        let mut drain = std::mem::take(&mut self.drain);
        drain.clear();
        drain.extend(self.candidates(chunks));
        drain.reverse();
        self.drain = drain;
        self.drain.len()
    }

    /// The chunk to stage next, while credit and the open drain's
    /// candidates last.
    pub fn next_to_stage(&mut self) -> Option<ChunkId> {
        if self.credit_secs > 0.0 {
            self.drain.pop()
        } else {
            None
        }
    }

    /// A stage took `cost` of background-copy time.
    pub fn charge(&mut self, cost: SimDuration) {
        self.credit_secs -= cost.as_secs_f64();
    }

    /// Close a segment's drain. Idle budget does not bank: background
    /// copying cannot run ahead of data that does not exist yet.
    pub fn close(&mut self) {
        self.credit_secs = self.credit_secs.min(0.0);
    }

    /// A coordinated checkpoint that blocked for `coordinated` and
    /// `moved` bytes in all completed at `now`: learn from the interval
    /// it ends, start the next one, and return the ended one's length.
    pub fn end_interval(
        &mut self,
        now: SimTime,
        coordinated: SimDuration,
        moved: u64,
        bw_core: f64,
    ) -> SimDuration {
        let interval = now.since(self.interval_start);
        // Learn the *compute* portion of the interval: pre-copy can only
        // overlap compute, so the threshold must leave T_c of compute
        // time, not T_c of wall time ending inside the checkpoint.
        let compute = interval.saturating_sub(coordinated);
        self.planner.observe(compute, moved, bw_core);
        self.predictor.end_interval();
        self.interval_start = now;
        self.credit_secs = 0.0;
        interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlearned_planner_has_no_threshold() {
        let p = PrecopyPlanner::default();
        assert_eq!(p.start_offset(), None);
    }

    #[test]
    fn threshold_formula_t_p_equals_i_minus_t_c() {
        let mut p = PrecopyPlanner::default();
        // I = 40 s, D = 400 MB, BW = 400 MB/s  =>  T_c = 1.2 s (with
        // 1.2 headroom), T_p = 38.8 s.
        p.observe(
            SimDuration::from_secs(40),
            400 << 20,
            400.0 * (1 << 20) as f64,
        );
        let tp = p.start_offset().unwrap();
        assert!((tp.as_secs_f64() - 38.8).abs() < 1e-9);
    }

    #[test]
    fn oversized_checkpoint_starts_immediately() {
        let mut p = PrecopyPlanner::default();
        // Copy time (10 GB at 100 MB/s = 100 s) exceeds the 40 s
        // interval: clamp to zero.
        p.observe(
            SimDuration::from_secs(40),
            10 << 30,
            100.0 * (1 << 20) as f64,
        );
        assert_eq!(p.start_offset().unwrap(), SimDuration::ZERO);
    }

    #[test]
    fn adaptation_blends_observations() {
        let mut p = PrecopyPlanner::default();
        p.observe(SimDuration::from_secs(40), 100 << 20, 1e9);
        p.observe(SimDuration::from_secs(80), 100 << 20, 1e9);
        // EWMA with alpha 0.5: 60 s.
        let i = p.interval.unwrap().as_secs_f64();
        assert!((i - 60.0).abs() < 1e-6, "interval={i}");
        // Growing data size shifts the threshold earlier.
        let tp_before = p.start_offset().unwrap();
        p.observe(SimDuration::from_secs(60), 4 << 30, 1e9);
        let tp_after = p.start_offset().unwrap();
        assert!(tp_after < tp_before);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let mut p = PrecopyPlanner::default();
        p.observe(SimDuration::from_secs(1), 1, 0.0);
    }

    fn chunk(id: u64, dirty: bool, staged: bool) -> ChunkState {
        ChunkState {
            id: ChunkId(id),
            len: 4096,
            dirty,
            staged,
        }
    }

    fn scheduler(policy: PrecopyPolicy) -> Scheduler {
        let config = EngineConfig::default().with_precopy(policy);
        Scheduler::new(&config, SimTime::ZERO)
    }

    #[test]
    fn dcpc_learns_then_delays() {
        let mut s = scheduler(PrecopyPolicy::Dcpc);
        let ten = SimDuration::from_secs(10);
        // Learning interval: no threshold, no window — in warm-up or
        // past it.
        assert_eq!(s.window(0, SimTime::ZERO, ten), SimDuration::ZERO);
        assert_eq!(s.window(1, SimTime::ZERO, ten), SimDuration::ZERO);
        let bw = 400.0 * (1 << 20) as f64;
        let ended = s.end_interval(SimTime::from_secs(10), SimDuration::ZERO, 1 << 20, bw);
        assert_eq!(ended, ten);
        let tp = s.planner.start_offset().unwrap();
        assert!(
            tp > SimDuration::from_secs(5),
            "1 MB drains fast; threshold should sit late in a ~10 s interval (got {tp})"
        );
        // The next interval opens its window only past the threshold.
        let start = SimTime::from_secs(10);
        let half = SimDuration::from_secs(5);
        assert_eq!(s.window(1, start, half), SimDuration::ZERO);
        assert_eq!(s.window(1, start, ten), ten.saturating_sub(tp));
        assert_eq!(s.window(1, start + tp, half), half);
    }

    #[test]
    fn candidates_are_dirty_unstaged_and_past_their_learned_count() {
        let view = [
            chunk(1, false, false),
            chunk(2, true, true),
            chunk(3, true, false),
            chunk(4, true, false),
        ];
        let cpc = scheduler(PrecopyPolicy::Cpc);
        assert_eq!(
            cpc.candidates(view.iter().copied()).collect::<Vec<_>>(),
            [ChunkId(3), ChunkId(4)]
        );
        // DCPCP learned that chunk 3 is written twice per interval:
        // one write in, it is still hot.
        let mut dcpcp = scheduler(PrecopyPolicy::Dcpcp);
        dcpcp.record_modification(ChunkId(3));
        dcpcp.record_modification(ChunkId(3));
        dcpcp.end_interval(SimTime::from_secs(1), SimDuration::ZERO, 1, 1.0);
        dcpcp.record_modification(ChunkId(3));
        assert_eq!(
            dcpcp.candidates(view.iter().copied()).collect::<Vec<_>>(),
            [ChunkId(4)]
        );
        dcpcp.record_modification(ChunkId(3));
        assert_eq!(
            dcpcp.candidates(view.iter().copied()).next(),
            Some(ChunkId(3))
        );
    }

    #[test]
    fn credit_gates_next_and_idle_budget_does_not_bank() {
        let view = [chunk(1, true, false), chunk(2, true, false)];
        let mut s = scheduler(PrecopyPolicy::Cpc);
        assert_eq!(s.next_to_stage(), None, "no window opened yet");
        assert_eq!(s.open(SimDuration::from_secs(1), view.iter().copied()), 2);
        assert_eq!(s.next_to_stage(), Some(ChunkId(1)));
        // A large chunk overdraws this segment and repays in the next.
        s.charge(SimDuration::from_secs(3));
        assert_eq!(s.next_to_stage(), None);
        s.close();
        s.open(SimDuration::from_secs(1), view.iter().copied());
        assert_eq!(s.next_to_stage(), None, "still 1 s in debt");
        s.close();
        s.open(SimDuration::from_secs(2), view.iter().copied());
        assert_eq!(s.next_to_stage(), Some(ChunkId(1)));
        // Nothing is staged past the close, and the unused second is
        // not carried over.
        s.close();
        assert_eq!(s.next_to_stage(), None);
        s.open(SimDuration::ZERO, view.iter().copied());
        assert_eq!(s.next_to_stage(), None);
    }

    #[test]
    fn one_pass_drain_stages_what_rescanning_did() {
        // DCPCP learned that chunk 3 is written twice per interval and
        // has seen it once: it stays out of every drain.
        let mut s = scheduler(PrecopyPolicy::Dcpcp);
        s.record_modification(ChunkId(3));
        s.record_modification(ChunkId(3));
        s.end_interval(SimTime::from_secs(1), SimDuration::ZERO, 1, 1.0);
        s.record_modification(ChunkId(3));
        let view = [
            chunk(1, true, false),
            chunk(2, false, false),
            chunk(3, true, false),
            chunk(4, true, false),
            chunk(5, true, true),
            chunk(6, true, false),
            chunk(7, true, false),
        ];
        let second = SimDuration::from_secs(1);
        for window in [1, 2, 3, 10].map(SimDuration::from_secs) {
            // The loop this drain replaced: rescan every chunk after
            // each stage, which marks the staged chunk staged.
            let (mut rescanned, mut seen, mut credit) = (vec![], view, window);
            while !credit.is_zero() {
                let Some(id) = s.candidates(seen.iter().copied()).next() else {
                    break;
                };
                rescanned.push(id);
                seen.iter_mut().find(|c| c.id == id).unwrap().staged = true;
                credit = credit.saturating_sub(second);
            }
            assert_eq!(s.open(window, view.iter().copied()), 4);
            let mut staged = vec![];
            while let Some(id) = s.next_to_stage() {
                staged.push(id);
                s.charge(second);
            }
            s.close();
            assert_eq!(staged, rescanned, "window {window}");
        }
    }
}
