//! Chunk-modification prediction table (the DCPCP mechanism, Fig. 6).
//!
//! Some chunks — *hot chunks*, like the LAMMPS 3-D result array — are
//! modified repeatedly until the very end of a compute iteration.
//! Pre-copying them early is wasted work: every re-modification forces
//! another copy. The paper's fix is a prediction table: during the
//! first checkpoint interval (the *learning phase*) each chunk's
//! modification count is recorded; in later intervals a
//! chunk becomes eligible for pre-copy only once its observed
//! modification count reaches the learned count (the counter "becomes
//! 0" in the paper's phrasing).
//!
//! Predictions are *optimizations, not correctness*: a chunk whose
//! prediction fails is simply copied at the coordinated checkpoint.

use nvm_emu::idmap::IdMap;
use nvm_paging::ChunkId;

/// Per-chunk modification predictor; `default()` is a table in its
/// learning phase.
#[derive(Clone, Debug, Default)]
pub struct PredictionTable {
    /// False during the first interval (the learning phase): counts
    /// are recorded and everything is eligible for pre-copy.
    trained: bool,
    /// Learned modifications per interval.
    learned: IdMap<ChunkId, u32>,
    /// Modifications observed in the current interval.
    observed: IdMap<ChunkId, u32>,
}

impl PredictionTable {
    /// Record one modification of `id` (one application write event).
    pub fn record_modification(&mut self, id: ChunkId) {
        *self.observed.entry(id).or_insert(0) += 1;
    }

    /// Is `id` eligible for pre-copy *now*? During learning everything
    /// is eligible (the paper's initial bandwidth spike in Fig. 10 is
    /// exactly this eager learning-phase behaviour). Once trained, a
    /// chunk is eligible only when its observed count has reached the
    /// learned count (the per-chunk countdown in Fig. 6 hit zero).
    pub fn ready_for_precopy(&self, id: ChunkId) -> bool {
        let learned = self.learned.get(&id).copied().unwrap_or(0);
        let observed = self.observed.get(&id).copied().unwrap_or(0);
        !self.trained || observed >= learned
    }

    /// Close an interval: fold observations into the learned counts
    /// (last-value prediction — iterations repeat without input change,
    /// so the paper finds the order "fairly constant") and reset
    /// observations.
    pub fn end_interval(&mut self) {
        self.learned.extend(self.observed.drain());
        self.trained = true;
    }

    /// Drop a chunk from the table (`nvdelete`).
    pub fn forget(&mut self, id: ChunkId) {
        self.learned.remove(&id);
        self.observed.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ChunkId {
        ChunkId(n)
    }

    #[test]
    fn learning_phase_is_always_ready() {
        let mut t = PredictionTable::default();
        assert!(t.ready_for_precopy(id(1)));
        t.record_modification(id(1));
        assert!(t.ready_for_precopy(id(1)));
    }

    #[test]
    fn trained_phase_gates_on_learned_count() {
        let mut t = PredictionTable::default();
        // Learning: C3 modified 3 times (the paper's Fig. 6 example).
        for _ in 0..3 {
            t.record_modification(id(3));
        }
        t.end_interval();

        // Replay: not ready until the 3rd modification.
        assert!(!t.ready_for_precopy(id(3)));
        t.record_modification(id(3));
        t.record_modification(id(3));
        assert!(!t.ready_for_precopy(id(3)));
        t.record_modification(id(3));
        assert!(t.ready_for_precopy(id(3)));
    }

    #[test]
    fn unknown_chunks_are_ready_when_trained() {
        let mut t = PredictionTable::default();
        t.end_interval();
        // Never-seen chunk: learned count 0, so immediately eligible.
        assert!(t.ready_for_precopy(id(42)));
    }

    #[test]
    fn adaptation_follows_changing_behaviour() {
        let mut t = PredictionTable::default();
        for _ in 0..2 {
            t.record_modification(id(7));
        }
        t.end_interval(); // learned = 2
        for _ in 0..4 {
            t.record_modification(id(7));
        }
        t.end_interval(); // learned = 4
        for _ in 0..3 {
            t.record_modification(id(7));
        }
        assert!(!t.ready_for_precopy(id(7)));
        t.record_modification(id(7));
        assert!(t.ready_for_precopy(id(7)));
    }

    #[test]
    fn forget_removes_chunk() {
        let mut t = PredictionTable::default();
        t.record_modification(id(1));
        t.end_interval();
        t.forget(id(1));
        assert!(t.ready_for_precopy(id(1)));
    }
}
