//! Engine statistics and per-epoch reports.

use nvm_emu::SimDuration;
use nvm_metrics::{names, MetricsRegistry};
use serde::{Deserialize, Serialize};

/// Cumulative counters over the life of a [`crate::CheckpointEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Bytes moved to NVM by background pre-copy.
    pub precopied_bytes: u64,
    /// Bytes moved to NVM during coordinated (blocking) checkpoints.
    pub coordinated_bytes: u64,
    /// Bytes *not* moved because chunk dirty-tracking proved them
    /// unmodified since the last commit (GTC's init-only chunks).
    pub skipped_bytes: u64,
    /// Pre-copied bytes that were invalidated by a later modification
    /// in the same interval (wasted pre-copy work).
    pub wasted_precopy_bytes: u64,
    /// Total blocking time spent inside coordinated checkpoints.
    pub coordinated_time: SimDuration,
    /// Application slowdown charged for pre-copy memory interference.
    pub interference_time: SimDuration,
    /// Time spent in protection-fault handling.
    pub fault_time: SimDuration,
    /// Protection faults taken.
    pub faults: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Field-exhaustive accumulation: the destructuring has no `..`, so a
/// field added to [`EngineStats`] is a compile error here until the
/// aggregation handles it. This also provides
/// [`nvm_metrics::MergeStats`] via its blanket impl.
impl std::ops::AddAssign<&EngineStats> for EngineStats {
    fn add_assign(&mut self, rhs: &EngineStats) {
        let EngineStats {
            checkpoints,
            precopied_bytes,
            coordinated_bytes,
            skipped_bytes,
            wasted_precopy_bytes,
            coordinated_time,
            interference_time,
            fault_time,
            faults,
            restarts,
        } = *rhs;
        self.checkpoints += checkpoints;
        self.precopied_bytes += precopied_bytes;
        self.coordinated_bytes += coordinated_bytes;
        self.skipped_bytes += skipped_bytes;
        self.wasted_precopy_bytes += wasted_precopy_bytes;
        self.coordinated_time += coordinated_time;
        self.interference_time += interference_time;
        self.fault_time += fault_time;
        self.faults += faults;
        self.restarts += restarts;
    }
}

impl EngineStats {
    /// Add these totals to the `chkpt_*_total` counters of `reg` — the
    /// only path from an engine's totals into a registry. Destructured
    /// like the merge above: a new field needs a counter name to compile.
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        let EngineStats {
            checkpoints,
            precopied_bytes,
            coordinated_bytes,
            skipped_bytes,
            wasted_precopy_bytes,
            coordinated_time,
            interference_time,
            fault_time,
            faults,
            restarts,
        } = *self;
        reg.publish_totals([
            (names::CHKPT_CHECKPOINTS_TOTAL, checkpoints),
            (names::CHKPT_PRECOPIED_BYTES_TOTAL, precopied_bytes),
            (names::CHKPT_COORDINATED_BYTES_TOTAL, coordinated_bytes),
            (names::CHKPT_SKIPPED_BYTES_TOTAL, skipped_bytes),
            (
                names::CHKPT_WASTED_PRECOPY_BYTES_TOTAL,
                wasted_precopy_bytes,
            ),
            (
                names::CHKPT_COORDINATED_TIME_NS_TOTAL,
                coordinated_time.as_nanos(),
            ),
            (
                names::CHKPT_INTERFERENCE_TIME_NS_TOTAL,
                interference_time.as_nanos(),
            ),
            (names::CHKPT_FAULT_TIME_NS_TOTAL, fault_time.as_nanos()),
            (names::CHKPT_FAULTS_TOTAL, faults),
            (names::CHKPT_RESTARTS_TOTAL, restarts),
        ]);
    }

    /// All bytes moved to NVM for checkpointing.
    pub fn total_copied_bytes(&self) -> u64 {
        self.precopied_bytes + self.coordinated_bytes
    }

    /// Fraction of copied bytes moved by pre-copy (how much of the
    /// checkpoint was drained in the background).
    pub fn precopy_fraction(&self) -> f64 {
        let total = self.total_copied_bytes();
        if total == 0 {
            0.0
        } else {
            self.precopied_bytes as f64 / total as f64
        }
    }
}

/// Per-checkpoint (epoch) report — one row of the paper's local
/// checkpoint figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch number (0-based).
    pub epoch: u64,
    /// Blocking duration of the coordinated step (`t_lcl`).
    pub coordinated_time: SimDuration,
    /// Bytes copied during the coordinated step.
    pub coordinated_bytes: u64,
    /// Bytes pre-copied in the background during this interval.
    pub precopied_bytes: u64,
    /// Bytes skipped because the chunk was unmodified.
    pub skipped_bytes: u64,
    /// Wasted (re-copied) pre-copy bytes this interval.
    pub wasted_bytes: u64,
    /// Protection faults taken during this interval.
    pub faults: u64,
    /// Interval length (end of previous checkpoint to end of this one).
    pub interval: SimDuration,
}

impl EpochReport {
    /// All bytes this epoch moved to NVM.
    pub fn total_bytes(&self) -> u64 {
        self.coordinated_bytes + self.precopied_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precopy_fraction_handles_zero() {
        let s = EngineStats::default();
        assert_eq!(s.precopy_fraction(), 0.0);
    }

    /// One distinct value per field: a field dropped from the merge or
    /// from `publish` fails the matching assertion below.
    fn distinct() -> EngineStats {
        EngineStats {
            checkpoints: 1,
            precopied_bytes: 2,
            coordinated_bytes: 3,
            skipped_bytes: 4,
            wasted_precopy_bytes: 5,
            coordinated_time: SimDuration::from_nanos(6),
            interference_time: SimDuration::from_nanos(7),
            fault_time: SimDuration::from_nanos(8),
            faults: 9,
            restarts: 10,
        }
    }

    #[test]
    fn publish_names_every_field() {
        let mut reg = MetricsRegistry::new();
        EngineStats::default().publish(&mut reg);
        assert!(reg.is_empty(), "zero totals publish no key");
        distinct().publish(&mut reg);
        assert_eq!(
            reg.snapshot().counters,
            [
                (names::CHKPT_CHECKPOINTS_TOTAL, 1),
                (names::CHKPT_PRECOPIED_BYTES_TOTAL, 2),
                (names::CHKPT_COORDINATED_BYTES_TOTAL, 3),
                (names::CHKPT_SKIPPED_BYTES_TOTAL, 4),
                (names::CHKPT_WASTED_PRECOPY_BYTES_TOTAL, 5),
                (names::CHKPT_COORDINATED_TIME_NS_TOTAL, 6),
                (names::CHKPT_INTERFERENCE_TIME_NS_TOTAL, 7),
                (names::CHKPT_FAULT_TIME_NS_TOTAL, 8),
                (names::CHKPT_FAULTS_TOTAL, 9),
                (names::CHKPT_RESTARTS_TOTAL, 10),
            ]
            .map(|(names::Counter(name), v)| (name.to_string(), v))
            .into()
        );
    }

    #[test]
    fn add_assign_merges_every_field() {
        let a = distinct();
        let mut total = a;
        total += &a;
        assert_eq!(total.checkpoints, 2);
        assert_eq!(total.precopied_bytes, 4);
        assert_eq!(total.coordinated_bytes, 6);
        assert_eq!(total.skipped_bytes, 8);
        assert_eq!(total.wasted_precopy_bytes, 10);
        assert_eq!(total.coordinated_time, SimDuration::from_nanos(12));
        assert_eq!(total.interference_time, SimDuration::from_nanos(14));
        assert_eq!(total.fault_time, SimDuration::from_nanos(16));
        assert_eq!(total.faults, 18);
        assert_eq!(total.restarts, 20);
    }

    #[test]
    fn precopy_fraction_math() {
        let s = EngineStats {
            precopied_bytes: 300,
            coordinated_bytes: 100,
            ..Default::default()
        };
        assert_eq!(s.total_copied_bytes(), 400);
        assert!((s.precopy_fraction() - 0.75).abs() < 1e-12);
    }
}
