//! Schedule traces (the timing diagrams of Figures 1 and 5).
//!
//! The simulator records what rank 0 was doing over time as a list of
//! [`Span`]s. Tests assert the *shape* of the schedule: a no-pre-copy
//! run shows `C | L | C | L ...` with remote checkpoints overlapping
//! the following compute, while pre-copy runs show local-checkpoint
//! spans shrinking because data drained in the background.

use nvm_emu::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What a rank is doing during a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activity {
    /// Application compute (`C_i`).
    Compute,
    /// Coordinated local checkpoint (`L_i`).
    LocalCheckpoint,
    /// Remote checkpoint data movement (`R_i`, overlapped).
    RemoteCheckpoint,
    /// Restart/recovery after a failure.
    Restart,
    /// Blocked on checkpoint-related contention.
    Blocked,
}

/// One contiguous activity span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Activity during the span.
    pub activity: Activity,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// A recorded schedule.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ScheduleTrace {
    spans: Vec<Span>,
}

impl ScheduleTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a span. Zero-length spans are dropped.
    pub fn record(&mut self, activity: Activity, start: SimTime, end: SimTime) {
        if end > start {
            self.spans.push(Span {
                activity,
                start,
                end,
            });
        }
    }

    /// Spans of one activity.
    pub fn of(&self, activity: Activity) -> Vec<Span> {
        self.spans
            .iter()
            .copied()
            .filter(|s| s.activity == activity)
            .collect()
    }

    /// Total time spent in an activity.
    pub fn total(&self, activity: Activity) -> SimDuration {
        self.of(activity)
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// The compact activity sequence with consecutive duplicates
    /// merged, e.g. `[C, L, C, L, R]` — handy for shape assertions.
    pub fn sequence(&self) -> Vec<Activity> {
        let mut out: Vec<Activity> = Vec::new();
        for s in &self.spans {
            if out.last() != Some(&s.activity) {
                out.push(s.activity);
            }
        }
        out
    }

    /// Do any two spans of the given activities overlap in time?
    /// (Remote checkpoints *should* overlap compute; local checkpoints
    /// should not.)
    pub fn overlaps(&self, a: Activity, b: Activity) -> bool {
        for x in self.of(a) {
            for y in self.of(b) {
                if x.start < y.end && y.start < x.end {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn sequence_merges_consecutive() {
        let mut tr = ScheduleTrace::new();
        tr.record(Activity::Compute, t(0), t(10));
        tr.record(Activity::Compute, t(10), t(20));
        tr.record(Activity::LocalCheckpoint, t(20), t(22));
        tr.record(Activity::Compute, t(22), t(30));
        assert_eq!(
            tr.sequence(),
            vec![
                Activity::Compute,
                Activity::LocalCheckpoint,
                Activity::Compute
            ]
        );
    }

    #[test]
    fn totals_accumulate() {
        let mut tr = ScheduleTrace::new();
        tr.record(Activity::Compute, t(0), t(10));
        tr.record(Activity::LocalCheckpoint, t(10), t(12));
        tr.record(Activity::Compute, t(12), t(22));
        assert_eq!(tr.total(Activity::Compute), SimDuration::from_secs(20));
        assert_eq!(
            tr.total(Activity::LocalCheckpoint),
            SimDuration::from_secs(2)
        );
        assert_eq!(tr.total(Activity::Restart), SimDuration::ZERO);
    }

    #[test]
    fn overlap_detection() {
        let mut tr = ScheduleTrace::new();
        tr.record(Activity::Compute, t(0), t(10));
        tr.record(Activity::RemoteCheckpoint, t(5), t(15));
        tr.record(Activity::LocalCheckpoint, t(10), t(12));
        assert!(tr.overlaps(Activity::Compute, Activity::RemoteCheckpoint));
        assert!(!tr.overlaps(Activity::Compute, Activity::LocalCheckpoint));
    }

    #[test]
    fn zero_length_spans_dropped() {
        let mut tr = ScheduleTrace::new();
        tr.record(Activity::Compute, t(5), t(5));
        assert!(tr.spans.is_empty());
    }
}
