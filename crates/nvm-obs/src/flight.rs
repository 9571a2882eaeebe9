//! Flight dump: the last N events per rank of a traced run, taken at
//! the moment the run dies.
//!
//! The dump is a view of the trace, not a capture path of its own:
//! the cluster simulator copies the tail of each rank's record into
//! the error report when a traced run fails. It is an ordinary merged
//! event stream, so every analysis in this crate — and the
//! JSONL/Chrome exporters in nvm-trace — work on it unchanged.

use nvm_trace::{merge_ranked, TraceEvent};
use serde::{Deserialize, Serialize};

/// The materialized tail of a dying run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Why the dump was taken (e.g. `unrecoverable node 3`,
    /// `recovery fell through to virgin`).
    pub reason: String,
    /// Per-rank tail bound the dump was taken with.
    pub per_rank: usize,
    /// Last `<= per_rank` events of every rank, merged in
    /// `(t_ns, rank)` order like any cluster trace.
    pub events: Vec<TraceEvent>,
}

impl FlightDump {
    /// Copy the last `per_rank` events of each rank's record and merge.
    pub fn capture<'a>(
        reason: impl Into<String>,
        per_rank: usize,
        records: impl IntoIterator<Item = &'a [TraceEvent]>,
    ) -> Self {
        let tails = records
            .into_iter()
            .map(|events| events[events.len().saturating_sub(per_rank)..].to_vec())
            .collect();
        FlightDump {
            reason: reason.into(),
            per_rank,
            events: merge_ranked(tails),
        }
    }

    /// Human-readable block for error reports: a header line plus one
    /// line per event.
    pub fn render(&self) -> String {
        let mut out = format!(
            "flight recorder ({}): last {} event(s) per rank, {} total\n",
            self.reason,
            self.per_rank,
            self.events.len()
        );
        for event in &self.events {
            out.push_str(&format!(
                "  t={}ns rank={} {:?}\n",
                event.t_ns, event.rank, event.kind
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_trace::TraceEventKind;

    fn ev(t_ns: u64, rank: u64, chunk: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            rank,
            kind: TraceEventKind::ProtectionFault { chunk },
        }
    }

    #[test]
    fn keeps_only_the_tail_and_merges_in_time_rank_order() {
        let rank0 = [ev(0, 0, 1), ev(10, 0, 2), ev(20, 0, 3)];
        let rank1 = [ev(5, 1, 4), ev(15, 1, 5)];
        let dump = FlightDump::capture("test", 2, [&rank0[..], &rank1[..]]);
        let stamps: Vec<(u64, u64)> = dump.events.iter().map(|e| (e.t_ns, e.rank)).collect();
        // Rank 0 lost its first event (bound 2); merge is (t, rank).
        assert_eq!(stamps, vec![(5, 1), (10, 0), (15, 1), (20, 0)]);
        assert_eq!(dump.per_rank, 2);
    }

    #[test]
    fn render_carries_reason_and_every_event() {
        let dump = FlightDump::capture("unrecoverable node 3", 8, [&[ev(7, 0, 9)][..]]);
        let text = dump.render();
        assert!(text.starts_with("flight recorder (unrecoverable node 3)"));
        assert!(text.contains("t=7ns rank=0"));
        assert_eq!(text.lines().count(), 2);
    }
}
