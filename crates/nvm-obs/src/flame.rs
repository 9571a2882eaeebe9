//! Folded-stack flamegraph export.
//!
//! One line per stack, `frame;frame;frame weight`, weights in virtual
//! nanoseconds — the format `inferno`/`flamegraph.pl` consume. Stacks
//! are three levels deep at most:
//!
//! ```text
//! rank_0;compute 9921875000
//! rank_0;compute;precopy_hidden 31250000
//! rank_0;checkpoint;coordinated 15625000
//! rank_0;checkpoint;interference 3125000
//! rank_0;stall;barrier 12500000
//! rank_0;stall;comm 6250000
//! rank_0;recovery 25000000
//! ```
//!
//! Hidden pre-copy renders as a *child of compute* (that is the whole
//! point of overlap: the helper runs under the application), so a
//! rank's `compute` self-weight plus its children always sums to the
//! run wall. A rank's `recovery` is its hard-failure recovery and the
//! restarts of its soft failures. Lines are emitted in lexicographic
//! stack order, so the output is byte-stable for a given trace.

use crate::span::{build_spans, soft_restarts, wall_ns, SpanKind};
use nvm_trace::TraceEvent;
use std::collections::BTreeMap;

/// Render the trace as folded stacks.
pub fn to_folded(events: &[TraceEvent]) -> String {
    let wall = wall_ns(events);
    let spans = build_spans(events);
    let soft = soft_restarts(events);
    // (rank, kind) -> total ns. Drains are a sub-interval of the
    // busy time already counted by PrecopyBusy; skip them here. A soft
    // failure's restart counts as recovery; a hard one's is its
    // recovery spans.
    let mut sums: BTreeMap<(u64, SpanKind), u64> = BTreeMap::new();
    let mut ranks: std::collections::BTreeSet<u64> = events.iter().map(|e| e.rank).collect();
    for span in &spans {
        ranks.insert(span.rank);
        let kind = match span.kind {
            SpanKind::Restart if soft.contains(&span.start_ns) => SpanKind::Recovery,
            SpanKind::Drain | SpanKind::Restart => continue,
            kind => kind,
        };
        *sums.entry((span.rank, kind)).or_default() += span.dur_ns;
    }
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    for rank in ranks {
        let get = |kind: SpanKind| sums.get(&(rank, kind)).copied().unwrap_or(0);
        let exposed = get(SpanKind::Coordinated)
            + get(SpanKind::Interference)
            + get(SpanKind::BarrierWait)
            + get(SpanKind::CommWait)
            + get(SpanKind::Recovery);
        let hidden = get(SpanKind::PrecopyBusy);
        // Compute self-weight: wall minus exposed phases minus the
        // helper work nested under it.
        let compute = wall.saturating_sub(exposed + hidden);
        let mut put = |stack: String, weight: u64| {
            if weight > 0 {
                *lines.entry(stack).or_default() += weight;
            }
        };
        put(format!("rank_{rank};compute"), compute);
        put(format!("rank_{rank};compute;precopy_hidden"), hidden);
        put(
            format!("rank_{rank};checkpoint;coordinated"),
            get(SpanKind::Coordinated),
        );
        put(
            format!("rank_{rank};checkpoint;interference"),
            get(SpanKind::Interference),
        );
        put(
            format!("rank_{rank};stall;barrier"),
            get(SpanKind::BarrierWait),
        );
        put(format!("rank_{rank};stall;comm"), get(SpanKind::CommWait));
        put(format!("rank_{rank};recovery"), get(SpanKind::Recovery));
    }
    let mut out = String::new();
    for (stack, weight) in lines {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_trace::TraceEventKind;

    fn ev(t_ns: u64, rank: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { t_ns, rank, kind }
    }

    #[test]
    fn folded_lines_are_stack_space_weight() {
        let events = vec![
            ev(
                0,
                0,
                TraceEventKind::PrecopyEnd {
                    epoch: 0,
                    busy_ns: 10,
                    interference_ns: 5,
                },
            ),
            ev(80, 0, TraceEventKind::BarrierWait { id: 1, wait_ns: 20 }),
        ];
        let folded = to_folded(&events);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "rank_0;checkpoint;interference 5",
                "rank_0;compute 65",
                "rank_0;compute;precopy_hidden 10",
                "rank_0;stall;barrier 20",
            ]
        );
        // Every line parses as "<frames> <u64>" and the rank's total
        // is the wall.
        let mut total = 0u64;
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty() && stack.split(';').count() >= 2);
            total += weight.parse::<u64>().unwrap();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn a_soft_failure_restart_is_its_rank_recovery() {
        let failure = |hard| TraceEventKind::RankFailure {
            iteration: 1,
            hard,
            restart_ns: 25,
        };
        let end = ev(100, 0, TraceEventKind::ProtectionFault { chunk: 1 });
        let soft = vec![ev(10, 0, failure(false)), end.clone()];
        assert_eq!(to_folded(&soft), "rank_0;compute 75\nrank_0;recovery 25\n");
        // A hard failure's recovery is its recovery span alone.
        let hard = vec![ev(10, 0, failure(true)), end];
        assert_eq!(to_folded(&hard), "rank_0;compute 100\n");
    }

    #[test]
    fn ranks_with_only_point_events_still_get_a_compute_row() {
        let events = vec![
            ev(30, 3, TraceEventKind::ProtectionFault { chunk: 1 }),
            ev(60, 5, TraceEventKind::ProtectionFault { chunk: 2 }),
        ];
        let folded = to_folded(&events);
        assert_eq!(folded, "rank_3;compute 60\nrank_5;compute 60\n");
    }
}
