//! Critical-path extraction and blame decomposition.
//!
//! ## Model
//!
//! A cluster run is a chain of *barrier segments*. Every
//! [`TraceEventKind::BarrierWait`] carries the barrier's sequence id
//! and the rank's stall time; the barrier's *release instant* is the
//! max over ranks of `arrival + wait`, and the run's critical path is
//! the chain of segments `[previous release, release]`. Within a
//! segment exactly the ranks that arrived last (stalled zero
//! nanoseconds) were on the critical path; we pick the lowest such
//! rank as the segment's *critical rank* (a deterministic tie-break —
//! any zero-wait rank's timeline has the same length by definition).
//!
//! The DAG edges are therefore: program order within a rank,
//! barrier-join edges between all ranks and the release instant, and
//! recovery intervals (which block the whole cluster and are charged
//! to their segment regardless of emitting rank). Commit/fetch
//! ordering is subsumed by the barriers that bracket the coordinated
//! phase, so no separate edge type is needed for them.
//!
//! ## Blame
//!
//! Each segment's length is decomposed by walking the critical rank's
//! spans that *start* inside the segment, clamping categories in a
//! fixed order (recovery, coordinated, interference, comm, barrier)
//! against the time still unaccounted, and assigning the remainder to
//! compute. Clamping makes the shares sum to the segment length
//! *exactly* in integer nanoseconds, so whole-run totals tile the
//! critical path with zero rounding drift — the invariant the
//! property tests pin.
//!
//! Traces without barriers (single-engine runs) degrade to one
//! segment covering the whole wall whose critical rank is the rank
//! with the latest event.

use crate::span::{build_spans, soft_restarts, wall_ns, Span, SpanKind};
use nvm_trace::{TraceEvent, TraceEventKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Critical-path nanoseconds by category. Shares always sum exactly
/// to the length of the path they decompose.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlameShares {
    /// Application compute (the remainder after all stalls).
    pub compute_ns: u64,
    /// Blocking coordinated checkpoint phase.
    pub coordinated_ns: u64,
    /// Compute slowdown from the pre-copy helper sharing the memory
    /// system — checkpoint cost exposed despite overlap.
    pub interference_ns: u64,
    /// Communication-collective stalls.
    pub comm_ns: u64,
    /// Barrier stalls (zero on a true critical path; nonzero only in
    /// degenerate tail segments).
    pub barrier_ns: u64,
    /// Failure recovery: a hard failure's recovery, and the restart of
    /// a batch of soft failures.
    pub recovery_ns: u64,
}

impl BlameShares {
    /// Sum of all categories.
    pub fn total(&self) -> u64 {
        self.compute_ns
            + self.coordinated_ns
            + self.interference_ns
            + self.comm_ns
            + self.barrier_ns
            + self.recovery_ns
    }

    fn add(&mut self, other: &BlameShares) {
        self.compute_ns += other.compute_ns;
        self.coordinated_ns += other.coordinated_ns;
        self.interference_ns += other.interference_ns;
        self.comm_ns += other.comm_ns;
        self.barrier_ns += other.barrier_ns;
        self.recovery_ns += other.recovery_ns;
    }
}

/// Blame for one checkpoint epoch (all segments up to and including
/// the one that committed the epoch).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochBlame {
    /// Epoch index.
    pub epoch: u64,
    /// Critical-path nanoseconds spent in this epoch.
    pub wall_ns: u64,
    /// Decomposition of `wall_ns`.
    pub shares: BlameShares,
    /// Helper copy nanoseconds overlapped under compute, summed over
    /// all ranks (hidden checkpoint work).
    pub hidden_precopy_ns: u64,
    /// Subset of the hidden work invalidated by re-dirtied chunks.
    pub wasted_precopy_ns: u64,
}

/// Whole-run critical-path blame report.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BlameReport {
    /// Ranks observed in the trace.
    pub ranks: u64,
    /// Barrier joins observed in the trace.
    pub barriers: u64,
    /// End of the run on the virtual clock.
    pub wall_ns: u64,
    /// Length of the extracted critical path (== `wall_ns` when the
    /// trace has a final barrier, never greater).
    pub critical_path_ns: u64,
    /// Critical-path decomposition, whole run.
    pub totals: BlameShares,
    /// Checkpoint time on the critical path: coordinated + helper
    /// interference.
    pub exposed_checkpoint_ns: u64,
    /// Helper copy nanoseconds hidden under compute, all ranks.
    pub hidden_precopy_ns: u64,
    /// Hidden nanoseconds invalidated by re-dirtied chunks ("wasted
    /// copy" — the paper's argument against constant pre-copy).
    pub wasted_precopy_ns: u64,
    /// `exposed_checkpoint_ns / critical_path_ns`.
    pub exposed_checkpoint_fraction: f64,
    /// Hidden helper work as a fraction of total rank-time
    /// (`hidden / (ranks * wall)`).
    pub hidden_checkpoint_fraction: f64,
    /// Fraction of all checkpoint copy work (hidden + exposed, summed
    /// over ranks) that ran hidden *and* survived to commit.
    pub overlap_efficiency: f64,
    /// `totals.comm_ns / critical_path_ns`.
    pub comm_stall_share: f64,
    /// `totals.recovery_ns / critical_path_ns`.
    pub recovery_share: f64,
    /// Per-epoch decomposition.
    pub epochs: Vec<EpochBlame>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One extracted critical-path segment.
struct Segment {
    start_ns: u64,
    end_ns: u64,
    critical_rank: u64,
}

/// Extract the barrier-segment chain. Returns segments tiling
/// `[0, critical_path_ns]` in order.
fn segments(events: &[TraceEvent], wall: u64) -> Vec<Segment> {
    // Barrier id -> (release instant, lowest zero-wait rank).
    let mut barriers: BTreeMap<u64, (u64, Option<u64>)> = BTreeMap::new();
    // Rank -> latest event timestamp (fallback critical rank).
    let mut last_seen: BTreeMap<u64, u64> = BTreeMap::new();
    for event in events {
        let seen = last_seen.entry(event.rank).or_insert(0);
        *seen = (*seen).max(event.t_ns);
        if let TraceEventKind::BarrierWait { id, wait_ns } = event.kind {
            let entry = barriers.entry(id).or_insert((0, None));
            entry.0 = entry.0.max(event.t_ns + wait_ns);
            if wait_ns == 0 {
                entry.1 = Some(entry.1.map_or(event.rank, |r: u64| r.min(event.rank)));
            }
        }
    }
    // The rank whose timeline ends last: critical for barrierless
    // traces and for any tail past the final barrier.
    let busiest = last_seen
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(rank, _)| *rank)
        .unwrap_or(0);
    let mut releases: Vec<(u64, u64)> = barriers
        .values()
        .map(|(release, rank)| (*release, rank.unwrap_or(busiest)))
        .collect();
    releases.sort_unstable();
    let mut out = Vec::new();
    let mut start = 0;
    for (release, rank) in releases {
        // Barriers released at the same instant collapse into the
        // later one; empty segments carry no blame.
        if release > start {
            out.push(Segment {
                start_ns: start,
                end_ns: release,
                critical_rank: rank,
            });
            start = release;
        }
    }
    if wall > start {
        out.push(Segment {
            start_ns: start,
            end_ns: wall,
            critical_rank: busiest,
        });
    }
    out
}

/// Charge `amount` to `*bucket`, clamped to the segment time still
/// unaccounted for.
fn charge(bucket: &mut u64, amount: u64, remaining: &mut u64) {
    let take = amount.min(*remaining);
    *bucket += take;
    *remaining -= take;
}

/// Build the whole-run blame report from a trace.
pub fn blame(events: &[TraceEvent]) -> BlameReport {
    let wall = wall_ns(events);
    let spans = build_spans(events);
    let segs = segments(events, wall);
    let ranks = {
        let mut set: Vec<u64> = events.iter().map(|e| e.rank).collect();
        set.sort_unstable();
        set.dedup();
        set.len().max(1) as u64
    };
    let barriers = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::BarrierWait { id, .. } => Some(id),
            _ => None,
        })
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;

    // Wasted pre-copy: a PrecopyWaste event invalidates the chunk's
    // most recent drain; charge that drain's cost at the waste instant.
    let mut last_drain: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut wastes: Vec<(u64, u64)> = Vec::new(); // (t_ns, cost_ns)
    for event in events {
        match event.kind {
            TraceEventKind::PrecopyDrain { chunk, cost_ns, .. } => {
                last_drain.insert((event.rank, chunk), cost_ns);
            }
            TraceEventKind::PrecopyWaste { chunk } => {
                let cost = last_drain.remove(&(event.rank, chunk)).unwrap_or(0);
                wastes.push((event.t_ns, cost));
            }
            _ => {}
        }
    }

    // Spans sorted by start for the per-segment sweep (stream order
    // sorts by *emission* time; Coordinated/Recovery spans are emitted
    // at their end).
    let mut by_start: Vec<&Span> = spans.iter().collect();
    by_start.sort_by_key(|s| s.start_ns);
    let mut soft = soft_restarts(events);

    let mut totals = BlameShares::default();
    let mut epochs: BTreeMap<u64, EpochBlame> = BTreeMap::new();
    let mut epoch_idx = 0u64;
    let mut cursor = 0usize;
    let mut waste_cursor = 0usize;
    let last_seg = segs.len().saturating_sub(1);
    for (i, seg) in segs.iter().enumerate() {
        let seg_len = seg.end_ns - seg.start_ns;
        let mut remaining = seg_len;
        let mut shares = BlameShares::default();
        let mut hidden = 0u64;
        let mut committed = false;
        // A span belongs to the segment containing its start; the
        // final segment also takes spans starting exactly at the wall.
        let in_seg = |start: u64| start < seg.end_ns || (i == last_seg && start == seg.end_ns);
        let begin = cursor;
        while cursor < by_start.len() && in_seg(by_start[cursor].start_ns) {
            cursor += 1;
        }
        // Pass 1: whole-cluster charges (recovery blocks every rank).
        for span in &by_start[begin..cursor] {
            match span.kind {
                SpanKind::Recovery => charge(&mut shares.recovery_ns, span.dur_ns, &mut remaining),
                // A soft batch's restart, once, whichever rank it is on.
                SpanKind::Restart if soft.remove(&span.start_ns) => {
                    charge(&mut shares.recovery_ns, span.dur_ns, &mut remaining);
                }
                SpanKind::PrecopyBusy => hidden += span.dur_ns,
                SpanKind::Coordinated => committed = true,
                _ => {}
            }
        }
        // Pass 2..: the critical rank's own timeline, one category at
        // a time so the clamp order is deterministic.
        let critical = |kind: SpanKind| {
            by_start[begin..cursor]
                .iter()
                .filter(|s| s.rank == seg.critical_rank && s.kind == kind)
                .map(|s| s.dur_ns)
                .sum::<u64>()
        };
        charge(
            &mut shares.coordinated_ns,
            critical(SpanKind::Coordinated),
            &mut remaining,
        );
        charge(
            &mut shares.interference_ns,
            critical(SpanKind::Interference),
            &mut remaining,
        );
        charge(
            &mut shares.comm_ns,
            critical(SpanKind::CommWait),
            &mut remaining,
        );
        charge(
            &mut shares.barrier_ns,
            critical(SpanKind::BarrierWait),
            &mut remaining,
        );
        shares.compute_ns = remaining;

        let mut wasted = 0u64;
        while waste_cursor < wastes.len() && in_seg(wastes[waste_cursor].0) {
            wasted += wastes[waste_cursor].1;
            waste_cursor += 1;
        }

        totals.add(&shares);
        let row = epochs.entry(epoch_idx).or_insert_with(|| EpochBlame {
            epoch: epoch_idx,
            ..EpochBlame::default()
        });
        row.wall_ns += seg_len;
        row.shares.add(&shares);
        row.hidden_precopy_ns += hidden;
        row.wasted_precopy_ns += wasted;
        if committed {
            epoch_idx += 1;
        }
    }

    let critical_path_ns = segs.last().map_or(0, |s| s.end_ns);
    let hidden_precopy_ns: u64 = epochs.values().map(|e| e.hidden_precopy_ns).sum();
    let wasted_precopy_ns: u64 = epochs.values().map(|e| e.wasted_precopy_ns).sum();
    let exposed_checkpoint_ns = totals.coordinated_ns + totals.interference_ns;
    // Overlap efficiency compares like with like: helper nanoseconds
    // summed over every rank, hidden vs exposed.
    let all_rank_exposed: u64 = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Coordinated | SpanKind::Interference))
        .map(|s| s.dur_ns)
        .sum();
    let useful_hidden = hidden_precopy_ns.saturating_sub(wasted_precopy_ns);

    BlameReport {
        ranks,
        barriers,
        wall_ns: wall,
        critical_path_ns,
        exposed_checkpoint_fraction: ratio(exposed_checkpoint_ns, critical_path_ns),
        hidden_checkpoint_fraction: ratio(hidden_precopy_ns, ranks * wall),
        overlap_efficiency: ratio(useful_hidden, hidden_precopy_ns + all_rank_exposed),
        comm_stall_share: ratio(totals.comm_ns, critical_path_ns),
        recovery_share: ratio(totals.recovery_ns, critical_path_ns),
        totals,
        exposed_checkpoint_ns,
        hidden_precopy_ns,
        wasted_precopy_ns,
        epochs: epochs.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, rank: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { t_ns, rank, kind }
    }

    /// Two ranks, one epoch: rank 1 computes longer (arrives at the
    /// barrier last, waits 0), then a bracketed coordinated phase.
    fn two_rank_epoch() -> Vec<TraceEvent> {
        vec![
            // Rank 0 arrives at t=60 and waits 40; rank 1 arrives at
            // t=100 and releases the barrier.
            ev(60, 0, TraceEventKind::BarrierWait { id: 1, wait_ns: 40 }),
            ev(
                0,
                1,
                TraceEventKind::PrecopyEnd {
                    epoch: 0,
                    busy_ns: 30,
                    interference_ns: 10,
                },
            ),
            ev(100, 1, TraceEventKind::BarrierWait { id: 1, wait_ns: 0 }),
            // Coordinated phase 100..125 on both ranks, then the
            // closing barrier at 125.
            ev(
                100,
                0,
                TraceEventKind::CoordinatedBegin { epoch: 0, dirty: 1 },
            ),
            ev(
                115,
                0,
                TraceEventKind::CoordinatedEnd {
                    epoch: 0,
                    copied_bytes: 64,
                },
            ),
            ev(
                100,
                1,
                TraceEventKind::CoordinatedBegin { epoch: 0, dirty: 1 },
            ),
            ev(
                125,
                1,
                TraceEventKind::CoordinatedEnd {
                    epoch: 0,
                    copied_bytes: 64,
                },
            ),
            ev(115, 0, TraceEventKind::BarrierWait { id: 2, wait_ns: 10 }),
            ev(125, 1, TraceEventKind::BarrierWait { id: 2, wait_ns: 0 }),
        ]
    }

    #[test]
    fn critical_rank_is_the_zero_wait_straggler() {
        let report = blame(&two_rank_epoch());
        assert_eq!(report.ranks, 2);
        assert_eq!(report.barriers, 2);
        assert_eq!(report.wall_ns, 125);
        assert_eq!(report.critical_path_ns, 125);
        // Segment 1 (0..100): rank 1 critical — 10 ns interference,
        // 90 ns compute. Segment 2 (100..125): rank 1's coordinated
        // phase, 25 ns.
        assert_eq!(report.totals.interference_ns, 10);
        assert_eq!(report.totals.coordinated_ns, 25);
        assert_eq!(report.totals.compute_ns, 90);
        assert_eq!(report.totals.barrier_ns, 0);
        assert_eq!(report.totals.total(), 125);
        assert_eq!(report.exposed_checkpoint_ns, 35);
        assert_eq!(report.hidden_precopy_ns, 30);
        // One committed epoch; both segments fold into it.
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.epochs[0].wall_ns, 125);
        assert_eq!(report.epochs[0].shares.total(), 125);
    }

    #[test]
    fn shares_tile_the_critical_path_exactly() {
        let report = blame(&two_rank_epoch());
        assert_eq!(report.totals.total(), report.critical_path_ns);
        let per_epoch: u64 = report.epochs.iter().map(|e| e.shares.total()).sum();
        assert_eq!(per_epoch, report.critical_path_ns);
    }

    #[test]
    fn waste_invalidates_the_last_drain_of_the_chunk() {
        let events = vec![
            ev(
                0,
                0,
                TraceEventKind::PrecopyDrain {
                    chunk: 7,
                    bytes: 64,
                    cost_ns: 12,
                },
            ),
            ev(5, 0, TraceEventKind::PrecopyWaste { chunk: 7 }),
            // A second waste of the same chunk with no fresh drain
            // charges nothing.
            ev(6, 0, TraceEventKind::PrecopyWaste { chunk: 7 }),
        ];
        let report = blame(&events);
        assert_eq!(report.wasted_precopy_ns, 12);
    }

    #[test]
    fn barrierless_trace_is_one_segment_owned_by_latest_rank() {
        let events = vec![
            ev(
                0,
                0,
                TraceEventKind::CoordinatedBegin { epoch: 0, dirty: 0 },
            ),
            ev(
                40,
                0,
                TraceEventKind::CoordinatedEnd {
                    epoch: 0,
                    copied_bytes: 0,
                },
            ),
            ev(90, 1, TraceEventKind::ProtectionFault { chunk: 1 }),
        ];
        let report = blame(&events);
        assert_eq!(report.barriers, 0);
        assert_eq!(report.critical_path_ns, 90);
        // Rank 1 has the latest event, so rank 0's coordinated span is
        // not on the critical path; everything is compute.
        assert_eq!(report.totals.compute_ns, 90);
        assert_eq!(report.totals.coordinated_ns, 0);
    }

    #[test]
    fn empty_trace_yields_a_zero_report() {
        let report = blame(&[]);
        assert_eq!(report.critical_path_ns, 0);
        assert_eq!(report.totals.total(), 0);
        assert!(report.epochs.is_empty());
        assert_eq!(report.exposed_checkpoint_fraction, 0.0);
    }

    #[test]
    fn recovery_blocks_the_segment_regardless_of_emitting_rank() {
        let mut events = two_rank_epoch();
        // A 20 ns recovery emitted by rank 0 inside segment 1; rank 1
        // is the critical rank but the cluster still stalled.
        events.push(ev(
            20,
            0,
            TraceEventKind::RecoveryStart {
                node: 0,
                source: "local-store".into(),
            },
        ));
        events.push(ev(
            40,
            0,
            TraceEventKind::RecoveryEnd {
                node: 0,
                bytes: 64,
                verified: 1,
            },
        ));
        let report = blame(&events);
        assert_eq!(report.totals.recovery_ns, 20);
        assert_eq!(report.totals.compute_ns, 70);
        assert_eq!(report.totals.total(), report.critical_path_ns);
        assert!(report.recovery_share > 0.0);

        // A hard failure's batch is its recovery span: the restart the
        // batch records, on the failed rank and on a soft one beside
        // it, is not counted again.
        let failure = |rank, hard| {
            let restart_ns = 30;
            let kind = TraceEventKind::RankFailure {
                iteration: 1,
                hard,
                restart_ns,
            };
            ev(20, rank, kind)
        };
        let mut with_restarts = events.clone();
        with_restarts.extend([failure(0, true), failure(1, false)]);
        assert_eq!(blame(&with_restarts), report);
    }

    #[test]
    fn a_batch_of_soft_failures_is_recovery_once() {
        // Two soft failures in one batch at t=20 on different ranks:
        // the cluster stood still 15 ns, once.
        let mut events = two_rank_epoch();
        for rank in [0, 1] {
            let kind = TraceEventKind::RankFailure {
                iteration: 1,
                hard: false,
                restart_ns: 15,
            };
            events.push(ev(20, rank, kind));
        }
        let report = blame(&events);
        assert_eq!(report.totals.recovery_ns, 15);
        assert_eq!(report.totals.compute_ns, 75);
        assert_eq!(report.totals.total(), report.critical_path_ns);
    }
}
