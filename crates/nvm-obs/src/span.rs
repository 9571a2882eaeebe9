//! Span reconstruction: fold the flat [`TraceEvent`] stream back into
//! per-rank, per-epoch duration spans.
//!
//! The trace records *points* (a drain finished, a barrier was
//! reached); analysis wants *intervals* (this rank spent 4 ms stalled
//! at barrier 17). This module pairs the begin/end event kinds and
//! carries the single-event durations (`wait_ns`, `busy_ns`,
//! `cost_ns`) into explicit [`Span`]s so the blame and flamegraph
//! layers never have to know event pairing rules.
//!
//! Epoch attribution: events that carry an epoch keep it; everything
//! else inherits the rank's running epoch counter (the number of
//! `CoordinatedEnd` events the rank has emitted so far), which matches
//! the engine's own epoch numbering.
//!
//! The timing diagrams of the paper (Figures 1 and 5) are drawn from
//! these spans: [`SpanKind::Compute`], the blocking
//! [`SpanKind::Coordinated`] checkpoint, [`SpanKind::RemoteCheckpoint`]
//! and [`SpanKind::Restart`], with [`SpanKind::CommWait`] as the time a
//! rank was blocked by checkpoint traffic.

use nvm_trace::{TraceEvent, TraceEventKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// What a reconstructed span spent its time on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Background helper copy work overlapped under compute — the
    /// *hidden* checkpoint time of the epoch.
    PrecopyBusy,
    /// Compute slowdown charged because the helper shared the memory
    /// system — checkpoint cost exposed *despite* the overlap.
    Interference,
    /// One background drain of a single chunk (a sub-interval of
    /// [`SpanKind::PrecopyBusy`], kept for waste attribution).
    Drain,
    /// The blocking coordinated checkpoint phase.
    Coordinated,
    /// Stall at a cluster barrier waiting for stragglers.
    BarrierWait,
    /// Stall in a communication collective.
    CommWait,
    /// Hard-failure recovery: ladder walk, transfers, verification.
    Recovery,
    /// The application running: from the start of the run, a barrier
    /// release or the end of a coordinated phase, to the rank's next
    /// barrier arrival or coordinated begin — less any restart that
    /// held the cluster meanwhile. Contention stalls
    /// ([`SpanKind::CommWait`]) fall inside it.
    Compute,
    /// A remote checkpoint's shipment on the link of the node whose
    /// first rank carries it, overlapping that node's compute.
    RemoteCheckpoint,
    /// The cluster standing still while a batch of failures restarts,
    /// on the first rank of each failed node.
    Restart,
}

/// One reconstructed interval on one rank's virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Rank the interval belongs to.
    pub rank: u64,
    /// Checkpoint epoch the interval belongs to.
    pub epoch: u64,
    /// What the time was spent on.
    pub kind: SpanKind,
    /// Start, virtual nanoseconds.
    pub start_ns: u64,
    /// Length, virtual nanoseconds.
    pub dur_ns: u64,
}

struct RankState {
    /// Epochs committed so far == epoch of in-flight work.
    epoch: u64,
    /// Start of the compute in progress; `None` while the rank is at a
    /// barrier or in a coordinated phase.
    computing: Option<u64>,
    /// Open `CoordinatedBegin` (start time, epoch).
    open_coord: Option<(u64, u64)>,
    /// Open `RecoveryStart` times (stack; recoveries never really
    /// nest, but pairing by stack is robust to replayed traces).
    open_recovery: Vec<u64>,
}

impl RankState {
    /// A rank computes from the start of the run.
    fn new() -> Self {
        RankState {
            epoch: 0,
            computing: Some(0),
            open_coord: None,
            open_recovery: Vec::new(),
        }
    }

    /// End the compute in progress at `t_ns`: its start and length,
    /// the start moved past the restart in `restarts` that held it.
    fn stop_computing(&mut self, t_ns: u64, restarts: &[Range<u64>]) -> Option<(u64, u64)> {
        let start = self.computing.take()?;
        let start = match restarts.iter().rev().find(|r| r.contains(&start)) {
            Some(held) => held.end,
            None => start,
        };
        Some((start, t_ns.saturating_sub(start)))
    }
}

/// Reconstruct duration spans from an event stream.
///
/// The stream may be a single engine's buffer or a merged cluster
/// trace; per-rank event order is what matters and both preserve it.
/// The one exception is a restart, which holds every rank's clock: a
/// compute span that starts where a restart started is moved to where
/// it ended, which takes the merged stream's time order. Zero-length
/// intervals are dropped except `Coordinated`, whose presence (even at
/// zero cost) marks an epoch boundary for the blame layer.
pub fn build_spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut states: BTreeMap<u64, RankState> = BTreeMap::new();
    let mut spans = Vec::new();
    // Every restart's window so far, in time order.
    let mut restarts: Vec<Range<u64>> = Vec::new();
    for event in events {
        let state = states.entry(event.rank).or_insert_with(RankState::new);
        let mut push = |kind: SpanKind, epoch: u64, start_ns: u64, dur_ns: u64| {
            if dur_ns > 0 || kind == SpanKind::Coordinated {
                spans.push(Span {
                    rank: event.rank,
                    epoch,
                    kind,
                    start_ns,
                    dur_ns,
                });
            }
        };
        match &event.kind {
            TraceEventKind::PrecopyDrain { cost_ns, .. } => {
                push(SpanKind::Drain, state.epoch, event.t_ns, *cost_ns);
            }
            TraceEventKind::PrecopyEnd {
                epoch,
                busy_ns,
                interference_ns,
            } => {
                push(SpanKind::PrecopyBusy, *epoch, event.t_ns, *busy_ns);
                push(SpanKind::Interference, *epoch, event.t_ns, *interference_ns);
            }
            TraceEventKind::CoordinatedBegin { epoch, .. } => {
                if let Some((start, dur)) = state.stop_computing(event.t_ns, &restarts) {
                    push(SpanKind::Compute, state.epoch, start, dur);
                }
                state.open_coord = Some((event.t_ns, *epoch));
            }
            TraceEventKind::CoordinatedEnd { .. } => {
                if let Some((start, epoch)) = state.open_coord.take() {
                    push(
                        SpanKind::Coordinated,
                        epoch,
                        start,
                        event.t_ns.saturating_sub(start),
                    );
                }
                state.epoch += 1;
                state.computing = Some(event.t_ns);
            }
            TraceEventKind::BarrierWait { wait_ns, .. } => {
                if let Some((start, dur)) = state.stop_computing(event.t_ns, &restarts) {
                    push(SpanKind::Compute, state.epoch, start, dur);
                }
                push(SpanKind::BarrierWait, state.epoch, event.t_ns, *wait_ns);
                state.computing = Some(event.t_ns + wait_ns);
            }
            TraceEventKind::CommWait { wait_ns, .. } => {
                push(SpanKind::CommWait, state.epoch, event.t_ns, *wait_ns);
            }
            TraceEventKind::RecoveryStart { .. } => {
                state.open_recovery.push(event.t_ns);
            }
            TraceEventKind::RecoveryEnd { .. } => {
                if let Some(start) = state.open_recovery.pop() {
                    push(
                        SpanKind::Recovery,
                        state.epoch,
                        start,
                        event.t_ns.saturating_sub(start),
                    );
                }
            }
            TraceEventKind::RemoteTransfer { dur_ns, .. } => {
                push(SpanKind::RemoteCheckpoint, state.epoch, event.t_ns, *dur_ns);
            }
            TraceEventKind::RankFailure { restart_ns, .. } => {
                push(SpanKind::Restart, state.epoch, event.t_ns, *restart_ns);
                restarts.push(event.t_ns..event.t_ns + restart_ns);
            }
            _ => {}
        }
    }
    spans
}

/// Start instants of the failure batches that hold no hard failure.
/// Such a batch's [`SpanKind::Restart`] spans are the only record of
/// the time the cluster stood still for it, where a hard failure's
/// batch is recorded by its [`SpanKind::Recovery`] spans: blame and the
/// flamegraph charge these restarts to recovery.
pub(crate) fn soft_restarts(events: &[TraceEvent]) -> BTreeSet<u64> {
    let (mut soft, mut hard) = (BTreeSet::new(), BTreeSet::new());
    for event in events {
        if let TraceEventKind::RankFailure { hard: lost, .. } = event.kind {
            if lost { &mut hard } else { &mut soft }.insert(event.t_ns);
        }
    }
    &soft - &hard
}

/// End of the run on the virtual clock: the latest instant any event
/// or reconstructed interval touches.
pub fn wall_ns(events: &[TraceEvent]) -> u64 {
    let mut wall = 0;
    for event in events {
        let end = match &event.kind {
            // These events are stamped at *arrival*; the stall they
            // describe extends past the timestamp.
            TraceEventKind::BarrierWait { wait_ns, .. }
            | TraceEventKind::CommWait { wait_ns, .. } => event.t_ns + wait_ns,
            TraceEventKind::PrecopyDrain { cost_ns, .. } => event.t_ns + cost_ns,
            _ => event.t_ns,
        };
        wall = wall.max(end);
    }
    wall
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, rank: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { t_ns, rank, kind }
    }

    #[test]
    fn pairs_coordinated_and_recovery_and_carries_durations() {
        let events = vec![
            ev(
                0,
                1,
                TraceEventKind::PrecopyEnd {
                    epoch: 0,
                    busy_ns: 40,
                    interference_ns: 4,
                },
            ),
            ev(100, 1, TraceEventKind::BarrierWait { id: 1, wait_ns: 20 }),
            ev(
                120,
                1,
                TraceEventKind::CoordinatedBegin { epoch: 0, dirty: 1 },
            ),
            ev(
                150,
                1,
                TraceEventKind::CoordinatedEnd {
                    epoch: 0,
                    copied_bytes: 64,
                },
            ),
            ev(
                150,
                1,
                TraceEventKind::RecoveryStart {
                    node: 0,
                    source: "remote-buddy".into(),
                },
            ),
            ev(
                190,
                1,
                TraceEventKind::RecoveryEnd {
                    node: 0,
                    bytes: 64,
                    verified: 1,
                },
            ),
        ];
        let spans = build_spans(&events);
        assert_eq!(
            spans,
            vec![
                Span {
                    rank: 1,
                    epoch: 0,
                    kind: SpanKind::PrecopyBusy,
                    start_ns: 0,
                    dur_ns: 40
                },
                Span {
                    rank: 1,
                    epoch: 0,
                    kind: SpanKind::Interference,
                    start_ns: 0,
                    dur_ns: 4
                },
                Span {
                    rank: 1,
                    epoch: 0,
                    kind: SpanKind::Compute,
                    start_ns: 0,
                    dur_ns: 100
                },
                Span {
                    rank: 1,
                    epoch: 0,
                    kind: SpanKind::BarrierWait,
                    start_ns: 100,
                    dur_ns: 20
                },
                Span {
                    rank: 1,
                    epoch: 0,
                    kind: SpanKind::Coordinated,
                    start_ns: 120,
                    dur_ns: 30
                },
                // Post-commit events belong to the next epoch.
                Span {
                    rank: 1,
                    epoch: 1,
                    kind: SpanKind::Recovery,
                    start_ns: 150,
                    dur_ns: 40
                },
            ]
        );
        assert_eq!(wall_ns(&events), 190);
    }

    #[test]
    fn rank_timelines_come_from_barriers_phases_transfers_and_restarts() {
        use SpanKind::*;
        let barrier =
            |t, rank, wait_ns| ev(t, rank, TraceEventKind::BarrierWait { id: 1, wait_ns });
        let events = vec![
            barrier(100, 0, 20),
            ev(
                120,
                0,
                TraceEventKind::CoordinatedBegin { epoch: 0, dirty: 1 },
            ),
            ev(
                150,
                0,
                TraceEventKind::CoordinatedEnd {
                    epoch: 0,
                    copied_bytes: 64,
                },
            ),
            ev(
                150,
                0,
                TraceEventKind::RemoteTransfer {
                    bytes: 64,
                    incremental: false,
                    dur_ns: 500,
                },
            ),
            ev(
                300,
                0,
                TraceEventKind::CommWait {
                    op: "halo".into(),
                    wait_ns: 10,
                },
            ),
            barrier(380, 0, 20),
            barrier(400, 1, 0),
            ev(
                400,
                1,
                TraceEventKind::RankFailure {
                    iteration: 3,
                    hard: false,
                    restart_ns: 50,
                },
            ),
            barrier(600, 0, 0),
            ev(
                600,
                1,
                TraceEventKind::CoordinatedBegin { epoch: 1, dirty: 1 },
            ),
        ];
        let got: Vec<(u64, u64, SpanKind, u64, u64)> = (build_spans(&events).into_iter())
            .map(|s| (s.rank, s.epoch, s.kind, s.start_ns, s.dur_ns))
            .collect();
        assert_eq!(
            got,
            vec![
                // Rank 0 computes from the start of the run to its
                // barrier arrival, and from the release to the
                // coordinated begin (no time: dropped).
                (0, 0, Compute, 0, 100),
                (0, 0, BarrierWait, 100, 20),
                (0, 0, Coordinated, 120, 30),
                // The shipment runs on past the next barrier, over the
                // compute that the contention stall falls inside.
                (0, 1, RemoteCheckpoint, 150, 500),
                (0, 1, CommWait, 300, 10),
                (0, 1, Compute, 150, 230),
                (0, 1, BarrierWait, 380, 20),
                (1, 0, Compute, 0, 400),
                // The restart holds every rank: both ranks compute again
                // only where it ends.
                (1, 0, Restart, 400, 50),
                (0, 1, Compute, 450, 150),
                (1, 0, Compute, 450, 150),
            ]
        );
        // A shipment in flight does not extend the run's wall.
        assert_eq!(wall_ns(&events), 600);
    }

    #[test]
    fn zero_length_stalls_are_dropped_but_empty_commits_kept() {
        let events = vec![
            ev(10, 0, TraceEventKind::BarrierWait { id: 1, wait_ns: 0 }),
            ev(
                10,
                0,
                TraceEventKind::CoordinatedBegin { epoch: 0, dirty: 0 },
            ),
            ev(
                10,
                0,
                TraceEventKind::CoordinatedEnd {
                    epoch: 0,
                    copied_bytes: 0,
                },
            ),
        ];
        // The compute before the barrier is kept; the zero-wait
        // barrier and the empty compute between the phases are not.
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].kind, spans[0].dur_ns), (SpanKind::Compute, 10));
        assert_eq!(spans[1].kind, SpanKind::Coordinated);
        assert_eq!(spans[1].dur_ns, 0);
    }

    #[test]
    fn wall_extends_past_arrival_stamped_stalls() {
        let events = vec![ev(
            50,
            0,
            TraceEventKind::CommWait {
                op: "halo".into(),
                wait_ns: 25,
            },
        )];
        assert_eq!(wall_ns(&events), 75);
    }
}
