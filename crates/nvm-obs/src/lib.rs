//! # nvm-obs — trace analysis for the NVM checkpoint simulator
//!
//! Turns the deterministic [`nvm_trace`] event stream into answers:
//! how much checkpoint time was *exposed* on the critical path versus
//! *hidden* under compute, where the critical path spends its time,
//! and how utilization evolves over virtual time.
//!
//! Three layers (see DESIGN.md §15):
//!
//! * `span` ([`build_spans`]) — reconstruct per-rank duration spans from the flat
//!   event stream (begin/end pairing + carried durations);
//! * [`blame`] — barrier-segment critical-path extraction and an
//!   exact-sum blame decomposition ([`BlameReport`]); `rollup` —
//!   interval-bucketed time series ([`Rollup`]);
//! * exporters — folded-stack flamegraphs ([`to_folded`]), the
//!   stable-JSON [`AnalysisReport`] consumed by `run_all --analyze`,
//!   and the [`FlightDump`] (each rank's trace tail) attached to a
//!   traced run's fatal error.
//!
//! Everything here is a pure function of the event stream, so every
//! output is bit-identical at any `--threads N` and identical whether
//! computed live or offline from a recorded JSONL trace.

mod blame;
mod flame;
mod flight;
mod rollup;
mod span;

pub use blame::{blame, BlameReport, BlameShares, EpochBlame};
pub use flame::to_folded;
pub use flight::FlightDump;
pub use rollup::{series, Rollup, DEFAULT_BUCKET_NS};
pub use span::{build_spans, wall_ns, Span, SpanKind};

use nvm_trace::TraceEvent;
use serde::{Deserialize, Serialize};

/// Version of the [`AnalysisReport`]'s shape, written as its
/// `schema_version`. It moved with the trace's
/// [`nvm_trace::SCHEMA_VERSION`] up to 3; the trace's version 4 added
/// durations that no figure of the report is computed from, so the
/// report stayed at 3. Bumped when the report's fields change.
pub const REPORT_VERSION: u32 = 3;

/// The full analyzer output: blame + rollups, plus enough context to
/// interpret them. Serialized with [`to_stable_json`]; byte-identical
/// across thread counts and live vs offline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// The report's shape ([`REPORT_VERSION`]).
    pub schema_version: u32,
    /// Events analyzed.
    pub events: u64,
    /// Rollup bucket width used.
    pub bucket_ns: u64,
    /// Critical-path blame decomposition.
    pub blame: BlameReport,
    /// Virtual-time rollups.
    pub rollup: Rollup,
}

/// Analyze a trace: blame + rollup in one pass over the stream.
pub fn analyze(events: &[TraceEvent], bucket_ns: u64) -> AnalysisReport {
    AnalysisReport {
        schema_version: REPORT_VERSION,
        events: events.len() as u64,
        bucket_ns,
        blame: blame(events),
        rollup: Rollup::from_events(events, bucket_ns),
    }
}

/// Stable pretty-printed JSON (trailing newline, insertion-ordered
/// keys) — safe to byte-diff in tests and CI. Every report the bench
/// writes (analysis and metrics alike) is serialized through it.
pub fn to_stable_json<T: Serialize>(report: &T) -> String {
    let mut out = serde_json::to_string_pretty(report).expect("report serializes");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_trace::TraceEventKind;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                t_ns: 0,
                rank: 0,
                kind: TraceEventKind::PrecopyEnd {
                    epoch: 0,
                    busy_ns: 10,
                    interference_ns: 2,
                },
            },
            TraceEvent {
                t_ns: 50,
                rank: 0,
                kind: TraceEventKind::CoordinatedBegin { epoch: 0, dirty: 1 },
            },
            TraceEvent {
                t_ns: 70,
                rank: 0,
                kind: TraceEventKind::CoordinatedEnd {
                    epoch: 0,
                    copied_bytes: 64,
                },
            },
        ]
    }

    #[test]
    fn report_round_trips_through_stable_json() {
        let report = analyze(&sample(), 1_000);
        let json = to_stable_json(&report);
        assert!(json.ends_with('\n'));
        let back: AnalysisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn analysis_is_a_pure_function_of_the_stream() {
        let events = sample();
        assert_eq!(
            to_stable_json(&analyze(&events, 1_000)),
            to_stable_json(&analyze(&events, 1_000))
        );
    }

    #[test]
    fn report_carries_schema_and_event_count() {
        let report = analyze(&sample(), 1_000);
        assert_eq!(report.schema_version, REPORT_VERSION);
        assert_eq!(report.events, 3);
        assert_eq!(report.blame.exposed_checkpoint_ns, 22);
    }
}
