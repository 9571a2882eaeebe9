//! Trace analysis (`run_all --analyze <path>` / `--analyze-from <trace>`).
//!
//! Live mode runs the same traced GTC simulation as `--trace`, feeds
//! the merged event stream through the `nvm-obs` analyzer, and writes
//! the blame + rollup report to `path` as stable-ordered pretty JSON
//! plus a folded-stack flamegraph alongside it (`<path>.folded`, or
//! `.folded` replacing a `.json` extension — the format
//! `flamegraph.pl`/`inferno` consume directly).
//!
//! Offline mode (`--analyze-from`) loads a previously recorded JSONL
//! trace instead of running anything, validating its schema header
//! ([`nvm_trace::read_jsonl`] — a newer-versioned trace is a typed
//! error, a headerless one upgrades as legacy v1). Because the report
//! is a pure function of the event stream, analyzing a recorded trace
//! yields byte-identical output to analyzing the run it came from —
//! CI diffs the two.

use crate::experiments::tracing;
use crate::report::Table;
use crate::scale::Scale;
use nvm_obs::{analyze, to_folded, to_stable_json, AnalysisReport, DEFAULT_BUCKET_NS};
use nvm_trace::TraceEvent;

/// Run the traced simulation and analyze its stream (live mode).
/// Returns the events too so callers can also export the raw trace.
pub fn run(scale: &Scale) -> (Vec<TraceEvent>, AnalysisReport) {
    let (events, _summary) = tracing::run(scale, None);
    let report = analyze(&events, DEFAULT_BUCKET_NS);
    (events, report)
}

/// Analyze a recorded JSONL trace (offline mode); returns what
/// [`run`] does. Schema-version mismatches surface as
/// [`nvm_trace::TraceReadError::Schema`].
pub fn from_recorded(
    text: &str,
) -> Result<(Vec<TraceEvent>, AnalysisReport), nvm_trace::TraceReadError> {
    let events = nvm_trace::read_jsonl(text)?;
    let report = analyze(&events, DEFAULT_BUCKET_NS);
    Ok((events, report))
}

/// Sibling path for the folded-stack flamegraph.
fn folded_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.folded"),
        None => format!("{path}.folded"),
    }
}

/// Write the report to `path` as stable JSON and the flamegraph to
/// its `.folded` sibling. Returns the flamegraph path.
pub fn export(
    report: &AnalysisReport,
    events: &[TraceEvent],
    path: &str,
) -> std::io::Result<String> {
    std::fs::write(path, to_stable_json(report))?;
    let folded = folded_path(path);
    std::fs::write(&folded, to_folded(events))?;
    Ok(folded)
}

/// Render the blame headline as a table.
pub fn render(report: &AnalysisReport, path: &str) -> Table {
    let b = &report.blame;
    let mut t = Table::new(
        &format!("Blame — critical-path decomposition (written to {path})"),
        &[
            "Wall (s)",
            "Critical path (s)",
            "Exposed ckpt",
            "Hidden ckpt",
            "Overlap eff",
            "Comm stall",
            "Recovery",
            "Epochs",
        ],
    );
    t.row(vec![
        format!("{:.2}", b.wall_ns as f64 / 1e9),
        format!("{:.2}", b.critical_path_ns as f64 / 1e9),
        format!("{:.1}%", b.exposed_checkpoint_fraction * 100.0),
        format!("{:.1}%", b.hidden_checkpoint_fraction * 100.0),
        format!("{:.3}", b.overlap_efficiency),
        format!("{:.1}%", b.comm_stall_share * 100.0),
        format!("{:.1}%", b.recovery_share * 100.0),
        b.epochs.len().to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_offline_analysis_agree_byte_for_byte() {
        let (events, live) = run(&Scale::quick());
        assert!(live.events > 0);
        assert!(live.blame.critical_path_ns > 0);
        assert!(live.blame.critical_path_ns <= live.blame.wall_ns);
        // Round-trip through the JSONL recording and re-analyze: the
        // report is a pure function of the stream, so the bytes match.
        let recorded = nvm_trace::to_jsonl(&events);
        let (_, offline) = from_recorded(&recorded).expect("recorded trace loads");
        assert_eq!(to_stable_json(&live), to_stable_json(&offline));
        let table = render(&live, "analysis.json");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn newer_schema_traces_are_rejected_with_a_typed_error() {
        let future = format!("{{\"schema_version\":{}}}\n", nvm_trace::SCHEMA_VERSION + 1);
        match from_recorded(&future) {
            Err(nvm_trace::TraceReadError::Schema { found, supported }) => {
                assert_eq!(found, nvm_trace::SCHEMA_VERSION + 1);
                assert_eq!(supported, nvm_trace::SCHEMA_VERSION);
            }
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn folded_path_swaps_extension() {
        assert_eq!(folded_path("a.json"), "a.folded");
        assert_eq!(folded_path("out/analysis"), "out/analysis.folded");
    }

    #[test]
    fn quick_flamegraph_is_well_formed() {
        let (events, report) = run(&Scale::quick());
        let folded = to_folded(&events);
        let mut walls = std::collections::BTreeMap::<&str, u64>::new();
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("stack<space>weight");
            let weight: u64 = weight.parse().expect("integer weight");
            let frames: Vec<&str> = stack.split(';').collect();
            assert!(frames.len() >= 2, "stack too shallow: {line:?}");
            assert!(frames[0].starts_with("rank_"), "bad root frame: {line:?}");
            *walls.entry(frames[0]).or_default() += weight;
        }
        assert_eq!(walls.len() as u64, report.blame.ranks);
        // Every rank's stacks tile the same wall.
        let wall = *walls.values().next().expect("non-empty flamegraph");
        assert!(
            walls.values().all(|w| *w == wall),
            "walls diverge: {walls:?}"
        );

        assert!(report.schema_version >= 2);
        let rollup = &report.rollup;
        assert!(rollup.bucket_ns > 0);
        assert!(!rollup.series.is_empty(), "rollup collected no series");
        for (name, buckets) in &rollup.series {
            assert!(!buckets.is_empty(), "series {name} is empty");
        }
        let last_bucket_start = (rollup.buckets() as u64 - 1) * rollup.bucket_ns;
        assert!(
            last_bucket_start <= report.blame.wall_ns,
            "rollup overruns wall"
        );
    }
}
