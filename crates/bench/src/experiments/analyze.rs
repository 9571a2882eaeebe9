//! The analysis view of an [`Observation`] (`run_all --analyze PATH`,
//! and `--analyze-from TRACE`, which writes it beside TRACE).
//!
//! The blame + rollup report is written as stable-ordered JSON, with a
//! folded-stack flamegraph (the format `flamegraph.pl`/`inferno`
//! consume) at its `.folded` sibling, and its headline in a table.

use crate::experiments::observe::{sibling, Observation};
use crate::report::Table;
use nvm_obs::{to_folded, to_stable_json, AnalysisReport};

impl Observation {
    /// Write the analysis to `path` and the flamegraph to the
    /// `.folded` sibling. Returns the sibling's path.
    pub fn write_analysis(&self, path: &str) -> std::io::Result<String> {
        std::fs::write(path, to_stable_json(&self.analysis))?;
        let folded = sibling(path, "folded");
        std::fs::write(&folded, to_folded(&self.events))?;
        Ok(folded)
    }
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
    use crate::experiments::observe::{self, from_recorded};
    use nvm_trace::TraceReadError;

    #[test]
    fn live_and_offline_analysis_agree_byte_for_byte() {
        let live = observe::quick();
        let report = &live.analysis;
        assert!(report.events > 0);
        assert!(report.blame.critical_path_ns > 0);
        assert!(report.blame.critical_path_ns <= report.blame.wall_ns);
        // Round-trip through the JSONL recording and re-analyze: the
        // report is a pure function of the stream, so the bytes match.
        let recorded = nvm_trace::to_jsonl(&live.events);
        let offline = from_recorded(&recorded).expect("recorded trace loads");
        assert!(offline.metrics.is_none());
        assert_eq!(to_stable_json(report), to_stable_json(&offline.analysis));
        let table = render(report, "analysis.json");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn newer_schema_traces_are_rejected_with_a_typed_error() {
        // 4294967299 is 2^32 + 3: it must not wrap to the current
        // version and load.
        let newer = u64::from(nvm_trace::SCHEMA_VERSION) + 1;
        for version in [newer, 4_294_967_299] {
            let future = format!("{{\"schema_version\":{version}}}\n");
            match from_recorded(&future) {
                Err(TraceReadError::Schema { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, nvm_trace::SCHEMA_VERSION);
                }
                other => panic!("expected schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn folded_path_swaps_extension() {
        assert_eq!(sibling("a.json", "folded"), "a.folded");
        assert_eq!(sibling("out/analysis", "folded"), "out/analysis.folded");
    }

    #[test]
    fn quick_flamegraph_is_well_formed() {
        let obs = observe::quick();
        let report = &obs.analysis;
        let folded = to_folded(&obs.events);
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
