//! The trace view of an [`Observation`] (`run_all --trace PATH`).
//!
//! The merged event stream is written as JSONL when PATH ends in
//! `.jsonl` and as Chrome `trace_event` JSON otherwise (which loads
//! directly in `chrome://tracing` or Perfetto), and summarized per
//! event kind in a table.

use crate::experiments::observe::Observation;
use crate::report::Table;
use nvm_trace::{to_chrome_trace, to_jsonl, TraceSummary};

impl Observation {
    /// Write the event stream to `path` in the format its extension
    /// selects.
    pub fn write_trace(&self, path: &str) -> std::io::Result<()> {
        let body = if path.ends_with(".jsonl") {
            to_jsonl(&self.events)
        } else {
            to_chrome_trace(&self.events)
        };
        std::fs::write(path, body)
    }
}

/// Render the trace summary as a table.
pub fn render(summary: &TraceSummary, path: &str) -> Table {
    let mut t = Table::new(
        &format!("Trace — GTC with DCPCP + remote pre-copy (written to {path})"),
        &[
            "Events",
            "Faults",
            "Pre-copy drains",
            "Wasted pre-copies",
            "Coordinated ckpts",
            "Commit flips",
            "Remote transfers",
            "Remote MB",
        ],
    );
    t.row(vec![
        summary.events.to_string(),
        summary.faults.to_string(),
        summary.precopy_drains.to_string(),
        summary.precopy_wastes.to_string(),
        summary.coordinated.to_string(),
        summary.commit_flips.to_string(),
        summary.remote_transfers.to_string(),
        format!("{:.1}", summary.remote_bytes as f64 / (1 << 20) as f64),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{observe, run_cluster};
    use crate::scale::Scale;
    use cluster_sim::RunOptions;
    use nvm_trace::summarize;

    #[test]
    fn quick_trace_run_yields_events() {
        let events = &observe::quick().events;
        let summary = summarize(events);
        assert!(!events.is_empty());
        assert_eq!(summary.events, events.len() as u64);
        assert!(summary.coordinated > 0, "{summary:?}");
        assert!(summary.commit_flips > 0, "{summary:?}");
        // No store attached, no store events.
        assert_eq!(summary.store_writes, 0);
        assert_eq!(summary.store_commits, 0);
        let table = render(&summary, "trace.json");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn store_attached_trace_carries_store_events() {
        // The observed run never attaches stores; the library does when
        // asked, and its trace then carries the store events too.
        let tmp = nvm_emu::TempDir::new("bench-trace-store").unwrap();
        let scale = Scale::quick();
        let opts = RunOptions::new()
            .with_trace(true)
            .with_metrics(true)
            .with_store_dir(tmp.path());
        let events = run_cluster(observe::config(&scale), "gtc", &scale, opts).trace;
        let summary = summarize(&events);
        assert!(summary.store_writes > 0, "{summary:?}");
        assert!(summary.store_commits > 0, "{summary:?}");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, nvm_trace::TraceEventKind::StoreCommit { .. })));
        // The engine-side stream is unchanged by store attachment.
        let plain = summarize(&observe::quick().events);
        assert_eq!(summary.coordinated, plain.coordinated);
        assert_eq!(summary.commit_flips, plain.commit_flips);
    }
}
