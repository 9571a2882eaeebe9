//! The metrics view of an [`Observation`] (`run_all --metrics PATH`).
//!
//! The metrics report is written as stable-ordered JSON, with a
//! Prometheus text exposition at its `.prom` sibling, and its derived
//! quantities in a table beside the exposure the blame report
//! measured.

use crate::experiments::observe::{sibling, Observation};
use crate::report::Table;
use nvm_metrics::{names, to_prometheus_text, MetricsReport};
use nvm_obs::{to_stable_json, BlameReport};
use std::io;

impl Observation {
    /// Write the metrics report to `path` and its Prometheus
    /// exposition to the `.prom` sibling. Returns the sibling's path.
    pub fn write_metrics(&self, path: &str) -> io::Result<String> {
        let report = self.metrics.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "a recorded trace has no metrics",
            )
        })?;
        std::fs::write(path, to_stable_json(report))?;
        let prom = sibling(path, "prom");
        std::fs::write(&prom, to_prometheus_text(&report.snapshot))?;
        Ok(prom)
    }
}

/// Render the derived metrics, with the exposure the blame report
/// measured, as a table.
pub fn render(report: &MetricsReport, blame: &BlameReport, path: &str) -> Table {
    let d = &report.derived;
    let mut t = Table::new(
        &format!("Metrics — GTC with DCPCP + remote pre-copy (written to {path})"),
        &[
            "Checkpoints",
            "Pre-copy fraction",
            "Wasted-copy ratio",
            "Eff. NVM BW (MB/s)",
            "Peak link (MB/s)",
            "Helper util",
            "Exposed ckpt",
        ],
    );
    t.row(vec![
        report
            .snapshot
            .counter(names::CHKPT_CHECKPOINTS_TOTAL)
            .to_string(),
        format!("{:.3}", d.precopy_fraction),
        format!("{:.3}", d.wasted_copy_ratio),
        format!(
            "{:.1}",
            d.effective_nvm_bandwidth_bytes_per_s / (1 << 20) as f64
        ),
        format!(
            "{:.1}",
            d.peak_interconnect_bytes_per_s as f64 / (1 << 20) as f64
        ),
        format!("{:.3}", d.helper_cpu_utilization),
        format!("{:.1}%", blame.exposed_checkpoint_fraction * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::observe;
    use nvm_metrics::validate_prometheus_text;

    #[test]
    fn quick_metered_run_yields_report() {
        let obs = observe::quick();
        let report = obs.metrics.as_ref().expect("the live run is metered");
        assert!(report.snapshot.counter(names::CHKPT_CHECKPOINTS_TOTAL) > 0);
        assert!(report.derived.precopy_fraction > 0.0);
        // The exposure the table shows lives in the blame report.
        let blame = &obs.analysis.blame;
        let e = blame.exposed_checkpoint_fraction;
        let h = blame.hidden_checkpoint_fraction;
        assert!(e > 0.0 && e < 1.0, "exposed fraction {e}");
        assert!(h > 0.0 && h < 1.0, "hidden fraction {h}");
        let prom = to_prometheus_text(&report.snapshot);
        let samples = validate_prometheus_text(&prom).expect("valid exposition");
        assert!(samples > 10, "expected a real exposition, got {samples}");
        let table = render(report, blame, "metrics.json");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn prom_path_swaps_extension() {
        assert_eq!(sibling("m.json", "prom"), "m.prom");
        assert_eq!(sibling("out/metrics", "prom"), "out/metrics.prom");
    }
}
