//! Metered cluster run (`run_all --metrics <path>`).
//!
//! Runs a GTC cluster simulation with remote pre-copy and the metrics
//! registry enabled, writes the report to `path` as stable-ordered
//! pretty JSON plus a Prometheus text exposition alongside it
//! (`<path>.prom`, or `.prom` replacing a `.json` extension), and
//! renders the derived metrics as a compact table.
//!
//! The JSON is byte-identical across runs and thread counts — the
//! quick-preset output is committed as
//! `experiments/metrics_baseline.json` and diffed tolerance-free in CI
//! and in `tests/metrics_golden.rs`.

use crate::experiments::{cluster_config, make_app};
use crate::report::Table;
use crate::scale::Scale;
use cluster_sim::{Cluster, RemoteConfig, RunOptions};
use nvm_chkpt::PrecopyPolicy;
use nvm_metrics::{names, to_prometheus_text, MetricsReport};

/// Run the metered simulation and return its metrics report. The run
/// also traces, so the exposure quantities (critical-path blame, which
/// no snapshot counter can carry) are filled from the analyzer.
pub fn run(scale: &Scale) -> MetricsReport {
    let mut cfg = cluster_config(scale, PrecopyPolicy::Dcpcp);
    cfg.remote = Some(RemoteConfig::infiniband(scale.local_interval * 2, true));
    let r = Cluster::new(cfg, {
        let scale = *scale;
        move |_| make_app("gtc", &scale)
    })
    .run(RunOptions::new().with_metrics(true).with_trace(true))
    .expect("metered run")
    .result;
    let mut report = r.metrics.expect("metrics enabled");
    let b = nvm_obs::blame(&r.trace);
    report
        .derived
        .set_exposure(b.exposed_checkpoint_fraction, b.hidden_checkpoint_fraction);
    report
}

/// Sibling path for the Prometheus text exposition.
fn prom_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.prom"),
        None => format!("{path}.prom"),
    }
}

/// Serialize the report as the stable-ordered JSON the regression
/// gate diffs (pretty-printed, trailing newline).
pub fn to_stable_json(report: &MetricsReport) -> String {
    let mut body = serde_json::to_string_pretty(report).expect("report serializes");
    body.push('\n');
    body
}

/// Write the JSON report to `path` and the Prometheus exposition to
/// its `.prom` sibling. Returns the Prometheus path.
pub fn export(report: &MetricsReport, path: &str) -> std::io::Result<String> {
    std::fs::write(path, to_stable_json(report))?;
    let prom = prom_path(path);
    std::fs::write(&prom, to_prometheus_text(&report.snapshot))?;
    Ok(prom)
}

/// Render the derived metrics as a table.
pub fn render(report: &MetricsReport, path: &str) -> Table {
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
        format!("{:.1}%", d.exposed_checkpoint_fraction * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_metrics::validate_prometheus_text;

    #[test]
    fn quick_metered_run_yields_report() {
        let report = run(&Scale::quick());
        assert!(report.snapshot.counter(names::CHKPT_CHECKPOINTS_TOTAL) > 0);
        assert!(report.derived.precopy_fraction > 0.0);
        // The blame-derived exposure quantities are filled in.
        let e = report.derived.exposed_checkpoint_fraction;
        let h = report.derived.hidden_checkpoint_fraction;
        assert!(e > 0.0 && e < 1.0, "exposed fraction {e}");
        assert!(h > 0.0 && h < 1.0, "hidden fraction {h}");
        let prom = to_prometheus_text(&report.snapshot);
        let samples = validate_prometheus_text(&prom).expect("valid exposition");
        assert!(samples > 10, "expected a real exposition, got {samples}");
        let table = render(&report, "metrics.json");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn prom_path_swaps_extension() {
        assert_eq!(prom_path("m.json"), "m.prom");
        assert_eq!(prom_path("out/metrics"), "out/metrics.prom");
    }
}
