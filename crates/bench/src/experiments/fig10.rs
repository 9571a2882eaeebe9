//! Figure 10 — LAMMPS peak interconnect usage over the application
//! timeline: pre-copy vs no-pre-copy remote checkpointing.
//!
//! Expected shape: the no-pre-copy line shows tall bursts at every
//! remote checkpoint (all data at once); pre-copy spreads the same
//! volume across the interval, roughly halving the peak (up to 46%
//! lower). The pre-copy trace also shows an *initial* spike — the
//! learning phase, before the delay-based optimizations engage.

use crate::experiments::{cluster_config, run_cluster};
use crate::report::Table;
use crate::scale::Scale;
use cluster_sim::{RemoteConfig, RunOptions};
use nvm_chkpt::PrecopyPolicy;
use nvm_emu::SimDuration;
use serde::Serialize;

/// The Figure-10 result: two timelines plus summary stats.
#[derive(Clone, Debug, Serialize)]
pub struct Fig10Result {
    /// Bucket width, seconds.
    pub bucket_s: f64,
    /// Bytes per bucket, pre-copy run (node 0).
    pub precopy_series: Vec<f64>,
    /// Bytes per bucket, no-pre-copy run (node 0).
    pub noprecopy_series: Vec<f64>,
    /// Peak bucket bytes, pre-copy.
    pub precopy_peak: f64,
    /// Peak bucket bytes, no pre-copy.
    pub noprecopy_peak: f64,
    /// Peak reduction fraction (paper: up to 0.46).
    pub peak_reduction: f64,
    /// Total bytes shipped, pre-copy (may exceed no-pre-copy: re-sent
    /// re-dirtied chunks).
    pub precopy_total: f64,
    /// Total bytes shipped, no pre-copy.
    pub noprecopy_total: f64,
}

/// Run both LAMMPS remote configurations and extract node-0 traces.
pub fn run(scale: &Scale) -> Fig10Result {
    let app = "lammps";
    let interval = SimDuration::from_secs((scale.local_interval.as_nanos() / 1_000_000_000) * 2);
    let run_one = |precopy: bool| {
        let policy = if precopy {
            PrecopyPolicy::Dcpcp
        } else {
            PrecopyPolicy::None
        };
        let mut cfg = cluster_config(scale, policy);
        cfg.remote = Some(RemoteConfig::infiniband(interval, precopy));
        run_cluster(cfg, app, scale, RunOptions::new())
    };
    let pre = run_one(true);
    let nopre = run_one(false);
    let pre_trace = &pre.link_traces[0];
    let nopre_trace = &nopre.link_traces[0];
    let precopy_peak = pre_trace.peak_bytes();
    let noprecopy_peak = nopre_trace.peak_bytes();
    Fig10Result {
        bucket_s: pre_trace.bucket_width().as_secs_f64(),
        precopy_series: pre_trace.series().to_vec(),
        noprecopy_series: nopre_trace.series().to_vec(),
        precopy_peak,
        noprecopy_peak,
        peak_reduction: 1.0 - precopy_peak / noprecopy_peak.max(1.0),
        precopy_total: pre_trace.total_bytes(),
        noprecopy_total: nopre_trace.total_bytes(),
    }
}

/// Render the timeline (downsampled to at most 40 rows).
pub fn render(r: &Fig10Result) -> Table {
    let mut t = Table::new(
        "Figure 10 — LAMMPS peak interconnect usage (node 0, MB per bucket)",
        &["t (s)", "Pre-copy (MB)", "No pre-copy (MB)"],
    );
    let len = r.precopy_series.len().max(r.noprecopy_series.len());
    let step = len.div_ceil(40).max(1);
    let mb = (1 << 20) as f64;
    for i in (0..len).step_by(step) {
        // Folded from +0.0: `f64`'s `Sum` of nothing is -0.0, which a
        // row past the end of the shorter series would print.
        let window = |s: &[f64]| -> f64 { s.iter().skip(i).take(step).fold(0.0, |a, b| a + b) };
        t.row(vec![
            format!("{:.0}", i as f64 * r.bucket_s),
            format!("{:.1}", window(&r.precopy_series) / mb),
            format!("{:.1}", window(&r.noprecopy_series) / mb),
        ]);
    }
    t
}

/// Summary lines.
pub fn summary(r: &Fig10Result) -> String {
    let mb = (1 << 20) as f64;
    format!(
        "peak: pre-copy {:.1} MB vs no-pre-copy {:.1} MB per bucket => {:.0}% peak reduction\n\
         volume: pre-copy {:.0} MB vs no-pre-copy {:.0} MB shipped",
        r.precopy_peak / mb,
        r.noprecopy_peak / mb,
        r.peak_reduction * 100.0,
        r.precopy_total / mb,
        r.noprecopy_total / mb,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_past_the_shorter_series_read_zero() {
        let mb = (1 << 20) as f64;
        let r = Fig10Result {
            bucket_s: 1.0,
            precopy_series: vec![2.0 * mb; 3],
            noprecopy_series: vec![mb; 5],
            precopy_peak: 2.0 * mb,
            noprecopy_peak: mb,
            peak_reduction: 0.0,
            precopy_total: 6.0 * mb,
            noprecopy_total: 5.0 * mb,
        };
        let text = render(&r).render();
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("| 4 ")).collect();
        assert_eq!(rows.len(), 1, "{text}");
        assert!(rows[0].contains("| 0.0 "), "{text}");
        assert!(!text.contains("-0.0"), "{text}");
    }

    #[test]
    fn quick_fig10_peak_reduction() {
        // Full-size chunks on few ranks: the peak difference comes
        // from staging rates, so per-node volume must exceed one
        // bucket's worth of wire time.
        let mut scale = Scale::quick();
        scale.size_scale = 1.0;
        scale.iterations = 12;
        let r = run(&scale);
        assert!(
            r.peak_reduction > 0.3,
            "expected a sizeable peak reduction, got {:.2}",
            r.peak_reduction
        );
        assert!(r.noprecopy_peak > 0.0 && r.precopy_peak > 0.0);
        assert!(!render(&r).is_empty());
        assert!(summary(&r).contains("peak reduction"));
    }
}
