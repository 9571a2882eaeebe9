//! One observed run (`run_all --trace`, `--metrics`, `--analyze`,
//! `--analyze-from`).
//!
//! [`run`] simulates GTC with DCPCP and remote pre-copy once, traced
//! and metered, and analyzes the merged event stream once. Each flag
//! then writes one view of that [`Observation`], each from a module of
//! its own: [`super::tracing`], [`super::metrics`], [`super::analyze`].
//!
//! `--analyze-from TRACE` builds the observation from a recorded JSONL
//! trace instead ([`from_recorded`]), validating its schema header
//! ([`nvm_trace::read_jsonl`]: a newer-versioned trace is a typed
//! error, a headerless one upgrades as legacy v1). The analysis is a
//! pure function of the event stream, so it matches the live run the
//! trace came from byte for byte; a recording carries no metrics.
//!
//! Every view is byte-identical across thread counts. The quick-preset
//! metrics and analysis are committed as
//! `experiments/metrics_baseline.json` and
//! `experiments/blame_baseline.json` and diffed tolerance-free by
//! `tests/blame_golden.rs`, and through the binary by
//! `tests/run_all_cli.rs`.

use crate::experiments::{cluster_config, run_cluster};
use crate::scale::Scale;
use cluster_sim::{ClusterConfig, RemoteConfig, RunOptions};
use nvm_chkpt::PrecopyPolicy;
use nvm_metrics::MetricsReport;
use nvm_obs::{analyze, AnalysisReport, DEFAULT_BUCKET_NS};
use nvm_trace::{TraceEvent, TraceReadError};

/// What one run left behind: its merged event stream, its metrics
/// (none for a recorded trace) and the analysis of the stream.
#[derive(Debug)]
pub struct Observation {
    /// The merged event stream.
    pub events: Vec<TraceEvent>,
    /// The metrics report; `None` when built from a recording.
    pub metrics: Option<MetricsReport>,
    /// Critical-path blame and rollups over `events`.
    pub analysis: AnalysisReport,
}

/// Run the traced, metered GTC simulation once and analyze it.
pub fn run(scale: &Scale) -> Observation {
    let opts = RunOptions::new().with_trace(true).with_metrics(true);
    let r = run_cluster(config(scale), "gtc", scale, opts);
    Observation::of(r.trace, r.metrics)
}

/// The observed run's cluster: DCPCP locally, and remote pre-copy to
/// each node's buddy over InfiniBand every second local interval.
pub(crate) fn config(scale: &Scale) -> ClusterConfig {
    let mut cfg = cluster_config(scale, PrecopyPolicy::Dcpcp);
    cfg.remote = Some(RemoteConfig::infiniband(scale.local_interval * 2, true));
    cfg
}

/// Observe a recorded JSONL trace; schema-version mismatches surface
/// as [`TraceReadError::Schema`].
pub fn from_recorded(text: &str) -> Result<Observation, TraceReadError> {
    Ok(Observation::of(nvm_trace::read_jsonl(text)?, None))
}

/// The path beside `path` with extension `ext`: it replaces a `.json`
/// extension and is appended to anything else.
pub(crate) fn sibling(path: &str, ext: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.{ext}"),
        None => format!("{path}.{ext}"),
    }
}

impl Observation {
    fn of(events: Vec<TraceEvent>, metrics: Option<MetricsReport>) -> Self {
        let analysis = analyze(&events, DEFAULT_BUCKET_NS);
        Observation {
            events,
            metrics,
            analysis,
        }
    }
}

/// The quick-preset observation, simulated once and shared by every
/// view's tests.
#[cfg(test)]
pub(crate) fn quick() -> &'static Observation {
    static QUICK: std::sync::OnceLock<Observation> = std::sync::OnceLock::new();
    QUICK.get_or_init(|| run(&Scale::quick()))
}
