//! Paper-facing derived metrics.
//!
//! Each quantity here corresponds to a figure or table in the source
//! paper (see DESIGN.md §10 for the mapping); all are pure functions
//! of a [`MetricsSnapshot`], so they are exactly as deterministic as
//! the snapshot itself — the f64 divisions run on identical integer
//! inputs on every run and thread count.

use crate::names;
use crate::registry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Ratio `num / den`, or 0.0 when the denominator is zero.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Quantities the paper reports, computed from raw metrics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DerivedMetrics {
    /// Fraction of checkpoint bytes moved by the background pre-copy
    /// before the coordinated stop: `precopied / (precopied +
    /// coordinated)`.
    pub precopy_fraction: f64,
    /// Fraction of pre-copied bytes invalidated by later writes:
    /// `wasted / precopied`.
    pub wasted_copy_ratio: f64,
    /// Achieved NVM (PCM device) throughput while busy, in bytes/s:
    /// `(reads + writes) / busy_time`.
    pub effective_nvm_bandwidth_bytes_per_s: f64,
    /// Peak 1-second interconnect demand across all node links, in
    /// bytes/s (max-merged gauge).
    pub peak_interconnect_bytes_per_s: u64,
    /// Helper-core duty cycle: `busy / elapsed` across all helpers.
    pub helper_cpu_utilization: f64,
}

impl DerivedMetrics {
    /// Compute every derived quantity from a merged cluster snapshot.
    /// Missing inputs yield 0 rather than an error so partial
    /// instrumentations (unit tests, single-crate use) still export.
    fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let precopied = snap.counter(names::CHKPT_PRECOPIED_BYTES_TOTAL);
        let coordinated = snap.counter(names::CHKPT_COORDINATED_BYTES_TOTAL);
        let wasted = snap.counter(names::CHKPT_WASTED_PRECOPY_BYTES_TOTAL);

        let nvm_bytes = snap.counter(names::DEV_PCM_READ_BYTES_TOTAL)
            + snap.counter(names::DEV_PCM_WRITE_BYTES_TOTAL);
        let nvm_busy_ns = snap.counter(names::DEV_PCM_BUSY_NS_TOTAL);

        DerivedMetrics {
            precopy_fraction: ratio(precopied, precopied + coordinated),
            wasted_copy_ratio: ratio(wasted, precopied),
            effective_nvm_bandwidth_bytes_per_s: ratio(nvm_bytes, nvm_busy_ns) * 1e9,
            peak_interconnect_bytes_per_s: snap.gauge(names::LINK_PEAK_BYTES_PER_S),
            helper_cpu_utilization: ratio(
                snap.counter(names::HELPER_BUSY_NS_TOTAL),
                snap.counter(names::HELPER_ELAPSED_NS_TOTAL),
            ),
        }
    }
}

/// The full exported artifact: raw snapshot plus derived quantities.
/// Serialized with stable key order; `run_all --metrics` writes this
/// as JSON next to the Prometheus text.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Merged cluster-wide registry contents.
    pub snapshot: MetricsSnapshot,
    /// Paper-facing quantities computed from `snapshot`.
    pub derived: DerivedMetrics,
}

impl MetricsReport {
    /// Build a report from a snapshot, computing the derived block.
    pub fn new(snapshot: MetricsSnapshot) -> Self {
        let derived = DerivedMetrics::from_snapshot(&snapshot);
        MetricsReport { snapshot, derived }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn derived_quantities_from_known_inputs() {
        let mut r = MetricsRegistry::new();
        r.counter_add(names::CHKPT_PRECOPIED_BYTES_TOTAL, 750);
        r.counter_add(names::CHKPT_COORDINATED_BYTES_TOTAL, 250);
        r.counter_add(names::CHKPT_WASTED_PRECOPY_BYTES_TOTAL, 75);
        r.counter_add(names::DEV_PCM_WRITE_BYTES_TOTAL, 1_000_000);
        r.counter_add(names::DEV_PCM_BUSY_NS_TOTAL, 2_000_000_000);
        r.counter_add(names::HELPER_BUSY_NS_TOTAL, 300);
        r.counter_add(names::HELPER_ELAPSED_NS_TOTAL, 1200);
        r.gauge_max(names::LINK_PEAK_BYTES_PER_S, 42_000);
        let d = DerivedMetrics::from_snapshot(&r.snapshot());
        assert_eq!(d.precopy_fraction, 0.75);
        assert_eq!(d.wasted_copy_ratio, 0.1);
        assert_eq!(d.effective_nvm_bandwidth_bytes_per_s, 500_000.0);
        assert_eq!(d.peak_interconnect_bytes_per_s, 42_000);
        assert_eq!(d.helper_cpu_utilization, 0.25);
    }

    #[test]
    fn empty_snapshot_derives_all_zeros() {
        let d = DerivedMetrics::from_snapshot(&MetricsSnapshot::default());
        assert_eq!(d, DerivedMetrics::default());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = MetricsRegistry::new();
        r.counter_add(names::CHKPT_FAULTS_TOTAL, 7);
        r.observe(names::CHKPT_FAULT_NS, 123);
        let report = MetricsReport::new(r.snapshot());
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
