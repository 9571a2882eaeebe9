//! Interconnect usage timelines (the data behind Figure 10).
//!
//! A [`UsageTrace`] buckets transferred bytes into fixed windows of
//! virtual time. A transfer spanning several buckets spreads its bytes
//! proportionally, so the per-bucket series is exactly "checkpoint
//! data transferred" over a timeline — the paper's Figure 10 y-axis —
//! and the peak bucket is the *peak interconnect usage* the pre-copy
//! scheme is designed to halve.

use nvm_emu::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Bucketed bytes-over-time accumulator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UsageTrace {
    bucket: SimDuration,
    buckets: Vec<f64>,
    total_bytes: f64,
}

impl UsageTrace {
    /// A trace with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be nonzero");
        UsageTrace {
            bucket,
            buckets: Vec::new(),
            total_bytes: 0.0,
        }
    }

    /// Bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    /// Record a transfer of `bytes` spanning `[start, end)`. Zero-length
    /// spans deposit all bytes into the starting bucket.
    pub fn record(&mut self, start: SimTime, end: SimTime, bytes: u64) {
        assert!(end >= start, "transfer ends before it starts");
        self.total_bytes += bytes as f64;
        let bw = self.bucket.as_nanos() as f64;
        let s = start.as_nanos() as f64;
        let e = end.as_nanos() as f64;
        let first = (s / bw) as usize;
        let last = (e / bw) as usize;
        if last >= self.buckets.len() {
            self.buckets.resize(last + 1, 0.0);
        }
        if e == s {
            self.buckets[first] += bytes as f64;
            return;
        }
        let span = e - s;
        for b in first..=last {
            let b_start = b as f64 * bw;
            let b_end = b_start + bw;
            let overlap = (e.min(b_end) - s.max(b_start)).max(0.0);
            self.buckets[b] += bytes as f64 * overlap / span;
        }
    }

    /// Bytes in each bucket, indexed from t = 0.
    pub fn series(&self) -> &[f64] {
        &self.buckets
    }

    /// Peak bucket, in bytes.
    pub fn peak_bytes(&self) -> f64 {
        self.buckets.iter().copied().fold(0.0, f64::max)
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }

    /// Mean bucket occupancy over the non-empty prefix, in bytes.
    pub fn mean_bytes(&self) -> f64 {
        if self.buckets.is_empty() {
            0.0
        } else {
            self.total_bytes / self.buckets.len() as f64
        }
    }

    /// Peak-to-mean ratio — the "burstiness" pre-copy flattens.
    pub fn peak_to_mean(&self) -> f64 {
        let mean = self.mean_bytes();
        if mean == 0.0 {
            0.0
        } else {
            self.peak_bytes() / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_bucket_transfer() {
        let mut t = UsageTrace::new(SimDuration::from_secs(1));
        t.record(secs(0), SimTime::from_millis(500), 1000);
        assert_eq!(t.series(), &[1000.0]);
        assert_eq!(t.peak_bytes(), 1000.0);
        assert_eq!(t.total_bytes(), 1000.0);
    }

    #[test]
    fn spanning_transfer_spreads_proportionally() {
        let mut t = UsageTrace::new(SimDuration::from_secs(1));
        // 3000 bytes over [0.5, 3.5): 1/6 + 1/3 + 1/3 + 1/6 of 3 s span.
        t.record(SimTime::from_millis(500), SimTime::from_millis(3500), 3000);
        let s = t.series();
        assert_eq!(s.len(), 4);
        assert!((s[0] - 500.0).abs() < 1e-6);
        assert!((s[1] - 1000.0).abs() < 1e-6);
        assert!((s[2] - 1000.0).abs() < 1e-6);
        assert!((s[3] - 500.0).abs() < 1e-6);
        assert!((t.total_bytes() - 3000.0).abs() < 1e-6);
    }

    #[test]
    fn instantaneous_transfer_lands_in_one_bucket() {
        let mut t = UsageTrace::new(SimDuration::from_secs(1));
        t.record(secs(2), secs(2), 77);
        assert_eq!(t.series(), &[0.0, 0.0, 77.0]);
    }

    #[test]
    fn burst_vs_spread_peaks() {
        // Same volume; the burst has 4x the peak of the spread — the
        // Figure-10 effect in miniature.
        let mut burst = UsageTrace::new(SimDuration::from_secs(1));
        burst.record(secs(10), secs(11), 4000);
        let mut spread = UsageTrace::new(SimDuration::from_secs(1));
        spread.record(secs(8), secs(12), 4000);
        assert_eq!(burst.peak_bytes(), 4000.0);
        assert_eq!(spread.peak_bytes(), 1000.0);
        assert!(burst.peak_to_mean() > spread.peak_to_mean());
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn backwards_span_panics() {
        let mut t = UsageTrace::new(SimDuration::from_secs(1));
        t.record(secs(2), secs(1), 10);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Bytes are conserved: the bucket series always sums to
            /// the total recorded, whatever the span layout.
            #[test]
            fn bytes_are_conserved(
                spans in proptest::collection::vec(
                    (0u64..200_000, 0u64..50_000, 1u64..1_000_000), 1..40)
            ) {
                let mut t = UsageTrace::new(SimDuration::from_millis(250));
                let mut total = 0u64;
                for (start_ms, len_ms, bytes) in spans {
                    let s = SimTime::from_millis(start_ms);
                    let e = s + SimDuration::from_millis(len_ms);
                    t.record(s, e, bytes);
                    total += bytes;
                }
                let sum: f64 = t.series().iter().sum();
                prop_assert!((sum - total as f64).abs() < total as f64 * 1e-9 + 1e-6);
                prop_assert!(t.peak_bytes() <= sum + 1e-6);
            }
        }
    }
}
