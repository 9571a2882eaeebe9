//! Log2-bucketed integer histogram.
//!
//! All state is integral, every update is a commutative add (bucket
//! increment, count, sum) or max, so a histogram filled by concurrent
//! writers is bit-identical to one filled serially — the property the
//! cluster simulator's determinism guarantee rests on. Percentiles are
//! extracted from the buckets with integer arithmetic only.

use serde::{Deserialize, Serialize};

/// Number of buckets: one for zero plus one per possible bit width of
/// a `u64` value.
pub const BUCKET_COUNT: usize = 65;

/// Bucket index for a value: its bit width (0 for the value 0), so
/// bucket `i >= 1` covers the half-open power-of-two range
/// `[2^(i-1), 2^i)` and bucket 0 holds exactly the value 0.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive `(low, high)` bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKET_COUNT, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else {
        (1u64 << (i - 1), (1u64 << (i - 1)) + ((1u64 << (i - 1)) - 1))
    }
}

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKET_COUNT],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Reassemble a histogram from raw accumulator state (used when
    /// draining the atomic-cell histograms behind pre-resolved
    /// handles).
    pub(crate) fn from_parts(buckets: [u64; BUCKET_COUNT], count: u64, sum: u64, max: u64) -> Self {
        Histogram {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Fold another histogram in. Commutative and associative, so the
    /// merged result is independent of merge order.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) extracted from the buckets:
    /// the inclusive upper bound of the bucket holding the sample of
    /// rank `ceil(q * count)`, clamped to the observed maximum (so the
    /// tail quantiles of a distribution that ends mid-bucket, and
    /// `quantile(1.0)` always, report the exact max). Returns 0 for an
    /// empty histogram. Integer arithmetic only — deterministic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        debug_assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        // ceil(q * count) without floating-point accumulation error on
        // the rank itself: compute in f64, then clamp into [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Serializable snapshot (non-empty buckets only, in index order).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (bucket_bounds(i).1, n))
                .collect(),
        }
    }
}

/// Serializable form of a [`Histogram`]: summary statistics plus the
/// non-empty buckets as `(inclusive_upper_bound, count)` pairs in
/// ascending bound order.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Median (bucket upper bound, clamped to max).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// `(upper_bound, count)` for each non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(11), (1024, 2047));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        // Bucket ranges tile the u64 domain with no gaps.
        for i in 1..BUCKET_COUNT {
            assert_eq!(bucket_bounds(i).0, bucket_bounds(i - 1).1 + 1);
        }
    }

    #[test]
    fn percentiles_from_known_distribution() {
        let mut h = Histogram::new();
        // 100 samples: 1..=100. p50 -> rank 50 -> value 50 -> bucket
        // [32,63]; p90 -> rank 90 -> bucket [64,127] clamped to 100.
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, 5050);
        assert_eq!(h.max, 100);
        assert_eq!(h.p50(), 63);
        assert_eq!(h.p90(), 100, "tail bucket clamps to the exact max");
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.p50(), 777);
        assert_eq!(h.p99(), 777);
        assert_eq!(h.max, 777);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn merge_equals_interleaved_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 900, 17, 0, 1 << 40] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 5, 123_456] {
            b.record(v);
            all.record(v);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all, "merge is commutative");
    }

    #[test]
    fn snapshot_lists_nonempty_buckets_in_order() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(100);
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(1, 1), (127, 2)]);
        assert!(s.buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
