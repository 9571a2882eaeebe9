//! Order statistics over small sample sets.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every metric has at least one
/// sample by construction.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest sample.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// The percentiles a latency report may quote, lowest first.
const PERCENTILES: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`PERCENTILES`] that still has at least
/// ten samples beyond it, with its value — the tail a sample of this
/// size can support. `None` when even the median has fewer than ten
/// samples above it.
pub fn highest_supported_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    PERCENTILES
        .iter()
        .rev()
        .find(|&&p| {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted.len().saturating_sub(rank) >= 10
        })
        .map(|&p| (p, percentile(sorted, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(min_max(&[4.0, 1.0, 3.0]), (1.0, 4.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        let sample = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 19 samples: nine lie beyond the median — nothing supported.
        assert_eq!(highest_supported_percentile(&sample(19)), None);
        // 20 samples: exactly ten beyond p50.
        assert_eq!(highest_supported_percentile(&sample(20)), Some((50.0, 10)));
        // 100 samples: ten beyond p90, only one beyond p99.
        assert_eq!(highest_supported_percentile(&sample(100)), Some((90.0, 90)));
        // 1000 samples: ten beyond p99, one beyond p99.9.
        assert_eq!(
            highest_supported_percentile(&sample(1000)),
            Some((99.0, 990))
        );
        assert_eq!(
            highest_supported_percentile(&sample(1_000_000)),
            Some((99.999, 999_990))
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50.0), 5);
        assert_eq!(percentile(&s, 100.0), 10);
        assert_eq!(percentile(&s, 0.0), 1);
    }
}
