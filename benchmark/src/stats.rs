//! Exact order statistics over raw samples.
//!
//! Latency quantiles come from the sorted samples themselves, never from a
//! bucketed histogram: a log-bucketed histogram's ~12% buckets flip a
//! reported p50 between two bucket edges on identical runs.

/// Nearest-rank quantile of an ascending-sorted, non-empty slice: the
/// sample at 1-based rank `ceil(q * n)`, clamped into `1..=n`.
///
/// # Panics
///
/// On an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let exact = q.clamp(0.0, 1.0) * n as f64;
    // 0.95 * 100 is 95.00000000000001 in binary; the epsilon keeps exact
    // ranks from rounding up to the next sample.
    let rank = ((exact - 1e-9 * exact.max(1.0)).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Number of samples strictly above `v` in an ascending-sorted slice.
pub fn beyond(sorted: &[f64], v: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= v)
}

/// Median (mean of the two middle samples for an even count) of an
/// unsorted, non-empty slice.
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how run-to-run spread is
/// judged. A single value is its own quartiles.
///
/// # Panics
///
/// On an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    assert!(!s.is_empty(), "quartiles of an empty sample");
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// An ascending-sorted copy (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Distribution summary of one latency-like sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Samples strictly above each of `p50, p95, p99, p999`.
    pub beyond: [usize; 4],
}

impl Summary {
    /// Summarizes a non-empty sample set.
    ///
    /// # Panics
    ///
    /// On an empty slice.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        let qs = [0.5, 0.95, 0.99, 0.999].map(|q| quantile(&s, q));
        Self {
            n: s.len(),
            p50: qs[0],
            p95: qs[1],
            p99: qs[2],
            p999: qs[3],
            beyond: qs.map(|v| beyond(&s, v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_hand_built_input() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 0.999), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn beyond_counts_strictly_greater_samples() {
        let s = [1.0, 2.0, 2.0, 3.0, 10.0];
        assert_eq!(beyond(&s, 2.0), 2);
        assert_eq!(beyond(&s, 10.0), 0);
        assert_eq!(beyond(&s, 0.5), 5);
        let sum = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(sum.n, 1000);
        assert_eq!(
            (sum.p50, sum.p95, sum.p99, sum.p999),
            (500.0, 950.0, 990.0, 999.0)
        );
        assert_eq!(sum.beyond, [500, 50, 10, 1]);
    }

    #[test]
    fn quartiles_match_python_statistics_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
