//! Order statistics for the ledger: medians, quartiles and the
//! "at least ten samples beyond" rule for tail percentiles.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median (0 when
    /// the median is 0 or there is one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; panics on an empty slice (a metric with no sample is
/// a harness bug, not a measurement).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Quartiles by the method of Python's `statistics.quantiles(xs, n=4)`
/// (exclusive), which the benchmark contract uses for its spread check.
/// With one sample all three equal it.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of no samples");
    let v = sorted(xs);
    let m = v.len();
    if m == 1 {
        return Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n: 1,
        };
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: median(&v),
        q1: cut(1),
        q3: cut(3),
        n: m,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    v[rank_of(v.len(), p).clamp(1, v.len()) - 1]
}

/// Nearest rank of the `p`-th percentile among `n` samples (99.9 % of
/// 10 000 is 9 990, whatever the product's last bit says).
fn rank_of(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank_of(n, p).min(n)
}

/// The highest of the reported tail percentiles that still has at least
/// ten samples beyond it; `None` below 20 samples, where only the median
/// is reported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.5, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        assert!((s.spread() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = summarize(&[5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (5.0, 5.0, 5.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 99.0), 9.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(15), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(2000), Some(99.5));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
