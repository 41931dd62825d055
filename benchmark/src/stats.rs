//! Order statistics over timing samples.

/// Median, quartiles and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at fractional rank `pos` (0-based) of a sorted slice.
fn at(sorted: &[f64], pos: f64) -> f64 {
    let pos = pos.clamp(0.0, (sorted.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
/// (exclusive method: the `k`-th cut sits at rank `k (n + 1) / 4`), because
/// that is the estimator the benchmark's acceptance rule is stated in.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let s = sorted(samples);
    let n = s.len();
    let cut = |k: f64| at(&s, k * (n as f64 + 1.0) / 4.0 - 1.0);
    Summary {
        median: cut(2.0),
        q1: cut(1.0),
        q3: cut(3.0),
        n,
    }
}

/// Samples a percentile must leave beyond itself to be reported: with
/// fewer, "p99" is the position of one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in `(0, 1)` of a sorted slice, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The tail of a latency distribution: its 99th percentile when the sample
/// supports one, else its slowest sample (a workload of sixteen 0.6 s jobs
/// has a worst case but no p99).
pub fn tail(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    percentile(&s, 0.99).unwrap_or(s[s.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]; the
        // clamp keeps estimates inside the data instead.
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 15.0, 20.0));
        assert_eq!(summarize(&[4.0]).median, 4.0);
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0), "exactly ten beyond");
        assert_eq!(percentile(&v[..999], 0.99), None, "nine beyond");
        assert_eq!(percentile(&v[..16], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None, "nine beyond the median");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(tail(&v), 990.0);
        assert_eq!(tail(&v[..16]), 16.0, "too few for a p99: the slowest");
    }
}
