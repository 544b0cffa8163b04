//! Order statistics over small sample sets.
//!
//! Quartiles are computed exactly as Python's
//! `statistics.quantiles(values, n=4)` computes them, because that is what
//! the benchmark's acceptance check uses for its spreads; the quartiles
//! printed beside every timing are then the ones that check would see.

use serde::{Deserialize, Serialize};

/// Five-number-ish summary of one timing: every reported timing carries its
/// sample count and quartiles beside the headline value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub n: u64,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// `(q1, median, q3)` exactly as `statistics.quantiles(values, n=4)` gives
/// them, including its extrapolation beyond the ends for two samples. A
/// single sample is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    quartiles_of_sorted(&sorted(values))
}

fn quartiles_of_sorted(v: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = v.len();
    if ld < 2 {
        return v.first().map(|&x| (x, x, x));
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// Full summary; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let (q1, median, q3) = quartiles_of_sorted(&v)?;
    Some(Summary { n: v.len() as u64, min: v[0], q1, median, q3, max: v[v.len() - 1] })
}

/// Nearest-rank percentile (`p` in `0..=100`) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = ((v.len() as f64) * f64::from(p.min(100)) / 100.0).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position.
fn beyond(n: usize, p: u32) -> usize {
    n - ((n as f64) * f64::from(p) / 100.0).ceil() as usize
}

/// The tail percentile worth reporting for `n` samples: the highest of
/// 99, 95, 90, 75 that still has at least ten samples beyond it, or `None`
/// when even the 75th has not (then only the median is meaningful).
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75].into_iter().find(|&p| beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.0, 4.0, 6.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[5.0]), Some((5.0, 5.0, 5.0)));
    }

    #[test]
    fn summary_carries_count_and_extremes() {
        let s = summarize(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 5.0, 9.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 50), Some(20.0));
        assert_eq!(percentile(&v, 99), Some(40.0));
        assert_eq!(percentile(&v, 0), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 112 samples: p90 sits at rank 101, leaving 11 beyond; p95 leaves 5.
        assert_eq!(tail_percentile(112), Some(90));
        // 1000 samples: p99 sits at rank 990, leaving exactly 10.
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }
}
