//! Small descriptive-statistics helpers for the experiment harness.

use std::fmt;

/// Five-number-ish summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns `None` on an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        Some(Summary {
            n,
            min: sorted[0],
            mean,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            max: sorted[n - 1],
        })
    }

    /// Summarizes integer samples.
    pub fn of_u64(values: &[u64]) -> Option<Summary> {
        let f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        Summary::of(&f)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.1} mean={:.1} p50={:.1} p95={:.1} max={:.1}",
            self.n, self.min, self.mean, self.p50, self.p95, self.max
        )
    }
}

/// Percentile (nearest-rank interpolation) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&p));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_singleton() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 4.0);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of_u64(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        assert!((s.mean - 5.5).abs() < 1e-9);
        assert!((s.p50 - 5.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 0.25) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        let txt = s.to_string();
        assert!(txt.contains("n=2"));
        assert!(txt.contains("mean=1.5"));
    }
}
