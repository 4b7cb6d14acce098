//! Exact order statistics over recorded samples.
//!
//! Latencies are kept as exact nanosecond samples (no bucketed histogram), so
//! a percentile here is a value that was actually observed.

use std::fmt;

/// A percentile was asked of a sample too small to support it: the benchmark
/// only reports a percentile that has at least [`MIN_BEYOND`] samples beyond
/// it (choosing-metrics §1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The percentile asked for, in `(0, 1)`.
    pub q_permille: u32,
    /// Samples available.
    pub have: usize,
    /// Samples needed.
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs {} samples to have {MIN_BEYOND} beyond it, got {}",
            self.q_permille as f64 / 10.0,
            self.need,
            self.have
        )
    }
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples needed so that `q` has [`MIN_BEYOND`] samples beyond it.
pub fn samples_needed(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize
}

/// The `q`-quantile (nearest rank: the smallest sample with at least
/// `q * n` samples at or below it) of an ascending-sorted slice.
///
/// Fails when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Result<u64, TooFewSamples> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return Err(TooFewSamples {
            q_permille: (q * 1000.0).round() as u32,
            have: n,
            need: samples_needed(q),
        });
    }
    Ok(sorted[rank - 1])
}

/// The `p`-quantile of `values` by the exclusive method of Python's
/// `statistics.quantiles` (position `p * (n + 1)`, clamped into the data).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let a = v[lo - 1];
    let b = v[lo.min(n - 1)];
    a + (b - a) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_against_a_sorted_vector() {
        // 1..=2000: the nearest-rank p50 is 1000, p99 is 1980.
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile_sorted(&v, 0.50), Ok(1000));
        assert_eq!(percentile_sorted(&v, 0.99), Ok(1980));
        // Every returned value is an observed sample.
        let odd: Vec<u64> = (0..1501).map(|i| i * 7 + 3).collect();
        let p = percentile_sorted(&odd, 0.99).unwrap();
        assert!(odd.binary_search(&p).is_ok());
        let beyond = odd.iter().filter(|&&x| x > p).count();
        assert!(beyond >= MIN_BEYOND, "{beyond} beyond");
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.50), 20);
        let short: Vec<u64> = (0..999).collect();
        let err = percentile_sorted(&short, 0.99).unwrap_err();
        assert_eq!((err.have, err.need), (999, 1000));
        let enough: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile_sorted(&enough, 0.99), Ok(989));
        assert_eq!(enough.iter().filter(|&&x| x > 989).count(), 10);
        assert!(percentile_sorted(&[], 0.5).is_err());
        assert!(percentile_sorted(&(0..19).collect::<Vec<_>>(), 0.5).is_err());
        assert!(percentile_sorted(&(0..20).collect::<Vec<_>>(), 0.5).is_ok());
    }

    #[test]
    fn quantiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.50), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // Few values: the positions clamp into the data.
        assert_eq!(quantile(&[7.0, 3.0], 0.10), 3.0);
        assert_eq!(quantile(&[5.0], 0.75), 5.0);
    }
}
