//! Order statistics over timing samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! strictly beyond it, so a p90 needs at least 100 samples and a median at
//! least 20; every reported percentile carries its sample count.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile: its value, the samples it was taken over and
/// how many of them lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Quantile { value: sorted[rank - 1], samples: n, beyond })
}

/// Plain median for deterministic per-request counts, which are not
/// timing percentiles; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the quantile has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(quantile(&ramp(99), 0.9), None, "99 samples leave 9 beyond p90");
        let q = quantile(&ramp(100), 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!(q, Quantile { value: 90.0, samples: 100, beyond: 10 });
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(quantile(&ramp(19), 0.5), None);
        let q = quantile(&ramp(20), 0.5).expect("20 samples leave 10 beyond the median");
        assert_eq!(q, Quantile { value: 10.0, samples: 20, beyond: 10 });
    }

    #[test]
    fn degenerate_inputs_are_refused() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&ramp(500), 0.0), None);
        assert_eq!(quantile(&ramp(500), 1.0), None);
    }

    #[test]
    fn plain_median() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
