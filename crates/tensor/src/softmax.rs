//! Numerically stable softmax.

/// Softmax over a single slice, in place.
///
/// Uses the max-subtraction trick for numerical stability. An empty slice is
/// a no-op.
pub fn softmax_inplace(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Softmax over one slice, returning a new vector.
pub fn softmax(row: &[f32]) -> Vec<f32> {
    let mut out = row.to_vec();
    softmax_inplace(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        for r in 0..3 {
            let row: Vec<f32> = (0..5).map(|c| r as f32 - c as f32 * 0.3).collect();
            let s: f32 = softmax(&row).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn probabilities_are_positive_and_ordered() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!(p.iter().all(|&x| x > 0.0));
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn stable_under_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let p = softmax(&[0.5; 8]);
        for &x in &p {
            assert!((x - 0.125).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_row_is_noop() {
        let mut row: [f32; 0] = [];
        softmax_inplace(&mut row);
    }

    #[test]
    fn dominant_logit_takes_almost_all_mass() {
        let p = softmax(&[10.0, 0.0, 0.0]);
        assert!(p[0] > 0.99);
    }
}
