//! Scott's rule (paper eq. 3).
//!
//! `ĥᵢ = s^(−1/(d+4)) · σᵢ`, the closed-form bandwidth that is optimal when
//! the data is normal. The paper initializes every model with it (§5.2) and
//! uses it as the *Heuristic* baseline; §3.2 notes that on real data it
//! "often leads to overly smoothed estimators".

use crate::estimator::MIN_BANDWIDTH;
use kdesel_math::stats::column_std_devs;

/// Computes Scott's-rule bandwidths for a row-major sample.
///
/// Degenerate dimensions (zero variance) receive a small positive fallback
/// (10⁻³ of the largest per-dimension std, or 10⁻³ absolute when all are
/// degenerate) so the positivity constraint of optimization problem (5)
/// holds from the start; no bandwidth falls below [`MIN_BANDWIDTH`].
///
/// # Panics
/// Panics on an empty or ragged sample.
pub fn scott_bandwidth(sample: &[f64], dims: usize) -> Vec<f64> {
    assert!(dims > 0);
    assert!(!sample.is_empty(), "empty sample");
    assert_eq!(sample.len() % dims, 0, "ragged sample");
    let s = (sample.len() / dims) as f64;
    let factor = s.powf(-1.0 / (dims as f64 + 4.0));
    let std_devs = column_std_devs(sample, dims);
    let max_sd = std_devs.iter().fold(0.0f64, |m, &v| m.max(v));
    let fallback = if max_sd > 0.0 { max_sd * 1e-3 } else { 1e-3 };
    std_devs
        .iter()
        .map(|&sd| {
            let sd = if sd > 0.0 { sd } else { fallback };
            (factor * sd).max(MIN_BANDWIDTH)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn formula_matches_hand_computation() {
        // 4 points in 1D: {0,1,2,3}; σ = √1.25, s=4, d=1 → h = 4^(-1/5)·σ.
        let h = scott_bandwidth(&[0.0, 1.0, 2.0, 3.0], 1);
        let want = 4f64.powf(-0.2) * 1.25f64.sqrt();
        assert!((h[0] - want).abs() < 1e-12);
    }

    #[test]
    fn scales_per_dimension_std() {
        // First dim spread 10x wider than second.
        let mut rng = StdRng::seed_from_u64(1);
        let mut sample = Vec::new();
        for _ in 0..500 {
            sample.push(rng.gen_range(0.0..10.0));
            sample.push(rng.gen_range(0.0..1.0));
        }
        let h = scott_bandwidth(&sample, 2);
        assert!(
            (h[0] / h[1] - 10.0).abs() < 1.5,
            "ratio {} should be ≈10",
            h[0] / h[1]
        );
    }

    #[test]
    fn shrinks_with_sample_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let big: Vec<f64> = (0..10_000).map(|_| rng.gen_range(0.0..1.0)).collect();
        let h_small = scott_bandwidth(&big[..100], 1);
        let h_big = scott_bandwidth(&big, 1);
        assert!(h_big[0] < h_small[0]);
        // The rate is s^(-1/5) for d=1: 100x more data → ~2.5x smaller.
        let expected_ratio = (100f64 / 10_000.0).powf(-0.2);
        let ratio = h_small[0] / h_big[0];
        // Std estimates differ slightly between the subsample and the full
        // sample, so allow a loose band around the theoretical rate.
        assert!(
            (ratio / expected_ratio - 1.0).abs() < 0.2,
            "ratio {ratio}, expected ≈{expected_ratio}"
        );
    }

    #[test]
    fn degenerate_dimension_gets_positive_fallback() {
        let sample = [1.0, 5.0, 1.0, 6.0, 1.0, 7.0]; // dim 0 constant
        let h = scott_bandwidth(&sample, 2);
        assert!(h[0] > 0.0);
        assert!(h[1] > h[0]);
    }

    #[test]
    fn all_degenerate_still_positive() {
        let sample = [2.0, 2.0, 2.0, 2.0];
        let h = scott_bandwidth(&sample, 2);
        assert!(h.iter().all(|&v| v > 0.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_rejected() {
        scott_bandwidth(&[], 3);
    }
}
