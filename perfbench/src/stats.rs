//! Order statistics and error measures shared by every workload.

/// Nearest-rank `p`-quantile (`0 < p ≤ 1`) of `values`: the smallest
/// sample with at least `p·n` samples at or below it. Always returns an
/// observed value, so a percentile never invents a latency nobody saw.
/// `None` for an empty input.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, p))
}

/// [`quantile`] over data that is already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank), `0.0` for an empty input.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean, `0.0` for an empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Q-error of a selectivity estimate against the true selectivity over a
/// relation of `rows` rows: `max(ĉ, c) / min(ĉ, c)` on cardinalities,
/// each floored at one row so empty results and zero estimates stay
/// finite.
pub fn qerror(estimate: f64, actual: f64, rows: usize) -> f64 {
    let rows = rows as f64;
    let est = (estimate * rows).max(1.0);
    let act = (actual * rows).max(1.0);
    est.max(act) / est.min(act)
}

/// Accuracy of one served sequence, the paper's and the optimizer's view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Median q-error.
    pub qerror_p50: f64,
    /// 95th-percentile q-error.
    pub qerror_p95: f64,
    /// Mean absolute selectivity error (the paper's metric).
    pub abs_error_mean: f64,
}

impl Accuracy {
    /// Summarises `(estimate, actual, rows)` triples.
    pub fn of(outcomes: &[(f64, f64, usize)]) -> Self {
        let qerrors: Vec<f64> = outcomes
            .iter()
            .map(|&(est, act, rows)| qerror(est, act, rows))
            .collect();
        let abs: Vec<f64> = outcomes
            .iter()
            .map(|&(est, act, _)| (est - act).abs())
            .collect();
        Self {
            qerror_p50: quantile(&qerrors, 0.50).unwrap_or(1.0),
            qerror_p95: quantile(&qerrors, 0.95).unwrap_or(1.0),
            abs_error_mean: mean(&abs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_pick_observed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), Some(50.0));
        assert_eq!(quantile(&v, 0.95), Some(95.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        // A tiny p still returns the minimum, never index -1.
        assert_eq!(quantile(&v, 1e-9), Some(1.0));
        // Order of the input does not matter.
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(quantile(&shuffled, 0.5), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_and_mean_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn qerror_is_symmetric_and_floors_at_one_row() {
        assert_eq!(qerror(0.02, 0.01, 1000), 2.0);
        assert_eq!(qerror(0.01, 0.02, 1000), 2.0);
        assert_eq!(qerror(0.01, 0.01, 1000), 1.0);
        // Zero estimate against 10 rows: floored to 1 row → 10.
        assert_eq!(qerror(0.0, 0.01, 1000), 10.0);
        // Both below one row: perfect by convention.
        assert_eq!(qerror(0.0, 0.0, 1000), 1.0);
        assert_eq!(qerror(1e-6, 0.0, 1000), 1.0);
    }

    #[test]
    fn accuracy_summarises_outcomes() {
        let outcomes = [(0.01, 0.01, 1000), (0.02, 0.01, 1000), (0.04, 0.01, 1000)];
        let acc = Accuracy::of(&outcomes);
        assert_eq!(acc.qerror_p50, 2.0);
        assert_eq!(acc.qerror_p95, 4.0);
        assert!((acc.abs_error_mean - 0.04 / 3.0).abs() < 1e-15);
    }
}
