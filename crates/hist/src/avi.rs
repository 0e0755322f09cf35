//! The attribute-value-independence (AVI) baseline.
//!
//! §2.2 of the paper: "The easiest way to estimate the selectivity of a
//! multidimensional range query is to assume that attributes are
//! independent of each other. In this case, a d-dimensional estimate can be
//! computed by multiplying d one-dimensional estimates, e.g. obtained from
//! histograms. However, since real datasets are almost always correlated,
//! this attribute-value independence assumption often leads to significant
//! estimation errors." This module provides exactly that estimator — the
//! strawman every multidimensional technique is measured against — built
//! from per-attribute equi-depth histograms [Piatetsky-Shapiro & Connell].

use kdesel_types::{Rect, SelectivityEstimator};

/// A one-dimensional equi-depth (equi-height) histogram.
///
/// Stores `b+1` sorted boundaries so each of the `b` buckets holds the same
/// number of sample values; range selectivity interpolates linearly within
/// partially covered buckets.
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram {
    boundaries: Vec<f64>,
}

impl EquiDepthHistogram {
    /// Builds a histogram with (at most) `buckets` buckets from a column of
    /// values.
    ///
    /// # Panics
    /// Panics on an empty column, NaN values, or `buckets == 0`.
    pub fn build(values: &[f64], buckets: usize) -> Self {
        assert!(!values.is_empty(), "empty column");
        assert!(buckets > 0);
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in column"));
        let b = buckets.min(sorted.len());
        let mut boundaries = Vec::with_capacity(b + 1);
        for i in 0..=b {
            // Type-7 quantile positions over the sorted sample.
            let pos = i as f64 / b as f64 * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            boundaries.push(sorted[lo] + frac * (sorted[hi] - sorted[lo]));
        }
        Self { boundaries }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Estimated fraction of values `≤ x` (the empirical CDF smoothed by
    /// the equi-depth assumption).
    pub fn cdf(&self, x: f64) -> f64 {
        let bounds = &self.boundaries;
        let b = self.buckets() as f64;
        if x < bounds[0] {
            return 0.0;
        }
        if x >= *bounds.last().expect("non-empty") {
            return 1.0;
        }
        // Binary search for the bucket containing x.
        let idx = bounds.partition_point(|&v| v <= x).saturating_sub(1);
        let (lo, hi) = (bounds[idx], bounds[idx + 1]);
        let within = if hi > lo { (x - lo) / (hi - lo) } else { 1.0 };
        (idx as f64 + within) / b
    }

    /// Estimated fraction of values in `(lo, hi)`.
    pub fn selectivity(&self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        (self.cdf(hi) - self.cdf(lo)).clamp(0.0, 1.0)
    }
}

/// The AVI estimator: independent per-attribute equi-depth histograms,
/// multiplied.
#[derive(Debug, Clone)]
pub struct AviEstimator {
    histograms: Vec<EquiDepthHistogram>,
}

impl AviEstimator {
    /// Builds per-dimension histograms from a row-major sample.
    ///
    /// # Panics
    /// Panics on an empty/ragged sample or `buckets_per_dim == 0`.
    pub fn build(sample: &[f64], dims: usize, buckets_per_dim: usize) -> Self {
        assert!(dims > 0);
        assert!(!sample.is_empty(), "empty sample");
        assert_eq!(sample.len() % dims, 0, "ragged sample");
        let histograms = (0..dims)
            .map(|d| {
                let column: Vec<f64> = sample.iter().skip(d).step_by(dims).copied().collect();
                EquiDepthHistogram::build(&column, buckets_per_dim)
            })
            .collect();
        Self { histograms }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.histograms.len()
    }

    /// Estimated selectivity: the product of marginal selectivities.
    pub fn estimate(&self, region: &Rect) -> f64 {
        assert_eq!(region.dims(), self.dims());
        let mut p = 1.0;
        for (d, h) in self.histograms.iter().enumerate() {
            let (lo, hi) = region.interval(d);
            p *= h.selectivity(lo, hi);
            if p == 0.0 {
                break;
            }
        }
        p
    }

    /// Model footprint: boundaries only.
    pub fn memory_bytes(&self) -> usize {
        self.histograms
            .iter()
            .map(|h| (h.buckets() + 1) * std::mem::size_of::<f64>())
            .sum()
    }
}

impl SelectivityEstimator for AviEstimator {
    fn estimate(&mut self, region: &Rect) -> f64 {
        AviEstimator::estimate(self, region)
    }
    fn memory_bytes(&self) -> usize {
        AviEstimator::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_depth_cdf_on_uniform_grid() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = EquiDepthHistogram::build(&values, 16);
        assert!((h.cdf(499.5) - 0.5).abs() < 0.01);
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(2000.0), 1.0);
        assert!((h.selectivity(250.0, 750.0) - 0.5).abs() < 0.01);
    }

    #[test]
    fn equi_depth_adapts_to_skew() {
        // 90% of mass at [0,1), 10% spread over [1,100): an equi-*width*
        // histogram would badly misestimate a query on [0, 1).
        let mut values = Vec::new();
        for i in 0..900 {
            values.push(i as f64 / 900.0);
        }
        for i in 0..100 {
            values.push(1.0 + 99.0 * i as f64 / 100.0);
        }
        let h = EquiDepthHistogram::build(&values, 16);
        let sel = h.selectivity(0.0, 1.0);
        assert!((sel - 0.9).abs() < 0.05, "selectivity {sel}");
    }

    #[test]
    fn repeated_values_do_not_break_construction() {
        let values = vec![5.0; 100];
        let h = EquiDepthHistogram::build(&values, 8);
        assert_eq!(h.selectivity(0.0, 10.0), 1.0);
        assert_eq!(h.selectivity(6.0, 10.0), 0.0);
    }

    #[test]
    fn avi_is_exact_on_independent_data() {
        // Independent uniform dims: the product assumption holds.
        let mut sample = Vec::new();
        for i in 0..50 {
            for j in 0..50 {
                sample.push(i as f64);
                sample.push(j as f64);
            }
        }
        let avi = AviEstimator::build(&sample, 2, 32);
        let q = Rect::from_intervals(&[(0.0, 24.5), (0.0, 24.5)]);
        let est = avi.estimate(&q);
        assert!((est - 0.25).abs() < 0.03, "estimate {est}");
    }

    #[test]
    fn avi_fails_on_correlated_data_as_the_paper_says() {
        // Perfectly correlated diagonal: x == y. A query on the off-diagonal
        // corner is empty, but AVI predicts 25%.
        let mut sample = Vec::new();
        for i in 0..1000 {
            sample.push(i as f64);
            sample.push(i as f64);
        }
        let avi = AviEstimator::build(&sample, 2, 32);
        let corner = Rect::from_intervals(&[(0.0, 499.0), (500.0, 999.0)]);
        let est = avi.estimate(&corner);
        assert!(
            est > 0.2,
            "AVI should (wrongly) predict ~0.25 here, got {est}"
        );
    }

    #[test]
    fn trait_impl_works() {
        let sample = vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0];
        let mut avi = AviEstimator::build(&sample, 2, 4);
        let v = SelectivityEstimator::estimate(&mut avi, &Rect::cube(2, -1.0, 3.0));
        assert!((v - 1.0).abs() < 1e-9);
        assert!(SelectivityEstimator::memory_bytes(&avi) > 0);
    }
}
