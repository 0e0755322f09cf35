//! The naive sample-based selectivity estimator.
//!
//! §2.3 of the paper contrasts KDE with "methods that 'naïvely' evaluate
//! the query on a sample [Larson et al., Lipton et al.]" and notes KDE "has
//! been shown to consistently offer superior estimation quality". This is
//! that baseline: count the sample points falling into the region and
//! divide by the sample size — equivalently, a KDE whose bandwidth is zero.
//! Its weakness is variance: with `s` points the estimate is quantized to
//! multiples of `1/s`, and low-selectivity queries frequently hit zero
//! sampled tuples. (The KDE-vs-sampling comparison itself lives in the
//! workspace integration tests and the `baselines_extra` bench.)

use kdesel_types::{Rect, SelectivityEstimator};

/// Sample-counting estimator.
#[derive(Debug, Clone)]
pub struct SampleEstimator {
    sample: Vec<f64>,
    dims: usize,
}

impl SampleEstimator {
    /// Wraps a row-major sample.
    ///
    /// # Panics
    /// Panics on an empty or ragged sample.
    pub fn new(sample: &[f64], dims: usize) -> Self {
        assert!(dims > 0);
        assert!(!sample.is_empty(), "empty sample");
        assert_eq!(sample.len() % dims, 0, "ragged sample");
        Self {
            sample: sample.to_vec(),
            dims,
        }
    }

    /// Sample size.
    pub fn sample_size(&self) -> usize {
        self.sample.len() / self.dims
    }

    /// Fraction of sample points inside `region`.
    pub fn estimate(&self, region: &Rect) -> f64 {
        assert_eq!(region.dims(), self.dims);
        let hits = self
            .sample
            .chunks_exact(self.dims)
            .filter(|row| region.contains(row))
            .count();
        hits as f64 / self.sample_size() as f64
    }
}

impl SelectivityEstimator for SampleEstimator {
    fn estimate(&mut self, region: &Rect) -> f64 {
        SampleEstimator::estimate(self, region)
    }
    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.sample.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn counts_exactly() {
        let sample = vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let est = SampleEstimator::new(&sample, 2);
        assert_eq!(est.estimate(&Rect::cube(2, 0.5, 2.5)), 0.5);
        assert_eq!(est.estimate(&Rect::cube(2, 10.0, 11.0)), 0.0);
        assert_eq!(est.estimate(&Rect::cube(2, -1.0, 4.0)), 1.0);
    }

    #[test]
    fn estimates_are_quantized_to_sample_granularity() {
        let mut rng = StdRng::seed_from_u64(1);
        let sample: Vec<f64> = (0..64).map(|_| rng.gen_range(0.0..1.0)).collect();
        let est = SampleEstimator::new(&sample, 1);
        let v = est.estimate(&Rect::from_intervals(&[(0.0, 0.31)]));
        let quantum = v * 64.0;
        assert!((quantum - quantum.round()).abs() < 1e-12, "{v} not k/64");
    }

    #[test]
    fn trait_surface() {
        let mut est = SampleEstimator::new(&[1.0, 2.0], 1);
        assert_eq!(SelectivityEstimator::memory_bytes(&est), 16);
        let v = SelectivityEstimator::estimate(&mut est, &Rect::from_intervals(&[(0.0, 1.5)]));
        assert_eq!(v, 0.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_rejected() {
        SampleEstimator::new(&[], 1);
    }
}
