//! Streaming summary statistics.
//!
//! Scott's rule (paper eq. 3) needs per-dimension standard deviations of the
//! sample; the paper computes them on the GPU via a sum/sum-of-squares
//! reduction. On the host side we use Welford's numerically stable update so
//! dataset generators and tests can rely on exact moments even for badly
//! scaled data.

/// Welford online mean/variance accumulator for one dimension.
#[derive(Debug, Clone, Default)]
pub struct OnlineMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Consumes one observation.
    pub fn add(&mut self, x: f64) {
        debug_assert!(!x.is_nan());
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance `1/n Σ (x−μ)²` (0 when empty).
    ///
    /// The paper's Scott's-rule implementation uses the population form
    /// (`σ² = 1/n Σx² − (1/n Σx)²`, §5.2), so that is the default here.
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance_sample(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev_population(&self) -> f64 {
        self.variance_population().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-dimension moments plus pairwise covariances of a `d`-dimensional
/// stream. The dataset generators' tests use it to verify the correlation
/// structure of what they generate.
#[derive(Debug, Clone)]
pub struct Covariance {
    dims: usize,
    count: u64,
    means: Vec<f64>,
    /// Upper-triangular (including diagonal) co-moment matrix, row-major.
    comoments: Vec<f64>,
}

impl Covariance {
    /// Creates an accumulator for `dims`-dimensional observations.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0);
        Self {
            dims,
            count: 0,
            means: vec![0.0; dims],
            comoments: vec![0.0; dims * (dims + 1) / 2],
        }
    }

    #[inline]
    fn tri_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.dims);
        i * self.dims - i * (i + 1) / 2 + j
    }

    /// Consumes one observation.
    ///
    /// # Panics
    /// Panics if `point.len() != dims`.
    pub fn add(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dims);
        self.count += 1;
        let n = self.count as f64;
        // Save deltas against the old means before updating them.
        let deltas: Vec<f64> = point
            .iter()
            .zip(&self.means)
            .map(|(&x, &m)| x - m)
            .collect();
        for (m, d) in self.means.iter_mut().zip(&deltas) {
            *m += d / n;
        }
        #[allow(clippy::needless_range_loop)] // parallel indexing of 3 arrays
        for i in 0..self.dims {
            for j in i..self.dims {
                let idx = self.tri_index(i, j);
                // Co-moment update: Δᵢ·(xⱼ − μⱼ_new).
                self.comoments[idx] += deltas[i] * (point[j] - self.means[j]);
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean vector.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Population covariance between dimensions `i` and `j`.
    pub fn covariance_population(&self, i: usize, j: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        self.comoments[self.tri_index(i, j)] / self.count as f64
    }

    /// Population variance of dimension `i`.
    pub fn variance_population(&self, i: usize) -> f64 {
        self.covariance_population(i, i)
    }

    /// Population standard deviation of dimension `i`.
    pub fn std_dev_population(&self, i: usize) -> f64 {
        self.variance_population(i).sqrt()
    }

    /// Pearson correlation between dimensions `i` and `j` (0 when either
    /// dimension is constant).
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        let denom = self.std_dev_population(i) * self.std_dev_population(j);
        if denom == 0.0 {
            0.0
        } else {
            self.covariance_population(i, j) / denom
        }
    }
}

/// Per-dimension standard deviations of a row-major point set — the `σ_i`
/// inputs to Scott's rule (paper eq. 3).
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `dims`.
pub fn column_std_devs(data: &[f64], dims: usize) -> Vec<f64> {
    assert!(dims > 0);
    assert_eq!(data.len() % dims, 0, "ragged row-major data");
    let mut moments = vec![OnlineMoments::new(); dims];
    for row in data.chunks_exact(dims) {
        for (m, &x) in moments.iter_mut().zip(row) {
            m.add(x);
        }
    }
    moments.iter().map(|m| m.std_dev_population()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_sequence() {
        let mut m = OnlineMoments::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.add(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-15);
        assert!((m.variance_population() - 4.0).abs() < 1e-12);
        assert!((m.std_dev_population() - 2.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn empty_moments_are_zero() {
        let m = OnlineMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance_population(), 0.0);
        assert_eq!(m.variance_sample(), 0.0);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case: tiny variance around 1e9.
        let mut m = OnlineMoments::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            m.add(x);
        }
        assert!((m.variance_sample() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineMoments::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = OnlineMoments::new();
        let mut b = OnlineMoments::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance_population() - whole.variance_population()).abs() < 1e-12);
    }

    #[test]
    fn covariance_of_correlated_pairs() {
        let mut c = Covariance::new(2);
        // y = 2x exactly: correlation 1, cov = 2·var(x).
        for i in 0..50 {
            let x = i as f64;
            c.add(&[x, 2.0 * x]);
        }
        assert!((c.correlation(0, 1) - 1.0).abs() < 1e-12);
        assert!((c.covariance_population(0, 1) - 2.0 * c.variance_population(0)).abs() < 1e-9);
        // Symmetric access.
        assert_eq!(c.covariance_population(0, 1), c.covariance_population(1, 0));
    }

    #[test]
    fn covariance_of_independent_alternation_is_zero() {
        let mut c = Covariance::new(2);
        for i in 0..1000 {
            let x = (i % 2) as f64;
            let y = ((i / 2) % 2) as f64;
            c.add(&[x, y]);
        }
        assert!(c.correlation(0, 1).abs() < 1e-12);
    }

    #[test]
    fn constant_dimension_has_zero_correlation() {
        let mut c = Covariance::new(2);
        for i in 0..10 {
            c.add(&[i as f64, 3.0]);
        }
        assert_eq!(c.correlation(0, 1), 0.0);
    }

    #[test]
    fn column_std_devs_row_major() {
        // Two columns: first constant, second alternating ±1.
        let data = [5.0, 1.0, 5.0, -1.0, 5.0, 1.0, 5.0, -1.0];
        let sd = column_std_devs(&data, 2);
        assert!(sd[0].abs() < 1e-15);
        assert!((sd[1] - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_data_panics() {
        column_std_devs(&[1.0, 2.0, 3.0], 2);
    }

    mod prop {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
                let mut m = OnlineMoments::new();
                for &x in &xs { m.add(x); }
                prop_assert!(m.variance_population() >= -1e-9);
                prop_assert!(m.min() <= m.mean() + 1e-9);
                prop_assert!(m.max() >= m.mean() - 1e-9);
            }

            #[test]
            fn merge_matches_sequential(
                xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
                split in 0usize..100
            ) {
                let split = split % xs.len();
                let mut whole = OnlineMoments::new();
                for &x in &xs { whole.add(x); }
                let mut a = OnlineMoments::new();
                let mut b = OnlineMoments::new();
                for &x in &xs[..split] { a.add(x); }
                for &x in &xs[split..] { b.add(x); }
                a.merge(&b);
                prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
                prop_assert!((a.variance_population() - whole.variance_population()).abs() < 1e-6);
            }

            #[test]
            fn correlation_bounded(
                pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..100)
            ) {
                let mut c = Covariance::new(2);
                for (x, y) in &pts { c.add(&[*x, *y]); }
                let r = c.correlation(0, 1);
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
        }
    }
}
