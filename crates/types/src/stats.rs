//! Summary statistics for experiment reporting.
//!
//! The paper reports estimation-error distributions as boxplots over 25
//! repetitions (Figures 4 and 5). [`Summary`] accumulates samples and
//! produces the five-number summary those plots are built from, plus the
//! mean values used in Figures 6 and 8.
//!
//! [`nearest_rank`] is the one quantile rule for measured figures
//! (latencies, timing medians, q-error percentiles): it always reports an
//! observed value. [`wall_median`] times a closure with it.

/// Minimum, lower quartile, median, upper quartile, maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumberSummary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Accumulates scalar observations and answers summary queries.
///
/// Observations are stored (experiments collect at most a few thousand), so
/// exact quantiles are cheap.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    values: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a summary over the given values.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Self::new();
        for v in values {
            s.add(v);
        }
        s
    }

    /// Records one observation.
    ///
    /// # Panics
    /// Panics on NaN — a NaN error would silently poison quantiles.
    pub fn add(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        self.values.push(value);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Exact quantile via linear interpolation between order statistics
    /// (type-7, the R/numpy default).
    ///
    /// # Panics
    /// Panics when empty or when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of empty summary");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded on add"));
        let n = sorted.len();
        if n == 1 {
            return sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Five-number summary for boxplots.
    ///
    /// # Panics
    /// Panics when empty.
    pub fn five_numbers(&self) -> FiveNumberSummary {
        FiveNumberSummary {
            min: self.quantile(0.0),
            q1: self.quantile(0.25),
            median: self.quantile(0.5),
            q3: self.quantile(0.75),
            max: self.quantile(1.0),
        }
    }

    /// Read-only view of recorded observations (insertion order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0");
        }
        let fns = self.five_numbers();
        write!(
            f,
            "n={} mean={:.5} min={:.5} q1={:.5} med={:.5} q3={:.5} max={:.5}",
            self.count(),
            self.mean(),
            fns.min,
            fns.q1,
            fns.median,
            fns.q3,
            fns.max
        )
    }
}

/// Nearest-rank quantile of an ascending slice: the element at rank
/// `⌈q·n⌉`, clamped to `[1, n]`, so `q = 0` reads the minimum and `q = 1`
/// the maximum. On an odd count the median is the middle element; on an
/// even count it is the lower of the two middle ones.
///
/// # Panics
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(
        !sorted.is_empty(),
        "nearest-rank quantile of an empty slice"
    );
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median wall-clock seconds of `reps` runs of `f` (nearest rank).
///
/// # Panics
/// Panics when `reps` is zero.
pub fn wall_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    nearest_rank(&times, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_averages_observations() {
        let s = Summary::from_values([1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_values([10.0, 20.0, 30.0, 40.0]);
        assert!((s.quantile(0.0) - 10.0).abs() < 1e-15);
        assert!((s.quantile(1.0) - 40.0).abs() < 1e-15);
        assert!((s.median() - 25.0).abs() < 1e-15);
        assert!((s.quantile(0.25) - 17.5).abs() < 1e-15);
    }

    #[test]
    fn quantiles_do_not_depend_on_insertion_order() {
        let a = Summary::from_values([3.0, 1.0, 2.0]);
        let b = Summary::from_values([1.0, 2.0, 3.0]);
        assert_eq!(a.median(), b.median());
        assert_eq!(a.quantile(0.75), b.quantile(0.75));
    }

    #[test]
    fn five_numbers_are_ordered() {
        let s = Summary::from_values((0..100).map(|i| (i as f64 * 37.0) % 11.0));
        let f = s.five_numbers();
        assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_values([7.0]);
        assert_eq!(s.median(), 7.0);
        let f = s.five_numbers();
        assert_eq!(f.min, 7.0);
        assert_eq!(f.max, 7.0);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_rejected() {
        Summary::new().add(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantile of empty")]
    fn empty_quantile_panics() {
        Summary::new().quantile(0.5);
    }

    #[test]
    fn nearest_rank_on_odd_counts_picks_the_middle() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&sorted, 0.5), 3.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 5.0);
        assert_eq!(nearest_rank(&sorted, 0.2), 1.0);
        assert_eq!(nearest_rank(&sorted, 0.21), 2.0);
        // `sorted[n / 2]` on every odd count, such as calibration's 11 or
        // 23 points and bench repetitions of 7, 15, 25 or 41.
        for n in [1usize, 7, 11, 15, 23, 25, 41] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(nearest_rank(&values, 0.5), values[n / 2], "n = {n}");
        }
    }

    #[test]
    fn nearest_rank_on_even_counts_picks_the_lower_middle() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(nearest_rank(&sorted, 0.5), 20.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 10.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 40.0);
        assert_eq!(nearest_rank(&sorted, 0.75), 30.0);
        assert_eq!(nearest_rank(&sorted, 0.76), 40.0);
        let window: Vec<f64> = (0..64).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&window, 0.5), 31.0);
        assert_eq!(nearest_rank(&window, 0.95), 60.0);
        assert_eq!(nearest_rank(&window, 0.99), 63.0);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn nearest_rank_of_nothing_panics() {
        nearest_rank(&[], 0.5);
    }
}
