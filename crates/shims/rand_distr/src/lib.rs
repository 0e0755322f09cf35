//! Offline stand-in for the `rand_distr` crate.
//!
//! Provides the [`Normal`] distribution (the only one kdesel uses) via
//! the inverse-CDF transform: one uniform draw per sample, mapped through
//! Acklam's rational approximation of the standard normal quantile with
//! one Halley refinement step (relative error well below 1e-12 — far
//! tighter than any statistical use here requires). The upstream crate
//! samples with a ziggurat, so streams are not bit-compatible; behavior
//! within this workspace is deterministic per seed.

#![deny(unsafe_code)]

pub use rand::distributions::Distribution;
use rand::RngCore;

/// Error from invalid distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Standard deviation was negative or non-finite.
    BadVariance,
    /// Mean was non-finite.
    BadMean,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadVariance => write!(f, "standard deviation must be finite and >= 0"),
            Error::BadMean => write!(f, "mean must be finite"),
        }
    }
}

impl std::error::Error for Error {}

/// Normal (Gaussian) distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal<T> {
    mean: T,
    std_dev: T,
}

impl Normal<f64> {
    /// Creates a normal distribution; `std_dev` must be finite and
    /// non-negative.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, Error> {
        if !mean.is_finite() {
            return Err(Error::BadMean);
        }
        if !(std_dev.is_finite() && std_dev >= 0.0) {
            return Err(Error::BadVariance);
        }
        Ok(Self { mean, std_dev })
    }

    /// The mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard-deviation parameter.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Distribution<f64> for Normal<f64> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Uniform in the open interval (0, 1): offsetting by half an ulp
        // of the 2^-53 grid keeps the quantile finite at both ends.
        let u = ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        self.mean + self.std_dev * standard_normal_quantile(u)
    }
}

/// Standard normal quantile Φ⁻¹(p) for p ∈ (0, 1): Acklam's rational
/// approximation polished with one Halley step on Φ.
fn standard_normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement against Φ(x) − p.
    let e = 0.5 * erfc_local(-x / std::f64::consts::SQRT_2) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Complementary error function (Press et al. rational Chebyshev fit,
/// |ε| < 1.2e-7, then squared by the Halley step above). Local copy to
/// keep this shim dependency-free beyond `rand`.
fn erfc_local(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::NAN).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn quantile_hits_known_points() {
        assert!((standard_normal_quantile(0.5)).abs() < 1e-12);
        assert!((standard_normal_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-9);
        assert!((standard_normal_quantile(0.025) + 1.959_963_984_540_054).abs() < 1e-9);
        assert!((standard_normal_quantile(0.841_344_746_068_543) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_match_moments() {
        let normal = Normal::new(3.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn zero_std_dev_is_constant() {
        let normal = Normal::new(1.5, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(normal.sample(&mut rng), 1.5);
        }
    }
}
