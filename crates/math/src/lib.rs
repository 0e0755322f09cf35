//! Scalar math substrate for the `kdesel` workspace.
//!
//! Everything the KDE estimator needs from "numerics land", implemented from
//! scratch so the workspace has no foreign-function or heavyweight numeric
//! dependencies:
//!
//! * [`erf`]/[`erfc`] — double-precision error function (Cody's rational
//!   Chebyshev approximations), the closed-form range estimate's
//!   (paper eq. 13) oracle: the reference kernels, [`normal`] and
//!   Karma's bound call it,
//! * [`normal`] — Gaussian pdf/cdf/quantile,
//! * [`stats`] — streaming (Welford) moments and covariance, used for
//!   Scott's rule (paper eq. 3) and the dataset generators,
//! * [`vecops`] — small dense-vector kernels shared by the solver,
//! * [`simd`] — a portable fixed-width f64 lane type for the vectorized
//!   columnar kernel sweeps (unsafe-free, auto-vectorized), with the
//!   branch-free lane `erf` and `exp` the Gaussian sweeps run, pinned
//!   to within 2 ulp of [`erf`] and 1 ulp of `f64::exp`.

pub mod erf;
pub mod normal;
pub mod simd;
pub mod stats;
pub mod vecops;

pub use erf::{erf, erfc};
pub use normal::{normal_cdf, normal_pdf, normal_quantile};
pub use stats::{Covariance, OnlineMoments};

/// `√2`, used throughout the erf-based range integrals.
pub const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// `√π`, appearing in the bandwidth gradient (paper eq. 17).
pub const SQRT_PI: f64 = 1.772_453_850_905_516;

/// `1/√(2π)`, the Gaussian normalization constant.
pub const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
