//! Kernel functions and their closed-form range integrals.
//!
//! For a rectangular query `Ω` and a diagonal bandwidth matrix, the
//! contribution of one sample point factorizes over dimensions (paper
//! Appendix B). Each factor is the probability a one-dimensional kernel
//! centered at `t` with bandwidth `h` assigns to `(lo, hi)`:
//!
//! * Gaussian (eq. 13): `½·[erf((hi−t)/(√2·h)) − erf((lo−t)/(√2·h))]`,
//! * Epanechnikov: the integral of `¾·(1−u²)` over the clipped standardized
//!   interval.
//!
//! The factor's derivative with respect to `h` is the inner factor of the
//! estimator gradient (eq. 17).

use kdesel_math::{erf, SQRT_2, SQRT_PI};

/// Kernel shape. The paper requires continuous differentiability (§3.1.2)
/// and derives everything for the Gaussian; the Epanechnikov is the cheaper
/// alternative mentioned in Appendix A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelFn {
    /// Standard normal kernel (paper eq. 9).
    #[default]
    Gaussian,
    /// Truncated second-order polynomial `¾(1−u²)` on `[−1, 1]`.
    Epanechnikov,
}

impl KernelFn {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            KernelFn::Gaussian => "gaussian",
            KernelFn::Epanechnikov => "epanechnikov",
        }
    }

    /// Probability mass the kernel centered at `t` with bandwidth `h`
    /// assigns to the interval `(lo, hi)` — one factor of paper eq. 13.
    ///
    /// Requires `h > 0` (checked by `debug_assert`); returns a value in
    /// `[0, 1]`.
    #[inline]
    pub fn range_factor(self, t: f64, lo: f64, hi: f64, h: f64) -> f64 {
        debug_assert!(h > 0.0, "non-positive bandwidth {h}");
        debug_assert!(lo <= hi);
        match self {
            KernelFn::Gaussian => {
                0.5 * (erf((hi - t) / (SQRT_2 * h)) - erf((lo - t) / (SQRT_2 * h)))
            }
            KernelFn::Epanechnikov => {
                let a = ((lo - t) / h).clamp(-1.0, 1.0);
                let b = ((hi - t) / h).clamp(-1.0, 1.0);
                epa_cdf(b) - epa_cdf(a)
            }
        }
    }

    /// Derivative of [`range_factor`](Self::range_factor) with respect to
    /// the bandwidth `h` — the inner factor of paper eq. 17.
    #[inline]
    pub fn range_factor_dh(self, t: f64, lo: f64, hi: f64, h: f64) -> f64 {
        debug_assert!(h > 0.0);
        match self {
            KernelFn::Gaussian => {
                let h2 = h * h;
                // (1/(√2·√π·h²)) · [dl·exp(−dl²/2h²) − du·exp(−du²/2h²)].
                // x·e^{−x²/2h²} → 0 as |x| → ∞, but evaluates as ∞·0 = NaN
                // in floating point — take the limit explicitly so
                // unbounded query intervals (lo = −∞ / hi = +∞, common for
                // join predicates that constrain only some columns) get
                // the correct zero gradient in those dimensions.
                let term = |d: f64| -> f64 {
                    if d.is_finite() {
                        d * (-d * d / (2.0 * h2)).exp()
                    } else {
                        0.0
                    }
                };
                (term(lo - t) - term(hi - t)) / (SQRT_2 * SQRT_PI * h2)
            }
            KernelFn::Epanechnikov => {
                // d/dh [F(clamp(u_hi)) − F(clamp(u_lo))], u = (x−t)/h,
                // dF/dh = f(u)·(−u/h); the clamp zeroes the density outside
                // the support, so clamped endpoints contribute nothing.
                let ul = (lo - t) / h;
                let uh = (hi - t) / h;
                let term = |u: f64| -> f64 {
                    if (-1.0..=1.0).contains(&u) {
                        epa_pdf(u) * (-u / h)
                    } else {
                        0.0
                    }
                };
                term(uh) - term(ul)
            }
        }
    }

    /// Multiplies the range factors of all dimensions: the full per-point
    /// contribution `p̂⁽ⁱ⁾(Ω)` of paper eq. 13. `point`, `lo`, `hi`, and
    /// `bandwidth` must share one length.
    #[inline]
    pub fn contribution(self, point: &[f64], lo: &[f64], hi: &[f64], bandwidth: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), bandwidth.len());
        let mut p = 1.0;
        for j in 0..point.len() {
            p *= self.range_factor(point[j], lo[j], hi[j], bandwidth[j]);
            if p == 0.0 {
                return 0.0;
            }
        }
        p
    }

    /// Writes the per-dimension gradient contributions of one point into
    /// `out` (paper eq. 16): `out[i] = ∂/∂h_i ∏_j factor_j`.
    #[inline]
    pub fn contribution_gradient(
        self,
        point: &[f64],
        lo: &[f64],
        hi: &[f64],
        bandwidth: &[f64],
        out: &mut [f64],
    ) {
        let d = point.len();
        debug_assert_eq!(out.len(), d);
        // factors and their h-derivatives per dimension.
        let mut factors = [0.0f64; 32];
        let mut factors_heap;
        let factors: &mut [f64] = if d <= 32 {
            &mut factors[..d]
        } else {
            factors_heap = vec![0.0; d];
            &mut factors_heap
        };
        for j in 0..d {
            factors[j] = self.range_factor(point[j], lo[j], hi[j], bandwidth[j]);
        }
        for i in 0..d {
            let dfi = self.range_factor_dh(point[i], lo[i], hi[i], bandwidth[i]);
            if dfi == 0.0 {
                out[i] = 0.0;
                continue;
            }
            let mut prod = dfi;
            for (j, &fj) in factors.iter().enumerate() {
                if j != i {
                    prod *= fj;
                    if prod == 0.0 {
                        break;
                    }
                }
            }
            out[i] = prod;
        }
    }

    /// Fused per-point evaluation: computes the contribution (eq. 13)
    /// *and* its bandwidth gradient (eq. 16) in one pass, evaluating each
    /// dimension's range factor exactly once and sharing it between the
    /// two outputs (the factor-sharing observation of §5.5).
    ///
    /// Bit-identical to calling [`contribution`](Self::contribution) and
    /// [`contribution_gradient`](Self::contribution_gradient) separately:
    /// both outputs use the same factor values, the same multiplication
    /// order, and the same early-exit-on-zero behaviour.
    #[inline]
    pub fn contribution_with_gradient(
        self,
        point: &[f64],
        lo: &[f64],
        hi: &[f64],
        bandwidth: &[f64],
        out: &mut [f64],
    ) -> f64 {
        let d = point.len();
        debug_assert_eq!(out.len(), d);
        let mut factors = [0.0f64; 32];
        let mut factors_heap;
        let factors: &mut [f64] = if d <= 32 {
            &mut factors[..d]
        } else {
            factors_heap = vec![0.0; d];
            &mut factors_heap
        };
        for j in 0..d {
            factors[j] = self.range_factor(point[j], lo[j], hi[j], bandwidth[j]);
        }
        // Value: the accumulation order and zero short-circuit of
        // `contribution`.
        let mut value = 1.0;
        for &fj in factors.iter() {
            value *= fj;
            if value == 0.0 {
                break;
            }
        }
        // Gradient: the per-dimension loop of `contribution_gradient`,
        // reusing the factors computed above.
        for i in 0..d {
            let dfi = self.range_factor_dh(point[i], lo[i], hi[i], bandwidth[i]);
            if dfi == 0.0 {
                out[i] = 0.0;
                continue;
            }
            let mut prod = dfi;
            for (j, &fj) in factors.iter().enumerate() {
                if j != i {
                    prod *= fj;
                    if prod == 0.0 {
                        break;
                    }
                }
            }
            out[i] = prod;
        }
        value
    }

    /// Approximate FLOP count of one range factor, feeding the device cost
    /// model (erf ≈ 25 FLOP on GPU hardware; the polynomial CDF is ~10).
    pub fn flops_per_factor(self) -> f64 {
        match self {
            KernelFn::Gaussian => 60.0,
            KernelFn::Epanechnikov => 20.0,
        }
    }
}

/// Epanechnikov CDF on the standardized support `[-1, 1]`.
#[inline]
fn epa_cdf(u: f64) -> f64 {
    debug_assert!((-1.0..=1.0).contains(&u));
    0.25 * (3.0 * u - u * u * u) + 0.5
}

/// Epanechnikov density `¾(1−u²)` on `[-1, 1]` (shared with the
/// vectorized sweeps in [`crate::sweep`]).
#[inline]
pub(crate) fn epa_pdf(u: f64) -> f64 {
    0.75 * (1.0 - u * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [KernelFn; 2] = [KernelFn::Gaussian, KernelFn::Epanechnikov];

    #[test]
    fn whole_line_integrates_to_one() {
        for k in KERNELS {
            let v = k.range_factor(3.0, -1e6, 1e6, 2.0);
            assert!((v - 1.0).abs() < 1e-12, "{}: {v}", k.name());
        }
    }

    #[test]
    fn factors_are_probabilities() {
        for k in KERNELS {
            for (t, lo, hi, h) in [
                (0.0, -1.0, 1.0, 1.0),
                (5.0, -1.0, 1.0, 0.3),
                (0.0, 0.0, 0.0, 1.0),
                (-2.0, -3.0, 10.0, 4.0),
            ] {
                let v = k.range_factor(t, lo, hi, h);
                assert!((0.0..=1.0).contains(&v), "{}: {v}", k.name());
            }
        }
    }

    #[test]
    fn gaussian_matches_normal_interval() {
        // range_factor(t, lo, hi, h) = Φ((hi−t)/h) − Φ((lo−t)/h).
        let v = KernelFn::Gaussian.range_factor(1.0, 0.0, 2.0, 0.5);
        let phi = |x: f64| 0.5 * kdesel_math::erfc(-x / SQRT_2);
        let want = phi(2.0) - phi(-2.0);
        assert!((v - want).abs() < 1e-14, "{v} vs {want}");
    }

    #[test]
    fn epanechnikov_mass_within_support() {
        // Whole support from the center: exactly 1.
        assert!((KernelFn::Epanechnikov.range_factor(0.0, -1.0, 1.0, 1.0) - 1.0).abs() < 1e-15);
        // Half support: exactly 0.5 by symmetry.
        assert!((KernelFn::Epanechnikov.range_factor(0.0, 0.0, 1.0, 1.0) - 0.5).abs() < 1e-15);
        // Outside support: 0.
        assert_eq!(KernelFn::Epanechnikov.range_factor(0.0, 2.0, 3.0, 1.0), 0.0);
    }

    #[test]
    fn dh_matches_finite_differences() {
        for k in KERNELS {
            for (t, lo, hi, h) in [
                (0.3, -0.5, 0.9, 0.7),
                (2.0, -1.0, 1.0, 1.5),
                (0.0, 0.1, 0.4, 0.25),
                (-1.0, -2.0, 3.0, 2.0),
            ] {
                let eps = 1e-7;
                let fd = (k.range_factor(t, lo, hi, h + eps) - k.range_factor(t, lo, hi, h - eps))
                    / (2.0 * eps);
                let an = k.range_factor_dh(t, lo, hi, h);
                assert!(
                    (fd - an).abs() < 1e-6,
                    "{} at (t={t},lo={lo},hi={hi},h={h}): fd {fd} vs analytic {an}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn contribution_is_product_of_factors() {
        let k = KernelFn::Gaussian;
        let point = [0.0, 1.0];
        let lo = [-1.0, 0.0];
        let hi = [1.0, 2.0];
        let bw = [0.5, 2.0];
        let c = k.contribution(&point, &lo, &hi, &bw);
        let f0 = k.range_factor(0.0, -1.0, 1.0, 0.5);
        let f1 = k.range_factor(1.0, 0.0, 2.0, 2.0);
        assert!((c - f0 * f1).abs() < 1e-15);
    }

    #[test]
    fn contribution_gradient_matches_finite_differences() {
        for k in KERNELS {
            let point = [0.3, -0.2, 1.1];
            let lo = [-0.5, -1.0, 0.6];
            let hi = [0.8, 0.4, 2.0];
            let bw = [0.6, 0.9, 1.4];
            let mut grad = [0.0; 3];
            k.contribution_gradient(&point, &lo, &hi, &bw, &mut grad);
            for i in 0..3 {
                let eps = 1e-7;
                let mut bp = bw;
                bp[i] += eps;
                let mut bm = bw;
                bm[i] -= eps;
                let fd = (k.contribution(&point, &lo, &hi, &bp)
                    - k.contribution(&point, &lo, &hi, &bm))
                    / (2.0 * eps);
                assert!(
                    (fd - grad[i]).abs() < 1e-6,
                    "{} dim {i}: fd {fd} vs {}",
                    k.name(),
                    grad[i]
                );
            }
        }
    }

    #[test]
    fn fused_contribution_is_bit_identical_to_separate_calls() {
        for k in KERNELS {
            let point = [0.3, -0.2, 1.1, 4.0];
            let lo = [-0.5, -1.0, 0.6, 3.0];
            let hi = [0.8, 0.4, 2.0, 5.0];
            let bw = [0.6, 0.9, 1.4, 0.2];
            let mut fused_grad = [0.0; 4];
            let fused = k.contribution_with_gradient(&point, &lo, &hi, &bw, &mut fused_grad);
            let mut grad = [0.0; 4];
            k.contribution_gradient(&point, &lo, &hi, &bw, &mut grad);
            assert_eq!(fused, k.contribution(&point, &lo, &hi, &bw), "{}", k.name());
            assert_eq!(fused_grad, grad, "{}", k.name());
        }
    }

    #[test]
    fn fused_contribution_handles_exact_zero_factors() {
        // Epanechnikov has compact support: a point far outside the query
        // in one dimension produces an exactly-zero factor, exercising the
        // early-exit paths of both outputs.
        let k = KernelFn::Epanechnikov;
        let point = [0.0, 100.0];
        let lo = [-1.0, -1.0];
        let hi = [1.0, 1.0];
        let bw = [1.0, 1.0];
        let mut fused_grad = [9.0; 2];
        let fused = k.contribution_with_gradient(&point, &lo, &hi, &bw, &mut fused_grad);
        let mut grad = [9.0; 2];
        k.contribution_gradient(&point, &lo, &hi, &bw, &mut grad);
        assert_eq!(fused, 0.0);
        assert_eq!(fused, k.contribution(&point, &lo, &hi, &bw));
        assert_eq!(fused_grad, grad);
    }

    #[test]
    fn gaussian_gradient_sign() {
        // Point outside a small query box: growing h spreads mass toward the
        // box → positive derivative. Point at the center: growing h leaks
        // mass out → negative derivative.
        let k = KernelFn::Gaussian;
        assert!(k.range_factor_dh(5.0, -1.0, 1.0, 1.0) > 0.0);
        assert!(k.range_factor_dh(0.0, -1.0, 1.0, 1.0) < 0.0);
    }

    #[test]
    fn tiny_bandwidth_degrades_to_point_membership() {
        // §8 of the paper: as h → 0 the estimator counts matching tuples.
        for k in KERNELS {
            let inside = k.range_factor(0.5, 0.0, 1.0, 1e-6);
            let outside = k.range_factor(5.0, 0.0, 1.0, 1e-6);
            assert!((inside - 1.0).abs() < 1e-9, "{}", k.name());
            assert!(outside.abs() < 1e-12, "{}", k.name());
        }
    }

    mod prop {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn factor_in_unit_interval(
                t in -10.0f64..10.0,
                a in -10.0f64..10.0,
                w in 0.0f64..10.0,
                h in 1e-3f64..10.0
            ) {
                for k in [KernelFn::Gaussian, KernelFn::Epanechnikov] {
                    let v = k.range_factor(t, a, a + w, h);
                    prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
                }
            }

            #[test]
            fn factor_monotone_in_region_growth(
                t in -5.0f64..5.0,
                a in -5.0f64..5.0,
                w in 0.0f64..5.0,
                extra in 0.0f64..3.0,
                h in 1e-2f64..5.0
            ) {
                for k in [KernelFn::Gaussian, KernelFn::Epanechnikov] {
                    let small = k.range_factor(t, a, a + w, h);
                    let large = k.range_factor(t, a - extra, a + w + extra, h);
                    prop_assert!(large >= small - 1e-12);
                }
            }

            #[test]
            fn gaussian_dh_consistent(
                t in -3.0f64..3.0,
                a in -3.0f64..3.0,
                w in 0.01f64..3.0,
                h in 0.05f64..3.0
            ) {
                let k = KernelFn::Gaussian;
                let eps = 1e-6;
                let fd = (k.range_factor(t, a, a + w, h + eps)
                    - k.range_factor(t, a, a + w, h - eps)) / (2.0 * eps);
                let an = k.range_factor_dh(t, a, a + w, h);
                prop_assert!((fd - an).abs() < 1e-4, "fd {} vs {}", fd, an);
            }
        }
    }
}
