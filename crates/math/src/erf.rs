//! Double-precision error function — the scalar oracle.
//!
//! Implements W. J. Cody's rational Chebyshev approximations ("Rational
//! Chebyshev approximation for the error function", Math. Comp. 23, 1969;
//! the SPECFUN `CALERF` routine). Relative error is below `1.2e-16` over the
//! full double range, which matters here because the KDE range estimate
//! (paper eq. 13) is a *difference* of erf values: for narrow query
//! intervals the difference cancels most leading digits, so the inputs must
//! be accurate to the last ulp.
//!
//! These are the reference functions: the scalar reference kernels, the
//! host estimate, [`crate::normal`] and Karma's error bound call them. The
//! vectorized sweeps run the branch-free lane function [`crate::simd::erf`]
//! instead, which reuses the first two coefficient tables below and is
//! pinned to within 2 ulp of [`erf`].

/// Split point between the primary interval and the erfc expansions.
pub(crate) const THRESH: f64 = 0.46875;

// Coefficients for erf(x), |x| <= 0.46875.
pub(crate) const A: [f64; 5] = [
    3.161_123_743_870_565_6e0,
    1.138_641_541_510_501_6e2,
    3.774_852_376_853_02e2,
    3.209_377_589_138_469_4e3,
    1.857_777_061_846_031_5e-1,
];
pub(crate) const B: [f64; 4] = [
    2.360_129_095_234_412_2e1,
    2.440_246_379_344_441_7e2,
    1.282_616_526_077_372_3e3,
    2.844_236_833_439_171e3,
];

// Coefficients for erfc(x), 0.46875 <= x <= 4.0.
pub(crate) const C: [f64; 9] = [
    5.641_884_969_886_701e-1,
    8.883_149_794_388_377,
    6.611_919_063_714_163e1,
    2.986_351_381_974_001e2,
    8.819_522_212_417_69e2,
    1.712_047_612_634_070_7e3,
    2.051_078_377_826_071_6e3,
    1.230_339_354_797_997_2e3,
    2.153_115_354_744_038_3e-8,
];
pub(crate) const D: [f64; 8] = [
    1.574_492_611_070_983_5e1,
    1.176_939_508_913_125e2,
    5.371_811_018_620_099e2,
    1.621_389_574_566_690_3e3,
    3.290_799_235_733_459_7e3,
    4.362_619_090_143_247e3,
    3.439_367_674_143_721_6e3,
    1.230_339_354_803_749_5e3,
];

// Coefficients for erfc(x), x > 4.0.
const P: [f64; 6] = [
    3.053_266_349_612_323_6e-1,
    3.603_448_999_498_044_5e-1,
    1.257_817_261_112_292_6e-1,
    1.608_378_514_874_227_5e-2,
    6.587_491_615_298_378e-4,
    1.631_538_713_730_209_7e-2,
];
const Q: [f64; 5] = [
    2.568_520_192_289_822,
    1.872_952_849_923_460_4,
    5.279_051_029_514_285e-1,
    6.051_834_131_244_132e-2,
    2.335_204_976_268_691_8e-3,
];

const SQRPI: f64 = 5.641_895_835_477_563e-1; // 1/√π

/// erf for |x| <= THRESH via the rational approximation R(x²)·x.
fn erf_small(x: f64) -> f64 {
    let y = x.abs();
    let z = y * y;
    let mut num = A[4] * z;
    let mut den = z;
    for i in 0..3 {
        num = (num + A[i]) * z;
        den = (den + B[i]) * z;
    }
    x * (num + A[3]) / (den + B[3])
}

/// erfc for THRESH <= x <= 4.0.
fn erfc_mid(x: f64) -> f64 {
    let mut num = C[8] * x;
    let mut den = x;
    for i in 0..7 {
        num = (num + C[i]) * x;
        den = (den + D[i]) * x;
    }
    let r = (num + C[7]) / (den + D[7]);
    exp_neg_xsq(x) * r
}

/// erfc for x > 4.0.
fn erfc_large(x: f64) -> f64 {
    // For very large x, erfc underflows to zero; the crossover point where
    // exp(-x²) underflows is ~26.64 for f64.
    if x > 26.643 {
        return 0.0;
    }
    let z = 1.0 / (x * x);
    let mut num = P[5] * z;
    let mut den = z;
    for i in 0..4 {
        num = (num + P[i]) * z;
        den = (den + Q[i]) * z;
    }
    let r = z * (num + P[4]) / (den + Q[4]);
    exp_neg_xsq(x) * (SQRPI - r) / x
}

/// Computes `exp(-x²)` with the argument split into a high part rounded to
/// 1/16 and a low remainder, avoiding the catastrophic relative error that a
/// naive `(-x*x).exp()` accrues for large `x` (the rounding error of `x*x`
/// is amplified by the exponential).
fn exp_neg_xsq(x: f64) -> f64 {
    let ysq = (x * 16.0).trunc() / 16.0;
    let del = (x - ysq) * (x + ysq);
    (-ysq * ysq).exp() * (-del).exp()
}

/// The error function `erf(x) = 2/√π ∫₀ˣ e^{−t²} dt`.
///
/// Odd, monotone, `erf(±∞) = ±1`. NaN propagates.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    if y <= THRESH {
        erf_small(x)
    } else if y <= 4.0 {
        let e = 1.0 - erfc_mid(y);
        if x < 0.0 {
            -e
        } else {
            e
        }
    } else {
        let e = 1.0 - erfc_large(y);
        if x < 0.0 {
            -e
        } else {
            e
        }
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Accurate in the right tail where `1 − erf(x)` would cancel.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    let tail = if y <= THRESH {
        return 1.0 - erf_small(x);
    } else if y <= 4.0 {
        erfc_mid(y)
    } else {
        erfc_large(y)
    };
    if x < 0.0 {
        2.0 - tail
    } else {
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    const REFERENCE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (1e-10, 1.1283791670955126e-10),
        (0.1, 0.1124629160182849),
        (0.25, 0.2763263901682369),
        (0.46875, 0.49261347321793797),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
        (4.0, 0.9999999845827421),
        (5.0, 0.9999999999984626),
    ];

    #[test]
    fn matches_reference_values() {
        for &(x, want) in REFERENCE {
            let got = erf(x);
            let tol = 1e-15 * want.abs().max(1e-300);
            assert!(
                (got - want).abs() <= tol.max(2e-16),
                "erf({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erf_is_odd() {
        for &(x, _) in REFERENCE {
            assert_eq!(erf(-x), -erf(x), "x = {x}");
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for x in [-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0] {
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 1e-14, "erf+erfc at {x} = {s}");
        }
    }

    #[test]
    fn erfc_tail_reference() {
        // erfc values where 1-erf would lose all precision.
        let cases = [
            (5.0, 1.5374597944280347e-12),
            (6.0, 2.1519736712498913e-17),
            (8.0, 1.1224297172982928e-29),
            (10.0, 2.0884875837625447e-45),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() < 1e-12,
                "erfc({x}) = {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn saturates_at_infinity() {
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(-f64::INFINITY), -1.0);
        assert_eq!(erf(30.0), 1.0);
        assert_eq!(erfc(30.0), 0.0);
        assert_eq!(erfc(-30.0), 2.0);
    }

    #[test]
    fn nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn monotone_increasing() {
        let mut prev = -1.0;
        let mut x = -6.0;
        while x <= 6.0 {
            let v = erf(x);
            assert!(v >= prev, "erf not monotone at {x}");
            prev = v;
            x += 0.01;
        }
    }

    #[test]
    fn continuous_at_branch_points() {
        for b in [THRESH, 4.0] {
            let below = erf(b - 1e-12);
            let above = erf(b + 1e-12);
            assert!((below - above).abs() < 1e-11, "jump at {b}");
        }
    }

    #[test]
    fn derivative_matches_gaussian() {
        // d/dx erf(x) = 2/√π e^{-x²}; central finite difference check.
        for x in [0.0, 0.3, 1.0, 2.5] {
            let h = 1e-6;
            let fd = (erf(x + h) - erf(x - h)) / (2.0 * h);
            let exact = 2.0 / crate::SQRT_PI * (-x * x).exp();
            assert!((fd - exact).abs() < 1e-9, "at {x}: {fd} vs {exact}");
        }
    }

    mod prop {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn bounded(x in -1e6f64..1e6) {
                let v = erf(x);
                prop_assert!((-1.0..=1.0).contains(&v));
            }

            #[test]
            fn odd_symmetry(x in -50.0f64..50.0) {
                prop_assert_eq!(erf(-x), -erf(x));
            }

            #[test]
            fn erfc_nonnegative(x in -50.0f64..50.0) {
                let v = erfc(x);
                prop_assert!((0.0..=2.0).contains(&v));
            }

            #[test]
            fn complement_identity(x in -5.0f64..5.0) {
                prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13);
            }

            #[test]
            fn monotone_pairs(x in -6.0f64..6.0, dx in 1e-9f64..1.0) {
                prop_assert!(erf(x + dx) >= erf(x));
            }
        }
    }
}
