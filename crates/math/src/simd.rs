//! Portable fixed-width f64 lane type for the vectorized kernel sweeps.
//!
//! `std::simd` is still nightly-only and the workspace builds offline, so
//! this module provides the minimal lane abstraction the columnar KDE
//! sweeps need: a `[f64; LANES]` wrapper whose elementwise operators are
//! plain loops over the array. The loops are trivially auto-vectorizable
//! (no branches, no reductions, unit stride) and the workspace builds
//! with `-C target-cpu=native` (see `.cargo/config.toml`), so rustc/LLVM
//! lowers them to packed `vaddpd`/`vmulpd`/`vdivpd`/`vmaxpd` instructions
//! at the host's widest vector width. No `unsafe`, no intrinsics.
//!
//! **Bit-identity contract.** Every lane applies exactly the IEEE-754
//! operation the scalar code would: `F64s` never reassociates and never
//! fuses multiply-add. Transcendentals are *lane functions* — [`erf`] and
//! [`exp`], plain `f64 -> f64` functions built from arithmetic and
//! selects only (no branches, no libm call) — which [`F64s::erf`] and
//! [`F64s::exp`] map over the lanes, where LLVM vectorizes them. The
//! same function is the scalar twin a sweep's tail calls, so vector
//! groups and scalar tails agree bitwise by construction, and a sweep
//! written with `F64s` produces results bitwise equal to the scalar
//! row-at-a-time loop it replaces — which is what lets the SoA fast path
//! slot under the device layer's bit-identity pins.
//!
//! The lane functions approximate the scalar oracles rather than copy
//! them: [`erf`] stays within 2 ulp of Cody's [`crate::erf::erf`] (the
//! oracle behind the reference kernels) and [`exp`] within 1 ulp of
//! `f64::exp`; both bounds are pinned by this module's tests.

// Lint allowlist for this (unsafe-free) module: the operator macro
// spells lane updates as `*a = *a op *b` rather than `*a op= *b` so the
// generated loop bodies stay textually identical to the scalar IEEE-754
// expressions the bit-identity contract quotes; the two forms compile
// identically, the explicit one documents the contract.
#![allow(clippy::assign_op_pattern)]

use crate::erf::{A, B, C, D, THRESH};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Number of f64 lanes processed per vector step. Eight doubles = one
/// AVX-512 register or two AVX2 registers; LLVM splits or widens as the
/// target allows, and correctness never depends on the physical width.
pub const LANES: usize = 8;

/// Argument magnitude from which the lane [`erf`] returns `±1`: Cody's
/// `erfc(6) ≈ 2.2e-17` is below half an ulp of 1, so the oracle rounds
/// to exactly `±1` there too.
const ERF_SATURATION: f64 = 6.0;

/// The error function as a lane function: branch-free, so a loop of it
/// vectorizes. Within 2 ulp of the oracle [`crate::erf::erf`], bitwise
/// odd, and exactly `±1` for `|x| ≥ 6`; NaN gives NaN.
///
/// Every lane evaluates both of Cody's rationals on `y = min(|x|, 6)` —
/// the `erf` one for `y ≤ 0.46875`, the `erfc` one (fitted on
/// `[0.46875, 4]`, accurate enough as `1 − erfc` up to 6, which drops the
/// oracle's third branch) above — and a select picks one numerator and
/// one denominator, so a single division serves both.
#[inline(always)]
pub fn erf(x: f64) -> f64 {
    let ax = x.abs();
    let y = if ax < ERF_SATURATION {
        ax
    } else {
        ERF_SATURATION
    };
    let z = y * y;
    let mut small_num = A[4] * z;
    let mut small_den = z;
    for i in 0..3 {
        small_num = (small_num + A[i]) * z;
        small_den = (small_den + B[i]) * z;
    }
    let mut tail_num = C[8] * y;
    let mut tail_den = y;
    for i in 0..7 {
        tail_num = (tail_num + C[i]) * y;
        tail_den = (tail_den + D[i]) * y;
    }
    let small = y <= THRESH;
    let num = if small {
        y * (small_num + A[3])
    } else {
        tail_num + C[7]
    };
    let den = if small {
        small_den + B[3]
    } else {
        tail_den + D[7]
    };
    let q = num / den;
    let e = if small { q } else { 1.0 - exp(-z) * q };
    if x.is_nan() {
        f64::NAN
    } else {
        e.copysign(x)
    }
}

/// `ln 2` split fdlibm-style: the high part has 21 trailing zero bits, so
/// `k·LN2_HI` is exact for every exponent `k` the lane [`exp`] meets.
/// Given as bit patterns because their exact decimal forms are longer
/// than an `f64` literal may be.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `1.5·2⁵²`: adding it to `|v| < 2⁵¹` rounds `v` to the nearest integer
/// (ties to even) and leaves that integer in the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// Taylor coefficients `1/i!` of `eʳ` (every `i!` here is exact).
const INV_FACTORIALS: [f64; 14] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// `2ᵏ` for `-1022 ≤ k ≤ 1023`, built from its exponent bits.
#[inline(always)]
fn pow2(k: i64) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The exponential as a lane function: branch-free, so a loop of it
/// vectorizes. Within 1 ulp of `f64::exp`: `+∞` above ~709.78, subnormal
/// results rounded once, `+0.0` below ~−745.13 and at `−∞`; NaN gives
/// NaN.
///
/// Cody–Waite reduction `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2`, a
/// degree-13 Taylor polynomial for `eʳ`, and `2ᵏ` applied as two
/// normal factors `2^⌊k/2⌋·2^(k−⌊k/2⌋)`, so only the last multiply can
/// round (once) into the subnormal range.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // Past these ends the result is +0.0 or +∞ anyway; the clamp keeps
    // k's exponent factors normal. NaN passes through.
    let x = x.clamp(-746.0, 710.0);
    let shifted = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let mut p = INV_FACTORIALS[13];
    for c in INV_FACTORIALS[..13].iter().rev() {
        p = p * r + c;
    }
    let k = shifted.to_bits() as i64 - ROUND_SHIFT.to_bits() as i64;
    let k_half = k >> 1;
    p * pow2(k_half) * pow2(k - k_half)
}

/// A pack of [`LANES`] `f64` values with elementwise arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64s(pub [f64; LANES]);

impl F64s {
    /// All lanes set to `v`.
    #[inline]
    pub fn splat(v: f64) -> Self {
        Self([v; LANES])
    }

    /// Loads the first [`LANES`] elements of `s`.
    ///
    /// # Panics
    /// Panics when `s` has fewer than [`LANES`] elements.
    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        let mut out = [0.0; LANES];
        out.copy_from_slice(&s[..LANES]);
        Self(out)
    }

    /// Stores the lanes into the first [`LANES`] elements of `out`.
    ///
    /// # Panics
    /// Panics when `out` has fewer than [`LANES`] elements.
    #[inline]
    pub fn write_to(self, out: &mut [f64]) {
        out[..LANES].copy_from_slice(&self.0);
    }

    /// The lanes as a plain array.
    #[inline]
    pub fn to_array(self) -> [f64; LANES] {
        self.0
    }

    /// Applies a scalar function to every lane. It vectorizes only when
    /// `f` is a branch-free lane function like [`erf`] and [`exp`] (which
    /// is how [`F64s::erf`] and [`F64s::exp`] are built); otherwise — the
    /// libm `exp` of the SCV pair sums in `kdesel-kde` — it runs `f` once
    /// per lane.
    #[inline]
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = f(*v);
        }
        Self(out)
    }

    /// Lane-wise [`erf`]; each lane is bitwise the scalar [`erf`].
    #[inline]
    pub fn erf(self) -> Self {
        self.map(erf)
    }

    /// Lane-wise [`exp`]; each lane is bitwise the scalar [`exp`].
    #[inline]
    pub fn exp(self) -> Self {
        self.map(exp)
    }

    /// Elementwise `f64::clamp` — lowers to packed min/max.
    #[inline]
    pub fn clamp(self, lo: f64, hi: f64) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = v.clamp(lo, hi);
        }
        Self(out)
    }

    /// Zeroes every lane whose `probe` lane is NOT within `[lo, hi]`
    /// (NaN probes zero too) and keeps the rest — the branch-free select
    /// (packed compare + blend) that lets guarded kernel terms compute
    /// unconditionally on all lanes and discard the out-of-support ones,
    /// exactly like the scalar `if in-range { value } else { 0.0 }`.
    #[inline]
    pub fn zero_unless_within(self, probe: F64s, lo: f64, hi: f64) -> Self {
        let mut out = self.0;
        for (v, p) in out.iter_mut().zip(&probe.0) {
            if !(lo <= *p && *p <= hi) {
                *v = 0.0;
            }
        }
        Self(out)
    }
}

macro_rules! elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F64s {
            type Output = F64s;
            #[inline]
            fn $method(self, rhs: F64s) -> F64s {
                let mut out = self.0;
                for (a, b) in out.iter_mut().zip(&rhs.0) {
                    *a = *a $op *b;
                }
                F64s(out)
            }
        }

        impl $trait<f64> for F64s {
            type Output = F64s;
            #[inline]
            fn $method(self, rhs: f64) -> F64s {
                self $op F64s::splat(rhs)
            }
        }
    };
}

elementwise!(Add, add, +);
elementwise!(Sub, sub, -);
elementwise!(Mul, mul, *);
elementwise!(Div, div, /);

impl Neg for F64s {
    type Output = F64s;
    #[inline]
    fn neg(self) -> F64s {
        let mut out = self.0;
        for v in &mut out {
            *v = -*v;
        }
        F64s(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn splat_and_roundtrip() {
        let v = F64s::splat(2.5);
        assert_eq!(v.to_array(), [2.5; LANES]);
        let data: Vec<f64> = (0..LANES + 2).map(|i| i as f64).collect();
        let loaded = F64s::from_slice(&data);
        let mut out = vec![0.0; LANES];
        loaded.write_to(&mut out);
        assert_eq!(out, &data[..LANES]);
    }

    #[test]
    fn arithmetic_is_elementwise_and_bit_exact() {
        let a: [f64; LANES] = std::array::from_fn(|i| (i as f64 + 1.0) * 0.37);
        let b: [f64; LANES] = std::array::from_fn(|i| (i as f64 + 3.0) * -1.91);
        let (va, vb) = (F64s(a), F64s(b));
        for i in 0..LANES {
            assert_eq!((va + vb).0[i], a[i] + b[i]);
            assert_eq!((va - vb).0[i], a[i] - b[i]);
            assert_eq!((va * vb).0[i], a[i] * b[i]);
            assert_eq!((va / vb).0[i], a[i] / b[i]);
            assert_eq!((-va).0[i], -a[i]);
            assert_eq!((va * 0.5).0[i], a[i] * 0.5);
        }
    }

    /// Distance in ulps between two non-NaN values; `+0.0` and `-0.0`
    /// coincide.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    #[test]
    fn lane_erf_is_odd_and_within_two_ulp_of_the_oracle_on_a_grid() {
        // 2^20 + 1 points over [-8, 8], step 2^-16: both rationals, the
        // 0.46875 switch, the stretched range (4, 6] and saturation.
        let steps = 1 << 20;
        let mut worst = (0, 0.0);
        for i in 0..=steps {
            let x = -8.0 + 16.0 * f64::from(i) / f64::from(steps);
            let v = erf(x);
            let d = ulps(v, crate::erf(x));
            if d > worst.0 {
                worst = (d, x);
            }
            assert_eq!(erf(-x).to_bits(), (-v).to_bits(), "x = {x}");
        }
        assert!(
            worst.0 <= 2,
            "{} ulp from the oracle at x = {}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn lane_erf_equals_the_oracle_at_the_branch_points_and_saturates() {
        for x in [0.0, THRESH, 4.0, ERF_SATURATION, f64::INFINITY] {
            for x in [x, -x] {
                assert_eq!(erf(x).to_bits(), crate::erf(x).to_bits(), "x = {x}");
            }
        }
        assert_eq!(erf(f64::NAN).to_bits(), crate::erf(f64::NAN).to_bits());
        assert_eq!(erf(-f64::NAN).to_bits(), crate::erf(-f64::NAN).to_bits());
        for x in [6.0, 6.0 + 1e-12, 6.5, 10.0, 27.0, 1e300, f64::INFINITY] {
            assert_eq!(erf(x), 1.0, "x = {x}");
            assert_eq!(erf(-x), -1.0, "x = {x}");
        }
    }

    #[test]
    #[ignore = "120M evaluations: run in release, as scripts/check.sh does"]
    fn lane_erf_is_non_decreasing_on_a_fine_grid() {
        // A 1e-7 grid over [-6, 6]. Non-decreasing between grid points,
        // not per ulp: the oracle itself steps back 1 ulp at 0.46875.
        let steps = 120_000_000u32;
        let mut prev = erf(-6.0);
        for i in 1..=steps {
            let x = -6.0 + 12.0 * f64::from(i) / f64::from(steps);
            let v = erf(x);
            assert!(v >= prev, "erf decreases at x = {x}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn lane_exp_stays_within_one_ulp_of_libm() {
        let mut rng = StdRng::seed_from_u64(0xe4b);
        for _ in 0..1_000_000 {
            let x = rng.gen_range(-750.0..710.0);
            let d = ulps(exp(x), x.exp());
            assert!(d <= 1, "{d} ulp from f64::exp at x = {x}");
        }
    }

    #[test]
    fn lane_exp_equals_libm_at_the_edges() {
        // ±0, the underflow edge (the last subnormal is 5e-324), the
        // overflow edge, and the non-finite arguments.
        for x in [
            0.0,
            -0.0,
            f64::NEG_INFINITY,
            -745.2,
            -745.1,
            -1e300,
            709.8,
            710.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(exp(x).to_bits(), x.exp().to_bits(), "x = {x}");
        }
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(-745.2).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(-745.1), 5e-324);
        assert_eq!(exp(709.8), f64::INFINITY);
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn map_and_clamp_match_scalar() {
        let a: [f64; LANES] = std::array::from_fn(|i| i as f64 - 3.5);
        let v = F64s(a);
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(v.map(f64::exp).0[i], x.exp());
            assert_eq!(v.clamp(-1.0, 1.0).0[i], x.clamp(-1.0, 1.0));
        }
    }

    mod prop {
        use super::super::*;
        use super::ulps;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(20_000))]

            #[test]
            fn lane_erf_is_close_to_the_oracle(x in -10.0f64..10.0) {
                let d = ulps(erf(x), crate::erf(x));
                prop_assert!(d <= 2, "{} ulp at x = {}", d, x);
                prop_assert_eq!(erf(-x).to_bits(), (-erf(x)).to_bits());
            }

            #[test]
            fn lane_exp_is_close_to_libm(x in -750.0f64..710.0) {
                let d = ulps(exp(x), x.exp());
                prop_assert!(d <= 1, "{} ulp at x = {}", d, x);
            }
        }

        proptest! {
            /// The tail-twin contract: a pack computes, lane by lane,
            /// exactly what the scalar lane function computes.
            #[test]
            fn packs_equal_the_scalar_lane_functions(
                erf_args in proptest::collection::vec(-8.0f64..8.0, LANES),
                exp_args in proptest::collection::vec(-750.0f64..710.0, LANES),
            ) {
                let (erfs, exps) = (
                    F64s::from_slice(&erf_args).erf(),
                    F64s::from_slice(&exp_args).exp(),
                );
                for l in 0..LANES {
                    prop_assert_eq!(erfs.0[l].to_bits(), erf(erf_args[l]).to_bits());
                    prop_assert_eq!(exps.0[l].to_bits(), exp(exp_args[l]).to_bits());
                }
            }
        }
    }
}
