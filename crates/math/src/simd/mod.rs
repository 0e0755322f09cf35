//! Fixed-width f64 lane pack for the vectorized kernel sweeps.
//!
//! [`F64s`] holds [`LANES`] doubles and applies every operation to all
//! of them. It has two arms, and the build's target features pick one;
//! there is no option to choose:
//!
//! * **zmm** (`x86_64` with `avx512f` enabled, which
//!   `-C target-cpu=native` does on an AVX-512 host): the pack wraps one
//!   `__m512d` register and each operation is one AVX-512F intrinsic.
//!   Auto-vectorization cannot be relied on for this: LLVM's tuning for
//!   recent Intel cores prefers 256-bit vectors, so an array pack there
//!   ran as two ymm halves and spilled through the stack.
//! * **portable** (every other build): a 64-byte-aligned `[f64; 8]`
//!   whose operations are plain loops over the lanes, which LLVM lowers
//!   to the target's packed instructions.
//!
//! **One lane-function source.** The transcendentals [`erf`] and
//! [`exp`] are written once, generically over a private lane trait
//! that `f64`, `F64s` and a pair of `F64s` all implement: arithmetic,
//! compares, and selects in place of branches. A scalar sweep tail
//! calls the `f64` instance, a vector group the `F64s` one, and a
//! group that needs two evaluations ([`F64s::erf_pair`],
//! [`F64s::exp_pair`]) the pair one, so tails and groups run one
//! IEEE-754 operation sequence on either arm.
//!
//! **No subnormal detours.** A lane whose result is known to be zero
//! gets there through an exact-zero factor, never by rounding through
//! the subnormal range: x86 cores run an operation with a subnormal
//! result as a microcode assist for the whole pack, several times the
//! cost of the arithmetic.
//!
//! **Bit-identity contract.** Every lane applies exactly the IEEE-754
//! operation the scalar code would: neither arm reassociates or fuses a
//! multiply-add (Rust never enables contraction, and the intrinsics are
//! the plain packed `add`/`sub`/`mul`/`div`), and the selects, clamps
//! and sign operations reproduce the scalar `if`, `f64::clamp`, `abs`
//! and `copysign` lane by lane, NaN and signed zeros included. So a
//! sweep written with `F64s` produces results bitwise equal to the
//! scalar row-at-a-time loop it replaces, on either arm — which is what
//! lets the SoA fast path slot under the device layer's bit-identity
//! pins.
//!
//! **`unsafe` contract.** The zmm arm is the workspace's only `unsafe`
//! code (every other library crate denies it). Each `unsafe` block there
//! holds one intrinsic call, or one unaligned load or store after a
//! bounds check, and states why it is sound: the arm is compiled only
//! when the build enables `avx512f`, register-only intrinsics touch no
//! memory, and every load or store reads or writes exactly [`LANES`]
//! elements of a slice checked to hold them.
//!
//! The lane functions approximate the scalar oracles rather than copy
//! them: [`erf`] stays within 2 ulp of Cody's [`crate::erf::erf`] (the
//! oracle behind the reference kernels) and [`exp`] within 1 ulp of
//! `f64::exp`; both bounds are pinned by this module's tests.

use crate::erf::{A, B, C, D, THRESH};
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[allow(unsafe_code)]
mod avx512;
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub use avx512::F64s;

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod portable;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
pub use portable::F64s;

/// Number of f64 lanes processed per vector step: one AVX-512 register.
pub const LANES: usize = 8;

/// The operations the lane functions are written in, implemented by a
/// single `f64` and by an [`F64s`] pack. `Mask` holds one comparison
/// result per lane; [`Lane::select`] is the branch-free `if`.
trait Lane:
    Copy
    + Add<Output = Self>
    + Add<f64, Output = Self>
    + Sub<Output = Self>
    + Sub<f64, Output = Self>
    + Mul<Output = Self>
    + Mul<f64, Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    type Mask: Copy;

    fn splat(v: f64) -> Self;
    fn abs(self) -> Self;
    /// `f64::copysign`: the magnitude of `self`, the sign bit of `sign`.
    fn copysign(self, sign: Self) -> Self;
    /// `f64::clamp` (a NaN lane stays NaN).
    fn clamp(self, lo: f64, hi: f64) -> Self;
    /// `self < bound`, false for NaN.
    fn lt(self, bound: f64) -> Self::Mask;
    /// `self <= bound`, false for NaN.
    fn le(self, bound: f64) -> Self::Mask;
    fn is_nan(self) -> Self::Mask;
    /// `if mask { yes } else { no }` per lane.
    fn select(mask: Self::Mask, yes: Self, no: Self) -> Self;
    /// `(2^⌊k/2⌋, 2^(k−⌊k/2⌋))` for the integer `k` that adding
    /// [`ROUND_SHIFT`] left in `shifted`'s low mantissa bits: two normal
    /// factors whose product is `2ᵏ` (see [`exp`]).
    fn exp2_halves(shifted: Self) -> (Self, Self);
    /// `2ᵏ` as one factor, for the same `k` as [`Lane::exp2_halves`];
    /// only for `-1022 ≤ k ≤ 1023`, where it is normal.
    fn exp2(shifted: Self) -> Self;
}

impl Lane for f64 {
    type Mask = bool;

    #[inline(always)]
    fn splat(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline(always)]
    fn copysign(self, sign: Self) -> Self {
        f64::copysign(self, sign)
    }

    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        f64::clamp(self, lo, hi)
    }

    #[inline(always)]
    fn lt(self, bound: f64) -> bool {
        self < bound
    }

    #[inline(always)]
    fn le(self, bound: f64) -> bool {
        self <= bound
    }

    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }

    #[inline(always)]
    fn select(mask: bool, yes: Self, no: Self) -> Self {
        if mask {
            yes
        } else {
            no
        }
    }

    #[inline(always)]
    fn exp2_halves(shifted: Self) -> (Self, Self) {
        let k = shifted_int(shifted);
        let k_half = k >> 1;
        (pow2(k_half), pow2(k - k_half))
    }

    #[inline(always)]
    fn exp2(shifted: Self) -> Self {
        pow2(shifted_int(shifted))
    }
}

/// Argument magnitude from which the lane [`erf`] returns `±1`: Cody's
/// `erfc(6) ≈ 2.2e-17` is below half an ulp of 1, so the oracle rounds
/// to exactly `±1` there too.
const ERF_SATURATION: f64 = 6.0;

/// The error function as a lane function: branch-free, so a pack runs
/// it on all lanes at once. Within 2 ulp of the oracle
/// [`crate::erf::erf`], bitwise odd, and exactly `±1` for `|x| ≥ 6`;
/// NaN gives NaN.
///
/// Every lane evaluates both of Cody's rationals on `y = min(|x|, 6)` —
/// the `erf` one for `y ≤ 0.46875`, the `erfc` one (fitted on
/// `[0.46875, 4]`, accurate enough as `1 − erfc` up to 6, which drops the
/// oracle's third branch) above — and a select picks one numerator and
/// one denominator, so a single division serves both.
#[inline(always)]
pub fn erf(x: f64) -> f64 {
    erf_lanes(x)
}

#[inline(always)]
fn erf_lanes<V: Lane>(x: V) -> V {
    let ax = x.abs();
    let y = V::select(ax.lt(ERF_SATURATION), ax, V::splat(ERF_SATURATION));
    let z = y * y;
    let mut small_num = z * A[4];
    let mut small_den = z;
    for i in 0..3 {
        small_num = (small_num + A[i]) * z;
        small_den = (small_den + B[i]) * z;
    }
    let mut tail_num = y * C[8];
    let mut tail_den = y;
    for i in 0..7 {
        tail_num = (tail_num + C[i]) * y;
        tail_den = (tail_den + D[i]) * y;
    }
    let small = y.le(THRESH);
    let num = V::select(small, y * (small_num + A[3]), tail_num + C[7]);
    let den = V::select(small, small_den + B[3], tail_den + D[7]);
    let q = num / den;
    let e = V::select(small, q, V::splat(1.0) - exp_neg_square(z) * q);
    V::select(x.is_nan(), V::splat(f64::NAN), e.copysign(x))
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

/// The integer `k` that adding [`ROUND_SHIFT`] left in `shifted`'s low
/// mantissa bits.
#[inline(always)]
fn shifted_int(shifted: f64) -> i64 {
    shifted.to_bits() as i64 - ROUND_SHIFT.to_bits() as i64
}

/// `2ᵏ` for `-1022 ≤ k ≤ 1023`, built from its exponent bits.
#[inline(always)]
fn pow2(k: i64) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The exponential as a lane function: branch-free, so a pack runs it
/// on all lanes at once. Within 1 ulp of `f64::exp`: `+∞` above
/// ~709.78, subnormal results rounded once, `+0.0` below ~−745.13 and at
/// `−∞`; NaN gives NaN.
///
/// Cody–Waite reduction `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2`, a
/// degree-13 Taylor polynomial for `eʳ`, and `2ᵏ` applied as two
/// normal factors `2^⌊k/2⌋·2^(k−⌊k/2⌋)`, so only the last multiply can
/// round (once) into the subnormal range. Arguments at or below the
/// clamp at −746, whose result is `+0.0`, take an exact-zero second
/// factor instead of rounding through that range.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    exp_lanes(x)
}

#[inline(always)]
fn exp_lanes<V: Lane>(x: V) -> V {
    // Past these ends the result is +0.0 or +∞ anyway; the clamp keeps
    // k's exponent factors normal. NaN passes through.
    let x = x.clamp(-746.0, 710.0);
    let (p, shifted) = exp_unscaled(x);
    let (scale_lo, scale_hi) = V::exp2_halves(shifted);
    // At −746, `p·2⁻⁵³⁸·2⁻⁵³⁸` rounds to +0.0 through the subnormal
    // range; a zero factor gives the same +0.0 without the assist.
    p * scale_lo * V::select(x.le(-746.0), V::splat(0.0), scale_hi)
}

/// `eʳ` and the shifted `k` of the reduction `x = k·ln 2 + r`: [`exp`]
/// before its `2ᵏ` scaling.
#[inline(always)]
fn exp_unscaled<V: Lane>(x: V) -> (V, V) {
    let shifted = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let mut p = V::splat(INV_FACTORIALS[13]);
    for &c in INV_FACTORIALS[..13].iter().rev() {
        p = p * r + c;
    }
    (p, shifted)
}

/// `e⁻ᶻ` for [`erf`]'s `z = y² ∈ [0, 36]`, bitwise [`exp`]`(−z)`: the
/// clamp never fires there, and every `k ∈ [−52, 0]` makes `2ᵏ` and
/// `eʳ·2ᵏ` normal, so one exact multiply by `2ᵏ` equals the two exact
/// multiplies by its halves.
#[inline(always)]
fn exp_neg_square<V: Lane>(z: V) -> V {
    let (p, shifted) = exp_unscaled(-z);
    p * V::exp2(shifted)
}

impl F64s {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Lane::splat(v)
    }

    /// Loads the first [`LANES`] elements of `s`.
    ///
    /// # Panics
    /// Panics when `s` has fewer than [`LANES`] elements.
    #[inline(always)]
    pub fn from_slice(s: &[f64]) -> Self {
        Self::load(&s[..LANES])
    }

    /// Stores the lanes into the first [`LANES`] elements of `out`.
    ///
    /// # Panics
    /// Panics when `out` has fewer than [`LANES`] elements.
    #[inline(always)]
    pub fn write_to(self, out: &mut [f64]) {
        self.store(&mut out[..LANES]);
    }

    /// A pack holding `lanes`.
    #[inline(always)]
    pub fn from_array(lanes: [f64; LANES]) -> Self {
        Self::load(&lanes)
    }

    /// The lanes as a plain array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        self.store(&mut out);
        out
    }

    /// Applies a scalar function to every lane, one lane at a time (the
    /// libm `exp` of the SCV pair sums in `kdesel-kde`); the lane
    /// functions have their own pack forms, [`F64s::erf`] and
    /// [`F64s::exp`].
    #[inline]
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self::from_array(self.to_array().map(f))
    }

    /// Lane-wise [`erf`]; each lane is bitwise the scalar [`erf`].
    #[inline(always)]
    pub fn erf(self) -> Self {
        erf_lanes(self)
    }

    /// Lane-wise [`exp`]; each lane is bitwise the scalar [`exp`].
    #[inline(always)]
    pub fn exp(self) -> Self {
        exp_lanes(self)
    }

    /// [`F64s::erf`] of two packs as one interleaved evaluation: the two
    /// packs' operations alternate, so their dependency chains overlap.
    /// Each lane is bitwise the scalar [`erf`].
    #[inline(always)]
    pub fn erf_pair(packs: [F64s; 2]) -> [F64s; 2] {
        erf_lanes(Pair(packs)).0
    }

    /// [`F64s::exp`] of two packs as one interleaved evaluation, like
    /// [`F64s::erf_pair`]. Each lane is bitwise the scalar [`exp`].
    #[inline(always)]
    pub fn exp_pair(packs: [F64s; 2]) -> [F64s; 2] {
        exp_lanes(Pair(packs)).0
    }

    /// Elementwise `f64::clamp`.
    ///
    /// # Panics
    /// Panics unless `lo <= hi`, as `f64::clamp` does.
    #[inline(always)]
    pub fn clamp(self, lo: f64, hi: f64) -> Self {
        Lane::clamp(self, lo, hi)
    }

    /// Zeroes every lane whose `probe` lane is NOT within `[lo, hi]`
    /// (NaN probes zero too) and keeps the rest — the branch-free select
    /// that lets guarded kernel terms compute unconditionally on all
    /// lanes and discard the out-of-support ones, exactly like the
    /// scalar `if in-range { value } else { 0.0 }`.
    #[inline(always)]
    pub fn zero_unless_within(self, probe: F64s, lo: f64, hi: f64) -> Self {
        Lane::select(probe.within(lo, hi), self, F64s::splat(0.0))
    }
}

impl fmt::Debug for F64s {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("F64s").field(&self.to_array()).finish()
    }
}

macro_rules! with_scalar {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<f64> for F64s {
            type Output = F64s;
            #[inline(always)]
            fn $method(self, rhs: f64) -> F64s {
                self $op F64s::splat(rhs)
            }
        }
    };
}

with_scalar!(Add, add, +);
with_scalar!(Sub, sub, -);
with_scalar!(Mul, mul, *);
with_scalar!(Div, div, /);

/// Two packs as one lane value, for [`F64s::erf_pair`] and
/// [`F64s::exp_pair`]: every operation applies to the first pack, then
/// to the second, so each lane runs exactly the operation sequence of a
/// single pack.
#[derive(Clone, Copy)]
struct Pair([F64s; 2]);

impl Pair {
    #[inline(always)]
    fn map(self, f: impl Fn(F64s) -> F64s) -> Self {
        let [a, b] = self.0;
        Pair([f(a), f(b)])
    }

    #[inline(always)]
    fn zip(self, rhs: Self, f: impl Fn(F64s, F64s) -> F64s) -> Self {
        let ([a, b], [c, d]) = (self.0, rhs.0);
        Pair([f(a, c), f(b, d)])
    }

    #[inline(always)]
    fn test(self, f: impl Fn(F64s) -> <F64s as Lane>::Mask) -> [<F64s as Lane>::Mask; 2] {
        let [a, b] = self.0;
        [f(a), f(b)]
    }
}

macro_rules! pair_binary {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Pair {
            type Output = Pair;
            #[inline(always)]
            fn $method(self, rhs: Pair) -> Pair {
                self.zip(rhs, |a, b| a $op b)
            }
        }

        impl $trait<f64> for Pair {
            type Output = Pair;
            #[inline(always)]
            fn $method(self, rhs: f64) -> Pair {
                self.map(|a| a $op rhs)
            }
        }
    };
}

pair_binary!(Add, add, +);
pair_binary!(Sub, sub, -);
pair_binary!(Mul, mul, *);
pair_binary!(Div, div, /);

impl Neg for Pair {
    type Output = Pair;
    #[inline(always)]
    fn neg(self) -> Pair {
        self.map(|a| -a)
    }
}

impl Lane for Pair {
    type Mask = [<F64s as Lane>::Mask; 2];

    #[inline(always)]
    fn splat(v: f64) -> Self {
        Pair([F64s::splat(v); 2])
    }

    #[inline(always)]
    fn abs(self) -> Self {
        self.map(Lane::abs)
    }

    #[inline(always)]
    fn copysign(self, sign: Self) -> Self {
        self.zip(sign, Lane::copysign)
    }

    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        self.map(|a| Lane::clamp(a, lo, hi))
    }

    #[inline(always)]
    fn lt(self, bound: f64) -> Self::Mask {
        self.test(|a| a.lt(bound))
    }

    #[inline(always)]
    fn le(self, bound: f64) -> Self::Mask {
        self.test(|a| a.le(bound))
    }

    #[inline(always)]
    fn is_nan(self) -> Self::Mask {
        self.test(Lane::is_nan)
    }

    #[inline(always)]
    fn select([m, n]: Self::Mask, yes: Self, no: Self) -> Self {
        let ([y, z], [a, b]) = (yes.0, no.0);
        Pair([F64s::select(m, y, a), F64s::select(n, z, b)])
    }

    #[inline(always)]
    fn exp2_halves(shifted: Self) -> (Self, Self) {
        let [a, b] = shifted.0;
        let ((a_lo, a_hi), (b_lo, b_hi)) = (F64s::exp2_halves(a), F64s::exp2_halves(b));
        (Pair([a_lo, b_lo]), Pair([a_hi, b_hi]))
    }

    #[inline(always)]
    fn exp2(shifted: Self) -> Self {
        shifted.map(Lane::exp2)
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
        let (va, vb) = (F64s::from_array(a), F64s::from_array(b));
        for i in 0..LANES {
            assert_eq!((va + vb).to_array()[i], a[i] + b[i]);
            assert_eq!((va - vb).to_array()[i], a[i] - b[i]);
            assert_eq!((va * vb).to_array()[i], a[i] * b[i]);
            assert_eq!((va / vb).to_array()[i], a[i] / b[i]);
            assert_eq!((-va).to_array()[i], -a[i]);
            assert_eq!((va * 0.5).to_array()[i], a[i] * 0.5);
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

    /// The lane [`exp`] as it was before lanes clamped at −746 took an
    /// exact-zero factor: every lane scaled by both halves of `2ᵏ`.
    fn exp_two_halves(x: f64) -> f64 {
        let x = x.clamp(-746.0, 710.0);
        let shifted = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
        let k = shifted - ROUND_SHIFT;
        let r = (x - k * LN2_HI) - k * LN2_LO;
        let mut p = INV_FACTORIALS[13];
        for &c in INV_FACTORIALS[..13].iter().rev() {
            p = p * r + c;
        }
        let k = shifted.to_bits() as i64 - ROUND_SHIFT.to_bits() as i64;
        let k_half = k >> 1;
        p * pow2(k_half) * pow2(k - k_half)
    }

    /// Checks a lane function's scalar, pack and pair forms against
    /// `reference` on every argument, bit for bit. A last partial group
    /// is padded with zeros.
    fn assert_lane_forms_equal(
        args: impl IntoIterator<Item = f64>,
        reference: impl Fn(f64) -> f64,
        scalar: impl Fn(f64) -> f64,
        pack: impl Fn(F64s) -> F64s,
        pair: impl Fn(Pair) -> Pair,
    ) {
        let mut args = args.into_iter().peekable();
        while args.peek().is_some() {
            let mut group = [0.0; 2 * LANES];
            for (slot, x) in group.iter_mut().zip(&mut args) {
                *slot = x;
            }
            let halves = [F64s::from_slice(&group), F64s::from_slice(&group[LANES..])];
            let Pair(paired) = pair(Pair(halves));
            for (l, &x) in group.iter().enumerate() {
                let want = reference(x).to_bits();
                assert_eq!(scalar(x).to_bits(), want, "scalar at x = {x}");
                let (half, lane) = (l / LANES, l % LANES);
                assert_eq!(
                    pack(halves[half]).to_array()[lane].to_bits(),
                    want,
                    "pack at x = {x}"
                );
                assert_eq!(
                    paired[half].to_array()[lane].to_bits(),
                    want,
                    "pair at x = {x}"
                );
            }
        }
    }

    /// A grid of `steps + 1` evenly spaced points over `[lo, hi]`.
    fn grid(lo: f64, hi: f64, steps: u32) -> impl Iterator<Item = f64> {
        (0..=steps).map(move |i| lo + (hi - lo) * f64::from(i) / f64::from(steps))
    }

    #[test]
    fn lane_exp_below_the_clamp_equals_the_two_halves_form() {
        // The clamp at −746, the last argument rounding to the smallest
        // subnormal (−745.13), the non-finite arguments and ±0, then a
        // 2^20 + 1 grid over [−760, −700] across the subnormal range.
        let edges = [-746.0, -745.2, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0];
        assert_lane_forms_equal(
            edges.into_iter().chain(grid(-760.0, -700.0, 1 << 20)),
            exp_two_halves,
            exp,
            F64s::exp,
            exp_lanes,
        );
        assert_eq!(exp(-746.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[ignore = "14.8M arguments: run in release, as scripts/check.sh does"]
    fn lane_exp_equals_the_two_halves_form_on_a_fine_grid() {
        // A 1e-4 grid over [−760, 720]: underflow, the subnormal range,
        // every normal result and overflow.
        assert_lane_forms_equal(
            grid(-760.0, 720.0, 14_800_000),
            exp_two_halves,
            exp,
            F64s::exp,
            exp_lanes,
        );
    }

    #[test]
    fn erf_exp_core_equals_exp_on_its_domain() {
        // erf's `z = y²` for y ∈ [0, 6]: a 2^20 + 1 grid over [0, 36].
        assert_lane_forms_equal(
            grid(0.0, 36.0, 1 << 20),
            |z| exp(-z),
            exp_neg_square,
            exp_neg_square,
            exp_neg_square,
        );
    }

    #[test]
    fn map_and_clamp_match_scalar() {
        let a: [f64; LANES] = std::array::from_fn(|i| i as f64 - 3.5);
        let v = F64s::from_array(a);
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(v.map(f64::exp).to_array()[i], x.exp());
            assert_eq!(v.clamp(-1.0, 1.0).to_array()[i], x.clamp(-1.0, 1.0));
        }
    }

    /// The sign, clamp, compare and select operations reproduce the
    /// scalar ones bit for bit where the arms could differ: signed zeros,
    /// infinities, NaN of both signs and subnormals.
    #[test]
    fn pack_operations_match_scalar_on_special_values() {
        let values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            5e-324,
            -5e-324,
            1.0,
            -1.0,
            1.5,
            -1.5,
            0.25,
            -0.25,
            710.5,
            -746.5,
        ];
        let bits = |p: F64s| p.to_array().map(f64::to_bits);
        for (a, b) in [(0, 8), (8, 0), (4, 12)] {
            let (xs, ys): (Vec<f64>, Vec<f64>) = (0..LANES)
                .map(|l| (values[(a + l) % 16], values[(b + 2 * l) % 16]))
                .unzip();
            let (x, y) = (F64s::from_slice(&xs), F64s::from_slice(&ys));
            let want = |f: &dyn Fn(f64, f64) -> f64| -> [u64; LANES] {
                std::array::from_fn(|l| f(xs[l], ys[l]).to_bits())
            };
            assert_eq!(bits(-x), want(&|x, _| -x));
            assert_eq!(bits(x.abs()), want(&|x, _| x.abs()));
            assert_eq!(bits(x.copysign(y)), want(&|x, y| x.copysign(y)));
            assert_eq!(bits(x.clamp(-1.0, 1.0)), want(&|x, _| x.clamp(-1.0, 1.0)));
            assert_eq!(bits(x.clamp(0.0, 710.0)), want(&|x, _| x.clamp(0.0, 710.0)));
            assert_eq!(
                bits(x.zero_unless_within(y, -1.0, 1.0)),
                want(&|x, y| if (-1.0..=1.0).contains(&y) { x } else { 0.0 })
            );
            assert_eq!(
                bits(F64s::select(x.is_nan(), y, x)),
                want(&|x, y| if x.is_nan() { y } else { x })
            );
            assert_eq!(
                bits(F64s::select(x.lt(0.25), y, x)),
                want(&|x, y| if x < 0.25 { y } else { x })
            );
            assert_eq!(
                bits(F64s::select(x.le(0.25), y, x)),
                want(&|x, y| if x <= 0.25 { y } else { x })
            );
            let [erf_x, erf_y] = F64s::erf_pair([x, y]);
            assert_eq!(
                (bits(erf_x), bits(erf_y)),
                (want(&|x, _| erf(x)), want(&|_, y| erf(y)))
            );
            let [exp_x, exp_y] = F64s::exp_pair([x, y]);
            assert_eq!(
                (bits(exp_x), bits(exp_y)),
                (want(&|x, _| exp(x)), want(&|_, y| exp(y)))
            );
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
            /// The tail-twin contract: a pack, and each half of a pair,
            /// computes lane by lane exactly what the scalar lane
            /// function computes.
            #[test]
            fn packs_equal_the_scalar_lane_functions(
                erf_args in proptest::collection::vec(-8.0f64..8.0, 2 * LANES),
                exp_args in proptest::collection::vec(-750.0f64..710.0, 2 * LANES),
            ) {
                let halves = |args: &[f64]| [F64s::from_slice(args), F64s::from_slice(&args[LANES..])];
                let (erf_halves, exp_halves) = (halves(&erf_args), halves(&exp_args));
                let (erf_pair, exp_pair) =
                    (F64s::erf_pair(erf_halves), F64s::exp_pair(exp_halves));
                for l in 0..2 * LANES {
                    let (half, lane) = (l / LANES, l % LANES);
                    let (erf_want, exp_want) = (erf(erf_args[l]).to_bits(), exp(exp_args[l]).to_bits());
                    prop_assert_eq!(erf_halves[half].erf().to_array()[lane].to_bits(), erf_want);
                    prop_assert_eq!(erf_pair[half].to_array()[lane].to_bits(), erf_want);
                    prop_assert_eq!(exp_halves[half].exp().to_array()[lane].to_bits(), exp_want);
                    prop_assert_eq!(exp_pair[half].to_array()[lane].to_bits(), exp_want);
                }
            }
        }
    }
}
