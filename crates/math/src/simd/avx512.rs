//! The zmm arm of [`F64s`]: one `__m512d` register per pack, one
//! AVX-512F intrinsic per operation.
//!
//! This module is compiled only when the build enables `avx512f` (the
//! `cfg` on its declaration), which is the one precondition every
//! intrinsic here has beyond its arguments. Register-only intrinsics
//! touch no memory; the one load and the one store check their slice
//! length first.

use super::{Lane, LANES, ROUND_SHIFT};
use std::arch::x86_64::*;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A pack of [`LANES`] `f64` values with elementwise arithmetic.
#[derive(Clone, Copy)]
pub struct F64s(__m512d);

/// The sign bit of an `f64`.
const SIGN_BIT: i64 = i64::MIN;

impl F64s {
    /// Loads exactly [`LANES`] elements.
    #[inline(always)]
    pub(super) fn load(s: &[f64]) -> Self {
        assert_eq!(s.len(), LANES);
        // SAFETY: avx512f is enabled; `s` holds the LANES f64s (64 bytes)
        // the unaligned load reads.
        Self(unsafe { _mm512_loadu_pd(s.as_ptr()) })
    }

    /// Stores into exactly [`LANES`] elements.
    #[inline(always)]
    pub(super) fn store(self, out: &mut [f64]) {
        assert_eq!(out.len(), LANES);
        // SAFETY: avx512f is enabled; `out` holds the LANES f64s (64
        // bytes) the unaligned store writes.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), self.0) }
    }

    /// `lo <= lane && lane <= hi` per lane, false for NaN.
    #[inline(always)]
    pub(super) fn within(self, lo: f64, hi: f64) -> __mmask8 {
        let (lo, hi) = (F64s::splat(lo).0, F64s::splat(hi).0);
        // SAFETY: avx512f is enabled; register-only (ordered: NaN false).
        let above_lo = unsafe { _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self.0, lo) };
        // SAFETY: as above; lanes outside `above_lo` compare false.
        unsafe { _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(above_lo, self.0, hi) }
    }
}

/// The pack's bits as eight `i64` lanes.
#[inline(always)]
fn bits(v: F64s) -> __m512i {
    // SAFETY: avx512f is enabled; a register-only reinterpretation.
    unsafe { _mm512_castpd_si512(v.0) }
}

/// Eight `i64` lanes reinterpreted as a pack.
#[inline(always)]
fn from_bits(v: __m512i) -> F64s {
    // SAFETY: avx512f is enabled; a register-only reinterpretation.
    F64s(unsafe { _mm512_castsi512_pd(v) })
}

#[inline(always)]
fn splat_i64(v: i64) -> __m512i {
    // SAFETY: avx512f is enabled; a register-only broadcast.
    unsafe { _mm512_set1_epi64(v) }
}

#[inline(always)]
fn add_i64(a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: avx512f is enabled; register-only (wrapping, as `i64 +` in
    // release builds).
    unsafe { _mm512_add_epi64(a, b) }
}

#[inline(always)]
fn sub_i64(a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: avx512f is enabled; register-only.
    unsafe { _mm512_sub_epi64(a, b) }
}

/// `2ᵏ` per lane for `-1022 ≤ k ≤ 1023`: the lane form of
/// [`super::pow2`], `((k + 1023) as u64) << 52`.
#[inline(always)]
fn pow2(k: __m512i) -> F64s {
    let biased = add_i64(k, splat_i64(1023));
    // Logical, as `as u64` then `<<` in the scalar form.
    // SAFETY: avx512f is enabled; a register-only logical shift.
    from_bits(unsafe { _mm512_slli_epi64::<52>(biased) })
}

macro_rules! binary {
    ($trait:ident, $method:ident, $intrinsic:ident) => {
        impl $trait for F64s {
            type Output = F64s;
            #[inline(always)]
            fn $method(self, rhs: F64s) -> F64s {
                // SAFETY: avx512f is enabled; one register-only packed
                // IEEE-754 operation, rounded to nearest.
                F64s(unsafe { $intrinsic(self.0, rhs.0) })
            }
        }
    };
}

binary!(Add, add, _mm512_add_pd);
binary!(Sub, sub, _mm512_sub_pd);
binary!(Mul, mul, _mm512_mul_pd);
binary!(Div, div, _mm512_div_pd);

impl Neg for F64s {
    type Output = F64s;
    #[inline(always)]
    fn neg(self) -> F64s {
        // Flips the sign bit only, as scalar negation does (NaN too).
        let (v, sign) = (bits(self), splat_i64(SIGN_BIT));
        // SAFETY: avx512f is enabled; register-only.
        from_bits(unsafe { _mm512_xor_epi64(v, sign) })
    }
}

impl Lane for F64s {
    type Mask = __mmask8;

    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: avx512f is enabled; a register-only broadcast.
        F64s(unsafe { _mm512_set1_pd(v) })
    }

    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: avx512f is enabled; register-only (clears the sign bit).
        F64s(unsafe { _mm512_abs_pd(self.0) })
    }

    #[inline(always)]
    fn copysign(self, sign: Self) -> Self {
        // Bitwise select: sign bit from `sign`, the rest from `self`
        // (0xD8 is `c ? b : a` with a = self, b = sign, c = the mask).
        let (magnitude, sign, mask) = (bits(self), bits(sign), splat_i64(SIGN_BIT));
        // SAFETY: avx512f is enabled; register-only.
        from_bits(unsafe { _mm512_ternarylogic_epi64::<0xD8>(magnitude, sign, mask) })
    }

    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "clamp bounds {lo} > {hi}");
        // `vmaxpd`/`vminpd` return their second operand when either is
        // NaN or both are zeros, so `max(lo, x)` is `if x < lo { lo }
        // else { x }` and `min(hi, x)` is `if x > hi { hi } else { x }`:
        // `f64::clamp` exactly, NaN and -0.0 included.
        let (lo, hi) = (F64s::splat(lo).0, F64s::splat(hi).0);
        // SAFETY: avx512f is enabled; register-only.
        let raised = unsafe { _mm512_max_pd(lo, self.0) };
        // SAFETY: as above.
        F64s(unsafe { _mm512_min_pd(hi, raised) })
    }

    #[inline(always)]
    fn lt(self, bound: f64) -> __mmask8 {
        let bound = F64s::splat(bound).0;
        // SAFETY: avx512f is enabled; register-only (ordered: NaN false).
        unsafe { _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, bound) }
    }

    #[inline(always)]
    fn le(self, bound: f64) -> __mmask8 {
        let bound = F64s::splat(bound).0;
        // SAFETY: avx512f is enabled; register-only (ordered: NaN false).
        unsafe { _mm512_cmp_pd_mask::<_CMP_LE_OQ>(self.0, bound) }
    }

    #[inline(always)]
    fn is_nan(self) -> __mmask8 {
        // SAFETY: avx512f is enabled; register-only (unordered = NaN).
        unsafe { _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(self.0, self.0) }
    }

    #[inline(always)]
    fn select(mask: __mmask8, yes: Self, no: Self) -> Self {
        // SAFETY: avx512f is enabled; register-only (set bits take `yes`).
        F64s(unsafe { _mm512_mask_blend_pd(mask, no.0, yes.0) })
    }

    #[inline(always)]
    fn exp2_halves(shifted: Self) -> (Self, Self) {
        let k = sub_i64(bits(shifted), splat_i64(ROUND_SHIFT.to_bits() as i64));
        // SAFETY: avx512f is enabled; register-only arithmetic shift, as
        // `i64 >> 1`.
        let k_half = unsafe { _mm512_srai_epi64::<1>(k) };
        (pow2(k_half), pow2(sub_i64(k, k_half)))
    }
}
