//! The portable arm of [`F64s`]: a 64-byte-aligned `[f64; 8]` whose
//! operations are loops over the lanes, each lane the scalar `f64`
//! operation. LLVM lowers the loops to the target's packed
//! instructions.

use super::{Lane, LANES};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A pack of [`LANES`] `f64` values with elementwise arithmetic.
#[derive(Clone, Copy)]
#[repr(align(64))]
pub struct F64s([f64; LANES]);

impl F64s {
    /// Loads exactly [`LANES`] elements.
    #[inline(always)]
    pub(super) fn load(s: &[f64]) -> Self {
        let mut lanes = [0.0; LANES];
        lanes.copy_from_slice(s);
        Self(lanes)
    }

    /// Stores into exactly [`LANES`] elements.
    #[inline(always)]
    pub(super) fn store(self, out: &mut [f64]) {
        out.copy_from_slice(&self.0);
    }

    /// `lo <= lane && lane <= hi` per lane, false for NaN.
    #[inline(always)]
    pub(super) fn within(self, lo: f64, hi: f64) -> [bool; LANES] {
        self.test(|v| lo <= v && v <= hi)
    }

    #[inline(always)]
    fn lanewise(self, f: impl Fn(f64) -> f64) -> Self {
        Self(self.0.map(f))
    }

    #[inline(always)]
    fn zip(self, rhs: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self(std::array::from_fn(|l| f(self.0[l], rhs.0[l])))
    }

    #[inline(always)]
    fn test(self, f: impl Fn(f64) -> bool) -> [bool; LANES] {
        self.0.map(f)
    }
}

macro_rules! binary {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F64s {
            type Output = F64s;
            #[inline(always)]
            fn $method(self, rhs: F64s) -> F64s {
                self.zip(rhs, |a, b| a $op b)
            }
        }
    };
}

binary!(Add, add, +);
binary!(Sub, sub, -);
binary!(Mul, mul, *);
binary!(Div, div, /);

impl Neg for F64s {
    type Output = F64s;
    #[inline(always)]
    fn neg(self) -> F64s {
        self.lanewise(|v| -v)
    }
}

impl Lane for F64s {
    type Mask = [bool; LANES];

    #[inline(always)]
    fn splat(v: f64) -> Self {
        Self([v; LANES])
    }

    #[inline(always)]
    fn abs(self) -> Self {
        self.lanewise(f64::abs)
    }

    #[inline(always)]
    fn copysign(self, sign: Self) -> Self {
        self.zip(sign, f64::copysign)
    }

    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        self.lanewise(|v| v.clamp(lo, hi))
    }

    #[inline(always)]
    fn lt(self, bound: f64) -> [bool; LANES] {
        self.test(|v| v < bound)
    }

    #[inline(always)]
    fn le(self, bound: f64) -> [bool; LANES] {
        self.test(|v| v <= bound)
    }

    #[inline(always)]
    fn is_nan(self) -> [bool; LANES] {
        self.test(f64::is_nan)
    }

    #[inline(always)]
    fn select(mask: [bool; LANES], yes: Self, no: Self) -> Self {
        Self(std::array::from_fn(|l| {
            if mask[l] {
                yes.0[l]
            } else {
                no.0[l]
            }
        }))
    }

    #[inline(always)]
    fn exp2_halves(shifted: Self) -> (Self, Self) {
        let halves = shifted.0.map(<f64 as Lane>::exp2_halves);
        (
            Self(halves.map(|(lo, _)| lo)),
            Self(halves.map(|(_, hi)| hi)),
        )
    }

    #[inline(always)]
    fn exp2(shifted: Self) -> Self {
        shifted.lanewise(<f64 as Lane>::exp2)
    }
}
