//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the subset of the `rand 0.8` API that kdesel uses, implemented
//! from scratch on top of xoshiro256++ (Blackman & Vigna) seeded through
//! SplitMix64. The *API* is compatible; the generated streams are not
//! bit-identical to upstream `rand`, so seeds are only reproducible
//! within this workspace (which is all the experiments require).
//!
//! Supported surface:
//!
//! * [`RngCore`] / [`Rng`] with `gen`, `gen_range` (half-open and
//!   inclusive ranges over the float and integer types the repo uses),
//!   `gen_bool`, and `fill` (unused but cheap);
//! * [`SeedableRng::seed_from_u64`] and [`rngs::StdRng`];
//! * [`seq::SliceRandom`] with `shuffle` and `choose`;
//! * [`distributions::Distribution`], re-exported by the `rand_distr`
//!   shim.

#![deny(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of `next_u64`).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(state: u64) -> Self;
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of `T` from its standard distribution
    /// (`f64`/`f32` in `[0, 1)`, full-range integers, fair `bool`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range`.
    ///
    /// # Panics
    /// Panics on an empty range.
    fn gen_range<T, B: SampleRange<T>>(&mut self, range: B) -> T {
        range.sample_from(self)
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Standard-distribution sampling for `gen()`.
pub trait Standard {
    /// Draws one value from the type's standard distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// `u64` bits → `f64` in `[0, 1)` with 53 bits of precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    ((bits >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// Unbiased uniform in `[0, range)` via 128-bit multiply with rejection
/// (Lemire's method). `range` must be nonzero.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, range: u64) -> u64 {
    debug_assert!(range > 0);
    let threshold = range.wrapping_neg() % range; // 2^64 mod range
    loop {
        let m = (rng.next_u64() as u128) * (range as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Types usable with `gen_range`.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[low, high)`; `[low, high]` when `inclusive`.
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

impl SampleUniform for f64 {
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self {
        let x = low + (high - low) * unit_f64(rng.next_u64());
        if !inclusive && x >= high {
            // Rounding pushed us onto the open endpoint: step back one ulp.
            f64::from_bits(high.to_bits() - 1).max(low)
        } else {
            x.clamp(low, high)
        }
    }
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool) -> Self {
                let span = (high as u64).wrapping_sub(low as u64);
                let span = if inclusive { span + 1 } else { span };
                if span == 0 {
                    // Inclusive full-width range wrapped to zero.
                    return rng.next_u64() as $t;
                }
                low.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_uint!(u64, usize, u32, u16, u8);

macro_rules! impl_sample_uniform_int {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool) -> Self {
                let span = (high as $u).wrapping_sub(low as $u) as u64;
                let span = if inclusive { span + 1 } else { span };
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                low.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(i64 as u64, i32 as u32, isize as usize);

/// Ranges acceptable to `gen_range`.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        assert!(low <= high, "gen_range on empty range");
        T::sample_uniform(rng, low, high, true)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    ///
    /// Not the ChaCha12 generator upstream `rand` uses — streams differ
    /// from upstream for equal seeds, but are stable within this
    /// workspace.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 seed expansion, as recommended by the xoshiro
            // authors; avoids the all-zero state for every seed.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ step.
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Sequence-related sampling.

    use super::{Rng, RngCore, SampleUniform};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Shuffles the first `amount` elements into place (a partial
        /// Fisher–Yates pass), returning `(shuffled, rest)`.
        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [Self::Item], &mut [Self::Item]);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::sample_uniform(rng, 0, i + 1, false);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn partial_shuffle<R: RngCore + ?Sized>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [T], &mut [T]) {
            let take = amount.min(self.len());
            for i in 0..take {
                let j = usize::sample_uniform(rng, i, self.len(), false);
                self.swap(i, j);
            }
            self.split_at_mut(take)
        }
    }
}

pub mod distributions {
    //! The distribution abstraction (`rand_distr` builds on this).

    use super::RngCore;

    /// A sampleable distribution over `T`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<f64>(), b.gen::<f64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let f = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&f));
            let i = rng.gen_range(0..13usize);
            assert!(i < 13);
            let s = rng.gen_range(-5..5i64);
            assert!((-5..5).contains(&s));
            let inc = rng.gen_range(1.0..=2.0);
            assert!((1.0..=2.0).contains(&inc));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice ordered");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = StdRng::seed_from_u64(7);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = items.as_slice().choose(&mut rng).unwrap();
            seen[x / 10 - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
        let empty: [i32; 0] = [];
        assert!(empty.as_slice().choose(&mut rng).is_none());
    }
}
