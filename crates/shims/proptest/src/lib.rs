//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API the workspace's tests use:
//! the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! [`Strategy`] for numeric ranges, tuples, and `collection::vec`, plus
//! `prop_flat_map`/`prop_map` combinators and the `prop_assert*` macros.
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics
//! with the generated inputs in the message (each strategy value is
//! `Debug`), which is enough to reproduce — generation is deterministic
//! per test name.

#![deny(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::ops::Range;

/// Test-runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the (large) suite fast
        // while still exercising each property broadly.
        Self { cases: 64 }
    }
}

/// The deterministic generator driving a property test.
pub type TestRng = StdRng;

/// Derives a per-test seed from the test's name (FNV-1a).
pub fn rng_for(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// A generator of random values for one property-test input.
pub trait Strategy {
    /// The generated type.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Derives a new strategy from each generated value (dependent
    /// generation, e.g. paired vectors of equal length).
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }

    /// Maps generated values through a function.
    fn prop_map<T: std::fmt::Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let seed = self.base.generate(rng);
        (self.f)(seed).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: std::fmt::Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.base.generate(rng))
    }
}

impl<T> Strategy for Range<T>
where
    T: SampleUniform + std::fmt::Debug,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Length specifications accepted by [`vec`].
    pub trait IntoLen {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLen for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLen for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for vectors of `element` values with length drawn from
    /// `len` (a fixed `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy, L: IntoLen>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// See [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoLen> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The usual imports: `use proptest::prelude::*;`.

    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestCaseError};
    pub use rand::Rng;
}

/// Explicit test-case failure, for bodies that `return Err(..)` instead
/// of asserting.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failed case with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        Self(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Asserts a property, reporting the failing expression on panic.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality of two expressions.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Asserts inequality of two expressions.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Declares property tests: each `fn` runs `cases` times over values
/// drawn from its binder strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    // The body runs inside a `Result` closure so tests can
                    // `return Err(TestCaseError::fail(..))` as upstream
                    // proptest allows; assertion panics propagate as-is.
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("property failed on case {case}: {e}");
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Strategy;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = crate::rng_for("ranges_generate_in_bounds");
        for _ in 0..1000 {
            let f = (-2.0f64..3.0).generate(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let u = (1usize..9).generate(&mut rng);
            assert!((1..9).contains(&u));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let mut rng = crate::rng_for("vec_strategy_respects_length_range");
        let s = crate::collection::vec(0.0f64..1.0, 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    #[test]
    fn flat_map_supports_dependent_generation() {
        let mut rng = crate::rng_for("flat_map_supports_dependent_generation");
        let pair = (1usize..10).prop_flat_map(|n| {
            (
                crate::collection::vec(0.0f64..1.0, n),
                crate::collection::vec(0.0f64..1.0, n),
            )
        });
        for _ in 0..50 {
            let (a, b) = pair.generate(&mut rng);
            assert_eq!(a.len(), b.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_with_config_runs(x in 0.0f64..1.0, n in 1usize..4) {
            prop_assert!(x >= 0.0 && x < 1.0);
            prop_assert!(n >= 1 && n < 4);
        }
    }

    proptest! {
        #[test]
        fn macro_default_config_runs(x in -5i64..5) {
            prop_assert!((-5..5).contains(&x));
        }

        #[test]
        fn tuple_pattern_binders((a, b) in (0u64..10, 0u64..10)) {
            prop_assert!(a < 10 && b < 10);
        }
    }
}
