//! Minimal property-testing shim with the `proptest` API surface this
//! workspace uses.
//!
//! The build environment has no registry access, so the real `proptest`
//! crate cannot be fetched. This shim keeps the test sources unchanged by
//! providing the same names:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(...)]` support),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * numeric range strategies (`0.0f64..=1.0`, `0u64..100`, tuples),
//! * [`collection::vec`] and [`prelude::any`],
//! * [`test_runner::ProptestConfig`].
//!
//! Unlike the real crate there is no shrinking: a failing case panics with
//! the generated inputs' debug representation, which together with the
//! deterministic per-test seed is enough to reproduce and fix failures.
//! Case generation is fully deterministic: the RNG seed is derived from
//! the test's module path, name, and case index, so CI and local runs see
//! identical inputs.

/// Deterministic generator and configuration for test cases.
pub mod test_runner {
    /// Run configuration: how many cases each property executes.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// SplitMix64-based deterministic test RNG.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator for one (test, case) pair; the stream
        /// depends only on the pair, never on execution order.
        #[must_use]
        pub fn deterministic(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in test_name.as_bytes() {
                h ^= u64::from(*byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            Self { state: h }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// Something that can produce a random value of its output type.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + (self.end - self.start) * rng.next_f64()
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            // Include the upper endpoint by widening by one ULP's worth of
            // the unit draw: u == 1.0 is approximated by u in [1-2^-53, 1).
            let u = rng.next_f64();
            let v = self.start() + (self.end() - self.start()) * u / (1.0 - f64::EPSILON / 2.0);
            v.clamp(*self.start(), *self.end())
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            self.start + (self.end - self.start) * rng.next_f64() as f32
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as i128) - (self.start as i128);
                    let off = (rng.next_u64() as i128).rem_euclid(span);
                    (self.start as i128 + off) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty integer range strategy");
                    let span = (*self.end() as i128) - (*self.start() as i128) + 1;
                    let off = (rng.next_u64() as i128).rem_euclid(span);
                    (*self.start() as i128 + off) as $t
                }
            }
        )*};
    }

    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
        type Value = (A::Value, B::Value, C::Value, D::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (
                self.0.sample(rng),
                self.1.sample(rng),
                self.2.sample(rng),
                self.3.sample(rng),
            )
        }
    }

    /// A constant strategy: always yields a clone of its value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical "any value" strategy (`any::<T>()`).
    pub trait Arbitrary {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    /// Strategy form of [`Arbitrary`], returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` (`any::<bool>()`, …).
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`]: `lo..hi` or `lo..=hi`.
    pub trait SizeBounds {
        /// `(min, max)` inclusive length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeBounds for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec length range");
            (self.start, self.end - 1)
        }
    }

    impl SizeBounds for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl SizeBounds for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    /// Strategy generating vectors of `element` values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.max - self.min + 1;
            let len = self.min + (rng.next_u64() % span as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A vector strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeBounds) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// item becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]: expands one `fn` item at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(
            x in 1.0f64..5.0,
            y in 0u8..3,
            z in 2usize..=4,
        ) {
            prop_assert!((1.0..5.0).contains(&x));
            prop_assert!(y < 3);
            prop_assert!((2..=4).contains(&z));
        }

        #[test]
        fn vectors_respect_length_bounds(
            v in collection::vec((0u32..9, 0.0f64..=1.0), 1..6)
        ) {
            prop_assert!(!v.is_empty() && v.len() <= 5);
            for (n, f) in v {
                prop_assert!(n < 9);
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn deterministic_rng_repeats() {
        let mut a = crate::test_runner::TestRng::deterministic("t", 3);
        let mut b = crate::test_runner::TestRng::deterministic("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::deterministic("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn bool_any_produces_both_values() {
        let mut rng = crate::test_runner::TestRng::deterministic("bools", 0);
        let draws: Vec<bool> = (0..64).map(|_| bool::arbitrary(&mut rng)).collect();
        assert!(draws.iter().any(|&b| b));
        assert!(draws.iter().any(|&b| !b));
    }
}
