//! Offline API-subset shim of the
//! [`proptest`](https://crates.io/crates/proptest) crate.
//!
//! Supports the subset the Grid-Federation workspace uses: the [`proptest!`]
//! macro (with optional `#![proptest_config(..)]` header), [`Strategy`] with
//! [`Strategy::prop_map`], range and tuple strategies, [`any`],
//! [`collection::vec`], [`bool::ANY`] and [`ProptestConfig::with_cases`].
//!
//! Differences from the real crate:
//!
//! * **No shrinking.** A failing case panics with the generated inputs'
//!   `Debug` representation (when available via the assertion message) and
//!   the case's seed, but is not minimised.
//! * `prop_assert*` macros panic instead of returning `TestCaseError`.
//! * Case generation is deterministic: case `i` of a test always sees the
//!   same inputs across runs (seeded from the case index), so failures are
//!   trivially reproducible.
//! * The default case count is **64** (CI-friendly) and can be overridden
//!   with the `PROPTEST_CASES` environment variable.

#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running exactly `cases` cases (still capped by the
    /// `PROPTEST_CASES` environment variable if that is set lower).
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: cases.min(env_cases().unwrap_or(u32::MAX)),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(64),
        }
    }
}

fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

/// The random source handed to strategies; wraps the shim `StdRng`.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Deterministic generator for case number `case` of a property test.
    #[must_use]
    pub fn for_case(case: u64) -> Self {
        TestRng {
            inner: StdRng::seed_from_u64(0xD1F7_57A7 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    fn next_u64(&mut self) -> u64 {
        use rand::RngCore as _;
        self.inner.next_u64()
    }
}

/// A generator of test-case values, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.new_value(rng))
    }
}

/// Strategy that always yields a clone of the given value, mirroring
/// `proptest::strategy::Just`.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = if span <= 1 { 0 } else { u128::from(rng.next_u64()) % span };
                self.start.wrapping_add(draw as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = if span <= 1 { 0 } else { u128::from(rng.next_u64()) % span };
                lo.wrapping_add(draw as $t)
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let u = rng.unit_f64() as $t;
                let v = self.start + (self.end - self.start) * u;
                if v >= self.end { self.start } else { v }
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let u = rng.unit_f64() as $t;
                lo + (hi - lo) * u
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11)
}

/// Types with a canonical "anything goes" strategy, mirroring
/// `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, moderately sized values; the real crate generates specials
        // too, but the workspace's properties all assume finite inputs.
        (rng.unit_f64() - 0.5) * 2e9
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The unconstrained strategy for `T`, mirroring `proptest::prelude::any`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: core::marker::PhantomData,
    }
}

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy yielding `true` or `false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            super::Arbitrary::arbitrary(rng)
        }
    }

    /// The uniform boolean strategy (`proptest::bool::ANY`).
    pub const ANY: BoolAny = BoolAny;
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Acceptable size arguments for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: r.end() + 1,
            }
        }
    }

    /// Strategy generating `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = (self.size.lo..self.size.hi_exclusive).new_value(rng);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Commonly used items, mirroring `proptest::prelude`.
///
/// (Deliberately does not re-export the `bool` module so the primitive type
/// is never shadowed; use the `proptest::bool::ANY` path as with the real
/// crate.)
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Asserts a condition inside a [`proptest!`] body (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a [`proptest!`] body (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a [`proptest!`] body (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Defines property tests, mirroring `proptest::proptest!`.
///
/// Supports the standard form: an optional `#![proptest_config(expr)]`
/// header followed by `#[test] fn name(pat in strategy, ...) { body }`
/// items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategies = ($($strat,)+);
            for case in 0..u64::from(config.cases) {
                let mut rng = $crate::TestRng::for_case(case);
                let ($($pat,)+) = $crate::Strategy::new_value(&strategies, &mut rng);
                let run = ::std::panic::AssertUnwindSafe(|| { $body });
                if let Err(panic) = ::std::panic::catch_unwind(run) {
                    eprintln!(
                        "proptest shim: case {}/{} of `{}` failed (re-run is deterministic)",
                        case + 1,
                        config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_case(0);
        for _ in 0..1_000 {
            let v = Strategy::new_value(&(3u32..9), &mut rng);
            assert!((3..9).contains(&v));
            let f = Strategy::new_value(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let s = (0u64..1_000_000, 0.0f64..1.0);
        let a: Vec<_> = (0..10)
            .map(|i| Strategy::new_value(&s, &mut crate::TestRng::for_case(i)))
            .collect();
        let b: Vec<_> = (0..10)
            .map(|i| Strategy::new_value(&s, &mut crate::TestRng::for_case(i)))
            .collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_with_config_works(x in 0u32..10, v in crate::collection::vec(0i32..5, 1..8)) {
            prop_assert!(x < 10);
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|e| (0..5).contains(e)));
        }
    }

    proptest! {
        #[test]
        fn macro_without_config_works(b in crate::bool::ANY, y in any::<u64>()) {
            let mapped = (0u32..4).prop_map(|v| v * 2);
            let mut rng = crate::TestRng::for_case(y % 97);
            let m = Strategy::new_value(&mapped, &mut rng);
            prop_assert!(m % 2 == 0 && m < 8);
            prop_assert_eq!(u64::from(b) <= 1, true);
            prop_assert_ne!(Just(3).0, 4);
        }
    }
}
