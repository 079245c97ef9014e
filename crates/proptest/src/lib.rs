//! A self-contained, offline stand-in for the `proptest` crate.
//!
//! The workspace's property tests were written against the real
//! proptest API; this crate reimplements exactly the subset they use —
//! `proptest!`, integer/float range strategies, tuple strategies,
//! `collection::vec`, `any::<bool>()`, `prop_map`, and the
//! `prop_assert*`/`prop_assume!` macros — on top of a seeded SplitMix64
//! generator, so `cargo test` needs no network access.
//!
//! Semantics: each property runs `PROPTEST_CASES` (default 64) random
//! cases with seeds derived deterministically from the test name, so
//! failures are reproducible. There is no shrinking; the failure report
//! includes the case number and seed instead.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` (does not count as a run).
    Reject,
    /// The case failed an assertion, with this message.
    Fail(String),
}

impl TestCaseError {
    /// Constructs a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// The seeded generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw output (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through a function (proptest's `prop_map`).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Types with a canonical "any value" strategy (only what the workspace
/// needs).
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Always produces a clone of the given value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// A length distribution for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_incl: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_incl: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_incl: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_incl: n }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_incl - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The case-loop driver used by the expansion of [`proptest!`].
pub mod test_runner {
    use super::{TestCaseError, TestRng};

    fn fnv1a(s: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    /// Number of cases to run per property (`PROPTEST_CASES`, default 64).
    pub fn cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Runs `body` for the configured number of cases with per-case
    /// deterministic seeds. Panics on the first failing case.
    pub fn run<F>(name: &str, mut body: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let base = fnv1a(name);
        let want = cases();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut case = 0u64;
        while accepted < want {
            let seed = base.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = TestRng::seed_from_u64(seed);
            match body(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject) => {
                    rejected += 1;
                    assert!(
                        rejected <= want * 16,
                        "property {name}: too many prop_assume! rejections \
                         ({rejected} rejects for {accepted} accepted cases)"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("property {name} failed at case #{case} (seed {seed:#x}): {msg}")
                }
            }
            case += 1;
        }
    }
}

/// Declares property tests: `proptest! { #[test] fn f(x in strat) { … } }`.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                    (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    })()
                });
            }
        )*
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Rejects the current case (retried with a fresh one) unless the
/// condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Everything the workspace's tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Any, Arbitrary, Just, Map, Strategy, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u8..10, y in -5i64..5, f in 0.0f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(0u32..100, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn tuples_and_map(pair in (0u8..2, 0i64..3).prop_map(|(a, b)| (a as i64) + b) ) {
            prop_assert!((0..4).contains(&pair));
        }

        #[test]
        fn assume_rejects_and_retries(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn bools_take_both_values(bits in collection::vec(any::<bool>(), 64..65)) {
            prop_assert!(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_info() {
        crate::test_runner::run("always_fails", |_rng| {
            Err(crate::TestCaseError::fail("boom"))
        });
    }

    #[test]
    fn runs_are_deterministic() {
        let collect = || {
            let mut out = Vec::new();
            crate::test_runner::run("det", |rng| {
                out.push(rng.next_u64());
                Ok(())
            });
            out
        };
        assert_eq!(collect(), collect());
    }
}
