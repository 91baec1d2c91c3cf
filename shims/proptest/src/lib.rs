//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset the workspace's property tests use: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, range and tuple
//! strategies, `collection::vec`, [`ProptestConfig`] and the
//! `prop_assert*` macros.
//!
//! Differences from upstream: cases are generated from a fixed seed
//! sequence (fully deterministic, no `proptest-regressions` persistence)
//! and failing cases are **not shrunk** — the failure message reports the
//! case number and generated inputs instead.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The RNG handed to strategies; deterministic per (test, case).
pub type TestRng = StdRng;

/// Builds the RNG for one case of one test.
pub fn case_rng(test_name: &str, case: u64) -> TestRng {
    // FNV-1a over the test name keeps seeds distinct across tests.
    let mut h = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E3779B97F4A7C15))
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Maps generated values to a dependent strategy and draws from it.
    fn prop_flat_map<U, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        U: Strategy,
        F: Fn(Self::Value) -> U,
    {
        FlatMap { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// The strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
    type Value = U::Value;
    fn generate(&self, rng: &mut TestRng) -> U::Value {
        let mid = self.inner.generate(rng);
        (self.f)(mid).generate(rng)
    }
}

/// One boxed arm of a [`Union`].
pub type UnionArm<T> = Box<dyn Fn(&mut TestRng) -> T>;

/// A uniform choice between boxed strategies of one value type — the
/// strategy behind [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<UnionArm<T>>,
}

impl<T> Union<T> {
    /// A union over already-boxed arms (must be non-empty).
    pub fn new(arms: Vec<UnionArm<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }

    /// Boxes one strategy as a union arm.
    pub fn arm<S>(s: S) -> UnionArm<T>
    where
        S: Strategy<Value = T> + 'static,
    {
        Box::new(move |rng| s.generate(rng))
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    #[expect(clippy::indexing_slicing, reason = "`i` is drawn from `0..arms.len()`")]
    fn generate(&self, rng: &mut TestRng) -> T {
        use rand::Rng;
        let i = rng.gen_range(0..self.arms.len());
        (self.arms[i])(rng)
    }
}

/// Uniformly picks one of the given strategies per generated value.
/// (The real proptest supports weighted arms; the shim draws uniformly.)
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Union::arm($s)),+])
    };
}

/// A strategy that always yields clones of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($t:ty) => {
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    };
}

range_strategy!(usize);
range_strategy!(u64);
range_strategy!(u32);
range_strategy!(i32);
range_strategy!(f32);
range_strategy!(f64);

macro_rules! range_inclusive_strategy {
    ($t:ty) => {
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    };
}

range_inclusive_strategy!(usize);
range_inclusive_strategy!(u64);
range_inclusive_strategy!(u32);
range_inclusive_strategy!(i32);

macro_rules! tuple_strategy {
    ($($s:ident / $i:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / 0);
tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Lengths acceptable to [`vec()`]: an exact `usize` or a `Range<usize>`.
    pub trait IntoLenRange {
        /// Lower (inclusive) and upper (exclusive) length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoLenRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoLenRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `len`.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S> {
        let (lo, hi) = len.bounds();
        assert!(lo < hi, "empty length range");
        VecStrategy { element, lo, hi }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            use rand::Rng;
            let n = rng.gen_range(self.lo..self.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual wildcard import surface.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, ProptestConfig,
        Strategy, Union,
    };
}

/// Asserts a condition inside a `proptest!` body; on failure the current
/// case is reported (not shrunk).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            // A tuple of strategies is itself a strategy; generating the
            // whole tuple at once lets the arguments be arbitrary patterns.
            let __strat = ($($strategy,)+);
            for __case in 0..u64::from(__config.cases) {
                let mut __rng = $crate::case_rng(stringify!($name), __case);
                let ($($arg,)+) = $crate::Strategy::generate(&__strat, &mut __rng);
                let __result = (|| -> ::std::result::Result<(), String> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(msg) = __result {
                    panic!(
                        "proptest case {}/{} of `{}` failed:\n{}",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                        msg
                    );
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_vec() -> impl Strategy<Value = Vec<u32>> {
        crate::collection::vec(0u32..100, 1..10)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..17, y in -5.0f32..5.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5.0..5.0).contains(&y));
        }

        #[test]
        fn vec_lengths_and_elements(v in small_vec()) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn map_and_tuples((a, b) in (0u32..10, 10u32..20).prop_map(|(x, y)| (y, x))) {
            prop_assert!(a >= 10, "mapped tuple swapped: {} {}", a, b);
            prop_assert_eq!(a / 10, 1);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn failing_case_panics_with_case_number() {
        let caught = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(4))]
                fn always_fails(x in 0u32..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let msg = *caught
            .expect_err("must fail")
            .downcast::<String>()
            .expect("string panic");
        assert!(msg.contains("case 1/4"), "got: {msg}");
    }
}
