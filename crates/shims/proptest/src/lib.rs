//! Offline shim for `proptest`: the strategy/`proptest!` subset the
//! workspace's property tests use.
//!
//! Differences from upstream, by design:
//! * cases are generated from a deterministic per-(test, case) seed — no
//!   persistence files, no environment configuration;
//! * no shrinking — a failing case panics with the generated inputs
//!   already bound, and determinism makes the failure reproducible;
//! * `prop_assert*` are plain `assert*` wrappers.

use std::marker::PhantomData;
use std::rc::Rc;

/// Deterministic RNG driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed directly.
    pub fn seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Derive a seed from the test name and case index (FNV-1a over the
    /// name, mixed with the case number).
    pub fn from_name_and_case(name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng::seed(h ^ case.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling bound");
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Run-count configuration, settable per-block via
/// `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, or `PROPTEST_CASES` when it is set to a number (as
    /// upstream proptest reads it). Upstream defaults to 256; 64 keeps the
    /// heavier simulation properties fast while still exploring a
    /// meaningful space.
    fn default() -> Self {
        ProptestConfig {
            cases: default_cases(std::env::var("PROPTEST_CASES").ok().as_deref()),
        }
    }
}

/// Cases per property for a `PROPTEST_CASES` value: the value when it is
/// a number, 64 otherwise.
fn default_cases(var: Option<&str>) -> u32 {
    var.and_then(|v| v.trim().parse().ok()).unwrap_or(64)
}

/// A generator of values of type `Self::Value`.
pub trait Strategy: Clone {
    /// Generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-process generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> O + Clone,
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O + Clone,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always yields a clone of the given value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---- numeric range strategies ----

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.below((hi - lo) as u64 + 1) as $t
            }
        }
    )*};
}
int_strategy!(usize, u8, u16, u32);

macro_rules! signed_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.below(span.saturating_add(1)) as i128) as $t
            }
        }
    )*};
}
signed_strategy!(i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.unit_f64() as $t * (self.end - self.start)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + rng.unit_f64() as $t * (hi - lo)
            }
        }
    )*};
}
float_strategy!(f32, f64);

// `0..8u64` style u64 ranges.
impl Strategy for std::ops::Range<u64> {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below(self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<u64> {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        if lo == 0 && hi == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.below(hi - lo + 1)
    }
}

// ---- tuple strategies ----

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
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

// ---- any::<T>() ----

/// Types with a full-range default strategy.
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite values spanning a wide magnitude range.
        (rng.unit_f64() as f32 - 0.5) * 2e6
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.unit_f64() - 0.5) * 2e12
    }
}

/// Strategy produced by [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T> Clone for AnyStrategy<T> {
    fn clone(&self) -> Self {
        AnyStrategy(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The default full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

// ---- prop_oneof! support ----

/// Uniform choice between same-typed strategies (see [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<Rc<dyn Fn(&mut TestRng) -> V>>,
}

impl<V> Union<V> {
    /// Build from sampler closures.
    pub fn new(arms: Vec<Rc<dyn Fn(&mut TestRng) -> V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.arms.len() as u64) as usize;
        (self.arms[idx])(rng)
    }
}

/// Uniformly pick one of several strategies per case.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        $crate::Union::new(::std::vec![
            $({
                let __s = $arm;
                ::std::rc::Rc::new(move |__rng: &mut $crate::TestRng| {
                    $crate::Strategy::sample(&__s, __rng)
                }) as ::std::rc::Rc<dyn Fn(&mut $crate::TestRng) -> _>
            }),+
        ])
    }};
}

// ---- collections ----

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec`]: a fixed size or a range.
    #[derive(Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generate vectors of `element` values with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Upstream-style `prop::` namespace (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestRng,
    };
}

/// Property assertion (plain `assert!` under the hood).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { ::std::assert!($($tt)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { ::std::assert_eq!($($tt)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { ::std::assert_ne!($($tt)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; the config expression is bound
/// at repetition depth zero so it can be repeated per test fn.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases as u64 {
                    let mut __rng =
                        $crate::TestRng::from_name_and_case(stringify!($name), __case);
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn proptest_cases_sets_the_default_case_count() {
        assert_eq!(super::default_cases(None), 64);
        assert_eq!(super::default_cases(Some("2048")), 2048);
        assert_eq!(super::default_cases(Some(" 7\n")), 7);
        assert_eq!(super::default_cases(Some("many")), 64);
    }

    #[test]
    fn ranges_and_vec_respect_bounds() {
        let mut rng = TestRng::seed(7);
        let s = collection::vec(0usize..5, 2..=4);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((2..=4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn oneof_covers_arms() {
        let mut rng = TestRng::seed(8);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro binds args and runs the body.
        #[test]
        fn macro_generates_cases(a in 0usize..10, b in collection::vec(0u8..=255, 0..4)) {
            prop_assert!(a < 10);
            prop_assert!(b.len() < 4);
        }

        #[test]
        fn map_and_tuple(pair in (0u32..4, 1.0f64..2.0).prop_map(|(a, b)| (a * 2, b))) {
            prop_assert!(pair.0 % 2 == 0);
            prop_assert!((1.0..2.0).contains(&pair.1));
        }
    }
}
