//! Offline shim for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the `proptest!` macro (with an optional
//! `#![proptest_config(..)]` header), `Strategy` with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, `any::<T>()`,
//! `collection::vec`, and the `prop_assert*` / `prop_assume!` macros.
//!
//! Semantics differ from real proptest in one deliberate way: there is
//! no shrinking. A failing case panics with the assertion message; the
//! RNG is seeded deterministically from the test name (override with
//! `PROPTEST_SEED`), so failures reproduce exactly on re-run.

pub mod collection;
pub mod prelude;

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 stream used to generate test cases.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { strat: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { strat: self, f }
    }
}

pub struct Map<S, F> {
    strat: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strat.generate(rng))
    }
}

pub struct FlatMap<S, F> {
    strat: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.strat.generate(rng)).generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (*self.start() as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64_unit() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start() <= self.end(), "empty range strategy");
        self.start() + rng.next_f64_unit() * (self.end() - self.start())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Types producible by `any::<T>()`.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.next_f64_unit()
    }
}

pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Configuration for a `proptest!` block; constructed with functional
/// record update over `default()`, so all fields are public.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the property to pass.
    pub cases: u32,
    /// Abort if rejects (`prop_assume!` misses) exceed this count.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig {
            cases,
            max_global_rejects: 4096,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The generated case did not satisfy a `prop_assume!` precondition.
    Reject,
    /// The property failed with this message.
    Fail(String),
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives one property: counts passes and rejects, panics on failure.
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
    name: String,
    passed: u32,
    rejected: u32,
}

impl TestRunner {
    pub fn new(config: ProptestConfig, name: &str) -> Self {
        let seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x5EED_0000_0000_0000u64)
            ^ fnv1a64(name.as_bytes());
        TestRunner {
            config,
            rng: TestRng::new(seed),
            name: name.to_string(),
            passed: 0,
            rejected: 0,
        }
    }

    pub fn done(&self) -> bool {
        self.passed >= self.config.cases
    }

    pub fn rng(&mut self) -> &mut TestRng {
        &mut self.rng
    }

    pub fn record(&mut self, result: Result<(), TestCaseError>) {
        match result {
            Ok(()) => self.passed += 1,
            Err(TestCaseError::Reject) => {
                self.rejected += 1;
                if self.rejected > self.config.max_global_rejects {
                    panic!(
                        "[{}] too many rejected cases ({} rejects, {} of {} passed)",
                        self.name, self.rejected, self.passed, self.config.cases
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "[{}] property failed at case {}: {}",
                    self.name, self.passed, msg
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        // The caller's attributes carry the `#[test]`, as with the real
        // crate; adding another here would register every property twice.
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut runner = $crate::TestRunner::new(config, stringify!($name));
            while !runner.done() {
                let result: ::core::result::Result<(), $crate::TestCaseError> = {
                    $(let $pat = $crate::Strategy::generate(&($strat), runner.rng());)*
                    (move || -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::core::result::Result::Ok(())
                    })()
                };
                runner.record(result);
            }
        }
        $crate::__proptest_fns! { config = ($cfg); $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?} == {:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{}: `{:?} == {:?}` failed",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?} != {:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{}: `{:?} != {:?}` failed",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Ranges stay in bounds; assume and multi-arg parsing work.
        #[test]
        fn ranges_and_assume(x in 1u32..10, y in 0u64..100, f in 0.25f64..0.75) {
            prop_assume!(x != 3);
            prop_assert!((1..10).contains(&x));
            prop_assert!(y < 100);
            prop_assert!((0.25..0.75).contains(&f), "f out of range: {f}");
        }

        /// Tuple patterns and flat-mapped strategies.
        #[test]
        fn tuple_pattern((n, v) in (2u32..9).prop_flat_map(|n| {
            crate::collection::vec(0u32..n, 1..20).prop_map(move |v| (n, v))
        })) {
            prop_assert!(!v.is_empty());
            for x in &v {
                prop_assert!(*x < n);
            }
        }

        #[test]
        fn any_values(v in crate::collection::vec(crate::any::<u32>(), 1..8)) {
            prop_assert!((1..8).contains(&v.len()));
        }
    }

    #[test]
    fn determinism_same_name_same_stream() {
        let mut a = crate::TestRng::new(42);
        let mut b = crate::TestRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
