//! Property-test case runner for the LiveNet reproduction.
//!
//! Keeps the `proptest!` surface the workspace's tests are written in and
//! runs it on the repo's one generator. Case `i` of the test at `path`
//! (package, module path and name) draws from
//! `DetRng::seed(0).fork(path).split(i)`: it depends on `(path, i)` alone, and
//! a case `prop_assume!` rejects uses up its index too. On the first failure,
//! a failed `prop_assert!` or any panic in the body, the runner re-draws the
//! case, prints its arguments and `replay: cargo test -p <package> -- <test>`,
//! which reproduces it. A passing case is never formatted. There is no
//! shrinking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

use livenet_types::DetRng;

/// Rejected cases one test tolerates before the runner gives up on it.
const MAX_REJECTS: u64 = 4096;

/// Why a case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the case; it does not count as run.
    Reject,
    /// A `prop_assert!` failed with this message.
    Fail(String),
}

/// Per-test configuration, set with `#![proptest_config(..)]`.
#[derive(Debug)]
pub struct ProptestConfig {
    /// Number of accepted cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running exactly `cases` accepted cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A generator of values for one test argument.
pub trait Strategy: Sized {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn draw(&self, rng: &mut DetRng) -> Self::Value;

    /// Map drawn values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map(self, f)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F>(S, F);

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn draw(&self, rng: &mut DetRng) -> O {
        (self.1)(self.0.draw(rng))
    }
}

/// Strategy for any value of `T` (see [`any`]).
pub struct Any<T>(PhantomData<T>);

/// Any value of `T`: every `bool`, `u8`, `u16`, `u32`, `u64` or `usize`
/// equally likely. A typed argument `name: T` draws from `any::<T>()`.
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn draw(&self, rng: &mut DetRng) -> bool {
        rng.u64() & 1 == 1
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn draw(&self, rng: &mut DetRng) -> $t {
                rng.u64() as $t
            }
        }
        impl Strategy for Range<$t> {
            type Value = $t;
            fn draw(&self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                (self.start..=self.end - 1).draw(rng)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn draw(&self, rng: &mut DetRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                // The high half of a 64 × (width ≤ 2^64) bit product.
                lo + ((u128::from(rng.u64()) * ((hi - lo) as u128 + 1)) >> 64) as $t
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn draw(&self, rng: &mut DetRng) -> f64 {
        rng.range_f64(self.start, self.end)
    }
}

macro_rules! tuple {
    ($(($($s:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn draw(&self, rng: &mut DetRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.draw(rng),)+)
            }
        }
    )*};
}
tuple! { (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F) }

/// Strategy returned by [`prop::collection::vec`].
pub struct VecOf<S>(S, Range<usize>);

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn draw(&self, rng: &mut DetRng) -> Vec<S::Value> {
        let len = self.1.draw(rng);
        (0..len).map(|_| self.0.draw(rng)).collect()
    }
}

/// Strategy returned by [`prop::option::of`].
pub struct OptionOf<S>(S);

impl<S: Strategy> Strategy for OptionOf<S> {
    type Value = Option<S::Value>;
    fn draw(&self, rng: &mut DetRng) -> Option<S::Value> {
        // `Some` three times out of four.
        (rng.range_u64(0, 4) != 0).then(|| self.0.draw(rng))
    }
}

/// The `prop::collection::vec` and `prop::option::of` paths.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        /// A `Vec` of `element`s whose length is drawn from `len`.
        pub fn vec<S>(element: S, len: std::ops::Range<usize>) -> crate::VecOf<S> {
            crate::VecOf(element, len)
        }
    }

    /// `Option` strategies.
    pub mod option {
        /// `None` a quarter of the time, `Some` of `inner` otherwise.
        pub fn of<S>(inner: S) -> crate::OptionOf<S> {
            crate::OptionOf(inner)
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::{any, prop, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// The generator of case `i` of the test at `path`.
fn case_rng(path: &str, i: u64) -> DetRng {
    DetRng::seed(0).fork(path).split(i)
}

/// Run `config.cases` accepted cases of the property at `path`
/// (`<package>::<module path>::<test>`, as `proptest!` builds it): case `i`
/// is `test(draw(case_rng(path, i)))`. Panics on the first failing case
/// with its index, its arguments and the replay line.
pub fn run<V: Debug>(
    config: ProptestConfig,
    path: &str,
    draw: impl Fn(&mut DetRng) -> V,
    test: impl Fn(V) -> Result<(), TestCaseError>,
) {
    let mut passed = 0;
    for i in 0.. {
        if passed == config.cases {
            return;
        }
        assert!(
            i - u64::from(passed) <= MAX_REJECTS,
            "{path}: prop_assume! rejected more than {MAX_REJECTS} cases"
        );
        let msg = match catch_unwind(AssertUnwindSafe(|| test(draw(&mut case_rng(path, i))))) {
            Ok(Ok(())) => {
                passed += 1;
                continue;
            }
            Ok(Err(TestCaseError::Reject)) => continue,
            Ok(Err(TestCaseError::Fail(msg))) => msg,
            Err(panic) => match panic.downcast::<String>() {
                Ok(msg) => *msg,
                Err(panic) => panic.downcast_ref::<&str>().unwrap_or(&"panic").to_string(),
            },
        };
        let args = draw(&mut case_rng(path, i));
        let package = path.split("::").next().unwrap_or(path);
        let test = path.rsplit("::").next().unwrap_or(path);
        panic!(
            "{path}: case {i} failed: {msg}\n  args: {args:?}\n  replay: cargo test -p {package} -- {test}"
        );
    }
}

/// Assert inside a property test; a failure fails the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "{} at {}:{}", stringify!($cond), file!(), line!())
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property test; a failure fails the case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)+)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "`{left:?} == {right:?}` ({} at {}:{}){}",
            stringify!($left == $right),
            file!(),
            line!(),
            String::new() $(+ ": " + &format!($($fmt)+))?
        );
    }};
}

/// Reject the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Define property tests: an optional `#![proptest_config(expr)]` header,
/// then functions whose arguments are `name: Type` (drawn from
/// `any::<Type>()`) or `pattern in strategy`.
#[macro_export]
macro_rules! proptest {
    (@fns ($cfg:expr) $($(#[$meta:meta])* fn $name:ident ($($args:tt)*) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::proptest!(@args ($cfg, $name) [] ($($args)*) $body);
        }
    )*};
    // Turn each argument into a `{(pattern) (strategy)}` pair.
    (@args $ctx:tt [$($done:tt)*] ($arg:ident: $ty:ty $(, $($rest:tt)*)?) $body:block) => {
        $crate::proptest!(@args $ctx [$($done)* {($arg) ($crate::any::<$ty>())}] ($($($rest)*)?) $body)
    };
    (@args $ctx:tt [$($done:tt)*] ($pat:pat in $s:expr $(, $($rest:tt)*)?) $body:block) => {
        $crate::proptest!(@args $ctx [$($done)* {($pat) ($s)}] ($($($rest)*)?) $body)
    };
    (@args ($cfg:expr, $name:ident) [$({($pat:pat) ($s:expr)})*] () $body:block) => {
        $crate::run(
            $cfg,
            concat!(env!("CARGO_PKG_NAME"), "::", module_path!(), "::", stringify!($name)),
            |__rng| ($($crate::Strategy::draw(&$s, __rng),)*),
            |__values| {
                let ($($pat,)*) = __values;
                $body
                ::core::result::Result::Ok(())
            },
        )
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::ProptestConfig::default()) $($rest)*);
    };
}
