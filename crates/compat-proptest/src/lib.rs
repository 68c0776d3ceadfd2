//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API used by this workspace's
//! property tests: the [`proptest!`] macro (with `#![proptest_config(..)]`
//! and `pattern in strategy` arguments), range and tuple
//! [`Strategy`](strategy::Strategy)s with `prop_map`,
//! [`prop_assert!`]/[`prop_assert_eq!`], `ProptestConfig`, `TestCaseError`,
//! and `proptest::bool::ANY`.
//!
//! Cases are generated from a fixed seed, so a failing case reproduces
//! exactly on re-run. There is no shrinking: the failure report prints the
//! generated case index and the assertion message instead. Regression files
//! written by upstream proptest are ignored (their `cc` entries encode an
//! upstream-internal RNG state); known regressions are pinned as explicit
//! unit tests in this workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strategies: how to generate values of a type.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The type of the generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map {
                source: self,
                map: f,
            }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.generate(rng))
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.rng.gen_range(self.clone())
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.rng.gen_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy generating `true`/`false` uniformly.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Generates an arbitrary boolean.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.rng.gen::<bool>()
        }
    }
}

/// Runner configuration and failure types.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The RNG handed to strategies during generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        pub(crate) rng: StdRng,
    }

    impl TestRng {
        /// Deterministically seeded generator for one test case.
        pub fn for_case(case: u32) -> Self {
            // Distinct stream per case; fixed root seed for reproducibility.
            TestRng {
                rng: StdRng::seed_from_u64(
                    0x5EED_CAFE_F00D_0001u64.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9)),
                ),
            }
        }
    }

    /// Subset of proptest's run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A property-test failure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The property does not hold, with an explanation.
        Fail(String),
        /// The generated input should be discarded (unused here, kept for
        /// API parity).
        Reject(String),
    }

    impl TestCaseError {
        /// Construct a failure with a message.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Construct a rejection with a message.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
        }
    }

    /// Result type returned by generated property bodies.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Drive `body` over `cases` deterministic cases; panic on first failure.
    pub fn run_cases<F>(config: &ProptestConfig, property: &str, mut body: F)
    where
        F: FnMut(&mut TestRng) -> TestCaseResult,
    {
        for case in 0..config.cases {
            let mut rng = TestRng::for_case(case);
            match body(&mut rng) {
                Ok(()) => {}
                Err(TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(msg)) => {
                    panic!("property `{property}` failed at case {case}: {msg}");
                }
            }
        }
    }
}

/// Assert a boolean condition inside a property, returning a
/// `TestCaseError` (not panicking) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert equality inside a property, returning a `TestCaseError` on
/// failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{:?}` == `{:?}`",
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        $crate::prop_assert!(lhs == rhs, $($fmt)*);
    }};
}

/// Assert inequality inside a property, returning a `TestCaseError` on
/// failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        $crate::prop_assert!(lhs != rhs, "assertion failed: `{:?}` != `{:?}`", lhs, rhs);
    }};
}

/// Define property tests: each `fn name(pat in strategy, ..) { body }`
/// becomes a `#[test]` that runs the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(
            ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        );
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run_cases(&__config, stringify!($name), |__rng| {
                let ($($pat,)+) = (
                    $($crate::strategy::Strategy::generate(&($strat), __rng),)+
                );
                $body
                ::std::result::Result::Ok(())
            });
        }
    )*};
}

/// The glob-importable prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Generated values respect their strategies.
        #[test]
        fn ranges_and_tuples(
            (a, b) in (0usize..=10, 1.0f64..=2.0).prop_map(|(a, b)| (a, b * 2.0)),
            flag in crate::bool::ANY,
            k in 0u64..100,
        ) {
            prop_assert!(a <= 10);
            prop_assert!((2.0..=4.0).contains(&b), "b = {}", b);
            prop_assert!(k < 100);
            prop_assert_eq!(flag, flag);
        }
    }

    #[test]
    fn deterministic_generation() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = (0u64..1000, 0.0f64..1.0);
        let a = strat.generate(&mut TestRng::for_case(3));
        let b = strat.generate(&mut TestRng::for_case(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_index() {
        crate::test_runner::run_cases(
            &crate::test_runner::ProptestConfig::with_cases(5),
            "always_fails",
            |_| Err(TestCaseError::fail("nope")),
        );
    }
}
