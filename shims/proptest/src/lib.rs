//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the API subset its property tests use: the [`proptest!`]
//! macro, [`strategy::Strategy`] with [`strategy::Strategy::prop_map`],
//! [`arbitrary::any`], integer/float range strategies, tuple strategies,
//! and `prop_assert*` macros.
//!
//! Semantics: each test runs `ProptestConfig::cases` times over inputs
//! drawn from a deterministic per-case RNG (seeded from the case index),
//! so failures reproduce exactly across runs. There is **no shrinking**
//! — a failing case reports the raw sampled values via the panic message
//! of the underlying `assert!`.

pub mod test_runner {
    //! Runner configuration and the deterministic test RNG.

    /// Mirror of `proptest::test_runner::Config` (the subset used).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each test executes.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Mirror of `proptest::test_runner::Config::with_cases`.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic per-case RNG handed to strategies.
    pub struct TestRng(pub rand::rngs::StdRng);

    impl TestRng {
        /// RNG for case number `case` — a fixed base seed mixed with the
        /// case index, so every run samples the same sequence.
        pub fn for_case(case: u64) -> Self {
            use rand::SeedableRng;
            TestRng(rand::rngs::StdRng::seed_from_u64(
                0x5eed_cafe_0000_0000 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Always produces a clone of the given value (mirror of
    /// `proptest::strategy::Just`).
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl<T> Strategy for std::ops::Range<T>
    where
        T: rand::SampleUniform,
    {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.0.gen_range(self.start..self.end)
        }
    }

    impl<T> Strategy for std::ops::RangeInclusive<T>
    where
        T: rand::SampleUniform,
    {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.0.gen_range(*self.start()..=*self.end())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A / 0);
    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::{Rng, RngCore};

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draw one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.0.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.0.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Finite values only: arbitrary magnitudes in ±1e9.
            rng.0.gen_range(-1.0e9..1.0e9)
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// The canonical strategy for `T` (mirror of `proptest::prelude::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Define property tests: each `fn` runs `cases` times over sampled
/// inputs. See the crate docs for the differences from real proptest.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block
      )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(__case as u64);
                    $( let $pat =
                        $crate::strategy::Strategy::sample(&($strat), &mut __rng); )*
                    $body
                }
            }
        )*
    };
}

/// Assertion inside a property test (panics on failure, no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
// The struct-update config form is kept on purpose: it pins the
// public `ProptestConfig { cases, ..default() }` syntax real proptest
// users write, even though the shim's config has no other fields.
#[allow(clippy::needless_update)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, u64)> {
        (1usize..10, any::<u64>()).prop_map(|(a, b)| (a * 2, b))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Ranges honor their bounds.
        #[test]
        fn ranges_in_bounds(n in 3usize..17, x in -4i64..4, f in 0.5f64..2.0) {
            prop_assert!((3..17).contains(&n));
            prop_assert!((-4..4).contains(&x));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn mapped_strategies_apply((a, _b) in arb_pair(), flag in any::<bool>()) {
            prop_assert_eq!(a % 2, 0);
            prop_assert_eq!((flag as u8) & 1, flag as u8);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let s = 0usize..1000;
        let a: Vec<usize> = (0..20)
            .map(|c| s.sample(&mut crate::test_runner::TestRng::for_case(c)))
            .collect();
        let b: Vec<usize> = (0..20)
            .map(|c| s.sample(&mut crate::test_runner::TestRng::for_case(c)))
            .collect();
        assert_eq!(a, b);
    }
}
