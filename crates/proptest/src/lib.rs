//! Vendored minimal property-testing shim.
//!
//! The build environment for this repository has no network access, so
//! the real `proptest` crate cannot be fetched. This crate is a small,
//! API-compatible stand-in covering exactly the surface the workspace's
//! tests use: the [`proptest!`] macro, `prop_assert*` macros, `any`,
//! range/tuple/collection strategies, `prop_map`, `sample::select`, and
//! [`test_runner::ProptestConfig`].
//!
//! Semantics: each `proptest!` test runs `cases` deterministic random
//! cases (seeded from the test's name, so runs are reproducible and
//! independent across tests). There is no shrinking — a failing case
//! panics with the ordinary assertion message; re-running reproduces it
//! bit-exactly.

/// Deterministic case generation plumbing.
pub mod test_runner {
    /// Per-test configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// The per-case random source (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A deterministic stream for case `case` of test `name`.
        #[must_use]
        pub fn for_case(name: &str, case: u32) -> TestRng {
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut h = OFFSET;
            for b in name.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(PRIME);
            }
            TestRng {
                state: h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)` (`bound` > 0).
        pub fn below(&mut self, bound: u64) -> u64 {
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }
}

/// Strategies: composable random-value generators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of test-case values.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
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

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i128 - self.start as i128).max(1) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    // A span of 2^64 (the full u64/i64 range) takes the raw draw.
                    let off = match u64::try_from((hi - lo + 1).max(1)) {
                        Ok(span) => rng.below(span),
                        Err(_) => rng.next_u64(),
                    };
                    (lo + off as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let unit = rng.below(1 << 53) as f64 / (1u64 << 53) as f64;
            self.start + (self.end - self.start) * unit
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            // 2^53 + 1 lattice points so both endpoints are reachable.
            let unit = rng.below((1 << 53) + 1) as f64 / (1u64 << 53) as f64;
            self.start() + (self.end() - self.start()) * unit
        }
    }

    /// A weighted union of same-valued strategies (see [`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Builds the union; weights are relative selection frequencies.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty or all weights are zero.
        #[must_use]
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Union<T> {
            let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! requires a positive total weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < u64::from(*w) {
                    return s.generate(rng);
                }
                pick -= u64::from(*w);
            }
            unreachable!("weights sum to total")
        }
    }

    /// Type-erases a strategy (the [`crate::prop_oneof!`] arm adapter).
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
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
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        /// Draws an arbitrary value of the type.
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

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct AnyStrategy<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy producing any value of `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy {
            _marker: std::marker::PhantomData,
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end.saturating_sub(self.size.start)).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` strategy with lengths drawn from `size`.
    #[must_use]
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Fixed-size array strategies.
pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    macro_rules! impl_uniform {
        ($fname:ident, $n:expr, $sname:ident) => {
            /// The strategy returned by the matching `uniformN` function.
            #[derive(Debug, Clone)]
            pub struct $sname<S> {
                element: S,
            }

            impl<S: Strategy> Strategy for $sname<S> {
                type Value = [S::Value; $n];
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    std::array::from_fn(|_| self.element.generate(rng))
                }
            }

            /// An array strategy drawing every element from `element`.
            #[must_use]
            pub fn $fname<S: Strategy>(element: S) -> $sname<S> {
                $sname { element }
            }
        };
    }
    impl_uniform!(uniform4, 4, Uniform4);
    impl_uniform!(uniform8, 8, Uniform8);
    impl_uniform!(uniform16, 16, Uniform16);
}

/// Sampling strategies.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }

    /// Picks uniformly from `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    #[must_use]
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() requires options");
        Select { options }
    }
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Path-style access (`prop::sample::select`).
    pub mod prop {
        pub use crate::{array, collection, sample};
    }
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Picks among strategies, optionally weighted (`w => strategy`). All
/// arms must generate the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $( $weight:literal => $strat:expr ),+ $(,)? ) => {
        $crate::strategy::Union::new(vec![
            $( ($weight, $crate::strategy::boxed($strat)) ),+
        ])
    };
    ( $( $strat:expr ),+ $(,)? ) => {
        $crate::strategy::Union::new(vec![
            $( (1u32, $crate::strategy::boxed($strat)) ),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), __case);
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u16..9, y in 0usize..4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn composed_strategies_work(
            v in crate::collection::vec((0u8..5, any::<bool>()), 1..6),
            words in crate::array::uniform8(any::<u64>()),
            pick in prop::sample::select(vec![4usize, 8, 32]),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|(a, _)| *a < 5));
            prop_assert_eq!(words.len(), 8);
            prop_assert!([4, 8, 32].contains(&pick));
        }

        #[test]
        fn prop_map_applies(n in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert!(n % 2 == 0 && n < 20);
        }

        #[test]
        fn oneof_unions_arms(
            p in prop_oneof![
                4 => 0.0f64..=1.0,
                1 => prop::sample::select(vec![-5.0f64, 7.0]),
            ],
            q in prop_oneof![0u64..3, 10u64..13],
        ) {
            prop_assert!((0.0..=1.0).contains(&p) || p == -5.0 || p == 7.0);
            prop_assert!(q < 3 || (10..13).contains(&q));
        }

        #[test]
        fn inclusive_f64_range_stays_in_bounds(x in -2.0f64..=3.0) {
            prop_assert!((-2.0..=3.0).contains(&x));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::test_runner::TestRng::for_case("t", 3);
        let mut b = crate::test_runner::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
