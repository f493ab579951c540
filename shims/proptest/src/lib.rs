//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest's API this workspace uses:
//! the `proptest!` / `prop_assert*` / `prop_assume!` / `prop_oneof!`
//! macros, the [`strategy::Strategy`] trait with `prop_map` and `boxed`,
//! `any::<T>()` for primitives, integer/float range strategies, a small
//! regex-subset string strategy (character classes + `{m,n}` repetition),
//! `prop::collection::{vec, btree_map}`, `prop::option::of`, and
//! `prop::sample::Index`.
//!
//! Differences from real proptest: no shrinking (a failing case reports
//! its case number and the run is fully deterministic, so it reproduces
//! exactly), and the case seed derives from the test name rather than a
//! persisted failure file. Set `PROPTEST_CASES` to override the per-test
//! case count.

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        #[expect(
            clippy::disallowed_methods,
            reason = "a test-run knob, as in the real crate; no simulated result reads it"
        )]
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case's inputs violated a `prop_assume!`; skipped, not failed.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Drives the cases of one `proptest!` test.
    pub struct TestRunner {
        rng: StdRng,
        cases: u32,
    }

    impl TestRunner {
        /// A runner whose random stream is a pure function of the test
        /// name, so every `cargo test` run sees identical cases.
        pub fn new_deterministic(config: &ProptestConfig, test_name: &str) -> Self {
            // FNV-1a over the test name picks the stream.
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRunner { rng: StdRng::seed_from_u64(hash), cases: config.cases }
        }

        pub fn cases(&self) -> u32 {
            self.cases
        }

        /// Draws one value from `strategy`.
        pub fn generate<S: crate::strategy::Strategy>(&mut self, strategy: &S) -> S::Value {
            strategy.new_value(&mut self.rng)
        }
    }
}

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A generator of random values of type `Value`.
    ///
    /// Unlike real proptest there is no value tree / shrinking; a
    /// strategy is just a deterministic function of the RNG state.
    pub trait Strategy {
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut StdRng) -> Self::Value;

        /// A strategy producing `f` applied to this strategy's values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, map: f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut StdRng) -> O {
            (self.map)(self.source.new_value(rng))
        }
    }

    // Object-safe core so strategies of one value type can be unified.
    trait DynStrategy<T> {
        fn dyn_new_value(&self, rng: &mut StdRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_new_value(&self, rng: &mut StdRng) -> S::Value {
            self.new_value(rng)
        }
    }

    /// A type-erased strategy; see [`Strategy::boxed`].
    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut StdRng) -> T {
            self.0.dyn_new_value(rng)
        }
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut StdRng) -> T {
            let pick = rng.gen_range(0..self.arms.len());
            self.arms[pick].new_value(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

    impl Strategy for ::std::ops::Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    /// String literals act as strategies over a regex subset: a sequence
    /// of literal characters and `[...]` classes (with ranges), each
    /// optionally followed by `{n}` or `{m,n}`.
    impl Strategy for &'static str {
        type Value = String;
        fn new_value(&self, rng: &mut StdRng) -> String {
            crate::string::generate_from_pattern(self, rng)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($name:ident . $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut StdRng) -> Self;
    }

    /// The canonical strategy for `T`; see [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// `any::<T>()` — every value of `T` equally likely.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut StdRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut StdRng) -> $t {
                    rng.gen()
                }
            }
        )*};
    }

    arbitrary_ints!(u8, u16, u32, u64, u128, i8, i16, i32, i64, bool);

    impl Arbitrary for usize {
        fn arbitrary_value(rng: &mut StdRng) -> usize {
            rng.gen::<u64>() as usize
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary_value(rng: &mut StdRng) -> [T; N] {
            std::array::from_fn(|_| T::arbitrary_value(rng))
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::BTreeMap;
    use std::ops::{Range, RangeInclusive};

    /// Accepted element counts for a generated collection.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.end > r.start, "empty collection size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.lo..=self.hi_inclusive)
        }
    }

    /// `Vec`s of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// `BTreeMap`s with `size.pick()` insertions (duplicate keys collapse,
    /// as with real proptest's map strategies under small key spaces).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size: size.into() }
    }

    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn new_value(&self, rng: &mut StdRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.size.pick(rng);
            let mut map = BTreeMap::new();
            for _ in 0..n {
                map.insert(self.key.new_value(rng), self.value.new_value(rng));
            }
            map
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// `Option`s of `inner` values: `None` one time in four.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.inner.new_value(rng))
            }
        }
    }
}

pub mod sample {
    use crate::arbitrary::Arbitrary;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A length-agnostic random index: draw one with `any::<Index>()`,
    /// then project it into any collection with [`Index::index`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// This index projected into a collection of length `len`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary_value(rng: &mut StdRng) -> Index {
            Index(rng.gen())
        }
    }
}

pub mod string {
    use rand::rngs::StdRng;
    use rand::Rng;

    enum Atom {
        Literal(char),
        Class(Vec<(char, char)>),
    }

    struct Piece {
        atom: Atom,
        min: usize,
        max: usize,
    }

    fn parse_class(chars: &[char], mut i: usize) -> (Vec<(char, char)>, usize) {
        let mut ranges = Vec::new();
        while i < chars.len() && chars[i] != ']' {
            let c = chars[i];
            if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                ranges.push((c, chars[i + 2]));
                i += 3;
            } else {
                ranges.push((c, c));
                i += 1;
            }
        }
        assert!(i < chars.len(), "unterminated [class] in string strategy");
        (ranges, i + 1)
    }

    fn parse_repeat(chars: &[char], mut i: usize) -> (usize, usize, usize) {
        // Called just past `{`; returns (min, max, next index past `}`).
        let mut first = String::new();
        while i < chars.len() && chars[i].is_ascii_digit() {
            first.push(chars[i]);
            i += 1;
        }
        let min: usize = first.parse().expect("bad {m,n} in string strategy");
        let max = if chars[i] == ',' {
            i += 1;
            let mut second = String::new();
            while i < chars.len() && chars[i].is_ascii_digit() {
                second.push(chars[i]);
                i += 1;
            }
            second.parse().expect("bad {m,n} in string strategy")
        } else {
            min
        };
        assert!(chars[i] == '}', "unterminated {{m,n}} in string strategy");
        (min, max, i + 1)
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pieces = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = if chars[i] == '[' {
                let (ranges, next) = parse_class(&chars, i + 1);
                i = next;
                Atom::Class(ranges)
            } else {
                let c = chars[i];
                i += 1;
                Atom::Literal(c)
            };
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let (lo, hi, next) = parse_repeat(&chars, i + 1);
                i = next;
                (lo, hi)
            } else {
                (1, 1)
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    /// Generates one string matching the regex-subset `pattern`.
    pub fn generate_from_pattern(pattern: &str, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let count = rng.gen_range(piece.min..=piece.max);
            for _ in 0..count {
                match &piece.atom {
                    Atom::Literal(c) => out.push(*c),
                    Atom::Class(ranges) => {
                        // Weight each range by its width for uniformity
                        // over the class's characters.
                        let total: u32 = ranges.iter().map(|(lo, hi)| *hi as u32 - *lo as u32 + 1).sum();
                        let mut pick = rng.gen_range(0..total);
                        for (lo, hi) in ranges {
                            let width = *hi as u32 - *lo as u32 + 1;
                            if pick < width {
                                out.push(char::from_u32(*lo as u32 + pick).unwrap());
                                break;
                            }
                            pick -= width;
                        }
                    }
                }
            }
        }
        out
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    /// Mirrors real proptest's `prelude::prop` module of strategy builders.
    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let mut runner = $crate::test_runner::TestRunner::new_deterministic(
                &config,
                concat!(module_path!(), "::", stringify!($name)),
            );
            $(let $arg = &$strategy;)+
            for case in 0..runner.cases() {
                $(let $arg = runner.generate($arg);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name), case + 1, runner.cases(), msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl!(($config) $($rest)*);
    };
}

/// Asserts within a `proptest!` body; failure fails the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `prop_assert!` specialised to equality, printing both operands.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            l, r, format!($($fmt)*)
        );
    }};
}

/// `prop_assert!` specialised to inequality, printing both operands.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`",
            l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            l, r, format!($($fmt)*)
        );
    }};
}

/// Skips the current case when its inputs are uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot,
        Line(u8),
    }

    fn arb_shape() -> impl Strategy<Value = Shape> {
        prop_oneof![
            Just(Shape::Dot),
            any::<u8>().prop_map(Shape::Line),
        ]
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..16, y in 0u16..=1000) {
            prop_assert!((3..16).contains(&x));
            prop_assert!(y <= 1000);
        }

        #[test]
        fn strings_match_pattern(s in "[a-z0-9]{1,8}", t in "[a-z][a-z0-9.]{0,12}") {
            prop_assert!(!s.is_empty() && s.len() <= 8);
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
            prop_assert!(t.chars().next().unwrap().is_ascii_lowercase());
            prop_assert!(t.len() <= 13);
        }

        #[test]
        fn collections_and_options(
            v in prop::collection::vec(any::<u8>(), 0..10),
            m in prop::collection::btree_map("[a-d]{1,6}", 0u32..10, 0..5),
            o in prop::option::of(1u32..4),
        ) {
            prop_assert!(v.len() < 10);
            prop_assert!(m.len() < 5);
            if let Some(x) = o {
                prop_assert!((1..4).contains(&x));
            }
        }

        #[test]
        fn oneof_index_and_assume(
            shape in arb_shape(),
            pick in any::<prop::sample::Index>(),
            n in 1usize..20,
        ) {
            prop_assume!(n != 13);
            prop_assert!(pick.index(n) < n);
            match shape {
                Shape::Dot => {}
                Shape::Line(_) => {}
            }
            prop_assert_ne!(n, 13);
            prop_assert_eq!(n, n);
        }
    }

    #[test]
    fn deterministic_across_runners() {
        let config = ProptestConfig::with_cases(5);
        let strat = prop::collection::vec(0u64..1000, 1..20);
        let mut a = crate::test_runner::TestRunner::new_deterministic(&config, "same");
        let mut b = crate::test_runner::TestRunner::new_deterministic(&config, "same");
        for _ in 0..5 {
            assert_eq!(a.generate(&strat), b.generate(&strat));
        }
    }
}
