//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment for this workspace has no network access to a
//! registry, so the workspace vendors the subset of the proptest API its
//! tests actually use: the [`Strategy`](strategy::Strategy) trait with
//! `prop_map` / `prop_flat_map` / `prop_recursive`, [`prop_oneof!`],
//! [`Just`](strategy::Just), [`any`](arbitrary::any),
//! `prop::collection::vec`, the [`proptest!`] test macro, and the
//! `prop_assert*` family.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **Value-based shrinking, not value trees.** On failure the runner
//!   greedily minimizes the inputs via [`Strategy::shrink`](strategy::Strategy::shrink) (bounded at
//!   256 attempts): scalars halve toward the range floor (or zero for
//!   `any`), vectors halve their length, drop single elements, and
//!   shrink elements in place, tuples shrink component-wise, and
//!   `prop_oneof!` / boxed strategies delegate to their arms. Strategies
//!   built with `prop_map` / `prop_flat_map` do *not* shrink through the
//!   mapping (the closure has no inverse), so mapped values only shrink
//!   via the structure around them — coarser than real proptest, but
//!   failures still report a locally-minimal counterexample.
//! * **Fixed deterministic seeding** derived from the test name, so runs
//!   are reproducible (real proptest randomizes and persists regressions).
//! * Rejections from `prop_assume!` simply skip the case without being
//!   counted against a rejection budget.
//! * Panics inside the test body are caught and treated like
//!   `prop_assert!` failures so panicking cases shrink too; each probe
//!   of a panicking candidate prints through the default panic hook, so
//!   shrinking a panicking test is noisy on stderr.

pub mod test_runner {
    /// Deterministic SplitMix64 generator driving all strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn seed_from_u64(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, n)`; `n` must be non-zero.
        #[inline]
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }
    }

    /// Per-`proptest!`-block configuration (subset of the real one).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assert!` failure: the property is violated.
        Fail(String),
        /// `prop_assume!` rejection: the inputs don't apply; skip.
        Reject,
    }

    /// Best-effort extraction of a caught panic's message (used by the
    /// `proptest!` runner to fold panics into shrinkable failures).
    #[doc(hidden)]
    pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<opaque panic payload>".to_owned()
        }
    }
}

pub mod strategy {
    use crate::test_runner::{TestCaseError, TestRng};
    use std::rc::Rc;

    /// A generator of values (subset of `proptest::strategy::Strategy`),
    /// plus value-based shrinking: `shrink` proposes strictly-simpler
    /// candidate replacements for a failing value, most aggressive
    /// first; the runner keeps any candidate that still fails and
    /// re-shrinks from there ([`minimize`]).
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Simpler candidates for `value`; empty when already minimal
        /// (also the default, for strategies with no usable inverse —
        /// e.g. `prop_map`).
        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let _ = value;
            Vec::new()
        }

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { source: self, f }
        }

        /// Generate recursive structures: `levels` rounds of `recurse`
        /// applied on top of `self` as the leaf strategy. The size hints
        /// of the real API are accepted and ignored.
        fn prop_recursive<S2, F>(
            self,
            levels: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let mut strat = self.boxed();
            for _ in 0..levels {
                strat = recurse(strat.clone()).boxed();
            }
            strat
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let strat = Rc::new(self);
            let gen_strat = Rc::clone(&strat);
            BoxedStrategy {
                gen: Rc::new(move |rng| gen_strat.generate(rng)),
                shrinker: Rc::new(move |v| strat.shrink(v)),
            }
        }
    }

    /// Greedy bounded minimization: repeatedly replace `value` with the
    /// first shrink candidate that still fails `run`, until no candidate
    /// fails (a local minimum) or the attempt budget is spent. Returns
    /// the minimized value, its failure message, and the probe count.
    #[doc(hidden)]
    pub fn minimize<S: Strategy>(
        strat: &S,
        mut value: S::Value,
        mut msg: String,
        run: impl Fn(S::Value) -> Result<(), TestCaseError>,
    ) -> (S::Value, String, usize)
    where
        S::Value: Clone,
    {
        const MAX_ATTEMPTS: usize = 256;
        let mut attempts = 0;
        'minimal: while attempts < MAX_ATTEMPTS {
            for cand in strat.shrink(&value) {
                attempts += 1;
                if let Err(TestCaseError::Fail(m)) = run(cand.clone()) {
                    value = cand;
                    msg = m;
                    continue 'minimal;
                }
                if attempts >= MAX_ATTEMPTS {
                    break;
                }
            }
            break; // every candidate passed: local minimum
        }
        (value, msg, attempts)
    }

    /// Pins a `proptest!`-generated case-runner closure's argument type
    /// to `S::Value` (the macro cannot name the strategy tuple's value
    /// type, and closure parameter inference needs the tie).
    #[doc(hidden)]
    pub fn constrain_runner<S: Strategy, F>(_strat: &S, f: F) -> F
    where
        F: Fn(S::Value) -> Result<(), TestCaseError>,
    {
        f
    }

    /// Type-erased shrinker of a [`BoxedStrategy`].
    type Shrinker<V> = Rc<dyn Fn(&V) -> Vec<V>>;

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<V> {
        gen: Rc<dyn Fn(&mut TestRng) -> V>,
        shrinker: Shrinker<V>,
    }

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                gen: Rc::clone(&self.gen),
                shrinker: Rc::clone(&self.shrinker),
            }
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.gen)(rng)
        }
        fn shrink(&self, value: &V) -> Vec<V> {
            (self.shrinker)(value)
        }
    }

    /// Always produces a clone of the given value (already minimal).
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Clone for Union<V> {
        fn clone(&self) -> Self {
            Union {
                options: self.options.clone(),
            }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
        /// The producing arm isn't recorded, so pool every arm's
        /// candidates; `minimize` only keeps ones that still fail.
        fn shrink(&self, value: &V) -> Vec<V> {
            self.options.iter().flat_map(|o| o.shrink(value)).collect()
        }
    }

    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Clone, F: Clone> Clone for Map<S, F> {
        fn clone(&self) -> Self {
            Map {
                source: self.source.clone(),
                f: self.f.clone(),
            }
        }
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
                fn shrink(&self, v: &$t) -> Vec<$t> {
                    shrink_toward(self.start as i128, *v as i128)
                        .into_iter()
                        .map(|c| c as $t)
                        .collect()
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
                fn shrink(&self, v: &$t) -> Vec<$t> {
                    shrink_toward(*self.start() as i128, *v as i128)
                        .into_iter()
                        .map(|c| c as $t)
                        .collect()
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Scalar shrink candidates for `v` with floor `lo`: the floor
    /// itself, the midpoint, and the predecessor — aggressive first.
    pub(crate) fn shrink_toward(lo: i128, v: i128) -> Vec<i128> {
        if v == lo {
            return Vec::new();
        }
        let step = if v > lo { 1 } else { -1 };
        let mut out = vec![lo];
        let mid = lo + (v - lo) / 2;
        if mid != lo && mid != v {
            out.push(mid);
        }
        let dec = v - step;
        if dec != lo && dec != mid {
            out.push(dec);
        }
        out
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+)
            where
                $($s::Value: Clone),+
            {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
                /// Component-wise: shrink one position, clone the rest.
                fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&v.$idx) {
                            let mut w = v.clone();
                            w.$idx = cand;
                            out.push(w);
                        }
                    )+
                    out
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
    }

    impl Strategy for () {
        type Value = ();
        fn generate(&self, _rng: &mut TestRng) -> Self::Value {}
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;

        /// Simpler candidates for a failing value (shrinking); empty
        /// when already minimal.
        fn shrink_value(value: &Self) -> Vec<Self> {
            let _ = value;
            Vec::new()
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
                fn shrink_value(v: &$t) -> Vec<$t> {
                    crate::strategy::shrink_toward(0, *v as i128)
                        .into_iter()
                        .map(|c| c as $t)
                        .collect()
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink_value(v: &bool) -> Vec<bool> {
            if *v {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            T::shrink_value(value)
        }
    }

    /// `any::<T>()` — the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive length bounds for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Clone> Clone for VecStrategy<S> {
        fn clone(&self) -> Self {
            VecStrategy {
                element: self.element.clone(),
                size: self.size,
            }
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
        /// Length shrinks first (halve toward the minimum, keeping
        /// either end; drop each single element), then element shrinks
        /// in place.
        fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let n = v.len();
            if n > self.size.lo {
                let half = self.size.lo + (n - self.size.lo) / 2;
                out.push(v[..half].to_vec());
                out.push(v[n - half..].to_vec());
                for i in 0..n {
                    let mut w = v.clone();
                    w.remove(i);
                    out.push(w);
                }
            }
            for i in 0..n {
                for cand in self.element.shrink(&v[i]) {
                    let mut w = v.clone();
                    w[i] = cand;
                    out.push(w);
                }
            }
            out
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// What the tests import: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Mirror of proptest's `prelude::prop` shorthand module.
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, $($fmt)*);
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        #[test]
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            // Deterministic per-test seed derived from the test name.
            let mut seed: u64 = 0xcafe_f00d_d15e_a5e5;
            for byte in stringify!($name).bytes() {
                seed = seed.wrapping_mul(0x100_0000_01b3).wrapping_add(byte as u64);
            }
            let mut rng = $crate::test_runner::TestRng::seed_from_u64(seed);
            // Bundling the argument strategies as a tuple strategy keeps
            // the RNG stream identical to per-argument generation (the
            // components draw in declaration order) while giving the
            // shrinker one composite value to minimize.
            let strategies = ($(($strat),)*);
            let run_case = $crate::strategy::constrain_runner(&strategies, |args| {
                let ($($arg,)*) = args;
                match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                )) {
                    ::std::result::Result::Ok(r) => r,
                    ::std::result::Result::Err(payload) => {
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                            $crate::test_runner::panic_message(&*payload),
                        ))
                    }
                }
            });
            for case in 0..config.cases {
                let current = $crate::strategy::Strategy::generate(&strategies, &mut rng);
                match run_case(current.clone()) {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        let (minimal, msg, attempts) =
                            $crate::strategy::minimize(&strategies, current, msg, &run_case);
                        let ($($arg,)*) = &minimal;
                        let inputs = format!(
                            concat!($(stringify!($arg), " = {:?}; "),*),
                            $(&$arg),*
                        );
                        panic!(
                            "proptest case {case} failed: {msg}\n  minimal inputs \
                             (after {attempts} shrink probes): {inputs}",
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::minimize;
    use crate::test_runner::TestCaseError;

    #[test]
    fn ranges_and_collections_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = (1usize..=9).generate(&mut rng);
            assert!((1..=9).contains(&v));
            let xs = prop::collection::vec(-5i8..=5, 3..7).generate(&mut rng);
            assert!((3..7).contains(&xs.len()));
            assert!(xs.iter().all(|x| (-5..=5).contains(x)));
        }
    }

    #[test]
    fn oneof_map_recursive_compose() {
        #[derive(Clone, Debug)]
        enum T {
            Leaf(u8),
            Pair(Box<T>, Box<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf(v) => {
                    assert!(*v < 4, "leaf out of range");
                    0
                }
                T::Pair(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = prop_oneof![(0u8..4).prop_map(T::Leaf)].prop_recursive(3, 8, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| T::Pair(Box::new(a), Box::new(b))),
                inner,
            ]
        });
        let mut rng = crate::test_runner::TestRng::seed_from_u64(9);
        let mut saw_pair = false;
        for _ in 0..100 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 3);
            saw_pair |= matches!(t, T::Pair(..));
        }
        assert!(saw_pair, "recursion never produced a pair");
    }

    #[test]
    fn scalars_shrink_to_the_smallest_failing_value() {
        // Property "v < 10" fails for v >= 10; the minimum is exactly 10.
        let strat = (0usize..1000,);
        let run = |(v,): (usize,)| {
            if v >= 10 {
                Err(TestCaseError::Fail("too big".into()))
            } else {
                Ok(())
            }
        };
        let (minimal, _, _) = minimize(&strat, (700,), "seed".into(), run);
        assert_eq!(minimal.0, 10);

        // Signed ranges shrink toward their floor, not toward zero.
        let strat = (-50i32..50,);
        let run = |(v,): (i32,)| {
            if v >= -20 {
                Err(TestCaseError::Fail("too big".into()))
            } else {
                Ok(())
            }
        };
        let (minimal, _, _) = minimize(&strat, (44,), "seed".into(), run);
        assert_eq!(minimal.0, -20);
    }

    #[test]
    fn vectors_shrink_to_a_single_minimal_element() {
        // Property "no element >= 7": the minimal counterexample is [7].
        let strat = prop::collection::vec(0u8..100, 0..20);
        let run = |v: Vec<u8>| {
            if v.iter().any(|&x| x >= 7) {
                Err(TestCaseError::Fail("has big element".into()))
            } else {
                Ok(())
            }
        };
        let failing = vec![3, 91, 12, 0, 44, 87, 5];
        let (minimal, _, attempts) = minimize(&strat, failing, "seed".into(), run);
        assert_eq!(minimal, vec![7]);
        assert!(attempts <= 256);
    }

    #[test]
    fn rejected_candidates_do_not_stall_shrinking() {
        // Candidates that reject (prop_assume) are skipped, not kept.
        let strat = (0usize..100,);
        let run = |(v,): (usize,)| {
            if v == 0 {
                Err(TestCaseError::Reject)
            } else if v >= 5 {
                Err(TestCaseError::Fail("big".into()))
            } else {
                Ok(())
            }
        };
        let (minimal, _, _) = minimize(&strat, (80,), "seed".into(), run);
        assert_eq!(minimal.0, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_runs_and_assumes(a in 0usize..100, b in any::<bool>()) {
            prop_assume!(a > 0);
            prop_assert!(a < 100, "a out of range: {}", a);
            prop_assert_eq!(a, a);
            prop_assert_ne!(a, a + 1);
            let _ = b;
        }
    }
}
