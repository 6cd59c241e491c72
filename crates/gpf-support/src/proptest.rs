//! A minimal property-testing harness with a `proptest`-shaped surface.
//!
//! The four `tests/proptests.rs` suites in the workspace were written
//! against the real `proptest` crate; this module provides the subset they
//! use so they port by swapping the `use` line:
//!
//! - the [`proptest!`](crate::proptest!) macro (with optional
//!   `#![proptest_config(...)]` header),
//! - strategies: integer/float ranges, [`Just`], [`any`],
//!   [`collection::vec`], tuples, [`prop_oneof!`](crate::prop_oneof!),
//!   [`Strategy::prop_map`], [`Strategy::prop_flat_map`],
//! - assertions: [`prop_assert!`](crate::prop_assert!),
//!   [`prop_assert_eq!`](crate::prop_assert_eq!).
//!
//! Execution model: every property runs a **fixed-seed corpus** — case `i`
//! draws its generator seed as `SplitMix64::mix(config.seed, i)`, so runs
//! are reproducible by default and independent of execution order. On
//! failure the harness applies a **halving shrinker** (vectors halve their
//! length, integers halve toward the range's lower bound, tuples shrink
//! one component at a time) and then panics with the minimal failing
//! input plus the exact case seed; re-running just that case is
//! `GPF_PROPTEST_REPLAY=0x<seed> cargo test <name>`.
//!
//! Environment knobs: `GPF_PROPTEST_CASES` overrides the per-property case
//! count (the default is 128, and configs asking for fewer than 64 are
//! raised to 64 — the workspace floor); `GPF_PROPTEST_SEED` rebases the
//! corpus; `GPF_PROPTEST_REPLAY` reruns a single reported case seed.

use crate::rng::{Rng, SeedableRng, SplitMix64, StdRng};
use std::fmt::Debug;
use std::panic::AssertUnwindSafe;

/// Minimum cases per property, workspace-wide (see `ISSUE 1` acceptance:
/// every suite must run at least this many).
pub const MIN_CASES: u32 = 64;

/// Per-property run configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases.
    pub cases: u32,
    /// Base seed of the fixed corpus.
    pub seed: u64,
    /// Maximum shrink candidate evaluations after a failure.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 128, seed: 0x5eed_cafe_f00d_d00d, max_shrink_iters: 2048 }
    }
}

impl ProptestConfig {
    /// Default config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases, ..Self::default() }
    }

    fn effective(&self) -> Self {
        let mut cfg = self.clone();
        if let Some(c) = env_u64("GPF_PROPTEST_CASES") {
            cfg.cases = c as u32;
        }
        cfg.cases = cfg.cases.max(MIN_CASES);
        if let Some(s) = env_u64("GPF_PROPTEST_SEED") {
            cfg.seed = s;
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// A failed property assertion (returned by the `prop_assert*` macros).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Build from a message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// A value generator with an attached shrinker.
pub trait Strategy {
    /// The generated type.
    type Value: Debug + Clone;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Candidate simplifications of a failing value, simplest first.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Map generated values through `f` (no shrinking through the map).
    fn prop_map<U, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        U: Debug + Clone,
        F: Fn(Self::Value) -> U,
    {
        MapStrategy { inner: self, f }
    }

    /// Build a dependent strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMapStrategy<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMapStrategy { inner: self, f }
    }

    /// Erase the concrete type (for heterogeneous unions).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V: Debug + Clone> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut StdRng) -> V {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &V) -> Vec<V> {
        (**self).shrink(value)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// Always produces a clone of the wrapped value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Debug + Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(self.start, *value)
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(*self.start(), *value)
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Halving shrinker for integers: the lower bound itself, then the
/// midpoint between it and the failing value.
fn shrink_toward<T>(lo: T, value: T) -> Vec<T>
where
    T: Copy + PartialEq + core::ops::Sub<Output = T> + core::ops::Add<Output = T> + HalfStep,
{
    if value == lo {
        return Vec::new();
    }
    let mid = lo + (value - lo).half();
    if mid == lo || mid == value {
        vec![lo]
    } else {
        vec![lo, mid]
    }
}

/// Integer halving (the step primitive of the shrinker).
pub trait HalfStep {
    /// Self divided by two, toward zero.
    fn half(self) -> Self;
}

macro_rules! impl_half_step {
    ($($t:ty),+) => {$(
        impl HalfStep for $t {
            fn half(self) -> Self { self / 2 }
        }
    )+};
}

impl_half_step!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        if *value == self.start {
            Vec::new()
        } else {
            vec![self.start, self.start + (value - self.start) / 2.0]
        }
    }
}

/// Full-domain values with shrink-toward-zero (proptest's `any`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink_value()
    }
}

/// Types with a canonical full-domain generator.
pub trait Arbitrary: Sized + Debug + Clone {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut StdRng) -> Self;

    /// Simplification candidates (default: none).
    fn shrink_value(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }

            fn shrink_value(&self) -> Vec<Self> {
                if *self == 0 {
                    Vec::new()
                } else if *self / 2 == 0 {
                    vec![0]
                } else {
                    vec![0, *self / 2]
                }
            }
        }
    )+};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }

    fn shrink_value(&self) -> Vec<Self> {
        if *self { vec![false] } else { Vec::new() }
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut StdRng) -> Self {
        // Mostly printable ASCII (the useful corner for format tests),
        // occasionally any scalar value.
        if rng.gen_bool(0.9) {
            rng.gen_range(0x20u32..0x7f) as u8 as char
        } else {
            char::from_u32(rng.gen_range(0u32..=0x10_ffff)).unwrap_or('\u{fffd}')
        }
    }

    fn shrink_value(&self) -> Vec<Self> {
        if *self == 'a' { Vec::new() } else { vec!['a'] }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    U: Debug + Clone,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
pub struct FlatMapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMapStrategy<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        let mid = self.inner.generate(rng);
        (self.f)(mid).generate(rng)
    }
}

/// Weighted choice between boxed strategies (built by
/// [`prop_oneof!`](crate::prop_oneof!)).
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total_weight: u64,
}

impl<V: Debug + Clone> Union<V> {
    /// Build from `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total_weight = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total_weight > 0, "prop_oneof! needs a positive total weight");
        Self { arms, total_weight }
    }

    /// Box one arm (helper used by the macro so call sites avoid
    /// `as Box<dyn ...>` casts).
    pub fn arm<S>(strategy: S) -> BoxedStrategy<V>
    where
        S: Strategy<Value = V> + 'static,
    {
        Box::new(strategy)
    }
}

impl<V: Debug + Clone> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut StdRng) -> V {
        let mut pick = rng.gen_range(0..self.total_weight);
        for (w, strat) in &self.arms {
            if pick < *w as u64 {
                return strat.generate(rng);
            }
            pick -= *w as u64;
        }
        // gpf-lint: allow(no-panic): gen_range(0..total_weight) < the sum of
        // the arm weights, so one arm always matches.
        unreachable!("pick < total_weight")
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::*;

    /// Element-count bounds for [`vec`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl SizeRange {
        /// Smallest allowed length.
        pub fn lo(&self) -> usize {
            self.lo
        }

        /// Largest allowed length.
        pub fn hi_inclusive(&self) -> usize {
            self.hi_inclusive
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            Self { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi_inclusive: n }
        }
    }

    /// `Vec` strategy: a length drawn from `size`, then that many elements.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let len = value.len();
            // Halve the length first (the big lever), then drop one
            // element, then simplify individual elements in place.
            if len > self.size.lo {
                let half = (len / 2).max(self.size.lo);
                if half < len {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..len - 1].to_vec());
            }
            for i in 0..len.min(8) {
                for cand in self.element.shrink(&value[i]).into_iter().take(2) {
                    let mut v = value.clone();
                    v[i] = cand;
                    out.push(v);
                }
            }
            out
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx).into_iter().take(3) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

/// Run one property: the engine behind the [`proptest!`](crate::proptest!)
/// macro. Public so hand-rolled harnesses can reuse it.
pub fn run<S>(
    config: &ProptestConfig,
    name: &str,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) where
    S: Strategy,
{
    let cfg = config.effective();
    if let Some(seed) = env_u64("GPF_PROPTEST_REPLAY") {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = strategy.generate(&mut rng);
        gpf_trace::sink::console_err(&format!(
            "[proptest] {name}: replaying case seed {seed:#x} with input {value:?}"
        ));
        if let Err(msg) = run_one(&test, value.clone()) {
            // gpf-lint: allow(no-panic): panicking IS the harness contract —
            // a failed property must fail the enclosing #[test].
            panic!("[proptest] {name}: replayed case failed: {msg}\ninput: {value:?}");
        }
        return;
    }

    for case in 0..cfg.cases {
        let case_seed = SplitMix64::mix(cfg.seed, case as u64);
        let mut rng = StdRng::seed_from_u64(case_seed);
        let value = strategy.generate(&mut rng);
        if let Err(first_msg) = run_one(&test, value.clone()) {
            let (minimal, msg, steps) = shrink_failure(&cfg, strategy, &test, value, first_msg);
            // gpf-lint: allow(no-panic): panicking IS the harness contract —
            // a failed property must fail the enclosing #[test].
            panic!(
                "[proptest] property `{name}` failed at case {case}/{} \
                 (case seed {case_seed:#x}; replay with GPF_PROPTEST_REPLAY={case_seed:#x})\n\
                 minimal failing input (after {steps} shrink steps): {minimal:?}\n\
                 failure: {msg}",
                cfg.cases,
            );
        }
    }
}

fn run_one<V>(
    test: &impl Fn(V) -> Result<(), TestCaseError>,
    value: V,
) -> Result<(), String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_message(&payload)),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn shrink_failure<S: Strategy>(
    cfg: &ProptestConfig,
    strategy: &S,
    test: &impl Fn(S::Value) -> Result<(), TestCaseError>,
    mut current: S::Value,
    mut message: String,
    // returns (minimal value, its failure message, accepted shrink steps)
) -> (S::Value, String, u32) {
    let mut evals = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        for candidate in strategy.shrink(&current) {
            evals += 1;
            if evals > cfg.max_shrink_iters {
                break 'outer;
            }
            if let Err(msg) = run_one(test, candidate.clone()) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, message, steps)
}

/// Names the harness re-exports for a mechanical `use ...::prelude::*` port.
pub mod prelude {
    pub use super::{
        any, collection, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
        Union,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// The `proptest!` macro: wraps each property in a `#[test]` runner.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_properties! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_properties! { ($crate::proptest::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_properties {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$attr:meta])*
      fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config = $cfg;
            let __strategy = ($( $strat, )+);
            $crate::proptest::run(
                &__config,
                stringify!($name),
                &__strategy,
                |($($pat,)+)| -> ::core::result::Result<(), $crate::proptest::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_properties! { ($cfg) $($rest)* }
    };
}

/// Weighted (or uniform) choice between strategies producing one type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::proptest::Union::new(vec![
            $( ($weight as u32, $crate::proptest::Union::arm($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::proptest::Union::new(vec![
            $( (1u32, $crate::proptest::Union::arm($strat)) ),+
        ])
    };
}

/// Property assertion: returns a [`TestCaseError`](crate::proptest::TestCaseError)
/// from the enclosing property on failure (so the harness can shrink).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::proptest::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::proptest::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::core::result::Result::Err($crate::proptest::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), left, right,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::core::result::Result::Err($crate::proptest::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right,
            )));
        }
    }};
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::core::result::Result::Err($crate::proptest::TestCaseError::fail(format!(
                "assertion failed: `{}` != `{}`\n  both: {:?}",
                stringify!($left), stringify!($right), left,
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let strat = collection::vec(0u64..1000, 0..50);
        let draw = |case: u64| {
            let mut rng = StdRng::seed_from_u64(SplitMix64::mix(42, case));
            strat.generate(&mut rng)
        };
        for case in 0..20 {
            assert_eq!(draw(case), draw(case), "case {case} must reproduce");
        }
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let strat = collection::vec(0u8..10, 3..7);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((3..7).contains(&v.len()), "len {}", v.len());
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn union_respects_weights_roughly() {
        let strat = prop_oneof![9 => Just(1u8), 1 => Just(0u8)];
        let mut rng = StdRng::seed_from_u64(2);
        let ones: u32 = (0..10_000).map(|_| strat.generate(&mut rng) as u32).sum();
        let frac = ones as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn flat_map_links_lengths() {
        let strat = collection::vec(0u8..4, 1..20).prop_flat_map(|v| {
            let len = v.len();
            (Just(v), collection::vec(33u8..=126, len..=len))
        });
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let (seq, qual) = strat.generate(&mut rng);
            assert_eq!(seq.len(), qual.len());
        }
    }

    #[test]
    fn shrinker_halves_vectors_to_minimal() {
        // Property: no vector contains a value >= 900. Failing inputs
        // should shrink down toward a single offending element.
        let strat = collection::vec(0u64..1000, 0..64);
        let mut failing = vec![1u64, 950, 2, 3, 4, 5, 6, 7];
        let cfg = ProptestConfig::default();
        let test = |v: Vec<u64>| -> Result<(), TestCaseError> {
            if v.iter().any(|&x| x >= 900) {
                Err(TestCaseError::fail("contains large value"))
            } else {
                Ok(())
            }
        };
        let (minimal, _msg, steps) =
            shrink_failure(&cfg, &strat, &test, std::mem::take(&mut failing), "seed".into());
        assert!(steps > 0, "shrinker made progress");
        assert!(minimal.len() <= 2, "minimal {minimal:?}");
        assert!(minimal.iter().any(|&x| x >= 900), "still failing");
    }

    #[test]
    fn integer_shrink_reaches_lower_bound() {
        let strat = 10u64..10_000;
        let cfg = ProptestConfig::default();
        let test =
            |v: u64| -> Result<(), TestCaseError> {
                if v >= 10 { Err(TestCaseError::fail("always fails")) } else { Ok(()) }
            };
        let (minimal, _, _) = shrink_failure(&cfg, &strat, &test, 9999, "seed".into());
        assert_eq!(minimal, 10, "halving shrinker lands on the range floor");
    }

    #[test]
    fn run_passes_good_property() {
        run(
            &ProptestConfig::with_cases(64),
            "sum_commutes",
            &(0u64..100, 0u64..100),
            |(a, b)| {
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "property `always_fails`")]
    fn run_reports_failing_property() {
        run(&ProptestConfig::with_cases(64), "always_fails", &(0u64..100,), |(_a,)| {
            prop_assert!(false, "doomed");
            Ok(())
        });
    }

    // The macro forms, exercised end to end.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_single_param(v in collection::vec(0u8..255, 0..40)) {
            let doubled: Vec<u16> = v.iter().map(|&x| x as u16 * 2).collect();
            prop_assert_eq!(doubled.len(), v.len());
        }

        #[test]
        fn macro_multi_param_with_pattern(
            (seq, qual) in collection::vec(0u8..4, 0..60).prop_flat_map(|seq| {
                let len = seq.len();
                (Just(seq), collection::vec(33u8..=126, len..=len))
            }),
            parts in 1usize..8,
        ) {
            prop_assert_eq!(seq.len(), qual.len());
            prop_assert!(parts >= 1);
        }
    }
}
