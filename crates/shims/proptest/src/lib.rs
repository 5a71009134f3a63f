//! In-tree shim for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the API surface the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, tuple and
//! integer-range strategies, [`collection::vec`], the `prop_oneof!` union
//! macro, and the `proptest!` / `prop_assert!` / `prop_assert_eq!` test
//! macros.
//!
//! Semantics: each test runs `ProptestConfig::cases` deterministic cases
//! (seeded per case index, so failures are reproducible), and a failing
//! `prop_assert*` reports the case number and message. A failing case is
//! **shrunk** before reporting: generation produces a [`Shrinkable`] — a
//! value paired with a lazy tree of simpler candidates, this shim's
//! stand-in for the real crate's value trees — and the runner greedily
//! accepts the first candidate that still fails, repeating until no
//! candidate fails (or a fixed budget runs out), minimizing each test
//! argument independently. Integer ranges shrink by halving toward the
//! range start and `collection::vec` by element dropping plus
//! element-wise shrinking; because candidates are built compositionally
//! rather than by inverting failing values, shrinking also flows
//! *through* `prop_map` (the source shrinks and the mapping is
//! re-applied, so candidates stay in the mapped strategy's image) and
//! `prop_oneof!` (the branch that produced the failure shrinks). The
//! module layout mirrors `proptest 1.x` so the shim can be swapped for
//! the real crate without touching any caller.
//!
//! [`Shrinkable`]: strategy::Shrinkable

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use crate::strategy::{Shrinkable, Strategy};
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Inclusive bounds on a generated collection's size.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Smallest admissible length.
        pub min: usize,
        /// Largest admissible length.
        pub max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange { min: len, max: len }
        }
    }

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Caps on the candidate lists [`VecStrategy::shrink`] proposes, so one
    /// shrink round stays cheap even for long vectors.
    const MAX_DROP_CANDIDATES: usize = 24;
    const MAX_ELEMENT_CANDIDATES: usize = 24;

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone + 'static,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.min == self.size.max {
                self.size.min
            } else {
                rng.rng.gen_range(self.size.min..self.size.max + 1)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        /// Structural shrink first — halving the length, then dropping each
        /// element in turn (never below the size range's minimum) — followed
        /// by element-wise shrinking through the element strategy. Candidate
        /// counts are capped so a shrink round stays cheap.
        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let mut out = Vec::new();
            let len = value.len();
            if len > self.size.min {
                let half = (len / 2).max(self.size.min);
                if half < len {
                    out.push(value[..half].to_vec());
                }
                for at in 0..len.min(MAX_DROP_CANDIDATES) {
                    let mut shorter = value.clone();
                    shorter.remove(at);
                    out.push(shorter);
                }
            }
            let mut element_candidates = 0;
            for at in 0..len {
                if element_candidates >= MAX_ELEMENT_CANDIDATES {
                    break;
                }
                for candidate in self.element.shrink(&value[at]).into_iter().take(2) {
                    let mut simpler = value.clone();
                    simpler[at] = candidate;
                    out.push(simpler);
                    element_candidates += 1;
                }
            }
            out
        }

        /// The same structural-then-element-wise candidates as [`shrink`],
        /// but built over the elements' own [`Shrinkable`]s, so vectors of
        /// mapped or union elements shrink through to their sources.
        ///
        /// [`shrink`]: Strategy::shrink
        fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<Self::Value> {
            let len = if self.size.min == self.size.max {
                self.size.min
            } else {
                rng.rng.gen_range(self.size.min..self.size.max + 1)
            };
            let elements: Vec<Shrinkable<S::Value>> = (0..len)
                .map(|_| self.element.generate_shrinkable(rng))
                .collect();
            rebuild(elements, self.size.min)
        }
    }

    /// Reassembles a vector `Shrinkable` from per-element `Shrinkable`s;
    /// every candidate recurses so shrinking can continue from it.
    fn rebuild<T: Clone + 'static>(elements: Vec<Shrinkable<T>>, min: usize) -> Shrinkable<Vec<T>> {
        let value: Vec<T> = elements.iter().map(|e| e.value().clone()).collect();
        Shrinkable::new(value, move || {
            let mut out = Vec::new();
            let len = elements.len();
            if len > min {
                let half = (len / 2).max(min);
                if half < len {
                    out.push(rebuild(elements[..half].to_vec(), min));
                }
                for at in 0..len.min(MAX_DROP_CANDIDATES) {
                    let mut shorter = elements.clone();
                    shorter.remove(at);
                    out.push(rebuild(shorter, min));
                }
            }
            let mut element_candidates = 0;
            for at in 0..len {
                if element_candidates >= MAX_ELEMENT_CANDIDATES {
                    break;
                }
                for candidate in elements[at].shrink().into_iter().take(2) {
                    let mut simpler = elements.clone();
                    simpler[at] = candidate;
                    out.push(rebuild(simpler, min));
                    element_candidates += 1;
                }
            }
            out
        })
    }

    /// Creates a strategy for `Vec`s with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Pins a test closure's argument type to the generated value tuple so the
/// closure body type-checks before its first call (closure parameter
/// inference does not flow backwards from later call sites). Internal
/// plumbing for `proptest!`.
#[doc(hidden)]
pub fn __constrain<T, F: Fn(&T) -> Result<(), String>>(_witness: &T, run: F) -> F {
    run
}

/// The customary glob-import module (`proptest::prelude`).
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a `proptest!` body, failing the current case
/// (not panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {:?} == {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: {:?} != {:?}",
            left,
            right
        );
    }};
}

/// Builds a strategy choosing among the argument strategies (all must
/// produce the same value type). Arms may carry integer weights:
/// `prop_oneof![3 => a, 1 => b]` draws from `a` three times as often.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::empty()$(.or_weighted($weight, $strategy))+
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::empty()$(.or($strategy))+
    };
}

/// Declares property tests. Each `fn name(x in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strategy:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let strategies = ( $( $strategy, )* );
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(case as u64);
                    let generated =
                        $crate::strategy::Strategy::generate_shrinkable(&strategies, &mut rng);
                    #[allow(unused_variables)]
                    let run = $crate::__constrain(generated.value(), |values| {
                        let ( $( $arg, )* ) = values;
                        $( let $arg = ::std::clone::Clone::clone($arg); )*
                        $body
                        ::std::result::Result::Ok(())
                    });
                    if let ::std::result::Result::Err(first) = run(generated.value()) {
                        // Greedy minimization: keep accepting the first
                        // shrink candidate that still fails until no
                        // candidate fails (or the budget runs out), then
                        // report the smallest failure found. Candidates
                        // come from the Shrinkable, so mapped and union
                        // arguments shrink through to their sources.
                        let mut smallest = generated;
                        let mut message = first;
                        let mut steps = 0u32;
                        let mut budget = 256u32;
                        'shrinking: loop {
                            let candidates = smallest.shrink();
                            let mut advanced = false;
                            for candidate in candidates {
                                if budget == 0 {
                                    break 'shrinking;
                                }
                                budget -= 1;
                                if let ::std::result::Result::Err(simpler) =
                                    run(candidate.value())
                                {
                                    smallest = candidate;
                                    message = simpler;
                                    steps += 1;
                                    advanced = true;
                                    break;
                                }
                            }
                            if !advanced {
                                break;
                            }
                        }
                        if steps > 0 {
                            panic!(
                                "case {}/{} failed (minimized after {} shrink steps): {}",
                                case + 1, config.cases, steps, message
                            );
                        }
                        panic!("case {}/{} failed: {}", case + 1, config.cases, message);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_tuples_and_maps_generate_in_bounds() {
        let strategy = ((0u8..6), (10usize..20)).prop_map(|(a, b)| (a, b));
        let mut rng = TestRng::for_case(3);
        for _ in 0..200 {
            let (a, b) = strategy.generate(&mut rng);
            assert!(a < 6);
            assert!((10..20).contains(&b));
        }
    }

    #[test]
    fn oneof_draws_from_every_branch() {
        let strategy = prop_oneof![
            (0u8..1).prop_map(|_| "left".to_string()),
            (0u8..1).prop_map(|_| "right".to_string()),
        ];
        let mut rng = TestRng::for_case(0);
        let mut seen_left = false;
        let mut seen_right = false;
        for _ in 0..100 {
            match strategy.generate(&mut rng).as_str() {
                "left" => seen_left = true,
                _ => seen_right = true,
            }
        }
        assert!(seen_left && seen_right);
    }

    #[test]
    fn vec_strategy_respects_size_bounds() {
        let strategy = crate::collection::vec(0u8..5, 2..=4);
        let mut rng = TestRng::for_case(9);
        for _ in 0..100 {
            let v = strategy.generate(&mut rng);
            assert!((2..=4).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_runs(x in 0u32..100, v in crate::collection::vec(0u8..3, 0..5)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.len() < 5, true);
        }
    }

    /// The greedy minimization loop the `proptest!` runner uses, extracted
    /// so the shrink self-tests can drive it against a known predicate.
    fn minimize<S: Strategy>(
        strategy: &S,
        mut value: S::Value,
        still_fails: impl Fn(&S::Value) -> bool,
    ) -> S::Value {
        assert!(still_fails(&value), "minimize needs a failing start");
        loop {
            let mut advanced = false;
            for candidate in strategy.shrink(&value) {
                if still_fails(&candidate) {
                    value = candidate;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return value;
            }
        }
    }

    #[test]
    fn integer_shrink_halves_toward_the_range_start() {
        let strategy = 3u32..100;
        let candidates = strategy.shrink(&80);
        assert_eq!(candidates, vec![3, 41, 79], "min, midpoint, predecessor");
        assert!(strategy.shrink(&3).is_empty(), "the minimum is terminal");
        // A failing "x >= 7" case minimizes to exactly the boundary.
        assert_eq!(minimize(&(0u32..100), 93, |x| *x >= 7), 7);
    }

    #[test]
    fn vec_shrink_respects_the_minimum_size() {
        let strategy = crate::collection::vec(0u8..5, 2..=4);
        for candidate in strategy.shrink(&vec![1, 2, 3, 4]) {
            assert!(
                candidate.len() >= 2,
                "candidate below min size: {candidate:?}"
            );
        }
        assert!(
            strategy.shrink(&vec![0, 0]).is_empty(),
            "minimal length of all-minimal elements is terminal"
        );
    }

    #[test]
    fn vec_counterexamples_minimize_structurally_and_element_wise() {
        // Failing predicate: the vector still sums to >= 10. The minimizer
        // must drop every irrelevant element and shrink the survivors to a
        // local minimum (no single drop or element-shrink passes).
        let strategy = crate::collection::vec(0u32..100, 0..10);
        let minimal = minimize(&strategy, vec![3, 9, 4, 7, 1], |v| {
            v.iter().sum::<u32>() >= 10
        });
        assert!(minimal.iter().sum::<u32>() >= 10, "must still fail");
        assert!(
            minimal.len() <= 2,
            "dropping cannot go further: {minimal:?}"
        );
        for at in 0..minimal.len() {
            let mut dropped = minimal.clone();
            dropped.remove(at);
            assert!(
                dropped.iter().sum::<u32>() < 10,
                "a further drop would still fail: {minimal:?}"
            );
        }
    }

    #[test]
    fn tuple_shrink_minimizes_each_coordinate_independently() {
        let strategy = (0u32..100, 0u32..100);
        let minimal = minimize(&strategy, (55, 80), |(a, b)| *a >= 20 && *b >= 5);
        assert_eq!(minimal, (20, 5));
    }

    /// The greedy minimization loop again, but over a [`Shrinkable`] —
    /// the path the runner actually takes, and the only one that shrinks
    /// through value-opaque strategies.
    fn minimize_shrinkable<T: Clone + 'static>(
        mut shrinkable: crate::strategy::Shrinkable<T>,
        still_fails: impl Fn(&T) -> bool,
    ) -> T {
        assert!(
            still_fails(shrinkable.value()),
            "minimize needs a failing start"
        );
        loop {
            let mut advanced = false;
            for candidate in shrinkable.shrink() {
                if still_fails(candidate.value()) {
                    shrinkable = candidate;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return shrinkable.value().clone();
            }
        }
    }

    /// Draws from `strategy` until the predicate holds, then returns the
    /// shrinkable — a deterministic stand-in for the runner finding a
    /// failing case.
    fn generate_failing<S: Strategy>(
        strategy: &S,
        fails: impl Fn(&S::Value) -> bool,
    ) -> crate::strategy::Shrinkable<S::Value>
    where
        S::Value: Clone + 'static,
    {
        let mut rng = TestRng::for_case(0);
        for _ in 0..1000 {
            let candidate = strategy.generate_shrinkable(&mut rng);
            if fails(candidate.value()) {
                return candidate;
            }
        }
        panic!("no failing value in 1000 draws");
    }

    #[test]
    fn map_counterexamples_shrink_through_the_mapping() {
        // Even numbers via prop_map; the source shrinks and the mapping is
        // re-applied, so the failing "v >= 40" case lands exactly on the
        // boundary and every intermediate candidate stays even.
        let strategy = (0u32..100).prop_map(|x| x * 2);
        let failing = generate_failing(&strategy, |v| *v >= 40);
        for candidate in failing.shrink() {
            assert_eq!(
                candidate.value() % 2,
                0,
                "candidates must stay in the image"
            );
        }
        let minimal = minimize_shrinkable(failing, |v| *v >= 40);
        assert_eq!(minimal, 40);
    }

    #[test]
    fn oneof_counterexamples_shrink_within_the_drawn_branch() {
        // Only the "large" branch can fail the predicate; its shrinkable
        // must shrink inside that branch (toward 1000), never hopping to
        // the "small" branch or escaping either range's image.
        let strategy = prop_oneof![
            (0u32..100).prop_map(|x| ("small", x)),
            (1000u32..2000).prop_map(|x| ("large", x)),
        ];
        let failing = generate_failing(&strategy, |(_, v)| *v >= 1000);
        let minimal = minimize_shrinkable(failing, |(_, v)| *v >= 1000);
        assert_eq!(minimal, ("large", 1000));
    }

    #[test]
    fn vecs_of_mapped_elements_shrink_through_to_their_sources() {
        // Elements are mapped (always even); structural dropping still
        // works and surviving elements keep shrinking through the map.
        let strategy = crate::collection::vec((0u32..50).prop_map(|x| x * 2), 0..8);
        let failing = generate_failing(&strategy, |v| v.iter().sum::<u32>() >= 20);
        let minimal = minimize_shrinkable(failing, |v| v.iter().sum::<u32>() >= 20);
        assert!(minimal.iter().sum::<u32>() >= 20, "must still fail");
        assert!(
            minimal.iter().all(|v| v % 2 == 0),
            "image preserved: {minimal:?}"
        );
        for at in 0..minimal.len() {
            let mut dropped = minimal.clone();
            dropped.remove(at);
            assert!(
                dropped.iter().sum::<u32>() < 20,
                "a further drop would still fail: {minimal:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        #[should_panic(expected = "minimized after")]
        fn the_runner_reports_minimized_failures(n in 10u32..1000) {
            // Always fails (n >= 10 by construction), so the runner must
            // shrink n to the range minimum and say it minimized.
            prop_assert!(n < 10, "n was {}", n);
        }

        #[test]
        #[should_panic(expected = "n was 10")]
        fn the_runner_shrinks_through_prop_map(n in (5u32..500).prop_map(|x| x * 2)) {
            // Always fails (n >= 10 by construction). The runner must
            // shrink the *source* to its minimum and re-apply the map,
            // reporting exactly the image of the source's minimum.
            prop_assert!(n < 10, "n was {}", n);
        }
    }
}
