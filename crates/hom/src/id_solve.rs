//! The id-space backtracking matcher.
//!
//! The string-space [`crate::Solver`] joins cloned [`swdb_model::Term`]s
//! through a per-call [`crate::GraphIndex`]. This module is its
//! dictionary-encoded generalization: patterns are triples of
//! [`IdPatternTerm`]s (interned constants or dense variable slots), a
//! binding is a `[Option<TermId>]` slot array, and candidates are visited in
//! place via range scans over an [`swdb_store::IdIndex`] — no term cloning,
//! no string hashing, no materialized candidate `Vec`.
//!
//! The target of the search is abstracted behind [`IdTarget`] so the same
//! solver drives three consumers:
//!
//! * `swdb-query::exec` joins compiled query bodies against an [`IdIndex`]:
//!   the evaluation index, or — for a query premise — a fork of it that the
//!   premise was committed into (a clone of the persistent index shares
//!   every chunk the premise does not touch);
//! * `swdb-normal::id_core` runs the *retraction search* of the core
//!   computation — an endomorphism avoiding one triple — against an
//!   [`Avoiding`] view that masks the avoided triple out of an index
//!   (Definition 3.7: `G` is not lean iff some `μ : G → G − {t}` exists);
//! * `swdb-reason` fires the RDFS rules (2)–(13): a delta triple unified
//!   into one hypothesis seeds the join of the others against the closure,
//!   and the DRed probes seed the join of all of them with a conclusion.
//!
//! [`IdSolver::for_each_solution_from`] is the one search entry: it extends
//! a caller's binding (a stack array in the reasoner) and leaves it as it
//! found it. One recursive loop runs both ordering policies — the dynamic
//! [`crate::most_constrained`] over [`IdTarget::candidate_count`] (a range
//! count) and the static plan of [`IdSolver::with_order`] — and they differ
//! only in how a node picks its pattern and what it charges the budget.

use std::ops::ControlFlow;

use swdb_obs::Budget;
use swdb_store::{IdIndex, IdPattern, IdTriple, TermId};

/// One position of an id-space triple pattern: an interned constant or a
/// dense variable slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdPatternTerm {
    /// A constant, already resolved to its dictionary id.
    Const(TermId),
    /// A variable, identified by its slot in the binding array.
    Var(usize),
}

/// A triple pattern over [`IdPatternTerm`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdTriplePattern {
    /// Subject position.
    pub subject: IdPatternTerm,
    /// Predicate position.
    pub predicate: IdPatternTerm,
    /// Object position.
    pub object: IdPatternTerm,
}

impl IdTriplePattern {
    /// Resolves the pattern under a partial binding to an [`IdPattern`]
    /// scan: constants and bound slots become bound positions, unbound
    /// slots become wildcards.
    pub fn to_scan(self, binding: &[Option<TermId>]) -> IdPattern {
        let resolve = |t: IdPatternTerm| match t {
            IdPatternTerm::Const(id) => Some(id),
            IdPatternTerm::Var(slot) => binding[slot],
        };
        (
            resolve(self.subject),
            resolve(self.predicate),
            resolve(self.object),
        )
    }

    /// Unifies the pattern with a concrete triple: constants must equal
    /// their position, and variables bind to it or must already be bound
    /// to it. On a mismatch `binding` may be left partially extended.
    pub fn unify(self, (s, p, o): IdTriple, binding: &mut [Option<TermId>]) -> bool {
        [(self.subject, s), (self.predicate, p), (self.object, o)]
            .into_iter()
            .all(|(term, id)| match term {
                IdPatternTerm::Const(c) => c == id,
                IdPatternTerm::Var(slot) => *binding[slot].get_or_insert(id) == id,
            })
    }
}

/// What an [`IdSolver`] searches against: anything that can count and
/// enumerate the triples matching an [`IdPattern`].
/// A target is also required to be [`Sync`]: every implementor is a purely
/// immutable snapshot view (shared references into [`IdIndex`]es, no
/// interior mutability beyond atomics), and the parallel closure-propagation
/// workers in `swdb-reason` share one `&impl IdTarget` across
/// `std::thread::scope` threads. The bound makes that sharing a compile-time
/// guarantee instead of a convention.
pub trait IdTarget: Sync {
    /// Counts the triples matching the pattern without materializing them —
    /// the selectivity probe behind most-constrained-first join ordering.
    fn candidate_count(&self, pattern: IdPattern) -> usize;

    /// Visits every triple matching the pattern; the visitor returns `true`
    /// to keep scanning, `false` to stop early.
    fn scan_while(&self, pattern: IdPattern, visit: impl FnMut(IdTriple) -> bool);

    /// Membership probe. The default routes through [`candidate_count`] on
    /// the fully-bound pattern; implementors with a cheaper direct probe
    /// should override it.
    ///
    /// [`candidate_count`]: IdTarget::candidate_count
    fn contains(&self, (s, p, o): IdTriple) -> bool {
        self.candidate_count((Some(s), Some(p), Some(o))) > 0
    }
}

impl IdTarget for IdIndex {
    fn candidate_count(&self, pattern: IdPattern) -> usize {
        IdIndex::candidate_count(self, pattern)
    }

    fn scan_while(&self, pattern: IdPattern, visit: impl FnMut(IdTriple) -> bool) {
        IdIndex::scan_while(self, pattern, visit)
    }

    fn contains(&self, ids: IdTriple) -> bool {
        IdIndex::contains(self, ids)
    }
}

/// An [`IdIndex`] with one triple masked out: the target `G − {t}` of the
/// retraction search. Masking beats editing — the non-leanness probe runs
/// once per blank triple per round, and a copy per probe is exactly the
/// quadratic blowup the string-space `find_map_avoiding` pays. The core
/// engine searches its evaluation index through it, and a premise's fork of
/// that index the same way.
pub struct Avoiding<'a> {
    target: &'a IdIndex,
    avoid: IdTriple,
}

impl<'a> Avoiding<'a> {
    /// Creates the masked view `target − {avoid}`.
    pub fn new(target: &'a IdIndex, avoid: IdTriple) -> Self {
        Avoiding { target, avoid }
    }

    fn masks(&self, (s, p, o): IdPattern) -> bool {
        s.is_none_or(|s| s == self.avoid.0)
            && p.is_none_or(|p| p == self.avoid.1)
            && o.is_none_or(|o| o == self.avoid.2)
            && self.target.contains(self.avoid)
    }
}

impl IdTarget for Avoiding<'_> {
    fn candidate_count(&self, pattern: IdPattern) -> usize {
        let raw = self.target.candidate_count(pattern);
        raw - usize::from(self.masks(pattern))
    }

    fn scan_while(&self, pattern: IdPattern, mut visit: impl FnMut(IdTriple) -> bool) {
        self.target
            .scan_while(pattern, |t| t == self.avoid || visit(t))
    }

    fn contains(&self, ids: IdTriple) -> bool {
        ids != self.avoid && self.target.contains(ids)
    }
}

/// Records the join order an [`IdSolver`] actually chose: the original
/// pattern indices in the order of the search's **first descent** to each
/// depth. Pattern selection is dynamic (most-constrained-first against live
/// candidate counts), so the order is a run-time fact, not a compile-time
/// plan — this log is how `EXPLAIN` surfaces it without changing the search.
///
/// Backtracking can re-enter a depth with different bindings and pick a
/// different pattern there; the log keeps the first choice per depth, which
/// is the order the initial (most selective) probe path took.
#[derive(Debug, Default)]
pub struct JoinOrderLog {
    order: std::cell::RefCell<Vec<usize>>,
}

impl JoinOrderLog {
    /// An empty log.
    pub fn new() -> Self {
        JoinOrderLog::default()
    }

    /// Records `pattern_index` as the choice at `depth` unless that depth
    /// already has one.
    fn record(&self, depth: usize, pattern_index: usize) {
        let mut order = self.order.borrow_mut();
        if order.len() == depth {
            order.push(pattern_index);
        }
    }

    /// The recorded order so far (original pattern indices, outermost
    /// first).
    pub fn order(&self) -> Vec<usize> {
        self.order.borrow().clone()
    }

    /// Takes the recorded order, resetting the log for reuse.
    pub fn take(&self) -> Vec<usize> {
        std::mem::take(&mut *self.order.borrow_mut())
    }
}

/// A prepared id-space matcher: a pattern list with `slots` variables
/// against one [`IdTarget`].
///
/// The search mirrors [`crate::Solver`] — backtracking over candidates —
/// entirely in id space. One loop serves two ordering policies: dynamic
/// most-constrained-first selection (the default) and a static plan
/// ([`IdSolver::with_order`]); each node picks its pattern by the policy,
/// and the scan, bind, recurse and undo steps are shared.
///
/// An optional cooperative [`Budget`] (see [`IdSolver::with_budget`])
/// bounds the backtracking: the search spends one unit per candidate
/// visited, one per node entered and one per selectivity probe (only the
/// dynamic policy probes), and unwinds as soon as the
/// budget trips. An exhausted search that found no solution means
/// *unknown*, not *absent* — callers must check [`Budget::is_exhausted`]
/// before concluding non-existence. Solutions found before exhaustion are
/// genuine. Without a budget the search is exactly as before (one branch
/// per call).
pub struct IdSolver<'a, T: IdTarget> {
    patterns: &'a [IdTriplePattern],
    slots: usize,
    target: &'a T,
    recorder: Option<&'a JoinOrderLog>,
    budget: Option<&'a Budget>,
    order: Option<&'a [usize]>,
}

impl<'a, T: IdTarget> IdSolver<'a, T> {
    /// Creates a solver for the given patterns (with variable slots
    /// `0..slots`) and target.
    pub fn new(patterns: &'a [IdTriplePattern], slots: usize, target: &'a T) -> Self {
        IdSolver {
            patterns,
            slots,
            target,
            recorder: None,
            budget: None,
            order: None,
        }
    }

    /// Executes a **static join plan** instead of the dynamic
    /// most-constrained-first selection: `order` lists the original pattern
    /// indices in execution order (a permutation of `0..patterns.len()`, or
    /// of the patterns a seeded search's seed does not already satisfy).
    /// The search then issues **zero** selectivity probes — a planner has
    /// already paid them once — while the candidate scans, repeated-slot
    /// consistency checks, and budget accounting stay identical. Any
    /// permutation yields the same solution *set* (join order is
    /// correctness-neutral), only the traversal cost differs.
    pub fn with_order(mut self, order: &'a [usize]) -> Self {
        debug_assert!(order.len() <= self.patterns.len());
        self.order = Some(order);
        self
    }

    /// Records the join order the search takes (planned or dynamic) into
    /// `recorder` (see [`JoinOrderLog`]).
    pub fn recording_into(mut self, recorder: &'a JoinOrderLog) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Bounds the search by a cooperative budget, checked at probe
    /// granularity (each candidate scanned and each selectivity probe
    /// spends one unit). The budget is shared state: one [`Budget`] can
    /// govern many solver calls, which is how a whole retraction-search
    /// round gets one slice.
    pub fn with_budget(mut self, budget: &'a Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Enumerates complete solutions, invoking `visit` with the slot array
    /// (every slot `Some`). The visitor stops the enumeration by returning
    /// [`ControlFlow::Break`].
    pub fn for_each_solution<B>(
        &self,
        visit: &mut impl FnMut(&[Option<TermId>]) -> ControlFlow<B>,
    ) -> Option<B> {
        self.for_each_solution_from(&mut vec![None; self.slots], visit)
    }

    /// The seeded search: enumerates the solutions that extend `binding`
    /// (a slot array of at least `slots` entries, its `Some` slots fixed),
    /// invoking `visit` with the extended array. Returns with `binding` as
    /// it found it, whether the enumeration ran out or `visit` stopped it.
    pub fn for_each_solution_from<B>(
        &self,
        binding: &mut [Option<TermId>],
        visit: &mut impl FnMut(&[Option<TermId>]) -> ControlFlow<B>,
    ) -> Option<B> {
        // A plan needs no pattern list: `Vec::new` does not allocate.
        let mut remaining = match self.order {
            Some(_) => Vec::new(),
            None => (0..self.patterns.len()).collect(),
        };
        match self.search(0, &mut remaining, binding, visit) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    }

    /// The search node at `depth`. Only the choice of its pattern depends on
    /// the ordering policy: under a plan it is `order[depth]` for one budget
    /// unit (the probe units a plan saves); otherwise it is the
    /// most-constrained of the `remaining` pattern indices, for one unit per
    /// selectivity probe plus one for the selection round.
    fn search<B>(
        &self,
        depth: usize,
        remaining: &mut Vec<usize>,
        binding: &mut [Option<TermId>],
        visit: &mut impl FnMut(&[Option<TermId>]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let units = match self.order {
            Some(order) if depth == order.len() => return visit(binding),
            Some(_) => 1,
            None if remaining.is_empty() => return visit(binding),
            None => remaining.len() as u64 + 1,
        };
        // An exhausted budget abandons this branch (and, since exhaustion is
        // sticky, every enclosing one).
        if self.budget.is_some_and(|b| !b.spend(units)) {
            return ControlFlow::Continue(());
        }
        let (pattern_index, taken_from) = match self.order {
            Some(order) => (order[depth], None),
            None => {
                let best = crate::most_constrained(remaining, |&i| {
                    self.target
                        .candidate_count(self.patterns[i].to_scan(binding))
                })
                .expect("remaining not empty");
                (remaining.swap_remove(best), Some(best))
            }
        };
        if let Some(log) = self.recorder {
            log.record(depth, pattern_index);
        }
        let chosen = self.patterns[pattern_index];
        let mut broke: Option<B> = None;
        self.target.scan_while(chosen.to_scan(binding), |triple| {
            // One budget unit per candidate visited; stop the scan as
            // soon as the slice is gone.
            if self.budget.is_some_and(|b| !b.spend(1)) {
                return false;
            }
            let Some((newly_bound, bound_count)) = try_bind(&chosen, triple, binding) else {
                return true;
            };
            let keep_scanning = match self.search(depth + 1, remaining, binding, visit) {
                ControlFlow::Break(b) => {
                    broke = Some(b);
                    false
                }
                ControlFlow::Continue(()) => true,
            };
            for &slot in &newly_bound[..bound_count] {
                binding[slot] = None;
            }
            keep_scanning
        });
        if let Some(best) = taken_from {
            // Undo the `swap_remove`: the next selection round sees the
            // same list, so ties break the same way.
            remaining.push(pattern_index);
            let last = remaining.len() - 1;
            remaining.swap(best, last);
        }
        match broke {
            Some(b) => ControlFlow::Break(b),
            None => ControlFlow::Continue(()),
        }
    }

    /// Returns the first complete slot assignment, if any.
    pub fn first_solution(&self) -> Option<Vec<TermId>> {
        self.for_each_solution(&mut |slots| {
            ControlFlow::Break(
                slots
                    .iter()
                    .map(|slot| slot.expect("complete solution"))
                    .collect(),
            )
        })
    }
}

/// Binds the unbound slots of `chosen` to the candidate triple's positions.
/// Bound positions already match by construction of the scan; a repeated
/// variable's second occurrence is checked against the binding its first
/// occurrence just made. Returns the newly bound slots on success; on a
/// consistency clash the partial binds are undone and `None` is returned.
fn try_bind(
    chosen: &IdTriplePattern,
    (s, p, o): IdTriple,
    binding: &mut [Option<TermId>],
) -> Option<([usize; 3], usize)> {
    let mut newly_bound = [usize::MAX; 3];
    let mut bound_count = 0;
    for (position, actual) in [
        (chosen.subject, s),
        (chosen.predicate, p),
        (chosen.object, o),
    ] {
        if let IdPatternTerm::Var(slot) = position {
            match binding[slot] {
                Some(existing) if existing == actual => {}
                Some(_) => {
                    for &undo in &newly_bound[..bound_count] {
                        binding[undo] = None;
                    }
                    return None;
                }
                None => {
                    binding[slot] = Some(actual);
                    newly_bound[bound_count] = slot;
                    bound_count += 1;
                }
            }
        }
    }
    Some((newly_bound, bound_count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn index() -> IdIndex {
        let mut index = IdIndex::new();
        for t in [(1, 10, 2), (1, 10, 3), (2, 11, 3), (4, 10, 2)] {
            index.insert(t);
        }
        index
    }

    const fn var(slot: usize) -> IdPatternTerm {
        IdPatternTerm::Var(slot)
    }

    const fn constant(id: TermId) -> IdPatternTerm {
        IdPatternTerm::Const(id)
    }

    fn pattern(s: IdPatternTerm, p: IdPatternTerm, o: IdPatternTerm) -> IdTriplePattern {
        IdTriplePattern {
            subject: s,
            predicate: p,
            object: o,
        }
    }

    #[test]
    fn unify_binds_and_checks_consistency() {
        let loop_ = pattern(var(0), constant(9), var(0));
        let mut binding = [None; 2];
        assert!(loop_.unify((4, 9, 4), &mut binding));
        assert_eq!(binding, [Some(4), None]);
        assert!(!loop_.unify((4, 9, 5), &mut [None; 2]), "v0 is 4 or 5");
        assert!(!loop_.unify((4, 8, 4), &mut [None; 2]), "the constant");
        assert!(!loop_.unify((5, 9, 5), &mut binding), "v0 is bound to 4");
    }

    #[test]
    fn scan_patterns_reflect_bound_positions() {
        let p = pattern(var(1), constant(2), var(0));
        assert_eq!(p.to_scan(&[None, Some(7)]), (Some(7), Some(2), None));
    }

    /// A pattern position: one of three constants or one of three slots,
    /// so repeated variables are common.
    fn arb_term() -> impl Strategy<Value = IdPatternTerm> {
        (0u32..6).prop_map(|i| {
            if i < 3 {
                constant(i)
            } else {
                var(i as usize - 3)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The seeded entry enumerates exactly the unseeded solutions that
        /// agree with the seed, stops at a `Break`, and returns the
        /// caller's slice unchanged — dynamic and planned alike.
        #[test]
        fn a_seeded_search_is_the_unseeded_one_restricted_to_its_seed(
            shapes in proptest::collection::vec((arb_term(), arb_term(), arb_term()), 1..4),
            triples in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3), 0..16),
            seed in proptest::collection::vec(0u32..5, 3),
            rotation in 0usize..3,
        ) {
            let patterns: Vec<IdTriplePattern> =
                shapes.iter().map(|&(s, p, o)| pattern(s, p, o)).collect();
            let mut idx = IdIndex::new();
            for t in triples {
                idx.insert(t);
            }
            let seed: Vec<Option<TermId>> = seed.iter().map(|&v| (v < 3).then_some(v)).collect();
            let mut all = Vec::new();
            IdSolver::new(&patterns, 3, &idx).for_each_solution(&mut |slots| {
                all.push(slots.to_vec());
                ControlFlow::<()>::Continue(())
            });
            let mut expected: Vec<Vec<Option<TermId>>> = all
                .iter()
                .filter(|s| s.iter().zip(&seed).all(|(a, b)| a.is_none() || b.is_none() || a == b))
                .map(|s| s.iter().zip(&seed).map(|(a, b)| a.or(*b)).collect())
                .collect();
            expected.sort();
            let mut order: Vec<usize> = (0..patterns.len()).collect();
            order.rotate_left(rotation % patterns.len());
            for planned in [false, true] {
                let mut solver = IdSolver::new(&patterns, 3, &idx);
                if planned {
                    solver = solver.with_order(&order);
                }
                let mut binding = seed.clone();
                let mut seen = Vec::new();
                let none = solver.for_each_solution_from(&mut binding, &mut |slots| {
                    seen.push(slots.to_vec());
                    ControlFlow::<()>::Continue(())
                });
                seen.sort();
                prop_assert!(none.is_none());
                prop_assert_eq!(&seen, &expected, "planned: {}", planned);
                prop_assert_eq!(&binding, &seed, "the seed after a full run");
                let mut visits = 0;
                let first = solver.for_each_solution_from(&mut binding, &mut |slots| {
                    visits += 1;
                    ControlFlow::Break(slots.to_vec())
                });
                prop_assert_eq!(visits, usize::from(!expected.is_empty()));
                prop_assert!(first.is_none_or(|first| expected.contains(&first)));
                prop_assert_eq!(&binding, &seed, "the seed after a break");
            }
        }
    }

    #[test]
    fn joins_over_a_plain_index() {
        let idx = index();
        // (?X, 10, ?Y), (?Y, 11, ?Z): 1 -10-> 3? no 3 -11-> …; 1 -10-> 2,
        // 2 -11-> 3 matches.
        let patterns = [
            pattern(var(0), constant(10), var(1)),
            pattern(var(1), constant(11), var(2)),
        ];
        let solver = IdSolver::new(&patterns, 3, &idx);
        assert_eq!(solver.first_solution(), Some(vec![1, 2, 3]));
    }

    #[test]
    fn avoiding_view_masks_exactly_one_triple() {
        let idx = index();
        let avoiding = Avoiding::new(&idx, (1, 10, 2));
        assert_eq!(avoiding.candidate_count((Some(1), Some(10), None)), 1);
        assert_eq!(idx.candidate_count((Some(1), Some(10), None)), 2);
        let mut seen = Vec::new();
        avoiding.scan_while((None, Some(10), None), |t| {
            seen.push(t);
            true
        });
        // POS order: (10, 2, 4) sorts before (10, 3, 1).
        assert_eq!(seen, vec![(4, 10, 2), (1, 10, 3)]);
        // A pattern that cannot match the avoided triple is uncorrected.
        assert_eq!(avoiding.candidate_count((Some(2), None, None)), 1);
    }

    #[test]
    fn avoidance_search_finds_the_redundancy_witness() {
        // The id rendering of Example 3.8 G1: (a, p, X), (a, p, Y) with
        // a=1, p=10, X=2, Y=3 — avoiding (1, 10, 2) maps X to Y.
        let mut idx = IdIndex::new();
        idx.insert((1, 10, 2));
        idx.insert((1, 10, 3));
        let patterns = [
            pattern(constant(1), constant(10), var(0)),
            pattern(constant(1), constant(10), var(1)),
        ];
        let avoiding = Avoiding::new(&idx, (1, 10, 2));
        let solution = IdSolver::new(&patterns, 2, &avoiding)
            .first_solution()
            .expect("X and Y both map to Y");
        assert_eq!(solution, vec![3, 3]);
        // A lean variant — distinguishable continuations — has no witness.
        idx.insert((2, 11, 5));
        idx.insert((3, 12, 5));
        let patterns = [
            pattern(constant(1), constant(10), var(0)),
            pattern(var(0), constant(11), constant(5)),
        ];
        let avoiding = Avoiding::new(&idx, (1, 10, 2));
        assert!(IdSolver::new(&patterns, 1, &avoiding)
            .first_solution()
            .is_none());
    }

    #[test]
    fn repeated_slots_force_equality() {
        let idx = index();
        let loops = [pattern(var(0), var(1), var(0))];
        assert!(IdSolver::new(&loops, 2, &idx).first_solution().is_none());
        let mut with_loop = index();
        with_loop.insert((7, 10, 7));
        assert_eq!(
            IdSolver::new(&loops, 2, &with_loop).first_solution(),
            Some(vec![7, 10])
        );
    }

    #[test]
    fn recorder_logs_first_descent_join_order() {
        let idx = index();
        // (?X, 10, ?Y) has 3 candidates, (?Y, 11, ?Z) has 1 — the most-
        // constrained rule must descend into the second pattern first.
        let patterns = [
            pattern(var(0), constant(10), var(1)),
            pattern(var(1), constant(11), var(2)),
        ];
        let log = JoinOrderLog::new();
        let solver = IdSolver::new(&patterns, 3, &idx).recording_into(&log);
        assert!(solver.first_solution().is_some());
        assert_eq!(log.order(), vec![1, 0]);
        assert_eq!(log.take(), vec![1, 0]);
        assert!(log.order().is_empty(), "take resets the log");
    }

    #[test]
    fn planned_order_yields_the_same_solutions_as_dynamic_selection() {
        let idx = index();
        let patterns = [
            pattern(var(0), constant(10), var(1)),
            pattern(var(1), constant(11), var(2)),
        ];
        let mut dynamic: Vec<Vec<TermId>> = Vec::new();
        IdSolver::new(&patterns, 3, &idx).for_each_solution(&mut |slots| {
            dynamic.push(slots.iter().map(|s| s.unwrap()).collect());
            ControlFlow::<()>::Continue(())
        });
        dynamic.sort();
        // Every permutation — including the anti-selective one — agrees.
        for order in [[0, 1], [1, 0]] {
            let mut planned: Vec<Vec<TermId>> = Vec::new();
            IdSolver::new(&patterns, 3, &idx)
                .with_order(&order)
                .for_each_solution(&mut |slots| {
                    planned.push(slots.iter().map(|s| s.unwrap()).collect());
                    ControlFlow::<()>::Continue(())
                });
            planned.sort();
            assert_eq!(planned, dynamic, "order {order:?} changed the answers");
        }
    }

    #[test]
    fn planned_order_is_what_the_recorder_sees() {
        let idx = index();
        let patterns = [
            pattern(var(0), constant(10), var(1)),
            pattern(var(1), constant(11), var(2)),
        ];
        // Deliberately the opposite of what dynamic selection would pick.
        let order = [0, 1];
        let log = JoinOrderLog::new();
        let solver = IdSolver::new(&patterns, 3, &idx)
            .with_order(&order)
            .recording_into(&log);
        assert!(solver.first_solution().is_some());
        assert_eq!(log.order(), vec![0, 1]);
    }

    #[test]
    fn planned_search_respects_the_budget() {
        let mut idx = IdIndex::new();
        for o in 0..100 {
            idx.insert((1, 10, o));
        }
        let patterns = [pattern(constant(1), constant(10), var(0))];
        let order = [0];
        let budget = Budget::steps(4);
        let solver = IdSolver::new(&patterns, 1, &idx)
            .with_order(&order)
            .with_budget(&budget);
        let mut seen = 0usize;
        solver.for_each_solution(&mut |_slots| {
            seen += 1;
            ControlFlow::<()>::Continue(())
        });
        assert!(budget.is_exhausted());
        assert!(seen > 0 && seen < 100, "partial: got {seen} of 100");
    }

    #[test]
    fn budget_units_are_pinned_for_both_ordering_policies() {
        // (?X, 10, ?Y), (?Y, 11, ?Z), (?Z, 12, ?Z): the last pattern repeats
        // a slot, and Y = 3 is a dead end (3 -11-> 7, but no 7 -12-> 7).
        let mut idx = index();
        for t in [(3, 11, 7), (3, 12, 3), (2, 12, 5)] {
            idx.insert(t);
        }
        let patterns = [
            pattern(var(0), constant(10), var(1)),
            pattern(var(1), constant(11), var(2)),
            pattern(var(2), constant(12), var(2)),
        ];
        // (solutions seen, units spent) to enumerate all or to the first.
        let spent = |order: Option<&[usize]>, first: bool| {
            let budget = Budget::steps(1_000);
            let mut solver = IdSolver::new(&patterns, 3, &idx).with_budget(&budget);
            if let Some(order) = order {
                solver = solver.with_order(order);
            }
            let mut seen = 0;
            solver.for_each_solution(&mut |_slots| {
                seen += 1;
                match first {
                    true => ControlFlow::Break(()),
                    false => ControlFlow::Continue(()),
                }
            });
            (seen, 1_000 - budget.steps_remaining())
        };
        // Dynamic: a node costs one unit per remaining pattern plus one.
        assert_eq!(spent(None, false), (2, 17));
        assert_eq!(spent(None, true), (1, 12));
        // Planned: a node costs one unit, candidates cost the same.
        assert_eq!(spent(Some(&[0, 1, 2]), false), (2, 15));
        assert_eq!(spent(Some(&[0, 1, 2]), true), (1, 6));
    }

    #[test]
    fn empty_pattern_list_has_the_empty_solution() {
        let idx = index();
        let solver = IdSolver::new(&[], 0, &idx);
        assert_eq!(solver.first_solution(), Some(vec![]));
    }

    #[test]
    fn a_tripped_budget_stops_the_search_and_reports_unknown() {
        let idx = index();
        let patterns = [
            pattern(var(0), constant(10), var(1)),
            pattern(var(1), constant(11), var(2)),
        ];
        // Unbudgeted, the join succeeds (see joins_over_a_plain_index).
        assert!(IdSolver::new(&patterns, 3, &idx).first_solution().is_some());
        // With a one-step budget the search cannot even finish the first
        // selection round: it stops, and the budget says so.
        let budget = Budget::steps(1);
        let solver = IdSolver::new(&patterns, 3, &idx).with_budget(&budget);
        assert!(
            solver.first_solution().is_none(),
            "search abandoned, no witness produced"
        );
        assert!(
            budget.is_exhausted(),
            "the caller can tell 'unknown' from 'absent'"
        );
    }

    #[test]
    fn a_generous_budget_changes_nothing() {
        let idx = index();
        let patterns = [
            pattern(var(0), constant(10), var(1)),
            pattern(var(1), constant(11), var(2)),
        ];
        let budget = Budget::steps(1_000_000);
        let solver = IdSolver::new(&patterns, 3, &idx).with_budget(&budget);
        assert_eq!(solver.first_solution(), Some(vec![1, 2, 3]));
        assert!(!budget.is_exhausted());
    }

    #[test]
    fn solutions_found_before_exhaustion_are_kept() {
        // One pattern, many candidates: the first candidate is reached
        // within budget even though a full enumeration would not be.
        let mut idx = IdIndex::new();
        for o in 0..100 {
            idx.insert((1, 10, o));
        }
        let patterns = [pattern(constant(1), constant(10), var(0))];
        let budget = Budget::steps(4);
        let solver = IdSolver::new(&patterns, 1, &idx).with_budget(&budget);
        assert_eq!(solver.first_solution(), Some(vec![0]));
        let budget = Budget::steps(4);
        let solver = IdSolver::new(&patterns, 1, &idx).with_budget(&budget);
        let mut seen = 0usize;
        solver.for_each_solution(&mut |_slots| {
            seen += 1;
            ControlFlow::<()>::Continue(())
        });
        assert!(budget.is_exhausted());
        assert!(
            seen > 0 && seen < 100,
            "partial enumeration: got {seen} of 100"
        );
    }
}
