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
//! solver drives two consumers:
//!
//! * `swdb-query::exec` joins compiled query bodies against an [`IdIndex`]:
//!   the evaluation index, or — for a query premise — a fork of it that the
//!   premise was committed into (a clone of the persistent index shares
//!   every chunk the premise does not touch);
//! * `swdb-normal::id_core` runs the *retraction search* of the core
//!   computation — an endomorphism avoiding one triple — against an
//!   [`Avoiding`] view that masks the avoided triple out of an index
//!   (Definition 3.7: `G` is not lean iff some `μ : G → G − {t}` exists).
//!
//! Join ordering is the shared [`crate::most_constrained`] rule; selectivity
//! comes from [`IdTarget::candidate_count`] (a range count, no allocation).

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
/// The search mirrors [`crate::Solver`] — dynamic most-constrained-first
/// pattern selection, backtracking over candidates — entirely in id space.
///
/// An optional cooperative [`Budget`] (see [`IdSolver::with_budget`])
/// bounds the backtracking: the search spends one unit per candidate
/// visited and one per selectivity probe, and unwinds as soon as the
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

    /// Like [`IdSolver::new`], additionally recording the join order the
    /// search chooses into `recorder` (see [`JoinOrderLog`]).
    pub fn with_recorder(
        patterns: &'a [IdTriplePattern],
        slots: usize,
        target: &'a T,
        recorder: &'a JoinOrderLog,
    ) -> Self {
        IdSolver {
            patterns,
            slots,
            target,
            recorder: Some(recorder),
            budget: None,
            order: None,
        }
    }

    /// Executes a **static join plan** instead of the dynamic
    /// most-constrained-first selection: `order` lists the original pattern
    /// indices in execution order (a permutation of `0..patterns.len()`).
    /// The search then issues **zero** selectivity probes — a planner has
    /// already paid them once — while the candidate scans, repeated-slot
    /// consistency checks, and budget accounting stay identical. Any
    /// permutation yields the same solution *set* (join order is
    /// correctness-neutral), only the traversal cost differs.
    pub fn with_order(mut self, order: &'a [usize]) -> Self {
        debug_assert_eq!(order.len(), self.patterns.len());
        self.order = Some(order);
        self
    }

    /// Like [`IdSolver::with_recorder`] as a builder: records the join
    /// order the search takes (planned or dynamic) into `recorder`.
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
        let mut binding: Vec<Option<TermId>> = vec![None; self.slots];
        let outcome = if let Some(order) = self.order {
            self.search_planned(0, order, &mut binding, visit)
        } else {
            let mut remaining: Vec<&IdTriplePattern> = self.patterns.iter().collect();
            self.search(&mut remaining, &mut binding, visit)
        };
        match outcome {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    }

    /// The static-plan counterpart of [`IdSolver::search`]: the pattern at
    /// each depth is `order[depth]`, so no per-node selection round and no
    /// selectivity probes happen. Budget accounting keeps the per-candidate
    /// unit plus one unit per node entered (the probe units the dynamic
    /// path would have spent are exactly what the plan saves).
    fn search_planned<B>(
        &self,
        depth: usize,
        order: &[usize],
        binding: &mut Vec<Option<TermId>>,
        visit: &mut impl FnMut(&[Option<TermId>]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let Some(&pattern_index) = order.get(depth) else {
            return visit(binding);
        };
        if let Some(budget) = self.budget {
            if !budget.spend(1) {
                return ControlFlow::Continue(());
            }
        }
        let chosen = self.patterns[pattern_index];
        if let Some(log) = self.recorder {
            log.record(depth, pattern_index);
        }
        let mut broke: Option<B> = None;
        self.target.scan_while(chosen.to_scan(binding), |triple| {
            if self.budget.is_some_and(|b| !b.spend(1)) {
                return false;
            }
            let Some((newly_bound, bound_count)) = try_bind(&chosen, triple, binding) else {
                return true;
            };
            let keep_scanning = match self.search_planned(depth + 1, order, binding, visit) {
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
        match broke {
            Some(b) => ControlFlow::Break(b),
            None => ControlFlow::Continue(()),
        }
    }

    fn search<B>(
        &self,
        remaining: &mut Vec<&'a IdTriplePattern>,
        binding: &mut Vec<Option<TermId>>,
        visit: &mut impl FnMut(&[Option<TermId>]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if remaining.is_empty() {
            return visit(binding);
        }
        // One unit per selectivity probe issued below plus one for the
        // selection round itself; an exhausted budget abandons this branch
        // (and, since exhaustion is sticky, every enclosing one).
        if let Some(budget) = self.budget {
            if !budget.spend(remaining.len() as u64 + 1) {
                return ControlFlow::Continue(());
            }
        }
        let depth = self.patterns.len() - remaining.len();
        let best_pos = crate::most_constrained(remaining, |p| {
            self.target.candidate_count(p.to_scan(binding))
        })
        .expect("remaining not empty");
        let chosen = remaining.swap_remove(best_pos);
        if let Some(log) = self.recorder {
            // Recover the original pattern index from the reference's offset
            // into the pattern slice (safe pointer arithmetic on addresses).
            let offset =
                chosen as *const IdTriplePattern as usize - self.patterns.as_ptr() as usize;
            log.record(depth, offset / std::mem::size_of::<IdTriplePattern>());
        }

        let mut broke: Option<B> = None;
        self.target.scan_while(chosen.to_scan(binding), |triple| {
            // One budget unit per candidate visited; stop the scan as
            // soon as the slice is gone.
            if self.budget.is_some_and(|b| !b.spend(1)) {
                return false;
            }
            let Some((newly_bound, bound_count)) = try_bind(chosen, triple, binding) else {
                return true;
            };
            let keep_scanning = match self.search(remaining, binding, visit) {
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
        // Restore the pattern list order-insensitively (selection is
        // dynamic, so only the set matters).
        remaining.push(chosen);
        let last = remaining.len() - 1;
        remaining.swap(best_pos.min(last), last);
        match broke {
            Some(b) => ControlFlow::Break(b),
            None => ControlFlow::Continue(()),
        }
    }

    /// Returns `true` if at least one solution exists.
    pub fn exists(&self) -> bool {
        self.for_each_solution(&mut |_slots| ControlFlow::Break(()))
            .is_some()
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
    fn joins_over_a_plain_index() {
        let idx = index();
        // (?X, 10, ?Y), (?Y, 11, ?Z): 1 -10-> 3? no 3 -11-> …; 1 -10-> 2,
        // 2 -11-> 3 matches.
        let patterns = [
            pattern(var(0), constant(10), var(1)),
            pattern(var(1), constant(11), var(2)),
        ];
        let solver = IdSolver::new(&patterns, 3, &idx);
        assert!(solver.exists());
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
        assert!(!IdSolver::new(&patterns, 1, &avoiding).exists());
    }

    #[test]
    fn repeated_slots_force_equality() {
        let idx = index();
        let loops = [pattern(var(0), var(1), var(0))];
        assert!(!IdSolver::new(&loops, 2, &idx).exists());
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
        let solver = IdSolver::with_recorder(&patterns, 3, &idx, &log);
        assert!(solver.exists());
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
        assert!(solver.exists());
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
    fn empty_pattern_list_has_the_empty_solution() {
        let idx = index();
        let solver = IdSolver::new(&[], 0, &idx);
        assert!(solver.exists());
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
        assert!(IdSolver::new(&patterns, 3, &idx).exists());
        // With a one-step budget the search cannot even finish the first
        // selection round: it stops, and the budget says so.
        let budget = Budget::steps(1);
        let solver = IdSolver::new(&patterns, 3, &idx).with_budget(&budget);
        assert!(!solver.exists(), "search abandoned, no witness produced");
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
