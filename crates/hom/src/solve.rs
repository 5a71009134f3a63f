//! The backtracking pattern matcher.
//!
//! Given a [`PatternGraph`] (a conjunction of triple patterns) and a target
//! graph, the solver enumerates the valuations of the pattern variables under
//! which every pattern instantiates to a triple of the target. This is the
//! evaluation problem for conjunctive queries over the triple relation, which
//! is NP-complete in the size of the pattern (Theorem 6.1, query complexity)
//! and polynomial in the size of the data for a fixed pattern (data
//! complexity). `tests/paper_results.rs` counts both on the id-space twin
//! of this search, [`crate::IdSolver`]
//! (`theorem_6_1_fixed_query_evaluation_is_feasible_on_growing_data`).
//!
//! The search selects, at each step, the pattern with the fewest candidate
//! triples under the current binding (most-constrained-first), which is the
//! classic dynamic join ordering heuristic.

use std::ops::ControlFlow;

use swdb_model::{Graph, Term};

use crate::index::GraphIndex;
use crate::pattern::{Binding, PatternGraph, PatternTerm, TriplePattern};

/// Maximum number of solutions collected by [`Solver::all_solutions`] unless
/// a smaller limit is given. A guard against accidentally materialising
/// exponentially many homomorphisms.
pub const DEFAULT_SOLUTION_LIMIT: usize = 1_000_000;

/// Returns the index of the item with the smallest selectivity value — the
/// most-constrained-first rule shared by this string-space solver and the
/// id-space join in `swdb-query`. Evaluation short-circuits on a selectivity
/// of `0` (nothing beats an unsatisfiable or already-verified pattern).
/// Returns `None` on an empty slice.
pub fn most_constrained<T>(items: &[T], mut selectivity: impl FnMut(&T) -> usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, item) in items.iter().enumerate() {
        let sel = selectivity(item);
        if sel == 0 {
            return Some(i);
        }
        if best.is_none_or(|(_, best_sel)| sel < best_sel) {
            best = Some((i, sel));
        }
    }
    best.map(|(i, _)| i)
}

/// A prepared matcher for one pattern graph against one target graph.
pub struct Solver<'a> {
    pattern: &'a PatternGraph,
    index: &'a GraphIndex,
}

impl<'a> Solver<'a> {
    /// Creates a solver for the given pattern and target index.
    pub fn new(pattern: &'a PatternGraph, index: &'a GraphIndex) -> Self {
        Solver { pattern, index }
    }

    /// Enumerates solutions, invoking `visit` for each complete binding.
    /// The visitor can stop the enumeration early by returning
    /// [`ControlFlow::Break`].
    pub fn for_each_solution<B>(
        &self,
        visit: &mut impl FnMut(&Binding) -> ControlFlow<B>,
    ) -> Option<B> {
        let mut remaining: Vec<&TriplePattern> = self.pattern.patterns().iter().collect();
        let mut binding = Binding::new();
        match self.search(&mut remaining, &mut binding, visit) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    }

    fn search<B>(
        &self,
        remaining: &mut Vec<&'a TriplePattern>,
        binding: &mut Binding,
        visit: &mut impl FnMut(&Binding) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if remaining.is_empty() {
            return visit(binding);
        }
        // Most-constrained pattern first (fewest candidates under current
        // binding). Ground patterns get priority implicitly because their
        // candidate count is 0 or 1.
        let best_pos = most_constrained(remaining, |p| self.index.selectivity(p, binding))
            .expect("remaining not empty");
        let chosen = remaining.swap_remove(best_pos);

        let candidates = self.index.candidates(chosen, binding);
        for candidate in candidates {
            if !GraphIndex::matches(chosen, binding, candidate) {
                continue;
            }
            // Bind the unbound variables of the chosen pattern to the
            // candidate's corresponding positions.
            let mut newly_bound = Vec::with_capacity(3);
            let positions: [(&PatternTerm, Term); 3] = [
                (&chosen.subject, candidate.subject().clone()),
                (&chosen.predicate, Term::Iri(candidate.predicate().clone())),
                (&chosen.object, candidate.object().clone()),
            ];
            let mut consistent = true;
            for (position, actual) in positions {
                if let PatternTerm::Var(v) = position {
                    match binding.get(v) {
                        Some(existing) if existing == &actual => {}
                        Some(_) => {
                            consistent = false;
                            break;
                        }
                        None => {
                            binding.bind(v.clone(), actual);
                            newly_bound.push(v.clone());
                        }
                    }
                }
            }
            if consistent {
                if let ControlFlow::Break(b) = self.search(remaining, binding, visit) {
                    // Restore state before propagating.
                    for v in &newly_bound {
                        binding.unbind(v);
                    }
                    remaining.push(chosen);
                    let last = remaining.len() - 1;
                    remaining.swap(best_pos.min(last), last);
                    return ControlFlow::Break(b);
                }
            }
            for v in &newly_bound {
                binding.unbind(v);
            }
        }
        // Restore the pattern list order-insensitively (the set matters, not
        // the order, because selection is dynamic).
        remaining.push(chosen);
        let last = remaining.len() - 1;
        remaining.swap(best_pos.min(last), last);
        ControlFlow::Continue(())
    }

    /// Returns `true` if at least one solution exists.
    pub fn exists(&self) -> bool {
        self.first_solution().is_some()
    }

    /// Returns the first solution found, if any.
    pub fn first_solution(&self) -> Option<Binding> {
        self.for_each_solution(&mut |b: &Binding| ControlFlow::Break(b.clone()))
    }

    /// Collects up to `limit` solutions.
    pub fn solutions_up_to(&self, limit: usize) -> Vec<Binding> {
        let mut out = Vec::new();
        self.for_each_solution(&mut |b: &Binding| {
            out.push(b.clone());
            if out.len() >= limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        out
    }

    /// Collects all solutions (up to [`DEFAULT_SOLUTION_LIMIT`]).
    pub fn all_solutions(&self) -> Vec<Binding> {
        self.solutions_up_to(DEFAULT_SOLUTION_LIMIT)
    }

    /// Counts all solutions (up to [`DEFAULT_SOLUTION_LIMIT`]).
    pub fn count_solutions(&self) -> usize {
        let mut n = 0usize;
        self.for_each_solution(&mut |_b: &Binding| {
            n += 1;
            if n >= DEFAULT_SOLUTION_LIMIT {
                ControlFlow::Break(())
            } else {
                ControlFlow::<()>::Continue(())
            }
        });
        n
    }
}

/// Convenience: evaluates a pattern graph against a graph, returning all
/// solutions. Builds a fresh index; reuse [`Solver`] with a prebuilt
/// [`GraphIndex`] when matching repeatedly against the same data.
pub fn match_pattern(pattern: &PatternGraph, data: &Graph) -> Vec<Binding> {
    let index = GraphIndex::new(data);
    Solver::new(pattern, &index).all_solutions()
}

/// Convenience: returns `true` if the pattern has at least one match in the
/// data.
pub fn pattern_matches(pattern: &PatternGraph, data: &Graph) -> bool {
    let index = GraphIndex::new(data);
    Solver::new(pattern, &index).exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::pattern_graph;
    use swdb_model::graph;

    fn data() -> Graph {
        graph([
            ("ex:dept", "ex:offers", "ex:DB"),
            ("ex:dept", "ex:offers", "ex:AI"),
            ("ex:alice", "ex:takes", "ex:DB"),
            ("ex:bob", "ex:takes", "ex:AI"),
            ("ex:carol", "ex:takes", "ex:DB"),
        ])
    }

    #[test]
    fn single_pattern_matches_all_triples_with_predicate() {
        let pg = pattern_graph([("?X", "ex:takes", "?C")]);
        let sols = match_pattern(&pg, &data());
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn join_across_patterns() {
        let pg = pattern_graph([("ex:dept", "ex:offers", "?C"), ("?S", "ex:takes", "?C")]);
        let sols = match_pattern(&pg, &data());
        assert_eq!(sols.len(), 3, "two DB takers and one AI taker");
        assert!(sols.iter().all(|b| b.len() == 2));
    }

    #[test]
    fn unsatisfiable_pattern_returns_nothing() {
        let pg = pattern_graph([("?X", "ex:offers", "ex:Math")]);
        assert!(match_pattern(&pg, &data()).is_empty());
        assert!(!pattern_matches(&pg, &data()));
    }

    #[test]
    fn empty_pattern_has_exactly_the_empty_solution() {
        let pg = pattern_graph([]);
        let sols = match_pattern(&pg, &data());
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
    }

    #[test]
    fn repeated_variable_forces_equality() {
        let pg = pattern_graph([("?X", "ex:takes", "?X")]);
        assert!(match_pattern(&pg, &data()).is_empty());
        let selfloop = graph([("ex:n", "ex:takes", "ex:n")]);
        assert_eq!(match_pattern(&pg, &selfloop).len(), 1);
    }

    #[test]
    fn variable_in_predicate_position() {
        let pg = pattern_graph([("ex:alice", "?P", "?O")]);
        let sols = match_pattern(&pg, &data());
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols[0].get(&crate::pattern::Variable::new("P")).unwrap(),
            &Term::iri("ex:takes")
        );
    }

    #[test]
    fn ground_pattern_acts_as_containment_test() {
        let pg = pattern_graph([("ex:alice", "ex:takes", "ex:DB")]);
        assert!(pattern_matches(&pg, &data()));
        let missing = pattern_graph([("ex:alice", "ex:takes", "ex:AI")]);
        assert!(!pattern_matches(&missing, &data()));
    }

    #[test]
    fn count_and_limit() {
        let pg = pattern_graph([("?X", "?P", "?Y")]);
        let d = data();
        let idx = GraphIndex::new(&d);
        let solver = Solver::new(&pg, &idx);
        assert_eq!(solver.count_solutions(), 5);
        assert_eq!(solver.solutions_up_to(2).len(), 2);
        assert!(solver.exists());
    }

    #[test]
    fn triangle_pattern_requires_triangle_in_data() {
        let pg = pattern_graph([
            ("?A", "ex:e", "?B"),
            ("?B", "ex:e", "?C"),
            ("?C", "ex:e", "?A"),
        ]);
        let path = graph([("ex:1", "ex:e", "ex:2"), ("ex:2", "ex:e", "ex:3")]);
        assert!(!pattern_matches(&pg, &path));
        let triangle = graph([
            ("ex:1", "ex:e", "ex:2"),
            ("ex:2", "ex:e", "ex:3"),
            ("ex:3", "ex:e", "ex:1"),
        ]);
        assert!(pattern_matches(&pg, &triangle));
        // Self-loops also satisfy the triangle pattern (homomorphisms may
        // collapse variables).
        let looped = graph([("ex:n", "ex:e", "ex:n")]);
        assert!(pattern_matches(&pg, &looped));
    }

    #[test]
    fn most_constrained_picks_the_smallest_and_short_circuits_on_zero() {
        assert_eq!(most_constrained::<usize>(&[], |&n| n), None);
        assert_eq!(most_constrained(&[5usize, 3, 4], |&n| n), Some(1));
        let mut evaluated = 0;
        let best = most_constrained(&[2usize, 0, 9], |&n| {
            evaluated += 1;
            n
        });
        assert_eq!(best, Some(1));
        assert_eq!(evaluated, 2, "selection stops at the first zero");
    }

    #[test]
    fn solutions_bind_exactly_the_pattern_variables() {
        let pg = pattern_graph([("?X", "ex:offers", "?C")]);
        for sol in match_pattern(&pg, &data()) {
            assert_eq!(sol.len(), 2);
            assert!(sol.get(&crate::pattern::Variable::new("X")).is_some());
            assert!(sol.get(&crate::pattern::Variable::new("C")).is_some());
        }
    }
}
