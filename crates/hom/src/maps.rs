//! Searching for maps between RDF graphs.
//!
//! The paper overloads "map" to mean `μ : G1 → G2` whenever `μ(G1) ⊆ G2`
//! (§2.1). Deciding whether such a map exists is the central decision
//! problem: it characterises simple entailment (Theorem 2.8(2)), entailment
//! with RDFS vocabulary via the closure (Theorem 2.8(1)), leanness
//! (Definition 3.7) and, through the `enc(·)` encoding, graph homomorphism —
//! hence NP-completeness (Theorem 2.9).
//!
//! The implementation translates the source graph into a conjunctive pattern
//! (`Q_{G1}` of §2.4: blanks become variables, URIs stay constants) and runs
//! the backtracking matcher against the target. When the source has no
//! blank-induced cycles the acyclic fast path is used, matching the paper's
//! polynomial special case.

use std::ops::ControlFlow;

use swdb_model::{Graph, TermMap};

use crate::acyclic::{acyclic_exists, has_blank_induced_cycle};
use crate::index::GraphIndex;
use crate::pattern::{Binding, PatternGraph};
use crate::solve::Solver;

/// Searches for a map `μ : from → into` (i.e. `μ(from) ⊆ into`).
pub fn find_map(from: &Graph, into: &Graph) -> Option<TermMap> {
    let index = GraphIndex::new(into);
    find_map_indexed(from, &index)
}

/// Like [`find_map`] but against a prebuilt index of the target graph.
pub fn find_map_indexed(from: &Graph, index: &GraphIndex) -> Option<TermMap> {
    let pattern = PatternGraph::from_graph_blanks_as_vars(from);
    let solver = Solver::new(&pattern, index);
    solver
        .first_solution()
        .map(|b| PatternGraph::binding_to_term_map(&b))
}

/// Returns `true` if a map `from → into` exists.
///
/// Routes acyclic sources through the polynomial semijoin evaluation
/// (`acyclic_fast_path_agrees_with_backtracking` below); falls back to
/// backtracking otherwise.
pub fn exists_map(from: &Graph, into: &Graph) -> bool {
    let index = GraphIndex::new(into);
    exists_map_indexed(from, &index)
}

/// Like [`exists_map`] but against a prebuilt index.
pub fn exists_map_indexed(from: &Graph, index: &GraphIndex) -> bool {
    let pattern = PatternGraph::from_graph_blanks_as_vars(from);
    if !has_blank_induced_cycle(from) {
        if let Some(answer) = acyclic_exists(&pattern, index) {
            return answer;
        }
    }
    Solver::new(&pattern, index).exists()
}

/// Enumerates maps `from → into`, calling `visit` on each; the visitor can
/// stop the enumeration early.
pub fn for_each_map<B>(
    from: &Graph,
    into: &Graph,
    mut visit: impl FnMut(&TermMap) -> ControlFlow<B>,
) -> Option<B> {
    let index = GraphIndex::new(into);
    let pattern = PatternGraph::from_graph_blanks_as_vars(from);
    let solver = Solver::new(&pattern, &index);
    solver.for_each_solution(&mut |b: &Binding| {
        let map = PatternGraph::binding_to_term_map(b);
        visit(&map)
    })
}

/// Collects up to `limit` maps `from → into`.
pub fn all_maps(from: &Graph, into: &Graph, limit: usize) -> Vec<TermMap> {
    let mut out = Vec::new();
    for_each_map(from, into, |map| {
        out.push(map.clone());
        if out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::<()>::Continue(())
        }
    });
    out
}

/// Searches for an *endomorphism avoiding a triple*: a map `μ : g → g` with
/// `μ(g) ⊆ g − {t}` for the given triple `t`. The existence of such a map
/// for some `t ∈ g` is exactly the failure of leanness (Definition 3.7); the
/// `swdb-normal` crate drives this per-triple search.
pub fn find_map_avoiding(g: &Graph, avoid: &swdb_model::Triple) -> Option<TermMap> {
    let mut target = g.clone();
    target.remove(avoid);
    find_map(g, &target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_model::{graph, triple, Term};

    #[test]
    fn map_exists_into_superset() {
        let g1 = graph([("_:X", "ex:p", "ex:a")]);
        let g2 = graph([("ex:b", "ex:p", "ex:a"), ("ex:c", "ex:q", "ex:d")]);
        let map = find_map(&g1, &g2).expect("map must exist");
        assert!(map.is_map_between(&g1, &g2));
        assert!(exists_map(&g1, &g2));
    }

    #[test]
    fn no_map_when_predicate_missing() {
        let g1 = graph([("_:X", "ex:r", "ex:a")]);
        let g2 = graph([("ex:b", "ex:p", "ex:a")]);
        assert!(find_map(&g1, &g2).is_none());
        assert!(!exists_map(&g1, &g2));
    }

    #[test]
    fn ground_source_requires_literal_containment() {
        let g1 = graph([("ex:a", "ex:p", "ex:b")]);
        let g2 = graph([("ex:a", "ex:p", "ex:b"), ("ex:c", "ex:p", "ex:d")]);
        assert!(exists_map(&g1, &g2));
        let g3 = graph([("ex:c", "ex:p", "ex:d")]);
        assert!(!exists_map(&g1, &g3));
    }

    #[test]
    fn blanks_can_map_to_blanks() {
        let g1 = graph([("_:X", "ex:p", "_:Y")]);
        let g2 = graph([("_:A", "ex:p", "_:B")]);
        let map = find_map(&g1, &g2).unwrap();
        assert_eq!(map.apply_graph(&g1), g2);
    }

    #[test]
    fn collapsing_maps_are_found() {
        // G1 has two blanks that must both map onto the single node of G2.
        let g1 = graph([("_:X", "ex:p", "_:Y"), ("_:Y", "ex:p", "_:X")]);
        let g2 = graph([("ex:a", "ex:p", "ex:a")]);
        let map = find_map(&g1, &g2).unwrap();
        assert_eq!(map.apply_term(&Term::blank("X")), Term::iri("ex:a"));
        assert_eq!(map.apply_term(&Term::blank("Y")), Term::iri("ex:a"));
    }

    #[test]
    fn odd_blank_cycle_does_not_map_into_even_one() {
        // Encodes the classical "C5 is not 2-colourable" via blank cycles.
        let c5 = graph([
            ("_:1", "ex:e", "_:2"),
            ("_:2", "ex:e", "_:3"),
            ("_:3", "ex:e", "_:4"),
            ("_:4", "ex:e", "_:5"),
            ("_:5", "ex:e", "_:1"),
            ("_:2", "ex:e", "_:1"),
            ("_:3", "ex:e", "_:2"),
            ("_:4", "ex:e", "_:3"),
            ("_:5", "ex:e", "_:4"),
            ("_:1", "ex:e", "_:5"),
        ]);
        let k2 = graph([("_:a", "ex:e", "_:b"), ("_:b", "ex:e", "_:a")]);
        assert!(!exists_map(&c5, &k2));
        let k3 = graph([
            ("_:a", "ex:e", "_:b"),
            ("_:b", "ex:e", "_:a"),
            ("_:b", "ex:e", "_:c"),
            ("_:c", "ex:e", "_:b"),
            ("_:a", "ex:e", "_:c"),
            ("_:c", "ex:e", "_:a"),
        ]);
        assert!(exists_map(&c5, &k3));
    }

    #[test]
    fn acyclic_fast_path_agrees_with_backtracking() {
        let chain = graph([
            ("_:X", "ex:p", "_:Y"),
            ("_:Y", "ex:q", "_:Z"),
            ("_:Z", "ex:r", "ex:end"),
        ]);
        let data_yes = graph([
            ("ex:1", "ex:p", "ex:2"),
            ("ex:2", "ex:q", "ex:3"),
            ("ex:3", "ex:r", "ex:end"),
        ]);
        let data_no = graph([
            ("ex:1", "ex:p", "ex:2"),
            ("ex:2", "ex:q", "ex:3"),
            ("ex:3", "ex:r", "ex:elsewhere"),
        ]);
        assert!(exists_map(&chain, &data_yes));
        assert!(find_map(&chain, &data_yes).is_some());
        assert!(!exists_map(&chain, &data_no));
        assert!(find_map(&chain, &data_no).is_none());
    }

    #[test]
    fn all_maps_enumerates_distinct_images() {
        let g1 = graph([("_:X", "ex:p", "ex:a")]);
        let g2 = graph([("ex:b", "ex:p", "ex:a"), ("ex:c", "ex:p", "ex:a")]);
        let maps = all_maps(&g1, &g2, 10);
        assert_eq!(maps.len(), 2);
    }

    #[test]
    fn map_avoiding_a_triple_detects_redundancy() {
        // Example 3.8 (G1): (a, p, X), (a, p, Y) — Y's triple is redundant.
        let g1 = graph([("ex:a", "ex:p", "_:X"), ("ex:a", "ex:p", "_:Y")]);
        let redundant = triple("ex:a", "ex:p", "_:Y");
        let map = find_map_avoiding(&g1, &redundant).expect("redundant triple can be avoided");
        assert!(map.apply_graph(&g1).is_proper_subgraph_of(&g1));
        // But the lean graph G2 of Example 3.8 has no such map.
        let g2 = graph([
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
            ("_:X", "ex:q", "ex:b"),
            ("_:Y", "ex:r", "ex:b"),
        ]);
        for t in g2.iter() {
            assert!(
                find_map_avoiding(&g2, t).is_none(),
                "G2 is lean, no triple is redundant"
            );
        }
    }

    #[test]
    fn empty_graph_maps_into_anything() {
        let empty = Graph::new();
        let g = graph([("ex:a", "ex:p", "ex:b")]);
        assert!(exists_map(&empty, &g));
        assert!(exists_map(&empty, &empty));
        assert!(!exists_map(&g, &empty));
    }
}
