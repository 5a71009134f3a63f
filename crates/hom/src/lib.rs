//! # swdb-hom — homomorphism and pattern-matching engine
//!
//! The algorithmic heart of the reproduction: searching for maps
//! `μ : G1 → G2` between RDF graphs (§2.1, §2.4 of *Foundations of Semantic
//! Web Databases*) and, more generally, matching conjunctions of triple
//! patterns with variables against a target graph. Everything above this
//! crate (entailment, leanness, cores, query answering, containment) is a
//! thin layer of orchestration over these searches.
//!
//! * [`pattern`](mod@pattern) — triple patterns, pattern graphs, bindings
//!   (valuations), and the `Q_G` translation of §2.4.
//! * [`index`] — per-predicate / per-position indexes of the target graph.
//! * [`solve`] — the backtracking matcher with dynamic most-constrained-first
//!   join ordering.
//! * [`id_solve`] — the dictionary-encoded generalization of the matcher:
//!   `TermId` patterns joined directly over an `swdb_store::IdIndex`, with
//!   pluggable targets (including the `G − {t}` view of the retraction
//!   search). It drives three consumers — the query executor, the core's
//!   retraction search and the RDFS rule joins of `swdb-reason` — and its
//!   one search entry extends a caller's binding (a delta triple unified
//!   into a rule hypothesis), leaving it as it found it. One recursive loop
//!   runs both ordering policies: dynamic most-constrained-first, or a
//!   static plan.
//! * [`acyclic`] — blank-induced-cycle detection, GYO α-acyclicity, and the
//!   polynomial semijoin evaluation for acyclic patterns (the paper's
//!   polynomial special cases of entailment).
//! * [`maps`] — RDF-map search built on top of the matcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acyclic;
pub mod id_solve;
pub mod index;
pub mod maps;
pub mod pattern;
pub mod solve;

pub use acyclic::{acyclic_exists, has_blank_induced_cycle, is_acyclic_pattern};
pub use id_solve::{Avoiding, IdPatternTerm, IdSolver, IdTarget, IdTriplePattern, JoinOrderLog};
pub use index::GraphIndex;
pub use maps::{
    all_maps, exists_map, exists_map_indexed, find_map, find_map_avoiding, find_map_indexed,
    for_each_map,
};
pub use pattern::{
    parse_pattern_term, pattern, pattern_graph, Binding, PatternGraph, PatternTerm, TriplePattern,
    Variable,
};
pub use solve::{match_pattern, most_constrained, pattern_matches, Solver, DEFAULT_SOLUTION_LIMIT};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use swdb_model::{Graph, Term, Triple};

    use crate::maps::{exists_map, find_map};

    fn arb_graph(max_triples: usize) -> impl Strategy<Value = Graph> {
        let term = prop_oneof![
            (0u8..5).prop_map(|i| Term::iri(format!("ex:n{i}"))),
            (0u8..3).prop_map(|i| Term::blank(format!("B{i}"))),
        ];
        let pred = (0u8..2).prop_map(|i| swdb_model::Iri::new(format!("ex:p{i}")));
        proptest::collection::vec((term.clone(), pred, term), 0..=max_triples).prop_map(|ts| {
            ts.into_iter()
                .map(|(s, p, o)| Triple::new(s, p, o))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn found_maps_are_valid(g1 in arb_graph(6), g2 in arb_graph(6)) {
            if let Some(map) = find_map(&g1, &g2) {
                prop_assert!(map.is_map_between(&g1, &g2));
            }
        }

        #[test]
        fn exists_and_find_agree(g1 in arb_graph(5), g2 in arb_graph(5)) {
            prop_assert_eq!(exists_map(&g1, &g2), find_map(&g1, &g2).is_some());
        }

        #[test]
        fn every_graph_maps_into_itself(g in arb_graph(8)) {
            prop_assert!(exists_map(&g, &g));
        }

        #[test]
        fn subgraphs_map_into_supergraphs(g in arb_graph(8)) {
            let half: Graph = g.iter().take(g.len() / 2).cloned().collect();
            prop_assert!(exists_map(&half, &g));
        }

        #[test]
        fn mapping_is_transitive(g1 in arb_graph(4), g2 in arb_graph(4), g3 in arb_graph(4)) {
            if exists_map(&g1, &g2) && exists_map(&g2, &g3) {
                prop_assert!(exists_map(&g1, &g3));
            }
        }

        #[test]
        fn grounding_blanks_preserves_mapping_into_target(g in arb_graph(6)) {
            // G always maps into its Skolemization (send each blank to its
            // constant), mirroring Proposition 5.4's use of grounding.
            let grounded = swdb_model::skolemize(&g);
            prop_assert!(exists_map(&g, &grounded));
        }
    }
}
