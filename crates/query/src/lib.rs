//! # swdb-query — the tableau query language
//!
//! Implements §4 and §6 of *Foundations of Semantic Web Databases*:
//!
//! * [`query`] — queries `(H, B, P, C)` with premises and must-bind
//!   constraints (Definition 4.1), including the identity query of Note 4.7;
//! * [`answer`] — matchings against `nf(D + P)`, Skolemization of head
//!   blanks, pre-answers, union- and merge-semantics answers
//!   (Definition 4.3, Propositions 4.5/4.6);
//! * [`premise`] — premise elimination into unions of premise-free queries
//!   (Proposition 5.9, Example 5.10);
//! * [`redundancy`] — redundancy elimination in answers and the polynomial
//!   leanness check for merge semantics (Theorems 6.2/6.3);
//! * [`engine`] — the production read path: [`QueryEngine`] implements
//!   answer / pre-answer / emptiness / explain once, over a list of
//!   premise-free member queries against one id-space target;
//! * [`plan`] — the cost-based planner and the shape-keyed plan cache every
//!   execution goes through;
//! * [`exec`] — the one executor: premise-free bodies compiled to
//!   [`swdb_store::TermId`] patterns and joined in planned order against a
//!   [`swdb_store::IdIndex`], with the string-space evaluator kept as the
//!   executable specification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod engine;
pub mod exec;
pub mod plan;
pub mod premise;
pub mod query;
pub mod redundancy;
pub mod syntax;

pub use crate::query::{query, Query, QueryError};
pub use answer::{
    answer, answer_against, answer_is_empty, answer_merge, answer_union, combine, matchings,
    matchings_against, pre_answers, pre_answers_against, satisfies_constraints, select,
    single_answer, NormalizedDatabase, Semantics,
};
pub use engine::{id_matchings, planned_answer, planned_answer_is_empty, Mechanism, QueryEngine};
pub use exec::{
    compile_body, head_has_blank_consts, CompiledBody, Explain, IdPatternTerm, IdSolver,
    IdTriplePattern,
};
pub use plan::{expansion_members, PlanCache, QueryShape, PLAN_CACHE_CAPACITY};
pub use premise::{answer_union_of_queries, premise_free_expansion};
pub use redundancy::{
    answer_is_lean, eliminate_redundancy, merge_answer_is_lean, merge_answer_redundancy,
    MergeRedundancy,
};
pub use syntax::{format_query, parse_query, SyntaxError};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use swdb_model::{Graph, Term, Triple};

    use crate::answer::{answer_merge, answer_union};
    use crate::query::query;

    fn arb_simple_graph(max_triples: usize) -> impl Strategy<Value = Graph> {
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
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn identity_query_union_answer_is_equivalent_to_database(d in arb_simple_graph(6)) {
            let q = crate::query::Query::identity();
            let ans = answer_union(&q, &d);
            prop_assert!(swdb_entailment::equivalent(&ans, &d));
        }

        #[test]
        fn union_answer_entails_merge_answer(d in arb_simple_graph(6)) {
            let q = query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]);
            let union = answer_union(&q, &d);
            let merge = answer_merge(&q, &d);
            prop_assert!(swdb_entailment::entails(&union, &merge));
        }

        #[test]
        fn answers_are_isomorphism_invariant(d in arb_simple_graph(6)) {
            let renamed = swdb_model::rename_blanks_sequentially(&d, "zz");
            let q = query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]);
            let a1 = answer_union(&q, &d);
            let a2 = answer_union(&q, &renamed);
            prop_assert!(swdb_model::isomorphic(&a1, &a2));
        }

        #[test]
        fn answers_are_monotone_in_the_database(d in arb_simple_graph(6)) {
            // D ⊆ D' implies D' ⊨ D, hence ans(q, D') ⊨ ans(q, D)
            // (Proposition 4.5(1)).
            let q = query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]);
            let mut extended = d.clone();
            extended.insert(Triple::new(Term::iri("ex:extra"), swdb_model::Iri::new("ex:p0"), Term::iri("ex:extra2")));
            let strong = answer_union(&q, &extended);
            let weak = answer_union(&q, &d);
            prop_assert!(swdb_entailment::entails(&strong, &weak));
        }

        #[test]
        fn empty_databases_give_empty_answers(_x in 0u8..1) {
            let q = query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]);
            prop_assert!(answer_union(&q, &Graph::new()).is_empty());
            prop_assert!(crate::answer::answer_is_empty(&q, &Graph::new()));
        }

        #[test]
        fn id_space_matchings_equal_string_space_matchings(d in arb_simple_graph(8)) {
            // Engine equivalence over the *same* evaluation graph: the
            // id-space join must enumerate exactly the matchings the
            // string-space solver does, blanks and variable predicates
            // included.
            let store = swdb_store::TripleStore::from_graph(&d);
            let normalized = crate::answer::NormalizedDatabase::assume_normalized(d.clone());
            let queries = [
                query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]),
                query([("?X", "?P", "?Y")], [("?X", "?P", "?Y")]),
                query(
                    [("?X", "ex:p0", "?Z")],
                    [("?X", "ex:p0", "?Y"), ("?Y", "ex:p1", "?Z")],
                ),
                query([("?X", "ex:p0", "?X")], [("?X", "ex:p0", "?X")]),
                query([("ex:n0", "ex:p1", "?Y")], [("ex:n0", "ex:p1", "?Y")]),
            ];
            for q in &queries {
                let mut id = crate::id_matchings(q, store.dictionary(), store.id_index());
                let mut spec = crate::answer::matchings_against(q, &normalized);
                id.sort();
                spec.sort();
                prop_assert_eq!(id, spec);
            }
        }
    }
}
