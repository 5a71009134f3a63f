//! # swdb-query — the tableau query language
//!
//! Implements §4 and §6 of *Foundations of Semantic Web Databases*:
//!
//! * [`query`](mod@query) — queries `(H, B, P, C)` with premises and must-bind
//!   constraints (Definition 4.1), including the identity query of Note 4.7;
//! * [`answer`](mod@answer) — matchings against `nf(D + P)`, Skolemization of head
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
//!   [`swdb_store::IdIndex`], answers kept as id triples ([`AnswerSet`])
//!   and decoded only into the response buffer (or by `into_graph` for
//!   library callers), with the string-space evaluator kept as the
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
    compile_body, head_has_blank_consts, AnswerSet, CompiledBody, Explain, IdPatternTerm, IdSolver,
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

    /// The bytes are the contract: over `target` (whose triples are
    /// `evaluation`), the union answer of `q` renders to exactly what its
    /// graph serializes to, and that graph is the string-space evaluator's.
    fn check_union_answer(
        q: &crate::Query,
        dictionary: &swdb_store::Dictionary,
        target: &swdb_store::IdIndex,
        evaluation: Graph,
    ) -> Result<(), String> {
        use crate::answer::{answer_against, NormalizedDatabase, Semantics};
        let cache = crate::PlanCache::new(false);
        let engine = crate::QueryEngine {
            dictionary,
            target,
            cache: &cache,
            metrics: swdb_obs::Metrics::disabled(),
            mechanism: crate::Mechanism::PremiseFree,
            non_minimal: false,
        };
        let set = engine.answer_set(q, Semantics::Union);
        let graph = engine.answer(q, Semantics::Union);
        let mut bytes = String::new();
        set.write_ntriples(dictionary, |piece| bytes.push_str(piece));
        prop_assert_eq!(&bytes, &swdb_store::serialize(&graph), "bytes of {q:?}");
        prop_assert_eq!(set.len(), graph.len());
        let spec = NormalizedDatabase::assume_normalized(evaluation);
        let spec = answer_against(q, &spec, Semantics::Union);
        prop_assert_eq!(set.into_graph(dictionary), spec, "answer of {q:?}");
        Ok(())
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn union_answers_render_the_bytes_their_graph_serializes_to(
            d in proptest::collection::vec((0usize..5, 0usize..2, 0usize..5), 0..=24),
            body in proptest::collection::vec((0usize..8, 0usize..5, 0usize..8), 1..=2),
            head in proptest::collection::vec((0usize..9, 0usize..6, 0usize..9), 1..=3),
            constrained in 0usize..8,
            split in 0usize..3,
        ) {
            // A dense store: three URIs (one of them also a predicate) and two blanks
            // under two predicates.
            let term = |c: usize| match c {
                0 | 1 => Term::iri(format!("ex:n{c}")),
                2 => Term::iri("ex:p0"),
                _ => Term::blank(format!("B{c}")),
            };
            let d: Graph = d
                .iter()
                .map(|&(s, p, o)| Triple::new(term(s), swdb_model::Iri::new(format!("ex:p{p}")), term(o)))
                .collect();
            // Body: variables ?V0..?V5 (one of them also usable as a
            // predicate, so a predicate variable can join a node) and the
            // constants the stores are drawn from.
            let node = |c: usize| if c < 6 { format!("?V{c}") } else { format!("ex:n{}", c - 6) };
            let pred = |c: usize| if c < 2 { format!("?V{}", 6 - c) } else { format!("ex:p{}", c % 2) };
            let body: Vec<_> = body.iter().map(|&(s, p, o)| (node(s), pred(p), node(o))).collect();
            let body_vars: Vec<&String> = body
                .iter()
                .flat_map(|(s, p, o)| [s, p, o])
                .filter(|t| t.starts_with('?'))
                .collect();
            // Head: body variables (repeats and projections that drop
            // variables both arise), constants the body also names, and
            // constants nothing ever interned.
            let var = |c: usize| body_vars.get(c % body_vars.len().max(1)).map(|v| v.to_string());
            let head_node = |c: usize| match c {
                0..=4 => var(c).unwrap_or_else(|| "ex:n0".to_string()),
                5 | 6 => format!("ex:n{}", c - 5),
                _ => format!("ex:fresh{c}"),
            };
            let head_pred = |c: usize| match c {
                0 | 1 => var(c).unwrap_or_else(|| "ex:p0".to_string()),
                2 | 3 => format!("ex:p{}", c - 2),
                4 => "ex:n0".to_string(),
                _ => "ex:freshP".to_string(),
            };
            let head: Vec<_> = head
                .iter()
                .map(|&(s, p, o)| (head_node(s), head_pred(p), head_node(o)))
                .collect();
            let strs = |ts: &[(String, String, String)]| {
                swdb_hom::pattern_graph(ts.iter().map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str())))
            };
            let head = strs(&head);
            let constraints = head
                .variables()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| constrained >> i & 1 == 1)
                .map(|(_, v)| v);
            let Ok(q) = crate::Query::with_constraints(head.clone(), strs(&body), constraints) else {
                return Ok(());
            };

            // Regime 1: a bare index.
            let store = swdb_store::TripleStore::from_graph(&d);
            check_union_answer(&q, store.dictionary(), store.id_index(), d.clone())?;

            // Regime 2: the same dictionary under a fork of a published
            // index. Filler triples over fresh terms spread the index over
            // more than one leaf; the fork re-inserts a third of `d` the
            // published index lacks and removes another third, so its scans
            // cross copied and shared chunks.
            let mut published = store.clone();
            let filler = |i: usize| Term::iri(format!("ex:f{i}"));
            for i in 0..96 {
                published.insert(&Triple::new(filler(i), swdb_model::Iri::new("ex:filler"), filler(i + 1)));
            }
            let thirds: Vec<_> = store.iter_ids().enumerate().map(|(i, t)| ((i + split) % 3, t)).collect();
            for &(third, t) in &thirds {
                if third == 0 {
                    published.remove_id_triple(t);
                }
            }
            let mut fork = published.id_index().clone();
            for &(third, t) in &thirds {
                match third {
                    0 => fork.insert(t),
                    1 => fork.remove(t),
                    _ => false,
                };
            }
            let evaluation = fork.iter().map(|t| published.materialize(t)).collect();
            check_union_answer(&q, published.dictionary(), &fork, evaluation)?;
        }
    }
}
