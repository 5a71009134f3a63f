//! # swdb-reason — incremental RDFS inference over the TripleStore
//!
//! The entailment layer (`swdb-entailment`) computes `RDFS-cl(G)`
//! (Definition 2.7, Theorem 3.6) as a whole-graph fixpoint over string
//! terms: correct, and kept as the executable specification, but every
//! mutation pays the full fixpoint again. This crate is the production
//! path: the same rule system (paper rules (2)–(13)), encoded as patterns
//! over interned [`swdb_store::TermId`] triples and evaluated
//! *incrementally*.
//!
//! * [`pattern`] — triple patterns over ids, variable bindings;
//! * [`rules`] — the rule table and the pattern→rule-path index: a delta
//!   triple wakes only the `(rule, hypothesis)` paths its predicate can
//!   match (the inferdf-style indexing);
//! * [`swdb_store::IdIndex`] — the SPO/POS/OSP index the closure lives in;
//! * [`delta`] — [`DeltaClosure`]: semi-naive insert propagation (into the
//!   closure, or into a fork of it for the non-mutating premise preview)
//!   and DRed (overdelete/rederive) deletion — two loops around one kernel;
//! * [`parallel`] — that kernel, the only place a rule fires: one *round*
//!   partitions a frontier by the `(rule, hypothesis)` paths its predicates
//!   wake, joins the shards against an immutable view (the closure index,
//!   or a preview's fork of it) and returns the sorted, deduplicated
//!   conclusions for the single-threaded caller to commit as
//!   the next frontier. [`DeltaClosure::set_threads`] /
//!   [`MaterializedStore::set_threads`] set a *worker ceiling* — a large
//!   round spawns at most that many `std::thread::scope` workers, `1`
//!   never spawns — and nothing else: the rules are monotone, the closure
//!   is a set and every round is sorted, so the closure, both delta logs
//!   (as sequences) and the counters are the same at every count. The
//!   differential tests under `tests/` sweep thread counts and pin all of
//!   it against `swdb_entailment::rdfs_closure`;
//! * [`materialized`] — [`MaterializedStore`]: a [`swdb_store::TripleStore`]
//!   plus its maintained closure, with closure-answered pattern scans.
//!
//! ## Example
//!
//! ```
//! use swdb_model::{graph, rdfs, triple};
//! use swdb_reason::MaterializedStore;
//!
//! let mut m = MaterializedStore::from_graph(&graph([
//!     ("ex:Painter", rdfs::SC, "ex:Artist"),
//!     ("ex:Picasso", rdfs::TYPE, "ex:Painter"),
//! ]));
//! assert!(m.closure_contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Artist")));
//!
//! // Deltas maintain the closure without recomputing it.
//! m.remove(&triple("ex:Painter", rdfs::SC, "ex:Artist"));
//! assert!(!m.closure_contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Artist")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod materialized;
pub mod parallel;
pub mod pattern;
pub mod rules;

pub use delta::DeltaClosure;
pub use materialized::{ClosureDelta, MaterializedStore};
pub use rules::{Rule, RuleSystem, Vocabulary};
pub use swdb_store::IdIndex;

#[cfg(test)]
mod spec_tests {
    //! The delta engine against its executable specifications:
    //! `swdb_entailment::rdfs_closure` (optimised fixpoint) and
    //! `swdb_entailment::naive_closure` (textbook rule application).

    use proptest::prelude::*;
    use swdb_entailment::{naive_closure, rdfs_closure};
    use swdb_model::{rdfs, Graph, Term, Triple};

    use crate::MaterializedStore;

    /// Random graphs mixing plain data with RDFS vocabulary triples —
    /// including blank nodes and pathological shapes like `(p, sp, sc)`,
    /// where a reserved term sits in a node position and ordinary triples
    /// get re-routed into the vocabulary relations.
    fn arb_rdfs_graph(max_triples: usize) -> impl Strategy<Value = Graph> {
        let node = prop_oneof![
            5 => (0u8..5).prop_map(|i| Term::iri(format!("ex:n{i}"))),
            2 => (0u8..3).prop_map(|i| Term::blank(format!("B{i}"))),
            1 => (0u8..5).prop_map(|i| {
                Term::Iri(match i {
                    0 => rdfs::sp(),
                    1 => rdfs::sc(),
                    2 => rdfs::type_(),
                    3 => rdfs::dom(),
                    _ => rdfs::range(),
                })
            }),
        ];
        let plain_pred = (0u8..3).prop_map(|i| Term::iri(format!("ex:p{i}")));
        let vocab_pred = (0u8..5).prop_map(|i| {
            Term::Iri(match i {
                0 => rdfs::sp(),
                1 => rdfs::sc(),
                2 => rdfs::type_(),
                3 => rdfs::dom(),
                _ => rdfs::range(),
            })
        });
        let pred = prop_oneof![plain_pred, vocab_pred.clone(), vocab_pred];
        let triple = (node.clone(), pred, node).prop_map(|(s, p, o)| {
            let p = p.as_iri().expect("predicates are IRIs").clone();
            Triple::new(s, p, o)
        });
        proptest::collection::vec(triple, 0..=max_triples).prop_map(Graph::from_triples)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn delta_closure_equals_rdfs_closure(g in arb_rdfs_graph(14)) {
            let materialized = MaterializedStore::from_graph(&g);
            prop_assert_eq!(materialized.closure_graph(), rdfs_closure(&g));
        }

        #[test]
        fn delta_closure_equals_naive_closure(g in arb_rdfs_graph(7)) {
            let materialized = MaterializedStore::from_graph(&g);
            prop_assert_eq!(materialized.closure_graph(), naive_closure(&g));
        }

        #[test]
        fn deletion_rolls_back_to_the_recomputed_closure(
            g in arb_rdfs_graph(10),
            victim in 0u8..10,
        ) {
            let mut materialized = MaterializedStore::from_graph(&g);
            let triples: Vec<Triple> = g.iter().cloned().collect();
            if triples.is_empty() {
                return Ok(());
            }
            let victim = triples[victim as usize % triples.len()].clone();
            materialized.remove(&victim);
            let mut reduced = g.clone();
            reduced.remove(&victim);
            prop_assert_eq!(materialized.closure_graph(), rdfs_closure(&reduced));
        }

        #[test]
        fn delta_closure_matches_spec_on_workload_schema_graphs(seed in 0u64..1024) {
            let g = swdb_workloads::schema_graph(
                &swdb_workloads::SchemaGraphConfig {
                    classes: 6,
                    properties: 3,
                    edge_probability: 0.3,
                    instances: 8,
                    data_triples: 10,
                },
                seed,
            );
            let materialized = MaterializedStore::from_graph(&g);
            prop_assert_eq!(materialized.closure_graph(), rdfs_closure(&g));
        }

        #[test]
        fn workload_graphs_survive_interleaved_mutation(
            seed in 0u64..1024,
            ops in proptest::collection::vec((0u8..2, 0u8..32), 1..10),
        ) {
            let g = swdb_workloads::schema_graph(
                &swdb_workloads::SchemaGraphConfig {
                    classes: 5,
                    properties: 3,
                    edge_probability: 0.35,
                    instances: 6,
                    data_triples: 8,
                },
                seed,
            );
            let pool: Vec<Triple> = g.iter().cloned().collect();
            if pool.is_empty() {
                return Ok(());
            }
            let mut materialized = MaterializedStore::from_graph(&g);
            let mut shadow = g.clone();
            for (op, pick) in ops {
                let t = pool[pick as usize % pool.len()].clone();
                if op == 0 {
                    materialized.insert(&t);
                    shadow.insert(t);
                } else {
                    materialized.remove(&t);
                    shadow.remove(&t);
                }
            }
            prop_assert_eq!(materialized.closure_graph(), rdfs_closure(&shadow));
        }

        #[test]
        fn interleaved_inserts_and_deletes_track_recomputation(
            g in arb_rdfs_graph(10),
            ops in proptest::collection::vec((0u8..2, 0u8..16), 1..12),
        ) {
            // Replay a random edit script drawn from the triple pool of `g`
            // against both the incremental engine and a shadow graph, and
            // compare against full recomputation after every step.
            let pool: Vec<Triple> = g.iter().cloned().collect();
            if pool.is_empty() {
                return Ok(());
            }
            let mut materialized = MaterializedStore::new();
            let mut shadow = Graph::new();
            for (op, pick) in ops {
                let t = pool[pick as usize % pool.len()].clone();
                if op == 0 {
                    materialized.insert(&t);
                    shadow.insert(t);
                } else {
                    materialized.remove(&t);
                    shadow.remove(&t);
                }
                prop_assert_eq!(
                    materialized.closure_graph(),
                    rdfs_closure(&shadow),
                    "divergence after op {:?} on {}",
                    op,
                    shadow
                );
            }
        }
    }
}
