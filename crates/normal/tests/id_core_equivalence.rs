//! The incremental id-space core engine against its executable
//! specification: on random blank-heavy graphs, across interleaved inserts
//! and deletes, the engine's published index must stay isomorphic to
//! `swdb_normal::core` of the current triple set (the core is unique up to
//! isomorphism — Theorem 3.10 — so isomorphism is exactly the contract).

use proptest::prelude::*;
use swdb_model::{isomorphic, Graph, Iri, Term, Triple};
use swdb_normal::{core, is_lean, CoreBudget, CoreBudgetMode, IdCoreEngine};
use swdb_store::{IdIndex, IdTriple, TripleStore};

/// Blank-heavy triples over a tight label pool: five reusable blanks and
/// four URIs force shared labels, multi-triple components and plenty of
/// folding opportunities.
fn arb_triple() -> impl Strategy<Value = Triple> {
    let node = prop_oneof![
        2 => (0u8..4).prop_map(|i| Term::iri(format!("ex:n{i}"))),
        3 => (0u8..5).prop_map(|i| Term::blank(format!("B{i}"))),
    ];
    let pred = (0u8..2).prop_map(|i| Iri::new(format!("ex:p{i}")));
    (node.clone(), pred, node).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

fn decoded_eval(store: &TripleStore, index: &IdIndex) -> Graph {
    index.iter().map(|ids| store.materialize(ids)).collect()
}

fn assert_engine_matches_spec(store: &TripleStore, engine: &IdCoreEngine, context: &str) {
    let published = decoded_eval(store, engine.index());
    let expected = core(&store.to_graph());
    assert!(is_lean(&published), "{context}: published index not lean");
    assert!(
        isomorphic(&published, &expected),
        "{context}: engine {published} vs spec core {expected} of {}",
        store.to_graph()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cold_build_is_the_core(triples in proptest::collection::vec(arb_triple(), 0..12)) {
        let graph = Graph::from_triples(triples);
        let store = TripleStore::from_graph(&graph);
        let engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        assert_engine_matches_spec(&store, &engine, "cold build");
    }

    #[test]
    fn interleaved_mutations_track_the_core(
        initial in proptest::collection::vec(arb_triple(), 0..8),
        ops in proptest::collection::vec((0u8..2, arb_triple()), 1..12),
    ) {
        let graph = Graph::from_triples(initial);
        let mut store = TripleStore::from_graph(&graph);
        let mut engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        for (step, (op, t)) in ops.into_iter().enumerate() {
            if op == 0 {
                let (ids, added) = store.insert_with_ids(&t);
                if added {
                    engine.apply_delta(&[ids], &[], store.dictionary());
                }
            } else if let Some(ids) = store.remove_with_ids(&t) {
                engine.apply_delta(&[], &[ids], store.dictionary());
            }
            assert_engine_matches_spec(&store, &engine, &format!("step {step} ({t})"));
        }
    }

    #[test]
    fn batch_load_equals_triple_by_triple(
        triples in proptest::collection::vec(arb_triple(), 0..10),
    ) {
        // One batched delta and a per-triple drip must converge on the same
        // core (apply_delta is batch-shaped for insert_graph).
        let graph = Graph::from_triples(triples);
        let mut store = TripleStore::new();
        let ids: Vec<_> = graph
            .iter()
            .map(|t| store.insert_with_ids(t).0)
            .collect();
        let mut batched = IdCoreEngine::new();
        batched.apply_delta(&ids, &[], store.dictionary());
        let mut dripped = IdCoreEngine::new();
        for &t in &ids {
            dripped.apply_delta(&[t], &[], store.dictionary());
        }
        let a = decoded_eval(&store, batched.index());
        let b = decoded_eval(&store, dripped.index());
        prop_assert!(isomorphic(&a, &b), "batched {a} vs dripped {b}");
        assert_engine_matches_spec(&store, &batched, "batched load");
    }

    #[test]
    fn the_overlay_is_what_committing_would_publish(
        base in proptest::collection::vec(arb_triple(), 0..10),
        delta in proptest::collection::vec(arb_triple(), 1..6),
        budget in prop_oneof![
            Just(CoreBudgetMode::Unlimited),
            (0u64..40).prop_map(|n| CoreBudgetMode::Budgeted(CoreBudget::steps(n))),
        ],
    ) {
        // The fork puts the delta through `apply_delta`'s own insert half,
        // against a clone of the index a commit searches, so it must *be*
        // what a commit would publish: the same triples and the same flag.
        let base = Graph::from_triples(base);
        let mut store = TripleStore::from_graph(&base);
        let ids: Vec<IdTriple> = store.iter_ids().collect();
        let mut engine = IdCoreEngine::new();
        engine.set_core_budget(budget);
        engine.apply_delta(&ids, &[], store.dictionary());
        let union = base.union(&Graph::from_triples(delta.clone()));
        let delta: Vec<IdTriple> = delta
            .iter()
            .map(|t| {
                let s = store.intern(t.subject());
                let p = store.intern(&Term::Iri(t.predicate().clone()));
                let o = store.intern(t.object());
                (s, p, o)
            })
            .filter(|&t| !engine.maintains(t))
            .collect();
        let published_before = engine.index().clone();
        let fork = engine.overlay_core(&delta, store.dictionary());
        prop_assert_eq!(engine.index(), &published_before, "the engine's own index moved");
        let forked = decoded_eval(&store, &fork.index);
        // Sound whatever the budget: nothing invented, nothing of the core
        // lost — and an unflagged fork is the core itself.
        let spec = core(&union);
        prop_assert!(forked.is_subgraph_of(&union));
        prop_assert!(isomorphic(&core(&forked), &spec), "{forked} vs {spec} under {budget:?}");
        prop_assert!(fork.non_minimal || isomorphic(&forked, &spec), "unflagged {forked}");
        let mut committed = engine.clone();
        committed.apply_delta(&delta, &[], store.dictionary());
        prop_assert_eq!(&fork.index, committed.index(), "fork vs commit under {:?}", budget);
        prop_assert_eq!(fork.non_minimal, committed.is_degraded());
    }
}
