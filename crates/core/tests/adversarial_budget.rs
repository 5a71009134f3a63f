//! End-to-end degraded-mode tests: adversarial blank structure from
//! `swdb_workloads::hard` pushed through the full facade under a core
//! budget, with counter ceilings where an unbudgeted engine would stall.
//!
//! The soundness contract under test (module docs of `swdb_normal::id_core`):
//! a budget never changes *what is entailed* — the published evaluation
//! graph is always a superset of the true core and equivalent to it — it
//! only costs minimality, and that loss is flagged (`non_minimal`,
//! `is_degraded`, the `degraded` metrics block) and recoverable
//! (`refresh_degraded` under a lifted budget).

use std::time::{Duration, Instant};

use proptest::prelude::*;
use swdb_core::{
    CoreBudget, CoreBudgetMode, EntailmentRegime, MetricsLevel, SemanticWebDatabase, Semantics,
};
use swdb_model::{Graph, Term, Triple};
use swdb_query::query;

fn all_triples_query() -> swdb_query::Query {
    query([("?S", "?P", "?O")], [("?S", "?P", "?O")])
}

/// The acceptance scenario: a blank clique whose leanness proof is an
/// NP-hard search an unbudgeted engine would sit in for minutes
/// (`enc(K_11)`; see `blank_clique`'s docs), refreshed under a step and
/// wall-clock budget. The refresh must stop where the budget says, report
/// exhaustion, and still publish every triple — `enc(K_n)` *is* lean, so
/// the sound superset is exactly the input and only the proof is missing.
#[test]
fn blank_clique_refresh_is_bounded_by_the_budget() {
    const STEPS: u64 = 1_000_000;
    let clique = swdb_workloads::blank_clique(11);
    let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
    db.set_metrics_level(MetricsLevel::Counters);
    db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget {
        steps: Some(STEPS),
        millis: Some(500),
    }));
    db.insert_graph(&clique);
    let t0 = Instant::now();
    let (answers, non_minimal) = db.answer_with_status(&all_triples_query(), Semantics::Union);
    // A hang guard only — the bound itself is pinned in slices and searches
    // below, which do not depend on how fast this host is today.
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "budgeted refresh took {elapsed:?}"
    );
    assert!(non_minimal, "the abandoned proof must be reported");
    assert!(db.is_degraded());
    assert_eq!(db.uncored_components(), 1);
    assert_eq!(db.uncored_triples(), clique.len());
    assert_eq!(
        answers.len(),
        clique.len(),
        "K11's encoding is lean: nothing may be dropped"
    );
    let snap = db.metrics().snapshot();
    // The cold build cores the one component once, in the one sweep of
    // its refresh, under one slice; the bounds below allow a second slice.
    // A search spends at least one step, so a slice starts at most one
    // search more than it has steps.
    let exhausted = snap.degraded.core_budget_exhausted;
    assert!((1..=2).contains(&exhausted), "{exhausted} slices ran out");
    let searches = snap.counter("core_retraction_searches");
    assert!(
        searches <= 2 * (STEPS + 1),
        "{searches} searches under {STEPS} steps a slice"
    );
    assert!(snap.degraded.active());
}

/// The hidden-fold family: the component *can* be cored away (onto the
/// ground triangle) but the search is the hidden-colouring search. Under a
/// tiny step budget the published graph is a flagged, equivalent superset;
/// lifting the budget and retrying recovers the true core exactly.
#[test]
fn hidden_fold_degrades_soundly_and_recovers_when_lifted() {
    let instance = swdb_workloads::hidden_fold_instance(10, 0.5, 7);
    let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
    db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(20)));
    db.insert_graph(&instance);
    let q = all_triples_query();
    let (answers, non_minimal) = db.answer_with_status(&q, Semantics::Union);
    let spec = db.answer_recomputed(&q, Semantics::Union);
    assert!(
        spec.is_subgraph_of(&answers),
        "degradation may only add redundancy, never drop answers"
    );
    assert!(swdb_entailment::simple_equivalent(&answers, &spec));
    if non_minimal {
        assert!(db.is_degraded());
    }
    // Quiet moment: lift the budget and retry every uncored component.
    db.set_core_budget(CoreBudgetMode::Unlimited);
    assert!(db.refresh_degraded());
    assert!(!db.is_degraded());
    let (recovered, non_minimal) = db.answer_with_status(&q, Semantics::Union);
    assert!(!non_minimal);
    assert!(swdb_model::isomorphic(&recovered, &spec));
    assert!(
        recovered.is_ground(),
        "every blank folded onto the triangle"
    );
}

/// The wide-fan family: budget slicing across many tiny components, and
/// the retry loop's behaviour when the retry budget is itself too small.
#[test]
fn wide_fan_slices_per_component_and_retries_monotonically() {
    let fan = swdb_workloads::wide_blank_fan(32);
    let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
    db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
    db.insert_graph(&fan);
    let q = all_triples_query();
    let (answers, non_minimal) = db.answer_with_status(&q, Semantics::Union);
    assert!(non_minimal);
    assert_eq!(
        db.uncored_components(),
        32,
        "one slice per spoke, all too small"
    );
    assert_eq!(answers.len(), 33);
    // A retry under the same starved budget makes no progress — and says so.
    assert!(!db.refresh_degraded());
    assert!(db.is_degraded());
    // Under a lifted budget the retry recovers every component.
    db.set_core_budget(CoreBudgetMode::Unlimited);
    assert!(db.refresh_degraded());
    assert!(!db.is_degraded());
    let (recovered, non_minimal) = db.answer_with_status(&q, Semantics::Union);
    assert!(!non_minimal);
    assert_eq!(recovered.len(), 1, "the fan cores to its ground absorber");
}

/// The deep-chain family: a large but benign component must *not* degrade
/// under a realistic budget — the chain is its own core and the per-blank
/// searches are cheap.
#[test]
fn deep_chains_complete_within_a_realistic_budget() {
    let chain = swdb_workloads::deep_blank_chain(24);
    let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
    db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget {
        steps: Some(50_000_000),
        millis: Some(30_000),
    }));
    db.insert_graph(&chain);
    let (answers, non_minimal) = db.answer_with_status(&all_triples_query(), Semantics::Union);
    assert!(!non_minimal, "a benign deep chain must not trip the budget");
    assert!(!db.is_degraded());
    assert_eq!(answers.len(), chain.len());
}

// ----- satellite: the budget-soundness property -----

fn arb_graph(max_triples: usize) -> impl Strategy<Value = Graph> {
    let node = prop_oneof![
        (0u8..4).prop_map(|i| Term::iri(format!("ex:n{i}"))),
        (0u8..3).prop_map(|i| Term::blank(format!("B{i}"))),
    ];
    let triple = (node.clone(), 0u8..2, node)
        .prop_map(|(s, p, o)| Triple::new(s, swdb_model::Iri::new(format!("ex:p{p}")), o));
    proptest::collection::vec(triple, 0..=max_triples).prop_map(Graph::from_triples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every graph and every (possibly starving) step budget: the
    /// budgeted evaluation graph is a superset of the unbudgeted one,
    /// equivalent to it, and flagged iff it differs; and once the budget is
    /// lifted and the uncored components re-cored, the two evaluation
    /// graphs are isomorphic.
    #[test]
    fn budget_exhausted_refresh_is_sound_and_recoverable(
        g in arb_graph(8),
        steps in 1u64..200,
    ) {
        let mut budgeted = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        budgeted.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(steps)));
        budgeted.insert_graph(&g);
        let mut exact = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        exact.set_core_budget(CoreBudgetMode::Unlimited);
        exact.insert_graph(&g);

        let degraded_eval = budgeted.evaluation_graph();
        let exact_eval = exact.evaluation_graph();
        prop_assert!(exact_eval.is_subgraph_of(&degraded_eval));
        prop_assert!(swdb_entailment::simple_equivalent(&degraded_eval, &exact_eval));
        if degraded_eval.len() > exact_eval.len() {
            prop_assert!(budgeted.is_degraded(), "extra triples must be flagged");
        }

        // Certain (ground) answers agree even while degraded: redundancy
        // only ever adds blank-mentioning matches.
        let q = query([("?S", "?P", "?O")], [("?S", "?P", "?O")]);
        let from_degraded = budgeted.answer(&q, Semantics::Union);
        let from_exact = exact.answer(&q, Semantics::Union);
        for t in from_exact.iter().filter(|t| t.is_ground()) {
            prop_assert!(from_degraded.contains(t));
        }

        // Lifting the budget recovers the true core exactly.
        budgeted.set_core_budget(CoreBudgetMode::Unlimited);
        prop_assert!(budgeted.refresh_degraded());
        prop_assert!(!budgeted.is_degraded());
        prop_assert!(swdb_model::isomorphic(
            &budgeted.evaluation_graph(),
            &exact_eval
        ));
    }
}
