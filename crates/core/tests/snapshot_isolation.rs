//! Snapshot-isolation contract of the publication layer
//! (`swdb_core::publish`): a pinned [`PublishedSnapshot`] is bit-identical
//! before, during, and after concurrent writer mutations — across writer
//! worker ceilings (`set_threads` 1 vs 4) — and the degraded flags a
//! reader observes are the ones of the substrate it actually answers from
//! (the snapshot), not the writer's current state.

use std::sync::Arc;

use swdb_core::{
    CoreBudget, CoreBudgetMode, EntailmentRegime, PublishedSnapshot, SemanticWebDatabase, Semantics,
};
use swdb_model::{graph, rdfs, Graph};
use swdb_query::query;
use swdb_store::IdTriple;

fn sample_graph(n: usize) -> Graph {
    let mut g = graph([
        ("ex:paints", rdfs::SP, "ex:creates"),
        ("ex:creates", rdfs::DOM, "ex:Artist"),
    ]);
    for i in 0..n {
        g.insert(swdb_model::triple(
            format!("ex:artist{i}").as_str(),
            "ex:paints",
            format!("ex:work{i}").as_str(),
        ));
    }
    g
}

fn creators_query() -> swdb_query::Query {
    query([("?X", "ex:creates", "?Y")], [("?X", "ex:creates", "?Y")])
}

fn index_bits(snapshot: &PublishedSnapshot) -> Vec<IdTriple> {
    snapshot.index().iter().collect()
}

/// The differential pin: one pinned snapshot, a writer hammering
/// insert/remove/publish on the live database from the main thread, and
/// reader threads answering on the pin throughout. Every observation —
/// the raw id-index bits and the answer graphs — must be identical to the
/// pre-mutation baseline, under a writer that never spawns (1) and one
/// that may spawn four workers per round (4).
#[test]
fn pinned_snapshot_is_bit_identical_under_concurrent_writer_mutations() {
    let mut by_thread_count: Vec<Graph> = Vec::new();
    for threads in [1usize, 4] {
        let mut db = SemanticWebDatabase::from_graph(sample_graph(40));
        db.set_threads(threads);
        let reader = db.reader();
        let pinned = reader.pin();
        let epoch0 = pinned.epoch();
        let baseline_bits = index_bits(&pinned);
        let baseline_answer = pinned.answer(&creators_query(), Semantics::Union).unwrap();
        assert!(!baseline_answer.is_empty());

        // Readers answer on the pin while the writer below mutates.
        let observers: Vec<_> = (0..3)
            .map(|_| {
                let pinned: Arc<PublishedSnapshot> = Arc::clone(&pinned);
                std::thread::spawn(move || {
                    let mut answers = Vec::new();
                    for _ in 0..20 {
                        answers.push(pinned.answer(&creators_query(), Semantics::Union).unwrap());
                    }
                    answers
                })
            })
            .collect();

        for round in 0..10 {
            db.insert_graph(&graph([
                (
                    format!("ex:new{round}").as_str(),
                    "ex:paints",
                    "ex:something",
                ),
                (format!("ex:new{round}").as_str(), rdfs::TYPE, "ex:Artist"),
            ]));
            db.remove(&swdb_model::triple(
                format!("ex:artist{round}").as_str(),
                "ex:paints",
                format!("ex:work{round}").as_str(),
            ));
            db.publish();
        }

        for observer in observers {
            for observed in observer.join().unwrap() {
                assert_eq!(
                    observed, baseline_answer,
                    "threads={threads}: a pinned snapshot's answers drifted under writes"
                );
            }
        }
        assert_eq!(pinned.epoch(), epoch0, "a pin never changes epoch");
        assert_eq!(
            index_bits(&pinned),
            baseline_bits,
            "threads={threads}: the pinned id index must be bit-identical after mutations"
        );
        // A fresh pin sees the writer's latest publication instead.
        let fresh = reader.pin();
        assert!(fresh.epoch() > epoch0);
        assert_ne!(index_bits(&fresh), baseline_bits);
        by_thread_count.push(fresh.answer(&creators_query(), Semantics::Union).unwrap());
    }
    // And the published read state does not depend on the worker ceiling:
    // both writers publish identical answers.
    assert_eq!(
        by_thread_count[0], by_thread_count[1],
        "published snapshots must be identical across thread counts 1 vs 4"
    );
}

/// `answer_with_status` degraded flags ride the published snapshot: a pin
/// taken while the engine was budget-exhausted keeps reporting
/// `non_minimal` after the live database recovers, and a fresh pin reports
/// the recovery.
#[test]
fn degraded_flags_ride_the_published_snapshot() {
    let clique = swdb_workloads::blank_clique(7);
    let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
    db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(5)));
    db.insert_graph(&clique);
    let reader = db.reader();
    let degraded_pin = reader.pin();
    assert!(
        db.is_degraded(),
        "the step budget must exhaust on the clique"
    );
    assert!(degraded_pin.non_minimal());
    let q = query([("?S", "?P", "?O")], [("?S", "?P", "?O")]);
    let (answer, non_minimal) = degraded_pin
        .answer_with_status(&q, Semantics::Union)
        .unwrap();
    assert!(non_minimal, "the degraded flag must ride the snapshot");
    assert_eq!(
        answer.len(),
        clique.len(),
        "degradation never drops answers"
    );

    // Recover the live database and publish the recovery.
    db.set_core_budget(CoreBudgetMode::Unlimited);
    assert!(db.refresh_degraded());
    db.publish();

    // The old pin still answers from — and reports — the degraded
    // substrate; a fresh pin reports the recovered one.
    assert!(degraded_pin.non_minimal());
    let fresh = reader.pin();
    assert!(!fresh.non_minimal());
    let (_, fresh_flag) = fresh.answer_with_status(&q, Semantics::Union).unwrap();
    assert!(!fresh_flag);
}

/// Publication bookkeeping: epochs are monotone, `published()` tracks the
/// slot from `&self`, clones get a fresh unpublished slot, and the
/// placeholder epoch 0 is never handed to a reader.
#[test]
fn publication_epochs_are_monotone_and_clones_are_isolated() {
    let mut db = SemanticWebDatabase::from_graph(sample_graph(3));
    assert_eq!(db.published().epoch(), 0, "nothing published yet");
    let reader = db.reader(); // publishes epoch 1 so no reader sees epoch 0
    assert_eq!(reader.epoch(), 1);
    let e2 = db.publish().epoch();
    assert_eq!(e2, 2);
    assert_eq!(db.published().epoch(), 2);

    let mut cloned = db.clone();
    assert_eq!(
        cloned.published().epoch(),
        0,
        "a clone starts with a fresh, unpublished slot"
    );
    cloned.publish();
    assert_eq!(
        db.published().epoch(),
        2,
        "the original's slot is untouched"
    );
}
