//! End-to-end pipeline tests: generate a workload, persist it through the
//! store and the concrete syntax, load it into the facade, query it under
//! both entailment regimes, normalize it, and check containment-driven query
//! rewriting — the flow a downstream application would run.

use std::collections::BTreeSet;

use semweb_foundations::containment::{self, Notion};
use semweb_foundations::core::{EntailmentRegime, SemanticWebDatabase, Semantics};
use semweb_foundations::model::{rdfs, Iri, Term};
use semweb_foundations::query::query;
use semweb_foundations::store::{GraphStats, IdIndex, TripleStore};
use semweb_foundations::workloads::{university, UniversityConfig};

#[test]
fn store_roundtrip_then_query_under_both_regimes() {
    let data = university(
        &UniversityConfig {
            departments: 2,
            courses_per_department: 4,
            professors_per_department: 2,
            students_per_department: 6,
            enrollments_per_student: 2,
        },
        11,
    );
    // Persist through the triple store and the concrete syntax.
    let store = TripleStore::from_graph(&data);
    assert_eq!(store.len(), data.len());
    let text = semweb_foundations::store::serialize(&store.to_graph());
    let reloaded = semweb_foundations::store::parse(&text).expect("parse back");
    assert_eq!(reloaded, data);

    let mut db = SemanticWebDatabase::from_graph(reloaded);
    let persons = query(
        [("?X", rdfs::TYPE, "uni:Person")],
        [("?X", rdfs::TYPE, "uni:Person")],
    );
    let rdfs_answers = db.answer_union(&persons);
    assert!(!rdfs_answers.is_empty());

    db.set_regime(EntailmentRegime::Simple);
    let simple_answers = db.answer_union(&persons);
    assert!(
        simple_answers.is_empty(),
        "no explicit uni:Person typing exists; only RDFS inference produces persons"
    );
    assert!(simple_answers.len() < rdfs_answers.len());
}

#[test]
fn normalization_shrinks_redundant_data_without_losing_answers() {
    let base = university(&UniversityConfig::default(), 3);
    let redundant = semweb_foundations::workloads::inject_blank_redundancy(&base, 30, 4);
    let q = semweb_foundations::workloads::university::workers_query();

    let mut db_redundant = SemanticWebDatabase::from_graph(redundant.clone());
    let mut db_base = SemanticWebDatabase::from_graph(base.clone());
    let a_redundant = db_redundant.answer_union(&q);
    let a_base = db_base.answer_union(&q);
    assert!(
        semweb_foundations::model::isomorphic(&a_redundant, &a_base),
        "answers are invariant under adding redundant blank facts (Theorem 4.6)"
    );

    let removed = db_redundant.minimize();
    assert!(
        removed > 0,
        "minimisation must remove the injected redundancy"
    );
    let a_minimised = db_redundant.answer_union(&q);
    assert!(semweb_foundations::model::isomorphic(&a_minimised, &a_base));
}

#[test]
fn containment_identifies_a_cheaper_equivalent_query() {
    // The planner-style use of containment: a query with a redundant body
    // atom is mutually contained with its reduced version, so the cheaper
    // one can be executed instead.
    let verbose = query(
        [("?S", "uni:takes", "?C")],
        [("?S", "uni:takes", "?C"), ("?S", "uni:takes", "?C2")],
    );
    let reduced = query([("?S", "uni:takes", "?C")], [("?S", "uni:takes", "?C")]);
    assert!(containment::equivalent(
        &verbose,
        &reduced,
        Notion::EntailmentBased
    ));
    let data = university(&UniversityConfig::default(), 8);
    let mut db = SemanticWebDatabase::from_graph(data);
    let a_verbose = db.answer(&verbose, Semantics::Union);
    let a_reduced = db.answer(&reduced, Semantics::Union);
    assert_eq!(a_verbose, a_reduced);
}

#[test]
fn statistics_and_dictionary_agree_on_term_counts() {
    let data = university(&UniversityConfig::default(), 21);
    let stats = GraphStats::of(&data);
    let store = TripleStore::from_graph(&data);
    assert_eq!(stats.triples, store.len());
    assert_eq!(stats.universe, store.term_count());
    assert!(stats.predicates <= store.term_count());
    assert!(stats.blank_nodes > 0, "the workload has anonymous advisors");
    // Scanning by every predicate covers the whole store.
    let index: IdIndex = store.iter_ids().collect();
    let predicates: BTreeSet<&Iri> = data.iter().map(|t| t.predicate()).collect();
    assert_eq!(predicates.len(), stats.predicates);
    let total: usize = predicates
        .into_iter()
        .map(|p| {
            store
                .resolve_pattern(None, Some(p), None)
                .expect("interned")
        })
        .map(|pattern| index.scan(pattern).len())
        .sum();
    assert_eq!(total, store.len());
}

#[test]
fn facade_updates_interact_correctly_with_inference() {
    let mut db = SemanticWebDatabase::new();
    db.insert_graph(&semweb_foundations::workloads::university::schema());
    db.insert(semweb_foundations::model::triple(
        "uni:alice",
        "uni:teaches",
        "uni:logic101",
    ));
    let faculty = query(
        [("?X", rdfs::TYPE, "uni:Faculty")],
        [("?X", rdfs::TYPE, "uni:Faculty")],
    );
    let before = db.answer_union(&faculty);
    assert!(before
        .iter()
        .any(|t| t.subject() == &Term::iri("uni:alice")));
    // Retracting the teaching assertion retracts the inference.
    db.remove(&semweb_foundations::model::triple(
        "uni:alice",
        "uni:teaches",
        "uni:logic101",
    ));
    let after = db.answer_union(&faculty);
    assert!(!after.iter().any(|t| t.subject() == &Term::iri("uni:alice")));
}
