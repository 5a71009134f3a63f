//! End-to-end tests of the `swdb-reason` subsystem through the facade: the
//! maintained closure against the recomputing specification on real
//! workloads, closure-answered scans, the headline property that a
//! single-triple edit is orders of magnitude cheaper than recomputation,
//! and its normal-form counterpart in core-engine counters.

use std::time::Instant;

use semweb_foundations::core::{MetricsLevel, SemanticWebDatabase, Semantics};
use semweb_foundations::entailment::rdfs_closure;
use semweb_foundations::model::{rdfs, triple, Iri, Term, Triple};
use semweb_foundations::reason::MaterializedStore;
use semweb_foundations::workloads::{
    schema_graph, university, SchemaGraphConfig, UniversityConfig,
};

#[test]
fn materialized_store_matches_spec_on_the_university_workload() {
    let data = university(
        &UniversityConfig {
            departments: 2,
            courses_per_department: 3,
            professors_per_department: 2,
            students_per_department: 4,
            enrollments_per_student: 2,
        },
        7,
    );
    let materialized = MaterializedStore::from_graph(&data);
    assert_eq!(materialized.closure_graph(), rdfs_closure(&data));
}

#[test]
fn database_closure_stays_consistent_across_a_mutation_session() {
    let mut db = SemanticWebDatabase::from_graph(university(
        &UniversityConfig {
            departments: 1,
            courses_per_department: 3,
            professors_per_department: 2,
            students_per_department: 3,
            enrollments_per_student: 1,
        },
        3,
    ));
    // A write/read session: grow the schema, assert data, retract, minimize.
    db.insert(triple("uni:teaches", rdfs::DOM, "uni:Lecturer"));
    db.insert(triple("uni:Lecturer", rdfs::SC, "uni:Staff"));
    assert_eq!(db.closure(), db.closure_recomputed());
    db.remove(&triple("uni:Lecturer", rdfs::SC, "uni:Staff"));
    assert_eq!(db.closure(), db.closure_recomputed());
    db.minimize();
    assert_eq!(db.closure(), db.closure_recomputed());
}

#[test]
fn closure_scans_see_inferred_triples_through_the_reasoner() {
    let db = SemanticWebDatabase::from_graph(semweb_foundations::model::graph([
        ("ex:paints", rdfs::SP, "ex:creates"),
        ("ex:creates", rdfs::DOM, "ex:Artist"),
        ("ex:Picasso", "ex:paints", "ex:Guernica"),
    ]));
    let creators = db
        .reasoner()
        .scan_closure(None, Some(&Iri::new("ex:creates")), None);
    assert!(creators.contains(&triple("ex:Picasso", "ex:creates", "ex:Guernica")));
    let types = db.reasoner().scan_closure(
        Some(&Term::iri("ex:Picasso")),
        Some(&Iri::new(rdfs::TYPE)),
        None,
    );
    assert!(types.contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Artist")));
}

#[test]
fn single_triple_edits_beat_full_recomputation_by_an_order_of_magnitude() {
    // The acceptance property of incremental maintenance, demonstrated at
    // a scale that stays fast in debug builds.
    let g = schema_graph(
        &SchemaGraphConfig {
            classes: 16,
            properties: 6,
            edge_probability: 0.12,
            instances: 300,
            data_triples: 1_500,
        },
        0xE17,
    );
    let mut materialized = MaterializedStore::from_graph(&g);
    // Fresh subjects typed with existing classes: guaranteed not asserted,
    // and propagation still walks the real subclass hierarchy. Two disjoint
    // batches so the insert side gets a best-of-two too.
    let batch = |tag: &str| -> Vec<_> {
        (0..20)
            .map(|i| triple(&format!("ex:fresh{tag}{i}"), rdfs::TYPE, "ex:Class0"))
            .collect()
    };
    let batches = [batch("A"), batch("B")];

    // Best of two on both sides keeps a one-off scheduler stall from
    // producing a false ratio; the real margin is ~1000×, the bar 10×.
    let t0 = Instant::now();
    let full = rdfs_closure(&g);
    let first = t0.elapsed();
    let t0 = Instant::now();
    let _ = rdfs_closure(&g);
    let full_time = first.min(t0.elapsed());
    assert!(full.len() >= g.len());

    let per_insert = batches
        .iter()
        .map(|batch| {
            let t1 = Instant::now();
            for delta in batch {
                materialized.insert(delta);
            }
            t1.elapsed() / batch.len() as u32
        })
        .min()
        .expect("two batches");

    assert!(
        full_time >= per_insert * 10,
        "expected ≥10× speedup: full recomputation {full_time:?} vs single insert {per_insert:?}"
    );
    // Retract the deltas (untimed) — the engine must be exact afterwards.
    for delta in batches.iter().flatten() {
        materialized.remove(delta);
    }
    assert_eq!(materialized.closure_graph(), full);
}

/// The normal form is refreshed by the delta, not rebuilt, and counters say
/// so: on a warm facade over the 1k-triple university workload, a ground
/// edit round trip never starts a core retraction search or re-cores a
/// component, and a blank-touching one re-cores the one component it
/// creates, however many others the store holds.
#[test]
fn edits_re_core_only_the_components_they_touch() {
    let data = university(
        &UniversityConfig {
            departments: 6,
            courses_per_department: 10,
            professors_per_department: 6,
            students_per_department: 30,
            enrollments_per_student: 3,
        },
        0xE19,
    );
    let mut db = SemanticWebDatabase::from_graph(data);
    db.set_metrics_level(MetricsLevel::Counters);
    let q = semweb_foundations::workloads::university::workers_query();
    assert!(
        !db.answer(&q, Semantics::Union).is_empty(),
        "the engine is warm"
    );
    let components = db.stats().blank_components;
    assert!(components >= 10, "{components} blank components");
    let round_trip = |db: &mut SemanticWebDatabase, edit: Triple| {
        let before = db.metrics().snapshot();
        assert!(db.insert(edit.clone()));
        assert!(db.remove(&edit));
        let after = db.metrics().snapshot();
        let moved = |key| after.counter(key) - before.counter(key);
        (
            moved("core_retraction_searches"),
            moved("core_components_recored"),
        )
    };
    let ground = triple("uni:profFresh", "uni:worksFor", "uni:dept0");
    assert_eq!(
        round_trip(&mut db, ground),
        (0, 0),
        "a ground edit is index maintenance"
    );
    let blank = Triple::new(
        Term::iri("uni:studentFresh"),
        Iri::new("uni:advisedBy"),
        Term::blank("advisorFresh"),
    );
    let (_, recored) = round_trip(&mut db, blank);
    assert_eq!(
        recored, 1,
        "only the new component is re-cored, of {components}"
    );
}
