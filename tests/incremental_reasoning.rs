//! End-to-end tests of the `swdb-reason` subsystem through the facade: the
//! maintained closure against the recomputing specification on real
//! workloads, closure-answered scans, the headline property that a
//! single-triple edit fires an order of magnitude fewer rules than
//! recomputation, and its normal-form counterpart in core-engine counters.

use semweb_foundations::core::{MetricsLevel, SemanticWebDatabase, Semantics};
use semweb_foundations::entailment::rdfs_closure;
use semweb_foundations::model::{rdfs, triple, Graph, Iri, Term, Triple};
use semweb_foundations::obs::Metrics;
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

/// The schema graph the rule-work tests edit: 16 classes, 6 properties,
/// 1 500 data triples.
fn edit_fixture() -> Graph {
    schema_graph(
        &SchemaGraphConfig {
            classes: 16,
            properties: 6,
            edge_probability: 0.12,
            instances: 300,
            data_triples: 1_500,
        },
        0xE17,
    )
}

#[test]
fn single_triple_edits_beat_full_recomputation_by_an_order_of_magnitude() {
    // The acceptance property of incremental maintenance, counted in rule
    // firings: a single insert fires rules for its own consequences only,
    // while recomputation fires them for the whole graph.
    let g = edit_fixture();
    let firings =
        |store: &MaterializedStore| store.metrics().snapshot().counter("reason_rule_firings");
    let mut cold = MaterializedStore::new();
    cold.set_metrics(Metrics::new(MetricsLevel::Counters));
    cold.insert_graph_with_delta(&g);
    let full = firings(&cold);

    let mut materialized = MaterializedStore::from_graph(&g);
    materialized.set_metrics(Metrics::new(MetricsLevel::Counters));
    // Fresh subjects typed with existing classes: guaranteed not asserted,
    // and propagation still walks the real subclass hierarchy.
    let deltas: Vec<_> = (0..20)
        .map(|i| triple(&format!("ex:fresh{i}"), rdfs::TYPE, "ex:Class0"))
        .collect();
    for delta in &deltas {
        let before = firings(&materialized);
        materialized.insert(delta);
        let single = firings(&materialized) - before;
        assert!(
            single * 10 <= full,
            "a single insert fired {single} rules, recomputation {full}"
        );
    }
    // Retract the deltas: the engine must be exact afterwards.
    for delta in &deltas {
        materialized.remove(delta);
    }
    assert_eq!(materialized.closure_graph(), rdfs_closure(&g));
}

/// The rule work of a cold load and of one schema-edge removal, as exact
/// counts. How the joins run (their order, the matcher) may change; what
/// they derive, round by round and rule by rule, may not.
#[test]
fn the_rule_work_of_a_cold_load_and_a_schema_edge_removal_is_pinned() {
    let g = edit_fixture();
    let mut store = MaterializedStore::new();
    store.set_metrics(Metrics::new(MetricsLevel::Counters));
    store.insert_graph_with_delta(&g);
    let cold = store.metrics().snapshot();
    let counts = ["reason_rule_firings", "reason_rounds", "reason_shards"];
    assert_eq!(counts.map(|key| cold.counter(key)), [7_761, 4, 54]);
    let per_rule: Vec<(&str, u64)> = cold
        .rule_firings
        .iter()
        .map(|(rule, &n)| (rule.as_str(), n))
        .collect();
    assert_eq!(
        per_rule,
        [
            ("r03_subproperty_inheritance", 486),
            ("r04_subclass_transitivity", 34),
            ("r05_type_lifting", 3_507),
            ("r06_domain_typing", 1_226),
            ("r07_range_typing", 661),
            ("r08_predicate_reflexivity", 1_495),
            ("r10_domain-subject_reflexivity", 3),
            ("r10_range-subject_reflexivity", 3),
            ("r11_subproperty_reflexivity", 2),
            ("r12_domain-class_reflexivity", 3),
            ("r12_range-class_reflexivity", 3),
            ("r12_type-class_reflexivity", 300),
            ("r13_subclass_reflexivity", 38),
        ]
    );

    let edge = triple("ex:Class0", rdfs::SC, "ex:Class1");
    assert!(g.contains(&edge));
    store.metrics().reset();
    assert!(store.remove(&edge));
    let removal = store.metrics().snapshot();
    let counts = [
        "reason_overdeleted",
        "reason_rederived",
        "reason_rule_firings",
    ];
    assert_eq!(counts.map(|key| removal.counter(key)), [1_515, 857, 271]);
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

/// The fixture of the refresh-pass pins: the university workload with six
/// single-triple blank components (`advisedBy` an anonymous advisor) per
/// department, warm — the first read has run the cold core build — with
/// the core engine's counters on from before that build.
fn warm_advisor_facade(departments: usize) -> SemanticWebDatabase {
    let mut db = SemanticWebDatabase::from_graph(university(
        &UniversityConfig {
            departments,
            courses_per_department: 10,
            professors_per_department: 6,
            students_per_department: 30,
            enrollments_per_student: 3,
        },
        7,
    ));
    db.set_metrics_level(MetricsLevel::Counters);
    let q = semweb_foundations::workloads::university::workers_query();
    assert!(!db.answer(&q, Semantics::Union).is_empty(), "cold build");
    assert_eq!(db.stats().blank_components, 6 * departments);
    db
}

/// A new student as the mixed workload writes one: a type, two courses
/// taken and an anonymous advisor.
fn new_student() -> Graph {
    Graph::from_triples([
        triple("uni:newStudent", rdfs::TYPE, "uni:Student"),
        triple("uni:newStudent", "uni:takes", "uni:course0_0"),
        triple("uni:newStudent", "uni:takes", "uni:course0_1"),
        Triple::new(
            Term::iri("uni:newStudent"),
            Iri::new("uni:advisedBy"),
            Term::blank("newAdvisor"),
        ),
    ])
}

/// The core refresh is one sweep per delta, counted in retraction searches
/// over k lean single-triple components (one search each). The cold build
/// searches each component once: k. The student insert searches its new
/// component alone: 1. Its new `advisedBy` triple shares a predicate with
/// every other component's survivor, but no survivor maps onto it — a
/// survivor's constant subject would have to be the new student — so none
/// of the k wakes.
#[test]
fn a_core_refresh_is_one_sweep_counted_in_retraction_searches() {
    for departments in [10, 20] {
        let k = 6 * departments as u64;
        let mut db = warm_advisor_facade(departments);
        let searches =
            |db: &SemanticWebDatabase| db.metrics().snapshot().counter("core_retraction_searches");
        let cold = searches(&db);
        assert_eq!(cold, k, "cold build over k = {k} components");
        db.insert_graph(&new_student());
        assert_eq!(
            searches(&db) - cold,
            1,
            "a blank insert over k = {k} components"
        );
    }
}

/// A core refresh reads only the components its delta names, counted in
/// `core_components_visited` at two component counts: a ground write of
/// the advisors' predicate wakes none (0); a student with an anonymous
/// advisor reads its new component (1); one with two anonymous advisors
/// reads both, and one folds onto the other (2); removing that student
/// marks the two stale through the survivor both supports name, then
/// dissolves them (4). A refresh that scans every component — for stale
/// marking, waking, dissolving or replaying a fold — reads more at 40
/// departments than at 10.
#[test]
fn a_core_refresh_visits_only_the_components_its_delta_names() {
    let two_advisors = Graph::from_triples(["first", "second"].map(|advisor| {
        Triple::new(
            Term::iri("uni:twoAdvisors"),
            Iri::new("uni:advisedBy"),
            Term::blank(advisor),
        )
    }));
    let visits = |departments: usize| {
        let mut db = warm_advisor_facade(departments);
        let mut visited = |write: &dyn Fn(&mut SemanticWebDatabase)| {
            let count = |db: &SemanticWebDatabase| {
                db.metrics().snapshot().counter("core_components_visited")
            };
            let before = count(&db);
            write(&mut db);
            count(&db) - before
        };
        [
            visited(&|db| {
                assert!(db.insert(triple("uni:newStudent", "uni:advisedBy", "uni:prof0_0")));
            }),
            visited(&|db| db.insert_graph(&new_student())),
            visited(&|db| db.insert_graph(&two_advisors)),
            visited(&|db| assert_eq!(db.remove_graph(&two_advisors), 2)),
        ]
    };
    assert_eq!(visits(10), [0, 1, 2, 4], "at 10 departments");
    assert_eq!(visits(40), [0, 1, 2, 4], "at 40 departments");
}

/// A removal batch runs each kernel once: removing the student's four
/// triples is one DRed run and one core refresh, each one span sample at
/// `Debug` level, and the DRed run's work is pinned as exact counts.
#[test]
fn a_removal_batch_runs_one_dred_and_one_core_refresh() {
    for departments in [10, 20] {
        let mut db = warm_advisor_facade(departments);
        let student = new_student();
        db.insert_graph(&student);
        db.set_metrics_level(MetricsLevel::Debug);
        db.metrics().reset();
        assert_eq!(db.remove_graph(&student), student.len());
        let after = db.metrics().snapshot();
        let samples = |key| after.histograms.get(key).map_or(0, |h| h.count);
        assert_eq!(
            [
                samples("span_reason_delete_ns"),
                samples("span_core_refresh_ns")
            ],
            [1, 1],
            "one DRed run and one refresh at {departments} departments"
        );
        let counts = ["reason_overdeleted", "reason_rederived"];
        assert_eq!(counts.map(|key| after.counter(key)), [5, 0]);
        assert_eq!(db.closure(), db.closure_recomputed());
    }
}
