//! End-to-end tests of the `swdb-obs` instrumentation through the facade:
//! the counter sheet is populated by a mixed workload and does not depend
//! on the thread count, the `Off` level records
//! nothing and costs (close to) nothing, and `explain()` reports the join
//! order the executor actually takes.

use std::time::Instant;

use semweb_foundations::core::{
    CoreBudget, CoreBudgetMode, MetricsLevel, SemanticWebDatabase, Semantics,
};
use semweb_foundations::hom::pattern_graph;
use semweb_foundations::model::{graph, rdfs, triple, Graph};
use semweb_foundations::obs::MetricsSnapshot;
use semweb_foundations::query::{query, Query};
use semweb_foundations::workloads::{university, UniversityConfig};

fn workload() -> Graph {
    university(
        &UniversityConfig {
            departments: 2,
            courses_per_department: 4,
            professors_per_department: 2,
            students_per_department: 6,
            enrollments_per_student: 2,
        },
        11,
    )
}

/// Runs the same mixed insert / query / remove workload on a database
/// configured with the given thread ceiling and returns the final counter
/// snapshot.
fn run_mixed_workload(threads: usize) -> MetricsSnapshot {
    let mut db = SemanticWebDatabase::new();
    db.set_threads(threads);
    db.set_metrics_level(MetricsLevel::Counters);

    let data = workload();
    db.insert_graph(&data);
    // A blank-node component so the core engine has work to do.
    db.insert_graph(&graph([
        ("_:a", "ex:knows", "_:b"),
        ("_:b", "ex:knows", "_:c"),
        ("ex:anchor", "ex:knows", "_:a"),
    ]));

    let q1 = query([("?X", rdfs::TYPE, "?C")], [("?X", rdfs::TYPE, "?C")]);
    let q2 = query(
        [("?X", "ex:knows", "?Y")],
        [("?X", "ex:knows", "?Y"), ("?Y", "ex:knows", "?Z")],
    );
    assert!(!db.answer(&q1, Semantics::Union).is_empty());
    assert!(!db.answer(&q2, Semantics::Union).is_empty());
    assert!(!db.answer_is_empty(&q1));

    // Remove a handful of asserted triples to drive the DRed path.
    let victims: Vec<_> = db.graph().to_graph().iter().take(5).cloned().collect();
    for t in victims {
        db.remove(&t);
    }
    assert!(!db.answer(&q1, Semantics::Union).is_empty());

    db.metrics().snapshot()
}

#[test]
fn mixed_workload_populates_the_counter_sheet() {
    let snap = run_mixed_workload(2);
    // Acceptance: non-zero rounds, rule firings, join probes, and core
    // component counters after a mixed insert/query/remove workload.
    assert!(snap.counter("reason_rounds") > 0, "rounds: {snap:?}");
    assert!(
        snap.rule_firings.values().sum::<u64>() > 0,
        "rule firings: {snap:?}"
    );
    assert!(snap.counter("query_join_probes") > 0, "probes: {snap:?}");
    assert!(
        snap.counter("core_components_recored") > 0,
        "core components: {snap:?}"
    );
    assert!(snap.counter("reason_closure_added") > 0);
    assert!(snap.counter("reason_closure_removed") > 0);
    assert!(snap.counter("query_answers") > 0);
    // The JSON report carries the same numbers under deterministic keys.
    let json = snap.to_json();
    assert!(json.contains("\"query_join_probes\""));
    assert!(json.contains("\"rule_firings\": {"));
}

#[test]
fn the_counter_sheet_does_not_depend_on_the_thread_count() {
    // The thread count only decides how many workers a large round may
    // spawn, so the whole closure-side sheet — delta sizes, round and shard
    // structure, total and per-rule firings — plus the query-side counters
    // and the core engine's work are pinned; only the count of rounds that
    // actually spawned may move.
    let one = run_mixed_workload(1);
    assert!(one.counter("reason_rounds") > 0, "rounds: {one:?}");
    assert!(one.counter("reason_shards") > 0, "shards: {one:?}");
    assert!(one.counter("reason_rule_firings") > 0, "firings: {one:?}");
    assert_eq!(one.counter("reason_parallel_rounds"), 0, "1 never spawns");
    for threads in [2, 4] {
        let many = run_mixed_workload(threads);
        for (key, value) in &one.counters {
            let pinned = match *key {
                "reason_parallel_rounds" => false,
                "query_compiled"
                | "query_patterns_compiled"
                | "query_join_probes"
                | "query_bindings"
                | "query_answers"
                | "core_components_visited"
                | "core_components_recored"
                | "core_fold_steps"
                | "core_retraction_searches"
                | "core_support_replays" => true,
                key => key.starts_with("reason_"),
            };
            if pinned {
                assert_eq!(
                    many.counter(key),
                    *value,
                    "{key} must not depend on the thread count ({threads})"
                );
            }
        }
        assert_eq!(
            many.rule_firings, one.rule_firings,
            "per-rule firings must not depend on the thread count ({threads})"
        );
        assert!(
            many.counter("reason_parallel_rounds") > 0,
            "the sweep must cover rounds that really spawn ({threads})"
        );
    }
}

#[test]
fn a_premise_preview_counts_one_preview_and_no_fixpoint() {
    // The preview runs the closure rounds over an overlay and commits
    // nothing, so it must leave the committed-fixpoint sheet alone:
    // `reason_rounds` keeps meaning "a closure fixpoint ran".
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    db.insert_graph(&workload());
    let before = db.metrics().snapshot();

    // A schema premise whose consequences take rule joins to derive.
    let with_premise = Query::with_premise(
        pattern_graph([("?X", rdfs::TYPE, "ex:Mentor")]),
        pattern_graph([("?X", rdfs::TYPE, "ex:Mentor")]),
        graph([
            ("uni:teaches", rdfs::DOM, "ex:Mentor"),
            ("ex:Mentor", rdfs::SC, "ex:Guide"),
        ]),
    )
    .expect("well formed");
    assert!(!db.answer(&with_premise, Semantics::Union).is_empty());

    let after = db.metrics().snapshot();
    assert_eq!(
        after.counter("reason_previews"),
        before.counter("reason_previews") + 1
    );
    for key in [
        "reason_rounds",
        "reason_parallel_rounds",
        "reason_shards",
        "reason_rule_firings",
        "reason_closure_added",
    ] {
        assert_eq!(after.counter(key), before.counter(key), "{key}");
    }
    assert_eq!(after.rule_firings, before.rule_firings);
}

#[test]
fn a_premise_fork_reports_into_no_gauge_and_flags_only_its_own_answer() {
    // A premise is written into a clone of the pinned state with metrics
    // off: the fork's core engine must not overwrite the gauges that
    // mirror the committed state, nor count a blank warning of its own.
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    db.metrics().set_blank_warn_threshold(2);
    db.insert_graph(&graph([("ex:a", "ex:knows", "ex:b")]));
    let pinned = db.publish();
    let keys = [
        "largest_blank_component",
        "uncored_components",
        "uncored_triples",
    ];
    let sheet = |db: &SemanticWebDatabase| {
        let snap = db.metrics().snapshot();
        let gauges = keys.map(|key| snap.gauges[key]);
        (gauges, snap.counter("core_blank_warnings"))
    };
    let before = sheet(&db);
    let knows = pattern_graph([("?X", "ex:knows", "?Y")]);
    let chain = Query::with_premise(
        knows.clone(),
        knows.clone(),
        graph([
            ("_:a", "ex:knows", "_:b"),
            ("_:b", "ex:knows", "_:c"),
            ("_:c", "ex:knows", "_:d"),
            ("_:d", "ex:knows", "_:e"),
        ]),
    )
    .expect("well formed");
    let answer = pinned.answer(&chain, Semantics::Union).unwrap();
    assert_eq!(answer.len(), 5, "the chain is lean, and ex:a knows ex:b");
    assert_eq!(sheet(&db), before, "a 4-triple premise component");

    // A fork that runs out of budget flags its own answer and nothing else.
    db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
    let pinned = db.publish();
    let blank = Query::with_premise(knows.clone(), knows, graph([("ex:a", "ex:knows", "_:P")]))
        .expect("well formed");
    let (_, non_minimal) = pinned.answer_with_status(&blank, Semantics::Union).unwrap();
    assert!(non_minimal, "the fork's exhaustion reaches its answer");
    assert!(!db.is_degraded());
    assert!(!pinned.non_minimal());
    assert_eq!(sheet(&db).0, [0, 0, 0], "gauges of a degraded fork");
}

#[test]
fn off_level_records_nothing_and_stays_cheap() {
    let data = university(
        &UniversityConfig {
            departments: 10,
            courses_per_department: 10,
            professors_per_department: 5,
            students_per_department: 30,
            enrollments_per_student: 3,
        },
        23,
    );
    let n = data.len();
    assert!(n > 1_000, "bulk load should be non-trivial, got {n}");

    let bulk_load = |level: MetricsLevel| {
        let mut db = SemanticWebDatabase::new();
        db.set_threads(1);
        db.set_metrics_level(level);
        let t0 = Instant::now();
        db.insert_graph(&data);
        let q = query([("?X", rdfs::TYPE, "?C")], [("?X", rdfs::TYPE, "?C")]);
        assert!(!db.answer(&q, Semantics::Union).is_empty());
        (t0.elapsed(), db.metrics().snapshot())
    };

    // Warm-up, then best-of-5 per level to shave scheduler noise.
    let _ = bulk_load(MetricsLevel::Off);
    let off = (0..5)
        .map(|_| bulk_load(MetricsLevel::Off))
        .min_by_key(|(d, _)| *d)
        .expect("five runs");
    let counters = (0..5)
        .map(|_| bulk_load(MetricsLevel::Counters))
        .min_by_key(|(d, _)| *d)
        .expect("five runs");

    // Off records nothing at all.
    let snap = &off.1;
    assert!(snap.counters.values().all(|&v| v == 0), "{snap:?}");
    assert!(snap.rule_firings.is_empty());
    assert!(snap.histograms.is_empty());
    // ... while the instrumented run sees the same work.
    assert!(counters.1.counter("reason_closure_added") > 0);

    // Zero-cost-when-off: the Off path does strictly less than Counters,
    // so it must not be meaningfully slower (generous bound + absolute
    // slack keep this robust on noisy CI machines).
    let off_ns = off.0.as_nanos();
    let counters_ns = counters.0.as_nanos();
    assert!(
        off_ns <= counters_ns * 2 + 20_000_000,
        "Off bulk load took {off_ns}ns vs {counters_ns}ns at Counters"
    );
}

#[test]
fn explain_reports_the_mechanism_and_the_executed_join_order() {
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    // ex:p is populous, ex:q has a single triple: the most-constrained
    // solver must start from pattern 1 (the ex:q pattern).
    let mut g = Graph::new();
    for i in 0..20 {
        g.insert(triple(&format!("ex:s{i}"), "ex:p", &format!("ex:o{i}")));
    }
    g.insert(triple("ex:o7", "ex:q", "ex:hub"));
    db.insert_graph(&g);

    let q = query(
        [("?X", "ex:p", "?Y")],
        [("?X", "ex:p", "?Y"), ("?Y", "ex:q", "ex:hub")],
    );
    let plan = db.explain(&q, Semantics::Union);
    assert_eq!(plan.mechanism, "premise_free");
    assert_eq!(plan.patterns, 2);
    assert_eq!(
        plan.join_order,
        vec![1, 0],
        "the solver starts from the single-triple ex:q pattern"
    );
    assert!(plan.probes > 0);
    assert_eq!(plan.answers as usize, db.answer(&q, Semantics::Union).len());
    // Re-explaining hits the plan cache: the outcome is identical except
    // for `plan_cache` itself and the probes the warm run no longer pays.
    let warm = db.explain(&q, Semantics::Union);
    assert_eq!(plan.plan_cache, "miss");
    assert_eq!(warm.plan_cache, "hit");
    assert!(warm.probes <= plan.probes);
    assert_eq!(warm.mechanism, plan.mechanism);
    assert_eq!(warm.join_order, plan.join_order);
    assert_eq!(warm.answers, plan.answers);
    assert_eq!(warm.estimated_cardinalities, plan.estimated_cardinalities);
    assert_eq!(warm.actual_cardinalities, plan.actual_cardinalities);
    // And its JSON form carries the order verbatim.
    assert!(plan.to_json().contains("\"join_order\": [1, 0]"));

    // A premise query under RDFS takes the overlay mechanism.
    let with_premise = Query::with_premise(
        pattern_graph([("?X", "ex:p", "?Y")]),
        pattern_graph([("?X", "ex:p", "?Y")]),
        graph([("ex:extra", "ex:p", "ex:extra2")]),
    )
    .expect("well formed");
    let plan = db.explain(&with_premise, Semantics::Union);
    assert_eq!(plan.mechanism, "overlay");
    assert_eq!(
        plan.answers as usize,
        db.answer(&with_premise, Semantics::Union).len()
    );
}

#[test]
fn overlay_cache_counters_track_hits_misses_and_blank_warning_surfaces() {
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    db.insert_graph(&graph([("ex:a", "ex:p", "ex:b")]));

    let with_premise = Query::with_premise(
        pattern_graph([("?X", "ex:p", "?Y")]),
        pattern_graph([("?X", "ex:p", "?Y")]),
        graph([("ex:c", "ex:p", "ex:d")]),
    )
    .expect("well formed");
    let _ = db.answer(&with_premise, Semantics::Union);
    let _ = db.answer(&with_premise, Semantics::Union);
    let snap = db.metrics().snapshot();
    assert_eq!(snap.counter("overlay_cache_misses"), 1);
    assert!(snap.counter("overlay_cache_hits") >= 1);

    // The GraphStats early warning reaches the snapshot's warnings block.
    db.metrics().set_blank_warn_threshold(2);
    db.insert_graph(&graph([
        ("_:a", "ex:knows", "_:b"),
        ("_:b", "ex:knows", "_:c"),
        ("_:c", "ex:knows", "_:d"),
    ]));
    let _ = db.stats();
    let snap = db.metrics().snapshot();
    assert!(snap.counter("core_blank_warnings") > 0);
    assert_eq!(snap.warnings.len(), 1);
    assert!(db
        .metrics_snapshot()
        .contains("\"warnings\": [\"largest blank component"));
}
