//! End-to-end tests of the cost-based planner and the compiled plan cache
//! through the facade: the invalidation matrix (mutation, regime switch,
//! premises that grow no dictionary, clone isolation, snapshot
//! independence), the counter sheet, and one randomized sweep pinning
//! every planned way of reading —
//! the facade with its cache cold and warm, and a pinned snapshot — to the
//! recomputing specification, across both regimes, both semantics and all
//! three mechanisms. The model-based oracle (`tests/oracle.rs`) asks the
//! same probes through every configuration and mutation script.

use semweb_foundations::core::{EntailmentRegime, MetricsLevel, SemanticWebDatabase, Semantics};
use semweb_foundations::model::{graph, isomorphic, triple, Graph};
use semweb_foundations::query::{combine, query, Query};

mod pools;

use pools::probe_queries;

fn counting_db() -> SemanticWebDatabase {
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    db.insert_graph(&graph([
        ("ex:dept", "ex:offers", "ex:DB"),
        ("ex:dept", "ex:offers", "ex:AI"),
        ("ex:alice", "ex:takes", "ex:DB"),
        ("ex:bob", "ex:takes", "ex:AI"),
        ("ex:carol", "ex:takes", "ex:DB"),
    ]));
    db
}

fn takes_query() -> Query {
    query(
        [("?S", "ex:studies", "?C")],
        [("?S", "ex:takes", "?C"), ("ex:dept", "ex:offers", "?C")],
    )
}

fn cache_counters(db: &SemanticWebDatabase) -> (u64, u64) {
    let snap = db.metrics().snapshot();
    (
        snap.counter("plan_cache_hits"),
        snap.counter("plan_cache_misses"),
    )
}

#[test]
fn repeated_shapes_hit_the_plan_cache() {
    let mut db = counting_db();
    let q = takes_query();
    let first = db.answer(&q, Semantics::Union);
    let (hits0, misses0) = cache_counters(&db);
    assert_eq!(misses0, 1, "cold shape is a miss");
    assert_eq!(hits0, 0);
    for _ in 0..3 {
        assert_eq!(db.answer(&q, Semantics::Union), first);
    }
    let (hits, misses) = cache_counters(&db);
    assert_eq!(misses, 1, "no further misses on a warm shape");
    assert_eq!(hits, 3);

    // Same shape, different constant: shares the cached plan.
    let sibling = query(
        [("?S", "ex:studies", "?C")],
        [("?S", "ex:takes", "?C"), ("ex:alice", "ex:offers", "?C")],
    );
    db.answer(&sibling, Semantics::Union);
    let (hits, misses) = cache_counters(&db);
    assert_eq!(
        (hits, misses),
        (4, 1),
        "constants do not split the shape key"
    );
}

#[test]
fn mutation_invalidates_cached_plans() {
    let mut db = counting_db();
    let q = takes_query();
    db.answer(&q, Semantics::Union);
    db.answer(&q, Semantics::Union);
    let (_, misses_before) = cache_counters(&db);
    db.insert_graph(&graph([("ex:dave", "ex:takes", "ex:AI")]));
    let answer = db.answer(&q, Semantics::Union);
    let (_, misses_after) = cache_counters(&db);
    assert_eq!(
        misses_after,
        misses_before + 1,
        "a mutation dooms the cached plan"
    );
    // And the replanned answer sees the new triple.
    assert!(
        answer.iter().any(|t| t.to_string().contains("ex:dave")),
        "{answer:?}"
    );

    // Removal invalidates too.
    db.answer(&q, Semantics::Union);
    let (_, misses_warm) = cache_counters(&db);
    db.remove(&triple("ex:dave", "ex:takes", "ex:AI"));
    db.answer(&q, Semantics::Union);
    let (_, misses_final) = cache_counters(&db);
    assert_eq!(misses_final, misses_warm + 1);
}

#[test]
fn regime_switch_invalidates_cached_plans() {
    let mut db = counting_db();
    let q = takes_query();
    db.answer(&q, Semantics::Union);
    db.answer(&q, Semantics::Union);
    let (_, misses_before) = cache_counters(&db);
    db.set_regime(EntailmentRegime::Simple);
    db.answer(&q, Semantics::Union);
    let (_, misses_after) = cache_counters(&db);
    assert_eq!(
        misses_after,
        misses_before + 1,
        "a regime switch dooms the cached plan"
    );
    // Switching to the regime already in force invalidates nothing.
    db.answer(&q, Semantics::Union);
    let (hits_warm, misses_warm) = cache_counters(&db);
    db.set_regime(EntailmentRegime::Simple);
    db.answer(&q, Semantics::Union);
    let (hits_final, misses_final) = cache_counters(&db);
    assert_eq!(misses_final, misses_warm);
    assert_eq!(hits_final, hits_warm + 1);
}

#[test]
fn dictionary_growth_invalidates_cached_plans() {
    let mut db = counting_db();
    let q = takes_query();
    db.answer(&q, Semantics::Union);
    db.answer(&q, Semantics::Union);
    // An overlay premise query whose premise mentions terms the dictionary
    // has never seen: they are interned into an extension of the
    // snapshot's dictionary, so the live one does not grow and the warm
    // plan stays cached.
    let premise_query = Query::with_premise(
        semweb_foundations::hom::pattern_graph([("?X", "ex:takes", "?C")]),
        semweb_foundations::hom::pattern_graph([("?X", "ex:takes", "?C")]),
        graph([("ex:totally-fresh", "ex:takes", "ex:never-interned")]),
    )
    .expect("well formed");
    let terms = db.graph().dictionary().len();
    let answer = db.answer(&premise_query, Semantics::Union);
    assert!(answer.contains(&triple("ex:totally-fresh", "ex:takes", "ex:never-interned")));
    assert_eq!(
        db.graph().dictionary().len(),
        terms,
        "the live dictionary grew"
    );
    let (_, misses_grown) = cache_counters(&db);
    db.answer(&q, Semantics::Union);
    let (_, misses_after) = cache_counters(&db);
    assert_eq!(
        misses_after, misses_grown,
        "a never-seen-term premise leaves the cached premise-free plan warm"
    );
    // A premise of already-interned terms grows nothing and dooms nothing.
    db.answer(&q, Semantics::Union); // warm the shape again
    let (_, misses_warm) = cache_counters(&db);
    let benign = Query::with_premise(
        semweb_foundations::hom::pattern_graph([("?X", "ex:takes", "?C")]),
        semweb_foundations::hom::pattern_graph([("?X", "ex:takes", "?C")]),
        graph([("ex:alice", "ex:takes", "ex:AI")]),
    )
    .expect("well formed");
    db.answer(&benign, Semantics::Union);
    db.answer(&q, Semantics::Union);
    let (_, misses_final) = cache_counters(&db);
    assert_eq!(
        misses_final, misses_warm,
        "an already-interned premise leaves cached plans valid"
    );
}

#[test]
fn clones_get_a_fresh_plan_cache() {
    let mut db = counting_db();
    let q = takes_query();
    db.answer(&q, Semantics::Union);
    db.answer(&q, Semantics::Union);
    let (_, misses_before) = cache_counters(&db);
    let mut clone = db.clone();
    // The clone shares the metrics sheet but not the plan cache: its first
    // execution of the warm shape is a fresh miss.
    let answer = clone.answer(&q, Semantics::Union);
    let (_, misses_after) = cache_counters(&db);
    assert_eq!(
        misses_after,
        misses_before + 1,
        "clone re-plans from scratch"
    );
    assert_eq!(answer, db.answer(&q, Semantics::Union));
}

#[test]
fn published_snapshots_plan_independently_of_the_writer() {
    let mut db = counting_db();
    let q = takes_query();
    let snapshot = db.publish();
    let first = snapshot.answer(&q, Semantics::Union).expect("premise free");
    let (_, misses_cold) = cache_counters(&db);
    let second = snapshot.answer(&q, Semantics::Union).expect("premise free");
    let (hits_warm, misses_warm) = cache_counters(&db);
    assert_eq!(first, second);
    assert_eq!(
        misses_warm, misses_cold,
        "snapshot re-serves its cached plan"
    );
    assert!(hits_warm > 0);
    // Mutating the writer never touches the pinned snapshot's plans: the
    // snapshot is immutable, so its cache needs no invalidation.
    db.insert_graph(&graph([("ex:eve", "ex:takes", "ex:DB")]));
    let pinned = snapshot.answer(&q, Semantics::Union).expect("premise free");
    assert_eq!(pinned, first, "pinned snapshot stays bit-identical");
    let explain = snapshot
        .explain(&q, Semantics::Union)
        .expect("premise free");
    assert_eq!(explain.plan_cache, "hit");
}

#[test]
fn overlay_queries_are_planned_like_every_other_mechanism() {
    let mut db = counting_db();
    // RDFS regime + premise: the overlay mechanism.
    let q = Query::with_premise(
        semweb_foundations::hom::pattern_graph([("?S", "ex:studies", "?C")]),
        semweb_foundations::hom::pattern_graph([
            ("?S", "ex:takes", "?C"),
            ("ex:dept", "ex:offers", "?C"),
        ]),
        graph([("ex:dave", "ex:takes", "ex:AI")]),
    )
    .expect("well formed");
    let cold = db.explain(&q, Semantics::Union);
    assert_eq!(cold.mechanism, "overlay");
    assert_eq!(cold.plan_cache, "miss");
    assert_eq!(cold.estimated_cardinalities.len(), 2);
    assert!(cold.probes > 0, "planning probed the overlay target");
    let warm = db.explain(&q, Semantics::Union);
    assert_eq!(warm.plan_cache, "hit");
    assert_eq!(warm.probes, 0);
    assert_eq!(warm.join_order, cold.join_order);
    assert_eq!(warm.answers, 4, "three stored students plus the premise's");
}

// ----- randomized planned ≡ unplanned equivalence -----

/// Deterministic xorshift generator — no external crates, reproducible
/// failures (the seed is in the panic message via the round index).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_graph(rng: &mut XorShift, triples: usize) -> Graph {
    let mut g = Graph::new();
    for _ in 0..triples {
        let s = match rng.below(8) {
            0 | 1 => format!("_:b{}", rng.below(3)),
            k => format!("ex:n{k}"),
        };
        let p = format!("ex:p{}", rng.below(3));
        let o = match rng.below(8) {
            0 => format!("_:b{}", rng.below(3)),
            k => format!("ex:n{k}"),
        };
        g.insert(triple(&s, &p, &o));
    }
    g
}

/// The unplanned side is the recomputing specification: every planned
/// reader — the facade cold (plans + caches) and warm (cache hits), and a
/// pinned snapshot — must answer what it answers, up to isomorphism (the
/// core is unique only up to isomorphism, Thm 3.10).
#[test]
fn planned_answers_equal_unplanned_answers_over_random_databases() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0001);
    for round in 0..12 {
        let data = random_graph(&mut rng, 4 + (round % 5) * 4);
        for regime in [EntailmentRegime::Rdfs, EntailmentRegime::Simple] {
            let mut db = SemanticWebDatabase::new();
            db.set_regime(regime);
            db.insert_graph(&data);
            let pinned = db.publish();
            for (qi, q) in probe_queries().iter().enumerate() {
                let context = format!("round {round} query {qi} {regime:?}");
                for semantics in [Semantics::Union, Semantics::Merge] {
                    let spec = db.answer_recomputed(q, semantics);
                    let cold = db.answer(q, semantics);
                    let warm = db.answer(q, semantics);
                    assert_eq!(cold, warm, "{context} {semantics:?}: cached plan");
                    let on_pin = pinned.answer(q, semantics).expect("a snapshot answers");
                    for (reader, answer) in [("facade", warm), ("pinned snapshot", on_pin)] {
                        assert!(
                            isomorphic(&answer, &spec),
                            "{context} {semantics:?}, {reader}: {answer} vs {spec}"
                        );
                    }
                }
                // The pre-answer's union is the union answer, and emptiness
                // is its emptiness — for every reader alike.
                let spec = db.answer_recomputed(q, Semantics::Union);
                let on_pin = (
                    pinned.pre_answers(q).expect("a snapshot answers"),
                    pinned.answer_is_empty(q).expect("a snapshot answers"),
                );
                for (reader, (singles, empty)) in [
                    ("facade", (db.pre_answers(q), db.answer_is_empty(q))),
                    ("pinned snapshot", on_pin),
                ] {
                    assert!(
                        isomorphic(&combine(singles, Semantics::Union), &spec),
                        "{context}, {reader}: pre-answers diverged from {spec}"
                    );
                    assert_eq!(empty, spec.is_empty(), "{context}, {reader}: emptiness");
                }
            }
            // Mutate mid-stream and re-check one warm query: the planned
            // side must replan, not re-use a stale plan.
            db.insert_graph(&graph([("ex:n2", "ex:p0", "ex:n6")]));
            let q = &probe_queries()[1];
            let spec = db.answer_recomputed(q, Semantics::Union);
            let answer = db.answer(q, Semantics::Union);
            assert!(
                isomorphic(&answer, &spec),
                "round {round} {regime:?} post-mutation: {answer} vs {spec}"
            );
        }
    }
}
