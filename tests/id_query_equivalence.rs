//! Equivalence property tests for the id-space read path: on seeded random
//! databases (with blank redundancy injected, so `nf(D)` is a proper
//! subgraph of `cl(D)` and the core step is actually exercised), the
//! facade's default id-space answers must agree with the recomputing
//! string-space specification — under both entailment regimes and both
//! answer semantics, across mutations that invalidate the evaluation cache.

use semweb_foundations::core::{EntailmentRegime, SemanticWebDatabase, Semantics};
use semweb_foundations::model::{isomorphic, rdfs, triple, Graph};
use semweb_foundations::query::query;
use semweb_foundations::workloads::{
    inject_blank_redundancy, schema_graph, simple_graph, SchemaGraphConfig, SimpleGraphConfig,
};

mod pools;

use pools::{premise_query_pool, query_pool};

fn random_database(seed: u64) -> Graph {
    let base = if seed.is_multiple_of(2) {
        simple_graph(
            &SimpleGraphConfig {
                triples: 24,
                uri_nodes: 10,
                blank_nodes: 4,
                predicates: 3,
                blank_probability: 0.25,
            },
            seed,
        )
    } else {
        schema_graph(
            &SchemaGraphConfig {
                classes: 5,
                properties: 3,
                edge_probability: 0.3,
                instances: 8,
                data_triples: 10,
            },
            seed,
        )
    };
    inject_blank_redundancy(&base, 5, seed.wrapping_add(17))
}

fn assert_id_path_matches_spec(db: &mut SemanticWebDatabase, seed: u64, context: &str) {
    for regime in [EntailmentRegime::Rdfs, EntailmentRegime::Simple] {
        db.set_regime(regime);
        let pinned = db.publish();
        for q in &query_pool() {
            let id_union = db.answer(q, Semantics::Union);
            let spec_union = db.answer_recomputed(q, Semantics::Union);
            // A pinned snapshot is the same engine over a cloned substrate.
            let pinned_union = pinned.answer(q, Semantics::Union).expect("premise free");
            assert!(
                isomorphic(&pinned_union, &spec_union),
                "seed {seed} ({context}), {regime:?}: snapshot answers diverged for {q}: {pinned_union} vs {spec_union}"
            );
            // The two paths core the evaluation graph independently (the
            // incremental engine vs the recomputing pipeline); the core is
            // unique up to isomorphism, so answers exposing blank nodes may
            // differ in which representative survived.
            assert!(
                isomorphic(&id_union, &spec_union),
                "seed {seed} ({context}), {regime:?}: union answers diverged for {q}: {id_union} vs {spec_union}"
            );
            // Merge renames blank nodes apart in single-answer order, which
            // the two engines enumerate differently; the answers are equal
            // up to blank renaming.
            let id_merge = db.answer(q, Semantics::Merge);
            let spec_merge = db.answer_recomputed(q, Semantics::Merge);
            assert!(
                isomorphic(&id_merge, &spec_merge),
                "seed {seed} ({context}), {regime:?}: merge answers diverged for {q}: {id_merge} vs {spec_merge}"
            );
            assert_eq!(
                db.answer_is_empty(q),
                spec_union.is_empty() && db.pre_answers(q).is_empty(),
                "seed {seed} ({context}), {regime:?}: emptiness diverged for {q}"
            );
        }
    }
    db.set_regime(EntailmentRegime::Rdfs);
}

fn assert_premise_paths_match_spec(db: &mut SemanticWebDatabase, seed: u64, context: &str) {
    for regime in [EntailmentRegime::Rdfs, EntailmentRegime::Simple] {
        db.set_regime(regime);
        let eval_before = db.evaluation_graph();
        for q in &premise_query_pool(seed) {
            for semantics in [Semantics::Union, Semantics::Merge] {
                let id = db.answer(q, semantics);
                let spec = db.answer_recomputed(q, semantics);
                assert!(
                    isomorphic(&id, &spec),
                    "seed {seed} ({context}), {regime:?}/{semantics:?}: premise answers \
                     diverged for {q}: {id} vs {spec}"
                );
            }
            assert_eq!(
                db.answer_is_empty(q),
                db.answer_recomputed(q, Semantics::Union).is_empty(),
                "seed {seed} ({context}), {regime:?}: premise emptiness diverged for {q}"
            );
        }
        // Acceptance bar: overlaid premise queries leave the published
        // evaluation graph bit-identical (not merely isomorphic).
        assert_eq!(
            db.evaluation_graph(),
            eval_before,
            "seed {seed} ({context}), {regime:?}: premise queries perturbed the evaluation graph"
        );
    }
    db.set_regime(EntailmentRegime::Rdfs);
}

#[test]
fn premise_query_paths_equal_the_string_space_spec_on_random_databases() {
    for seed in 0..8u64 {
        let mut db = SemanticWebDatabase::from_graph(random_database(seed));
        assert_premise_paths_match_spec(&mut db, seed, "fresh load");
    }
}

#[test]
fn premise_query_paths_track_mutations() {
    for seed in 0..3u64 {
        let mut db = SemanticWebDatabase::from_graph(random_database(seed));
        // Warm both the evaluation cache and a premise overlay, then
        // mutate: overlays must be invalidated and recomputed against the
        // new engine state.
        let warm = &premise_query_pool(seed)[2];
        let _ = db.answer_union(warm);
        db.insert(triple("ex:n0", "ex:p0", "ex:fresh"));
        db.insert(triple("ex:p1", rdfs::SP, "ex:p2"));
        assert_premise_paths_match_spec(&mut db, seed, "after inserts");
        db.remove(&triple("ex:p1", rdfs::SP, "ex:p2"));
        db.insert(triple("ex:n1", "ex:p0", "_:Fresh"));
        assert_premise_paths_match_spec(&mut db, seed, "after mixed edits");
    }
}

#[test]
fn id_space_answers_equal_string_space_answers_on_random_databases() {
    for seed in 0..8u64 {
        let mut db = SemanticWebDatabase::from_graph(random_database(seed));
        assert_id_path_matches_spec(&mut db, seed, "fresh load");
    }
}

#[test]
fn id_space_answers_track_mutations_through_the_evaluation_cache() {
    for seed in 0..4u64 {
        let mut db = SemanticWebDatabase::from_graph(random_database(seed));
        // Warm the cache, then mutate: the rebuilt evaluation index must
        // reflect every edit, including ones that change the closure.
        let warmup = query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]);
        let _ = db.answer_union(&warmup);
        db.insert(triple("ex:n0", "ex:p0", "ex:fresh"));
        db.insert(triple("ex:p0", rdfs::SP, "ex:p1"));
        assert_id_path_matches_spec(&mut db, seed, "after inserts");
        db.remove(&triple("ex:p0", rdfs::SP, "ex:p1"));
        db.remove(&triple("ex:n0", "ex:p0", "ex:fresh"));
        assert_id_path_matches_spec(&mut db, seed, "after removals");
    }
}

#[test]
fn batched_graph_load_answers_like_incremental_loads() {
    let g = random_database(3);
    let mut batched = SemanticWebDatabase::new();
    batched.insert_graph(&g);
    let mut incremental = SemanticWebDatabase::new();
    for t in g.iter() {
        incremental.insert(t.clone());
    }
    assert_eq!(batched.closure(), incremental.closure());
    for q in &query_pool() {
        let b = batched.answer_union(q);
        let i = incremental.answer_union(q);
        assert!(
            isomorphic(&b, &i),
            "batched and incremental loads must answer identically for {q}: {b} vs {i}"
        );
    }
}

#[test]
fn evaluation_graph_is_isomorphic_to_the_recomputed_normal_form() {
    // The maintained evaluation graph must stay (isomorphic to) the
    // paper-defined one — `nf(D) = core(cl(D))` under RDFS, `core(D)` under
    // simple entailment — through warm-cache mutations in both regimes.
    use semweb_foundations::normal::{core, is_lean};
    for seed in 0..4u64 {
        for regime in [EntailmentRegime::Rdfs, EntailmentRegime::Simple] {
            let mut db = SemanticWebDatabase::from_graph(random_database(seed));
            db.set_regime(regime);
            let expected = |db: &SemanticWebDatabase| match regime {
                EntailmentRegime::Rdfs => core(&db.closure_recomputed()),
                EntailmentRegime::Simple => core(&db.graph().to_graph()),
            };
            let fresh = db.evaluation_graph();
            assert!(
                is_lean(&fresh),
                "seed {seed} {regime:?}: eval graph not lean"
            );
            assert!(
                isomorphic(&fresh, &expected(&db)),
                "seed {seed} {regime:?}: cold evaluation graph diverged"
            );
            // Warm mutations: the engine absorbs deltas instead of being
            // rebuilt — ground, schema-cascading, and blank-touching ones.
            let edits = [
                triple("ex:n0", "ex:p0", "ex:fresh"),
                triple("ex:p0", rdfs::SP, "ex:p1"),
                triple("ex:n1", "ex:p0", "_:Redundant"),
            ];
            for t in &edits {
                db.insert(t.clone());
                assert!(
                    isomorphic(&db.evaluation_graph(), &expected(&db)),
                    "seed {seed} {regime:?}: evaluation graph diverged after inserting {t}"
                );
            }
            for t in edits.iter().rev() {
                db.remove(t);
                assert!(
                    isomorphic(&db.evaluation_graph(), &expected(&db)),
                    "seed {seed} {regime:?}: evaluation graph diverged after removing {t}"
                );
            }
        }
    }
}
