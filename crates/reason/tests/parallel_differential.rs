//! Differential property tests for the closure engine's worker ceiling.
//!
//! The claim the engine rests on — monotone rules over a set, evaluated in
//! sorted rounds, cannot be rescheduled into a different result — is made
//! executable here: for randomized batch inserts, premise previews,
//! interleaved edit scripts (mixed signed batches among them) and DRed
//! delete cascades, the engine is run at every thread count in
//! [`THREAD_SWEEP`] (1 — never spawn — included) and pinned, after
//! **every** mutation, against
//!
//! * every other count — the maintained closure *index* must be
//!   bit-identical, and the `added`/`removed` delta logs that feed the
//!   downstream `IdCoreEngine`, like the previews, must be equal **as
//!   sequences** (one schedule: the same rounds in the same order);
//! * the executable specification `swdb_entailment::rdfs_closure`, so the
//!   sweep cannot agree on a wrong answer.
//!
//! All engines replay the same operations in the same order, so the shared
//! dictionaries assign identical ids and id-level comparison is exact.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swdb_entailment::rdfs_closure;
use swdb_model::{graph, rdfs, triple, Graph, Iri, Term, Triple};
use swdb_reason::{ClosureDelta, MaterializedStore};
use swdb_store::IdTriple;

/// Worker ceilings the differential sweep covers: never spawn, the
/// smallest spawning ceiling, and an oversubscribed one (more workers than
/// this machine has cores — the result must not care).
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// The string-space triples behind an id log, as a graph.
fn materialized(engine: &MaterializedStore, log: &[IdTriple]) -> Graph {
    log.iter().map(|&t| engine.store().materialize(t)).collect()
}

/// Random graphs mixing plain data with RDFS vocabulary triples, blank
/// nodes, and reserved terms in node positions (the feedback shapes of
/// Theorem 3.16) — the same distribution the in-crate spec proptests use.
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
    let pred = prop_oneof![
        3 => (0u8..3).prop_map(|i| Iri::new(format!("ex:p{i}"))),
        2 => (0u8..5).prop_map(|i| match i {
            0 => rdfs::sp(),
            1 => rdfs::sc(),
            2 => rdfs::type_(),
            3 => rdfs::dom(),
            _ => rdfs::range(),
        }),
    ];
    let triple = (node.clone(), pred, node).prop_map(|(s, p, o)| Triple::new(s, p, o));
    proptest::collection::vec(triple, 0..=max_triples).prop_map(Graph::from_triples)
}

/// A seeded pool of candidate triples for edit scripts (the stress-test
/// distribution: small vocabulary, heavy collision rate, so scripts
/// genuinely re-insert, re-derive and cascade).
fn pool(seed: u64) -> Vec<Triple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = |rng: &mut StdRng| -> Iri {
        match rng.gen_range(0..5) {
            0 => rdfs::sp(),
            1 => rdfs::sc(),
            2 => rdfs::type_(),
            3 => rdfs::dom(),
            _ => rdfs::range(),
        }
    };
    let node = |rng: &mut StdRng| -> Term {
        match rng.gen_range(0..10) {
            0..=5 => Term::iri(format!("ex:n{}", rng.gen_range(0..6))),
            6 | 7 => Term::blank(format!("B{}", rng.gen_range(0..3))),
            8 => Term::iri(format!("ex:C{}", rng.gen_range(0..4))),
            _ => Term::Iri(vocab(rng)),
        }
    };
    let size = rng.gen_range(12..32);
    (0..size)
        .map(|_| {
            let p = match rng.gen_range(0..10) {
                0..=3 => Iri::new(format!("ex:p{}", rng.gen_range(0..3))),
                _ => vocab(&mut rng),
            };
            Triple::new(node(&mut rng), p, node(&mut rng))
        })
        .collect()
}

/// Asserts that every engine in the sweep holds a bit-identical closure
/// index (ids are comparable because all engines replayed the same ops).
fn assert_lockstep(engines: &[MaterializedStore], context: &str) -> Result<(), String> {
    let reference = engines[0].closure_index();
    for (engine, &threads) in engines.iter().zip(&THREAD_SWEEP).skip(1) {
        prop_assert_eq!(
            engine.closure_index(),
            reference,
            "closure diverged at threads={} ({})",
            threads,
            context
        );
    }
    Ok(())
}

/// Asserts that `delta` is the exact closure change `engine` made from
/// `before`: it adds only absent triples, removes only present ones, and
/// replays `before` onto the closure `engine` now maintains.
fn assert_exact(
    before: &BTreeSet<IdTriple>,
    engine: &MaterializedStore,
    delta: &ClosureDelta,
    context: &str,
) -> Result<(), String> {
    let added_live = delta.added.iter().find(|t| before.contains(t));
    prop_assert_eq!(added_live, None, "re-added a live triple ({})", context);
    let removed_dead = delta.removed.iter().find(|t| !before.contains(t));
    prop_assert_eq!(removed_dead, None, "removed a dead triple ({})", context);
    let mut replayed = before.clone();
    delta.removed.iter().for_each(|t| _ = replayed.remove(t));
    replayed.extend(&delta.added);
    let now: BTreeSet<IdTriple> = engine.closure_index().iter().collect();
    prop_assert_eq!(
        replayed,
        now,
        "the delta does not replay the closure ({})",
        context
    );
    Ok(())
}

/// The cancellation a mixed batch reports, pinned at every worker ceiling:
/// retracting `(A sc B)` while asserting `(A sc C)` and `(C sc B)`. Alone,
/// the retraction's DRed run takes `(A sc B)` and `(x type B)` out of the
/// closure; the batch's insertion derives both again, so they were in
/// `cl(D)` and are in `cl(D')` and the batch reports them on neither side.
#[test]
fn a_mixed_batch_reports_neither_side_of_what_dred_removed_and_the_insert_rederived() {
    let kept = graph([("ex:x", rdfs::TYPE, "ex:A")]);
    let inserted = graph([("ex:A", rdfs::SC, "ex:C"), ("ex:C", rdfs::SC, "ex:B")]);
    let returned = [
        triple("ex:A", rdfs::SC, "ex:B"),
        triple("ex:x", rdfs::TYPE, "ex:B"),
    ];
    let mut logs = Vec::new();
    for &threads in &THREAD_SWEEP {
        let mut engine = MaterializedStore::with_threads(threads);
        engine.insert_graph(&kept.union(&graph([("ex:A", rdfs::SC, "ex:B")])));
        let retracted = engine.store().resolve_ids(&returned[0]).expect("asserted");
        let returned: Vec<IdTriple> = returned
            .iter()
            .map(|t| engine.store().resolve_ids(t).unwrap())
            .collect();
        let alone = engine.clone().apply_ids(&[], &[retracted]);
        assert!(
            returned.iter().all(|t| alone.removed.contains(t)),
            "DRed removes both"
        );
        let before: BTreeSet<IdTriple> = engine.closure_index().iter().collect();
        let insert = engine.intern_graph(&inserted);
        let delta = engine.apply_ids(&insert, &[retracted]);
        assert_exact(&before, &engine, &delta, &format!("threads={threads}")).unwrap();
        assert_eq!(delta.retracted, [retracted]);
        assert!(returned
            .iter()
            .all(|t| !delta.added.contains(t) && !delta.removed.contains(t)));
        assert_eq!(engine.closure_graph(), rdfs_closure(&kept.union(&inserted)));
        logs.push((delta.added, delta.removed));
    }
    assert!(
        logs.iter().all(|log| *log == logs[0]),
        "one log at every ceiling"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One frontier-batched bulk load, then a preview and a commit of a
    /// second batch: closure index, `added` logs and the preview identical
    /// across the sweep as sequences; the preview leaves the closure alone,
    /// equals the log of committing the same batch, and is the
    /// specification's `cl(G ∪ Δ) − cl(G)`.
    #[test]
    fn parallel_bulk_load_matches_sequential_and_spec(
        g in arb_rdfs_graph(18),
        extra in arb_rdfs_graph(8),
    ) {
        let mut sequential = MaterializedStore::with_threads(1);
        let seq = sequential.insert_graph_with_delta(&g);
        prop_assert_eq!(sequential.closure_graph(), rdfs_closure(&g));
        let ids = sequential.intern_graph(&extra);
        let seq_preview = sequential.preview_insert(&ids);
        prop_assert_eq!(
            materialized(&sequential, &seq_preview),
            rdfs_closure(&g.union(&extra)).difference(&rdfs_closure(&g)),
            "preview is not cl(G ∪ Δ) − cl(G)"
        );
        for &threads in &THREAD_SWEEP[1..] {
            let mut parallel = MaterializedStore::with_threads(threads);
            let delta = parallel.insert_graph_with_delta(&g);
            prop_assert_eq!(
                parallel.closure_index(),
                sequential.closure_index(),
                "bulk-load closure diverged at threads={}",
                threads
            );
            prop_assert_eq!(
                &delta.added,
                &seq.added,
                "added log diverged at threads={}",
                threads
            );
            prop_assert_eq!(&delta.asserted, &seq.asserted, "asserted base diverged");
            prop_assert_eq!(parallel.intern_graph(&extra), ids.clone(), "interned ids diverged");
            prop_assert_eq!(
                parallel.preview_insert(&ids),
                seq_preview.clone(),
                "preview diverged at threads={}",
                threads
            );
            prop_assert_eq!(
                parallel.closure_index(),
                sequential.closure_index(),
                "preview touched the closure at threads={}",
                threads
            );
            prop_assert_eq!(
                parallel.insert_graph_with_delta(&extra).added,
                seq_preview.clone(),
                "committing the batch logged something else than its preview at threads={}",
                threads
            );
        }
        prop_assert_eq!(sequential.insert_graph_with_delta(&extra).added, seq_preview);
        prop_assert_eq!(sequential.closure_graph(), rdfs_closure(&g.union(&extra)));
    }

    /// Interleaved single inserts, batch inserts, DRed deletes and batch
    /// deletes (one DRed run per batch): after every operation the whole
    /// sweep is in lockstep, and both per-op delta logs are the same
    /// sequences at every count; a batch is previewed before it is
    /// committed, and commits what it previewed.
    #[test]
    fn interleaved_edits_stay_in_lockstep_across_thread_counts(
        seed in 0u64..512,
        ops in proptest::collection::vec((0u8..6, 0u8..32u8), 1..14),
    ) {
        let pool = pool(seed);
        let mut engines: Vec<MaterializedStore> =
            THREAD_SWEEP.iter().map(|&n| MaterializedStore::with_threads(n)).collect();
        let mut shadow = Graph::new();
        for (step, &(kind, at)) in ops.iter().enumerate() {
            let at = at as usize % pool.len();
            let deltas: Vec<ClosureDelta> = match kind {
                // Batch insert: a contiguous slice of the pool.
                0 => {
                    let batch: Graph = pool[at..(at + 5).min(pool.len())].iter().cloned().collect();
                    for t in batch.iter() {
                        shadow.insert(t.clone());
                    }
                    engines
                        .iter_mut()
                        .map(|e| {
                            let ids = e.intern_graph(&batch);
                            let preview = e.preview_insert(&ids);
                            let delta = e.insert_graph_with_delta(&batch);
                            assert_eq!(preview, delta.added, "preview vs commit (step {step})");
                            delta
                        })
                        .collect()
                }
                // Single insert.
                1 | 2 => {
                    shadow.insert(pool[at].clone());
                    engines.iter_mut().map(|e| e.insert_with_delta(&pool[at])).collect()
                }
                // DRed delete.
                3 => {
                    shadow.remove(&pool[at]);
                    engines.iter_mut().map(|e| e.remove_with_delta(&pool[at])).collect()
                }
                // Batch delete: a contiguous slice of the pool, one DRed run.
                4 => {
                    let batch = &pool[at..(at + 5).min(pool.len())];
                    for t in batch {
                        shadow.remove(t);
                    }
                    engines
                        .iter_mut()
                        .map(|e| {
                            let ids: Vec<IdTriple> =
                                batch.iter().filter_map(|t| e.store().resolve_ids(t)).collect();
                            e.apply_ids(&[], &ids)
                        })
                        .collect()
                }
                // Mixed batch: insert one slice, then remove an overlapping
                // one (wrapping round the pool), netted last-op-wins into
                // one `apply_ids`.
                _ => {
                    let ins = pool[at..(at + 5).min(pool.len())].iter().map(|t| (t, true));
                    let del = pool.iter().cycle().skip(at + 3).take(3).map(|t| (t, false));
                    let net: BTreeMap<&Triple, bool> = ins.chain(del).collect();
                    let side = |want: bool| net.iter().filter(move |&(_, &a)| a == want);
                    let insert: Graph = side(true).map(|(&t, _)| t.clone()).collect();
                    let remove: Vec<&Triple> = side(false).map(|(&t, _)| t).collect();
                    for &t in &remove {
                        shadow.remove(t);
                    }
                    shadow = shadow.union(&insert);
                    let before: BTreeSet<IdTriple> = engines[0].closure_index().iter().collect();
                    let deltas: Vec<ClosureDelta> = engines
                        .iter_mut()
                        .map(|e| {
                            let insert = e.intern_graph(&insert);
                            let remove: Vec<IdTriple> =
                                remove.iter().filter_map(|t| e.store().resolve_ids(t)).collect();
                            e.apply_ids(&insert, &remove)
                        })
                        .collect();
                    let context = format!("mixed batch at step {step}");
                    assert_exact(&before, &engines[0], &deltas[0], &context)?;
                    let spec = rdfs_closure(&shadow);
                    prop_assert_eq!(engines[0].closure_graph(), spec, "{}", context);
                    deltas
                }
            };
            for (delta, &threads) in deltas.iter().zip(&THREAD_SWEEP).skip(1) {
                prop_assert_eq!(&delta.asserted, &deltas[0].asserted, "asserted (step {})", step);
                let retracted = &deltas[0].retracted;
                prop_assert_eq!(&delta.retracted, retracted, "retracted (step {})", step);
                prop_assert_eq!(
                    &delta.added,
                    &deltas[0].added,
                    "added log diverged at threads={} (step {}, op {})",
                    threads, step, kind
                );
                prop_assert_eq!(
                    &delta.removed,
                    &deltas[0].removed,
                    "removed log diverged at threads={} (step {}, op {})",
                    threads, step, kind
                );
            }
            assert_lockstep(&engines, &format!("step {step}, op {kind}"))?;
        }
        prop_assert_eq!(engines[0].closure_graph(), rdfs_closure(&shadow));
    }

    /// Fill-then-drain: the DRed cascades at every thread count retract to
    /// the same intermediate closures and end on exactly the five axioms.
    #[test]
    fn draining_cascades_agree_at_every_thread_count(seed in 0u64..256) {
        let pool = pool(seed ^ 0xD00D);
        let mut engines: Vec<MaterializedStore> =
            THREAD_SWEEP.iter().map(|&n| MaterializedStore::with_threads(n)).collect();
        for engine in &mut engines {
            let batch: Graph = pool.iter().cloned().collect();
            engine.insert_graph(&batch);
        }
        assert_lockstep(&engines, "after fill")?;
        for (i, t) in pool.iter().enumerate() {
            let removed: Vec<Vec<IdTriple>> = engines
                .iter_mut()
                .map(|e| e.remove_with_delta(t).removed)
                .collect();
            for (log, &threads) in removed.iter().zip(&THREAD_SWEEP).skip(1) {
                prop_assert_eq!(
                    log,
                    &removed[0],
                    "removed log diverged at threads={} deleting triple {}",
                    threads,
                    i
                );
            }
            assert_lockstep(&engines, &format!("after delete {i}"))?;
        }
        for (engine, &threads) in engines.iter().zip(&THREAD_SWEEP) {
            prop_assert!(engine.is_empty(), "threads={} retained assertions", threads);
            prop_assert_eq!(
                engine.closure_len(), 5,
                "threads={} left residue beyond the axioms", threads
            );
        }
    }
}
