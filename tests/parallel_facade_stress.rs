//! Facade stress under parallel propagation: interleaved `insert_graph` /
//! `remove` / `answer` traffic on the university workload, run lockstep at
//! worker ceilings 1 (never spawn), 4, 8 and `usize::MAX`, asserting
//! after every phase that
//!
//! * the maintained closure *index* is bit-identical across all runs (the
//!   engines replay the same ops, so ids are comparable), and
//! * the published evaluation structures agree: identical query answers
//!   and an identical decoded evaluation graph.
//!
//! Tier-2 scale: release builds stress the ~10k-triple workload; debug
//! builds run the same script on a reduced (~1k) instance so `cargo test`
//! stays fast.

use semweb_foundations::core::{SemanticWebDatabase, Semantics};
use semweb_foundations::model::{rdfs, triple, Graph, Triple};
use semweb_foundations::workloads::{university, UniversityConfig};

fn workload() -> Graph {
    // ~160 triples per department: 61 departments is roughly 10k triples.
    let departments = if cfg!(debug_assertions) { 6 } else { 61 };
    university(
        &UniversityConfig {
            departments,
            courses_per_department: 10,
            professors_per_department: 6,
            students_per_department: 30,
            enrollments_per_student: 3,
        },
        0xE21,
    )
}

/// The lockstep sweep: threads=1 (never spawn) is the reference; 4 is the
/// acceptance point; 8 oversubscribes this machine's cores on purpose;
/// `usize::MAX` pins that the count is a ceiling, not a spawn count — the
/// workers of a round or a probe batch are bounded by the batch.
const THREAD_SWEEP: [usize; 4] = [1, 4, 8, usize::MAX];

fn assert_in_lockstep(dbs: &mut [SemanticWebDatabase], context: &str) {
    let queries = [
        semweb_foundations::workloads::university::workers_query(),
        semweb_foundations::workloads::university::persons_query(),
    ];
    let reference_answers: Vec<Graph> = {
        let reference = &mut dbs[0];
        queries
            .iter()
            .map(|q| reference.answer(q, Semantics::Union))
            .collect()
    };
    let reference_eval = dbs[0].evaluation_graph();
    for i in 1..dbs.len() {
        let threads = THREAD_SWEEP[i];
        assert_eq!(
            dbs[i].reasoner().closure_index(),
            dbs[0].reasoner().closure_index(),
            "{context}: maintained closure diverged at threads={threads}"
        );
        for (q, expected) in queries.iter().zip(&reference_answers) {
            assert_eq!(
                &dbs[i].answer(q, Semantics::Union),
                expected,
                "{context}: answers diverged at threads={threads} for {q}"
            );
        }
        assert_eq!(
            dbs[i].evaluation_graph(),
            reference_eval,
            "{context}: published evaluation graph diverged at threads={threads}"
        );
    }
}

#[test]
fn interleaved_traffic_is_bit_identical_to_the_sequential_run() {
    let data = workload();
    let triples: Vec<Triple> = data.iter().cloned().collect();
    let mut dbs: Vec<SemanticWebDatabase> = THREAD_SWEEP
        .iter()
        .map(|&threads| {
            let mut db = SemanticWebDatabase::new();
            db.set_threads(threads);
            assert_eq!(db.threads(), threads);
            db
        })
        .collect();

    // Phase 1 — bulk ingest in chunks, answering between chunks so the
    // evaluation engine is maintained (not rebuilt) across the whole run.
    let chunk = triples.len().div_ceil(4).max(1);
    for (round, part) in triples.chunks(chunk).enumerate() {
        let batch: Graph = part.iter().cloned().collect();
        for db in &mut dbs {
            db.insert_graph(&batch);
        }
        assert_in_lockstep(&mut dbs, &format!("after ingest chunk {round}"));
    }

    // Phase 2 — retraction traffic: DRed-delete a spread of the asserted
    // triples (every 97th), re-checking lockstep as the cascades land — and
    // one schema edge whose cascade overdeletes every student's `Person`
    // typing, hundreds (release: thousands) of prune and rederivation
    // probes in one batch.
    let mut victims: Vec<Triple> = triples.iter().step_by(97).cloned().collect();
    let schema_edge = triple("uni:Student", rdfs::SC, "uni:Person");
    if !victims.contains(&schema_edge) {
        victims.push(schema_edge);
    }
    for (i, victim) in victims.iter().enumerate() {
        for db in &mut dbs {
            assert!(db.remove(victim), "victim {i} was asserted");
        }
        if i % 8 == 0 {
            assert_in_lockstep(&mut dbs, &format!("after removal {i}"));
        }
    }
    assert_in_lockstep(&mut dbs, "after the removal phase");

    // Phase 3 — re-ingest what was removed; the runs must converge back to
    // the full workload's closure.
    let restore: Graph = victims.into_iter().collect();
    for db in &mut dbs {
        db.insert_graph(&restore);
    }
    assert_in_lockstep(&mut dbs, "after restoring the removed triples");
    assert_eq!(dbs[0].len(), data.len());
}
