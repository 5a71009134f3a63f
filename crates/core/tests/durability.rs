//! End-to-end crash-safety tests for the durability layer, driven through
//! the public facade.
//!
//! The centerpiece is the **crash-point matrix**: a fixed mutation script
//! runs against a fault-injecting IO shim that interrupts the k-th
//! write-point operation — for *every* k, under each of three fault kinds
//! (clean failure, torn write, acknowledged corruption) — and every
//! interrupted run must reopen to a state identical (in term space) to an
//! uninterrupted reference database that executed some prefix of the same
//! script: the prefix through mutation `m − 1` or through `m`, where `m`
//! is the mutation the fault landed in. Nothing else is acceptable — no
//! partial mutations, no resurrections, no silently dropped earlier
//! commits. Re-applying the remaining suffix must then converge on the
//! full reference state.
//!
//! Around the matrix: a double-crash during recovery, degraded mode
//! surviving a reopen exactly, fail-stop on IO errors, and metrics-pinned
//! proof that recovery never recomputes the closure or re-runs a core
//! search. Random scripts of mutations, checkpoints, crashes and injected
//! write failures run against a plain-graph model in the root package's
//! `tests/oracle.rs`; WAL compaction has its own binary
//! (`wal_compaction.rs`) because it sets a process-global variable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swdb_core::durable::{FaultIo, FaultKind, SnapshotPayload, SNAPSHOT_VERSION};
use swdb_core::query::query;
use swdb_core::{
    CoreBudget, CoreBudgetMode, EntailmentRegime, Metrics, MetricsLevel, SemanticWebDatabase,
    Semantics,
};
use swdb_model::{graph, isomorphic, rdfs, triple, Graph};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory; unique per test per process.
fn scratch_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "swdb-durability-{tag}-{}-{seq}",
        std::process::id()
    ))
}

fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The logical, term-space state two databases are compared on: asserted
/// graph, maintained closure, and regime. Ids are deliberately excluded —
/// a recovered store legitimately assigns different ids than the
/// original (queries intern scratch terms that are never logged).
fn state_of(db: &SemanticWebDatabase) -> (Graph, Graph, EntailmentRegime) {
    (db.graph().to_graph(), db.closure(), db.regime())
}

type Step = fn(&mut SemanticWebDatabase);

/// The crash-matrix mutation script: every WAL record kind appears, plus
/// an explicit snapshot rotation mid-script so the matrix sweeps the
/// rotation fault sites too, plus RDFS schema so mutations carry
/// non-trivial closure deltas through the incremental engines. The last
/// step is a four-triple `remove_graph` (plus one absent triple): one WAL
/// record, so a fault inside it recovers all four removed or none.
fn script() -> Vec<Step> {
    vec![
        |db| {
            db.insert_graph(&graph([
                ("ex:p", rdfs::SP, "ex:q"),
                ("ex:q", rdfs::DOM, "ex:C"),
            ]))
        },
        |db| {
            db.insert(triple("ex:a", "ex:p", "ex:b"));
        },
        |db| {
            db.insert(triple("ex:b", "ex:p", "ex:c"));
        },
        |db| {
            let _ = db.snapshot_now();
        },
        |db| {
            db.remove(&triple("ex:a", "ex:p", "ex:b"));
        },
        |db| db.set_regime(EntailmentRegime::Simple),
        |db| {
            db.insert(triple("ex:c", "ex:q", "ex:d"));
        },
        |db| db.set_regime(EntailmentRegime::Rdfs),
        |db| {
            db.insert_graph(&graph([
                ("ex:d", "ex:p", "ex:e"),
                ("_:blank", "ex:q", "ex:d"),
            ]))
        },
        |db| {
            let removed = db.remove_graph(&graph([
                ("ex:b", "ex:p", "ex:c"),
                ("ex:c", "ex:q", "ex:d"),
                ("ex:d", "ex:p", "ex:e"),
                ("_:blank", "ex:q", "ex:d"),
                ("ex:never", "ex:p", "ex:asserted"),
            ]));
            assert_eq!(removed, 4);
        },
    ]
}

/// Reference states: `references()[j]` is the state after executing the
/// first `j` steps on a purely in-memory database.
fn references(steps: &[Step]) -> Vec<(Graph, Graph, EntailmentRegime)> {
    let mut db = SemanticWebDatabase::new();
    let mut states = vec![state_of(&db)];
    for step in steps {
        step(&mut db);
        states.push(state_of(&db));
    }
    states
}

/// The crash-point matrix. For every write-point operation of the durable
/// run and every fault kind: run the script until the fault lands (the
/// simulated crash), drop the database, reopen the directory, and check
/// the recovered state is exactly a legal prefix of the reference run —
/// then re-apply the remaining suffix and check convergence on the final
/// reference state.
#[test]
fn crash_point_matrix_recovers_a_consistent_prefix_at_every_fault_site() {
    let steps = script();
    let refs = references(&steps);
    let total = refs.len() - 1;

    // Probe: count the write-point operations of an uninterrupted run.
    let probe_dir = scratch_dir("matrix-probe");
    let probe_io = FaultIo::new();
    let mut db = SemanticWebDatabase::new();
    db.persist_to_with_io(&probe_dir, Arc::new(probe_io.clone()))
        .expect("probe persist");
    probe_io.disarm(); // count only the script's own operations
    for step in &steps[..total - 1] {
        step(&mut db);
    }
    let before = db.wal_records();
    steps[total - 1](&mut db);
    assert_eq!(
        db.wal_records(),
        before + 1,
        "the four-triple remove_graph commits exactly one WAL record"
    );
    assert!(db.is_durable(), "probe run must not detach");
    assert_eq!(state_of(&db), refs[total]);
    let ops = probe_io.ops();
    assert!(ops > 0, "the script must hit the disk");
    drop(db);
    // An uninterrupted reopen also lands on the final reference state.
    let reopened = SemanticWebDatabase::open(&probe_dir).expect("probe reopen");
    assert_eq!(state_of(&reopened), refs[total]);
    cleanup(&probe_dir);

    for kind in [FaultKind::Fail, FaultKind::Truncate, FaultKind::Corrupt] {
        for at in 0..ops {
            let dir = scratch_dir("matrix");
            let fault = FaultIo::new();
            let mut db = SemanticWebDatabase::new();
            db.persist_to_with_io(&dir, Arc::new(fault.clone()))
                .expect("persist before arming");
            fault.arm(at, kind);

            // Run the script until the fault lands; stopping right there
            // simulates the crash (even when the op was acknowledged, as
            // a lying disk does).
            let mut crashed_in = None;
            for (i, step) in steps.iter().enumerate() {
                step(&mut db);
                if fault.injected() > 0 {
                    crashed_in = Some(i + 1);
                    break;
                }
            }
            let m = crashed_in
                .unwrap_or_else(|| panic!("fault at op {at} ({kind:?}) never landed in {ops} ops"));
            drop(db);
            fault.disarm();

            let recovered = SemanticWebDatabase::open_with_io(
                &dir,
                Arc::new(fault.clone()),
                Metrics::from_env(),
            )
            .unwrap_or_else(|e| panic!("reopen after op {at} ({kind:?}) failed: {e}"));
            let got = state_of(&recovered);
            let j = if got == refs[m] {
                m
            } else if got == refs[m - 1] {
                m - 1
            } else {
                panic!(
                    "fault at op {at} ({kind:?}) in mutation {m}: recovered state is \
                     neither prefix {m} nor prefix {}",
                    m - 1
                );
            };

            // Re-applying the missing suffix converges on the full state.
            let mut resumed = recovered;
            for step in &steps[j..] {
                step(&mut resumed);
            }
            assert_eq!(
                state_of(&resumed),
                refs[total],
                "suffix re-applied after fault at op {at} ({kind:?}) must converge"
            );
            cleanup(&dir);
        }
    }
}

/// A crash *during recovery* must leave the directory recoverable: tear
/// the WAL tail, fail the very first write-point of the recovering open
/// (the tail truncation), and check that a second open still lands on the
/// committed state.
#[test]
fn double_crash_during_recovery_still_recovers() {
    let dir = scratch_dir("double-crash");
    let mut db = SemanticWebDatabase::new();
    db.persist_to(&dir).expect("persist");
    db.insert(triple("ex:a", "ex:p", "ex:b"));
    db.insert(triple("ex:b", "ex:p", "ex:c"));
    let committed = state_of(&db);
    let generation_wal = dir.join(format!("wal-{}.log", 1));
    drop(db);

    // Tear the tail: garbage after the last committed record.
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&generation_wal)
        .expect("live WAL exists");
    file.write_all(&[0xDE, 0xAD, 0xBE]).expect("tear tail");
    drop(file);

    // First recovery attempt crashes at its first write point (the
    // truncation of the torn tail).
    let fault = FaultIo::new();
    fault.arm(0, FaultKind::Fail);
    let attempt =
        SemanticWebDatabase::open_with_io(&dir, Arc::new(fault.clone()), Metrics::from_env());
    assert!(attempt.is_err(), "the armed truncation must fail the open");
    assert_eq!(fault.injected(), 1);
    fault.disarm();

    // The second attempt recovers everything that was committed.
    let recovered = SemanticWebDatabase::open(&dir).expect("second recovery");
    assert_eq!(state_of(&recovered), committed);
    cleanup(&dir);
}

/// Degraded mode survives a reopen *exactly*: the snapshot carries the
/// per-component uncored flags, so `is_degraded`, `uncored_components`,
/// `uncored_triples` and `answer_with_status` agree before and after, and
/// `refresh_degraded` under a lifted budget completes the recovery the
/// budget interrupted.
#[test]
fn degraded_mode_survives_reopen_and_refresh_resumes_after_recovery() {
    let dir = scratch_dir("degraded");
    // The hidden-fold family: the component *can* be cored away, but the
    // search is a hidden-colouring search a 20-step budget interrupts —
    // and, unlike a blank clique, the lifted retry finishes fast.
    let instance = swdb_workloads::hidden_fold_instance(10, 0.5, 7);
    let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
    db.persist_to(&dir).expect("persist");
    db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(20)));
    db.insert_graph(&instance);
    // Force the evaluation engine (and its budgeted core search) to build.
    let q = swdb_query::query([("?S", "?P", "?O")], [("?S", "?P", "?O")]);
    let (answers, non_minimal) = db.answer_with_status(&q, Semantics::Union);
    assert!(
        db.is_degraded(),
        "a 20-step budget cannot core the hidden-fold instance"
    );
    assert!(non_minimal);
    let uncored_components = db.uncored_components();
    let uncored_triples = db.uncored_triples();
    let answer_count = answers.len();
    db.snapshot_now().expect("rotate with degraded state");
    drop(db);

    let mut recovered = SemanticWebDatabase::open(&dir).expect("reopen");
    assert!(recovered.is_degraded(), "degraded flags must survive");
    assert_eq!(recovered.uncored_components(), uncored_components);
    assert_eq!(recovered.uncored_triples(), uncored_triples);
    let (answers, non_minimal) = recovered.answer_with_status(&q, Semantics::Union);
    assert_eq!(answers.len(), answer_count);
    assert!(non_minimal, "answers must still be flagged non-minimal");

    // Lift the budget; the retry resumes from the published survivors.
    recovered.set_core_budget(CoreBudgetMode::Unlimited);
    assert!(recovered.refresh_degraded(), "unlimited retry must finish");
    assert!(!recovered.is_degraded());
    let (_, non_minimal) = recovered.answer_with_status(&q, Semantics::Union);
    assert!(!non_minimal);
    cleanup(&dir);
}

/// Recovery replays through the incremental engines — it never recomputes.
/// Pinned by metrics: an open that loads a snapshot with an empty WAL
/// performs **zero** reasoner rounds and **zero** core retraction
/// searches; an open with a WAL suffix replays exactly its records.
#[test]
fn recovery_is_incremental_not_recomputed() {
    let dir = scratch_dir("no-recompute");
    let mut db = SemanticWebDatabase::new();
    db.persist_to(&dir).expect("persist");
    let stored = graph([
        ("ex:p", rdfs::SP, "ex:q"),
        ("ex:q", rdfs::DOM, "ex:C"),
        ("ex:a", "ex:p", "ex:b"),
    ]);
    db.insert_graph(&stored);
    // Positive control for the `reason_rounds == 0` guard below: building
    // the same store by `insert_graph` does report rounds — at a worker
    // ceiling of 1 too, so the guard cannot pass vacuously anywhere.
    let mut rebuilt = SemanticWebDatabase::new();
    rebuilt.set_threads(1);
    rebuilt.set_metrics_level(MetricsLevel::Counters);
    rebuilt.insert_graph(&stored);
    assert!(
        rebuilt.metrics().snapshot().counter("reason_rounds") > 0,
        "a cold rebuild runs a closure fixpoint and must say so"
    );
    // Build the evaluation engine so its state rides in the snapshot.
    let q = swdb_query::query([("?X", "ex:q", "?Y")], [("?X", "ex:q", "?Y")]);
    assert_eq!(db.answer(&q, Semantics::Union).len(), 1);
    db.snapshot_now().expect("rotate");
    drop(db);

    // Snapshot-only open: pure deserialization.
    let metrics = Metrics::new(MetricsLevel::Counters);
    let recovered = SemanticWebDatabase::open_with_io(
        &dir,
        Arc::new(swdb_core::durable::StdIo),
        metrics.clone(),
    )
    .expect("snapshot-only open");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("reason_rounds"), 0, "no closure fixpoint");
    assert_eq!(
        snap.counter("core_retraction_searches"),
        0,
        "no core search"
    );
    assert_eq!(snap.counter("recovery_replayed_deltas"), 0);
    // …and yet the full state is there, engines included.
    let mut recovered = recovered;
    assert_eq!(recovered.answer(&q, Semantics::Union).len(), 1);
    assert!(recovered.closure_contains(&triple("ex:a", "ex:q", "ex:b")));

    // Three more mutations → a reopen replays exactly three deltas.
    recovered.insert(triple("ex:b", "ex:p", "ex:c"));
    recovered.insert(triple("ex:c", "ex:p", "ex:d"));
    recovered.remove(&triple("ex:c", "ex:p", "ex:d"));
    let expected = state_of(&recovered);
    drop(recovered);

    let metrics = Metrics::new(MetricsLevel::Counters);
    let replayed = SemanticWebDatabase::open_with_io(
        &dir,
        Arc::new(swdb_core::durable::StdIo),
        metrics.clone(),
    )
    .expect("suffix open");
    assert_eq!(
        metrics.snapshot().counter("recovery_replayed_deltas"),
        3,
        "exactly the WAL suffix replays"
    );
    assert_eq!(state_of(&replayed), expected);
    cleanup(&dir);
}

/// Under simple entailment the evaluation engine cores `D` over an index
/// of its own, which a restore builds from the snapshot's base run (the
/// asserted store holds `D` in one ordering). A database with a folded
/// blank checkpoints, takes a WAL suffix whose insert folds a second blank
/// and whose removal unfolds the first, and reopens to the same evaluation
/// graph and the same published evaluation index, ids included: nothing
/// interned a term the WAL does not carry.
#[test]
fn a_simple_regime_database_reopens_to_the_same_evaluation_index() {
    let dir = scratch_dir("simple-restore");
    let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
    db.persist_to(&dir).expect("persist");
    db.insert_graph(&graph([
        ("ex:a", "ex:p", "ex:b"),
        ("ex:b", "ex:q", "ex:c"),
        ("ex:a", "ex:p", "_:X"),
        ("_:X", "ex:q", "ex:c"),
        ("ex:a", "ex:r", "_:Y"),
    ]));
    let folded = db.publish();
    assert_eq!(folded.evaluation_triples(), 3, "_:X folds onto ex:b");
    db.snapshot_now().expect("checkpoint");
    db.insert(triple("ex:a", "ex:p", "_:Z"));
    db.remove(&triple("ex:b", "ex:q", "ex:c"));
    let before = db.publish();
    assert_eq!(before.evaluation_triples(), 4, "_:Z folded, _:X back");
    assert_eq!(db.wal_records(), 2, "the suffix is two records");
    let evaluation = db.evaluation_graph();
    drop(db);

    let mut reopened = SemanticWebDatabase::open(&dir).expect("reopen");
    assert_eq!(reopened.regime(), EntailmentRegime::Simple);
    let after = reopened.publish();
    assert_eq!(reopened.evaluation_graph(), evaluation);
    assert_eq!(after.index(), before.index());
    cleanup(&dir);
}

/// Fail-stop: a durability error detaches the layer, records why, and the
/// in-memory database keeps answering; the directory reopens to the last
/// durable state.
#[test]
fn io_errors_fail_stop_without_poisoning_the_in_memory_database() {
    let dir = scratch_dir("fail-stop");
    let fault = FaultIo::new();
    let mut db = SemanticWebDatabase::new();
    db.persist_to_with_io(&dir, Arc::new(fault.clone()))
        .expect("persist");
    db.insert(triple("ex:a", "ex:p", "ex:b"));
    assert!(db.is_durable());

    fault.arm(0, FaultKind::Fail);
    db.insert(triple("ex:b", "ex:p", "ex:c"));
    assert!(!db.is_durable(), "the failed commit must detach");
    let why = db.durability_error().expect("reason recorded").to_string();
    assert!(why.contains("WAL commit failed"), "got: {why}");

    // In-memory state is intact and mutable after the detach.
    assert_eq!(db.len(), 2);
    db.insert(triple("ex:c", "ex:p", "ex:d"));
    assert_eq!(db.len(), 3);

    // The directory recovers to the last durable state: one triple.
    fault.disarm();
    let recovered = SemanticWebDatabase::open(&dir).expect("reopen");
    assert_eq!(recovered.len(), 1);
    cleanup(&dir);
}

/// The newest snapshot segment in a data directory.
fn live_segment(dir: &PathBuf) -> PathBuf {
    let generation = |name: &str| {
        let digits = name.strip_prefix("snapshot-")?.strip_suffix(".seg")?;
        digits.parse::<u64>().ok()
    };
    let names = std::fs::read_dir(dir)
        .expect("list")
        .map(|e| e.expect("entry"));
    let names = names.map(|e| e.file_name().to_string_lossy().into_owned());
    let newest = names.filter_map(|n| Some((generation(&n)?, n))).max();
    dir.join(newest.expect("a snapshot segment").1)
}

/// A segment a version-1 writer left for the database
/// `{(ex:a ex:p ex:b), (ex:a ex:p _:X), (ex:b rdf:type ex:C)}` under RDFS,
/// published and then persisted (generation 1): beside what version 2
/// writes, it holds the evaluation engine's ground run and an
/// `asserted_core` engine — a core engine over the asserted set, from when
/// `minimize` kept one.
const VERSION_1_SEGMENT: &[u8] = include_bytes!("fixtures/snapshot-v1.seg");

/// The segment a version-2 writer left for the same database, published
/// and then persisted (generation 1): fixed-width terms and triples, and
/// the base as a run of its own beside the closure.
const VERSION_2_SEGMENT: &[u8] = include_bytes!("fixtures/snapshot-v2.seg");

/// A data directory holding `segment` opens, the database answers like the
/// specification, and the next rotation writes the current version, which
/// reopens to the same evaluation graph.
fn opens_and_rotates_to_the_current_version(segment: &[u8], tag: &str) {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).expect("create");
    std::fs::write(dir.join("snapshot-1.seg"), segment).expect("write segment");
    let mut reopened = SemanticWebDatabase::open(&dir).expect("the older file opens");
    assert_eq!(reopened.len(), 3);
    let q = query([("?X", "ex:p", "?Y")], [("?X", "ex:p", "?Y")]);
    for semantics in [Semantics::Union, Semantics::Merge] {
        let answer = reopened.answer(&q, semantics);
        let spec = reopened.answer_recomputed(&q, semantics);
        assert!(isomorphic(&answer, &spec), "{answer} vs {spec}");
    }
    assert_eq!(reopened.minimize_with_status(), (1, true));
    let evaluation = reopened.evaluation_graph();
    assert!(reopened.snapshot_now().expect("rotate"));
    drop(reopened);
    let bytes = std::fs::read(live_segment(&dir)).expect("read segment");
    assert_eq!(bytes[8..12], SNAPSHOT_VERSION.to_le_bytes());
    let (rotated, _) = SnapshotPayload::decode(&bytes).expect("decode");
    assert_eq!(rotated.base.len(), 2);
    let mut again = SemanticWebDatabase::open(&dir).expect("the current file opens");
    assert_eq!(again.evaluation_graph(), evaluation);
    cleanup(&dir);
}

/// A version-1 data directory opens: the ground run and the
/// `asserted_core` it carries are dropped (the bytes it holds beyond the
/// version-2 segment of the same database), and it rotates to the current
/// version.
#[test]
fn a_version_1_data_directory_opens_and_rotates_to_version_3() {
    assert_eq!(VERSION_1_SEGMENT[8..12], 1u32.to_le_bytes());
    let decode = |bytes| SnapshotPayload::decode(bytes).expect("decode");
    assert_eq!(decode(VERSION_1_SEGMENT), decode(VERSION_2_SEGMENT));
    assert_eq!(
        VERSION_1_SEGMENT.len() - VERSION_2_SEGMENT.len(),
        (4 + 9 * 12) + 73,
        "a 9-triple ground run, a 73 B asserted_core"
    );
    opens_and_rotates_to_the_current_version(VERSION_1_SEGMENT, "version-1");
}

/// A version-2 data directory opens, its fixed-width runs and separate
/// base run read through the one decoder, and it rotates to version 3: the
/// same payload in under half the bytes.
#[test]
fn a_version_2_data_directory_opens_and_rotates_to_version_3() {
    assert_eq!(VERSION_2_SEGMENT[8..12], 2u32.to_le_bytes());
    let (payload, generation) = SnapshotPayload::decode(VERSION_2_SEGMENT).expect("decode");
    assert_eq!((payload.base.len(), payload.closure.len()), (3, 10));
    let components = payload.evaluation.as_deref().expect("the engine is built");
    assert!(
        components.iter().any(|c| c.survivors.len() < c.full.len()),
        "one is folded"
    );
    let current = payload.encode(generation).expect("encode");
    assert_eq!(SnapshotPayload::decode(&current), Ok((payload, generation)));
    assert!(
        current.len() * 2 < VERSION_2_SEGMENT.len(),
        "{} B",
        current.len()
    );
    opens_and_rotates_to_the_current_version(VERSION_2_SEGMENT, "version-2");
}

/// A checkpointed database whose evaluation engine is built (so its
/// components ride in the snapshot): `students` students, each typed and
/// advised by an anonymous advisor, under a one-edge class hierarchy.
fn checkpointed_students(dir: &PathBuf, students: usize) -> SemanticWebDatabase {
    let mut db = SemanticWebDatabase::new();
    db.persist_to(dir).expect("persist");
    let mut stored = graph([("ex:Student", rdfs::SC, "ex:Person")]);
    for i in 0..students {
        let student = format!("ex:s{i}");
        stored.insert(triple(&student, rdfs::TYPE, "ex:Student"));
        stored.insert(triple(&student, "ex:advisedBy", &format!("_:a{i}")));
    }
    db.insert_graph(&stored);
    db.publish();
    db.snapshot_now().expect("checkpoint");
    db
}

/// A WAL suffix replays as one signed commit per run of records: k
/// alternating records — an insert of a fresh student with a blank
/// advisor, the removal of a stored student's type (a closure triple with
/// a derived consequence) — reopen at `Debug` with exactly one DRed run,
/// one propagation and one core refresh, at k = 10 and k = 100, while
/// `recovery_replayed_deltas` still counts every record.
#[test]
fn a_replayed_run_of_records_is_one_dred_one_propagation_and_one_core_refresh() {
    for k in [10, 100] {
        let dir = scratch_dir("replay-run");
        let mut db = checkpointed_students(&dir, k);
        for i in 0..k {
            if i % 2 == 0 {
                let fresh = format!("ex:new{i}");
                db.insert_graph(&graph([
                    (fresh.as_str(), rdfs::TYPE, "ex:Student"),
                    (fresh.as_str(), "ex:advisedBy", format!("_:n{i}").as_str()),
                ]));
            } else {
                let stored = triple(&format!("ex:s{i}"), rdfs::TYPE, "ex:Student");
                assert!(db.closure_contains(&stored));
                assert!(db.remove(&stored));
            }
        }
        assert_eq!(db.wal_records(), k as u64);
        let expected = state_of(&db);
        drop(db);

        let metrics = Metrics::new(MetricsLevel::Debug);
        let io = Arc::new(swdb_core::durable::StdIo);
        let reopened = SemanticWebDatabase::open_with_io(&dir, io, metrics.clone()).expect("open");
        let snapshot = metrics.snapshot();
        let samples = |key| snapshot.histograms.get(key).map_or(0, |h| h.count);
        assert_eq!(
            [
                "span_reason_insert_ns",
                "span_reason_delete_ns",
                "span_core_refresh_ns"
            ]
            .map(samples),
            [1, 1, 1],
            "one commit for a run of {k} records"
        );
        assert_eq!(snapshot.counter("recovery_replayed_deltas"), k as u64);
        assert_eq!(state_of(&reopened), expected);
        cleanup(&dir);
    }
}

/// The triples replay scripts draw from: `rdf:type` and `rdfs:subClassOf`
/// edges, blanks, and terms the checkpointed database never interned.
fn replay_pool() -> Vec<swdb_model::Triple> {
    [
        ("ex:a", rdfs::TYPE, "ex:C"),
        ("ex:C", rdfs::SC, "ex:D"),
        ("ex:a", "ex:p", "_:x"),
        ("_:x", rdfs::TYPE, "ex:C"),
        ("ex:a", "ex:p", "ex:b"),
        ("ex:b", rdfs::TYPE, "ex:C"),
        ("ex:D", rdfs::SC, "ex:E"),
        ("ex:a", "ex:p", "_:y"),
        ("_:y", rdfs::TYPE, "ex:E"),
        ("_:z", rdfs::TYPE, "ex:F"),
        ("ex:n", "ex:p", "_:z"),
        ("ex:F", rdfs::SC, "ex:C"),
    ]
    .into_iter()
    .map(|(s, p, o)| triple(s, p, o))
    .collect()
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

    /// Batched replay equals record-by-record replay: a database with its
    /// engine built checkpoints, runs a script of single and batch inserts
    /// and removals (toggles of one triple included) into its WAL, crashes
    /// and reopens. The asserted set, the closure and the dictionary come
    /// back identical as ids, so every record's terms were interned in log
    /// order and the netting kept each triple's last op; the evaluation
    /// graph is isomorphic to the live one and to the normal form
    /// (equivalent under a budget that left a component uncored).
    #[test]
    fn a_netted_replay_recovers_what_the_records_did_one_by_one(
        config in 0u8..8,
        ops in proptest::collection::vec((0u8..5, 0usize..12), 1..=30),
    ) {
        let pool = replay_pool();
        let dir = scratch_dir("netted-replay");
        // Bit 0: the regime, bit 1: the worker ceiling, bit 2: a budget.
        let regimes = [EntailmentRegime::Rdfs, EntailmentRegime::Simple];
        let mut db = SemanticWebDatabase::with_regime(regimes[config as usize & 1]);
        db.set_threads(1 + (config as usize >> 1 & 1));
        if config & 4 != 0 {
            db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
        }
        db.persist_to(&dir).expect("persist");
        db.insert_graph(&pool[..4].iter().cloned().collect());
        db.publish();
        db.snapshot_now().expect("checkpoint");
        for &(kind, at) in &ops {
            let slice: Graph = pool.iter().cycle().skip(at).take(3).cloned().collect();
            match kind {
                0 => _ = db.insert(pool[at].clone()),
                1 => _ = db.remove(&pool[at]),
                2 => db.insert_graph(&slice),
                3 => _ = db.remove_graph(&slice),
                _ => {
                    // A toggle: the same triple in, out and in again.
                    db.insert(pool[at].clone());
                    db.remove(&pool[at]);
                    db.insert(pool[at].clone());
                }
            }
        }
        let records = db.wal_records();
        let ids = |db: &SemanticWebDatabase| {
            let asserted: Vec<_> = db.graph().iter_ids().collect();
            let closure: Vec<_> = db.reasoner().closure_index().iter().collect();
            (asserted, closure, db.graph().dictionary().len())
        };
        let live = ids(&db);
        let live_evaluation = db.evaluation_graph();
        let live_degraded = db.is_degraded();
        drop(db);

        let metrics = Metrics::new(MetricsLevel::Counters);
        let io = Arc::new(swdb_core::durable::StdIo);
        let mut reopened =
            SemanticWebDatabase::open_with_io(&dir, io, metrics.clone()).expect("open");
        cleanup(&dir);
        let replayed = metrics.snapshot().counter("recovery_replayed_deltas");
        proptest::prop_assert_eq!(replayed, records);
        let what = "asserted set, closure and dictionary as ids";
        proptest::prop_assert_eq!(ids(&reopened), live, "{}", what);
        let (evaluation, normal_form) = (reopened.evaluation_graph(), reopened.normal_form());
        // Equivalent, not isomorphic, when a budget left a component uncored.
        let same = if live_degraded || reopened.is_degraded() {
            swdb_entailment::simple_equivalent
        } else {
            isomorphic
        };
        for other in [&live_evaluation, &normal_form] {
            proptest::prop_assert!(same(&evaluation, other), "{} vs {}", evaluation, other);
        }
    }
}
