//! Where a recovery's time goes: the university workload in the shape of
//! `swdb-sysbench`'s `bulk_load_200k` (as in the `ingest_attribution`
//! example) loaded into a durable database in batches, checkpointed, then
//! reopened several times with metrics at `Debug`. Each reopen prints the
//! wall time of `open` beside its spans: `span_snapshot_decode_ns` (read
//! the segment, check its CRC, decode, validate ids),
//! `span_snapshot_restore_ns` (rebuild the state from the payload) and
//! `span_recovery_ns` (all of `open`). The checkpoint comes first: its
//! `span_snapshot_write_ns` split into the streamed write (encode, write,
//! fsync, rename) and `span_snapshot_verify_ns` (the chunked read-back),
//! the most bytes it held live at once beyond the database's own, read
//! off a counting global allocator, and the size of the segment it wrote,
//! whole and per asserted triple, then section by section beside the
//! bytes the same sections took in format version 2 (fixed-width terms
//! and triples, the asserted set a run of its own).
//!
//! Before the reopens, the same allocator splits the live bytes of the
//! loaded, published database into its parts — the dictionary, the
//! closure index, the asserted set, the evaluation engine without its
//! index (it views the closure), and the facade around the state — each
//! freed in turn, beside the bytes of a fresh build of that part from the
//! same triples. Live above fresh is the slack that growing by batch
//! merges leaves in the parts.
//!
//! With a WAL tail (the third argument, default 0), the directory is then
//! opened once more and takes `tail` four-triple writes after the
//! checkpoint, one WAL record each, alternating: a fresh student inserted
//! (a type, two courses and an anonymous advisor), then four triples of a
//! loaded student removed. (Removing the student just inserted would net
//! each pair to nothing.) It is reopened `reopens` times again, and each
//! reopen prints the same columns, its replay beside them: "other" is the
//! replay and the rest, then the spans of the closure's propagation
//! (`span_reason_insert_ns`), its DRed run (`span_reason_delete_ns`) and the
//! core refresh (`span_core_refresh_ns`), with their sample counts (one
//! each: the tail replays as one signed batch). A tail longer than the WAL
//! compaction threshold (`SWDB_WAL_COMPACT`, 10 000 records by default)
//! rotates into a snapshot instead.
//!
//! Run with `cargo run --release --example recovery_attribution --
//! [departments] [reopens] [tail]`; the default, 3500 departments reopened 8
//! times with no tail, is ≈ 200k asserted triples. The data directory is a
//! fresh folder under the system temp directory, removed at the end.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use semweb_foundations::core::durable::codec::{Gaps, Writer};
use semweb_foundations::core::durable::snapshot::{flagged, run, Run};
use semweb_foundations::core::durable::{SnapshotPayload, StdIo};
use semweb_foundations::core::{Metrics, MetricsLevel, SemanticWebDatabase};
use semweb_foundations::model::{rdfs, Graph, Iri, Term, Triple};
use semweb_foundations::normal::IdCoreEngine;
use semweb_foundations::obs::MetricsSnapshot;
use semweb_foundations::store::{Dictionary, IdIndex, IdSet, IdTriple};
use semweb_foundations::workloads::{university, UniversityConfig};

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The bytes of `payload`'s sections as a segment holds them, beside the
/// bytes version 2 wrote for them: the terms, the asserted set (now a flag
/// on each closure triple), the closure and the engine's components. The
/// rest is the header and the settings.
fn section_bytes(payload: &SnapshotPayload) -> [(&'static str, usize, usize); 4] {
    fn gaps(triples: impl Iterator<Item = (IdTriple, bool)>) -> usize {
        let (mut w, mut last) = (Writer::new(), Gaps::default());
        triples.for_each(|(t, flag)| w.gap_triple(&mut last, t, flag));
        4 + w.into_bytes().len()
    }
    fn triples(r: &[IdTriple]) -> Run<'_, IdTriple> {
        run(r.len(), r.iter().copied())
    }
    let fixed = |r: &[IdTriple]| 4 + 12 * r.len();
    let (mut w, mut before, mut text) = (Writer::new(), "", 4);
    for term in &payload.terms {
        before = w.front_term(before, term);
        text += 5 + before.len();
    }
    let base = &payload.base;
    let closure = gaps(flagged(triples(&payload.closure), base.iter().copied()).1);
    let engine = payload.evaluation.iter().flatten();
    let runs = engine.flat_map(|c| [&c.full, &c.survivors, &c.support]);
    let flags = payload.evaluation.as_ref().map_or(0, |c| 4 + c.len());
    let unflagged = |r: &Vec<IdTriple>| gaps(r.iter().map(|&t| (t, false)));
    let components = runs.clone().map(unflagged).sum::<usize>();
    let components_v2 = runs.map(|r| fixed(r)).sum::<usize>();
    [
        ("terms", 4 + w.into_bytes().len(), text),
        ("asserted", 0, fixed(base)),
        ("closure", closure, fixed(&payload.closure)),
        (
            "components",
            4 + flags + components,
            4 + flags + components_v2,
        ),
    ]
}

/// [`System`], counting live bytes.
struct Counting;

fn tally(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the tallies are
// atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live bytes freed by dropping `part`.
fn freed<T>(part: T) -> i64 {
    let before = LIVE.load(Relaxed);
    drop(part);
    before - LIVE.load(Relaxed)
}

/// What `build` returns, and the live bytes it holds.
fn built<T>(build: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.load(Relaxed);
    let part = build();
    (part, LIVE.load(Relaxed) - before)
}

/// The live bytes of a loaded, published database's parts, each freed in
/// turn, beside a fresh build of the part from the same triples: one row
/// per part, `(name, live, fresh)`. The engine's fresh build is a cold
/// core of a fresh closure index, which it views as the live one does.
fn parts(db: SemanticWebDatabase) -> Vec<(&'static str, i64, Option<i64>)> {
    let reasoner = db.reasoner();
    let dictionary = Arc::clone(reasoner.store().shared_dictionary());
    let closure = reasoner.closure_index().clone();
    let store = reasoner.store().clone();
    let closure_run: Vec<IdTriple> = closure.iter().collect();
    let asserted_run: Vec<IdTriple> = store.iter_ids().collect();

    let (_, fresh_dictionary) = built(|| {
        let mut fresh = Dictionary::new();
        dictionary
            .iter()
            .for_each(|(_, term)| _ = fresh.intern(term));
        fresh
    });
    let (fresh_closure, fresh_closure_bytes) = built(|| IdIndex::from_sorted(&closure_run));
    let (_, fresh_asserted) = built(|| IdSet::from_sorted(&asserted_run));
    let (_, fresh_engine) = built(|| {
        let mut engine = IdCoreEngine::new();
        engine.apply_delta_over(&fresh_closure, &closure_run, &[], &dictionary);
        engine
    });
    drop((fresh_closure, closure_run, asserted_run));

    // The published snapshot holds the state once the facade is gone.
    let state = db.published();
    vec![
        ("facade and the rest", freed(db), None),
        ("engine without its index", freed(state), Some(fresh_engine)),
        ("closure index", freed(closure), Some(fresh_closure_bytes)),
        ("asserted set", freed(store), Some(fresh_asserted)),
        ("dictionary", freed(dictionary), Some(fresh_dictionary)),
    ]
}

/// The recorded sum of a histogram, in milliseconds.
fn span_ms(snapshot: &MetricsSnapshot, key: &str) -> f64 {
    snapshot.histograms.get(key).map_or(0, |h| h.sum) as f64 / 1e6
}

fn main() {
    let mut args = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a count"));
    let departments: usize = args.next().unwrap_or(3500);
    let reopens: usize = args.next().unwrap_or(8);
    let tail: usize = args.next().unwrap_or(0);
    let config = UniversityConfig {
        departments,
        courses_per_department: 6,
        professors_per_department: 3,
        students_per_department: 10,
        enrollments_per_student: 3,
    };
    let mut data = university(&config, 7);
    for d in 0..departments {
        data.insert(Triple::new(
            Term::iri(format!("uni:student{d}_0")),
            Iri::new("uni:advisedBy"),
            Term::blank(format!("second{d}")),
        ));
    }
    let triples: Vec<Triple> = data.iter().cloned().collect();
    drop(data);

    let dir = std::env::temp_dir().join(format!("swdb-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = Metrics::new(MetricsLevel::Debug);
    let unloaded = LIVE.load(Relaxed);
    let mut db = SemanticWebDatabase::open_with_io(&dir, Arc::new(StdIo), metrics.clone())
        .expect("open a fresh directory");
    for batch in triples.chunks(triples.len().div_ceil(20).max(1)) {
        db.insert_graph(&batch.iter().cloned().collect::<Graph>());
    }
    db.publish();
    let (asserted, evaluation) = (db.len(), db.published().evaluation_triples());
    let before = LIVE.load(Relaxed);
    let loaded = before - unloaded;
    PEAK.store(before, Relaxed);
    assert!(
        db.snapshot_now().expect("checkpoint"),
        "durability attached"
    );
    let peak_kib = (PEAK.load(Relaxed) - before) as f64 / 1024.0;
    let s = metrics.snapshot();
    let (rotation, verify) = (
        span_ms(&s, "span_snapshot_write_ns"),
        span_ms(&s, "span_snapshot_verify_ns"),
    );
    let parts = parts(db);
    let segment = std::fs::read_dir(&dir)
        .expect("list the data directory")
        .map(|entry| entry.expect("an entry").path())
        .find(|path| path.extension().is_some_and(|e| e == "seg"))
        .map(|path| std::fs::read(path).expect("read the segment"))
        .expect("a segment");
    let payload = SnapshotPayload::decode(&segment)
        .expect("decode the segment")
        .0;
    let segment = segment.len();
    println!(
        "U({departments}): {asserted} asserted, {evaluation} evaluation triples; checkpoint \
         span_snapshot_write_ns {rotation:.1} ms (write {:.1} ms, verify {verify:.1} ms), \
         {peak_kib:.0} KiB extra live at its peak; segment {segment} B, {:.2} B per asserted \
         triple",
        rotation - verify,
        segment as f64 / asserted as f64
    );
    let sections = section_bytes(&payload);
    drop(payload);
    println!("section         bytes  version 2");
    for (name, now, v2) in sections {
        println!("{name:<12}  {now:>8}  {v2:>9}");
    }

    let mib = |bytes: i64| bytes as f64 / (1024.0 * 1024.0);
    let per_triple = |bytes: i64| bytes as f64 / asserted as f64;
    println!(
        "live bytes of the loaded, published database: {:.1} MiB, {:.1} B per asserted triple",
        mib(loaded),
        per_triple(loaded)
    );
    println!("part                      live MiB  B/triple  fresh MiB  B/triple");
    for (name, live, fresh) in parts {
        let fresh = fresh.map_or("         -         -".to_string(), |bytes| {
            format!("{:>9.1}  {:>8.1}", mib(bytes), per_triple(bytes))
        });
        println!(
            "{name:<24}  {:>8.1}  {:>8.1}  {fresh}",
            mib(live),
            per_triple(live)
        );
    }

    let reopen = |tail: usize, expected: usize| {
        for i in 0..reopens {
            let metrics = Metrics::new(MetricsLevel::Debug);
            let started = Instant::now();
            let db = SemanticWebDatabase::open_with_io(&dir, Arc::new(StdIo), metrics.clone())
                .expect("reopen");
            let open = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(db.len(), expected, "the reopened database holds the writes");
            let s = metrics.snapshot();
            let (decode, restore, recovery) = (
                span_ms(&s, "span_snapshot_decode_ns"),
                span_ms(&s, "span_snapshot_restore_ns"),
                span_ms(&s, "span_recovery_ns"),
            );
            let spans = [
                "span_reason_insert_ns",
                "span_reason_delete_ns",
                "span_core_refresh_ns",
            ];
            let samples = spans.map(|key| s.histograms.get(key).map_or(0, |h| h.count));
            let [insert, delete, refresh] = spans.map(|key| span_ms(&s, key));
            println!(
                "{i:>6}  {tail:>5}  {open:>7.1}  {decode:>9.1}  {restore:>10.1}  {recovery:>11.1}  \
                 {:>8.1}  {insert:>9.1}  {delete:>9.1}  {refresh:>10.1}  {samples:?}",
                recovery - decode - restore
            );
        }
    };
    println!(
        "reopen   tail  open ms  decode ms  restore ms  recovery ms  other ms  insert ms  \
         delete ms  refresh ms  samples"
    );
    reopen(0, asserted);
    if tail > 0 {
        let mut db = SemanticWebDatabase::open_with_io(&dir, Arc::new(StdIo), Metrics::default())
            .expect("open for the tail");
        // The loaded students, each with its triples.
        let mut students: BTreeMap<&Term, Graph> = BTreeMap::new();
        for t in &triples {
            if matches!(t.subject(), Term::Iri(iri) if iri.as_str().starts_with("uni:student")) {
                students.entry(t.subject()).or_default().insert(t.clone());
            }
        }
        let mut loaded = students.into_values().filter(|g| g.len() >= 4);
        for i in 0..tail {
            let d = i / 2 % departments;
            if i % 2 == 0 {
                let fresh = Term::iri(format!("uni:tailStudent{i}"));
                let course = |c| Term::iri(format!("uni:course{d}_{c}"));
                db.insert_graph(&Graph::from_triples([
                    Triple::new(fresh.clone(), rdfs::type_(), Term::iri("uni:Student")),
                    Triple::new(fresh.clone(), Iri::new("uni:takes"), course(0)),
                    Triple::new(fresh.clone(), Iri::new("uni:takes"), course(1)),
                    Triple::new(
                        fresh,
                        Iri::new("uni:advisedBy"),
                        Term::blank(format!("tail{i}")),
                    ),
                ]));
            } else {
                let student = loaded.next().expect("a loaded student with four triples");
                let four: Graph = student.iter().take(4).cloned().collect();
                assert_eq!(db.remove_graph(&four), 4);
            }
        }
        let expected = db.len();
        drop(db);
        reopen(tail, expected);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
