//! Complexity pins: the O(delta) claims of the write, premise and read
//! paths, checked as allocation counts instead of clocks.
//!
//! Each pin runs one operation on a database of `N` asserted triples and on
//! one of `4N`, with the same delta, and counts the heap allocations the
//! operation makes on the calling thread (one pin counts the bytes a loaded
//! database holds instead). Work that is independent of the
//! database's size allocates the same at both sizes, up to [`SLACK`]: a
//! persistent-index write may split a chunk at one size and not at the
//! other. Work that walks the database does not — a set of every asserted
//! blank, or a copy of the dictionary, allocates in proportion to it. Two
//! pins vary something else: the number of blank components behind a
//! facade point read, and the evaluator (id space against string space)
//! behind one warm query.
//!
//! The counter is a `#[global_allocator]` wrapping [`System`] with
//! thread-local tallies of allocations and of net live bytes, so the test
//! harness's other threads do not count.
//! Everything is deterministic: the fixtures are fixed, the closure engine
//! runs on one worker, metrics are off, and nothing reads a clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use semweb_foundations::core::{MetricsLevel, SemanticWebDatabase, Semantics};
use semweb_foundations::hom::pattern_graph;
use semweb_foundations::model::{graph, rdfs, triple, Graph};
use semweb_foundations::query::{answer_against, query, NormalizedDatabase, Query};
use semweb_foundations::workloads::university::workers_query;
use semweb_foundations::workloads::{university, UniversityConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE_BYTES`.
    static PEAK_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts an allocation (`allocated`) that changed the live bytes by
/// `bytes`.
fn tally(allocated: bool, bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + u64::from(allocated)));
    let _ = LIVE_BYTES.try_with(|n| {
        n.set(n.get() + bytes);
        let _ = PEAK_LIVE_BYTES.try_with(|peak| peak.set(peak.get().max(n.get())));
    });
}

// SAFETY: every call forwards to `System` unchanged; the tallies touch only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(true, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(true, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(true, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(false, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `op` and returns its result with the allocations it made on this
/// thread (reallocations included).
fn allocations<R>(op: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = op();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `op` and returns its result with the bytes it left allocated on
/// this thread: what the result holds, once `op`'s temporaries are freed.
fn live_bytes<R>(op: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = op();
    (out, LIVE_BYTES.with(Cell::get) - before)
}

/// Runs `op` and returns its result with the most bytes it held live on
/// this thread at once, beyond those live before it.
fn peak_live_bytes<R>(op: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_LIVE_BYTES.with(|peak| peak.set(before));
    let out = op();
    (out, PEAK_LIVE_BYTES.with(Cell::get) - before)
}

/// The smaller database size; the larger is four times it.
const N: usize = 2_000;

/// How far apart the two sizes' allocation counts may be.
const SLACK: u64 = 8;

/// The ceiling on the extra live bytes of a checkpoint, at every size: a
/// chunk written and a chunk read back, 64 KiB each, with room to spare.
const CHECKPOINT_CEILING: i64 = 256 << 10;

/// How many more extra live bytes a checkpoint may hold at `4N` than at
/// `N` (see the pin that uses it).
const CHECKPOINT_GROWTH: i64 = 512;

/// The ceiling on live bytes per asserted triple of a published
/// [`fixture`] (see the pin that uses it).
const LIVE_BYTES_CEILING: f64 = 418.0;

/// The ceiling on a checkpoint segment's bytes per asserted triple of a
/// [`fixture`] (see the pin that uses it).
const SEGMENT_BYTES_CEILING: f64 = 30.0;

/// `n` asserted triples under RDFS: half ground, half two-triple blank
/// components (`n / 4` of them), none of which shares a predicate with the
/// premise below, plus the premise's fixed neighbourhood. Built and
/// published on one worker with metrics off.
fn fixture(n: usize) -> SemanticWebDatabase {
    let mut db = unpublished(n);
    db.publish();
    db
}

/// [`fixture`] before its first publication.
fn unpublished(n: usize) -> SemanticWebDatabase {
    let mut db = SemanticWebDatabase::new();
    db.set_threads(1);
    db.set_metrics_level(MetricsLevel::Off);
    let mut g = Graph::new();
    for i in 0..n / 2 {
        g.insert(triple(
            &format!("ex:s{i}"),
            "ex:ground",
            &format!("ex:o{i}"),
        ));
    }
    for i in 0..n / 4 {
        let blank = format!("_:B{i}");
        g.insert(triple(&format!("ex:s{i}"), "ex:hasBlank", &blank));
        g.insert(triple(&blank, "ex:blankTo", &format!("ex:o{i}")));
    }
    g.insert(triple("ex:a", "ex:likes", "ex:z"));
    g.insert(triple("ex:knows", "ex:label", "ex:k"));
    db.insert_graph(&g);
    db
}

/// A write of known terms (interns nothing) that invalidates the premise
/// cache and the plan cache.
fn toggle(db: &mut SemanticWebDatabase) {
    let t = triple("ex:z", "ex:ground", "ex:a");
    if !db.remove(&t) {
        db.insert(t);
    }
}

/// A ground premise over RDFS vocabulary: an overlay, answered
/// `{(ex:a ex:knows ex:z)}` at every size.
fn premise_query() -> Query {
    Query::with_premise(
        pattern_graph([("?X", "ex:knows", "?Y")]),
        pattern_graph([("?X", "ex:knows", "?Y")]),
        graph([("ex:likes", rdfs::SP, "ex:knows")]),
    )
    .unwrap()
}

fn assert_flat(what: &str, small: u64, large: u64) {
    assert!(
        small.abs_diff(large) <= SLACK,
        "{what}: {small} allocations at {N} triples, {large} at {}",
        4 * N
    );
}

/// A cold ground premise — capture avoidance, interning, the closure
/// preview, the overlay core and the join over the fork — allocates
/// independently of the number of asserted triples: renaming apart probes
/// the store per premise blank and never walks it.
#[test]
fn a_cold_ground_premise_allocates_independently_of_the_database() {
    let q = premise_query();
    let cold = |n: usize| {
        let mut db = fixture(n);
        // The first ask builds what every later one reuses.
        db.answer(&q, Semantics::Union);
        toggle(&mut db);
        let (answer, count) = allocations(|| db.answer(&q, Semantics::Union));
        assert_eq!(answer, graph([("ex:a", "ex:knows", "ex:z")]));
        count
    };
    assert_flat("cold ground premise", cold(N), cold(4 * N));
}

/// `publish()` after a write that interns no new term allocates
/// independently of the database: the index is shared chunk by chunk and
/// the dictionary `Arc` the previous publish handed out is reused.
#[test]
fn publishing_a_write_of_known_terms_allocates_independently_of_the_database() {
    let publish = |n: usize| {
        let mut db = fixture(n);
        toggle(&mut db);
        let (snapshot, count) = allocations(|| db.publish());
        assert_eq!(snapshot.dictionary().len(), db.graph().dictionary().len());
        count
    };
    assert_flat(
        "publish after a known-term write",
        publish(N),
        publish(4 * N),
    );
}

/// A premise asked on a pinned snapshot is committed into forks of the pin:
/// its terms are interned into an extension of the pinned dictionary. So a
/// stream of distinct premises naming fresh IRIs leaves the live dictionary
/// as it was, and a cold one allocates independently of the database.
#[test]
fn a_cold_premise_on_a_pin_grows_no_dictionary_and_allocates_independently_of_the_database() {
    let fresh = |i: usize| {
        let named = format!("ex:v{i}");
        Query::with_premise(
            pattern_graph([("?X", "ex:knows", "?Y")]),
            pattern_graph([("?X", "ex:knows", "?Y")]),
            graph([
                ("ex:likes", rdfs::SP, "ex:knows"),
                (named.as_str(), "ex:likes", "ex:z"),
            ]),
        )
        .unwrap()
    };
    let expected = |i: usize| {
        let named = format!("ex:v{i}");
        graph([
            ("ex:a", "ex:knows", "ex:z"),
            (named.as_str(), "ex:knows", "ex:z"),
        ])
    };
    let mut db = fixture(N);
    let pinned = db.publish();
    let terms = db.graph().dictionary().len();
    for i in 0..1_000 {
        let answer = pinned.answer(&fresh(i), Semantics::Union).unwrap();
        assert_eq!(answer, expected(i));
    }
    assert_eq!(db.graph().dictionary().len(), terms, "the live dictionary");
    assert_eq!(pinned.dictionary().len(), terms, "the pinned dictionary");

    let cold = |n: usize| {
        let pinned = fixture(n).published();
        // The first ask plans the shape every later one shares.
        pinned.answer(&fresh(0), Semantics::Union).unwrap();
        let q = fresh(1);
        let (answer, count) = allocations(|| pinned.answer(&q, Semantics::Union));
        assert_eq!(answer.unwrap(), expected(1));
        count
    };
    assert_flat("cold premise on a pin", cold(N), cold(4 * N));
}

/// A write commits by forking the facade's state, after interning its new
/// terms into the committed one: with no snapshot published, nothing holds
/// the dictionary but that state — the last read's premise fork is dropped
/// first — so neither step copies it, and a write of two new IRIs
/// allocates independently of the database. Forking before interning, or
/// keeping the read's fork until the swap, copies the dictionary.
#[test]
fn a_write_of_new_terms_on_an_unpublished_facade_allocates_independently_of_the_database() {
    let q = premise_query();
    let write = |n: usize| {
        let mut db = unpublished(n);
        db.answer(&q, Semantics::Union);
        let fresh = triple("ex:fresh", "ex:ground", "ex:new");
        let (added, count) = allocations(|| db.insert(fresh));
        assert!(added);
        count
    };
    assert_flat("a write of new terms, unpublished", write(N), write(4 * N));
}

/// A write that joins one blank component on a published facade — of known
/// terms, so no dictionary copy — allocates independently of the number of
/// components (`n / 4`): the core engine's component slab and lookups are
/// shared with the snapshot, a write copies the chunks and runs it changes,
/// and the refresh reads only the component the write names. Every
/// component's survivors use the write's predicate `ex:blankTo`, so waking
/// by shared predicate searches each of them, and allocates in proportion.
#[test]
fn a_blank_write_on_a_published_facade_allocates_independently_of_the_component_count() {
    let write = |n: usize| {
        let mut db = fixture(n);
        let t = triple("ex:z", "ex:blankTo", "_:B0");
        assert!(db.insert(t.clone()) && db.remove(&t));
        db.publish();
        let (added, count) = allocations(|| db.insert(t));
        assert!(added);
        count
    };
    assert_flat("a blank write, published", write(N), write(4 * N));
}

/// One warm read on a pin of [`fixture`]`(n)` — the answer set and its
/// N-Triples rendering, as the server writes a `/query` body — with the
/// allocations it made.
fn warm_read(n: usize, q: &Query) -> (String, u64) {
    let pinned = fixture(n).published();
    // The first read plans the shape.
    pinned.answer(q, Semantics::Union).unwrap();
    allocations(|| {
        let answer = pinned.answer_set(q, Semantics::Union).unwrap();
        let mut body = String::new();
        answer.write_ntriples(pinned.dictionary(), |piece| body.push_str(piece));
        body
    })
}

/// A point read on a pinned snapshot — plan-cache hit, join, answer
/// assembly and rendering — allocates independently of the database. A
/// per-read copy of anything the snapshot holds (its dictionary, an
/// index, the blank set) would allocate in proportion to it.
#[test]
fn a_point_read_on_a_pinned_snapshot_allocates_independently_of_the_database() {
    let q = query([("?X", "ex:likes", "?Y")], [("?X", "ex:likes", "?Y")]);
    let read = |n: usize| {
        let (body, count) = warm_read(n, &q);
        assert_eq!(body, "<ex:a> <ex:likes> <ex:z> .\n");
        count
    };
    assert_flat("a point read on a pin", read(N), read(4 * N));
}

/// A scan's answer is assembled as one run of id triples and rendered
/// straight into the output buffer, so it allocates a bounded number of
/// times however many triples it returns: only the run and the buffer
/// double as they grow. The fixture's `ex:ground` scan returns `N / 2` and
/// `2N` triples; a per-row allocation in assembly or rendering (a `Vec`
/// per answer triple) adds 3 000 between them.
#[test]
fn a_scan_allocates_a_bounded_number_of_times_however_many_triples_it_returns() {
    let q = query([("?X", "ex:ground", "?Y")], [("?X", "ex:ground", "?Y")]);
    let scan = |n: usize| {
        let (body, count) = warm_read(n, &q);
        assert_eq!(body.lines().count(), n / 2);
        count
    };
    assert_flat("a scan", scan(N), scan(4 * N));
}

/// A scan puts its answer in term order through the dictionary's rank
/// table, built on first use and cached in the dictionary value. A write of
/// known terms leaves that value as it was — on an unpublished facade too,
/// where the write interns into the dictionary in place — so the pin
/// published after it hands a scan the same table, and no scan after a
/// known-term write rebuilds it. Dropping the table on every `intern`,
/// known terms included, fails this.
#[test]
fn a_scan_after_a_known_term_write_reuses_the_term_order_table() {
    use std::sync::Arc;
    let q = query([("?X", "ex:ground", "?Y")], [("?X", "ex:ground", "?Y")]);
    let mut db = unpublished(N);
    db.answer_set(&q, Semantics::Union);
    let built = Arc::clone(db.graph().dictionary().term_order());
    toggle(&mut db);
    let pinned = db.publish();
    let answer = pinned.answer_set(&q, Semantics::Union).unwrap();
    assert_eq!(answer.len(), N / 2 + 1, "the toggled triple is in");
    toggle(&mut db);
    let pinned = db.publish();
    pinned.answer_set(&q, Semantics::Union).unwrap();
    let table = pinned.dictionary().term_order();
    assert!(std::ptr::eq(&*built, &**table), "the table was rebuilt");
}

/// Premise-free answering in id space against the string-space evaluator,
/// both warm: the string path rebuilds a term-keyed index on every call
/// and joins on cloned terms, which is what the facade did per query
/// before the id engine; the id path compiles against the dictionary and
/// joins over the cached index. Counted in allocations, the id path is
/// the cheaper by far more than the fivefold the name asks.
#[test]
fn warm_id_space_answering_beats_string_space_by_5x() {
    let data = university(
        &UniversityConfig {
            departments: 12,
            courses_per_department: 8,
            professors_per_department: 4,
            students_per_department: 20,
            enrollments_per_student: 3,
        },
        0xE18,
    );
    let q = workers_query();
    let normalized = NormalizedDatabase::without_premise(&data);
    let mut db = SemanticWebDatabase::from_graph(data);
    db.set_threads(1);
    db.set_metrics_level(MetricsLevel::Off);
    let expected = answer_against(&q, &normalized, Semantics::Union);
    assert_eq!(db.answer(&q, Semantics::Union), expected);

    let (answer, string_space) = allocations(|| answer_against(&q, &normalized, Semantics::Union));
    assert_eq!(answer, expected);
    let (answer, id_space) = allocations(|| db.answer(&q, Semantics::Union));
    assert_eq!(answer, expected);
    assert!(
        string_space >= 5 * id_space,
        "string space {string_space} allocations, id space {id_space}"
    );
}

/// A point read through the live facade allocates independently of the
/// number of blank components the store holds (single-blank components
/// with distinct objects, so nothing folds): anything the facade did per
/// read over its components, such as re-deriving the evaluation view,
/// would allocate in proportion to them, and a snapshot read does not.
#[test]
fn a_facade_point_read_costs_no_multiple_of_a_snapshot_read_on_a_blank_heavy_store() {
    let q = query([("?X", "ex:q", "?Y")], [("?X", "ex:q", "?Y")]);
    let read = |components: usize| {
        let mut data = Graph::new();
        for i in 0..components {
            data.insert(triple(&format!("_:b{i}"), "ex:p", &format!("ex:o{i}")));
        }
        data.insert(triple("ex:a", "ex:q", "ex:b"));
        let mut db = SemanticWebDatabase::from_graph(data);
        db.set_metrics_level(MetricsLevel::Off);
        assert_eq!(db.answer(&q, Semantics::Union).len(), 1);
        let (answer, facade) = allocations(|| db.answer(&q, Semantics::Union));
        assert_eq!(answer.len(), 1);
        let snapshot = db.publish();
        snapshot.answer(&q, Semantics::Union).unwrap();
        let (answer, pinned) = allocations(|| snapshot.answer(&q, Semantics::Union));
        assert_eq!(answer.unwrap().len(), 1);
        assert!(
            facade <= pinned + SLACK,
            "{facade} allocations through the facade, {pinned} on a snapshot"
        );
        facade
    };
    assert_eq!(read(10_000), read(40_000), "a facade point read");
}

/// The live bytes of a loaded, published [`fixture`] per asserted triple,
/// at `N` and at `4N`: the dictionary, the asserted set in one ordering,
/// the closure, and the evaluation engine, whose index is a view of the
/// closure that shares its nodes and which keeps no index of blank triples
/// (its components' full sets are the closure's blank side). It reads
/// 412.4 / 403.6 bytes at `N` / `4N`. A separate three-ordering index of
/// the engine's blank triples adds ≈ 20 (432.1 / 423.1), an asserted set in
/// three orderings ≈ 26 more (458.2 / 449.0), and an evaluation index of
/// its own, a second copy of every closure triple, ≈ 50; each fails the
/// ceiling at both sizes.
#[test]
fn a_published_database_holds_each_closure_triple_in_one_index() {
    for n in [N, 4 * N] {
        let (db, bytes) = live_bytes(|| fixture(n));
        let per_triple = bytes as f64 / db.len() as f64;
        eprintln!("{n}: {per_triple:.1} live bytes per asserted triple");
        assert!(
            per_triple < LIVE_BYTES_CEILING,
            "{per_triple:.1} live bytes per asserted triple at {n} triples"
        );
    }
}

/// A checkpoint of a durable [`fixture`] at `N` and at `4N`: the most bytes
/// `snapshot_now` holds live at once, beyond the database's own. A rotation
/// that streams the segment from the live state holds a few chunk buffers
/// at either size; one that builds a payload, encodes it into a buffer or
/// decodes the file whole to verify it holds an image of the state, which
/// grows with the database and fails the ceiling at `4N`.
#[test]
fn a_checkpoint_holds_no_image_of_the_state() {
    for n in [N, 4 * N] {
        let dir = std::env::temp_dir().join(format!(
            "swdb-complexity-checkpoint-{n}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = fixture(n);
        db.persist_to(&dir).expect("attach durability");
        let (wrote, extra) = peak_live_bytes(|| db.snapshot_now().expect("checkpoint"));
        assert!(wrote, "durability is attached");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!("{n}: a checkpoint held {extra} extra live bytes at its peak");
        assert!(
            extra < CHECKPOINT_CEILING,
            "a checkpoint at {n} triples held {extra} extra live bytes"
        );
    }
}

/// The bytes of the segment a checkpoint of a durable [`fixture`] writes,
/// per asserted triple, at `N` and at `4N`. It reads 23.0 / 24.3 bytes:
/// the asserted set rides as a flag on the closure run, each run is
/// gap-coded and each term front-coded. With the asserted set as a run of
/// its own and every term and triple fixed-width it reads 59.5 / 60.4, and
/// fails the ceiling at both sizes.
#[test]
fn a_checkpoint_segment_is_compact() {
    for n in [N, 4 * N] {
        let dir = std::env::temp_dir().join(format!(
            "swdb-complexity-segment-{n}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = fixture(n);
        db.persist_to(&dir).expect("attach durability");
        let entries = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry"));
        let segments = entries.filter(|e| e.file_name().to_string_lossy().ends_with(".seg"));
        let sizes: Vec<u64> = segments
            .map(|e| e.metadata().expect("size").len())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(sizes.len(), 1, "one segment");
        let per_triple = sizes[0] as f64 / db.len() as f64;
        eprintln!(
            "{n}: {} segment bytes, {per_triple:.2} per asserted triple",
            sizes[0]
        );
        assert!(
            per_triple < SEGMENT_BYTES_CEILING,
            "{per_triple:.2} segment bytes per asserted triple at {n} triples"
        );
    }
}

/// The most bytes a checkpoint of a durable [`fixture`] of `n` triples
/// holds live at once, beyond the database's own.
fn checkpoint_peak(n: usize) -> i64 {
    let dir = std::env::temp_dir().join(format!(
        "swdb-complexity-checkpoint-growth-{n}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = fixture(n);
    db.persist_to(&dir).expect("attach durability");
    let (wrote, extra) = peak_live_bytes(|| db.snapshot_now().expect("checkpoint"));
    assert!(wrote, "durability is attached");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    extra
}

/// A checkpoint's extra live bytes at `4N` are those at `N`, give or take
/// [`CHECKPOINT_GROWTH`]: every section streams through fixed buffers. A
/// walk that collects one entry per index leaf before it yields the first
/// triple (about 3 KiB more at `4N`) fails it.
#[test]
fn a_checkpoints_extra_live_bytes_do_not_grow_with_the_database() {
    let (small, large) = (checkpoint_peak(N), checkpoint_peak(4 * N));
    eprintln!(
        "a checkpoint held {small} extra live bytes at {N}, {large} at {}",
        4 * N
    );
    assert!(
        (large - small).abs() <= CHECKPOINT_GROWTH,
        "a checkpoint held {small} extra live bytes at {N} triples, {large} at {}",
        4 * N
    );
}
