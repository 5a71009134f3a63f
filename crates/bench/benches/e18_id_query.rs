//! E18 — premise-free BGP answering: string-space vs id-space.
//!
//! The read-path experiment behind the `swdb-query::exec` engine. Two
//! measurements per (workload, scale, query) point:
//!
//! * `string_space` — the pre-exec facade hot path: the evaluation graph is
//!   already normalized, but every query rebuilds a string-keyed
//!   [`swdb_hom::GraphIndex`] (five term-cloning B-tree inserts per triple)
//!   and joins on cloned `Term`s ([`swdb_query::answer_against`]).
//! * `id_space` — the facade default since this experiment: the query is
//!   compiled to `TermId` patterns and joined directly over the cached
//!   SPO/POS/OSP id-index; terms are decoded only for the answer graph.
//!
//! One-off *cold* numbers are also reported: building the string
//! `NormalizedDatabase` (closure recomputation + core) against building the
//! facade's id evaluation index (core over the *maintained* closure — no
//! fixpoint recompute).
//!
//! A last row guards the facade's read shell rather than the join: a warm
//! point read on a store of 30k single-blank components, through the live
//! facade and through a pinned snapshot. Both build the same engine over
//! the same index, so neither may cost a multiple of the other.
//!
//! Results land on stdout (criterion + report rows) and in
//! `BENCH_e18.json` at the workspace root. The acceptance bar — id-space at
//! least 5× faster than string-space on the 10k premise-free workload — is
//! asserted timing-safely in `tests/id_query_speedup.rs`; here it is
//! recorded from release-mode runs.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swdb_bench::{json_prologue, metrics_block, quick, report_row};
use swdb_core::{MetricsLevel, SemanticWebDatabase};
use swdb_model::Graph;
use swdb_query::{answer_against, NormalizedDatabase, Query, Semantics};
use swdb_workloads::{simple_graph, university, SimpleGraphConfig, UniversityConfig};

/// A university workload of roughly `target` triples.
fn university_workload(target: usize) -> Graph {
    let departments = (target / 160).max(1);
    university(
        &UniversityConfig {
            departments,
            courses_per_department: 10,
            professors_per_department: 6,
            students_per_department: 30,
            enrollments_per_student: 3,
        },
        0xE18,
    )
}

/// A random ground simple graph of `target` triples. Ground on purpose:
/// with the heavy blank-label reuse of the generator the `core(·)` step of
/// both evaluation paths blows up exponentially, which would measure the
/// leanness search rather than the join engines this experiment compares.
fn random_workload(target: usize) -> Graph {
    simple_graph(
        &SimpleGraphConfig {
            triples: target,
            uri_nodes: target / 5,
            blank_nodes: 0,
            predicates: 8,
            blank_probability: 0.0,
        },
        0xE18,
    )
}

fn university_queries() -> Vec<(&'static str, Query)> {
    vec![
        ("workers", swdb_workloads::university::workers_query()),
        ("persons", swdb_workloads::university::persons_query()),
        (
            "student_professor",
            swdb_workloads::university::student_professor_query(),
        ),
    ]
}

fn random_queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "p0_scan",
            swdb_query::query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]),
        ),
        (
            "p0_p1_join",
            swdb_query::query(
                [("?X", "ex:p0", "?Z")],
                [("?X", "ex:p0", "?Y"), ("?Y", "ex:p1", "?Z")],
            ),
        ),
    ]
}

/// Best-of-N wall clock after warm-up.
fn measure(mut f: impl FnMut()) -> Duration {
    for _ in 0..2 {
        f();
    }
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

struct Row {
    workload: &'static str,
    triples: usize,
    query: &'static str,
    string_us: f64,
    id_us: f64,
}

struct ColdRow {
    workload: &'static str,
    triples: usize,
    string_nf_ms: f64,
    id_eval_ms: f64,
}

fn run_point(
    group: &mut criterion::BenchmarkGroup<'_>,
    workload: &'static str,
    data: &Graph,
    queries: &[(&'static str, Query)],
    rows: &mut Vec<Row>,
    cold: &mut Vec<ColdRow>,
) {
    let n = data.len();

    // Cold paths, one-off: the wholesale string normalization (closure
    // recomputation + core) vs the facade's id evaluation build (core over
    // the maintained closure only).
    let t0 = Instant::now();
    let normalized = NormalizedDatabase::without_premise(data);
    let string_nf = t0.elapsed();
    let mut db = SemanticWebDatabase::from_graph(data.clone());
    let warmup = &queries[0].1;
    let t1 = Instant::now();
    let _ = db.answer(warmup, Semantics::Union);
    let id_eval = t1.elapsed();
    cold.push(ColdRow {
        workload,
        triples: n,
        string_nf_ms: string_nf.as_secs_f64() * 1e3,
        id_eval_ms: id_eval.as_secs_f64() * 1e3,
    });

    for (name, q) in queries {
        // Both engines must produce the same answer before we time them.
        let spec = answer_against(q, &normalized, Semantics::Union);
        let id = db.answer(q, Semantics::Union);
        assert_eq!(id, spec, "engines disagree on {workload}/{name}");

        let string_time = measure(|| {
            criterion::black_box(answer_against(q, &normalized, Semantics::Union));
        });
        let id_time = measure(|| {
            criterion::black_box(db.answer(q, Semantics::Union));
        });
        rows.push(Row {
            workload,
            triples: n,
            query: name,
            string_us: string_time.as_secs_f64() * 1e6,
            id_us: id_time.as_secs_f64() * 1e6,
        });
        report_row(
            "E18",
            &format!("{workload} n={n} q={name}"),
            &[
                (
                    "string_us",
                    format!("{:.1}", string_time.as_secs_f64() * 1e6),
                ),
                ("id_us", format!("{:.1}", id_time.as_secs_f64() * 1e6)),
                (
                    "speedup",
                    format!(
                        "{:.1}x",
                        string_time.as_secs_f64() / id_time.as_secs_f64().max(1e-12)
                    ),
                ),
            ],
        );

        group.bench_with_input(
            BenchmarkId::new(format!("string_space/{workload}/{name}"), n),
            &n,
            |b, _| b.iter(|| answer_against(q, &normalized, Semantics::Union)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("id_space/{workload}/{name}"), n),
            &n,
            |b, _| b.iter(|| db.answer(q, Semantics::Union)),
        );
    }
}

/// Components in the blank-heavy store of [`blank_heavy_point`].
const BLANK_COMPONENTS: usize = 30_000;

/// Warm µs per point read — `(facade, snapshot)` — of the one ground triple
/// in a store of [`BLANK_COMPONENTS`] single-blank components (distinct
/// objects, so nothing folds). Anything the facade does per read that grows
/// with the component count shows up here and nowhere else in this bench.
fn blank_heavy_point() -> (f64, f64) {
    let mut data = Graph::new();
    for i in 0..BLANK_COMPONENTS {
        data.insert(swdb_model::triple(
            &format!("_:b{i}"),
            "ex:p",
            &format!("ex:o{i}"),
        ));
    }
    data.insert(swdb_model::triple("ex:a", "ex:q", "ex:b"));
    let mut db = SemanticWebDatabase::from_graph(data);
    let q = swdb_query::query([("?X", "ex:q", "?Y")], [("?X", "ex:q", "?Y")]);
    assert_eq!(db.answer(&q, Semantics::Union).len(), 1);
    let snapshot = db.publish();
    const READS: u32 = 2_000;
    let per_read = |batch: Duration| batch.as_secs_f64() * 1e6 / f64::from(READS);
    let facade = per_read(measure(|| {
        for _ in 0..READS {
            criterion::black_box(db.answer(&q, Semantics::Union));
        }
    }));
    let pinned = per_read(measure(|| {
        for _ in 0..READS {
            criterion::black_box(snapshot.answer(&q, Semantics::Union).unwrap());
        }
    }));
    report_row(
        "E18",
        &format!("blank_heavy components={BLANK_COMPONENTS} q=point"),
        &[
            ("facade_us", format!("{facade:.2}")),
            ("snapshot_us", format!("{pinned:.2}")),
        ],
    );
    assert!(
        facade <= 5.0 * pinned + 1.0,
        "a facade point read ({facade:.2} µs) costs a multiple of the snapshot's \
         ({pinned:.2} µs): something per read scales with the component count"
    );
    (facade, pinned)
}

/// One instrumented pass over the 10k university point: every query once
/// at `Counters` level, so the report shows the executor's probe/binding
/// economy next to the timings.
fn instrumented_snapshot() -> String {
    let mut db = SemanticWebDatabase::from_graph(university_workload(10_000));
    db.set_metrics_level(MetricsLevel::Counters);
    for (_, q) in &university_queries() {
        let _ = db.answer(q, Semantics::Union);
    }
    db.metrics_snapshot()
}

fn write_json(rows: &[Row], cold: &[ColdRow], blank_heavy: (f64, f64), metrics_json: &str) {
    let mut out = json_prologue("e18_id_query");
    out.push_str(
        "  \"acceptance\": \"id-space >= 5x string-space on the 10k premise-free workload\",\n",
    );
    out.push_str("  \"mode\": \"release, best-of-5 after warm-up\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"triples\": {}, \"query\": \"{}\", \"string_us\": {:.1}, \"id_us\": {:.1}, \"speedup\": {:.1}}}{}\n",
            r.workload,
            r.triples,
            r.query,
            r.string_us,
            r.id_us,
            r.string_us / r.id_us.max(1e-6),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"cold_build\": [\n");
    for (i, c) in cold.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"triples\": {}, \"string_nf_ms\": {:.1}, \"id_eval_ms\": {:.1}}}{}\n",
            c.workload,
            c.triples,
            c.string_nf_ms,
            c.id_eval_ms,
            if i + 1 < cold.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"blank_heavy\": {{\"components\": {BLANK_COMPONENTS}, \"query\": \"point\", \"facade_us\": {:.2}, \"snapshot_us\": {:.2}}},\n",
        blank_heavy.0, blank_heavy.1
    ));
    out.push_str(&metrics_block(metrics_json));
    out.push_str("\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e18.json");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("could not write BENCH_e18.json: {e}");
    } else {
        println!("[E18] results recorded in BENCH_e18.json");
    }
}

fn bench(c: &mut Criterion) {
    let mut rows = Vec::new();
    let mut cold = Vec::new();
    let mut group = c.benchmark_group("e18_id_query");
    for &target in &[1_000usize, 10_000] {
        let uni = university_workload(target);
        run_point(
            &mut group,
            "university",
            &uni,
            &university_queries(),
            &mut rows,
            &mut cold,
        );
        let rnd = random_workload(target);
        run_point(
            &mut group,
            "random_rdf",
            &rnd,
            &random_queries(),
            &mut rows,
            &mut cold,
        );
    }
    group.finish();
    write_json(&rows, &cold, blank_heavy_point(), &instrumented_snapshot());
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench
}
criterion_main!(benches);
