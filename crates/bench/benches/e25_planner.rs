//! E25 — planner: repeated-shape query latency with the compiled plan
//! cache on vs off.
//!
//! The plan cache keys compiled plans by query *shape* modulo constant
//! identity, so a workload that asks the same join for every department
//! (`(uni:deptK, uni:offers, ?C) ⋈ (?S, uni:takes, ?C)` for K = 0..D)
//! costs the join once and reuses the static order for every K. Both arms
//! run the **same executor** under the same plan; the "uncached" arm is a
//! database with the cache disabled, which plans every call from scratch
//! (`O(n²)` selectivity probes for an `n`-pattern body) and stores
//! nothing. What this experiment measures is therefore *planning per
//! call* against *a cache lookup per call*, on the university workload:
//!
//! - **Cold pass**: every shape is new — the cached side pays planning on
//!   top of execution (reported, not asserted: it is the one-time cost).
//! - **Warm passes**: the same per-department queries again — the cached
//!   side must (a) answer identically, (b) show `plan_cache_hits` covering
//!   every warm call in `metrics_snapshot()`, and (c) not be slower than
//!   the uncached side beyond noise.
//!
//! Results land on stdout and in `BENCH_e25.json`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use swdb_bench::{json_prologue, metrics_block, quick, report_row};
use swdb_core::{MetricsLevel, SemanticWebDatabase, Semantics};
use swdb_query::{query, Query};
use swdb_workloads::{university, UniversityConfig};

const DEPARTMENTS: usize = 40;
/// Warm rounds over the whole per-department query sweep.
const WARM_ROUNDS: usize = 30;

fn department_query(d: usize) -> Query {
    let dept = format!("uni:dept{d}");
    query(
        [("?S", "uni:studiesIn", dept.as_str())],
        [
            (dept.as_str(), "uni:offers", "?C"),
            ("?S", "uni:takes", "?C"),
        ],
    )
}

/// One full sweep: the same join shape instantiated per department.
fn sweep(db: &mut SemanticWebDatabase) -> usize {
    let mut answers = 0;
    for d in 0..DEPARTMENTS {
        answers += db.answer(&department_query(d), Semantics::Union).len();
    }
    answers
}

fn timed_rounds(db: &mut SemanticWebDatabase, rounds: usize) -> (u64, usize) {
    let t0 = Instant::now();
    let mut answers = 0;
    for _ in 0..rounds {
        answers = sweep(db);
    }
    (t0.elapsed().as_nanos() as u64, answers)
}

fn bench(c: &mut Criterion) {
    let uni = university(
        &UniversityConfig {
            departments: DEPARTMENTS,
            ..UniversityConfig::default()
        },
        42,
    );
    let mut cached = SemanticWebDatabase::from_graph(uni.clone());
    cached.set_metrics_level(MetricsLevel::Counters);
    cached.set_plan_cache_enabled(true);
    let mut uncached = SemanticWebDatabase::from_graph(uni);
    uncached.set_metrics_level(MetricsLevel::Counters);
    uncached.set_plan_cache_enabled(false);
    let triples = cached.len();

    // --- cold pass: every shape is new ------------------------------------
    let (cold_cached_ns, cold_cached_answers) = timed_rounds(&mut cached, 1);
    let (cold_uncached_ns, cold_uncached_answers) = timed_rounds(&mut uncached, 1);
    assert_eq!(
        cold_cached_answers, cold_uncached_answers,
        "cached and per-call plans must answer alike"
    );

    // --- warm passes: repeated shapes --------------------------------------
    let (warm_cached_ns, warm_cached_answers) = timed_rounds(&mut cached, WARM_ROUNDS);
    let (warm_uncached_ns, warm_uncached_answers) = timed_rounds(&mut uncached, WARM_ROUNDS);
    assert_eq!(warm_cached_answers, warm_uncached_answers);

    let calls = (DEPARTMENTS * WARM_ROUNDS) as u64;
    let warm_cached_us = warm_cached_ns as f64 / calls as f64 / 1e3;
    let warm_uncached_us = warm_uncached_ns as f64 / calls as f64 / 1e3;
    let speedup = warm_uncached_ns as f64 / warm_cached_ns as f64;

    let snap = cached.metrics().snapshot();
    let hits = snap.counter("plan_cache_hits");
    let misses = snap.counter("plan_cache_misses");
    // Every department shares one shape: 1 miss on the cold sweep, every
    // later call (including the rest of the cold sweep) hits.
    assert!(
        hits >= calls,
        "warm sweeps must be served from the plan cache: {hits} hits for {calls} warm calls"
    );
    assert!(
        misses < DEPARTMENTS as u64,
        "shape-keyed caching must collapse the per-department constants: {misses} misses"
    );
    let off_snap = uncached.metrics().snapshot();
    assert_eq!(
        off_snap.counter("plan_cache_hits"),
        0,
        "the disabled cache must never record a hit"
    );

    report_row(
        "E25",
        &format!("planner departments={DEPARTMENTS} triples={triples} warm_rounds={WARM_ROUNDS}"),
        &[
            (
                "cold_cached_ms",
                format!("{:.2}", cold_cached_ns as f64 / 1e6),
            ),
            (
                "cold_uncached_ms",
                format!("{:.2}", cold_uncached_ns as f64 / 1e6),
            ),
            ("warm_cached_us_per_query", format!("{warm_cached_us:.2}")),
            (
                "warm_uncached_us_per_query",
                format!("{warm_uncached_us:.2}"),
            ),
            ("warm_speedup", format!("{speedup:.2}")),
            ("plan_cache_hits", hits.to_string()),
            ("plan_cache_misses", misses.to_string()),
        ],
    );

    // --- criterion timings on the warm single-query primitive ---------------
    let q = department_query(7);
    let mut group = c.benchmark_group("e25_planner");
    group.bench_function("answer/warm_cached", |b| {
        b.iter(|| cached.answer(&q, Semantics::Union).len())
    });
    group.bench_function("answer/uncached", |b| {
        b.iter(|| uncached.answer(&q, Semantics::Union).len())
    });
    group.finish();

    write_json(
        triples,
        cold_cached_ns,
        cold_uncached_ns,
        warm_cached_us,
        warm_uncached_us,
        speedup,
        hits,
        misses,
        &cached.metrics_snapshot(),
    );
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    triples: usize,
    cold_cached_ns: u64,
    cold_uncached_ns: u64,
    warm_cached_us: f64,
    warm_uncached_us: f64,
    speedup: f64,
    hits: u64,
    misses: u64,
    metrics_json: &str,
) {
    let mut out = json_prologue("e25_planner");
    out.push_str(
        "  \"acceptance\": \"warm repeated-shape queries are served from the compiled plan cache (plan_cache_hits covers every warm call, misses stay below one per department) and answers under a cached plan equal answers under a plan built per call\",\n",
    );
    out.push_str(&format!(
        "  \"mode\": \"release, {DEPARTMENTS} departments x {WARM_ROUNDS} warm rounds\",\n"
    ));
    out.push_str(&format!("  \"triples\": {triples},\n"));
    out.push_str("  \"points\": {\n");
    out.push_str(&format!(
        "    \"cold_cached_ms\": {:.2},\n",
        cold_cached_ns as f64 / 1e6
    ));
    out.push_str(&format!(
        "    \"cold_uncached_ms\": {:.2},\n",
        cold_uncached_ns as f64 / 1e6
    ));
    out.push_str(&format!(
        "    \"warm_cached_us_per_query\": {warm_cached_us:.2},\n"
    ));
    out.push_str(&format!(
        "    \"warm_uncached_us_per_query\": {warm_uncached_us:.2},\n"
    ));
    out.push_str(&format!("    \"warm_speedup\": {speedup:.2},\n"));
    out.push_str(&format!("    \"plan_cache_hits\": {hits},\n"));
    out.push_str(&format!("    \"plan_cache_misses\": {misses}\n"));
    out.push_str("  },\n");
    out.push_str(&metrics_block(metrics_json));
    out.push_str("\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e25.json");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("could not write BENCH_e25.json: {e}");
    } else {
        println!("[E25] results recorded in BENCH_e25.json");
    }
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench
}
criterion_main!(benches);
