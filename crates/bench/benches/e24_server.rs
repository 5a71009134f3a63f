//! E24 — serving: reader latency on pinned snapshots under a busy writer.
//!
//! The MVCC claim of the publication layer is that readers never block
//! writers (and vice versa): a reader pins an immutable
//! [`PublishedSnapshot`] and answers on it without taking the facade lock,
//! while the writer keeps mutating and publishing new epochs. This
//! experiment measures that claim differentially on the ~10k-triple
//! university graph:
//!
//! - **Phase A (idle writer)**: 4 reader threads pin + answer in a loop;
//!   the writer does nothing. This is the baseline reader latency.
//! - **Phase B (busy writer)**: the same 4 readers while the main thread
//!   hammers insert/remove/publish as fast as it can.
//!
//! The busy/idle p99 ratio at 4 reader threads is **reported, not
//! asserted**: on a host with fewer cores than threads, readers and the
//! writer contend for cores, not locks, so no bar on it would mean
//! anything here. What is asserted is that the writer did publish while
//! the readers answered.
//!
//! Results land on stdout and in `BENCH_e24.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use swdb_bench::{json_prologue, metrics_block, quick, report_row};
use swdb_core::{MetricsLevel, SemanticWebDatabase, Semantics, SnapshotReader};
use swdb_model::triple;
use swdb_workloads::university::persons_query;
use swdb_workloads::{university, UniversityConfig};

/// ~10k triples at ~58 triples per department.
const DEPARTMENTS: usize = 175;
const READER_THREADS: usize = 4;
/// Per-phase measurement window.
const PHASE: Duration = Duration::from_millis(1500);

fn quantile(sorted_ns: &[u64], q: f64) -> u64 {
    let idx = ((sorted_ns.len() as f64 - 1.0) * q).round() as usize;
    sorted_ns[idx]
}

/// Runs one phase: `READER_THREADS` readers pin + answer until the stop
/// flag; `writer` runs on the calling thread until the deadline it is
/// handed. Returns the merged, sorted per-answer latencies in nanoseconds.
fn phase(reader: &SnapshotReader, writer: impl FnOnce(Instant)) -> Vec<u64> {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(READER_THREADS + 1));
    let threads: Vec<_> = (0..READER_THREADS)
        .map(|_| {
            let reader = reader.clone();
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let q = persons_query();
                let mut samples = Vec::new();
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let pinned = reader.pin();
                    let answer = pinned
                        .answer(&q, Semantics::Union)
                        .expect("snapshot-servable");
                    samples.push(t0.elapsed().as_nanos() as u64);
                    assert!(!answer.is_empty());
                }
                samples
            })
        })
        .collect();
    start.wait();
    let deadline = Instant::now() + PHASE;
    writer(deadline);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let mut all: Vec<u64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("reader thread"))
        .collect();
    all.sort_unstable();
    all
}

fn bench(c: &mut Criterion) {
    let uni = university(
        &UniversityConfig {
            departments: DEPARTMENTS,
            ..UniversityConfig::default()
        },
        42,
    );
    let mut db = SemanticWebDatabase::from_graph(uni);
    db.set_metrics_level(MetricsLevel::Counters);
    let triples = db.len();
    let reader = db.reader();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- phase A: idle writer ---------------------------------------------
    let idle = phase(&reader, |_| {});

    // --- phase B: busy writer ---------------------------------------------
    let mut publishes = 0u64;
    let busy = phase(&reader, |deadline| {
        let mut i = 0usize;
        while Instant::now() < deadline {
            let t = triple(
                &format!("ex:churn{i}"),
                "ex:touches",
                &format!("ex:churn{}", i + 1),
            );
            db.insert(t.clone());
            db.remove(&t);
            db.publish();
            publishes += 1;
            i += 1;
        }
    });

    let (idle_p50, idle_p99) = (quantile(&idle, 0.50), quantile(&idle, 0.99));
    let (busy_p50, busy_p99) = (quantile(&busy, 0.50), quantile(&busy, 0.99));
    let ratio = busy_p99 as f64 / idle_p99 as f64;
    report_row(
        "E24",
        &format!("reader_latency readers={READER_THREADS} triples={triples}"),
        &[
            ("idle_p50_us", format!("{:.1}", idle_p50 as f64 / 1e3)),
            ("idle_p99_us", format!("{:.1}", idle_p99 as f64 / 1e3)),
            ("busy_p50_us", format!("{:.1}", busy_p50 as f64 / 1e3)),
            ("busy_p99_us", format!("{:.1}", busy_p99 as f64 / 1e3)),
            ("p99_ratio", format!("{ratio:.2}")),
            ("writer_publishes", publishes.to_string()),
            ("idle_samples", idle.len().to_string()),
            ("busy_samples", busy.len().to_string()),
        ],
    );
    assert!(
        publishes > 0,
        "the busy writer must have published while readers answered"
    );

    println!("[E24] p99 ratio busy/idle = {ratio:.2} on {cores} core(s)");

    // --- criterion timings on the primitive operations ---------------------
    let mut group = c.benchmark_group("e24_server");
    group.bench_function("snapshot/pin", |b| b.iter(|| reader.pin().epoch()));
    group.bench_function("snapshot/publish_10k", |b| b.iter(|| db.publish().epoch()));
    group.finish();

    write_json(
        triples,
        cores,
        idle_p50,
        idle_p99,
        busy_p50,
        busy_p99,
        ratio,
        publishes,
        idle.len(),
        busy.len(),
        &db.metrics_snapshot(),
    );
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    triples: usize,
    cores: usize,
    idle_p50: u64,
    idle_p99: u64,
    busy_p50: u64,
    busy_p99: u64,
    ratio: f64,
    publishes: u64,
    idle_samples: usize,
    busy_samples: usize,
    metrics_json: &str,
) {
    let mut out = json_prologue("e24_server");
    out.push_str(
        "  \"acceptance\": \"the writer publishes while 4 reader threads answer on pinned snapshots; the busy/idle reader p99 ratio is reported, not asserted\",\n",
    );
    out.push_str("  \"mode\": \"release, 1.5 s measurement window per phase\",\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!("  \"triples\": {triples},\n"));
    out.push_str(&format!("  \"reader_threads\": {READER_THREADS},\n"));
    out.push_str("  \"points\": {\n");
    out.push_str(&format!(
        "    \"idle_writer_p50_us\": {:.1},\n",
        idle_p50 as f64 / 1e3
    ));
    out.push_str(&format!(
        "    \"idle_writer_p99_us\": {:.1},\n",
        idle_p99 as f64 / 1e3
    ));
    out.push_str(&format!(
        "    \"busy_writer_p50_us\": {:.1},\n",
        busy_p50 as f64 / 1e3
    ));
    out.push_str(&format!(
        "    \"busy_writer_p99_us\": {:.1},\n",
        busy_p99 as f64 / 1e3
    ));
    out.push_str(&format!("    \"p99_ratio_busy_vs_idle\": {ratio:.2},\n"));
    out.push_str(&format!("    \"writer_publishes\": {publishes},\n"));
    out.push_str(&format!("    \"idle_samples\": {idle_samples},\n"));
    out.push_str(&format!("    \"busy_samples\": {busy_samples}\n"));
    out.push_str("  },\n");
    out.push_str(&metrics_block(metrics_json));
    out.push_str("\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e24.json");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("could not write BENCH_e24.json: {e}");
    } else {
        println!("[E24] results recorded in BENCH_e24.json");
    }
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench
}
criterion_main!(benches);
