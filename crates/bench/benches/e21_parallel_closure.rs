//! E21 — the closure kernel's worker ceiling: bulk-load throughput across
//! worker-thread counts.
//!
//! The closure engine has one schedule — the rounds of
//! `swdb_reason::parallel`, which partition each round's frontier by woken
//! `(rule, hypothesis)` paths and join the shards against an immutable
//! snapshot of the closure index — and `threads` is the most workers a
//! large round may spawn (`1`: never spawn). Workloads: the university
//! generator and the random RDFS schema generator at the 10k and 50k
//! scales, loaded in one `MaterializedStore::insert_graph` batch at
//! 1/2/4/8 threads.
//!
//! Every load is differentially pinned inside the bench: the maintained
//! closure index must be **bit-identical** to the 1-worker run, and the
//! `added` delta log (the feed of the downstream `IdCoreEngine`) must be
//! the same **sequence**. Results land on stdout and in `BENCH_e21.json`
//! at the workspace root, with `speedup_vs_one_worker` next to the core
//! count of the host that measured it, so the JSON never claims a parallel
//! speedup the hardware cannot produce.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swdb_bench::{json_prologue, metrics_block, quick, report_row};
use swdb_model::Graph;
use swdb_obs::{Metrics, MetricsLevel};
use swdb_reason::MaterializedStore;
use swdb_workloads::{schema_graph, university, SchemaGraphConfig, UniversityConfig};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

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
        0xE21,
    )
}

fn random_workload(target: usize) -> Graph {
    schema_graph(
        &SchemaGraphConfig {
            classes: 32,
            properties: 12,
            edge_probability: 0.10,
            instances: target / 6,
            data_triples: target - target / 6,
        },
        0xE21,
    )
}

/// Best-of-N wall clock after one warm-up run.
fn measure(rounds: usize, mut f: impl FnMut()) -> Duration {
    f();
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

struct Row {
    workload: &'static str,
    triples: usize,
    closure_triples: usize,
    threads: usize,
    load_ms: f64,
    speedup: f64,
}

fn bench(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows: Vec<Row> = Vec::new();
    let mut group = c.benchmark_group("e21_parallel_closure");

    for &target in &[10_000usize, 50_000] {
        for (workload, data) in [
            ("university", university_workload(target)),
            ("random_rdf", random_workload(target)),
        ] {
            let n = data.len();

            // The 1-worker run: the baseline, plus the reference closure
            // and log for the differential pins.
            let mut reference = MaterializedStore::with_threads(1);
            let reference_added = reference.insert_graph_with_delta(&data).added;
            let one_worker = measure(2, || {
                let mut m = MaterializedStore::with_threads(1);
                m.insert_graph(&data);
                criterion::black_box(m.closure_len());
            });
            let one_worker_ms = one_worker.as_secs_f64() * 1e3;
            rows.push(Row {
                workload,
                triples: n,
                closure_triples: reference.closure_len(),
                threads: 1,
                load_ms: one_worker_ms,
                speedup: 1.0,
            });

            for &threads in &THREAD_SWEEP[1..] {
                // Differential pin: bit-identical closure index, identical
                // added-log sequence.
                let mut parallel = MaterializedStore::with_threads(threads);
                let added = parallel.insert_graph_with_delta(&data).added;
                assert_eq!(
                    parallel.closure_index(),
                    reference.closure_index(),
                    "{workload} n={n}: closure diverged at threads={threads}"
                );
                assert_eq!(
                    added, reference_added,
                    "{workload} n={n}: added log diverged at threads={threads}"
                );

                let load = measure(2, || {
                    let mut m = MaterializedStore::with_threads(threads);
                    m.insert_graph(&data);
                    criterion::black_box(m.closure_len());
                });
                let load_ms = load.as_secs_f64() * 1e3;
                rows.push(Row {
                    workload,
                    triples: n,
                    closure_triples: reference.closure_len(),
                    threads,
                    load_ms,
                    speedup: one_worker_ms / load_ms.max(1e-9),
                });
                report_row(
                    "E21",
                    &format!("{workload} n={n} threads={threads}"),
                    &[
                        ("load_ms", format!("{load_ms:.1}")),
                        ("one_worker_ms", format!("{one_worker_ms:.1}")),
                        (
                            "speedup",
                            format!("{:.2}x", one_worker_ms / load_ms.max(1e-9)),
                        ),
                    ],
                );
            }

            // Criterion timings at the 10k point only — each iteration is
            // a full bulk load.
            if target == 10_000 {
                for &threads in &THREAD_SWEEP {
                    group.bench_with_input(
                        BenchmarkId::new(format!("bulk_load/{workload}/t{threads}"), n),
                        &threads,
                        |b, &threads| {
                            b.iter(|| {
                                let mut m = MaterializedStore::with_threads(threads);
                                m.insert_graph(&data);
                                criterion::black_box(m.closure_len())
                            })
                        },
                    );
                }
            }
        }
    }
    group.finish();
    write_json(&rows, cores, &instrumented_snapshot());
}

/// One instrumented 4-thread bulk load at `Debug` level: the report carries
/// the round structure, shard sizes and per-round utilization histograms of
/// the round kernel.
fn instrumented_snapshot() -> String {
    let metrics = Metrics::new(MetricsLevel::Debug);
    let data = university_workload(10_000);
    let mut store = MaterializedStore::with_threads(4);
    store.set_metrics(metrics.clone());
    store.insert_graph(&data);
    metrics.snapshot().to_json()
}

fn write_json(rows: &[Row], cores: usize, metrics_json: &str) {
    let mut out = json_prologue("e21_parallel_closure");
    out.push_str(
        "  \"acceptance\": \"closure index bit-identical and added log the same sequence at every thread count\",\n",
    );
    out.push_str("  \"mode\": \"release, best-of-N after warm-up\",\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"bulk_load\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"triples\": {}, \"closure_triples\": {}, \"threads\": {}, \"load_ms\": {:.1}, \"speedup_vs_one_worker\": {:.2}}}{}\n",
            r.workload,
            r.triples,
            r.closure_triples,
            r.threads,
            r.load_ms,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&metrics_block(metrics_json));
    out.push_str("\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e21.json");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("could not write BENCH_e21.json: {e}");
    } else {
        println!("[E21] results recorded in BENCH_e21.json");
    }
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench
}
criterion_main!(benches);
