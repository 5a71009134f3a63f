//! E17 — incremental closure maintenance vs full recomputation.
//!
//! The motivating workload of `swdb-reason`: a database under mutation
//! traffic needs `RDFS-cl(G)` after every change. This experiment compares
//!
//! * `full_recompute` — `swdb_entailment::rdfs_closure` from scratch, the
//!   pre-reason behaviour of the stack, against
//! * `incremental` — one `MaterializedStore::insert` + `remove` round trip
//!   (a complete single-triple edit, semi-naive propagation plus DRed
//!   retraction),
//!
//! at ~1k- and ~10k-triple scale, and prints the measured speedup of one
//! *whole edit cycle* over one recomputation. The acceptance bar (a single
//! incremental insert at least 10× faster than recomputation at 10k) is
//! also asserted in `tests/incremental_reasoning.rs`; here it lands in the
//! bench report.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swdb_bench::{json_prologue, metrics_block, quick, report_row};
use swdb_entailment::rdfs_closure;
use swdb_model::{rdfs, triple, Graph, Triple};
use swdb_obs::{Metrics, MetricsLevel};
use swdb_reason::MaterializedStore;
use swdb_workloads::{schema_graph, SchemaGraphConfig};

struct Row {
    triples: usize,
    closure: usize,
    full_ms: f64,
    insert_us: f64,
    delete_us: f64,
}

fn write_json(rows: &[Row], metrics_json: &str) {
    let mut out = json_prologue("e17_incremental_closure");
    out.push_str(
        "  \"acceptance\": \"single incremental edit >= 10x faster than recomputation at 10k\",\n",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str("  \"mode\": \"release, 50-edit average vs one recomputation\",\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n  \"rows\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"triples\": {}, \"closure\": {}, \"full_ms\": {:.1}, \"insert_us\": {:.1}, \"delete_us\": {:.1}, \"insert_speedup\": {:.0}, \"delete_speedup\": {:.0}}}{}\n",
            r.triples,
            r.closure,
            r.full_ms,
            r.insert_us,
            r.delete_us,
            r.full_ms * 1e3 / r.insert_us.max(1e-9),
            r.full_ms * 1e3 / r.delete_us.max(1e-9),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&metrics_block(metrics_json));
    out.push_str("\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e17.json");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("could not write BENCH_e17.json: {e}");
    } else {
        println!("[E17] results recorded in BENCH_e17.json");
    }
}

/// One instrumented edit cycle at the 10k point: the counter snapshot that
/// lands in the report, showing what the maintained closure actually did.
fn instrumented_snapshot() -> String {
    let metrics = Metrics::new(MetricsLevel::Debug);
    let mut materialized = MaterializedStore::from_graph(&workload(10_000));
    materialized.set_metrics(metrics.clone());
    for t in [
        delta_triple(),
        triple("ex:freshS", "ex:freshP", "ex:freshO"),
    ] {
        materialized.insert(&t);
        materialized.remove(&t);
    }
    metrics.snapshot().to_json()
}

/// A schema+instance workload of roughly `target` triples.
fn workload(target: usize) -> Graph {
    let config = SchemaGraphConfig {
        classes: 24,
        properties: 8,
        edge_probability: 0.12,
        instances: target / 6,
        data_triples: target - target / 6,
    };
    schema_graph(&config, 0xE17)
}

/// The delta triple used for the edit cycle: types a fresh instance with an
/// existing class, so propagation walks the real schema and the cycle is a
/// genuine insert followed by a genuine retraction.
fn delta_triple() -> Triple {
    triple("ex:e17delta", rdfs::TYPE, "ex:Class0")
}

fn bench(c: &mut Criterion) {
    let mut rows = Vec::new();
    let mut group = c.benchmark_group("e17_incremental_closure");
    for &target in &[1_000usize, 10_000] {
        let g = workload(target);
        let mut materialized = MaterializedStore::from_graph(&g);
        let delta = delta_triple();
        let fresh = triple("ex:freshS", "ex:freshP", "ex:freshO");

        // Measured outside criterion as well, to print the speedup ratios
        // the acceptance criterion asks for: single-triple insert (and
        // delete) vs full recomputation.
        let t0 = Instant::now();
        let closure = rdfs_closure(&g);
        let full_time = t0.elapsed();
        // Fresh subjects typed with existing classes: guaranteed new, and
        // propagation still walks the real subclass hierarchy.
        let edits: Vec<Triple> = (0..50)
            .map(|i| {
                triple(
                    &format!("ex:e17inst{i}"),
                    rdfs::TYPE,
                    &format!("ex:Class{}", i % 8),
                )
            })
            .collect();
        let t1 = Instant::now();
        for t in &edits {
            materialized.insert(t);
        }
        let insert_time = t1.elapsed() / edits.len() as u32;
        let t2 = Instant::now();
        for t in &edits {
            materialized.remove(t);
        }
        let delete_time = t2.elapsed() / edits.len() as u32;
        let ratio =
            |per_op: std::time::Duration| full_time.as_secs_f64() / per_op.as_secs_f64().max(1e-12);
        report_row(
            "E17",
            &format!("n={}", g.len()),
            &[
                ("closure", closure.len().to_string()),
                ("full_ms", format!("{:.1}", full_time.as_secs_f64() * 1e3)),
                (
                    "insert_us",
                    format!("{:.1}", insert_time.as_secs_f64() * 1e6),
                ),
                (
                    "delete_us",
                    format!("{:.1}", delete_time.as_secs_f64() * 1e6),
                ),
                ("insert_speedup", format!("{:.0}x", ratio(insert_time))),
                ("delete_speedup", format!("{:.0}x", ratio(delete_time))),
            ],
        );
        rows.push(Row {
            triples: g.len(),
            closure: closure.len(),
            full_ms: full_time.as_secs_f64() * 1e3,
            insert_us: insert_time.as_secs_f64() * 1e6,
            delete_us: delete_time.as_secs_f64() * 1e6,
        });

        group.bench_with_input(
            BenchmarkId::new("full_recompute", target),
            &target,
            |b, _| b.iter(|| rdfs_closure(&g)),
        );
        group.bench_with_input(
            BenchmarkId::new("incremental_edit_cycle", target),
            &target,
            |b, _| {
                b.iter(|| {
                    materialized.insert(&delta);
                    materialized.remove(&delta);
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental_fresh_triple", target),
            &target,
            |b, _| {
                b.iter(|| {
                    materialized.insert(&fresh);
                    materialized.remove(&fresh);
                })
            },
        );
    }
    group.finish();
    write_json(&rows, &instrumented_snapshot());
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench
}
criterion_main!(benches);
