//! Per-batch attribution of an `/ingest` load: the university workload in
//! the shape of `swdb-sysbench`'s `bulk_load_200k` (6 courses, 3 professors
//! and 10 students per department, two anonymous advisors and one second
//! advisor the core folds away), posted to a live server batch by batch
//! with metrics at `Debug`. Each batch prints its round trip beside what it
//! spent in the closure delta (`span_reason_insert_ns`) and in the core
//! refresh (`span_core_refresh_ns`), and the core engine's counters.
//!
//! Run with `cargo run --release --example ingest_attribution --
//! [departments] [batches]`; the default, 3500 departments in 20 batches,
//! is ≈ 200k asserted triples.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use semweb_foundations::core::{MetricsLevel, SemanticWebDatabase};
use semweb_foundations::model::{Graph, Iri, Term, Triple};
use semweb_foundations::server::{Server, ServerConfig};
use semweb_foundations::store::serialize;
use semweb_foundations::workloads::{university, UniversityConfig};

/// One request on a fresh connection; returns the status line.
fn post(addr: SocketAddr, target: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nhost: example\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response.lines().next().unwrap_or("").to_string()
}

/// The department a triple belongs to: the first number in its subject
/// (`uni:student12_3` is in department 12); the schema has none.
fn department(t: &Triple) -> usize {
    let subject = t.subject().to_string();
    let mut digits = subject.split(|c: char| !c.is_ascii_digit());
    digits
        .find(|d| !d.is_empty())
        .map_or(0, |d| d.parse().expect("digits"))
}

fn main() {
    let mut args = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a count"));
    let departments: usize = args.next().unwrap_or(3500);
    let batches: usize = args.next().unwrap_or(20);
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
    let mut docs: Vec<Graph> = (0..batches).map(|_| Graph::new()).collect();
    for t in data.iter() {
        docs[department(t) * batches / departments].insert(t.clone());
    }

    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Debug);
    let metrics = db.metrics().clone();
    let server = Server::start(db, ServerConfig::default()).expect("start server");
    println!(
        "batch  triples  round trip ms  closure ms  refresh ms  refresh %  \
         searches  visited  recored  replays"
    );
    let mut before = metrics.snapshot();
    for (i, doc) in docs.iter().enumerate() {
        let body = serialize(doc);
        let started = Instant::now();
        let status = post(server.addr(), "/ingest", &body);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        let after = metrics.snapshot();
        let span_ms = |key| {
            let sum = |s: &semweb_foundations::obs::MetricsSnapshot| {
                s.histograms.get(key).map_or(0, |h| h.sum)
            };
            (sum(&after) - sum(&before)) as f64 / 1e6
        };
        let moved = |key| after.counter(key) - before.counter(key);
        let (closure, refresh) = (
            span_ms("span_reason_insert_ns"),
            span_ms("span_core_refresh_ns"),
        );
        println!(
            "{i:>5}  {:>7}  {ms:>13.1}  {closure:>10.1}  {refresh:>10.1}  {:>9.1}  \
             {:>8}  {:>7}  {:>7}  {:>7}",
            doc.len(),
            100.0 * refresh / ms,
            moved("core_retraction_searches"),
            moved("core_components_visited"),
            moved("core_components_recored"),
            moved("core_support_replays"),
        );
        before = after;
    }
    server.shutdown();
}
