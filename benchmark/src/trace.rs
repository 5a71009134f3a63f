//! The traced run: the workload's generated inputs replayed in-process,
//! one op at a time, with a span around every call into a layer's public
//! function — the per-layer numbers.
//!
//! The facade's internals cannot be opened from outside, so a stage is
//! timed either on a standalone instance of the layer loaded with the same
//! data (`MaterializedStore`, `IdCoreEngine`, `PlanCache`, `IdIndex`), as a
//! difference of two public calls, or — for the WAL — through an `Io` shim
//! the durability layer calls back into. `swdb-obs` counters are read at
//! `MetricsLevel::Counters` for the counts. The same process then serves the
//! same rounds over HTTP, once at `Counters` and once at `Off`: the first
//! gives `server.overhead_*` (service time minus the in-process stages), the
//! difference between the two is what tracing costs.
//!
//! Like the end-to-end numbers these are best-round: an op's cost is its
//! mean within a round, and the cheapest round is reported.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use swdb_core::{MetricsLevel, SemanticWebDatabase, Semantics};
use swdb_durable::{Io, StdIo};
use swdb_model::{Graph, Term};
use swdb_normal::id_core::IdCoreEngine;
use swdb_obs::{Metrics, MetricsSnapshot};
use swdb_query::{
    compile_body, parse_query, planned_answer, planned_answer_is_empty, IdSolver, PlanCache, Query,
};
use swdb_reason::MaterializedStore;
use swdb_server::Server;

use crate::gen;
use crate::host;
use crate::http::Client;
use crate::lifecycle::server_config;
use crate::metrics::PER_LAYER;
use crate::run::{host_json, json_string};
use crate::span::{self, Span, Tracer};
use crate::stats::{quantile, sorted};
use crate::workload::{
    plan_round, students_before, Op, Requests, RoundSample, Runner, Score, Step, Workload, PREMISES,
};

/// Rounds replayed per phase.
pub const TRACE_ROUNDS: usize = 5;
/// Depth-1 requests timed for `server.rtt_depth1_*`.
const RTT_SAMPLES: usize = 2000;
/// Point queries given a fresh plan cache each (`query.plan_miss_us`).
const MISS_SAMPLES: usize = 128;

pub struct TraceResult {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl TraceResult {
    pub fn value(&self, name: &str) -> f64 {
        self.values[name]
    }
}

/// The durability layer's file system, with a span around the two calls a
/// WAL commit makes. Everything else passes straight through.
#[derive(Debug)]
struct TimedIo {
    tracer: Arc<Tracer>,
}

impl Io for TimedIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdIo.read(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        StdIo.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdIo.create_dir_all(dir)
    }
    fn write_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        StdIo.write_new(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.tracer
            .span("durable.wal_append", || StdIo.append(path, bytes))
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.tracer.span("durable.fsync", || StdIo.sync(path))
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        StdIo.sync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdIo.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        StdIo.remove(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        StdIo.truncate(path, len)
    }
}

/// Span arithmetic over the rounds of one phase. `marks` are tracer
/// cursors: round `r` is `spans[marks[r]..marks[r + 1]]`.
struct Phase<'a> {
    spans: &'a [Span],
    marks: &'a [usize],
}

impl Phase<'_> {
    /// Per round: total nanoseconds in spans named `name`, divided by
    /// `per(round)` (falling back to the span count when `per` is `None`).
    fn rounds(&self, name: &str, per: Option<f64>) -> Vec<f64> {
        self.marks
            .windows(2)
            .filter_map(|m| {
                let t = span::totals_since(&self.spans[..m[1]], m[0]);
                let t = t.get(name)?;
                Some(t.total_ns as f64 / per.unwrap_or(t.count as f64))
            })
            .collect()
    }

    /// Best round's mean microseconds per span named `name`.
    fn best_us(&self, name: &str) -> f64 {
        self.best_us_per(name, None)
    }

    /// Best round's microseconds in `name` per `per` units of work.
    fn best_us_per(&self, name: &str, per: Option<f64>) -> f64 {
        let rounds = self.rounds(name, per);
        assert!(!rounds.is_empty(), "no span named {name} was recorded");
        sorted(&rounds)[0] / 1e3
    }
}

fn parse(text: &str) -> Graph {
    swdb_store::parse(text).expect("the generator writes valid N-Triples")
}

fn query(text: &str) -> Query {
    parse_query(text).expect("the generator writes valid queries")
}

/// Best round's service time per op (µs) of the rounds in `samples`.
fn service_us(samples: &[RoundSample], op: Op) -> f64 {
    let per_op: Vec<f64> = samples
        .iter()
        .map(|r| r[op as usize].nanos as f64 / r[op as usize].ops as f64 / 1e3)
        .collect();
    sorted(&per_op)[0]
}

pub fn trace(w: &Workload, seed: u64, scrubbed: &[String]) -> io::Result<TraceResult> {
    let tracer = Arc::new(Tracer::default());
    let t = &*tracer;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut score = Score::default();
    let spec = w.spec;
    let (docs, asserted) = gen::university(w.departments, w.batches, seed);
    let requests = Requests::render(w, seed);
    let n = asserted as f64;

    // ---- the bulk path, layer by layer, on standalone instances ----
    let graphs: Vec<Graph> = docs
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            t.set_op(i as u64);
            t.span("store.parse", || parse(doc))
        })
        .collect();
    drop(docs);
    let mut reasoner = MaterializedStore::with_threads(host::nproc());
    for (i, g) in graphs.iter().enumerate() {
        t.set_op(i as u64);
        t.span("reason.insert_graph", || reasoner.insert_graph(g));
    }
    let closure = reasoner.closure_len() as f64;
    let mut engine = t.span("normal.cold_core", || {
        IdCoreEngine::from_triples(
            reasoner.closure_index().iter(),
            reasoner.store().dictionary(),
        )
    });
    {
        let spans = t.spans();
        let totals = span::totals_since(&spans, 0);
        let us = |name: &str| totals[name].total_ns as f64 / 1e3;
        v.insert("store.parse_us_per_triple", us("store.parse") / n);
        v.insert(
            "reason.bulk_closure_us_per_triple",
            us("reason.insert_graph") / n,
        );
        v.insert("reason.closure_triples_per_asserted", closure / n);
        v.insert(
            "normal.cold_core_us_per_triple",
            us("normal.cold_core") / closure,
        );
        v.insert(
            "normal.eval_triples_per_closure",
            engine.len() as f64 / closure,
        );
    }

    // ---- the same load through the durable facade ----
    let obs = Metrics::new(MetricsLevel::Counters);
    let counter = |key: &str| obs.snapshot().counter(key) as f64;
    let dir = host::fresh_data_dir(&format!("trace-{}", w.name))?;
    let timed_io = Arc::new(TimedIo {
        tracer: Arc::clone(&tracer),
    });
    let mut db = SemanticWebDatabase::open_with_io(&dir, timed_io, obs.clone())?;
    let mark = t.mark();
    for (i, g) in graphs.iter().enumerate() {
        t.set_op(i as u64);
        t.span("core.insert_graph.bulk", || db.insert_graph(g));
        // What the server does after every /ingest; it also builds the
        // evaluation engine after the first batch, as it would there.
        t.span("core.publish.bulk", || db.publish());
    }
    {
        let spans = t.spans();
        let bulk: Vec<&Span> = spans[mark..]
            .iter()
            .filter(|s| s.name == "core.insert_graph.bulk")
            .collect();
        let per_triple = |s: &Span, g: &Graph| s.duration_ns() as f64 / 1e3 / g.len() as f64;
        let last = graphs.len() - 1;
        v.insert(
            "core.bulk_insert_first_us_per_triple",
            per_triple(bulk[0], &graphs[0]),
        );
        v.insert(
            "core.bulk_insert_last_us_per_triple",
            per_triple(bulk[last], &graphs[last]),
        );
    }
    drop(graphs);
    score.check(db.len() == asserted, || {
        format!("facade load: len() is {}", db.len())
    });
    let started = Instant::now();
    t.span("durable.snapshot_write", || db.snapshot_now())?;
    v.insert("durable.snapshot_write_s", started.elapsed().as_secs_f64());
    let snapshot_bytes: u64 = host::files_in(&dir)?
        .iter()
        .filter(|(name, _)| name.starts_with("snapshot-"))
        .map(|(_, bytes)| bytes)
        .sum();
    v.insert(
        "durable.snapshot_bytes_per_triple",
        snapshot_bytes as f64 / n,
    );
    // Recovery of snapshot alone (empty WAL), from a copy of the files.
    let reopen = |label: &str| -> io::Result<(f64, f64)> {
        let copy = host::copy_data_dir(&dir, &format!("trace-{}-{label}", w.name))?;
        let mut best = f64::INFINITY;
        let mut replayed = 0.0;
        for _ in 0..3 {
            let counters = Metrics::new(MetricsLevel::Counters);
            let started = Instant::now();
            let reopened = t.span("durable.open", || {
                SemanticWebDatabase::open_with_io(&copy, Arc::new(StdIo), counters.clone())
            })?;
            best = best.min(started.elapsed().as_secs_f64());
            replayed = counters.snapshot().counter("recovery_replayed_deltas") as f64;
            drop(reopened);
        }
        std::fs::remove_dir_all(&copy)?;
        Ok((best, replayed))
    };
    let (snapshot_load_s, _) = reopen("snapshot")?;
    v.insert("durable.snapshot_load_s", snapshot_load_s);

    // ---- writes: standalone layers, in-memory facade, durable facade ----
    let students: Vec<Graph> = requests.student_text.iter().map(|s| parse(s)).collect();
    let mut mem = db.clone(); // a clone is detached from the directory
    for i in students_before(&spec, 0) {
        let delta = reasoner.insert_graph_with_delta(&students[i]);
        engine.apply_delta(&delta.added, &delta.removed, reasoner.store().dictionary());
        mem.insert_graph(&students[i]);
        db.insert_graph(&students[i]);
    }
    let (wal_bytes_0, wal_records_0) = (counter("wal_bytes"), counter("wal_records_appended"));
    let mut marks = vec![t.mark()];
    let mut writes_per_round = 0.0;
    for round in 0..TRACE_ROUNDS {
        writes_per_round = 0.0;
        for step in plan_round(&spec, round) {
            let (student, removal) = match step {
                Step::Ingest { student } => (student, false),
                Step::Remove { student } => (student, true),
                _ => continue,
            };
            writes_per_round += 1.0;
            t.set_op((round * 1000 + student) as u64);
            let g = &students[student];
            black_box(t.span("store.parse.write", || {
                parse(&requests.student_text[student])
            }));
            if removal {
                let deltas = t.span("reason.remove_delta", || {
                    g.iter()
                        .map(|triple| reasoner.remove_with_delta(triple))
                        .collect::<Vec<_>>()
                });
                t.span("normal.refresh", || {
                    for d in &deltas {
                        engine.apply_delta(&d.added, &d.removed, reasoner.store().dictionary());
                    }
                });
                t.span("core.remove.mem", || {
                    g.iter().filter(|triple| mem.remove(triple)).count()
                });
                let removed = t.span("core.write", || {
                    g.iter().filter(|triple| db.remove(triple)).count()
                });
                score.check(removed == g.len(), || {
                    format!("trace: removed {removed} of student {student}")
                });
            } else {
                let delta = t.span("reason.insert_delta", || {
                    reasoner.insert_graph_with_delta(g)
                });
                t.span("normal.refresh", || {
                    engine.apply_delta(&delta.added, &delta.removed, reasoner.store().dictionary())
                });
                t.span("core.insert_graph.mem", || mem.insert_graph(g));
                t.span("core.write", || db.insert_graph(g));
            }
            t.span("core.publish.write", || db.publish());
        }
        marks.push(t.mark());
    }
    let spans = t.spans();
    let phase = Phase {
        spans: &spans,
        marks: &marks,
    };
    let per_write = Some(writes_per_round);
    let reason_us =
        (phase.best_us("reason.insert_delta") + phase.best_us("reason.remove_delta")) / 2.0;
    let facade_mem_us =
        (phase.best_us("core.insert_graph.mem") + phase.best_us("core.remove.mem")) / 2.0;
    let durable_write_us = phase.best_us("core.write");
    let parse_write_us = phase.best_us("store.parse.write");
    v.insert(
        "reason.insert_delta_us",
        phase.best_us("reason.insert_delta"),
    );
    v.insert(
        "reason.remove_delta_us",
        phase.best_us("reason.remove_delta"),
    );
    v.insert("normal.refresh_us", phase.best_us("normal.refresh"));
    v.insert(
        "core.insert_graph_us",
        phase.best_us("core.insert_graph.mem"),
    );
    v.insert("core.remove_us", phase.best_us("core.remove.mem"));
    v.insert(
        "core.self_write_us",
        facade_mem_us - reason_us - phase.best_us("normal.refresh"),
    );
    v.insert(
        "durable.wal_append_us",
        phase.best_us_per("durable.wal_append", per_write),
    );
    v.insert(
        "durable.fsync_us",
        phase.best_us_per("durable.fsync", per_write),
    );
    v.insert("durable.wal_tax_us", durable_write_us - facade_mem_us);
    v.insert(
        "durable.wal_bytes_per_record",
        (counter("wal_bytes") - wal_bytes_0) / (counter("wal_records_appended") - wal_records_0),
    );

    // ---- premise queries: facade, then the two layers underneath ----
    let premises: Vec<Query> = requests.premise_text.iter().map(|p| query(p)).collect();
    let mut marks = vec![t.mark()];
    for round in 0..TRACE_ROUNDS {
        for i in round * spec.premise..(round + 1) * spec.premise {
            let q = &premises[i % PREMISES];
            t.set_op(i as u64);
            let (cold, _) = t.span("core.answer.premise_cold", || {
                db.answer_with_status(q, Semantics::Union)
            });
            let (warm, _) = t.span("core.answer.premise_warm", || {
                db.answer_with_status(q, Semantics::Union)
            });
            score.check(cold == warm && cold.len() == gen::PROFESSORS + 1, || {
                format!(
                    "trace: premise {i} answers {} then {} triples",
                    cold.len(),
                    warm.len()
                )
            });
            let ids = reasoner.intern_graph(q.premise());
            let delta = t.span("reason.preview", || reasoner.preview_insert(&ids));
            black_box(t.span("normal.overlay_core", || {
                engine.overlay_core(&delta, reasoner.store().dictionary())
            }));
        }
        marks.push(t.mark());
    }
    let spans = t.spans();
    let phase = Phase {
        spans: &spans,
        marks: &marks,
    };
    v.insert(
        "core.premise_cold_us",
        phase.best_us("core.answer.premise_cold"),
    );
    v.insert(
        "core.premise_warm_us",
        phase.best_us("core.answer.premise_warm"),
    );
    v.insert(
        "normal.overlay_core_us",
        phase.best_us("normal.overlay_core"),
    );
    v.insert("reason.preview_us", phase.best_us("reason.preview"));
    drop((reasoner, engine));

    // ---- reads: in-process stages and HTTP rounds, interleaved ----
    // The host's speed drifts within seconds, and `server.overhead_*` is a
    // difference between what the client sees and what the stages cost, so
    // each round measures both sides back to back: the stages on a pinned
    // snapshot, the query layer alone on that snapshot's dictionary and
    // index, `publish()` on the detached clone, then the same requests over
    // HTTP at `Counters` and at `Off`.
    let reader = db.reader();
    let point_queries: Vec<Query> = requests.point_text.iter().map(|p| query(p)).collect();
    let scan_queries: Vec<Query> = spec
        .scans
        .iter()
        .map(|&i| query(gen::SCAN_QUERIES[i]))
        .collect();
    let off = Metrics::disabled();
    let warm = PlanCache::new(true);
    let handle = Server::start(db, server_config())?;
    let mut runner = Runner::new(&requests, spec);
    runner.client = Some(Client::connect(handle.addr())?);
    // The write phase left the students of round TRACE_ROUNDS in place; the
    // HTTP rounds carry on from there, two per loop, after one warm-up.
    let mut next_round = TRACE_ROUNDS;
    runner.round(next_round)?;
    // Every measured publish() must also free the snapshot it replaces, as
    // every publish of a serving database does.
    mem.publish();
    let (mut counted, mut plain) = (Vec::new(), Vec::new());
    let mut moved: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut marks = vec![t.mark()];
    let mut scan_triples = 0.0;
    for _ in 0..TRACE_ROUNDS {
        handle.metrics().set_level(MetricsLevel::Counters);
        let counters_0 = obs.snapshot();
        for (i, text) in requests.point_text.iter().enumerate() {
            t.set_op(i as u64);
            t.span("request.point", || {
                let q = t.span("query.parse", || query(text));
                let pinned = t.span("core.pin", || reader.pin());
                let answer = t.span("core.answer", || {
                    pinned.answer_with_status(&q, Semantics::Union)
                });
                let (answer, _) = answer.expect("premise-free queries run on a snapshot");
                black_box(t.span("store.serialize", || swdb_store::serialize(&answer)));
            });
        }
        scan_triples = 0.0;
        for (i, &scan) in spec.scans.iter().enumerate() {
            t.set_op(i as u64);
            t.span("request.scan", || {
                let q = t.span("query.parse.scan", || query(gen::SCAN_QUERIES[scan]));
                let pinned = t.span("core.pin.scan", || reader.pin());
                let answer = t.span("core.answer.scan", || {
                    pinned.answer_with_status(&q, Semantics::Union)
                });
                let (answer, _) = answer.expect("premise-free queries run on a snapshot");
                scan_triples += answer.len() as f64;
                black_box(t.span("store.serialize.scan", || swdb_store::serialize(&answer)));
            });
        }
        let counters_1 = obs.snapshot();
        let mut count = |keys: &[&'static str], from: &MetricsSnapshot, to: &MetricsSnapshot| {
            for key in keys {
                *moved.entry(key).or_default() += (to.counter(key) - from.counter(key)) as f64;
            }
        };
        count(
            &["query_join_probes", "query_bindings", "query_answers"],
            &counters_0,
            &counters_1,
        );

        let pinned = reader.pin();
        let (dictionary, index) = (pinned.dictionary(), pinned.index());
        let offers = dictionary.id_of(&Term::iri("uni:offers"));
        for (i, q) in point_queries.iter().enumerate() {
            t.set_op(i as u64);
            black_box(t.span("query.planned_answer", || {
                planned_answer(&warm, q, dictionary, index, Semantics::Union, off)
            }));
            black_box(t.span("query.planned_is_empty", || {
                planned_answer_is_empty(&warm, q, dictionary, index, off)
            }));
            if i < MISS_SAMPLES {
                let cold = PlanCache::new(true);
                black_box(t.span("query.planned_answer.miss", || {
                    planned_answer(&cold, q, dictionary, index, Semantics::Union, off)
                }));
                black_box(t.span("query.planned_answer.hit", || {
                    planned_answer(&cold, q, dictionary, index, Semantics::Union, off)
                }));
                let department = dictionary.id_of(&Term::iri(gen::dept(i % w.departments)));
                black_box(t.span("store.index_probe", || {
                    index.scan((department, offers, None)).len()
                }));
            }
        }
        for (i, q) in scan_queries.iter().enumerate() {
            t.set_op(i as u64);
            black_box(t.span("query.exec.scan", || {
                compile_body(q.body(), dictionary)
                    .map(|body| IdSolver::new(&body, index).count_solutions())
            }));
        }
        drop(pinned);
        t.span("core.publish", || mem.publish());

        // Plan-cache traffic as served: every publish hands readers a
        // snapshot with an empty cache.
        let counters_2 = obs.snapshot();
        next_round += 1;
        counted.push(runner.round(next_round)?);
        count(
            &["plan_cache_hits", "plan_cache_misses"],
            &counters_2,
            &obs.snapshot(),
        );
        handle.metrics().set_level(MetricsLevel::Off);
        next_round += 1;
        plain.push(runner.round(next_round)?);
        marks.push(t.mark());
    }
    handle.metrics().set_level(MetricsLevel::Counters);
    drop(mem);
    let spans = t.spans();
    let reads = Phase {
        spans: &spans,
        marks: &marks,
    };
    let stages_point_us =
        ["query.parse", "core.pin", "core.answer", "store.serialize"].map(|s| reads.best_us(s));
    v.insert("query.parse_us", stages_point_us[0]);
    v.insert("core.pin_us", stages_point_us[1]);
    v.insert("core.answer_point_us", stages_point_us[2]);
    v.insert("store.serialize_point_us", stages_point_us[3]);
    // Shape-keying, the cache hit and constant re-resolution are what is
    // left of a planned call that stops at its first match; the join and
    // the answer assembly are the rest of the full call; planning is what a
    // call on an empty cache pays on top of one on a warm cache.
    let hit_us = reads.best_us("query.planned_is_empty");
    v.insert("query.plan_hit_us", hit_us);
    v.insert(
        "query.exec_point_us",
        reads.best_us("query.planned_answer") - hit_us,
    );
    v.insert(
        "query.plan_miss_us",
        reads.best_us("query.planned_answer.miss") - reads.best_us("query.planned_answer.hit"),
    );
    v.insert("store.index_probe_us", reads.best_us("store.index_probe"));
    v.insert(
        "query.probes_per_answer",
        moved["query_join_probes"] / moved["query_answers"],
    );
    v.insert(
        "query.bindings_per_answer",
        moved["query_bindings"] / moved["query_answers"],
    );
    v.insert("obs.plan_cache_hits", moved["plan_cache_hits"]);
    v.insert("obs.plan_cache_misses", moved["plan_cache_misses"]);
    let per_triple = Some(scan_triples);
    let answer_scan = reads.best_us_per("core.answer.scan", per_triple);
    let exec_scan = reads.best_us_per("query.exec.scan", per_triple);
    v.insert("query.exec_scan_us_per_triple", exec_scan);
    v.insert("core.answer_scan_us_per_triple", answer_scan);
    v.insert("core.assemble_us_per_triple", answer_scan - exec_scan);
    v.insert(
        "store.serialize_us_per_triple",
        reads.best_us_per("store.serialize.scan", per_triple),
    );
    let stages_scan_us = reads.best_us("request.scan");
    let publish_us = reads.best_us("core.publish");
    v.insert("core.publish_us", publish_us);

    let point_us = service_us(&counted, Op::Point);
    let scan_us = service_us(&counted, Op::Scan);
    let write_us = service_us(&counted, Op::Write);
    v.insert("server.service_point_us", point_us);
    v.insert("server.service_scan_us", scan_us);
    v.insert("server.service_write_us", write_us);
    v.insert(
        "server.overhead_point_us",
        point_us - stages_point_us.iter().sum::<f64>(),
    );
    v.insert("server.overhead_scan_us", scan_us - stages_scan_us);
    v.insert(
        "server.overhead_write_us",
        write_us - parse_write_us - durable_write_us - publish_us,
    );
    let point = &counted[0][Op::Point as usize];
    v.insert(
        "server.response_bytes_per_op",
        point.bytes as f64 / point.ops as f64,
    );
    let plain_point_us = service_us(&plain, Op::Point);
    v.insert(
        "obs.counters_overhead_share",
        (point_us - plain_point_us) / plain_point_us,
    );

    // What a lone, unpipelined caller sees (scheduler-bound on this host).
    handle.metrics().set_level(MetricsLevel::Off);
    let mut rtt = Vec::with_capacity(RTT_SAMPLES);
    let mut body = Vec::new();
    for i in 0..RTT_SAMPLES {
        let request = &requests.point[i % requests.point.len()];
        let started = Instant::now();
        let reply = runner.client().exchange_keeping(request, &mut body)?;
        rtt.push(started.elapsed().as_nanos() as f64 / 1e3);
        runner.score.check(reply.status == 200, || {
            format!("trace: depth-1 request {i}: {reply:?}")
        });
    }
    let rtt = sorted(&rtt);
    v.insert("server.rtt_depth1_p50_us", quantile(&rtt, 0.5));
    v.insert("server.rtt_depth1_p99_us", quantile(&rtt, 0.99));
    v.insert("server.rtt_depth1_samples", rtt.len() as f64);

    // ---- recovery with a WAL suffix: snapshot load + replay ----
    let (replay_open_s, replayed) = reopen("replay")?;
    v.insert(
        "durable.replay_us_per_record",
        (replay_open_s - snapshot_load_s) * 1e6 / replayed,
    );
    runner.client = None;
    drop(handle.shutdown());
    std::fs::remove_dir_all(&dir)?;

    score.attempted += runner.score.attempted;
    score.failed += runner.score.failed;
    score.complaints.append(&mut runner.score.complaints);
    for complaint in &score.complaints {
        eprintln!("FAILED CHECK: {complaint}");
    }
    if let Some(missing) = PER_LAYER.iter().find(|m| !v.contains_key(m.name)) {
        let why = format!("per-layer metric {} was not measured", missing.name);
        return Err(io::Error::other(why));
    }

    // ---- report ----
    eprintln!(
        "\n{} seed {seed} — traced, {TRACE_ROUNDS} rounds per phase, {asserted} asserted triples",
        w.name
    );
    eprintln!(
        "{:<40} {:>14} {:<6} {:<8} should move",
        "metric", "value", "unit", "layer"
    );
    let mut rows = String::new();
    for m in PER_LAYER {
        eprintln!(
            "{:<40} {:>14.4} {:<6} {:<8} {}",
            m.name,
            v[m.name],
            m.unit,
            m.layer(),
            m.moves
        );
        rows.push_str(&format!(
            "{}    {}: {{\"value\": {}, \"unit\": \"{}\", \"layer\": \"{}\", \"better\": \"{}\", \"moves\": {}}}",
            if rows.is_empty() { "" } else { ",\n" },
            json_string(m.name), v[m.name], m.unit, m.layer(), m.better.name(), json_string(m.moves)
        ));
    }
    let stage_sum = stages_point_us.iter().sum::<f64>() + v["server.overhead_point_us"];
    eprintln!(
        "\npoint read:  stages {:.2} + server overhead {:.2} = {:.2} us service time at Counters; {:.2} us at Off",
        stages_point_us.iter().sum::<f64>(), v["server.overhead_point_us"], stage_sum, plain_point_us
    );
    eprintln!(
        "scan read:   stages {:.0} + server overhead {:.0} = {:.0} us per request at Counters; {:.0} us at Off",
        stages_scan_us, v["server.overhead_scan_us"], scan_us, service_us(&plain, Op::Scan)
    );
    eprintln!(
        "write:       publish {:.0} + facade {:.0} + WAL tax {:.0} + server overhead {:.0} (incl. parse {:.0}) = {:.0} us at Counters; {:.0} us at Off",
        publish_us, facade_mem_us, v["durable.wal_tax_us"], v["server.overhead_write_us"] + parse_write_us,
        parse_write_us, write_us, service_us(&plain, Op::Write)
    );
    let spans = t.spans();
    let doc = format!(
        "{{\n  \"workload\": {},\n  \"host\": {},\n  \"rounds_per_phase\": {TRACE_ROUNDS},\n  \
         \"metrics\": {{\n{rows}\n  }},\n  \"spans\": {}\n}}\n",
        json_string(w.name),
        host_json(seed, host::nproc() as u64, scrubbed),
        span::to_json(&spans)
    );
    std::fs::write(host::out_dir()?.join(format!("trace-{}.json", w.name)), doc)?;
    Ok(TraceResult {
        values: v,
        attempted: score.attempted,
        failed: score.failed,
    })
}
