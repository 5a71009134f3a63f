//! The oracle: one stateful, model-based property test holding every
//! configuration of the database to the paper's definitions — `cl`
//! (Theorem 3.6), `core` (unique only up to isomorphism, Theorem 3.10) and
//! matching against `nf(D)` (Definition 4.3), which `closure_recomputed`
//! and `answer_recomputed` execute literally.
//!
//! Each case draws a configuration — regime, worker ceiling, metrics level,
//! core budget, durable or in memory — and a script over every mutation,
//! publication and durability transition of the facade. After every step
//! the asserted set is a plain-`Graph` model (`len`, `graph`,
//! `to_ntriples`, reported counts, `published().asserted_triples()`) and
//! `closure() == closure_recomputed()`. An `Ask` reads the query pool from
//! the facade and from a pinned snapshot, premise queries included, and
//! must leave the live dictionary as it found it; a `Serve` reads it over
//! the wire of a live server: every answer must be isomorphic to the
//! specification's, or — flagged `non_minimal` on every surface that gave
//! it — equivalent to it.
//! A checkpoint, crash or injected write failure must reopen to the model
//! (before or after the faulted operation). A write that panics inside its
//! WAL commit must leave the facade exactly as it was before the op, with
//! the durability layer detached. A failing case is shrunk and prints its
//! configuration and script.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use semweb_foundations::core::durable::{FaultIo, FaultKind};
use semweb_foundations::core::{
    CoreBudget, CoreBudgetMode, EntailmentRegime, Metrics, MetricsLevel, SemanticWebDatabase,
    Semantics,
};
use semweb_foundations::entailment::simple_equivalent;
use semweb_foundations::model::{isomorphic, rdfs, triple, Graph, Triple};
use semweb_foundations::normal::is_lean;
use semweb_foundations::query::{combine, format_query, parse_query, AnswerSet, Query};
use semweb_foundations::server::{Server, ServerConfig};
use semweb_foundations::store::{parse, serialize, Dictionary};

mod pools;

use pools::pool;

// ----- configurations and scripts -----

const BOTH: [Semantics; 2] = [Semantics::Union, Semantics::Merge];
const REGIMES: [EntailmentRegime; 2] = [EntailmentRegime::Rdfs, EntailmentRegime::Simple];
const THREADS: [usize; 2] = [1, 4];
const FAULTS: [FaultKind; 2] = [FaultKind::Fail, FaultKind::Panic];
const LEVELS: [MetricsLevel; 3] = [
    MetricsLevel::Off,
    MetricsLevel::Counters,
    MetricsLevel::Debug,
];
/// The last budget starves: blank components are published uncored, and
/// flagged.
fn budgets() -> [CoreBudgetMode; 4] {
    let steps = |n| CoreBudgetMode::Budgeted(CoreBudget::steps(n));
    [
        CoreBudgetMode::Auto,
        CoreBudgetMode::Unlimited,
        steps(50_000),
        steps(5),
    ]
}

#[derive(Clone, Debug)]
struct Config {
    regime: EntailmentRegime,
    threads: usize,
    metrics: MetricsLevel,
    budget: CoreBudgetMode,
    durable: bool,
}

/// Every dimension shrinks toward its first value.
fn config() -> impl Strategy<Value = Config> {
    (0..2usize, 0..2usize, 0..3usize, 0..4usize, 0..2usize).prop_map(|(r, t, m, b, d)| Config {
        regime: REGIMES[r],
        threads: THREADS[t],
        metrics: LEVELS[m],
        budget: budgets()[b],
        durable: d == 1,
    })
}

type Spo = (usize, usize, usize);

#[derive(Clone, Debug)]
enum Op {
    Insert(Spo),
    Remove(Spo),
    InsertGraph(Vec<Spo>),
    /// Removes the model's triples at these positions (modulo `|D|`), so a
    /// batch removal finds what it names.
    RemoveGraph(Vec<usize>),
    SetRegime(EntailmentRegime),
    Minimize,
    SetCoreBudget(CoreBudgetMode),
    RefreshDegraded,
    SetThreads(usize),
    Publish,
    /// `snapshot_now`, then drop and reopen.
    Checkpoint,
    /// Drop without a checkpoint, then reopen: the WAL suffix replays.
    Crash,
    /// The mutation with a write failure or a panic armed at its `k`-th
    /// write-point, then drop and reopen.
    Faulted(Box<Op>, u64, FaultKind),
    /// Serve the database, ingest the batch over the wire, ask the pool.
    Serve(Vec<Spo>),
    /// Read the pool from the facade and a pinned snapshot.
    Ask,
    /// The first `k` writes of [`refold`].
    Refold(usize),
}

/// Nodes 5 and 6 are blanks named like the pools' premise blanks, so
/// premises must be renamed apart; two of the five predicates are RDFS
/// vocabulary, so mutations carry closure deltas.
fn triple_of((s, p, o): Spo) -> Triple {
    let node = |i: usize| match i {
        5 => "_:b0".to_string(),
        6 => "_:B0".to_string(),
        _ => format!("ex:n{i}"),
    };
    let predicate = match p {
        3 => rdfs::SC.to_string(),
        4 => rdfs::TYPE.to_string(),
        k => format!("ex:p{k}"),
    };
    triple(&node(s), &predicate, &node(o))
}

/// Four writes that hold the core's support replay to account. The first
/// folds `_:b0`'s component onto `_:B0`'s triple, so `_:b0`'s support names
/// a triple of another component. The second lets `_:B0` fold onto
/// `ex:n1`, moving the blank that support names: replayed, it names
/// `(ex:n0 ex:p0 ex:n1)`. The third removes `_:B0`'s folded triple for
/// good, and the fourth the triple the replayed support names, so `_:b0`
/// must come back. A pool premise makes the second write on a fork of the
/// first.
fn refold() -> [Op; 4] {
    [
        Op::InsertGraph(vec![(0, 0, 5), (0, 0, 6), (6, 1, 2)]),
        Op::InsertGraph(vec![(0, 0, 1), (1, 1, 2)]),
        Op::Remove((0, 0, 6)),
        Op::Remove((0, 0, 1)),
    ]
}

fn graph_of(batch: &[Spo]) -> Graph {
    batch.iter().map(|&spo| triple_of(spo)).collect()
}

fn batch() -> impl Strategy<Value = Vec<Spo>> {
    proptest::collection::vec((0..7usize, 0..5usize, 0..7usize), 1..5)
}

fn mutation() -> impl Strategy<Value = Op> {
    let spo = (0..7usize, 0..5usize, 0..7usize);
    prop_oneof![
        4 => spo.clone().prop_map(Op::Insert),
        2 => spo.prop_map(Op::Remove),
        2 => batch().prop_map(Op::InsertGraph),
        2 => proptest::collection::vec(0..64usize, 1..5).prop_map(Op::RemoveGraph),
        1 => (0..2usize).prop_map(|k| Op::SetRegime(REGIMES[k])),
        1 => Just(Op::Minimize),
        1 => (0..4usize).prop_map(|k| Op::SetCoreBudget(budgets()[k])),
        1 => Just(Op::RefreshDegraded),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        14 => mutation(),
        1 => (0..2usize).prop_map(|k| Op::SetThreads(THREADS[k])),
        1 => Just(Op::Publish),
        1 => Just(Op::Checkpoint),
        2 => Just(Op::Crash),
        2 => (mutation(), 0..3u64, 0..2usize)
            .prop_map(|(m, k, f)| Op::Faulted(Box::new(m), k, FAULTS[f])),
        1 => batch().prop_map(Op::Serve),
        4 => Just(Op::Ask),
        2 => (1..5usize).prop_map(Op::Refold),
    ]
}

// ----- the run -----

/// A data directory for one case, removed when the case ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The database under test and its model. Fields drop in order: the
/// database before its directory.
struct Harness<'a> {
    db: SemanticWebDatabase,
    config: &'a Config,
    /// The model: `D` as a plain graph, the regime and budget in force, and
    /// `|D|` at the last publication (a reopened database is unpublished).
    model: Graph,
    regime: EntailmentRegime,
    budget: CoreBudgetMode,
    published: usize,
    threads: usize,
    io: FaultIo,
    dir: Scratch,
}

impl<'a> Harness<'a> {
    fn new(config: &'a Config) -> Result<Self, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("swdb-oracle-{}-{seq}", std::process::id()));
        let (dir, io) = (Scratch(dir), FaultIo::new());
        let mut db = SemanticWebDatabase::with_regime(config.regime);
        db.set_threads(config.threads);
        db.set_metrics_level(config.metrics);
        db.set_core_budget(config.budget);
        if config.durable {
            let _ = std::fs::remove_dir_all(&dir.0);
            db.persist_to_with_io(&dir.0, Arc::new(io.clone()))
                .map_err(|e| format!("persist: {e}"))?;
        }
        let (regime, budget, threads) = (config.regime, config.budget, config.threads);
        let (model, published) = (Graph::new(), 0);
        Ok(Harness {
            db,
            config,
            model,
            regime,
            budget,
            published,
            threads,
            io,
            dir,
        })
    }

    fn step(&mut self, op: &Op, seed: u64) -> Result<(), String> {
        let durable = self.config.durable;
        match op {
            Op::SetThreads(threads) => {
                self.threads = *threads;
                self.db.set_threads(*threads);
            }
            Op::Publish => {
                self.db.publish();
                self.published = self.model.len();
            }
            Op::Checkpoint => {
                let wrote = self.db.snapshot_now().map_err(|e| e.to_string())?;
                prop_assert_eq!(wrote, durable, "snapshot_now wrote iff durable");
                if durable {
                    self.reopen()?;
                }
            }
            Op::Crash if durable => self.reopen()?,
            Op::Faulted(mutation, k, kind) if durable => {
                let before = (self.model.clone(), self.regime, self.budget);
                self.io.arm(*k, *kind);
                let applied = catch_unwind(AssertUnwindSafe(|| self.mutate(mutation)));
                self.io.disarm();
                if let Ok(applied) = applied {
                    applied?;
                } else {
                    // The panic came before the swap: the facade is where it
                    // was, and the layer detached rather than stay attached
                    // over a possibly torn tail.
                    let db = &self.db;
                    let now = (db.graph().to_graph(), db.regime(), db.core_budget());
                    prop_assert!(now == before, "a panicking write left {:?}", now);
                    prop_assert!(db.durability_error().is_some(), "attached after a panic");
                    (self.model, self.regime, self.budget) = before.clone();
                    // Detached, the op applies in memory only: "after".
                    self.mutate(mutation)?;
                }
                let after = (self.model.clone(), self.regime, self.budget);
                self.reopen()?;
                let db = &self.db;
                let recovered = (db.graph().to_graph(), db.regime(), db.core_budget());
                prop_assert!(
                    recovered == before || recovered == after,
                    "recovered {:?}, neither before the fault nor after it",
                    recovered
                );
                (self.model, self.regime, self.budget) = recovered;
            }
            Op::Crash => {}
            Op::Faulted(mutation, ..) => self.mutate(mutation)?,
            Op::Serve(batch) => self.serve(batch, seed)?,
            Op::Ask => self.ask(seed)?,
            Op::Refold(writes) => {
                // A built core engine first, so the writes refresh it.
                self.db.evaluation_graph();
                for write in &refold()[..*writes] {
                    self.mutate(write)?;
                }
                let exact = !self.db.is_degraded();
                let (eval, nf) = (self.db.evaluation_graph(), self.db.normal_form());
                prop_assert!(
                    agrees(exact, &eval, &nf),
                    "evaluated {} for nf(D) {}",
                    eval,
                    nf
                );
            }
            mutation => self.mutate(mutation)?,
        }
        Ok(())
    }

    /// Applies one mutation to the database and the model, and compares
    /// the count the facade reports with the model's.
    fn mutate(&mut self, op: &Op) -> Result<(), String> {
        let (db, model) = (&mut self.db, &mut self.model);
        let (reported, expected) = match op {
            Op::Insert(spo) => (
                usize::from(db.insert(triple_of(*spo))),
                usize::from(model.insert(triple_of(*spo))),
            ),
            Op::Remove(spo) => (
                usize::from(db.remove(&triple_of(*spo))),
                usize::from(model.remove(&triple_of(*spo))),
            ),
            Op::InsertGraph(batch) => {
                db.insert_graph(&graph_of(batch));
                model.extend(graph_of(batch));
                (0, 0)
            }
            Op::RemoveGraph(positions) => {
                let len = model.len().max(1);
                let named: Graph = positions
                    .iter()
                    .filter_map(|i| model.iter().nth(i % len).cloned())
                    .collect();
                let expected = named.iter().filter(|t| model.remove(t)).count();
                (db.remove_graph(&named), expected)
            }
            Op::SetRegime(regime) => {
                self.regime = *regime;
                db.set_regime(*regime);
                (0, 0)
            }
            Op::Minimize => {
                // Which equivalent subgraph survives is the engine's choice
                // (the core is unique only up to isomorphism): check it is
                // one — lean unless the call reports a budget cut its
                // search short — and follow it.
                let (reported, complete) = db.minimize_with_status();
                let core = db.graph().to_graph();
                prop_assert!(core.is_subgraph_of(model) && simple_equivalent(&core, model));
                prop_assert!(!complete || is_lean(&core), "{} is not lean", core);
                let dropped = model.len() - core.len();
                *model = core;
                (reported, dropped)
            }
            Op::SetCoreBudget(budget) => {
                self.budget = *budget;
                db.set_core_budget(*budget);
                (0, 0)
            }
            Op::RefreshDegraded => {
                let recovered = db.refresh_degraded();
                let lifted = self.budget == CoreBudgetMode::Unlimited;
                prop_assert!(
                    !lifted || (recovered && !db.is_degraded()),
                    "unlimited retry"
                );
                (0, 0)
            }
            other => return Err(format!("{other:?} is not a mutation")),
        };
        prop_assert_eq!(reported, expected, "the reported count");
        Ok(())
    }

    fn reopen(&mut self) -> Result<(), String> {
        drop(std::mem::take(&mut self.db));
        let (io, metrics) = (Arc::new(self.io.clone()), Metrics::new(self.config.metrics));
        self.db = SemanticWebDatabase::open_with_io(&self.dir.0, io, metrics)
            .map_err(|e| format!("reopen: {e}"))?;
        self.db.set_threads(self.threads);
        self.published = 0;
        Ok(())
    }

    /// What holds after every step: the asserted set is the model's, and
    /// the maintained closure is `cl` recomputed.
    fn check(&self) -> Result<(), String> {
        let db = &self.db;
        prop_assert_eq!(db.len(), self.model.len());
        prop_assert_eq!(db.is_empty(), self.model.is_empty());
        prop_assert!(
            db.graph().to_graph() == self.model,
            "graph() is not the model"
        );
        prop_assert_eq!(db.to_ntriples(), serialize(&self.model));
        prop_assert_eq!(db.published().asserted_triples(), self.published);
        prop_assert_eq!((db.regime(), db.core_budget()), (self.regime, self.budget));
        prop_assert_eq!(db.is_durable(), self.config.durable);
        prop_assert!(db.closure() == db.closure_recomputed(), "cl(D) diverged");
        Ok(())
    }

    /// Reads every pool query from the facade and from a snapshot pinned
    /// now, holding both to the specification and to one flag. Neither
    /// grows the live dictionary, whatever terms a premise names.
    fn ask(&mut self, seed: u64) -> Result<(), String> {
        let pinned = self.db.publish();
        self.published = self.model.len();
        let terms = self.db.graph().dictionary().len();
        for q in pool(seed) {
            let spec = BOTH.map(|s| self.db.answer_recomputed(&q, s));
            let db = &mut self.db;
            let answers = BOTH.map(|s| db.answer_set(&q, s));
            let (pre, empty) = (db.pre_answers(&q), db.answer_is_empty(&q));
            let explain = db.explain(&q, Semantics::Union);
            let read = (answers, db.graph().dictionary(), pre, empty);
            let flag = holds("facade", &q, &spec, read)?;
            prop_assert_eq!(explain.non_minimal, flag, "explain's flag for {}", q);
            let answers = BOTH.map(|s| pinned.answer_set(&q, s).expect("a snapshot answers"));
            let pre = pinned.pre_answers(&q).expect("a snapshot answers");
            let empty = pinned.answer_is_empty(&q).expect("a snapshot answers");
            let read = (answers, pinned.dictionary(), pre, empty);
            prop_assert_eq!(
                holds("snapshot", &q, &spec, read)?,
                flag,
                "snapshot flag for {}",
                q
            );
        }
        let grown = self.db.graph().dictionary().len();
        prop_assert_eq!(grown, terms, "an Ask grew the live dictionary");
        Ok(())
    }

    /// Starts a server on the database, ingests `batch` over the wire, asks
    /// the pool, shuts down, then holds the replies to the specification
    /// and to the snapshot the server answered from.
    fn serve(&mut self, batch: &[Spo], seed: u64) -> Result<(), String> {
        let reader = self.db.reader();
        let epoch = reader.epoch() + 1;
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server =
            Server::start(std::mem::take(&mut self.db), config).map_err(|e| e.to_string())?;
        let (_, ingested) = post(server.addr(), "/ingest", &serialize(&graph_of(batch)));
        let pool = pool(seed);
        let targets = ["/query", "/query?semantics=merge", "/answer"];
        let replies: Vec<_> = pool
            .iter()
            .map(|q| targets.map(|to| post(server.addr(), to, &format_query(q))))
            .collect();
        self.db = server.shutdown();

        let inserted = graph_of(batch)
            .iter()
            .filter(|t| !self.model.contains(t))
            .count();
        self.model.extend(graph_of(batch));
        self.published = self.model.len();
        let expected = format!("{{\"inserted\": {inserted}, \"epoch\": {epoch}}}");
        prop_assert_eq!(ingested, expected, "POST /ingest");
        let pinned = reader.pin();
        prop_assert_eq!(pinned.epoch(), epoch);
        let stamp = epoch.to_string();
        for (q, [union, merge, envelope]) in pool.iter().zip(replies) {
            let sent = parse_query(&format_query(q));
            prop_assert_eq!(sent.as_ref(), Ok(q), "the wire form");
            let flag = header(&union.0, "x-swdb-degraded") == Some("true");
            for (head, body) in [&union, &merge, &envelope] {
                prop_assert!(
                    head.starts_with("HTTP/1.1 200"),
                    "{} {} for {}",
                    head,
                    body,
                    q
                );
                prop_assert_eq!(header(head, "x-swdb-epoch"), Some(stamp.as_str()));
                prop_assert_eq!(header(head, "x-swdb-degraded") == Some("true"), flag);
                prop_assert_eq!(header(head, "x-swdb-truncated"), None, "for {}", q);
            }
            let opening = format!("{{\"epoch\": {epoch}, \"non_minimal\": {flag}, ");
            prop_assert!(envelope.1.starts_with(&opening), "{}", envelope.1);
            let triples = envelope.1.split_once("\"triples\": \"").map(|(_, t)| t);
            let triples = triples
                .and_then(|t| t.strip_suffix("\"}"))
                .map(|t| t.replace("\\n", "\n"));
            prop_assert_eq!(
                triples.as_ref(),
                Some(&union.1),
                "/answer vs /query for {}",
                q
            );
            for ((_, body), semantics) in [(&union, Semantics::Union), (&merge, Semantics::Merge)] {
                let spec = self.db.answer_recomputed(q, semantics);
                let answer = parse(body).map_err(|e| e.to_string())?;
                prop_assert!(
                    agrees(!flag, &answer, &spec),
                    "wire (non_minimal {}) for {}: {} vs {}",
                    flag,
                    q,
                    answer,
                    spec
                );
                let (pinned_answer, pinned_flag) = pinned
                    .answer_with_status(q, semantics)
                    .expect("a snapshot answers");
                prop_assert_eq!(flag, pinned_flag, "wire flag for {}", q);
                prop_assert_eq!(body, &serialize(&pinned_answer), "wire bytes for {}", q);
            }
        }
        Ok(())
    }
}

/// An exact answer is the specification's up to isomorphism (Theorem
/// 3.10). One flagged `non_minimal` is only equivalent to it — sound and
/// complete, with redundancy a finished core search would fold.
fn agrees(exact: bool, answer: &Graph, spec: &Graph) -> bool {
    if exact {
        isomorphic(answer, spec)
    } else {
        simple_equivalent(answer, spec)
    }
}

/// One surface's reading of `q` — its union and merge answers, its
/// pre-answer and emptiness — held to the specification's union and merge
/// answers, exactly unless flagged. Returns the flag, which both answers
/// must carry alike.
fn holds(
    surface: &str,
    q: &Query,
    [union, merge]: &[Graph; 2],
    (answers, dictionary, pre, empty): ([AnswerSet; 2], &Dictionary, Vec<Graph>, bool),
) -> Result<bool, String> {
    let flag = answers[0].non_minimal;
    for answer in &answers {
        prop_assert!(
            answer.non_minimal == flag && !answer.truncated,
            "{} flags for {}",
            surface,
            q
        );
    }
    let [union_answer, merge_answer] = answers.map(|a| a.into_graph(dictionary));
    let pre = combine(pre, Semantics::Union);
    for (answer, spec) in [
        (&union_answer, union),
        (&merge_answer, merge),
        (&pre, union),
    ] {
        prop_assert!(
            agrees(!flag, answer, spec),
            "{} (non_minimal {}) for {}: {} vs {}",
            surface,
            flag,
            q,
            answer,
            spec
        );
    }
    prop_assert_eq!(empty, union.is_empty(), "{} emptiness for {}", surface, q);
    Ok(flag)
}

/// One request over a fresh connection, read to EOF: `(head, body)`.
fn post(addr: SocketAddr, target: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let length = body.len();
    let head = format!("POST {target} HTTP/1.1\r\nhost: oracle\r\ncontent-length: {length}\r\nconnection: close\r\n\r\n");
    stream.write_all((head + body).as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reply");
    let (head, body) = reply.split_once("\r\n\r\n").unwrap_or((&reply, ""));
    (head.to_string(), body.to_string())
}

fn header<'h>(head: &'h str, name: &str) -> Option<&'h str> {
    head.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(": "))
}

/// Runs one script, turning a panic into a failure so that it shrinks too.
fn run(config: &Config, script: &[Op]) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut harness = Harness::new(config)?;
        harness.check()?;
        for (at, op) in script.iter().enumerate() {
            let failed = |e: String| format!("step {at} {op:?}: {e}");
            harness.step(op, at as u64).map_err(failed)?;
            harness.check().map_err(failed)?;
        }
        Ok(())
    }));
    outcome.unwrap_or_else(|panic| {
        let text = panic.downcast_ref::<String>().map(String::as_str);
        Err(format!(
            "panicked: {}",
            text.or(panic.downcast_ref::<&str>().copied()).unwrap_or("")
        ))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_configuration_agrees_with_the_paper_definitions(
        config in config(),
        script in proptest::collection::vec(op(), 1..24),
    ) {
        run(&config, &script).map_err(|e| {
            let steps: String = script.iter().map(|op| format!("\n    {op:?}")).collect();
            format!("{e}\n  {config:?}\n  script:{steps}")
        })?;
    }
}
