//! One child process = one life of the server, start to finish:
//!
//! 1. **set-up** — generate `U(d)`, render the requests, open a fresh
//!    durable directory, start the server, load over `POST /ingest`,
//!    restart (below), warm up;
//! 2. **rounds** — the workload's interleaved rounds, each timed per op
//!    type; every few rounds the server is **restarted**: close the client,
//!    `shutdown()` (the checkpoint), drop the database, `open` the directory
//!    (the recovery), serve again. The next round then checks every answer
//!    against round 0's, so each restart is also a recovery test;
//! 3. **wind-down** — recover a copy of the directory (snapshot + WAL
//!    suffix) and check that exactly the acknowledged writes are there.
//!
//! Checkpoint and recovery are thus sampled many times per child, spread
//! over the run like every other op, and at most one store is alive at a
//! time. `VmHWM` is read after the first checkpoint, before the process
//! reopens anything: it is the peak of a process that built one store.

use std::io;
use std::path::Path;
use std::time::Instant;

use swdb_core::SemanticWebDatabase;
use swdb_model::Graph;
use swdb_server::{Server, ServerConfig, ServerHandle};

use crate::gen;
use crate::host;
use crate::http::Client;
use crate::workload::{
    students_before, Op, Requests, RoundSample, Runner, Sample, Score, Workload, OPS, PREMISES,
    PREMISE_ANSWER_TRIPLES, WARMUP_ROUNDS,
};

/// One worker and one client thread fill the host's two cores; the
/// connection is never recycled mid-run; a load batch (≈ 450 kB) must fit.
/// Everything else is the default a user gets.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        max_requests_per_connection: usize::MAX,
        max_request_bytes: 16 << 20,
        ..ServerConfig::default()
    }
}

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Keep running rounds until this many seconds after process start …
    pub until_s: f64,
    /// … and at least this many rounds.
    pub min_rounds: usize,
}

/// What a child tells its parent (one `key values…` line each on stdout).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    pub setup_s: f64,
    pub asserted: u64,
    /// Seconds per load batch, in load order.
    pub load_batch_s: Vec<f64>,
    pub checkpoint_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub disk_bytes: u64,
    pub peak_rss_mib: f64,
    pub wal_bytes: u64,
    pub writes: u64,
    pub evaluation_triples: u64,
    pub threads: u64,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: Vec<RoundSample>,
    pub complaints: Vec<String>,
}

impl ChildReport {
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        let mut line = |key: &str, values: Vec<String>| {
            out.push_str(key);
            for v in values {
                out.push(' ');
                out.push_str(&v);
            }
            out.push('\n');
        };
        let one = |v: &dyn std::fmt::Display| vec![v.to_string()];
        let many = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>();
        line("setup_s", one(&self.setup_s));
        line("asserted", one(&self.asserted));
        line("load_batch_s", many(&self.load_batch_s));
        line("checkpoint_s", many(&self.checkpoint_s));
        line("recovery_s", many(&self.recovery_s));
        line("disk_bytes", one(&self.disk_bytes));
        line("peak_rss_mib", one(&self.peak_rss_mib));
        line("wal_bytes", one(&self.wal_bytes));
        line("writes", one(&self.writes));
        line("evaluation_triples", one(&self.evaluation_triples));
        line("threads", one(&self.threads));
        line("attempted", one(&self.attempted));
        line("failed", one(&self.failed));
        for round in &self.rounds {
            let fields = round
                .iter()
                .flat_map(|s| [s.ops, s.triples, s.nanos, s.bytes])
                .map(|n| n.to_string())
                .collect();
            line("round", fields);
        }
        for c in &self.complaints {
            line("complaint", vec![c.replace('\n', " ")]);
        }
        out
    }

    pub fn parse(text: &str) -> Result<ChildReport, String> {
        let mut r = ChildReport::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("child report: bad line {line:?}");
            let f = |s: &str| s.trim().parse::<f64>().map_err(|_| bad());
            let u = |s: &str| s.trim().parse::<u64>().map_err(|_| bad());
            let fs = |s: &str| s.split_whitespace().map(f).collect::<Result<Vec<f64>, _>>();
            match key {
                "setup_s" => r.setup_s = f(rest)?,
                "asserted" => r.asserted = u(rest)?,
                "load_batch_s" => r.load_batch_s = fs(rest)?,
                "checkpoint_s" => r.checkpoint_s = fs(rest)?,
                "recovery_s" => r.recovery_s = fs(rest)?,
                "disk_bytes" => r.disk_bytes = u(rest)?,
                "peak_rss_mib" => r.peak_rss_mib = f(rest)?,
                "wal_bytes" => r.wal_bytes = u(rest)?,
                "writes" => r.writes = u(rest)?,
                "evaluation_triples" => r.evaluation_triples = u(rest)?,
                "threads" => r.threads = u(rest)?,
                "attempted" => r.attempted = u(rest)?,
                "failed" => r.failed = u(rest)?,
                "round" => {
                    let n: Vec<u64> = rest.split_whitespace().map(u).collect::<Result<_, _>>()?;
                    if n.len() != 4 * OPS.len() {
                        return Err(bad());
                    }
                    let mut round = RoundSample::default();
                    for (sample, c) in round.iter_mut().zip(n.chunks(4)) {
                        *sample = Sample {
                            ops: c[0],
                            triples: c[1],
                            nanos: c[2],
                            bytes: c[3],
                        };
                    }
                    r.rounds.push(round);
                }
                "complaint" => r.complaints.push(rest.to_string()),
                _ => return Err(format!("child report: unknown line {line:?}")),
            }
        }
        Ok(r)
    }
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Loads the documents over one connection, depth 1 (each batch must be
/// acknowledged before the next is sent). Returns the seconds each took.
pub fn load_over_http(
    handle: &ServerHandle,
    docs: &[String],
    asserted: usize,
) -> io::Result<Vec<f64>> {
    let mut client = Client::connect(handle.addr())?;
    let requests: Vec<Vec<u8>> = docs
        .iter()
        .map(|d| crate::http::render("POST", "/ingest", d))
        .collect();
    let mut body = Vec::new();
    let mut seconds = Vec::with_capacity(requests.len());
    for request in &requests {
        let t = Instant::now();
        let reply = client.exchange_keeping(request, &mut body)?;
        seconds.push(t.elapsed().as_secs_f64());
        if reply.status != 200 {
            let body = String::from_utf8_lossy(&body);
            return Err(invalid(format!(
                "load: /ingest answered {} {body}",
                reply.status
            )));
        }
    }
    let (_, health) = client.call("GET", "/health", "")?;
    let health = String::from_utf8_lossy(&health).into_owned();
    if !health.contains(&format!("\"asserted_triples\": {asserted},")) {
        return Err(invalid(format!(
            "load: expected {asserted} asserted triples, /health says {health}"
        )));
    }
    Ok(seconds)
}

fn parse_graph(text: &str) -> Graph {
    swdb_store::parse(text).expect("the generator writes valid N-Triples")
}

/// What the store must hold: the load plus the students of `present`.
struct Contents<'a> {
    asserted: usize,
    students: &'a [String],
    present: std::ops::Range<usize>,
}

impl Contents<'_> {
    fn check(&self, db: &SemanticWebDatabase, what: &str, score: &mut Score) {
        let want = self.asserted + self.present.len() * gen::TRIPLES_PER_NEW_STUDENT;
        let have = db.len();
        score.check(have == want, || {
            format!("{what}: len() is {have}, expected {want}")
        });
        for (i, text) in self.students.iter().enumerate() {
            let held = parse_graph(text)
                .iter()
                .filter(|t| db.graph().contains(t))
                .count();
            let expected = if self.present.contains(&i) {
                gen::TRIPLES_PER_NEW_STUDENT
            } else {
                0
            };
            score.check(held == expected, || {
                format!("{what}: student {i} has {held} triples, expected {expected}")
            });
        }
    }
}

/// The checkpoint half of a restart. The client goes first: an idle
/// keep-alive connection would make `shutdown()` wait out its read timeout.
fn checkpoint(
    handle: ServerHandle,
    runner: &mut Runner<'_>,
    report: &mut ChildReport,
) -> io::Result<SemanticWebDatabase> {
    runner.client = None;
    let t = Instant::now();
    let db = handle.shutdown();
    report.checkpoint_s.push(t.elapsed().as_secs_f64());
    match db.durability_error() {
        Some(why) => Err(invalid(format!("checkpoint failed: {why}"))),
        None => Ok(db),
    }
}

/// The recovery half: open the directory, check it, serve it.
fn recover(
    dir: &Path,
    contents: &Contents<'_>,
    runner: &mut Runner<'_>,
    report: &mut ChildReport,
) -> io::Result<ServerHandle> {
    let t = Instant::now();
    let db = SemanticWebDatabase::open(dir)?;
    report.recovery_s.push(t.elapsed().as_secs_f64());
    contents.check(&db, "reopened", &mut runner.score);
    let handle = Server::start(db, server_config())?;
    runner.client = Some(Client::connect(handle.addr())?);
    Ok(handle)
}

pub fn run_child(args: &ChildArgs, started: Instant) -> io::Result<ChildReport> {
    let w = &args.workload;
    let mut report = ChildReport::default();

    // ---- set-up ----
    let (docs, asserted) = gen::university(w.departments, w.batches, args.seed);
    let requests = Requests::render(w, args.seed);
    let mut runner = Runner::new(&requests, w.spec);
    let contents = |present| Contents {
        asserted,
        students: &requests.student_text,
        present,
    };
    let dir = host::fresh_data_dir(w.name)?;
    let db = SemanticWebDatabase::open(&dir)?;
    report.threads = db.threads() as u64;
    report.asserted = asserted as u64;
    let handle = Server::start(db, server_config())?;
    report.load_batch_s = load_over_http(&handle, &docs, asserted)?;
    drop(docs);
    let db = checkpoint(handle, &mut runner, &mut report)?;
    report.peak_rss_mib = host::peak_rss_mib().unwrap_or(f64::NAN);
    report.disk_bytes = host::dir_bytes(&dir)?;
    report.evaluation_triples = db.published().evaluation_triples() as u64;
    drop(db);
    let mut handle = recover(&dir, &contents(0..0), &mut runner, &mut report)?;

    let mut body = Vec::new();
    for student in students_before(&w.spec, 0) {
        let reply = runner
            .client()
            .exchange_keeping(&requests.ingest[student], &mut body)?;
        runner
            .score
            .check(reply.status == 200, || format!("set-up ingest: {reply:?}"));
    }
    // Every premise once: their terms enter the dictionary now, not during
    // a measured round.
    for premise in 0..PREMISES {
        let reply = runner
            .client()
            .exchange_keeping(&requests.premise[premise], &mut body)?;
        runner.score.check(
            reply.status == 200 && reply.body_lines == PREMISE_ANSWER_TRIPLES,
            || format!("set-up premise {premise}: {reply:?}"),
        );
    }
    for round in 0..WARMUP_ROUNDS {
        runner.round(round)?;
    }
    report.setup_s = started.elapsed().as_secs_f64();

    // ---- rounds ----
    let mut round = WARMUP_ROUNDS;
    while report.rounds.len() < args.min_rounds || started.elapsed().as_secs_f64() < args.until_s {
        if !report.rounds.is_empty() && report.rounds.len() % w.restart_every == 0 {
            let db = checkpoint(handle, &mut runner, &mut report)?;
            drop(db);
            let present = students_before(&w.spec, round);
            handle = recover(&dir, &contents(present), &mut runner, &mut report)?;
        }
        let wal_before = host::wal_bytes(&dir)?;
        report.rounds.push(runner.round(round)?);
        report.wal_bytes += host::wal_bytes(&dir)? - wal_before;
        round += 1;
    }
    report.writes = report
        .rounds
        .iter()
        .map(|r| r[Op::Write as usize].ops)
        .sum();

    // ---- wind-down ----
    // The last rounds' writes exist only in the WAL: a copy of the files
    // recovers through snapshot load + WAL replay while the original is
    // still being served.
    {
        let copy = host::copy_data_dir(&dir, &format!("{}-copy", w.name))?;
        let recovered = SemanticWebDatabase::open(&copy)?;
        let what = "recovered copy (snapshot + WAL)";
        contents(students_before(&w.spec, round)).check(&recovered, what, &mut runner.score);
        drop(recovered);
        std::fs::remove_dir_all(&copy)?;
    }
    drop(checkpoint(handle, &mut runner, &mut report)?);
    std::fs::remove_dir_all(&dir)?;
    report.attempted = runner.score.attempted;
    report.failed = runner.score.failed;
    report.complaints = std::mem::take(&mut runner.score.complaints);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_pipe() {
        let mut r = ChildReport {
            setup_s: 1.25,
            asserted: 99_764,
            load_batch_s: vec![0.0625, 0.125],
            checkpoint_s: vec![0.125],
            recovery_s: vec![0.25, 0.2, 0.21],
            disk_bytes: 5_518_618,
            peak_rss_mib: 130.5,
            wal_bytes: 1234,
            writes: 6,
            evaluation_triples: 143_536,
            threads: 2,
            attempted: 1000,
            failed: 1,
            rounds: vec![RoundSample::default(); 2],
            complaints: vec!["scan 1: short body".to_string()],
        };
        r.rounds[1][2] = Sample {
            ops: 3,
            triples: 64_000,
            nanos: 200_000_000,
            bytes: 2_900_000,
        };
        assert_eq!(ChildReport::parse(&r.to_lines()).unwrap(), r);
        assert!(ChildReport::parse("round 1 2 3\n").is_err());
        assert!(ChildReport::parse("surprise 1\n").is_err());
    }
}
