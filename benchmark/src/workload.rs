//! The four workloads, their pre-rendered requests, and the round
//! scheduler. A round executes a fixed count of every op type, so rounds
//! are comparable; a write round removes what the previous one inserted, so
//! they are stationary. Every workload runs every op type — its own in
//! bulk, the others as a minimal fixed slice — because every workload must
//! report every end-to-end metric.

use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::gen;
use crate::http::{render, Client, Reply};
use crate::rng::Rng;

/// Reads are sent this many at a time. Within a run of point reads the next
/// batch is sent before the previous one's replies are read, so the server
/// always has work queued and never sleeps between batches; and the client
/// sleeps through half of a batch's expected service time (the previous
/// batch's, so it follows the program's speed) before it starts reading. A
/// reader asleep in `read` is woken by the server's `write` with an
/// interrupt across vCPUs, once per reply if it reads eagerly; on this host
/// that costs the *server* 2 to 12 µs a request depending on the hour —
/// 36k/s against 63k/s for the same code, ten minutes apart. Reading late
/// takes most of those wake-ups away, and with them the dependence on the
/// hour.
pub const READ_DEPTH: usize = 32;
const MAX_NAP: Duration = Duration::from_millis(5);
/// Distinct premises cycled through; twice the facade's 8-entry overlay
/// cache, so a premise is always evicted before it comes round again and
/// every premise query builds a cold overlay.
pub const PREMISES: usize = 16;
/// Answer of every premise query: the department's three staff (one of
/// them only via `headOf ⊑ worksFor`) plus the premise's visitor.
pub const PREMISE_ANSWER_TRIPLES: usize = gen::PROFESSORS + 1;
/// Rounds run and discarded before measuring.
pub const WARMUP_ROUNDS: usize = 2;

/// Op counts of one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Point reads outside the write cycles.
    pub point: usize,
    pub premise: usize,
    /// Indices into [`gen::SCAN_QUERIES`], one request each per round.
    pub scans: &'static [usize],
    /// Each cycle: `/ingest` a new student → `reads_per_write` point reads
    /// → `/remove` the previous round's student → `reads_per_write` more.
    pub write_cycles: usize,
    pub reads_per_write: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub departments: usize,
    /// `POST /ingest` documents the store is loaded with (≈ 10k triples each).
    pub batches: usize,
    /// Child processes per run; each loads the store once, so this is also
    /// the number of samples of every load batch.
    pub children: usize,
    /// Measured rounds per run, over all children, at the least.
    pub rounds: usize,
    /// The server is restarted (checkpoint + recovery) before every
    /// `restart_every`-th round.
    pub restart_every: usize,
    pub spec: Spec,
}

/// The slice every workload runs of the op types that are not its own.
const MINIMAL: Spec = Spec {
    point: 208,
    premise: 2,
    scans: &[1],
    write_cycles: 1,
    reads_per_write: 0,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_reads_100k",
        why: "selective 2-pattern joins and cold premise overlays on U(1750): request overhead (HTTP, parse, pin, plan lookup, a few probes) dominates",
        departments: 1750,
        batches: 10,
        children: 5,
        rounds: 60,
        restart_every: 6,
        spec: Spec { point: 1024, premise: 8, ..MINIMAL },
    },
    Workload {
        name: "scan_reads_100k",
        why: "three large-answer queries on U(1750): answer assembly, serialisation and socket writes dominate, request overhead is under 1 %",
        departments: 1750,
        batches: 10,
        children: 5,
        rounds: 60,
        restart_every: 6,
        spec: Spec { scans: &[0, 1, 2], ..MINIMAL },
    },
    Workload {
        name: "mixed_durable_100k",
        why: "small durable writes interleaved with point reads on U(1750): closure delta, core refresh, WAL fsync, publish, and a cold plan cache after every publish",
        departments: 1750,
        batches: 10,
        children: 5,
        rounds: 60,
        restart_every: 6,
        spec: Spec { point: 16, write_cycles: 2, reads_per_write: 64, ..MINIMAL },
    },
    Workload {
        name: "bulk_load_200k",
        why: "U(3500) loaded as 20 HTTP batches, checkpointed and reopened: cold closure and core, per-batch publish at growing size, snapshot codec, recovery, memory",
        departments: 3500,
        batches: 20,
        children: 5,
        rounds: 80,
        restart_every: 4,
        spec: MINIMAL,
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` scale: a tenth of the departments, same round shape.
    pub fn smoke(mut self) -> Workload {
        self.departments /= 10;
        self.batches = (self.batches / 10).max(2);
        self
    }
}

/// The op types a round is timed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Point = 0,
    Premise = 1,
    Scan = 2,
    Write = 3,
}

pub const OPS: [Op; 4] = [Op::Point, Op::Premise, Op::Scan, Op::Write];

impl Op {
    pub fn name(self) -> &'static str {
        ["point", "premise", "scan", "write"][self as usize]
    }
}

/// One closed-loop step of a round: a batch of pipelined requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Point requests `from..to` of the pool, sent together.
    Point {
        from: usize,
        to: usize,
    },
    /// Premise requests `from..to` (indices taken modulo the pool).
    Premise {
        from: usize,
        to: usize,
    },
    /// All of the round's scans, sent together.
    Scans,
    Ingest {
        student: usize,
    },
    Remove {
        student: usize,
    },
}

/// The steps of round `round`. Identical for every round except for which
/// students the writes name and where in the premise cycle it starts.
pub fn plan_round(spec: &Spec, round: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut next_point = 0;
    let mut points = |steps: &mut Vec<Step>, count: usize| {
        if count > 0 {
            steps.push(Step::Point {
                from: next_point,
                to: next_point + count,
            });
            next_point += count;
        }
    };
    // Two pools of students alternate: round r inserts pool r % 2 and
    // removes pool (r + 1) % 2, which round r − 1 (or set-up) inserted.
    let (mine, theirs) = (
        round % 2 * spec.write_cycles,
        (round + 1) % 2 * spec.write_cycles,
    );
    for cycle in 0..spec.write_cycles {
        steps.push(Step::Ingest {
            student: mine + cycle,
        });
        points(&mut steps, spec.reads_per_write);
        steps.push(Step::Remove {
            student: theirs + cycle,
        });
        points(&mut steps, spec.reads_per_write);
    }
    points(&mut steps, spec.point);
    let mut from = round * spec.premise;
    let end = from + spec.premise;
    while from < end {
        let to = end.min(from + READ_DEPTH);
        steps.push(Step::Premise { from, to });
        from = to;
    }
    if !spec.scans.is_empty() {
        steps.push(Step::Scans);
    }
    steps
}

/// Students present before round `round` runs (what set-up must insert
/// for round 0, and what must be readable after a reopen).
pub fn students_before(spec: &Spec, round: usize) -> std::ops::Range<usize> {
    let pool = (round + 1) % 2;
    pool * spec.write_cycles..(pool + 1) * spec.write_cycles
}

/// Every request of a workload, rendered to bytes once.
pub struct Requests {
    pub point: Vec<Vec<u8>>,
    pub point_text: Vec<String>,
    pub premise: Vec<Vec<u8>>,
    pub premise_text: Vec<String>,
    /// The round's scans, concatenated.
    pub scans: Vec<u8>,
    /// Student `i`: the N-Triples document and its two requests.
    pub student_text: Vec<String>,
    pub ingest: Vec<Vec<u8>>,
    pub remove: Vec<Vec<u8>>,
}

impl Requests {
    pub fn render(w: &Workload, seed: u64) -> Requests {
        let spec = &w.spec;
        let points = spec.point + 2 * spec.write_cycles * spec.reads_per_write;
        let mut rng = Rng::lane(seed, 2);
        let point_text: Vec<String> = (0..points)
            .map(|i| gen::point_query(i, w.departments, &mut rng))
            .collect();
        let mut rng = Rng::lane(seed, 3);
        let premise_text: Vec<String> = (0..PREMISES)
            .map(|i| gen::premise_query(i, w.departments, &mut rng))
            .collect();
        let student_text: Vec<String> = (0..2 * spec.write_cycles).map(gen::new_student).collect();
        let post = |path: &str, bodies: &[String]| -> Vec<Vec<u8>> {
            bodies.iter().map(|b| render("POST", path, b)).collect()
        };
        Requests {
            point: post("/query", &point_text),
            premise: post("/query", &premise_text),
            scans: spec
                .scans
                .iter()
                .flat_map(|&i| render("POST", "/query", gen::SCAN_QUERIES[i]))
                .collect(),
            ingest: post("/ingest", &student_text),
            remove: post("/remove", &student_text),
            point_text,
            premise_text,
            student_text,
        }
    }
}

/// Time and work of one op type in one round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    /// Requests answered.
    pub ops: u64,
    /// Answer triples delivered (reads) or triples changed (writes).
    pub triples: u64,
    pub nanos: u64,
    /// Response bytes received, heads and bodies.
    pub bytes: u64,
}

pub type RoundSample = [Sample; 4];

/// What round 0 answered, per request — the yardstick later rounds are
/// held to.
#[derive(Default)]
pub struct Expected {
    point: Vec<usize>,
    scans: Vec<usize>,
}

/// Checks made and checks failed. A failed request and a failed
/// verification count alike.
#[derive(Debug, Default)]
pub struct Score {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub complaints: Vec<String>,
}

impl Score {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.complaints.len() < 8 {
                self.complaints.push(what());
            }
        }
    }
}

/// Drives rounds over one connection and keeps score.
pub struct Runner<'a> {
    /// `None` while the server is down for a restart.
    pub client: Option<Client<TcpStream>>,
    pub requests: &'a Requests,
    pub spec: Spec,
    pub expected: Expected,
    pub score: Score,
    replies: Vec<Reply>,
    batch: Vec<u8>,
    /// How long the last batch of point reads took to come back.
    batch_nanos: u64,
}

impl<'a> Runner<'a> {
    pub fn new(requests: &'a Requests, spec: Spec) -> Self {
        Runner {
            client: None,
            requests,
            spec,
            expected: Expected::default(),
            score: Score::default(),
            replies: Vec::new(),
            batch: Vec::new(),
            batch_nanos: 0,
        }
    }

    pub fn client(&mut self) -> &mut Client<TcpStream> {
        self.client
            .as_mut()
            .expect("rounds run only while connected")
    }

    /// Sends `self.batch` in one write; returns the time to the last reply.
    fn timed(&mut self, count: usize) -> io::Result<u64> {
        self.replies.clear();
        let client = self
            .client
            .as_mut()
            .expect("rounds run only while connected");
        let t = Instant::now();
        client.exchange(&self.batch, count, &mut self.replies)?;
        Ok(t.elapsed().as_nanos() as u64)
    }

    /// Sends point requests `from..to` in batches of [`READ_DEPTH`], batch
    /// `k + 1` going out before the replies of batch `k` are read, and reads
    /// late (see [`READ_DEPTH`]); returns the time from the first send to the
    /// last reply.
    fn pipelined_points(&mut self, from: usize, to: usize) -> io::Result<u64> {
        let requests = self.requests;
        let client = self
            .client
            .as_mut()
            .expect("rounds run only while connected");
        let batches: Vec<(usize, usize)> = (from..to)
            .step_by(READ_DEPTH)
            .map(|a| (a, to.min(a + READ_DEPTH)))
            .collect();
        self.replies.clear();
        let send = |client: &mut Client<TcpStream>, batch: &mut Vec<u8>, (a, b): (usize, usize)| {
            batch.clear();
            for r in &requests.point[a..b] {
                batch.extend_from_slice(r);
            }
            client.send(batch)
        };
        let t = Instant::now();
        let mut done = t;
        send(client, &mut self.batch, batches[0])?;
        for (k, &(a, b)) in batches.iter().enumerate() {
            if let Some(&next) = batches.get(k + 1) {
                send(client, &mut self.batch, next)?;
            }
            // Capped, so that one stalled batch cannot put the client to
            // sleep for long.
            std::thread::sleep(Duration::from_nanos(self.batch_nanos / 2).min(MAX_NAP));
            for _ in a..b {
                self.replies.push(client.read_reply(None)?);
            }
            let now = Instant::now();
            self.batch_nanos = (now - done).as_nanos() as u64;
            done = now;
        }
        Ok(t.elapsed().as_nanos() as u64)
    }

    /// Runs one round. The first round run fixes the expected answer sizes.
    pub fn round(&mut self, round: usize) -> io::Result<RoundSample> {
        let requests = self.requests;
        let first = self.expected.point.is_empty() && self.expected.scans.is_empty();
        if first {
            self.expected.point = vec![0; requests.point.len()];
            self.expected.scans = vec![0; self.spec.scans.len()];
        }
        let mut sample = RoundSample::default();
        for step in plan_round(&self.spec, round) {
            self.batch.clear();
            match step {
                Step::Point { from, to } => {
                    let nanos = self.pipelined_points(from, to)?;
                    for i in from..to {
                        let reply = self.replies[i - from];
                        if first {
                            self.expected.point[i] = reply.body_lines;
                        }
                        let want = self.expected.point[i];
                        self.score
                            .check(reply.status == 200 && reply.body_lines == want, || {
                                format!("point request {i}: {reply:?}, expected {want} triples")
                            });
                        tally(&mut sample[Op::Point as usize], &reply, reply.body_lines);
                    }
                    sample[Op::Point as usize].nanos += nanos;
                }
                Step::Premise { from, to } => {
                    for i in from..to {
                        self.batch
                            .extend_from_slice(&requests.premise[i % PREMISES]);
                    }
                    let nanos = self.timed(to - from)?;
                    for i in 0..to - from {
                        let reply = self.replies[i];
                        self.score.check(
                            reply.status == 200 && reply.body_lines == PREMISE_ANSWER_TRIPLES,
                            || format!("premise request {}: {reply:?}", (from + i) % PREMISES),
                        );
                        tally(&mut sample[Op::Premise as usize], &reply, reply.body_lines);
                    }
                    sample[Op::Premise as usize].nanos += nanos;
                }
                Step::Scans => {
                    self.batch.extend_from_slice(&requests.scans);
                    let nanos = self.timed(self.spec.scans.len())?;
                    for i in 0..self.spec.scans.len() {
                        let reply = self.replies[i];
                        if first {
                            self.expected.scans[i] = reply.body_lines;
                        }
                        let want = self.expected.scans[i];
                        self.score.check(
                            reply.status == 200 && reply.body_lines == want && want > 0,
                            || format!("scan {i}: {reply:?}, expected {want} triples"),
                        );
                        tally(&mut sample[Op::Scan as usize], &reply, reply.body_lines);
                    }
                    sample[Op::Scan as usize].nanos += nanos;
                }
                Step::Ingest { student } | Step::Remove { student } => {
                    let pool = match step {
                        Step::Ingest { .. } => &requests.ingest,
                        _ => &requests.remove,
                    };
                    let t = Instant::now();
                    let client = self
                        .client
                        .as_mut()
                        .expect("rounds run only while connected");
                    let reply = client.exchange_keeping(&pool[student], &mut self.batch)?;
                    let nanos = t.elapsed().as_nanos() as u64;
                    // `{"inserted": 4, …}` / `{"removed": 4, …}`: all four
                    // triples must have changed the store.
                    let ok =
                        reply.status == 200 && self.batch[..].windows(5).any(|w| w == b"\": 4,");
                    let body = String::from_utf8_lossy(&self.batch).into_owned();
                    self.score
                        .check(ok, || format!("write {step:?}: {reply:?} {body}"));
                    tally(
                        &mut sample[Op::Write as usize],
                        &reply,
                        gen::TRIPLES_PER_NEW_STUDENT,
                    );
                    sample[Op::Write as usize].nanos += nanos;
                }
            }
        }
        Ok(sample)
    }
}

fn tally(sample: &mut Sample, reply: &Reply, triples: usize) {
    sample.ops += 1;
    sample.triples += triples as u64;
    sample.bytes += (reply.head_bytes + reply.body_bytes) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(spec: &Spec, round: usize) -> [usize; 5] {
        let mut c = [0; 5];
        for step in plan_round(spec, round) {
            match step {
                Step::Point { from, to } => c[0] += to - from,
                Step::Premise { from, to } => c[1] += to - from,
                Step::Scans => c[2] += spec.scans.len(),
                Step::Ingest { .. } => c[3] += 1,
                Step::Remove { .. } => c[4] += 1,
            }
        }
        c
    }

    #[test]
    fn every_round_issues_the_same_op_counts() {
        for w in WORKLOADS {
            let s = w.spec;
            let want = [
                s.point + 2 * s.write_cycles * s.reads_per_write,
                s.premise,
                s.scans.len(),
                s.write_cycles,
                s.write_cycles,
            ];
            for round in 0..130 {
                assert_eq!(counts(&s, round), want, "{} round {round}", w.name);
            }
            // No op type is missing: every workload reports every metric.
            assert!(want.iter().all(|&n| n > 0), "{}", w.name);
        }
    }

    #[test]
    fn a_round_removes_what_the_previous_round_inserted() {
        let spec = WORKLOADS[2].spec;
        let writes = |round| {
            let (mut ins, mut rem) = (Vec::new(), Vec::new());
            for step in plan_round(&spec, round) {
                match step {
                    Step::Ingest { student } => ins.push(student),
                    Step::Remove { student } => rem.push(student),
                    _ => {}
                }
            }
            (ins, rem)
        };
        let before: Vec<usize> = students_before(&spec, 0).collect();
        assert_eq!(writes(0).1, before);
        for round in 1..9 {
            assert_eq!(writes(round).1, writes(round - 1).0);
            let present: Vec<usize> = students_before(&spec, round).collect();
            assert_eq!(present, writes(round - 1).0);
        }
    }

    #[test]
    fn point_steps_cover_the_pool_once() {
        let spec = WORKLOADS[2].spec;
        let mut next = 0;
        for step in plan_round(&spec, 5) {
            if let Step::Point { from, to } = step {
                assert_eq!(from, next);
                assert!(to > from);
                next = to;
            }
        }
        assert_eq!(next, Requests::render(&WORKLOADS[2], 42).point.len());
        let spec = WORKLOADS[0].spec;
        let next = spec.point;
        let requests = Requests::render(&WORKLOADS[0], 42);
        assert_eq!(next, requests.point.len());
        assert_eq!(requests.premise.len(), PREMISES);
        assert_eq!(requests.ingest.len(), 2 * spec.write_cycles);
    }

    #[test]
    fn smoke_scale_keeps_the_round_shape() {
        let w = WORKLOADS[3].smoke();
        assert_eq!(w.departments, 350);
        assert_eq!(w.spec, WORKLOADS[3].spec);
        assert!(Workload::named("nope").is_none());
    }
}
