//! `selftest`: correctness is checked, not assumed. On `U(35)` (≈ 2k
//! triples) every op type's HTTP answer is compared with
//! `answer_recomputed` — the paper's definitions executed literally, in
//! string space — up to isomorphism (Thm 3.10), before and after writes.

use std::io;

use swdb_core::{SemanticWebDatabase, Semantics};
use swdb_model::Graph;
use swdb_server::Server;

use crate::gen;
use crate::http::Client;
use crate::lifecycle::{load_over_http, server_config};
use crate::workload::{Requests, Score, Workload, WORKLOADS};

/// `U(35)` ≈ 2k triples: the size the `selftest` subcommand compares at.
pub const SELFTEST_DEPARTMENTS: usize = 35;

/// Point queries compared per phase (one of each shape) and premises. The
/// spec path recomputes closure and normal form in string space on every
/// call — about a second each on `U(35)` — so the sample is small.
const POINTS: usize = 4;
const PREMISES: usize = 1;

/// Compares a sample of every read op type with the spec path. All HTTP
/// answers are fetched first: the spec path is slow, and a connection idle
/// for longer than the server's read timeout is closed.
fn compare_reads(
    client: &mut Client<std::net::TcpStream>,
    spec_db: &SemanticWebDatabase,
    requests: &Requests,
    when: &str,
    score: &mut Score,
) -> io::Result<()> {
    let texts: Vec<&str> = requests
        .point_text
        .iter()
        .take(POINTS)
        .chain(requests.premise_text.iter().take(PREMISES))
        .map(String::as_str)
        .chain(gen::SCAN_QUERIES)
        .collect();
    let mut replies = Vec::new();
    for text in &texts {
        replies.push(client.call("POST", "/query", text)?);
    }
    for (text, (reply, body)) in texts.iter().zip(replies) {
        let query = swdb_query::parse_query(text).expect("the generator writes valid queries");
        let want: Graph = spec_db.answer_recomputed(&query, Semantics::Union);
        let got = std::str::from_utf8(&body)
            .ok()
            .and_then(|b| swdb_store::parse(b).ok());
        let same = got
            .as_ref()
            .is_some_and(|g| swdb_model::isomorphic(g, &want));
        score.check(reply.status == 200 && same, || {
            format!(
                "{when}: {text}\n  HTTP {} with {} triples, spec has {}",
                reply.status,
                reply.body_lines,
                want.len()
            )
        });
    }
    Ok(())
}

/// Runs the comparison; `Ok(false)` when any answer differed.
pub fn selftest(seed: u64, departments: usize) -> io::Result<bool> {
    // The mixed workload's requests: every read shape plus several writes.
    let w = Workload {
        departments,
        batches: 3,
        ..WORKLOADS[2]
    };
    let (docs, asserted) = gen::university(w.departments, w.batches, seed);
    let requests = Requests::render(&w, seed);
    // The spec side: a plain in-memory database over the same triples.
    let mut spec_db = SemanticWebDatabase::new();
    for doc in &docs {
        spec_db.insert_graph(&swdb_store::parse(doc).expect("generated N-Triples"));
    }

    let handle = Server::start(SemanticWebDatabase::new(), server_config())?;
    load_over_http(&handle, &docs, asserted)?;
    let mut client = Client::connect(handle.addr())?;
    let mut score = Score::default();
    compare_reads(&mut client, &spec_db, &requests, "after load", &mut score)?;
    let mut client = Client::connect(handle.addr())?;

    for (i, student) in requests.student_text.iter().enumerate() {
        let (reply, _) = client.call("POST", "/ingest", student)?;
        score.check(reply.status == 200, || {
            format!("ingest of student {i}: {reply:?}")
        });
        spec_db.insert_graph(&swdb_store::parse(student).expect("generated N-Triples"));
    }
    compare_reads(
        &mut client,
        &spec_db,
        &requests,
        "after ingests",
        &mut score,
    )?;
    let mut client = Client::connect(handle.addr())?;

    for (i, student) in requests.student_text.iter().enumerate().skip(1) {
        let (reply, _) = client.call("POST", "/remove", student)?;
        score.check(reply.status == 200, || {
            format!("remove of student {i}: {reply:?}")
        });
        for t in swdb_store::parse(student)
            .expect("generated N-Triples")
            .iter()
        {
            spec_db.remove(t);
        }
    }
    compare_reads(
        &mut client,
        &spec_db,
        &requests,
        "after removes",
        &mut score,
    )?;

    drop(client);
    drop(handle.shutdown());
    for complaint in &score.complaints {
        eprintln!("FAILED CHECK: {complaint}");
    }
    eprintln!(
        "selftest: {} answers compared with answer_recomputed, {} differ",
        score.attempted, score.failed
    );
    Ok(score.failed == 0)
}

#[cfg(test)]
mod tests {
    /// `U(12)` keeps an unoptimised `cargo test` short; the `selftest`
    /// subcommand runs the same comparison on `U(35)`.
    #[test]
    fn http_answers_match_the_spec_path_up_to_isomorphism() {
        assert!(super::selftest(42, 12).unwrap());
        assert!(super::selftest(7, 12).unwrap());
    }
}
