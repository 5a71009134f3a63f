//! Request routing and the endpoint handlers. Writes take the facade mutex;
//! reads never do: `/health`, `/metrics`, `/query` and `/answer` answer
//! from pinned snapshots, premise queries included. A query's
//! answer is rendered from its [`AnswerSet`] straight into the response body
//! (a union read never holds an answer graph) and says so when it was cut
//! off at the solution limit (`x-swdb-truncated: true`). Every
//! handler is total: bad input is a `4xx`, a
//! degraded store is a `503`-for-writes, and nothing here unwinds on
//! malformed bytes (panics would only come from engine bugs — which the
//! worker's `catch_unwind` isolates to the one connection).

use std::fmt::Write as _;
use std::sync::Arc;

use swdb_core::{PublishedSnapshot, Semantics};
use swdb_model::Graph;

use crate::http::{Request, Response};
use crate::Shared;

/// Appends `s` to `out` with the minimal JSON string escaping.
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Stamps the snapshot-substrate headers every data-bearing response
/// carries: which epoch answered, and whether that substrate was degraded.
fn stamped(mut response: Response, epoch: u64, degraded: bool) -> Response {
    response.stamp = Some((epoch, degraded, false));
    response
}

/// The route table.
pub(crate) fn handle(shared: &Shared, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => health(shared),
        ("GET", "/metrics") => metrics(shared),
        ("POST", "/ingest") => ingest(shared, request, false),
        ("POST", "/remove") => ingest(shared, request, true),
        ("POST", "/query") => query(shared, request, false),
        ("POST", "/answer") => query(shared, request, true),
        ("POST", "/panic") if shared.config.enable_test_endpoints => {
            panic!("deliberate test-endpoint panic")
        }
        ("GET" | "POST", _) => Response::text(404, "no such endpoint\n"),
        _ => Response::text(405, "method not allowed\n"),
    }
}

fn health(shared: &Shared) -> Response {
    let pinned = shared.reader.pin();
    let body = format!(
        "{{\"epoch\": {}, \"asserted_triples\": {}, \"evaluation_triples\": {}, \
         \"non_minimal\": {}, \"durability_detached\": {}}}",
        pinned.epoch(),
        pinned.asserted_triples(),
        pinned.evaluation_triples(),
        pinned.non_minimal(),
        pinned.durability_detached(),
    );
    stamped(
        Response::json(200, body),
        pinned.epoch(),
        pinned.non_minimal(),
    )
}

/// `GET /metrics`: the shared counter sheet plus the pinned snapshot's
/// durability record — never the facade lock, so the endpoint keeps
/// answering behind exactly the writer stall it is needed to diagnose.
fn metrics(shared: &Shared) -> Response {
    let mut snapshot = shared.metrics.snapshot();
    if let Some(why) = shared.reader.pin().durability_error() {
        snapshot.warnings.push(format!("durability_error: {why}"));
    }
    Response::json(200, snapshot.to_json())
}

/// `POST /ingest` and `POST /remove`: N-Triples body, mutate under the
/// facade lock, publish the next epoch. When durability has fail-stopped,
/// writes are refused with `503` + `Retry-After` — accepting them would
/// silently drop the durability contract — while reads keep serving. The
/// write whose own WAL commit fail-stops the layer is applied in memory and
/// published, but it is not durable either, so it answers `503` too, with
/// the epoch it is visible at.
fn ingest(shared: &Shared, request: &Request, removal: bool) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::text(400, "body is not UTF-8\n");
    };
    let graph: Graph = match swdb_store::parse(text) {
        Ok(g) => g,
        Err(e) => {
            return Response::text(
                400,
                format!("N-Triples parse error at line {}: {}\n", e.line, e.message),
            )
        }
    };
    let mut db = shared.lock_db();
    if let Some(why) = db.durability_error() {
        // `503`: the renderer adds `retry-after`.
        return Response::text(503, format!("writes unavailable — {why}\n"));
    }
    let changed = if removal {
        db.remove_graph(&graph)
    } else {
        let before = db.len();
        db.insert_graph(&graph);
        db.len() - before
    };
    let snapshot = db.publish();
    drop(db);
    let (epoch, degraded) = (snapshot.epoch(), snapshot.non_minimal());
    // The layer was attached before this write, so a record now means the
    // write itself detached it.
    if let Some(why) = snapshot.durability_error() {
        let body = format!(
            "write applied in memory at epoch {epoch} but not durably acknowledged — {why}\n"
        );
        return stamped(Response::text(503, body), epoch, degraded);
    }
    let body = format!(
        "{{\"{}\": {changed}, \"epoch\": {epoch}}}",
        if removal { "removed" } else { "inserted" },
    );
    stamped(Response::json(200, body), epoch, degraded)
}

/// `POST /query` (N-Triples answer) and `POST /answer` (JSON envelope):
/// parse the query and answer it on the pinned snapshot, lock-free with
/// respect to writers, stamped with the pin's epoch. A premise is committed
/// into forks of the pin, so its answer comes in the owned form, which
/// renders without the pin's dictionary.
fn query(shared: &Shared, request: &Request, envelope: bool) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::text(400, "body is not UTF-8\n");
    };
    let parsed = match swdb_query::parse_query(text) {
        Ok(q) => q,
        Err(e) => return Response::text(400, format!("{e}\n")),
    };
    let semantics = match request.param("semantics") {
        None | Some("union") => Semantics::Union,
        Some("merge") => Semantics::Merge,
        Some(other) => {
            return Response::text(400, format!("unknown semantics {other:?}\n"));
        }
    };
    let pinned: Arc<PublishedSnapshot> = shared.reader.pin();
    let answer = pinned
        .answer_set(&parsed, semantics)
        .unwrap_or_else(|never| match never {});
    let (epoch, dictionary, mut body) = (pinned.epoch(), pinned.dictionary(), String::new());
    let mut response = if envelope {
        let (flag, count) = (answer.non_minimal, answer.len());
        let _ = write!(
            body,
            "{{\"epoch\": {epoch}, \"non_minimal\": {flag}, \"answers\": {count}, "
        );
        if answer.truncated {
            body.push_str("\"truncated\": true, ");
        }
        body.push_str("\"triples\": \"");
        answer.write_ntriples(dictionary, |piece| push_json_escaped(&mut body, piece));
        body.push_str("\"}");
        Response::json(200, body)
    } else {
        answer.write_ntriples(dictionary, |piece| body.push_str(piece));
        Response::text(200, body)
    };
    response.stamp = Some((epoch, answer.non_minimal, answer.truncated));
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use std::sync::mpsc;
    use std::time::Duration;
    use swdb_core::SemanticWebDatabase;
    use swdb_model::{graph, triple};

    fn shared() -> Shared {
        let db = SemanticWebDatabase::from_graph(graph([("ex:a", "ex:p", "ex:b")]));
        Shared::new(db, ServerConfig::default())
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: None,
            body: Vec::new(),
            keep_alive: false,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            body: body.as_bytes().to_vec(),
            ..get(path)
        }
    }

    #[test]
    fn a_remove_request_commits_one_wal_record_however_many_triples_it_names() {
        let dir = std::env::temp_dir().join(format!("swdb-handlers-remove-{}", std::process::id()));
        let mut db = SemanticWebDatabase::new();
        db.persist_to(&dir).expect("attach durability");
        let shared = Shared::new(db, ServerConfig::default());
        let four = "<ex:a> <ex:p> <ex:b> .\n<ex:b> <ex:p> <ex:c> .\n\
                    <ex:c> <ex:p> <ex:d> .\n<ex:d> <ex:p> <ex:e> .\n";
        assert_eq!(handle(&shared, &post("/ingest", four)).status, 200);
        let before = shared.lock_db().wal_records();

        let with_an_absent_one = format!("{four}<ex:never> <ex:p> <ex:asserted> .\n");
        let response = handle(&shared, &post("/remove", &with_an_absent_one));
        assert_eq!(response.status, 200);
        let body = String::from_utf8(response.body).expect("JSON");
        assert!(body.contains("\"removed\": 4"), "{body}");
        assert_eq!(shared.lock_db().wal_records(), before + 1);

        // Nothing present, nothing logged.
        assert_eq!(handle(&shared, &post("/remove", four)).status, 200);
        assert_eq!(shared.lock_db().wal_records(), before + 1);

        drop(shared);
        let recovered = SemanticWebDatabase::open(&dir).expect("reopen");
        assert!(recovered.is_empty(), "the one record removes all four");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// RDFS regime + premise: the overlay mechanism.
    const OVERLAY: &str = "(?X, ex:p, ?Y) <- (?X, ex:p, ?Y) WITH PREMISE { (ex:e, ex:p, ex:f) . }";

    #[test]
    fn a_premise_on_an_old_pin_answers_from_that_pin() {
        let shared = shared();
        let pinned = shared.reader.pin();
        // A write commits and publishes after the pin was taken.
        {
            let mut db = shared.lock_db();
            db.insert(triple("ex:c", "ex:p", "ex:d"));
            db.publish();
        }
        let query = swdb_query::parse_query(OVERLAY).expect("well formed");
        let answer = pinned
            .answer_set(&query, Semantics::Union)
            .expect("answered");
        assert_eq!(
            pinned
                .explain(&query, Semantics::Union)
                .expect("answered")
                .mechanism,
            "overlay"
        );
        let answer = answer.into_graph(pinned.dictionary());
        assert_eq!(
            answer,
            graph([("ex:a", "ex:p", "ex:b"), ("ex:e", "ex:p", "ex:f")]),
            "the pin's D plus the premise, without the later write"
        );
        // Over the wire, the answer carries the epoch of the pin it came from.
        assert_eq!(shared.reader.pin().epoch(), pinned.epoch() + 1);
        let response = handle(&shared, &post("/answer", OVERLAY));
        assert_eq!(response.status, 200);
        let body = String::from_utf8(response.body).expect("JSON");
        let epoch = pinned.epoch() + 1;
        assert_eq!(response.stamp, Some((epoch, false, false)));
        assert!(
            body.starts_with(&format!("{{\"epoch\": {epoch}, ")),
            "{body}"
        );
        assert!(body.contains("\"answers\": 3"), "{body}");
    }

    #[test]
    fn health_and_metrics_answer_while_the_writer_holds_the_facade() {
        let shared = shared();
        let stalled_writer = shared.lock_db();
        std::thread::scope(|scope| {
            for request in [get("/metrics"), get("/health"), post("/query", OVERLAY)] {
                let (done, status) = mpsc::channel();
                let shared = &shared;
                let path = request.path.clone();
                scope.spawn(move || {
                    let _ = done.send(handle(shared, &request).status);
                });
                assert_eq!(
                    status.recv_timeout(Duration::from_secs(10)),
                    Ok(200),
                    "{path} must not wait for the facade lock"
                );
            }
        });
        drop(stalled_writer);
    }
}
