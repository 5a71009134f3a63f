//! Endpoint-level tests of the HTTP front end: the happy paths, the whole
//! `4xx` discipline, panic isolation, load shedding, degraded (durability
//! fail-stop) serving, and the graceful-shutdown handoff.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use swdb_core::{MetricsLevel, SemanticWebDatabase};
use swdb_durable::{FaultIo, FaultKind};
use swdb_server::{Server, ServerConfig, ServerHandle};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "swdb-server-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One full request over a fresh connection; returns (status, full
/// response text).
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    send_raw(addr, raw.as_bytes())
}

/// A client connection that gives up on a read after 5 s.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Writes raw bytes, reads to EOF, parses the first status line.
fn send_raw(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = connect(addr);
    stream.write_all(raw).expect("write");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    let status: u16 = out
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, out)
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

const ALL_P: &str = "(?X, ex:p, ?Y) <- (?X, ex:p, ?Y)";

fn quick_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(600),
        write_timeout: Duration::from_millis(600),
        ..ServerConfig::default()
    }
}

fn start_default() -> ServerHandle {
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    Server::start(db, quick_config()).expect("server start")
}

#[test]
fn ingest_query_answer_health_metrics_round_trip() {
    let server = start_default();
    let addr = server.addr();

    let (status, response) = request(
        addr,
        "POST",
        "/ingest",
        "<ex:paints> <rdfs:subPropertyOf> <ex:creates> .\n\
         <ex:Picasso> <ex:paints> <ex:Guernica> .\n",
    );
    assert_eq!(status, 200, "{response}");
    assert!(body_of(&response).contains("\"inserted\": 2"));

    // The inferred triple is served from a pinned snapshot.
    let (status, response) = request(
        addr,
        "POST",
        "/query",
        "(?X, ex:creates, ?Y) <- (?X, ex:creates, ?Y)",
    );
    assert_eq!(status, 200, "{response}");
    assert!(body_of(&response).contains("<ex:Picasso> <ex:creates> <ex:Guernica>"));
    assert!(response.contains("x-swdb-epoch:"));
    assert!(response.contains("x-swdb-degraded: false"));

    let (status, response) = request(
        addr,
        "POST",
        "/answer?semantics=merge",
        "(?X, ex:creates, ?Y) <- (?X, ex:creates, ?Y)",
    );
    assert_eq!(status, 200, "{response}");
    assert!(body_of(&response).contains("\"answers\": 1"));
    assert!(body_of(&response).contains("\"non_minimal\": false"));

    let (status, response) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    assert!(body_of(&response).contains("\"asserted_triples\": 2"));

    let (status, response) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body_of(&response).contains("\"server_requests\""));
    assert!(body_of(&response).contains("\"snapshots_published\""));

    // Removal unwinds the answer.
    let (status, _) = request(
        addr,
        "POST",
        "/remove",
        "<ex:Picasso> <ex:paints> <ex:Guernica> .\n",
    );
    assert_eq!(status, 200);
    let (status, response) = request(
        addr,
        "POST",
        "/query",
        "(?X, ex:creates, ?Y) <- (?X, ex:creates, ?Y)",
    );
    assert_eq!(status, 200);
    assert!(!body_of(&response).contains("ex:Guernica"));

    server.shutdown();
}

#[test]
fn protocol_violations_get_the_right_4xx() {
    let server = start_default();
    let addr = server.addr();

    let (status, _) = request(addr, "GET", "/no-such-endpoint", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/ingest", "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "POST", "/ingest", "this is not n-triples");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/query", "this is not a query");
    assert_eq!(status, 400);
    let (status, _) = request(
        addr,
        "POST",
        "/query?semantics=bogus",
        "(?X, ex:p, ?X) <- (?X, ex:p, ?X)",
    );
    assert_eq!(status, 400);

    let (status, _) = send_raw(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400, "malformed request line");
    let (status, _) = send_raw(
        addr,
        b"POST /ingest HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert_eq!(status, 501, "chunked is declined");
    let (status, _) = send_raw(
        addr,
        b"POST /ingest HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
    );
    assert_eq!(status, 413, "body over the cap");
    let huge_header = format!(
        "GET /health HTTP/1.1\r\nx-filler: {}\r\n\r\n",
        "a".repeat(64 << 10)
    );
    let (status, _) = send_raw(addr, huge_header.as_bytes());
    assert_eq!(status, 431, "head over the cap");

    // A body's length frames the next pipelined request, so it is read one
    // way or refused: no sign, no two different values.
    let framed = |lengths: &str| {
        let raw = format!("POST /query HTTP/1.1\r\n{lengths}connection: close\r\n\r\n{ALL_P}");
        send_raw(addr, raw.as_bytes()).0
    };
    let n = ALL_P.len();
    assert_eq!(framed(&format!("content-length: +{n}\r\n")), 400, "signed");
    assert_eq!(
        framed(&format!(
            "content-length: {n}\r\ncontent-length: {}\r\n",
            n - 1
        )),
        400,
        "two different lengths"
    );
    assert_eq!(
        framed(&format!("content-length: {n}\r\nContent-Length: {n}\r\n")),
        200,
        "an identical duplicate is unambiguous"
    );

    // After all that abuse the server still serves.
    let (status, _) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn slow_loris_is_cut_off_at_the_read_deadline() {
    let server = start_default();
    let addr = server.addr();
    let t0 = std::time::Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Drip half a request and then stall.
    stream.write_all(b"GET /health HT").unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(
        out.starts_with("HTTP/1.1 408"),
        "expected 408 cut-off, got: {out:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the deadline must fire promptly"
    );
    let snapshot = server.metrics().snapshot();
    assert!(
        snapshot
            .counters
            .get("server_timeouts")
            .copied()
            .unwrap_or(0)
            >= 1
    );
    server.shutdown();
}

#[test]
fn keep_alive_pipelining_serves_back_to_back_requests() {
    let server = start_default();
    let addr = server.addr();
    let one = "GET /health HTTP/1.1\r\nhost: t\r\n\r\n";
    let two = format!("{one}{one}");
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(two.as_bytes()).unwrap();
    // Both pipelined requests are answered on the one connection; it then
    // idles out at the read deadline (and may close with a final 408).
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert_eq!(
        out.matches("HTTP/1.1 200").count(),
        2,
        "both pipelined requests must be answered: {out:?}"
    );
    server.shutdown();
}

#[test]
fn a_panicking_handler_costs_one_connection_never_a_worker() {
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    let config = ServerConfig {
        workers: 2,
        enable_test_endpoints: true,
        ..quick_config()
    };
    let server = Server::start(db, config).expect("server start");
    let addr = server.addr();

    // More deliberate panics than workers: if a panic killed its worker,
    // the pool would be gone after two.
    for _ in 0..6 {
        let (_, response) = request(addr, "POST", "/panic", "");
        assert!(
            !response.contains("HTTP/1.1 200"),
            "a panicked handler must not answer 200"
        );
    }
    let (status, _) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200, "the pool must survive every panic");
    let snapshot = server.metrics().snapshot();
    assert_eq!(
        snapshot.counters.get("server_panics").copied().unwrap_or(0),
        6
    );
    server.shutdown();
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::start(db, config).expect("server start");
    let addr = server.addr();

    // Occupy the single worker with a stalled request, fill the
    // depth-one queue with a second connection, then watch the third
    // get shed.
    let mut stall = TcpStream::connect(addr).unwrap();
    stall.write_all(b"GET /health HT").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let mut queued = TcpStream::connect(addr).unwrap();
    queued.write_all(b"GET").unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let (status, response) = request(addr, "GET", "/health", "");
    assert_eq!(status, 503, "{response}");
    assert!(response.contains("retry-after:"));
    let snapshot = server.metrics().snapshot();
    assert!(snapshot.counters.get("server_shed").copied().unwrap_or(0) >= 1);
    drop(stall);
    drop(queued);
    server.shutdown();
}

#[test]
fn durability_fail_stop_degrades_to_503_writes_200_reads() {
    let dir = tmp_dir("degraded");
    let fault = FaultIo::new();
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    db.persist_to_with_io(&dir, Arc::new(fault.clone()))
        .expect("attach durability");
    let server = Server::start(db, quick_config()).expect("server start");
    let addr = server.addr();

    let (status, _) = request(addr, "POST", "/ingest", "<ex:a> <ex:p> <ex:b> .\n");
    assert_eq!(status, 200, "durable write while healthy");

    // The next WAL append fails: the write that hits it is applied in
    // memory (fail-stop detaches the layer) but not durable, so it is not
    // acknowledged; then every later write is refused and every read keeps
    // serving.
    fault.arm(0, FaultKind::Fail);
    let (status, response) = request(addr, "POST", "/ingest", "<ex:a> <ex:p> <ex:c> .\n");
    assert_eq!(
        status, 503,
        "the detaching write is not acknowledged: {response}"
    );
    assert!(response.contains("x-swdb-epoch: 3"), "{response}");
    assert!(
        body_of(&response).starts_with(
            "write applied in memory at epoch 3 but not durably acknowledged — WAL commit failed"
        ),
        "{response}"
    );
    fault.disarm();

    let (status, response) = request(addr, "POST", "/ingest", "<ex:a> <ex:p> <ex:d> .\n");
    assert_eq!(
        status, 503,
        "writes after fail-stop are refused: {response}"
    );
    assert!(response.contains("retry-after:"));
    let (status, response) = request(addr, "POST", "/query", "(?X, ex:p, ?Y) <- (?X, ex:p, ?Y)");
    assert_eq!(status, 200, "reads keep serving after fail-stop");
    assert!(body_of(&response).contains("<ex:b>"));

    // The detach is observable in the metrics snapshot.
    let (_, response) = request(addr, "GET", "/metrics", "");
    assert!(body_of(&response).contains("\"durability_detached\": 1"));
    assert!(body_of(&response).contains("durability_error"));

    let db = server.shutdown();
    assert!(db.durability_error().is_some());

    // The directory still recovers to the last durably-acknowledged state:
    // the first ingest survived, the detaching and refused ones did not.
    let recovered = SemanticWebDatabase::open(&dir).expect("reopen");
    assert_eq!(recovered.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads exactly one response (head + `content-length` body) off a
/// keep-alive connection.
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    while !out.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        out.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&out).into_owned();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    head + &String::from_utf8_lossy(&body)
}

#[test]
fn shutdown_closes_idle_keep_alive_connections_and_drains_in_flight_requests() {
    let read_timeout = Duration::from_secs(10);
    let config = ServerConfig {
        read_timeout,
        ..ServerConfig::default()
    };
    let server = Server::start(SemanticWebDatabase::new(), config).expect("server start");
    let addr = server.addr();
    let health = "GET /health HTTP/1.1\r\nhost: t\r\n\r\n";
    let client_timeout = Some(Duration::from_secs(30));
    // One connection that has been served once and now idles in keep-alive…
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(client_timeout).unwrap();
    idle.write_all(health.as_bytes()).unwrap();
    assert!(read_one_response(&mut idle).starts_with("HTTP/1.1 200"));
    // …and one whose worker holds the first half of a request.
    let mut in_flight = TcpStream::connect(addr).unwrap();
    in_flight.set_read_timeout(client_timeout).unwrap();
    in_flight.write_all(health.as_bytes()).unwrap();
    assert!(read_one_response(&mut in_flight).starts_with("HTTP/1.1 200"));
    let (first_half, second_half) = health.split_at(10);
    in_flight.write_all(first_half.as_bytes()).unwrap();

    let started = std::time::Instant::now();
    let shutdown = std::thread::spawn(move || server.shutdown());
    // The listener closes once the accept loop has seen the flag: from
    // then on every worker's poll tick sees it too.
    while TcpStream::connect(addr).is_ok() {
        std::thread::yield_now();
    }
    // The idle connection is closed without waiting out its read deadline…
    let mut rest = Vec::new();
    assert_eq!(idle.read_to_end(&mut rest).expect("clean close"), 0);
    // …while the request that had begun is still read and answered.
    in_flight.write_all(second_half.as_bytes()).unwrap();
    let answer = read_one_response(&mut in_flight);
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer:?}");
    assert!(answer.contains("connection: close"), "{answer:?}");
    let db = shutdown.join().expect("shutdown thread");
    assert!(db.is_empty());
    assert!(
        started.elapsed() < read_timeout / 2,
        "shutdown waited out the idle connection's read deadline: {:?}",
        started.elapsed()
    );
}

/// A keep-alive `POST /query` for the triples with predicate `ex:p{i}`.
fn point_query(i: usize) -> String {
    let body = format!("(?X, ex:p{i}, ?Y) <- (?X, ex:p{i}, ?Y)");
    format!(
        "POST /query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A counting server holding `<ex:s{i}> <ex:p{i}> <ex:o{i}>` for `i < n`.
fn start_with_points(n: usize, config: ServerConfig) -> ServerHandle {
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    let server = Server::start(db, config).expect("server start");
    let triples: String = (0..n)
        .map(|i| format!("<ex:s{i}> <ex:p{i}> <ex:o{i}> .\n"))
        .collect();
    assert_eq!(request(server.addr(), "POST", "/ingest", &triples).0, 200);
    server
}

fn flushes(server: &ServerHandle) -> u64 {
    server.metrics().snapshot().counter("server_flushes")
}

#[test]
fn pipelined_answers_leave_in_order_and_share_socket_writes() {
    let server = start_with_points(32, quick_config());
    let batch: String = (0..32).map(point_query).collect();
    let mut stream = connect(server.addr());
    // Answers are held for 1 ms of wall clock at most, which a preempted
    // worker can lose: order is checked on every batch, the write count on
    // the best of three.
    let mut fewest_writes = u64::MAX;
    for _ in 0..3 {
        let before = flushes(&server);
        stream.write_all(batch.as_bytes()).unwrap();
        for i in 0..32 {
            let response = read_one_response(&mut stream);
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            assert_eq!(
                body_of(&response),
                format!("<ex:s{i}> <ex:p{i}> <ex:o{i}> .\n"),
                "answer {i} out of order"
            );
        }
        fewest_writes = fewest_writes.min(flushes(&server) - before);
    }
    // One write when the batch arrived whole; lenient for segment splits.
    assert!(
        (1..=16).contains(&fewest_writes),
        "{fewest_writes} writes for 32 answers"
    );
    server.shutdown();
}

#[test]
fn an_answer_does_not_wait_for_the_rest_of_a_half_sent_request() {
    let config = ServerConfig {
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = start_with_points(1, config);
    let mut stream = connect(server.addr());
    let one = point_query(0);
    let (first_half, second_half) = one.split_at(one.len() / 2);
    stream
        .write_all(format!("{one}{first_half}").as_bytes())
        .unwrap();
    // The client's 5 s read timeout is half the server's read deadline.
    let response = read_one_response(&mut stream);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    stream.write_all(second_half.as_bytes()).unwrap();
    assert!(read_one_response(&mut stream).starts_with("HTTP/1.1 200"));
    server.shutdown();
}

#[test]
fn answers_pending_when_a_later_request_panics_or_is_refused_are_delivered() {
    let config = ServerConfig {
        workers: 1,
        enable_test_endpoints: true,
        ..quick_config()
    };
    let server = start_with_points(1, config);
    let panic = "POST /panic HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
    for (then, status_after) in [(panic, None), ("NONSENSE\r\n\r\n", Some(400))] {
        let mut stream = connect(server.addr());
        let sent = format!("{}{then}", point_query(0));
        stream.write_all(sent.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        let responses: Vec<&str> = out.split("HTTP/1.1 ").skip(1).collect();
        assert!(responses[0].starts_with("200"), "{out:?}");
        assert!(
            responses[0].ends_with("<ex:s0> <ex:p0> <ex:o0> .\n"),
            "{out:?}"
        );
        match status_after {
            Some(status) => assert!(responses[1].starts_with(&status.to_string()), "{out:?}"),
            None => assert_eq!(responses.len(), 1, "a panic answers nothing: {out:?}"),
        }
    }
    // The one worker outlived the panic.
    assert_eq!(request(server.addr(), "GET", "/health", "").0, 200);
    assert_eq!(server.metrics().snapshot().counter("server_panics"), 1);
    server.shutdown();
}

#[test]
fn a_large_body_is_written_at_once_and_framed_exactly() {
    let server = start_default();
    let triples: String = (0..2000)
        .map(|i| format!("<ex:subject-number-{i:04}> <ex:p> <ex:object-number-{i:04}> .\n"))
        .collect();
    assert!(triples.len() > 64 << 10);
    assert_eq!(request(server.addr(), "POST", "/ingest", &triples).0, 200);
    let scan = format!(
        "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{ALL_P}",
        ALL_P.len()
    );
    let before = flushes(&server);
    let mut stream = connect(server.addr());
    stream
        .write_all(format!("{scan}GET /health HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    // `read_one_response` reads exactly `content-length` bytes of body.
    let response = read_one_response(&mut stream);
    assert!(body_of(&response) == triples, "the answer is the document");
    assert!(read_one_response(&mut stream).contains("\"asserted_triples\": 2000"));
    // The scan left when it crossed the high-water mark, the small answer
    // behind it when the connection next waited for the client.
    assert_eq!(flushes(&server) - before, 2);
    server.shutdown();
}

#[test]
fn the_request_bound_answers_exactly_that_many_of_a_longer_batch() {
    let config = ServerConfig {
        max_requests_per_connection: 3,
        ..quick_config()
    };
    let server = start_with_points(5, config);
    let batch: String = (0..5).map(point_query).collect();
    let mut stream = connect(server.addr());
    stream.write_all(batch.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    let connections: Vec<&str> = out
        .lines()
        .filter_map(|l| l.strip_prefix("connection: "))
        .collect();
    assert_eq!(
        connections,
        ["keep-alive", "keep-alive", "close"],
        "{out:?}"
    );
    assert!(out.ends_with("<ex:s2> <ex:p2> <ex:o2> .\n"), "{out:?}");
    server.shutdown();
}

#[test]
fn shutdown_mid_batch_delivers_every_answer_that_was_computed() {
    let server = start_with_points(1, quick_config());
    let metrics = server.metrics().clone();
    let dispatched_before = metrics.snapshot().counter("server_requests");
    let answer = "<ex:s0> <ex:p0> <ex:o0> .\n";
    let mut stream = connect(server.addr());
    // A worker owns the connection before the batch and the shutdown race.
    stream.write_all(point_query(0).as_bytes()).unwrap();
    assert_eq!(body_of(&read_one_response(&mut stream)), answer);
    stream
        .write_all(point_query(0).repeat(400).as_bytes())
        .unwrap();
    server.shutdown();
    let mut out = String::new();
    // The unread rest of the batch may turn the close into a reset.
    let _ = stream.read_to_string(&mut out);
    let dispatched = metrics.snapshot().counter("server_requests") - dispatched_before;
    assert_eq!(
        1 + out.matches(answer).count() as u64,
        dispatched,
        "every dispatched request's answer is delivered"
    );
    if dispatched < 401 {
        assert_eq!(out.matches("connection: close").count(), 1, "{out:?}");
    }
}

#[test]
fn answers_over_blanks_are_these_exact_bytes() {
    let server = start_default();
    let addr = server.addr();
    // Blanks in subject and in object position; URIs sort before blanks.
    let stored = "_:b1 <ex:p> <ex:o1> .\n<ex:s1> <ex:p> _:b2 .\n<ex:s2> <ex:p> <ex:o2> .\n";
    assert_eq!(request(addr, "POST", "/ingest", stored).0, 200);
    let (_, response) = request(addr, "POST", "/query", ALL_P);
    assert_eq!(
        response,
        "HTTP/1.1 200 OK\r\ncontent-type: text/plain; charset=utf-8\r\n\
         content-length: 69\r\nconnection: close\r\n\
         x-swdb-epoch: 2\r\nx-swdb-degraded: false\r\n\r\n\
         <ex:s1> <ex:p> _:b2 .\n<ex:s2> <ex:p> <ex:o2> .\n_:b1 <ex:p> <ex:o1> .\n"
    );
    let (_, response) = request(addr, "POST", "/answer", ALL_P);
    assert_eq!(
        body_of(&response),
        "{\"epoch\": 2, \"non_minimal\": false, \"answers\": 3, \"triples\": \"\
         <ex:s1> <ex:p> _:b2 .\\n<ex:s2> <ex:p> <ex:o2> .\\n_:b1 <ex:p> <ex:o1> .\\n\"}"
    );
    server.shutdown();
}

#[test]
fn an_answer_cut_off_at_the_solution_limit_says_so_on_the_wire() {
    let server = start_default();
    let addr = server.addr();
    let hundred: String = (0..100)
        .map(|i| format!("<ex:s{i}> <ex:p> <ex:o{i}> .\n"))
        .collect();
    assert_eq!(request(addr, "POST", "/ingest", &hundred).0, 200);
    let truncations = || server.metrics().snapshot().counter("query_truncations");

    // 100^2 solutions: complete, and the response says nothing about it.
    let two = "(?A, ex:q, ?B) <- (?A, ex:p, ?B), (?C, ex:p, ?D)";
    let (status, response) = request(addr, "POST", "/query", two);
    assert_eq!(status, 200);
    assert!(!response.contains("truncated"), "{response}");
    assert_eq!(truncations(), 0);

    // 100^3 = 10^6 solutions: the enumeration stops at the limit.
    let three = format!("{two}, (?E, ex:p, ?F)");
    let ask = |target: &str| {
        let mut stream = connect(addr);
        // A debug build takes seconds over a million solutions.
        let patience = Some(Duration::from_secs(120));
        stream.set_read_timeout(patience).unwrap();
        let head = format!("POST {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n");
        write!(
            stream,
            "{head}content-length: {}\r\n\r\n{three}",
            three.len()
        )
        .unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    };
    let response = ask("/query");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    let head = response.split("\r\n\r\n").next().unwrap();
    assert!(
        head.ends_with("x-swdb-degraded: false\r\nx-swdb-truncated: true"),
        "{head}"
    );
    assert_eq!(truncations(), 1);
    let response = ask("/answer");
    assert!(
        body_of(&response).contains("\"answers\": 100, \"truncated\": true, \"triples\":"),
        "{response}"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_rotates_and_hands_the_store_back() {
    let dir = tmp_dir("shutdown");
    let mut db = SemanticWebDatabase::new();
    db.persist_to(&dir).expect("attach durability");
    let server = Server::start(db, quick_config()).expect("server start");
    let addr = server.addr();
    let (status, _) = request(addr, "POST", "/ingest", "<ex:a> <ex:p> <ex:b> .\n");
    assert_eq!(status, 200);

    let db = server.shutdown();
    assert_eq!(db.len(), 1);
    assert!(db.is_durable(), "shutdown must not detach a healthy layer");
    assert_eq!(
        db.wal_records(),
        0,
        "the final snapshot_now rotation truncates the WAL"
    );
    drop(db);
    let recovered = SemanticWebDatabase::open(&dir).expect("reopen");
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered.closure(), recovered.closure_recomputed());
    let _ = std::fs::remove_dir_all(&dir);
}
