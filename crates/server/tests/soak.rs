//! The fault-injected soak: `FaultIo` under the durable store plus a chaos
//! client battery — malformed, truncated, slow-loris, oversized, and
//! pipelined requests — fired concurrently with genuine writers and
//! readers against every endpoint. The run must terminate with
//!
//! 1. zero hung connections (every client thread joins under a deadline),
//! 2. zero worker-pool losses (panics isolated; the server still serves),
//! 3. a consistent, recoverable store: after graceful shutdown the data
//!    directory reopens through the PR 8 recovery path and the recovered
//!    closure matches a from-scratch recomputation.
//!
//! Debug runs keep the iteration counts small; `SWDB_SERVER_SMOKE=1` (the
//! CI release smoke) runs the extended battery.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swdb_core::{MetricsLevel, SemanticWebDatabase};
use swdb_durable::{FaultIo, FaultKind};
use swdb_server::{Server, ServerConfig};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "swdb-soak-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke() -> bool {
    std::env::var("SWDB_SERVER_SMOKE").is_ok_and(|v| v == "1")
}

fn rounds() -> usize {
    if smoke() {
        40
    } else if cfg!(debug_assertions) {
        8
    } else {
        20
    }
}

/// One request on a fresh connection; returns the status (0 when the
/// connection yielded no parseable response, e.g. after a chaos volley).
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nhost: s\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (0, String::new());
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    if stream.write_all(raw.as_bytes()).is_err() {
        return (0, String::new());
    }
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    let status = out
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, out)
}

/// The chaos battery: every weapon aims at one connection and must leave
/// the server serving. None of these are allowed to hang the caller.
fn chaos_volley(addr: SocketAddr, round: usize) {
    match round % 5 {
        // Garbage bytes for a request line.
        0 => {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(b"\x00\xffGARBAGE bytes not HTTP\r\n\r\n");
                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                let mut sink = Vec::new();
                let _ = s.read_to_end(&mut sink);
            }
        }
        // Truncated request: advertise a body, send half, vanish.
        1 => {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ =
                    s.write_all(b"POST /ingest HTTP/1.1\r\ncontent-length: 64\r\n\r\n<ex:half>");
            } // dropped here — peer disappears mid-body
        }
        // Slow loris: drip a byte, stall, let the deadline reap it.
        2 => {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(b"G");
                std::thread::sleep(Duration::from_millis(120));
                let _ = s.write_all(b"E");
                // Deadline (300 ms in this config) fires while we stall.
                std::thread::sleep(Duration::from_millis(400));
                let _ = s.write_all(b"T /health HTTP/1.1\r\n\r\n");
            }
        }
        // Oversized: blow the body cap.
        3 => {
            let body = "x".repeat(96 << 10);
            let _ = request(addr, "POST", "/ingest", &body);
        }
        // Pipelined burst: several requests in one packet.
        _ => {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let one = "GET /health HTTP/1.1\r\nhost: s\r\n\r\n";
                let burst = one.repeat(4);
                let _ = s.write_all(burst.as_bytes());
                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                let mut sink = Vec::new();
                let _ = s.read_to_end(&mut sink);
            }
        }
    }
}

#[test]
fn fault_injected_soak_ends_with_a_consistent_recoverable_store() {
    let dir = tmp_dir("chaos");
    let fault = FaultIo::new();
    let mut db = SemanticWebDatabase::new();
    db.set_metrics_level(MetricsLevel::Counters);
    db.persist_to_with_io(&dir, Arc::new(fault.clone()))
        .expect("attach durability");
    let config = ServerConfig {
        workers: 4,
        queue_depth: 32,
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(500),
        max_request_bytes: 64 << 10,
        ..ServerConfig::default()
    };
    let server = Server::start(db, config).expect("server start");
    let addr = server.addr();
    let deadline = Instant::now() + Duration::from_secs(if smoke() { 120 } else { 60 });

    let committed = Arc::new(AtomicU64::new(0));
    let n = rounds();

    // Arm the fail-stop fault a handful of durable write ops in: it fires
    // mid-run, under the writers' feet, whatever the thread schedule.
    fault.arm(n as u64 / 2, FaultKind::Fail);

    // Writers: genuine ingests, counted only when acknowledged durable.
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let committed = Arc::clone(&committed);
            std::thread::spawn(move || {
                for i in 0..n {
                    let body = format!("<ex:s{w}x{i}> <ex:p> <ex:o{w}x{i}> .\n");
                    let (status, _) = request(addr, "POST", "/ingest", &body);
                    // 200 = applied; 503 = degraded-mode refusal (also fine).
                    assert!(
                        status == 200 || status == 503,
                        "writer {w} round {i}: unexpected status {status}"
                    );
                    if status == 200 {
                        committed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();

    // Readers: query + health + metrics on every round; reads must serve
    // throughout, including during and after the durability fault.
    let readers: Vec<_> = (0..2)
        .map(|r| {
            std::thread::spawn(move || {
                for i in 0..n {
                    let (status, _) =
                        request(addr, "POST", "/query", "(?X, ex:p, ?Y) <- (?X, ex:p, ?Y)");
                    assert_eq!(status, 200, "reader {r} round {i}: query must serve");
                    let (status, _) = request(addr, "GET", "/health", "");
                    assert_eq!(status, 200, "reader {r} round {i}: health must serve");
                }
            })
        })
        .collect();

    // Chaos clients: the full battery, concurrently with the real load.
    let chaos: Vec<_> = (0..2)
        .map(|c| {
            std::thread::spawn(move || {
                for i in 0..n {
                    chaos_volley(addr, i + c);
                }
            })
        })
        .collect();

    // Zero hung connections: every client thread joins within the ceiling.
    for t in writers.into_iter().chain(readers).chain(chaos) {
        while !t.is_finished() {
            assert!(
                Instant::now() < deadline,
                "a client thread hung past the soak deadline"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        t.join().expect("client thread panicked");
    }
    fault.disarm();

    // The server survived the battery: still serving, pool intact.
    let (status, _) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200, "server must still serve after the soak");
    let snapshot = server.metrics().snapshot();
    assert_eq!(
        snapshot.counters.get("server_panics").copied().unwrap_or(0),
        0,
        "no handler may panic on chaos input"
    );
    assert!(
        snapshot
            .counters
            .get("server_bad_requests")
            .copied()
            .unwrap_or(0)
            > 0,
        "the chaos battery must have exercised the 4xx paths"
    );
    assert!(
        snapshot
            .counters
            .get("durability_detached")
            .copied()
            .unwrap_or(0)
            >= 1,
        "the armed fault must have fail-stopped the layer"
    );

    // Graceful shutdown drains and hands the store back. The in-memory
    // database holds every 200-acknowledged write (and possibly the one
    // write that triggered the detach, which was applied in memory but
    // refused durability).
    let db = server.shutdown();
    let in_memory = db.len() as u64;
    let acked = committed.load(Ordering::SeqCst);
    assert!(
        in_memory >= acked.saturating_sub(1) && in_memory <= acked + 1,
        "in-memory triples ({in_memory}) must track 200-acknowledged ingests ({acked})"
    );
    drop(db);

    // And the directory reopens to a consistent state through the PR 8
    // recovery path: every durably-acknowledged write before the fault is
    // present, the maintained closure matches a from-scratch
    // recomputation, and the store keeps working.
    let mut recovered = SemanticWebDatabase::open(&dir).expect("recovery must succeed");
    assert!(recovered.is_durable());
    assert_eq!(
        recovered.closure(),
        recovered.closure_recomputed(),
        "recovered closure must be consistent"
    );
    assert!(recovered.len() <= in_memory as usize);
    // Every 200 was durable: recovery keeps all of them, plus at most the
    // one write whose WAL commit detached the layer and was answered 503.
    let recovered_len = recovered.len() as u64;
    assert!(
        acked <= recovered_len && recovered_len <= acked + 1,
        "recovered triples ({recovered_len}) must cover every 200-acknowledged ingest ({acked})"
    );
    recovered.insert(swdb_model::triple("ex:post", "ex:p", "ex:recovery"));
    assert_eq!(
        recovered.closure(),
        recovered.closure_recomputed(),
        "the recovered store must keep maintaining correctly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
