//! Hand-rolled HTTP/1.1: deadline-enforced request reading (keep-alive and
//! pipelining via a per-connection carry buffer), size caps, and response
//! writing. The parser is deliberately strict — anything malformed is a
//! `400` and the connection closes — because on a fault-hardened server an
//! ambiguous request is an attack surface, not a compatibility feature.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use swdb_obs::{Counter, Hist, MetricsLevel};

use crate::handlers;
use crate::Shared;

/// Poll quantum for the deadline loops: short enough that a deadline is
/// enforced promptly, long enough to stay off the scheduler's back.
const POLL: Duration = Duration::from_millis(50);

/// One parsed request.
pub(crate) struct Request {
    pub(crate) method: String,
    /// Path without the query string.
    pub(crate) path: String,
    /// Raw query string (without the `?`), if any.
    pub(crate) query: Option<String>,
    pub(crate) body: Vec<u8>,
    pub(crate) keep_alive: bool,
}

impl Request {
    /// The value of a `k=v` query parameter, if present.
    pub(crate) fn param(&self, key: &str) -> Option<&str> {
        self.query
            .as_deref()?
            .split('&')
            .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
    }
}

/// A response under construction.
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) body: Vec<u8>,
    pub(crate) content_type: &'static str,
    pub(crate) headers: Vec<(String, String)>,
    /// Force `Connection: close` regardless of the request's wish.
    pub(crate) close: bool,
}

impl Response {
    pub(crate) fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type,
            headers: Vec::new(),
            close: false,
        }
    }

    pub(crate) fn json(status: u16, body: String) -> Self {
        Response::new(status, "application/json", body)
    }

    pub(crate) fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status, "text/plain; charset=utf-8", body)
    }

    pub(crate) fn header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }

    fn closing(mut self) -> Self {
        self.close = true;
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

enum ReadOutcome {
    Ready(Request),
    /// Peer closed (or half-closed) before a complete request: nothing to
    /// answer.
    Closed,
    /// Protocol violation: answer this and close.
    Bad(Response),
    /// Read deadline exceeded mid-request (slow-loris or genuine stall).
    TimedOut,
}

/// Reads one complete request from `stream`, carrying leftover pipelined
/// bytes across calls in `buf`. Every byte must arrive before `deadline`.
fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shared: &Shared,
    deadline: Instant,
) -> ReadOutcome {
    let config = &shared.config;
    // ---- head ----
    let head_end = loop {
        if let Some(at) = find_head_end(buf) {
            break at;
        }
        if buf.len() > config.max_head_bytes {
            return ReadOutcome::Bad(Response::text(431, "request head too large\n"));
        }
        match fill(stream, buf, shared, deadline) {
            Fill::Got => {}
            Fill::Eof => return ReadOutcome::Closed,
            Fill::TimedOut => {
                // An idle keep-alive connection timing out between
                // requests is a normal close, not a protocol error.
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::TimedOut
                };
            }
            Fill::Err => return ReadOutcome::Closed,
        }
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h.to_string(),
        Err(_) => return ReadOutcome::Bad(Response::text(400, "non-UTF-8 request head\n")),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return ReadOutcome::Bad(Response::text(400, "malformed request line\n")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return ReadOutcome::Bad(Response::text(400, "unsupported HTTP version\n"));
    }
    let mut content_length: usize = 0;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return ReadOutcome::Bad(Response::text(400, "malformed header line\n"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => return ReadOutcome::Bad(Response::text(400, "bad Content-Length\n")),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return ReadOutcome::Bad(Response::text(
                501,
                "chunked transfer encoding not supported\n",
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > config.max_request_bytes {
        return ReadOutcome::Bad(Response::text(413, "request body too large\n"));
    }
    // ---- body ----
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        match fill(stream, buf, shared, deadline) {
            Fill::Got => {}
            Fill::Eof => return ReadOutcome::Closed,
            Fill::TimedOut => return ReadOutcome::TimedOut,
            Fill::Err => return ReadOutcome::Closed,
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    let body = buf[body_start..body_start + content_length].to_vec();
    // Keep pipelined leftovers for the next request on this connection.
    buf.drain(..body_start + content_length);
    ReadOutcome::Ready(Request {
        method: method.to_string(),
        path,
        query,
        body,
        keep_alive,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

enum Fill {
    Got,
    Eof,
    TimedOut,
    Err,
}

/// One deadline-aware read into `buf`: the socket timeout is the poll
/// quantum, the *deadline* is enforced here — a client dripping one byte
/// per poll cannot extend it. While `buf` is empty the connection idles
/// between requests, and a poll tick that sees the server shutting down
/// closes it instead of waiting out the deadline; once a request's first
/// byte has arrived it is read and answered (drain-on-shutdown).
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>, shared: &Shared, deadline: Instant) -> Fill {
    let mut chunk = [0u8; 4096];
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Fill::TimedOut;
        }
        let _ = stream.set_read_timeout(Some(POLL.min(deadline - now)));
        match stream.read(&mut chunk) {
            Ok(0) => return Fill::Eof,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Fill::Got;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if buf.is_empty() && shared.shutting_down() {
                    return Fill::Eof;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Fill::Err,
        }
    }
}

/// Serializes and writes a response; returns `false` when the connection
/// must close afterwards (by response demand, request wish, or write
/// error).
fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) -> bool {
    let keep = keep_alive && !response.close;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&response.body);
    let written = stream.write_all(&out).is_ok() && stream.flush().is_ok();
    keep && written
}

/// The overload answer written from the accept loop when the work queue
/// is full: best-effort, bounded by the write timeout, never blocks the
/// acceptor on a dead peer.
pub(crate) fn shed(mut stream: TcpStream, retry_after_secs: u64, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let response = Response::text(503, "server overloaded, retry later\n")
        .header("retry-after", retry_after_secs.to_string())
        .closing();
    let _ = write_response(&mut stream, &response, false);
}

/// Serves one connection to completion: up to `max_requests_per_connection`
/// keep-alive requests, each under its own read deadline, each answered
/// through [`handlers::handle`]. Every exit path has written whatever
/// answer the protocol allows and lets the socket drop.
pub(crate) fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let config = &shared.config;
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    for served in 0..config.max_requests_per_connection {
        let deadline = Instant::now() + config.read_timeout;
        match read_request(&mut stream, &mut buf, shared, deadline) {
            ReadOutcome::Ready(request) => {
                shared.metrics.count(Counter::ServerRequests, 1);
                let t0 = shared.metrics.on(MetricsLevel::Debug).then(Instant::now);
                let mut response = handlers::handle(shared, &request);
                if let Some(t0) = t0 {
                    shared
                        .metrics
                        .record(Hist::SpanServerRequestNs, t0.elapsed().as_nanos() as u64);
                }
                // Drain-on-shutdown: answer the in-flight request, then
                // close instead of idling in keep-alive.
                if shared.shutting_down() || served + 1 == config.max_requests_per_connection {
                    response = response.closing();
                }
                if !write_response(&mut stream, &response, request.keep_alive) {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut => {
                shared.metrics.count(Counter::ServerTimeouts, 1);
                let response = Response::text(408, "request deadline exceeded\n").closing();
                let _ = write_response(&mut stream, &response, false);
                return;
            }
            ReadOutcome::Bad(response) => {
                shared.metrics.count(Counter::ServerBadRequests, 1);
                let _ = write_response(&mut stream, &response.closing(), false);
                return;
            }
        }
    }
}
