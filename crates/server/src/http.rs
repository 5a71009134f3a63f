//! Hand-rolled HTTP/1.1: deadline-enforced request reading (keep-alive and
//! pipelining via a per-connection input buffer), size caps, and the
//! per-connection output buffer answers leave through (crate docs,
//! "Pipelining and flushing"). The parser is deliberately strict — anything
//! malformed is a `400` and the connection closes — because an ambiguous
//! request is an attack surface, and a mis-framed body *is* the next request.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use swdb_obs::{Counter, Hist};

use crate::handlers;
use crate::Shared;

/// Poll quantum for the deadline loops: short enough that a deadline is
/// enforced promptly, long enough to stay off the scheduler's back.
const POLL: Duration = Duration::from_millis(50);
/// Least room offered to a socket read (it doubles as a body arrives).
const READ_CHUNK: usize = 16 << 10;
/// Pending output at or over this is written at once.
const HIGH_WATER: usize = 64 << 10;
/// Output is held for this long after its requests were read, no longer.
const HOLD: Duration = Duration::from_millis(1);

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
    /// The `x-swdb-epoch` / `x-swdb-degraded` stamps of a data-bearing
    /// response — which epoch answered, whether it was `non_minimal` — and
    /// whether to add `x-swdb-truncated: true` (a complete answer has none).
    pub(crate) stamp: Option<(u64, bool, bool)>,
}

impl Response {
    pub(crate) fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type,
            stamp: None,
        }
    }

    pub(crate) fn json(status: u16, body: String) -> Self {
        Response::new(status, "application/json", body)
    }

    pub(crate) fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status, "text/plain; charset=utf-8", body)
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

/// Why no request was read.
enum Unread {
    /// Peer closed before a complete request: nothing to answer.
    Closed,
    /// Protocol violation: answer this and close.
    Bad(Response),
    /// Read deadline exceeded mid-request (slow-loris or genuine stall).
    TimedOut,
}

fn bad<T>(status: u16, why: &'static str) -> Result<T, Unread> {
    Err(Unread::Bad(Response::text(status, why)))
}

/// One connection's buffers. `inp[at..end]` is received and unconsumed (the
/// rest of a pipelined batch), `inp[end..]` room for the next socket read;
/// `out` holds answers not yet written. [`Connection::flush`] is the only
/// socket write, and the `Drop` flush covers every way out, a panic included.
struct Connection<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    inp: Vec<u8>,
    at: usize,
    end: usize,
    /// How much of the head at `at` has been searched for its end.
    scanned: usize,
    /// The socket read timeout last set.
    timeout: Duration,
    out: Vec<u8>,
    /// When the requests now being answered were read off the socket.
    since: Instant,
}

impl<'a> Connection<'a> {
    fn new(shared: &'a Shared, stream: &'a TcpStream) -> Self {
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        Connection {
            stream,
            shared,
            inp: Vec::new(),
            at: 0,
            end: 0,
            scanned: 0,
            timeout: Duration::ZERO,
            out: Vec::new(),
            since: Instant::now(),
        }
    }

    /// Renders `response` into `out`; returns `false` when the connection
    /// must close afterwards (`keep` is false, or a write failed).
    fn push(&mut self, response: &Response, keep: bool) -> bool {
        let (out, status, length) = (&mut self.out, response.status, response.body.len());
        let (phrase, kind) = (reason(status), response.content_type);
        let connection = if keep { "keep-alive" } else { "close" };
        let _ = write!(
            out,
            "HTTP/1.1 {status} {phrase}\r\ncontent-type: {kind}\r\ncontent-length: {length}\r\nconnection: {connection}\r\n"
        );
        if status == 503 {
            let secs = self.shared.config.retry_after_secs;
            let _ = write!(out, "retry-after: {secs}\r\n");
        }
        if let Some((epoch, flag, truncated)) = response.stamp {
            let _ = write!(out, "x-swdb-epoch: {epoch}\r\nx-swdb-degraded: {flag}\r\n");
            if truncated {
                out.extend_from_slice(b"x-swdb-truncated: true\r\n");
            }
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&response.body);
        let hold = self.out.len() < HIGH_WATER && self.since.elapsed() < HOLD;
        keep && (hold || self.flush())
    }

    /// Writes what is pending, if anything; `false` on a write error.
    fn flush(&mut self) -> bool {
        if self.out.is_empty() {
            return true;
        }
        self.shared.metrics.count(Counter::ServerFlushes, 1);
        let sent = self.stream.write_all(&self.out).is_ok();
        self.out.clear();
        sent
    }

    /// The close the server initiates. A socket closed with input unread
    /// sends a reset, which can destroy answers the peer has not read yet,
    /// so when input is left — the rest of a batch, or bytes waiting in the
    /// socket — this half-closes after the flush and discards input until
    /// EOF, an error or one [`POLL`]. A peer that closes first never comes
    /// here.
    fn close_unread(&mut self) {
        let mut stream = self.stream;
        let waiting = || {
            let peeked = stream.set_nonblocking(true).is_ok()
                && matches!(stream.peek(&mut [0]), Ok(n) if n > 0);
            let _ = stream.set_nonblocking(false);
            peeked
        };
        if !self.flush() || (self.at == self.end && !waiting()) {
            return;
        }
        let _ = stream.shutdown(Shutdown::Write);
        let deadline = Instant::now() + POLL;
        let mut sink = [0; 4096];
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            let _ = stream.set_read_timeout(Some(left.max(Duration::from_millis(1))));
            match stream.read(&mut sink) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }

    /// Reads one complete request, leaving what follows it for the next
    /// call. Every byte must arrive before `deadline`.
    fn read_request(&mut self, deadline: Instant) -> Result<Request, Unread> {
        let config = &self.shared.config;
        // ---- head ----
        let head_end = loop {
            let window = &self.inp[self.at..self.end];
            let from = self.scanned.saturating_sub(3);
            if let Some(found) = window[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + found;
            }
            self.scanned = window.len();
            if window.len() > config.max_head_bytes {
                return bad(431, "request head too large\n");
            }
            self.fill(deadline)?;
        };
        self.scanned = 0;
        let Ok(head) = std::str::from_utf8(&self.inp[self.at..self.at + head_end]) else {
            return bad(400, "non-UTF-8 request head\n");
        };
        let mut lines = head.split("\r\n");
        let mut parts = lines.next().unwrap_or("").split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => {
                    (m.to_string(), t, v)
                }
                _ => return bad(400, "malformed request line\n"),
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return bad(400, "unsupported HTTP version\n");
        }
        let mut content_length: Option<usize> = None;
        let mut keep_alive = version == "HTTP/1.1";
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return bad(400, "malformed header line\n");
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                // Digits only (`usize::from_str` takes a sign) and one value
                // only: the body's length frames the next request.
                let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
                match value.parse::<usize>() {
                    Ok(n) if digits && content_length.is_none_or(|seen| seen == n) => {
                        content_length = Some(n);
                    }
                    _ => return bad(400, "bad Content-Length\n"),
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return bad(501, "chunked transfer encoding not supported\n");
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > config.max_request_bytes {
            return bad(413, "request body too large\n");
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };
        // ---- body ----
        let total = head_end + 4 + content_length;
        while self.end - self.at < total {
            self.fill(deadline)?;
        }
        self.at += total;
        Ok(Request {
            method,
            path,
            query,
            body: self.inp[self.at - content_length..self.at].to_vec(),
            keep_alive,
        })
    }

    /// One deadline-aware socket read: the socket timeout is the poll
    /// quantum, the *deadline* is enforced here — a client dripping one
    /// byte per poll cannot extend it. With nothing buffered the connection
    /// idles between requests, and a poll tick that sees the server shutting
    /// down closes it; a request whose first byte has arrived is read and
    /// answered (drain-on-shutdown).
    fn fill(&mut self, deadline: Instant) -> Result<(), Unread> {
        // Never wait for the peer with answers unsent: it may wait for them.
        if !self.flush() {
            return Err(Unread::Closed);
        }
        // Whole requests were consumed in place: only a partial one moves.
        self.inp.copy_within(self.at..self.end, 0);
        (self.at, self.end) = (0, self.end - self.at);
        let room = self.end.max(READ_CHUNK);
        self.inp.resize(self.inp.len().max(self.end + room), 0);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(Unread::TimedOut);
            }
            let timeout = POLL.min(deadline - now);
            if timeout != self.timeout {
                let _ = self.stream.set_read_timeout(Some(timeout));
                self.timeout = timeout;
            }
            match self.stream.read(&mut self.inp[self.end..]) {
                Ok(0) => return Err(Unread::Closed),
                Ok(n) => {
                    self.since = Instant::now();
                    self.end += n;
                    return Ok(());
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.end == 0 && self.shared.shutting_down() {
                        return Err(Unread::Closed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(Unread::Closed),
            }
        }
    }
}

impl Drop for Connection<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The overload answer written from the accept loop when the work queue
/// is full: best-effort, bounded by the write timeout, never blocks the
/// acceptor on a dead peer.
pub(crate) fn shed(shared: &Shared, stream: TcpStream) {
    let response = Response::text(503, "server overloaded, retry later\n");
    Connection::new(shared, &stream).push(&response, false);
}

/// Serves one connection to completion: up to `max_requests_per_connection`
/// keep-alive requests, each under its own read deadline, each answered
/// through [`handlers::handle`]. Every exit path has appended whatever the
/// protocol allows; dropping the connection writes it.
pub(crate) fn serve_connection(shared: &Shared, stream: &TcpStream) {
    let config = &shared.config;
    let _ = stream.set_nodelay(true);
    let mut conn = Connection::new(shared, stream);
    for served in 0..config.max_requests_per_connection {
        let deadline = Instant::now() + config.read_timeout;
        let (response, keep) = match conn.read_request(deadline) {
            Ok(request) => {
                shared.metrics.count(Counter::ServerRequests, 1);
                let span = shared.metrics.span(Hist::SpanServerRequestNs);
                let response = handlers::handle(shared, &request);
                drop(span);
                // Drain-on-shutdown: answer the in-flight request, then
                // close instead of idling in keep-alive.
                let keep = request.keep_alive
                    && served + 1 < config.max_requests_per_connection
                    && !shared.shutting_down();
                (response, keep)
            }
            // Idling out between requests is a normal close, not a `408`.
            Err(Unread::TimedOut) if conn.at == conn.end => return,
            Err(Unread::Closed) => return,
            Err(Unread::TimedOut) => {
                shared.metrics.count(Counter::ServerTimeouts, 1);
                (Response::text(408, "request deadline exceeded\n"), false)
            }
            Err(Unread::Bad(response)) => {
                shared.metrics.count(Counter::ServerBadRequests, 1);
                (response, false)
            }
        };
        if !conn.push(&response, keep) {
            if !keep {
                conn.close_unread();
            }
            return;
        }
    }
}
