//! # swdb-server — a fault-hardened, std-only HTTP/1.1 front end
//!
//! Serves a [`SemanticWebDatabase`] over a wire: `TcpListener` + a bounded
//! worker pool, hand-rolled HTTP/1.1 — **no crates.io dependencies**. The
//! concurrency contract comes from `swdb-core`'s publication layer: one
//! writer side owns the facade behind a mutex, and every read request is
//! answered from a pinned, immutable [`PublishedSnapshot`] — premise
//! queries included — so a reader never blocks (or is blocked by)
//! `insert`/`remove`. Only the write endpoints touch the facade lock.
//!
//! ## Endpoints
//!
//! | Method + path | Body | Response |
//! |---|---|---|
//! | `GET /health` | — | JSON: epoch, triples, degraded/durability flags |
//! | `GET /metrics` | — | the facade's [`metrics_snapshot`] JSON |
//! | `POST /ingest` | N-Triples | JSON: inserted count + new epoch |
//! | `POST /remove` | N-Triples | JSON: removed count + new epoch |
//! | `POST /query[?semantics=merge]` | query syntax | answer graph as N-Triples |
//! | `POST /answer[?semantics=merge]` | query syntax | JSON: epoch, flags, answer |
//!
//! Every response carries `X-Swdb-Epoch` (the snapshot epoch it was
//! computed against) and `X-Swdb-Degraded` (`non_minimal` of that
//! substrate).
//!
//! ## Robustness discipline
//!
//! - **Deadlines**: per-request read and write deadlines enforced between
//!   short poll-timeouts — a slow-loris client is cut off at the read
//!   deadline (`408`), not at a per-syscall timeout it can reset forever.
//! - **Size limits**: request head and body are capped (`431`/`413`);
//!   chunked transfer encoding is declined (`501`).
//! - **Bounded queue + load shedding**: accepted connections enter a
//!   bounded work queue; when it is full the connection is *shed* with
//!   `503` + `Retry-After` instead of queuing unbounded latency.
//! - **Panic isolation**: each connection is served under
//!   `catch_unwind`; a panicking handler counts `server_panics` and closes
//!   that connection, and the worker keeps serving.
//! - **Degraded serving**: when the store's durability layer fail-stops,
//!   writes return `503` + `Retry-After` (they would not be durable);
//!   reads keep serving from snapshots with `200`.
//! - **Graceful shutdown**: [`ServerHandle::shutdown`] stops accepting,
//!   lets in-flight requests drain under their deadlines, joins every
//!   worker, then takes a final [`snapshot_now`] (WAL rotation) and
//!   returns the database.
//!
//! ## Pipelining and flushing
//!
//! A connection's answers are appended to one output buffer and leave in
//! one socket write per drained batch (`server_requests / server_flushes`
//! on `/metrics` is the batch size achieved). The buffer is written
//! 1. before every socket read — a lone caller sees one write per response
//!    as before, and a half-sent next request holds no answer back;
//! 2. once 64 KiB are pending — a large body leaves at once and the buffer
//!    never outgrows one body + 64 KiB;
//! 3. once 1 ms has passed since the requests it answers were read — no
//!    answer is held longer, and a batch slower than that goes on to leave
//!    one answer per write, as every batch did before;
//! 4. on every way out of the connection — close, the request bound,
//!    `4xx`/`408`, shutdown drain, a handler panic (one `Drop`). When the
//!    server closes with input still unread it half-closes and drains that
//!    input for up to 50 ms first: a close over unread input is a reset,
//!    and a reset can discard answers already written.
//!
//! The two numbers are constants, not [`ServerConfig`] fields: no caller
//! needs another value, and an option would be a second path to test.
//!
//! ```no_run
//! use swdb_core::SemanticWebDatabase;
//! use swdb_server::{Server, ServerConfig};
//!
//! let db = SemanticWebDatabase::new();
//! let handle = Server::start(db, ServerConfig::default()).unwrap();
//! println!("serving on http://{}", handle.addr());
//! let _db = handle.shutdown(); // drains, rotates, hands the store back
//! ```
//!
//! [`SemanticWebDatabase`]: swdb_core::SemanticWebDatabase
//! [`PublishedSnapshot`]: swdb_core::PublishedSnapshot
//! [`metrics_snapshot`]: swdb_core::SemanticWebDatabase::metrics_snapshot
//! [`snapshot_now`]: swdb_core::SemanticWebDatabase::snapshot_now

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod handlers;
mod http;
mod pool;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use swdb_core::{SemanticWebDatabase, SnapshotReader};
use swdb_obs::{Counter, Metrics};

use pool::WorkQueue;

/// Tuning knobs of a [`Server`]. `Default` is sized for tests and small
/// deployments: loopback, ephemeral port, 4 workers, tight deadlines.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral loopback port).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded work-queue depth; a connection arriving when the queue is
    /// full is shed with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Deadline for reading one complete request (head + body). A client
    /// trickling bytes — slow-loris — is cut off here with `408`.
    pub read_timeout: Duration,
    /// Deadline for writing one complete response.
    pub write_timeout: Duration,
    /// Maximum request body size in bytes (`413` beyond).
    pub max_request_bytes: usize,
    /// Maximum request head (request line + headers) size (`431` beyond).
    pub max_head_bytes: usize,
    /// Requests served per connection before it is closed (keep-alive
    /// recycling bound).
    pub max_requests_per_connection: usize,
    /// `Retry-After` seconds advertised on `503` responses.
    pub retry_after_secs: u64,
    /// Expose `POST /panic` (deliberate handler panic) for the
    /// panic-isolation tests. Never enable in production.
    pub enable_test_endpoints: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_request_bytes: 1 << 20,
            max_head_bytes: 8 << 10,
            max_requests_per_connection: 128,
            retry_after_secs: 1,
            enable_test_endpoints: false,
        }
    }
}

/// State shared by the accept loop and every worker.
pub(crate) struct Shared {
    pub(crate) db: Mutex<SemanticWebDatabase>,
    pub(crate) reader: SnapshotReader,
    pub(crate) metrics: Metrics,
    pub(crate) config: ServerConfig,
    pub(crate) queue: WorkQueue,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    /// Takes the database's [`SnapshotReader`] before the facade goes
    /// behind the serving mutex, so read requests pin snapshots without
    /// touching the lock.
    pub(crate) fn new(mut db: SemanticWebDatabase, config: ServerConfig) -> Self {
        let metrics = db.metrics().clone();
        Shared {
            reader: db.reader(),
            db: Mutex::new(db),
            queue: WorkQueue::new(config.queue_depth.max(1), metrics.clone()),
            metrics,
            config,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Locks the facade, recovering from poisoning: handlers run under
    /// `catch_unwind`, and a panic inside a facade method cannot leave the
    /// database half-written. Every mutation applies itself to a fork of
    /// the committed state and swaps the fork in as its last step, so a
    /// panic never reaches the swap and the committed state is the one
    /// before the write; a panic inside the WAL commit leaves the
    /// durability layer detached, with its fail-stop record, so later
    /// writes answer `503`. Continuing with the inner value is sound — and
    /// a poisoned lock must never take the whole server down.
    pub(crate) fn lock_db(&self) -> MutexGuard<'_, SemanticWebDatabase> {
        self.db.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The server entry point; see the crate docs for the contract.
pub struct Server;

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns the
    /// running server's handle.
    pub fn start(db: SemanticWebDatabase, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared::new(db, config));
        let worker_threads: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("swdb-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<_>>()?;
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("swdb-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }
}

/// A running server: the bound address plus the threads to join on
/// shutdown. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads serving detached (the
/// process exit reaps them); call `shutdown` to drain and recover the
/// database.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` bindings).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics handle the server records into (shared with the
    /// database).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Graceful shutdown: stop accepting, wake the accept loop, drain the
    /// work queue (every in-flight and queued request finishes under its
    /// deadlines; keep-alive connections are closed after their current
    /// request), join every thread, then take a final
    /// [`snapshot_now`](swdb_core::SemanticWebDatabase::snapshot_now) —
    /// the WAL-rotating durable handoff — and return the database. A
    /// failed final rotation follows the facade's fail-stop discipline
    /// (recorded in `durability_error`, the store still recovers).
    pub fn shutdown(mut self) -> SemanticWebDatabase {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop: it re-checks the flag after every
        // accept, so one throwaway connection gets it to its break.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.queue.close();
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| unreachable!("all thread clones joined above"));
        let mut db = shared.db.into_inner().unwrap_or_else(|p| p.into_inner());
        let _ = db.snapshot_now();
        db
    }
}

/// Accepts until shutdown; full queue sheds with `503` + `Retry-After`.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.metrics.count(Counter::ServerAccepted, 1);
        if let Err(stream) = shared.queue.push(stream) {
            shared.metrics.count(Counter::ServerShed, 1);
            http::shed(shared, stream);
        }
    }
}

/// One worker: pop connections until the queue closes; serve each under
/// panic isolation, so a handler panic costs one connection, never the
/// worker.
fn worker_loop(shared: &Shared) {
    while let Some(stream) = shared.queue.pop() {
        // The socket outlives the unwind: a panic is counted before the
        // peer can see its connection close.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            http::serve_connection(shared, &stream);
        }));
        if outcome.is_err() {
            shared.metrics.count(Counter::ServerPanics, 1);
        }
    }
}
