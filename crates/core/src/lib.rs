//! # swdb-core — the public facade of the `swdb` stack
//!
//! This crate is what a downstream user depends on. It provides the
//! [`SemanticWebDatabase`] type — data plus entailment regime plus query
//! answering — and re-exports the full stack underneath so that every
//! concept of *Foundations of Semantic Web Databases* (PODS 2004 /
//! JCSS 2011) is reachable from one place:
//!
//! | Paper concept | Where |
//! |---|---|
//! | RDF graphs, maps, merge, isomorphism (§2.1) | [`model`] |
//! | Model theory, deductive system, closure, entailment (§2.3–2.4) | [`entailment`] |
//! | Lean graphs, cores, minimal representations, normal forms (§3) | [`normal`] |
//! | Tableau queries, premises, constraints, answers (§4, §6) | [`query`] |
//! | Query containment (§5) | [`containment`] |
//! | Homomorphism / pattern matching engine | [`hom`] |
//! | Triple store, N-Triples syntax, statistics | [`store`] |
//! | Incremental closure maintenance over id-triples | [`reason`] |
//! | Classical graph substrate for the hardness reductions | [`graphs`] |
//! | Metrics, spans, early warnings (engineering layer) | [`obs`] |
//! | Snapshots, WAL, crash recovery (engineering layer) | [`durable`] |
//!
//! ## Observability
//!
//! Every engine a [`SemanticWebDatabase`] owns — the reasoner, the core
//! engines, the query executor, a snapshot's premise-overlay cache — records into
//! one shared [`obs::Metrics`] handle. Recording is off by default and
//! near-free when off (one relaxed atomic load per site; hot loops batch
//! into locals). Turn it on with the `SWDB_METRICS` environment variable
//! (`counters` or `debug`) or at runtime with
//! [`SemanticWebDatabase::set_metrics_level`]:
//!
//! ```
//! use swdb_core::{MetricsLevel, SemanticWebDatabase, Semantics};
//! use swdb_core::model::graph;
//! use swdb_core::query::query;
//!
//! let mut db = SemanticWebDatabase::new();
//! db.set_metrics_level(MetricsLevel::Counters);
//! db.insert_graph(&graph([("ex:a", "ex:p", "ex:b")]));
//! let q = query([("?X", "ex:p", "?Y")], [("?X", "ex:p", "?Y")]);
//! let _ = db.answer(&q, Semantics::Union);
//!
//! // Deterministic JSON: counters, per-rule firings, gauges, histograms.
//! let report = db.metrics_snapshot();
//! assert!(report.contains("\"query_answers\": 1"));
//!
//! // EXPLAIN: the mechanism and join order the executor actually used.
//! let plan = db.explain(&q, Semantics::Union);
//! assert_eq!(plan.mechanism, "premise_free");
//! ```
//!
//! ## Durability & recovery
//!
//! A database can be made **crash-safe**: attach a data directory with
//! [`SemanticWebDatabase::persist_to`] (or open one with
//! [`SemanticWebDatabase::open`]), and every mutation commits to an append-only,
//! per-record-checksummed **write-ahead log** with one append plus one
//! fsync per facade call. [`SemanticWebDatabase::snapshot_now`] — or
//! automatic compaction past `SWDB_WAL_COMPACT` records — rotates a
//! versioned, checksummed **snapshot** of the entire state (the
//! dictionary front-coded, the maintained closure gap-coded with the base
//! store a flag on each of its triples, the core engine's state including
//! degraded-mode flags) and truncates the log. The snapshot streams from
//! the live state to disk in chunks and is read back the same way, so a
//! rotation holds a few chunk buffers, never an image of the state.
//!
//! [`SemanticWebDatabase::open`] recovers: the newest valid snapshot
//! loads by pure deserialization — **no closure fixpoint, no core
//! search, no sort**: its runs decode ascending — and the WAL suffix
//! replays through the live write path, one commit per run of
//! insert/remove records netted to one signed batch (the last op on a
//! triple wins). The asserted set, the closure and every term
//! id recover identical to a record-by-record replay's, since each record
//! interns its terms in log order; the evaluation graph recovers isomorphic
//! to it (under a core budget it may degrade another component, but stays
//! equivalent). A crash mid-commit tears the final
//! WAL record; recovery detects it by checksum, truncates it, and keeps
//! everything durably acknowledged before it. Snapshot formats are
//! versioned (`SNAPSHOT_VERSION` in [`swdb_durable`]; versions 1 and 2
//! still open, and the next rotation writes the current one); a damaged
//! snapshot falls back to the previous generation, which rotation deletes
//! only after the new segment passes a read-back verification, and an
//! intact one of a future version stops the open, removing nothing.
//! Durability IO errors **fail-stop**: the layer detaches
//! (see [`SemanticWebDatabase::durability_error`]), the in-memory
//! database keeps working, and the directory still recovers to its last
//! durable state.
//!
//! ```
//! use swdb_core::SemanticWebDatabase;
//! use swdb_core::model::graph;
//!
//! let dir = std::env::temp_dir().join(format!("swdb-doc-{}", std::process::id()));
//! let mut db = SemanticWebDatabase::new();
//! db.persist_to(&dir).unwrap();
//! db.insert_graph(&graph([("ex:a", "ex:p", "ex:b")]));
//! drop(db);
//!
//! let recovered = SemanticWebDatabase::open(&dir).unwrap();
//! assert_eq!(recovered.len(), 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Serving & snapshots
//!
//! The facade is a single-owner value (read paths take `&mut self`), so
//! serving it to many threads through one lock would let any writer stall
//! every reader. The **publication layer** ([`publish`]) splits the read
//! side off: [`SemanticWebDatabase::publish`] atomically swaps an
//! immutable, epoch-stamped [`PublishedSnapshot`] — the facade's committed
//! state, one shared `Arc`, plus the durability record in force — into a
//! shared slot, and every [`SnapshotReader`] handle pins the current
//! snapshot in O(1) and answers on the pin with **no further
//! coordination**: a pinned snapshot stays bit-identical however the
//! writer mutates, so `answer`/`explain` on it never blocks — or is blocked
//! by — `insert`/`remove`. A snapshot answers every query, premise queries
//! included: a premise is the write path's insert on a fork of the pinned
//! state, its terms in an extension of the pinned dictionary, and the live
//! database is never touched. The facade's own reads run on its committed
//! state the same way, and a write commits a fork of that state by swap,
//! so a panicking write leaves it as it was.
//!
//! ```
//! use swdb_core::{SemanticWebDatabase, Semantics};
//! use swdb_core::model::graph;
//! use swdb_core::query::query;
//!
//! let mut db = SemanticWebDatabase::from_graph(graph([("ex:a", "ex:p", "ex:b")]));
//! let reader = db.reader(); // clonable, Send + Sync — one per thread
//! let pinned = reader.pin();
//!
//! // The writer keeps mutating; the pinned snapshot does not move.
//! db.insert_graph(&graph([("ex:c", "ex:p", "ex:d")]));
//! let q = query([("?X", "ex:p", "?Y")], [("?X", "ex:p", "?Y")]);
//! assert_eq!(pinned.answer(&q, Semantics::Union).unwrap().len(), 1);
//!
//! // A new pin observes the next published epoch.
//! db.publish();
//! assert_eq!(reader.pin().answer(&q, Semantics::Union).unwrap().len(), 2);
//! ```
//!
//! The `swdb-server` crate builds a fault-hardened std-only HTTP/1.1 front
//! end on exactly this contract: one writer thread owns the facade, every
//! worker answers read requests from pinned snapshots.
//!
//! ## Quickstart
//!
//! ```
//! use swdb_core::{SemanticWebDatabase, Semantics};
//! use swdb_core::model::{graph, rdfs};
//! use swdb_core::query::query;
//!
//! let mut db = SemanticWebDatabase::from_graph(graph([
//!     ("ex:paints", rdfs::SP, "ex:creates"),
//!     ("ex:creates", rdfs::DOM, "ex:Artist"),
//!     ("ex:Picasso", "ex:paints", "ex:Guernica"),
//! ]));
//!
//! // Querying sees the RDFS consequences, not just the asserted triples.
//! let creators = db.answer_union(&query(
//!     [("?X", "ex:creates", "?Y")],
//!     [("?X", "ex:creates", "?Y")],
//! ));
//! assert_eq!(creators.len(), 1);
//!
//! // Entailment, closure, core and normal form are one call away.
//! assert!(db.entails(&graph([("ex:Picasso", rdfs::TYPE, "ex:Artist")])));
//! assert!(db.is_lean());
//! let _nf = db.normal_form();
//! # let _ = Semantics::Union;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod publish;

pub use database::{EntailmentRegime, SemanticWebDatabase};
pub use publish::{PublishedSnapshot, SnapshotQueryError, SnapshotReader};
pub use swdb_normal::{CoreBudget, CoreBudgetMode};
pub use swdb_obs::{Metrics, MetricsLevel};
pub use swdb_query::{Explain, Semantics};

/// Re-export of the observability layer (`swdb-obs`).
pub use swdb_obs as obs;

/// Re-export of the abstract RDF data model (`swdb-model`).
pub use swdb_model as model;

/// Re-export of the classical graph substrate (`swdb-graphs`).
pub use swdb_graphs as graphs;

/// Re-export of the homomorphism / pattern-matching engine (`swdb-hom`).
pub use swdb_hom as hom;

/// Re-export of the entailment machinery (`swdb-entailment`).
pub use swdb_entailment as entailment;

/// Re-export of lean/core/closure/normal-form algorithms (`swdb-normal`).
pub use swdb_normal as normal;

/// Re-export of the storage substrate (`swdb-store`).
pub use swdb_store as store;

/// Re-export of the incremental RDFS inference engine (`swdb-reason`).
pub use swdb_reason as reason;

/// Re-export of the tableau query language (`swdb-query`).
pub use swdb_query as query;

/// Re-export of query containment (`swdb-containment`).
pub use swdb_containment as containment;

/// Re-export of the crash-safe durability layer (`swdb-durable`):
/// snapshots, the write-ahead log, and the fault-injection IO shim the
/// crash-point matrix tests drive.
pub use swdb_durable as durable;

#[cfg(test)]
mod integration_smoke {
    use super::*;
    use swdb_model::{graph, rdfs};

    #[test]
    fn the_whole_stack_is_reachable_from_the_facade() {
        let g = graph([("ex:A", rdfs::SC, "ex:B"), ("_:x", rdfs::TYPE, "ex:A")]);
        // model
        assert_eq!(g.len(), 2);
        // entailment
        assert!(entailment::entails(
            &g,
            &graph([("_:x", rdfs::TYPE, "ex:B")])
        ));
        // normal
        assert!(normal::is_lean(&g));
        // store
        let text = store::serialize(&g);
        assert_eq!(store::parse(&text).unwrap(), g);
        // hom
        assert!(hom::exists_map(&graph([("_:y", rdfs::TYPE, "ex:A")]), &g));
        // query + facade
        let mut db = SemanticWebDatabase::from_graph(g);
        let q = query::query([("?X", rdfs::TYPE, "ex:B")], [("?X", rdfs::TYPE, "ex:B")]);
        assert_eq!(db.answer_union(&q).len(), 1);
    }
}
