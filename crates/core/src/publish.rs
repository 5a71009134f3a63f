//! The publication layer: immutable, epoch-stamped MVCC snapshots of the
//! evaluation state, atomically swapped by the writer and pinned by any
//! number of reader threads.
//!
//! The facade ([`SemanticWebDatabase`]) is a single-owner value: every read
//! path takes `&mut self` (the evaluation index builds lazily), so shared
//! serving would force readers and writers through one lock. This module
//! splits the read side off: [`SemanticWebDatabase::publish`] hands the
//! two structures query answering actually needs — the append-only
//! [`Dictionary`] and the evaluation [`IdIndex`] — to an immutable
//! [`PublishedSnapshot`] behind an `Arc`, and swaps it into a shared slot.
//! A [`SnapshotReader`] pins the current snapshot with one brief read-lock
//! acquisition (held only for the `Arc` clone — the std-only equivalent of
//! an arc-swap), after which the reader answers queries with **no further
//! coordination whatsoever**: a pinned snapshot is immutable, so
//! `answer`/`explain` on it can never block — or be blocked by —
//! `insert`/`remove` on the live database.
//!
//! Publication decodes nothing. The index is *shared*, not copied: its
//! clone copies the root fence arrays of a persistent layout and shares
//! every node and leaf with the writer, whose next edit copies only the
//! chunks it touches (see [`swdb_store::id_index`]). The dictionary is still
//! cloned per publish. The asserted count is the store's `len()`. Terms are decoded once per answer
//! triple, when a reader renders an [`AnswerSet`] from its pin (or asks for
//! the answer as a [`Graph`]).
//!
//! What a snapshot can serve is exactly what the dictionary + index pair
//! determines: premise-free queries (the hot path) and premise queries
//! eligible for the Proposition 5.9 expansion. Premise queries that need
//! the overlay mechanism require the mutable reasoner and return
//! [`SnapshotQueryError::NeedsWriter`] — the serving layer falls back to
//! the locked facade for those.
//!
//! The degraded flags ride the snapshot: `non_minimal` (core budget
//! exhausted at publication time — answers sound and complete, possibly
//! redundant) and the durability layer's fail-stop record, so a reader
//! reports the status of the state it is *actually answering from*, not the
//! writer's current state — without ever taking the writer's lock.
//!
//! [`SemanticWebDatabase`]: crate::SemanticWebDatabase
//! [`SemanticWebDatabase::publish`]: crate::SemanticWebDatabase::publish

use std::fmt;
use std::sync::{Arc, RwLock};

use swdb_model::Graph;
use swdb_obs::Metrics;
use swdb_query::{AnswerSet, Explain, Mechanism, Query, QueryEngine, Semantics};
use swdb_store::{Dictionary, IdIndex};

use crate::database::{mechanism, EntailmentRegime};

/// Why a query cannot be answered on a pinned snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotQueryError {
    /// The query's premise needs the overlay mechanism (closure preview +
    /// scoped core diff), which lives in the mutable facade — answer it
    /// through [`SemanticWebDatabase::answer`](crate::SemanticWebDatabase::answer)
    /// on the live database instead.
    NeedsWriter,
}

impl fmt::Display for SnapshotQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotQueryError::NeedsWriter => write!(
                f,
                "query needs the premise overlay, which only the live \
                 (writable) database can compute — not servable from an \
                 immutable snapshot"
            ),
        }
    }
}

impl std::error::Error for SnapshotQueryError {}

/// An immutable, epoch-stamped snapshot of the evaluation state: everything
/// a reader needs to answer premise-free and expansion-eligible queries,
/// plus the degraded flags in force when it was published. Values are
/// created by [`SemanticWebDatabase::publish`](crate::SemanticWebDatabase::publish)
/// and shared as `Arc<PublishedSnapshot>`; every method takes `&self`, so
/// any number of threads query one snapshot concurrently.
#[derive(Debug)]
pub struct PublishedSnapshot {
    /// Publication sequence number: 0 is the empty placeholder a fresh
    /// slot holds, real publications count from 1.
    epoch: u64,
    regime: EntailmentRegime,
    /// Asserted triples in the database at publication time.
    asserted: usize,
    non_minimal: bool,
    /// The evaluation engine held no blank triple at publication time (the
    /// dispatch's expansion gate).
    ground: bool,
    /// Why the durability layer had detached by publication time, if it had.
    durability_error: Option<String>,
    dictionary: Dictionary,
    index: IdIndex,
    metrics: Metrics,
    /// The snapshot's own compiled plan + expansion cache
    /// (`swdb_query::plan`). The snapshot is immutable, so — unlike the
    /// writer's cache — nothing ever invalidates it: every repeated query
    /// shape served from this snapshot reuses its plan for the snapshot's
    /// whole lifetime.
    plan_cache: swdb_query::PlanCache,
}

impl PublishedSnapshot {
    /// Assembles a snapshot (crate-internal: the facade's `publish` is the
    /// only constructor).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        epoch: u64,
        regime: EntailmentRegime,
        asserted: usize,
        non_minimal: bool,
        ground: bool,
        durability_error: Option<String>,
        dictionary: Dictionary,
        index: IdIndex,
        metrics: Metrics,
        plan_cache: swdb_query::PlanCache,
    ) -> Self {
        PublishedSnapshot {
            epoch,
            regime,
            asserted,
            non_minimal,
            ground,
            durability_error,
            dictionary,
            index,
            metrics,
            plan_cache,
        }
    }

    /// The publication epoch (monotonically increasing; 0 only on the
    /// pre-publication placeholder).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The entailment regime the snapshot was published under.
    pub fn regime(&self) -> EntailmentRegime {
        self.regime
    }

    /// Asserted triples in the database at publication time.
    pub fn asserted_triples(&self) -> usize {
        self.asserted
    }

    /// Triples in the snapshot's evaluation index (`nf(D)` under RDFS,
    /// `core(D)` under simple entailment, as of publication).
    pub fn evaluation_triples(&self) -> usize {
        self.index.len()
    }

    /// `true` when a core-budget exhaustion had left the published
    /// evaluation index a sound but possibly non-minimal superset of the
    /// true core at publication time. Answers from this snapshot are still
    /// sound and complete; they may mention redundant blanks.
    pub fn non_minimal(&self) -> bool {
        self.non_minimal
    }

    /// `true` when the database's durability layer had fail-stopped by
    /// publication time: reads (this snapshot) are fine, but writes on the
    /// live database are no longer durable.
    pub fn durability_detached(&self) -> bool {
        self.durability_error.is_some()
    }

    /// Why the durability layer had fail-stopped by publication time (the
    /// facade's `durability_error` record), `None` while it was attached.
    pub fn durability_error(&self) -> Option<&str> {
        self.durability_error.as_deref()
    }

    /// The dictionary the snapshot's index is encoded against.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The snapshot's evaluation index.
    pub fn index(&self) -> &IdIndex {
        &self.index
    }

    /// The [`QueryEngine`] over this snapshot for `query` — or
    /// [`SnapshotQueryError::NeedsWriter`] when the dispatch picks the
    /// overlay, which only the live database can build.
    fn engine(&self, query: &Query) -> Result<QueryEngine<'_>, SnapshotQueryError> {
        match mechanism(self.regime, query, self.ground) {
            Mechanism::Overlay => Err(SnapshotQueryError::NeedsWriter),
            mechanism => Ok(QueryEngine {
                dictionary: &self.dictionary,
                target: &self.index,
                cache: &self.plan_cache,
                metrics: &self.metrics,
                mechanism,
                non_minimal: self.non_minimal,
            }),
        }
    }

    /// Can [`PublishedSnapshot::answer`] serve this query? Exactly the
    /// premise-free and expansion-eligible mechanisms — both need only the
    /// dictionary + index pair the snapshot carries.
    pub fn supports(&self, query: &Query) -> bool {
        self.engine(query).is_ok()
    }

    /// Answers a query against this snapshot — entirely in id space, with
    /// no access to (and therefore no contention on) the live database.
    /// Returns [`SnapshotQueryError::NeedsWriter`] for overlay-mechanism
    /// premise queries (see [`PublishedSnapshot::supports`]).
    pub fn answer(&self, query: &Query, semantics: Semantics) -> Result<Graph, SnapshotQueryError> {
        Ok(self.engine(query)?.answer(query, semantics))
    }

    /// [`PublishedSnapshot::answer`] as the engine's [`AnswerSet`]: rendered
    /// against [`PublishedSnapshot::dictionary`], no answer [`Graph`] is built.
    pub fn answer_set(
        &self,
        query: &Query,
        semantics: Semantics,
    ) -> Result<AnswerSet, SnapshotQueryError> {
        Ok(self.engine(query)?.answer_set(query, semantics))
    }

    /// [`PublishedSnapshot::answer`] plus the snapshot's `non_minimal`
    /// flag — the analogue of
    /// [`SemanticWebDatabase::answer_with_status`](crate::SemanticWebDatabase::answer_with_status),
    /// except the flag describes the substrate actually answered from (this
    /// snapshot), not the live database's current state.
    pub fn answer_with_status(
        &self,
        query: &Query,
        semantics: Semantics,
    ) -> Result<(Graph, bool), SnapshotQueryError> {
        Ok((self.answer(query, semantics)?, self.non_minimal))
    }

    /// The pre-answer (list of single answers) over this snapshot.
    pub fn pre_answers(&self, query: &Query) -> Result<Vec<Graph>, SnapshotQueryError> {
        Ok(self.engine(query)?.pre_answers(query))
    }

    /// `true` if the query has no answer over this snapshot (early-exits on
    /// the first witness).
    pub fn answer_is_empty(&self, query: &Query) -> Result<bool, SnapshotQueryError> {
        Ok(self.engine(query)?.answer_is_empty(query))
    }

    /// Explains how this snapshot executes the query (mechanism, compiled
    /// patterns, executed join order, probe/binding/answer counts — the
    /// same contract as
    /// [`SemanticWebDatabase::explain`](crate::SemanticWebDatabase::explain)),
    /// with `non_minimal` reporting the snapshot's flag.
    pub fn explain(
        &self,
        query: &Query,
        semantics: Semantics,
    ) -> Result<Explain, SnapshotQueryError> {
        Ok(self.engine(query)?.explain(query, semantics))
    }
}

/// The shared slot a database publishes into: one `RwLock` around the
/// current `Arc`. The write lock is held only for the pointer swap and the
/// read lock only for the `Arc` clone — neither section ever computes — so
/// this is the std-only stand-in for an atomic arc-swap: readers pin in
/// O(1) and then run entirely on their pinned value.
#[derive(Debug)]
pub(crate) struct PublishSlot {
    current: RwLock<Arc<PublishedSnapshot>>,
}

impl PublishSlot {
    /// A fresh slot holding the empty epoch-0 placeholder.
    pub(crate) fn empty(metrics: Metrics) -> Self {
        PublishSlot {
            current: RwLock::new(Arc::new(PublishedSnapshot::new(
                0,
                EntailmentRegime::default(),
                0,
                false,
                true,
                None,
                Dictionary::default(),
                IdIndex::new(),
                metrics,
                swdb_query::PlanCache::new(true),
            ))),
        }
    }

    /// Atomically replaces the current snapshot. Lock poisoning is
    /// recovered from: a panic elsewhere never holds this lock across
    /// user code, so the stored value is always a fully published snapshot.
    pub(crate) fn swap(&self, next: Arc<PublishedSnapshot>) {
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        *slot = next;
    }

    /// Clones out the current snapshot.
    pub(crate) fn pin(&self) -> Arc<PublishedSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A clonable, `Send + Sync` reader handle onto a database's publication
/// slot, detached from the facade's `&mut` discipline: hand one to each
/// serving thread, [`SnapshotReader::pin`] the current snapshot per
/// request, and answer on the pin. Created by
/// [`SemanticWebDatabase::reader`](crate::SemanticWebDatabase::reader).
#[derive(Clone, Debug)]
pub struct SnapshotReader {
    slot: Arc<PublishSlot>,
}

impl SnapshotReader {
    pub(crate) fn new(slot: Arc<PublishSlot>) -> Self {
        SnapshotReader { slot }
    }

    /// The latest published snapshot, as a plain `Arc` this thread now
    /// owns: everything after the pin is coordination-free, and the pinned
    /// value stays bit-identical no matter what the writer does.
    pub fn pin(&self) -> Arc<PublishedSnapshot> {
        self.slot.pin()
    }

    /// The current publication epoch (pins internally).
    pub fn epoch(&self) -> u64 {
        self.pin().epoch()
    }
}

// The publication layer's whole point is crossing threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PublishedSnapshot>();
    assert_send_sync::<SnapshotReader>();
};
