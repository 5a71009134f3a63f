//! The publication layer: immutable, epoch-stamped MVCC snapshots of the
//! database's read state, atomically swapped by the writer and pinned by
//! any number of reader threads.
//!
//! The facade ([`SemanticWebDatabase`]) is a single-owner value, so shared
//! serving would force readers and writers through one lock. This module
//! splits the read side off: [`SemanticWebDatabase::publish`] wraps the
//! facade's committed state — one immutable `Arc` — in a
//! [`PublishedSnapshot`] and swaps it into a shared slot. A
//! [`SnapshotReader`] pins the current snapshot with one brief read-lock
//! acquisition (held only for the `Arc` clone — the
//! std-only equivalent of an arc-swap), after which the reader answers
//! queries with **no further coordination whatsoever**: a pinned snapshot
//! is immutable, so `answer`/`explain` on it can never block — or be
//! blocked by — `insert`/`remove` on the live database.
//!
//! Publication copies nothing: the snapshot shares the one `Arc<State>`
//! the facade committed, whose next commit forks a clone instead of
//! editing it. That fork copies only what the write touches: the indexes
//! share their chunks (see [`swdb_store::id_index`]); the dictionary is one
//! `Arc`, copied only when a new term is interned while a snapshot holds
//! it; the core engine's components are `Arc`s too. Terms are decoded once
//! per answer triple, when a reader renders an [`AnswerSet`] from its pin
//! (or asks for the answer as a [`Graph`]).
//!
//! A snapshot answers **every** query. A premise is hypothetical and scoped
//! to one query (Def. 4.3): it is answered against `nf(D + P)` for the `D`
//! of the pin by the write path's insert on a fork of the pinned state —
//! a clone with metrics off whose new terms go into an extension of the
//! pinned dictionary ([`Dictionary::extending`]) — and the query joins the
//! fork's evaluation index. Nothing the writer owns is touched, the live
//! dictionary included. The forks of the last `PREMISE_CACHE_CAPACITY` (8)
//! premises are kept on the snapshot, which is immutable, so they never
//! need invalidating.
//!
//! The degraded flags ride the snapshot: `non_minimal` (core budget
//! exhausted in the published state — answers sound and complete, possibly
//! redundant) and the durability layer's fail-stop record, so a reader
//! reports the status of the state it is *actually answering from*, not the
//! writer's current state — without ever taking the writer's lock.
//!
//! [`SemanticWebDatabase`]: crate::SemanticWebDatabase
//! [`SemanticWebDatabase::publish`]: crate::SemanticWebDatabase::publish

use std::sync::{Arc, Mutex, RwLock};

use swdb_model::Graph;
use swdb_normal::IdCoreEngine;
use swdb_obs::{Counter, Hist, Metrics};
use swdb_query::{AnswerSet, Explain, Mechanism, PlanCache, Query, QueryEngine, Semantics};
use swdb_store::{Dictionary, IdIndex};

use crate::database::{rename_premise_apart, EntailmentRegime, State};

/// How many distinct premises keep their forks on one snapshot.
const PREMISE_CACHE_CAPACITY: usize = 8;

/// The error of a snapshot read. It has no value: a snapshot answers every
/// query. The `Result` the read methods return is kept for their callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotQueryError {}

/// What the reads of one immutable `State` keep between calls: compiled
/// plans and the last premises' forks. The state never changes, so nothing
/// invalidates an entry; the facade drops its own when it commits.
#[derive(Debug, Default)]
pub(crate) struct Reads {
    plans: PlanCache,
    /// The forks of the premises asked last, oldest first.
    premises: Mutex<Vec<(Graph, Arc<State>)>>,
}

impl Reads {
    /// Runs `run` on the [`QueryEngine`] over the state the query reads —
    /// `state` for a premise-free query, the fork the premise was written
    /// into otherwise — with that state's index, dictionary and flag.
    pub(crate) fn run<R>(
        &self,
        state: &State,
        metrics: &Metrics,
        query: &Query,
        run: impl FnOnce(QueryEngine<'_>) -> R,
    ) -> R {
        let fork;
        let (mechanism, read) = if query.is_premise_free() {
            (Mechanism::PremiseFree, state)
        } else {
            fork = self.premise_fork(state, metrics, query.premise());
            (Mechanism::Overlay, &*fork)
        };
        let evaluation = read.evaluation();
        run(QueryEngine {
            dictionary: read.reasoner.store().dictionary(),
            target: evaluation.index(),
            cache: &self.plans,
            metrics,
            mechanism,
            non_minimal: evaluation.is_degraded(),
        })
    }

    /// The fork `premise` is written into, from the cache or built now: a
    /// clone of `state` with metrics off, whose store interns into an
    /// extension of `state`'s dictionary, and into which the premise — its
    /// blanks renamed apart from the asserted triples' first, the id-space
    /// counterpart of the capture-avoiding `Graph::merge` — is inserted by
    /// the write path's own insert ([`State::apply`]).
    fn premise_fork(&self, state: &State, metrics: &Metrics, premise: &Graph) -> Arc<State> {
        let cached = |premises: &[(Graph, Arc<State>)]| {
            let (_, fork) = premises.iter().find(|(g, _)| g == premise)?;
            Some(Arc::clone(fork))
        };
        if let Some(fork) = cached(&self.premises.lock().unwrap_or_else(|e| e.into_inner())) {
            metrics.count(Counter::OverlayCacheHits, 1);
            return fork;
        }
        metrics.count(Counter::OverlayCacheMisses, 1);
        metrics.count(Counter::ReasonPreviews, 1);
        let _span = metrics.span(Hist::SpanOverlayBuildNs);
        let renamed = rename_premise_apart(premise, &state.reasoner);
        let mut fork = state.clone();
        let off = metrics.silenced();
        fork.reasoner.set_metrics(off.clone());
        if let Some(engine) = fork.evaluation.as_mut() {
            engine.set_metrics(off);
        }
        fork.reasoner.extend_dictionary();
        let ids = fork.reasoner.intern_graph(&renamed);
        fork.apply(&ids, &[]);
        let fork = Arc::new(fork);
        let mut premises = self.premises.lock().unwrap_or_else(|e| e.into_inner());
        if premises.len() >= PREMISE_CACHE_CAPACITY {
            premises.remove(0);
            metrics.count(Counter::OverlayCacheEvictions, 1);
        }
        premises.push((premise.clone(), Arc::clone(&fork)));
        fork
    }
}

/// An immutable, epoch-stamped snapshot: one committed state of the
/// database — everything a reader needs to answer any query — plus the
/// durability record in force when it was published. Values are created
/// by [`SemanticWebDatabase::publish`](crate::SemanticWebDatabase::publish)
/// and shared as `Arc<PublishedSnapshot>`; every method takes `&self`, so
/// any number of threads query one snapshot concurrently.
#[derive(Debug)]
pub struct PublishedSnapshot {
    /// Publication sequence number: 0 is the empty placeholder a fresh
    /// slot holds, real publications count from 1.
    epoch: u64,
    /// Why the durability layer had detached by publication time, if it had.
    durability_error: Option<String>,
    /// The state published: shared with the facade until its next commit.
    state: Arc<State>,
    metrics: Metrics,
    /// The snapshot's own plans and premise forks.
    reads: Reads,
}

impl PublishedSnapshot {
    /// Wraps a committed state (crate-internal: the facade publishes every
    /// snapshot). Its evaluation engine must be built.
    pub(crate) fn new(
        epoch: u64,
        state: Arc<State>,
        durability_error: Option<String>,
        metrics: Metrics,
    ) -> Self {
        PublishedSnapshot {
            epoch,
            durability_error,
            state,
            metrics,
            reads: Reads::default(),
        }
    }

    /// The publication epoch (monotonically increasing; 0 only on the
    /// pre-publication placeholder).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The entailment regime the snapshot was published under.
    pub fn regime(&self) -> EntailmentRegime {
        self.state.regime
    }

    /// Asserted triples in the database at publication time.
    pub fn asserted_triples(&self) -> usize {
        self.state.reasoner.len()
    }

    /// Triples in the snapshot's evaluation index (`nf(D)` under RDFS,
    /// `core(D)` under simple entailment, as of publication).
    pub fn evaluation_triples(&self) -> usize {
        self.state.evaluation().len()
    }

    /// `true` when a core-budget exhaustion had left the published
    /// evaluation index a sound but possibly non-minimal superset of the
    /// true core at publication time. Answers from this snapshot are still
    /// sound and complete; they may mention redundant blanks. A premise
    /// answer carries its own flag (the fork's), on its [`AnswerSet`].
    pub fn non_minimal(&self) -> bool {
        self.state.evaluation().is_degraded()
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
        self.state.reasoner.store().dictionary()
    }

    /// The snapshot's evaluation index: a view of its closure (of `D` under
    /// simple entailment) that hides the blank triples the core folded away.
    pub fn index(&self) -> &IdIndex {
        self.state.evaluation().index()
    }

    /// Runs `run` on the [`QueryEngine`] the dispatch picks for `query`.
    fn read<R>(&self, query: &Query, run: impl FnOnce(QueryEngine<'_>) -> R) -> R {
        self.reads.run(&self.state, &self.metrics, query, run)
    }

    /// Answers a query against this snapshot — entirely in id space, with
    /// no access to (and therefore no contention on) the live database.
    pub fn answer(&self, query: &Query, semantics: Semantics) -> Result<Graph, SnapshotQueryError> {
        Ok(self
            .answer_set(query, semantics)?
            .into_graph(self.dictionary()))
    }

    /// [`PublishedSnapshot::answer`] as the engine's [`AnswerSet`],
    /// rendered against [`PublishedSnapshot::dictionary`]; no answer
    /// [`Graph`] is built. A premise answer comes in its owned form: its
    /// ids would name terms of the premise's own dictionary extension.
    pub fn answer_set(
        &self,
        query: &Query,
        semantics: Semantics,
    ) -> Result<AnswerSet, SnapshotQueryError> {
        Ok(self.read(query, |engine| {
            let answer = engine.answer_set(query, semantics);
            if engine.mechanism == Mechanism::Overlay {
                answer.into_owned(engine.dictionary)
            } else {
                answer
            }
        }))
    }

    /// [`PublishedSnapshot::answer`] plus the `non_minimal` flag of the
    /// index it was answered from — the analogue of
    /// [`SemanticWebDatabase::answer_with_status`](crate::SemanticWebDatabase::answer_with_status),
    /// except the flag describes the substrate actually answered from (this
    /// snapshot, or the fork its premise was committed into), not the live
    /// database's current state.
    pub fn answer_with_status(
        &self,
        query: &Query,
        semantics: Semantics,
    ) -> Result<(Graph, bool), SnapshotQueryError> {
        let answer = self.answer_set(query, semantics)?;
        let non_minimal = answer.non_minimal;
        Ok((answer.into_graph(self.dictionary()), non_minimal))
    }

    /// The pre-answer (list of single answers) over this snapshot.
    pub fn pre_answers(&self, query: &Query) -> Result<Vec<Graph>, SnapshotQueryError> {
        Ok(self.read(query, |engine| engine.pre_answers(query)))
    }

    /// `true` if the query has no answer over this snapshot (early-exits on
    /// the first witness).
    pub fn answer_is_empty(&self, query: &Query) -> Result<bool, SnapshotQueryError> {
        Ok(self.read(query, |engine| engine.answer_is_empty(query)))
    }

    /// Explains how this snapshot executes the query (mechanism, compiled
    /// patterns, executed join order, probe/binding/answer counts — the
    /// same contract as
    /// [`SemanticWebDatabase::explain`](crate::SemanticWebDatabase::explain)),
    /// with `non_minimal` reporting the flag of the index answered from.
    pub fn explain(
        &self,
        query: &Query,
        semantics: Semantics,
    ) -> Result<Explain, SnapshotQueryError> {
        Ok(self.read(query, |engine| engine.explain(query, semantics)))
    }
}

/// The shared slot a database publishes into: one `RwLock` around the
/// current `Arc`. The write lock is held only for the pointer swap and the
/// read lock only for the `Arc` clone — neither section ever computes, nor
/// frees: the replaced snapshot is handed back and dropped after the guard
/// is released — so this is the std-only stand-in for an atomic arc-swap:
/// readers pin in O(1) and then run entirely on their pinned value.
#[derive(Debug)]
pub(crate) struct PublishSlot {
    current: RwLock<Arc<PublishedSnapshot>>,
}

impl PublishSlot {
    /// A fresh slot holding the empty epoch-0 placeholder.
    pub(crate) fn empty(metrics: Metrics) -> Self {
        let state = State {
            evaluation: Some(IdCoreEngine::new()),
            ..State::default()
        };
        let empty = PublishedSnapshot::new(0, Arc::new(state), None, metrics);
        PublishSlot {
            current: RwLock::new(Arc::new(empty)),
        }
    }

    /// Atomically replaces the current snapshot and returns the one it
    /// replaced, so the caller drops it — possibly the last reference, and
    /// then a free of everything the snapshot owned alone — outside the
    /// lock, where no `pin` waits for it. Lock poisoning is recovered from:
    /// a panic elsewhere never holds this lock across user code, so the
    /// stored value is always a fully published snapshot.
    pub(crate) fn swap(&self, next: Arc<PublishedSnapshot>) -> Arc<PublishedSnapshot> {
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        std::mem::replace(&mut *slot, next)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SemanticWebDatabase;
    use swdb_model::{graph, triple, Term};

    fn database() -> SemanticWebDatabase {
        SemanticWebDatabase::from_graph(graph([("ex:a", "ex:p", "ex:b"), ("ex:b", "ex:p", "_:X")]))
    }

    fn shared(snapshot: &PublishedSnapshot) -> &Arc<Dictionary> {
        snapshot.state.reasoner.store().shared_dictionary()
    }

    #[test]
    fn a_write_of_known_terms_shares_the_published_dictionary() {
        let mut db = database();
        let before = db.publish();
        assert!(db.insert(triple("ex:b", "ex:p", "ex:a")));
        assert!(db.remove(&triple("ex:a", "ex:p", "ex:b")));
        let after = db.publish();
        assert_eq!(after.epoch(), before.epoch() + 1);
        assert!(Arc::ptr_eq(shared(&before), shared(&after)));
        assert_ne!(after.index(), before.index(), "the index did move on");
    }

    #[test]
    fn a_growing_write_publishes_a_new_dictionary_and_old_pins_still_resolve() {
        let mut db = database();
        let before = db.publish();
        let had: Vec<(swdb_store::TermId, Term)> = before
            .dictionary()
            .iter()
            .map(|(id, term)| (id, term.clone()))
            .collect();
        let indexed = before.index().clone();
        db.insert(triple("ex:c", "ex:p", "ex:a"));
        let after = db.publish();
        assert!(!Arc::ptr_eq(shared(&before), shared(&after)));
        assert!(after.dictionary().id_of(&Term::iri("ex:c")).is_some());
        assert_eq!(before.dictionary().id_of(&Term::iri("ex:c")), None);
        for (id, term) in &had {
            assert_eq!(before.dictionary().term_of(*id), Some(term));
            assert_eq!(after.dictionary().term_of(*id), Some(term));
        }
        assert_eq!(*before.index(), indexed, "the pin is untouched");
        for (s, p, o) in before.index().iter() {
            assert!([s, p, o]
                .iter()
                .all(|&id| before.dictionary().term_of(id).is_some()));
        }
        // Sharing resumes from the new dictionary.
        db.remove(&triple("ex:c", "ex:p", "ex:a"));
        assert!(Arc::ptr_eq(shared(&after), shared(&db.publish())));
    }

    #[test]
    fn swap_hands_back_the_snapshot_it_replaced() {
        let mut db = database();
        let first = db.publish();
        let slot = PublishSlot::empty(db.metrics().clone());
        assert_eq!(slot.swap(Arc::clone(&first)).epoch(), 0);
        let second = db.publish();
        let replaced = slot.swap(Arc::clone(&second));
        assert!(Arc::ptr_eq(&replaced, &first));
        assert!(Arc::ptr_eq(&slot.pin(), &second));
    }
}
