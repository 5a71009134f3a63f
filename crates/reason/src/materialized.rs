//! A [`TripleStore`] bundled with its incrementally maintained RDFS closure.
//!
//! This is the type an application holds when it wants closure-aware reads
//! under mutation: `insert`/`remove` keep both the asserted store and the
//! materialized `RDFS-cl(G)` up to date (via [`DeltaClosure`]), and pattern
//! scans run over the closure's index. The asserted store and the closure
//! share one dictionary, so a term has the same id in both.

use swdb_model::{Graph, Iri, Term, Triple};
use swdb_store::{IdIndex, IdTriple, TripleStore};

use crate::delta::DeltaClosure;
use crate::rules::Vocabulary;

/// The id-level net effect of one signed batch on a [`MaterializedStore`]
/// ([`MaterializedStore::apply_ids`]): the base triples it asserted and
/// retracted, and the exact change of the maintained closure. This is what
/// downstream incremental structures (the facade's evaluation-index core
/// engine) consume to stay in step without recomputing anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClosureDelta {
    /// Ids of the base triples the batch newly asserted.
    pub asserted: Vec<IdTriple>,
    /// Ids of the base triples the batch retracted (they were asserted).
    pub retracted: Vec<IdTriple>,
    /// Triples that entered `RDFS-cl(G)`.
    pub added: Vec<IdTriple>,
    /// Triples that left `RDFS-cl(G)`.
    pub removed: Vec<IdTriple>,
}

/// A triple store whose RDFS closure is maintained incrementally.
#[derive(Clone, Debug)]
pub struct MaterializedStore {
    store: TripleStore,
    engine: DeltaClosure,
}

impl Default for MaterializedStore {
    fn default() -> Self {
        MaterializedStore::new()
    }
}

impl MaterializedStore {
    /// Creates an empty store; its closure is the five rule-(9) axioms.
    pub fn new() -> Self {
        MaterializedStore::restore(TripleStore::new(), IdIndex::new())
    }

    /// Creates an empty store whose closure maintenance may spawn up to
    /// `threads` workers per round (see [`MaterializedStore::set_threads`]).
    pub fn with_threads(threads: usize) -> Self {
        let mut materialized = MaterializedStore::new();
        materialized.set_threads(threads);
        materialized
    }

    /// Sets the worker ceiling for closure propagation and DRed cascades:
    /// a large round of `swdb_reason::parallel` spawns at most this many
    /// workers, `1` (the default) never spawns. The closure, the reported
    /// [`ClosureDelta`]s and the counters are the same at every value —
    /// the differential tests sweep thread counts to pin this.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// The configured worker ceiling.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Attaches a metrics handle to the closure engine (see
    /// [`DeltaClosure::set_metrics`]). The handle is shared: a caller that
    /// keeps a clone observes rounds, per-rule firings, frontier sizes and
    /// closure growth as mutations run. The default handle is `Off`, which
    /// reduces every instrumentation site to a relaxed flag load.
    pub fn set_metrics(&mut self, metrics: swdb_obs::Metrics) {
        self.engine.set_metrics(metrics);
    }

    /// The metrics handle observing closure maintenance.
    pub fn metrics(&self) -> &swdb_obs::Metrics {
        self.engine.metrics()
    }

    /// Builds a store (and closure) from a graph, using the batched
    /// propagation path.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut materialized = MaterializedStore::new();
        materialized.insert_graph(graph);
        materialized
    }

    /// Rebuilds a store from durability-snapshot parts the caller built: the
    /// asserted store (its dictionary re-interned **in id order**, which
    /// reproduces the identical ids — the dictionary is append-only and
    /// never recycles) and the maintained closure's index, adopted verbatim
    /// via [`DeltaClosure::adopt_closure`] — **no closure propagation
    /// runs**. The parts are independent, so a caller may build them
    /// concurrently. The caller (the durability layer) is responsible for
    /// them being a consistent checksummed unit.
    pub fn restore(mut store: TripleStore, closure: IdIndex) -> Self {
        // The five vocabulary terms are interned here first, by `new()`
        // too, so any snapshot's term list already contains them; interning
        // again just resolves their ids.
        let vocab = Vocabulary {
            sp: store.intern(&Term::iri(swdb_model::rdfs::SP)),
            sc: store.intern(&Term::iri(swdb_model::rdfs::SC)),
            ty: store.intern(&Term::iri(swdb_model::rdfs::TYPE)),
            dom: store.intern(&Term::iri(swdb_model::rdfs::DOM)),
            range: store.intern(&Term::iri(swdb_model::rdfs::RANGE)),
        };
        let mut engine = DeltaClosure::new(vocab);
        engine.adopt_closure(closure);
        MaterializedStore { store, engine }
    }

    /// The asserted triples.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Number of asserted triples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` if nothing is asserted (the closure still holds the
    /// axioms).
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of triples in the maintained closure.
    pub fn closure_len(&self) -> usize {
        self.engine.len()
    }

    /// Inserts a triple; returns `true` if it was newly asserted. The
    /// closure is extended by semi-naive delta propagation.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        !self.insert_with_delta(triple).asserted.is_empty()
    }

    /// Inserts a triple, reporting the closure delta: the id triples that
    /// entered `RDFS-cl(G)` as a consequence.
    pub fn insert_with_delta(&mut self, triple: &Triple) -> ClosureDelta {
        let ids = self.store.intern_triple(triple);
        self.apply_ids(&[ids], &[])
    }

    /// Inserts every triple of a graph, extending the closure in **one**
    /// frontier-batched semi-naive round (see
    /// [`DeltaClosure::insert_batch_logged`]): the whole batch is interned and
    /// asserted first, and a single propagation
    /// fixpoint runs with all fresh triples as the initial frontier — bulk
    /// loads amortize the per-delta index probes instead of paying a
    /// propagation round per triple. Returns the number of newly asserted
    /// triples.
    pub fn insert_graph(&mut self, graph: &Graph) -> usize {
        self.insert_graph_with_delta(graph).asserted.len()
    }

    /// Bulk insert ([`MaterializedStore::insert_graph`]) reporting the
    /// closure delta. `asserted` holds the newly asserted ids — a triple
    /// that was already derivable still counts there even though the
    /// closure did not grow by it.
    pub fn insert_graph_with_delta(&mut self, graph: &Graph) -> ClosureDelta {
        let ids = self.intern_graph(graph);
        self.apply_ids(&ids, &[])
    }

    /// The one write path: applies the signed batch `D' = (D − remove) ∪
    /// insert` of interned ids ([`MaterializedStore::intern_graph`]), whose
    /// sides are disjoint (a caller nets a run of operations, the last one
    /// on a triple winning), and reports its net [`ClosureDelta`]. One DRed
    /// run over what `remove` actually retracted
    /// ([`DeltaClosure::delete_logged`]), then one semi-naive propagation of
    /// `insert` ([`DeltaClosure::insert_batch_logged`]); a triple the DRed
    /// run took out and the propagation brought back is in `cl(D)` and
    /// `cl(D')` alike, so neither `added` nor `removed` reports it.
    pub fn apply_ids(&mut self, insert: &[IdTriple], remove: &[IdTriple]) -> ClosureDelta {
        debug_assert!(remove.iter().all(|t| !insert.contains(t)));
        let mut delta = ClosureDelta {
            retracted: self.store.remove_id_triples(remove),
            ..ClosureDelta::default()
        };
        (self.engine).delete_logged(&delta.retracted, &self.store, &mut delta.removed);
        delta.asserted = self.store.insert_id_triples(insert);
        if !insert.is_empty() {
            let dictionary = self.store.dictionary();
            (self.engine).insert_batch_logged(&delta.asserted, dictionary, &mut delta.added);
        }
        // `removed` is in `(s, p, o)` order; a triple on both sides is on neither.
        let both = |t: &IdTriple| delta.removed.binary_search(t).is_ok();
        let mut back: Vec<IdTriple> = delta.added.iter().copied().filter(both).collect();
        back.sort_unstable();
        delta.added.retain(|t| back.binary_search(t).is_err());
        delta.removed.retain(|t| back.binary_search(t).is_err());
        delta
    }

    /// Interns every term of a graph into the store's dictionary — nothing
    /// is asserted and no closure propagation runs — and returns the
    /// graph's id triples. The ids are durable (the dictionary is
    /// append-only, so interning perturbs no index), while the store and
    /// the maintained closure stay untouched. A premise fork interns into
    /// an extension of the dictionary
    /// ([`MaterializedStore::extend_dictionary`]).
    pub fn intern_graph(&mut self, graph: &Graph) -> Vec<IdTriple> {
        graph.iter().map(|t| self.store.intern_triple(t)).collect()
    }

    /// Moves the store onto an empty extension of its dictionary
    /// ([`TripleStore::extend_dictionary`]), so a fork's new terms never
    /// reach the dictionary it shared.
    pub fn extend_dictionary(&mut self) {
        self.store.extend_dictionary();
    }

    /// The closure growth of inserting the given id triples —
    /// `RDFS-cl(G ∪ Δ) − RDFS-cl(G)`, in the order the insert logs it — by
    /// the insert itself on a clone of the store, which shares this
    /// store's metrics handle and is then dropped.
    pub fn preview_insert(&self, ids: &[IdTriple]) -> Vec<IdTriple> {
        self.clone().apply_ids(ids, &[]).added
    }

    /// Removes a triple; returns `true` if it was asserted. The closure is
    /// maintained by DRed overdelete/rederive.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        !self.remove_with_delta(triple).retracted.is_empty()
    }

    /// Removes a triple, reporting the closure delta: the id triples that
    /// left `RDFS-cl(G)` for good (a retracted triple that is still
    /// derivable from the surviving assertions does not appear).
    pub fn remove_with_delta(&mut self, triple: &Triple) -> ClosureDelta {
        match self.store.resolve_ids(triple) {
            Some(ids) => self.apply_ids(&[], &[ids]),
            None => ClosureDelta::default(),
        }
    }

    /// Is the triple asserted?
    pub fn contains(&self, triple: &Triple) -> bool {
        self.store.contains(triple)
    }

    /// Is the triple in `RDFS-cl(G)`? Constant-time-ish: id resolution plus
    /// one indexed membership probe, never a closure computation.
    pub fn closure_contains(&self, triple: &Triple) -> bool {
        self.store
            .resolve_ids(triple)
            .is_some_and(|ids| self.engine.contains(ids))
    }

    /// Read access to the maintained closure's SPO/POS/OSP index. Together
    /// with `store().dictionary()` this is the substrate the id-space query
    /// engine (`swdb_query::exec`) executes premise-free queries against.
    pub fn closure_index(&self) -> &IdIndex {
        self.engine.index()
    }

    /// Scans the closure with a term-level pattern (each position optionally
    /// bound), materialising the matches.
    pub fn scan_closure(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        let Some(pattern) = self.store.resolve_pattern(subject, predicate, object) else {
            // A bound term that was never interned matches nothing.
            return Vec::new();
        };
        self.closure_index()
            .scan(pattern)
            .into_iter()
            .map(|ids| self.store.materialize(ids))
            .collect()
    }

    /// The asserted triples as a graph.
    pub fn to_graph(&self) -> Graph {
        self.store.to_graph()
    }

    /// The maintained closure as a graph — equal to
    /// `swdb_entailment::rdfs_closure` of the asserted graph (the property
    /// tests pin this down).
    pub fn closure_graph(&self) -> Graph {
        self.closure_index()
            .iter()
            .map(|ids| self.store.materialize(ids))
            .collect()
    }
}

impl PartialEq for MaterializedStore {
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store
    }
}

impl Eq for MaterializedStore {}

impl From<&Graph> for MaterializedStore {
    fn from(graph: &Graph) -> Self {
        MaterializedStore::from_graph(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_model::{graph, rdfs, triple};

    fn sample() -> MaterializedStore {
        MaterializedStore::from_graph(&graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:creates", rdfs::DOM, "ex:Artist"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
        ]))
    }

    #[test]
    fn closure_sees_inheritance_and_typing() {
        let m = sample();
        assert_eq!(m.len(), 3);
        assert!(m.closure_contains(&triple("ex:Picasso", "ex:creates", "ex:Guernica")));
        assert!(m.closure_contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Artist")));
        assert!(!m.contains(&triple("ex:Picasso", "ex:creates", "ex:Guernica")));
        assert!(m.closure_len() > m.len());
    }

    #[test]
    fn closure_scans_answer_patterns_over_inferred_triples() {
        let m = sample();
        let creators = m.scan_closure(None, Some(&Iri::new("ex:creates")), None);
        assert!(creators.contains(&triple("ex:Picasso", "ex:creates", "ex:Guernica")));
        let typed = m.scan_closure(
            Some(&Term::iri("ex:Picasso")),
            Some(&Iri::new(rdfs::TYPE)),
            None,
        );
        assert!(typed.contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Artist")));
        // A term never interned matches nothing.
        assert!(m
            .scan_closure(Some(&Term::iri("ex:nobody")), None, None)
            .is_empty());
    }

    #[test]
    fn mutation_keeps_closure_in_step() {
        let mut m = sample();
        assert!(!m.closure_contains(&triple("ex:Guernica", rdfs::TYPE, "ex:Artifact")));
        m.insert(&triple("ex:creates", rdfs::RANGE, "ex:Artifact"));
        assert!(m.closure_contains(&triple("ex:Guernica", rdfs::TYPE, "ex:Artifact")));
        m.remove(&triple("ex:creates", rdfs::RANGE, "ex:Artifact"));
        assert!(!m.closure_contains(&triple("ex:Guernica", rdfs::TYPE, "ex:Artifact")));
        // A full round trip leaves the closure equal to a fresh build.
        assert_eq!(m.closure_graph(), sample().closure_graph());
    }

    #[test]
    fn empty_store_closure_is_the_axioms() {
        let m = MaterializedStore::new();
        assert!(m.is_empty());
        assert_eq!(m.closure_len(), 5);
        assert!(m.closure_contains(&triple(rdfs::SP, rdfs::SP, rdfs::SP)));
        assert_eq!(m.closure_graph().len(), 5);
    }

    #[test]
    fn batched_insert_graph_matches_triple_by_triple_propagation() {
        let g = graph([
            ("ex:Painter", rdfs::SC, "ex:Artist"),
            ("ex:Artist", rdfs::SC, "ex:Person"),
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:creates", rdfs::DOM, "ex:Artist"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
            ("ex:Picasso", rdfs::TYPE, "ex:Painter"),
        ]);
        let mut batched = MaterializedStore::new();
        assert_eq!(batched.insert_graph(&g), g.len());
        let mut single = MaterializedStore::new();
        for t in g.iter() {
            single.insert(t);
        }
        assert_eq!(batched.closure_graph(), single.closure_graph());
        assert_eq!(batched.insert_graph(&g), 0, "re-inserting is a no-op");
    }

    #[test]
    fn insert_graph_counts_assertions_even_when_already_derived() {
        // (a, sp, c) is already in the closure via sp-transitivity, but
        // asserting it is still a base-store change and must be counted —
        // the same contract as `insert`'s return value.
        let mut m = MaterializedStore::from_graph(&graph([
            ("ex:a", rdfs::SP, "ex:b"),
            ("ex:b", rdfs::SP, "ex:c"),
        ]));
        let derived = triple("ex:a", rdfs::SP, "ex:c");
        assert!(m.closure_contains(&derived));
        assert!(!m.contains(&derived));
        assert_eq!(m.insert_graph(&graph([("ex:a", rdfs::SP, "ex:c")])), 1);
        assert!(m.contains(&derived));
    }

    #[test]
    fn closure_index_and_candidate_counts_expose_the_id_substrate() {
        let m = sample();
        let ty = m.store().id_of(&Term::iri(rdfs::TYPE)).unwrap();
        let pattern = (None, Some(ty), None);
        assert_eq!(
            m.closure_index().candidate_count(pattern),
            m.closure_index().scan(pattern).len()
        );
        assert_eq!(m.closure_index().len(), m.closure_len());
    }

    #[test]
    fn reported_deltas_replay_the_closure_exactly() {
        // A shadow set maintained purely from the reported deltas must
        // track the closure index through inserts, bulk loads and DRed
        // deletions — including the cascade cases.
        let mut m = MaterializedStore::new();
        let mut shadow: std::collections::BTreeSet<IdTriple> = m.closure_index().iter().collect();
        let apply = |m: &mut MaterializedStore,
                     shadow: &mut std::collections::BTreeSet<IdTriple>,
                     delta: ClosureDelta| {
            for t in delta.added {
                assert!(shadow.insert(t), "delta re-added a live triple");
            }
            for t in delta.removed {
                assert!(shadow.remove(&t), "delta removed a dead triple");
            }
            assert_eq!(
                m.closure_index()
                    .iter()
                    .collect::<std::collections::BTreeSet<_>>(),
                *shadow,
                "shadow diverged from the maintained closure"
            );
        };
        let d = m.insert_graph_with_delta(&graph([
            ("ex:p", rdfs::SP, rdfs::SC),
            ("ex:A", "ex:p", "ex:B"),
            ("ex:B", rdfs::SC, "ex:C"),
        ]));
        apply(&mut m, &mut shadow, d);
        let d = m.insert_with_delta(&triple("ex:x", rdfs::TYPE, "ex:A"));
        apply(&mut m, &mut shadow, d);
        // Re-inserting produces an empty delta.
        let d = m.insert_with_delta(&triple("ex:x", rdfs::TYPE, "ex:A"));
        assert_eq!(d, ClosureDelta::default());
        apply(&mut m, &mut shadow, d);
        // Retracting the re-routing edge unwinds the cascade.
        let d = m.remove_with_delta(&triple("ex:p", rdfs::SP, rdfs::SC));
        assert!(!d.removed.is_empty());
        apply(&mut m, &mut shadow, d);
        // Removing a triple that is still derivable reports no closure loss.
        let d = m.insert_with_delta(&triple("ex:A", rdfs::SC, "ex:A"));
        apply(&mut m, &mut shadow, d);
        let d = m.remove_with_delta(&triple("ex:A", rdfs::SC, "ex:A"));
        assert_eq!(d.retracted.len(), 1);
        assert!(
            d.removed.is_empty(),
            "reflexive sc survives via the closure rules"
        );
        apply(&mut m, &mut shadow, d);
    }

    #[test]
    fn preview_matches_the_committed_delta_and_leaves_the_closure_alone() {
        let mut m = sample();
        let premise = graph([
            ("ex:sculpts", rdfs::SP, "ex:creates"),
            ("ex:Rodin", "ex:sculpts", "ex:TheThinker"),
        ]);
        let before = m.closure_graph();
        let ids = m.intern_graph(&premise);
        assert_eq!(ids.len(), 2);
        let mut previewed = m.preview_insert(&ids);
        assert_eq!(
            m.closure_graph(),
            before,
            "neither interning nor previewing may touch the closure"
        );
        // The preview must equal the added-side of actually committing.
        let mut committed = m.insert_graph_with_delta(&premise).added;
        previewed.sort_unstable();
        committed.sort_unstable();
        assert_eq!(previewed, committed);
        // The preview saw the cross product: the premise's data triple
        // joined with the premise's own schema *and* the stored schema.
        assert!(m.closure_contains(&triple("ex:Rodin", "ex:creates", "ex:TheThinker")));
        assert!(m.closure_contains(&triple("ex:Rodin", rdfs::TYPE, "ex:Artist")));
    }

    #[test]
    fn preview_of_already_derived_triples_is_empty() {
        let mut m = sample();
        let ids = m.intern_graph(&graph([("ex:Picasso", "ex:creates", "ex:Guernica")]));
        assert!(
            m.preview_insert(&ids).is_empty(),
            "a triple already in the closure adds nothing"
        );
    }

    #[test]
    fn restore_reproduces_store_closure_and_ids_without_propagation() {
        let mut m = sample();
        m.insert(&triple("ex:a", "ex:p", "_:X"));
        let terms: Vec<Term> = m
            .store()
            .dictionary()
            .iter()
            .map(|(_, t)| t.clone())
            .collect();
        let base: Vec<IdTriple> = m.store().iter_ids().collect();
        let closure: Vec<IdTriple> = m.closure_index().iter().collect();
        let mut store = TripleStore::new();
        for term in &terms {
            store.intern(term);
        }
        store.insert_id_triples(&base);
        let restored = MaterializedStore::restore(store, closure.into_iter().collect());
        // Identical ids: the dictionary re-interns in id order.
        for (id, term) in m.store().dictionary().iter() {
            assert_eq!(restored.store().id_of(term), Some(id));
        }
        assert_eq!(restored.to_graph(), m.to_graph());
        let a: Vec<IdTriple> = m.closure_index().iter().collect();
        let b: Vec<IdTriple> = restored.closure_index().iter().collect();
        assert_eq!(a, b, "closure adopted bit-identically");
        // And the restored engine keeps maintaining increments correctly.
        let mut m2 = restored;
        let d = m2.insert_with_delta(&triple("ex:sculpts", rdfs::SP, "ex:creates"));
        assert!(!d.asserted.is_empty());
        let mut reference = sample();
        reference.insert(&triple("ex:a", "ex:p", "_:X"));
        reference.insert(&triple("ex:sculpts", rdfs::SP, "ex:creates"));
        assert_eq!(m2.closure_graph(), reference.closure_graph());
    }

    #[test]
    fn from_graph_round_trips_assertions() {
        let g = graph([("ex:a", "ex:p", "_:X"), ("_:X", "ex:q", "ex:b")]);
        let m = MaterializedStore::from_graph(&g);
        assert_eq!(m.to_graph(), g);
        assert_eq!(MaterializedStore::from(&g), m);
    }
}
