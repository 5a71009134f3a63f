//! A dictionary-encoded triple store: the asserted set of a database.
//!
//! The store holds its id-triples in one ordering, `(s, p, o)`: an
//! [`IdSet`]. That is every read the asserted set serves — a membership
//! probe, and the set in `(s, p, o)` order (a snapshot's base run,
//! [`TripleStore::to_graph`], statistics). Joins run over an [`IdIndex`]
//! with all three orderings: the maintained closure of `swdb-reason`, which
//! holds the asserted set, or an index built from
//! [`TripleStore::iter_ids`].
//!
//! [`IdIndex`]: crate::IdIndex
//!
//! ## Mutability design
//!
//! The dictionary and the set move together under one `&mut self`: every
//! mutating operation (`insert`, `remove`) takes `&mut self`, every read
//! (`contains`, `iter_ids`, `id_of`) takes `&self`. An earlier revision
//! kept the dictionary behind an `RwLock` so reads could intern lazily, but
//! mixing interior mutability with `&mut` indexes made the ownership story
//! incoherent (and poisoned the `Send`/`Sync` expectations of callers);
//! reads never need to intern — a term that was never interned matches
//! nothing — so the lock bought nothing.
//!
//! A clone shares the dictionary `Arc` and the persistent set's chunks;
//! interning copies the dictionary only for a new term while one is shared.

use std::sync::Arc;

use swdb_model::{Graph, Iri, Term, Triple};

use crate::dictionary::{Dictionary, TermId};
use crate::id_index::IdSet;

/// A triple of interned identifiers.
pub type IdTriple = (TermId, TermId, TermId);

/// A pattern over interned identifiers: `None` is a wildcard.
pub type IdPattern = (Option<TermId>, Option<TermId>, Option<TermId>);

/// A dictionary-encoded triple store: an [`IdSet`] in `(s, p, o)` order
/// over the ids allocated by a [`Dictionary`].
#[derive(Clone, Debug, Default)]
pub struct TripleStore {
    dictionary: Arc<Dictionary>,
    set: IdSet,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TripleStore::default()
    }

    /// Builds a store from a graph.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut store = TripleStore::new();
        for t in graph.iter() {
            store.insert(t);
        }
        store
    }

    /// A store over a dictionary and a set built apart, as a snapshot
    /// restore builds them. The caller is responsible for every id in
    /// `set` being live in `dictionary`.
    pub fn from_parts(dictionary: Dictionary, set: IdSet) -> Self {
        TripleStore {
            dictionary: Arc::new(dictionary),
            set,
        }
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Returns `true` if the store has no triples.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Number of distinct terms interned.
    pub fn term_count(&self) -> usize {
        self.dictionary.len()
    }

    /// Read access to the term dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The term dictionary as the `Arc` this store and its clones share —
    /// the base a [`Dictionary::extending`] extension is made over.
    pub fn shared_dictionary(&self) -> &Arc<Dictionary> {
        &self.dictionary
    }

    /// Moves the store onto an empty extension of its dictionary: terms
    /// interned from now on go into the extension, and the dictionary it
    /// shared never sees them. A premise fork interns this way.
    pub fn extend_dictionary(&mut self) {
        self.dictionary = Arc::new(Dictionary::extending(Arc::clone(&self.dictionary)));
    }

    /// Interns a term, allocating an id if needed. Ids are append-only: the
    /// id stays valid even after every triple mentioning the term is removed.
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(dictionary) = Arc::get_mut(&mut self.dictionary) {
            return dictionary.intern(term);
        }
        match self.dictionary.id_of(term) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.dictionary).intern(term),
        }
    }

    /// Interns the three positions of a triple.
    pub fn intern_triple(&mut self, triple: &Triple) -> IdTriple {
        let s = self.intern(triple.subject());
        let p = self.intern(&Term::Iri(triple.predicate().clone()));
        let o = self.intern(triple.object());
        (s, p, o)
    }

    /// Inserts a triple; returns `true` if it was new.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        self.insert_with_ids(triple).1
    }

    /// Inserts a triple, returning its interned ids and whether it was new.
    pub fn insert_with_ids(&mut self, triple: &Triple) -> (IdTriple, bool) {
        let ids = self.intern_triple(triple);
        (ids, self.set.insert(ids))
    }

    /// Inserts already-interned triples as one batch; returns the ones that
    /// were new, in the order given (see [`IdSet::insert_all`]). The caller
    /// is responsible for the ids being live in the dictionary (ids
    /// obtained from [`TripleStore::intern`] always are).
    pub fn insert_id_triples(&mut self, ids: &[IdTriple]) -> Vec<IdTriple> {
        self.set.insert_all(ids)
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.remove_with_ids(triple).is_some()
    }

    /// Removes a triple, returning its interned ids if it was present.
    ///
    /// The dictionary entry survives removal (ids are never recycled), so
    /// the returned ids remain valid for delta propagation.
    pub fn remove_with_ids(&mut self, triple: &Triple) -> Option<IdTriple> {
        let ids = self.resolve_ids(triple)?;
        self.set.remove(ids).then_some(ids)
    }

    /// Removes already-interned triples as one batch; returns the ones that
    /// were present, in the order given (first occurrences) — the mirror of
    /// [`TripleStore::insert_id_triples`].
    pub fn remove_id_triples(&mut self, ids: &[IdTriple]) -> Vec<IdTriple> {
        ids.iter()
            .copied()
            .filter(|&t| self.set.remove(t))
            .collect()
    }

    /// Resolves a triple to ids without interning; `None` if any position
    /// was never interned (in which case the triple cannot be present).
    pub fn resolve_ids(&self, triple: &Triple) -> Option<IdTriple> {
        let s = self.dictionary.id_of(triple.subject())?;
        let p = self
            .dictionary
            .id_of(&Term::Iri(triple.predicate().clone()))?;
        let o = self.dictionary.id_of(triple.object())?;
        Some((s, p, o))
    }

    /// Returns `true` if the triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.resolve_ids(triple)
            .is_some_and(|ids| self.contains_id_triple(ids))
    }

    /// Returns `true` if the id-triple is present.
    pub fn contains_id_triple(&self, ids: IdTriple) -> bool {
        self.set.contains(ids)
    }

    /// Resolves the id of a term if it has been interned.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.dictionary.id_of(term)
    }

    /// Resolves a term from its id.
    pub fn term_of(&self, id: TermId) -> Option<Term> {
        self.dictionary.term_of(id).cloned()
    }

    /// Iterates over the stored id-triples in `(s, p, o)` order.
    pub fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.set.iter()
    }

    /// Resolves a term-level pattern to an id-pattern: `None` when a bound
    /// term was never interned (in which case nothing can match).
    pub fn resolve_pattern(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
    ) -> Option<IdPattern> {
        let to_id = |t: Option<&Term>| -> Option<Option<TermId>> {
            match t {
                None => Some(None),
                Some(term) => self.dictionary.id_of(term).map(Some),
            }
        };
        Some((
            to_id(subject)?,
            to_id(predicate.map(|p| Term::Iri(p.clone())).as_ref())?,
            to_id(object)?,
        ))
    }

    /// Resolves an id-triple back to terms.
    ///
    /// Panics on ids that were never interned; ids produced by this store
    /// are always resolvable.
    pub fn materialize(&self, (s, p, o): IdTriple) -> Triple {
        let subject = self
            .dictionary
            .term_of(s)
            .expect("dangling subject id")
            .clone();
        let predicate = self
            .dictionary
            .term_of(p)
            .and_then(|t| t.as_iri().cloned())
            .expect("dangling predicate id");
        let object = self
            .dictionary
            .term_of(o)
            .expect("dangling object id")
            .clone();
        Triple::new(subject, predicate, object)
    }

    /// Exports the stored triples as a [`Graph`].
    pub fn to_graph(&self) -> Graph {
        self.set.iter().map(|ids| self.materialize(ids)).collect()
    }
}

impl PartialEq for TripleStore {
    fn eq(&self, other: &Self) -> bool {
        self.to_graph() == other.to_graph()
    }
}

impl Eq for TripleStore {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::IdIndex;
    use swdb_model::{graph, triple};

    /// Answers a term-level pattern over an index built from the store's
    /// triples.
    pub(crate) fn scan(
        store: &TripleStore,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        let Some(pattern) = store.resolve_pattern(subject, predicate, object) else {
            return Vec::new();
        };
        let index: IdIndex = store.iter_ids().collect();
        let matches = index.scan(pattern).into_iter();
        matches.map(|ids| store.materialize(ids)).collect()
    }

    fn sample() -> TripleStore {
        TripleStore::from_graph(&graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "ex:c"),
            ("ex:b", "ex:q", "ex:c"),
            ("_:X", "ex:p", "ex:b"),
        ]))
    }

    #[test]
    fn insert_remove_contains() {
        let mut store = sample();
        assert_eq!(store.len(), 4);
        let t = triple("ex:new", "ex:p", "ex:b");
        assert!(!store.contains(&t));
        assert!(store.insert(&t));
        assert!(!store.insert(&t));
        assert!(store.contains(&t));
        assert!(store.remove(&t));
        assert!(!store.remove(&t));
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn id_level_insert_remove_round_trip() {
        let mut store = sample();
        let t = triple("ex:new", "ex:p", "ex:b");
        let (ids, added) = store.insert_with_ids(&t);
        assert!(added);
        assert!(store.contains_id_triple(ids));
        assert_eq!(store.remove_with_ids(&t), Some(ids));
        assert!(!store.contains_id_triple(ids));
        // Ids survive removal: reinserting by id alone resolves back.
        assert_eq!(store.insert_id_triples(&[ids]), [ids]);
        assert_eq!(store.materialize(ids), t);
    }

    #[test]
    fn batch_removal_returns_the_present_triples_once_in_order() {
        let mut store = sample();
        let present: Vec<IdTriple> = store.iter_ids().take(2).collect();
        let (absent, _) = store.insert_with_ids(&triple("ex:new", "ex:p", "ex:b"));
        store.remove_id_triples(&[absent]);
        let batch = [present[1], absent, present[0], present[1]];
        assert_eq!(store.remove_id_triples(&batch), [present[1], present[0]]);
        assert!(present.iter().all(|&t| !store.contains_id_triple(t)));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_of_unknown_terms_is_none() {
        let mut store = sample();
        assert_eq!(
            store.remove_with_ids(&triple("ex:ghost", "ex:p", "ex:b")),
            None
        );
    }

    #[test]
    fn round_trip_through_graph() {
        let g = graph([("ex:a", "ex:p", "_:X"), ("_:X", "ex:q", "ex:b")]);
        let store = TripleStore::from_graph(&g);
        assert_eq!(store.to_graph(), g);
    }

    #[test]
    fn scans_by_each_position() {
        let store = sample();
        assert_eq!(scan(&store, Some(&Term::iri("ex:a")), None, None).len(), 2);
        assert_eq!(scan(&store, None, Some(&Iri::new("ex:p")), None).len(), 3);
        assert_eq!(scan(&store, None, None, Some(&Term::iri("ex:b"))).len(), 2);
        assert_eq!(
            scan(
                &store,
                Some(&Term::iri("ex:a")),
                Some(&Iri::new("ex:p")),
                Some(&Term::iri("ex:b"))
            )
            .len(),
            1
        );
        assert_eq!(scan(&store, None, None, None).len(), 4);
    }

    #[test]
    fn scans_for_unknown_terms_return_nothing() {
        let store = sample();
        assert!(scan(&store, Some(&Term::iri("ex:unknown")), None, None).is_empty());
        assert!(scan(&store, None, Some(&Iri::new("ex:unknownpred")), None).is_empty());
    }

    #[test]
    fn removing_triples_keeps_dictionary_intact() {
        let mut store = sample();
        let t = triple("ex:a", "ex:p", "ex:b");
        let id = store.id_of(&Term::iri("ex:a")).unwrap();
        store.remove(&t);
        assert_eq!(store.id_of(&Term::iri("ex:a")), Some(id));
        assert_eq!(store.term_of(id), Some(Term::iri("ex:a")));
    }

    #[test]
    fn blank_nodes_are_stored_distinct_from_iris() {
        let store = sample();
        assert_eq!(scan(&store, Some(&Term::blank("X")), None, None).len(), 1);
        assert!(scan(&store, Some(&Term::iri("X")), None, None).is_empty());
    }

    #[test]
    fn clone_and_eq_compare_contents() {
        let store = sample();
        let cloned = store.clone();
        assert_eq!(store, cloned);
        let mut modified = store.clone();
        modified.insert(&triple("ex:z", "ex:p", "ex:z"));
        assert_ne!(store, modified);
    }

    #[test]
    fn iter_ids_is_in_spo_order_and_complete() {
        let store = sample();
        let ids: Vec<_> = store.iter_ids().collect();
        assert_eq!(ids.len(), 4);
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }
}
