//! Term dictionary: interning of RDF terms into dense integer identifiers.
//!
//! Triple stores conventionally replace terms by small integers so that
//! triples become fixed-size tuples and indexes become cheap ordered sets.
//! The dictionary is append-only: identifiers are never recycled, so an id
//! remains valid for the lifetime of the dictionary even if every triple
//! mentioning it is deleted.
//!
//! An extension ([`Dictionary::extending`]) holds a query's own terms over
//! a shared dictionary, which it neither copies nor grows. A [`TermOrder`]
//! ranks ids by term, from first use until [`Dictionary::intern`] adds one.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use swdb_model::Term;

/// A dense integer identifier for an interned term.
pub type TermId = u32;

/// An append-only bidirectional mapping between [`Term`]s and [`TermId`]s.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    forward: BTreeMap<Term, TermId>,
    backward: Vec<Term>,
    /// One bit per id, set when the interned term is a blank node. Kept as a
    /// side bitset so blank/ground classification — the branch every
    /// id-space delta takes — is a word load, not a `Term` access.
    blank_bits: Vec<u64>,
    /// Set on an extension, whose three fields above stay empty: every
    /// lookup misses them and goes here, so a plain dictionary's lookups
    /// cost what they would without extensions.
    extension: Option<Box<Extension>>,
    /// Built by [`Dictionary::term_order`], reset by a growing `intern`.
    term_order: OnceLock<Arc<TermOrder>>,
}

/// A dictionary's ids in [`Term`] order ([`Dictionary::term_order`]).
#[derive(Debug)]
pub struct TermOrder {
    /// `rank[id]`: the index of `id` in `order`.
    pub rank: Vec<TermId>,
    /// The covered ids, sorted by term.
    pub order: Vec<TermId>,
}

/// The terms an extension holds over its shared base: local id `i` is id
/// `base.len() + i`.
#[derive(Clone, Debug)]
struct Extension {
    base: Arc<Dictionary>,
    terms: Dictionary,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// An empty extension of `base`: every id of `base` resolves as it
    /// does there, and a term `base` lacks is interned here, after the
    /// base's last id. Nothing is copied, and `base` never sees the new
    /// terms. One level only: it is meant for query-local terms over a
    /// dictionary that is itself no extension.
    pub fn extending(base: Arc<Dictionary>) -> Self {
        debug_assert!(base.extension.is_none(), "one level only");
        Dictionary {
            extension: Some(Box::new(Extension {
                base,
                terms: Dictionary::new(),
            })),
            ..Dictionary::default()
        }
    }

    /// Runs `f` on the extension, or gives the default on a plain
    /// dictionary: the path a lookup takes when the dictionary's own fields
    /// miss. Out of line, so a plain dictionary's lookups stay small.
    #[cold]
    #[inline(never)]
    fn extended<'a, T: Default>(&'a self, f: impl FnOnce(&'a Extension) -> T) -> T {
        self.extension.as_deref().map_or_else(T::default, f)
    }

    /// Interns a term, returning its identifier (allocating one if needed).
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(ext) = &mut self.extension {
            let id = ext.base.id_of(term);
            return id.unwrap_or_else(|| ext.base.len() as TermId + ext.terms.intern(term));
        }
        if let Some(&id) = self.forward.get(term) {
            return id;
        }
        let id = TermId::try_from(self.backward.len()).expect("dictionary overflow");
        self.term_order.take();
        self.forward.insert(term.clone(), id);
        self.backward.push(term.clone());
        if matches!(term, Term::Blank(_)) {
            let word = id as usize / 64;
            if word >= self.blank_bits.len() {
                self.blank_bits.resize(word + 1, 0);
            }
            self.blank_bits[word] |= 1 << (id % 64);
        }
        id
    }

    /// Returns `true` if the id was interned for a blank node. O(1) — a
    /// bitset probe, classified at intern time; never resolves the term.
    /// Unknown ids are reported as not blank.
    #[inline]
    pub fn is_blank(&self, id: TermId) -> bool {
        match self.blank_bits.get(id as usize / 64) {
            Some(word) => word >> (id % 64) & 1 == 1,
            None => self.extended(|ext| match id.checked_sub(ext.base.len() as TermId) {
                Some(local) => ext.terms.is_blank(local),
                None => ext.base.is_blank(id),
            }),
        }
    }

    /// Looks up an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        match self.forward.get(term) {
            Some(&id) => Some(id),
            None => self.extended(|ext| {
                let offset = ext.base.len() as TermId;
                ext.base
                    .id_of(term)
                    .or_else(|| Some(ext.terms.id_of(term)? + offset))
            }),
        }
    }

    /// Resolves an identifier back to its term.
    #[inline]
    pub fn term_of(&self, id: TermId) -> Option<&Term> {
        match self.backward.get(id as usize) {
            // A base lacks exactly the ids at or past its length.
            None => self.extended(|ext| {
                let offset = ext.base.len() as TermId;
                ext.base
                    .term_of(id)
                    .or_else(|| ext.terms.term_of(id - offset))
            }),
            found => found,
        }
    }

    /// The term-order table: built on first use by an O(terms) walk of the
    /// forward map, shared by clones; an extension gets its base's.
    pub fn term_order(&self) -> &Arc<TermOrder> {
        if let Some(ext) = &self.extension {
            return ext.base.term_order();
        }
        self.term_order.get_or_init(|| {
            let order: Vec<TermId> = self.forward.values().copied().collect();
            let mut rank = vec![0; order.len()];
            for (r, &id) in order.iter().enumerate() {
                rank[id as usize] = r as TermId;
            }
            Arc::new(TermOrder { rank, order })
        })
    }

    /// Number of interned terms (an extension counts its base's).
    pub fn len(&self) -> usize {
        match &self.extension {
            Some(ext) => ext.base.len() + ext.terms.len(),
            None => self.backward.len(),
        }
    }

    /// Returns `true` if no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all interned terms with their identifiers, in id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        (0..self.len() as TermId).map(|id| (id, self.term_of(id).expect("ids below len resolve")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("ex:a"));
        let b = d.intern(&Term::iri("ex:b"));
        assert_ne!(a, b);
        assert_eq!(d.intern(&Term::iri("ex:a")), a);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn lookup_round_trips() {
        let mut d = Dictionary::new();
        let x = Term::blank("X");
        let id = d.intern(&x);
        assert_eq!(d.id_of(&x), Some(id));
        assert_eq!(d.term_of(id), Some(&x));
        assert_eq!(d.id_of(&Term::iri("ex:missing")), None);
        assert_eq!(d.term_of(999), None);
    }

    #[test]
    fn iris_and_blanks_with_same_label_are_distinct() {
        let mut d = Dictionary::new();
        let iri = d.intern(&Term::iri("X"));
        let blank = d.intern(&Term::blank("X"));
        assert_ne!(iri, blank);
        assert!(!d.is_blank(iri));
        assert!(d.is_blank(blank));
    }

    #[test]
    fn blank_classification_tracks_interning_across_word_boundaries() {
        let mut d = Dictionary::new();
        let mut blanks = Vec::new();
        let mut iris = Vec::new();
        // Enough terms to span several 64-bit words of the bitset.
        for i in 0..200 {
            if i % 3 == 0 {
                blanks.push(d.intern(&Term::blank(format!("B{i}"))));
            } else {
                iris.push(d.intern(&Term::iri(format!("ex:n{i}"))));
            }
        }
        assert!(blanks.iter().all(|&id| d.is_blank(id)));
        assert!(iris.iter().all(|&id| !d.is_blank(id)));
        // Unknown ids are not blank.
        assert!(!d.is_blank(9999));
    }

    #[test]
    fn iteration_covers_all_terms() {
        let mut d = Dictionary::new();
        for i in 0..5 {
            d.intern(&Term::iri(format!("ex:n{i}")));
        }
        assert_eq!(d.iter().count(), 5);
        assert!(!d.is_empty());
    }

    #[test]
    fn an_extension_resolves_the_base_and_appends_after_it() {
        let mut base = Dictionary::new();
        let a = base.intern(&Term::iri("ex:a"));
        let x = base.intern(&Term::blank("X"));
        // Past a bitset word, so local blank bits start from their own 0.
        for i in 0..70 {
            base.intern(&Term::iri(format!("ex:n{i}")));
        }
        let base = Arc::new(base);
        let mut ext = Dictionary::extending(Arc::clone(&base));
        assert_eq!(
            ext.intern(&Term::iri("ex:a")),
            a,
            "a base term keeps its id"
        );
        assert!(ext.is_blank(x) && !ext.is_blank(a));
        let y = ext.intern(&Term::blank("Y"));
        let b = ext.intern(&Term::iri("ex:b"));
        assert_eq!((y as usize, b as usize), (base.len(), base.len() + 1));
        assert!(ext.is_blank(y) && !ext.is_blank(b));
        assert_eq!(ext.term_of(y), Some(&Term::blank("Y")));
        assert_eq!(ext.term_of(x), Some(&Term::blank("X")));
        assert_eq!(ext.id_of(&Term::iri("ex:b")), Some(b));
        assert_eq!(ext.len(), base.len() + 2);
        let ids: Vec<TermId> = ext.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0..ext.len() as TermId).collect::<Vec<_>>());
        // The base saw nothing.
        assert_eq!(base.id_of(&Term::iri("ex:b")), None);
        assert_eq!(base.term_of(b), None);
        assert_eq!(base.len(), 72);
    }

    /// `order` against a comparison sort of the ids by term.
    fn assert_in_term_order(d: &Dictionary) {
        let mut sorted: Vec<TermId> = (0..d.len() as TermId).collect();
        sorted.sort_by_key(|&id| d.term_of(id));
        let table = d.term_order();
        assert_eq!(table.order, sorted);
        for (r, &id) in sorted.iter().enumerate() {
            assert_eq!(table.rank[id as usize], r as TermId);
        }
    }

    #[test]
    fn the_term_order_table_sorts_ids_by_term_and_follows_growth() {
        let mut d = Dictionary::new();
        for term in [Term::blank("A"), Term::iri("ex:n5"), Term::iri("ex:n1")] {
            d.intern(&term);
        }
        assert_in_term_order(&d);
        // IRIs before blanks, whatever the interning order.
        assert_eq!(d.term_order().order, [2, 1, 0]);
        let built = Arc::clone(d.term_order());
        assert!(
            Arc::ptr_eq(d.clone().term_order(), &built),
            "a clone shares it"
        );
        d.intern(&Term::iri("ex:n5"));
        assert!(Arc::ptr_eq(d.term_order(), &built), "a known term keeps it");
        for term in [Term::iri("ex:a0"), Term::blank("0"), Term::iri("ex:n3")] {
            d.intern(&term);
        }
        assert_in_term_order(&d);
        // An extension answers with its base's table.
        let base = Arc::new(d);
        let mut ext = Dictionary::extending(Arc::clone(&base));
        ext.intern(&Term::iri("ex:b"));
        assert!(Arc::ptr_eq(ext.term_order(), base.term_order()));
    }
}
