//! A three-way ordered index over id-triples.
//!
//! The core physical structure of the store layer: the same set of triples
//! held in SPO, POS and OSP order so that any pattern with a bound prefix is
//! a range scan. [`crate::TripleStore`] wraps one of these together with the
//! term dictionary; the incremental reasoner (`swdb-reason`) uses a second,
//! dictionary-less one to hold the maintained closure over the same ids.
//!
//! ## Layout
//!
//! Each ordering is a persistent two-level tree. The root is a *fence array*
//! (the first key under each child) over `Arc`'d nodes; each node is a fence
//! array over `Arc`'d leaves, and a leaf is a sorted `Vec` of about 64
//! keys (`LEAF`). A leaf or node splits when it grows past twice its build size and is
//! merged into a neighbour when it shrinks below a quarter of it, so every
//! range is a few contiguous slices:
//!
//! * a point probe is one binary search per level;
//! * a scan walks leaf slices in key order;
//! * a range count binary-searches both ends and sums the lengths of the
//!   nodes and leaves between them — O(log n + leaves), never a walk over
//!   the matches.
//!
//! Cloning an index copies the three root fence arrays and bumps reference
//! counts; nothing below the roots is copied. A write unshares only the path
//! it touches (`Arc::make_mut`): after a clone, inserting or removing one
//! triple copies one node and one leaf per ordering, or the few siblings a
//! split or merge involves. That is what lets a published snapshot *share*
//! the writer's index instead of copying it. Batches go through
//! [`IdIndex::insert_all`] and [`IdIndex::from_sorted`], which merge sorted
//! runs into the leaves they land in instead of shifting a leaf per triple.

use std::fmt;
use std::sync::Arc;

use crate::dictionary::TermId;
use crate::triple_store::{IdPattern, IdTriple};

/// Triples a leaf is built with.
const LEAF: usize = 64;
/// Leaves a node is built with.
const NODE: usize = 64;

/// A key of one ordering: an id-triple with its positions permuted so the
/// ordering's prefix comes first.
type Key = IdTriple;

/// A key as one integer in the same order, so a binary search compares
/// without branching on each position.
fn packed(&(a, b, c): &Key) -> u128 {
    (u128::from(a) << 64) | (u128::from(b) << 32) | u128::from(c)
}

/// Holds on the keys before `bound`.
fn below(bound: Key) -> impl Fn(&Key) -> bool {
    let bound = packed(&bound);
    move |k| packed(k) < bound
}

/// Holds on the keys up to and including `bound`.
fn upto(bound: Key) -> impl Fn(&Key) -> bool {
    let bound = packed(&bound);
    move |k| packed(k) <= bound
}

/// One level of an ordering's tree: a leaf (`Vec<Key>`) or a node over
/// chunks of the level below. A chunk holds between `TARGET / 4` and
/// `2 * TARGET` entries unless it is the only chunk at its level.
trait Chunk: Clone {
    /// Entries a chunk is built with.
    const TARGET: usize;
    /// Triples under the chunk.
    fn len(&self) -> usize;
    /// Entries of the chunk: triples of a leaf, children of a node.
    fn width(&self) -> usize;
    /// The smallest key under the chunk (chunks are never empty).
    fn first(&self) -> Key;
    fn contains(&self, key: &Key) -> bool;
    /// Counts the keys in `lo..=hi`.
    fn count(&self, lo: &Key, hi: &Key) -> usize;
    /// Hands `visit` the runs of keys from the first key that fails
    /// `before` to the end; stops and returns `false` as soon as `visit`
    /// does.
    fn runs_from(
        &self,
        before: &impl Fn(&Key) -> bool,
        visit: &mut impl FnMut(&[Key]) -> bool,
    ) -> bool;
    /// Hands `visit` every run of keys (see [`Chunk::runs_from`]).
    fn runs(&self, visit: &mut impl FnMut(&[Key]) -> bool) -> bool;
    /// Inserts sorted keys, none of which is present.
    fn merge(&mut self, keys: &[Key]);
    /// Removes a key that is present.
    fn remove(&mut self, key: &Key);
    /// Cuts the chunk into `pieces` consecutive chunks of near-equal width.
    fn split(self, pieces: usize) -> Vec<Self>;
    /// Appends a chunk whose keys all follow this chunk's.
    fn append(&mut self, other: Self);
    /// Chunks of about `TARGET` entries holding sorted, distinct `keys`.
    fn build(keys: &[Key]) -> Vec<Self>;
}

/// Sizes of `pieces` near-equal consecutive parts of `total` entries.
fn even(total: usize, pieces: usize) -> impl Iterator<Item = usize> {
    (0..pieces).map(move |i| total * (i + 1) / pieces - total * i / pieces)
}

impl Chunk for Vec<Key> {
    const TARGET: usize = LEAF;

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn width(&self) -> usize {
        Vec::len(self)
    }

    fn first(&self) -> Key {
        self[0]
    }

    fn contains(&self, key: &Key) -> bool {
        self.get(self.partition_point(below(*key))) == Some(key)
    }

    fn count(&self, lo: &Key, hi: &Key) -> usize {
        self.partition_point(upto(*hi)) - self.partition_point(below(*lo))
    }

    fn runs_from(
        &self,
        before: &impl Fn(&Key) -> bool,
        visit: &mut impl FnMut(&[Key]) -> bool,
    ) -> bool {
        let from = self.partition_point(before);
        from == Vec::len(self) || visit(&self[from..])
    }

    fn runs(&self, visit: &mut impl FnMut(&[Key]) -> bool) -> bool {
        visit(self)
    }

    fn merge(&mut self, keys: &[Key]) {
        if let [key] = keys {
            let at = self.partition_point(below(*key));
            self.insert(at, *key);
        } else {
            // Two sorted runs: the stable sort merges them in linear time.
            self.extend_from_slice(keys);
            self.sort();
        }
    }

    fn remove(&mut self, key: &Key) {
        let at = self.binary_search(key).expect("removed key is present");
        Vec::remove(self, at);
    }

    fn split(self, pieces: usize) -> Vec<Self> {
        let mut keys = self.into_iter();
        even(keys.len(), pieces)
            .map(|n| keys.by_ref().take(n).collect())
            .collect()
    }

    fn append(&mut self, other: Self) {
        self.extend(other);
    }

    fn build(keys: &[Key]) -> Vec<Self> {
        Chunk::split(keys.to_vec(), keys.len().div_ceil(LEAF))
    }
}

/// A fence array over shared children: `fences[i]` is the first key under
/// `kids[i]`, so the child holding a key is found by one binary search.
#[derive(Clone)]
struct Fenced<C> {
    fences: Vec<Key>,
    kids: Vec<Arc<C>>,
    /// Triples under all children.
    len: usize,
}

impl<C> Default for Fenced<C> {
    fn default() -> Self {
        Fenced {
            fences: Vec::new(),
            kids: Vec::new(),
            len: 0,
        }
    }
}

/// A node: a fence array over leaves.
type Node = Fenced<Vec<Key>>;
/// One ordering: a fence array over nodes.
type Tree = Fenced<Node>;

impl<C: Chunk> Fenced<C> {
    fn from_kids(kids: Vec<Arc<C>>) -> Self {
        Fenced {
            fences: kids.iter().map(|kid| kid.first()).collect(),
            len: kids.iter().map(|kid| kid.len()).sum(),
            kids,
        }
    }

    /// The child whose key range holds the boundary of `before`: the last
    /// child whose first key satisfies it, or the first child.
    fn kid(&self, before: impl Fn(&Key) -> bool) -> usize {
        self.fences.partition_point(before).saturating_sub(1)
    }

    /// Restores the fence and the size bounds at child `i` after it changed.
    fn settle(&mut self, i: usize) {
        let width = self.kids[i].width();
        if width > 2 * C::TARGET {
            let kid = Arc::unwrap_or_clone(self.kids.remove(i));
            let parts: Vec<Arc<C>> = kid
                .split(width.div_ceil(C::TARGET))
                .into_iter()
                .map(Arc::new)
                .collect();
            self.fences
                .splice(i..=i, parts.iter().map(|part| part.first()));
            self.kids.splice(i..i, parts);
        } else if width == 0 {
            self.kids.remove(i);
            self.fences.remove(i);
        } else if width < C::TARGET / 4 && self.kids.len() > 1 {
            // Fold the child into a neighbour; the pair re-splits if that
            // overflows it.
            let left = if i + 1 < self.kids.len() { i } else { i - 1 };
            let right = Arc::unwrap_or_clone(self.kids.remove(left + 1));
            self.fences.remove(left + 1);
            Arc::make_mut(&mut self.kids[left]).append(right);
            self.settle(left);
        } else {
            self.fences[i] = self.kids[i].first();
        }
    }

    /// Visits the keys in `lo..=hi` in order until `visit` returns `false`.
    fn range_while(&self, lo: Key, hi: Key, mut visit: impl FnMut(Key) -> bool) {
        self.runs_from(&below(lo), &mut |run| {
            run.iter().all(|&k| k <= hi && visit(k))
        });
    }

    /// The first key that fails `before`, if any.
    fn first_from(&self, before: &impl Fn(&Key) -> bool) -> Option<Key> {
        let mut first = None;
        self.runs_from(before, &mut |run| {
            first = Some(run[0]);
            false
        });
        first
    }

    /// Inserts one key; returns `true` if it was new.
    fn insert(&mut self, key: Key) -> bool {
        if self.contains(&key) {
            return false;
        }
        self.merge(&[key]);
        true
    }
}

impl<C: Chunk> Chunk for Fenced<C> {
    const TARGET: usize = NODE;

    fn len(&self) -> usize {
        self.len
    }

    fn width(&self) -> usize {
        self.kids.len()
    }

    fn first(&self) -> Key {
        self.fences[0]
    }

    fn contains(&self, key: &Key) -> bool {
        !self.kids.is_empty() && self.kids[self.kid(upto(*key))].contains(key)
    }

    /// Descends to both ends of the range and sums only the children
    /// strictly between them, so a narrow range costs a few binary searches.
    fn count(&self, lo: &Key, hi: &Key) -> usize {
        if self.kids.is_empty() {
            return 0;
        }
        let (i, j) = (self.kid(below(*lo)), self.kid(upto(*hi)));
        if i == j {
            return self.kids[i].count(lo, hi);
        }
        let between: usize = self.kids[i + 1..j].iter().map(|kid| kid.len()).sum();
        self.kids[i].count(lo, hi) + between + self.kids[j].count(lo, hi)
    }

    fn runs_from(
        &self,
        before: &impl Fn(&Key) -> bool,
        visit: &mut impl FnMut(&[Key]) -> bool,
    ) -> bool {
        if self.kids.is_empty() {
            return true;
        }
        let i = self.kid(before);
        self.kids[i].runs_from(before, visit)
            && self.kids[i + 1..].iter().all(|kid| kid.runs(visit))
    }

    fn runs(&self, visit: &mut impl FnMut(&[Key]) -> bool) -> bool {
        self.kids.iter().all(|kid| kid.runs(visit))
    }

    fn merge(&mut self, mut keys: &[Key]) {
        if self.kids.is_empty() {
            *self = Fenced::from_kids(C::build(keys).into_iter().map(Arc::new).collect());
            return;
        }
        self.len += keys.len();
        while let Some(first) = keys.first() {
            let i = self.kid(upto(*first));
            let end = match self.fences.get(i + 1) {
                Some(&next) => keys.partition_point(below(next)),
                None => keys.len(),
            };
            let (part, rest) = keys.split_at(end);
            keys = rest;
            Arc::make_mut(&mut self.kids[i]).merge(part);
            self.settle(i);
        }
    }

    fn remove(&mut self, key: &Key) {
        let i = self.kid(upto(*key));
        Arc::make_mut(&mut self.kids[i]).remove(key);
        self.len -= 1;
        self.settle(i);
    }

    fn split(self, pieces: usize) -> Vec<Self> {
        let mut kids = self.kids.into_iter();
        even(kids.len(), pieces)
            .map(|n| Fenced::from_kids(kids.by_ref().take(n).collect()))
            .collect()
    }

    fn append(&mut self, other: Self) {
        self.fences.extend(other.fences);
        self.kids.extend(other.kids);
        self.len += other.len;
    }

    fn build(keys: &[Key]) -> Vec<Self> {
        let node = Fenced::from_kids(C::build(keys).into_iter().map(Arc::new).collect());
        let pieces = node.width().div_ceil(NODE);
        node.split(pieces)
    }
}

/// The orderings of an [`IdIndex`].
#[derive(Clone, Copy)]
enum Order {
    Spo,
    Pos,
    Osp,
}

/// The ordering a pattern scans and its key range there. The pattern's
/// bound positions are a prefix of the ordering's key, so the range is
/// exactly the matching triples.
fn route((s, p, o): IdPattern) -> (Order, Key, Key) {
    let (order, [a, b, c]) = match (s, p, o) {
        (Some(_), _, None) | (Some(_), Some(_), Some(_)) | (None, None, None) => {
            (Order::Spo, [s, p, o])
        }
        (_, Some(_), _) => (Order::Pos, [p, o, s]),
        _ => (Order::Osp, [o, s, p]),
    };
    let lo = (a.unwrap_or(0), b.unwrap_or(0), c.unwrap_or(0));
    let max = TermId::MAX;
    let hi = (a.unwrap_or(max), b.unwrap_or(max), c.unwrap_or(max));
    (order, lo, hi)
}

/// An ordered, scannable set of id-triples.
///
/// # Read-snapshot guarantee
///
/// An `IdIndex` has no interior mutability: between `&mut self` calls, a
/// shared `&IdIndex` is a frozen snapshot — every [`IdIndex::scan_while`],
/// [`IdIndex::candidate_count`] and [`IdIndex::contains`] observes exactly
/// the same triple set, and the type is `Send + Sync` by construction
/// (asserted by a compile-time test below). The parallel propagation
/// workers of `swdb-reason` rely on this: each round shares one `&IdIndex`
/// of the closure across `std::thread::scope` threads, runs all rule joins
/// against that immutable view, and only the single-threaded merge step
/// takes `&mut self` to commit the round's conclusions.
///
/// A clone is a snapshot too, and a cheap one: it shares every node and
/// leaf with the original (see the module docs), and a later write to
/// either side copies the chunks it touches before changing them, so
/// neither ever observes the other's writes.
#[derive(Clone, Default)]
pub struct IdIndex {
    spo: Tree,
    pos: Tree,
    osp: Tree,
}

impl IdIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        IdIndex::default()
    }

    /// Builds an index from triples in strictly ascending `(s, p, o)` order
    /// (sorted, no duplicates) — a bulk build with full leaves, no per-triple
    /// insertion.
    pub fn from_sorted(triples: &[IdTriple]) -> Self {
        assert!(
            triples.windows(2).all(|w| w[0] < w[1]),
            "IdIndex::from_sorted needs strictly ascending triples"
        );
        let mut index = IdIndex::new();
        index.merge_fresh(triples);
        index
    }

    /// Number of triples indexed.
    pub fn len(&self) -> usize {
        self.spo.len
    }

    /// Returns `true` if the index holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.len == 0
    }

    /// Inserts a triple; returns `true` if it was new.
    pub fn insert(&mut self, (s, p, o): IdTriple) -> bool {
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.merge(&[(p, o, s)]);
            self.osp.merge(&[(o, s, p)]);
        }
        added
    }

    /// Inserts a batch of triples in any order; returns the ones that were
    /// new, in the order they were given (first occurrences) — what
    /// `batch.filter(|t| index.insert(t))` returns, but merged into each
    /// leaf once instead of shifted into it per triple.
    pub fn insert_all(&mut self, triples: &[IdTriple]) -> Vec<IdTriple> {
        let fresh = self.insert_sorted(triples.to_vec());
        if fresh.len() == triples.len() && triples.is_sorted() {
            return fresh;
        }
        let mut taken = vec![false; fresh.len()];
        triples
            .iter()
            .filter(|t| match fresh.binary_search(t) {
                Ok(i) => !std::mem::replace(&mut taken[i], true),
                Err(_) => false,
            })
            .copied()
            .collect()
    }

    /// Inserts a batch of triples in any order; returns the new ones in
    /// `(s, p, o)` order.
    fn insert_sorted(&mut self, mut triples: Vec<IdTriple>) -> Vec<IdTriple> {
        triples.sort_unstable();
        triples.dedup();
        triples.retain(|t| !self.spo.contains(t));
        self.merge_fresh(&triples);
        triples
    }

    /// Merges sorted triples that are all absent into the three orderings.
    fn merge_fresh(&mut self, fresh: &[IdTriple]) {
        if fresh.is_empty() {
            return;
        }
        self.spo.merge(fresh);
        let mut keys: Vec<Key> = fresh.iter().map(|&(s, p, o)| (p, o, s)).collect();
        keys.sort_unstable();
        self.pos.merge(&keys);
        for (key, &(s, p, o)) in keys.iter_mut().zip(fresh) {
            *key = (o, s, p);
        }
        keys.sort_unstable();
        self.osp.merge(&keys);
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, (s, p, o): IdTriple) -> bool {
        if !self.contains((s, p, o)) {
            return false;
        }
        self.spo.remove(&(s, p, o));
        self.pos.remove(&(p, o, s));
        self.osp.remove(&(o, s, p));
        true
    }

    /// Membership test.
    pub fn contains(&self, ids: IdTriple) -> bool {
        self.spo.contains(&ids)
    }

    /// Iterates in `(s, p, o)` order.
    pub fn iter(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.spo
            .kids
            .iter()
            .flat_map(|node| node.kids.iter())
            .flat_map(|leaf| leaf.iter().copied())
    }

    /// The distinct predicate ids in use, ascending: one seek per predicate
    /// in POS order, never a walk over its triples.
    pub fn predicate_ids(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some((p, _, _)) = self.pos.first_from(&below((from, 0, 0))) {
            out.push(p);
            match p.checked_add(1) {
                Some(next) => from = next,
                None => break,
            }
        }
        out
    }

    /// Visits every triple matching the pattern, using the most selective
    /// index. Every pattern shape is a contiguous range of one of the three
    /// orderings (two-position prefixes included: `(s, p, ·)` on SPO,
    /// `(p, o, ·)` on POS, `(o, s, ·)` on OSP), so no visited triple is ever
    /// filtered out; triples arrive in that ordering's key order. The
    /// visitor returns `true` to keep scanning, `false` to stop early (used
    /// by existence checks).
    pub fn scan_while(&self, pattern: IdPattern, mut visit: impl FnMut(IdTriple) -> bool) {
        let (order, lo, hi) = route(pattern);
        match order {
            Order::Spo => self.spo.range_while(lo, hi, visit),
            Order::Pos => self.pos.range_while(lo, hi, |(p, o, s)| visit((s, p, o))),
            Order::Osp => self.osp.range_while(lo, hi, |(o, s, p)| visit((s, p, o))),
        }
    }

    /// Collects every triple matching the pattern, in the key order of the
    /// ordering that serves it (see [`IdIndex::scan_while`]).
    pub fn scan(&self, pattern: IdPattern) -> Vec<IdTriple> {
        let mut out = Vec::new();
        self.scan_while(pattern, |t| {
            out.push(t);
            true
        });
        out
    }

    /// Counts the triples matching the pattern without materializing them —
    /// the selectivity probe behind most-constrained-first join ordering.
    /// Fully-unbound patterns are O(1), fully-bound ones a membership probe;
    /// every other shape binary-searches both ends of its range and sums the
    /// node and leaf lengths between them, and never allocates.
    pub fn candidate_count(&self, pattern: IdPattern) -> usize {
        match pattern {
            (Some(s), Some(p), Some(o)) => usize::from(self.contains((s, p, o))),
            (None, None, None) => self.len(),
            _ => {
                let (order, lo, hi) = route(pattern);
                let tree = match order {
                    Order::Spo => &self.spo,
                    Order::Pos => &self.pos,
                    Order::Osp => &self.osp,
                };
                tree.count(&lo, &hi)
            }
        }
    }
}

/// Equality is by content: two indexes holding the same triples are equal
/// however their leaves were split.
impl PartialEq for IdIndex {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for IdIndex {}

impl fmt::Debug for IdIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<IdTriple> for IdIndex {
    fn extend<I: IntoIterator<Item = IdTriple>>(&mut self, triples: I) {
        self.insert_sorted(triples.into_iter().collect());
    }
}

impl FromIterator<IdTriple> for IdIndex {
    fn from_iter<I: IntoIterator<Item = IdTriple>>(triples: I) -> Self {
        let mut index = IdIndex::new();
        index.extend(triples);
        index
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    /// The read-snapshot guarantee, at compile time: shared references to
    /// the index (and to the whole store it lives in) may cross thread
    /// boundaries, so parallel propagation workers can scan one snapshot.
    #[test]
    fn index_snapshots_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IdIndex>();
        assert_send_sync::<&IdIndex>();
        assert_send_sync::<crate::TripleStore>();
    }

    fn sample() -> IdIndex {
        let mut index = IdIndex::new();
        for t in [(1, 10, 2), (1, 10, 3), (2, 11, 3), (4, 10, 2)] {
            index.insert(t);
        }
        index
    }

    #[test]
    fn insert_remove_contains() {
        let mut index = sample();
        assert_eq!(index.len(), 4);
        assert!(index.contains((1, 10, 2)));
        assert!(!index.insert((1, 10, 2)));
        assert!(index.remove((1, 10, 2)));
        assert!(!index.remove((1, 10, 2)));
        assert!(!index.contains((1, 10, 2)));
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn scans_match_by_any_bound_prefix() {
        let index = sample();
        assert_eq!(index.scan((Some(1), None, None)).len(), 2);
        assert_eq!(index.scan((None, Some(10), None)).len(), 3);
        assert_eq!(index.scan((None, None, Some(2))).len(), 2);
        assert_eq!(index.scan((Some(1), Some(10), Some(3))), vec![(1, 10, 3)]);
        assert_eq!(index.scan((None, Some(10), Some(2))).len(), 2);
        assert_eq!(index.scan((None, None, None)).len(), 4);
    }

    #[test]
    fn scan_while_supports_early_exit() {
        let index = sample();
        let mut seen = 0;
        index.scan_while((None, Some(10), None), |_| {
            seen += 1;
            false
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn predicate_ids_are_distinct_and_sorted() {
        let index = sample();
        assert_eq!(index.predicate_ids(), vec![10, 11]);
        let mut edge = IdIndex::new();
        edge.insert((0, TermId::MAX, 0));
        edge.insert((0, 0, 0));
        assert_eq!(edge.predicate_ids(), vec![0, TermId::MAX]);
    }

    #[test]
    fn candidate_count_agrees_with_scan_on_every_pattern_shape() {
        let index = sample();
        let ids = [None, Some(1), Some(2), Some(3), Some(4), Some(10), Some(11)];
        for &s in &ids {
            for &p in &ids {
                for &o in &ids {
                    let pattern = (s, p, o);
                    assert_eq!(
                        index.candidate_count(pattern),
                        index.scan(pattern).len(),
                        "count/scan disagree on {pattern:?}"
                    );
                }
            }
        }
    }

    /// `n` distinct triples spread over enough subjects to fill many nodes.
    fn spread(n: u32) -> Vec<IdTriple> {
        (0..n).map(|i| (i / 8, i % 8, i * 7 % 1000)).collect()
    }

    #[test]
    fn equality_is_by_content_not_by_insertion_order() {
        let triples = spread(5_000);
        let mut forward = IdIndex::new();
        for &t in &triples {
            forward.insert(t);
        }
        let mut backward = IdIndex::new();
        for &t in triples.iter().rev() {
            backward.insert(t);
        }
        let mut sorted = triples.clone();
        sorted.sort_unstable();
        let bulk = IdIndex::from_sorted(&sorted);
        assert_eq!(forward, backward);
        assert_eq!(forward, bulk);
        backward.remove(triples[17]);
        assert_ne!(forward, backward);
    }

    #[test]
    fn insert_all_reports_new_triples_in_the_given_order() {
        let mut index = sample();
        let fresh = index.insert_all(&[(9, 1, 1), (1, 10, 2), (0, 5, 5), (9, 1, 1)]);
        assert_eq!(fresh, vec![(9, 1, 1), (0, 5, 5)]);
        assert_eq!(index.len(), 6);
        let sorted = [(20, 0, 0), (21, 0, 0)];
        assert_eq!(index.insert_all(&sorted), sorted.to_vec());
        assert!(index.insert_all(&sorted).is_empty());
    }

    /// Addresses of the chunks of one ordering: its nodes and its leaves.
    fn chunks(tree: &Tree) -> (BTreeSet<usize>, BTreeSet<usize>) {
        let nodes = tree.kids.iter().map(|n| Arc::as_ptr(n) as usize).collect();
        let leaves = tree
            .kids
            .iter()
            .flat_map(|n| n.kids.iter().map(|l| Arc::as_ptr(l) as usize))
            .collect();
        (nodes, leaves)
    }

    /// Nodes and leaves of `after` that `before` does not share.
    fn unshared(before: &Tree, after: &Tree) -> (usize, usize) {
        let (nodes, leaves) = chunks(before);
        let (after_nodes, after_leaves) = chunks(after);
        (
            after_nodes.difference(&nodes).count(),
            after_leaves.difference(&leaves).count(),
        )
    }

    /// A publish is a clone; the write after it must copy one node and one
    /// leaf per ordering, at n and at 4n alike — the copy does not grow
    /// with the index.
    #[test]
    fn a_write_after_a_clone_unshares_one_node_and_one_leaf_per_ordering() {
        for n in [20_000, 80_000] {
            let mut triples = spread(n);
            triples.sort_unstable();
            let mut index = IdIndex::from_sorted(&triples);
            assert!(index.spo.kids.len() > 4, "several nodes at n = {n}");
            let snapshot = index.clone();
            for (tree, copy) in [
                (&index.spo, &snapshot.spo),
                (&index.pos, &snapshot.pos),
                (&index.osp, &snapshot.osp),
            ] {
                assert_eq!(unshared(copy, tree), (0, 0), "a clone copies no chunk");
            }
            assert!(index.insert((n / 16, 3, 1_000_001)));
            for (tree, copy) in [
                (&index.spo, &snapshot.spo),
                (&index.pos, &snapshot.pos),
                (&index.osp, &snapshot.osp),
            ] {
                assert_eq!(unshared(copy, tree), (1, 1), "n = {n}");
            }
            assert!(index.remove(triples[n as usize / 3]));
            assert_eq!(snapshot.len(), n as usize, "the clone is unaffected");
            assert!(snapshot.contains(triples[n as usize / 3]));
            assert!(!snapshot.contains((n / 16, 3, 1_000_001)));
        }
    }

    impl IdIndex {
        /// Asserts the layout invariants: fences equal first keys, chunk
        /// widths within bounds, cached lengths equal the sums below them,
        /// keys strictly ascending, and the three orderings one set.
        fn debug_check(&self) {
            fn check<C: Chunk>(tree: &Fenced<C>) {
                assert_eq!(tree.fences.len(), tree.kids.len());
                for (fence, kid) in tree.fences.iter().zip(&tree.kids) {
                    assert_eq!(*fence, kid.first(), "fence is the first key");
                    let width = kid.width();
                    assert!(width > 0 && width <= 2 * C::TARGET, "width {width}");
                    assert!(
                        tree.kids.len() == 1 || width >= C::TARGET / 4,
                        "underfull chunk of width {width}"
                    );
                }
                let len = tree.kids.iter().map(|kid| kid.len()).sum::<usize>();
                assert_eq!(tree.len, len, "cached length");
            }
            let mut sets = Vec::new();
            for (tree, unpermute) in [
                (&self.spo, (|(s, p, o)| (s, p, o)) as fn(Key) -> IdTriple),
                (&self.pos, |(p, o, s)| (s, p, o)),
                (&self.osp, |(o, s, p)| (s, p, o)),
            ] {
                check(tree);
                for node in &tree.kids {
                    check(node);
                }
                let mut keys = Vec::new();
                tree.runs(&mut |run| {
                    keys.extend_from_slice(run);
                    true
                });
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend");
                let mut set: Vec<IdTriple> = keys.into_iter().map(unpermute).collect();
                set.sort_unstable();
                sets.push(set);
            }
            assert!(
                sets[0] == sets[1] && sets[1] == sets[2],
                "one set, three orders"
            );
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(IdTriple),
        Remove(IdTriple),
        /// `len` triples from a stride through the id space, inserted as a
        /// batch (some already present).
        Batch(u32, u32),
        /// Removes everything matching the pattern, one triple at a time.
        RemoveMatching(IdPattern),
        Rebuild,
        Snapshot,
    }

    fn batch(seed: u32, len: u32) -> Vec<IdTriple> {
        (0..len)
            .map(|i| {
                let x = seed.wrapping_add(i.wrapping_mul(2_654_435_761));
                (x % 97, x / 97 % 6, x / 582 % 89)
            })
            .collect()
    }

    fn arb_triple() -> impl Strategy<Value = IdTriple> {
        (0u32..97, 0u32..6, 0u32..89)
    }

    fn arb_pattern() -> impl Strategy<Value = IdPattern> {
        let pos = |n: u32| prop_oneof![Just(None), (0..n).prop_map(Some)];
        (pos(97), pos(6), pos(89))
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => arb_triple().prop_map(Op::Insert),
            3 => arb_triple().prop_map(Op::Remove),
            3 => (0u32..1_000_000, 1u32..12_000).prop_map(|(s, n)| Op::Batch(s, n)),
            2 => arb_pattern().prop_map(Op::RemoveMatching),
            1 => Just(Op::Rebuild),
            1 => Just(Op::Snapshot),
        ]
    }

    /// Every read of `index` agrees with the `BTreeSet` model.
    fn agrees(index: &IdIndex, model: &BTreeSet<IdTriple>, probes: &[IdPattern]) {
        index.debug_check();
        assert_eq!(index.len(), model.len());
        assert!(index.iter().eq(model.iter().copied()));
        let preds: BTreeSet<TermId> = model.iter().map(|t| t.1).collect();
        assert_eq!(index.predicate_ids(), preds.into_iter().collect::<Vec<_>>());
        for &pattern in probes {
            let (s, p, o) = pattern;
            let matches = |t: &&IdTriple| {
                s.is_none_or(|s| t.0 == s)
                    && p.is_none_or(|p| t.1 == p)
                    && o.is_none_or(|o| t.2 == o)
            };
            let mut expected: Vec<IdTriple> = model.iter().filter(matches).copied().collect();
            let mut scanned = index.scan(pattern);
            assert_eq!(
                index.candidate_count(pattern),
                expected.len(),
                "{pattern:?}"
            );
            let mut first_two = Vec::new();
            index.scan_while(pattern, |t| {
                first_two.push(t);
                first_two.len() < 2
            });
            assert_eq!(
                first_two[..],
                scanned[..scanned.len().min(2)],
                "{pattern:?}"
            );
            scanned.sort_unstable();
            expected.sort_unstable();
            assert_eq!(scanned, expected, "{pattern:?}");
            if let (Some(s), Some(p), Some(o)) = pattern {
                assert_eq!(index.contains((s, p, o)), model.contains(&(s, p, o)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The index against a `BTreeSet` model under a random script, with
        /// batches big enough to split nodes and removals big enough to
        /// empty them; snapshots taken along the way must keep their
        /// contents through every later write.
        #[test]
        fn the_index_behaves_like_a_sorted_set(
            ops in proptest::collection::vec(arb_op(), 1..14),
            probes in proptest::collection::vec(arb_pattern(), 12),
        ) {
            let mut index = IdIndex::new();
            let mut model = BTreeSet::new();
            let mut snapshots = Vec::new();
            for op in &ops {
                match *op {
                    Op::Insert(t) => prop_assert_eq!(index.insert(t), model.insert(t)),
                    Op::Remove(t) => prop_assert_eq!(index.remove(t), model.remove(&t)),
                    Op::Batch(seed, len) => {
                        let triples = batch(seed, len);
                        let mut expected = Vec::new();
                        for &t in &triples {
                            if model.insert(t) {
                                expected.push(t);
                            }
                        }
                        prop_assert_eq!(index.insert_all(&triples), expected);
                    }
                    Op::RemoveMatching(pattern) => {
                        for t in index.scan(pattern) {
                            prop_assert!(index.remove(t) && model.remove(&t));
                        }
                    }
                    Op::Rebuild => {
                        index = IdIndex::from_sorted(&model.iter().copied().collect::<Vec<_>>());
                    }
                    Op::Snapshot => snapshots.push((index.clone(), model.clone())),
                }
                agrees(&index, &model, &probes);
            }
            for (snapshot, model) in &snapshots {
                agrees(snapshot, model, &probes);
            }
        }
    }
}
