//! The incremental closure engine.
//!
//! [`DeltaClosure`] maintains `RDFS-cl(G)` (Definition 2.7) for a mutating
//! graph of id-triples, without ever recomputing the fixpoint from scratch:
//!
//! * **Insert** is semi-naive: a new triple is unified against exactly the
//!   `(rule, hypothesis)` paths its predicate wakes (see
//!   [`RuleSystem::paths_for_predicate`]), that binding seeds the join of
//!   the remaining hypotheses against the current closure, and only *fresh*
//!   conclusions are queued. Existing triples are never re-derived.
//! * **Delete** is DRed (delete-and-rederive), one run per batch of deleted
//!   triples: first *overdelete* everything transitively derivable from any
//!   of them, then *rederive* the overdeleted triples that are still
//!   asserted or still one-step derivable from the surviving closure, and
//!   finally propagate the rederived set as ordinary inserts. DRed is
//!   chosen over per-triple derivation counting because the RDFS rules
//!   feed into themselves (rule (3) with `B = A` derives a triple from
//!   itself through `(A, sp, A)`), and cyclic self-support makes counting
//!   schemes unsound — counts stay positive after the last external
//!   support disappears. DRed's overdelete/rederive pair is insensitive to
//!   derivation cycles.
//!
//! Both mutations run on **one schedule and one rule-firing kernel**,
//! `parallel::round_conclusions`: a round joins the whole frontier
//! against an immutable view, sorts and dedupes the conclusions, and the
//! single-threaded caller commits them as the next frontier. Insert
//! propagation commits into the closure, and the DRed overdeletion cascade
//! runs the same rounds with a "still in the closure, not an axiom" filter.
//! A premise is an insert on a clone of the engine, whose closure index
//! shares every chunk the insert leaves alone. [`DeltaClosure::set_threads`]
//! is a **worker ceiling** — "spawn at most this many workers per round",
//! so `1` means "never spawn" — not a code-path selector: the per-round
//! sort makes the rounds, both delta logs (as sequences) and every
//! `reason_*` counter except `reason_parallel_rounds` identical at every
//! count. The differential tests in `crates/reason/tests/` sweep thread
//! counts and pin all of that against the string-space
//! `swdb_entailment::rdfs_closure`.
//!
//! Every join — insert rounds, the cascade, the prune and rederive probes —
//! is an [`swdb_hom::IdSolver`] search seeded on the stack by unifying a
//! triple with a rule hypothesis or conclusion, in the static join order
//! [`RuleSystem::new`] computed for that path.
//!
//! The five axiomatic triples of rule (9) are seeded at construction and are
//! never deleted — they hold in every closure, including the closure of the
//! empty graph.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use swdb_hom::{IdSolver, IdTarget};
use swdb_obs::{Counter, Hist, Metrics, MetricsLevel, RULE_SLOTS};
use swdb_store::{Dictionary, IdIndex, IdPattern, IdTriple, TripleStore};

use crate::rules::{Binding, RuleSystem, Vocabulary, SLOTS};

/// Flushes a locally accumulated per-rule firing batch into the shared
/// counters: one level check, then one atomic add per non-zero slot. Hot
/// loops accumulate into the plain array so the off path never touches an
/// atomic per conclusion.
pub(crate) fn flush_firings(metrics: &Metrics, fired: &[u64; RULE_SLOTS]) {
    if !metrics.on(MetricsLevel::Counters) {
        return;
    }
    let mut total = 0u64;
    for (slot, &n) in fired.iter().enumerate() {
        metrics.count_rule(slot, n);
        total += n;
    }
    metrics.count(Counter::ReasonRuleFirings, total);
}

/// The asserted set `D` as a join target: the closure's scans, which hold
/// it (`D ⊆ cl(D)`), kept to the triples `base` asserts. The store holds
/// `D` in one ordering, so this is how a join reads it in any other.
struct Asserted<'a> {
    closure: &'a IdIndex,
    base: &'a TripleStore,
}

impl IdTarget for Asserted<'_> {
    /// By a scan: the fixed-order joins that read this target never ask.
    fn candidate_count(&self, pattern: IdPattern) -> usize {
        let scan = self.closure.scan(pattern).into_iter();
        scan.filter(|&t| self.contains(t)).count()
    }

    fn scan_while(&self, pattern: IdPattern, mut visit: impl FnMut(IdTriple) -> bool) {
        self.closure
            .scan_while(pattern, |t| !self.contains(t) || visit(t))
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.base.contains_id_triple(t)
    }
}

/// Is `t` the conclusion of some rule instance whose hypotheses all hold in
/// `view`? Called with the surviving closure (DRed rederivation) and with
/// the asserted set (DRed overdeletion prune: support from
/// still-asserted premises alone is independent of any cascade): `t`
/// unified with a conclusion seeds a search stopped by the first witness.
/// Free-standing so the probes can run from worker threads over snapshots.
fn one_step_derivable<V: IdTarget>(
    rules: &RuleSystem,
    dictionary: &Dictionary,
    view: &V,
    t: IdTriple,
) -> bool {
    rules.rules().iter().any(|rule| {
        rule.conclusions
            .iter()
            .zip(&rule.probe_orders)
            .any(|(conclusion, order)| {
                let mut seed: Binding = [None; SLOTS];
                conclusion.unify(t, &mut seed)
                    && IdSolver::new(&rule.hypotheses, SLOTS, view)
                        .with_order(order)
                        .for_each_solution_from(&mut seed, &mut |binding| {
                            if rule.guards_pass(dictionary, binding) {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        })
                        .is_some()
            })
    })
}

/// An incrementally maintained RDFS closure over id-triples.
#[derive(Clone, Debug)]
pub struct DeltaClosure {
    /// Immutable once built, so clones of the engine share it.
    rules: Arc<RuleSystem>,
    closure: IdIndex,
    axioms: BTreeSet<IdTriple>,
    /// Worker ceiling: a round of propagation, DRed cascade or probing
    /// spawns at most this many workers (`1` — never spawn). It changes
    /// where the joins run, never what they compute.
    threads: usize,
    /// Instrumentation handle (a disabled default unless wired by the
    /// owner). Clones of the engine share the same counters.
    metrics: Metrics,
}

impl DeltaClosure {
    /// Creates the closure of the empty graph over the given vocabulary:
    /// exactly the five axiomatic triples of rule (9).
    pub fn new(vocab: Vocabulary) -> Self {
        let rules = RuleSystem::new(vocab);
        let mut closure = IdIndex::new();
        let mut axioms = BTreeSet::new();
        for axiom in rules.axioms() {
            closure.insert(axiom);
            axioms.insert(axiom);
        }
        DeltaClosure {
            rules: Arc::new(rules),
            closure,
            axioms,
            threads: 1,
            metrics: Metrics::default(),
        }
    }

    /// Wires an instrumentation handle into the engine and registers the
    /// rule table's labels for the per-rule firing slots. The handle is
    /// shared (its clones report into the same counters); passing a
    /// default-constructed [`Metrics`] disables recording again.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        metrics.set_rule_labels(Arc::clone(self.rules.labels()));
        self.metrics = metrics;
    }

    /// The engine's instrumentation handle.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Sets the worker ceiling for propagation and DRed cascades (clamped
    /// to at least 1, the default): a round spawns at most this many
    /// workers, and small rounds run inline regardless. The closure, both
    /// delta logs and the counters are the same at every value (see the
    /// module docs).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker-thread ceiling.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of triples in the maintained closure.
    pub fn len(&self) -> usize {
        self.closure.len()
    }

    /// The closure is never empty (the axioms are always present).
    pub fn is_empty(&self) -> bool {
        self.closure.is_empty()
    }

    /// Closure membership.
    pub fn contains(&self, t: IdTriple) -> bool {
        self.closure.contains(t)
    }

    /// Read access to the maintained closure's SPO/POS/OSP index, for
    /// id-space consumers that join against the closure directly.
    pub fn index(&self) -> &IdIndex {
        &self.closure
    }

    /// The vocabulary ids the engine reasons over.
    pub fn vocabulary(&self) -> Vocabulary {
        self.rules.vocabulary()
    }

    /// Adopts a previously maintained closure verbatim: `closure`, built
    /// by the caller, becomes the closure index **without any rule
    /// propagation**, and the axioms are added if it lacks them. This is
    /// the durability-recovery path — a snapshot carries the exact closure
    /// the engine maintained when it was written, so reloading it is pure
    /// deserialization; re-deriving it would pay the cold fixpoint the
    /// incremental machinery exists to avoid. The caller is responsible for
    /// the set actually being `RDFS-cl` of the base it restores alongside
    /// (the durability layer checksums the pair together).
    pub fn adopt_closure(&mut self, closure: IdIndex) {
        self.closure = closure;
        let axioms: Vec<IdTriple> = self.axioms.iter().copied().collect();
        self.closure.insert_all(&axioms);
    }

    /// Applies a batch of inserted base triples in one frontier-batched
    /// semi-naive round, and appends every triple that *entered the
    /// closure* (the batch's fresh members plus all fresh conclusions) to
    /// `added` — the delta a downstream incremental consumer (the
    /// evaluation-index core engine) needs to stay in step. The ids must be
    /// interned in `dictionary`, which the rule guards read.
    ///
    /// All deltas enter the closure before any rule fires, then a single
    /// propagation fixpoint runs with the whole batch as the
    /// initial frontier. Compared to one propagation round per triple this
    /// amortizes the index probes: a conclusion reachable from several
    /// deltas is derived (and joined against) once, and every rule join
    /// already sees the complete batch instead of rediscovering later
    /// batch members as fresh conclusions. The resulting closure is
    /// identical — the property tests pin bulk loads against
    /// `rdfs_closure`.
    pub fn insert_batch_logged(
        &mut self,
        deltas: &[IdTriple],
        dictionary: &Dictionary,
        added: &mut Vec<IdTriple>,
    ) {
        // Manual span: the RAII guard would borrow `self.metrics` across
        // the `&mut self` propagation below.
        let t0 = self
            .metrics
            .on(MetricsLevel::Debug)
            .then(std::time::Instant::now);
        let logged_before = added.len();
        let frontier = self.closure.insert_all(deltas);
        added.extend_from_slice(&frontier);
        self.propagate_rounds(frontier, dictionary, added);
        self.metrics.count(
            Counter::ReasonClosureAdded,
            (added.len() - logged_before) as u64,
        );
        if let Some(t0) = t0 {
            self.metrics
                .record(Hist::SpanReasonInsertNs, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Semi-naive frontier propagation in rounds (see [`crate::parallel`]):
    /// every frontier triple is new to the closure and is joined only
    /// against the rules its predicate wakes; each round joins the whole
    /// frontier against an immutable snapshot of the closure, then commits
    /// the merged conclusions single-threadedly as the next frontier. Every
    /// fresh conclusion is appended to `added` (the initial frontier is not
    /// logged — callers know their own). The per-round sort makes the
    /// schedule — and the `added` log — the same at every thread count.
    fn propagate_rounds(
        &mut self,
        mut frontier: Vec<IdTriple>,
        dictionary: &Dictionary,
        added: &mut Vec<IdTriple>,
    ) {
        let mut rounds = 0u64;
        while !frontier.is_empty() {
            rounds += 1;
            self.metrics
                .record(Hist::FrontierSize, frontier.len() as u64);
            let view = &self.closure;
            let fresh = crate::parallel::round_conclusions(
                &self.rules,
                view,
                dictionary,
                &frontier,
                self.threads,
                &|t| !view.contains(t),
                &self.metrics,
            );
            frontier = self.closure.insert_all(&fresh);
            added.extend_from_slice(&frontier);
        }
        self.metrics.count(Counter::ReasonRounds, rounds);
    }

    /// Applies a batch of deleted base triples (already removed from
    /// `base`) in one DRed run seeded with all of them, and appends every
    /// triple that *left the closure* for good (overdeleted and neither
    /// rederived nor recovered by the propagation of the rederived set) to
    /// `removed`, in `(s, p, o)` order. A deleted triple that is still
    /// derivable (or axiomatic) survives and is not logged.
    ///
    /// DRed on the round kernel: the overdeletion cascade is the join shape
    /// of insert propagation run with a "still in the closure, not an
    /// axiom" filter, the per-candidate prune and rederivation probes are
    /// independent reads spread by `parallel::parallel_mask`, and
    /// phase 3 is ordinary insert propagation.
    pub fn delete_logged(
        &mut self,
        deleted: &[IdTriple],
        base: &TripleStore,
        removed: &mut Vec<IdTriple>,
    ) {
        let mut over: BTreeSet<IdTriple> = deleted
            .iter()
            .copied()
            .filter(|t| self.closure.contains(*t) && !self.axioms.contains(t))
            .collect();
        if over.is_empty() {
            return;
        }
        let t0 = self
            .metrics
            .on(MetricsLevel::Debug)
            .then(std::time::Instant::now);

        // Phase 1 — overdelete: everything with a derivation path from the
        // batch, computed round by round against the still-intact closure
        // (the standard DRed overapproximation), with two sound prunes that
        // keep cascades local. A candidate is *not* overdeleted when
        //
        // * it is still asserted in the base store — assertion is support
        //   that no cascade can take away, or
        // * it has a one-step derivation from still-asserted premises alone
        //   — those premises survive by the same argument, so the
        //   derivation does too.
        //
        // Pruned facts stay in the closure, and — because they genuinely
        // keep their membership — everything derived from them keeps its
        // support, so not traversing them loses nothing. Without these
        // prunes every deletion of a data triple drags the reflexive core
        // (`(p, sp, p)`, `(c, sc, c)`) into the overdeletion set, and those
        // facts support a large fraction of the closure.
        //
        // `over` holds the doomed, `spared` the candidates a probe already
        // saved, so a triple reachable through many derivation edges pays
        // for its (expensive) probes once. The cascade's firings are not
        // rule firings of a committed fixpoint and are not counted.
        let mut spared: BTreeSet<IdTriple> = BTreeSet::new();
        let mut frontier: Vec<IdTriple> = over.iter().copied().collect();
        let asserted = Asserted {
            closure: &self.closure,
            base,
        };
        while !frontier.is_empty() {
            let candidates = crate::parallel::round_conclusions(
                &self.rules,
                &self.closure,
                base.dictionary(),
                &frontier,
                self.threads,
                &|d| self.closure.contains(d) && !self.axioms.contains(&d),
                Metrics::disabled(),
            );
            let fresh: Vec<IdTriple> = candidates
                .into_iter()
                .filter(|d| !over.contains(d) && !spared.contains(d))
                .collect();
            let survives = crate::parallel::parallel_mask(&fresh, self.threads, &|&d| {
                base.contains_id_triple(d)
                    || one_step_derivable(&self.rules, base.dictionary(), &asserted, d)
            });
            frontier.clear();
            for (d, survives) in fresh.into_iter().zip(survives) {
                if survives {
                    spared.insert(d);
                } else {
                    over.insert(d);
                    frontier.push(d);
                }
            }
        }

        for &doomed in &over {
            self.closure.remove(doomed);
        }

        // Phase 2 — rederive: an overdeleted triple survives if it is still
        // asserted or still follows in one step from the surviving closure.
        // All probes read the post-overdeletion snapshot; a candidate whose
        // only support is another rederived triple misses here and is
        // recovered by phase 3 instead.
        let candidates: Vec<IdTriple> = over.iter().copied().collect();
        let back = crate::parallel::parallel_mask(&candidates, self.threads, &|&c| {
            base.contains_id_triple(c)
                || one_step_derivable(&self.rules, base.dictionary(), &self.closure, c)
        });
        let rederived: Vec<IdTriple> = candidates
            .into_iter()
            .zip(back)
            .filter_map(|(c, back)| back.then_some(c))
            .collect();
        self.closure.extend(rederived.iter().copied());
        self.metrics
            .count(Counter::ReasonOverdeleted, over.len() as u64);
        self.metrics
            .count(Counter::ReasonRederived, rederived.len() as u64);

        // Phase 3 — propagate the rederived triples; anything they still
        // support (including chains the snapshot probes of phase 2 could
        // not see) is recovered exactly like an ordinary insert.
        let mut gone = over;
        for r in &rederived {
            gone.remove(r);
        }
        let mut recovered = Vec::new();
        self.propagate_rounds(rederived, base.dictionary(), &mut recovered);
        for r in &recovered {
            gone.remove(r);
        }
        debug_assert!(gone.iter().all(|&g| !self.closure.contains(g)));
        self.metrics
            .count(Counter::ReasonClosureRemoved, gone.len() as u64);
        removed.extend(gone);
        if let Some(t0) = t0 {
            self.metrics
                .record(Hist::SpanReasonDeleteNs, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_model::{rdfs, Term};

    /// A store plus engine wired by hand (MaterializedStore packages this).
    fn setup() -> (TripleStore, DeltaClosure) {
        let mut store = TripleStore::new();
        let vocab = Vocabulary {
            sp: store.intern(&Term::iri(rdfs::SP)),
            sc: store.intern(&Term::iri(rdfs::SC)),
            ty: store.intern(&Term::iri(rdfs::TYPE)),
            dom: store.intern(&Term::iri(rdfs::DOM)),
            range: store.intern(&Term::iri(rdfs::RANGE)),
        };
        (store, DeltaClosure::new(vocab))
    }

    fn put(store: &mut TripleStore, engine: &mut DeltaClosure, t: &swdb_model::Triple) {
        let (ids, added) = store.insert_with_ids(t);
        if added {
            engine.insert_batch_logged(&[ids], store.dictionary(), &mut Vec::new());
        }
    }

    fn del(store: &mut TripleStore, engine: &mut DeltaClosure, t: &swdb_model::Triple) {
        if let Some(ids) = store.remove_with_ids(t) {
            engine.delete_logged(&[ids], store, &mut Vec::new());
        }
    }

    fn has(store: &TripleStore, engine: &DeltaClosure, t: &swdb_model::Triple) -> bool {
        let ids = (
            store.id_of(t.subject()),
            store.id_of(&Term::Iri(t.predicate().clone())),
            store.id_of(t.object()),
        );
        match ids {
            (Some(s), Some(p), Some(o)) => engine.contains((s, p, o)),
            _ => false,
        }
    }

    #[test]
    fn the_empty_closure_is_the_axioms() {
        let (_, engine) = setup();
        assert_eq!(engine.len(), 5);
    }

    #[test]
    fn subclass_chain_lifts_types_incrementally() {
        use swdb_model::triple;
        let (mut store, mut engine) = setup();
        put(
            &mut store,
            &mut engine,
            &triple("ex:Painter", rdfs::SC, "ex:Artist"),
        );
        put(
            &mut store,
            &mut engine,
            &triple("ex:Picasso", rdfs::TYPE, "ex:Painter"),
        );
        assert!(has(
            &store,
            &engine,
            &triple("ex:Picasso", rdfs::TYPE, "ex:Artist")
        ));
        // Extending the chain after the fact still reaches the new top.
        put(
            &mut store,
            &mut engine,
            &triple("ex:Artist", rdfs::SC, "ex:Person"),
        );
        assert!(has(
            &store,
            &engine,
            &triple("ex:Picasso", rdfs::TYPE, "ex:Person")
        ));
        assert!(has(
            &store,
            &engine,
            &triple("ex:Painter", rdfs::SC, "ex:Person")
        ));
    }

    #[test]
    fn deletion_retracts_exactly_the_unsupported_consequences() {
        use swdb_model::triple;
        let (mut store, mut engine) = setup();
        put(
            &mut store,
            &mut engine,
            &triple("ex:Painter", rdfs::SC, "ex:Artist"),
        );
        put(
            &mut store,
            &mut engine,
            &triple("ex:Picasso", rdfs::TYPE, "ex:Painter"),
        );
        put(
            &mut store,
            &mut engine,
            &triple("ex:Picasso", rdfs::TYPE, "ex:Artist"),
        );
        // The lifted type is ALSO asserted, so deleting the subclass edge
        // must keep it; deleting the assertion afterwards must still keep it
        // if the subclass edge is back.
        del(
            &mut store,
            &mut engine,
            &triple("ex:Painter", rdfs::SC, "ex:Artist"),
        );
        assert!(has(
            &store,
            &engine,
            &triple("ex:Picasso", rdfs::TYPE, "ex:Artist")
        ));
        assert!(!has(
            &store,
            &engine,
            &triple("ex:Painter", rdfs::SC, "ex:Artist")
        ));
        put(
            &mut store,
            &mut engine,
            &triple("ex:Painter", rdfs::SC, "ex:Artist"),
        );
        del(
            &mut store,
            &mut engine,
            &triple("ex:Picasso", rdfs::TYPE, "ex:Artist"),
        );
        assert!(
            has(
                &store,
                &engine,
                &triple("ex:Picasso", rdfs::TYPE, "ex:Artist")
            ),
            "still derivable through the subclass edge"
        );
        // Removing the remaining support retracts it.
        del(
            &mut store,
            &mut engine,
            &triple("ex:Painter", rdfs::SC, "ex:Artist"),
        );
        assert!(!has(
            &store,
            &engine,
            &triple("ex:Picasso", rdfs::TYPE, "ex:Artist")
        ));
    }

    #[test]
    fn cyclic_subproperty_support_does_not_survive_deletion() {
        use swdb_model::triple;
        // (a, sp, b) and (b, sp, a) support each other's consequences in a
        // cycle — the case where derivation counting over-retains.
        let (mut store, mut engine) = setup();
        put(&mut store, &mut engine, &triple("ex:a", rdfs::SP, "ex:b"));
        put(&mut store, &mut engine, &triple("ex:b", rdfs::SP, "ex:a"));
        put(&mut store, &mut engine, &triple("ex:x", "ex:a", "ex:y"));
        assert!(has(&store, &engine, &triple("ex:x", "ex:b", "ex:y")));
        del(&mut store, &mut engine, &triple("ex:a", rdfs::SP, "ex:b"));
        assert!(
            !has(&store, &engine, &triple("ex:x", "ex:b", "ex:y")),
            "the only path from a to b is gone"
        );
        assert!(has(&store, &engine, &triple("ex:x", "ex:a", "ex:y")));
    }

    #[test]
    fn feedback_through_sp_of_sc_is_handled() {
        use swdb_model::triple;
        // (p, sp, sc) turns p-triples into sc-triples, which must then be
        // transitively closed and used for type lifting — the pathological
        // family of Theorem 3.16.
        let (mut store, mut engine) = setup();
        put(&mut store, &mut engine, &triple("ex:p", rdfs::SP, rdfs::SC));
        put(&mut store, &mut engine, &triple("ex:A", "ex:p", "ex:B"));
        put(&mut store, &mut engine, &triple("ex:B", rdfs::SC, "ex:C"));
        put(&mut store, &mut engine, &triple("ex:x", rdfs::TYPE, "ex:A"));
        assert!(has(&store, &engine, &triple("ex:A", rdfs::SC, "ex:B")));
        assert!(has(&store, &engine, &triple("ex:A", rdfs::SC, "ex:C")));
        assert!(has(&store, &engine, &triple("ex:x", rdfs::TYPE, "ex:C")));
        // Retracting the re-routing edge must unwind the whole cascade.
        del(&mut store, &mut engine, &triple("ex:p", rdfs::SP, rdfs::SC));
        assert!(!has(&store, &engine, &triple("ex:A", rdfs::SC, "ex:B")));
        assert!(!has(&store, &engine, &triple("ex:A", rdfs::SC, "ex:C")));
        assert!(!has(&store, &engine, &triple("ex:x", rdfs::TYPE, "ex:C")));
        assert!(has(&store, &engine, &triple("ex:B", rdfs::SC, "ex:C")));
    }

    #[test]
    fn axioms_survive_any_deletion() {
        use swdb_model::triple;
        let (mut store, mut engine) = setup();
        let axiom = triple(rdfs::SP, rdfs::SP, rdfs::SP);
        put(&mut store, &mut engine, &axiom);
        del(&mut store, &mut engine, &axiom);
        assert!(
            has(&store, &engine, &axiom),
            "rule (9) axioms are permanent"
        );
        assert_eq!(engine.len(), 5);
    }
}
