//! The RDFS closure `RDFS-cl(G)` (Definition 2.7).
//!
//! The closure of `G` is the set of triples deducible from `G` using rules
//! (2)–(13). Because the rules only mention terms of `universe(G)` plus the
//! RDFS vocabulary, the closure is a graph over that universe and its size is
//! `Θ(|G|²)` (Theorem 3.6(3)); membership of a given triple can be decided in
//! `O(|G| log |G|)` (Theorem 3.6(4)) without materialising the closure.
//!
//! Two implementations are provided:
//!
//! * [`rdfs_closure`] — an optimised, stratified fixpoint that computes the
//!   `sp`/`sc` transitive closures with graph reachability and then applies
//!   the inheritance/typing rules, iterating the whole pipeline until nothing
//!   changes (rule (3) can feed new `sc`/`sp`/`type` triples back into the
//!   earlier strata, e.g. through `(a, sp, sc)`);
//! * [`naive_closure`] — the textbook "apply every rule until fixpoint" loop,
//!   used in tests as an executable specification against which the optimised
//!   version is checked.

use std::collections::{BTreeMap, BTreeSet};

use swdb_model::{rdfs, Graph, Iri, Term, Triple};

use crate::rules::{one_step, RuleId};

/// Computes `RDFS-cl(G)` with the stratified algorithm.
pub fn rdfs_closure(g: &Graph) -> Graph {
    let mut closure = g.clone();
    // Rule (9): axiomatic reflexivity of the vocabulary.
    let sp = rdfs::sp();
    let sc = rdfs::sc();
    let type_ = rdfs::type_();
    let dom = rdfs::dom();
    let range = rdfs::range();
    for p in rdfs::vocabulary() {
        closure.insert(Triple::new(Term::Iri(p.clone()), sp.clone(), Term::Iri(p)));
    }

    loop {
        let before = closure.len();

        // --- Group E: subproperty reflexivity (rules 8, 10, 11) ---
        let mut reflexive_sp: BTreeSet<Term> = BTreeSet::new();
        for t in closure.iter() {
            // rule (8): every predicate in use.
            reflexive_sp.insert(Term::Iri(t.predicate().clone()));
            if t.predicate() == &dom || t.predicate() == &range {
                // rule (10): subjects of dom/range declarations.
                reflexive_sp.insert(t.subject().clone());
            }
            if t.predicate() == &sp {
                // rule (11): both sides of sp triples.
                reflexive_sp.insert(t.subject().clone());
                reflexive_sp.insert(t.object().clone());
            }
        }
        for term in reflexive_sp {
            closure.insert(Triple::new(term.clone(), sp.clone(), term));
        }

        // --- Group F: subclass reflexivity (rules 12, 13) ---
        let mut reflexive_sc: BTreeSet<Term> = BTreeSet::new();
        for t in closure.iter() {
            if t.predicate() == &dom || t.predicate() == &range || t.predicate() == &type_ {
                reflexive_sc.insert(t.object().clone());
            }
            if t.predicate() == &sc {
                reflexive_sc.insert(t.subject().clone());
                reflexive_sc.insert(t.object().clone());
            }
        }
        for term in reflexive_sc {
            closure.insert(Triple::new(term.clone(), sc.clone(), term));
        }

        // --- Group B: sp transitive closure (rule 2) ---
        let sp_closure = relation_transitive_closure(&closure, &sp);
        for (a, b) in &sp_closure {
            closure.insert(Triple::new(a.clone(), sp.clone(), b.clone()));
        }

        // --- Group B: sp inheritance (rule 3) ---
        let mut inherited: Vec<Triple> = Vec::new();
        for (a, b) in &sp_closure {
            let (Term::Iri(a), Term::Iri(b)) = (a, b) else {
                continue;
            };
            if a == b {
                continue;
            }
            for t in closure.triples_with_predicate(a) {
                inherited.push(Triple::new(
                    t.subject().clone(),
                    b.clone(),
                    t.object().clone(),
                ));
            }
        }
        closure.extend(inherited);

        // --- Group C: sc transitive closure (rule 4) ---
        let sc_closure = relation_transitive_closure(&closure, &sc);
        for (a, b) in &sc_closure {
            closure.insert(Triple::new(a.clone(), sc.clone(), b.clone()));
        }

        // --- Group D: typing (rules 5, 6, 7) ---
        let mut typing: Vec<Triple> = Vec::new();
        // rule (6)/(7): (A,dom/range,B), (C,sp,A), (X,C,Y) ⟹ (X/Y, type, B).
        for (declared, is_domain) in [(&dom, true), (&range, false)] {
            for decl in closure.triples_with_predicate(declared) {
                let a = decl.subject();
                let b = decl.object();
                // C ranges over the sp-predecessors of A, including A itself
                // (reflexivity was added above so (A, sp, A) is present).
                for spt in closure.triples_with_predicate(&sp) {
                    if spt.object() != a {
                        continue;
                    }
                    let Term::Iri(c) = spt.subject() else {
                        continue;
                    };
                    for t in closure.triples_with_predicate(c) {
                        let typed = if is_domain {
                            t.subject().clone()
                        } else {
                            t.object().clone()
                        };
                        typing.push(Triple::new(typed, type_.clone(), b.clone()));
                    }
                }
            }
        }
        closure.extend(typing);
        // rule (5): lift types along the sc closure.
        let sc_pairs = relation_transitive_closure(&closure, &sc);
        let mut lifted: Vec<Triple> = Vec::new();
        for t in closure.triples_with_predicate(&type_) {
            for (a, b) in &sc_pairs {
                if t.object() == a {
                    lifted.push(Triple::new(t.subject().clone(), type_.clone(), b.clone()));
                }
            }
        }
        closure.extend(lifted);

        if closure.len() == before {
            return closure;
        }
    }
}

/// Collects the transitive closure of the binary relation encoded by the
/// triples with the given predicate, as a set of pairs.
fn relation_transitive_closure(g: &Graph, predicate: &Iri) -> BTreeSet<(Term, Term)> {
    let mut succ: BTreeMap<Term, BTreeSet<Term>> = BTreeMap::new();
    for t in g.triples_with_predicate(predicate) {
        succ.entry(t.subject().clone())
            .or_default()
            .insert(t.object().clone());
    }
    let mut pairs: BTreeSet<(Term, Term)> = BTreeSet::new();
    for start in succ.keys() {
        let mut seen: BTreeSet<Term> = BTreeSet::new();
        let mut frontier: Vec<Term> = succ[start].iter().cloned().collect();
        while let Some(next) = frontier.pop() {
            if seen.insert(next.clone()) {
                pairs.insert((start.clone(), next.clone()));
                if let Some(more) = succ.get(&next) {
                    frontier.extend(more.iter().cloned());
                }
            }
        }
    }
    pairs
}

/// The textbook closure computation: apply every rule until nothing new is
/// produced. Exponentially slower than [`rdfs_closure`] on transitive chains
/// (each round only extends paths by one step) but trivially faithful to
/// Definition 2.7; used as the executable specification in tests.
pub fn naive_closure(g: &Graph) -> Graph {
    let mut closure = g.clone();
    loop {
        let new = one_step(&closure);
        let before = closure.len();
        closure.extend(new.iter().cloned());
        if closure.len() == before {
            return closure;
        }
    }
}

/// Decides `t ∈ RDFS-cl(G)` without materialising the whole closure
/// (Theorem 3.6(4) gives an `O(|G| log |G|)` bound; this implementation uses
/// reachability queries over the `sp`/`sc` subgraphs plus a bounded number of
/// index lookups).
pub fn closure_contains(g: &Graph, t: &Triple) -> bool {
    if g.contains(t) {
        return true;
    }
    // The fast membership test assumes the reserved vocabulary is only used
    // in predicate position (plus as subjects/objects of other reserved
    // predicates is *not* allowed). Graphs such as (q, sp, sc) re-route
    // ordinary triples into the sc relation and invalidate the shortcuts, so
    // for those (rare, pathological) graphs we fall back to the materialised
    // closure. This mirrors the restriction of Theorem 3.16.
    let feedback = g.iter().any(|e| {
        e.node_terms()
            .any(|term| matches!(term, Term::Iri(iri) if rdfs::is_reserved(iri)))
    });
    if feedback {
        return rdfs_closure(g).contains(t);
    }
    let sp = rdfs::sp();
    let sc = rdfs::sc();
    let type_ = rdfs::type_();
    let dom = rdfs::dom();
    let range = rdfs::range();
    let p = t.predicate();

    // Helper: reachability in the sp / sc relation (path of length ≥ 1).
    let reach = |predicate: &Iri, from: &Term, to: &Term| -> bool {
        let mut succ: BTreeMap<&Term, Vec<&Term>> = BTreeMap::new();
        for e in g.triples_with_predicate(predicate) {
            succ.entry(e.subject()).or_default().push(e.object());
        }
        let mut seen: BTreeSet<&Term> = BTreeSet::new();
        let mut frontier: Vec<&Term> = succ.get(from).cloned().unwrap_or_default();
        while let Some(x) = frontier.pop() {
            if x == to {
                return true;
            }
            if seen.insert(x) {
                if let Some(more) = succ.get(x) {
                    frontier.extend(more.iter().copied());
                }
            }
        }
        false
    };

    // Terms with a reflexive (x, sp, x) in the closure.
    let sp_reflexive = |x: &Term| -> bool {
        if let Term::Iri(iri) = x {
            if rdfs::is_reserved(iri) {
                return true; // rule (9)
            }
        }
        g.iter().any(|e| {
            Term::Iri(e.predicate().clone()) == *x // rule (8)
                || ((e.predicate() == &dom || e.predicate() == &range) && e.subject() == x) // rule (10)
                || (e.predicate() == &sp && (e.subject() == x || e.object() == x))
            // rule (11)
        })
    };
    // Terms with a reflexive (x, sc, x) in the closure.
    let sc_reflexive = |x: &Term| -> bool {
        g.iter().any(|e| {
            ((e.predicate() == &dom || e.predicate() == &range || e.predicate() == &type_)
                && e.object() == x)
                || (e.predicate() == &sc && (e.subject() == x || e.object() == x))
        })
    };

    if p == &sp {
        if t.subject() == t.object() {
            return sp_reflexive(t.subject());
        }
        return reach(&sp, t.subject(), t.object());
    }
    if p == &sc {
        if t.subject() == t.object() {
            return sc_reflexive(t.subject());
        }
        return reach(&sc, t.subject(), t.object());
    }
    if p == &type_ {
        // (x, type, b) is derivable iff there is a class a with
        // (x, type, a) ∈ cl(G) "directly" (from G or via dom/range typing)
        // and a = b or (a, sc, b) in the sc closure.
        let direct_types: BTreeSet<Term> = direct_type_classes(g, t.subject());
        return direct_types
            .iter()
            .any(|a| a == t.object() || reach(&sc, a, t.object()));
    }
    if p == &dom || p == &range {
        // dom / range triples are never derived by any rule.
        return false;
    }
    // Ordinary predicate q: (x, q, y) is derivable (rule 3) iff there is a
    // predicate c with (x, c, y) ∈ G and c = q or (c, sp, q) in the sp
    // closure.
    g.iter().any(|e| {
        e.subject() == t.subject()
            && e.object() == t.object()
            && (e.predicate() == p
                || reach(
                    &sp,
                    &Term::Iri(e.predicate().clone()),
                    &Term::Iri(p.clone()),
                ))
    })
}

/// The classes `a` such that `(x, type, a)` is derivable without using rule
/// (5) (i.e. either asserted, or obtained from domain/range typing through
/// rules (6)/(7) with the sp closure).
fn direct_type_classes(g: &Graph, x: &Term) -> BTreeSet<Term> {
    let sp = rdfs::sp();
    let type_ = rdfs::type_();
    let dom = rdfs::dom();
    let range = rdfs::range();
    let mut out: BTreeSet<Term> = BTreeSet::new();
    for t in g.triples_with_predicate(&type_) {
        if t.subject() == x {
            out.insert(t.object().clone());
        }
    }
    // sp closure as pairs, plus reflexivity on every predicate in use.
    let sp_pairs = relation_transitive_closure(g, &sp);
    let sp_reaches = |c: &Iri, a: &Term| -> bool {
        Term::Iri(c.clone()) == *a || sp_pairs.contains(&(Term::Iri(c.clone()), a.clone()))
    };
    for (declared, is_domain) in [(&dom, true), (&range, false)] {
        for decl in g.triples_with_predicate(declared) {
            let a = decl.subject();
            let b = decl.object();
            for t in g.iter() {
                if !sp_reaches(t.predicate(), a) {
                    continue;
                }
                let typed = if is_domain { t.subject() } else { t.object() };
                if typed == x {
                    out.insert(b.clone());
                }
            }
        }
    }
    out
}

/// Statistics about a closure computation: the quadratic growth of
/// Theorem 3.6(3), which `tests/paper_results.rs::theorem_3_6_closure_properties`
/// pins on the `sp`-chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosureStats {
    /// Number of triples in the input graph.
    pub input_triples: usize,
    /// Number of triples in the closure.
    pub closure_triples: usize,
    /// Number of terms in the universe of the input.
    pub universe_size: usize,
}

impl ClosureStats {
    /// Computes the statistics for a graph.
    pub fn for_graph(g: &Graph) -> ClosureStats {
        let closure = rdfs_closure(g);
        ClosureStats {
            input_triples: g.len(),
            closure_triples: closure.len(),
            universe_size: g.universe().len(),
        }
    }

    /// The ratio `|cl(G)| / |G|²`, the quantity that Theorem 3.6(3) bounds
    /// between constants for worst-case families.
    pub fn quadratic_ratio(&self) -> f64 {
        if self.input_triples == 0 {
            return 0.0;
        }
        self.closure_triples as f64 / (self.input_triples as f64 * self.input_triples as f64)
    }
}

/// Returns the rule identifiers whose applications are reachable from the
/// graph (useful for explaining closures in the examples).
pub fn applicable_rules(g: &Graph) -> Vec<RuleId> {
    RuleId::ALL
        .into_iter()
        .filter(|r| !crate::rules::applications(*r, g).is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_model::{graph, triple};

    #[test]
    fn closure_of_empty_graph_is_the_axiomatic_triples() {
        let cl = rdfs_closure(&Graph::new());
        assert_eq!(cl.len(), 5, "exactly the five (p, sp, p) axioms");
        assert!(cl.contains(&triple(rdfs::SP, rdfs::SP, rdfs::SP)));
    }

    #[test]
    fn closure_contains_input() {
        let g = graph([("ex:a", "ex:p", "ex:b")]);
        let cl = rdfs_closure(&g);
        assert!(g.is_subgraph_of(&cl));
    }

    #[test]
    fn subclass_chain_is_transitively_closed_and_types_are_lifted() {
        let g = graph([
            ("ex:Painter", rdfs::SC, "ex:Artist"),
            ("ex:Artist", rdfs::SC, "ex:Person"),
            ("ex:Picasso", rdfs::TYPE, "ex:Painter"),
        ]);
        let cl = rdfs_closure(&g);
        assert!(cl.contains(&triple("ex:Painter", rdfs::SC, "ex:Person")));
        assert!(cl.contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Artist")));
        assert!(cl.contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Person")));
        assert!(cl.contains(&triple("ex:Painter", rdfs::SC, "ex:Painter")));
    }

    #[test]
    fn subproperty_inheritance_and_domain_range_typing() {
        let g = graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:creates", rdfs::DOM, "ex:Artist"),
            ("ex:creates", rdfs::RANGE, "ex:Artifact"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
        ]);
        let cl = rdfs_closure(&g);
        assert!(cl.contains(&triple("ex:Picasso", "ex:creates", "ex:Guernica")));
        assert!(cl.contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Artist")));
        assert!(cl.contains(&triple("ex:Guernica", rdfs::TYPE, "ex:Artifact")));
        // dom typing also applies through the subproperty (rule 6 with C =
        // paints, A = creates).
        assert!(cl.contains(&triple("ex:paints", rdfs::SP, "ex:paints")));
    }

    #[test]
    fn marin_completion_rules_6_7_fire_without_explicit_usage_of_super_property() {
        // Note 2.4: a blank node standing for a property. (a, sp, X),
        // (X, dom, b): rule (6) must still type subjects of a-triples.
        let g = graph([
            ("ex:a", rdfs::SP, "_:X"),
            ("_:X", rdfs::DOM, "ex:B"),
            ("ex:s", "ex:a", "ex:o"),
        ]);
        let cl = rdfs_closure(&g);
        assert!(
            cl.contains(&triple("ex:s", rdfs::TYPE, "ex:B")),
            "rule (6) with C = ex:a, A = _:X must fire"
        );
    }

    #[test]
    fn optimised_closure_matches_naive_closure() {
        let cases = vec![
            graph([("ex:a", "ex:p", "ex:b")]),
            graph([
                ("ex:Painter", rdfs::SC, "ex:Artist"),
                ("ex:Artist", rdfs::SC, "ex:Person"),
                ("ex:Picasso", rdfs::TYPE, "ex:Painter"),
            ]),
            graph([
                ("ex:paints", rdfs::SP, "ex:creates"),
                ("ex:creates", rdfs::SP, "ex:makes"),
                ("ex:creates", rdfs::DOM, "ex:Artist"),
                ("ex:paints", rdfs::RANGE, "ex:Painting"),
                ("ex:Picasso", "ex:paints", "ex:Guernica"),
                ("_:X", "ex:paints", "_:Y"),
            ]),
            graph([
                ("ex:p", rdfs::SP, rdfs::SC),
                ("ex:A", "ex:p", "ex:B"),
                ("ex:x", rdfs::TYPE, "ex:A"),
            ]),
        ];
        for g in cases {
            assert_eq!(
                rdfs_closure(&g),
                naive_closure(&g),
                "closures differ for {g}"
            );
        }
    }

    #[test]
    fn feedback_through_sp_of_sc_is_handled() {
        // (p, sp, sc) turns p-triples into sc-triples, which must then be
        // transitively closed and used for type lifting.
        let g = graph([
            ("ex:p", rdfs::SP, rdfs::SC),
            ("ex:A", "ex:p", "ex:B"),
            ("ex:B", rdfs::SC, "ex:C"),
            ("ex:x", rdfs::TYPE, "ex:A"),
        ]);
        let cl = rdfs_closure(&g);
        assert!(cl.contains(&triple("ex:A", rdfs::SC, "ex:B")));
        assert!(cl.contains(&triple("ex:A", rdfs::SC, "ex:C")));
        assert!(cl.contains(&triple("ex:x", rdfs::TYPE, "ex:C")));
    }

    #[test]
    fn closure_is_idempotent() {
        let g = graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:creates", rdfs::DOM, "ex:Artist"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
        ]);
        let cl = rdfs_closure(&g);
        assert_eq!(rdfs_closure(&cl), cl);
    }

    #[test]
    fn closure_membership_agrees_with_materialised_closure() {
        let g = graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:creates", rdfs::SP, "ex:does"),
            ("ex:creates", rdfs::DOM, "ex:Artist"),
            ("ex:creates", rdfs::RANGE, "ex:Artifact"),
            ("ex:Artist", rdfs::SC, "ex:Person"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
            ("_:X", "ex:paints", "ex:LesDemoiselles"),
        ]);
        let cl = rdfs_closure(&g);
        // Every triple of the materialised closure is found by the membership
        // test...
        for t in cl.iter() {
            assert!(closure_contains(&g, t), "membership test missed {t}");
        }
        // ...and some triples clearly outside the closure are rejected.
        assert!(!closure_contains(
            &g,
            &triple("ex:Picasso", "ex:hates", "ex:Guernica")
        ));
        assert!(!closure_contains(
            &g,
            &triple("ex:Guernica", rdfs::TYPE, "ex:Person")
        ));
        assert!(!closure_contains(
            &g,
            &triple("ex:does", rdfs::SP, "ex:paints")
        ));
        assert!(!closure_contains(
            &g,
            &triple("ex:paints", rdfs::DOM, "ex:Artist")
        ));
    }

    #[test]
    fn applicable_rules_reports_firing_rules() {
        let g = graph([
            ("ex:Painter", rdfs::SC, "ex:Artist"),
            ("ex:x", rdfs::TYPE, "ex:Painter"),
        ]);
        let rules = applicable_rules(&g);
        assert!(rules.contains(&RuleId::TypeLifting));
        assert!(rules.contains(&RuleId::SubClassReflexivity));
        assert!(!rules.contains(&RuleId::SubPropertyTransitivity));
    }
}
