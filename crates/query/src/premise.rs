//! Premise elimination (Proposition 5.9, Example 5.10).
//!
//! For *simple* queries (no RDFS vocabulary interpreted), a query with a
//! premise can be rewritten into a union of premise-free queries: for every
//! subset `R ⊆ B` and every map `μ : R → P` such that `μ(B − R)` has no
//! blank nodes, the query `q_μ = (μ(H), μ(B − R), ∅)` is added to the set
//! `Ω_q`. The answer to `q` over any database is the union of the answers of
//! the members of `Ω_q`.
//!
//! The rewriting is worst-case exponential in `|B|` (it enumerates subsets),
//! which is exactly why containment with premises jumps from NP to Π₂ᵖ in
//! Theorem 5.12. `tests/paper_results.rs` checks the rewriting end to end
//! (`proposition_5_9_premise_elimination_preserves_answers_end_to_end`).

use std::collections::BTreeSet;

use swdb_hom::{Binding, PatternGraph, PatternTerm, TriplePattern, Variable};
use swdb_model::{Graph, Term, Triple};

use crate::answer::{combine, pre_answers, Semantics};
use crate::query::Query;

/// Computes the premise-free expansion `Ω_q` of a query.
///
/// The query should be *simple* (see [`Query::is_simple`]); the expansion is
/// still computed for non-simple queries, but Proposition 5.9 only guarantees
/// answer preservation in the simple case (the paper notes the result fails
/// once RDFS vocabulary is interpreted).
///
/// The enumeration is **output-sensitive**: it recurses over the body
/// patterns, branching each into "stays in `B − R`" or "μ maps it onto a
/// unifiable premise triple", so the work is bounded by the number of
/// consistent partial `(R, μ)` prefixes — not by `2^|B|`. Bodies of any
/// length are handled completely (an earlier bitmask enumeration silently
/// capped subsets at 63 patterns, dropping members of `Ω_q`); the
/// *worst-case* size of `Ω_q` is still exponential (Theorem 5.12), which is
/// why the facade budgets `(|P|+1)^|B|` before choosing this mechanism and
/// routes oversized queries to the overlay instead.
pub fn premise_free_expansion(query: &Query) -> Vec<Query> {
    if query.is_premise_free() {
        return vec![query.clone()];
    }
    let premise: Vec<Triple> = query.premise().iter().cloned().collect();
    let body: Vec<TriplePattern> = query.body().patterns().to_vec();
    let mut builder = ExpansionBuilder {
        query,
        body: &body,
        premise: &premise,
        mu: Binding::new(),
        rest: Vec::new(),
        seen: BTreeSet::new(),
        members: Vec::new(),
    };
    builder.recurse(0);
    builder.members
}

/// The structural identity of an expansion member — head, body, and
/// constraints (the premise is always empty). Different `(R, μ)` pairs
/// frequently produce the same member; this key backs the set-based dedup
/// (the previous `Vec::contains` scan was quadratic in `|Ω_q|`, itself
/// worst-case exponential).
type MemberKey = (Vec<TriplePattern>, Vec<TriplePattern>, BTreeSet<Variable>);

struct ExpansionBuilder<'q> {
    query: &'q Query,
    body: &'q [TriplePattern],
    premise: &'q [Triple],
    /// The partial map μ, grown and shrunk along the recursion.
    mu: Binding,
    /// Indices of body patterns assigned to `B − R` so far.
    rest: Vec<usize>,
    seen: BTreeSet<MemberKey>,
    members: Vec<Query>,
}

impl ExpansionBuilder<'_> {
    fn recurse(&mut self, i: usize) {
        if i == self.body.len() {
            self.emit();
            return;
        }
        // Branch 1: pattern i stays in B − R (taken first, so the member
        // with R = ∅ — the original query with its premise dropped — is
        // always the first one emitted).
        self.rest.push(i);
        self.recurse(i + 1);
        self.rest.pop();
        // Branch 2: μ maps pattern i onto each premise triple it unifies
        // with under the bindings accumulated so far.
        for t in 0..self.premise.len() {
            let mut newly_bound = Vec::new();
            if unify(
                &self.body[i],
                &self.premise[t],
                &mut self.mu,
                &mut newly_bound,
            ) {
                self.recurse(i + 1);
            }
            for v in &newly_bound {
                self.mu.unbind(v);
            }
        }
    }

    /// One complete `(R, μ)` pair: run the blank-leak and constraint checks
    /// and materialize the member `q_μ = (μ(H), μ(B − R), ∅)`.
    fn emit(&mut self) {
        let mu = &self.mu;
        // μ(B − R) must have no blanks: no variable of B − R may be sent
        // to a blank node of P. (Each rest variable is checked once per
        // emitted pair — the per-μ set rebuild of the old enumeration is
        // gone with the enumeration itself.)
        let maps_rest_var_to_blank = self.rest.iter().any(|&i| {
            self.body[i]
                .variables()
                .any(|v| matches!(mu.get(v), Some(Term::Blank(_))))
        });
        if maps_rest_var_to_blank {
            return;
        }
        // Constraints on variables μ substitutes away are decided now:
        // a constrained variable sent to a blank of P makes the member
        // unsatisfiable (skip it), one sent to a ground term satisfies
        // its constraint (drop it); only constraints on variables that
        // survive into the member are carried over.
        let mut constraints: BTreeSet<Variable> = BTreeSet::new();
        for v in self.query.constraints() {
            match mu.get(v) {
                Some(Term::Blank(_)) => return,
                Some(_) => {}
                None => {
                    constraints.insert(v.clone());
                }
            }
        }
        // Head variables sent to blanks of P would also reintroduce
        // blanks, but into the head, which stays legal (heads may contain
        // blanks); we keep those.
        let new_head = apply_binding_to_pattern(self.query.head(), mu);
        let new_body: PatternGraph = self
            .rest
            .iter()
            .map(|&i| apply_binding_to_triple_pattern(&self.body[i], mu))
            .collect();
        let candidate = Query::with_all(new_head, new_body, Graph::new(), constraints);
        let Ok(candidate) = candidate else {
            // Unreachable in practice: μ binds every variable of R, so a
            // head (or surviving constrained) variable either keeps a
            // body occurrence in B − R or was substituted above. Kept as
            // a guard so a malformed member can never enter Ω_q.
            return;
        };
        let key: MemberKey = (
            candidate.head().patterns().to_vec(),
            candidate.body().patterns().to_vec(),
            candidate.constraints().clone(),
        );
        if self.seen.insert(key) {
            self.members.push(candidate);
        }
    }
}

/// Unifies one body pattern with one premise triple under the partial map
/// `mu`, binding previously-free variables (recorded into `newly_bound` so
/// the caller can backtrack). Returns `false` on any mismatch; partially
/// added bindings are left for the caller to undo via `newly_bound`.
fn unify(
    pattern: &TriplePattern,
    triple: &Triple,
    mu: &mut Binding,
    newly_bound: &mut Vec<Variable>,
) -> bool {
    let predicate = Term::Iri(triple.predicate().clone());
    let positions = [
        (&pattern.subject, triple.subject()),
        (&pattern.predicate, &predicate),
        (&pattern.object, triple.object()),
    ];
    for (position, actual) in positions {
        match position {
            PatternTerm::Const(c) => {
                if c != actual {
                    return false;
                }
            }
            PatternTerm::Var(v) => match mu.get(v) {
                Some(bound) => {
                    if bound != actual {
                        return false;
                    }
                }
                None => {
                    mu.bind(v.clone(), actual.clone());
                    newly_bound.push(v.clone());
                }
            },
        }
    }
    true
}

fn apply_binding_to_pattern(pattern: &PatternGraph, binding: &Binding) -> PatternGraph {
    pattern
        .patterns()
        .iter()
        .map(|p| apply_binding_to_triple_pattern(p, binding))
        .collect()
}

fn apply_binding_to_triple_pattern(pattern: &TriplePattern, binding: &Binding) -> TriplePattern {
    let apply = |pos: &PatternTerm| -> PatternTerm {
        match pos {
            PatternTerm::Var(v) => match binding.get(v) {
                Some(term) => PatternTerm::Const(term.clone()),
                None => pos.clone(),
            },
            PatternTerm::Const(_) => pos.clone(),
        }
    };
    TriplePattern::new(
        apply(&pattern.subject),
        apply(&pattern.predicate),
        apply(&pattern.object),
    )
}

/// Evaluates a union of queries: the union (or merge) of the individual
/// answers (Proposition 5.11 treats such unions as first-class queries).
pub fn answer_union_of_queries(queries: &[Query], database: &Graph, semantics: Semantics) -> Graph {
    // Set-backed dedup: with an exponential-sized expansion the former
    // `Vec::contains` scan made this loop quadratic in |Ω_q| · |answers|.
    let mut seen: BTreeSet<Graph> = BTreeSet::new();
    let mut singles: Vec<Graph> = Vec::new();
    for q in queries {
        for single in pre_answers(q, database) {
            if seen.insert(single.clone()) {
                singles.push(single);
            }
        }
    }
    combine(singles, semantics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::answer_union;
    use crate::query::Query;
    use swdb_hom::pattern_graph;
    use swdb_model::{graph, triple};

    /// Example 5.10: q: (?X, p, ?Y) ← (?X, q, ?Y), (?Y, t, s) with premise
    /// P = {(a, t, s), (b, t, s)}.
    fn example_5_10() -> Query {
        Query::with_premise(
            pattern_graph([("?X", "ex:p", "?Y")]),
            pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
            graph([("ex:a", "ex:t", "ex:s"), ("ex:b", "ex:t", "ex:s")]),
        )
        .unwrap()
    }

    #[test]
    fn example_5_10_expansion_contains_the_three_expected_queries() {
        let q = example_5_10();
        let expansion = premise_free_expansion(&q);
        // q1: (?X, p, a) ← (?X, q, a);  q2: (?X, p, b) ← (?X, q, b);
        // q3: the original query with empty premise.
        let q1 = Query::new(
            pattern_graph([("?X", "ex:p", "ex:a")]),
            pattern_graph([("?X", "ex:q", "ex:a")]),
        )
        .unwrap();
        let q2 = Query::new(
            pattern_graph([("?X", "ex:p", "ex:b")]),
            pattern_graph([("?X", "ex:q", "ex:b")]),
        )
        .unwrap();
        let q3 = Query::new(
            pattern_graph([("?X", "ex:p", "?Y")]),
            pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
        )
        .unwrap();
        for expected in [&q1, &q2, &q3] {
            assert!(
                expansion.contains(expected),
                "expansion must contain {expected}, got {} queries",
                expansion.len()
            );
        }
        assert!(expansion.iter().all(Query::is_premise_free));
    }

    #[test]
    fn proposition_5_9_expansion_preserves_answers() {
        let q = example_5_10();
        let databases = [
            graph([("ex:u", "ex:q", "ex:a")]),
            graph([("ex:u", "ex:q", "ex:a"), ("ex:v", "ex:q", "ex:b")]),
            graph([("ex:u", "ex:q", "ex:c"), ("ex:c", "ex:t", "ex:s")]),
            graph([("ex:u", "ex:q", "ex:c")]),
            Graph::new(),
        ];
        let expansion = premise_free_expansion(&q);
        for d in &databases {
            let direct = answer_union(&q, d);
            let via_expansion = answer_union_of_queries(&expansion, d, Semantics::Union);
            assert_eq!(direct, via_expansion, "answers must agree on database {d}");
        }
    }

    #[test]
    fn expansion_of_premise_free_query_is_itself() {
        let q = crate::query::query([("?X", "ex:p", "?Y")], [("?X", "ex:p", "?Y")]);
        let expansion = premise_free_expansion(&q);
        assert_eq!(expansion.len(), 1);
        assert_eq!(expansion[0], q);
    }

    #[test]
    fn blank_premise_values_do_not_leak_into_bodies() {
        // The premise has a blank node; μ may send body variables of R to it,
        // but only if those variables do not occur in B − R.
        let q = Query::with_premise(
            pattern_graph([("?X", "ex:p", "?Y")]),
            pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
            graph([("_:B", "ex:t", "ex:s")]),
        )
        .unwrap();
        let expansion = premise_free_expansion(&q);
        for variant in &expansion {
            let body_has_blank = variant.body().patterns().iter().any(|p| {
                [&p.subject, &p.predicate, &p.object]
                    .into_iter()
                    .any(|pos| matches!(pos, PatternTerm::Const(t) if t.is_blank()))
            });
            assert!(
                !body_has_blank,
                "no expanded body may contain blanks: {variant}"
            );
        }
        // Answers still agree.
        let d = graph([("ex:u", "ex:q", "ex:w"), ("ex:w", "ex:t", "ex:s")]);
        assert_eq!(
            answer_union(&q, &d),
            answer_union_of_queries(&expansion, &d, Semantics::Union)
        );
    }

    #[test]
    fn premise_answers_combine_data_and_premise_matches() {
        // A body triple can match partly in the premise and partly in the
        // data.
        let q = example_5_10();
        let d = graph([("ex:u", "ex:q", "ex:a")]);
        let answers = answer_union(&q, &d);
        assert!(answers.contains(&triple("ex:u", "ex:p", "ex:a")));
        // (u, q, a) is in the data, (a, t, s) in the premise.
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn constraints_on_substituted_variables_are_decided_at_expansion_time() {
        // The only useful member maps the whole body into P, substituting
        // the constrained ?Y to the ground ex:b — the constraint is then
        // satisfied and must be dropped, not turned into a malformed (and
        // silently skipped) member.
        let q = Query::with_all(
            pattern_graph([("?X", "ex:p", "?Y")]),
            pattern_graph([("?X", "ex:q", "?Y")]),
            graph([("ex:a", "ex:q", "ex:b")]),
            [Variable::new("Y")].into_iter().collect(),
        )
        .unwrap();
        let expansion = premise_free_expansion(&q);
        let d = Graph::new();
        let via_expansion = answer_union_of_queries(&expansion, &d, Semantics::Union);
        assert_eq!(
            answer_union(&q, &d),
            via_expansion,
            "the fully-premise-matched member must survive with its constraint discharged"
        );
        assert!(via_expansion.contains(&triple("ex:a", "ex:p", "ex:b")));
        // A blank premise value violates the constraint: the member is
        // dropped and the answer stays empty.
        let blanked = q.replacing_premise(graph([("ex:a", "ex:q", "_:B")]));
        let expansion = premise_free_expansion(&blanked);
        assert_eq!(
            answer_union(&blanked, &d),
            answer_union_of_queries(&expansion, &d, Semantics::Union),
        );
        assert!(answer_union_of_queries(&expansion, &d, Semantics::Union).is_empty());
    }

    #[test]
    fn bodies_past_63_patterns_expand_completely() {
        // Regression: the former bitmask enumeration capped subsets at
        // `1u64 << n.min(63)`, so pattern 64+ could never enter R and the
        // members substituting it were silently dropped. The body below has
        // 64 filler patterns over a predicate the premise cannot match plus
        // one trailing pattern that *does* match the premise — exactly the
        // member the cap used to lose.
        let mut body_patterns: Vec<(String, String, String)> = (0..64)
            .map(|i| (format!("?F{i}"), format!("ex:filler{i}"), format!("?G{i}")))
            .collect();
        body_patterns.push(("?Z".into(), "ex:t".into(), "ex:s".into()));
        let body: PatternGraph = body_patterns
            .iter()
            .map(|(s, p, o)| {
                TriplePattern::new(
                    PatternTerm::Var(Variable::new(s)),
                    PatternTerm::iri(p),
                    PatternTerm::Const(Term::iri(o.as_str())),
                )
            })
            .collect();
        let q = Query::with_premise(
            pattern_graph([("?Z", "ex:p", "ex:s")]),
            body,
            graph([("ex:a", "ex:t", "ex:s")]),
        )
        .unwrap();
        let expansion = premise_free_expansion(&q);
        // R = ∅ (premise dropped) and R = {(?Z, ex:t, ex:s) ↦ (a, t, s)}.
        assert_eq!(expansion.len(), 2, "the matched member must not be lost");
        let matched = expansion
            .iter()
            .find(|m| m.body().patterns().len() == 64)
            .expect("the member that substituted ?Z away");
        assert!(matched
            .head()
            .patterns()
            .iter()
            .any(|p| p.subject == PatternTerm::Const(Term::iri("ex:a"))));
        // And the recursion is output-sensitive: this ran in microseconds,
        // where 2^64 bitmask iterations would never have terminated.
    }

    #[test]
    fn expansion_deduplicates_members_produced_by_different_subsets() {
        // Two identical body patterns: R = {0} and R = {1} produce the same
        // member; the set-backed dedup must keep one.
        let q = Query::with_premise(
            pattern_graph([("?X", "ex:p", "?X")]),
            pattern_graph([("?X", "ex:t", "ex:s"), ("?X", "ex:t", "ex:s")]),
            graph([("ex:a", "ex:t", "ex:s")]),
        )
        .unwrap();
        let expansion = premise_free_expansion(&q);
        let mut rendered: Vec<String> = expansion.iter().map(|m| m.to_string()).collect();
        let total = rendered.len();
        rendered.sort();
        rendered.dedup();
        assert_eq!(rendered.len(), total, "Ω_q must be duplicate-free");
    }

    #[test]
    fn expansion_size_grows_with_premise_matches() {
        // Ω_q grows with the number of maps from subsets of B into P.
        let base = example_5_10();
        let small = premise_free_expansion(&base).len();
        let bigger_premise = base.replacing_premise(graph([
            ("ex:a", "ex:t", "ex:s"),
            ("ex:b", "ex:t", "ex:s"),
            ("ex:c", "ex:t", "ex:s"),
            ("ex:d", "ex:t", "ex:s"),
        ]));
        let large = premise_free_expansion(&bigger_premise).len();
        assert!(large > small, "more premise facts, more expansion members");
    }
}
