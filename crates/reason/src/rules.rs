//! The RDFS rule system (paper rules (2)–(13)) over interned identifiers.
//!
//! Each rule is a list of hypothesis [`IdTriplePattern`]s (what the shared
//! [`swdb_hom::IdSolver`] joins; variables are slots of a [`Binding`]), a
//! list of conclusion patterns, IRI guards (variables that must denote URIs
//! for the conclusion to be well formed — the paper's instantiation
//! condition) and the static join orders of its seeded searches.
//! The [`RuleSystem`] additionally indexes every hypothesis by its predicate
//! position, inferdf-style: when a delta triple arrives, only the
//! `(rule, hypothesis)` paths whose predicate is that triple's predicate —
//! plus the variable-predicate paths — are woken, instead of re-evaluating
//! every rule against the whole store.
//!
//! Rule (9), the axiomatic reflexivity of the vocabulary, has no hypotheses;
//! it is represented by [`RuleSystem::axioms`] and seeded into the closure
//! once rather than participating in delta propagation.

use std::collections::BTreeMap;
use std::sync::Arc;

use swdb_hom::{IdPatternTerm, IdTriplePattern};
use swdb_store::{Dictionary, IdTriple, TermId};

/// Variable slots per rule: rules (6) and (7) use five.
pub const SLOTS: usize = 5;

/// A rule's variable binding, one slot per variable. Every join seeds one
/// on the stack.
pub type Binding = [Option<TermId>; SLOTS];

/// The interned RDFS vocabulary: `rdfsV = {sp, sc, type, dom, range}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vocabulary {
    /// `rdfs:subPropertyOf`.
    pub sp: TermId,
    /// `rdfs:subClassOf`.
    pub sc: TermId,
    /// `rdf:type`.
    pub ty: TermId,
    /// `rdfs:domain`.
    pub dom: TermId,
    /// `rdfs:range`.
    pub range: TermId,
}

impl Vocabulary {
    /// The five axiomatic triples `(p, sp, p)` of rule (9).
    pub fn axioms(&self) -> [IdTriple; 5] {
        [
            (self.sp, self.sp, self.sp),
            (self.sc, self.sp, self.sc),
            (self.ty, self.sp, self.ty),
            (self.dom, self.sp, self.dom),
            (self.range, self.sp, self.range),
        ]
    }
}

/// One deduction rule in pattern form.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The paper's rule number (2–13).
    pub paper_number: u8,
    /// Human-readable name for diagnostics.
    pub name: &'static str,
    /// Premise patterns.
    pub hypotheses: Vec<IdTriplePattern>,
    /// Conclusion patterns; every variable occurs in some hypothesis.
    pub conclusions: Vec<IdTriplePattern>,
    /// Variables that must bind to URI ids (the instantiation condition:
    /// no blank node may end up in predicate position of a conclusion).
    pub iri_guards: &'static [usize],
    /// Per hypothesis, the join order of the other hypotheses once a delta
    /// triple is unified into it.
    pub(crate) delta_orders: Vec<Vec<usize>>,
    /// Per conclusion, the join order of every hypothesis once a triple is
    /// unified into it.
    pub(crate) probe_orders: Vec<Vec<usize>>,
}

impl Rule {
    fn new(
        paper_number: u8,
        name: &'static str,
        hypotheses: Vec<IdTriplePattern>,
        conclusions: Vec<IdTriplePattern>,
        iri_guards: &'static [usize],
    ) -> Rule {
        Rule {
            delta_orders: (0..hypotheses.len())
                .map(|i| join_order(&hypotheses, hypotheses[i], Some(i)))
                .collect(),
            probe_orders: conclusions
                .iter()
                .map(|&c| join_order(&hypotheses, c, None))
                .collect(),
            paper_number,
            name,
            hypotheses,
            conclusions,
            iri_guards,
        }
    }

    /// The instantiation condition: every guarded variable is bound to a
    /// URI id — one the dictionary does not classify as a blank node.
    pub(crate) fn guards_pass(&self, dictionary: &Dictionary, binding: &[Option<TermId>]) -> bool {
        self.iri_guards
            .iter()
            .all(|&v| binding[v].is_some_and(|id| !dictionary.is_blank(id)))
    }
}

/// The most-bound-first join order of `hypotheses` but `skip` once `seed`'s
/// variables are bound: repeatedly the hypothesis with the most bound
/// positions (the last on a tie), whose variables are then bound. After a
/// data triple binds rule (6)'s third hypothesis, the `(C, sp, A)` probe
/// thus runs before the unbound `(A, dom, B)` enumeration. A scan binds all
/// its variables, so the order does not depend on the triples matched.
fn join_order(
    hypotheses: &[IdTriplePattern],
    seed: IdTriplePattern,
    skip: Option<usize>,
) -> Vec<usize> {
    let mut bound: Binding = [None; SLOTS];
    let bind = |p: IdTriplePattern, bound: &mut Binding| {
        for term in [p.subject, p.predicate, p.object] {
            if let IdPatternTerm::Var(v) = term {
                bound[v] = Some(0);
            }
        }
    };
    bind(seed, &mut bound);
    let mut rest: Vec<usize> = (0..hypotheses.len()).filter(|&i| Some(i) != skip).collect();
    let mut order = Vec::with_capacity(rest.len());
    while !rest.is_empty() {
        let best = (0..rest.len())
            .max_by_key(|&j| {
                let (s, p, o) = hypotheses[rest[j]].to_scan(&bound);
                [s, p, o].iter().flatten().count()
            })
            .expect("non-empty hypothesis list");
        let chosen = rest.swap_remove(best);
        bind(hypotheses[chosen], &mut bound);
        order.push(chosen);
    }
    order
}

/// A `(rule index, hypothesis index)` path woken by a delta triple.
pub type RulePath = (usize, usize);

/// The indexed rule set.
#[derive(Clone, Debug)]
pub struct RuleSystem {
    vocab: Vocabulary,
    rules: Vec<Rule>,
    /// Hypothesis paths keyed by constant predicate id.
    by_predicate: BTreeMap<TermId, Vec<RulePath>>,
    /// Hypothesis paths whose predicate position is a variable: woken by
    /// every delta triple.
    wildcard: Vec<RulePath>,
    /// Per rule, its metrics label (`r02_subproperty_transitivity`).
    labels: Arc<[String]>,
}

impl RuleSystem {
    /// Builds the rule set for rules (2)–(13) over the given vocabulary ids.
    pub fn new(vocab: Vocabulary) -> Self {
        let Vocabulary {
            sp,
            sc,
            ty,
            dom,
            range,
        } = vocab;
        let v = IdPatternTerm::Var;
        let k = IdPatternTerm::Const;
        let t = |subject, predicate, object| IdTriplePattern {
            subject,
            predicate,
            object,
        };
        let rules = vec![
            Rule::new(
                2,
                "subproperty transitivity",
                vec![t(v(0), k(sp), v(1)), t(v(1), k(sp), v(2))],
                vec![t(v(0), k(sp), v(2))],
                &[],
            ),
            // The conclusion uses v1 as predicate; v0 is already IRI by
            // virtue of appearing in predicate position of a premise.
            Rule::new(
                3,
                "subproperty inheritance",
                vec![t(v(0), k(sp), v(1)), t(v(2), v(0), v(3))],
                vec![t(v(2), v(1), v(3))],
                &[1],
            ),
            Rule::new(
                4,
                "subclass transitivity",
                vec![t(v(0), k(sc), v(1)), t(v(1), k(sc), v(2))],
                vec![t(v(0), k(sc), v(2))],
                &[],
            ),
            Rule::new(
                5,
                "type lifting",
                vec![t(v(0), k(sc), v(1)), t(v(2), k(ty), v(0))],
                vec![t(v(2), k(ty), v(1))],
                &[],
            ),
            Rule::new(
                6,
                "domain typing",
                vec![
                    t(v(0), k(dom), v(1)),
                    t(v(2), k(sp), v(0)),
                    t(v(3), v(2), v(4)),
                ],
                vec![t(v(3), k(ty), v(1))],
                &[],
            ),
            Rule::new(
                7,
                "range typing",
                vec![
                    t(v(0), k(range), v(1)),
                    t(v(2), k(sp), v(0)),
                    t(v(3), v(2), v(4)),
                ],
                vec![t(v(4), k(ty), v(1))],
                &[],
            ),
            Rule::new(
                8,
                "predicate reflexivity",
                vec![t(v(0), v(1), v(2))],
                vec![t(v(1), k(sp), v(1))],
                &[],
            ),
            Rule::new(
                10,
                "domain-subject reflexivity",
                vec![t(v(0), k(dom), v(1))],
                vec![t(v(0), k(sp), v(0))],
                &[],
            ),
            Rule::new(
                10,
                "range-subject reflexivity",
                vec![t(v(0), k(range), v(1))],
                vec![t(v(0), k(sp), v(0))],
                &[],
            ),
            Rule::new(
                11,
                "subproperty reflexivity",
                vec![t(v(0), k(sp), v(1))],
                vec![t(v(0), k(sp), v(0)), t(v(1), k(sp), v(1))],
                &[],
            ),
            Rule::new(
                12,
                "domain-class reflexivity",
                vec![t(v(0), k(dom), v(1))],
                vec![t(v(1), k(sc), v(1))],
                &[],
            ),
            Rule::new(
                12,
                "range-class reflexivity",
                vec![t(v(0), k(range), v(1))],
                vec![t(v(1), k(sc), v(1))],
                &[],
            ),
            Rule::new(
                12,
                "type-class reflexivity",
                vec![t(v(0), k(ty), v(1))],
                vec![t(v(1), k(sc), v(1))],
                &[],
            ),
            Rule::new(
                13,
                "subclass reflexivity",
                vec![t(v(0), k(sc), v(1))],
                vec![t(v(0), k(sc), v(0)), t(v(1), k(sc), v(1))],
                &[],
            ),
        ];

        let mut by_predicate: BTreeMap<TermId, Vec<RulePath>> = BTreeMap::new();
        let mut wildcard = Vec::new();
        for (rule_idx, rule) in rules.iter().enumerate() {
            for (hyp_idx, hyp) in rule.hypotheses.iter().enumerate() {
                match hyp.predicate {
                    IdPatternTerm::Const(p) => {
                        by_predicate.entry(p).or_default().push((rule_idx, hyp_idx));
                    }
                    IdPatternTerm::Var(_) => wildcard.push((rule_idx, hyp_idx)),
                }
            }
        }
        let labels = rules
            .iter()
            .map(|r| format!("r{:02}_{}", r.paper_number, r.name.replace(' ', "_")));
        RuleSystem {
            vocab,
            labels: labels.collect(),
            rules,
            by_predicate,
            wildcard,
        }
    }

    /// The vocabulary ids the system was built over.
    pub fn vocabulary(&self) -> Vocabulary {
        self.vocab
    }

    /// The rules, in paper order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rules' metrics labels, in paper order, formatted once.
    pub fn labels(&self) -> &Arc<[String]> {
        &self.labels
    }

    /// The axiomatic triples of rule (9).
    pub fn axioms(&self) -> [IdTriple; 5] {
        self.vocab.axioms()
    }

    /// The paths whose hypothesis has the constant predicate `p`: woken by
    /// `p`-triples only.
    pub(crate) fn keyed_paths(&self, p: TermId) -> &[RulePath] {
        self.by_predicate.get(&p).map_or(&[], Vec::as_slice)
    }

    /// The variable-predicate paths: woken by every delta triple.
    pub(crate) fn wildcard_paths(&self) -> &[RulePath] {
        &self.wildcard
    }

    /// The `(rule, hypothesis)` paths a delta triple with predicate `p`
    /// wakes: the paths keyed on `p` plus the variable-predicate paths.
    pub fn paths_for_predicate(&self, p: TermId) -> impl Iterator<Item = RulePath> + '_ {
        self.keyed_paths(p)
            .iter()
            .chain(self.wildcard_paths())
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocabulary {
        Vocabulary {
            sp: 0,
            sc: 1,
            ty: 2,
            dom: 3,
            range: 4,
        }
    }

    #[test]
    fn every_conclusion_variable_occurs_in_a_hypothesis() {
        let system = RuleSystem::new(vocab());
        for rule in system.rules() {
            let mut bound: Binding = [None; SLOTS];
            for hyp in &rule.hypotheses {
                for term in [hyp.subject, hyp.predicate, hyp.object] {
                    if let IdPatternTerm::Var(v) = term {
                        bound[v] = Some(0);
                    }
                }
            }
            for conclusion in &rule.conclusions {
                let (s, p, o) = conclusion.to_scan(&bound);
                assert!(
                    s.and(p).and(o).is_some(),
                    "rule ({}) concludes with an unbound variable",
                    rule.paper_number
                );
            }
        }
    }

    #[test]
    fn join_orders_run_bound_first() {
        let system = RuleSystem::new(vocab());
        let domain_typing = &system.rules()[4];
        assert_eq!(domain_typing.paper_number, 6);
        // A data triple binds (C, A, D): the `(C, sp, A)` probe goes first.
        assert_eq!(domain_typing.delta_orders, [[1, 2], [0, 2], [1, 0]]);
        assert_eq!(domain_typing.probe_orders, [[0, 1, 2]]);
        // A tie goes to the last of the most-bound hypotheses.
        assert_eq!(system.rules()[0].probe_orders, [[1, 0]]);
    }

    #[test]
    fn the_index_wakes_sp_rules_for_sp_triples() {
        let system = RuleSystem::new(vocab());
        let woken: Vec<u8> = system
            .paths_for_predicate(system.vocabulary().sp)
            .map(|(rule, _)| system.rules()[rule].paper_number)
            .collect();
        assert!(woken.contains(&2), "sp transitivity must wake");
        assert!(woken.contains(&3), "sp inheritance must wake");
        assert!(woken.contains(&11), "sp reflexivity must wake");
        assert!(woken.contains(&8), "wildcard paths always wake");
        assert!(!woken.contains(&4), "sc transitivity must stay asleep");
    }

    #[test]
    fn ordinary_predicates_only_wake_wildcard_paths() {
        let system = RuleSystem::new(vocab());
        let woken: Vec<u8> = system
            .paths_for_predicate(99)
            .map(|(rule, _)| system.rules()[rule].paper_number)
            .collect();
        assert_eq!(
            woken,
            vec![3, 6, 7, 8],
            "rules with a variable-predicate hypothesis"
        );
    }

    #[test]
    fn axioms_cover_the_vocabulary() {
        let system = RuleSystem::new(vocab());
        let axioms = system.axioms();
        assert_eq!(axioms.len(), 5);
        for (s, p, o) in axioms {
            assert_eq!(p, vocab().sp);
            assert_eq!(s, o);
        }
    }
}
