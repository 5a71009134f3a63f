//! The RDFS rule system (paper rules (2)–(13)) over interned identifiers.
//!
//! Each rule is a list of hypothesis [`TriplePattern`]s, a list of
//! conclusion patterns, and IRI guards (variables that must denote URIs for
//! the conclusion to be well formed — the paper's instantiation condition).
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

use swdb_store::{IdTriple, TermId};

use crate::pattern::{k, v, TriplePattern, VarId};

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
    /// Premise patterns, joined left to right.
    pub hypotheses: Vec<TriplePattern>,
    /// Conclusion patterns; every variable occurs in some hypothesis.
    pub conclusions: Vec<TriplePattern>,
    /// Variables that must bind to URI ids (the instantiation condition:
    /// no blank node may end up in predicate position of a conclusion).
    pub iri_guards: Vec<VarId>,
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
        let rules = vec![
            Rule {
                paper_number: 2,
                name: "subproperty transitivity",
                hypotheses: vec![
                    TriplePattern::new(v(0), k(sp), v(1)),
                    TriplePattern::new(v(1), k(sp), v(2)),
                ],
                conclusions: vec![TriplePattern::new(v(0), k(sp), v(2))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 3,
                name: "subproperty inheritance",
                hypotheses: vec![
                    TriplePattern::new(v(0), k(sp), v(1)),
                    TriplePattern::new(v(2), v(0), v(3)),
                ],
                conclusions: vec![TriplePattern::new(v(2), v(1), v(3))],
                // The conclusion uses v1 as predicate; v0 is already IRI by
                // virtue of appearing in predicate position of a premise.
                iri_guards: vec![1],
            },
            Rule {
                paper_number: 4,
                name: "subclass transitivity",
                hypotheses: vec![
                    TriplePattern::new(v(0), k(sc), v(1)),
                    TriplePattern::new(v(1), k(sc), v(2)),
                ],
                conclusions: vec![TriplePattern::new(v(0), k(sc), v(2))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 5,
                name: "type lifting",
                hypotheses: vec![
                    TriplePattern::new(v(0), k(sc), v(1)),
                    TriplePattern::new(v(2), k(ty), v(0)),
                ],
                conclusions: vec![TriplePattern::new(v(2), k(ty), v(1))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 6,
                name: "domain typing",
                hypotheses: vec![
                    TriplePattern::new(v(0), k(dom), v(1)),
                    TriplePattern::new(v(2), k(sp), v(0)),
                    TriplePattern::new(v(3), v(2), v(4)),
                ],
                conclusions: vec![TriplePattern::new(v(3), k(ty), v(1))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 7,
                name: "range typing",
                hypotheses: vec![
                    TriplePattern::new(v(0), k(range), v(1)),
                    TriplePattern::new(v(2), k(sp), v(0)),
                    TriplePattern::new(v(3), v(2), v(4)),
                ],
                conclusions: vec![TriplePattern::new(v(4), k(ty), v(1))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 8,
                name: "predicate reflexivity",
                hypotheses: vec![TriplePattern::new(v(0), v(1), v(2))],
                conclusions: vec![TriplePattern::new(v(1), k(sp), v(1))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 10,
                name: "domain-subject reflexivity",
                hypotheses: vec![TriplePattern::new(v(0), k(dom), v(1))],
                conclusions: vec![TriplePattern::new(v(0), k(sp), v(0))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 10,
                name: "range-subject reflexivity",
                hypotheses: vec![TriplePattern::new(v(0), k(range), v(1))],
                conclusions: vec![TriplePattern::new(v(0), k(sp), v(0))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 11,
                name: "subproperty reflexivity",
                hypotheses: vec![TriplePattern::new(v(0), k(sp), v(1))],
                conclusions: vec![
                    TriplePattern::new(v(0), k(sp), v(0)),
                    TriplePattern::new(v(1), k(sp), v(1)),
                ],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 12,
                name: "domain-class reflexivity",
                hypotheses: vec![TriplePattern::new(v(0), k(dom), v(1))],
                conclusions: vec![TriplePattern::new(v(1), k(sc), v(1))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 12,
                name: "range-class reflexivity",
                hypotheses: vec![TriplePattern::new(v(0), k(range), v(1))],
                conclusions: vec![TriplePattern::new(v(1), k(sc), v(1))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 12,
                name: "type-class reflexivity",
                hypotheses: vec![TriplePattern::new(v(0), k(ty), v(1))],
                conclusions: vec![TriplePattern::new(v(1), k(sc), v(1))],
                iri_guards: vec![],
            },
            Rule {
                paper_number: 13,
                name: "subclass reflexivity",
                hypotheses: vec![TriplePattern::new(v(0), k(sc), v(1))],
                conclusions: vec![
                    TriplePattern::new(v(0), k(sc), v(0)),
                    TriplePattern::new(v(1), k(sc), v(1)),
                ],
                iri_guards: vec![],
            },
        ];

        let mut by_predicate: BTreeMap<TermId, Vec<RulePath>> = BTreeMap::new();
        let mut wildcard = Vec::new();
        for (rule_idx, rule) in rules.iter().enumerate() {
            for (hyp_idx, hyp) in rule.hypotheses.iter().enumerate() {
                match hyp.p {
                    crate::pattern::PatternTerm::Const(p) => {
                        by_predicate.entry(p).or_default().push((rule_idx, hyp_idx));
                    }
                    crate::pattern::PatternTerm::Var(_) => wildcard.push((rule_idx, hyp_idx)),
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
            let mut bound = [false; crate::pattern::MAX_VARS];
            for hyp in &rule.hypotheses {
                for term in [hyp.s, hyp.p, hyp.o] {
                    if let crate::pattern::PatternTerm::Var(v) = term {
                        bound[v as usize] = true;
                    }
                }
            }
            for conclusion in &rule.conclusions {
                for term in [conclusion.s, conclusion.p, conclusion.o] {
                    if let crate::pattern::PatternTerm::Var(v) = term {
                        assert!(
                            bound[v as usize],
                            "rule ({}) concludes with unbound variable {v}",
                            rule.paper_number
                        );
                    }
                }
            }
        }
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
