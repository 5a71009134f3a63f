//! The query engine: the paper's one read operation, implemented once.
//!
//! Answering a query is a single operation in the paper — match the body
//! against `nf(D + P)` and instantiate the head (Definitions 4.1/4.3,
//! Theorem 4.6) — with Proposition 5.9 rewriting a premise query into a
//! union of premise-free ones. [`QueryEngine`] is that operation: a borrowed
//! view of one evaluation substrate that evaluates *a list of premise-free
//! member queries against one [`IdIndex`]*. The three [`Mechanism`]s differ
//! only in the list and the index:
//!
//! * premise-free — the query itself, against the evaluation index;
//! * expansion — the members of `Ω_q` ([`expansion_members`]), against the
//!   same index, single answers deduplicated across members;
//! * overlay — the query itself, against a fork of the evaluation index
//!   that its premise was committed into (`nf(D + P)`; see
//!   `swdb_normal::IdCoreEngine::overlay_core`).
//!
//! Every member is planned ([`crate::plan`]) and run by the one executor
//! ([`crate::exec`]). Every read — on a pinned snapshot or through the
//! facade, which reads on a snapshot of its own — and `explain` come
//! through here, so the dispatch, the counting conventions and the
//! degradation flag reported with an answer exist once.

use swdb_hom::Binding;
use swdb_model::Graph;
use swdb_obs::{Counter, Hist, Metrics};
use swdb_store::{Dictionary, IdIndex};

use crate::answer::{combine, Semantics};
use crate::exec::{AnswerSet, ExecHooks, ExecStats, Explain, JoinOrderLog, Singles};
use crate::plan::{self, expansion_members, PlanCache, Prepared};
use crate::query::Query;

/// How a query is evaluated (chosen per query by the facade's dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mechanism {
    /// No premise: the body joins the evaluation index directly.
    PremiseFree,
    /// Proposition 5.9: the union of the premise-free members of `Ω_q`,
    /// each joining the same evaluation index.
    Expansion,
    /// The premise committed into a fork of the evaluation index.
    Overlay,
}

impl Mechanism {
    /// The label [`Explain::mechanism`] carries.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::PremiseFree => "premise_free",
            Mechanism::Expansion => "expansion",
            Mechanism::Overlay => "overlay",
        }
    }
}

/// A borrowed view of one evaluation substrate with the four read
/// operations on it. It owns nothing: building one per call is free.
pub struct QueryEngine<'a> {
    /// The dictionary `target` is encoded against.
    pub dictionary: &'a Dictionary,
    /// What bodies are matched against.
    pub target: &'a IdIndex,
    /// Where plans and `Ω_q` expansions are kept between calls.
    pub cache: &'a PlanCache,
    /// Where the work is counted.
    pub metrics: &'a Metrics,
    /// The mechanism the dispatch chose for the query about to be run.
    pub mechanism: Mechanism,
    /// The substrate is a sound but possibly non-minimal superset of the
    /// true core (a core budget ran out): reported with every answer.
    pub non_minimal: bool,
}

/// What `explain` observes of an execution beyond its result.
#[derive(Default)]
struct Trace<'r> {
    /// Attached to the first member executed, then gone.
    recorder: Option<&'r JoinOrderLog>,
    /// The first executed member's compiled body and plan.
    first: Option<Prepared>,
    /// The `Ω_q` lookup outcome (expansion mechanism only).
    expansion_hit: Option<bool>,
    members: usize,
    stats: ExecStats,
}

impl QueryEngine<'_> {
    /// Runs `over` on the premise-free member queries that evaluate `query`
    /// against this engine's target, plus the `Ω_q` lookup outcome.
    fn with_members<R>(&self, query: &Query, over: impl FnOnce(&[Query], Option<bool>) -> R) -> R {
        if self.mechanism == Mechanism::Expansion {
            let (members, hit) = expansion_members(self.cache, query, self.metrics);
            over(&members, Some(hit))
        } else {
            over(std::slice::from_ref(query), None)
        }
    }

    /// Plans one member (a plan-cache hit, or planned now) and executes it
    /// with `run`. `None` when a body constant was never interned: such a
    /// member has no matching and is not executed.
    fn execute<R>(
        &self,
        member: &Query,
        trace: &mut Trace<'_>,
        run: impl FnOnce(ExecHooks<'_>, &mut ExecStats) -> R,
    ) -> Option<R> {
        let prepared = plan::prepare(
            self.cache,
            member,
            self.dictionary,
            self.target,
            self.metrics,
        )?;
        self.metrics.count(Counter::QueryCompiled, 1);
        trace.stats.probes += prepared.plan_probes;
        let result = run(prepared.hooks(trace.recorder.take()), &mut trace.stats);
        trace.first.get_or_insert(prepared);
        Some(result)
    }

    /// The distinct single answers of all members, in first-seen order.
    fn singles(&self, members: &[Query], trace: &mut Trace<'_>) -> Vec<Graph> {
        let mut out = Singles::default();
        for member in members {
            self.execute(member, trace, |hooks, stats| {
                self.exec_pre_answers(member, hooks, stats, &mut out)
            });
        }
        out.into_list()
    }

    fn answer_traced(
        &self,
        query: &Query,
        semantics: Semantics,
        trace: &mut Trace<'_>,
    ) -> AnswerSet {
        let mut answer = self.with_members(query, |members, expansion_hit| {
            trace.expansion_hit = expansion_hit;
            trace.members = members.len();
            match members {
                // One member answers directly: under union semantics its
                // head instantiations stay id triples, with no detour
                // through single answers.
                [only] => self
                    .execute(only, trace, |hooks, stats| {
                        self.exec_answer(only, semantics, hooks, stats)
                    })
                    .unwrap_or_default(),
                _ => combine(self.singles(members, trace), semantics).into(),
            }
        });
        answer.truncated = trace.stats.truncated;
        answer.non_minimal = self.non_minimal;
        self.metrics
            .count(Counter::QueryAnswers, answer.len() as u64);
        answer
    }

    /// The answer under the given semantics — entirely in id space, and
    /// left there when nothing in it is a new term (see [`AnswerSet`]).
    pub fn answer_set(&self, query: &Query, semantics: Semantics) -> AnswerSet {
        let _span = self.metrics.span(Hist::SpanQueryAnswerNs);
        self.answer_traced(query, semantics, &mut Trace::default())
    }

    /// [`QueryEngine::answer_set`] as a [`Graph`]: the one assembly path,
    /// decoded for library callers.
    pub fn answer(&self, query: &Query, semantics: Semantics) -> Graph {
        self.answer_set(query, semantics)
            .into_graph(self.dictionary)
    }

    /// The pre-answer: the list of distinct single answers.
    pub fn pre_answers(&self, query: &Query) -> Vec<Graph> {
        let singles = self.with_members(query, |members, _| {
            self.singles(members, &mut Trace::default())
        });
        self.metrics
            .count(Counter::QueryAnswers, singles.len() as u64);
        singles
    }

    /// `true` if the query has no answer. Early-exits on the first
    /// witnessing matching (per member) instead of materializing anything.
    pub fn answer_is_empty(&self, query: &Query) -> bool {
        self.with_members(query, |members, _| {
            members.iter().all(|member| {
                self.execute(member, &mut Trace::default(), |hooks, stats| {
                    self.exec_is_empty(member, hooks, stats)
                })
                .unwrap_or(true)
            })
        })
    }

    /// Explains how [`QueryEngine::answer`] executes this query by doing
    /// exactly that, once, with a join-order recorder attached: every field
    /// describes the same run, so explaining costs what answering costs
    /// (and, like answering, warms the plan cache). `patterns`,
    /// `join_order` and the cardinality columns describe the first executed
    /// member; `probes` and `bindings` sum over all of them.
    pub fn explain(&self, query: &Query, semantics: Semantics) -> Explain {
        let log = JoinOrderLog::new();
        let mut trace = Trace {
            recorder: Some(&log),
            ..Trace::default()
        };
        let answer = self.answer_traced(query, semantics, &mut trace);
        let mut explain = Explain::empty(self.mechanism.name(), semantics);
        explain.members = trace.members;
        explain.join_order = log.take();
        explain.probes = trace.stats.probes;
        explain.bindings = trace.stats.bindings;
        explain.truncated = trace.stats.truncated;
        explain.answers = answer.len() as u64;
        explain.non_minimal = self.non_minimal;
        // The headline lookup: `Ω_q` for an expansion, else the plan. Neither
        // happened when an unknown constant short-circuited a lone member.
        let lookup = trace
            .expansion_hit
            .or(trace.first.as_ref().map(|first| first.hit));
        if let (Some(hit), true) = (lookup, self.cache.enabled()) {
            explain.plan_cache = if hit { "hit" } else { "miss" };
        }
        if let Some(first) = &trace.first {
            explain.patterns = first.compiled.patterns().len();
            explain.estimated_cardinalities = first.plan.estimates.clone();
            let no_binding = vec![None; first.compiled.variables().len()];
            explain.actual_cardinalities = first
                .compiled
                .patterns()
                .iter()
                .map(|p| self.target.candidate_count(p.to_scan(&no_binding)) as u64)
                .collect();
        }
        explain
    }
}

/// The engine behind the premise-free free-function entry points below.
fn premise_free<'a>(
    cache: &'a PlanCache,
    dictionary: &'a Dictionary,
    target: &'a IdIndex,
    metrics: &'a Metrics,
) -> QueryEngine<'a> {
    QueryEngine {
        dictionary,
        target,
        cache,
        metrics,
        mechanism: Mechanism::PremiseFree,
        non_minimal: false,
    }
}

/// [`QueryEngine::answer`] for a premise-free query against a bare
/// dictionary + index pair.
pub fn planned_answer(
    cache: &PlanCache,
    query: &Query,
    dictionary: &Dictionary,
    target: &IdIndex,
    semantics: Semantics,
    metrics: &Metrics,
) -> Graph {
    premise_free(cache, dictionary, target, metrics).answer(query, semantics)
}

/// [`QueryEngine::answer_is_empty`] for a premise-free query against a bare
/// dictionary + index pair.
pub fn planned_answer_is_empty(
    cache: &PlanCache,
    query: &Query,
    dictionary: &Dictionary,
    target: &IdIndex,
    metrics: &Metrics,
) -> bool {
    premise_free(cache, dictionary, target, metrics).answer_is_empty(query)
}

/// The constraint-satisfying matchings of a premise-free query against an
/// id-indexed evaluation graph, decoded through the dictionary. Equals
/// [`crate::answer::matchings_against`] over the same evaluation graph (the
/// property tests pin this).
pub fn id_matchings(query: &Query, dictionary: &Dictionary, target: &IdIndex) -> Vec<Binding> {
    let (cache, metrics) = (PlanCache::new(false), Metrics::disabled());
    let engine = premise_free(&cache, dictionary, target, metrics);
    let mut out = Vec::new();
    engine.execute(query, &mut Trace::default(), |hooks, stats| {
        engine.exec_matchings(query, hooks, stats, |binding| out.push(binding))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::premise::{answer_union_of_queries, premise_free_expansion};
    use swdb_hom::pattern_graph;
    use swdb_model::graph;
    use swdb_store::TripleStore;

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
    fn the_expansion_mechanism_matches_the_string_union_over_the_same_graph() {
        let q = example_5_10();
        let expansion = premise_free_expansion(&q);
        let databases = [
            graph([("ex:u", "ex:q", "ex:a")]),
            graph([("ex:u", "ex:q", "ex:a"), ("ex:v", "ex:q", "ex:b")]),
            graph([("ex:u", "ex:q", "ex:c"), ("ex:c", "ex:t", "ex:s")]),
            Graph::new(),
        ];
        for d in &databases {
            let store = TripleStore::from_graph(d);
            for enabled in [true, false] {
                let cache = PlanCache::new(enabled);
                let engine = QueryEngine {
                    dictionary: store.dictionary(),
                    target: store.id_index(),
                    cache: &cache,
                    metrics: Metrics::disabled(),
                    mechanism: Mechanism::Expansion,
                    non_minimal: false,
                };
                for semantics in [Semantics::Union, Semantics::Merge] {
                    let reference = answer_union_of_queries(&expansion, d, semantics);
                    // Twice: the second run reuses the cached `Ω_q` and plans.
                    for _ in 0..2 {
                        let id = engine.answer(&q, semantics);
                        assert!(
                            swdb_model::isomorphic(&id, &reference),
                            "{semantics:?} over {d}: {id} vs {reference}"
                        );
                    }
                }
                let reference = answer_union_of_queries(&expansion, d, Semantics::Union);
                assert_eq!(
                    engine.answer_is_empty(&q),
                    reference.is_empty(),
                    "emptiness diverged over {d}"
                );
                assert_eq!(engine.pre_answers(&q).is_empty(), reference.is_empty());
                let explain = engine.explain(&q, Semantics::Union);
                assert_eq!(explain.mechanism, "expansion");
                assert_eq!(explain.members, expansion.len());
                assert_eq!(explain.answers as usize, reference.len());
                assert_eq!(explain.plan_cache, if enabled { "hit" } else { "off" });
            }
        }
    }
}
