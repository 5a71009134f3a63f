//! The query engine: the paper's one read operation, implemented once.
//!
//! Answering a query is a single operation in the paper — match the body
//! against `nf(D + P)` and instantiate the head (Definitions 4.1/4.3,
//! Theorem 4.6). [`QueryEngine`] is that operation: a borrowed view of one
//! evaluation substrate that evaluates the body against one [`IdIndex`].
//! The two [`Mechanism`]s differ only in the index:
//!
//! * premise-free — the evaluation index;
//! * overlay — the evaluation index of a fork of the state that the
//!   premise was inserted into by the write path's insert (`nf(D + P)`).
//!
//! Every body is planned ([`crate::plan`]) and run by the one executor
//! ([`crate::exec`]). Every read — on a pinned snapshot or through the
//! facade — and `explain` come through here, so the counting conventions
//! and the degradation flag reported with an answer exist once.

use swdb_hom::Binding;
use swdb_model::Graph;
use swdb_obs::{Counter, Hist, Metrics};
use swdb_store::{Dictionary, IdIndex};

use crate::answer::Semantics;
use crate::exec::{AnswerSet, ExecHooks, ExecStats, Explain, JoinOrderLog};
use crate::plan::{self, PlanCache, Prepared};
use crate::query::Query;

/// How a query is evaluated (chosen per query by the facade's dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mechanism {
    /// No premise: the body joins the evaluation index directly.
    PremiseFree,
    /// The premise committed into a fork of the evaluation index.
    Overlay,
}

impl Mechanism {
    /// The label [`Explain::mechanism`] carries.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::PremiseFree => "premise_free",
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
    /// Where plans are kept between calls.
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
    /// Attached to the execution, then gone.
    recorder: Option<&'r JoinOrderLog>,
    /// The executed body and plan.
    prepared: Option<Prepared>,
    stats: ExecStats,
}

impl QueryEngine<'_> {
    /// Plans the body (a plan-cache hit, or planned now) and executes it
    /// with `run`. `None` when a body constant was never interned: such a
    /// body has no matching and is not executed.
    fn execute<R>(
        &self,
        query: &Query,
        trace: &mut Trace<'_>,
        run: impl FnOnce(ExecHooks<'_>, &mut ExecStats) -> R,
    ) -> Option<R> {
        let prepared = plan::prepare(
            self.cache,
            query,
            self.dictionary,
            self.target,
            self.metrics,
        )?;
        self.metrics.count(Counter::QueryCompiled, 1);
        trace.stats.probes += prepared.plan_probes;
        let result = run(prepared.hooks(trace.recorder.take()), &mut trace.stats);
        trace.prepared = Some(prepared);
        Some(result)
    }

    fn answer_traced(
        &self,
        query: &Query,
        semantics: Semantics,
        trace: &mut Trace<'_>,
    ) -> AnswerSet {
        let mut answer = self
            .execute(query, trace, |hooks, stats| {
                self.exec_answer(query, semantics, hooks, stats)
            })
            .unwrap_or_default();
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
        let singles = self
            .execute(query, &mut Trace::default(), |hooks, stats| {
                self.exec_pre_answers(query, hooks, stats)
            })
            .unwrap_or_default();
        self.metrics
            .count(Counter::QueryAnswers, singles.len() as u64);
        singles
    }

    /// `true` if the query has no answer. Early-exits on the first
    /// witnessing matching instead of materializing anything.
    pub fn answer_is_empty(&self, query: &Query) -> bool {
        self.execute(query, &mut Trace::default(), |hooks, stats| {
            self.exec_is_empty(query, hooks, stats)
        })
        .unwrap_or(true)
    }

    /// Explains how [`QueryEngine::answer`] executes this query by doing
    /// exactly that, once, with a join-order recorder attached: every field
    /// describes the same run, so explaining costs what answering costs
    /// (and, like answering, warms the plan cache).
    pub fn explain(&self, query: &Query, semantics: Semantics) -> Explain {
        let log = JoinOrderLog::new();
        let mut trace = Trace {
            recorder: Some(&log),
            ..Trace::default()
        };
        let answer = self.answer_traced(query, semantics, &mut trace);
        let mut explain = Explain::empty(self.mechanism.name(), semantics);
        explain.join_order = log.take();
        explain.probes = trace.stats.probes;
        explain.bindings = trace.stats.bindings;
        explain.truncated = trace.stats.truncated;
        explain.answers = answer.len() as u64;
        explain.non_minimal = self.non_minimal;
        // No plan was looked up when an unknown constant short-circuited
        // the body.
        if let Some(prepared) = &trace.prepared {
            if self.cache.enabled() {
                explain.plan_cache = if prepared.hit { "hit" } else { "miss" };
            }
            explain.patterns = prepared.compiled.patterns().len();
            explain.estimated_cardinalities = prepared.plan.estimates.clone();
            let no_binding = vec![None; prepared.compiled.variables().len()];
            explain.actual_cardinalities = prepared
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
