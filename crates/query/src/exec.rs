//! Id-space execution of premise-free query bodies — the one executor.
//!
//! The string-space evaluator in [`crate::answer`](mod@crate::answer) joins on cloned
//! [`swdb_model::Term`]s through a [`swdb_hom::GraphIndex`] that is rebuilt
//! for every call. This module is the production read path: a query body is
//! *compiled* against a [`Dictionary`] — constants become [`TermId`]s,
//! variables become dense slot numbers — and then executed by a backtracking
//! join that scans an [`IdIndex`] (its SPO/POS/OSP range scans) in the
//! static order the planner chose ([`crate::plan`]). There is exactly one
//! way to run a body:
//! every caller — the facade, a pinned snapshot, `explain` — reaches the
//! enumeration cores here through [`crate::QueryEngine`] with a compiled
//! body and a plan in hand, so the search itself never probes selectivity.
//! Inside the join loop there is no term cloning and no string hashing: a
//! binding is a `[Option<TermId>]` slot array. One id-space acceptance step
//! (`Head::accept`: the constraints, the head instantiated, the single
//! answer dropped on a blank predicate) serves union answers, emptiness and
//! the pre-answers of blank-free heads. Terms are decoded in three places
//! only: for heads with blank constants, whose Skolem values are computed
//! from the decoded bindings; by [`crate::id_matchings`], whose result is
//! bindings; and by the caller's render — the response buffer, or
//! [`AnswerSet::into_graph`], or a pre-answer's accepted single answers
//! (see [`AnswerSet`]).
//!
//! Compilation also yields a fast negative path: a body constant that was
//! never interned cannot occur in any stored triple, so the query has zero
//! matchings without touching the index ([`compile_body`] returns `None`).
//!
//! The string-space evaluator remains the executable specification; the
//! property tests pin [`crate::id_matchings`] and the engine's answers
//! against [`crate::answer::matchings_against`] /
//! [`crate::answer::answer_against`] over the same evaluation graph.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use swdb_hom::{Binding, PatternGraph, PatternTerm, Variable, DEFAULT_SOLUTION_LIMIT};
use swdb_model::{Graph, Term, Triple};
use swdb_obs::Counter;
use swdb_store::ntriples::{write_graph, write_term};
use swdb_store::{Dictionary, IdIndex, TermId, TermOrder};

use crate::answer::{combine, single_answer, Semantics};
use crate::engine::QueryEngine;
use crate::query::Query;

// The pattern representation and the backtracking join are shared with the
// retraction search of `swdb-normal::id_core` and live in `swdb_hom`.
pub use swdb_hom::id_solve::{IdPatternTerm, IdTriplePattern, JoinOrderLog};

/// The plan one execution runs under, threaded through the enumeration
/// cores: every execution is planned (`crate::plan`), so the compiled body
/// and its static join order are always present.
#[derive(Clone, Copy)]
pub(crate) struct ExecHooks<'a> {
    /// The compiled body (re-instantiated against the live dictionary).
    pub compiled: &'a CompiledBody,
    /// The static join order (original pattern indices): the search issues
    /// no selectivity probes of its own.
    pub order: &'a [usize],
    /// Record the join order actually taken (explain).
    pub recorder: Option<&'a JoinOrderLog>,
}

/// What the executions behind one operation did, reported back to explain.
#[derive(Clone, Copy, Default)]
pub(crate) struct ExecStats {
    /// Selectivity probes planning paid (zero on plan-cache hits).
    pub probes: u64,
    /// Bindings (complete solutions) enumerated.
    pub bindings: u64,
    /// An enumeration hit [`DEFAULT_SOLUTION_LIMIT`] and stopped: the
    /// produced answer set (or emptiness verdict) may be incomplete.
    pub truncated: bool,
}

/// A premise-free query body compiled against a dictionary.
#[derive(Clone, Debug)]
pub struct CompiledBody {
    patterns: Vec<IdTriplePattern>,
    /// Slot number → source variable, for decoding complete bindings.
    vars: Vec<Variable>,
}

impl CompiledBody {
    /// Assembles a compiled body from already-resolved parts (the plan
    /// cache re-instantiates cached pattern templates against the current
    /// dictionary and hands the result here).
    pub(crate) fn from_parts(patterns: Vec<IdTriplePattern>, vars: Vec<Variable>) -> Self {
        CompiledBody { patterns, vars }
    }
    /// The compiled patterns.
    pub fn patterns(&self) -> &[IdTriplePattern] {
        &self.patterns
    }

    /// The variables of the body, indexed by slot.
    pub fn variables(&self) -> &[Variable] {
        &self.vars
    }

    /// The slot of a head or constraint variable: both occur in the body
    /// (Note 4.2), so the lookup succeeds.
    fn slot_of(&self, var: &Variable) -> usize {
        let slot = self.vars.iter().position(|known| known == var);
        slot.expect("head variables occur in the body")
    }

    /// Decodes a complete slot array back into a string-space [`Binding`].
    ///
    /// Panics on unbound slots or dangling ids; complete solutions produced
    /// by [`IdSolver`] over ids of `dictionary` never trigger either.
    pub fn decode(&self, slots: &[Option<TermId>], dictionary: &Dictionary) -> Binding {
        let mut binding = Binding::new();
        for (slot, var) in self.vars.iter().enumerate() {
            let id = slots[slot].expect("complete solutions bind every slot");
            let term = dictionary.term_of(id).expect("dangling term id").clone();
            binding.bind(var.clone(), term);
        }
        binding
    }
}

/// Compiles a body pattern graph against a dictionary: the body half of the
/// plan cache's compiler, a body template instantiated at once. Returns
/// `None` when a body constant was never interned — such a constant occurs
/// in no stored triple, so the body has zero matchings and the caller can
/// skip execution entirely (the "unknown constant" fast path).
pub fn compile_body(body: &PatternGraph, dictionary: &Dictionary) -> Option<CompiledBody> {
    let (mut vars, mut consts) = (Vec::new(), Vec::new());
    let template: Vec<_> = body
        .patterns()
        .iter()
        .map(|p| crate::plan::encode_pattern(p, &mut vars, &mut consts))
        .collect();
    let patterns = crate::plan::instantiate_body(&template, &consts, dictionary)?;
    let vars = vars.into_iter().cloned().collect();
    Some(CompiledBody { patterns, vars })
}

/// A prepared id-space matcher: one compiled body against one evaluation
/// index, searched by [`swdb_hom::IdSolver`] in its dynamic
/// most-constrained-first order.
pub struct IdSolver<'a> {
    inner: swdb_hom::IdSolver<'a, IdIndex>,
}

impl<'a> IdSolver<'a> {
    /// Creates a solver for the given compiled body and evaluation index.
    pub fn new(body: &'a CompiledBody, target: &'a IdIndex) -> Self {
        IdSolver {
            inner: swdb_hom::IdSolver::new(&body.patterns, body.vars.len(), target),
        }
    }

    /// Counts solutions (up to [`DEFAULT_SOLUTION_LIMIT`]).
    pub fn count_solutions(&self) -> usize {
        let mut n = 0usize;
        self.inner.for_each_solution(&mut |_slots| {
            n += 1;
            if n >= DEFAULT_SOLUTION_LIMIT {
                ControlFlow::Break(())
            } else {
                ControlFlow::<()>::Continue(())
            }
        });
        n
    }
}

/// Single answers in first-seen order, deduplicated.
#[derive(Default)]
struct Singles {
    /// Each distinct single answer, once, with its first-seen position.
    first_seen: BTreeMap<Graph, usize>,
}

impl Singles {
    fn push(&mut self, single: Graph) {
        let next = self.first_seen.len();
        self.first_seen.entry(single).or_insert(next);
    }

    /// The distinct single answers, in the order they were first pushed.
    fn into_list(self) -> Vec<Graph> {
        let mut list = vec![Graph::new(); self.first_seen.len()];
        for (single, at) in self.first_seen {
            list[at] = single;
        }
        list
    }
}

/// The answer of one query, as the engine produced it.
///
/// Under union semantics with a blank-free head the answer is a set of head
/// instantiations over terms that exist already, so it stays what the join
/// produced — `ids` — and is decoded only by [`AnswerSet::write_ntriples`]
/// (into the caller's buffer) or [`AnswerSet::into_graph`], and is put in
/// [`Triple`] order by an integer sort over [`TermOrder`] ranks. Two paths mint
/// terms no dictionary holds and hand over the `graph` they build instead:
/// Skolemized heads (Skolem values) and merge semantics (blanks renamed
/// apart per single answer).
#[derive(Clone, Debug, Default)]
pub struct AnswerSet {
    /// Distinct id triples of the dictionary the query ran against, in
    /// [`Triple`] order; empty when `graph` carries the answer.
    ids: Vec<[TermId; 3]>,
    /// The ids past the dictionary: head constants that were never interned.
    extra: Extra,
    graph: Graph,
    /// An enumeration behind this answer stopped at
    /// [`DEFAULT_SOLUTION_LIMIT`]: the answer may be incomplete.
    pub truncated: bool,
    /// [`QueryEngine::non_minimal`] of the engine that answered.
    pub non_minimal: bool,
}

impl From<Graph> for AnswerSet {
    fn from(graph: Graph) -> Self {
        AnswerSet {
            graph,
            ..AnswerSet::default()
        }
    }
}

impl AnswerSet {
    /// Triples in the answer.
    pub fn len(&self) -> usize {
        self.ids.len() + self.graph.len()
    }

    /// `true` when the answer has no triple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands `sink` the bytes `swdb_store::serialize` returns for
    /// [`AnswerSet::into_graph`], piece by piece and without allocating.
    /// `dictionary` is the one the query ran against.
    pub fn write_ntriples(&self, dictionary: &Dictionary, mut sink: impl FnMut(&str)) {
        for triple in &self.ids {
            for (&id, end) in triple.iter().zip([" ", " ", " .\n"]) {
                write_term(self.extra.term(dictionary, id), &mut sink);
                sink(end);
            }
        }
        write_graph(&self.graph, sink);
    }

    /// The same answer holding no id — `ids` decoded into `graph`, bulk-built
    /// from the ordered run — for a caller about to lose `dictionary` (the
    /// facade, before it unlocks).
    pub fn into_owned(mut self, dictionary: &Dictionary) -> AnswerSet {
        if !self.ids.is_empty() {
            let decode = |&ids: &[TermId; 3]| self.extra.triple(dictionary, ids);
            self.graph = self.ids.iter().map(decode).collect();
            self.ids.clear();
        }
        self
    }

    /// The answer as a [`Graph`].
    pub fn into_graph(self, dictionary: &Dictionary) -> Graph {
        self.into_owned(dictionary).graph
    }
}

/// Term-order keys: integers that sort as their ids' terms — a [`TermOrder`]
/// rank, shifted past the few loose ids (past the table) that sort before it.
struct TermKeys<'a> {
    table: &'a TermOrder,
    /// `(slot, key, id)` per loose id — a premise fork's own terms, `extra` —
    /// in term order: `slot` covered terms sort before it, `key` adds its index.
    loose: Vec<(TermId, TermId, TermId)>,
}

impl<'a> TermKeys<'a> {
    fn new(extra: &Extra, dictionary: &'a Dictionary) -> Self {
        let (table, term) = (dictionary.term_order(), |id| extra.term(dictionary, id));
        let ids = table.order.len() as TermId..extra.from + extra.terms.len() as TermId;
        let by_term: BTreeMap<&Term, TermId> = ids.map(|id| (term(id), id)).collect();
        let slot = |t| table.order.partition_point(|&c| term(c) < t) as TermId;
        let slots = by_term.into_iter().map(|(t, id)| (slot(t), id));
        let keyed = |(at, (s, id))| (s, s + at as TermId, id);
        let loose = slots.enumerate().map(keyed).collect();
        TermKeys { table, loose }
    }

    fn key(&self, id: TermId) -> TermId {
        match self.table.rank.get(id as usize) {
            Some(&rank) => rank + self.loose.partition_point(|l| l.0 <= rank) as TermId,
            None => self.loose.iter().find(|l| l.2 == id).expect("a loose id").1,
        }
    }

    fn id(&self, key: TermId) -> TermId {
        let below = self.loose.partition_point(|l| l.1 < key);
        match self.loose.get(below) {
            Some(&(_, at, id)) if at == key => id,
            _ => self.table.order[key as usize - below],
        }
    }
}

/// Query-local ids past a dictionary: an id `>= from` is `terms[id - from]`,
/// a head constant that was never interned.
#[derive(Clone, Debug, Default)]
struct Extra {
    from: TermId,
    terms: Vec<Term>,
}

impl Extra {
    fn term<'a>(&'a self, dictionary: &'a Dictionary, id: TermId) -> &'a Term {
        match id.checked_sub(self.from) {
            Some(at) => &self.terms[at as usize],
            None => dictionary.term_of(id).expect("dangling term id"),
        }
    }

    fn is_blank(&self, dictionary: &Dictionary, id: TermId) -> bool {
        match id.checked_sub(self.from) {
            Some(at) => self.terms[at as usize].is_blank(),
            None => dictionary.is_blank(id),
        }
    }

    /// Decodes an id triple whose predicate is not blank.
    fn triple(&self, dictionary: &Dictionary, [s, p, o]: [TermId; 3]) -> Triple {
        let term = |id| self.term(dictionary, id).clone();
        match term(p) {
            Term::Iri(predicate) => Triple::new(term(s), predicate, term(o)),
            Term::Blank(_) => unreachable!("blank predicates were dropped"),
        }
    }
}

/// The head `H` and constraints `C` of a query in id space: the single
/// answer `v(H)` of one solution, built without decoding a term.
struct Head {
    patterns: Vec<IdTriplePattern>,
    /// The constraint variables' slots (constraints only mention head
    /// variables, so they become non-blank checks on slots).
    constrained: Vec<usize>,
    extra: Extra,
}

impl Head {
    /// Compiles the head like a body pattern, except that a constant no
    /// stored triple mentions gets a query-local id instead of no match.
    fn compile(query: &Query, compiled: &CompiledBody, dictionary: &Dictionary) -> Head {
        let constrained = query.constraints().iter();
        let constrained = constrained.map(|var| compiled.slot_of(var)).collect();
        let from = TermId::try_from(dictionary.len()).expect("dictionary overflow");
        let mut extra = Extra::default();
        let mut position = |pos: &PatternTerm| match pos {
            PatternTerm::Var(var) => IdPatternTerm::Var(compiled.slot_of(var)),
            PatternTerm::Const(term) => {
                IdPatternTerm::Const(dictionary.id_of(term).unwrap_or_else(|| {
                    let at = extra.terms.iter().position(|known| known == term);
                    let at = at.unwrap_or_else(|| {
                        extra.terms.push(term.clone());
                        extra.terms.len() - 1
                    });
                    from + at as TermId
                }))
            }
        };
        let patterns = query.head().patterns().iter();
        let patterns = patterns
            .map(|p| IdTriplePattern {
                subject: position(&p.subject),
                predicate: position(&p.predicate),
                object: position(&p.object),
            })
            .collect();
        extra.from = from;
        Head {
            patterns,
            constrained,
            extra,
        }
    }

    /// Does the solution bind every constrained slot to a non-blank?
    fn satisfies(&self, dictionary: &Dictionary, slots: &[Option<TermId>]) -> bool {
        let blank = |&slot: &usize| dictionary.is_blank(slots[slot].expect("complete solution"));
        !self.constrained.iter().any(blank)
    }

    /// Accepts one complete solution or rejects it: appends its single
    /// answer to `out`, each id through `key`, and returns `true`; or
    /// returns `false` with `out` as it was, when a constrained slot binds a
    /// blank or a head predicate instantiates to one (all-or-nothing, as in
    /// [`single_answer`]). A blank head constant stands for its Skolem
    /// value, which is a blank too, so emptiness needs no Skolemization.
    fn accept(
        &self,
        dictionary: &Dictionary,
        slots: &[Option<TermId>],
        out: &mut Vec<[TermId; 3]>,
        key: impl Fn(TermId) -> TermId,
    ) -> bool {
        if !self.satisfies(dictionary, slots) {
            return false;
        }
        let single = out.len();
        for pattern in &self.patterns {
            let (s, p, o) = pattern.to_scan(slots);
            let triple = [s, p, o].map(|id| id.expect("complete solution"));
            if self.extra.is_blank(dictionary, triple[1]) {
                out.truncate(single);
                return false;
            }
            out.push(triple.map(&key));
        }
        true
    }
}

/// The id run of [`QueryEngine::exec_union_ids`] is first compacted at this
/// many triples, then whenever it has doubled since.
const MIN_COMPACTION: usize = 1024;

/// Returns `true` if the head mentions a blank-node constant — the case
/// that forces Skolemization over every body variable. It disables the
/// head-projection fast paths here.
pub fn head_has_blank_consts(query: &Query) -> bool {
    query
        .head()
        .patterns()
        .iter()
        .flat_map(|p| [&p.subject, &p.predicate, &p.object])
        .any(|pos| matches!(pos, PatternTerm::Const(t) if t.is_blank()))
}

/// The executor half of [`QueryEngine`]: what runs one body under its
/// plan. `hooks` carries the compiled body and join order; `stats`
/// accumulates what the run spent.
impl QueryEngine<'_> {
    /// Runs the planned join over `target`, handing every complete solution to
    /// `visit` until it breaks or [`DEFAULT_SOLUTION_LIMIT`] solutions were
    /// passed over. Giving up is surfaced as `truncated` (the `non_minimal`
    /// discipline, query-side) instead of silently reporting an incomplete
    /// result.
    fn enumerate(
        &self,
        hooks: ExecHooks<'_>,
        stats: &mut ExecStats,
        mut visit: impl FnMut(&[Option<TermId>]) -> ControlFlow<()>,
    ) {
        let compiled = hooks.compiled;
        let mut solver =
            swdb_hom::IdSolver::new(&compiled.patterns, compiled.vars.len(), self.target)
                .with_order(hooks.order);
        if let Some(recorder) = hooks.recorder {
            solver = solver.recording_into(recorder);
        }
        let mut enumerated = 0usize;
        let mut truncated = false;
        solver.for_each_solution(&mut |slots| {
            visit(slots)?;
            enumerated += 1;
            if enumerated >= DEFAULT_SOLUTION_LIMIT {
                truncated = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        if truncated {
            stats.truncated = true;
            self.metrics.count(Counter::QueryTruncations, 1);
        }
        self.metrics
            .count(Counter::QueryBindings, enumerated as u64);
        stats.bindings += enumerated as u64;
    }

    /// Enumerates the constraint-satisfying matchings of the body (checked
    /// on slots), decoded through the dictionary: the path of heads with
    /// blank constants, whose Skolem values need every binding as a term,
    /// and of [`crate::id_matchings`].
    pub(crate) fn exec_matchings(
        &self,
        query: &Query,
        hooks: ExecHooks<'_>,
        stats: &mut ExecStats,
        mut accept: impl FnMut(Binding),
    ) {
        let head = Head::compile(query, hooks.compiled, self.dictionary);
        self.enumerate(hooks, stats, |slots| {
            if head.satisfies(self.dictionary, slots) {
                accept(hooks.compiled.decode(slots, self.dictionary));
            }
            ControlFlow::Continue(())
        });
    }

    /// The pre-answer of a premise-free query over `target`, distinct
    /// single answers in first-seen order.
    ///
    /// When the head contains no blank constants, a single answer is a function
    /// of the head-variable bindings alone (there is nothing to Skolemize, and
    /// constraints only mention head variables), so solutions are first
    /// projected onto the head-variable slots and deduplicated as `TermId`
    /// rows; each distinct projection runs the id-space acceptance step, and
    /// only an accepted single answer is decoded. A head with blank
    /// constants is Skolemized from every body variable, on decoded bindings.
    pub(crate) fn exec_pre_answers(
        &self,
        query: &Query,
        hooks: ExecHooks<'_>,
        stats: &mut ExecStats,
    ) -> Vec<Graph> {
        let mut out = Singles::default();
        if head_has_blank_consts(query) {
            self.exec_matchings(query, hooks, stats, |binding| {
                if let Some(answer) = single_answer(query, &binding) {
                    out.push(answer);
                }
            });
            return out.into_list();
        }
        let (dictionary, compiled) = (self.dictionary, hooks.compiled);
        let head = Head::compile(query, compiled, dictionary);
        let head_vars = query.head().variables().into_iter();
        let head_slots: Vec<usize> = head_vars.map(|var| compiled.slot_of(&var)).collect();
        let mut seen_rows: BTreeSet<Vec<Option<TermId>>> = BTreeSet::new();
        // Scratch for every solution; only a new projection is kept.
        let (mut row, mut single) = (Vec::with_capacity(head_slots.len()), Vec::new());
        self.enumerate(hooks, stats, |slots| {
            row.clear();
            row.extend(head_slots.iter().map(|&slot| slots[slot]));
            if !seen_rows.contains(row.as_slice()) {
                seen_rows.insert(row.clone());
                if head.accept(dictionary, slots, &mut single, |id| id) {
                    let decode = |&ids: &[TermId; 3]| head.extra.triple(dictionary, ids);
                    out.push(single.iter().map(decode).collect());
                }
                single.clear();
            }
            ControlFlow::Continue(())
        });
        out.into_list()
    }

    /// Computes the answer of a premise-free query over `target` under the
    /// requested semantics.
    ///
    /// Union semantics with a blank-free head never leaves id space
    /// ([`QueryEngine::exec_union_ids`]). Merge semantics and Skolemized
    /// heads mint terms no dictionary holds, so they go through
    /// [`QueryEngine::exec_pre_answers`] + [`combine`] like the string-space
    /// evaluator and hand back the [`Graph`] that produces.
    pub(crate) fn exec_answer(
        &self,
        query: &Query,
        semantics: Semantics,
        hooks: ExecHooks<'_>,
        stats: &mut ExecStats,
    ) -> AnswerSet {
        if semantics == Semantics::Union && !head_has_blank_consts(query) {
            return self.exec_union_ids(query, hooks, stats);
        }
        combine(self.exec_pre_answers(query, hooks, stats), semantics).into()
    }

    /// The direct union path: equals the union of the pre-answer for blank-free
    /// heads (union identifies shared labels, so the union of the single
    /// answers is the set of all well-formed head instantiations). Every
    /// solution runs the acceptance step ([`Head::accept`]) onto one run of
    /// term-order keys ([`TermKeys`]), sorted and deduplicated whenever it has
    /// doubled (memory O(distinct answers), not O(solutions)), which is
    /// [`swdb_model::Triple`] order; keys map back to ids at the end.
    fn exec_union_ids(
        &self,
        query: &Query,
        hooks: ExecHooks<'_>,
        stats: &mut ExecStats,
    ) -> AnswerSet {
        let dictionary = self.dictionary;
        let head = Head::compile(query, hooks.compiled, dictionary);
        let keys = TermKeys::new(&head.extra, dictionary);
        let mut ids: Vec<[TermId; 3]> = Vec::new();
        let mut compact_at = MIN_COMPACTION;
        self.enumerate(hooks, stats, |slots| {
            head.accept(dictionary, slots, &mut ids, |id| keys.key(id));
            if ids.len() >= compact_at {
                // Stable sort: it takes the already compacted prefix as one run.
                ids.sort();
                ids.dedup();
                compact_at = (2 * ids.len()).max(MIN_COMPACTION);
            }
            ControlFlow::Continue(())
        });
        ids.sort();
        ids.dedup();
        ids.iter_mut().for_each(|t| *t = t.map(|key| keys.id(key)));
        AnswerSet {
            ids,
            extra: head.extra,
            ..AnswerSet::default()
        }
    }

    /// Returns `true` if a premise-free query has an empty pre-answer over
    /// `target` — i.e. no matching passes the acceptance step
    /// ([`Head::accept`]). Early-exits on the first witness instead of
    /// materializing every matching, and — like every other enumeration —
    /// gives up after [`DEFAULT_SOLUTION_LIMIT`] rejected matchings rather
    /// than exhausting a combinatorial cross product.
    pub(crate) fn exec_is_empty(
        &self,
        query: &Query,
        hooks: ExecHooks<'_>,
        stats: &mut ExecStats,
    ) -> bool {
        let head = Head::compile(query, hooks.compiled, self.dictionary);
        let (mut single, mut found) = (Vec::new(), false);
        self.enumerate(hooks, stats, |slots| {
            found = head.accept(self.dictionary, slots, &mut single, |id| id);
            single.clear();
            if found {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        !found
    }
}

/// A structured account of how one query execution actually ran: which
/// mechanism answered it, the planned join order it executed, and the work
/// it spent. Produced by [`crate::QueryEngine::explain`] (and surfaced per
/// query by the facade's `explain`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Explain {
    /// How the query was answered: `"premise_free"` or `"overlay"` (the
    /// premise committed into a fork of the index) — see
    /// [`crate::Mechanism`].
    pub mechanism: &'static str,
    /// The requested answer semantics (`"union"` or `"merge"`).
    pub semantics: &'static str,
    /// Body patterns after compilation (0 when an unknown constant
    /// short-circuited execution).
    pub patterns: usize,
    /// Original body-pattern indices in the order the search descended
    /// through them (see [`JoinOrderLog`]).
    pub join_order: Vec<usize>,
    /// Selectivity probes ([`IdIndex::candidate_count`] calls) spent —
    /// all of them at planning time, so zero on a plan-cache hit.
    pub probes: u64,
    /// Bindings (complete solutions) enumerated, capped by
    /// [`DEFAULT_SOLUTION_LIMIT`].
    pub bindings: u64,
    /// Triples in the materialized answer.
    pub answers: u64,
    /// `true` when the evaluation substrate was degraded — a core-budget
    /// exhaustion left the published evaluation graph (or the premise's
    /// fork of it) a sound but possibly non-minimal superset of the true core.
    /// Answers are still sound and complete; merge-semantics answers may
    /// carry redundant blank triples. Always `false` for an unbudgeted
    /// engine.
    pub non_minimal: bool,
    /// `true` when an enumeration behind this answer hit
    /// [`DEFAULT_SOLUTION_LIMIT`] and stopped: the answer set (or an
    /// emptiness verdict computed the same way) may be incomplete. The
    /// query-side analogue of `non_minimal` — also surfaced as the
    /// `query_truncations` counter and a snapshot warning.
    pub truncated: bool,
    /// Whether this execution reused a cached plan: `"hit"`, `"miss"`
    /// (built, then cached), or `"off"`
    /// (plan cache disabled — planned per call — or no plan consulted
    /// because an unknown constant short-circuited execution).
    pub plan_cache: &'static str,
    /// The planner's per-pattern cardinality estimates (original body
    /// pattern order), recorded when the plan was built. Empty when no
    /// plan was involved.
    pub estimated_cardinalities: Vec<u64>,
    /// The same patterns' constants-only candidate counts probed at
    /// explain time. Divergence from `estimated_cardinalities` shows how
    /// far the store has drifted since the plan was cached.
    pub actual_cardinalities: Vec<u64>,
}

impl Explain {
    /// The all-zero explain for a mechanism/semantics pair — the starting
    /// point [`crate::QueryEngine::explain`] fills in.
    pub fn empty(mechanism: &'static str, semantics: Semantics) -> Self {
        Explain {
            mechanism,
            semantics: Explain::semantics_name(semantics),
            patterns: 0,
            join_order: Vec::new(),
            probes: 0,
            bindings: 0,
            answers: 0,
            non_minimal: false,
            truncated: false,
            plan_cache: "off",
            estimated_cardinalities: Vec::new(),
            actual_cardinalities: Vec::new(),
        }
    }

    /// The semantics label used in explains and snapshots.
    pub fn semantics_name(semantics: Semantics) -> &'static str {
        match semantics {
            Semantics::Union => "union",
            Semantics::Merge => "merge",
        }
    }

    /// Renders the explain as a small deterministic JSON object (keys in
    /// fixed order, no external dependencies).
    pub fn to_json(&self) -> String {
        let list = |xs: &[u64]| -> String {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let order: Vec<String> = self.join_order.iter().map(|i| i.to_string()).collect();
        format!(
            concat!(
                "{{\"mechanism\": \"{}\", \"semantics\": \"{}\", ",
                "\"patterns\": {}, \"join_order\": [{}], \"probes\": {}, ",
                "\"bindings\": {}, \"answers\": {}, \"non_minimal\": {}, ",
                "\"truncated\": {}, \"plan_cache\": \"{}\", ",
                "\"estimated_cardinalities\": [{}], \"actual_cardinalities\": [{}]}}"
            ),
            self.mechanism,
            self.semantics,
            self.patterns,
            order.join(", "),
            self.probes,
            self.bindings,
            self.answers,
            self.non_minimal,
            self.truncated,
            self.plan_cache,
            list(&self.estimated_cardinalities),
            list(&self.actual_cardinalities),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{
        answer_against, matchings_against, pre_answers_against, NormalizedDatabase,
    };
    use crate::engine::{id_matchings, Mechanism, QueryEngine};
    use crate::fixture::Indexed;
    use crate::plan::PlanCache;
    use crate::query::{query, Query};
    use swdb_hom::pattern_graph;
    use swdb_model::{graph, Term};
    use swdb_store::TripleStore;

    fn store() -> Indexed {
        Indexed::from(TripleStore::from_graph(&graph([
            ("ex:dept", "ex:offers", "ex:DB"),
            ("ex:dept", "ex:offers", "ex:AI"),
            ("ex:alice", "ex:takes", "ex:DB"),
            ("ex:bob", "ex:takes", "ex:AI"),
            ("ex:carol", "ex:takes", "ex:DB"),
            ("_:N", "ex:takes", "ex:DB"),
        ])))
    }

    /// The engine over a store's own index, planning per call.
    fn engine<'a>(store: &'a Indexed, cache: &'a PlanCache) -> QueryEngine<'a> {
        QueryEngine {
            dictionary: store.dictionary(),
            target: store.id_index(),
            cache,
            metrics: swdb_obs::Metrics::disabled(),
            mechanism: Mechanism::PremiseFree,
            non_minimal: false,
        }
    }

    /// The string-space reference over the same evaluation graph.
    fn spec(store: &TripleStore) -> NormalizedDatabase {
        NormalizedDatabase::assume_normalized(store.to_graph())
    }

    fn assert_same_matchings(q: &Query, store: &Indexed) {
        let mut id = id_matchings(q, store.dictionary(), store.id_index());
        let mut reference = matchings_against(q, &spec(store));
        id.sort();
        reference.sort();
        assert_eq!(id, reference, "id-space and string-space matchings differ");
    }

    #[test]
    fn joins_agree_with_the_string_space_solver() {
        let s = store();
        for q in [
            query([("?X", "ex:takes", "?C")], [("?X", "ex:takes", "?C")]),
            query(
                [("?S", "ex:studies", "?C")],
                [("ex:dept", "ex:offers", "?C"), ("?S", "ex:takes", "?C")],
            ),
            query([("?X", "?P", "?Y")], [("?X", "?P", "?Y")]),
            query([("ex:alice", "?P", "?O")], [("ex:alice", "?P", "?O")]),
            query([("?X", "ex:takes", "?X")], [("?X", "ex:takes", "?X")]),
        ] {
            assert_same_matchings(&q, &s);
        }
    }

    #[test]
    fn unknown_constants_compile_to_the_empty_answer() {
        let s = store();
        let off = PlanCache::new(false);
        let q = query(
            [("?X", "ex:sculpts", "?Y")],
            [("?X", "ex:sculpts", "?Y")], // predicate never interned
        );
        assert!(compile_body(q.body(), s.dictionary()).is_none());
        assert!(id_matchings(&q, s.dictionary(), s.id_index()).is_empty());
        assert!(engine(&s, &off).answer_is_empty(&q));
        assert!(engine(&s, &off).pre_answers(&q).is_empty());
        assert!(engine(&s, &off).answer(&q, Semantics::Union).is_empty());
    }

    #[test]
    fn constraints_filter_blank_bindings_in_id_space() {
        let s = store();
        let unconstrained = query([("?X", "ex:takes", "ex:DB")], [("?X", "ex:takes", "ex:DB")]);
        assert_eq!(
            id_matchings(&unconstrained, s.dictionary(), s.id_index()).len(),
            3
        );
        let constrained = Query::with_constraints(
            pattern_graph([("?X", "ex:takes", "ex:DB")]),
            pattern_graph([("?X", "ex:takes", "ex:DB")]),
            [swdb_hom::Variable::new("X")],
        )
        .unwrap();
        let matchings = id_matchings(&constrained, s.dictionary(), s.id_index());
        assert_eq!(matchings.len(), 2, "the blank taker is filtered out");
        assert!(matchings
            .iter()
            .all(|b| !b.get(&swdb_hom::Variable::new("X")).unwrap().is_blank()));
        // The union-direct projection applies the same filter on slots.
        let off = PlanCache::new(false);
        assert_eq!(
            engine(&s, &off).answer(&constrained, Semantics::Union),
            answer_against(&constrained, &spec(&s), Semantics::Union)
        );
    }

    #[test]
    fn answers_agree_with_the_string_space_evaluator_under_both_semantics() {
        let s = store();
        let off = PlanCache::new(false);
        // A head blank exercises Skolemization through the decoded bindings.
        let q = Query::new(
            pattern_graph([("?C", "ex:taughtBy", "_:T")]),
            pattern_graph([("ex:dept", "ex:offers", "?C")]),
        )
        .unwrap();
        for semantics in [Semantics::Union, Semantics::Merge] {
            let id = engine(&s, &off).answer(&q, semantics);
            let reference = answer_against(&q, &spec(&s), semantics);
            assert!(
                swdb_model::isomorphic(&id, &reference),
                "{semantics:?}: {id} vs {reference}"
            );
        }
        // Union answers are bit-identical, not merely isomorphic: Skolem
        // labels depend only on the bindings.
        assert_eq!(
            engine(&s, &off).answer(&q, Semantics::Union),
            answer_against(&q, &spec(&s), Semantics::Union)
        );
        let mut singles = engine(&s, &off).pre_answers(&q);
        let mut reference = pre_answers_against(&q, &spec(&s));
        singles.sort();
        reference.sort();
        assert_eq!(singles, reference);
    }

    #[test]
    fn the_id_run_is_bounded_by_the_distinct_answers_not_by_the_solutions() {
        // 10^3 x 10^3 solutions projected onto 10^3 head instantiations.
        let mut s = TripleStore::new();
        for i in 0..1000 {
            s.insert(&swdb_model::triple(&format!("ex:a{i}"), "ex:p", "ex:b"));
            s.insert(&swdb_model::triple(&format!("ex:c{i}"), "ex:r", "ex:d"));
        }
        let s = Indexed::from(s);
        let off = PlanCache::new(false);
        let q = query(
            [("?A", "ex:q", "?B")],
            [("?A", "ex:p", "?B"), ("?C", "ex:r", "?D")],
        );
        let answer = engine(&s, &off).answer_set(&q, Semantics::Union);
        assert_eq!(answer.len(), 1000);
        // A `Vec` never gives capacity back, so this is the run's high-water mark.
        let held = answer.ids.capacity();
        assert!(held <= 4 * 1024, "{held} id triples held for 1000 answers");
        assert!(answer.truncated, "10^6 solutions is the limit");
    }

    #[test]
    fn emptiness_ignores_matchings_with_ill_formed_heads() {
        // The only matching binds ?O to a blank, which cannot instantiate
        // the head's predicate position: the pre-answer is empty even
        // though a matching exists.
        let s = Indexed::from(TripleStore::from_graph(&graph([("ex:s", "ex:p", "_:B")])));
        let off = PlanCache::new(false);
        let q = query([("ex:s", "?O", "ex:marker")], [("ex:s", "ex:p", "?O")]);
        assert!(!id_matchings(&q, s.dictionary(), s.id_index()).is_empty());
        assert!(engine(&s, &off).pre_answers(&q).is_empty());
        assert!(engine(&s, &off).answer_is_empty(&q));
        assert!(engine(&s, &off).answer(&q, Semantics::Union).is_empty());
    }

    #[test]
    fn empty_body_has_exactly_the_empty_matching() {
        let s = store();
        let q = Query::new(
            pattern_graph([("ex:dept", "ex:offers", "ex:DB")]),
            pattern_graph([]),
        )
        .unwrap();
        let matchings = id_matchings(&q, s.dictionary(), s.id_index());
        assert_eq!(matchings.len(), 1);
        assert!(matchings[0].is_empty());
    }

    #[test]
    fn solver_counts_the_matched_and_the_unmatched_body() {
        let s = store();
        let q = query([("?X", "ex:takes", "?C")], [("?X", "ex:takes", "?C")]);
        let compiled = compile_body(q.body(), s.dictionary()).unwrap();
        assert_eq!(IdSolver::new(&compiled, s.id_index()).count_solutions(), 4);
        let none = compile_body(
            &pattern_graph([("ex:alice", "ex:takes", "ex:AI")]),
            s.dictionary(),
        )
        .unwrap();
        assert_eq!(IdSolver::new(&none, s.id_index()).count_solutions(), 0);
    }

    #[test]
    fn bound_variable_in_predicate_position_narrows_the_scan() {
        let s = store();
        // ?P is bound by the first pattern (subject scan), then drives a POS
        // probe for the second.
        let q = query(
            [("?O2", "ex:alsoVia", "?P")],
            [("ex:alice", "?P", "?O"), ("ex:bob", "?P", "?O2")],
        );
        assert_same_matchings(&q, &s);
        let m = id_matchings(&q, s.dictionary(), s.id_index());
        assert_eq!(m.len(), 1);
        assert_eq!(
            m[0].get(&swdb_hom::Variable::new("P")).unwrap(),
            &Term::iri("ex:takes")
        );
    }
}
