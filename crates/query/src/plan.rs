//! The cost-based planner and the compiled plan cache.
//!
//! Every execution of a query body is planned: the executor
//! ([`crate::exec`]) only ever runs a compiled body in a static join order,
//! and this module is where both come from. What would otherwise be re-paid
//! per call — walking the pattern terms, costing the join, and for premise
//! queries the Proposition 5.9 expansion `Ω_q`, worst-case exponential
//! (Theorem 5.12) — is paid once per query *shape*:
//!
//! * **Planning** (`plan_order`): a static join order is derived up front
//!   by simulating the join left to right — per round, each remaining
//!   pattern is scored by its constants-only prefix count (an O(1)
//!   [`IdIndex`] range count), damped for every
//!   position an adornment-style bound/free analysis shows already bound by
//!   earlier patterns (a bound join variable narrows the scan; lacking
//!   per-value statistics the damping is a fixed factor). The shared
//!   [`swdb_hom::IdSolver`] then executes the plan with **zero** probes per
//!   backtrack node ([`swdb_hom::IdSolver::with_order`]).
//! * **Plan caching** ([`PlanCache`]): compiled plans are cached in a small
//!   LRU keyed by [`QueryShape`] — the head/body/constraint structure
//!   *modulo constant identity*, so `(?X, type, Student)` and
//!   `(?X, type, Course)` share one entry. The shape key doubles as the
//!   cached compiled form: its body/head templates *are* the compiled body
//!   and head/constraint projections with constants replaced by table
//!   indices, and a hit re-instantiates them against the live dictionary
//!   (per-call constant resolution — dictionary growth can never leave a
//!   stale [`TermId`] in a reused plan). A generation counter, bumped by
//!   the facade on mutation, regime switch, and dictionary growth,
//!   invalidates entries lazily.
//! * **Expansion caching**: `Ω_q` ([`crate::premise_free_expansion`]) is
//!   cached per premise query in the same LRU ([`expansion_members`]), so
//!   the exponential rewrite is paid once per repeated premise query.
//!
//! Answers are plan-invariant: a join order is a permutation of the body
//! patterns, so every order enumerates the same solution set. A disabled
//! cache ([`PlanCache::new`] with `false`) changes nothing but the caching:
//! every lookup misses (uncounted), nothing is stored, and the same
//! executor runs a plan built for that one call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use swdb_hom::{IdTarget, PatternTerm, Variable};
use swdb_model::{Graph, Term};
use swdb_obs::{Counter, Metrics};
use swdb_store::{Dictionary, IdIndex, IdPattern, IdTriple, TermId};

use crate::exec::{CompiledBody, ExecHooks, IdPatternTerm, IdTriplePattern, JoinOrderLog};
use crate::premise::premise_free_expansion;
use crate::query::Query;

/// Maximum number of cached entries (plans + expansions) before the
/// least-recently-used one is evicted.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// One position of a shape template: a variable slot or an index into the
/// query's first-occurrence constant table. Variables are numbered by first
/// occurrence in the body (matching [`crate::exec::compile_body`]'s slot
/// numbering), constants by first occurrence across body then head.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ShapeTerm {
    Var(u32),
    Const(u32),
}

/// The structure of a query modulo constant identity: the cache key, and —
/// because the templates keep every position — the cached compiled form.
/// `body` is the compiled-body template, `head` the head projection
/// template, `constraints` the constrained variable slots; a hit
/// re-instantiates `body` against the live dictionary instead of walking
/// the query's pattern terms again.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryShape {
    body: Vec<[ShapeTerm; 3]>,
    head: Vec<[ShapeTerm; 3]>,
    constraints: Vec<u32>,
}

/// A query's shape plus the per-call identity the shape abstracted away:
/// the constant table and the variable slot table (both in first-occurrence
/// order, borrowed from the query).
struct ShapeInfo<'q> {
    shape: QueryShape,
    consts: Vec<&'q Term>,
    vars: Vec<&'q Variable>,
}

fn encode_term<'q>(
    pos: &'q PatternTerm,
    vars: &mut Vec<&'q Variable>,
    consts: &mut Vec<&'q Term>,
) -> ShapeTerm {
    match pos {
        PatternTerm::Var(v) => {
            let slot = vars
                .iter()
                .position(|known| *known == v)
                .unwrap_or_else(|| {
                    vars.push(v);
                    vars.len() - 1
                });
            ShapeTerm::Var(slot as u32)
        }
        PatternTerm::Const(t) => {
            let index = consts
                .iter()
                .position(|known| *known == t)
                .unwrap_or_else(|| {
                    consts.push(t);
                    consts.len() - 1
                });
            ShapeTerm::Const(index as u32)
        }
    }
}

/// Extracts the shape of a query. The body is walked first, so the variable
/// numbering coincides with [`crate::exec::compile_body`]'s slot numbering;
/// head variables occur in the body (Note 4.2) and add no slots.
fn encode_pattern<'q>(
    p: &'q swdb_hom::TriplePattern,
    vars: &mut Vec<&'q Variable>,
    consts: &mut Vec<&'q Term>,
) -> [ShapeTerm; 3] {
    [
        encode_term(&p.subject, vars, consts),
        encode_term(&p.predicate, vars, consts),
        encode_term(&p.object, vars, consts),
    ]
}

fn shape_of(query: &Query) -> ShapeInfo<'_> {
    let mut vars: Vec<&Variable> = Vec::new();
    let mut consts: Vec<&Term> = Vec::new();
    let body: Vec<[ShapeTerm; 3]> = query
        .body()
        .patterns()
        .iter()
        .map(|p| encode_pattern(p, &mut vars, &mut consts))
        .collect();
    let head: Vec<[ShapeTerm; 3]> = query
        .head()
        .patterns()
        .iter()
        .map(|p| encode_pattern(p, &mut vars, &mut consts))
        .collect();
    let mut constraints: Vec<u32> = query
        .constraints()
        .iter()
        .map(|v| {
            vars.iter()
                .position(|known| *known == v)
                .expect("constraints mention head variables, which occur in the body")
                as u32
        })
        .collect();
    constraints.sort_unstable();
    ShapeInfo {
        shape: QueryShape {
            body,
            head,
            constraints,
        },
        consts,
        vars,
    }
}

/// A compiled plan: the static join order (original body-pattern indices)
/// and the planner's per-pattern cardinality estimates (original pattern
/// order, surfaced by `Explain::estimated_cardinalities`).
#[derive(Debug)]
pub struct PlanData {
    pub(crate) order: Vec<usize>,
    pub(crate) estimates: Vec<u64>,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum CacheKey {
    /// Keyed by shape alone: constants only steer the (correctness-neutral)
    /// join order, so structurally-equal queries share a plan.
    Plan(QueryShape),
    /// `Ω_q` depends on the exact constants and premise, so the expansion
    /// key carries both (the shape's constant table, instantiated).
    Expansion(QueryShape, Vec<Term>, Graph),
}

#[derive(Clone, Debug)]
enum CacheValue {
    Plan(Arc<PlanData>),
    Expansion(Arc<Vec<Query>>),
}

#[derive(Debug)]
struct CacheEntry {
    generation: u64,
    last_used: u64,
    value: CacheValue,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: std::collections::BTreeMap<CacheKey, CacheEntry>,
    tick: u64,
}

/// The compiled plan + expansion cache: a small LRU with lazy generational
/// invalidation. Owners bump [`PlanCache::bump_generation`] whenever the
/// substrate a plan was costed against changes — the facade does so on
/// mutation, regime switch, and dictionary growth; a published snapshot is
/// immutable, so its cache never invalidates. Interior mutability is a
/// plain mutex: the lock is held for a `BTreeMap` probe, orders of
/// magnitude shorter than the planning or execution it saves.
#[derive(Debug)]
pub struct PlanCache {
    enabled: bool,
    generation: AtomicU64,
    state: Mutex<CacheState>,
}

impl PlanCache {
    /// An empty cache, enabled or disabled. A disabled cache never holds
    /// an entry: every lookup misses without being counted and nothing is
    /// stored, so each call plans for itself.
    pub fn new(enabled: bool) -> Self {
        PlanCache {
            enabled,
            generation: AtomicU64::new(0),
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Whether plans and expansions are kept between calls.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Invalidates every cached entry (lazily: entries stamped with an
    /// older generation are discarded on their next lookup).
    pub fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Cached entries, including ones an older generation has already
    /// doomed (they are discarded on lookup).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("plan cache poisoned")
            .entries
            .len()
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, key: &CacheKey, metrics: &Metrics) -> Option<CacheValue> {
        if !self.enabled {
            return None;
        }
        let generation = self.generation();
        let mut state = self.state.lock().expect("plan cache poisoned");
        match state.entries.get_mut(key) {
            Some(entry) if entry.generation == generation => {
                state.tick += 1;
                let tick = state.tick;
                let entry = state.entries.get_mut(key).expect("probed above");
                entry.last_used = tick;
                metrics.count(Counter::PlanCacheHits, 1);
                Some(entry.value.clone())
            }
            Some(_) => {
                state.entries.remove(key);
                metrics.count(Counter::PlanCacheEvictions, 1);
                metrics.count(Counter::PlanCacheMisses, 1);
                None
            }
            None => {
                metrics.count(Counter::PlanCacheMisses, 1);
                None
            }
        }
    }

    fn store(&self, key: CacheKey, value: CacheValue, metrics: &Metrics) {
        if !self.enabled {
            return;
        }
        let generation = self.generation();
        let mut state = self.state.lock().expect("plan cache poisoned");
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(
            key,
            CacheEntry {
                generation,
                last_used: tick,
                value,
            },
        );
        if state.entries.len() > PLAN_CACHE_CAPACITY {
            let coldest = state
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over capacity");
            state.entries.remove(&coldest);
            metrics.count(Counter::PlanCacheEvictions, 1);
        }
    }
}

/// Damping factor applied to a pattern's constants-only count for each
/// position the bound/free analysis shows bound by earlier patterns: a
/// bound join variable turns a wildcard into an exact-match position, which
/// typically narrows the scan substantially. With no per-value statistics
/// the factor is a fixed heuristic; what matters for the greedy order is
/// that boundness is rewarded monotonically.
const BOUND_POSITION_DAMPING: u64 = 4;

/// Estimates the cardinality of one pattern given which variable slots the
/// plan has already bound. The base is the constants-only prefix count (the
/// exact number of candidates an unadorned scan would visit); each bound
/// variable position divides it by [`BOUND_POSITION_DAMPING`].
fn estimate_pattern<T: IdTarget>(
    pattern: &IdTriplePattern,
    bound: &[bool],
    no_binding: &[Option<TermId>],
    target: &T,
) -> u64 {
    let mut estimate = target.candidate_count(pattern.to_scan(no_binding)) as u64;
    for position in [pattern.subject, pattern.predicate, pattern.object] {
        if let IdPatternTerm::Var(slot) = position {
            if bound[slot] && estimate > 1 {
                estimate = (estimate / BOUND_POSITION_DAMPING).max(1);
            }
        }
    }
    estimate
}

/// Plans a static join order by greedy simulation: per round, pick the
/// remaining pattern with the smallest [`estimate_pattern`] (first wins on
/// ties, zero short-circuits — the same rules as the dynamic
/// [`swdb_hom::most_constrained`] selection, so on a body whose first
/// choice decides everything the plan matches the dynamic order), then mark
/// its variable slots bound. Returns the order (original pattern indices)
/// and the estimate each pattern had when it was selected (original pattern
/// order). Spends `O(n²)` probes once, instead of `O(n)` probes per
/// backtrack node on every call.
fn plan_order<T: IdTarget>(
    patterns: &[IdTriplePattern],
    slots: usize,
    target: &T,
) -> (Vec<usize>, Vec<u64>) {
    let no_binding: Vec<Option<TermId>> = vec![None; slots];
    let mut bound = vec![false; slots];
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut order = Vec::with_capacity(patterns.len());
    let mut estimates = vec![0u64; patterns.len()];
    while !remaining.is_empty() {
        let mut best: Option<(usize, u64)> = None;
        for (position, &index) in remaining.iter().enumerate() {
            let estimate = estimate_pattern(&patterns[index], &bound, &no_binding, target);
            if best.is_none_or(|(_, best_estimate)| estimate < best_estimate) {
                best = Some((position, estimate));
            }
            if estimate == 0 {
                break;
            }
        }
        let (position, estimate) = best.expect("remaining not empty");
        let index = remaining.remove(position);
        estimates[index] = estimate;
        order.push(index);
        for pos in [
            patterns[index].subject,
            patterns[index].predicate,
            patterns[index].object,
        ] {
            if let IdPatternTerm::Var(slot) = pos {
                bound[slot] = true;
            }
        }
    }
    (order, estimates)
}

/// Counts the selectivity probes ([`IdTarget::candidate_count`] calls)
/// planning spends against the wrapped target — the only probes a query
/// pays, since a planned search issues none.
struct MeteredTarget<'a> {
    inner: &'a IdIndex,
    /// A relaxed atomic only because the target trait requires [`Sync`].
    probes: AtomicU64,
}

impl IdTarget for MeteredTarget<'_> {
    fn candidate_count(&self, pattern: IdPattern) -> usize {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.candidate_count(pattern)
    }

    fn scan_while(&self, pattern: IdPattern, visit: impl FnMut(IdTriple) -> bool) {
        self.inner.scan_while(pattern, visit)
    }

    fn contains(&self, ids: IdTriple) -> bool {
        self.inner.contains(ids)
    }
}

/// A query prepared for execution: the re-instantiated compiled body, the
/// (possibly cached) plan, whether the plan came from cache, and the
/// candidate probes planning itself paid (zero on a hit).
pub(crate) struct Prepared {
    pub compiled: CompiledBody,
    pub plan: Arc<PlanData>,
    pub hit: bool,
    pub plan_probes: u64,
}

impl Prepared {
    /// The executor's view of this plan.
    pub fn hooks<'a>(&'a self, recorder: Option<&'a JoinOrderLog>) -> ExecHooks<'a> {
        ExecHooks {
            compiled: &self.compiled,
            order: &self.plan.order,
            recorder,
        }
    }
}

/// Re-instantiates a shape's body template against the live dictionary.
/// Returns `None` when a body constant was never interned (the
/// unknown-constant fast path: zero matchings without touching the index).
fn instantiate_body(info: &ShapeInfo<'_>, dictionary: &Dictionary) -> Option<Vec<IdTriplePattern>> {
    let mut const_ids: Vec<Option<TermId>> = vec![None; info.consts.len()];
    let mut resolve = |term: ShapeTerm| -> Option<IdPatternTerm> {
        match term {
            ShapeTerm::Var(slot) => Some(IdPatternTerm::Var(slot as usize)),
            ShapeTerm::Const(index) => {
                let id = match const_ids[index as usize] {
                    Some(id) => id,
                    None => {
                        let id = dictionary.id_of(info.consts[index as usize])?;
                        const_ids[index as usize] = Some(id);
                        id
                    }
                };
                Some(IdPatternTerm::Const(id))
            }
        }
    };
    info.shape
        .body
        .iter()
        .map(|[s, p, o]| {
            Some(IdTriplePattern {
                subject: resolve(*s)?,
                predicate: resolve(*p)?,
                object: resolve(*o)?,
            })
        })
        .collect()
}

/// Shape-keys the query, re-instantiates its compiled body, and fetches (or
/// builds and caches) its plan. `None` means a body constant was never
/// interned — the caller returns the empty result without executing.
pub(crate) fn prepare(
    cache: &PlanCache,
    query: &Query,
    dictionary: &Dictionary,
    target: &IdIndex,
    metrics: &Metrics,
) -> Option<Prepared> {
    let info = shape_of(query);
    let patterns = instantiate_body(&info, dictionary)?;
    metrics.count(Counter::QueryPatternsCompiled, patterns.len() as u64);
    let vars: Vec<Variable> = info.vars.iter().map(|v| (*v).clone()).collect();
    let slots = vars.len();
    let key = CacheKey::Plan(info.shape);
    let (plan, hit, plan_probes) = match cache.lookup(&key, metrics) {
        Some(CacheValue::Plan(plan)) => (plan, true, 0),
        _ => {
            let metered = MeteredTarget {
                inner: target,
                probes: AtomicU64::new(0),
            };
            let (order, estimates) = plan_order(&patterns, slots, &metered);
            let plan_probes = metered.probes.into_inner();
            metrics.count(Counter::QueryJoinProbes, plan_probes);
            let plan = Arc::new(PlanData { order, estimates });
            cache.store(key, CacheValue::Plan(plan.clone()), metrics);
            (plan, false, plan_probes)
        }
    };
    Some(Prepared {
        compiled: CompiledBody::from_parts(patterns, vars),
        plan,
        hit,
        plan_probes,
    })
}

/// The premise-free expansion `Ω_q` of a premise query, cached per exact
/// query (shape + constants + premise) — the worst-case-exponential rewrite
/// of Proposition 5.9 is paid once per repeated premise query. The `bool`
/// reports whether the lookup was a hit (never, when the cache is
/// disabled).
pub fn expansion_members(
    cache: &PlanCache,
    query: &Query,
    metrics: &Metrics,
) -> (Arc<Vec<Query>>, bool) {
    let info = shape_of(query);
    let key = CacheKey::Expansion(
        info.shape.clone(),
        info.consts.iter().map(|t| (*t).clone()).collect(),
        query.premise().clone(),
    );
    if let Some(CacheValue::Expansion(members)) = cache.lookup(&key, metrics) {
        return (members, true);
    }
    let members = Arc::new(premise_free_expansion(query));
    cache.store(key, CacheValue::Expansion(members.clone()), metrics);
    (members, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{answer_against, NormalizedDatabase, Semantics};
    use crate::engine::{planned_answer, Mechanism, QueryEngine};
    use crate::exec::{self, Explain};
    use crate::query::query;
    use swdb_model::graph;
    use swdb_store::TripleStore;

    fn store() -> TripleStore {
        TripleStore::from_graph(&graph([
            ("ex:dept", "ex:offers", "ex:DB"),
            ("ex:dept", "ex:offers", "ex:AI"),
            ("ex:alice", "ex:takes", "ex:DB"),
            ("ex:bob", "ex:takes", "ex:AI"),
            ("ex:carol", "ex:takes", "ex:DB"),
        ]))
    }

    #[test]
    fn shapes_identify_structure_modulo_constants() {
        let a = query([("?X", "ex:p", "ex:a")], [("?X", "ex:q", "ex:a")]);
        let b = query([("?Y", "ex:r", "ex:b")], [("?Y", "ex:s", "ex:b")]);
        assert_eq!(shape_of(&a).shape, shape_of(&b).shape);
        // Repeating a constant is structural: a query reusing one constant
        // twice differs from one using two distinct constants.
        let c = query([("?X", "ex:p", "ex:a")], [("?X", "ex:a", "ex:a")]);
        assert_ne!(shape_of(&a).shape, shape_of(&c).shape);
        // Repeated variables are structural too.
        let d = query([("?X", "ex:p", "ex:a")], [("?X", "ex:q", "?X")]);
        assert_ne!(shape_of(&a).shape, shape_of(&d).shape);
    }

    #[test]
    fn planner_prefers_the_selective_pattern_first() {
        let s = store();
        // Pattern 0 scans 5 triples constants-only; pattern 1 scans 2.
        let q = query(
            [("?S", "ex:studies", "?C")],
            [("?S", "ex:takes", "?C"), ("ex:dept", "ex:offers", "?C")],
        );
        let compiled = exec::compile_body(q.body(), s.dictionary()).unwrap();
        let (order, estimates) = plan_order(
            compiled.patterns(),
            compiled.variables().len(),
            s.id_index(),
        );
        assert_eq!(order[0], 1, "the constant-bound pattern goes first");
        assert_eq!(estimates[1], 2, "selected at its constants-only count");
        assert!(
            estimates[0] < 3,
            "the second selection is damped for its bound ?C: {}",
            estimates[0]
        );
    }

    #[test]
    fn planned_answers_equal_the_string_space_answers() {
        let s = store();
        let reference = NormalizedDatabase::assume_normalized(s.to_graph());
        let cache = PlanCache::new(true);
        let metrics = Metrics::disabled();
        for q in [
            query([("?X", "ex:takes", "?C")], [("?X", "ex:takes", "?C")]),
            query(
                [("?S", "ex:studies", "?C")],
                [("ex:dept", "ex:offers", "?C"), ("?S", "ex:takes", "?C")],
            ),
            query([("?X", "?P", "?Y")], [("?X", "?P", "?Y")]),
        ] {
            for semantics in [Semantics::Union, Semantics::Merge] {
                // Twice: a cold (miss) and a warm (hit) execution.
                for _ in 0..2 {
                    let planned = planned_answer(
                        &cache,
                        &q,
                        s.dictionary(),
                        s.id_index(),
                        semantics,
                        metrics,
                    );
                    // The store is blank-free, so even merge answers are
                    // equal, not merely isomorphic.
                    assert_eq!(
                        planned,
                        answer_against(&q, &reference, semantics),
                        "query {q:?} under {semantics:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn generation_bump_invalidates_cached_plans() {
        let s = store();
        let cache = PlanCache::new(true);
        let metrics = Metrics::disabled();
        let q = query([("?X", "ex:takes", "?C")], [("?X", "ex:takes", "?C")]);
        let miss = prepare(&cache, &q, s.dictionary(), s.id_index(), metrics).unwrap();
        assert!(!miss.hit);
        let hit = prepare(&cache, &q, s.dictionary(), s.id_index(), metrics).unwrap();
        assert!(hit.hit);
        cache.bump_generation();
        let after = prepare(&cache, &q, s.dictionary(), s.id_index(), metrics).unwrap();
        assert!(!after.hit, "a bumped generation dooms the cached plan");
    }

    #[test]
    fn lru_eviction_keeps_the_cache_bounded() {
        let s = store();
        let cache = PlanCache::new(true);
        let metrics = Metrics::disabled();
        for i in 0..PLAN_CACHE_CAPACITY + 10 {
            // Distinct shapes: i+1 copies of the pattern with fresh
            // variables each — shape length differs per i.
            let body: Vec<(String, String, String)> = (0..=i)
                .map(|j| (format!("?X{j}"), "ex:takes".to_string(), format!("?C{j}")))
                .collect();
            let body_ref: Vec<(&str, &str, &str)> = body
                .iter()
                .map(|(a, b, c)| (a.as_str(), b.as_str(), c.as_str()))
                .collect();
            let q = query(
                [(body_ref[0].0, "ex:studies", body_ref[0].2)],
                body_ref.clone(),
            );
            prepare(&cache, &q, s.dictionary(), s.id_index(), metrics).unwrap();
            assert!(cache.len() <= PLAN_CACHE_CAPACITY);
        }
    }

    fn explain(cache: &PlanCache, s: &TripleStore, q: &Query) -> Explain {
        QueryEngine {
            dictionary: s.dictionary(),
            target: s.id_index(),
            cache,
            metrics: Metrics::disabled(),
            mechanism: Mechanism::PremiseFree,
            non_minimal: false,
        }
        .explain(q, Semantics::Union)
    }

    #[test]
    fn disabled_cache_stays_empty_and_plans_per_call() {
        let s = store();
        let cache = PlanCache::new(false);
        let metrics = Metrics::new(swdb_obs::MetricsLevel::Counters);
        let q = query(
            [("?S", "ex:studies", "?C")],
            [("?S", "ex:takes", "?C"), ("ex:dept", "ex:offers", "?C")],
        );
        let planned = planned_answer(
            &cache,
            &q,
            s.dictionary(),
            s.id_index(),
            Semantics::Union,
            &metrics,
        );
        let reference = NormalizedDatabase::assume_normalized(s.to_graph());
        assert_eq!(planned, answer_against(&q, &reference, Semantics::Union));
        assert!(cache.is_empty());
        // Nothing is remembered, so nothing counts as a hit or a miss.
        let counted = metrics.snapshot();
        assert_eq!(counted.counter("plan_cache_hits"), 0);
        assert_eq!(counted.counter("plan_cache_misses"), 0);
        // Same executor, same plan — built for this one call, so both
        // explains pay the planning probes and neither is a hit.
        let first = explain(&cache, &s, &q);
        assert_eq!(first.plan_cache, "off");
        assert_eq!(first.join_order, vec![1, 0]);
        assert!(first.probes > 0);
        assert_eq!(explain(&cache, &s, &q), first);
        assert!(cache.is_empty());
    }

    #[test]
    fn explain_reports_cache_state_and_cardinalities() {
        let s = store();
        let cache = PlanCache::new(true);
        let q = query(
            [("?S", "ex:studies", "?C")],
            [("?S", "ex:takes", "?C"), ("ex:dept", "ex:offers", "?C")],
        );
        let first = explain(&cache, &s, &q);
        assert_eq!(first.plan_cache, "miss");
        let second = explain(&cache, &s, &q);
        assert_eq!(second.plan_cache, "hit");
        assert_eq!(first.join_order, second.join_order);
        assert_eq!(first.join_order, vec![1, 0]);
        assert_eq!(first.estimated_cardinalities.len(), 2);
        assert_eq!(first.actual_cardinalities, vec![3, 2]);
        assert_eq!(first.answers, second.answers);
        // All probing happens at plan time: the warm run pays none.
        assert!(first.probes > 0);
        assert_eq!(second.probes, 0);
        let rendered = second.to_json();
        assert!(rendered.contains("\"plan_cache\": \"hit\""));
        assert!(rendered.contains("\"estimated_cardinalities\": "));
    }

    #[test]
    fn expansion_members_are_cached_per_premise_query() {
        let q = Query::with_premise(
            swdb_hom::pattern_graph([("?X", "ex:p", "?Y")]),
            swdb_hom::pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
            graph([("ex:a", "ex:t", "ex:s")]),
        )
        .unwrap();
        let cache = PlanCache::new(true);
        let metrics = Metrics::disabled();
        let (first, first_hit) = expansion_members(&cache, &q, metrics);
        let (second, second_hit) = expansion_members(&cache, &q, metrics);
        assert!(!first_hit);
        assert!(second_hit);
        assert!(
            Arc::ptr_eq(&first, &second),
            "the second call is a cache hit"
        );
        assert_eq!(*first, premise_free_expansion(&q));
        // A different premise is a different key.
        let other = q.replacing_premise(graph([("ex:b", "ex:t", "ex:s")]));
        let (third, third_hit) = expansion_members(&cache, &other, metrics);
        assert!(!third_hit);
        assert!(!Arc::ptr_eq(&first, &third));
    }
}
