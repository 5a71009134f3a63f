//! The incremental id-space core engine.
//!
//! [`IdCoreEngine`] maintains `core(G)` (Theorem 3.10) for a mutating set of
//! id-triples without ever re-running the monolithic string-space retraction
//! of [`crate::core`](mod@crate::core). It is the read-path counterpart of
//! `swdb-reason`'s incremental closure: together they keep the evaluation graph
//! `nf(D) = core(cl(D))` of Theorem 4.6 maintained under deltas instead of
//! rebuilt per mutation. Three ideas, layered:
//!
//! 1. **Ground triples never participate.** A map fixes URIs (§2.1), so
//!    ground triples survive every retraction: they go straight into the
//!    published index, and a *ground* delta is pure `O(log n)` index
//!    maintenance — no core step at all, the common case.
//! 2. **Blank triples decompose into components** (see
//!    [`crate::components`]): a non-leanness witness only moves the blanks
//!    of the component owning the avoided triple, so the global NP-hard
//!    search (Theorem 3.12) splits into one small retraction search per
//!    component, each running in id space over the shared published index
//!    ([`swdb_hom::Avoiding`] masks the avoided triple instead of cloning
//!    `G − {t}`).
//! 3. **Support tracking makes deltas local.** Each component records the
//!    *images* of its triples under its composed retraction. A deletion
//!    re-cores exactly the components whose structure or support it touches;
//!    an insertion re-checks only components whose triples could newly fold
//!    onto it (matching predicate). Everything else keeps its cached
//!    survivors.
//!
//! ### Why per-component processing yields the global core
//!
//! Restricting a global witness `μ : G → G − {t}` to the blanks of `t`'s
//! component is still a witness (other components' triples mention none of
//! those blanks, so they are fixed and stay in `G − {t}`); conversely a
//! local witness extends by the identity. Hence *G is lean iff every
//! component is locally lean*. Each local fold is a genuine retraction of
//! the current graph, so their composition witnesses that the final result
//! is an instance-subgraph — and shrinking the graph never creates new maps
//! (a map into a subgraph is a map into the graph), so components already
//! processed stay lean: the fixpoint is `core(G)`, reached without a global
//! search. Fold images may land on *other* components' triples or on ground
//! triples; that cross-component support is exactly what the per-component
//! `support` sets record, and every fold map is replayed onto all support
//! sets so they always name live triples of the published index.
//!
//! ### One kernel
//!
//! `core(G)` is one operation iterated to a fixpoint (Def. 3.7, Thm 3.10),
//! and so is the code: `fold_to_fixpoint` is the only place a retraction
//! search starts. It takes a view of the evaluation graph and one
//! component — from its full set when the component is stale, from its
//! survivors when it may only retract further — draws the component's
//! budget slice, applies folds to the view until none is left or the slice
//! runs out, and returns the survivors, the composed map and whether it
//! ran out. `Cells::commit` is the only place that result is written into
//! a component (and replayed onto the others' support sets), which makes
//! it the only place a component's uncored share changes; the cold build,
//! [`IdCoreEngine::apply_delta`] and [`IdCoreEngine::recore_uncored`] are
//! sweeps of kernel-then-commit over the engine's components under three
//! filters (stale / a survivor shares a newly visible predicate / uncored).
//!
//! Besides durable deltas, the engine also cores **scoped** deltas:
//! [`IdCoreEngine::overlay_core`] runs `apply_delta`'s insert half, the
//! same function, against a fork of the published index (a clone of the
//! persistent index, which shares every chunk the delta leaves alone) and
//! a scratch copy of the few components that half can reach, and returns
//! the fork as an [`EvalOverlay`] — the substrate of transient
//! query-premise evaluation (`D + P` for one query, then dropped). The
//! durable paths keep what the commits wrote; the fork drops its scratch
//! components. The kernel searches a fork exactly as it searches the
//! committed index, so a fork's index and flag are the ones committing the
//! same delta would publish, under every budget.
//!
//! ### Degraded mode — bounding the NP-hard tail
//!
//! Each local retraction search is still NP-hard in its component's size
//! (Theorem 3.12), and one giant blank component degenerates to exactly the
//! global search: a hostile insert — or a merely unlucky one — could stall
//! a refresh indefinitely. A [`CoreBudgetMode`] bounds that tail: every
//! component-coring call gets a cooperative [`swdb_obs::Budget`] slice
//! (fold steps and/or wall clock, checked at probe granularity inside the
//! backtracking search — no threads, no interrupts), and a component whose
//! slice runs out is **published uncored**: its current survivor set goes
//! into the evaluation index as-is, the component is flagged, and
//! [`IdCoreEngine::recore_uncored`] retries it with a fresh slice on the
//! next quiet refresh. The same slices govern [`IdCoreEngine::overlay_core`]
//! so a poisoned what-if premise cannot stall the shared engine either; the
//! fork then reports [`EvalOverlay::non_minimal`].
//!
//! **Why publishing uncored is sound.** The engine shrinks the published
//! set only by *applying a found witness*: every fold applied before the
//! budget tripped is a genuine retraction of the graph it was found in.
//! The published state `G'` therefore satisfies
//! `core(cl(D)) ⊆ G' ⊆ cl(D)`, and `G'` is homomorphically equivalent to
//! `cl(D)` (the composed folds witness `cl(D) → G'`; the inclusion embeds
//! `G' → cl(D)`). Queries evaluated over `G'` are then *sound*: every
//! match over `G'` is a match over `cl(D)`, so no reported answer is
//! wrong; and they are *complete* for certain answers: nothing of the core
//! was dropped, so no entailed answer is lost. What the budget costs is
//! **minimality** — the answer graph may mention redundant blanks a
//! finished core search would have folded away (it may fail to be lean,
//! Def. 3.7) — never correctness. The engine surfaces that honestly as
//! `non_minimal` through the facade's answer path instead of hiding it.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use swdb_hom::{Avoiding, IdPatternTerm, IdSolver, IdTriplePattern};
use swdb_obs::{Budget, Counter, Gauge, Hist, Metrics, MetricsLevel};
use swdb_store::{Dictionary, IdIndex, IdTriple, TermId};

use crate::components::blank_components;

/// A URI-preserving map over term ids: the id-space [`swdb_model::TermMap`].
/// Only the moved blank ids are recorded.
type IdMap = BTreeMap<TermId, TermId>;

fn apply_map(map: &IdMap, (s, p, o): IdTriple) -> IdTriple {
    (
        map.get(&s).copied().unwrap_or(s),
        p,
        map.get(&o).copied().unwrap_or(o),
    )
}

fn remap_set(set: &BTreeSet<IdTriple>, map: &IdMap) -> BTreeSet<IdTriple> {
    set.iter().map(|&t| apply_map(map, t)).collect()
}

/// An explicit per-slice budget: fold-search steps and/or wall-clock
/// milliseconds. Both `None` means no limit (equivalent to
/// [`CoreBudgetMode::Unlimited`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreBudget {
    /// Probe-granularity step limit for one component-coring call.
    pub steps: Option<u64>,
    /// Wall-clock limit in milliseconds for one component-coring call.
    pub millis: Option<u64>,
}

impl CoreBudget {
    /// A pure step budget.
    pub fn steps(steps: u64) -> CoreBudget {
        CoreBudget {
            steps: Some(steps),
            millis: None,
        }
    }

    /// A pure wall-clock budget.
    pub fn millis(millis: u64) -> CoreBudget {
        CoreBudget {
            steps: None,
            millis: Some(millis),
        }
    }

    fn is_unlimited(self) -> bool {
        self.steps.is_none() && self.millis.is_none()
    }
}

/// In [`CoreBudgetMode::Auto`], how many search steps an oversized
/// component's slice gets per unit of the `SWDB_BLANK_WARN` threshold
/// (default threshold 1 000 → one million probe steps per slice).
pub const AUTO_STEPS_PER_WARN_UNIT: u64 = 1_000;

/// How the engine budgets its component-coring calls (see the module's
/// "Degraded mode" section).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoreBudgetMode {
    /// Never give up: the pre-budget behavior, bit-identical results.
    Unlimited,
    /// Every component-coring call gets this explicit slice.
    Budgeted(CoreBudget),
    /// The default heuristic, keyed off the `SWDB_BLANK_WARN` threshold:
    /// components at or under the threshold run unbudgeted (benign inputs
    /// stay bit-identical to [`Unlimited`]); oversized components — the
    /// ones the early-warning gauge already flags — get
    /// [`AUTO_STEPS_PER_WARN_UNIT`] × threshold steps per slice.
    ///
    /// [`Unlimited`]: CoreBudgetMode::Unlimited
    #[default]
    Auto,
}

impl CoreBudgetMode {
    /// Reads the mode from the environment: `SWDB_CORE_BUDGET` unset or
    /// `auto` means [`Auto`]; `off`/`unlimited`/`none` means [`Unlimited`];
    /// an integer is an explicit per-slice step budget. An integer
    /// `SWDB_CORE_BUDGET_MS` adds (or alone sets) a wall-clock limit.
    ///
    /// [`Auto`]: CoreBudgetMode::Auto
    /// [`Unlimited`]: CoreBudgetMode::Unlimited
    pub fn from_env() -> CoreBudgetMode {
        let steps = std::env::var("SWDB_CORE_BUDGET").ok();
        let millis = std::env::var("SWDB_CORE_BUDGET_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        match steps.as_deref().map(str::trim) {
            Some(s)
                if s.eq_ignore_ascii_case("off")
                    || s.eq_ignore_ascii_case("unlimited")
                    || s.eq_ignore_ascii_case("none") =>
            {
                CoreBudgetMode::Unlimited
            }
            Some(s) if !s.is_empty() && !s.eq_ignore_ascii_case("auto") => match s.parse::<u64>() {
                Ok(n) => CoreBudgetMode::Budgeted(CoreBudget {
                    steps: Some(n),
                    millis,
                }),
                Err(_) => CoreBudgetMode::Auto,
            },
            _ => match millis {
                Some(ms) => CoreBudgetMode::Budgeted(CoreBudget::millis(ms)),
                None => CoreBudgetMode::Auto,
            },
        }
    }

    /// The budget slice for one component-coring call over `size` triples;
    /// `None` runs the search unbudgeted.
    fn slice(self, size: usize, warn_threshold: u64) -> Option<Budget> {
        match self {
            CoreBudgetMode::Unlimited => None,
            CoreBudgetMode::Budgeted(b) if b.is_unlimited() => None,
            CoreBudgetMode::Budgeted(b) => {
                Some(Budget::new(b.steps, b.millis.map(Duration::from_millis)))
            }
            CoreBudgetMode::Auto => ((size as u64) > warn_threshold)
                .then(|| Budget::steps(warn_threshold.saturating_mul(AUTO_STEPS_PER_WARN_UNIT))),
        }
    }
}

/// A premise committed into a fork: the evaluation index `maintained ∪
/// delta` would publish, forked from the engine's own index (a clone of the
/// persistent index shares every chunk the delta leaves alone). The engine
/// that produced it is untouched, so the fork can be dropped — or cached
/// and queried again — without any cleanup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalOverlay {
    /// The forked evaluation index with the delta committed into it.
    pub index: IdIndex,
    /// Set when committing the delta would leave the engine degraded — a
    /// budget slice ran out while coring the fork, or an uncored component
    /// it did not get to re-core is still published: the fork is still a
    /// sound evaluation state (equivalent to, and a superset of, the true
    /// core) but may not be minimal. See the module's "Degraded mode"
    /// section.
    pub non_minimal: bool,
}

/// One blank component with its cached core state.
#[derive(Clone, Debug)]
struct Component {
    /// The component's blank ids.
    blanks: BTreeSet<TermId>,
    /// Every maintained blank triple of the component (cored or not).
    full: BTreeSet<IdTriple>,
    /// The subset of `full` currently published in the evaluation index.
    survivors: BTreeSet<IdTriple>,
    /// `ρ(full)` for the composed retraction `ρ` — the published triples the
    /// component's folds rely on. All of them are in the evaluation index;
    /// deleting one invalidates the folds and forces a re-core.
    support: BTreeSet<IdTriple>,
    /// Set when `full` changed or `support` lost a triple: the cached
    /// survivors are meaningless and the next refresh re-cores from `full`.
    stale: bool,
    /// Set when the last coring slice ran out of budget: `survivors` is a
    /// sound superset of the local core (every applied fold was a genuine
    /// retraction) but may not be minimal. Cleared when a later slice
    /// reaches the fold fixpoint.
    uncored: bool,
}

impl Component {
    fn touches(&self, blanks: &BTreeSet<TermId>) -> bool {
        !blanks.is_empty() && self.blanks.iter().any(|b| blanks.contains(b))
    }

    /// Could a survivor fold onto a triple using one of `preds`? A map
    /// fixes predicates, so only then.
    fn shares_pred(&self, preds: &BTreeSet<TermId>) -> bool {
        self.survivors.iter().any(|t| preds.contains(&t.1))
    }
}

/// A verbatim dump of one blank component's cached core state — the unit of
/// [`CoreEngineState`]. `blanks` are derivable from `full` (via the
/// dictionary) and are not serialized.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ComponentState {
    /// Every maintained blank triple of the component (cored away or not).
    pub full: Vec<IdTriple>,
    /// The subset of `full` published in the evaluation index.
    pub survivors: Vec<IdTriple>,
    /// The images of `full` under the composed retraction (all of them
    /// published triples the component's folds rely on).
    pub support: Vec<IdTriple>,
    /// Whether the component is published uncored (degraded mode) — this is
    /// exactly the state a durability snapshot must carry so
    /// `is_degraded()` stays honest across a restart.
    pub uncored: bool,
}

/// The complete restorable state of an [`IdCoreEngine`]: the ground side of
/// the published index plus every component's cached core state.
/// [`IdCoreEngine::export_state`] produces it, [`IdCoreEngine::from_state`]
/// reconstructs a bit-identical engine from it *without re-running any core
/// search* — the contract the durability layer's recovery path depends on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreEngineState {
    /// The ground (blank-free) triples of the published evaluation index.
    pub ground: Vec<IdTriple>,
    /// Every blank component's cached state.
    pub components: Vec<ComponentState>,
}

/// What the coring kernel hands back for one component.
struct Cored {
    /// The component's triples still visible in the view.
    survivors: BTreeSet<IdTriple>,
    /// The composition of `folds`.
    composed: IdMap,
    /// Every fold applied to the view, in order.
    folds: Vec<IdMap>,
    /// The budget slice ran out before the fold fixpoint.
    exhausted: bool,
}

/// One run of the coring kernel ([`fold_to_fixpoint`]) over some components:
/// the budget policy, the predicates that became visible (the only possible
/// new fold images), and the work tally, flushed to [`Metrics`] once.
#[derive(Default)]
struct Coring {
    mode: CoreBudgetMode,
    warn_threshold: u64,
    added_preds: BTreeSet<TermId>,
    searches: u64,
    fold_steps: u64,
    recored: u64,
    exhausted_slices: u64,
    replays: u64,
}

impl Coring {
    fn flush(&self, metrics: &Metrics) {
        metrics.count(Counter::CoreComponentsRecored, self.recored);
        metrics.count(Counter::CoreFoldSteps, self.fold_steps);
        metrics.count(Counter::CoreRetractionSearches, self.searches);
        metrics.count(Counter::CoreBudgetExhausted, self.exhausted_slices);
        metrics.count(Counter::CoreSupportReplays, self.replays);
    }
}

/// The uncored components and their published (survivor) triples — what
/// `is_degraded` and the degradation gauges read in O(1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Uncored {
    components: usize,
    triples: usize,
}

impl Uncored {
    fn enter(&mut self, c: &Component) {
        if c.uncored {
            self.components += 1;
            self.triples += c.survivors.len();
        }
    }

    fn leave(&mut self, c: &Component) {
        if c.uncored {
            self.components -= 1;
            self.triples -= c.survivors.len();
        }
    }
}

/// The blank components plus the aggregates every commit reports, kept
/// current where they change: the largest size where components leave and
/// enter the partition, a component's uncored share in [`Cells::commit`]. The engine
/// owns one; [`IdCoreEngine::overlay_core`] runs a scratch one.
#[derive(Clone, Debug, Default)]
struct Cells {
    list: Vec<Component>,
    uncored: Uncored,
    /// Size in triples of the largest component.
    largest: usize,
}

impl Cells {
    fn push(&mut self, c: Component) {
        self.uncored.enter(&c);
        self.largest = self.largest.max(c.full.len());
        self.list.push(c);
    }

    /// Takes out the components a blank-structural delta touches. A delta
    /// triple can merge, split, extend or shrink exactly the components it
    /// shares a blank with: any other component's triples mention none of
    /// the delta's blanks, so its partition cell is untouched and its
    /// cached core state carries over wholesale.
    fn dissolve(&mut self, delta_blanks: &BTreeSet<TermId>) -> Vec<Component> {
        if delta_blanks.is_empty() {
            return Vec::new();
        }
        let (dissolved, kept) = std::mem::take(&mut self.list)
            .into_iter()
            .partition(|c| c.touches(delta_blanks));
        self.list = kept;
        self.largest = self.list.iter().map(|c| c.full.len()).max().unwrap_or(0);
        dissolved
    }

    /// Retires `old` and appends the blank components of its still
    /// `maintained` triples plus the `fresh` ones: a cell whose full triple
    /// set reappears unchanged among `old` (bucketed by first triple)
    /// carries its cached core state over wholesale; every other cell
    /// starts stale.
    fn partition_and_inherit(
        &mut self,
        old: Vec<Component>,
        maintained: &BTreeSet<IdTriple>,
        fresh: impl IntoIterator<Item = IdTriple>,
        dictionary: &Dictionary,
    ) {
        let triples = old
            .iter()
            .flat_map(|c| c.full.iter().copied())
            .filter(|t| maintained.contains(t))
            .chain(fresh);
        let parts = blank_components(triples, |id| dictionary.is_blank(id));
        let mut by_first: BTreeMap<IdTriple, Vec<Component>> = BTreeMap::new();
        for c in old {
            self.uncored.leave(&c);
            if let Some(&first) = c.full.first() {
                by_first.entry(first).or_default().push(c);
            }
        }
        for part in parts {
            let inherited = part.triples.first().and_then(|first| {
                let bucket = by_first.get_mut(first)?;
                let at = bucket.iter().position(|c| c.full == part.triples)?;
                Some(bucket.swap_remove(at))
            });
            self.push(match inherited {
                Some(c) => Component {
                    blanks: part.blanks,
                    full: part.triples,
                    ..c
                },
                None => Component {
                    blanks: part.blanks,
                    full: part.triples,
                    survivors: BTreeSet::new(),
                    support: BTreeSet::new(),
                    stale: true,
                    uncored: false,
                },
            });
        }
    }

    /// The insert half of a delta, against the engine's index or a fork of
    /// it (`view`). A triple mentioning a delta blank either was in a
    /// component the delta dissolves or is `fresh`, so the union-find runs
    /// over that local set alone instead of the whole blank side. Then the
    /// stale components are re-cored from their full sets, and every
    /// component whose survivors could fold onto a newly visible triple gets
    /// the chance to retract further; folds only remove triples, so that one
    /// sweep reaches the fixpoint.
    fn insert_half(
        &mut self,
        view: &mut IdIndex,
        coring: &mut Coring,
        delta_blanks: &BTreeSet<TermId>,
        fresh: impl IntoIterator<Item = IdTriple>,
        maintained: &BTreeSet<IdTriple>,
        dictionary: &Dictionary,
    ) {
        let dissolved = self.dissolve(delta_blanks);
        self.partition_and_inherit(dissolved, maintained, fresh, dictionary);
        self.sweep(view, coring, |c| c.stale);
        let added_preds = std::mem::take(&mut coring.added_preds);
        if !added_preds.is_empty() {
            self.sweep(view, coring, |c| c.shares_pred(&added_preds));
        }
    }

    /// Runs the kernel over every eligible component, in order, committing
    /// each result before the next search.
    fn sweep(
        &mut self,
        view: &mut IdIndex,
        coring: &mut Coring,
        eligible: impl Fn(&Component) -> bool,
    ) {
        for i in 0..self.list.len() {
            if eligible(&self.list[i]) {
                let cored = fold_to_fixpoint(view, &self.list[i], coring);
                self.commit(i, cored, coring);
            }
        }
    }

    /// The one commit point: writes a kernel result into component `i` and
    /// replays its folds onto every other component's support set, keeping
    /// them pointed at live triples. Out of budget, the survivors so far
    /// are published as-is — a sound superset of the local core (see
    /// "Degraded mode") — and the component waits for a retry; reaching the
    /// fold fixpoint from the *current* graph proves local leanness
    /// regardless of history, so it clears a stale uncored flag too.
    fn commit(&mut self, i: usize, cored: Cored, coring: &mut Coring) {
        let comp = &mut self.list[i];
        self.uncored.leave(comp);
        if comp.stale || !cored.folds.is_empty() {
            let source = if comp.stale {
                &comp.full
            } else {
                &comp.support
            };
            comp.support = remap_set(source, &cored.composed);
            comp.survivors = cored.survivors;
            comp.stale = false;
            coring.recored += 1;
        }
        comp.uncored = cored.exhausted;
        self.uncored.enter(comp);
        if cored.folds.is_empty() {
            return;
        }
        for (j, other) in self.list.iter_mut().enumerate() {
            if j == i {
                continue;
            }
            for map in &cored.folds {
                // A fold only moves the origin component's blanks; most
                // support sets never mention them, so probe before paying
                // for a rebuild of the set.
                let touched = other
                    .support
                    .iter()
                    .any(|(s, _, o)| map.contains_key(s) || map.contains_key(o));
                if touched {
                    other.support = remap_set(&other.support, map);
                    coring.replays += 1;
                }
            }
        }
    }
}

/// An incrementally maintained `core(·)` over id-triples.
///
/// Feed it the maintained closure (RDFS regime) or the asserted store
/// (simple regime) and keep it posted about deltas; [`IdCoreEngine::index`]
/// is then always the core of the maintained set — the evaluation index
/// premise-free queries join against.
#[derive(Clone, Debug, Default)]
pub struct IdCoreEngine {
    /// The published evaluation index: all ground triples plus every
    /// component's survivors.
    eval: IdIndex,
    /// All maintained blank triples (the un-cored blank side).
    blank_full: BTreeSet<IdTriple>,
    cells: Cells,
    /// Predicate id → number of `blank_full` triples using it. A ground
    /// insertion whose predicate no blank triple uses cannot be the image of
    /// any fold and skips the core step entirely.
    blank_pred_refs: BTreeMap<TermId, usize>,
    /// How much search each component-coring call may spend before the
    /// component is published uncored (module's "Degraded mode" section).
    budget_mode: CoreBudgetMode,
    /// Instrumentation handle (`Off` by default: every site reduces to a
    /// relaxed flag load).
    metrics: Metrics,
}

impl IdCoreEngine {
    /// An engine over the empty set.
    pub fn new() -> Self {
        IdCoreEngine::default()
    }

    /// Builds the engine — and with it `core(G)` — from a triple set. This
    /// is the cold path: ground triples stream into the index, blank triples
    /// are partitioned into components and each component is cored locally.
    pub fn from_triples(
        triples: impl IntoIterator<Item = IdTriple>,
        dictionary: &Dictionary,
    ) -> Self {
        IdCoreEngine::from_triples_budgeted(
            triples,
            dictionary,
            Metrics::default(),
            CoreBudgetMode::default(),
        )
    }

    /// [`IdCoreEngine::from_triples`] with the metrics handle and the
    /// budget mode configured *before* the cold build, so the initial
    /// component coring is observed and already bounded — on adversarial
    /// input the first build is exactly where the NP-hard tail bites, and a
    /// budget attached afterwards would come too late.
    pub fn from_triples_budgeted(
        triples: impl IntoIterator<Item = IdTriple>,
        dictionary: &Dictionary,
        metrics: Metrics,
        budget: CoreBudgetMode,
    ) -> Self {
        let mut engine = IdCoreEngine::new();
        engine.metrics = metrics;
        engine.budget_mode = budget;
        let mut ground = Vec::new();
        for t in triples {
            if is_blank_triple(dictionary, t) {
                if engine.blank_full.insert(t) {
                    *engine.blank_pred_refs.entry(t.1).or_insert(0) += 1;
                }
            } else {
                ground.push(t);
            }
        }
        engine.eval.extend(ground);
        {
            let _span = engine.metrics.span(Hist::SpanCoreRefreshNs);
            let mut coring = engine.coring(BTreeSet::new());
            engine.cells.insert_half(
                &mut engine.eval,
                &mut coring,
                &BTreeSet::new(),
                engine.blank_full.iter().copied(),
                &engine.blank_full,
                dictionary,
            );
            engine.report(&coring, dictionary);
        }
        engine
    }

    /// Dumps the engine's state for a durability snapshot. Components are
    /// exported verbatim — full sets, survivor sets, support sets and the
    /// uncored flags — so [`IdCoreEngine::from_state`] can rebuild the
    /// engine without re-running a single retraction search. Safe to call
    /// between public mutations (no component is ever left `stale` then).
    pub fn export_state(&self, dictionary: &Dictionary) -> CoreEngineState {
        CoreEngineState {
            ground: self
                .eval
                .iter()
                .filter(|&t| !is_blank_triple(dictionary, t))
                .collect(),
            components: self
                .cells
                .list
                .iter()
                .map(|c| ComponentState {
                    full: c.full.iter().copied().collect(),
                    survivors: c.survivors.iter().copied().collect(),
                    support: c.support.iter().copied().collect(),
                    uncored: c.uncored,
                })
                .collect(),
        }
    }

    /// Reconstructs an engine from an exported state: pure deserialization —
    /// the published index is ground triples plus every component's
    /// survivors, cached core state (including degraded/uncored flags)
    /// carries over verbatim, and **no core search runs**. The recovery
    /// path's replacement for [`IdCoreEngine::from_triples_budgeted`].
    pub fn from_state(
        state: &CoreEngineState,
        dictionary: &Dictionary,
        metrics: Metrics,
        budget: CoreBudgetMode,
    ) -> Self {
        let mut engine = IdCoreEngine::new();
        engine.metrics = metrics;
        engine.budget_mode = budget;
        let mut published = state.ground.clone();
        for comp in &state.components {
            let full: BTreeSet<IdTriple> = comp.full.iter().copied().collect();
            let mut blanks = BTreeSet::new();
            for &t in &full {
                note_blanks(dictionary, &mut blanks, t);
                if engine.blank_full.insert(t) {
                    *engine.blank_pred_refs.entry(t.1).or_insert(0) += 1;
                }
            }
            let survivors: BTreeSet<IdTriple> = comp.survivors.iter().copied().collect();
            published.extend(&survivors);
            engine.cells.push(Component {
                blanks,
                full,
                survivors,
                support: comp.support.iter().copied().collect(),
                stale: false,
                uncored: comp.uncored,
            });
        }
        engine.eval.extend(published);
        engine.publish_gauges();
        engine.debug_check(dictionary);
        engine
    }

    /// Attaches a metrics handle: components re-cored, retraction-search
    /// probes, fold steps, support replays and the largest-blank-component
    /// early warning all report through it.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The metrics handle observing this engine.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The published evaluation index: the core of the maintained set.
    pub fn index(&self) -> &IdIndex {
        &self.eval
    }

    /// Number of triples in the published core.
    pub fn len(&self) -> usize {
        self.eval.len()
    }

    /// Returns `true` if the published core is empty.
    pub fn is_empty(&self) -> bool {
        self.eval.is_empty()
    }

    /// Number of maintained blank triples (before coring).
    pub fn blank_triple_count(&self) -> usize {
        self.blank_full.len()
    }

    /// Number of blank components.
    pub fn component_count(&self) -> usize {
        self.cells.list.len()
    }

    /// The components' sizes in triples, ascending.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.cells.list.iter().map(|c| c.full.len()).collect();
        sizes.sort_unstable();
        sizes
    }

    /// Size in triples of the largest blank component (0 when none) — the
    /// driver of the worst-case core search, observed on every commit.
    pub fn largest_component_size(&self) -> usize {
        self.cells.largest
    }

    /// The configured component-coring budget mode.
    pub fn core_budget(&self) -> CoreBudgetMode {
        self.budget_mode
    }

    /// Reconfigures the budget mode. Takes effect from the next coring
    /// call on; already-published state is untouched (use
    /// [`IdCoreEngine::recore_uncored`] to retry degraded components under
    /// the new mode).
    pub fn set_core_budget(&mut self, mode: CoreBudgetMode) {
        self.budget_mode = mode;
    }

    /// `true` while any component is published uncored (degraded mode).
    /// Independent of the metrics level — degradation is engine state, not
    /// instrumentation.
    pub fn is_degraded(&self) -> bool {
        self.cells.uncored.components > 0
    }

    /// Number of components currently published uncored.
    pub fn uncored_components(&self) -> usize {
        self.cells.uncored.components
    }

    /// Published (survivor) triples across the uncored components — the
    /// portion of the evaluation index that may be non-minimal.
    pub fn uncored_triples(&self) -> usize {
        self.cells.uncored.triples
    }

    /// The quiet-refresh retry of degraded mode: gives every uncored
    /// component a fresh budget slice, resuming from its current survivors
    /// (all folds already applied are genuine retractions, so resuming
    /// loses nothing and converges monotonically). Returns `true` when the
    /// engine left degraded mode entirely — guaranteed when called under
    /// [`CoreBudgetMode::Unlimited`].
    pub fn recore_uncored(&mut self, dictionary: &Dictionary) -> bool {
        let mut coring = self.coring(BTreeSet::new());
        self.cells.sweep(&mut self.eval, &mut coring, |c| c.uncored);
        self.report(&coring, dictionary);
        !self.is_degraded()
    }

    /// Starts a run of the kernel under the engine's budget mode.
    fn coring(&self, added_preds: BTreeSet<TermId>) -> Coring {
        Coring {
            mode: self.budget_mode,
            warn_threshold: self.metrics.blank_warn_threshold(),
            added_preds,
            ..Coring::default()
        }
    }

    /// Ends a run that committed into the published index: its tally, the
    /// gauges, the invariants.
    fn report(&self, coring: &Coring, dictionary: &Dictionary) {
        coring.flush(&self.metrics);
        self.publish_gauges();
        self.debug_check(dictionary);
    }

    /// Every commit is an observation point: reports the largest blank
    /// component to the early-warning gauge and mirrors the degradation
    /// state (no-ops below the counters level, O(1) above it).
    fn publish_gauges(&self) {
        if self.metrics.on(MetricsLevel::Counters) {
            self.metrics
                .observe_largest_blank_component(self.cells.largest as u64);
            let uncored = self.cells.uncored;
            self.metrics
                .gauge_set(Gauge::UncoredComponents, uncored.components as u64);
            self.metrics
                .gauge_set(Gauge::UncoredTriples, uncored.triples as u64);
        }
    }

    /// Applies one batch of deltas to the maintained set and brings the
    /// published index back to its core.
    ///
    /// A delta that neither mentions a blank nor removes a published triple
    /// nor adds a possible fold image (a predicate some blank triple uses)
    /// is pure index maintenance. Otherwise the blank side is repaired at
    /// component granularity: structurally changed components and components
    /// whose support lost a triple are re-cored from their full sets (which
    /// can *restore* previously folded triples); components that merely
    /// gained potential fold targets continue retracting from their cached
    /// survivors.
    pub fn apply_delta(
        &mut self,
        added: &[IdTriple],
        removed: &[IdTriple],
        dictionary: &Dictionary,
    ) {
        let mut removed_from_eval: BTreeSet<IdTriple> = BTreeSet::new();
        let mut blank_delta_ids: BTreeSet<TermId> = BTreeSet::new();
        for &t in removed {
            if is_blank_triple(dictionary, t) {
                if self.blank_full.remove(&t) {
                    note_blanks(dictionary, &mut blank_delta_ids, t);
                    if let Some(refs) = self.blank_pred_refs.get_mut(&t.1) {
                        *refs -= 1;
                        if *refs == 0 {
                            self.blank_pred_refs.remove(&t.1);
                        }
                    }
                    if self.eval.remove(t) {
                        removed_from_eval.insert(t);
                    }
                }
            } else if self.eval.remove(t) {
                removed_from_eval.insert(t);
            }
        }
        let mut blank_added: Vec<IdTriple> = Vec::new();
        let mut ground_added: Vec<IdTriple> = Vec::new();
        for &t in added {
            if is_blank_triple(dictionary, t) {
                if self.blank_full.insert(t) {
                    note_blanks(dictionary, &mut blank_delta_ids, t);
                    blank_added.push(t);
                    *self.blank_pred_refs.entry(t.1).or_insert(0) += 1;
                }
            } else {
                ground_added.push(t);
            }
        }
        let added_preds: BTreeSet<TermId> = self
            .eval
            .insert_all(&ground_added)
            .into_iter()
            .map(|t| t.1)
            .collect();
        let relevant_add = added_preds
            .iter()
            .any(|p| self.blank_pred_refs.contains_key(p));
        if blank_delta_ids.is_empty() && removed_from_eval.is_empty() && !relevant_add {
            // The pure ground fast path: the index is already the core, and
            // no component changed.
            self.publish_gauges();
            return;
        }
        for c in &mut self.cells.list {
            if removed_from_eval.iter().any(|t| c.support.contains(t)) {
                c.stale = true;
            }
        }
        let _span = self.metrics.span(Hist::SpanCoreRefreshNs);
        let mut coring = self.coring(added_preds);
        self.cells.insert_half(
            &mut self.eval,
            &mut coring,
            &blank_delta_ids,
            blank_added,
            &self.blank_full,
            dictionary,
        );
        self.report(&coring, dictionary);
    }

    /// Is the triple part of the maintained set (cored away or not)? Ground
    /// triples live in the published index, blank triples in the full blank
    /// side.
    pub fn maintains(&self, t: IdTriple) -> bool {
        self.eval.contains(t) || self.blank_full.contains(&t)
    }

    /// Commits `maintained ∪ delta` into a *fork* of the published index,
    /// without mutating the engine — the substrate of transient premise
    /// evaluation: queries over `D + P` run against the returned
    /// [`EvalOverlay::index`], and dropping it afterwards leaves the durable
    /// state bit-identical.
    ///
    /// `delta` must be additions the engine does not already maintain (the
    /// closure preview under RDFS, the not-yet-asserted premise triples
    /// under simple entailment). It is put through
    /// [`IdCoreEngine::apply_delta`]'s own insert half, against a clone of
    /// the published index (which shares every chunk the delta leaves
    /// alone) and a scratch copy of the only components that half can
    /// reach — those sharing a blank with the delta (dissolved and
    /// repartitioned) or a predicate with anything it can make visible
    /// (candidates for retracting further) — and the scratch components are
    /// dropped instead of committed. The kernel searches the fork exactly
    /// as it would search the committed index, so the fork *is* the index
    /// committing `delta` would publish, triple for triple.
    ///
    /// The engine's [`CoreBudgetMode`] governs the fork's searches too (a
    /// hostile premise must not stall the shared engine): when a slice runs
    /// out the fork is returned as-is — sound, per the module's "Degraded
    /// mode" argument — with [`EvalOverlay::non_minimal`] set.
    pub fn overlay_core(&self, delta: &[IdTriple], dictionary: &Dictionary) -> EvalOverlay {
        let mut index = self.eval.clone();
        let mut delta_blanks: BTreeSet<TermId> = BTreeSet::new();
        let mut blank_added: Vec<IdTriple> = Vec::new();
        let mut ground_added: Vec<IdTriple> = Vec::new();
        for &t in delta {
            if !is_blank_triple(dictionary, t) {
                ground_added.push(t);
            } else if !self.blank_full.contains(&t) {
                note_blanks(dictionary, &mut delta_blanks, t);
                blank_added.push(t);
            }
        }
        let added = index.insert_all(&ground_added);
        let mut coring = self.coring(added.into_iter().map(|t| t.1).collect());
        let components = &self.cells.list;
        let mut scratch = Cells {
            uncored: self.cells.uncored,
            ..Cells::default()
        };
        if !delta_blanks.is_empty() {
            let touched = components.iter().filter(|c| c.touches(&delta_blanks));
            scratch.list.extend(touched.cloned());
        }
        // Everything the half can make visible is a delta triple or a
        // restored triple of a component it dissolves.
        let reachable_preds: BTreeSet<TermId> = delta
            .iter()
            .chain(scratch.list.iter().flat_map(|c| &c.full))
            .map(|t| t.1)
            .collect();
        let reachable = components
            .iter()
            .filter(|c| !c.touches(&delta_blanks) && c.shares_pred(&reachable_preds));
        scratch.list.extend(reachable.cloned());
        scratch.insert_half(
            &mut index,
            &mut coring,
            &delta_blanks,
            blank_added,
            &self.blank_full,
            dictionary,
        );
        coring.flush(&self.metrics);
        // What `is_degraded` would say after committing: the untouched
        // components keep their flags, the scratch ones have fresh ones.
        EvalOverlay {
            index,
            non_minimal: scratch.uncored.components > 0,
        }
    }

    /// Debug-build invariants: the published index is exactly the ground
    /// triples plus every component's survivors, all support triples are
    /// live, and the cached aggregates are current.
    fn debug_check(&self, dictionary: &Dictionary) {
        if cfg!(debug_assertions) {
            let mut uncored = Uncored::default();
            let mut expected_blank: BTreeSet<IdTriple> = BTreeSet::new();
            for c in &self.cells.list {
                uncored.enter(c);
                debug_assert!(c.survivors.is_subset(&c.full));
                debug_assert!(
                    c.support.iter().all(|t| self.eval.contains(*t)),
                    "support names a dead triple"
                );
                expected_blank.extend(c.survivors.iter().copied());
            }
            debug_assert_eq!(
                self.cells.uncored, uncored,
                "a path changed an uncored flag outside the commit point"
            );
            debug_assert_eq!(
                self.cells.largest,
                self.component_sizes().last().copied().unwrap_or(0),
                "a path changed the partition without updating the largest size"
            );
            let published_blank: BTreeSet<IdTriple> = self
                .eval
                .iter()
                .filter(|&t| is_blank_triple(dictionary, t))
                .collect();
            debug_assert_eq!(
                published_blank, expected_blank,
                "published blank triples must be exactly the survivors"
            );
        }
    }
}

fn is_blank_triple(dictionary: &Dictionary, (s, _, o): IdTriple) -> bool {
    dictionary.is_blank(s) || dictionary.is_blank(o)
}

fn note_blanks(dictionary: &Dictionary, ids: &mut BTreeSet<TermId>, (s, _, o): IdTriple) {
    ids.extend([s, o].into_iter().filter(|&id| dictionary.is_blank(id)));
}

/// The coring kernel: retracts the triples of `comp` visible in `view` to
/// a local fixpoint under one budget slice. A stale component starts over
/// from its full set (previously folded triples come back into the view
/// until the fresh local search decides their fate), any other retracts
/// further from its survivors. Each successful fold map is applied to the
/// view (dropping the folded triples) and composed into the result. On
/// return without budget exhaustion no surviving triple can be avoided: the
/// component is locally lean. With an exhausted budget the loop stops early;
/// everything applied so far is still a genuine retraction, so the survivors
/// are a sound superset of the local core.
fn fold_to_fixpoint(view: &mut IdIndex, comp: &Component, coring: &mut Coring) -> Cored {
    let start = if comp.stale {
        for &t in &comp.full {
            if view.insert(t) {
                coring.added_preds.insert(t.1);
            }
        }
        &comp.full
    } else {
        &comp.survivors
    };
    let budget = coring.mode.slice(start.len(), coring.warn_threshold);
    let mut survivors = start.clone();
    let mut composed = IdMap::new();
    let mut folds = Vec::new();
    while let Some(map) = find_fold(
        view,
        &survivors,
        &comp.blanks,
        &mut coring.searches,
        budget.as_ref(),
    ) {
        let image = remap_set(&survivors, &map);
        for &t in survivors.iter() {
            if !image.contains(&t) {
                view.remove(t);
            }
        }
        // Images that still mention the component's blanks are the surviving
        // component triples; the rest (ground triples, other components'
        // triples) are pure support.
        survivors = image
            .into_iter()
            .filter(|&(s, _, o)| comp.blanks.contains(&s) || comp.blanks.contains(&o))
            .collect();
        for v in composed.values_mut() {
            if let Some(&w) = map.get(v) {
                *v = w;
            }
        }
        for (&k, &v) in &map {
            composed.entry(k).or_insert(v);
        }
        folds.push(map);
    }
    let exhausted = budget.is_some_and(|b| b.is_exhausted());
    coring.fold_steps += folds.len() as u64;
    coring.exhausted_slices += u64::from(exhausted);
    Cored {
        survivors,
        composed,
        folds,
        exhausted,
    }
}

/// Searches for a retraction witness: a map `μ` over the component's blanks
/// with `μ(current) ⊆ eval − {t}` for some `t ∈ current` (Definition 3.7,
/// localized). The patterns are the component's triples with blanks as
/// variables; the target is the published index with the avoided triple
/// masked out, so ground triples and other components' survivors are valid
/// fold images exactly as in the global search.
fn find_fold(
    eval: &IdIndex,
    current: &BTreeSet<IdTriple>,
    blanks: &BTreeSet<TermId>,
    searches: &mut u64,
    budget: Option<&Budget>,
) -> Option<IdMap> {
    if current.is_empty() {
        return None;
    }
    let mut slot_of: BTreeMap<TermId, usize> = BTreeMap::new();
    let mut patterns: Vec<IdTriplePattern> = Vec::with_capacity(current.len());
    {
        let position = |id: TermId, slot_of: &mut BTreeMap<TermId, usize>| {
            if blanks.contains(&id) {
                let next = slot_of.len();
                IdPatternTerm::Var(*slot_of.entry(id).or_insert(next))
            } else {
                IdPatternTerm::Const(id)
            }
        };
        for &(s, p, o) in current.iter() {
            patterns.push(IdTriplePattern {
                subject: position(s, &mut slot_of),
                predicate: IdPatternTerm::Const(p),
                object: position(o, &mut slot_of),
            });
        }
    }
    for &avoid in current.iter() {
        // Exhaustion is sticky: once any solver call trips the budget, the
        // remaining avoid candidates are abandoned too ("unknown", not
        // "lean") and the caller publishes the partial state.
        if budget.is_some_and(|b| b.is_exhausted()) {
            return None;
        }
        *searches += 1;
        let target = Avoiding::new(eval, avoid);
        let mut solver = IdSolver::new(&patterns, slot_of.len(), &target);
        if let Some(b) = budget {
            solver = solver.with_budget(b);
        }
        if let Some(solution) = solver.first_solution() {
            let mut map = IdMap::new();
            for (&blank, &slot) in &slot_of {
                if solution[slot] != blank {
                    map.insert(blank, solution[slot]);
                }
            }
            debug_assert!(!map.is_empty(), "an avoiding map cannot be the identity");
            return Some(map);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_model::{graph, isomorphic, Graph};
    use swdb_store::TripleStore;

    /// Builds an engine over the graph's id-triples, returning the store for
    /// decoding.
    fn engine_of(g: &Graph) -> (TripleStore, IdCoreEngine) {
        let store = TripleStore::from_graph(g);
        let engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        (store, engine)
    }

    fn decode(store: &TripleStore, engine: &IdCoreEngine) -> Graph {
        engine
            .index()
            .iter()
            .map(|t| store.materialize(t))
            .collect()
    }

    fn assert_is_core_of(g: &Graph) {
        let (store, engine) = engine_of(g);
        let decoded = decode(&store, &engine);
        let expected = crate::core(g);
        assert!(
            isomorphic(&decoded, &expected),
            "engine core {decoded} differs from spec core {expected} for {g}"
        );
    }

    #[test]
    fn example_3_8_g1_collapses_to_one_triple() {
        let g = graph([("ex:a", "ex:p", "_:X"), ("ex:a", "ex:p", "_:Y")]);
        let (_, engine) = engine_of(&g);
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.component_count(), 2);
        assert_is_core_of(&g);
    }

    #[test]
    fn exported_state_round_trips_bit_identical() {
        // Folded blanks, a surviving blank component, and ground triples.
        let g = graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:X"),
            ("_:X", "ex:q", "ex:c"),
            ("ex:b", "ex:q", "ex:c"),
            ("ex:a", "ex:r", "_:Z"),
        ]);
        let (store, engine) = engine_of(&g);
        let state = engine.export_state(store.dictionary());
        let restored = IdCoreEngine::from_state(
            &state,
            store.dictionary(),
            Metrics::default(),
            engine.core_budget(),
        );
        let published: Vec<IdTriple> = engine.index().iter().collect();
        let restored_published: Vec<IdTriple> = restored.index().iter().collect();
        assert_eq!(published, restored_published);
        assert_eq!(engine.blank_triple_count(), restored.blank_triple_count());
        assert_eq!(engine.component_count(), restored.component_count());
        assert_eq!(engine.is_degraded(), restored.is_degraded());
        // The restored engine keeps tracking deltas exactly like the
        // original: remove the ground support of X's fold from both.
        let mut store2 = store.clone();
        let removed = store2
            .remove_with_ids(&swdb_model::triple("ex:b", "ex:q", "ex:c"))
            .expect("present");
        let mut original = engine.clone();
        let mut restored = restored;
        original.apply_delta(&[], &[removed], store2.dictionary());
        restored.apply_delta(&[], &[removed], store2.dictionary());
        let a: Vec<IdTriple> = original.index().iter().collect();
        let b: Vec<IdTriple> = restored.index().iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn exported_state_preserves_uncored_flags() {
        // A component big enough that a 0-step budget leaves it uncored.
        let g = graph([
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
            ("_:X", "ex:q", "_:Y"),
        ]);
        let store = TripleStore::from_graph(&g);
        let engine = IdCoreEngine::from_triples_budgeted(
            store.iter_ids(),
            store.dictionary(),
            Metrics::default(),
            CoreBudgetMode::Budgeted(CoreBudget::steps(0)),
        );
        assert!(engine.is_degraded(), "a 0-step slice cannot finish coring");
        let state = engine.export_state(store.dictionary());
        assert!(state.components.iter().any(|c| c.uncored));
        let restored = IdCoreEngine::from_state(
            &state,
            store.dictionary(),
            Metrics::default(),
            engine.core_budget(),
        );
        assert!(restored.is_degraded());
        assert_eq!(engine.uncored_components(), restored.uncored_components());
        assert_eq!(engine.uncored_triples(), restored.uncored_triples());
        // recore_uncored resumes post-restore: unlimited budget clears it.
        let mut restored = restored;
        restored.set_core_budget(CoreBudgetMode::Unlimited);
        assert!(restored.recore_uncored(store.dictionary()));
        assert!(!restored.is_degraded());
    }

    #[test]
    fn lean_components_survive_whole() {
        let g = graph([
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
            ("_:X", "ex:q", "ex:b"),
            ("_:Y", "ex:r", "ex:b"),
        ]);
        let (_, engine) = engine_of(&g);
        assert_eq!(engine.len(), 4, "Example 3.8 G2 is lean");
        assert_eq!(engine.component_count(), 2);
        assert_is_core_of(&g);
    }

    #[test]
    fn cross_component_folds_are_found() {
        // X's component folds onto Y's component, not onto ground.
        let g = graph([
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
            ("_:Y", "ex:q", "ex:b"),
        ]);
        let (store, engine) = engine_of(&g);
        assert_eq!(engine.len(), 2);
        assert_is_core_of(&g);
        let decoded = decode(&store, &engine);
        assert!(decoded.iter().any(|t| t.object().is_blank()));
    }

    #[test]
    fn ground_anchored_folds_are_found() {
        let g = graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:X"),
            ("_:X", "ex:q", "ex:c"),
            ("ex:b", "ex:q", "ex:c"),
        ]);
        let (store, engine) = engine_of(&g);
        assert_eq!(engine.len(), 2);
        assert!(decode(&store, &engine).is_ground());
        assert_is_core_of(&g);
    }

    #[test]
    fn ground_delta_is_index_maintenance_until_it_creates_a_fold() {
        let g = graph([("ex:a", "ex:p", "_:X"), ("_:X", "ex:q", "ex:c")]);
        let (mut store, mut engine) = engine_of(&g);
        assert_eq!(engine.len(), 2, "lean initially");
        // An unrelated ground triple: pure insert.
        let (ids, _) = store.insert_with_ids(&swdb_model::triple("ex:z", "ex:r", "ex:w"));
        engine.apply_delta(&[ids], &[], store.dictionary());
        assert_eq!(engine.len(), 3);
        // Ground triples that give X a ground fold target: (a,p,b), (b,q,c).
        let (b1, _) = store.insert_with_ids(&swdb_model::triple("ex:a", "ex:p", "ex:b"));
        engine.apply_delta(&[b1], &[], store.dictionary());
        assert_eq!(engine.len(), 4, "still lean: b lacks the q-edge");
        let (b2, _) = store.insert_with_ids(&swdb_model::triple("ex:b", "ex:q", "ex:c"));
        engine.apply_delta(&[b2], &[], store.dictionary());
        // Now X folds onto b: the two blank triples leave the core, the
        // three ground triples remain.
        assert_eq!(engine.len(), 3);
        let decoded = decode(&store, &engine);
        assert!(decoded.is_ground());
        assert!(isomorphic(&decoded, &crate::core(&store.to_graph())));
    }

    #[test]
    fn removing_a_support_triple_restores_the_folded_component() {
        let g = graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:b", "ex:q", "ex:c"),
            ("ex:a", "ex:p", "_:X"),
            ("_:X", "ex:q", "ex:c"),
        ]);
        let (mut store, mut engine) = engine_of(&g);
        assert_eq!(engine.len(), 2, "X folds onto b");
        // Remove the ground edge the fold relied on: X must come back.
        let removed = store
            .remove_with_ids(&swdb_model::triple("ex:b", "ex:q", "ex:c"))
            .expect("present");
        engine.apply_delta(&[], &[removed], store.dictionary());
        let decoded = decode(&store, &engine);
        assert_eq!(decoded.len(), 3);
        assert!(isomorphic(&decoded, &crate::core(&store.to_graph())));
    }

    #[test]
    fn blank_delta_recores_only_by_merging_components() {
        let g = graph([
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
            ("_:X", "ex:q", "ex:b"),
            ("_:Y", "ex:r", "ex:b"),
        ]);
        let (mut store, mut engine) = engine_of(&g);
        assert_eq!(engine.component_count(), 2);
        // A bridging triple merges X's and Y's components.
        let (ids, _) = store.insert_with_ids(&swdb_model::triple("_:X", "ex:s", "_:Y"));
        engine.apply_delta(&[ids], &[], store.dictionary());
        assert_eq!(engine.component_count(), 1);
        assert!(isomorphic(
            &decode(&store, &engine),
            &crate::core(&store.to_graph())
        ));
    }

    #[test]
    fn interleaved_mutations_track_the_spec_core() {
        let mut store = TripleStore::new();
        let mut engine = IdCoreEngine::new();
        let script: Vec<(bool, swdb_model::Triple)> = vec![
            (true, swdb_model::triple("ex:a", "ex:p", "_:X")),
            (true, swdb_model::triple("ex:a", "ex:p", "_:Y")),
            (true, swdb_model::triple("_:Y", "ex:q", "ex:b")),
            (true, swdb_model::triple("ex:a", "ex:p", "ex:c")),
            (true, swdb_model::triple("ex:c", "ex:q", "ex:b")),
            (false, swdb_model::triple("ex:c", "ex:q", "ex:b")),
            (false, swdb_model::triple("_:Y", "ex:q", "ex:b")),
            (true, swdb_model::triple("_:X", "ex:q", "_:X")),
            (false, swdb_model::triple("ex:a", "ex:p", "_:Y")),
        ];
        for (insert, t) in script {
            if insert {
                let (ids, added) = store.insert_with_ids(&t);
                if added {
                    engine.apply_delta(&[ids], &[], store.dictionary());
                }
            } else if let Some(ids) = store.remove_with_ids(&t) {
                engine.apply_delta(&[], &[ids], store.dictionary());
            }
            let decoded: Graph = engine
                .index()
                .iter()
                .map(|ids| store.materialize(ids))
                .collect();
            let expected = crate::core(&store.to_graph());
            assert!(
                isomorphic(&decoded, &expected),
                "after {t}: engine {decoded} vs spec {expected}"
            );
        }
    }

    /// Interns a delta graph into the store's dictionary.
    fn intern_all(store: &mut TripleStore, delta: &Graph) -> Vec<IdTriple> {
        delta
            .iter()
            .map(|t| {
                let s = store.intern(t.subject());
                let p = store.intern(&swdb_model::Term::Iri(t.predicate().clone()));
                let o = store.intern(t.object());
                (s, p, o)
            })
            .collect()
    }

    /// Decodes a premise's fork of the published index.
    fn decode_fork(store: &TripleStore, fork: &EvalOverlay) -> Graph {
        fork.index.iter().map(|t| store.materialize(t)).collect()
    }

    /// The fork must be isomorphic to the spec core of the combined graph,
    /// and computing it must leave the engine untouched.
    fn assert_fork_is_core_of_union(base: &Graph, delta: &Graph) {
        let mut store = TripleStore::from_graph(base);
        let engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        let published_before = engine.index().clone();
        let mut ids = intern_all(&mut store, delta);
        ids.retain(|&t| !engine.maintains(t));
        let fork = engine.overlay_core(&ids, store.dictionary());
        assert_eq!(
            engine.index(),
            &published_before,
            "overlay_core must not perturb the published index"
        );
        let decoded = decode_fork(&store, &fork);
        let expected = crate::core(&base.union(delta));
        assert!(
            isomorphic(&decoded, &expected),
            "forked core {decoded} differs from spec core {expected} for {base} + {delta}"
        );
    }

    #[test]
    fn overlay_core_of_a_ground_delta_is_purely_additive() {
        let base = graph([("ex:a", "ex:p", "_:X"), ("_:X", "ex:q", "ex:c")]);
        let delta = graph([("ex:z", "ex:r", "ex:w")]);
        assert_fork_is_core_of_union(&base, &delta);
    }

    #[test]
    fn a_ground_delta_can_fold_published_blanks_out_of_the_fork() {
        // The delta gives X a ground fold target: both blank triples must
        // leave the fork while the engine keeps publishing them.
        let base = graph([("ex:a", "ex:p", "_:X"), ("_:X", "ex:q", "ex:c")]);
        let delta = graph([("ex:a", "ex:p", "ex:b"), ("ex:b", "ex:q", "ex:c")]);
        let mut store = TripleStore::from_graph(&base);
        let engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        let ids = intern_all(&mut store, &delta);
        let fork = engine.overlay_core(&ids, store.dictionary());
        assert_eq!(
            fork.index,
            ids.iter().copied().collect::<IdIndex>(),
            "the fork holds exactly the two ground triples"
        );
        assert_eq!(engine.len(), 2, "published index untouched");
        assert_fork_is_core_of_union(&base, &delta);
    }

    #[test]
    fn overlay_blank_delta_merges_with_existing_components_transiently() {
        // The delta's blank triple bridges into X's component and makes the
        // whole blob redundant against the ground pair.
        let base = graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:b", "ex:q", "ex:c"),
            ("ex:a", "ex:p", "_:X"),
        ]);
        let delta = graph([("_:X", "ex:q", "ex:c")]);
        assert_fork_is_core_of_union(&base, &delta);
        // And a delta that keeps the blob alive (distinguishing edge).
        let delta2 = graph([("_:X", "ex:r", "ex:d")]);
        assert_fork_is_core_of_union(&base, &delta2);
    }

    #[test]
    fn overlay_with_fresh_blank_components_and_cross_folds() {
        let base = graph([
            ("ex:a", "ex:p", "_:X"),
            ("_:X", "ex:q", "ex:b"),
            ("ex:c", "ex:r", "ex:d"),
        ]);
        // A fresh blank Y that folds onto X's component, plus a triple that
        // makes Y distinguishable — both directions.
        for delta in [
            graph([("ex:a", "ex:p", "_:Y")]),
            graph([("ex:a", "ex:p", "_:Y"), ("_:Y", "ex:q", "ex:b")]),
            graph([("ex:a", "ex:p", "_:Y"), ("_:Y", "ex:s", "ex:e")]),
        ] {
            assert_fork_is_core_of_union(&base, &delta);
        }
    }

    #[test]
    fn an_empty_delta_forks_the_published_index_unchanged() {
        let base = graph([("ex:a", "ex:p", "_:X")]);
        let store = TripleStore::from_graph(&base);
        let engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        let fork = engine.overlay_core(&[], store.dictionary());
        assert_eq!(&fork.index, engine.index());
        assert!(!fork.non_minimal);
    }

    #[test]
    fn a_fork_keeps_the_representative_a_commit_keeps() {
        // Both (B1 p0 B4) and the delta's (B0 p0 B4) can fold onto the
        // other; which one survives depends on the order the retraction
        // search meets the candidates, so only an index scanned in key
        // order — the one a commit searches — keeps the commit's choice.
        let base = graph([
            ("_:B0", "ex:p0", "_:B3"),
            ("_:B1", "ex:p0", "_:B4"),
            ("_:B4", "ex:p0", "ex:n1"),
        ]);
        let delta = graph([("_:B0", "ex:p0", "_:B4")]);
        let mut store = TripleStore::from_graph(&base);
        let engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        let ids = intern_all(&mut store, &delta);
        let fork = engine.overlay_core(&ids, store.dictionary());
        let mut committed = engine.clone();
        committed.apply_delta(&ids, &[], store.dictionary());
        assert_eq!(&fork.index, committed.index());
        assert_eq!(fork.non_minimal, committed.is_degraded());
    }

    #[test]
    fn incremental_partition_matches_a_fresh_rebuild_under_mutation() {
        // Interleave blank-structural edits and compare the maintained
        // partition against a cold-built engine's after every step.
        let script: Vec<(bool, swdb_model::Triple)> = vec![
            (true, swdb_model::triple("ex:a", "ex:p", "_:A")),
            (true, swdb_model::triple("ex:a", "ex:p", "_:B")),
            (true, swdb_model::triple("_:B", "ex:q", "_:C")),
            (true, swdb_model::triple("_:D", "ex:r", "ex:b")),
            (true, swdb_model::triple("_:A", "ex:s", "_:D")),
            (false, swdb_model::triple("_:A", "ex:s", "_:D")),
            (false, swdb_model::triple("_:B", "ex:q", "_:C")),
            (true, swdb_model::triple("_:C", "ex:t", "_:D")),
            (false, swdb_model::triple("ex:a", "ex:p", "_:A")),
        ];
        let mut store = TripleStore::new();
        let mut engine = IdCoreEngine::new();
        for (insert, t) in script {
            if insert {
                let (ids, added) = store.insert_with_ids(&t);
                if added {
                    engine.apply_delta(&[ids], &[], store.dictionary());
                }
            } else if let Some(ids) = store.remove_with_ids(&t) {
                engine.apply_delta(&[], &[ids], store.dictionary());
            }
            let fresh = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
            assert_eq!(
                engine.component_sizes(),
                fresh.component_sizes(),
                "partition diverged from a fresh rebuild after {t}"
            );
            assert_eq!(engine.component_count(), fresh.component_count());
            let decoded: Graph = engine
                .index()
                .iter()
                .map(|ids| store.materialize(ids))
                .collect();
            assert!(isomorphic(&decoded, &crate::core(&store.to_graph())));
        }
    }

    #[test]
    fn empty_engine_is_empty() {
        let engine = IdCoreEngine::new();
        assert!(engine.is_empty());
        assert_eq!(engine.component_count(), 0);
        assert_eq!(engine.blank_triple_count(), 0);
        assert!(!engine.is_degraded());
        assert_eq!(engine.largest_component_size(), 0);
    }

    #[test]
    fn budgeted_refresh_publishes_sound_superset_and_recovers_when_lifted() {
        // Three redundant blanks: the true core is one triple. A one-step
        // budget cannot even start the first retraction search.
        let g = graph([
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
            ("ex:a", "ex:p", "_:Z"),
        ]);
        let store = TripleStore::from_graph(&g);
        let mut engine = IdCoreEngine::new();
        engine.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
        let ids: Vec<IdTriple> = store.iter_ids().collect();
        engine.apply_delta(&ids, &[], store.dictionary());
        assert!(engine.is_degraded());
        assert_eq!(engine.uncored_components(), 3);
        assert_eq!(engine.uncored_triples(), 3);
        // Sound degraded state: everything published is maintained (no
        // wrong facts) and nothing of the core was dropped — here nothing
        // was folded at all.
        let decoded = decode(&store, &engine);
        assert_eq!(decoded.len(), 3);
        assert!(decoded.iter().all(|t| g.contains(t)));
        // Retrying under the same starved budget stays degraded.
        assert!(!engine.recore_uncored(store.dictionary()));
        assert!(engine.is_degraded());
        // Lifting the budget re-cores to the true core.
        engine.set_core_budget(CoreBudgetMode::Unlimited);
        assert!(engine.recore_uncored(store.dictionary()));
        assert!(!engine.is_degraded());
        assert_eq!(engine.uncored_components(), 0);
        let decoded = decode(&store, &engine);
        assert!(isomorphic(&decoded, &crate::core(&g)));
    }

    #[test]
    fn auto_mode_is_bit_identical_to_unlimited_on_benign_inputs() {
        let g = graph([
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
            ("_:Y", "ex:q", "ex:b"),
            ("ex:c", "ex:r", "ex:d"),
        ]);
        let store = TripleStore::from_graph(&g);
        let auto_engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        assert_eq!(auto_engine.core_budget(), CoreBudgetMode::Auto);
        let mut unlimited = IdCoreEngine::new();
        unlimited.set_core_budget(CoreBudgetMode::Unlimited);
        let ids: Vec<IdTriple> = store.iter_ids().collect();
        unlimited.apply_delta(&ids, &[], store.dictionary());
        assert_eq!(
            auto_engine.index(),
            unlimited.index(),
            "components under the warn threshold never see a budget"
        );
        assert!(!auto_engine.is_degraded());
    }

    #[test]
    fn overlay_core_under_tiny_budget_is_sound_and_flagged() {
        let base = graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:b", "ex:q", "ex:c"),
            ("ex:a", "ex:p", "_:X"),
        ]);
        let delta = graph([("_:X", "ex:q", "ex:c")]);
        let mut store = TripleStore::from_graph(&base);
        let mut engine = IdCoreEngine::from_triples(store.iter_ids(), store.dictionary());
        let ids = intern_all(&mut store, &delta);
        engine.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
        let starved = engine.overlay_core(&ids, store.dictionary());
        assert!(starved.non_minimal, "exhaustion is reported, not hidden");
        let decoded = decode_fork(&store, &starved);
        let union = base.union(&delta);
        assert!(
            decoded.iter().all(|t| union.contains(t)),
            "sound: nothing outside the combined set is reported"
        );
        assert!(decoded.len() >= crate::core(&union).len());
        // The same fork under no budget folds X away and is not flagged.
        engine.set_core_budget(CoreBudgetMode::Unlimited);
        let full = engine.overlay_core(&ids, store.dictionary());
        assert!(!full.non_minimal);
        assert!(isomorphic(
            &decode_fork(&store, &full),
            &crate::core(&union)
        ));
    }

    #[test]
    fn budget_mode_env_parsing_covers_the_conventions() {
        // One sequential test owns both env vars (parallel tests in this
        // binary never read them — only `from_env` does).
        let set = |steps: Option<&str>, ms: Option<&str>| {
            match steps {
                Some(v) => std::env::set_var("SWDB_CORE_BUDGET", v),
                None => std::env::remove_var("SWDB_CORE_BUDGET"),
            }
            match ms {
                Some(v) => std::env::set_var("SWDB_CORE_BUDGET_MS", v),
                None => std::env::remove_var("SWDB_CORE_BUDGET_MS"),
            }
            CoreBudgetMode::from_env()
        };
        assert_eq!(set(None, None), CoreBudgetMode::Auto);
        assert_eq!(set(Some("auto"), None), CoreBudgetMode::Auto);
        assert_eq!(set(Some("off"), None), CoreBudgetMode::Unlimited);
        assert_eq!(set(Some("Unlimited"), None), CoreBudgetMode::Unlimited);
        assert_eq!(set(Some("none"), None), CoreBudgetMode::Unlimited);
        assert_eq!(
            set(Some("50000"), None),
            CoreBudgetMode::Budgeted(CoreBudget::steps(50_000))
        );
        assert_eq!(
            set(Some("50000"), Some("250")),
            CoreBudgetMode::Budgeted(CoreBudget {
                steps: Some(50_000),
                millis: Some(250),
            })
        );
        assert_eq!(
            set(None, Some("250")),
            CoreBudgetMode::Budgeted(CoreBudget::millis(250))
        );
        assert_eq!(set(Some("garbage"), None), CoreBudgetMode::Auto);
        set(None, None);
    }
}
