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
//!    ground triples survive every retraction: the published index is a
//!    view of the maintained set (the reasoner's index, whose nodes it
//!    shares) that hides the blank triples the folds removed, `R`. A
//!    *ground* delta is no core step at all, the common case. The view
//!    and `R` together are the maintained set: the engine keeps no index
//!    of its blank triples.
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
//!    an insertion re-checks only components with a survivor that can map
//!    onto a newly visible triple, blanks as wildcards and constants equal
//!    (a fold that uses no new triple existed before). Lookups by blank, by
//!    support triple and by survivor shape find those components without
//!    reading the others, which keep their cached survivors. Shapes are
//!    keyed predicate-first: "does a survivor use `p`?" is one probe.
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
//! `support` sets record, and every fold map is replayed onto the support
//! sets that mention a blank it moves, so they always name live triples of
//! the published index.
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
//! a component, which makes it the only place a component's uncored share
//! changes. It replays each fold onto the other components' support sets:
//! a support triple mentioning a moved blank is a published triple of the
//! folding component, so the commit looks its full set up by support triple
//! instead of scanning the others. [`IdCoreEngine::apply_delta`] (the cold
//! build is one) and [`IdCoreEngine::recore_uncored`] are one sweep each of
//! kernel-then-commit: `apply_delta` first makes every newly visible triple
//! visible and then cores the components that are stale or that a newly
//! visible triple wakes (point 3); `recore_uncored` cores the uncored ones.
//! One pass suffices: every component is cored against the complete view,
//! and a later fold only removes triples, which cannot un-lean a component
//! already processed.
//!
//! A premise (`D + P` for one query) is the same insert on a clone of the
//! engine: the clone's indexes, component slab and lookups are `Arc`s
//! shared with the engine until the insert writes them.
//! [`IdCoreEngine::overlay_core`] is that clone and insert, returning the
//! clone's index and flag as an [`EvalOverlay`] — exactly what committing
//! the delta would publish, under every budget.
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
//! slice runs out is **published uncored**: its current survivor set stays
//! visible in the evaluation index as-is, the component is flagged, and
//! [`IdCoreEngine::recore_uncored`] retries it with a fresh slice on the
//! next quiet refresh. A premise's fork is cored under the same slices, so
//! a poisoned what-if premise cannot stall a reader either; the fork then
//! reports [`EvalOverlay::non_minimal`].
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
use std::sync::Arc;
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

/// A delta committed into a clone of an engine
/// ([`IdCoreEngine::overlay_core`]): the evaluation index `maintained ∪
/// delta` publishes, and its flag. The engine itself is untouched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalOverlay {
    /// The forked evaluation index with the delta committed into it.
    pub index: IdIndex,
    /// The clone's [`IdCoreEngine::is_degraded`]: the index is a sound
    /// evaluation state (equivalent to, and a superset of, the true core)
    /// but may not be minimal. See the module's "Degraded mode" section.
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

/// The wildcard a blank becomes in a survivor's shape.
const ANY: TermId = TermId::MAX;

impl Component {
    /// A survivor's shape, predicate first: `(p, s, o)` with its blanks as
    /// wildcards. A map sends the survivor onto a triple only if the
    /// triple matches the shape, constants equal.
    fn shape(&self, (s, p, o): IdTriple) -> IdTriple {
        let any = |id| if self.blanks.contains(&id) { ANY } else { id };
        (p, any(s), any(o))
    }

    fn shapes(&self) -> BTreeSet<IdTriple> {
        self.survivors.iter().map(|&t| self.shape(t)).collect()
    }
}

/// A verbatim dump of one blank component's cached core state; an engine's
/// restorable state is one per component ([`IdCoreEngine::component_sets`]).
/// `blanks` are derivable from `full` (via the dictionary), and the ground
/// side is the maintained set's own, so neither is serialized: with that
/// set, [`IdCoreEngine::from_state`] rebuilds the engine *without any core
/// search* — the contract the durability layer's recovery path depends on.
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
/// the budget policy and the work tally, flushed to [`Metrics`] once.
#[derive(Default)]
struct Coring {
    mode: CoreBudgetMode,
    warn_threshold: u64,
    searches: u64,
    fold_steps: u64,
    recored: u64,
    exhausted_slices: u64,
    replays: u64,
    visited: u64,
}

impl Coring {
    fn flush(&self, metrics: &Metrics) {
        metrics.count(Counter::CoreComponentsVisited, self.visited);
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

/// A component's stable slot in the [`Slab`].
type Cid = u32;

/// Slots per slab chunk, and the keys a [`Keys`] run is cut at.
const CHUNK: usize = 64;

/// A persistent multimap from keys to components: sorted runs of up to
/// `2 * CHUNK` entries behind `Arc`s under one shared root. A clone bumps
/// one count; a write copies the root's run pointers and the one run it
/// changes, as an [`IdIndex`] write copies one leaf path.
#[derive(Clone, Debug)]
struct Keys<K>(Arc<Vec<Run<K>>>);

/// One sorted run of a [`Keys`].
type Run<K> = Arc<Vec<(K, Cid)>>;

impl<K> Default for Keys<K> {
    fn default() -> Self {
        Keys(Arc::default())
    }
}

impl<K: Ord + Copy> Keys<K> {
    /// The multimap filing each of `comps` (slot `c` for `comps[c]`) under
    /// its `keys`, in one pass: sorted, then cut into runs of [`CHUNK`].
    fn filed<I: IntoIterator<Item = K>>(
        comps: &[Component],
        keys: impl Fn(&Component) -> I,
    ) -> Self {
        let mut entries: Vec<(K, Cid)> = (comps.iter().enumerate())
            .flat_map(|(c, comp)| keys(comp).into_iter().map(move |k| (k, c as Cid)))
            .collect();
        entries.sort_unstable();
        entries.dedup();
        Keys(Arc::new(
            entries
                .chunks(CHUNK)
                .map(|run| Arc::new(run.to_vec()))
                .collect(),
        ))
    }

    /// The run an entry belongs in: the last one starting at or before it.
    fn run(&self, entry: &(K, Cid)) -> usize {
        self.0
            .partition_point(|run| run[0] <= *entry)
            .saturating_sub(1)
    }

    fn insert(&mut self, entry: (K, Cid)) {
        let i = self.run(&entry);
        let runs = Arc::make_mut(&mut self.0);
        let Some(run) = runs.get_mut(i) else {
            runs.push(Arc::new(vec![entry]));
            return;
        };
        let run = Arc::make_mut(run);
        if let Err(at) = run.binary_search(&entry) {
            run.insert(at, entry);
        }
        if run.len() > 2 * CHUNK {
            let tail = run.split_off(CHUNK);
            runs.insert(i + 1, Arc::new(tail));
        }
    }

    fn remove(&mut self, entry: &(K, Cid)) {
        let i = self.run(entry);
        let runs = Arc::make_mut(&mut self.0);
        let run = Arc::make_mut(&mut runs[i]);
        if let Ok(at) = run.binary_search(entry) {
            run.remove(at);
        }
        if run.is_empty() {
            runs.remove(i);
        }
    }

    /// Files `c` under the keys of `new` instead of those of `old`.
    fn rekey(&mut self, c: Cid, old: &BTreeSet<K>, new: &BTreeSet<K>) {
        for &key in old.difference(new) {
            self.remove(&(key, c));
        }
        for &key in new.difference(old) {
            self.insert((key, c));
        }
    }

    /// The entries from the first one filed under `key` or a later key, in
    /// order: two binary searches, for the run and inside it.
    fn from(&self, key: K) -> impl Iterator<Item = (K, Cid)> + '_ {
        let runs = &self.0[self.run(&(key, 0))..];
        let at = runs
            .first()
            .map_or(0, |run| run.partition_point(|e| e.0 < key));
        runs.iter().flat_map(|run| run.iter().copied()).skip(at)
    }

    /// The components filed under `key`, in order.
    fn get(&self, key: K) -> impl Iterator<Item = Cid> + '_ {
        (self.from(key).take_while(move |entry| entry.0 == key)).map(|(_, c)| c)
    }

    fn iter(&self) -> impl Iterator<Item = (K, Cid)> + '_ {
        self.0.iter().flat_map(|run| run.iter().copied())
    }
}

/// The components in stable slots: `Arc`'d chunks of [`CHUNK`] slots plus
/// the free ones. A write copies the chunk pointers and the one chunk it
/// changes; retiring a component empties its slot.
#[derive(Clone, Debug, Default)]
struct Slab {
    chunks: Vec<Arc<Vec<Option<Arc<Component>>>>>,
    /// The empty slots.
    free: Vec<Cid>,
}

impl Slab {
    fn get(&self, c: Cid) -> Option<&Component> {
        self.chunks.get(c as usize / CHUNK)?[c as usize % CHUNK].as_deref()
    }

    fn slot(&mut self, c: Cid) -> &mut Option<Arc<Component>> {
        &mut Arc::make_mut(&mut self.chunks[c as usize / CHUNK])[c as usize % CHUNK]
    }

    /// Component `c`, unshared first if a clone still holds it.
    fn get_mut(&mut self, c: Cid) -> &mut Component {
        Arc::make_mut(self.slot(c).as_mut().expect("a live component"))
    }

    fn insert(&mut self, comp: Component) -> Cid {
        if self.free.is_empty() {
            let first = (self.chunks.len() * CHUNK) as Cid;
            self.chunks.push(Arc::new(vec![None; CHUNK]));
            self.free.extend((first..first + CHUNK as Cid).rev());
        }
        let c = self.free.pop().expect("a free slot");
        *self.slot(c) = Some(Arc::new(comp));
        c
    }

    fn take(&mut self, c: Cid) -> Arc<Component> {
        let comp = self.slot(c).take().expect("a live component");
        self.free.push(c);
        comp
    }

    fn iter(&self) -> impl Iterator<Item = (Cid, &Component)> {
        let slots = (self.chunks.len() * CHUNK) as Cid;
        (0..slots).filter_map(|c| Some((c, self.get(c)?)))
    }
}

/// The blank components, the lookups that let a delta reach exactly the
/// components it names, and the aggregates every commit reports. Every
/// lookup changes only in [`Cells::push`], [`Cells::retire`],
/// [`Cells::commit`] and [`Cells::replay`]. All of it is `Arc`-shared with
/// the engine's clones (a premise's fork among them): a write copies what
/// it changes.
#[derive(Clone, Debug, Default)]
struct Cells {
    slab: Arc<Slab>,
    /// Blank → the component owning it.
    owner: Keys<TermId>,
    /// Support triple → the components whose support names it.
    supported: Keys<IdTriple>,
    /// Survivor shape ([`Component::shape`], predicate first) → the
    /// components with a survivor of that shape.
    shaped: Keys<IdTriple>,
    /// Every component's size in triples, so the largest is the last.
    sizes: Keys<usize>,
    uncored: Uncored,
}

impl Cells {
    fn get(&self, c: Cid) -> &Component {
        self.slab.get(c).expect("a live component")
    }

    /// Size in triples of the largest component.
    fn largest(&self) -> usize {
        let last = self.sizes.0.last().and_then(|run| run.last());
        last.map_or(0, |&(size, _)| size)
    }

    /// The cells holding `comps` in slots `0..comps.len()`, with every
    /// lookup filed in one pass instead of an entry at a time.
    fn filed(comps: Vec<Component>) -> Self {
        let mut uncored = Uncored::default();
        comps.iter().for_each(|comp| uncored.enter(comp));
        Cells {
            owner: Keys::filed(&comps, |c| c.blanks.clone()),
            supported: Keys::filed(&comps, |c| c.support.clone()),
            shaped: Keys::filed(&comps, Component::shapes),
            sizes: Keys::filed(&comps, |c| [c.full.len()]),
            uncored,
            slab: Arc::new(comps.into_iter().fold(Slab::default(), |mut slab, comp| {
                slab.insert(comp);
                slab
            })),
        }
    }

    fn push(&mut self, comp: Component) -> Cid {
        self.uncored.enter(&comp);
        let (size, shapes) = (comp.full.len(), comp.shapes());
        let c = Arc::make_mut(&mut self.slab).insert(comp);
        let comp = self.slab.get(c).expect("just filled");
        self.sizes.insert((size, c));
        self.owner.rekey(c, &BTreeSet::new(), &comp.blanks);
        self.supported.rekey(c, &BTreeSet::new(), &comp.support);
        self.shaped.rekey(c, &BTreeSet::new(), &shapes);
        c
    }

    fn retire(&mut self, c: Cid) -> Arc<Component> {
        let comp = Arc::make_mut(&mut self.slab).take(c);
        self.uncored.leave(&comp);
        self.sizes.remove(&(comp.full.len(), c));
        self.owner.rekey(c, &comp.blanks, &BTreeSet::new());
        self.supported.rekey(c, &comp.support, &BTreeSet::new());
        self.shaped.rekey(c, &comp.shapes(), &BTreeSet::new());
        comp
    }

    /// Re-partitions the components a blank-structural delta touches: the
    /// owners of its blanks. A delta triple can merge, split, extend or
    /// shrink exactly the components it shares a blank with; any other
    /// component's triples mention none of the delta's blanks, so its cell
    /// and cached core state carry over. The owners' triples but the
    /// `removed` ones and the `fresh` ones form new components, each stale
    /// (its full set changed), which it returns.
    fn repartition(
        &mut self,
        delta_blanks: &BTreeSet<TermId>,
        removed: &BTreeSet<IdTriple>,
        fresh: impl IntoIterator<Item = IdTriple>,
        dictionary: &Dictionary,
        coring: &mut Coring,
    ) -> Vec<Cid> {
        let owners: BTreeSet<Cid> = delta_blanks
            .iter()
            .filter_map(|&b| self.owner.get(b).next())
            .collect();
        coring.visited += owners.len() as u64;
        let old: Vec<Arc<Component>> = owners.into_iter().map(|c| self.retire(c)).collect();
        let triples = old
            .iter()
            .flat_map(|c| c.full.iter().copied())
            .filter(|t| !removed.contains(t))
            .chain(fresh);
        blank_components(triples, |id| dictionary.is_blank(id))
            .into_iter()
            .map(|part| {
                self.push(Component {
                    blanks: part.blanks,
                    full: part.triples,
                    survivors: BTreeSet::new(),
                    support: BTreeSet::new(),
                    stale: true,
                    uncored: false,
                })
            })
            .collect()
    }

    /// The predicates of `triples` a survivor uses: one probe of the
    /// predicate-first shapes per distinct predicate.
    fn used(&self, triples: &[IdTriple]) -> BTreeSet<TermId> {
        let mut preds: BTreeSet<TermId> = triples.iter().map(|t| t.1).collect();
        preds.retain(|&p| (self.shaped.from((p, 0, 0)).next()).is_some_and(|(k, _)| k.0 == p));
        preds
    }

    /// The components a delta wakes: those with a survivor that can map
    /// onto a newly `visible` triple, blanks as wildcards and constants
    /// equal (module docs, point 3) — the components filed under one of
    /// the triple's three shapes with a wildcard, if a survivor uses `p`.
    fn wake(&self, visible: &[IdTriple]) -> BTreeSet<Cid> {
        let preds = self.used(visible);
        let shapes: BTreeSet<IdTriple> = visible
            .iter()
            .filter(|t| preds.contains(&t.1))
            .flat_map(|&(s, p, o)| [(p, s, ANY), (p, ANY, o), (p, ANY, ANY)])
            .collect();
        shapes.iter().flat_map(|&s| self.shaped.get(s)).collect()
    }

    /// Runs the kernel over the components `ids`, in the order of their
    /// smallest triples (an order an exported and restored engine keeps),
    /// committing each result before the next search.
    fn sweep(
        &mut self,
        view: &mut IdIndex,
        coring: &mut Coring,
        ids: impl IntoIterator<Item = Cid>,
    ) {
        let order: BTreeMap<IdTriple, Cid> = ids
            .into_iter()
            .map(|c| (*self.get(c).full.first().expect("never empty"), c))
            .collect();
        coring.visited += order.len() as u64;
        for c in order.into_values() {
            let cored = fold_to_fixpoint(view, self.get(c), coring);
            self.commit(c, cored, coring);
        }
    }

    /// The one commit point: writes a kernel result into component `c` and
    /// replays its folds onto the other components' support sets, keeping
    /// them pointed at live triples. Out of budget, the survivors so far
    /// are published as-is — a sound superset of the local core (see
    /// "Degraded mode") — and the component waits for a retry; reaching the
    /// fold fixpoint from the *current* graph proves local leanness
    /// regardless of history, so it clears a stale uncored flag too. A
    /// result that changes nothing writes nothing.
    fn commit(&mut self, c: Cid, cored: Cored, coring: &mut Coring) {
        let current = self.get(c);
        if !current.stale && cored.folds.is_empty() && current.uncored == cored.exhausted {
            return;
        }
        let comp = Arc::make_mut(&mut self.slab).get_mut(c);
        self.uncored.leave(comp);
        if comp.stale || !cored.folds.is_empty() {
            let source = if comp.stale {
                &comp.full
            } else {
                &comp.support
            };
            let support = remap_set(source, &cored.composed);
            self.supported.rekey(c, &comp.support, &support);
            let shapes = comp.shapes();
            comp.support = support;
            comp.survivors = cored.survivors;
            self.shaped.rekey(c, &shapes, &comp.shapes());
            comp.stale = false;
            coring.recored += 1;
        }
        comp.uncored = cored.exhausted;
        self.uncored.enter(comp);
        for map in &cored.folds {
            self.replay(c, map, coring);
        }
    }

    /// Replays one fold of component `c` onto the support sets of the
    /// others. A support triple that mentions a moved blank is a published
    /// triple of `c`, so the triples of `c`'s full set that mention one are
    /// looked up in [`Cells::supported`] instead of every support set being
    /// scanned.
    fn replay(&mut self, c: Cid, map: &IdMap, coring: &mut Coring) {
        let moved = |(s, _, o): &IdTriple| map.contains_key(s) || map.contains_key(o);
        let others: BTreeSet<Cid> = self
            .get(c)
            .full
            .iter()
            .filter(|t| moved(t))
            .flat_map(|&t| self.supported.get(t))
            .filter(|&j| j != c)
            .collect();
        for j in others {
            let other = Arc::make_mut(&mut self.slab).get_mut(j);
            let support = remap_set(&other.support, map);
            self.supported.rekey(j, &other.support, &support);
            other.support = support;
            coring.replays += 1;
            coring.visited += 1;
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
    /// The published evaluation index: a view of the maintained set that
    /// hides `R`, every component's full set minus its survivors.
    eval: IdIndex,
    /// The components, whose full sets are the maintained blank triples.
    cells: Cells,
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

    /// Builds the engine — and with it `core(G)` — from a triple set: the
    /// whole set is one [`IdCoreEngine::apply_delta`] into the empty engine,
    /// so the triples form the base, blank triples are partitioned into
    /// components and each component is cored locally.
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
        let triples: Vec<IdTriple> = triples.into_iter().collect();
        engine.apply_delta(&triples, &[], dictionary);
        engine
    }

    /// Every component's full, survivor and support sets and its uncored
    /// flag, counted: the engine's state for a durability snapshot, which
    /// [`IdCoreEngine::from_state`] restores without a retraction search.
    /// Safe between public mutations (no component is `stale` then).
    pub fn component_sets(
        &self,
    ) -> (
        usize,
        impl Iterator<Item = ([&BTreeSet<IdTriple>; 3], bool)>,
    ) {
        let slab = self.cells.slab.iter();
        let sets = slab.map(|(_, c)| ([&c.full, &c.survivors, &c.support], c.uncored));
        (self.component_count(), sets)
    }

    /// Reconstructs an engine from its exported components: pure
    /// deserialization — cached core state (including degraded/uncored
    /// flags) carries over verbatim and **no core search runs**. It builds
    /// `R` and no index: the engine reads nothing, its ground side
    /// included, until [`IdCoreEngine::attach`] hands it the maintained set
    /// the state was exported over. The recovery path's replacement for
    /// [`IdCoreEngine::from_triples_budgeted`].
    ///
    /// `is_blank` classifies ids as the exporting dictionary did, so a
    /// caller need not rebuild that dictionary first.
    pub fn from_state(
        components: &[ComponentState],
        is_blank: impl Fn(TermId) -> bool,
        metrics: Metrics,
        budget: CoreBudgetMode,
    ) -> Self {
        let components: Vec<Component> = components
            .iter()
            .map(|comp| {
                let full: BTreeSet<IdTriple> = comp.full.iter().copied().collect();
                let ends = full.iter().flat_map(|&(s, _, o)| [s, o]);
                Component {
                    blanks: ends.filter(|&id| is_blank(id)).collect(),
                    full,
                    survivors: comp.survivors.iter().copied().collect(),
                    support: comp.support.iter().copied().collect(),
                    stale: false,
                    uncored: comp.uncored,
                }
            })
            .collect();
        let mut eval = IdIndex::new();
        let folded = |c: &Component| c.full.difference(&c.survivors).copied().collect::<Vec<_>>();
        eval.hide(components.iter().flat_map(folded).collect());
        let engine = IdCoreEngine {
            eval,
            cells: Cells::filed(components),
            budget_mode: budget,
            metrics,
        };
        engine.publish_gauges();
        engine
    }

    /// Views `base`, the maintained set, through `R`: the last step of a
    /// restore ([`IdCoreEngine::from_state`]).
    pub fn attach(&mut self, base: &IdIndex, dictionary: &Dictionary) {
        self.apply_delta_over(base, &[], &[], dictionary);
        self.debug_check(|id| dictionary.is_blank(id), Some(base));
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

    /// Number of maintained blank triples (before coring), summed by size.
    pub fn blank_triple_count(&self) -> usize {
        self.cells.sizes.iter().map(|(size, _)| size).sum()
    }

    /// Number of blank components.
    pub fn component_count(&self) -> usize {
        self.cells.slab.iter().count()
    }

    /// The components' sizes in triples, ascending.
    pub fn component_sizes(&self) -> Vec<usize> {
        self.cells.sizes.iter().map(|(size, _)| size).collect()
    }

    /// Size in triples of the largest blank component (0 when none) — the
    /// driver of the worst-case core search, observed on every commit.
    pub fn largest_component_size(&self) -> usize {
        self.cells.largest()
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
        let mut coring = self.coring();
        let slab = self.cells.slab.iter();
        let uncored: Vec<Cid> = slab
            .filter_map(|(c, comp)| comp.uncored.then_some(c))
            .collect();
        self.cells.sweep(&mut self.eval, &mut coring, uncored);
        self.report(&coring, dictionary, None);
        !self.is_degraded()
    }

    /// Starts a run of the kernel under the engine's budget mode.
    fn coring(&self) -> Coring {
        Coring {
            mode: self.budget_mode,
            warn_threshold: self.metrics.blank_warn_threshold(),
            ..Coring::default()
        }
    }

    /// Ends a run that committed into the published index: its tally, the
    /// gauges, the invariants.
    fn report(&self, coring: &Coring, dictionary: &Dictionary, base: Option<&IdIndex>) {
        coring.flush(&self.metrics);
        self.publish_gauges();
        self.debug_check(|id| dictionary.is_blank(id), base);
    }

    /// Every commit is an observation point: reports the largest blank
    /// component to the early-warning gauge and mirrors the degradation
    /// state (no-ops below the counters level, O(1) above it).
    fn publish_gauges(&self) {
        if self.metrics.on(MetricsLevel::Counters) {
            self.metrics
                .observe_largest_blank_component(self.cells.largest() as u64);
            let uncored = self.cells.uncored;
            self.metrics
                .gauge_set(Gauge::UncoredComponents, uncored.components as u64);
            self.metrics
                .gauge_set(Gauge::UncoredTriples, uncored.triples as u64);
        }
    }

    /// Applies one batch of deltas to the maintained set and brings the
    /// published index back to its core, reading only the components the
    /// delta names: writes it into the view's base, which the engine owns,
    /// and runs the kernel of [`IdCoreEngine::apply_delta_over`].
    pub fn apply_delta(
        &mut self,
        added: &[IdTriple],
        removed: &[IdTriple],
        dictionary: &Dictionary,
    ) {
        let hidden = self.eval.take_hidden();
        let added = self.eval.insert_all(added);
        let removed: Vec<IdTriple> = (removed.iter().copied())
            .filter(|&t| self.eval.remove(t))
            .collect();
        self.eval.hide(hidden);
        self.refresh(None, &added, &removed, dictionary);
    }

    /// [`IdCoreEngine::apply_delta`] of an exact delta that `base`, the
    /// maintained set, holds already: the view then shares every node of
    /// `base` and writes none. A debug build checks that `base` holds
    /// every added triple and no removed one.
    ///
    /// A delta that neither mentions a blank nor removes a published triple
    /// nor adds a possible fold image (a predicate some survivor uses)
    /// is no core step. Otherwise the blank side is repaired at component
    /// granularity: the components whose support named a removed triple
    /// (looked up by triple) turn stale, the owners of the delta's blanks
    /// are re-partitioned into stale components, and every stale
    /// component's full set is unhidden (which can *restore* previously
    /// folded triples). One sweep then re-cores the stale components from
    /// their full sets and lets every component a newly visible triple
    /// wakes — one with a survivor that maps onto it, blanks as wildcards
    /// and constants equal — retract further from its cached survivors.
    pub fn apply_delta_over(
        &mut self,
        base: &IdIndex,
        added: &[IdTriple],
        removed: &[IdTriple],
        dictionary: &Dictionary,
    ) {
        self.refresh(Some(base), added, removed, dictionary);
    }

    /// The kernel of both, on a view whose base (`base`, if given) holds
    /// the delta.
    fn refresh(
        &mut self,
        base: Option<&IdIndex>,
        added: &[IdTriple],
        removed: &[IdTriple],
        dictionary: &Dictionary,
    ) {
        let mut hidden = self.eval.take_hidden();
        if let Some(base) = base {
            self.eval = base.clone();
        }
        let holds = |t: &IdTriple| self.eval.contains(*t);
        debug_assert!(
            added.iter().all(holds) && !removed.iter().any(holds),
            "the delta is not exact: the maintained set lacks an added triple or holds a removed one"
        );
        // A removed triple `R` held was hidden; any other leaves the view.
        let removed_from_eval: BTreeSet<IdTriple> = (removed.iter().copied())
            .filter(|&t| !hidden.remove(t))
            .collect();
        self.eval.hide(hidden);
        let blank = |t: &IdTriple| is_blank_triple(dictionary, *t);
        let removed_blank: BTreeSet<IdTriple> = removed.iter().copied().filter(blank).collect();
        let blank_added: Vec<IdTriple> = added.iter().copied().filter(blank).collect();
        let blank_delta_ids: BTreeSet<TermId> = (removed_blank.iter().chain(&blank_added))
            .flat_map(|&(s, _, o)| [s, o])
            .filter(|&id| dictionary.is_blank(id))
            .collect();
        let mut visible = added.to_vec();
        // A new triple is a fold image only for a survivor using its predicate.
        let relevant_add = !self.cells.used(&visible).is_empty();
        if blank_delta_ids.is_empty() && removed_from_eval.is_empty() && !relevant_add {
            // The pure ground fast path: the view is already the core, and
            // no component changed.
            self.publish_gauges();
            return;
        }
        let _span = self.metrics.span(Hist::SpanCoreRefreshNs);
        let mut coring = self.coring();
        let mut stale: BTreeSet<Cid> = removed_from_eval
            .iter()
            .flat_map(|&t| self.cells.supported.get(t))
            .collect();
        coring.visited += stale.len() as u64;
        for &c in &stale {
            Arc::make_mut(&mut self.cells.slab).get_mut(c).stale = true;
        }
        // A triple mentioning a delta blank either was in a component the
        // delta re-partitions or is fresh, so the union-find runs over that
        // local set alone.
        let cells = &mut self.cells;
        let (delta, gone) = (&blank_delta_ids, &removed_blank);
        let fresh = cells.repartition(delta, gone, blank_added, dictionary, &mut coring);
        // A re-partitioned component's slot is empty now, or holds a fresh one.
        stale.retain(|&c| cells.slab.get(c).is_some_and(|comp| comp.stale));
        stale.extend(fresh);
        // Everything newly visible is in the view before any search, so the
        // one sweep cores every component against the complete graph.
        for &c in &stale {
            for &t in &cells.get(c).full {
                if self.eval.insert(t) {
                    visible.push(t);
                }
            }
        }
        let mut woken = cells.wake(&visible);
        woken.extend(stale);
        cells.sweep(&mut self.eval, &mut coring, woken);
        self.report(&coring, dictionary, base);
    }

    /// Is the triple part of the maintained set (cored away or not)? The
    /// published index shows it, or its hidden set `R` holds it (a blank
    /// triple a fold removed): the view's base is the maintained set.
    pub fn maintains(&self, t: IdTriple) -> bool {
        self.eval.contains(t) || self.eval.hidden().is_some_and(|r| r.contains(t))
    }

    /// Commits the additions `delta` into a clone of the engine, with
    /// metrics off, by [`IdCoreEngine::apply_delta`] — the substrate of a
    /// transient premise: the clone's index is what committing `delta`
    /// would publish, and the engine stays bit-identical. The engine's
    /// [`CoreBudgetMode`] governs the clone's searches, so a hostile
    /// premise is flagged [`EvalOverlay::non_minimal`] instead of stalling.
    pub fn overlay_core(&self, delta: &[IdTriple], dictionary: &Dictionary) -> EvalOverlay {
        let mut fork = self.clone();
        fork.metrics = self.metrics.silenced();
        fork.apply_delta(delta, &[], dictionary);
        let (non_minimal, index) = (fork.is_degraded(), fork.eval);
        EvalOverlay { index, non_minimal }
    }

    /// Debug-build invariants: each component holds maintained blank
    /// triples of its own blanks (so the components are disjoint) and none
    /// is stale, the published index is exactly the ground triples plus
    /// every component's survivors, all support triples are live, and the
    /// lookups, the free slots and the cached aggregates are current. `R`
    /// is blank triples of the view's base (`base`, if given), as many as
    /// the folds removed. Each lookup is checked entry by entry in both
    /// directions and `R` is counted, so the check allocates the same at
    /// every size.
    fn debug_check(&self, is_blank: impl Fn(TermId) -> bool, base: Option<&IdIndex>) {
        if cfg!(debug_assertions) {
            let cells = &self.cells;
            let shaped = |c: &Component, shape| c.survivors.iter().any(|&t| c.shape(t) == shape);
            let blank = |(s, _, o): IdTriple| is_blank(s) || is_blank(o);
            let mut uncored = Uncored::default();
            let (mut full_sizes, mut survivors, mut entries) = (0, 0, [0; 3]);
            for (i, c) in cells.slab.iter() {
                uncored.enter(c);
                debug_assert!(!c.stale, "a component was left stale");
                let own = |id| c.blanks.contains(&id) == is_blank(id);
                debug_assert!(
                    (c.full.iter()).all(|&t| blank(t) && own(t.0) && own(t.2) && self.maintains(t)),
                    "a component holds a triple that is no maintained blank triple of its own"
                );
                full_sizes += c.full.len();
                survivors += c.survivors.len();
                debug_assert!(c.survivors.is_subset(&c.full));
                debug_assert!(c.survivors.iter().all(|t| self.eval.contains(*t)));
                debug_assert!(
                    c.support.iter().all(|t| self.eval.contains(*t)),
                    "support names a dead triple"
                );
                let files = |keys: &Keys<IdTriple>, t| keys.get(t).any(|j| j == i);
                let filed = c.blanks.iter().all(|&b| cells.owner.get(b).eq([i]))
                    && c.support.iter().all(|&t| files(&cells.supported, t))
                    && c.survivors
                        .iter()
                        .all(|&t| files(&cells.shaped, c.shape(t)))
                    && cells.sizes.get(c.full.len()).any(|j| j == i);
                debug_assert!(filed, "a lookup misses an entry of component {i}");
                entries = [
                    entries[0] + c.blanks.len(),
                    entries[1] + c.support.len(),
                    entries[2] + 1,
                ];
            }
            let live = |c| cells.slab.get(c);
            let filed = [
                cells.owner.iter().count(),
                cells.supported.iter().count(),
                cells.sizes.iter().count(),
            ];
            let only = filed == entries
                && (cells.shaped.iter()).all(|(t, c)| live(c).is_some_and(|c| shaped(c, t)));
            debug_assert!(only, "a lookup holds an entry no component has");
            let mut free = cells.slab.free.clone();
            free.sort_unstable();
            let slots = (cells.slab.chunks.len() * CHUNK) as Cid;
            let empty = (0..slots).filter(|&c| live(c).is_none());
            debug_assert!(empty.eq(free), "the free list is not the empty slots");
            debug_assert_eq!(
                cells.uncored, uncored,
                "a path changed an uncored flag outside the commit point"
            );
            let (mut visible, mut published_blank) = (0, 0);
            for t in self.eval.iter() {
                visible += 1;
                published_blank += usize::from(blank(t));
            }
            debug_assert_eq!(visible, self.eval.len(), "R leaves the view's base");
            debug_assert_eq!(
                published_blank, survivors,
                "published blank triples must be exactly the survivors"
            );
            let hidden = self.eval.hidden();
            debug_assert!(
                hidden.is_none_or(|h| h.iter().all(blank)),
                "R holds a ground triple"
            );
            debug_assert_eq!(
                hidden.map_or(0, IdIndex::len),
                full_sizes - survivors,
                "R is not what the folds removed"
            );
            debug_assert!(
                base.is_none_or(|base| self.eval.is_view_of(base)),
                "the view's base is not the maintained set"
            );
        }
    }
}

fn is_blank_triple(dictionary: &Dictionary, (s, _, o): IdTriple) -> bool {
    dictionary.is_blank(s) || dictionary.is_blank(o)
}

/// The coring kernel: retracts the triples of `comp` visible in `view` to
/// a local fixpoint under one budget slice. A stale component starts over
/// from its full set (the caller has put all of it back into the view, so
/// previously folded triples stay there until the fresh local search
/// decides their fate), any other retracts further from its survivors.
/// Each successful fold map is applied to the view (dropping the folded
/// triples) and composed into the result. On return without budget
/// exhaustion no surviving triple can be avoided: the component is locally
/// lean. With an exhausted budget the loop stops early; everything applied
/// so far is still a genuine retraction, so the survivors are a sound
/// superset of the local core.
fn fold_to_fixpoint(view: &mut IdIndex, comp: &Component, coring: &mut Coring) -> Cored {
    let start = if comp.stale {
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

    /// The engine's components as a snapshot records them
    /// ([`IdCoreEngine::component_sets`]).
    fn exported(engine: &IdCoreEngine) -> Vec<ComponentState> {
        let run = |set: &BTreeSet<IdTriple>| set.iter().copied().collect();
        let sets = engine.component_sets().1;
        sets.map(|([full, survivors, support], uncored)| ComponentState {
            full: run(full),
            survivors: run(survivors),
            support: run(support),
            uncored,
        })
        .collect()
    }

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
        let state = exported(&engine);
        let mut restored = IdCoreEngine::from_state(
            &state,
            |id| store.dictionary().is_blank(id),
            Metrics::default(),
            engine.core_budget(),
        );
        restored.attach(&store.iter_ids().collect(), store.dictionary());
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
        let state = exported(&engine);
        assert!(state.iter().any(|c| c.uncored));
        let mut restored = IdCoreEngine::from_state(
            &state,
            |id| store.dictionary().is_blank(id),
            Metrics::default(),
            engine.core_budget(),
        );
        restored.attach(&store.iter_ids().collect(), store.dictionary());
        assert!(restored.is_degraded());
        assert_eq!(engine.uncored_components(), restored.uncored_components());
        assert_eq!(engine.uncored_triples(), restored.uncored_triples());
        // recore_uncored resumes post-restore: unlimited budget clears it.
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the delta is not exact")]
    fn a_removal_the_maintained_set_still_holds_is_refused() {
        let g = graph([("ex:a", "ex:p", "_:X"), ("_:X", "ex:q", "ex:c")]);
        let store = TripleStore::from_graph(&g);
        let base: IdIndex = store.iter_ids().collect();
        let run: Vec<IdTriple> = base.iter().collect();
        let mut engine = IdCoreEngine::new();
        engine.apply_delta_over(&base, &run, &[], store.dictionary());
        // A blank triple the maintained set still holds is no removal.
        engine.apply_delta_over(&base, &[], &run[..1], store.dictionary());
    }

    #[test]
    fn keys_lookups_match_a_sorted_set_as_runs_split_and_empty() {
        const KEYS: u64 = 48;
        let (mut keys, mut model) = (Keys::<u64>::default(), BTreeSet::<(u64, Cid)>::new());
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let check = |keys: &Keys<u64>, model: &BTreeSet<(u64, Cid)>| {
            assert!(keys.iter().eq(model.iter().copied()));
            assert!(keys
                .0
                .iter()
                .all(|run| !run.is_empty() && run.len() <= 2 * CHUNK));
            for key in 0..=KEYS {
                let filed = model.range((key, 0)..=(key, Cid::MAX)).map(|&(_, c)| c);
                assert!(keys.get(key).eq(filed), "get({key})");
                assert!(
                    keys.from(key).eq(model.range((key, 0)..).copied()),
                    "from({key})"
                );
            }
        };
        // Mostly inserts (runs split past 2 * CHUNK), then mostly removals,
        // then a drain that empties every run.
        let mut most_runs = 0;
        for (step, insert_share) in (0..4_000).map(|i| (i, if i < 2_000 { 3 } else { 1 })) {
            if next(4) < insert_share || model.is_empty() {
                let entry = (next(KEYS), next(16) as Cid);
                keys.insert(entry);
                model.insert(entry);
            } else {
                let entry = *model.iter().nth(next(model.len() as u64) as usize).unwrap();
                keys.remove(&entry);
                model.remove(&entry);
            }
            most_runs = most_runs.max(keys.0.len());
            if step % 97 == 0 {
                check(&keys, &model);
            }
        }
        assert!(most_runs > 3, "the inserts split runs");
        while let Some(&entry) = model.iter().nth(next(model.len().max(1) as u64) as usize) {
            keys.remove(&entry);
            model.remove(&entry);
            if model.len() % 29 == 0 {
                check(&keys, &model);
            }
        }
        assert!(keys.0.is_empty(), "a drained multimap has no runs");
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
