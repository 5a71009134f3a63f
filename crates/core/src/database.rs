//! The `SemanticWebDatabase` facade.
//!
//! A downstream application interacts with one value of this type: it holds
//! the data, knows which entailment regime is in force (simple or RDFS),
//! caches the evaluation index used for query answering, and exposes the
//! operations studied in the paper — entailment, equivalence, closure, core,
//! normal form, query answering under both semantics, and redundancy
//! elimination.
//!
//! ## What the facade owns
//!
//! One immutable `State` behind an `Arc`, and **no string state**: the
//! regime and core budget, the asserted set `D` (the reasoner's
//! dictionary-encoded [`swdb_store::TripleStore`], the only copy, in one
//! ordering) with its maintained closure ([`MaterializedStore`]), and the
//! evaluation engine ([`swdb_normal::IdCoreEngine`]), whose index is a view
//! of the closure that shares its nodes and hides the blank triples the
//! core folded away; it keeps no index of its own (under simple entailment,
//! one of `D`), only blank components over the closure's blank triples.
//! Everything large in it is persistent or `Arc`-shared, so a clone is
//! O(1). Beside it: metrics, the durability layer and its fail-stop
//! record, the read caches of the state, and the
//! publication slot. Terms are decoded where a caller asks for them: an
//! answer, `to_ntriples`, `stats`, and the string-space specification
//! methods (`entails`, `closure_recomputed`, `core`, `normal_form`,
//! `is_lean`, `answer_recomputed`), which build a [`Graph`] of `D` when
//! *they* are called.
//!
//! ## The read path
//!
//! Every read runs on one immutable state: a pinned
//! [`crate::publish::PublishedSnapshot`] wraps the `Arc<State>` that was
//! current at publication, and the facade's `answer`, `pre_answers`,
//! `answer_is_empty` and `explain` read its current one the same way — one
//! [`swdb_query::QueryEngine`] over the substrate the dispatch picks
//! (premise-free, or overlay), with a plan cache that belongs to the state
//! and goes with it. Premise-free queries — the hot path — run
//! **entirely in id space**: the body is compiled to `TermId` patterns
//! against the store dictionary (a body constant that was never interned
//! short-circuits to zero answers), planned once per query shape, and
//! joined directly over the SPO/POS/OSP [`swdb_store::IdIndex`] view of the
//! evaluation graph. The evaluation graph keeps the paper's semantics:
//! `nf(D) = core(cl(D))` under RDFS, `core(D)` under simple entailment —
//! answers stay invariant under database equivalence (Theorem 4.6).
//!
//! The whole pipeline behind that index is **incremental**. `cl(D)` is the
//! maintained materialization of `swdb-reason` (semi-naive insert, DRed
//! delete — never a recomputed fixpoint), and the `core(·)` step is the
//! [`swdb_normal::IdCoreEngine`]: ground closure triples are never hidden
//! (a map fixes URIs, so they always survive the core), blank triples are
//! partitioned into connected components and cored by local id-space
//! retraction searches. A mutation hands the engine the exact closure
//! delta reported by [`MaterializedStore`] and the closure that holds it: a
//! ground delta is no core step, a blank-touching delta re-cores only the
//! affected component(s). Nothing is dropped and rebuilt; the cold build
//! (first read or publish) itself runs component-by-component in id space.
//!
//! Queries **with premises** run over a **premise overlay**: the write
//! path's insert on a fork of the state read. The state is cloned with
//! metrics off, its store moves onto an extension of the dictionary
//! ([`swdb_store::Dictionary::extending`], so the live one never grows),
//! and the premise is inserted by the insert every commit runs — asserted,
//! its closure growth propagated, that growth fed to the core engine. The
//! query, planned like any other, joins the fork's evaluation index: the
//! index a commit would publish. The fork shares every chunk the premise
//! leaves alone, so the state read is bit-identical before and after, and
//! the forks of the last few premises are kept with the plans, so repeated
//! queries sharing a premise pay for it once.
//!
//! The string-space evaluator remains the executable specification via
//! [`SemanticWebDatabase::answer_recomputed`] — `nf(D + P)` normalized
//! wholesale per call — which the equivalence property tests pin both id
//! mechanisms against (up to isomorphism: the core is unique only up to
//! iso, Theorem 3.10).
//!
//! ## The write path
//!
//! A write is a fork too. Every mutation (snapshot restore and the lazy
//! evaluation build included) is one private commit: intern the op's terms
//! into the *committed* state (append-only, so its meaning does not change
//! and the fork never copies the dictionary) → clone the state → apply the
//! op to the clone → commit the WAL record → swap the clone in. A change of
//! `D` is one **signed batch** `D' = (D − R) ∪ I` (`State::apply`): one
//! DRed run over what `R` retracts, one semi-naive propagation of `I`, and
//! one refresh of the evaluation engine by their net closure delta. An
//! insert has `R` empty, a removal `I`; a premise is an insert on a fork
//! never swapped in, and WAL replay one batch per run of records. A panic
//! before the swap leaves the committed state as it was; the WAL commit
//! runs with the durability layer taken out of the facade, so a panic
//! inside it leaves the layer detached with its fail-stop record, never
//! attached over a possibly torn tail. An IO error fail-stops the layer,
//! and the new state is swapped in anyway.
//!
//! The propagation itself has **one schedule**, `swdb_reason::parallel`'s
//! rounds: each round partitions the frontier by the `(rule, hypothesis)`
//! paths its predicates wake, joins the shards against an immutable
//! snapshot of the closure index, and commits the merged, deduplicated
//! conclusions single-threadedly as the next frontier. The DRed delete's
//! overdeletion cascade is the same rounds with a different filter and
//! commit target. [`SemanticWebDatabase::set_threads`]
//! (default: the machine's available parallelism) is the **worker
//! ceiling** of a round — a large round spawns at most that many scoped
//! workers, `1` never spawns, and small rounds (single-triple edits) run
//! inline regardless, so point-write latency never pays a spawn. The same
//! ceiling caps the workers of a snapshot restore in
//! [`SemanticWebDatabase::open`], which builds the dictionary, the closure
//! index, the asserted set and the evaluation engine as independent jobs.
//!
//! Because the RDFS rules are monotone, the closure is a set and every
//! round is sorted, the ceiling changes where joins run and nothing else —
//! the maintained closure index, the delta logs consumed by the evaluation
//! engine (as sequences), the `reason_*` counters, and therefore the
//! published evaluation index are bit-identical across thread counts. The
//! differential tests (`crates/reason/tests/parallel_differential.rs`, the
//! facade stress test `tests/parallel_facade_stress.rs`) sweep thread
//! counts to keep that claim executable.
//!
//! ## Degraded mode — bounding the NP-hard tail
//!
//! Everything above is polynomial except one step: the per-component
//! retraction searches behind `core(·)` are NP-hard (Theorem 3.12), so a
//! hostile blank component — say an `enc(K_n)` clique — can stall a commit
//! for hours while the rest of the database waits. The facade therefore
//! threads a **per-component budget** (fold steps and/or wall clock;
//! [`SemanticWebDatabase::set_core_budget`], `SWDB_CORE_BUDGET`,
//! `SWDB_CORE_BUDGET_MS`) through every core search. A component whose
//! slice runs out is **published uncored**: its current survivor set enters
//! the evaluation index as-is — a sound superset of its true core, since
//! the engine only ever shrinks the published set by *applying found
//! retraction witnesses* — and the component is flagged. Query answers over
//! a degraded index remain sound (every reported answer is entailed) and
//! complete (the core is never dropped, so no entailed answer is lost);
//! what may linger is redundancy, so the answer graph is equivalent to the
//! unbudgeted one but may mention redundant blanks a finished core search
//! would have folded away. The flag is surfaced as `non_minimal` on
//! [`swdb_query::Explain`] and [`SemanticWebDatabase::answer_with_status`],
//! as [`SemanticWebDatabase::is_degraded`], and as the
//! `core_budget_exhausted` counter / `uncored_*` gauges in
//! [`SemanticWebDatabase::metrics_snapshot`];
//! [`SemanticWebDatabase::minimize_with_status`] reports it for the core of
//! the asserted set. [`SemanticWebDatabase::refresh_degraded`] retries every
//! uncored component with a fresh slice at a quiet moment, resuming from the
//! published survivors, and is guaranteed to fully recover under
//! [`CoreBudgetMode::Unlimited`]. The default [`CoreBudgetMode::Auto`]
//! budgets only components over the oversized-blank warning threshold, so
//! benign workloads are bit-identical to the unbudgeted engine.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use swdb_durable::snapshot::{engine_runs, flagged, run, Sections};
use swdb_durable::{
    Durability, Io, SnapshotPayload, SnapshotSource, StdIo, WalRecord,
    DEFAULT_WAL_COMPACT_THRESHOLD,
};
use swdb_model::{BlankNode, Graph, Term, Triple};
use swdb_normal::{CoreBudget, CoreBudgetMode, IdCoreEngine};
use swdb_obs::{Counter, Gauge, Hist, Metrics, MetricsLevel};
use swdb_query::{AnswerSet, Explain, NormalizedDatabase, Query, QueryEngine, Semantics};
use swdb_reason::{ClosureDelta, MaterializedStore};
use swdb_store::{Dictionary, GraphStats, IdIndex, IdSet, IdTriple, TermId, TripleStore};

use crate::publish::{PublishedSnapshot, Reads};

/// The entailment regime a database operates under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EntailmentRegime {
    /// Simple entailment: blank nodes are existential, the RDFS vocabulary
    /// carries no special semantics (Definition 2.2, Theorem 2.8(2)).
    Simple,
    /// Full RDFS entailment over the `{sp, sc, type, dom, range}` fragment
    /// (the default; Theorem 2.8(1)).
    #[default]
    Rdfs,
}

/// The default worker ceiling for closure maintenance:
/// [`std::thread::available_parallelism`]. Every count maintains the same
/// closure, so the choice is purely a throughput knob.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `jobs` on at most `threads` workers, the caller among them, each
/// taking the next job as it frees up (at `1`: inline, in order). A job's
/// panic reaches the caller as that same panic once every worker stopped.
fn run_jobs(threads: usize, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let helpers = threads.clamp(1, jobs.len().max(1)) - 1;
    let queue = Mutex::new(jobs.into_iter());
    let unpoisoned = "a job runs outside the queue lock";
    let next = || queue.lock().expect(unpoisoned).next();
    let work = || {
        while let Some(job) = next() {
            job();
        }
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        work();
        for worker in spawned {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// The WAL compaction threshold: `SWDB_WAL_COMPACT` (records; `0` disables
/// auto-compaction), else [`DEFAULT_WAL_COMPACT_THRESHOLD`].
fn wal_compact_threshold() -> u64 {
    std::env::var("SWDB_WAL_COMPACT")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_WAL_COMPACT_THRESHOLD)
}

/// Wire encoding of the entailment regime (snapshot + WAL records).
fn encode_regime(regime: EntailmentRegime) -> u8 {
    match regime {
        EntailmentRegime::Simple => 0,
        EntailmentRegime::Rdfs => 1,
    }
}

fn decode_regime(wire: u8) -> EntailmentRegime {
    if wire == 0 {
        EntailmentRegime::Simple
    } else {
        EntailmentRegime::Rdfs
    }
}

/// Wire encoding of the core budget: `(mode, steps, millis)` with
/// `u64::MAX` standing in for "no limit".
fn encode_budget(mode: CoreBudgetMode) -> (u8, u64, u64) {
    match mode {
        CoreBudgetMode::Unlimited => (0, u64::MAX, u64::MAX),
        CoreBudgetMode::Budgeted(b) => {
            (1, b.steps.unwrap_or(u64::MAX), b.millis.unwrap_or(u64::MAX))
        }
        CoreBudgetMode::Auto => (2, u64::MAX, u64::MAX),
    }
}

fn decode_budget(mode: u8, steps: u64, millis: u64) -> CoreBudgetMode {
    match mode {
        0 => CoreBudgetMode::Unlimited,
        1 => CoreBudgetMode::Budgeted(CoreBudget {
            steps: (steps != u64::MAX).then_some(steps),
            millis: (millis != u64::MAX).then_some(millis),
        }),
        _ => CoreBudgetMode::Auto,
    }
}

/// A WAL record whose N-Triples payload failed to parse during recovery —
/// possible only via outside interference, since the payload passed its CRC.
fn replay_parse_error(e: swdb_store::ParseError) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "WAL replay: record payload is not valid N-Triples (line {}: {})",
            e.line, e.message
        ),
    )
}

/// The fail-stop record of a durability layer that detached, and why.
fn detached(why: &str) -> String {
    format!(
        "{why}; durability detached — this database continues in memory only, \
         and the data directory recovers to its last durable state on the \
         next open"
    )
}

/// The semantic state of a database: everything its reads and its
/// snapshot files are functions of (module docs, "What the facade owns").
#[derive(Clone, Debug, Default)]
pub(crate) struct State {
    pub(crate) regime: EntailmentRegime,
    pub(crate) core_budget: CoreBudgetMode,
    /// The asserted set `D` and its maintained `RDFS-cl(D)`.
    pub(crate) reasoner: MaterializedStore,
    /// The core engine over `nf(D)` under RDFS, `core(D)` under simple
    /// entailment: built by the first read or publish, then maintained.
    pub(crate) evaluation: Option<IdCoreEngine>,
}

impl State {
    /// The evaluation engine. Every read and every publication builds it
    /// first, so a state being read always has one.
    pub(crate) fn evaluation(&self) -> &IdCoreEngine {
        self.evaluation
            .as_ref()
            .expect("the evaluation engine is built before a state is read")
    }

    /// The cold build of the evaluation engine: the whole set it cores
    /// ([`State::feed`]) as one delta into an empty engine. It never leaves
    /// id space: under RDFS that set is the maintained closure (no closure
    /// fixpoint, no string-graph materialization); under simple entailment
    /// it is `D` — matching against the core of `D` gives
    /// equivalence-invariant answers without applying the vocabulary rules.
    /// Afterwards [`State::apply`] keeps it in step, so this runs once
    /// per regime, not per mutation.
    fn build_evaluation(&mut self, metrics: &Metrics) {
        let mut engine = IdCoreEngine::new();
        engine.set_metrics(metrics.clone());
        engine.set_core_budget(self.core_budget);
        self.evaluation = Some(engine);
        let all: Vec<IdTriple> = match self.regime {
            EntailmentRegime::Rdfs => self.reasoner.closure_index().iter().collect(),
            EntailmentRegime::Simple => self.reasoner.store().iter_ids().collect(),
        };
        self.feed(&all, &[]);
    }

    /// The one write path (module docs): applies the signed batch `D' = (D −
    /// remove) ∪ insert` of interned, disjoint ids to `D` and its closure,
    /// and feeds the net delta of the set the evaluation engine cores to it:
    /// the closure's under RDFS, `D`'s under simple entailment.
    pub(crate) fn apply(&mut self, insert: &[IdTriple], remove: &[IdTriple]) -> ClosureDelta {
        let delta = self.reasoner.apply_ids(insert, remove);
        match self.regime {
            EntailmentRegime::Rdfs => self.feed(&delta.added, &delta.removed),
            EntailmentRegime::Simple => self.feed(&delta.asserted, &delta.retracted),
        }
        delta
    }

    /// Hands the evaluation engine, if it is built, one delta of the set it
    /// cores. Under RDFS that is the maintained closure, which holds the
    /// delta already: the engine's index is a view of it. Under simple
    /// entailment it is `D`, which the engine writes into an index of its
    /// own, since the asserted store holds `D` in one ordering only.
    fn feed(&mut self, added: &[IdTriple], removed: &[IdTriple]) {
        let (reasoner, dictionary) = (&self.reasoner, self.reasoner.store().dictionary());
        match (self.evaluation.as_mut(), self.regime) {
            (None, _) => {}
            (Some(engine), EntailmentRegime::Rdfs) => {
                engine.apply_delta_over(reasoner.closure_index(), added, removed, dictionary)
            }
            (Some(engine), _) => engine.apply_delta(added, removed, dictionary),
        }
    }

    /// Rebuilds a state from a decoded snapshot — pure deserialization: the
    /// dictionary replays in id order (reproducing the exact id
    /// assignment), the closure and the base (the closure's flagged
    /// triples, both strictly ascending as a version-3 segment decodes, so
    /// built with no sort) are adopted without rule propagation, and the
    /// evaluation engine restores from its exported component states
    /// without any retraction search, then views the set
    /// it cores: a core fixes every URI, so the engine's ground side is
    /// that set's — the restored closure, or under simple entailment an
    /// index of the base run built for the engine.
    ///
    /// The parts depend on nothing but the payload (the engine reads blanks
    /// off the term tags), so they are built as jobs on at most `threads`
    /// workers ([`run_jobs`]); at `1`, inline and in order.
    fn restore(snapshot: &SnapshotPayload, threads: usize, metrics: &Metrics) -> State {
        let core_budget = decode_budget(
            snapshot.budget_mode,
            snapshot.budget_steps,
            snapshot.budget_millis,
        );
        let regime = decode_regime(snapshot.regime);
        let simple = regime == EntailmentRegime::Simple && snapshot.evaluation.is_some();
        let terms = &snapshot.terms;
        let is_blank = |id: TermId| matches!(terms.get(id as usize), Some(Term::Blank(_)));
        let (mut evaluation, mut closure, mut dictionary) = (None, None, None);
        let (mut base, mut simple_base) = (None, None);
        run_jobs(
            threads,
            vec![
                Box::new(|| {
                    evaluation = Some(snapshot.evaluation.as_deref().map(|components| {
                        IdCoreEngine::from_state(components, is_blank, metrics.clone(), core_budget)
                    }))
                }),
                Box::new(|| closure = Some(IdIndex::from_sorted(&snapshot.closure))),
                Box::new(|| {
                    let mut in_order = Dictionary::new();
                    terms.iter().for_each(|term| _ = in_order.intern(term));
                    dictionary = Some(in_order)
                }),
                Box::new(|| base = Some(IdSet::from_sorted(&snapshot.base))),
                Box::new(|| simple_base = simple.then(|| IdIndex::from_sorted(&snapshot.base))),
            ],
        );
        let built = "every restore job ran";
        let store = TripleStore::from_parts(dictionary.expect(built), base.expect(built));
        let mut reasoner = MaterializedStore::restore(store, closure.expect(built));
        reasoner.set_threads(threads);
        reasoner.set_metrics(metrics.clone());
        let mut evaluation = evaluation.expect(built);
        if let Some(engine) = evaluation.as_mut() {
            let base = simple_base.as_ref().unwrap_or(reasoner.closure_index());
            engine.attach(base, reasoner.store().dictionary());
        }
        State {
            regime,
            core_budget,
            reasoner,
            evaluation,
        }
    }
}

/// The complete durable image, borrowed from the live parts: regime,
/// budget, the dictionary in id order, the closure walked in step with the
/// asserted set to flag the base triples in it ([`flagged`]), and the
/// evaluation engine's components, if it is built (including their
/// `uncored` flags, so degraded mode survives a reopen exactly) — what
/// [`State::restore`] reads, and nothing else.
impl SnapshotSource for State {
    fn sections(&self) -> Sections<'_> {
        let (store, closure) = (self.reasoner.store(), self.reasoner.closure_index());
        let dictionary = store.dictionary();
        let (mode, steps, millis) = encode_budget(self.core_budget);
        Sections {
            settings: (encode_regime(self.regime), mode, steps, millis),
            terms: run(dictionary.len(), dictionary.iter().map(|(_, term)| term)),
            closure: flagged(run(closure.len(), closure.iter()), store.iter_ids()),
            evaluation: self.evaluation.as_ref().map(engine_runs),
        }
    }
}

/// A semantic-web database: an RDF graph with an entailment regime and the
/// derived structures needed to answer queries.
#[derive(Debug)]
pub struct SemanticWebDatabase {
    /// The committed state, replaced only by the commit ("The write path").
    state: Arc<State>,
    /// The plans and premise forks of `state`'s reads. The commit drops
    /// them before interning, so a fork never makes it copy the dictionary.
    reads: Reads,
    /// The shared observability handle (`swdb-obs`): one lock-free counter /
    /// histogram sheet threaded through the reasoner, the core engines and
    /// the query executor. Level defaults from `SWDB_METRICS`
    /// (off/counters/debug) and is `Off` — near-zero cost — unless set.
    metrics: Metrics,
    /// The attached crash-safe durability layer (`swdb-durable`): snapshots
    /// plus a write-ahead log under a data directory. A rotation streams
    /// its snapshot from the committed state (`impl SnapshotSource for
    /// State`) and reads it back in chunks, so it copies nothing of the
    /// state: on `snapshot_now` (a server's shutdown checkpoint among
    /// them), `persist_to` and WAL compaction alike. `None` — the default
    /// unless [`SemanticWebDatabase::open`] /
    /// [`SemanticWebDatabase::persist_to`] was used — keeps the database
    /// purely in memory. The discipline on any IO error is **fail-stop**:
    /// the layer detaches (recorded in
    /// [`SemanticWebDatabase::durability_error`]) and the in-memory
    /// database keeps working; the data directory is left in a state the
    /// next `open` recovers to the last durably-acknowledged mutation.
    durability: Option<Durability>,
    /// Why the durability layer detached, if it did (fail-stop record).
    durability_error: Option<String>,
    /// The MVCC publication slot: the writer's last explicitly published
    /// immutable snapshot ([`crate::publish::PublishedSnapshot`]), pinned
    /// lock-free-in-effect by any number of [`SnapshotReader`] handles.
    /// Starts at epoch 0 (empty); [`SemanticWebDatabase::publish`] swaps in
    /// the next epoch.
    publish_slot: Arc<crate::publish::PublishSlot>,
}

impl Default for SemanticWebDatabase {
    fn default() -> Self {
        SemanticWebDatabase::detached(EntailmentRegime::default(), Metrics::from_env())
    }
}

impl Clone for SemanticWebDatabase {
    /// Clones the in-memory database **without** the durability layer: two
    /// handles appending to one WAL would interleave their records into a
    /// history neither produced, so the clone starts detached (attach its
    /// own directory with [`SemanticWebDatabase::persist_to`]). It shares
    /// the committed state, but not the plans costed on it.
    fn clone(&self) -> Self {
        SemanticWebDatabase {
            state: Arc::clone(&self.state),
            reads: Reads::default(),
            metrics: self.metrics.clone(),
            durability: None,
            durability_error: None,
            // A fresh, unpublished slot: readers pinned on the original keep
            // observing the original's publications, never the clone's.
            publish_slot: Arc::new(crate::publish::PublishSlot::empty(self.metrics.clone())),
        }
    }
}

impl SemanticWebDatabase {
    /// Creates an empty database under the RDFS regime.
    pub fn new() -> Self {
        SemanticWebDatabase::default()
    }

    /// The in-memory constructor: everything wired to the given metrics
    /// handle, no durability attached.
    fn detached(regime: EntailmentRegime, metrics: Metrics) -> Self {
        let mut reasoner = MaterializedStore::with_threads(default_threads());
        reasoner.set_metrics(metrics.clone());
        SemanticWebDatabase {
            state: Arc::new(State {
                regime,
                core_budget: CoreBudgetMode::from_env(),
                reasoner,
                evaluation: None,
            }),
            reads: Reads::default(),
            publish_slot: Arc::new(crate::publish::PublishSlot::empty(metrics.clone())),
            metrics,
            durability: None,
            durability_error: None,
        }
    }

    /// The one write path (module docs, "The write path"): interns `terms`
    /// into the committed state, applies `op` to a clone of it and their
    /// ids, commits the WAL record `record` derives from the op's result
    /// (asked only while a durability layer is attached; `None` logs
    /// nothing), and swaps the clone in.
    fn commit<R>(
        &mut self,
        terms: &Graph,
        op: impl FnOnce(&mut State, &[IdTriple]) -> R,
        record: impl FnOnce(&R) -> Option<WalRecord>,
    ) -> R {
        self.reads = Reads::default();
        let ids = if terms.is_empty() {
            Vec::new()
        } else {
            Arc::make_mut(&mut self.state).reasoner.intern_graph(terms)
        };
        let mut next = State::clone(&self.state);
        let out = op(&mut next, &ids);
        if let Some(record) = self.durability.as_ref().and_then(|_| record(&out)) {
            self.log_wal(record, &next);
        }
        self.state = Arc::new(next);
        out
    }

    // ----- durability -----

    /// Opens (creating if needed) a durable database at `dir` and recovers
    /// whatever consistent state the directory holds: the newest valid
    /// snapshot loads by pure deserialization — dictionary, base store,
    /// maintained closure and the core engine's state come back exactly as
    /// exported, with **no closure fixpoint and no core search** — and the
    /// WAL suffix committed after it replays as one commit per run of
    /// insert/remove records, netted to one signed batch (a settings record
    /// ends a run; the crate docs say what recovers identically). Every
    /// record counts in `recovery_replayed_deltas`. A torn final WAL record
    /// — the expected signature of a crash mid-commit — is detected by
    /// checksum, truncated, and counted (`recovery_torn_tails`); everything
    /// durably acknowledged before the crash survives.
    /// The snapshot's parts are rebuilt as jobs on at most
    /// [`SemanticWebDatabase::threads`] workers; the recovered state is the
    /// same at every ceiling.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        SemanticWebDatabase::open_with_io(dir.as_ref(), Arc::new(StdIo), Metrics::from_env())
    }

    /// [`SemanticWebDatabase::open`] with an explicit IO implementation and
    /// metrics handle — the entry point of the fault-injection tests
    /// ([`swdb_durable::FaultIo`]) and of callers that need to observe the
    /// recovery counters race-free.
    pub fn open_with_io(dir: &Path, io: Arc<dyn Io>, metrics: Metrics) -> io::Result<Self> {
        let span = metrics.span(Hist::SpanRecoveryNs);
        let (durability, recovered) =
            Durability::open(dir, io, metrics.clone(), wal_compact_threshold())?;
        let mut db = SemanticWebDatabase::detached(EntailmentRegime::default(), metrics.clone());
        if let Some(snapshot) = recovered.snapshot {
            let _restore = metrics.span(Hist::SpanSnapshotRestoreNs);
            let (threads, metrics) = (db.threads(), db.metrics.clone());
            db.commit(
                &Graph::new(),
                |state, _| *state = State::restore(&snapshot, threads, &metrics),
                |_| None,
            );
        }
        // Replay the WAL suffix, a run of records at a time (see above). The
        // durability field is still `None` here, so nothing gets re-logged.
        let mut run = std::collections::BTreeMap::new();
        let parse = |text: &str| swdb_store::parse(text).map_err(replay_parse_error);
        for record in &recovered.wal {
            let reasoner = &mut Arc::make_mut(&mut db.state).reasoner;
            // Each record interns its terms in log order: the original ids.
            let (ids, asserted) = match record {
                WalRecord::InsertGraph(text) => (reasoner.intern_graph(&parse(text)?), true),
                WalRecord::RemoveGraph(text) => {
                    let (graph, store) = (parse(text)?, reasoner.store());
                    let ids = graph.iter().filter_map(|t| store.resolve_ids(t));
                    (ids.collect(), false)
                }
                setting => {
                    db.apply_run(std::mem::take(&mut run));
                    match *setting {
                        WalRecord::SetRegime(wire) => db.set_regime(decode_regime(wire)),
                        WalRecord::SetBudget {
                            mode,
                            steps,
                            millis,
                        } => db.set_core_budget(decode_budget(mode, steps, millis)),
                        _ => _ = db.refresh_degraded(),
                    }
                    continue;
                }
            };
            run.extend(ids.into_iter().map(|t| (t, asserted)));
        }
        db.apply_run(run);
        db.metrics
            .count(Counter::RecoveryReplayedDeltas, recovered.wal.len() as _);
        db.durability = Some(durability);
        drop(span);
        Ok(db)
    }

    /// Commits a netted run of WAL records (`true`: asserted), logging nothing.
    fn apply_run(&mut self, run: std::collections::BTreeMap<IdTriple, bool>) {
        let (insert, remove): (Vec<_>, Vec<_>) = run.keys().copied().partition(|t| run[t]);
        if !run.is_empty() {
            self.commit(
                &Graph::new(),
                |state, _| _ = state.apply(&insert, &remove),
                |_| None,
            );
        }
    }

    /// Attaches durability to an in-memory database: opens `dir`, writes
    /// the **current** state as a snapshot (replacing whatever generation
    /// the directory held), and logs every subsequent mutation to the WAL.
    /// The prior durability attachment of this value, if any, is replaced.
    pub fn persist_to(&mut self, dir: impl AsRef<Path>) -> io::Result<()> {
        self.persist_to_with_io(dir.as_ref(), Arc::new(StdIo))
    }

    /// [`SemanticWebDatabase::persist_to`] with an explicit IO
    /// implementation (fault-injection entry point).
    pub fn persist_to_with_io(&mut self, dir: &Path, io: Arc<dyn Io>) -> io::Result<()> {
        let (mut durability, _prior) =
            Durability::open(dir, io, self.metrics.clone(), wal_compact_threshold())?;
        durability.rotate(&*self.state)?;
        self.durability = Some(durability);
        self.durability_error = None;
        Ok(())
    }

    /// Rotates now: writes the current state as a new snapshot generation
    /// and truncates the WAL (crash-safe; see [`swdb_durable`] for the
    /// write ordering). Returns `Ok(false)` when no durability layer is
    /// attached. On error the layer detaches (fail-stop) — the directory
    /// still recovers to its pre-rotation state.
    pub fn snapshot_now(&mut self) -> io::Result<bool> {
        let Some(durability) = self.durability.as_mut() else {
            return Ok(false);
        };
        match durability.rotate(&*self.state) {
            Ok(()) => Ok(true),
            Err(e) => {
                self.detach_durability(&format!("snapshot rotation failed ({e})"));
                Err(e)
            }
        }
    }

    /// The data directory mutations are being persisted into, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir())
    }

    /// `true` while a durability layer is attached and healthy.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Why the durability layer detached, if it fail-stopped on an IO
    /// error or a panic inside a WAL commit. `None` while healthy (or never
    /// attached).
    pub fn durability_error(&self) -> Option<&str> {
        self.durability_error.as_deref()
    }

    /// Live records in the current WAL generation (0 when detached).
    pub fn wal_records(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.wal_records())
    }

    /// Durably commits one mutation's record (one append + fsync), then
    /// rotates to a snapshot of `next`, the state about to be swapped in,
    /// if the WAL has outgrown the compaction threshold. The layer is out of
    /// the facade meanwhile, with a provisional fail-stop record, so a panic
    /// leaves it detached; an IO error fail-stops it.
    fn log_wal(&mut self, record: WalRecord, next: &State) {
        let Some(mut durability) = self.durability.take() else {
            return;
        };
        self.durability_error = Some(detached("a WAL commit panicked"));
        let failed = match durability.commit(&[record]) {
            Err(e) => Some(format!("WAL commit failed ({e})")),
            Ok(()) if durability.needs_compaction() => durability
                .rotate(next)
                .err()
                .map(|e| format!("WAL compaction rotation failed ({e})")),
            Ok(()) => None,
        };
        self.durability_error = None;
        match failed {
            None => self.durability = Some(durability),
            Some(why) => self.detach_durability(&why),
        }
    }

    /// The fail-stop transition: drop the layer, record why, and zero the
    /// compaction gauge so the metrics warning stops firing for a WAL
    /// nobody appends to anymore.
    fn detach_durability(&mut self, why: &str) {
        self.durability = None;
        self.durability_error = Some(detached(why));
        self.metrics.count(Counter::DurabilityDetached, 1);
        self.metrics.gauge_set(Gauge::WalCompactThreshold, 0);
        self.metrics.gauge_set(Gauge::WalLiveRecords, 0);
    }

    /// Sets the worker ceiling for the write path (clamped to at least 1):
    /// a large round of closure propagation or DRed cascade spawns at most
    /// this many workers; `1` never spawns, and small rounds stay inline at
    /// any value. The maintained closure — and with it every published
    /// read structure — is identical for every count, so the knob is set in
    /// place, not committed.
    pub fn set_threads(&mut self, threads: usize) {
        Arc::make_mut(&mut self.state).reasoner.set_threads(threads);
    }

    /// The configured worker ceiling (defaults to the machine's available
    /// parallelism).
    pub fn threads(&self) -> usize {
        self.state.reasoner.threads()
    }

    /// Sets the per-component budget for the NP-hard core searches (the
    /// retraction searches behind `core(·)`), propagated to the evaluation
    /// engine. A component whose budget slice runs out is **published
    /// uncored** — a sound superset of its true core, flagged degraded —
    /// instead of stalling the write path; see the "Degraded mode" section
    /// of [`swdb_normal::id_core`] for the soundness argument and
    /// [`SemanticWebDatabase::refresh_degraded`] for the retry.
    ///
    /// The default comes from the `SWDB_CORE_BUDGET` environment variable
    /// (a fold-step count; `off`/`unlimited` disables budgeting) and
    /// `SWDB_CORE_BUDGET_MS` (a wall-clock ceiling), else
    /// [`CoreBudgetMode::Auto`]: components at or under the oversized-blank
    /// warning threshold run unbudgeted (bit-identical to the unbudgeted
    /// engine on benign data), larger ones get a slice proportional to the
    /// threshold.
    pub fn set_core_budget(&mut self, mode: CoreBudgetMode) {
        self.commit(
            &Graph::new(),
            |state, _| {
                state.core_budget = mode;
                if let Some(engine) = state.evaluation.as_mut() {
                    engine.set_core_budget(mode);
                }
            },
            |_| {
                let (mode, steps, millis) = encode_budget(mode);
                Some(WalRecord::SetBudget {
                    mode,
                    steps,
                    millis,
                })
            },
        );
    }

    /// The configured core-search budget mode.
    pub fn core_budget(&self) -> CoreBudgetMode {
        self.state.core_budget
    }

    /// `true` while the evaluation engine holds a component published
    /// uncored (degraded mode): the evaluation graph — and with it
    /// merge-semantics answers — is a sound but possibly non-minimal
    /// superset of the true core. Answers stay sound and complete either
    /// way; see [`SemanticWebDatabase::refresh_degraded`].
    pub fn is_degraded(&self) -> bool {
        let evaluation = self.state.evaluation.as_ref();
        evaluation.is_some_and(IdCoreEngine::is_degraded)
    }

    /// Components of the evaluation engine currently published uncored.
    pub fn uncored_components(&self) -> usize {
        let evaluation = self.state.evaluation.as_ref();
        evaluation.map_or(0, IdCoreEngine::uncored_components)
    }

    /// Published triples inside uncored components — the portion of the
    /// evaluation graph that may be non-minimal.
    pub fn uncored_triples(&self) -> usize {
        let evaluation = self.state.evaluation.as_ref();
        evaluation.map_or(0, IdCoreEngine::uncored_triples)
    }

    /// The quiet-moment retry of degraded mode: every uncored component of
    /// the evaluation engine gets a fresh budget slice and resumes its core
    /// search from the published survivors (monotone — applied folds are
    /// genuine retractions, so no work is lost). Returns `true` when no
    /// component remains uncored; guaranteed to fully recover under
    /// [`CoreBudgetMode::Unlimited`].
    pub fn refresh_degraded(&mut self) -> bool {
        self.commit(
            &Graph::new(),
            |state, _| {
                let dictionary = state.reasoner.store().dictionary();
                state
                    .evaluation
                    .as_mut()
                    .is_none_or(|engine| engine.recore_uncored(dictionary))
            },
            // Logged so a replay repeats the retry at the same point in the
            // mutation sequence: under a step-count budget that makes the
            // recovered degraded flags deterministic (wall-clock budgets
            // remain inherently run-dependent).
            |_| Some(WalRecord::RefreshDegraded),
        )
    }

    /// Sets the metrics recording level at runtime. `Off` (the default
    /// unless `SWDB_METRICS` says otherwise) keeps every instrumentation
    /// site to one relaxed atomic load; `Counters` turns on the lock-free
    /// counter sheet; `Debug` additionally records histograms and span
    /// timings. The level applies retroactively to every engine sharing the
    /// handle — no structure is rebuilt.
    pub fn set_metrics_level(&mut self, level: MetricsLevel) {
        self.metrics.set_level(level);
    }

    /// The shared [`Metrics`] handle every subsystem of this database
    /// records into (clones share state, so a held clone keeps observing).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Freezes the current metrics into deterministic JSON (keys sorted,
    /// integers only): counters, per-rule firings, gauges, histograms
    /// (debug level), and early warnings such as an oversized blank
    /// component. A fail-stop durability detach surfaces here too: the
    /// recorded [`SemanticWebDatabase::durability_error`] joins the
    /// `warnings` block (alongside the `durability_detached` counter), so
    /// detachment is observable without polling the facade. See
    /// [`swdb_obs::MetricsSnapshot`] for the typed form.
    pub fn metrics_snapshot(&self) -> String {
        let mut snapshot = self.metrics.snapshot();
        if let Some(why) = &self.durability_error {
            snapshot.warnings.push(format!("durability_error: {why}"));
        }
        snapshot.to_json()
    }

    // ----- publication (the MVCC read side) -----

    /// Atomically publishes the current state as an immutable
    /// [`PublishedSnapshot`] and returns it. The snapshot wraps the
    /// committed `Arc<State>` (its evaluation engine built first if cold)
    /// and clones nothing else, so publication is independent of the
    /// database's size, and a later write copies only what it touches. It
    /// carries the epoch (monotonically increasing from 1) and the
    /// durability layer's fail-stop record at publication time; the
    /// `non_minimal` flag is the state's own. Every
    /// [`SnapshotReader`](crate::publish::SnapshotReader)
    /// handle on this database observes the new epoch on its next pin;
    /// already-pinned snapshots are untouched — that is the MVCC contract:
    /// a pinned snapshot stays bit-identical however the writer mutates,
    /// and a reader answering on one never blocks `insert`/`remove`.
    ///
    /// Publication is **explicit**: mutations do not republish on their
    /// own (a bulk load would otherwise publish once per triple). The
    /// serving layer (`swdb-server`) publishes once per write request.
    pub fn publish(&mut self) -> Arc<PublishedSnapshot> {
        let metrics = self.metrics.clone();
        let span = metrics.span(Hist::SpanSnapshotPublishNs);
        self.ensure_evaluation();
        let epoch = self.publish_slot.pin().epoch() + 1;
        let snapshot = Arc::new(PublishedSnapshot::new(
            epoch,
            Arc::clone(&self.state),
            self.durability_error.clone(),
            self.metrics.clone(),
        ));
        let replaced = self.publish_slot.swap(Arc::clone(&snapshot));
        // Freed (if this was its last pin) after the slot's lock is released.
        drop(replaced);
        self.metrics.count(Counter::SnapshotsPublished, 1);
        self.metrics.gauge_set(Gauge::PublishedEpoch, epoch);
        drop(span);
        snapshot
    }

    /// Runs `run` on the query engine for `query` over the committed state
    /// (module docs, "The read path").
    fn read<R>(&mut self, query: &Query, run: impl FnOnce(QueryEngine<'_>) -> R) -> R {
        self.ensure_evaluation();
        self.reads.run(&self.state, &self.metrics, query, run)
    }

    /// A clonable, `Send + Sync` handle onto this database's publication
    /// slot: each [`SnapshotReader::pin`](crate::publish::SnapshotReader::pin)
    /// returns the latest published snapshot as a plain `Arc` the reader
    /// thread queries without any further coordination with the writer.
    /// Publishes epoch 1 first if nothing has been published yet, so a
    /// fresh reader never observes the empty epoch-0 placeholder.
    pub fn reader(&mut self) -> crate::publish::SnapshotReader {
        if self.publish_slot.pin().epoch() == 0 {
            self.publish();
        }
        crate::publish::SnapshotReader::new(Arc::clone(&self.publish_slot))
    }

    /// The currently published snapshot (epoch 0 and empty until the first
    /// [`SemanticWebDatabase::publish`]). Equivalent to pinning through a
    /// [`SnapshotReader`](crate::publish::SnapshotReader), but borrowable
    /// from `&self`.
    pub fn published(&self) -> Arc<PublishedSnapshot> {
        self.publish_slot.pin()
    }

    /// Creates an empty database under the given regime.
    pub fn with_regime(regime: EntailmentRegime) -> Self {
        SemanticWebDatabase::detached(regime, Metrics::from_env())
    }

    /// Wraps an existing graph. The initial closure materialization is one
    /// frontier-batched fixpoint, parallel-sharded when the configured
    /// thread ceiling allows.
    pub fn from_graph(graph: Graph) -> Self {
        let mut db = SemanticWebDatabase::default();
        db.insert_graph(&graph);
        db
    }

    /// Loads a database from the N-Triples-style syntax of
    /// [`swdb_store::ntriples`].
    pub fn from_ntriples(text: &str) -> Result<Self, swdb_store::ParseError> {
        Ok(SemanticWebDatabase::from_graph(swdb_store::parse(text)?))
    }

    /// Serializes the asserted triples (decoded into a [`Graph`] for the call).
    pub fn to_ntriples(&self) -> String {
        swdb_store::serialize(&self.state.reasoner.to_graph())
    }

    /// The entailment regime in force.
    pub fn regime(&self) -> EntailmentRegime {
        self.state.regime
    }

    /// Switches the entailment regime (drops the evaluation engine, which
    /// the next read or publish rebuilds under the new regime).
    pub fn set_regime(&mut self, regime: EntailmentRegime) {
        if self.state.regime != regime {
            self.commit(
                &Graph::new(),
                |state, _| {
                    state.regime = regime;
                    state.evaluation = None;
                },
                |_| Some(WalRecord::SetRegime(encode_regime(regime))),
            );
        }
    }

    /// The asserted set (the raw assertions, not their closure), borrowed:
    /// `contains`, `len` and `iter_ids` decode nothing, `to_graph()` decodes
    /// every triple into an owned [`Graph`].
    pub fn graph(&self) -> &TripleStore {
        self.state.reasoner.store()
    }

    /// Number of asserted triples.
    pub fn len(&self) -> usize {
        self.state.reasoner.store().len()
    }

    /// Returns `true` if no triple is asserted.
    pub fn is_empty(&self) -> bool {
        self.state.reasoner.store().is_empty()
    }

    /// Inserts a triple. Returns `true` if it was new. The maintained
    /// closure is extended by delta propagation, not recomputed, and the
    /// cached evaluation index absorbs the closure delta.
    pub fn insert(&mut self, triple: impl Into<Triple>) -> bool {
        let added: Graph = std::iter::once(triple.into()).collect();
        self.commit(
            &added,
            |state, ids| !state.apply(ids, &[]).asserted.is_empty(),
            |&new| new.then(|| WalRecord::InsertGraph(swdb_store::serialize(&added))),
        )
    }

    /// Removes a triple (`remove_graph` of one); `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.remove_graph(&std::iter::once(triple.clone()).collect()) == 1
    }

    /// Removes every triple of a graph, returning how many were present —
    /// the removal path of `remove`, `minimize` and `/remove`. The whole
    /// graph is one signed batch: the maintained closure retracts exactly
    /// the consequences that lost support in one DRed run, and the
    /// evaluation engine absorbs that delta in one refresh; the call
    /// commits **one** WAL record holding the triples that were present
    /// (none → no record): a crash recovers all removed or none.
    pub fn remove_graph(&mut self, graph: &Graph) -> usize {
        let removed = self.commit(
            &Graph::new(),
            |state, _| {
                let store = state.reasoner.store();
                let ids: Vec<IdTriple> =
                    graph.iter().filter_map(|t| store.resolve_ids(t)).collect();
                let retracted = state.apply(&[], &ids).retracted;
                let store = state.reasoner.store();
                Graph::from_iter(retracted.iter().map(|&t| store.materialize(t)))
            },
            |removed| {
                let text = (!removed.is_empty()).then(|| swdb_store::serialize(removed));
                text.map(WalRecord::RemoveGraph)
            },
        );
        removed.len()
    }

    /// Inserts every triple of a graph. The maintained closure is extended
    /// in one frontier-batched semi-naive round
    /// ([`MaterializedStore::insert_graph`]) rather than a propagation
    /// fixpoint per triple, so bulk loads amortize the index probes; the
    /// evaluation index absorbs the whole batch as one delta.
    pub fn insert_graph(&mut self, graph: &Graph) {
        self.commit(
            graph,
            |state, ids| {
                state.apply(ids, &[]);
            },
            |_| (!graph.is_empty()).then(|| WalRecord::InsertGraph(swdb_store::serialize(graph))),
        );
    }

    /// Descriptive statistics of the asserted triples (decoded for the call).
    /// Also feeds the largest-blank-component early warning on demand: the
    /// observation updates the metrics gauge and counts a warning when the
    /// size exceeds the configured threshold (`SWDB_BLANK_WARN`, or
    /// [`swdb_obs::Metrics::set_blank_warn_threshold`]).
    pub fn stats(&self) -> GraphStats {
        let stats = GraphStats::of(&self.state.reasoner.to_graph());
        self.metrics
            .observe_largest_blank_component(stats.largest_blank_component() as u64);
        stats
    }

    // ----- semantics -----

    /// Does the database entail the given graph under the current regime?
    pub fn entails(&self, conclusion: &Graph) -> bool {
        let stored = self.state.reasoner.to_graph();
        match self.state.regime {
            EntailmentRegime::Simple => swdb_entailment::simple_entails(&stored, conclusion),
            EntailmentRegime::Rdfs => swdb_entailment::entails(&stored, conclusion),
        }
    }

    /// Is the database equivalent to the given graph under the current
    /// regime?
    pub fn equivalent_to(&self, other: &Graph) -> bool {
        let stored = self.state.reasoner.to_graph();
        match self.state.regime {
            EntailmentRegime::Simple => swdb_entailment::simple_equivalent(&stored, other),
            EntailmentRegime::Rdfs => swdb_entailment::equivalent(&stored, other),
        }
    }

    /// The RDFS closure `cl(D)` of the stored graph, served from the
    /// incrementally maintained materialization (Theorem 3.6(2): `cl`
    /// coincides with `RDFS-cl`, which `swdb-reason` maintains). The
    /// recomputing spec path remains available as
    /// [`SemanticWebDatabase::closure_recomputed`].
    pub fn closure(&self) -> Graph {
        self.state.reasoner.closure_graph()
    }

    /// The closure recomputed from scratch through
    /// `swdb_normal::closure` / `swdb_entailment::rdfs_closure` — the
    /// executable specification the incremental path is property-tested
    /// against.
    pub fn closure_recomputed(&self) -> Graph {
        swdb_normal::closure(&self.state.reasoner.to_graph())
    }

    /// Membership in `cl(D)` as one indexed probe against the maintained
    /// closure — no fixpoint, no graph traversal.
    pub fn closure_contains(&self, triple: &Triple) -> bool {
        self.state.reasoner.closure_contains(triple)
    }

    /// The maintained store + closure (the `swdb-reason` subsystem), for
    /// callers that want id-level scans over asserted or inferred triples.
    pub fn reasoner(&self) -> &MaterializedStore {
        &self.state.reasoner
    }

    /// The core of the stored graph.
    pub fn core(&self) -> Graph {
        swdb_normal::core(&self.state.reasoner.to_graph())
    }

    /// The normal form `nf(D)` under the current regime: `core(cl(D))` for
    /// RDFS, `core(D)` for simple entailment.
    pub fn normal_form(&self) -> Graph {
        let stored = self.state.reasoner.to_graph();
        match self.state.regime {
            EntailmentRegime::Simple => swdb_normal::core(&stored),
            EntailmentRegime::Rdfs => swdb_normal::normal_form(&stored),
        }
    }

    /// Is the stored graph lean?
    pub fn is_lean(&self) -> bool {
        swdb_normal::is_lean(&self.state.reasoner.to_graph())
    }

    /// Replaces the asserted set by its core, removing redundancy while
    /// preserving equivalence. Returns the number of triples removed.
    pub fn minimize(&mut self) -> usize {
        self.minimize_with_status().0
    }

    /// [`SemanticWebDatabase::minimize`] plus whether the core it kept is
    /// complete: `false` when a core budget ran out and the kept set is a
    /// sound but possibly non-lean superset of the core.
    ///
    /// The core of the *asserted* set is read off an [`IdCoreEngine`] in id
    /// space — the evaluation engine under simple entailment, and under
    /// RDFS one built for this call over an index of `D` of its own — and
    /// diffed against the store's ids, so only the dropped triples are
    /// decoded. The core is a subset (the engine retracts, never renames),
    /// so the drop is one `remove_graph`.
    pub fn minimize_with_status(&mut self) -> (usize, bool) {
        let asserted = (self.state.regime == EntailmentRegime::Rdfs).then(|| {
            let store = self.state.reasoner.store();
            // Disabled metrics: the gauges keep mirroring the evaluation engine.
            let (ids, budget) = (store.iter_ids(), self.state.core_budget);
            IdCoreEngine::from_triples_budgeted(ids, store.dictionary(), Metrics::default(), budget)
        });
        if asserted.is_none() {
            self.ensure_evaluation();
        }
        let engine = asserted.as_ref().unwrap_or_else(|| self.state.evaluation());
        let store = self.state.reasoner.store();
        let dropped: Graph = store
            .iter_ids()
            .filter(|&ids| !engine.index().contains(ids))
            .map(|ids| store.materialize(ids))
            .collect();
        let complete = !engine.is_degraded();
        (self.remove_graph(&dropped), complete)
    }

    // ----- query answering -----

    /// Builds the evaluation engine if it is not built yet — a commit of
    /// its own, logging nothing ([`State::build_evaluation`]).
    fn ensure_evaluation(&mut self) {
        if self.state.evaluation.is_none() {
            let metrics = self.metrics.clone();
            self.commit(
                &Graph::new(),
                |state, _| state.build_evaluation(&metrics),
                |_| None,
            );
        }
    }

    /// The evaluation graph premise-free queries run against, decoded to
    /// terms: `nf(D) = core(cl(D))` under RDFS, `core(D)` under simple
    /// entailment (built/maintained incrementally; the equivalence tests
    /// pin it against the recomputing `swdb_normal` pipeline up to
    /// isomorphism).
    pub fn evaluation_graph(&mut self) -> Graph {
        self.ensure_evaluation();
        let store = self.state.reasoner.store();
        self.state
            .evaluation()
            .index()
            .iter()
            .map(|ids| store.materialize(ids))
            .collect()
    }

    /// Answers a query under the given semantics — entirely in id space.
    /// Premise-free queries join the cached evaluation index directly;
    /// premise queries go through the premise overlay (see the module
    /// docs).
    pub fn answer(&mut self, query: &Query, semantics: Semantics) -> Graph {
        self.answer_with_status(query, semantics).0
    }

    /// [`SemanticWebDatabase::answer`] plus the degradation flag of the
    /// substrate the answer was computed against: `true` when a core-budget
    /// exhaustion left that substrate (the published evaluation graph, or
    /// this query's premise overlay) a sound but possibly non-minimal
    /// superset of the true core. The answer itself is still sound and
    /// complete — equivalent to the unbudgeted answer — but may mention
    /// redundant blanks a finished core search would have folded away.
    /// Callers that need minimality can poll
    /// [`SemanticWebDatabase::refresh_degraded`] and re-ask.
    pub fn answer_with_status(&mut self, query: &Query, semantics: Semantics) -> (Graph, bool) {
        let answer = self.answer_set(query, semantics);
        let non_minimal = answer.non_minimal;
        (answer.into_graph(self.graph().dictionary()), non_minimal)
    }

    /// [`SemanticWebDatabase::answer_with_status`] as the engine's
    /// [`AnswerSet`] — the flag rides on it, with whether the answer was
    /// truncated — in its owned form: ids of the live dictionary mean
    /// nothing to a caller that has let go of the database.
    pub fn answer_set(&mut self, query: &Query, semantics: Semantics) -> AnswerSet {
        self.read(query, |engine| {
            engine
                .answer_set(query, semantics)
                .into_owned(engine.dictionary)
        })
    }

    /// Explains how [`SemanticWebDatabase::answer`] executes this query, by
    /// executing it: the mechanism the dispatch chose (`premise_free`
    /// or `overlay`), the compiled pattern count, the planned
    /// join order the search descended through (original body-pattern
    /// indices), the plan-cache outcome with the planner's estimated and
    /// the store's actual per-pattern cardinalities, and the measured
    /// planning probes, enumerated bindings, and answer count. It is one run
    /// of the real pipeline with a recorder attached, so explaining costs
    /// what answering costs.
    pub fn explain(&mut self, query: &Query, semantics: Semantics) -> Explain {
        self.read(query, |engine| engine.explain(query, semantics))
    }

    /// The recomputing specification path for query answering: evaluates
    /// through the string-space solver over a freshly normalized evaluation
    /// graph, exactly as the facade did before the id-space engine existed.
    /// The equivalence property tests pin [`SemanticWebDatabase::answer`]
    /// against this, the same way `closure()` is pinned against
    /// [`SemanticWebDatabase::closure_recomputed`].
    pub fn answer_recomputed(&self, query: &Query, semantics: Semantics) -> Graph {
        swdb_query::answer_against(query, &self.normalized_for(query), semantics)
    }

    /// The paper-defined evaluation graph of a query under the current
    /// regime, recomputed wholesale in string space: `nf(D + P)` under RDFS
    /// (`core(cl(D + P))`), `core(D + P)` under simple entailment — with
    /// `D + P` the capture-avoiding merge. Premise-free queries drop the
    /// `+ P`.
    fn normalized_for(&self, query: &Query) -> NormalizedDatabase {
        let stored = self.state.reasoner.to_graph();
        match (self.state.regime, query.is_premise_free()) {
            (EntailmentRegime::Rdfs, true) => NormalizedDatabase::without_premise(&stored),
            (EntailmentRegime::Rdfs, false) => NormalizedDatabase::new(&stored, query),
            (EntailmentRegime::Simple, true) => {
                NormalizedDatabase::assume_normalized(swdb_normal::core(&stored))
            }
            (EntailmentRegime::Simple, false) => NormalizedDatabase::assume_normalized(
                swdb_normal::core(&stored.merge(query.premise())),
            ),
        }
    }

    /// Answers a query under union semantics (the paper's default).
    pub fn answer_union(&mut self, query: &Query) -> Graph {
        self.answer(query, Semantics::Union)
    }

    /// Answers a query under merge semantics.
    pub fn answer_merge(&mut self, query: &Query) -> Graph {
        self.answer(query, Semantics::Merge)
    }

    /// The pre-answer (list of single answers) of a query, computed through
    /// the same id paths as [`SemanticWebDatabase::answer`].
    pub fn pre_answers(&mut self, query: &Query) -> Vec<Graph> {
        self.read(query, |engine| engine.pre_answers(query))
    }

    /// Returns `true` if the query has no answer over this database. Every
    /// mechanism early-exits on the first witnessing matching instead of
    /// materializing the pre-answer.
    pub fn answer_is_empty(&mut self, query: &Query) -> bool {
        self.read(query, |engine| engine.answer_is_empty(query))
    }

    /// Answers a query and removes redundancy from the result (returns the
    /// core of the answer graph; §6.2).
    pub fn answer_without_redundancy(&mut self, query: &Query, semantics: Semantics) -> Graph {
        swdb_query::eliminate_redundancy(&self.answer(query, semantics))
    }

    // ----- containment -----

    /// Decides `q ⊑ q'` under the requested notion, delegating to
    /// `swdb-containment`.
    pub fn query_contained_in(
        q: &Query,
        q_prime: &Query,
        notion: swdb_containment::Notion,
    ) -> bool {
        swdb_containment::contained_in(q, q_prime, notion)
    }
}

impl From<Graph> for SemanticWebDatabase {
    fn from(graph: Graph) -> Self {
        SemanticWebDatabase::from_graph(graph)
    }
}

/// Renames apart every premise blank whose label also names a blank of an
/// asserted triple — the id-space counterpart of the capture avoidance in
/// [`Graph::merge`]: a premise blank is scoped to the query and must never
/// be identified with a database blank that shares its label.
///
/// The clash test is a membership test per label, not a scan of `D`: look
/// the blank up in the dictionary, then ask the closure's index for one
/// subject-position and one object-position count (a blank is never a
/// predicate; the asserted store has no object ordering). The closure's
/// blanks are `D`'s: `D ⊆ cl(D)`, and a rule concludes only vocabulary IRIs
/// and its premises' terms, of which a predicate is an IRI. A ground
/// premise touches the index not at all; a blank premise costs
/// O(premise blanks · log n), fresh candidates included.
///
/// The test asks the triples, not the append-only dictionary: the
/// dictionary remembers every label ever interned — removed triples' blanks
/// and earlier asks' fresh labels alike — while every blank evaluation
/// reaches is one of the asserted triples'. So a repeated premise picks the
/// same fresh label each time, and a label freed by a removal is no longer
/// a clash.
pub(crate) fn rename_premise_apart(premise: &Graph, reasoner: &MaterializedStore) -> Graph {
    let (closure, store) = (reasoner.closure_index(), reasoner.store());
    rename_clashing_blanks(premise, |label| {
        store.id_of(&Term::blank(label)).is_some_and(|id| {
            closure.candidate_count((Some(id), None, None)) > 0
                || closure.candidate_count((None, None, Some(id))) > 0
        })
    })
}

/// Renames every premise blank `is_stored` reports to the first
/// `label~pK` (one counter across the premise) that neither names another
/// premise blank nor is stored itself.
fn rename_clashing_blanks(premise: &Graph, is_stored: impl Fn(&str) -> bool) -> Graph {
    let theirs = premise.blank_nodes();
    let clashes: Vec<&BlankNode> = theirs.iter().filter(|b| is_stored(b.as_str())).collect();
    if clashes.is_empty() {
        return premise.clone();
    }
    let mut renaming = std::collections::BTreeMap::new();
    let mut counter = 0usize;
    for blank in clashes {
        let fresh = loop {
            let candidate = format!("{}~p{}", blank.as_str(), counter);
            counter += 1;
            if !theirs.iter().any(|b| b.as_str() == candidate) && !is_stored(&candidate) {
                break candidate;
            }
        };
        renaming.insert(blank.clone(), Term::blank(fresh));
    }
    premise.apply(&swdb_model::TermMap::from_bindings(renaming))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_hom::Variable;
    use swdb_model::{graph, rdfs, triple};
    use swdb_query::query;

    fn sample() -> SemanticWebDatabase {
        SemanticWebDatabase::from_graph(graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:creates", rdfs::DOM, "ex:Artist"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
        ]))
    }

    #[test]
    fn insert_remove_and_cache_invalidation() {
        let mut db = sample();
        assert_eq!(db.len(), 3);
        let q = query([("?X", "ex:creates", "?Y")], [("?X", "ex:creates", "?Y")]);
        assert_eq!(db.answer_union(&q).len(), 1);
        db.insert(triple("ex:Rodin", "ex:paints", "ex:TheThinker"));
        assert_eq!(
            db.answer_union(&q).len(),
            2,
            "cache must be refreshed after insert"
        );
        db.remove(&triple("ex:Rodin", "ex:paints", "ex:TheThinker"));
        assert_eq!(db.answer_union(&q).len(), 1);
    }

    #[test]
    fn regimes_change_entailment_and_answers() {
        let mut db = sample();
        let inferred = graph([("ex:Picasso", rdfs::TYPE, "ex:Artist")]);
        assert!(db.entails(&inferred), "RDFS regime sees domain typing");
        db.set_regime(EntailmentRegime::Simple);
        assert!(!db.entails(&inferred), "simple regime does not");
        let q = query(
            [("?X", rdfs::TYPE, "ex:Artist")],
            [("?X", rdfs::TYPE, "ex:Artist")],
        );
        assert!(db.answer_union(&q).is_empty());
        db.set_regime(EntailmentRegime::Rdfs);
        assert!(!db.answer_union(&q).is_empty());
    }

    #[test]
    fn incremental_closure_matches_recomputation_under_mutation() {
        let mut db = sample();
        assert_eq!(db.closure(), db.closure_recomputed());
        db.insert(triple("ex:creates", rdfs::RANGE, "ex:Artifact"));
        assert_eq!(db.closure(), db.closure_recomputed());
        assert!(db.closure_contains(&triple("ex:Guernica", rdfs::TYPE, "ex:Artifact")));
        db.remove(&triple("ex:paints", rdfs::SP, "ex:creates"));
        assert_eq!(db.closure(), db.closure_recomputed());
        assert!(!db.closure_contains(&triple("ex:Picasso", "ex:creates", "ex:Guernica")));
        db.insert_graph(&graph([
            ("ex:Artist", rdfs::SC, "ex:Person"),
            ("ex:Picasso", rdfs::TYPE, "ex:Artist"),
        ]));
        assert_eq!(db.closure(), db.closure_recomputed());
        assert!(db.closure_contains(&triple("ex:Picasso", rdfs::TYPE, "ex:Person")));
    }

    #[test]
    fn minimize_keeps_the_maintained_closure_in_step() {
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:X"),
            ("ex:b", rdfs::TYPE, "ex:C"),
        ]));
        assert!(db.minimize() > 0);
        assert_eq!(db.closure(), db.closure_recomputed());
    }

    #[test]
    fn ntriples_round_trip() {
        let db = sample();
        let text = db.to_ntriples();
        let restored = SemanticWebDatabase::from_ntriples(&text).unwrap();
        assert_eq!(restored.graph(), db.graph());
    }

    #[test]
    fn minimize_removes_redundant_blanks() {
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:X"),
        ]));
        assert!(!db.is_lean());
        let removed = db.minimize();
        assert_eq!(removed, 1);
        assert!(db.is_lean());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn closure_core_and_normal_form_are_consistent() {
        let db = sample();
        let cl = db.closure();
        assert!(db.graph().to_graph().is_subgraph_of(&cl));
        assert!(db.equivalent_to(&cl));
        let nf = db.normal_form();
        assert!(db.equivalent_to(&nf));
        assert!(swdb_normal::is_lean(&nf));
    }

    #[test]
    fn id_read_path_matches_the_recomputing_specification() {
        // The redundant blank shadow makes nf(D) a proper subgraph of
        // cl(D), so this exercises the core step of the evaluation index,
        // not just the closure.
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:creates", rdfs::DOM, "ex:Artist"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
            ("ex:a", "ex:p", "ex:b"),
            ("_:N", "ex:p", "ex:b"),
        ]));
        let queries = [
            query([("?X", "ex:creates", "?Y")], [("?X", "ex:creates", "?Y")]),
            query([("?X", "ex:p", "?Y")], [("?X", "ex:p", "?Y")]),
            query([("?X", "?P", "?Y")], [("?X", "?P", "?Y")]),
            query(
                [("?X", rdfs::TYPE, "ex:Artist")],
                [("?X", rdfs::TYPE, "ex:Artist")],
            ),
        ];
        for regime in [EntailmentRegime::Rdfs, EntailmentRegime::Simple] {
            db.set_regime(regime);
            for q in &queries {
                assert_eq!(
                    db.answer(q, Semantics::Union),
                    db.answer_recomputed(q, Semantics::Union),
                    "union answers must be identical under {regime:?} for {q}"
                );
                assert!(
                    swdb_model::isomorphic(
                        &db.answer(q, Semantics::Merge),
                        &db.answer_recomputed(q, Semantics::Merge),
                    ),
                    "merge answers must be isomorphic under {regime:?} for {q}"
                );
            }
        }
    }

    #[test]
    fn unknown_body_constants_short_circuit_to_empty_answers() {
        let mut db = sample();
        let q = query(
            [("?X", "ex:neverSeen", "?Y")],
            [("?X", "ex:neverSeen", "?Y")],
        );
        assert!(db.answer_union(&q).is_empty());
        assert!(db.pre_answers(&q).is_empty());
        assert!(db.answer_is_empty(&q));
    }

    #[test]
    fn premise_queries_run_through_the_overlay_under_rdfs() {
        // The §4 running example: all relatives of Peter, knowing son ⊑
        // relative. The premise schema triple must fire against the stored
        // data triple in the premise's fork — nothing is committed.
        let mut db = SemanticWebDatabase::from_graph(graph([("ex:John", "ex:son", "ex:Peter")]));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?X", "ex:relative", "ex:Peter")]),
            swdb_hom::pattern_graph([("?X", "ex:relative", "ex:Peter")]),
            graph([("ex:son", rdfs::SP, "ex:relative")]),
        )
        .unwrap();
        let answers = db.answer_union(&q);
        assert!(answers.contains(&triple("ex:John", "ex:relative", "ex:Peter")));
        assert!(!db.answer_is_empty(&q));
        // The overlaid evaluation never perturbed the durable state: the
        // premise-free read path and the closure are exactly as before.
        assert!(!db.closure_contains(&triple("ex:John", "ex:relative", "ex:Peter")));
        let premise_free = query(
            [("?X", "ex:relative", "ex:Peter")],
            [("?X", "ex:relative", "ex:Peter")],
        );
        assert!(db.answer_union(&premise_free).is_empty());
    }

    #[test]
    fn overlaid_premise_queries_leave_the_evaluation_index_bit_identical() {
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
            ("ex:a", "ex:p", "_:X"),
        ]));
        for regime in [EntailmentRegime::Rdfs, EntailmentRegime::Simple] {
            db.set_regime(regime);
            let before = db.evaluation_graph();
            let asserted: Vec<IdTriple> = db.graph().iter_ids().collect();
            let closure = db.reasoner().closure_index().clone();
            let terms = db.graph().dictionary().len();
            let q = swdb_query::Query::with_premise(
                swdb_hom::pattern_graph([("?X", rdfs::TYPE, "ex:Artist")]),
                swdb_hom::pattern_graph([("?X", rdfs::TYPE, "ex:Artist")]),
                graph([
                    ("ex:creates", rdfs::DOM, "ex:Artist"),
                    ("ex:a", "ex:p", "_:X"),
                    ("ex:extra", "ex:p", "ex:b"),
                ]),
            )
            .unwrap();
            let _ = db.answer(&q, Semantics::Union);
            let _ = db.pre_answers(&q);
            let _ = db.answer_is_empty(&q);
            assert_eq!(
                db.evaluation_graph(),
                before,
                "{regime:?}: the published evaluation graph changed under an overlaid query"
            );
            // The fork writes the premise into the asserted and closure
            // indexes and its terms into a dictionary extension: all forks.
            let after: Vec<IdTriple> = db.graph().iter_ids().collect();
            assert_eq!(after, asserted, "{regime:?}: the asserted set");
            assert_eq!(db.reasoner().closure_index(), &closure, "{regime:?}");
            assert_eq!(db.graph().dictionary().len(), terms, "{regime:?}");
        }
    }

    #[test]
    fn premise_paths_agree_with_the_recomputing_specification() {
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
            ("ex:u", "ex:q", "ex:a"),
            ("ex:u", "ex:q", "ex:c"),
            ("ex:c", "ex:t", "ex:s"),
        ]));
        let queries = [
            // Example 5.10's shape (simple query, ground premise).
            swdb_query::Query::with_premise(
                swdb_hom::pattern_graph([("?X", "ex:p", "?Y")]),
                swdb_hom::pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
                graph([("ex:a", "ex:t", "ex:s"), ("ex:b", "ex:t", "ex:s")]),
            )
            .unwrap(),
            // RDFS vocabulary in the premise.
            swdb_query::Query::with_premise(
                swdb_hom::pattern_graph([("?X", "ex:creates", "?Y")]),
                swdb_hom::pattern_graph([("?X", "ex:creates", "?Y")]),
                graph([("ex:sketches", rdfs::SP, "ex:creates")]),
            )
            .unwrap(),
            // A blank-bearing premise (overlay path in both regimes).
            swdb_query::Query::with_premise(
                swdb_hom::pattern_graph([("?X", "ex:q", "?Y")]),
                swdb_hom::pattern_graph([("?X", "ex:q", "?Y")]),
                graph([("ex:w", "ex:q", "_:P")]),
            )
            .unwrap(),
        ];
        for regime in [EntailmentRegime::Rdfs, EntailmentRegime::Simple] {
            db.set_regime(regime);
            for q in &queries {
                for semantics in [Semantics::Union, Semantics::Merge] {
                    let id = db.answer(q, semantics);
                    let spec = db.answer_recomputed(q, semantics);
                    assert!(
                        swdb_model::isomorphic(&id, &spec),
                        "{regime:?}/{semantics:?}: {id} vs {spec} for {q}"
                    );
                }
                assert_eq!(
                    db.answer_is_empty(q),
                    db.answer_recomputed(q, Semantics::Union).is_empty(),
                    "{regime:?}: emptiness diverged for {q}"
                );
            }
        }
    }

    #[test]
    fn ground_simple_premises_take_the_overlay() {
        let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        db.set_metrics_level(MetricsLevel::Counters);
        db.insert(triple("ex:u", "ex:q", "ex:a"));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?X", "ex:p", "?Y")]),
            swdb_hom::pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
            graph([("ex:a", "ex:t", "ex:s")]),
        )
        .unwrap();
        assert_eq!(db.explain(&q, Semantics::Union).mechanism, "overlay");
        let answers = db.answer_union(&q);
        assert!(answers.contains(&triple("ex:u", "ex:p", "ex:a")));
        assert_eq!(answers.len(), 1);
        assert_eq!(
            db.metrics().snapshot().counter("overlay_cache_misses"),
            1,
            "one fork, built by the first read and reused by the rest"
        );
        assert!(!db.answer_is_empty(&q));
    }

    #[test]
    fn a_premise_that_makes_a_stored_blank_redundant_is_answered_exactly() {
        // The premise triple makes the stored blank redundant in
        // nf(D + P) = {(n0, p0, n1)}, though the union of Ω_q over core(D)
        // (Proposition 5.9) would still match (n0, p0, _:B0).
        let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        db.insert(triple("ex:n0", "ex:p0", "_:B0"));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?X", "ex:p0", "?Y")]),
            swdb_hom::pattern_graph([("?X", "ex:p0", "?Y")]),
            graph([("ex:n0", "ex:p0", "ex:n1")]),
        )
        .unwrap();
        let spec = db.answer_recomputed(&q, Semantics::Union);
        assert_eq!(spec, graph([("ex:n0", "ex:p0", "ex:n1")]));
        let answer = db.answer(&q, Semantics::Union);
        assert!(swdb_model::isomorphic(&answer, &spec), "{answer} vs {spec}");
        let pinned = db.publish().answer(&q, Semantics::Union).expect("answered");
        assert!(swdb_model::isomorphic(&pinned, &spec), "the snapshot, too");
    }

    #[test]
    fn skolemized_heads_with_premises_match_the_spec_when_simple() {
        // The head blank Skolemizes over all body variables, so its Skolem
        // values come from the direct evaluation over nf(D + P).
        let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        db.insert(triple("ex:u", "ex:q", "ex:a"));
        db.insert(triple("ex:u", "ex:q", "ex:b"));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?X", "ex:p", "_:H")]),
            swdb_hom::pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
            graph([("ex:a", "ex:t", "ex:s"), ("ex:b", "ex:t", "ex:s")]),
        )
        .unwrap();
        assert_eq!(db.explain(&q, Semantics::Union).mechanism, "overlay");
        assert!(
            swdb_model::isomorphic(
                &db.answer(&q, Semantics::Union),
                &db.answer_recomputed(&q, Semantics::Union)
            ),
            "Skolemized premise answers must match the spec"
        );
    }

    #[test]
    fn constrained_premise_queries_keep_their_premise_matched_answers() {
        let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        db.insert(triple("ex:unrelated", "ex:r", "ex:z"));
        let q = swdb_query::Query::with_all(
            swdb_hom::pattern_graph([("?X", "ex:p", "?Y")]),
            swdb_hom::pattern_graph([("?X", "ex:q", "?Y")]),
            graph([("ex:a", "ex:q", "ex:b")]),
            [Variable::new("Y")].into_iter().collect(),
        )
        .unwrap();
        let answers = db.answer_union(&q);
        assert!(
            answers.contains(&triple("ex:a", "ex:p", "ex:b")),
            "a body matched in the premise alone must keep its answer: {answers}"
        );
        assert!(swdb_model::isomorphic(
            &answers,
            &db.answer_recomputed(&q, Semantics::Union)
        ));
        assert!(!db.answer_is_empty(&q));
    }

    #[test]
    fn premise_overlays_are_cached_until_a_mutation() {
        let mut db = SemanticWebDatabase::from_graph(graph([("ex:John", "ex:son", "ex:Peter")]));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?X", "ex:relative", "ex:Peter")]),
            swdb_hom::pattern_graph([("?X", "ex:relative", "ex:Peter")]),
            graph([("ex:son", rdfs::SP, "ex:relative")]),
        )
        .unwrap();
        db.set_metrics_level(MetricsLevel::Counters);
        let overlays = |db: &SemanticWebDatabase| {
            let snapshot = db.metrics().snapshot();
            (
                snapshot.counter("overlay_cache_hits"),
                snapshot.counter("overlay_cache_misses"),
            )
        };
        let _ = db.answer_union(&q);
        assert_eq!(overlays(&db), (0, 1));
        let _ = db.answer_union(&q);
        assert_eq!(overlays(&db), (1, 1), "second call hits the cache");
        db.insert(triple("ex:Mary", "ex:son", "ex:Peter"));
        let answers = db.answer_union(&q);
        assert!(answers.contains(&triple("ex:Mary", "ex:relative", "ex:Peter")));
        assert_eq!(
            overlays(&db),
            (1, 2),
            "mutations invalidate premise overlays"
        );
    }

    #[test]
    fn premise_blanks_never_capture_database_blanks() {
        // The database and the premise both use the label _:X; the premise
        // copy is a different existential and must not be identified with
        // the stored one (Graph::merge semantics).
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:a", "ex:p", "_:X"),
            ("_:X", "ex:marked", "ex:yes"),
        ]));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?W", "ex:marked", "?V")]),
            swdb_hom::pattern_graph([("ex:b", "ex:p", "?W"), ("?W", "ex:marked", "?V")]),
            graph([("ex:b", "ex:p", "_:X")]),
        )
        .unwrap();
        // The premise's _:X hangs off ex:b and is unmarked; only a captured
        // blank would make the body match.
        assert!(db.answer_union(&q).is_empty());
        assert!(
            swdb_model::isomorphic(
                &db.answer(&q, Semantics::Union),
                &db.answer_recomputed(&q, Semantics::Union)
            ),
            "capture avoidance must match the merge-based spec"
        );
    }

    #[test]
    fn a_repeated_clashing_premise_reuses_its_fresh_label() {
        // The renaming clashes against the blanks of asserted triples, not
        // against the append-only dictionary (which remembers the first
        // ask's `X~p0`): every cold re-ask picks the same fresh label, so a
        // stream of repeats interns nothing new.
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:a", "ex:p", "_:X"),
            ("_:X", "ex:marked", "ex:yes"),
            ("ex:b", "ex:p", "ex:c"),
        ]));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?S", "ex:p", "?W")]),
            swdb_hom::pattern_graph([("?S", "ex:p", "?W")]),
            graph([("ex:b", "ex:p", "_:X")]),
        )
        .unwrap();
        // The invalidating write toggles a triple over interned terms.
        let toggled = triple("ex:c", "ex:p", "ex:a");
        let mut interned = None;
        for ask in 0..20 {
            let id = db.answer(&q, Semantics::Union);
            assert!(
                swdb_model::isomorphic(&id, &db.answer_recomputed(&q, Semantics::Union)),
                "ask {ask}: {id}"
            );
            let terms = db.reasoner().store().dictionary().len();
            assert_eq!(*interned.get_or_insert(terms), terms, "ask {ask} interned");
            if !db.remove(&toggled) {
                db.insert(toggled.clone());
            }
            assert_eq!(db.metrics().snapshot().counter("overlay_cache_hits"), 0);
        }
    }

    /// The reference the probes replaced: one walk over the asserted
    /// triples (not the closure the probes ask) collects their blank ids,
    /// and a label clashes when its id is among them.
    fn rename_premise_apart_by_walk(premise: &Graph, stored: &TripleStore) -> Graph {
        let dictionary = stored.dictionary();
        let mine: std::collections::BTreeSet<swdb_store::TermId> = stored
            .iter_ids()
            .flat_map(|(s, _, o)| [s, o])
            .filter(|&id| dictionary.is_blank(id))
            .collect();
        rename_clashing_blanks(premise, |label| {
            let id = dictionary.id_of(&Term::blank(label));
            id.is_some_and(|id| mine.contains(&id))
        })
    }

    /// Store terms: blanks the premise's labels clash with, and fresh
    /// candidates (`B0~p0`, …) that may themselves be asserted.
    const STORED_TERMS: [&str; 8] = [
        "ex:n0", "ex:n1", "_:B0", "_:B1", "_:B2", "_:B0~p0", "_:B1~p0", "_:B0~p1",
    ];
    /// Premise subjects: clashing or not depending on the store, `_:P`
    /// never, `_:B0~p0` a premise blank that is also `_:B0`'s first
    /// candidate.
    const PREMISE_SUBJECTS: [&str; 5] = ["ex:n0", "_:B0", "_:B1", "_:P", "_:B0~p0"];
    /// Stored predicates: two plain ones, and three RDFS ones whose rules
    /// move stored blanks between positions in the closure.
    const PREDICATES: [&str; 5] = ["ex:p0", "ex:p1", rdfs::TYPE, rdfs::SC, rdfs::SP];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn probing_renames_premises_exactly_as_the_walk_did(
            stored in proptest::collection::vec((0usize..8, 0usize..5, 0usize..8), 0..12),
            removed in proptest::collection::vec(0usize..12, 0..6),
            premise in proptest::collection::vec((0usize..5, 0usize..2, 0usize..2), 0..=3),
        ) {
            let mut store = MaterializedStore::new();
            let triples: Vec<Triple> = stored
                .iter()
                .map(|&(s, p, o)| triple(STORED_TERMS[s], PREDICATES[p], STORED_TERMS[o]))
                .collect();
            for t in &triples {
                store.insert(t);
            }
            // Removed triples leave their blanks in the dictionary with no
            // asserted triple mentioning them.
            for &at in &removed {
                if let Some(t) = triples.get(at) {
                    store.remove(t);
                }
            }
            let premise: Graph = premise
                .iter()
                .map(|&(s, p, o)| triple(PREMISE_SUBJECTS[s], PREDICATES[p], STORED_TERMS[o]))
                .collect();
            proptest::prop_assert_eq!(
                rename_premise_apart(&premise, &store),
                rename_premise_apart_by_walk(&premise, store.store()),
                "premise {} over {}",
                premise,
                store.to_graph()
            );
        }
    }

    #[test]
    fn answer_without_redundancy_is_lean() {
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
            ("_:X", "ex:q", "ex:b"),
            ("_:Y", "ex:r", "ex:b"),
        ]));
        let q = query([("?Z", "ex:p", "?U")], [("?Z", "ex:p", "?U")]);
        let raw = db.answer(&q, Semantics::Union);
        assert!(!swdb_normal::is_lean(&raw));
        let clean = db.answer_without_redundancy(&q, Semantics::Union);
        assert!(swdb_normal::is_lean(&clean));
        assert!(swdb_entailment::equivalent(&raw, &clean));
    }

    #[test]
    fn stats_reflect_the_stored_graph() {
        let db = sample();
        let stats = db.stats();
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.schema_triples, 2);
    }

    #[test]
    fn budgeted_answers_are_flagged_sound_and_recoverable() {
        use swdb_normal::CoreBudget;
        let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        db.set_metrics_level(MetricsLevel::Counters);
        // One fold-step per component: too little to prove any fold, so
        // every blank component is published uncored.
        db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
        db.insert_graph(&graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "_:Y"),
        ]));
        let q = query([("?S", "ex:p", "?O")], [("?S", "ex:p", "?O")]);
        let (answers, non_minimal) = db.answer_with_status(&q, Semantics::Union);
        assert!(
            non_minimal,
            "exhaustion must be surfaced on the answer path"
        );
        assert!(db.is_degraded());
        assert_eq!(db.uncored_components(), 2);
        assert!(db.uncored_triples() >= 2);
        assert!(db.explain(&q, Semantics::Union).non_minimal);
        // Sound: the certain answer survives, and the whole answer graph is
        // equivalent to the spec's (only redundancy lingers).
        assert!(answers.contains(&triple("ex:a", "ex:p", "ex:b")));
        let spec = db.answer_recomputed(&q, Semantics::Union);
        assert!(spec.is_subgraph_of(&answers), "superset, never a subset");
        assert!(swdb_entailment::simple_equivalent(&answers, &spec));
        let snap = db.metrics().snapshot();
        assert!(snap.degraded.core_budget_exhausted >= 2);
        assert_eq!(snap.degraded.uncored_components, 2);
        assert!(db.metrics_snapshot().contains("\"uncored_components\": 2"));
        // Lifting the budget and retrying fully recovers the true core.
        db.set_core_budget(CoreBudgetMode::Unlimited);
        assert!(db.refresh_degraded());
        assert!(!db.is_degraded());
        let (recovered, non_minimal) = db.answer_with_status(&q, Semantics::Union);
        assert!(!non_minimal);
        assert!(!db.explain(&q, Semantics::Union).non_minimal);
        assert!(swdb_model::isomorphic(&recovered, &spec));
    }

    #[test]
    fn a_restore_builds_the_same_state_at_every_worker_ceiling() {
        use swdb_normal::CoreBudget;
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:X"),
            ("ex:b", rdfs::TYPE, "ex:C"),
        ]));
        db.publish();
        // One fold-step per component: the component inserted now cannot
        // prove its fold and is published uncored; `_:X`'s stays folded.
        db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
        db.insert_graph(&graph([
            ("ex:c", "ex:q", "_:Y"),
            ("_:Y", "ex:r", "_:Z"),
            ("ex:c", "ex:q", "_:W"),
            ("_:W", "ex:r", "_:Z"),
        ]));
        // A state's segment, decoded.
        let image = |state: &State| {
            let bytes = swdb_durable::snapshot::encode(&state, 0).expect("encode");
            SnapshotPayload::decode(&bytes).expect("decode").0
        };
        let payload = image(&db.state);
        let components = payload.evaluation.as_deref().expect("the engine is built");
        assert!(components.iter().any(|c| c.uncored), "one is uncored");
        assert!(
            components
                .iter()
                .any(|c| !c.uncored && c.survivors.len() < c.full.len()),
            "one is folded"
        );
        let [one, four] =
            [1, 4].map(|threads| State::restore(&payload, threads, &Metrics::default()));
        assert_eq!(image(&one), payload);
        assert_eq!(image(&four), payload);
        let (a, b) = (one.evaluation().index(), four.evaluation().index());
        assert!(a.iter().eq(b.iter()));
        assert!(four.evaluation().is_degraded());
    }

    #[test]
    fn a_panicking_restore_job_reaches_the_caller_as_that_panic() {
        for threads in [1, 4] {
            let mut ran = false;
            let jobs: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(|| ran = true),
                Box::new(|| std::panic::panic_any("job 1 failed")),
                Box::new(|| ()),
            ];
            let run = std::panic::AssertUnwindSafe(|| run_jobs(threads, jobs));
            let panic = std::panic::catch_unwind(run).expect_err("the job panicked");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"job 1 failed"));
            assert!(ran, "the job before it ran at ceiling {threads}");
        }
    }

    #[test]
    fn budgeted_minimize_degrades_gracefully_and_recovers() {
        use swdb_normal::CoreBudget;
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:X"),
        ]));
        db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
        assert_eq!(
            db.minimize_with_status(),
            (0, false),
            "budget too small to prove the fold, and reported incomplete"
        );
        // The asserted-set core was built for the call and dropped: nothing
        // is left degraded.
        assert!(!db.is_degraded());
        assert_eq!(db.uncored_triples(), 0);
        db.set_core_budget(CoreBudgetMode::Unlimited);
        assert_eq!(db.minimize_with_status(), (1, true));
        assert!(db.is_lean());
        assert_eq!(db.closure(), db.closure_recomputed());
    }

    #[test]
    fn overlay_queries_report_non_minimal_under_budget() {
        use swdb_normal::CoreBudget;
        let mut db = SemanticWebDatabase::from_graph(graph([("ex:a", "ex:p", "ex:b")]));
        db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
        // A blank-bearing premise routes to the overlay in every regime; its
        // scoped core search exhausts the one-step slice immediately.
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?S", "ex:p", "?O")]),
            swdb_hom::pattern_graph([("?S", "ex:p", "?O")]),
            graph([("ex:a", "ex:p", "_:P")]),
        )
        .unwrap();
        let (answers, non_minimal) = db.answer_with_status(&q, Semantics::Union);
        assert!(non_minimal, "overlay exhaustion must reach the caller");
        let explain = db.explain(&q, Semantics::Union);
        assert_eq!(explain.mechanism, "overlay");
        assert!(explain.non_minimal);
        assert!(explain.to_json().contains("\"non_minimal\": true"));
        assert!(answers.contains(&triple("ex:a", "ex:p", "ex:b")));
        assert!(swdb_model::isomorphic(
            &swdb_query::eliminate_redundancy(&answers),
            &db.answer_recomputed(&q, Semantics::Union),
        ));
        // The published evaluation graph itself is benign and stays exact:
        // premise-free queries are not flagged.
        let pf = query([("?S", "ex:p", "?O")], [("?S", "ex:p", "?O")]);
        assert!(!db.explain(&pf, Semantics::Union).non_minimal);
    }

    #[test]
    fn containment_is_reachable_through_the_facade() {
        let q = query(
            [("?A", "ex:paints", "?Y")],
            [
                ("?A", "ex:paints", "?Y"),
                ("?Y", "ex:exhibited", "ex:Uffizi"),
            ],
        );
        let q_prime = query([("?A", "ex:paints", "?Y")], [("?A", "ex:paints", "?Y")]);
        assert!(SemanticWebDatabase::query_contained_in(
            &q,
            &q_prime,
            swdb_containment::Notion::Standard
        ));
    }
}
