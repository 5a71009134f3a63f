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
//! One chain and **no string state**: the asserted set `D` (the reasoner's
//! dictionary-encoded [`swdb_store::TripleStore`], the only copy) → its
//! maintained closure index ([`MaterializedStore`]) → the core engines
//! ([`swdb_normal::IdCoreEngine`]) → the publication slot readers pin.
//! Writes, publication, recovery and premise evaluation move ids along it.
//! Terms are decoded where a caller asks for them: an answer, `to_ntriples`,
//! `stats`, and the string-space specification methods (`entails`,
//! `closure_recomputed`, `core`, `normal_form`, `is_lean`,
//! `answer_recomputed`), which build a [`Graph`] of `D` when *they* are called.
//!
//! ## The read path
//!
//! Every read — `answer`, `pre_answers`, `answer_is_empty`, `explain`, here
//! and on a pinned [`crate::publish::PublishedSnapshot`] — is one
//! [`swdb_query::QueryEngine`] built over the substrate the dispatch
//! (`mechanism`) picks. Premise-free queries — the hot path — run
//! **entirely in id space**: the body is compiled to `TermId` patterns
//! against the store dictionary (a body constant that was never interned
//! short-circuits to zero answers), planned once per query shape, and
//! joined directly over a cached SPO/POS/OSP [`swdb_store::IdIndex`] of the
//! evaluation graph. The evaluation graph keeps the paper's semantics:
//! `nf(D) = core(cl(D))` under RDFS, `core(D)` under simple entailment —
//! answers stay invariant under database equivalence (Theorem 4.6).
//!
//! The whole pipeline behind that index is **incremental**. `cl(D)` is the
//! maintained materialization of `swdb-reason` (semi-naive insert, DRed
//! delete — never a recomputed fixpoint), and the `core(·)` step is the
//! [`swdb_normal::IdCoreEngine`]: ground closure triples pass straight
//! through (a map fixes URIs, so they always survive the core), blank
//! triples are partitioned into connected components and cored by local
//! id-space retraction searches. A mutation feeds the engine the exact
//! closure delta reported by [`MaterializedStore`]: a ground delta is pure
//! `O(log n)` index maintenance, a blank-touching delta re-cores only the
//! affected component(s). Nothing is dropped and rebuilt; the cold build
//! (first query) itself runs component-by-component in id space.
//!
//! Queries **with premises** run through the same engine, by one of two
//! mechanisms selected per query:
//!
//! * **Premise-free expansion** (simple regime, ground premise, and an
//!   evaluation graph without blank triples): the query is rewritten into
//!   the union `Ω_q` of premise-free queries (Proposition 5.9,
//!   [`swdb_query::premise_free_expansion`]) — cached per premise query —
//!   and every member joins the *same* cached evaluation index; single
//!   answers dedupe across members in id space.
//! * **Premise overlay** (everything else): the premise is a *hypothetical
//!   write*, committed into a fork of the maintained state. Its closure
//!   growth `cl(D + P) − cl(D)` is computed by committing the premise into
//!   a fork of the closure index ([`MaterializedStore::preview_insert`]),
//!   and the incremental core engine commits that delta into a fork of
//!   the evaluation index with the insert half of its own delta refresh —
//!   the same function a commit runs — dropping the component state a
//!   commit would have kept ([`swdb_normal::EvalOverlay`]). The query —
//!   planned like any other — joins the fork, which is the index a commit
//!   would publish. A fork is a clone of the persistent index: it shares
//!   every chunk the premise leaves alone, so the published evaluation
//!   index is bit-identical before and after, and the fork is cached per
//!   premise, so repeated queries sharing a premise pay for the delta once
//!   until the next mutation.
//!
//! The string-space evaluator remains the executable specification via
//! [`SemanticWebDatabase::answer_recomputed`] — `nf(D + P)` normalized
//! wholesale per call — which the equivalence property tests pin both id
//! mechanisms against (up to isomorphism: the core is unique only up to
//! iso, Theorem 3.10).
//!
//! ## The write path
//!
//! Mutations keep every maintained structure in step without recomputing
//! anything: a mutation runs through [`MaterializedStore`] (semi-naive
//! insert propagation, DRed delete), and the exact closure delta it reports
//! feeds the evaluation engine and the asserted-store core.
//!
//! The propagation itself has **one schedule**, `swdb_reason::parallel`'s
//! rounds: each round partitions the frontier by the `(rule, hypothesis)`
//! paths its predicates wake, joins the shards against an immutable
//! snapshot of the closure index, and commits the merged, deduplicated
//! conclusions single-threadedly as the next frontier. The DRed delete's
//! overdeletion cascade and the premise preview are the same rounds with a
//! different filter and commit target. [`SemanticWebDatabase::set_threads`]
//! (default: the machine's available parallelism) is the **worker
//! ceiling** of a round — a large round spawns at most that many scoped
//! workers, `1` never spawns, and small rounds (single-triple edits) run
//! inline regardless, so point-write latency never pays a spawn.
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
//! [`SemanticWebDatabase::metrics_snapshot`].
//! [`SemanticWebDatabase::refresh_degraded`] retries every uncored
//! component with a fresh slice at a quiet moment, resuming from the
//! published survivors, and is guaranteed to fully recover under
//! [`CoreBudgetMode::Unlimited`]. The default [`CoreBudgetMode::Auto`]
//! budgets only components over the oversized-blank warning threshold, so
//! benign workloads are bit-identical to the unbudgeted engine.

use std::io;
use std::path::Path;
use std::sync::Arc;

use swdb_durable::{
    Durability, Io, SnapshotPayload, StdIo, WalRecord, DEFAULT_WAL_COMPACT_THRESHOLD,
};
use swdb_model::{BlankNode, Graph, Term, Triple};
use swdb_normal::{CoreBudget, CoreBudgetMode, EvalOverlay, IdCoreEngine};
use swdb_obs::{Counter, Gauge, Hist, Metrics, MetricsLevel};
use swdb_query::{
    AnswerSet, Explain, Mechanism, NormalizedDatabase, Query, QueryEngine, Semantics,
};
use swdb_reason::{ClosureDelta, MaterializedStore};
use swdb_store::{GraphStats, IdTriple, TripleStore};

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

/// How many distinct premises keep a cached overlay between mutations.
const PREMISE_CACHE_CAPACITY: usize = 8;

/// Worst-case budget for the Proposition 5.9 expansion: the subset
/// enumeration visits at most `Σ_{R ⊆ B} |P|^|R| = (|P| + 1)^|B|` maps, so
/// gating on that bound keeps the rewriting cheap *and* guarantees no
/// subset's map enumeration can hit the solver's
/// [`swdb_hom::DEFAULT_SOLUTION_LIMIT`] cap (which would silently truncate
/// the expansion). Queries over budget take the premise overlay, which is
/// linear in the delta.
const EXPANSION_MAP_BUDGET: u64 = 1 << 19;

/// The default worker ceiling for closure maintenance:
/// [`std::thread::available_parallelism`]. Every count maintains the same
/// closure, so the choice is purely a throughput knob.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

/// A semantic-web database: an RDF graph with an entailment regime and the
/// derived structures needed to answer queries.
#[derive(Debug)]
pub struct SemanticWebDatabase {
    regime: EntailmentRegime,
    /// The asserted set `D` (the dictionary-encoded store, its only copy)
    /// plus its incrementally maintained `RDFS-cl(G)` (`swdb-reason`). Every
    /// mutation updates both in place — semi-naive propagation on insert,
    /// DRed on remove — so closure reads never recompute a fixpoint.
    reasoner: MaterializedStore,
    /// The incremental core engine over the evaluation graph queries run
    /// against (`nf(D)` under RDFS, `core(D)` under simple entailment),
    /// encoded against the store dictionary's ids. Built lazily on first
    /// use, then *maintained* under the closure deltas of every mutation —
    /// neither the closure fixpoint nor the core is ever recomputed for it.
    evaluation: Option<IdCoreEngine>,
    /// Cached premise forks, keyed by premise graph: the evaluation index
    /// with the premise committed into it ([`EvalOverlay`]), valid until the
    /// next mutation or regime switch. Repeated queries sharing a premise
    /// hit the cache and skip the closure preview + overlay core.
    premise_cache: Vec<(Graph, EvalOverlay)>,
    /// A second core engine over the *asserted* store, powering
    /// [`SemanticWebDatabase::minimize`] under the RDFS regime (under
    /// simple entailment the evaluation engine already cores the asserted
    /// graph). Built on first minimize, then maintained under base deltas.
    asserted_core: Option<IdCoreEngine>,
    /// Per-component budget for the NP-hard core searches (mirrored into
    /// both maintained engines; see
    /// [`SemanticWebDatabase::set_core_budget`]). Defaults from
    /// `SWDB_CORE_BUDGET` / `SWDB_CORE_BUDGET_MS`, else
    /// [`CoreBudgetMode::Auto`].
    core_budget: CoreBudgetMode,
    /// The shared observability handle (`swdb-obs`): one lock-free counter /
    /// histogram sheet threaded through the reasoner, the core engines and
    /// the query executor. Level defaults from `SWDB_METRICS`
    /// (off/counters/debug) and is `Off` — near-zero cost — unless set.
    metrics: Metrics,
    /// The attached crash-safe durability layer (`swdb-durable`): snapshots
    /// plus a write-ahead log under a data directory. `None` — the default
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
    /// The compiled plan + expansion cache (`swdb_query::plan`): join
    /// orders costed once per query shape and `Ω_q` expansions computed
    /// once per premise query, invalidated by a generation bump on every
    /// mutation, regime switch, and dictionary growth. Published snapshots
    /// get their own cache (immutable substrate — it never invalidates).
    plan_cache: swdb_query::PlanCache,
}

impl Default for SemanticWebDatabase {
    fn default() -> Self {
        SemanticWebDatabase::detached_with_metrics(Metrics::from_env())
    }
}

impl Clone for SemanticWebDatabase {
    /// Clones the in-memory database **without** the durability layer: two
    /// handles appending to one WAL would interleave their records into a
    /// history neither produced, so the clone starts detached (attach its
    /// own directory with [`SemanticWebDatabase::persist_to`]).
    fn clone(&self) -> Self {
        SemanticWebDatabase {
            regime: self.regime,
            reasoner: self.reasoner.clone(),
            evaluation: self.evaluation.clone(),
            premise_cache: self.premise_cache.clone(),
            asserted_core: self.asserted_core.clone(),
            core_budget: self.core_budget,
            metrics: self.metrics.clone(),
            durability: None,
            durability_error: None,
            // A fresh, unpublished slot: readers pinned on the original keep
            // observing the original's publications, never the clone's.
            publish_slot: Arc::new(crate::publish::PublishSlot::empty(self.metrics.clone())),
            // A fresh, empty plan cache: the clone's mutations must never
            // resurrect plans costed on the original.
            plan_cache: swdb_query::PlanCache::new(true),
        }
    }
}

impl SemanticWebDatabase {
    /// Creates an empty database under the RDFS regime.
    pub fn new() -> Self {
        SemanticWebDatabase::default()
    }

    /// The in-memory constructor behind [`Default`]: everything wired to
    /// the given metrics handle, no durability attached.
    fn detached_with_metrics(metrics: Metrics) -> Self {
        let mut reasoner = MaterializedStore::with_threads(default_threads());
        reasoner.set_metrics(metrics.clone());
        SemanticWebDatabase {
            regime: EntailmentRegime::default(),
            reasoner,
            evaluation: None,
            premise_cache: Vec::new(),
            asserted_core: None,
            core_budget: CoreBudgetMode::from_env(),
            publish_slot: Arc::new(crate::publish::PublishSlot::empty(metrics.clone())),
            metrics,
            durability: None,
            durability_error: None,
            plan_cache: swdb_query::PlanCache::new(true),
        }
    }

    // ----- durability -----

    /// Opens (creating if needed) a durable database at `dir` and recovers
    /// whatever consistent state the directory holds: the newest valid
    /// snapshot loads by pure deserialization — dictionary, base store,
    /// maintained closure and both core-engine states come back exactly as
    /// exported, with **no closure fixpoint and no core search** — and the
    /// WAL suffix committed after it replays through the same incremental
    /// delta paths a live mutation takes (counted by the
    /// `recovery_replayed_deltas` metric). A torn final WAL record — the
    /// expected signature of a crash mid-commit — is detected by checksum,
    /// truncated, and counted (`recovery_torn_tails`); everything durably
    /// acknowledged before the crash survives.
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
        let mut db = SemanticWebDatabase::detached_with_metrics(metrics.clone());
        if let Some(snapshot) = recovered.snapshot.as_ref() {
            db.restore_from_snapshot(snapshot);
        }
        // Replay the WAL suffix through the live mutation paths. The
        // durability field is still `None` here, so nothing gets re-logged.
        let replayed = recovered.wal.len() as u64;
        for record in &recovered.wal {
            db.replay(record)?;
        }
        db.metrics.count(Counter::RecoveryReplayedDeltas, replayed);
        db.durability = Some(durability);
        drop(span);
        Ok(db)
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
        durability.rotate(&self.snapshot_payload())?;
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
        if self.durability.is_none() {
            return Ok(false);
        }
        let payload = self.snapshot_payload();
        match self
            .durability
            .as_mut()
            .expect("checked above")
            .rotate(&payload)
        {
            Ok(()) => Ok(true),
            Err(e) => {
                self.detach_durability(format!("snapshot rotation failed ({e})"));
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
    /// error. `None` while healthy (or never attached).
    pub fn durability_error(&self) -> Option<&str> {
        self.durability_error.as_deref()
    }

    /// Live records in the current WAL generation (0 when detached).
    pub fn wal_records(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.wal_records())
    }

    /// Exports the complete durable image of the current state: regime,
    /// budget, the dictionary in id order, base + closure triples, and the
    /// exported state of both core engines (including per-component
    /// `uncored` flags, so degraded mode survives a reopen exactly).
    fn snapshot_payload(&self) -> SnapshotPayload {
        let store = self.reasoner.store();
        let dictionary = store.dictionary();
        let (budget_mode, budget_steps, budget_millis) = encode_budget(self.core_budget);
        SnapshotPayload {
            regime: encode_regime(self.regime),
            budget_mode,
            budget_steps,
            budget_millis,
            terms: dictionary.iter().map(|(_, t)| t.clone()).collect(),
            base: store.iter_ids().collect(),
            closure: self.reasoner.closure_index().iter().collect(),
            evaluation: self
                .evaluation
                .as_ref()
                .map(|e| e.export_state(dictionary))
                .into_iter()
                .collect(),
            asserted_core: self
                .asserted_core
                .as_ref()
                .map(|e| e.export_state(dictionary))
                .into_iter()
                .collect(),
        }
    }

    /// Rebuilds every maintained structure from a decoded snapshot — pure
    /// deserialization: the dictionary replays in id order (reproducing the
    /// exact id assignment), the closure is adopted without rule
    /// propagation, and the core engines restore from their exported
    /// component states without any retraction search.
    fn restore_from_snapshot(&mut self, snapshot: &SnapshotPayload) {
        self.regime = decode_regime(snapshot.regime);
        self.core_budget = decode_budget(
            snapshot.budget_mode,
            snapshot.budget_steps,
            snapshot.budget_millis,
        );
        let mut reasoner =
            MaterializedStore::restore(&snapshot.terms, &snapshot.base, &snapshot.closure);
        reasoner.set_threads(self.reasoner.threads());
        reasoner.set_metrics(self.metrics.clone());
        self.reasoner = reasoner;
        let dictionary = self.reasoner.store().dictionary();
        self.evaluation = snapshot.evaluation.first().map(|state| {
            IdCoreEngine::from_state(state, dictionary, self.metrics.clone(), self.core_budget)
        });
        self.asserted_core = snapshot.asserted_core.first().map(|state| {
            IdCoreEngine::from_state(state, dictionary, self.metrics.clone(), self.core_budget)
        });
        self.premise_cache.clear();
        // The dictionary was rebuilt wholesale: doom every cached plan.
        self.plan_cache.bump_generation();
    }

    /// Re-applies one WAL record through the live mutation paths (the
    /// incremental engines absorb each delta exactly as the original run's
    /// did). Only called while durability is detached, so nothing re-logs.
    fn replay(&mut self, record: &WalRecord) -> io::Result<()> {
        match record {
            WalRecord::InsertGraph(text) => {
                let graph = swdb_store::parse(text).map_err(replay_parse_error)?;
                self.insert_graph(&graph);
            }
            WalRecord::RemoveGraph(text) => {
                let graph = swdb_store::parse(text).map_err(replay_parse_error)?;
                self.remove_graph(&graph);
            }
            WalRecord::SetRegime(wire) => self.set_regime(decode_regime(*wire)),
            WalRecord::SetBudget {
                mode,
                steps,
                millis,
            } => {
                self.set_core_budget(decode_budget(*mode, *steps, *millis));
            }
            WalRecord::RefreshDegraded => {
                self.refresh_degraded();
            }
        }
        Ok(())
    }

    /// Durably commits one mutation's records (a single append + fsync),
    /// then rotates if the WAL has outgrown the compaction threshold. Any
    /// IO error fail-stops the layer: it detaches, the error is recorded,
    /// and the in-memory database continues.
    fn log_wal(&mut self, records: &[WalRecord]) {
        let Some(durability) = self.durability.as_mut() else {
            return;
        };
        if let Err(e) = durability.commit(records) {
            self.detach_durability(format!("WAL commit failed ({e})"));
            return;
        }
        if self
            .durability
            .as_ref()
            .is_some_and(|d| d.needs_compaction())
        {
            let payload = self.snapshot_payload();
            if let Err(e) = self
                .durability
                .as_mut()
                .expect("checked above")
                .rotate(&payload)
            {
                self.detach_durability(format!("WAL compaction rotation failed ({e})"));
            }
        }
    }

    /// The fail-stop transition: drop the layer, record why, and zero the
    /// compaction gauge so the metrics warning stops firing for a WAL
    /// nobody appends to anymore.
    fn detach_durability(&mut self, why: String) {
        self.durability = None;
        self.durability_error = Some(format!(
            "{why}; durability detached — this database continues in memory only, \
             and the data directory recovers to its last durable state on the \
             next open"
        ));
        self.metrics.count(Counter::DurabilityDetached, 1);
        self.metrics.gauge_set(Gauge::WalCompactThreshold, 0);
        self.metrics.gauge_set(Gauge::WalLiveRecords, 0);
    }

    /// Sets the worker ceiling for the write path (clamped to at least 1):
    /// a large round of closure propagation or DRed cascade spawns at most
    /// this many workers; `1` never spawns, and small rounds stay inline at
    /// any value. The maintained closure — and with it every published
    /// read structure — is identical for every count, so no cache is
    /// invalidated here.
    pub fn set_threads(&mut self, threads: usize) {
        self.reasoner.set_threads(threads);
    }

    /// The configured worker ceiling (defaults to the machine's available
    /// parallelism).
    pub fn threads(&self) -> usize {
        self.reasoner.threads()
    }

    /// Sets the per-component budget for the NP-hard core searches (the
    /// retraction searches behind `core(·)`), propagated to both maintained
    /// engines. A component whose budget slice runs out is **published
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
    ///
    /// Cached premise forks are invalidated: a fork computed under a
    /// different budget may carry a different `non_minimal` flag.
    pub fn set_core_budget(&mut self, mode: CoreBudgetMode) {
        self.core_budget = mode;
        self.premise_cache.clear();
        if let Some(engine) = self.evaluation.as_mut() {
            engine.set_core_budget(mode);
        }
        if let Some(engine) = self.asserted_core.as_mut() {
            engine.set_core_budget(mode);
        }
        if self.durability.is_some() {
            let (mode, steps, millis) = encode_budget(mode);
            self.log_wal(&[WalRecord::SetBudget {
                mode,
                steps,
                millis,
            }]);
        }
    }

    /// The configured core-search budget mode.
    pub fn core_budget(&self) -> CoreBudgetMode {
        self.core_budget
    }

    /// `true` while any maintained engine holds a component published
    /// uncored (degraded mode): the evaluation graph — and with it
    /// merge-semantics answers — or the asserted-store core behind
    /// [`SemanticWebDatabase::minimize`] is a sound but possibly
    /// non-minimal superset of the true core. Answers stay sound and
    /// complete either way; see [`SemanticWebDatabase::refresh_degraded`].
    pub fn is_degraded(&self) -> bool {
        self.evaluation.as_ref().is_some_and(|e| e.is_degraded())
            || self.asserted_core.as_ref().is_some_and(|e| e.is_degraded())
    }

    /// Components currently published uncored, across both maintained
    /// engines.
    pub fn uncored_components(&self) -> usize {
        self.evaluation
            .as_ref()
            .map_or(0, |e| e.uncored_components())
            + self
                .asserted_core
                .as_ref()
                .map_or(0, |e| e.uncored_components())
    }

    /// Published triples inside uncored components — the portion of the
    /// maintained cores that may be non-minimal.
    pub fn uncored_triples(&self) -> usize {
        self.evaluation.as_ref().map_or(0, |e| e.uncored_triples())
            + self
                .asserted_core
                .as_ref()
                .map_or(0, |e| e.uncored_triples())
    }

    /// The quiet-moment retry of degraded mode: every uncored component of
    /// every maintained engine gets a fresh budget slice and resumes its
    /// core search from the published survivors (monotone — applied folds
    /// are genuine retractions, so no work is lost). Returns `true` when no
    /// component remains uncored; guaranteed to fully recover under
    /// [`CoreBudgetMode::Unlimited`]. Cached premise overlays are
    /// invalidated because the published evaluation index may shrink.
    pub fn refresh_degraded(&mut self) -> bool {
        self.premise_cache.clear();
        // The published evaluation index may shrink under a resumed core
        // search, invalidating costed cardinalities.
        self.plan_cache.bump_generation();
        let dictionary = self.reasoner.store().dictionary();
        let mut recovered = true;
        if let Some(engine) = self.evaluation.as_mut() {
            recovered &= engine.recore_uncored(dictionary);
        }
        if let Some(engine) = self.asserted_core.as_mut() {
            recovered &= engine.recore_uncored(dictionary);
        }
        if self.durability.is_some() {
            // Logged so a replay repeats the retry at the same point in the
            // mutation sequence: under a step-count budget that makes the
            // recovered degraded flags deterministic (wall-clock budgets
            // remain inherently run-dependent).
            self.log_wal(&[WalRecord::RefreshDegraded]);
        }
        recovered
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

    /// Atomically publishes the current evaluation state as an immutable
    /// [`PublishedSnapshot`](crate::publish::PublishedSnapshot) and returns
    /// it. The snapshot carries a clone of the dictionary and *shares* the
    /// evaluation `IdIndex` (built first if cold; the clone copies only the
    /// index's root fence arrays) — ids, nothing is decoded — the
    /// epoch (monotonically increasing from 1), the store's triple count,
    /// and the degraded flags in force at publication time
    /// (`non_minimal` from the core budget, the fail-stop record of a
    /// detached durability layer). Every
    /// [`SnapshotReader`](crate::publish::SnapshotReader)
    /// handle on this database observes the new epoch on its next pin;
    /// already-pinned snapshots are untouched — that is the MVCC contract:
    /// a pinned snapshot stays bit-identical however the writer mutates,
    /// and a reader answering on one never blocks `insert`/`remove`.
    ///
    /// Publication is **explicit**: mutations do not republish on their
    /// own (a bulk load would otherwise publish once per triple). The
    /// serving layer (`swdb-server`) publishes once per write request.
    pub fn publish(&mut self) -> Arc<crate::publish::PublishedSnapshot> {
        let metrics = self.metrics.clone();
        let span = metrics.span(Hist::SpanSnapshotPublishNs);
        self.ensure_evaluation();
        let engine = self.evaluation.as_ref().expect("just ensured");
        let epoch = self.publish_slot.pin().epoch() + 1;
        let snapshot = Arc::new(crate::publish::PublishedSnapshot::new(
            epoch,
            self.regime,
            self.reasoner.store().len(),
            engine.is_degraded(),
            engine.component_count() == 0,
            self.durability_error.clone(),
            self.reasoner.store().dictionary().clone(),
            engine.index().clone(),
            self.metrics.clone(),
            // The snapshot is immutable, so its plans stay valid for its
            // whole lifetime: a fresh cache, never invalidated.
            swdb_query::PlanCache::new(true),
        ));
        self.publish_slot.swap(Arc::clone(&snapshot));
        self.metrics.count(Counter::SnapshotsPublished, 1);
        self.metrics.gauge_set(Gauge::PublishedEpoch, epoch);
        drop(span);
        snapshot
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
    pub fn published(&self) -> Arc<crate::publish::PublishedSnapshot> {
        self.publish_slot.pin()
    }

    /// Creates an empty database under the given regime.
    pub fn with_regime(regime: EntailmentRegime) -> Self {
        SemanticWebDatabase {
            regime,
            ..SemanticWebDatabase::default()
        }
    }

    /// Wraps an existing graph. The initial closure materialization is one
    /// frontier-batched fixpoint, parallel-sharded when the configured
    /// thread ceiling allows.
    pub fn from_graph(graph: Graph) -> Self {
        let mut db = SemanticWebDatabase::default();
        db.reasoner.insert_graph(&graph);
        db
    }

    /// Loads a database from the N-Triples-style syntax of
    /// [`swdb_store::ntriples`].
    pub fn from_ntriples(text: &str) -> Result<Self, swdb_store::ParseError> {
        Ok(SemanticWebDatabase::from_graph(swdb_store::parse(text)?))
    }

    /// Serializes the asserted triples (decoded into a [`Graph`] for the call).
    pub fn to_ntriples(&self) -> String {
        swdb_store::serialize(&self.reasoner.to_graph())
    }

    /// The entailment regime in force.
    pub fn regime(&self) -> EntailmentRegime {
        self.regime
    }

    /// Switches the entailment regime (invalidates the normalization cache
    /// and the cached premise overlays; the asserted-store core used by
    /// `minimize` is regime-independent and survives).
    pub fn set_regime(&mut self, regime: EntailmentRegime) {
        if self.regime != regime {
            self.regime = regime;
            self.evaluation = None;
            self.premise_cache.clear();
            // Plans were costed against the old regime's evaluation index;
            // expansions are regime-gated. Doom both.
            self.plan_cache.bump_generation();
            if self.durability.is_some() {
                self.log_wal(&[WalRecord::SetRegime(encode_regime(regime))]);
            }
        }
    }

    /// The asserted set (the raw assertions, not their closure), borrowed:
    /// `contains`, `len` and `iter_ids` decode nothing, `to_graph()` decodes
    /// every triple into an owned [`Graph`].
    pub fn graph(&self) -> &TripleStore {
        self.reasoner.store()
    }

    /// Number of asserted triples.
    pub fn len(&self) -> usize {
        self.reasoner.store().len()
    }

    /// Returns `true` if no triple is asserted.
    pub fn is_empty(&self) -> bool {
        self.reasoner.store().is_empty()
    }

    /// Inserts a triple. Returns `true` if it was new. The maintained
    /// closure is extended by delta propagation, not recomputed, and the
    /// cached evaluation index absorbs the closure delta in place.
    pub fn insert(&mut self, triple: impl Into<Triple>) -> bool {
        let triple = triple.into();
        let delta = self.reasoner.insert_with_delta(&triple);
        let added = !delta.base.is_empty();
        if added {
            self.feed_delta(&delta, false);
            if self.durability.is_some() {
                let text = swdb_store::serialize(&std::iter::once(triple).collect());
                self.log_wal(&[WalRecord::InsertGraph(text)]);
            }
        }
        added
    }

    /// Removes a triple (`remove_graph` of one); `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.remove_graph(&std::iter::once(triple.clone()).collect()) == 1
    }

    /// Removes every triple of a graph, returning how many were present —
    /// the one removal path (`remove`, `minimize`, WAL replay, `/remove`).
    /// Per triple, the maintained closure retracts exactly the consequences
    /// that lost support (DRed) and the engines absorb the delta in place;
    /// the call commits **one** WAL record holding the triples that were
    /// present (none → no record): a crash recovers all removed or none.
    pub fn remove_graph(&mut self, graph: &Graph) -> usize {
        let mut removed = Graph::new();
        for triple in graph.iter() {
            let delta = self.reasoner.remove_with_delta(triple);
            if !delta.base.is_empty() {
                self.feed_delta(&delta, true);
                removed.insert(triple.clone());
            }
        }
        if self.durability.is_some() && !removed.is_empty() {
            self.log_wal(&[WalRecord::RemoveGraph(swdb_store::serialize(&removed))]);
        }
        removed.len()
    }

    /// Inserts every triple of a graph. The maintained closure is extended
    /// in one frontier-batched semi-naive round
    /// ([`MaterializedStore::insert_graph`]) rather than a propagation
    /// fixpoint per triple, so bulk loads amortize the index probes; the
    /// evaluation index absorbs the whole batch as one delta.
    pub fn insert_graph(&mut self, graph: &Graph) {
        let delta = self.reasoner.insert_graph_with_delta(graph);
        self.feed_delta(&delta, false);
        if self.durability.is_some() && !graph.is_empty() {
            self.log_wal(&[WalRecord::InsertGraph(swdb_store::serialize(graph))]);
        }
    }

    /// Routes one mutation's closure delta into the maintained engines.
    /// Under RDFS the evaluation graph is `core(cl(D))`, so the evaluation
    /// engine consumes the *closure* delta; under simple entailment it is
    /// `core(D)`, so it consumes the base assertion/retraction itself. The
    /// asserted-store core (if built) always consumes the base delta, and
    /// every mutation invalidates the cached premise overlays.
    fn feed_delta(&mut self, delta: &ClosureDelta, removal: bool) {
        self.premise_cache.clear();
        // Mutation: the evaluation index (and possibly the dictionary)
        // changed under every costed plan.
        self.plan_cache.bump_generation();
        let none: &[IdTriple] = &[];
        if let Some(engine) = self.evaluation.as_mut() {
            let dictionary = self.reasoner.store().dictionary();
            let (added, removed): (&[IdTriple], &[IdTriple]) = match (self.regime, removal) {
                (EntailmentRegime::Rdfs, _) => (&delta.added, &delta.removed),
                (EntailmentRegime::Simple, false) => (&delta.base, none),
                (EntailmentRegime::Simple, true) => (none, &delta.base),
            };
            engine.apply_delta(added, removed, dictionary);
        }
        if let Some(engine) = self.asserted_core.as_mut() {
            let dictionary = self.reasoner.store().dictionary();
            let (added, removed): (&[IdTriple], &[IdTriple]) = if removal {
                (none, &delta.base)
            } else {
                (&delta.base, none)
            };
            engine.apply_delta(added, removed, dictionary);
        }
    }

    /// Descriptive statistics of the asserted triples (decoded for the call).
    /// Also feeds the largest-blank-component early warning on demand: the
    /// observation updates the metrics gauge and counts a warning when the
    /// size exceeds the configured threshold (`SWDB_BLANK_WARN`, or
    /// [`swdb_obs::Metrics::set_blank_warn_threshold`]).
    pub fn stats(&self) -> GraphStats {
        let stats = GraphStats::of(&self.reasoner.to_graph());
        self.metrics
            .observe_largest_blank_component(stats.largest_blank_component() as u64);
        stats
    }

    // ----- semantics -----

    /// Does the database entail the given graph under the current regime?
    pub fn entails(&self, conclusion: &Graph) -> bool {
        let stored = self.reasoner.to_graph();
        match self.regime {
            EntailmentRegime::Simple => swdb_entailment::simple_entails(&stored, conclusion),
            EntailmentRegime::Rdfs => swdb_entailment::entails(&stored, conclusion),
        }
    }

    /// Is the database equivalent to the given graph under the current
    /// regime?
    pub fn equivalent_to(&self, other: &Graph) -> bool {
        let stored = self.reasoner.to_graph();
        match self.regime {
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
        self.reasoner.closure_graph()
    }

    /// The closure recomputed from scratch through
    /// `swdb_normal::closure` / `swdb_entailment::rdfs_closure` — the
    /// executable specification the incremental path is property-tested
    /// against.
    pub fn closure_recomputed(&self) -> Graph {
        swdb_normal::closure(&self.reasoner.to_graph())
    }

    /// Membership in `cl(D)` as one indexed probe against the maintained
    /// closure — no fixpoint, no graph traversal.
    pub fn closure_contains(&self, triple: &Triple) -> bool {
        self.reasoner.closure_contains(triple)
    }

    /// The maintained store + closure (the `swdb-reason` subsystem), for
    /// callers that want id-level scans over asserted or inferred triples.
    pub fn reasoner(&self) -> &MaterializedStore {
        &self.reasoner
    }

    /// The core of the stored graph.
    pub fn core(&self) -> Graph {
        swdb_normal::core(&self.reasoner.to_graph())
    }

    /// The normal form `nf(D)` under the current regime: `core(cl(D))` for
    /// RDFS, `core(D)` for simple entailment.
    pub fn normal_form(&self) -> Graph {
        let stored = self.reasoner.to_graph();
        match self.regime {
            EntailmentRegime::Simple => swdb_normal::core(&stored),
            EntailmentRegime::Rdfs => swdb_normal::normal_form(&stored),
        }
    }

    /// Is the stored graph lean?
    pub fn is_lean(&self) -> bool {
        swdb_normal::is_lean(&self.reasoner.to_graph())
    }

    /// Replaces the asserted set by its core, removing redundancy while
    /// preserving equivalence. Returns the number of triples removed.
    ///
    /// The core of the *asserted* set is read off an [`IdCoreEngine`] in id
    /// space — under simple entailment the evaluation engine already is
    /// one; under RDFS a second engine over the asserted store is built
    /// lazily here and then maintained under base deltas — and diffed
    /// against the store's ids: no string-space retraction search, and only
    /// the dropped triples are decoded. The core is a subset (the engine
    /// retracts, never renames), so the drop is one `remove_graph`.
    pub fn minimize(&mut self) -> usize {
        let engine = if self.regime == EntailmentRegime::Simple {
            self.ensure_evaluation();
            self.evaluation.as_ref().expect("just ensured")
        } else {
            if self.asserted_core.is_none() {
                self.asserted_core = Some(IdCoreEngine::from_triples_budgeted(
                    self.reasoner.store().iter_ids(),
                    self.reasoner.store().dictionary(),
                    self.metrics.clone(),
                    self.core_budget,
                ));
            }
            self.asserted_core.as_ref().expect("just built")
        };
        let store = self.reasoner.store();
        let dropped: Graph = store
            .iter_ids()
            .filter(|&ids| !engine.index().contains(ids))
            .map(|ids| store.materialize(ids))
            .collect();
        self.remove_graph(&dropped)
    }

    // ----- query answering -----

    /// Builds the id-space evaluation engine if it is not built yet.
    ///
    /// The evaluation graph is `nf(D) = core(cl(D))` under RDFS and
    /// `core(D)` under simple entailment. The cold build never leaves id
    /// space: under RDFS the maintained closure index feeds the core engine
    /// directly (no closure fixpoint, no string-graph materialization);
    /// under simple entailment the asserted store does. Afterwards the
    /// engine is kept in step by [`SemanticWebDatabase::feed_delta`], so
    /// this cold path runs once, not per mutation.
    fn ensure_evaluation(&mut self) {
        if self.evaluation.is_none() {
            let dictionary = self.reasoner.store().dictionary();
            let engine = match self.regime {
                EntailmentRegime::Rdfs => IdCoreEngine::from_triples_budgeted(
                    self.reasoner.closure_index().iter(),
                    dictionary,
                    self.metrics.clone(),
                    self.core_budget,
                ),
                // Under simple entailment, matching against the core of D
                // gives equivalence-invariant answers without applying the
                // vocabulary rules.
                EntailmentRegime::Simple => IdCoreEngine::from_triples_budgeted(
                    self.reasoner.store().iter_ids(),
                    dictionary,
                    self.metrics.clone(),
                    self.core_budget,
                ),
            };
            self.evaluation = Some(engine);
        }
    }

    /// The evaluation graph premise-free queries run against, decoded to
    /// terms: `nf(D) = core(cl(D))` under RDFS, `core(D)` under simple
    /// entailment (built/maintained incrementally; the equivalence tests
    /// pin it against the recomputing `swdb_normal` pipeline up to
    /// isomorphism).
    pub fn evaluation_graph(&mut self) -> Graph {
        self.ensure_evaluation();
        let store = self.reasoner.store();
        self.evaluation
            .as_ref()
            .expect("just ensured")
            .index()
            .iter()
            .map(|ids| store.materialize(ids))
            .collect()
    }

    /// Returns the position of the cached fork for this premise, computing
    /// (and caching) it on a miss.
    ///
    /// The premise's terms are interned (append-only; no index is touched),
    /// its blanks renamed apart from the asserted triples' blanks first — the
    /// id-space counterpart of the capture-avoiding `Graph::merge` the spec
    /// path uses. Under RDFS the transient delta is the premise's closure
    /// growth `cl(D + P) − cl(D)`, previewed against the maintained closure
    /// without committing; under simple entailment it is the premise's
    /// not-yet-asserted triples. The evaluation engine then commits that
    /// delta into a fork of its index — the published index stays
    /// bit-identical.
    fn premise_overlay(&mut self, premise: &Graph) -> usize {
        self.ensure_evaluation();
        if let Some(at) = self.premise_cache.iter().position(|(g, _)| g == premise) {
            self.metrics.count(Counter::OverlayCacheHits, 1);
            return at;
        }
        self.metrics.count(Counter::OverlayCacheMisses, 1);
        let t0 = self
            .metrics
            .on(MetricsLevel::Debug)
            .then(std::time::Instant::now);
        let renamed = rename_premise_apart(premise, self.reasoner.store());
        let before = self.reasoner.store().dictionary().len();
        let ids = self.reasoner.intern_graph(&renamed);
        if self.reasoner.store().dictionary().len() != before {
            // Interning the premise grew the dictionary. Plans never cache
            // resolved ids (constants re-resolve per call), but the growth
            // is the agreed invalidation signal alongside mutation and
            // regime switch: doom cached plans so none outlives a
            // dictionary it was not costed under.
            self.plan_cache.bump_generation();
        }
        let engine = self.evaluation.as_ref().expect("just ensured");
        let delta: Vec<IdTriple> = match self.regime {
            EntailmentRegime::Rdfs => self.reasoner.preview_insert(&ids),
            EntailmentRegime::Simple => ids.into_iter().filter(|&t| !engine.maintains(t)).collect(),
        };
        let overlay = engine.overlay_core(&delta, self.reasoner.store().dictionary());
        if let Some(t0) = t0 {
            self.metrics
                .record(Hist::SpanOverlayBuildNs, t0.elapsed().as_nanos() as u64);
        }
        if self.premise_cache.len() >= PREMISE_CACHE_CAPACITY {
            self.premise_cache.remove(0);
            self.metrics.count(Counter::OverlayCacheEvictions, 1);
        }
        self.premise_cache.push((premise.clone(), overlay));
        self.premise_cache.len() - 1
    }

    /// Builds the [`QueryEngine`] that answers `query` and hands it to
    /// `run`: over the live evaluation index for the premise-free and
    /// expansion mechanisms, over the fork of it the premise was committed
    /// into (cached per premise) otherwise. The engine carries the
    /// degradation flag of the index it was built over — a fork's already
    /// folds the evaluation engine's in.
    fn with_engine<R>(&mut self, query: &Query, run: impl FnOnce(QueryEngine<'_>) -> R) -> R {
        self.ensure_evaluation();
        let evaluation = self.evaluation.as_ref().expect("just ensured");
        let mechanism = mechanism(self.regime, query, evaluation.component_count() == 0);
        let (target, non_minimal) = if mechanism == Mechanism::Overlay {
            let at = self.premise_overlay(query.premise());
            let fork = &self.premise_cache[at].1;
            (&fork.index, fork.non_minimal)
        } else {
            (evaluation.index(), evaluation.is_degraded())
        };
        run(QueryEngine {
            dictionary: self.reasoner.store().dictionary(),
            target,
            cache: &self.plan_cache,
            metrics: &self.metrics,
            mechanism,
            non_minimal,
        })
    }

    /// Answers a query under the given semantics — entirely in id space.
    /// Premise-free queries join the cached evaluation index directly;
    /// premise queries go through the Proposition 5.9 expansion or the
    /// premise overlay (see the module docs).
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
        self.with_engine(query, |e| {
            e.answer_set(query, semantics).into_owned(e.dictionary)
        })
    }

    /// Explains how [`SemanticWebDatabase::answer`] executes this query, by
    /// executing it: the mechanism the dispatch chose (`premise_free`,
    /// `expansion`, or `overlay`), the compiled pattern count, the planned
    /// join order the search descended through (original body-pattern
    /// indices), the plan-cache outcome with the planner's estimated and
    /// the store's actual per-pattern cardinalities, and the measured
    /// planning probes, enumerated bindings, and answer count. It is one run
    /// of the real pipeline with a recorder attached, so explaining costs
    /// what answering costs. For the expansion mechanism, `members` counts
    /// the premise-free members of `Ω_q`; `join_order` and `patterns`
    /// describe the first member, probes and bindings sum over all of them.
    pub fn explain(&mut self, query: &Query, semantics: Semantics) -> Explain {
        self.with_engine(query, |engine| engine.explain(query, semantics))
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
        let stored = self.reasoner.to_graph();
        match (self.regime, query.is_premise_free()) {
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
        self.with_engine(query, |engine| engine.pre_answers(query))
    }

    /// Returns `true` if the query has no answer over this database. Every
    /// mechanism early-exits on the first witnessing matching instead of
    /// materializing the pre-answer (for the expansion, per member).
    pub fn answer_is_empty(&mut self, query: &Query) -> bool {
        self.with_engine(query, |engine| engine.answer_is_empty(query))
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

/// The dispatch: how a query is evaluated under a regime, over an
/// evaluation engine that holds no blank triple (`ground`) or does. The
/// facade and [`crate::publish::PublishedSnapshot`] both build their
/// [`QueryEngine`] from this one decision (a snapshot can serve exactly the
/// premise-free and expansion mechanisms — both need only the dictionary +
/// index pair it carries).
pub(crate) fn mechanism(regime: EntailmentRegime, query: &Query, ground: bool) -> Mechanism {
    if query.is_premise_free() {
        Mechanism::PremiseFree
    } else if ground && expansion_eligible(regime, query) {
        Mechanism::Expansion
    } else {
        Mechanism::Overlay
    }
}

/// The gate for the Proposition 5.9 expansion, past the dispatch's own
/// condition that the evaluation engine holds no blank triple: then
/// `nf(D + P) = core(D) ∪ P` for a ground premise `P`, which is what the
/// members enumerate. Over a blank triple of `D` the union of `Ω_q` is only
/// equivalent to the answer, not isomorphic: a premise triple can make that
/// blank redundant in `nf(D + P)` while the members still match it.
///
/// Only under simple entailment (once RDFS vocabulary is interpreted, a
/// premise data triple can fire rules against stored schema, which no
/// premise-free rewriting over `nf(D)` can see — the paper notes Prop. 5.9
/// fails there), only for ground premises (a premise blank reached by the
/// head would be Skolemized per expansion member instead of shared across
/// single answers), only for blank-free heads (head blanks Skolemize over
/// *all* body variables, and μ substitutes some of those away per member,
/// changing the Skolem values), and only within [`EXPANSION_MAP_BUDGET`].
/// Everything else takes the overlay, which needs the mutable facade.
fn expansion_eligible(regime: EntailmentRegime, query: &Query) -> bool {
    let within_budget = (query.premise().len() as u64)
        .saturating_add(1)
        .checked_pow(query.body().len() as u32)
        .is_some_and(|worst_case| worst_case <= EXPANSION_MAP_BUDGET);
    regime == EntailmentRegime::Simple
        && query.premise().is_ground()
        && !swdb_query::head_has_blank_consts(query)
        && within_budget
}

/// Renames apart every premise blank whose label also names a blank of an
/// asserted triple — the id-space counterpart of the capture avoidance in
/// [`Graph::merge`]: a premise blank is scoped to the query and must never
/// be identified with a database blank that shares its label. Clashing
/// against asserted triples (every blank evaluation reaches is one of
/// theirs), not the append-only dictionary, keeps the renaming deterministic
/// across repeats. One pass over the asserted id triples collects their
/// blank ids — no label is decoded — on every cold premise, as the walk of
/// the string mirror did before PR 16; CHANGES.md, PR 16, says why index
/// probes do not replace it in the same change.
fn rename_premise_apart(premise: &Graph, stored: &TripleStore) -> Graph {
    let dictionary = stored.dictionary();
    let mine: std::collections::BTreeSet<swdb_store::TermId> = stored
        .iter_ids()
        .flat_map(|(s, _, o)| [s, o])
        .filter(|&id| dictionary.is_blank(id))
        .collect();
    let is_stored = |label: &str| {
        let id = dictionary.id_of(&Term::blank(label));
        id.is_some_and(|id| mine.contains(&id))
    };
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
        // data triple through the closure *preview* — nothing is committed.
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
    fn ground_simple_premises_take_the_expansion_path() {
        let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        db.insert(triple("ex:u", "ex:q", "ex:a"));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?X", "ex:p", "?Y")]),
            swdb_hom::pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
            graph([("ex:a", "ex:t", "ex:s")]),
        )
        .unwrap();
        assert_eq!(mechanism(db.regime(), &q, true), Mechanism::Expansion);
        let answers = db.answer_union(&q);
        assert!(answers.contains(&triple("ex:u", "ex:p", "ex:a")));
        assert_eq!(answers.len(), 1);
        assert!(
            db.premise_cache.is_empty(),
            "the expansion path needs no overlay"
        );
        assert!(!db.answer_is_empty(&q));
    }

    #[test]
    fn a_premise_that_makes_a_stored_blank_redundant_is_answered_exactly() {
        // The premise triple makes the stored blank redundant in
        // nf(D + P) = {(n0, p0, n1)}, but the union of Ω_q over core(D)
        // would still match (n0, p0, _:B0): only a ground evaluation graph
        // may take the expansion.
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
        assert!(!db.publish().supports(&q), "the snapshot refuses, too");
    }

    #[test]
    fn skolemized_heads_with_premises_take_the_overlay_even_when_simple() {
        // The head blank Skolemizes over all body variables; expansion
        // members substitute some of them away, so their Skolem values
        // cannot coincide with the direct evaluation's — such queries must
        // route to the overlay.
        let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        db.insert(triple("ex:u", "ex:q", "ex:a"));
        db.insert(triple("ex:u", "ex:q", "ex:b"));
        let q = swdb_query::Query::with_premise(
            swdb_hom::pattern_graph([("?X", "ex:p", "_:H")]),
            swdb_hom::pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
            graph([("ex:a", "ex:t", "ex:s"), ("ex:b", "ex:t", "ex:s")]),
        )
        .unwrap();
        assert_eq!(mechanism(db.regime(), &q, true), Mechanism::Overlay);
        assert!(
            swdb_model::isomorphic(
                &db.answer(&q, Semantics::Union),
                &db.answer_recomputed(&q, Semantics::Union)
            ),
            "Skolemized premise answers must match the spec"
        );
    }

    #[test]
    fn constrained_premise_queries_expand_without_losing_answers() {
        let mut db = SemanticWebDatabase::with_regime(EntailmentRegime::Simple);
        db.insert(triple("ex:unrelated", "ex:r", "ex:z"));
        let q = swdb_query::Query::with_all(
            swdb_hom::pattern_graph([("?X", "ex:p", "?Y")]),
            swdb_hom::pattern_graph([("?X", "ex:q", "?Y")]),
            graph([("ex:a", "ex:q", "ex:b")]),
            [Variable::new("Y")].into_iter().collect(),
        )
        .unwrap();
        assert_eq!(mechanism(db.regime(), &q, true), Mechanism::Expansion);
        let answers = db.answer_union(&q);
        assert!(
            answers.contains(&triple("ex:a", "ex:p", "ex:b")),
            "the fully-premise-matched member must keep its (discharged) constraint: {answers}"
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
        let _ = db.answer_union(&q);
        assert_eq!(db.premise_cache.len(), 1);
        let _ = db.answer_union(&q);
        assert_eq!(db.premise_cache.len(), 1, "second call hits the cache");
        db.insert(triple("ex:Mary", "ex:son", "ex:Peter"));
        assert!(
            db.premise_cache.is_empty(),
            "mutations invalidate premise overlays"
        );
        let answers = db.answer_union(&q);
        assert!(answers.contains(&triple("ex:Mary", "ex:relative", "ex:Peter")));
        assert_eq!(db.premise_cache.len(), 1);
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
            assert!(db.premise_cache.is_empty(), "the write invalidated");
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
    fn budgeted_minimize_degrades_gracefully_and_recovers() {
        use swdb_normal::CoreBudget;
        let mut db = SemanticWebDatabase::from_graph(graph([
            ("ex:a", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:X"),
        ]));
        db.set_core_budget(CoreBudgetMode::Budgeted(CoreBudget::steps(1)));
        assert_eq!(db.minimize(), 0, "budget too small to prove the fold");
        assert!(db.is_degraded());
        assert!(db.uncored_triples() >= 1);
        db.set_core_budget(CoreBudgetMode::Unlimited);
        assert!(db.refresh_degraded());
        assert!(!db.is_degraded());
        assert_eq!(db.minimize(), 1);
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
