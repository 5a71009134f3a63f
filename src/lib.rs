//! # semweb-foundations
//!
//! Workspace facade crate. It re-exports the full `swdb` stack so that the
//! runnable examples under `examples/` and the cross-crate integration tests
//! under `tests/` have a single dependency, mirroring how a downstream user
//! would consume the library through `swdb-core`.
//!
//! ## Architecture
//!
//! The stack reproduces *Foundations of Semantic Web Databases* (Gutierrez,
//! Hurtado, Mendelzon, Pérez; PODS 2004 / JCSS 2011) and grows it toward a
//! production system. Its layers, bottom to top:
//!
//! | Layer | Crate | Role |
//! |---|---|---|
//! | data model | [`model`] | terms, triples, [`model::Graph`] (string terms, §2.1–2.2) |
//! | matching | [`hom`] | maps/homomorphisms `μ : G₁ → G₂` |
//! | semantics | [`entailment`] | deductive system, `RDFS-cl(G)` as whole-graph fixpoints |
//! | normalization | [`normal`] | lean graphs, cores, normal forms (§3) |
//! | storage | [`store`] | dictionary-encoded [`store::TripleStore`] with SPO/POS/OSP indexes |
//! | **reasoning** | [`reason`] | **incremental `RDFS-cl(G)` over id-triples** |
//! | queries | [`query`], [`containment`] | tableau queries, answers, containment (§4–6) |
//! | facade | [`core`] | [`core::SemanticWebDatabase`] ties everything together |
//! | serving | [`server`] | std-only HTTP front end over published MVCC snapshots |
//!
//! ### The Graph / TripleStore duality
//!
//! Two representations of the same data coexist deliberately:
//!
//! * [`model::Graph`] is the *abstract* representation — a `BTreeSet` of
//!   string-term triples. The theory layers (`entailment`, `normal`,
//!   `query`) are written against it because the paper's definitions are:
//!   blank-node renaming, Skolemization and homomorphism search need terms,
//!   not ids. It is the executable-specification side.
//! * [`store::TripleStore`] is the *physical* representation — terms
//!   interned to dense [`store::TermId`]s by an append-only dictionary,
//!   triples held three times in `(s,p,o)`/`(p,o,s)`/`(o,s,p)` order so any
//!   bound-prefix pattern is a range scan. It is the production side.
//!
//! `swdb-reason` is the bridge at the semantics level: the same rules
//! (2)–(13) that `entailment` applies to `Graph`s as a fixpoint are encoded
//! in [`reason::RuleSystem`] as patterns over id-triples, indexed by
//! predicate so a delta triple wakes only the rules that can fire on it.
//! [`reason::DeltaClosure`] maintains the closure under **insert**
//! (semi-naive propagation: only the new frontier is joined — batched for
//! bulk loads via `insert_batch`) and **delete** (DRed
//! overdelete/rederive, immune to the rule system's derivation cycles),
//! and previews a transient premise's consequences without committing them.
//! All three are loops around one rule-firing kernel, the rounds of
//! [`reason::parallel`]: a round partitions the frontier by woken
//! `(rule, hypothesis)` paths, joins the shards against an immutable view
//! of the closure index and returns the sorted, deduplicated conclusions.
//! The thread count (`core::SemanticWebDatabase::set_threads`; default the
//! machine's available parallelism) is the worker ceiling of a large
//! round and nothing else — monotone rules over a set, evaluated in sorted
//! rounds, make the closure, both delta logs, the counters and the
//! published evaluation index bit-identical at every count, and
//! differential tests sweep thread counts to pin that against the
//! string-space specification.
//! [`reason::MaterializedStore`] packages a `TripleStore` with its
//! maintained closure; [`core::SemanticWebDatabase`] keeps one — its only
//! copy of the asserted set: a `Graph` of `D` exists only while a
//! specification or export method (`closure_recomputed()`,
//! `answer_recomputed()`, `to_ntriples()`, …) runs — and serves
//! `closure()` / `closure_contains()` from it, while
//! `closure_recomputed()` preserves the specification path that the
//! property tests compare against.
//!
//! ### The read path
//!
//! Query answering splits the same way, and it is **one engine**: the
//! paper has a single read operation — match the body against `nf(D + P)`,
//! instantiate the head — and [`query::QueryEngine`] implements it once
//! (`answer`, `pre_answers`, `answer_is_empty`, `explain`) over "a list of
//! premise-free member queries against one id-space target". The facade
//! builds the engine over its live evaluation index or a premise overlay, a
//! pinned [`core::PublishedSnapshot`] over its own index; which one is a
//! single dispatch decision ([`query::Mechanism`]). **Premise-free**
//! queries — the hot read path — never touch the string-space machinery:
//! the body is compiled to `TermId` patterns against the store dictionary
//! (a body constant that was never interned short-circuits to zero
//! answers), planned ([`query::plan`]), and run by the one executor
//! (`query::exec`) as a backtracking join in planned order directly over a
//! cached SPO/POS/OSP id-index of the evaluation graph —
//! `nf(D) = core(cl(D))` under RDFS, `core(D)` under simple entailment, so
//! answers keep Theorem 4.6's invariance under database equivalence.
//!
//! Both halves of `nf(D)` are **incremental**: the `cl(D)` part is
//! `reason`'s maintained materialization (no fixpoint recompute), and the
//! `core(·)` part is [`normal::IdCoreEngine`] — ground closure triples pass
//! straight through (maps fix URIs, so they always survive), blank triples
//! are partitioned into co-occurrence components
//! ([`normal::blank_components`]) and each component is cored by a local
//! id-space retraction search ([`hom::IdSolver`] against an
//! [`hom::Avoiding`] view, the same generic solver `query::exec` joins
//! with). Mutations feed the engine the exact closure delta reported by
//! [`reason::MaterializedStore`]: ground deltas are `O(log n)` index
//! maintenance, blank-touching deltas re-core only the affected
//! component(s); nothing is dropped and rebuilt. Bindings stay `TermId`s
//! and so does the answer ([`query::AnswerSet`]): terms are decoded only
//! into the response buffer, or by `into_graph` for library callers.
//!
//! Queries **with premises** run through the same id engine — no query
//! path evaluates in string space anymore. Two mechanisms, selected per
//! query: ground premises under simple entailment, over an evaluation
//! graph without blank triples, take the **premise-free expansion** of
//! Proposition 5.9 ([`query::premise_free_expansion`]), every member
//! joining the cached evaluation index with answers deduplicated across
//! members in id space; everything else takes the **premise overlay** —
//! the premise is a *hypothetical write*, committed into forks: its closure
//! growth into a fork of the closure index
//! ([`reason::MaterializedStore::preview_insert`]), that growth into a fork
//! of the evaluation index by the incremental engine's own insert half
//! ([`normal::IdCoreEngine::overlay_core`] → [`normal::EvalOverlay`]), and
//! the query joins the fork — the index a commit would publish. A fork is
//! a clone of the persistent [`store::IdIndex`], sharing every chunk the
//! premise leaves alone, so the published evaluation index stays
//! bit-identical across a premise query, and forks are cached per premise
//! until the next mutation. The
//! string-space evaluator remains the executable specification
//! (`core::SemanticWebDatabase::answer_recomputed`) that the equivalence
//! property tests pin both mechanisms against — the core is unique up to
//! isomorphism (Theorem 3.10), so the pinning is up to isomorphism
//! wherever answers expose blank nodes.
//!
//! ### Observability
//!
//! The whole pipeline is instrumented through [`obs`] (`swdb-obs`), a
//! std-only, lock-free metrics sheet shared by every engine a
//! [`core::SemanticWebDatabase`] owns. Three levels
//! ([`obs::MetricsLevel`]): `Off` (the default — every site is one relaxed
//! atomic load, hot loops accumulate into locals and skip the flush),
//! `Counters` (reasoner rounds/firings/delta sizes, query compilations /
//! join probes / bindings / answers, core re-corings / retraction searches
//! / fold steps / support replays, overlay-cache hits/misses/evictions),
//! and `Debug` (adds log₂ histograms: frontier/shard sizes, round
//! utilization, span timings for insert/delete/core-refresh/overlay-build/
//! answer). Select with `SWDB_METRICS=off|counters|debug` or
//! [`core::SemanticWebDatabase::set_metrics_level`]; freeze with
//! [`core::SemanticWebDatabase::metrics_snapshot`] (deterministic-keyed
//! JSON, including an early warning when the largest blank-node component
//! exceeds `SWDB_BLANK_WARN` — the NP-hard tail of the core refresh).
//! [`core::SemanticWebDatabase::explain`] reports, per query, the
//! mechanism the dispatch chose, the compiled pattern count, and the
//! planned join order the search actually descended through, with measured
//! probe/binding/answer counts ([`query::Explain`]). The counters
//! do not depend on the worker ceiling: every `reason_*` counter except
//! `reason_parallel_rounds` (rounds that actually spawned), the per-rule
//! firings and the query/core counters are pinned equal across thread
//! counts by `tests/metrics_observability.rs`.
//!
//! ### Planning & plan cache
//!
//! Every query execution is planned, and planned once per query *shape*,
//! not per call ([`query::plan`]) — premise-free queries, each member of a
//! Prop. 5.9 expansion, and overlay queries alike. A cost-based planner derives a static join order up
//! front — per-pattern cardinality estimates from O(1) `IdIndex` prefix
//! counts ([`hom::IdTarget::candidate_count`]), damped by an
//! adornment-style bound/free analysis as earlier patterns bind join
//! variables — and the solver executes that order with **zero** selectivity
//! probes per backtrack node ([`hom::IdSolver::with_order`]). Compiled
//! plans live in a small LRU ([`query::PlanCache`]) keyed by the query's
//! head/body/constraint structure *modulo constant identity*, so
//! structurally equal queries over different constants share one plan;
//! constants re-resolve against the live dictionary on every call, so a
//! hit can never carry a stale [`store::TermId`]. The worst-case
//! exponential Prop. 5.9 expansion `Ω_q` is cached in the same LRU per
//! premise query. A generation counter — bumped on every mutation, regime
//! switch, and dictionary growth — invalidates lazily; clones start with a
//! fresh cache, and each published [`core::PublishedSnapshot`] carries its
//! own cache that (being immutable) never invalidates. `explain()` reports
//! the `plan_cache` outcome (`hit`/`miss`/`off`) plus the planner's
//! estimated vs the store's actual per-pattern cardinalities, and the
//! counter sheet carries `plan_cache_hits`/`misses`/`evictions` and a
//! `query_truncations` warning when an enumeration hits the solution
//! limit. There is no second, unplanned executor: a disabled
//! [`query::PlanCache`] only stops *remembering* — lookups miss without
//! being counted, nothing is stored, `explain()` says `off`, and each call
//! runs the same executor under a plan built for that call. The
//! model-based oracle (`tests/oracle.rs`) pins the facade with its cache
//! cold and warm, and a pinned snapshot, to the recomputing specification
//! across regimes, semantics and mechanisms.
//!
//! ### Serving & snapshots
//!
//! Concurrent reads are served through a publication layer on the facade
//! ([`core::publish`]): a writer commits as usual, then
//! [`core::SemanticWebDatabase::publish`] atomically swaps an immutable,
//! epoch-stamped [`core::PublishedSnapshot`] — the evaluation id-index,
//! its dictionary, and the degraded/durability flags of the substrate that
//! produced it — into an `Arc` slot that any number of
//! [`core::SnapshotReader`]s pin and answer from without taking the facade
//! lock. A pinned snapshot is bit-identical for as long as it is held;
//! premise-free queries and Prop. 5.9 expansions are answered on it
//! directly, while overlay-mechanism premise queries return
//! [`core::SnapshotQueryError::NeedsWriter`] and fall back to the live
//! facade. On top of that sits [`server`] (`swdb-server`), a std-only
//! HTTP/1.1 front end — `TcpListener` plus a bounded worker pool — with
//! ingest/remove/query/answer/health/metrics endpoints, per-connection
//! read/write deadlines (slow-loris safe), request-size caps, load
//! shedding (`503` + `Retry-After` from a bounded accept queue),
//! per-connection panic isolation, degraded serving when durability has
//! fail-stopped (`503` writes, `200` reads), and graceful shutdown that
//! drains, rotates a final snapshot, and hands the database back. See
//! `examples/http_server.rs` for an end-to-end run.

pub use swdb_containment as containment;
pub use swdb_core as core;
pub use swdb_entailment as entailment;
pub use swdb_graphs as graphs;
pub use swdb_hom as hom;
pub use swdb_model as model;
pub use swdb_normal as normal;
pub use swdb_obs as obs;
pub use swdb_query as query;
pub use swdb_reason as reason;
pub use swdb_server as server;
pub use swdb_store as store;
pub use swdb_workloads as workloads;
