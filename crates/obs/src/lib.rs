//! # swdb-obs — zero-cost-when-off instrumentation for the swdb stack
//!
//! Every engine in the workspace (closure maintenance, id-space joins, the
//! incremental core, the facade's overlay cache) reports through one shared
//! [`Metrics`] handle: a cheaply clonable `Arc` of lock-free atomic state.
//! The handle has three levels:
//!
//! * [`MetricsLevel::Off`] — the default. Every recording call is a single
//!   relaxed atomic load and a predictable branch; no counter is touched,
//!   no clock is read, no allocation happens. Engines additionally batch
//!   their hot-loop counts into plain locals and flush once per operation,
//!   so the off path costs a handful of loads per *operation*, not per
//!   *triple*.
//! * [`MetricsLevel::Counters`] — lock-free monotonic counters, per-rule
//!   firing slots and gauges are live. Suitable for production traffic.
//! * [`MetricsLevel::Debug`] — additionally records log₂-bucketed size and
//!   latency histograms, and [`Metrics::span`] RAII timers read the clock.
//!
//! [`Metrics::snapshot`] freezes everything into a [`MetricsSnapshot`]
//! whose maps are `BTreeMap`s, so [`MetricsSnapshot::to_json`] emits a
//! deterministically-keyed report using the workspace's hand-rolled JSON
//! conventions (no external serializer).
//!
//! The crate is std-only and dependency-free so every layer of the stack
//! can depend on it, including `swdb-reason` at the bottom.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How much the stack records. Ordered: each level includes the previous.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum MetricsLevel {
    /// Record nothing; every instrumentation call is a load and a branch.
    #[default]
    Off = 0,
    /// Lock-free counters, per-rule firing slots and gauges.
    Counters = 1,
    /// Counters plus histograms and RAII span timers (clock reads).
    Debug = 2,
}

impl MetricsLevel {
    /// Parses the `SWDB_METRICS` convention: `off`/`0`, `counters`/`on`/`1`,
    /// `debug`/`2` (case-insensitive). Unknown values mean [`Off`].
    ///
    /// [`Off`]: MetricsLevel::Off
    pub fn parse(s: &str) -> MetricsLevel {
        match s.trim().to_ascii_lowercase().as_str() {
            "counters" | "on" | "1" => MetricsLevel::Counters,
            "debug" | "2" => MetricsLevel::Debug,
            _ => MetricsLevel::Off,
        }
    }

    /// Reads the level from the `SWDB_METRICS` environment variable
    /// ([`Off`] when unset).
    ///
    /// [`Off`]: MetricsLevel::Off
    pub fn from_env() -> MetricsLevel {
        std::env::var("SWDB_METRICS")
            .map(|v| MetricsLevel::parse(&v))
            .unwrap_or(MetricsLevel::Off)
    }

    /// The snapshot/JSON name of the level.
    pub fn name(self) -> &'static str {
        match self {
            MetricsLevel::Off => "off",
            MetricsLevel::Counters => "counters",
            MetricsLevel::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> MetricsLevel {
        match v {
            1 => MetricsLevel::Counters,
            2 => MetricsLevel::Debug,
            _ => MetricsLevel::Off,
        }
    }
}

macro_rules! keyed_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $key:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order (the storage order).
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The stable snake_case snapshot/JSON key of the variant.
            pub fn key(self) -> &'static str {
                match self {
                    $($name::$variant => $key,)+
                }
            }
        }
    };
}

keyed_enum! {
    /// The monotonic counters of the stack, one slot each.
    Counter {
        /// Semi-naive rounds of *committed* fixpoints: insert propagation
        /// and the re-propagation phase of a DRed delete. Overdeletion
        /// cascades and premise previews commit nothing and count none, so
        /// `0` means "no closure fixpoint ran". The same at every thread
        /// count.
        ReasonRounds => "reason_rounds",
        /// Committed rounds that actually ran on scoped worker threads —
        /// the one `reason_*` counter the worker ceiling moves.
        ReasonParallelRounds => "reason_parallel_rounds",
        /// `(rule, hypothesis)` shards evaluated across all committed
        /// rounds.
        ReasonShards => "reason_shards",
        /// Rule firings of committed rounds (all rules; the per-rule split
        /// lives in the rule-firing slots): conclusions accepted by the
        /// round's freshness pre-filter, counted *before* the per-round
        /// dedup — two shards deriving one triple in one round fire twice.
        /// The same at every thread count.
        ReasonRuleFirings => "reason_rule_firings",
        /// Triples added to the maintained closure.
        ReasonClosureAdded => "reason_closure_added",
        /// Triples removed from the maintained closure.
        ReasonClosureRemoved => "reason_closure_removed",
        /// Triples overdeleted by the DRed cascade before rederivation.
        ReasonOverdeleted => "reason_overdeleted",
        /// Overdeleted triples rederived (put back) by the DRed check.
        ReasonRederived => "reason_rederived",
        /// Premises written into a fork of the state, one per cold premise:
        /// closure inserts that commit nothing.
        ReasonPreviews => "reason_previews",
        /// Queries compiled to id patterns.
        QueryCompiled => "query_compiled",
        /// Body triple patterns compiled to id patterns.
        QueryPatternsCompiled => "query_patterns_compiled",
        /// `candidate_count` selectivity probes issued by the join planner.
        QueryJoinProbes => "query_join_probes",
        /// Bindings (complete pattern matchings) enumerated by the solver:
        /// the solutions behind `query_answers`.
        QueryBindings => "query_bindings",
        /// Answer triples produced (single answers, for `pre_answers`).
        /// `query_bindings / query_answers` is the duplication the answer
        /// path's id-space dedup absorbs before any term is decoded.
        QueryAnswers => "query_answers",
        /// Enumerations cut off at the solution limit: the produced answer
        /// set (or emptiness verdict) may be incomplete. The query-side
        /// analogue of the degraded-core warning — surfaced in
        /// `Explain::truncated` and the snapshot warnings.
        QueryTruncations => "query_truncations",
        /// Planned executions that reused a cached compiled plan.
        PlanCacheHits => "plan_cache_hits",
        /// Planned executions that compiled, probed, and planned from
        /// scratch (then cached the plan).
        PlanCacheMisses => "plan_cache_misses",
        /// Plan-cache entries evicted: the least-recently-used one, when an
        /// insert takes the cache over capacity.
        PlanCacheEvictions => "plan_cache_evictions",
        /// Blank components a core refresh read: swept, replayed onto,
        /// marked stale or dissolved. A refresh that reads only what its
        /// delta names keeps this independent of the component count.
        CoreComponentsVisited => "core_components_visited",
        /// Blank components re-cored by the incremental core engine.
        CoreComponentsRecored => "core_components_recored",
        /// Successful folds applied by the retraction searches.
        CoreFoldSteps => "core_fold_steps",
        /// Fold maps replayed onto component support sets.
        CoreSupportReplays => "core_support_replays",
        /// Retraction searches attempted (one per fold candidate probe).
        CoreRetractionSearches => "core_retraction_searches",
        /// Early warnings: largest blank component exceeded the threshold.
        CoreBlankWarnings => "core_blank_warnings",
        /// Premise overlay cache hits on a snapshot.
        OverlayCacheHits => "overlay_cache_hits",
        /// Premise overlay cache misses (overlay built from scratch).
        OverlayCacheMisses => "overlay_cache_misses",
        /// Premise overlay cache evictions (capacity reached).
        OverlayCacheEvictions => "overlay_cache_evictions",
        /// Core budget slices exhausted: a retraction search ran out of
        /// fold steps or wall time and its component (or overlay) was
        /// published uncored — sound, but non-minimal.
        CoreBudgetExhausted => "core_budget_exhausted",
        /// WAL records appended (one per logged mutation record, before
        /// group-commit batching).
        WalRecordsAppended => "wal_records_appended",
        /// Bytes appended to the WAL (payload + framing).
        WalBytes => "wal_bytes",
        /// Snapshots written (full rotations: snapshot + WAL truncation).
        SnapshotsWritten => "snapshots_written",
        /// WAL records replayed through the incremental delta paths during
        /// recovery (`open`): zero on a clean snapshot boot.
        RecoveryReplayedDeltas => "recovery_replayed_deltas",
        /// Recoveries that found and discarded a torn (incomplete or
        /// CRC-failing) final WAL record — the expected crash signature.
        RecoveryTornTails => "recovery_torn_tails",
        /// Orphaned files (`*.tmp` segments and stale generations) removed
        /// by `open`'s cleanup sweep — the debris of a crash mid-rotation.
        RecoveryOrphansRemoved => "recovery_orphans_removed",
        /// Fail-stop durability detaches: an IO error dropped the
        /// snapshot/WAL layer and the database continued in memory only.
        DurabilityDetached => "durability_detached",
        /// Immutable evaluation snapshots published for lock-free readers.
        SnapshotsPublished => "snapshots_published",
        /// Connections accepted by the HTTP front end.
        ServerAccepted => "server_accepted",
        /// Requests read and dispatched to a handler by the HTTP front end
        /// (any status; counted before the answer is written).
        ServerRequests => "server_requests",
        /// Socket writes issued for responses. Pipelined answers share a
        /// write, so `server_requests / server_flushes` is the batch size
        /// actually achieved.
        ServerFlushes => "server_flushes",
        /// Connections shed with `503 Retry-After` because the bounded
        /// accept/work queue was full.
        ServerShed => "server_shed",
        /// Connections dropped by a read/write deadline (slow peers,
        /// slow-loris requests).
        ServerTimeouts => "server_timeouts",
        /// Requests rejected as malformed or over the size limits
        /// (4xx responses).
        ServerBadRequests => "server_bad_requests",
        /// Handler panics isolated by a worker (the worker survives).
        ServerPanics => "server_panics",
    }
}

keyed_enum! {
    /// The gauges (last-observed values, not monotonic).
    Gauge {
        /// Size in triples of the largest blank co-occurrence component in
        /// the evaluation graph — the driver of the worst-case (NP-hard,
        /// Thm 3.12) local core search.
        LargestBlankComponent => "largest_blank_component",
        /// The configured early-warning threshold for the above.
        BlankWarnThreshold => "blank_warn_threshold",
        /// Blank components currently published uncored after budget
        /// exhaustion (0 when the evaluation graph is fully minimized).
        UncoredComponents => "uncored_components",
        /// Total triples across the currently-uncored components.
        UncoredTriples => "uncored_triples",
        /// Live records in the current WAL generation (resets on rotation).
        WalLiveRecords => "wal_live_records",
        /// The configured WAL compaction threshold in records (0 when no
        /// durability layer is attached).
        WalCompactThreshold => "wal_compact_threshold",
        /// Epoch of the currently published evaluation snapshot (0 before
        /// the first publication).
        PublishedEpoch => "published_epoch",
        /// Connections waiting in the server's bounded work queue.
        ServerQueueDepth => "server_queue_depth",
    }
}

keyed_enum! {
    /// The log₂-bucketed histograms (recorded at [`MetricsLevel::Debug`]).
    Hist {
        /// Frontier size per propagation round, in triples.
        FrontierSize => "frontier_size",
        /// Shard size per parallel round, in `(delta, path)` join tasks.
        ShardSize => "shard_size",
        /// Per-round worker utilization in percent:
        /// `total load / (workers × busiest worker load)`.
        RoundUtilizationPct => "round_utilization_pct",
        /// Wall time of one closure insert propagation, nanoseconds.
        SpanReasonInsertNs => "span_reason_insert_ns",
        /// Wall time of one DRed delete, nanoseconds.
        SpanReasonDeleteNs => "span_reason_delete_ns",
        /// Wall time of one core-engine delta refresh, nanoseconds.
        SpanCoreRefreshNs => "span_core_refresh_ns",
        /// Wall time of one `QueryEngine::answer` — plan lookup, execution
        /// and answer assembly, for the facade and for pinned snapshots
        /// alike — nanoseconds. Building the substrate the engine runs over
        /// (a cold evaluation index, a premise overlay) happens before and is
        /// not in it; the overlay build has `span_overlay_build_ns`.
        SpanQueryAnswerNs => "span_query_answer_ns",
        /// Wall time of one premise overlay build, nanoseconds.
        SpanOverlayBuildNs => "span_overlay_build_ns",
        /// Wall time of one snapshot rotation (the streamed encode and
        /// write + fsync + rename, the read-back that verifies the segment,
        /// and WAL truncation), nanoseconds.
        SpanSnapshotWriteNs => "span_snapshot_write_ns",
        /// Wall time of one recovery (`open`: snapshot load + WAL replay),
        /// nanoseconds.
        SpanRecoveryNs => "span_recovery_ns",
        /// Wall time of one snapshot publication (wrapping the committed
        /// state's `Arc` into the next published epoch, after a cold
        /// evaluation-engine build if the state has none; freeing the
        /// replaced epoch if this was its last pin), nanoseconds.
        SpanSnapshotPublishNs => "span_snapshot_publish_ns",
        /// Wall time of one served HTTP request (parse to last byte
        /// written), nanoseconds.
        SpanServerRequestNs => "span_server_request_ns",
        /// Wall time of a recovery's snapshot decode (reading the segment,
        /// its checksum, the structural decode and the id validation; every
        /// generation tried), nanoseconds. Part of `span_recovery_ns`.
        SpanSnapshotDecodeNs => "span_snapshot_decode_ns",
        /// Wall time of a recovery's snapshot restore (rebuilding the
        /// state from the decoded payload), nanoseconds. Part of
        /// `span_recovery_ns`.
        SpanSnapshotRestoreNs => "span_snapshot_restore_ns",
        /// Wall time of a rotation's read-back (streaming the written
        /// segment through the CRC and the structural decoder),
        /// nanoseconds. Part of `span_snapshot_write_ns`.
        SpanSnapshotVerifyNs => "span_snapshot_verify_ns",
    }
}

/// Number of per-rule firing slots (the rule system has 14 rules).
pub const RULE_SLOTS: usize = 16;

/// Default early-warning threshold (triples in one blank component) when
/// `SWDB_BLANK_WARN` is unset.
pub const DEFAULT_BLANK_WARN_THRESHOLD: u64 = 1_000;

/// 64 log₂ buckets plus the zero bucket.
const HIST_BUCKETS: usize = 65;

struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Bucket index of a value: 0 for 0, else `floor(log₂ v) + 1`.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Lower bound of a bucket (inclusive): 0 for the zero bucket, else
/// `2^(b-1)`.
fn bucket_lower_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

struct Inner {
    level: AtomicU8,
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    rule_firings: [AtomicU64; RULE_SLOTS],
    histograms: [Histogram; Hist::ALL.len()],
    blank_warn_threshold: AtomicU64,
    /// Cold-path registry mapping rule slots to human-readable labels
    /// (e.g. `r04_sc-transitivity`); written once by the rule system.
    rule_labels: Mutex<Arc<[String]>>,
}

/// The shared instrumentation handle. Clones share the same atomic state
/// (an `Arc`), so an engine and the facade that owns it report into one
/// set of counters; [`Metrics::default`] is a fresh, disabled handle.
#[derive(Clone)]
pub struct Metrics {
    inner: Arc<Inner>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new(MetricsLevel::Off)
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("level", &self.level())
            .finish_non_exhaustive()
    }
}

impl Metrics {
    /// A fresh handle at the given level.
    pub fn new(level: MetricsLevel) -> Metrics {
        let threshold = std::env::var("SWDB_BLANK_WARN")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_BLANK_WARN_THRESHOLD);
        Metrics {
            inner: Arc::new(Inner {
                level: AtomicU8::new(level as u8),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
                rule_firings: std::array::from_fn(|_| AtomicU64::new(0)),
                histograms: std::array::from_fn(|_| Histogram::new()),
                blank_warn_threshold: AtomicU64::new(threshold),
                rule_labels: Mutex::default(),
            }),
        }
    }

    /// A fresh handle at the level named by the `SWDB_METRICS` environment
    /// variable ([`MetricsLevel::Off`] when unset).
    pub fn from_env() -> Metrics {
        Metrics::new(MetricsLevel::from_env())
    }

    /// A process-wide permanently-disabled handle for uninstrumented entry
    /// points: no allocation per call site.
    pub fn disabled() -> &'static Metrics {
        static OFF: OnceLock<Metrics> = OnceLock::new();
        OFF.get_or_init(|| Metrics::new(MetricsLevel::Off))
    }

    /// A fresh `Off` handle with this one's blank-warning threshold: what a
    /// fork of an engine records into, so it reports nothing and budgets
    /// its core searches as the engine does.
    pub fn silenced(&self) -> Metrics {
        let off = Metrics::new(MetricsLevel::Off);
        off.set_blank_warn_threshold(self.blank_warn_threshold());
        off
    }

    /// The current recording level.
    pub fn level(&self) -> MetricsLevel {
        MetricsLevel::from_u8(self.inner.level.load(Ordering::Relaxed))
    }

    /// Changes the recording level; already-recorded state is kept.
    pub fn set_level(&self, level: MetricsLevel) {
        self.inner.level.store(level as u8, Ordering::Relaxed);
    }

    /// `true` when the handle records at least at `at` — one relaxed load.
    /// Engines use this to batch hot-loop counts into locals and skip the
    /// flush entirely when off.
    #[inline]
    pub fn on(&self, at: MetricsLevel) -> bool {
        self.inner.level.load(Ordering::Relaxed) >= at as u8
    }

    /// Adds `n` to a counter (no-op below [`MetricsLevel::Counters`] or
    /// when `n == 0`).
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if n != 0 && self.on(MetricsLevel::Counters) {
            self.inner.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` firings to rule slot `slot` (modulo [`RULE_SLOTS`]).
    #[inline]
    pub fn count_rule(&self, slot: usize, n: u64) {
        if n != 0 && self.on(MetricsLevel::Counters) {
            self.inner.rule_firings[slot % RULE_SLOTS].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sets a gauge to its latest observed value.
    #[inline]
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        if self.on(MetricsLevel::Counters) {
            self.inner.gauges[gauge as usize].store(value, Ordering::Relaxed);
        }
    }

    /// Records a histogram sample (no-op below [`MetricsLevel::Debug`]).
    #[inline]
    pub fn record(&self, hist: Hist, value: u64) {
        if self.on(MetricsLevel::Debug) {
            self.inner.histograms[hist as usize].record(value);
        }
    }

    /// Starts an RAII span timer recording its wall time into `hist` when
    /// dropped. Below [`MetricsLevel::Debug`] the clock is never read.
    #[inline]
    pub fn span(&self, hist: Hist) -> Span<'_> {
        Span {
            metrics: self,
            hist,
            start: if self.on(MetricsLevel::Debug) {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// The configured largest-blank-component early-warning threshold.
    pub fn blank_warn_threshold(&self) -> u64 {
        self.inner.blank_warn_threshold.load(Ordering::Relaxed)
    }

    /// Reconfigures the early-warning threshold.
    pub fn set_blank_warn_threshold(&self, threshold: u64) {
        self.inner
            .blank_warn_threshold
            .store(threshold, Ordering::Relaxed);
    }

    /// Reports the current largest blank-component size: updates the gauge
    /// and counts an early warning whenever the size exceeds the
    /// configured threshold (the first concrete hook of the NP-hard-tail
    /// budgeting item — Thm 3.12 makes one giant component the worst case
    /// of the core refresh).
    pub fn observe_largest_blank_component(&self, size: u64) {
        if !self.on(MetricsLevel::Counters) {
            return;
        }
        self.gauge_set(Gauge::LargestBlankComponent, size);
        self.gauge_set(Gauge::BlankWarnThreshold, self.blank_warn_threshold());
        if size > self.blank_warn_threshold() {
            self.count(Counter::CoreBlankWarnings, 1);
        }
    }

    /// Registers human-readable labels for the rule-firing slots (slot `i`
    /// gets `labels[i]`). Cold path; the rule system formats its labels once
    /// and hands every handle it is wired into the same `Arc`.
    pub fn set_rule_labels(&self, labels: impl Into<Arc<[String]>>) {
        *self.inner.rule_labels.lock().expect("rule label registry") = labels.into();
    }

    /// Resets all counters, gauges, rule slots and histograms to zero
    /// (level and labels are kept). Used by tests and by benches that
    /// report per-phase snapshots.
    pub fn reset(&self) {
        for c in &self.inner.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.inner.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for r in &self.inner.rule_firings {
            r.store(0, Ordering::Relaxed);
        }
        for h in &self.inner.histograms {
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Freezes the current state into a deterministic snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| {
                (
                    c.key(),
                    self.inner.counters[c as usize].load(Ordering::Relaxed),
                )
            })
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| {
                (
                    g.key(),
                    self.inner.gauges[g as usize].load(Ordering::Relaxed),
                )
            })
            .collect();
        let labels = self.inner.rule_labels.lock().expect("rule label registry");
        let mut rule_firings = BTreeMap::new();
        for (slot, counter) in self.inner.rule_firings.iter().enumerate() {
            let fired = counter.load(Ordering::Relaxed);
            if fired == 0 {
                continue;
            }
            let label = labels
                .get(slot)
                .cloned()
                .unwrap_or_else(|| format!("rule_{slot:02}"));
            *rule_firings.entry(label).or_insert(0) += fired;
        }
        let mut histograms = BTreeMap::new();
        for &h in Hist::ALL {
            let hist = &self.inner.histograms[h as usize];
            let count = hist.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let buckets = hist
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n != 0).then_some((bucket_lower_bound(i), n))
                })
                .collect();
            histograms.insert(
                h.key(),
                HistSnapshot {
                    count,
                    sum: hist.sum.load(Ordering::Relaxed),
                    buckets,
                },
            );
        }
        let mut warnings = Vec::new();
        let warned =
            self.inner.counters[Counter::CoreBlankWarnings as usize].load(Ordering::Relaxed);
        if warned > 0 {
            let largest =
                self.inner.gauges[Gauge::LargestBlankComponent as usize].load(Ordering::Relaxed);
            let threshold =
                self.inner.gauges[Gauge::BlankWarnThreshold as usize].load(Ordering::Relaxed);
            warnings.push(format!(
                "largest blank component reached {largest} (warn threshold {threshold}, \
                 {warned} observation(s) over it); one giant component is the NP-hard \
                 worst case of the core refresh (Thm 3.12) — consider SWDB_BLANK_WARN"
            ));
        }
        let degraded = DegradedSnapshot {
            core_budget_exhausted: self.inner.counters[Counter::CoreBudgetExhausted as usize]
                .load(Ordering::Relaxed),
            uncored_components: self.inner.gauges[Gauge::UncoredComponents as usize]
                .load(Ordering::Relaxed),
            uncored_triples: self.inner.gauges[Gauge::UncoredTriples as usize]
                .load(Ordering::Relaxed),
        };
        if degraded.uncored_components > 0 {
            warnings.push(format!(
                "degraded mode: {} blank component(s) ({} triple(s)) published uncored \
                 after core budget exhaustion; certain answers stay sound but non-minimal \
                 until a recore succeeds — raise SWDB_CORE_BUDGET or call refresh_degraded",
                degraded.uncored_components, degraded.uncored_triples
            ));
        }
        let truncated =
            self.inner.counters[Counter::QueryTruncations as usize].load(Ordering::Relaxed);
        if truncated > 0 {
            warnings.push(format!(
                "{truncated} query enumeration(s) hit the solution limit and were \
                 truncated; the affected answer sets (and emptiness verdicts) may be \
                 incomplete — check Explain::truncated and narrow the query"
            ));
        }
        let wal_live = self.inner.gauges[Gauge::WalLiveRecords as usize].load(Ordering::Relaxed);
        let wal_threshold =
            self.inner.gauges[Gauge::WalCompactThreshold as usize].load(Ordering::Relaxed);
        if wal_threshold > 0 && wal_live > wal_threshold {
            warnings.push(format!(
                "WAL has {wal_live} live record(s), past the compaction threshold \
                 ({wal_threshold}); recovery replay grows with the WAL suffix — call \
                 snapshot_now (or lower SWDB_WAL_COMPACT) to rotate"
            ));
        }
        MetricsSnapshot {
            level: self.level().name(),
            counters,
            rule_firings,
            gauges,
            degraded,
            histograms,
            warnings,
        }
    }
}

/// RAII span timer returned by [`Metrics::span`].
pub struct Span<'a> {
    metrics: &'a Metrics,
    hist: Hist,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.metrics
                .record(self.hist, start.elapsed().as_nanos() as u64);
        }
    }
}

/// A cooperative step/wall-clock budget for the NP-hard core searches.
///
/// The per-component retraction search (and the overlay core on hostile
/// premises) degenerates to the global NP-hard search of Thm 3.12 on one
/// giant blank component. A `Budget` bounds that tail: the solver calls
/// [`Budget::spend`] at probe granularity (one unit per candidate visited,
/// a few per selection round) and unwinds cooperatively as soon as it
/// returns `false`. No threads, no interrupts — just polling at the points
/// the search already touches.
///
/// Two independent limits, either optional:
///
/// * a **step** limit — deterministic, reproducible across hosts; and
/// * a **deadline** — wall-clock, checked only every
///   [`Budget::CLOCK_CHECK_INTERVAL`] spent steps so the hot path stays a
///   couple of `Cell` operations per probe.
///
/// Once exhausted, a budget stays exhausted: every later `spend` returns
/// `false` immediately, so a deep recursion unwinds without re-checking
/// the clock. The type is deliberately `!Sync` (plain `Cell`s) — each
/// search thread gets its own slice.
#[derive(Debug)]
pub struct Budget {
    steps_left: Cell<u64>,
    deadline: Option<Instant>,
    until_clock_check: Cell<u64>,
    exhausted: Cell<bool>,
}

impl Budget {
    /// How many spent steps pass between deadline (clock) checks.
    pub const CLOCK_CHECK_INTERVAL: u64 = 4096;

    /// A budget with an optional step limit and an optional time limit
    /// (counted from now). `Budget::new(None, None)` never exhausts.
    pub fn new(steps: Option<u64>, time: Option<Duration>) -> Budget {
        Budget {
            steps_left: Cell::new(steps.unwrap_or(u64::MAX)),
            deadline: time.map(|t| Instant::now() + t),
            until_clock_check: Cell::new(Budget::CLOCK_CHECK_INTERVAL),
            exhausted: Cell::new(false),
        }
    }

    /// A pure step budget (deterministic; no clock reads at all).
    pub fn steps(steps: u64) -> Budget {
        Budget::new(Some(steps), None)
    }

    /// A pure wall-clock budget starting now.
    pub fn timeout(time: Duration) -> Budget {
        Budget::new(None, Some(time))
    }

    /// Spends `n` steps. Returns `true` while the search may continue;
    /// the first `false` is sticky — callers unwind and report the partial
    /// state they already hold (every applied fold is still a genuine
    /// retraction, so partial state stays sound).
    #[inline]
    pub fn spend(&self, n: u64) -> bool {
        if self.exhausted.get() {
            return false;
        }
        let left = self.steps_left.get();
        if left < n {
            self.exhausted.set(true);
            return false;
        }
        self.steps_left.set(left - n);
        if let Some(deadline) = self.deadline {
            let until = self.until_clock_check.get().saturating_sub(n);
            if until == 0 {
                self.until_clock_check.set(Budget::CLOCK_CHECK_INTERVAL);
                if Instant::now() >= deadline {
                    self.exhausted.set(true);
                    return false;
                }
            } else {
                self.until_clock_check.set(until);
            }
        }
        true
    }

    /// `true` once any limit tripped. Callers that got `None` out of a
    /// search use this to tell "no solution exists" from "ran out of
    /// budget before knowing".
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted.get()
    }

    /// Steps still available (`u64::MAX` when no step limit was set).
    pub fn steps_remaining(&self) -> u64 {
        self.steps_left.get()
    }

    /// Trips the budget immediately (tests, or an outer layer deciding to
    /// shed load mid-search).
    pub fn exhaust(&self) {
        self.exhausted.set(true);
    }
}

/// A frozen histogram: sample count, sample sum, and the non-empty log₂
/// buckets as `(inclusive lower bound, count)` pairs in ascending order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Non-empty buckets, ascending by lower bound.
    pub buckets: Vec<(u64, u64)>,
}

/// The degraded-mode block of a snapshot: how much of the published
/// evaluation graph is currently sound-but-unminimized because a core
/// budget ran out before the retraction search finished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradedSnapshot {
    /// Budget slices exhausted since the last reset (monotonic).
    pub core_budget_exhausted: u64,
    /// Blank components currently published uncored.
    pub uncored_components: u64,
    /// Triples across those uncored components.
    pub uncored_triples: u64,
}

impl DegradedSnapshot {
    /// `true` when any component is currently published uncored.
    pub fn active(&self) -> bool {
        self.uncored_components > 0
    }
}

/// A deterministic freeze of a [`Metrics`] handle. All maps are `BTreeMap`s
/// so [`MetricsSnapshot::to_json`] emits stable key order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The recording level at snapshot time.
    pub level: &'static str,
    /// Every counter, including zeros (stable report shape).
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-rule firings, non-zero slots only, keyed by registered label.
    pub rule_firings: BTreeMap<String, u64>,
    /// Every gauge, including zeros.
    pub gauges: BTreeMap<&'static str, u64>,
    /// The degraded-mode block (budget exhaustions + currently-uncored
    /// components); all zeros when every component is fully cored.
    pub degraded: DegradedSnapshot,
    /// Non-empty histograms (populated at `debug` level).
    pub histograms: BTreeMap<&'static str, HistSnapshot>,
    /// Early-warning messages (the largest blank component exceeded the
    /// configured threshold, or components are published uncored).
    pub warnings: Vec<String>,
}

impl MetricsSnapshot {
    /// Convenience: the value of one counter by its snapshot key.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Renders the snapshot as deterministic JSON (keys sorted, integers
    /// only) following the workspace's hand-rolled JSON conventions.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"level\": \"{}\",\n", self.level));
        out.push_str("  \"counters\": {");
        push_map(&mut out, self.counters.iter().map(|(k, v)| (*k, *v)));
        out.push_str("},\n  \"rule_firings\": {");
        push_map(
            &mut out,
            self.rule_firings.iter().map(|(k, v)| (k.as_str(), *v)),
        );
        out.push_str("},\n  \"gauges\": {");
        push_map(&mut out, self.gauges.iter().map(|(k, v)| (*k, *v)));
        out.push_str("},\n  \"degraded\": {");
        push_map(
            &mut out,
            [
                ("core_budget_exhausted", self.degraded.core_budget_exhausted),
                ("uncored_components", self.degraded.uncored_components),
                ("uncored_triples", self.degraded.uncored_triples),
            ]
            .into_iter(),
        );
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for (key, hist) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{key}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                hist.count, hist.sum
            ));
            for (i, (lb, n)) in hist.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{lb}, {n}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\"",
                w.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        out.push_str("]\n}");
        out
    }
}

fn push_map<'k>(out: &mut String, entries: impl Iterator<Item = (&'k str, u64)>) {
    let mut first = true;
    let mut any = false;
    for (key, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        any = true;
        out.push_str(&format!("\n    \"{key}\": {value}"));
    }
    if any {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_and_records_nothing() {
        let m = Metrics::default();
        assert_eq!(m.level(), MetricsLevel::Off);
        m.count(Counter::ReasonRounds, 5);
        m.count_rule(2, 7);
        m.record(Hist::FrontierSize, 10);
        m.gauge_set(Gauge::LargestBlankComponent, 9);
        {
            let _span = m.span(Hist::SpanQueryAnswerNs);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter("reason_rounds"), 0);
        assert!(snap.rule_firings.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.gauges["largest_blank_component"], 0);
    }

    #[test]
    fn counters_level_records_counts_but_not_histograms() {
        let m = Metrics::new(MetricsLevel::Counters);
        m.count(Counter::QueryJoinProbes, 3);
        m.count(Counter::QueryJoinProbes, 4);
        m.record(Hist::FrontierSize, 10);
        let snap = m.snapshot();
        assert_eq!(snap.counter("query_join_probes"), 7);
        assert!(snap.histograms.is_empty(), "histograms need debug level");
    }

    #[test]
    fn debug_level_records_histograms_and_spans() {
        let m = Metrics::new(MetricsLevel::Debug);
        for v in [0u64, 1, 2, 3, 4, 1000] {
            m.record(Hist::FrontierSize, v);
        }
        {
            let _span = m.span(Hist::SpanReasonInsertNs);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["frontier_size"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4 → [4,8); 1000 → [512,1024).
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (4, 1), (512, 1)]);
        let spans = &snap.histograms["span_reason_insert_ns"];
        assert_eq!(spans.count, 1);
    }

    #[test]
    fn clones_share_state_and_level_changes_apply_retroactively() {
        let m = Metrics::new(MetricsLevel::Off);
        let clone = m.clone();
        clone.set_level(MetricsLevel::Counters);
        m.count(Counter::ReasonClosureAdded, 2);
        assert_eq!(clone.snapshot().counter("reason_closure_added"), 2);
    }

    #[test]
    fn rule_labels_name_the_firing_slots() {
        let m = Metrics::new(MetricsLevel::Counters);
        m.set_rule_labels(vec!["r02_sp-transitivity".into()]);
        m.count_rule(0, 3);
        m.count_rule(1, 1);
        let snap = m.snapshot();
        assert_eq!(snap.rule_firings["r02_sp-transitivity"], 3);
        assert_eq!(snap.rule_firings["rule_01"], 1);
    }

    #[test]
    fn blank_component_observation_warns_past_threshold() {
        let m = Metrics::new(MetricsLevel::Counters);
        m.set_blank_warn_threshold(10);
        m.observe_largest_blank_component(9);
        assert_eq!(m.snapshot().counter("core_blank_warnings"), 0);
        m.observe_largest_blank_component(11);
        let snap = m.snapshot();
        assert_eq!(snap.counter("core_blank_warnings"), 1);
        assert_eq!(snap.gauges["largest_blank_component"], 11);
        assert_eq!(snap.gauges["blank_warn_threshold"], 10);
        assert_eq!(snap.warnings.len(), 1, "warning surfaces in the snapshot");
        assert!(snap
            .to_json()
            .contains("\"warnings\": [\"largest blank component"));
    }

    #[test]
    fn snapshot_warnings_block_is_empty_when_under_threshold() {
        let m = Metrics::new(MetricsLevel::Counters);
        m.observe_largest_blank_component(3);
        let snap = m.snapshot();
        assert!(snap.warnings.is_empty());
        assert!(snap.to_json().contains("\"warnings\": []"));
    }

    #[test]
    fn snapshot_json_is_deterministic_and_keyed() {
        let m = Metrics::new(MetricsLevel::Counters);
        m.count(Counter::QueryAnswers, 2);
        let a = m.snapshot().to_json();
        let b = m.snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"level\": \"counters\""));
        assert!(a.contains("\"query_answers\": 2"));
        // Keys are emitted in sorted order.
        let hits = a.find("\"overlay_cache_hits\"").unwrap();
        let probes = a.find("\"query_join_probes\"").unwrap();
        assert!(hits < probes);
    }

    #[test]
    fn level_parsing_covers_the_conventions() {
        assert_eq!(MetricsLevel::parse("off"), MetricsLevel::Off);
        assert_eq!(MetricsLevel::parse("Counters"), MetricsLevel::Counters);
        assert_eq!(MetricsLevel::parse("on"), MetricsLevel::Counters);
        assert_eq!(MetricsLevel::parse("1"), MetricsLevel::Counters);
        assert_eq!(MetricsLevel::parse("DEBUG"), MetricsLevel::Debug);
        assert_eq!(MetricsLevel::parse("2"), MetricsLevel::Debug);
        assert_eq!(MetricsLevel::parse("garbage"), MetricsLevel::Off);
    }

    #[test]
    fn step_budget_exhausts_exactly_and_stays_exhausted() {
        let b = Budget::steps(10);
        assert!(b.spend(4));
        assert!(b.spend(6));
        assert_eq!(b.steps_remaining(), 0);
        assert!(!b.is_exhausted(), "hitting zero is not yet over budget");
        assert!(!b.spend(1), "the 11th step trips the budget");
        assert!(b.is_exhausted());
        assert!(!b.spend(0), "exhaustion is sticky even for free spends");
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::new(None, None);
        for _ in 0..100_000 {
            assert!(b.spend(17));
        }
        assert!(!b.is_exhausted());
    }

    #[test]
    fn deadline_budget_trips_at_the_clock_check() {
        let b = Budget::timeout(Duration::from_millis(0));
        // The deadline is already past, but it is only observed every
        // CLOCK_CHECK_INTERVAL steps.
        let mut spent = 0u64;
        while b.spend(1) {
            spent += 1;
            assert!(spent <= Budget::CLOCK_CHECK_INTERVAL, "clock never checked");
        }
        assert!(b.is_exhausted());
        assert_eq!(spent, Budget::CLOCK_CHECK_INTERVAL - 1);
    }

    #[test]
    fn explicit_exhaust_trips_the_budget() {
        let b = Budget::steps(u64::MAX);
        b.exhaust();
        assert!(!b.spend(1));
    }

    #[test]
    fn degraded_block_reports_exhaustion_and_uncored_state() {
        let m = Metrics::new(MetricsLevel::Counters);
        let snap = m.snapshot();
        assert_eq!(snap.degraded, DegradedSnapshot::default());
        assert!(!snap.degraded.active());
        assert!(snap.to_json().contains("\"degraded\": {"));
        assert!(snap.to_json().contains("\"core_budget_exhausted\": 0"));

        m.count(Counter::CoreBudgetExhausted, 2);
        m.gauge_set(Gauge::UncoredComponents, 1);
        m.gauge_set(Gauge::UncoredTriples, 36);
        let snap = m.snapshot();
        assert_eq!(snap.degraded.core_budget_exhausted, 2);
        assert_eq!(snap.degraded.uncored_components, 1);
        assert_eq!(snap.degraded.uncored_triples, 36);
        assert!(snap.degraded.active());
        assert_eq!(snap.counter("core_budget_exhausted"), 2);
        assert!(
            snap.warnings.iter().any(|w| w.contains("degraded mode")),
            "uncored components surface as a warning"
        );

        // Recore: gauges drop back to zero, the counter stays monotonic.
        m.gauge_set(Gauge::UncoredComponents, 0);
        m.gauge_set(Gauge::UncoredTriples, 0);
        let snap = m.snapshot();
        assert!(!snap.degraded.active());
        assert!(!snap.warnings.iter().any(|w| w.contains("degraded mode")));
        assert_eq!(snap.degraded.core_budget_exhausted, 2);
    }

    #[test]
    fn wal_past_compaction_threshold_surfaces_as_a_warning() {
        let m = Metrics::new(MetricsLevel::Counters);
        m.gauge_set(Gauge::WalCompactThreshold, 100);
        m.gauge_set(Gauge::WalLiveRecords, 100);
        assert!(
            m.snapshot().warnings.is_empty(),
            "at the threshold is not yet over it"
        );
        m.gauge_set(Gauge::WalLiveRecords, 101);
        let snap = m.snapshot();
        assert!(snap
            .warnings
            .iter()
            .any(|w| w.contains("compaction threshold")));
        // No threshold configured (no durability layer) never warns.
        m.gauge_set(Gauge::WalCompactThreshold, 0);
        assert!(m.snapshot().warnings.is_empty());
    }

    #[test]
    fn reset_clears_recorded_state_but_keeps_level() {
        let m = Metrics::new(MetricsLevel::Debug);
        m.count(Counter::ReasonRounds, 3);
        m.record(Hist::FrontierSize, 4);
        m.reset();
        let snap = m.snapshot();
        assert_eq!(snap.counter("reason_rounds"), 0);
        assert!(snap.histograms.is_empty());
        assert_eq!(m.level(), MetricsLevel::Debug);
    }
}
