//! The one rule-firing kernel: round-based, sharded evaluation of the RDFS
//! rule joins.
//!
//! `round_conclusions` is the only place a rule fires. A semi-naive
//! fixpoint is a sequence of **rounds**, and both consumers — insert
//! propagation and the DRed overdeletion cascade of
//! [`crate::DeltaClosure`] — are loops around it that differ only in the
//! filter their conclusions pass and where the caller commits them:
//!
//! 1. **Shard** — the current frontier is partitioned by the
//!    `(rule, hypothesis)` paths its predicates wake
//!    ([`crate::rules::RuleSystem::paths_for_predicate`]): one shard is one
//!    path plus every frontier triple that wakes it. Two shards never share
//!    a join, so they are embarrassingly parallel.
//! 2. **Join** — every shard is joined against one shared, immutable view
//!    (the [`swdb_store::IdIndex`] read-snapshot guarantee; the [`IdTarget`]
//!    `Sync` bound makes the sharing a compile-time fact): each delta
//!    unified with the shard's hypothesis seeds an [`IdSolver`] search over
//!    the others in the path's static join order, and the visitor checks
//!    the guards and instantiates the conclusions. A round of at
//!    least `INLINE_TASK_THRESHOLD` join tasks over more than one shard
//!    balances its shards (longest-processing-time-first) across at most
//!    `threads` `std::thread::scope` workers — std only, no thread pool;
//!    any smaller round, and every round under a ceiling of 1, runs the
//!    same shards inline on the calling thread.
//! 3. **Merge** — the conclusions are concatenated, sorted, deduplicated
//!    and returned; the single-threaded caller commits the fresh ones and
//!    makes them the next round's frontier.
//!
//! ## Why the thread count cannot change anything
//!
//! The rules (2)–(13) are *monotone* (a conclusion derivable from a set of
//! triples stays derivable from any superset) and the closure is a *set*
//! (commits are idempotent and order-insensitive), so rounds reach exactly
//! the least fixpoint `RDFS-cl(G)`: every rule instance with a hypothesis
//! in the frontier is evaluated against a view that contains the whole
//! frontier (the frontier is committed before the round runs), so no
//! instance is missed, and no instance can derive anything outside
//! `RDFS-cl(G)` because each round only applies the rules. The per-round
//! sort additionally makes the *rounds themselves* — and with them both
//! delta logs, as sequences, and every counter but the number of rounds
//! that actually spawned — independent of the shard-to-worker assignment,
//! which is all `threads` decides. The differential tests in
//! `crates/reason/tests/` sweep thread counts (1 included) to keep that
//! executable.
//!
//! The DRed delete's per-candidate prune/rederive probes are independent
//! membership checks spread over the same worker ceiling by
//! `parallel_mask`.

use std::ops::ControlFlow;
use std::thread;

use swdb_hom::{IdSolver, IdTarget};
use swdb_obs::{Counter, Hist, Metrics, MetricsLevel, RULE_SLOTS};
use swdb_store::{Dictionary, IdTriple};

use crate::delta::flush_firings;
use crate::rules::{Binding, RulePath, RuleSystem, SLOTS};

/// Below this many `(delta, path)` join tasks a round runs inline on the
/// calling thread: for single-triple edits the spawn cost would dominate
/// the joins, and an inline round computes the identical result (the merge
/// sorts either way).
const INLINE_TASK_THRESHOLD: usize = 64;

/// One shard: a `(rule, hypothesis)` path plus the frontier triples whose
/// predicate woke it.
type Shard<'a> = (RulePath, &'a [IdTriple]);

/// Partitions a frontier **sorted by predicate** into shards keyed by woken
/// rule path, without copying a triple: a path keyed on a constant
/// predicate is woken by exactly that predicate's run of the frontier, a
/// variable-predicate path by all of it.
fn shard_frontier<'a>(rules: &RuleSystem, by_predicate: &'a [IdTriple]) -> Vec<Shard<'a>> {
    let mut shards = Vec::new();
    for run in by_predicate.chunk_by(|a, b| a.1 == b.1) {
        shards.extend(rules.keyed_paths(run[0].1).iter().map(|&path| (path, run)));
    }
    shards.extend(
        rules
            .wildcard_paths()
            .iter()
            .map(|&path| (path, by_predicate)),
    );
    shards
}

/// Greedy longest-first balancing of shards into at most `threads` buckets.
fn balance(mut shards: Vec<Shard<'_>>, threads: usize) -> Vec<Vec<Shard<'_>>> {
    shards.sort_by_key(|(_, deltas)| std::cmp::Reverse(deltas.len()));
    let buckets = threads.min(shards.len()).max(1);
    let mut out: Vec<(usize, Vec<Shard>)> = (0..buckets).map(|_| (0, Vec::new())).collect();
    for shard in shards {
        let lightest = out
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("at least one bucket");
        lightest.0 += shard.1.len().max(1);
        lightest.1.push(shard);
    }
    out.into_iter().map(|(_, bucket)| bucket).collect()
}

/// Evaluates one shard: every delta unified with the path's hypothesis
/// seeds a search over the other hypotheses (in the path's static join
/// order) against the snapshot view, and every guard-passing conclusion
/// accepted by `keep` is appended to `out`.
#[allow(clippy::too_many_arguments)]
fn eval_shard<V: IdTarget>(
    rules: &RuleSystem,
    view: &V,
    dictionary: &Dictionary,
    (rule_idx, hyp_idx): RulePath,
    deltas: &[IdTriple],
    keep: &(impl Fn(IdTriple) -> bool + Sync),
    out: &mut Vec<IdTriple>,
    fired: &mut [u64; RULE_SLOTS],
) {
    let rule = &rules.rules()[rule_idx];
    let solver =
        IdSolver::new(&rule.hypotheses, SLOTS, view).with_order(&rule.delta_orders[hyp_idx]);
    for &delta in deltas {
        let mut seed: Binding = [None; SLOTS];
        if !rule.hypotheses[hyp_idx].unify(delta, &mut seed) {
            continue;
        }
        solver.for_each_solution_from(&mut seed, &mut |binding| {
            if rule.guards_pass(dictionary, binding) {
                for conclusion in &rule.conclusions {
                    let (Some(s), Some(p), Some(o)) = conclusion.to_scan(binding) else {
                        unreachable!("conclusion variables occur in a hypothesis");
                    };
                    if keep((s, p, o)) {
                        fired[rule_idx % RULE_SLOTS] += 1;
                        out.push((s, p, o));
                    }
                }
            }
            ControlFlow::<()>::Continue(())
        });
    }
}

/// Runs one round: joins the whole frontier against the immutable `view`
/// on up to `threads` workers and returns the sorted, deduplicated
/// conclusions accepted by `keep`.
///
/// `keep` is a read-only pre-filter evaluated inside the workers (against
/// the same snapshot) so the merge only sees plausible conclusions; the
/// caller still re-checks at commit time, because two shards of the same
/// round can derive the same triple.
pub(crate) fn round_conclusions<V: IdTarget>(
    rules: &RuleSystem,
    view: &V,
    dictionary: &Dictionary,
    frontier: &[IdTriple],
    threads: usize,
    keep: &(impl Fn(IdTriple) -> bool + Sync),
    metrics: &Metrics,
) -> Vec<IdTriple> {
    let mut by_predicate = frontier.to_vec();
    by_predicate.sort_unstable_by_key(|t| t.1);
    let shards = shard_frontier(rules, &by_predicate);
    let tasks: usize = shards.iter().map(|(_, deltas)| deltas.len()).sum();
    metrics.count(Counter::ReasonShards, shards.len() as u64);
    if metrics.on(MetricsLevel::Debug) {
        for (_, deltas) in &shards {
            metrics.record(Hist::ShardSize, deltas.len() as u64);
        }
    }
    // A worker's share of the round. Rule firings accumulate in a plain
    // local array (no shared atomics inside the joins) and are flushed
    // after the round — at `Off` this whole scheme costs register
    // increments.
    let eval = |bucket: &[Shard]| {
        let mut out = Vec::new();
        let mut fired = [0u64; RULE_SLOTS];
        for &(path, deltas) in bucket {
            eval_shard(
                rules, view, dictionary, path, deltas, keep, &mut out, &mut fired,
            );
        }
        (out, fired)
    };
    let results = if threads <= 1 || shards.len() <= 1 || tasks < INLINE_TASK_THRESHOLD {
        vec![eval(&shards)]
    } else {
        metrics.count(Counter::ReasonParallelRounds, 1);
        let buckets = balance(shards, threads);
        if metrics.on(MetricsLevel::Debug) {
            // Per-round utilization: how evenly LPT spread the load.
            // 100% means every worker carried the same number of tasks;
            // the busiest worker bounds the round's critical path.
            let loads: Vec<usize> = buckets
                .iter()
                .map(|b| b.iter().map(|(_, d)| d.len().max(1)).sum())
                .collect();
            let busiest = loads.iter().copied().max().unwrap_or(1).max(1);
            let total: usize = loads.iter().sum();
            let utilization = 100 * total / (loads.len().max(1) * busiest);
            metrics.record(Hist::RoundUtilizationPct, utilization as u64);
        }
        thread::scope(|scope| {
            let workers: Vec<_> = buckets
                .iter()
                .map(|bucket| scope.spawn(|| eval(bucket)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("propagation worker panicked"))
                .collect()
        })
    };
    // The first share's buffer becomes the round's (an inline round copies
    // nothing); `balance` never returns zero buckets.
    let mut results = results.into_iter();
    let (mut fresh, mut fired) = results.next().expect("at least one share");
    for (out, worker_fired) in results {
        fresh.extend(out);
        for (slot, n) in worker_fired.into_iter().enumerate() {
            fired[slot] += n;
        }
    }
    flush_firings(metrics, &fired);
    // Sorting makes the round — and therefore the whole fixpoint schedule
    // and the delta logs — independent of the shard-to-worker assignment
    // and of the thread count.
    fresh.sort_unstable();
    fresh.dedup();
    fresh
}

/// Evaluates an independent boolean probe over every item, in parallel when
/// the batch is large enough, preserving item order in the returned mask.
/// Used for the DRed prune (`still supported by asserted facts alone?`) and
/// rederivation (`still one-step derivable from the surviving closure?`)
/// probes, which only read immutable snapshots.
pub(crate) fn parallel_mask<T: Sync>(
    items: &[T],
    threads: usize,
    test: &(impl Fn(&T) -> bool + Sync),
) -> Vec<bool> {
    if threads <= 1 || items.len() < INLINE_TASK_THRESHOLD {
        return items.iter().map(test).collect();
    }
    // No worker gets fewer probes than a round would run inline, so the
    // spawn count is bounded by the batch, whatever the ceiling.
    let chunk = items.len().div_ceil(threads).max(INLINE_TASK_THRESHOLD);
    let mut mask = Vec::with_capacity(items.len());
    thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(test).collect::<Vec<bool>>()))
            .collect();
        for worker in workers {
            mask.extend(worker.join().expect("probe worker panicked"));
        }
    });
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_spreads_load_without_losing_shards() {
        let deltas = [(0, 0, 0); 3];
        let shards: Vec<Shard> = (0..7).map(|i| ((i, 0), &deltas[..1 + (i % 3)])).collect();
        let total: usize = shards.iter().map(|(_, d)| d.len()).sum();
        let buckets = balance(shards, 3);
        assert_eq!(buckets.len(), 3);
        let spread: usize = buckets
            .iter()
            .flat_map(|b| b.iter().map(|(_, d)| d.len()))
            .sum();
        assert_eq!(spread, total, "no shard may be dropped or duplicated");
        let max = buckets
            .iter()
            .map(|b| b.iter().map(|(_, d)| d.len()).sum::<usize>())
            .max()
            .unwrap();
        assert!(max <= total, "greedy LPT keeps buckets bounded");
    }

    #[test]
    fn balance_with_more_threads_than_shards_stays_dense() {
        let shards: Vec<Shard> = vec![((0, 0), &[(1, 2, 3)])];
        let buckets = balance(shards, 8);
        assert_eq!(buckets.len(), 1, "empty buckets are never created");
    }

    #[test]
    fn parallel_mask_matches_sequential_on_any_batch_size() {
        let items: Vec<u32> = (0..500).collect();
        let test = |x: &u32| x.is_multiple_of(3);
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                parallel_mask(&items, threads, &test),
                items.iter().map(test).collect::<Vec<bool>>(),
                "threads={threads}"
            );
        }
        let tiny: Vec<u32> = (0..5).collect();
        assert_eq!(parallel_mask(&tiny, 8, &test).len(), 5);

        // An absurd ceiling is bounded by the batch: no worker gets fewer
        // than `INLINE_TASK_THRESHOLD` probes, so 500 items spawn at most 8.
        let workers = std::sync::Mutex::new(std::collections::BTreeSet::new());
        let tracking = |x: &u32| {
            let id = format!("{:?}", thread::current().id());
            workers.lock().unwrap().insert(id);
            test(x)
        };
        assert_eq!(
            parallel_mask(&items, usize::MAX, &tracking),
            items.iter().map(test).collect::<Vec<bool>>(),
            "threads=usize::MAX"
        );
        let spawned = workers.lock().unwrap().len();
        assert!(
            (2..=8).contains(&spawned),
            "{spawned} workers for 500 items"
        );
    }

    #[test]
    fn shards_are_the_woken_paths_over_borrowed_runs() {
        let rules = RuleSystem::new(crate::rules::Vocabulary {
            sp: 0,
            sc: 1,
            ty: 2,
            dom: 3,
            range: 4,
        });
        // Sorted by predicate: two `type` triples, one plain-predicate one.
        let frontier = [(10, 2, 11), (12, 2, 11), (10, 99, 12)];
        let shards = shard_frontier(&rules, &frontier);
        let mut expected: std::collections::BTreeMap<RulePath, Vec<IdTriple>> = Default::default();
        for &t in &frontier {
            for path in rules.paths_for_predicate(t.1) {
                expected.entry(path).or_default().push(t);
            }
        }
        assert_eq!(shards.len(), expected.len(), "one shard per woken path");
        for (path, deltas) in shards {
            assert_eq!(deltas, expected[&path], "path {path:?}");
        }
    }
}
