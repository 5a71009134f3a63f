//! The query pools shared by the integration tests that hold the read
//! paths to the specification (`mod pools;` from a file under `tests/`).
//! Each test binary uses its own subset.
#![allow(dead_code)]

use semweb_foundations::hom::{pattern_graph, Variable};
use semweb_foundations::model::{graph, rdfs};
use semweb_foundations::query::{query, Query};

/// A pool covering the pattern shapes the engine dispatches on: single
/// patterns, joins, variable predicates, repeated variables, ground
/// constants (interned and never-interned), must-bind constraints, head
/// blanks (Skolemization), and RDFS vocabulary in the body. It holds the
/// edge cases of accepting a matching: a constraint on a variable some
/// matchings bind to a blank, a head constant no stored triple mentions
/// (`ex:related`), and a head predicate — a variable or a head blank — that
/// instantiates to a blank, which drops the whole single answer.
pub fn query_pool() -> Vec<Query> {
    vec![
        query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]),
        query(
            [("?X", "ex:p0", "?Z")],
            [("?X", "ex:p0", "?Y"), ("?Y", "ex:p1", "?Z")],
        ),
        query([("?X", "?P", "?Y")], [("?X", "?P", "?Y")]),
        query([("ex:n0", "ex:related", "?Y")], [("ex:n0", "?P", "?Y")]),
        query([("?X", "ex:p0", "?X")], [("?X", "ex:p0", "?X")]),
        query(
            [("?X", "ex:neverInterned", "?Y")],
            [("?X", "ex:neverInterned", "?Y")],
        ),
        query([("?X", rdfs::TYPE, "?C")], [("?X", rdfs::TYPE, "?C")]),
        Query::with_constraints(
            pattern_graph([("?X", "ex:p0", "?Y")]),
            pattern_graph([("?X", "ex:p0", "?Y")]),
            [Variable::new("X"), Variable::new("Y")],
        )
        .expect("well formed"),
        Query::new(
            pattern_graph([("?X", "ex:witnessed", "_:W")]),
            pattern_graph([("?X", "ex:p0", "?Y")]),
        )
        .expect("well formed"),
        query(
            [("?X", "ex:p0", "?Y"), ("?X", "?Y", "ex:n0")],
            [("?X", "ex:p0", "?Y")],
        ),
        Query::new(
            pattern_graph([("?X", "_:P", "?Y")]),
            pattern_graph([("?X", "ex:p0", "?Y")]),
        )
        .expect("well formed"),
    ]
}

/// Premise queries, each answered on a fork the premise is inserted into:
/// ground premises, RDFS-vocabulary premises (the fork's closure grows by
/// rule joins), blank-bearing premises (capture-prone label `_:B0`
/// deliberately collides with the generators' blank labels), and a premise
/// that is entirely already asserted (an empty insert).
pub fn premise_query_pool(seed: u64) -> Vec<Query> {
    let fresh = format!("ex:prem{seed}");
    let data_premise = graph([
        (fresh.as_str(), "ex:p0", "ex:n0"),
        ("ex:n0", "ex:p1", fresh.as_str()),
    ]);
    vec![
        Query::with_premise(
            pattern_graph([("?X", "ex:p0", "?Y")]),
            pattern_graph([("?X", "ex:p0", "?Y")]),
            data_premise.clone(),
        )
        .expect("well formed"),
        Query::with_premise(
            pattern_graph([("?X", "ex:p0", "?Z")]),
            pattern_graph([("?X", "ex:p0", "?Y"), ("?Y", "ex:p1", "?Z")]),
            data_premise,
        )
        .expect("well formed"),
        Query::with_premise(
            pattern_graph([("?X", rdfs::TYPE, "?C")]),
            pattern_graph([("?X", rdfs::TYPE, "?C")]),
            graph([
                ("ex:p0", rdfs::DOM, "ex:Origin"),
                ("ex:p1", rdfs::SP, "ex:p0"),
            ]),
        )
        .expect("well formed"),
        Query::with_premise(
            pattern_graph([("?X", "ex:p1", "?Y")]),
            pattern_graph([("?X", "ex:p1", "?Y")]),
            graph([("_:B0", "ex:p1", "ex:n1"), ("ex:n1", "ex:p1", "_:B0")]),
        )
        .expect("well formed"),
        Query::with_premise(
            pattern_graph([("?X", "ex:p0", "?Y")]),
            pattern_graph([("?X", "ex:p0", "?Y")]),
            graph([("ex:n0", "ex:p0", "ex:n1")]),
        )
        .expect("well formed"),
        // The second write of the oracle's `refold`: on a fork of its first,
        // `_:B0` folds onto `ex:n1` and `_:b0`'s support is replayed.
        Query::with_premise(
            pattern_graph([("?X", "ex:p0", "?Y")]),
            pattern_graph([("?X", "ex:p0", "?Y")]),
            graph([("ex:n0", "ex:p0", "ex:n1"), ("ex:n1", "ex:p1", "ex:n2")]),
        )
        .expect("well formed"),
    ]
}

pub fn probe_queries() -> Vec<Query> {
    vec![
        query([("?X", "ex:p0", "?Y")], [("?X", "ex:p0", "?Y")]),
        query(
            [("?X", "ex:p0", "?Z")],
            [("?X", "ex:p0", "?Y"), ("?Y", "ex:p1", "?Z")],
        ),
        query(
            [("?X", "ex:p2", "?Z")],
            [
                ("?X", "ex:p0", "?Y"),
                ("?Y", "ex:p1", "?Z"),
                ("?X", "ex:p2", "?Z"),
            ],
        ),
        query([("?X", "?P", "?X")], [("?X", "?P", "?X")]),
        query([("ex:n3", "ex:p1", "?Y")], [("ex:n3", "ex:p1", "?Y")]),
        // A ground premise query: an overlay under either regime, which
        // must be plan-invariant.
        Query::with_premise(
            semweb_foundations::hom::pattern_graph([("?X", "ex:p0", "?Y")]),
            semweb_foundations::hom::pattern_graph([
                ("?X", "ex:p0", "?Y"),
                ("?Y", "ex:p1", "ex:n4"),
            ]),
            graph([("ex:n2", "ex:p1", "ex:n4")]),
        )
        .expect("well formed"),
        // A blank-bearing premise: the overlay in both regimes (`_:b0`
        // deliberately collides with the generated blank labels).
        Query::with_premise(
            semweb_foundations::hom::pattern_graph([("?X", "ex:p1", "?Y")]),
            semweb_foundations::hom::pattern_graph([("?X", "ex:p1", "?Y")]),
            graph([("_:b0", "ex:p1", "ex:n5"), ("ex:n5", "ex:p1", "_:b0")]),
        )
        .expect("well formed"),
        // A head blank: Skolemized single answers, no union-direct path.
        Query::new(
            semweb_foundations::hom::pattern_graph([("?X", "ex:seen", "_:W")]),
            semweb_foundations::hom::pattern_graph([("?X", "ex:p0", "?Y")]),
        )
        .expect("well formed"),
    ]
}

/// Every query the oracle reads; `seed` names the fresh, never-asserted
/// constant of the premise pool.
pub fn pool(seed: u64) -> Vec<Query> {
    let mut pool = query_pool();
    pool.extend(premise_query_pool(seed));
    pool.extend(probe_queries());
    pool
}
