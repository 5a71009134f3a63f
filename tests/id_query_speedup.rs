//! Two ratio pins on the id-space read path, at scales that stay fast in
//! debug builds (best-of-N on both sides of each ratio): premise-free
//! answering beats the string-space evaluator by a conservative 5× once the
//! evaluation structures are warm, and a point read through the live facade
//! costs no multiple of the same read on a pinned snapshot however many
//! blank components the store holds.

use std::time::{Duration, Instant};

use semweb_foundations::core::{SemanticWebDatabase, Semantics};
use semweb_foundations::model::{triple, Graph};
use semweb_foundations::query::{answer_against, query, NormalizedDatabase};
use semweb_foundations::workloads::{university, UniversityConfig};

fn best_of(n: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("n > 0")
}

#[test]
fn warm_id_space_answering_beats_string_space_by_5x() {
    let data = university(
        &UniversityConfig {
            departments: 12,
            courses_per_department: 8,
            professors_per_department: 4,
            students_per_department: 20,
            enrollments_per_student: 3,
        },
        0xE18,
    );
    let q = semweb_foundations::workloads::university::workers_query();

    // String-space warm path: the evaluation graph is already normalized,
    // but every call rebuilds the term-keyed GraphIndex and joins on
    // cloned terms — exactly what the facade did per query before the id
    // engine.
    let normalized = NormalizedDatabase::without_premise(&data);
    // Id-space warm path: the facade compiles the query against the
    // dictionary and joins over the cached id-index.
    let mut db = SemanticWebDatabase::from_graph(data);
    assert_eq!(
        db.answer(&q, Semantics::Union),
        answer_against(&q, &normalized, Semantics::Union),
        "both paths must agree before being compared on speed"
    );

    let string_time = best_of(3, || {
        std::hint::black_box(answer_against(&q, &normalized, Semantics::Union));
    });
    let id_time = best_of(3, || {
        std::hint::black_box(db.answer(&q, Semantics::Union));
    });
    assert!(
        string_time >= id_time * 5,
        "expected >=5x speedup: string-space {string_time:?} vs id-space {id_time:?}"
    );
}

/// Both readers build the same engine over the same index, so anything the
/// facade does per read that grows with the number of blank components —
/// 10⁴ single-blank components with distinct objects, so nothing folds —
/// shows up as a multiple of the snapshot's cost.
#[test]
fn a_facade_point_read_costs_no_multiple_of_a_snapshot_read_on_a_blank_heavy_store() {
    let mut data = Graph::new();
    for i in 0..10_000 {
        data.insert(triple(&format!("_:b{i}"), "ex:p", &format!("ex:o{i}")));
    }
    data.insert(triple("ex:a", "ex:q", "ex:b"));
    let mut db = SemanticWebDatabase::from_graph(data);
    let q = query([("?X", "ex:q", "?Y")], [("?X", "ex:q", "?Y")]);
    assert_eq!(db.answer(&q, Semantics::Union).len(), 1);
    let snapshot = db.publish();
    const READS: u32 = 200;
    let facade = best_of(5, || {
        for _ in 0..READS {
            std::hint::black_box(db.answer(&q, Semantics::Union));
        }
    }) / READS;
    let pinned = best_of(5, || {
        for _ in 0..READS {
            std::hint::black_box(snapshot.answer(&q, Semantics::Union).expect("premise free"));
        }
    }) / READS;
    assert!(
        facade <= pinned * 5 + Duration::from_micros(1),
        "a facade point read ({facade:?}) costs a multiple of the snapshot's ({pinned:?})"
    );
}
