//! Cross-crate integration tests that replay the paper's numbered results on
//! the public API. Each test is named after the theorem, proposition or
//! example it mechanises.
//!
//! The growth results — Thm 3.6(3)'s quadratic closure, Thm 3.12's hard
//! core search and Thm 6.1's data and query complexity — are checked as
//! exact counts at three or more sizes: closure triples, or the search
//! steps a [`Budget`] records. Counts are deterministic, so a test reads no
//! clock.

use std::ops::ControlFlow;

use semweb_foundations::containment::{self, Notion};
use semweb_foundations::entailment::{self, ClosureStats};
use semweb_foundations::graphs::{find_retraction_budgeted, DiGraph};
use semweb_foundations::hom;
use semweb_foundations::model::{encode_edges, graph, isomorphic, rdfs, triple, Graph};
use semweb_foundations::normal;
use semweb_foundations::obs::Budget;
use semweb_foundations::query::{self, Query, Semantics};
use semweb_foundations::store::{IdIndex, TripleStore};
use semweb_foundations::workloads::university::{star_query, student_professor_query};
use semweb_foundations::workloads::{art, sp_chain, university, UniversityConfig};

/// The steps a budget-metered search spent: run `search` under an
/// effectively unbounded step budget and read back what it used.
fn steps_of(search: impl FnOnce(&Budget)) -> u64 {
    let budget = Budget::steps(u64::MAX);
    search(&budget);
    assert!(!budget.is_exhausted());
    u64::MAX - budget.steps_remaining()
}

/// The search steps (candidates visited plus selectivity probes) the
/// id-space solver spends enumerating *every* matching of `q`'s body in
/// `data`.
fn enumeration_steps(q: &Query, data: &Graph) -> u64 {
    let store = TripleStore::from_graph(data);
    let index: IdIndex = store.iter_ids().collect();
    let body = query::compile_body(q.body(), store.dictionary()).expect("constants occur");
    steps_of(|budget| {
        hom::IdSolver::new(body.patterns(), body.variables().len(), &index)
            .with_budget(budget)
            .for_each_solution(&mut |_| ControlFlow::<()>::Continue(()));
    })
}

// ---------- Section 2: entailment ----------

#[test]
fn theorem_2_6_soundness_and_completeness_on_examples() {
    // Derivable goals have verifiable proofs; underivable goals have none and
    // the canonical counter-model refutes them.
    let g = art::figure1();
    let derivable = graph([("art:Picasso", "art:creates", "art:Guernica")]);
    let proof = entailment::prove(&g, &derivable).expect("G ⊢ H");
    assert!(proof.verify(&g, &derivable));
    assert!(entailment::entails(&g, &derivable));

    let underivable = graph([("art:Guernica", "art:creates", "art:Picasso")]);
    assert!(entailment::prove(&g, &underivable).is_none());
    assert!(!entailment::entails(&g, &underivable));
    let model = entailment::Interpretation::canonical(&g);
    assert!(model.is_model_of(&g));
    assert!(!model.is_model_of(&underivable));
}

#[test]
fn theorem_2_8_entailment_iff_map_into_closure() {
    let g1 = graph([
        ("ex:Painter", rdfs::SC, "ex:Artist"),
        ("ex:Picasso", rdfs::TYPE, "ex:Painter"),
    ]);
    let g2 = graph([("_:Someone", rdfs::TYPE, "ex:Artist")]);
    // Entailed, and the witnessing map goes into the closure, not into G1.
    assert!(entailment::entails(&g1, &g2));
    assert!(!hom::exists_map(&g2, &g1));
    let closure = entailment::rdfs_closure(&g1);
    assert!(hom::exists_map(&g2, &closure));
    // For simple graphs the map goes directly into G1 (Theorem 2.8(2)).
    let s1 = graph([("ex:a", "ex:p", "ex:b")]);
    let s2 = graph([("_:X", "ex:p", "ex:b")]);
    assert_eq!(
        entailment::simple_entails(&s1, &s2),
        hom::exists_map(&s2, &s1)
    );
}

#[test]
fn theorem_2_9_entailment_tracks_graph_homomorphism() {
    // The enc(·) reduction: H homomorphic to H' iff enc(H') ⊨ enc(H).
    let pairs = [
        (DiGraph::cycle(6), DiGraph::cycle(3), true), // C6 → C3 (wrap twice)
        (DiGraph::cycle(3), DiGraph::cycle(6), false), // no C3 → C6
        (DiGraph::path(4), DiGraph::cycle(2), true),
    ];
    for (h, h_prime, expected) in pairs {
        let enc_h = encode_edges(&h.edge_list());
        let enc_h_prime = encode_edges(&h_prime.edge_list());
        assert_eq!(
            semweb_foundations::graphs::is_homomorphic(&h, &h_prime),
            expected
        );
        assert_eq!(
            entailment::simple_entails(&enc_h_prime, &enc_h),
            expected,
            "enc(H') ⊨ enc(H) must coincide with H → H'"
        );
    }
}

#[test]
fn theorem_2_10_rdfs_entailment_has_checkable_polynomial_witnesses() {
    let g = art::figure1();
    let goal = graph([
        ("art:Picasso", rdfs::TYPE, "art:Person"),
        ("art:Guernica", rdfs::TYPE, "art:Artifact"),
    ]);
    let proof = entailment::prove(&g, &goal).expect("entailed");
    assert!(proof.verify(&g, &goal));
    // The witness is polynomial: the number of derived triples is bounded by
    // the closure size, which is at most quadratic here.
    assert!(proof.derived_triples() <= g.len() * g.len() + 5 * g.len() + 25);
}

// ---------- Section 3: representations ----------

#[test]
fn theorem_3_6_closure_properties() {
    let g = art::figure1();
    let cl = normal::closure(&g);
    assert_eq!(
        cl,
        entailment::rdfs_closure(&g),
        "cl = RDFS-cl (Theorem 3.6(2))"
    );
    assert!(normal::is_closed(&cl));
    assert!(entailment::equivalent(&g, &cl));
    for t in cl.iter() {
        assert!(
            normal::closure_contains(&g, t),
            "membership test must accept {t}"
        );
    }
    assert!(!normal::closure_contains(
        &g,
        &triple("art:Guernica", "art:paints", "art:Picasso")
    ));

    // Theorem 3.6(3): |cl(G)| ∈ Θ(|G|²). The sp-chain p0 ⊑ … ⊑ pn is the
    // worst case: sp-transitivity closes it to every pair i < j, so the
    // closure holds n(n+1)/2 sp triples plus the reflexive and axiomatic
    // ones, and |cl(G)| / |G|² stays between constants.
    for (n, closure_triples) in [(16, 158), (32, 566), (64, 2_150)] {
        let stats = ClosureStats::for_graph(&sp_chain(n));
        assert_eq!(stats.input_triples, n);
        assert_eq!(stats.closure_triples, closure_triples, "|cl| at n = {n}");
        let ratio = stats.quadratic_ratio();
        assert!(
            (0.5..0.7).contains(&ratio),
            "|cl| / n² = {ratio} at n = {n}"
        );
    }
}

#[test]
fn theorem_3_10_and_3_11_cores() {
    let redundant = graph([
        ("ex:a", "ex:p", "_:X"),
        ("ex:a", "ex:p", "_:Y"),
        ("_:Y", "ex:q", "ex:b"),
        ("ex:a", "ex:p", "ex:c"),
        ("ex:c", "ex:q", "ex:b"),
    ]);
    let core = normal::core(&redundant);
    assert!(core.is_subgraph_of(&redundant));
    assert!(normal::is_lean(&core));
    assert!(entailment::equivalent(&core, &redundant));
    // Theorem 3.11(2): equivalence iff isomorphic cores (simple graphs).
    let other = graph([("ex:a", "ex:p", "ex:c"), ("ex:c", "ex:q", "ex:b")]);
    assert!(entailment::simple_equivalent(&redundant, &other));
    assert!(isomorphic(&normal::core(&redundant), &normal::core(&other)));
}

#[test]
fn theorem_3_12_core_identification_through_graph_encodings() {
    // The RDF encodings of an even cycle and of a single (symmetric) edge:
    // the edge is the core of the cycle.
    let c6 = semweb_foundations::workloads::hard::redundant_cycle(3);
    let k2 = encode_edges(&DiGraph::complete(2).edge_list());
    assert!(!normal::is_lean(&c6));
    assert!(normal::is_core_of(&k2, &c6));
    assert!(!normal::is_core_of(&c6, &c6));

    // The search behind it grows exponentially on the worst case: every
    // K_k is a core, so looking for a retraction fails only after trying
    // every map into K_k minus a vertex, for every vertex.
    let mut previous = 0;
    for (k, expected) in [(3, 30), (4, 192), (5, 1_300)] {
        let steps = steps_of(|budget| {
            assert!(find_retraction_budgeted(&DiGraph::complete(k), Some(budget)).is_none());
        });
        assert_eq!(steps, expected, "retraction-search steps on K_{k}");
        assert!(steps >= 6 * previous, "growth from K_{} to K_{k}", k - 1);
        previous = steps;
    }
}

#[test]
fn theorem_3_16_unique_minimal_representation_for_well_behaved_schemas() {
    let g = semweb_foundations::workloads::schema_graph(
        &semweb_foundations::workloads::SchemaGraphConfig {
            classes: 8,
            properties: 4,
            instances: 10,
            data_triples: 15,
            edge_probability: 0.4,
        },
        99,
    );
    assert!(normal::has_unique_minimal_representation(&g));
    let reprs = normal::distinct_minimal_representations(&g, 4);
    assert_eq!(reprs.len(), 1);
    assert!(entailment::equivalent(&reprs[0], &g));
    assert!(reprs[0].is_subgraph_of(&g));
}

#[test]
fn theorem_3_19_normal_forms_decide_equivalence() {
    let g = graph([
        ("ex:a", rdfs::SC, "ex:b"),
        ("ex:b", rdfs::SC, "_:N"),
        ("_:N", rdfs::SC, "ex:c"),
    ]);
    let h = graph([
        ("ex:a", rdfs::SC, "ex:b"),
        ("ex:b", rdfs::SC, "ex:c"),
        ("ex:a", rdfs::SC, "ex:c"),
    ]);
    let unrelated = graph([("ex:a", rdfs::SC, "ex:z")]);
    assert!(normal::equivalent_by_normal_form(&g, &h));
    assert_eq!(
        normal::equivalent_by_normal_form(&g, &h),
        entailment::equivalent(&g, &h)
    );
    assert!(!normal::equivalent_by_normal_form(&g, &unrelated));
}

// ---------- Section 4: queries ----------

#[test]
fn definition_4_3_answers_are_computed_over_the_normal_form() {
    // Equivalent databases give isomorphic answers (Theorem 4.6), because
    // matching happens against nf(D + P).
    let d1 = graph([
        ("art:paints", rdfs::SP, "art:creates"),
        ("art:Picasso", "art:paints", "art:Guernica"),
        ("art:Picasso", "art:paints", "_:ghost"),
    ]);
    let d2 = graph([
        ("art:paints", rdfs::SP, "art:creates"),
        ("art:Picasso", "art:paints", "art:Guernica"),
    ]);
    assert!(entailment::equivalent(&d1, &d2));
    let q = query::query([("?X", "art:creates", "?Y")], [("?X", "art:creates", "?Y")]);
    let a1 = query::answer_union(&q, &d1);
    let a2 = query::answer_union(&q, &d2);
    assert!(isomorphic(&a1, &a2));
    assert!(a1.contains(&triple("art:Picasso", "art:creates", "art:Guernica")));
}

#[test]
fn proposition_4_5_and_note_4_7_union_vs_merge() {
    let d = graph([("_:X", "ex:b", "ex:c"), ("_:X", "ex:b", "ex:d")]);
    let id = Query::identity();
    let union = query::answer(&id, &d, Semantics::Union);
    let merge = query::answer(&id, &d, Semantics::Merge);
    assert!(entailment::equivalent(&union, &d));
    assert!(entailment::entails(&union, &merge), "Proposition 4.5(2)");
    assert!(!entailment::equivalent(&merge, &d), "Note 4.7");
}

#[test]
fn section_4_2_premises_extend_answers() {
    let data = graph([
        ("ex:John", "ex:son", "ex:Peter"),
        ("ex:Ann", "ex:relative", "ex:Peter"),
    ]);
    let plain = query::query(
        [("?X", "ex:relative", "ex:Peter")],
        [("?X", "ex:relative", "ex:Peter")],
    );
    let premised = Query::with_premise(
        hom::pattern_graph([("?X", "ex:relative", "ex:Peter")]),
        hom::pattern_graph([("?X", "ex:relative", "ex:Peter")]),
        graph([("ex:son", rdfs::SP, "ex:relative")]),
    )
    .unwrap();
    let without = query::answer_union(&plain, &data);
    let with = query::answer_union(&premised, &data);
    assert_eq!(without.len(), 1);
    assert_eq!(with.len(), 2);
    assert!(with.contains(&triple("ex:John", "ex:relative", "ex:Peter")));
}

// ---------- Section 5: containment ----------

#[test]
fn proposition_5_2_and_example_5_3() {
    // Standard containment implies entailment-based containment; the blank
    // head example separates them.
    let body = hom::pattern_graph([("?X", "ex:p", "ex:c")]);
    let q = Query::new(hom::pattern_graph([("ex:c", "ex:q", "?X")]), body.clone()).unwrap();
    let q_prime = Query::new(hom::pattern_graph([("_:Y", "ex:q", "?X")]), body).unwrap();
    assert!(containment::contained_in(
        &q_prime,
        &q,
        Notion::EntailmentBased
    ));
    assert!(!containment::contained_in(&q_prime, &q, Notion::Standard));
    // And whenever ⊑p holds, ⊑m holds.
    assert!(containment::contained_in(&q, &q, Notion::Standard));
    assert!(containment::contained_in(&q, &q, Notion::EntailmentBased));
}

#[test]
fn proposition_5_9_premise_elimination_preserves_answers_end_to_end() {
    let q = Query::with_premise(
        hom::pattern_graph([("?X", "ex:p", "?Y")]),
        hom::pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
        graph([("ex:a", "ex:t", "ex:s"), ("ex:b", "ex:t", "ex:s")]),
    )
    .unwrap();
    let expansion = query::premise_free_expansion(&q);
    assert!(expansion.len() >= 3);
    let d = semweb_foundations::workloads::simple_graph(
        &semweb_foundations::workloads::SimpleGraphConfig {
            triples: 40,
            predicates: 3,
            blank_probability: 0.1,
            ..Default::default()
        },
        5,
    );
    // Rename the generator's predicates into the query's vocabulary so some
    // answers exist.
    let mut d: Graph = d
        .iter()
        .map(|t| {
            let p = match t.predicate().as_str() {
                "ex:p0" => "ex:q",
                "ex:p1" => "ex:t",
                other => other,
            };
            triple(&t.subject().to_string(), p, &t.object().to_string())
        })
        .collect();
    // Plant answers that exercise both halves of the expansion: one match
    // completed by the premise, one entirely inside the data.
    d.insert(triple("ex:n1", "ex:q", "ex:a"));
    d.insert(triple("ex:n2", "ex:q", "ex:n3"));
    d.insert(triple("ex:n3", "ex:t", "ex:s"));
    let direct = query::answer_union(&q, &d);
    assert!(direct.len() >= 2, "planted matches must be found: {direct}");
    let expanded = query::answer_union_of_queries(&expansion, &d, Semantics::Union);
    assert!(isomorphic(&direct, &expanded));
}

#[test]
fn theorem_5_8_containment_with_right_premise() {
    let q = query::query(
        [("?X", "ex:p", "?Y")],
        [("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")],
    );
    let q_premised = Query::with_premise(
        hom::pattern_graph([("?X", "ex:p", "?Y")]),
        hom::pattern_graph([("?X", "ex:q", "?Y"), ("?Y", "ex:t", "ex:s")]),
        graph([("ex:a", "ex:t", "ex:s")]),
    )
    .unwrap();
    assert!(containment::contained_in(&q, &q_premised, Notion::Standard));
    assert!(!containment::contained_in(
        &q_premised,
        &q,
        Notion::Standard
    ));
}

// ---------- Section 6: complexity-facing behaviour ----------

/// Theorem 6.1, both halves, as solver step counts. Data complexity: the
/// fixed join query enumerates every matching within one step per data
/// triple as the university grows. Query complexity: over fixed data,
/// each atom added to the star query multiplies the steps by at least 4,
/// growth exponential in the body, where a degree-`d` polynomial's
/// per-atom factor `(1 + 1/w)^d` falls towards 1. The count is enumeration
/// cost: a star with `w` atoms has `courses^w` matchings and the search
/// visits each one, so it shows the output growing, not the hardness of
/// the emptiness problem itself.
#[test]
fn theorem_6_1_fixed_query_evaluation_is_feasible_on_growing_data() {
    let q = student_professor_query();
    for (departments, triples, expected) in [(1, 73, 23), (2, 132, 46), (4, 247, 96)] {
        let d = university(
            &UniversityConfig {
                departments,
                ..Default::default()
            },
            7,
        );
        assert!(!query::answer_is_empty(&q, &d));
        assert_eq!(d.len(), triples);
        let steps = enumeration_steps(&q, &d);
        assert_eq!(steps, expected, "steps at {departments} departments");
        assert!(
            steps <= d.len() as u64,
            "{steps} steps over {triples} triples"
        );
    }

    let fixed = university(&UniversityConfig::default(), 7);
    let mut previous = 0;
    for (width, expected) in [(2, 83), (3, 444), (4, 2_255), (5, 11_316)] {
        let steps = enumeration_steps(&star_query(width), &fixed);
        assert_eq!(steps, expected, "steps for a {width}-atom star");
        assert!(steps >= 4 * previous, "growth to {width} atoms");
        previous = steps;
    }
}

#[test]
fn theorems_6_2_and_6_3_redundancy_elimination() {
    let g2 = graph([
        ("ex:a", "ex:p", "_:X"),
        ("ex:a", "ex:p", "_:Y"),
        ("_:X", "ex:q", "ex:b"),
        ("_:Y", "ex:r", "ex:b"),
    ]);
    let q = query::query([("?Z", "ex:p", "?U")], [("?Z", "ex:p", "?U")]);
    assert!(!query::answer_is_lean(&q, &g2, Semantics::Union));
    // The merge-semantics polynomial check agrees with the generic one.
    assert_eq!(
        query::merge_answer_is_lean(&q, &g2),
        query::answer_is_lean(&q, &g2, Semantics::Merge)
    );
    let cleaned = query::eliminate_redundancy(&query::answer_union(&q, &g2));
    assert!(normal::is_lean(&cleaned));
}
