//! The semantic closure `cl(G)` (Definition 3.5, Theorem 3.6).
//!
//! The naive notion of closure (Definition 3.1: a maximal equivalent
//! extension over `universe(G)` plus the vocabulary) is not unique in the
//! presence of blank nodes — Example 3.2. The robust definition Skolemizes
//! first: for ground graphs the closure is the maximal ground equivalent
//! extension (which coincides with `RDFS-cl`), and for general graphs
//! `cl(G) = (cl(G*))_*`. Theorem 3.6 shows the result is unique, coincides
//! with `RDFS-cl(G)`, has size `Θ(|G|²)` and supports membership tests in
//! `O(|G| log |G|)`.

use swdb_model::{skolemize, unskolemize, Graph, Triple};

/// Computes the closure `cl(G)` via the Skolemization route of
/// Definition 3.5: `cl(G) = (RDFS-cl(G*))_*`.
pub fn closure(g: &Graph) -> Graph {
    if g.is_ground() {
        return swdb_entailment::rdfs_closure(g);
    }
    let skolemized = skolemize(g);
    let closed = swdb_entailment::rdfs_closure(&skolemized);
    unskolemize(&closed)
}

/// Decides membership `t ∈ cl(G)` without materialising the closure
/// (Theorem 3.6(4)).
pub fn closure_contains(g: &Graph, t: &Triple) -> bool {
    // Blanks behave exactly like constants during rule application, so the
    // entailment-layer membership test applies verbatim.
    swdb_entailment::closure_contains(g, t)
}

/// Checks that a graph is *closed*: applying the deduction rules adds
/// nothing. Closures are closed; this is the maximality half of
/// Definition 3.1 restricted to rule-derivable triples.
pub fn is_closed(g: &Graph) -> bool {
    swdb_entailment::rdfs_closure(g) == *g
}

/// Quantifies how much larger the closure is than the input: the `Θ(|G|²)`
/// growth of Theorem 3.6(3), which
/// `tests/paper_results.rs::theorem_3_6_closure_properties` pins.
pub fn closure_growth(g: &Graph) -> (usize, usize) {
    (g.len(), closure(g).len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_model::{graph, rdfs, triple};

    #[test]
    fn theorem_3_6_2_cl_coincides_with_rdfs_cl() {
        let cases = vec![
            graph([("ex:a", "ex:p", "ex:b")]),
            graph([
                ("ex:Painter", rdfs::SC, "ex:Artist"),
                ("_:X", rdfs::TYPE, "ex:Painter"),
            ]),
            graph([
                ("ex:paints", rdfs::SP, "ex:creates"),
                ("ex:creates", rdfs::DOM, "ex:Artist"),
                ("_:X", "ex:paints", "_:Y"),
            ]),
            Graph::new(),
        ];
        for g in cases {
            assert_eq!(
                closure(&g),
                swdb_entailment::rdfs_closure(&g),
                "cl and RDFS-cl must coincide (Lemma 3.4 / Theorem 3.6(2)) for {g}"
            );
        }
    }

    #[test]
    fn closure_treats_blanks_as_constants() {
        let g = graph([
            ("ex:Painter", rdfs::SC, "ex:Artist"),
            ("_:X", rdfs::TYPE, "ex:Painter"),
        ]);
        let cl = closure(&g);
        assert!(cl.contains(&triple("_:X", rdfs::TYPE, "ex:Artist")));
        // The original blank label is preserved by the Skolemization round
        // trip.
        assert!(cl.contains(&triple("_:X", rdfs::TYPE, "ex:Painter")));
    }

    #[test]
    fn closures_are_closed_and_idempotent() {
        let g = graph([
            ("ex:A", rdfs::SC, "ex:B"),
            ("ex:B", rdfs::SC, "ex:C"),
            ("_:W", rdfs::TYPE, "ex:A"),
        ]);
        let cl = closure(&g);
        assert!(is_closed(&cl));
        assert_eq!(closure(&cl), cl);
        assert!(!is_closed(&g));
    }

    #[test]
    fn closure_is_equivalent_to_the_input() {
        let g = graph([
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("ex:Picasso", "ex:paints", "_:Work"),
        ]);
        let cl = closure(&g);
        assert!(swdb_entailment::equivalent(&g, &cl));
    }

    #[test]
    fn example_3_2_shape_naive_closures_are_not_unique_but_cl_is() {
        // Example 3.2: with (a, p, c), (a, p, X), (c, r, d), (b, q, d) …the
        // graph admits distinct maximal equivalent extensions (adding
        // (X, r, d) or (X, q, d)), but cl(G) adds neither: it only contains
        // rule-derivable triples.
        let g = graph([
            ("ex:a", "ex:p", "ex:c"),
            ("ex:a", "ex:p", "_:X"),
            ("ex:a", "ex:p", "ex:b"),
            ("ex:c", "ex:r", "ex:d"),
            ("ex:b", "ex:q", "ex:d"),
        ]);
        let cl = closure(&g);
        assert!(!cl.contains(&triple("_:X", "ex:r", "ex:d")));
        assert!(!cl.contains(&triple("_:X", "ex:q", "ex:d")));
        // Yet adding either of them would keep the graph equivalent — that is
        // exactly the non-uniqueness of the naive Definition 3.1.
        let mut with_r = g.clone();
        with_r.insert(triple("_:X", "ex:r", "ex:d"));
        let mut with_q = g.clone();
        with_q.insert(triple("_:X", "ex:q", "ex:d"));
        assert!(swdb_entailment::equivalent(&g, &with_r));
        assert!(swdb_entailment::equivalent(&g, &with_q));
        assert!(!swdb_model::isomorphic(&with_r, &with_q));
    }

    #[test]
    fn lemma_3_3_rdfs_cl_is_contained_in_every_naive_closure() {
        // Any maximal equivalent extension must contain every rule-derivable
        // triple.
        let g = graph([("ex:A", rdfs::SC, "ex:B"), ("_:X", rdfs::TYPE, "ex:A")]);
        let cl = closure(&g);
        // Simulate a "naive closure": add an extra equivalent triple and
        // saturate.
        let mut naive = g.clone();
        naive.insert(triple("_:Y", rdfs::TYPE, "ex:A"));
        let naive = swdb_entailment::rdfs_closure(&naive);
        assert!(swdb_entailment::equivalent(&naive, &g));
        for t in cl.iter() {
            assert!(
                naive.contains(t) || t.subject().is_blank() || t.object().is_blank(),
                "ground rule-derivable triples must appear in any naive closure"
            );
        }
    }

    #[test]
    fn closure_growth_reports_sizes() {
        let mut g = Graph::new();
        for i in 0..10 {
            g.insert(triple(
                &format!("ex:c{i}"),
                rdfs::SC,
                &format!("ex:c{}", i + 1),
            ));
        }
        let (input, output) = closure_growth(&g);
        assert_eq!(input, 10);
        assert!(output >= 10 + 45, "transitive closure adds Θ(n²) triples");
    }
}
