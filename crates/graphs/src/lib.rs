//! # swdb-graphs — classical directed graphs
//!
//! Substrate crate providing the "standard graphs" `H = (V, E)` used by
//! *Foundations of Semantic Web Databases* in §2.4 and §3.2: graph
//! homomorphism and isomorphism, graph cores (Hell–Nešetřil), colourability
//! and clique detection (the NP-hard problems the paper reduces from), and
//! transitive closure/reduction (Aho–Garey–Ullman, behind Example 3.14 and
//! Theorem 3.16). Seeded random generators feed the workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod digraph;
pub mod homomorphism;
pub mod random;
pub mod transitive;

pub use crate::core::{core, find_retraction, find_retraction_budgeted, is_core, is_core_of};
pub use digraph::DiGraph;
pub use homomorphism::{
    find_homomorphism, find_homomorphism_budgeted, find_isomorphism, has_clique, has_triangle,
    homomorphically_equivalent, is_homomorphic, is_k_colorable, isomorphic, verify_homomorphism,
};
pub use random::{gnp, planted_3_colorable, random_dag, undirected_gnp};
pub use transitive::{
    is_acyclic, reachable, topological_sort, transitive_closure, transitive_reduction,
};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::digraph::DiGraph;
    use crate::homomorphism::{is_homomorphic, verify_homomorphism};
    use crate::transitive::{is_acyclic, transitive_closure, transitive_reduction};

    fn arb_edges(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0..max_nodes, 0..max_nodes), 0..=max_edges)
    }

    proptest! {
        #[test]
        fn homomorphism_witnesses_verify(edges in arb_edges(5, 8)) {
            let g = DiGraph::from_edges(edges);
            let k3 = DiGraph::complete(3);
            if let Some(h) = crate::homomorphism::find_homomorphism(&g, &k3) {
                prop_assert!(verify_homomorphism(&g, &k3, &h));
            }
        }

        #[test]
        fn every_graph_maps_into_itself(edges in arb_edges(6, 10)) {
            let g = DiGraph::from_edges(edges);
            prop_assert!(is_homomorphic(&g, &g));
        }

        #[test]
        fn transitive_closure_is_idempotent(edges in arb_edges(6, 10)) {
            let g = DiGraph::from_edges(edges);
            let c = transitive_closure(&g);
            prop_assert_eq!(transitive_closure(&c), c);
        }

        #[test]
        fn reduction_preserves_closure_on_dags(edges in arb_edges(7, 12)) {
            // Force acyclicity by orienting edges upward.
            let dag = DiGraph::from_edges(
                edges.into_iter().filter(|(u, v)| u < v),
            );
            prop_assert!(is_acyclic(&dag));
            let r = transitive_reduction(&dag);
            prop_assert_eq!(transitive_closure(&r), transitive_closure(&dag));
            prop_assert!(r.edge_count() <= dag.edge_count());
        }

        #[test]
        fn core_is_homomorphically_equivalent_to_input(edges in arb_edges(5, 7)) {
            let g = DiGraph::from_edges(edges);
            let c = crate::core::core(&g);
            prop_assert!(is_homomorphic(&g, &c));
            prop_assert!(is_homomorphic(&c, &g));
            prop_assert!(crate::core::is_core(&c));
        }
    }
}
