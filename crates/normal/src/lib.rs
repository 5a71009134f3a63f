//! # swdb-normal — representations and normal forms of RDF graphs
//!
//! Implements §3 of *Foundations of Semantic Web Databases*:
//!
//! * [`lean`] — lean graphs and non-leanness witnesses (Definition 3.7,
//!   Theorem 3.12(1));
//! * [`core`](mod@core) — cores of RDF graphs with witnessing retractions
//!   (Theorems 3.10–3.12);
//! * [`closure`](mod@closure) — the semantic closure `cl(G)` via Skolemization
//!   (Definition 3.5, Theorem 3.6) and its relation to `RDFS-cl`;
//! * [`minimal`] — minimal representations, their non-uniqueness in general
//!   (Examples 3.14/3.15) and the unique case of Theorem 3.16;
//! * [`nf`] — the normal form `nf(G) = core(cl(G))` (Definition 3.18,
//!   Theorems 3.19/3.20);
//! * [`components`] / [`id_core`] — the production-path core: blank-node
//!   component decomposition and the incremental, id-space core engine that
//!   maintains `core(·)` under deltas instead of recomputing it (the
//!   [`core`](mod@core) module remains the executable specification it is pinned
//!   against).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closure;
pub mod components;
pub mod core;
pub mod id_core;
pub mod lean;
pub mod minimal;
pub mod nf;

pub use crate::core::{core, core_with_witness, is_core_of, is_own_core, CoreComputation};
pub use closure::{closure, closure_contains, closure_growth, is_closed};
pub use components::{blank_components, BlankComponent};
pub use id_core::{
    ComponentState, CoreBudget, CoreBudgetMode, CoreEngineState, EvalOverlay, IdCoreEngine,
};
pub use lean::{find_non_lean_witness, is_lean, verify_non_lean_witness, NonLeanWitness};
pub use minimal::{
    distinct_minimal_representations, has_unique_minimal_representation, is_redundant_in,
    minimal_representation, minimal_representation_with_preference, relation_is_acyclic,
    reserved_vocabulary_in_node_position,
};
pub use nf::{equivalent_by_normal_form, is_in_normal_form, is_normal_form_of, normal_form};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use swdb_model::{isomorphic, rdfs, Graph, Term, Triple};

    use crate::core::core;
    use crate::lean::is_lean;
    use crate::nf::normal_form;

    fn arb_graph(max_triples: usize) -> impl Strategy<Value = Graph> {
        let node = prop_oneof![
            (0u8..4).prop_map(|i| Term::iri(format!("ex:n{i}"))),
            (0u8..3).prop_map(|i| Term::blank(format!("B{i}"))),
        ];
        let schema_node = (0u8..3).prop_map(|i| Term::iri(format!("ex:C{i}")));
        let triple = prop_oneof![
            3 => (node.clone(), (0u8..2), node.clone()).prop_map(|(s, p, o)| Triple::new(
                s,
                swdb_model::Iri::new(format!("ex:p{p}")),
                o
            )),
            1 => (schema_node.clone(), schema_node.clone())
                .prop_map(|(a, b)| Triple::new(a, swdb_model::Iri::new(rdfs::SC), b)),
            1 => (node, schema_node)
                .prop_map(|(x, c)| Triple::new(x, swdb_model::Iri::new(rdfs::TYPE), c)),
        ];
        proptest::collection::vec(triple, 0..=max_triples).prop_map(Graph::from_triples)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn core_is_lean_subgraph_equivalent_to_input(g in arb_graph(7)) {
            let c = core(&g);
            prop_assert!(c.is_subgraph_of(&g));
            prop_assert!(is_lean(&c));
            prop_assert!(swdb_entailment::equivalent(&g, &c));
        }

        #[test]
        fn core_is_idempotent_up_to_iso(g in arb_graph(7)) {
            let c = core(&g);
            prop_assert!(isomorphic(&core(&c), &c));
        }

        #[test]
        fn normal_form_is_equivalent_and_idempotent(g in arb_graph(5)) {
            let nf = normal_form(&g);
            prop_assert!(swdb_entailment::equivalent(&g, &nf));
            prop_assert!(isomorphic(&normal_form(&nf), &nf));
        }

        #[test]
        fn normal_form_is_syntax_independent_under_renaming(g in arb_graph(5)) {
            let renamed = swdb_model::rename_blanks_sequentially(&g, "zz");
            prop_assert!(isomorphic(&normal_form(&g), &normal_form(&renamed)));
        }

        #[test]
        fn adding_a_redundant_blank_copy_does_not_change_the_normal_form(g in arb_graph(5)) {
            // Duplicate an arbitrary triple with a fresh blank object: the
            // result is equivalent, so the normal forms must be isomorphic.
            if let Some(t) = g.iter().next().cloned() {
                let mut extended = g.clone();
                extended.insert(Triple::new(
                    t.subject().clone(),
                    t.predicate().clone(),
                    Term::blank("freshcopy"),
                ));
                prop_assert!(swdb_entailment::equivalent(&g, &extended));
                prop_assert!(isomorphic(&normal_form(&g), &normal_form(&extended)));
            }
        }

        #[test]
        fn minimal_representation_is_contained_and_equivalent(g in arb_graph(5)) {
            let m = crate::minimal::minimal_representation(&g);
            prop_assert!(m.is_subgraph_of(&g));
            prop_assert!(swdb_entailment::equivalent(&g, &m));
        }

        #[test]
        fn ground_graphs_are_lean(g in arb_graph(7)) {
            let ground = swdb_model::skolemize(&g);
            prop_assert!(is_lean(&ground));
        }
    }
}
