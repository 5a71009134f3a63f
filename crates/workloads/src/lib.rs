//! # swdb-workloads — synthetic workload generators
//!
//! Seeded, reproducible generators for every experiment in `swdb-bench`:
//!
//! * [`art`] — the Fig. 1 art-gallery graph and its queries (E01, E11);
//! * [`random_rdf`] — random simple graphs, random RDFS schema graphs,
//!   redundancy injection, `sp`/`sc` chains and blank chains (E02, E05, E06,
//!   E08, E10);
//! * [`hard`] — graph-homomorphism encodings: colourability, cliques,
//!   (non-)lean cycles (E03, E08), and the adversarial core family —
//!   blank cliques, hidden folds, deep chains, wide fans — behind the
//!   degraded-mode tests (`crates/core/tests/adversarial_budget.rs`);
//! * [`university`](mod@university) — a LUBM-style university instance with schema-aware
//!   queries (E11, E15, E16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod art;
pub mod hard;
pub mod random_rdf;
pub mod university;

pub use hard::{blank_clique, deep_blank_chain, hidden_fold_instance, wide_blank_fan};
pub use random_rdf::{
    blank_chain, inject_blank_redundancy, sc_chain_with_instance, schema_graph, simple_graph,
    sp_chain, SchemaGraphConfig, SimpleGraphConfig,
};
pub use university::{university, UniversityConfig};
