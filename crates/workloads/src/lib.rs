//! # swdb-workloads — synthetic workload generators
//!
//! Seeded, reproducible generators behind the tests and examples; the
//! paper's results are checked on them in `tests/paper_results.rs`:
//!
//! * [`art`] — the Fig. 1 art-gallery graph and its queries;
//! * [`random_rdf`] — random simple graphs, random RDFS schema graphs,
//!   redundancy injection and the `sp`-chain of Thm 3.6(3);
//! * [`hard`] — graph-homomorphism encodings: the non-lean even cycle of
//!   Thm 3.12, and the adversarial core family — blank cliques, hidden
//!   folds, deep chains, wide fans — behind the degraded-mode tests
//!   (`crates/core/tests/adversarial_budget.rs`);
//! * [`university`](mod@university) — a LUBM-style university instance with
//!   schema-aware queries, among them the fixed join and the growing star
//!   of Thm 6.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod art;
pub mod hard;
pub mod random_rdf;
pub mod university;

pub use hard::{blank_clique, deep_blank_chain, hidden_fold_instance, wide_blank_fan};
pub use random_rdf::{
    inject_blank_redundancy, schema_graph, simple_graph, sp_chain, SchemaGraphConfig,
    SimpleGraphConfig,
};
pub use university::{university, UniversityConfig};
