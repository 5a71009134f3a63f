//! Hard instances: the graph-homomorphism encodings behind the paper's
//! hardness results.
//!
//! Theorem 2.9 reduces graph homomorphism to simple entailment via
//! `enc(H)`; Theorem 3.12 reduces the Core and Core Identification problems
//! to leanness and core identification. These generators produce the
//! instances the reductions use; `tests/paper_results.rs` checks the
//! theorems on them.

use swdb_graphs::DiGraph;
use swdb_model::{encode_edges_with, Graph, Iri, Term, Triple};

/// The predicate used for encoded edges.
pub fn edge_predicate() -> Iri {
    Iri::new(swdb_model::EDGE_PREDICATE)
}

/// Encodes a classical directed graph as a simple RDF graph, `enc(H)`.
pub fn encode(h: &DiGraph, prefix: &str) -> Graph {
    encode_edges_with(&h.edge_list(), &edge_predicate(), prefix)
}

/// An RDF graph that is not lean because an even blank cycle of length
/// `2 * n` retracts onto a single edge attached to it. Used to scale the
/// leanness workload.
pub fn redundant_cycle(n: usize) -> Graph {
    let cycle = DiGraph::from_undirected_edges((0..2 * n).map(|i| (i, (i + 1) % (2 * n))));
    encode(&cycle, "c")
}

// ----- adversarial core workloads (degraded-mode family) -----
//
// The generators below target the *core maintenance* path specifically:
// each produces blank structure whose per-component retraction search is
// slow, deep, or wide, so that a budgeted `IdCoreEngine` has something to
// degrade on and an unbudgeted one something to stall on.

/// The canonical budget-buster: `enc(K_n)` as a single all-blank component
/// of `n·(n−1)` triples. `K_n` is a core, so the graph is lean — but an
/// unbudgeted core search must *prove* that by exhausting one NP-hard
/// retraction search per blank, which past `n ≈ 10` takes minutes. A
/// budgeted engine publishes the same (already minimal) triples within its
/// slice and merely flags them unproven.
pub fn blank_clique(n: usize) -> Graph {
    encode(&DiGraph::complete(n), "q")
}

/// A planted fold instance: a random 3-colourable all-blank graph plus a
/// **ground** URI triangle it can retract onto (a 3-colouring is exactly a
/// homomorphism into `K_3`, and the encoding preserves it). The fold
/// exists but is hidden — finding it is the hidden-colouring search — so
/// an unbudgeted engine eventually shrinks the whole blank component onto
/// the triangle, while a budgeted one may publish intermediate survivors
/// uncored. Both published states are sound supersets of the core, which
/// is the six ground triangle triples.
pub fn hidden_fold_instance(nodes: usize, density: f64, seed: u64) -> Graph {
    let planted = swdb_graphs::planted_3_colorable(nodes, density, seed);
    let mut g = encode(&DiGraph::from_undirected_edges(planted.edges()), "v");
    let p = edge_predicate();
    for (a, b) in [(0usize, 1usize), (1, 2), (2, 0)] {
        g.insert(Triple::new(ground_color(a), p.clone(), ground_color(b)));
        g.insert(Triple::new(ground_color(b), p.clone(), ground_color(a)));
    }
    g
}

fn ground_color(i: usize) -> Term {
    Term::iri(format!("ex:color{i}"))
}

/// A deep all-blank directed chain of `len` edges: one large component
/// that is its own core (a directed path admits no retraction), stressing
/// the budget bookkeeping on a *deep* benign component — many cheap
/// per-blank searches instead of one explosive one.
pub fn deep_blank_chain(len: usize) -> Graph {
    encode(&DiGraph::path(len + 1), "d")
}

/// A wide co-occurrence fan: one ground absorber triple plus `width`
/// redundant blank spokes on the same subject and predicate. Every spoke
/// is its own singleton component that folds onto the absorber in one
/// step, so the graph exercises per-component budget *slicing* across many
/// components (and the quiet-refresh retry over all of them) rather than
/// search depth. Its core is the single ground triple.
pub fn wide_blank_fan(width: usize) -> Graph {
    let p = edge_predicate();
    let hub = Term::iri("ex:hub");
    let mut g = Graph::default();
    g.insert(Triple::new(hub.clone(), p.clone(), Term::iri("ex:spoke")));
    for i in 0..width {
        g.insert(Triple::new(
            hub.clone(),
            p.clone(),
            Term::blank(format!("w{i}")),
        ));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_cliques_are_lean_single_components() {
        let g = blank_clique(4);
        assert!(g.is_simple());
        assert_eq!(g.len(), 12);
        assert_eq!(g.blank_nodes().len(), 4);
        assert!(
            swdb_normal::is_lean(&g),
            "K4's encoding is its own core — the search only proves it"
        );
    }

    #[test]
    fn hidden_fold_instances_core_to_the_ground_triangle() {
        let g = hidden_fold_instance(7, 0.5, 42);
        let core = swdb_normal::core(&g);
        assert!(core.is_ground(), "every blank folds onto the triangle");
        assert_eq!(core.len(), 6);
    }

    #[test]
    fn deep_blank_chains_are_lean() {
        let g = deep_blank_chain(40);
        assert_eq!(g.len(), 40);
        assert!(swdb_normal::is_lean(&g));
    }

    #[test]
    fn wide_blank_fans_core_to_the_absorber() {
        let g = wide_blank_fan(16);
        assert_eq!(g.len(), 17);
        let core = swdb_normal::core(&g);
        assert_eq!(core.len(), 1);
        assert!(core.is_ground());
    }

    #[test]
    fn encodings_are_simple_blank_graphs() {
        let g = encode(&DiGraph::complete(4), "x");
        assert!(g.is_simple());
        assert!(g.blank_nodes().len() == 4);
        assert_eq!(g.len(), 12);
    }
}
