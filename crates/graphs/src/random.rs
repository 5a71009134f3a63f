//! Seeded random graph generators behind the workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::digraph::DiGraph;

/// Generates an Erdős–Rényi style directed graph `G(n, p)`: each ordered pair
/// of distinct vertices becomes an edge independently with probability `p`.
pub fn gnp(n: usize, p: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new();
    for v in 0..n {
        g.add_vertex(v);
    }
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Generates a random undirected graph (both orientations inserted) with the
/// given edge probability.
pub fn undirected_gnp(n: usize, p: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new();
    for v in 0..n {
        g.add_vertex(v);
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v);
                g.add_edge(v, u);
            }
        }
    }
    g
}

/// Generates a random DAG with `n` vertices: edges only go from lower to
/// higher vertex index, each present with probability `p`.
pub fn random_dag(n: usize, p: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new();
    for v in 0..n {
        g.add_vertex(v);
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Generates a graph guaranteed to be 3-colourable (but typically hard to
/// colour greedily): vertices are partitioned into three classes and edges
/// are only added between distinct classes.
pub fn planted_3_colorable(n: usize, p: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new();
    for v in 0..n {
        g.add_vertex(v);
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if u % 3 != v % 3 && rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v);
                g.add_edge(v, u);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homomorphism::is_k_colorable;
    use crate::transitive::is_acyclic;

    #[test]
    fn gnp_is_seeded_and_deterministic() {
        let g1 = gnp(20, 0.2, 42);
        let g2 = gnp(20, 0.2, 42);
        assert_eq!(g1, g2);
        let g3 = gnp(20, 0.2, 43);
        assert_ne!(g1, g3, "different seeds should (overwhelmingly) differ");
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).edge_count(), 0);
        assert_eq!(gnp(10, 1.0, 1).edge_count(), 90);
    }

    #[test]
    fn random_dag_is_acyclic() {
        for seed in 0..5 {
            assert!(is_acyclic(&random_dag(30, 0.3, seed)));
        }
    }

    #[test]
    fn undirected_gnp_is_symmetric() {
        let g = undirected_gnp(15, 0.4, 7);
        for (u, v) in g.edge_list() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn planted_graphs_are_3_colorable() {
        for seed in 0..3 {
            let g = planted_3_colorable(12, 0.6, seed);
            assert!(
                is_k_colorable(&g, 3),
                "planted 3-partition must be 3-colourable"
            );
        }
    }
}
