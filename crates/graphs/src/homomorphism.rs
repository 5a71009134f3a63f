//! Graph homomorphism and related decision problems.
//!
//! A homomorphism from `H1 = (V1, E1)` to `H2 = (V2, E2)` is a function
//! `h : V1 → V2` such that `(h(u), h(v)) ∈ E2` whenever `(u, v) ∈ E1`
//! (§2.4). Graph homomorphism is NP-complete; the paper's hardness proofs
//! for entailment (Theorem 2.9), leanness (Theorem 3.12) and containment
//! (Theorem 5.6) all reduce from it via the `enc(·)` encoding.
//!
//! The solver is a backtracking search with forward pruning by neighbourhood
//! constraints, adequate for the instance sizes the reductions are tested
//! on (it is, after all, solving an NP-complete problem: the retraction
//! search built on it grows exponentially on `K_k`, as
//! `tests/paper_results.rs::theorem_3_12_core_identification_through_graph_encodings`
//! counts).

use std::collections::{BTreeMap, BTreeSet};

use swdb_obs::Budget;

use crate::digraph::DiGraph;

/// Searches for a homomorphism `h : from → into`. Returns the witnessing
/// vertex assignment if one exists.
pub fn find_homomorphism(from: &DiGraph, into: &DiGraph) -> Option<BTreeMap<usize, usize>> {
    find_homomorphism_budgeted(from, into, None)
}

/// [`find_homomorphism`] under a cooperative [`Budget`]: the backtracking
/// spends one unit per candidate assignment tried and unwinds as soon as
/// the budget trips. `None` with `budget.is_exhausted()` means *unknown*
/// (the search was abandoned), not *no homomorphism exists*; a returned
/// assignment is always a genuine witness.
pub fn find_homomorphism_budgeted(
    from: &DiGraph,
    into: &DiGraph,
    budget: Option<&Budget>,
) -> Option<BTreeMap<usize, usize>> {
    // Vertices of `from` with no incident edges can map anywhere; handle the
    // degenerate case where `into` has no vertices at all.
    if from.vertex_count() > 0 && into.vertex_count() == 0 {
        return None;
    }
    let vars: Vec<usize> = {
        // Order by total degree, most-constrained first.
        let mut vs: Vec<usize> = from.vertices().collect();
        vs.sort_by_key(|&v| std::cmp::Reverse(from.out_degree(v) + from.in_degree(v)));
        vs
    };
    let targets: Vec<usize> = into.vertices().collect();
    let mut assignment: BTreeMap<usize, usize> = BTreeMap::new();
    if backtrack(from, into, &vars, &targets, 0, &mut assignment, budget) {
        Some(assignment)
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    from: &DiGraph,
    into: &DiGraph,
    vars: &[usize],
    targets: &[usize],
    index: usize,
    assignment: &mut BTreeMap<usize, usize>,
    budget: Option<&Budget>,
) -> bool {
    if index == vars.len() {
        return true;
    }
    let v = vars[index];
    'candidates: for &c in targets {
        // One unit per candidate assignment tried; a tripped budget
        // abandons the whole search (exhaustion is sticky, so every
        // enclosing frame gives up too).
        if budget.is_some_and(|b| !b.spend(1)) {
            return false;
        }
        // Check consistency with already-assigned neighbours.
        for succ in from.successors(v) {
            if let Some(&img) = assignment.get(&succ) {
                if !into.has_edge(c, img) {
                    continue 'candidates;
                }
            }
        }
        for pred in from.predecessors(v) {
            if let Some(&img) = assignment.get(&pred) {
                if !into.has_edge(img, c) {
                    continue 'candidates;
                }
            }
        }
        // Self-loop constraint.
        if from.has_edge(v, v) && !into.has_edge(c, c) {
            continue;
        }
        assignment.insert(v, c);
        if backtrack(from, into, vars, targets, index + 1, assignment, budget) {
            return true;
        }
        assignment.remove(&v);
    }
    false
}

/// Returns `true` if there is a homomorphism `from → into`.
pub fn is_homomorphic(from: &DiGraph, into: &DiGraph) -> bool {
    find_homomorphism(from, into).is_some()
}

/// Returns `true` if the two graphs are homomorphically equivalent (each has
/// a homomorphism into the other), the notion behind Theorem 2.9(2).
pub fn homomorphically_equivalent(g1: &DiGraph, g2: &DiGraph) -> bool {
    is_homomorphic(g1, g2) && is_homomorphic(g2, g1)
}

/// Returns `true` if the graph (interpreted as undirected via its symmetric
/// closure) is `k`-colourable, i.e. admits a homomorphism into `K_k`.
pub fn is_k_colorable(g: &DiGraph, k: usize) -> bool {
    let symmetric = DiGraph::from_undirected_edges(g.edges());
    is_homomorphic(&symmetric, &DiGraph::complete(k))
}

/// Returns `true` if the graph contains a clique of size `k`, checked as a
/// homomorphism `K_k → G` (which, for loop-free `G`, is exactly a `k`-clique
/// since the images of distinct clique vertices must be distinct).
pub fn has_clique(g: &DiGraph, k: usize) -> bool {
    is_homomorphic(&DiGraph::complete(k), g)
}

/// Returns `true` if the graph contains a (symmetric) triangle.
pub fn has_triangle(g: &DiGraph) -> bool {
    has_clique(g, 3)
}

/// Checks whether `h` really is a homomorphism `from → into`.
pub fn verify_homomorphism(from: &DiGraph, into: &DiGraph, h: &BTreeMap<usize, usize>) -> bool {
    from.edges().all(
        |(u, v)| matches!((h.get(&u), h.get(&v)), (Some(&hu), Some(&hv)) if into.has_edge(hu, hv)),
    )
}

/// Searches for an isomorphism between the two graphs: a bijection on
/// vertices preserving edges in both directions.
pub fn find_isomorphism(g1: &DiGraph, g2: &DiGraph) -> Option<BTreeMap<usize, usize>> {
    if g1.vertex_count() != g2.vertex_count() || g1.edge_count() != g2.edge_count() {
        return None;
    }
    let vars: Vec<usize> = g1.vertices().collect();
    let mut assignment = BTreeMap::new();
    let mut used = BTreeSet::new();
    if iso_backtrack(g1, g2, &vars, 0, &mut assignment, &mut used) {
        Some(assignment)
    } else {
        None
    }
}

fn iso_backtrack(
    g1: &DiGraph,
    g2: &DiGraph,
    vars: &[usize],
    index: usize,
    assignment: &mut BTreeMap<usize, usize>,
    used: &mut BTreeSet<usize>,
) -> bool {
    if index == vars.len() {
        return true;
    }
    let v = vars[index];
    for c in g2.vertices() {
        if used.contains(&c) {
            continue;
        }
        if g1.out_degree(v) != g2.out_degree(c) || g1.in_degree(v) != g2.in_degree(c) {
            continue;
        }
        let consistent = assignment.iter().all(|(&u, &img)| {
            g1.has_edge(v, u) == g2.has_edge(c, img) && g1.has_edge(u, v) == g2.has_edge(img, c)
        }) && (g1.has_edge(v, v) == g2.has_edge(c, c));
        if !consistent {
            continue;
        }
        assignment.insert(v, c);
        used.insert(c);
        if iso_backtrack(g1, g2, vars, index + 1, assignment, used) {
            return true;
        }
        assignment.remove(&v);
        used.remove(&c);
    }
    false
}

/// Returns `true` if the two graphs are isomorphic.
pub fn isomorphic(g1: &DiGraph, g2: &DiGraph) -> bool {
    find_isomorphism(g1, g2).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_maps_into_edge() {
        // A long directed path is homomorphic to a single 2-cycle
        // (alternate endpoints).
        let path = DiGraph::path(6);
        let two_cycle = DiGraph::cycle(2);
        let h = find_homomorphism(&path, &two_cycle).expect("path → C2");
        assert!(verify_homomorphism(&path, &two_cycle, &h));
    }

    #[test]
    fn odd_cycle_does_not_map_into_edge() {
        let c5 = DiGraph::from_undirected_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let k2 = DiGraph::complete(2);
        assert!(!is_homomorphic(&c5, &k2), "odd cycles are not 2-colourable");
        assert!(!is_k_colorable(&c5, 2));
        assert!(is_k_colorable(&c5, 3));
    }

    #[test]
    fn clique_detection_via_homomorphism() {
        // A 4-clique contains a triangle; C5 does not.
        let k4 = DiGraph::complete(4);
        assert!(has_triangle(&k4));
        assert!(has_clique(&k4, 4));
        assert!(!has_clique(&k4, 5));
        let c5 = DiGraph::from_undirected_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert!(!has_triangle(&c5));
    }

    #[test]
    fn homomorphic_equivalence_of_even_cycles_with_k2() {
        // Every even (undirected) cycle is hom-equivalent to a single edge.
        let c6 = DiGraph::from_undirected_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let k2 = DiGraph::complete(2);
        assert!(homomorphically_equivalent(&c6, &k2));
    }

    #[test]
    fn three_colourability_matches_theory() {
        // K4 is not 3-colourable, K3 is.
        assert!(!is_k_colorable(&DiGraph::complete(4), 3));
        assert!(is_k_colorable(&DiGraph::complete(3), 3));
        // The Grötzsch-like wheel W5 (odd wheel) needs 4 colours.
        let mut wheel = DiGraph::from_undirected_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        for spoke in 0..5 {
            wheel.add_edge(5, spoke);
            wheel.add_edge(spoke, 5);
        }
        assert!(!is_k_colorable(&wheel, 3));
        assert!(is_k_colorable(&wheel, 4));
    }

    #[test]
    fn empty_graph_maps_anywhere() {
        let empty = DiGraph::new();
        assert!(is_homomorphic(&empty, &DiGraph::complete(3)));
        assert!(is_homomorphic(&empty, &empty));
    }

    #[test]
    fn graph_with_vertices_needs_nonempty_target() {
        let mut single = DiGraph::new();
        single.add_vertex(0);
        assert!(!is_homomorphic(&single, &DiGraph::new()));
    }

    #[test]
    fn isomorphism_distinguishes_cycles_of_different_length() {
        assert!(isomorphic(&DiGraph::cycle(4), &DiGraph::cycle(4)));
        assert!(!isomorphic(&DiGraph::cycle(4), &DiGraph::cycle(5)));
    }

    #[test]
    fn isomorphism_on_relabelled_graph() {
        let g1 = DiGraph::from_edges([(0, 1), (1, 2), (2, 0)]);
        let g2 = DiGraph::from_edges([(10, 20), (20, 30), (30, 10)]);
        assert!(isomorphic(&g1, &g2));
    }

    #[test]
    fn self_loops_constrain_homomorphisms() {
        let mut looped = DiGraph::new();
        looped.add_edge(0, 0);
        let k3 = DiGraph::complete(3);
        assert!(
            !is_homomorphic(&looped, &k3),
            "a self-loop cannot map into a loop-free graph"
        );
        let mut target = DiGraph::new();
        target.add_edge(7, 7);
        assert!(is_homomorphic(&looped, &target));
    }
}
