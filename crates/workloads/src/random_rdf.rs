//! Seeded random RDF graph generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swdb_model::{rdfs, Graph, Term, Triple};

/// Parameters for random simple graphs.
#[derive(Clone, Copy, Debug)]
pub struct SimpleGraphConfig {
    /// Number of triples to generate.
    pub triples: usize,
    /// Number of distinct URI nodes to draw subjects/objects from.
    pub uri_nodes: usize,
    /// Number of distinct blank nodes to draw from.
    pub blank_nodes: usize,
    /// Number of distinct predicates.
    pub predicates: usize,
    /// Probability that a subject/object position is a blank node.
    pub blank_probability: f64,
}

impl Default for SimpleGraphConfig {
    fn default() -> Self {
        SimpleGraphConfig {
            triples: 100,
            uri_nodes: 50,
            blank_nodes: 10,
            predicates: 5,
            blank_probability: 0.2,
        }
    }
}

/// Generates a random simple RDF graph (no RDFS vocabulary).
pub fn simple_graph(config: &SimpleGraphConfig, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let pick_node = |rng: &mut StdRng| -> Term {
        if rng.gen_bool(config.blank_probability.clamp(0.0, 1.0)) && config.blank_nodes > 0 {
            Term::blank(format!("b{}", rng.gen_range(0..config.blank_nodes)))
        } else {
            Term::iri(format!("ex:n{}", rng.gen_range(0..config.uri_nodes.max(1))))
        }
    };
    while g.len() < config.triples {
        let s = pick_node(&mut rng);
        let p = swdb_model::Iri::new(format!(
            "ex:p{}",
            rng.gen_range(0..config.predicates.max(1))
        ));
        let o = pick_node(&mut rng);
        g.insert(Triple::new(s, p, o));
    }
    g
}

/// Parameters for random RDFS schema + instance graphs.
#[derive(Clone, Copy, Debug)]
pub struct SchemaGraphConfig {
    /// Number of classes in the subclass DAG.
    pub classes: usize,
    /// Number of properties in the subproperty DAG.
    pub properties: usize,
    /// Probability of a subclass/subproperty edge between two levels.
    pub edge_probability: f64,
    /// Number of typed instances.
    pub instances: usize,
    /// Number of plain data triples among instances.
    pub data_triples: usize,
}

impl Default for SchemaGraphConfig {
    fn default() -> Self {
        SchemaGraphConfig {
            classes: 20,
            properties: 8,
            edge_probability: 0.3,
            instances: 50,
            data_triples: 100,
        }
    }
}

/// Generates a random RDFS graph: an acyclic `sc` hierarchy over classes, an
/// acyclic `sp` hierarchy over properties, domain/range declarations, typed
/// instances and plain data triples.
pub fn schema_graph(config: &SchemaGraphConfig, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let class = |i: usize| Term::iri(format!("ex:Class{i}"));
    let property = |i: usize| format!("ex:prop{i}");
    // Acyclic sc edges: only from lower to higher index.
    for i in 0..config.classes {
        for j in (i + 1)..config.classes {
            if rng.gen_bool(config.edge_probability.clamp(0.0, 1.0)) {
                g.insert(Triple::new(class(i), rdfs::sc(), class(j)));
            }
        }
    }
    // Acyclic sp edges.
    for i in 0..config.properties {
        for j in (i + 1)..config.properties {
            if rng.gen_bool((config.edge_probability / 2.0).clamp(0.0, 1.0)) {
                g.insert(Triple::new(
                    Term::iri(property(i)),
                    rdfs::sp(),
                    Term::iri(property(j)),
                ));
            }
        }
    }
    // Domains and ranges for a few properties.
    for i in 0..config.properties {
        if rng.gen_bool(0.5) && config.classes > 0 {
            g.insert(Triple::new(
                Term::iri(property(i)),
                rdfs::dom(),
                class(rng.gen_range(0..config.classes)),
            ));
        }
        if rng.gen_bool(0.5) && config.classes > 0 {
            g.insert(Triple::new(
                Term::iri(property(i)),
                rdfs::range(),
                class(rng.gen_range(0..config.classes)),
            ));
        }
    }
    // Typed instances.
    for i in 0..config.instances {
        if config.classes == 0 {
            break;
        }
        g.insert(Triple::new(
            Term::iri(format!("ex:inst{i}")),
            rdfs::type_(),
            class(rng.gen_range(0..config.classes)),
        ));
    }
    // Plain data triples between instances.
    for _ in 0..config.data_triples {
        if config.instances == 0 || config.properties == 0 {
            break;
        }
        let s = Term::iri(format!("ex:inst{}", rng.gen_range(0..config.instances)));
        let o = Term::iri(format!("ex:inst{}", rng.gen_range(0..config.instances)));
        g.insert(Triple::new(
            s,
            swdb_model::Iri::new(property(rng.gen_range(0..config.properties))),
            o,
        ));
    }
    g
}

/// Injects redundancy into a graph: for `copies` randomly chosen triples, a
/// blank-node "shadow" of the triple is added (replacing the object, the
/// subject, or both by fresh blanks). The result is equivalent to the input
/// and its core is (essentially) the input.
pub fn inject_blank_redundancy(g: &Graph, copies: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let triples: Vec<Triple> = g.iter().cloned().collect();
    let mut out = g.clone();
    if triples.is_empty() {
        return out;
    }
    for i in 0..copies {
        let t = &triples[rng.gen_range(0..triples.len())];
        let mode = rng.gen_range(0..3);
        let s = if mode == 0 || mode == 2 {
            Term::blank(format!("r{i}s"))
        } else {
            t.subject().clone()
        };
        let o = if mode == 1 || mode == 2 {
            Term::blank(format!("r{i}o"))
        } else {
            t.object().clone()
        };
        out.insert(Triple::new(s, t.predicate().clone(), o));
    }
    out
}

/// A chain of `n` subproperty triples `p0 ⊑ p1 ⊑ … ⊑ pn`, whose closure has
/// `Θ(n²)` triples — the worst-case family of Theorem 3.6(3), counted in
/// `tests/paper_results.rs::theorem_3_6_closure_properties`.
pub fn sp_chain(n: usize) -> Graph {
    (0..n)
        .map(|i| {
            Triple::new(
                Term::iri(format!("ex:p{i}")),
                rdfs::sp(),
                Term::iri(format!("ex:p{}", i + 1)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_graphs_are_seeded_and_simple() {
        let config = SimpleGraphConfig::default();
        let g1 = simple_graph(&config, 7);
        let g2 = simple_graph(&config, 7);
        assert_eq!(g1, g2);
        assert_eq!(g1.len(), config.triples);
        assert!(g1.is_simple());
    }

    #[test]
    fn schema_graphs_use_the_vocabulary_acyclically() {
        let config = SchemaGraphConfig::default();
        let g = schema_graph(&config, 3);
        assert!(!g.is_simple());
        assert!(swdb_normal::relation_is_acyclic(&g, &rdfs::sc()));
        assert!(swdb_normal::relation_is_acyclic(&g, &rdfs::sp()));
    }

    #[test]
    fn redundancy_injection_preserves_equivalence() {
        let base = simple_graph(
            &SimpleGraphConfig {
                triples: 15,
                blank_probability: 0.0,
                ..SimpleGraphConfig::default()
            },
            11,
        );
        let redundant = inject_blank_redundancy(&base, 10, 12);
        assert!(redundant.len() > base.len());
        assert!(swdb_entailment::equivalent(&base, &redundant));
    }
}
