//! Descriptive statistics of RDF graphs.
//!
//! The examples and the facade's `stats()` report these so that the shape of
//! a workload (blank density, schema fraction, fan-out) is visible next to
//! its behaviour.

use std::collections::BTreeMap;

use swdb_model::{rdfs, BlankNode, Graph, Iri, Term};

/// Summary statistics of an RDF graph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphStats {
    /// Number of triples.
    pub triples: usize,
    /// Number of distinct terms in the universe.
    pub universe: usize,
    /// Number of distinct blank nodes.
    pub blank_nodes: usize,
    /// Number of distinct predicates.
    pub predicates: usize,
    /// Number of triples whose predicate belongs to the RDFS vocabulary.
    pub schema_triples: usize,
    /// Number of ground triples.
    pub ground_triples: usize,
    /// Histogram of predicate usage.
    pub predicate_histogram: BTreeMap<Iri, usize>,
    /// Number of blank-node connected components (blanks connected by
    /// co-occurrence in a triple). Each component is one independent
    /// retraction search of the core step — many small components mean a
    /// cheap `core(·)`, one big component an expensive one.
    pub blank_components: usize,
    /// Histogram of blank-component sizes, measured in triples mentioning
    /// the component's blanks: size → number of components.
    pub blank_component_sizes: BTreeMap<usize, usize>,
}

impl GraphStats {
    /// Computes the statistics for a graph.
    pub fn of(graph: &Graph) -> GraphStats {
        let mut histogram: BTreeMap<Iri, usize> = BTreeMap::new();
        let mut schema_triples = 0usize;
        let mut ground_triples = 0usize;
        for t in graph.iter() {
            *histogram.entry(t.predicate().clone()).or_insert(0) += 1;
            if rdfs::is_reserved(t.predicate()) {
                schema_triples += 1;
            }
            if t.is_ground() {
                ground_triples += 1;
            }
        }
        let (blank_components, blank_component_sizes) = blank_component_histogram(graph);
        GraphStats {
            triples: graph.len(),
            universe: graph.universe().len(),
            blank_nodes: graph.blank_nodes().len(),
            predicates: histogram.len(),
            schema_triples,
            ground_triples,
            predicate_histogram: histogram,
            blank_components,
            blank_component_sizes,
        }
    }

    /// Fraction of triples mentioning at least one blank node.
    pub fn blank_density(&self) -> f64 {
        if self.triples == 0 {
            return 0.0;
        }
        (self.triples - self.ground_triples) as f64 / self.triples as f64
    }

    /// Fraction of triples using the RDFS vocabulary as predicate.
    pub fn schema_fraction(&self) -> f64 {
        if self.triples == 0 {
            return 0.0;
        }
        self.schema_triples as f64 / self.triples as f64
    }

    /// The largest blank-component size in triples (0 when the graph is
    /// ground) — the driver of the worst local core search.
    pub fn largest_blank_component(&self) -> usize {
        self.blank_component_sizes
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} triples, {} terms, {} blanks ({:.0}% blank density) in {} components (largest {}), {} predicates, {:.0}% schema",
            self.triples,
            self.universe,
            self.blank_nodes,
            self.blank_density() * 100.0,
            self.blank_components,
            self.largest_blank_component(),
            self.predicates,
            self.schema_fraction() * 100.0,
        )
    }
}

/// Groups the graph's blank nodes into co-occurrence components and returns
/// `(component count, size histogram)` with sizes in triples.
fn blank_component_histogram(graph: &Graph) -> (usize, BTreeMap<usize, usize>) {
    // Union-find over the blank labels (the same notion of component the
    // id-space core engine partitions by — see `crate::union_find`).
    let mut index_of: BTreeMap<&BlankNode, usize> = BTreeMap::new();
    let mut sets = crate::DisjointSets::new();
    let mut blank_triples: Vec<&BlankNode> = Vec::new();
    for t in graph.iter() {
        let mut first: Option<usize> = None;
        for term in [t.subject(), t.object()] {
            if let Term::Blank(b) = term {
                let slot = *index_of.entry(b).or_insert_with(|| sets.make_set());
                if let Some(f) = first {
                    sets.union(slot, f);
                } else {
                    first = Some(slot);
                }
            }
        }
        if let Term::Blank(b) = t.subject() {
            blank_triples.push(b);
        } else if let Term::Blank(b) = t.object() {
            blank_triples.push(b);
        }
    }
    let mut triples_per_root: BTreeMap<usize, usize> = BTreeMap::new();
    for b in blank_triples {
        let root = sets.find(index_of[b]);
        *triples_per_root.entry(root).or_insert(0) += 1;
    }
    let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
    for size in triples_per_root.values() {
        *histogram.entry(*size).or_insert(0) += 1;
    }
    (triples_per_root.len(), histogram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_model::graph;

    #[test]
    fn statistics_of_a_mixed_graph() {
        let g = graph([
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
            ("ex:paints", rdfs::SP, "ex:creates"),
            ("_:X", rdfs::TYPE, "ex:Painter"),
            ("_:X", "ex:paints", "_:Y"),
        ]);
        let stats = GraphStats::of(&g);
        assert_eq!(stats.triples, 4);
        assert_eq!(stats.blank_nodes, 2);
        assert_eq!(stats.schema_triples, 2);
        assert_eq!(stats.ground_triples, 2);
        assert_eq!(stats.predicates, 3);
        assert_eq!(stats.predicate_histogram[&Iri::new("ex:paints")], 2);
        assert!((stats.blank_density() - 0.5).abs() < 1e-9);
        assert!((stats.schema_fraction() - 0.5).abs() < 1e-9);
        // X and Y co-occur in (_:X, paints, _:Y): one component, 2 triples.
        assert_eq!(stats.blank_components, 1);
        assert_eq!(stats.blank_component_sizes[&2], 1);
        assert_eq!(stats.largest_blank_component(), 2);
    }

    #[test]
    fn blank_components_split_and_merge_by_cooccurrence() {
        let g = graph([
            ("ex:a", "ex:p", "_:X"),
            ("_:X", "ex:p", "_:Y"),
            ("ex:a", "ex:p", "_:Z"),
            ("_:W", "ex:q", "ex:b"),
            ("ex:c", "ex:p", "ex:d"),
        ]);
        let stats = GraphStats::of(&g);
        assert_eq!(stats.blank_nodes, 4);
        // {X, Y} (2 triples), {Z} (1), {W} (1).
        assert_eq!(stats.blank_components, 3);
        assert_eq!(stats.blank_component_sizes[&1], 2);
        assert_eq!(stats.blank_component_sizes[&2], 1);
        assert_eq!(stats.largest_blank_component(), 2);
        let summary = stats.summary();
        assert!(summary.contains("3 components"), "{summary}");
    }

    #[test]
    fn ground_graphs_have_no_blank_components() {
        let stats = GraphStats::of(&graph([("ex:a", "ex:p", "ex:b")]));
        assert_eq!(stats.blank_components, 0);
        assert!(stats.blank_component_sizes.is_empty());
        assert_eq!(stats.largest_blank_component(), 0);
    }

    #[test]
    fn empty_graph_statistics() {
        let stats = GraphStats::of(&Graph::new());
        assert_eq!(stats.triples, 0);
        assert_eq!(stats.blank_density(), 0.0);
        assert_eq!(stats.schema_fraction(), 0.0);
    }

    #[test]
    fn summary_is_human_readable() {
        let g = graph([("ex:a", "ex:p", "_:X")]);
        let s = GraphStats::of(&g).summary();
        assert!(s.contains("1 triples"));
        assert!(s.contains("100% blank density"));
    }
}
