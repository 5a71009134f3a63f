//! # swdb-store — the database substrate
//!
//! A dictionary-encoded, triple-indexed store plus a concrete syntax and
//! descriptive statistics. The theory layers (`swdb-entailment`,
//! `swdb-normal`, `swdb-query`) operate on the abstract
//! [`swdb_model::Graph`]; this crate is what a downstream application uses to
//! hold data at rest and to move it in and out of files.
//!
//! * [`dictionary`] — term interning and the term-order table,
//! * [`id_index`] — the persistent ordered set of id-triples in one
//!   ordering, and the SPO/POS/OSP index of three,
//! * [`triple_store`] — dictionary + one-ordering set: the asserted triples,
//! * [`ntriples`] — an N-Triples-style parser and serializer,
//! * [`stats`] — graph statistics reported by the examples and the facade,
//! * [`union_find`] — the disjoint-set forest behind every blank-component
//!   partition (statistics here, the core engine in `swdb-normal`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dictionary;
pub mod id_index;
pub mod ntriples;
pub mod stats;
pub mod triple_store;
pub mod union_find;

pub use dictionary::{Dictionary, TermId, TermOrder};
pub use id_index::{IdIndex, IdSet};
pub use ntriples::{parse, serialize, ParseError};
pub use stats::GraphStats;
pub use triple_store::{IdPattern, IdTriple, TripleStore};
pub use union_find::DisjointSets;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use swdb_model::{Graph, Term, Triple};

    use crate::ntriples::{parse, serialize};
    use crate::triple_store::tests::scan;
    use crate::triple_store::TripleStore;

    fn arb_graph(max_triples: usize) -> impl Strategy<Value = Graph> {
        let term = prop_oneof![
            (0u8..6).prop_map(|i| Term::iri(format!("ex:n{i}"))),
            (0u8..4).prop_map(|i| Term::blank(format!("B{i}"))),
        ];
        let pred = (0u8..3).prop_map(|i| swdb_model::Iri::new(format!("ex:p{i}")));
        proptest::collection::vec((term.clone(), pred, term), 0..=max_triples).prop_map(|ts| {
            ts.into_iter()
                .map(|(s, p, o)| Triple::new(s, p, o))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn store_round_trips_graphs(g in arb_graph(12)) {
            let store = TripleStore::from_graph(&g);
            prop_assert_eq!(store.to_graph(), g.clone());
            prop_assert_eq!(store.len(), g.len());
        }

        #[test]
        fn ntriples_round_trips_graphs(g in arb_graph(12)) {
            let text = serialize(&g);
            prop_assert_eq!(parse(&text).unwrap(), g);
        }

        #[test]
        fn scans_agree_with_graph_filters(g in arb_graph(12)) {
            let store = TripleStore::from_graph(&g);
            for t in g.iter() {
                let by_subject = scan(&store, Some(t.subject()), None, None);
                prop_assert!(by_subject.contains(t));
                let by_pred = scan(&store, None, Some(t.predicate()), None);
                prop_assert!(by_pred.contains(t));
                let by_object = scan(&store, None, None, Some(t.object()));
                prop_assert!(by_object.contains(t));
            }
        }

        #[test]
        fn removing_everything_empties_the_store(g in arb_graph(10)) {
            let mut store = TripleStore::from_graph(&g);
            for t in g.iter() {
                prop_assert!(store.remove(t));
            }
            prop_assert!(store.is_empty());
            prop_assert_eq!(store.to_graph(), Graph::new());
        }
    }
}
