//! A larger, deployment-shaped scenario: the LUBM-style university workload.
//!
//! Loads a generated university graph into the dictionary-encoded triple
//! store, answers schema-aware queries through the facade, compares union
//! and merge semantics, and eliminates redundancy from answers.
//!
//! Run with `cargo run --example university_workbench`.

use semweb_foundations::core::{SemanticWebDatabase, Semantics};
use semweb_foundations::query;
use semweb_foundations::store::{GraphStats, TripleStore};
use semweb_foundations::workloads::university as uni_mod;
use semweb_foundations::workloads::UniversityConfig;

fn main() {
    let config = UniversityConfig {
        departments: 3,
        courses_per_department: 6,
        professors_per_department: 4,
        students_per_department: 15,
        enrollments_per_student: 3,
    };
    let data = uni_mod::university(&config, 2024);
    println!("university workload: {}", GraphStats::of(&data).summary());

    // The store substrate: dictionary-encoded, indexed.
    let store = TripleStore::from_graph(&data);
    println!(
        "triple store: {} triples over {} interned terms, predicates: {:?}",
        store.len(),
        store.term_count(),
        GraphStats::of(&data).predicates
    );

    let mut db = SemanticWebDatabase::from_graph(store.to_graph());

    println!("\n-- who works for which department (headOf ⊑ worksFor) --");
    let workers = db.answer_union(&uni_mod::workers_query());
    for t in workers.iter().take(8) {
        println!("  {t}");
    }
    println!("  … {} answers total", workers.len());

    println!("\n-- persons (domain typing + subclass lifting) --");
    let persons = db.answer_union(&uni_mod::persons_query());
    println!("  {} persons inferred", persons.len());

    println!("\n-- students and who teaches them (a join query) --");
    let learns = db.answer_union(&uni_mod::student_professor_query());
    for t in learns.iter().take(8) {
        println!("  {t}");
    }
    println!("  … {} answers total", learns.len());

    // Union vs merge semantics on a query whose head introduces blanks.
    let anon = query::query(
        [("?S", "uni:hasAdvisor", "_:Advisor")],
        [("?S", "uni:advisedBy", "?A")],
    );
    let union = db.answer(&anon, Semantics::Union);
    let merge = db.answer(&anon, Semantics::Merge);
    println!("\n-- anonymised advisors --");
    println!(
        "  union semantics: {} triples, {} blanks",
        union.len(),
        union.blank_nodes().len()
    );
    println!(
        "  merge semantics: {} triples, {} blanks",
        merge.len(),
        merge.blank_nodes().len()
    );

    // Redundancy elimination.
    let all_takes = query::query([("?S", "uni:takes", "?C")], [("?S", "uni:takes", "?C")]);
    let raw = db.answer_union(&all_takes);
    let lean = db.answer_without_redundancy(&all_takes, Semantics::Union);
    println!("\n-- enrolment answers --");
    println!(
        "  raw answer:  {} triples (lean: {})",
        raw.len(),
        swdb_normal::is_lean(&raw)
    );
    println!("  after redundancy elimination: {} triples", lean.len());

    // Round-trip through the concrete syntax.
    let serialized = db.to_ntriples();
    let reloaded = SemanticWebDatabase::from_ntriples(&serialized).expect("round trip");
    println!(
        "\nserialization round trip preserved {} triples",
        reloaded.len()
    );
}
