//! The LUBM-style input generator: N-Triples text and query text, nothing
//! else. The program under test only ever receives these strings.
//!
//! `U(d)` is `d` departments over a fixed 14-triple RDFS schema. Every
//! department has the same *shape* — 57 asserted triples, 25 `takes` edges,
//! each course taught by exactly one professor — so triple counts, answer
//! sizes and byte sizes (names are fixed-width) do not depend on the seed.
//! The seed decides the department order, which courses a student takes,
//! who teaches what, which students get blank advisors, and every constant
//! a request names.

use crate::rng::Rng;

pub const COURSES: usize = 6;
pub const PROFESSORS: usize = 3;
pub const STUDENTS: usize = 10;
/// Asserted instance triples per department (see [`department`]).
pub const TRIPLES_PER_DEPARTMENT: usize = 57;
/// `takes` edges per department: five students take 3 courses, five take 2.
pub const TAKES_PER_DEPARTMENT: usize = 25;

pub const RDF_TYPE: &str = "rdf:type";

/// The fixed schema: subclass chains, domains/ranges, one subproperty.
pub const SCHEMA: [(&str, &str, &str); 14] = [
    ("uni:Professor", "rdfs:subClassOf", "uni:Faculty"),
    ("uni:Lecturer", "rdfs:subClassOf", "uni:Faculty"),
    ("uni:Faculty", "rdfs:subClassOf", "uni:Person"),
    ("uni:Student", "rdfs:subClassOf", "uni:Person"),
    ("uni:GraduateStudent", "rdfs:subClassOf", "uni:Student"),
    ("uni:teaches", "rdfs:domain", "uni:Faculty"),
    ("uni:teaches", "rdfs:range", "uni:Course"),
    ("uni:takes", "rdfs:domain", "uni:Student"),
    ("uni:takes", "rdfs:range", "uni:Course"),
    ("uni:offers", "rdfs:domain", "uni:Department"),
    ("uni:offers", "rdfs:range", "uni:Course"),
    ("uni:headOf", "rdfs:subPropertyOf", "uni:worksFor"),
    ("uni:worksFor", "rdfs:domain", "uni:Person"),
    ("uni:worksFor", "rdfs:range", "uni:Department"),
];

pub fn dept(k: usize) -> String {
    format!("uni:d{k:05}")
}
pub fn course(k: usize, j: usize) -> String {
    format!("uni:c{k:05}_{j}")
}
pub fn professor(k: usize, j: usize) -> String {
    format!("uni:p{k:05}_{j}")
}
pub fn student(k: usize, j: usize) -> String {
    format!("uni:s{k:05}_{j}")
}

fn line(out: &mut String, s: &str, p: &str, o: &str) {
    let term = |out: &mut String, t: &str| {
        if t.starts_with("_:") {
            out.push_str(t);
        } else {
            out.push('<');
            out.push_str(t);
            out.push('>');
        }
    };
    term(out, s);
    out.push(' ');
    term(out, p);
    out.push(' ');
    term(out, o);
    out.push_str(" .\n");
}

/// The schema as N-Triples.
pub fn schema_ntriples() -> String {
    let mut out = String::new();
    for (s, p, o) in SCHEMA {
        line(&mut out, s, p, o);
    }
    out
}

/// One department's 57 triples as N-Triples:
/// 1 department type + 6 `offers` + 12 staff triples (3 types, `headOf` for
/// professor 0 — its `worksFor` is only derivable through `sp` — 2
/// `worksFor`, 6 `teaches`) + 38 student triples (10 types, 25 `takes`, 2
/// blank advisors, and 1 *second* blank advisor that `core` folds away).
pub fn department(out: &mut String, k: usize, rng: &mut Rng) {
    let d = dept(k);
    line(out, &d, RDF_TYPE, "uni:Department");
    for j in 0..COURSES {
        line(out, &d, "uni:offers", &course(k, j));
    }
    let mut taught: Vec<usize> = (0..COURSES).collect();
    rng.shuffle(&mut taught);
    for j in 0..PROFESSORS {
        let p = professor(k, j);
        let class = if j == 2 {
            "uni:Lecturer"
        } else {
            "uni:Professor"
        };
        line(out, &p, RDF_TYPE, class);
        let role = if j == 0 { "uni:headOf" } else { "uni:worksFor" };
        line(out, &p, role, &d);
        for c in &taught[2 * j..2 * j + 2] {
            line(out, &p, "uni:teaches", &course(k, *c));
        }
    }
    let rotation = rng.below(STUDENTS);
    let mut picks: Vec<usize> = (0..COURSES).collect();
    for j in 0..STUDENTS {
        let s = student(k, j);
        let class = if j % 4 == 0 {
            "uni:GraduateStudent"
        } else {
            "uni:Student"
        };
        line(out, &s, RDF_TYPE, class);
        rng.shuffle(&mut picks);
        for c in &picks[..if j % 2 == 0 { 3 } else { 2 }] {
            line(out, &s, "uni:takes", &course(k, *c));
        }
        let slot = (j + rotation) % STUDENTS;
        if slot.is_multiple_of(5) {
            line(out, &s, "uni:advisedBy", &format!("_:a{k:05}_{j}"));
        }
        if slot == 0 {
            line(out, &s, "uni:advisedBy", &format!("_:b{k:05}_{j}"));
        }
    }
}

/// `U(departments)` cut into `batches` N-Triples documents of whole
/// departments (the schema rides in the first), department order shuffled
/// by the seed. Returns the documents and the asserted-triple count.
pub fn university(departments: usize, batches: usize, seed: u64) -> (Vec<String>, usize) {
    assert!(batches >= 1 && batches <= departments.max(1));
    let mut rng = Rng::lane(seed, 1);
    let mut order: Vec<usize> = (0..departments).collect();
    rng.shuffle(&mut order);
    let per_batch = departments.div_ceil(batches);
    let mut docs = Vec::with_capacity(batches);
    for (i, chunk) in order.chunks(per_batch.max(1)).enumerate() {
        let mut doc = if i == 0 {
            schema_ntriples()
        } else {
            String::new()
        };
        doc.reserve(chunk.len() * TRIPLES_PER_DEPARTMENT * 48);
        for &k in chunk {
            department(&mut doc, k, &mut rng);
        }
        docs.push(doc);
    }
    (docs, SCHEMA.len() + departments * TRIPLES_PER_DEPARTMENT)
}

/// The four selective 2-pattern join shapes of the point-read op. `pick`
/// chooses the shape (round-robin keeps every shape's share exact), the
/// constants come from `rng`.
pub fn point_query(pick: usize, departments: usize, rng: &mut Rng) -> String {
    let k = rng.below(departments);
    match pick % 4 {
        0 => format!(
            "(?S, uni:takes, ?C) <- (?S, uni:takes, ?C), ({}, uni:offers, ?C)",
            dept(k)
        ),
        1 => format!(
            "(?P, uni:teaches, ?C) <- (?P, uni:teaches, ?C), ({}, uni:offers, ?C)",
            dept(k)
        ),
        2 => format!(
            "(?S, uni:advisedBy, ?A) <- (?S, uni:advisedBy, ?A), (?S, uni:takes, {})",
            course(k, rng.below(COURSES))
        ),
        _ => format!(
            "(?X, uni:worksFor, {d}) <- (?X, uni:worksFor, {d}), (?X, uni:teaches, ?C)",
            d = dept(k)
        ),
    }
}

/// Premise query `i`: "who works for department k, given that visitor i
/// heads it". Under RDFS every premise query takes the overlay mechanism;
/// `sp` makes the premise contribute an answer, so the overlay's closure
/// preview and core are really exercised. Distinct `i` ⇒ distinct premise.
pub fn premise_query(i: usize, departments: usize, rng: &mut Rng) -> String {
    let d = dept(rng.below(departments));
    format!(
        "(?X, uni:worksFor, {d}) <- (?X, uni:worksFor, {d}) \
         WITH PREMISE {{ (uni:v{i:03}, uni:headOf, {d}) . }}"
    )
}

/// The three large-answer queries: every person (type + sc + dom), every
/// `worksFor` (one in three only via `headOf ⊑ worksFor`), and the
/// `takes ⋈ teaches` join.
pub const SCAN_QUERIES: [&str; 3] = [
    "(?X, type, uni:Person) <- (?X, type, uni:Person)",
    "(?X, uni:worksFor, ?D) <- (?X, uni:worksFor, ?D)",
    "(?S, uni:learnsFrom, ?P) <- (?S, uni:takes, ?C), (?P, uni:teaches, ?C)",
];

/// Write-op student `i`: 4 triples incl. a blank advisor, enrolled in a
/// department no read names, so reads keep round 0's answer sizes while the
/// closure still gains and loses `type Course`/`type Person` consequences.
/// The same text is the `/ingest` and the `/remove` body.
pub fn new_student(i: usize) -> String {
    let s = format!("uni:n{i:04}");
    let mut out = String::new();
    line(&mut out, &s, RDF_TYPE, "uni:Student");
    line(&mut out, &s, "uni:takes", &format!("uni:x{:04}_0", i % 7));
    line(&mut out, &s, "uni:takes", &format!("uni:x{:04}_1", i % 7));
    line(&mut out, &s, "uni:advisedBy", &format!("_:an{i:04}"));
    out
}
pub const TRIPLES_PER_NEW_STUDENT: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_identical_per_seed_and_different_across_seeds() {
        let (a, n) = university(35, 4, 42);
        let (b, _) = university(35, 4, 42);
        let (c, m) = university(35, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(n, m);
        assert_eq!(n, 14 + 35 * TRIPLES_PER_DEPARTMENT);
        let lines = |docs: &[String]| docs.iter().map(|d| d.lines().count()).sum::<usize>();
        assert_eq!(lines(&a), n);
        assert_eq!(lines(&c), n);
        // Fixed-width names: the same number of bytes whatever the seed.
        let bytes = |docs: &[String]| docs.iter().map(String::len).sum::<usize>();
        assert_eq!(bytes(&a), bytes(&c));
    }

    #[test]
    fn every_department_has_the_same_shape() {
        let mut rng = Rng::new(9);
        for k in [0, 7, 1749] {
            let mut doc = String::new();
            department(&mut doc, k, &mut rng);
            assert_eq!(doc.lines().count(), TRIPLES_PER_DEPARTMENT);
            assert_eq!(doc.matches("<uni:takes>").count(), TAKES_PER_DEPARTMENT);
            assert_eq!(doc.matches("<uni:teaches>").count(), COURSES);
            assert_eq!(doc.matches("_:a").count(), 2);
            assert_eq!(doc.matches("_:b").count(), 1);
            // All lines distinct: a shuffled prefix never repeats a course.
            let mut lines: Vec<&str> = doc.lines().collect();
            lines.sort_unstable();
            lines.dedup();
            assert_eq!(lines.len(), TRIPLES_PER_DEPARTMENT);
        }
    }

    #[test]
    fn constants_follow_the_seed() {
        let q = |seed| {
            let mut rng = Rng::lane(seed, 2);
            (0..8)
                .map(|i| point_query(i, 1750, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(q(1), q(1));
        assert_ne!(q(1), q(2));
        assert_eq!(new_student(3).lines().count(), TRIPLES_PER_NEW_STUDENT);
        assert_eq!(new_student(3).len(), new_student(4711).len());
    }
}
