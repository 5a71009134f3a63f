//! A small LUBM-style university workload.
//!
//! The paper does not evaluate on real data; this generator provides a
//! realistic-looking instance graph (departments, courses, professors,
//! students) over a fixed RDFS schema so that query answering is tested
//! over something that resembles a deployment rather than purely random
//! triples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swdb_model::{graph, rdfs, Graph, Term, Triple};
use swdb_query::{query, Query};

/// Size parameters for the university generator.
#[derive(Clone, Copy, Debug)]
pub struct UniversityConfig {
    /// Number of departments.
    pub departments: usize,
    /// Courses per department.
    pub courses_per_department: usize,
    /// Professors per department.
    pub professors_per_department: usize,
    /// Students per department.
    pub students_per_department: usize,
    /// Courses each student takes (sampled with replacement).
    pub enrollments_per_student: usize,
}

impl Default for UniversityConfig {
    fn default() -> Self {
        UniversityConfig {
            departments: 2,
            courses_per_department: 5,
            professors_per_department: 3,
            students_per_department: 10,
            enrollments_per_student: 3,
        }
    }
}

/// The fixed university schema.
pub fn schema() -> Graph {
    graph([
        ("uni:Professor", rdfs::SC, "uni:Faculty"),
        ("uni:Lecturer", rdfs::SC, "uni:Faculty"),
        ("uni:Faculty", rdfs::SC, "uni:Person"),
        ("uni:Student", rdfs::SC, "uni:Person"),
        ("uni:GraduateStudent", rdfs::SC, "uni:Student"),
        ("uni:teaches", rdfs::DOM, "uni:Faculty"),
        ("uni:teaches", rdfs::RANGE, "uni:Course"),
        ("uni:takes", rdfs::DOM, "uni:Student"),
        ("uni:takes", rdfs::RANGE, "uni:Course"),
        ("uni:offers", rdfs::DOM, "uni:Department"),
        ("uni:offers", rdfs::RANGE, "uni:Course"),
        ("uni:headOf", rdfs::SP, "uni:worksFor"),
        ("uni:worksFor", rdfs::DOM, "uni:Person"),
        ("uni:worksFor", rdfs::RANGE, "uni:Department"),
    ])
}

/// Generates the instance data for the given configuration.
pub fn instances(config: &UniversityConfig, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    for d in 0..config.departments {
        let dept = Term::iri(format!("uni:dept{d}"));
        g.insert(Triple::new(
            dept.clone(),
            rdfs::type_(),
            Term::iri("uni:Department"),
        ));
        let courses: Vec<Term> = (0..config.courses_per_department)
            .map(|c| Term::iri(format!("uni:course{d}_{c}")))
            .collect();
        for course in &courses {
            g.insert(Triple::new(dept.clone(), "uni:offers", course.clone()));
            g.insert(Triple::new(
                course.clone(),
                rdfs::type_(),
                Term::iri("uni:Course"),
            ));
        }
        for p in 0..config.professors_per_department {
            let prof = Term::iri(format!("uni:prof{d}_{p}"));
            g.insert(Triple::new(
                prof.clone(),
                rdfs::type_(),
                Term::iri("uni:Professor"),
            ));
            g.insert(Triple::new(prof.clone(), "uni:worksFor", dept.clone()));
            if p == 0 {
                g.insert(Triple::new(prof.clone(), "uni:headOf", dept.clone()));
            }
            if !courses.is_empty() {
                let course = &courses[rng.gen_range(0..courses.len())];
                g.insert(Triple::new(prof, "uni:teaches", course.clone()));
            }
        }
        for s in 0..config.students_per_department {
            let student = Term::iri(format!("uni:student{d}_{s}"));
            let class = if s % 4 == 0 {
                "uni:GraduateStudent"
            } else {
                "uni:Student"
            };
            g.insert(Triple::new(
                student.clone(),
                rdfs::type_(),
                Term::iri(class),
            ));
            for _ in 0..config.enrollments_per_student {
                if courses.is_empty() {
                    break;
                }
                let course = &courses[rng.gen_range(0..courses.len())];
                g.insert(Triple::new(student.clone(), "uni:takes", course.clone()));
            }
            // Some students have an anonymous advisor.
            if s % 5 == 0 {
                g.insert(Triple::new(
                    student,
                    "uni:advisedBy",
                    Term::blank(format!("advisor{d}_{s}")),
                ));
            }
        }
    }
    g
}

/// Schema plus instances.
pub fn university(config: &UniversityConfig, seed: u64) -> Graph {
    schema().union(&instances(config, seed))
}

/// "Which persons work for which department" — requires subproperty
/// reasoning (`headOf ⊑ worksFor`).
pub fn workers_query() -> Query {
    query(
        [("?X", "uni:worksFor", "?D")],
        [("?X", "uni:worksFor", "?D")],
    )
}

/// "Which resources are persons" — requires domain typing and subclass
/// lifting.
pub fn persons_query() -> Query {
    query(
        [("?X", rdfs::TYPE, "uni:Person")],
        [("?X", rdfs::TYPE, "uni:Person")],
    )
}

/// A join query: students and the professors teaching the courses they take.
pub fn student_professor_query() -> Query {
    query(
        [("?S", "uni:learnsFrom", "?P")],
        [("?S", "uni:takes", "?C"), ("?P", "uni:teaches", "?C")],
    )
}

/// A star-shaped query of configurable width over one department, used to
/// scale *query* complexity while the data stays fixed
/// (`tests/paper_results.rs::theorem_6_1_fixed_query_evaluation_is_feasible_on_growing_data`).
pub fn star_query(width: usize) -> Query {
    let mut body: Vec<(String, String, String)> = Vec::with_capacity(width);
    for i in 0..width {
        body.push(("?D".to_owned(), "uni:offers".to_owned(), format!("?C{i}")));
    }
    let body_refs: Vec<(&str, &str, &str)> = body
        .iter()
        .map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str()))
        .collect();
    query([("?D", rdfs::TYPE, "uni:BusyDepartment")], body_refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_query::answer_union;

    #[test]
    fn generator_is_seeded_and_scales() {
        let small = university(&UniversityConfig::default(), 1);
        let same = university(&UniversityConfig::default(), 1);
        assert_eq!(small, same);
        let bigger = university(
            &UniversityConfig {
                departments: 4,
                ..UniversityConfig::default()
            },
            1,
        );
        assert!(bigger.len() > small.len());
    }

    #[test]
    fn subproperty_reasoning_reaches_heads_of_departments() {
        let g = university(&UniversityConfig::default(), 2);
        let answers = answer_union(&workers_query(), &g);
        // Every head-of is also a works-for.
        assert!(answers
            .iter()
            .any(|t| t.subject() == &Term::iri("uni:prof0_0")));
    }

    #[test]
    fn persons_are_inferred_from_types_and_domains() {
        let g = university(&UniversityConfig::default(), 3);
        let answers = answer_union(&persons_query(), &g);
        assert!(answers
            .iter()
            .any(|t| t.subject() == &Term::iri("uni:student0_0")));
        assert!(answers
            .iter()
            .any(|t| t.subject() == &Term::iri("uni:prof0_0")));
    }

    #[test]
    fn join_query_connects_students_and_professors() {
        let g = university(&UniversityConfig::default(), 4);
        let answers = answer_union(&student_professor_query(), &g);
        assert!(!answers.is_empty());
        assert!(answers
            .iter()
            .all(|t| t.predicate().as_str() == "uni:learnsFrom"));
    }

    #[test]
    fn star_queries_grow_with_width() {
        assert_eq!(star_query(1).body().len(), 1);
        assert_eq!(star_query(5).body().len(), 5);
        assert_eq!(star_query(5).body_variables().len(), 6);
    }
}
