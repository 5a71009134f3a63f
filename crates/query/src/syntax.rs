//! A concrete text syntax for tableau queries.
//!
//! The paper writes queries in the logic-programming style
//!
//! ```text
//! (?A, creates, ?Y) <- (?A, type, Flemish), (?A, paints, ?Y), (?Y, exhibited, Uffizi)
//! ```
//!
//! This module parses and prints that notation, extended with the optional
//! clauses the paper's Definition 4.1 adds:
//!
//! ```text
//! (?X, relative, Peter) <- (?X, relative, Peter)
//!   WITH PREMISE { (son, sp, relative) . }
//!   WHERE BOUND ?X
//! ```
//!
//! * Terms follow the shorthand used throughout the workspace: `?X` is a
//!   variable, `_:b` a blank node, anything else a URI label. The reserved
//!   words `sp`, `sc`, `type`, `dom`, `range` abbreviate the RDFS
//!   vocabulary.
//! * The premise block uses the N-Triples-style syntax of `swdb-store`, with
//!   bare labels allowed as a convenience.
//! * `WHERE BOUND` lists the must-bind (constraint) variables.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use swdb_hom::{PatternGraph, PatternTerm, TriplePattern, Variable};
use swdb_model::{rdfs, Graph, Term, Triple};

use crate::query::{Query, QueryError};

/// An error produced while parsing the query syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyntaxError {
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query syntax error: {}", self.message)
    }
}

impl std::error::Error for SyntaxError {}

impl From<QueryError> for SyntaxError {
    fn from(value: QueryError) -> Self {
        SyntaxError {
            message: value.to_string(),
        }
    }
}

fn err(message: impl Into<String>) -> SyntaxError {
    SyntaxError {
        message: message.into(),
    }
}

/// Parses a query from the textual notation.
pub fn parse_query(input: &str) -> Result<Query, SyntaxError> {
    let input = input.trim();
    // Split off the optional clauses first (they may contain "<-"-free text).
    let (main, constraints_part) = match split_keyword(input, "WHERE BOUND") {
        Some((before, after)) => (before, Some(after)),
        None => (input, None),
    };
    let (main, premise_part) = match split_keyword(main, "WITH PREMISE") {
        Some((before, after)) => (before, Some(after)),
        None => (main, None),
    };
    let Some((head_text, body_text)) = main.split_once("<-") else {
        return Err(err("missing '<-' between head and body"));
    };
    let head = parse_pattern_list(head_text)?;
    let body = parse_pattern_list(body_text)?;
    let premise = match premise_part {
        None => Graph::new(),
        Some(text) => parse_premise(text)?,
    };
    let constraints: BTreeSet<Variable> = match constraints_part {
        None => BTreeSet::new(),
        Some(text) => text
            .split([',', ' '])
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                if let Some(name) = s.strip_prefix('?') {
                    Ok(Variable::new(name))
                } else {
                    Err(err(format!("constraint '{s}' must be a ?variable")))
                }
            })
            .collect::<Result<_, _>>()?,
    };
    Query::with_all(head, body, premise, constraints).map_err(Into::into)
}

fn split_keyword<'a>(input: &'a str, keyword: &str) -> Option<(&'a str, &'a str)> {
    let position = input.find(keyword)?;
    let (before, after) = input.split_at(position);
    Some((before.trim(), after[keyword.len()..].trim()))
}

/// Parses a comma-separated list of `(s, p, o)` triple patterns.
fn parse_pattern_list(text: &str) -> Result<PatternGraph, SyntaxError> {
    let mut patterns = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let Some(open) = rest.find('(') else {
            if rest.trim_matches([',', ' ']).is_empty() {
                break;
            }
            return Err(err(format!("expected '(', found '{rest}'")));
        };
        let Some(close) = rest[open..].find(')') else {
            return Err(err("unterminated triple pattern (missing ')')"));
        };
        let inside = &rest[open + 1..open + close];
        let parts: Vec<&str> = inside.split(',').map(str::trim).collect();
        if parts.len() != 3 {
            return Err(err(format!(
                "a triple pattern needs 3 components, got '{inside}'"
            )));
        }
        patterns.push(TriplePattern::new(
            parse_term(parts[0])?,
            parse_term(parts[1])?,
            parse_term(parts[2])?,
        ));
        rest = rest[open + close + 1..].trim_start_matches([',', ' ']);
    }
    Ok(PatternGraph::from_patterns(patterns))
}

/// Parses a single term of the query syntax.
fn parse_term(label: &str) -> Result<PatternTerm, SyntaxError> {
    if label.is_empty() {
        return Err(err("empty term"));
    }
    if let Some(name) = label.strip_prefix('?') {
        if name.is_empty() {
            return Err(err("'?' must be followed by a variable name"));
        }
        return Ok(PatternTerm::Var(Variable::new(name)));
    }
    Ok(PatternTerm::Const(named_term(label)))
}

/// Resolves the shorthand names of the RDFS vocabulary.
fn named_term(label: &str) -> Term {
    match label {
        "sp" => Term::Iri(rdfs::sp()),
        "sc" => Term::Iri(rdfs::sc()),
        "type" => Term::Iri(rdfs::type_()),
        "dom" => Term::Iri(rdfs::dom()),
        "range" => Term::Iri(rdfs::range()),
        other => swdb_model::parse_term(other),
    }
}

/// Parses the premise block: `{ (s, p, o) . (s, p, o) . }` or the
/// N-Triples-style `<s> <p> <o> .` lines of `swdb-store`.
fn parse_premise(text: &str) -> Result<Graph, SyntaxError> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| err("premise must be enclosed in { … }"))?;
    let mut graph = Graph::new();
    for statement in body.split('.') {
        let statement = statement.trim();
        if statement.is_empty() {
            continue;
        }
        // Accept both "(s, p, o)" and "<s> <p> <o>" forms.
        if statement.starts_with('(') {
            let inside = statement
                .strip_prefix('(')
                .and_then(|t| t.strip_suffix(')'))
                .ok_or_else(|| err(format!("malformed premise triple '{statement}'")))?;
            let parts: Vec<&str> = inside.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(err(format!(
                    "premise triple needs 3 components: '{inside}'"
                )));
            }
            if let Some(var) = parts.iter().find(|p| p.starts_with('?')) {
                return Err(err(format!(
                    "premises are variable-free graphs (Definition 4.1), found '{var}'"
                )));
            }
            let subject = named_term(parts[0]);
            let Term::Iri(predicate) = named_term(parts[1]) else {
                return Err(err(format!(
                    "premise predicate '{}' must be a URI",
                    parts[1]
                )));
            };
            let object = named_term(parts[2]);
            graph.insert(Triple::new(subject, predicate, object));
        } else {
            let line = format!("{statement} .");
            let parsed = swdb_store::parse(&line).map_err(|e| err(e.to_string()))?;
            graph.extend(parsed);
        }
    }
    Ok(graph)
}

/// Prints a query back in the textual notation. `parse_query ∘ format_query`
/// is the identity on the query's components.
pub fn format_query(query: &Query) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{} <- {}",
        format_patterns(query.head()),
        format_patterns(query.body())
    );
    if !query.premise().is_empty() {
        let triples: Vec<String> = query
            .premise()
            .iter()
            .map(|t| format!("({}, {}, {})", t.subject(), t.predicate(), t.object()))
            .collect();
        let _ = write!(out, " WITH PREMISE {{ {} . }}", triples.join(" . "));
    }
    if !query.constraints().is_empty() {
        let vars: Vec<String> = query
            .constraints()
            .iter()
            .map(ToString::to_string)
            .collect();
        let _ = write!(out, " WHERE BOUND {}", vars.join(", "));
    }
    out
}

fn format_patterns(pg: &PatternGraph) -> String {
    let patterns: Vec<String> = pg
        .patterns()
        .iter()
        .map(|p| format!("({}, {}, {})", p.subject, p.predicate, p.object))
        .collect();
    patterns.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swdb_model::graph;

    /// What `Query::with_all` guarantees, re-derived from the accessors —
    /// the parser must never hand out a query that skipped that gate — plus
    /// the printer and the evaluator accepting it without panicking.
    fn assert_well_formed(query: &Query) {
        let rebuilt = Query::with_all(
            query.head().clone(),
            query.body().clone(),
            query.premise().clone(),
            query.constraints().clone(),
        );
        assert_eq!(rebuilt.as_ref(), Ok(query));
        let _ = format_query(query);
        let _ = crate::answer::answer_union(query, &graph([("a", "p", "b"), ("b", "sc", "c")]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes, lossily decoded, never panic or hang the query
        /// parser.
        #[test]
        fn arbitrary_bytes_never_panic_the_parser(bytes in proptest::collection::vec(0u8..255, 0..300)) {
            let input = String::from_utf8_lossy(&bytes).into_owned();
            if let Ok(query) = parse_query(&input) {
                assert_well_formed(&query);
            }
        }

        /// Junk spliced into a valid query — at any character boundary, so
        /// inside terms, patterns, the premise block and the keywords — is
        /// a syntax error or a well-formed query, never a panic.
        #[test]
        fn junk_spliced_into_a_valid_query_fails_cleanly(
            which in 0usize..4,
            junk in proptest::collection::vec(0u8..255, 1..24),
            at in 0usize..200,
        ) {
            let valid = [
                "(?A, creates, ?Y) <- (?A, type, Flemish), (?A, paints, ?Y)",
                "(?X, relative, Peter) <- (?X, relative, Peter) \
                 WITH PREMISE { (son, sp, relative) . } WHERE BOUND ?X",
                "(?X, p, _:W) <- (?X, p, ?Y) WITH PREMISE { <ex:a> <ex:t> <ex:s> . _:B <ex:t> <ex:s> . }",
                "(?X, ?P, ?Y) <- (?X, ?P, ?Y)",
            ][which];
            assert_well_formed(&parse_query(valid).expect("the unspliced query parses"));

            let junk = String::from_utf8_lossy(&junk).into_owned();
            let mut at = at.min(valid.len());
            while !valid.is_char_boundary(at) {
                at -= 1;
            }
            let spliced = format!("{}{junk}{}", &valid[..at], &valid[at..]);
            if let Ok(query) = parse_query(&spliced) {
                assert_well_formed(&query);
            }
        }
    }

    #[test]
    fn parses_the_flemish_example() {
        let q = parse_query(
            "(?A, creates, ?Y) <- (?A, type, Flemish), (?A, paints, ?Y), (?Y, exhibited, Uffizi)",
        )
        .unwrap();
        assert_eq!(q.head().len(), 1);
        assert_eq!(q.body().len(), 3);
        assert!(q.is_premise_free());
        // "type" expands to the RDFS vocabulary term.
        assert!(q
            .body()
            .patterns()
            .iter()
            .any(|p| p.predicate.as_const() == Some(&Term::Iri(rdfs::type_()))));
    }

    #[test]
    fn parses_premises_and_constraints() {
        let q = parse_query(
            "(?X, relative, Peter) <- (?X, relative, Peter) \
             WITH PREMISE { (son, sp, relative) . } \
             WHERE BOUND ?X",
        )
        .unwrap();
        assert_eq!(q.premise(), &graph([("son", rdfs::SP, "relative")]));
        assert_eq!(q.constraints().len(), 1);
        assert!(q.constraints().contains(&Variable::new("X")));
    }

    #[test]
    fn premise_accepts_ntriples_style_lines() {
        let q = parse_query(
            "(?X, p, ?Y) <- (?X, p, ?Y) WITH PREMISE { <ex:a> <ex:t> <ex:s> . _:B <ex:t> <ex:s> . }",
        )
        .unwrap();
        assert_eq!(q.premise().len(), 2);
        assert_eq!(q.premise().blank_nodes().len(), 1);
    }

    #[test]
    fn round_trips_through_format() {
        let original = parse_query(
            "(?X, creates, _:W) <- (?X, paints, ?Y), (?Y, exhibited, Uffizi) \
             WITH PREMISE { (restores, sp, creates) . } WHERE BOUND ?X",
        )
        .unwrap();
        let text = format_query(&original);
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(reparsed.head(), original.head());
        assert_eq!(reparsed.body(), original.body());
        assert_eq!(reparsed.premise(), original.premise());
        assert_eq!(reparsed.constraints(), original.constraints());
    }

    #[test]
    fn identity_query_round_trips() {
        let id = Query::identity();
        let reparsed = parse_query(&format_query(&id)).unwrap();
        assert_eq!(reparsed, id);
    }

    #[test]
    fn error_cases_are_reported() {
        assert!(parse_query("(?X, p, ?Y)").is_err(), "missing arrow");
        assert!(
            parse_query("(?X, p) <- (?X, p, ?Y)").is_err(),
            "two components"
        );
        assert!(
            parse_query("(?X, p, ?Y) <- (?X, p, ?Y").is_err(),
            "unterminated"
        );
        assert!(
            parse_query("(?X, p, ?Y) <- (?X, p, ?Y) WHERE BOUND X").is_err(),
            "constraint without ?"
        );
        assert!(
            parse_query("(?X, p, ?Z) <- (?X, p, ?Y)").is_err(),
            "free head variable is a query-level error"
        );
        assert!(
            parse_query("(?X, p, ?Y) <- (?X, p, ?Y) WITH PREMISE { (a, ?P, b) . }").is_err(),
            "variables are not allowed in premises"
        );
    }

    #[test]
    fn parsed_queries_evaluate() {
        let q = parse_query("(?X, creates, ?Y) <- (?X, creates, ?Y)").unwrap();
        let d = graph([
            ("paints", rdfs::SP, "creates"),
            ("Picasso", "paints", "Guernica"),
        ]);
        let answers = crate::answer::answer_union(&q, &d);
        assert!(answers.contains(&swdb_model::triple("Picasso", "creates", "Guernica")));
    }
}
