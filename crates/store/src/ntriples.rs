//! A small N-Triples-style concrete syntax.
//!
//! The paper deliberately works with an abstract syntax and leaves
//! serialization out of scope; a concrete syntax is still needed to ship
//! example data and to make the workload generators inspectable. The format
//! here is a pragmatic subset of N-Triples:
//!
//! ```text
//! # comment
//! <ex:Picasso> <ex:paints> <ex:Guernica> .
//! _:X <rdf:type> <ex:Painter> .
//! ```
//!
//! URIs are written in angle brackets (any non-`>` characters are allowed,
//! so compact forms like `ex:paints` are fine), blank nodes with the usual
//! `_:` prefix. One triple per line, terminated by a period.

use swdb_model::{Graph, Term, Triple};

/// An error produced while parsing the N-Triples-style syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes a graph, one triple per line, in deterministic order.
pub fn serialize(graph: &Graph) -> String {
    let mut size = 0;
    write_graph(graph, |piece| size += piece.len());
    let mut out = String::with_capacity(size);
    write_graph(graph, |piece| out.push_str(piece));
    out
}

/// Hands `sink` the text [`serialize`] returns, piece by piece and without
/// allocating — for callers that size or transform it as it is produced.
pub fn write_graph(graph: &Graph, mut sink: impl FnMut(&str)) {
    for t in graph.iter() {
        write_term(t.subject(), &mut sink);
        sink(" <");
        sink(t.predicate().as_str());
        sink("> ");
        write_term(t.object(), &mut sink);
        sink(" .\n");
    }
}

/// Hands `sink` one term as [`write_graph`] writes it: `<uri>` or `_:label`.
pub fn write_term(term: &Term, sink: &mut impl FnMut(&str)) {
    let (open, text, close) = match term {
        Term::Iri(iri) => ("<", iri.as_str(), ">"),
        Term::Blank(b) => ("_:", b.as_str(), ""),
    };
    sink(open);
    sink(text);
    sink(close);
}

/// Parses a graph from the N-Triples-style syntax.
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    for (index, raw_line) in input.lines().enumerate() {
        let line_no = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(body) = line.strip_suffix('.').map(str::trim) else {
            return Err(ParseError {
                line: line_no,
                message: "missing terminating '.'".to_owned(),
            });
        };
        let mut tokens = Tokenizer::new(body, line_no);
        let subject = tokens.next_term()?;
        let predicate = tokens.next_term()?;
        let object = tokens.next_term()?;
        tokens.expect_end()?;
        let Term::Iri(predicate) = predicate else {
            return Err(ParseError {
                line: line_no,
                message: "predicate must be a URI, found a blank node".to_owned(),
            });
        };
        graph.insert(Triple::new(subject, predicate, object));
    }
    Ok(graph)
}

struct Tokenizer<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(body: &'a str, line: usize) -> Self {
        Tokenizer {
            rest: body.trim_start(),
            line,
        }
    }

    fn next_term(&mut self) -> Result<Term, ParseError> {
        if let Some(rest) = self.rest.strip_prefix('<') {
            let Some(end) = rest.find('>') else {
                return Err(self.error("unterminated URI (missing '>')"));
            };
            let iri = &rest[..end];
            if iri.is_empty() {
                return Err(self.error("empty URI"));
            }
            self.rest = rest[end + 1..].trim_start();
            return Ok(Term::iri(iri));
        }
        if let Some(rest) = self.rest.strip_prefix("_:") {
            let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
            let label = &rest[..end];
            if label.is_empty() {
                return Err(self.error("empty blank node label"));
            }
            self.rest = rest[end..].trim_start();
            return Ok(Term::blank(label));
        }
        if self.rest.is_empty() {
            return Err(self.error("expected a term, found end of line"));
        }
        Err(self.error(&format!(
            "unrecognised token starting at '{}'",
            truncated(self.rest)
        )))
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        if self.rest.trim().is_empty() {
            Ok(())
        } else {
            Err(self.error(&format!("trailing content: '{}'", truncated(self.rest))))
        }
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError {
            line: self.line,
            message: message.to_owned(),
        }
    }
}

fn truncated(s: &str) -> String {
    s.chars().take(20).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdb_model::{graph, triple, Iri};

    #[test]
    fn serialize_then_parse_round_trips() {
        let g = graph([
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
            ("_:X", "rdf:type", "ex:Painter"),
            ("ex:paints", "rdfs:subPropertyOf", "ex:creates"),
        ]);
        let text = serialize(&g);
        let parsed = parse(&text).expect("round trip parses");
        assert_eq!(parsed, g);
    }

    #[test]
    fn serialize_writes_exactly_these_bytes() {
        // URIs and blanks in every position they may take; URIs sort first.
        let g = graph([
            ("_:X", "ex:q", "_:Y"),
            ("_:X", "ex:p", "ex:b"),
            ("ex:a", "ex:p", "_:Y"),
            ("ex:a", "ex:p", "ex:b"),
        ]);
        let text = serialize(&g);
        assert_eq!(
            text,
            "<ex:a> <ex:p> <ex:b> .\n<ex:a> <ex:p> _:Y .\n\
             _:X <ex:p> <ex:b> .\n_:X <ex:q> _:Y .\n"
        );
        let mut pieces = String::new();
        write_graph(&g, |piece| pieces.push_str(piece));
        assert_eq!(pieces, text, "the sink sees the same bytes");
        assert_eq!(serialize(&Graph::new()), "");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\n\n<ex:a> <ex:p> <ex:b> .\n   \n# another\n_:X <ex:p> <ex:b> .\n";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(parsed.contains(&triple("ex:a", "ex:p", "ex:b")));
        assert!(parsed.contains(&triple("_:X", "ex:p", "ex:b")));
    }

    #[test]
    fn missing_period_is_an_error() {
        let err = parse("<ex:a> <ex:p> <ex:b>").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("terminating"));
    }

    #[test]
    fn blank_predicate_is_rejected() {
        let err = parse("<ex:a> _:P <ex:b> .").unwrap_err();
        assert!(err.message.contains("predicate"));
    }

    #[test]
    fn malformed_terms_are_reported_with_line_numbers() {
        let err = parse("<ex:a> <ex:p> <ex:b> .\n<ex:a> <ex:p junk .").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unterminated URI") || err.message.contains("unrecognised"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = parse("<ex:a> <ex:p> <ex:b> <ex:c> .").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn whitespace_is_flexible() {
        let parsed = parse("   <ex:a>    <ex:p>      _:B   .   ").unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(parsed.contains(&triple("ex:a", "ex:p", "_:B")));
    }

    #[test]
    fn empty_uri_and_empty_blank_are_rejected() {
        assert!(parse("<> <ex:p> <ex:b> .").is_err());
        assert!(parse("_: <ex:p> <ex:b> .").is_err());
    }

    #[test]
    fn error_display_mentions_line() {
        let err = parse("bogus line .").unwrap_err();
        assert!(err.to_string().starts_with("line 1:"));
    }

    // ----- recovery-path hardening -----
    //
    // WAL records carry N-Triples text, and while every record is
    // CRC-guarded, the parser is the last line of defence: on *any* input
    // it must return `Ok` or a line-numbered `ParseError` — never panic,
    // never mis-index a line.

    use proptest::prelude::*;

    /// The parser's contract on an input it rejects.
    fn assert_well_formed_error(input: &str, err: &ParseError) {
        let lines = input.lines().count().max(1);
        assert!(
            err.line >= 1 && err.line <= lines,
            "error line {} out of range 1..={lines}",
            err.line
        );
        assert!(!err.message.is_empty());
        // And the Display form carries the location.
        assert!(err.to_string().starts_with(&format!("line {}:", err.line)));
    }

    #[test]
    fn every_truncation_of_a_valid_document_parses_or_fails_cleanly() {
        let g = graph([
            ("ex:Picasso", "ex:paints", "ex:Guernica"),
            ("_:X", "rdf:type", "ex:Painter"),
            ("ex:paints", "rdfs:subPropertyOf", "ex:creates"),
        ]);
        let text = serialize(&g);
        for cut in 0..=text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let prefix = &text[..cut];
            match parse(prefix) {
                // A prefix can only ever contain whole triples of the
                // original document.
                Ok(parsed) => assert!(parsed.is_subgraph_of(&g)),
                Err(err) => assert_well_formed_error(prefix, &err),
            }
        }
    }

    #[test]
    fn garbage_after_valid_lines_reports_the_garbage_line() {
        let err = parse("<ex:a> <ex:p> <ex:b> .\n\x00\x01 binary junk\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes (lossily decoded, as a recovery path would after
        /// checksum damage slipped through) never panic the parser, and any
        /// rejection carries an in-range line number.
        #[test]
        fn arbitrary_bytes_never_panic_the_parser(bytes in proptest::collection::vec(0u8..255, 0..300)) {
            let input = String::from_utf8_lossy(&bytes).into_owned();
            if let Err(err) = parse(&input) {
                assert_well_formed_error(&input, &err);
            }
        }

        /// Splicing garbage into a valid document fails with the error
        /// attributed to a line, never a panic — and the same document
        /// without the splice still round-trips.
        #[test]
        fn garbage_spliced_into_a_valid_document_fails_cleanly(
            ids in proptest::collection::vec((0usize..5, 0usize..3, 0usize..5), 1..8),
            junk in proptest::collection::vec(0u8..255, 1..40),
            at in 0usize..8,
        ) {
            let g: Graph = ids
                .iter()
                .map(|(s, p, o)| {
                    Triple::new(
                        Term::iri(format!("ex:s{s}")),
                        Iri::new(format!("ex:p{p}")),
                        Term::iri(format!("ex:o{o}")),
                    )
                })
                .collect();
            let clean = serialize(&g);
            prop_assert_eq!(parse(&clean).expect("round trip"), g);

            let junk_line = String::from_utf8_lossy(&junk).into_owned();
            let mut lines: Vec<&str> = clean.lines().collect();
            let at = at.min(lines.len());
            lines.insert(at, &junk_line);
            let spliced = lines.join("\n");
            match parse(&spliced) {
                // The junk happened to parse (e.g. whitespace or a comment):
                // the result must still contain every original triple.
                Ok(parsed) => prop_assert!(g.is_subgraph_of(&parsed)),
                Err(err) => assert_well_formed_error(&spliced, &err),
            }
        }
    }
}
