//! Little-endian binary encoding primitives shared by the snapshot segment
//! and the WAL record payloads.
//!
//! Everything is length-prefixed and fixed-width little-endian; there is no
//! varint cleverness to get wrong. Decoding is *hostile-input safe*: every
//! read is bounds-checked and every error is a typed [`DecodeError`] with a
//! byte offset — recovery feeds these routines bytes that a crash (or the
//! fault injector) may have torn or flipped, and the contract is that they
//! return errors, never panic.

use std::{fmt, io};

use swdb_model::Term;
use swdb_store::IdTriple;

/// A structural decoding failure: what was expected, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset in the input at which decoding failed.
    pub offset: usize,
    /// What the decoder was trying to read.
    pub expected: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decode error at byte {}: expected {}",
            self.offset, self.expected
        )
    }
}

impl std::error::Error for DecodeError {}

/// A byte length as the `u32` a WAL frame or a segment header stores: past
/// `u32::MAX`, an `InvalidData` error instead of a wrapped length.
pub fn length_field(len: usize) -> io::Result<u32> {
    let long = || io::Error::new(io::ErrorKind::InvalidData, "a length past u32::MAX");
    u32::try_from(len).map_err(|_| long())
}

/// A bounds-checked cursor over an encoded byte slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Returns `Ok` only if every byte has been consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError {
                offset: self.pos,
                expected: "end of input",
            })
        }
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError {
                offset: self.pos,
                expected,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input. The
    /// length is validated against the remaining input, so a corrupted
    /// length cannot balloon memory.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        let raw = self.take(len, "string bytes")?;
        std::str::from_utf8(raw).map_err(|_| DecodeError {
            offset: self.pos - len,
            expected: "utf-8 string",
        })
    }

    /// Reads a length-prefixed UTF-8 string into an owned one
    /// ([`Reader::str`]).
    pub fn string(&mut self) -> Result<String, DecodeError> {
        self.str().map(str::to_owned)
    }

    /// Reads a tagged [`Term`] (0 = IRI, 1 = blank).
    pub fn term(&mut self) -> Result<Term, DecodeError> {
        let tag = self.u8()?;
        let text = self.str()?;
        match tag {
            0 => Ok(Term::iri(text)),
            1 => Ok(Term::blank(text)),
            _ => Err(DecodeError {
                offset: self.pos,
                expected: "term tag 0|1",
            }),
        }
    }

    /// Reads an [`IdTriple`] (three little-endian u32s), bounds-checked
    /// once.
    pub fn id_triple(&mut self) -> Result<IdTriple, DecodeError> {
        let b = self.take(12, "id triple")?;
        let id = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        Ok((id(0), id(4), id(8)))
    }

    /// Reads a length-prefixed vector via `item`. The count is sanity
    /// checked against the minimum encoded size of one item so corrupted
    /// counts fail fast instead of allocating.
    pub fn vec<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(DecodeError {
                offset: self.pos,
                expected: "vector items",
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

/// An append-only encoder; the write-side mirror of [`Reader`].
#[derive(Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// An empty encoder.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long to encode"));
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Appends a tagged [`Term`].
    pub fn term(&mut self, term: &Term) {
        match term {
            Term::Iri(iri) => {
                self.u8(0);
                self.string(iri.as_str());
            }
            Term::Blank(blank) => {
                self.u8(1);
                self.string(blank.as_str());
            }
        }
    }

    /// Appends an [`IdTriple`].
    pub fn id_triple(&mut self, (s, p, o): IdTriple) {
        self.u32(s);
        self.u32(p);
        self.u32(o);
    }

    /// Appends a length-prefixed vector via `item`.
    pub fn vec<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.u32(u32::try_from(items.len()).expect("vector too long to encode"));
        for it in items {
            item(self, it);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_length_past_u32_max_is_an_error_not_a_wrapped_field() {
        assert_eq!(length_field(0).unwrap(), 0);
        assert_eq!(length_field(u32::MAX as usize).unwrap(), u32::MAX);
        let err = length_field(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(length_field(usize::MAX).is_err());
    }

    #[test]
    fn scalars_strings_terms_and_triples_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.string("héllo");
        w.term(&Term::iri("ex:a"));
        w.term(&Term::blank("b0"));
        w.id_triple((1, 2, 3));
        w.vec(&[10u32, 20, 30], |w, &v| w.u32(v));
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.term().unwrap(), Term::iri("ex:a"));
        assert_eq!(r.term().unwrap(), Term::blank("b0"));
        assert_eq!(r.id_triple().unwrap(), (1, 2, 3));
        assert_eq!(r.vec(4, |r| r.u32()).unwrap(), vec![10, 20, 30]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_is_a_typed_error_not_a_panic() {
        let mut w = Writer::new();
        w.string("some payload text");
        let bytes = w.into_bytes();
        // Every proper prefix fails cleanly.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.string().is_err(), "prefix of {cut} bytes should fail");
        }
    }

    #[test]
    fn corrupted_lengths_do_not_allocate_or_panic() {
        // A string length far beyond the buffer.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).string().is_err());

        // A vector count far beyond the buffer.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).vec(12, |r| r.id_triple()).is_err());
    }

    #[test]
    fn bad_term_tag_and_bad_utf8_are_errors() {
        let mut w = Writer::new();
        w.u8(9); // invalid tag
        w.string("x");
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).term().is_err());

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]); // invalid utf-8
        assert!(Reader::new(&bytes).string().is_err());
    }

    #[test]
    fn unconsumed_trailing_bytes_are_rejected_by_finish() {
        let mut w = Writer::new();
        w.u32(1);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }
}
