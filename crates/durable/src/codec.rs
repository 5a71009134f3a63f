//! Little-endian binary encoding primitives shared by the snapshot segment
//! and the WAL record payloads.
//!
//! Everything is length-prefixed and fixed-width little-endian; there is no
//! varint cleverness to get wrong. Decoding is *hostile-input safe*: every
//! read is bounds-checked and every error is a typed [`DecodeError`] with a
//! byte offset — recovery feeds these routines bytes that a crash (or the
//! fault injector) may have torn or flipped, and the contract is that they
//! return errors, never panic.

use std::borrow::Cow;
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

/// The chunk a segment is written and read back in, in bytes.
pub const CHUNK: usize = 64 << 10;

/// A bounds-checked cursor over encoded bytes: a slice, or input read in
/// chunks ([`Reader::chunked`]), of which it holds one at a time.
pub struct Reader<'a> {
    bytes: Cow<'a, [u8]>,
    /// `bytes[at..end]` is read in and not taken yet; `pos` of the input's
    /// `len` bytes are taken.
    at: usize,
    end: usize,
    pos: usize,
    len: usize,
    more: Option<&'a mut Refill<'a>>,
}

/// Reads more input into a slice: the bytes read, 0 at its end.
pub type Refill<'a> = dyn FnMut(&mut [u8]) -> io::Result<usize> + 'a;

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader::over(Cow::Borrowed(bytes), bytes.len(), bytes.len(), None)
    }

    /// A reader over `len` bytes that `more` reads in, [`CHUNK`] at a time.
    pub fn chunked(len: usize, more: &'a mut Refill<'a>) -> Self {
        Reader::over(Cow::Owned(vec![0; CHUNK]), 0, len, Some(more))
    }

    fn over(
        bytes: Cow<'a, [u8]>,
        end: usize,
        len: usize,
        more: Option<&'a mut Refill<'a>>,
    ) -> Self {
        let (at, pos) = (0, 0);
        Reader {
            bytes,
            at,
            end,
            pos,
            len,
            more,
        }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Returns `Ok` only if every byte has been consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError {
                offset: self.pos,
                expected: "end of input",
            })
        }
    }

    /// Reads past every byte left, a chunk at a time.
    pub fn skip_rest(&mut self) -> Result<(), DecodeError> {
        while self.remaining() > 0 {
            self.take(self.remaining().min(CHUNK), "the rest of the input")?;
        }
        Ok(())
    }

    /// The next `n` bytes, read in first if the chunk holds fewer.
    #[inline]
    fn take(&mut self, n: usize, expected: &'static str) -> Result<&[u8], DecodeError> {
        if self.end - self.at < n {
            self.read_in(n, expected)?;
        }
        self.at += n;
        self.pos += n;
        Ok(&self.bytes[self.at - n..self.at])
    }

    /// Reads in at least `n` bytes past `at`, or fails as `expected`: a
    /// slice has nothing more to read.
    fn read_in(&mut self, n: usize, expected: &'static str) -> Result<(), DecodeError> {
        let short = DecodeError {
            offset: self.pos,
            expected,
        };
        let enough = self.len - self.pos >= n;
        let more = self.more.as_mut().filter(|_| enough).ok_or(short.clone())?;
        let buf = self.bytes.to_mut();
        buf.copy_within(self.at..self.end, 0);
        (self.end, self.at) = (self.end - self.at, 0);
        let want = n.max(buf.len()).min(self.len - self.pos);
        if buf.len() < want {
            buf.resize(want, 0);
        }
        while self.end < want {
            match more(&mut buf[self.end..want]) {
                Ok(got) if got > 0 => self.end += got,
                _ => return Err(short),
            }
        }
        Ok(())
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian u32.
    #[inline]
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
    pub fn str(&mut self) -> Result<&str, DecodeError> {
        let len = self.u32()? as usize;
        let offset = self.pos;
        let raw = self.take(len, "string bytes")?;
        std::str::from_utf8(raw).map_err(|_| DecodeError {
            offset,
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
        let (tag, offset) = (self.u8()?, self.pos);
        match (tag, self.str()?) {
            (0, text) => Ok(Term::iri(text)),
            (1, text) => Ok(Term::blank(text)),
            _ => Err(DecodeError {
                offset,
                expected: "term tag 0|1",
            }),
        }
    }

    /// Reads an [`IdTriple`] (three little-endian u32s), bounds-checked
    /// once.
    #[inline]
    pub fn id_triple(&mut self) -> Result<IdTriple, DecodeError> {
        let b = self.take(12, "id triple")?;
        let id = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        Ok((id(0), id(4), id(8)))
    }

    /// Reads a vector's count. It is sanity checked against the minimum
    /// encoded size of one item so corrupted counts fail fast instead of
    /// allocating.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(DecodeError {
                offset: self.pos,
                expected: "vector items",
            });
        }
        Ok(count)
    }
}

/// An append-only encoder; the write-side mirror of [`Reader`], into any
/// [`io::Write`]: a `Vec`, or a snapshot segment's buffered file. The
/// first write error sticks, and [`Writer::finish`] returns it.
#[derive(Default)]
pub struct Writer<W = Vec<u8>> {
    out: W,
    failed: Option<io::Error>,
}

impl Writer {
    /// An empty in-memory encoder.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes; an in-memory write fails only on a field too
    /// long to encode, which panics.
    pub fn into_bytes(self) -> Vec<u8> {
        let (bytes, written) = self.finish();
        written.expect("a field too long to encode");
        bytes
    }
}

impl<W: io::Write> Writer<W> {
    /// An encoder writing into `out`.
    pub fn to(out: W) -> Self {
        Writer { out, failed: None }
    }

    /// The sink, and the first error a write met.
    pub fn finish(self) -> (W, io::Result<()>) {
        (self.out, self.failed.map_or(Ok(()), Err))
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.failed.is_none() {
            self.failed = self.out.write_all(bytes).err();
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a count or a length as a u32 ([`length_field`]).
    pub fn count(&mut self, n: usize) {
        match length_field(n) {
            Ok(n) => self.u32(n),
            Err(e) => _ = self.failed.get_or_insert(e),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.count(s.len());
        self.put(s.as_bytes());
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

    /// Appends a counted sequence: `len`, then each of `items` via `item`.
    /// Items that disagree with `len` are an `InvalidData` error, not a
    /// misframed encoding.
    pub fn seq<T>(
        &mut self,
        (len, items): (usize, impl Iterator<Item = T>),
        mut item: impl FnMut(&mut Self, T),
    ) {
        self.count(len);
        if items.map(|it| item(self, it)).count() != len {
            let e = "a sequence's items disagree with its count";
            _ = (self.failed).get_or_insert(io::Error::new(io::ErrorKind::InvalidData, e));
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
        w.seq((3, [10u32, 20, 30].into_iter()), Writer::u32);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.term().unwrap(), Term::iri("ex:a"));
        assert_eq!(r.term().unwrap(), Term::blank("b0"));
        assert_eq!(r.id_triple().unwrap(), (1, 2, 3));
        assert_eq!(r.count(4).unwrap(), 3);
        assert_eq!(
            [r.u32(), r.u32(), r.u32()].map(Result::unwrap),
            [10, 20, 30]
        );
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
        assert!(Reader::new(&bytes).count(12).is_err());
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
