//! Little-endian binary encoding primitives shared by the snapshot segment
//! and the WAL record payloads.
//!
//! Headers, settings, counts and the WAL's framing are fixed-width little
//! endian. A version-3 segment's bulk is varints (LEB128, seven bits a
//! byte): its triple runs as gaps from the triple before
//! ([`Writer::gap_triple`]) and its terms front-coded against the term
//! before ([`Writer::front_term`]). Decoding is *hostile-input safe*:
//! every read is bounds-checked and every error is a typed [`DecodeError`]
//! with a byte offset — recovery feeds these routines bytes that a crash
//! (or the fault injector) may have torn or flipped, and the contract is
//! that they return errors, never panic. A varint is at most five bytes
//! and its value is checked against its width ([`Reader::varints`]); a gap
//! is added with a checked addition; a shared prefix is at most the term
//! before, and the assembled term is checked as UTF-8 over bytes.

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

    fn error(&self, expected: &'static str) -> DecodeError {
        let offset = self.pos;
        DecodeError { offset, expected }
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
            Err(self.error("end of input"))
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
        let short = self.error(expected);
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

    /// Reads `N` varints straight from the chunk, checking it holds enough
    /// once: each at most five bytes, and a value of `bits[i]` bits or more
    /// is an error, never a wrapped one.
    #[inline]
    pub fn varints<const N: usize>(&mut self, bits: [u32; N]) -> Result<[u64; N], DecodeError> {
        let n = self.remaining().min(5 * N);
        if self.end - self.at < n {
            self.read_in(n, "varints")?;
        }
        let (bytes, mut len, mut values) = (&self.bytes[self.at..self.at + n], 0, [0; N]);
        for (value, bits) in values.iter_mut().zip(bits) {
            for i in 0.. {
                match bytes.get(len) {
                    Some(&b) if i < 5 => *value |= u64::from(b & 0x7f) << (7 * i),
                    _ => return Err(self.error("varints of at most five bytes")),
                }
                len += 1;
                if bytes[len - 1] < 0x80 {
                    break;
                }
            }
            if *value >> bits != 0 {
                return Err(self.error("varints within their widths"));
            }
        }
        (self.at, self.pos) = (self.at + len, self.pos + len);
        Ok(values)
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
        let expected = "utf-8 string";
        std::str::from_utf8(raw).map_err(|_| DecodeError { offset, expected })
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

    /// Reads a front-coded [`Term`] ([`Writer::front_term`]) into `text`,
    /// which holds the bytes of the term before it.
    pub fn front_term(&mut self, text: &mut Vec<u8>) -> Result<Term, DecodeError> {
        let (offset, [lead, len]) = (self.pos, self.varints([33, 32])?);
        let malformed = |expected| DecodeError { offset, expected };
        let shared = (lead >> 1) as usize;
        if shared > text.len() {
            return Err(malformed("a prefix shared with the term before"));
        }
        text.truncate(shared);
        text.extend_from_slice(self.take(len as usize, "term bytes")?);
        let text = std::str::from_utf8(text).map_err(|_| malformed("utf-8 term"))?;
        Ok(match lead & 1 {
            0 => Term::iri(text),
            _ => Term::blank(text),
        })
    }

    /// Reads a triple and its flag coded as gaps from `last`
    /// ([`Writer::gap_triple`]), so past it; `last` moves to it. A gap that
    /// overflows an id is an error.
    #[inline]
    pub fn gap_triple(&mut self, last: &mut Gaps) -> Result<(IdTriple, bool), DecodeError> {
        let (offset, [lead, a, b]) = (self.pos, self.varints([33, 32, 32])?);
        let ((ls, lp, next_o), ds) = (*last, (lead >> 1) as u32);
        let (a, b) = (a as u32, b as u32);
        let o = u32::try_from(next_o + u64::from(b)).ok();
        let triple = match (ds, a) {
            (0, 0) => o.map(|o| (ls, lp, o)),
            (0, dp) => lp.checked_add(dp).map(|p| (ls, p, b)),
            (ds, p) => ls.checked_add(ds).map(|s| (s, p, b)),
        };
        let expected = "gaps within the id range";
        let (s, p, o) = triple.ok_or(DecodeError { offset, expected })?;
        *last = (s, p, u64::from(o) + 1);
        Ok(((s, p, o), lead & 1 == 1))
    }

    /// Reads a vector's count. It is sanity checked against the minimum
    /// encoded size of one item so corrupted counts fail fast instead of
    /// allocating.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(self.error("vector items"));
        }
        Ok(count)
    }
}

/// Where the next triple of a gap-coded run counts its gaps from: the
/// subject and predicate of the triple before, and its object plus one; a
/// run starts at `(0, 0, 0)`, as if after `(0, 0, −1)`.
pub type Gaps = (u32, u32, u64);

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

    /// Appends up to three varints ([`Reader::varints`]) in one write.
    pub fn varints<const N: usize>(&mut self, values: [u64; N]) {
        let (mut buf, mut n) = ([0; 30], 0);
        for mut v in values {
            while v >= 0x80 {
                buf[n] = v as u8 | 0x80;
                (v, n) = (v >> 7, n + 1);
            }
            (buf[n], n) = (v as u8, n + 1);
        }
        self.put(&buf[..n]);
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

    /// Appends `term` front-coded against `before`, the text of the term
    /// before it, and returns its text: a varint of the bytes they share
    /// (which may end inside a character) shifted left by one, or'ed with 1
    /// for a blank; then the rest of its bytes, after their length.
    pub fn front_term<'t>(&mut self, before: &str, term: &'t Term) -> &'t str {
        let (text, blank) = match term {
            Term::Iri(iri) => (iri.as_str(), 0),
            Term::Blank(blank) => (blank.as_str(), 1),
        };
        let shared = before.bytes().zip(text.bytes()).take_while(|(a, b)| a == b);
        let shared = shared.count();
        self.varints([(shared as u64) << 1 | blank, (text.len() - shared) as u64]);
        self.put(&text.as_bytes()[shared..]);
        text
    }

    /// Appends `t` and its flag as gaps from `last`, the triple before it in
    /// a run; `last` moves to it. Three varints: the subject's gap shifted
    /// left by one, or'ed with the flag; if it is 0, the predicate's gap,
    /// and if that is 0 too the object's gap less one, else the object;
    /// else the predicate and the object. A triple not past `last` is an
    /// `InvalidData` error, so a run is strictly ascending.
    pub fn gap_triple(&mut self, last: &mut Gaps, (s, p, o): IdTriple, flag: bool) {
        let gaps = match (s.checked_sub(last.0), p.checked_sub(last.1)) {
            (Some(0), Some(0)) => u64::from(o).checked_sub(last.2).map(|g| (0, 0, g)),
            (Some(0), Some(dp)) => Some((0, dp, o.into())),
            (Some(ds), _) if ds > 0 => Some((ds, p, o.into())),
            _ => None,
        };
        let Some((ds, a, b)) = gaps else {
            return self.invalid("a run's triples out of (s, p, o) order");
        };
        self.varints([u64::from(ds) << 1 | u64::from(flag), a.into(), b]);
        *last = (s, p, u64::from(o) + 1);
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
            self.invalid("a sequence's items disagree with its count");
        }
    }

    fn invalid(&mut self, why: &str) {
        _ = (self.failed).get_or_insert(io::Error::new(io::ErrorKind::InvalidData, why));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Pieces of term text: pairs of characters whose encodings share one,
    /// two and three leading bytes, so shared prefixes end inside them.
    const PIECES: [&str; 9] = ["", "a", "ex:", "é", "è", "日", "旧", "😀", "😁"];

    /// Term text of up to four pieces.
    pub(crate) fn text() -> impl Strategy<Value = String> {
        vec(0..PIECES.len(), 0..5).prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
    }

    /// An IRI or a blank node.
    pub(crate) fn term() -> impl Strategy<Value = Term> {
        (0u8..2, text()).prop_map(|(blank, text)| match blank {
            0 => Term::iri(text),
            _ => Term::blank(text),
        })
    }

    /// An id at either end of the range, or anywhere.
    fn id() -> impl Strategy<Value = u32> {
        let top = (0u32..3).prop_map(|d| u32::MAX - d);
        prop_oneof![0u32..3, top, 0u32..u32::MAX]
    }

    /// A byte, mostly a small one: a varint's last byte, a short length,
    /// an ASCII suffix.
    fn byte() -> impl Strategy<Value = u8> {
        prop_oneof![0u8..8, (0u16..256).prop_map(|b| b as u8)]
    }

    /// The text of a term.
    fn text_of(term: &Term) -> &str {
        match term {
            Term::Iri(iri) => iri.as_str(),
            Term::Blank(blank) => blank.as_str(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Front-coded terms and a gap-coded run round-trip: terms whose
        /// shared prefixes end inside a character, blanks and IRIs
        /// alternating; a run from `(0, 0, 0)` or not, with ids near
        /// `u32::MAX`, empty or not, flagged at will.
        #[test]
        fn terms_and_gap_coded_runs_round_trip(
            terms in vec(term(), 0..8),
            run in vec(((id(), id(), id()), 0u8..2), 0..24),
            zero in 0u8..3,
        ) {
            let mut run: Vec<_> = run.into_iter().map(|(t, flag)| (t, flag == 1)).collect();
            if zero < 2 {
                run.push(((0, 0, 0), zero == 1));
            }
            run.sort();
            run.dedup_by_key(|(t, _)| *t);
            let mut w = Writer::new();
            let mut before = "";
            for term in &terms {
                before = w.front_term(before, term);
            }
            let mut last = Gaps::default();
            for &(t, flag) in &run {
                w.gap_triple(&mut last, t, flag);
            }
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let mut text = Vec::new();
            for term in &terms {
                prop_assert_eq!(&r.front_term(&mut text).unwrap(), term);
            }
            let mut last = Gaps::default();
            for &flagged in &run {
                prop_assert_eq!(r.gap_triple(&mut last).unwrap(), flagged);
            }
            prop_assert!(r.finish().is_ok());
        }

        /// A varint reads back as written if it fits its width, and is an
        /// error otherwise; never a value past the width.
        #[test]
        fn a_varint_reads_back_only_within_its_width(
            v in prop_oneof![
                0u64..1 << 36,
                (0u64..4).prop_map(|d| (1 << 32) - 2 + d),
                (0u64..4).prop_map(|d| (1 << 33) - 2 + d),
            ],
        ) {
            let mut w = Writer::new();
            w.varints([v]);
            let bytes = w.into_bytes();
            for bits in [32, 33] {
                let read = Reader::new(&bytes).varints([bits]).map(|[v]| v);
                prop_assert_eq!(read.is_ok(), v >> bits == 0, "{} in {} bits", v, bits);
                if let Ok(read) = read {
                    prop_assert_eq!(read, v);
                }
            }
        }

        /// Hostile bytes: a term read is the shared prefix of the term
        /// before plus the suffix, a triple read is past the triple before,
        /// and nothing panics.
        #[test]
        fn hostile_bytes_read_within_their_bounds(
            bytes in vec(byte(), 0..12),
            before in text(),
            last in (id(), id(), id()),
        ) {
            let mut text = before.clone().into_bytes();
            if let Ok(term) = Reader::new(&bytes).front_term(&mut text) {
                let mut r = Reader::new(&bytes);
                let [lead, len] = r.varints([33, 32]).unwrap();
                let (shared, len) = ((lead >> 1) as usize, len as usize);
                let prefix = before.as_bytes().get(..shared);
                prop_assert!(prefix.is_some(), "{} bytes shared of {:?}", shared, before);
                let suffix = &bytes[r.offset()..r.offset() + len];
                prop_assert_eq!(text_of(&term).as_bytes(), [prefix.unwrap(), suffix].concat());
            }
            let mut gaps = (last.0, last.1, u64::from(last.2) + 1);
            if let Ok((t, _)) = Reader::new(&bytes).gap_triple(&mut gaps) {
                prop_assert!(t > last, "{:?} after {:?}", t, last);
            }
        }
    }

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
        w.u8(0);
        w.string("ex:a");
        w.u8(1);
        w.string("b0");
        w.u32(1);
        w.u32(2);
        w.u32(3);
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
