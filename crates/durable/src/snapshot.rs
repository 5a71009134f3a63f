//! The snapshot segment: a versioned, checksummed binary image of the full
//! database state at one generation.
//!
//! A snapshot carries what a reopen reads, so it **recomputes nothing**:
//! the settings, the term dictionary in id order, the RDFS closure with the
//! asserted (base) triples flagged in it (`D ⊆ cl(D)`), and the evaluation
//! core engine's components with their `uncored` flags (degraded mode
//! survives a restart exactly), in this order. The engine's ground side is
//! the closure's (the base's under simple entailment), since a core fixes
//! every URI, so it is not written. Only the WAL suffix replays, through
//! the incremental delta paths.
//!
//! File layout: `[magic 8][version u32][generation u64][len u32]
//! [crc u32][payload]`; every version keeps this 28-byte header, so a
//! segment of an unknown version still has its CRC checked. The checksum
//! covers `version ∥ generation ∥ payload` — a flipped bit anywhere except
//! the (structurally validated) magic and length is caught. Version 3's
//! payload: the settings; the term count, each term front-coded against
//! the one before ([`Writer::front_term`]); the closure run; per engine,
//! its components, each three runs and an `uncored` byte. A run is a
//! count, then each triple as varint gaps from the one before
//! ([`Writer::gap_triple`]), the closure's asserted flag riding in the
//! first; a decoded run is thus strictly ascending by construction, so a
//! restore sorts nothing, and the base falls out of the closure walk.
//! Versions 1 and 2 wrote terms and triples fixed-width and the base as a
//! run of its own; version 1 also each engine's ground run and, last, an
//! `asserted_core` engine list. The one decoder reads them through its
//! fixed-width readers into the same payload, dropping what version 3
//! lacks, and the next rotation writes version 3. A binary that writes
//! version 2 stops at a version-3 segment, an unknown version, and does not
//! delete it.
//!
//! One encoder streams a segment from a [`SnapshotSource`], the live state
//! or a [`SnapshotPayload`], through a [`CHUNK`]-sized buffer; the header's
//! length and CRC are patched in last. It goes to a temp file, fsynced,
//! then renamed into place — a reader never observes a partially written
//! segment under its final name. One structural decoder reads segments
//! back: recovery keeps what it reads, a rotation's read-back keeps
//! nothing ([`read_segment`]). A corrupted segment fails its checksum
//! and is ignored in favour of the previous generation.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;

use swdb_model::Term;
use swdb_normal::{ComponentState, IdCoreEngine};
use swdb_store::IdTriple;

pub use crate::codec::CHUNK;
use crate::codec::{length_field, DecodeError, Gaps, Reader, Writer};
use crate::crc::Crc32;
use crate::io::Io;

/// Magic prefix of every snapshot segment.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SWDBSNAP";

/// Current segment format version. Bump on any layout change; readers
/// reject versions they do not understand rather than misparse them.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Bytes of the header: magic, version, generation, length and CRC.
const HEADER_LEN: usize = 28;

/// The complete durable image of a database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotPayload {
    /// Entailment regime (0 = Simple, 1 = RDFS).
    pub regime: u8,
    /// Core budget mode (0 = Unlimited, 1 = Budgeted, 2 = Auto).
    pub budget_mode: u8,
    /// Budget step limit; [`u64::MAX`] encodes "no limit".
    pub budget_steps: u64,
    /// Budget wall-clock limit in milliseconds; [`u64::MAX`] = "no limit".
    pub budget_millis: u64,
    /// Every interned term, in id order — replaying these through a fresh
    /// dictionary reproduces the exact id assignment.
    pub terms: Vec<Term>,
    /// The asserted (base) triples, a subset of the closure.
    pub base: Vec<IdTriple>,
    /// The maintained RDFS closure, under both regimes: simple entailment
    /// keeps it maintained too, so a regime switch needs no fixpoint.
    pub closure: Vec<IdTriple>,
    /// The evaluation-graph core engine's components, if it was built.
    pub evaluation: Option<Vec<ComponentState>>,
}

/// A snapshot decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing/unrecognized magic or header too short.
    BadHeader,
    /// A format version this reader does not understand.
    UnsupportedVersion(u32),
    /// The payload checksum did not match — torn or corrupted segment.
    ChecksumMismatch,
    /// The payload parsed wrongly (structure damage past the checksum, or
    /// an id referencing a term beyond the dictionary).
    Malformed(DecodeError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHeader => write!(f, "snapshot header missing or unrecognized"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} is not supported")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Malformed(e) => write!(f, "snapshot payload malformed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A counted run: a segment writes the count before the items.
pub type Run<'a, T> = (usize, Box<dyn Iterator<Item = T> + 'a>);

/// A [`Run`] of `len` `items`.
pub fn run<'a, T>(len: usize, items: impl Iterator<Item = T> + 'a) -> Run<'a, T> {
    (len, Box::new(items))
}

/// What the one encoder writes: a [`SnapshotPayload`]'s fields in the
/// segment's order, borrowed as counted runs.
pub struct Sections<'a> {
    /// Regime, budget mode, budget steps and budget milliseconds.
    pub settings: (u8, u8, u64, u64),
    /// Every interned term, in id order.
    pub terms: Run<'a, &'a Term>,
    /// The closure, each triple flagged if asserted ([`flagged`]).
    pub closure: Run<'a, (IdTriple, bool)>,
    /// The evaluation engine's components, if it is built.
    pub evaluation: Option<Run<'a, ComponentRuns<'a>>>,
}

/// A [`ComponentState`] as counted runs: its full, survivor and support
/// triples, and its uncored flag.
pub type ComponentRuns<'a> = ([Run<'a, IdTriple>; 3], bool);

/// A live engine's components as runs, borrowed.
pub fn engine_runs<'a>(engine: &'a IdCoreEngine) -> Run<'a, ComponentRuns<'a>> {
    let (count, components) = engine.component_sets();
    let set = |s: &'a BTreeSet<IdTriple>| run(s.len(), s.iter().copied());
    let components = components.map(move |(sets, uncored)| (sets.map(set), uncored));
    run(count, components)
}

/// The closure run, each triple flagged if `asserted` holds it: both in
/// `(s, p, o)` order, walked in step with no lookups. It yields their
/// union, so an asserted triple outside the closure outgrows the count,
/// which the encoder makes an `InvalidData` error.
pub fn flagged<'a>(
    (len, closure): Run<'a, IdTriple>,
    asserted: impl Iterator<Item = IdTriple> + 'a,
) -> Run<'a, (IdTriple, bool)> {
    let (mut closure, mut asserted) = (closure.peekable(), asserted.peekable());
    let union = std::iter::from_fn(move || {
        let next = match (closure.peek(), asserted.peek()) {
            (Some(&c), Some(&a)) => c.min(a),
            (c, a) => *c.or(a)?,
        };
        closure.next_if_eq(&next);
        Some((next, asserted.next_if_eq(&next).is_some()))
    });
    run(len, union)
}

/// What a segment is written from: the live state, or a [`SnapshotPayload`].
pub trait SnapshotSource {
    /// The sections to write.
    fn sections(&self) -> Sections<'_>;
}

impl<S: SnapshotSource> SnapshotSource for &S {
    fn sections(&self) -> Sections<'_> {
        (**self).sections()
    }
}

fn triples(items: &[IdTriple]) -> Run<'_, IdTriple> {
    run(items.len(), items.iter().copied())
}

fn components(states: &[ComponentState]) -> Run<'_, ComponentRuns<'_>> {
    let components = states.iter().map(|c| {
        let runs = [&c.full, &c.survivors, &c.support];
        (runs.map(|r| triples(r)), c.uncored)
    });
    run(states.len(), components)
}

impl SnapshotSource for SnapshotPayload {
    fn sections(&self) -> Sections<'_> {
        let budget = (self.budget_mode, self.budget_steps, self.budget_millis);
        Sections {
            settings: (self.regime, budget.0, budget.1, budget.2),
            terms: run(self.terms.len(), self.terms.iter()),
            closure: flagged(triples(&self.closure), self.base.iter().copied()),
            evaluation: self.evaluation.as_deref().map(components),
        }
    }
}

/// The one encoder of a segment's payload.
fn write_body<W: io::Write>(w: &mut Writer<W>, sections: Sections<'_>) {
    let (regime, budget_mode, budget_steps, budget_millis) = sections.settings;
    w.u8(regime);
    w.u8(budget_mode);
    w.u64(budget_steps);
    w.u64(budget_millis);
    let mut before = "";
    w.seq(sections.terms, |w, t| before = w.front_term(before, t));
    gap_run(w, sections.closure);
    let engines = sections.evaluation.into_iter();
    w.seq((engines.len(), engines), |w, components| {
        w.seq(components, |w, (runs, uncored)| {
            for (len, run) in runs {
                gap_run(w, (len, run.map(|t| (t, false))));
            }
            w.u8(uncored as u8);
        });
    });
}

/// Appends a counted run of flagged triples, gap-coded.
fn gap_run<W: io::Write>(w: &mut Writer<W>, run: (usize, impl Iterator<Item = (IdTriple, bool)>)) {
    let mut last = Gaps::default();
    w.seq(run, |w, (t, flag)| w.gap_triple(&mut last, t, flag));
}

/// Feeds the checksum the bytes of `chunk`, which starts at offset `at`
/// of a segment, that it covers: the version and generation (bytes
/// 8..20), and the payload.
fn checksum(crc: &mut Crc32, at: usize, chunk: &[u8]) {
    for (lo, hi) in [(8, 20), (HEADER_LEN, usize::MAX)] {
        let (lo, hi) = (lo.max(at), hi.min(at + chunk.len()));
        if lo < hi {
            crc.update(&chunk[lo - at..hi - at]);
        }
    }
}

/// The far side of the encoder's buffer: each full chunk goes to `out`,
/// then to the checksum.
struct Chunks<F> {
    out: F,
    crc: Crc32,
    written: usize,
}

impl<F> Chunks<F> {
    fn sum(&mut self, chunk: &[u8]) {
        checksum(&mut self.crc, self.written, chunk);
        self.written += chunk.len();
    }
}

impl<F: FnMut(&[u8]) -> io::Result<()>> io::Write for Chunks<F> {
    fn write(&mut self, chunk: &[u8]) -> io::Result<usize> {
        (self.out)(chunk)?;
        self.sum(chunk);
        Ok(chunk.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams `source`'s segment for `generation`, header first with a zero
/// length and CRC, through a [`CHUNK`]-sized buffer into `out`. Returns the
/// chunk still buffered, never empty, and the finished header. A payload
/// too long for the header's length field is an error ([`length_field`]).
fn encode_segment(
    generation: u64,
    source: &impl SnapshotSource,
    out: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<(Vec<u8>, [u8; HEADER_LEN])> {
    let mut head = [0; HEADER_LEN];
    head[..8].copy_from_slice(SNAPSHOT_MAGIC);
    head[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    head[12..20].copy_from_slice(&generation.to_le_bytes());
    let (crc, written) = (Crc32::default(), 0);
    let mut buffered = io::BufWriter::with_capacity(CHUNK, Chunks { out, crc, written });
    buffered.write_all(&head)?;
    let mut w = Writer::to(buffered);
    write_body(&mut w, source.sections());
    let (buffered, status) = w.finish();
    // Never dropped with a full buffer: that would write it once more.
    let (mut chunks, last) = buffered.into_parts();
    status?;
    let last = last.expect("no chunk write panicked");
    chunks.sum(&last);
    let len = length_field(chunks.written - HEADER_LEN)?;
    head[20..24].copy_from_slice(&len.to_le_bytes());
    head[24..].copy_from_slice(&chunks.crc.finish().to_le_bytes());
    Ok((last, head))
}

/// Writes `source`'s segment for `generation` to a new file at `path`: each
/// full chunk is one [`Io::write_chunk`], and the last one, the header
/// patch and the fsync are one [`Io::finish_chunks`].
pub fn write_segment(
    io: &dyn Io,
    path: &Path,
    generation: u64,
    source: &impl SnapshotSource,
) -> io::Result<()> {
    let mut file = File::create(path)?;
    let (last, head) = encode_segment(generation, source, |c| io.write_chunk(&mut file, c))?;
    io.finish_chunks(&mut file, &last, &head)
}

/// `source`'s segment for `generation`, in memory: [`write_segment`]'s
/// bytes.
pub fn encode(source: &impl SnapshotSource, generation: u64) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    let (last, head) = encode_segment(generation, source, |c| {
        bytes.extend_from_slice(c);
        Ok(())
    })?;
    bytes.extend_from_slice(&last);
    bytes[..HEADER_LEN].copy_from_slice(&head);
    Ok(bytes)
}

impl SnapshotPayload {
    /// Encodes the full segment (header + checksummed payload) for
    /// `generation` ([`encode`]).
    pub fn encode(&self, generation: u64) -> io::Result<Vec<u8>> {
        encode(self, generation)
    }

    /// Decodes a segment, returning the payload and its stamped generation.
    pub fn decode(bytes: &[u8]) -> Result<(SnapshotPayload, u64), SnapshotError> {
        let mut r = Reader::new(bytes);
        let (version, generation, len, crc) = read_header(&mut r)?;
        let version = supported(version)?;
        let mut sum = Crc32::default();
        checksum(&mut sum, 0, bytes);
        if r.remaining() != len || sum.finish() != crc {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let payload = decode_body(r, version, true).map_err(SnapshotError::Malformed)?;
        Ok((payload, generation))
    }
}

/// A segment's header, once the magic checks out: its version, generation,
/// payload length and CRC. Every version lays it out the same.
fn read_header(r: &mut Reader<'_>) -> Result<(u32, u64, usize, u32), SnapshotError> {
    let bad = |_| SnapshotError::BadHeader;
    if r.u64().map_err(bad)? != u64::from_le_bytes(*SNAPSHOT_MAGIC) {
        return Err(SnapshotError::BadHeader);
    }
    let (version, generation) = (r.u32().map_err(bad)?, r.u64().map_err(bad)?);
    let len = r.u32().map_err(bad)? as usize;
    Ok((version, generation, len, r.u32().map_err(bad)?))
}

/// `version`, if this reader decodes it: 1, 2 or the current one.
fn supported(version: u32) -> Result<u32, SnapshotError> {
    match version {
        1 | 2 | SNAPSHOT_VERSION => Ok(version),
        _ => Err(SnapshotError::UnsupportedVersion(version)),
    }
}

/// The one structural decoder of a segment's payload, of every version.
/// Recovery keeps what it reads; a read-back does not (`keep`), and gets
/// every run empty. Each triple id is checked against the term count as
/// it is read. A version-1 payload's trailing `asserted_core` engines are
/// read and dropped.
fn decode_body(
    mut r: Reader<'_>,
    version: u32,
    keep: bool,
) -> Result<SnapshotPayload, DecodeError> {
    let (regime, budget_mode) = (r.u8()?, r.u8()?);
    let (budget_steps, budget_millis) = (r.u64()?, r.u64()?);
    let fixed = version < 3;
    let bound = r.count(if fixed { 5 } else { 2 })?;
    let (mut terms, mut text) = (Vec::with_capacity(if keep { bound } else { 0 }), Vec::new());
    for _ in 0..bound {
        let term = if fixed {
            r.term()?
        } else {
            r.front_term(&mut text)?
        };
        if keep {
            terms.push(term);
        }
    }
    let mut base = match fixed {
        true => decode_run(&mut r, bound, fixed, keep, |_| {})?,
        false => Vec::new(),
    };
    let closure = decode_run(&mut r, bound, fixed, keep, |t| base.push(t))?;
    let payload = SnapshotPayload {
        regime,
        budget_mode,
        budget_steps,
        budget_millis,
        terms,
        base,
        closure,
        evaluation: decode_engines(&mut r, bound, version, keep)?,
    };
    if version == 1 {
        decode_engines(&mut r, bound, version, false)?;
    }
    r.finish()?;
    Ok(payload)
}

/// A counted run, fixed-width or gap-coded; with `keep`, it and each of its
/// flagged triples (to `asserted`) are kept.
fn decode_run(
    r: &mut Reader<'_>,
    bound: usize,
    fixed: bool,
    keep: bool,
    mut asserted: impl FnMut(IdTriple),
) -> Result<Vec<IdTriple>, DecodeError> {
    let len = r.count(if fixed { 12 } else { 3 })?;
    let (mut run, mut last) = (
        Vec::with_capacity(if keep { len } else { 0 }),
        Gaps::default(),
    );
    for _ in 0..len {
        let offset = r.offset();
        let (t, flag) = match fixed {
            true => (r.id_triple()?, false),
            false => r.gap_triple(&mut last)?,
        };
        if t.0.max(t.1).max(t.2) as usize >= bound {
            let expected = "triple ids within dictionary bounds";
            return Err(DecodeError { offset, expected });
        }
        if keep && flag {
            asserted(t);
        }
        if keep {
            run.push(t);
        }
    }
    Ok(run)
}

/// An engines section: the first engine's components, if any and `keep`.
/// A version-1 engine's ground run is read and dropped.
fn decode_engines(
    r: &mut Reader<'_>,
    bound: usize,
    version: u32,
    keep: bool,
) -> Result<Option<Vec<ComponentState>>, DecodeError> {
    let (mut first, fixed) = (None, version < 3);
    for _ in 0..r.count(4)? {
        if version == 1 {
            decode_run(r, bound, fixed, false, |_| {})?;
        }
        let mut components = Vec::new();
        for _ in 0..r.count(13)? {
            let mut run = || decode_run(r, bound, fixed, keep, |_| {});
            let component = ComponentState {
                full: run()?,
                survivors: run()?,
                support: run()?,
                uncored: r.u8()? != 0,
            };
            if keep {
                components.push(component);
            }
        }
        if keep {
            first.get_or_insert(components);
        }
    }
    Ok(first)
}

/// Streams the segment at `path` through the checksum and the one
/// structural decoder, `read` filling one [`CHUNK`] at a time, so no copy
/// of the file is held: recovery keeps the payload (`keep`), a rotation's
/// read-back keeps nothing and gets every run empty. It checks what
/// [`SnapshotPayload::decode`] checks — magic, version, length, CRC, term
/// tags, UTF-8, string lengths, trailing bytes and id bounds — and returns
/// the payload with its stamped generation. A version it does not decode
/// is an [`SnapshotError::UnsupportedVersion`] only if the CRC checks.
pub fn read_segment(
    path: &Path,
    keep: bool,
    mut read: impl FnMut(&mut File, &mut [u8]) -> io::Result<usize>,
) -> Result<(SnapshotPayload, u64), SnapshotError> {
    let unreadable = |_| SnapshotError::BadHeader;
    let mut file = File::open(path).map_err(unreadable)?;
    let size = file.metadata().map_err(unreadable)?.len() as usize;
    let (mut crc, mut at) = (Crc32::default(), 0);
    let mut more = |buf: &mut [u8]| {
        let got = read(&mut file, buf)?;
        checksum(&mut crc, at, &buf[..got]);
        at += got;
        Ok(got)
    };
    let mut r = Reader::chunked(size, &mut more);
    let (version, generation, len, sum) = read_header(&mut r)?;
    if r.remaining() != len {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let payload = match supported(version) {
        Ok(version) => Ok(decode_body(r, version, keep).map_err(SnapshotError::Malformed)?),
        Err(unknown) => r
            .skip_rest()
            .map_or(Err(SnapshotError::ChecksumMismatch), |_| Err(unknown)),
    };
    if crc.finish() != sum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok((payload?, generation))
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::io::Read as _;

    use proptest::collection::vec;
    use proptest::prelude::*;

    use crate::codec::tests::term;

    fn sample() -> SnapshotPayload {
        SnapshotPayload {
            regime: 1,
            budget_mode: 1,
            budget_steps: 100,
            budget_millis: u64::MAX,
            terms: vec![
                Term::iri("ex:s"),
                Term::iri("ex:p"),
                Term::iri("ex:o"),
                Term::blank("b0"),
            ],
            base: vec![(0, 1, 2), (3, 1, 2)],
            closure: vec![(0, 1, 2), (0, 1, 3), (3, 1, 2)],
            evaluation: Some(vec![ComponentState {
                full: vec![(3, 1, 2)],
                survivors: vec![(3, 1, 2)],
                support: vec![(0, 1, 2)],
                uncored: true,
            }]),
        }
    }

    /// `sample()` as the version-1 and version-2 samples below hold it:
    /// their closure is out of `(s, p, o)` order, which version 3 cannot
    /// write.
    fn written() -> SnapshotPayload {
        let mut payload = sample();
        payload.closure.swap(1, 2);
        payload
    }

    #[test]
    fn segment_round_trips_bit_identical() {
        let payload = sample();
        let bytes = payload.encode(12).unwrap();
        let (decoded, generation) = SnapshotPayload::decode(&bytes).unwrap();
        assert_eq!(generation, 12);
        assert_eq!(decoded, payload);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode(3).unwrap();
        for byte in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 0x01;
            if let Ok((decoded, generation)) = SnapshotPayload::decode(&damaged) {
                panic!(
                    "flip at byte {byte} went undetected (gen {generation}, \
                     {} terms)",
                    decoded.terms.len()
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode(3).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotPayload::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn future_versions_are_rejected_not_misparsed() {
        let mut bytes = sample().encode(1).unwrap();
        let pos = SNAPSHOT_MAGIC.len();
        bytes[pos..pos + 4].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SnapshotPayload::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn out_of_bounds_ids_fail_validation() {
        let mut payload = sample();
        payload.base.push((99, 0, 0));
        payload.closure.push((99, 0, 0));
        let bytes = payload.encode(1).unwrap();
        assert!(matches!(
            SnapshotPayload::decode(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn empty_database_snapshots_cleanly() {
        let payload = SnapshotPayload {
            budget_steps: u64::MAX,
            budget_millis: u64::MAX,
            ..SnapshotPayload::default()
        };
        let bytes = payload.encode(0).unwrap();
        let (decoded, generation) = SnapshotPayload::decode(&bytes).unwrap();
        assert_eq!(generation, 0);
        assert_eq!(decoded, payload);
    }

    /// The segment `sample()` encodes to for generation 3, as every writer
    /// of this format version lays it out: its length and its CRC fields.
    #[test]
    fn the_sample_segment_keeps_its_length_and_crc() {
        let bytes = sample().encode(3).unwrap();
        assert_eq!(bytes.len(), 109);
        assert_eq!(bytes[24..28], 0x1581_1ebau32.to_le_bytes());
        assert_eq!(crate::crc32(&bytes), 0x7055_9146);
    }

    /// `written()` for generation 3 as a version-1 writer laid it out: with
    /// the evaluation engine's ground run `[(0, 1, 2)]` before its
    /// components, and an empty `asserted_core` section at the end.
    const SAMPLE_V1: [u8; 229] = [
        0x53, 0x57, 0x44, 0x42, 0x53, 0x4e, 0x41, 0x50, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xc9, 0x00, 0x00, 0x00, 0xc1, 0xa2, 0xd1, 0x21, 0x01, 0x01,
        0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0x04, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x65, 0x78, 0x3a, 0x73, 0x00,
        0x04, 0x00, 0x00, 0x00, 0x65, 0x78, 0x3a, 0x70, 0x00, 0x04, 0x00, 0x00, 0x00, 0x65, 0x78,
        0x3a, 0x6f, 0x01, 0x02, 0x00, 0x00, 0x00, 0x62, 0x30, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01,
        0x00, 0x00, 0x00, 0x00,
    ];

    /// `written()` for generation 3 as a version-2 writer laid it out: the
    /// base as a run of its own, every term and triple fixed-width.
    const SAMPLE_V2: [u8; 209] = [
        0x53, 0x57, 0x44, 0x42, 0x53, 0x4e, 0x41, 0x50, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xb5, 0x00, 0x00, 0x00, 0xe3, 0xae, 0xe5, 0xbc, 0x01, 0x01,
        0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0x04, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x65, 0x78, 0x3a, 0x73, 0x00,
        0x04, 0x00, 0x00, 0x00, 0x65, 0x78, 0x3a, 0x70, 0x00, 0x04, 0x00, 0x00, 0x00, 0x65, 0x78,
        0x3a, 0x6f, 0x01, 0x02, 0x00, 0x00, 0x00, 0x62, 0x30, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01,
    ];

    #[test]
    fn version_1_and_2_segments_decode_to_the_payload_they_hold() {
        assert_eq!(SAMPLE_V1[24..28], 0x21d1_a2c1u32.to_le_bytes());
        assert_eq!(SAMPLE_V2[24..28], 0xbce5_aee3u32.to_le_bytes());
        for (tag, bytes) in [("version-1", &SAMPLE_V1[..]), ("version-2", &SAMPLE_V2[..])] {
            assert_eq!(SnapshotPayload::decode(bytes), Ok((written(), 3)), "{tag}");
            let path = tmp_file(tag);
            std::fs::write(&path, bytes).unwrap();
            let read = |keep| read_segment(&path, keep, |f, b| f.read(b));
            assert_eq!(read(true), Ok((written(), 3)), "{tag}");
            assert_eq!(read(false).map(|(_, g)| g), Ok(3), "{tag}");
            let _ = std::fs::remove_file(&path);
        }
        let dropped = (4 + 12) + 4;
        assert_eq!(
            SAMPLE_V1.len() - SAMPLE_V2.len(),
            dropped,
            "the ground run, the asserted_core"
        );
    }

    fn tmp_file(tag: &str) -> std::path::PathBuf {
        let name = format!("swdb-durable-seg-{}-{tag}", std::process::id());
        std::env::temp_dir().join(name)
    }

    /// A payload of several chunks: strings that straddle chunk edges, one
    /// longer than a chunk, and runs that span many.
    fn large() -> SnapshotPayload {
        let mut payload = sample();
        payload
            .terms
            .extend((0..3_000).map(|i| Term::iri(format!("ex:term/{i:07}"))));
        payload.terms.push(Term::blank("b".repeat(CHUNK + 10)));
        let n = payload.terms.len() as u32;
        let spread = (0..60_000).map(|i| (i % n, 1, (i / n + i * 7) % n));
        payload.closure.extend(spread);
        payload.closure.sort_unstable();
        payload.closure.dedup();
        payload
    }

    #[test]
    fn a_streamed_segment_is_the_in_memory_one_and_verifies_in_chunks() {
        for (tag, payload) in [("small", sample()), ("large", large())] {
            let path = tmp_file(tag);
            write_segment(&crate::StdIo, &path, 5, &payload).unwrap();
            let on_disk = std::fs::read(&path).unwrap();
            assert_eq!(on_disk, payload.encode(5).unwrap(), "{tag}");
            assert!(on_disk.len() > 3 * CHUNK || tag == "small");
            let read = |keep| read_segment(&path, keep, |f, b| f.read(b));
            assert_eq!(read(false).map(|(_, g)| g), Ok(5), "{tag}");
            assert_eq!(read(true), Ok((payload.clone(), 5)), "{tag}");
            assert_eq!(SnapshotPayload::decode(&on_disk).unwrap().0, payload);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn the_read_back_catches_every_flip_and_truncation_the_decoder_does() {
        let bytes = sample().encode(3).unwrap();
        let path = tmp_file("damaged");
        let verify = |damaged: &[u8]| {
            std::fs::write(&path, damaged).unwrap();
            read_segment(&path, false, |f, b| f.read(b)).map(|(_, g)| g)
        };
        assert_eq!(verify(&bytes), Ok(3));
        for byte in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 0x01;
            assert!(verify(&damaged).is_err(), "flip at byte {byte}");
        }
        for cut in 0..bytes.len() {
            assert!(verify(&bytes[..cut]).is_err(), "truncation to {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(verify(&trailing).is_err(), "a trailing byte");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_bounds_ids_under_a_valid_crc_fail_the_read_back() {
        let mut payload = large();
        payload.closure.push((payload.terms.len() as u32, 0, 0));
        let path = tmp_file("out-of-bounds");
        write_segment(&crate::StdIo, &path, 1, &payload).unwrap();
        assert!(matches!(
            read_segment(&path, false, |f, b| f.read(b)),
            Err(SnapshotError::Malformed(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// A source whose count disagrees with its items.
    struct Miscounted;

    impl SnapshotSource for Miscounted {
        fn sections(&self) -> Sections<'_> {
            Sections {
                settings: (0, 0, 0, 0),
                terms: run(0, std::iter::empty()),
                closure: run(2, std::iter::empty()),
                evaluation: None,
            }
        }
    }

    #[test]
    fn a_section_that_disagrees_with_its_count_is_an_error_not_a_segment() {
        let err = encode(&Miscounted, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A run out of `(s, p, o)` order, or an asserted triple the closure
    /// lacks, has no version-3 encoding.
    #[test]
    fn a_run_out_of_order_or_a_base_outside_the_closure_is_an_error_not_a_segment() {
        let mut outside = sample();
        outside.base.insert(1, (0, 2, 2));
        for payload in [written(), outside] {
            let err = payload.encode(1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    /// A strictly ascending run of drawn triples, ids taken modulo `n`.
    fn ascending(n: u32, draws: &[(u8, u8, u8)]) -> Vec<IdTriple> {
        let id = |i: u8| u32::from(i) % n;
        let mut run: Vec<_> = draws
            .iter()
            .map(|&(s, p, o)| (id(s), id(p), id(o)))
            .collect();
        run.sort_unstable();
        run.dedup();
        run
    }

    /// A payload whose base is any subset of its closure, with or without
    /// an engine of up to three components.
    fn payload() -> impl Strategy<Value = SnapshotPayload> {
        let ids = || (0u8..16, 0u8..16, 0u8..16);
        let component = (
            (vec(ids(), 0..4), vec(ids(), 0..4), vec(ids(), 0..4)),
            0u8..2,
        );
        let settings = (0u8..2, 0u8..3, 0u8..3);
        let draws = (vec(term(), 1..10), vec((ids(), 0u8..2), 0..30));
        (draws, vec(component, 0..3), settings).prop_map(|((terms, closure), engine, settings)| {
            let n = terms.len() as u32;
            let (draws, flags): (Vec<_>, Vec<_>) = closure.into_iter().unzip();
            let closure = ascending(n, &draws);
            let asserted = closure.iter().zip(flags.iter().cycle());
            let base = asserted
                .filter(|(_, &flag)| flag == 1)
                .map(|(&t, _)| t)
                .collect();
            let evaluation = engine
                .iter()
                .map(|((full, survivors, support), uncored)| ComponentState {
                    full: ascending(n, full),
                    survivors: ascending(n, survivors),
                    support: ascending(n, support),
                    uncored: *uncored == 1,
                })
                .collect();
            let (regime, budget_mode, engine_built) = settings;
            SnapshotPayload {
                regime,
                budget_mode,
                budget_steps: if budget_mode == 1 { 100 } else { u64::MAX },
                budget_millis: u64::MAX,
                terms,
                base,
                closure,
                evaluation: (engine_built > 0).then_some(evaluation),
            }
        })
    }

    /// `bytes` with the header's length and CRC made to match its payload.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let len = (bytes.len() - HEADER_LEN) as u32;
        bytes[20..24].copy_from_slice(&len.to_le_bytes());
        let mut crc = Crc32::default();
        checksum(&mut crc, 0, &bytes);
        bytes[24..28].copy_from_slice(&crc.finish().to_le_bytes());
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A drawn payload round-trips bit-identically, in memory and
        /// streamed.
        #[test]
        fn drawn_payloads_round_trip_bit_identically(payload in payload()) {
            let bytes = payload.encode(7).unwrap();
            prop_assert_eq!(SnapshotPayload::decode(&bytes), Ok((payload.clone(), 7)));
            let path = tmp_file("drawn");
            write_segment(&crate::StdIo, &path, 7, &payload).unwrap();
            let read = read_segment(&path, true, |f, b| f.read(b));
            let _ = std::fs::remove_file(&path);
            prop_assert_eq!(read, Ok((payload, 7)));
        }

        /// A payload with bytes overwritten or cut off after a valid header,
        /// its length and CRC recomputed, decodes to a payload or to
        /// `Malformed`, and never panics.
        #[test]
        fn a_hostile_body_under_a_valid_crc_is_malformed_or_a_payload(
            payload in payload(),
            edits in vec((0usize..400, (0u16..256).prop_map(|b| b as u8)), 0..4),
            cut in 0usize..40,
        ) {
            let mut bytes = payload.encode(1).unwrap();
            for (at, byte) in edits {
                let at = HEADER_LEN + at % (bytes.len() - HEADER_LEN);
                bytes[at] = byte;
            }
            bytes.truncate((bytes.len() - cut).max(HEADER_LEN));
            let decoded = SnapshotPayload::decode(&resealed(bytes));
            prop_assert!(
                matches!(decoded, Ok(_) | Err(SnapshotError::Malformed(_))),
                "{:?}",
                decoded
            );
        }
    }
}
