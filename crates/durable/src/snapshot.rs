//! The snapshot segment: a versioned, checksummed binary image of the full
//! database state at one generation.
//!
//! A snapshot carries everything needed to reopen **without recomputation**:
//! the term dictionary in id order, the base triples, the RDFS closure, and
//! the exported state of the evaluation core engine, including
//! per-component `uncored` flags so degraded mode survives a restart
//! exactly. A second engine field, `asserted_core`, is written empty and
//! ignored on read; it keeps the layout of files that still carry one.
//! Loading a snapshot is pure deserialization — no fixpoint, no core
//! search; only the WAL suffix after the snapshot replays through the
//! incremental delta paths.
//!
//! File layout: `[magic 8][version u32][generation u64][len u32]
//! [crc u32][payload]`, where the checksum covers
//! `version ∥ generation ∥ payload` — a flipped bit anywhere except the
//! (structurally validated) magic and length is caught. Snapshots are
//! written whole to a temp file, fsynced, then renamed into place — a
//! reader never observes a partially written segment under its final name,
//! and a corrupted one fails its checksum and is ignored in favour of the
//! previous generation.

use std::io;

use swdb_model::Term;
use swdb_normal::{ComponentState, CoreEngineState};
use swdb_store::IdTriple;

use crate::codec::{length_field, DecodeError, Reader, Writer};
use crate::crc::Crc32;

/// Magic prefix of every snapshot segment.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SWDBSNAP";

/// Current segment format version. Bump on any layout change; readers
/// reject versions they do not understand rather than misparse them.
pub const SNAPSHOT_VERSION: u32 = 1;

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
    /// The asserted (base) triples.
    pub base: Vec<IdTriple>,
    /// The materialized RDFS closure (empty under Simple entailment).
    pub closure: Vec<IdTriple>,
    /// Exported state of the evaluation-graph core engine, if built.
    pub evaluation: Vec<CoreEngineState>,
    /// Exported state of a core engine over the asserted set. Written
    /// empty: the facade no longer maintains one, and ignores a
    /// non-empty field of an older file. Kept so the format is unchanged.
    pub asserted_core: Vec<CoreEngineState>,
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

/// The segment checksum: covers version, generation, and payload so a
/// flipped bit in any of them is detected. The three are fed through one
/// incremental state, so the payload is never copied.
fn stamped_crc(version: u32, generation: u64, payload: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(&version.to_le_bytes());
    crc.update(&generation.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

fn encode_engine_state(w: &mut Writer, state: &CoreEngineState) {
    w.vec(&state.ground, |w, &t| w.id_triple(t));
    w.vec(&state.components, |w, c| {
        w.vec(&c.full, |w, &t| w.id_triple(t));
        w.vec(&c.survivors, |w, &t| w.id_triple(t));
        w.vec(&c.support, |w, &t| w.id_triple(t));
        w.u8(c.uncored as u8);
    });
}

fn decode_engine_state(r: &mut Reader<'_>) -> Result<CoreEngineState, DecodeError> {
    let ground = r.vec(12, |r| r.id_triple())?;
    let components = r.vec(13, |r| {
        Ok(ComponentState {
            full: r.vec(12, |r| r.id_triple())?,
            survivors: r.vec(12, |r| r.id_triple())?,
            support: r.vec(12, |r| r.id_triple())?,
            uncored: r.u8()? != 0,
        })
    })?;
    Ok(CoreEngineState { ground, components })
}

impl SnapshotPayload {
    /// Encodes the full segment (header + checksummed payload) for
    /// `generation`. A payload too long for the header's length field is
    /// an error ([`length_field`]).
    pub fn encode(&self, generation: u64) -> io::Result<Vec<u8>> {
        let mut w = Writer::new();
        w.u8(self.regime);
        w.u8(self.budget_mode);
        w.u64(self.budget_steps);
        w.u64(self.budget_millis);
        w.vec(&self.terms, |w, t| w.term(t));
        w.vec(&self.base, |w, &t| w.id_triple(t));
        w.vec(&self.closure, |w, &t| w.id_triple(t));
        w.vec(&self.evaluation, encode_engine_state);
        w.vec(&self.asserted_core, encode_engine_state);
        let payload = w.into_bytes();

        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&generation.to_le_bytes());
        out.extend_from_slice(&length_field(payload.len())?.to_le_bytes());
        out.extend_from_slice(&stamped_crc(SNAPSHOT_VERSION, generation, &payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Decodes a segment, returning the payload and its stamped generation.
    pub fn decode(bytes: &[u8]) -> Result<(SnapshotPayload, u64), SnapshotError> {
        let header_len = SNAPSHOT_MAGIC.len() + 4 + 8 + 4 + 4;
        if bytes.len() < header_len || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadHeader);
        }
        let mut header = Reader::new(&bytes[SNAPSHOT_MAGIC.len()..header_len]);
        let bounded = "the header is in bounds";
        let version = header.u32().expect(bounded);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let generation = header.u64().expect(bounded);
        let (len, crc) = (header.u32().expect(bounded), header.u32().expect(bounded));
        let payload = &bytes[header_len..];
        if payload.len() != len as usize || stamped_crc(version, generation, payload) != crc {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut r = Reader::new(payload);
        let decoded = (|| -> Result<SnapshotPayload, DecodeError> {
            let snapshot = SnapshotPayload {
                regime: r.u8()?,
                budget_mode: r.u8()?,
                budget_steps: r.u64()?,
                budget_millis: r.u64()?,
                terms: r.vec(5, |r| r.term())?,
                base: r.vec(12, |r| r.id_triple())?,
                closure: r.vec(12, |r| r.id_triple())?,
                evaluation: r.vec(8, decode_engine_state)?,
                asserted_core: r.vec(8, decode_engine_state)?,
            };
            r.finish()?;
            Ok(snapshot)
        })()
        .map_err(SnapshotError::Malformed)?;

        decoded.validate_ids()?;
        Ok((decoded, generation))
    }

    /// Semantic validation past the structural decode: every triple id
    /// must reference an interned term.
    fn validate_ids(&self) -> Result<(), SnapshotError> {
        let bound = self.terms.len() as u64;
        let in_bounds =
            |t: &[IdTriple]| t.iter().all(|&(s, p, o)| (s.max(p).max(o) as u64) < bound);
        let engines = self.evaluation.iter().chain(&self.asserted_core);
        let runs = engines.flat_map(|st| {
            let components = st.components.iter();
            std::iter::once(&st.ground)
                .chain(components.flat_map(|c| [&c.full, &c.survivors, &c.support]))
        });
        if [&self.base, &self.closure]
            .into_iter()
            .chain(runs)
            .all(|run| in_bounds(run))
        {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(DecodeError {
                offset: 0,
                expected: "triple ids within dictionary bounds",
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            closure: vec![(0, 1, 2), (3, 1, 2), (0, 1, 3)],
            evaluation: vec![CoreEngineState {
                ground: vec![(0, 1, 2)],
                components: vec![ComponentState {
                    full: vec![(3, 1, 2)],
                    survivors: vec![(3, 1, 2)],
                    support: vec![(0, 1, 2)],
                    uncored: true,
                }],
            }],
            asserted_core: vec![],
        }
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
}
