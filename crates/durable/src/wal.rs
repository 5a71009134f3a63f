//! The write-ahead log: append-only, length-prefixed, CRC-checksummed
//! records of facade-level mutations.
//!
//! Each log file belongs to one snapshot *generation*: `wal-<gen>.log`
//! holds every mutation committed after `snapshot-<gen>.seg` was written.
//! Records carry mutations in **portable text form** (N-Triples for graph
//! deltas) rather than dictionary ids: replay re-interns through the same
//! append-only code paths the original run used, and queries may intern
//! scratch terms that are never logged, so on-disk ids and in-memory ids
//! legitimately diverge between a recovered store and the original.
//!
//! Framing per record: `[len: u32][crc32(payload): u32][payload]`. A crash
//! can tear the final record (or, on a lying disk, corrupt it); the reader
//! stops at the first record that fails its length or checksum and reports
//! the byte offset of the last good record, so recovery can truncate the
//! tail and continue. By policy the reader *never* skips over a bad record
//! to find later ones — a checksum failure mid-log means the tail cannot be
//! trusted at all.

use std::io;

use crate::codec::{length_field, DecodeError, Reader, Writer};
use crate::crc::crc32;

/// Magic prefix of every WAL file: identifies the format and its version.
pub const WAL_MAGIC: &[u8; 8] = b"SWDBWAL1";

/// One logged facade mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Insert the triples of this N-Triples document.
    InsertGraph(String),
    /// Remove the triples of this N-Triples document.
    RemoveGraph(String),
    /// Switch entailment regime (0 = Simple, 1 = RDFS).
    SetRegime(u8),
    /// Reconfigure the core budget.
    SetBudget {
        /// 0 = Unlimited, 1 = Budgeted, 2 = Auto.
        mode: u8,
        /// Step limit; [`u64::MAX`] encodes "no limit".
        steps: u64,
        /// Wall-clock limit in milliseconds; [`u64::MAX`] = "no limit".
        millis: u64,
    },
    /// Re-run core retraction on components left uncored by a budget stop.
    RefreshDegraded,
}

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_REGIME: u8 = 3;
const TAG_BUDGET: u8 = 4;
const TAG_REFRESH: u8 = 5;

impl WalRecord {
    /// Encodes the record payload (tag + body, no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WalRecord::InsertGraph(text) => {
                w.u8(TAG_INSERT);
                w.string(text);
            }
            WalRecord::RemoveGraph(text) => {
                w.u8(TAG_REMOVE);
                w.string(text);
            }
            WalRecord::SetRegime(regime) => {
                w.u8(TAG_REGIME);
                w.u8(*regime);
            }
            WalRecord::SetBudget {
                mode,
                steps,
                millis,
            } => {
                w.u8(TAG_BUDGET);
                w.u8(*mode);
                w.u64(*steps);
                w.u64(*millis);
            }
            WalRecord::RefreshDegraded => {
                w.u8(TAG_REFRESH);
            }
        }
        w.into_bytes()
    }

    /// Decodes one record payload (the inverse of [`WalRecord::encode`]).
    pub fn decode(payload: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_INSERT => WalRecord::InsertGraph(r.string()?),
            TAG_REMOVE => WalRecord::RemoveGraph(r.string()?),
            TAG_REGIME => WalRecord::SetRegime(r.u8()?),
            TAG_BUDGET => WalRecord::SetBudget {
                mode: r.u8()?,
                steps: r.u64()?,
                millis: r.u64()?,
            },
            TAG_REFRESH => WalRecord::RefreshDegraded,
            _ => {
                return Err(DecodeError {
                    offset: 0,
                    expected: "wal record tag",
                });
            }
        };
        r.finish()?;
        Ok(record)
    }
}

/// Encodes the WAL file header for a generation.
pub fn encode_header(generation: u64) -> Vec<u8> {
    let mut bytes = WAL_MAGIC.to_vec();
    bytes.extend_from_slice(&generation.to_le_bytes());
    bytes
}

/// Frames one or more records for a single append: each as
/// `[len][crc][payload]`, concatenated. One facade mutation commits as one
/// append + one fsync regardless of how many records it produces — the
/// group-commit batching. A record too long for its length field fails
/// the whole batch ([`length_field`]).
pub fn frame_records(records: &[WalRecord]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    for record in records {
        let payload = record.encode();
        out.extend_from_slice(&length_field(payload.len())?.to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    Ok(out)
}

/// The result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// The generation stamped in the header.
    pub generation: u64,
    /// Every record up to (not including) the first damaged one.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + intact records) — the
    /// length to truncate to when a tail is torn.
    pub valid_len: u64,
    /// `true` if trailing bytes after the valid prefix were damaged or
    /// incomplete (a torn or corrupted tail).
    pub torn: bool,
}

/// Scanning failure: the file is unusable from the start (bad magic /
/// missing header), as opposed to merely having a damaged tail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalHeaderError;

impl std::fmt::Display for WalHeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WAL header missing or unrecognized")
    }
}

impl std::error::Error for WalHeaderError {}

/// Scans a WAL file image, tolerating a damaged tail.
pub fn scan(bytes: &[u8]) -> Result<WalScan, WalHeaderError> {
    if bytes.len() < WAL_MAGIC.len() + 8 || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalHeaderError);
    }
    let generation = u64::from_le_bytes(
        bytes[WAL_MAGIC.len()..WAL_MAGIC.len() + 8]
            .try_into()
            .expect("8 header bytes"),
    );

    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len() + 8;
    let mut torn = false;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if bytes.len() - pos - 8 < len {
            torn = true;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        match WalRecord::decode(payload) {
            Ok(record) => records.push(record),
            Err(_) => {
                // Checksum held but the structure didn't — treat exactly
                // like a torn tail; the remainder is untrustworthy.
                torn = true;
                break;
            }
        }
        pos += 8 + len;
    }

    Ok(WalScan {
        generation,
        records,
        valid_len: pos as u64,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::InsertGraph("<ex:a> <ex:p> <ex:b> .\n".to_string()),
            WalRecord::SetRegime(1),
            WalRecord::SetBudget {
                mode: 1,
                steps: 42,
                millis: u64::MAX,
            },
            WalRecord::RemoveGraph("<ex:a> <ex:p> <ex:b> .\n".to_string()),
            WalRecord::RefreshDegraded,
        ]
    }

    fn file_image(generation: u64, records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = encode_header(generation);
        bytes.extend_from_slice(&frame_records(records).unwrap());
        bytes
    }

    #[test]
    fn records_round_trip_through_a_file_image() {
        let records = sample_records();
        let image = file_image(7, &records);
        let scan = scan(&image).unwrap();
        assert_eq!(scan.generation, 7);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, image.len() as u64);
        assert!(!scan.torn);
    }

    #[test]
    fn every_truncation_point_yields_a_clean_record_prefix() {
        let records = sample_records();
        let image = file_image(3, &records);
        let header_len = WAL_MAGIC.len() + 8;
        for cut in header_len..image.len() {
            let scan = scan(&image[..cut]).unwrap();
            // The scanned records are a prefix of the originals…
            assert_eq!(scan.records[..], records[..scan.records.len()]);
            // …the valid prefix never exceeds the cut…
            assert!(scan.valid_len <= cut as u64);
            // …and a cut mid-record is flagged torn; a cut exactly on a
            // record boundary is indistinguishable from a shorter clean
            // log, which is the correct reading of it.
            assert_eq!(scan.torn, scan.valid_len < cut as u64);
        }
    }

    #[test]
    fn a_flipped_bit_anywhere_in_a_record_stops_the_scan_there() {
        let records = sample_records();
        let image = file_image(1, &records);
        let header_len = WAL_MAGIC.len() + 8;
        for byte in header_len..image.len() {
            let mut damaged = image.clone();
            damaged[byte] ^= 0x10;
            let scan = scan(&damaged).unwrap();
            assert!(scan.torn, "flip at byte {byte} must be detected");
            assert!(scan.records.len() < records.len());
            assert_eq!(scan.records[..], records[..scan.records.len()]);
        }
    }

    #[test]
    fn bad_magic_or_missing_header_is_a_header_error() {
        assert!(scan(b"").is_err());
        assert!(scan(b"NOTAWAL!").is_err());
        let mut bad = file_image(1, &sample_records());
        bad[0] ^= 0xFF;
        assert!(scan(&bad).is_err());
    }

    #[test]
    fn empty_wal_scans_to_no_records() {
        let image = encode_header(9);
        let scan = scan(&image).unwrap();
        assert_eq!(scan.generation, 9);
        assert!(scan.records.is_empty());
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, image.len() as u64);
    }
}
