//! # swdb-durable — crash-safe durability for the swdb stack
//!
//! A std-only durability layer: **checksummed snapshots**, an append-only
//! **write-ahead log**, and **recovery** that replays the WAL suffix
//! through the stack's incremental engines instead of recomputing closures
//! or cores from scratch. The facade (`swdb-core`) owns the policy — what
//! to log, when to rotate — and this crate owns the mechanism.
//!
//! ## Disk layout and fsync discipline
//!
//! A data directory holds one live *generation* `g`: `snapshot-<g>.seg`
//! (a versioned, CRC-32-checksummed binary image of the entire database,
//! absent only for a fresh directory's generation 0) and `wal-<g>.log`
//! (length-prefixed, per-record-checksummed mutation records committed
//! after that snapshot). Commits are group-committed: one append plus one
//! fsync per facade mutation, however many records it produced. Rotations
//! stream the new snapshot from the live state to a temp file in chunks,
//! fsync, rename, fsync the directory, **verify the segment by reading it
//! back** in chunks, create the next WAL, and only then delete the
//! previous generation.
//!
//! A segment holds only what a restore reads, the asserted set as a flag
//! on the closure run, gap-coded and front-coded ([`snapshot`], version
//! 3); a version-1 or -2 segment still opens, and an intact segment of an
//! unknown version stops [`Durability::open`] before anything is removed.
//!
//! ## Torn tails and lying disks
//!
//! A crash mid-commit tears the final WAL record; recovery detects it by
//! length or checksum, truncates the tail, and reports it (the
//! `recovery_torn_tails` counter) — everything durably acknowledged
//! before the crash survives. A disk that *acknowledges* a snapshot write
//! but stores damaged bytes is caught by the read-back verification while
//! the previous generation still exists. By policy a WAL scan never skips
//! a damaged record to resume at a later one: the first bad record ends
//! the trustworthy prefix.
//!
//! ## Fault injection
//!
//! Everything reaches the filesystem through the [`Io`] trait — one method
//! per fault site, a snapshot segment's chunks among them. [`FaultIo`] wraps the production [`StdIo`] and injects
//! a [`FaultKind`] (clean failure, torn write, or acknowledged corruption)
//! at the k-th write-point operation, which is how the crash-point matrix
//! tests prove every interruption recovers to a consistent state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod durability;
pub mod io;
pub mod snapshot;
pub mod wal;

pub use crc::crc32;
pub use durability::{Durability, Recovered, DEFAULT_WAL_COMPACT_THRESHOLD};
pub use io::{FaultIo, FaultKind, Io, StdIo};
pub use snapshot::{SnapshotError, SnapshotPayload, SnapshotSource, SNAPSHOT_VERSION};
pub use wal::{WalRecord, WalScan};
