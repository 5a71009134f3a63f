//! Generation management: which snapshot segment and WAL file are live,
//! how a commit reaches the disk, and how a rotation replaces both.
//!
//! A data directory holds at most one *live generation* `g`:
//! `snapshot-<g>.seg` (absent for the initial generation 0 of a fresh
//! directory) plus `wal-<g>.log` with every mutation committed since. A
//! rotation to `g+1` is crash-safe by ordering alone:
//!
//! 1. stream `snapshot-<g+1>.tmp` from the live state, chunk by chunk,
//!    and fsync it;
//! 2. rename it to `snapshot-<g+1>.seg` and fsync the directory;
//! 3. **read the segment back and verify it**, chunk by chunk — a disk
//!    that acknowledged the write but corrupted the bytes is caught
//!    *before* anything is deleted, and the damaged segment is removed
//!    again;
//! 4. create the empty `wal-<g+1>.log` and fsync the directory;
//! 5. best-effort delete the old generation's files.
//!
//! A crash between any two steps leaves a directory [`Durability::open`]
//! handles: it picks the **newest snapshot that passes its checksum**,
//! treats a missing WAL for that generation as empty (the step-3→4 crash
//! window), and truncates a torn WAL tail. Any error from the underlying
//! [`Io`] is returned to the caller, whose discipline is **fail-stop**:
//! drop the durability handle and continue in memory — the directory is
//! left in a state the next `open` recovers.

use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use swdb_obs::{Counter, Gauge, Hist, Metrics};

use crate::io::Io;
use crate::snapshot::{self, SnapshotError, SnapshotPayload, SnapshotSource};
use crate::wal::{self, WalRecord};

/// Default WAL compaction threshold (records) when `SWDB_WAL_COMPACT` is
/// unset: past this many live records the facade rotates automatically.
pub const DEFAULT_WAL_COMPACT_THRESHOLD: u64 = 10_000;

/// What [`Durability::open`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// The newest valid snapshot, if any generation had one.
    pub snapshot: Option<SnapshotPayload>,
    /// The WAL suffix committed after that snapshot, in commit order.
    pub wal: Vec<WalRecord>,
    /// `true` if a torn or corrupted WAL tail was discarded — the expected
    /// signature of a crash mid-commit.
    pub torn_tail: bool,
}

impl Recovered {
    /// `true` when the directory held no state at all (fresh start).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.wal.is_empty()
    }
}

/// The live handle on a data directory: owns the current generation and
/// performs commits and rotations. Deliberately **not** `Clone` — two
/// handles appending to one WAL would interleave records arbitrarily.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    io: Arc<dyn Io>,
    metrics: Metrics,
    generation: u64,
    wal_records: u64,
    compact_threshold: u64,
}

fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

impl Durability {
    fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("snapshot-{generation}.seg"))
    }

    fn snapshot_tmp_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("snapshot-{generation}.tmp"))
    }

    fn wal_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("wal-{generation}.log"))
    }

    /// Opens (creating if needed) a data directory and recovers whatever
    /// consistent state it holds. Returns the live handle positioned at
    /// the recovered generation, ready for [`Durability::commit`].
    pub fn open(
        dir: &Path,
        io: Arc<dyn Io>,
        metrics: Metrics,
        compact_threshold: u64,
    ) -> io::Result<(Durability, Recovered)> {
        io.create_dir_all(dir)?;
        let names = io.list(dir)?;

        // Newest snapshot that decodes and whose stamped generation matches
        // its file name wins; damaged ones are skipped (and cleaned up). An
        // intact one of a version this build cannot read stops the open.
        let mut snapshot_gens: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_generation(n, "snapshot-", ".seg"))
            .collect();
        snapshot_gens.sort_unstable();
        let mut chosen: Option<(u64, SnapshotPayload)> = None;
        let decode_span = metrics.span(Hist::SpanSnapshotDecodeNs);
        for &gen in snapshot_gens.iter().rev() {
            let path = Self::snapshot_path(dir, gen);
            match snapshot::read_segment(&path, true, |f, b| f.read(b)) {
                Ok((payload, stamped)) if stamped == gen => {
                    chosen = Some((gen, payload));
                    break;
                }
                Err(unknown @ SnapshotError::UnsupportedVersion(_)) => {
                    let why = format!("{}: {unknown}; nothing was removed", path.display());
                    return Err(io::Error::new(io::ErrorKind::InvalidData, why));
                }
                _ => {}
            }
        }
        drop(decode_span);

        // The live WAL generation: the chosen snapshot's, or — with no
        // snapshot at all — the highest WAL on disk (generation 0 fresh).
        let generation = match &chosen {
            Some((gen, _)) => *gen,
            None => names
                .iter()
                .filter_map(|n| parse_generation(n, "wal-", ".log"))
                .max()
                .unwrap_or(0),
        };

        let wal_path = Self::wal_path(dir, generation);
        let mut records = Vec::new();
        let mut torn_tail = false;
        match io.read(&wal_path) {
            Ok(bytes) => match wal::scan(&bytes) {
                Ok(scan) => {
                    records = scan.records;
                    if scan.torn {
                        torn_tail = true;
                        io.truncate(&wal_path, scan.valid_len)?;
                    }
                }
                Err(_) => {
                    // The header itself is damaged (a crash tore the WAL
                    // file's creation): nothing in it can be trusted.
                    torn_tail = true;
                    io.write_new(&wal_path, &wal::encode_header(generation))?;
                    io.sync_dir(dir)?;
                }
            },
            Err(_) => {
                // Missing WAL: the crash window between snapshot rename and
                // WAL creation, or a fresh directory. Either way the
                // snapshot alone is the complete state.
                io.write_new(&wal_path, &wal::encode_header(generation))?;
                io.sync_dir(dir)?;
            }
        }

        // Best-effort cleanup of everything that is not the live
        // generation: older (or damaged newer) snapshots, stale WALs, and
        // orphaned `*.tmp` segments from a crash mid-rotation (step 1→2 of
        // the rotation ordering). A tmp can never shadow the live
        // generation — snapshot selection above only considers `.seg`
        // names — but leaving it would accrete debris and could confuse a
        // later rotation to the same generation number.
        let mut orphans_removed = 0u64;
        for name in &names {
            let stale_snapshot = parse_generation(name, "snapshot-", ".seg")
                .is_some_and(|g| chosen.as_ref().is_none_or(|(c, _)| g != *c));
            let stale_wal = parse_generation(name, "wal-", ".log").is_some_and(|g| g != generation);
            let stale = stale_snapshot || stale_wal || name.ends_with(".tmp");
            if stale && io.remove(&dir.join(name)).is_ok() {
                orphans_removed += 1;
            }
        }
        metrics.count(Counter::RecoveryOrphansRemoved, orphans_removed);

        if torn_tail {
            metrics.count(Counter::RecoveryTornTails, 1);
        }
        metrics.gauge_set(Gauge::WalLiveRecords, records.len() as u64);
        metrics.gauge_set(Gauge::WalCompactThreshold, compact_threshold);

        let durability = Durability {
            dir: dir.to_path_buf(),
            io,
            metrics,
            generation,
            wal_records: records.len() as u64,
            compact_threshold,
        };
        let recovered = Recovered {
            snapshot: chosen.map(|(_, payload)| payload),
            wal: records,
            torn_tail,
        };
        Ok((durability, recovered))
    }

    /// The data directory this handle owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Live records in the current WAL.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// The configured compaction threshold (0 disables auto-compaction).
    pub fn compact_threshold(&self) -> u64 {
        self.compact_threshold
    }

    /// `true` once the WAL has grown past the compaction threshold and the
    /// owner should rotate at the next opportunity.
    pub fn needs_compaction(&self) -> bool {
        self.compact_threshold > 0 && self.wal_records > self.compact_threshold
    }

    /// Durably commits one mutation as a batch of records: a single append
    /// followed by a single fsync, whatever the batch size (group commit).
    /// On error the caller must drop the handle (fail-stop) — the on-disk
    /// WAL may hold a torn tail that only the next `open` may trim.
    pub fn commit(&mut self, records: &[WalRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let bytes = wal::frame_records(records)?;
        let wal_path = Self::wal_path(&self.dir, self.generation);
        self.io.append(&wal_path, &bytes)?;
        self.io.sync(&wal_path)?;
        self.wal_records += records.len() as u64;
        self.metrics
            .count(Counter::WalRecordsAppended, records.len() as u64);
        self.metrics.count(Counter::WalBytes, bytes.len() as u64);
        self.metrics
            .gauge_set(Gauge::WalLiveRecords, self.wal_records);
        Ok(())
    }

    /// Rotates to a new generation: streams `source` as the next snapshot
    /// segment (temp + fsync + rename + read-back verify), starts a fresh
    /// empty WAL, then deletes the previous generation's files. On error
    /// the on-disk state is recoverable by the next `open` — either the
    /// old generation (verification failed before anything was deleted) or
    /// the new one (the crash window after the rename).
    ///
    /// No image of the state is held: the segment is written from `source`
    /// one chunk at a time ([`snapshot::write_segment`]), and read back the
    /// same way ([`snapshot::read_segment`]).
    pub fn rotate(&mut self, source: impl SnapshotSource) -> io::Result<()> {
        let _span = self.metrics.span(Hist::SpanSnapshotWriteNs);
        let next = self.generation + 1;
        let tmp = Self::snapshot_tmp_path(&self.dir, next);
        let seg = Self::snapshot_path(&self.dir, next);

        snapshot::write_segment(&*self.io, &tmp, next, &source)?;
        self.io.rename(&tmp, &seg)?;
        self.io.sync_dir(&self.dir)?;

        // Read-back verification: a disk that acknowledged the write but
        // stored damaged bytes must be caught while the old generation is
        // still intact. On failure the bad segment is removed so a later
        // `open` does not have to skip past it.
        let verify = self.metrics.span(Hist::SpanSnapshotVerifyNs);
        let read_back = snapshot::read_segment(&seg, false, |f, b| self.io.read_chunk(f, b));
        let verified = read_back.is_ok_and(|(_, stamped)| stamped == next);
        drop(verify);
        if !verified {
            let _ = self.io.remove(&seg);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot segment failed read-back verification",
            ));
        }

        self.io
            .write_new(&Self::wal_path(&self.dir, next), &wal::encode_header(next))?;
        self.io.sync_dir(&self.dir)?;

        let _ = self
            .io
            .remove(&Self::snapshot_path(&self.dir, self.generation));
        let _ = self.io.remove(&Self::wal_path(&self.dir, self.generation));

        self.generation = next;
        self.wal_records = 0;
        self.metrics.count(Counter::SnapshotsWritten, 1);
        self.metrics.gauge_set(Gauge::WalLiveRecords, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultIo, FaultKind, StdIo};
    use swdb_model::Term;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swdb-durable-mgr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_payload() -> SnapshotPayload {
        SnapshotPayload {
            regime: 1,
            budget_mode: 0,
            budget_steps: u64::MAX,
            budget_millis: u64::MAX,
            terms: vec![Term::iri("ex:a"), Term::iri("ex:p"), Term::iri("ex:b")],
            base: vec![(0, 1, 2)],
            closure: vec![(0, 1, 2)],
            evaluation: None,
        }
    }

    fn records(n: usize) -> Vec<WalRecord> {
        (0..n)
            .map(|i| WalRecord::InsertGraph(format!("<ex:s{i}> <ex:p> <ex:o> .\n")))
            .collect()
    }

    #[test]
    fn fresh_directory_opens_empty_and_replays_commits() {
        let dir = tmp_dir("fresh");
        let io: Arc<dyn Io> = Arc::new(StdIo);
        let (mut d, recovered) =
            Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(d.generation(), 0);

        let batch = records(3);
        d.commit(&batch[..2]).unwrap();
        d.commit(&batch[2..]).unwrap();
        assert_eq!(d.wal_records(), 3);
        drop(d);

        let (d, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.wal, batch);
        assert!(!recovered.torn_tail);
        assert_eq!(d.wal_records(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_replaces_generation_and_truncates_wal() {
        let dir = tmp_dir("rotate");
        let io: Arc<dyn Io> = Arc::new(StdIo);
        let metrics = Metrics::new(swdb_obs::MetricsLevel::Counters);
        let (mut d, _) = Durability::open(&dir, io.clone(), metrics.clone(), 100).unwrap();
        d.commit(&records(5)).unwrap();
        d.rotate(sample_payload()).unwrap();
        assert_eq!(d.generation(), 1);
        assert_eq!(d.wal_records(), 0);
        d.commit(&records(1)).unwrap();
        drop(d);

        // Old generation's files are gone; the new one is live.
        let names = StdIo.list(&dir).unwrap();
        assert_eq!(
            names,
            vec!["snapshot-1.seg".to_string(), "wal-1.log".to_string()]
        );

        let (d, recovered) = Durability::open(&dir, io, metrics.clone(), 100).unwrap();
        assert_eq!(d.generation(), 1);
        assert_eq!(recovered.snapshot.as_ref(), Some(&sample_payload()));
        assert_eq!(recovered.wal, records(1));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("snapshots_written"), 1);
        assert_eq!(snap.counter("wal_records_appended"), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_counted() {
        let dir = tmp_dir("torn");
        let io: Arc<dyn Io> = Arc::new(StdIo);
        let (mut d, _) = Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
        d.commit(&records(2)).unwrap();
        drop(d);

        // Simulate a crash mid-append: garbage after the valid records.
        let wal_path = dir.join("wal-0.log");
        StdIo.append(&wal_path, &[0xAB, 0xCD, 0xEF]).unwrap();

        let metrics = Metrics::new(swdb_obs::MetricsLevel::Counters);
        let (d, recovered) = Durability::open(&dir, io.clone(), metrics.clone(), 100).unwrap();
        assert_eq!(recovered.wal, records(2));
        assert!(recovered.torn_tail);
        assert_eq!(metrics.snapshot().counter("recovery_torn_tails"), 1);
        drop(d);

        // The tail was physically trimmed: a re-open is clean.
        let (_, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
        assert!(!recovered.torn_tail);
        assert_eq!(recovered.wal, records(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn acknowledged_but_corrupted_snapshot_is_caught_before_deleting_the_old_state() {
        let dir = tmp_dir("lying-disk");
        let fault = FaultIo::new();
        let io: Arc<dyn Io> = Arc::new(fault.clone());
        let (mut d, _) = Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
        d.commit(&records(4)).unwrap();

        // The very next write (the snapshot temp file) is acknowledged but
        // corrupted on disk.
        fault.arm(0, FaultKind::Corrupt);
        let err = d.rotate(sample_payload()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fault.disarm();
        drop(d);

        // Fail-stop: reopen recovers the old generation, nothing lost.
        let (d, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
        assert_eq!(d.generation(), 0);
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.wal, records(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fault_at_every_rotation_step_leaves_a_recoverable_directory() {
        for kind in [FaultKind::Fail, FaultKind::Truncate, FaultKind::Corrupt] {
            // First measure how many io ops a clean rotation takes.
            let dir = tmp_dir("matrix-probe");
            let fault = FaultIo::new();
            let io: Arc<dyn Io> = Arc::new(fault.clone());
            let (mut d, _) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
            d.commit(&records(3)).unwrap();
            fault.disarm();
            d.rotate(sample_payload()).unwrap();
            let rotation_ops = fault.ops();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(rotation_ops >= 5, "rotation is several fault sites");

            for at in 0..rotation_ops {
                let dir = tmp_dir(&format!("matrix-{at}"));
                let fault = FaultIo::new();
                let io: Arc<dyn Io> = Arc::new(fault.clone());
                let (mut d, _) =
                    Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
                d.commit(&records(3)).unwrap();

                fault.arm(at, kind);
                let result = d.rotate(sample_payload());
                fault.disarm();
                drop(d);

                // Whatever happened, reopen finds a consistent state: the
                // old generation in full, or the new snapshot (whose WAL is
                // empty — the records are *inside* the snapshot's caller-
                // provided payload by the time a real facade rotates).
                let (d, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
                if d.generation() == 0 {
                    assert!(recovered.snapshot.is_none(), "at={at} {kind:?}");
                    assert_eq!(recovered.wal, records(3), "at={at} {kind:?}");
                    assert!(result.is_err(), "staying on gen 0 implies a reported error");
                } else {
                    assert_eq!(d.generation(), 1, "at={at} {kind:?}");
                    assert_eq!(
                        recovered.snapshot.as_ref(),
                        Some(&sample_payload()),
                        "at={at} {kind:?}"
                    );
                    assert!(recovered.wal.is_empty(), "at={at} {kind:?}");
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn missing_wal_after_snapshot_rename_is_an_empty_suffix() {
        let dir = tmp_dir("window");
        let io: Arc<dyn Io> = Arc::new(StdIo);
        let (mut d, _) = Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
        d.commit(&records(2)).unwrap();
        d.rotate(sample_payload()).unwrap();
        drop(d);
        // Simulate the crash window: the new WAL never got created.
        StdIo.remove(&dir.join("wal-1.log")).unwrap();

        let (d, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
        assert_eq!(d.generation(), 1);
        assert_eq!(recovered.snapshot.as_ref(), Some(&sample_payload()));
        assert!(recovered.wal.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_segment_from_a_crashed_rotation_never_shadows_the_live_generation() {
        let dir = tmp_dir("tmp-orphan");
        let fault = FaultIo::new();
        let io: Arc<dyn Io> = Arc::new(fault.clone());
        let (mut d, _) = Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
        d.commit(&records(3)).unwrap();

        // Crash between rotation steps 1 and 2: the tmp segment is fully
        // written and fsynced, the rename never happens.
        fault.arm(1, FaultKind::Fail);
        assert!(d.rotate(sample_payload()).is_err());
        fault.disarm();
        drop(d);
        assert!(
            StdIo.list(&dir).unwrap().contains(&"snapshot-1.tmp".into()),
            "the crash must leave the orphaned tmp behind"
        );

        // Reopen: the tmp — although it holds a complete, decodable payload
        // — must not shadow the live generation 0, and it gets cleaned up.
        let metrics = Metrics::new(swdb_obs::MetricsLevel::Counters);
        let (d, recovered) = Durability::open(&dir, io.clone(), metrics.clone(), 100).unwrap();
        assert_eq!(d.generation(), 0);
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.wal, records(3));
        assert!(metrics.snapshot().counter("recovery_orphans_removed") >= 1);
        drop(d);
        assert!(
            !StdIo
                .list(&dir)
                .unwrap()
                .iter()
                .any(|n| n.ends_with(".tmp")),
            "open must sweep orphaned tmp segments"
        );

        // A planted tmp with a *newer* stamped generation is equally inert:
        // snapshot selection only ever reads `.seg` names.
        StdIo
            .write_new(
                &dir.join("snapshot-99.tmp"),
                &sample_payload().encode(99).unwrap(),
            )
            .unwrap();
        let (d, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
        assert_eq!(d.generation(), 0, "a stale tmp never becomes the state");
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.wal, records(3));
        assert!(!StdIo
            .list(&dir)
            .unwrap()
            .iter()
            .any(|n| n.ends_with(".tmp")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_segment_of_an_unknown_version_stops_the_open_and_is_never_removed() {
        let dir = tmp_dir("unknown-version");
        let io: Arc<dyn Io> = Arc::new(StdIo);
        let (mut d, _) = Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
        d.rotate(sample_payload()).unwrap();
        d.commit(&records(2)).unwrap();
        drop(d);
        let segment = dir.join("snapshot-1.seg");
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes[8..12].copy_from_slice(&(crate::SNAPSHOT_VERSION + 1).to_le_bytes());
        let stale = bytes.clone();
        let mut crc = crate::crc::Crc32::default();
        crc.update(&bytes[8..20]);
        crc.update(&bytes[28..]);
        bytes[24..28].copy_from_slice(&crc.finish().to_le_bytes());
        std::fs::write(&segment, &bytes).unwrap();

        let listing = StdIo.list(&dir).unwrap();
        let err = Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let unknown = format!("version {}", crate::SNAPSHOT_VERSION + 1);
        assert!(err.to_string().contains(&unknown), "{err}");
        assert_eq!(StdIo.list(&dir).unwrap(), listing, "nothing removed");
        assert_eq!(std::fs::read(&segment).unwrap(), bytes);

        // The same segment under a stale CRC is damage: skipped and removed.
        std::fs::write(&segment, &stale).unwrap();
        let (d, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
        assert_eq!(d.generation(), 1);
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.wal, records(2));
        assert_eq!(StdIo.list(&dir).unwrap(), vec!["wal-1.log".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_threshold_drives_needs_compaction() {
        let dir = tmp_dir("compact");
        let io: Arc<dyn Io> = Arc::new(StdIo);
        let (mut d, _) = Durability::open(&dir, io, Metrics::default(), 3).unwrap();
        d.commit(&records(3)).unwrap();
        assert!(!d.needs_compaction(), "at the threshold is not over it");
        d.commit(&records(1)).unwrap();
        assert!(d.needs_compaction());
        d.rotate(sample_payload()).unwrap();
        assert!(!d.needs_compaction());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A payload whose segment spans several chunks.
    fn large_payload() -> SnapshotPayload {
        let mut payload = sample_payload();
        payload.terms = (0..5_000).map(|i| Term::iri(format!("ex:t{i}"))).collect();
        payload.closure = (0..60_000)
            .map(|i| (i % 5_000, 1, (i / 5_000 + i * 3) % 5_000))
            .collect();
        payload.closure.sort_unstable();
        payload.base = payload.closure.iter().copied().step_by(2).collect();
        payload
    }

    #[test]
    fn a_fault_at_every_chunk_of_a_long_rotation_leaves_a_recoverable_directory() {
        let chunks = large_payload().encode(1).unwrap().len() / crate::snapshot::CHUNK;
        assert!(chunks >= 3, "the segment spans several chunks");
        let kinds = [FaultKind::Fail, FaultKind::Truncate, FaultKind::Corrupt];
        let mut rotation_ops = None;
        for kind in kinds {
            for at in 0.. {
                let dir = tmp_dir(&format!("chunks-{at}"));
                let fault = FaultIo::new();
                let io: Arc<dyn Io> = Arc::new(fault.clone());
                let (mut d, _) =
                    Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
                d.commit(&records(2)).unwrap();
                fault.arm(at, kind);
                let result = d.rotate(large_payload());
                let (landed, ops) = (fault.injected() > 0, fault.ops());
                fault.disarm();
                drop(d);

                let (d, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
                if d.generation() == 0 {
                    assert!(result.is_err(), "at={at} {kind:?}");
                    assert_eq!(recovered.wal, records(2), "at={at} {kind:?}");
                } else {
                    assert_eq!(
                        recovered.snapshot,
                        Some(large_payload()),
                        "at={at} {kind:?}"
                    );
                }
                let _ = std::fs::remove_dir_all(&dir);
                if !landed {
                    assert!(result.is_ok());
                    rotation_ops.get_or_insert(ops);
                    break;
                }
            }
        }
        let ops = rotation_ops.expect("a clean rotation");
        assert!(
            ops as usize > 2 * chunks,
            "each chunk is a fault site both ways"
        );
    }

    #[test]
    fn a_segment_with_an_id_past_the_dictionary_fails_the_read_back_and_keeps_the_old_generation() {
        let dir = tmp_dir("out-of-bounds");
        let io: Arc<dyn Io> = Arc::new(StdIo);
        let (mut d, _) = Durability::open(&dir, io.clone(), Metrics::default(), 100).unwrap();
        d.commit(&records(2)).unwrap();
        let mut payload = large_payload();
        payload.closure.push((payload.terms.len() as u32, 0, 0));
        let err = d.rotate(payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(d);

        let (d, recovered) = Durability::open(&dir, io, Metrics::default(), 100).unwrap();
        assert_eq!(d.generation(), 0);
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.wal, records(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
