//! The IO shim the durability layer writes through — and the fault
//! injector that drives the crash-point matrix.
//!
//! Every filesystem touch of the snapshot/WAL machinery goes through the
//! [`Io`] trait, one call per *fault site*: a write, a sync, a rename, a
//! delete, a truncate, one chunk of a snapshot segment written or read
//! back by a rotation (a segment's file is opened directly, and recovery
//! reads it directly, unfaulted, as it reads the WAL through
//! [`Io::read`]). Production uses [`StdIo`] (plain `std::fs` with real
//! `fsync`s). Tests wrap it in [`FaultIo`],
//! which counts write-point operations and injects a configured
//! [`FaultKind`] at the k-th one — failing it, tearing it mid-write,
//! acknowledging it while corrupting a bit on disk, or panicking in place
//! of it. Iterating k over a run's whole operation count and reopening
//! after each injected fault is exactly the crash-point matrix the
//! recovery tests sweep.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// The filesystem surface of the durability layer. Each method is one
/// fault site; implementations must make the durability-relevant calls
/// (`write_new`, `sync`, `sync_dir`) actually reach stable storage.
pub trait Io: fmt::Debug + Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists the file names (not paths) inside a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates a directory and its parents (idempotent).
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates (or truncates) a file with the given contents and fsyncs it.
    fn write_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends bytes to an existing file (no fsync — pair with [`Io::sync`]).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Fsyncs a file's contents.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs a directory (making renames/creations inside it durable).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Deletes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Truncates a file to `len` bytes and fsyncs it.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Appends one chunk to a file being written in chunks (no fsync):
    /// any number of these, then one [`Io::finish_chunks`].
    fn write_chunk(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)
    }

    /// Appends the last chunk, overwrites the file's first bytes with
    /// `head` — a header whose fields were known only at the end — and
    /// fsyncs the file.
    fn finish_chunks(&self, file: &mut File, last: &[u8], head: &[u8]) -> io::Result<()> {
        file.write_all(last)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(head)?;
        file.sync_all()
    }

    /// Reads the next chunk of a file into `buf`: the bytes read, 0 at
    /// its end.
    fn read_chunk(&self, file: &mut File, buf: &mut [u8]) -> io::Result<usize> {
        file.read(buf)
    }
}

/// The production [`Io`]: plain `std::fs` with real fsyncs.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdIo;

impl Io for StdIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn write_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.write_all(bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Windows cannot open directories as files; the rename itself is
        // metadata-journal-durable there. On unix this is the real thing.
        match File::open(dir) {
            Ok(f) => f.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()
    }
}

/// What the injector does to the targeted operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails cleanly: an error, nothing reaches the disk.
    Fail,
    /// A data-carrying write lands only as a prefix, then errors — the torn
    /// write of a mid-operation crash. Non-data operations degrade to
    /// [`FaultKind::Fail`].
    Truncate,
    /// The operation is *acknowledged* but one bit of the written data is
    /// flipped on disk — the lying-disk case only checksums can catch.
    /// Non-data operations perform normally.
    Corrupt,
    /// The operation panics before touching the disk — a bug in the write
    /// path rather than in the device. The caller must come out of it as
    /// if the operation had never started.
    Panic,
}

const FAULT_NONE: u64 = u64::MAX;

#[derive(Debug)]
struct FaultState {
    /// Write-point operations performed so far.
    ops: AtomicU64,
    /// Inject at this op index ([`FAULT_NONE`] = never).
    fault_at: AtomicU64,
    /// 0 = Fail, 1 = Truncate, 2 = Corrupt, 3 = Panic.
    kind: AtomicU8,
    /// Operations that were actually faulted.
    injected: AtomicU64,
}

/// A fault-injecting [`Io`] wrapping [`StdIo`]. Clones share the same
/// counters, so a test can keep a handle while the durability layer owns
/// another. Recovery's read-side operations (`read`, `list`,
/// `create_dir_all`) are never faulted — the crash model interrupts
/// *writes*; recovery itself is exercised against already-damaged files.
/// A rotation's read-back is: a [`Io::read_chunk`] can fail or flip a bit,
/// and the rotation must then keep the old generation.
#[derive(Clone, Debug)]
pub struct FaultIo {
    inner: Arc<FaultState>,
}

impl Default for FaultIo {
    fn default() -> Self {
        FaultIo::new()
    }
}

impl FaultIo {
    /// An injector with no fault armed: a pure write-point counter.
    pub fn new() -> FaultIo {
        FaultIo {
            inner: Arc::new(FaultState {
                ops: AtomicU64::new(0),
                fault_at: AtomicU64::new(FAULT_NONE),
                kind: AtomicU8::new(0),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Arms a fault: the `at`-th write-point operation (0-based, counted
    /// from now) suffers `kind`.
    pub fn arm(&self, at: u64, kind: FaultKind) {
        self.inner.ops.store(0, Ordering::SeqCst);
        self.inner.injected.store(0, Ordering::SeqCst);
        self.inner.kind.store(
            match kind {
                FaultKind::Fail => 0,
                FaultKind::Truncate => 1,
                FaultKind::Corrupt => 2,
                FaultKind::Panic => 3,
            },
            Ordering::SeqCst,
        );
        self.inner.fault_at.store(at, Ordering::SeqCst);
    }

    /// Disarms any pending fault and resets the counter.
    pub fn disarm(&self) {
        self.inner.fault_at.store(FAULT_NONE, Ordering::SeqCst);
        self.inner.ops.store(0, Ordering::SeqCst);
        self.inner.injected.store(0, Ordering::SeqCst);
    }

    /// Write-point operations performed since the last arm/disarm — the
    /// size of the crash-point matrix for the run just performed.
    pub fn ops(&self) -> u64 {
        self.inner.ops.load(Ordering::SeqCst)
    }

    /// How many operations were actually faulted (0 or 1 per arm).
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::SeqCst)
    }

    /// Counts one write-point op; returns the fault to apply, if this is
    /// the armed one, and panics here if that fault is a panic.
    fn tick(&self) -> Option<FaultKind> {
        let op = self.inner.ops.fetch_add(1, Ordering::SeqCst);
        if op != self.inner.fault_at.load(Ordering::SeqCst) {
            return None;
        }
        self.inner.injected.fetch_add(1, Ordering::SeqCst);
        match self.inner.kind.load(Ordering::SeqCst) {
            0 => Some(FaultKind::Fail),
            1 => Some(FaultKind::Truncate),
            2 => Some(FaultKind::Corrupt),
            _ => panic!("injected fault: panic at write point {op}"),
        }
    }

    /// One data-carrying write point: `write` gets the bytes that reach the
    /// disk — all of them, a torn prefix or a flipped copy — and is not
    /// called when a fault leaves nothing to write.
    fn data_write(
        &self,
        what: &str,
        bytes: &[u8],
        write: impl FnOnce(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let Some(kind) = self.tick() else {
            return write(bytes);
        };
        let (on_disk, ack) = Self::mangle(kind, bytes);
        if !on_disk.is_empty() || ack {
            write(&on_disk)?;
        }
        ack.then_some(()).ok_or_else(|| Self::injected_err(what))
    }

    fn injected_err(what: &str) -> io::Error {
        io::Error::other(format!("injected fault: {what}"))
    }

    /// Applies a fault to a data-carrying write; returns the bytes that
    /// should actually reach the disk and whether the op still "succeeds".
    fn mangle(kind: FaultKind, bytes: &[u8]) -> (Vec<u8>, bool) {
        match kind {
            FaultKind::Fail | FaultKind::Panic => (Vec::new(), false),
            FaultKind::Truncate => (bytes[..bytes.len() / 2].to_vec(), false),
            FaultKind::Corrupt => {
                let mut out = bytes.to_vec();
                if !out.is_empty() {
                    let at = out.len() / 2;
                    out[at] ^= 0x40;
                }
                (out, true)
            }
        }
    }
}

impl Io for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdIo.read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        StdIo.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdIo.create_dir_all(dir)
    }

    fn write_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.data_write("write_new", bytes, |b| StdIo.write_new(path, b))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.data_write("append", bytes, |b| StdIo.append(path, b))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match self.tick() {
            None => StdIo.sync(path),
            Some(FaultKind::Corrupt) => StdIo.sync(path),
            Some(_) => Err(Self::injected_err("sync")),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.tick() {
            None => StdIo.sync_dir(dir),
            Some(FaultKind::Corrupt) => StdIo.sync_dir(dir),
            Some(_) => Err(Self::injected_err("sync_dir")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.tick() {
            None => StdIo.rename(from, to),
            Some(FaultKind::Corrupt) => StdIo.rename(from, to),
            Some(_) => Err(Self::injected_err("rename")),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.tick() {
            None => StdIo.remove(path),
            Some(FaultKind::Corrupt) => StdIo.remove(path),
            Some(_) => Err(Self::injected_err("remove")),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.tick() {
            None => StdIo.truncate(path, len),
            Some(FaultKind::Corrupt) => StdIo.truncate(path, len),
            Some(_) => Err(Self::injected_err("truncate")),
        }
    }

    fn write_chunk(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        self.data_write("write_chunk", bytes, |b| StdIo.write_chunk(file, b))
    }

    fn finish_chunks(&self, file: &mut File, last: &[u8], head: &[u8]) -> io::Result<()> {
        let Some(kind) = self.tick() else {
            return StdIo.finish_chunks(file, last, head);
        };
        match Self::mangle(kind, last) {
            (on_disk, true) => StdIo.finish_chunks(file, &on_disk, head),
            (on_disk, false) => {
                StdIo.write_chunk(file, &on_disk)?;
                Err(Self::injected_err("finish_chunks"))
            }
        }
    }

    fn read_chunk(&self, file: &mut File, buf: &mut [u8]) -> io::Result<usize> {
        match self.tick() {
            None => StdIo.read_chunk(file, buf),
            Some(FaultKind::Corrupt) => {
                let got = StdIo.read_chunk(file, buf)?;
                if got > 0 {
                    buf[got / 2] ^= 0x40;
                }
                Ok(got)
            }
            Some(_) => Err(Self::injected_err("read_chunk")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swdb-durable-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_io_round_trips_and_appends() {
        let dir = tmp_dir("std");
        let f = dir.join("a.bin");
        StdIo.write_new(&f, b"hello").unwrap();
        StdIo.append(&f, b" world").unwrap();
        StdIo.sync(&f).unwrap();
        assert_eq!(StdIo.read(&f).unwrap(), b"hello world");
        StdIo.truncate(&f, 5).unwrap();
        assert_eq!(StdIo.read(&f).unwrap(), b"hello");
        assert_eq!(StdIo.list(&dir).unwrap(), vec!["a.bin".to_string()]);
        StdIo.remove(&f).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_io_counts_and_injects_each_kind() {
        let dir = tmp_dir("fault");
        let f = dir.join("w.bin");

        let io = FaultIo::new();
        io.write_new(&f, b"0123456789").unwrap();
        io.append(&f, b"ab").unwrap();
        io.sync(&f).unwrap();
        assert_eq!(io.ops(), 3);
        assert_eq!(io.injected(), 0);

        // Fail: nothing written.
        io.arm(0, FaultKind::Fail);
        assert!(io.write_new(&f, b"XXXX").is_err());
        assert_eq!(StdIo.read(&f).unwrap(), b"0123456789ab");
        assert_eq!(io.injected(), 1);

        // Truncate: half the bytes land, then an error.
        io.arm(0, FaultKind::Truncate);
        assert!(io.append(&f, b"PPPP").is_err());
        assert_eq!(StdIo.read(&f).unwrap(), b"0123456789abPP");

        // Corrupt: acknowledged, one bit flipped.
        io.arm(0, FaultKind::Corrupt);
        io.write_new(&f, b"QQQQ").unwrap();
        let on_disk = StdIo.read(&f).unwrap();
        assert_eq!(on_disk.len(), 4);
        assert_ne!(on_disk, b"QQQQ");
        assert_eq!(on_disk.iter().filter(|&&b| b != b'Q').count(), 1);

        // Panic: the op unwinds before anything reaches the disk.
        io.arm(0, FaultKind::Panic);
        let panicked = std::panic::catch_unwind(|| io.append(&f, b"RRRR"));
        assert!(panicked.is_err());
        assert_eq!(StdIo.read(&f).unwrap().len(), 4);
        assert_eq!(io.injected(), 1);

        // Later ops after the armed one run clean.
        io.arm(0, FaultKind::Fail);
        assert!(io.sync(&f).is_err());
        io.write_new(&f, b"clean").unwrap();
        assert_eq!(StdIo.read(&f).unwrap(), b"clean");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
