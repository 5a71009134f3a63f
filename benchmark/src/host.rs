//! Facts about the host and the few file-system chores of a run. Every
//! path the benchmark writes lies under `benchmark/out/`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// `benchmark/out/`, created on demand. The crate's own directory is known
/// at build time, and the driver builds in the checkout it runs in.
pub fn out_dir() -> io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A fresh, empty data directory `benchmark/out/data/<label>-<pid>`.
pub fn fresh_data_dir(label: &str) -> io::Result<PathBuf> {
    let dir = out_dir()?
        .join("data")
        .join(format!("{label}-{}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Removes every `SWDB_*` variable: the numbers are for the defaults a user
/// gets, whatever the calling shell had set. Must run before any thread
/// starts (it does: first thing in `main`).
pub fn scrub_swdb_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SWDB_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), Linux only.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, hence `None` there.
pub fn commit_id() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => Some(
            fs::read_to_string(git.join(reference))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}

/// File-system type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> Option<String> {
    let path = fs::canonicalize(path).ok()?;
    let mounts = fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
}

/// `(name, bytes)` of the regular files directly inside `dir`.
pub fn files_in(dir: &Path) -> io::Result<Vec<(String, u64)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_file() {
            out.push((entry.file_name().to_string_lossy().into_owned(), meta.len()));
        }
    }
    out.sort();
    Ok(out)
}

pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    Ok(files_in(dir)?.iter().map(|(_, n)| n).sum())
}

/// Bytes in the directory's write-ahead logs (`wal-<generation>.log`).
pub fn wal_bytes(dir: &Path) -> io::Result<u64> {
    Ok(files_in(dir)?
        .iter()
        .filter(|(name, _)| name.starts_with("wal-"))
        .map(|(_, n)| n)
        .sum())
}

/// Copies the files of a data directory — "only the bytes on disk" — into
/// a fresh sibling, so that recovery can be exercised while the original
/// is still open.
pub fn copy_data_dir(from: &Path, label: &str) -> io::Result<PathBuf> {
    let to = fresh_data_dir(label)?;
    for (name, _) in files_in(from)? {
        fs::copy(from.join(&name), to.join(&name))?;
    }
    Ok(to)
}
