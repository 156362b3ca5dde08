//! Disk-fault injection: a file handle that fails like real storage.
//!
//! The result store claims to survive what disks and crashes actually
//! do — torn writes, `ENOSPC` mid-record, fsync refusal, bit rot,
//! duplicated appends. Those claims are only worth anything if the
//! failures are *reachable in tests*, deterministically. This module
//! makes them so, in two complementary shapes:
//!
//! * [`FaultyFile`] is a **live** injector: a `Read + Write + Seek`
//!   handle over a real file that starts refusing service at a chosen
//!   point — writes fail with `ENOSPC` after a byte budget (tearing the
//!   in-flight record exactly as a full disk would), every `write` call
//!   can be bounded to a few bytes (exposing callers that assume one
//!   `write` is atomic), and `sync_data` can be made to fail (a dying
//!   device, an NFS mount). Storage layers accept it through the
//!   [`DiskFile`] seam.
//! * [`corrupt_file`] applies **at-rest** faults to a closed file — the
//!   states a crash or sick medium leaves behind: torn tails, dropped or
//!   duplicated trailing lines, flipped bits, appended garbage.
//!
//! Everything is deterministic: no randomness except where a seed is
//! passed in explicitly ([`DiskFault::AppendGarbage`]).

use crate::rng::SplitMix64;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The storage seam: everything a single-file storage layer (the result
/// store) needs from its backing file, as a trait so tests can
/// substitute a [`FaultyFile`] for a real [`File`].
pub trait DiskFile: Read + Write + Seek + Send {
    /// Flushes file data to the device (`fsync` minus metadata).
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure (or the injected one).
    fn sync_data(&mut self) -> io::Result<()>;

    /// Truncates (or extends) the file to `len` bytes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

impl DiskFile for File {
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
}

/// A real file wrapped in deterministic failure injection. Build with
/// [`create`](FaultyFile::create)/[`open`](FaultyFile::open), then chain
/// the fault knobs; with no knobs set it behaves exactly like the
/// underlying [`File`].
///
/// # Examples
///
/// ```no_run
/// use ascend_faults::{DiskFile, FaultyFile};
/// use std::io::Write;
///
/// // A "disk" with room for 64 bytes: the 65th write byte fails with
/// // an ENOSPC-class error, leaving a torn prefix behind — exactly the
/// // state crash recovery must cope with.
/// let mut file = FaultyFile::create("scratch.bin").unwrap().fail_writes_after(64);
/// let err = file.write_all(&[0u8; 100]).unwrap_err();
/// assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
/// ```
#[derive(Debug)]
pub struct FaultyFile {
    inner: File,
    /// Bytes successfully written through this handle so far.
    written: u64,
    /// Writes fail (`StorageFull`) once `written` reaches this budget.
    write_budget: Option<u64>,
    /// Each `write` call transfers at most this many bytes.
    short_write_limit: Option<usize>,
    /// `sync_data` fails.
    refuse_fsync: bool,
}

impl FaultyFile {
    /// Creates (truncating) a faultable file at `path`, opened
    /// read+write.
    ///
    /// # Errors
    ///
    /// Propagates the (real) creation failure.
    pub fn create(path: impl AsRef<Path>) -> io::Result<FaultyFile> {
        let inner =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FaultyFile::wrap(inner))
    }

    /// Opens an existing file at `path`, read+write, faultable.
    ///
    /// # Errors
    ///
    /// Propagates the (real) open failure.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FaultyFile> {
        let inner = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(FaultyFile::wrap(inner))
    }

    /// Wraps an already-open handle.
    #[must_use]
    pub fn wrap(inner: File) -> FaultyFile {
        FaultyFile {
            inner,
            written: 0,
            write_budget: None,
            short_write_limit: None,
            refuse_fsync: false,
        }
    }

    /// Writes succeed for the first `bytes` bytes through this handle,
    /// then fail with [`io::ErrorKind::StorageFull`] — the `ENOSPC`
    /// model. A `write_all` spanning the boundary lands a torn prefix.
    #[must_use]
    pub fn fail_writes_after(mut self, bytes: u64) -> FaultyFile {
        self.write_budget = Some(bytes);
        self
    }

    /// Caps every `write` call at `max` bytes (minimum 1): callers that
    /// treat one `write` as atomic tear their records even without an
    /// error.
    #[must_use]
    pub fn short_writes(mut self, max: usize) -> FaultyFile {
        self.short_write_limit = Some(max.max(1));
        self
    }

    /// Makes `sync_data` fail with an I/O error while writes keep
    /// succeeding — data reaches the page cache but durability is
    /// refused.
    #[must_use]
    pub fn refuse_fsync(mut self) -> FaultyFile {
        self.refuse_fsync = true;
        self
    }

    /// Bytes successfully written through this handle so far.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.written
    }
}

impl Read for FaultyFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut allowed = buf.len();
        if let Some(budget) = self.write_budget {
            let remaining = budget.saturating_sub(self.written);
            if remaining == 0 && !buf.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected failure: disk full (write budget exhausted)",
                ));
            }
            allowed = allowed.min(usize::try_from(remaining).unwrap_or(usize::MAX));
        }
        if let Some(limit) = self.short_write_limit {
            allowed = allowed.min(limit);
        }
        let n = self.inner.write(&buf[..allowed])?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for FaultyFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl DiskFile for FaultyFile {
    fn sync_data(&mut self) -> io::Result<()> {
        if self.refuse_fsync {
            return Err(io::Error::other("injected failure: fsync refused by device"));
        }
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

/// An at-rest corruption of a closed file — the states a crash, an
/// append-retry, or a sick medium leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Chops `n` bytes off the end — the torn final write of a process
    /// killed mid-append.
    TruncateTailBytes(u64),
    /// Removes the last `n` newline-terminated lines (for line-oriented
    /// formats), keeping the file record-aligned.
    DropTailLines(usize),
    /// Appends a byte-identical copy of the last complete line — the
    /// duplicate an append-retry-after-crash produces.
    DuplicateTailLine,
    /// XORs the byte at `offset` with `mask` — bit rot in place. `mask`
    /// must be nonzero to change anything.
    FlipBits {
        /// Byte offset of the corruption.
        offset: u64,
        /// XOR mask applied to that byte.
        mask: u8,
    },
    /// Appends `len` bytes of seeded garbage — a wild write landing past
    /// the end of the real data.
    AppendGarbage {
        /// Number of garbage bytes.
        len: usize,
        /// Seed of the garbage stream (SplitMix64).
        seed: u64,
    },
}

/// Applies `fault` to the file at `path`.
///
/// # Errors
///
/// Propagates I/O failures; faults that need existing content to corrupt
/// ([`DiskFault::DuplicateTailLine`] on an empty file,
/// [`DiskFault::FlipBits`] past the end) report `InvalidInput`.
pub fn corrupt_file(path: &Path, fault: DiskFault) -> io::Result<()> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    match fault {
        DiskFault::TruncateTailBytes(n) => {
            let len = file.seek(SeekFrom::End(0))?;
            file.set_len(len.saturating_sub(n))?;
        }
        DiskFault::DropTailLines(n) => {
            let mut contents = String::new();
            file.read_to_string(&mut contents)?;
            // A "record" is a newline-terminated line; keep the first
            // `complete - n` of them so the file stays record-aligned.
            let boundaries: Vec<usize> = contents.match_indices('\n').map(|(i, _)| i + 1).collect();
            let keep_records = boundaries.len().saturating_sub(n);
            let keep_bytes = if keep_records == 0 { 0 } else { boundaries[keep_records - 1] };
            file.set_len(keep_bytes as u64)?;
        }
        DiskFault::DuplicateTailLine => {
            let mut contents = String::new();
            file.read_to_string(&mut contents)?;
            let trimmed = contents.trim_end_matches('\n');
            let last = trimmed.rfind('\n').map_or(trimmed, |i| &trimmed[i + 1..]);
            if last.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "file has no complete line to duplicate",
                ));
            }
            let mut line = last.to_owned();
            line.push('\n');
            file.seek(SeekFrom::End(0))?;
            file.write_all(line.as_bytes())?;
        }
        DiskFault::FlipBits { offset, mask } => {
            let len = file.seek(SeekFrom::End(0))?;
            if offset >= len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("flip offset {offset} is past the end ({len} bytes)"),
                ));
            }
            let mut byte = [0u8; 1];
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut byte)?;
            byte[0] ^= mask;
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(&byte)?;
        }
        DiskFault::AppendGarbage { len, seed } => {
            let mut rng = SplitMix64::new(seed);
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            file.seek(SeekFrom::End(0))?;
            file.write_all(&bytes)?;
        }
    }
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempfile(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ascend-faults-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.bin"))
    }

    #[test]
    fn unfaulted_file_behaves_like_a_file() {
        let path = tempfile("clean");
        let mut file = FaultyFile::create(&path).unwrap();
        file.write_all(b"hello").unwrap();
        DiskFile::sync_data(&mut file).unwrap();
        file.seek(SeekFrom::Start(0)).unwrap();
        let mut back = String::new();
        file.read_to_string(&mut back).unwrap();
        assert_eq!(back, "hello");
        assert_eq!(file.bytes_written(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_budget_tears_the_spanning_write() {
        let path = tempfile("enospc");
        let mut file = FaultyFile::create(&path).unwrap().fail_writes_after(8);
        let err = file.write_all(b"0123456789abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // The torn prefix reached the file: exactly the budget.
        assert_eq!(std::fs::read(&path).unwrap(), b"01234567");
        // Every later write fails immediately.
        assert!(file.write_all(b"x").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_writes_bound_each_call_without_erroring() {
        let path = tempfile("short");
        let mut file = FaultyFile::create(&path).unwrap().short_writes(3);
        assert_eq!(file.write(b"abcdefgh").unwrap(), 3);
        // write_all loops and still lands everything.
        file.write_all(b"ijk").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abcijk");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_refusal_fails_sync_but_not_writes() {
        let path = tempfile("fsync");
        let mut file = FaultyFile::create(&path).unwrap().refuse_fsync();
        file.write_all(b"data").unwrap();
        assert!(DiskFile::sync_data(&mut file).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn at_rest_faults_corrupt_as_described() {
        let path = tempfile("atrest");
        std::fs::write(&path, "aaaa\nbbbb\ncccc\n").unwrap();
        corrupt_file(&path, DiskFault::TruncateTailBytes(3)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "aaaa\nbbbb\ncc");
        std::fs::write(&path, "aaaa\nbbbb\ncccc\n").unwrap();
        corrupt_file(&path, DiskFault::DropTailLines(2)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "aaaa\n");
        std::fs::write(&path, "aaaa\nbbbb\n").unwrap();
        corrupt_file(&path, DiskFault::DuplicateTailLine).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "aaaa\nbbbb\nbbbb\n");
        corrupt_file(&path, DiskFault::FlipBits { offset: 0, mask: 0x01 }).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[0], b'a' ^ 0x01);
        let before = std::fs::read(&path).unwrap().len();
        corrupt_file(&path, DiskFault::AppendGarbage { len: 7, seed: 42 }).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), before + 7);
        // Determinism: the same seed appends the same garbage.
        let a = std::fs::read(&path).unwrap();
        corrupt_file(&path, DiskFault::AppendGarbage { len: 7, seed: 42 }).unwrap();
        let b = std::fs::read(&path).unwrap();
        assert_eq!(a[a.len() - 7..], b[b.len() - 7..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flip_past_end_is_invalid_input() {
        let path = tempfile("flip-oob");
        std::fs::write(&path, "ab").unwrap();
        let err = corrupt_file(&path, DiskFault::FlipBits { offset: 10, mask: 0xFF }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).ok();
    }
}
