//! The durable result store: a crash-consistent on-disk cache tier.
//!
//! The in-memory `ResultCache` dies with the process. This module is the
//! layer underneath it: an **append-only segment log** of digest-checked
//! records keyed by the same fingerprints the memory cache uses, built to
//! survive torn writes, bit rot, version skew and `kill -9`, and to
//! degrade gracefully under ENOSPC mid-record or a device refusing fsync.
//! It is also what makes a batch resumable: a pipeline that reopens the
//! store after a crash serves every finished item from disk.
//!
//! # On-disk format
//!
//! ```text
//! header   := "ASTR" | version u16 LE | context u64 LE          (14 bytes)
//! record   := len u32 LE | fingerprint u64 LE | digest u64 LE | payload
//! digest   := FNV-1a( fingerprint LE bytes ‖ payload )
//! ```
//!
//! The header pins the format version (readers refuse **newer** versions,
//! exactly like the sandbox wire protocol) and the pipeline's context
//! fingerprint, so a store built for one (chip, thresholds) pair is never
//! consulted for another. The record digest covers the key as well as the
//! payload: a bit flip in either is detected, not served.
//!
//! # Recovery
//!
//! Opening a store scans the log once and rebuilds the in-memory
//! fingerprint→offset index. The scan:
//!
//! * **truncates torn tails** — a record cut mid-write (the crash case)
//!   is chopped off, so the next append starts on a record boundary;
//! * **skips digest-invalid records** — counted in
//!   [`StoreStats::corrupt_dropped`], never indexed, never served; when
//!   the *length framing itself* is untrustworthy (length beyond the
//!   cap or past EOF), everything from that point on is truncated;
//! * applies **last-wins** — a fingerprint appended twice resolves to the
//!   later valid record, so overwrites need no in-place mutation.
//!
//! [`ResultStore::verify`] runs the same header check and record scan
//! read-only; the two differ only in which counts they report. One
//! segment mutex guards the file, the index and the quarantine set, and
//! every record is framed by one encoder and written by one append.
//!
//! # Degradation
//!
//! The store is a cache, not a source of truth: every record can be
//! recomputed. So **no store I/O error ever propagates to a request**.
//! Any failure — ENOSPC, permission, fsync refusal, corruption mid-run —
//! increments [`StoreStats::io_errors`], flips the store into a disabled
//! state for the rest of the run, and lets recomputation serve the
//! request. Callers observe the degradation through
//! [`stats`](ResultStore::stats), never through an `Err`.
//!
//! # Compaction
//!
//! Last-wins appends accumulate dead bytes. Once the log exceeds
//! [`StoreConfig::compact_at_bytes`] **and** the dead fraction exceeds
//! [`StoreConfig::compact_min_dead_fraction`], the live records are
//! rewritten to a fresh sibling file, fsync'd, and atomically renamed
//! over the old segment — a crash at any point leaves either the old
//! valid segment or the new valid segment, never a mix.

use crate::digest::Fnv64;
use crate::lock;
use ascend_faults::DiskFile;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// First bytes of every store segment.
pub const STORE_MAGIC: [u8; 4] = *b"ASTR";

/// Current store format version. Readers refuse anything newer: an old
/// binary must never misparse (or silently clobber) a segment written by
/// a newer one.
pub const STORE_VERSION: u16 = 1;

/// Segment header length: magic (4) + version (2) + context (8).
const HEADER_LEN: usize = 14;

/// Record header length: payload length (4) + fingerprint (8) + digest (8).
const RECORD_HEADER_LEN: usize = 20;

/// Upper bound on a record payload — mirrors the sandbox's frame cap. A
/// length field above this is corruption, not a record.
pub const MAX_RECORD_BYTES: u64 = 64 * 1024 * 1024;

/// Payload of a quarantine tombstone. A normal payload is a JSON object
/// (first byte `{`), so this marker can never collide with real data; it
/// rides the ordinary record framing (digest-checked, last-wins
/// position) without a format-version bump, so older readers skip it as
/// an undecodable-but-valid record instead of misparsing the segment.
const TOMBSTONE_PAYLOAD: &[u8] = b"\x00ASTR-TOMBSTONE\x00";

/// When the store fsyncs appended records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `sync_data` after every `n` appended records (minimum 1). The
    /// default, `EveryN(1)`, makes every completed `put` durable before
    /// it returns.
    EveryN(u32),
    /// Only sync on explicit [`flush`](ResultStore::flush) (and drain).
    /// Faster, but a crash can lose everything since the last flush.
    OnFlush,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(1)
    }
}

/// Tuning for a [`ResultStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Durability policy for appended records.
    pub fsync: FsyncPolicy,
    /// Compaction is considered once the segment grows past this size.
    pub compact_at_bytes: u64,
    /// ... and runs only when at least this fraction of the segment's
    /// record bytes is dead (superseded or corrupt).
    pub compact_min_dead_fraction: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: FsyncPolicy::default(),
            compact_at_bytes: 8 * 1024 * 1024,
            compact_min_dead_fraction: 0.5,
        }
    }
}

/// Counters of the disk tier, shaped like [`CacheStats`](crate::CacheStats)
/// but with the recovery/corruption story the memory tier cannot have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Entries recovered by the open-time scan.
    pub recovered: u64,
    /// Records dropped because their digest (or a higher layer's decode)
    /// said they were corrupt — at open or at read time. Never served.
    pub corrupt_dropped: u64,
    /// Bytes truncated as torn/unframeable tails at open.
    pub torn_bytes: u64,
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found nothing usable on disk.
    pub misses: u64,
    /// Records appended this run.
    pub appends: u64,
    /// Compactions completed this run.
    pub compactions: u64,
    /// I/O errors absorbed (each one also disables the tier).
    pub io_errors: u64,
    /// Whether the tier is currently disabled (degraded to recomputation).
    pub disabled: bool,
    /// Fingerprints barred by a quarantine tombstone: never indexed,
    /// never served, never re-persisted (see
    /// [`quarantine`](ResultStore::quarantine)).
    #[serde(default)]
    pub quarantined: u64,
}

/// Why a store could not be opened. Unlike run-time I/O (which degrades
/// silently), open-time refusal is loud: consulting the wrong store would
/// be a correctness bug, not a performance one.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying open/read/write failed.
    Io(io::Error),
    /// The file exists but does not start with the `ASTR` magic.
    NotAStore,
    /// The segment was written by a newer format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Newest version this build understands.
        supported: u16,
    },
    /// The segment belongs to a different (chip, thresholds) context.
    ContextMismatch {
        /// Context fingerprint in the header.
        found: u64,
        /// Context fingerprint of the opening pipeline.
        expected: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store I/O error: {err}"),
            StoreError::NotAStore => write!(f, "file is not a result store (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} is newer than supported version {supported}"
            ),
            StoreError::ContextMismatch { found, expected } => write!(
                f,
                "store context {found:#018x} does not match pipeline context {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// Where a live record sits in the segment.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Offset of the record header from the start of the file.
    offset: u64,
    /// Payload length.
    len: u32,
    /// Record digest, re-checked on every read.
    digest: u64,
}

impl IndexEntry {
    /// Total on-disk footprint of the record.
    fn total_len(self) -> u64 {
        RECORD_HEADER_LEN as u64 + u64::from(self.len)
    }
}

/// The segment file and everything derived from its records, behind one
/// mutex. Lock order across the store is **segment → stats**; never
/// acquire them in the other order.
struct Segment {
    file: Box<dyn DiskFile>,
    /// Current logical end of the segment (next append offset).
    end: u64,
    /// Appends since the last successful `sync_data`.
    unsynced: u32,
    /// Record bytes superseded or dropped — compaction's fuel gauge.
    dead_bytes: u64,
    /// Live records: fingerprint → where its newest valid record sits.
    index: HashMap<u64, IndexEntry>,
    /// Fingerprints barred by a quarantine tombstone. Populated by the
    /// open-time scan and by [`quarantine`](ResultStore::quarantine);
    /// [`put`](ResultStore::put) refuses these forever.
    quarantined: HashSet<u64>,
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("end", &self.end)
            .field("unsynced", &self.unsynced)
            .field("dead_bytes", &self.dead_bytes)
            .finish_non_exhaustive()
    }
}

/// The append-only, digest-checked, crash-recovering disk cache tier.
/// See the [module docs](self) for format, recovery, and degradation
/// rules.
#[derive(Debug)]
pub struct ResultStore {
    /// Backing path; `None` for injected in-test files (which then never
    /// compact — compaction needs a sibling path to rename over).
    path: Option<PathBuf>,
    context: u64,
    config: StoreConfig,
    segment: Mutex<Segment>,
    stats: Mutex<StoreStats>,
    /// Once true, every operation is a no-op: the tier has degraded to
    /// pure recomputation for the rest of the run.
    disabled: AtomicBool,
}

/// FNV-1a over the fingerprint (LE bytes) followed by the payload — the
/// record digest. Covering the key means a flipped fingerprint byte can
/// never serve one entry's payload under another's key.
fn record_digest(fingerprint: u64, payload: &[u8]) -> u64 {
    let mut hasher = Fnv64::new();
    hasher.write_u64(fingerprint);
    hasher.write(payload);
    hasher.finish()
}

/// Frames one record: `len | fingerprint | digest | payload`. The only
/// writer of the record framing.
fn encode_record(fingerprint: u64, digest: u64, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("payloads are bounded by MAX_RECORD_BYTES");
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    record.extend_from_slice(&len.to_le_bytes());
    record.extend_from_slice(&fingerprint.to_le_bytes());
    record.extend_from_slice(&digest.to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// A fully framed quarantine tombstone record for `fingerprint`.
fn tombstone_record(fingerprint: u64) -> Vec<u8> {
    encode_record(fingerprint, record_digest(fingerprint, TOMBSTONE_PAYLOAD), TOMBSTONE_PAYLOAD)
}

fn header_bytes(context: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&STORE_MAGIC);
    header[4..6].copy_from_slice(&STORE_VERSION.to_le_bytes());
    header[6..14].copy_from_slice(&context.to_le_bytes());
    header
}

/// Checks a segment's first `min(file length, HEADER_LEN)` bytes: the
/// magic must match and the version must not be newer than this build's.
/// Returns the header's version and context, or `None` for a header torn
/// at creation (a magic-prefixed stub shorter than a header).
fn read_header(prefix: &[u8]) -> Result<Option<(u16, u64)>, StoreError> {
    let magic_len = prefix.len().min(STORE_MAGIC.len());
    if prefix[..magic_len] != STORE_MAGIC[..magic_len] {
        return Err(StoreError::NotAStore);
    }
    if prefix.len() < HEADER_LEN {
        return Ok(None);
    }
    let version = u16::from_le_bytes([prefix[4], prefix[5]]);
    if version > STORE_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: STORE_VERSION });
    }
    let context = u64::from_le_bytes(prefix[6..14].try_into().expect("8 bytes"));
    Ok(Some((version, context)))
}

/// What one pass over a segment's record region found. Opening and
/// [`ResultStore::verify`] run the same scan and differ only in which
/// counts they read.
#[derive(Debug, Default)]
struct SegmentScan {
    /// Live records after the last-wins and quarantine rules.
    index: HashMap<u64, IndexEntry>,
    /// Fingerprints barred by a tombstone.
    quarantined: HashSet<u64>,
    /// Bytes of every record that is not live or a first tombstone.
    dead_bytes: u64,
    /// File offset where the framed records end (the next append).
    end: u64,
    /// The record counts `verify` reports (header fields left zero).
    report: StoreVerifyReport,
}

/// Walks the record region `body` (the segment after its header) record
/// by record, following the length framing until it ends or can no
/// longer be trusted.
fn scan_records(body: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan::default();
    let mut pos: usize = 0;
    while pos < body.len() {
        if pos + RECORD_HEADER_LEN > body.len() {
            // Torn record header.
            scan.report.torn_bytes = (body.len() - pos) as u64;
            break;
        }
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len as u64 > MAX_RECORD_BYTES || pos + RECORD_HEADER_LEN + len > body.len() {
            // Either the length field is corrupt or the payload runs
            // past EOF. We cannot distinguish "torn final record" from
            // "corrupt framing" here, and framing is the only thing
            // letting us skip forward — so stop trusting the file from
            // this point.
            scan.report.torn_bytes = (body.len() - pos) as u64;
            break;
        }
        let fingerprint = u64::from_le_bytes(body[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let digest = u64::from_le_bytes(body[pos + 12..pos + 20].try_into().expect("8 bytes"));
        let payload = &body[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
        let record_len = (RECORD_HEADER_LEN + len) as u64;
        if record_digest(fingerprint, payload) != digest {
            // Digest-invalid: counted, skipped via the (trusted)
            // framing, never indexed.
            scan.report.digest_invalid += 1;
            scan.dead_bytes += record_len;
        } else if payload == TOMBSTONE_PAYLOAD {
            // Quarantine tombstone: whatever was recovered for this
            // fingerprint is dead, and nothing later may resurrect it.
            // The first tombstone stays live metadata (compaction
            // rewrites it); a duplicate is dead weight.
            if let Some(old) = scan.index.remove(&fingerprint) {
                scan.report.superseded += 1;
                scan.dead_bytes += old.total_len();
            }
            if !scan.quarantined.insert(fingerprint) {
                scan.dead_bytes += record_len;
            }
        } else if scan.quarantined.contains(&fingerprint) {
            // A record appended after its quarantine tombstone (a
            // hostile or pre-quarantine writer): never indexed, never
            // served.
            scan.report.resurrected += 1;
            scan.dead_bytes += record_len;
        } else {
            let entry = IndexEntry { offset: (HEADER_LEN + pos) as u64, len: len as u32, digest };
            if let Some(old) = scan.index.insert(fingerprint, entry) {
                // Last-wins: the superseded record is dead weight.
                scan.report.superseded += 1;
                scan.dead_bytes += old.total_len();
            }
        }
        pos += RECORD_HEADER_LEN + len;
    }
    scan.end = (HEADER_LEN + pos) as u64;
    scan.report.live = scan.index.len() as u64;
    scan.report.tombstones = scan.quarantined.len() as u64;
    scan
}

impl ResultStore {
    /// Opens (or creates) the store at `path` for `context`, with the
    /// default [`StoreConfig`]. Existing contents are recovered by the
    /// scan described in the [module docs](self).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAStore`] for a file without the magic,
    /// [`StoreError::UnsupportedVersion`] for a newer format,
    /// [`StoreError::ContextMismatch`] for another pipeline's store, and
    /// [`StoreError::Io`] when the open/scan itself fails.
    pub fn open(path: impl AsRef<Path>, context: u64) -> Result<ResultStore, StoreError> {
        ResultStore::open_with_config(path, context, StoreConfig::default())
    }

    /// [`open`](ResultStore::open) with an explicit [`StoreConfig`].
    ///
    /// # Errors
    ///
    /// As [`open`](ResultStore::open).
    pub fn open_with_config(
        path: impl AsRef<Path>,
        context: u64,
        config: StoreConfig,
    ) -> Result<ResultStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(StoreError::Io)?;
            }
        }
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        ResultStore::open_inner(Some(path), Box::new(file), context, config)
    }

    /// Opens a store over an already-open [`DiskFile`] — the seam the
    /// fault-injection tests use to put a
    /// [`FaultyFile`](ascend_faults::FaultyFile) underneath a live store.
    /// Path-less stores never compact (there is no sibling to rename
    /// over); everything else behaves identically.
    ///
    /// # Errors
    ///
    /// As [`open`](ResultStore::open).
    pub fn open_with_file(
        file: Box<dyn DiskFile>,
        context: u64,
        config: StoreConfig,
    ) -> Result<ResultStore, StoreError> {
        ResultStore::open_inner(None, file, context, config)
    }

    fn open_inner(
        path: Option<PathBuf>,
        mut file: Box<dyn DiskFile>,
        context: u64,
        config: StoreConfig,
    ) -> Result<ResultStore, StoreError> {
        let file_len = file.seek(SeekFrom::End(0))?;
        let expected_header = header_bytes(context);
        let mut prefix = vec![0u8; file_len.min(HEADER_LEN as u64) as usize];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut prefix)?;
        let mut stats = StoreStats::default();

        let scan = match read_header(&prefix)? {
            None => {
                // Empty, or a header torn by a crash during creation. A
                // torn header is recoverable only if what *is* there
                // matches the header we would write — anything else is
                // another file.
                if prefix != expected_header[..prefix.len()] {
                    return Err(StoreError::NotAStore);
                }
                stats.torn_bytes = file_len;
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&expected_header)?;
                file.sync_data()?;
                SegmentScan { end: HEADER_LEN as u64, ..SegmentScan::default() }
            }
            Some((_, found)) if found != context => {
                return Err(StoreError::ContextMismatch { found, expected: context });
            }
            Some(_) => {
                // Recovery scan: one pass over the record region,
                // rebuilding the index. Read into memory once — segments
                // are compaction-bounded.
                let body_len = usize::try_from(file_len - HEADER_LEN as u64)
                    .map_err(|_| StoreError::Io(io::Error::other("store too large to scan")))?;
                let mut body = vec![0u8; body_len];
                file.read_exact(&mut body)?;
                let scan = scan_records(&body);
                if scan.end < file_len {
                    // Physically truncate the untrusted tail, so the
                    // next append starts on a record boundary.
                    file.set_len(scan.end)?;
                    file.sync_data()?;
                }
                stats.recovered = scan.report.live;
                stats.corrupt_dropped = scan.report.digest_invalid;
                stats.torn_bytes = scan.report.torn_bytes;
                scan
            }
        };

        let segment = Segment {
            file,
            end: scan.end,
            unsynced: 0,
            dead_bytes: scan.dead_bytes,
            index: scan.index,
            quarantined: scan.quarantined,
        };
        Ok(ResultStore {
            path,
            context,
            config,
            segment: Mutex::new(segment),
            stats: Mutex::new(stats),
            disabled: AtomicBool::new(false),
        })
    }

    /// The context fingerprint this store was opened for.
    #[must_use]
    pub fn context(&self) -> u64 {
        self.context
    }

    /// The backing path (`None` for injected test files).
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of live (indexed) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.segment).index.len()
    }

    /// Whether the store holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the tier has degraded to a no-op for this run.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Acquire)
    }

    /// Current counters (the `disabled` flag and the `quarantined`
    /// count reflect live state).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let quarantined = lock(&self.segment).quarantined.len() as u64;
        let mut stats = *lock(&self.stats);
        stats.disabled = self.is_disabled();
        stats.quarantined = quarantined;
        stats
    }

    /// Absorbs an I/O error: count it, disable the tier, carry on. The
    /// store is a cache — recomputation always serves what disk cannot.
    fn degrade(&self, context: &str, err: &io::Error) {
        let mut stats = lock(&self.stats);
        stats.io_errors += 1;
        stats.disabled = true;
        drop(stats);
        let first = !self.disabled.swap(true, Ordering::AcqRel);
        if first {
            eprintln!("[store] warning: {context} failed ({err}); disk tier disabled for this run");
        }
    }

    /// Looks up `fingerprint`, returning the payload bytes of the newest
    /// digest-valid record. The digest is re-verified on every read: a
    /// record that rotted since open is dropped (counted in
    /// [`StoreStats::corrupt_dropped`]) and reported as a miss, never
    /// served. I/O errors degrade the tier and report a miss.
    #[must_use]
    pub fn get(&self, fingerprint: u64) -> Option<Vec<u8>> {
        if self.is_disabled() {
            return None;
        }
        let mut segment = lock(&self.segment);
        let entry = segment.index.get(&fingerprint).copied();
        let found =
            entry.and_then(|entry| match read_record(segment.file.as_mut(), fingerprint, entry) {
                Ok(Some(payload)) => Some(payload),
                Ok(None) => {
                    // Bit rot since open: drop the entry, recompute upstream.
                    segment.index.remove(&fingerprint);
                    segment.dead_bytes += entry.total_len();
                    lock(&self.stats).corrupt_dropped += 1;
                    None
                }
                Err(err) => {
                    self.degrade("read", &err);
                    None
                }
            });
        drop(segment);
        let mut stats = lock(&self.stats);
        if found.is_some() {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        found
    }

    /// Appends a record for `fingerprint`, fsyncing per the configured
    /// [`FsyncPolicy`], superseding any earlier record (last-wins), and
    /// compacting when the thresholds say so. Infallible by design:
    /// errors degrade the tier (a torn partial append is rolled back
    /// best-effort; recovery truncates it otherwise), oversized payloads
    /// are skipped, and [quarantined](ResultStore::quarantine)
    /// fingerprints are refused forever.
    pub fn put(&self, fingerprint: u64, payload: &[u8]) {
        if self.is_disabled() || payload.len() as u64 > MAX_RECORD_BYTES {
            return;
        }
        let digest = record_digest(fingerprint, payload);
        let record = encode_record(fingerprint, digest, payload);
        let mut segment = lock(&self.segment);
        // Checked under the segment lock so a concurrent quarantine
        // cannot interleave between the check and the append.
        if segment.quarantined.contains(&fingerprint) {
            return;
        }
        let Some(offset) = self.append(&mut segment, &record, false) else { return };
        let entry = IndexEntry { offset, len: payload.len() as u32, digest };
        if let Some(old) = segment.index.insert(fingerprint, entry) {
            segment.dead_bytes += old.total_len();
        }
        lock(&self.stats).appends += 1;
        self.maybe_compact(segment);
    }

    /// Appends one framed record at the segment's end and syncs it: a
    /// tombstone always (it is a correctness marker, not a cache entry),
    /// an ordinary record per the [`FsyncPolicy`]. A failed write is
    /// rolled back so the in-file tail stays record-aligned (if even that
    /// fails, the open-time scan truncates it at the next run); any
    /// failure degrades the tier and returns `None`. Returns the record's
    /// offset.
    fn append(&self, segment: &mut Segment, record: &[u8], tombstone: bool) -> Option<u64> {
        let (append_failed, fsync_failed) =
            if tombstone { ("tombstone append", "tombstone fsync") } else { ("append", "fsync") };
        let offset = segment.end;
        let wrote =
            segment.file.seek(SeekFrom::Start(offset)).and_then(|_| segment.file.write_all(record));
        if let Err(err) = wrote {
            let _ = segment.file.set_len(offset);
            self.degrade(append_failed, &err);
            return None;
        }
        segment.end = offset + record.len() as u64;
        segment.unsynced += 1;
        let sync_now = tombstone
            || match self.config.fsync {
                FsyncPolicy::EveryN(n) => segment.unsynced >= n.max(1),
                FsyncPolicy::OnFlush => false,
            };
        if sync_now {
            if let Err(err) = segment.file.sync_data() {
                self.degrade(fsync_failed, &err);
                return None;
            }
            segment.unsynced = 0;
        }
        Some(offset)
    }

    /// Syncs any unsynced appends to the device (the drain-time hook for
    /// [`FsyncPolicy::OnFlush`] stores). Errors degrade, as always.
    pub fn flush(&self) {
        if self.is_disabled() {
            return;
        }
        let mut segment = lock(&self.segment);
        if segment.unsynced == 0 {
            return;
        }
        match segment.file.sync_data() {
            Ok(()) => segment.unsynced = 0,
            Err(err) => self.degrade("flush", &err),
        }
    }

    /// Drops an entry whose payload the *caller* found unusable (e.g. it
    /// failed to deserialize despite a valid digest — format drift). The
    /// record is counted as corrupt and its earlier hit uncounted, so
    /// `hits` keeps meaning "results actually served".
    pub fn discard(&self, fingerprint: u64) {
        let mut segment = lock(&self.segment);
        if let Some(entry) = segment.index.remove(&fingerprint) {
            segment.dead_bytes += entry.total_len();
            drop(segment);
            let mut stats = lock(&self.stats);
            stats.corrupt_dropped += 1;
            stats.hits = stats.hits.saturating_sub(1);
            stats.misses += 1;
        }
    }

    /// Whether `fingerprint` is barred by a quarantine tombstone.
    #[must_use]
    pub fn is_quarantined(&self, fingerprint: u64) -> bool {
        lock(&self.segment).quarantined.contains(&fingerprint)
    }

    /// Quarantines `fingerprint`: the live record (if any) is dropped
    /// from the index, a tombstone is appended and fsynced so recovery
    /// never resurrects an earlier record, and every future
    /// [`put`](ResultStore::put) of this fingerprint is refused.
    ///
    /// This is the audit tier's disk-side purge for a fingerprint whose
    /// served result diverged from the oracle: the defective bytes must
    /// not survive a restart. The in-memory bar takes effect even when
    /// the tier is disabled (or the tombstone append fails and degrades
    /// it) — durability of the bar is then best-effort, like every other
    /// write on a failing device.
    pub fn quarantine(&self, fingerprint: u64) {
        let mut segment = lock(&self.segment);
        if !segment.quarantined.insert(fingerprint) {
            return;
        }
        if let Some(old) = segment.index.remove(&fingerprint) {
            segment.dead_bytes += old.total_len();
        }
        if !self.is_disabled() {
            self.append(&mut segment, &tombstone_record(fingerprint), true);
        }
    }

    /// Compacts when the segment is both big and mostly dead. Takes the
    /// held segment lock by value so callers cannot accidentally re-lock.
    fn maybe_compact(&self, mut segment: MutexGuard<'_, Segment>) {
        if self.path.is_none() || segment.end < self.config.compact_at_bytes {
            return;
        }
        let record_bytes = segment.end - HEADER_LEN as u64;
        if record_bytes == 0 {
            return;
        }
        let dead_fraction = segment.dead_bytes as f64 / record_bytes as f64;
        if dead_fraction < self.config.compact_min_dead_fraction {
            return;
        }
        match self.compact_locked(&mut segment) {
            Ok(()) => lock(&self.stats).compactions += 1,
            // The old segment is still intact and valid; disabling
            // anyway keeps the degradation rule uniform: one I/O error,
            // tier off, recomputation takes over.
            Err(err) => self.degrade("compaction", &err),
        }
    }

    /// Rewrites the live records (in append order) to a fresh sibling
    /// segment — followed by one tombstone per quarantined fingerprint,
    /// so the bar survives compaction — fsyncs it, and atomically
    /// renames it over the old one.
    fn compact_locked(&self, segment: &mut Segment) -> io::Result<()> {
        let path = self.path.as_ref().expect("compaction requires a backing path");
        let tmp_path = path.with_extension("compact-tmp");

        let mut live: Vec<(u64, IndexEntry)> =
            segment.index.iter().map(|(k, v)| (*k, *v)).collect();
        live.sort_by_key(|(_, entry)| entry.offset);

        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&header_bytes(self.context))?;

        let mut new_index = HashMap::with_capacity(live.len());
        let mut pos = HEADER_LEN as u64;
        for (fingerprint, entry) in live {
            let payload =
                read_record(segment.file.as_mut(), fingerprint, entry)?.ok_or_else(|| {
                    io::Error::other("record failed digest verification during compaction")
                })?;
            tmp.write_all(&encode_record(fingerprint, entry.digest, &payload))?;
            new_index.insert(fingerprint, IndexEntry { offset: pos, ..entry });
            pos += entry.total_len();
        }
        let mut barred: Vec<u64> = segment.quarantined.iter().copied().collect();
        barred.sort_unstable();
        for fingerprint in barred {
            let record = tombstone_record(fingerprint);
            tmp.write_all(&record)?;
            pos += record.len() as u64;
        }
        tmp.sync_data()?;
        drop(tmp);
        std::fs::rename(&tmp_path, path)?;

        let file = OpenOptions::new().read(true).write(true).open(path)?;
        segment.file = Box::new(file);
        segment.end = pos;
        segment.unsynced = 0;
        segment.dead_bytes = 0;
        segment.index = new_index;
        Ok(())
    }
}

/// What an offline [`ResultStore::verify`] scan found in a segment.
///
/// The scan is read-only and never mutates the file — unlike opening,
/// which truncates torn tails. It is the ops tool behind
/// `bench store verify`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreVerifyReport {
    /// Format version from the header.
    pub version: u16,
    /// Context fingerprint from the header. The scan cannot know which
    /// pipeline *should* own the segment — compare against an expected
    /// context to detect a foreign store.
    pub context: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Live (servable) records after last-wins and quarantine rules.
    pub live: u64,
    /// Valid records superseded by a later record or tombstone.
    pub superseded: u64,
    /// Records whose digest does not match their bytes.
    pub digest_invalid: u64,
    /// Unframeable tail bytes (torn final record or corrupt framing).
    pub torn_bytes: u64,
    /// Quarantine tombstones (distinct barred fingerprints).
    pub tombstones: u64,
    /// Valid records appended *after* their fingerprint's tombstone —
    /// a quarantine violation no compliant writer produces.
    pub resurrected: u64,
}

impl StoreVerifyReport {
    /// Whether the segment is fully intact: no corruption, no torn
    /// bytes, no quarantine violations. Superseded records and
    /// tombstones are normal operation, not damage.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.digest_invalid == 0 && self.torn_bytes == 0 && self.resurrected == 0
    }
}

impl fmt::Display for StoreVerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "version {} context {:#018x}: {} bytes, {} live, {} superseded, \
             {} digest-invalid, {} torn bytes, {} tombstones, {} resurrected — {}",
            self.version,
            self.context,
            self.file_bytes,
            self.live,
            self.superseded,
            self.digest_invalid,
            self.torn_bytes,
            self.tombstones,
            self.resurrected,
            if self.is_clean() { "clean" } else { "CORRUPT" },
        )
    }
}

impl ResultStore {
    /// Scans the segment at `path` **read-only** and reports what a
    /// recovery would find: torn bytes, digest-invalid records,
    /// superseded records, quarantine tombstones, and quarantine
    /// violations. Nothing is truncated or repaired; run it on a live
    /// segment, a backup, or a foreign file safely.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read,
    /// [`StoreError::NotAStore`] when the magic is wrong, and
    /// [`StoreError::UnsupportedVersion`] for a newer format. A torn
    /// header (shorter than [`HEADER_LEN`] bytes but magic-prefixed) is
    /// reported as torn bytes, not an error — recovery would
    /// reinitialize it.
    pub fn verify(path: impl AsRef<Path>) -> Result<StoreVerifyReport, StoreError> {
        let bytes = std::fs::read(path.as_ref())?;
        let file_bytes = bytes.len() as u64;
        let Some((version, context)) = read_header(&bytes[..bytes.len().min(HEADER_LEN)])? else {
            return Ok(StoreVerifyReport {
                file_bytes,
                torn_bytes: file_bytes,
                ..Default::default()
            });
        };
        let scan = scan_records(&bytes[HEADER_LEN..]);
        Ok(StoreVerifyReport { version, context, file_bytes, ..scan.report })
    }
}

/// Reads and fully re-verifies one record: header fields must match the
/// index entry and the digest must match the payload. `Ok(None)` means
/// the bytes on disk no longer agree with what was indexed — corruption,
/// not an I/O failure.
fn read_record(
    file: &mut dyn DiskFile,
    fingerprint: u64,
    entry: IndexEntry,
) -> io::Result<Option<Vec<u8>>> {
    file.seek(SeekFrom::Start(entry.offset))?;
    let mut header = [0u8; RECORD_HEADER_LEN];
    file.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let disk_fingerprint = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    let disk_digest = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    if len != entry.len || disk_fingerprint != fingerprint || disk_digest != entry.digest {
        return Ok(None);
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload)?;
    if record_digest(fingerprint, &payload) != entry.digest {
        return Ok(None);
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_faults::{corrupt_file, DiskFault, FaultyFile};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ascend-store-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CTX: u64 = 0xDEAD_BEEF_CAFE_F00D;

    #[test]
    fn roundtrip_and_reopen_recovers_everything() {
        let dir = tempdir("roundtrip");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.put(1, b"one");
            store.put(2, b"two");
            assert_eq!(store.get(1).as_deref(), Some(&b"one"[..]));
            assert_eq!(store.stats().appends, 2);
            assert_eq!(store.stats().hits, 1);
        }
        let store = ResultStore::open(&path, CTX).unwrap();
        assert_eq!(store.stats().recovered, 2);
        assert_eq!(store.get(2).as_deref(), Some(&b"two"[..]));
        assert_eq!(store.get(3), None);
        assert_eq!(store.stats().misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn last_wins_on_duplicate_fingerprints() {
        let dir = tempdir("lastwins");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.put(7, b"old");
            store.put(7, b"new");
            assert_eq!(store.get(7).as_deref(), Some(&b"new"[..]));
            assert_eq!(store.len(), 1);
        }
        let store = ResultStore::open(&path, CTX).unwrap();
        assert_eq!(store.stats().recovered, 1);
        assert_eq!(store.get(7).as_deref(), Some(&b"new"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = tempdir("torn");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.put(1, b"complete");
            store.put(2, b"will be torn");
        }
        corrupt_file(&path, DiskFault::TruncateTailBytes(5)).unwrap();
        let store = ResultStore::open(&path, CTX).unwrap();
        let stats = store.stats();
        assert_eq!(stats.recovered, 1, "only the complete record survives");
        assert!(stats.torn_bytes > 0);
        assert_eq!(store.get(1).as_deref(), Some(&b"complete"[..]));
        assert_eq!(store.get(2), None);
        // The truncation is physical: reopening again finds no new tears.
        drop(store);
        let again = ResultStore::open(&path, CTX).unwrap();
        assert_eq!(again.stats().torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_rot_is_dropped_not_served() {
        let dir = tempdir("bitrot");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.put(1, b"aaaa");
            store.put(2, b"bbbb");
        }
        // Flip one payload bit of the first record: header 14 + record
        // header 20 puts its payload at offset 34.
        corrupt_file(&path, DiskFault::FlipBits { offset: 34, mask: 0x40 }).unwrap();
        let store = ResultStore::open(&path, CTX).unwrap();
        let stats = store.stats();
        assert_eq!(stats.corrupt_dropped, 1);
        assert_eq!(stats.recovered, 1, "the later record still recovers via framing");
        assert_eq!(store.get(1), None, "rotted record must never be served");
        assert_eq!(store.get(2).as_deref(), Some(&b"bbbb"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rot_after_open_is_caught_at_read_time() {
        let dir = tempdir("liverot");
        let path = dir.join("store.astr");
        let store = ResultStore::open(&path, CTX).unwrap();
        store.put(9, b"payload");
        // Corrupt behind the live store's back, then read through it.
        corrupt_file(&path, DiskFault::FlipBits { offset: 36, mask: 0x01 }).unwrap();
        assert_eq!(store.get(9), None);
        let stats = store.stats();
        assert_eq!(stats.corrupt_dropped, 1);
        assert_eq!(stats.hits, 0);
        assert!(!stats.disabled, "corruption is not an I/O error");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refuses_foreign_newer_and_mismatched_stores() {
        let dir = tempdir("refuse");
        let not_a_store = dir.join("not.astr");
        std::fs::write(&not_a_store, b"this is sixteen+").unwrap();
        assert!(matches!(ResultStore::open(&not_a_store, CTX), Err(StoreError::NotAStore)));

        let newer = dir.join("newer.astr");
        let mut header = header_bytes(CTX);
        header[4..6].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        std::fs::write(&newer, header).unwrap();
        assert!(matches!(
            ResultStore::open(&newer, CTX),
            Err(StoreError::UnsupportedVersion { found, supported })
                if found == STORE_VERSION + 1 && supported == STORE_VERSION
        ));

        let other = dir.join("other.astr");
        ResultStore::open(&other, CTX ^ 1).unwrap();
        assert!(matches!(
            ResultStore::open(&other, CTX),
            Err(StoreError::ContextMismatch { found, expected })
                if found == (CTX ^ 1) && expected == CTX
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_from_creation_crash_is_reinitialized() {
        let dir = tempdir("tornheader");
        let path = dir.join("store.astr");
        std::fs::write(&path, &header_bytes(CTX)[..6]).unwrap();
        let store = ResultStore::open(&path, CTX).unwrap();
        assert_eq!(store.stats().torn_bytes, 6);
        store.put(1, b"fresh");
        drop(store);
        assert_eq!(ResultStore::open(&path, CTX).unwrap().stats().recovered, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_length_framing_truncates_the_rest() {
        let dir = tempdir("badlen");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.put(1, b"good");
            store.put(2, b"also good");
        }
        // Blow up the second record's length field (offset 14 + 20 + 4).
        corrupt_file(&path, DiskFault::FlipBits { offset: 38 + 3, mask: 0x80 }).unwrap();
        let store = ResultStore::open(&path, CTX).unwrap();
        let stats = store.stats();
        assert_eq!(stats.recovered, 1);
        assert!(stats.torn_bytes > 0, "untrustworthy framing truncates from there");
        assert_eq!(store.get(1).as_deref(), Some(&b"good"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_mid_append_degrades_and_rolls_back() {
        let dir = tempdir("enospc");
        let path = dir.join("store.astr");
        // Budget: header (14) + first record (20 + 4) + 10 bytes of the
        // second — the second append tears mid-record.
        let file = FaultyFile::create(&path).unwrap().fail_writes_after(14 + 24 + 10);
        let store =
            ResultStore::open_with_file(Box::new(file), CTX, StoreConfig::default()).unwrap();
        store.put(1, b"aaaa");
        assert!(!store.is_disabled());
        store.put(2, b"bbbb");
        let stats = store.stats();
        assert!(stats.disabled, "ENOSPC must disable the tier");
        assert_eq!(stats.io_errors, 1);
        assert_eq!(stats.appends, 1);
        // Disabled tier answers nothing and accepts nothing, quietly.
        assert_eq!(store.get(1), None);
        store.put(3, b"cccc");
        assert_eq!(store.stats().appends, 1);
        // The torn second record was rolled back (or will be truncated at
        // reopen): recovery sees exactly the one durable record.
        drop(store);
        let reopened = ResultStore::open(&path, CTX).unwrap();
        assert_eq!(reopened.stats().recovered, 1);
        assert_eq!(reopened.get(1).as_deref(), Some(&b"aaaa"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_refusal_degrades_without_failing_the_caller() {
        let dir = tempdir("fsyncrefusal");
        let path = dir.join("store.astr");
        // The header sync happens before the refusal knob matters only if
        // we enable it post-open — so write the header with a clean file,
        // then reopen through a refusing one.
        ResultStore::open(&path, CTX).unwrap();
        let file = FaultyFile::open(&path).unwrap().refuse_fsync();
        let store =
            ResultStore::open_with_file(Box::new(file), CTX, StoreConfig::default()).unwrap();
        store.put(1, b"data");
        let stats = store.stats();
        assert!(stats.disabled);
        assert_eq!(stats.io_errors, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_flush_policy_defers_sync_to_flush() {
        let dir = tempdir("onflush");
        let path = dir.join("store.astr");
        ResultStore::open(&path, CTX).unwrap();
        let file = FaultyFile::open(&path).unwrap().refuse_fsync();
        let config = StoreConfig { fsync: FsyncPolicy::OnFlush, ..StoreConfig::default() };
        let store = ResultStore::open_with_file(Box::new(file), CTX, config).unwrap();
        store.put(1, b"data");
        assert!(!store.is_disabled(), "OnFlush must not sync per append");
        store.flush();
        assert!(store.is_disabled(), "flush hits the refusing device");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_dead_bytes_and_survives_reopen() {
        let dir = tempdir("compact");
        let path = dir.join("store.astr");
        let config = StoreConfig {
            fsync: FsyncPolicy::EveryN(1),
            compact_at_bytes: 256,
            compact_min_dead_fraction: 0.5,
        };
        let store = ResultStore::open_with_config(&path, CTX, config).unwrap();
        // Overwrite one key until most of the segment is dead.
        let payload = [0x5Au8; 64];
        for _ in 0..16 {
            store.put(42, &payload);
        }
        store.put(43, b"live too");
        let stats = store.stats();
        assert!(stats.compactions >= 1, "dead-heavy segment must compact: {stats:?}");
        assert!(!stats.disabled);
        assert_eq!(store.get(42).as_deref(), Some(&payload[..]));
        assert_eq!(store.get(43).as_deref(), Some(&b"live too"[..]));
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(size < 256 + 2 * (RECORD_HEADER_LEN as u64 + 64), "compacted file stays small");
        drop(store);
        let reopened = ResultStore::open(&path, CTX).unwrap();
        assert_eq!(reopened.stats().recovered, 2);
        assert_eq!(reopened.get(42).as_deref(), Some(&payload[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_payloads_are_skipped_not_fatal() {
        let dir = tempdir("oversize");
        let path = dir.join("store.astr");
        let store = ResultStore::open(&path, CTX).unwrap();
        // Don't allocate 64 MiB in a unit test: a custom tiny config
        // can't lower MAX_RECORD_BYTES, so fake it with the check's own
        // boundary — a payload just over the cap would allocate, so this
        // test documents the guard by exercising the boundary arithmetic.
        assert!(MAX_RECORD_BYTES < u64::from(u32::MAX), "length field must hold the cap");
        store.put(1, b"normal");
        assert_eq!(store.stats().appends, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_bars_memory_disk_and_reopen() {
        let dir = tempdir("quarantine");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.put(1, b"poisoned");
            store.put(2, b"fine");
            store.quarantine(1);
            assert!(store.is_quarantined(1));
            assert!(!store.is_quarantined(2));
            assert_eq!(store.get(1), None, "quarantined must not be served");
            assert_eq!(store.get(2).as_deref(), Some(&b"fine"[..]));
            // Re-persisting the barred fingerprint is silently refused.
            store.put(1, b"resurrection attempt");
            assert_eq!(store.get(1), None);
            assert_eq!(store.stats().quarantined, 1);
            assert_eq!(store.len(), 1);
        }
        // The tombstone is durable: recovery never resurrects the key,
        // and the bar still refuses new writes after restart.
        let store = ResultStore::open(&path, CTX).unwrap();
        assert_eq!(store.stats().recovered, 1);
        assert_eq!(store.stats().quarantined, 1);
        assert!(store.is_quarantined(1));
        assert_eq!(store.get(1), None);
        store.put(1, b"still refused");
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(2).as_deref(), Some(&b"fine"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_survives_compaction() {
        let dir = tempdir("quarcompact");
        let path = dir.join("store.astr");
        let config = StoreConfig {
            fsync: FsyncPolicy::EveryN(1),
            compact_at_bytes: 256,
            compact_min_dead_fraction: 0.5,
        };
        {
            let store = ResultStore::open_with_config(&path, CTX, config).unwrap();
            store.put(1, b"to be barred");
            store.quarantine(1);
            // Churn another key until compaction rewrites the segment.
            let payload = [0x5Au8; 64];
            for _ in 0..16 {
                store.put(42, &payload);
            }
            assert!(store.stats().compactions >= 1);
            assert!(store.is_quarantined(1));
        }
        let reopened = ResultStore::open(&path, CTX).unwrap();
        assert!(reopened.is_quarantined(1), "compaction must preserve the tombstone");
        assert_eq!(reopened.get(1), None);
        assert_eq!(reopened.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_clean_segments() {
        let dir = tempdir("verifyclean");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.put(1, b"one");
            store.put(2, b"two");
            store.put(2, b"two again"); // supersedes
            store.quarantine(1);
        }
        let report = ResultStore::verify(&path).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.version, STORE_VERSION);
        assert_eq!(report.context, CTX);
        assert_eq!(report.live, 1, "key 2 only: key 1 is barred");
        assert_eq!(report.superseded, 2, "old key-2 record and tombstoned key-1 record");
        assert_eq!(report.tombstones, 1);
        assert_eq!(report.resurrected, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_detects_rot_tears_and_resurrections() {
        let dir = tempdir("verifydirty");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.put(1, b"aaaa");
            store.put(2, b"bbbb");
            store.quarantine(3);
        }
        // A compliant writer never appends after a tombstone; forge one.
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            let digest = record_digest(3, b"zombie");
            file.write_all(&(b"zombie".len() as u32).to_le_bytes()).unwrap();
            file.write_all(&3u64.to_le_bytes()).unwrap();
            file.write_all(&digest.to_le_bytes()).unwrap();
            file.write_all(b"zombie").unwrap();
        }
        corrupt_file(&path, DiskFault::FlipBits { offset: 34, mask: 0x40 }).unwrap();
        corrupt_file(&path, DiskFault::TruncateTailBytes(2)).unwrap();
        let report = ResultStore::verify(&path).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.digest_invalid, 1, "{report}");
        assert_eq!(report.resurrected, 0, "the truncated zombie is torn, not resurrected");
        assert!(report.torn_bytes > 0);
        assert_eq!(report.tombstones, 1);

        // Verify never mutates: the torn tail is still there afterwards,
        // so a full (untorn) zombie now counts as resurrected.
        let before = std::fs::metadata(&path).unwrap().len();
        ResultStore::verify(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&[0u8; 2]).unwrap(); // heal the torn zombie tail
        }
        let healed = ResultStore::verify(&path).unwrap();
        assert_eq!(healed.digest_invalid, 2, "healed tail bytes were zeroed, digest now wrong");

        // Errors mirror open(): bad magic and newer versions refuse.
        let not_a_store = dir.join("not.astr");
        std::fs::write(&not_a_store, b"nope").unwrap();
        assert!(matches!(ResultStore::verify(&not_a_store), Err(StoreError::NotAStore)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_counts_a_true_resurrection() {
        let dir = tempdir("verifyzombie");
        let path = dir.join("store.astr");
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            store.quarantine(7);
        }
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            let digest = record_digest(7, b"zombie");
            file.write_all(&(b"zombie".len() as u32).to_le_bytes()).unwrap();
            file.write_all(&7u64.to_le_bytes()).unwrap();
            file.write_all(&digest.to_le_bytes()).unwrap();
            file.write_all(b"zombie").unwrap();
        }
        let report = ResultStore::verify(&path).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.resurrected, 1, "{report}");
        assert_eq!(report.live, 0);
        // Recovery agrees with verify: the zombie is not served.
        let store = ResultStore::open(&path, CTX).unwrap();
        assert_eq!(store.get(7), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discard_uncounts_the_served_hit() {
        let dir = tempdir("discard");
        let path = dir.join("store.astr");
        let store = ResultStore::open(&path, CTX).unwrap();
        store.put(5, b"not json at all");
        assert!(store.get(5).is_some());
        store.discard(5);
        let stats = store.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.corrupt_dropped, 1);
        assert_eq!(store.get(5), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
