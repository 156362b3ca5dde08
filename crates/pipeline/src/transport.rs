//! The framed wire transport shared by the sandbox and cluster tiers.
//!
//! Everything that crosses a worker process boundary — jobs, outcomes,
//! heartbeats — travels as an ASBX frame: magic, version, kind, length,
//! payload, FNV-1a digest. This module owns the codec
//! ([`encode_frame`]/[`write_frame`]/[`read_frame`]) and
//! [`PipeTransport`], the one writer of frames onto a worker's pipe, so
//! fault injection can shape bytes *between* the frame layer and the
//! pipe without either supervisor knowing.
//!
//! Fault injection plugs in via [`ascend_faults::WireShaper`]:
//! [`PipeTransport`] shapes outbound frames (parent → worker) and
//! [`ShapedReader`] shapes inbound ones (worker → parent), each applying
//! torn frames, bit flips, duplicates, reorders, stalls, and interleaved
//! garbage exactly as scheduled by a seeded
//! [`WireFaultPlan`](ascend_faults::WireFaultPlan). A cut applies to the
//! connection, never the shaper, so a respawned worker always starts on a
//! healthy stream.
//!
//! Two hardening rules live here rather than in the supervisors:
//!
//! * **Bounded allocation** ([`MAX_FRAME_LEN`]): a corrupt or hostile
//!   length prefix is refused before any allocation is sized from it, and
//!   in-bounds payloads are buffered incrementally — a lying prefix can
//!   never reserve more memory than bytes actually received (plus one
//!   64 KiB chunk).
//! * **Digest before parse**: a frame whose payload digest mismatches is
//!   an error, never a result — the supervisors map it to
//!   `WorkerProtocol`.

use crate::digest::fnv1a;
use crate::lock;
use ascend_faults::{HostileMode, WireFault, WireShaper};
use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// Wire-format version stamped into every frame. Readers reject frames
/// from any other version instead of guessing.
pub const WIRE_VERSION: u16 = 3;

/// Frame preamble: identifies a byte stream as sandbox frames at all.
pub(crate) const MAGIC: [u8; 4] = *b"ASBX";

/// Upper bound on a frame payload; a length field beyond it is treated
/// as garbage rather than honored with an allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Payload bytes are buffered in chunks of this size, so a lying length
/// prefix drives at most one chunk of over-allocation.
const PAYLOAD_CHUNK: usize = 64 * 1024;

/// What a frame carries. Sandbox workers and cluster shards are one
/// child host (`worker.rs`) and speak one payload schema inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Parent → child: one work item.
    Job,
    /// Child → parent: the outcome of the current job.
    Outcome,
    /// Child → parent: liveness signal (empty payload).
    Heartbeat,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Job => 1,
            FrameKind::Outcome => 2,
            FrameKind::Heartbeat => 3,
        }
    }

    fn from_byte(byte: u8) -> Option<FrameKind> {
        match byte {
            1 => Some(FrameKind::Job),
            2 => Some(FrameKind::Outcome),
            3 => Some(FrameKind::Heartbeat),
            _ => None,
        }
    }
}

/// One parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// The frame's payload bytes (digest-verified).
    pub payload: Vec<u8>,
}

/// Serializes one frame: magic, version, kind, payload length, payload,
/// payload digest. Flushes, so a frame is either fully visible to the
/// peer or detectably torn.
///
/// # Errors
///
/// Propagates the underlying write/flush failure.
pub fn write_frame(writer: &mut dyn Write, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
    let bytes = encode_frame(kind, payload);
    writer.write_all(&bytes)?;
    writer.flush()
}

/// The full byte image of one frame (exposed separately so fault
/// injection can shape a whole frame at once).
#[must_use]
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(19 + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    bytes.push(kind.to_byte());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at
/// a frame boundary); every malformation — wrong magic, unsupported
/// version, unknown kind, oversized length, short read, digest mismatch
/// — is an `Err` describing what was wrong.
///
/// Memory is bounded: the length prefix is checked against
/// [`MAX_FRAME_LEN`] before anything is allocated from it, and the
/// payload buffer grows in [`PAYLOAD_CHUNK`]-sized steps as bytes
/// actually arrive, so a lying in-bounds prefix cannot reserve more than
/// one chunk beyond what the peer really sent.
///
/// # Errors
///
/// Returns a human-readable description of the first malformation
/// encountered.
pub fn read_frame(reader: &mut dyn Read) -> Result<Option<Frame>, String> {
    let mut header = [0u8; 11];
    let mut filled = 0usize;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(format!("truncated frame header ({filled} of 11 bytes)")),
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(format!("frame header read failed: {err}")),
        }
    }
    if header[0..4] != MAGIC {
        return Err(format!("bad frame magic {:02x?} (expected {:02x?})", &header[0..4], MAGIC));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != WIRE_VERSION {
        return Err(format!("unsupported frame version {version} (supported: {WIRE_VERSION})"));
    }
    let Some(kind) = FrameKind::from_byte(header[6]) else {
        return Err(format!("unknown frame kind {}", header[6]));
    };
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
    if len > MAX_FRAME_LEN {
        return Err(format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"));
    }
    let total = len as usize;
    let mut payload: Vec<u8> = Vec::with_capacity(total.min(PAYLOAD_CHUNK));
    while payload.len() < total {
        let want = (total - payload.len()).min(PAYLOAD_CHUNK);
        let start = payload.len();
        payload.resize(start + want, 0);
        let mut filled = start;
        while filled < start + want {
            match reader.read(&mut payload[filled..start + want]) {
                Ok(0) => {
                    payload.truncate(filled);
                    return Err(format!("truncated frame payload ({filled} of {total} bytes)"));
                }
                Ok(n) => filled += n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(format!("frame payload read failed: {err}")),
            }
        }
    }
    let mut trailer = [0u8; 8];
    let mut filled = 0usize;
    while filled < trailer.len() {
        match reader.read(&mut trailer[filled..]) {
            Ok(0) => return Err(format!("truncated frame digest ({filled} of 8 bytes)")),
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(format!("frame digest read failed: {err}")),
        }
    }
    let expected = u64::from_le_bytes(trailer);
    let actual = fnv1a(&payload);
    if expected != actual {
        return Err(format!(
            "frame digest mismatch: header {expected:#018x}, payload {actual:#018x}"
        ));
    }
    Ok(Some(Frame { kind, payload }))
}

/// "Put one frame on the wire towards a worker" over any byte sink,
/// optionally shaped by a shared [`WireShaper`]: the supervisors speak
/// frames through it, and whether the bytes travel untouched or through
/// a fault shaper is the transport's business. A scheduled tear cuts **this connection** (the sink is
/// dropped, which for a `ChildStdin` delivers EOF mid-frame to the
/// child); the shaper survives for the slot's next connection.
pub struct PipeTransport<W: Write + Send> {
    inner: Option<W>,
    shaper: Option<Arc<Mutex<WireShaper>>>,
}

impl<W: Write + Send> fmt::Debug for PipeTransport<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipeTransport")
            .field("connected", &self.inner.is_some())
            .field("shaped", &self.shaper.is_some())
            .finish()
    }
}

impl<W: Write + Send> PipeTransport<W> {
    /// A clean transport: frames reach the sink byte-exact.
    pub fn new(writer: W) -> Self {
        PipeTransport { inner: Some(writer), shaper: None }
    }

    /// A transport whose outbound frames pass through `shaper`.
    pub fn shaped(writer: W, shaper: Arc<Mutex<WireShaper>>) -> Self {
        PipeTransport { inner: Some(writer), shaper: Some(shaper) }
    }

    /// Encodes and ships one frame.
    ///
    /// # Errors
    ///
    /// Propagates the pipe failure; a transport whose connection was cut
    /// (by a scheduled tear or a dead peer) reports `BrokenPipe`.
    pub fn send(&mut self, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
        let Some(writer) = self.inner.as_mut() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "transport connection was cut",
            ));
        };
        let Some(shaper) = &self.shaper else {
            return write_frame(writer, kind, payload);
        };
        let image = encode_frame(kind, payload);
        let countable = kind != FrameKind::Heartbeat;
        let action = lock(shaper).shape(image, countable);
        if let Some(stall) = action.stall {
            std::thread::sleep(stall);
        }
        for chunk in &action.chunks {
            writer.write_all(chunk)?;
        }
        writer.flush()?;
        if action.cut {
            self.inner = None;
        }
        Ok(())
    }
}

/// What [`ShapedReader::pull`] found next on the inbound stream.
enum Pulled {
    /// A structurally complete frame image (header sniffed, body read).
    Image { bytes: Vec<u8>, countable: bool },
    /// Bytes that do not frame-align (bad header, or EOF mid-body): the
    /// reader switches to raw passthrough so the parser sees exactly what
    /// a real broken stream would deliver.
    Raw(Vec<u8>),
    /// Clean end-of-stream at a frame boundary.
    Eof,
}

/// An `io::Read` adapter that shapes **whole inbound frames** through a
/// shared [`WireShaper`] before the frame parser sees them. It sniffs
/// frame boundaries from the 11-byte header; anything that does not parse
/// structurally degrades to byte-exact passthrough, so malformed worker
/// output reaches [`read_frame`] unaltered.
pub(crate) struct ShapedReader<R: Read> {
    inner: R,
    shaper: Arc<Mutex<WireShaper>>,
    pending: VecDeque<u8>,
    cut: bool,
    passthrough: bool,
}

impl<R: Read> ShapedReader<R> {
    pub(crate) fn new(inner: R, shaper: Arc<Mutex<WireShaper>>) -> Self {
        ShapedReader { inner, shaper, pending: VecDeque::new(), cut: false, passthrough: false }
    }

    /// Reads one frame image (or the raw bytes of a non-frame) from the
    /// underlying stream.
    fn pull(&mut self) -> std::io::Result<Pulled> {
        let mut header = [0u8; 11];
        let mut filled = 0usize;
        while filled < header.len() {
            match self.inner.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Ok(Pulled::Eof),
                Ok(0) => return Ok(Pulled::Raw(header[..filled].to_vec())),
                Ok(n) => filled += n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
        let structural = header[0..4] == MAGIC
            && u16::from_le_bytes([header[4], header[5]]) == WIRE_VERSION
            && FrameKind::from_byte(header[6]).is_some()
            && len <= MAX_FRAME_LEN;
        if !structural {
            return Ok(Pulled::Raw(header.to_vec()));
        }
        let countable = FrameKind::from_byte(header[6]) != Some(FrameKind::Heartbeat);
        let mut image = header.to_vec();
        let total = header.len() + len as usize + 8;
        while image.len() < total {
            let want = (total - image.len()).min(PAYLOAD_CHUNK);
            let start = image.len();
            image.resize(start + want, 0);
            let mut filled = start;
            while filled < start + want {
                match self.inner.read(&mut image[filled..start + want]) {
                    Ok(0) => {
                        image.truncate(filled);
                        return Ok(Pulled::Raw(image));
                    }
                    Ok(n) => filled += n,
                    Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(err) => return Err(err),
                }
            }
        }
        Ok(Pulled::Image { bytes: image, countable })
    }
}

impl<R: Read> Read for ShapedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if !self.pending.is_empty() {
                let n = buf.len().min(self.pending.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = self.pending.pop_front().expect("pending non-empty");
                }
                return Ok(n);
            }
            if self.cut {
                return Ok(0);
            }
            if self.passthrough {
                return self.inner.read(buf);
            }
            match self.pull()? {
                Pulled::Eof => return Ok(0),
                Pulled::Raw(bytes) => {
                    self.passthrough = true;
                    self.pending.extend(bytes);
                    if self.pending.is_empty() {
                        return Ok(0);
                    }
                }
                Pulled::Image { bytes, countable } => {
                    let action = lock(&self.shaper).shape(bytes, countable);
                    if let Some(stall) = action.stall {
                        std::thread::sleep(stall);
                    }
                    for chunk in action.chunks {
                        self.pending.extend(chunk);
                    }
                    if action.cut {
                        self.cut = true;
                    }
                    // pending may still be empty (a reordered frame being
                    // held) — loop and pull the next frame.
                }
            }
        }
    }
}

/// The hostile worker modes `GarbageStdout`/`TruncateFrame`, re-expressed
/// through the wire-fault vocabulary. Returns the exact bytes the worker
/// must write **instead of** the well-formed frame, or `None` when `mode`
/// is not a protocol fault.
///
/// Byte parity with the pre-vocabulary implementation is pinned by
/// regression tests: `TruncateFrame` ships the first half of the encoded
/// frame via [`WireFault::Tear`], and `GarbageStdout` ships the caller's
/// fixed `garbage_tag` literal (whose first four bytes are not the frame
/// magic, like every [`WireFault::Garbage`] emission).
pub(crate) fn protocol_fault_bytes(
    mode: HostileMode,
    kind: FrameKind,
    payload: &[u8],
    garbage_tag: &[u8],
) -> Option<Vec<u8>> {
    match mode {
        HostileMode::TruncateFrame => {
            let image = encode_frame(kind, payload);
            let keep = (image.len() / 2) as u32;
            let action = WireShaper::single(WireFault::Tear { keep }).shape(image, true);
            debug_assert!(action.cut, "a tear always cuts the stream");
            Some(action.chunks.concat())
        }
        HostileMode::GarbageStdout => {
            debug_assert_ne!(&garbage_tag[..4], &MAGIC, "garbage must never frame-align");
            Some(garbage_tag.to_vec())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_faults::{WireDirection, WireFaultEvent, WireFaultPlan};
    use std::io::Cursor;

    fn parse_all(bytes: &[u8]) -> (Vec<Frame>, Option<String>) {
        let mut cursor = Cursor::new(bytes.to_vec());
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut cursor) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, None),
                Err(err) => return (frames, Some(err)),
            }
        }
    }

    #[test]
    fn clean_transport_is_byte_identical_to_write_frame() {
        let mut direct = Vec::new();
        write_frame(&mut direct, FrameKind::Outcome, b"payload").unwrap();
        let mut transport = PipeTransport::new(Vec::new());
        transport.send(FrameKind::Outcome, b"payload").unwrap();
        assert_eq!(transport.inner.unwrap(), direct);
    }

    #[test]
    fn torn_transport_ships_prefix_then_reports_broken_pipe() {
        let plan = WireFaultPlan::from_events(
            1,
            vec![WireFaultEvent {
                shard: 0,
                direction: WireDirection::ToWorker,
                nth: 0,
                fault: WireFault::Tear { keep: 7 },
            }],
        );
        let shaper = Arc::new(Mutex::new(plan.shaper(0, WireDirection::ToWorker)));
        let mut transport = PipeTransport::shaped(Vec::new(), shaper);
        transport.send(FrameKind::Job, b"work").unwrap();
        let err = transport.send(FrameKind::Job, b"more").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn shaped_reader_duplicates_and_garbage_behave_as_scheduled() {
        let image = encode_frame(FrameKind::Outcome, b"result");
        let shaper = Arc::new(Mutex::new(WireShaper::single(WireFault::Duplicate)));
        let mut reader = ShapedReader::new(Cursor::new(image.clone()), shaper);
        let mut shipped = Vec::new();
        reader.read_to_end(&mut shipped).unwrap();
        let (frames, err) = parse_all(&shipped);
        assert_eq!(frames.len(), 2, "duplicate ships the frame twice");
        assert!(err.is_none());

        let shaper = Arc::new(Mutex::new(WireShaper::single(WireFault::Garbage { len: 16 })));
        let mut reader = ShapedReader::new(Cursor::new(image), shaper);
        let mut shipped = Vec::new();
        reader.read_to_end(&mut shipped).unwrap();
        let (frames, err) = parse_all(&shipped);
        assert!(frames.is_empty());
        assert!(err.unwrap().contains("bad frame magic"), "garbage must not frame-align");
    }

    #[test]
    fn shaped_reader_tear_yields_truncated_frame_then_eof() {
        let image = encode_frame(FrameKind::Outcome, b"result");
        let shaper = Arc::new(Mutex::new(WireShaper::single(WireFault::Tear { keep: 13 })));
        let mut reader = ShapedReader::new(Cursor::new(image), shaper);
        let mut shipped = Vec::new();
        reader.read_to_end(&mut shipped).unwrap();
        assert_eq!(shipped.len(), 13);
        let (frames, err) = parse_all(&shipped);
        assert!(frames.is_empty());
        assert!(err.unwrap().contains("truncated frame"));
    }

    #[test]
    fn shaped_reader_passes_malformed_streams_through_byte_exact() {
        let garbage = b"XXXXthis is definitely not a sandbox frame".to_vec();
        let shaper = Arc::new(Mutex::new(WireShaper::single(WireFault::Duplicate)));
        let mut reader = ShapedReader::new(Cursor::new(garbage.clone()), shaper);
        let mut shipped = Vec::new();
        reader.read_to_end(&mut shipped).unwrap();
        assert_eq!(shipped, garbage, "non-frames must reach the parser unaltered");
    }

    #[test]
    fn truncate_frame_facade_matches_the_historical_bytes() {
        let payload = br#"{"outcome":"ok"}"#;
        for kind in [FrameKind::Job, FrameKind::Outcome] {
            let image = encode_frame(kind, payload);
            // The pre-vocabulary implementation shipped the literal first
            // half of the encoded frame.
            let historical = image[..image.len() / 2].to_vec();
            let facade = protocol_fault_bytes(HostileMode::TruncateFrame, kind, payload, b"XXXX")
                .expect("TruncateFrame is a protocol fault");
            assert_eq!(facade, historical, "byte parity with the pre-facade fault");
        }
    }

    #[test]
    fn garbage_facade_preserves_the_historical_tag() {
        let tag = b"XXXXthis is definitely not a sandbox frame";
        let facade = protocol_fault_bytes(HostileMode::GarbageStdout, FrameKind::Outcome, b"", tag)
            .expect("GarbageStdout is a protocol fault");
        assert_eq!(facade, tag, "byte parity with the pre-facade fault");
        let (frames, err) = parse_all(&facade);
        assert!(frames.is_empty());
        assert!(err.unwrap().contains("bad frame magic"));
    }

    #[test]
    fn non_protocol_modes_have_no_fault_bytes() {
        assert!(protocol_fault_bytes(HostileMode::Spin, FrameKind::Outcome, b"", b"XXXX").is_none());
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(2);
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert!(err.contains("exceeds"), "oversized prefix must be refused: {err}");
    }

    #[test]
    fn lying_in_bounds_prefix_cannot_drive_a_large_allocation() {
        // Header claims the maximum in-bounds payload but delivers only a
        // handful of bytes: the reader must fail with a truncation error
        // having buffered no more than one chunk.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(2);
        bytes.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        bytes.extend_from_slice(b"only a few bytes");
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert!(err.contains("truncated frame payload (16 of 67108864 bytes)"), "{err}");
    }
}
