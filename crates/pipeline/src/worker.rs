//! The child-process host both isolation tiers share.
//!
//! A sandbox worker ([`SandboxedExecutor`](crate::SandboxedExecutor)) and
//! a cluster shard ([`ClusterService`](crate::ClusterService)) are the
//! same child seen from two routers: the current binary (or a dedicated
//! host such as `sandbox_worker`) re-executed with the [`WORKER_ENV`]
//! marker, speaking `ASBX` frames on its stdin and stdout. This module
//! owns everything the two tiers must agree on:
//!
//! * **Bring-up.** [`start_worker`] spawns the child and sends one
//!   [`ShardHello`]: chip, thresholds and heartbeat interval, plus, for a
//!   shard, its store path, the full quarantine set and the chaos-only
//!   buggy engine. The child builds a resident [`AnalysisPipeline`] from
//!   it once and acknowledges, so the chip crosses the pipe once per
//!   spawn.
//! * **Jobs.** Every later frame is a [`ShardJob`] (context fingerprint,
//!   work, deadline, budget, pending tombstones), answered by one
//!   [`ShardReply`]. A job before the hello, a second hello or a job for
//!   another context is a malformed stream: the child exits 3 unserved.
//!   This split is [`WIRE_VERSION`](crate::WIRE_VERSION) 3.
//! * **Containment.** [`await_reply`] is the one parent-side monitor:
//!   caller preemption, the wall clock, heartbeat silence and the RSS
//!   budget kill the child; a stream that ends first is judged by the
//!   same verdict [`idle_check`] gives a child that died between jobs.
//!   The monitor reaches the process through a [`Reap`] hook, so the
//!   cluster can keep its handle in a slot `kill_shard` can hit.
//! * **The child loop.** [`worker_main`], entered through
//!   [`run_worker_if_requested`].

use crate::sandbox::{SandboxConfig, WorkSpec};
use crate::supervisor::RunPolicy;
use crate::transport::{
    protocol_fault_bytes, read_frame, write_frame, Frame, FrameKind, FrameTransport, PipeTransport,
    ShapedReader,
};
use crate::{lock, AnalysisPipeline, PipelineError, PipelineResult};
use ascend_arch::ChipSpec;
use ascend_faults::{BuggyEngine, FaultyTransport};
use ascend_roofline::Thresholds;
use ascend_sim::{CancelToken, SimBudget, SimError};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment marker that turns a re-exec of the current binary into a
/// worker child (see [`run_worker_if_requested`]).
pub const WORKER_ENV: &str = "ASCEND_SANDBOX_WORKER";

/// Grace given to a child believed to be exiting voluntarily, so its own
/// exit status survives instead of being overwritten by SIGKILL.
const REAP_GRACE: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------
// Wire payloads (inside the ASBX frame container)
// ---------------------------------------------------------------------

/// Parent → child: one frame of the child's input stream. The first
/// frame of every spawn is a [`ShardHello`]; every later one is a
/// [`ShardJob`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum ShardRequest {
    /// Sets the child's serving context, once per spawn.
    Hello(ShardHello),
    /// One request, or a quarantine nudge.
    Job(ShardJob),
}

/// Everything a child's resident pipeline is built from. Sent once per
/// spawn, so the chip crosses the pipe once per process rather than
/// once per request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ShardHello {
    pub(crate) chip: ChipSpec,
    pub(crate) thresholds: Thresholds,
    pub(crate) heartbeat_ms: u64,
    /// The child's own durable store segment (cluster shards only).
    pub(crate) store_path: Option<String>,
    /// The full quarantine set at spawn time: fingerprints this child
    /// must never answer from cached state.
    pub(crate) quarantine: Vec<u64>,
    /// Chaos-only: a silently-wrong engine the resident pipeline must
    /// arm ([`AnalysisPipeline::with_buggy_engine`]). Absent in every
    /// production frame.
    #[serde(default)]
    pub(crate) buggy: Option<BuggyEngine>,
}

impl ShardHello {
    /// A hello for a plain pipeline over `chip` and `thresholds`,
    /// heartbeating at `limits.heartbeat_interval`: no store, no
    /// quarantine, no chaos engine.
    pub(crate) fn new(chip: ChipSpec, thresholds: Thresholds, limits: &SandboxConfig) -> Self {
        ShardHello {
            chip,
            thresholds,
            heartbeat_ms: limits.heartbeat_interval.as_millis().max(1) as u64,
            store_path: None,
            quarantine: Vec::new(),
            buggy: None,
        }
    }
}

/// One request on a child that has had its [`ShardHello`], or a control
/// ping when `work` is `None`. Control pings apply tombstones without
/// running anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ShardJob {
    /// The context fingerprint the parent routed under. A child serving
    /// another context treats the frame as a malformed stream.
    pub(crate) context: u64,
    /// `None` is a control ping (quarantine nudge).
    pub(crate) work: Option<WorkSpec>,
    pub(crate) deadline_ms: Option<u64>,
    pub(crate) budget: Option<WireBudget>,
    /// Tombstones to apply before serving, not yet acknowledged by this
    /// child.
    pub(crate) quarantine: Vec<u64>,
}

/// Watchdog-budget image inside a job frame (`SimBudget` itself is not
/// serialized to keep the sim crate serde-free).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct WireBudget {
    pub(crate) max_events: u64,
    pub(crate) max_cycles: f64,
}

impl From<SimBudget> for WireBudget {
    fn from(budget: SimBudget) -> Self {
        WireBudget { max_events: budget.max_events, max_cycles: budget.max_cycles }
    }
}

/// The typed outcome inside a [`ShardReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum ShardResult {
    /// The child's pipeline ran the work to completion.
    Ok {
        /// The result, bit-identical to an in-process run.
        result: Box<PipelineResult>,
    },
    /// The child's pipeline run failed; the error crosses rendered.
    Err {
        /// The rendered failure.
        failure: WireFailure,
    },
    /// Acknowledgement of a hello or a control ping.
    Control,
}

/// A child-side failure, rendered for the wire: concrete error enums of
/// the lower layers are not serializable, so the message plus the
/// transience class crosses the boundary (see
/// [`PipelineError::WorkerReported`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct WireFailure {
    pub(crate) message: String,
    pub(crate) transient: bool,
}

impl From<WireFailure> for PipelineError {
    fn from(failure: WireFailure) -> Self {
        PipelineError::WorkerReported { message: failure.message, transient: failure.transient }
    }
}

/// Child → parent: the outcome of one request, plus the child-side
/// observability the cluster folds into its counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ShardReply {
    pub(crate) outcome: ShardResult,
    /// Whether the answer came from the child's warm state (memory or
    /// disk) rather than a fresh computation.
    pub(crate) served_cached: bool,
    /// Entries the child's store recovered at its open — nonzero after a
    /// respawn proves the disk rewarm worked.
    pub(crate) store_recovered: u64,
}

/// Serializes one request for a job frame.
pub(crate) fn encode(request: &ShardRequest) -> Result<String, PipelineError> {
    serde_json::to_string(request).map_err(|err| PipelineError::WorkerProtocol {
        detail: format!("request serialization failed: {err}"),
    })
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// What the reader thread saw on the child's stdout.
#[derive(Debug, Clone)]
pub(crate) enum ReadEvent {
    Frame(Frame),
    Malformed(String),
    Eof,
}

/// One live worker process: the child and its (possibly fault-shaped)
/// stdin. Dropping it kills and reaps the child.
#[derive(Debug)]
pub(crate) struct WorkerProcess {
    pub(crate) child: Child,
    pub(crate) stdin: PipeTransport<ChildStdin>,
}

impl WorkerProcess {
    pub(crate) fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// How the monitor ends a child. The sandbox passes the
/// [`WorkerProcess`] it owns; the cluster passes the shared slot its
/// process lives in, so `kill_shard` can still SIGKILL it mid-exchange.
/// Reached only when a child dies.
pub(crate) trait Reap {
    /// Kills (idempotently) and reaps the child, returning its exit
    /// status. A child that already exited keeps its original status —
    /// SIGKILL on a zombie is a no-op.
    fn kill_and_reap(&mut self) -> Option<ExitStatus>;

    /// Reaps a child believed to be exiting on its own, giving it
    /// [`REAP_GRACE`] before falling back to a kill (so a voluntary exit
    /// keeps its real status instead of SIGKILL).
    fn reap_with_grace(&mut self) -> Option<ExitStatus>;
}

impl Reap for WorkerProcess {
    fn kill_and_reap(&mut self) -> Option<ExitStatus> {
        let _ = self.child.kill();
        self.child.wait().ok()
    }

    fn reap_with_grace(&mut self) -> Option<ExitStatus> {
        let deadline = Instant::now() + REAP_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return self.kill_and_reap(),
            }
        }
    }
}

/// A shared process slot: the process is taken out (the lock is not
/// held while it dies) and reaped; an empty slot has no status.
impl Reap for &Mutex<Option<WorkerProcess>> {
    fn kill_and_reap(&mut self) -> Option<ExitStatus> {
        let taken = lock(self).take();
        taken.and_then(|mut process| process.kill_and_reap())
    }

    fn reap_with_grace(&mut self) -> Option<ExitStatus> {
        let taken = lock(self).take();
        taken.and_then(|mut process| process.reap_with_grace())
    }
}

/// The worker executable `limits` names: the configured one, or the
/// current binary (whose `main` must call [`run_worker_if_requested`]).
pub(crate) fn worker_program(limits: &SandboxConfig) -> Result<PathBuf, PipelineError> {
    match &limits.worker_cmd {
        Some(path) => Ok(path.clone()),
        None => std::env::current_exe().map_err(|err| PipelineError::WorkerProtocol {
            detail: format!("cannot locate the current executable: {err}"),
        }),
    }
}

/// Spawns `program` as a framed worker child with [`WORKER_ENV`] set:
/// stdin piped for job frames (behind a [`PipeTransport`]), stdout piped
/// into a reader thread that forwards [`ReadEvent`]s, stderr inherited.
/// When `faulty` is given, both directions of the pipe are shaped by its
/// wire-fault shapers.
pub(crate) fn spawn_framed_child(
    program: &Path,
    faulty: Option<&FaultyTransport>,
) -> Result<(WorkerProcess, Receiver<ReadEvent>), PipelineError> {
    let mut child = Command::new(program)
        .env(WORKER_ENV, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|err| PipelineError::WorkerProtocol {
            detail: format!("failed to spawn worker {}: {err}", program.display()),
        })?;
    let (Some(raw_stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
        return Err(PipelineError::WorkerProtocol {
            detail: "spawned worker has no stdio handles".to_string(),
        });
    };
    let stdin = match faulty {
        Some(faulty) => PipeTransport::shaped(raw_stdin, faulty.to_worker()),
        None => PipeTransport::new(raw_stdin),
    };
    let mut stdout: Box<dyn Read + Send> = match faulty {
        Some(faulty) => Box::new(ShapedReader::new(stdout, faulty.from_worker())),
        None => Box::new(stdout),
    };
    let (sender, events) = std::sync::mpsc::channel();
    std::thread::spawn(move || loop {
        let event = match read_frame(&mut stdout) {
            Ok(Some(frame)) => ReadEvent::Frame(frame),
            Ok(None) => ReadEvent::Eof,
            Err(detail) => ReadEvent::Malformed(detail),
        };
        let last = !matches!(event, ReadEvent::Frame(_));
        // A send error means the parent dropped the worker.
        if sender.send(event).is_err() || last {
            return;
        }
    });
    Ok((WorkerProcess { child, stdin }, events))
}

/// Brings a worker up: spawns `program`, sends `hello` and waits for its
/// acknowledgement under `limits`. Returns the live process, its event
/// channel and the number of store entries the child recovered. On any
/// error the child is already killed and reaped.
pub(crate) fn start_worker(
    program: &Path,
    faulty: Option<&FaultyTransport>,
    limits: &SandboxConfig,
    hello: ShardHello,
    cancel: Option<&CancelToken>,
) -> Result<(WorkerProcess, Receiver<ReadEvent>, u64), PipelineError> {
    let (mut process, events) = spawn_framed_child(program, faulty)?;
    let payload = encode(&ShardRequest::Hello(hello))?;
    if let Err(err) = process.stdin.send(FrameKind::Job, payload.as_bytes()) {
        let status = process.kill_and_reap();
        return Err(classify_exit(status, &format!("hello frame write failed: {err}")));
    }
    let pid = process.pid();
    let ack = await_reply(limits, &events, &mut process, pid, cancel)?;
    match ack.outcome {
        ShardResult::Control => Ok((process, events, ack.store_recovered)),
        ShardResult::Err { failure } => Err(failure.into()),
        ShardResult::Ok { .. } => Err(PipelineError::WorkerProtocol {
            detail: "worker answered its hello with a result".to_string(),
        }),
    }
}

/// The one parent-side monitor: waits for the reply to the frame just
/// sent to a child, killing it through `child` on caller preemption
/// (`cancel`), wall-clock overrun, heartbeat silence or an RSS sample of
/// `pid` over budget. A reply that does not parse, or a stream that
/// ends first, is judged by [`stream_end`].
pub(crate) fn await_reply(
    limits: &SandboxConfig,
    events: &Receiver<ReadEvent>,
    child: &mut impl Reap,
    pid: u32,
    cancel: Option<&CancelToken>,
) -> Result<ShardReply, PipelineError> {
    let started = Instant::now();
    let wall_deadline = started + limits.wall_clock_limit;
    let mut last_beat = started;
    let mut heartbeats = 0u64;
    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            // Forceful preemption reports the error shape the cooperative
            // in-process path produces, so drain logic upstream cannot
            // tell the tiers apart (and the breaker/fallback exemption
            // for preemption applies).
            child.kill_and_reap();
            return Err(PipelineError::Runtime(SimError::preempted_at("worker process")));
        }
        let now = Instant::now();
        if now >= wall_deadline || now.duration_since(last_beat) >= limits.heartbeat_timeout {
            child.kill_and_reap();
            return Err(PipelineError::WorkerHung { waited: now - started, heartbeats });
        }
        if let Some(limit) = limits.rss_limit_bytes {
            if let Some(rss) = rss_bytes(pid).filter(|&rss| rss > limit) {
                child.kill_and_reap();
                return Err(PipelineError::WorkerOverMemory {
                    rss_bytes: rss,
                    budget_bytes: limit,
                });
            }
        }
        let end = match events.recv_timeout(limits.poll_interval) {
            Ok(ReadEvent::Frame(frame)) => match frame.kind {
                FrameKind::Heartbeat => {
                    heartbeats += 1;
                    last_beat = Instant::now();
                    continue;
                }
                FrameKind::Outcome => match parse_reply(&frame.payload) {
                    Some(reply) => return Ok(reply),
                    None => StreamEnd::Unparsable,
                },
                FrameKind::Job => StreamEnd::Unsolicited,
            },
            Ok(ReadEvent::Malformed(detail)) => StreamEnd::Malformed(detail),
            Ok(ReadEvent::Eof) => StreamEnd::Eof,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => StreamEnd::Disconnected,
        };
        return Err(stream_end(end, child));
    }
}

/// What the parent does with a parsed reply to one job.
#[derive(Debug)]
pub(crate) enum ReplyVerdict {
    /// The reply answers the job it was sent for: serve the result (or,
    /// for a control ping, `None`: the child acknowledged) and keep the
    /// child.
    Serve(Option<Box<PipelineResult>>),
    /// The child's pipeline failed the job and said so in step: report
    /// the failure and keep the child.
    Fail(PipelineError),
    /// The reply does not answer the job it was sent for: a result for
    /// another key, a control ack to work, or a result or failure for a
    /// control ping. The child's stream no longer lines up with the
    /// parent's, so whatever it says next could answer the wrong job:
    /// kill it and never reuse it, as for any other worker death.
    Retire(PipelineError),
}

/// The one reply check both tiers apply: the sandbox pool and the
/// cluster shards must not disagree about which replies a child may be
/// kept after. `key` is the job's cache key; `has_ticket` is false only
/// for the cluster's control pings (jobs without work).
pub(crate) fn reply_verdict(outcome: ShardResult, key: u64, has_ticket: bool) -> ReplyVerdict {
    let protocol = |detail: String| ReplyVerdict::Retire(PipelineError::WorkerProtocol { detail });
    match (outcome, has_ticket) {
        (ShardResult::Ok { result }, true) if result.fingerprint == key => {
            ReplyVerdict::Serve(Some(result))
        }
        (ShardResult::Ok { result }, true) => protocol(format!(
            "result fingerprint {:#018x} does not match the job's {key:#018x}",
            result.fingerprint
        )),
        (ShardResult::Err { failure }, true) => ReplyVerdict::Fail(failure.into()),
        (ShardResult::Control, true) => {
            protocol("worker answered a work job with a control ack".to_string())
        }
        (ShardResult::Control, false) => ReplyVerdict::Serve(None),
        (ShardResult::Ok { .. } | ShardResult::Err { .. }, false) => {
            protocol("worker answered a control ping with a job outcome".to_string())
        }
    }
}

/// Drains an idle child's channel. Heartbeats are discarded; a stream
/// end or a frame the parent did not ask for means the child is gone:
/// it is reaped through `child` and the verdict names the cause.
pub(crate) fn idle_check(
    events: &Receiver<ReadEvent>,
    child: &mut impl Reap,
) -> Option<PipelineError> {
    loop {
        let end = match events.try_recv() {
            Ok(ReadEvent::Frame(frame)) if frame.kind == FrameKind::Heartbeat => continue,
            Ok(ReadEvent::Frame(_)) => StreamEnd::Unsolicited,
            Ok(ReadEvent::Malformed(detail)) => StreamEnd::Malformed(detail),
            Ok(ReadEvent::Eof) => StreamEnd::Eof,
            Err(TryRecvError::Empty) => return None,
            Err(TryRecvError::Disconnected) => StreamEnd::Disconnected,
        };
        return Some(stream_end(end, child));
    }
}

fn parse_reply(payload: &[u8]) -> Option<ShardReply> {
    std::str::from_utf8(payload).ok().and_then(|text| serde_json::from_str(text).ok())
}

/// How a child's stream stopped before the reply the parent wanted.
enum StreamEnd {
    /// Garbage, a torn frame, a bad digest or version.
    Malformed(String),
    /// The stream closed at a frame boundary.
    Eof,
    /// A well-formed outcome frame whose payload is not a reply.
    Unparsable,
    /// A job frame, or any non-heartbeat frame while idle.
    Unsolicited,
    /// The reader thread is gone.
    Disconnected,
}

/// The verdict on a child whose stream ended: reaps it through `child`
/// and names the cause. A signal or nonzero exit is a crash and
/// outranks a malformed stream; a malformed stream from a child that
/// then exited 0 is still a protocol violation.
fn stream_end(end: StreamEnd, child: &mut impl Reap) -> PipelineError {
    let protocol = |detail: &str| PipelineError::WorkerProtocol { detail: detail.to_string() };
    match end {
        StreamEnd::Malformed(detail) => match classify_exit(child.reap_with_grace(), &detail) {
            crashed @ PipelineError::WorkerCrashed { .. } => crashed,
            _ => PipelineError::WorkerProtocol { detail },
        },
        StreamEnd::Eof => {
            classify_exit(child.reap_with_grace(), "stream ended before a reply frame")
        }
        StreamEnd::Unparsable => {
            child.kill_and_reap();
            protocol("reply payload did not parse")
        }
        StreamEnd::Unsolicited => {
            child.kill_and_reap();
            protocol("worker sent a frame its parent did not ask for")
        }
        StreamEnd::Disconnected => {
            classify_exit(child.kill_and_reap(), "reader thread lost the stream")
        }
    }
}

/// Resident set of `pid` in bytes, from `/proc/<pid>/status` (`VmRSS`).
pub(crate) fn rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmRSS:"))?;
    let kb: u64 =
        line.trim_start_matches("VmRSS:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Maps a dead child's exit status into the error taxonomy: a signal or
/// nonzero exit is a crash; a clean exit without having delivered a
/// reply frame is a protocol violation (the child broke its promise,
/// not its process).
pub(crate) fn classify_exit(status: Option<ExitStatus>, detail: &str) -> PipelineError {
    let Some(status) = status else {
        return PipelineError::WorkerProtocol {
            detail: format!("{detail}; exit status unavailable"),
        };
    };
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(signal) = status.signal() {
            return PipelineError::WorkerCrashed { code: None, signal: Some(signal) };
        }
    }
    match status.code() {
        Some(0) | None => PipelineError::WorkerProtocol { detail: detail.to_string() },
        Some(code) => PipelineError::WorkerCrashed { code: Some(code), signal: None },
    }
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// If the [`WORKER_ENV`] marker is set, runs [`worker_main`] and never
/// returns. Call this at the top of `main` in any binary that should be
/// usable as a re-exec worker host; it is a no-op otherwise.
pub fn run_worker_if_requested() {
    if std::env::var_os(WORKER_ENV).is_some_and(|value| value == "1") {
        worker_main();
    }
}

/// A child's resident serving state, built from its hello: the pipeline
/// (with its memory cache and optional store) survives across jobs,
/// which is what makes a shard warm and lets a sandbox worker skip the
/// chip on every job.
struct ResidentPipeline {
    context: u64,
    pipeline: AnalysisPipeline,
    recovered: u64,
}

/// The worker loop: read one [`ShardHello`] and then [`ShardJob`]
/// frames from stdin, serve them on a resident [`AnalysisPipeline`]
/// (memory cache, durable store, quarantine tombstones and all), write
/// [`ShardReply`] frames (and heartbeats, from a dedicated thread) to
/// stdout. Exits 0 on clean EOF, 3 on a malformed input stream — which
/// includes a job before the hello and a job for another context. Never
/// returns.
pub fn worker_main() -> ! {
    let stdout: Arc<Mutex<std::io::Stdout>> = Arc::new(Mutex::new(std::io::stdout()));
    let mut stdin = std::io::stdin().lock();
    let mut resident: Option<ResidentPipeline> = None;
    let exit_malformed = |detail: &str| -> ! {
        eprintln!("[worker] malformed input: {detail}");
        std::process::exit(3);
    };
    loop {
        let frame = match read_frame(&mut stdin) {
            Ok(Some(frame)) if frame.kind == FrameKind::Job => frame,
            Ok(Some(_)) => exit_malformed("unexpected frame kind (want job)"),
            Ok(None) => std::process::exit(0),
            Err(detail) => exit_malformed(&detail),
        };
        let Some(request) = std::str::from_utf8(&frame.payload)
            .ok()
            .and_then(|text| serde_json::from_str::<ShardRequest>(text).ok())
        else {
            exit_malformed("job frame did not parse");
        };
        let fault = match &request {
            ShardRequest::Hello(hello) => {
                ensure_heartbeats(&stdout, Duration::from_millis(hello.heartbeat_ms.max(1)));
                None
            }
            ShardRequest::Job(job) => job.work.as_ref().and_then(WorkSpec::protocol_fault),
        };
        let reply = serve_request(&mut resident, request).unwrap_or_else(|d| exit_malformed(d));
        let Ok(payload) = serde_json::to_string(&reply) else {
            eprintln!("[worker] reply serialization failed");
            std::process::exit(3);
        };
        let mut out = lock(&stdout);
        // Hostile protocol faults are expressed through the transport
        // fault vocabulary (byte parity with the historical bytes is
        // pinned in `transport::tests`): garbage is wrong magic from the
        // first byte; truncation is a Tear shipping the frame's first
        // half — the shape a crash between write and flush leaves.
        match fault.and_then(|mode| {
            protocol_fault_bytes(
                mode,
                FrameKind::Outcome,
                payload.as_bytes(),
                b"XXXXthis is definitely not a sandbox frame",
            )
        }) {
            Some(bytes) => {
                let _ = out.write_all(&bytes);
                let _ = out.flush();
                std::process::exit(0);
            }
            None => {
                if write_frame(&mut *out, FrameKind::Outcome, payload.as_bytes()).is_err() {
                    // Parent is gone; nothing left to serve.
                    std::process::exit(0);
                }
            }
        }
    }
}

/// Applies one input frame to the child's state. A hello builds the
/// resident pipeline; a job is served on it. `Err` is a malformed
/// stream — a second hello, a job before the hello, or a job for a
/// context other than the resident one — which the child answers by
/// exiting, never by serving.
fn serve_request(
    resident: &mut Option<ResidentPipeline>,
    request: ShardRequest,
) -> Result<ShardReply, &'static str> {
    match (request, resident.as_mut()) {
        (ShardRequest::Hello(hello), None) => Ok(match open_resident(hello) {
            Ok(built) => {
                let reply = control_reply(built.recovered);
                *resident = Some(built);
                reply
            }
            Err(failure) => ShardReply {
                outcome: ShardResult::Err { failure },
                served_cached: false,
                store_recovered: 0,
            },
        }),
        (ShardRequest::Hello(_), Some(_)) => Err("a second hello"),
        (ShardRequest::Job(_), None) => Err("a job frame before the hello"),
        (ShardRequest::Job(job), Some(resident)) if job.context == resident.context => {
            Ok(serve_job(resident, job))
        }
        (ShardRequest::Job(_), Some(_)) => Err("a job frame for a foreign context"),
    }
}

fn control_reply(store_recovered: u64) -> ShardReply {
    ShardReply { outcome: ShardResult::Control, served_cached: false, store_recovered }
}

/// Builds the resident pipeline a hello describes.
fn open_resident(hello: ShardHello) -> Result<ResidentPipeline, WireFailure> {
    let pipeline = AnalysisPipeline::try_new(hello.chip.clone()).map_err(|err| WireFailure {
        message: PipelineError::Chip(err).to_string(),
        transient: false,
    })?;
    let pipeline = pipeline.with_thresholds(hello.thresholds);
    let pipeline = match &hello.store_path {
        // A store the child cannot open degrades to memory-only
        // serving, mirroring the resident service's policy.
        Some(path) => match pipeline.clone().with_store(path) {
            Ok(with_store) => with_store,
            Err(err) => {
                eprintln!(
                    "[worker] warning: store at {path} not attached ({err}); serving memory-only"
                );
                pipeline
            }
        },
        None => pipeline,
    };
    let pipeline = match hello.buggy {
        Some(bug) => pipeline.with_buggy_engine(bug),
        None => pipeline,
    };
    let recovered = pipeline.store_stats().map_or(0, |stats| stats.recovered);
    for key in &hello.quarantine {
        pipeline.quarantine_key(*key);
    }
    Ok(ResidentPipeline {
        context: crate::context_fingerprint(&hello.chip, &hello.thresholds),
        pipeline,
        recovered,
    })
}

/// Serves one [`ShardJob`] on the resident pipeline.
fn serve_job(resident: &mut ResidentPipeline, job: ShardJob) -> ShardReply {
    for key in &job.quarantine {
        resident.pipeline.quarantine_key(*key);
    }
    let Some(work) = job.work else {
        return control_reply(resident.recovered);
    };
    let mut policy = RunPolicy::default();
    if let Some(ms) = job.deadline_ms {
        policy = policy.with_deadline(Duration::from_millis(ms));
    }
    if let Some(budget) = job.budget {
        policy = policy.with_budget(SimBudget {
            max_events: budget.max_events,
            max_cycles: budget.max_cycles,
        });
    }
    // Warm means memory *or* disk: a rewarmed shard answers repeat
    // traffic from its store, which counts as a disk hit, not a memory
    // hit.
    let hits_before = resident.pipeline.cache_stats().hits;
    let disk_before = resident.pipeline.store_stats().map_or(0, |stats| stats.hits);
    let op = work.instantiate();
    let outcome = resident.pipeline.run_supervised(op.as_ref(), &policy, None);
    let served_cached = resident.pipeline.cache_stats().hits > hits_before
        || resident.pipeline.store_stats().map_or(0, |stats| stats.hits) > disk_before;
    let outcome = match outcome {
        Ok(result) => ShardResult::Ok { result: Box::new((*result).clone()) },
        Err(err) => ShardResult::Err {
            failure: WireFailure { message: err.to_string(), transient: err.is_transient() },
        },
    };
    ShardReply { outcome, served_cached, store_recovered: resident.recovered }
}

/// Spawns the heartbeat thread once per worker process: every `interval`
/// it writes a heartbeat frame — unless the fault library's mute flag is
/// set, which is exactly how [`HostileMode::Mute`](ascend_faults::HostileMode::Mute)
/// simulates a worker that is alive but looks dead.
fn ensure_heartbeats(stdout: &Arc<Mutex<std::io::Stdout>>, interval: Duration) {
    static STARTED: OnceLock<()> = OnceLock::new();
    let stdout = Arc::clone(stdout);
    STARTED.get_or_init(move || {
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if ascend_faults::heartbeats_muted() {
                continue;
            }
            let mut out = lock(&stdout);
            if write_frame(&mut *out, FrameKind::Heartbeat, &[]).is_err() {
                return; // parent is gone
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_ops::OpSpec;

    fn hello() -> ShardHello {
        ShardHello {
            quarantine: vec![1, 2, 3],
            ..ShardHello::new(
                ChipSpec::inference(),
                Thresholds::default(),
                &SandboxConfig::default(),
            )
        }
    }

    fn job(context: u64, spec: OpSpec) -> ShardJob {
        ShardJob {
            context,
            work: Some(WorkSpec::op(spec)),
            deadline_ms: Some(250),
            budget: Some(WireBudget { max_events: 10_000, max_cycles: 1e9 }),
            quarantine: vec![4, 5],
        }
    }

    #[test]
    fn shard_frames_round_trip() {
        let with_chaos = ShardHello {
            store_path: Some("shard-0.astr".to_string()),
            buggy: Some(BuggyEngine::new(7)),
            ..hello()
        };
        // What a sandbox worker is brought up with.
        let sandbox_hello =
            ShardHello::new(ChipSpec::training(), Thresholds::default(), &SandboxConfig::default());
        assert_eq!((sandbox_hello.store_path.as_ref(), sandbox_hello.buggy), (None, None));
        assert!(sandbox_hello.quarantine.is_empty());
        let control =
            ShardJob { work: None, deadline_ms: None, budget: None, ..job(9, OpSpec::gelu(64)) };
        for request in [
            ShardRequest::Hello(hello()),
            ShardRequest::Hello(with_chaos),
            ShardRequest::Hello(sandbox_hello),
            ShardRequest::Job(job(u64::MAX, OpSpec::matmul(16, 16, 16))),
            ShardRequest::Job(control),
        ] {
            let json = serde_json::to_string(&request).unwrap();
            let back: ShardRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(request, back);
        }

        let reply = ShardReply {
            outcome: ShardResult::Err {
                failure: WireFailure { message: "boom".to_string(), transient: true },
            },
            served_cached: true,
            store_recovered: 7,
        };
        let json = serde_json::to_string(&reply).unwrap();
        let back: ShardReply = serde_json::from_str(&json).unwrap();
        assert_eq!(reply, back);
    }

    #[test]
    fn a_job_frame_carries_no_chip() {
        let hello = ShardRequest::Hello(hello());
        let job = ShardRequest::Job(job(u64::MAX, OpSpec::add_relu(1 << 14)));
        let job_bytes = serde_json::to_string(&job).unwrap().len();
        assert!(job_bytes < 1024, "a job frame payload is {job_bytes} bytes");
        let hello_bytes = serde_json::to_string(&hello).unwrap().len();
        assert!(hello_bytes > job_bytes, "the chip rides the hello ({hello_bytes} bytes)");
    }

    #[test]
    fn only_a_job_on_the_hello_context_is_served() {
        let context = crate::context_fingerprint(&ChipSpec::inference(), &Thresholds::default());
        let work = || ShardRequest::Job(job(context, OpSpec::add_relu(1 << 10)));
        let foreign = || ShardRequest::Job(job(context ^ 1, OpSpec::add_relu(1 << 10)));

        let mut resident = None;
        assert!(serve_request(&mut resident, work()).is_err(), "a job before the hello");
        assert!(resident.is_none());

        let ack = serve_request(&mut resident, ShardRequest::Hello(hello())).unwrap();
        assert_eq!(ack.outcome, ShardResult::Control);
        assert_eq!(resident.as_ref().map(|r| r.context), Some(context));
        assert!(serve_request(&mut resident, foreign()).is_err(), "a foreign context");
        assert!(
            serve_request(&mut resident, ShardRequest::Hello(hello())).is_err(),
            "a second hello"
        );

        let served = serve_request(&mut resident, work()).unwrap();
        assert!(matches!(served.outcome, ShardResult::Ok { .. }), "{served:?}");
        assert!(serve_request(&mut resident, foreign()).is_err(), "a foreign context");
    }

    /// A child that has already exited: every reap returns its status.
    struct Exited(Option<ExitStatus>);

    impl Reap for Exited {
        fn kill_and_reap(&mut self) -> Option<ExitStatus> {
            self.0
        }

        fn reap_with_grace(&mut self) -> Option<ExitStatus> {
            self.0
        }
    }

    /// The stream-end taxonomy, in one place: each (event, exit status)
    /// pair gets the same verdict from the monitor and the idle check.
    #[cfg(unix)]
    #[test]
    fn stream_ends_get_one_verdict_in_both_places() {
        use std::os::unix::process::ExitStatusExt;
        use PipelineError::{WorkerCrashed, WorkerProtocol};
        let signalled = Some(ExitStatus::from_raw(9)); // killed by SIGKILL
        let exited = |code: i32| Some(ExitStatus::from_raw(code << 8));
        let frame = |kind, payload: &[u8]| {
            Some(ReadEvent::Frame(Frame { kind, payload: payload.to_vec() }))
        };
        let malformed = Some(ReadEvent::Malformed("bad frame magic".to_string()));
        // An event of `None` is a reader thread that hung up silently.
        type Verdict = fn(&PipelineError) -> bool;
        let cases: [(_, _, Verdict); 8] = [
            (malformed.clone(), signalled, |e| matches!(e, WorkerCrashed { signal: Some(9), .. })),
            (
                malformed,
                exited(0),
                |e| matches!(e, WorkerProtocol { detail } if detail.contains("magic")),
            ),
            (Some(ReadEvent::Eof), exited(3), |e| matches!(e, WorkerCrashed { code: Some(3), .. })),
            (Some(ReadEvent::Eof), exited(0), |e| matches!(e, WorkerProtocol { .. })),
            (frame(FrameKind::Job, b""), signalled, |e| matches!(e, WorkerProtocol { .. })),
            (frame(FrameKind::Outcome, b"{"), signalled, |e| matches!(e, WorkerProtocol { .. })),
            (None, signalled, |e| matches!(e, WorkerCrashed { signal: Some(9), .. })),
            (None, None, |e| matches!(e, WorkerProtocol { .. })),
        ];
        let limits = SandboxConfig::default();
        for (event, status, expected) in cases {
            for idle in [false, true] {
                let (sender, events) = std::sync::mpsc::channel();
                if let Some(event) = event.clone() {
                    sender.send(event).unwrap();
                }
                drop(sender);
                let mut child = Exited(status);
                let verdict = if idle {
                    idle_check(&events, &mut child).expect("a stream end is a death")
                } else {
                    await_reply(&limits, &events, &mut child, std::process::id(), None)
                        .expect_err("no reply arrives")
                };
                assert!(expected(&verdict), "{event:?}, {status:?}, idle {idle}: {verdict:?}");
            }
        }
    }

    #[test]
    fn reply_verdict_covers_every_row() {
        let result = AnalysisPipeline::new(ChipSpec::inference())
            .run(OpSpec::add_relu(1 << 10).instantiate().as_ref())
            .expect("add_relu runs");
        let key = result.fingerprint;
        let ok = || ShardResult::Ok { result: Box::new((*result).clone()) };
        let failed = || ShardResult::Err {
            failure: WireFailure { message: "budget exceeded".to_string(), transient: true },
        };
        // Each verdict, with the payload it must carry.
        let kind = |verdict: &ReplyVerdict| match verdict {
            ReplyVerdict::Serve(Some(served)) if **served == *result => "serve",
            ReplyVerdict::Serve(None) => "ack",
            ReplyVerdict::Fail(PipelineError::WorkerReported { message, transient: true })
                if message == "budget exceeded" =>
            {
                "fail"
            }
            ReplyVerdict::Retire(PipelineError::WorkerProtocol { .. }) => "retire",
            _ => "malformed verdict",
        };
        let rows = [
            ("result for the job's key", ok(), key, true, "serve"),
            ("result for another key", ok(), key ^ 1, true, "retire"),
            ("failure reported for a job", failed(), key, true, "fail"),
            ("control ack to a job", ShardResult::Control, key, true, "retire"),
            ("control ack to a ping", ShardResult::Control, key, false, "ack"),
            ("result for a ping", ok(), key, false, "retire"),
            ("failure for a ping", failed(), key, false, "retire"),
        ];
        for (name, outcome, job_key, has_ticket, expected) in rows {
            let verdict = reply_verdict(outcome, job_key, has_ticket);
            assert_eq!(kind(&verdict), expected, "{name}: got {verdict:?}");
        }
    }

    #[test]
    fn exit_classification_covers_the_taxonomy() {
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            let signalled = ExitStatus::from_raw(6); // killed by SIGABRT
            match classify_exit(Some(signalled), "eof") {
                PipelineError::WorkerCrashed { signal: Some(6), code: None } => {}
                other => panic!("expected signal crash, got {other:?}"),
            }
            let nonzero = ExitStatus::from_raw(3 << 8); // exited 3
            match classify_exit(Some(nonzero), "eof") {
                PipelineError::WorkerCrashed { code: Some(3), signal: None } => {}
                other => panic!("expected nonzero crash, got {other:?}"),
            }
            let clean = ExitStatus::from_raw(0);
            match classify_exit(Some(clean), "stream ended early") {
                PipelineError::WorkerProtocol { detail } => {
                    assert!(detail.contains("stream ended early"));
                }
                other => panic!("expected protocol violation, got {other:?}"),
            }
        }
        match classify_exit(None, "eof") {
            PipelineError::WorkerProtocol { .. } => {}
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }

    #[test]
    fn own_rss_is_readable() {
        let rss = rss_bytes(std::process::id()).expect("VmRSS of the current process");
        assert!(rss > 0, "a running process has resident pages");
    }
}
