//! Hard isolation: supervised worker *processes* for work the
//! cooperative defenses cannot contain.
//!
//! Everything the supervisor built so far — `catch_unwind`,
//! [`CancelToken`] polling, the watchdog budget, the circuit breaker —
//! assumes the work eventually yields control back. A build stage that
//! hot-loops without polling, a `std::process::abort()`, or a runaway
//! allocation defeats all of it and takes the whole service down. The
//! [`SandboxedExecutor`] moves each such work item into a disposable
//! child process and enforces from the *outside* what cooperation cannot:
//!
//! * **Heartbeats** — the child emits liveness frames from a dedicated
//!   thread; a silent child is killed → [`PipelineError::WorkerHung`].
//! * **Wall-clock kill** — independent of the engine's
//!   `DEADLINE_POLL_EVENTS` cadence; a child that hot-loops past the
//!   limit is killed → [`PipelineError::WorkerHung`].
//! * **RSS budget** — sampled from `/proc/<pid>/status`; a child growing
//!   past it is killed → [`PipelineError::WorkerOverMemory`].
//! * **Exit taxonomy** — death by signal or nonzero exit →
//!   [`PipelineError::WorkerCrashed`]; garbage, truncated, or
//!   wrong-version frames → [`PipelineError::WorkerProtocol`].
//!
//! Work crosses the process boundary as a [`WorkSpec`] — a serializable
//! description, not a `Box<dyn Operator>` — inside a length-prefixed,
//! digest-checked, versioned frame ([`WIRE_VERSION`]; result-store
//! segments share the same versioning convention). The child rebuilds the
//! operator, runs the ordinary in-process pipeline, and ships the
//! [`PipelineResult`] back the same way. The vendored JSON codec
//! round-trips `f64` exactly, so a sandboxed result is **bit-identical**
//! to the in-process result for the same work.
//!
//! Workers are *warm*: a child survives its job and is reused, up to a
//! bounded recycle count; any kill or protocol violation discards it.
//! All failures map into the existing [`RunPolicy`] retry / fallback /
//! breaker machinery via [`AnalysisPipeline::supervise_loop`] — with the
//! twist that hostile work is never eligible for the analytical fallback
//! (its `build` must not run in the parent).
//!
//! The child side is the *same binary* re-executed: [`worker_main`] runs
//! the frame loop, and [`run_worker_if_requested`] turns any `main` into
//! a worker when the [`WORKER_ENV`] marker is set.

use crate::supervisor::RunPolicy;
use crate::transport::{
    protocol_fault_bytes, read_frame, FrameTransport, PipeTransport, ShapedReader,
};
pub(crate) use crate::transport::{write_frame, Frame, FrameKind};
use crate::{lock, AnalysisPipeline, PipelineError, PipelineResult};
use ascend_faults::{FaultyTransport, HostileMode, HostileOp};
use ascend_ops::{OpSpec, Operator};
use ascend_roofline::Thresholds;
use ascend_sim::{CancelToken, SimBudget, SimError};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment marker that turns a re-exec of the current binary into a
/// sandbox worker (see [`run_worker_if_requested`]).
pub const WORKER_ENV: &str = "ASCEND_SANDBOX_WORKER";

// The ASBX frame codec lives in `crate::transport` (shared verbatim with
// the cluster tier); this module re-exports what its peers historically
// imported from here.

/// A serializable work item: what crosses the process boundary in place
/// of a `Box<dyn Operator>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkSpec {
    /// An ordinary operator, described by its [`OpSpec`].
    Op {
        /// The operator description.
        spec: OpSpec,
    },
    /// A hostile item from the fault library — spin, abort, allocation
    /// bomb, muted heartbeats, or a protocol fault. Hostile work is
    /// **never** eligible for the analytical fallback: its `build` must
    /// not run in the supervising process.
    Hostile {
        /// How the item misbehaves.
        mode: HostileMode,
    },
}

impl WorkSpec {
    /// Wraps an operator description.
    #[must_use]
    pub fn op(spec: OpSpec) -> WorkSpec {
        WorkSpec::Op { spec }
    }

    /// Wraps a hostile mode.
    #[must_use]
    pub fn hostile(mode: HostileMode) -> WorkSpec {
        WorkSpec::Hostile { mode }
    }

    /// Rebuilds the described operator. Safe in any process — hostility
    /// lives in `build`, which this does not call.
    #[must_use]
    pub fn instantiate(&self) -> Box<dyn Operator> {
        match self {
            WorkSpec::Op { spec } => spec.instantiate(),
            WorkSpec::Hostile { mode } => Box::new(HostileOp::new(*mode)),
        }
    }

    /// Whether the parent may degrade this work to the analytical
    /// estimate (which calls `build` in-process).
    fn fallback_eligible(&self) -> bool {
        matches!(self, WorkSpec::Op { .. })
    }

    /// The protocol fault the worker harness must apply to the result
    /// frame, if any (also honored by cluster shard workers).
    pub(crate) fn protocol_fault(&self) -> Option<HostileMode> {
        match self {
            WorkSpec::Hostile {
                mode: mode @ (HostileMode::GarbageStdout | HostileMode::TruncateFrame),
            } => Some(*mode),
            _ => None,
        }
    }
}

impl From<OpSpec> for WorkSpec {
    fn from(spec: OpSpec) -> WorkSpec {
        WorkSpec::Op { spec }
    }
}

/// Watchdog-budget image inside a job frame (`SimBudget` itself is not
/// serialized to keep the sim crate serde-free). Shared with the
/// cluster tier's shard-job frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct WireBudget {
    pub(crate) max_events: u64,
    pub(crate) max_cycles: f64,
}

/// Parent → child: everything one attempt needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JobFrame {
    chip: ascend_arch::ChipSpec,
    thresholds: Thresholds,
    work: WorkSpec,
    deadline_ms: Option<u64>,
    budget: Option<WireBudget>,
    heartbeat_ms: u64,
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

/// Child → parent: the outcome of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum WireOutcome {
    /// The pipeline ran to completion in the child.
    Ok {
        /// The result, bit-identical to an in-process run (boxed: it
        /// dwarfs the failure variant).
        result: Box<PipelineResult>,
    },
    /// The child's pipeline run failed; the error crosses rendered.
    Err {
        /// The rendered failure.
        failure: WireFailure,
    },
}

/// Tuning for the [`SandboxedExecutor`].
#[derive(Debug, Clone)]
pub struct SandboxConfig {
    /// Worker executable. `None` re-executes the current binary with the
    /// [`WORKER_ENV`] marker set — which only works when that binary's
    /// `main` calls [`run_worker_if_requested`]; tests point this at a
    /// dedicated worker binary instead.
    pub worker_cmd: Option<PathBuf>,
    /// Interval between the child's heartbeat frames.
    pub heartbeat_interval: Duration,
    /// Silence longer than this kills the child (missed-heartbeat →
    /// [`PipelineError::WorkerHung`]).
    pub heartbeat_timeout: Duration,
    /// Hard wall-clock limit per job, enforced by the parent regardless
    /// of whether the child polls anything ([`PipelineError::WorkerHung`]).
    pub wall_clock_limit: Duration,
    /// Resident-set budget for the child, sampled from
    /// `/proc/<pid>/status` ([`PipelineError::WorkerOverMemory`]).
    /// `None` disables the sampler.
    pub rss_limit_bytes: Option<u64>,
    /// Cadence of the parent's monitor loop (heartbeat, RSS, wall-clock
    /// and preemption checks).
    pub poll_interval: Duration,
    /// Jobs a warm worker may serve before it is retired and respawned.
    pub recycle_after: u64,
    /// Seeded wire faults shaped into this executor's worker pipe (the
    /// pool is treated as shard 0 of the plan). Shapers persist across
    /// worker respawns so each scheduled event fires at most once.
    pub wire_faults: Option<ascend_faults::WireFaultPlan>,
}

impl Default for SandboxConfig {
    fn default() -> Self {
        SandboxConfig {
            worker_cmd: None,
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(400),
            wall_clock_limit: Duration::from_secs(5),
            rss_limit_bytes: None,
            poll_interval: Duration::from_millis(5),
            recycle_after: 32,
            wire_faults: None,
        }
    }
}

/// Counters of everything the executor did and killed. Snapshot type —
/// cheap to copy into a `HealthSnapshot`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SandboxCounters {
    /// Jobs that returned a result frame with a successful outcome.
    pub jobs_ok: u64,
    /// Jobs whose child ran to completion and reported a typed failure.
    pub reported_failures: u64,
    /// Worker processes spawned.
    pub spawned: u64,
    /// Warm workers retired after their recycle bound.
    pub recycled: u64,
    /// Children killed for silence or wall-clock overrun.
    pub hung: u64,
    /// Children killed for exceeding the RSS budget.
    pub over_memory: u64,
    /// Children that died by signal or nonzero exit.
    pub crashed: u64,
    /// Frame-protocol violations (garbage, truncation, version or digest
    /// mismatch, result/fingerprint mismatch).
    pub protocol: u64,
    /// Children killed because the caller's [`CancelToken`] fired
    /// (drain preemption — not a health signal).
    pub preempted: u64,
}

impl SandboxCounters {
    /// Children the parent had to kill or that died on their own —
    /// everything except clean outcomes.
    #[must_use]
    pub fn kills(&self) -> u64 {
        self.hung + self.over_memory + self.crashed + self.protocol + self.preempted
    }
}

#[derive(Debug, Default)]
struct CounterCells {
    jobs_ok: AtomicU64,
    reported_failures: AtomicU64,
    spawned: AtomicU64,
    recycled: AtomicU64,
    hung: AtomicU64,
    over_memory: AtomicU64,
    crashed: AtomicU64,
    protocol: AtomicU64,
    preempted: AtomicU64,
}

impl CounterCells {
    fn snapshot(&self) -> SandboxCounters {
        SandboxCounters {
            jobs_ok: self.jobs_ok.load(Ordering::Relaxed),
            reported_failures: self.reported_failures.load(Ordering::Relaxed),
            spawned: self.spawned.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            hung: self.hung.load(Ordering::Relaxed),
            over_memory: self.over_memory.load(Ordering::Relaxed),
            crashed: self.crashed.load(Ordering::Relaxed),
            protocol: self.protocol.load(Ordering::Relaxed),
            preempted: self.preempted.load(Ordering::Relaxed),
        }
    }
}

/// What the reader thread saw on the child's stdout.
#[derive(Debug)]
pub(crate) enum ReadEvent {
    Frame(Frame),
    Malformed(String),
    Eof,
}

/// Spawns `program` as a framed worker child with `env_marker` set:
/// stdin piped for job frames (behind a [`PipeTransport`]), stdout piped
/// into a reader thread that forwards [`ReadEvent`]s, stderr inherited.
/// The shared bring-up for both the sandbox pool and the cluster tier's
/// shard processes. When `faulty` is given, both directions of the pipe
/// are shaped by its wire-fault shapers.
pub(crate) fn spawn_framed_child(
    program: &std::path::Path,
    env_marker: &str,
    faulty: Option<&FaultyTransport>,
) -> Result<(Child, PipeTransport<ChildStdin>, Receiver<ReadEvent>), PipelineError> {
    let mut child = Command::new(program)
        .env(env_marker, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|err| PipelineError::WorkerProtocol {
            detail: format!("failed to spawn worker {}: {err}", program.display()),
        })?;
    let raw_stdin = child.stdin.take().ok_or_else(|| PipelineError::WorkerProtocol {
        detail: "spawned worker has no stdin handle".to_string(),
    })?;
    let stdin = match faulty {
        Some(faulty) => PipeTransport::shaped(raw_stdin, faulty.to_worker()),
        None => PipeTransport::new(raw_stdin),
    };
    let stdout = child.stdout.take().ok_or_else(|| PipelineError::WorkerProtocol {
        detail: "spawned worker has no stdout handle".to_string(),
    })?;
    let mut stdout: Box<dyn Read + Send> = match faulty {
        Some(faulty) => Box::new(ShapedReader::new(stdout, faulty.from_worker())),
        None => Box::new(stdout),
    };
    let (sender, events) = std::sync::mpsc::channel();
    std::thread::spawn(move || loop {
        match read_frame(&mut stdout) {
            Ok(Some(frame)) => {
                if sender.send(ReadEvent::Frame(frame)).is_err() {
                    return; // monitor gone; worker is being dropped
                }
            }
            Ok(None) => {
                let _ = sender.send(ReadEvent::Eof);
                return;
            }
            Err(detail) => {
                let _ = sender.send(ReadEvent::Malformed(detail));
                return;
            }
        }
    });
    Ok((child, stdin, events))
}

/// One live worker process plus its reader-thread channel.
#[derive(Debug)]
struct Worker {
    child: Child,
    stdin: PipeTransport<ChildStdin>,
    events: Receiver<ReadEvent>,
    jobs_done: u64,
}

impl Worker {
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills (idempotently) and reaps the child, returning its exit
    /// status. A child that already exited keeps its original status —
    /// SIGKILL on a zombie is a no-op.
    fn kill_and_reap(&mut self) -> Option<ExitStatus> {
        let _ = self.child.kill();
        self.child.wait().ok()
    }

    /// Reaps a child believed to have exited on its own, giving it
    /// `grace` to finish dying before falling back to a kill (so a
    /// voluntary exit keeps its real status instead of SIGKILL).
    fn reap_with_grace(&mut self, grace: Duration) -> Option<ExitStatus> {
        let deadline = Instant::now() + grace;
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

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
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
/// result frame is a protocol violation (the child broke its promise,
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

/// Executes [`WorkSpec`]s in supervised, disposable child processes.
///
/// Cloning is cheap and shares the worker pool, the counters, and the
/// underlying pipeline (whose result cache sandboxed successes feed, so
/// the in-process and sandboxed tiers answer each other's cache hits
/// with bit-identical results).
#[derive(Debug, Clone)]
pub struct SandboxedExecutor {
    pipeline: AnalysisPipeline,
    config: Arc<SandboxConfig>,
    pool: Arc<Mutex<Vec<Worker>>>,
    counters: Arc<CounterCells>,
    /// Built once from `config.wire_faults` and shared across every
    /// worker this executor spawns, so each scheduled wire fault fires at
    /// most once no matter how many workers the pool cycles through.
    faulty: Option<FaultyTransport>,
}

impl SandboxedExecutor {
    /// An executor running work against `pipeline`'s chip and thresholds
    /// under `config`.
    #[must_use]
    pub fn new(pipeline: AnalysisPipeline, config: SandboxConfig) -> Self {
        let faulty = config.wire_faults.as_ref().map(|plan| FaultyTransport::new(plan, 0));
        SandboxedExecutor {
            pipeline,
            config: Arc::new(config),
            pool: Arc::new(Mutex::new(Vec::new())),
            counters: Arc::new(CounterCells::default()),
            faulty,
        }
    }

    /// The pipeline whose configuration (and cache) this executor uses.
    #[must_use]
    pub fn pipeline(&self) -> &AnalysisPipeline {
        &self.pipeline
    }

    /// Snapshot of the executor's counters.
    #[must_use]
    pub fn counters(&self) -> SandboxCounters {
        self.counters.snapshot()
    }

    /// Runs `work` in a sandboxed child under the full supervision
    /// machinery: the memory and disk cache tiers are consulted first
    /// (the same lookup the in-process paths use), kills and crashes
    /// are retried / fed to the breaker / degraded per `policy` exactly
    /// like in-process transient failures, and a signalled `cancel`
    /// token kills the child and reports preemption without touching the
    /// breaker or the fallback.
    ///
    /// # Errors
    ///
    /// The `Worker*` variants of [`PipelineError`] for containment
    /// failures, plus everything the in-process supervised path reports.
    pub fn run_supervised(
        &self,
        work: &WorkSpec,
        policy: &RunPolicy,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<PipelineResult>, PipelineError> {
        let probe = work.instantiate();
        let key = self.pipeline.cache_key(probe.as_ref());
        if let Some(found) = self.pipeline.lookup(key) {
            return Ok(found);
        }
        let fallback_op: Option<&dyn Operator> =
            if work.fallback_eligible() { Some(probe.as_ref()) } else { None };
        self.pipeline.supervise_loop(key, policy, cancel, fallback_op, &mut || {
            self.execute_raw(work, key, policy, cancel)
        })
    }

    /// One sandboxed attempt: checkout (or spawn) a warm worker, ship
    /// the job frame, monitor until a result frame or a kill condition.
    fn execute_raw(
        &self,
        work: &WorkSpec,
        key: u64,
        policy: &RunPolicy,
        cancel: Option<&CancelToken>,
    ) -> Result<PipelineResult, PipelineError> {
        let mut worker = self.checkout()?;
        let job = JobFrame {
            chip: self.pipeline.chip().clone(),
            thresholds: *self.pipeline.thresholds(),
            work: *work,
            deadline_ms: policy.deadline.map(|d| d.as_millis() as u64),
            budget: policy
                .budget
                .map(|b| WireBudget { max_events: b.max_events, max_cycles: b.max_cycles }),
            heartbeat_ms: self.config.heartbeat_interval.as_millis().max(1) as u64,
        };
        let payload = serde_json::to_string(&job).map_err(|err| PipelineError::WorkerProtocol {
            detail: format!("job frame serialization failed: {err}"),
        })?;
        if let Err(err) = worker.stdin.send(FrameKind::Job, payload.as_bytes()) {
            // The warm worker died between jobs; its exit status says how.
            let status = worker.kill_and_reap();
            return Err(
                self.record_kill(classify_exit(status, &format!("job frame write failed: {err}")))
            );
        }
        self.monitor(worker, key, cancel).map_err(|err| self.record_kill(err))
    }

    /// Bumps the counter matching a sandboxed failure. The monitor
    /// produces `Runtime(Cancelled)` only for caller preemption, so that
    /// variant maps to the preemption counter rather than a health one.
    fn record_kill(&self, err: PipelineError) -> PipelineError {
        let cell = match &err {
            PipelineError::Runtime(SimError::Cancelled { .. }) => &self.counters.preempted,
            PipelineError::WorkerHung { .. } => &self.counters.hung,
            PipelineError::WorkerOverMemory { .. } => &self.counters.over_memory,
            PipelineError::WorkerCrashed { .. } => &self.counters.crashed,
            PipelineError::WorkerProtocol { .. } => &self.counters.protocol,
            PipelineError::WorkerReported { .. } => &self.counters.reported_failures,
            _ => return err,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        err
    }

    /// The parent-side monitor loop for one in-flight job.
    fn monitor(
        &self,
        mut worker: Worker,
        key: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<PipelineResult, PipelineError> {
        let started = Instant::now();
        let wall_deadline = started + self.config.wall_clock_limit;
        let mut last_beat = started;
        let mut heartbeats = 0u64;
        loop {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                // Forceful preemption: kill the child and report the same
                // error shape the cooperative in-process path produces, so
                // drain logic upstream cannot tell the tiers apart (and
                // the breaker/fallback exemption for preemption applies).
                worker.kill_and_reap();
                return Err(PipelineError::Runtime(SimError::preempted_at("sandboxed worker")));
            }
            let now = Instant::now();
            if now >= wall_deadline {
                worker.kill_and_reap();
                return Err(PipelineError::WorkerHung { waited: now - started, heartbeats });
            }
            if now.duration_since(last_beat) >= self.config.heartbeat_timeout {
                worker.kill_and_reap();
                return Err(PipelineError::WorkerHung { waited: now - started, heartbeats });
            }
            if let Some(limit) = self.config.rss_limit_bytes {
                if let Some(rss) = rss_bytes(worker.pid()) {
                    if rss > limit {
                        worker.kill_and_reap();
                        return Err(PipelineError::WorkerOverMemory {
                            rss_bytes: rss,
                            budget_bytes: limit,
                        });
                    }
                }
            }
            match worker.events.recv_timeout(self.config.poll_interval) {
                Ok(ReadEvent::Frame(frame)) => match frame.kind {
                    FrameKind::Heartbeat => {
                        heartbeats += 1;
                        last_beat = Instant::now();
                    }
                    FrameKind::Outcome => {
                        return self.accept_outcome(worker, &frame.payload, key);
                    }
                    FrameKind::Job => {
                        worker.kill_and_reap();
                        return Err(PipelineError::WorkerProtocol {
                            detail: "worker sent a job frame to its parent".to_string(),
                        });
                    }
                },
                Ok(ReadEvent::Malformed(detail)) => {
                    // Garbage or a torn frame. Give a voluntarily-exiting
                    // child a moment so its own exit status survives.
                    let status = worker.reap_with_grace(Duration::from_millis(250));
                    let err = classify_exit(status, &detail);
                    // A malformed *stream* is a protocol violation even
                    // if the child then exited 0; only an actual signal
                    // or nonzero exit outranks it.
                    return Err(match err {
                        PipelineError::WorkerCrashed { .. } => err,
                        _ => PipelineError::WorkerProtocol { detail },
                    });
                }
                Ok(ReadEvent::Eof) => {
                    let status = worker.reap_with_grace(Duration::from_millis(250));
                    return Err(classify_exit(status, "stream ended before a result frame"));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    let status = worker.kill_and_reap();
                    return Err(classify_exit(status, "reader thread lost the stream"));
                }
            }
        }
    }

    /// Parses and validates a result frame, recycling or pooling the
    /// surviving worker.
    fn accept_outcome(
        &self,
        mut worker: Worker,
        payload: &[u8],
        key: u64,
    ) -> Result<PipelineResult, PipelineError> {
        let outcome: Option<WireOutcome> =
            std::str::from_utf8(payload).ok().and_then(|text| serde_json::from_str(text).ok());
        let Some(outcome) = outcome else {
            worker.kill_and_reap();
            return Err(PipelineError::WorkerProtocol {
                detail: "result frame payload did not parse as an outcome".to_string(),
            });
        };
        worker.jobs_done += 1;
        if worker.jobs_done >= self.config.recycle_after {
            self.counters.recycled.fetch_add(1, Ordering::Relaxed);
            drop(worker); // Drop kills and reaps
        } else {
            lock(&self.pool).push(worker);
        }
        match outcome {
            WireOutcome::Ok { result } => {
                if result.fingerprint != key {
                    return Err(PipelineError::WorkerProtocol {
                        detail: format!(
                            "result fingerprint {:#018x} does not match the job's {key:#018x}",
                            result.fingerprint
                        ),
                    });
                }
                self.counters.jobs_ok.fetch_add(1, Ordering::Relaxed);
                Ok(*result)
            }
            WireOutcome::Err { failure } => Err(PipelineError::WorkerReported {
                message: failure.message,
                transient: failure.transient,
            }),
        }
    }

    /// Pops a warm worker or spawns a fresh one.
    fn checkout(&self) -> Result<Worker, PipelineError> {
        if let Some(worker) = lock(&self.pool).pop() {
            return Ok(worker);
        }
        self.spawn_worker()
    }

    fn spawn_worker(&self) -> Result<Worker, PipelineError> {
        let program = match &self.config.worker_cmd {
            Some(path) => path.clone(),
            None => std::env::current_exe().map_err(|err| PipelineError::WorkerProtocol {
                detail: format!("cannot locate the current executable: {err}"),
            })?,
        };
        let (child, stdin, events) =
            spawn_framed_child(&program, WORKER_ENV, self.faulty.as_ref())?;
        self.counters.spawned.fetch_add(1, Ordering::Relaxed);
        Ok(Worker { child, stdin, events, jobs_done: 0 })
    }

    /// Kills every pooled warm worker (drain hygiene; in-flight workers
    /// are owned by their monitor loops and die through preemption).
    pub fn shutdown(&self) {
        lock(&self.pool).clear(); // Worker::drop kills and reaps
    }
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// If the [`WORKER_ENV`] marker is set, runs the sandbox worker loop; if
/// the cluster tier's [`CLUSTER_SHARD_ENV`](crate::CLUSTER_SHARD_ENV)
/// marker is set, runs the shard worker loop instead. Either way it
/// never returns. Call this at the top of `main` in any binary that
/// should be usable as a re-exec worker host; it is a no-op otherwise.
pub fn run_worker_if_requested() {
    if std::env::var_os(WORKER_ENV).is_some_and(|value| value == "1") {
        worker_main();
    }
    if std::env::var_os(crate::cluster::CLUSTER_SHARD_ENV).is_some_and(|value| value == "1") {
        crate::cluster::shard_worker_main();
    }
}

/// The sandbox worker loop: read job frames from stdin, run them through
/// an ordinary in-process pipeline, write result frames (and heartbeats,
/// from a dedicated thread) to stdout. Exits 0 on clean EOF, 3 on a
/// malformed input stream. Never returns.
pub fn worker_main() -> ! {
    let stdout: Arc<Mutex<std::io::Stdout>> = Arc::new(Mutex::new(std::io::stdout()));
    let mut stdin = std::io::stdin().lock();
    loop {
        let frame = match read_frame(&mut stdin) {
            Ok(Some(frame)) => frame,
            Ok(None) => std::process::exit(0),
            Err(detail) => {
                eprintln!("[sandbox worker] malformed input: {detail}");
                std::process::exit(3);
            }
        };
        if frame.kind != FrameKind::Job {
            eprintln!("[sandbox worker] unexpected frame kind (want job)");
            std::process::exit(3);
        }
        let job: JobFrame = match std::str::from_utf8(&frame.payload)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok())
        {
            Some(job) => job,
            None => {
                eprintln!("[sandbox worker] job frame did not parse");
                std::process::exit(3);
            }
        };
        ensure_heartbeats(&stdout, Duration::from_millis(job.heartbeat_ms));
        let fault = job.work.protocol_fault();
        let outcome = run_job(job);
        let payload = match serde_json::to_string(&outcome) {
            Ok(payload) => payload,
            Err(err) => {
                eprintln!("[sandbox worker] outcome serialization failed: {err}");
                std::process::exit(3);
            }
        };
        let mut out = lock(&stdout);
        match fault.and_then(|mode| {
            // Protocol faults route through the transport-fault vocabulary
            // (byte parity with the historical bytes is pinned in
            // `transport::tests`): garbage is wrong magic from the first
            // byte; truncation is a Tear shipping the frame's first half —
            // the shape a crash between write and flush leaves.
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

/// Runs one job through an ordinary in-process pipeline.
fn run_job(job: JobFrame) -> WireOutcome {
    let pipeline = match AnalysisPipeline::try_new(job.chip) {
        Ok(pipeline) => pipeline.with_thresholds(job.thresholds),
        Err(err) => {
            return WireOutcome::Err {
                failure: WireFailure {
                    message: PipelineError::Chip(err).to_string(),
                    transient: false,
                },
            }
        }
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
    let op = job.work.instantiate();
    match pipeline.run_supervised(op.as_ref(), &policy, None) {
        Ok(result) => WireOutcome::Ok { result: Box::new((*result).clone()) },
        Err(err) => WireOutcome::Err {
            failure: WireFailure { message: err.to_string(), transient: err.is_transient() },
        },
    }
}

/// Spawns the heartbeat thread once per worker process: every `interval`
/// it writes a heartbeat frame — unless the fault library's mute flag is
/// set, which is exactly how [`HostileMode::Mute`] simulates a worker
/// that is alive but looks dead. (Shared with cluster shard workers —
/// a process is one kind of worker or the other, never both.)
pub(crate) fn ensure_heartbeats(stdout: &Arc<Mutex<std::io::Stdout>>, interval: Duration) {
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
    use crate::transport::{encode_frame, WIRE_VERSION};
    use ascend_ops::OpSpec;

    #[test]
    fn frames_round_trip() {
        let payload = b"{\"hello\":1}".to_vec();
        let mut buffer = Vec::new();
        write_frame(&mut buffer, FrameKind::Outcome, &payload).unwrap();
        write_frame(&mut buffer, FrameKind::Heartbeat, &[]).unwrap();
        let mut reader = buffer.as_slice();
        let first = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(first.kind, FrameKind::Outcome);
        assert_eq!(first.payload, payload);
        let second = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(second.kind, FrameKind::Heartbeat);
        assert!(second.payload.is_empty());
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF at a frame boundary");
    }

    #[test]
    fn corrupted_frames_are_rejected_with_cause() {
        let mut frame = encode_frame(FrameKind::Job, b"payload");
        frame[15] ^= 0xFF; // flip a payload byte: digest mismatch
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");

        let mut wrong_version = encode_frame(FrameKind::Job, b"payload");
        wrong_version[4] = 0xFF;
        let err = read_frame(&mut wrong_version.as_slice()).unwrap_err();
        assert!(err.contains("unsupported frame version"), "{err}");
        assert!(err.contains(&WIRE_VERSION.to_string()), "{err}");

        let garbage = b"XXXXnot a frame".to_vec();
        let err = read_frame(&mut garbage.as_slice()).unwrap_err();
        assert!(err.contains("bad frame magic"), "{err}");

        let full = encode_frame(FrameKind::Outcome, b"some payload bytes");
        let truncated = &full[..full.len() / 2];
        let err = read_frame(&mut &truncated[..]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        let mut bad_kind = encode_frame(FrameKind::Job, b"");
        bad_kind[6] = 99;
        let err = read_frame(&mut bad_kind.as_slice()).unwrap_err();
        assert!(err.contains("unknown frame kind"), "{err}");
    }

    #[test]
    fn work_specs_serialize_and_instantiate() {
        let specs = [
            WorkSpec::op(OpSpec::add_relu(1 << 12)),
            WorkSpec::hostile(HostileMode::Spin),
            WorkSpec::hostile(HostileMode::Grow { megabytes: 48 }),
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "{json}");
        }
        let op = WorkSpec::op(OpSpec::add_relu(1 << 12)).instantiate();
        assert_eq!(op.fingerprint(), OpSpec::add_relu(1 << 12).instantiate().fingerprint());
        assert!(WorkSpec::op(OpSpec::add_relu(4)).fallback_eligible());
        assert!(!WorkSpec::hostile(HostileMode::Abort).fallback_eligible());
        assert_eq!(
            WorkSpec::hostile(HostileMode::GarbageStdout).protocol_fault(),
            Some(HostileMode::GarbageStdout)
        );
        assert_eq!(WorkSpec::hostile(HostileMode::Spin).protocol_fault(), None);
    }

    #[test]
    fn job_frames_round_trip() {
        let job = JobFrame {
            chip: ascend_arch::ChipSpec::inference(),
            thresholds: Thresholds::default(),
            work: WorkSpec::op(OpSpec::matmul(16, 16, 16)),
            deadline_ms: Some(250),
            budget: Some(WireBudget { max_events: 10_000, max_cycles: 1e9 }),
            heartbeat_ms: 20,
        };
        let json = serde_json::to_string(&job).unwrap();
        let back: JobFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(job, back);
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
