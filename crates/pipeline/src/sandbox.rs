//! Hard isolation: a pool of supervised worker *processes* for work the
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
//! The children are the same hosts the cluster tier runs as shards (see
//! `worker.rs`): each is brought up with a hello carrying the pipeline's
//! chip and thresholds, builds one resident pipeline from it, and then
//! serves job frames carrying a [`WorkSpec`] — a serializable
//! description, not a `Box<dyn Operator>` — inside a length-prefixed,
//! digest-checked, versioned frame ([`WIRE_VERSION`](crate::WIRE_VERSION)).
//! The vendored JSON codec round-trips `f64` exactly, so a sandboxed
//! result is **bit-identical** to the in-process result for the same
//! work.
//!
//! Workers are *warm*: a child survives its job and is reused, up to
//! [`SandboxConfig::recycle_after`] jobs, so its resident pipeline caches
//! at most that many results; any kill or protocol violation discards
//! it, and a pooled child that died while idle is discarded at checkout.
//! Unlike a shard, a worker has no ring affinity: any pooled child
//! serves any job. All failures map into the existing [`RunPolicy`]
//! retry / fallback / breaker machinery via
//! [`AnalysisPipeline::supervise_loop`] — retries run on a fresh child,
//! never by failing over to a peer, and hostile work is never eligible
//! for the analytical fallback (its `build` must not run in the parent).

use crate::supervisor::RunPolicy;
use crate::transport::FrameKind;
use crate::worker::{
    await_reply, classify_exit, encode, idle_check, reply_verdict, start_worker, worker_program,
    ReadEvent, Reap, ReplyVerdict, ShardHello, ShardJob, ShardRequest, WorkerProcess,
};
use crate::{lock, AnalysisPipeline, PipelineError, PipelineResult};
use ascend_faults::{FaultyTransport, HostileMode, HostileOp};
use ascend_ops::{OpSpec, Operator};
use ascend_sim::{CancelToken, SimError};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

    /// The protocol fault the worker loop must apply to the reply frame,
    /// if any (sandbox workers and cluster shards alike).
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
    /// Jobs a warm worker may serve before it is retired and respawned;
    /// it also bounds the results a worker's resident pipeline caches.
    /// Applies to the sandbox pool only: cluster shards are long-lived.
    pub recycle_after: u64,
    /// Seeded wire faults shaped into the worker pipes (the sandbox pool
    /// is shard 0 of the plan; a cluster shapes shard `i`'s pipes as
    /// shard `i`). Shapers persist across worker respawns so each
    /// scheduled event fires at most once.
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
    /// Worker processes spawned and brought up (hello acknowledged).
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

/// One pooled worker: its process, its reader channel, and the jobs it
/// has served.
#[derive(Debug)]
struct Worker {
    process: WorkerProcess,
    events: Receiver<ReadEvent>,
    jobs_done: u64,
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
            // The child ran the stages: there is no stage clock to book.
            let result =
                self.execute_raw(work, key, policy, cancel).map_err(|err| self.record_kill(err))?;
            Ok((result, None))
        })
    }

    /// One sandboxed attempt: check out (or start) a warm worker, send
    /// the job frame, monitor until a reply or a kill condition, and pool
    /// or retire the worker if it served the frame.
    fn execute_raw(
        &self,
        work: &WorkSpec,
        key: u64,
        policy: &RunPolicy,
        cancel: Option<&CancelToken>,
    ) -> Result<PipelineResult, PipelineError> {
        let mut worker = self.checkout(cancel)?;
        let payload = encode(&ShardRequest::Job(ShardJob {
            context: self.pipeline.context,
            work: Some(*work),
            deadline_ms: policy.deadline.map(|d| d.as_millis() as u64),
            budget: policy.budget.map(Into::into),
            quarantine: Vec::new(),
        }))?;
        if let Err(err) = worker.process.stdin.send(FrameKind::Job, payload.as_bytes()) {
            let status = worker.process.kill_and_reap();
            return Err(classify_exit(status, &format!("job frame write failed: {err}")));
        }
        let pid = worker.process.pid();
        let reply = await_reply(&self.config, &worker.events, &mut worker.process, pid, cancel)?;
        // A worker whose reply breaks protocol is dropped (killed), never
        // pooled: its stream can no longer be trusted to line up.
        let outcome = match reply_verdict(reply.outcome, key, true) {
            ReplyVerdict::Serve(Some(result)) => Ok(*result),
            ReplyVerdict::Fail(err) => Err(err),
            ReplyVerdict::Retire(err) => return Err(err),
            ReplyVerdict::Serve(None) => unreachable!("a work job is never served an ack"),
        };
        worker.jobs_done += 1;
        if worker.jobs_done >= self.config.recycle_after {
            self.counters.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            lock(&self.pool).push(worker);
        }
        if outcome.is_ok() {
            self.counters.jobs_ok.fetch_add(1, Ordering::Relaxed);
        }
        outcome
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

    /// Pops a warm worker that passes the idle check, or starts a fresh
    /// one. A pooled worker that died while idle is reaped, classified
    /// and counted here instead of failing the next job's frame write.
    fn checkout(&self, cancel: Option<&CancelToken>) -> Result<Worker, PipelineError> {
        loop {
            let pooled = lock(&self.pool).pop();
            let Some(mut worker) = pooled else { break };
            match idle_check(&worker.events, &mut worker.process) {
                None => return Ok(worker),
                Some(death) => drop(self.record_kill(death)),
            }
        }
        let hello = ShardHello::new(
            self.pipeline.chip().clone(),
            *self.pipeline.thresholds(),
            &self.config,
        );
        let program = worker_program(&self.config)?;
        let (process, events, _) =
            start_worker(&program, self.faulty.as_ref(), &self.config, hello, cancel)?;
        self.counters.spawned.fetch_add(1, Ordering::Relaxed);
        Ok(Worker { process, events, jobs_done: 0 })
    }

    /// Kills every pooled warm worker (drain hygiene; in-flight workers
    /// are owned by their monitor loops and die through preemption).
    pub fn shutdown(&self) {
        lock(&self.pool).clear(); // WorkerProcess::drop kills and reaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{encode_frame, read_frame, write_frame, WIRE_VERSION};

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
    fn checkout_never_hands_out_a_worker_that_died_while_idle() {
        let exited = std::path::Path::new("/bin/true");
        let config = SandboxConfig { worker_cmd: Some(exited.into()), ..SandboxConfig::default() };
        let executor = SandboxedExecutor::new(
            AnalysisPipeline::new(ascend_arch::ChipSpec::inference()),
            config,
        );
        let (process, reader) = crate::worker::spawn_framed_child(exited, None).unwrap();
        // Pool it with the end of its stream already delivered, exactly
        // as a pooled worker killed between jobs looks at checkout.
        let end = reader.recv_timeout(Duration::from_secs(10)).expect("the child's stream ends");
        assert!(matches!(end, ReadEvent::Eof), "{end:?}");
        let (sender, events) = std::sync::mpsc::channel();
        sender.send(end).unwrap();
        lock(&executor.pool).push(Worker { process, events, jobs_done: 1 });

        // The replacement is `/bin/true` too, so it fails its hello.
        let fresh = executor.checkout(None).map(|worker| worker.process.pid());
        assert!(matches!(fresh, Err(PipelineError::WorkerProtocol { .. })), "{fresh:?}");
        assert!(lock(&executor.pool).is_empty());
        let counters = executor.counters();
        assert_eq!(counters.protocol, 1, "the idle death (clean exit, no reply) is counted");
        assert_eq!(counters.spawned, 0);
    }
}
