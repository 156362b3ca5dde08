//! The resident analysis service: a long-lived front end over
//! [`AnalysisPipeline`] for callers that *keep* sending work.
//!
//! The batch APIs answer "run these N items"; a service answers "keep
//! answering whatever arrives", which changes the failure mode: when
//! requests arrive faster than they complete, something has to give, and
//! it must never be silent. [`AnalysisService`] makes the choice
//! explicit:
//!
//! * **Bounded admission.** [`submit`](AnalysisService::submit) either
//!   accepts a request into a fixed-capacity queue and returns a
//!   [`Ticket`], or rejects it *immediately* with
//!   [`PipelineError::Overloaded`] carrying the observed depth and a
//!   retry hint. The queue can never grow without bound, and a request
//!   is never dropped without its submitter holding an error.
//! * **Deadline-aware shedding.** A request whose per-item deadline
//!   lapsed while it sat in the queue is shed *at dequeue* with
//!   [`PipelineError::DeadlineShed`] — executing it would burn a worker
//!   on an answer nobody is waiting for.
//! * **Priority classes.** [`Priority::Interactive`] requests dequeue
//!   before [`Priority::Sweep`] ones; latency percentiles are tracked
//!   per class.
//! * **Hedged retry for stragglers.** With
//!   [`ServiceConfig::hedge_after`] set, the first attempt runs under a
//!   tightened deadline; if it straggles past it, the service counts a
//!   hedge and re-runs the item under the full policy.
//! * **Graceful drain.** [`drain`](AnalysisService::drain) stops
//!   admissions, flushes every queued ticket with
//!   [`PipelineError::ServiceStopped`], cancels in-flight attempts
//!   through the shared [`CancelToken`], and waits (bounded) for workers
//!   to quiesce. Every accepted ticket reaches **exactly one** terminal
//!   state — the service's core invariant, upheld even when a worker
//!   panics mid-item.
//! * **Observability.** [`health`](AnalysisService::health) returns a
//!   [`HealthSnapshot`] (depth, in-flight, shed/hedge/panic counters,
//!   per-class p50/p95/p99) cheap enough for a readiness probe.
//! * **Isolation tiers.** Each priority class executes
//!   [`Isolation::InProcess`] (the default) or
//!   [`Isolation::Sandboxed`] — spec-based requests of a sandboxed
//!   class run in supervised worker processes with heartbeats, a
//!   wall-clock kill, and an RSS budget, so a hostile item costs one
//!   child process instead of the service. Sandbox kill counters ride
//!   along in the health snapshot.
//!
//! # Examples
//!
//! ```
//! use ascend_arch::ChipSpec;
//! use ascend_ops::AddRelu;
//! use ascend_pipeline::{AnalysisPipeline, AnalysisService, Request, ServiceConfig};
//!
//! let service = AnalysisService::start(
//!     AnalysisPipeline::new(ChipSpec::training()),
//!     ServiceConfig::default(),
//! );
//! let ticket = service.submit(Request::interactive(Box::new(AddRelu::new(1 << 12))))?;
//! let result = ticket.wait()?;
//! assert!(result.cycles() > 0.0);
//! let report = service.drain(std::time::Duration::from_secs(5));
//! assert!(report.quiesced);
//! # Ok::<(), ascend_pipeline::PipelineError>(())
//! ```

use crate::error::panic_message;
use crate::sandbox::{SandboxConfig, SandboxCounters, SandboxedExecutor, WorkSpec};
use crate::stats::{LatencyReservoir, LatencySummary};
use crate::{
    lock, AnalysisPipeline, CacheStats, EngineThroughput, FidelityMix, PipelineError,
    PipelineResult, RunPolicy, StoreStats,
};
use ascend_ops::Operator;
use ascend_sim::CancelToken;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduling class of a service request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Latency-sensitive: dequeued before any sweep work.
    Interactive,
    /// Throughput work (parameter sweeps, batch re-analysis): runs when
    /// no interactive request is waiting.
    Sweep,
}

impl Priority {
    /// Number of scheduling classes (sizes per-class tables such as
    /// [`AuditPolicy::class_rates`](crate::AuditPolicy::class_rates)).
    pub const COUNT: usize = 2;

    /// Dense index of this class (`Interactive` = 0, `Sweep` = 1) into
    /// per-class tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Sweep => 1,
        }
    }
}

/// Where a priority class executes its work.
///
/// Only spec-based requests ([`Request::from_spec`] and friends) can
/// actually cross a process boundary; a `Box<dyn Operator>` request runs
/// in-process regardless of its class's tier, because a trait object
/// cannot be serialized into a job frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Isolation {
    /// The thread-pool path: cooperative deadlines, `catch_unwind`, the
    /// watchdog budget. Fast, but defenseless against non-cooperative
    /// work.
    #[default]
    InProcess,
    /// The hard-isolation path: work runs in a supervised child process
    /// with heartbeats, a wall-clock kill, and an RSS budget (see
    /// [`SandboxedExecutor`]).
    Sandboxed,
}

/// The payload of a request: either an owned trait object (in-process
/// only) or a serializable [`WorkSpec`] (eligible for sandboxing).
#[derive(Debug)]
enum Work {
    Dyn(Box<dyn Operator>),
    Spec(WorkSpec),
}

/// One unit of work submitted to the service: an operator (owned or
/// described) plus scheduling metadata.
#[derive(Debug)]
pub struct Request {
    work: Work,
    priority: Priority,
    deadline: Option<Duration>,
}

impl Request {
    /// A request in `priority` class with no per-item deadline beyond
    /// the service default. Trait-object requests always execute
    /// in-process (see [`Isolation`]).
    #[must_use]
    pub fn new(op: Box<dyn Operator>, priority: Priority) -> Self {
        Request { work: Work::Dyn(op), priority, deadline: None }
    }

    /// An interactive-class request.
    #[must_use]
    pub fn interactive(op: Box<dyn Operator>) -> Self {
        Request::new(op, Priority::Interactive)
    }

    /// A sweep-class request.
    #[must_use]
    pub fn sweep(op: Box<dyn Operator>) -> Self {
        Request::new(op, Priority::Sweep)
    }

    /// A request described by a serializable [`WorkSpec`] — the form
    /// that can execute in a sandboxed worker process when its class's
    /// [`Isolation`] tier says so.
    #[must_use]
    pub fn from_spec(spec: impl Into<WorkSpec>, priority: Priority) -> Self {
        Request { work: Work::Spec(spec.into()), priority, deadline: None }
    }

    /// An interactive-class spec request.
    #[must_use]
    pub fn interactive_spec(spec: impl Into<WorkSpec>) -> Self {
        Request::from_spec(spec, Priority::Interactive)
    }

    /// A sweep-class spec request.
    #[must_use]
    pub fn sweep_spec(spec: impl Into<WorkSpec>) -> Self {
        Request::from_spec(spec, Priority::Sweep)
    }

    /// Sets the per-item deadline, measured from admission. A request
    /// still queued when it lapses is shed with
    /// [`PipelineError::DeadlineShed`]; once executing, the remaining
    /// time bounds the attempt like a [`RunPolicy`] deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Configuration of an [`AnalysisService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Fixed worker-pool size (minimum 1).
    pub workers: usize,
    /// Bound on queued (not yet executing) requests (minimum 1). At
    /// capacity, [`submit`](AnalysisService::submit) rejects with
    /// [`PipelineError::Overloaded`].
    pub queue_capacity: usize,
    /// The supervision policy every execution runs under.
    pub policy: RunPolicy,
    /// When set, the first attempt of each item runs under a deadline
    /// tightened to this; a straggler is then retried once under the
    /// full policy (counted as a hedge).
    pub hedge_after: Option<Duration>,
    /// Deadline applied to requests that did not set their own.
    pub default_deadline: Option<Duration>,
    /// Samples retained per per-class latency reservoir.
    pub reservoir_capacity: usize,
    /// Seed of the reservoirs' replacement streams.
    pub seed: u64,
    /// Execution tier per priority class, indexed like the queues
    /// (`[interactive, sweep]`). Only spec-based requests honor a
    /// [`Isolation::Sandboxed`] tier; trait-object requests stay
    /// in-process.
    pub isolation: [Isolation; Priority::COUNT],
    /// Tuning of the sandboxed tier (ignored while both classes are
    /// [`Isolation::InProcess`]; workers spawn lazily on first use).
    pub sandbox: SandboxConfig,
    /// When set, the service opens (or recovers) a durable
    /// [`ResultStore`](crate::ResultStore) here at startup and attaches
    /// it to its pipeline: restarts answer repeat requests from disk
    /// instead of recomputing. An unopenable store is a warning, not a
    /// startup failure — the service runs memory-only.
    pub store_path: Option<std::path::PathBuf>,
    /// When set, the service attaches the online audit tier in
    /// **deferred** mode: sampled results are queued and shadow
    /// re-executed on the reference oracle only when a worker finds the
    /// request queue empty — audits ride scheduling slack below every
    /// priority class and never add latency to the request path.
    pub audit: Option<crate::AuditPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            policy: RunPolicy::default(),
            hedge_after: None,
            default_deadline: None,
            reservoir_capacity: crate::stats::DEFAULT_RESERVOIR_CAPACITY,
            seed: 0x5EED_CAFE,
            isolation: [Isolation::InProcess; Priority::COUNT],
            sandbox: SandboxConfig::default(),
            store_path: None,
            audit: None,
        }
    }
}

/// Ticket state shared between the submitter and the worker pool. The
/// slot is written exactly once (`complete` is idempotent, first write
/// wins), which is what makes the exactly-one-terminal-state invariant
/// local and checkable. The cluster tier (`cluster.rs`) issues the same
/// tickets, so its cluster-wide accounting inherits the property.
#[derive(Debug)]
pub(crate) struct TicketShared {
    pub(crate) id: u64,
    pub(crate) priority: Priority,
    pub(crate) state: Mutex<Option<Result<Arc<PipelineResult>, PipelineError>>>,
    pub(crate) ready: Condvar,
}

impl TicketShared {
    /// Records the terminal state if none exists yet. Returns whether
    /// this call was the one that completed the ticket — counters must
    /// only advance on `true`, so no outcome is ever double-counted.
    pub(crate) fn complete(&self, outcome: Result<Arc<PipelineResult>, PipelineError>) -> bool {
        let mut state = lock(&self.state);
        if state.is_some() {
            return false;
        }
        *state = Some(outcome);
        self.ready.notify_all();
        true
    }
}

/// Handle to one accepted request. The service guarantees the ticket
/// reaches exactly one terminal state: a result, an execution error, a
/// deadline shed, or a drain flush.
#[derive(Debug, Clone)]
pub struct Ticket {
    pub(crate) shared: Arc<TicketShared>,
}

impl Ticket {
    /// Stable identifier of this accepted request.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The class the request was admitted under.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.shared.priority
    }

    /// The terminal state, when one has been recorded.
    #[must_use]
    pub fn try_result(&self) -> Option<Result<Arc<PipelineResult>, PipelineError>> {
        lock(&self.shared.state).clone()
    }

    /// Blocks until the terminal state is recorded.
    ///
    /// # Errors
    ///
    /// The terminal error, when the request did not complete with a
    /// result (execution failure, shed, or drain flush).
    pub fn wait(&self) -> Result<Arc<PipelineResult>, PipelineError> {
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(outcome) = state.as_ref() {
                return outcome.clone();
            }
            state = self.shared.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`wait`](Ticket::wait) bounded by `timeout`; `None` when no
    /// terminal state was recorded in time.
    #[must_use]
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<Arc<PipelineResult>, PipelineError>> {
        let start = Instant::now();
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(outcome) = state.as_ref() {
                return Some(outcome.clone());
            }
            let remaining = timeout.checked_sub(start.elapsed())?;
            let (guard, timed_out) = self
                .shared
                .ready
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timed_out.timed_out() && state.is_none() {
                return None;
            }
        }
    }
}

/// A request sitting in the admission queue.
#[derive(Debug)]
struct QueuedRequest {
    work: Work,
    ticket: Arc<TicketShared>,
    deadline: Option<Duration>,
    enqueued_at: Instant,
}

/// Queue, in-flight count, and lifecycle flag under **one** mutex: the
/// condvar protocol (admission rejects, workers pop, drain waits for
/// quiescence) needs all three to change atomically.
#[derive(Debug, Default)]
struct QueueState {
    classes: [VecDeque<QueuedRequest>; Priority::COUNT],
    in_flight: usize,
    draining: bool,
}

impl QueueState {
    fn depth(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    fn pop(&mut self) -> Option<QueuedRequest> {
        self.classes.iter_mut().find_map(VecDeque::pop_front)
    }
}

/// Monotonic event counters of one service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceCounters {
    /// Requests admitted into the queue (each owns exactly one ticket).
    pub accepted: u64,
    /// Requests rejected at admission with [`PipelineError::Overloaded`].
    pub rejected_overload: u64,
    /// Accepted requests shed at dequeue because their deadline lapsed
    /// while queued.
    pub shed_deadline: u64,
    /// Accepted requests that completed with a result.
    pub completed_ok: u64,
    /// Accepted requests that completed with an execution error
    /// (including worker panics and drain-cancelled attempts).
    pub failed: u64,
    /// Accepted requests flushed with [`PipelineError::ServiceStopped`]
    /// because drain emptied the queue before they ran.
    pub drain_flushed: u64,
    /// First attempts that straggled past `hedge_after` and triggered a
    /// full-policy retry.
    pub hedges: u64,
    /// Hedged retries that then produced a result.
    pub hedge_wins: u64,
    /// Worker panics absorbed while executing an item (the ticket still
    /// failed; the pool did not shrink).
    pub worker_panics: u64,
}

impl ServiceCounters {
    /// Terminal states recorded so far. After a quiesced drain this
    /// equals [`accepted`](ServiceCounters::accepted): every admitted
    /// ticket ended exactly one way.
    #[must_use]
    pub fn terminal_states(&self) -> u64 {
        self.completed_ok + self.failed + self.shed_deadline + self.drain_flushed
    }
}

/// Point-in-time health of an [`AnalysisService`], cheap enough for a
/// readiness probe.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Requests currently queued (excludes executing ones).
    pub queue_depth: usize,
    /// The configured admission bound.
    pub queue_capacity: usize,
    /// Requests currently executing on workers.
    pub in_flight: usize,
    /// Whether drain has begun (admissions closed).
    pub draining: bool,
    /// Whether the underlying pipeline's circuit breaker is open.
    pub breaker_open: bool,
    /// The monotonic event counters.
    pub counters: ServiceCounters,
    /// Counters of the sandboxed tier (all zero while every class runs
    /// in-process): spawns, recycles, and the kill taxonomy.
    pub sandbox: SandboxCounters,
    /// Sojourn-latency percentiles (admission → terminal state, seconds)
    /// of executed interactive requests.
    pub interactive: LatencySummary,
    /// Sojourn-latency percentiles of executed sweep requests.
    pub sweep: LatencySummary,
    /// The underlying pipeline's result-cache counters (hit rate).
    #[serde(default)]
    pub cache: CacheStats,
    /// The underlying pipeline's engine event-loop throughput
    /// (events/sec, ns/event).
    #[serde(default)]
    pub engine: EngineThroughput,
    /// How many results each fidelity produced on the underlying
    /// pipeline (simulated vs analytical fallback).
    #[serde(default)]
    pub fidelity: FidelityMix,
    /// Counters of the durable disk tier (all zero without a
    /// [`ServiceConfig::store_path`]): entries recovered at startup,
    /// disk hits/misses, corrupt records dropped, degradation state.
    #[serde(default)]
    pub store: StoreStats,
    /// Counters of the online audit tier (all zero without a
    /// [`ServiceConfig::audit`] policy): shadow audits run, divergences
    /// caught, fingerprints quarantined, and the demotion latch.
    #[serde(default)]
    pub audit: crate::AuditStats,
}

impl HealthSnapshot {
    /// Whether the service can accept another request right now.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        !self.draining && self.queue_depth < self.queue_capacity
    }
}

/// What [`AnalysisService::drain`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued requests flushed with [`PipelineError::ServiceStopped`].
    pub flushed_queued: u64,
    /// Whether every in-flight item reached a terminal state (and the
    /// workers were joined) before the drain deadline.
    pub quiesced: bool,
    /// Wall time drain took.
    pub elapsed: Duration,
}

/// State shared between the service handle and its workers.
#[derive(Debug)]
struct ServiceShared {
    pipeline: AnalysisPipeline,
    /// The sandboxed tier. Shares the pipeline's cache and breaker, so
    /// the two tiers answer each other's cache hits and a sick backend
    /// trips one breaker regardless of where attempts run. Child
    /// processes spawn lazily on the first sandboxed job.
    executor: SandboxedExecutor,
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    /// Signalled on admission and at drain: workers wait here for work.
    work_cv: Condvar,
    /// Signalled whenever `in_flight` decrements: drain waits here.
    idle_cv: Condvar,
    counters: Mutex<ServiceCounters>,
    latency: [Mutex<LatencyReservoir>; Priority::COUNT],
    /// Parent token of every attempt; cancelled exactly once, at drain.
    drain_token: CancelToken,
}

/// The resident front end over [`AnalysisPipeline`]: bounded admission,
/// priority scheduling, load shedding, hedged retries, and graceful
/// drain. See the [module docs](self) for the semantics.
#[derive(Debug)]
pub struct AnalysisService {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl AnalysisService {
    /// Starts the worker pool and returns the service handle. The
    /// pipeline's cache and counters stay shared with any other clone
    /// the caller holds.
    #[must_use]
    pub fn start(mut pipeline: AnalysisPipeline, config: ServiceConfig) -> Self {
        if let Some(path) = &config.store_path {
            // A store the service cannot open degrades to memory-only
            // operation: a resident service that refuses to start over a
            // cache file would turn a perf feature into an outage.
            match pipeline.clone().with_store(path) {
                Ok(with_store) => pipeline = with_store,
                Err(err) => eprintln!(
                    "[service] warning: result store at {} not attached ({err}); \
                     running memory-only",
                    path.display()
                ),
            }
        }
        if let Some(policy) = config.audit.clone() {
            pipeline = pipeline.with_audit_deferred(policy);
        }
        let workers = config.workers.max(1);
        let reservoir = |salt: u64| {
            Mutex::new(LatencyReservoir::new(
                config.reservoir_capacity,
                config.seed.wrapping_add(salt),
            ))
        };
        let shared = Arc::new(ServiceShared {
            executor: SandboxedExecutor::new(pipeline.clone(), config.sandbox.clone()),
            pipeline,
            queue: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            counters: Mutex::new(ServiceCounters::default()),
            latency: [reservoir(1), reservoir(2)],
            drain_token: CancelToken::new(),
            config,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        AnalysisService { shared, workers: Mutex::new(handles), next_id: AtomicU64::new(0) }
    }

    /// Submits one request. Returns the ticket on admission, or — with
    /// no queueing and no side effects —
    /// [`PipelineError::Overloaded`] when the queue is at capacity or
    /// [`PipelineError::ServiceStopped`] when drain has begun.
    ///
    /// # Errors
    ///
    /// The two rejection cases above; an accepted request reports
    /// execution errors through its [`Ticket`] instead.
    pub fn submit(&self, request: Request) -> Result<Ticket, PipelineError> {
        let deadline = request.deadline.or(self.shared.config.default_deadline);
        let mut queue = lock(&self.shared.queue);
        if queue.draining {
            return Err(PipelineError::ServiceStopped);
        }
        let depth = queue.depth();
        if depth >= self.shared.config.queue_capacity {
            drop(queue);
            lock(&self.shared.counters).rejected_overload += 1;
            return Err(PipelineError::Overloaded {
                queue_depth: depth,
                retry_after_hint: self.retry_hint(depth),
            });
        }
        let ticket = Arc::new(TicketShared {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            priority: request.priority,
            state: Mutex::new(None),
            ready: Condvar::new(),
        });
        queue.classes[request.priority.index()].push_back(QueuedRequest {
            work: request.work,
            ticket: Arc::clone(&ticket),
            deadline,
            enqueued_at: Instant::now(),
        });
        drop(queue);
        lock(&self.shared.counters).accepted += 1;
        self.shared.work_cv.notify_one();
        Ok(Ticket { shared: ticket })
    }

    /// Estimated wait until a queue slot frees: the recent median
    /// sojourn times the number of service "rounds" ahead of a new
    /// arrival, clamped to a sane range. Purely advisory.
    fn retry_hint(&self, depth: usize) -> Duration {
        let p50 = self
            .shared
            .latency
            .iter()
            .map(|r| lock(r).summary())
            .filter(|s| s.count > 0)
            .map(|s| s.p50)
            .fold(0.0f64, f64::max);
        let p50 = if p50 > 0.0 { p50 } else { 0.025 };
        let rounds = depth.div_ceil(self.shared.config.workers.max(1)).max(1);
        Duration::from_secs_f64((p50 * rounds as f64).clamp(0.001, 5.0))
    }

    /// A point-in-time [`HealthSnapshot`].
    #[must_use]
    pub fn health(&self) -> HealthSnapshot {
        let (queue_depth, in_flight, draining) = {
            let queue = lock(&self.shared.queue);
            (queue.depth(), queue.in_flight, queue.draining)
        };
        HealthSnapshot {
            queue_depth,
            queue_capacity: self.shared.config.queue_capacity,
            in_flight,
            draining,
            breaker_open: self.shared.pipeline.breaker_is_open(),
            counters: *lock(&self.shared.counters),
            sandbox: self.shared.executor.counters(),
            interactive: lock(&self.shared.latency[Priority::Interactive.index()]).summary(),
            sweep: lock(&self.shared.latency[Priority::Sweep.index()]).summary(),
            cache: self.shared.pipeline.cache_stats(),
            engine: self.shared.pipeline.engine_throughput(),
            fidelity: self.shared.pipeline.fidelity_mix(),
            store: self.shared.pipeline.store_stats().unwrap_or_default(),
            audit: self.shared.pipeline.audit_stats(),
        }
    }

    /// The pipeline the service executes on (shared state: its cache
    /// stats and footer reflect service traffic).
    #[must_use]
    pub fn pipeline(&self) -> &AnalysisPipeline {
        &self.shared.pipeline
    }

    /// Gracefully stops the service: closes admissions, flushes every
    /// queued ticket with [`PipelineError::ServiceStopped`], cancels
    /// in-flight attempts via the shared [`CancelToken`], then waits up
    /// to `timeout` for workers to quiesce (joining them on success).
    ///
    /// Idempotent: a second call flushes nothing and returns
    /// immediately. Every accepted ticket has a terminal state once
    /// drain returns with `quiesced == true`.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let start = Instant::now();
        let flushed = {
            let mut queue = lock(&self.shared.queue);
            queue.draining = true;
            let mut flushed = Vec::new();
            for class in &mut queue.classes {
                flushed.extend(class.drain(..));
            }
            flushed
        };
        self.shared.work_cv.notify_all();
        let mut flushed_count = 0u64;
        for job in flushed {
            if job.ticket.complete(Err(PipelineError::ServiceStopped)) {
                flushed_count += 1;
            }
        }
        if flushed_count > 0 {
            lock(&self.shared.counters).drain_flushed += flushed_count;
        }
        self.shared.drain_token.cancel();
        // A stopping service owes nobody shadow work: the deferred audit
        // backlog is discarded (counted as dropped), so workers head
        // straight for the drain exit instead of burning the timeout on
        // oracle re-simulations.
        self.shared.pipeline.drop_pending_audits();

        let mut queue = lock(&self.shared.queue);
        while queue.in_flight > 0 {
            let Some(remaining) = timeout.checked_sub(start.elapsed()) else { break };
            let (guard, _timed_out) = self
                .shared
                .idle_cv
                .wait_timeout(queue, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
        }
        let quiesced = queue.in_flight == 0;
        drop(queue);
        if quiesced {
            let handles = std::mem::take(&mut *lock(&self.workers));
            for handle in handles {
                let _ = handle.join();
            }
        }
        // In-flight sandboxed children were killed through the drain
        // token by their monitor loops; what's left is the warm pool.
        self.shared.executor.shutdown();
        // Make everything the run computed durable before the process
        // (typically) exits — the whole point of attaching a store.
        self.shared.pipeline.flush_store();
        DrainReport { flushed_queued: flushed_count, quiesced, elapsed: start.elapsed() }
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        // Best-effort drain so dropping the handle never leaks detached
        // workers or leaves tickets without a terminal state. In-flight
        // attempts are cancelled cooperatively, so the bound is the
        // engine's cancellation-propagation latency, not item runtime.
        self.drain(Duration::from_secs(10));
    }
}

/// Ensures the in-flight count decrements — and the ticket fails — on
/// **every** exit path of one dequeued item, including a panic
/// unwinding out of the service's own bookkeeping. Without this a
/// panicking item would leave `in_flight` permanently elevated and
/// drain would never observe quiescence.
struct InFlightGuard<'a> {
    shared: &'a ServiceShared,
    ticket: Arc<TicketShared>,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.ticket.complete(Err(PipelineError::Panicked {
            message: "worker panicked while executing this item".to_string(),
        })) {
            let mut counters = lock(&self.shared.counters);
            counters.worker_panics += 1;
            counters.failed += 1;
        }
        let mut queue = lock(&self.shared.queue);
        queue.in_flight = queue.in_flight.saturating_sub(1);
        drop(queue);
        self.shared.idle_cv.notify_all();
    }
}

fn worker_loop(shared: &ServiceShared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop() {
                    queue.in_flight += 1;
                    break Some(job);
                }
                if queue.draining {
                    break None;
                }
                // Scheduling slack: no request queued in any class. Spend
                // it on one deferred shadow audit — strictly below every
                // priority — then re-check the queue before blocking.
                if shared.pipeline.pending_audits() > 0 {
                    drop(queue);
                    shared.pipeline.run_pending_audit();
                    queue = lock(&shared.queue);
                    continue;
                }
                queue = shared.work_cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let guard = InFlightGuard { shared, ticket: Arc::clone(&job.ticket) };

        // Shed at dequeue: a lapsed deadline means nobody is waiting for
        // this answer — executing it would only delay live requests.
        let queued_for = job.enqueued_at.elapsed();
        if let Some(deadline) = job.deadline {
            if queued_for >= deadline {
                if job.ticket.complete(Err(PipelineError::DeadlineShed { queued_for })) {
                    lock(&shared.counters).shed_deadline += 1;
                }
                drop(guard);
                continue;
            }
        }

        // The worker must survive anything the item does: panics are
        // caught here (pool never shrinks) and the guard backstops the
        // accounting even if this very block unwinds.
        let outcome = catch_unwind(AssertUnwindSafe(|| execute_job(shared, &job)));
        match outcome {
            Ok(outcome) => {
                let executed_ok = outcome.is_ok();
                if job.ticket.complete(outcome) {
                    let mut counters = lock(&shared.counters);
                    if executed_ok {
                        counters.completed_ok += 1;
                    } else {
                        counters.failed += 1;
                    }
                    drop(counters);
                    let sojourn = job.enqueued_at.elapsed();
                    lock(&shared.latency[job.ticket.priority.index()])
                        .record(sojourn.as_secs_f64());
                }
            }
            Err(payload) => {
                if job.ticket.complete(Err(PipelineError::Panicked {
                    message: panic_message(payload.as_ref()),
                })) {
                    let mut counters = lock(&shared.counters);
                    counters.worker_panics += 1;
                    counters.failed += 1;
                }
            }
        }
        drop(guard);
    }
}

/// One item's execution: the per-item deadline is narrowed to the time
/// it has left, the class's [`Isolation`] tier picks the execution path,
/// and the optional hedge runs a tightened first attempt before
/// committing to the full policy.
fn execute_job(
    shared: &ServiceShared,
    job: &QueuedRequest,
) -> Result<Arc<PipelineResult>, PipelineError> {
    // Scope the request's priority class to this thread so the audit
    // sampler can resolve per-class rates without a parameter threaded
    // through the supervised call chain.
    let _class = crate::audit::RequestClassGuard::set(job.ticket.priority.index());
    let mut policy = shared.config.policy.clone();
    if let Some(deadline) = job.deadline {
        let remaining = deadline.saturating_sub(job.enqueued_at.elapsed());
        policy.deadline = Some(policy.deadline.map_or(remaining, |p| p.min(remaining)));
    }
    let isolation = shared.config.isolation[job.ticket.priority.index()];
    let run = |policy: &RunPolicy| -> Result<Arc<PipelineResult>, PipelineError> {
        match (&job.work, isolation) {
            (Work::Spec(spec), Isolation::Sandboxed) => {
                shared.executor.run_supervised(spec, policy, Some(&shared.drain_token))
            }
            (Work::Spec(spec), Isolation::InProcess) => {
                let op = spec.instantiate();
                shared.pipeline.run_supervised(op.as_ref(), policy, Some(&shared.drain_token))
            }
            // A trait object cannot cross the process boundary: it runs
            // in-process regardless of the class's tier.
            (Work::Dyn(op), _) => {
                shared.pipeline.run_supervised(op.as_ref(), policy, Some(&shared.drain_token))
            }
        }
    };

    if let Some(hedge_after) = shared.config.hedge_after {
        // Probe attempt: same policy, but bounded at the hedge horizon
        // with retries/fallback/breaker disabled — a straggler must
        // surface as a fast transient failure, not get rescued.
        let mut probe = policy.clone();
        probe.deadline = Some(policy.deadline.map_or(hedge_after, |d| d.min(hedge_after)));
        probe.max_retries = 0;
        probe.breaker_threshold = 0;
        probe.fallback = false;
        match run(&probe) {
            Ok(result) => return Ok(result),
            Err(err) if err.is_transient() && !shared.drain_token.is_signalled() => {
                lock(&shared.counters).hedges += 1;
                let hedged = run(&policy);
                if hedged.is_ok() {
                    lock(&shared.counters).hedge_wins += 1;
                }
                return hedged;
            }
            // Permanent failures (invalid kernel, broken spec) repeat
            // identically under any deadline; report them directly.
            Err(err) => return Err(err),
        }
    }

    run(&policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_arch::ChipSpec;
    use ascend_ops::AddRelu;

    fn service(config: ServiceConfig) -> AnalysisService {
        AnalysisService::start(AnalysisPipeline::new(ChipSpec::training()), config)
    }

    #[test]
    fn submit_execute_and_drain() {
        let svc = service(ServiceConfig::default());
        let ticket = svc.submit(Request::interactive(Box::new(AddRelu::new(1 << 12)))).unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.cycles() > 0.0);
        let report = svc.drain(Duration::from_secs(5));
        assert!(report.quiesced);
        let health = svc.health();
        assert_eq!(health.counters.accepted, 1);
        assert_eq!(health.counters.completed_ok, 1);
        assert_eq!(health.counters.terminal_states(), 1);
        assert!(!health.is_ready(), "a drained service is not ready");
    }

    #[test]
    fn overload_rejection_is_immediate_and_counted() {
        // No workers can make progress on a zero-size... capacity 1 and
        // 1 worker: flood faster than service to force rejections.
        let svc =
            service(ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() });
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for i in 0..32u64 {
            match svc.submit(Request::sweep(Box::new(AddRelu::new(4096 + i * 64)))) {
                Ok(ticket) => accepted.push(ticket),
                Err(PipelineError::Overloaded { queue_depth, retry_after_hint }) => {
                    assert_eq!(queue_depth, 1, "rejection reports the configured bound");
                    assert!(retry_after_hint >= Duration::from_millis(1));
                    rejected += 1;
                }
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
        let report = svc.drain(Duration::from_secs(10));
        assert!(report.quiesced);
        let health = svc.health();
        assert_eq!(health.counters.rejected_overload, rejected);
        assert_eq!(health.counters.accepted, accepted.len() as u64);
        assert_eq!(health.counters.terminal_states(), health.counters.accepted);
        for ticket in &accepted {
            assert!(ticket.try_result().is_some(), "every accepted ticket is terminal");
        }
    }

    #[test]
    fn submitting_after_drain_reports_stopped() {
        let svc = service(ServiceConfig::default());
        svc.drain(Duration::from_secs(5));
        match svc.submit(Request::interactive(Box::new(AddRelu::new(1 << 12)))) {
            Err(PipelineError::ServiceStopped) => {}
            other => panic!("expected ServiceStopped, got {other:?}"),
        }
    }

    #[test]
    fn queued_request_with_lapsed_deadline_is_shed_not_executed() {
        // One worker wedged on a long item while a zero-deadline request
        // waits behind it: by dequeue time the deadline has lapsed.
        let svc =
            service(ServiceConfig { workers: 1, queue_capacity: 8, ..ServiceConfig::default() });
        let long = svc.submit(Request::interactive(Box::new(AddRelu::new(1 << 18)))).unwrap();
        let doomed = svc
            .submit(Request::sweep(Box::new(AddRelu::new(1 << 12))).with_deadline(Duration::ZERO))
            .unwrap();
        match doomed.wait() {
            Err(PipelineError::DeadlineShed { .. }) => {}
            other => panic!("expected DeadlineShed, got {other:?}"),
        }
        assert!(long.wait().is_ok());
        let misses = svc.pipeline().cache_stats().misses;
        assert_eq!(misses, 1, "the shed item must never reach the pipeline");
        svc.drain(Duration::from_secs(5));
        assert_eq!(svc.health().counters.shed_deadline, 1);
    }

    #[test]
    fn spec_requests_match_trait_object_requests_in_process() {
        use ascend_ops::OpSpec;
        let svc = service(ServiceConfig::default());
        let by_spec = svc
            .submit(Request::interactive_spec(OpSpec::add_relu(1 << 12)))
            .unwrap()
            .wait()
            .unwrap();
        let by_object = svc
            .submit(Request::interactive(Box::new(AddRelu::new(1 << 12))))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(by_spec, by_object, "same work, same result, same cache entry");
        assert_eq!(svc.pipeline().cache_stats().hits, 1, "the second submission is a cache hit");
        svc.drain(Duration::from_secs(5));
        let health = svc.health();
        assert_eq!(health.counters.completed_ok, 2);
        assert_eq!(health.sandbox, SandboxCounters::default(), "no sandbox activity in-process");
    }

    #[test]
    fn drop_drains_implicitly() {
        let svc = service(ServiceConfig::default());
        let ticket = svc.submit(Request::interactive(Box::new(AddRelu::new(1 << 12)))).unwrap();
        drop(svc);
        assert!(ticket.try_result().is_some(), "drop must leave no ticket without terminal state");
    }
}
