//! The resident analysis service: the in-process backend behind the
//! shared front end (`frontend.rs`), for callers that *keep* sending
//! work to one [`AnalysisPipeline`].
//!
//! The batch APIs answer "run these N items"; a service answers "keep
//! answering whatever arrives". Admission (bounded, with
//! [`PipelineError::Overloaded`] and a retry hint at capacity), the two
//! [`Priority`] lanes, deadline shedding at dequeue, exactly-once
//! [`Ticket`]s and graceful drain are the front end's, shared with the
//! [`ClusterService`](crate::ClusterService). This module adds the
//! backend:
//!
//! * **A worker pool with audit slack.** A fixed pool pops requests;
//!   a worker that finds every lane empty spends the slack on one
//!   deferred shadow audit ([`ServiceConfig::audit`]) below every
//!   priority class.
//! * **Isolation tiers.** The service executes
//!   [`Isolation::InProcess`] (the default) or
//!   [`Isolation::Sandboxed`] — spec-based requests of a sandboxed
//!   service run in supervised worker processes with heartbeats, a
//!   wall-clock kill, and an RSS budget, so a hostile item costs one
//!   child process instead of the service.
//! * **Deadline narrowing.** What is left of a request's deadline
//!   bounds its attempt like a [`RunPolicy`] deadline.
//! * **Observability.** [`health`](AnalysisService::health) returns a
//!   [`HealthSnapshot`] (depth, in-flight, the front end's counters and
//!   per-class p50/p95/p99, plus cache, store, audit and sandbox
//!   counters) cheap enough for a readiness probe.
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
use crate::frontend::{
    Admission, Backlog, DrainReport, Frontend, FrontendCounters, Lanes, Priority, Ticket,
    TicketShared,
};
use crate::sandbox::{SandboxConfig, SandboxCounters, SandboxedExecutor, WorkSpec};
use crate::stats::LatencySummary;
use crate::{
    AnalysisPipeline, CacheStats, EngineThroughput, FidelityMix, PipelineError, PipelineResult,
    RunPolicy, StoreStats,
};
use ascend_ops::Operator;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the service executes its work.
///
/// Only spec-based requests ([`Request::from_spec`] and friends) can
/// actually cross a process boundary; a `Box<dyn Operator>` request runs
/// in-process regardless of the service's tier, because a trait object
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
    /// that can execute in a sandboxed worker process when the service's
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
    /// Deadline applied to requests that did not set their own.
    pub default_deadline: Option<Duration>,
    /// Seed of the reservoirs' replacement streams.
    pub seed: u64,
    /// Execution tier of every request. Only spec-based requests honor
    /// a [`Isolation::Sandboxed`] tier; trait-object requests stay
    /// in-process.
    pub isolation: Isolation,
    /// Tuning of the sandboxed tier (ignored under
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
            default_deadline: None,
            seed: 0x5EED_CAFE,
            isolation: Isolation::InProcess,
            sandbox: SandboxConfig::default(),
            store_path: None,
            audit: None,
        }
    }
}

/// A request sitting in the admission queue.
#[derive(Debug)]
struct Job {
    work: Work,
    ticket: Arc<TicketShared>,
}

impl Backlog for Lanes<Job> {
    fn depth(&self) -> usize {
        self.len()
    }

    fn take_all(&mut self) -> Vec<Arc<TicketShared>> {
        self.drain().map(|job| job.ticket).collect()
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
    pub counters: FrontendCounters,
    /// Counters of the sandboxed tier (all zero while the service runs
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
    /// Admission, the two lanes, the ledger and drain.
    front: Frontend<Lanes<Job>>,
}

/// The resident backend over [`AnalysisPipeline`]: a worker pool behind
/// the shared front end. See the [module docs](self) for the semantics.
#[derive(Debug)]
pub struct AnalysisService {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
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
        let front = Frontend::new(
            Lanes::default(),
            Admission {
                capacity: config.queue_capacity,
                servers: workers,
                default_deadline: config.default_deadline,
                seed: config.seed,
            },
        );
        let shared = Arc::new(ServiceShared {
            executor: SandboxedExecutor::new(pipeline.clone(), config.sandbox.clone()),
            pipeline,
            front,
            config,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        AnalysisService { shared, workers: Mutex::new(handles) }
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
        let Request { work, priority, deadline } = request;
        self.shared.front.admit(priority, deadline, |lanes, ticket| {
            lanes.push(priority, Job { work, ticket });
        })
    }

    /// A point-in-time [`HealthSnapshot`].
    #[must_use]
    pub fn health(&self) -> HealthSnapshot {
        let (queue_depth, in_flight, draining) = {
            let state = self.shared.front.lock();
            (state.depth(), state.in_flight, state.draining)
        };
        let (counters, [interactive, sweep]) = self.shared.front.ledger();
        HealthSnapshot {
            queue_depth,
            queue_capacity: self.shared.config.queue_capacity,
            in_flight,
            draining,
            breaker_open: self.shared.pipeline.breaker_is_open(),
            counters,
            sandbox: self.shared.executor.counters(),
            interactive,
            sweep,
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

    /// Gracefully stops the service: the front end's drain (close
    /// admissions, flush the queue, cancel in-flight attempts), then
    /// waits up to `timeout` for workers to quiesce, joining them on
    /// success.
    ///
    /// Idempotent: a second call flushes nothing and returns
    /// immediately. Every accepted ticket has a terminal state once
    /// drain returns with `quiesced == true`.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let start = Instant::now();
        let (flushed_queued, quiesced) = self.shared.front.drain(start, timeout, &self.workers);
        // A stopping service owes nobody shadow work: the deferred audit
        // backlog is discarded (counted as dropped). Workers never start
        // an audit once draining, so none of it delays the drain.
        self.shared.pipeline.drop_pending_audits();
        // In-flight sandboxed children were killed through the drain
        // token by their monitor loops; what's left is the warm pool.
        self.shared.executor.shutdown();
        // Make everything the run computed durable before the process
        // (typically) exits — the whole point of attaching a store.
        self.shared.pipeline.flush_store();
        DrainReport { flushed_queued, quiesced, elapsed: start.elapsed() }
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

fn worker_loop(shared: &ServiceShared) {
    let front = &shared.front;
    loop {
        let job = {
            let mut state = front.lock();
            loop {
                if let Some(job) = state.pop() {
                    state.in_flight += 1;
                    break Some(job);
                }
                if state.draining {
                    break None;
                }
                // Scheduling slack: no request queued in any class. Spend
                // it on one deferred shadow audit — strictly below every
                // priority — then re-check the queue before blocking.
                if shared.pipeline.pending_audits() > 0 {
                    drop(state);
                    shared.pipeline.run_pending_audit();
                    state = front.lock();
                    continue;
                }
                state = front.wait_for_work(state, None);
            }
        };
        let Some(Job { work, ticket }) = job else { return };
        let _guard = front.in_flight(Some(Arc::clone(&ticket)), 0);
        if front.shed_if_lapsed(&ticket) {
            continue;
        }
        // The worker must survive anything the item does: panics are
        // caught here (pool never shrinks) and the guard backstops the
        // accounting even if this very block unwinds.
        match catch_unwind(AssertUnwindSafe(|| execute_job(shared, &work, &ticket))) {
            Ok(outcome) => front.settle(&ticket, outcome, false),
            Err(payload) => front.fail_panicked(&ticket, panic_message(payload.as_ref())),
        };
    }
}

/// One item's execution: the per-item deadline is narrowed to the time
/// it has left, and the service's [`Isolation`] tier picks the
/// execution path.
fn execute_job(
    shared: &ServiceShared,
    work: &Work,
    ticket: &TicketShared,
) -> Result<Arc<PipelineResult>, PipelineError> {
    let class = ticket.priority().index();
    // Scope the request's priority class to this thread so the audit
    // sampler can resolve per-class rates without a parameter threaded
    // through the supervised call chain.
    let _class = crate::audit::RequestClassGuard::set(class);
    let mut policy = shared.config.policy.clone();
    if let Some(remaining) = ticket.remaining() {
        policy.deadline = Some(policy.deadline.map_or(remaining, |p| p.min(remaining)));
    }
    let cancel = Some(shared.front.drain_token());
    match (work, shared.config.isolation) {
        (Work::Spec(spec), Isolation::Sandboxed) => {
            shared.executor.run_supervised(spec, &policy, cancel)
        }
        (Work::Spec(spec), Isolation::InProcess) => {
            shared.pipeline.run_supervised(spec.instantiate().as_ref(), &policy, cancel)
        }
        // A trait object cannot cross the process boundary: it runs
        // in-process regardless of the tier.
        (Work::Dyn(op), _) => shared.pipeline.run_supervised(op.as_ref(), &policy, cancel),
    }
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
