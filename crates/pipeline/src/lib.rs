#![warn(missing_docs)]

//! The analysis pipeline: one abstraction owning the chip spec, the
//! classification thresholds, and the stage sequence every caller of the
//! workspace runs — **build → simulate → profile → analyze**.
//!
//! Before this crate, each consumer (`ascend_bench::run_op`, the model
//! runner, the optimizer loop, the figure binaries) re-implemented the
//! same four stages. [`AnalysisPipeline`] centralizes them and adds two
//! things none of the ad-hoc copies had:
//!
//! * **A content-addressed result cache.** Results are keyed by a stable
//!   fingerprint of the operator descriptor (shape + flags), the chip
//!   spec, and the thresholds. The optimizer re-measures the same
//!   operator/flag combinations constantly, and model streams repeat
//!   operators across invocations — those become cache hits returning the
//!   bit-identical [`PipelineResult`]. Hit/miss/eviction counters are
//!   exposed via [`CacheStats`].
//!
//! * **A batch API.** [`AnalysisPipeline::run_batch_with_workers`] fans
//!   independent invocations across scoped worker threads
//!   (`std::thread::scope`, no external dependencies) and returns results
//!   in input order, regardless of worker count. The simulator is deterministic, so the
//!   parallel path is numerically identical to the serial one.
//!
//! Cloning a pipeline is cheap and **shares** the cache and the
//! instrumentation counters — the model runner and the optimizer can each
//! hold a clone and still reuse each other's results. Configuration
//! (thresholds, cache capacity) is per-clone; changing thresholds changes
//! the cache key context, so stale entries can never be returned.
//!
//! Each step exists once: the clones share two locks (the cache and one
//! counter ledger), every uncached result runs one stage sequence, and
//! every path that computes a result completes its miss in one place.
//!
//! # Examples
//!
//! ```
//! use ascend_arch::ChipSpec;
//! use ascend_ops::AddRelu;
//! use ascend_pipeline::AnalysisPipeline;
//!
//! let pipeline = AnalysisPipeline::new(ChipSpec::training());
//! let first = pipeline.run(&AddRelu::new(1 << 16))?;
//! let again = pipeline.run(&AddRelu::new(1 << 16))?; // cache hit
//! assert_eq!(first.analysis, again.analysis);
//! assert_eq!(pipeline.cache_stats().hits, 1);
//! # Ok::<(), ascend_sim::SimError>(())
//! ```

mod analytic;
mod audit;
mod cluster;
pub mod digest;
pub mod divergence;
mod error;
mod frontend;
pub mod invariants;
mod sandbox;
mod service;
mod stats;
mod store;
mod supervisor;
pub mod transport;
mod worker;

pub use audit::{AuditPolicy, AuditStats};
pub use cluster::{
    ClusterConfig, ClusterHealth, ClusterService, HashRing, ShardCounters, ShardHealth,
    DEFAULT_VIRTUAL_NODES,
};
pub use digest::result_digest;
pub use divergence::DivergenceReport;
pub use error::PipelineError;
pub use frontend::{DrainReport, FrontendCounters, Priority, Ticket};
pub use invariants::{InvariantCheck, InvariantReport};
pub use sandbox::{SandboxConfig, SandboxCounters, SandboxedExecutor, WorkSpec};
pub use service::{AnalysisService, HealthSnapshot, Isolation, Request, ServiceConfig};
pub use stats::{LatencyReservoir, LatencySummary, DEFAULT_RESERVOIR_CAPACITY};
pub use store::{
    FsyncPolicy, ResultStore, StoreConfig, StoreError, StoreStats, StoreVerifyReport,
    MAX_RECORD_BYTES, STORE_MAGIC, STORE_VERSION,
};
pub use supervisor::{Fidelity, RunPolicy, SupervisorStats};
pub use transport::{
    encode_frame, read_frame, write_frame, Frame, FrameKind, PipeTransport, MAX_FRAME_LEN,
    WIRE_VERSION,
};
#[doc(hidden)]
pub use worker::reencode_payload;
pub use worker::{run_worker_if_requested, worker_main, WORKER_ENV};

use ascend_arch::{ArchError, ChipSpec};
use ascend_faults::BuggyEngine;
use ascend_isa::{Kernel, KernelStats};
use ascend_ops::Operator;
use ascend_profile::Profile;
use ascend_roofline::{analyze, RooflineAnalysis, Thresholds};
use ascend_sim::reference::ReferenceSimulator;
use ascend_sim::{CancelToken, MetricsSink, SimError, Simulator, Trace, TraceCollector};
use audit::{AuditJob, Auditor};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Locks `mutex`, tolerating poison: a panic in one batch item must not
/// wedge the shared cache for every later item. The guarded structures
/// (cache map, counters) are valid at every await-free point, so the
/// poisoned payload is safe to adopt.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default bound on cached results before FIFO eviction kicks in.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Everything the pipeline produces for one operator invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineResult {
    /// The generated kernel's name (includes the applied flags).
    pub kernel_name: String,
    /// Number of instructions in the generated kernel.
    pub kernel_len: usize,
    /// The fingerprint the result is cached under.
    pub fingerprint: u64,
    /// Section 3.1 metrics collected from the simulated trace.
    pub profile: Profile,
    /// The simulated execution trace (empty for analytical fallbacks).
    pub trace: Trace,
    /// The component-based roofline analysis.
    pub analysis: RooflineAnalysis,
    /// How the result was produced: simulated, or degraded to the
    /// closed-form analytical estimate by a [`RunPolicy`].
    #[serde(default)]
    pub fidelity: Fidelity,
}

impl PipelineResult {
    /// The result for `kernel` under cache key `fingerprint`: the one
    /// place every stage sequence (simulated, oracle, audited, analytical
    /// fallback) assembles its answer.
    fn new(
        kernel: &Kernel,
        fingerprint: u64,
        profile: Profile,
        trace: Trace,
        analysis: RooflineAnalysis,
        fidelity: Fidelity,
    ) -> Self {
        PipelineResult {
            kernel_name: kernel.name().to_owned(),
            kernel_len: kernel.len(),
            fingerprint,
            profile,
            trace,
            analysis,
            fidelity,
        }
    }

    /// End-to-end simulated execution time in cycles.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.trace.total_cycles()
    }
}

/// Counters of the pipeline's result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Invocations answered from the cache.
    pub hits: u64,
    /// Invocations that ran the full stage sequence.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing ran yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cumulative wall time spent in each pipeline stage (cache misses only —
/// hits skip every stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Seconds spent generating kernels (`Operator::build`).
    pub build_secs: f64,
    /// Seconds spent in the event-driven simulator.
    pub simulate_secs: f64,
    /// Seconds spent collecting profiles from traces.
    pub profile_secs: f64,
    /// Seconds spent in the roofline analysis.
    pub analyze_secs: f64,
    /// Number of uncached stage-sequence executions.
    pub runs: u64,
}

impl StageTimings {
    /// Total wall time across all four stages.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.build_secs + self.simulate_secs + self.profile_secs + self.analyze_secs
    }
}

/// Cumulative engine-loop throughput across all uncached runs on this
/// pipeline (shared across clones): how many events the simulator's
/// event loop processed and how long the loop itself ran — excluding
/// kernel build, kernel validation, trace finalization, profiling, and
/// analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineThroughput {
    /// Events processed by the simulator's event loop.
    pub events: u64,
    /// Wall seconds spent inside the event loop.
    pub sim_secs: f64,
}

impl EngineThroughput {
    /// Events per wall second (0 before anything ran).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.events as f64 / self.sim_secs
        } else {
            0.0
        }
    }

    /// Mean wall nanoseconds per event (0 before anything ran).
    #[must_use]
    pub fn ns_per_event(&self) -> f64 {
        if self.events > 0 {
            self.sim_secs * 1e9 / self.events as f64
        } else {
            0.0
        }
    }

    /// Folds another throughput record into this one.
    pub fn absorb(&mut self, other: EngineThroughput) {
        self.events += other.events;
        self.sim_secs += other.sim_secs;
    }
}

/// How many results each [`Fidelity`] produced (shared across clones).
/// Cache hits are not double-counted: every result is counted once, at
/// production time. Derived, not stored: `simulated` is
/// [`StageTimings::runs`], `analytical` is
/// [`SupervisorStats::fallbacks`] and `audited` is
/// [`AuditStats::divergences`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FidelityMix {
    /// Results produced by full simulation.
    pub simulated: u64,
    /// Results degraded to the closed-form analytical estimate.
    pub analytical: u64,
    /// Results re-answered by the reference oracle after an online audit
    /// caught the fast engine diverging ([`Fidelity::Audited`]).
    #[serde(default)]
    pub audited: u64,
}

/// Per-stage percentile summaries (seconds), from fixed-size reservoirs
/// fed by every uncached stage-sequence execution. Unlike
/// [`StageTimings`], which accumulates wall time, these expose the
/// *distribution* — tail inflation under load is invisible in sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StagePercentiles {
    /// Kernel-generation latency (`Operator::build`).
    pub build: LatencySummary,
    /// Event-driven simulation latency.
    pub simulate: LatencySummary,
    /// Trace-profiling latency.
    pub profile: LatencySummary,
    /// Roofline-analysis latency.
    pub analyze: LatencySummary,
    /// End-to-end latency of the whole uncached stage sequence.
    pub total: LatencySummary,
}

/// One latency reservoir per stage plus one for the total, in
/// [`StagePercentiles`] order, all seeded distinctly so replacement
/// streams do not correlate.
#[derive(Debug)]
struct StageReservoirs([LatencyReservoir; 5]);

impl Default for StageReservoirs {
    fn default() -> Self {
        let seeds = [0xB01, 0x51E, 0xF0F, 0xA11, 0x707];
        StageReservoirs(seeds.map(|seed| LatencyReservoir::new(DEFAULT_RESERVOIR_CAPACITY, seed)))
    }
}

#[derive(Debug, Default)]
struct ResultCache {
    map: HashMap<u64, Arc<PipelineResult>>,
    order: VecDeque<u64>,
}

/// Circuit-breaker state shared across pipeline clones. The counter
/// tracks *consecutive* items whose every supervised attempt failed;
/// once `open`, it stays open (short-circuiting supervised runs whose
/// policy enables the breaker) until [`AnalysisPipeline::reset_breaker`].
#[derive(Debug, Default)]
struct BreakerState {
    consecutive: u32,
    open: bool,
}

/// Every counter the clones of a pipeline share, behind one lock: the
/// cache counters, stage sums and reservoirs, supervision counters,
/// breaker and engine throughput. A leaf lock: nothing else is locked
/// while it is held.
#[derive(Debug, Default)]
struct Ledger {
    cache: CacheStats,
    timings: StageTimings,
    latency: StageReservoirs,
    supervisor: SupervisorStats,
    breaker: BreakerState,
    engine: EngineThroughput,
}

impl Ledger {
    /// Books one uncached stage sequence.
    fn book(&mut self, clock: &StageClock) {
        let StageClock { start, built, simulated, profiled, analyzed, engine } = *clock;
        let secs = [built - start, simulated - built, profiled - simulated, analyzed - profiled]
            .map(|stage| stage.as_secs_f64());
        self.timings.build_secs += secs[0];
        self.timings.simulate_secs += secs[1];
        self.timings.profile_secs += secs[2];
        self.timings.analyze_secs += secs[3];
        self.timings.runs += 1;
        let total = (analyzed - start).as_secs_f64();
        for (reservoir, secs) in self.latency.0.iter_mut().zip(secs.into_iter().chain([total])) {
            reservoir.record(secs);
        }
        self.engine.absorb(engine);
    }
}

/// Wall-clock marks of one uncached stage sequence, booked into the
/// [`Ledger`] when its miss completes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageClock {
    start: Instant,
    built: Instant,
    simulated: Instant,
    profiled: Instant,
    analyzed: Instant,
    /// The fast engine's event loop (zero when the oracle simulated).
    engine: EngineThroughput,
}

/// A freshly computed result and the stage clock to book with it
/// (`None` when another process ran the stages).
pub(crate) type Computed = (PipelineResult, Option<StageClock>);

#[derive(Debug, Default)]
struct SharedState {
    cache: Mutex<ResultCache>,
    ledger: Mutex<Ledger>,
}

/// The build → simulate → profile → analyze stage sequence with a
/// content-addressed result cache and a scoped-thread batch API.
///
/// See the [crate docs](crate) for the full story; construct with
/// [`AnalysisPipeline::new`], configure with the `with_*` builders, then
/// [`run`](AnalysisPipeline::run) operators through it.
#[derive(Debug, Clone)]
pub struct AnalysisPipeline {
    chip: ChipSpec,
    thresholds: Thresholds,
    simulator: Simulator,
    /// Fingerprint of (chip, thresholds); mixed into every cache key so
    /// clones with different configuration never share entries.
    context: u64,
    capacity: usize,
    shared: Arc<SharedState>,
    /// Optional durable second cache tier (memory → disk → compute).
    /// Shared across clones of *this* configured pipeline; never
    /// consulted for a different context (the store header pins it).
    store: Option<Arc<ResultStore>>,
    /// Optional online audit tier: sampled shadow re-execution on the
    /// reference oracle, quarantine, and the demotion breaker. Shared
    /// across clones (one ledger, one demotion latch).
    auditor: Option<Arc<Auditor>>,
    /// Chaos-only seam: deterministically perturbs served durations
    /// *after* simulation, modelling a silently wrong engine for the
    /// audit tier's end-to-end tests. Never enabled in production paths.
    buggy: Option<BuggyEngine>,
}

impl AnalysisPipeline {
    /// A pipeline for `chip` with the paper's default thresholds.
    #[must_use]
    pub fn new(chip: ChipSpec) -> Self {
        let thresholds = Thresholds::default();
        let context = context_fingerprint(&chip, &thresholds);
        AnalysisPipeline {
            simulator: Simulator::new(chip.clone()),
            chip,
            thresholds,
            context,
            capacity: DEFAULT_CACHE_CAPACITY,
            shared: Arc::new(SharedState::default()),
            store: None,
            auditor: None,
            buggy: None,
        }
    }

    /// A pipeline for `chip`, rejecting invalid chip specifications at
    /// construction instead of at the first run.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidSpec`] when `chip` violates a
    /// construction invariant (see `ChipSpec::validate`).
    pub fn try_new(chip: ChipSpec) -> Result<Self, ArchError> {
        chip.validate()?;
        Ok(AnalysisPipeline::new(chip))
    }

    /// Overrides the classification thresholds. The cache-key context
    /// changes with them, so results cached under other thresholds are
    /// never returned.
    #[must_use]
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = thresholds;
        self.context = context_fingerprint(&self.chip, &self.thresholds);
        // An attached store is pinned to the old context; consulting it
        // under the new one would be refused by its header anyway, so
        // drop it loudly. Attach the store *after* configuration.
        if let Some(store) = &self.store {
            if store.context() != self.context {
                eprintln!(
                    "[pipeline] warning: thresholds changed after a result store was \
                     attached; detaching the store (attach it last)"
                );
                self.store = None;
            }
        }
        self
    }

    /// Overrides the cache capacity (entries, minimum 1).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Attaches a durable on-disk cache tier at `path` (created if
    /// missing, recovered if present): lookups go memory → disk →
    /// compute, and computed results are written back through. Attach
    /// the store **after** `with_thresholds` — the store is pinned to
    /// the pipeline's context fingerprint.
    ///
    /// Run-time store failures never fail requests (see
    /// [`ResultStore`]); only *opening* a wrong or unreadable store is
    /// an error, because silently analyzing without the cache the caller
    /// asked for would hide a misconfiguration.
    ///
    /// # Errors
    ///
    /// Everything [`ResultStore::open`] reports.
    pub fn with_store(self, path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        let store = ResultStore::open(path, self.context)?;
        Ok(self.with_result_store(Arc::new(store)).expect("context was taken from self"))
    }

    /// Attaches an already-open [`ResultStore`] — the seam for sharing
    /// one store across pipelines and for fault-injected test stores.
    ///
    /// # Errors
    ///
    /// [`StoreError::ContextMismatch`] when the store was opened for a
    /// different (chip, thresholds) context.
    pub fn with_result_store(mut self, store: Arc<ResultStore>) -> Result<Self, StoreError> {
        if store.context() != self.context {
            return Err(StoreError::ContextMismatch {
                found: store.context(),
                expected: self.context,
            });
        }
        self.store = Some(store);
        Ok(self)
    }

    /// Enables the online audit tier under `policy`, in **inline** mode:
    /// a sampled result is shadow re-executed on the reference oracle
    /// *before* it is returned, and a divergent result is replaced by
    /// the oracle's answer ([`Fidelity::Audited`]) with its fingerprint
    /// quarantined. The service attaches the **deferred** variant
    /// instead (audits run on scheduling slack, off the request path).
    #[must_use]
    pub fn with_audit(mut self, policy: AuditPolicy) -> Self {
        self.auditor = Some(Arc::new(Auditor::new(policy, false)));
        self
    }

    /// [`with_audit`](AnalysisPipeline::with_audit) in **deferred**
    /// mode: sampled results are queued and shadow re-executed only when
    /// [`run_pending_audit`](AnalysisPipeline::run_pending_audit) is
    /// called — the service drains the queue on scheduling slack, so
    /// audits never add latency to the request path.
    #[must_use]
    pub fn with_audit_deferred(mut self, policy: AuditPolicy) -> Self {
        self.auditor = Some(Arc::new(Auditor::new(policy, true)));
        self
    }

    /// Chaos seam: makes the *served* results deterministically wrong.
    /// An afflicted result's trace durations are perturbed after
    /// simulation (see [`BuggyEngine`]), modelling a silently
    /// miscompiled or drifted fast engine. Only the audit tier can tell;
    /// this is how the chaos suite proves it does. Never combine with
    /// production use.
    #[must_use]
    pub fn with_buggy_engine(mut self, bug: BuggyEngine) -> Self {
        self.buggy = Some(bug);
        self
    }

    /// The context fingerprint mixed into every cache key — what a
    /// [`ResultStore`] must be opened with to be attachable.
    #[must_use]
    pub fn context(&self) -> u64 {
        self.context
    }

    /// Counters of the attached disk tier (`None` without one).
    #[must_use]
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|store| store.stats())
    }

    /// Syncs the attached store's unsynced appends to the device (the
    /// drain hook). A no-op without a store.
    pub fn flush_store(&self) {
        if let Some(store) = &self.store {
            store.flush();
        }
    }

    /// The one memory → disk lookup every entry point (in-process,
    /// supervised, sandboxed) answers repeats from. A hit in either tier
    /// counts as a cache hit; a digest-valid disk record that also
    /// deserializes is promoted into the memory cache. Undecodable
    /// payloads (format drift behind a valid digest) are discarded from
    /// the store and recomputed.
    pub(crate) fn lookup(&self, key: u64) -> Option<Arc<PipelineResult>> {
        let cached = lock(&self.shared.cache).map.get(&key).cloned();
        let found = match (cached, &self.store) {
            (Some(found), _) => found,
            (None, Some(store)) => {
                let payload = store.get(key)?;
                let parsed = serde_json::from_slice::<PipelineResult>(&payload)
                    .ok()
                    .filter(|result| result.fingerprint == key);
                let Some(result) = parsed else {
                    store.discard(key);
                    return None;
                };
                let result = Arc::new(result);
                self.insert(key, Arc::clone(&result));
                result
            }
            (None, None) => return None,
        };
        lock(&self.shared.ledger).cache.hits += 1;
        Some(found)
    }

    /// Completes a miss, whichever path computed it: caches the result,
    /// counts the miss, books the stage clock and writes the result
    /// through to the store. Only simulated results are persisted — an
    /// audited answer is barred by its tombstone, and a durable degraded
    /// estimate would outlive the condition that forced it.
    fn finish_miss(&self, key: u64, (result, clock): Computed) -> Arc<PipelineResult> {
        let result = Arc::new(result);
        self.insert(key, Arc::clone(&result));
        {
            let mut ledger = lock(&self.shared.ledger);
            ledger.cache.misses += 1;
            if let Some(clock) = &clock {
                ledger.book(clock);
            }
        }
        if let Some(store) = self.store.as_ref().filter(|_| result.fidelity == Fidelity::Simulated)
        {
            match serde_json::to_string(&*result) {
                Ok(json) => store.put(key, json.as_bytes()),
                Err(err) => {
                    eprintln!("[pipeline] warning: result {key:#018x} not persisted: {err}");
                }
            }
        }
        result
    }

    /// The chip this pipeline simulates.
    #[must_use]
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }

    /// The classification thresholds in use.
    #[must_use]
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// The cache key for `op` under this pipeline's configuration.
    #[must_use]
    pub fn cache_key(&self, op: &dyn Operator) -> u64 {
        mix(self.context, op.fingerprint())
    }

    /// Runs the full stage sequence on `op`, answering from the cache
    /// when this (operator, chip, thresholds) combination already ran.
    ///
    /// # Errors
    ///
    /// Propagates kernel-construction and simulation errors.
    pub fn run(&self, op: &dyn Operator) -> Result<Arc<PipelineResult>, SimError> {
        let key = self.cache_key(op);
        if let Some(found) = self.lookup(key) {
            return Ok(found);
        }
        // Compute outside the cache lock so batch workers make progress
        // concurrently. Two workers racing on the same key both miss; the
        // later insert is a no-op.
        let computed = self.execute_on(op, key, &self.simulator)?;
        Ok(self.finish_miss(key, computed))
    }

    /// [`run`](AnalysisPipeline::run) with panic isolation: a panicking
    /// operator (or stage) is caught at this boundary and reported as
    /// [`PipelineError::Panicked`] instead of unwinding into the caller.
    /// This is the per-item unit of the batch and stream APIs.
    ///
    /// # Errors
    ///
    /// Everything [`run`](AnalysisPipeline::run) reports, reclassified
    /// into the [`PipelineError`] taxonomy, plus the panic case.
    pub fn run_isolated(&self, op: &dyn Operator) -> Result<Arc<PipelineResult>, PipelineError> {
        // The shared state stays coherent across an unwind: `lock`
        // tolerates poison and the guarded structures are valid between
        // mutations, so resuming with the caught state is safe.
        catch_unwind(AssertUnwindSafe(|| self.run(op)))
            .map_err(|payload| PipelineError::Panicked {
                message: error::panic_message(payload.as_ref()),
            })?
            .map_err(PipelineError::from)
    }

    /// Runs `op` under a supervision [`RunPolicy`]: per-attempt
    /// deadline/budget, bounded seeded retries of transient failures, a
    /// circuit breaker across items, and optional degradation to the
    /// closed-form analytical estimate ([`Fidelity::AnalyticalFallback`])
    /// when every attempt fails.
    ///
    /// A passthrough policy ([`RunPolicy::default`]) without a `cancel`
    /// token behaves exactly like
    /// [`run_isolated`](AnalysisPipeline::run_isolated). Fallback
    /// results are **not** cached — a later run under a healthier policy
    /// gets a fresh chance to simulate.
    ///
    /// `cancel` is the service's preemption hook: each attempt runs
    /// under a [child](CancelToken::child_with_timeout) of it (so the
    /// policy's per-attempt deadline still applies), and a signalled
    /// token also stops the retry loop — no backoff sleep, no further
    /// attempts, no analytical fallback masking the preemption. The
    /// caller sees the cancelled attempt's error
    /// ([`PipelineError::Runtime`] wrapping `SimError::Cancelled`).
    ///
    /// # Errors
    ///
    /// Everything [`run_isolated`](AnalysisPipeline::run_isolated)
    /// reports (the *last* attempt's error once retries are exhausted
    /// and fallback is disabled or impossible),
    /// [`PipelineError::CircuitOpen`] when the breaker short-circuits
    /// the item, and the cancellation case above.
    pub fn run_supervised(
        &self,
        op: &dyn Operator,
        policy: &RunPolicy,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<PipelineResult>, PipelineError> {
        if policy.is_passthrough() && cancel.is_none() {
            return self.run_isolated(op);
        }
        let key = self.cache_key(op);
        if let Some(found) = self.lookup(key) {
            return Ok(found);
        }
        self.supervise_loop(key, policy, cancel, Some(op), &mut || {
            self.attempt_supervised(op, key, policy, cancel)
        })
    }

    /// The retry/breaker/fallback core shared by the in-process and
    /// sandboxed supervised paths: runs `attempt` under `policy`, feeding
    /// the shared circuit breaker and supervision counters, degrading to
    /// the analytical estimate of `fallback_op` (when the policy allows
    /// and one is provided — the sandboxed path withholds it for hostile
    /// work whose `build` must never run in this process).
    ///
    /// The caller has already checked the cache for `key`; a success
    /// completes the miss under it.
    pub(crate) fn supervise_loop(
        &self,
        key: u64,
        policy: &RunPolicy,
        cancel: Option<&CancelToken>,
        fallback_op: Option<&dyn Operator>,
        attempt: &mut dyn FnMut() -> Result<Computed, PipelineError>,
    ) -> Result<Arc<PipelineResult>, PipelineError> {
        let short_circuit = {
            let mut ledger = lock(&self.shared.ledger);
            ledger.supervisor.supervised_runs += 1;
            let open = policy.breaker_threshold > 0 && ledger.breaker.open;
            if open {
                ledger.supervisor.breaker_short_circuits += 1;
            }
            open.then_some(ledger.breaker.consecutive)
        };
        if let Some(consecutive) = short_circuit {
            let err = PipelineError::CircuitOpen { consecutive_failures: consecutive };
            return self.fall_back(policy, fallback_op, key, err);
        }

        let mut last_err: Option<PipelineError> = None;
        for round in 0..=policy.max_retries {
            if round > 0 {
                // A signalled external token ends supervision now:
                // retrying (or even sleeping out the backoff) after the
                // service asked for preemption would stall drain.
                if cancel.is_some_and(CancelToken::is_signalled) {
                    break;
                }
                lock(&self.shared.ledger).supervisor.retries += 1;
                let delay = policy.backoff_delay(key, round);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            match attempt() {
                Ok(computed) => {
                    if policy.breaker_threshold > 0 {
                        let mut ledger = lock(&self.shared.ledger);
                        if !ledger.breaker.open {
                            ledger.breaker.consecutive = 0;
                        }
                    }
                    return Ok(self.finish_miss(key, computed));
                }
                Err(err) => {
                    match &err {
                        PipelineError::Runtime(SimError::Cancelled { .. }) => {
                            lock(&self.shared.ledger).supervisor.deadline_preemptions += 1;
                        }
                        PipelineError::Runtime(SimError::BudgetExceeded { .. }) => {
                            lock(&self.shared.ledger).supervisor.budget_trips += 1;
                        }
                        _ => {}
                    }
                    let transient = err.is_transient();
                    last_err = Some(err);
                    if !transient {
                        // Invalid kernels and broken specs fail the same
                        // way every time; retrying burns the deadline for
                        // nothing.
                        break;
                    }
                }
            }
        }

        let err = last_err.unwrap_or(PipelineError::Panicked {
            message: "supervised run produced neither result nor error".to_string(),
        });
        // An externally preempted item is not a backend-health signal:
        // it must neither feed the breaker nor degrade to the analytical
        // estimate — the caller asked it to stop, so report that.
        if !err.is_transient() || cancel.is_some_and(CancelToken::is_signalled) {
            return Err(err);
        }
        // Only backend-health failures feed the breaker: a batch of
        // invalid operators must not lock healthy items out of the
        // simulator.
        {
            let mut ledger = lock(&self.shared.ledger);
            ledger.supervisor.hard_failures += 1;
            if policy.breaker_threshold > 0 {
                ledger.breaker.consecutive += 1;
                if !ledger.breaker.open && ledger.breaker.consecutive >= policy.breaker_threshold {
                    ledger.breaker.open = true;
                    ledger.supervisor.breaker_trips += 1;
                }
            }
        }
        self.fall_back(policy, fallback_op, key, err)
    }

    /// Answers a failed supervised item with the analytical estimate of
    /// `fallback_op` when the policy allows and the estimate can be
    /// built; otherwise reports `err`.
    fn fall_back(
        &self,
        policy: &RunPolicy,
        fallback_op: Option<&dyn Operator>,
        key: u64,
        err: PipelineError,
    ) -> Result<Arc<PipelineResult>, PipelineError> {
        match fallback_op.filter(|_| policy.fallback) {
            Some(op) => self.analytic_fallback(op, key).map_err(|_| err),
            None => Err(err),
        }
    }

    /// One supervised attempt: the stage sequence on a simulator derived
    /// from the policy (budget override, cancellation deadline), with
    /// panic isolation at the attempt boundary.
    fn attempt_supervised(
        &self,
        op: &dyn Operator,
        key: u64,
        policy: &RunPolicy,
        cancel: Option<&CancelToken>,
    ) -> Result<Computed, PipelineError> {
        // The attempt's token composes the external cancellation flag
        // (shared with the service's drain token) with the policy's
        // per-attempt deadline, whichever applies.
        let token = match (cancel, policy.deadline) {
            (Some(parent), Some(deadline)) => Some(parent.child_with_timeout(deadline)),
            (Some(parent), None) => Some(parent.clone()),
            (None, Some(deadline)) => Some(CancelToken::with_timeout(deadline)),
            (None, None) => None,
        };
        let simulator = if token.is_some() || policy.budget.is_some() {
            let mut simulator = self.simulator.clone();
            if let Some(budget) = policy.budget {
                simulator = simulator.with_budget(budget);
            }
            if let Some(token) = token {
                simulator = simulator.with_cancel(token);
            }
            Some(simulator)
        } else {
            None
        };
        let simulator = simulator.as_ref().unwrap_or(&self.simulator);
        catch_unwind(AssertUnwindSafe(|| self.execute_on(op, key, simulator)))
            .map_err(|payload| PipelineError::Panicked {
                message: error::panic_message(payload.as_ref()),
            })?
            .map_err(PipelineError::from)
    }

    /// Builds the degraded result: the kernel's closed-form analytical
    /// roofline estimate with an empty trace, tagged
    /// [`Fidelity::AnalyticalFallback`] and counted as a supervision
    /// fallback. Never cached.
    fn analytic_fallback(
        &self,
        op: &dyn Operator,
        key: u64,
    ) -> Result<Arc<PipelineResult>, PipelineError> {
        let kernel = op.build(&self.chip)?;
        let estimate = analytic::estimate(&kernel, &self.chip)?;
        let stats = KernelStats::of(&kernel);
        let profile = Profile {
            name: kernel.name().to_owned(),
            ops: stats.ops,
            bytes: stats.bytes,
            active_cycles: estimate.active_cycles,
            total_cycles: estimate.total_cycles,
            instruction_count: kernel.len() as u64,
        };
        let analysis = analyze(&profile, &self.chip, &self.thresholds);
        lock(&self.shared.ledger).supervisor.fallbacks += 1;
        let trace = Trace::from_parts(kernel.name(), Vec::new(), estimate.total_cycles);
        let fidelity = Fidelity::AnalyticalFallback;
        Ok(Arc::new(PipelineResult::new(&kernel, key, profile, trace, analysis, fidelity)))
    }

    /// Runs independent operators concurrently on `workers` scoped worker
    /// threads, each item through
    /// [`run_isolated`](AnalysisPipeline::run_isolated). Results are
    /// returned in **input order** regardless of completion order, one
    /// `Result` per input: a failing or panicking operator costs its own
    /// slot, never its siblings'. Pass
    /// [`std::thread::available_parallelism`] for one worker per CPU.
    ///
    /// The worker count is **clamped to `1..=ops.len()`**: `0` (or any
    /// degenerate request) runs serially on the calling thread, a count
    /// above the batch size is reduced to one worker per item (threads
    /// that could never claim work are not spawned), and an empty batch
    /// spawns no threads and returns an empty vector.
    pub fn run_batch_with_workers(
        &self,
        ops: &[&dyn Operator],
        workers: usize,
    ) -> Vec<Result<Arc<PipelineResult>, PipelineError>> {
        self.batch_with_workers(ops, workers, |op| self.run_isolated(op))
    }

    /// The shared fan-out machinery of every batch API: `run_one` per
    /// item on scoped worker threads (count clamped to `1..=ops.len()`,
    /// see [`run_batch_with_workers`](AnalysisPipeline::run_batch_with_workers)),
    /// results in input order.
    fn batch_with_workers<F>(
        &self,
        ops: &[&dyn Operator],
        workers: usize,
        run_one: F,
    ) -> Vec<Result<Arc<PipelineResult>, PipelineError>>
    where
        F: Fn(&dyn Operator) -> Result<Arc<PipelineResult>, PipelineError> + Sync,
    {
        if ops.is_empty() {
            return Vec::new();
        }
        let workers = workers.clamp(1, ops.len());
        if workers <= 1 {
            return ops.iter().map(|op| run_one(*op)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Result<Arc<PipelineResult>, PipelineError>>> =
            (0..ops.len()).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = ops.get(index) else { break };
                    let filled = slots[index].set(run_one(*op));
                    debug_assert!(filled.is_ok(), "every slot is claimed exactly once");
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().unwrap_or_else(|| {
                    // Unreachable while the claim loop covers every index;
                    // degrade to a per-slot error rather than panic.
                    Err(PipelineError::Panicked {
                        message: "batch slot was never filled".to_string(),
                    })
                })
            })
            .collect()
    }

    /// [`run_batch_with_workers`](AnalysisPipeline::run_batch_with_workers)
    /// with every item going through
    /// [`run_supervised`](AnalysisPipeline::run_supervised) under
    /// `policy`.
    ///
    /// With a store attached ([`with_store`](AnalysisPipeline::with_store))
    /// this is also the crash-safe resumable batch: every simulated
    /// result is persisted — fsync'd under the default [`FsyncPolicy`] —
    /// as it completes, so a process killed mid-batch loses at most the
    /// items in flight, and re-running the same batch on a pipeline that
    /// reopens the store serves the finished items from disk and computes
    /// only the remainder. Analytical-fallback results are never
    /// persisted, so they re-run on resume.
    pub fn run_batch_supervised(
        &self,
        ops: &[&dyn Operator],
        workers: usize,
        policy: &RunPolicy,
    ) -> Vec<Result<Arc<PipelineResult>, PipelineError>> {
        self.batch_with_workers(ops, workers, |op| self.run_supervised(op, policy, None))
    }

    /// Runs only the analyze stage on an externally assembled profile
    /// (e.g. a whole-model aggregate), under this pipeline's chip and
    /// thresholds. Not cached.
    #[must_use]
    pub fn analyze_profile(&self, profile: &Profile) -> RooflineAnalysis {
        let start = Instant::now();
        let analysis = analyze(profile, &self.chip, &self.thresholds);
        lock(&self.shared.ledger).timings.analyze_secs += start.elapsed().as_secs_f64();
        analysis
    }

    /// Current hit/miss/eviction counters (shared across clones).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        lock(&self.shared.ledger).cache
    }

    /// Current supervision counters (shared across clones).
    #[must_use]
    pub fn supervisor_stats(&self) -> SupervisorStats {
        lock(&self.shared.ledger).supervisor
    }

    /// Whether the supervision circuit breaker is currently open.
    #[must_use]
    pub fn breaker_is_open(&self) -> bool {
        lock(&self.shared.ledger).breaker.open
    }

    /// Closes the circuit breaker and zeroes its consecutive-failure
    /// counter — the explicit recovery step after the backend (chip
    /// spec, fault plan, host load) has been fixed.
    pub fn reset_breaker(&self) {
        lock(&self.shared.ledger).breaker = BreakerState::default();
    }

    /// Cumulative per-stage wall times (shared across clones).
    #[must_use]
    pub fn timings(&self) -> StageTimings {
        lock(&self.shared.ledger).timings
    }

    /// Per-stage latency percentiles from the shared reservoirs (cache
    /// misses only — hits skip every stage).
    #[must_use]
    pub fn stage_percentiles(&self) -> StagePercentiles {
        let [build, simulate, profile, analyze, total] =
            lock(&self.shared.ledger).latency.0.each_ref().map(LatencyReservoir::summary);
        StagePercentiles { build, simulate, profile, analyze, total }
    }

    /// Number of results currently cached.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        lock(&self.shared.cache).map.len()
    }

    /// Cumulative engine event-loop throughput (shared across clones):
    /// events processed and wall seconds spent inside the event loop,
    /// with derived events/sec and ns/event.
    #[must_use]
    pub fn engine_throughput(&self) -> EngineThroughput {
        lock(&self.shared.ledger).engine
    }

    /// How many results each fidelity produced (shared across clones),
    /// derived from the counters that already count each one (see
    /// [`FidelityMix`]).
    #[must_use]
    pub fn fidelity_mix(&self) -> FidelityMix {
        let (simulated, analytical) = {
            let ledger = lock(&self.shared.ledger);
            (ledger.timings.runs, ledger.supervisor.fallbacks)
        };
        FidelityMix { simulated, analytical, audited: self.audit_stats().divergences }
    }

    /// Audit-tier counters (all zero without an attached audit policy).
    #[must_use]
    pub fn audit_stats(&self) -> AuditStats {
        self.auditor.as_deref().map(Auditor::stats).unwrap_or_default()
    }

    /// Whether the divergence breaker has demoted this pipeline to the
    /// reference engine for the rest of the run.
    #[must_use]
    pub fn is_demoted(&self) -> bool {
        self.auditor.as_deref().is_some_and(Auditor::is_demoted)
    }

    /// Deferred audits waiting for scheduling slack.
    #[must_use]
    pub fn pending_audits(&self) -> usize {
        self.auditor.as_deref().map_or(0, Auditor::pending)
    }

    /// Runs one deferred audit, if any are queued: shadow re-execution,
    /// comparison, and — on divergence — quarantine plus replacement of
    /// the cached result by the oracle's answer. Returns whether a job
    /// was processed (the service calls this on worker slack until it
    /// reports `false`).
    pub fn run_pending_audit(&self) -> bool {
        let Some(auditor) = &self.auditor else { return false };
        let Some(job) = auditor.take_job() else { return false };
        if let Some(oracle) = self.perform_audit(job.key, &job.kernel, &job.result) {
            // The divergent entry was purged by the quarantine; the
            // oracle's answer takes its place so later hits on this key
            // serve the truth.
            self.insert(job.key, Arc::new(oracle));
        }
        true
    }

    /// Discards the deferred audit backlog (counted as dropped) — the
    /// drain hook: a stopping service must not owe shadow work.
    pub fn drop_pending_audits(&self) -> usize {
        self.auditor.as_deref().map_or(0, Auditor::drop_pending)
    }

    /// Clears the cache and zeroes all counters (shared across clones).
    pub fn reset(&self) {
        *lock(&self.shared.cache) = ResultCache::default();
        *lock(&self.shared.ledger) = Ledger::default();
        if let Some(auditor) = &self.auditor {
            auditor.reset();
        }
    }

    /// The two-line instrumentation footer the figure binaries print:
    /// per-stage wall time plus cache behaviour.
    #[must_use]
    pub fn instrumentation_footer(&self) -> String {
        let timings = self.timings();
        let stats = self.cache_stats();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[pipeline] stages ({} uncached runs): build {:.3}s | simulate {:.3}s | profile {:.3}s | analyze {:.3}s",
            timings.runs,
            timings.build_secs,
            timings.simulate_secs,
            timings.profile_secs,
            timings.analyze_secs,
        );
        if timings.runs > 0 {
            let pct = self.stage_percentiles();
            let _ = writeln!(
                out,
                "[pipeline] stage latency ms p50/p95/p99: build {} | simulate {} | profile {} | analyze {} | total {}",
                pct.build, pct.simulate, pct.profile, pct.analyze, pct.total,
            );
        }
        let engine = self.engine_throughput();
        if engine.events > 0 {
            let _ = writeln!(
                out,
                "[pipeline] engine: {} events in {:.3}s ({:.0} events/s, {:.0} ns/event)",
                engine.events,
                engine.sim_secs,
                engine.events_per_sec(),
                engine.ns_per_event(),
            );
        }
        let _ = write!(
            out,
            "[pipeline] cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, {} entries live",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.evictions,
            self.cache_len(),
        );
        // The store line only appears when a disk tier is attached,
        // keeping store-less binaries' output byte-identical.
        if let Some(store) = self.store_stats() {
            let _ = write!(
                out,
                "\n[pipeline] store: {} hits / {} misses, {} recovered, {} corrupt dropped, \
                 {} appends, {} compactions, {} io errors{}",
                store.hits,
                store.misses,
                store.recovered,
                store.corrupt_dropped,
                store.appends,
                store.compactions,
                store.io_errors,
                if store.disabled { " [DISABLED]" } else { "" },
            );
        }
        // The supervision line only appears when something supervised
        // actually happened, keeping unsupervised binaries' output
        // byte-identical to before the supervisor existed.
        let sup = self.supervisor_stats();
        if sup.any_activity() {
            let _ = write!(out, "\n[pipeline] supervision: {sup}");
        }
        // Same rule for the audit line: silent until the tier does
        // something, so audit-less binaries' output never changes.
        let audit = self.audit_stats();
        if audit.any_activity() {
            let _ = write!(out, "\n[pipeline] audit: {audit}");
        }
        out
    }

    /// The uncached stage sequence on `simulator` (the pipeline's own,
    /// or the supervised path's copy carrying a deadline token and/or a
    /// budget override). The simulate stage runs the fast engine, or the
    /// [`ReferenceSimulator`] under the same budget and cancellation once
    /// the audit tier has demoted the pipeline. Oracle results are
    /// trustworthy simulations — they keep [`Fidelity::Simulated`] and
    /// may be cached and persisted — but they never feed the fast
    /// engine's throughput counters, the chaos perturbation is *not*
    /// applied (the modelled bug lives in the fast engine) and they are
    /// never audited.
    fn execute_on(
        &self,
        op: &dyn Operator,
        key: u64,
        simulator: &Simulator,
    ) -> Result<Computed, SimError> {
        // The engine polls its token every event, but the other stages
        // would otherwise run to completion after a cancellation: poll at
        // every stage boundary so a deadline lapsing during a long build
        // preempts before the next stage starts, not after.
        let cancel = simulator.cancel_token();
        poll_stage(cancel, "build")?;
        let start = Instant::now();
        let kernel = op.build(&self.chip)?;
        let built = Instant::now();
        poll_stage(cancel, "simulate")?;
        let demoted = self.is_demoted();
        let (trace, metrics, engine) = if demoted {
            let mut reference =
                ReferenceSimulator::new(self.chip.clone()).with_budget(simulator.budget());
            if let Some(token) = cancel {
                reference = reference.with_cancel(token.clone());
            }
            (reference.simulate(&kernel)?, None, EngineThroughput::default())
        } else {
            // One engine pass feeds both sinks: the full-record collector
            // (results keep their trace) and the streaming metrics the
            // profile stage consumes without re-walking kernel + trace.
            // Validation runs before the engine clock starts, so the
            // throughput counts the engine alone; the simulate stage
            // still counts both.
            let mut sinks = (TraceCollector::new(), MetricsSink::new());
            simulator.check(&kernel)?;
            let looped = Instant::now();
            let summary = simulator.simulate_unchecked_into(&kernel, &mut sinks)?;
            let engine = EngineThroughput {
                events: summary.events,
                sim_secs: looped.elapsed().as_secs_f64(),
            };
            let (collector, metrics) = sinks;
            let trace = collector.into_trace(kernel.name(), summary.total_cycles);
            match self.buggy.filter(|bug| bug.afflicts(key)) {
                Some(bug) => (perturb_trace(&bug, key, &trace), None, engine),
                None => (trace, Some((metrics, summary.total_cycles)), engine),
            }
        };
        let simulated = Instant::now();
        poll_stage(cancel, "profile")?;
        // Without the engine's metrics stream (an oracle or perturbed
        // trace) the profile is re-derived from the trace itself; a
        // perturbed trace must stay *self-consistent*, or the lie would
        // be visible without an audit.
        let profile = match &metrics {
            Some((metrics, total_cycles)) => Profile::from_metrics(metrics, *total_cycles),
            None => Profile::collect(&kernel, &trace),
        };
        let profiled = Instant::now();
        poll_stage(cancel, "analyze")?;
        let analysis = analyze(&profile, &self.chip, &self.thresholds);
        let clock = Some(StageClock {
            start,
            built,
            simulated,
            profiled,
            analyzed: Instant::now(),
            engine,
        });
        let result =
            PipelineResult::new(&kernel, key, profile, trace, analysis, Fidelity::Simulated);
        if let Some(auditor) = self.auditor.as_deref().filter(|_| !demoted) {
            if auditor.should_audit(key) {
                if auditor.deferred() {
                    auditor.enqueue(AuditJob { key, kernel, result: Arc::new(result.clone()) });
                } else if let Some(oracle) = self.perform_audit(key, &kernel, &result) {
                    // Inline mode: the divergent result is never
                    // returned, cached, or persisted — the caller gets
                    // the oracle's answer in its place.
                    return Ok((oracle, clock));
                }
            }
        }
        Ok((result, clock))
    }

    /// Shadow re-executes `served` on the reference oracle and compares
    /// the traces. Returns the oracle's replacement result when they
    /// diverge (`served`'s fingerprint is quarantined from memory and
    /// disk first), `None` when they match or the shadow was preempted.
    fn perform_audit(
        &self,
        key: u64,
        kernel: &Kernel,
        served: &PipelineResult,
    ) -> Option<PipelineResult> {
        let Some(auditor) = &self.auditor else { return None };
        let policy = auditor.policy();
        // The shadow is supervised like any other work: the oracle
        // inherits the fast engine's event/cycle budget and runs under
        // its own wall-clock deadline, so an audit can never wedge the
        // worker that volunteered the slack.
        let token = CancelToken::with_timeout(policy.shadow_deadline);
        let reference = ReferenceSimulator::new(self.chip.clone())
            .with_budget(self.simulator.budget())
            .with_cancel(token);
        // The kernel already passed validation when the fast engine ran.
        let oracle_trace = match reference.simulate_unchecked(kernel) {
            Ok(trace) => trace,
            Err(_) => {
                auditor.record_aborted();
                return None;
            }
        };
        let Some(report) = divergence::compare(&served.trace, &oracle_trace) else {
            auditor.record_outcome(false);
            return None;
        };
        eprintln!("[pipeline] audit: {report}");
        self.quarantine_key(key);
        let profile = Profile::collect(kernel, &oracle_trace);
        let analysis = analyze(&profile, &self.chip, &self.thresholds);
        if auditor.record_outcome(true) {
            eprintln!(
                "[pipeline] audit: divergence breaker tripped ({} in window of {}); \
                 demoting to the reference engine for the rest of the run",
                policy.demote_after, policy.window,
            );
        }
        let fidelity = Fidelity::Audited;
        Some(PipelineResult::new(kernel, key, profile, oracle_trace, analysis, fidelity))
    }

    /// Quarantines cache key `key`: the memory entry (if any) is purged
    /// and, with a store attached, a durable tombstone bars the
    /// fingerprint from ever being served or re-persisted. The audit
    /// tier's path for a divergent result — public so a cluster peer's
    /// verdict can be applied here ([`ClusterService::quarantine`]
    /// broadcasts through it). Idempotent.
    pub fn quarantine_key(&self, key: u64) {
        let mut cache = lock(&self.shared.cache);
        if cache.map.remove(&key).is_some() {
            cache.order.retain(|&k| k != key);
        }
        drop(cache);
        if let Some(store) = &self.store {
            store.quarantine(key);
        }
    }

    /// Caches `result` under `key`, evicting FIFO past the capacity.
    fn insert(&self, key: u64, result: Arc<PipelineResult>) {
        let mut cache = lock(&self.shared.cache);
        let mut evicted = 0;
        if cache.map.insert(key, result).is_none() {
            cache.order.push_back(key);
            while cache.order.len() > self.capacity {
                if let Some(oldest) = cache.order.pop_front() {
                    cache.map.remove(&oldest);
                    evicted += 1;
                }
            }
        }
        drop(cache);
        if evicted > 0 {
            lock(&self.shared.ledger).cache.evictions += evicted;
        }
    }
}

/// Applies a [`BuggyEngine`]'s deterministic duration skew to a served
/// trace: each positive-duration queue record is stretched by the
/// engine's seeded factor for its position, and the total is re-derived,
/// so the perturbed trace is internally consistent — wrong in exactly
/// the way only a bit-exact oracle comparison can see.
fn perturb_trace(bug: &BuggyEngine, key: u64, trace: &Trace) -> Trace {
    let mut records = trace.records().to_vec();
    let mut position = 0usize;
    for record in &mut records {
        if record.queue.is_some() && record.end > record.start {
            let factor = bug.duration_factor(key, position);
            position += 1;
            if factor != 1.0 {
                record.end = record.start + (record.end - record.start) * factor;
            }
        }
    }
    let total = records.iter().map(|r| r.end).fold(trace.total_cycles(), f64::max);
    Trace::from_parts(trace.kernel_name(), records, total)
}

/// Returns [`SimError::Cancelled`] (with a synthetic forensics snapshot
/// naming `stage`) when `cancel` is signalled or expired — the
/// stage-boundary counterpart of the engine's in-loop poll.
fn poll_stage(cancel: Option<&CancelToken>, stage: &str) -> Result<(), SimError> {
    match cancel {
        Some(token) if token.is_cancelled() => Err(SimError::preempted_at(stage)),
        _ => Ok(()),
    }
}

/// FNV-1a over the chip and threshold configuration.
pub(crate) fn context_fingerprint(chip: &ChipSpec, thresholds: &Thresholds) -> u64 {
    digest::fnv1a(format!("{chip:?}|{thresholds:?}").as_bytes())
}

/// SplitMix64-style combiner for (context, operator) fingerprints.
pub(crate) fn mix(context: u64, fingerprint: u64) -> u64 {
    let mut z = context ^ fingerprint.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_ops::{AddRelu, Gelu, OptFlags};
    use ascend_profile::Profiler;

    #[test]
    fn cached_result_is_identical_to_the_direct_path() {
        let chip = ChipSpec::training();
        let pipeline = AnalysisPipeline::new(chip.clone());
        let op = AddRelu::new(1 << 14);

        let first = pipeline.run(&op).unwrap();
        let second = pipeline.run(&op).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second run must be a cache hit");

        // Same numbers as the hand-rolled stage sequence.
        let kernel = op.build(&chip).unwrap();
        let (profile, trace) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert_eq!(first.profile, profile);
        assert_eq!(first.trace, trace);
        assert_eq!(first.analysis, analysis);
        assert_eq!(pipeline.cache_stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn flags_change_the_cache_key() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training());
        let base = AddRelu::new(1 << 19);
        let tuned = base.with_flags(OptFlags::new().rsd(true));
        assert_ne!(pipeline.cache_key(&base), pipeline.cache_key(&tuned));
        let a = pipeline.run(&base).unwrap();
        let b = pipeline.run(&tuned).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "distinct flags must be distinct entries");
        assert_ne!(a.cycles(), b.cycles(), "RSD must change the simulated time");
        assert_eq!(pipeline.cache_stats().misses, 2);
    }

    #[test]
    fn thresholds_change_the_context() {
        let chip = ChipSpec::training();
        let a = AnalysisPipeline::new(chip.clone());
        let b = a
            .clone()
            .with_thresholds(Thresholds { parallelism_ratio: 0.99, ..Thresholds::default() });
        let op = AddRelu::new(1 << 12);
        assert_ne!(a.cache_key(&op), b.cache_key(&op));
    }

    #[test]
    fn clones_share_cache_and_counters() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training());
        let clone = pipeline.clone();
        clone.run(&Gelu::new(1 << 12)).unwrap();
        let hit = pipeline.run(&Gelu::new(1 << 12)).unwrap();
        assert_eq!(hit.kernel_name, "gelu");
        assert_eq!(pipeline.cache_stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training()).with_cache_capacity(2);
        for shift in [10u64, 11, 12] {
            pipeline.run(&AddRelu::new(1 << shift)).unwrap();
        }
        assert_eq!(pipeline.cache_len(), 2);
        let stats = pipeline.cache_stats();
        assert_eq!(stats.evictions, 1);
        // The oldest entry (1<<10) was dropped: running it again misses.
        pipeline.run(&AddRelu::new(1 << 10)).unwrap();
        assert_eq!(pipeline.cache_stats().misses, 4);
    }

    /// An operator whose build stage always panics.
    #[derive(Debug, Clone)]
    struct PanickingOp;

    impl Operator for PanickingOp {
        fn name(&self) -> String {
            "panicker".to_string()
        }
        fn flags(&self) -> OptFlags {
            OptFlags::new()
        }
        fn with_flags_dyn(&self, _flags: OptFlags) -> Box<dyn Operator> {
            Box::new(self.clone())
        }
        fn build(&self, _chip: &ChipSpec) -> Result<ascend_isa::Kernel, ascend_isa::IsaError> {
            panic!("injected failure: operator build exploded")
        }
    }

    #[test]
    fn batch_isolates_a_panicking_item() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training());
        let good_a = AddRelu::new(1 << 12);
        let bad = PanickingOp;
        let good_b = Gelu::new(1 << 12);
        let ops: Vec<&dyn Operator> = vec![&good_a, &bad, &good_b];
        for workers in [1, 3] {
            let results = pipeline.run_batch_with_workers(&ops, workers);
            assert_eq!(results.len(), 3);
            assert!(results[0].is_ok(), "workers={workers}");
            assert!(results[2].is_ok(), "workers={workers}");
            match &results[1] {
                Err(PipelineError::Panicked { message }) => {
                    assert!(message.contains("operator build exploded"), "{message}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
        // The shared state survived the unwind: the pipeline still runs
        // and the counters still respond.
        assert!(pipeline.run(&good_a).is_ok());
        assert!(pipeline.cache_stats().hits > 0);
    }

    #[test]
    fn run_isolated_reclassifies_stage_errors() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training());
        // AvgPool with an enormous tile cannot be laid out -> Invalid.
        let impossible = ascend_ops::AvgPool::new(1 << 14).with_tile(1 << 40);
        match pipeline.run_isolated(&impossible) {
            Err(PipelineError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn external_cancel_preempts_without_fallback_or_retries() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training());
        // Retries and fallback are both enabled, but a signalled token
        // must override them: the caller asked the item to stop.
        let policy = RunPolicy::default().with_retries(3).with_fallback(true);
        let token = CancelToken::new();
        token.cancel();
        match pipeline.run_supervised(&AddRelu::new(1 << 12), &policy, Some(&token)) {
            Err(PipelineError::Runtime(SimError::Cancelled { .. })) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let sup = pipeline.supervisor_stats();
        assert_eq!(sup.retries, 0, "a signalled token must stop the retry loop");
        assert_eq!(sup.fallbacks, 0, "preemption must not degrade to the analytical estimate");
        assert!(!pipeline.breaker_is_open(), "preemption is not a backend-health signal");
        // An untriggered token leaves the supervised path fully intact.
        let ok = pipeline
            .run_supervised(&AddRelu::new(1 << 12), &policy, Some(&CancelToken::new()))
            .unwrap();
        assert_eq!(ok.fidelity, Fidelity::Simulated);
    }

    #[test]
    fn stage_percentiles_track_uncached_runs() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training());
        for shift in 10..14u64 {
            pipeline.run(&AddRelu::new(1 << shift)).unwrap();
        }
        pipeline.run(&AddRelu::new(1 << 10)).unwrap(); // hit: no sample
        let pct = pipeline.stage_percentiles();
        assert_eq!(pct.total.count, 4, "cache hits must not record latency");
        assert!(pct.total.p50 > 0.0);
        assert!(pct.total.p99 >= pct.total.p50);
        assert!(pct.simulate.p50 > 0.0);
        let footer = pipeline.instrumentation_footer();
        assert!(footer.contains("stage latency ms p50/p95/p99"), "{footer}");
        pipeline.reset();
        assert_eq!(pipeline.stage_percentiles().total.count, 0);
    }

    #[test]
    fn footer_mentions_all_counters() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training());
        pipeline.run(&AddRelu::new(1 << 12)).unwrap();
        pipeline.run(&AddRelu::new(1 << 12)).unwrap();
        let footer = pipeline.instrumentation_footer();
        assert!(footer.contains("1 hits / 1 misses"), "{footer}");
        assert!(footer.contains("1 uncached runs"), "{footer}");
        assert!(footer.contains("[pipeline] engine:"), "{footer}");
    }

    #[test]
    fn engine_throughput_and_fidelity_mix_track_runs() {
        let pipeline = AnalysisPipeline::new(ChipSpec::training());
        assert_eq!(pipeline.engine_throughput(), EngineThroughput::default());
        pipeline.run(&AddRelu::new(1 << 12)).unwrap();
        pipeline.run(&AddRelu::new(1 << 12)).unwrap(); // cache hit: no new events
        let engine = pipeline.engine_throughput();
        assert!(engine.events > 0, "uncached runs must count engine events");
        assert!(engine.sim_secs > 0.0);
        assert!(engine.events_per_sec() > 0.0);
        assert!(engine.ns_per_event() > 0.0);
        assert_eq!(
            pipeline.fidelity_mix(),
            FidelityMix { simulated: 1, analytical: 0, audited: 0 }
        );
        pipeline.reset();
        assert_eq!(pipeline.engine_throughput(), EngineThroughput::default());
        assert_eq!(pipeline.fidelity_mix(), FidelityMix::default());
    }
}
