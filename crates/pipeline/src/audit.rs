//! Online divergence auditing: policy, sampling, and the audit ledger.
//!
//! The fast engine is validated offline (golden fingerprints,
//! differential proptests), but nothing in that suite guards a *served*
//! result against silent divergence at runtime — a miscompiled build, a
//! scratch-reuse bug the fuzzer never drew, a future surrogate tier
//! answering from a model instead of a simulation. The audit tier closes
//! that gap: under an [`AuditPolicy`], a sampled fraction of
//! `Fidelity::Simulated` results is shadow re-executed on the seed
//! oracle ([`ReferenceSimulator`]) and compared record-for-record by
//! [`crate::divergence`].
//!
//! This module owns the *bookkeeping*: the policy (seeded, deterministic
//! per-key sampling with per-priority-class overrides), the deferred
//! audit queue the service drains on scheduling slack, the divergence
//! window that demotes the pipeline, and the [`AuditStats`] counters
//! surfaced through `HealthSnapshot` and the instrumentation footer.
//! The audit *execution* — shadow run, comparison, quarantine, oracle
//! re-answer — lives on `AnalysisPipeline`, which owns the cache and
//! store the quarantine must purge.
//!
//! Audit outcomes never feed the retry/fallback breaker: that breaker
//! models *transient* failures (deadlines, budget trips, panics) where
//! retrying or degrading to the analytical model helps. A divergence is
//! a *correctness* defect in the fast engine; the correct reaction is
//! quarantine plus demotion to the oracle, never an analytical guess.
//!
//! [`ReferenceSimulator`]: ascend_sim::reference::ReferenceSimulator

use crate::frontend::Priority;
use crate::PipelineResult;
use ascend_faults::SplitMix64;
use ascend_isa::Kernel;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Deferred audit jobs held per pipeline; beyond this, new samples are
/// dropped (and counted) rather than letting a saturated service grow
/// an unbounded shadow backlog.
pub(crate) const MAX_PENDING_AUDITS: usize = 64;

/// Sampling and demotion policy for the online audit tier.
///
/// Sampling is *deterministic per cache key*: a SplitMix64 draw seeded
/// from `(seed, key)` is compared against the class-resolved rate, so
/// the same key under the same policy is always (or never) sampled —
/// replays reproduce, and the canary's detection bound is exact rather
/// than probabilistic.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditPolicy {
    /// Base fraction of simulated results shadow re-executed (0 to 1).
    pub rate: f64,
    /// Seed of the per-key sampling draw.
    pub seed: u64,
    /// Per-priority-class rate overrides, indexed by
    /// [`Priority::index`]; `None` falls back to `rate`. Requests
    /// outside a service (bench binaries, direct pipeline use) always
    /// use the base rate.
    pub class_rates: [Option<f64>; Priority::COUNT],
    /// Divergences within [`window`](Self::window) audits that demote
    /// the pipeline to the reference engine for the rest of the run.
    pub demote_after: u32,
    /// Length of the sliding audit-outcome window the demotion breaker
    /// counts over.
    pub window: u32,
    /// Wall-clock bound on one shadow re-execution. The shadow runs
    /// under a [`CancelToken`](ascend_sim::CancelToken) with this
    /// timeout (plus the oracle's event/cycle budget), so an audit can
    /// never hang its worker; a preempted shadow counts as `aborted`,
    /// not as a divergence.
    pub shadow_deadline: Duration,
}

impl Default for AuditPolicy {
    fn default() -> Self {
        AuditPolicy {
            rate: 0.01,
            seed: 0xA0D1_7ED0_5EED_CAFE,
            class_rates: [None; Priority::COUNT],
            demote_after: 3,
            window: 64,
            shadow_deadline: Duration::from_secs(2),
        }
    }
}

impl AuditPolicy {
    /// Sets the base sampling rate (clamped to 0..=1).
    #[must_use]
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the sampling seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the sampling rate for one priority class.
    #[must_use]
    pub fn with_class_rate(mut self, class: Priority, rate: f64) -> Self {
        self.class_rates[class.index()] = Some(rate.clamp(0.0, 1.0));
        self
    }

    /// Sets the demotion breaker: `demote_after` divergences within a
    /// sliding window of `window` audits demote the pipeline.
    #[must_use]
    pub fn with_demotion(mut self, demote_after: u32, window: u32) -> Self {
        self.demote_after = demote_after.max(1);
        self.window = window.max(self.demote_after);
        self
    }

    /// Sets the wall-clock bound on one shadow re-execution.
    #[must_use]
    pub fn with_shadow_deadline(mut self, deadline: Duration) -> Self {
        self.shadow_deadline = deadline;
        self
    }

    /// The sampling rate for a request class (`None` = outside a
    /// service).
    #[must_use]
    pub fn rate_for(&self, class: Option<usize>) -> f64 {
        class
            .and_then(|c| self.class_rates.get(c).copied().flatten())
            .unwrap_or(self.rate)
            .clamp(0.0, 1.0)
    }

    /// Whether the result for `key` is sampled for auditing, under the
    /// rate for `class`. Deterministic in `(seed, key, class rate)`.
    #[must_use]
    pub fn samples(&self, key: u64, class: Option<usize>) -> bool {
        let rate = self.rate_for(class);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        SplitMix64::new(self.seed ^ key).unit_f64() < rate
    }
}

/// Audit-tier counters, surfaced in `HealthSnapshot` and
/// `serve_health.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditStats {
    /// Shadow re-executions that ran to comparison.
    pub audits: u64,
    /// Audits whose comparison found a divergence.
    pub divergences: u64,
    /// Fingerprints quarantined (purged from memory and tombstoned on
    /// disk). Every divergence quarantines exactly one fingerprint, so
    /// this is reported from `divergences`, not counted separately.
    pub quarantined: u64,
    /// Shadows preempted (deadline/budget) before comparison — not
    /// divergences, not passes.
    pub aborted: u64,
    /// Sampled results whose deferred audit was dropped (queue full or
    /// drained away) before it could run.
    pub dropped: u64,
    /// Deferred audits currently waiting for scheduling slack.
    pub pending: u64,
    /// Whether the divergence breaker has demoted the pipeline to the
    /// reference engine for the rest of the run.
    pub demoted: bool,
}

impl AuditStats {
    /// True once any audit activity (or demotion) has occurred.
    #[must_use]
    pub fn any_activity(&self) -> bool {
        self.audits > 0 || self.aborted > 0 || self.dropped > 0 || self.pending > 0 || self.demoted
    }
}

impl std::fmt::Display for AuditStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} audits, {} divergences, {} quarantined, {} aborted, {} dropped, {} pending{}",
            self.audits,
            self.divergences,
            self.quarantined,
            self.aborted,
            self.dropped,
            self.pending,
            if self.demoted { " [DEMOTED]" } else { "" },
        )
    }
}

/// A sampled result awaiting deferred shadow re-execution.
pub(crate) struct AuditJob {
    pub(crate) key: u64,
    pub(crate) kernel: Kernel,
    pub(crate) result: Arc<PipelineResult>,
}

/// Mutable audit state behind one lock (leaf lock: never held while
/// simulating, comparing, or touching cache/store locks).
#[derive(Default)]
struct AuditLedger {
    audits: u64,
    divergences: u64,
    aborted: u64,
    dropped: u64,
    /// Sliding window of recent audit outcomes (`true` = divergence).
    window: VecDeque<bool>,
    /// Keys already sampled this run — each fingerprint is audited at
    /// most once (re-executions after eviction skip the shadow).
    sampled: HashSet<u64>,
    /// Deferred jobs awaiting scheduling slack.
    queue: VecDeque<AuditJob>,
}

/// Shared audit state of one pipeline (and all its clones).
pub(crate) struct Auditor {
    policy: AuditPolicy,
    /// Deferred mode: sampled results are queued for slack-time audit
    /// (the service path). Inline mode audits synchronously before the
    /// result is returned (bench binaries, direct pipeline use).
    deferred: bool,
    demoted: AtomicBool,
    ledger: Mutex<AuditLedger>,
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("policy", &self.policy)
            .field("deferred", &self.deferred)
            .field("demoted", &self.is_demoted())
            .finish_non_exhaustive()
    }
}

impl Auditor {
    pub(crate) fn new(policy: AuditPolicy, deferred: bool) -> Self {
        Auditor {
            policy,
            deferred,
            demoted: AtomicBool::new(false),
            ledger: Mutex::new(AuditLedger::default()),
        }
    }

    pub(crate) fn policy(&self) -> &AuditPolicy {
        &self.policy
    }

    pub(crate) fn deferred(&self) -> bool {
        self.deferred
    }

    pub(crate) fn is_demoted(&self) -> bool {
        self.demoted.load(Ordering::Acquire)
    }

    /// Decides whether the freshly computed result for `key` should be
    /// shadow-audited, marking the key as sampled. A demoted pipeline
    /// never samples (every result already comes from the oracle).
    pub(crate) fn should_audit(&self, key: u64) -> bool {
        if self.is_demoted() || !self.policy.samples(key, current_class()) {
            return false;
        }
        crate::lock(&self.ledger).sampled.insert(key)
    }

    /// Queues a deferred audit; drops (and counts) when the backlog is
    /// full.
    pub(crate) fn enqueue(&self, job: AuditJob) {
        let mut ledger = crate::lock(&self.ledger);
        if ledger.queue.len() >= MAX_PENDING_AUDITS {
            ledger.dropped += 1;
        } else {
            ledger.queue.push_back(job);
        }
    }

    /// Takes the oldest deferred audit, if any.
    pub(crate) fn take_job(&self) -> Option<AuditJob> {
        crate::lock(&self.ledger).queue.pop_front()
    }

    pub(crate) fn pending(&self) -> usize {
        crate::lock(&self.ledger).queue.len()
    }

    /// Discards the deferred backlog (drain path), counting the jobs as
    /// dropped.
    pub(crate) fn drop_pending(&self) -> usize {
        let mut ledger = crate::lock(&self.ledger);
        let dropped = ledger.queue.len();
        ledger.dropped += dropped as u64;
        ledger.queue.clear();
        dropped
    }

    /// Records a completed comparison. On divergence, advances the
    /// divergence counter and the demotion window; returns `true` when
    /// this outcome just tripped demotion.
    pub(crate) fn record_outcome(&self, divergence: bool) -> bool {
        let mut ledger = crate::lock(&self.ledger);
        ledger.audits += 1;
        if divergence {
            ledger.divergences += 1;
        }
        ledger.window.push_back(divergence);
        while ledger.window.len() > self.policy.window as usize {
            ledger.window.pop_front();
        }
        let in_window = ledger.window.iter().filter(|&&d| d).count() as u32;
        drop(ledger);
        if divergence
            && in_window >= self.policy.demote_after
            && !self.demoted.swap(true, Ordering::AcqRel)
        {
            return true;
        }
        false
    }

    /// Records a shadow preempted before comparison.
    pub(crate) fn record_aborted(&self) {
        crate::lock(&self.ledger).aborted += 1;
    }

    pub(crate) fn stats(&self) -> AuditStats {
        let ledger = crate::lock(&self.ledger);
        AuditStats {
            audits: ledger.audits,
            divergences: ledger.divergences,
            quarantined: ledger.divergences,
            aborted: ledger.aborted,
            dropped: ledger.dropped,
            pending: ledger.queue.len() as u64,
            demoted: self.is_demoted(),
        }
    }

    /// Clears counters, the demotion latch, the sampled set, and the
    /// backlog (mirrors `AnalysisPipeline::reset`).
    pub(crate) fn reset(&self) {
        let mut ledger = crate::lock(&self.ledger);
        *ledger = AuditLedger::default();
        drop(ledger);
        self.demoted.store(false, Ordering::Release);
    }
}

thread_local! {
    /// Priority class of the request currently executing on this worker
    /// thread, set by the service around job execution so the sampler
    /// can resolve per-class rates without threading a parameter
    /// through the supervised call chain.
    static REQUEST_CLASS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The request class active on this thread, if any.
pub(crate) fn current_class() -> Option<usize> {
    REQUEST_CLASS.with(Cell::get)
}

/// RAII guard scoping a request class to one job execution (restored on
/// drop, including unwinds).
pub(crate) struct RequestClassGuard {
    prev: Option<usize>,
}

impl RequestClassGuard {
    pub(crate) fn set(class: usize) -> Self {
        let prev = REQUEST_CLASS.with(|slot| slot.replace(Some(class)));
        RequestClassGuard { prev }
    }
}

impl Drop for RequestClassGuard {
    fn drop(&mut self) {
        REQUEST_CLASS.with(|slot| slot.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_near_rate() {
        let policy = AuditPolicy::default().with_rate(0.25).with_seed(7);
        let hits: usize = (0..10_000).filter(|&k| policy.samples(k, None)).count();
        // A deterministic draw: the exact count is fixed for this seed,
        // and must sit near 25% of 10k.
        assert!((2_000..3_000).contains(&hits), "{hits} sampled of 10000");
        for k in 0..100 {
            assert_eq!(policy.samples(k, None), policy.samples(k, None));
        }
    }

    #[test]
    fn class_overrides_resolve_and_fall_back() {
        let policy =
            AuditPolicy::default().with_rate(1.0).with_class_rate(Priority::Interactive, 0.0);
        assert!(!policy.samples(42, Some(Priority::Interactive.index())));
        assert!(policy.samples(42, Some(Priority::Sweep.index())));
        assert!(policy.samples(42, None));
    }

    #[test]
    fn each_key_is_sampled_once() {
        let auditor = Auditor::new(AuditPolicy::default().with_rate(1.0), false);
        assert!(auditor.should_audit(9));
        assert!(!auditor.should_audit(9));
        assert!(auditor.should_audit(10));
    }

    #[test]
    fn demotion_trips_after_n_divergences_in_window() {
        let auditor = Auditor::new(AuditPolicy::default().with_demotion(2, 8), false);
        assert!(!auditor.record_outcome(true));
        assert!(!auditor.record_outcome(false));
        assert!(auditor.record_outcome(true));
        assert!(auditor.is_demoted());
        // Already demoted: no second trip, and sampling stops.
        assert!(!auditor.record_outcome(true));
        assert!(!auditor.should_audit(1));
    }

    #[test]
    fn old_divergences_fall_out_of_the_window() {
        let auditor = Auditor::new(AuditPolicy::default().with_demotion(2, 2), false);
        assert!(!auditor.record_outcome(true));
        assert!(!auditor.record_outcome(false));
        // The window is [false, true-from-now]: one divergence, no trip.
        assert!(!auditor.record_outcome(true));
        assert!(!auditor.is_demoted());
    }

    #[test]
    fn backlog_is_bounded_and_drains_drop() {
        let auditor = Auditor::new(AuditPolicy::default(), true);
        let pipeline = crate::AnalysisPipeline::new(ascend_arch::ChipSpec::training());
        let op = ascend_ops::AddRelu::new(1 << 10);
        let result = pipeline.run(&op).unwrap();
        let kernel = ascend_ops::Operator::build(&op, pipeline.chip()).unwrap();
        for i in 0..(MAX_PENDING_AUDITS + 3) {
            auditor.enqueue(AuditJob {
                key: i as u64,
                kernel: kernel.clone(),
                result: result.clone(),
            });
        }
        assert_eq!(auditor.pending(), MAX_PENDING_AUDITS);
        assert_eq!(auditor.stats().dropped, 3);
        assert_eq!(auditor.drop_pending(), MAX_PENDING_AUDITS);
        assert_eq!(auditor.pending(), 0);
        assert_eq!(auditor.stats().dropped, 3 + MAX_PENDING_AUDITS as u64);
    }

    #[test]
    fn request_class_guard_scopes_and_restores() {
        assert_eq!(current_class(), None);
        {
            let _outer = RequestClassGuard::set(1);
            assert_eq!(current_class(), Some(1));
            {
                let _inner = RequestClassGuard::set(0);
                assert_eq!(current_class(), Some(0));
            }
            assert_eq!(current_class(), Some(1));
        }
        assert_eq!(current_class(), None);
    }
}
