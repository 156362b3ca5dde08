//! Supervision policy for pipeline runs: per-item deadlines, bounded
//! seeded retries, a circuit breaker, and the fidelity tag that marks
//! analytically degraded results.
//!
//! The supervisor treats the simulator the way production evaluation
//! harnesses treat any cycle-level backend — as *unreliable*: an item may
//! wedge (preempted via [`CancelToken`](ascend_sim::CancelToken)), fail
//! transiently (retried with deterministic exponential backoff), or keep
//! failing (the circuit breaker stops burning deadline on a broken
//! backend and the analytical roofline model answers instead).

use ascend_faults::SplitMix64;
use ascend_sim::SimBudget;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How a [`PipelineResult`](crate::PipelineResult) was produced.
///
/// Figures built from supervised batches carry degraded coverage
/// honestly: an `AnalyticalFallback` item was *not* simulated — its
/// cycles come from the closed-form roofline estimate (serial per-queue
/// work, no overlap modelling beyond the max across components), so its
/// trace is empty and its timings are optimistic bounds, not
/// measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fidelity {
    /// The result came from the event-driven simulator (full trace).
    #[default]
    Simulated,
    /// The simulator was preempted or kept failing; the result is the
    /// closed-form analytical roofline estimate (empty trace).
    AnalyticalFallback,
    /// An online audit caught the fast engine diverging on this
    /// fingerprint; the result was re-answered by the reference oracle
    /// (full trace, full fidelity — the *fast-engine* answer was the
    /// defective one and has been quarantined).
    Audited,
}

impl Fidelity {
    /// Whether this is a degraded (non-simulated) result. `Audited`
    /// results are **not** degraded: they carry a complete trace from
    /// the trusted oracle.
    #[must_use]
    pub fn is_degraded(self) -> bool {
        matches!(self, Fidelity::AnalyticalFallback)
    }
}

/// Supervision policy for [`run_supervised`](crate::AnalysisPipeline::run_supervised)
/// and the resumable batch APIs.
///
/// The default policy is a **passthrough**: no deadline, no budget
/// override, no retries, no breaker, no fallback — byte-identical
/// behaviour to [`run_isolated`](crate::AnalysisPipeline::run_isolated).
/// Start from [`RunPolicy::resilient`] for the supervised defaults the
/// bench sweeps use.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPolicy {
    /// Wall-clock deadline per attempt. Enforced cooperatively through a
    /// [`CancelToken`](ascend_sim::CancelToken) the engine polls, so a
    /// wedged item is preempted (with forensics) instead of holding the
    /// batch hostage. `None` disables it.
    pub deadline: Option<Duration>,
    /// Watchdog budget override per attempt (`None` keeps the
    /// simulator's own budget). A tightened budget is the deterministic
    /// sibling of `deadline`: it trips on simulated work, not wall time.
    pub budget: Option<SimBudget>,
    /// Extra attempts after the first failure. Only *transient* failures
    /// (preemption, watchdog, panics) are retried; invalid kernels and
    /// broken chip specs fail immediately.
    pub max_retries: u32,
    /// Base of the exponential backoff between retries (attempt `n`
    /// sleeps `base * 2^(n-1)`, jittered). [`Duration::ZERO`] disables
    /// sleeping while keeping the retry loop.
    pub backoff_base: Duration,
    /// Seed of the backoff jitter. Mixed with the item fingerprint and
    /// attempt number, so the whole retry schedule is deterministic for
    /// a given (seed, item) pair regardless of thread interleaving.
    pub backoff_seed: u64,
    /// Consecutive hard failures (across items) that trip the circuit
    /// breaker. Once open, supervised runs stop attempting simulation
    /// and fall back immediately (or report
    /// [`CircuitOpen`](crate::PipelineError::CircuitOpen) when fallback
    /// is disabled). `0` disables the breaker.
    pub breaker_threshold: u32,
    /// Whether deadline/retry exhaustion degrades to the closed-form
    /// analytical roofline estimate instead of erroring.
    pub fallback: bool,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            deadline: None,
            budget: None,
            max_retries: 0,
            backoff_base: Duration::ZERO,
            backoff_seed: 0,
            breaker_threshold: 0,
            fallback: false,
        }
    }
}

impl RunPolicy {
    /// The supervised defaults: two retries with a 5 ms backoff base,
    /// breaker after 8 consecutive hard failures, analytical fallback
    /// on. No deadline — callers that want one add it with
    /// [`with_deadline`](RunPolicy::with_deadline), since a sensible
    /// wall-clock bound depends on the host.
    #[must_use]
    pub fn resilient() -> Self {
        RunPolicy {
            deadline: None,
            budget: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_seed: 0x5EED_CAFE,
            breaker_threshold: 8,
            fallback: true,
        }
    }

    /// Sets the per-attempt wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-attempt watchdog budget override.
    #[must_use]
    pub fn with_budget(mut self, budget: SimBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the retry count.
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the backoff base and seed.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, seed: u64) -> Self {
        self.backoff_base = base;
        self.backoff_seed = seed;
        self
    }

    /// Sets the circuit-breaker threshold (`0` disables).
    #[must_use]
    pub fn with_breaker(mut self, threshold: u32) -> Self {
        self.breaker_threshold = threshold;
        self
    }

    /// Enables or disables analytical fallback.
    #[must_use]
    pub fn with_fallback(mut self, fallback: bool) -> Self {
        self.fallback = fallback;
        self
    }

    /// Whether this policy adds nothing over `run_isolated`.
    #[must_use]
    pub fn is_passthrough(&self) -> bool {
        self == &RunPolicy::default()
    }

    /// The backoff before retry `attempt` (1-based: the sleep *before*
    /// the second attempt is `backoff_delay(fp, 1)`). Exponential in the
    /// attempt with a deterministic jitter factor in `[0.5, 1.5)` drawn
    /// from SplitMix64 seeded by `(backoff_seed, fingerprint, attempt)`
    /// — the schedule never depends on thread timing.
    #[must_use]
    pub fn backoff_delay(&self, fingerprint: u64, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let exp = 1u32 << attempt.saturating_sub(1).min(16);
        let mut rng = SplitMix64::new(
            self.backoff_seed
                ^ fingerprint
                ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let jitter = 0.5 + rng.unit_f64();
        self.backoff_base.mul_f64(f64::from(exp) * jitter)
    }
}

/// Counters of the supervision layer (shared across pipeline clones),
/// mirroring [`CacheStats`](crate::CacheStats) for the supervised path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorStats {
    /// Items that went through a supervised entry point.
    pub supervised_runs: u64,
    /// Re-attempts after a transient failure.
    pub retries: u64,
    /// Attempts preempted by a lapsed wall-clock deadline or an explicit
    /// cancellation.
    pub deadline_preemptions: u64,
    /// Attempts stopped by the watchdog budget.
    pub budget_trips: u64,
    /// Items degraded to the analytical roofline estimate.
    pub fallbacks: u64,
    /// Items whose every attempt failed (counted whether or not the
    /// fallback then rescued them).
    pub hard_failures: u64,
    /// Times the circuit breaker transitioned to open.
    pub breaker_trips: u64,
    /// Items short-circuited because the breaker was already open.
    pub breaker_short_circuits: u64,
}

impl SupervisorStats {
    /// Whether any supervision activity besides plain passthrough runs
    /// happened (used to keep instrumentation footers stable when the
    /// supervisor is idle).
    #[must_use]
    pub fn any_activity(&self) -> bool {
        self.retries
            + self.deadline_preemptions
            + self.budget_trips
            + self.fallbacks
            + self.hard_failures
            + self.breaker_trips
            + self.breaker_short_circuits
            > 0
    }
}

impl std::fmt::Display for SupervisorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} supervised runs, {} retries, {} deadline preemptions, {} budget trips, \
             {} analytical fallbacks, {} hard failures, {} breaker trips, \
             {} breaker short-circuits",
            self.supervised_runs,
            self.retries,
            self.deadline_preemptions,
            self.budget_trips,
            self.fallbacks,
            self.hard_failures,
            self.breaker_trips,
            self.breaker_short_circuits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_passthrough() {
        assert!(RunPolicy::default().is_passthrough());
        assert!(!RunPolicy::resilient().is_passthrough());
        assert!(!RunPolicy::default().with_retries(1).is_passthrough());
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let policy = RunPolicy::resilient().with_backoff(Duration::from_millis(10), 42);
        let a1 = policy.backoff_delay(0xFEED, 1);
        let a2 = policy.backoff_delay(0xFEED, 2);
        let a3 = policy.backoff_delay(0xFEED, 3);
        // Same (seed, fingerprint, attempt) -> same delay, every time.
        assert_eq!(a1, policy.backoff_delay(0xFEED, 1));
        assert_eq!(a2, policy.backoff_delay(0xFEED, 2));
        // Exponential growth dominates the [0.5, 1.5) jitter band.
        assert!(a2 > a1, "attempt 2 must back off longer: {a1:?} vs {a2:?}");
        assert!(a3 > a2, "attempt 3 must back off longer: {a2:?} vs {a3:?}");
        // Jitter bounds: base * 2^(n-1) * [0.5, 1.5).
        assert!(a1 >= Duration::from_millis(5) && a1 < Duration::from_millis(15));
        // Different items de-synchronize.
        assert_ne!(policy.backoff_delay(0xFEED, 1), policy.backoff_delay(0xBEEF, 1));
    }

    #[test]
    fn zero_base_disables_sleeping() {
        let policy = RunPolicy::default().with_retries(3);
        assert_eq!(policy.backoff_delay(1, 1), Duration::ZERO);
        assert_eq!(policy.backoff_delay(1, 7), Duration::ZERO);
    }

    #[test]
    fn fidelity_tags() {
        assert!(!Fidelity::Simulated.is_degraded());
        assert!(Fidelity::AnalyticalFallback.is_degraded());
        assert_eq!(Fidelity::default(), Fidelity::Simulated);
    }
}
