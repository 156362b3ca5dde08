//! The centralized cross-tier invariant contract chaos runs are judged
//! against.
//!
//! Before this module, the system's end-to-end guarantees — exactly-once
//! ticket accounting, never serving a corrupt result, quarantine being
//! permanent, stores verifying clean, the cluster coming back after
//! total outage — lived as assertions scattered across the test suites
//! (`tests/cluster.rs`, `tests/store.rs`, `tests/service.rs`,
//! `tests/audit.rs`, `tests/robustness.rs`). An [`InvariantReport`]
//! states them once, as named checks with human-readable evidence, so a
//! chaos orchestrator (`bench chaos`) can run the full stack under a
//! seeded fault schedule and render every violation uniformly — and a
//! delta-debugger can re-evaluate the same contract on minimized
//! schedules.

use crate::frontend::FrontendCounters;
use crate::store::StoreVerifyReport;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// One named invariant with its verdict and evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvariantCheck {
    /// Stable name of the invariant (e.g. `exactly-once`).
    pub name: String,
    /// Whether the invariant held.
    pub ok: bool,
    /// Human-readable evidence (counts, ids, paths).
    pub detail: String,
}

/// An ordered collection of invariant verdicts for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InvariantReport {
    checks: Vec<InvariantCheck>,
}

impl InvariantReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        InvariantReport::default()
    }

    /// Records one named check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(InvariantCheck { name: name.to_string(), ok, detail: detail.into() });
    }

    /// **Exactly-once accounting**: every admitted ticket reached exactly
    /// one terminal state — no request lost to a shard death, none
    /// answered twice.
    pub fn exactly_once(&mut self, counters: &FrontendCounters) {
        let terminal = counters.terminal_states();
        self.check(
            "exactly-once",
            terminal == counters.accepted,
            format!(
                "accepted {} == terminal {} (ok {}, failed {}, shed {}, flushed {})",
                counters.accepted,
                terminal,
                counters.completed_ok,
                counters.failed,
                counters.shed_deadline,
                counters.drain_flushed
            ),
        );
    }

    /// **All tickets settled**: every ticket handed out by the run was
    /// resolved (none still pending after drain).
    pub fn tickets_settled(&mut self, settled: usize, pending: usize) {
        self.check(
            "tickets-settled",
            pending == 0,
            format!("{settled} settled, {pending} still pending after drain"),
        );
    }

    /// **No corrupt result served**: every served result recomputed
    /// bit-identically on an independent clean pipeline. This is the
    /// check a silently-wrong engine (BuggyEngine) cannot survive.
    pub fn bit_identity(&mut self, mismatches: u64, compared: u64) {
        self.check(
            "no-corrupt-served",
            mismatches == 0,
            format!("{mismatches} of {compared} served results diverge from a clean recompute"),
        );
    }

    /// **Quarantine is permanent**: a quarantined fingerprint stays
    /// barred (`still_quarantined`) and no store segment contains a
    /// record appended after its tombstone (`resurrected`, summed over
    /// the verified segments).
    pub fn quarantine_integrity(&mut self, still_quarantined: bool, resurrected: u64) {
        self.check(
            "quarantine-permanent",
            still_quarantined && resurrected == 0,
            format!(
                "still quarantined: {still_quarantined}; resurrected records across stores: \
                 {resurrected}"
            ),
        );
    }

    /// **Store verifies clean**: the segment belongs to `expected_context`
    /// and — unless `allow_damage` (an at-rest disk fault was injected
    /// into this very segment) — carries no corruption. Resurrections are
    /// never excused: no compliant writer produces them, disk fault or
    /// not (corruption can *invalidate* records, which the verifier
    /// already discounts).
    pub fn store_verify(
        &mut self,
        label: &str,
        report: &StoreVerifyReport,
        expected_context: u64,
        allow_damage: bool,
    ) {
        let context_ok = report.context == expected_context;
        let damage_ok = allow_damage || (report.digest_invalid == 0 && report.torn_bytes == 0);
        self.check(
            &format!("store-verify-{label}"),
            context_ok && damage_ok && report.resurrected == 0,
            format!("{report}{}", if allow_damage { " (at-rest damage excused)" } else { "" }),
        );
    }

    /// **Bounded availability gap**: the longest window with zero live
    /// shards stayed under `bound` — kills and wire faults may take the
    /// whole cluster down momentarily, but respawn must bring it back.
    pub fn availability(&mut self, longest_gap: Duration, bound: Duration) {
        self.check(
            "bounded-availability-gap",
            longest_gap <= bound,
            format!("longest all-shards-down gap {longest_gap:?} (bound {bound:?})"),
        );
    }

    /// **Drain hygiene**: the cluster quiesced and left no live worker
    /// processes behind.
    pub fn drain_hygiene(&mut self, quiesced: bool, live_pids: usize) {
        self.check(
            "drain-hygiene",
            quiesced && live_pids == 0,
            format!("quiesced: {quiesced}; worker pids still live: {live_pids}"),
        );
    }

    /// Whether every check held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.checks.iter().all(|check| check.ok)
    }

    /// The checks that failed.
    pub fn violations(&self) -> impl Iterator<Item = &InvariantCheck> {
        self.checks.iter().filter(|check| !check.ok)
    }

    /// All checks, in evaluation order.
    #[must_use]
    pub fn checks(&self) -> &[InvariantCheck] {
        &self.checks
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.checks.is_empty() {
            return writeln!(f, "(no invariants evaluated)");
        }
        for check in &self.checks {
            let verdict = if check.ok { "ok       " } else { "VIOLATION" };
            writeln!(f, "{verdict} {:<26} {}", check.name, check.detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean_and_displays() {
        let report = InvariantReport::new();
        assert!(report.is_clean());
        assert!(report.to_string().contains("no invariants"));
    }

    #[test]
    fn violations_are_detected_and_listed() {
        let mut report = InvariantReport::new();
        report.check("first", true, "fine");
        report.bit_identity(2, 10);
        report.tickets_settled(5, 0);
        assert!(!report.is_clean());
        let violations: Vec<_> = report.violations().collect();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].name, "no-corrupt-served");
        assert!(report.to_string().contains("VIOLATION"));
        assert_eq!(report.checks().len(), 3);
    }

    #[test]
    fn exactly_once_compares_terminal_states() {
        let mut counters = FrontendCounters {
            accepted: 10,
            completed_ok: 7,
            failed: 2,
            drain_flushed: 1,
            ..FrontendCounters::default()
        };
        let mut report = InvariantReport::new();
        report.exactly_once(&counters);
        assert!(report.is_clean());
        counters.drain_flushed = 0;
        let mut report = InvariantReport::new();
        report.exactly_once(&counters);
        assert!(!report.is_clean(), "a lost ticket must violate exactly-once");
    }

    #[test]
    fn store_verify_excuses_damage_but_never_resurrection() {
        let damaged = StoreVerifyReport {
            version: 1,
            context: 42,
            file_bytes: 100,
            live: 1,
            superseded: 0,
            digest_invalid: 1,
            torn_bytes: 3,
            tombstones: 0,
            resurrected: 0,
        };
        let mut report = InvariantReport::new();
        report.store_verify("shard-0", &damaged, 42, true);
        assert!(report.is_clean(), "injected damage is excused when allowed");
        let mut report = InvariantReport::new();
        report.store_verify("shard-0", &damaged, 42, false);
        assert!(!report.is_clean(), "unexplained damage is a violation");
        let resurrected = StoreVerifyReport { resurrected: 1, ..damaged };
        let mut report = InvariantReport::new();
        report.store_verify("shard-0", &resurrected, 42, true);
        assert!(!report.is_clean(), "resurrection is never excused");
        let mut report = InvariantReport::new();
        report.store_verify("foreign", &damaged, 7, true);
        assert!(!report.is_clean(), "a foreign context is a violation");
    }

    #[test]
    fn availability_and_drain_checks() {
        let mut report = InvariantReport::new();
        report.availability(Duration::from_millis(80), Duration::from_millis(100));
        report.drain_hygiene(true, 0);
        report.quarantine_integrity(true, 0);
        assert!(report.is_clean());
        let mut report = InvariantReport::new();
        report.availability(Duration::from_millis(180), Duration::from_millis(100));
        report.drain_hygiene(true, 2);
        report.quarantine_integrity(false, 0);
        assert_eq!(report.violations().count(), 3);
    }
}
