//! The online divergence-audit tier: forensic comparison, quarantine,
//! and engine demotion.
//!
//! The load-bearing guarantee is *no false negatives*: a seeded
//! property test perturbs exactly one observable field of a shadow
//! trace — any record's queue, timestamps, duration, stall attribution,
//! the total, or the record count itself — and the comparator must
//! produce a [`DivergenceReport`] every time (and a changed
//! fingerprint, since sampling and quarantine key off the fingerprint).
//! The integration tests then drive a [`BuggyEngine`] through the
//! inline audit path and prove the operational contract: a caught
//! fingerprint is purged from the memory cache *and* barred from the
//! durable store across restart, the request is re-answered from the
//! oracle as `Fidelity::Audited`, the divergence breaker demotes the
//! pipeline to the reference engine, and none of it ever trips the
//! transient-failure breaker (a correctness defect is not a transient).

use ascend::arch::{ChipSpec, Component};
use ascend::faults::BuggyEngine;
use ascend::ops::{AddRelu, Operator};
use ascend::pipeline::divergence::{self, trace_fingerprint};
use ascend::pipeline::{
    AnalysisPipeline, AuditPolicy, AuditStats, CacheStats, Fidelity, FidelityMix, ResultStore,
    RunPolicy, SupervisorStats,
};
use ascend::sim::{SimBudget, Simulator, StallCause, Trace};
use proptest::prelude::*;
use std::path::PathBuf;

fn base_trace() -> Trace {
    let chip = ChipSpec::training();
    let kernel = AddRelu::new(4096).build(&chip).unwrap();
    Simulator::new(chip).simulate(&kernel).unwrap()
}

/// A unique scratch directory per test; callers clean it up on success
/// so a failing run leaves the evidence behind.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ascend-audit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Applies one single-field perturbation to a copy of `trace`.
/// `field` selects what to corrupt, `pick` selects which record, and
/// `nudge` how many ULPs (never zero) an `f64` moves.
fn perturb(trace: &Trace, field: u8, pick: usize, nudge: u64) -> Trace {
    let mut records = trace.records().to_vec();
    let mut total = trace.total_cycles();
    let i = pick % records.len();
    match field {
        0 => {
            let r = &mut records[i];
            r.available_at = f64::from_bits(r.available_at.to_bits().wrapping_add(nudge));
        }
        1 => {
            let r = &mut records[i];
            r.start = f64::from_bits(r.start.to_bits().wrapping_add(nudge));
        }
        2 => {
            // The BuggyEngine-shaped defect: a skewed duration.
            let r = &mut records[i];
            r.end = f64::from_bits(r.end.to_bits().wrapping_add(nudge));
        }
        3 => {
            let r = &mut records[i];
            r.stall = match r.stall {
                StallCause::None => StallCause::QueueBusy,
                StallCause::QueueBusy => StallCause::Flag,
                StallCause::Flag => StallCause::Region,
                StallCause::Region => StallCause::None,
            };
        }
        4 => {
            let r = &mut records[i];
            r.queue = match r.queue {
                None => Some(Component::Vector),
                Some(Component::Vector) => Some(Component::Cube),
                Some(_) => None,
            };
        }
        5 => total = f64::from_bits(total.to_bits().wrapping_add(nudge)),
        _ => {
            // Structural: the shadow run produced fewer records.
            records.remove(i);
        }
    }
    Trace::from_parts(trace.kernel_name(), records, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // No false negatives: every single-field perturbation of a shadow
    // trace yields a report, and moves the fingerprint the sampler and
    // quarantine key off.
    #[test]
    fn any_single_perturbation_is_reported(
        field in 0u8..7,
        pick in 0usize..64,
        nudge in 1u64..32,
    ) {
        let base = base_trace();
        let bad = perturb(&base, field, pick, nudge);
        let report = divergence::compare(&base, &bad);
        prop_assert!(
            report.is_some(),
            "field {field} pick {pick} nudge {nudge}: perturbation went undetected"
        );
        prop_assert!(
            trace_fingerprint(&base) != trace_fingerprint(&bad),
            "perturbation must move the fingerprint"
        );
        // And the comparator is not trigger-happy: identical traces are
        // clean in the same breath.
        prop_assert!(divergence::compare(&base, &base).is_none());
    }
}

/// A caught fingerprint is gone from the memory cache and barred from
/// the durable store — including across restart — and the request is
/// re-answered from the oracle.
#[test]
fn quarantine_purges_memory_and_disk_across_restart() {
    let dir = scratch("quarantine");
    let path = dir.join("store.astr");
    let truth = AnalysisPipeline::new(ChipSpec::training());
    let op = AddRelu::new(4096);

    let pipeline = AnalysisPipeline::new(ChipSpec::training())
        .with_store(&path)
        .unwrap()
        .with_buggy_engine(BuggyEngine::new(0xBAD))
        .with_audit(AuditPolicy::default().with_rate(1.0).with_demotion(10, 64));
    let result = pipeline.run(&op).unwrap();
    assert_eq!(result.fidelity, Fidelity::Audited, "audited request is re-answered by the oracle");
    let expected = truth.run(&op).unwrap();
    assert!(divergence::compare(&result.trace, &expected.trace).is_none());
    let stats = pipeline.audit_stats();
    assert_eq!((stats.audits, stats.divergences, stats.quarantined), (1, 1, 1));
    assert!(!pipeline.breaker_is_open(), "audits must not feed the transient-failure breaker");

    // The memory cache holds the oracle answer now, not the poisoned one.
    let hits_before = pipeline.cache_stats().hits;
    let again = pipeline.run(&op).unwrap();
    assert_eq!(pipeline.cache_stats().hits, hits_before + 1, "second ask is a cache hit");
    assert_eq!(again.fidelity, Fidelity::Audited);
    assert!(divergence::compare(&again.trace, &expected.trace).is_none());
    pipeline.flush_store();
    drop(pipeline);

    // On disk: a tombstone and nothing live (Audited results are never
    // persisted, and the tombstone bars the fingerprint for good).
    let report = ResultStore::verify(&path).unwrap();
    assert!(report.is_clean(), "store must verify clean: {report}");
    assert_eq!((report.tombstones, report.live, report.resurrected), (1, 0, 0));

    // Across restart: a clean pipeline must recompute, not resurrect.
    let fresh = AnalysisPipeline::new(ChipSpec::training()).with_store(&path).unwrap();
    let recomputed = fresh.run(&op).unwrap();
    assert!(divergence::compare(&recomputed.trace, &expected.trace).is_none());
    assert_eq!(fresh.store_stats().unwrap().hits, 0, "quarantined key must never hit disk");
    assert_eq!(fresh.timings().runs, 1, "the key re-simulates from scratch");
    std::fs::remove_dir_all(&dir).ok();
}

/// The divergence-rate breaker demotes the whole pipeline to the
/// reference engine: the buggy fast path is out of the serving path for
/// the rest of the run, and sampling stops with it.
#[test]
fn breaker_demotes_to_reference_engine() {
    let truth = AnalysisPipeline::new(ChipSpec::training());
    let pipeline = AnalysisPipeline::new(ChipSpec::training())
        .with_buggy_engine(BuggyEngine::new(0xBAD))
        .with_audit(AuditPolicy::default().with_rate(1.0).with_demotion(1, 16));

    let first = pipeline.run(&AddRelu::new(2048)).unwrap();
    assert_eq!(first.fidelity, Fidelity::Audited);
    assert!(pipeline.is_demoted(), "one divergence trips demote_after = 1");
    assert!(pipeline.audit_stats().demoted);

    // Every subsequent request is answered by the reference engine:
    // oracle-exact despite the buggy engine still being configured.
    for elements in [1024u64, 4096, 8192] {
        let got = pipeline.run(&AddRelu::new(elements)).unwrap();
        assert_eq!(
            got.fidelity,
            Fidelity::Simulated,
            "demotion is an engine swap, not a downgrade"
        );
        let expected = truth.run(&AddRelu::new(elements)).unwrap();
        assert!(
            divergence::compare(&got.trace, &expected.trace).is_none(),
            "demoted pipeline must serve reference-exact results"
        );
    }
    assert_eq!(pipeline.audit_stats().audits, 1, "a demoted pipeline stops sampling");
    assert!(!pipeline.breaker_is_open(), "demotion is not a transient failure");
}

/// Control: with the audit tier off, the buggy engine's output *does*
/// reach the caller — proving the detections above are the audit tier's
/// doing, not some upstream validation.
#[test]
fn without_audit_the_bug_is_served() {
    let truth = AnalysisPipeline::new(ChipSpec::training());
    let pipeline =
        AnalysisPipeline::new(ChipSpec::training()).with_buggy_engine(BuggyEngine::new(0xBAD));
    let op = AddRelu::new(4096);
    let got = pipeline.run(&op).unwrap();
    assert_eq!(got.fidelity, Fidelity::Simulated);
    let expected = truth.run(&op).unwrap();
    let report = divergence::compare(&got.trace, &expected.trace);
    assert!(report.is_some(), "the buggy engine must actually perturb the trace");
    assert!(!pipeline.audit_stats().any_activity());
}

/// One pipeline producing all three kinds of result — simulated (clean
/// audits), analytical fallback (a budget trip under a fallback policy)
/// and inline-audited (the buggy engine caught) — keeps every ledger in
/// step: each count appears in the snapshot and footer exactly once.
#[test]
fn a_mixed_run_keeps_every_ledger_in_step() {
    let bug = BuggyEngine::new(0xBAD).with_rate(0.5);
    let pipeline = AnalysisPipeline::new(ChipSpec::training())
        .with_buggy_engine(bug)
        .with_audit(AuditPolicy::default().with_rate(1.0).with_demotion(10, 64));
    let ops: Vec<AddRelu> = (10..16).map(|shift| AddRelu::new(1 << shift)).collect();
    let afflicted = ops.iter().filter(|op| bug.afflicts(pipeline.cache_key(*op))).count();
    assert_eq!(afflicted, 3, "the seed must afflict some keys and spare others");

    for op in &ops {
        let result = pipeline.run(op).unwrap();
        let expected = if bug.afflicts(pipeline.cache_key(op)) {
            Fidelity::Audited
        } else {
            Fidelity::Simulated
        };
        assert_eq!(result.fidelity, expected);
    }
    // Two repeats: one clean, one audited key. Both are cache hits.
    let clean = ops.iter().find(|op| !bug.afflicts(pipeline.cache_key(*op))).unwrap();
    let caught = ops.iter().find(|op| bug.afflicts(pipeline.cache_key(*op))).unwrap();
    assert_eq!(pipeline.run(clean).unwrap().fidelity, Fidelity::Simulated);
    assert_eq!(pipeline.run(caught).unwrap().fidelity, Fidelity::Audited);

    let tripping = RunPolicy::default()
        .with_budget(SimBudget { max_events: 10, max_cycles: 1e15 })
        .with_fallback(true);
    let degraded = pipeline.run_supervised(&AddRelu::new(1 << 17), &tripping, None).unwrap();
    assert_eq!(degraded.fidelity, Fidelity::AnalyticalFallback);

    assert_eq!(pipeline.fidelity_mix(), FidelityMix { simulated: 6, analytical: 1, audited: 3 });
    assert_eq!(
        pipeline.supervisor_stats(),
        SupervisorStats {
            supervised_runs: 1,
            budget_trips: 1,
            fallbacks: 1,
            hard_failures: 1,
            ..SupervisorStats::default()
        }
    );
    assert_eq!(
        pipeline.audit_stats(),
        AuditStats { audits: 6, divergences: 3, quarantined: 3, ..AuditStats::default() }
    );
    assert_eq!(pipeline.cache_stats(), CacheStats { hits: 2, misses: 6, evictions: 0 });
    assert_eq!(pipeline.timings().runs, 6);

    let footer = pipeline.instrumentation_footer();
    let lines: Vec<&str> = footer.lines().collect();
    for expected in [
        "[pipeline] stages (6 uncached runs): ",
        "[pipeline] stage latency ms p50/p95/p99: ",
        "[pipeline] engine: ",
    ] {
        assert!(lines.iter().any(|line| line.starts_with(expected)), "{footer}");
    }
    assert_eq!(
        &lines[3..],
        [
            "[pipeline] cache: 2 hits / 6 misses (25.0% hit rate), 0 evictions, 6 entries live",
            "[pipeline] supervision: 1 supervised runs, 0 retries, 0 deadline preemptions, \
             1 budget trips, 1 analytical fallbacks, 1 hard failures, 0 breaker trips, \
             0 breaker short-circuits",
            "[pipeline] audit: 6 audits, 3 divergences, 3 quarantined, 0 aborted, 0 dropped, \
             0 pending",
        ],
        "{footer}"
    );
}
