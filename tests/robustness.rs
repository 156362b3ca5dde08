//! Regression tests for the hardened execution path: watchdog budgets,
//! deadlock forensics, per-item panic isolation, and the supervision
//! layer — deadlines, retries, the circuit breaker, analytical
//! degradation, and crash-safe batches resumed from the result store.

use ascend::arch::{ChipSpec, Component};
use ascend::faults::PanicSwitch;
use ascend::isa::{IsaError, Kernel, KernelBuilder};
use ascend::ops::{AddRelu, Operator, OptFlags};
use ascend::pipeline::{AnalysisPipeline, Fidelity, PipelineError, RunPolicy};
use ascend::sim::{CancelToken, SimBudget, SimError, Simulator};
use std::path::PathBuf;
use std::time::Duration;

/// A kernel long enough to outrun a tiny event budget.
fn long_kernel(len: usize) -> Kernel {
    let mut b = KernelBuilder::new("long");
    for _ in 0..len {
        b.compute(
            ascend::arch::ComputeUnit::Vector,
            ascend::arch::Precision::Fp16,
            1024,
            vec![],
            vec![],
        );
    }
    b.build()
}

#[test]
fn event_budget_exhaustion_is_reported_not_hung() {
    let sim = Simulator::new(ChipSpec::training())
        .with_budget(SimBudget { max_events: 16, max_cycles: 1e15 });
    let err = sim.simulate(&long_kernel(64)).unwrap_err();
    let SimError::BudgetExceeded { events, max_events, .. } = err else {
        panic!("expected BudgetExceeded, got {err}");
    };
    assert_eq!(max_events, 16);
    assert!(events > max_events);

    // The same kernel completes under the default (generous) budget.
    assert!(Simulator::new(ChipSpec::training()).simulate(&long_kernel(64)).is_ok());
}

#[test]
fn deadlock_report_names_the_blocked_queue_and_the_missing_setter() {
    // An unmatched wait: rejected statically, and when run unchecked the
    // engine must return forensics naming the waiter and the absent set.
    let mut b = KernelBuilder::new("hang");
    let f = b.new_flag();
    b.wait_flag(Component::Vector, f);
    let kernel = b.build();

    let chip = ChipSpec::training();
    assert!(ascend::isa::validate(&kernel, &chip).is_err());

    let err = Simulator::new(chip).simulate_unchecked(&kernel).unwrap_err();
    let report = err.deadlock_report().expect("deadlock, not another error");
    assert_eq!(report.kernel, "hang");
    assert_eq!(report.remaining, 1);
    assert_eq!(report.total, 1);
    assert_eq!(report.queues.len(), 1);
    assert_eq!(report.queues[0].queue, Component::Vector);
    assert_eq!(report.wait_edges.len(), 1);
    assert!(report.wait_edges[0].pending_setters.is_empty());

    let rendered = err.to_string();
    assert!(rendered.contains("deadlock in kernel `hang`"), "{rendered}");
    assert!(rendered.contains("queue vector"), "{rendered}");
    assert!(rendered.contains("blocked waiting on flag f0"), "{rendered}");
    assert!(rendered.contains("the wait is unmatched"), "{rendered}");
}

#[test]
fn timing_dependent_wait_races_are_rejected_statically() {
    // The pattern the differential fuzzer found: waits of one flag on
    // different queues, where a fast queue can steal an increment whose
    // intended consumer's remaining producer sits behind it.
    let mut b = KernelBuilder::new("steal");
    let f = b.new_flag();
    b.set_flag(Component::MteUb, f);
    b.set_flag(Component::Scalar, f);
    b.wait_flag(Component::MteL1, f);
    b.set_flag(Component::MteL1, f);
    b.wait_flag(Component::Cube, f);
    b.wait_flag(Component::Vector, f);
    assert!(matches!(
        ascend::isa::validate(&b.build(), &ChipSpec::training()),
        Err(IsaError::UnorderedWaits { flag: 0, .. })
    ));
}

/// An operator whose `build` panics — stands in for a buggy generator.
#[derive(Debug)]
struct ExplodingOp;

impl Operator for ExplodingOp {
    fn name(&self) -> String {
        "exploding".to_string()
    }

    fn flags(&self) -> OptFlags {
        OptFlags::new()
    }

    fn with_flags_dyn(&self, _flags: OptFlags) -> Box<dyn Operator> {
        Box::new(ExplodingOp)
    }

    fn build(&self, _chip: &ChipSpec) -> Result<Kernel, IsaError> {
        panic!("injected failure: generator bug");
    }
}

#[test]
fn one_poisoned_batch_item_cannot_sink_its_siblings() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let ops: Vec<Box<dyn Operator>> = vec![
        Box::new(AddRelu::new(1 << 12)),
        Box::new(ExplodingOp),
        Box::new(AddRelu::new(1 << 13)),
        Box::new(AddRelu::new(1 << 14)),
    ];
    let refs: Vec<&dyn Operator> = ops.iter().map(AsRef::as_ref).collect();
    for workers in [1, 2, 4] {
        let results = pipeline.run_batch_with_workers(&refs, workers);
        assert_eq!(results.len(), 4);
        for (i, result) in results.iter().enumerate() {
            if i == 1 {
                let Err(PipelineError::Panicked { message }) = result else {
                    panic!("slot 1 must be the panicked one, got {result:?}");
                };
                assert!(message.contains("injected failure"), "{message}");
            } else {
                assert!(result.is_ok(), "slot {i}: {result:?}");
            }
        }
    }
    // The pipeline (and its shared cache) survives the panic.
    assert!(pipeline.run(&AddRelu::new(1 << 12)).is_ok());
}

/// A per-test scratch directory under the system temp dir.
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ascend-robustness-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Wraps an operator with a [`PanicSwitch`] ticked on every `build` —
/// the deterministic stand-in for a process killed mid-batch. The
/// descriptor forwards to the inner operator, so the crashed run and
/// the resumed run (using plain operators) share store fingerprints,
/// exactly as two invocations of the same binary would.
#[derive(Debug)]
struct CrashingOp {
    inner: AddRelu,
    switch: PanicSwitch,
}

impl Operator for CrashingOp {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn flags(&self) -> OptFlags {
        self.inner.flags()
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        self.inner.with_flags_dyn(flags)
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        self.switch.tick();
        self.inner.build(chip)
    }

    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }
}

/// A 64-item batch killed mid-run resumes from the result store it
/// wrote through, re-running only the unfinished items.
#[test]
fn killed_batch_resumes_from_the_store_rerunning_only_the_remainder() {
    let dir = tempdir("resume");
    let store_path = dir.join("batch.astr");
    let sizes: Vec<u64> = (0..64).map(|i| 1024 + 64 * i).collect();

    // First run: panic-at-stage injection "kills" the batch after 24
    // items complete — every later build panics mid-stage.
    let switch = PanicSwitch::after(24);
    let crashing: Vec<Box<dyn Operator>> = sizes
        .iter()
        .map(|&size| {
            Box::new(CrashingOp { inner: AddRelu::new(size), switch: switch.clone() })
                as Box<dyn Operator>
        })
        .collect();
    let refs: Vec<&dyn Operator> = crashing.iter().map(AsRef::as_ref).collect();
    let pipeline = AnalysisPipeline::new(ChipSpec::training()).with_store(&store_path).unwrap();
    let results = pipeline.run_batch_supervised(&refs, 1, &RunPolicy::default());
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 24);
    assert!(
        matches!(results[24], Err(PipelineError::Panicked { .. })),
        "item 25 is the one that died: {:?}",
        results[24]
    );
    assert_eq!(pipeline.store_stats().unwrap().appends, 24, "exactly the completed items persist");
    drop(pipeline);

    // Resumed run: fresh process state — a new pipeline, plain
    // operators, the store reopened from disk.
    let plain: Vec<Box<dyn Operator>> =
        sizes.iter().map(|&size| Box::new(AddRelu::new(size)) as Box<dyn Operator>).collect();
    let refs: Vec<&dyn Operator> = plain.iter().map(AsRef::as_ref).collect();
    let resumed = AnalysisPipeline::new(ChipSpec::training()).with_store(&store_path).unwrap();
    assert_eq!(resumed.store_stats().unwrap().recovered, 24);
    assert_eq!(resumed.store_stats().unwrap().corrupt_dropped, 0);
    let results = resumed.run_batch_supervised(&refs, 1, &RunPolicy::default());
    assert_eq!(results.len(), 64);
    assert!(results.iter().all(Result::is_ok), "the resumed batch completes whole");
    assert_eq!(resumed.store_stats().unwrap().hits, 24, "persisted items are served from disk");
    assert_eq!(resumed.timings().runs, 40, "only the unfinished items re-run");
    assert_eq!(resumed.store_stats().unwrap().appends, 40);
    std::fs::remove_dir_all(&dir).ok();
}

/// An item that keeps blowing its per-attempt budget completes the
/// batch as `AnalyticalFallback` instead of failing it — and the
/// degraded result is not cached, so a healthier policy gets a fresh
/// chance to simulate.
#[test]
fn budget_blown_item_completes_the_batch_as_analytical_fallback() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let ops: Vec<Box<dyn Operator>> = vec![
        Box::new(AddRelu::new(1 << 12)),
        Box::new(AddRelu::new(1 << 20)), // ~120k cycles: blows the budget below
        Box::new(AddRelu::new(1 << 14)),
    ];
    let refs: Vec<&dyn Operator> = ops.iter().map(AsRef::as_ref).collect();
    let policy = RunPolicy::default()
        .with_budget(SimBudget { max_events: u64::MAX, max_cycles: 10_000.0 })
        .with_retries(1)
        .with_fallback(true);
    let results = pipeline.run_batch_supervised(&refs, 1, &policy);
    let fidelities: Vec<Fidelity> = results
        .iter()
        .map(|r| r.as_ref().expect("fallback keeps the batch whole").fidelity)
        .collect();
    assert_eq!(
        fidelities,
        [Fidelity::Simulated, Fidelity::AnalyticalFallback, Fidelity::Simulated]
    );
    let stats = pipeline.supervisor_stats();
    assert_eq!(stats.retries, 1, "one bounded retry before degrading");
    assert_eq!(stats.budget_trips, 2, "initial attempt plus the retry");
    assert_eq!(stats.hard_failures, 1);
    assert_eq!(stats.fallbacks, 1);

    // Degraded results are not cached: under a permissive policy the
    // same operator simulates for real.
    let healthy = pipeline.run_supervised(ops[1].as_ref(), &RunPolicy::default(), None).unwrap();
    assert_eq!(healthy.fidelity, Fidelity::Simulated);
}

#[test]
fn lapsed_deadline_preempts_the_item_and_degrades_it() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let policy =
        RunPolicy::default().with_deadline(Duration::ZERO).with_retries(1).with_fallback(true);
    let result = pipeline.run_supervised(&AddRelu::new(1 << 14), &policy, None).unwrap();
    assert_eq!(result.fidelity, Fidelity::AnalyticalFallback);
    let stats = pipeline.supervisor_stats();
    assert!(stats.deadline_preemptions >= 1, "{stats:?}");
    assert_eq!(stats.fallbacks, 1);
}

/// An operator that always panics, with a distinct fingerprint per size.
#[derive(Debug)]
struct ExplodingSized(u64);

impl Operator for ExplodingSized {
    fn name(&self) -> String {
        format!("exploding_{}", self.0)
    }

    fn flags(&self) -> OptFlags {
        OptFlags::new()
    }

    fn with_flags_dyn(&self, _flags: OptFlags) -> Box<dyn Operator> {
        Box::new(ExplodingSized(self.0))
    }

    fn build(&self, _chip: &ChipSpec) -> Result<Kernel, IsaError> {
        panic!("injected failure: generator bug {}", self.0);
    }
}

#[test]
fn consecutive_hard_failures_open_the_breaker_until_reset() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let policy = RunPolicy::default().with_retries(0).with_breaker(2).with_fallback(false);

    // Two consecutive items whose every attempt fails trip the breaker.
    for size in [1, 2] {
        let err = pipeline.run_supervised(&ExplodingSized(size), &policy, None).unwrap_err();
        assert!(matches!(err, PipelineError::Panicked { .. }), "{err}");
    }
    assert!(pipeline.breaker_is_open());
    assert_eq!(pipeline.supervisor_stats().breaker_trips, 1);

    // A healthy item is now short-circuited without running.
    let err = pipeline.run_supervised(&AddRelu::new(1 << 12), &policy, None).unwrap_err();
    assert!(
        matches!(err, PipelineError::CircuitOpen { consecutive_failures: 2 }),
        "expected CircuitOpen, got {err}"
    );
    assert_eq!(pipeline.supervisor_stats().breaker_short_circuits, 1);
    assert_eq!(pipeline.timings().runs, 0, "the short-circuited item never ran");

    // After an operator reset, the same item runs for real again.
    pipeline.reset_breaker();
    assert!(!pipeline.breaker_is_open());
    assert!(pipeline.run_supervised(&AddRelu::new(1 << 12), &policy, None).is_ok());
}

#[test]
fn backoff_schedule_is_reproducible_across_policy_instances() {
    // Two processes building the same policy must sleep the same
    // amounts — retry storms stay reproducible from the printed seed.
    let a = RunPolicy::resilient();
    let b = RunPolicy::resilient();
    for attempt in 1..=4 {
        assert_eq!(a.backoff_delay(0x00A5_CE4D, attempt), b.backoff_delay(0x00A5_CE4D, attempt));
    }
}

/// An operator whose `build` takes a while — long enough that an
/// unbounded cancellation (one that waited out retries, fallback, or
/// the full batch) is clearly distinguishable from a stage-bounded one.
#[derive(Debug)]
struct SlowBuildOp {
    inner: AddRelu,
    delay: Duration,
}

impl Operator for SlowBuildOp {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn flags(&self) -> OptFlags {
        self.inner.flags()
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        self.inner.with_flags_dyn(flags)
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        std::thread::sleep(self.delay);
        self.inner.build(chip)
    }

    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }
}

/// Preemption latency is bounded by one pipeline stage: a token
/// signalled while `build` is in flight preempts at the next stage
/// boundary — it does not wait out retries or produce a fallback, even
/// under a policy that allows five retries of a slow operator.
#[test]
fn cancellation_latency_is_bounded_by_one_stage() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let stage = Duration::from_millis(150);
    let op = SlowBuildOp { inner: AddRelu::new(1 << 12), delay: stage };
    let policy = RunPolicy::default().with_retries(5).with_fallback(true);
    let token = CancelToken::new();

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let started = std::time::Instant::now();
    let result = pipeline.run_supervised(&op, &policy, Some(&token));
    let latency = started.elapsed();
    canceller.join().unwrap();

    match result {
        Err(PipelineError::Runtime(SimError::Cancelled { .. })) => {}
        other => panic!("expected prompt cancellation, got {other:?}"),
    }
    // One in-flight build (150ms) may finish before the boundary poll
    // notices; six retried builds (900ms+) must not happen. The bound
    // leaves generous slack for CI scheduling noise.
    assert!(
        latency < stage * 4,
        "cancellation took {latency:?}; preemption must not wait out retries"
    );
    let stats = pipeline.supervisor_stats();
    assert_eq!(stats.retries, 0, "a cancelled attempt is not retried");
    assert_eq!(stats.fallbacks, 0, "preemption does not degrade to a fallback");
}
