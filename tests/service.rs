//! Acceptance suite for the resident [`AnalysisService`]: admission
//! control under seeded overload, loss-free shedding, bounded queueing
//! delay, priority scheduling, a ledger that live health probes can
//! trust, and graceful drain with workers mid-flight and an injected
//! worker panic.
//!
//! The soak test self-calibrates: it measures the service's unloaded
//! latency first and derives the 2x-overload arrival rate from that
//! measurement, so the same invariants hold in debug and release
//! builds.
//!
//! Work that must be long is long by construction, not by input size:
//! the soak's operators take a fixed wall-clock time to build, and the
//! scheduling and drain tests hold their operators in `build` behind a
//! [`Gate`] the test opens. A fast build machine therefore cannot
//! finish the work before the assertion looks at it.

use ascend::arch::ChipSpec;
use ascend::faults::{FaultPlan, FaultedOperator, LoadProfile, PanicOperator, PanicSwitch};
use ascend::isa::{IsaError, Kernel};
use ascend::ops::{AddRelu, Operator, OptFlags};
use ascend::pipeline::{AnalysisPipeline, AnalysisService, PipelineError, Request, ServiceConfig};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn service(config: ServiceConfig) -> AnalysisService {
    AnalysisService::start(AnalysisPipeline::new(ChipSpec::training()), config)
}

/// How long a gate nobody opens holds its operators. A scheduling bug
/// then fails an assertion instead of hanging the suite.
const GATE_TIMEOUT: Duration = Duration::from_secs(30);

/// A latch the test opens, counting the builds that reached it.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<GateState>, Condvar)>);

#[derive(Default)]
struct GateState {
    open: bool,
    entered: usize,
}

impl Gate {
    fn open(&self) {
        let (state, changed) = &*self.0;
        state.lock().unwrap().open = true;
        changed.notify_all();
    }

    /// Blocks a build until the gate opens (or [`GATE_TIMEOUT`] passes).
    fn pass(&self) {
        let (state, changed) = &*self.0;
        let mut guard = state.lock().unwrap();
        guard.entered += 1;
        changed.notify_all();
        let _ = changed.wait_timeout_while(guard, GATE_TIMEOUT, |s| !s.open).unwrap();
    }

    /// Blocks until `builds` builds are waiting at (or went through) the
    /// gate.
    fn await_entered(&self, builds: usize) {
        let (state, changed) = &*self.0;
        let guard = state.lock().unwrap();
        let (guard, _) =
            changed.wait_timeout_while(guard, GATE_TIMEOUT, |s| s.entered < builds).unwrap();
        assert!(
            guard.entered >= builds,
            "only {} of {builds} builds reached the gate",
            guard.entered
        );
    }
}

/// What a [`HeldOp`]'s `build` waits on before generating its kernel.
#[derive(Clone)]
enum Hold {
    /// Until the test opens the gate.
    Gate(Gate),
    /// A fixed wall-clock time, so service time is set by the test.
    For(Duration),
}

/// An `AddRelu` whose `build` first waits on a [`Hold`].
struct HeldOp {
    inner: AddRelu,
    hold: Hold,
}

fn gated(gate: &Gate, elements: u64) -> Box<dyn Operator> {
    Box::new(HeldOp { inner: AddRelu::new(elements), hold: Hold::Gate(gate.clone()) })
}

/// A unique (never cache-hitting) operator taking a fixed 3 ms, so
/// queueing effects dominate scheduler noise in any build.
fn unique_op(index: u64) -> Box<dyn Operator> {
    Box::new(HeldOp {
        inner: AddRelu::new((1 << 10) + index * 257),
        hold: Hold::For(Duration::from_millis(3)),
    })
}

impl fmt::Debug for HeldOp {
    // The descriptor (and so the cache key) comes from the inner
    // operator; the gate's state must not leak into it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("HeldOp").field(&self.inner).finish()
    }
}

impl Operator for HeldOp {
    fn name(&self) -> String {
        format!("{}+held", self.inner.name())
    }

    fn flags(&self) -> OptFlags {
        self.inner.flags()
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(HeldOp { inner: self.inner.with_flags(flags), hold: self.hold.clone() })
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        match &self.hold {
            Hold::Gate(gate) => gate.pass(),
            Hold::For(duration) => std::thread::sleep(*duration),
        }
        self.inner.build(chip)
    }
}

#[test]
fn soak_at_2x_overload_bounds_the_queue_and_loses_nothing() {
    // The queue bound is the knob that caps sojourn time: an admitted
    // item waits at most ~(queue/workers + 1) service times, which must
    // land well inside the 10x-unloaded-p50 envelope even with worker
    // contention inflating per-item service under load.
    const WORKERS: usize = 2;
    const QUEUE: usize = 4;
    let svc = service(ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE,
        ..ServiceConfig::default()
    });

    // Phase 1 — unloaded baseline: closed loop, one request at a time.
    let baseline_start = Instant::now();
    const BASELINE: u64 = 12;
    for i in 0..BASELINE {
        let ticket = svc.submit(Request::interactive(unique_op(i))).unwrap();
        ticket.wait().unwrap();
    }
    let mean_service = baseline_start.elapsed() / u32::try_from(BASELINE).unwrap();
    let unloaded_p50 = svc.health().interactive.p50;
    assert!(unloaded_p50 > 0.0, "baseline must record latency samples");

    // Phase 2 — open-loop replay at 2x the measured service capacity,
    // with a burst riding on top and a seeded fraction of fault-mutated
    // kernels in the mix.
    let capacity_hz = WORKERS as f64 / mean_service.as_secs_f64();
    let profile = LoadProfile::new(0x50A4, 2.0 * capacity_hz, 40 * mean_service)
        .with_burst(10 * mean_service, 3 * mean_service, 3.0)
        .with_interactive_fraction(1.0);
    let schedule = profile.schedule();
    assert!(schedule.len() > 50, "the overload phase needs real traffic");

    let start = Instant::now();
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for (i, arrival) in schedule.iter().enumerate() {
        if let Some(wait) = arrival.at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let inner = unique_op(BASELINE + i as u64);
        let op: Box<dyn Operator> = if arrival.draw % 8 == 0 {
            Box::new(FaultedOperator::new(inner, FaultPlan::new(arrival.draw).truncate_to(5)))
        } else {
            inner
        };
        match svc.submit(Request::interactive(op)) {
            Ok(ticket) => tickets.push(ticket),
            Err(PipelineError::Overloaded { queue_depth, .. }) => {
                // Shed requests are told, with the depth that shed them —
                // never silently dropped.
                assert_eq!(queue_depth, QUEUE);
                rejected += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
        let depth = svc.health().queue_depth;
        assert!(depth <= QUEUE, "queue depth {depth} exceeded its bound {QUEUE}");
    }
    assert_eq!(
        tickets.len() as u64 + rejected,
        schedule.len() as u64,
        "every arrival was either admitted or told it was shed"
    );
    assert!(rejected > 0, "a sustained 2x overload must shed at admission");

    // Phase 3 — drain and audit the ledger.
    let report = svc.drain(Duration::from_secs(30));
    assert!(report.quiesced, "drain must quiesce: {report:?}");
    let health = svc.health();
    assert_eq!(
        health.counters.terminal_states(),
        health.counters.accepted,
        "every accepted ticket reaches exactly one terminal state: {:?}",
        health.counters
    );
    assert_eq!(health.counters.accepted, BASELINE + tickets.len() as u64);
    assert_eq!(health.counters.rejected_overload, rejected);
    assert!(
        tickets.iter().all(|t| t.try_result().is_some()),
        "an admitted ticket must be settled after drain"
    );

    // Bounded delay: the admission queue caps sojourn at roughly
    // (queue/workers + 1) service times, inside the 10x envelope.
    let loaded_p99 = health.interactive.p99;
    assert!(
        loaded_p99 < 10.0 * unloaded_p50,
        "p99 under load ({:.2} ms) must stay under 10x unloaded p50 ({:.2} ms)",
        loaded_p99 * 1e3,
        unloaded_p50 * 1e3
    );
}

#[test]
fn drain_returns_on_time_with_workers_midflight_and_a_panic() {
    let svc = service(ServiceConfig { workers: 2, queue_capacity: 32, ..ServiceConfig::default() });
    let mut tickets = Vec::new();
    // A poison item first: wait for its panic so the pool has provably
    // survived one — the regression this test pins is that a panicking
    // item neither wedges drain nor leaks its in-flight slot.
    let poison = PanicOperator::new(Box::new(AddRelu::new(1 << 10)), PanicSwitch::after(0));
    let poison_ticket = svc.submit(Request::sweep(Box::new(poison))).unwrap();
    assert!(
        matches!(poison_ticket.wait(), Err(PipelineError::Panicked { .. })),
        "the poison ticket fails with the panic, not a hang"
    );
    tickets.push(poison_ticket);
    // Then gated items: two go mid-flight and block in `build`, the rest
    // stay queued when the drain lands.
    let gate = Gate::default();
    for i in 0..6u64 {
        tickets.push(svc.submit(Request::sweep(gated(&gate, (1 << 23) + i))).unwrap());
    }
    gate.await_entered(2);

    let deadline = Duration::from_secs(10);
    let last = tickets.last().expect("six gated tickets");
    let report = std::thread::scope(|scope| {
        // Release the mid-flight builds once drain has flushed the
        // queue; their attempts then meet the cancelled drain token.
        scope.spawn(|| {
            let _ = last.wait_timeout(GATE_TIMEOUT);
            gate.open();
        });
        svc.drain(deadline)
    });
    assert!(report.quiesced, "a panicking item must not wedge drain: {report:?}");
    assert!(report.elapsed < deadline, "drain must beat its deadline: {report:?}");
    assert!(report.flushed_queued > 0, "some items were still queued at drain: {report:?}");

    let health = svc.health();
    // The pipeline's per-item isolation absorbs the operator panic and
    // fails the ticket; `worker_panics` counts only panics escaping
    // that isolation, for which the in-flight guard is the backstop.
    assert!(health.counters.failed >= 1, "{:?}", health.counters);
    assert_eq!(health.counters.worker_panics, 0, "{:?}", health.counters);
    assert_eq!(
        health.counters.terminal_states(),
        health.counters.accepted,
        "panic and cancellation still produce exactly one terminal state each: {:?}",
        health.counters
    );
    let outcomes: Vec<_> = tickets.iter().map(|t| t.try_result()).collect();
    assert!(outcomes.iter().all(Option::is_some), "every ticket is settled after drain");
    assert!(
        outcomes.iter().flatten().any(
            |outcome| matches!(outcome, Err(PipelineError::Panicked { message }) if !message.is_empty())
        ),
        "the poison ticket reports the panic"
    );
}

#[test]
fn a_live_health_probe_never_sees_more_terminal_states_than_admissions() {
    // Repeat requests are cache hits: a worker can pop and settle one in
    // microseconds, so a submit that made its job visible before booking
    // it as accepted would show up here as terminal > accepted.
    const SUBMITTERS: usize = 2;
    const PER_SUBMITTER: usize = 2_000;
    let svc = service(ServiceConfig { workers: 2, queue_capacity: 16, ..ServiceConfig::default() });
    svc.submit(Request::interactive(Box::new(AddRelu::new(1 << 12)))).unwrap().wait().unwrap();
    let done = AtomicUsize::new(0);
    let polls = std::thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            scope.spawn(|| {
                for _ in 0..PER_SUBMITTER {
                    match svc.submit(Request::interactive(Box::new(AddRelu::new(1 << 12)))) {
                        Ok(_) | Err(PipelineError::Overloaded { .. }) => {}
                        Err(other) => panic!("unexpected rejection: {other:?}"),
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let mut polls = 0u64;
        while done.load(Ordering::SeqCst) < SUBMITTERS {
            let counters = svc.health().counters;
            assert!(
                counters.terminal_states() <= counters.accepted,
                "a live snapshot settled more tickets than it admitted: {counters:?}"
            );
            polls += 1;
        }
        polls
    });
    assert!(polls > 0, "the observer must poll while submitters run");
    let report = svc.drain(Duration::from_secs(10));
    assert!(report.quiesced);
    let counters = svc.health().counters;
    assert_eq!(counters.terminal_states(), counters.accepted, "{counters:?}");
}

#[test]
fn interactive_requests_overtake_queued_sweeps() {
    let svc = service(ServiceConfig { workers: 1, queue_capacity: 8, ..ServiceConfig::default() });
    // Occupy the only worker, then queue a sweep before an interactive
    // request: the interactive one must be dequeued first. The sweep is
    // gated too, so it cannot finish before the check even if it ran.
    let head_gate = Gate::default();
    let sweep_gate = Gate::default();
    let head = svc.submit(Request::sweep(gated(&head_gate, 1 << 22))).unwrap();
    head_gate.await_entered(1);
    let sweep = svc.submit(Request::sweep(gated(&sweep_gate, (1 << 22) + 1))).unwrap();
    let interactive = svc.submit(Request::interactive(Box::new(AddRelu::new(1 << 12)))).unwrap();
    head_gate.open();
    interactive.wait().expect("interactive completes");
    assert!(
        sweep.try_result().is_none(),
        "the earlier-queued sweep is still waiting when the interactive answer lands"
    );
    sweep_gate.open();
    head.wait().expect("head of line completes");
    sweep.wait().expect("sweep completes eventually");
    let report = svc.drain(Duration::from_secs(5));
    assert!(report.quiesced);
}
