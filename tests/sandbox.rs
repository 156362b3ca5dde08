//! Kill-matrix acceptance suite for the sandboxed isolation tier.
//!
//! A service whose classes run [`Isolation::Sandboxed`] is fed a batch
//! mixing well-behaved operator specs with the fault library's hostile
//! modes — a hot loop that never polls, an `abort()`, an allocation
//! bomb, muted heartbeats, and two frame-protocol saboteurs. The
//! invariants:
//!
//! * every hostile item terminates with the *matching* typed error
//!   (`WorkerHung` / `WorkerCrashed` / `WorkerOverMemory` /
//!   `WorkerProtocol`),
//! * every clean item's result is **bit-identical** to the in-process
//!   tier's result for the same spec,
//! * the service itself never restarts — it keeps serving after the
//!   matrix — and its ticket accounting balances exactly once,
//! * drain forcefully preempts a sandboxed child instead of waiting out
//!   its wall-clock limit.
//!
//! Worker processes are hosted by the dedicated `sandbox_worker` binary
//! (test binaries cannot re-exec themselves as workers).

use ascend::arch::ChipSpec;
use ascend::faults::HostileMode;
use ascend::ops::OpSpec;
use ascend::pipeline::{
    AnalysisPipeline, AnalysisService, Isolation, PipelineError, Priority, Request, RunPolicy,
    SandboxConfig, SandboxedExecutor, ServiceConfig, WorkSpec,
};
use ascend::sim::SimError;
use std::path::PathBuf;
use std::time::Duration;

fn worker_cmd() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sandbox_worker"))
}

/// Sandbox tuning tight enough to keep the whole matrix inside a few
/// seconds: the hot loop dies at the wall clock, the mute dies at the
/// heartbeat timeout, the bomb dies well short of its target.
fn sandbox_config() -> SandboxConfig {
    SandboxConfig {
        worker_cmd: Some(worker_cmd()),
        heartbeat_interval: Duration::from_millis(15),
        heartbeat_timeout: Duration::from_millis(300),
        wall_clock_limit: Duration::from_secs(3),
        rss_limit_bytes: Some(64 * 1024 * 1024),
        poll_interval: Duration::from_millis(5),
        recycle_after: 4,
        wire_faults: None,
    }
}

fn sandboxed_service(chip: ChipSpec) -> AnalysisService {
    AnalysisService::start(
        AnalysisPipeline::new(chip),
        ServiceConfig {
            workers: 2,
            isolation: Isolation::Sandboxed,
            sandbox: sandbox_config(),
            ..ServiceConfig::default()
        },
    )
}

fn clean_specs() -> Vec<OpSpec> {
    vec![
        OpSpec::add_relu(1 << 12),
        OpSpec::gelu(1 << 10),
        OpSpec::softmax(1 << 9),
        OpSpec::layer_norm(1 << 9),
        OpSpec::matmul(24, 24, 24),
        OpSpec::avg_pool(1 << 10),
    ]
}

#[test]
fn kill_matrix_contains_every_hostile_mode_and_spares_the_rest() {
    let svc = sandboxed_service(ChipSpec::training());

    let hostile = [
        HostileMode::Spin,
        HostileMode::Abort,
        HostileMode::Grow { megabytes: 512 },
        HostileMode::Mute,
        HostileMode::GarbageStdout,
        HostileMode::TruncateFrame,
    ];
    // Interleave clean and hostile work so kills land between healthy
    // jobs on warm workers, not in a separate phase.
    let clean_tickets: Vec<_> = clean_specs()
        .into_iter()
        .map(|spec| svc.submit(Request::sweep_spec(spec)).expect("admission"))
        .collect();
    let hostile_tickets: Vec<_> = hostile
        .iter()
        .map(|mode| {
            svc.submit(Request::from_spec(
                ascend::pipeline::WorkSpec::hostile(*mode),
                Priority::Interactive,
            ))
            .expect("admission")
        })
        .collect();

    for (mode, ticket) in hostile.iter().zip(&hostile_tickets) {
        let err = ticket.wait().expect_err("hostile work must not produce a result");
        match (mode, &err) {
            (HostileMode::Spin, PipelineError::WorkerHung { waited, heartbeats }) => {
                assert!(*waited >= Duration::from_millis(2900), "spin dies at the wall clock");
                assert!(*heartbeats > 0, "a spinning worker still heartbeats");
            }
            (HostileMode::Mute, PipelineError::WorkerHung { waited, .. }) => {
                assert!(
                    *waited < Duration::from_millis(2900),
                    "mute dies at the heartbeat timeout, not the wall clock (waited {waited:?})"
                );
            }
            (HostileMode::Abort, PipelineError::WorkerCrashed { signal: Some(6), code: None }) => {}
            (
                HostileMode::Grow { .. },
                PipelineError::WorkerOverMemory { rss_bytes, budget_bytes },
            ) => {
                assert!(rss_bytes > budget_bytes, "the sample that killed it was over budget");
            }
            (HostileMode::GarbageStdout, PipelineError::WorkerProtocol { detail }) => {
                assert!(detail.contains("magic"), "garbage fails the magic check: {detail}");
            }
            (HostileMode::TruncateFrame, PipelineError::WorkerProtocol { detail }) => {
                assert!(detail.contains("truncated"), "torn frames are named: {detail}");
            }
            (mode, err) => panic!("{mode:?} produced the wrong error: {err:?}"),
        }
    }

    // Bit-identity: the sandboxed results equal a fresh in-process run
    // of the same specs on an identical pipeline (separate service, so
    // no shared cache can mask a divergence).
    let reference = AnalysisPipeline::new(ChipSpec::training());
    for (spec, ticket) in clean_specs().into_iter().zip(&clean_tickets) {
        let sandboxed = ticket.wait().expect("clean work succeeds despite neighboring kills");
        let local = reference.run(spec.instantiate().as_ref()).expect("reference run");
        assert_eq!(*sandboxed, *local, "sandboxed result must be bit-identical for {spec:?}");
    }

    // The service survived: it still serves new work after the matrix.
    let after = svc
        .submit(Request::interactive_spec(OpSpec::add_relu((1 << 12) + 257)))
        .expect("the service keeps accepting after kills")
        .wait()
        .expect("and keeps completing");
    assert!(after.cycles() > 0.0);

    let report = svc.drain(Duration::from_secs(10));
    assert!(report.quiesced, "drain quiesces despite the kill matrix");
    let health = svc.health();
    assert_eq!(
        health.counters.terminal_states(),
        health.counters.accepted,
        "every admitted ticket ended exactly once: {:?}",
        health.counters
    );
    assert_eq!(health.counters.worker_panics, 0, "kills never surface as service panics");
    assert_eq!(health.counters.completed_ok, 7, "six clean specs plus the post-matrix probe");
    assert_eq!(health.counters.failed, 6, "each hostile item failed exactly once");

    // The kill taxonomy is visible in the health snapshot.
    assert_eq!(health.sandbox.hung, 2, "spin (wall clock) + mute (heartbeat)");
    assert_eq!(health.sandbox.crashed, 1, "abort");
    assert_eq!(health.sandbox.over_memory, 1, "allocation bomb");
    assert_eq!(health.sandbox.protocol, 2, "garbage + truncation");
    assert_eq!(health.sandbox.jobs_ok, 7);
    assert!(health.sandbox.spawned >= 6, "every kill costs (at least) a fresh worker");
}

#[test]
fn warm_workers_are_reused_and_recycled() {
    let svc = sandboxed_service(ChipSpec::inference());
    let mut specs = Vec::new();
    for i in 0..10u64 {
        specs.push(OpSpec::add_relu((1 << 11) + i * 64));
    }
    let tickets: Vec<_> = specs
        .iter()
        .map(|spec| svc.submit(Request::sweep_spec(*spec)).expect("admission"))
        .collect();
    for ticket in &tickets {
        ticket.wait().expect("clean work");
    }
    svc.drain(Duration::from_secs(10));
    let sandbox = svc.health().sandbox;
    assert_eq!(sandbox.jobs_ok, 10);
    assert!(
        sandbox.spawned < 10,
        "warm workers serve multiple jobs (spawned {} for 10 jobs)",
        sandbox.spawned
    );
    assert!(sandbox.recycled >= 1, "the recycle bound (4 jobs) retires workers");
    assert_eq!(sandbox.kills(), 0, "no kills on a clean batch");
}

#[test]
fn drain_preempts_a_sandboxed_child_instead_of_waiting_out_its_clock() {
    let mut config = sandbox_config();
    // Make the wall clock and heartbeat timeouts far longer than the
    // drain bound: only forceful preemption can quiesce in time.
    config.wall_clock_limit = Duration::from_secs(30);
    config.heartbeat_timeout = Duration::from_secs(30);
    let svc = AnalysisService::start(
        AnalysisPipeline::new(ChipSpec::training()),
        ServiceConfig {
            workers: 1,
            isolation: Isolation::Sandboxed,
            sandbox: config,
            ..ServiceConfig::default()
        },
    );
    let spinner = svc
        .submit(Request::interactive_spec(WorkSpec::hostile(HostileMode::Spin)))
        .expect("admission");
    // Give the child time to actually start spinning.
    std::thread::sleep(Duration::from_millis(200));
    let report = svc.drain(Duration::from_secs(5));
    assert!(report.quiesced, "drain must not wait for a 30s wall clock");
    assert!(report.elapsed < Duration::from_secs(5));
    match spinner.wait() {
        Err(PipelineError::Runtime(SimError::Cancelled { .. })) => {}
        other => panic!("preempted sandboxed work reports cancellation, got {other:?}"),
    }
    let health = svc.health();
    assert_eq!(health.sandbox.preempted, 1, "the kill is attributed to preemption");
    assert_eq!(health.sandbox.hung, 0, "not to a hang");
    assert_eq!(health.counters.terminal_states(), health.counters.accepted);
}

/// The sandboxed path reads the disk tier like the in-process paths: a
/// store written through one executor serves a fresh executor after a
/// restart, so the repeat spawns no child and appends no duplicate.
#[test]
fn sandboxed_repeats_are_served_from_a_reopened_store() {
    let dir = std::env::temp_dir().join(format!("ascend-sandbox-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sandbox.astr");
    let chip = ChipSpec::training();
    let work = WorkSpec::op(OpSpec::add_relu(1 << 12));
    let policy = RunPolicy::default();
    let executor_over_store = || {
        let pipeline = AnalysisPipeline::new(chip.clone()).with_store(&path).unwrap();
        SandboxedExecutor::new(pipeline, sandbox_config())
    };

    let first = {
        let executor = executor_over_store();
        let result = executor.run_supervised(&work, &policy, None).expect("clean work");
        assert_eq!(executor.counters().spawned, 1);
        assert_eq!(executor.pipeline().store_stats().unwrap().appends, 1);
        result
    };

    let executor = executor_over_store();
    assert_eq!(executor.pipeline().store_stats().unwrap().recovered, 1);
    let again = executor.run_supervised(&work, &policy, None).expect("disk hit");
    assert_eq!(*again, *first, "the disk hit is the persisted result");
    assert_eq!(executor.counters().spawned, 0, "a disk hit never spawns a child");
    let store = executor.pipeline().store_stats().unwrap();
    assert_eq!(store.hits, 1);
    assert_eq!(store.appends, 0, "a recovered entry is not persisted twice");
    assert_eq!(executor.pipeline().cache_stats().hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}
