//! Wire-level fault acceptance suite: every byte-level transport fault
//! the chaos tier can inject — torn frames, bit flips, duplicates,
//! reorders, stalls, interleaved garbage, in both pipe directions —
//! must land the parent in the existing supervision taxonomy
//! (`WorkerProtocol` / `WorkerHung` / `WorkerCrashed` /
//! `WorkerOverMemory`), and must **never**:
//!
//! * serve a result whose frame failed the digest or whose fingerprint
//!   does not match the job (bit-identity for every `Ok`),
//! * wedge a dispatcher thread (every drain quiesces),
//! * leak a child process (no live shard pids after drain),
//! * break the exactly-once ticket ledger.
//!
//! Worker and shard processes are hosted by the dedicated
//! `sandbox_worker` binary (test binaries cannot re-exec themselves).

use ascend::arch::ChipSpec;
use ascend::faults::{WireDirection, WireFault, WireFaultEvent, WireFaultPlan};
use ascend::ops::OpSpec;
use ascend::pipeline::{
    AnalysisPipeline, AnalysisService, ClusterConfig, ClusterService, Isolation, PipelineError,
    Request, SandboxConfig, ServiceConfig,
};
use std::path::PathBuf;
use std::time::Duration;

fn worker_cmd() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sandbox_worker"))
}

fn sandbox_config(plan: Option<WireFaultPlan>) -> SandboxConfig {
    SandboxConfig {
        worker_cmd: Some(worker_cmd()),
        heartbeat_interval: Duration::from_millis(15),
        heartbeat_timeout: Duration::from_millis(300),
        wall_clock_limit: Duration::from_secs(3),
        poll_interval: Duration::from_millis(5),
        wire_faults: plan,
        ..SandboxConfig::default()
    }
}

/// Accepts exactly the documented kill taxonomy — anything else (a
/// panic, a `Runtime` error, a `WorkerReported` failure on clean specs)
/// means a wire fault escaped supervision.
fn assert_in_taxonomy(context: &str, err: &PipelineError) {
    match err {
        PipelineError::WorkerProtocol { .. }
        | PipelineError::WorkerHung { .. }
        | PipelineError::WorkerCrashed { .. }
        | PipelineError::WorkerOverMemory { .. } => {}
        other => panic!("{context}: fault escaped the worker taxonomy: {other:?}"),
    }
}

fn clean_specs() -> Vec<OpSpec> {
    vec![
        OpSpec::add_relu(1 << 12),
        OpSpec::softmax(1 << 9),
        OpSpec::layer_norm(1 << 9),
        OpSpec::gelu(1 << 10),
    ]
}

/// Every fault kind, in each direction it is interesting in, against a
/// single-worker sandboxed service: each ticket either succeeds
/// bit-identically or fails inside the taxonomy, and the service always
/// drains to a quiesced, balanced ledger.
#[test]
fn every_wire_fault_kind_lands_in_the_worker_taxonomy() {
    let matrix: Vec<(WireDirection, WireFault)> = vec![
        (WireDirection::ToWorker, WireFault::Tear { keep: 6 }),
        (WireDirection::ToWorker, WireFault::BitFlip { bit: 77 }),
        (WireDirection::ToWorker, WireFault::Garbage { len: 32 }),
        (WireDirection::FromWorker, WireFault::Tear { keep: 9 }),
        (WireDirection::FromWorker, WireFault::BitFlip { bit: 201 }),
        (WireDirection::FromWorker, WireFault::Duplicate),
        (WireDirection::FromWorker, WireFault::Reorder),
        (WireDirection::FromWorker, WireFault::Stall { millis: 600 }),
        (WireDirection::FromWorker, WireFault::Garbage { len: 48 }),
    ];
    let reference = AnalysisPipeline::new(ChipSpec::training());

    for (direction, fault) in matrix {
        let context = format!("{direction} {fault}");
        let plan = WireFaultPlan::from_events(
            0xFA_017,
            vec![WireFaultEvent { shard: 0, direction, nth: 1, fault }],
        );
        let svc = AnalysisService::start(
            AnalysisPipeline::new(ChipSpec::training()),
            ServiceConfig {
                workers: 1,
                isolation: Isolation::Sandboxed,
                sandbox: sandbox_config(Some(plan)),
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = clean_specs()
            .into_iter()
            .map(|spec| (spec, svc.submit(Request::sweep_spec(spec)).expect("admission")))
            .collect();
        let mut failed = 0u64;
        for (spec, ticket) in &tickets {
            match ticket.wait() {
                Ok(result) => {
                    let local = reference.run(spec.instantiate().as_ref()).expect("reference");
                    assert_eq!(
                        *result, *local,
                        "{context}: a served result must be bit-identical for {spec:?}"
                    );
                }
                Err(err) => {
                    failed += 1;
                    assert_in_taxonomy(&context, &err);
                }
            }
        }
        let report = svc.drain(Duration::from_secs(10));
        assert!(report.quiesced, "{context}: drain must quiesce, not wedge");
        let health = svc.health();
        assert_eq!(
            health.counters.terminal_states(),
            health.counters.accepted,
            "{context}: every ticket ends exactly once: {:?}",
            health.counters
        );
        assert_eq!(health.counters.worker_panics, 0, "{context}: no dispatcher panics");
        assert_eq!(health.counters.failed, failed, "{context}: ledger matches observed failures");
    }
}

/// A seeded multi-fault plan (the same expansion `bench chaos` uses)
/// against the sandbox tier: whatever the seed deals, the acceptance is
/// identical — taxonomy, bit-identity, quiesced drain, balanced ledger.
#[test]
fn seeded_wire_fault_sweep_never_escapes_supervision() {
    let reference = AnalysisPipeline::new(ChipSpec::training());
    for seed in [0x51EE_D001u64, 0x51EE_D002, 0x51EE_D003] {
        let plan = WireFaultPlan::expand(seed, 1, 3, 600);
        let context = format!("seed {seed:#x}: {:?}", plan.events);
        let svc = AnalysisService::start(
            AnalysisPipeline::new(ChipSpec::training()),
            ServiceConfig {
                workers: 1,
                isolation: Isolation::Sandboxed,
                sandbox: sandbox_config(Some(plan)),
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..6u64)
            .map(|i| {
                let spec = OpSpec::add_relu((1 << 11) + i * 128);
                (spec, svc.submit(Request::sweep_spec(spec)).expect("admission"))
            })
            .collect();
        for (spec, ticket) in &tickets {
            match ticket.wait() {
                Ok(result) => {
                    let local = reference.run(spec.instantiate().as_ref()).expect("reference");
                    assert_eq!(*result, *local, "{context}: bit-identity for {spec:?}");
                }
                Err(err) => assert_in_taxonomy(&context, &err),
            }
        }
        let report = svc.drain(Duration::from_secs(10));
        assert!(report.quiesced, "{context}: drain must quiesce");
        let health = svc.health();
        assert_eq!(
            health.counters.terminal_states(),
            health.counters.accepted,
            "{context}: exactly-once: {:?}",
            health.counters
        );
    }
}

/// The cluster tier under a cross-shard wire-fault plan: failover and
/// respawn absorb the faults (clean specs still complete — possibly
/// after retries on the surviving shard), the drain quiesces, no shard
/// process outlives the service, and the ledger stays exactly-once.
#[test]
fn cluster_absorbs_wire_faults_with_exactly_once_accounting() {
    let plan = WireFaultPlan::expand(0xC1_0577, 2, 4, 600);
    let context = format!("cluster plan {:?}", plan.events);
    let cluster = ClusterService::start(
        ChipSpec::training(),
        ClusterConfig {
            shards: 2,
            queue_capacity: 256,
            max_failovers: 4,
            sandbox: sandbox_config(Some(plan)),
            respawn_backoff: Duration::from_millis(10),
            respawn_backoff_max: Duration::from_millis(200),
            ..ClusterConfig::default()
        },
    )
    .expect("cluster starts");
    let reference = AnalysisPipeline::new(ChipSpec::training());
    let tickets: Vec<_> = (0..12u64)
        .map(|i| {
            let spec = OpSpec::add_relu((1 << 11) + i * 96);
            (spec, cluster.submit(spec, ascend::pipeline::Priority::Sweep).expect("admission"))
        })
        .collect();
    for (spec, ticket) in &tickets {
        match ticket.wait() {
            Ok(result) => {
                let local = reference.run(spec.instantiate().as_ref()).expect("reference");
                assert_eq!(*result, *local, "{context}: bit-identity for {spec:?}");
            }
            Err(err) => assert_in_taxonomy(&context, &err),
        }
    }
    let report = cluster.drain(Duration::from_secs(20));
    assert!(report.quiesced, "{context}: cluster drain must quiesce");
    let pids: Vec<u32> = cluster.shard_pids().into_iter().flatten().collect();
    for pid in pids {
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "{context}: shard pid {pid} outlived the drain"
        );
    }
    let health = cluster.health();
    let c = &health.counters;
    assert_eq!(
        c.completed_ok + c.failed + c.shed_deadline + c.drain_flushed,
        c.accepted,
        "{context}: exactly-once cluster ledger: {c:?}"
    );
}
