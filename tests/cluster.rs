//! Acceptance suite for the fault-tolerant sharded cluster tier.
//!
//! The invariants under test, per ISSUE 9:
//!
//! * **Ring determinism and bounded remapping** — two independently
//!   constructed rings route every key identically, and removing one of
//!   N shards remaps at most 2/N of a 10k-fingerprint sample (its own
//!   keys move to ring successors, nobody else's).
//! * **Bit-identity** — a clustered result equals an in-process run of
//!   the same spec on an identical pipeline.
//! * **Exactly-once accounting, cluster-wide** — after a quiesced
//!   drain, `completed_ok + failed + shed_deadline + drain_flushed ==
//!   accepted`, `kill -9` mid-load notwithstanding.
//! * **Per-shard store isolation and disk rewarm** — shards sharing a
//!   cache dir open distinct context-pinned segment files; a shard
//!   respawned after `kill -9` answers repeat traffic from disk, and an
//!   offline `ResultStore::verify` scan finds zero corrupt records.
//! * **Cluster-wide quarantine** — a tombstoned fingerprint is never
//!   served from cached state by any shard, before or after a kill.
//!
//! Shard processes are hosted by the dedicated `sandbox_worker` binary
//! (test binaries cannot re-exec themselves as workers).

use ascend::arch::ChipSpec;
use ascend::faults::SplitMix64;
use ascend::ops::OpSpec;
use ascend::pipeline::{
    AnalysisPipeline, ClusterConfig, ClusterService, HashRing, Priority, ResultStore,
    SandboxConfig, DEFAULT_VIRTUAL_NODES,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn worker_cmd() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sandbox_worker"))
}

fn cluster_config(shards: usize) -> ClusterConfig {
    ClusterConfig {
        shards,
        queue_capacity: 256,
        sandbox: SandboxConfig {
            worker_cmd: Some(worker_cmd()),
            heartbeat_interval: Duration::from_millis(15),
            heartbeat_timeout: Duration::from_millis(500),
            wall_clock_limit: Duration::from_secs(10),
            ..SandboxConfig::default()
        },
        respawn_backoff: Duration::from_millis(10),
        respawn_backoff_max: Duration::from_millis(200),
        ..ClusterConfig::default()
    }
}

/// Polls until `want` shards are up (respawn is asynchronous).
fn wait_for_live(cluster: &ClusterService, want: usize) {
    wait_until(cluster, |health| health.live_shards() >= want, "live shards");
}

/// Polls until shard `index` has been respawned past `respawns_before`
/// *and* is up again. A fresh `kill -9` is asynchronous twice over: the
/// dispatcher has to notice the death, then bring the shard back — a
/// health snapshot taken in between still shows the stale liveness.
fn wait_for_respawn(cluster: &ClusterService, index: usize, respawns_before: u64) {
    wait_until(
        cluster,
        |health| {
            let shard = &health.shards[index];
            shard.up && shard.counters.respawns > respawns_before
        },
        "respawn",
    );
}

fn wait_until(
    cluster: &ClusterService,
    pred: impl Fn(&ascend::pipeline::ClusterHealth) -> bool,
    what: &str,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred(&cluster.health()) {
        assert!(
            Instant::now() < deadline,
            "cluster never reached the awaited {what} state: {:?}",
            cluster.health()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A batch of distinct specs, one cache key each.
fn batch(n: u64) -> Vec<OpSpec> {
    (0..n).map(|i| OpSpec::add_relu((1 << 11) + i * 128)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Satellite: removing one of N shards remaps ≤ 2/N of a
    // 10k-fingerprint sample, and two independently constructed rings
    // agree on every key (determinism regression).
    #[test]
    fn ring_remaps_bounded_and_deterministically(
        shards in 2usize..9,
        dead_pick in 0usize..8,
        seed in any::<u64>(),
    ) {
        let dead = dead_pick % shards;
        let ring = HashRing::new(shards, DEFAULT_VIRTUAL_NODES);
        let twin = HashRing::new(shards, DEFAULT_VIRTUAL_NODES);
        prop_assert_eq!(&ring, &twin);
        let mut rng = SplitMix64::new(seed);
        let samples = 10_000usize;
        let mut remapped = 0usize;
        for _ in 0..samples {
            let key = rng.next_u64();
            let owner = ring.owner(key);
            prop_assert_eq!(owner, twin.owner(key), "rings must agree on every key");
            let rerouted = ring.route(key, |shard| shard != dead).expect("peers are alive");
            if owner == dead {
                remapped += 1;
                prop_assert!(rerouted != dead, "a dead shard must never be routed to");
            } else {
                prop_assert_eq!(rerouted, owner, "keys of live shards must not move");
            }
        }
        prop_assert!(
            remapped * shards <= 2 * samples,
            "remapped {} of {} keys across {} shards — more than 2/N",
            remapped, samples, shards
        );
    }
}

#[test]
fn cluster_serves_bit_identical_results_and_accounts_exactly_once() {
    let cluster =
        ClusterService::start(ChipSpec::training(), cluster_config(2)).expect("cluster start");
    let specs = batch(12);
    let tickets: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let priority = if i % 2 == 0 { Priority::Interactive } else { Priority::Sweep };
            cluster.submit(*spec, priority).expect("admission")
        })
        .collect();

    // Bit-identity against a fresh in-process pipeline (separate cache,
    // so no shared state can mask a divergence).
    let reference = AnalysisPipeline::new(ChipSpec::training());
    for (spec, ticket) in specs.iter().zip(&tickets) {
        let clustered = ticket.wait().expect("clustered work succeeds");
        let local = reference.run(spec.instantiate().as_ref()).expect("reference run");
        assert_eq!(*clustered, *local, "clustered result must be bit-identical for {spec:?}");
        assert_eq!(
            clustered.fingerprint,
            cluster.cache_key(&(*spec).into()),
            "routing key is the result fingerprint"
        );
    }

    let report = cluster.drain(Duration::from_secs(10));
    assert!(report.quiesced, "drain quiesces a healthy cluster");
    let health = cluster.health();
    assert_eq!(health.counters.accepted, 12);
    assert_eq!(health.counters.completed_ok, 12);
    assert_eq!(health.counters.failed, 0);
    assert_eq!(
        health.counters.terminal_states(),
        health.counters.accepted,
        "every admitted ticket ended exactly once: {:?}",
        health.counters
    );
    // Both shards took traffic: 12 distinct keys over 2 shards with 64
    // virtual nodes never all land on one side.
    for shard in &health.shards {
        assert!(
            shard.counters.completed_ok > 0,
            "shard {} served nothing: {health:?}",
            shard.index
        );
    }
    // A drained cluster refuses new work.
    assert!(cluster.submit(OpSpec::gelu(1 << 10), Priority::Sweep).is_err());
}

#[test]
fn served_requests_are_sampled_into_per_class_latency() {
    let cluster =
        ClusterService::start(ChipSpec::training(), cluster_config(2)).expect("cluster start");
    let specs = batch(12);
    let tickets: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let priority = if i < 8 { Priority::Interactive } else { Priority::Sweep };
            cluster.submit(*spec, priority).expect("admission")
        })
        .collect();
    for ticket in &tickets {
        ticket.wait().expect("clustered work succeeds");
    }
    assert!(cluster.drain(Duration::from_secs(10)).quiesced);
    let health = cluster.health();
    assert_eq!(health.interactive.count, 8, "one sojourn sample per served interactive request");
    assert_eq!(health.sweep.count, 4, "one sojourn sample per served sweep request");
    for class in [health.interactive, health.sweep] {
        assert!(class.p50 > 0.0 && class.p50 <= class.p99, "{class:?}");
    }
    assert_eq!(health.counters.worker_panics, 0, "{:?}", health.counters);
}

#[test]
fn chaos_kill_dash_nine_loses_no_tickets_and_the_victim_respawns() {
    let dir = std::env::temp_dir().join(format!("ascend-cluster-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cache dir");
    let mut config = cluster_config(4);
    config.store_dir = Some(dir.clone());
    let cluster = ClusterService::start(ChipSpec::training(), config).expect("cluster start");
    wait_for_live(&cluster, 4);

    // Route-aware victim choice: find the shard owning the most keys of
    // the upcoming batch, so the kill lands with its queue loaded.
    let specs = batch(32);
    let mut owned = [0usize; 4];
    for spec in &specs {
        owned[cluster.ring().owner(cluster.cache_key(&(*spec).into()))] += 1;
    }
    let victim = (0..4).max_by_key(|&shard| owned[shard]).expect("four shards");
    assert!(owned[victim] > 0, "the victim must own some of the load");
    let respawns_before = cluster.health().shards[victim].counters.respawns;

    // Sustained mixed-priority load, then `kill -9` mid-flight.
    let tickets: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let priority = if i % 2 == 0 { Priority::Interactive } else { Priority::Sweep };
            cluster.submit(*spec, priority).expect("admission")
        })
        .collect();
    assert!(cluster.kill_shard(victim), "the victim had a live process to kill");

    // Zero lost tickets: every single one completes with a result —
    // victims are re-answered via failover to the ring successor.
    for (spec, ticket) in specs.iter().zip(&tickets) {
        let result = ticket.wait().unwrap_or_else(|err| {
            panic!("ticket for {spec:?} lost to the kill: {err}");
        });
        assert!(result.cycles() > 0.0);
    }

    // The cluster kept serving throughout and the victim comes back.
    let probe = cluster
        .submit(OpSpec::gelu((1 << 10) + 3), Priority::Interactive)
        .expect("admissions stay open across the kill")
        .wait()
        .expect("and keep completing");
    assert!(probe.cycles() > 0.0);
    wait_for_respawn(&cluster, victim, respawns_before);
    wait_for_live(&cluster, 4);

    let report = cluster.drain(Duration::from_secs(10));
    assert!(report.quiesced, "drain quiesces despite the chaos");
    let health = cluster.health();
    assert!(health.counters.kills >= 1, "the kill is booked: {:?}", health.counters);
    assert!(
        health.shards[victim].counters.respawns > respawns_before,
        "the victim's recovery is booked: {health:?}"
    );
    assert_eq!(health.counters.accepted, 33);
    assert_eq!(health.counters.completed_ok, 33, "nothing failed: {:?}", health.counters);
    assert_eq!(
        health.counters.terminal_states(),
        health.counters.accepted,
        "exactly-once accounting survives a shard death: {:?}",
        health.counters
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_stores_are_isolated_and_rewarm_a_killed_shard_from_disk() {
    let dir = std::env::temp_dir().join(format!("ascend-cluster-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cache dir");
    let mut config = cluster_config(2);
    config.store_dir = Some(dir.clone());
    let cluster = ClusterService::start(ChipSpec::inference(), config).expect("cluster start");

    // Two shards sharing one cache dir open distinct, context-pinned
    // segment files.
    let path_a = cluster.shard_store_path(0).expect("store configured");
    let path_b = cluster.shard_store_path(1).expect("store configured");
    assert_ne!(path_a, path_b, "shards must never share a segment file");
    let context = cluster.context();
    assert!(
        path_a.display().to_string().contains(&format!("{context:016x}")),
        "segment names are context-pinned: {}",
        path_a.display()
    );

    let specs = batch(12);
    let tickets: Vec<_> = specs
        .iter()
        .map(|spec| cluster.submit(*spec, Priority::Sweep).expect("admission"))
        .collect();
    for ticket in &tickets {
        ticket.wait().expect("clean work");
    }
    let warm = cluster.health();
    assert_eq!(warm.counters.cache_hits, 0, "distinct specs compute cold: {:?}", warm.counters);
    assert!(path_a.exists() && path_b.exists(), "both shards persisted their results");

    // `kill -9` both shards, let them respawn, and replay the traffic:
    // every answer now comes from the rewarmed stores.
    wait_for_live(&cluster, 2);
    let respawns_before: Vec<_> = warm.shards.iter().map(|shard| shard.counters.respawns).collect();
    assert!(cluster.kill_shard(0));
    assert!(cluster.kill_shard(1));
    wait_for_respawn(&cluster, 0, respawns_before[0]);
    wait_for_respawn(&cluster, 1, respawns_before[1]);
    let replays: Vec<_> = specs
        .iter()
        .map(|spec| cluster.submit(*spec, Priority::Sweep).expect("admission"))
        .collect();
    for ticket in &replays {
        ticket.wait().expect("replayed work");
    }

    cluster.drain(Duration::from_secs(10));
    // Counters are exact only after the quiesced drain joined the
    // dispatchers — they advance just after a ticket completes.
    let health = cluster.health();
    assert_eq!(
        health.counters.cache_hits,
        specs.len() as u64,
        "every replay must be served from warm state: {:?}",
        health.counters
    );
    for shard in &health.shards {
        assert!(
            shard.counters.store_recovered > 0,
            "shard {} rewarmed nothing from disk: {health:?}",
            shard.index
        );
    }
    // Zero corrupt records served is backed by zero corrupt records
    // *present*: the offline verifier scans both segments clean.
    for path in [&path_a, &path_b] {
        let report = ResultStore::verify(path).expect("segment scans");
        assert!(report.is_clean(), "segment {} is damaged: {report}", path.display());
        assert_eq!(report.context, context, "segment belongs to this cluster's context");
        assert!(report.live > 0, "segment holds live records");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_is_cluster_wide_and_survives_kill_dash_nine() {
    let dir = std::env::temp_dir().join(format!("ascend-cluster-quar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cache dir");
    let mut config = cluster_config(2);
    config.store_dir = Some(dir.clone());
    let cluster = ClusterService::start(ChipSpec::training(), config).expect("cluster start");

    // A poisoned spec and a control spec owned by the same shard, so
    // the same segment file holds a tombstone next to a live record.
    let mut poisoned = OpSpec::add_relu(1 << 12);
    let owner_of = |cluster: &ClusterService, spec: &OpSpec| {
        cluster.ring().owner(cluster.cache_key(&(*spec).into()))
    };
    let control = OpSpec::add_relu((1 << 12) + 64);
    let target = owner_of(&cluster, &control);
    let mut bump = 0u64;
    while owner_of(&cluster, &poisoned) != target {
        bump += 1;
        poisoned = OpSpec::add_relu((1 << 12) + 128 * bump);
    }
    let key = cluster.cache_key(&poisoned.into());

    // Serve both once (cold), then quarantine the poisoned key.
    cluster.submit(poisoned, Priority::Interactive).expect("admission").wait().expect("compute");
    cluster.submit(control, Priority::Interactive).expect("admission").wait().expect("compute");
    cluster.quarantine(key);
    assert!(cluster.is_quarantined(key));

    // Before any kill: the quarantined fingerprint is recomputed, not
    // served from the (stale) cached bytes.
    let again = cluster
        .submit(poisoned, Priority::Interactive)
        .expect("admission")
        .wait()
        .expect("recompute");
    assert!(again.cycles() > 0.0, "recomputation stays allowed — only stale bytes are barred");
    // Counters advance just after the ticket completes; await them.
    wait_until(&cluster, |health| health.counters.completed_ok >= 3, "three completions");
    assert_eq!(
        cluster.health().counters.cache_hits,
        0,
        "a quarantined fingerprint must never count as a cache hit"
    );

    // `kill -9` the owner; the respawn warm-up re-delivers the full
    // quarantine set before any traffic.
    wait_for_live(&cluster, 2);
    let respawns_before = cluster.health().shards[target].counters.respawns;
    assert!(cluster.kill_shard(target));
    wait_for_respawn(&cluster, target, respawns_before);

    // The control key rewarms from disk; the quarantined key does not.
    cluster.submit(control, Priority::Interactive).expect("admission").wait().expect("disk hit");
    wait_until(&cluster, |health| health.counters.completed_ok >= 4, "four completions");
    let hits_after_control = cluster.health().counters.cache_hits;
    assert_eq!(hits_after_control, 1, "the control key proves the rewarm path works");
    cluster.submit(poisoned, Priority::Interactive).expect("admission").wait().expect("recompute");
    wait_until(&cluster, |health| health.counters.completed_ok >= 5, "five completions");
    assert_eq!(
        cluster.health().counters.cache_hits,
        hits_after_control,
        "the tombstone survived the kill: no shard serves the fingerprint from cached state"
    );
    assert!(cluster.is_quarantined(key), "quarantine outlives the member that died");

    cluster.drain(Duration::from_secs(10));
    let report = ResultStore::verify(cluster.shard_store_path(target).expect("store configured"))
        .expect("segment scans");
    assert!(report.is_clean(), "no resurrected records: {report}");
    assert!(report.tombstones >= 1, "the tombstone is durable: {report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_is_idempotent_and_flushes_queued_work() {
    let mut config = cluster_config(2);
    // A deadline far in the future: queued work at drain time is
    // flushed, not shed.
    config.default_deadline = Some(Duration::from_secs(60));
    let cluster = ClusterService::start(ChipSpec::training(), config).expect("cluster start");
    let tickets: Vec<_> = batch(8)
        .iter()
        .map(|spec| cluster.submit(*spec, Priority::Sweep).expect("admission"))
        .collect();
    let first = cluster.drain(Duration::from_secs(10));
    assert!(first.quiesced);
    let second = cluster.drain(Duration::from_secs(10));
    assert!(second.quiesced, "drain is idempotent");
    assert_eq!(second.flushed_queued, 0, "the second drain finds nothing left to flush");
    for ticket in &tickets {
        assert!(ticket.wait().is_err() || ticket.wait().is_ok(), "every ticket is terminal");
        assert!(ticket.try_result().is_some(), "no ticket is left hanging");
    }
    let health = cluster.health();
    assert_eq!(
        health.counters.terminal_states(),
        health.counters.accepted,
        "accounting balances across drain: {:?}",
        health.counters
    );
    assert_eq!(health.live_shards(), 0, "drained clusters hold no processes");
    assert!(cluster.shard_pids().iter().all(Option::is_none));
}

#[test]
fn a_deadline_that_lapses_in_the_queue_sheds_the_request_and_a_live_one_is_served() {
    use ascend::faults::HostileMode;
    use ascend::pipeline::{PipelineError, WorkSpec};

    // One shard, held by a spinning job until its wall-clock kill; no
    // failover, so the spinner fails once instead of re-queueing.
    let mut config = cluster_config(1);
    config.sandbox.wall_clock_limit = Duration::from_millis(500);
    config.max_failovers = 0;
    let cluster = ClusterService::start(ChipSpec::training(), config).expect("cluster start");
    wait_for_live(&cluster, 1);
    let spinner = cluster
        .submit(WorkSpec::hostile(HostileMode::Spin), Priority::Interactive)
        .expect("admission");
    wait_until(&cluster, |health| health.queue_depth == 0, "spinner dispatched");

    let lapsing = cluster
        .submit_with_deadline(
            OpSpec::gelu(1 << 12),
            Priority::Interactive,
            Duration::from_millis(100),
        )
        .expect("admission");
    let live = cluster
        .submit_with_deadline(
            OpSpec::softmax(1 << 12),
            Priority::Interactive,
            Duration::from_secs(60),
        )
        .expect("admission");

    assert!(spinner.wait().is_err(), "the spinner is killed at its wall-clock limit");
    match lapsing.wait() {
        Err(PipelineError::DeadlineShed { queued_for }) => {
            assert!(queued_for >= Duration::from_millis(100), "shed after {queued_for:?}");
        }
        other => panic!("a request whose deadline lapsed in the queue must be shed: {other:?}"),
    }
    let served = live.wait().expect("a request within its deadline is served");
    let reference = AnalysisPipeline::new(ChipSpec::training());
    assert_eq!(*served, *reference.run(OpSpec::softmax(1 << 12).instantiate().as_ref()).unwrap());

    assert!(cluster.drain(Duration::from_secs(10)).quiesced);
    let counters = cluster.health().counters;
    assert_eq!(counters.accepted, 3);
    assert_eq!(counters.shed_deadline, 1, "{counters:?}");
    assert_eq!(counters.completed_ok, 1, "{counters:?}");
    assert_eq!(counters.terminal_states(), counters.accepted, "{counters:?}");
}
