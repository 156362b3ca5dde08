//! The fault-tolerant sharded cluster tier: N supervised shard
//! processes behind one consistent-hash router.
//!
//! The [`AnalysisService`](crate::AnalysisService) hardened a *single*
//! process; this module scales the same guarantees horizontally. A
//! [`ClusterService`] owns `N` long-lived shard processes — the same
//! binary re-executed with the [`CLUSTER_SHARD_ENV`] marker, speaking
//! the sandbox tier's `ASBX` framed wire protocol — and routes every
//! request by consistent hash of its pipeline cache fingerprint:
//!
//! * **Consistent-hash ring.** [`HashRing`] places
//!   [`DEFAULT_VIRTUAL_NODES`] points per shard on a 64-bit ring built
//!   from the workspace's shared FNV-1a ([`crate::digest`]). A key is
//!   owned by the first point at or after it; when a shard dies, only
//!   *its* keys move to their ring successors (≈ `1/N` of the keyspace),
//!   so per-shard caches stay hot through membership churn.
//! * **Shard failure detection.** Each shard has a dedicated dispatcher
//!   thread enforcing the sandbox tier's containment from outside:
//!   heartbeat silence, a wall-clock kill, and an RSS budget
//!   (inherited from [`SandboxConfig`]), plus exit-status taxonomy for
//!   children that die on their own (`kill -9` included).
//! * **Failover.** In-flight and queued requests of a dead shard are
//!   re-routed to the ring successor, bounded by
//!   [`ClusterConfig::max_failovers`] per request. Ticket accounting is
//!   cluster-wide and exactly-once: `completed_ok + failed +
//!   shed_deadline + drain_flushed == accepted` holds across any shard
//!   death, because tickets complete idempotently (first write wins).
//! * **Respawn with backoff.** A dead shard is respawned under seeded
//!   exponential backoff; consecutive failures open a per-shard circuit
//!   breaker (visible in [`ShardHealth`]) that manifests as growing
//!   backoff rather than permanent eviction. An acknowledged hello
//!   closes it.
//! * **Hello, then jobs.** The first frame of every spawn is a
//!   [`ShardHello`] carrying the chip, thresholds, heartbeat interval,
//!   store path, full quarantine set and the chaos-only buggy engine;
//!   the shard builds its resident pipeline from it once. Every later
//!   frame is a [`ShardJob`] carrying only the context fingerprint, the
//!   work, its deadline and budget, and pending tombstones, so the chip
//!   crosses the pipe once per spawn instead of once per request. A job
//!   before the hello, or for another context, is a malformed stream:
//!   the shard exits 3 without serving it. This split is
//!   [`WIRE_VERSION`](crate::WIRE_VERSION) 2.
//! * **Durable rewarm.** With [`ClusterConfig::store_dir`] set, each
//!   shard opens its own context-pinned
//!   [`ResultStore`](crate::ResultStore) segment
//!   (`shard-<index>-<context>.astr`), so a respawned shard answers
//!   repeat traffic from disk instead of cold-computing.
//! * **Quarantine broadcast.** [`ClusterService::quarantine`] tombstones
//!   a fingerprint cluster-wide: every live shard gets the tombstone on
//!   its next frame (an idle shard is nudged with a control ping), and
//!   every respawn hello carries the *full* quarantine set — no shard
//!   ever serves a tombstoned result, before or after a kill.
//! * **Graceful drain.** [`ClusterService::drain`] stops admissions,
//!   flushes queued tickets, cancels in-flight attempts, then kills the
//!   children. Idempotent and `Drop`-safe.
//!
//! Everything observable is surfaced in a [`ClusterHealth`] snapshot:
//! per-shard depth, in-flight state, breaker, respawns, pids, and
//! counters, plus the ring generation (bumped on every membership
//! change).
//!
//! The chaos proof lives in `tests/cluster.rs` and
//! `examples/cluster_chaos.rs`: shards are `kill -9`ed mid-load and the
//! suite asserts zero lost tickets, continued availability, respawn,
//! disk rewarm, and quarantine integrity.
//!
//! ```no_run
//! use ascend_arch::ChipSpec;
//! use ascend_ops::OpSpec;
//! use ascend_pipeline::{ClusterConfig, ClusterService, Priority, WorkSpec};
//!
//! // The current binary's `main` must call `run_worker_if_requested`.
//! let cluster = ClusterService::start(
//!     ChipSpec::training(),
//!     ClusterConfig { shards: 4, ..ClusterConfig::default() },
//! )?;
//! let ticket = cluster.submit(OpSpec::add_relu(1 << 12), Priority::Interactive)?;
//! let result = ticket.wait()?;
//! assert!(result.cycles() > 0.0);
//! cluster.drain(std::time::Duration::from_secs(10));
//! # Ok::<(), ascend_pipeline::PipelineError>(())
//! ```

use crate::digest::Fnv64;
use crate::sandbox::{
    classify_exit, ensure_heartbeats, rss_bytes, spawn_framed_child, ReadEvent, SandboxConfig,
    WireBudget, WireFailure, WorkSpec,
};
use crate::service::{Priority, Ticket, TicketShared};
use crate::supervisor::RunPolicy;
use crate::transport::{
    protocol_fault_bytes, read_frame, write_frame, FrameKind, FrameTransport, PipeTransport,
};
use crate::{lock, AnalysisPipeline, PipelineError, PipelineResult};
use ascend_arch::ChipSpec;
use ascend_faults::{BuggyEngine, FaultyTransport, SplitMix64};
use ascend_roofline::Thresholds;
use ascend_sim::{CancelToken, SimBudget, SimError};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ExitStatus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment marker that turns a re-exec of the current binary into a
/// cluster shard worker (see
/// [`run_worker_if_requested`](crate::run_worker_if_requested)).
pub const CLUSTER_SHARD_ENV: &str = "ASCEND_CLUSTER_SHARD";

/// Default virtual nodes per shard on the [`HashRing`]. 64 points keep
/// per-shard keyspace shares within a few percent of `1/N`, so removing
/// one of `N` shards remaps close to `1/N` of the keys.
pub const DEFAULT_VIRTUAL_NODES: usize = 64;

/// Dispatcher tick: the cadence at which an idle dispatcher re-runs its
/// maintenance pass (idle-death detection, respawn-backoff checks).
const TICK: Duration = Duration::from_millis(10);

/// Grace given to a child believed to be exiting voluntarily, so its own
/// exit status survives instead of being overwritten by SIGKILL.
const REAP_GRACE: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------
// The consistent-hash ring
// ---------------------------------------------------------------------

/// A consistent-hash ring over shard indexes.
///
/// Each shard contributes `virtual_nodes` points, hashed with the
/// workspace's shared FNV-1a over `(shard, vnode)`. A key is routed to
/// the first point at or after it (wrapping); [`route`](HashRing::route)
/// walks past points whose shard a liveness predicate rejects, which is
/// exactly ring-successor failover: keys owned by live shards never
/// move, keys owned by dead shards land on their successors.
///
/// Construction is deterministic — two rings built with the same
/// parameters are identical, so every router in a fleet agrees on
/// placement without coordination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point hash, shard index)`, sorted by hash.
    points: Vec<(u64, usize)>,
    shards: usize,
    virtual_nodes: usize,
}

impl HashRing {
    /// A ring of `shards` members with `virtual_nodes` points each
    /// (both clamped to at least 1).
    #[must_use]
    pub fn new(shards: usize, virtual_nodes: usize) -> Self {
        let shards = shards.max(1);
        let virtual_nodes = virtual_nodes.max(1);
        let mut points = Vec::with_capacity(shards * virtual_nodes);
        for shard in 0..shards {
            for vnode in 0..virtual_nodes {
                let mut hasher = Fnv64::new();
                hasher.write(b"ascend-cluster-ring");
                hasher.write_u64(shard as u64);
                hasher.write_u64(vnode as u64);
                points.push((hasher.finish(), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards, virtual_nodes }
    }

    /// Number of shards on the ring.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Virtual nodes per shard.
    #[must_use]
    pub fn virtual_nodes(&self) -> usize {
        self.virtual_nodes
    }

    /// The shard owning `key` with every member alive.
    #[must_use]
    pub fn owner(&self, key: u64) -> usize {
        self.route(key, |_| true).expect("a ring always has at least one point")
    }

    /// The first shard at or after `key` (wrapping) that `alive`
    /// accepts, or `None` when it rejects every shard.
    pub fn route(&self, key: u64, alive: impl Fn(usize) -> bool) -> Option<usize> {
        let start = self.points.partition_point(|&(hash, _)| hash < key);
        for offset in 0..self.points.len() {
            let (_, shard) = self.points[(start + offset) % self.points.len()];
            if alive(shard) {
                return Some(shard);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Wire payloads (inside the sandbox tier's ASBX frame container)
// ---------------------------------------------------------------------

/// Parent → shard: one frame of the shard's input stream. The first
/// frame of every spawn is a [`ShardHello`]; every later one is a
/// [`ShardJob`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ShardRequest {
    /// Sets the shard's serving context, once per spawn.
    Hello(ShardHello),
    /// One request, or a quarantine nudge.
    Job(ShardJob),
}

/// Everything a shard's resident pipeline is built from. Sent once per
/// spawn, so the chip crosses the pipe once per shard process rather
/// than once per request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardHello {
    chip: ChipSpec,
    thresholds: Thresholds,
    heartbeat_ms: u64,
    /// The shard's own durable store segment.
    store_path: Option<String>,
    /// The full quarantine set at spawn time: fingerprints this shard
    /// must never answer from cached state.
    quarantine: Vec<u64>,
    /// Chaos-only: a silently-wrong engine the shard's resident pipeline
    /// must arm ([`AnalysisPipeline::with_buggy_engine`]). Absent in
    /// every production frame.
    #[serde(default)]
    buggy: Option<BuggyEngine>,
}

/// One request on a shard that has had its [`ShardHello`], or a control
/// ping when `work` is `None`. Control pings apply tombstones without
/// running anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardJob {
    /// The context fingerprint the parent routed under. A shard serving
    /// another context treats the frame as a malformed stream.
    context: u64,
    /// `None` is a control ping (quarantine nudge).
    work: Option<WorkSpec>,
    deadline_ms: Option<u64>,
    budget: Option<WireBudget>,
    /// Tombstones to apply before serving, not yet acknowledged by this
    /// shard.
    quarantine: Vec<u64>,
}

/// The typed outcome inside a [`ShardReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ShardResult {
    /// The shard's pipeline ran the work to completion.
    Ok {
        /// The result, bit-identical to an in-process run.
        result: Box<PipelineResult>,
    },
    /// The shard's pipeline run failed; the error crosses rendered.
    Err {
        /// The rendered failure.
        failure: WireFailure,
    },
    /// Acknowledgement of a control ping.
    Control,
}

/// Shard → parent: the outcome of one [`ShardJob`], plus the shard-side
/// observability the cluster folds into its counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardReply {
    outcome: ShardResult,
    /// Whether the answer came from the shard's warm state (memory or
    /// disk) rather than a fresh computation.
    served_cached: bool,
    /// Entries the shard's store recovered at its last open — nonzero
    /// after a respawn proves the disk rewarm worked.
    store_recovered: u64,
}

// ---------------------------------------------------------------------
// Configuration and observability types
// ---------------------------------------------------------------------

/// Tuning for a [`ClusterService`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shard processes (minimum 1).
    pub shards: usize,
    /// Virtual nodes per shard on the ring (minimum 1).
    pub virtual_nodes: usize,
    /// Classification thresholds every shard analyzes under (part of the
    /// cache-key context, like a single pipeline's).
    pub thresholds: Thresholds,
    /// Bound on queued (not yet executing) requests, cluster-wide. At
    /// capacity, [`submit`](ClusterService::submit) rejects with
    /// [`PipelineError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that did not set their own.
    pub default_deadline: Option<Duration>,
    /// Watchdog budget forwarded to every shard-side attempt.
    pub budget: Option<SimBudget>,
    /// Containment limits inherited from the sandbox tier: worker
    /// binary, heartbeat interval/timeout, wall-clock limit, RSS budget,
    /// and monitor poll cadence. (`recycle_after` is ignored — shards
    /// are long-lived residents, not disposable workers.)
    pub sandbox: SandboxConfig,
    /// Consecutive failures after which a shard's circuit breaker is
    /// considered open (reported in [`ShardHealth::breaker_open`]; the
    /// breaker manifests as maximal respawn backoff, not eviction).
    pub breaker_threshold: u32,
    /// Times one request may fail over to a successor after killing (or
    /// losing) its shard before it completes with the last error — the
    /// bound that stops a poisonous item from serially killing the
    /// whole fleet.
    pub max_failovers: u32,
    /// Base of the seeded exponential respawn backoff.
    pub respawn_backoff: Duration,
    /// Cap on the respawn backoff.
    pub respawn_backoff_max: Duration,
    /// Seed of the backoff jitter streams (per-shard, derived).
    pub seed: u64,
    /// When set, shard `i` opens a durable store segment
    /// `shard-<i>-<context>.astr` in this directory and rewarms from it
    /// on every respawn.
    pub store_dir: Option<PathBuf>,
    /// Chaos-only: a wire-fault plan applied to every shard's pipe pair.
    /// Each scheduled event fires at most once per shard per direction,
    /// surviving respawns (a fresh process gets a healthy stream, but the
    /// shared fault counter keeps advancing).
    pub wire_faults: Option<ascend_faults::WireFaultPlan>,
    /// Chaos-only: arm every shard's resident pipeline with a
    /// silently-wrong engine. The cluster has no divergence auditor, so
    /// this is the canary a chaos run's bit-identity invariant must
    /// catch.
    pub buggy: Option<BuggyEngine>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            virtual_nodes: DEFAULT_VIRTUAL_NODES,
            thresholds: Thresholds::default(),
            queue_capacity: 64,
            default_deadline: None,
            budget: None,
            sandbox: SandboxConfig::default(),
            breaker_threshold: 3,
            max_failovers: 2,
            respawn_backoff: Duration::from_millis(25),
            respawn_backoff_max: Duration::from_secs(1),
            seed: 0xC1A5_7E12_5EED_0001,
            store_dir: None,
            wire_faults: None,
            buggy: None,
        }
    }
}

/// Monotonic per-shard event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Requests this shard completed with a result.
    pub completed_ok: u64,
    /// Requests this shard completed with an error.
    pub failed: u64,
    /// Requests shed at this shard's dispatch because their deadline
    /// lapsed while queued.
    pub shed_deadline: u64,
    /// Completed requests the shard answered from warm state (memory or
    /// disk) rather than fresh computation.
    pub cache_hits: u64,
    /// Times this shard's process died or was killed (heartbeat
    /// silence, wall-clock, RSS, crash, protocol violation, `kill -9`).
    pub kills: u64,
    /// Successful process bring-ups, the initial spawn included — a
    /// value above 1 proves the shard came back after a death.
    pub respawns: u64,
    /// Entries the shard's store recovered at its most recent open
    /// (a gauge, not a running total).
    pub store_recovered: u64,
}

/// Monotonic cluster-wide event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterCounters {
    /// Requests admitted (each owns exactly one ticket).
    pub accepted: u64,
    /// Requests rejected at admission with [`PipelineError::Overloaded`].
    pub rejected_overload: u64,
    /// Accepted requests that completed with a result.
    pub completed_ok: u64,
    /// Accepted requests that completed with an execution error.
    pub failed: u64,
    /// Accepted requests shed at dispatch after their deadline lapsed.
    pub shed_deadline: u64,
    /// Accepted requests flushed with [`PipelineError::ServiceStopped`]
    /// at drain.
    pub drain_flushed: u64,
    /// Requests re-routed to a ring successor after their shard died.
    pub failovers: u64,
    /// Successful shard process bring-ups (initial spawns included).
    pub respawns: u64,
    /// Shard process deaths, however caused.
    pub kills: u64,
    /// Quarantine broadcasts issued cluster-wide.
    pub quarantine_broadcasts: u64,
    /// Completed requests answered from a shard's warm state.
    pub cache_hits: u64,
}

impl ClusterCounters {
    /// Terminal states recorded so far. After a quiesced drain this
    /// equals [`accepted`](ClusterCounters::accepted): every admitted
    /// ticket ended exactly one way, shard deaths notwithstanding.
    #[must_use]
    pub fn terminal_states(&self) -> u64 {
        self.completed_ok + self.failed + self.shed_deadline + self.drain_flushed
    }
}

/// Point-in-time health of one shard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardHealth {
    /// The shard's index (stable; also its ring identity).
    pub index: usize,
    /// Whether the shard process is alive and warmed.
    pub up: bool,
    /// Requests queued at this shard.
    pub queue_depth: usize,
    /// Whether a request is executing on this shard right now.
    pub in_flight: bool,
    /// Consecutive failures since the last healthy sign.
    pub consecutive_failures: u32,
    /// Whether the per-shard circuit breaker is open
    /// (`consecutive_failures >= breaker_threshold`).
    pub breaker_open: bool,
    /// OS pid of the live shard process.
    pub pid: Option<u32>,
    /// The shard's event counters.
    pub counters: ShardCounters,
}

/// Point-in-time health of a [`ClusterService`], cheap enough for a
/// readiness probe and serializable for `serve_health.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterHealth {
    /// Per-shard health, indexed by shard.
    pub shards: Vec<ShardHealth>,
    /// The cluster-wide counters.
    pub counters: ClusterCounters,
    /// Bumped on every shard membership change (death or respawn) —
    /// routing decisions can be attributed to a ring epoch.
    pub ring_generation: u64,
    /// Whether drain has begun (admissions closed).
    pub draining: bool,
    /// Requests queued cluster-wide (excludes executing ones).
    pub queue_depth: usize,
    /// Fingerprints under cluster-wide quarantine.
    pub quarantined: usize,
}

impl ClusterHealth {
    /// Shards currently up.
    #[must_use]
    pub fn live_shards(&self) -> usize {
        self.shards.iter().filter(|shard| shard.up).count()
    }

    /// Whether at least one shard can serve (the no-full-cluster-outage
    /// predicate the chaos suite asserts under kills).
    #[must_use]
    pub fn is_serving(&self) -> bool {
        !self.draining && self.live_shards() > 0
    }
}

/// What [`ClusterService::drain`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterDrainReport {
    /// Queued requests flushed with [`PipelineError::ServiceStopped`].
    pub flushed_queued: u64,
    /// Whether every in-flight request reached a terminal state (and
    /// the dispatchers were joined) before the drain deadline.
    pub quiesced: bool,
    /// Wall time drain took.
    pub elapsed: Duration,
}

// ---------------------------------------------------------------------
// Parent-side state
// ---------------------------------------------------------------------

/// One queued cluster request (or a control ping when `work` is `None`).
#[derive(Debug)]
struct ClusterJob {
    work: Option<WorkSpec>,
    key: u64,
    ticket: Option<Arc<TicketShared>>,
    priority: Priority,
    deadline: Option<Duration>,
    enqueued_at: Instant,
    failovers: u32,
}

/// A live shard process. The handle lives in a shared slot (not in the
/// dispatcher) so [`ClusterService::kill_shard`] can SIGKILL it mid-job
/// — the chaos harness's `kill -9`.
#[derive(Debug)]
struct ShardProcess {
    child: Child,
    stdin: PipeTransport<ChildStdin>,
}

impl ShardProcess {
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills (idempotently) and reaps the child. A child that already
    /// exited keeps its original status — SIGKILL on a zombie is a
    /// no-op.
    fn kill_and_reap(&mut self) -> Option<ExitStatus> {
        let _ = self.child.kill();
        self.child.wait().ok()
    }

    /// Reaps a child believed to have exited on its own, giving it
    /// `grace` before falling back to a kill.
    fn reap_with_grace(&mut self, grace: Duration) -> Option<ExitStatus> {
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return self.kill_and_reap(),
            }
        }
    }
}

impl Drop for ShardProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Mutable state of one shard, under the cluster state lock.
#[derive(Debug, Default)]
struct ShardSlot {
    queues: [VecDeque<ClusterJob>; Priority::COUNT],
    up: bool,
    in_flight: bool,
    consecutive_failures: u32,
    backoff_until: Option<Instant>,
    /// Tombstones not yet acknowledged by this shard; delivered on the
    /// next frame, cleared on its acknowledgement.
    pending_tombstones: Vec<u64>,
    pid: Option<u32>,
    counters: ShardCounters,
}

impl ShardSlot {
    fn depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn pop(&mut self) -> Option<ClusterJob> {
        self.queues.iter_mut().find_map(VecDeque::pop_front)
    }
}

/// Everything under the one cluster state mutex: shard slots, the
/// lifecycle flag, and the quarantine set change atomically relative to
/// routing decisions.
#[derive(Debug, Default)]
struct ClusterState {
    shards: Vec<ShardSlot>,
    draining: bool,
    quarantined: HashSet<u64>,
    generation: u64,
    in_flight_total: usize,
}

impl ClusterState {
    fn depth(&self) -> usize {
        self.shards.iter().map(ShardSlot::depth).sum()
    }
}

/// State shared between the service handle and its dispatchers.
#[derive(Debug)]
struct ClusterShared {
    config: ClusterConfig,
    chip: ChipSpec,
    context: u64,
    ring: HashRing,
    /// The resolved worker binary (config override or the current exe).
    program: PathBuf,
    state: Mutex<ClusterState>,
    /// Signalled on admission, failover, and drain: dispatchers wait
    /// here for work.
    work_cv: Condvar,
    /// Signalled whenever a shard's in-flight request concludes: drain
    /// waits here.
    idle_cv: Condvar,
    counters: Mutex<ClusterCounters>,
    /// One process slot per shard, outside the state lock so a frame
    /// write or a `kill_shard` never blocks routing. Lock ordering:
    /// never hold the state lock and a process slot lock together.
    workers: Vec<Mutex<Option<ShardProcess>>>,
    /// One wire-fault harness per shard, shared across that shard's
    /// respawns so each scheduled fault fires at most once for the whole
    /// run. `None` everywhere outside chaos runs.
    faulty: Vec<Option<FaultyTransport>>,
    /// Parent token of every in-flight attempt; cancelled at drain.
    drain_token: CancelToken,
}

impl ClusterShared {
    fn take_process(&self, index: usize) -> Option<ShardProcess> {
        lock(&self.workers[index]).take()
    }

    /// Kills and reaps shard `index`'s process if one is installed,
    /// returning its exit status.
    fn kill_process(&self, index: usize) -> Option<ExitStatus> {
        self.take_process(index).as_mut().and_then(ShardProcess::kill_and_reap)
    }

    /// Reaps shard `index`'s process with a voluntary-exit grace.
    fn reap_process(&self, index: usize) -> Option<ExitStatus> {
        self.take_process(index).as_mut().and_then(|p| p.reap_with_grace(REAP_GRACE))
    }

    /// The durable store segment of shard `index`, when a store
    /// directory is configured. Context-pinned like any store: two
    /// shards never share a file, and a segment refuses to open under
    /// the wrong (chip, thresholds).
    fn shard_store_path(&self, index: usize) -> Option<PathBuf> {
        self.config
            .store_dir
            .as_ref()
            .map(|dir| dir.join(format!("shard-{index}-{:016x}.astr", self.context)))
    }
}

/// First live shard for `key` on the ring walk, excluding `exclude`;
/// falls back to the key's owner when no shard is up (jobs then wait in
/// the owner's queue for its respawn instead of being rejected).
fn pick(ring: &HashRing, shards: &[ShardSlot], key: u64, exclude: Option<usize>) -> usize {
    ring.route(key, |shard| exclude != Some(shard) && shards[shard].up)
        .unwrap_or_else(|| ring.owner(key))
}

/// The sharded cluster front end. See the [module docs](self) for the
/// semantics and `tests/cluster.rs` for the chaos proof.
#[derive(Debug)]
pub struct ClusterService {
    shared: Arc<ClusterShared>,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl ClusterService {
    /// Starts `config.shards` dispatcher threads (each bringing up its
    /// own shard process) and returns the routing handle.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Chip`] for an invalid chip specification, and
    /// [`PipelineError::WorkerProtocol`] when no worker binary can be
    /// resolved. Shard processes that fail to *spawn* are not startup
    /// errors — they retry under backoff like any other shard death.
    pub fn start(chip: ChipSpec, config: ClusterConfig) -> Result<Self, PipelineError> {
        chip.validate().map_err(PipelineError::Chip)?;
        let program = match &config.sandbox.worker_cmd {
            Some(path) => path.clone(),
            None => std::env::current_exe().map_err(|err| PipelineError::WorkerProtocol {
                detail: format!("cannot locate the current executable: {err}"),
            })?,
        };
        let shards = config.shards.max(1);
        let context = crate::context_fingerprint(&chip, &config.thresholds);
        let ring = HashRing::new(shards, config.virtual_nodes);
        let mut state = ClusterState::default();
        state.shards.resize_with(shards, ShardSlot::default);
        let shared = Arc::new(ClusterShared {
            ring,
            program,
            context,
            chip,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            counters: Mutex::new(ClusterCounters::default()),
            workers: (0..shards).map(|_| Mutex::new(None)).collect(),
            faulty: (0..shards)
                .map(|index| {
                    config.wire_faults.as_ref().map(|plan| FaultyTransport::new(plan, index))
                })
                .collect(),
            drain_token: CancelToken::new(),
            config,
        });
        let dispatchers = (0..shards)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || dispatcher_loop(&shared, index))
            })
            .collect();
        Ok(ClusterService {
            shared,
            dispatchers: Mutex::new(dispatchers),
            next_id: AtomicU64::new(0),
        })
    }

    /// The context fingerprint (chip + thresholds) every shard serves
    /// under — what their store segments are pinned to.
    #[must_use]
    pub fn context(&self) -> u64 {
        self.shared.context
    }

    /// The routing ring (shared construction with any external router).
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.shared.ring
    }

    /// The cluster-wide cache key `work` routes by — the same key a
    /// single pipeline with this chip and thresholds would cache under.
    #[must_use]
    pub fn cache_key(&self, work: &WorkSpec) -> u64 {
        crate::mix(self.shared.context, work.instantiate().fingerprint())
    }

    /// The durable store segment shard `index` persists to, when a
    /// store directory is configured.
    #[must_use]
    pub fn shard_store_path(&self, index: usize) -> Option<PathBuf> {
        self.shared.shard_store_path(index)
    }

    /// OS pids of the live shard processes, by shard index.
    #[must_use]
    pub fn shard_pids(&self) -> Vec<Option<u32>> {
        lock(&self.shared.state).shards.iter().map(|slot| slot.pid).collect()
    }

    /// SIGKILLs shard `index`'s process — the chaos harness's
    /// `kill -9`. Returns whether a live process was there to kill. The
    /// shard's dispatcher detects the death, fails its work over, and
    /// respawns under backoff; no ticket is lost.
    pub fn kill_shard(&self, index: usize) -> bool {
        let Some(slot) = self.shared.workers.get(index) else { return false };
        match lock(slot).as_mut() {
            Some(process) => {
                let _ = process.child.kill();
                true
            }
            None => false,
        }
    }

    /// Submits `work` at `priority` with no per-item deadline beyond
    /// the cluster default.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Overloaded`] at capacity and
    /// [`PipelineError::ServiceStopped`] once drain has begun; an
    /// accepted request reports execution errors through its
    /// [`Ticket`] instead.
    pub fn submit(
        &self,
        work: impl Into<WorkSpec>,
        priority: Priority,
    ) -> Result<Ticket, PipelineError> {
        self.submit_inner(work.into(), priority, None)
    }

    /// [`submit`](ClusterService::submit) with a per-item deadline
    /// measured from admission: lapsing in a queue sheds the request,
    /// and the remainder bounds the shard-side attempt.
    ///
    /// # Errors
    ///
    /// As [`submit`](ClusterService::submit).
    pub fn submit_with_deadline(
        &self,
        work: impl Into<WorkSpec>,
        priority: Priority,
        deadline: Duration,
    ) -> Result<Ticket, PipelineError> {
        self.submit_inner(work.into(), priority, Some(deadline))
    }

    fn submit_inner(
        &self,
        work: WorkSpec,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, PipelineError> {
        let deadline = deadline.or(self.shared.config.default_deadline);
        let key = self.cache_key(&work);
        let mut state = lock(&self.shared.state);
        if state.draining {
            return Err(PipelineError::ServiceStopped);
        }
        let depth = state.depth();
        if depth >= self.shared.config.queue_capacity {
            drop(state);
            lock(&self.shared.counters).rejected_overload += 1;
            return Err(PipelineError::Overloaded {
                queue_depth: depth,
                retry_after_hint: Duration::from_millis(25),
            });
        }
        let ticket = Arc::new(TicketShared {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            priority,
            state: Mutex::new(None),
            ready: Condvar::new(),
        });
        let target = pick(&self.shared.ring, &state.shards, key, None);
        state.shards[target].queues[priority.index()].push_back(ClusterJob {
            work: Some(work),
            key,
            ticket: Some(Arc::clone(&ticket)),
            priority,
            deadline,
            enqueued_at: Instant::now(),
            failovers: 0,
        });
        drop(state);
        lock(&self.shared.counters).accepted += 1;
        self.shared.work_cv.notify_all();
        Ok(Ticket { shared: ticket })
    }

    /// Quarantines `key` cluster-wide: the tombstone rides the next
    /// frame to every shard (idle shards are nudged with a control
    /// ping), every respawn warm-up re-delivers the full set, and each
    /// shard's pipeline purges its memory entry and tombstones its
    /// store — no shard ever serves the fingerprint from cached state
    /// again. Recomputation stays allowed; only stale bytes are barred.
    /// Idempotent.
    pub fn quarantine(&self, key: u64) {
        let mut state = lock(&self.shared.state);
        if !state.quarantined.insert(key) {
            return;
        }
        for slot in &mut state.shards {
            slot.pending_tombstones.push(key);
            // Nudge ahead of queued work so the tombstone cannot lose a
            // race with a request for the same fingerprint.
            slot.queues[Priority::Interactive.index()].push_front(ClusterJob {
                work: None,
                key,
                ticket: None,
                priority: Priority::Interactive,
                deadline: None,
                enqueued_at: Instant::now(),
                failovers: 0,
            });
        }
        drop(state);
        lock(&self.shared.counters).quarantine_broadcasts += 1;
        self.shared.work_cv.notify_all();
    }

    /// Whether `key` is under cluster-wide quarantine.
    #[must_use]
    pub fn is_quarantined(&self, key: u64) -> bool {
        lock(&self.shared.state).quarantined.contains(&key)
    }

    /// A point-in-time [`ClusterHealth`] snapshot.
    #[must_use]
    pub fn health(&self) -> ClusterHealth {
        let state = lock(&self.shared.state);
        let shards = state
            .shards
            .iter()
            .enumerate()
            .map(|(index, slot)| ShardHealth {
                index,
                up: slot.up,
                queue_depth: slot.depth(),
                in_flight: slot.in_flight,
                consecutive_failures: slot.consecutive_failures,
                breaker_open: slot.consecutive_failures >= self.shared.config.breaker_threshold,
                pid: slot.pid,
                counters: slot.counters,
            })
            .collect();
        let health = ClusterHealth {
            shards,
            ring_generation: state.generation,
            draining: state.draining,
            queue_depth: state.depth(),
            quarantined: state.quarantined.len(),
            counters: ClusterCounters::default(),
        };
        drop(state);
        ClusterHealth { counters: *lock(&self.shared.counters), ..health }
    }

    /// Gracefully stops the cluster: closes admissions, flushes every
    /// queued ticket with [`PipelineError::ServiceStopped`], cancels
    /// in-flight attempts (killing their shard processes), waits up to
    /// `timeout` for quiescence, then force-kills any children still
    /// alive. Idempotent; every accepted ticket has a terminal state
    /// once this returns with `quiesced == true`.
    pub fn drain(&self, timeout: Duration) -> ClusterDrainReport {
        let start = Instant::now();
        let flushed = {
            let mut state = lock(&self.shared.state);
            state.draining = true;
            let mut flushed = Vec::new();
            for slot in &mut state.shards {
                for queue in &mut slot.queues {
                    flushed.extend(queue.drain(..));
                }
            }
            flushed
        };
        self.shared.work_cv.notify_all();
        let mut flushed_count = 0u64;
        for job in flushed {
            // Control pings die silently; only tickets owe an answer.
            if let Some(ticket) = job.ticket {
                if ticket.complete(Err(PipelineError::ServiceStopped)) {
                    flushed_count += 1;
                }
            }
        }
        if flushed_count > 0 {
            lock(&self.shared.counters).drain_flushed += flushed_count;
        }
        self.shared.drain_token.cancel();

        let mut state = lock(&self.shared.state);
        while state.in_flight_total > 0 {
            let Some(remaining) = timeout.checked_sub(start.elapsed()) else { break };
            let (guard, _timed_out) = self
                .shared
                .idle_cv
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
        let quiesced = state.in_flight_total == 0;
        drop(state);
        if quiesced {
            let handles = std::mem::take(&mut *lock(&self.dispatchers));
            for handle in handles {
                let _ = handle.join();
            }
        }
        // Backstop: dispatchers kill their own children on exit, but a
        // non-quiesced drain leaves them running — never leak a child.
        for index in 0..self.shared.workers.len() {
            self.shared.kill_process(index);
        }
        let mut state = lock(&self.shared.state);
        let mut bumps = 0u64;
        for slot in &mut state.shards {
            if slot.up {
                bumps += 1;
            }
            slot.up = false;
            slot.pid = None;
        }
        state.generation += bumps;
        drop(state);
        ClusterDrainReport { flushed_queued: flushed_count, quiesced, elapsed: start.elapsed() }
    }
}

impl Drop for ClusterService {
    fn drop(&mut self) {
        // Best-effort drain so dropping the handle never leaks shard
        // processes or leaves tickets without a terminal state.
        self.drain(Duration::from_secs(10));
    }
}

// ---------------------------------------------------------------------
// The dispatcher (one thread per shard)
// ---------------------------------------------------------------------

/// What `next_job` tells the dispatcher to do.
enum Next {
    Job(ClusterJob),
    Idle,
    Exit,
}

/// How one frame exchange with the shard ended.
enum ReplyEnd {
    /// A parsed reply arrived; the process is still healthy.
    Reply(ShardReply),
    /// The process is dead (killed here or died on its own).
    Fatal(PipelineError),
    /// The drain token fired; the process was killed for preemption.
    Preempted,
}

/// Ensures the in-flight bookkeeping — and a terminal state for the
/// ticket — survives every exit path of one dispatched job, including a
/// panic unwinding out of the dispatcher's own handling. A requeued job
/// hands its ticket onward by clearing `ticket` first.
struct InFlight<'a> {
    shared: &'a ClusterShared,
    index: usize,
    ticket: Option<Arc<TicketShared>>,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = &self.ticket {
            if ticket.complete(Err(PipelineError::Panicked {
                message: "cluster dispatcher panicked while handling this request".to_string(),
            })) {
                lock(&self.shared.counters).failed += 1;
            }
        }
        let mut state = lock(&self.shared.state);
        state.shards[self.index].in_flight = false;
        state.in_flight_total = state.in_flight_total.saturating_sub(1);
        drop(state);
        self.shared.idle_cv.notify_all();
    }
}

fn dispatcher_loop(shared: &Arc<ClusterShared>, index: usize) {
    let mut events: Option<Receiver<ReadEvent>> = None;
    let mut rng = SplitMix64::new(shared.config.seed ^ (index as u64).wrapping_mul(0x9E37));
    loop {
        maintain(shared, index, &mut events, &mut rng);
        match next_job(shared, index) {
            Next::Job(job) => run_one(shared, index, job, &mut events, &mut rng),
            Next::Idle => {}
            Next::Exit => {
                if let Some(mut process) = shared.take_process(index) {
                    process.kill_and_reap();
                }
                drop(events);
                let leftovers = {
                    let mut state = lock(&shared.state);
                    if state.shards[index].up {
                        state.generation += 1;
                    }
                    let slot = &mut state.shards[index];
                    slot.up = false;
                    slot.pid = None;
                    let mut leftovers = Vec::new();
                    for queue in &mut slot.queues {
                        leftovers.extend(queue.drain(..));
                    }
                    leftovers
                };
                let mut flushed = 0u64;
                for job in leftovers {
                    if let Some(ticket) = job.ticket {
                        if ticket.complete(Err(PipelineError::ServiceStopped)) {
                            flushed += 1;
                        }
                    }
                }
                if flushed > 0 {
                    lock(&shared.counters).drain_flushed += flushed;
                }
                return;
            }
        }
    }
}

/// The idle-path maintenance pass: drains the reader channel (detecting
/// a shard that died *between* jobs — `kill -9` on an idle shard lands
/// here) and respawns a down shard once its backoff elapsed.
fn maintain(
    shared: &Arc<ClusterShared>,
    index: usize,
    events: &mut Option<Receiver<ReadEvent>>,
    rng: &mut SplitMix64,
) {
    if let Some(receiver) = events {
        loop {
            match receiver.try_recv() {
                Ok(ReadEvent::Frame(frame)) if frame.kind == FrameKind::Heartbeat => {}
                Ok(ReadEvent::Frame(_)) => {
                    let status = shared.kill_process(index);
                    let err = classify_exit(status, "shard sent a frame while idle");
                    handle_worker_death(shared, index, events, rng, &err);
                    break;
                }
                Ok(ReadEvent::Malformed(detail)) => {
                    let status = shared.reap_process(index);
                    let err = match classify_exit(status, &detail) {
                        crashed @ PipelineError::WorkerCrashed { .. } => crashed,
                        _ => PipelineError::WorkerProtocol { detail },
                    };
                    handle_worker_death(shared, index, events, rng, &err);
                    break;
                }
                Ok(ReadEvent::Eof) => {
                    let status = shared.reap_process(index);
                    let err = classify_exit(status, "shard stream ended while idle");
                    handle_worker_death(shared, index, events, rng, &err);
                    break;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    let status = shared.kill_process(index);
                    let err = classify_exit(status, "shard reader thread lost the stream");
                    handle_worker_death(shared, index, events, rng, &err);
                    break;
                }
            }
        }
    }
    if events.is_some() {
        return;
    }
    let due = {
        let state = lock(&shared.state);
        if state.draining {
            return;
        }
        state.shards[index].backoff_until.is_none_or(|until| Instant::now() >= until)
    };
    if due {
        try_respawn(shared, index, events, rng);
    }
}

/// One respawn attempt: spawn the worker binary, warm it up with a
/// hello carrying the full quarantine set (and its store path, so it
/// rewarms from disk), and install it on success.
fn try_respawn(
    shared: &Arc<ClusterShared>,
    index: usize,
    events: &mut Option<Receiver<ReadEvent>>,
    rng: &mut SplitMix64,
) {
    let spawned =
        spawn_framed_child(&shared.program, CLUSTER_SHARD_ENV, shared.faulty[index].as_ref());
    let (child, stdin, receiver) = match spawned {
        Ok(parts) => parts,
        Err(err) => {
            eprintln!("[cluster] shard {index} spawn failed: {err}");
            record_respawn_failure(shared, index, rng);
            return;
        }
    };
    let mut process = ShardProcess { child, stdin };
    let tombstones: Vec<u64> = {
        let state = lock(&shared.state);
        state.quarantined.iter().copied().collect()
    };
    match warm_up(shared, index, &mut process, &receiver, &tombstones) {
        Ok(reply) => {
            let pid = process.pid();
            *lock(&shared.workers[index]) = Some(process);
            *events = Some(receiver);
            let mut state = lock(&shared.state);
            state.generation += 1;
            let slot = &mut state.shards[index];
            slot.up = true;
            slot.pid = Some(pid);
            slot.backoff_until = None;
            slot.consecutive_failures = 0;
            slot.counters.respawns += 1;
            slot.counters.store_recovered = reply.store_recovered;
            // The warm-up carried the full quarantine snapshot; only
            // tombstones added after the snapshot stay pending.
            slot.pending_tombstones.retain(|key| !tombstones.contains(key));
            drop(state);
            lock(&shared.counters).respawns += 1;
        }
        Err(err) => {
            process.kill_and_reap();
            eprintln!("[cluster] shard {index} warm-up failed: {err}");
            record_respawn_failure(shared, index, rng);
        }
    }
}

fn record_respawn_failure(shared: &ClusterShared, index: usize, rng: &mut SplitMix64) {
    let mut state = lock(&shared.state);
    let slot = &mut state.shards[index];
    slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
    slot.backoff_until =
        Some(Instant::now() + backoff_for(slot.consecutive_failures, &shared.config, rng));
}

/// Seeded exponential backoff: `base * 2^(attempt-1)`, capped, with a
/// deterministic ±25% jitter so a fleet of respawning shards does not
/// thunder in lockstep.
fn backoff_for(attempt: u32, config: &ClusterConfig, rng: &mut SplitMix64) -> Duration {
    let base = config.respawn_backoff.max(Duration::from_millis(1));
    let scaled = base.saturating_mul(2u32.saturating_pow(attempt.saturating_sub(1).min(16)));
    let capped = scaled.min(config.respawn_backoff_max);
    let jitter = 0.75 + 0.5 * rng.unit_f64();
    Duration::from_secs_f64(capped.as_secs_f64() * jitter).min(config.respawn_backoff_max)
}

/// Sends the hello on a not-yet-installed process and waits for its
/// acknowledgement under the sandbox limits.
fn warm_up(
    shared: &ClusterShared,
    index: usize,
    process: &mut ShardProcess,
    receiver: &Receiver<ReadEvent>,
    tombstones: &[u64],
) -> Result<ShardReply, PipelineError> {
    let hello = ShardRequest::Hello(ShardHello {
        chip: shared.chip.clone(),
        thresholds: shared.config.thresholds,
        heartbeat_ms: shared.config.sandbox.heartbeat_interval.as_millis().max(1) as u64,
        store_path: shared.shard_store_path(index).map(|p| p.display().to_string()),
        quarantine: tombstones.to_vec(),
        buggy: shared.config.buggy,
    });
    let payload = serde_json::to_string(&hello).map_err(|err| PipelineError::WorkerProtocol {
        detail: format!("warm-up frame serialization failed: {err}"),
    })?;
    process.stdin.send(FrameKind::Job, payload.as_bytes()).map_err(|err| {
        PipelineError::WorkerProtocol { detail: format!("warm-up frame write failed: {err}") }
    })?;
    let started = Instant::now();
    let wall_deadline = started + shared.config.sandbox.wall_clock_limit;
    let mut last_beat = started;
    let mut heartbeats = 0u64;
    loop {
        if shared.drain_token.is_cancelled() {
            return Err(PipelineError::Runtime(SimError::preempted_at("cluster warm-up")));
        }
        let now = Instant::now();
        if now >= wall_deadline
            || now.duration_since(last_beat) >= shared.config.sandbox.heartbeat_timeout
        {
            return Err(PipelineError::WorkerHung { waited: now - started, heartbeats });
        }
        match receiver.recv_timeout(shared.config.sandbox.poll_interval) {
            Ok(ReadEvent::Frame(frame)) => match frame.kind {
                FrameKind::Heartbeat => {
                    heartbeats += 1;
                    last_beat = Instant::now();
                }
                FrameKind::Outcome => {
                    let reply = parse_reply(&frame.payload)?;
                    return match reply.outcome {
                        ShardResult::Control => Ok(reply),
                        ShardResult::Err { failure } => Err(PipelineError::WorkerReported {
                            message: failure.message,
                            transient: failure.transient,
                        }),
                        ShardResult::Ok { .. } => Err(PipelineError::WorkerProtocol {
                            detail: "shard answered its hello with a result".to_string(),
                        }),
                    };
                }
                FrameKind::Job => {
                    return Err(PipelineError::WorkerProtocol {
                        detail: "shard sent a job frame to its parent".to_string(),
                    });
                }
            },
            Ok(ReadEvent::Malformed(detail)) => {
                let status = process.reap_with_grace(REAP_GRACE);
                return Err(match classify_exit(status, &detail) {
                    crashed @ PipelineError::WorkerCrashed { .. } => crashed,
                    _ => PipelineError::WorkerProtocol { detail },
                });
            }
            Ok(ReadEvent::Eof) => {
                let status = process.reap_with_grace(REAP_GRACE);
                return Err(classify_exit(status, "shard stream ended during warm-up"));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                let status = process.kill_and_reap();
                return Err(classify_exit(status, "shard reader thread lost the stream"));
            }
        }
    }
}

fn parse_reply(payload: &[u8]) -> Result<ShardReply, PipelineError> {
    std::str::from_utf8(payload).ok().and_then(|text| serde_json::from_str(text).ok()).ok_or_else(
        || PipelineError::WorkerProtocol {
            detail: "shard reply payload did not parse".to_string(),
        },
    )
}

/// Blocks for the next job of shard `index`, one tick at a time so the
/// maintenance pass keeps running while idle. Jobs dispatch only while
/// the shard is up — a down shard's queue waits for its respawn (or for
/// the death handler to fail it over).
fn next_job(shared: &ClusterShared, index: usize) -> Next {
    let mut state = lock(&shared.state);
    if state.shards[index].up {
        if let Some(job) = state.shards[index].pop() {
            state.shards[index].in_flight = true;
            state.in_flight_total += 1;
            return Next::Job(job);
        }
    }
    if state.draining {
        return Next::Exit;
    }
    let (_guard, _timed_out) =
        shared.work_cv.wait_timeout(state, TICK).unwrap_or_else(PoisonError::into_inner);
    Next::Idle
}

/// Dispatches one job to the shard and concludes its ticket: the heart
/// of the failover and accounting story.
fn run_one(
    shared: &Arc<ClusterShared>,
    index: usize,
    job: ClusterJob,
    events: &mut Option<Receiver<ReadEvent>>,
    rng: &mut SplitMix64,
) {
    let mut guard = InFlight { shared, index, ticket: job.ticket.clone() };

    // Shed at dispatch: a lapsed deadline means nobody is waiting.
    if let (Some(ticket), Some(deadline)) = (&job.ticket, job.deadline) {
        let queued_for = job.enqueued_at.elapsed();
        if queued_for >= deadline {
            if ticket.complete(Err(PipelineError::DeadlineShed { queued_for })) {
                lock(&shared.counters).shed_deadline += 1;
                lock(&shared.state).shards[index].counters.shed_deadline += 1;
            }
            return;
        }
    }

    // Snapshot the tombstones riding this frame, and whether the job's
    // own key is already covered by the quarantine (delivered earlier
    // or in this very frame) — the reply-time race check needs it.
    let (sent_tombstones, covered) = {
        let state = lock(&shared.state);
        let slot = &state.shards[index];
        (slot.pending_tombstones.clone(), state.quarantined.contains(&job.key))
    };
    let request = ShardRequest::Job(ShardJob {
        context: shared.context,
        work: job.work,
        deadline_ms: job
            .deadline
            .map(|d| d.saturating_sub(job.enqueued_at.elapsed()).as_millis().max(1) as u64),
        budget: shared
            .config
            .budget
            .map(|b| WireBudget { max_events: b.max_events, max_cycles: b.max_cycles }),
        quarantine: sent_tombstones.clone(),
    });
    let payload = match serde_json::to_string(&request) {
        Ok(payload) => payload,
        Err(err) => {
            conclude(
                shared,
                index,
                &job,
                Err(PipelineError::WorkerProtocol {
                    detail: format!("job frame serialization failed: {err}"),
                }),
                false,
            );
            return;
        }
    };

    let pid = lock(&shared.state).shards[index].pid;
    let sent = {
        let mut worker = lock(&shared.workers[index]);
        match worker.as_mut() {
            Some(process) => process
                .stdin
                .send(FrameKind::Job, payload.as_bytes())
                .map_err(|err| format!("job frame write failed: {err}")),
            None => Err("no live shard process".to_string()),
        }
    };
    if let Err(detail) = sent {
        // The shard died between jobs; classify from its exit status.
        let status = shared.kill_process(index);
        let err = classify_exit(status, &detail);
        handle_worker_death(shared, index, events, rng, &err);
        fail_over(shared, index, job, &mut guard, err);
        return;
    }

    match await_reply(shared, index, events, pid) {
        ReplyEnd::Reply(reply) => {
            // The shard acknowledged the tombstones riding this frame.
            if !sent_tombstones.is_empty() {
                let mut state = lock(&shared.state);
                state.shards[index].pending_tombstones.retain(|key| !sent_tombstones.contains(key));
            }
            match reply.outcome {
                ShardResult::Ok { result } => {
                    if result.fingerprint != job.key {
                        conclude(
                            shared,
                            index,
                            &job,
                            Err(PipelineError::WorkerProtocol {
                                detail: format!(
                                    "result fingerprint {:#018x} does not match the job's \
                                     {:#018x}",
                                    result.fingerprint, job.key
                                ),
                            }),
                            false,
                        );
                        return;
                    }
                    // Quarantine-during-flight race: if the key was
                    // tombstoned after dispatch and the shard did not
                    // have the tombstone, its answer may be stale state
                    // — recompute instead of serving it.
                    let (raced, draining) = {
                        let state = lock(&shared.state);
                        (!covered && state.quarantined.contains(&job.key), state.draining)
                    };
                    if raced {
                        if draining {
                            conclude(
                                shared,
                                index,
                                &job,
                                Err(PipelineError::ServiceStopped),
                                false,
                            );
                        } else {
                            requeue(shared, index, job, &mut guard);
                        }
                        return;
                    }
                    conclude(shared, index, &job, Ok(Arc::new(*result)), reply.served_cached);
                }
                ShardResult::Err { failure } => {
                    conclude(
                        shared,
                        index,
                        &job,
                        Err(PipelineError::WorkerReported {
                            message: failure.message,
                            transient: failure.transient,
                        }),
                        false,
                    );
                }
                ShardResult::Control => {
                    if job.ticket.is_none() {
                        // A quarantine nudge acknowledged; the shard is
                        // healthy.
                        let mut state = lock(&shared.state);
                        state.shards[index].consecutive_failures = 0;
                    } else {
                        conclude(
                            shared,
                            index,
                            &job,
                            Err(PipelineError::WorkerProtocol {
                                detail: "shard answered a work job with a control ack".to_string(),
                            }),
                            false,
                        );
                    }
                }
            }
        }
        ReplyEnd::Fatal(err) => {
            handle_worker_death(shared, index, events, rng, &err);
            fail_over(shared, index, job, &mut guard, err);
        }
        ReplyEnd::Preempted => {
            // Drain kill: mark the shard down without a backoff penalty
            // — the cluster is stopping, not sick.
            *events = None;
            let mut state = lock(&shared.state);
            if state.shards[index].up {
                state.generation += 1;
            }
            let slot = &mut state.shards[index];
            slot.up = false;
            slot.pid = None;
            slot.counters.kills += 1;
            drop(state);
            lock(&shared.counters).kills += 1;
            if let Some(ticket) = &job.ticket {
                if ticket
                    .complete(Err(PipelineError::Runtime(SimError::preempted_at("cluster shard"))))
                {
                    lock(&shared.counters).failed += 1;
                    lock(&shared.state).shards[index].counters.failed += 1;
                }
            }
        }
    }
}

/// Records a terminal state for a dispatched job and advances the
/// matching counters exactly once (the ticket's idempotent `complete`
/// is the dedup point).
fn conclude(
    shared: &ClusterShared,
    index: usize,
    job: &ClusterJob,
    outcome: Result<Arc<PipelineResult>, PipelineError>,
    served_cached: bool,
) {
    let ok = outcome.is_ok();
    // A successful exchange is the shard's bill of health either way:
    // a reported failure still means the process served its frame.
    {
        let mut state = lock(&shared.state);
        state.shards[index].consecutive_failures = 0;
    }
    let Some(ticket) = &job.ticket else { return };
    if !ticket.complete(outcome) {
        return;
    }
    let mut counters = lock(&shared.counters);
    if ok {
        counters.completed_ok += 1;
        if served_cached {
            counters.cache_hits += 1;
        }
    } else {
        counters.failed += 1;
    }
    drop(counters);
    let mut state = lock(&shared.state);
    let slot = &mut state.shards[index];
    if ok {
        slot.counters.completed_ok += 1;
        if served_cached {
            slot.counters.cache_hits += 1;
        }
    } else {
        slot.counters.failed += 1;
    }
}

/// Puts a job back on its own shard's queue (quarantine-race recompute).
fn requeue(shared: &ClusterShared, index: usize, job: ClusterJob, guard: &mut InFlight<'_>) {
    guard.ticket = None; // the ticket rides with the job, not the guard
    let mut state = lock(&shared.state);
    state.shards[index].queues[job.priority.index()].push_back(job);
    drop(state);
    shared.work_cv.notify_all();
}

/// Routes a job that lost its shard: to the ring successor while its
/// failover budget lasts, to a terminal error once it is spent, and to
/// a drain flush when the cluster is stopping.
fn fail_over(
    shared: &ClusterShared,
    index: usize,
    mut job: ClusterJob,
    guard: &mut InFlight<'_>,
    err: PipelineError,
) {
    let Some(ticket) = &job.ticket else { return }; // control pings die with their shard
    job.failovers += 1;
    let draining = lock(&shared.state).draining;
    if draining {
        if ticket.complete(Err(PipelineError::ServiceStopped)) {
            lock(&shared.counters).drain_flushed += 1;
        }
        return;
    }
    if job.failovers > shared.config.max_failovers {
        if ticket.complete(Err(err)) {
            lock(&shared.counters).failed += 1;
            lock(&shared.state).shards[index].counters.failed += 1;
        }
        return;
    }
    guard.ticket = None; // the ticket rides with the job
    let mut state = lock(&shared.state);
    let target = pick(&shared.ring, &state.shards, job.key, Some(index));
    state.shards[target].queues[job.priority.index()].push_back(job);
    drop(state);
    lock(&shared.counters).failovers += 1;
    shared.work_cv.notify_all();
}

/// Books a shard process death: tears down the handle, opens the
/// breaker arithmetic, schedules the respawn backoff, and fails queued
/// work over to live peers (or flushes it when draining).
fn handle_worker_death(
    shared: &ClusterShared,
    index: usize,
    events: &mut Option<Receiver<ReadEvent>>,
    rng: &mut SplitMix64,
    cause: &PipelineError,
) {
    if let Some(mut process) = shared.take_process(index) {
        process.kill_and_reap();
    }
    *events = None;
    let mut moved = 0u64;
    let mut flushed = Vec::new();
    {
        let mut state = lock(&shared.state);
        if state.shards[index].up {
            state.generation += 1;
        }
        let slot = &mut state.shards[index];
        slot.up = false;
        slot.pid = None;
        slot.counters.kills += 1;
        slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
        let failures = slot.consecutive_failures;
        slot.backoff_until = Some(Instant::now() + backoff_for(failures, &shared.config, rng));
        let mut drained = Vec::new();
        for queue in &mut state.shards[index].queues {
            drained.extend(queue.drain(..));
        }
        let draining = state.draining;
        for job in drained {
            if job.ticket.is_none() {
                continue; // control pings die with their shard
            }
            if draining {
                flushed.push(job);
                continue;
            }
            let target = pick(&shared.ring, &state.shards, job.key, Some(index));
            if target != index {
                moved += 1;
            }
            state.shards[target].queues[job.priority.index()].push_back(job);
        }
    }
    eprintln!("[cluster] shard {index} down: {cause}");
    let mut flushed_count = 0u64;
    for job in flushed {
        if let Some(ticket) = job.ticket {
            if ticket.complete(Err(PipelineError::ServiceStopped)) {
                flushed_count += 1;
            }
        }
    }
    let mut counters = lock(&shared.counters);
    counters.kills += 1;
    counters.failovers += moved;
    counters.drain_flushed += flushed_count;
    drop(counters);
    shared.work_cv.notify_all();
}

/// The parent-side monitor for one dispatched frame: heartbeat silence,
/// wall-clock, and RSS kills on one side; reply frames on the other.
/// The process handle stays in its shared slot so `kill_shard` can hit
/// it mid-exchange — exactly the chaos case this tier exists for.
fn await_reply(
    shared: &ClusterShared,
    index: usize,
    events: &mut Option<Receiver<ReadEvent>>,
    pid: Option<u32>,
) -> ReplyEnd {
    let Some(receiver) = events else {
        return ReplyEnd::Fatal(PipelineError::WorkerProtocol {
            detail: "no reader channel for a dispatched job".to_string(),
        });
    };
    let started = Instant::now();
    let wall_deadline = started + shared.config.sandbox.wall_clock_limit;
    let mut last_beat = started;
    let mut heartbeats = 0u64;
    loop {
        if shared.drain_token.is_cancelled() {
            shared.kill_process(index);
            return ReplyEnd::Preempted;
        }
        let now = Instant::now();
        if now >= wall_deadline
            || now.duration_since(last_beat) >= shared.config.sandbox.heartbeat_timeout
        {
            shared.kill_process(index);
            return ReplyEnd::Fatal(PipelineError::WorkerHung {
                waited: now - started,
                heartbeats,
            });
        }
        if let (Some(limit), Some(pid)) = (shared.config.sandbox.rss_limit_bytes, pid) {
            if let Some(rss) = rss_bytes(pid) {
                if rss > limit {
                    shared.kill_process(index);
                    return ReplyEnd::Fatal(PipelineError::WorkerOverMemory {
                        rss_bytes: rss,
                        budget_bytes: limit,
                    });
                }
            }
        }
        match receiver.recv_timeout(shared.config.sandbox.poll_interval) {
            Ok(ReadEvent::Frame(frame)) => match frame.kind {
                FrameKind::Heartbeat => {
                    heartbeats += 1;
                    last_beat = Instant::now();
                }
                FrameKind::Outcome => match parse_reply(&frame.payload) {
                    Ok(reply) => return ReplyEnd::Reply(reply),
                    Err(err) => {
                        shared.kill_process(index);
                        return ReplyEnd::Fatal(err);
                    }
                },
                FrameKind::Job => {
                    shared.kill_process(index);
                    return ReplyEnd::Fatal(PipelineError::WorkerProtocol {
                        detail: "shard sent a job frame to its parent".to_string(),
                    });
                }
            },
            Ok(ReadEvent::Malformed(detail)) => {
                let status = shared.reap_process(index);
                return ReplyEnd::Fatal(match classify_exit(status, &detail) {
                    crashed @ PipelineError::WorkerCrashed { .. } => crashed,
                    _ => PipelineError::WorkerProtocol { detail },
                });
            }
            Ok(ReadEvent::Eof) => {
                let status = shared.reap_process(index);
                return ReplyEnd::Fatal(classify_exit(status, "stream ended before a reply frame"));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                let status = shared.kill_process(index);
                return ReplyEnd::Fatal(classify_exit(status, "reader thread lost the stream"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Child side (the shard worker)
// ---------------------------------------------------------------------

/// A shard's resident serving state, built from its hello: the
/// pipeline (with its memory cache and optional store) survives across
/// jobs, which is what makes a shard warm at all.
struct ResidentPipeline {
    context: u64,
    pipeline: AnalysisPipeline,
    recovered: u64,
}

/// The cluster shard worker loop: read one [`ShardHello`] and then
/// [`ShardJob`] frames from stdin, serve them on a resident
/// [`AnalysisPipeline`] (memory cache, durable store, quarantine
/// tombstones and all), write [`ShardReply`] frames (and heartbeats,
/// from a dedicated thread) to stdout. Exits 0 on clean EOF, 3 on a
/// malformed input stream — which includes a job before the hello and a
/// job for another context. Never returns.
///
/// Reached through [`run_worker_if_requested`](crate::run_worker_if_requested)
/// when [`CLUSTER_SHARD_ENV`] is set — the same re-exec convention as
/// the sandbox tier's [`worker_main`](crate::worker_main).
pub fn shard_worker_main() -> ! {
    let stdout: Arc<Mutex<std::io::Stdout>> = Arc::new(Mutex::new(std::io::stdout()));
    let mut stdin = std::io::stdin().lock();
    let mut resident: Option<ResidentPipeline> = None;
    loop {
        let frame = match read_frame(&mut stdin) {
            Ok(Some(frame)) => frame,
            Ok(None) => std::process::exit(0),
            Err(detail) => {
                eprintln!("[cluster shard] malformed input: {detail}");
                std::process::exit(3);
            }
        };
        if frame.kind != FrameKind::Job {
            eprintln!("[cluster shard] unexpected frame kind (want job)");
            std::process::exit(3);
        }
        let request: ShardRequest = match std::str::from_utf8(&frame.payload)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok())
        {
            Some(request) => request,
            None => {
                eprintln!("[cluster shard] job frame did not parse");
                std::process::exit(3);
            }
        };
        let fault = match &request {
            ShardRequest::Hello(hello) => {
                ensure_heartbeats(&stdout, Duration::from_millis(hello.heartbeat_ms.max(1)));
                None
            }
            ShardRequest::Job(job) => job.work.as_ref().and_then(WorkSpec::protocol_fault),
        };
        let reply = match serve_shard_request(&mut resident, request) {
            Ok(reply) => reply,
            Err(detail) => {
                eprintln!("[cluster shard] malformed input: {detail}");
                std::process::exit(3);
            }
        };
        let payload = match serde_json::to_string(&reply) {
            Ok(payload) => payload,
            Err(err) => {
                eprintln!("[cluster shard] reply serialization failed: {err}");
                std::process::exit(3);
            }
        };
        let mut out = lock(&stdout);
        // Hostile protocol faults are expressed through the transport
        // fault vocabulary (tear / garbage), byte-identical to the
        // historical hand-rolled corruption.
        match fault.and_then(|mode| {
            protocol_fault_bytes(
                mode,
                FrameKind::Outcome,
                payload.as_bytes(),
                b"XXXXthis is definitely not a shard frame",
            )
        }) {
            Some(bytes) => {
                let _ = out.write_all(&bytes);
                let _ = out.flush();
                std::process::exit(0);
            }
            None => {
                if write_frame(&mut *out, FrameKind::Outcome, payload.as_bytes()).is_err() {
                    // Parent is gone; nothing left to serve.
                    std::process::exit(0);
                }
            }
        }
    }
}

/// Applies one input frame to the shard's state. A hello builds the
/// resident pipeline; a job is served on it. `Err` is a malformed
/// stream — a second hello, a job before the hello, or a job for a
/// context other than the resident one — which the shard answers by
/// exiting, never by serving.
fn serve_shard_request(
    resident: &mut Option<ResidentPipeline>,
    request: ShardRequest,
) -> Result<ShardReply, &'static str> {
    match (request, resident.as_mut()) {
        (ShardRequest::Hello(hello), None) => Ok(match open_resident(hello) {
            Ok(built) => {
                let recovered = built.recovered;
                *resident = Some(built);
                ShardReply {
                    outcome: ShardResult::Control,
                    served_cached: false,
                    store_recovered: recovered,
                }
            }
            Err(failure) => ShardReply {
                outcome: ShardResult::Err { failure },
                served_cached: false,
                store_recovered: 0,
            },
        }),
        (ShardRequest::Hello(_), Some(_)) => Err("a second hello"),
        (ShardRequest::Job(_), None) => Err("a job frame before the hello"),
        (ShardRequest::Job(job), Some(resident)) if job.context == resident.context => {
            Ok(serve_shard_job(resident, job))
        }
        (ShardRequest::Job(_), Some(_)) => Err("a job frame for a foreign context"),
    }
}

/// Builds the resident pipeline a hello describes.
fn open_resident(hello: ShardHello) -> Result<ResidentPipeline, WireFailure> {
    let pipeline = AnalysisPipeline::try_new(hello.chip.clone()).map_err(|err| WireFailure {
        message: PipelineError::Chip(err).to_string(),
        transient: false,
    })?;
    let pipeline = pipeline.with_thresholds(hello.thresholds);
    let pipeline = match &hello.store_path {
        // A store the shard cannot open degrades to memory-only
        // serving, mirroring the resident service's policy.
        Some(path) => match pipeline.clone().with_store(path) {
            Ok(with_store) => with_store,
            Err(err) => {
                eprintln!(
                    "[cluster shard] warning: store at {path} not attached ({err}); \
                     serving memory-only"
                );
                pipeline
            }
        },
        None => pipeline,
    };
    let pipeline = match hello.buggy {
        Some(bug) => pipeline.with_buggy_engine(bug),
        None => pipeline,
    };
    let recovered = pipeline.store_stats().map_or(0, |stats| stats.recovered);
    for key in &hello.quarantine {
        pipeline.quarantine_key(*key);
    }
    Ok(ResidentPipeline {
        context: crate::context_fingerprint(&hello.chip, &hello.thresholds),
        pipeline,
        recovered,
    })
}

/// Serves one [`ShardJob`] on the resident pipeline.
fn serve_shard_job(resident: &mut ResidentPipeline, job: ShardJob) -> ShardReply {
    for key in &job.quarantine {
        resident.pipeline.quarantine_key(*key);
    }
    let Some(work) = job.work else {
        return ShardReply {
            outcome: ShardResult::Control,
            served_cached: false,
            store_recovered: resident.recovered,
        };
    };
    let mut policy = RunPolicy::default();
    if let Some(ms) = job.deadline_ms {
        policy = policy.with_deadline(Duration::from_millis(ms));
    }
    if let Some(budget) = job.budget {
        policy = policy.with_budget(SimBudget {
            max_events: budget.max_events,
            max_cycles: budget.max_cycles,
        });
    }
    // Warm means memory *or* disk: a rewarmed shard answers repeat
    // traffic from its store, which counts as a disk hit, not a memory
    // hit.
    let hits_before = resident.pipeline.cache_stats().hits;
    let disk_before = resident.pipeline.store_stats().map_or(0, |stats| stats.hits);
    let op = work.instantiate();
    let outcome = resident.pipeline.run_supervised(op.as_ref(), &policy, None);
    let served_cached = resident.pipeline.cache_stats().hits > hits_before
        || resident.pipeline.store_stats().map_or(0, |stats| stats.hits) > disk_before;
    match outcome {
        Ok(result) => ShardReply {
            outcome: ShardResult::Ok { result: Box::new((*result).clone()) },
            served_cached,
            store_recovered: resident.recovered,
        },
        Err(err) => ShardReply {
            outcome: ShardResult::Err {
                failure: WireFailure { message: err.to_string(), transient: err.is_transient() },
            },
            served_cached,
            store_recovered: resident.recovered,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_ops::OpSpec;

    #[test]
    fn ring_construction_is_deterministic() {
        let a = HashRing::new(4, DEFAULT_VIRTUAL_NODES);
        let b = HashRing::new(4, DEFAULT_VIRTUAL_NODES);
        assert_eq!(a, b, "two independently built rings must agree on every key");
        assert_eq!(a.shards(), 4);
        assert_eq!(a.virtual_nodes(), DEFAULT_VIRTUAL_NODES);
        assert_eq!(a.points.len(), 4 * DEFAULT_VIRTUAL_NODES);
    }

    #[test]
    fn removing_a_shard_remaps_only_its_keys() {
        let ring = HashRing::new(5, DEFAULT_VIRTUAL_NODES);
        let mut rng = SplitMix64::new(0xDECAF);
        let mut remapped = 0usize;
        let dead = 2usize;
        let samples = 10_000;
        for _ in 0..samples {
            let key = rng.next_u64();
            let owner = ring.owner(key);
            let rerouted = ring.route(key, |shard| shard != dead).expect("peers are alive");
            if owner == dead {
                remapped += 1;
                assert_ne!(rerouted, dead, "a dead shard must never be routed to");
            } else {
                assert_eq!(rerouted, owner, "keys of live shards must not move");
            }
        }
        // The dead shard owned ≈ 1/5 of the keys; only those moved.
        assert!(remapped > 0, "the sample must exercise the dead shard");
        assert!(
            remapped <= samples * 2 / 5,
            "remapped {remapped} of {samples} keys — more than 2/N"
        );
    }

    #[test]
    fn ring_route_rejecting_everything_is_none() {
        let ring = HashRing::new(3, 8);
        assert_eq!(ring.route(42, |_| false), None);
        assert!(ring.route(42, |shard| shard == 1) == Some(1));
    }

    fn hello() -> ShardHello {
        ShardHello {
            chip: ChipSpec::inference(),
            thresholds: Thresholds::default(),
            heartbeat_ms: 20,
            store_path: None,
            quarantine: vec![1, 2, 3],
            buggy: None,
        }
    }

    fn job(context: u64, spec: OpSpec) -> ShardJob {
        ShardJob {
            context,
            work: Some(WorkSpec::op(spec)),
            deadline_ms: Some(250),
            budget: Some(WireBudget { max_events: 10_000, max_cycles: 1e9 }),
            quarantine: vec![4, 5],
        }
    }

    #[test]
    fn shard_frames_round_trip() {
        let with_chaos = ShardHello {
            store_path: Some("shard-0.astr".to_string()),
            buggy: Some(BuggyEngine::new(7)),
            ..hello()
        };
        let control =
            ShardJob { work: None, deadline_ms: None, budget: None, ..job(9, OpSpec::gelu(64)) };
        for request in [
            ShardRequest::Hello(hello()),
            ShardRequest::Hello(with_chaos),
            ShardRequest::Job(job(u64::MAX, OpSpec::matmul(16, 16, 16))),
            ShardRequest::Job(control),
        ] {
            let json = serde_json::to_string(&request).unwrap();
            let back: ShardRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(request, back);
        }

        let reply = ShardReply {
            outcome: ShardResult::Err {
                failure: WireFailure { message: "boom".to_string(), transient: true },
            },
            served_cached: true,
            store_recovered: 7,
        };
        let json = serde_json::to_string(&reply).unwrap();
        let back: ShardReply = serde_json::from_str(&json).unwrap();
        assert_eq!(reply, back);
    }

    #[test]
    fn a_job_frame_carries_no_chip() {
        let hello = ShardRequest::Hello(hello());
        let job = ShardRequest::Job(job(u64::MAX, OpSpec::add_relu(1 << 14)));
        let job_bytes = serde_json::to_string(&job).unwrap().len();
        assert!(job_bytes < 1024, "a job frame payload is {job_bytes} bytes");
        let hello_bytes = serde_json::to_string(&hello).unwrap().len();
        assert!(hello_bytes > job_bytes, "the chip rides the hello ({hello_bytes} bytes)");
    }

    #[test]
    fn only_a_job_on_the_hello_context_is_served() {
        let context = crate::context_fingerprint(&ChipSpec::inference(), &Thresholds::default());
        let work = || ShardRequest::Job(job(context, OpSpec::add_relu(1 << 10)));
        let foreign = || ShardRequest::Job(job(context ^ 1, OpSpec::add_relu(1 << 10)));

        let mut resident = None;
        assert!(serve_shard_request(&mut resident, work()).is_err(), "a job before the hello");
        assert!(resident.is_none());

        let ack = serve_shard_request(&mut resident, ShardRequest::Hello(hello())).unwrap();
        assert_eq!(ack.outcome, ShardResult::Control);
        assert_eq!(resident.as_ref().map(|r| r.context), Some(context));
        assert!(serve_shard_request(&mut resident, foreign()).is_err(), "a foreign context");
        assert!(
            serve_shard_request(&mut resident, ShardRequest::Hello(hello())).is_err(),
            "a second hello"
        );

        let served = serve_shard_request(&mut resident, work()).unwrap();
        assert!(matches!(served.outcome, ShardResult::Ok { .. }), "{served:?}");
        assert!(serve_shard_request(&mut resident, foreign()).is_err(), "a foreign context");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let config = ClusterConfig {
            respawn_backoff: Duration::from_millis(10),
            respawn_backoff_max: Duration::from_millis(200),
            ..ClusterConfig::default()
        };
        let mut rng = SplitMix64::new(1);
        let first = backoff_for(1, &config, &mut rng);
        let mut rng = SplitMix64::new(1);
        let third = backoff_for(3, &config, &mut rng);
        let mut rng = SplitMix64::new(1);
        let huge = backoff_for(30, &config, &mut rng);
        assert!(first < third, "{first:?} vs {third:?}");
        assert!(third <= Duration::from_millis(60));
        assert!(huge <= config.respawn_backoff_max, "backoff must cap at the configured max");
        // Same seed, same attempt → same jittered delay (replayable).
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        assert_eq!(backoff_for(2, &config, &mut a), backoff_for(2, &config, &mut b));
    }

    #[test]
    fn cluster_counters_terminal_states_sum() {
        let counters = ClusterCounters {
            accepted: 10,
            completed_ok: 4,
            failed: 3,
            shed_deadline: 2,
            drain_flushed: 1,
            ..ClusterCounters::default()
        };
        assert_eq!(counters.terminal_states(), counters.accepted);
    }

    #[test]
    fn default_config_is_sane() {
        let config = ClusterConfig::default();
        assert!(config.shards >= 1);
        assert_eq!(config.virtual_nodes, DEFAULT_VIRTUAL_NODES);
        assert!(config.max_failovers >= 1);
        assert!(config.respawn_backoff < config.respawn_backoff_max);
    }
}
