//! The fault-tolerant sharded cluster tier: N supervised shard
//! processes behind one consistent-hash router.
//!
//! The [`AnalysisService`](crate::AnalysisService) hardened a *single*
//! process; this module scales the same guarantees horizontally. A
//! [`ClusterService`] owns `N` long-lived shard processes — the child
//! host the sandbox pool also runs (`worker.rs`), so both tiers share
//! one hello/job protocol, one monitor and one exit taxonomy — and
//! routes every request by consistent hash of its pipeline cache
//! fingerprint. This module keeps only the routing:
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
//! * **Hello, then jobs.** Each spawn's hello carries the shard's store
//!   path, the full quarantine set and the chaos-only buggy engine on
//!   top of the chip; every later job frame carries only the context
//!   fingerprint, the work, its deadline and budget, and pending
//!   tombstones ([`WIRE_VERSION`](crate::WIRE_VERSION) 3).
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
use crate::sandbox::{SandboxConfig, WorkSpec};
use crate::service::{Priority, Ticket, TicketShared};
use crate::transport::{FrameKind, FrameTransport};
use crate::worker::{
    await_reply, classify_exit, encode, idle_check, reply_verdict, start_worker, worker_program,
    ReadEvent, Reap, ReplyVerdict, ShardHello, ShardJob, ShardRequest, WorkerProcess,
};
use crate::{lock, PipelineError, PipelineResult};
use ascend_arch::ChipSpec;
use ascend_faults::{BuggyEngine, FaultyTransport, SplitMix64};
use ascend_roofline::Thresholds;
use ascend_sim::{CancelToken, SimBudget, SimError};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::process::ExitStatus;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default virtual nodes per shard on the [`HashRing`]. 64 points keep
/// per-shard keyspace shares within a few percent of `1/N`, so removing
/// one of `N` shards remaps close to `1/N` of the keys.
pub const DEFAULT_VIRTUAL_NODES: usize = 64;

/// Dispatcher tick: the cadence at which an idle dispatcher re-runs its
/// maintenance pass (idle-death detection, respawn-backoff checks).
const TICK: Duration = Duration::from_millis(10);

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
    /// Containment limits shared with the sandbox tier: worker binary,
    /// heartbeat interval/timeout, wall-clock limit, RSS budget, monitor
    /// poll cadence and, in chaos runs, the wire-fault plan (shard `i`
    /// is shard `i` of the plan; each scheduled event fires at most once
    /// per shard per direction, surviving respawns). `recycle_after` is
    /// not used: shards are long-lived residents, not pooled workers.
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

    fn drain_queues(&mut self) -> Vec<ClusterJob> {
        self.queues.iter_mut().flat_map(|queue| queue.drain(..)).collect()
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

    /// Marks shard `index` down, bumping the ring generation if it was up.
    fn mark_down(&mut self, index: usize) -> &mut ShardSlot {
        self.generation += u64::from(self.shards[index].up);
        let slot = &mut self.shards[index];
        slot.up = false;
        slot.pid = None;
        slot
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
    workers: Vec<Mutex<Option<WorkerProcess>>>,
    /// One wire-fault harness per shard, shared across that shard's
    /// respawns so each scheduled fault fires at most once for the whole
    /// run. `None` everywhere outside chaos runs.
    faulty: Vec<Option<FaultyTransport>>,
    /// Parent token of every in-flight attempt; cancelled at drain.
    drain_token: CancelToken,
}

impl ClusterShared {
    /// Kills and reaps shard `index`'s process if one is installed,
    /// returning its exit status.
    fn kill_process(&self, index: usize) -> Option<ExitStatus> {
        (&self.workers[index]).kill_and_reap()
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
        let program = worker_program(&config.sandbox)?;
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
                    config
                        .sandbox
                        .wire_faults
                        .as_ref()
                        .map(|plan| FaultyTransport::new(plan, index))
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
            state.shards.iter_mut().flat_map(ShardSlot::drain_queues).collect()
        };
        self.shared.work_cv.notify_all();
        let flushed_count = flush(&self.shared, flushed);
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
        for index in 0..state.shards.len() {
            state.mark_down(index);
        }
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
                shared.kill_process(index);
                drop(events);
                let leftovers = lock(&shared.state).mark_down(index).drain_queues();
                flush(shared, leftovers);
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
    let died =
        events.as_ref().and_then(|receiver| idle_check(receiver, &mut &shared.workers[index]));
    if let Some(cause) = died {
        handle_worker_death(shared, index, events, rng, &cause);
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
    let tombstones: Vec<u64> = lock(&shared.state).quarantined.iter().copied().collect();
    let hello = ShardHello {
        store_path: shared.shard_store_path(index).map(|p| p.display().to_string()),
        quarantine: tombstones.clone(),
        buggy: shared.config.buggy,
        ..ShardHello::new(shared.chip.clone(), shared.config.thresholds, &shared.config.sandbox)
    };
    let started = start_worker(
        &shared.program,
        shared.faulty[index].as_ref(),
        &shared.config.sandbox,
        hello,
        Some(&shared.drain_token),
    );
    let (process, receiver, recovered) = match started {
        Ok(parts) => parts,
        Err(err) => {
            eprintln!("[cluster] shard {index} bring-up failed: {err}");
            record_respawn_failure(shared, index, rng);
            return;
        }
    };
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
    slot.counters.store_recovered = recovered;
    // The hello carried the full quarantine snapshot; only tombstones
    // added after the snapshot stay pending.
    slot.pending_tombstones.retain(|key| !tombstones.contains(key));
    drop(state);
    lock(&shared.counters).respawns += 1;
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
        budget: shared.config.budget.map(Into::into),
        quarantine: sent_tombstones.clone(),
    });
    let payload = match encode(&request) {
        Ok(payload) => payload,
        Err(err) => {
            conclude(shared, index, &job, Err(err), false);
            return;
        }
    };

    let mut pid = 0;
    let sent = match lock(&shared.workers[index]).as_mut() {
        Some(process) => {
            pid = process.pid();
            process
                .stdin
                .send(FrameKind::Job, payload.as_bytes())
                .map_err(|err| format!("job frame write failed: {err}"))
        }
        None => Err("no live shard process".to_string()),
    };
    let replied = match (sent, events.as_ref()) {
        (Err(detail), _) => {
            // The shard died between jobs; classify from its exit status.
            Err(classify_exit(shared.kill_process(index), &detail))
        }
        (Ok(()), Some(receiver)) => {
            let slot = &mut &shared.workers[index];
            await_reply(&shared.config.sandbox, receiver, slot, pid, Some(&shared.drain_token))
        }
        (Ok(()), None) => Err(PipelineError::WorkerProtocol {
            detail: "no reader channel for a dispatched job".to_string(),
        }),
    };
    let reply = match replied {
        Ok(reply) => reply,
        Err(preempted @ PipelineError::Runtime(SimError::Cancelled { .. })) => {
            // Drain kill: mark the shard down without a backoff penalty
            // — the cluster is stopping, not sick.
            *events = None;
            lock(&shared.state).mark_down(index).counters.kills += 1;
            lock(&shared.counters).kills += 1;
            if let Some(ticket) = &job.ticket {
                if ticket.complete(Err(preempted)) {
                    lock(&shared.counters).failed += 1;
                    lock(&shared.state).shards[index].counters.failed += 1;
                }
            }
            return;
        }
        Err(err) => {
            handle_worker_death(shared, index, events, rng, &err);
            fail_over(shared, index, job, &mut guard, err);
            return;
        }
    };

    // The shard acknowledged the tombstones riding this frame.
    if !sent_tombstones.is_empty() {
        let mut state = lock(&shared.state);
        state.shards[index].pending_tombstones.retain(|key| !sent_tombstones.contains(key));
    }
    match reply_verdict(reply.outcome, job.key, job.ticket.is_some()) {
        ReplyVerdict::Serve(Some(result)) => {
            // Quarantine-during-flight race: if the key was tombstoned
            // after dispatch and the shard did not have the tombstone,
            // its answer may be stale state — recompute instead of
            // serving it.
            let (raced, draining) = {
                let state = lock(&shared.state);
                (!covered && state.quarantined.contains(&job.key), state.draining)
            };
            if raced {
                if draining {
                    conclude(shared, index, &job, Err(PipelineError::ServiceStopped), false);
                } else {
                    requeue(shared, index, job, &mut guard);
                }
                return;
            }
            conclude(shared, index, &job, Ok(Arc::new(*result)), reply.served_cached);
        }
        ReplyVerdict::Serve(None) => {
            // A quarantine nudge acknowledged; the shard is healthy.
            lock(&shared.state).shards[index].consecutive_failures = 0;
        }
        ReplyVerdict::Fail(err) => conclude(shared, index, &job, Err(err), false),
        ReplyVerdict::Retire(err) => {
            // The shard's stream no longer lines up with its jobs: retire
            // it like a dead one, and fail the job over.
            handle_worker_death(shared, index, events, rng, &err);
            fail_over(shared, index, job, &mut guard, err);
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
    shared.kill_process(index);
    *events = None;
    let mut moved = 0u64;
    let mut flushed = Vec::new();
    {
        let mut state = lock(&shared.state);
        let slot = state.mark_down(index);
        slot.counters.kills += 1;
        slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
        let failures = slot.consecutive_failures;
        slot.backoff_until = Some(Instant::now() + backoff_for(failures, &shared.config, rng));
        let drained = slot.drain_queues();
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
    flush(shared, flushed);
    let mut counters = lock(&shared.counters);
    counters.kills += 1;
    counters.failovers += moved;
    drop(counters);
    shared.work_cv.notify_all();
}

/// Completes the tickets of `jobs` with [`PipelineError::ServiceStopped`]
/// and books them as drain-flushed; control pings die silently.
fn flush(shared: &ClusterShared, jobs: Vec<ClusterJob>) -> u64 {
    let flushed = jobs
        .into_iter()
        .filter_map(|job| job.ticket)
        .filter(|ticket| ticket.complete(Err(PipelineError::ServiceStopped)))
        .count() as u64;
    if flushed > 0 {
        lock(&shared.counters).drain_flushed += flushed;
    }
    flushed
}

#[cfg(test)]
mod tests {
    use super::*;

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
