//! The discrete-event execution engine.
//!
//! # Hot-path layout
//!
//! One simulate call used to construct a `HashMap` flag table, six
//! `VecDeque` component queues, a `BinaryHeap` event queue, and a
//! fully-materialized record arena — and drop them all at the end. The
//! engine now keeps that mutable state in an [`EngineScratch`] arena
//! owned by a pool on the [`Simulator`]: a run checks a scratch out,
//! sizes it once from the kernel (index-addressed flag counter table,
//! per-component head-pointer queues), and returns it when done, so
//! batch and sweep items amortize setup instead of reconstructing it.
//! Records stream to a caller-chosen [`TraceSink`](crate::TraceSink)
//! instead of always materializing a trace.
//!
//! The event queue itself is gone: each component queue holds a short
//! in-flight FIFO (almost always one entry — more only when an
//! instruction ends at exactly another event's timestamp) and at most
//! one live wake, so "pop the heap" becomes a scan over six FIFO
//! fronts and six `wake_at` slots that reproduces the old heap's `Ord`
//! exactly (earliest time; at equal times completions before wakes, by
//! ascending instruction index). Completion events re-attempt only the
//! queues whose blocking state can have changed — the freed queue,
//! flag-blocked queues when a `set_flag` completed, region-blocked
//! queues on any completion, and queues whose last start ends exactly
//! now (the strict busy test frees them mid-timestamp) — which is
//! faithful because a given front's block cause never changes
//! (`wait_flag` fronts only block on flags, compute/transfer fronts
//! only on regions) and flags and regions change only at completions.
//! Per-instruction durations come from [`DurationTables`], a
//! direct-indexed copy of the chip's rate tables built once per
//! simulator instead of linearly scanned per start.
//!
//! The loop itself barely touches the [`Instruction`] enum: a prepare
//! pass flattens each instruction into a 16-byte [`InstrDesc`] (kind,
//! queue, flag, precomputed duration), so dispatching, starting, and
//! retiring are dense array walks — each instruction starts at most
//! once per run, so precomputing its duration moves work out of the
//! loop rather than duplicating it. Spatial-conflict checks are the one
//! place the loop still reads the enum, and they are frequent — on the
//! 243 distinct campaign kernels, 145 603 checks over 175 687 events —
//! so each descriptor also carries a written-buffer and a touched-buffer
//! mask, and a check compares those before it reads any region. The
//! regions sit inline in the instruction, so a check the masks let
//! through reads no heap unless an operand list spilled. The old engine
//! is preserved verbatim in [`reference`](crate::reference) and the
//! golden differential suite holds this one bit-identical to it.

use crate::cancel::CancelToken;
use crate::forensics::{
    instr_text, BlockCause, DeadlockReport, PendingSetter, QueueState, SetterLocation, WaitEdge,
};
use crate::sink::{TraceCollector, TraceSink};
use crate::trace::StallCause;
use crate::{InstrRecord, SimError, Trace};
use ascend_arch::{ArchError, Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_faults::FaultPlan;
use ascend_isa::{validate, Instruction, Kernel, Region};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Sentinel for "no instruction executing" in a per-queue exec slot.
const NO_INSTR: usize = usize::MAX;

/// How often (in processed events) the engine polls a cancellation
/// token's wall-clock deadline. The explicit cancellation *flag* is one
/// atomic load and is checked every event; the deadline reads the wall
/// clock, so it is only polled on the first event and every
/// `DEADLINE_POLL_EVENTS` thereafter. A lapsed deadline is therefore
/// observed within at most `DEADLINE_POLL_EVENTS` events — the bound the
/// service drain protocol's termination guarantee rests on.
pub const DEADLINE_POLL_EVENTS: u64 = 64;

/// Watchdog budgets bounding one simulation run.
///
/// The defaults are far beyond any legitimate kernel in this repository
/// (the largest operator sweeps finish in thousands of events and under a
/// billion cycles), so a tripped budget means a runaway run — typically a
/// fault-degraded chip crawling through transfers — rather than a slow
/// one. Tighten the budgets per simulator with
/// [`Simulator::with_budget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBudget {
    /// Maximum number of events the engine may process.
    pub max_events: u64,
    /// Maximum simulated cycle the engine may reach.
    pub max_cycles: f64,
}

impl Default for SimBudget {
    fn default() -> Self {
        SimBudget { max_events: 100_000_000, max_cycles: 1e15 }
    }
}

impl SimBudget {
    /// A budget that never trips (the pre-watchdog behavior).
    #[must_use]
    pub fn unlimited() -> Self {
        SimBudget { max_events: u64::MAX, max_cycles: f64::INFINITY }
    }
}

/// Summary of one engine run, returned by the `*_into` entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Completion cycle of the last instruction (the trace's
    /// `total_cycles`).
    pub total_cycles: f64,
    /// Events the event loop processed (completions and wakes) — the
    /// unit the watchdog budget and the throughput metrics count in.
    pub events: u64,
}

/// Flag ids below this bound live in the flat counter table; anything
/// larger (possible only through hand-written text kernels or
/// `FlagId::new`) falls back to a hash map. `KernelBuilder` allocates
/// flags densely from zero, so real kernels never touch the fallback.
const DENSE_FLAG_CAP: u32 = 1 << 16;

/// Counting-flag table: a flat `Vec<u64>` indexed by raw flag id, sized
/// once per run from the kernel's largest dense id, with a sparse
/// overflow map for pathological ids at or above [`DENSE_FLAG_CAP`].
#[derive(Debug, Default)]
struct FlagTable {
    dense: Vec<u64>,
    sparse: HashMap<u32, u64>,
}

impl FlagTable {
    /// Zeroes every counter and sizes the dense table for ids below
    /// `dense_len`.
    fn reset(&mut self, dense_len: u32) {
        self.sparse.clear();
        self.dense.clear();
        self.dense.resize(dense_len as usize, 0);
    }

    #[inline]
    fn increment(&mut self, raw: u32) {
        match self.dense.get_mut(raw as usize) {
            Some(count) => *count += 1,
            None => *self.sparse.entry(raw).or_default() += 1,
        }
    }

    /// Consumes one increment of `raw` when available; `false` means the
    /// flag is at zero and the waiter stays blocked.
    #[inline]
    fn try_consume(&mut self, raw: u32) -> bool {
        let count = match self.dense.get_mut(raw as usize) {
            Some(count) => count,
            None => self.sparse.entry(raw).or_default(),
        };
        if *count == 0 {
            false
        } else {
            *count -= 1;
            true
        }
    }
}

/// A per-component FIFO of `(instruction index, cycle)` pairs — used
/// both for dispatched-but-unstarted fronts (`pending`, cycle =
/// available-at) and for started-but-unfinished instructions
/// (`inflight`, cycle = end time).
///
/// Total pushes per run are bounded by the kernel length, so a plain
/// `Vec` with a consumed-head cursor beats a ring buffer: push is a
/// `Vec::push` (amortized into the retained capacity), pop is a cursor
/// bump, and `clear` rewinds both for the next run.
#[derive(Debug, Default)]
struct PendingQueue {
    items: Vec<(usize, f64)>,
    head: usize,
}

impl PendingQueue {
    fn clear(&mut self) {
        self.items.clear();
        self.head = 0;
    }

    #[inline]
    fn push_back(&mut self, entry: (usize, f64)) {
        self.items.push(entry);
    }

    #[inline]
    fn front(&self) -> Option<&(usize, f64)> {
        self.items.get(self.head)
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.head < self.items.len());
        self.head += 1;
    }

    fn len(&self) -> usize {
        self.items.len() - self.head
    }

    /// Live (unconsumed) entries, front first.
    #[inline]
    fn iter(&self) -> std::slice::Iter<'_, (usize, f64)> {
        self.items[self.head..].iter()
    }
}

/// Instruction class, mirrored out of the [`Instruction`] enum into the
/// flat descriptor table so the event loop matches on one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Kind {
    Compute,
    Transfer,
    SetFlag,
    WaitFlag,
    #[default]
    Barrier,
}

/// Sentinel duration for an instruction whose rate is missing from the
/// chip spec: unrepresentable by the real duration math (positive rates,
/// non-negative latencies), so the start path can branch to the cold
/// spec lookup — which reproduces the original error — on `is_nan()`.
const MISSING_RATE: f64 = f64::NAN;

/// One instruction, flattened: what the event loop needs to dispatch,
/// start, and retire it, packed into 16 bytes so the hot path walks a
/// dense array instead of re-matching the [`Instruction`] enum per
/// event. Durations are precomputed — each instruction starts at most
/// once per run, so this moves the rate lookup out of the loop rather
/// than duplicating it.
///
/// Conflict checks are not rare: every compute or transfer start asks
/// whether its regions collide with each in-flight instruction's (on the
/// 243 distinct campaign kernels, 145 603 checks over 175 687 events,
/// comparing 158 910 pairs). The descriptor therefore carries one bit
/// per [`Buffer`] the instruction writes and one per buffer it touches
/// (reads or writes); two instructions can only conflict if one writes
/// a buffer the other touches, so
/// [`has_region_conflict`](Run::has_region_conflict) compares these
/// masks first and reads the regions themselves only on a shared buffer
/// (39% of those pairs never get that far). `Buffer` has six variants, so each mask is one byte
/// and the descriptor stays 16 bytes. The region lists stay behind in
/// the `Instruction` (inline there, see [`ascend_isa::Regions`]):
/// flattening every region up front cost more in prepare-pass copying
/// than it saved (measured on the region-free synthetic mixes, which it
/// slowed ~40%).
#[derive(Debug, Clone, Copy, Default)]
struct InstrDesc {
    /// Latency in cycles, fault jitter folded in; [`MISSING_RATE`] when
    /// the spec lacks the rate (cold error path).
    duration: f64,
    /// Raw flag id for `SetFlag`/`WaitFlag`; 0 otherwise.
    flag: u32,
    kind: Kind,
    /// `Component` index; 0 (unused) for barriers.
    queue: u8,
    /// Bit `b` set: the instruction writes a region of `Buffer` `b`.
    writes: u8,
    /// Bit `b` set: the instruction reads or writes a region of `Buffer`
    /// `b`.
    touches: u8,
}

const _: () = assert!(std::mem::size_of::<InstrDesc>() == 16);
const _: () = assert!(Buffer::ALL.len() <= 8, "buffer masks are one byte");

impl InstrDesc {
    /// Whether the two instructions may conflict through memory: one
    /// writes a buffer the other touches. `false` means
    /// [`Instruction::conflicts_with`] is `false`; `true` means it must be
    /// asked.
    #[inline]
    fn may_conflict(self, other: InstrDesc) -> bool {
        (self.writes & other.touches) | (other.writes & self.touches) != 0
    }
}

/// One bit per buffer the regions live in.
fn buffer_mask(regions: &[Region]) -> u8 {
    regions.iter().fold(0, |mask, region| mask | 1 << region.buffer() as u8)
}

/// The per-run mutable state of the engine, reusable across runs.
///
/// Everything here is cleared (not reallocated) by [`prepare`] at the
/// start of a run, so the backing capacities — queue vectors, the flag
/// table, the descriptor and region arenas — survive from run to run.
/// Error paths may return a scratch dirty (a cancelled run leaves queued
/// entries behind); `prepare` tolerates that by clearing unconditionally.
///
/// [`prepare`]: EngineScratch::prepare
#[derive(Debug, Default)]
struct EngineScratch {
    /// Per-component FIFO of dispatched instructions.
    pending: [PendingQueue; 6],
    /// Overflow for each queue's in-flight FIFO: entries *behind* the
    /// head (which lives in the `Run`'s `head_index`/`head_end` arrays
    /// so the hot scans stay plain array loads). Non-empty only when a
    /// queue starts its next front while the previous instruction's
    /// completion event is still unprocessed — possible exactly when
    /// that instruction ends at another event's timestamp, because the
    /// busy test (`busy_until > now`, strict — same as the seed engine)
    /// frees the queue mid-timestamp. Per queue, entries stay ordered
    /// by start, which also orders them by end and by index.
    inflight_spill: [PendingQueue; 6],
    flags: FlagTable,
    /// Whether instruction `i` has started (its record was emitted).
    started: Vec<bool>,
    /// Flat per-instruction descriptors, rebuilt each run.
    descs: Vec<InstrDesc>,
}

impl EngineScratch {
    /// Resets the scratch for `kernel` and rebuilds its descriptor table.
    /// One pass, touching each [`Instruction`] exactly once (it also
    /// finds the largest dense flag id the flag table is sized by) —
    /// afterwards the event loop reads the flat table everywhere except
    /// spatial-conflict checks (and the sink, which still receives
    /// `&Instruction` references; `NullSink`/`TraceCollector` never
    /// dereference them).
    fn prepare(
        &mut self,
        kernel: &Kernel,
        chip: &ChipSpec,
        tables: &DurationTables,
        faults: Option<&FaultPlan>,
    ) {
        for queue in &mut self.pending {
            queue.clear();
        }
        for queue in &mut self.inflight_spill {
            queue.clear();
        }
        self.started.clear();
        self.started.resize(kernel.len(), false);
        self.descs.clear();
        let mut dense_flags = 0u32;
        for (index, instr) in kernel.instructions().iter().enumerate() {
            let mut desc = InstrDesc::default();
            match instr {
                Instruction::Compute(c) => {
                    desc.kind = Kind::Compute;
                    desc.queue = Component::from_unit(c.unit).index() as u8;
                    desc.writes = buffer_mask(&c.writes);
                    desc.touches = desc.writes | buffer_mask(&c.reads);
                    let peak = tables.peak[c.unit as usize][c.precision as usize];
                    desc.duration = if peak == 0.0 {
                        MISSING_RATE
                    } else {
                        chip.compute_issue_cycles + c.ops as f64 / peak
                    };
                }
                Instruction::Transfer(t) => {
                    desc.kind = Kind::Transfer;
                    desc.queue = t.path.component().index() as u8;
                    desc.writes = 1 << t.dst.buffer() as u8;
                    desc.touches = desc.writes | 1 << t.src.buffer() as u8;
                    let (bytes_per_cycle, latency_cycles, overhead_bytes) =
                        tables.transfer[t.path as usize];
                    desc.duration = if bytes_per_cycle == 0.0 {
                        MISSING_RATE
                    } else {
                        // Same expression as `TransferSpec::cycles`.
                        latency_cycles + (t.bytes() as f64 + overhead_bytes) / bytes_per_cycle
                    };
                }
                Instruction::SetFlag { queue, flag } => {
                    desc.kind = Kind::SetFlag;
                    desc.queue = queue.index() as u8;
                    desc.flag = flag.raw();
                    desc.duration = chip.flag_cycles;
                }
                Instruction::WaitFlag { queue, flag } => {
                    desc.kind = Kind::WaitFlag;
                    desc.queue = queue.index() as u8;
                    desc.flag = flag.raw();
                    desc.duration = chip.flag_cycles;
                }
                Instruction::Barrier => {
                    desc.kind = Kind::Barrier;
                }
            }
            // The old path applied the fault factor after the (fallible)
            // rate lookup; multiplying the NaN sentinel keeps it NaN, so
            // the error ordering is unchanged.
            if let Some(plan) = faults {
                desc.duration *= plan.latency_factor(index);
            }
            if matches!(desc.kind, Kind::SetFlag | Kind::WaitFlag) && desc.flag < DENSE_FLAG_CAP {
                dense_flags = dense_flags.max(desc.flag + 1);
            }
            self.descs.push(desc);
        }
        self.flags.reset(dense_flags);
    }
}

/// Direct-indexed copies of a [`ChipSpec`]'s rate tables, built once per
/// simulator (and once per faulted run for the derived chip) so the
/// event loop replaces linear table scans per instruction start with an
/// array load. A zero entry marks a pair/path absent from the spec;
/// `duration` then falls back to the spec lookup so the error carries
/// the same detail as before. Zero can't collide with a real rate:
/// every chip that reaches the engine passed [`ChipSpec::validate`],
/// which requires positive rates.
#[derive(Debug, Clone, Copy)]
struct DurationTables {
    /// Peak ops/cycle by `[unit as usize][precision as usize]`.
    peak: [[f64; 5]; 3],
    /// `(bytes_per_cycle, latency_cycles, overhead_bytes)` by path.
    transfer: [(f64, f64, f64); 20],
}

impl DurationTables {
    fn from_chip(chip: &ChipSpec) -> Self {
        let mut peak = [[0.0f64; 5]; 3];
        for unit in ComputeUnit::ALL {
            for precision in Precision::ALL {
                if let Ok(rate) = chip.peak_ops_per_cycle(unit, precision) {
                    peak[unit as usize][precision as usize] = rate;
                }
            }
        }
        let mut transfer = [(0.0f64, 0.0f64, 0.0f64); 20];
        for path in TransferPath::ALL {
            if let Ok(spec) = chip.transfer(path) {
                transfer[path as usize] =
                    (spec.bytes_per_cycle, spec.latency_cycles, spec.overhead_bytes);
            }
        }
        DurationTables { peak, transfer }
    }
}

/// Upper bound on idle scratches retained by a pool; beyond this,
/// returned scratches are dropped. Six-queue kernels never need more
/// concurrent scratches than worker threads, and worker counts in this
/// repository are single digits.
const SCRATCH_POOL_CAP: usize = 32;

#[derive(Debug, Default)]
struct ScratchPool {
    // Boxed on purpose: a scratch is several hundred bytes of inline
    // arrays, and the box keeps check-out/return a pointer move instead
    // of a memcpy through the mutex.
    #[allow(clippy::vec_box)]
    idle: Mutex<Vec<Box<EngineScratch>>>,
}

impl ScratchPool {
    fn acquire(&self) -> Box<EngineScratch> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default()
    }

    fn release(&self, scratch: Box<EngineScratch>) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() < SCRATCH_POOL_CAP {
            idle.push(scratch);
        }
    }

    fn clear(&self) {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    fn len(&self) -> usize {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// Simulates kernels on one chip.
///
/// See the [crate-level documentation](crate) for the execution
/// semantics. The simulator owns a pool of reusable
/// [`EngineScratch`] arenas; cloning it is cheap (the chip spec, the
/// cached validation verdict, and the scratch pool are shared through
/// `Arc`), so per-attempt clones on the supervised path reuse the same
/// warmed-up arenas instead of rebuilding state.
#[derive(Debug, Clone)]
pub struct Simulator {
    chip: Arc<ChipSpec>,
    budget: SimBudget,
    cancel: Option<CancelToken>,
    /// Spec-invariant violation found at construction, surfaced on the
    /// first simulate call (keeps `new` infallible for the many call
    /// sites that construct from built-in specs). Validation runs
    /// exactly once per chip; clones share the verdict through the
    /// `Arc`, and the inner error is deep-cloned only on the cold path
    /// that actually reports it.
    spec_error: Option<Arc<ArchError>>,
    scratch: Arc<ScratchPool>,
    /// Direct-indexed rate tables derived from `chip` at construction.
    tables: DurationTables,
}

impl Simulator {
    /// Creates a simulator for `chip`.
    ///
    /// The chip specification is checked immediately; if it violates an
    /// invariant (see [`ChipSpec::validate`]), every subsequent simulate
    /// call reports [`SimError::Arch`] instead of producing garbage
    /// cycles. Use [`Simulator::try_new`] to surface the problem at
    /// construction time.
    #[must_use]
    pub fn new(chip: ChipSpec) -> Self {
        let spec_error = chip.validate().err().map(Arc::new);
        let tables = DurationTables::from_chip(&chip);
        Simulator {
            chip: Arc::new(chip),
            budget: SimBudget::default(),
            cancel: None,
            spec_error,
            scratch: Arc::new(ScratchPool::default()),
            tables,
        }
    }

    /// Creates a simulator for `chip`, rejecting invalid specifications.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidSpec`] when the chip violates a
    /// construction invariant (non-positive frequency, zero bandwidth,
    /// empty rate tables, ...).
    pub fn try_new(chip: ChipSpec) -> Result<Self, ArchError> {
        chip.validate()?;
        let tables = DurationTables::from_chip(&chip);
        Ok(Simulator {
            chip: Arc::new(chip),
            budget: SimBudget::default(),
            cancel: None,
            spec_error: None,
            scratch: Arc::new(ScratchPool::default()),
            tables,
        })
    }

    /// Replaces the watchdog budget.
    #[must_use]
    pub fn with_budget(mut self, budget: SimBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cooperative cancellation token, checked in the event
    /// loop alongside the budget. A cancelled (or deadline-expired)
    /// token makes every in-flight and future run on this simulator
    /// return [`SimError::Cancelled`] with a forensics snapshot.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, when one exists.
    #[must_use]
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The chip this simulator models.
    #[must_use]
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }

    /// The watchdog budget in force.
    #[must_use]
    pub fn budget(&self) -> SimBudget {
        self.budget
    }

    /// Drops the pooled scratch arenas (shared across clones of this
    /// simulator). Runs repopulate the pool on demand; call this after
    /// an unusually large one-off kernel to release the capacity its
    /// arenas retained.
    pub fn reset(&self) {
        self.scratch.clear();
    }

    /// Number of idle pooled scratch arenas (shared across clones).
    /// Observability hook for tests and diagnostics, not API.
    #[doc(hidden)]
    #[must_use]
    pub fn pooled_scratch(&self) -> usize {
        self.scratch.len()
    }

    /// Executes `kernel` and returns its trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Validation`] when the kernel fails static
    /// validation, [`SimError::Arch`] when the chip spec is invalid or
    /// it references rates missing from the spec,
    /// [`SimError::Deadlock`] if execution stalls (defensive; validation
    /// rules this out), and [`SimError::BudgetExceeded`] when the
    /// watchdog trips.
    pub fn simulate(&self, kernel: &Kernel) -> Result<Trace, SimError> {
        let mut collector = TraceCollector::new();
        let summary = self.simulate_into(kernel, &mut collector)?;
        Ok(collector.into_trace(kernel.name(), summary.total_cycles))
    }

    /// Executes `kernel`, streaming records into `sink` instead of
    /// materializing a trace.
    ///
    /// # Errors
    ///
    /// As [`Simulator::simulate`]. On error the sink holds whatever was
    /// emitted before the failure.
    pub fn simulate_into<S: TraceSink>(
        &self,
        kernel: &Kernel,
        sink: &mut S,
    ) -> Result<RunSummary, SimError> {
        self.check_spec()?;
        validate(kernel, &self.chip)?;
        self.run(kernel, &self.chip, &self.tables, None, sink)
    }

    /// Executes `kernel` without static validation.
    ///
    /// This is the engine's raw entry point: kernels with broken
    /// synchronization run until they genuinely stall, producing a
    /// [`SimError::Deadlock`] with full forensics (or
    /// [`SimError::BudgetExceeded`] if they run away). The differential
    /// fuzzer uses it to compare the engine's verdict against the
    /// validator's.
    ///
    /// # Errors
    ///
    /// As [`Simulator::simulate`], minus [`SimError::Validation`].
    pub fn simulate_unchecked(&self, kernel: &Kernel) -> Result<Trace, SimError> {
        let mut collector = TraceCollector::new();
        let summary = self.simulate_unchecked_into(kernel, &mut collector)?;
        Ok(collector.into_trace(kernel.name(), summary.total_cycles))
    }

    /// Executes `kernel` without static validation, streaming records
    /// into `sink`.
    ///
    /// # Errors
    ///
    /// As [`Simulator::simulate_unchecked`].
    pub fn simulate_unchecked_into<S: TraceSink>(
        &self,
        kernel: &Kernel,
        sink: &mut S,
    ) -> Result<RunSummary, SimError> {
        self.check_spec()?;
        self.run(kernel, &self.chip, &self.tables, None, sink)
    }

    /// Executes `kernel` under a fault plan.
    ///
    /// The plan's chip faults (degraded bandwidth) produce a derived
    /// chip, its kernel faults (dropped/duplicated `set_flag`s,
    /// truncation) produce a derived kernel, and its latency jitter
    /// perturbs every instruction duration. The derived kernel is *not*
    /// re-validated — injecting sync faults into valid kernels and
    /// watching the engine deadlock is the point — but the derived chip
    /// must still satisfy the spec invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Arch`] when the faulted chip fails
    /// [`ChipSpec::validate`] (for example, bandwidth degraded to zero),
    /// plus everything [`Simulator::simulate_unchecked`] can return.
    pub fn simulate_with_faults(
        &self,
        kernel: &Kernel,
        plan: &FaultPlan,
    ) -> Result<Trace, SimError> {
        let mut collector = TraceCollector::new();
        let summary = self.simulate_with_faults_into(kernel, plan, &mut collector)?;
        // The derived kernel keeps the original name, so the trace does.
        Ok(collector.into_trace(kernel.name(), summary.total_cycles))
    }

    /// Executes `kernel` under a fault plan, streaming records into
    /// `sink`.
    ///
    /// # Errors
    ///
    /// As [`Simulator::simulate_with_faults`].
    pub fn simulate_with_faults_into<S: TraceSink>(
        &self,
        kernel: &Kernel,
        plan: &FaultPlan,
        sink: &mut S,
    ) -> Result<RunSummary, SimError> {
        self.check_spec()?;
        let chip = plan.apply_to_chip(&self.chip);
        chip.validate()?;
        let kernel = plan.apply_to_kernel(kernel);
        // The derived chip has its own rates; rebuild the tables for it
        // (fault runs are cold paths — chaos experiments, not sweeps).
        let tables = DurationTables::from_chip(&chip);
        self.run(&kernel, &chip, &tables, Some(plan), sink)
    }

    fn run<S: TraceSink>(
        &self,
        kernel: &Kernel,
        chip: &ChipSpec,
        tables: &DurationTables,
        faults: Option<&FaultPlan>,
        sink: &mut S,
    ) -> Result<RunSummary, SimError> {
        let mut scratch = self.scratch.acquire();
        scratch.prepare(kernel, chip, tables, faults);
        sink.begin(kernel);
        let run = Run {
            kernel,
            instrs: kernel.instructions(),
            chip,
            faults,
            cancel: self.cancel.as_ref(),
            budget: self.budget,
            scratch: &mut scratch,
            sink,
            dispatch_free: 0.0,
            next_dispatch: 0,
            barrier_pending: false,
            last_completion: 0.0,
            clock: 0.0,
            busy_until: [0.0; 6],
            head_index: [NO_INSTR; 6],
            head_end: [0.0; 6],
            spill_mask: 0,
            wake_at: [f64::INFINITY; 6],
            block_reason: [None; 6],
            outstanding: 0,
            completed: 0,
            max_end: 0.0,
        };
        let result = run.execute();
        self.scratch.release(scratch);
        result
    }

    fn check_spec(&self) -> Result<(), SimError> {
        match &self.spec_error {
            // Cold path: only broken-spec simulators get here, and every
            // call on one fails. The hot path is the `None` arm.
            Some(err) => Err(SimError::Arch((**err).clone())),
            None => Ok(()),
        }
    }
}

/// One run of the event loop: borrows the kernel, a pooled scratch, and
/// the caller's sink. Scalar per-run state lives inline; everything with
/// a heap footprint lives in the scratch.
struct Run<'a, S: TraceSink> {
    kernel: &'a Kernel,
    instrs: &'a [Instruction],
    chip: &'a ChipSpec,
    budget: SimBudget,
    faults: Option<&'a FaultPlan>,
    cancel: Option<&'a CancelToken>,
    scratch: &'a mut EngineScratch,
    sink: &'a mut S,
    /// Dispatcher timeline: when the next instruction can be dispatched.
    dispatch_free: f64,
    next_dispatch: usize,
    barrier_pending: bool,
    last_completion: f64,
    /// Simulated time of the most recently processed event.
    clock: f64,
    /// End time of the last *started* instruction per queue. The start
    /// gate is `busy_until > now` — strict, exactly the seed engine's
    /// test — so a queue whose instruction ends at precisely `now` can
    /// start its next front before that completion event is processed
    /// (the ended instruction stays in flight until then).
    busy_until: [f64; 6],
    /// Head of each queue's in-flight FIFO ([`NO_INSTR`] when nothing
    /// is in flight): the earliest-ending started-but-unfinished
    /// instruction, the only per-queue candidate for the completion
    /// scan. Later entries — rare, same-timestamp ties only — spill to
    /// `scratch.inflight_spill`.
    head_index: [usize; 6],
    /// Completion time of each `head_index` entry.
    head_end: [f64; 6],
    /// Bitmask of queues with spilled (second-and-later) in-flight
    /// entries; keeps the spill loops off the hot conflict check.
    spill_mask: u8,
    /// Pending wake per queue: the time its front becomes available
    /// (`f64::INFINITY` when none). Each queue holds at most one live
    /// wake — a front cannot start before its available time, so it
    /// cannot change out from under a scheduled wake, and successive
    /// fronts' available times strictly increase.
    wake_at: [f64; 6],
    /// Last observed blocking cause of each queue's front instruction.
    block_reason: [Option<StallCause>; 6],
    outstanding: usize,
    completed: usize,
    /// Running maximum of emitted record ends — the trace total.
    max_end: f64,
}

impl<'a, S: TraceSink> Run<'a, S> {
    fn execute(mut self) -> Result<RunSummary, SimError> {
        self.dispatch();
        self.try_start_all(0.0)?;
        let mut processed: u64 = 0;
        loop {
            // Select the next event exactly as the old heap's `Ord` did:
            // earliest time first; at equal times completions before
            // wakes, completions by ascending instruction index. Only
            // each queue's *earliest* in-flight instruction (the FIFO
            // head) can be next — within a queue, ends and indices both
            // increase front-to-back — so a six-head scan plus six wake
            // slots replaces pop+push.
            let mut time = f64::INFINITY;
            let mut complete_q = NO_INSTR;
            let mut complete_index = NO_INSTR;
            for q in 0..6 {
                let index = self.head_index[q];
                if index == NO_INSTR {
                    continue;
                }
                let end = self.head_end[q];
                if complete_q == NO_INSTR
                    || end.total_cmp(&time).is_lt()
                    || (end.total_cmp(&time).is_eq() && index < complete_index)
                {
                    time = end;
                    complete_q = q;
                    complete_index = index;
                }
            }
            let mut wake_q = NO_INSTR;
            for q in 0..6 {
                let at = self.wake_at[q];
                // Strict: completions win ties, earlier queue wins
                // between equal wakes (either order is a no-op for the
                // later one). `INFINITY` slots never win a strict test.
                if at.total_cmp(&time).is_lt() {
                    time = at;
                    wake_q = q;
                }
            }
            if complete_q == NO_INSTR && wake_q == NO_INSTR {
                break;
            }
            let now = time;
            self.clock = now;
            processed += 1;
            if processed > self.budget.max_events || now > self.budget.max_cycles {
                return Err(SimError::BudgetExceeded {
                    events: processed,
                    cycles: now,
                    max_events: self.budget.max_events,
                    max_cycles: self.budget.max_cycles,
                });
            }
            if let Some(token) = self.cancel {
                // The explicit flag is one atomic load — check it every
                // event. The deadline reads the wall clock, so poll it
                // only every DEADLINE_POLL_EVENTS events (and on the
                // first).
                if token.is_signalled()
                    || (processed % DEADLINE_POLL_EVENTS == 1 && token.is_expired())
                {
                    return Err(SimError::Cancelled {
                        events: processed,
                        cycles: now,
                        forensics: Box::new(self.forensics()),
                    });
                }
            }
            if wake_q != NO_INSTR {
                // Wakes retry *all* queues, like the seed's per-event
                // retry-everyone loop. Wakes are rare (about 1% of
                // events on real kernels), so a selective argument —
                // which would have to reason about same-timestamp ties,
                // the exact trap the golden suite caught on the
                // completion path — buys nothing here.
                self.wake_at[wake_q] = f64::INFINITY;
                self.try_start_all(now)?;
            } else {
                self.inflight_pop(complete_q);
                let was_set_flag = self.scratch.descs[complete_index].kind == Kind::SetFlag;
                let barrier_released = self.finish(complete_index, now);
                if barrier_released {
                    // A released barrier just dispatched fresh fronts to
                    // (necessarily idle and empty) queues: try them all.
                    self.try_start_all(now)?;
                } else {
                    self.retry_after_completion(complete_q, was_set_flag, now)?;
                }
            }
        }
        if self.completed != self.kernel.len() || self.scratch.started.iter().any(|&s| !s) {
            return Err(SimError::Deadlock(Box::new(self.forensics())));
        }
        Ok(RunSummary { total_cycles: self.max_end, events: processed })
    }

    /// Re-attempts starts after the instruction on queue `fq` completed:
    /// the freed queue itself, every flag-blocked queue when a
    /// `set_flag` completed, every region-blocked queue (any completion
    /// can release a spatial dependency), and every queue whose last
    /// started instruction ends at exactly `now`. The last gate is the
    /// subtle one: the busy test is *strict* (`busy_until > now`), so a
    /// queue becomes startable the moment simulated time reaches its
    /// last end — at the *first* event carrying that timestamp, which
    /// with tied completions is not necessarily the queue's own
    /// completion. The seed engine gets this for free by retrying
    /// everyone per event; skipping a tied queue here let the freed
    /// queue's front start first and claim a region out of
    /// `Component::ALL` order (caught by the golden differential suite
    /// on MobileNetV3's pipelined cast kernel). Skipping the remaining
    /// queues is faithful because their attempts were no-ops: a front's
    /// block cause never changes, and flag counters and in-flight
    /// regions change only at completions.
    #[inline]
    fn retry_after_completion(
        &mut self,
        fq: usize,
        was_set_flag: bool,
        now: f64,
    ) -> Result<(), SimError> {
        for component in Component::ALL {
            let q = component.index();
            let affected = q == fq
                || self.busy_until[q] == now
                || match self.block_reason[q] {
                    Some(StallCause::Flag) => was_set_flag,
                    Some(StallCause::Region) => true,
                    _ => false,
                };
            if affected {
                self.try_start(component, now)?;
            }
        }
        Ok(())
    }

    /// Finalizes `record` — marks its instruction started, folds its end
    /// into the running total — and hands it to the sink.
    #[inline]
    fn emit(&mut self, record: InstrRecord) {
        let index = record.index;
        if record.end > self.max_end {
            self.max_end = record.end;
        }
        self.scratch.started[index] = true;
        self.sink.emit(&self.instrs[index], record);
    }

    /// Snapshots engine state into a [`DeadlockReport`]. Called at
    /// quiescence: the event heap is empty, so nothing is executing and
    /// every non-empty queue has a genuinely blocked front.
    fn forensics(&self) -> DeadlockReport {
        let instructions = self.instrs;
        let mut queues = Vec::new();
        let mut wait_edges = Vec::new();
        for component in Component::ALL {
            let q = component.index();
            let Some(&(front_index, _)) = self.scratch.pending[q].front() else {
                continue;
            };
            let instr = &instructions[front_index];
            let cause = match instr {
                Instruction::WaitFlag { flag, .. } => {
                    wait_edges.push(WaitEdge {
                        waiter: component,
                        flag: flag.raw(),
                        pending_setters: self.pending_setters(flag.raw()),
                    });
                    BlockCause::Flag { flag: flag.raw() }
                }
                Instruction::Compute(_) | Instruction::Transfer(_)
                    if self.has_region_conflict(front_index) =>
                {
                    let conflicting_with = self
                        .head_index
                        .iter()
                        .copied()
                        .chain(
                            self.scratch
                                .inflight_spill
                                .iter()
                                .flat_map(PendingQueue::iter)
                                .map(|&(other, _)| other),
                        )
                        .find(|&other| {
                            other != NO_INSTR && instr.conflicts_with(&instructions[other])
                        })
                        .unwrap_or(front_index);
                    BlockCause::Region { conflicting_with }
                }
                _ => BlockCause::NotStarted,
            };
            queues.push(QueueState {
                queue: component,
                depth: self.scratch.pending[q].len(),
                front_index,
                front_instr: instr_text(instr),
                cause,
            });
        }
        DeadlockReport {
            kernel: self.kernel.name().to_string(),
            at_cycle: self.clock,
            total: self.kernel.len(),
            remaining: self.kernel.len() - self.completed,
            undispatched: self.kernel.len() - self.next_dispatch,
            barrier_pending: self.barrier_pending,
            queues,
            wait_edges,
        }
    }

    /// Every `set_flag` of `flag` that has not started (and therefore, at
    /// quiescence, never completed), with its location. Deadlock-only:
    /// this allocates its result `Vec` freely because the event loop
    /// never reaches it on a successful run.
    fn pending_setters(&self, flag: u32) -> Vec<PendingSetter> {
        self.instrs
            .iter()
            .enumerate()
            .filter(|&(i, instr)| {
                matches!(instr, Instruction::SetFlag { flag: f, .. } if f.raw() == flag)
                    && !self.scratch.started[i]
            })
            .map(|(i, instr)| PendingSetter {
                index: i,
                location: if i >= self.next_dispatch {
                    SetterLocation::Undispatched
                } else {
                    instr.queue().map_or(SetterLocation::Undispatched, SetterLocation::Queued)
                },
            })
            .collect()
    }

    /// Dispatches instructions in program order until a barrier blocks or
    /// the kernel is exhausted.
    fn dispatch(&mut self) {
        while !self.barrier_pending && self.next_dispatch < self.kernel.len() {
            let index = self.next_dispatch;
            let desc = &self.scratch.descs[index];
            if desc.kind == Kind::Barrier {
                // pipe_barrier(ALL): wait for every dispatched
                // instruction to finish before dispatching further.
                if self.outstanding == 0 {
                    let start = self.dispatch_free.max(self.last_completion);
                    let end = start + self.chip.barrier_cycles;
                    let available_at = self.dispatch_free;
                    self.dispatch_free = end;
                    self.completed += 1;
                    self.next_dispatch += 1;
                    self.emit(InstrRecord {
                        index,
                        queue: None,
                        available_at,
                        start,
                        end,
                        stall: StallCause::None,
                    });
                } else {
                    self.barrier_pending = true;
                }
            } else {
                let queue = desc.queue as usize;
                self.dispatch_free += self.chip.dispatch_cycles;
                self.scratch.pending[queue].push_back((index, self.dispatch_free));
                self.outstanding += 1;
                self.next_dispatch += 1;
            }
        }
    }

    /// Retires `index`; returns whether this completion released a
    /// pending barrier (and therefore dispatched fresh fronts).
    #[inline]
    fn finish(&mut self, index: usize, now: f64) -> bool {
        self.outstanding -= 1;
        self.completed += 1;
        self.last_completion = self.last_completion.max(now);
        let desc = self.scratch.descs[index];
        if desc.kind == Kind::SetFlag {
            self.scratch.flags.increment(desc.flag);
        }
        if self.barrier_pending && self.outstanding == 0 {
            self.barrier_pending = false;
            self.dispatch();
            return true;
        }
        false
    }

    fn try_start_all(&mut self, now: f64) -> Result<(), SimError> {
        for component in Component::ALL {
            self.try_start(component, now)?;
        }
        Ok(())
    }

    fn try_start(&mut self, component: Component, now: f64) -> Result<(), SimError> {
        let q = component.index();
        if self.busy_until[q] > now {
            return Ok(());
        }
        let Some(&(index, available)) = self.scratch.pending[q].front() else {
            return Ok(());
        };
        if available > now {
            self.schedule_wake(q, available);
            return Ok(());
        }
        let desc = self.scratch.descs[index];
        match desc.kind {
            Kind::WaitFlag => {
                if !self.scratch.flags.try_consume(desc.flag) {
                    // Blocked; a future SetFlag completion retries us.
                    self.block_reason[q] = Some(StallCause::Flag);
                    return Ok(());
                }
            }
            Kind::Compute | Kind::Transfer => {
                if self.has_region_conflict(index) {
                    // Blocked on a spatial dependency; the conflicting
                    // instruction's completion retries us.
                    self.block_reason[q] = Some(StallCause::Region);
                    return Ok(());
                }
            }
            Kind::SetFlag => {}
            Kind::Barrier => unreachable!("barriers are dispatcher-level"),
        }
        let stall = match self.block_reason[q].take() {
            Some(cause) => cause,
            None if now > available + 1e-9 => StallCause::QueueBusy,
            None => StallCause::None,
        };
        let duration = if desc.duration.is_nan() {
            // The spec lacks this instruction's rate: re-run the spec
            // lookup so the error carries the original detail.
            self.missing_rate_error(index)?
        } else {
            desc.duration
        };
        let end = now + duration;
        self.busy_until[q] = end;
        self.scratch.pending[q].pop_front();
        self.inflight_push(q, index, end);
        self.emit(InstrRecord {
            index,
            queue: Some(component),
            available_at: available,
            start: now,
            end,
            stall,
        });
        Ok(())
    }

    /// Records a freshly started instruction as in flight: into the
    /// head slot when the queue was drained, otherwise into the spill
    /// FIFO (the new entry ends last — its start is at or after every
    /// earlier entry's end — so FIFO order is preserved).
    #[inline]
    fn inflight_push(&mut self, q: usize, index: usize, end: f64) {
        if self.head_index[q] == NO_INSTR {
            self.head_index[q] = index;
            self.head_end[q] = end;
        } else {
            self.scratch.inflight_spill[q].push_back((index, end));
            self.spill_mask |= 1 << q;
        }
    }

    /// Retires queue `q`'s in-flight head, promoting the next spilled
    /// entry if one exists.
    #[inline]
    fn inflight_pop(&mut self, q: usize) {
        if self.spill_mask & (1 << q) != 0 {
            let spill = &mut self.scratch.inflight_spill[q];
            let &(index, end) = spill.front().expect("spill bit set on empty queue");
            spill.pop_front();
            if spill.front().is_none() {
                self.spill_mask &= !(1 << q);
            }
            self.head_index[q] = index;
            self.head_end[q] = end;
        } else {
            self.head_index[q] = NO_INSTR;
        }
    }

    /// Whether `index` spatially conflicts with any in-flight
    /// instruction. Ended-but-unfinished instructions still conflict —
    /// the seed keeps them in its `executing` set until their completion
    /// event is processed, and block/start ordering at tied timestamps
    /// depends on it.
    ///
    /// The descriptors' buffer masks rule out most pairs before any
    /// region is read.
    #[inline]
    fn has_region_conflict(&self, index: usize) -> bool {
        let descs = &self.scratch.descs;
        let desc = descs[index];
        let conflicts = |other: usize| {
            desc.may_conflict(descs[other])
                && self.instrs[index].conflicts_with(&self.instrs[other])
        };
        if self.head_index.iter().any(|&other| other != NO_INSTR && conflicts(other)) {
            return true;
        }
        if self.spill_mask != 0 {
            return self
                .scratch
                .inflight_spill
                .iter()
                .flat_map(PendingQueue::iter)
                .any(|&(other, _)| conflicts(other));
        }
        false
    }

    #[inline]
    fn schedule_wake(&mut self, q: usize, at: f64) {
        // Idempotent: re-scheduling the same front stores the same time.
        self.wake_at[q] = at;
    }

    /// Cold path behind the [`MISSING_RATE`] sentinel: the chip spec has
    /// no rate for this instruction, so re-run the full spec lookup to
    /// produce the same [`SimError::Arch`] detail the pre-table engine
    /// reported. (Reachable only via `simulate_unchecked` on kernels
    /// whose unit/precision pairs static validation would reject.)
    #[cold]
    fn missing_rate_error(&self, index: usize) -> Result<f64, SimError> {
        let mut duration = match &self.instrs[index] {
            Instruction::Compute(c) => {
                self.chip.compute_issue_cycles
                    + c.ops as f64 / self.chip.peak_ops_per_cycle(c.unit, c.precision)?
            }
            Instruction::Transfer(t) => self.chip.transfer(t.path)?.cycles(t.bytes()),
            _ => self.chip.flag_cycles,
        };
        if let Some(plan) = self.faults {
            duration *= plan.latency_factor(index);
        }
        Ok(duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use ascend_arch::{Buffer, ComputeUnit, MteEngine, Precision, TransferPath};
    use ascend_isa::{FlagId, KernelBuilder, Region};
    use std::time::Duration;

    fn sim() -> Simulator {
        Simulator::new(ChipSpec::training())
    }

    fn gm(offset: u64, len: u64) -> Region {
        Region::new(Buffer::Gm, offset, len)
    }

    fn ub(offset: u64, len: u64) -> Region {
        Region::new(Buffer::Ub, offset, len)
    }

    #[test]
    fn single_transfer_timing_matches_spec() {
        let sim = sim();
        let mut b = KernelBuilder::new("one");
        b.transfer(TransferPath::GmToUb, gm(0, 4096), ub(0, 4096)).unwrap();
        let trace = sim.simulate(&b.build()).unwrap();
        let spec = sim.chip().transfer(TransferPath::GmToUb).unwrap();
        let expected = sim.chip().dispatch_cycles + spec.cycles(4096);
        assert!((trace.total_cycles() - expected).abs() < 1e-9);
    }

    #[test]
    fn same_mte_serializes_different_mtes_parallelize() {
        let sim = sim();
        // Two GM loads: same MTE-GM queue -> serial.
        let mut b = KernelBuilder::new("serial");
        b.transfer(TransferPath::GmToUb, gm(0, 8192), ub(0, 8192)).unwrap();
        b.transfer(TransferPath::GmToUb, gm(8192, 8192), ub(8192, 8192)).unwrap();
        let serial = sim.simulate(&b.build()).unwrap().total_cycles();

        // A GM load and a UB store: different MTEs -> parallel.
        let mut b = KernelBuilder::new("parallel");
        b.transfer(TransferPath::GmToUb, gm(0, 8192), ub(0, 8192)).unwrap();
        b.transfer(TransferPath::UbToGm, ub(8192, 8192), gm(8192, 8192)).unwrap();
        let parallel = sim.simulate(&b.build()).unwrap().total_cycles();

        assert!(
            parallel < serial * 0.7,
            "cross-MTE transfers must overlap: parallel={parallel} serial={serial}"
        );
    }

    #[test]
    fn flags_enforce_order() {
        let sim = sim();
        let mut b = KernelBuilder::new("sync");
        let f = b.new_flag();
        // Vector waits for the load even though it is dispatched ready.
        b.wait_flag(ascend_arch::Component::Vector, f);
        b.compute(ComputeUnit::Vector, Precision::Fp16, 1024, vec![ub(0, 2048)], vec![ub(0, 2048)]);
        b.transfer(TransferPath::GmToUb, gm(0, 2048), ub(0, 2048)).unwrap();
        b.set_flag(ascend_arch::Component::MteGm, f);
        let trace = sim.simulate(&b.build()).unwrap();
        let records = trace.records();
        // The compute (index 1) must start after the set_flag (index 3) ends.
        assert!(records[1].start >= records[3].end);
    }

    #[test]
    fn barrier_serializes_and_costs() {
        let sim = sim();
        let mut with_barrier = KernelBuilder::new("barrier");
        with_barrier.transfer(TransferPath::GmToUb, gm(0, 4096), ub(0, 4096)).unwrap();
        with_barrier.barrier_all();
        with_barrier.transfer(TransferPath::UbToGm, ub(4096, 4096), gm(8192, 4096)).unwrap();
        let barrier_time = sim.simulate(&with_barrier.build()).unwrap();

        let mut without = KernelBuilder::new("free");
        without.transfer(TransferPath::GmToUb, gm(0, 4096), ub(0, 4096)).unwrap();
        without.transfer(TransferPath::UbToGm, ub(4096, 4096), gm(8192, 4096)).unwrap();
        let free_time = sim.simulate(&without.build()).unwrap();

        assert!(barrier_time.total_cycles() > free_time.total_cycles());
        // With the barrier, the store starts after the load ends.
        let records = barrier_time.records();
        assert!(records[2].start >= records[0].end + sim.chip().barrier_cycles);
    }

    #[test]
    fn spatial_dependency_serializes_across_queues() {
        let sim = sim();
        // Store from ub[0..n] while loading into ub[0..n]: W/R conflict.
        let mut conflicted = KernelBuilder::new("conflict");
        conflicted.transfer(TransferPath::UbToGm, ub(0, 8192), gm(0, 8192)).unwrap();
        conflicted.transfer(TransferPath::GmToUb, gm(8192, 8192), ub(0, 8192)).unwrap();
        let conflict_trace = sim.simulate(&conflicted.build()).unwrap();
        let r = conflict_trace.records();
        assert!(r[1].start >= r[0].end, "conflicting transfers must serialize: {:?}", r);

        // Disjoint UB regions (RSD applied): they overlap in time.
        let mut free = KernelBuilder::new("rsd");
        free.transfer(TransferPath::UbToGm, ub(0, 8192), gm(0, 8192)).unwrap();
        free.transfer(TransferPath::GmToUb, gm(8192, 8192), ub(8192, 8192)).unwrap();
        let free_trace = sim.simulate(&free.build()).unwrap();
        let r = free_trace.records();
        assert!(r[1].start < r[0].end, "disjoint transfers should overlap");
        assert!(free_trace.total_cycles() < conflict_trace.total_cycles());
    }

    #[test]
    fn dispatch_cost_delays_later_instructions() {
        let sim = sim();
        let chip = sim.chip();
        let mut b = KernelBuilder::new("dispatch");
        for i in 0..10 {
            b.compute(ComputeUnit::Scalar, Precision::Int32, 1, vec![], vec![ub(i * 64, 64)]);
        }
        // A final transfer dispatched after 10 scalar instructions.
        b.transfer(TransferPath::GmToUb, gm(0, 64), ub(4096, 64)).unwrap();
        let trace = sim.simulate(&b.build()).unwrap();
        let records = trace.records();
        assert!(
            records[10].start >= 11.0 * chip.dispatch_cycles - 1e-9,
            "the transfer cannot start before the dispatcher reaches it"
        );
    }

    #[test]
    fn compute_issue_cost_penalizes_many_small_instructions() {
        let sim = sim();
        let total_ops: u64 = 98 * 1024;
        // repeat=1 style: 98 instructions of 1024 ops.
        let mut many = KernelBuilder::new("repeat1");
        for _ in 0..98 {
            many.compute(ComputeUnit::Vector, Precision::Fp16, 1024, vec![], vec![]);
        }
        // repeat=98 style: one instruction covering all ops.
        let mut one = KernelBuilder::new("repeat98");
        one.compute(ComputeUnit::Vector, Precision::Fp16, total_ops, vec![], vec![]);
        let many_t = sim.simulate(&many.build()).unwrap().total_cycles();
        let one_t = sim.simulate(&one.build()).unwrap().total_cycles();
        assert!(
            many_t > 2.0 * one_t,
            "issue overhead must dominate for tiny instructions: {many_t} vs {one_t}"
        );
    }

    #[test]
    fn every_instruction_is_recorded_once() {
        let sim = sim();
        let mut b = KernelBuilder::new("all");
        b.transfer(TransferPath::GmToUb, gm(0, 1024), ub(0, 1024)).unwrap();
        b.sync(ascend_arch::Component::MteGm, ascend_arch::Component::Vector);
        b.compute(ComputeUnit::Vector, Precision::Fp32, 256, vec![ub(0, 1024)], vec![ub(0, 1024)]);
        b.barrier_all();
        b.transfer(TransferPath::UbToGm, ub(0, 1024), gm(4096, 1024)).unwrap();
        let kernel = b.build();
        let trace = sim.simulate(&kernel).unwrap();
        assert_eq!(trace.records().len(), kernel.len());
        for (i, r) in trace.records().iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.end >= r.start);
        }
    }

    #[test]
    fn total_time_is_at_least_the_busiest_queue() {
        let sim = sim();
        let mut b = KernelBuilder::new("bound");
        for i in 0..4 {
            b.transfer(TransferPath::GmToUb, gm(i * 4096, 4096), ub(i * 4096, 4096)).unwrap();
        }
        let trace = sim.simulate(&b.build()).unwrap();
        for c in Component::ALL {
            assert!(trace.total_cycles() >= trace.busy_cycles(c) - 1e-9);
        }
    }

    #[test]
    fn validation_failure_is_propagated() {
        let sim = sim();
        let kernel = KernelBuilder::new("empty").build();
        assert!(matches!(sim.simulate(&kernel), Err(SimError::Validation(_))));
    }

    #[test]
    fn invalid_spec_is_reported_not_simulated() {
        let mut chip = ChipSpec::training();
        chip.scale_bandwidth_unchecked(MteEngine::Gm, 0.0);
        let sim = Simulator::new(chip.clone());
        let mut b = KernelBuilder::new("doomed");
        b.transfer(TransferPath::GmToUb, gm(0, 1024), ub(0, 1024)).unwrap();
        let kernel = b.build();
        match sim.simulate(&kernel) {
            Err(SimError::Arch(ArchError::InvalidSpec { .. })) => {}
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        // The cached verdict is shared, not recomputed, by clones.
        match sim.clone().simulate(&kernel) {
            Err(SimError::Arch(ArchError::InvalidSpec { .. })) => {}
            other => panic!("expected InvalidSpec from the clone, got {other:?}"),
        }
        assert!(matches!(Simulator::try_new(chip), Err(ArchError::InvalidSpec { .. })));
    }

    #[test]
    fn unchecked_deadlock_carries_forensics() {
        let sim = sim();
        let mut b = KernelBuilder::new("stuck");
        let f = b.new_flag();
        // A wait with no matching set: validation would reject this.
        b.wait_flag(ascend_arch::Component::Vector, f);
        b.compute(ComputeUnit::Vector, Precision::Fp16, 64, vec![], vec![]);
        let kernel = b.build();
        assert!(matches!(sim.simulate(&kernel), Err(SimError::Validation(_))));
        let Err(SimError::Deadlock(report)) = sim.simulate_unchecked(&kernel) else {
            panic!("unmatched wait must deadlock the engine");
        };
        assert_eq!(report.remaining, 2);
        assert_eq!(report.total, 2);
        let vector = report
            .queues
            .iter()
            .find(|q| q.queue == Component::Vector)
            .expect("vector queue must be stuck");
        assert_eq!(vector.front_index, 0);
        assert_eq!(vector.cause, BlockCause::Flag { flag: f.raw() });
        assert_eq!(report.wait_edges.len(), 1);
        assert!(report.wait_edges[0].pending_setters.is_empty(), "no setter exists");
        assert!(report.to_string().contains("the wait is unmatched"));
    }

    #[test]
    fn event_budget_trips_the_watchdog() {
        let sim = sim().with_budget(SimBudget { max_events: 4, max_cycles: f64::INFINITY });
        let mut b = KernelBuilder::new("busy");
        for i in 0..16 {
            b.transfer(TransferPath::GmToUb, gm(i * 1024, 1024), ub(i * 1024, 1024)).unwrap();
        }
        match sim.simulate(&b.build()) {
            Err(SimError::BudgetExceeded { events, max_events: 4, .. }) => {
                assert!(events > 4);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn cycle_budget_trips_the_watchdog() {
        let sim = sim().with_budget(SimBudget { max_events: u64::MAX, max_cycles: 1.0 });
        let mut b = KernelBuilder::new("slow");
        b.transfer(TransferPath::GmToUb, gm(0, 1 << 18), ub(0, 1 << 18)).unwrap();
        match sim.simulate(&b.build()) {
            Err(SimError::BudgetExceeded { cycles, .. }) => assert!(cycles > 1.0),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn timing_faults_change_cycles_not_completion() {
        let sim = sim();
        let mut b = KernelBuilder::new("jitter");
        for i in 0..4 {
            b.transfer(TransferPath::GmToUb, gm(i * 4096, 4096), ub(i * 4096, 4096)).unwrap();
        }
        let kernel = b.build();
        let base = sim.simulate(&kernel).unwrap().total_cycles();
        let plan = ascend_faults::FaultPlan::new(7)
            .degrade_bandwidth(MteEngine::Gm, 0.5)
            .with_latency_jitter(0.2);
        let faulted = sim.simulate_with_faults(&kernel, &plan).unwrap();
        assert!(
            faulted.total_cycles() > base,
            "halved bandwidth must slow the kernel: {} vs {base}",
            faulted.total_cycles()
        );
    }

    #[test]
    fn dropped_set_flag_deadlocks_with_forensics() {
        let sim = sim();
        let mut b = KernelBuilder::new("sync");
        let f = b.new_flag();
        b.transfer(TransferPath::GmToUb, gm(0, 2048), ub(0, 2048)).unwrap();
        b.set_flag(ascend_arch::Component::MteGm, f);
        b.wait_flag(ascend_arch::Component::Vector, f);
        b.compute(ComputeUnit::Vector, Precision::Fp16, 512, vec![ub(0, 2048)], vec![ub(0, 2048)]);
        let kernel = b.build();
        sim.simulate(&kernel).expect("the unfaulted kernel is valid");
        let plan = ascend_faults::FaultPlan::new(3).drop_set_flags(1);
        let Err(SimError::Deadlock(report)) = sim.simulate_with_faults(&kernel, &plan) else {
            panic!("dropping the only set_flag must deadlock");
        };
        assert!(report.queues.iter().any(|q| q.cause == BlockCause::Flag { flag: f.raw() }));
    }

    #[test]
    fn signalled_token_preempts_with_forensics() {
        let token = CancelToken::new();
        token.cancel();
        let sim = sim().with_cancel(token);
        let mut b = KernelBuilder::new("preempted");
        for i in 0..8 {
            b.transfer(TransferPath::GmToUb, gm(i * 1024, 1024), ub(i * 1024, 1024)).unwrap();
        }
        let kernel = b.build();
        let Err(err) = sim.simulate(&kernel) else {
            panic!("a pre-cancelled token must preempt the run");
        };
        assert!(err.is_transient());
        let SimError::Cancelled { events, forensics, .. } = &err else {
            panic!("expected Cancelled, got {err:?}");
        };
        assert!(*events >= 1, "the engine notices cancellation at an event boundary");
        assert_eq!(forensics.total, kernel.len());
        assert!(forensics.remaining > 0, "preemption leaves work incomplete");
        assert!(err.to_string().contains("cancelled"));
    }

    #[test]
    fn expired_deadline_preempts_the_run() {
        let sim = sim().with_cancel(CancelToken::with_timeout(std::time::Duration::ZERO));
        let mut b = KernelBuilder::new("late");
        for i in 0..8 {
            b.transfer(TransferPath::GmToUb, gm(i * 1024, 1024), ub(i * 1024, 1024)).unwrap();
        }
        match sim.simulate(&b.build()) {
            Err(SimError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    /// A compute-only kernel of `n` instructions: no operands, so no
    /// buffer-capacity limit — an arbitrarily long event stream for
    /// cancellation-latency tests.
    fn long_kernel(n: usize) -> ascend_isa::Kernel {
        let mut b = KernelBuilder::new("long");
        for _ in 0..n {
            b.compute(ComputeUnit::Vector, Precision::Fp16, 64, vec![], vec![]);
        }
        b.build()
    }

    #[test]
    fn deadline_expiry_is_observed_within_the_poll_interval() {
        // A deadline far shorter than the kernel's wall-clock simulation
        // time must preempt the run mid-loop, and because the wall clock
        // is only polled every DEADLINE_POLL_EVENTS events, the preemption
        // event index always lands on a poll boundary — the documented
        // propagation-latency bound.
        let sim = sim().with_cancel(CancelToken::with_timeout(Duration::from_micros(200)));
        match sim.simulate(&long_kernel(1 << 16)) {
            Err(SimError::Cancelled { events, .. }) => {
                assert_eq!(
                    events % DEADLINE_POLL_EVENTS,
                    1,
                    "deadline expiry must be observed at a poll boundary, got event {events}"
                );
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn mid_run_cancel_is_observed_before_completion() {
        // The explicit flag is checked on *every* event, so a cancel
        // issued from another thread mid-loop preempts the run at the
        // next event boundary instead of letting it drain the heap.
        let token = CancelToken::new();
        let sim = sim().with_cancel(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(500));
            token.cancel();
        });
        let result = sim.simulate(&long_kernel(1 << 16));
        canceller.join().unwrap();
        match result {
            Err(SimError::Cancelled { events, forensics, .. }) => {
                assert!(forensics.remaining > 0, "preemption leaves work incomplete");
                assert!(events >= 1);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn untriggered_token_leaves_results_identical() {
        let mut b = KernelBuilder::new("same");
        b.transfer(TransferPath::GmToUb, gm(0, 4096), ub(0, 4096)).unwrap();
        b.sync(ascend_arch::Component::MteGm, ascend_arch::Component::Vector);
        b.compute(ComputeUnit::Vector, Precision::Fp16, 1024, vec![ub(0, 4096)], vec![ub(0, 4096)]);
        let kernel = b.build();
        let plain = sim().simulate(&kernel).unwrap();
        let supervised = sim().with_cancel(CancelToken::new()).simulate(&kernel).unwrap();
        assert_eq!(plain.total_cycles(), supervised.total_cycles());
        assert_eq!(plain.records(), supervised.records());
    }

    #[test]
    fn reused_simulator_repeats_itself_across_kernels_and_errors() {
        // One simulator, many runs, interleaved with runs that fail:
        // every repeat must reproduce the first run exactly, proving the
        // pooled scratch carries no state between runs.
        let sim = sim();
        let mut a = KernelBuilder::new("a");
        let f = a.new_flag();
        a.transfer(TransferPath::GmToUb, gm(0, 4096), ub(0, 4096)).unwrap();
        a.set_flag(Component::MteGm, f);
        a.wait_flag(Component::Vector, f);
        a.compute(ComputeUnit::Vector, Precision::Fp16, 1024, vec![ub(0, 4096)], vec![ub(0, 4096)]);
        let a = a.build();
        let mut b = KernelBuilder::new("b");
        b.transfer(TransferPath::UbToGm, ub(0, 2048), gm(0, 2048)).unwrap();
        b.barrier_all();
        b.transfer(TransferPath::GmToUb, gm(4096, 2048), ub(4096, 2048)).unwrap();
        let b = b.build();
        // A kernel that deadlocks (leaves queues and flags mid-flight).
        let mut stuck = KernelBuilder::new("stuck");
        let g = stuck.new_flag();
        stuck.wait_flag(Component::Vector, g);
        stuck.compute(ComputeUnit::Vector, Precision::Fp16, 64, vec![], vec![]);
        let stuck = stuck.build();

        let first_a = sim.simulate(&a).unwrap();
        let first_b = sim.simulate(&b).unwrap();
        for _ in 0..4 {
            assert!(matches!(sim.simulate_unchecked(&stuck), Err(SimError::Deadlock(_))));
            assert_eq!(sim.simulate(&a).unwrap(), first_a);
            assert_eq!(sim.simulate(&b).unwrap(), first_b);
        }
        assert!(sim.pooled_scratch() >= 1, "runs must return scratch to the pool");
        sim.reset();
        assert_eq!(sim.pooled_scratch(), 0, "reset drops pooled scratch");
        assert_eq!(sim.simulate(&a).unwrap(), first_a, "reset must not change results");
    }

    #[test]
    fn clones_share_the_scratch_pool() {
        let sim = sim();
        let clone = sim.clone();
        let mut b = KernelBuilder::new("shared");
        b.transfer(TransferPath::GmToUb, gm(0, 1024), ub(0, 1024)).unwrap();
        let kernel = b.build();
        clone.simulate(&kernel).unwrap();
        assert!(sim.pooled_scratch() >= 1, "a clone's run warms the shared pool");
        assert_eq!(sim.simulate(&kernel).unwrap(), clone.simulate(&kernel).unwrap());
    }

    #[test]
    fn null_sink_summary_matches_trace() {
        let sim = sim();
        let mut b = KernelBuilder::new("summary");
        b.transfer(TransferPath::GmToUb, gm(0, 4096), ub(0, 4096)).unwrap();
        b.sync(Component::MteGm, Component::Vector);
        b.compute(ComputeUnit::Vector, Precision::Fp16, 2048, vec![ub(0, 4096)], vec![ub(0, 4096)]);
        let kernel = b.build();
        let trace = sim.simulate(&kernel).unwrap();
        let summary = sim.simulate_into(&kernel, &mut NullSink).unwrap();
        assert_eq!(summary.total_cycles, trace.total_cycles());
        assert!(summary.events > 0);
    }

    #[test]
    fn sparse_flag_ids_fall_back_without_changing_semantics() {
        // FlagId::new can mint ids far beyond the dense table cap; the
        // sparse fallback must give them the same counting semantics.
        let sim = sim();
        let make = |flag: FlagId| {
            let mut b = KernelBuilder::new("sparse");
            b.transfer(TransferPath::GmToUb, gm(0, 2048), ub(0, 2048)).unwrap();
            b.set_flag(Component::MteGm, flag);
            b.wait_flag(Component::Vector, flag);
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                512,
                vec![ub(0, 2048)],
                vec![ub(0, 2048)],
            );
            b.build()
        };
        let dense = sim.simulate(&make(FlagId::new(0))).unwrap();
        let sparse = sim.simulate(&make(FlagId::new(u32::MAX - 1))).unwrap();
        assert_eq!(dense.total_cycles(), sparse.total_cycles());
        for (d, s) in dense.records().iter().zip(sparse.records()) {
            assert_eq!(d.start, s.start);
            assert_eq!(d.end, s.end);
            assert_eq!(d.stall, s.stall);
        }
    }
}
