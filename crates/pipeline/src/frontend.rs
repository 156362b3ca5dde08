//! The one front end both serving tiers share: admission, two priority
//! lanes, deadline shedding, exactly-once ticket settlement and drain.
//!
//! [`AnalysisService`](crate::AnalysisService) and
//! [`ClusterService`](crate::ClusterService) are backends behind one
//! [`Frontend`]; DESIGN.md ("Front end semantics") states the contract.
//! The queues live in the backend's own state, under the one lock
//! [`Frontend::lock`] hands out — the cluster routes and enqueues
//! atomically with its per-shard queues — and the ledger (counters plus
//! per-class latency reservoirs) sits behind a second mutex. Lock order:
//! the state lock before the ledger lock, never the other way round.

use crate::stats::{LatencyReservoir, LatencySummary, DEFAULT_RESERVOIR_CAPACITY};
use crate::{lock, PipelineError, PipelineResult};
use ascend_sim::CancelToken;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduling class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Latency-sensitive: dequeued before any sweep work.
    Interactive,
    /// Throughput work (parameter sweeps, batch re-analysis): runs when
    /// no interactive request is waiting.
    Sweep,
}

impl Priority {
    /// Number of scheduling classes (sizes per-class tables such as
    /// [`AuditPolicy::class_rates`](crate::AuditPolicy::class_rates)).
    pub const COUNT: usize = 2;

    /// Dense index of this class (`Interactive` = 0, `Sweep` = 1) into
    /// per-class tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Sweep => 1,
        }
    }
}

/// A request's terminal state.
type Outcome = Result<Arc<PipelineResult>, PipelineError>;

/// Ticket state shared between the submitter and the backend. Only this
/// module writes the slot, at most once (first write wins).
#[derive(Debug)]
pub(crate) struct TicketShared {
    id: u64,
    priority: Priority,
    deadline: Option<Duration>,
    admitted_at: Instant,
    state: Mutex<Option<Outcome>>,
    ready: Condvar,
}

impl TicketShared {
    /// Records the terminal state if none exists yet; counters advance
    /// only when this returns `true`.
    fn complete(&self, outcome: Outcome) -> bool {
        let mut state = lock(&self.state);
        if state.is_some() {
            return false;
        }
        *state = Some(outcome);
        self.ready.notify_all();
        true
    }

    /// The class the request was admitted under.
    pub(crate) fn priority(&self) -> Priority {
        self.priority
    }

    /// What is left of the request's deadline, when it has one.
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|deadline| deadline.saturating_sub(self.admitted_at.elapsed()))
    }
}

/// Handle to one accepted request. The front end guarantees the ticket
/// reaches exactly one terminal state: a result, an execution error, a
/// deadline shed, or a drain flush.
#[derive(Debug, Clone)]
pub struct Ticket {
    shared: Arc<TicketShared>,
}

impl Ticket {
    /// Stable identifier of this accepted request.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The class the request was admitted under.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.shared.priority
    }

    /// The terminal state, when one has been recorded.
    #[must_use]
    pub fn try_result(&self) -> Option<Result<Arc<PipelineResult>, PipelineError>> {
        lock(&self.shared.state).clone()
    }

    /// Blocks until the terminal state is recorded.
    ///
    /// # Errors
    ///
    /// The terminal error, when the request did not complete with a
    /// result (execution failure, shed, or drain flush).
    pub fn wait(&self) -> Result<Arc<PipelineResult>, PipelineError> {
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(outcome) = state.as_ref() {
                return outcome.clone();
            }
            state = self.shared.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`wait`](Ticket::wait) bounded by `timeout`; `None` when no
    /// terminal state was recorded in time.
    #[must_use]
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<Arc<PipelineResult>, PipelineError>> {
        let start = Instant::now();
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(outcome) = state.as_ref() {
                return Some(outcome.clone());
            }
            let remaining = timeout.checked_sub(start.elapsed())?;
            let (guard, timed_out) = self
                .shared
                .ready
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timed_out.timed_out() && state.is_none() {
                return None;
            }
        }
    }
}

/// Monotonic event counters of one front end, the same ledger on both
/// tiers; a field only the cluster moves stays 0 on the service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendCounters {
    /// Both tiers: requests admitted (each owns exactly one ticket).
    pub accepted: u64,
    /// Both tiers: requests rejected with [`PipelineError::Overloaded`].
    pub rejected_overload: u64,
    /// Both tiers: accepted requests shed at dequeue, deadline lapsed.
    pub shed_deadline: u64,
    /// Both tiers: accepted requests that completed with a result.
    pub completed_ok: u64,
    /// Both tiers: accepted requests that completed with an error
    /// (panics and drain-cancelled attempts included).
    pub failed: u64,
    /// Both tiers: queued requests flushed at drain with
    /// [`PipelineError::ServiceStopped`].
    pub drain_flushed: u64,
    /// Both tiers: panics that escaped a service worker's or a cluster
    /// dispatcher's own handling of an item (the ticket still failed).
    pub worker_panics: u64,
    /// Cluster only: completed requests answered from a shard's warm
    /// state (the service reports its cache in `HealthSnapshot::cache`).
    pub cache_hits: u64,
    /// Cluster only: requests re-routed to a ring successor.
    pub failovers: u64,
    /// Cluster only: shard process bring-ups, initial spawns included.
    pub respawns: u64,
    /// Cluster only: shard process deaths, however caused.
    pub kills: u64,
    /// Cluster only: quarantine broadcasts issued.
    pub quarantine_broadcasts: u64,
}

impl FrontendCounters {
    /// Terminal states recorded so far. Never above
    /// [`accepted`](FrontendCounters::accepted); equal to it after a
    /// quiesced drain: every admitted ticket ended exactly one way.
    #[must_use]
    pub fn terminal_states(&self) -> u64 {
        self.completed_ok + self.failed + self.shed_deadline + self.drain_flushed
    }
}

/// What a `drain` observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued requests flushed with [`PipelineError::ServiceStopped`].
    pub flushed_queued: u64,
    /// Whether every in-flight request reached a terminal state (and the
    /// backend's threads were joined) before the drain deadline.
    pub quiesced: bool,
    /// Wall time drain took.
    pub elapsed: Duration,
}

/// The two-class FIFO: [`pop`](Lanes::pop) serves the interactive lane
/// before the sweep lane, each in arrival order.
#[derive(Debug)]
pub(crate) struct Lanes<T> {
    lanes: [VecDeque<T>; Priority::COUNT],
}

impl<T> Default for Lanes<T> {
    fn default() -> Self {
        Lanes { lanes: [VecDeque::new(), VecDeque::new()] }
    }
}

impl<T> Lanes<T> {
    pub(crate) fn push(&mut self, priority: Priority, item: T) {
        self.lanes[priority.index()].push_back(item);
    }

    pub(crate) fn push_front(&mut self, priority: Priority, item: T) {
        self.lanes[priority.index()].push_front(item);
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    pub(crate) fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    pub(crate) fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.lanes.iter_mut().flat_map(|lane| lane.drain(..))
    }
}

/// What the front end needs from the queues a backend keeps under the
/// shared state lock.
pub(crate) trait Backlog {
    /// Requests queued, executing ones excluded.
    fn depth(&self) -> usize;
    /// Empties every queue, returning the tickets to flush.
    fn take_all(&mut self) -> Vec<Arc<TicketShared>>;
    /// Clears executor `slot`'s own in-flight mark, if it keeps one.
    fn release(&mut self, _slot: usize) {}
}

/// The backend's queues plus the front end's lifecycle fields, under
/// one mutex: `draining` closes admissions, `in_flight` counts popped
/// requests whose [`InFlight`] guard is still live. Derefs to `S`.
#[derive(Debug)]
pub(crate) struct Gate<S> {
    pub(crate) draining: bool,
    pub(crate) in_flight: usize,
    backlog: S,
}

impl<S> Deref for Gate<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.backlog
    }
}

impl<S> DerefMut for Gate<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.backlog
    }
}

/// Counters and per-class sojourn reservoirs: one lock per settle.
#[derive(Debug)]
struct Ledger {
    counters: FrontendCounters,
    latency: [LatencyReservoir; Priority::COUNT],
}

impl Ledger {
    /// Estimated wait until a queue slot frees: the recent median
    /// sojourn times the number of service "rounds" ahead of a new
    /// arrival, clamped to a sane range. Purely advisory.
    fn retry_hint(&self, depth: usize, servers: usize) -> Duration {
        let p50 = self
            .latency
            .iter()
            .map(LatencyReservoir::summary)
            .filter(|s| s.count > 0)
            .map(|s| s.p50)
            .fold(0.0f64, f64::max);
        let p50 = if p50 > 0.0 { p50 } else { 0.025 };
        let rounds = depth.div_ceil(servers.max(1)).max(1);
        Duration::from_secs_f64((p50 * rounds as f64).clamp(0.001, 5.0))
    }
}

/// Sizing of a [`Frontend`]: the queue bound (minimum 1), the requests
/// served in parallel (one "round" of the retry hint), the deadline of
/// requests that set none, and the seed of the latency reservoirs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admission {
    pub(crate) capacity: usize,
    pub(crate) servers: usize,
    pub(crate) default_deadline: Option<Duration>,
    pub(crate) seed: u64,
}

/// The shared front end over a backend whose queues are `S`.
#[derive(Debug)]
pub(crate) struct Frontend<S> {
    state: Mutex<Gate<S>>,
    ledger: Mutex<Ledger>,
    /// Executors wait here for admissions, requeues and drain.
    work_cv: Condvar,
    /// Drain waits here for in-flight requests to be released.
    idle_cv: Condvar,
    /// Parent token of every attempt; cancelled at drain.
    drain_token: CancelToken,
    next_id: AtomicU64,
    admission: Admission,
}

impl<S: Backlog> Frontend<S> {
    pub(crate) fn new(backlog: S, admission: Admission) -> Self {
        let reservoir = |salt: u64| {
            LatencyReservoir::new(DEFAULT_RESERVOIR_CAPACITY, admission.seed.wrapping_add(salt))
        };
        Frontend {
            state: Mutex::new(Gate { draining: false, in_flight: 0, backlog }),
            ledger: Mutex::new(Ledger {
                counters: FrontendCounters::default(),
                latency: [reservoir(1), reservoir(2)],
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            drain_token: CancelToken::new(),
            next_id: AtomicU64::new(0),
            admission: Admission { capacity: admission.capacity.max(1), ..admission },
        }
    }

    /// The backend's state lock.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Gate<S>> {
        lock(&self.state)
    }

    /// Blocks until work may have arrived or `timeout` passes.
    pub(crate) fn wait_for_work<'a>(
        &self,
        state: MutexGuard<'a, Gate<S>>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, Gate<S>> {
        match timeout {
            Some(timeout) => {
                self.work_cv.wait_timeout(state, timeout).unwrap_or_else(PoisonError::into_inner).0
            }
            None => self.work_cv.wait(state).unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Wakes every executor waiting for work.
    pub(crate) fn wake_all(&self) {
        self.work_cv.notify_all();
    }

    /// The token every attempt runs under; cancelled at drain.
    pub(crate) fn drain_token(&self) -> &CancelToken {
        &self.drain_token
    }

    /// Admits one request, or rejects it with
    /// [`PipelineError::ServiceStopped`] while draining or
    /// [`PipelineError::Overloaded`] at capacity. The ticket is booked
    /// as accepted before `enqueue` places it, all under the state lock,
    /// so no executor can see the job before `accepted` counts it.
    pub(crate) fn admit(
        &self,
        priority: Priority,
        deadline: Option<Duration>,
        enqueue: impl FnOnce(&mut S, Arc<TicketShared>),
    ) -> Result<Ticket, PipelineError> {
        let mut state = self.lock();
        if state.draining {
            return Err(PipelineError::ServiceStopped);
        }
        let depth = state.depth();
        let mut ledger = lock(&self.ledger);
        if depth >= self.admission.capacity {
            ledger.counters.rejected_overload += 1;
            let retry_after_hint = ledger.retry_hint(depth, self.admission.servers);
            return Err(PipelineError::Overloaded { queue_depth: depth, retry_after_hint });
        }
        ledger.counters.accepted += 1;
        drop(ledger);
        let ticket = Arc::new(TicketShared {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            priority,
            deadline: deadline.or(self.admission.default_deadline),
            admitted_at: Instant::now(),
            state: Mutex::new(None),
            ready: Condvar::new(),
        });
        enqueue(&mut state, Arc::clone(&ticket));
        drop(state);
        self.work_cv.notify_all();
        Ok(Ticket { shared: ticket })
    }

    /// Sheds `ticket` if its deadline lapsed while queued — nobody is
    /// waiting for the answer. Returns whether the request must not run.
    pub(crate) fn shed_if_lapsed(&self, ticket: &TicketShared) -> bool {
        let Some(deadline) = ticket.deadline else { return false };
        let queued_for = ticket.admitted_at.elapsed();
        if queued_for < deadline {
            return false;
        }
        if ticket.complete(Err(PipelineError::DeadlineShed { queued_for })) {
            lock(&self.ledger).counters.shed_deadline += 1;
        }
        true
    }

    /// Records an executed request's outcome; on the winning write (the
    /// return value) books `completed_ok` (plus `cache_hits` when
    /// `cached`) or `failed` and samples the sojourn, under one lock.
    pub(crate) fn settle(&self, ticket: &TicketShared, outcome: Outcome, cached: bool) -> bool {
        let ok = outcome.is_ok();
        if !ticket.complete(outcome) {
            return false;
        }
        let sojourn = ticket.admitted_at.elapsed().as_secs_f64();
        let mut ledger = lock(&self.ledger);
        if ok {
            ledger.counters.completed_ok += 1;
            ledger.counters.cache_hits += u64::from(cached);
        } else {
            ledger.counters.failed += 1;
        }
        ledger.latency[ticket.priority.index()].record(sojourn);
        true
    }

    /// Fails `ticket` with a panic that escaped its executor's own
    /// handling; books `worker_panics` and `failed` on the winning write.
    pub(crate) fn fail_panicked(&self, ticket: &TicketShared, message: String) -> bool {
        if !ticket.complete(Err(PipelineError::Panicked { message })) {
            return false;
        }
        let mut ledger = lock(&self.ledger);
        ledger.counters.worker_panics += 1;
        ledger.counters.failed += 1;
        true
    }

    /// Fails `tickets` with [`PipelineError::ServiceStopped`]; returns
    /// and books as `drain_flushed` the winning writes.
    pub(crate) fn flush(&self, tickets: impl IntoIterator<Item = Arc<TicketShared>>) -> u64 {
        let flushed = tickets
            .into_iter()
            .filter(|ticket| ticket.complete(Err(PipelineError::ServiceStopped)))
            .count() as u64;
        if flushed > 0 {
            lock(&self.ledger).counters.drain_flushed += flushed;
        }
        flushed
    }

    /// Books an event only a backend sees (failovers, respawns, kills).
    pub(crate) fn book(&self, event: impl FnOnce(&mut FrontendCounters)) {
        event(&mut lock(&self.ledger).counters);
    }

    /// The counters and the per-class sojourn percentiles
    /// (`[interactive, sweep]`), read under one lock.
    pub(crate) fn ledger(&self) -> (FrontendCounters, [LatencySummary; Priority::COUNT]) {
        let ledger = lock(&self.ledger);
        (ledger.counters, [ledger.latency[0].summary(), ledger.latency[1].summary()])
    }

    /// The guard of a request popped for executor `slot` and already
    /// counted in [`Gate::in_flight`]; `None` for control traffic.
    pub(crate) fn in_flight(
        &self,
        ticket: Option<Arc<TicketShared>>,
        slot: usize,
    ) -> InFlight<'_, S> {
        InFlight { front: self, ticket, slot }
    }

    /// The drain steps every backend shares: close admissions, flush the
    /// queues, cancel in-flight attempts, wait up to `timeout` after
    /// `start` for quiescence and, once quiesced, join the backend's
    /// `threads`. Returns the flushed count and whether it quiesced.
    pub(crate) fn drain(
        &self,
        start: Instant,
        timeout: Duration,
        threads: &Mutex<Vec<JoinHandle<()>>>,
    ) -> (u64, bool) {
        let flushed = self.close();
        let quiesced = self.await_quiesced(start, timeout);
        if quiesced {
            for thread in std::mem::take(&mut *lock(threads)) {
                let _ = thread.join();
            }
        }
        (flushed, quiesced)
    }

    /// Closes admissions, flushes every queued ticket (returning how
    /// many) and cancels in-flight attempts.
    fn close(&self) -> u64 {
        let queued = {
            let mut state = self.lock();
            state.draining = true;
            state.take_all()
        };
        self.work_cv.notify_all();
        let flushed = self.flush(queued);
        self.drain_token.cancel();
        flushed
    }

    /// Waits until nothing is in flight or `timeout` after `start`
    /// passed; returns whether the front end quiesced.
    fn await_quiesced(&self, start: Instant, timeout: Duration) -> bool {
        let mut state = self.lock();
        while state.in_flight > 0 {
            let Some(remaining) = timeout.checked_sub(start.elapsed()) else { break };
            state = self
                .idle_cv
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        state.in_flight == 0
    }
}

/// Releases one in-flight request on **every** exit path of its
/// executor, a panic included: a ticket still open when the guard drops
/// fails as panicked, and the in-flight count always comes back down.
pub(crate) struct InFlight<'a, S: Backlog> {
    front: &'a Frontend<S>,
    ticket: Option<Arc<TicketShared>>,
    slot: usize,
}

impl<S: Backlog> InFlight<'_, S> {
    /// The ticket now rides with its requeued job.
    pub(crate) fn hand_off(&mut self) {
        self.ticket = None;
    }
}

impl<S: Backlog> Drop for InFlight<'_, S> {
    fn drop(&mut self) {
        if let Some(ticket) = &self.ticket {
            self.front.fail_panicked(ticket, "panicked while executing this item".to_string());
        }
        let mut state = self.front.lock();
        state.in_flight = state.in_flight.saturating_sub(1);
        state.release(self.slot);
        drop(state);
        self.front.idle_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisPipeline;
    use ascend_arch::ChipSpec;
    use ascend_ops::AddRelu;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::OnceLock;

    const CAPACITY: usize = 4;
    /// Executors: at most this many requests are in flight at once.
    const SERVERS: usize = 2;

    impl Backlog for Lanes<Arc<TicketShared>> {
        fn depth(&self) -> usize {
            self.len()
        }

        fn take_all(&mut self) -> Vec<Arc<TicketShared>> {
            self.drain().collect()
        }
    }

    /// One real result to settle tickets with, computed once.
    fn result() -> Arc<PipelineResult> {
        static RESULT: OnceLock<Arc<PipelineResult>> = OnceLock::new();
        let run = || AnalysisPipeline::new(ChipSpec::training()).run(&AddRelu::new(1 << 10));
        Arc::clone(RESULT.get_or_init(|| run().expect("a valid operator")))
    }

    /// One step of a random interleaving. `n` picks an in-flight request.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Admit; `lapsed` gives the request an already-spent deadline.
        Admit {
            sweep: bool,
            lapsed: bool,
        },
        /// Pop the next request when an executor is free (shedding it
        /// if its deadline lapsed).
        Pop,
        Settle {
            n: usize,
            ok: bool,
        },
        /// Put a request back in its lane, as a failover does.
        Requeue {
            n: usize,
        },
        /// Drop a request's guard without settling it, as a panic does.
        Panic {
            n: usize,
        },
        Drain,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u64..16, any::<bool>(), any::<bool>(), 0usize..SERVERS).prop_map(|(kind, a, b, n)| {
            match kind {
                0..=4 => Op::Admit { sweep: a, lapsed: a && b },
                5..=8 => Op::Pop,
                9..=11 => Op::Settle { n, ok: a },
                12 => Op::Requeue { n },
                13 | 14 => Op::Panic { n },
                _ => Op::Drain,
            }
        })
    }

    /// The plain reference model: lanes of ticket ids, the counters each
    /// step must produce, and which tickets already ended.
    #[derive(Default)]
    struct Model {
        counters: FrontendCounters,
        lanes: [VecDeque<(u64, bool)>; Priority::COUNT],
        ended: HashSet<u64>,
        draining: bool,
    }

    impl Model {
        fn depth(&self) -> usize {
            self.lanes.iter().map(VecDeque::len).sum()
        }

        /// Ends ticket `id`, failing the case if it had already ended.
        fn end(&mut self, id: u64) -> Result<(), TestCaseError> {
            prop_assert!(self.ended.insert(id), "ticket {id} reached a second terminal state");
            Ok(())
        }

        /// Flushes both lanes, as drain does.
        fn flush(&mut self) -> Result<u64, TestCaseError> {
            let queued: Vec<_> = self.lanes.iter_mut().flat_map(|lane| lane.drain(..)).collect();
            for &(id, _) in &queued {
                self.end(id)?;
            }
            self.counters.drain_flushed += queued.len() as u64;
            self.draining = true;
            Ok(queued.len() as u64)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn ledger_matches_a_reference_model(ops in prop::collection::vec(op(), 1..64)) {
            let front = Frontend::new(Lanes::default(), Admission {
                capacity: CAPACITY,
                servers: SERVERS,
                default_deadline: None,
                seed: 1,
            });
            let (mut model, mut tickets, mut running) = (Model::default(), Vec::new(), Vec::new());
            for op in ops {
                match op {
                    Op::Admit { sweep, lapsed } => {
                        let class = if sweep { Priority::Sweep } else { Priority::Interactive };
                        let deadline = lapsed.then_some(Duration::ZERO);
                        match front.admit(class, deadline, |lanes, t| lanes.push(class, t)) {
                            Ok(ticket) => {
                                prop_assert!(!model.draining && model.depth() < CAPACITY);
                                model.counters.accepted += 1;
                                model.lanes[class.index()].push_back((ticket.id(), lapsed));
                                tickets.push(ticket);
                            }
                            Err(PipelineError::ServiceStopped) => prop_assert!(model.draining),
                            Err(PipelineError::Overloaded { queue_depth, retry_after_hint }) => {
                                prop_assert!(!model.draining && model.depth() >= CAPACITY);
                                prop_assert_eq!(queue_depth, model.depth());
                                prop_assert!(retry_after_hint >= Duration::from_millis(1));
                                model.counters.rejected_overload += 1;
                            }
                            Err(other) => prop_assert!(false, "unexpected rejection {other:?}"),
                        }
                    }
                    Op::Pop if running.len() < SERVERS => {
                        let popped = {
                            let mut state = front.lock();
                            let ticket = state.pop();
                            state.in_flight += usize::from(ticket.is_some());
                            ticket
                        };
                        // Interactive before sweep, each lane in FIFO order.
                        let expected = model.lanes.iter_mut().find_map(VecDeque::pop_front);
                        prop_assert_eq!(popped.as_ref().map(|t| t.id), expected.map(|(id, _)| id));
                        let (Some(ticket), Some((id, lapsed))) = (popped, expected) else { continue };
                        let guard = front.in_flight(Some(Arc::clone(&ticket)), 0);
                        prop_assert_eq!(front.shed_if_lapsed(&ticket), lapsed);
                        if lapsed {
                            model.end(id)?;
                            model.counters.shed_deadline += 1;
                        } else {
                            running.push((ticket, guard));
                        }
                    }
                    Op::Settle { n, ok } if n < running.len() => {
                        let (ticket, _guard) = running.remove(n);
                        let outcome = if ok { Ok(result()) } else { Err(PipelineError::ServiceStopped) };
                        prop_assert!(front.settle(&ticket, outcome, ok));
                        prop_assert!(!front.settle(&ticket, Err(PipelineError::ServiceStopped), ok));
                        model.end(ticket.id)?;
                        model.counters.completed_ok += u64::from(ok);
                        model.counters.cache_hits += u64::from(ok);
                        model.counters.failed += u64::from(!ok);
                    }
                    Op::Requeue { n } if n < running.len() => {
                        let (ticket, mut guard) = running.remove(n);
                        guard.hand_off();
                        model.lanes[ticket.priority.index()].push_back((ticket.id, false));
                        front.lock().push(ticket.priority, ticket);
                        front.book(|counters| counters.failovers += 1);
                        model.counters.failovers += 1;
                    }
                    Op::Panic { n } if n < running.len() => {
                        let (ticket, guard) = running.remove(n);
                        drop(guard);
                        model.end(ticket.id)?;
                        model.counters.worker_panics += 1;
                        model.counters.failed += 1;
                    }
                    Op::Drain => prop_assert_eq!(front.close(), model.flush()?),
                    Op::Pop | Op::Settle { .. } | Op::Requeue { .. } | Op::Panic { .. } => {}
                }
                prop_assert_eq!(front.ledger().0, model.counters);
                let state = front.lock();
                prop_assert_eq!((state.depth(), state.in_flight), (model.depth(), running.len()));
                // Admission bounds the queue; a requeue may return an
                // admitted job above it, at most one per executor.
                prop_assert!(state.depth() + state.in_flight <= CAPACITY + SERVERS);
            }

            // Drain: flush the lanes, then the cancelled attempts fail.
            prop_assert_eq!(front.close(), model.flush()?);
            for (ticket, _guard) in running.drain(..) {
                prop_assert!(front.settle(&ticket, Err(PipelineError::ServiceStopped), false));
                model.end(ticket.id)?;
                model.counters.failed += 1;
            }
            prop_assert!(front.await_quiesced(Instant::now(), Duration::ZERO));
            let (counters, [interactive, sweep]) = front.ledger();
            prop_assert_eq!(counters, model.counters);
            prop_assert_eq!(counters.terminal_states(), counters.accepted);
            let executed = counters.completed_ok + counters.failed - counters.worker_panics;
            prop_assert_eq!(interactive.count + sweep.count, executed);
            for ticket in &tickets {
                prop_assert!(ticket.try_result().is_some() && model.ended.contains(&ticket.id()));
            }
            let late = front.admit(Priority::Interactive, None, |_, _| {});
            prop_assert!(matches!(late, Err(PipelineError::ServiceStopped)));
        }
    }
}
