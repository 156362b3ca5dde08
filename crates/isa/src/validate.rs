//! Static kernel validation: capacities, paths, precisions, and the
//! synchronization graph.

use crate::{Instruction, IsaError, Kernel};
use ascend_arch::{ChipSpec, Component};

/// Validates `kernel` against `chip`.
///
/// Checks, in order:
///
/// 1. the kernel is non-empty;
/// 2. every region fits its buffer's capacity;
/// 3. every compute instruction's precision is supported by its unit;
/// 4. every flag has at least as many `set_flag`s as `wait_flag`s, and no
///    flag is set and awaited on the same queue;
/// 5. the synchronization graph (per-queue program order ∪ matched
///    set→wait edges ∪ barrier edges) is acyclic, i.e. the kernel cannot
///    deadlock under in-order per-queue execution;
/// 6. when a flag is awaited more than once, the waits are totally
///    ordered by that same graph, so which wait consumes which set cannot
///    depend on execution timing.
///
/// Rules 1–4 take one pass over the kernel, which also counts each flag's
/// sets and waits in program order. That pass decides whether rules 5
/// and 6 need the graph at all. Program-order and barrier edges always
/// point from a lower instruction index to a higher one. The *k*-th
/// set→wait edge of a flag does too when the *k*-th set precedes the
/// *k*-th wait. When that holds for every wait, every edge points forward,
/// so the graph is acyclic and rule 5 holds. When no flag is awaited
/// twice, rule 6 has no pair of waits to order. The graph is therefore
/// built only when some wait precedes its matched set, or some flag is
/// awaited more than once; otherwise a kernel that passes rules 1–4 is
/// accepted without it.
///
/// When several violations exist, the one reported is the first rule
/// above that fails; within a rule, the first offending instruction in
/// program order, or for rules 4 (unmatched waits) and 6, the lowest flag
/// id and, for rule 6, that flag's first unordered pair of waits.
///
/// # Errors
///
/// Returns the first violated rule as an [`IsaError`].
pub fn validate(kernel: &Kernel, chip: &ChipSpec) -> Result<(), IsaError> {
    if kernel.is_empty() {
        return Err(IsaError::EmptyKernel);
    }
    let slots = FlagSlots::new(kernel);
    let mut flags = vec![FlagCount::default(); slots.len()];
    let mut precision_error = None;
    let mut self_sync = None;
    let mut needs_graph = false;
    for instr in kernel {
        // Region errors outrank every other rule, so the first one is the
        // answer; the later rules only remember their first violation.
        check_regions(instr, chip)?;
        match instr {
            Instruction::Compute(c) if !c.unit.supports(c.precision) => {
                precision_error.get_or_insert(IsaError::UnsupportedPrecision {
                    unit: c.unit,
                    precision: c.precision,
                });
            }
            Instruction::SetFlag { queue, flag } => {
                let count = &mut flags[slots.slot(flag.raw())];
                count.sets += 1;
                count.set_queues |= queue_bit(*queue);
            }
            Instruction::WaitFlag { queue, flag } => {
                let count = &mut flags[slots.slot(flag.raw())];
                if count.set_queues & queue_bit(*queue) != 0 {
                    self_sync.get_or_insert(IsaError::SelfSync { queue: *queue, flag: flag.raw() });
                }
                // The first wait's matched set is the first set: if none
                // precedes it, its edge points backward. A second wait
                // brings rule 6 in.
                needs_graph |= count.sets == 0 || count.waits > 0;
                count.waits += 1;
            }
            _ => {}
        }
    }
    if let Some(err) = precision_error.or(self_sync) {
        return Err(err);
    }
    if let Some((slot, count)) = flags.iter().enumerate().find(|(_, c)| c.waits > c.sets) {
        return Err(IsaError::UnmatchedWait {
            flag: slots.raw(slot),
            sets: count.sets,
            waits: count.waits,
        });
    }
    if needs_graph {
        check_sync_graph(kernel, &slots)
    } else {
        Ok(())
    }
}

fn check_regions(instr: &Instruction, chip: &ChipSpec) -> Result<(), IsaError> {
    for region in instr.reads().iter().chain(instr.writes()) {
        // A buffer absent from the spec is a spec hole, not an oversized
        // region; reporting `capacity: 0` here used to mask the real
        // ArchError.
        let capacity = chip
            .capacity(region.buffer())
            .map_err(|_| IsaError::UnknownBuffer { buffer: region.buffer() })?;
        if region.end() > capacity {
            return Err(IsaError::RegionOutOfBounds {
                buffer: region.buffer(),
                end: region.end(),
                capacity,
            });
        }
    }
    Ok(())
}

fn queue_bit(queue: Component) -> u8 {
    1 << queue.index()
}

/// One flag's sets and waits, counted in program order.
#[derive(Debug, Clone, Copy, Default)]
struct FlagCount {
    sets: usize,
    waits: usize,
    /// Bit `Component::index` is set once that queue has set the flag.
    set_queues: u8,
}

/// Maps raw flag ids onto the dense slots of a per-flag table, in
/// ascending id order.
enum FlagSlots {
    /// Ids index the table directly; it has this many slots.
    Direct(usize),
    /// Sparse ids: a slot is the id's position in this sorted,
    /// deduplicated list.
    Sorted(Vec<u32>),
}

impl FlagSlots {
    /// Builder kernels number their flags from 0, so their largest id is
    /// below this bound and costs no lookup; a text kernel may name any
    /// `u32`, which must not size the table.
    fn new(kernel: &Kernel) -> Self {
        let ids = kernel.iter().filter_map(|instr| match instr {
            Instruction::SetFlag { flag, .. } | Instruction::WaitFlag { flag, .. } => {
                Some(flag.raw())
            }
            _ => None,
        });
        let direct_limit = 2 * kernel.len() + 64;
        match ids.clone().max() {
            None => FlagSlots::Direct(0),
            Some(max) if (max as usize) < direct_limit => FlagSlots::Direct(max as usize + 1),
            Some(_) => {
                let mut sorted: Vec<u32> = ids.collect();
                sorted.sort_unstable();
                sorted.dedup();
                FlagSlots::Sorted(sorted)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            FlagSlots::Direct(len) => *len,
            FlagSlots::Sorted(ids) => ids.len(),
        }
    }

    fn slot(&self, raw: u32) -> usize {
        match self {
            FlagSlots::Direct(_) => raw as usize,
            FlagSlots::Sorted(ids) => {
                ids.binary_search(&raw).expect("the table holds every flag id of the kernel")
            }
        }
    }

    fn raw(&self, slot: usize) -> u32 {
        match self {
            FlagSlots::Direct(_) => u32::try_from(slot).expect("direct slots are u32 flag ids"),
            FlagSlots::Sorted(ids) => ids[slot],
        }
    }
}

/// Rows of values in compressed form: `row(r)` lists, in insertion order,
/// every value paired with row `r`.
struct Rows {
    start: Vec<usize>,
    values: Vec<usize>,
}

impl Rows {
    fn new(rows: usize, pairs: &[(usize, usize)]) -> Self {
        let mut start = vec![0; rows + 1];
        for &(row, _) in pairs {
            start[row + 1] += 1;
        }
        for row in 0..rows {
            start[row + 1] += start[row];
        }
        let mut next = start.clone();
        let mut values = vec![0; pairs.len()];
        for &(row, value) in pairs {
            values[next[row]] = value;
            next[row] += 1;
        }
        Rows { start, values }
    }

    fn row(&self, row: usize) -> &[usize] {
        &self.values[self.start[row]..self.start[row + 1]]
    }
}

/// Builds the happens-before graph, rejects cycles, and checks that every
/// flag's repeated waits are ordered.
///
/// Nodes are instruction indices. Edges:
/// - consecutive instructions on the same queue (program order per queue);
/// - the *k*-th `set_flag(f)` → the *k*-th `wait_flag(f)` (counting
///   semantics match sets to waits in program order);
/// - everything dispatched before a `Barrier` → the barrier, and the
///   barrier → everything after it.
fn check_sync_graph(kernel: &Kernel, slots: &FlagSlots) -> Result<(), IsaError> {
    let n = kernel.len();
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(2 * n);
    // The subset of `edges` that is *unconditionally* respected by every
    // timing the engine can realize: program order (queues are in-order)
    // and barrier edges (the dispatcher stalls). Set→wait edges are added
    // below only for single-set/single-wait flags, where the lone
    // increment cannot be consumed by anyone else. The wait-ordering
    // check must restrict itself to this subgraph — a path through a
    // multi-set flag's set→wait edge would assume the very index-order
    // consumption it is trying to prove.
    let mut sound: Vec<(usize, usize)> = Vec::with_capacity(2 * n);
    let mut set_positions: Vec<(usize, usize)> = Vec::new();
    let mut wait_positions: Vec<(usize, usize)> = Vec::new();

    let mut last_on_queue: [Option<usize>; Component::ALL.len()] = [None; Component::ALL.len()];
    let mut last_barrier: Option<usize> = None;
    for (i, instr) in kernel.iter().enumerate() {
        match instr.queue() {
            Some(queue) => {
                if let Some(prev) = last_on_queue[queue.index()].replace(i) {
                    edges.push((prev, i));
                    sound.push((prev, i));
                }
                if let Some(b) = last_barrier {
                    edges.push((b, i));
                    sound.push((b, i));
                }
            }
            None => {
                // Barrier: everything in the current segment must finish
                // first (earlier segments are ordered transitively through
                // the previous barrier). The segment holds no barrier, so
                // it is every index since the last one.
                let segment_start = last_barrier.map_or(0, |b| b + 1);
                for j in segment_start..i {
                    edges.push((j, i));
                    sound.push((j, i));
                }
                if let Some(b) = last_barrier {
                    edges.push((b, i));
                    sound.push((b, i));
                }
                last_barrier = Some(i);
                last_on_queue = [None; Component::ALL.len()];
            }
        }
        match instr {
            Instruction::SetFlag { flag, .. } => set_positions.push((slots.slot(flag.raw()), i)),
            Instruction::WaitFlag { flag, .. } => wait_positions.push((slots.slot(flag.raw()), i)),
            _ => {}
        }
    }

    let sets = Rows::new(slots.len(), &set_positions);
    let waits = Rows::new(slots.len(), &wait_positions);
    for slot in 0..slots.len() {
        let (sets, waits) = (sets.row(slot), waits.row(slot));
        edges.extend(sets.iter().zip(waits).map(|(&set, &wait)| (set, wait)));
        if let ([set], [wait]) = (sets, waits) {
            sound.push((*set, *wait));
        }
    }
    let graph = Rows::new(n, &edges);

    // Kahn's algorithm; a leftover node means a cycle.
    let mut indegree = vec![0usize; n];
    for &t in &graph.values {
        indegree[t] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut visited = 0usize;
    while let Some(node) = stack.pop() {
        visited += 1;
        for &t in graph.row(node) {
            indegree[t] -= 1;
            if indegree[t] == 0 {
                stack.push(t);
            }
        }
    }
    if visited != n {
        let at = indegree.iter().position(|&d| d > 0).unwrap_or(0);
        return Err(IsaError::SyncCycle { at });
    }

    // The set→wait edges above pair the k-th set with the k-th wait, but
    // the engine hands increments to whichever wait *starts* first. The
    // static pairing is only a sound model of that temporal race when the
    // waits of each flag are totally ordered — each wait completing
    // before the next can start — under *every* timing. Reachability in
    // the `sound` subgraph proves exactly that: its interior edges all
    // imply completes-no-later-than, and every sound in-edge of a
    // multi-wait flag's wait gates that wait's start (program order or
    // barrier; sound set→wait edges only target single-wait flags).
    // Without this, a wait on a fast queue can steal an increment meant
    // for an earlier-indexed wait whose remaining producer sits behind it
    // — a timing-dependent deadlock (found by the differential fuzzer).
    let forward_only = sound.iter().all(|&(from, to)| from < to);
    let sound = Rows::new(n, &sound);
    let mut search = Reachability::new(n);
    for slot in 0..slots.len() {
        for pair in waits.row(slot).windows(2) {
            if !search.reaches(&sound, pair[0], pair[1], forward_only) {
                return Err(IsaError::UnorderedWaits {
                    flag: slots.raw(slot),
                    first: pair[0],
                    second: pair[1],
                });
            }
        }
    }
    Ok(())
}

/// Depth-first reachability queries that share one visited buffer: each
/// query stamps the nodes it visits with a fresh epoch instead of
/// clearing the buffer, so a query costs only the nodes it visits.
struct Reachability {
    seen: Vec<usize>,
    epoch: usize,
    stack: Vec<usize>,
}

impl Reachability {
    fn new(n: usize) -> Self {
        Reachability { seen: vec![0; n], epoch: 0, stack: Vec::new() }
    }

    /// Whether `to` is reachable from `from` in the (acyclic) `graph`.
    /// When every edge is `forward_only` (lower index to higher), no path
    /// to `to` passes a node above it, so the search skips those.
    fn reaches(&mut self, graph: &Rows, from: usize, to: usize, forward_only: bool) -> bool {
        let limit = if forward_only { to } else { usize::MAX };
        self.epoch += 1;
        self.stack.clear();
        self.stack.push(from);
        self.seen[from] = self.epoch;
        while let Some(node) = self.stack.pop() {
            if node == to {
                return true;
            }
            for &next in graph.row(node) {
                if next <= limit && self.seen[next] != self.epoch {
                    self.seen[next] = self.epoch;
                    self.stack.push(next);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlagId, KernelBuilder, Region};
    use ascend_arch::{Buffer, Component, ComputeUnit, Precision, TransferPath};

    fn chip() -> ChipSpec {
        ChipSpec::training()
    }

    #[test]
    fn empty_kernel_is_rejected() {
        let k = KernelBuilder::new("empty").build();
        assert_eq!(validate(&k, &chip()), Err(IsaError::EmptyKernel));
    }

    #[test]
    fn valid_pipeline_passes() {
        let gm = Region::new(Buffer::Gm, 0, 1024);
        let ub = Region::new(Buffer::Ub, 0, 1024);
        let out = Region::new(Buffer::Gm, 4096, 1024);
        let mut b = KernelBuilder::new("ok");
        let loaded = b.new_flag();
        let done = b.new_flag();
        b.transfer(TransferPath::GmToUb, gm, ub).unwrap();
        b.set_flag(Component::MteGm, loaded);
        b.wait_flag(Component::Vector, loaded);
        b.compute(ComputeUnit::Vector, Precision::Fp16, 512, vec![ub], vec![ub]);
        b.set_flag(Component::Vector, done);
        b.wait_flag(Component::MteUb, done);
        b.transfer(TransferPath::UbToGm, ub, out).unwrap();
        assert_eq!(validate(&b.build(), &chip()), Ok(()));
    }

    #[test]
    fn oversized_region_is_rejected() {
        let huge = Region::new(Buffer::L0A, 0, 1 << 30);
        let gm = Region::new(Buffer::Gm, 0, 1 << 30);
        let mut b = KernelBuilder::new("big");
        b.transfer(TransferPath::GmToL0A, gm, huge).unwrap();
        assert!(matches!(
            validate(&b.build(), &chip()),
            Err(IsaError::RegionOutOfBounds { buffer: Buffer::L0A, .. })
        ));
    }

    /// A training spec with the L0A capacity entry removed, built through
    /// a serde round-trip (the capacity table is private by design).
    fn chip_without_l0a() -> ChipSpec {
        let serde::Value::Object(mut map) = serde_json::to_value(&chip()) else {
            panic!("chip specs serialize as objects")
        };
        let serde::Value::Array(caps) = map.remove("capacities").expect("capacities field") else {
            panic!("capacities serialize as an array")
        };
        let caps = caps
            .into_iter()
            .filter(|cap| cap.get("buffer").and_then(serde::Value::as_str) != Some("L0A"))
            .collect();
        map.insert("capacities".to_owned(), serde::Value::Array(caps));
        let json = serde_json::to_string(&serde::Value::Object(map)).unwrap();
        serde_json::from_str(&json).expect("holed spec still deserializes")
    }

    #[test]
    fn unknown_buffer_is_reported_distinctly() {
        // A buffer absent from the spec must be named as the spec hole it
        // is, not reported as `RegionOutOfBounds { capacity: 0 }`.
        let holed = chip_without_l0a();
        assert!(holed.capacity(Buffer::L0A).is_err());

        let l0a = Region::new(Buffer::L0A, 0, 128);
        let gm = Region::new(Buffer::Gm, 0, 128);
        let mut b = KernelBuilder::new("holed");
        b.transfer(TransferPath::GmToL0A, gm, l0a).unwrap();
        assert_eq!(
            validate(&b.build(), &holed),
            Err(IsaError::UnknownBuffer { buffer: Buffer::L0A })
        );
    }

    #[test]
    fn cube_fp32_is_rejected() {
        let l0c = Region::new(Buffer::L0C, 0, 64);
        let mut b = KernelBuilder::new("badprec");
        b.compute(ComputeUnit::Cube, Precision::Fp32, 64, vec![], vec![l0c]);
        assert_eq!(
            validate(&b.build(), &chip()),
            Err(IsaError::UnsupportedPrecision {
                unit: ComputeUnit::Cube,
                precision: Precision::Fp32
            })
        );
    }

    #[test]
    fn unmatched_wait_is_rejected() {
        let mut b = KernelBuilder::new("hang");
        let f = b.new_flag();
        b.wait_flag(Component::Vector, f);
        assert_eq!(
            validate(&b.build(), &chip()),
            Err(IsaError::UnmatchedWait { flag: 0, sets: 0, waits: 1 })
        );
    }

    #[test]
    fn self_sync_is_rejected() {
        let mut b = KernelBuilder::new("self");
        let f = b.new_flag();
        b.set_flag(Component::Vector, f);
        b.wait_flag(Component::Vector, f);
        assert_eq!(
            validate(&b.build(), &chip()),
            Err(IsaError::SelfSync { queue: Component::Vector, flag: 0 })
        );
    }

    #[test]
    fn cross_wait_deadlock_is_rejected() {
        // Queue A waits for a flag set behind queue B's wait for a flag set
        // behind queue A's wait: a 2-cycle.
        let mut b = KernelBuilder::new("deadlock");
        let fa = b.new_flag();
        let fb = b.new_flag();
        b.wait_flag(Component::Vector, fa); // Vector blocks on fa
        b.set_flag(Component::Vector, fb); // ... then would set fb
        b.wait_flag(Component::MteGm, fb); // MteGm blocks on fb
        b.set_flag(Component::MteGm, fa); // ... then would set fa
        assert!(matches!(validate(&b.build(), &chip()), Err(IsaError::SyncCycle { .. })));
    }

    #[test]
    fn forward_only_flags_are_fine_even_when_wait_precedes_set() {
        // wait dispatched before set, but on different queues: legal.
        let mut b = KernelBuilder::new("forward");
        let f = b.new_flag();
        b.wait_flag(Component::Vector, f);
        b.set_flag(Component::MteGm, f);
        assert_eq!(validate(&b.build(), &chip()), Ok(()));
    }

    #[test]
    fn timing_dependent_wait_order_is_rejected() {
        // Three sets and three waits of one flag. The first two sets fire
        // quickly; the waits on cube and vector (fast, empty queues) can
        // start before mte-l1's wait and steal both increments. mte-l1's
        // only remaining producer then sits *behind* its wait on the same
        // queue: deadlock under one timing, completion under another. The
        // validator must reject regardless of which timing the engine
        // happens to realize.
        let mut b = KernelBuilder::new("steal");
        let f = b.new_flag();
        b.set_flag(Component::MteUb, f);
        b.set_flag(Component::Scalar, f);
        b.wait_flag(Component::MteL1, f);
        b.set_flag(Component::MteL1, f);
        b.wait_flag(Component::Cube, f);
        b.wait_flag(Component::Vector, f);
        assert!(matches!(
            validate(&b.build(), &chip()),
            Err(IsaError::UnorderedWaits { flag: 0, .. })
        ));
    }

    #[test]
    fn ordered_repeated_waits_are_accepted() {
        // Two waits of the same flag are fine when the graph orders them:
        // here both sit on the same queue, so program order decides which
        // consumes first under every timing.
        let mut b = KernelBuilder::new("ordered");
        let f = b.new_flag();
        b.set_flag(Component::MteGm, f);
        b.wait_flag(Component::Vector, f);
        b.set_flag(Component::Scalar, f);
        b.wait_flag(Component::Vector, f);
        assert_eq!(validate(&b.build(), &chip()), Ok(()));
    }

    #[test]
    fn cross_queue_waits_chained_through_a_private_flag_are_accepted() {
        // Repeated waits of `f` on different queues, ordered through a
        // single-set/single-wait flag `g`: vector's wait completes, vector
        // sets g, cube waits g before its own wait of f. The unique-token
        // edge of g makes the ordering timing-independent.
        let mut b = KernelBuilder::new("chained");
        let f = b.new_flag();
        let g = b.new_flag();
        b.set_flag(Component::MteGm, f);
        b.wait_flag(Component::Vector, f);
        b.set_flag(Component::Vector, g);
        b.set_flag(Component::Scalar, f);
        b.wait_flag(Component::Cube, g);
        b.wait_flag(Component::Cube, f);
        assert_eq!(validate(&b.build(), &chip()), Ok(()));
    }

    #[test]
    fn barrier_orders_everything() {
        let mut b = KernelBuilder::new("barrier");
        let f = b.new_flag();
        b.set_flag(Component::MteGm, f);
        b.barrier_all();
        b.wait_flag(Component::Vector, f);
        assert_eq!(validate(&b.build(), &chip()), Ok(()));
    }

    #[test]
    fn repeated_waits_ordered_through_a_later_lone_set_are_accepted() {
        // The sound path from f's first wait to its second runs through
        // g's lone set, which sits *after* the second wait: the search
        // must not stop at the second wait's index when an edge points
        // backward.
        let mut b = KernelBuilder::new("backward");
        let f = b.new_flag();
        let g = b.new_flag();
        b.set_flag(Component::MteGm, f);
        b.wait_flag(Component::Vector, f);
        b.wait_flag(Component::Cube, g);
        b.set_flag(Component::Scalar, f);
        b.wait_flag(Component::Cube, f);
        b.set_flag(Component::Vector, g);
        assert_eq!(validate(&b.build(), &chip()), Ok(()));
    }

    #[test]
    fn unmatched_wait_names_the_lowest_flag_on_every_call() {
        let mut b = KernelBuilder::new("two_unmatched");
        b.set_flag(Component::MteGm, FlagId::new(3));
        b.wait_flag(Component::Vector, FlagId::new(3));
        b.wait_flag(Component::Vector, FlagId::new(3));
        b.wait_flag(Component::Cube, FlagId::new(1));
        let kernel = b.build();
        for _ in 0..64 {
            assert_eq!(
                validate(&kernel, &chip()),
                Err(IsaError::UnmatchedWait { flag: 1, sets: 0, waits: 1 })
            );
        }
    }

    #[test]
    fn unordered_waits_name_the_lowest_flag_and_its_first_pair_on_every_call() {
        // The stealing pattern of `timing_dependent_wait_order_is_rejected`
        // on flag 3, then again on flag 1.
        let mut b = KernelBuilder::new("two_unordered");
        for flag in [FlagId::new(3), FlagId::new(1)] {
            b.set_flag(Component::MteUb, flag);
            b.set_flag(Component::Scalar, flag);
            b.wait_flag(Component::MteL1, flag);
            b.set_flag(Component::MteL1, flag);
            b.wait_flag(Component::Cube, flag);
            b.wait_flag(Component::Vector, flag);
        }
        let kernel = b.build();
        for _ in 0..64 {
            assert_eq!(
                validate(&kernel, &chip()),
                Err(IsaError::UnorderedWaits { flag: 1, first: 8, second: 10 })
            );
        }
    }
}
