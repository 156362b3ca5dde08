//! The one-pass validator against the validator it replaced.
//!
//! `reference::validate_reference` is `ascend_isa::validate` as it stood
//! before validation became one pass that builds the synchronization
//! graph only on demand, kept verbatim as an oracle, the way
//! `ReferenceSimulator` guards the engine. The two must agree on every
//! kernel: the same `Ok`, the same error variant and the same fields.
//! `UnmatchedWait` and `UnorderedWaits` are compared by kind only: when
//! several flags violate, the oracle names whichever flag its `HashMap`
//! yields first, while `validate` names the lowest flag id.
//!
//! The vendored proptest honors a `PROPTEST_CASES` environment variable,
//! which CI's fuzz job uses to run a deeper sweep than the local default.

use ascend::arch::{ChipSpec, Component};
use ascend::faults::{generator, FaultPlan, SplitMix64};
use ascend::isa::{validate, FlagId, IsaError, Kernel, KernelBuilder};
use ascend::models::zoo;
use ascend::ops::OptFlags;
use proptest::prelude::*;

mod reference {
    use ascend::arch as ascend_arch;
    use ascend::isa::{Instruction, IsaError, Kernel};
    use ascend_arch::ChipSpec;
    use std::collections::HashMap;

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
    /// # Errors
    ///
    /// Returns the first violated rule as an [`IsaError`].
    pub fn validate_reference(kernel: &Kernel, chip: &ChipSpec) -> Result<(), IsaError> {
        if kernel.is_empty() {
            return Err(IsaError::EmptyKernel);
        }
        check_regions(kernel, chip)?;
        check_precisions(kernel)?;
        check_flags(kernel)?;
        check_sync_graph(kernel)
    }

    fn check_regions(kernel: &Kernel, chip: &ChipSpec) -> Result<(), IsaError> {
        for instr in kernel {
            for region in instr.reads().iter().chain(instr.writes()) {
                // A buffer absent from the spec is a spec hole, not an
                // oversized region; reporting `capacity: 0` here used to mask
                // the real ArchError.
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
        }
        Ok(())
    }

    fn check_precisions(kernel: &Kernel) -> Result<(), IsaError> {
        for instr in kernel {
            if let Instruction::Compute(c) = instr {
                if !c.unit.supports(c.precision) {
                    return Err(IsaError::UnsupportedPrecision {
                        unit: c.unit,
                        precision: c.precision,
                    });
                }
            }
        }
        Ok(())
    }

    fn check_flags(kernel: &Kernel) -> Result<(), IsaError> {
        let mut sets: HashMap<u32, usize> = HashMap::new();
        let mut waits: HashMap<u32, usize> = HashMap::new();
        let mut set_queues: HashMap<u32, Vec<ascend_arch::Component>> = HashMap::new();
        for instr in kernel {
            match instr {
                Instruction::SetFlag { queue, flag } => {
                    *sets.entry(flag.raw()).or_default() += 1;
                    set_queues.entry(flag.raw()).or_default().push(*queue);
                }
                Instruction::WaitFlag { queue, flag } => {
                    *waits.entry(flag.raw()).or_default() += 1;
                    if set_queues.get(&flag.raw()).is_some_and(|qs| qs.contains(queue)) {
                        return Err(IsaError::SelfSync { queue: *queue, flag: flag.raw() });
                    }
                }
                _ => {}
            }
        }
        for (&flag, &wait_count) in &waits {
            let set_count = sets.get(&flag).copied().unwrap_or(0);
            if set_count < wait_count {
                return Err(IsaError::UnmatchedWait { flag, sets: set_count, waits: wait_count });
            }
        }
        Ok(())
    }

    /// Builds the happens-before graph and rejects cycles.
    ///
    /// Nodes are instruction indices. Edges:
    /// - consecutive instructions on the same queue (program order per queue);
    /// - the *k*-th `set_flag(f)` → the *k*-th `wait_flag(f)` (counting
    ///   semantics match sets to waits in program order);
    /// - everything dispatched before a `Barrier` → the barrier, and the
    ///   barrier → everything after it.
    fn check_sync_graph(kernel: &Kernel) -> Result<(), IsaError> {
        let n = kernel.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        // The subset of `edges` that is *unconditionally* respected by every
        // timing the engine can realize: program order (queues are in-order)
        // and barrier edges (the dispatcher stalls). Set→wait edges are added
        // below only for single-set/single-wait flags, where the lone
        // increment cannot be consumed by anyone else. The wait-ordering
        // check must restrict itself to this subgraph — a path through a
        // multi-set flag's set→wait edge would assume the very index-order
        // consumption it is trying to prove.
        let mut sound: Vec<Vec<usize>> = vec![Vec::new(); n];

        // Per-queue program order.
        let mut last_on_queue: HashMap<ascend_arch::Component, usize> = HashMap::new();
        // Barrier edges.
        let mut last_barrier: Option<usize> = None;
        let mut since_last_barrier: Vec<usize> = Vec::new();
        // Flag matching.
        let mut set_positions: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut wait_positions: HashMap<u32, Vec<usize>> = HashMap::new();

        for (i, instr) in kernel.iter().enumerate() {
            match instr.queue() {
                Some(queue) => {
                    if let Some(&prev) = last_on_queue.get(&queue) {
                        edges[prev].push(i);
                        sound[prev].push(i);
                    }
                    last_on_queue.insert(queue, i);
                    if let Some(b) = last_barrier {
                        edges[b].push(i);
                        sound[b].push(i);
                    }
                    since_last_barrier.push(i);
                }
                None => {
                    // Barrier: everything in the current segment must finish
                    // first (earlier segments are ordered transitively through
                    // the previous barrier).
                    for &j in &since_last_barrier {
                        edges[j].push(i);
                        sound[j].push(i);
                    }
                    if let Some(b) = last_barrier {
                        edges[b].push(i);
                        sound[b].push(i);
                    }
                    since_last_barrier.clear();
                    last_barrier = Some(i);
                    last_on_queue.clear();
                }
            }
            match instr {
                Instruction::SetFlag { flag, .. } => {
                    set_positions.entry(flag.raw()).or_default().push(i);
                }
                Instruction::WaitFlag { flag, .. } => {
                    wait_positions.entry(flag.raw()).or_default().push(i);
                }
                _ => {}
            }
        }

        for (flag, waits) in &wait_positions {
            if let Some(sets) = set_positions.get(flag) {
                for (k, &wait_idx) in waits.iter().enumerate() {
                    if let Some(&set_idx) = sets.get(k) {
                        edges[set_idx].push(wait_idx);
                    }
                }
                if sets.len() == 1 && waits.len() == 1 {
                    sound[sets[0]].push(waits[0]);
                }
            }
        }

        // Kahn's algorithm; a leftover node means a cycle.
        let mut indegree = vec![0usize; n];
        for targets in &edges {
            for &t in targets {
                indegree[t] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(node) = stack.pop() {
            visited += 1;
            for &t in &edges[node] {
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
        for (flag, waits) in &wait_positions {
            for pair in waits.windows(2) {
                if !reachable(&sound, pair[0], pair[1]) {
                    return Err(IsaError::UnorderedWaits {
                        flag: *flag,
                        first: pair[0],
                        second: pair[1],
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether `to` is reachable from `from` in the (acyclic) edge list.
    fn reachable(edges: &[Vec<usize>], from: usize, to: usize) -> bool {
        let mut seen = vec![false; edges.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            for &next in &edges[node] {
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        false
    }
}

/// Checks that `validate` and the oracle agree on `kernel`, and returns
/// the verdict.
fn agree(kernel: &Kernel, chip: &ChipSpec) -> Result<Result<(), IsaError>, String> {
    let new = validate(kernel, chip);
    let old = reference::validate_reference(kernel, chip);
    let same = match (&new, &old) {
        (Err(IsaError::UnmatchedWait { .. }), Err(IsaError::UnmatchedWait { .. }))
        | (Err(IsaError::UnorderedWaits { .. }), Err(IsaError::UnorderedWaits { .. })) => true,
        _ => new == old,
    };
    if same {
        Ok(new)
    } else {
        Err(format!("{}: validate says {new:?}, the reference {old:?}", kernel.name()))
    }
}

/// The Section 5 flag subsets the `campaign_cold` benchmark workload
/// crosses every zoo operator with.
const CAMPAIGN_SUBSETS: [fn(OptFlags) -> OptFlags; 6] = [
    |f| f,
    |f| f.rsd(true).mrt(true),
    |f| f.ais(true).rus(true),
    |f| f.pp(true),
    |f| f.itg(true).ais(true),
    |f| f.aip(true).rus(true),
];

#[test]
fn every_campaign_kernel_agrees() {
    let chip = ChipSpec::training();
    let mut checked = 0;
    for model in zoo::all_training() {
        for invocation in model.ops() {
            let op = invocation.operator();
            for subset in CAMPAIGN_SUBSETS {
                let kernel = op
                    .with_flags_dyn(subset(op.flags()))
                    .build(&chip)
                    .expect("zoo operators build");
                assert_eq!(agree(&kernel, &chip), Ok(Ok(())));
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 570);
}

/// `set f@mte-gm; wait f@vector; set g@vector; wait g@mte-gm`, repeated
/// to `len` instructions: two flags reused for the whole kernel, the way
/// real Ascend kernels reuse their few event ids. Every wait after the
/// first of its flag takes the graph path.
fn flag_reuse(len: usize) -> Kernel {
    let mut b = KernelBuilder::new(format!("flag_reuse#{len}"));
    let f = b.new_flag();
    let g = b.new_flag();
    for _ in 0..len / 4 {
        b.set_flag(Component::MteGm, f);
        b.wait_flag(Component::Vector, f);
        b.set_flag(Component::Vector, g);
        b.wait_flag(Component::MteGm, g);
    }
    b.build()
}

/// `set f@mte-gm; wait f@vector; barrier`, repeated to `len`
/// instructions: one flag reused across barrier-separated tiles.
fn barrier_reuse(len: usize) -> Kernel {
    let mut b = KernelBuilder::new(format!("barrier_reuse#{len}"));
    let f = b.new_flag();
    for _ in 0..len / 3 {
        b.set_flag(Component::MteGm, f);
        b.wait_flag(Component::Vector, f);
        b.barrier_all();
    }
    b.build()
}

#[test]
fn flag_reuse_families_agree() {
    let chip = ChipSpec::training();
    for len in [4, 40, 400, 4000] {
        assert_eq!(agree(&flag_reuse(len), &chip), Ok(Ok(())));
        assert_eq!(agree(&barrier_reuse(len), &chip), Ok(Ok(())));
    }
}

/// Builds a kernel from `(queue, flag)` steps: `Some(queue)` with a flag
/// id sets (`set: true`) or waits on it; `None` is a barrier.
fn sync_kernel(name: &str, steps: &[(Option<Component>, bool, u32)]) -> Kernel {
    let mut b = KernelBuilder::new(name);
    for &(queue, set, flag) in steps {
        match queue {
            Some(queue) if set => b.set_flag(queue, FlagId::new(flag)),
            Some(queue) => b.wait_flag(queue, FlagId::new(flag)),
            None => b.barrier_all(),
        };
    }
    b.build()
}

#[test]
fn kernels_that_need_the_graph_agree() {
    use Component::{Cube, MteGm, MteL1, MteUb, Scalar, Vector};
    const SET: bool = true;
    const WAIT: bool = false;
    const BARRIER: (Option<Component>, bool, u32) = (None, false, 0);
    let cases: Vec<(Kernel, Result<(), IsaError>)> = vec![
        // A set after its wait, on another queue.
        (sync_kernel("set_after_wait", &[(Some(Vector), WAIT, 0), (Some(MteGm), SET, 0)]), Ok(())),
        // Two queues each wait for the other's later set.
        (
            sync_kernel(
                "cross_wait",
                &[
                    (Some(Vector), WAIT, 0),
                    (Some(Vector), SET, 1),
                    (Some(MteGm), WAIT, 1),
                    (Some(MteGm), SET, 0),
                ],
            ),
            Err(IsaError::SyncCycle { at: 0 }),
        ),
        // Repeated waits on one queue: ordered.
        (
            sync_kernel(
                "ordered",
                &[
                    (Some(MteGm), SET, 0),
                    (Some(Vector), WAIT, 0),
                    (Some(Scalar), SET, 0),
                    (Some(Vector), WAIT, 0),
                ],
            ),
            Ok(()),
        ),
        // Repeated waits on three queues, one of which can steal.
        (
            sync_kernel(
                "unordered",
                &[
                    (Some(MteUb), SET, 0),
                    (Some(Scalar), SET, 0),
                    (Some(MteL1), WAIT, 0),
                    (Some(MteL1), SET, 0),
                    (Some(Cube), WAIT, 0),
                    (Some(Vector), WAIT, 0),
                ],
            ),
            Err(IsaError::UnorderedWaits { flag: 0, first: 2, second: 4 }),
        ),
        // Repeated waits on two queues, ordered through a lone flag.
        (
            sync_kernel(
                "chained",
                &[
                    (Some(MteGm), SET, 0),
                    (Some(Vector), WAIT, 0),
                    (Some(Vector), SET, 1),
                    (Some(Scalar), SET, 0),
                    (Some(Cube), WAIT, 1),
                    (Some(Cube), WAIT, 0),
                ],
            ),
            Ok(()),
        ),
        // ... ordered through a lone flag whose set comes last.
        (
            sync_kernel(
                "chained_backward",
                &[
                    (Some(MteGm), SET, 0),
                    (Some(Vector), WAIT, 0),
                    (Some(Cube), WAIT, 1),
                    (Some(Scalar), SET, 0),
                    (Some(Cube), WAIT, 0),
                    (Some(Vector), SET, 1),
                ],
            ),
            Ok(()),
        ),
        // A barrier between a set and its wait.
        (
            sync_kernel(
                "barrier_between",
                &[(Some(MteGm), SET, 0), BARRIER, (Some(Vector), WAIT, 0)],
            ),
            Ok(()),
        ),
        // A barrier between a wait and its set: the wait can never start.
        (
            sync_kernel(
                "barrier_blocks",
                &[(Some(Vector), WAIT, 0), BARRIER, (Some(MteGm), SET, 0)],
            ),
            Err(IsaError::SyncCycle { at: 0 }),
        ),
        // Repeated waits on two queues, ordered by a barrier.
        (
            sync_kernel(
                "barrier_orders_waits",
                &[
                    (Some(MteGm), SET, 0),
                    (Some(Scalar), SET, 0),
                    (Some(Vector), WAIT, 0),
                    BARRIER,
                    (Some(Cube), WAIT, 0),
                ],
            ),
            Ok(()),
        ),
        // Repeated waits across two barriers, with a set after a wait.
        (
            sync_kernel(
                "barriers_and_reuse",
                &[
                    (Some(Vector), WAIT, 0),
                    (Some(MteGm), SET, 0),
                    BARRIER,
                    (Some(MteUb), SET, 0),
                    (Some(Cube), WAIT, 0),
                    BARRIER,
                    (Some(Cube), WAIT, 1),
                    (Some(MteL1), SET, 1),
                ],
            ),
            Ok(()),
        ),
    ];
    let chip = ChipSpec::training();
    for (kernel, expected) in &cases {
        assert_eq!(agree(kernel, &chip), Ok(expected.clone()), "{}", kernel.name());
    }
}

/// The sync-fault plan of `tests/differential.rs`: up to two dropped and
/// up to two duplicated `set_flag`s, seeded.
fn sync_faulted(kernel: &Kernel, seed: u64) -> Kernel {
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    FaultPlan::new(seed ^ 0x5EED)
        .drop_set_flags(rng.below(3) as usize)
        .duplicate_set_flags(rng.below(3) as usize)
        .apply_to_kernel(kernel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_kernels_agree(seed in 0u64..u64::MAX) {
        let chip = ChipSpec::training();
        for max_len in [24, 96] {
            let kernel = generator::generate(seed, max_len);
            for kernel in [sync_faulted(&kernel, seed), kernel] {
                if let Err(disagreement) = agree(&kernel, &chip) {
                    prop_assert!(false, "seed {seed}: {disagreement}");
                }
            }
        }
    }
}
