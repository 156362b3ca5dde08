//! The instruction classes of the kernel IR.

use crate::{Region, Regions};
use ascend_arch::{Component, ComputeUnit, Precision, TransferPath};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a synchronization flag (an event register).
///
/// Flags carry counting semantics: every completed `set_flag` increments
/// the flag, every started `wait_flag` consumes one increment. This mirrors
/// the event registers of the hardware pipe-synchronization instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlagId(u32);

impl FlagId {
    /// Creates a flag id from its raw number.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        FlagId(raw)
    }

    /// The raw flag number.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FlagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flag{}", self.0)
    }
}

/// Inline capacity of [`ComputeInstr::reads`]: two operands cover 99.4%
/// of the library's compute instructions (the rest read four or eight
/// and spill to the heap).
pub const INLINE_READS: usize = 2;

/// Inline capacity of [`ComputeInstr::writes`]: no library compute
/// instruction writes more than one region.
pub const INLINE_WRITES: usize = 1;

/// A compute instruction executed on one compute unit.
///
/// The operand lists are [`Regions`], stored inline in the instruction up
/// to [`INLINE_READS`] / [`INLINE_WRITES`] entries, so building, cloning
/// and dropping a typical kernel touches the heap once for its
/// instruction vector rather than twice per compute instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeInstr {
    /// The unit that executes this instruction.
    pub unit: ComputeUnit,
    /// Operand precision.
    pub precision: Precision,
    /// Number of arithmetic operations performed (multiply-accumulate
    /// counts as two).
    pub ops: u64,
    /// Regions read by the instruction.
    pub reads: Regions<INLINE_READS>,
    /// Regions written by the instruction.
    pub writes: Regions<INLINE_WRITES>,
}

/// A data-transfer instruction scheduled on an MTE queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferInstr {
    /// The transfer path (determines the owning MTE).
    pub path: TransferPath,
    /// Source region (read).
    pub src: Region,
    /// Destination region (written).
    pub dst: Region,
}

impl TransferInstr {
    /// Bytes moved by this transfer.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.src.len()
    }
}

/// One instruction of a kernel.
///
/// Instructions are dispatched in program order by the AICore's scalar
/// front-end and executed in order within their component queue; different
/// queues run in parallel (paper, Section 2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instruction {
    /// Arithmetic on a compute unit.
    Compute(ComputeInstr),
    /// An MTE-scheduled data movement.
    Transfer(TransferInstr),
    /// Increment `flag` from `queue` (ordered within `queue`).
    SetFlag {
        /// Queue that executes the set.
        queue: Component,
        /// The flag to increment.
        flag: FlagId,
    },
    /// Block `queue` until `flag` has an unconsumed increment.
    WaitFlag {
        /// Queue that blocks.
        queue: Component,
        /// The flag to consume.
        flag: FlagId,
    },
    /// `pipe_barrier(PIPE_ALL)`: the dispatcher stalls until every
    /// previously dispatched instruction has completed.
    Barrier,
}

impl Instruction {
    /// The component queue this instruction executes on, or `None` for a
    /// dispatcher-level barrier.
    #[must_use]
    pub fn queue(&self) -> Option<Component> {
        match self {
            Instruction::Compute(c) => Some(Component::from_unit(c.unit)),
            Instruction::Transfer(t) => Some(t.path.component()),
            Instruction::SetFlag { queue, .. } | Instruction::WaitFlag { queue, .. } => {
                Some(*queue)
            }
            Instruction::Barrier => None,
        }
    }

    /// Regions this instruction reads.
    #[must_use]
    pub fn reads(&self) -> &[Region] {
        self.operands().0
    }

    /// Regions this instruction writes.
    #[must_use]
    pub fn writes(&self) -> &[Region] {
        self.operands().1
    }

    /// The regions this instruction reads and writes, from one match.
    #[inline]
    fn operands(&self) -> (&[Region], &[Region]) {
        match self {
            Instruction::Compute(c) => (&c.reads, &c.writes),
            Instruction::Transfer(t) => {
                (std::slice::from_ref(&t.src), std::slice::from_ref(&t.dst))
            }
            _ => (&[], &[]),
        }
    }

    /// Whether this instruction conflicts with `other` through memory:
    /// write-write, read-write, or write-read on overlapping regions.
    ///
    /// Conflicting instructions on *different* queues serialize in the
    /// simulator — the paper's *spatial dependency* (Section 5.1).
    #[must_use]
    pub fn conflicts_with(&self, other: &Instruction) -> bool {
        let (a_reads, a_writes) = self.operands();
        let (b_reads, b_writes) = other.operands();
        let hits = |writes: &[Region], reads: &[Region], also: &[Region]| {
            writes.iter().any(|w| reads.iter().chain(also).any(|r| w.overlaps(r)))
        };
        hits(a_writes, b_reads, b_writes) || hits(b_writes, a_reads, a_writes)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Compute(c) => {
                write!(f, "{}.{} ops={}", c.unit, c.precision, c.ops)
            }
            Instruction::Transfer(t) => {
                write!(f, "move {} {} -> {}", t.path, t.src, t.dst)
            }
            Instruction::SetFlag { queue, flag } => write!(f, "set {flag} @{queue}"),
            Instruction::WaitFlag { queue, flag } => write!(f, "wait {flag} @{queue}"),
            Instruction::Barrier => write!(f, "pipe_barrier(ALL)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_arch::Buffer;

    fn transfer(path: TransferPath, src: Region, dst: Region) -> Instruction {
        Instruction::Transfer(TransferInstr { path, src, dst })
    }

    #[test]
    fn queue_assignment() {
        let ub = Region::new(Buffer::Ub, 0, 64);
        let gm = Region::new(Buffer::Gm, 0, 64);
        let load = transfer(TransferPath::GmToUb, gm, ub);
        assert_eq!(load.queue(), Some(Component::MteGm));
        let store = transfer(TransferPath::UbToGm, ub, gm);
        assert_eq!(store.queue(), Some(Component::MteUb));
        let add = Instruction::Compute(ComputeInstr {
            unit: ComputeUnit::Vector,
            precision: Precision::Fp16,
            ops: 32,
            reads: [ub].into(),
            writes: [ub].into(),
        });
        assert_eq!(add.queue(), Some(Component::Vector));
        assert_eq!(Instruction::Barrier.queue(), None);
    }

    #[test]
    fn spatial_dependency_detected() {
        // The Add_ReLU case: write-back of ub_1 vs. load into ub_1.
        let ub_1 = Region::new(Buffer::Ub, 0, 1024);
        let gm_1 = Region::new(Buffer::Gm, 0, 1024);
        let gm_2 = Region::new(Buffer::Gm, 4096, 1024);
        let write_back = transfer(TransferPath::UbToGm, ub_1, gm_1);
        let next_load = transfer(TransferPath::GmToUb, gm_2, ub_1);
        assert!(write_back.conflicts_with(&next_load));
        // With a second UB region (RSD applied) there is no conflict.
        let ub_2 = Region::new(Buffer::Ub, 2048, 1024);
        let next_load_rsd = transfer(TransferPath::GmToUb, gm_2, ub_2);
        assert!(!write_back.conflicts_with(&next_load_rsd));
    }

    #[test]
    fn read_read_does_not_conflict() {
        let gm = Region::new(Buffer::Gm, 0, 1024);
        let ub_a = Region::new(Buffer::Ub, 0, 1024);
        let ub_b = Region::new(Buffer::Ub, 1024, 1024);
        let a = transfer(TransferPath::GmToUb, gm, ub_a);
        let b = transfer(TransferPath::GmToUb, gm, ub_b);
        assert!(!a.conflicts_with(&b), "two reads of the same GM region may overlap");
    }

    #[test]
    fn sync_instructions_touch_no_memory() {
        let set = Instruction::SetFlag { queue: Component::Vector, flag: FlagId::new(0) };
        assert!(set.reads().is_empty() && set.writes().is_empty());
    }
}
