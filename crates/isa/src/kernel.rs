//! Kernels: ordered instruction streams, and their builder.

use crate::instruction::{INLINE_READS, INLINE_WRITES};
use crate::{ComputeInstr, FlagId, Instruction, IsaError, Region, Regions, TransferInstr};
use ascend_arch::{Component, ComputeUnit, Precision, TransferPath};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An operator kernel: a named, ordered stream of instructions.
///
/// Program order is significant: the in-order dispatcher hands instructions
/// to the component queues in exactly this order, so reordering transfers
/// (the paper's *Adjusting Instruction Sequence*) changes performance even
/// when the per-queue order is unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    name: String,
    instructions: Vec<Instruction>,
}

impl Kernel {
    /// Creates a kernel from parts. Prefer [`KernelBuilder`].
    #[must_use]
    pub fn from_parts(name: impl Into<String>, instructions: Vec<Instruction>) -> Self {
        Kernel { name: name.into(), instructions }
    }

    /// The kernel's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream in program order.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the kernel has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Replaces the instruction stream (used by optimization passes).
    #[must_use]
    pub fn with_instructions(&self, instructions: Vec<Instruction>) -> Kernel {
        Kernel { name: self.name.clone(), instructions }
    }

    /// Returns a copy under a new name.
    #[must_use]
    pub fn renamed(&self, name: impl Into<String>) -> Kernel {
        Kernel { name: name.into(), instructions: self.instructions.clone() }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel {} ({} instructions):", self.name, self.len())?;
        for (i, instr) in self.instructions.iter().enumerate() {
            let queue = instr.queue().map_or_else(|| "-".to_owned(), |q| q.to_string());
            writeln!(f, "  [{i:>4}] {queue:<7} {instr}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Kernel {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

/// Incremental builder for [`Kernel`]s.
///
/// # Examples
///
/// ```
/// use ascend_arch::{Buffer, Component, ComputeUnit, Precision, TransferPath};
/// use ascend_isa::{KernelBuilder, Region};
///
/// let gm = Region::new(Buffer::Gm, 0, 256);
/// let ub = Region::new(Buffer::Ub, 0, 256);
/// let mut b = KernelBuilder::new("relu");
/// let loaded = b.new_flag();
/// b.transfer(TransferPath::GmToUb, gm, ub)?;
/// b.set_flag(Component::MteGm, loaded);
/// b.wait_flag(Component::Vector, loaded);
/// b.compute(ComputeUnit::Vector, Precision::Fp16, 128, vec![ub], vec![ub]);
/// let kernel = b.build();
/// assert_eq!(kernel.name(), "relu");
/// # Ok::<(), ascend_isa::IsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    instructions: Vec<Instruction>,
    next_flag: u32,
}

impl KernelBuilder {
    /// Starts a kernel named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder { name: name.into(), instructions: Vec::new(), next_flag: 0 }
    }

    /// Starts a kernel named `name` with room for `instructions`
    /// instructions, so a builder that knows its length up front grows
    /// the instruction vector once instead of by doubling.
    #[must_use]
    pub fn with_capacity(name: impl Into<String>, instructions: usize) -> Self {
        KernelBuilder {
            name: name.into(),
            instructions: Vec::with_capacity(instructions),
            next_flag: 0,
        }
    }

    /// Allocates a fresh synchronization flag.
    pub fn new_flag(&mut self) -> FlagId {
        let flag = FlagId::new(self.next_flag);
        self.next_flag += 1;
        flag
    }

    /// Appends an already-constructed instruction.
    pub fn push(&mut self, instruction: Instruction) -> &mut Self {
        self.instructions.push(instruction);
        self
    }

    /// Appends an MTE transfer of `src.len()` bytes along `path`.
    ///
    /// # Errors
    ///
    /// Returns an error when the regions do not match the path's endpoint
    /// buffers, the lengths differ, or the path is fixed-function.
    pub fn transfer(
        &mut self,
        path: TransferPath,
        src: Region,
        dst: Region,
    ) -> Result<&mut Self, IsaError> {
        if path.mte().is_none() {
            return Err(IsaError::DirectPathInKernel { path });
        }
        if src.buffer() != path.src() {
            return Err(IsaError::PathSourceMismatch { path, found: src.buffer() });
        }
        if dst.buffer() != path.dst() {
            return Err(IsaError::PathDestinationMismatch { path, found: dst.buffer() });
        }
        if src.len() != dst.len() {
            return Err(IsaError::TransferLengthMismatch {
                src_len: src.len(),
                dst_len: dst.len(),
            });
        }
        self.instructions.push(Instruction::Transfer(TransferInstr { path, src, dst }));
        Ok(self)
    }

    /// Appends a compute instruction of `ops` operations.
    ///
    /// `reads` and `writes` take arrays, slices or `Vec`s; lists within
    /// the inline capacities are stored without a heap allocation.
    pub fn compute(
        &mut self,
        unit: ComputeUnit,
        precision: Precision,
        ops: u64,
        reads: impl Into<Regions<INLINE_READS>>,
        writes: impl Into<Regions<INLINE_WRITES>>,
    ) -> &mut Self {
        self.instructions.push(Instruction::Compute(ComputeInstr {
            unit,
            precision,
            ops,
            reads: reads.into(),
            writes: writes.into(),
        }));
        self
    }

    /// Appends a `set_flag` executed on `queue`.
    pub fn set_flag(&mut self, queue: Component, flag: FlagId) -> &mut Self {
        self.instructions.push(Instruction::SetFlag { queue, flag });
        self
    }

    /// Appends a `wait_flag` blocking `queue`.
    pub fn wait_flag(&mut self, queue: Component, flag: FlagId) -> &mut Self {
        self.instructions.push(Instruction::WaitFlag { queue, flag });
        self
    }

    /// Appends a full pipe barrier (`pipe_barrier(PIPE_ALL)`).
    pub fn barrier_all(&mut self) -> &mut Self {
        self.instructions.push(Instruction::Barrier);
        self
    }

    /// Convenience: `set_flag` on `from` immediately followed by
    /// `wait_flag` on `to`, expressing a producer→consumer edge.
    pub fn sync(&mut self, from: Component, to: Component) -> &mut Self {
        let flag = self.new_flag();
        self.set_flag(from, flag);
        self.wait_flag(to, flag);
        self
    }

    /// Number of instructions appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether no instruction has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Finishes the kernel.
    #[must_use]
    pub fn build(self) -> Kernel {
        Kernel { name: self.name, instructions: self.instructions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_arch::Buffer;

    #[test]
    fn builder_round_trip() {
        let gm = Region::new(Buffer::Gm, 0, 128);
        let ub = Region::new(Buffer::Ub, 0, 128);
        let mut b = KernelBuilder::new("k");
        b.transfer(TransferPath::GmToUb, gm, ub).unwrap();
        b.compute(ComputeUnit::Vector, Precision::Fp32, 32, vec![ub], vec![ub]);
        b.barrier_all();
        let k = b.build();
        assert_eq!(k.len(), 3);
        assert_eq!(k.name(), "k");
        assert_eq!(k.iter().count(), 3);
    }

    #[test]
    fn transfer_validation_rejects_wrong_buffers() {
        let gm = Region::new(Buffer::Gm, 0, 128);
        let l1 = Region::new(Buffer::L1, 0, 128);
        let mut b = KernelBuilder::new("bad");
        let err = b.transfer(TransferPath::GmToUb, gm, l1).unwrap_err();
        assert!(matches!(err, IsaError::PathDestinationMismatch { .. }));
        let err = b.transfer(TransferPath::UbToGm, gm, gm).unwrap_err();
        assert!(matches!(err, IsaError::PathSourceMismatch { .. }));
    }

    #[test]
    fn transfer_validation_rejects_length_mismatch() {
        let gm = Region::new(Buffer::Gm, 0, 128);
        let ub = Region::new(Buffer::Ub, 0, 256);
        let mut b = KernelBuilder::new("bad");
        let err = b.transfer(TransferPath::GmToUb, gm, ub).unwrap_err();
        assert_eq!(err, IsaError::TransferLengthMismatch { src_len: 128, dst_len: 256 });
    }

    #[test]
    fn direct_paths_are_rejected() {
        let l0a = Region::new(Buffer::L0A, 0, 128);
        let l0c = Region::new(Buffer::L0C, 0, 128);
        let mut b = KernelBuilder::new("bad");
        let err = b.transfer(TransferPath::L0AToCube, l0a, l0c).unwrap_err();
        assert_eq!(err, IsaError::DirectPathInKernel { path: TransferPath::L0AToCube });
    }

    #[test]
    fn flags_are_unique() {
        let mut b = KernelBuilder::new("k");
        let f1 = b.new_flag();
        let f2 = b.new_flag();
        assert_ne!(f1, f2);
    }

    #[test]
    fn sync_emits_matched_pair() {
        let mut b = KernelBuilder::new("k");
        b.sync(Component::MteGm, Component::Vector);
        let k = b.build();
        assert_eq!(k.len(), 2);
        assert!(matches!(
            k.instructions()[0],
            Instruction::SetFlag { queue: Component::MteGm, .. }
        ));
        assert!(matches!(
            k.instructions()[1],
            Instruction::WaitFlag { queue: Component::Vector, .. }
        ));
    }

    #[test]
    fn display_lists_every_instruction() {
        let mut b = KernelBuilder::new("show");
        b.sync(Component::MteGm, Component::Vector);
        let text = b.build().to_string();
        assert!(text.contains("kernel show"));
        assert!(text.contains("set flag0"));
        assert!(text.contains("wait flag0"));
    }
}
