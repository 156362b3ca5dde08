#![warn(missing_docs)]

//! Instruction set and kernel IR for the Ascend AICore model.
//!
//! Kernels on Ascend are explicit: the author issues *transfer* instructions
//! to move tiles between buffers, *compute* instructions on the Scalar,
//! Vector, or Cube unit, and *synchronization* instructions
//! (`set_flag`/`wait_flag`, `pipe_barrier`) to order the six component
//! queues against each other. This crate provides that programming model:
//!
//! - [`Region`] — a byte range inside a [`Buffer`](ascend_arch::Buffer);
//! - [`BufferAllocator`] — bump allocation with capacity checking;
//! - [`Instruction`] — the four instruction classes, whose operand
//!   [`Regions`] live inline in the instruction;
//! - [`Kernel`] / [`KernelBuilder`] — an ordered instruction stream;
//! - [`validate`] — static checks (capacity, path/buffer agreement,
//!   flag-matching, deadlock-freedom of the sync graph);
//! - [`KernelStats`] — static operation/byte counts per component.
//!
//! # Examples
//!
//! ```
//! use ascend_arch::{Buffer, ChipSpec, ComputeUnit, Precision, TransferPath};
//! use ascend_isa::{BufferAllocator, KernelBuilder};
//!
//! let chip = ChipSpec::training();
//! let mut alloc = BufferAllocator::new(&chip);
//! let gm_in = alloc.alloc(Buffer::Gm, 1024)?;
//! let ub = alloc.alloc(Buffer::Ub, 1024)?;
//! let gm_out = alloc.alloc(Buffer::Gm, 1024)?;
//!
//! let mut b = KernelBuilder::new("copy_add");
//! let ready = b.new_flag();
//! b.transfer(TransferPath::GmToUb, gm_in, ub)?;
//! b.set_flag(ascend_arch::Component::MteGm, ready);
//! b.wait_flag(ascend_arch::Component::Vector, ready);
//! b.compute(ComputeUnit::Vector, Precision::Fp16, 512, vec![ub], vec![ub]);
//! b.transfer(TransferPath::UbToGm, ub, gm_out)?;
//! let kernel = b.build();
//! assert_eq!(kernel.len(), 5);
//! ascend_isa::validate(&kernel, &chip)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod alloc;
mod error;
mod instruction;
mod kernel;
mod regions;
mod stats;
pub mod text;
mod validate;

pub use alloc::{BufferAllocator, Region};
pub use error::IsaError;
pub use instruction::{
    ComputeInstr, FlagId, Instruction, TransferInstr, INLINE_READS, INLINE_WRITES,
};
pub use kernel::{Kernel, KernelBuilder};
pub use regions::Regions;
pub use stats::{ops_map_serde, KernelStats};
pub use text::{kernel_to_text, parse_kernel};
pub use validate::validate;
