//! Format-conversion operators: TransData and Cast.
//!
//! The Cube unit requires its private tiling format (fractal NZ); tensors
//! arriving in plain formats are converted by TransData, and dtype changes
//! by Cast. The PanGu-α study finds these conversions expensive and
//! minimizes them by fixing the input format (Section 6.2.1).

use crate::{tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder};

/// Layout conversion into/out of the Cube's private format.
///
/// The baseline computes the scatter indices on the **Scalar** unit —
/// slow, serial address arithmetic. The `ct` flag applies *Computation
/// Transformation*: the index math is vectorized as gathers on the Vector
/// unit, relieving the Scalar bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransData {
    elements: u64,
    tile_elements: u64,
    flags: OptFlags,
}

impl TransData {
    const ELEM_BYTES: u64 = 2;
    /// Scalar index operations per element in the baseline.
    const SCALAR_OPS_PER_ELT_X16: u64 = 1; // 1/16 op per element

    /// A layout conversion over `elements` FP16 values.
    #[must_use]
    pub fn new(elements: u64) -> Self {
        TransData { elements, tile_elements: 8 * 1024, flags: OptFlags::new() }
    }

    /// Applies optimization flags (`ct` vectorizes the index math).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for TransData {
    fn name(&self) -> String {
        format!("transdata{}", self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let tile_bytes = self.tile_elements * Self::ELEM_BYTES;
        let mut alloc = BufferAllocator::new(chip);
        let gm_in = alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES)?;
        let gm_out = alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES)?;
        let ub_in = alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?;
        let ub_out = alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?;
        let ub_idx = alloc.alloc(Buffer::Ub, 1024)?;

        let mut b = KernelBuilder::new(self.name());
        for tile in tiles(self.elements, self.tile_elements) {
            let off = tile.offset * Self::ELEM_BYTES;
            let len = tile.len * Self::ELEM_BYTES;
            let parity = (tile.index % 2) as usize;
            let src = ub_in[parity].slice(0, len);
            let dst = ub_out[parity].slice(0, len);
            b.transfer(TransferPath::GmToUb, gm_in.slice(off, len), src)?;
            let index_ops = (tile.len * Self::SCALAR_OPS_PER_ELT_X16).div_ceil(16);
            if self.flags.has_ct() {
                // Vectorized index computation.
                b.compute(ComputeUnit::Vector, Precision::Int32, index_ops, [], [ub_idx]);
            } else {
                // Serial scalar address arithmetic.
                b.compute(ComputeUnit::Scalar, Precision::Int32, index_ops, [], [ub_idx]);
                b.sync(Component::Scalar, Component::Vector);
            }
            b.sync(Component::MteGm, Component::Vector);
            // The permuting copy itself.
            b.compute(ComputeUnit::Vector, Precision::Fp16, tile.len, [src, ub_idx], [dst]);
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(TransferPath::UbToGm, dst, gm_out.slice(off, len))?;
        }
        Ok(b.build())
    }
}

/// Dtype conversion (e.g. FP32 → FP16) as a vector copy with widening
/// loads: the input moves twice the output bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cast {
    elements: u64,
    tile_elements: u64,
    flags: OptFlags,
}

impl Cast {
    const IN_BYTES: u64 = 4; // FP32 source
    const OUT_BYTES: u64 = 2; // FP16 destination

    /// A cast of `elements` FP32 values down to FP16.
    #[must_use]
    pub fn new(elements: u64) -> Self {
        Cast { elements, tile_elements: 8 * 1024, flags: OptFlags::new() }
    }

    /// Applies optimization flags (`rsd`, `pp`).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for Cast {
    fn name(&self) -> String {
        format!("cast{}", self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let in_tile = self.tile_elements * Self::IN_BYTES;
        let out_tile = self.tile_elements * Self::OUT_BYTES;
        let mut alloc = BufferAllocator::new(chip);
        let gm_in = alloc.alloc(Buffer::Gm, self.elements * Self::IN_BYTES)?;
        let gm_out = alloc.alloc(Buffer::Gm, self.elements * Self::OUT_BYTES)?;
        let ub_in = if self.flags.has_pp() {
            alloc.alloc_ping_pong(Buffer::Ub, in_tile)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::Ub, in_tile)?]
        };
        let ub_out = if self.flags.has_rsd() {
            alloc.alloc_ping_pong(Buffer::Ub, out_tile)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::Ub, out_tile)?]
        };

        let mut b = KernelBuilder::new(self.name());
        for tile in tiles(self.elements, self.tile_elements) {
            let src_gm = gm_in.slice(tile.offset * Self::IN_BYTES, tile.len * Self::IN_BYTES);
            let dst_gm = gm_out.slice(tile.offset * Self::OUT_BYTES, tile.len * Self::OUT_BYTES);
            let src =
                ub_in[(tile.index as usize) % ub_in.len()].slice(0, tile.len * Self::IN_BYTES);
            let dst =
                ub_out[(tile.index as usize) % ub_out.len()].slice(0, tile.len * Self::OUT_BYTES);
            b.transfer(TransferPath::GmToUb, src_gm, src)?;
            b.sync(Component::MteGm, Component::Vector);
            b.compute(ComputeUnit::Vector, Precision::Fp32, tile.len, [src], [dst]);
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(TransferPath::UbToGm, dst, dst_gm)?;
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_isa::KernelStats;
    use ascend_sim::Simulator;

    const N: u64 = 1 << 19;

    #[test]
    fn both_build_and_validate() {
        let chip = ChipSpec::training();
        for kernel in [TransData::new(N).build(&chip).unwrap(), Cast::new(N).build(&chip).unwrap()]
        {
            ascend_isa::validate(&kernel, &chip).unwrap();
        }
    }

    #[test]
    fn ct_moves_work_off_the_scalar_unit() {
        let chip = ChipSpec::training();
        let base = TransData::new(N).build(&chip).unwrap();
        let ct = TransData::new(N).with_flags(OptFlags::new().ct(true)).build(&chip).unwrap();
        let s0 = KernelStats::of(&base);
        let s1 = KernelStats::of(&ct);
        assert!(s0.total_ops(ComputeUnit::Scalar) > 0);
        assert_eq!(s1.total_ops(ComputeUnit::Scalar), 0);
        let sim = Simulator::new(chip);
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&ct).unwrap().total_cycles();
        assert!(t1 < t0, "CT must help transdata: {t1} !< {t0}");
    }

    #[test]
    fn cast_reads_twice_what_it_writes() {
        let chip = ChipSpec::training();
        let kernel = Cast::new(N).build(&chip).unwrap();
        let stats = KernelStats::of(&kernel);
        assert_eq!(
            stats.bytes_of_component(Component::MteGm),
            2 * stats.bytes_of_component(Component::MteUb)
        );
    }
}
