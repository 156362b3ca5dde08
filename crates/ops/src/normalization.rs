//! Normalization operators: LayerNorm and Softmax.
//!
//! LayerNorm doubles as the *fusion target* of the PanGu-α optimization:
//! chains of element-wise operators (Mul, Add, AddN, RealDiv) are replaced
//! by one LayerNorm kernel with far better inter-component parallelism
//! (Section 6.2.1).

use crate::{tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder};

/// Row-wise LayerNorm over FP16 data: mean, variance, then normalize.
///
/// Generated with double-buffered staging by default — it represents the
/// hand-optimized fused kernel in the Ascend operator library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerNorm {
    elements: u64,
    tile_elements: u64,
    flags: OptFlags,
}

impl LayerNorm {
    const ELEM_BYTES: u64 = 2;
    /// Vector micro-ops per element (mean + variance + normalize).
    pub const OPS_PER_ELEMENT: u64 = 5;

    /// A LayerNorm over `elements` FP16 values.
    #[must_use]
    pub fn new(elements: u64) -> Self {
        LayerNorm { elements, tile_elements: 16 * 1024, flags: OptFlags::new() }
    }

    /// Applies optimization flags.
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for LayerNorm {
    fn name(&self) -> String {
        format!("layernorm{}", self.flags.suffix())
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
        let ub_stats = alloc.alloc(Buffer::Ub, 256)?;

        let mut b = KernelBuilder::new(self.name());
        for tile in tiles(self.elements, self.tile_elements) {
            let off = tile.offset * Self::ELEM_BYTES;
            let len = tile.len * Self::ELEM_BYTES;
            let parity = (tile.index % 2) as usize;
            let src = ub_in[parity].slice(0, len);
            let dst = ub_out[parity].slice(0, len);
            b.transfer(TransferPath::GmToUb, gm_in.slice(off, len), src)?;
            b.sync(Component::MteGm, Component::Vector);
            // mean (1 op/elt), variance (2), normalize (2).
            b.compute(ComputeUnit::Vector, Precision::Fp16, tile.len, [src], [ub_stats]);
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                2 * tile.len,
                [src, ub_stats],
                [ub_stats],
            );
            b.compute(ComputeUnit::Vector, Precision::Fp16, 2 * tile.len, [src, ub_stats], [dst]);
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(TransferPath::UbToGm, dst, gm_out.slice(off, len))?;
        }
        Ok(b.build())
    }
}

/// Row-wise Softmax over FP16 data: max, exp-subtract, divide-by-sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Softmax {
    elements: u64,
    tile_elements: u64,
    flags: OptFlags,
}

impl Softmax {
    const ELEM_BYTES: u64 = 2;
    /// Vector micro-ops per element (max + exp + div).
    pub const OPS_PER_ELEMENT: u64 = 6;

    /// A Softmax over `elements` FP16 values.
    #[must_use]
    pub fn new(elements: u64) -> Self {
        Softmax { elements, tile_elements: 16 * 1024, flags: OptFlags::new() }
    }

    /// Applies optimization flags.
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for Softmax {
    fn name(&self) -> String {
        format!("softmax{}", self.flags.suffix())
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
        let staged = if self.flags.has_pp() || self.flags.has_rsd() {
            alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::Ub, tile_bytes)?]
        };
        let ub_stats = alloc.alloc(Buffer::Ub, 256)?;

        let mut b = KernelBuilder::new(self.name());
        for tile in tiles(self.elements, self.tile_elements) {
            let off = tile.offset * Self::ELEM_BYTES;
            let len = tile.len * Self::ELEM_BYTES;
            let src = staged[(tile.index as usize) % staged.len()].slice(0, len);
            b.transfer(TransferPath::GmToUb, gm_in.slice(off, len), src)?;
            b.sync(Component::MteGm, Component::Vector);
            b.compute(ComputeUnit::Vector, Precision::Fp16, tile.len, [src], [ub_stats]);
            b.compute(ComputeUnit::Vector, Precision::Fp16, 3 * tile.len, [src, ub_stats], [src]);
            b.compute(ComputeUnit::Vector, Precision::Fp16, 2 * tile.len, [src, ub_stats], [src]);
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(TransferPath::UbToGm, src, gm_out.slice(off, len))?;
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
        for kernel in
            [LayerNorm::new(N).build(&chip).unwrap(), Softmax::new(N).build(&chip).unwrap()]
        {
            ascend_isa::validate(&kernel, &chip).unwrap();
        }
    }

    #[test]
    fn op_counts_match_documented_costs() {
        let chip = ChipSpec::training();
        let ln = LayerNorm::new(N).build(&chip).unwrap();
        let sm = Softmax::new(N).build(&chip).unwrap();
        assert_eq!(
            KernelStats::of(&ln).ops_of(ComputeUnit::Vector, Precision::Fp16),
            LayerNorm::OPS_PER_ELEMENT * N
        );
        assert_eq!(
            KernelStats::of(&sm).ops_of(ComputeUnit::Vector, Precision::Fp16),
            Softmax::OPS_PER_ELEMENT * N
        );
    }

    #[test]
    fn fused_layernorm_beats_the_elementwise_chain() {
        // The PanGu-alpha fusion: Mul + Add + AddN + RealDiv, all baseline,
        // versus one LayerNorm over the same data.
        use crate::{Elementwise, EltwiseKind};
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let mut chain_cycles = 0.0;
        for kind in [EltwiseKind::Mul, EltwiseKind::Add, EltwiseKind::AddN(3), EltwiseKind::RealDiv]
        {
            let k = Elementwise::new(kind, N).build(&chip).unwrap();
            chain_cycles += sim.simulate(&k).unwrap().total_cycles();
        }
        let ln = LayerNorm::new(N).build(&chip).unwrap();
        let fused_cycles = sim.simulate(&ln).unwrap().total_cycles();
        assert!(
            fused_cycles < 0.5 * chain_cycles,
            "fusing the chain into LayerNorm must save most of the traffic: {fused_cycles} vs {chain_cycles}"
        );
    }

    #[test]
    fn softmax_pipelines_with_pp() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let base = Softmax::new(N).build(&chip).unwrap();
        let pp = Softmax::new(N).with_flags(OptFlags::new().pp(true)).build(&chip).unwrap();
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&pp).unwrap().total_cycles();
        assert!(t1 < t0, "ping-pong must help softmax: {t1} !< {t0}");
    }
}
