//! The GeLU activation and its Enhanced-Algorithm variant FastGeLU.

use crate::{tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder};

/// GeLU over an FP16 tensor.
///
/// The baseline evaluates the tanh-series formula (14 vector micro-ops per
/// element), which makes the operator *compute bound* on the Vector unit.
/// The `ea` flag switches to FastGeLU (4 micro-ops per element) — the
/// paper's Enhanced Algorithm row of Table 1 (1.06×) and the
/// GeLU→FastGeLU substitution of the PanGu-α study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gelu {
    elements: u64,
    tile_elements: u64,
    flags: OptFlags,
}

impl Gelu {
    const ELEM_BYTES: u64 = 2;
    /// Vector micro-ops per element of the exact tanh-series GeLU.
    pub const OPS_EXACT: u64 = 14;
    /// Vector micro-ops per element of FastGeLU.
    pub const OPS_FAST: u64 = 4;

    /// A GeLU over `elements` FP16 values.
    #[must_use]
    pub fn new(elements: u64) -> Self {
        Gelu { elements, tile_elements: 16 * 1024, flags: OptFlags::new() }
    }

    /// Applies optimization flags (`ea` selects FastGeLU).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }

    fn ops_per_element(&self) -> u64 {
        if self.flags.has_ea() {
            Self::OPS_FAST
        } else {
            Self::OPS_EXACT
        }
    }
}

impl Operator for Gelu {
    fn name(&self) -> String {
        if self.flags.has_ea() {
            format!("fast_gelu{}", self.flags.suffix())
        } else {
            format!("gelu{}", self.flags.suffix())
        }
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
        // GeLU ships well-pipelined: double-buffered inputs and outputs.
        let ub_in = alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?;
        let ub_out = alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?;

        let mut b = KernelBuilder::new(self.name());
        for tile in tiles(self.elements, self.tile_elements) {
            let off = tile.offset * Self::ELEM_BYTES;
            let len = tile.len * Self::ELEM_BYTES;
            let parity = (tile.index % 2) as usize;
            let src = ub_in[parity].slice(0, len);
            let dst = ub_out[parity].slice(0, len);
            b.transfer(TransferPath::GmToUb, gm_in.slice(off, len), src)?;
            b.sync(Component::MteGm, Component::Vector);
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                tile.len * self.ops_per_element(),
                [src],
                [dst],
            );
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(TransferPath::UbToGm, dst, gm_out.slice(off, len))?;
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_profile::Profiler;
    use ascend_roofline::{analyze, Bottleneck, Thresholds};
    use ascend_sim::Simulator;

    const N: u64 = 1 << 20;

    #[test]
    fn builds_and_validates() {
        let chip = ChipSpec::training();
        let kernel = Gelu::new(N).build(&chip).unwrap();
        ascend_isa::validate(&kernel, &chip).unwrap();
    }

    #[test]
    fn baseline_gelu_is_vector_compute_bound() {
        let chip = ChipSpec::training();
        let kernel = Gelu::new(N).build(&chip).unwrap();
        let (profile, _) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert_eq!(
            analysis.bottleneck(),
            Bottleneck::ComputeBound(ComputeUnit::Vector),
            "\n{}",
            analysis.summary()
        );
    }

    #[test]
    fn fast_gelu_gives_a_modest_speedup() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let exact = Gelu::new(N).build(&chip).unwrap();
        let fast = Gelu::new(N).with_flags(OptFlags::new().ea(true)).build(&chip).unwrap();
        let t0 = sim.simulate(&exact).unwrap().total_cycles();
        let t1 = sim.simulate(&fast).unwrap().total_cycles();
        let speedup = t0 / t1;
        assert!(
            (1.02..1.8).contains(&speedup),
            "EA gives a modest, memory-limited gain (paper: 1.06x), got {speedup:.2}"
        );
    }

    #[test]
    fn name_reflects_the_algorithm() {
        assert_eq!(Gelu::new(8).name(), "gelu");
        assert_eq!(Gelu::new(8).with_flags(OptFlags::new().ea(true)).name(), "fast_gelu+ea");
    }
}
