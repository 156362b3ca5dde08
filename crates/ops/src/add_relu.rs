//! The Add_ReLU fused operator (paper, Section 5.1 / Figures 8–10).

use crate::{ceil_div, tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder};

/// `Add_ReLU(x) = ReLU(x + c)` over an FP16 tensor, as it appears in
/// MobileNetV3's Hard-Swish activation.
///
/// Per tile the baseline kernel (Figure 8):
///
/// 1. transfers the constant `c` **and** the input tile from GM to UB
///    (MTE-GM) — the constant transfer repeats every iteration, the
///    redundancy *Minimizing Redundant Transfer* removes;
/// 2. adds, then applies ReLU on the Vector unit, **in place** in the
///    input region — the write-back of one tile therefore collides with
///    the next tile's load (Figure 9), the spatial dependency *Reducing
///    Spatial Dependency* removes;
/// 3. stores the result back to GM (MTE-UB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddRelu {
    elements: u64,
    tile_elements: u64,
    flags: OptFlags,
}

impl AddRelu {
    const ELEM_BYTES: u64 = 2; // FP16
    const CONST_BYTES: u64 = 32;

    /// An Add_ReLU over `elements` FP16 values with the default tile size.
    #[must_use]
    pub fn new(elements: u64) -> Self {
        AddRelu { elements, tile_elements: 16 * 1024, flags: OptFlags::new() }
    }

    /// Overrides the tile size (elements per UB tile).
    #[must_use]
    pub fn with_tile(mut self, tile_elements: u64) -> Self {
        self.tile_elements = tile_elements.max(1);
        self
    }

    /// Applies optimization flags (`rsd` and `mrt` are meaningful here).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Total number of elements.
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.elements
    }
}

impl Operator for AddRelu {
    fn name(&self) -> String {
        format!("add_relu{}", self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let mut alloc = BufferAllocator::new(chip);
        let tile_bytes = self.tile_elements * Self::ELEM_BYTES;
        let gm_x = alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES)?;
        let gm_y = alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES)?;
        let gm_c = alloc.alloc(Buffer::Gm, Self::CONST_BYTES)?;
        let ub_c = alloc.alloc(Buffer::Ub, Self::CONST_BYTES)?;
        let ub_in = alloc.alloc(Buffer::Ub, tile_bytes)?;
        // RSD: dedicated (double-buffered) result regions so the write-back
        // no longer collides with the next tile's load.
        let ub_res = if self.flags.has_rsd() {
            Some(alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?)
        } else {
            None
        };

        // Per tile: the input load, four syncs, two computes, the store,
        // plus the constant's load (once under MRT).
        let tile_count = ceil_div(self.elements, self.tile_elements) as usize;
        let const_loads = if self.flags.has_mrt() { tile_count.min(1) } else { tile_count };
        let mut b = KernelBuilder::with_capacity(self.name(), tile_count * 8 + const_loads);
        for tile in tiles(self.elements, self.tile_elements) {
            let byte_off = tile.offset * Self::ELEM_BYTES;
            let byte_len = tile.len * Self::ELEM_BYTES;
            let x = gm_x.slice(byte_off, byte_len);
            let y = gm_y.slice(byte_off, byte_len);
            let dst_in = ub_in.slice(0, byte_len);
            let dst_out = match &ub_res {
                Some(pair) => pair[(tile.index % 2) as usize].slice(0, byte_len),
                None => dst_in,
            };

            // (1) Redundant constant transfer inside the loop unless MRT.
            if !self.flags.has_mrt() || tile.index == 0 {
                b.transfer(TransferPath::GmToUb, gm_c, ub_c)?;
            }
            // (2) Load the input tile.
            b.transfer(TransferPath::GmToUb, x, dst_in)?;
            b.sync(Component::MteGm, Component::Vector);
            // (3) Add, then ReLU, on the Vector unit.
            b.compute(ComputeUnit::Vector, Precision::Fp16, tile.len, [dst_in, ub_c], [dst_out]);
            b.compute(ComputeUnit::Vector, Precision::Fp16, tile.len, [dst_out], [dst_out]);
            b.sync(Component::Vector, Component::MteUb);
            // (4) Write the tile back.
            b.transfer(TransferPath::UbToGm, dst_out, y)?;
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

    fn time(flags: OptFlags) -> f64 {
        let chip = ChipSpec::training();
        let kernel = AddRelu::new(N).with_flags(flags).build(&chip).unwrap();
        Simulator::new(chip).simulate(&kernel).unwrap().total_cycles()
    }

    #[test]
    fn kernel_builds_and_validates() {
        let chip = ChipSpec::training();
        let kernel = AddRelu::new(N).build(&chip).unwrap();
        ascend_isa::validate(&kernel, &chip).unwrap();
        assert!(!kernel.is_empty());
        assert_eq!(kernel.name(), "add_relu");
    }

    #[test]
    fn rsd_then_mrt_each_help() {
        let base = time(OptFlags::new());
        let rsd = time(OptFlags::new().rsd(true));
        let both = time(OptFlags::new().rsd(true).mrt(true));
        assert!(rsd < base, "RSD must help: {rsd} !< {base}");
        assert!(both < rsd, "MRT must further help: {both} !< {rsd}");
        let speedup = base / both;
        assert!(
            (1.3..2.6).contains(&speedup),
            "overall speedup should be around the paper's 1.72x, got {speedup:.2}"
        );
    }

    #[test]
    fn baseline_is_insufficient_parallelism() {
        let chip = ChipSpec::training();
        let kernel = AddRelu::new(N).build(&chip).unwrap();
        let (profile, _) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert_eq!(
            analysis.bottleneck(),
            Bottleneck::InsufficientParallelism,
            "\n{}",
            analysis.summary()
        );
    }

    #[test]
    fn optimized_becomes_mte_ub_bound() {
        let chip = ChipSpec::training();
        let kernel =
            AddRelu::new(N).with_flags(OptFlags::new().rsd(true).mrt(true)).build(&chip).unwrap();
        let (profile, _) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert_eq!(
            analysis.bottleneck(),
            Bottleneck::MteBound(Component::MteUb),
            "\n{}",
            analysis.summary()
        );
        let m = analysis.metrics_of(Component::MteUb).unwrap();
        assert!(m.time_ratio > 0.75, "MTE-UB should be busy, R={}", m.time_ratio);
    }

    #[test]
    fn odd_sizes_produce_short_last_tile() {
        let chip = ChipSpec::training();
        let kernel = AddRelu::new(100_001).with_tile(4096).build(&chip).unwrap();
        ascend_isa::validate(&kernel, &chip).unwrap();
        let stats = ascend_isa::KernelStats::of(&kernel);
        assert_eq!(
            stats.ops_of(ComputeUnit::Vector, Precision::Fp16),
            2 * 100_001,
            "add + relu each touch every element"
        );
    }

    #[test]
    fn mrt_reduces_mte_gm_bytes() {
        let chip = ChipSpec::training();
        let base = AddRelu::new(N).build(&chip).unwrap();
        let mrt = AddRelu::new(N).with_flags(OptFlags::new().mrt(true)).build(&chip).unwrap();
        let b0 = ascend_isa::KernelStats::of(&base).bytes_of_component(Component::MteGm);
        let b1 = ascend_isa::KernelStats::of(&mrt).bytes_of_component(Component::MteGm);
        assert!(b1 < b0);
    }
}
