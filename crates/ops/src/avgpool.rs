//! The AvgPool operator (paper, Section 5.3).

use crate::{tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder};

/// `Y[i,j] = mean(X[i:i+k, j:j+k])` over FP16 feature maps.
///
/// The baseline implementation sets the Vector unit's `repeat` parameter
/// to 1, so every pooling window contribution is a separate tiny vector
/// instruction — 98 loops per tile, exactly the pathology of the paper's
/// case study. Each tiny instruction pays the full issue overhead, making
/// the Vector unit busy (high time ratio) yet inefficient (*inefficient
/// compute*). *Adjusting Instruction Parameter* (`aip`) raises `repeat`
/// so one instruction covers the whole accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvgPool {
    output_elements: u64,
    window: u64,
    tile_out: u64,
    flags: OptFlags,
}

impl AvgPool {
    const ELEM_BYTES: u64 = 2;

    /// An AvgPool producing `output_elements` FP16 outputs with a 7×7
    /// window (49 taps, two vector micro-ops per tap).
    #[must_use]
    pub fn new(output_elements: u64) -> Self {
        AvgPool { output_elements, window: 49, tile_out: 512, flags: OptFlags::new() }
    }

    /// Overrides the pooling window size (in taps, e.g. 49 for 7×7).
    #[must_use]
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window.max(1);
        self
    }

    /// Overrides the number of outputs per tile.
    #[must_use]
    pub fn with_tile(mut self, tile_out: u64) -> Self {
        self.tile_out = tile_out.max(1);
        self
    }

    /// Applies optimization flags (`aip` is meaningful here).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Vector operations needed per tile (two micro-ops per tap, plus the
    /// final 1/k² scale).
    fn ops_per_tile(&self, out_len: u64) -> u64 {
        out_len * self.window * 2
    }
}

impl Operator for AvgPool {
    fn name(&self) -> String {
        format!("avgpool{}", self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        // Stride-1 pooling: overlapping windows mean the input footprint is
        // only about twice the output, even though every output reads 49
        // taps (the compute-to-traffic ratio that starves the paper's
        // Vector unit).
        let in_tile_bytes = self.tile_out * 2 * Self::ELEM_BYTES;
        let out_tile_bytes = self.tile_out * Self::ELEM_BYTES;
        let mut alloc = BufferAllocator::new(chip);
        let gm_in = alloc.alloc(Buffer::Gm, self.output_elements * 2 * Self::ELEM_BYTES)?;
        let gm_out = alloc.alloc(Buffer::Gm, self.output_elements * Self::ELEM_BYTES)?;
        // The case-study operator already pipelines well (its Vector time
        // ratio is 83.98% in the paper), so input staging is ping-ponged.
        let ub_in = alloc.alloc_ping_pong(Buffer::Ub, in_tile_bytes)?;
        let ub_acc = alloc.alloc(Buffer::Ub, out_tile_bytes)?;
        let ub_out = alloc.alloc(Buffer::Ub, out_tile_bytes)?;

        let mut b = KernelBuilder::new(self.name());
        for tile in tiles(self.output_elements, self.tile_out) {
            let in_off = tile.offset * 2 * Self::ELEM_BYTES;
            let in_len = tile.len * 2 * Self::ELEM_BYTES;
            let out_off = tile.offset * Self::ELEM_BYTES;
            let out_len = tile.len * Self::ELEM_BYTES;
            let src = ub_in[(tile.index % 2) as usize].slice(0, in_len);
            let acc = ub_acc.slice(0, out_len);
            let dst = ub_out.slice(0, out_len);

            b.transfer(TransferPath::GmToUb, gm_in.slice(in_off, in_len), src)?;
            b.sync(Component::MteGm, Component::Vector);
            let total_ops = self.ops_per_tile(tile.len);
            if self.flags.has_aip() {
                // repeat = window: one instruction covers the whole
                // accumulation.
                b.compute(ComputeUnit::Vector, Precision::Fp16, total_ops, [src], [acc]);
            } else {
                // repeat = 1: one tiny instruction per window tap, each
                // paying the full issue overhead (the paper's 98 loops).
                let per_loop = crate::ceil_div(total_ops, self.window);
                let mut remaining = total_ops;
                while remaining > 0 {
                    let ops = per_loop.min(remaining);
                    b.compute(ComputeUnit::Vector, Precision::Fp16, ops, [src], [acc]);
                    remaining -= ops;
                }
            }
            // Final 1/k^2 scale.
            b.compute(ComputeUnit::Vector, Precision::Fp16, tile.len, [acc], [dst]);
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(TransferPath::UbToGm, dst, gm_out.slice(out_off, out_len))?;
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

    const OUT: u64 = 1 << 16;

    #[test]
    fn builds_and_validates() {
        let chip = ChipSpec::inference();
        let kernel = AvgPool::new(OUT).build(&chip).unwrap();
        ascend_isa::validate(&kernel, &chip).unwrap();
    }

    #[test]
    fn baseline_is_inefficient_compute_on_vector() {
        let chip = ChipSpec::inference();
        let kernel = AvgPool::new(OUT).build(&chip).unwrap();
        let (profile, _) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert_eq!(
            analysis.bottleneck(),
            Bottleneck::InefficientCompute(ComputeUnit::Vector),
            "\n{}",
            analysis.summary()
        );
        let v = analysis.metrics_of(Component::Vector).unwrap();
        assert!(v.time_ratio > 0.7, "Vector should be busy, R={}", v.time_ratio);
        assert!(v.utilization < 0.35, "but inefficient, U={}", v.utilization);
    }

    #[test]
    fn aip_gives_a_large_speedup() {
        let chip = ChipSpec::inference();
        let sim = Simulator::new(chip.clone());
        let base = AvgPool::new(OUT).build(&chip).unwrap();
        let aip = AvgPool::new(OUT).with_flags(OptFlags::new().aip(true)).build(&chip).unwrap();
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&aip).unwrap().total_cycles();
        let speedup = t0 / t1;
        assert!(
            (2.0..7.0).contains(&speedup),
            "AIP speedup should be near the paper's 4.31x, got {speedup:.2}"
        );
    }

    #[test]
    fn aip_improves_vector_utilization() {
        let chip = ChipSpec::inference();
        let profiler = Profiler::new(chip.clone());
        let base = AvgPool::new(OUT).build(&chip).unwrap();
        let aip = AvgPool::new(OUT).with_flags(OptFlags::new().aip(true)).build(&chip).unwrap();
        let (p0, _) = profiler.run(&base).unwrap();
        let (p1, _) = profiler.run(&aip).unwrap();
        let u0 = analyze(&p0, &chip, &Thresholds::default())
            .metrics_of(Component::Vector)
            .unwrap()
            .utilization;
        let u1 = analyze(&p1, &chip, &Thresholds::default())
            .metrics_of(Component::Vector)
            .unwrap()
            .utilization;
        assert!(u1 > 2.0 * u0, "utilization must rise sharply: {u0} -> {u1}");
    }

    #[test]
    fn vector_ops_are_identical_across_variants() {
        let chip = ChipSpec::inference();
        let base = AvgPool::new(OUT).build(&chip).unwrap();
        let aip = AvgPool::new(OUT).with_flags(OptFlags::new().aip(true)).build(&chip).unwrap();
        let s0 = ascend_isa::KernelStats::of(&base);
        let s1 = ascend_isa::KernelStats::of(&aip);
        assert_eq!(
            s0.ops_of(ComputeUnit::Vector, Precision::Fp16),
            s1.ops_of(ComputeUnit::Vector, Precision::Fp16),
            "AIP changes instruction shape, not the math"
        );
        assert!(
            s0.instructions_per_queue[&Component::Vector]
                > 10 * s1.instructions_per_queue[&Component::Vector]
        );
    }
}
