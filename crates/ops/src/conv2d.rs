//! The Conv2D operator: im2col-style convolution on the Cube.

use crate::{tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder};

/// A 2-D convolution lowered to tiled matrix multiplies.
///
/// Per output tile: the im2col patch loads `GM → L1 → L0A`, the weights
/// load `GM → L1 → L0B`, the Cube multiplies, a Vector post-op (bias +
/// activation) drains L0C into UB, and MTE-UB stores the tile.
///
/// Baseline pathologies (Table 1 row Conv2D: `MRT` + `RSD`, 2.65×):
///
/// - the weights are re-transferred from GM every tile (`mrt` hoists);
/// - the Vector post-op writes its result back into the same UB region
///   the next tile's drain will use while the store still reads it
///   (`rsd` double-buffers the UB output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2d {
    output_elements: u64,
    /// Channels × kernel-height × kernel-width contraction length.
    contraction: u64,
    tile_out: u64,
    flags: OptFlags,
}

impl Conv2d {
    const ELEM_BYTES: u64 = 2;

    /// A convolution producing `output_elements` FP16 outputs with a
    /// contraction (C·kh·kw) of `contraction`.
    #[must_use]
    pub fn new(output_elements: u64, contraction: u64) -> Self {
        Conv2d {
            output_elements,
            contraction: contraction.max(1),
            tile_out: 4096,
            flags: OptFlags::new(),
        }
    }

    /// Overrides outputs per tile.
    #[must_use]
    pub fn with_tile(mut self, tile_out: u64) -> Self {
        self.tile_out = tile_out.max(1);
        self
    }

    /// Applies optimization flags (`mrt`, `rsd`, `pp`).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for Conv2d {
    fn name(&self) -> String {
        format!("conv2d{}", self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        // im2col inflates the input: each output element reads a patch.
        // Cap the staged patch block to the L0A capacity.
        let patch_bytes = (self.tile_out * Self::ELEM_BYTES * 4).min(48 * 1024);
        // A realistic output-channel block: contraction x 128 channels.
        let weight_bytes = (self.contraction * Self::ELEM_BYTES * 128).min(32 * 1024);
        let out_tile_bytes = self.tile_out * Self::ELEM_BYTES;
        let tile_list: Vec<crate::Tile> = tiles(self.output_elements, self.tile_out).collect();

        let mut alloc = BufferAllocator::new(chip);
        let gm_in = alloc.alloc(Buffer::Gm, patch_bytes * tile_list.len() as u64)?;
        let gm_w = alloc.alloc(Buffer::Gm, weight_bytes)?;
        let gm_out = alloc.alloc(Buffer::Gm, self.output_elements * Self::ELEM_BYTES)?;
        let l1_in = if self.flags.has_pp() {
            alloc.alloc_ping_pong(Buffer::L1, patch_bytes)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::L1, patch_bytes)?]
        };
        let l1_w = alloc.alloc(Buffer::L1, weight_bytes)?;
        let l0a = if self.flags.has_pp() {
            alloc.alloc_ping_pong(Buffer::L0A, patch_bytes)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::L0A, patch_bytes)?]
        };
        let l0b = alloc.alloc(Buffer::L0B, weight_bytes)?;
        let l0c = if self.flags.has_pp() {
            alloc.alloc_ping_pong(Buffer::L0C, out_tile_bytes)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::L0C, out_tile_bytes)?]
        };
        let ub_out = if self.flags.has_rsd() {
            alloc.alloc_ping_pong(Buffer::Ub, out_tile_bytes)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::Ub, out_tile_bytes)?]
        };

        let mut b = KernelBuilder::new(self.name());
        for (i, tile) in tile_list.iter().enumerate() {
            let out_len = tile.len * Self::ELEM_BYTES;
            let l1_r = l1_in[i % l1_in.len()];
            let l0a_r = l0a[i % l0a.len()];
            let l0c_r = l0c[i % l0c.len()];
            b.transfer(
                TransferPath::GmToL1,
                gm_in.slice(i as u64 * patch_bytes, patch_bytes),
                l1_r,
            )?;
            if !self.flags.has_mrt() || i == 0 {
                b.transfer(TransferPath::GmToL1, gm_w, l1_w)?;
            }
            b.sync(Component::MteGm, Component::MteL1);
            b.transfer(TransferPath::L1ToL0A, l1_r, l0a_r)?;
            // Weights stay resident in L0B once MRT hoists their reload.
            if !self.flags.has_mrt() || i == 0 {
                b.transfer(TransferPath::L1ToL0B, l1_w, l0b)?;
            }
            b.sync(Component::MteL1, Component::Cube);
            b.compute(
                ComputeUnit::Cube,
                Precision::Fp16,
                2 * tile.len * self.contraction,
                [l0a_r, l0b],
                [l0c_r.slice(0, out_len)],
            );
            b.sync(Component::Cube, Component::Vector);
            let dst = ub_out[i % ub_out.len()].slice(0, out_len);
            // Bias + activation drain.
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                2 * tile.len,
                [l0c_r.slice(0, out_len)],
                [dst],
            );
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(
                TransferPath::UbToGm,
                dst,
                gm_out.slice(tile.offset * Self::ELEM_BYTES, out_len),
            )?;
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_isa::KernelStats;
    use ascend_sim::Simulator;

    const OUT: u64 = 1 << 18;

    #[test]
    fn builds_and_validates() {
        let chip = ChipSpec::training();
        let kernel = Conv2d::new(OUT, 288).build(&chip).unwrap();
        ascend_isa::validate(&kernel, &chip).unwrap();
    }

    #[test]
    fn rsd_and_mrt_give_a_big_speedup() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let base = Conv2d::new(OUT, 288).build(&chip).unwrap();
        let tuned = Conv2d::new(OUT, 288)
            .with_flags(OptFlags::new().rsd(true).mrt(true).pp(true))
            .build(&chip)
            .unwrap();
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&tuned).unwrap().total_cycles();
        let speedup = t0 / t1;
        assert!(
            speedup > 1.5,
            "Conv2D's paper speedup is 2.65x; expected a large gain, got {speedup:.2}"
        );
    }

    #[test]
    fn mrt_removes_weight_reloads() {
        let chip = ChipSpec::training();
        let base = Conv2d::new(OUT, 288).build(&chip).unwrap();
        let mrt = Conv2d::new(OUT, 288).with_flags(OptFlags::new().mrt(true)).build(&chip).unwrap();
        let b0 = KernelStats::of(&base).bytes_of_component(Component::MteGm);
        let b1 = KernelStats::of(&mrt).bytes_of_component(Component::MteGm);
        assert!(b1 < b0);
    }

    #[test]
    fn cube_ops_scale_with_contraction() {
        let chip = ChipSpec::training();
        let small = Conv2d::new(OUT, 144).build(&chip).unwrap();
        let large = Conv2d::new(OUT, 288).build(&chip).unwrap();
        let s = KernelStats::of(&small).ops_of(ComputeUnit::Cube, Precision::Fp16);
        let l = KernelStats::of(&large).ops_of(ComputeUnit::Cube, Precision::Fp16);
        assert_eq!(l, 2 * s);
    }
}
