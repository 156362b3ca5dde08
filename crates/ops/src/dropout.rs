//! The DropoutDoMask operator and its V3 replacement.

use crate::{tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder};

/// Dropout masking over FP16 activations.
///
/// The baseline `DropoutDoMask` streams a *pre-materialized* mask tensor
/// from GM alongside the input and spends three vector micro-ops per
/// element. The `ea` flag selects `DropoutDoMaskV3`, the high-performance
/// substitute of the PanGu-α study: the mask is expanded on the fly from
/// a compact bitmask (an eighth of the bytes) with two micro-ops per
/// element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dropout {
    elements: u64,
    tile_elements: u64,
    flags: OptFlags,
}

impl Dropout {
    const ELEM_BYTES: u64 = 2;

    /// A dropout over `elements` FP16 values.
    #[must_use]
    pub fn new(elements: u64) -> Self {
        Dropout { elements, tile_elements: 8 * 1024, flags: OptFlags::new() }
    }

    /// Applies optimization flags (`ea` selects the V3 variant).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }

    fn is_v3(&self) -> bool {
        self.flags.has_ea()
    }
}

impl Operator for Dropout {
    fn name(&self) -> String {
        if self.is_v3() {
            format!("dropout_do_mask_v3{}", self.flags.suffix())
        } else {
            format!("dropout_do_mask{}", self.flags.suffix())
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
        // V3: compact bitmask (1 bit/element, padded); base: full mask.
        let mask_tile = if self.is_v3() { tile_bytes / 8 } else { tile_bytes };
        let mask_total = if self.is_v3() {
            self.elements * Self::ELEM_BYTES / 8
        } else {
            self.elements * Self::ELEM_BYTES
        };
        let ops_per_element: u64 = if self.is_v3() { 2 } else { 3 };

        let mut alloc = BufferAllocator::new(chip);
        let gm_in = alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES)?;
        let gm_mask = alloc.alloc(Buffer::Gm, mask_total.max(64))?;
        let gm_out = alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES)?;
        let ub_in = alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?;
        let ub_mask = alloc.alloc(Buffer::Ub, mask_tile.max(64))?;
        let ub_out = alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?;

        let mut b = KernelBuilder::new(self.name());
        for tile in tiles(self.elements, self.tile_elements) {
            let off = tile.offset * Self::ELEM_BYTES;
            let len = tile.len * Self::ELEM_BYTES;
            let parity = (tile.index % 2) as usize;
            let src = ub_in[parity].slice(0, len);
            let dst = ub_out[parity].slice(0, len);
            let m_off = if self.is_v3() { off / 8 } else { off };
            let m_len = (if self.is_v3() { len / 8 } else { len }).max(64);
            let mask_src = gm_mask.slice(m_off.min(gm_mask.len() - m_len), m_len);
            let mask_dst = ub_mask.slice(0, m_len.min(ub_mask.len()));

            b.transfer(TransferPath::GmToUb, gm_in.slice(off, len), src)?;
            b.transfer(TransferPath::GmToUb, mask_src, mask_dst)?;
            b.sync(Component::MteGm, Component::Vector);
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                tile.len * ops_per_element,
                [src, mask_dst],
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
    use ascend_isa::KernelStats;
    use ascend_sim::Simulator;

    const N: u64 = 1 << 19;

    #[test]
    fn both_variants_build_and_validate() {
        let chip = ChipSpec::training();
        for flags in [OptFlags::new(), OptFlags::new().ea(true)] {
            let kernel = Dropout::new(N).with_flags(flags).build(&chip).unwrap();
            ascend_isa::validate(&kernel, &chip).unwrap();
        }
    }

    #[test]
    fn v3_moves_fewer_bytes_and_is_faster() {
        let chip = ChipSpec::training();
        let base = Dropout::new(N).build(&chip).unwrap();
        let v3 = Dropout::new(N).with_flags(OptFlags::new().ea(true)).build(&chip).unwrap();
        let b0 = KernelStats::of(&base).bytes_of_component(Component::MteGm);
        let b1 = KernelStats::of(&v3).bytes_of_component(Component::MteGm);
        assert!(b1 < b0, "V3's compact mask must shrink GM traffic: {b1} !< {b0}");
        let sim = Simulator::new(chip);
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&v3).unwrap().total_cycles();
        assert!(t1 < t0, "V3 must be faster: {t1} !< {t0}");
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Dropout::new(8).name(), "dropout_do_mask");
        assert!(Dropout::new(8)
            .with_flags(OptFlags::new().ea(true))
            .name()
            .starts_with("dropout_do_mask_v3"));
    }
}
