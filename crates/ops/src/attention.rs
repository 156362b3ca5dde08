//! Scaled-dot-product attention, unfused vs. FlashAttention-style fused.
//!
//! Section 5.4 names cache strategies "like FlashAttention" as the
//! flagship Operator Fusion remedy for MTE-bound operators: the naive
//! pipeline materializes the `seq × seq` score matrix in GM twice (once
//! after `QKᵀ`, once after the softmax), while the fused kernel keeps
//! score tiles on chip and only ever writes the output.

use crate::{ceil_div, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder, Region};

/// Single-head attention `O = softmax(Q Kᵀ / √d) V` over FP16 tensors.
///
/// Meaningful flags: `fused` (FlashAttention-style on-chip score tiles)
/// and `pp` (double-buffered staging inside the fused kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attention {
    seq: u64,
    dim: u64,
    flags: OptFlags,
}

impl Attention {
    const ELEM_BYTES: u64 = 2;
    /// Query rows processed per block.
    const BQ: u64 = 64;
    /// Key/value rows processed per chunk.
    const BK: u64 = 256;

    /// Attention over a `seq × dim` query/key/value set.
    #[must_use]
    pub fn new(seq: u64, dim: u64) -> Self {
        Attention { seq: seq.max(Self::BQ), dim: dim.max(16), flags: OptFlags::new() }
    }

    /// Applies optimization flags (`fused`, `pp`).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }

    /// The (seq, dim) shape.
    #[must_use]
    pub fn shape(&self) -> (u64, u64) {
        (self.seq, self.dim)
    }

    #[allow(clippy::too_many_lines)]
    fn build_fused(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let e = Self::ELEM_BYTES;
        let q_tile = Self::BQ * self.dim * e;
        let kv_tile = Self::BK * self.dim * e;
        let s_tile = Self::BQ * Self::BK * e;
        let mut alloc = BufferAllocator::new(chip);
        let gm_q = alloc.alloc(Buffer::Gm, self.seq * self.dim * e)?;
        let gm_k = alloc.alloc(Buffer::Gm, self.seq * self.dim * e)?;
        let gm_v = alloc.alloc(Buffer::Gm, self.seq * self.dim * e)?;
        let gm_o = alloc.alloc(Buffer::Gm, self.seq * self.dim * e)?;
        let l1_q = alloc.alloc(Buffer::L1, q_tile)?;
        let l1_kv: Vec<Region> = if self.flags.has_pp() {
            alloc.alloc_ping_pong(Buffer::L1, 2 * kv_tile)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::L1, 2 * kv_tile)?]
        };
        let l0a = alloc.alloc(Buffer::L0A, q_tile.max(s_tile))?;
        let l0b = alloc.alloc(Buffer::L0B, kv_tile)?;
        let l0c = alloc.alloc(Buffer::L0C, s_tile)?;
        let ub_s = alloc.alloc(Buffer::Ub, s_tile)?;
        let ub_o = alloc.alloc(Buffer::Ub, q_tile)?;

        let mut b = KernelBuilder::new(self.name());
        let q_blocks = ceil_div(self.seq, Self::BQ);
        let k_chunks = ceil_div(self.seq, Self::BK);
        for qi in 0..q_blocks {
            let bq = Self::BQ.min(self.seq - qi * Self::BQ);
            b.transfer(TransferPath::GmToL1, gm_q.slice(qi * q_tile, q_tile), l1_q)?;
            b.sync(Component::MteGm, Component::MteL1);
            for ki in 0..k_chunks {
                let bk = Self::BK.min(self.seq - ki * Self::BK);
                let kv = l1_kv[(ki as usize) % l1_kv.len()];
                // K and V chunks stream through L1; scores stay on chip.
                b.transfer(
                    TransferPath::GmToL1,
                    gm_k.slice(ki * kv_tile, kv_tile),
                    kv.slice(0, kv_tile),
                )?;
                b.transfer(
                    TransferPath::GmToL1,
                    gm_v.slice(ki * kv_tile, kv_tile),
                    kv.slice(kv_tile, kv_tile),
                )?;
                b.sync(Component::MteGm, Component::MteL1);
                b.transfer(TransferPath::L1ToL0A, l1_q, l0a.slice(0, q_tile))?;
                b.transfer(TransferPath::L1ToL0B, kv.slice(0, kv_tile), l0b)?;
                b.sync(Component::MteL1, Component::Cube);
                // S = Q K^T on this tile.
                b.compute(
                    ComputeUnit::Cube,
                    Precision::Fp16,
                    2 * bq * bk * self.dim,
                    [l0a.slice(0, q_tile), l0b],
                    [l0c.slice(0, s_tile)],
                );
                b.sync(Component::Cube, Component::Vector);
                // Online softmax on the score tile (never leaves UB).
                b.compute(
                    ComputeUnit::Vector,
                    Precision::Fp16,
                    6 * bq * bk,
                    [l0c.slice(0, s_tile)],
                    [ub_s.slice(0, s_tile)],
                );
                b.sync(Component::Vector, Component::Cube);
                // O += P V for this chunk.
                b.compute(
                    ComputeUnit::Cube,
                    Precision::Fp16,
                    2 * bq * bk * self.dim,
                    [ub_s.slice(0, s_tile), l0b],
                    [l0c.slice(0, q_tile.min(s_tile))],
                );
            }
            b.sync(Component::Cube, Component::Vector);
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                bq * self.dim,
                [l0c.slice(0, q_tile.min(s_tile))],
                [ub_o.slice(0, q_tile)],
            );
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(
                TransferPath::UbToGm,
                ub_o.slice(0, q_tile),
                gm_o.slice(qi * q_tile, q_tile),
            )?;
        }
        Ok(b.build())
    }

    fn build_unfused(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let e = Self::ELEM_BYTES;
        let q_tile = Self::BQ * self.dim * e;
        let kv_tile = Self::BK * self.dim * e;
        let s_tile = Self::BQ * Self::BK * e;
        let mut alloc = BufferAllocator::new(chip);
        let gm_q = alloc.alloc(Buffer::Gm, self.seq * self.dim * e)?;
        let gm_k = alloc.alloc(Buffer::Gm, self.seq * self.dim * e)?;
        let gm_v = alloc.alloc(Buffer::Gm, self.seq * self.dim * e)?;
        // The materialized score/probability matrices: seq x seq in GM.
        let gm_s = alloc.alloc(Buffer::Gm, self.seq * self.seq * e)?;
        let gm_p = alloc.alloc(Buffer::Gm, self.seq * self.seq * e)?;
        let gm_o = alloc.alloc(Buffer::Gm, self.seq * self.dim * e)?;
        let l1_q = alloc.alloc(Buffer::L1, q_tile)?;
        let l1_p = alloc.alloc(Buffer::L1, s_tile)?;
        let l1_kv = alloc.alloc(Buffer::L1, kv_tile)?;
        let l0a = alloc.alloc(Buffer::L0A, q_tile.max(s_tile).min(64 << 10))?;
        let l0b = alloc.alloc(Buffer::L0B, kv_tile)?;
        let l0c = alloc.alloc(Buffer::L0C, s_tile)?;
        let ub = alloc.alloc(Buffer::Ub, s_tile)?;
        let ub_o = alloc.alloc(Buffer::Ub, q_tile)?;

        let mut b = KernelBuilder::new(self.name());
        let q_blocks = ceil_div(self.seq, Self::BQ);
        let k_chunks = ceil_div(self.seq, Self::BK);

        // Phase 1: S = Q K^T, materialized to GM tile by tile.
        for qi in 0..q_blocks {
            let bq = Self::BQ.min(self.seq - qi * Self::BQ);
            b.transfer(TransferPath::GmToL1, gm_q.slice(qi * q_tile, q_tile), l1_q)?;
            b.sync(Component::MteGm, Component::MteL1);
            for ki in 0..k_chunks {
                let bk = Self::BK.min(self.seq - ki * Self::BK);
                b.transfer(TransferPath::GmToL1, gm_k.slice(ki * kv_tile, kv_tile), l1_kv)?;
                b.sync(Component::MteGm, Component::MteL1);
                b.transfer(TransferPath::L1ToL0A, l1_q, l0a.slice(0, q_tile))?;
                b.transfer(TransferPath::L1ToL0B, l1_kv, l0b)?;
                b.sync(Component::MteL1, Component::Cube);
                b.compute(
                    ComputeUnit::Cube,
                    Precision::Fp16,
                    2 * bq * bk * self.dim,
                    [l0a.slice(0, q_tile), l0b],
                    [l0c.slice(0, s_tile)],
                );
                b.sync(Component::Cube, Component::Vector);
                b.compute(
                    ComputeUnit::Vector,
                    Precision::Fp16,
                    bq * bk,
                    [l0c.slice(0, s_tile)],
                    [ub.slice(0, s_tile)],
                );
                b.sync(Component::Vector, Component::MteUb);
                let s_off = (qi * k_chunks + ki) * s_tile;
                b.transfer(TransferPath::UbToGm, ub.slice(0, s_tile), gm_s.slice(s_off, s_tile))?;
            }
        }
        // Phase 2: P = softmax(S), a full GM round trip over seq^2.
        let soft_tile = 16 * 1024 * e;
        let ub_soft = alloc.alloc(Buffer::Ub, soft_tile)?;
        let total = self.seq * self.seq * e;
        for t in crate::tiles(total, soft_tile) {
            let src = gm_s.slice(t.offset, t.len);
            let dst = gm_p.slice(t.offset, t.len);
            let staged = ub_soft.slice(0, t.len);
            b.transfer(TransferPath::GmToUb, src, staged)?;
            b.sync(Component::MteGm, Component::Vector);
            b.compute(ComputeUnit::Vector, Precision::Fp16, 6 * t.len / e, [staged], [staged]);
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(TransferPath::UbToGm, staged, dst)?;
        }
        // Phase 3: O = P V, reading P back from GM.
        for qi in 0..q_blocks {
            let bq = Self::BQ.min(self.seq - qi * Self::BQ);
            for ki in 0..k_chunks {
                let bk = Self::BK.min(self.seq - ki * Self::BK);
                let p_off = (qi * k_chunks + ki) * s_tile;
                b.transfer(TransferPath::GmToL1, gm_p.slice(p_off, s_tile), l1_p)?;
                b.transfer(TransferPath::GmToL1, gm_v.slice(ki * kv_tile, kv_tile), l1_kv)?;
                b.sync(Component::MteGm, Component::MteL1);
                b.transfer(TransferPath::L1ToL0A, l1_p, l0a.slice(0, s_tile.min(l0a.len())))?;
                b.transfer(TransferPath::L1ToL0B, l1_kv, l0b)?;
                b.sync(Component::MteL1, Component::Cube);
                b.compute(
                    ComputeUnit::Cube,
                    Precision::Fp16,
                    2 * bq * bk * self.dim,
                    [l0a.slice(0, s_tile.min(l0a.len())), l0b],
                    [l0c.slice(0, q_tile.min(s_tile))],
                );
            }
            b.sync(Component::Cube, Component::Vector);
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                bq * self.dim,
                [l0c.slice(0, q_tile.min(s_tile))],
                [ub_o.slice(0, q_tile)],
            );
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(
                TransferPath::UbToGm,
                ub_o.slice(0, q_tile),
                gm_o.slice(qi * q_tile, q_tile),
            )?;
        }
        Ok(b.build())
    }
}

impl Operator for Attention {
    fn name(&self) -> String {
        if self.flags.has_fused() {
            format!("flash_attention_{}x{}{}", self.seq, self.dim, self.flags.suffix())
        } else {
            format!("attention_{}x{}{}", self.seq, self.dim, self.flags.suffix())
        }
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        if self.flags.has_fused() {
            self.build_fused(chip)
        } else {
            self.build_unfused(chip)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_isa::KernelStats;
    use ascend_sim::Simulator;

    const SEQ: u64 = 1024;
    const DIM: u64 = 64;

    #[test]
    fn both_variants_build_and_validate() {
        let chip = ChipSpec::training();
        for flags in [OptFlags::new(), OptFlags::new().fused(true)] {
            let kernel = Attention::new(SEQ, DIM).with_flags(flags).build(&chip).unwrap();
            ascend_isa::validate(&kernel, &chip).unwrap();
        }
    }

    #[test]
    fn fusion_eliminates_the_score_round_trips() {
        let chip = ChipSpec::training();
        let unfused = Attention::new(SEQ, DIM).build(&chip).unwrap();
        let fused =
            Attention::new(SEQ, DIM).with_flags(OptFlags::new().fused(true)).build(&chip).unwrap();
        let b0 = KernelStats::of(&unfused);
        let b1 = KernelStats::of(&fused);
        // The materialized S and P matrices dominate unfused GM traffic.
        assert!(
            b1.bytes_of_component(Component::MteUb) * 3 < b0.bytes_of_component(Component::MteUb),
            "fused write-out must shrink drastically: {} vs {}",
            b1.bytes_of_component(Component::MteUb),
            b0.bytes_of_component(Component::MteUb)
        );
        // Cube work is identical: fusion changes traffic, not math.
        assert_eq!(
            b0.ops_of(ComputeUnit::Cube, Precision::Fp16),
            b1.ops_of(ComputeUnit::Cube, Precision::Fp16)
        );
    }

    #[test]
    fn fusion_is_substantially_faster() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let t0 =
            sim.simulate(&Attention::new(SEQ, DIM).build(&chip).unwrap()).unwrap().total_cycles();
        let t1 = sim
            .simulate(
                &Attention::new(SEQ, DIM)
                    .with_flags(OptFlags::new().fused(true))
                    .build(&chip)
                    .unwrap(),
            )
            .unwrap()
            .total_cycles();
        let speedup = t0 / t1;
        assert!(speedup > 1.3, "FlashAttention-style fusion must pay off, got {speedup:.2}");
    }

    #[test]
    fn fusion_gain_grows_with_sequence_length() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let speedup_at = |seq: u64| {
            let t0 = sim
                .simulate(&Attention::new(seq, DIM).build(&chip).unwrap())
                .unwrap()
                .total_cycles();
            let t1 = sim
                .simulate(
                    &Attention::new(seq, DIM)
                        .with_flags(OptFlags::new().fused(true))
                        .build(&chip)
                        .unwrap(),
                )
                .unwrap()
                .total_cycles();
            t0 / t1
        };
        let short = speedup_at(512);
        let long = speedup_at(2048);
        assert!(
            long > short,
            "the seq^2 score matrix should hurt more at longer sequences: {short:.2} vs {long:.2}"
        );
    }
}
