//! Embedding gather and row-wise reduction — the recommendation-model
//! memory patterns (DeepFM / Wide&Deep / DLRM in Table 2).

use crate::{tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder};

/// Embedding-table gather: `lookups` random rows of `dim` FP16 values.
///
/// The baseline issues one tiny `GM → UB` transfer per looked-up row —
/// the canonical *inefficient MTE* pattern. `itg` batches
/// [`Embedding::BATCH`] rows per transfer (vectorized gather), the same
/// remedy the paper's Increasing Transfer Granularity applies to small
/// stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Embedding {
    rows: u64,
    dim: u64,
    lookups: u64,
    flags: OptFlags,
}

impl Embedding {
    const ELEM_BYTES: u64 = 2;
    /// Rows fetched per transfer under ITG.
    pub const BATCH: u64 = 32;

    /// A gather of `lookups` rows from a `rows × dim` FP16 table.
    #[must_use]
    pub fn new(rows: u64, dim: u64, lookups: u64) -> Self {
        Embedding {
            rows: rows.max(1),
            dim: dim.max(8),
            lookups: lookups.max(1),
            flags: OptFlags::new(),
        }
    }

    /// Applies optimization flags (`itg`).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for Embedding {
    fn name(&self) -> String {
        format!("embedding_{}x{}x{}{}", self.rows, self.dim, self.lookups, self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let row_bytes = self.dim * Self::ELEM_BYTES;
        let batch = if self.flags.has_itg() { Self::BATCH } else { 1 };
        let fetch_bytes = row_bytes * batch;
        let mut alloc = BufferAllocator::new(chip);
        let gm_table = alloc.alloc(Buffer::Gm, self.rows * row_bytes)?;
        let gm_out = alloc.alloc(Buffer::Gm, self.lookups * row_bytes)?;
        let ub = alloc.alloc_ping_pong(Buffer::Ub, fetch_bytes.max(row_bytes))?;

        let mut b = KernelBuilder::new(self.name());
        let fetches = self.lookups.div_ceil(batch);
        for f in 0..fetches {
            let got = batch.min(self.lookups - f * batch);
            let len = got * row_bytes;
            // Deterministic pseudo-random row (stride walk over the table).
            let row = (f * 2_654_435_761) % self.rows.saturating_sub(batch).max(1);
            let staged = ub[(f % 2) as usize].slice(0, len);
            b.transfer(TransferPath::GmToUb, gm_table.slice(row * row_bytes, len), staged)?;
            b.sync(Component::MteGm, Component::MteUb);
            b.transfer(TransferPath::UbToGm, staged, gm_out.slice(f * batch * row_bytes, len))?;
        }
        Ok(b.build())
    }
}

/// Row-wise reduction `y[r] = Σ x[r, :]` over FP16 data: streams the
/// input once and writes a tiny output — a Vector-side streaming pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceSum {
    elements: u64,
    reduction: u64,
    tile_elements: u64,
    flags: OptFlags,
}

impl ReduceSum {
    const ELEM_BYTES: u64 = 2;

    /// A reduction producing `elements / reduction` sums over windows of
    /// `reduction` values.
    #[must_use]
    pub fn new(elements: u64, reduction: u64) -> Self {
        ReduceSum {
            elements,
            reduction: reduction.max(2),
            tile_elements: 16 * 1024,
            flags: OptFlags::new(),
        }
    }

    /// Applies optimization flags (`pp`).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for ReduceSum {
    fn name(&self) -> String {
        format!("reduce_sum{}", self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let tile_bytes = self.tile_elements * Self::ELEM_BYTES;
        let out_total = (self.elements / self.reduction).max(1) * Self::ELEM_BYTES;
        let mut alloc = BufferAllocator::new(chip);
        let gm_in = alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES)?;
        let gm_out = alloc.alloc(Buffer::Gm, out_total)?;
        let ub_in = if self.flags.has_pp() {
            alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::Ub, tile_bytes)?]
        };
        let ub_acc = alloc.alloc(Buffer::Ub, 4096)?;

        let mut b = KernelBuilder::new(self.name());
        for tile in tiles(self.elements, self.tile_elements) {
            let off = tile.offset * Self::ELEM_BYTES;
            let len = tile.len * Self::ELEM_BYTES;
            let src = ub_in[(tile.index as usize) % ub_in.len()].slice(0, len);
            b.transfer(TransferPath::GmToUb, gm_in.slice(off, len), src)?;
            b.sync(Component::MteGm, Component::Vector);
            b.compute(ComputeUnit::Vector, Precision::Fp16, tile.len, [src], [ub_acc]);
        }
        // One small final write-out.
        b.sync(Component::Vector, Component::MteUb);
        let out_len = out_total.min(4096);
        b.transfer(TransferPath::UbToGm, ub_acc.slice(0, out_len), gm_out.slice(0, out_len))?;
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_isa::KernelStats;
    use ascend_profile::Profiler;
    use ascend_roofline::{analyze, Bottleneck, Thresholds};
    use ascend_sim::Simulator;

    #[test]
    fn embedding_builds_and_validates() {
        let chip = ChipSpec::training();
        for flags in [OptFlags::new(), OptFlags::new().itg(true)] {
            let kernel = Embedding::new(1 << 16, 64, 4096).with_flags(flags).build(&chip).unwrap();
            ascend_isa::validate(&kernel, &chip).unwrap();
        }
    }

    #[test]
    fn baseline_gather_is_inefficient_mte() {
        let chip = ChipSpec::training();
        let kernel = Embedding::new(1 << 16, 64, 4096).build(&chip).unwrap();
        let (profile, _) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert!(
            matches!(analysis.bottleneck(), Bottleneck::InefficientMte(_)),
            "\n{}",
            analysis.summary()
        );
    }

    #[test]
    fn itg_batches_lookups_and_pays_off_hugely() {
        let chip = ChipSpec::training();
        let base = Embedding::new(1 << 16, 64, 4096).build(&chip).unwrap();
        let itg = Embedding::new(1 << 16, 64, 4096)
            .with_flags(OptFlags::new().itg(true))
            .build(&chip)
            .unwrap();
        let s0 = KernelStats::of(&base);
        let s1 = KernelStats::of(&itg);
        assert_eq!(
            s0.bytes_of_component(ascend_arch::Component::MteGm),
            s1.bytes_of_component(ascend_arch::Component::MteGm),
            "same bytes, different granularity"
        );
        let sim = Simulator::new(chip);
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&itg).unwrap().total_cycles();
        assert!(t0 / t1 > 4.0, "row-at-a-time gather is brutal: got {:.2}x", t0 / t1);
    }

    #[test]
    fn reduce_sum_reads_everything_writes_almost_nothing() {
        let chip = ChipSpec::training();
        let kernel = ReduceSum::new(1 << 19, 1 << 10).build(&chip).unwrap();
        ascend_isa::validate(&kernel, &chip).unwrap();
        let stats = KernelStats::of(&kernel);
        assert!(
            stats.bytes_of_component(ascend_arch::Component::MteGm)
                > 100 * stats.bytes_of_component(ascend_arch::Component::MteUb)
        );
    }

    #[test]
    fn reduce_sum_pp_overlaps_loads() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let base = ReduceSum::new(1 << 19, 1 << 10).build(&chip).unwrap();
        let pp = ReduceSum::new(1 << 19, 1 << 10)
            .with_flags(OptFlags::new().pp(true))
            .build(&chip)
            .unwrap();
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&pp).unwrap().total_cycles();
        assert!(t1 <= t0, "double-buffered input must not hurt: {t1} > {t0}");
    }
}
