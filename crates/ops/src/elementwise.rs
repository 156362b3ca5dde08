//! Generic element-wise vector operators (Mul, Add, AddN, RealDiv, …).
//!
//! These are the operators the PanGu-α study finds dominated by
//! insufficient parallelism (Section 6.2.1); their shared structure is
//! load → vector compute → store per tile.

use crate::{ceil_div, tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder, Region, Regions, INLINE_READS};
use serde::{Deserialize, Serialize};

/// Which element-wise operator to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EltwiseKind {
    /// `y = a + b`.
    Add,
    /// `y = x * c` (tensor-scalar multiply, one input tensor).
    Mul,
    /// `y = x_1 + … + x_n` over `n` inputs.
    AddN(u32),
    /// `y = c / x` (division costs extra vector micro-ops).
    RealDiv,
}

impl EltwiseKind {
    /// Operator name, e.g. `"mul"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EltwiseKind::Add => "add",
            EltwiseKind::Mul => "mul",
            EltwiseKind::AddN(_) => "addn",
            EltwiseKind::RealDiv => "realdiv",
        }
    }

    /// Number of input tensors.
    #[must_use]
    pub fn inputs(&self) -> u32 {
        match self {
            EltwiseKind::Mul | EltwiseKind::RealDiv => 1,
            EltwiseKind::Add => 2,
            EltwiseKind::AddN(n) => (*n).max(2),
        }
    }

    /// Vector operations per output element.
    #[must_use]
    pub fn ops_per_element(&self) -> u64 {
        match self {
            EltwiseKind::Add | EltwiseKind::Mul => 1,
            EltwiseKind::AddN(n) => u64::from((*n).max(2)) - 1,
            // Division is iterated (Newton steps) on the vector unit.
            EltwiseKind::RealDiv => 4,
        }
    }
}

/// A tiled element-wise operator over FP16 tensors.
///
/// Meaningful flags: `rsd` (separate result buffer) and `pp`
/// (double-buffered input staging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elementwise {
    kind: EltwiseKind,
    elements: u64,
    tile_elements: u64,
    precision: Precision,
    flags: OptFlags,
}

impl Elementwise {
    const ELEM_BYTES: u64 = 2;

    /// Creates an element-wise operator over `elements` FP16 values.
    #[must_use]
    pub fn new(kind: EltwiseKind, elements: u64) -> Self {
        Elementwise {
            kind,
            elements,
            tile_elements: 8 * 1024,
            precision: Precision::Fp16,
            flags: OptFlags::new(),
        }
    }

    /// Overrides the tile size (elements per UB tile).
    #[must_use]
    pub fn with_tile(mut self, tile_elements: u64) -> Self {
        self.tile_elements = tile_elements.max(1);
        self
    }

    /// Applies optimization flags.
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }

    /// The operator kind.
    #[must_use]
    pub fn kind(&self) -> EltwiseKind {
        self.kind
    }

    /// Total output elements.
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.elements
    }
}

impl Operator for Elementwise {
    fn name(&self) -> String {
        format!("{}{}", self.kind.name(), self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let inputs = self.kind.inputs() as u64;
        let tile_bytes = self.tile_elements * Self::ELEM_BYTES;
        let mut alloc = BufferAllocator::new(chip);
        let gm_in: Vec<Region> = (0..inputs)
            .map(|_| alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES))
            .collect::<Result<_, _>>()?;
        let gm_out = alloc.alloc(Buffer::Gm, self.elements * Self::ELEM_BYTES)?;
        // Input staging: one region per input; doubled under ping-pong.
        let buffers_per_input = if self.flags.has_pp() { 2 } else { 1 };
        // Input `j`'s buffer for stage `s` is `ub_in[j * buffers_per_input + s]`.
        let ub_in: Vec<Region> = (0..inputs * buffers_per_input as u64)
            .map(|_| alloc.alloc(Buffer::Ub, tile_bytes))
            .collect::<Result<_, _>>()?;
        let ub_res = if self.flags.has_rsd() {
            Some(alloc.alloc_ping_pong(Buffer::Ub, tile_bytes)?)
        } else {
            None
        };

        // Per tile: one load per input, two syncs, the compute, the store.
        let per_tile = inputs as usize + 6;
        let tile_count = ceil_div(self.elements, self.tile_elements) as usize;
        let mut b = KernelBuilder::with_capacity(self.name(), tile_count * per_tile);
        for tile in tiles(self.elements, self.tile_elements) {
            let byte_off = tile.offset * Self::ELEM_BYTES;
            let byte_len = tile.len * Self::ELEM_BYTES;
            let parity = (tile.index % 2) as usize;
            let stage = parity % buffers_per_input;
            // Inline for up to two inputs, like the instruction's own list.
            let in_regions: Regions<INLINE_READS> = (0..inputs as usize)
                .map(|j| ub_in[j * buffers_per_input + stage].slice(0, byte_len))
                .collect();
            let out_region = match &ub_res {
                Some(pair) => pair[parity].slice(0, byte_len),
                None => in_regions[0],
            };
            for (j, dst) in in_regions.iter().enumerate() {
                b.transfer(TransferPath::GmToUb, gm_in[j].slice(byte_off, byte_len), *dst)?;
            }
            b.sync(Component::MteGm, Component::Vector);
            b.compute(
                ComputeUnit::Vector,
                self.precision,
                tile.len * self.kind.ops_per_element(),
                in_regions,
                [out_region],
            );
            b.sync(Component::Vector, Component::MteUb);
            b.transfer(TransferPath::UbToGm, out_region, gm_out.slice(byte_off, byte_len))?;
        }
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

    const N: u64 = 1 << 19;

    fn build(kind: EltwiseKind, flags: OptFlags) -> (ChipSpec, Kernel) {
        let chip = ChipSpec::training();
        let kernel = Elementwise::new(kind, N).with_flags(flags).build(&chip).unwrap();
        (chip, kernel)
    }

    #[test]
    fn all_kinds_build_and_validate() {
        for kind in [EltwiseKind::Add, EltwiseKind::Mul, EltwiseKind::AddN(4), EltwiseKind::RealDiv]
        {
            let (chip, kernel) = build(kind, OptFlags::new());
            ascend_isa::validate(&kernel, &chip).unwrap();
        }
    }

    #[test]
    fn op_counts_match_kind() {
        let (_, kernel) = build(EltwiseKind::AddN(4), OptFlags::new());
        let stats = KernelStats::of(&kernel);
        assert_eq!(stats.ops_of(ComputeUnit::Vector, Precision::Fp16), 3 * N);
        let (_, kernel) = build(EltwiseKind::Mul, OptFlags::new());
        let stats = KernelStats::of(&kernel);
        assert_eq!(stats.ops_of(ComputeUnit::Vector, Precision::Fp16), N);
    }

    #[test]
    fn addn_reads_all_inputs() {
        let (_, kernel) = build(EltwiseKind::AddN(4), OptFlags::new());
        let stats = KernelStats::of(&kernel);
        assert_eq!(stats.bytes_of_component(Component::MteGm), 4 * N * 2);
        assert_eq!(stats.bytes_of_component(Component::MteUb), N * 2);
    }

    #[test]
    fn rsd_improves_mul_like_the_paper() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let base = Elementwise::new(EltwiseKind::Mul, N).build(&chip).unwrap();
        let rsd = Elementwise::new(EltwiseKind::Mul, N)
            .with_flags(OptFlags::new().rsd(true))
            .build(&chip)
            .unwrap();
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&rsd).unwrap().total_cycles();
        let speedup = t0 / t1;
        assert!(
            speedup > 1.1,
            "RSD should speed Mul up noticeably (paper: 1.34x), got {speedup:.2}"
        );
    }

    #[test]
    fn baseline_mul_suffers_insufficient_parallelism() {
        let (chip, kernel) = build(EltwiseKind::Mul, OptFlags::new());
        let (profile, _) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert_eq!(analysis.bottleneck(), Bottleneck::InsufficientParallelism);
    }

    #[test]
    fn pp_stacks_on_rsd() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let rsd = Elementwise::new(EltwiseKind::Add, N)
            .with_flags(OptFlags::new().rsd(true))
            .build(&chip)
            .unwrap();
        let rsd_pp = Elementwise::new(EltwiseKind::Add, N)
            .with_flags(OptFlags::new().rsd(true).pp(true))
            .build(&chip)
            .unwrap();
        let t_rsd = sim.simulate(&rsd).unwrap().total_cycles();
        let t_both = sim.simulate(&rsd_pp).unwrap().total_cycles();
        assert!(t_both <= t_rsd * 1.01, "ping-pong must not hurt: {t_both} vs {t_rsd}");
    }
}
