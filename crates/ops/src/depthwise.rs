//! The Depthwise convolution operator (paper, Section 5.2 / Figures 11–12).

use crate::{tiles, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder, Region};

/// Depthwise convolution: per-channel `Y = <X_window, W>` on the Cube.
///
/// Data flow per channel-block tile: input `GM → L1` (MTE-GM), weights
/// `GM → L1`, `L1 → L0A/L0B` (MTE-L1), Cube multiply-add, a Vector
/// post-op draining L0C into UB, and a *small* (~30 KB) `UB → GM` store.
///
/// The baseline stacks all four pathologies of the case study:
///
/// - the next tile's GM load is dispatched after the whole tile body
///   (*Adjusting Instruction Sequence* hoists it);
/// - a `pipe_barrier(PIPE_ALL)` ends every tile (*Removing Unnecessary
///   Synchronization* drops it);
/// - one L1 staging region is reused, so `GM → L1` of tile *i+1* collides
///   with `L1 → L0A` of tile *i* (*Ping-pong Policy* double-buffers it);
/// - the weights are re-transferred every tile (*Minimizing Redundant
///   Transfer* hoists them);
/// - each output store is a separate small transfer (*Increasing Transfer
///   Granularity* merges four tiles per store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Depthwise {
    /// Output elements across all channels.
    output_elements: u64,
    /// Kernel taps (k*k).
    taps: u64,
    /// Output elements per tile (the paper's ~30 KB stores).
    tile_out: u64,
    flags: OptFlags,
}

impl Depthwise {
    const ELEM_BYTES: u64 = 2;
    const WEIGHT_BYTES: u64 = 2048;
    /// Tiles merged into one store under ITG.
    const MERGE: u64 = 4;

    /// A depthwise convolution producing `output_elements` FP16 outputs
    /// with a 3×3 kernel.
    #[must_use]
    pub fn new(output_elements: u64) -> Self {
        Depthwise { output_elements, taps: 9, tile_out: 15 * 1024, flags: OptFlags::new() }
    }

    /// Overrides the kernel taps (e.g. 9 for 3×3).
    #[must_use]
    pub fn with_taps(mut self, taps: u64) -> Self {
        self.taps = taps.max(1);
        self
    }

    /// Overrides outputs per tile.
    #[must_use]
    pub fn with_tile(mut self, tile_out: u64) -> Self {
        self.tile_out = tile_out.max(1);
        self
    }

    /// Applies optimization flags (`ais`, `rus`, `pp`, `itg`, `mrt`).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for Depthwise {
    fn name(&self) -> String {
        format!("depthwise{}", self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    #[allow(clippy::too_many_lines)]
    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        // Input per tile: the receptive field is ~2x the output for a 3x3
        // stride-1 window (halo included), capped well under L1/L0A.
        let in_tile_bytes = (self.tile_out * 2 * Self::ELEM_BYTES).min(64 * 1024);
        let out_tile_bytes = self.tile_out * Self::ELEM_BYTES;
        let tile_list: Vec<crate::Tile> = tiles(self.output_elements, self.tile_out).collect();
        let n_tiles = tile_list.len();

        let mut alloc = BufferAllocator::new(chip);
        let gm_in = alloc.alloc(Buffer::Gm, in_tile_bytes * n_tiles as u64)?;
        let gm_w = alloc.alloc(Buffer::Gm, Self::WEIGHT_BYTES)?;
        let gm_out = alloc.alloc(Buffer::Gm, self.output_elements * Self::ELEM_BYTES)?;
        // L1 staging: single region (pathological) or ping-pong pair.
        let l1_regions: Vec<Region> = if self.flags.has_pp() {
            alloc.alloc_ping_pong(Buffer::L1, in_tile_bytes)?.to_vec()
        } else {
            vec![alloc.alloc(Buffer::L1, in_tile_bytes)?]
        };
        let l1_w = alloc.alloc(Buffer::L1, Self::WEIGHT_BYTES)?;
        let l0a = alloc.alloc(Buffer::L0A, in_tile_bytes)?;
        let l0b = alloc.alloc(Buffer::L0B, Self::WEIGHT_BYTES)?;
        let l0c = alloc.alloc(Buffer::L0C, out_tile_bytes)?;
        // UB output staging: sized for one tile, or MERGE tiles under ITG.
        let merge = if self.flags.has_itg() { Self::MERGE } else { 1 };
        let ub_out = alloc.alloc(Buffer::Ub, out_tile_bytes * merge)?;
        let ub_idx = alloc.alloc(Buffer::Ub, 256)?;

        let mut b = KernelBuilder::new(self.name());
        let load_tile =
            |b: &mut KernelBuilder, index: usize, regions: &[Region]| -> Result<(), IsaError> {
                let src = gm_in.slice(index as u64 * in_tile_bytes, in_tile_bytes);
                let dst = regions[index % regions.len()];
                b.transfer(TransferPath::GmToL1, src, dst)?;
                Ok(())
            };

        // AIS: prefetch tile 0 before the loop so each iteration can hoist
        // the *next* tile's load to the top of its body.
        if self.flags.has_ais() {
            load_tile(&mut b, 0, &l1_regions)?;
        }
        let mut merged_bytes: u64 = 0;
        let mut merged_start: u64 = 0;
        for (i, tile) in tile_list.iter().enumerate() {
            let out_len = tile.len * Self::ELEM_BYTES;
            let l1_in = l1_regions[i % l1_regions.len()];

            // Scalar address arithmetic for the tile's windows: the
            // "intermediate instructions" of Figure 12 that delay the next
            // MTE-GM dispatch in the original code.
            let emit_scalar_control = |b: &mut KernelBuilder| {
                for _ in 0..12 {
                    b.compute(ComputeUnit::Scalar, Precision::Int32, 16, [], [ub_idx]);
                }
            };
            if self.flags.has_ais() {
                // Hoisted: issue the next tile's GM load before the
                // control arithmetic.
                if i + 1 < n_tiles {
                    load_tile(&mut b, i + 1, &l1_regions)?;
                }
                emit_scalar_control(&mut b);
            } else {
                emit_scalar_control(&mut b);
                load_tile(&mut b, i, &l1_regions)?;
            }
            // Weights: redundant per-tile transfer unless MRT.
            if !self.flags.has_mrt() || i == 0 {
                b.transfer(TransferPath::GmToL1, gm_w, l1_w)?;
            }
            b.sync(Component::MteGm, Component::MteL1);
            b.transfer(TransferPath::L1ToL0A, l1_in, l0a.slice(0, in_tile_bytes))?;
            b.transfer(TransferPath::L1ToL0B, l1_w, l0b)?;
            b.sync(Component::MteL1, Component::Cube);
            b.compute(
                ComputeUnit::Cube,
                Precision::Fp16,
                tile.len * self.taps * 2,
                [l0a.slice(0, in_tile_bytes), l0b],
                [l0c.slice(0, out_len)],
            );
            b.sync(Component::Cube, Component::Vector);
            // Vector drains L0C into the UB staging area.
            let ub_dst = ub_out.slice(merged_bytes, out_len);
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                tile.len,
                [l0c.slice(0, out_len)],
                [ub_dst],
            );
            merged_bytes += out_len;
            let flush = (i as u64 + 1).is_multiple_of(merge) || i + 1 == n_tiles;
            if flush {
                b.sync(Component::Vector, Component::MteUb);
                b.transfer(
                    TransferPath::UbToGm,
                    ub_out.slice(0, merged_bytes),
                    gm_out.slice(merged_start, merged_bytes),
                )?;
                merged_start += merged_bytes;
                merged_bytes = 0;
            }
            // Excess synchronization unless RUS: the original code drops a
            // pipe_barrier(ALL) after every other tile.
            if !self.flags.has_rus() && i % 2 == 1 {
                b.barrier_all();
            }
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

    const OUT: u64 = 1 << 20;

    fn run(flags: OptFlags) -> (ChipSpec, ascend_profile::Profile, f64) {
        let chip = ChipSpec::training();
        let kernel = Depthwise::new(OUT).with_flags(flags).build(&chip).unwrap();
        let (profile, trace) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let total = trace.total_cycles();
        (chip, profile, total)
    }

    #[test]
    fn builds_and_validates() {
        let chip = ChipSpec::training();
        for flags in [OptFlags::new(), OptFlags::new().ais(true).rus(true).pp(true).itg(true)] {
            let kernel = Depthwise::new(OUT).with_flags(flags).build(&chip).unwrap();
            ascend_isa::validate(&kernel, &chip).unwrap();
        }
    }

    #[test]
    fn baseline_is_insufficient_parallelism() {
        let (chip, profile, _) = run(OptFlags::new());
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert_eq!(
            analysis.bottleneck(),
            Bottleneck::InsufficientParallelism,
            "\n{}",
            analysis.summary()
        );
    }

    #[test]
    fn each_iteration_raises_peak_utilization() {
        let chain = [
            OptFlags::new(),
            OptFlags::new().ais(true),
            OptFlags::new().ais(true).rus(true),
            OptFlags::new().ais(true).rus(true).pp(true),
            OptFlags::new().ais(true).rus(true).pp(true).itg(true).mrt(true),
        ];
        let mut last_util = 0.0;
        for flags in chain {
            let (chip, profile, _) = run(flags);
            let util = analyze(&profile, &chip, &Thresholds::default()).peak_utilization();
            assert!(
                util >= last_util * 0.98,
                "utilization should not regress at {flags:?}: {last_util} -> {util}"
            );
            last_util = last_util.max(util);
        }
        assert!(
            last_util > 0.75,
            "fully optimized depthwise should near its bound, got {last_util}"
        );
    }

    #[test]
    fn fully_optimized_is_mte_gm_bound() {
        let (chip, profile, _) =
            run(OptFlags::new().ais(true).rus(true).pp(true).itg(true).mrt(true));
        let analysis = analyze(&profile, &chip, &Thresholds::default());
        assert_eq!(
            analysis.bottleneck(),
            Bottleneck::MteBound(Component::MteGm),
            "\n{}",
            analysis.summary()
        );
    }

    #[test]
    fn optimization_chain_speeds_up_monotonically_overall() {
        let (_, _, t_base) = run(OptFlags::new());
        let (_, _, t_full) = run(OptFlags::new().ais(true).rus(true).pp(true).itg(true).mrt(true));
        let speedup = t_base / t_full;
        assert!(speedup > 1.15, "the paper reports 1.26x for depthwise, got {speedup:.2}");
    }

    #[test]
    fn ping_pong_reduces_waiting_intervals() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let before = Depthwise::new(OUT)
            .with_flags(OptFlags::new().ais(true).rus(true))
            .build(&chip)
            .unwrap();
        let after = Depthwise::new(OUT)
            .with_flags(OptFlags::new().ais(true).rus(true).pp(true))
            .build(&chip)
            .unwrap();
        let t0 = sim.simulate(&before).unwrap();
        let t1 = sim.simulate(&after).unwrap();
        let w0 = t0.waiting_intervals(Component::MteGm, 10.0);
        let w1 = t1.waiting_intervals(Component::MteGm, 10.0);
        assert!(
            w1 < w0,
            "ping-pong must reduce MTE-GM waiting intervals (paper: 14 -> 3), got {w0} -> {w1}"
        );
    }

    #[test]
    fn itg_enlarges_stores_without_changing_bytes() {
        let chip = ChipSpec::training();
        let base = Depthwise::new(OUT).build(&chip).unwrap();
        let itg = Depthwise::new(OUT).with_flags(OptFlags::new().itg(true)).build(&chip).unwrap();
        let s0 = ascend_isa::KernelStats::of(&base);
        let s1 = ascend_isa::KernelStats::of(&itg);
        assert_eq!(
            s0.bytes_of_component(Component::MteUb),
            s1.bytes_of_component(Component::MteUb)
        );
        assert!(
            s1.instructions_per_queue[&Component::MteUb]
                < s0.instructions_per_queue[&Component::MteUb]
        );
    }
}
