//! Cube matrix-multiplication operators: MatMul, fused MatMul+Add,
//! BatchMatMul, and FullyConnection.

use crate::{ceil_div, Operator, OptFlags};
use ascend_arch::{Buffer, ChipSpec, Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{BufferAllocator, IsaError, Kernel, KernelBuilder, Region};

/// Shared GEMM tiling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GemmConfig {
    m: u64,
    k: u64,
    n: u64,
    bm: u64,
    bn: u64,
    kc: u64,
    precision: Precision,
    elem_bytes: u64,
}

impl GemmConfig {
    fn new(m: u64, k: u64, n: u64, flags: OptFlags) -> Self {
        let (precision, elem_bytes) =
            if flags.has_lc() { (Precision::Int8, 1) } else { (Precision::Fp16, 2) };
        GemmConfig { m, k, n, bm: 64.min(m), bn: 64.min(n), kc: 256.min(k), precision, elem_bytes }
    }
}

/// What happens to each output block after the Cube finishes it.
enum Drain {
    /// Plain store to GM, one transfer per block.
    Store,
    /// Vector-add a bias that already sits in UB, then store (operator
    /// fusion: saves the GM round trip of a separate Add).
    FusedAdd(Region),
    /// Accumulate `merge` blocks in UB, then store them as one transfer
    /// (Increasing Transfer Granularity).
    Merged(u64),
    /// Store each of the block's `bm` rows separately — the strided
    /// row-major writeout whose tiny granularity makes the MTE-UB
    /// inefficient (the FullyConnection pathology ITG fixes).
    RowStore,
}

/// Emits a full tiled GEMM into `b`. Returns the GM region holding C.
#[allow(clippy::too_many_arguments)]
fn emit_gemm(
    b: &mut KernelBuilder,
    alloc: &mut BufferAllocator,
    cfg: GemmConfig,
    flags: OptFlags,
    gm_a: Region,
    gm_b: Region,
    gm_c: Region,
    drain: &Drain,
) -> Result<(), IsaError> {
    let a_tile = cfg.bm * cfg.kc * cfg.elem_bytes;
    let b_tile = cfg.kc * cfg.bn * cfg.elem_bytes;
    let c_tile = cfg.bm * cfg.bn * cfg.elem_bytes;
    let l1_mark = alloc.mark(Buffer::L1);
    let l0a_mark = alloc.mark(Buffer::L0A);
    let l0b_mark = alloc.mark(Buffer::L0B);
    let l0c_mark = alloc.mark(Buffer::L0C);
    let l1_a: Vec<Region> = if flags.has_pp() {
        alloc.alloc_ping_pong(Buffer::L1, a_tile)?.to_vec()
    } else {
        vec![alloc.alloc(Buffer::L1, a_tile)?]
    };
    let l1_b: Vec<Region> = if flags.has_pp() {
        alloc.alloc_ping_pong(Buffer::L1, b_tile)?.to_vec()
    } else {
        vec![alloc.alloc(Buffer::L1, b_tile)?]
    };
    let l0a = alloc.alloc(Buffer::L0A, a_tile.max(b_tile).min(alloc.remaining(Buffer::L0A)))?;
    let l0b = alloc.alloc(Buffer::L0B, a_tile.max(b_tile).min(alloc.remaining(Buffer::L0B)))?;
    let l0c = alloc.alloc(Buffer::L0C, c_tile)?;
    let merge = match drain {
        Drain::Merged(m) => *m,
        _ => 1,
    };
    let row_store = matches!(drain, Drain::RowStore);
    let ub_mark = alloc.mark(Buffer::Ub);
    let ub_out = alloc.alloc(Buffer::Ub, c_tile * merge)?;

    let m_blocks = ceil_div(cfg.m, cfg.bm);
    let n_blocks = ceil_div(cfg.n, cfg.bn);
    let k_chunks = ceil_div(cfg.k, cfg.kc);

    // TT: the larger matrix should flow through the faster L1 -> L0A port.
    // Without TT the assignment is fixed (A via L0B), which is wrong
    // whenever A is the bigger operand — the common case.
    let a_is_large = cfg.m * cfg.k >= cfg.k * cfg.n;
    let a_via_l0a = if flags.has_tt() { a_is_large } else { false };

    // Loop-invariant operand hoisting: with a single n-block and k-chunk,
    // B never changes across mi (and symmetrically for A), so it is
    // staged in L1 exactly once.
    let hoist_b = n_blocks == 1 && k_chunks == 1;
    let hoist_a = m_blocks == 1 && k_chunks == 1;
    let mut a_loaded = false;
    let mut b_loaded = false;
    let mut merged_bytes = 0u64;
    let mut merged_start = 0u64;
    let mut block = 0u64;
    for mi in 0..m_blocks {
        let bm = cfg.bm.min(cfg.m - mi * cfg.bm);
        for ni in 0..n_blocks {
            let bn = cfg.bn.min(cfg.n - ni * cfg.bn);
            let c_len = bm * bn * cfg.elem_bytes;
            for kci in 0..k_chunks {
                let kc = cfg.kc.min(cfg.k - kci * cfg.kc);
                let a_len = bm * kc * cfg.elem_bytes;
                let b_len = kc * bn * cfg.elem_bytes;
                let parity = ((ni * k_chunks + kci) % 2) as usize;
                let l1_a_r = if hoist_a {
                    l1_a[0].slice(0, a_len)
                } else {
                    l1_a[parity % l1_a.len()].slice(0, a_len)
                };
                let l1_b_r = if hoist_b {
                    l1_b[0].slice(0, b_len)
                } else {
                    l1_b[parity % l1_b.len()].slice(0, b_len)
                };
                // Row-major-ish GM offsets (approximate, contiguous tiles).
                let a_off = (mi * cfg.bm * cfg.k + kci * cfg.kc * bm) * cfg.elem_bytes;
                let b_off = (ni * cfg.bn * cfg.k + kci * cfg.kc * bn) * cfg.elem_bytes;
                if !(hoist_a && a_loaded) {
                    b.transfer(TransferPath::GmToL1, gm_a.slice(a_off, a_len), l1_a_r)?;
                    a_loaded = true;
                }
                if !(hoist_b && b_loaded) {
                    b.transfer(TransferPath::GmToL1, gm_b.slice(b_off, b_len), l1_b_r)?;
                    b_loaded = true;
                }
                b.sync(Component::MteGm, Component::MteL1);
                let (fast, slow) = if a_via_l0a { (l1_a_r, l1_b_r) } else { (l1_b_r, l1_a_r) };
                b.transfer(TransferPath::L1ToL0A, fast, l0a.slice(0, fast.len()))?;
                b.transfer(TransferPath::L1ToL0B, slow, l0b.slice(0, slow.len()))?;
                b.sync(Component::MteL1, Component::Cube);
                b.compute(
                    ComputeUnit::Cube,
                    cfg.precision,
                    2 * bm * bn * kc,
                    [l0a.slice(0, fast.len()), l0b.slice(0, slow.len())],
                    [l0c.slice(0, c_len)],
                );
            }
            // Drain L0C through the Vector unit into UB.
            b.sync(Component::Cube, Component::Vector);
            let ub_dst = ub_out.slice(merged_bytes, c_len);
            b.compute(
                ComputeUnit::Vector,
                Precision::Fp16,
                bm * bn,
                [l0c.slice(0, c_len)],
                [ub_dst],
            );
            if let Drain::FusedAdd(bias) = drain {
                b.compute(
                    ComputeUnit::Vector,
                    Precision::Fp16,
                    bm * bn,
                    [ub_dst, bias.slice(0, (bn * cfg.elem_bytes).min(bias.len()))],
                    [ub_dst],
                );
            }
            merged_bytes += c_len;
            block += 1;
            let flush = block.is_multiple_of(merge) || (mi + 1 == m_blocks && ni + 1 == n_blocks);
            if row_store {
                // One small transfer per output row.
                b.sync(Component::Vector, Component::MteUb);
                let row_bytes = bn * 2;
                for r in 0..bm {
                    let gm_off = ((mi * cfg.bm + r) * cfg.n + ni * cfg.bn) * 2;
                    b.transfer(
                        TransferPath::UbToGm,
                        ub_dst.slice(r * row_bytes, row_bytes),
                        gm_c.slice(gm_off.min(gm_c.len() - row_bytes), row_bytes),
                    )?;
                }
                merged_bytes = 0;
            } else if flush && merged_bytes > 0 {
                b.sync(Component::Vector, Component::MteUb);
                b.transfer(
                    TransferPath::UbToGm,
                    ub_out.slice(0, merged_bytes),
                    gm_c.slice(merged_start, merged_bytes),
                )?;
                merged_start += merged_bytes;
                merged_bytes = 0;
            }
        }
    }
    alloc.release_to(Buffer::Ub, ub_mark);
    alloc.release_to(Buffer::L1, l1_mark);
    alloc.release_to(Buffer::L0A, l0a_mark);
    alloc.release_to(Buffer::L0B, l0b_mark);
    alloc.release_to(Buffer::L0C, l0c_mark);
    Ok(())
}

/// A plain `C = A × B` matrix multiplication on the Cube.
///
/// Meaningful flags: `tt` (larger operand takes the fast `L1→L0A` port),
/// `pp` (double-buffered L1 staging), `lc` (INT8 instead of FP16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatMul {
    m: u64,
    k: u64,
    n: u64,
    flags: OptFlags,
}

impl MatMul {
    /// An `m × k` by `k × n` multiplication.
    #[must_use]
    pub fn new(m: u64, k: u64, n: u64) -> Self {
        MatMul { m, k, n, flags: OptFlags::new() }
    }

    /// Applies optimization flags.
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }

    /// The (m, k, n) shape.
    #[must_use]
    pub fn shape(&self) -> (u64, u64, u64) {
        (self.m, self.k, self.n)
    }

    fn alloc_io(
        &self,
        alloc: &mut BufferAllocator,
        elem_bytes: u64,
    ) -> Result<(Region, Region, Region), IsaError> {
        let gm_a = alloc.alloc(Buffer::Gm, self.m * self.k * elem_bytes)?;
        let gm_b = alloc.alloc(Buffer::Gm, self.k * self.n * elem_bytes)?;
        let gm_c = alloc.alloc(Buffer::Gm, self.m * self.n * 2)?;
        Ok((gm_a, gm_b, gm_c))
    }
}

impl Operator for MatMul {
    fn name(&self) -> String {
        format!("matmul_{}x{}x{}{}", self.m, self.k, self.n, self.flags.suffix())
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let cfg = GemmConfig::new(self.m, self.k, self.n, self.flags);
        let mut alloc = BufferAllocator::new(chip);
        let (gm_a, gm_b, gm_c) = self.alloc_io(&mut alloc, cfg.elem_bytes)?;
        let mut b = KernelBuilder::new(self.name());
        emit_gemm(&mut b, &mut alloc, cfg, self.flags, gm_a, gm_b, gm_c, &Drain::Store)?;
        Ok(b.build())
    }
}

/// `Y = A × B + bias`, fused (single kernel) or unfused (store C to GM,
/// read it back, add) — the paper's Operator Fusion example for MatMul.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatMulAdd {
    inner: MatMul,
}

impl MatMulAdd {
    /// An `m × k` by `k × n` multiplication followed by a bias add.
    #[must_use]
    pub fn new(m: u64, k: u64, n: u64) -> Self {
        MatMulAdd { inner: MatMul::new(m, k, n) }
    }

    /// Applies optimization flags (`fused` selects in-kernel fusion).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.inner.flags = flags;
        self
    }
}

impl Operator for MatMulAdd {
    fn name(&self) -> String {
        format!(
            "matmul_add_{}x{}x{}{}",
            self.inner.m,
            self.inner.k,
            self.inner.n,
            self.inner.flags.suffix()
        )
    }

    fn flags(&self) -> OptFlags {
        self.inner.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let flags = self.inner.flags;
        let cfg = GemmConfig::new(self.inner.m, self.inner.k, self.inner.n, flags);
        let mut alloc = BufferAllocator::new(chip);
        let (gm_a, gm_b, gm_c) = self.inner.alloc_io(&mut alloc, cfg.elem_bytes)?;
        let gm_bias = alloc.alloc(Buffer::Gm, cfg.bn * 2)?;
        let ub_bias = alloc.alloc(Buffer::Ub, cfg.bn * 2)?;
        let mut b = KernelBuilder::new(self.name());
        b.transfer(TransferPath::GmToUb, gm_bias, ub_bias)?;
        if flags.has_fused() {
            emit_gemm(&mut b, &mut alloc, cfg, flags, gm_a, gm_b, gm_c, &Drain::FusedAdd(ub_bias))?;
        } else {
            emit_gemm(&mut b, &mut alloc, cfg, flags, gm_a, gm_b, gm_c, &Drain::Store)?;
            // Separate Add pass: full GM round trip over C.
            let gm_y = alloc.alloc(Buffer::Gm, self.inner.m * self.inner.n * 2)?;
            let tile = 16 * 1024u64;
            let ub_c = alloc.alloc(Buffer::Ub, tile * 2)?;
            for t in crate::tiles(self.inner.m * self.inner.n, tile) {
                let off = t.offset * 2;
                let len = t.len * 2;
                let staging = ub_c.slice(0, len);
                b.transfer(TransferPath::GmToUb, gm_c.slice(off, len), staging)?;
                b.sync(Component::MteGm, Component::Vector);
                b.compute(
                    ComputeUnit::Vector,
                    Precision::Fp16,
                    t.len,
                    [staging, ub_bias],
                    [staging],
                );
                b.sync(Component::Vector, Component::MteUb);
                b.transfer(TransferPath::UbToGm, staging, gm_y.slice(off, len))?;
            }
        }
        Ok(b.build())
    }
}

/// A batched matrix multiplication: `batch` independent GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchMatMul {
    batch: u64,
    m: u64,
    k: u64,
    n: u64,
    flags: OptFlags,
}

impl BatchMatMul {
    /// `batch` multiplications of `m × k` by `k × n`.
    #[must_use]
    pub fn new(batch: u64, m: u64, k: u64, n: u64) -> Self {
        BatchMatMul { batch, m, k, n, flags: OptFlags::new() }
    }

    /// Applies optimization flags.
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for BatchMatMul {
    fn name(&self) -> String {
        format!(
            "batch_matmul_{}x{}x{}x{}{}",
            self.batch,
            self.m,
            self.k,
            self.n,
            self.flags.suffix()
        )
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let cfg = GemmConfig::new(self.m, self.k, self.n, self.flags);
        let mut alloc = BufferAllocator::new(chip);
        let mut b = KernelBuilder::new(self.name());
        for _ in 0..self.batch {
            let gm_a = alloc.alloc(Buffer::Gm, self.m * self.k * cfg.elem_bytes)?;
            let gm_b = alloc.alloc(Buffer::Gm, self.k * self.n * cfg.elem_bytes)?;
            let gm_c = alloc.alloc(Buffer::Gm, self.m * self.n * 2)?;
            emit_gemm(&mut b, &mut alloc, cfg, self.flags, gm_a, gm_b, gm_c, &Drain::Store)?;
        }
        Ok(b.build())
    }
}

/// A fully connected layer: small-batch GEMM whose tiny per-block output
/// stores make the MTE-UB inefficient unless merged (`itg`) — the paper's
/// FullyConnection row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullyConnection {
    batch: u64,
    in_features: u64,
    out_features: u64,
    flags: OptFlags,
}

impl FullyConnection {
    /// A `batch × in_features` by `in_features × out_features` layer.
    #[must_use]
    pub fn new(batch: u64, in_features: u64, out_features: u64) -> Self {
        FullyConnection { batch, in_features, out_features, flags: OptFlags::new() }
    }

    /// Applies optimization flags (`itg` merges the small output stores).
    #[must_use]
    pub fn with_flags(mut self, flags: OptFlags) -> Self {
        self.flags = flags;
        self
    }
}

impl Operator for FullyConnection {
    fn name(&self) -> String {
        format!(
            "fully_connection_{}x{}x{}{}",
            self.batch,
            self.in_features,
            self.out_features,
            self.flags.suffix()
        )
    }

    fn flags(&self) -> OptFlags {
        self.flags
    }

    fn with_flags_dyn(&self, flags: OptFlags) -> Box<dyn Operator> {
        Box::new(self.with_flags(flags))
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        let mut cfg = GemmConfig::new(self.batch, self.in_features, self.out_features, self.flags);
        // Small-batch layer: small row blocks, wide column blocks. The
        // row-major output is written row by row — ~256-byte transfers —
        // unless ITG merges whole blocks.
        cfg.bm = self.batch.min(8);
        cfg.bn = 128.min(self.out_features);
        let mut alloc = BufferAllocator::new(chip);
        let gm_a = alloc.alloc(Buffer::Gm, self.batch * self.in_features * cfg.elem_bytes)?;
        let gm_b =
            alloc.alloc(Buffer::Gm, self.in_features * self.out_features * cfg.elem_bytes)?;
        let gm_c = alloc.alloc(Buffer::Gm, self.batch * self.out_features * 2)?;
        let drain = if self.flags.has_itg() { Drain::Merged(4) } else { Drain::RowStore };
        let mut b = KernelBuilder::new(self.name());
        // The FC baseline is otherwise well-tuned (Table 1 lists only ITG
        // for it), so its L1 staging is always double-buffered.
        emit_gemm(&mut b, &mut alloc, cfg, self.flags.pp(true), gm_a, gm_b, gm_c, &drain)?;
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_isa::KernelStats;
    use ascend_sim::Simulator;

    #[test]
    fn matmul_builds_and_counts_flops() {
        let chip = ChipSpec::training();
        let op = MatMul::new(256, 512, 256);
        let kernel = op.build(&chip).unwrap();
        ascend_isa::validate(&kernel, &chip).unwrap();
        let stats = KernelStats::of(&kernel);
        assert_eq!(
            stats.ops_of(ComputeUnit::Cube, Precision::Fp16),
            2 * 256 * 512 * 256,
            "cube op count must equal 2mkn"
        );
    }

    #[test]
    fn tt_routes_the_large_matrix_through_l0a() {
        let chip = ChipSpec::training();
        // A much larger than B (B small enough to be staged once).
        let base = MatMul::new(1024, 256, 32).build(&chip).unwrap();
        let tt =
            MatMul::new(1024, 256, 32).with_flags(OptFlags::new().tt(true)).build(&chip).unwrap();
        let s0 = KernelStats::of(&base);
        let s1 = KernelStats::of(&tt);
        // With TT, more bytes flow over the fast L1->L0A port.
        assert!(s1.bytes_on_path(TransferPath::L1ToL0A) > s0.bytes_on_path(TransferPath::L1ToL0A));
        let sim = Simulator::new(chip);
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&tt).unwrap().total_cycles();
        assert!(t1 < t0, "TT must help when A is large: {t1} !< {t0}");
    }

    #[test]
    fn lc_halves_cube_time() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let fp16 = MatMul::new(256, 512, 256).build(&chip).unwrap();
        let int8 =
            MatMul::new(256, 512, 256).with_flags(OptFlags::new().lc(true)).build(&chip).unwrap();
        let s = KernelStats::of(&int8);
        assert!(s.ops_of(ComputeUnit::Cube, Precision::Int8) > 0);
        let t0 = sim.simulate(&fp16).unwrap().total_cycles();
        let t1 = sim.simulate(&int8).unwrap().total_cycles();
        assert!(t1 < t0, "INT8 must be faster: {t1} !< {t0}");
    }

    #[test]
    fn fusion_beats_separate_add() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let unfused = MatMulAdd::new(256, 256, 256).build(&chip).unwrap();
        let fused = MatMulAdd::new(256, 256, 256)
            .with_flags(OptFlags::new().fused(true))
            .build(&chip)
            .unwrap();
        let t0 = sim.simulate(&unfused).unwrap().total_cycles();
        let t1 = sim.simulate(&fused).unwrap().total_cycles();
        let speedup = t0 / t1;
        assert!(speedup > 1.03, "fusion saves the GM round trip (paper: 1.10x), got {speedup:.2}");
        // The fused kernel moves strictly fewer GM bytes.
        let b0 = KernelStats::of(&unfused).bytes_of_component(Component::MteGm);
        let b1 = KernelStats::of(&fused).bytes_of_component(Component::MteGm);
        assert!(b1 < b0);
    }

    #[test]
    fn batch_matmul_scales_work_with_batch() {
        let chip = ChipSpec::training();
        let one = BatchMatMul::new(1, 128, 256, 128).build(&chip).unwrap();
        let four = BatchMatMul::new(4, 128, 256, 128).build(&chip).unwrap();
        let s1 = KernelStats::of(&one);
        let s4 = KernelStats::of(&four);
        assert_eq!(
            4 * s1.ops_of(ComputeUnit::Cube, Precision::Fp16),
            s4.ops_of(ComputeUnit::Cube, Precision::Fp16)
        );
    }

    #[test]
    fn fc_itg_merges_stores_and_helps() {
        let chip = ChipSpec::training();
        let sim = Simulator::new(chip.clone());
        let base = FullyConnection::new(32, 256, 1024).build(&chip).unwrap();
        let itg = FullyConnection::new(32, 256, 1024)
            .with_flags(OptFlags::new().itg(true))
            .build(&chip)
            .unwrap();
        let s0 = KernelStats::of(&base);
        let s1 = KernelStats::of(&itg);
        assert!(
            s1.instructions_per_queue[&Component::MteUb]
                < s0.instructions_per_queue[&Component::MteUb]
        );
        assert_eq!(
            s0.bytes_of_component(Component::MteUb),
            s1.bytes_of_component(Component::MteUb)
        );
        let t0 = sim.simulate(&base).unwrap().total_cycles();
        let t1 = sim.simulate(&itg).unwrap().total_cycles();
        let speedup = t0 / t1;
        assert!(speedup > 1.1, "ITG must help FC (paper: 1.22x), got {speedup:.2}");
    }

    #[test]
    fn fc_baseline_has_an_inefficient_mte_ub() {
        use ascend_profile::Profiler;
        use ascend_roofline::{analyze, Thresholds};
        let chip = ChipSpec::training();
        let base = FullyConnection::new(32, 256, 1024).build(&chip).unwrap();
        let itg = FullyConnection::new(32, 256, 1024)
            .with_flags(OptFlags::new().itg(true))
            .build(&chip)
            .unwrap();
        let profiler = Profiler::new(chip.clone());
        let (p0, _) = profiler.run(&base).unwrap();
        let (p1, _) = profiler.run(&itg).unwrap();
        let thresholds = Thresholds::default();
        let e0 = analyze(&p0, &chip, &thresholds).metrics_of(Component::MteUb).unwrap().efficiency;
        let e1 = analyze(&p1, &chip, &thresholds).metrics_of(Component::MteUb).unwrap().efficiency;
        assert!(e1 > 1.5 * e0, "merged stores must raise MTE-UB efficiency: {e0:.3} -> {e1:.3}");
    }
}
