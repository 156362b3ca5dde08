//! Seeded input generation. The catalogues are fixed; the seed decides
//! the order in which each round issues its requests, and so which
//! requests run concurrently. Every round draws a fresh order from the
//! seeded stream, so a run averages over many interleavings, every seed
//! does the same total work, and the exact-repeat counts are identical
//! across runs.

use ascend_models::zoo;
use ascend_ops::{OpSpec, Operator, OptFlags};
use std::sync::Mutex;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The request orders of a run: one seeded stream for the timed rounds
/// and a differently seeded one for the warm-up.
#[derive(Debug)]
pub struct Orders {
    timed: Mutex<SplitMix64>,
    warmup: Mutex<SplitMix64>,
}

impl Orders {
    pub fn new(seed: u64) -> Self {
        Orders {
            timed: Mutex::new(SplitMix64::new(seed)),
            warmup: Mutex::new(SplitMix64::new(seed ^ 0x5741_524D_5550_0001)),
        }
    }

    /// The next round's order over `n` requests: a permutation of `0..n`.
    pub fn next(&self, warmup: bool, n: usize) -> Vec<usize> {
        let stream = if warmup { &self.warmup } else { &self.timed };
        let mut order: Vec<usize> = (0..n).collect();
        stream.lock().expect("order stream lock poisoned").shuffle(&mut order);
        order
    }
}

/// Section 5 flag subsets the campaign crosses every operator with, on
/// top of the flags the operator already ships with — the optimizer's
/// search space.
const CAMPAIGN_SUBSETS: [fn(OptFlags) -> OptFlags; 6] = [
    |f| f,
    |f| f.rsd(true).mrt(true),
    |f| f.ais(true).rus(true),
    |f| f.pp(true),
    |f| f.itg(true).ais(true),
    |f| f.aip(true).rus(true),
];

/// campaign_cold: every operator of the Table 2 training zoo (which
/// includes the PanGu-alpha stream) crossed with the flag subsets.
/// Operators shared across models stay duplicated, so the batch's two
/// workers race on them.
pub fn campaign_ops() -> Vec<Box<dyn Operator>> {
    let mut ops = Vec::new();
    for model in zoo::all_training() {
        for invocation in model.ops() {
            let op = invocation.operator();
            for subset in CAMPAIGN_SUBSETS {
                ops.push(op.with_flags_dyn(subset(op.flags())));
            }
        }
    }
    ops
}

/// The request catalogue of cluster_mixed: element-wise operators at
/// 2^14..2^18 elements and matmuls up to 256 wide, each in a baseline and
/// a tuned variant. Their results encode to 2-30 KB.
pub fn spec_catalogue() -> Vec<OpSpec> {
    let tuned = OptFlags::new().rsd(true).mrt(true).ais(true).rus(true);
    let mut out = Vec::new();
    for variant in [false, true] {
        let flags = if variant { tuned } else { OptFlags::new() };
        for shift in 14..=18 {
            let elements = 1u64 << shift;
            for spec in [
                OpSpec::add_relu(elements),
                OpSpec::softmax(elements),
                OpSpec::layer_norm(elements),
                OpSpec::gelu(elements),
            ] {
                out.push(spec.with_flags(flags));
            }
        }
        for (m, k, n) in [(64, 64, 64), (128, 128, 128), (128, 256, 128), (256, 256, 256)] {
            let flags = if variant { OptFlags::new().pp(true) } else { OptFlags::new() };
            out.push(OpSpec::matmul(m, k, n).with_flags(flags));
        }
    }
    out
}

/// cluster_mixed: every catalogue entry twice — half the requests of a
/// round repeat a key sent earlier in it.
pub fn cluster_specs() -> Vec<OpSpec> {
    spec_catalogue().into_iter().flat_map(|spec| [spec, spec]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders(seed: u64, warmup: bool) -> Vec<Vec<usize>> {
        let stream = Orders::new(seed);
        (0..3).map(|_| stream.next(warmup, 96)).collect()
    }

    #[test]
    fn same_seed_generates_identical_inputs() {
        assert_eq!(orders(7, false), orders(7, false));
        assert_eq!(orders(7, true), orders(7, true));
        let descriptors =
            |ops: Vec<Box<dyn Operator>>| ops.iter().map(|op| op.descriptor()).collect::<Vec<_>>();
        assert_eq!(descriptors(campaign_ops()), descriptors(campaign_ops()));
        assert_eq!(cluster_specs(), cluster_specs());
    }

    #[test]
    fn each_round_and_each_seed_draws_another_order() {
        let rounds = orders(1, false);
        assert_ne!(rounds[0], rounds[1]);
        assert_ne!(rounds, orders(2, false));
        assert_ne!(rounds, orders(1, true));
        let mut sorted = rounds[0].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..96).collect::<Vec<_>>());
    }

    #[test]
    fn half_of_the_cluster_requests_repeat_a_key() {
        let catalogue = spec_catalogue();
        let specs = cluster_specs();
        assert_eq!(specs.len(), 2 * catalogue.len());
        assert!(catalogue.iter().all(|spec| specs.iter().filter(|s| *s == spec).count() == 2));
    }
}
