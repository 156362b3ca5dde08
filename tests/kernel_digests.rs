//! Kernel-encoding golden: the operator builders must keep emitting the
//! same kernels, byte for byte, in both of the IR's encodings.
//!
//! Every operator of the Table 2 training zoo is crossed with the
//! Section 5 flag subsets of the optimizer campaign and built for the
//! training chip. Each kernel's JSON encoding and text encoding is folded
//! into a 64-bit FNV-1a digest and checked against
//! `tests/golden/kernel_digests.txt`, which is committed. A change to the
//! in-memory instruction layout (inline operand regions, say) must leave
//! every line unchanged. After an intentional change to what the builders
//! emit, regenerate with
//! `ASCEND_UPDATE_GOLDEN=1 cargo test --test kernel_digests`.
//!
//! The campaign kernels only exercise short operand lists (at most one
//! write, and two, four or eight reads), so a property test also
//! round-trips arbitrary region lists of length 0–8 — inline, at the
//! inline capacity, and spilled — through both encodings. CI's fuzz job
//! runs it at 1024 cases.

use ascend::arch::{Buffer, ChipSpec, ComputeUnit, Precision};
use ascend::isa::text::{kernel_to_text, parse_kernel};
use ascend::isa::{Instruction, Kernel, KernelBuilder, Region};
use ascend::models::zoo;
use ascend::ops::OptFlags;
use ascend::pipeline::digest::fnv1a;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The flag subsets the optimizer campaign crosses every operator with,
/// on top of the flags the operator already ships with.
const CAMPAIGN_SUBSETS: [fn(OptFlags) -> OptFlags; 6] = [
    |f| f,
    |f| f.rsd(true).mrt(true),
    |f| f.ais(true).rus(true),
    |f| f.pp(true),
    |f| f.itg(true).ais(true),
    |f| f.aip(true).rus(true),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/kernel_digests.txt")
}

/// One line per kernel: `model/op/subset`, the JSON digest, the text
/// digest and the instruction count.
fn digest_lines() -> String {
    let chip = ChipSpec::training();
    let mut lines = String::new();
    for model in zoo::all_training() {
        for (i, invocation) in model.ops().iter().enumerate() {
            let op = invocation.operator();
            for (s, subset) in CAMPAIGN_SUBSETS.iter().enumerate() {
                let name = format!("{}/{i}/{s}", model.name());
                let kernel = op
                    .with_flags_dyn(subset(op.flags()))
                    .build(&chip)
                    .unwrap_or_else(|e| panic!("{name} must build: {e}"));
                let json = serde_json::to_string(&kernel).expect("kernels encode as JSON");
                let text = kernel_to_text(&kernel);
                writeln!(
                    lines,
                    "{name}\t{:016x}\t{:016x}\t{}",
                    fnv1a(json.as_bytes()),
                    fnv1a(text.as_bytes()),
                    kernel.len()
                )
                .unwrap();
            }
        }
    }
    lines
}

#[test]
fn campaign_kernels_match_committed_encoding_digests() {
    let lines = digest_lines();
    let path = golden_path();
    if std::env::var_os("ASCEND_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &lines).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             ASCEND_UPDATE_GOLDEN=1 cargo test --test kernel_digests",
            path.display()
        )
    });
    for (current, golden) in lines.lines().zip(committed.lines()) {
        assert_eq!(
            current, golden,
            "a builder's kernel encoding drifted from the committed digest; if the \
             emitted kernels changed intentionally, regenerate with \
             ASCEND_UPDATE_GOLDEN=1 cargo test --test kernel_digests"
        );
    }
    assert_eq!(
        lines.lines().count(),
        committed.lines().count(),
        "campaign kernel list changed; regenerate with ASCEND_UPDATE_GOLDEN=1"
    );
}

fn region() -> impl Strategy<Value = Region> {
    (prop::sample::select(Buffer::ALL.to_vec()), 0u64..1 << 20, 0u64..1 << 16)
        .prop_map(|(buffer, offset, len)| Region::new(buffer, offset, len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn region_lists_round_trip_through_json_and_text(
        reads in prop::collection::vec(region(), 0..9),
        writes in prop::collection::vec(region(), 0..9),
    ) {
        let mut b = KernelBuilder::new("regions");
        b.compute(ComputeUnit::Vector, Precision::Fp16, 64, reads.clone(), writes.clone());
        b.compute(ComputeUnit::Cube, Precision::Fp16, 128, reads.as_slice(), writes.as_slice());
        let kernel = b.build();
        for instr in kernel.instructions() {
            prop_assert_eq!(instr.reads(), reads.as_slice());
            prop_assert_eq!(instr.writes(), writes.as_slice());
        }

        // JSON: each list encodes exactly as the plain sequence would,
        // and the kernel decodes back equal.
        let Instruction::Compute(compute) = &kernel.instructions()[0] else {
            unreachable!("the first instruction is a compute")
        };
        prop_assert_eq!(
            serde_json::to_string(&compute.reads).unwrap(),
            serde_json::to_string(&reads).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&compute.writes).unwrap(),
            serde_json::to_string(&writes).unwrap()
        );
        let json = serde_json::to_string(&kernel).unwrap();
        let decoded: Kernel = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(serde_json::to_string(&decoded).unwrap(), json);
        prop_assert_eq!(&decoded, &kernel);

        // Text: render, parse, render again.
        let text = kernel_to_text(&kernel);
        let parsed = parse_kernel(&text).unwrap();
        prop_assert_eq!(kernel_to_text(&parsed), text);
        prop_assert_eq!(&parsed, &kernel);
    }
}
