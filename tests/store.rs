//! Acceptance suite for the durable result store: the kill-matrix, the
//! degraded-disk contract, and seeded random-corruption properties.
//!
//! The store's claims (ISSUE 7, ROADMAP item 3) are concrete:
//!
//! 1. **Kill-matrix** — after a crash at *any* byte of a persistent
//!    batch, reopening recovers every fully-fsync'd entry bit-identical
//!    to recomputation (fingerprint-checked via the existing cache key)
//!    and drops every torn one without serving it. The sweep here cuts
//!    a populated segment at every interesting offset; the real-SIGKILL
//!    variant lives in `examples/store_chaos.rs` and CI's `chaos-store`
//!    job.
//! 2. **Degraded disk** — ENOSPC mid-record and fsync refusal (via the
//!    shared `FaultyFile` injector) must never fail a request: the run
//!    completes via recomputation with the tier disabled and the error
//!    counted in `StoreStats`.
//! 3. **Random corruption** (proptest, seeded, `PROPTEST_CASES`
//!    honored) — arbitrary truncation/bit-flip/garbage faults yield, on
//!    reopen, only digest-valid last-wins records; nothing corrupt is
//!    ever served, and what was lost recomputes bit-identically.
//!
//! The truncation sweep re-derives record boundaries by parsing the
//! file with its own 14/20-byte header arithmetic, so it doubles as a
//! format-stability regression: an accidental layout change breaks this
//! suite even if writer and reader drift in lock-step.

use ascend::arch::ChipSpec;
use ascend::faults::{corrupt_file, DiskFault, FaultyFile};
use ascend::ops::{AddRelu, Gelu, LayerNorm, Operator, OptFlags, Softmax};
use ascend::pipeline::{
    AnalysisPipeline, Fidelity, PipelineResult, ResultStore, RunPolicy, StoreConfig, StoreError,
};
use ascend::roofline::Thresholds;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ascend-store-acceptance-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The persistent batch every test reuses: small enough to simulate in
/// milliseconds, varied enough to produce distinct fingerprints.
fn batch() -> Vec<Box<dyn Operator>> {
    vec![
        Box::new(AddRelu::new(1 << 10)),
        Box::new(AddRelu::new(1 << 11).with_flags(OptFlags::new().rsd(true))),
        Box::new(Gelu::new(1 << 10)),
        Box::new(Softmax::new(1 << 9)),
        Box::new(LayerNorm::new(1 << 9)),
    ]
}

fn run_all(pipeline: &AnalysisPipeline, ops: &[Box<dyn Operator>]) -> Vec<Arc<PipelineResult>> {
    ops.iter().map(|op| pipeline.run(op.as_ref()).unwrap()).collect()
}

/// Segment header length (magic + version + context) — deliberately
/// re-stated here rather than imported, as a format regression tripwire.
const HEADER_LEN: u64 = 14;
/// Record header length (len + fingerprint + digest).
const RECORD_HEADER_LEN: u64 = 20;

/// Parses the segment with independent arithmetic, returning
/// `(fingerprint, payload, end_offset)` per record in file order.
fn parse_records(bytes: &[u8]) -> Vec<(u64, Vec<u8>, u64)> {
    assert_eq!(&bytes[..4], b"ASTR", "magic must lead the file");
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let fingerprint = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let payload_start = pos + RECORD_HEADER_LEN as usize;
        let end = payload_start + len;
        assert!(end <= bytes.len(), "a freshly written segment has no torn tail");
        records.push((fingerprint, bytes[payload_start..end].to_vec(), end as u64));
        pos = end;
    }
    records
}

#[test]
fn warm_restart_serves_bit_identical_results_from_disk() {
    let dir = tempdir("warm-restart");
    let path = dir.join("store.astr");
    let ops = batch();
    let chip = ChipSpec::training();

    // Cold run: everything computes and persists.
    let cold = AnalysisPipeline::new(chip.clone()).with_store(&path).unwrap();
    let cold_results = run_all(&cold, &ops);
    let stats = cold.store_stats().unwrap();
    assert_eq!(stats.appends, ops.len() as u64);
    assert_eq!(stats.recovered, 0);
    drop(cold);

    // The ground truth: a store-less pipeline recomputing from scratch.
    let fresh = AnalysisPipeline::new(chip.clone());
    let recomputed = run_all(&fresh, &ops);

    // Warm restart: a brand-new process image (pipeline) over the same
    // file answers everything from disk, bit-identical.
    let warm = AnalysisPipeline::new(chip).with_store(&path).unwrap();
    assert_eq!(warm.store_stats().unwrap().recovered, ops.len() as u64);
    let warm_results = run_all(&warm, &ops);
    for ((cold, warm), fresh) in cold_results.iter().zip(&warm_results).zip(&recomputed) {
        assert_eq!(**cold, **warm, "disk round-trip must be bit-identical");
        assert_eq!(**warm, **fresh, "disk must agree with pure recomputation");
    }
    let stats = warm.store_stats().unwrap();
    assert_eq!(stats.hits, ops.len() as u64);
    assert_eq!(stats.misses, 0);
    assert_eq!(warm.cache_stats().hits, ops.len() as u64, "disk hits are cache hits");
    assert_eq!(warm.timings().runs, 0, "nothing re-simulates on a warm restart");
    let footer = warm.instrumentation_footer();
    assert!(footer.contains("[pipeline] store:"), "{footer}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervised_and_plain_paths_share_the_disk_tier() {
    let dir = tempdir("supervised");
    let path = dir.join("store.astr");
    let ops = batch();
    let chip = ChipSpec::training();
    {
        let pipeline = AnalysisPipeline::new(chip.clone()).with_store(&path).unwrap();
        for op in &ops {
            pipeline.run_supervised(op.as_ref(), &RunPolicy::resilient(), None).unwrap();
        }
        assert_eq!(pipeline.store_stats().unwrap().appends, ops.len() as u64);
    }
    let warm = AnalysisPipeline::new(chip).with_store(&path).unwrap();
    for op in &ops {
        let result = warm.run_supervised(op.as_ref(), &RunPolicy::resilient(), None).unwrap();
        assert_eq!(result.fidelity, Fidelity::Simulated);
    }
    assert_eq!(warm.store_stats().unwrap().hits, ops.len() as u64);
    assert_eq!(warm.timings().runs, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn context_pinning_keeps_stores_per_configuration() {
    let dir = tempdir("context");
    let path = dir.join("store.astr");
    let chip = ChipSpec::training();
    AnalysisPipeline::new(chip.clone()).with_store(&path).unwrap();

    // Different thresholds → different context → the same file refuses.
    let other = AnalysisPipeline::new(chip.clone())
        .with_thresholds(Thresholds { parallelism_ratio: 0.99, ..Thresholds::default() });
    match other.with_store(&path) {
        Err(StoreError::ContextMismatch { .. }) => {}
        other => panic!("expected ContextMismatch, got {other:?}"),
    }

    // And attaching someone else's open store is refused the same way.
    let store = Arc::new(ResultStore::open(dir.join("other.astr"), 0x1234_5678_9ABC_DEF0).unwrap());
    match AnalysisPipeline::new(chip).with_result_store(store) {
        Err(StoreError::ContextMismatch { .. }) => {}
        other => panic!("expected ContextMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The kill-matrix: cut the segment at every interesting byte offset
/// (every record boundary, its ±1 neighborhood, and a stride through
/// record bodies), reopen, and hold the recovery contract: exactly the
/// records wholly inside the prefix come back, each bit-identical to
/// recomputation, and the rest recompute without error.
#[test]
fn kill_matrix_truncation_sweep_recovers_exactly_the_durable_prefix() {
    let dir = tempdir("kill-matrix");
    let path = dir.join("store.astr");
    let ops = batch();
    let chip = ChipSpec::training();
    {
        let pipeline = AnalysisPipeline::new(chip.clone()).with_store(&path).unwrap();
        run_all(&pipeline, &ops);
    }
    let context = AnalysisPipeline::new(chip.clone()).context();
    let bytes = std::fs::read(&path).unwrap();
    let records = parse_records(&bytes);
    assert_eq!(records.len(), ops.len(), "one record per simulated op, in batch order");

    // Ground truth per fingerprint, from pure recomputation.
    let fresh = AnalysisPipeline::new(chip.clone());
    let recomputed: Vec<(u64, Arc<PipelineResult>)> = ops
        .iter()
        .map(|op| (fresh.cache_key(op.as_ref()), fresh.run(op.as_ref()).unwrap()))
        .collect();

    // Cut points: both sides of every boundary, plus a stride through
    // the interiors so mid-payload tears are represented.
    let mut cuts: Vec<u64> = vec![HEADER_LEN];
    for (_, _, end) in &records {
        for delta in [-1i64, 0, 1, 7, RECORD_HEADER_LEN as i64 - 1, RECORD_HEADER_LEN as i64] {
            let cut = end.saturating_add_signed(delta);
            if cut >= HEADER_LEN && cut <= bytes.len() as u64 {
                cuts.push(cut);
            }
        }
    }
    let mut pos = HEADER_LEN + 3;
    while pos < bytes.len() as u64 {
        cuts.push(pos);
        pos += 97;
    }
    cuts.sort_unstable();
    cuts.dedup();

    let crash_path = dir.join("crashed.astr");
    for cut in cuts {
        std::fs::write(&crash_path, &bytes[..cut as usize]).unwrap();
        let store = ResultStore::open(&crash_path, context)
            .unwrap_or_else(|err| panic!("cut at {cut} must reopen: {err}"));

        // Expected survivors: records wholly inside the prefix.
        let expected: Vec<&(u64, Vec<u8>, u64)> =
            records.iter().filter(|(_, _, end)| *end <= cut).collect();
        assert_eq!(
            store.stats().recovered,
            expected.len() as u64,
            "cut at {cut}: exactly the fully-written records recover"
        );
        for (fingerprint, payload, _) in &expected {
            let served = store
                .get(*fingerprint)
                .unwrap_or_else(|| panic!("cut at {cut}: {fingerprint:#x} must be served"));
            assert_eq!(&served, payload, "cut at {cut}: served bytes must be untouched");
        }
        drop(store);

        // The pipeline contract on the crashed file: every request still
        // answers, survivors from disk, the torn tail by recomputation —
        // and everything equals the ground truth.
        let survivor_count = expected.len() as u64;
        let resumed = AnalysisPipeline::new(chip.clone()).with_store(&crash_path).unwrap();
        for (op, (key, truth)) in ops.iter().zip(&recomputed) {
            let result = resumed.run(op.as_ref()).unwrap();
            assert_eq!(result.fingerprint, *key);
            assert_eq!(*result, **truth, "cut at {cut}: result must match recomputation");
        }
        let stats = resumed.store_stats().unwrap();
        assert_eq!(stats.hits, survivor_count, "cut at {cut}");
        assert_eq!(
            resumed.timings().runs,
            (ops.len() as u64) - survivor_count,
            "cut at {cut}: only the lost records re-simulate"
        );
        assert!(!stats.disabled, "cut at {cut}: truncation is recoverable, not degrading");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_rot_is_recomputed_never_served() {
    let dir = tempdir("bitrot");
    let path = dir.join("store.astr");
    let ops = batch();
    let chip = ChipSpec::training();
    {
        let pipeline = AnalysisPipeline::new(chip.clone()).with_store(&path).unwrap();
        run_all(&pipeline, &ops);
    }
    let records = parse_records(&std::fs::read(&path).unwrap());
    // Rot one byte in the middle of the second record's payload.
    let (_, _, first_end) = records[0];
    corrupt_file(
        &path,
        DiskFault::FlipBits { offset: first_end + RECORD_HEADER_LEN + 10, mask: 0x20 },
    )
    .unwrap();

    let fresh = AnalysisPipeline::new(chip.clone());
    let truth = run_all(&fresh, &ops);

    let pipeline = AnalysisPipeline::new(chip).with_store(&path).unwrap();
    let stats = pipeline.store_stats().unwrap();
    assert_eq!(stats.corrupt_dropped, 1, "the rotted record is dropped at open");
    assert_eq!(stats.recovered, ops.len() as u64 - 1);
    let results = run_all(&pipeline, &ops);
    for (result, truth) in results.iter().zip(&truth) {
        assert_eq!(**result, **truth, "rot must be recomputed bit-identically");
    }
    assert_eq!(pipeline.timings().runs, 1, "exactly the rotted record re-simulates");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn enospc_mid_batch_completes_every_request_degraded() {
    let dir = tempdir("enospc-batch");
    let path = dir.join("store.astr");
    let ops = batch();
    let chip = ChipSpec::training();
    let pipeline = AnalysisPipeline::new(chip);

    // A "disk" with room for the header, two records, and a partial
    // third: the batch outgrows it mid-run.
    let file = FaultyFile::create(&path).unwrap().fail_writes_after(4096);
    let store = Arc::new(
        ResultStore::open_with_file(Box::new(file), pipeline.context(), StoreConfig::default())
            .unwrap(),
    );
    let pipeline = pipeline.with_result_store(Arc::clone(&store)).unwrap();

    let refs: Vec<&dyn Operator> = ops.iter().map(AsRef::as_ref).collect();
    let results = pipeline.run_batch_with_workers(&refs, 2);
    assert!(
        results.iter().all(Result::is_ok),
        "a full disk must never fail a request recomputation could serve"
    );
    let stats = store.stats();
    assert!(stats.disabled, "ENOSPC must disable the tier: {stats:?}");
    assert!(stats.io_errors >= 1);
    assert!(stats.appends < ops.len() as u64, "the disk filled before the batch finished");

    // And the durable prefix is still honest: reopening the real file
    // serves only verifiable records.
    drop(pipeline);
    drop(store);
    let reopened =
        ResultStore::open(&path, AnalysisPipeline::new(ChipSpec::training()).context()).unwrap();
    assert_eq!(reopened.stats().recovered, reopened.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsync_refusal_completes_every_request_degraded() {
    let dir = tempdir("fsync-refusal");
    let path = dir.join("store.astr");
    let ops = batch();
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    // Header goes through a clean file first so open succeeds; the
    // refusal bites on the first record fsync.
    ResultStore::open(&path, pipeline.context()).unwrap();
    let file = FaultyFile::open(&path).unwrap().refuse_fsync();
    let store = Arc::new(
        ResultStore::open_with_file(Box::new(file), pipeline.context(), StoreConfig::default())
            .unwrap(),
    );
    let pipeline = pipeline.with_result_store(Arc::clone(&store)).unwrap();
    for op in &ops {
        assert!(pipeline.run(op.as_ref()).is_ok(), "fsync refusal must not fail requests");
    }
    let stats = pipeline.store_stats().unwrap();
    assert!(stats.disabled);
    assert_eq!(stats.io_errors, 1, "one error disables; later puts are no-ops");
    std::fs::remove_dir_all(&dir).ok();
}

/// Applies `fault_seed`-derived corruption to a populated store file.
fn apply_random_faults(path: &std::path::Path, fault_seed: u64) {
    let len = std::fs::metadata(path).unwrap().len();
    let mut state = fault_seed;
    let mut next = || {
        // SplitMix64, inlined so the test is self-contained.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let faults = 1 + (next() % 3);
    for _ in 0..faults {
        let fault = match next() % 3 {
            0 => DiskFault::TruncateTailBytes(next() % (len / 2).max(1)),
            1 => {
                DiskFault::FlipBits { offset: next() % len.max(1), mask: (1 << (next() % 8)) as u8 }
            }
            _ => DiskFault::AppendGarbage { len: (next() % 64) as usize + 1, seed: next() },
        };
        // FlipBits can land past the end after a truncation; skip those.
        let _ = corrupt_file(path, fault);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random corruption of a synthetic store: reopen yields only
    // digest-valid last-wins records, every served payload is
    // bit-identical to one that was written for that key, and nothing
    // else is served.
    #[test]
    fn random_corruption_yields_only_valid_last_wins_records(seed in 0u64..u64::MAX) {
        let dir = tempdir("proptest-raw");
        let path = dir.join(format!("store-{seed:016x}.astr"));
        const CTX: u64 = 0x00AB_CDEF_0123_4567;

        // Seeded synthetic history: keys written 1-3 times each.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut written: std::collections::HashMap<u64, Vec<Vec<u8>>> = Default::default();
        {
            let store = ResultStore::open(&path, CTX).unwrap();
            for _ in 0..(4 + next() % 8) {
                let key = 1 + next() % 5;
                let payload: Vec<u8> = (0..(8 + next() % 48)).map(|_| (next() & 0xFF) as u8).collect();
                store.put(key, &payload);
                written.entry(key).or_default().push(payload);
            }
        }

        apply_random_faults(&path, seed ^ 0xFAD7);
        // The read-only scan runs first: opening truncates torn tails.
        let verified = ResultStore::verify(&path);

        // Reopen (a post-corruption magic/version/context tear can make
        // the file unopenable — that is a refusal, not a wrong answer).
        let Ok(store) = ResultStore::open(&path, CTX) else {
            std::fs::remove_dir_all(&dir).ok();
            return Ok(());
        };
        let stats = store.stats();
        prop_assert_eq!(stats.recovered, store.len() as u64);
        // `verify` must see exactly what the open-time recovery saw.
        let report = match verified {
            Ok(report) => report,
            Err(err) => panic!("seed {seed}: open accepted a segment verify refused: {err}"),
        };
        prop_assert_eq!(report.live, stats.recovered, "seed {}: live vs recovered", seed);
        prop_assert_eq!(report.tombstones, stats.quarantined, "seed {}: tombstones", seed);
        prop_assert_eq!(report.torn_bytes, stats.torn_bytes, "seed {}: torn bytes", seed);
        prop_assert_eq!(report.digest_invalid, stats.corrupt_dropped, "seed {}: corrupt", seed);
        for (key, versions) in &written {
            if let Some(served) = store.get(*key) {
                // Served bytes must be bit-identical to *some* version
                // written for this key (the last, unless corruption ate
                // it and an earlier one survived) — never an invention.
                prop_assert!(
                    versions.iter().any(|v| v == &served),
                    "seed {seed}: key {key:#x} served bytes that were never written"
                );
            }
        }
        // Keys never written must not materialize.
        for key in 6..10u64 {
            prop_assert!(store.get(key).is_none(), "seed {seed}: phantom key {key:#x}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random corruption under the full pipeline: whatever the fault
    // did, every request completes and every answer is bit-identical
    // to recomputation — served survivors and recomputed losses alike.
    #[test]
    fn random_corruption_recomputes_the_rest_bit_identically(seed in 0u64..u64::MAX) {
        let dir = tempdir("proptest-pipeline");
        let path = dir.join(format!("store-{seed:016x}.astr"));
        let ops = batch();
        let chip = ChipSpec::training();
        {
            let pipeline = AnalysisPipeline::new(chip.clone()).with_store(&path).unwrap();
            run_all(&pipeline, &ops);
        }
        apply_random_faults(&path, seed);

        let fresh = AnalysisPipeline::new(chip.clone());
        let truth = run_all(&fresh, &ops);

        // A fault that hit the header makes the store refuse to open —
        // the caller then runs memory-only, which the bench layer
        // exercises; nothing to assert about served bytes in that case.
        if let Ok(pipeline) = AnalysisPipeline::new(chip).with_store(&path) {
            let results = run_all(&pipeline, &ops);
            for (result, truth) in results.iter().zip(&truth) {
                prop_assert_eq!(&**result, &**truth, "seed {}", seed);
            }
            let stats = pipeline.store_stats().unwrap();
            prop_assert_eq!(
                pipeline.timings().runs + stats.hits,
                ops.len() as u64,
                "seed {}: every op either served from disk or re-simulated", seed
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
