//! Integration tests for the `AnalysisPipeline`: cached results must be
//! bit-identical to the uncached stage sequence, batch execution must be
//! deterministic and input-ordered, and the cache statistics must add up.

use ascend::arch::ChipSpec;
use ascend::models::{zoo, ModelRunner};
use ascend::ops::{AddRelu, AvgPool, Depthwise, Gelu, Operator, OptFlags, Softmax};
use ascend::pipeline::AnalysisPipeline;
use ascend::profile::Profiler;
use ascend::roofline::{analyze, Thresholds};

/// A diverse operator/flag matrix for equivalence checks.
fn operator_matrix() -> Vec<Box<dyn Operator>> {
    let flag_sets = [
        OptFlags::new(),
        OptFlags::new().rsd(true),
        OptFlags::new().rsd(true).mrt(true),
        OptFlags::all(),
    ];
    let mut ops: Vec<Box<dyn Operator>> = Vec::new();
    for flags in flag_sets {
        ops.push(Box::new(AddRelu::new(1 << 16).with_flags(flags)));
        ops.push(Box::new(Gelu::new(1 << 15).with_flags(flags)));
        ops.push(Box::new(Depthwise::new(1 << 14).with_flags(flags)));
        ops.push(Box::new(AvgPool::new(1 << 13).with_flags(flags)));
        ops.push(Box::new(Softmax::new(1 << 12).with_flags(flags)));
    }
    ops
}

#[test]
fn cached_results_are_bit_identical_to_the_uncached_path() {
    let chip = ChipSpec::training();
    let pipeline = AnalysisPipeline::new(chip.clone());
    for op in operator_matrix() {
        let miss = pipeline.run(op.as_ref()).unwrap();
        let hit = pipeline.run(op.as_ref()).unwrap();

        // The hand-rolled stage sequence every call site used before.
        let kernel = op.build(&chip).unwrap();
        let (profile, trace) = Profiler::new(chip.clone()).run(&kernel).unwrap();
        let analysis = analyze(&profile, &chip, &Thresholds::default());

        for result in [&miss, &hit] {
            assert_eq!(result.profile, profile, "{}", kernel.name());
            assert_eq!(result.trace, trace, "{}", kernel.name());
            assert_eq!(result.analysis, analysis, "{}", kernel.name());
            assert_eq!(result.kernel_name, kernel.name());
            assert_eq!(result.kernel_len, kernel.len());
        }
    }
    let stats = pipeline.cache_stats();
    assert_eq!(stats.misses, 20);
    assert_eq!(stats.hits, 20);
}

#[test]
fn run_batch_preserves_input_order_for_any_worker_count() {
    let chip = ChipSpec::training();
    let ops = operator_matrix();
    let refs: Vec<&dyn Operator> = ops.iter().map(AsRef::as_ref).collect();

    let serial_pipeline = AnalysisPipeline::new(chip.clone());
    let serial: Vec<_> = refs.iter().map(|op| serial_pipeline.run(*op).unwrap()).collect();

    for workers in [1, 2, 3, 8, 64] {
        // A fresh pipeline per worker count: results must not depend on
        // scheduling or on cache warmth.
        let pipeline = AnalysisPipeline::new(chip.clone());
        let batch: Vec<_> = pipeline
            .run_batch_with_workers(&refs, workers)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(batch.len(), serial.len());
        for (expected, got) in serial.iter().zip(&batch) {
            assert_eq!(expected.kernel_name, got.kernel_name, "workers={workers}");
            assert_eq!(expected.profile, got.profile, "workers={workers}");
            assert_eq!(expected.trace, got.trace, "workers={workers}");
            assert_eq!(expected.analysis, got.analysis, "workers={workers}");
        }
    }
}

#[test]
fn degenerate_worker_counts_are_clamped_not_fatal() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let a = AddRelu::new(1 << 10);
    let b = Gelu::new(1 << 10);
    let refs: Vec<&dyn Operator> = vec![&a, &b];

    // workers == 0 clamps to a serial run on the calling thread.
    let zero = pipeline.run_batch_with_workers(&refs, 0);
    assert_eq!(zero.len(), 2);
    assert!(zero.iter().all(Result::is_ok));

    // workers far above the batch size clamps to one worker per item.
    let oversubscribed = pipeline.run_batch_with_workers(&refs, 1024);
    assert_eq!(oversubscribed.len(), 2);
    for (lhs, rhs) in zero.iter().zip(&oversubscribed) {
        assert_eq!(
            lhs.as_ref().unwrap().analysis,
            rhs.as_ref().unwrap().analysis,
            "clamped runs must agree with the serial run"
        );
    }

    // An empty batch spawns nothing and returns nothing, for any count.
    for workers in [0, 1, 7] {
        assert!(pipeline.run_batch_with_workers(&[], workers).is_empty());
    }
}

#[test]
fn cache_stats_count_hits_and_misses_on_a_stream_with_repeats() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let a = AddRelu::new(1 << 12);
    let b = Gelu::new(1 << 12);
    let c = Softmax::new(1 << 12);
    // A B A A C B → misses for A, B, C; hits for the three repeats.
    let stream: Vec<&dyn Operator> = vec![&a, &b, &a, &a, &c, &b];
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let results: Vec<_> =
        pipeline.run_batch_with_workers(&stream, workers).into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(results.len(), 6);
    let stats = pipeline.cache_stats();
    assert_eq!(stats.misses, 3, "{stats:?}");
    assert_eq!(stats.hits, 3, "{stats:?}");
    assert_eq!(stats.evictions, 0, "{stats:?}");
    assert_eq!(pipeline.cache_len(), 3);
    assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    // Repeats resolve to the same cached result.
    assert_eq!(results[0].profile, results[2].profile);
    assert_eq!(results[0].profile, results[3].profile);
    assert_eq!(results[1].analysis, results[5].analysis);
}

#[test]
fn batch_misses_are_counted_once_per_distinct_operator() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let a = AddRelu::new(1 << 12);
    let b = Gelu::new(1 << 12);
    let stream: Vec<&dyn Operator> = vec![&a, &b, &a, &b, &a, &b, &a, &b];
    for result in pipeline.run_batch_with_workers(&stream, 4) {
        result.unwrap();
    }
    let stats = pipeline.cache_stats();
    // Concurrent duplicate misses are allowed to race (both count as
    // misses), but the total ledger must cover the whole stream.
    assert_eq!(stats.hits + stats.misses, 8, "{stats:?}");
    assert!(stats.misses >= 2, "{stats:?}");
    assert_eq!(pipeline.cache_len(), 2);
}

#[test]
fn model_stream_analysis_hits_the_cache_and_matches_the_serial_path() {
    let chip = ChipSpec::inference();
    let model = zoo::mobilenet_v3(ascend::models::Phase::Inference);

    // Serial reference: a fresh runner per analysis, nothing shared.
    let reference = ModelRunner::new(chip.clone()).analyze(&model).unwrap();

    let runner = ModelRunner::new(chip.clone());
    let first = runner.analyze(&model).unwrap();
    let second = runner.analyze(&model).unwrap();
    let stats = runner.pipeline().cache_stats();
    assert!(stats.hits > 0, "repeated model analysis must hit the cache: {stats:?}");

    for report in [&first, &second] {
        assert_eq!(report.total_cycles, reference.total_cycles);
        assert_eq!(report.op_reports.len(), reference.op_reports.len());
        for (got, want) in report.op_reports.iter().zip(&reference.op_reports) {
            assert_eq!(got.name, want.name);
            assert_eq!(got.total_cycles, want.total_cycles);
            assert_eq!(got.bottleneck, want.bottleneck);
            assert_eq!(got.peak_utilization, want.peak_utilization);
        }
        assert_eq!(report.distribution(), reference.distribution());
    }
}

#[test]
fn timings_track_uncached_runs_only() {
    let pipeline = AnalysisPipeline::new(ChipSpec::training());
    let op = Depthwise::new(1 << 14);
    pipeline.run(&op).unwrap();
    pipeline.run(&op).unwrap();
    pipeline.run(&op).unwrap();
    let timings = pipeline.timings();
    assert_eq!(timings.runs, 1, "only the miss executes the stages");
    assert!(timings.total_secs() >= 0.0);
    pipeline.reset();
    assert_eq!(pipeline.timings().runs, 0);
    assert_eq!(pipeline.cache_stats().misses, 0);
    assert_eq!(pipeline.cache_len(), 0);
}
