//! BENCH_1: the canonical engine benchmark harness.
//!
//! Drives the hot-path event loop on the big kernels — the PanGu-α
//! operator stream, the fig13/fig14 training workloads, and the
//! Section 5 case-study kernels — and measures raw engine throughput
//! (events/sec, ns/event) for both the arena engine ([`Simulator`])
//! and the pre-refactor seed engine
//! ([`ReferenceSimulator`](ascend_sim::reference::ReferenceSimulator)),
//! in the same process with the same harness, so the reported speedup
//! is an honest apples-to-apples ratio.
//!
//! On top of the engine-only numbers, one pipeline section measures
//! end-to-end batch throughput (items/sec), the analysis cache's
//! hit-rate, and the pipeline's own engine throughput counters.
//!
//! The result is written as `BENCH_1.json` (schema `ascend-bench-v1`).
//! `--reduced` shrinks the workload set and the per-workload time
//! budget for CI smoke runs; `--baseline <path>` validates a committed
//! baseline's schema and warns (non-blocking) when the current run's
//! engine events/sec regresses by more than 20% on any shared workload.
//!
//! `bench store verify [--context HEX] PATH...` is the offline ops
//! subcommand: a read-only scan of one or more
//! [`ResultStore`](ascend_pipeline::ResultStore) segments reporting
//! torn bytes, digest-invalid records, quarantine tombstones, and
//! quarantine violations — exiting non-zero on any corruption (or, with
//! `--context`, on a foreign segment).

use ascend_arch::ChipSpec;
use ascend_bench::{error_chain, header, write_json};
use ascend_isa::Kernel;
use ascend_models::zoo;
use ascend_ops::{AddRelu, AvgPool, Depthwise, Operator, OptFlags};
use ascend_pipeline::{AnalysisPipeline, ResultStore};
use ascend_sim::reference::ReferenceSimulator;
use ascend_sim::{NullSink, Simulator};
use serde_json::{json, Value};
use std::error::Error;
use std::time::{Duration, Instant};

/// Regression threshold for `--baseline` comparisons: warn when the
/// current events/sec drops below 80% of the committed number.
const REGRESSION_FLOOR: f64 = 0.80;

struct Args {
    reduced: bool,
    baseline: Option<String>,
    budget_ms: Option<u64>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { reduced: false, baseline: None, budget_ms: None };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--reduced" => {
                    args.reduced = true;
                    i += 1;
                }
                "--baseline" if i + 1 < argv.len() => {
                    args.baseline = Some(argv[i + 1].clone());
                    i += 2;
                }
                "--budget-ms" if i + 1 < argv.len() => {
                    match argv[i + 1].parse::<u64>() {
                        Ok(v) if v > 0 => args.budget_ms = Some(v),
                        _ => usage_exit(&argv[i + 1]),
                    }
                    i += 2;
                }
                flag => usage_exit(flag),
            }
        }
        args
    }
}

fn usage_exit(flag: &str) -> ! {
    eprintln!("usage: bench [--reduced] [--baseline PATH] [--budget-ms MS]");
    eprintln!("       bench store verify [--context HEX] PATH...");
    eprintln!(
        "       bench chaos [--seeds N] [--seed HEX] [--duration-ms MS] [--shards N] \
         [--gap-bound-ms MS] [--canary] [--keep i,j,...]"
    );
    eprintln!("unrecognized or malformed: {flag}");
    std::process::exit(2);
}

/// `bench store verify`: read-only integrity scan of store segments.
/// Never opens the store for writing — safe on a live segment — and
/// reports what recovery *would* find, plus quarantine violations no
/// compliant writer produces.
fn store_verify(argv: &[String]) -> Result<(), Box<dyn Error>> {
    let mut expected_context: Option<u64> = None;
    let mut paths: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--context" if i + 1 < argv.len() => {
                let raw = argv[i + 1].trim_start_matches("0x");
                expected_context = Some(u64::from_str_radix(raw, 16).map_err(|_| {
                    format!("malformed --context {:?} (expected hex)", argv[i + 1])
                })?);
                i += 2;
            }
            flag if flag.starts_with('-') => usage_exit(flag),
            path => {
                paths.push(path);
                i += 1;
            }
        }
    }
    if paths.is_empty() {
        usage_exit("store verify needs at least one PATH");
    }
    header("store verify", "offline read-only result-store integrity scan");
    let mut failed = false;
    for path in paths {
        match ResultStore::verify(path) {
            Ok(report) => {
                println!("  {path}: {report}");
                if !report.is_clean() {
                    failed = true;
                }
                if let Some(expected) = expected_context {
                    if report.context != expected {
                        failed = true;
                        println!(
                            "  {path}: FOREIGN — segment context {:#018x} does not match \
                             expected {expected:#018x}",
                            report.context,
                        );
                    }
                }
            }
            Err(err) => {
                failed = true;
                println!("  {path}: REFUSED — {err}");
            }
        }
    }
    if failed {
        return Err("store verify found corruption or a foreign segment (see above)".into());
    }
    println!("  all segments clean");
    Ok(())
}

/// A named set of kernels the harness loops over as one unit.
struct Workload {
    name: String,
    kernels: Vec<Kernel>,
}

/// One engine's throughput over a workload.
struct Measured {
    passes: u64,
    events: u64,
    secs: f64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.events as f64 / self.secs
        } else {
            0.0
        }
    }

    fn ns_per_event(&self) -> f64 {
        if self.events > 0 {
            self.secs * 1e9 / self.events as f64
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Value {
        json!({
            "passes": self.passes,
            "events": self.events,
            "secs": self.secs,
            "events_per_sec": self.events_per_sec(),
            "ns_per_event": self.ns_per_event(),
        })
    }
}

/// Builds every kernel of a model's operator stream once. Kernel
/// construction happens here, outside any timed region: the harness
/// measures the event loop, not `KernelBuilder`.
fn model_kernels(
    chip: &ChipSpec,
    model: &ascend_models::ModelWorkload,
) -> Result<Vec<Kernel>, Box<dyn Error>> {
    let mut kernels = Vec::with_capacity(model.ops().len());
    for invocation in model.ops() {
        kernels.push(invocation.operator().build(chip)?);
    }
    Ok(kernels)
}

/// The Section 5 case-study kernels: each operator's baseline and its
/// fully optimized variant, so the loop exercises both sync-heavy and
/// streamlined instruction sequences.
fn case_study_kernels(chip: &ChipSpec, elements: u64) -> Result<Vec<Kernel>, Box<dyn Error>> {
    let ops: Vec<Box<dyn Operator>> = vec![
        Box::new(AddRelu::new(elements)),
        Box::new(AddRelu::new(elements).with_flags(OptFlags::new().rsd(true).mrt(true))),
        Box::new(Depthwise::new(elements)),
        Box::new(Depthwise::new(elements).with_flags(OptFlags::new().itg(true).ais(true))),
        Box::new(AvgPool::new(elements)),
        Box::new(AvgPool::new(elements).with_flags(OptFlags::new().aip(true).rus(true))),
    ];
    let mut kernels = Vec::with_capacity(ops.len());
    for op in &ops {
        kernels.push(op.build(chip)?);
    }
    Ok(kernels)
}

fn workloads(chip: &ChipSpec, reduced: bool) -> Result<Vec<Workload>, Box<dyn Error>> {
    let mut out = Vec::new();
    // The headline workload: the PanGu-α operator stream (Table 2's
    // largest model), always first so `--baseline` comparisons and the
    // acceptance ratio read from a stable name.
    out.push(Workload {
        name: "pangu_alpha".into(),
        kernels: model_kernels(chip, &zoo::pangu_alpha())?,
    });
    // fig13/fig14 coverage: the Table 2 training sweep.
    for model in zoo::all_training() {
        if model.name() == zoo::pangu_alpha().name() {
            continue; // already measured as the headline entry
        }
        if reduced && !matches!(model.name(), "ResNet50" | "BERT") {
            continue;
        }
        out.push(Workload {
            name: model.name().to_string(),
            kernels: model_kernels(chip, &model)?,
        });
    }
    // Section 5 case studies on production-sized tensors.
    let elements = if reduced { 1 << 16 } else { 1 << 20 };
    out.push(Workload {
        name: "case_studies".into(),
        kernels: case_study_kernels(chip, elements)?,
    });
    Ok(out)
}

/// Counts the events one pass over the workload processes. The event
/// count is a property of the kernels, not the engine — both engines
/// walk the identical schedule — so one count serves both timings.
fn events_per_pass(sim: &Simulator, kernels: &[Kernel]) -> Result<u64, Box<dyn Error>> {
    let mut events = 0;
    for kernel in kernels {
        let mut sink = NullSink;
        events += sim.simulate_unchecked_into(kernel, &mut sink)?.events;
    }
    Ok(events)
}

/// Loops whole passes over the workload until the time budget elapses
/// (at least one pass always runs), timing only the simulate calls.
fn drive<F>(kernels: &[Kernel], events_per_pass: u64, budget: Duration, mut run_pass: F) -> Measured
where
    F: FnMut(&[Kernel]),
{
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        run_pass(kernels);
        passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    Measured { passes, events: passes * events_per_pass, secs: start.elapsed().as_secs_f64() }
}

/// Measures the pipeline end to end: a cold batch (all misses) for
/// items/sec, then the identical batch again so the cache hit-rate and
/// the pipeline's own engine counters have something to say.
fn pipeline_section(chip: &ChipSpec, elements: u64) -> Value {
    let pipeline = AnalysisPipeline::new(chip.clone());
    let ops: Vec<Box<dyn Operator>> = vec![
        Box::new(AddRelu::new(elements)),
        Box::new(AddRelu::new(elements).with_flags(OptFlags::new().rsd(true))),
        Box::new(AddRelu::new(elements).with_flags(OptFlags::new().rsd(true).mrt(true))),
        Box::new(Depthwise::new(elements)),
        Box::new(Depthwise::new(elements).with_flags(OptFlags::new().itg(true))),
        Box::new(Depthwise::new(elements).with_flags(OptFlags::new().itg(true).ais(true))),
        Box::new(AvgPool::new(elements)),
        Box::new(AvgPool::new(elements).with_flags(OptFlags::new().aip(true))),
        Box::new(AvgPool::new(elements).with_flags(OptFlags::new().aip(true).rus(true))),
    ];
    let refs: Vec<&dyn Operator> = ops.iter().map(AsRef::as_ref).collect();

    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cold_start = Instant::now();
    let cold = pipeline.run_batch_with_workers(&refs, workers);
    let cold_secs = cold_start.elapsed().as_secs_f64();
    let cold_ok = cold.iter().filter(|r| r.is_ok()).count();

    let warm_start = Instant::now();
    let warm = pipeline.run_batch_with_workers(&refs, workers);
    let warm_secs = warm_start.elapsed().as_secs_f64();
    let warm_ok = warm.iter().filter(|r| r.is_ok()).count();

    let cache = pipeline.cache_stats();
    let engine = pipeline.engine_throughput();
    println!(
        "  batch: {cold_ok}/{} cold in {cold_secs:.3}s ({:.1} items/s), \
         {warm_ok} warm in {warm_secs:.3}s, cache hit-rate {:.1}%",
        refs.len(),
        cold_ok as f64 / cold_secs.max(1e-9),
        cache.hit_rate() * 100.0,
    );
    json!({
        "items": refs.len(),
        "cold_ok": cold_ok,
        "cold_secs": cold_secs,
        "items_per_sec": cold_ok as f64 / cold_secs.max(1e-9),
        "warm_ok": warm_ok,
        "warm_secs": warm_secs,
        "cache_hit_rate": cache.hit_rate(),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "pipeline_engine": {
            "events": engine.events,
            "sim_secs": engine.sim_secs,
            "events_per_sec": engine.events_per_sec(),
            "ns_per_event": engine.ns_per_event(),
        },
    })
}

/// Structural validation of an `ascend-bench-v1` document. Returns every
/// violation rather than the first, so a broken artifact reads as one
/// actionable report.
fn validate_schema(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some("ascend-bench-v1") {
        problems.push("schema: expected the string \"ascend-bench-v1\"".into());
    }
    if doc.get("mode").and_then(Value::as_str).is_none() {
        problems.push("mode: expected a string".into());
    }
    match doc.get("workloads").and_then(Value::as_array) {
        None => problems.push("workloads: expected an array".into()),
        Some(entries) if entries.is_empty() => {
            problems.push("workloads: expected at least one entry".into());
        }
        Some(entries) => {
            for (i, entry) in entries.iter().enumerate() {
                if entry.get("name").and_then(Value::as_str).is_none() {
                    problems.push(format!("workloads[{i}].name: expected a string"));
                }
                for engine in ["engine", "reference"] {
                    for field in ["events", "secs", "events_per_sec", "ns_per_event"] {
                        let ok = entry
                            .get(engine)
                            .and_then(|e| e.get(field))
                            .and_then(Value::as_f64)
                            .is_some_and(f64::is_finite);
                        if !ok {
                            problems.push(format!(
                                "workloads[{i}].{engine}.{field}: expected a finite number"
                            ));
                        }
                    }
                }
                if entry.get("speedup").and_then(Value::as_f64).is_none() {
                    problems.push(format!("workloads[{i}].speedup: expected a number"));
                }
            }
        }
    }
    for field in ["items_per_sec", "cache_hit_rate"] {
        if doc.get("batch").and_then(|b| b.get(field)).and_then(Value::as_f64).is_none() {
            problems.push(format!("batch.{field}: expected a number"));
        }
    }
    problems
}

/// Non-blocking baseline comparison: validates the committed file's
/// schema, then warns on any shared workload whose engine events/sec
/// fell below [`REGRESSION_FLOOR`] of the baseline. Returns `Err` only
/// for hard failures (unreadable file, broken schema).
fn check_baseline(path: &str, current: &Value) -> Result<(), Box<dyn Error>> {
    let text = std::fs::read_to_string(path)?;
    let baseline: Value = serde_json::from_str(&text)?;
    let problems = validate_schema(&baseline);
    if !problems.is_empty() {
        return Err(format!(
            "baseline {path} failed schema validation:\n  {}",
            problems.join("\n  ")
        )
        .into());
    }
    println!("  baseline {path}: schema ascend-bench-v1 OK");
    let rate_of = |doc: &Value, name: &str| -> Option<f64> {
        doc.get("workloads")?
            .as_array()?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))?
            .get("engine")?
            .get("events_per_sec")?
            .as_f64()
    };
    let mut warned = false;
    for entry in current.get("workloads").and_then(Value::as_array).unwrap_or(&Vec::new()) {
        let Some(name) = entry.get("name").and_then(Value::as_str) else { continue };
        let (Some(now), Some(then)) = (rate_of(current, name), rate_of(&baseline, name)) else {
            continue;
        };
        if then > 0.0 && now < then * REGRESSION_FLOOR {
            warned = true;
            println!(
                "  warning: {name} engine throughput regressed {:.0}% \
                 ({now:.0} events/s now vs {then:.0} baseline) — non-blocking",
                (1.0 - now / then) * 100.0,
            );
        }
    }
    if !warned {
        println!("  baseline {path}: no workload regressed >20% events/s");
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("store") {
        match argv.get(1).map(String::as_str) {
            Some("verify") => return store_verify(&argv[2..]),
            other => usage_exit(other.unwrap_or("store needs a subcommand (verify)")),
        }
    }
    if argv.first().map(String::as_str) == Some("chaos") {
        return ascend_bench::run_chaos(&argv[1..]);
    }
    let args = Args::parse();
    header("BENCH_1", "hot-path engine throughput: arena engine vs seed engine");

    let chip = ChipSpec::training();
    let budget =
        Duration::from_millis(args.budget_ms.unwrap_or(if args.reduced { 60 } else { 400 }));
    let simulator = Simulator::new(ChipSpec::training());
    let reference = ReferenceSimulator::new(ChipSpec::training());

    let mut rows = Vec::new();
    let mut pangu_speedup = 0.0;
    println!(
        "  {:<16} {:>9} {:>14} {:>14} {:>9}",
        "workload", "kernels", "arena ev/s", "seed ev/s", "speedup"
    );
    for workload in workloads(&chip, args.reduced)? {
        // The counting pass doubles as warmup: scratch arenas are
        // allocated and pooled before the clock starts.
        let per_pass = events_per_pass(&simulator, &workload.kernels)?;
        let engine = drive(&workload.kernels, per_pass, budget, |kernels| {
            for kernel in kernels {
                let mut sink = NullSink;
                simulator
                    .simulate_unchecked_into(kernel, &mut sink)
                    .expect("workload kernels simulate cleanly");
            }
        });
        let seed = drive(&workload.kernels, per_pass, budget, |kernels| {
            for kernel in kernels {
                reference.simulate_unchecked(kernel).expect("workload kernels simulate cleanly");
            }
        });
        let speedup = if seed.events_per_sec() > 0.0 {
            engine.events_per_sec() / seed.events_per_sec()
        } else {
            0.0
        };
        if workload.name == "pangu_alpha" {
            pangu_speedup = speedup;
        }
        println!(
            "  {:<16} {:>9} {:>14.0} {:>14.0} {:>8.2}x",
            workload.name,
            workload.kernels.len(),
            engine.events_per_sec(),
            seed.events_per_sec(),
            speedup,
        );
        rows.push(json!({
            "name": workload.name,
            "kernels": workload.kernels.len(),
            "events_per_pass": per_pass,
            "engine": engine.to_json(),
            "reference": seed.to_json(),
            "speedup": speedup,
        }));
    }

    println!();
    let batch = pipeline_section(&chip, if args.reduced { 1 << 14 } else { 1 << 18 });

    let doc = json!({
        "schema": "ascend-bench-v1",
        "mode": if args.reduced { "reduced" } else { "full" },
        "chip": "training",
        "budget_ms": budget.as_millis() as u64,
        "pangu_alpha_speedup": pangu_speedup,
        "workloads": rows,
        "batch": batch,
    });
    let problems = validate_schema(&doc);
    if !problems.is_empty() {
        return Err(format!(
            "generated document failed self-validation:\n  {}",
            problems.join("\n  ")
        )
        .into());
    }
    println!("\n  PanGu-alpha speedup vs seed engine: {pangu_speedup:.2}x");
    if let Some(path) = write_json("BENCH_1", &doc) {
        println!("  wrote {}", path.display());
    }
    if let Some(baseline) = &args.baseline {
        check_baseline(baseline, &doc)?;
    }
    Ok(())
}

fn main() {
    // `bench chaos` clusters re-exec this very binary as their shard
    // workers; in the ordinary invocation this is a no-op.
    ascend_pipeline::run_worker_if_requested();
    if let Err(err) = run() {
        eprintln!("bench failed: {}", error_chain(err.as_ref()));
        std::process::exit(1);
    }
}
