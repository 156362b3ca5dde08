//! Closed-loop benchmark of the Ascend roofline workspace.
//!
//! ```text
//! perfbench --workload <campaign_cold|cluster_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload repeats rounds over inputs generated from `--seed`
//! until `--seconds` have passed. A round sets the system up (timed as
//! `setup_s`), serves its requests from a closed loop and checks every
//! result against an in-process reference computed before timing. An
//! untimed warm-up round over a differently seeded order runs first.
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics of a traced run.
//! See README.md in this directory.

mod check;
mod inputs;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Requests the closed loops keep in flight: one per client thread.
pub const CLIENTS: usize = 2;
/// The p95 is reported only with at least ten samples beyond it, so a
/// run keeps going past `--seconds` until it has this many latencies.
const MIN_LATENCY_SAMPLES: usize = 220;
/// Hard stop, as a multiple of `--seconds`, should a round be so slow
/// that the sample floor is out of reach.
const MAX_STRETCH: f64 = 3.0;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["campaign_cold", "cluster_mixed"];

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One submit→result measurement, kept for latency attribution.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub key: u64,
    /// The key was already served earlier in the round.
    pub repeat: bool,
    pub latency_ns: u64,
    pub submit_ns: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub serve_s: f64,
    pub latencies_ms: Vec<f64>,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub events: u64,
    /// Exact-repeat counts: identical in every round of a run.
    pub counts: Vec<(&'static str, u64)>,
    /// Peak resident set of the round's child processes, KiB.
    pub child_hwm_kb: u64,
    /// Broken accounting invariants (lost tickets, sheds, failovers…).
    pub violations: Vec<String>,
}

/// The rounds of one measured phase, folded together.
#[derive(Debug, Default)]
pub struct Totals {
    pub rounds: u64,
    pub setup_s: Vec<f64>,
    pub serve_s: f64,
    pub latencies_ms: Vec<f64>,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub events: u64,
    pub counts: BTreeMap<&'static str, u64>,
    /// Per round: peak resident set of this process and its children, KiB.
    pub rss_kb: Vec<f64>,
    pub violations: Vec<String>,
}

impl Totals {
    fn absorb(&mut self, round: Round) {
        let own = stats::vm_hwm_kb(None).unwrap_or(0);
        self.rss_kb.push((own + round.child_hwm_kb) as f64);
        self.rounds += 1;
        self.setup_s.push(round.setup_s);
        self.serve_s += round.serve_s;
        self.latencies_ms.extend(round.latencies_ms);
        self.samples.extend(round.samples);
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.events += round.events;
        for (name, value) in round.counts {
            let first = *self.counts.entry(name).or_insert(value);
            if first != value {
                self.violations.push(format!(
                    "exact-repeat count {name} differs between rounds: {first} then {value}"
                ));
            }
        }
        self.violations.extend(round.violations);
    }

    fn items_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.serve_s.max(1e-9)
    }

    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", stats::median(&self.setup_s), "s"),
            metric("items_per_s", self.items_per_s(), "1/s"),
            metric("latency_p50_ms", stats::median(&self.latencies_ms), "ms"),
            metric("latency_p95_ms", stats::quantile(&self.latencies_ms, 0.95), "ms"),
            metric("sim_events_per_s", self.events as f64 / self.serve_s.max(1e-9), "1/s"),
            metric("rss_peak_mb", stats::median(&self.rss_kb) / 1024.0, "MB"),
        ]
    }

    fn describe(&self, label: &str) -> String {
        let p95 = stats::quantile(&self.latencies_ms, 0.95);
        let mut out = format!(
            "{label}: {} rounds, {} requests ({} failed) in {:.3} s served, \
             {} latency samples ({} beyond p95), {} set-ups\n  counts:",
            self.rounds,
            self.attempted,
            self.failed,
            self.serve_s,
            self.latencies_ms.len(),
            stats::beyond(&self.latencies_ms, p95),
            self.setup_s.len(),
        );
        for (name, value) in &self.counts {
            let _ = write!(out, " {name}={value}");
        }
        if stats::beyond(&self.latencies_ms, p95) < 10 {
            out.push_str("\n  warning: fewer than ten samples beyond the p95");
        }
        out
    }
}

/// A workload: rounds over seeded inputs plus the inputs its layer
/// probes run on.
pub trait Workload {
    /// One round over the timed inputs, or over the warm-up inputs.
    fn round(&self, warmup: bool, tracer: &Tracer) -> Result<Round, String>;
    /// The distinct inputs and request sequence the layer probes use.
    fn probe_set(&self) -> probe::ProbeSet<'_>;
    fn reference(&self) -> &check::Reference;
}

/// Repeats timed rounds for `seconds` (and until the latency floor).
fn drive(workload: &dyn Workload, seconds: f64, tracer: &Tracer) -> Result<Totals, String> {
    let start = Instant::now();
    let mut totals = Totals::default();
    loop {
        stats::reset_peak_rss();
        totals.absorb(workload.round(false, tracer)?);
        let elapsed = start.elapsed().as_secs_f64();
        let enough = totals.latencies_ms.len() >= MIN_LATENCY_SAMPLES;
        if (elapsed >= seconds && enough) || elapsed >= seconds * MAX_STRETCH {
            return Ok(totals);
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The benchmark's scratch directory inside the checkout; removed on
/// drop, so no run leaves store segments behind.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where build outputs, scratch state and span logs go, relative to the
/// checkout root the benchmark runs from.
const OUTPUT_ROOT: &str = ".bench_build";

struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let dir = RunDir(Path::new(OUTPUT_ROOT).join("perfbench-run").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|err| format!("{}: {err}", dir.0.display()))?;
    eprintln!(
        "[perfbench] {} seed {} ({} s, trace {}); scratch on {} ({}), {} cpus",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        dir.0.display(),
        stats::filesystem_of(&dir.0),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let prepared = Instant::now();
    let workload = workloads::prepare(&args.workload, args.seed)?;
    eprintln!(
        "[perfbench] inputs and reference ready in {:.3} s; codec.result_bytes={:.1}",
        prepared.elapsed().as_secs_f64(),
        workload.reference().mean_json_bytes(),
    );
    let warm = workload.round(true, &Tracer::new(false))?;
    let mut violations = warm.violations.clone();
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);

    if !args.trace {
        let totals = drive(workload.as_ref(), args.seconds, &Tracer::new(false))?;
        eprintln!("[perfbench] {}", totals.describe("timed"));
        attempted += totals.attempted;
        failed += totals.failed;
        violations.extend(totals.violations.iter().cloned());
        return Ok(Outcome { attempted, failed, violations, metrics: totals.end_to_end() });
    }

    // Traced run: half the time untraced, half traced, then the layer
    // probes on the same inputs.
    let untraced = drive(workload.as_ref(), args.seconds / 2.0, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let traced = drive(workload.as_ref(), args.seconds / 2.0, &tracer)?;
    eprintln!("[perfbench] {}", untraced.describe("untraced"));
    eprintln!("[perfbench] {}", traced.describe("traced"));
    let probed = probe::run(workload.as_ref(), &tracer, &dir.0)?;
    let spans = tracer.take();
    let spans_path = Path::new(OUTPUT_ROOT)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    trace::write_jsonl(&spans_path, &spans).map_err(|err| format!("writing spans: {err}"))?;
    eprintln!("[perfbench] {} spans written to {}", spans.len(), spans_path.display());

    for totals in [&untraced, &traced] {
        attempted += totals.attempted;
        failed += totals.failed;
        violations.extend(totals.violations.iter().cloned());
    }
    attempted += probed.attempted;
    failed += probed.failed;
    violations.extend(probed.violations.iter().cloned());

    let overhead = 100.0 * (1.0 - traced.items_per_s() / untraced.items_per_s());
    let p95 = stats::quantile(&untraced.latencies_ms, 0.95);
    let mut metrics = probe::layer_metrics(&probed, &spans, &traced);
    metrics.extend([
        metric("latency.samples", untraced.latencies_ms.len() as f64, "count"),
        metric(
            "latency.p95_tail_samples",
            stats::beyond(&untraced.latencies_ms, p95) as f64,
            "count",
        ),
        metric("setup.samples", untraced.setup_s.len() as f64, "count"),
        metric("trace.overhead_pct", overhead, "%"),
        metric("trace.spans", spans.len() as f64, "count"),
    ]);
    Ok(Outcome { attempted, failed, violations, metrics })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(outcome: &Outcome) -> String {
    let correct = outcome.failed == 0 && outcome.violations.is_empty();
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

fn main() {
    // Shard processes of the cluster workload re-enter this binary.
    ascend_pipeline::run_worker_if_requested();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    };
    for m in outcome.metrics.iter().filter(|m| !m.value.is_finite()) {
        outcome.violations.push(format!("metric {} was not measured", m.name));
    }
    for violation in &outcome.violations {
        eprintln!("[perfbench] VIOLATION: {violation}");
    }
    let line = result_json(&outcome);
    println!("{line}");
    if line.starts_with("{\"correct\": false") {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric name the benchmark can print, with its unit.
    fn printed_metrics() -> Vec<(&'static str, &'static str)> {
        let mut names: Vec<(&str, &str)> =
            Totals::default().end_to_end().iter().map(|m| (m.name, m.unit)).collect();
        names.extend(probe::LAYER_METRICS.iter().copied());
        names.extend([
            ("latency.samples", "count"),
            ("latency.p95_tail_samples", "count"),
            ("setup.samples", "count"),
            ("trace.overhead_pct", "%"),
            ("trace.spans", "count"),
        ]);
        names
    }

    #[test]
    fn every_metric_name_is_well_formed_and_declared() {
        let manifest = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&manifest).expect("valid JSON");
        let declared = |section: &str| -> Vec<(String, String)> {
            doc[section]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m[k].as_str().expect("string field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let mut all = declared("end_to_end");
        all.extend(declared("per_layer"));
        let printed = printed_metrics();
        for (name, unit) in &printed {
            assert!(
                !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "malformed metric name {name}"
            );
            assert!(
                all.iter().any(|(n, u)| n == name && u == unit),
                "{name} ({unit}) is not declared in BENCHMARK.json"
            );
        }
        for (name, _) in &all {
            assert!(printed.iter().any(|(n, _)| n == name), "{name} is declared but never printed");
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 1,
            violations: Vec::new(),
            metrics: vec![metric("setup_s", 0.25, "s")],
        };
        let doc: serde_json::Value = serde_json::from_str(&result_json(&outcome)).expect("json");
        assert_eq!(doc["correct"].as_bool(), Some(false));
        assert_eq!(doc["attempted"].as_u64(), Some(3));
        assert_eq!(doc["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload cluster_mixed --seed 4 --seconds 2 --trace 1"))
            .expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 2.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload cluster_mixed --trace 2")).is_err());
    }
}
