#![warn(missing_docs)]

//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured numbers. Binaries print their
//! rows to stdout and, when [`write_json`] is used, also drop a JSON
//! artifact under the experiments directory (`target/experiments/` by
//! default; override with the `ASCEND_EXPERIMENTS_DIR` environment
//! variable).
//!
//! All simulation goes through one process-wide [`AnalysisPipeline`] per
//! chip (see [`pipeline_for`]), so repeated measurements within a binary
//! are cache hits and every binary can print the pipeline's
//! instrumentation footer.

pub mod chaos;
pub mod env;

pub use chaos::run_chaos;
pub use env::{env_knob, parse_env};

use ascend_arch::ChipSpec;
use ascend_ops::Operator;
use ascend_pipeline::{AnalysisPipeline, AuditPolicy, RunPolicy};
use ascend_profile::Profile;
use ascend_roofline::RooflineAnalysis;
use ascend_sim::{SimBudget, Trace};
use serde::Serialize;
use std::error::Error;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Process-wide pipelines, one per distinct chip spec.
static PIPELINES: OnceLock<Mutex<Vec<AnalysisPipeline>>> = OnceLock::new();

/// The process-wide [`AnalysisPipeline`] for `chip`. Clones share the
/// result cache and instrumentation counters, so every [`run_op`] in a
/// binary contributes to the same ledger.
///
/// The result-cache bound is tunable per run through the
/// `ASCEND_CACHE_CAPACITY` environment variable (entries, minimum 1;
/// unset: the pipeline default). Evictions under sustained traffic are
/// visible in the instrumentation footer's `evictions` counter.
///
/// Setting `ASCEND_CACHE_DIR` additionally attaches a durable
/// [`ResultStore`](ascend_pipeline::ResultStore) at
/// `<dir>/store-<context>.astr` (one file per pipeline context, so
/// different chips in one directory never collide): repeat runs of the
/// same binary answer from disk instead of re-simulating, and the
/// footer grows a `store:` line with hit/recovered/corrupt counters. An
/// unopenable store warns and runs memory-only.
///
/// Setting `ASCEND_AUDIT_RATE` (a fraction in 0..=1) enables the online
/// divergence-audit tier in inline mode at that sampling rate: sampled
/// results are shadow re-executed on the reference oracle before they
/// are served, a divergent result is quarantined and re-answered by the
/// oracle, and the footer grows an `audit:` line. `0` disables auditing
/// explicitly.
///
/// Malformed knob values are fatal (see [`env_knob`]): a typo exits
/// with status 2 instead of silently running with the default.
#[must_use]
pub fn pipeline_for(chip: &ChipSpec) -> AnalysisPipeline {
    let registry = PIPELINES.get_or_init(|| Mutex::new(Vec::new()));
    let mut pipelines = lock(registry);
    if let Some(found) = pipelines.iter().find(|p| p.chip() == chip) {
        return found.clone();
    }
    let mut pipeline = AnalysisPipeline::new(chip.clone());
    if let Some(capacity) = env_u64("ASCEND_CACHE_CAPACITY") {
        pipeline = pipeline.with_cache_capacity(usize::try_from(capacity).unwrap_or(usize::MAX));
    }
    if let Some(dir) = std::env::var_os("ASCEND_CACHE_DIR") {
        let path = PathBuf::from(dir).join(format!("store-{:016x}.astr", pipeline.context()));
        match pipeline.clone().with_store(&path) {
            Ok(with_store) => {
                pipeline = with_store;
                let recovered = pipeline.store_stats().map_or(0, |s| s.recovered);
                if recovered > 0 {
                    println!("[store] {}: recovered {recovered} entr(ies)", path.display());
                }
            }
            Err(err) => {
                eprintln!("warning: cannot open result store {}: {err}", path.display());
            }
        }
    }
    if let Some(policy) = audit_policy_from_env() {
        pipeline = pipeline.with_audit(policy);
    }
    pipelines.push(pipeline.clone());
    pipeline
}

/// The audit policy selected by `ASCEND_AUDIT_RATE` (a sampling
/// fraction in 0..=1): `None` when the variable is unset or zero; a
/// malformed value is fatal. [`pipeline_for`] attaches it inline; the serve
/// binary passes it to [`ServiceConfig::audit`] for deferred slack-time
/// auditing instead.
///
/// [`ServiceConfig::audit`]: ascend_pipeline::ServiceConfig
#[must_use]
pub fn audit_policy_from_env() -> Option<AuditPolicy> {
    let rate = env_f64("ASCEND_AUDIT_RATE")?;
    (rate > 0.0).then(|| AuditPolicy::default().with_rate(rate))
}

/// The supervision policy the experiment binaries run under:
/// [`RunPolicy::resilient`] (bounded retries, circuit breaker,
/// analytical fallback), tunable per run through the environment:
///
/// * `ASCEND_ITEM_DEADLINE_MS` — per-attempt wall-clock deadline in
///   milliseconds (unset: no deadline);
/// * `ASCEND_ITEM_MAX_EVENTS` — per-attempt watchdog event budget
///   (unset: the simulator default);
/// * `ASCEND_RETRIES` — retry count (default 2);
/// * `ASCEND_NO_FALLBACK` — set (to anything) to fail hard instead of
///   degrading to the analytical estimate.
#[must_use]
pub fn run_policy() -> RunPolicy {
    let mut policy = RunPolicy::resilient();
    if let Some(ms) = env_u64("ASCEND_ITEM_DEADLINE_MS") {
        policy = policy.with_deadline(Duration::from_millis(ms));
    }
    if let Some(max_events) = env_u64("ASCEND_ITEM_MAX_EVENTS") {
        policy = policy.with_budget(SimBudget { max_events, max_cycles: f64::INFINITY });
    }
    if let Some(retries) = env_u64("ASCEND_RETRIES") {
        policy = policy.with_retries(u32::try_from(retries).unwrap_or(u32::MAX));
    }
    if std::env::var_os("ASCEND_NO_FALLBACK").is_some() {
        policy = policy.with_fallback(false);
    }
    policy
}

fn env_u64(name: &str) -> Option<u64> {
    env_knob(name, "an unsigned integer")
}

fn env_f64(name: &str) -> Option<f64> {
    env_knob(name, "a number")
}

/// Simulates `op` on `chip` and returns its profile, trace, and analysis.
///
/// Routed through [`pipeline_for`] under [`run_policy`], so re-running
/// the same operator and flags is a cache hit, transient failures are
/// retried, and (unless `ASCEND_NO_FALLBACK` is set) a persistently
/// failing item degrades to the analytical estimate instead of aborting
/// the figure.
///
/// # Panics
///
/// Panics when the item fails permanently (invalid kernel, broken chip
/// spec, or fallback disabled) — the experiment binaries treat that as a
/// fatal configuration error. The panic message carries the full error
/// chain (including deadlock forensics and watchdog budgets), not just
/// the top-level variant.
#[must_use]
pub fn run_op(chip: &ChipSpec, op: &dyn Operator) -> (Profile, Trace, RooflineAnalysis) {
    let result = pipeline_for(chip)
        .run_supervised(op, &run_policy(), None)
        .unwrap_or_else(|err| panic!("operator {:?} failed:\n{}", op.name(), error_chain(&err)));
    (result.profile.clone(), result.trace.clone(), result.analysis.clone())
}

/// Renders `err` followed by its full [`Error::source`] chain, one
/// `caused by:` line per level — so a deadlock buried under a pipeline
/// error still prints its per-queue forensics.
#[must_use]
pub fn error_chain(err: &dyn Error) -> String {
    let mut out = err.to_string();
    let mut cause = err.source();
    while let Some(err) = cause {
        out.push_str("\ncaused by: ");
        out.push_str(&err.to_string());
        cause = err.source();
    }
    out
}

/// Locks `mutex`, tolerating poisoning: the registry holds plain data
/// that stays consistent even if a holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cycles → microseconds on `chip`, for paper-style reporting.
#[must_use]
pub fn micros(chip: &ChipSpec, cycles: f64) -> f64 {
    chip.cycles_to_micros(cycles)
}

/// The directory experiment artifacts are written to:
/// `$ASCEND_EXPERIMENTS_DIR` when set, `target/experiments/` at the
/// workspace root otherwise.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    std::env::var_os("ASCEND_EXPERIMENTS_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments"),
        PathBuf::from,
    )
}

/// Writes `contents` to `<experiments_dir>/<name>`, creating the
/// directory as needed. Errors are reported but not fatal (the printed
/// rows are the primary artifact).
fn write_artifact(name: &str, contents: &str) -> Option<PathBuf> {
    let dir = experiments_dir();
    if let Err(err) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {err}", dir.display());
        return None;
    }
    let path = dir.join(name);
    if let Err(err) = fs::write(&path, contents) {
        eprintln!("warning: cannot write {}: {err}", path.display());
        return None;
    }
    println!("[artifact] {}", path.display());
    Some(path)
}

/// Writes `value` as pretty JSON to `<experiments_dir>/<name>.json` and
/// returns the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    match serde_json::to_string_pretty(value) {
        Ok(json) => write_artifact(&format!("{name}.json"), &json),
        Err(err) => {
            eprintln!("warning: cannot serialize {name}: {err}");
            None
        }
    }
}

/// Writes raw text (e.g. an SVG) to `<experiments_dir>/<name>` and
/// returns the path.
pub fn write_text(name: &str, contents: &str) -> Option<PathBuf> {
    write_artifact(name, contents)
}

/// Prints a section header for an experiment binary.
pub fn header(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_ops::AddRelu;

    #[test]
    fn run_op_produces_consistent_artifacts() {
        let chip = ChipSpec::training();
        let (profile, trace, analysis) = run_op(&chip, &AddRelu::new(1 << 14));
        assert!((profile.total_cycles - trace.total_cycles()).abs() < 1e-9);
        assert!(!analysis.metrics().is_empty());
        assert!(micros(&chip, trace.total_cycles()) > 0.0);
    }

    #[test]
    fn repeated_run_op_hits_the_shared_pipeline_cache() {
        let chip = ChipSpec::training();
        let first = run_op(&chip, &AddRelu::new(1 << 10));
        let again = run_op(&chip, &AddRelu::new(1 << 10));
        assert_eq!(first.2, again.2);
        assert!(pipeline_for(&chip).cache_stats().hits >= 1);
    }

    #[test]
    fn error_chain_renders_every_level() {
        use ascend_pipeline::PipelineError;
        use ascend_sim::SimError;
        let err = PipelineError::from(SimError::BudgetExceeded {
            events: 10,
            cycles: 5.0,
            max_events: 8,
            max_cycles: 1e6,
        });
        let chain = error_chain(&err);
        assert!(chain.contains("simulation failed"), "{chain}");
        assert!(chain.contains("caused by: watchdog budget exceeded"), "{chain}");
    }

    #[test]
    fn write_json_emits_a_file() {
        let path = write_json("selftest", &serde_json::json!({"ok": true})).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("ok"));
    }
}
