//! Supervised, crash-safe batch execution: run a sweep under a
//! `RunPolicy` (deadlines, retries, analytical fallback) on a pipeline
//! with a durable result store attached, "kill" it part-way, then reopen
//! the store and show that the resumed batch serves the finished items
//! from disk and simulates only the remainder.
//!
//! Run with `cargo run --example resumable_batch`.

use ascend::arch::ChipSpec;
use ascend::ops::{AddRelu, Operator};
use ascend::pipeline::{AnalysisPipeline, RunPolicy};
use ascend::sim::SimBudget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A sweep of operators, including one (the second) that is far
    //    too large for the watchdog budget the policy imposes below.
    let ops: Vec<Box<dyn Operator>> = [10, 20, 11, 12, 13, 14, 15, 16]
        .into_iter()
        .map(|shift| Box::new(AddRelu::new(1 << shift)) as Box<dyn Operator>)
        .collect();
    let refs: Vec<&dyn Operator> = ops.iter().map(AsRef::as_ref).collect();

    // 2. The supervision policy: a per-attempt cycle budget, one retry,
    //    and graceful degradation to the closed-form analytical estimate
    //    when an item keeps blowing the budget.
    let policy = RunPolicy::default()
        .with_budget(SimBudget { max_events: u64::MAX, max_cycles: 10_000.0 })
        .with_retries(1)
        .with_fallback(true);

    // 3. First process: the store persists — and fsyncs — every simulated
    //    result as it completes. The process is "killed" after the first
    //    five items; only what reached the store survives.
    let dir = std::env::temp_dir().join(format!("ascend_resumable_batch_{}", std::process::id()));
    let store_path = dir.join("batch.astr");
    let killed_after = 5;
    {
        let pipeline = AnalysisPipeline::new(ChipSpec::training()).with_store(&store_path)?;
        let results = pipeline.run_batch_supervised(&refs[..killed_after], 1, &policy);
        for (op, result) in ops.iter().zip(&results) {
            let result = result.as_ref().expect("fallback keeps the batch whole");
            println!(
                "{:<24} {:>10.0} cycles  fidelity: {:?}",
                op.name(),
                result.cycles(),
                result.fidelity
            );
        }
        println!("\nkilled after {killed_after} of {} items", refs.len());
        println!("first process: {}", pipeline.supervisor_stats());
    }

    // 4. Second process: a fresh pipeline reopens the store and runs the
    //    whole batch. Finished items are disk hits; the analytical
    //    fallback was never persisted, so it re-runs with the remainder.
    let resumed = AnalysisPipeline::new(ChipSpec::training()).with_store(&store_path)?;
    let recovered = resumed.store_stats().map_or(0, |stats| stats.recovered);
    println!("\nreopened store: {recovered} record(s) recovered");
    let results = resumed.run_batch_supervised(&refs, 1, &policy);
    assert!(results.iter().all(Result::is_ok));
    let hits = resumed.store_stats().map_or(0, |stats| stats.hits);
    let simulated = resumed.timings().runs;
    println!("resumed: {hits} item(s) served from disk, {simulated} simulated");
    assert_eq!(hits, recovered, "every persisted item is served from disk");
    assert_eq!(simulated, 3, "only the three items past the kill simulate");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
