//! Isolation tiers side by side: run the same operator specs through
//! the in-process tier and through sandboxed worker processes, then
//! throw hostile work at the sandboxed tier and watch it fail *only*
//! its own ticket — typed, counted, and without taking the service
//! down.
//!
//! ```text
//! cargo run --release --example sandboxed_batch
//! ```

use ascend::arch::ChipSpec;
use ascend::faults::HostileMode;
use ascend::ops::OpSpec;
use ascend::pipeline::{
    AnalysisPipeline, AnalysisService, Isolation, Priority, Request, SandboxConfig, ServiceConfig,
    WorkSpec,
};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sandbox workers are this same binary, re-executed with the
    // worker marker set. This call must come before anything else in
    // main: in a worker process it serves jobs and never returns.
    ascend::pipeline::run_worker_if_requested();

    let specs = [
        OpSpec::add_relu(1 << 14),
        OpSpec::gelu(1 << 12),
        OpSpec::softmax(1 << 10),
        OpSpec::matmul(32, 32, 32),
    ];

    // Tight budgets so the hostile demo below settles in about a
    // second; the defaults are more forgiving.
    let sandbox = SandboxConfig {
        heartbeat_timeout: Duration::from_millis(300),
        wall_clock_limit: Duration::from_secs(1),
        rss_limit_bytes: Some(256 * 1024 * 1024),
        ..SandboxConfig::default()
    };
    let service = AnalysisService::start(
        AnalysisPipeline::new(ChipSpec::training()),
        ServiceConfig {
            workers: 2,
            isolation: Isolation::Sandboxed,
            sandbox,
            ..ServiceConfig::default()
        },
    );

    // 1. Clean work: results from child processes are bit-identical to
    //    an in-process run of the same specs.
    let reference = AnalysisPipeline::new(ChipSpec::training());
    let tickets: Vec<_> = specs
        .iter()
        .map(|spec| service.submit(Request::sweep_spec(*spec)))
        .collect::<Result<_, _>>()?;
    println!("operator           cycles   identical to in-process?");
    for (spec, ticket) in specs.iter().zip(tickets) {
        let sandboxed = ticket.wait()?;
        let op = spec.instantiate();
        let local = reference.run(op.as_ref())?;
        println!(
            "{:<16} {:>8.0}   {}",
            op.name(),
            sandboxed.cycles(),
            if *sandboxed == *local { "yes" } else { "NO" }
        );
        assert_eq!(*sandboxed, *local);
    }

    // 2. Hostile work: a hot loop that never polls, and an abort().
    //    In-process, either would wedge or kill the service; sandboxed,
    //    each fails exactly one ticket with a typed error.
    println!("\nhostile mode     verdict");
    for mode in [HostileMode::Spin, HostileMode::Abort] {
        let ticket =
            service.submit(Request::from_spec(WorkSpec::hostile(mode), Priority::Interactive))?;
        let err = ticket.wait().expect_err("hostile work must fail");
        println!("{:<16} {err}", format!("{mode:?}"));
    }

    // 3. The service survived and says so.
    let after = service.submit(Request::interactive_spec(OpSpec::add_relu(1 << 14)))?.wait()?;
    println!("\nservice is still serving: {:.0} cycles for the probe", after.cycles());
    service.drain(Duration::from_secs(10));
    let sandbox = service.health().sandbox;
    println!(
        "sandbox counters: {} jobs ok, {} hung, {} crashed, {} spawned, {} recycled",
        sandbox.jobs_ok, sandbox.hung, sandbox.crashed, sandbox.spawned, sandbox.recycled
    );
    assert_eq!(sandbox.hung, 1, "the spin dies at the wall clock");
    assert_eq!(sandbox.crashed, 1, "the abort dies by signal");
    Ok(())
}
