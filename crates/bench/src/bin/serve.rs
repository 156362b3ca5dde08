//! Resident-service demo: replay a seeded open-loop load against an
//! [`AnalysisService`] and report its health under pressure.
//!
//! ```text
//! cargo run -p ascend-bench --bin serve
//! cargo run -p ascend-bench --bin serve -- --rate 400 --duration-ms 500
//! cargo run -p ascend-bench --bin serve -- --workers 1 --queue 4 --chaos 0.2
//! cargo run -p ascend-bench --bin serve -- --sandboxed --chaos 0.1
//! ```
//!
//! Arrivals come from a deterministic [`LoadProfile`] (Poisson with a
//! periodic burst), so the same seed replays the same traffic byte for
//! byte. A `--chaos` fraction of requests is wrapped in a
//! [`FaultedOperator`] whose kernel mutations exercise the failure path
//! without ever poisoning the clean cache entries. The binary prints the
//! final [`HealthSnapshot`], the pipeline instrumentation footer, and
//! writes `serve_health.json` under the experiments directory.
//!
//! With `--sandboxed`, the service runs [`Isolation::Sandboxed`]: the
//! traffic becomes operator *specs* served by supervised child
//! processes (this binary re-exec'd as a worker), and the chaos
//! fraction becomes the fault library's hostile modes — worker kills
//! instead of kernel corruption.
//!
//! Set `ASCEND_CACHE_DIR` to attach a durable result store (see
//! `ascend_bench::pipeline_for`): a restarted serve answers repeat
//! traffic from disk, and the `store` block of `serve_health.json`
//! reports recovered/hit/corrupt-dropped counters.
//!
//! Set `ASCEND_AUDIT_RATE` to enable the online divergence-audit tier
//! in deferred mode: that fraction of simulated results is shadow
//! re-executed on the reference oracle whenever a worker finds the
//! queue empty, divergent fingerprints are quarantined, and the `audit`
//! block of `serve_health.json` (plus an `audit:` footer line) reports
//! audits/divergences/quarantined/demotion.
//!
//! With `--cluster N` (or `ASCEND_CLUSTER_SHARDS=N`), the traffic is
//! served by a [`ClusterService`] of N shard processes behind the
//! consistent-hash router instead of a single resident service. The
//! chaos fraction becomes seeded `kill -9`s of shards mid-load (a
//! [`KillPlan`]), `ASCEND_CACHE_DIR` gives every shard its own durable
//! store segment, and `serve_health.json` (and the footer) carry a
//! `cluster` block: per-shard counters, respawns, failovers, per-class
//! latency percentiles, and the ring generation.

use ascend_arch::ChipSpec;
use ascend_bench::{audit_policy_from_env, header, pipeline_for, run_policy, write_json};
use ascend_faults::{Arrival, FaultPlan, FaultedOperator, HostileMode, KillPlan, LoadProfile};
use ascend_ops::{AddRelu, Elementwise, EltwiseKind, LayerNorm, OpSpec, Operator, Softmax};
use ascend_pipeline::{
    AnalysisService, ClusterConfig, ClusterService, DrainReport, FrontendCounters, Isolation,
    LatencySummary, PipelineError, Priority, Request, SandboxConfig, ServiceConfig, Ticket,
    WorkSpec,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    seed: u64,
    rate_hz: f64,
    duration: Duration,
    workers: usize,
    queue: usize,
    chaos: f64,
    sandboxed: bool,
    cluster: Option<usize>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            seed: 0x00A5_CE4D,
            rate_hz: 300.0,
            duration: Duration::from_millis(400),
            workers: 2,
            queue: 16,
            chaos: 0.1,
            sandboxed: false,
            cluster: ascend_bench::env_knob::<usize>(
                "ASCEND_CLUSTER_SHARDS",
                "a shard count (integer >= 1)",
            )
            .filter(|&n| n >= 1),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            if argv[i] == "--sandboxed" {
                args.sandboxed = true;
                i += 1;
                continue;
            }
            let value = argv.get(i + 1).map(String::as_str);
            let parsed = value.and_then(|v| v.parse::<f64>().ok());
            match (argv[i].as_str(), parsed) {
                ("--seed", Some(v)) => args.seed = v as u64,
                ("--rate", Some(v)) if v > 0.0 => args.rate_hz = v,
                ("--duration-ms", Some(v)) => args.duration = Duration::from_millis(v as u64),
                ("--workers", Some(v)) if v >= 1.0 => args.workers = v as usize,
                ("--queue", Some(v)) if v >= 1.0 => args.queue = v as usize,
                ("--chaos", Some(v)) => args.chaos = v.clamp(0.0, 1.0),
                ("--cluster", Some(v)) if v >= 1.0 => args.cluster = Some(v as usize),
                (flag, _) => {
                    eprintln!("usage: serve [--seed N] [--rate HZ] [--duration-ms MS]");
                    eprintln!("             [--workers N] [--queue N] [--chaos FRACTION]");
                    eprintln!("             [--sandboxed] [--cluster N]");
                    eprintln!("unrecognized or malformed: {flag}");
                    std::process::exit(2);
                }
            }
            i += 2;
        }
        args
    }
}

/// Derives a distinct small operator from one arrival's random draw, so
/// the traffic is a mix of shapes rather than one cache entry.
fn operator_for(draw: u64, chaos: f64) -> Box<dyn Operator> {
    let elements = 1 << (10 + draw % 5);
    let inner: Box<dyn Operator> = match (draw >> 8) % 4 {
        0 => Box::new(AddRelu::new(elements)),
        1 => Box::new(Softmax::new(elements)),
        2 => Box::new(LayerNorm::new(elements)),
        _ => Box::new(Elementwise::new(EltwiseKind::Mul, elements)),
    };
    // The low byte of the draw decides chaos membership deterministically.
    if chaos > 0.0 && ((draw & 0xFF) as f64) < chaos * 256.0 {
        Box::new(FaultedOperator::new(inner, FaultPlan::new(draw).truncate_to(3)))
    } else {
        inner
    }
}

/// The sandboxed tier's counterpart of [`operator_for`]: the same draw
/// becomes a serializable spec, and chaos membership becomes a hostile
/// mode drawn from the fast-failing ones (the spin would otherwise
/// serialize the run behind its wall clock).
fn spec_for(draw: u64, chaos: f64) -> WorkSpec {
    if chaos > 0.0 && ((draw & 0xFF) as f64) < chaos * 256.0 {
        let mode = match (draw >> 8) % 4 {
            0 => HostileMode::Abort,
            1 => HostileMode::Mute,
            2 => HostileMode::GarbageStdout,
            _ => HostileMode::TruncateFrame,
        };
        return WorkSpec::hostile(mode);
    }
    clean_spec_for(draw)
}

/// The always-clean spec for one draw — cluster mode's traffic, where
/// chaos arrives as shard SIGKILLs rather than hostile payloads.
fn clean_spec_for(draw: u64) -> WorkSpec {
    let elements = 1 << (10 + draw % 5);
    WorkSpec::from(match (draw >> 8) % 4 {
        0 => OpSpec::add_relu(elements),
        1 => OpSpec::softmax(elements),
        2 => OpSpec::layer_norm(elements),
        _ => OpSpec::gelu(elements),
    })
}

/// `serve_health.json` in cluster mode: the satellite `cluster` block.
#[derive(serde::Serialize)]
struct ClusterServeReport {
    cluster: ascend_pipeline::ClusterHealth,
    rejected: u64,
}

/// The start of the `load:` line both modes print.
fn load_line(args: &Args, arrivals: &[Arrival]) -> String {
    format!(
        "load: {} arrivals over {:?} (mean {} Hz, 4x burst every {:?})",
        arrivals.len(),
        args.duration,
        args.rate_hz,
        args.duration / 4,
    )
}

/// The open-loop driver both modes share: waits until each arrival is
/// due and submits it in its class. `before` runs ahead of each arrival
/// (cluster mode lands its scheduled kills there). Returns the held
/// tickets and the requests rejected at admission; any other submit
/// error ends the run.
fn replay(
    arrivals: &[Arrival],
    mut before: impl FnMut(Duration),
    mut submit: impl FnMut(u64, Priority) -> Result<Ticket, PipelineError>,
) -> (Vec<Ticket>, u64) {
    let start = Instant::now();
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut rejected = 0u64;
    for arrival in arrivals {
        before(arrival.at);
        if let Some(wait) = arrival.at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let priority = if arrival.interactive { Priority::Interactive } else { Priority::Sweep };
        match submit(arrival.draw, priority) {
            Ok(ticket) => tickets.push(ticket),
            Err(PipelineError::Overloaded { .. }) => rejected += 1,
            Err(err) => {
                eprintln!("submit failed: {err}");
                std::process::exit(1);
            }
        }
    }
    (tickets, rejected)
}

/// The report both modes share: admission, outcomes and latency, then
/// the mode's own lines (`backend`), then drain; and the terminal-state
/// checks every run must pass.
fn report(
    counters: &FrontendCounters,
    latency: [&LatencySummary; 2],
    (tickets, rejected): &(Vec<Ticket>, u64),
    drain: &DrainReport,
    backend: impl FnOnce(),
) {
    println!(
        "admission: {} accepted, {} rejected (open-loop, no client retry)",
        counters.accepted, rejected
    );
    println!(
        "outcomes: {} ok, {} failed, {} shed, {} flushed at drain",
        counters.completed_ok, counters.failed, counters.shed_deadline, counters.drain_flushed
    );
    println!("latency ms p50/p95/p99: interactive {} | sweep {}", latency[0], latency[1]);
    backend();
    println!(
        "drain: flushed {} queued, quiesced: {}, elapsed {:.1} ms",
        drain.flushed_queued,
        drain.quiesced,
        drain.elapsed.as_secs_f64() * 1e3
    );
    assert!(drain.quiesced, "drain must quiesce within its deadline");
    assert_eq!(
        counters.terminal_states(),
        counters.accepted,
        "every accepted ticket must reach exactly one terminal state"
    );
    let settled = tickets.iter().filter(|t| t.try_result().is_some()).count();
    assert_eq!(settled, tickets.len(), "every held ticket must be settled after drain");
}

/// The `--cluster N` path: the same seeded open-loop load served by a
/// sharded [`ClusterService`] instead of one resident service. The
/// chaos fraction sets the intensity of a seeded [`KillPlan`] whose
/// `kill -9`s land between arrivals, so the run doubles as a failover
/// demo: the printed cluster block reports kills, failovers, respawns,
/// and the ring generation, and the same block lands in
/// `serve_health.json`.
fn run_cluster(args: &Args, arrivals: &[Arrival], shards: usize) {
    let chip = ChipSpec::training();
    let cluster = ClusterService::start(
        chip,
        ClusterConfig {
            shards,
            queue_capacity: args.queue,
            default_deadline: Some(Duration::from_secs(2)),
            max_failovers: 4,
            respawn_backoff: Duration::from_millis(10),
            respawn_backoff_max: Duration::from_millis(250),
            seed: args.seed,
            store_dir: std::env::var_os("ASCEND_CACHE_DIR").map(PathBuf::from),
            sandbox: SandboxConfig {
                heartbeat_timeout: Duration::from_millis(300),
                wall_clock_limit: Duration::from_secs(2),
                ..SandboxConfig::default()
            },
            ..ClusterConfig::default()
        },
    )
    .unwrap_or_else(|err| {
        eprintln!("cluster start failed: {err}");
        std::process::exit(1);
    });

    // Chaos intensity becomes kill frequency: at the default 10% the
    // window sees roughly one SIGKILL; at 100% roughly eight.
    let kill_events = if args.chaos > 0.0 {
        KillPlan::new(
            args.seed ^ 0x4B49_4C4C,
            shards,
            args.duration.div_f64((args.chaos * 8.0).max(0.5)),
            args.duration,
        )
        .schedule()
    } else {
        Vec::new()
    };
    println!(
        "{}; cluster: {} shards, {} scheduled kills (chaos {:.0}%)",
        load_line(args, arrivals),
        shards,
        kill_events.len(),
        args.chaos * 100.0
    );

    let mut kills_landed = 0u64;
    let mut next_kill = 0usize;
    let replayed = replay(
        arrivals,
        |at| {
            while next_kill < kill_events.len() && kill_events[next_kill].at <= at {
                let target = kill_events[next_kill].shard;
                if cluster.kill_shard(target) {
                    kills_landed += 1;
                    println!(
                        "[{:6.1} ms] kill -9 shard {target}",
                        kill_events[next_kill].at.as_secs_f64() * 1e3
                    );
                }
                next_kill += 1;
            }
        },
        |draw, priority| cluster.submit(clean_spec_for(draw), priority),
    );

    let drain = cluster.drain(Duration::from_secs(30));
    let health = cluster.health();
    report(&health.counters, [&health.interactive, &health.sweep], &replayed, &drain, || {
        println!(
            "cluster: {} failovers, {} kills ({} landed live), {} respawns, {} cache hits, \
             {} dispatcher panics, ring generation {}",
            health.counters.failovers,
            health.counters.kills,
            kills_landed,
            health.counters.respawns,
            health.counters.cache_hits,
            health.counters.worker_panics,
            health.ring_generation
        );
        for shard in &health.shards {
            println!(
                "  shard {}: {} ok, {} failed, {} cache hits, {} kills, {} respawns, {} rewarmed",
                shard.index,
                shard.counters.completed_ok,
                shard.counters.failed,
                shard.counters.cache_hits,
                shard.counters.kills,
                shard.counters.respawns,
                shard.counters.store_recovered
            );
        }
    });

    write_json("serve_health", &ClusterServeReport { cluster: health, rejected: replayed.1 });
}

/// The default path: one resident [`AnalysisService`], in-process or,
/// with `--sandboxed`, over supervised worker processes.
fn run_service(args: &Args, arrivals: &[Arrival]) {
    let chip = ChipSpec::training();
    let config = ServiceConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        policy: run_policy(),
        default_deadline: Some(Duration::from_secs(2)),
        seed: args.seed,
        isolation: if args.sandboxed { Isolation::Sandboxed } else { Isolation::InProcess },
        sandbox: SandboxConfig {
            heartbeat_timeout: Duration::from_millis(300),
            wall_clock_limit: Duration::from_secs(2),
            ..SandboxConfig::default()
        },
        audit: audit_policy_from_env(),
        ..ServiceConfig::default()
    };
    let service = AnalysisService::start(pipeline_for(&chip), config);
    println!("{}, chaos {:.0}%", load_line(args, arrivals), args.chaos * 100.0);

    let replayed = replay(
        arrivals,
        |_| {},
        |draw, priority| {
            service.submit(if args.sandboxed {
                Request::from_spec(spec_for(draw, args.chaos), priority)
            } else {
                Request::new(operator_for(draw, args.chaos), priority)
            })
        },
    );

    let drain = service.drain(Duration::from_secs(30));
    let health = service.health();
    report(&health.counters, [&health.interactive, &health.sweep], &replayed, &drain, || {
        println!(
            "cache: {:.1}% hit rate ({} hits / {} misses); fidelity: {} simulated, {} analytical, \
             {} audited",
            health.cache.hit_rate() * 100.0,
            health.cache.hits,
            health.cache.misses,
            health.fidelity.simulated,
            health.fidelity.analytical,
            health.fidelity.audited
        );
        if health.audit.any_activity() {
            println!("audit: {}", health.audit);
        }
        println!(
            "engine: {} events in {:.3}s ({:.0} events/s, {:.0} ns/event)",
            health.engine.events,
            health.engine.sim_secs,
            health.engine.events_per_sec(),
            health.engine.ns_per_event()
        );
        if args.sandboxed {
            let s = &health.sandbox;
            println!(
                "sandbox: {} jobs ok on {} spawned ({} recycled); kills: {} hung, {} crashed, \
                 {} over-memory, {} protocol, {} preempted",
                s.jobs_ok,
                s.spawned,
                s.recycled,
                s.hung,
                s.crashed,
                s.over_memory,
                s.protocol,
                s.preempted
            );
        }
    });

    println!("\n{}", service.pipeline().instrumentation_footer());
    write_json("serve_health", &health);
}

fn main() {
    // When re-executed as a sandbox worker this serves jobs and never
    // returns; in the ordinary invocation it is a no-op.
    ascend_pipeline::run_worker_if_requested();
    let args = Args::parse();
    header("serve", "resident analysis service under seeded open-loop load");
    let arrivals = LoadProfile::new(args.seed, args.rate_hz, args.duration)
        .with_burst(args.duration / 4, args.duration / 8, 4.0)
        .schedule();
    match args.cluster {
        Some(shards) => run_cluster(&args, &arrivals, shards),
        None => run_service(&args, &arrivals),
    }
}
