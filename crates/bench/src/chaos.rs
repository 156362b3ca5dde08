//! `bench chaos`: the one-seed cross-tier chaos orchestrator.
//!
//! One SplitMix64 seed expands (via [`ChaosSchedule`]) into a
//! coordinated timeline of shard `kill -9`s, at-rest store corruption,
//! byte-level wire faults on the shard pipes, a seeded open-loop load
//! profile, and (optionally) a silently-wrong engine. The schedule is
//! driven against a real [`ClusterService`] — worker processes, durable
//! store segments, heartbeats and all — and the run is judged against
//! the centralized [`InvariantReport`] contract:
//!
//! * **exactly-once** — every admitted ticket reaches one terminal state;
//! * **tickets-settled** — no ticket is left pending after drain;
//! * **no-corrupt-served** — every served result recomputes
//!   bit-identically on an independent clean pipeline;
//! * **quarantine-permanent** — a quarantined key stays barred and no
//!   store segment resurrects it;
//! * **store-verify** — every shard segment passes a read-only
//!   [`ResultStore::verify`] scan (at-rest damage is excused only on
//!   shards the schedule corrupted);
//! * **bounded-availability-gap** — the cluster never stays fully down
//!   longer than the configured bound;
//! * **drain-hygiene** — drain quiesces and leaves no live worker pids.
//!
//! On any violation the harness prints the seed, a copy-pasteable
//! replay command, then delta-debugs ([`ddmin`]) the fault timeline to
//! a minimal reproducing subsequence and prints the minimized schedule
//! plus its `--keep` replay command. `--canary` arms a known defect (a
//! [`BuggyEngine`] the cluster tier cannot audit away) and succeeds
//! only if the contract catches it and minimization isolates it.

use ascend_arch::ChipSpec;
use ascend_faults::{corrupt_file, ChaosConfig, ChaosFault, ChaosSchedule, DiskFault, SplitMix64};
use ascend_ops::OpSpec;
use ascend_pipeline::{
    result_digest, AnalysisPipeline, ClusterConfig, ClusterService, InvariantReport, PipelineError,
    Priority, ResultStore, RunPolicy, SandboxConfig, Ticket, WorkSpec,
};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::{experiments_dir, header};

/// Parsed `bench chaos` options.
struct ChaosArgs {
    /// Number of seeds swept when no explicit `--seed` is given.
    seeds: u64,
    /// Explicit seed (single run) instead of a sweep.
    seed: Option<u64>,
    duration: Duration,
    shards: usize,
    /// Arm the canary defect and require the contract to catch it.
    canary: bool,
    /// Replay only these fault indices of the expanded schedule.
    keep: Option<Vec<usize>>,
    /// Bound for the bounded-availability-gap invariant.
    gap_bound: Duration,
}

impl ChaosArgs {
    fn parse(argv: &[String]) -> Result<ChaosArgs, String> {
        let mut args = ChaosArgs {
            seeds: 3,
            seed: None,
            duration: Duration::from_millis(300),
            shards: 2,
            canary: false,
            keep: None,
            gap_bound: Duration::from_millis(1500),
        };
        let mut i = 0;
        while i < argv.len() {
            let value = argv.get(i + 1).map(String::as_str);
            match (argv[i].as_str(), value) {
                ("--canary", _) => {
                    args.canary = true;
                    i += 1;
                    continue;
                }
                ("--seeds", Some(v)) => {
                    args.seeds = v.parse().map_err(|_| format!("malformed --seeds {v:?}"))?;
                }
                ("--seed", Some(v)) => {
                    let raw = v.trim_start_matches("0x");
                    args.seed = Some(
                        u64::from_str_radix(raw, 16)
                            .map_err(|_| format!("malformed --seed {v:?} (expected hex)"))?,
                    );
                }
                ("--duration-ms", Some(v)) => {
                    let ms: u64 =
                        v.parse().map_err(|_| format!("malformed --duration-ms {v:?}"))?;
                    args.duration = Duration::from_millis(ms.max(1));
                }
                ("--shards", Some(v)) => {
                    args.shards = v.parse().map_err(|_| format!("malformed --shards {v:?}"))?;
                    if args.shards == 0 {
                        return Err("--shards must be >= 1".into());
                    }
                }
                ("--gap-bound-ms", Some(v)) => {
                    let ms: u64 =
                        v.parse().map_err(|_| format!("malformed --gap-bound-ms {v:?}"))?;
                    args.gap_bound = Duration::from_millis(ms);
                }
                ("--keep", Some(v)) => {
                    let mut keep = Vec::new();
                    for part in v.split(',').filter(|part| !part.trim().is_empty()) {
                        keep.push(
                            part.trim()
                                .parse()
                                .map_err(|_| format!("malformed --keep index {part:?}"))?,
                        );
                    }
                    args.keep = Some(keep);
                }
                (flag, _) => {
                    return Err(format!(
                        "unrecognized or malformed: {flag}\n\
                         usage: bench chaos [--seeds N] [--seed HEX] [--duration-ms MS]\n\
                         \x20                  [--shards N] [--gap-bound-ms MS] [--canary] \
                         [--keep i,j,...]"
                    ));
                }
            }
            i += 2;
        }
        if args.keep.is_some() && args.seed.is_none() {
            return Err("--keep needs an explicit --seed to replay against".into());
        }
        Ok(args)
    }

    fn config(&self) -> ChaosConfig {
        ChaosConfig::new(self.shards, self.duration)
    }

    /// The expanded (plus canary, when armed) schedule for `seed` —
    /// exactly what a replay of the same flags reconstructs, so fault
    /// indices printed by minimization stay valid across processes.
    fn schedule_for(&self, seed: u64) -> ChaosSchedule {
        let schedule = ChaosSchedule::expand(seed, &self.config());
        if self.canary {
            schedule.with_fault(ChaosFault::Buggy {
                seed: seed ^ 0x0BAD_CA4A_0B06_0001,
                magnitude: 1e-3,
            })
        } else {
            schedule
        }
    }

    /// The copy-pasteable command reproducing this run.
    fn replay_command(&self, seed: u64, keep: Option<&[usize]>) -> String {
        let mut cmd = format!(
            "cargo run --release -p ascend-bench --bin bench -- chaos --seed {seed:#x} \
             --duration-ms {} --shards {}",
            self.duration.as_millis(),
            self.shards
        );
        if self.canary {
            cmd.push_str(" --canary");
        }
        if let Some(keep) = keep {
            let list: Vec<String> = keep.iter().map(usize::to_string).collect();
            cmd.push_str(&format!(" --keep {}", list.join(",")));
        }
        cmd
    }
}

/// Entry point for `bench chaos` (dispatched from the `bench` binary).
///
/// # Errors
///
/// Malformed flags; an invariant violation on any swept seed (after the
/// replay command and minimized schedule are printed); a `--canary` run
/// whose defect was *not* caught or not minimized tightly enough.
pub fn run_chaos(argv: &[String]) -> Result<(), Box<dyn Error>> {
    let args = ChaosArgs::parse(argv)?;
    header("chaos", "one-seed cross-tier fault schedule vs the invariant contract");

    let seeds: Vec<u64> = match args.seed {
        Some(seed) => vec![seed],
        None => {
            let mut rng = SplitMix64::new(0xC4A0_55EE_D000_0001);
            (0..args.seeds.max(1)).map(|_| rng.next_u64()).collect()
        }
    };

    let mut run_counter = 0u64;
    for seed in seeds {
        let schedule = match &args.keep {
            Some(keep) => args.schedule_for(seed).subset(keep),
            None => args.schedule_for(seed),
        };
        println!(
            "seed {seed:#018x}: {} fault event(s), {} arrival(s) over {:?}",
            schedule.faults.len(),
            schedule.load.schedule().len(),
            args.duration
        );
        for (index, fault) in schedule.faults.iter().enumerate() {
            println!("  [{index:>2}] {fault}");
        }
        let report = run_schedule(&schedule, &args, &run_label(seed, &mut run_counter))?;
        print!("{report}");

        if report.is_clean() {
            if args.canary {
                return Err(format!(
                    "canary defect was NOT caught — the invariant contract is blind; \
                     replay: {}",
                    args.replay_command(seed, args.keep.as_deref())
                )
                .into());
            }
            println!("  seed {seed:#018x}: all invariants held\n");
            continue;
        }

        // A violation: print the reproduction recipe first, so even a
        // crash during minimization leaves an actionable log.
        println!("\nINVARIANT VIOLATION at seed {seed:#018x}");
        println!("replay: {}", args.replay_command(seed, args.keep.as_deref()));
        if args.keep.is_some() {
            // An explicit subset replay is already minimal by request.
            return Err("invariant violation reproduced (see report above)".into());
        }

        let violated: HashSet<String> =
            report.violations().map(|check| check.name.clone()).collect();
        println!("minimizing {} fault event(s) with ddmin...", schedule.faults.len());
        let minimal = ascend_faults::ddmin(schedule.faults.len(), |keep| {
            run_counter += 1;
            let probe = schedule.subset(keep);
            match run_schedule(&probe, &args, &format!("{seed:016x}-probe-{run_counter}")) {
                Ok(probe_report) => {
                    let reproduced =
                        probe_report.violations().any(|check| violated.contains(&check.name));
                    println!(
                        "  probe {{{}}} -> {}",
                        keep.iter().map(usize::to_string).collect::<Vec<_>>().join(","),
                        if reproduced { "reproduces" } else { "clean" }
                    );
                    reproduced
                }
                Err(err) => {
                    eprintln!("  probe failed to run ({err}); treating as non-reproducing");
                    false
                }
            }
        });
        println!("minimized schedule ({} of {} event(s)):", minimal.len(), schedule.faults.len());
        for index in &minimal {
            println!("  [{index:>2}] {}", schedule.faults[*index]);
        }
        println!("minimized replay: {}", args.replay_command(seed, Some(&minimal)));

        if args.canary {
            if minimal.len() <= 8 {
                println!(
                    "canary: defect caught and minimized to {} event(s) — contract is live\n",
                    minimal.len()
                );
                continue;
            }
            return Err(format!(
                "canary caught but minimization stopped at {} events (want <= 8)",
                minimal.len()
            )
            .into());
        }
        return Err(format!(
            "invariant violation at seed {seed:#018x} (minimized to {} event(s), see above)",
            minimal.len()
        )
        .into());
    }
    println!("chaos sweep complete: every seed upheld the full invariant contract");
    Ok(())
}

fn run_label(seed: u64, counter: &mut u64) -> String {
    *counter += 1;
    format!("{seed:016x}-run-{counter}")
}

/// Drives one schedule against a live cluster and evaluates the full
/// invariant contract. The store directory is private to the run and
/// removed afterwards (the printed report is the artifact).
fn run_schedule(
    schedule: &ChaosSchedule,
    args: &ChaosArgs,
    label: &str,
) -> Result<InvariantReport, Box<dyn Error>> {
    let store_dir = experiments_dir().join(format!("chaos-{label}"));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir)?;

    let chip = ChipSpec::training();
    let cluster = ClusterService::start(
        chip,
        ClusterConfig {
            shards: args.shards,
            queue_capacity: 256,
            default_deadline: Some(Duration::from_secs(2)),
            max_failovers: 4,
            respawn_backoff: Duration::from_millis(10),
            respawn_backoff_max: Duration::from_millis(200),
            seed: schedule.seed,
            store_dir: Some(store_dir.clone()),
            sandbox: SandboxConfig {
                heartbeat_timeout: Duration::from_millis(300),
                wall_clock_limit: Duration::from_secs(2),
                wire_faults: schedule.wire_plan(),
                ..SandboxConfig::default()
            },
            buggy: schedule.buggy(),
            ..ClusterConfig::default()
        },
    )?;
    let context = cluster.context();

    // Kill and kill-then-corrupt events, merged into one timeline the
    // submit loop fires between arrivals (wire faults fire inside the
    // transports; the buggy engine is armed for the whole run).
    let mut events: Vec<(Duration, usize, Option<DiskFault>)> = Vec::new();
    for kill in schedule.kills() {
        events.push((kill.at, kill.shard, None));
    }
    for (at, shard, fault) in schedule.disk_faults() {
        events.push((at, shard, Some(fault)));
    }
    events.sort_by_key(|(at, ..)| *at);

    let arrivals = schedule.load.schedule();
    let quarantine_after = arrivals.len() / 2;
    let mut quarantined_key: Option<u64> = None;
    let mut tickets: Vec<(u64, Ticket)> = Vec::new();
    let mut specs: HashMap<u64, WorkSpec> = HashMap::new();

    let stop_sampler = AtomicBool::new(false);
    let longest_gap = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            // The availability probe: the longest window with zero live
            // shards, measured only after the cluster first came up (the
            // initial spawn is bring-up, not an outage).
            let mut longest = Duration::ZERO;
            let mut seen_live = false;
            let mut down_since: Option<Instant> = None;
            while !stop_sampler.load(Ordering::Relaxed) {
                let live = cluster.health().live_shards();
                if live > 0 {
                    seen_live = true;
                    if let Some(since) = down_since.take() {
                        longest = longest.max(since.elapsed());
                    }
                } else if seen_live && down_since.is_none() {
                    down_since = Some(Instant::now());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if let Some(since) = down_since {
                longest = longest.max(since.elapsed());
            }
            longest
        });

        let start = Instant::now();
        let mut next_event = 0usize;
        for (n, arrival) in arrivals.iter().enumerate() {
            while next_event < events.len() && events[next_event].0 <= arrival.at {
                fire_event(&cluster, &events[next_event]);
                next_event += 1;
            }
            if let Some(wait) = arrival.at.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            if n == quarantine_after {
                if let Some((key, _)) = tickets.first() {
                    cluster.quarantine(*key);
                    quarantined_key = Some(*key);
                }
            }
            let spec = chaos_spec_for(arrival.draw);
            let key = cluster.cache_key(&spec);
            let priority =
                if arrival.interactive { Priority::Interactive } else { Priority::Sweep };
            match cluster.submit(spec, priority) {
                Ok(ticket) => {
                    specs.entry(key).or_insert(spec);
                    tickets.push((key, ticket));
                }
                Err(PipelineError::Overloaded { .. }) => {}
                Err(err) => eprintln!("  submit failed: {err}"),
            }
        }
        for event in &events[next_event.min(events.len())..] {
            fire_event(&cluster, event);
        }
        stop_sampler.store(true, Ordering::Relaxed);
        sampler.join().expect("availability sampler never panics")
    });

    let drain = cluster.drain(Duration::from_secs(30));
    let health = cluster.health();

    let mut report = InvariantReport::new();
    report.exactly_once(&health.counters);
    let settled = tickets.iter().filter(|(_, ticket)| ticket.try_result().is_some()).count();
    report.tickets_settled(settled, tickets.len() - settled);

    // Bit-identity: recompute every distinct served key on a fresh,
    // independent, fault-free pipeline and compare full result digests.
    let oracle = AnalysisPipeline::new(ChipSpec::training());
    let mut expected: HashMap<u64, Option<u64>> = HashMap::new();
    let (mut compared, mut mismatches) = (0u64, 0u64);
    for (key, ticket) in &tickets {
        let Some(Ok(result)) = ticket.try_result() else { continue };
        compared += 1;
        let clean = *expected.entry(*key).or_insert_with(|| {
            let spec = &specs[key];
            oracle
                .run_supervised(spec.instantiate().as_ref(), &RunPolicy::default(), None)
                .ok()
                .map(|clean| result_digest(&clean))
        });
        if clean != Some(result_digest(&result)) {
            mismatches += 1;
        }
    }
    report.bit_identity(mismatches, compared);

    // Store verification, shard by shard; damage is excused only on the
    // shards this schedule corrupted at rest.
    let damaged: HashSet<usize> =
        schedule.disk_faults().iter().map(|(_, shard, _)| *shard).collect();
    let mut resurrected = 0u64;
    for index in 0..args.shards {
        let Some(path) = cluster.shard_store_path(index) else { continue };
        if !path.exists() {
            continue;
        }
        match ResultStore::verify(&path) {
            Ok(verify) => {
                resurrected += verify.resurrected;
                report.store_verify(
                    &format!("shard-{index}"),
                    &verify,
                    context,
                    damaged.contains(&index),
                );
            }
            Err(err) => report.check(
                &format!("store-verify-shard-{index}"),
                damaged.contains(&index),
                format!("verify refused: {err}"),
            ),
        }
    }
    let still_quarantined = quarantined_key.is_none_or(|key| cluster.is_quarantined(key));
    report.quarantine_integrity(still_quarantined, resurrected);
    report.availability(longest_gap, args.gap_bound);
    let live_pids = health
        .shards
        .iter()
        .filter_map(|shard| shard.pid)
        .filter(|pid| Path::new(&format!("/proc/{pid}")).exists())
        .count();
    report.drain_hygiene(drain.quiesced, live_pids);

    drop(cluster);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(report)
}

/// Fires one timeline event: a bare `kill -9`, or a kill followed by
/// at-rest corruption of the victim's store segment (errors ignored —
/// the segment may not exist yet, which is just a milder schedule).
fn fire_event(cluster: &ClusterService, event: &(Duration, usize, Option<DiskFault>)) {
    let (at, shard, disk) = event;
    let landed = cluster.kill_shard(*shard);
    match disk {
        None => {
            if landed {
                println!("  [{:6.1} ms] kill -9 shard {shard}", at.as_secs_f64() * 1e3);
            }
        }
        Some(fault) => {
            let corrupted: Option<PathBuf> = cluster
                .shard_store_path(*shard)
                .filter(|path| path.exists())
                .filter(|path| corrupt_file(path, *fault).is_ok());
            println!(
                "  [{:6.1} ms] kill -9 shard {shard} + disk fault {fault:?}{}",
                at.as_secs_f64() * 1e3,
                if corrupted.is_some() { "" } else { " (segment absent; kill only)" }
            );
        }
    }
}

/// The traffic mix: small clean specs spanning four operators and five
/// sizes, the same shape model as the serve binary's cluster mode.
fn chaos_spec_for(draw: u64) -> WorkSpec {
    let elements = 1 << (10 + draw % 5);
    WorkSpec::from(match (draw >> 8) % 4 {
        0 => OpSpec::add_relu(elements),
        1 => OpSpec::softmax(elements),
        2 => OpSpec::layer_norm(elements),
        _ => OpSpec::gelu(elements),
    })
}
