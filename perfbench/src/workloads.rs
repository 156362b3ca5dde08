//! The workloads. Each prepares its inputs and reference outside
//! any timed region; a round then sets the system up, serves the round's
//! requests from a closed loop and checks every result.

use crate::check::Reference;
use crate::inputs::{self, Orders};
use crate::probe::ProbeSet;
use crate::trace::{SpanId, Tracer, ROOT};
use crate::{stats, Round, Sample, Workload, CLIENTS};
use ascend_arch::ChipSpec;
use ascend_ops::{OpSpec, Operator};
use ascend_pipeline::{
    AnalysisPipeline, ClusterConfig, ClusterService, PipelineError, Priority, Ticket, WorkSpec,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Shards of the cluster workload.
pub const SHARDS: usize = 2;

pub fn chip() -> ChipSpec {
    ChipSpec::training()
}

pub fn prepare(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "campaign_cold" => Box::new(Campaign::prepare(seed)?),
        "cluster_mixed" => Box::new(Cluster::prepare(seed)?),
        _ => return Err(format!("unknown workload {name}")),
    })
}

fn cache_keys(ops: &[&dyn Operator]) -> Vec<u64> {
    let pipeline = AnalysisPipeline::new(chip());
    ops.iter().map(|op| pipeline.cache_key(*op)).collect()
}

fn spec_ops(specs: &[OpSpec]) -> Vec<Box<dyn Operator>> {
    specs.iter().map(OpSpec::instantiate).collect()
}

fn as_refs(ops: &[Box<dyn Operator>]) -> Vec<&dyn Operator> {
    ops.iter().map(AsRef::as_ref).collect()
}

/// Distinct operators of `ops`, first occurrence first.
fn distinct<'a>(ops: &[&'a dyn Operator], keys: &[u64]) -> Vec<&'a dyn Operator> {
    let mut seen = HashSet::new();
    ops.iter().zip(keys).filter(|(_, key)| seen.insert(**key)).map(|(op, _)| *op).collect()
}

/// For each position, whether its key already appeared earlier.
fn repeats(keys: &[u64]) -> Vec<bool> {
    let mut seen = HashSet::new();
    keys.iter().map(|key| !seen.insert(*key)).collect()
}

/// Runs `serve(i)` for every index from `CLIENTS` threads, each taking
/// the next index only after its previous request completed. Outputs
/// come back in index order.
fn closed_loop<T: Send>(n: usize, serve: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, serve(i)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// One submit→result request: a span around the whole request with the
/// submit call and the wait as children.
pub fn timed_request(
    tracer: &Tracer,
    reference: &Reference,
    name: &'static str,
    request: u64,
    key: u64,
    repeat: bool,
    submit: impl FnOnce() -> Result<Ticket, PipelineError>,
) -> (Sample, bool) {
    tracer.span(name, ROOT, request, |span| {
        let start = Instant::now();
        let ticket = tracer.span("submit", span, request, |_| submit());
        let submit_ns = elapsed_ns(start);
        let outcome = match ticket {
            Ok(ticket) => tracer.span("ticket.wait", span, request, |_| ticket.wait()),
            Err(err) => Err(err),
        };
        let latency_ns = elapsed_ns(start);
        (Sample { key, repeat, latency_ns, submit_ns }, reference.check(key, &outcome))
    })
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Request ids unique within a run, shared by all spans of one request.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(0);

pub fn request_id() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// campaign_cold
// ---------------------------------------------------------------------

/// `AnalysisPipeline::run_batch_with_workers(_, 2)` over the zoo crossed
/// with flag subsets, on a fresh pipeline per pass. Nothing leaves the
/// process.
struct Campaign {
    ops: Vec<Box<dyn Operator>>,
    keys: Vec<u64>,
    distinct_events: u64,
    reference: Reference,
    orders: Orders,
}

impl Campaign {
    fn prepare(seed: u64) -> Result<Self, String> {
        let ops = inputs::campaign_ops();
        let reference = Reference::compute(&chip(), &as_refs(&ops))?;
        let keys = cache_keys(&as_refs(&ops));
        let distinct_events = reference.distinct_events(&keys);
        Ok(Campaign { ops, keys, distinct_events, reference, orders: Orders::new(seed) })
    }
}

impl Workload for Campaign {
    fn round(&self, warmup: bool, tracer: &Tracer) -> Result<Round, String> {
        let order = self.orders.next(warmup, self.ops.len());
        let ops: Vec<&dyn Operator> = order.iter().map(|&i| self.ops[i].as_ref()).collect();
        let request = request_id();
        let mut round = Round::default();
        tracer.span("campaign.pass", ROOT, request, |pass| {
            let start = Instant::now();
            let pipeline =
                tracer.span("pipeline.new", pass, request, |_| AnalysisPipeline::new(chip()));
            round.setup_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let results = tracer.span("pipeline.run_batch", pass, request, |_| {
                pipeline.run_batch_with_workers(&ops, CLIENTS)
            });
            round.serve_s = start.elapsed().as_secs_f64();
            round.latencies_ms.push(round.serve_s * 1e3);
            for (&i, outcome) in order.iter().zip(&results) {
                round.attempted += 1;
                round.failed += u64::from(!self.reference.check(self.keys[i], outcome));
            }
            // Two workers racing on one key both miss and both simulate
            // (the known cache race), so the engine's own event count does
            // not repeat exactly; the pass needs each distinct key's events
            // once.
            round.events = self.distinct_events;
            round.counts.push(("sim.events_per_round", round.events));
        });
        Ok(round)
    }

    fn probe_set(&self) -> ProbeSet<'_> {
        let order = self.orders.next(false, self.ops.len());
        let batch: Vec<&dyn Operator> = order.iter().map(|&i| self.ops[i].as_ref()).collect();
        let items = distinct(&as_refs(&self.ops), &self.keys);
        // Nothing of this workload is persisted or sent to a shard; the
        // store probe persists every other result and the cluster probe
        // runs on the request catalogue of the other workloads.
        let persisted = (0..items.len()).map(|i| i % 2 == 0).collect();
        let cluster = inputs::spec_catalogue();
        ProbeSet { items, persisted, batch, cluster_specs: Some(cluster) }
    }

    fn reference(&self) -> &Reference {
        &self.reference
    }
}

// ---------------------------------------------------------------------
// cluster_mixed
// ---------------------------------------------------------------------

/// A fresh 2-shard `ClusterService` per round, serving the catalogue
/// twice over (half the requests hit a shard's cache).
struct Cluster {
    specs: Vec<OpSpec>,
    ops: Vec<Box<dyn Operator>>,
    keys: Vec<u64>,
    reference: Reference,
    orders: Orders,
}

impl Cluster {
    fn prepare(seed: u64) -> Result<Self, String> {
        let specs = inputs::cluster_specs();
        let ops = spec_ops(&specs);
        let reference = Reference::compute(&chip(), &as_refs(&ops))?;
        let keys = cache_keys(&as_refs(&ops));
        Ok(Cluster { specs, ops, keys, reference, orders: Orders::new(seed) })
    }
}

/// Starts a cluster and waits until every shard is live.
pub fn start_cluster(tracer: &Tracer, parent: SpanId) -> Result<ClusterService, String> {
    tracer.span("cluster.start", parent, request_id(), |_| {
        let cluster = ClusterService::start(chip(), ClusterConfig::default())
            .map_err(|err| format!("cluster start: {err}"))?;
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while cluster.health().live_shards() < SHARDS {
            if Instant::now() > deadline {
                return Err("cluster shards did not come up".to_string());
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        Ok(cluster)
    })
}

/// Drains `cluster` and checks its accounting: every accepted ticket
/// settled, nothing shed, rejected, flushed or failed over, no shard
/// respawned. Returns `(cache hits, failovers, respawns)`.
pub fn drain_cluster(cluster: &ClusterService, violations: &mut Vec<String>) -> [u64; 3] {
    let report = cluster.drain(DRAIN_TIMEOUT);
    let c = cluster.health().counters;
    // Every shard's first spawn counts as a respawn.
    let respawns = c.respawns.saturating_sub(SHARDS as u64);
    if !report.quiesced
        || c.terminal_states() != c.accepted
        || c.rejected_overload + c.shed_deadline + c.drain_flushed + c.failovers + respawns > 0
    {
        violations.push(format!("cluster accounting after drain: {c:?} ({report:?})"));
    }
    [c.cache_hits, c.failovers, respawns]
}

impl Workload for Cluster {
    fn round(&self, warmup: bool, tracer: &Tracer) -> Result<Round, String> {
        let order = self.orders.next(warmup, self.specs.len());
        let keys: Vec<u64> = order.iter().map(|&i| self.keys[i]).collect();
        let repeat = repeats(&keys);
        let mut round = Round::default();
        let start = Instant::now();
        let cluster = start_cluster(tracer, ROOT)?;
        round.setup_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let outcomes = closed_loop(order.len(), |i| {
            let name = if repeat[i] { "cluster.request.hit" } else { "cluster.request.miss" };
            timed_request(tracer, &self.reference, name, request_id(), keys[i], repeat[i], || {
                cluster.submit(WorkSpec::op(self.specs[order[i]]), Priority::Interactive)
            })
        });
        round.serve_s = start.elapsed().as_secs_f64();
        for (sample, ok) in outcomes {
            round.attempted += 1;
            round.failed += u64::from(!ok);
            round.latencies_ms.push(sample.latency_ns as f64 / 1e6);
            round.samples.push(sample);
        }
        round.child_hwm_kb = cluster
            .shard_pids()
            .into_iter()
            .flatten()
            .filter_map(|pid| stats::vm_hwm_kb(Some(pid)))
            .sum();
        let [hits, failovers, respawns] = drain_cluster(&cluster, &mut round.violations);
        // Shard-side engines are out of reach; every distinct key is
        // simulated once per round on a fresh cluster.
        round.events = self.reference.distinct_events(&keys);
        round.counts = vec![
            ("cluster.cache_hits", hits),
            ("cluster.failovers", failovers),
            ("cluster.respawns", respawns),
            ("sim.events_per_round", round.events),
        ];
        Ok(round)
    }

    fn probe_set(&self) -> ProbeSet<'_> {
        let order = self.orders.next(false, self.ops.len());
        let batch: Vec<&dyn Operator> = order.iter().map(|&i| self.ops[i].as_ref()).collect();
        let items = distinct(&as_refs(&self.ops), &self.keys);
        let persisted = (0..items.len()).map(|i| i % 2 == 0).collect();
        ProbeSet { items, persisted, batch, cluster_specs: None }
    }

    fn reference(&self) -> &Reference {
        &self.reference
    }
}
