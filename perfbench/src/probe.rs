//! Layer probes of a traced run: the benchmark calls each layer's public
//! functions on the workload's own distinct inputs, with a span around
//! every call, and derives the per-layer metrics from those spans.

use crate::check::Reference;
use crate::stats::{mean, median};
use crate::trace::{self_times, self_times_of, Span, Tracer, ROOT};
use crate::workloads::{
    chip, drain_cluster, request_id, start_cluster, timed_request, DRAIN_TIMEOUT,
};
use crate::{metric, Metric, Sample, Totals, Workload};
use ascend_isa::validate;
use ascend_ops::{OpSpec, Operator};
use ascend_pipeline::{
    encode_frame, read_frame, AnalysisPipeline, AnalysisService, CacheStats, Fidelity, FrameKind,
    HashRing, PipelineResult, Priority, Request, ResultStore, ServiceConfig, StageTimings,
    StoreStats, WorkSpec, DEFAULT_VIRTUAL_NODES,
};
use ascend_profile::Profile;
use ascend_roofline::{analyze, Thresholds};
use ascend_sim::{MetricsSink, NullSink, Simulator, TraceCollector};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Results longer than this are encoded but not decoded by the codec
/// probe: the vendored decoder is super-linear, and the largest zoo
/// results (about 1 MB) would take seconds each.
const DECODE_CAP_BYTES: usize = 64 * 1024;
/// A single route is tens of nanoseconds; each span times this many.
const ROUTE_REPS: u32 = 1000;

/// What the probes run on.
pub struct ProbeSet<'a> {
    /// The workload's distinct operators.
    pub items: Vec<&'a dyn Operator>,
    /// Per item: whether the store probe persists it before reopening
    /// (read back with `get`) or adds it afterwards (`put`).
    pub persisted: Vec<bool>,
    /// The workload's full request sequence, for the pipeline probe.
    pub batch: Vec<&'a dyn Operator>,
    /// Specs for the cluster probe; `None` when the traced rounds already
    /// drove a cluster.
    pub cluster_specs: Option<Vec<OpSpec>>,
}

/// An item's cache key and the JSON encoding of its result.
struct Payload {
    index: usize,
    key: u64,
    json: String,
}

/// Raw probe results; spans carry the timings.
#[derive(Debug, Default)]
pub struct Probed {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    events: u64,
    result_bytes: Vec<f64>,
    decoded: u64,
    timings: StageTimings,
    cache: CacheStats,
    pipeline_events: u64,
    distinct_keys: u64,
    store: StoreStats,
    segment_bytes: u64,
    cluster_samples: Vec<Sample>,
    cluster_counts: [u64; 3],
}

impl Probed {
    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs every probe, recording spans in `tracer`.
pub fn run(workload: &dyn Workload, tracer: &Tracer, dir: &Path) -> Result<Probed, String> {
    let set = workload.probe_set();
    let reference = workload.reference();
    let mut probed = Probed::default();
    let payloads = probe_items(&set.items, reference, tracer, &mut probed);
    probe_pipeline(&set.batch, reference, tracer, &mut probed);
    probe_store(&payloads, &set.persisted, dir, tracer, &mut probed)?;
    probe_service(&set.items, &payloads, reference, dir, tracer, &mut probed)?;
    if let Some(specs) = &set.cluster_specs {
        probe_cluster(specs, tracer, &mut probed)?;
    }
    Ok(probed)
}

/// Calls each layer of the uncached stage sequence directly, then the
/// codec, the frame codec and the router on the result.
fn probe_items(
    items: &[&dyn Operator],
    reference: &Reference,
    tracer: &Tracer,
    probed: &mut Probed,
) -> Vec<Payload> {
    let chip = chip();
    let thresholds = Thresholds::default();
    let simulator = Simulator::new(chip.clone());
    let keyer = AnalysisPipeline::new(chip.clone());
    let ring = HashRing::new(crate::workloads::SHARDS, DEFAULT_VIRTUAL_NODES);
    let mut payloads = Vec::new();
    for (index, op) in items.iter().enumerate() {
        let key = keyer.cache_key(*op);
        let outcome = tracer.span("probe.item", ROOT, key, |item| -> Result<String, String> {
            let err = |e: &dyn std::fmt::Display| format!("{}: {e}", op.name());
            let kernel =
                tracer.span("ops.build", item, key, |_| op.build(&chip)).map_err(|e| err(&e))?;
            tracer
                .span("isa.validate", item, key, |_| validate(&kernel, &chip))
                .map_err(|e| err(&e))?;
            let bare = tracer.span("sim.loop", item, key, |_| {
                simulator.simulate_unchecked_into(&kernel, &mut NullSink)
            });
            probed.events += bare.map_err(|e| err(&e))?.events;
            let mut sinks = (TraceCollector::new(), MetricsSink::new());
            let summary = tracer
                .span("sim.sinks_run", item, key, |_| {
                    simulator.simulate_unchecked_into(&kernel, &mut sinks)
                })
                .map_err(|e| err(&e))?;
            let (collector, metrics) = sinks;
            let profile = tracer.span("profile.from_metrics", item, key, |_| {
                Profile::from_metrics(&metrics, summary.total_cycles)
            });
            let analysis = tracer
                .span("roofline.analyze", item, key, |_| analyze(&profile, &chip, &thresholds));
            let result = PipelineResult {
                kernel_name: kernel.name().to_owned(),
                kernel_len: kernel.len(),
                fingerprint: key,
                profile,
                trace: collector.into_trace(kernel.name(), summary.total_cycles),
                analysis,
                fidelity: Fidelity::Simulated,
            };
            let json = tracer
                .span("codec.encode", item, key, |_| serde_json::to_string(&result))
                .map_err(|e| err(&e))?;
            let mut same = reference.check(key, &Ok(Arc::new(result.clone())));
            if json.len() <= DECODE_CAP_BYTES {
                let back = tracer.span("codec.decode", item, key, |_| {
                    serde_json::from_str::<PipelineResult>(&json)
                });
                same &= back.is_ok_and(|back| back == result);
                probed.decoded += 1;
            }
            let framed = tracer.span("transport.frame", item, key, |_| {
                read_frame(&mut encode_frame(FrameKind::Outcome, json.as_bytes()).as_slice())
            });
            same &= matches!(framed, Ok(Some(frame)) if frame.payload == json.as_bytes());
            tracer.span("cluster.route", item, key, |_| {
                for _ in 0..ROUTE_REPS {
                    black_box(ring.route(black_box(key), |_| true));
                }
            });
            if same {
                Ok(json)
            } else {
                Err(format!("{}: probe result differs from the reference", op.name()))
            }
        });
        match outcome {
            Ok(json) => {
                probed.tally(true);
                probed.result_bytes.push(json.len() as f64);
                payloads.push(Payload { index, key, json });
            }
            Err(err) => {
                probed.tally(false);
                probed.violations.push(err);
            }
        }
    }
    payloads
}

/// The workload's request sequence through one fresh pipeline, for the
/// stage shares and the cache ledger.
fn probe_pipeline(
    batch: &[&dyn Operator],
    reference: &Reference,
    tracer: &Tracer,
    probed: &mut Probed,
) {
    let pipeline = AnalysisPipeline::new(chip());
    let results = tracer.span("pipeline.run_batch", ROOT, 0, |_| {
        pipeline.run_batch_with_workers(batch, crate::CLIENTS)
    });
    for (op, outcome) in batch.iter().zip(&results) {
        probed.tally(reference.check(pipeline.cache_key(*op), outcome));
    }
    let mut keys: Vec<u64> = batch.iter().map(|op| pipeline.cache_key(*op)).collect();
    keys.sort_unstable();
    keys.dedup();
    probed.distinct_keys = keys.len() as u64;
    probed.timings = pipeline.timings();
    probed.cache = pipeline.cache_stats();
    probed.pipeline_events = pipeline.engine_throughput().events;
}

/// Writes the persisted items into a fresh segment, then times the
/// recovery scan of reopening it, a `get` of every persisted key and a
/// `put` of every other result.
fn probe_store(
    payloads: &[Payload],
    persisted: &[bool],
    dir: &Path,
    tracer: &Tracer,
    probed: &mut Probed,
) -> Result<(), String> {
    let path = dir.join("probe.astr");
    let context = AnalysisPipeline::new(chip()).context();
    let open = || ResultStore::open(&path, context).map_err(|e| format!("{}: {e}", path.display()));
    let on_disk = |i: usize| persisted.get(i).copied().unwrap_or(false);
    {
        let seed = open()?;
        for p in payloads.iter().filter(|p| on_disk(p.index)) {
            seed.put(p.key, p.json.as_bytes());
        }
        seed.flush();
    }
    let store = tracer.span("store.recover", ROOT, 0, |_| open())?;
    probed.segment_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    for p in payloads {
        if on_disk(p.index) {
            let got = tracer.span("store.get", ROOT, p.key, |_| store.get(p.key));
            probed.tally(got.as_deref() == Some(p.json.as_bytes()));
        } else {
            tracer.span("store.put", ROOT, p.key, |_| store.put(p.key, p.json.as_bytes()));
        }
    }
    probed.store = store.stats();
    drop(store);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// Times the three ways a resident service answers: every item computed
/// and persisted, then answered from the memory cache, then — after a
/// restart over the segment just written — read back from disk. Items
/// whose result is too long to decode promptly are left out.
fn probe_service(
    items: &[&dyn Operator],
    payloads: &[Payload],
    reference: &Reference,
    dir: &Path,
    tracer: &Tracer,
    probed: &mut Probed,
) -> Result<(), String> {
    let path = dir.join("service.astr");
    let start = || -> Result<AnalysisService, String> {
        let pipeline = AnalysisPipeline::new(chip())
            .with_store(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(AnalysisService::start(pipeline, ServiceConfig::default()))
    };
    let small: Vec<&Payload> =
        payloads.iter().filter(|p| p.json.len() <= DECODE_CAP_BYTES).collect();
    let ask = |service: &AnalysisService, name: &'static str, probed: &mut Probed| {
        for p in &small {
            let op = items[p.index];
            let (_, ok) = timed_request(tracer, reference, name, request_id(), p.key, true, || {
                service.submit(Request::new(op.with_flags_dyn(op.flags()), Priority::Interactive))
            });
            probed.tally(ok);
        }
    };
    let service = start()?;
    ask(&service, "service.compute_roundtrip", probed);
    ask(&service, "service.hit_roundtrip", probed);
    drain_service(&service, &mut probed.violations);
    drop(service);
    let service = start()?;
    ask(&service, "service.disk_roundtrip", probed);
    drain_service(&service, &mut probed.violations);
    drop(service);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// Sends every spec twice, one after the other, through a fresh 2-shard
/// cluster: a miss, then a hit on the owning shard.
fn probe_cluster(specs: &[OpSpec], tracer: &Tracer, probed: &mut Probed) -> Result<(), String> {
    let ops: Vec<Box<dyn Operator>> = specs.iter().map(OpSpec::instantiate).collect();
    let refs: Vec<&dyn Operator> = ops.iter().map(AsRef::as_ref).collect();
    let reference = Reference::compute(&chip(), &refs)?;
    let keyer = AnalysisPipeline::new(chip());
    let cluster = start_cluster(tracer, ROOT)?;
    for (spec, op) in specs.iter().zip(&refs) {
        let key = keyer.cache_key(*op);
        for (repeat, name) in [(false, "cluster.request.miss"), (true, "cluster.request.hit")] {
            let (sample, ok) =
                timed_request(tracer, &reference, name, request_id(), key, repeat, || {
                    cluster.submit(WorkSpec::op(*spec), Priority::Interactive)
                });
            probed.tally(ok);
            probed.cluster_samples.push(sample);
        }
    }
    probed.cluster_counts = drain_cluster(&cluster, &mut probed.violations);
    Ok(())
}

/// Every per-layer metric, with its unit, in output order.
pub const LAYER_METRICS: [(&str, &str); 36] = [
    ("ops.build_us", "us"),
    ("isa.validate_us", "us"),
    ("sim.loop_ns_per_event", "ns"),
    ("sim.sinks_us", "us"),
    ("profile.from_metrics_us", "us"),
    ("roofline.analyze_us", "us"),
    ("pipeline.stage_share.build", "ratio"),
    ("pipeline.stage_share.simulate", "ratio"),
    ("pipeline.stage_share.profile", "ratio"),
    ("pipeline.stage_share.analyze", "ratio"),
    ("pipeline.cache.misses", "count"),
    ("pipeline.cache.distinct_keys", "count"),
    ("pipeline.cache.hit_rate", "ratio"),
    ("codec.result_bytes", "bytes"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.decoded", "count"),
    ("transport.frame_us", "us"),
    ("cluster.route_ns", "ns"),
    ("cluster.submit_us", "us"),
    ("cluster.hit_roundtrip_ms", "ms"),
    ("cluster.miss_roundtrip_ms", "ms"),
    ("cluster.unattributed_ms", "ms"),
    ("cluster.cache_hits", "count"),
    ("cluster.failovers", "count"),
    ("cluster.respawns", "count"),
    ("store.recover_ms", "ms"),
    ("store.segment_bytes", "bytes"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.hits", "count"),
    ("store.appends", "count"),
    ("service.compute_roundtrip_us", "us"),
    ("service.disk_roundtrip_us", "us"),
    ("service.hit_roundtrip_us", "us"),
    ("sim.events_per_round", "count"),
];

/// Per-key layer costs (ns) from the item probes: the uncached stage
/// sequence, and the wire path of a served result.
#[derive(Debug, Default, Clone, Copy)]
struct KeyCost {
    compute: f64,
    wire: f64,
}

fn key_costs(spans: &[Span], selfs: &[u64]) -> HashMap<u64, KeyCost> {
    let mut costs: HashMap<u64, KeyCost> = HashMap::new();
    for (span, &ns) in spans.iter().zip(selfs) {
        if span.parent == ROOT || spans[span.parent].name != "probe.item" {
            continue;
        }
        let cost = costs.entry(span.request).or_default();
        match span.name {
            "ops.build"
            | "isa.validate"
            | "sim.sinks_run"
            | "profile.from_metrics"
            | "roofline.analyze" => cost.compute += ns as f64,
            "codec.encode" | "codec.decode" | "transport.frame" => cost.wire += ns as f64,
            _ => {}
        }
    }
    costs
}

/// The per-layer metrics of a traced run. Counts the traced rounds
/// measured themselves (cluster counters, engine events) take precedence
/// over the probes' own.
pub fn layer_metrics(probed: &Probed, spans: &[Span], traced: &Totals) -> Vec<Metric> {
    let selfs = self_times(spans);
    let times = |name: &str| self_times_of(spans, &selfs, name);
    let mean_us = |name: &str| mean(&times(name)) / 1e3;
    let count = |name: &str, own: u64| traced.counts.get(name).copied().unwrap_or(own) as f64;

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("ops.build_us", mean_us("ops.build"));
    values.insert("isa.validate_us", mean_us("isa.validate"));
    let loop_ns: f64 = times("sim.loop").iter().sum();
    values.insert("sim.loop_ns_per_event", loop_ns / probed.events.max(1) as f64);
    values.insert("sim.sinks_us", mean_us("sim.sinks_run") - mean_us("sim.loop"));
    values.insert("profile.from_metrics_us", mean_us("profile.from_metrics"));
    values.insert("roofline.analyze_us", mean_us("roofline.analyze"));

    let t = probed.timings;
    let total = t.total_secs().max(1e-12);
    values.insert("pipeline.stage_share.build", t.build_secs / total);
    values.insert("pipeline.stage_share.simulate", t.simulate_secs / total);
    values.insert("pipeline.stage_share.profile", t.profile_secs / total);
    values.insert("pipeline.stage_share.analyze", t.analyze_secs / total);
    values.insert("pipeline.cache.misses", probed.cache.misses as f64);
    values.insert("pipeline.cache.distinct_keys", probed.distinct_keys as f64);
    values.insert("pipeline.cache.hit_rate", probed.cache.hit_rate());

    values.insert("codec.result_bytes", mean(&probed.result_bytes));
    values.insert("codec.encode_us", mean_us("codec.encode"));
    values.insert("codec.decode_us", mean_us("codec.decode"));
    values.insert("codec.decoded", probed.decoded as f64);
    values.insert("transport.frame_us", mean_us("transport.frame"));
    values.insert("cluster.route_ns", mean(&times("cluster.route")) / f64::from(ROUTE_REPS));

    // Cluster requests: the traced rounds' own on cluster_mixed, the
    // cluster probe's elsewhere.
    let samples: &[Sample] =
        if probed.cluster_samples.is_empty() { &traced.samples } else { &probed.cluster_samples };
    let costs = key_costs(spans, &selfs);
    let submit: Vec<f64> = samples.iter().map(|s| s.submit_ns as f64).collect();
    let roundtrip_ms = |repeat: bool| -> Vec<f64> {
        samples.iter().filter(|s| s.repeat == repeat).map(|s| s.latency_ns as f64 / 1e6).collect()
    };
    let unattributed: Vec<f64> = samples
        .iter()
        .map(|s| {
            let cost = costs.get(&s.key).copied().unwrap_or_default();
            let compute = if s.repeat { 0.0 } else { cost.compute };
            (s.latency_ns as f64 - s.submit_ns as f64 - cost.wire - compute) / 1e6
        })
        .collect();
    values.insert("cluster.submit_us", mean(&submit) / 1e3);
    values.insert("cluster.hit_roundtrip_ms", median(&roundtrip_ms(true)));
    values.insert("cluster.miss_roundtrip_ms", median(&roundtrip_ms(false)));
    values.insert("cluster.unattributed_ms", median(&unattributed));
    let [hits, failovers, respawns] = probed.cluster_counts;
    values.insert("cluster.cache_hits", count("cluster.cache_hits", hits));
    values.insert("cluster.failovers", count("cluster.failovers", failovers));
    values.insert("cluster.respawns", count("cluster.respawns", respawns));

    values.insert("store.recover_ms", mean(&times("store.recover")) / 1e6);
    values.insert("store.segment_bytes", probed.segment_bytes as f64);
    values.insert("store.put_us", mean_us("store.put"));
    values.insert("store.get_us", mean_us("store.get"));
    values.insert("store.hits", probed.store.hits as f64);
    values.insert("store.appends", probed.store.appends as f64);
    for (metric, span) in [
        ("service.compute_roundtrip_us", "service.compute_roundtrip"),
        ("service.disk_roundtrip_us", "service.disk_roundtrip"),
        ("service.hit_roundtrip_us", "service.hit_roundtrip"),
    ] {
        values.insert(metric, median(&times_total(spans, span)) / 1e3);
    }

    values.insert("sim.events_per_round", count("sim.events_per_round", probed.pipeline_events));

    LAYER_METRICS
        .iter()
        .map(|(name, unit)| metric(name, values.get(name).copied().unwrap_or(f64::NAN), unit))
        .collect()
}

/// Full durations (ns) of the spans named `name`.
fn times_total(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).collect()
}

/// Drains `service` and checks that every accepted ticket settled with
/// nothing shed, rejected, flushed or failed.
fn drain_service(service: &AnalysisService, violations: &mut Vec<String>) {
    let report = service.drain(DRAIN_TIMEOUT);
    let c = service.health().counters;
    if !report.quiesced
        || c.terminal_states() != c.accepted
        || c.rejected_overload + c.shed_deadline + c.drain_flushed + c.failed > 0
    {
        violations.push(format!("service accounting after drain: {c:?} ({report:?})"));
    }
}
