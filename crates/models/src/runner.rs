//! Model-level analysis and optimization (paper, Section 6).

use crate::{ModelWorkload, OpInvocation, Phase};
use ascend_arch::ChipSpec;
use ascend_ops::{LayerNorm, Operator};
use ascend_optimize::{OptimizationReport, Optimizer};
use ascend_pipeline::{
    AnalysisPipeline, AnalysisService, Fidelity, PipelineError, PipelineResult, Request, RunPolicy,
    Ticket,
};
use ascend_profile::Profile;
use ascend_roofline::{Bottleneck, RooflineAnalysis};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Analysis result of one operator in a model stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpReport {
    /// Kernel name (includes applied flags).
    pub name: String,
    /// Invocations per iteration.
    pub count: u64,
    /// Cycles per invocation.
    pub cycles_per_call: f64,
    /// `count × cycles_per_call`.
    pub total_cycles: f64,
    /// The diagnosed bottleneck.
    pub bottleneck: Bottleneck,
    /// Peak component utilization.
    pub peak_utilization: f64,
    /// Whether the cycles were simulated or analytically estimated
    /// (degraded under a supervision policy).
    #[serde(default)]
    pub fidelity: Fidelity,
}

/// The distribution of bottleneck causes over a model's computation time
/// (Figures 13a and 14).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BottleneckDistribution {
    shares: BTreeMap<String, f64>,
}

impl BottleneckDistribution {
    /// The share (0..1) of the label (`"CB"`, `"MB"`, `"IP"`, `"IM"`,
    /// `"IC"`).
    #[must_use]
    pub fn share(&self, label: &str) -> f64 {
        self.shares.get(label).copied().unwrap_or(0.0)
    }

    /// All label→share pairs, descending by share.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, f64)> {
        let mut entries: Vec<(String, f64)> =
            self.shares.iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1));
        entries
    }

    /// One-line rendering, e.g. `"IP 61.5% | MB 34.0% | CB 4.5%"`.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, (label, share)) in self.entries().iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            let _ = write!(out, "{label} {:.1}%", share * 100.0);
        }
        out
    }
}

/// Full analysis of one model iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Training or inference.
    pub phase: Phase,
    /// Per-operator results.
    pub op_reports: Vec<OpReport>,
    /// Total computation cycles per iteration.
    pub total_cycles: f64,
    /// Non-computation fraction of the iteration (from the workload).
    pub overhead_fraction: f64,
}

impl ModelReport {
    /// Time-weighted bottleneck-cause distribution.
    #[must_use]
    pub fn distribution(&self) -> BottleneckDistribution {
        let mut shares: BTreeMap<String, f64> = BTreeMap::new();
        if self.total_cycles <= 0.0 {
            return BottleneckDistribution { shares };
        }
        for op in &self.op_reports {
            *shares.entry(op.bottleneck.label().to_owned()).or_default() +=
                op.total_cycles / self.total_cycles;
        }
        BottleneckDistribution { shares }
    }

    /// Invocation-count-weighted distribution.
    #[must_use]
    pub fn distribution_by_count(&self) -> BottleneckDistribution {
        let mut shares: BTreeMap<String, f64> = BTreeMap::new();
        let total: u64 = self.op_reports.iter().map(|o| o.count).sum();
        if total == 0 {
            return BottleneckDistribution { shares };
        }
        for op in &self.op_reports {
            *shares.entry(op.bottleneck.label().to_owned()).or_default() +=
                op.count as f64 / total as f64;
        }
        BottleneckDistribution { shares }
    }

    /// Computation time in seconds on `chip`.
    #[must_use]
    pub fn computation_seconds(&self, chip: &ChipSpec) -> f64 {
        chip.cycles_to_secs(self.total_cycles)
    }

    /// Full iteration cycles including the fixed non-computation share.
    #[must_use]
    pub fn iteration_cycles(&self) -> f64 {
        self.total_cycles / (1.0 - self.overhead_fraction)
    }

    /// The iteration's fixed non-computation cycles.
    #[must_use]
    pub fn overhead_cycles(&self) -> f64 {
        self.iteration_cycles() - self.total_cycles
    }

    /// Number of operators whose result was analytically estimated
    /// rather than simulated (degraded coverage).
    #[must_use]
    pub fn degraded_ops(&self) -> usize {
        self.op_reports.iter().filter(|op| op.fidelity.is_degraded()).count()
    }

    /// Multi-line per-operator table. Degraded (analytically estimated)
    /// operators are marked `~` and counted in the header so figure
    /// captions can report coverage honestly.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let degraded = self.degraded_ops();
        let coverage = if degraded > 0 {
            format!(" [{degraded}/{} ops analytically estimated]", self.op_reports.len())
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{} ({}): {:.0} computation cycles/iteration — {}{}",
            self.model,
            self.phase,
            self.total_cycles,
            self.distribution().summary(),
            coverage
        );
        for op in &self.op_reports {
            let _ = writeln!(
                out,
                "  {:<36} x{:<5} {:>12.0} cy{} {:>5.1}%  {}",
                op.name,
                op.count,
                op.total_cycles,
                if op.fidelity.is_degraded() { "~" } else { " " },
                op.peak_utilization * 100.0,
                op.bottleneck
            );
        }
        out
    }
}

/// Before/after record of a whole-model optimization pass.
#[derive(Debug)]
pub struct ModelOptimization {
    /// Analysis before optimization.
    pub before: ModelReport,
    /// Analysis after graph fusion + per-operator optimization.
    pub after: ModelReport,
    /// Per-operator optimization walkthroughs.
    pub op_optimizations: Vec<OptimizationReport>,
}

impl ModelOptimization {
    /// Computation-time speedup (Figure 15, "computation").
    #[must_use]
    pub fn computation_speedup(&self) -> f64 {
        if self.after.total_cycles > 0.0 {
            self.before.total_cycles / self.after.total_cycles
        } else {
            1.0
        }
    }

    /// Overall iteration speedup including the fixed overhead share
    /// (Figure 15, "overall"). Always ≤ the computation speedup.
    #[must_use]
    pub fn overall_speedup(&self) -> f64 {
        let overhead = self.before.overhead_cycles();
        let before = self.before.total_cycles + overhead;
        let after = self.after.total_cycles + overhead;
        if after > 0.0 {
            before / after
        } else {
            1.0
        }
    }
}

/// Runs model workloads through the simulator, the roofline analysis, and
/// the optimization loop.
///
/// Every measurement routes through one [`AnalysisPipeline`]: operator
/// invocations that repeat across the stream (or across `analyze`,
/// `aggregate_analysis`, and `optimize` calls) are answered from its
/// result cache, and independent invocations of a stream are simulated on
/// parallel workers with input-ordered results.
#[derive(Debug, Clone)]
pub struct ModelRunner {
    pipeline: AnalysisPipeline,
    policy: RunPolicy,
}

impl ModelRunner {
    /// A runner for `chip` with the default thresholds.
    #[must_use]
    pub fn new(chip: ChipSpec) -> Self {
        Self::from_pipeline(AnalysisPipeline::new(chip))
    }

    /// A runner measuring through an existing `pipeline` (sharing its
    /// cache and instrumentation).
    #[must_use]
    pub fn from_pipeline(pipeline: AnalysisPipeline) -> Self {
        ModelRunner { pipeline, policy: RunPolicy::default() }
    }

    /// Supervises every measurement under `policy` (deadline, retries,
    /// breaker, analytical fallback). The default is a passthrough.
    #[must_use]
    pub fn with_policy(mut self, policy: RunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The supervision policy in force.
    #[must_use]
    pub fn policy(&self) -> &RunPolicy {
        &self.policy
    }

    /// The chip in use.
    #[must_use]
    pub fn chip(&self) -> &ChipSpec {
        self.pipeline.chip()
    }

    /// The measurement pipeline (for cache statistics and stage timings).
    #[must_use]
    pub fn pipeline(&self) -> &AnalysisPipeline {
        &self.pipeline
    }

    /// Analyzes one iteration of `model`: every operator is simulated once
    /// and weighted by its invocation count. Distinct operators run on
    /// parallel pipeline workers; repeated ones are cache hits.
    ///
    /// # Errors
    ///
    /// Propagates the first (by model order) per-operator pipeline error.
    pub fn analyze(&self, model: &ModelWorkload) -> Result<ModelReport, PipelineError> {
        let results = self.run_invocations(model)?;
        Ok(assemble_report(model, &results))
    }

    /// Every invocation of `model` through the runner's pipeline under
    /// its policy, one worker per CPU, in model order.
    fn run_invocations(
        &self,
        model: &ModelWorkload,
    ) -> Result<Vec<Arc<PipelineResult>>, PipelineError> {
        let ops: Vec<&dyn Operator> = model.ops().iter().map(OpInvocation::operator).collect();
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.pipeline.run_batch_supervised(&ops, workers, &self.policy).into_iter().collect()
    }

    /// [`analyze`](ModelRunner::analyze), but routed through a resident
    /// [`AnalysisService`] instead of this runner's own batch workers:
    /// every invocation is submitted as a sweep-class request and the
    /// report is assembled from the tickets. Backpressure is handled
    /// closed-loop — an [`Overloaded`](PipelineError::Overloaded)
    /// rejection sleeps out its `retry_after_hint` and resubmits, so a
    /// model analysis rides along live traffic without amplifying it.
    ///
    /// The service's pipeline is the measurement authority here; this
    /// runner's own pipeline and policy are not consulted.
    ///
    /// # Errors
    ///
    /// Propagates the first (by model order) ticket error, and
    /// [`PipelineError::ServiceStopped`] when the service drains before
    /// every invocation was admitted.
    pub fn analyze_via_service(
        &self,
        model: &ModelWorkload,
        service: &AnalysisService,
    ) -> Result<ModelReport, PipelineError> {
        let mut tickets: Vec<Ticket> = Vec::with_capacity(model.ops().len());
        for invocation in model.ops() {
            let op = invocation.operator();
            loop {
                // Operators are shape+flags value types; re-boxing via
                // with_flags_dyn is the trait-object clone idiom.
                let boxed = op.with_flags_dyn(op.flags());
                match service.submit(Request::sweep(boxed)) {
                    Ok(ticket) => {
                        tickets.push(ticket);
                        break;
                    }
                    Err(PipelineError::Overloaded { retry_after_hint, .. }) => {
                        std::thread::sleep(retry_after_hint);
                    }
                    Err(err) => return Err(err),
                }
            }
        }
        let results = tickets.iter().map(Ticket::wait).collect::<Result<Vec<_>, _>>()?;
        Ok(assemble_report(model, &results))
    }

    /// Builds the whole-model aggregate analysis: every operator's profile
    /// is accumulated (weighted by invocation count) into one profile, and
    /// the component-based roofline runs on the aggregate — answering
    /// "which component limits this model's iteration as a whole".
    ///
    /// # Errors
    ///
    /// Propagates the first (by model order) per-operator pipeline error.
    pub fn aggregate_analysis(
        &self,
        model: &ModelWorkload,
    ) -> Result<RooflineAnalysis, PipelineError> {
        let results = self.run_invocations(model)?;
        let mut aggregate = Profile::empty(model.name().to_owned());
        for (invocation, result) in model.ops().iter().zip(&results) {
            aggregate.accumulate_scaled(&result.profile, invocation.count());
        }
        Ok(self.pipeline.analyze_profile(&aggregate))
    }

    /// Optimizes `model` the way Section 6.2 does: first the graph-level
    /// rewrite (fusing element-wise chains into LayerNorm), then the
    /// per-operator roofline-guided loop. The optimizer shares this
    /// runner's pipeline, so its trial measurements land in (and draw
    /// from) the same cache.
    ///
    /// # Errors
    ///
    /// Propagates the first (by model order) per-operator pipeline error.
    pub fn optimize(&self, model: &ModelWorkload) -> Result<ModelOptimization, PipelineError> {
        let before = self.analyze(model)?;
        let fused = fuse_elementwise_chains(model);
        let optimizer = Optimizer::from_pipeline(self.pipeline.clone());
        let mut optimized_ops = Vec::with_capacity(fused.ops().len());
        let mut op_optimizations = Vec::new();
        for invocation in fused.ops() {
            let report = optimizer.run(invocation.operator())?;
            let best = invocation.operator().with_flags_dyn(report.final_flags());
            let mut new_invocation = OpInvocation::new(best, invocation.count());
            if let Some(elements) = invocation.fusable_elements() {
                new_invocation = new_invocation.fusable(elements);
            }
            optimized_ops.push(new_invocation);
            op_optimizations.push(report);
        }
        let after = self.analyze(&fused.with_ops(optimized_ops))?;
        Ok(ModelOptimization { before, after, op_optimizations })
    }
}

/// Assembles a [`ModelReport`] from one pipeline result per invocation,
/// weighting each by its invocation count — shared by the batch and
/// service analysis paths.
fn assemble_report(model: &ModelWorkload, results: &[Arc<PipelineResult>]) -> ModelReport {
    let mut op_reports = Vec::with_capacity(model.ops().len());
    let mut total = 0.0;
    for (invocation, result) in model.ops().iter().zip(results) {
        let cycles = result.cycles();
        let total_cycles = cycles * invocation.count() as f64;
        total += total_cycles;
        op_reports.push(OpReport {
            name: result.kernel_name.clone(),
            count: invocation.count(),
            cycles_per_call: cycles,
            total_cycles,
            bottleneck: result.analysis.bottleneck(),
            peak_utilization: result.analysis.peak_utilization(),
            fidelity: result.fidelity,
        });
    }
    ModelReport {
        model: model.name().to_owned(),
        phase: model.phase(),
        op_reports,
        total_cycles: total,
        overhead_fraction: model.overhead_fraction(),
    }
}

/// Replaces each run of ≥ 2 consecutive fusable element-wise invocations
/// (with matching counts) by a single LayerNorm over the chain's element
/// count — the PanGu-α fusion of Section 6.2.1.
#[must_use]
pub(crate) fn fuse_elementwise_chains(model: &ModelWorkload) -> ModelWorkload {
    let mut ops: Vec<OpInvocation> = Vec::with_capacity(model.ops().len());
    let mut chain: Vec<&OpInvocation> = Vec::new();
    let flush = |chain: &mut Vec<&OpInvocation>, ops: &mut Vec<OpInvocation>| {
        if chain.len() >= 2 {
            let elements = chain.iter().filter_map(|inv| inv.fusable_elements()).max().unwrap_or(0);
            let count = chain.iter().map(|inv| inv.count()).min().unwrap_or(0);
            ops.push(OpInvocation::new(Box::new(LayerNorm::new(elements)), count));
        } else {
            for inv in chain.iter() {
                ops.push((*inv).clone());
            }
        }
        chain.clear();
    };
    for invocation in model.ops() {
        let same_count = chain.first().is_none_or(|first| first.count() == invocation.count());
        if invocation.fusable_elements().is_some() && same_count {
            chain.push(invocation);
        } else {
            flush(&mut chain, &mut ops);
            if invocation.fusable_elements().is_some() {
                chain.push(invocation);
            } else {
                ops.push(invocation.clone());
            }
        }
    }
    flush(&mut chain, &mut ops);
    model.with_ops(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_ops::{AddRelu, Elementwise, EltwiseKind, Gelu};

    fn toy_model() -> ModelWorkload {
        const E: u64 = 1 << 16;
        ModelWorkload::new(
            "Toy",
            1.0,
            "synthetic",
            1,
            Phase::Training,
            0.2,
            vec![
                OpInvocation::new(Box::new(AddRelu::new(E)), 4),
                OpInvocation::new(Box::new(Elementwise::new(EltwiseKind::Mul, E)), 3).fusable(E),
                OpInvocation::new(Box::new(Elementwise::new(EltwiseKind::Add, E)), 3).fusable(E),
                OpInvocation::new(Box::new(Elementwise::new(EltwiseKind::RealDiv, E)), 3)
                    .fusable(E),
                OpInvocation::new(Box::new(Gelu::new(E)), 2),
            ],
        )
    }

    #[test]
    fn analyze_weights_by_count() {
        let runner = ModelRunner::new(ChipSpec::training());
        let report = runner.analyze(&toy_model()).unwrap();
        assert_eq!(report.op_reports.len(), 5);
        for op in &report.op_reports {
            assert!((op.total_cycles - op.cycles_per_call * op.count as f64).abs() < 1e-6);
        }
        let sum: f64 = report.op_reports.iter().map(|o| o.total_cycles).sum();
        assert!((sum - report.total_cycles).abs() < 1e-6);
    }

    #[test]
    fn service_analysis_matches_the_batch_path() {
        let runner = ModelRunner::new(ChipSpec::training());
        let batch = runner.analyze(&toy_model()).unwrap();
        let service = AnalysisService::start(
            AnalysisPipeline::new(ChipSpec::training()),
            ascend_pipeline::ServiceConfig::default(),
        );
        let via = runner.analyze_via_service(&toy_model(), &service).unwrap();
        let report = service.drain(std::time::Duration::from_secs(10));
        assert!(report.quiesced);
        assert_eq!(via.op_reports.len(), batch.op_reports.len());
        assert!(
            (via.total_cycles - batch.total_cycles).abs() < 1e-9,
            "the service path is the same simulator: {} vs {}",
            via.total_cycles,
            batch.total_cycles
        );
    }

    #[test]
    fn distribution_shares_sum_to_one() {
        let runner = ModelRunner::new(ChipSpec::training());
        let report = runner.analyze(&toy_model()).unwrap();
        let d = report.distribution();
        let total: f64 = d.entries().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "{}", d.summary());
        let by_count: f64 = report.distribution_by_count().entries().iter().map(|(_, s)| s).sum();
        assert!((by_count - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fusion_replaces_the_chain() {
        let fused = fuse_elementwise_chains(&toy_model());
        assert_eq!(fused.ops().len(), 3, "{:?}", fused.ops());
        assert!(fused.ops()[1].operator().name().starts_with("layernorm"));
        assert_eq!(fused.ops()[1].count(), 3);
    }

    #[test]
    fn fusion_leaves_single_fusables_alone() {
        const E: u64 = 1 << 14;
        let model = ModelWorkload::new(
            "Single",
            1.0,
            "synthetic",
            1,
            Phase::Inference,
            0.1,
            vec![
                OpInvocation::new(Box::new(Elementwise::new(EltwiseKind::Mul, E)), 2).fusable(E),
                OpInvocation::new(Box::new(Gelu::new(E)), 1),
            ],
        );
        let fused = fuse_elementwise_chains(&model);
        assert_eq!(fused.ops().len(), 2);
        assert!(fused.ops()[0].operator().name().starts_with("mul"));
    }

    #[test]
    fn optimize_improves_computation_and_overall_is_smaller() {
        let runner = ModelRunner::new(ChipSpec::training());
        let result = runner.optimize(&toy_model()).unwrap();
        let comp = result.computation_speedup();
        let overall = result.overall_speedup();
        assert!(comp > 1.1, "computation speedup {comp:.2}");
        assert!(overall > 1.0);
        assert!(
            overall < comp,
            "fixed overhead must dampen the overall speedup: {overall:.2} vs {comp:.2}"
        );
    }

    #[test]
    fn aggregate_analysis_covers_the_models_components() {
        let runner = ModelRunner::new(ChipSpec::training());
        let analysis = runner.aggregate_analysis(&toy_model()).unwrap();
        // The toy model exercises Vector and both GM engines.
        assert!(analysis.metrics_of(ascend_arch::Component::Vector).is_some());
        assert!(analysis.metrics_of(ascend_arch::Component::MteGm).is_some());
        assert!(analysis.metrics_of(ascend_arch::Component::MteUb).is_some());
        // Aggregate cycles equal the per-op weighted sum.
        let report = runner.analyze(&toy_model()).unwrap();
        assert!((analysis.total_cycles - report.total_cycles).abs() < 1e-6);
    }

    #[test]
    fn degraded_coverage_is_reported_honestly() {
        // A one-event budget trips on every operator; with fallback on,
        // the whole model analyzes anyway, tagged as estimated.
        let policy = RunPolicy::default()
            .with_budget(ascend_sim::SimBudget { max_events: 1, max_cycles: 1.0 })
            .with_fallback(true);
        let runner = ModelRunner::new(ChipSpec::training()).with_policy(policy);
        let report = runner.analyze(&toy_model()).unwrap();
        assert_eq!(report.degraded_ops(), report.op_reports.len());
        assert!(report.op_reports.iter().all(|op| op.fidelity.is_degraded()));
        assert!(report.total_cycles > 0.0, "estimates still carry time");
        assert!(report.summary().contains("analytically estimated"), "{}", report.summary());

        // The default passthrough policy keeps full fidelity.
        let simulated = ModelRunner::new(ChipSpec::training()).analyze(&toy_model()).unwrap();
        assert_eq!(simulated.degraded_ops(), 0);
        assert!(!simulated.summary().contains("analytically estimated"));
    }

    #[test]
    fn overhead_accounting_is_consistent() {
        let runner = ModelRunner::new(ChipSpec::training());
        let report = runner.analyze(&toy_model()).unwrap();
        let iteration = report.iteration_cycles();
        assert!(iteration > report.total_cycles);
        assert!(
            (report.overhead_cycles() / iteration - 0.2).abs() < 1e-9,
            "overhead share must equal the workload's fraction"
        );
    }
}
