//! The output check: an in-process reference computed outside the timed
//! phase, against which every served result is compared.

use ascend_arch::ChipSpec;
use ascend_ops::Operator;
use ascend_pipeline::{AnalysisPipeline, PipelineError, PipelineResult};
use ascend_roofline::Bottleneck;
use std::collections::HashMap;
use std::sync::Arc;

/// What a correct result for one cache key must carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub cycle_bits: u64,
    pub bottleneck: Bottleneck,
    /// Engine events one simulation of this key processes.
    pub events: u64,
    /// Length of the result's JSON encoding.
    pub json_bytes: usize,
}

impl Expected {
    pub fn of(result: &PipelineResult, events: u64, json_bytes: usize) -> Self {
        Expected {
            cycle_bits: result.cycles().to_bits(),
            bottleneck: result.analysis.bottleneck(),
            events,
            json_bytes,
        }
    }
}

/// Expected outcome per cache key.
#[derive(Debug)]
pub struct Reference {
    expected: HashMap<u64, Expected>,
}

impl Reference {
    /// Runs every operator serially through a fresh pipeline for `chip`
    /// and records its expected outcome, keyed by the pipeline cache key.
    pub fn compute(chip: &ChipSpec, ops: &[&dyn Operator]) -> Result<Reference, String> {
        let pipeline = AnalysisPipeline::new(chip.clone());
        let mut expected = HashMap::new();
        for op in ops {
            let key = pipeline.cache_key(*op);
            if expected.contains_key(&key) {
                continue;
            }
            let before = pipeline.engine_throughput().events;
            let result = pipeline.run(*op).map_err(|err| format!("{}: {err}", op.name()))?;
            let events = pipeline.engine_throughput().events - before;
            let json = serde_json::to_string(&*result).map_err(|err| err.to_string())?;
            expected.insert(key, Expected::of(&result, events, json.len()));
        }
        Ok(Reference { expected })
    }

    /// Whether `outcome` is the correct answer for `key`: same
    /// fingerprint, bit-identical cycle count, same bottleneck class.
    pub fn check(&self, key: u64, outcome: &Result<Arc<PipelineResult>, PipelineError>) -> bool {
        match (outcome, self.expected.get(&key)) {
            (Ok(result), Some(want)) => {
                result.fingerprint == key
                    && result.cycles().to_bits() == want.cycle_bits
                    && result.analysis.bottleneck() == want.bottleneck
            }
            _ => false,
        }
    }

    /// Sum of engine events over `keys`, each counted once.
    pub fn distinct_events(&self, keys: &[u64]) -> u64 {
        let mut seen: Vec<u64> = keys.to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.iter().filter_map(|key| self.expected.get(key)).map(|e| e.events).sum()
    }

    /// Mean JSON length of the reference results.
    pub fn mean_json_bytes(&self) -> f64 {
        let total: usize = self.expected.values().map(|e| e.json_bytes).sum();
        total as f64 / self.expected.len().max(1) as f64
    }

    #[cfg(test)]
    pub fn perturb(&mut self, key: u64) {
        if let Some(want) = self.expected.get_mut(&key) {
            want.cycle_bits ^= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_ops::OpSpec;

    #[test]
    fn a_perturbed_reference_counts_as_a_failed_op() {
        let chip = ChipSpec::training();
        let ops: Vec<Box<dyn Operator>> =
            vec![OpSpec::add_relu(1 << 14).instantiate(), OpSpec::softmax(1 << 14).instantiate()];
        let refs: Vec<&dyn Operator> = ops.iter().map(AsRef::as_ref).collect();
        let mut reference = Reference::compute(&chip, &refs).expect("reference");
        let pipeline = AnalysisPipeline::new(chip);
        let outcomes: Vec<_> = refs.iter().map(|op| pipeline.run_isolated(*op)).collect();
        let keys: Vec<u64> = refs.iter().map(|op| pipeline.cache_key(*op)).collect();
        let failed = |reference: &Reference| {
            keys.iter().zip(&outcomes).filter(|(key, out)| !reference.check(**key, out)).count()
        };
        assert_eq!(failed(&reference), 0);
        reference.perturb(keys[1]);
        assert_eq!(failed(&reference), 1);
        assert!(!reference.check(keys[0], &Err(PipelineError::ServiceStopped)));
    }
}
