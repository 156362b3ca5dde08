//! Streaming trace sinks: where the engine's per-instruction records go.
//!
//! The event loop produces one [`InstrRecord`] per executed instruction.
//! What happens to those records is the caller's choice, expressed as a
//! [`TraceSink`]:
//!
//! * [`TraceCollector`] materializes the full [`Trace`](crate::Trace) —
//!   unchanged public behavior, used by figures and forensics;
//! * [`MetricsSink`] folds records into the paper's §3.1 metric surface
//!   (ops per precision, bytes per path, component active time) on the
//!   fly, so profile-only callers never materialize a trace;
//! * [`NullSink`] discards records — pure cycle/throughput measurement;
//! * a `(A, B)` tuple feeds two sinks from one simulation pass.
//!
//! Records are emitted in **start order**: the moment the engine commits
//! an instruction to a queue slot its end time is known, so the record is
//! final. Within one component queue, start order equals program order
//! (queues are FIFO), which is what makes [`MetricsSink`]'s floating-point
//! accumulations bit-identical to the same sums taken over a sorted
//! [`Trace`](crate::Trace).

use crate::trace::{InstrRecord, StallCause};
use ascend_arch::{Component, ComputeUnit, Precision, TransferPath};
use ascend_isa::{Instruction, Kernel};
use std::collections::BTreeMap;

/// Consumer of the engine's per-instruction records.
///
/// Implementations must be prepared for [`begin`](TraceSink::begin) to be
/// called again after a previous run (successful or not): a sink is
/// reusable state, reset at `begin`, not a one-shot object.
pub trait TraceSink {
    /// Called once before execution starts, with the kernel about to run.
    /// Resets any state left over from a previous run.
    fn begin(&mut self, kernel: &Kernel) {
        let _ = kernel;
    }

    /// Called once per executed instruction, in start order, the moment
    /// its timing is final.
    fn emit(&mut self, instr: &Instruction, record: InstrRecord);
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn begin(&mut self, kernel: &Kernel) {
        (**self).begin(kernel);
    }

    fn emit(&mut self, instr: &Instruction, record: InstrRecord) {
        (**self).emit(instr, record);
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    fn begin(&mut self, kernel: &Kernel) {
        self.0.begin(kernel);
        self.1.begin(kernel);
    }

    fn emit(&mut self, instr: &Instruction, record: InstrRecord) {
        self.0.emit(instr, record);
        self.1.emit(instr, record);
    }
}

/// Discards every record. Use when only the run summary (total cycles,
/// event count) matters — e.g. raw engine throughput measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _instr: &Instruction, _record: InstrRecord) {}
}

/// Materializes the full per-instruction trace, bit-identical to the
/// pre-sink engine's output: records indexed by program order.
///
/// Records are written straight into the vector that becomes the
/// [`Trace`](crate::Trace): [`begin`](TraceSink::begin) sizes it to the
/// kernel with placeholder records, each emit overwrites its program-order
/// slot, and [`into_trace`](TraceCollector::into_trace) moves it out. One
/// allocation per run, no second collection pass.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    /// Slot `i` holds instruction `i`'s record, or [`UNFILLED`] if it has
    /// not started.
    records: Vec<InstrRecord>,
}

/// Placeholder for a slot whose instruction never started. Its `index`
/// is one no real record carries.
const UNFILLED: InstrRecord = InstrRecord {
    index: usize::MAX,
    queue: None,
    available_at: 0.0,
    start: 0.0,
    end: 0.0,
    stall: StallCause::None,
};

impl TraceCollector {
    /// An empty collector (sized at [`begin`](TraceSink::begin)).
    #[must_use]
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Consumes the collected records into a [`Trace`](crate::Trace).
    /// Call after a successful run; unfilled slots (possible only after
    /// an error) are skipped, matching the seed engine's flatten.
    #[must_use]
    pub fn into_trace(self, kernel_name: &str, total_cycles: f64) -> crate::Trace {
        let mut records = self.records;
        records.retain(|record| record.index != UNFILLED.index);
        crate::Trace::from_parts(kernel_name, records, total_cycles)
    }
}

impl TraceSink for TraceCollector {
    fn begin(&mut self, kernel: &Kernel) {
        self.records.clear();
        self.records.resize(kernel.len(), UNFILLED);
    }

    fn emit(&mut self, _instr: &Instruction, record: InstrRecord) {
        self.records[record.index] = record;
    }
}

/// Folds records into the paper's §3.1 per-operator metric surface
/// without materializing a trace: operations per (unit, precision),
/// bytes per transfer path, and active cycles per component.
///
/// For a successful run these equal the same metrics derived from a full
/// [`Trace`](crate::Trace) plus the kernel's static stats — enforced by
/// the golden differential suite, not by inspection.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    kernel_name: String,
    /// Operation counts, direct-indexed by `[unit][precision]` — the
    /// emit path is one array add, no map probe. The map-shaped
    /// accessors rebuild the sparse views on demand (cold: once per
    /// profile, vs one emit per instruction).
    ops: [[u64; 5]; 3],
    /// Which `(unit, precision)` pairs executed, one bit per precision.
    /// A pair that executed with zero total ops must still appear in
    /// [`ops`](MetricsSink::ops) — `Profile::collect` derives the same
    /// map through `BTreeMap::entry`, which inserts on `+= 0`, and the
    /// two must match bit-for-bit.
    ops_seen: [u8; 3],
    /// Byte counts, direct-indexed by transfer path.
    bytes: [u64; 20],
    /// Which paths executed (same zero-total caveat as `ops_seen`).
    bytes_seen: u32,
    active: [f64; 6],
    instruction_count: u64,
}

impl MetricsSink {
    /// An empty sink (reset at [`begin`](TraceSink::begin)).
    #[must_use]
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Name of the kernel last run into this sink.
    #[must_use]
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Operations per (unit, precision), from the executed instructions
    /// — only pairs that executed, the exact shape `Profile::collect`
    /// derives from a kernel.
    #[must_use]
    pub fn ops(&self) -> BTreeMap<(ComputeUnit, Precision), u64> {
        let mut map = BTreeMap::new();
        for unit in ComputeUnit::ALL {
            for precision in Precision::ALL {
                if self.ops_seen[unit as usize] & (1 << precision as usize) != 0 {
                    map.insert((unit, precision), self.ops[unit as usize][precision as usize]);
                }
            }
        }
        map
    }

    /// Bytes per transfer path, from the executed instructions — only
    /// paths that executed.
    #[must_use]
    pub fn bytes(&self) -> BTreeMap<TransferPath, u64> {
        TransferPath::ALL
            .into_iter()
            .filter(|&path| self.bytes_seen & (1 << path as usize) != 0)
            .map(|path| (path, self.bytes[path as usize]))
            .collect()
    }

    /// Active (executing) cycles of `component`.
    #[must_use]
    pub fn active_cycles(&self, component: Component) -> f64 {
        self.active[component.index()]
    }

    /// Active cycles per component, only components that executed —
    /// the exact shape `Profile::collect` produces from a trace.
    #[must_use]
    pub fn active_map(&self) -> BTreeMap<Component, f64> {
        Component::ALL
            .into_iter()
            .filter(|c| self.active[c.index()] > 0.0)
            .map(|c| (c, self.active[c.index()]))
            .collect()
    }

    /// Number of instructions in the kernel (set at `begin`).
    #[must_use]
    pub fn instruction_count(&self) -> u64 {
        self.instruction_count
    }
}

impl TraceSink for MetricsSink {
    fn begin(&mut self, kernel: &Kernel) {
        self.kernel_name.clear();
        self.kernel_name.push_str(kernel.name());
        self.ops = [[0; 5]; 3];
        self.ops_seen = [0; 3];
        self.bytes = [0; 20];
        self.bytes_seen = 0;
        self.active = [0.0; 6];
        self.instruction_count = kernel.len() as u64;
    }

    fn emit(&mut self, instr: &Instruction, record: InstrRecord) {
        match instr {
            Instruction::Compute(c) => {
                self.ops[c.unit as usize][c.precision as usize] += c.ops;
                self.ops_seen[c.unit as usize] |= 1 << c.precision as usize;
            }
            Instruction::Transfer(t) => {
                self.bytes[t.path as usize] += t.bytes();
                self.bytes_seen |= 1 << t.path as usize;
            }
            Instruction::SetFlag { .. } | Instruction::WaitFlag { .. } | Instruction::Barrier => {}
        }
        if let Some(queue) = record.queue {
            self.active[queue.index()] += record.duration();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use ascend_arch::{Buffer, ChipSpec};
    use ascend_isa::{KernelBuilder, Region};

    fn kernel() -> Kernel {
        let gm = Region::new(Buffer::Gm, 0, 8192);
        let ub = Region::new(Buffer::Ub, 0, 8192);
        let mut b = KernelBuilder::new("sinked");
        let loaded = b.new_flag();
        b.transfer(TransferPath::GmToUb, gm, ub).unwrap();
        b.set_flag(Component::MteGm, loaded);
        b.wait_flag(Component::Vector, loaded);
        b.compute(ComputeUnit::Vector, Precision::Fp16, 4096, vec![ub], vec![ub]);
        b.build()
    }

    #[test]
    fn metrics_sink_matches_trace_derivation() {
        let sim = Simulator::new(ChipSpec::training());
        let kernel = kernel();
        let trace = sim.simulate(&kernel).unwrap();
        let mut metrics = MetricsSink::new();
        let summary = sim.simulate_into(&kernel, &mut metrics).unwrap();
        assert_eq!(summary.total_cycles, trace.total_cycles());
        assert_eq!(metrics.ops().get(&(ComputeUnit::Vector, Precision::Fp16)), Some(&4096));
        assert_eq!(metrics.bytes().get(&TransferPath::GmToUb), Some(&8192));
        for c in Component::ALL {
            assert_eq!(metrics.active_cycles(c), trace.busy_cycles(c), "{c}");
        }
        assert_eq!(metrics.instruction_count(), kernel.len() as u64);
        assert_eq!(metrics.kernel_name(), "sinked");
    }

    #[test]
    fn tuple_sink_feeds_both() {
        let sim = Simulator::new(ChipSpec::training());
        let kernel = kernel();
        let mut pair = (TraceCollector::new(), MetricsSink::new());
        let summary = sim.simulate_into(&kernel, &mut pair).unwrap();
        let (collector, metrics) = pair;
        let trace = collector.into_trace(kernel.name(), summary.total_cycles);
        assert_eq!(trace, sim.simulate(&kernel).unwrap());
        assert_eq!(metrics.active_cycles(Component::Vector), trace.busy_cycles(Component::Vector));
    }

    #[test]
    fn sinks_reset_at_begin() {
        let sim = Simulator::new(ChipSpec::training());
        let kernel = kernel();
        let mut metrics = MetricsSink::new();
        sim.simulate_into(&kernel, &mut metrics).unwrap();
        let once = metrics.clone();
        sim.simulate_into(&kernel, &mut metrics).unwrap();
        assert_eq!(metrics.ops(), once.ops(), "a reused sink must not double-count");
        assert_eq!(metrics.active_map(), once.active_map());
    }

    #[test]
    fn collector_skips_slots_that_never_started() {
        // What a failed run leaves: some instructions emitted, out of
        // program order, the rest never started.
        let kernel = kernel();
        let record = |index| InstrRecord {
            index,
            queue: Some(Component::Vector),
            available_at: 1.0,
            start: 2.0,
            end: 3.0 + index as f64,
            stall: StallCause::QueueBusy,
        };
        let mut collector = TraceCollector::new();
        collector.begin(&kernel);
        collector.emit(&kernel.instructions()[2], record(2));
        collector.emit(&kernel.instructions()[0], record(0));
        let trace = collector.clone().into_trace("partial", 5.0);
        assert_eq!(trace.records(), &[record(0), record(2)]);
        // `begin` forgets the previous run.
        collector.begin(&kernel);
        assert!(collector.into_trace("empty", 0.0).records().is_empty());
    }
}
