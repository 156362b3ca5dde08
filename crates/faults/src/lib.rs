#![warn(missing_docs)]

//! Fault injection for the simulator, and the adversarial kernel
//! generator behind the validator↔engine differential fuzzer.
//!
//! The paper's methodology (Sections 2.1 and 3.1) trusts the simulator's
//! metric surface completely: every roofline classification downstream is
//! derived from the cycles the engine reports. That trust is only earned
//! if the rarely-travelled paths — degraded hardware, broken
//! synchronization, truncated kernels — are reachable, deterministic, and
//! tested. This crate makes them so:
//!
//! * [`FaultPlan`] is a **seeded, declarative fault model**. Timing faults
//!   (degraded bandwidth, perturbed instruction latencies) change *when*
//!   things happen but never *whether* a valid kernel completes. Sync
//!   faults (dropped or duplicated `set_flag`s, truncated kernels) corrupt
//!   the synchronization structure itself, making the engine's deadlock
//!   and watchdog paths reachable on purpose. The simulator accepts a plan
//!   via `Simulator::simulate_with_faults`.
//!
//! * [`generator::generate`] draws arbitrary kernels — compute, transfer,
//!   and sync instructions, valid and invalid alike — from a seed. The
//!   differential property suite (`tests/differential.rs` at the
//!   workspace root) feeds them to both the static validator and the
//!   engine and asserts the **soundness contract**:
//!
//!   1. every kernel `validate()` accepts simulates to completion, with
//!      and without timing faults;
//!   2. every kernel the engine deadlocks on was rejected by `validate()`.
//!
//! Everything is deterministic: the same seed always produces the same
//! mutated kernel, the same degraded chip, and the same latency factors,
//! so any fuzzer failure reproduces from its printed seed.

mod buggy;
mod chaos;
mod disk;
mod harness;
mod hostile;
mod killplan;
mod loadgen;
mod plan;
mod rng;
mod wire;

pub mod generator;

pub use buggy::BuggyEngine;
pub use chaos::{ddmin, ChaosConfig, ChaosFault, ChaosSchedule};
pub use disk::{corrupt_file, DiskFault, DiskFile, FaultyFile};
pub use harness::PanicSwitch;
pub use hostile::{
    grow_resident, heartbeats_muted, set_heartbeats_muted, sleep_forever, spin_forever,
    HostileMode, HostileOp,
};
pub use killplan::{KillEvent, KillPlan};
pub use loadgen::{Arrival, Burst, FaultedOperator, LoadProfile, PanicOperator};
pub use plan::{BandwidthFault, FaultPlan};
pub use rng::SplitMix64;
pub use wire::{
    FaultyTransport, WireAction, WireDirection, WireFault, WireFaultEvent, WireFaultPlan,
    WireShaper,
};
