//! Hostile work items: operators that defeat *cooperative* supervision.
//!
//! Everything `PanicSwitch` and `FaultPlan` inject is survivable
//! in-process — a panic unwinds into `catch_unwind`, a deadlock trips the
//! watchdog. This module generates the failures that are **not**: a build
//! stage that hot-loops without ever polling a `CancelToken`, a process
//! `abort()`, a runaway allocation. They exist to exercise the sandboxed
//! execution tier, where the only effective defense is a supervising
//! *parent process* with a kill switch.
//!
//! A [`HostileOp`] misbehaves inside [`Operator::build`], i.e. before the
//! simulator (and its budget/cancel machinery) is ever reached. The
//! [`HostileMode::GarbageStdout`] and [`HostileMode::TruncateFrame`]
//! modes build a harmless kernel — they are protocol faults, carried out
//! by the sandbox *worker harness* when it writes the result frame, not
//! by the operator itself.

use ascend_arch::ChipSpec;
use ascend_isa::{IsaError, Kernel};
use ascend_ops::{AddRelu, Operator, OptFlags};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Whether a worker's heartbeat thread has been silenced by
/// [`HostileMode::Mute`] (process-global, set once, never cleared in a
/// worker's lifetime).
static HEARTBEATS_MUTED: AtomicBool = AtomicBool::new(false);

/// Returns whether heartbeats have been muted in this process.
#[must_use]
pub fn heartbeats_muted() -> bool {
    HEARTBEATS_MUTED.load(Ordering::Acquire)
}

/// Sets the process-global heartbeat mute flag (tests may clear it).
pub fn set_heartbeats_muted(muted: bool) {
    HEARTBEATS_MUTED.store(muted, Ordering::Release);
}

/// How a [`HostileOp`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostileMode {
    /// Hot-loop forever in `build`, never polling any token — only a
    /// wall-clock kill from outside the process ends it.
    Spin,
    /// `std::process::abort()` mid-build: dies by SIGABRT with no unwind,
    /// no store flush, no goodbye frame.
    Abort,
    /// Allocate and *touch* memory until roughly `megabytes` MiB are
    /// resident, then hold them and sleep — trips an RSS budget, not a
    /// deadline.
    Grow {
        /// Target resident-set growth in MiB.
        megabytes: u64,
    },
    /// Silence the worker's heartbeat thread (via the process-global
    /// [`heartbeats_muted`] flag), then sleep — the process stays alive
    /// but looks dead to the heartbeat monitor.
    Mute,
    /// Build normally; the sandbox worker harness then writes garbage
    /// bytes where the result frame belongs.
    GarbageStdout,
    /// Build normally; the sandbox worker harness then truncates the
    /// result frame mid-payload and exits cleanly.
    TruncateFrame,
}

/// Hot-loops forever; only an external kill ends it.
pub fn spin_forever() -> ! {
    let mut x = 0u64;
    loop {
        x = std::hint::black_box(x.wrapping_add(1));
    }
}

/// Allocates and touches pages until about `megabytes` MiB are resident,
/// pausing briefly between chunks so an RSS sampler can watch the climb,
/// then holds the memory and sleeps forever.
pub fn grow_resident(megabytes: u64) -> ! {
    const CHUNK: usize = 4 * 1024 * 1024;
    let target = usize::try_from(megabytes).unwrap_or(usize::MAX).saturating_mul(1024 * 1024);
    let mut hoard: Vec<Vec<u8>> = Vec::new();
    let mut total = 0usize;
    while total < target {
        let mut block = vec![0u8; CHUNK];
        // Touch one byte per page so the allocation is actually resident,
        // not just reserved address space.
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        hoard.push(block);
        total += CHUNK;
        // Pause every few chunks — often enough for an RSS sampler to
        // watch the climb, rarely enough that timer granularity (sleeps
        // round up to the scheduler tick) cannot stall the growth below
        // any practical budget.
        if total.is_multiple_of(4 * CHUNK) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    loop {
        std::hint::black_box(&hoard);
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Sleeps forever (the process is alive, just useless).
pub fn sleep_forever() -> ! {
    loop {
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// An [`Operator`] whose `build` carries out a [`HostileMode`].
///
/// In-process it is a landmine: `Spin`/`Mute` never return, `Abort`
/// takes the process down, `Grow` wedges after exhausting its budget.
/// Under the sandboxed tier each of those is contained in a disposable
/// child and surfaces as a typed worker failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostileOp {
    mode: HostileMode,
}

impl HostileOp {
    /// A hostile operator with the given mode.
    #[must_use]
    pub fn new(mode: HostileMode) -> Self {
        HostileOp { mode }
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> HostileMode {
        self.mode
    }
}

impl Operator for HostileOp {
    fn name(&self) -> String {
        format!("hostile_{:?}", self.mode).to_lowercase()
    }

    fn flags(&self) -> OptFlags {
        OptFlags::new()
    }

    fn with_flags_dyn(&self, _flags: OptFlags) -> Box<dyn Operator> {
        Box::new(*self)
    }

    fn build(&self, chip: &ChipSpec) -> Result<Kernel, IsaError> {
        match self.mode {
            HostileMode::Spin => spin_forever(),
            HostileMode::Abort => std::process::abort(),
            HostileMode::Grow { megabytes } => grow_resident(megabytes),
            HostileMode::Mute => {
                set_heartbeats_muted(true);
                sleep_forever()
            }
            // Protocol faults corrupt the *frame*, not the work: build a
            // small real kernel so the worker has a result to mangle.
            HostileMode::GarbageStdout | HostileMode::TruncateFrame => {
                AddRelu::new(1024).build(chip)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_modes_build_harmless_kernels() {
        let chip = ChipSpec::inference();
        for mode in [HostileMode::GarbageStdout, HostileMode::TruncateFrame] {
            let op = HostileOp::new(mode);
            assert!(op.build(&chip).is_ok(), "{mode:?} must build in-process");
            assert!(op.name().starts_with("hostile_"));
        }
    }

    #[test]
    fn modes_serialize_round_trip() {
        let modes = [
            HostileMode::Spin,
            HostileMode::Abort,
            HostileMode::Grow { megabytes: 64 },
            HostileMode::Mute,
            HostileMode::GarbageStdout,
            HostileMode::TruncateFrame,
        ];
        for mode in modes {
            let json = serde_json::to_string(&mode).unwrap();
            let back: HostileMode = serde_json::from_str(&json).unwrap();
            assert_eq!(mode, back, "{json}");
        }
    }

    #[test]
    fn mute_flag_round_trips() {
        assert!(!heartbeats_muted());
        set_heartbeats_muted(true);
        assert!(heartbeats_muted());
        set_heartbeats_muted(false);
        assert!(!heartbeats_muted());
    }
}
