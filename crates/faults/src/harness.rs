//! Process- and storage-level fault injection for the supervision layer.
//!
//! [`FaultPlan`](crate::FaultPlan) corrupts what the *simulator* sees;
//! this module corrupts what the *supervisor* sees: a [`PanicSwitch`]
//! makes an operator die mid-batch after a chosen number of successes,
//! standing in for a `kill -9` in tests of batch resume. The storage
//! faults a real crash leaves behind live in [`crate::corrupt_file`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A countdown that lets `n` calls pass and panics on every later one —
/// the deterministic stand-in for a process killed mid-batch.
///
/// Clones share the countdown, so a batch's operators can all hold the
/// same switch: exactly `n` of them (in execution order) complete, the
/// next ones panic, and [`disarm`](PanicSwitch::disarm) turns the
/// survivor back into a no-op for the resumed run.
///
/// # Examples
///
/// ```
/// use ascend_faults::PanicSwitch;
///
/// let switch = PanicSwitch::after(2);
/// switch.tick(); // first call passes
/// switch.tick(); // second call passes
/// assert!(std::panic::catch_unwind(|| switch.tick()).is_err());
/// switch.disarm();
/// switch.tick(); // disarmed: passes again
/// ```
#[derive(Debug, Clone)]
pub struct PanicSwitch {
    /// Remaining free passes; `u64::MAX` means disarmed.
    remaining: Arc<AtomicU64>,
}

impl Default for PanicSwitch {
    /// Disarmed — a default that silently always fired would be a trap.
    fn default() -> Self {
        PanicSwitch::disarmed()
    }
}

impl PanicSwitch {
    /// A switch whose first `n` [`tick`](PanicSwitch::tick)s pass.
    #[must_use]
    pub fn after(n: u64) -> Self {
        PanicSwitch { remaining: Arc::new(AtomicU64::new(n)) }
    }

    /// A switch that never fires.
    #[must_use]
    pub fn disarmed() -> Self {
        PanicSwitch { remaining: Arc::new(AtomicU64::new(u64::MAX)) }
    }

    /// Consumes one pass, panicking once the passes are spent.
    ///
    /// # Panics
    ///
    /// After the configured number of passes — that is the point.
    pub fn tick(&self) {
        let mut current = self.remaining.load(Ordering::Acquire);
        loop {
            if current == u64::MAX {
                return; // disarmed
            }
            if current == 0 {
                panic!("injected failure: panic switch fired");
            }
            match self.remaining.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Turns every later [`tick`](PanicSwitch::tick) into a no-op
    /// (visible through every clone).
    pub fn disarm(&self) {
        self.remaining.store(u64::MAX, Ordering::Release);
    }

    /// Remaining free passes (`None` when disarmed).
    #[must_use]
    pub fn remaining(&self) -> Option<u64> {
        match self.remaining.load(Ordering::Acquire) {
            u64::MAX => None,
            n => Some(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_counts_down_then_fires() {
        let switch = PanicSwitch::after(2);
        let clone = switch.clone();
        switch.tick();
        clone.tick();
        assert_eq!(switch.remaining(), Some(0));
        let fired = std::panic::catch_unwind(|| switch.tick());
        assert!(fired.is_err(), "the third tick must panic");
        clone.disarm();
        switch.tick();
        assert_eq!(switch.remaining(), None);
    }

    #[test]
    fn disarmed_switch_never_fires() {
        let switch = PanicSwitch::disarmed();
        for _ in 0..1000 {
            switch.tick();
        }
        assert_eq!(switch.remaining(), None);
    }
}
