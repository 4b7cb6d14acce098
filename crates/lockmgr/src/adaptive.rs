//! Adaptive contention management (Thomasian-style wait-depth limiting and
//! hot-spot-aware victim selection).
//!
//! The static protocol always parks a blocked request and always kills the
//! youngest member of a deadlock cycle. Both choices are blind to *measured*
//! contention. This module carries the runtime-tunable policy knobs that let
//! the table react to the live wait signal instead:
//!
//! * **Wait-depth limiting**: a blocking request that would queue behind
//!   `limit` or more waiters — the queue part of the table's blocking
//!   relation — is refused with `WouldBlock` instead of parked.
//!   Under hot-spot contention this caps the convoy length (Thomasian's
//!   WDL(d) family) and turns unbounded queueing into bounded retry work the
//!   caller can schedule with backoff.
//! * **Hot-spot victim selection**: the deadlock detector normally kills the
//!   youngest cycle member. With the hot-victim policy on, it kills the
//!   member waiting at the *hottest* summary slot (most accumulated waits)
//!   instead, freeing the resource with the deepest demand first. Any cycle
//!   member is a protocol-correct victim, so this is purely a throughput
//!   policy.
//!
//! Both knobs default to **off** so the classic behaviour is unchanged;
//! they are switched on per manager through the setters by the layers that
//! watch the wait histograms, or both at once through
//! [`AdaptivePolicy::enable`], as the ablation harnesses do.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Wait-depth limit set by [`AdaptivePolicy::enable`]. Deep enough to never
/// bite on benign queues, shallow enough to break hot-spot convoys.
pub const DEFAULT_WAIT_DEPTH: usize = 32;

/// Runtime-tunable contention-management policy of one [`LockManager`].
///
/// All fields are atomics: the table reads them on its slow paths (enqueue,
/// deadlock resolution), and the adaptive controller layer may flip them at
/// any time without synchronization.
///
/// [`LockManager`]: crate::LockManager
#[derive(Debug)]
pub struct AdaptivePolicy {
    /// Max live incompatible waiters a blocking request may queue behind
    /// (0 = off).
    wait_depth: AtomicUsize,
    /// Whether the detector picks the hottest-slot waiter as victim.
    hot_victim: AtomicBool,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        Self::off()
    }
}

impl AdaptivePolicy {
    /// Policy with both knobs off (the classic static behaviour).
    pub fn off() -> Self {
        AdaptivePolicy { wait_depth: AtomicUsize::new(0), hot_victim: AtomicBool::new(false) }
    }

    /// Switches both knobs on: hot-victim selection and a wait-depth limit
    /// of [`DEFAULT_WAIT_DEPTH`].
    pub fn enable(&self) {
        self.set_wait_depth_limit(DEFAULT_WAIT_DEPTH);
        self.set_hot_victim(true);
    }

    /// Current wait-depth limit (0 = unlimited).
    pub fn wait_depth_limit(&self) -> usize {
        self.wait_depth.load(Ordering::Relaxed)
    }

    /// Sets the wait-depth limit (0 disables limiting).
    pub fn set_wait_depth_limit(&self, limit: usize) {
        self.wait_depth.store(limit, Ordering::Relaxed);
    }

    /// Whether hot-spot victim selection is on.
    pub fn hot_victim(&self) -> bool {
        self.hot_victim.load(Ordering::Relaxed)
    }

    /// Enables or disables hot-spot victim selection.
    pub fn set_hot_victim(&self, on: bool) {
        self.hot_victim.store(on, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_policy_disables_both_knobs() {
        let p = AdaptivePolicy::off();
        assert_eq!(p.wait_depth_limit(), 0);
        assert!(!p.hot_victim());
    }

    #[test]
    fn enable_switches_both_knobs_on() {
        let p = AdaptivePolicy::off();
        p.enable();
        assert_eq!(p.wait_depth_limit(), DEFAULT_WAIT_DEPTH);
        assert!(p.hot_victim());
    }

    #[test]
    fn knobs_are_runtime_tunable() {
        let p = AdaptivePolicy::off();
        p.set_wait_depth_limit(4);
        p.set_hot_victim(true);
        assert_eq!(p.wait_depth_limit(), 4);
        assert!(p.hot_victim());
        p.set_wait_depth_limit(0);
        p.set_hot_victim(false);
        assert_eq!(p.wait_depth_limit(), 0);
        assert!(!p.hot_victim());
    }
}
