//! Deterministic fault injection — crash-point hooks for recovery tests.
//!
//! A [`FaultPlan`] arms a single simulated crash at the *n*-th append a
//! durable medium performs, at one of three [`CrashPoint`]s, or at the first
//! checkpoint the medium writes at or after that append
//! ([`CrashPoint::MidCompaction`]). The consumer (the long-lock journal in
//! `colock-lockmgr`) calls [`FaultPlan::on_append`] once per append and
//! [`FaultPlan::on_checkpoint`] once per checkpoint; the plan fires exactly
//! once and never again, so a plan describes one crash and a sweep over
//! `(point, nth)` enumerates every possible crash of a schedule.
//!
//! Plans are plain data driven by the seeded [`Rng`] (via
//! [`FaultPlan::seeded`]) or enumerated exhaustively ([`FaultPlan::crash_at`]),
//! so every crash a test observes is reproducible from its seed.

use crate::rng::Rng;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Where, relative to one journal append, the simulated crash strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Power is lost before any byte of the record reaches the medium: the
    /// record is wholly absent after restart.
    BeforeAppend,
    /// Power is lost after the record (and its terminator) is durable: the
    /// record is wholly present after restart.
    AfterAppend,
    /// Power is lost mid-write: a torn prefix of the record, with no
    /// terminator, is what restart finds.
    MidRecord,
    /// Power is lost while a checkpoint is being written, before it replaces
    /// the medium: the record that triggered it is wholly present (as with
    /// [`CrashPoint::AfterAppend`]) and the old text is what restart finds.
    MidCompaction,
}

impl CrashPoint {
    /// The three append crash points, in sweep order — what
    /// [`FaultPlan::seeded`] draws from. [`CrashPoint::MidCompaction`] is
    /// swept explicitly, so seeded schedules stay what they were before it
    /// existed.
    pub const ALL: [CrashPoint; 3] =
        [CrashPoint::BeforeAppend, CrashPoint::AfterAppend, CrashPoint::MidRecord];
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CrashPoint::BeforeAppend => "before-append",
            CrashPoint::AfterAppend => "after-append",
            CrashPoint::MidRecord => "mid-record",
            CrashPoint::MidCompaction => "mid-compaction",
        })
    }
}

/// A one-shot crash plan: fire `point` on the `nth` append (1-based), or —
/// for [`CrashPoint::MidCompaction`] — at the first checkpoint at or after
/// it.
///
/// Thread-safe; the fire decision is a single atomic increment so a plan can
/// sit on the hot path of a concurrent journal.
#[derive(Debug)]
pub struct FaultPlan {
    point: CrashPoint,
    nth: u64,
    seen: AtomicU64,
    fired: AtomicBool,
}

impl FaultPlan {
    /// Crash at `point` on the `nth` append (1-based); a `MidCompaction`
    /// plan waits for the first checkpoint from there on. `nth == 0` never
    /// fires.
    pub fn crash_at(point: CrashPoint, nth: u64) -> FaultPlan {
        FaultPlan { point, nth, seen: AtomicU64::new(0), fired: AtomicBool::new(false) }
    }

    /// Seeded random plan: uniform crash point and uniform append index in
    /// `1..=max_appends` drawn from `rng`. `max_appends == 0` yields a plan
    /// that never fires.
    pub fn seeded(rng: &mut Rng, max_appends: u64) -> FaultPlan {
        let point = *rng.choose(&CrashPoint::ALL).expect("non-empty");
        let nth = if max_appends == 0 { 0 } else { rng.gen_range(0..max_appends) + 1 };
        FaultPlan::crash_at(point, nth)
    }

    /// Called once per append by the medium. Returns `Some(point)` exactly
    /// when this append is the one the plan crashes on (never for a
    /// `MidCompaction` plan, which only counts appends).
    pub fn on_append(&self) -> Option<CrashPoint> {
        let n = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.nth && self.point != CrashPoint::MidCompaction {
            self.fired.store(true, Ordering::Relaxed);
            Some(self.point)
        } else {
            None
        }
    }

    /// Called by the medium before it swaps in a checkpoint. Returns `true`
    /// exactly once: for a `MidCompaction` plan, at the first checkpoint
    /// once the `nth` append has been seen.
    pub fn on_checkpoint(&self) -> bool {
        self.point == CrashPoint::MidCompaction
            && self.nth != 0
            && self.seen.load(Ordering::Relaxed) >= self.nth
            && !self.fired.swap(true, Ordering::Relaxed)
    }

    /// Whether the plan has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// Appends observed so far (fired or not) — lets a fault-free dry run
    /// reuse a never-firing plan as an append counter.
    pub fn appends_seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// The crash point this plan fires at.
    pub fn point(&self) -> CrashPoint {
        self.point
    }

    /// The 1-based append index this plan fires at (0 = never).
    pub fn nth(&self) -> u64 {
        self.nth
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crash {} at append #{}", self.point, self.nth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_nth() {
        let plan = FaultPlan::crash_at(CrashPoint::MidRecord, 3);
        assert_eq!(plan.on_append(), None);
        assert!(!plan.fired());
        assert_eq!(plan.on_append(), None);
        assert_eq!(plan.on_append(), Some(CrashPoint::MidRecord));
        assert!(plan.fired());
        assert_eq!(plan.on_append(), None);
        assert_eq!(plan.appends_seen(), 4);
    }

    #[test]
    fn mid_compaction_fires_at_the_first_checkpoint_from_nth_on() {
        let plan = FaultPlan::crash_at(CrashPoint::MidCompaction, 2);
        assert_eq!(plan.on_append(), None);
        assert!(!plan.on_checkpoint(), "a checkpoint before the nth append survives");
        assert_eq!(plan.on_append(), None, "the nth append itself is written");
        assert_eq!(plan.on_append(), None);
        assert!(plan.on_checkpoint());
        assert!(plan.fired());
        assert!(!plan.on_checkpoint(), "one shot");
        // Append plans never fire at a checkpoint.
        let append = FaultPlan::crash_at(CrashPoint::AfterAppend, 1);
        assert!(!append.on_checkpoint());
        assert!(!FaultPlan::crash_at(CrashPoint::MidCompaction, 0).on_checkpoint());
    }

    #[test]
    fn zeroth_never_fires() {
        let plan = FaultPlan::crash_at(CrashPoint::BeforeAppend, 0);
        for _ in 0..16 {
            assert_eq!(plan.on_append(), None);
        }
        assert!(!plan.fired());
        assert_eq!(plan.appends_seen(), 16);
    }

    #[test]
    fn seeded_plan_is_deterministic_and_in_range() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..64 {
            let pa = FaultPlan::seeded(&mut a, 10);
            let pb = FaultPlan::seeded(&mut b, 10);
            assert_eq!(pa.point(), pb.point());
            assert_eq!(pa.nth(), pb.nth());
            assert!((1..=10).contains(&pa.nth()));
        }
    }
}
