//! Lock manager statistics.
//!
//! These counters quantify exactly the overheads the paper's evaluation
//! argues about qualitatively (§3.2.1, §4.6): number of locks requested and
//! held (administration overhead), number of compatibility tests (conflict
//! test overhead), waits (lost concurrency) and deadlocks.
//!
//! Every lock request bumps several of them, so they are kept per thread:
//! [`LockStats`] holds one cache-padded [`StatsCell`] for each of eight
//! thread slots and hands the calling thread its own (through `Deref`), so
//! threads working on disjoint objects never write one shared line. A
//! snapshot sums the counters over the cells and takes the maximum of the
//! marks.

use crate::pad::CachePadded;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter cells per [`LockStats`]. Threads take slots round-robin in the
/// order they first touch any `LockStats`; threads sharing a slot share its
/// cell, which is still exact, only no longer private.
const STAT_SLOTS: usize = 8;

/// The slot the next thread to touch statistics takes (modulo
/// [`STAT_SLOTS`]).
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's cell index in every `LockStats`.
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % STAT_SLOTS;
}

/// Declares the counters once: [`StatsCell`], [`LockStats`]'s `snapshot`
/// and `reset`, [`StatsSnapshot`] and its `since` are all generated from
/// this one list. A `counter` is summed over the cells and differenced by
/// `since`; a high-water `mark` is the maximum over the cells, and `since`
/// keeps the later value.
macro_rules! lock_stats {
    ($($(#[$doc:meta])+ $kind:ident $name:ident,)+) => {
        /// One thread slot's counters (see [`LockStats`]).
        #[derive(Debug, Default)]
        pub struct StatsCell {
            $($(#[$doc])+ pub $name: AtomicU64,)+
        }

        impl LockStats {
            /// Copies all counters into a plain snapshot: counters summed
            /// over the thread cells, marks their maximum.
            pub fn snapshot(&self) -> StatsSnapshot {
                let mut s = StatsSnapshot::default();
                for cell in self.cells.iter() {
                    $(lock_stats!(@merge $kind s.$name, cell.$name.load(Ordering::Relaxed));)+
                }
                s
            }

            /// Resets every counter of every cell to zero.
            pub fn reset(&self) {
                for cell in self.cells.iter() {
                    $(cell.$name.store(0, Ordering::Relaxed);)+
                }
            }
        }

        /// Plain-data copy of [`LockStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])+ pub $name: u64,)+
        }

        impl StatsSnapshot {
            /// Difference `self - earlier`, counter-wise (high-water marks
            /// keep the later value).
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($name: lock_stats!(@since $kind self.$name, earlier.$name),)+ }
            }
        }
    };
    (@merge counter $acc:expr, $cell:expr) => { $acc += $cell };
    (@merge mark $acc:expr, $cell:expr) => { $acc = $acc.max($cell) };
    (@since counter $later:expr, $earlier:expr) => { $later - $earlier };
    (@since mark $later:expr, $earlier:expr) => { $later };
}

/// Thread-safe statistics counters: one cache-padded [`StatsCell`] per
/// thread slot. `stats.requests` (through `Deref`) is the calling thread's
/// cell, which is what the bumping helpers below take; read the totals
/// with [`LockStats::snapshot`].
#[derive(Debug, Default)]
pub struct LockStats {
    cells: [CachePadded<StatsCell>; STAT_SLOTS],
}

impl Deref for LockStats {
    type Target = StatsCell;
    /// The calling thread's cell.
    fn deref(&self) -> &StatsCell {
        &self.cells[SLOT.with(|s| *s)]
    }
}

lock_stats! {
    /// Lock requests issued (including re-requests/conversions).
    counter requests,
    /// Requests granted without waiting.
    counter immediate_grants,
    /// Requests that had to wait at least once.
    counter waits,
    /// Lock conversions (mode upgrades on an already-held resource),
    /// whichever path grants them: an optimistic intent converted to a
    /// stronger intent by the gate counts here as well as a fast-path hit.
    counter conversions,
    /// Individual mode-compatibility tests performed by grant decisions.
    counter conflict_tests,
    /// Deadlocks detected.
    counter deadlocks,
    /// Releases (per resource).
    counter releases,
    /// Snapshot deadlock-detector runs (one per new wait edge).
    counter detector_runs,
    /// Targeted condvar notifications (per-resource wakeups on grant or
    /// victim verdict). Under the old global-condvar design every release
    /// woke every waiter; this counts how many wakeups the sharded table
    /// actually issues.
    counter wakeups,
    /// High-water mark of resources present in the lock table.
    mark max_table_entries,
    /// High-water mark of locks held by a single transaction.
    mark max_locks_per_txn,
    /// Short IS/IX requests that entered the optimistic fast-path gate and
    /// were not already covered (every such request ends as exactly one
    /// fast-path hit or fallback, so
    /// `fastpath_hits + fastpath_fallbacks == intent_acquires`).
    counter intent_acquires,
    /// Intent requests published by summary-word CAS (no shard mutex):
    /// fresh optimistic grants and intent conversions of optimistic ones.
    counter fastpath_hits,
    /// Summary-word CAS attempts that lost the race and re-validated.
    counter fastpath_retries,
    /// Gate entries that fell back to the shard-mutex path (summary
    /// conflict, seal, waiters, saturation, conversion of a real grant or
    /// retry exhaustion).
    counter fastpath_fallbacks,
    /// Slot drains: a pessimistic S/SIX/X decision migrated outstanding
    /// optimistic intent grants into real table grants first.
    counter fastpath_drains,
    /// Reads served by the multiversion overlay with no lock acquired at
    /// all: snapshot transactions never enter the table, so these reads
    /// appear in no other counter here. Bumped by `colock-txn`.
    counter reads_elided,
    /// Sticky-saturated summary-slot count fields repaired after the slot's
    /// activity drained (the fast path works on the slot again).
    counter desaturations,
}

impl LockStats {
    /// Bumps a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water mark to at least `value`. The load comes first:
    /// a mark rarely rises, and the read-modify-write would take the shared
    /// stats line exclusively on every call.
    pub fn raise(counter: &AtomicU64, value: u64) {
        if counter.load(Ordering::Relaxed) < value {
            counter.fetch_max(value, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = LockStats::default();
        LockStats::bump(&s.requests);
        LockStats::add(&s.conflict_tests, 5);
        LockStats::raise(&s.max_table_entries, 7);
        LockStats::raise(&s.max_table_entries, 3); // lower value must not win
        LockStats::raise(&s.max_table_entries, 7); // nor does an equal one move it
        let snap = s.snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.conflict_tests, 5);
        assert_eq!(snap.max_table_entries, 7);
        // After non-rising calls, a higher value still raises the mark.
        LockStats::raise(&s.max_table_entries, 8);
        assert_eq!(s.snapshot().max_table_entries, 8);
    }

    #[test]
    fn since_subtracts_counters() {
        let s = LockStats::default();
        LockStats::bump(&s.requests);
        let first = s.snapshot();
        LockStats::bump(&s.requests);
        LockStats::bump(&s.requests);
        let second = s.snapshot();
        assert_eq!(second.since(&first).requests, 2);
        // High-water marks are not differenced: the later value stands.
        LockStats::raise(&s.max_locks_per_txn, 9);
        assert_eq!(s.snapshot().since(&second).max_locks_per_txn, 9);
    }

    #[test]
    fn reset_clears_everything() {
        let s = LockStats::default();
        LockStats::bump(&s.waits);
        LockStats::bump(&s.fastpath_hits);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn fastpath_counters_roundtrip() {
        let s = LockStats::default();
        LockStats::add(&s.intent_acquires, 3);
        LockStats::bump(&s.fastpath_hits);
        LockStats::bump(&s.fastpath_retries);
        LockStats::add(&s.fastpath_fallbacks, 2);
        LockStats::bump(&s.fastpath_drains);
        let first = s.snapshot();
        assert_eq!(first.intent_acquires, first.fastpath_hits + first.fastpath_fallbacks);
        LockStats::bump(&s.fastpath_drains);
        assert_eq!(s.snapshot().since(&first).fastpath_drains, 1);
    }
}
