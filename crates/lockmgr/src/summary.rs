//! Mode-summary words: the word codec, the versioned update, the seal guard.
//!
//! Every (shard, slot) pair of the lock table owns one versioned atomic
//! *mode-summary word* packing per-class grant counts, a waiter count, a
//! seal bit and a version counter for all resources hashing to that slot.
//! The optimistic intent gate (`fastpath.rs`) decides from this word alone;
//! every shard-mutex decision keeps it in step through [`slot_update`].
//!
//! Layout of one `u64`, low to high:
//!
//! ```text
//! bits  0..10  optimistic IS grants (inventory-only)
//! bits 10..20  optimistic IX grants (inventory-only)
//! bits 20..30  real share-class grants (S, SIX) in the shard map
//! bits 30..40  real exclusive-class grants (X) in the shard map
//! bits 40..50  waiter-queue entries (granted or not)
//! bit  50      SEALED — a pessimistic S/SIX/X decision is in flight
//! bits 51..64  version — bumped by every publication
//! ```
//!
//! Count fields saturate *sticky* at [`COUNT_MAX`]: once a field reaches the
//! ceiling it stops moving and the fast path treats the slot as contended
//! (conservative, not wrong). The release path repairs a saturated field by
//! recounting it from the shard map once the slot's activity drains
//! (`maybe_desaturate`), so one burst does not disable the fast path for the
//! slot's lifetime. Optimistic fields never reach the ceiling — [`admits`]
//! refuses the publication one short of it, so their decrements stay exact.

use crate::mode::LockMode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sticky saturation ceiling of every count field.
pub(crate) const COUNT_MAX: u64 = (1 << 10) - 1;
const IS_SHIFT: u32 = 0;
const IX_SHIFT: u32 = 10;
const SHARE_SHIFT: u32 = 20;
const X_SHIFT: u32 = 30;
const WAIT_SHIFT: u32 = 40;
/// The seal bit.
pub(crate) const SEALED: u64 = 1 << 50;
const VERSION_UNIT: u64 = 1 << 51;

fn field(w: u64, shift: u32) -> u64 {
    (w >> shift) & COUNT_MAX
}

fn inc(w: u64, shift: u32) -> u64 {
    if field(w, shift) == COUNT_MAX {
        w // sticky: a saturated field never moves again
    } else {
        w + (1 << shift)
    }
}

fn dec(w: u64, shift: u32) -> u64 {
    let f = field(w, shift);
    if f == COUNT_MAX || f == 0 {
        debug_assert!(f != 0, "summary underflow");
        w
    } else {
        w - (1 << shift)
    }
}

pub(crate) fn opt_is(w: u64) -> u64 {
    field(w, IS_SHIFT)
}

pub(crate) fn opt_ix(w: u64) -> u64 {
    field(w, IX_SHIFT)
}

pub(crate) fn share(w: u64) -> u64 {
    field(w, SHARE_SHIFT)
}

pub(crate) fn x(w: u64) -> u64 {
    field(w, X_SHIFT)
}

pub(crate) fn waiters(w: u64) -> u64 {
    field(w, WAIT_SHIFT)
}

/// Outstanding optimistic grants on the slot.
pub(crate) fn opt_total(w: u64) -> u64 {
    opt_is(w) + opt_ix(w)
}

pub(crate) fn sealed(w: u64) -> bool {
    w & SEALED != 0
}

pub(crate) fn clear_seal(w: u64) -> u64 {
    w & !SEALED
}

/// Version bump; the carry out of bit 63 (version wrap) is dropped by the
/// wrapping add and the count fields below stay intact.
pub(crate) fn bump_version(w: u64) -> u64 {
    w.wrapping_add(VERSION_UNIT)
}

/// Whether the summary admits an optimistic publication of `mode`: no seal,
/// no waiters (FIFO fairness), no conflicting class counts, and the target
/// count safely below saturation. Modes share the two optimistic count
/// fields by *lane*: the read-intent lane (IS, Member) conflicts only with
/// X, the write-intent lane (IX, Insert, Delete) with both real classes —
/// exactly their compatibility rows.
pub(crate) fn admits(w: u64, mode: LockMode) -> bool {
    if sealed(w) || waiters(w) != 0 || x(w) != 0 {
        return false;
    }
    match mode.fastpath_lane() {
        Some(LockMode::IS) => opt_is(w) < COUNT_MAX - 1,
        Some(LockMode::IX) => share(w) == 0 && opt_ix(w) < COUNT_MAX - 1,
        _ => false,
    }
}

fn opt_shift(mode: LockMode) -> u32 {
    match mode.fastpath_lane() {
        Some(LockMode::IS) => IS_SHIFT,
        Some(LockMode::IX) => IX_SHIFT,
        _ => unreachable!("only intent-lane modes publish optimistically"),
    }
}

pub(crate) fn opt_inc(w: u64, mode: LockMode) -> u64 {
    inc(w, opt_shift(mode))
}

pub(crate) fn opt_dec(w: u64, mode: LockMode) -> u64 {
    dec(w, opt_shift(mode))
}

/// Moves one real grant from `from`'s class to `to`'s class (either may be
/// an intent or NL, contributing to no class).
pub(crate) fn class_delta(w: u64, from: LockMode, to: LockMode) -> u64 {
    let mut w = w;
    if from.is_share_class() {
        w = dec(w, SHARE_SHIFT);
    } else if from.is_exclusive_class() {
        w = dec(w, X_SHIFT);
    }
    if to.is_share_class() {
        w = inc(w, SHARE_SHIFT);
    } else if to.is_exclusive_class() {
        w = inc(w, X_SHIFT);
    }
    w
}

pub(crate) fn wait_inc(w: u64) -> u64 {
    inc(w, WAIT_SHIFT)
}

pub(crate) fn wait_dec(w: u64) -> u64 {
    dec(w, WAIT_SHIFT)
}

/// Whether any shard-mutex-owned count field (share / x / waiters) is pinned
/// at the sticky ceiling. The optimistic fields never saturate (`admits`
/// refuses one short of it), so they are not consulted.
pub(crate) fn real_saturated(w: u64) -> bool {
    share(w) == COUNT_MAX || x(w) == COUNT_MAX || waiters(w) == COUNT_MAX
}

/// Rewrites the share / x / waiter fields to exact recounted values,
/// leaving the optimistic fields, seal bit and version untouched (the
/// caller publishes through [`slot_update`], which version-bumps).
pub(crate) fn rewrite_real(w: u64, [share_n, x_n, wait_n]: [u64; 3]) -> u64 {
    debug_assert!(share_n < COUNT_MAX && x_n < COUNT_MAX && wait_n < COUNT_MAX);
    let mask = (COUNT_MAX << SHARE_SHIFT) | (COUNT_MAX << X_SHIFT) | (COUNT_MAX << WAIT_SHIFT);
    (w & !mask) | (share_n << SHARE_SHIFT) | (x_n << X_SHIFT) | (wait_n << WAIT_SHIFT)
}

/// Applies `f` to the slot word with a version bump, retrying until the CAS
/// lands. Returns the published word. Releases and every pessimistic
/// publication go through here, so an in-flight optimistic validation can
/// never miss a concurrent writer.
pub(crate) fn slot_update(slot: &AtomicU64, f: impl Fn(u64) -> u64) -> u64 {
    let mut w = slot.load(Ordering::Acquire);
    loop {
        let next = bump_version(f(w));
        match slot.compare_exchange_weak(w, next, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return next,
            Err(cur) => w = cur,
        }
    }
}

/// RAII for the SEALED bit: armed by `seal_and_drain`, cleared on drop on
/// every early exit (journal crash, `WouldBlock`), unless the owner folded
/// the clear into its own publication and `defuse`d the guard.
pub(crate) struct SealGuard<'a> {
    pub(crate) slot: &'a AtomicU64,
    pub(crate) armed: bool,
}

impl SealGuard<'_> {
    pub(crate) fn defuse(&mut self) {
        self.armed = false;
    }
}

impl Drop for SealGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            slot_update(self.slot, clear_seal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::LockMode::*;

    #[test]
    fn summary_word_packs_and_saturates() {
        let mut w = 0u64;
        for _ in 0..3 {
            w = opt_inc(w, IS);
        }
        w = opt_inc(w, IX);
        w = class_delta(w, NL, S);
        w = class_delta(w, NL, X);
        w = wait_inc(w);
        assert_eq!(opt_is(w), 3);
        assert_eq!(opt_ix(w), 1);
        assert_eq!(share(w), 1);
        assert_eq!(x(w), 1);
        assert_eq!(waiters(w), 1);
        assert_eq!(opt_total(w), 4);
        // S -> SIX stays within the share class; SIX -> X moves classes.
        let w2 = class_delta(w, S, SIX);
        assert_eq!(share(w2), 1);
        let w3 = class_delta(w2, SIX, X);
        assert_eq!(share(w3), 0);
        assert_eq!(x(w3), 2);
        // Version bumps leave every field alone, even across the wrap.
        let mut v = w;
        for _ in 0..10_000 {
            v = bump_version(v);
        }
        assert_eq!(opt_is(v), 3);
        assert_eq!(waiters(v), 1);
        // Sticky saturation: once a field hits the ceiling it never moves.
        let mut s = 0u64;
        for _ in 0..2000 {
            s = wait_inc(s);
        }
        assert_eq!(waiters(s), COUNT_MAX);
        s = wait_dec(s);
        assert_eq!(waiters(s), COUNT_MAX);
    }

    #[test]
    fn summary_admits_follows_classes() {
        let empty = 0u64;
        assert!(admits(empty, IS));
        assert!(admits(empty, IX));
        assert!(!admits(empty, S));
        assert!(!admits(empty, X));
        let with_share = class_delta(empty, NL, S);
        assert!(admits(with_share, IS));
        assert!(!admits(with_share, IX));
        let with_x = class_delta(empty, NL, X);
        assert!(!admits(with_x, IS));
        let with_wait = wait_inc(empty);
        assert!(!admits(with_wait, IS));
        let sealed = empty | SEALED;
        assert!(!admits(sealed, IS));
        assert!(admits(clear_seal(sealed), IS));
        // Optimistic intents coexist in the word.
        let opt = opt_inc(opt_inc(empty, IS), IX);
        assert!(admits(opt, IS) && admits(opt, IX));
        // Semantic modes are admitted by lane: Member behaves like IS
        // (compatible with S), Insert/Delete like IX (not).
        assert!(admits(empty, Member));
        assert!(admits(empty, Insert) && admits(empty, Delete));
        assert!(admits(with_share, Member));
        assert!(!admits(with_share, Insert));
        assert!(!admits(with_x, Member) && !admits(with_x, Delete));
    }
}
