//! Per-transaction lock inventories and every release path.
//!
//! Each transaction's held locks live in one of [`TXN_STRIPES`] *txn
//! stripes* keyed by transaction id — a leaf level of the lock order (see
//! `table.rs`). An inventory entry is either backed by a real grant in the
//! shard map or *optimistic*: published only in its slot's summary word by
//! the fast-path gate, until a pessimistic decision drains it into the map.
//!
//! Releasing is decided here once: an optimistic entry is retired under its
//! stripe (`release_entries`), a real grant under its shard
//! (`release_real`); `release`, `release_all` and `release_short` only
//! differ in which entries they take out of the inventory.
//!
//! The inventory is also where a request stages its long grants for the
//! journal (`HeldLock::staged`) until `flush_staged` writes them as one
//! grant set. Every journal record is written with no shard and no stripe
//! locked.

use crate::error::LockError;
use crate::mode::LockMode;
use crate::pad::CachePadded;
use crate::persistent::JournalOp;
use crate::queue::ShardInner;
use crate::stats::LockStats;
use crate::summary::{self, slot_update};
use crate::table::{recover, FastMap, LockManager, Resource};
use crate::txnid::TxnId;
use crate::Result;
use colock_testkit::explore;
use colock_trace::EventKind;
use std::sync::{Mutex, MutexGuard};

/// One entry of a transaction's lock inventory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeldLock {
    pub(crate) mode: LockMode,
    pub(crate) long: bool,
    /// Published only in the slot's summary word — the grant has no entry in
    /// the shard map until a pessimistic decision drains it there.
    pub(crate) optimistic: bool,
    /// The resource's placement hash, cached so releases and drains derive
    /// shard and summary slot without rehashing.
    pub(crate) hash: u64,
    /// A long grant, conversion or widening of this lock awaits its
    /// request's grant-set record (only with a journal attached).
    pub(crate) staged: bool,
}

impl HeldLock {
    /// A fresh entry for a real grant, before its mode is joined in.
    pub(crate) fn real(hash: u64) -> Self {
        HeldLock { mode: LockMode::NL, long: false, optimistic: false, hash, staged: false }
    }
}

#[derive(Debug)]
pub(crate) struct TxnState<R> {
    pub(crate) held: FastMap<R, HeldLock>,
}

impl<R> Default for TxnState<R> {
    fn default() -> Self {
        TxnState { held: FastMap::default() }
    }
}

/// Number of txn-inventory stripes (fixed; inventories are small maps and
/// only contended across distinct transactions).
pub(crate) const TXN_STRIPES: usize = 16;

/// One stripe of the per-transaction state map, on lines of its own (the
/// stripes of concurrent transactions are locked by different threads).
pub(crate) type TxnStripe<R> = CachePadded<Mutex<FastMap<TxnId, TxnState<R>>>>;

pub(crate) type StripeGuard<'a, R> = MutexGuard<'a, FastMap<TxnId, TxnState<R>>>;

impl<R: Resource> LockManager<R> {
    fn stripe_at(&self, idx: usize) -> StripeGuard<'_, R> {
        recover(self.stripes[idx].lock())
    }

    /// Locks the txn stripe owning `txn`'s inventory.
    pub(crate) fn stripe_locked(&self, txn: TxnId) -> StripeGuard<'_, R> {
        self.stripe_at((txn.0 as usize) & (TXN_STRIPES - 1))
    }

    /// The one walk over all txn stripes: visits every optimistic grant
    /// (they live only in the inventories), one stripe locked at a time,
    /// until `visit` returns `false`.
    pub(crate) fn walk_optimistic(&self, mut visit: impl FnMut(TxnId, &R, &mut HeldLock) -> bool) {
        for idx in 0..TXN_STRIPES {
            for (txn, t) in self.stripe_at(idx).iter_mut() {
                for (r, e) in t.held.iter_mut() {
                    if e.optimistic && !visit(*txn, r, e) {
                        return;
                    }
                }
            }
        }
    }

    /// The mode `txn` currently holds on `resource` (NL if none).
    pub fn held_mode(&self, txn: TxnId, resource: &R) -> LockMode {
        self.stripe_locked(txn)
            .get(&txn)
            .and_then(|t| t.held.get(resource))
            .map(|h| h.mode)
            .unwrap_or(LockMode::NL)
    }

    /// All `(resource, mode, long)` locks held by `txn`.
    pub fn locks_of(&self, txn: TxnId) -> Vec<(R, LockMode, bool)> {
        self.stripe_locked(txn)
            .get(&txn)
            .map(|t| t.held.iter().map(|(r, h)| (r.clone(), h.mode, h.long)).collect())
            .unwrap_or_default()
    }

    /// Releases `resource` for `txn`. Returns `true` if a lock was released.
    /// A long lock's release is journaled as one v1 `release` record.
    pub fn release(&self, txn: TxnId, resource: &R) -> bool {
        explore::yield_point(|| format!("release|{resource:?}"));
        let mut stripe = self.stripe_locked(txn);
        let Some(t) = stripe.get_mut(&txn) else {
            return false;
        };
        let Some(entry) = t.held.remove_entry(resource) else {
            return false;
        };
        if t.held.is_empty() {
            stripe.remove(&txn);
        }
        self.release_entries(txn, stripe, Some(entry), false) == 1
    }

    /// Releases all locks of `txn` (end of transaction). Returns the number
    /// released. A transaction that held a long lock is journaled as one
    /// `releaseall` record.
    ///
    /// The per-txn inventory is *drained* (not cloned): ownership of the
    /// resource keys moves out of the stripe, and each affected shard is
    /// locked exactly once.
    pub fn release_all(&self, txn: TxnId) -> usize {
        explore::yield_point(|| "release_all|*".to_string());
        let mut stripe = self.stripe_locked(txn);
        let held = stripe.remove(&txn).map(|t| t.held).unwrap_or_default();
        self.release_entries(txn, stripe, held, true)
    }

    /// Releases only the *short* locks of `txn`, keeping long locks — models
    /// the end of a workstation session whose check-outs persist (\[KSUW85\]).
    pub fn release_short(&self, txn: TxnId) -> usize {
        explore::yield_point(|| "release_short|*".to_string());
        let mut stripe = self.stripe_locked(txn);
        let Some(t) = stripe.get_mut(&txn) else {
            return 0;
        };
        let (long, short): (Vec<_>, Vec<_>) =
            std::mem::take(&mut t.held).into_iter().partition(|(_, e)| e.long);
        if long.is_empty() {
            stripe.remove(&txn);
        } else {
            t.held.extend(long);
        }
        self.release_entries(txn, stripe, short, false)
    }

    /// Releases inventory entries the caller already took out of `txn`'s
    /// stripe, whose guard it hands over: optimistic grants are retired
    /// right here, real ones once the stripe is unlocked (a stripe guard is
    /// never carried into a shard critical section). Returns how many there
    /// were.
    ///
    /// Long locks among them are journaled in between, with nothing locked
    /// — one `releaseall` when `eot` (the whole inventory is going), else
    /// one `release` each. The record precedes the in-memory release, so
    /// the medium never shows a lock this release hands to a waiter as
    /// still held by `txn`; a crash in between drops a release nobody was
    /// told about.
    fn release_entries(
        &self,
        txn: TxnId,
        stripe: StripeGuard<'_, R>,
        entries: impl IntoIterator<Item = (R, HeldLock)>,
        eot: bool,
    ) -> usize {
        let mut real: Vec<(R, u64)> = Vec::new();
        let mut optimistic = 0;
        let mut long: Option<(R, LockMode)> = None;
        let mut any_long = false;
        for (r, e) in entries {
            if !e.optimistic {
                if e.long && !eot {
                    // Only `release` passes a long entry without `eot`,
                    // and it passes one.
                    long = Some((r.clone(), e.mode));
                }
                any_long |= e.long;
                real.push((r, e.hash));
                continue;
            }
            // Trace before the decrement: the summary CAS is what lets a
            // conflicting request through, so the Release event must carry
            // an earlier sequence than any grant it enables — the
            // serializability certifier orders commit-release overlaps by
            // these sequences.
            self.trace_lock(EventKind::Release, txn, e.hash, e.mode, &r, "");
            // Decrement before the stripe unlocks so a draining pessimist
            // never sees a count with no entry left behind it. Never
            // migrated ⟹ no real grant ⟹ no queue to process: a conflicting
            // request would have drained this grant first.
            slot_update(self.slot_from_hash(e.hash), |w| summary::opt_dec(w, e.mode));
            optimistic += 1;
        }
        drop(stripe);
        LockStats::add(&self.stats.releases, optimistic as u64);
        if let Some(j) = self.journal().filter(|_| any_long) {
            // A journal crash cannot fail the release (the caller's memory
            // state dies with the crash anyway); the frozen journal simply
            // stops acknowledging, and replay decides.
            let _ = match &long {
                Some((r, mode)) => j.record(JournalOp::Release, txn, r, *mode),
                None => j.record_release_all(txn),
            };
        }
        let n = real.len() + optimistic;
        self.release_batch(txn, real);
        n
    }

    /// Journals `txn`'s staged long grants as one grant set, each at its
    /// joined mode, and clears their marks. The set is gathered under the
    /// stripe and written after it unlocks. A no-op without a journal or
    /// with nothing staged.
    pub(crate) fn flush_staged(&self, txn: TxnId) -> Result<()> {
        let Some(j) = self.journal() else {
            return Ok(());
        };
        let set: Vec<(R, LockMode)> = match self.stripe_locked(txn).get_mut(&txn) {
            Some(t) => t
                .held
                .iter_mut()
                .filter(|(_, e)| e.staged)
                .map(|(r, e)| {
                    e.staged = false;
                    (r.clone(), e.mode)
                })
                .collect(),
            None => return Ok(()),
        };
        if set.is_empty() {
            return Ok(());
        }
        j.record_grant_set(txn, &set).map_err(|_| LockError::Crashed)
    }

    /// Removes `txn`'s grants on the given resources (inventory already
    /// drained by the caller, each paired with its cached placement hash),
    /// grouped by a single sort (ascending, matching the detector's
    /// canonical order) so each shard is locked exactly once.
    fn release_batch(&self, txn: TxnId, mut resources: Vec<(R, u64)>) {
        resources.sort_unstable_by_key(|&(_, h)| self.shard_of(h));
        for group in resources.chunk_by(|a, b| self.shard_of(a.1) == self.shard_of(b.1)) {
            let mut shard = self.shard_locked(self.shard_of(group[0].1));
            for (r, h) in group {
                self.release_real(&mut shard, txn, r, *h);
            }
        }
    }

    /// Releases `txn`'s real grant on `r` under the locked shard owning it
    /// (the caller already took the inventory entry out): the grant leaves
    /// the shard map and the slot's class count, the resource's queue is
    /// re-processed and a saturated slot repaired.
    fn release_real(&self, shard: &mut ShardInner<R>, txn: TxnId, r: &R, h: u64) {
        let Some(state) = shard.resources.get_mut(r) else {
            return;
        };
        let Some(i) = state.granted.iter().position(|g| g.txn == txn) else {
            return;
        };
        let g = state.granted.remove(i);
        self.trace_lock(EventKind::Release, txn, h, g.mode, r, "");
        // Intent releases move no class count but still bump the version so
        // in-flight optimistic validations observe the writer.
        slot_update(self.slot_from_hash(h), |w| summary::class_delta(w, g.mode, LockMode::NL));
        self.drop_state_if_empty(shard, r);
        LockStats::bump(&self.stats.releases);
        self.process_queue(shard, r);
        self.maybe_desaturate(shard, self.slot_index_from_hash(h));
    }
}

#[cfg(test)]
mod tests {
    use crate::mode::LockMode::*;
    use crate::table::tests::{t, Mgr};
    use crate::table::LockRequestOptions;

    #[test]
    fn release_all_cleans_table() {
        let m = Mgr::new();
        m.acquire(t(1), "a", IS, LockRequestOptions::default()).unwrap();
        m.acquire(t(1), "b", S, LockRequestOptions::default()).unwrap();
        assert_eq!(m.release_all(t(1)), 2);
        assert_eq!(m.table_size(), 0);
        assert!(m.locks_of(t(1)).is_empty());
    }

    #[test]
    fn release_short_keeps_long_locks() {
        let m = Mgr::new();
        m.acquire(t(1), "a", S, LockRequestOptions::long()).unwrap();
        m.acquire(t(1), "b", IS, LockRequestOptions::default()).unwrap();
        assert_eq!(m.release_short(t(1)), 1);
        assert_eq!(m.held_mode(t(1), &"a"), S);
        assert_eq!(m.held_mode(t(1), &"b"), NL);
    }
}
