//! The optimistic intent fast path and its hand-over to the shard-mutex path.
//!
//! Short IS/IX requests — the protocol's ancestor-chain intents, the most
//! frequent requests in the system — can bypass the shard mutex entirely. A
//! compatible intent publishes itself by validate-and-CAS on its slot's
//! mode-summary word (`summary.rs`, bounded retries); the grant then lives
//! only in the transaction's inventory, marked *optimistic*, and never
//! materializes in the shard map. An optimistic grant converts to a
//! stronger intent (IS → IX, say) the same way: one validated CAS moves it
//! from its old lane to the new one. Any pessimistic S/SIX/X decision on
//! the slot first *seals* the word and *drains* outstanding optimistic
//! grants into real shard grants, so the classic path always decides
//! against a complete granted group; waiters, conversions of real grants,
//! long locks and saturated counters all force the fallback. See DESIGN.md
//! §5 for the equivalence argument; [`LockManager::set_fastpath`] disables
//! the gate for ablations and differential testing.

use crate::inventory::HeldLock;
use crate::mode::LockMode;
use crate::queue::{Grant, ShardInner};
use crate::stats::LockStats;
use crate::summary::{self, slot_update, SealGuard};
use crate::table::{
    AcquireOutcome, LockManager, Resource, MAX_FASTPATH_ATTEMPTS, SLOTS_PER_SHARD,
};
use crate::txnid::TxnId;
use colock_trace::EventKind;
use std::sync::atomic::{AtomicU64, Ordering};

impl<R: Resource> LockManager<R> {
    /// The optimistic gate: answers `links` front to back from the inventory
    /// and the summary words alone — one stripe critical section, no shard
    /// mutex — reporting each outcome through `answer`, and stops at the
    /// first link it must refuse (conversion of a real grant, summary
    /// conflict, retry exhaustion). The caller takes that link down the
    /// pessimistic path; the fallback is counted here, the request itself by
    /// whichever path answers. Stats and trace are coalesced after the
    /// unlock.
    ///
    /// Kept out of line: inlined into `acquire`, its frame taxes every
    /// non-intent request too (`reentrant_covered_acquire`, +7 %).
    #[inline(never)]
    pub(crate) fn gate_links(
        &self,
        txn: TxnId,
        links: &[R],
        mode: LockMode,
        mut answer: impl FnMut(AcquireOutcome),
    ) {
        // Per answered link, for the trace only: the mode held before the
        // request (`None` for a fresh optimistic grant).
        let traced = self.trace().is_enabled();
        let mut before: Vec<Option<LockMode>> = Vec::new();
        let (mut answered, mut intents, mut hits, mut conversions) = (0, 0, 0, 0);
        let mut fell_back = false;
        {
            let mut stripe = self.stripe_locked(txn);
            let t = stripe.entry(txn).or_default();
            for r in links {
                let entry = t.held.get_mut(r);
                let held = entry.as_ref().map(|e| e.mode);
                let covered = held.is_some_and(|m| m.covers(mode));
                if !covered {
                    intents += 1;
                    match entry {
                        None => {
                            let h = Self::hash_of(r);
                            if !self.publish_optimistic(self.slot_from_hash(h), None, mode) {
                                fell_back = true;
                                break;
                            }
                            // Published: the inventory entry must exist
                            // before the stripe unlocks, or a draining
                            // pessimist could find the count with nothing
                            // to migrate.
                            let e = HeldLock { optimistic: true, mode, ..HeldLock::real(h) };
                            t.held.insert(r.clone(), e);
                            LockStats::raise(&self.stats.max_locks_per_txn, t.held.len() as u64);
                        }
                        // An optimistic grant moves lanes in one CAS. The
                        // mode is rewritten before the stripe unlocks, so a
                        // drainer sees the old (mode, lane) pair or the new
                        // one, never a mix. Intents join to an intent.
                        Some(e) if e.optimistic => {
                            let target = e.mode.join(mode);
                            let slot = self.slot_from_hash(e.hash);
                            if !self.publish_optimistic(slot, Some(e.mode), target) {
                                fell_back = true;
                                break;
                            }
                            e.mode = target;
                            conversions += 1;
                        }
                        // Conversions of real grants belong to the
                        // pessimistic path.
                        Some(_) => {
                            fell_back = true;
                            break;
                        }
                    }
                    hits += 1;
                }
                if traced {
                    before.push(held);
                }
                answer(if covered {
                    AcquireOutcome::AlreadyHeld
                } else {
                    AcquireOutcome::Granted { waited: false }
                });
                answered += 1;
            }
            if t.held.is_empty() {
                stripe.remove(&txn);
            }
        }
        LockStats::add(&self.stats.requests, answered);
        if intents != 0 {
            LockStats::add(&self.stats.intent_acquires, intents);
        }
        if fell_back {
            LockStats::bump(&self.stats.fastpath_fallbacks);
        }
        if hits != 0 {
            LockStats::add(&self.stats.immediate_grants, hits);
            LockStats::add(&self.stats.fastpath_hits, hits);
        }
        if conversions != 0 {
            LockStats::add(&self.stats.conversions, conversions);
        }
        // The pessimistic path's event order: Request, Conversion, Grant.
        for (r, held) in links.iter().zip(before) {
            let h = Self::hash_of(r);
            self.trace_lock(EventKind::Request, txn, h, mode, r, "");
            match held {
                Some(held) if held.covers(mode) => {
                    self.trace_lock(EventKind::Grant, txn, h, held, r, "already-held")
                }
                Some(held) => {
                    let target = held.join(mode);
                    let detail = format_args!("{held} -> {target}");
                    self.trace_lock(EventKind::Conversion, txn, h, target, r, detail);
                    self.trace_lock(EventKind::Grant, txn, h, target, r, "fastpath");
                }
                None => self.trace_lock(EventKind::Grant, txn, h, mode, r, "fastpath"),
            }
        }
    }

    /// Bounded validate-and-CAS publication of one optimistic intent `to`
    /// into `slot` — or, with `from`, the conversion of an optimistic grant
    /// already counted there: the word is validated and published as if
    /// `from` were gone (both lanes may be the same; the word then only
    /// changes version). Retries only on a lost CAS (the version moved); any
    /// summary conflict — seal, waiters, class counts, saturation — refuses
    /// immediately.
    fn publish_optimistic(&self, slot: &AtomicU64, from: Option<LockMode>, to: LockMode) -> bool {
        for _ in 0..MAX_FASTPATH_ATTEMPTS {
            let w = slot.load(Ordering::Acquire);
            let base = from.map_or(w, |m| summary::opt_dec(w, m));
            if !summary::admits(base, to) {
                return false;
            }
            if self.probe_armed.load(Ordering::Relaxed) {
                if let Some(probe) = self.probe_locked().as_mut() {
                    probe();
                }
            }
            let next = summary::bump_version(summary::opt_inc(base, to));
            if slot.compare_exchange(w, next, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                return true;
            }
            LockStats::bump(&self.stats.fastpath_retries);
        }
        false
    }

    /// Seals the slot (no optimistic publication can succeed past this
    /// point) and migrates every outstanding optimistic grant hashing to it
    /// into a real shard grant, so the blocking relation decides against the
    /// complete granted group. The caller must hold the mutex of the shard
    /// every resource of this slot maps to. The returned guard unseals on
    /// drop unless the caller folds the clear into its own publication.
    pub(crate) fn seal_and_drain<'a>(
        &'a self,
        shard: &mut ShardInner<R>,
        slot_idx: usize,
    ) -> SealGuard<'a> {
        let slot = &self.summaries[slot_idx];
        debug_assert!(!summary::sealed(slot.load(Ordering::Acquire)), "double seal");
        let w = slot_update(slot, |w| w | summary::SEALED);
        if summary::opt_total(w) != 0 {
            self.drain_slot(shard, slot_idx);
        }
        SealGuard { slot, armed: true }
    }

    /// Migrates the optimistic grants of one slot into the shard map (the
    /// caller holds that shard's mutex). Migration emits no trace events:
    /// each grant was already reported when it was published, and a second
    /// Grant here could land inside its owner's shrinking phase (see
    /// DESIGN.md §5).
    pub(crate) fn drain_slot(&self, shard: &mut ShardInner<R>, slot_idx: usize) {
        LockStats::bump(&self.stats.fastpath_drains);
        let slot = &self.summaries[slot_idx];
        self.walk_optimistic(|owner, r, e| {
            if self.slot_index_from_hash(e.hash) != slot_idx {
                return true;
            }
            let state = self.state_entry(shard, r);
            debug_assert!(state.granted.iter().all(|g| g.txn != owner));
            state.granted.push(Grant { txn: owner, mode: e.mode, long: false });
            e.optimistic = false;
            // The seal (or a published waiter count) blocks new
            // publications, so counts only fall (owner releases and our own
            // migrations): once zero, no entry is left to find.
            summary::opt_total(slot_update(slot, |w| summary::opt_dec(w, e.mode))) != 0
        });
        debug_assert_eq!(summary::opt_total(slot.load(Ordering::Acquire)), 0);
    }

    /// Bounded validate-and-CAS publication of a pessimistic class move
    /// (`prev → target`) for a slot with **no** optimistic grants
    /// outstanding. The CAS atomically re-validates that the optimistic
    /// counts are still zero at the publication instant — success proves no
    /// fast-path grant predates this decision, making the seal-and-drain
    /// detour unnecessary. Returns `false` (publishing nothing) when an
    /// optimist shows up or the version churns past the retry budget; the
    /// caller then seals, drains and re-decides. The seal check is
    /// defensive: same-slot pessimists serialize on this shard's mutex.
    pub(crate) fn try_reserve_classes(
        &self,
        slot: &AtomicU64,
        prev: LockMode,
        target: LockMode,
    ) -> bool {
        for _ in 0..MAX_FASTPATH_ATTEMPTS {
            let w = slot.load(Ordering::Acquire);
            if summary::opt_total(w) != 0 || summary::sealed(w) {
                return false;
            }
            let next = summary::bump_version(summary::class_delta(w, prev, target));
            if slot.compare_exchange(w, next, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                return true;
            }
        }
        false
    }

    /// Publishes a pessimistic grant's effect on the summary word — the
    /// class-count move `prev → now`, the decrement for an absorbed own
    /// optimistic grant, and the seal clear — as one versioned update. A
    /// no-op when nothing changed and no seal is armed (pure intent grants).
    pub(crate) fn publish_grant(
        &self,
        slot: &AtomicU64,
        mut seal: Option<SealGuard<'_>>,
        prev: LockMode,
        now: LockMode,
        absorbed: Option<LockMode>,
    ) {
        let class_moved = prev.is_share_class() != now.is_share_class()
            || prev.is_exclusive_class() != now.is_exclusive_class();
        if seal.is_none() && !class_moved && absorbed.is_none() {
            return;
        }
        slot_update(slot, |w| {
            let mut w = summary::class_delta(w, prev, now);
            if let Some(m) = absorbed {
                w = summary::opt_dec(w, m);
            }
            summary::clear_seal(w)
        });
        if let Some(g) = seal.as_mut() {
            g.defuse();
        }
    }

    /// Repairs a slot whose share / x / waiter count saturated sticky at
    /// [`summary::COUNT_MAX`]: once the burst that pinned it drains, the
    /// fields are recounted from the shard map and rewritten, so the slot's
    /// fast path comes back instead of staying disabled for the process
    /// lifetime. Called on the release path with the shard mutex held —
    /// every mutator of those three fields holds it too, so the recount is
    /// exact; the optimistic fields (mutated lock-free) are left alone and
    /// the rewrite goes through a version-bumped CAS. The check is one
    /// atomic load on the common (unsaturated) path.
    pub(crate) fn maybe_desaturate(&self, shard: &ShardInner<R>, slot_idx: usize) {
        let slot = &self.summaries[slot_idx];
        let w = slot.load(Ordering::Acquire);
        if !summary::real_saturated(w) || summary::sealed(w) {
            return;
        }
        let mut real = [0u64; 3];
        for (r, state) in &shard.resources {
            if self.slot_index_from_hash(Self::hash_of(r)) == slot_idx {
                state.tally_real(&mut real);
            }
        }
        if real.iter().any(|&n| n >= summary::COUNT_MAX) {
            return; // still genuinely at the ceiling
        }
        slot_update(slot, |w| summary::rewrite_real(w, real));
        LockStats::bump(&self.stats.desaturations);
    }

    /// Debug re-derivation: recomputes every summary word from the shard
    /// maps and the inventories and compares. Only meaningful at quiescent
    /// points (no in-flight acquire or release) — tests and the stress
    /// harnesses call it between rounds. Sticky-saturated count fields are
    /// skipped (they are permanently conservative by design). Returns a
    /// description of the first mismatch.
    pub fn check_summary_consistency(&self) -> std::result::Result<(), String> {
        // Per slot: the optimistic IS / IX lanes, then share / x / waiters.
        let mut optimistic = vec![[0u64; 2]; self.summaries.len()];
        let mut real = vec![[0u64; 3]; self.summaries.len()];
        let mut stray = None;
        self.walk_optimistic(|_, r, e| {
            match e.mode.fastpath_lane() {
                Some(LockMode::IS) => optimistic[self.slot_index_from_hash(e.hash)][0] += 1,
                Some(LockMode::IX) => optimistic[self.slot_index_from_hash(e.hash)][1] += 1,
                _ => stray = Some(format!("optimistic non-intent grant {} on {r:?}", e.mode)),
            }
            stray.is_none()
        });
        if let Some(msg) = stray {
            return Err(msg);
        }
        for si in 0..self.shards.len() {
            for (r, state) in &self.shard_locked(si).resources {
                state.tally_real(&mut real[self.slot_index_from_hash(Self::hash_of(r))]);
            }
        }
        for (idx, slot) in self.summaries.iter().enumerate() {
            let (si, li) = (idx / SLOTS_PER_SHARD, idx % SLOTS_PER_SHARD);
            let w = slot.load(Ordering::Acquire);
            let fields = [
                ("opt_is", summary::opt_is(w), optimistic[idx][0]),
                ("opt_ix", summary::opt_ix(w), optimistic[idx][1]),
                ("share", summary::share(w), real[idx][0]),
                ("x", summary::x(w), real[idx][1]),
                ("waiters", summary::waiters(w), real[idx][2]),
            ];
            for (name, got, want) in fields {
                if got != summary::COUNT_MAX && got != want {
                    return Err(format!(
                        "shard {si} slot {li}: summary {name}={got}, table says {want}"
                    ));
                }
            }
            if summary::sealed(w) {
                return Err(format!("shard {si} slot {li}: sealed at quiescence"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::error::LockError;
    use crate::mode::LockMode::*;
    use crate::summary;
    use crate::table::tests::{t, Mgr};
    use crate::table::{AcquireOutcome, LockRequestOptions};
    use std::sync::atomic::Ordering;

    #[test]
    fn fastpath_intent_never_enters_the_shard_map() {
        let m = Mgr::new();
        m.set_fastpath(true);
        assert_eq!(
            m.acquire(t(1), "a", IS, LockRequestOptions::default()).unwrap(),
            AcquireOutcome::Granted { waited: false }
        );
        // The grant is inventory-only...
        assert_eq!(m.table_size(), 0);
        assert_eq!(m.held_mode(t(1), &"a"), IS);
        assert_eq!(m.holders(&"a"), vec![(t(1), IS)]);
        assert_eq!(m.grant_count(), 1);
        let s = m.stats().snapshot();
        assert_eq!((s.intent_acquires, s.fastpath_hits, s.fastpath_fallbacks), (1, 1, 0));
        // ...and an S by someone else drains it into a real grant.
        m.acquire(t(2), "a", S, LockRequestOptions::default()).unwrap();
        assert_eq!(m.table_size(), 1);
        assert_eq!(m.holders(&"a").len(), 2);
        assert!(m.stats().snapshot().fastpath_drains >= 1);
        m.check_summary_consistency().unwrap();
        m.release_all(t(1));
        m.release_all(t(2));
        assert_eq!(m.table_size(), 0);
        m.check_summary_consistency().unwrap();
    }

    #[test]
    fn semantic_modes_ride_the_intent_fastpath_lanes() {
        let m = Mgr::new();
        m.set_fastpath(true);
        m.acquire(t(1), "set", Insert, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "set", Insert, LockRequestOptions::default()).unwrap();
        m.acquire(t(3), "set", Delete, LockRequestOptions::default()).unwrap();
        m.acquire(t(4), "set", Member, LockRequestOptions::default()).unwrap();
        // All four commute: inventory-only grants, no shard-map entry.
        assert_eq!(m.table_size(), 0);
        let s = m.stats().snapshot();
        assert_eq!((s.intent_acquires, s.fastpath_hits, s.fastpath_fallbacks), (4, 4, 0));
        m.check_summary_consistency().unwrap();
        // A whole-container S conflicts with the writers: it drains the
        // slot and is refused, reporting exactly the Insert/Delete holders
        // (the Member holder commutes with S).
        let err = m.acquire(t(5), "set", S, LockRequestOptions::try_lock()).unwrap_err();
        match err {
            LockError::WouldBlock { mut holders } => {
                holders.sort_unstable();
                assert_eq!(holders, vec![t(1), t(2), t(3)]);
            }
            e => panic!("expected WouldBlock, got {e:?}"),
        }
        assert!(m.stats().snapshot().fastpath_drains >= 1);
        for i in 1..=4 {
            m.release_all(t(i));
        }
        assert_eq!(m.table_size(), 0);
        m.check_summary_consistency().unwrap();
    }

    #[test]
    fn saturated_slot_desaturates_and_recovers_fastpath() {
        let m = Mgr::new();
        m.set_fastpath(true);
        // COUNT_MAX concurrent S holders pin the slot's share field at the
        // sticky ceiling.
        let n = summary::COUNT_MAX;
        for i in 1..=n {
            m.acquire(t(i), "hot", S, LockRequestOptions::default()).unwrap();
        }
        let slot = m.slot_from_hash(Mgr::hash_of(&"hot"));
        assert_eq!(summary::share(slot.load(Ordering::Acquire)), summary::COUNT_MAX);
        for i in 1..=n {
            m.release(t(i), &"hot");
        }
        assert_eq!(m.table_size(), 0);
        // Before the fix the share field stayed pinned at COUNT_MAX forever
        // and `admits` refused every IX-lane publication on the slot.
        assert_eq!(summary::share(slot.load(Ordering::Acquire)), 0);
        assert!(m.stats().snapshot().desaturations >= 1);
        let before = m.stats().snapshot();
        m.acquire(t(5000), "hot", IX, LockRequestOptions::default()).unwrap();
        let after = m.stats().snapshot();
        assert_eq!(after.fastpath_hits - before.fastpath_hits, 1);
        m.check_summary_consistency().unwrap();
        m.release_all(t(5000));
        m.check_summary_consistency().unwrap();
    }
}
