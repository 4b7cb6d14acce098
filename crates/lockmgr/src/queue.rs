//! Per-resource grant/wait queues: the blocking relation, the shard-mutex
//! decision, queue processing and waiting.
//!
//! Scheduling policy, all of it read off one relation
//! ([`ResourceState::blockers`]):
//!
//! * a request is granted immediately when no *other* holder is
//!   incompatible **and** no live waiter in the queue is (no overtaking of
//!   incompatible waiters → no starvation),
//! * conversions (upgrades by a transaction that already holds the resource)
//!   only need compatibility with the other holders and bypass the queue, as
//!   in System R,
//! * on every release the releasing resource's queue is re-processed
//!   (conversions first, then front to back); a waiter may pass blocked
//!   *compatible* predecessors — granting a compatible mode can never delay
//!   the predecessor's own grant — so the grant policy and the detector's
//!   waits-for edges are the same relation by construction; queues of
//!   unrelated resources are never touched,
//! * granted-but-not-yet-woken and victim-marked waiters are not *live*:
//!   they block nobody and get no edges,
//! * when a request starts waiting, the snapshot deadlock detector
//!   (`detector.rs`) runs over the cross-shard waits-for graph.

use crate::error::LockError;
use crate::inventory::HeldLock;
use crate::mode::LockMode;
use crate::stats::LockStats;
use crate::summary::{self, slot_update, SealGuard};
use crate::table::{
    AcquireOutcome, FastMap, LockManager, LockRequestOptions, Resource, ShardGuard, WaitPolicy,
};
use crate::txnid::TxnId;
use crate::Result;
use colock_testkit::explore;
use colock_trace::EventKind;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub(crate) struct Grant {
    pub(crate) txn: TxnId,
    pub(crate) mode: LockMode,
    pub(crate) long: bool,
}

#[derive(Debug)]
pub(crate) struct Waiter {
    pub(crate) txn: TxnId,
    /// The *target* mode (join of held and requested for conversions).
    pub(crate) mode: LockMode,
    pub(crate) conversion: bool,
    pub(crate) long: bool,
    pub(crate) granted: bool,
    pub(crate) victim: Option<Vec<TxnId>>,
}

impl Waiter {
    /// Still waiting for a verdict: neither granted (runnable, about to
    /// leave) nor condemned as a deadlock victim (about to abort).
    pub(crate) fn live(&self) -> bool {
        !self.granted && self.victim.is_none()
    }
}

#[derive(Debug, Default)]
pub(crate) struct ResourceState {
    pub(crate) granted: Vec<Grant>,
    pub(crate) waiting: VecDeque<Waiter>,
    /// Wakeups are targeted: only threads blocked on *this* resource wait
    /// here. Cloned out of the shard before sleeping. Lazily allocated by the
    /// first waiter — uncontended resources never pay for a condvar.
    pub(crate) cond: Option<Arc<Condvar>>,
}

impl ResourceState {
    /// The blocking relation: who stands in the way of `txn` holding `mode`
    /// here. Every *other* holder with an incompatible mode, then — unless
    /// the request is a conversion, which bypasses queue order — every live
    /// waiter among the first `ahead` queue entries with an incompatible
    /// mode (FIFO fairness; an arriving request has the whole queue ahead).
    /// The immediate decision, the queue pass, `WouldBlock.holders` and the
    /// detector's edges are all this one function.
    /// `tests` counts the compatibility tests performed.
    pub(crate) fn blockers<'a>(
        &'a self,
        txn: TxnId,
        mode: LockMode,
        conversion: bool,
        ahead: usize,
        tests: &'a mut u64,
    ) -> impl Iterator<Item = TxnId> + 'a {
        let holders = self.granted.iter().map(|g| (g.txn, g.mode));
        let queued = self
            .waiting
            .iter()
            .take(if conversion { 0 } else { ahead })
            .filter(|w| w.live())
            .map(|w| (w.txn, w.mode));
        holders
            .chain(queued)
            .filter(move |&(other, theirs)| {
                other != txn && {
                    *tests += 1;
                    !mode.compatible(theirs)
                }
            })
            .map(|(other, _)| other)
    }

    /// Adds this resource's share-class grants, exclusive-class grants and
    /// queue entries to `real` — the three summary fields the shard mutex
    /// owns.
    pub(crate) fn tally_real(&self, real: &mut [u64; 3]) {
        for g in &self.granted {
            if g.mode.is_share_class() {
                real[0] += 1;
            } else if g.mode.is_exclusive_class() {
                real[1] += 1;
            }
        }
        real[2] += self.waiting.len() as u64;
    }
}

#[derive(Debug)]
pub(crate) struct ShardInner<R: Resource> {
    pub(crate) resources: FastMap<R, ResourceState>,
}

impl<R: Resource> Default for ShardInner<R> {
    fn default() -> Self {
        ShardInner { resources: FastMap::default() }
    }
}

impl<R: Resource> LockManager<R> {
    /// The grant decision: nothing blocks `txn` taking `mode` at queue
    /// position `ahead`. Counts the compatibility tests it took.
    fn unblocked(
        &self,
        state: &ResourceState,
        txn: TxnId,
        mode: LockMode,
        conversion: bool,
        ahead: usize,
    ) -> bool {
        let mut tests = 0;
        let free = state.blockers(txn, mode, conversion, ahead, &mut tests).next().is_none();
        if tests != 0 {
            LockStats::add(&self.stats.conflict_tests, tests);
        }
        free
    }

    /// The classic shard-mutex acquire path. Pessimistic S/SIX/X decisions
    /// seal the summary slot and drain outstanding optimistic grants into
    /// real shard grants before deciding, so the blocking relation always
    /// sees the complete granted group. A grant whose lock ends up long is
    /// staged in the inventory for its request's grant set, and `staged`
    /// is raised.
    pub(crate) fn acquire_pessimistic(
        &self,
        txn: TxnId,
        resource: R,
        mode: LockMode,
        opts: LockRequestOptions,
        staged: &mut bool,
    ) -> Result<AcquireOutcome> {
        LockStats::bump(&self.stats.requests);
        let h = Self::hash_of(&resource);
        let slot_idx = self.slot_index_from_hash(h);
        let slot = &self.summaries[slot_idx];
        self.trace_lock(EventKind::Request, txn, h, mode, &resource, "");
        let mut shard = self.shard_locked(self.shard_of(h));

        // Held mode comes from our own grant entry in the shard (there is at
        // most one per txn/resource), keeping the hot path off the stripes.
        let grant = shard
            .resources
            .get(&resource)
            .and_then(|s| s.granted.iter().find(|g| g.txn == txn));
        let mut held = grant.map(|g| g.mode).unwrap_or(LockMode::NL);
        let held_long = grant.is_some_and(|g| g.long);
        if held == LockMode::NL && summary::opt_total(slot.load(Ordering::Acquire)) != 0 {
            // An own fast-path grant lives only in the inventory; surface it
            // so covering answers and conversion events see the true held
            // mode. Zero optimistic counts prove there is nothing to find,
            // keeping the common path at one atomic load.
            let stripe = self.stripe_locked(txn);
            if let Some(e) = stripe.get(&txn).and_then(|t| t.held.get(&resource)) {
                if e.optimistic {
                    held = e.mode;
                }
            }
        }
        // A long request is covered only by a long grant: a short one that
        // covers the mode is *widened* — the same mode, now long, staged for
        // the journal like a conversion (an optimistic grant is migrated
        // into the shard map on the way, as for any conversion).
        let widen = opts.long && !held_long && held.covers(mode);
        if held.covers(mode) && !widen {
            self.trace_lock(EventKind::Grant, txn, h, held, &resource, "already-held");
            return Ok(AcquireOutcome::AlreadyHeld);
        }
        let target = held.join(mode);
        let conversion = held != LockMode::NL;
        if conversion && !widen {
            LockStats::bump(&self.stats.conversions);
            let kind = EventKind::Conversion;
            self.trace_lock(kind, txn, h, target, &resource, format_args!("{held} -> {target}"));
        }

        // A grant is staged for the journal when the resulting lock is
        // long: either the request itself is long, or it converts a grant
        // that already is (the conversion target must survive a crash just
        // like the original mode did). `install_grant` marks the entry.
        let journal_long = opts.long || (conversion && held_long);

        // S/SIX/X decisions must account for every optimistic grant. With
        // optimists outstanding, seal the slot first: from here to our own
        // publication no optimist can publish, and the drain has migrated
        // every outstanding optimistic grant into the shard map — including
        // our own, which is why the seal comes before the decision. With
        // none outstanding — the overwhelmingly common case — skip the
        // seal: the validated CAS at publication time (below) proves no
        // optimist slipped in between decision and grant. Intent targets
        // never seal: optimistic grants are compatible with them by
        // construction (two intents never conflict).
        let mut seal = if !target.is_intent()
            && summary::opt_total(slot.load(Ordering::Acquire)) != 0
        {
            Some(self.seal_and_drain(&mut shard, slot_idx))
        } else {
            None
        };

        // An arriving request has the whole queue ahead of it.
        let decide = |shard: &ShardInner<R>| {
            shard.resources.get(&resource).is_none_or(|s| {
                self.unblocked(s, txn, target, conversion, s.waiting.len())
            })
        };
        let mut grantable = decide(&shard);
        let mut reserved = false;
        if grantable && !target.is_intent() && seal.is_none() {
            // One CAS that moves our class counts and atomically re-checks
            // that no optimist published since the decision. Failure (an
            // optimist raced in, or the version churned past the retry
            // budget) falls back to the full seal-and-drain decision;
            // draining only *adds* grants, so the request must be
            // re-decided and may now have to wait.
            reserved = self.try_reserve_classes(slot, held, target);
            if !reserved {
                seal = Some(self.seal_and_drain(&mut shard, slot_idx));
                grantable = decide(&shard);
            }
        }

        if grantable {
            *staged |= journal_long;
            let (prev, absorbed) =
                self.install_grant(&mut shard, txn, &resource, target, opts.long, h);
            if reserved {
                // The reserve CAS already published the class move; it
                // validated zero optimistic counts, so there was nothing to
                // absorb and the previous mode is the real grant's.
                debug_assert!(absorbed.is_none() && prev == held, "reserve raced an optimist");
            } else {
                self.publish_grant(slot, seal.take(), prev, target, absorbed);
            }
            if widen {
                self.trace_lock(EventKind::Grant, txn, h, held, &resource, "already-held");
                return Ok(AcquireOutcome::AlreadyHeld);
            }
            LockStats::bump(&self.stats.immediate_grants);
            self.trace_lock(EventKind::Grant, txn, h, target, &resource, "immediate");
            return Ok(AcquireOutcome::Granted { waited: false });
        }

        if opts.policy != WaitPolicy::Try {
            let outcome =
                self.block_until_granted(shard, txn, resource, h, target, conversion, opts, seal);
            *staged |= journal_long && outcome.is_ok();
            return outcome;
        }
        let state = shard.resources.get(&resource).expect("a blocked request has a state");
        let holders: Vec<TxnId> = state.blockers(txn, target, conversion, 0, &mut 0).collect();
        // A live seal guard unseals itself on drop.
        Err(LockError::WouldBlock { holders })
    }

    /// Resource-state accessor that creates the entry on first use and
    /// maintains the live-resource count / high-water mark.
    pub(crate) fn state_entry<'a>(
        &self,
        shard: &'a mut ShardInner<R>,
        resource: &R,
    ) -> &'a mut ResourceState {
        if !shard.resources.contains_key(resource) {
            shard.resources.insert(resource.clone(), ResourceState::default());
            let live = self.live_resources.fetch_add(1, Ordering::Relaxed) + 1;
            LockStats::raise(&self.stats.max_table_entries, live);
        }
        shard.resources.get_mut(resource).expect("just inserted")
    }

    pub(crate) fn drop_state_if_empty(&self, shard: &mut ShardInner<R>, resource: &R) {
        if let Some(s) = shard.resources.get(resource) {
            if s.granted.is_empty() && s.waiting.is_empty() {
                shard.resources.remove(resource);
                self.live_resources.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Installs (or joins) the real grant and the inventory entry. Returns
    /// the grant's previous real mode (`NL` if new) and, when the inventory
    /// entry was an optimistic fast-path grant absorbed by this install, its
    /// mode — the caller owes the summary slot that decrement. An entry that
    /// ends up long is staged for its request's grant set (with a journal
    /// attached): every install on a long entry changes what a crash must
    /// recover — a new lock, a conversion or a widening.
    pub(crate) fn install_grant(
        &self,
        shard: &mut ShardInner<R>,
        txn: TxnId,
        resource: &R,
        mode: LockMode,
        long: bool,
        h: u64,
    ) -> (LockMode, Option<LockMode>) {
        let state = self.state_entry(shard, resource);
        let prev = if let Some(g) = state.granted.iter_mut().find(|g| g.txn == txn) {
            let p = g.mode;
            g.mode = g.mode.join(mode);
            g.long = g.long || long;
            p
        } else {
            state.granted.push(Grant { txn, mode, long });
            LockMode::NL
        };
        // Stripe nests strictly inside the shard critical section (leaf).
        let mut stripe = self.stripe_locked(txn);
        let txn_state = stripe.entry(txn).or_default();
        let entry = txn_state
            .held
            .entry(resource.clone())
            .or_insert(HeldLock::real(h));
        let absorbed = if entry.optimistic { Some(entry.mode) } else { None };
        debug_assert!(
            absorbed.is_none() || prev == LockMode::NL,
            "optimistic entry alongside a real grant"
        );
        entry.mode = entry.mode.join(mode);
        entry.long = entry.long || long;
        entry.optimistic = false;
        entry.staged |= entry.long && self.journal().is_some();
        LockStats::raise(&self.stats.max_locks_per_txn, txn_state.held.len() as u64);
        (prev, absorbed)
    }

    /// Grants queued waiters that nothing blocks any more: conversions
    /// first (anywhere in the queue), then the rest front to back. A no-op
    /// without live waiters.
    ///
    /// Each grant is installed before the next waiter is judged, so every
    /// decision sees the grants made earlier in the pass — two incompatible
    /// waiters (a conversion behind a queued reader, say) can never both be
    /// approved against the same stale granted group. One pass is also the
    /// fixpoint: a grant only adds a holder and retires a queue entry *ahead*
    /// of the waiters still to be judged, so it can unblock nobody already
    /// passed over, and a waiter directly behind a freshly granted
    /// compatible one is reached in the same pass (no lost grant).
    ///
    /// If anything was granted, exactly this resource's condvar is notified.
    pub(crate) fn process_queue(&self, shard: &mut ShardInner<R>, resource: &R) {
        if !shard.resources.get(resource).is_some_and(|s| s.waiting.iter().any(Waiter::live)) {
            return;
        }
        let h = Self::hash_of(resource);
        let slot = self.slot_from_hash(h);
        let mut granted_any = false;
        // Only the waiters themselves leave the queue, and they need the
        // shard mutex held here: the state and its queue length stand.
        let queued = shard.resources.get(resource).map_or(0, |s| s.waiting.len());
        for conversions in [true, false] {
            for i in 0..queued {
                let state = shard.resources.get_mut(resource).expect("a queue keeps its state");
                let w = &state.waiting[i];
                let (txn, mode, long) = (w.txn, w.mode, w.long);
                if !w.live()
                    || w.conversion != conversions
                    || !self.unblocked(state, txn, mode, conversions, i)
                {
                    continue;
                }
                state.waiting[i].granted = true;
                explore::note_wakeup(txn.0);
                let (prev, absorbed) = self.install_grant(shard, txn, resource, mode, long, h);
                // The grantee's own waiter entry keeps the slot's waiter
                // count above zero throughout, blocking new optimists; the
                // publication below only races optimistic releases.
                self.publish_grant(slot, None, prev, prev.join(mode), absorbed);
                self.trace_lock(EventKind::Wakeup, txn, h, mode, resource, "");
                granted_any = true;
            }
        }
        if granted_any {
            // Every granted waiter cloned the condvar out before sleeping, so
            // it is always Some here.
            if let Some(cond) = shard.resources.get(resource).and_then(|s| s.cond.as_ref()) {
                LockStats::bump(&self.stats.wakeups);
                cond.notify_all();
            }
        }
    }

    /// Enqueues the request, runs the deadlock detector on the new wait
    /// edge, and parks on the resource's condvar until a verdict: granted by
    /// `process_queue`, condemned by the detector, refused by a shutdown
    /// drain, or timed out.
    #[allow(clippy::too_many_arguments)]
    fn block_until_granted<'a>(
        &'a self,
        mut shard: ShardGuard<'a, R>,
        txn: TxnId,
        resource: R,
        h: u64,
        target: LockMode,
        conversion: bool,
        opts: LockRequestOptions,
        seal: Option<SealGuard<'a>>,
    ) -> Result<AcquireOutcome> {
        let deadline = match opts.policy {
            WaitPolicy::BlockTimeout(d) => Some(Instant::now() + d),
            _ => None,
        };
        let slot_idx = self.slot_index_from_hash(h);
        let slot = &self.summaries[slot_idx];
        LockStats::bump(&self.stats.waits);
        self.trace_lock(EventKind::Wait, txn, h, target, &resource, "");
        let cond = {
            let state = self.state_entry(&mut shard, &resource);
            state.waiting.push_back(Waiter {
                txn,
                mode: target,
                conversion,
                long: opts.long,
                granted: false,
                victim: None,
            });
            Arc::clone(state.cond.get_or_insert_with(Default::default))
        };
        // Publish waiters+1 (and clear any seal) in one step: with a
        // non-zero waiter count no optimist can publish, so FIFO order
        // holds against the fast path too.
        slot_update(slot, |w| summary::clear_seal(summary::wait_inc(w)));
        if let Some(mut g) = seal {
            g.defuse();
        }
        // The non-zero waiter count now blocks new optimists, but a
        // seal-free S/SIX/X decision may have raced one publishing between
        // its decision and this point. Migrate any stragglers while the
        // shard is still held, so the queued request never waits behind an
        // invisible optimistic grant.
        if !target.is_intent() && summary::opt_total(slot.load(Ordering::Acquire)) != 0 {
            self.drain_slot(&mut shard, slot_idx);
        }
        // Publish the wait edge, then detect with no shard lock held: the
        // detector needs all shards in canonical order.
        drop(shard);
        self.run_detector();
        let mut shard = self.shard_locked(self.shard_of(h));

        // The verdict is re-validated under the shard mutex before every
        // wait, so a grant or victim verdict delivered between checks can
        // never be lost.
        let verdict = loop {
            let own = shard
                .resources
                .get(&resource)
                .and_then(|s| s.waiting.iter().find(|w| w.txn == txn))
                .expect("own waiter present");
            if let Some(cycle) = &own.victim {
                break Err(LockError::Deadlock { victim: txn, cycle: cycle.clone() });
            }
            if own.granted {
                break Ok(());
            }
            if self.draining.load(Ordering::SeqCst) {
                // Shutdown: refuse instead of sleeping.
                break Err(LockError::Draining);
            }
            let left = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(Duration::ZERO) => break Err(LockError::Timeout),
                left => left,
            };
            explore::before_block(txn.0);
            shard = shard.park(&cond, left);
            explore::after_block(txn.0);
        };

        // The one way out of the queue, whatever the verdict.
        if let Some(state) = shard.resources.get_mut(&resource) {
            state.waiting.retain(|w| w.txn != txn);
        }
        slot_update(slot, summary::wait_dec);
        if let Err(e) = verdict {
            // Abandoned: only this resource's queue can have been affected
            // by our departure.
            self.drop_state_if_empty(&mut shard, &resource);
            self.process_queue(&mut shard, &resource);
            return Err(e);
        }
        self.trace_lock(EventKind::Grant, txn, h, target, &resource, "after-wait");
        Ok(AcquireOutcome::Granted { waited: true })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::LockMode::*;
    use crate::table::tests::{t, Mgr, WAIT};
    use colock_testkit::{run_threads, wait_until};
    use std::thread;

    fn blockers_of(state: &ResourceState, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        state.blockers(txn, mode, false, state.waiting.len(), &mut 0).collect()
    }

    /// The satellite fix of the fold: the arrival decision used to park
    /// behind a condemned waiter that the detector gives no edge to.
    #[test]
    fn victim_marked_waiters_block_nobody() {
        let mut state = ResourceState::default();
        state.waiting.push_back(Waiter {
            txn: t(1),
            mode: X,
            conversion: false,
            long: false,
            granted: false,
            victim: None,
        });
        assert_eq!(blockers_of(&state, t(2), S), vec![t(1)], "a live X waiter blocks S");
        state.waiting[0].victim = Some(vec![t(1), t(9)]);
        assert_eq!(blockers_of(&state, t(2), S), vec![], "a condemned one does not");
    }

    #[test]
    fn blockers_are_other_holders_then_live_waiters_ahead() {
        let mut state = ResourceState::default();
        state.granted.push(Grant { txn: t(1), mode: S, long: false });
        state.granted.push(Grant { txn: t(2), mode: IS, long: false });
        for (txn, mode, granted) in [(t(3), X, false), (t(4), S, false), (t(5), X, true)] {
            state.waiting.push_back(Waiter {
                txn,
                mode,
                conversion: false,
                long: false,
                granted,
                victim: None,
            });
        }
        // Arriving X: both holders, then the live waiters (t5 is granted).
        assert_eq!(blockers_of(&state, t(6), X), vec![t(1), t(2), t(3), t(4)]);
        // t4's queued S at position 1 waits for the X ahead only.
        let mut tests = 0;
        let ahead_of_t4: Vec<_> = state.blockers(t(4), S, false, 1, &mut tests).collect();
        assert_eq!((ahead_of_t4, tests), (vec![t(3)], 3));
        // A conversion by t1 ignores its own grant and the whole queue.
        let conv: Vec<_> = state.blockers(t(1), X, true, 3, &mut 0).collect();
        assert_eq!(conv, vec![t(2)]);
    }

    #[test]
    fn release_unblocks_waiter() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            m2.acquire(t(2), "a", X, LockRequestOptions::default()).unwrap()
        });
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        assert!(m.release(t(1), &"a"));
        assert_eq!(h.join().unwrap(), AcquireOutcome::Granted { waited: true });
        assert_eq!(m.held_mode(t(2), &"a"), X);
    }

    #[test]
    fn conversion_waits_for_other_readers() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "a", S, LockRequestOptions::default()).unwrap();
        let err = m.acquire(t(1), "a", X, LockRequestOptions::try_lock()).unwrap_err();
        assert!(matches!(err, LockError::WouldBlock { .. }));
        // Blocking upgrade succeeds once the other reader leaves.
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            m2.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap()
        });
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        m.release(t(2), &"a");
        assert_eq!(h.join().unwrap(), AcquireOutcome::Granted { waited: true });
        assert_eq!(m.held_mode(t(1), &"a"), X);
    }

    #[test]
    fn fifo_no_overtaking_of_waiting_x() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        // t2 queues an X.
        let m2 = Arc::clone(&m);
        let h2 = thread::spawn(move || {
            m2.acquire(t(2), "a", X, LockRequestOptions::default()).unwrap()
        });
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        // t3's S would be compatible with the grant, but must not overtake.
        let err = m.acquire(t(3), "a", S, LockRequestOptions::try_lock()).unwrap_err();
        assert!(matches!(err, LockError::WouldBlock { .. }));
        m.release(t(1), &"a");
        h2.join().unwrap();
        m.release_all(t(2));
        m.acquire(t(3), "a", S, LockRequestOptions::default()).unwrap();
    }

    #[test]
    fn timeout_fires() {
        let m = Mgr::new();
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        let err = m
            .acquire(
                t(2),
                "a",
                X,
                LockRequestOptions {
                    policy: WaitPolicy::BlockTimeout(Duration::from_millis(40)),
                    long: false,
                },
            )
            .unwrap_err();
        assert_eq!(err, LockError::Timeout);
        // The waiter must be fully cleaned up.
        assert_eq!(m.holders(&"a").len(), 1);
    }

    #[test]
    fn many_threads_on_one_resource_make_progress() {
        let m = Arc::new(Mgr::new());
        let m2 = Arc::clone(&m);
        run_threads(16, Duration::from_secs(60), move |i| {
            let id = t(i as u64 + 1);
            for _ in 0..20 {
                match m2.acquire(id, "hot", X, LockRequestOptions::default()) {
                    Ok(_) => {
                        m2.release(id, &"hot");
                    }
                    Err(LockError::Deadlock { .. }) => {
                        m2.release_all(id);
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        });
        assert_eq!(m.table_size(), 0);
    }
}
