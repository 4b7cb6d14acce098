//! Requests: the journal boundary of one protocol call.
//!
//! A [`Request`] is how a caller takes several locks as one unit of
//! durability: every long grant, conversion or widening made through it is
//! staged in the transaction's inventory (`inventory.rs`), and
//! [`Request::finish`] writes them as one `grantset` journal record
//! (`persistent.rs`). [`LockManager::acquire`] and
//! [`LockManager::acquire_intent_chain`] are requests of one call each.

use crate::mode::LockMode;
use crate::table::{AcquireOutcome, LockManager, LockRequestOptions, Resource};
use crate::txnid::TxnId;
use crate::Result;
#[cfg(doc)]
use crate::error::LockError;
use colock_testkit::explore;

/// One request's journal boundary. The locks taken through it stage their
/// long grants, conversions and widenings in `txn`'s inventory instead of
/// journaling each; [`Request::finish`] writes them as one grant set with
/// their joined modes — before the caller acknowledges anything, and with
/// no shard locked. A request that staged nothing finishes for free.
///
/// The grant is durable before it is *acknowledged*, not before it is
/// installed: a crash between the two loses only in-memory grants nobody
/// was told about.
#[must_use = "staged long grants reach the journal only through `Request::finish`"]
pub struct Request<'a, R: Resource> {
    lm: &'a LockManager<R>,
    txn: TxnId,
    /// Whether a lock taken through this request staged a long grant.
    staged: bool,
}

impl<'a, R: Resource> Request<'a, R> {
    pub(crate) fn new(lm: &'a LockManager<R>, txn: TxnId) -> Self {
        Request { lm, txn, staged: false }
    }

    /// Acquires (or converts to) `mode` on `resource`.
    ///
    /// Short IS/IX requests first try the optimistic fast path (a validated
    /// CAS on the slot's mode-summary word, no shard mutex) as a chain of
    /// one; every other request — and every fast-path refusal — takes the
    /// classic shard-mutex path.
    pub fn acquire(
        &mut self,
        resource: R,
        mode: LockMode,
        opts: LockRequestOptions,
    ) -> Result<AcquireOutcome> {
        debug_assert!(mode != LockMode::NL, "cannot acquire NL");
        explore::yield_point(|| format!("acquire {mode}|{resource:?}"));
        let (lm, txn) = (self.lm, self.txn);
        if lm.gate_open(mode, opts) {
            let mut answer = None;
            lm.gate_links(txn, std::slice::from_ref(&resource), mode, |o| answer = Some(o));
            if let Some(outcome) = answer {
                return Ok(outcome);
            }
        }
        lm.acquire_pessimistic(txn, resource, mode, opts, &mut self.staged)
    }

    /// Acquires `mode` (an intent) on every resource of `chain`, front to
    /// back — the protocol layer's ancestor chain. Consecutive fast-path
    /// answers share one stripe critical section and coalesced stats; any
    /// link the gate refuses (conversion, summary conflict) is delegated to
    /// the pessimistic path and the batch resumes after it. With the gate
    /// closed (long request, fast path disabled) the chain is the plain
    /// sequence of [`Request::acquire`] calls. Outcomes come back per link,
    /// in order; an error keeps earlier grants, exactly like that sequence.
    pub fn acquire_intent_chain(
        &mut self,
        chain: &[R],
        mode: LockMode,
        opts: LockRequestOptions,
    ) -> Result<Vec<AcquireOutcome>> {
        debug_assert!(mode.is_intent(), "chain batching is for intent modes");
        explore::yield_point(|| {
            let mut label = format!("chain {mode}");
            for r in chain {
                label.push('|');
                label.push_str(&format!("{r:?}"));
            }
            label
        });
        let (lm, txn) = (self.lm, self.txn);
        if !lm.gate_open(mode, opts) {
            return chain.iter().map(|r| self.acquire(r.clone(), mode, opts)).collect();
        }
        let mut out = Vec::with_capacity(chain.len());
        while out.len() < chain.len() {
            lm.gate_links(txn, &chain[out.len()..], mode, |o| out.push(o));
            if let Some(refused) = chain.get(out.len()) {
                // Delegate directly (not via `acquire`): the gate already
                // counted this link, so re-entering it would double-count.
                let outcome =
                    lm.acquire_pessimistic(txn, refused.clone(), mode, opts, &mut self.staged)?;
                out.push(outcome);
            }
        }
        Ok(out)
    }

    /// Ends the request: journals every long grant it staged as one grant
    /// set. Call it whether the request's locks succeeded or not — grants
    /// made before an error stay held, so they must be durable too. A
    /// journal crash is [`LockError::Crashed`]: nothing the request did may
    /// be acknowledged.
    pub fn finish(self) -> Result<()> {
        if self.staged {
            self.lm.flush_staged(self.txn)
        } else {
            Ok(())
        }
    }
}
