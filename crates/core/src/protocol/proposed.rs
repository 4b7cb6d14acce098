//! The paper's lock protocol (§4.4.2): rules 1–5, with rule 4′ as an option.
//!
//! For a request of mode `M` on a target node:
//!
//! 1./2. (IS/IX) — all *immediate parents* of the target are locked in the
//!    corresponding intent mode, root-to-leaf. If the target is the root of
//!    an inner unit (an entry point), the concurrency control manager locks
//!    all immediate parents up to the root of the superunit on behalf of the
//!    transaction ("implicit upward propagation").
//! 3./4. (S/X) — as above, and in addition the concurrency control manager
//!    S/X-locks all entry points of lower (dependent) inner units accessible
//!    via the requested node ("implicit downward propagation", crossing
//!    superunit boundaries transitively).
//! 4′. Under an X request, entry points of *modifiable* lower inner units are
//!    X-locked while *non-modifiable* ones are only S-locked.
//! 5. Locks are requested root-to-leaf; released leaf-to-root or at EOT.
//!
//! Downward propagation discovers entry points by scanning the references in
//! the data being accessed (which the query has to read anyway), so it adds
//! no extra I/O; only the entry points themselves enter the lock table, which
//! keeps the table growth moderate (§4.4.2.1). By the Fig. 5 derivation
//! rules an entry point sits only behind a reference edge of the schema, so
//! the scan runs only below one: a target whose type holds no `Ref`
//! (Fig. 7's `c_objects`, a `trajectory`) has no entry point, and the store
//! neither latches nor walks its instance for it.

use crate::protocol::engine::{Ctx, ProtocolEngine, ProtocolError, Work};
use crate::protocol::target::{refs_of, InstanceTarget};
use crate::resource::ResourcePath;
use colock_lockmgr::{LockManager, LockMode, TxnId};
use colock_nf2::ObjectRef;
use colock_trace::RuleTag;

impl ProtocolEngine {
    /// The proposed protocol's body for one request of `mode` on `target`.
    pub(crate) fn proposed(
        &self,
        ctx: &mut Ctx<'_>,
        target: &InstanceTarget,
        mode: LockMode,
    ) -> Result<(), ProtocolError> {
        // Rules 1–4, first half: intent locks on all immediate parents,
        // root-to-leaf, then the target itself.
        ctx.lock_node(&self.resource_for(target)?, mode, RuleTag::Target)?;

        // Rules 3/4, second half: implicit downward propagation for S/X —
        // all entry points of lower inner units reachable via the locked
        // subtree, transitively. Skipped when the query semantics guarantee
        // no dereference (§4.5).
        if !(mode.allows_read() && ctx.cx.opts.deref_refs) {
            return Ok(());
        }
        let initial = Self::entry_points(ctx, refs_of(ctx.cx.src, target), mode);
        ctx.walk(initial, |ctx, entry, mode, tag| {
            ctx.lock_node(&self.resource_for(entry)?, mode, tag)?;
            ctx.report.entry_points_locked += 1;
            // Common data may again contain common data (§2): recurse into
            // references of the inner unit just locked.
            Ok(Self::entry_points(ctx, ctx.cx.src.refs_under(entry), mode))
        })
    }

    /// The entry points `refs` name, each with the mode (and trace rule tag)
    /// that downward propagation from a node held in `mode` locks it in.
    ///
    /// Rule 4: propagate the requested S/X unchanged. Rule 4′: under X,
    /// non-modifiable inner units get S — "locking of common data in a mode
    /// which is the least restrictive necessary" (§4.6). The tag
    /// distinguishes a rule-4′ weakening from a plain entry-point lock.
    fn entry_points(ctx: &Ctx<'_>, refs: Vec<ObjectRef>, mode: LockMode) -> Vec<Work> {
        debug_assert!(mode.allows_read());
        let cx = &ctx.cx;
        let exclusive = mode == LockMode::X || mode == LockMode::SIX;
        refs.into_iter()
            .map(|entry| {
                if !exclusive {
                    (entry, LockMode::S, RuleTag::EntryPoint)
                } else if cx.opts.rule4_prime && !cx.authz.can_modify(cx.txn, &entry.relation) {
                    (entry, LockMode::S, RuleTag::EntryPointNonModifiable)
                } else {
                    (entry, LockMode::X, RuleTag::EntryPoint)
                }
            })
            .collect()
    }

    /// Releases a single target leaf-to-root before EOT (rule 5's other
    /// branch): the target itself first, then any ancestors on which no
    /// other lock of the transaction depends.
    pub fn release_target_early(
        &self,
        lm: &LockManager<ResourcePath>,
        txn: TxnId,
        target: &InstanceTarget,
    ) -> Result<usize, ProtocolError> {
        let resource = self.resource_for(target)?;
        let mut released = 0;
        if lm.release(txn, &resource) {
            released += 1;
        }
        // Leaf-to-root: drop ancestors that protect nothing else.
        let held = lm.locks_of(txn);
        let mut ancestors = resource.ancestors();
        ancestors.reverse();
        for anc in ancestors {
            let still_needed = held
                .iter()
                .any(|(r, _, _)| r != &anc && anc.is_prefix_of(r) && lm.held_mode(txn, r) != LockMode::NL);
            if still_needed {
                break;
            }
            if lm.release(txn, &anc) {
                released += 1;
            }
        }
        Ok(released)
    }
}
