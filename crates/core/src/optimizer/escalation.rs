//! Run-time lock escalation and de-escalation.
//!
//! Escalation (trading many locks on small granules for one lock on a
//! coarser granule, \[Date85\]) is what the §4.5 optimizer tries to *avoid* by
//! anticipation; it is implemented here so experiment E5 can compare the
//! reactive strategy against the anticipating one. De-escalation ("the
//! efficient release of locks", §5) is listed by the paper as future work
//! and implemented as an extension.

use crate::protocol::engine::{LockCtx, LockReport, ProtocolEngine, ProtocolError, ProtocolKind};
use crate::protocol::target::InstanceTarget;
use colock_lockmgr::{LockMode, LockRequestOptions};
use colock_trace::{rule_scope, RuleTag};

impl ProtocolEngine {
    /// Reactive escalation: acquires `mode` on the coarse target (upgrade),
    /// then releases the transaction's finer locks underneath it. Returns the
    /// number of fine locks traded in. Runs the proposed protocol, rule 4 or
    /// 4′ as `cx.opts` says.
    pub fn escalate(
        &self,
        cx: &LockCtx<'_>,
        coarse: &InstanceTarget,
        mode: LockMode,
    ) -> Result<(LockReport, usize), ProtocolError> {
        let _rule = rule_scope(RuleTag::Escalation);
        let report = self.lock(cx, ProtocolKind::proposed(cx.opts), coarse, mode)?;
        let coarse_resource = self.resource_for(coarse)?;
        let mut released = 0;
        for (r, _, _) in cx.lm.locks_of(cx.txn) {
            if r != coarse_resource && coarse_resource.is_prefix_of(&r) && cx.lm.release(cx.txn, &r) {
                released += 1;
            }
        }
        forget_released(cx);
        Ok((report, released))
    }

    /// De-escalation: the transaction holds `mode` on `coarse` and gives it
    /// up in exchange for the same mode on the listed descendants, so other
    /// transactions can use the rest of the subtree.
    ///
    /// Safety: the fine locks are acquired *while the coarse lock is still
    /// held* (they are trivially grantable to the holder), then the coarse
    /// lock is downgraded to its intent form by release + re-acquire of the
    /// protocol chain — since the chain already carries the intent locks, the
    /// visible effect is just the removal of the coarse S/X.
    pub fn deescalate(
        &self,
        cx: &LockCtx<'_>,
        coarse: &InstanceTarget,
        keep: &[InstanceTarget],
    ) -> Result<LockReport, ProtocolError> {
        let _rule = rule_scope(RuleTag::Escalation);
        let coarse_resource = self.resource_for(coarse)?;
        let held = cx.lm.held_mode(cx.txn, &coarse_resource);
        debug_assert!(held.allows_read(), "de-escalation requires a held S/X lock");
        let mode = if held.allows_write() { LockMode::X } else { LockMode::S };

        let mut total = LockReport::default();
        for t in keep {
            total.merge(self.lock(cx, ProtocolKind::proposed(cx.opts), t, mode)?);
        }
        // Trade the coarse lock away; the ancestor intents stay (they were
        // acquired by the chain of the fine locks too).
        cx.lm.release(cx.txn, &coarse_resource);
        forget_released(cx);
        // Keep the intent on the coarse node itself so rules 1–4 still hold
        // for the retained descendants.
        let intent = mode.required_parent_intent();
        let request = LockRequestOptions { policy: cx.opts.wait, long: cx.opts.long };
        cx.lm.acquire(cx.txn, coarse_resource.clone(), intent, request)?;
        total.acquired.push((coarse_resource, intent));
        Ok(total)
    }
}

/// An early (pre-EOT) release leaves the per-transaction cache claiming
/// locks that are gone; it must forget everything.
fn forget_released(cx: &LockCtx<'_>) {
    if let Some(cache) = cx.cache {
        cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authorization::{Authorization, Right};
    use crate::fixtures::{fig1_catalog, fig6_source};
    use crate::protocol::engine::{ProtocolOptions, TxnLockCache};
    use crate::resource::ResourcePath;
    use colock_lockmgr::{LockManager, TxnId};
    use std::sync::Arc;

    fn setup() -> (ProtocolEngine, LockManager<ResourcePath>, crate::fixtures::StaticSource) {
        (
            ProtocolEngine::new(Arc::new(fig1_catalog())),
            LockManager::new(),
            fig6_source(),
        )
    }

    fn robot(r: &str) -> InstanceTarget {
        InstanceTarget::object("cells", "c1").elem("robots", r)
    }

    #[test]
    fn escalation_trades_fine_for_coarse() {
        let (engine, lm, src) = setup();
        let authz = Authorization::allow_all();
        let cache = TxnLockCache::new();
        let cx = LockCtx { cache: Some(&cache), ..LockCtx::new(&lm, TxnId(1), &src, &authz) };
        // Lock two robots individually.
        for r in ["r1", "r2"] {
            engine.lock(&cx, ProtocolKind::Proposed, &robot(r), LockMode::S).unwrap();
        }
        let robots = InstanceTarget::object("cells", "c1").attr("robots");
        let robots_res = engine.resource_for(&robots).unwrap();
        let (_, released) = engine.escalate(&cx, &robots, LockMode::S).unwrap();
        assert_eq!(released, 2, "both robot element locks traded in");
        assert_eq!(lm.held_mode(cx.txn, &robots_res), LockMode::S);
        // The cache forgot the released element locks: re-locking r1 goes
        // back to the table instead of being answered as covered.
        let again = engine.lock(&cx, ProtocolKind::Proposed, &robot("r1"), LockMode::S).unwrap();
        assert_eq!(again.mode_of(&engine.resource_for(&robot("r1")).unwrap()), Some(LockMode::S));
    }

    #[test]
    fn deescalation_releases_coarse_keeps_elements() {
        let (engine, lm, src) = setup();
        // Effectors are a read-only library here: under rule 4' the updater
        // of robot r2 only S-locks the shared effectors, which coexists with
        // t1's S entry-point locks.
        let mut authz = Authorization::allow_all();
        authz.set_relation_default("effectors", Right::Read);
        let t1 = LockCtx::new(&lm, TxnId(1), &src, &authz);
        let robots = InstanceTarget::object("cells", "c1").attr("robots");
        engine.lock(&t1, ProtocolKind::Proposed, &robots, LockMode::S).unwrap();
        engine.deescalate(&t1, &robots, &[robot("r1")]).unwrap();
        // Another txn can now X-lock robot r2 (it couldn't before).
        let t2 = LockCtx { txn: TxnId(2), opts: ProtocolOptions::default().try_lock(), ..t1 };
        let res = engine.lock(&t2, ProtocolKind::Proposed, &robot("r2"), LockMode::X);
        assert!(res.is_ok(), "{res:?}");
        // But robot r1 stays protected.
        let blocked = engine.lock(&t2, ProtocolKind::Proposed, &robot("r1"), LockMode::X);
        assert!(blocked.is_err());
    }

    #[test]
    fn deescalate_keeps_intents_for_retained_children() {
        let (engine, lm, src) = setup();
        let authz = Authorization::allow_all();
        let t1 = LockCtx::new(&lm, TxnId(1), &src, &authz);
        let robots = InstanceTarget::object("cells", "c1").attr("robots");
        engine.lock(&t1, ProtocolKind::Proposed, &robots, LockMode::S).unwrap();
        engine.deescalate(&t1, &robots, &[robot("r1")]).unwrap();
        let robots_res = engine.resource_for(&robots).unwrap();
        assert_eq!(lm.held_mode(t1.txn, &robots_res), LockMode::IS);
    }

    /// The fine re-locks' whole report survives de-escalation: r1's
    /// effectors are counted as entry points exactly as when r1 is locked
    /// alone (the hand-rolled merge used to drop the count to 0).
    #[test]
    fn deescalate_reports_entry_points_of_the_fine_locks() {
        let authz = Authorization::allow_all();
        let (engine, lm, src) = setup();
        let alone = engine
            .lock(&LockCtx::new(&lm, TxnId(1), &src, &authz), ProtocolKind::Proposed, &robot("r1"), LockMode::S)
            .unwrap();
        assert!(alone.entry_points_locked > 0, "r1 references shared effectors");

        let (engine, lm, src) = setup();
        let t1 = LockCtx::new(&lm, TxnId(1), &src, &authz);
        let robots = InstanceTarget::object("cells", "c1").attr("robots");
        engine.lock(&t1, ProtocolKind::Proposed, &robots, LockMode::S).unwrap();
        let traded = engine.deescalate(&t1, &robots, &[robot("r1")]).unwrap();
        assert_eq!(traded.entry_points_locked, alone.entry_points_locked);
        assert_eq!(traded.scan_cost, alone.scan_cost);
    }
}
