//! Baseline: tuple-level locking (§3.2.1).
//!
//! "Locking each single tuple of a complex object … would lead to an immense
//! concurrency control overhead, because one cell may contain hundreds of
//! c_objects." The lockable units are the basic element tuples (the flat
//! tuples complex objects are built from — System R's `tuples` granule), with
//! intent locks only on database, segment and relation (System R's graph has
//! nothing between relation and tuple). The lock *count* therefore grows with
//! the data, which experiment E1 measures.

use crate::protocol::engine::{work_for, Ctx, ProtocolEngine, ProtocolError};
use crate::protocol::target::{refs_of, InstanceTarget};
use colock_lockmgr::LockMode;
use colock_trace::{rule_scope, RuleTag};

impl ProtocolEngine {
    /// Locks every basic tuple under `target` individually (the
    /// database/segment/relation intents repeated per tuple are where the
    /// per-transaction lock cache pays off most).
    pub(crate) fn tuple_level(
        &self,
        ctx: &mut Ctx<'_>,
        target: &InstanceTarget,
        mode: LockMode,
    ) -> Result<(), ProtocolError> {
        let src = ctx.cx.src;
        let tuples = match &target.object {
            Some(_) => src.tuples_under(target),
            None => src
                .object_keys(&target.relation)
                .into_iter()
                .flat_map(|key| src.tuples_under(&InstanceTarget::object(&target.relation, key)))
                .collect(),
        };
        let refs = work_for(refs_of(src, target), mode, RuleTag::Tuple);
        self.lock_tuples(ctx, &tuples, mode)?;

        // Referenced common data: each referenced object's tuples, too —
        // tuple-level locking has no coarser handle for them.
        ctx.walk(refs, |ctx, object, mode, tag| {
            self.lock_tuples(ctx, &src.tuples_under(object), mode)?;
            Ok(work_for(src.refs_under(object), mode, tag))
        })
    }

    fn lock_tuples(
        &self,
        ctx: &mut Ctx<'_>,
        tuples: &[InstanceTarget],
        mode: LockMode,
    ) -> Result<(), ProtocolError> {
        for t in tuples {
            let resource = self.resource_for(t)?;
            {
                // Intent locks on database/segment/relation only (the first
                // three levels), then the tuple itself: System R's flat graph
                // has no complex-object or sub-object granules.
                let _rule = rule_scope(RuleTag::TupleIntent);
                for level in resource.ancestors().iter().take(3) {
                    ctx.acquire(level, mode.required_parent_intent())?;
                }
            }
            let _rule = rule_scope(RuleTag::Tuple);
            ctx.acquire(&resource, mode)?;
        }
        Ok(())
    }
}
