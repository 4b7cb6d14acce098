//! Baseline: XSQL-style whole-object locking (§3.1, \[HaLo82\], \[LoPl83\]).
//!
//! "In the applications described in \[HaLo82\] complex objects are always
//! manipulated (checked-out, checked-in) as a whole" — the lockable unit is
//! the complex object; any access to a part of an object locks the *entire*
//! object (including existing common data, §1). That is the
//! granule-oriented problem: Q1 and Q2 of Fig. 3 touch different parts of
//! cell `c1` but serialize anyway.

use crate::protocol::engine::{work_for, Ctx, ProtocolEngine, ProtocolError};
use crate::protocol::target::{refs_of, InstanceTarget};
use colock_lockmgr::LockMode;
use colock_trace::RuleTag;

impl ProtocolEngine {
    /// Locks the complex object containing `target` as a whole — or the
    /// relation, for a relation-wide access — plus all transitively
    /// referenced common data, coarsely and in the same mode.
    pub(crate) fn whole_object(
        &self,
        ctx: &mut Ctx<'_>,
        target: &InstanceTarget,
        mode: LockMode,
    ) -> Result<(), ProtocolError> {
        let tag = RuleTag::WholeObject;
        let whole = InstanceTarget { steps: Vec::new(), ..target.clone() };
        ctx.lock_node(&ctx.resolve(self, &whole)?, mode, tag)?;
        ctx.walk(work_for(refs_of(ctx.cx.src, &whole), mode, tag), |ctx, object, mode, tag| {
            ctx.lock_node(&self.resource_for(object)?, mode, tag)?;
            Ok(work_for(ctx.cx.src.refs_under(object), mode, tag))
        })
    }
}
