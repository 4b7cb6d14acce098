//! Baseline: straightforward application of the traditional DAG protocol to
//! non-disjoint complex objects (§3.2.2) — the protocol-oriented problems.
//!
//! Two defects, both reproduced here on purpose:
//!
//! 1. **Exclusive locks on shared data are enormously expensive.** The
//!    traditional DAG rule demands that *all* parents of a node be IX-locked
//!    before the node is X-locked. For a node inside common data the parents
//!    include every referencing subobject (every robot using the effector),
//!    which must first be *found* — a reverse scan over the referencing
//!    relations (the paper: "It is a very time-consuming task to find out
//!    which robots are affected"). `ProtocolKind::NaiveDag` performs exactly
//!    that scan and lock cascade; experiment E2 measures it.
//!
//! 2. **Implicit locks on common data are invisible "from the side".** If
//!    the all-parents rule is dropped instead, a transaction locking robot
//!    `r1` in X believes the referenced effectors are implicitly X-locked —
//!    but a second transaction reaching effector `e1` via robot `r2` never
//!    sees those implicit locks. The naive engine takes **no** locks on
//!    common data for S/X requests on non-shared nodes (no downward
//!    propagation), so experiment E3 can demonstrate the resulting
//!    inconsistency.

use crate::protocol::engine::{work_for, Ctx, ProtocolEngine, ProtocolError};
use crate::protocol::target::InstanceTarget;
use colock_lockmgr::LockMode;
use colock_nf2::ObjectRef;
use colock_trace::RuleTag;

impl ProtocolEngine {
    /// The naive traditional-DAG body. `all_parents: false` is the *relaxed*
    /// variant (§3.2.2): "If the DAG requirement that all parents … be locked
    /// before such a node may be requested in mode (I)X is given up" — X on
    /// shared data takes only its own chain. Cheap, but implicit locks on
    /// common data are invisible from the side: the E3 experiment
    /// demonstrates the resulting inconsistency.
    pub(crate) fn naive_dag(
        &self,
        ctx: &mut Ctx<'_>,
        target: &InstanceTarget,
        mode: LockMode,
        all_parents: bool,
    ) -> Result<(), ProtocolError> {
        if all_parents && mode == LockMode::X && self.is_common(&target.relation) {
            // Defect 1: X on shared data requires ALL parents to be locked.
            self.lock_all_parents(ctx, target)?;
        }
        // Defect 2 (by construction): no downward propagation — referenced
        // common data is only "implicitly" locked, invisibly to other paths.
        ctx.lock_node(&self.resource_for(target)?, mode, RuleTag::Target)
    }

    /// Finds (by reverse scan) and IX-locks every subobject referencing the
    /// shared object of `target`, including their full ancestor chains, and
    /// recursively the referencers of any referencing shared object.
    fn lock_all_parents(
        &self,
        ctx: &mut Ctx<'_>,
        target: &InstanceTarget,
    ) -> Result<(), ProtocolError> {
        let Some(key) = target.object.clone() else {
            return Ok(());
        };
        let start = vec![ObjectRef::new(&target.relation, key)];
        ctx.walk(work_for(start, LockMode::IX, RuleTag::AllParentsScan), |ctx, object, mode, tag| {
            let key = object.object.as_ref().expect("the walk visits objects");
            let scan = ctx.cx.src.referencing_objects(&object.relation, key);
            ctx.report.scan_cost += scan.objects_scanned;
            let mut shared_parents = Vec::new();
            for parent in scan.referencing {
                // The referencing subobject and all its ancestors in IX.
                ctx.lock_node(&self.resource_for(&parent)?, mode, tag)?;
                // If the referencing object itself lives in common data, its
                // parents must be locked as well (transitive rule).
                if self.is_common(&parent.relation) {
                    shared_parents.extend(parent.object.map(|pk| ObjectRef::new(parent.relation, pk)));
                }
            }
            Ok(work_for(shared_parents, mode, tag))
        })
    }
}
