//! Determination of "optimal" lock requests (§4.5, \[HDKS89\]).
//!
//! During query analysis — before any data is touched — the optimizer decides
//! for every accessed attribute path *which granule* to lock and *in which
//! mode*, by **anticipating lock escalations**: on object-specific lock
//! graphs, run-time escalations (trading many small locks for one coarse
//! lock) are expensive and deadlock-prone, so whenever the estimated number
//! of fine-granule locks reaches the escalation threshold θ, the coarser
//! granule is requested up front. The result — granule and mode per accessed
//! node — is the *query-specific lock graph*, stored with the query and used
//! at execution time.
//!
//! The companion mechanism of \[HDKS89\] is reconstructed here from the §4.5
//! sketch; θ and the statistics come from the catalog.

pub mod escalation;

use crate::protocol::target::AccessMode;
use colock_lockmgr::LockMode;
use colock_nf2::{AttrPath, Catalog};

/// Estimated data touch of one accessed attribute path of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessEstimate {
    /// Relation accessed.
    pub relation: String,
    /// Accessed node within the object (root path = the object itself).
    pub path: AttrPath,
    /// Read or update.
    pub access: AccessMode,
    /// Expected number of complex objects matching the query's object-level
    /// predicate (1.0 for a key lookup like `cell_id = 'c1'`).
    pub objects_expected: f64,
    /// Expected number of elements matching at `path` *per object* (1.0 for
    /// a key lookup like `robot_id = 'r2'`; the full cardinality for an
    /// unrestricted scan).
    pub elems_expected: f64,
}

impl AccessEstimate {
    /// Access with a single object and single element (fully keyed).
    pub fn keyed(relation: impl Into<String>, path: &str, access: AccessMode) -> Self {
        AccessEstimate {
            relation: relation.into(),
            path: AttrPath::parse(path),
            access,
            objects_expected: 1.0,
            elems_expected: 1.0,
        }
    }
}

/// The granule a planned lock targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// The whole relation.
    Relation,
    /// One complex object as a whole.
    Object,
    /// The named subtree (HoLU/HeLU) within each matching object, as a whole.
    Subtree,
    /// Individual elements/BLUs at the named path.
    Elements,
}

/// One entry of a query-specific lock graph: granule + mode for an accessed
/// node. Concrete keys are bound at execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedLock {
    /// Relation.
    pub relation: String,
    /// Schema path of the node.
    pub path: AttrPath,
    /// Chosen granule.
    pub granularity: Granularity,
    /// Chosen mode for the granule (S or X; the protocol adds intent locks).
    pub mode: LockMode,
    /// Semantic mode for the enclosing set/list container, when the schema
    /// admits one (Member under element reads, Insert/Delete under element
    /// mutations): executed *before* the element lock, it replaces the plain
    /// intent the protocol would otherwise place there, letting distinct-
    /// element operations commute. `None` keeps the classical protocol.
    pub container_mode: Option<LockMode>,
}

/// A query-specific lock graph: the planned lock requests of one query
/// (§4.1: "the granule and mode information is stored within query-specific
/// lock graphs").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockPlan {
    /// Planned requests, in root-to-leaf order per relation.
    pub locks: Vec<PlannedLock>,
    /// How many run-time escalations the plan anticipated (i.e. decisions to
    /// start coarse instead of escalating later).
    pub anticipated_escalations: u64,
}

impl LockPlan {
    /// Finds the planned lock for a path.
    pub fn lock_for(&self, relation: &str, path: &AttrPath) -> Option<&PlannedLock> {
        self.locks.iter().find(|l| l.relation == relation && &l.path == path)
    }
}

/// The lock-request optimizer.
///
/// ```
/// use colock_core::optimizer::{AccessEstimate, Granularity, Optimizer};
/// use colock_core::fixtures::fig1_catalog;
/// use colock_core::AccessMode;
///
/// let mut catalog = fig1_catalog();
/// catalog.record_cardinality("cells", "c_objects", 500.0);
///
/// // Reading all ~500 c_objects of one cell: the optimizer anticipates the
/// // escalation and plans a single subtree lock instead of 500 element locks.
/// let plan = Optimizer::new(16.0).plan(&catalog, &[AccessEstimate {
///     relation: "cells".into(),
///     path: colock_nf2::AttrPath::parse("c_objects"),
///     access: AccessMode::Read,
///     objects_expected: 1.0,
///     elems_expected: 500.0,
/// }]);
/// assert_eq!(plan.locks[0].granularity, Granularity::Subtree);
/// assert_eq!(plan.anticipated_escalations, 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Optimizer {
    /// Escalation threshold θ: if the expected number of fine-granule locks
    /// reaches θ, the next-coarser granule is requested instead.
    pub theta: f64,
}

impl Default for Optimizer {
    fn default() -> Self {
        // A small θ mirrors real systems where lock-table entries are the
        // scarce resource; experiments sweep it.
        Optimizer { theta: 16.0 }
    }
}

impl Optimizer {
    /// Creates an optimizer with threshold θ.
    pub fn new(theta: f64) -> Self {
        Optimizer { theta }
    }

    /// Plans the lock requests for a query's accesses.
    pub fn plan(&self, catalog: &Catalog, accesses: &[AccessEstimate]) -> LockPlan {
        let mut plan = LockPlan::default();
        for a in accesses {
            plan.locks.push(self.plan_one(catalog, a, &mut plan.anticipated_escalations));
        }
        plan
    }

    fn plan_one(
        &self,
        catalog: &Catalog,
        a: &AccessEstimate,
        escalations: &mut u64,
    ) -> PlannedLock {
        let mode = LockMode::from(a.access);
        // Level 1: would per-object locks overflow θ? Then lock the relation.
        if a.objects_expected >= self.theta {
            *escalations += 1;
            return PlannedLock {
                relation: a.relation.clone(),
                path: AttrPath::root(),
                granularity: Granularity::Relation,
                mode,
                container_mode: None,
            };
        }
        // Level 2: the object itself is the target.
        if a.path.is_root() {
            return PlannedLock {
                relation: a.relation.clone(),
                path: AttrPath::root(),
                granularity: Granularity::Object,
                mode,
                container_mode: None,
            };
        }
        // Level 3: elements within the object. `elems_expected` is what the
        // query matches; compare against θ to anticipate the escalation. A
        // second trigger: if the query touches (almost) the whole set anyway
        // — matching ≥ half the catalog's average cardinality — individual
        // locks buy no concurrency, so take the subtree.
        let avg = catalog
            .estimated_instances(&a.relation, &a.path)
            .unwrap_or(a.elems_expected);
        if a.elems_expected >= self.theta
            || (avg >= 1.0 && a.elems_expected >= avg * 0.5 && a.elems_expected > 1.0)
        {
            *escalations += 1;
            return PlannedLock {
                relation: a.relation.clone(),
                path: a.path.clone(),
                granularity: Granularity::Subtree,
                mode,
                container_mode: None,
            };
        }
        PlannedLock {
            relation: a.relation.clone(),
            path: a.path.clone(),
            granularity: Granularity::Elements,
            mode,
            container_mode: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1_catalog;

    fn catalog_with_stats() -> Catalog {
        let mut c = fig1_catalog();
        c.relation_stats_mut("cells").cardinality = 100;
        c.record_cardinality("cells", "robots", 4.0);
        c.record_cardinality("cells", "c_objects", 500.0);
        c
    }

    #[test]
    fn keyed_robot_update_locks_single_element() {
        let c = catalog_with_stats();
        let opt = Optimizer::new(16.0);
        let plan = opt.plan(
            &c,
            &[AccessEstimate::keyed("cells", "robots", AccessMode::Update)],
        );
        let l = &plan.locks[0];
        assert_eq!(l.granularity, Granularity::Elements);
        assert_eq!(l.mode, LockMode::X);
        assert_eq!(plan.anticipated_escalations, 0);
    }

    #[test]
    fn scanning_all_c_objects_escalates_to_subtree() {
        // Q1 of the paper reads *all* c_objects of cell c1: with 500 expected
        // elements, individual locks are hopeless — the optimizer anticipates
        // the escalation and plans one subtree lock.
        let c = catalog_with_stats();
        let opt = Optimizer::new(16.0);
        let plan = opt.plan(
            &c,
            &[AccessEstimate {
                relation: "cells".into(),
                path: AttrPath::parse("c_objects"),
                access: AccessMode::Read,
                objects_expected: 1.0,
                elems_expected: 500.0,
            }],
        );
        let l = &plan.locks[0];
        assert_eq!(l.granularity, Granularity::Subtree);
        assert_eq!(l.mode, LockMode::S);
        assert_eq!(plan.anticipated_escalations, 1);
    }

    #[test]
    fn touching_many_objects_escalates_to_relation() {
        let c = catalog_with_stats();
        let opt = Optimizer::new(16.0);
        let plan = opt.plan(
            &c,
            &[AccessEstimate {
                relation: "cells".into(),
                path: AttrPath::root(),
                access: AccessMode::Read,
                objects_expected: 80.0,
                elems_expected: 1.0,
            }],
        );
        assert_eq!(plan.locks[0].granularity, Granularity::Relation);
    }

    #[test]
    fn majority_of_small_set_takes_subtree() {
        // 3 of 4 robots accessed: individual locks buy nothing.
        let c = catalog_with_stats();
        let opt = Optimizer::new(16.0);
        let plan = opt.plan(
            &c,
            &[AccessEstimate {
                relation: "cells".into(),
                path: AttrPath::parse("robots"),
                access: AccessMode::Read,
                objects_expected: 1.0,
                elems_expected: 3.0,
            }],
        );
        assert_eq!(plan.locks[0].granularity, Granularity::Subtree);
    }

    #[test]
    fn whole_object_checkout_plans_object_granule() {
        let c = catalog_with_stats();
        let opt = Optimizer::default();
        let plan = opt.plan(
            &c,
            &[AccessEstimate {
                relation: "cells".into(),
                path: AttrPath::root(),
                access: AccessMode::Update,
                objects_expected: 1.0,
                elems_expected: 1.0,
            }],
        );
        assert_eq!(plan.locks[0].granularity, Granularity::Object);
        assert_eq!(plan.locks[0].mode, LockMode::X);
    }

    #[test]
    fn theta_sweep_changes_decision() {
        let c = catalog_with_stats();
        let access = AccessEstimate {
            relation: "cells".into(),
            path: AttrPath::parse("c_objects"),
            access: AccessMode::Read,
            objects_expected: 1.0,
            elems_expected: 10.0,
        };
        // θ=16 but 10 < 500*0.5 → elements; θ=8 → subtree.
        let fine = Optimizer::new(16.0).plan(&c, std::slice::from_ref(&access));
        assert_eq!(fine.locks[0].granularity, Granularity::Elements);
        let coarse = Optimizer::new(8.0).plan(&c, &[access]);
        assert_eq!(coarse.locks[0].granularity, Granularity::Subtree);
    }

    #[test]
    fn lock_for_lookup() {
        let c = catalog_with_stats();
        let plan = Optimizer::default().plan(
            &c,
            &[AccessEstimate::keyed("cells", "robots", AccessMode::Update)],
        );
        assert!(plan.lock_for("cells", &AttrPath::parse("robots")).is_some());
        assert!(plan.lock_for("cells", &AttrPath::parse("c_objects")).is_none());
    }
}
