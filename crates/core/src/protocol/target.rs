//! Lock targets and the data-access interface used during locking.

use crate::resource::{KeyRef, PathStep, ResourcePath, StepRef};
use colock_lockmgr::LockMode;
use colock_nf2::{ObjectKey, ObjectRef};
use std::fmt;
use std::iter;

/// Kind of access a query performs (FOR READ / FOR UPDATE, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Reading.
    Read,
    /// Updating (insert/delete/modify).
    Update,
}

/// The lock mode an access takes on its target granule: S to read, X to
/// update.
impl From<AccessMode> for LockMode {
    fn from(access: AccessMode) -> Self {
        match access {
            AccessMode::Read => LockMode::S,
            AccessMode::Update => LockMode::X,
        }
    }
}

/// One step into a complex object: an attribute, optionally narrowed to one
/// set/list element by key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TargetStep {
    /// Attribute name.
    pub attr: String,
    /// Element key, when a single element is targeted (e.g. robot `r1`).
    pub elem: Option<ObjectKey>,
}

impl TargetStep {
    /// A step naming the whole attribute (HoLU/HeLU/BLU).
    pub fn attr(name: impl Into<String>) -> Self {
        TargetStep { attr: name.into(), elem: None }
    }

    /// A step narrowing to one element of a set/list attribute.
    pub fn elem(name: impl Into<String>, key: impl Into<ObjectKey>) -> Self {
        TargetStep { attr: name.into(), elem: Some(key.into()) }
    }
}

/// An instance-level lock target: a lockable unit inside a concrete complex
/// object — or the object, or its whole relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstanceTarget {
    /// Relation name.
    pub relation: String,
    /// Complex-object key; `None` targets the relation as a whole.
    pub object: Option<ObjectKey>,
    /// Steps into the object (empty = the complex object itself).
    pub steps: Vec<TargetStep>,
}

impl InstanceTarget {
    /// Targets a whole relation.
    pub fn relation(relation: impl Into<String>) -> Self {
        InstanceTarget { relation: relation.into(), object: None, steps: Vec::new() }
    }

    /// Targets a whole complex object.
    pub fn object(relation: impl Into<String>, key: impl Into<ObjectKey>) -> Self {
        InstanceTarget { relation: relation.into(), object: Some(key.into()), steps: Vec::new() }
    }

    /// Extends the target by a step.
    pub fn step(mut self, step: TargetStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Extends by an attribute step.
    pub fn attr(self, name: impl Into<String>) -> Self {
        self.step(TargetStep::attr(name))
    }

    /// Extends by an element step.
    pub fn elem(self, name: impl Into<String>, key: impl Into<ObjectKey>) -> Self {
        self.step(TargetStep::elem(name, key))
    }

    /// Whether `path` is this target's resource under some database and
    /// segment (one engine derives both from the relation).
    pub(crate) fn is_named_by(&self, path: &ResourcePath) -> bool {
        path.refs().skip(2).eq(self.refs())
    }

    /// The steps of this target's resource below the segment: the relation,
    /// then the object and per step its attribute and element.
    pub(crate) fn refs(&self) -> impl Iterator<Item = StepRef<'_>> + Clone {
        let object = self.object.as_ref().map(|k| PathStep::Object(KeyRef::from(k)));
        let inner = self.object.iter().flat_map(|_| &self.steps).flat_map(|s| {
            iter::once(PathStep::Attr(&*s.attr)).chain(s.elem.as_ref().map(|e| PathStep::Elem(e.into())))
        });
        iter::once(PathStep::Relation(&*self.relation)).chain(object).chain(inner)
    }

    /// The schema-level attribute path of this target (element keys erased).
    pub fn attr_path(&self) -> colock_nf2::AttrPath {
        colock_nf2::AttrPath::from_steps(self.steps.iter().map(|s| s.attr.clone()).collect())
    }
}

impl fmt::Display for InstanceTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.relation)?;
        if let Some(k) = &self.object {
            write!(f, "[{k}]")?;
        }
        for s in &self.steps {
            write!(f, ".{}", s.attr)?;
            if let Some(e) = &s.elem {
                write!(f, "[{e}]")?;
            }
        }
        Ok(())
    }
}

/// Result of a reverse-reference scan (naive-DAG baseline, §3.2.2: "It is a
/// very time-consuming task to find out which robots are affected").
#[derive(Debug, Clone, Default)]
pub struct ReverseScan {
    /// Targets of the referencing subobjects (e.g. the robots whose
    /// `effectors` set contains the reference).
    pub referencing: Vec<InstanceTarget>,
    /// How many complex objects had to be visited to find them.
    pub objects_scanned: u64,
}

/// Data-dependent information the protocols need while locking.
///
/// Implemented by `colock-storage`; the protocol discovers entry points of
/// dependent inner units by scanning the references inside the data it is
/// about to access anyway (§4.4.2.1) — this trait is that scan.
pub trait InstanceSource {
    /// References contained in the subtree named by `target` (not following
    /// into referenced objects).
    fn refs_under(&self, target: &InstanceTarget) -> Vec<ObjectRef>;

    /// References contained anywhere in a relation (for relation-granule
    /// locks).
    fn refs_in_relation(&self, relation: &str) -> Vec<ObjectRef>;

    /// The basic element tuples under `target` as individual lock targets
    /// (tuple-level baseline): each set/list element and the object's own
    /// root tuple.
    fn tuples_under(&self, target: &InstanceTarget) -> Vec<InstanceTarget>;

    /// Reverse scan: all subobjects referencing `relation[key]`.
    fn referencing_objects(&self, relation: &str, key: &ObjectKey) -> ReverseScan;

    /// Keys of all complex objects of a relation (for relation-wide locks).
    fn object_keys(&self, relation: &str) -> Vec<ObjectKey>;
}

/// The references a lock on `target` reaches: those under the object's
/// subtree, or anywhere in the relation for a relation-granule target.
pub(crate) fn refs_of(src: &dyn InstanceSource, target: &InstanceTarget) -> Vec<ObjectRef> {
    match &target.object {
        Some(_) => src.refs_under(target),
        None => src.refs_in_relation(&target.relation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The target's resource under database `db` and segment `seg`.
    fn resource(t: &InstanceTarget, db: &str, seg: &str) -> ResourcePath {
        let top = [PathStep::Database(db), PathStep::Segment(seg)];
        ResourcePath::from_refs(top.into_iter().chain(t.refs()))
    }

    #[test]
    fn resource_path_construction() {
        let t = InstanceTarget::object("cells", "c1").elem("robots", "r1").attr("trajectory");
        let r = resource(&t, "db1", "seg1");
        assert_eq!(r.to_string(), "db:db1/seg:seg1/rel:cells/obj:c1/robots/[r1]/trajectory");
    }

    #[test]
    fn relation_target_has_short_path() {
        let t = InstanceTarget::relation("effectors");
        let r = resource(&t, "db1", "seg2");
        assert_eq!(r.to_string(), "db:db1/seg:seg2/rel:effectors");
    }

    #[test]
    fn display_formats() {
        let t = InstanceTarget::object("cells", "c1").attr("robots");
        assert_eq!(t.to_string(), "cells[c1].robots");
        let t2 = InstanceTarget::object("cells", "c1").elem("robots", "r2");
        assert_eq!(t2.to_string(), "cells[c1].robots[r2]");
    }

    #[test]
    fn attr_path_erases_elements() {
        let t = InstanceTarget::object("cells", "c1").elem("robots", "r1").attr("trajectory");
        assert_eq!(t.attr_path().to_string(), "robots.trajectory");
    }
}
