//! Undo log: before-images for rollback.

use colock_core::TargetStep;
use colock_nf2::{ObjectKey, Value};
use colock_storage::{StorageError, Store, VersionPatch};
use std::collections::BTreeMap;

/// One undo record; applied in reverse order on abort.
#[derive(Debug, Clone)]
pub enum UndoRecord {
    /// An object was inserted: undo removes it.
    Inserted {
        /// Relation.
        relation: String,
        /// Key of the inserted object.
        key: ObjectKey,
    },
    /// A subvalue was updated: undo restores the before-image *at the
    /// updated path only*. Path granularity matters: the transaction holds
    /// an X lock on exactly this subtree, and a whole-object restore would
    /// wipe out committed concurrent writes to element-locked siblings.
    Updated {
        /// Relation.
        relation: String,
        /// Key.
        key: ObjectKey,
        /// Path of the update within the object.
        steps: Vec<TargetStep>,
        /// The before-image of the subvalue at `steps`.
        before: Value,
    },
    /// An object was deleted: undo re-inserts the before-image.
    Deleted {
        /// Relation.
        relation: String,
        /// Key.
        key: ObjectKey,
        /// The deleted object.
        before: Value,
    },
    /// One element was inserted into a set/list HoLU under a semantic Insert
    /// lock: undo removes exactly that element, leaving concurrent writes to
    /// sibling elements untouched.
    ElementInserted {
        /// Relation.
        relation: String,
        /// Key of the owning object.
        key: ObjectKey,
        /// Path of the *container* within the object.
        steps: Vec<TargetStep>,
        /// Key of the inserted element.
        elem_key: ObjectKey,
    },
    /// One element was removed from a set/list HoLU under a semantic Delete
    /// lock: undo puts the before-image back into the container.
    ElementRemoved {
        /// Relation.
        relation: String,
        /// Key of the owning object.
        key: ObjectKey,
        /// Path of the *container* within the object.
        steps: Vec<TargetStep>,
        /// Key of the removed element.
        elem_key: ObjectKey,
        /// Position the element held in the container (lists are ordered).
        at: usize,
        /// The removed element.
        before: Value,
    },
}

impl UndoRecord {
    /// Applies the undo against the store.
    ///
    /// Failures (e.g. a record naming a relation the store no longer knows)
    /// are propagated, not asserted away: a silently skipped undo leaves the
    /// store half-rolled-back, which release builds must surface too.
    pub fn apply(&self, store: &Store) -> Result<(), StorageError> {
        match self {
            UndoRecord::Inserted { relation, key } => store.restore(relation, key, None),
            UndoRecord::Updated { relation, key, steps, before } => {
                store.restore_at(relation, key, steps, before.clone())
            }
            UndoRecord::Deleted { relation, key, before } => {
                store.restore(relation, key, Some(before.clone()))
            }
            UndoRecord::ElementInserted { relation, key, steps, elem_key } => {
                store.restore_element(relation, key, steps, elem_key, None)
            }
            UndoRecord::ElementRemoved { relation, key, steps, elem_key, at, before } => {
                store.restore_element(relation, key, steps, elem_key, Some((*at, before.clone())))
            }
        }
    }

    /// The element's full instance path (container steps with the trailing
    /// attr step element-qualified) for element-granular records.
    fn element_path(steps: &[TargetStep], elem_key: &ObjectKey) -> Vec<TargetStep> {
        let mut path = steps.to_vec();
        if let Some(last) = path.pop() {
            path.push(TargetStep { attr: last.attr, elem: Some(elem_key.clone()) });
        }
        path
    }
}

/// Rolls back a log (newest first). Every record is attempted even when an
/// earlier one fails — partial damage control beats stopping — and the
/// *first* failure is returned.
pub fn rollback(store: &Store, log: &[UndoRecord]) -> Result<(), StorageError> {
    let mut first_err = None;
    for rec in log.iter().rev() {
        if let Err(e) = rec.apply(store) {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// Derives a committing transaction's version patches from its undo log:
/// one patch per touched `(relation, key)`, in deterministic key order.
///
/// The undo log is the exact record of what this transaction wrote under
/// its own X locks, which makes it the right source for the new versions —
/// a raw clone of the live object could carry uncommitted sibling-element
/// writes of concurrent transactions (see
/// [`colock_storage::Store::install_version`]).
///
/// * live object gone          → [`VersionPatch::Tombstone`]
/// * inserted by this txn      → [`VersionPatch::Full`]
/// * otherwise                 → [`VersionPatch::Paths`] of the updated
///   subtrees, in write order
pub fn commit_patches(
    store: &Store,
    log: &[UndoRecord],
) -> Vec<(String, ObjectKey, VersionPatch)> {
    #[derive(Default)]
    struct Touched {
        inserted: bool,
        paths: Vec<Vec<TargetStep>>,
    }
    let mut grouped: BTreeMap<(String, ObjectKey), Touched> = BTreeMap::new();
    for rec in log {
        match rec {
            UndoRecord::Inserted { relation, key } => {
                grouped.entry((relation.clone(), key.clone())).or_default().inserted = true;
            }
            UndoRecord::Updated { relation, key, steps, .. } => {
                grouped
                    .entry((relation.clone(), key.clone()))
                    .or_default()
                    .paths
                    .push(steps.clone());
            }
            UndoRecord::Deleted { relation, key, .. } => {
                grouped.entry((relation.clone(), key.clone())).or_default();
            }
            // Element-granular writes commit as paths ending in an elem step;
            // `install_version` composes them as element insert/removal
            // against the base image.
            UndoRecord::ElementInserted { relation, key, steps, elem_key }
            | UndoRecord::ElementRemoved { relation, key, steps, elem_key, .. } => {
                grouped
                    .entry((relation.clone(), key.clone()))
                    .or_default()
                    .paths
                    .push(UndoRecord::element_path(steps, elem_key));
            }
        }
    }
    grouped
        .into_iter()
        .map(|((relation, key), t)| {
            let patch = if !store.contains(&relation, &key) {
                // Deleted (possibly after updates): commit a tombstone.
                VersionPatch::Tombstone
            } else if t.inserted || t.paths.is_empty() {
                // Born in this txn (even if updated afterwards — its whole
                // state is this txn's work), or delete-then-reinsert.
                VersionPatch::Full
            } else {
                VersionPatch::Paths(t.paths)
            };
            (relation, key, patch)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::fixtures::fig1_catalog;
    use colock_nf2::value::build::tup;
    use std::sync::Arc;

    fn effector(id: &str, tool: &str) -> Value {
        tup(vec![("eff_id", Value::str(id)), ("tool", Value::str(tool))])
    }

    #[test]
    fn rollback_reverses_in_order() {
        let store = Store::new(Arc::new(fig1_catalog()));
        // op1: insert e1; op2: update e1.
        store.insert("effectors", effector("e1", "a")).unwrap();
        let before = store
            .update_at(
                "effectors",
                &ObjectKey::from("e1"),
                &[TargetStep::attr("tool")],
                Value::str("b"),
            )
            .unwrap();
        let log = vec![
            UndoRecord::Inserted { relation: "effectors".into(), key: ObjectKey::from("e1") },
            UndoRecord::Updated {
                relation: "effectors".into(),
                key: ObjectKey::from("e1"),
                steps: vec![TargetStep::attr("tool")],
                before,
            },
        ];
        rollback(&store, &log).unwrap();
        // update undone first, then the insert: object gone entirely.
        assert!(!store.contains("effectors", &ObjectKey::from("e1")));
    }

    #[test]
    fn unknown_relation_propagates_instead_of_being_swallowed() {
        let store = Store::new(Arc::new(fig1_catalog()));
        store.insert("effectors", effector("e1", "a")).unwrap();
        let log = vec![
            // Newest first at rollback: the bad record is attempted first,
            // and the valid one must still be applied.
            UndoRecord::Inserted { relation: "effectors".into(), key: ObjectKey::from("e1") },
            UndoRecord::Deleted {
                relation: "no-such-relation".into(),
                key: ObjectKey::from("zz"),
                before: effector("zz", "t"),
            },
        ];
        let err = rollback(&store, &log).unwrap_err();
        assert!(err.to_string().contains("no-such-relation"), "{err}");
        // The valid undo still ran: the insert was removed.
        assert!(!store.contains("effectors", &ObjectKey::from("e1")));
    }

    #[test]
    fn commit_patches_classify_touches() {
        let store = Store::new(Arc::new(fig1_catalog()));
        store.insert("effectors", effector("e1", "a")).unwrap();
        store.insert("effectors", effector("e2", "b")).unwrap();
        let before = store
            .update_at_pending(
                "effectors",
                &ObjectKey::from("e1"),
                &[TargetStep::attr("tool")],
                Value::str("a2"),
            )
            .unwrap();
        let gone = store.delete_pending("effectors", &ObjectKey::from("e2")).unwrap();
        store.insert_pending("effectors", ObjectKey::from("e3"), effector("e3", "c")).unwrap();
        let log = vec![
            UndoRecord::Updated {
                relation: "effectors".into(),
                key: ObjectKey::from("e1"),
                steps: vec![TargetStep::attr("tool")],
                before,
            },
            UndoRecord::Deleted {
                relation: "effectors".into(),
                key: ObjectKey::from("e2"),
                before: gone,
            },
            UndoRecord::Inserted { relation: "effectors".into(), key: ObjectKey::from("e3") },
        ];
        let patches = commit_patches(&store, &log);
        assert_eq!(patches.len(), 3);
        assert!(matches!(patches[0], (_, _, VersionPatch::Paths(ref p)) if p.len() == 1));
        assert!(matches!(patches[1], (_, _, VersionPatch::Tombstone)));
        assert!(matches!(patches[2], (_, _, VersionPatch::Full)));
    }

    #[test]
    fn deleted_record_reinserts() {
        let store = Store::new(Arc::new(fig1_catalog()));
        store.insert("effectors", effector("e1", "a")).unwrap();
        let before = store.delete("effectors", &ObjectKey::from("e1")).unwrap();
        rollback(
            &store,
            &[UndoRecord::Deleted {
                relation: "effectors".into(),
                key: ObjectKey::from("e1"),
                before,
            }],
        )
        .unwrap();
        assert!(store.contains("effectors", &ObjectKey::from("e1")));
    }
}
