//! The store: relations of complex objects with referential integrity and a
//! multiversion read overlay.
//!
//! Every committed state of an object is kept as an entry of a per-object
//! **version chain**, stamped by a monotonic commit timestamp from the
//! store's [`CommitClock`]. The live map holds the current (possibly
//! uncommitted) state. Live objects, chain entries, before-images and the
//! values handed to readers are all [`Value`]s whose interior is shared
//! (`colock_nf2::Value`): handing one out is a reference count, a write
//! copies the nodes on its path that something else still holds — the spine
//! from the object root to the touched node, each node as wide as its
//! fan-out — and a new version is the previous one with that spine replaced.
//! Nothing on the write path copies a whole object, so an object's latch is
//! held for O(depth × fan-out of the spine), not O(object).
//! Snapshot readers resolve "newest version ≤ ts" against the chains and
//! never consult the live map, so uncommitted writes are invisible to them
//! by construction.
//!
//! What a write is checked against is local to it: the new subvalue's type
//! (against the schema type at its path) and its references, both before
//! the latch is taken; under the latch only what needs the object — the
//! object key must not change, and an element that takes a new key must not
//! collide with a sibling of its set. The rest of the object was valid
//! before the write and is not touched by it.
//!
//! **Latches.** Each relation's objects are spread over eight
//! cache-padded read/write latches by a hash of the object key. A per-key
//! operation takes its key's stripe only, so transactions on disjoint
//! objects share no latch word. Whole-relation reads visit the stripes one
//! at a time, in stripe order, and sort what they collect into key order.
//! No path holds two stripes. That a scan is not one atomic cut of the
//! relation is sound for the reasons a per-object latch would be: logical
//! locks keep writers off the objects a transaction reads, a relation scan
//! that must not see phantoms holds a relation-level lock that excludes
//! inserts and deletes, and a snapshot scan reads chain entries ≤ its
//! timestamp, which no concurrent commit changes (pruning keeps every entry
//! a pinned snapshot can reach).

use crate::error::StorageError;
use crate::navigate;
use crate::Result;
use colock_core::TargetStep;
use colock_lockmgr::CachePadded;
use colock_nf2::{AttrType, Catalog, Nf2Error, ObjectKey, ObjectRef, RelationSchema, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Poison-recovering latch acquisition: a reader/writer that panicked cannot
/// leave a latch stripe permanently unusable — the data is guarded by the
/// transaction locks above, the latch only protects the map structure.
trait Latch<T> {
    fn read_latch(&self) -> RwLockReadGuard<'_, T>;
    fn write_latch(&self) -> RwLockWriteGuard<'_, T>;
}

impl<T> Latch<T> for RwLock<T> {
    fn read_latch(&self) -> RwLockReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_latch(&self) -> RwLockWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One committed state: the commit timestamp and the object image as of that
/// commit (`None` = the object was deleted by that commit).
type ChainEntry = (u64, Option<Value>);

/// Latch stripes per relation (a power of two).
const STRIPES: usize = 8;

/// The stripe of `key`: FNV-1a over a string key's bytes, an integer key's
/// value. The last byte is multiplied by an odd number, so keys that differ
/// only in their last character's low bits (`c1`, `c2`, …) land on
/// different stripes, as do consecutive integer keys.
fn stripe_of(key: &ObjectKey) -> usize {
    let hash = match key {
        ObjectKey::Str(s) => s.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        }),
        ObjectKey::Int(i) => *i as u64,
    };
    hash as usize & (STRIPES - 1)
}

/// One object: its live state and its committed versions.
#[derive(Debug, Default)]
struct Slot {
    /// The live (current, possibly uncommitted) state; `None` before a
    /// pending insert is committed into it or after a delete. It shares
    /// structure with the chain entries it was installed from or into; a
    /// write un-shares its path only.
    live: Option<Value>,
    /// Committed states, ascending by commit timestamp. Every committed
    /// object has at least one entry (non-transactional mutators
    /// auto-commit one version); an empty chain is invisible to every
    /// snapshot.
    chain: Vec<ChainEntry>,
}

/// The objects of one latch stripe. A slot with neither a live state nor a
/// chain entry is removed.
#[derive(Debug, Default)]
struct StripeData {
    slots: BTreeMap<ObjectKey, Slot>,
}

impl StripeData {
    /// The live state of `key`.
    fn live(&self, key: &ObjectKey) -> Option<&Value> {
        self.slots.get(key)?.live.as_ref()
    }

    /// The version chain of `key` (empty if it never committed).
    fn chain(&self, key: &ObjectKey) -> &[ChainEntry] {
        self.slots.get(key).map_or(&[], |slot| &slot.chain)
    }

    /// The live state of `relation[key]`, for writing.
    fn live_mut(&mut self, relation: &str, key: &ObjectKey) -> Result<&mut Value> {
        self.slots.get_mut(key).and_then(|slot| slot.live.as_mut()).ok_or_else(|| {
            StorageError::UnknownObject { relation: relation.to_string(), key: key.clone() }
        })
    }

    /// The slot of `key`, created empty (the key cloned) if absent.
    fn slot_mut(&mut self, key: &ObjectKey) -> &mut Slot {
        if !self.slots.contains_key(key) {
            self.slots.insert(key.clone(), Slot::default());
        }
        self.slots.get_mut(key).expect("inserted above")
    }

    /// Replaces the live state of `key`; returns the previous one.
    fn set_live(&mut self, key: &ObjectKey, value: Option<Value>) -> Option<Value> {
        let before = match value {
            Some(v) => self.slot_mut(key).live.replace(v),
            None => self.slots.get_mut(key).and_then(|slot| slot.live.take()),
        };
        self.drop_if_empty(key);
        before
    }

    /// Removes `key`'s slot if nothing is left in it.
    fn drop_if_empty(&mut self, key: &ObjectKey) {
        if self.slots.get(key).is_some_and(|slot| slot.live.is_none() && slot.chain.is_empty()) {
            self.slots.remove(key);
        }
    }
}

/// One relation: its objects over [`STRIPES`] latches, each on lines of its
/// own.
#[derive(Debug)]
struct Relation {
    stripes: Box<[CachePadded<RwLock<StripeData>>]>,
}

impl Relation {
    fn new() -> Self {
        Relation { stripes: (0..STRIPES).map(|_| CachePadded::default()).collect() }
    }

    /// The latch of `key`'s stripe.
    fn stripe(&self, key: &ObjectKey) -> &RwLock<StripeData> {
        &self.stripes[stripe_of(key)]
    }

    /// Visits every slot, one stripe read-latched at a time, in stripe order
    /// (not key order).
    fn for_each(&self, mut f: impl FnMut(&ObjectKey, &Slot)) {
        for stripe in self.stripes.iter() {
            for (key, slot) in &stripe.read_latch().slots {
                f(key, slot);
            }
        }
    }

    /// What `f` picks from the slots, in key order (`key` names the key of
    /// a picked item).
    fn collect_sorted<T>(
        &self,
        mut f: impl FnMut(&ObjectKey, &Slot) -> Option<T>,
        key: impl Fn(&T) -> &ObjectKey,
    ) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each(|k, slot| out.extend(f(k, slot)));
        // Keys are unique across stripes, so the unstable sort is the order
        // one map over the whole relation would have.
        out.sort_unstable_by(|a, b| key(a).cmp(key(b)));
        out
    }
}

/// Newest chain entry visible at snapshot `ts` (`None` if the object did not
/// exist — never committed before `ts`, or deleted by then).
fn visible(chain: &[ChainEntry], ts: u64) -> Option<&Value> {
    chain.iter().rev().find(|(t, _)| *t <= ts).and_then(|(_, v)| v.as_ref())
}

/// The monotonic commit-timestamp counter (GTM-style) behind the
/// multiversion overlay.
///
/// `stable` is the newest timestamp whose commit is fully installed; readers
/// snapshot it without any lock. The `gate` mutex serializes commits so a
/// multi-object install publishes atomically: a snapshot taken at `stable`
/// can never observe half of a commit.
#[derive(Debug, Default)]
pub struct CommitClock {
    stable: AtomicU64,
    gate: Mutex<()>,
}

impl CommitClock {
    /// The newest fully-installed commit timestamp — the snapshot timestamp
    /// a read-only transaction takes at begin.
    pub fn stable(&self) -> u64 {
        self.stable.load(Ordering::Acquire)
    }

    /// Runs `f` with a fresh commit timestamp under the commit gate and
    /// publishes the timestamp as stable afterwards. `f` installs the
    /// commit's versions; until it returns, no reader can take a snapshot
    /// that covers the new timestamp.
    pub fn commit<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let ts = self.stable.load(Ordering::Relaxed) + 1;
        let out = f(ts);
        self.stable.store(ts, Ordering::Release);
        out
    }
}

/// How a committing transaction's new version of one object is derived (see
/// [`Store::install_version`]).
#[derive(Debug, Clone)]
pub enum VersionPatch {
    /// The whole live object is the new version (the writer held a
    /// whole-object X lock, e.g. it inserted the object).
    Full,
    /// Compose the new version from the last committed image plus the listed
    /// subtrees copied from the live object — the paths this transaction
    /// held element X locks on. A raw live clone would leak the uncommitted
    /// writes of concurrent sibling-element writers into the chain.
    Paths(Vec<Vec<TargetStep>>),
    /// The object was deleted.
    Tombstone,
}

/// An O(1) versioned handle to one relation: a snapshot timestamp plus a
/// borrow of the store. Materialization ([`RelationSnapshot::objects`],
/// [`RelationSnapshot::get`]) resolves against the version chains at the
/// handle's timestamp, so later writes never show through.
#[derive(Debug, Clone, Copy)]
pub struct RelationSnapshot<'s> {
    store: &'s Store,
    relation: &'s str,
    ts: u64,
}

impl RelationSnapshot<'_> {
    /// Relation name.
    pub fn relation(&self) -> &str {
        self.relation
    }

    /// The snapshot timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// `(key, value)` pairs visible at the snapshot, in key order. The values
    /// share their structure with the version chains.
    pub fn objects(&self) -> Vec<(ObjectKey, Value)> {
        self.data().collect_sorted(
            |k, slot| visible(&slot.chain, self.ts).map(|v| (k.clone(), v.clone())),
            |(k, _)| k,
        )
    }

    /// The value of one object at the snapshot, if visible.
    pub fn get(&self, key: &ObjectKey) -> Option<Value> {
        let data = self.data().stripe(key).read_latch();
        visible(data.chain(key), self.ts).cloned()
    }

    /// Keys visible at the snapshot, in order.
    pub fn keys(&self) -> Vec<ObjectKey> {
        self.store.keys_at(self.relation, self.ts).expect("validated at snapshot()")
    }

    /// Number of objects visible at the snapshot.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.data().for_each(|_, slot| n += usize::from(visible(&slot.chain, self.ts).is_some()));
        n
    }

    fn data(&self) -> &Relation {
        self.store.data(self.relation).expect("validated at snapshot()")
    }

    /// Whether nothing is visible at the snapshot.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The in-memory complex-object store.
///
/// Thread-safe: each relation's objects are guarded by eight read/write
/// latches chosen by key (the *physical* latches of a storage engine —
/// distinct from the transaction locks of `colock-lockmgr`, which are the
/// paper's subject).
///
/// ```
/// use colock_core::fixtures::fig1_catalog;
/// use colock_nf2::value::build::tup;
/// use colock_nf2::{ObjectKey, Value};
/// use colock_storage::Store;
/// use std::sync::Arc;
///
/// let store = Store::new(Arc::new(fig1_catalog()));
/// store.insert("effectors", tup(vec![
///     ("eff_id", Value::str("e1")),
///     ("tool", Value::str("gripper")),
/// ])).unwrap();
/// let v = store.get("effectors", &ObjectKey::from("e1")).unwrap();
/// assert_eq!(v.field("tool"), Some(&Value::str("gripper")));
/// // A reference to a missing object is rejected (referential integrity).
/// assert!(store.insert("effectors", tup(vec![
///     ("eff_id", Value::Int(3)), // wrong type, schema validation fires too
///     ("tool", Value::str("t")),
/// ])).is_err());
/// ```
#[derive(Debug)]
pub struct Store {
    catalog: Arc<Catalog>,
    relations: BTreeMap<String, Relation>,
    /// What every commit writes, on lines of its own: the relation map
    /// beside it is read by every operation.
    commits: CachePadded<Commits>,
    /// Objects visited by reverse-reference scans (cumulative, for E2).
    scan_visits: AtomicU64,
    /// Chain entries dropped by [`Store::prune_versions`] (cumulative).
    versions_pruned: AtomicU64,
}

/// The commit clock and the count of versions installed (bumped only under
/// the clock's gate).
#[derive(Debug, Default)]
struct Commits {
    clock: CommitClock,
    /// Versions installed into chains (cumulative).
    versions_installed: AtomicU64,
}

impl Store {
    /// Creates an empty store over a catalog.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let relations = catalog
            .schema()
            .relations
            .iter()
            .map(|r| (r.name.clone(), Relation::new()))
            .collect();
        Store {
            catalog,
            relations,
            commits: CachePadded::default(),
            scan_visits: AtomicU64::new(0),
            versions_pruned: AtomicU64::new(0),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The commit-timestamp clock of the multiversion overlay.
    pub fn clock(&self) -> &CommitClock {
        &self.commits.clock
    }

    fn schema_of(&self, relation: &str) -> Result<&RelationSchema> {
        self.catalog
            .schema()
            .relation(relation)
            .map_err(|_| StorageError::UnknownRelation(relation.to_string()))
    }

    fn data(&self, relation: &str) -> Result<&Relation> {
        self.relations
            .get(relation)
            .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))
    }

    /// Appends one committed state to an object's chain.
    fn push_version(&self, slot: &mut Slot, ts: u64, image: Option<Value>) {
        slot.chain.push((ts, image));
        self.commits.versions_installed.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts a complex object; validates the value against the schema and
    /// checks that every contained reference resolves. Returns the key.
    /// Auto-commits one version (the non-transactional entry point).
    pub fn insert(&self, relation: &str, value: Value) -> Result<ObjectKey> {
        let key = self.object_key(relation, &value)?;
        self.clock().commit(|ts| self.insert_inner(relation, key.clone(), value, Some(ts)))?;
        Ok(key)
    }

    /// The key `value` would be inserted under, validating it against the
    /// relation's schema; takes no latch. A transaction locks this key before
    /// [`Store::insert_pending`] makes the object visible to [`Store::keys`].
    pub fn object_key(&self, relation: &str, value: &Value) -> Result<ObjectKey> {
        Ok(value.check_object(self.schema_of(relation)?)?)
    }

    /// Transactional insert of `value` under `key`, which the caller derived
    /// (and so validated) with [`Store::object_key`]. References are checked
    /// as by [`Store::insert`], but no version is installed — the object
    /// stays invisible to snapshots until the owning transaction commits it
    /// via [`Store::install_version`].
    pub fn insert_pending(&self, relation: &str, key: ObjectKey, value: Value) -> Result<()> {
        debug_assert_eq!(self.object_key(relation, &value).ok(), Some(key.clone()));
        self.insert_inner(relation, key, value, None)
    }

    fn insert_inner(
        &self,
        relation: &str,
        key: ObjectKey,
        value: Value,
        version: Option<u64>,
    ) -> Result<()> {
        self.check_refs_resolve(&value)?;
        let mut data = self.data(relation)?.stripe(&key).write_latch();
        if data.live(&key).is_some() {
            return Err(StorageError::DuplicateObject {
                relation: relation.to_string(),
                key,
            });
        }
        let slot = data.slots.entry(key).or_default();
        if let Some(ts) = version {
            self.push_version(slot, ts, Some(value.clone()));
        }
        slot.live = Some(value);
        Ok(())
    }

    /// Reads a full object. The result shares its structure with the store
    /// (no copy); later writes to the object never show through it.
    pub fn get(&self, relation: &str, key: &ObjectKey) -> Result<Value> {
        let data = self.data(relation)?.stripe(key).read_latch();
        data.live(key).cloned().ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })
    }

    /// Runs `f` over an object without cloning it.
    pub fn with_object<T>(
        &self,
        relation: &str,
        key: &ObjectKey,
        f: impl FnOnce(&Value) -> T,
    ) -> Result<T> {
        let data = self.data(relation)?.stripe(key).read_latch();
        data.live(key)
            .map(f)
            .ok_or_else(|| StorageError::UnknownObject {
                relation: relation.to_string(),
                key: key.clone(),
            })
    }

    /// Reads the subvalue at `steps` within an object (a composite subvalue
    /// is shared with the store, not copied).
    pub fn get_at(&self, relation: &str, key: &ObjectKey, steps: &[TargetStep]) -> Result<Value> {
        let schema = self.schema_of(relation)?;
        self.with_object(relation, key, |v| {
            navigate::navigate(schema, v, steps).cloned().ok_or_else(|| {
                StorageError::BadTarget(format!("{relation}[{key}].{steps:?}"))
            })
        })?
    }

    /// Reads the subvalue at `steps` as of snapshot timestamp `ts` — against
    /// the version chains only, never the live map, so no lock or latch held
    /// by a writer is ever needed.
    pub fn get_at_snapshot(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        ts: u64,
    ) -> Result<Value> {
        let schema = self.schema_of(relation)?;
        let data = self.data(relation)?.stripe(key).read_latch();
        let img = visible(data.chain(key), ts).ok_or_else(|| {
            StorageError::UnknownObject { relation: relation.to_string(), key: key.clone() }
        })?;
        navigate::navigate(schema, img, steps)
            .cloned()
            .ok_or_else(|| StorageError::BadTarget(format!("{relation}[{key}].{steps:?}")))
    }

    /// Whether an object is visible at snapshot timestamp `ts`.
    pub fn contains_at(&self, relation: &str, key: &ObjectKey, ts: u64) -> bool {
        self.data(relation)
            .map(|d| visible(d.stripe(key).read_latch().chain(key), ts).is_some())
            .unwrap_or(false)
    }

    /// Keys visible at snapshot timestamp `ts`, in order.
    pub fn keys_at(&self, relation: &str, ts: u64) -> Result<Vec<ObjectKey>> {
        Ok(self.data(relation)?.collect_sorted(
            |k, slot| visible(&slot.chain, ts).map(|_| k.clone()),
            |k| k,
        ))
    }

    /// Replaces the whole object; returns the before-image. Auto-commits one
    /// version (the non-transactional entry point).
    pub fn update(&self, relation: &str, key: &ObjectKey, value: Value) -> Result<Value> {
        let schema = self.schema_of(relation)?;
        let new_key = value.check_object(schema)?;
        if &new_key != key {
            return Err(StorageError::BadTarget(format!(
                "update must preserve key ({key} -> {new_key})"
            )));
        }
        self.check_refs_resolve(&value)?;
        self.clock().commit(|ts| {
            let mut data = self.data(relation)?.stripe(key).write_latch();
            let before = std::mem::replace(data.live_mut(relation, key)?, value.clone());
            self.push_version(data.slot_mut(key), ts, Some(value));
            Ok(before)
        })
    }

    /// Replaces the subvalue at `steps`; returns the before-image of the
    /// *replaced subvalue*. Undo granularity matches lock granularity: a
    /// rollback must restore only the subtree this update touched, or it
    /// would clobber concurrent (element-locked) sibling writes.
    /// Auto-commits one version (the non-transactional entry point).
    pub fn update_at(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        new_value: Value,
    ) -> Result<Value> {
        self.clock().commit(|ts| self.update_at_inner(relation, key, steps, new_value, Some(ts)))
    }

    /// Transactional sub-object update: identical semantics, but the result
    /// stays out of the version chains until the owning transaction commits
    /// it via [`Store::install_version`].
    pub fn update_at_pending(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        new_value: Value,
    ) -> Result<Value> {
        self.update_at_inner(relation, key, steps, new_value, None)
    }

    fn update_at_inner(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        new_value: Value,
        version: Option<u64>,
    ) -> Result<Value> {
        let schema = self.schema_of(relation)?;
        // What depends on the new subvalue alone is settled before the latch.
        self.check_refs_resolve(&new_value)?;
        check_subvalue(schema, key, steps, &new_value)?;
        let rekeyed = rekeyed_set_element(schema, steps, &new_value);
        let mut data = self.data(relation)?.stripe(key).write_latch();
        let obj = data.live_mut(relation, key)?;
        if let Some((container, elem_ty, new_key)) = &rekeyed {
            let taken = navigate::navigate(schema, obj, container)
                .and_then(|c| navigate::find_element(c, elem_ty, new_key));
            if taken.is_some() {
                return Err(Nf2Error::DuplicateSetKey {
                    path: format!("{relation}[{key}].{container:?}"),
                    key: new_key.to_string(),
                }
                .into());
            }
        }
        let subtree = navigate::navigate_mut(schema, obj, steps).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{steps:?}"))
        })?;
        let before = std::mem::replace(subtree, new_value);
        if let Some(ts) = version {
            let image = obj.clone();
            self.push_version(data.slot_mut(key), ts, Some(image));
        }
        Ok(before)
    }

    /// The key `element` would be inserted under at `container` within
    /// `relation[key]`, validating its type against the schema; takes no
    /// latch. A transaction locks this key before
    /// [`Store::insert_element_pending`] splices the element in.
    pub fn element_key(
        &self,
        relation: &str,
        key: &ObjectKey,
        container: &[TargetStep],
        element: &Value,
    ) -> Result<ObjectKey> {
        let elem_ty = element_type(self.schema_of(relation)?, relation, key, container)?;
        element.check_type(elem_ty, format_args!("{relation}[{key}].{container:?}[+]"))?;
        element.element_key(elem_ty).ok_or_else(|| {
            StorageError::BadTarget(format!(
                "element inserted at {relation}[{key}].{container:?} has no derivable key"
            ))
        })
    }

    /// Transactional element insert: appends `element` under `elem_key`,
    /// which the caller derived (and so validated) with
    /// [`Store::element_key`], to the keyed set/list at `container` within
    /// `relation[key]`. No version is installed — the element stays
    /// invisible to snapshots until the owning transaction commits it via
    /// [`Store::install_version`] with the element's path in its patch.
    pub fn insert_element_pending(
        &self,
        relation: &str,
        key: &ObjectKey,
        container: &[TargetStep],
        elem_key: ObjectKey,
        element: Value,
    ) -> Result<()> {
        debug_assert_eq!(
            self.element_key(relation, key, container, &element).ok(),
            Some(elem_key.clone())
        );
        let schema = self.schema_of(relation)?;
        self.check_refs_resolve(&element)?;
        let elem_ty = element_type(schema, relation, key, container)?;
        let mut data = self.data(relation)?.stripe(key).write_latch();
        let obj = data.live_mut(relation, key)?;
        let bad_target = || StorageError::BadTarget(format!("{relation}[{key}].{container:?}"));
        // Look before copying the path: a refused insert leaves the object
        // as shared as it was.
        let cont = navigate::navigate(schema, obj, container).ok_or_else(bad_target)?;
        if navigate::find_element(cont, elem_ty, &elem_key).is_some() {
            return Err(StorageError::DuplicateObject {
                relation: format!("{relation}[{key}].{container:?}"),
                key: elem_key,
            });
        }
        navigate::navigate_mut(schema, obj, container)
            .and_then(Value::elements_mut)
            .ok_or_else(bad_target)?
            .push(element);
        Ok(())
    }

    /// Transactional element removal: removes the element with `elem_key`
    /// from the keyed set/list at `container` and returns its position and
    /// before-image. Snapshots keep seeing the element until a commit
    /// installs a version carrying the removal.
    pub fn remove_element_pending(
        &self,
        relation: &str,
        key: &ObjectKey,
        container: &[TargetStep],
        elem_key: &ObjectKey,
    ) -> Result<(usize, Value)> {
        let schema = self.schema_of(relation)?;
        let elem_ty = element_type(schema, relation, key, container)?;
        let mut data = self.data(relation)?.stripe(key).write_latch();
        let obj = data.live_mut(relation, key)?;
        let cont = navigate::navigate_mut(schema, obj, container).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{container:?}"))
        })?;
        navigate::remove_element(cont, elem_ty, elem_key).ok_or_else(|| {
            StorageError::UnknownObject {
                relation: format!("{relation}[{key}].{container:?}"),
                key: elem_key.clone(),
            }
        })
    }

    /// Rollback inverse of the element ops: `Some((at, image))`
    /// re-establishes the element at its original position (undoing a
    /// removal), `None` drops it (undoing an insert). Like
    /// [`Store::restore`], no checks run and no version is installed — the
    /// image is a state the element already held.
    pub fn restore_element(
        &self,
        relation: &str,
        key: &ObjectKey,
        container: &[TargetStep],
        elem_key: &ObjectKey,
        image: Option<(usize, Value)>,
    ) -> Result<()> {
        let schema = self.schema_of(relation)?;
        let elem_ty = element_type(schema, relation, key, container)?;
        let mut data = self.data(relation)?.stripe(key).write_latch();
        let obj = data.live_mut(relation, key)?;
        let cont = navigate::navigate_mut(schema, obj, container).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{container:?}"))
        })?;
        navigate::remove_element(cont, elem_ty, elem_key);
        if let Some((at, v)) = image {
            if let Some(es) = cont.elements_mut() {
                es.insert(at.min(es.len()), v);
            }
        }
        Ok(())
    }

    /// Writes a rollback image back at `steps` (the inverse of
    /// [`Store::update_at`]). Like [`Store::restore`], no referential checks
    /// are performed and no version is installed: the image is a state the
    /// object already held.
    pub fn restore_at(
        &self,
        relation: &str,
        key: &ObjectKey,
        steps: &[TargetStep],
        image: Value,
    ) -> Result<()> {
        let schema = self.schema_of(relation)?;
        let mut data = self.data(relation)?.stripe(key).write_latch();
        let obj = data.live_mut(relation, key)?;
        let subtree = navigate::navigate_mut(schema, obj, steps).ok_or_else(|| {
            StorageError::BadTarget(format!("{relation}[{key}].{steps:?}"))
        })?;
        *subtree = image;
        Ok(())
    }

    /// Deletes an object; rejected while other objects still reference it
    /// (referential integrity). Returns the before-image. Auto-commits a
    /// tombstone version (the non-transactional entry point).
    pub fn delete(&self, relation: &str, key: &ObjectKey) -> Result<Value> {
        self.clock().commit(|ts| self.delete_inner(relation, key, Some(ts)))
    }

    /// Transactional delete: the object leaves the live map now, but stays
    /// visible to snapshots until the owning transaction commits a tombstone
    /// via [`Store::install_version`].
    pub fn delete_pending(&self, relation: &str, key: &ObjectKey) -> Result<Value> {
        self.delete_inner(relation, key, None)
    }

    fn delete_inner(&self, relation: &str, key: &ObjectKey, version: Option<u64>) -> Result<Value> {
        let referencers = self.count_referencers(relation, key)?;
        if referencers > 0 {
            return Err(StorageError::StillReferenced {
                relation: relation.to_string(),
                key: key.clone(),
                referencers,
            });
        }
        let mut data = self.data(relation)?.stripe(key).write_latch();
        let gone = data.set_live(key, None).ok_or_else(|| StorageError::UnknownObject {
            relation: relation.to_string(),
            key: key.clone(),
        })?;
        if let Some(ts) = version {
            self.push_version(data.slot_mut(key), ts, None);
        }
        Ok(gone)
    }

    /// Restores an object to a previous image (transaction rollback); also
    /// used to undo a delete (re-insert) or an insert (remove, pass `None`).
    /// Never versions: rollback re-establishes a state the chains already
    /// end in.
    pub fn restore(&self, relation: &str, key: &ObjectKey, image: Option<Value>) -> Result<()> {
        self.data(relation)?.stripe(key).write_latch().set_live(key, image);
        Ok(())
    }

    /// Installs one object's new committed version at timestamp `ts` — the
    /// commit step of a writing transaction, called under
    /// [`CommitClock::commit`] while the writer still holds its X locks.
    ///
    /// `Paths` composition exists because element X locks admit concurrent
    /// writers on *sibling* elements of the same object: the live object may
    /// carry their uncommitted data, so the new version is the last
    /// committed image plus only the committing transaction's own locked
    /// subtrees. The new image starts as a clone of the base (one reference
    /// count) and each path replaces one subtree in it, copying the spine to
    /// that subtree and nothing else: the new entry shares every untouched
    /// sibling with the previous one. If composition is impossible (no
    /// prior committed image, a path that no longer navigates), the whole
    /// live object is installed.
    pub fn install_version(
        &self,
        relation: &str,
        key: &ObjectKey,
        ts: u64,
        patch: &VersionPatch,
    ) -> Result<()> {
        let schema = self.schema_of(relation)?;
        let mut data = self.data(relation)?.stripe(key).write_latch();
        let data = &mut *data;
        let live = || {
            data.live(key).ok_or_else(|| StorageError::UnknownObject {
                relation: relation.to_string(),
                key: key.clone(),
            })
        };
        let image = match patch {
            VersionPatch::Tombstone => None,
            VersionPatch::Full => Some(live()?.clone()),
            VersionPatch::Paths(paths) => {
                let live = live()?;
                let base = data.chain(key).last().and_then(|(_, v)| v.as_ref());
                let composed = base.and_then(|base| {
                    let mut img = base.clone();
                    paths
                        .iter()
                        .all(|path| compose_path(schema, live, &mut img, path))
                        .then_some(img)
                });
                Some(composed.unwrap_or_else(|| live.clone()))
            }
        };
        self.push_version(data.slot_mut(key), ts, image);
        Ok(())
    }

    /// Drops chain entries no active snapshot can reach: per chain, every
    /// entry older than the newest entry ≤ `watermark` (the oldest active
    /// snapshot timestamp). A chain whose only remaining entry is a
    /// tombstone ≤ `watermark` is removed entirely. Returns the number of
    /// entries dropped.
    pub fn prune_versions(&self, watermark: u64) -> u64 {
        let mut pruned = 0u64;
        for stripe in self.relations.values().flat_map(|r| r.stripes.iter()) {
            stripe.write_latch().slots.retain(|_, Slot { live, chain }| {
                let keep_from = chain.iter().rposition(|(t, _)| *t <= watermark).unwrap_or(0);
                pruned += keep_from as u64;
                chain.drain(..keep_from);
                if chain.len() == 1 && chain[0].0 <= watermark && chain[0].1.is_none() {
                    pruned += 1;
                    chain.clear();
                }
                live.is_some() || !chain.is_empty()
            });
        }
        self.versions_pruned.fetch_add(pruned, Ordering::Relaxed);
        pruned
    }

    /// Total chain entries of one relation (GC observability).
    pub fn version_entries(&self, relation: &str) -> Result<usize> {
        let mut n = 0;
        self.data(relation)?.for_each(|_, slot| n += slot.chain.len());
        Ok(n)
    }

    /// Versions installed into chains so far (cumulative).
    pub fn versions_installed(&self) -> u64 {
        self.commits.versions_installed.load(Ordering::Relaxed)
    }

    /// Chain entries dropped by pruning so far (cumulative).
    pub fn versions_pruned(&self) -> u64 {
        self.versions_pruned.load(Ordering::Relaxed)
    }

    /// Keys of a relation, in order.
    pub fn keys(&self, relation: &str) -> Result<Vec<ObjectKey>> {
        Ok(self.data(relation)?.collect_sorted(|k, slot| slot.live.as_ref().map(|_| k.clone()), |k| k))
    }

    /// Number of objects in a relation.
    pub fn len(&self, relation: &str) -> Result<usize> {
        let mut n = 0;
        self.data(relation)?.for_each(|_, slot| n += usize::from(slot.live.is_some()));
        Ok(n)
    }

    /// Whether a relation is empty.
    pub fn is_empty(&self, relation: &str) -> Result<bool> {
        Ok(self.len(relation)? == 0)
    }

    /// Whether an object exists.
    pub fn contains(&self, relation: &str, key: &ObjectKey) -> bool {
        self.data(relation)
            .map(|d| d.stripe(key).read_latch().live(key).is_some())
            .unwrap_or(false)
    }

    /// An O(1) versioned snapshot handle of one relation, pinned at the
    /// current stable commit timestamp. Later writes never show through;
    /// materialization is deferred to the accessors.
    pub fn snapshot(&self, relation: &str) -> Result<RelationSnapshot<'_>> {
        let (name, _) = self
            .relations
            .get_key_value(relation)
            .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))?;
        Ok(RelationSnapshot { store: self, relation: name, ts: self.clock().stable() })
    }

    /// Objects visited by all reverse scans so far.
    pub fn scan_visits(&self) -> u64 {
        self.scan_visits.load(Ordering::Relaxed)
    }

    pub(crate) fn bump_scan_visits(&self, n: u64) {
        self.scan_visits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts subobjects referencing `relation[key]` — a full scan over the
    /// relations whose schema can reference `relation`.
    pub fn count_referencers(&self, relation: &str, key: &ObjectKey) -> Result<usize> {
        let mut count = 0;
        for rel in &self.catalog.schema().relations {
            if !rel.direct_ref_targets().contains(&relation) {
                continue;
            }
            self.data(&rel.name)?.for_each(|_, slot| {
                let Some(obj) = &slot.live else { return };
                let mut refs = Vec::new();
                obj.collect_refs(&mut refs);
                count += refs
                    .iter()
                    .filter(|r| r.relation == relation && &r.key == key)
                    .count();
            });
        }
        Ok(count)
    }

    fn check_refs_resolve(&self, value: &Value) -> Result<()> {
        let mut refs: Vec<&ObjectRef> = Vec::new();
        value.collect_refs(&mut refs);
        for r in refs {
            let data = self.data(&r.relation)?;
            if data.stripe(&r.key).read_latch().live(&r.key).is_none() {
                return Err(StorageError::DanglingReference {
                    relation: r.relation.clone(),
                    key: r.key.clone(),
                });
            }
        }
        Ok(())
    }
}

/// The element type of the set/list at `container`, or the `BadTarget` the
/// element operations report for anything else.
fn element_type<'s>(
    schema: &'s RelationSchema,
    relation: &str,
    key: &ObjectKey,
    container: &[TargetStep],
) -> Result<&'s AttrType> {
    navigate::path_type(schema, container).and_then(AttrType::element).ok_or_else(|| {
        StorageError::BadTarget(format!("{relation}[{key}].{container:?} is not a set/list"))
    })
}

/// The checks of a sub-object write that need only the new subvalue: its
/// type against the schema type at `steps`, and — where the write covers the
/// object's key attribute — that the key stays `key`. (A path the schema
/// does not resolve is left to navigation, which reports it.)
fn check_subvalue(
    schema: &RelationSchema,
    key: &ObjectKey,
    steps: &[TargetStep],
    new_value: &Value,
) -> Result<()> {
    let key_kept = match steps {
        [] => &new_value.check_object(schema)? == key,
        _ => {
            if let Some(ty) = navigate::path_type(schema, steps) {
                new_value
                    .check_type(ty, format_args!("{}[{key}].{steps:?}", schema.name))?;
            }
            match (steps, schema.key_attribute()) {
                ([only], Some(key_attr)) if only.elem.is_none() && only.attr == key_attr.name => {
                    new_value.is_key(key)
                }
                _ => true,
            }
        }
    };
    if key_kept {
        Ok(())
    } else {
        Err(StorageError::BadTarget("update_at must not change the key".into()))
    }
}

/// If writing `new_value` at `steps` gives an element of a *set* a key other
/// than the one `steps` addresses it by — the write replaces the element, or
/// the key attribute right below it — the container's steps, its element
/// type and the new key: the one thing about the rest of the object the
/// write can invalidate is that this key is already a sibling's.
fn rekeyed_set_element<'s>(
    schema: &'s RelationSchema,
    steps: &[TargetStep],
    new_value: &Value,
) -> Option<(Vec<TargetStep>, &'s AttrType, ObjectKey)> {
    let (last, prefix) = steps.split_last()?;
    let (element_steps, new_key) = match &last.elem {
        Some(_) => {
            let elem_ty = navigate::path_type(schema, steps)?;
            (steps, new_value.element_key(elem_ty)?)
        }
        None => {
            prefix.last()?.elem.as_ref()?;
            let key_attr = navigate::path_type(schema, prefix)?.fields()?.iter().find(|a| a.key)?;
            if key_attr.name != last.attr {
                return None;
            }
            (prefix, new_value.as_key()?)
        }
    };
    let old_key = element_steps.last()?.elem.as_ref()?;
    if &new_key == old_key {
        return None;
    }
    let container = navigate::container_steps(element_steps)?;
    match navigate::path_type(schema, &container)? {
        AttrType::Set(elem_ty) => Some((container, elem_ty, new_key)),
        _ => None,
    }
}

/// Copies the subtree at `path` from `live` into `img`, element-aware: a
/// trailing elem step that navigates in `live` but not in `img` is an
/// element *insert* (appended to `img`'s container), one that navigates in
/// `img` but not in `live` is an element *removal*. Returns `false` when the
/// path cannot be composed (the caller falls back to the whole live object).
///
/// `img` shares its structure with the committed base; only the spine down
/// to `path` is copied, and the subtree itself is shared with `live`.
fn compose_path(schema: &RelationSchema, live: &Value, img: &mut Value, path: &[TargetStep]) -> bool {
    let src = navigate::navigate(schema, live, path);
    if let Some(src) = src {
        if let Some(dst) = navigate::navigate_mut(schema, img, path) {
            *dst = src.clone();
            return true;
        }
    }
    // In live but not in the committed base: an inserted element. Gone from
    // live: a removed one. Anything else that fails to navigate can't compose.
    let (Some(cpath), Some(elem_key)) =
        (navigate::container_steps(path), path.last().and_then(|s| s.elem.as_ref()))
    else {
        return false;
    };
    let Some(elem_ty) = navigate::path_type(schema, &cpath).and_then(AttrType::element) else {
        return false;
    };
    let Some(container) = navigate::navigate_mut(schema, img, &cpath) else {
        return false;
    };
    if container.elements().is_none() {
        return false;
    }
    navigate::remove_element(container, elem_ty, elem_key);
    if let (Some(src), Some(es)) = (src, container.elements_mut()) {
        es.push(src.clone());
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::fixtures::fig1_catalog;
    use colock_nf2::value::build::*;

    fn store() -> Store {
        Store::new(Arc::new(fig1_catalog()))
    }

    fn effector(id: &str, tool: &str) -> Value {
        tup(vec![("eff_id", Value::str(id)), ("tool", Value::str(tool))])
    }

    fn cell(id: &str, robots: Vec<(&str, Vec<&str>)>) -> Value {
        cell_with_objects(id, &[], robots)
    }

    fn c_object(id: &str) -> Value {
        tup(vec![("obj_id", Value::str(id)), ("obj_name", Value::str(format!("part-{id}")))])
    }

    fn cell_with_objects(id: &str, objects: &[&str], robots: Vec<(&str, Vec<&str>)>) -> Value {
        tup(vec![
            ("cell_id", Value::str(id)),
            ("c_objects", set(objects.iter().map(|o| c_object(o)).collect())),
            (
                "robots",
                list(
                    robots
                        .into_iter()
                        .map(|(rid, effs)| {
                            tup(vec![
                                ("robot_id", Value::str(rid)),
                                ("trajectory", Value::str(format!("t-{rid}"))),
                                (
                                    "effectors",
                                    set(effs
                                        .into_iter()
                                        .map(|e| Value::reference("effectors", e))
                                        .collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn insert_get_roundtrip() {
        let s = store();
        s.insert("effectors", effector("e1", "gripper")).unwrap();
        let v = s.get("effectors", &ObjectKey::from("e1")).unwrap();
        assert_eq!(v.field("tool"), Some(&Value::str("gripper")));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let err = s.insert("effectors", effector("e1", "b")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateObject { .. }));
    }

    #[test]
    fn dangling_reference_rejected() {
        let s = store();
        let err = s.insert("cells", cell("c1", vec![("r1", vec!["e1"])])).unwrap_err();
        assert!(matches!(err, StorageError::DanglingReference { .. }));
    }

    #[test]
    fn referenced_object_cannot_be_deleted() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        s.insert("cells", cell("c1", vec![("r1", vec!["e1"])])).unwrap();
        let err = s.delete("effectors", &ObjectKey::from("e1")).unwrap_err();
        assert!(matches!(err, StorageError::StillReferenced { referencers: 1, .. }));
        // Unreferenced objects delete fine.
        s.insert("effectors", effector("e2", "b")).unwrap();
        assert!(s.delete("effectors", &ObjectKey::from("e2")).is_ok());
    }

    #[test]
    fn update_at_returns_subvalue_before_image() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        s.insert("cells", cell("c1", vec![("r1", vec!["e1"])])).unwrap();
        let key = ObjectKey::from("c1");
        let before = s
            .update_at(
                "cells",
                &key,
                &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
                Value::str("t-new"),
            )
            .unwrap();
        // The before-image is the replaced subvalue itself (path-granular).
        assert_eq!(before, Value::str("t-r1"));
        // And restore_at is its inverse.
        s.restore_at(
            "cells",
            &key,
            &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
            before,
        )
        .unwrap();
        let restored = s
            .get_at("cells", &key, &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")])
            .unwrap();
        assert_eq!(restored, Value::str("t-r1"));
        s.update_at(
            "cells",
            &key,
            &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
            Value::str("t-new"),
        )
        .unwrap();
        let now = s
            .get_at("cells", &key, &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")])
            .unwrap();
        assert_eq!(now, Value::str("t-new"));
    }

    #[test]
    fn update_at_rejects_key_change() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let err = s
            .update_at("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("eff_id")], Value::str("e9"))
            .unwrap_err();
        assert!(matches!(err, StorageError::BadTarget(_)));
        // Object unchanged.
        let v = s.get("effectors", &ObjectKey::from("e1")).unwrap();
        assert_eq!(v.field("eff_id"), Some(&Value::str("e1")));
    }

    /// The committed image of `relation[key]` at `ts` (shares with the chain).
    fn image_at(s: &Store, relation: &str, key: &ObjectKey, ts: u64) -> Value {
        s.get_at_snapshot(relation, key, &[], ts).unwrap()
    }

    fn robot_of<'v>(cell: &'v Value, id: &str) -> &'v Value {
        let robots = cell.field("robots").unwrap().elements().unwrap();
        robots.iter().find(|r| r.field("robot_id") == Some(&Value::str(id))).unwrap()
    }

    #[test]
    fn local_checks_reject_what_the_whole_object_check_did() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        s.insert("cells", cell_with_objects("c1", &["o1", "o2"], vec![("r1", vec!["e1"])])).unwrap();
        let key = ObjectKey::from("c1");
        let committed = image_at(&s, "cells", &key, s.clock().stable());
        let o1 = [TargetStep::elem("c_objects", "o1")];
        let o1_id = [TargetStep::elem("c_objects", "o1"), TargetStep::attr("obj_id")];
        let duplicate = |r: Result<Value>| {
            matches!(r, Err(StorageError::Model(Nf2Error::DuplicateSetKey { .. })))
        };
        // A keyed set element replaced by one carrying a sibling's key …
        assert!(duplicate(s.update_at_pending("cells", &key, &o1, c_object("o2"))));
        // … or re-keyed to it through its key attribute.
        assert!(duplicate(s.update_at_pending("cells", &key, &o1_id, Value::str("o2"))));
        // The new subvalue's type is checked against the type at its path.
        let traj = [TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")];
        assert!(matches!(
            s.update_at_pending("cells", &key, &traj, Value::Int(1)),
            Err(StorageError::Model(Nf2Error::TypeMismatch { .. }))
        ));
        assert!(s.update_at_pending("cells", &key, &o1, Value::str("o1")).is_err());
        // Its references must resolve.
        let effs = [TargetStep::elem("robots", "r1"), TargetStep::attr("effectors")];
        assert!(matches!(
            s.update_at_pending("cells", &key, &effs, set(vec![Value::reference("effectors", "e9")])),
            Err(StorageError::DanglingReference { .. })
        ));
        // The object key is stable, also under a whole-object write.
        assert!(matches!(
            s.update_at_pending("cells", &key, &[TargetStep::attr("cell_id")], Value::str("c2")),
            Err(StorageError::BadTarget(_))
        ));
        assert!(matches!(
            s.update_at_pending("cells", &key, &[], cell("c2", vec![])),
            Err(StorageError::BadTarget(_))
        ));
        // Every refusal came before the write: the live object is still the
        // committed image itself, not even a copy of it.
        assert!(s.get("cells", &key).unwrap().shares_with(&committed));
        // A fresh key is fine, by either route.
        s.update_at_pending("cells", &key, &o1, c_object("o7")).unwrap();
        s.update_at_pending("cells", &key, &[TargetStep::elem("c_objects", "o7"), TargetStep::attr("obj_id")], Value::str("o8"))
            .unwrap();
        assert!(s.get_at("cells", &key, &[TargetStep::elem("c_objects", "o8")]).is_ok());
    }

    #[test]
    fn a_version_copies_its_path_and_shares_the_rest() {
        let s = store();
        for e in ["e1", "e2", "e3"] {
            s.insert("effectors", effector(e, "t")).unwrap();
        }
        let robots = vec![("r1", vec!["e1"]), ("r2", vec!["e2"]), ("r3", vec!["e3"])];
        s.insert("cells", cell_with_objects("c1", &["o1", "o2", "o3"], robots.clone())).unwrap();
        let key = ObjectKey::from("c1");
        let traj = vec![TargetStep::elem("robots", "r2"), TargetStep::attr("trajectory")];
        let before_ts = s.clock().stable();
        let before = image_at(&s, "cells", &key, before_ts);

        s.update_at_pending("cells", &key, &traj, Value::str("moved")).unwrap();
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![traj.clone()])).unwrap();
        });
        let after = image_at(&s, "cells", &key, s.clock().stable());

        // The spine — object root, robots list, robot r2 — is new …
        assert!(!after.shares_with(&before));
        assert!(!after.field("robots").unwrap().shares_with(before.field("robots").unwrap()));
        assert!(!robot_of(&after, "r2").shares_with(robot_of(&before, "r2")));
        assert_eq!(robot_of(&after, "r2").field("trajectory"), Some(&Value::str("moved")));
        // … and everything off it is the previous entry's, not a copy.
        assert!(after.field("c_objects").unwrap().shares_with(before.field("c_objects").unwrap()));
        for sibling in ["r1", "r3"] {
            assert!(robot_of(&after, sibling).shares_with(robot_of(&before, sibling)));
        }
        assert!(robot_of(&after, "r2")
            .field("effectors")
            .unwrap()
            .shares_with(robot_of(&before, "r2").field("effectors").unwrap()));

        // The live object has a spine of its own: writing it again reaches
        // neither chain entry, and a pinned reader's value never moves.
        let live = s.get("cells", &key).unwrap();
        assert!(!live.shares_with(&after) && !live.shares_with(&before));
        s.update_at_pending("cells", &key, &traj, Value::str("dirty")).unwrap();
        insert_element(&s, &key, &[TargetStep::attr("robots")], robot("r4")).unwrap();
        assert_eq!(before, cell_with_objects("c1", &["o1", "o2", "o3"], robots));
        assert_eq!(image_at(&s, "cells", &key, before_ts), before);
        assert_eq!(image_at(&s, "cells", &key, s.clock().stable()), after);
        assert_eq!(robot_of(&live, "r2").field("trajectory"), Some(&Value::str("moved")));
    }

    #[test]
    fn restore_rolls_back() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let key = ObjectKey::from("e1");
        let before = s.update("effectors", &key, effector("e1", "b")).unwrap();
        s.restore("effectors", &key, Some(before)).unwrap();
        let v = s.get("effectors", &key).unwrap();
        assert_eq!(v.field("tool"), Some(&Value::str("a")));
        // Undo an insert.
        s.restore("effectors", &key, None).unwrap();
        assert!(!s.contains("effectors", &key));
    }

    #[test]
    fn keys_are_ordered() {
        let s = store();
        for e in ["e3", "e1", "e2"] {
            s.insert("effectors", effector(e, "t")).unwrap();
        }
        let keys: Vec<String> = s.keys("effectors").unwrap().iter().map(|k| k.to_string()).collect();
        assert_eq!(keys, vec!["e1", "e2", "e3"]);
        assert_eq!(s.len("effectors").unwrap(), 3);
    }

    #[test]
    fn unknown_relation_errors() {
        let s = store();
        assert!(matches!(s.keys("nope"), Err(StorageError::UnknownRelation(_))));
        assert!(s.get("nope", &ObjectKey::from("x")).is_err());
    }

    #[test]
    fn snapshot_is_deep() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let snap = s.snapshot("effectors").unwrap();
        s.update("effectors", &ObjectKey::from("e1"), effector("e1", "b")).unwrap();
        assert_eq!(snap.objects()[0].1.field("tool"), Some(&Value::str("a")));
    }

    #[test]
    fn snapshot_handle_is_lazy_and_pinned() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let snap = s.snapshot("effectors").unwrap();
        let ts = snap.ts();
        s.insert("effectors", effector("e2", "b")).unwrap();
        s.delete("effectors", &ObjectKey::from("e1")).unwrap();
        // The handle still sees exactly the state at its timestamp.
        assert_eq!(snap.keys().len(), 1);
        assert_eq!(snap.get(&ObjectKey::from("e1")).unwrap().field("tool"), Some(&Value::str("a")));
        assert!(snap.get(&ObjectKey::from("e2")).is_none());
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());
        // A fresh handle sees the new state.
        let now = s.snapshot("effectors").unwrap();
        assert!(now.ts() > ts);
        assert_eq!(now.keys(), vec![ObjectKey::from("e2")]);
    }

    #[test]
    fn pending_writes_are_invisible_to_snapshots() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let ts = s.clock().stable();
        // What a reader was handed before the write shares the object …
        let pinned = s.snapshot("effectors").unwrap().get(&ObjectKey::from("e1")).unwrap();
        assert!(pinned.shares_with(&s.get("effectors", &ObjectKey::from("e1")).unwrap()));
        // Pending update: live changes, chains do not.
        s.update_at_pending("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], Value::str("dirty"))
            .unwrap();
        // … and the write copied the node instead of reaching through it.
        assert_eq!(pinned, effector("e1", "a"));
        assert!(!pinned.shares_with(&s.get("effectors", &ObjectKey::from("e1")).unwrap()));
        let read = s
            .get_at_snapshot("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], ts)
            .unwrap();
        assert_eq!(read, Value::str("a"));
        // Pending insert: invisible until installed.
        s.insert_pending("effectors", ObjectKey::from("e2"), effector("e2", "b")).unwrap();
        assert!(!s.contains_at("effectors", &ObjectKey::from("e2"), s.clock().stable()));
        // Install both at one commit timestamp.
        s.clock().commit(|ts| {
            s.install_version("effectors", &ObjectKey::from("e1"), ts, &VersionPatch::Paths(vec![vec![
                TargetStep::attr("tool"),
            ]]))
            .unwrap();
            s.install_version("effectors", &ObjectKey::from("e2"), ts, &VersionPatch::Full).unwrap();
        });
        let now = s.clock().stable();
        assert_eq!(
            s.get_at_snapshot("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], now)
                .unwrap(),
            Value::str("dirty")
        );
        assert!(s.contains_at("effectors", &ObjectKey::from("e2"), now));
        // The old snapshot still reads the old value.
        assert_eq!(
            s.get_at_snapshot("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], ts)
                .unwrap(),
            Value::str("a")
        );
    }

    #[test]
    fn paths_patch_excludes_sibling_dirty_data() {
        let s = store();
        s.insert("effectors", effector("e1", "x")).unwrap();
        s.insert("effectors", effector("e2", "y")).unwrap();
        s.insert("cells", cell("c1", vec![("r1", vec!["e1"]), ("r2", vec!["e2"])])).unwrap();
        let key = ObjectKey::from("c1");
        let r1 = vec![TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")];
        let r2 = vec![TargetStep::elem("robots", "r2"), TargetStep::attr("trajectory")];
        let base = image_at(&s, "cells", &key, s.clock().stable());
        // Two concurrent element writers: T1 updates r1, T2 updates r2.
        // Both are pending; T1 commits first.
        s.update_at_pending("cells", &key, &r1, Value::str("t1-traj")).unwrap();
        s.update_at_pending("cells", &key, &r2, Value::str("t2-dirty")).unwrap();
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r1.clone()])).unwrap();
        });
        let now = s.clock().stable();
        // T1's commit carries its own subtree but NOT T2's uncommitted write.
        assert_eq!(s.get_at_snapshot("cells", &key, &r1, now).unwrap(), Value::str("t1-traj"));
        assert_eq!(s.get_at_snapshot("cells", &key, &r2, now).unwrap(), Value::str("t-r2"));
        // T2's robot in T1's version *is* the committed one — shared with
        // the base entry, so nothing of the live (dirty) r2 can be in it.
        let t1_version = image_at(&s, "cells", &key, now);
        assert!(robot_of(&t1_version, "r2").shares_with(robot_of(&base, "r2")));
        assert!(!robot_of(&t1_version, "r1").shares_with(robot_of(&base, "r1")));
        // After T2 commits, its subtree is visible too.
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r2.clone()])).unwrap();
        });
        let later = s.clock().stable();
        assert_eq!(s.get_at_snapshot("cells", &key, &r2, later).unwrap(), Value::str("t2-dirty"));
        assert_eq!(s.get_at_snapshot("cells", &key, &r1, later).unwrap(), Value::str("t1-traj"));
        // T2's version is T1's with r2's spine replaced: r1 is shared.
        let t2_version = image_at(&s, "cells", &key, later);
        assert!(robot_of(&t2_version, "r1").shares_with(robot_of(&t1_version, "r1")));
    }

    /// A transaction's element insert: derive the key, then splice.
    fn insert_element(
        s: &Store,
        key: &ObjectKey,
        container: &[TargetStep],
        element: Value,
    ) -> Result<ObjectKey> {
        let elem_key = s.element_key("cells", key, container, &element)?;
        s.insert_element_pending("cells", key, container, elem_key.clone(), element)?;
        Ok(elem_key)
    }

    fn robot(id: &str) -> Value {
        tup(vec![
            ("robot_id", Value::str(id)),
            ("trajectory", Value::str(format!("t-{id}"))),
            ("effectors", set(vec![])),
        ])
    }

    #[test]
    fn element_insert_remove_restore_roundtrip() {
        let s = store();
        s.insert("cells", cell("c1", vec![("r1", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        let robots = [TargetStep::attr("robots")];
        // Insert derives the element key from the key attribute.
        let ek = insert_element(&s, &key, &robots, robot("r2")).unwrap();
        assert_eq!(ek, ObjectKey::from("r2"));
        assert!(s
            .get_at("cells", &key, &[TargetStep::elem("robots", "r2")])
            .is_ok());
        // Same key again is a duplicate.
        assert!(matches!(
            insert_element(&s, &key, &robots, robot("r2")),
            Err(StorageError::DuplicateObject { .. })
        ));
        // Removal returns the before-image; restore re-establishes it.
        let before = s.remove_element_pending("cells", &key, &robots, &ek).unwrap();
        assert!(s.get_at("cells", &key, &[TargetStep::elem("robots", "r2")]).is_err());
        s.restore_element("cells", &key, &robots, &ek, Some(before)).unwrap();
        assert!(s.get_at("cells", &key, &[TargetStep::elem("robots", "r2")]).is_ok());
        // Undo of an insert: restore with None.
        s.restore_element("cells", &key, &robots, &ek, None).unwrap();
        assert!(s.get_at("cells", &key, &[TargetStep::elem("robots", "r2")]).is_err());
    }

    #[test]
    fn element_insert_rejects_bad_targets() {
        let s = store();
        s.insert("cells", cell("c1", vec![("r1", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        // A scalar attribute is not a container.
        assert!(matches!(
            insert_element(&s, &key, &[TargetStep::attr("cell_id")], robot("r2")),
            Err(StorageError::BadTarget(_))
        ));
        // A schema-typed element that fails validation is rolled back whole.
        let bad = tup(vec![("robot_id", Value::Int(9))]);
        assert!(insert_element(&s, &key, &[TargetStep::attr("robots")], bad).is_err());
        assert_eq!(
            s.get("cells", &key).unwrap().field("robots").unwrap().elements().unwrap().len(),
            1
        );
    }

    #[test]
    fn element_insert_composes_without_leaking_sibling_writes() {
        // The regression install_version's element-awareness exists for: a
        // committing element INSERT used to fall back to the whole live
        // clone, carrying a concurrent sibling writer's uncommitted update
        // into the committed chain.
        let s = store();
        s.insert("cells", cell("c1", vec![("r1", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        let robots = [TargetStep::attr("robots")];
        let r1_traj = vec![TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")];
        let r2_path = vec![TargetStep::elem("robots", "r2")];
        let base = image_at(&s, "cells", &key, s.clock().stable());
        // T1 inserts element r2; T2 updates sibling r1 — both pending.
        insert_element(&s, &key, &robots, robot("r2")).unwrap();
        s.update_at_pending("cells", &key, &r1_traj, Value::str("t2-dirty")).unwrap();
        // T1 commits alone.
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r2_path.clone()]))
                .unwrap();
        });
        let now = s.clock().stable();
        // The insert is visible, the sibling's dirty write is not.
        assert!(s.get_at_snapshot("cells", &key, &r2_path, now).is_ok());
        assert_eq!(s.get_at_snapshot("cells", &key, &r1_traj, now).unwrap(), Value::str("t-r1"));
        // The version's r1 is the base entry's own node, its r2 the live one.
        let inserted = image_at(&s, "cells", &key, now);
        assert!(robot_of(&inserted, "r1").shares_with(robot_of(&base, "r1")));
        assert!(inserted.field("c_objects").unwrap().shares_with(base.field("c_objects").unwrap()));
        assert!(robot_of(&inserted, "r2").shares_with(robot_of(&s.get("cells", &key).unwrap(), "r2")));
        // T2 commits; its update lands on top of the insert.
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r1_traj.clone()]))
                .unwrap();
        });
        let later = s.clock().stable();
        assert_eq!(
            s.get_at_snapshot("cells", &key, &r1_traj, later).unwrap(),
            Value::str("t2-dirty")
        );
        assert!(s.get_at_snapshot("cells", &key, &r2_path, later).is_ok());
    }

    #[test]
    fn element_removal_composes_into_the_committed_image() {
        let s = store();
        s.insert("cells", cell("c1", vec![("r1", vec![]), ("r2", vec![])])).unwrap();
        let key = ObjectKey::from("c1");
        let robots = [TargetStep::attr("robots")];
        let r2_path = vec![TargetStep::elem("robots", "r2")];
        let before_ts = s.clock().stable();
        s.remove_element_pending("cells", &key, &robots, &ObjectKey::from("r2")).unwrap();
        // Visible to snapshots until the removal commits.
        assert!(s.get_at_snapshot("cells", &key, &r2_path, s.clock().stable()).is_ok());
        s.clock().commit(|ts| {
            s.install_version("cells", &key, ts, &VersionPatch::Paths(vec![r2_path.clone()]))
                .unwrap();
        });
        assert!(s.get_at_snapshot("cells", &key, &r2_path, s.clock().stable()).is_err());
        // Old snapshots still see it.
        assert!(s.get_at_snapshot("cells", &key, &r2_path, before_ts).is_ok());
    }

    #[test]
    fn tombstone_hides_object_from_later_snapshots() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        let before = s.clock().stable();
        s.delete_pending("effectors", &ObjectKey::from("e1")).unwrap();
        // Still visible to snapshots until the tombstone commits.
        assert!(s.contains_at("effectors", &ObjectKey::from("e1"), s.clock().stable()));
        s.clock().commit(|ts| {
            s.install_version("effectors", &ObjectKey::from("e1"), ts, &VersionPatch::Tombstone)
                .unwrap();
        });
        assert!(!s.contains_at("effectors", &ObjectKey::from("e1"), s.clock().stable()));
        assert!(s.contains_at("effectors", &ObjectKey::from("e1"), before));
        assert_eq!(s.keys_at("effectors", before).unwrap().len(), 1);
        assert!(s.keys_at("effectors", s.clock().stable()).unwrap().is_empty());
    }

    #[test]
    fn prune_keeps_watermark_visibility() {
        let s = store();
        s.insert("effectors", effector("e1", "v0")).unwrap();
        for i in 1..=5 {
            s.update("effectors", &ObjectKey::from("e1"), effector("e1", &format!("v{i}")))
                .unwrap();
        }
        assert_eq!(s.version_entries("effectors").unwrap(), 6);
        let watermark = 3; // an active snapshot at ts=3
        let pruned = s.prune_versions(watermark);
        assert_eq!(pruned, 2); // ts 1 and 2 dropped; 3,4,5,6 kept
        assert_eq!(s.version_entries("effectors").unwrap(), 4);
        // The watermark snapshot still reads its version.
        let v = s
            .get_at_snapshot("effectors", &ObjectKey::from("e1"), &[TargetStep::attr("tool")], watermark)
            .unwrap();
        assert_eq!(v, Value::str("v2"));
        assert_eq!(s.versions_pruned(), 2);
        assert!(s.versions_installed() >= 6);
    }

    #[test]
    fn prune_drops_dead_tombstone_chains() {
        let s = store();
        s.insert("effectors", effector("e1", "a")).unwrap();
        s.delete("effectors", &ObjectKey::from("e1")).unwrap();
        assert_eq!(s.version_entries("effectors").unwrap(), 2);
        // Watermark past the tombstone: the whole chain is unreachable.
        let pruned = s.prune_versions(s.clock().stable());
        assert_eq!(pruned, 2);
        assert_eq!(s.version_entries("effectors").unwrap(), 0);
    }
}
