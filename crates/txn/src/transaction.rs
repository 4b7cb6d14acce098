//! Transaction handles.

use crate::error::TxnError;
use crate::manager::TransactionManager;
use crate::undo::UndoRecord;
use crate::Result;
use colock_core::{
    AccessMode, InstanceTarget, LockCounts, LockCtx, ProtocolOptions, TargetStep, TxnLockCache,
};
use colock_lockmgr::{LockMode, TxnId, WaitPolicy};
use colock_nf2::{ObjectKey, Value};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;

/// Short (conventional) vs long ("conversational", workstation-server)
/// transactions (§1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// Conventional short transaction; short locks.
    Short,
    /// Long transaction; its explicit data locks are long locks that survive
    /// simulated shutdowns.
    Long,
    /// Read-only transaction begun via
    /// [`TransactionManager::begin_readonly`]: reads through the
    /// multiversion overlay at a pinned snapshot timestamp (or, with the
    /// overlay disabled, through ordinary S locks) and may never write.
    ReadOnly,
}

/// What a transaction owns from begin to EOT. Its handle holds it; between
/// [`Transaction::leak`] (or crash recovery) and the
/// [`TransactionManager::resume`] that takes it back, the manager parks it.
pub(crate) struct TxnState {
    kind: TxnKind,
    /// Snapshot timestamp (MVCC read-only transactions only). `Some` means
    /// every read resolves against the version chains and any lock request
    /// is an error.
    snap: Option<u64>,
    undo: RefCell<Vec<UndoRecord>>,
    /// Set by an early release: the transaction may not grow again.
    shrinking: Cell<bool>,
    checked_out: RefCell<HashSet<InstanceTarget>>,
    /// Ancestor-lock cache; dies with the state at EOT, cleared on early
    /// release.
    cache: TxnLockCache,
}

impl TxnState {
    pub(crate) fn new(kind: TxnKind, snap: Option<u64>) -> Self {
        TxnState {
            kind,
            snap,
            undo: RefCell::default(),
            shrinking: Cell::new(false),
            checked_out: RefCell::default(),
            cache: TxnLockCache::new(),
        }
    }
}

/// A live transaction. Dropping it without [`Transaction::commit`],
/// [`Transaction::abort`] or [`Transaction::leak`] aborts it.
pub struct Transaction<'m> {
    mgr: &'m TransactionManager,
    id: TxnId,
    st: TxnState,
    /// Wait policy applied to every implicit lock request this handle
    /// issues. Defaults to [`WaitPolicy::Block`]; a serving layer overrides
    /// it with a timeout so one stuck session can never block forever.
    wait: Cell<WaitPolicy>,
    finished: bool,
}

impl<'m> Transaction<'m> {
    pub(crate) fn new(mgr: &'m TransactionManager, id: TxnId, st: TxnState) -> Self {
        Transaction { mgr, id, st, wait: Cell::new(WaitPolicy::Block), finished: false }
    }

    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Short or long.
    pub fn kind(&self) -> TxnKind {
        self.st.kind
    }

    /// The owning manager (store/catalog/lock-manager access for executors).
    pub fn manager(&self) -> &TransactionManager {
        self.mgr
    }

    /// The pinned snapshot timestamp, if this is an MVCC read-only
    /// transaction.
    pub fn snapshot_ts(&self) -> Option<u64> {
        self.st.snap
    }

    /// Overrides the wait policy for every later lock request made through
    /// this handle (`colock-server` uses `BlockTimeout` so a session blocked
    /// behind a long check-out eventually answers its client).
    pub fn set_wait_policy(&self, wait: WaitPolicy) {
        self.wait.set(wait);
    }

    /// The wait policy lock requests currently use.
    pub fn wait_policy(&self) -> WaitPolicy {
        self.wait.get()
    }

    fn opts(&self) -> ProtocolOptions {
        ProtocolOptions {
            long: self.st.kind == TxnKind::Long,
            wait: self.wait.get(),
            ..ProtocolOptions::default()
        }
    }

    /// The one lock path: `target` in `mode` under the manager's protocol,
    /// through this transaction's lock cache. Snapshot transactions never
    /// enter the lock table; a request on one is a protocol bug, reported as
    /// [`TxnError::ReadOnlyTxn`] (and the conformance linter flags any that
    /// slips through to the trace). A shrinking transaction may not grow.
    fn request(
        &self,
        target: &InstanceTarget,
        mode: LockMode,
        opts: ProtocolOptions,
    ) -> Result<LockCounts> {
        if self.st.snap.is_some() {
            return Err(TxnError::ReadOnlyTxn(self.id));
        }
        if self.st.shrinking.get() {
            return Err(TxnError::TwoPhaseViolation(self.id));
        }
        let mgr = self.mgr;
        let cx = LockCtx {
            lm: mgr.lock_manager(),
            txn: self.id,
            src: &**mgr.store(),
            authz: mgr.authorization(),
            opts,
            cache: Some(&self.st.cache),
        };
        // Callers read counts only: the report's grant list goes back to the
        // cache, so the transaction's requests share one list.
        let report = mgr.engine().lock(&cx, mgr.protocol(), target, mode)?;
        let counts = report.counts();
        self.st.cache.recycle(report.acquired);
        Ok(counts)
    }

    /// Any write on a read-only transaction is rejected, snapshot or not.
    fn check_may_write(&self) -> Result<()> {
        if self.st.kind == TxnKind::ReadOnly {
            return Err(TxnError::ReadOnlyTxn(self.id));
        }
        Ok(())
    }

    /// Locks `target` for `access` without touching data (explicit lock
    /// request). Returns the lock counts.
    pub fn lock(&self, target: &InstanceTarget, access: AccessMode) -> Result<LockCounts> {
        self.request(target, access.into(), self.opts())
    }

    /// Non-blocking lock (used by deterministic schedulers).
    pub fn try_lock(&self, target: &InstanceTarget, access: AccessMode) -> Result<LockCounts> {
        self.request(target, access.into(), self.opts().try_lock())
    }

    /// Locks `target` in an explicit multi-granularity mode (the planner
    /// emits SIX for scan-updates), blocking like [`Transaction::lock`].
    pub fn lock_with_mode_blocking(
        &self,
        target: &InstanceTarget,
        mode: LockMode,
    ) -> Result<LockCounts> {
        self.request(target, mode, self.opts())
    }

    /// Locks without downward propagation — for accesses whose semantics
    /// provably never dereference the contained references (§4.5).
    pub fn lock_no_deref(&self, target: &InstanceTarget, access: AccessMode) -> Result<LockCounts> {
        self.request(target, access.into(), ProtocolOptions { deref_refs: false, ..self.opts() })
    }

    /// Reads the value at `target`: through the multiversion overlay for a
    /// snapshot transaction, via an S lock otherwise.
    pub fn read(&self, target: &InstanceTarget) -> Result<Value> {
        if self.st.snap.is_some() {
            return self.snapshot_read(target);
        }
        self.lock(target, AccessMode::Read)?;
        let key = target.object.clone().ok_or_else(|| {
            TxnError::Storage(colock_storage::StorageError::BadTarget(target.to_string()))
        })?;
        Ok(self.mgr.store().get_at(&target.relation, &key, &target.steps)?)
    }

    /// Reads `target` as of this transaction's snapshot timestamp, without
    /// acquiring any lock: the read resolves "newest version ≤ snapshot"
    /// against the version chains, so it can never block behind a long
    /// check-out (and never appears in the waits-for graph). Emits a
    /// `SnapshotRead` trace event and counts as an elided read in the lock
    /// manager's statistics. On a non-MVCC read-only transaction (the
    /// `set_mvcc(false)` ablation) this degrades to the locking
    /// [`Transaction::read`], which *can* block.
    pub fn snapshot_read(&self, target: &InstanceTarget) -> Result<Value> {
        let Some(ts) = self.st.snap else {
            return self.read(target);
        };
        let key = target.object.clone().ok_or_else(|| {
            TxnError::Storage(colock_storage::StorageError::BadTarget(target.to_string()))
        })?;
        let value =
            self.mgr.store().get_at_snapshot(&target.relation, &key, &target.steps, ts)?;
        self.mgr.trace().emit(|| {
            colock_trace::Event::new(colock_trace::EventKind::SnapshotRead, self.id.0)
                .resource(target.to_string())
                .detail(format!("ts={ts}"))
        });
        self.mgr.note_read_elided();
        Ok(value)
    }

    /// Non-blocking variant for deterministic schedulers: identical to
    /// [`Transaction::snapshot_read`] under MVCC (which never blocks
    /// anyway); under the ablation it try-locks S and surfaces would-block.
    pub fn try_snapshot_read(&self, target: &InstanceTarget) -> Result<Value> {
        if self.st.snap.is_some() {
            return self.snapshot_read(target);
        }
        self.try_lock(target, AccessMode::Read)?;
        let key = target.object.clone().ok_or_else(|| {
            TxnError::Storage(colock_storage::StorageError::BadTarget(target.to_string()))
        })?;
        Ok(self.mgr.store().get_at(&target.relation, &key, &target.steps)?)
    }

    /// Updates the subvalue at `target` (locks X first, logs undo).
    pub fn update(&self, target: &InstanceTarget, new_value: Value) -> Result<()> {
        self.check_may_write()?;
        self.lock(target, AccessMode::Update)?;
        let key = target.object.clone().ok_or_else(|| {
            TxnError::Storage(colock_storage::StorageError::BadTarget(target.to_string()))
        })?;
        let before = self
            .mgr
            .store()
            .update_at_pending(&target.relation, &key, &target.steps, new_value)?;
        self.log(UndoRecord::Updated {
            relation: target.relation.clone(),
            key,
            steps: target.steps.clone(),
            before,
        });
        Ok(())
    }

    /// Inserts a complex object (locks the relation IX + the new object X).
    pub fn insert(&self, relation: &str, value: Value) -> Result<ObjectKey> {
        self.check_may_write()?;
        // X-lock the new object before it exists: a pending insert is listed
        // by `Store::keys`, so a scan reaching it must already find it
        // locked. The relation-level IX comes with the object lock chain.
        // (Phantom protection is future work in the paper, §5.) The insert
        // is *pending*: no version exists until this transaction commits.
        let store = self.mgr.store();
        let key = store.object_key(relation, &value)?;
        let target = InstanceTarget::object(relation, key.clone());
        self.lock_no_deref(&target, AccessMode::Update)?;
        store.insert_pending(relation, key.clone(), value)?;
        // Only now are the object's references visible to downward
        // propagation (rules 4/4′): the same request again finds the chain
        // cached and locks the entry points of the referenced common data.
        match self.lock(&target, AccessMode::Update) {
            Ok(_) => {
                self.log(UndoRecord::Inserted { relation: relation.to_string(), key: key.clone() });
                Ok(key)
            }
            Err(e) => {
                // Lock failed (deadlock victim, …): undo the insert now.
                let _ = store.restore(relation, &key, None);
                Err(e)
            }
        }
    }

    /// Deletes a complex object (locks X first, logs undo).
    pub fn delete(&self, relation: &str, key: &ObjectKey) -> Result<()> {
        self.check_may_write()?;
        let target = InstanceTarget::object(relation, key.clone());
        self.lock(&target, AccessMode::Update)?;
        let before = self.mgr.store().delete_pending(relation, key)?;
        self.log(UndoRecord::Deleted { relation: relation.to_string(), key: key.clone(), before });
        Ok(())
    }

    /// Splits an element target (`…robots[r1]`) into the owning object's key,
    /// the element key, and the container target (`…robots`).
    fn element_parts(element: &InstanceTarget) -> Result<(ObjectKey, ObjectKey, InstanceTarget)> {
        let bad =
            || TxnError::Storage(colock_storage::StorageError::BadTarget(element.to_string()));
        let key = element.object.clone().ok_or_else(bad)?;
        let elem_key = element.steps.last().and_then(|s| s.elem.clone()).ok_or_else(bad)?;
        let mut container = element.clone();
        let mut last = container.steps.pop().expect("last() above succeeded");
        last.elem = None;
        container.steps.push(last);
        Ok((key, elem_key, container))
    }

    /// Deletes one element of a set/list (e.g. one robot): semantic Delete on
    /// the container plus X on the element, so deleters of *distinct*
    /// elements commute while whole-container readers/writers still conflict.
    /// Because deletion provably never dereferences the element's references,
    /// downward propagation is skipped (§4.5: "no locks on common data are
    /// necessary at all").
    ///
    /// With the semantic modes unavailable (ablation, baseline protocol, or
    /// keyless elements) the container is X-locked instead. Either way the
    /// removal itself is a single element splice under the store latch — the
    /// old read-modify-write of the whole container value let two deleters
    /// holding only their element X locks overwrite each other's splice.
    pub fn delete_element(&self, element: &InstanceTarget) -> Result<()> {
        self.check_may_write()?;
        let (key, elem_key, container) = Self::element_parts(element)?;
        let opts = ProtocolOptions { deref_refs: false, ..self.opts() };
        if self.mgr.semantic_for(&container) {
            self.request(&container, LockMode::Delete, opts)?;
            self.request(element, LockMode::X, opts)?;
        } else {
            self.request(&container, LockMode::X, opts)?;
        }
        let (at, before) =
            self.mgr.store().remove_element_pending(&element.relation, &key, &container.steps, &elem_key)?;
        self.log(UndoRecord::ElementRemoved {
            relation: element.relation.clone(),
            key,
            steps: container.steps.clone(),
            elem_key,
            at,
            before,
        });
        Ok(())
    }

    /// Inserts one element into a set/list HoLU (e.g. one robot into
    /// `cell.robots`): semantic Insert on the container plus X on the new
    /// element, so inserters of distinct elements commute instead of
    /// serializing on a container X. Insertion never dereferences existing
    /// elements, so downward propagation is skipped (§4.5).
    ///
    /// Falls back to a classical container X when the semantic modes are
    /// unavailable. Returns the new element's key.
    pub fn insert_element(&self, container: &InstanceTarget, element: Value) -> Result<ObjectKey> {
        self.check_may_write()?;
        let bad =
            || TxnError::Storage(colock_storage::StorageError::BadTarget(container.to_string()));
        let key = container.object.clone().ok_or_else(bad)?;
        if container.steps.last().is_none_or(|s| s.elem.is_some()) {
            return Err(bad());
        }
        let opts = ProtocolOptions { deref_refs: false, ..self.opts() };
        let mode = if self.mgr.semantic_for(container) { LockMode::Insert } else { LockMode::X };
        self.request(container, mode, opts)?;
        // Lock the new element before splicing it in, as in
        // [`Transaction::insert`]: a member probe holds only Member on the
        // container, so it must find the pending element already X-locked.
        let elem_key =
            self.mgr.store().element_key(&container.relation, &key, &container.steps, &element)?;
        let mut elem_target = container.clone();
        let last = elem_target.steps.pop().expect("non-empty: checked above");
        elem_target.steps.push(TargetStep { attr: last.attr, elem: Some(elem_key.clone()) });
        self.request(&elem_target, LockMode::X, opts)?;
        self.mgr.store().insert_element_pending(
            &container.relation,
            &key,
            &container.steps,
            elem_key.clone(),
            element,
        )?;
        self.log(UndoRecord::ElementInserted {
            relation: container.relation.clone(),
            key,
            steps: container.steps.clone(),
            elem_key: elem_key.clone(),
        });
        Ok(elem_key)
    }

    /// Membership probe: reads one element of a set/list under a semantic
    /// Member mode on the container plus S on the element — compatible with
    /// concurrent inserters/deleters of *other* elements. The probe never
    /// dereferences, so downward propagation is skipped. Snapshot
    /// transactions read the version chains lock-free; without semantic
    /// modes the container gets a plain IS (the classical read ancestor).
    pub fn member_element(&self, element: &InstanceTarget) -> Result<Value> {
        if self.st.snap.is_some() {
            return self.snapshot_read(element);
        }
        let (key, _elem_key, container) = Self::element_parts(element)?;
        let opts = ProtocolOptions { deref_refs: false, ..self.opts() };
        let mode = if self.mgr.semantic_for(&container) { LockMode::Member } else { LockMode::IS };
        self.request(&container, mode, opts)?;
        self.request(element, LockMode::S, opts)?;
        Ok(self.mgr.store().get_at(&element.relation, &key, &element.steps)?)
    }

    /// Checks out `target` to a workstation: long lock (S for read-only
    /// check-out, X for update check-out) plus a private copy of the data.
    pub fn checkout(&self, target: &InstanceTarget, access: AccessMode) -> Result<Value> {
        self.check_may_write()?;
        self.request(target, access.into(), ProtocolOptions { long: true, ..self.opts() })?;
        let key = target.object.clone().ok_or_else(|| {
            TxnError::Storage(colock_storage::StorageError::BadTarget(target.to_string()))
        })?;
        let value = self.mgr.store().get_at(&target.relation, &key, &target.steps)?;
        self.st.checked_out.borrow_mut().insert(target.clone());
        Ok(value)
    }

    /// Checks a modified copy back in; the target must have been checked out
    /// by this transaction.
    pub fn checkin(&self, target: &InstanceTarget, new_value: Value) -> Result<()> {
        self.check_may_write()?;
        if !self.st.checked_out.borrow().contains(target) {
            return Err(TxnError::NotCheckedOut(target.to_string()));
        }
        let key = target.object.clone().ok_or_else(|| {
            TxnError::Storage(colock_storage::StorageError::BadTarget(target.to_string()))
        })?;
        let before = self
            .mgr
            .store()
            .update_at_pending(&target.relation, &key, &target.steps, new_value)?;
        self.log(UndoRecord::Updated {
            relation: target.relation.clone(),
            key,
            steps: target.steps.clone(),
            before,
        });
        Ok(())
    }

    /// Releases `target` early (leaf-to-root, rule 5) and puts the
    /// transaction into its shrinking phase: further lock requests fail.
    pub fn release_early(&self, target: &InstanceTarget) -> Result<usize> {
        let released = self
            .mgr
            .engine()
            .release_target_early(self.mgr.lock_manager(), self.id, target)?;
        self.mgr.trace().emit(|| {
            colock_trace::Event::new(colock_trace::EventKind::TxnReleaseEarly, self.id.0)
                .resource(target.to_string())
                .detail(format!("released {released} locks"))
        });
        self.st.shrinking.set(true);
        // The cache may now claim locks that were just released; the
        // shrinking flag already blocks further requests, but clear it
        // anyway so no stale coverage can ever be consulted.
        self.st.cache.clear();
        Ok(released)
    }

    fn log(&self, rec: UndoRecord) {
        self.st.undo.borrow_mut().push(rec);
    }

    /// Forgets this handle without releasing locks or rolling back — the
    /// client side of a simulated crash. The manager parks the transaction's
    /// state and its locks stay held: [`TransactionManager::resume`] hands
    /// it out again, and a post-crash manager re-adopts it from the journal
    /// via [`TransactionManager::recover`].
    pub fn leak(mut self) {
        self.finished = true;
        let st = std::mem::replace(&mut self.st, TxnState::new(TxnKind::Short, None));
        self.mgr.park(self.id, st);
    }

    /// Commits: releases all locks, keeps all changes.
    pub fn commit(mut self) -> Result<()> {
        self.finish(true)
    }

    /// Aborts: rolls back all changes, releases all locks.
    pub fn abort(mut self) -> Result<()> {
        self.finish(false)
    }

    fn finish(&mut self, commit: bool) -> Result<()> {
        self.finished = true;
        self.mgr.finish(self.id, self.st.snap, self.st.undo.get_mut(), commit)
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Abort on drop keeps the system consistent even on panics.
            let _ = self.finish(false);
        }
    }
}
