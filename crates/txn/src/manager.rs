//! The transaction manager.

use crate::error::TxnError;
use crate::transaction::{Transaction, TxnKind, TxnState};
use crate::undo::UndoRecord;
use crate::Result;
use colock_core::{Authorization, InstanceTarget, ProtocolEngine, ProtocolKind, ResourcePath};
use colock_lockmgr::txnid::TxnIdGen;
use colock_lockmgr::{Journal, JournalSink, LockManager, TxnId};
use colock_lockmgr::{CachePadded, LockStats};
use colock_storage::Store;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The transaction manager: owns lock manager, engine, store, rights. Each
/// transaction's own state lives in its [`Transaction`] handle.
pub struct TransactionManager {
    lm: Arc<LockManager<ResourcePath>>,
    engine: Arc<ProtocolEngine>,
    store: Arc<Store>,
    authz: Arc<Authorization>,
    protocol: ProtocolKind,
    /// The words every transaction writes, on lines of their own: the
    /// read-mostly settings beside them are read by every transaction.
    hot: CachePadded<Hot>,
    /// States with no handle: leaked by [`Transaction::leak`] or re-adopted
    /// by [`TransactionManager::recover`], until `resume` takes them.
    parked: Mutex<HashMap<TxnId, TxnState>>,
    /// Durable long-lock journal, if one has been attached. The manager
    /// keeps the concrete type (the lock manager only sees the sink trait)
    /// so recovery can inspect the medium.
    journal: OnceLock<Arc<Journal<ResourcePath>>>,
    /// Multiversion overlay toggle (ablation): off, `begin_readonly`
    /// degrades to a locking reader.
    mvcc: AtomicBool,
    /// Active snapshot timestamps → number of pinning transactions, striped
    /// by transaction id: a read-only transaction pins and unpins under its
    /// own stripe's mutex only. The min key over all stripes is the GC low
    /// watermark; pruning runs with every stripe locked, so a concurrent
    /// `begin_readonly` cannot pin a timestamp mid-prune.
    snapshots: [CachePadded<Mutex<BTreeMap<u64, usize>>>; SNAPSHOT_STRIPES],
    /// GC cadence in writer commits (0 = off).
    gc_every: AtomicU64,
    /// Semantic commutativity container modes toggle (ablation): off,
    /// element operations degrade to classical X on the container.
    semantic: AtomicBool,
}

/// Writer commits between automatic version-GC passes.
const GC_EVERY: u64 = 64;

/// Stripes of the snapshot-pin registry.
const SNAPSHOT_STRIPES: usize = 8;

/// The counters every transaction writes.
struct Hot {
    idgen: TxnIdGen,
    /// Transactions begun or recovered and not yet finished.
    active: AtomicUsize,
    /// Writer commits since the last GC pass.
    commits_since_gc: AtomicU64,
}

/// What `TransactionManager::recover` restored from a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Owners that were re-adopted (ascending ids), one fresh long
    /// transaction state each.
    pub owners: Vec<TxnId>,
    /// Total long locks re-installed across all owners.
    pub locks: usize,
    /// Torn-tail records dropped during replay (0 for a clean shutdown).
    pub dropped_tail: usize,
}

impl TransactionManager {
    /// Creates a manager over shared components.
    pub fn new(
        lm: Arc<LockManager<ResourcePath>>,
        engine: Arc<ProtocolEngine>,
        store: Arc<Store>,
        authz: Arc<Authorization>,
        protocol: ProtocolKind,
    ) -> Self {
        TransactionManager {
            lm,
            engine,
            store,
            authz,
            protocol,
            hot: CachePadded::new(Hot {
                idgen: TxnIdGen::new(),
                active: AtomicUsize::new(0),
                commits_since_gc: AtomicU64::new(0),
            }),
            parked: Mutex::new(HashMap::new()),
            journal: OnceLock::new(),
            mvcc: AtomicBool::new(true),
            snapshots: std::array::from_fn(|_| CachePadded::new(Mutex::new(BTreeMap::new()))),
            gc_every: AtomicU64::new(GC_EVERY),
            semantic: AtomicBool::new(true),
        }
    }

    /// Locks the snapshot-pin stripe of `txn`.
    fn snapshot_stripe(&self, txn: TxnId) -> MutexGuard<'_, BTreeMap<u64, usize>> {
        let stripe = &self.snapshots[txn.0 as usize % SNAPSHOT_STRIPES];
        stripe.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks every snapshot-pin stripe, in index order (the only order two
    /// stripes are ever held in), and returns the oldest pinned timestamp —
    /// or the current stable timestamp when nothing is pinned — with the
    /// guards. While they are held no reader can pin: one that pinned
    /// before is counted, one that pins after reads `stable()` ≥ the result.
    fn pin_watermark(&self) -> (u64, Vec<MutexGuard<'_, BTreeMap<u64, usize>>>) {
        let guards: Vec<_> = self
            .snapshots
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let oldest = guards.iter().filter_map(|g| g.keys().next().copied()).min();
        (oldest.unwrap_or_else(|| self.store.clock().stable()), guards)
    }

    /// Whether the multiversion read overlay is active (read-only
    /// transactions elide locks). Defaults to on;
    /// [`TransactionManager::set_mvcc`] turns it off.
    pub fn mvcc_enabled(&self) -> bool {
        self.mvcc.load(Ordering::Relaxed)
    }

    /// Toggles the multiversion overlay (ablation hook).
    pub fn set_mvcc(&self, enabled: bool) {
        self.mvcc.store(enabled, Ordering::Relaxed);
    }

    /// Whether the semantic commutativity container modes (Insert/Delete/
    /// Member) are in play. Defaults to on;
    /// [`TransactionManager::set_semantic`] turns them off.
    pub fn semantic_enabled(&self) -> bool {
        self.semantic.load(Ordering::Relaxed)
    }

    /// Toggles the semantic container modes (ablation hook).
    pub fn set_semantic(&self, enabled: bool) {
        self.semantic.store(enabled, Ordering::Relaxed);
    }

    /// Whether the container HoLU named by `container` should be locked with
    /// the semantic modes: toggle on, a protocol that understands explicit
    /// modes, and a schema whose element keys are derivable (the catalog's
    /// admission rule). Anything else degrades to the classical protocol.
    pub fn semantic_for(&self, container: &InstanceTarget) -> bool {
        if !self.semantic_enabled()
            || !matches!(self.protocol, ProtocolKind::Proposed | ProtocolKind::ProposedRule4)
        {
            return false;
        }
        self.store
            .catalog()
            .admits_semantic_modes(&container.relation, &container.attr_path())
            .unwrap_or(false)
    }

    /// Version-GC cadence in writer commits (default 64; 0 = automatic GC
    /// off).
    pub fn gc_every(&self) -> u64 {
        self.gc_every.load(Ordering::Relaxed)
    }

    /// Overrides the version-GC cadence.
    pub fn set_gc_every(&self, every: u64) {
        self.gc_every.store(every, Ordering::Relaxed);
    }

    /// The GC low watermark: the oldest snapshot timestamp still pinned by
    /// an active read-only transaction, or the current stable timestamp when
    /// none is active. Versions older than the newest chain entry ≤ this are
    /// unreachable.
    pub fn low_watermark(&self) -> u64 {
        self.pin_watermark().0
    }

    /// Prunes version chains up to the low watermark now; returns entries
    /// dropped. Runs automatically every [`TransactionManager::gc_every`]
    /// writer commits.
    pub fn gc_versions(&self) -> u64 {
        // Hold every pin stripe across the prune: a reader beginning
        // concurrently pins stable() ≥ our watermark, which pruning keeps.
        let (watermark, _pins) = self.pin_watermark();
        self.store.prune_versions(watermark)
    }

    fn parked_locked(&self) -> MutexGuard<'_, HashMap<TxnId, TxnState>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Convenience constructor wiring everything from a store.
    pub fn over_store(store: Arc<Store>, authz: Authorization, protocol: ProtocolKind) -> Self {
        let engine = Arc::new(ProtocolEngine::new(Arc::clone(store.catalog())));
        Self::new(Arc::new(LockManager::new()), engine, store, Arc::new(authz), protocol)
    }

    /// Attaches a durable long-lock journal to this manager *and* its lock
    /// manager; from now on every request's long grants are recorded before
    /// it is acknowledged, and every long release. First sink wins (returns `false` if either
    /// the manager or the lock manager already had one).
    pub fn attach_journal(&self, journal: Arc<Journal<ResourcePath>>) -> bool {
        let sink: Arc<dyn JournalSink<ResourcePath>> = Arc::clone(&journal) as _;
        self.journal.set(journal).is_ok() && self.lm.attach_journal(sink)
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal<ResourcePath>>> {
        self.journal.get()
    }

    /// Whether the attached journal has simulated a crash (after which all
    /// long-lock requests fail unacknowledged).
    pub fn journal_crashed(&self) -> bool {
        self.journal.get().is_some_and(|j| j.crashed())
    }

    /// Replays a journal (the medium text of a crashed peer) into this
    /// manager: every surviving long lock is re-installed in the lock
    /// manager under its original owner, and each owner not already parked
    /// here gets a fresh long transaction state, parked until
    /// [`TransactionManager::resume`] hands it out to be checked in or
    /// aborted exactly like a live one. The id generator is bumped past the
    /// highest recovered owner so new transactions cannot collide with
    /// re-adopted ones.
    ///
    /// If a journal is attached to *this* manager, each owner's re-installed
    /// locks are re-journaled into it as one grant set, so a second crash
    /// recovers them again.
    pub fn recover(&self, journal_text: &str) -> Result<RecoveryReport> {
        let recovered = Journal::<ResourcePath>::replay(journal_text)?;
        let owners = recovered.owners();
        // Replay sorts the entries by owner first.
        for set in recovered.entries.chunk_by(|a, b| a.1 == b.1) {
            let locks = set.iter().map(|(resource, _, mode)| (resource.clone(), *mode));
            self.lm.install_recovered(set[0].1, locks);
        }
        {
            let mut parked = self.parked_locked();
            for &owner in &owners {
                parked.entry(owner).or_insert_with(|| {
                    self.hot.active.fetch_add(1, Ordering::Relaxed);
                    TxnState::new(TxnKind::Long, None)
                });
            }
        }
        if let Some(&max) = owners.iter().max() {
            self.hot.idgen.ensure_above(max);
        }
        for &owner in &owners {
            colock_trace::emit(|| {
                let n = recovered.entries.iter().filter(|e| e.1 == owner).count();
                colock_trace::Event::new(colock_trace::EventKind::TxnRecovered, owner.0)
                    .instance(self.trace_instance())
                    .detail(format!("{n} long locks"))
            });
        }
        Ok(RecoveryReport {
            owners,
            locks: recovered.entries.len(),
            dropped_tail: recovered.dropped_tail,
        })
    }

    /// Hands out the handle of a parked transaction — one leaked by
    /// [`Transaction::leak`] or re-adopted by `recover`; the post-crash
    /// counterpart of `begin`. A parked state is handed out once: resuming
    /// an id that is not parked (never known, finished, or already resumed)
    /// is [`TxnError::NotActive`].
    pub fn resume(&self, txn: TxnId) -> Result<Transaction<'_>> {
        let st = self.parked_locked().remove(&txn).ok_or(TxnError::NotActive(txn))?;
        Ok(Transaction::new(self, txn, st))
    }

    /// Parks the state of a leaked handle for a later `resume`.
    pub(crate) fn park(&self, txn: TxnId, st: TxnState) {
        self.parked_locked().insert(txn, st);
    }

    /// Starts a transaction.
    pub fn begin(&self, kind: TxnKind) -> Transaction<'_> {
        let id = self.hot.idgen.next();
        colock_trace::emit(|| {
            colock_trace::Event::new(colock_trace::EventKind::TxnBegin, id.0)
                .instance(self.trace_instance())
                .detail(if kind == TxnKind::Long { "long" } else { "short" })
        });
        self.open(id, TxnState::new(kind, None))
    }

    /// A handle for a new transaction, active until it finishes.
    fn open(&self, id: TxnId, st: TxnState) -> Transaction<'_> {
        self.hot.active.fetch_add(1, Ordering::Relaxed);
        Transaction::new(self, id, st)
    }

    /// Starts a read-only transaction. With the multiversion overlay on it
    /// pins a snapshot timestamp at begin and every read resolves against
    /// the version chains — zero locks, never in the waits-for graph, never
    /// blocked behind a long check-out. With the overlay off
    /// ([`TransactionManager::set_mvcc`]) it degrades to an ordinary locking
    /// reader (begin detail `readonly-locking`), which is the ablation
    /// baseline.
    pub fn begin_readonly(&self) -> Transaction<'_> {
        let id = self.hot.idgen.next();
        let snap = if self.mvcc_enabled() {
            // Pin under the stripe lock so a concurrent GC pass cannot
            // compute a watermark above this timestamp before it lands.
            let mut snaps = self.snapshot_stripe(id);
            let ts = self.store.clock().stable();
            *snaps.entry(ts).or_insert(0) += 1;
            Some(ts)
        } else {
            None
        };
        colock_trace::emit(|| {
            colock_trace::Event::new(colock_trace::EventKind::TxnBegin, id.0)
                .instance(self.trace_instance())
                .detail(if snap.is_some() { "readonly" } else { "readonly-locking" })
        });
        self.open(id, TxnState::new(TxnKind::ReadOnly, snap))
    }

    /// The lock manager.
    pub fn lock_manager(&self) -> &Arc<LockManager<ResourcePath>> {
        &self.lm
    }

    /// The id stamped on every trace event this manager, its transactions
    /// and its lock manager emit (see [`LockManager::trace_instance`]).
    pub fn trace_instance(&self) -> u64 {
        self.lm.trace_instance()
    }

    /// The protocol engine.
    pub fn engine(&self) -> &Arc<ProtocolEngine> {
        &self.engine
    }

    /// The store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The rights matrix.
    pub fn authorization(&self) -> &Arc<Authorization> {
        &self.authz
    }

    /// The protocol in use.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Ends `txn`, which pinned snapshot `snap` and logged `undo`: rolls
    /// back or installs its versions, then releases its locks and rights.
    pub(crate) fn finish(
        &self,
        txn: TxnId,
        snap: Option<u64>,
        undo: &[UndoRecord],
        commit: bool,
    ) -> Result<()> {
        self.hot.active.fetch_sub(1, Ordering::Relaxed);
        if let Some(ts) = snap {
            // Unpin the snapshot; the GC watermark may advance past it now.
            let mut snaps = self.snapshot_stripe(txn);
            if let Some(n) = snaps.get_mut(&ts) {
                *n -= 1;
                if *n == 0 {
                    snaps.remove(&ts);
                }
            }
        }
        let rolled_back = if commit {
            Ok(())
        } else {
            crate::undo::rollback(&self.store, undo)
        };
        // A committing writer installs its new versions *before* releasing
        // its X locks: the patches are composed from subtrees no concurrent
        // transaction may touch yet, and the commit gate makes the whole
        // multi-object install atomic to snapshot readers.
        let mut commit_ts = None;
        let installed: std::result::Result<(), colock_storage::StorageError> = if commit
            && !undo.is_empty()
        {
            let patches = crate::undo::commit_patches(&self.store, undo);
            self.store.clock().commit(|ts| {
                commit_ts = Some(ts);
                for (relation, key, patch) in &patches {
                    self.store.install_version(relation, key, ts, patch)?;
                }
                Ok(())
            })
        } else {
            Ok(())
        };
        // Locks are released even when an undo record failed: holding them
        // would wedge every waiter behind a transaction that no longer
        // exists. The failure still reaches the caller below.
        self.lm.release_all(txn);
        // Per-transaction rights die with the transaction (ids are never
        // reused; session-granted rule 4′ contexts must not accumulate).
        self.authz.retract(txn);
        colock_trace::emit(|| {
            let kind =
                if commit { colock_trace::EventKind::TxnCommit } else { colock_trace::EventKind::TxnAbort };
            let ev = colock_trace::Event::new(kind, txn.0).instance(self.trace_instance());
            // A version-installing commit stamps its clock timestamp so the
            // serializability certifier can order snapshot reads against it
            // (reads-from edges are `version ts ≤ snapshot ts`).
            match commit_ts {
                Some(ts) => ev.detail(format!("ts={ts}")),
                None => ev,
            }
        });
        if commit && !undo.is_empty() {
            let every = self.gc_every.load(Ordering::Relaxed);
            if every > 0
                && (self.hot.commits_since_gc.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(every)
            {
                self.gc_versions();
            }
        }
        rolled_back.map_err(TxnError::from).and(installed.map_err(TxnError::from))
    }

    /// Bumps the elided-read counter (one per lock-free snapshot read).
    pub(crate) fn note_read_elided(&self) {
        LockStats::bump(&self.lm.stats().reads_elided);
    }

    /// Number of active transactions: begun or recovered and not finished,
    /// whether a handle holds them or they are parked.
    pub fn active_count(&self) -> usize {
        self.hot.active.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::fixtures::fig1_catalog;

    #[test]
    fn protocol_names_are_distinct() {
        let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn begin_and_finish_lifecycle() {
        let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
        let mgr = TransactionManager::over_store(store, Authorization::allow_all(), ProtocolKind::Proposed);
        let t = mgr.begin(TxnKind::Short);
        assert_eq!(mgr.active_count(), 1);
        t.commit().unwrap();
        assert_eq!(mgr.active_count(), 0);
    }
}
