//! Crash-recovery integration tests: the journal/re-adoption path of §3.1
//! ("long locks survive system crashes") at the transaction-manager level.
//!
//! The crash model: a workstation checks subobjects out under long locks,
//! the server process dies (the `Transaction` handle is leaked, the manager
//! dropped), and a fresh manager over the *same* store replays the journal
//! medium. Every long lock acknowledged before the crash must come back
//! under its original owner — resumable, check-in-able, abortable.

use colock_core::authorization::Authorization;
use colock_core::fixtures::fig1_catalog;
use colock_core::{AccessMode, InstanceTarget, ResourcePath};
use colock_lockmgr::persistent::CHECKPOINT_FLOOR;
use colock_lockmgr::{Journal, TxnId};
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::Value;
use colock_storage::Store;
use colock_testkit::{Backoff, CrashPoint, FaultPlan};
use colock_txn::{ProtocolKind, TransactionManager, TxnError, TxnKind};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn populated_store() -> Arc<Store> {
    let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
    for (e, t) in [("e1", "grip"), ("e2", "weld")] {
        store
            .insert("effectors", tup(vec![("eff_id", Value::str(e)), ("tool", Value::str(t))]))
            .unwrap();
    }
    store
        .insert(
            "cells",
            tup(vec![
                ("cell_id", Value::str("c1")),
                ("c_objects", set(vec![])),
                (
                    "robots",
                    list(vec![
                        tup(vec![
                            ("robot_id", Value::str("r1")),
                            ("trajectory", Value::str("t1")),
                            ("effectors", set(vec![Value::reference("effectors", "e1")])),
                        ]),
                        tup(vec![
                            ("robot_id", Value::str("r2")),
                            ("trajectory", Value::str("t2")),
                            ("effectors", set(vec![Value::reference("effectors", "e2")])),
                        ]),
                    ]),
                ),
            ]),
        )
        .unwrap();
    store
}

fn manager(store: &Arc<Store>) -> TransactionManager {
    TransactionManager::over_store(
        Arc::clone(store),
        Authorization::allow_all(),
        ProtocolKind::Proposed,
    )
}

fn journaled_manager(store: &Arc<Store>) -> (TransactionManager, Arc<Journal<ResourcePath>>) {
    let mgr = manager(store);
    let journal = Arc::new(Journal::<ResourcePath>::new());
    assert!(mgr.attach_journal(Arc::clone(&journal)));
    (mgr, journal)
}

fn trajectory(r: &str) -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", r).attr("trajectory")
}

#[test]
fn recovered_owner_is_resumable_and_its_locks_survive() {
    let store = populated_store();
    let (mgr, journal) = journaled_manager(&store);
    let t = mgr.begin(TxnKind::Long);
    let id = t.id();
    t.checkout(&trajectory("r1"), AccessMode::Update).unwrap();
    t.leak(); // crash: no release, no rollback
    let medium = journal.contents();
    drop(mgr);

    // Fresh server over the same store, its own (empty) journal.
    let (mgr2, journal2) = journaled_manager(&store);
    let report = mgr2.recover(&medium).unwrap();
    assert_eq!(report.owners, vec![id]);
    assert!(report.locks >= 1, "checkout journals at least the target lock");
    assert_eq!(report.dropped_tail, 0);

    // The recovered X lock still excludes others.
    let probe = mgr2.begin(TxnKind::Short);
    assert_ne!(probe.id(), id, "recovery must bump the id generator");
    assert!(probe.try_lock(&trajectory("r1"), AccessMode::Update).is_err());
    probe.abort().unwrap();

    // Recovery re-journals into the new medium: a second crash would
    // restore the same set.
    let again = Journal::<ResourcePath>::replay(&journal2.contents()).unwrap();
    assert_eq!(again.entries, Journal::<ResourcePath>::replay(&medium).unwrap().entries);

    // The owner can be resumed and finished like a live transaction.
    mgr2.resume(id).unwrap().abort().unwrap();
    let probe2 = mgr2.begin(TxnKind::Short);
    probe2.try_lock(&trajectory("r1"), AccessMode::Update).unwrap();
    probe2.commit().unwrap();
}

#[test]
fn recovered_owner_can_check_in() {
    let store = populated_store();
    let (mgr, journal) = journaled_manager(&store);
    let t = mgr.begin(TxnKind::Long);
    let id = t.id();
    t.checkout(&trajectory("r2"), AccessMode::Update).unwrap();
    t.leak();
    let medium = journal.contents();
    drop(mgr);

    let (mgr2, _j2) = journaled_manager(&store);
    mgr2.recover(&medium).unwrap();
    let resumed = mgr2.resume(id).unwrap();
    // The check-out set died with the crashed server, so the post-crash
    // write path is a plain update under the still-held X lock.
    resumed.update(&trajectory("r2"), Value::str("t2-edited")).unwrap();
    resumed.commit().unwrap();
    assert_eq!(
        mgr2.begin(TxnKind::Short).read(&trajectory("r2")).unwrap(),
        Value::str("t2-edited")
    );
}

/// A parked transaction — leaked on this manager or re-adopted by
/// `recover` — is handed out once: a second `resume` while the first handle
/// is live must not create a second owner of the same state.
#[test]
fn a_parked_transaction_is_resumed_once() {
    let store = populated_store();
    let (mgr, journal) = journaled_manager(&store);
    let t = mgr.begin(TxnKind::Long);
    let id = t.id();
    t.checkout(&trajectory("r1"), AccessMode::Update).unwrap();
    t.leak();
    let medium = journal.contents();

    let first = mgr.resume(id).unwrap();
    assert!(matches!(mgr.resume(id), Err(TxnError::NotActive(t)) if t == id), "leaked twice");
    first.abort().unwrap();
    assert!(matches!(mgr.resume(id), Err(TxnError::NotActive(_))), "finished");
    assert_eq!((mgr.active_count(), mgr.lock_manager().table_size()), (0, 0));

    let (mgr2, _j2) = journaled_manager(&store);
    mgr2.recover(&medium).unwrap();
    let first = mgr2.resume(id).unwrap();
    assert!(matches!(mgr2.resume(id), Err(TxnError::NotActive(_))), "recovered twice");
    first.abort().unwrap();
    assert_eq!((mgr2.active_count(), mgr2.lock_manager().table_size()), (0, 0));
}

/// A leaked handle parks its whole state — undo log included — so the
/// resumed transaction aborts back to the before-image and leaves nothing.
#[test]
fn leaked_short_transaction_resumes_and_rolls_back() {
    let store = populated_store();
    let mgr = manager(&store);
    let t = mgr.begin(TxnKind::Short);
    let id = t.id();
    t.update(&trajectory("r1"), Value::str("t1-edited")).unwrap();
    t.leak();
    assert_eq!(mgr.active_count(), 1, "a parked transaction is still active");

    let resumed = mgr.resume(id).unwrap();
    assert_eq!(resumed.kind(), TxnKind::Short);
    resumed.abort().unwrap();
    assert_eq!(mgr.active_count(), 0);
    assert_eq!(mgr.lock_manager().table_size(), 0);
    let probe = mgr.begin(TxnKind::Short);
    assert_eq!(probe.read(&trajectory("r1")).unwrap(), Value::str("t1"));
    probe.commit().unwrap();
}

/// The bug the snapshot path hides: re-installing locks without re-adopting
/// their owners leaves ghost holders nobody can release.
#[test]
fn install_recovered_without_readoption_leaks_the_lock() {
    let store = populated_store();
    let (mgr, journal) = journaled_manager(&store);
    // Burn ids so the ghost's id cannot collide with fresh probes below.
    mgr.begin(TxnKind::Short).commit().unwrap();
    mgr.begin(TxnKind::Short).commit().unwrap();
    let t = mgr.begin(TxnKind::Long);
    let id = t.id();
    t.checkout(&trajectory("r1"), AccessMode::Update).unwrap();
    t.leak();
    let medium = journal.contents();
    drop(mgr);

    let mgr2 = manager(&store);
    // Old-style recovery: locks only, no transaction state.
    let replayed = Journal::<ResourcePath>::replay(&medium).unwrap();
    for (resource, owner, mode) in &replayed.entries {
        mgr2.lock_manager().install_recovered(*owner, [(resource.clone(), *mode)]);
    }
    // The lock is held by a ghost: it blocks everyone...
    let probe = mgr2.begin(TxnKind::Short);
    assert!(probe.try_lock(&trajectory("r1"), AccessMode::Update).is_err());
    probe.abort().unwrap();
    // ...and the ghost cannot be finished, so nothing can ever release it.
    assert!(mgr2.resume(id).is_err(), "no txn state: the owner is unknown to the manager");

    // `recover` is the fix: it re-adopts the owner on top of the same locks.
    mgr2.recover(&medium).unwrap();
    mgr2.resume(id).unwrap().abort().unwrap();
    let probe2 = mgr2.begin(TxnKind::Short);
    probe2.try_lock(&trajectory("r1"), AccessMode::Update).unwrap();
    probe2.commit().unwrap();
}

#[test]
fn unacknowledged_grant_is_never_recovered() {
    for point in CrashPoint::ALL {
        let store = populated_store();
        let (mgr, journal) = journaled_manager(&store);

        // First checkout completes and is durable.
        let t1 = mgr.begin(TxnKind::Long);
        let id1 = t1.id();
        t1.checkout(&trajectory("r1"), AccessMode::Update).unwrap();

        // Second checkout crashes on its first journal append after arming.
        journal.arm(FaultPlan::crash_at(point, 1));
        let t2 = mgr.begin(TxnKind::Long);
        let id2 = t2.id();
        let err = t2.checkout(&trajectory("r2"), AccessMode::Update).unwrap_err();
        assert!(err.is_crashed(), "{point}: expected crashed journal, got {err}");
        assert!(mgr.journal_crashed());
        t1.leak();
        t2.leak();
        let medium = journal.contents();
        drop(mgr);

        let (mgr2, _j2) = journaled_manager(&store);
        let report = mgr2.recover(&medium).unwrap();
        assert!(report.dropped_tail <= 1, "{point}");
        // t2's check-out is one grant-set record: durable whole or not at
        // all, never half-present.
        let t2_back = match point {
            // The record hit the medium before the crash: the whole set is
            // durable even though the ack was lost, so the owner comes back
            // with its check-out — releasable below like any other owner.
            CrashPoint::AfterAppend | CrashPoint::MidCompaction => {
                assert_eq!(report.owners, vec![id1, id2], "{point}");
                true
            }
            // Nothing (or a torn half-record) reached the medium: the
            // unacknowledged grants must not resurrect t2.
            CrashPoint::BeforeAppend | CrashPoint::MidRecord => {
                assert_eq!(report.owners, vec![id1], "{point}");
                false
            }
        };
        // The target is locked exactly when t2 came back.
        let probe = mgr2.begin(TxnKind::Short);
        let free = probe.try_lock(&trajectory("r2"), AccessMode::Update).is_ok();
        assert_eq!(free, !t2_back, "{point}");
        probe.abort().unwrap();
        for owner in report.owners {
            mgr2.resume(owner).unwrap().abort().unwrap();
        }
        let sweep = mgr2.begin(TxnKind::Short);
        sweep.try_lock(&trajectory("r1"), AccessMode::Update).unwrap();
        sweep.try_lock(&trajectory("r2"), AccessMode::Update).unwrap();
        sweep.commit().unwrap();
    }
}

/// A long request covered by a short grant of the same transaction must
/// widen that grant to long and journal it: otherwise the check-out's long
/// leaf survives a crash without the ancestor intents that protect it.
#[test]
fn long_request_covered_by_a_short_grant_is_journaled() {
    let store = populated_store();
    let (mgr, journal) = journaled_manager(&store);
    let t = mgr.begin(TxnKind::Short);
    let id = t.id();
    // Short IX on db … robots (plus X on r1's trajectory), then a check-out
    // of r2's trajectory whose ancestor intents those short grants cover.
    t.lock(&trajectory("r1"), AccessMode::Update).unwrap();
    t.checkout(&trajectory("r2"), AccessMode::Update).unwrap();
    let live = mgr.lock_manager().locks_of(id);
    let long_of = |path: &ResourcePath| live.iter().find(|l| &l.0 == path).map(|l| l.2);
    let robots = ResourcePath::database("db1")
        .segment("seg1")
        .relation("cells")
        .object("c1")
        .attr("robots");
    assert_eq!(long_of(&robots), Some(true), "covered ancestor intent widened to long");
    let replayed = Journal::<ResourcePath>::replay(&journal.contents()).unwrap();
    for ancestor in robots.ancestors().iter().chain([&robots]) {
        assert!(
            replayed.entries.iter().any(|e| &e.0 == ancestor && e.1 == id),
            "{ancestor:?} missing from the journal"
        );
    }
    t.leak();
    let medium = journal.contents();
    drop(mgr);

    let (mgr2, _j2) = journaled_manager(&store);
    assert_eq!(mgr2.recover(&medium).unwrap().owners, vec![id]);
    // The recovered owner holds X below cells/c1: S on the cell must wait.
    let probe = mgr2.begin(TxnKind::Short);
    assert!(
        probe.try_lock(&InstanceTarget::object("cells", "c1"), AccessMode::Read).is_err(),
        "S on cells/c1 granted beside a recovered X below it"
    );
    probe.abort().unwrap();
    mgr2.resume(id).unwrap().abort().unwrap();
    assert_eq!(mgr2.lock_manager().table_size(), 0);
}

/// Check-out/check-in churn on r2 beside a durable check-out of r1, until
/// the journal has written `checkpoints` checkpoints or crashed. Returns the
/// churning transaction the crash caught, if any.
fn churn_until(mgr: &TransactionManager, journal: &Journal<ResourcePath>, checkpoints: u64) -> Option<TxnId> {
    while journal.checkpoints() < checkpoints {
        let t = mgr.begin(TxnKind::Long);
        let id = t.id();
        if t.checkout(&trajectory("r2"), AccessMode::Update).is_err() {
            t.leak();
            return Some(id);
        }
        t.commit().unwrap();
        if journal.crashed() {
            return Some(id);
        }
    }
    None
}

/// Checkpoints under a live long lock: a medium compacted twice recovers
/// exactly the acknowledged check-out, and so does the old text a crash in
/// the middle of a checkpoint leaves behind.
#[test]
fn compaction_and_a_crash_mid_checkpoint_keep_acknowledged_checkouts() {
    for crash in [false, true] {
        let store = populated_store();
        let (mgr, journal) = journaled_manager(&store);
        let t1 = mgr.begin(TxnKind::Long);
        let id1 = t1.id();
        t1.checkout(&trajectory("r1"), AccessMode::Update).unwrap();
        if crash {
            journal.arm(FaultPlan::crash_at(CrashPoint::MidCompaction, journal.appends() + 1));
        }
        let in_flight = churn_until(&mgr, &journal, 2);
        let medium = journal.contents();
        if crash {
            assert_eq!(journal.crash_point(), Some(CrashPoint::MidCompaction));
            assert_eq!(journal.checkpoints(), 0);
            assert!(medium.len() > CHECKPOINT_FLOOR, "the old text stays");
        } else {
            assert!(!journal.crashed() && in_flight.is_none());
            assert!(medium.len() <= CHECKPOINT_FLOOR + 2 * journal.live_bytes());
        }
        t1.leak();
        drop(mgr);

        let (mgr2, _j2) = journaled_manager(&store);
        let report = mgr2.recover(&medium).unwrap();
        assert_eq!(report.dropped_tail, 0, "crash={crash}");
        assert!(report.owners.contains(&id1), "crash={crash}: acknowledged check-out lost");
        assert!(report.owners.iter().all(|o| *o == id1 || Some(*o) == in_flight));
        let probe = mgr2.begin(TxnKind::Short);
        assert!(probe.try_lock(&trajectory("r1"), AccessMode::Update).is_err());
        probe.abort().unwrap();
        for owner in report.owners {
            mgr2.resume(owner).unwrap().abort().unwrap();
        }
        assert_eq!(mgr2.lock_manager().table_size(), 0, "crash={crash}");
    }
}

#[test]
fn clean_finish_leaves_nothing_to_recover() {
    let store = populated_store();
    let (mgr, journal) = journaled_manager(&store);
    let t = mgr.begin(TxnKind::Long);
    t.checkout(&trajectory("r1"), AccessMode::Update).unwrap();
    t.commit().unwrap();
    let recovered = Journal::<ResourcePath>::replay(&journal.contents()).unwrap();
    assert!(recovered.entries.is_empty(), "grants and releases must cancel out");
    assert_eq!(recovered.dropped_tail, 0);
}

#[test]
fn contenders_converge_with_seeded_backoff() {
    let store = populated_store();
    let mgr = manager(&store);
    thread::scope(|s| {
        for w in 0..4u64 {
            let mgr = &mgr;
            s.spawn(move || {
                let mut backoff = Backoff::new(0xC0FFEE ^ w, 1, 64);
                loop {
                    let t = mgr.begin(TxnKind::Short);
                    match t.try_lock(&trajectory("r1"), AccessMode::Update) {
                        Ok(_) => {
                            thread::sleep(Duration::from_micros(20));
                            t.commit().unwrap();
                            return backoff.attempts();
                        }
                        Err(e) if e.is_would_block() || e.is_deadlock() => {
                            t.abort().unwrap();
                            thread::sleep(Duration::from_micros(backoff.next_delay()));
                        }
                        Err(e) => panic!("unexpected error under contention: {e}"),
                    }
                }
            });
        }
    });
    // Everyone finished (scope joined) and the table is clean.
    let probe = mgr.begin(TxnKind::Short);
    probe.try_lock(&trajectory("r1"), AccessMode::Update).unwrap();
    probe.commit().unwrap();
}
