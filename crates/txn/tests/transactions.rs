//! Integration tests for the transaction layer: 2PL, rollback, deadlock
//! victims, degree-3 consistency, check-out/check-in with long locks.

use colock_core::authorization::{Authorization, Right};
use colock_core::fixtures::fig1_catalog;
use colock_core::{AccessMode, InstanceTarget};
use colock_core::ResourcePath;
use colock_lockmgr::Journal;
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::{ObjectKey, Value};
use colock_storage::Store;
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn populated_store() -> Arc<Store> {
    let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
    for (e, t) in [("e1", "grip"), ("e2", "weld"), ("e3", "drill")] {
        store
            .insert("effectors", tup(vec![("eff_id", Value::str(e)), ("tool", Value::str(t))]))
            .unwrap();
    }
    store
        .insert(
            "cells",
            tup(vec![
                ("cell_id", Value::str("c1")),
                (
                    "c_objects",
                    set(vec![tup(vec![
                        ("obj_id", Value::str("o1")),
                        ("obj_name", Value::str("part")),
                    ])]),
                ),
                (
                    "robots",
                    list(vec![
                        tup(vec![
                            ("robot_id", Value::str("r1")),
                            ("trajectory", Value::str("t1")),
                            (
                                "effectors",
                                set(vec![
                                    Value::reference("effectors", "e1"),
                                    Value::reference("effectors", "e2"),
                                ]),
                            ),
                        ]),
                        tup(vec![
                            ("robot_id", Value::str("r2")),
                            ("trajectory", Value::str("t2")),
                            (
                                "effectors",
                                set(vec![
                                    Value::reference("effectors", "e2"),
                                    Value::reference("effectors", "e3"),
                                ]),
                            ),
                        ]),
                    ]),
                ),
            ]),
        )
        .unwrap();
    store
}

fn manager(protocol: ProtocolKind) -> TransactionManager {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    TransactionManager::over_store(populated_store(), authz, protocol)
}

fn robot(r: &str) -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", r)
}

fn trajectory(r: &str) -> InstanceTarget {
    robot(r).attr("trajectory")
}

#[test]
fn read_own_update() {
    let mgr = manager(ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Short);
    t.update(&trajectory("r1"), Value::str("t-new")).unwrap();
    assert_eq!(t.read(&trajectory("r1")).unwrap(), Value::str("t-new"));
    t.commit().unwrap();
    // Visible after commit.
    let t2 = mgr.begin(TxnKind::Short);
    assert_eq!(t2.read(&trajectory("r1")).unwrap(), Value::str("t-new"));
    t2.commit().unwrap();
}

/// The mix's short write: a read and then an update of one trajectory. The
/// update's IX chain converts the read's IS chain link by link; those
/// conversions stay on the optimistic fast path, so before commit the shard
/// map holds the trajectory alone, not its six ancestors as well.
#[test]
fn short_write_keeps_its_ancestors_out_of_the_shard_map() {
    let mgr = manager(ProtocolKind::Proposed);
    let lm = mgr.lock_manager();
    let before = lm.stats().snapshot();
    let t = mgr.begin(TxnKind::Short);
    assert_eq!(t.read(&trajectory("r1")).unwrap(), Value::str("t1"));
    t.update(&trajectory("r1"), Value::str("t1'")).unwrap();
    assert_eq!(lm.table_size(), 1, "only the trajectory is a real grant:\n{}", lm.debug_dump());
    let s = lm.stats().snapshot().since(&before);
    // Seven links a side — six ancestors and the trajectory — as before
    // the conversions moved to the fast path.
    assert_eq!(s.requests, 14);
    assert_eq!(s.fastpath_hits, s.intent_acquires, "every intent is a gate hit: {s:?}");
    assert_eq!(s.conversions, 7, "six ancestors IS -> IX, the trajectory S -> X");
    t.commit().unwrap();
    assert_eq!(lm.table_size(), 0);
}

#[test]
fn abort_rolls_back_updates() {
    let mgr = manager(ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Short);
    t.update(&trajectory("r1"), Value::str("garbage")).unwrap();
    t.abort().unwrap();
    let t2 = mgr.begin(TxnKind::Short);
    assert_eq!(t2.read(&trajectory("r1")).unwrap(), Value::str("t1"));
    t2.commit().unwrap();
}

#[test]
fn abort_rolls_back_insert_and_delete() {
    let mgr = manager(ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Short);
    t.insert(
        "effectors",
        tup(vec![("eff_id", Value::str("e4")), ("tool", Value::str("saw"))]),
    )
    .unwrap_err(); // no update right on effectors
    t.abort().unwrap();

    // With rights: insert + delete round-trip under abort.
    let mut authz = Authorization::allow_all();
    let mgr = TransactionManager::over_store(populated_store(), authz.clone(), ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Short);
    let key = t
        .insert(
            "effectors",
            tup(vec![("eff_id", Value::str("e4")), ("tool", Value::str("saw"))]),
        )
        .unwrap();
    assert!(mgr.store().contains("effectors", &key));
    t.abort().unwrap();
    assert!(!mgr.store().contains("effectors", &key));

    authz.set_relation_default("cells", Right::Update);
}

#[test]
fn delete_then_abort_restores() {
    let mgr = TransactionManager::over_store(
        populated_store(),
        Authorization::allow_all(),
        ProtocolKind::Proposed,
    );
    // e1 is referenced; deleting it must fail with integrity error.
    let t = mgr.begin(TxnKind::Short);
    let err = t.delete("effectors", &ObjectKey::from("e1")).unwrap_err();
    assert!(matches!(err, colock_txn::TxnError::Storage(_)), "{err:?}");
    t.abort().unwrap();
    // Insert an unreferenced one, commit; delete in a second txn, abort.
    let t = mgr.begin(TxnKind::Short);
    t.insert("effectors", tup(vec![("eff_id", Value::str("e9")), ("tool", Value::str("x"))]))
        .unwrap();
    t.commit().unwrap();
    let t = mgr.begin(TxnKind::Short);
    t.delete("effectors", &ObjectKey::from("e9")).unwrap();
    assert!(!mgr.store().contains("effectors", &ObjectKey::from("e9")));
    t.abort().unwrap();
    assert!(mgr.store().contains("effectors", &ObjectKey::from("e9")));
}

#[test]
fn two_updaters_of_different_robots_run_concurrently() {
    // The paper's headline concurrency: Q2 ∥ Q3 on the same cell.
    let mgr = manager(ProtocolKind::Proposed);
    let t2 = mgr.begin(TxnKind::Short);
    let t3 = mgr.begin(TxnKind::Short);
    t2.update(&trajectory("r1"), Value::str("t1'")).unwrap();
    t3.update(&trajectory("r2"), Value::str("t2'")).unwrap();
    t2.commit().unwrap();
    t3.commit().unwrap();
}

#[test]
fn whole_object_protocol_serializes_them() {
    let mgr = manager(ProtocolKind::WholeObject);
    let t2 = mgr.begin(TxnKind::Short);
    let t3 = mgr.begin(TxnKind::Short);
    t2.update(&trajectory("r1"), Value::str("t1'")).unwrap();
    let r = t3.try_lock(&robot("r2"), AccessMode::Update);
    assert!(r.is_err(), "whole-object must serialize");
    t2.commit().unwrap();
    t3.abort().unwrap();
}

#[test]
fn degree3_repeated_reads_are_stable() {
    let mgr = Arc::new(manager(ProtocolKind::Proposed));
    let reader = mgr.begin(TxnKind::Short);
    let v1 = reader.read(&trajectory("r1")).unwrap();

    // A concurrent writer cannot slip an update between the two reads: its
    // X request blocks until the reader commits.
    let mgr2 = Arc::clone(&mgr);
    let writer = thread::spawn(move || {
        let w = mgr2.begin(TxnKind::Short);
        w.update(&trajectory("r1"), Value::str("t1-writer")).unwrap();
        w.commit().unwrap();
    });
    thread::sleep(Duration::from_millis(50));
    let v2 = reader.read(&trajectory("r1")).unwrap();
    assert_eq!(v1, v2, "degree-3: repeated reads identical");
    reader.commit().unwrap();
    writer.join().unwrap();
    let check = mgr.begin(TxnKind::Short);
    assert_eq!(check.read(&trajectory("r1")).unwrap(), Value::str("t1-writer"));
    check.commit().unwrap();
}

#[test]
fn deadlock_victim_gets_error_and_can_abort() {
    let mgr = Arc::new(manager(ProtocolKind::Proposed));
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let m1 = Arc::clone(&mgr);
    let b1 = Arc::clone(&barrier);
    let h1 = thread::spawn(move || {
        let t = m1.begin(TxnKind::Short);
        t.update(&trajectory("r1"), Value::str("a")).unwrap();
        b1.wait();
        let r = t.update(&trajectory("r2"), Value::str("b"));
        let deadlocked = matches!(&r, Err(e) if e.is_deadlock());
        if r.is_ok() {
            t.commit().unwrap();
        } else {
            t.abort().unwrap();
        }
        deadlocked
    });
    let m2 = Arc::clone(&mgr);
    let b2 = Arc::clone(&barrier);
    let h2 = thread::spawn(move || {
        let t = m2.begin(TxnKind::Short);
        t.update(&trajectory("r2"), Value::str("c")).unwrap();
        b2.wait();
        let r = t.update(&trajectory("r1"), Value::str("d"));
        let deadlocked = matches!(&r, Err(e) if e.is_deadlock());
        if r.is_ok() {
            t.commit().unwrap();
        } else {
            t.abort().unwrap();
        }
        deadlocked
    });
    let d1 = h1.join().unwrap();
    let d2 = h2.join().unwrap();
    assert!(d1 ^ d2, "exactly one of the two must be the victim (d1={d1}, d2={d2})");
    assert_eq!(mgr.lock_manager().stats().snapshot().deadlocks, 1);
}

#[test]
fn release_early_enters_shrinking_phase() {
    let mgr = manager(ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Short);
    t.lock(&robot("r1"), AccessMode::Read).unwrap();
    t.release_early(&robot("r1")).unwrap();
    let err = t.lock(&robot("r2"), AccessMode::Read).unwrap_err();
    assert!(matches!(err, colock_txn::TxnError::TwoPhaseViolation(_)));
    t.commit().unwrap();
}

/// An inserted object's references are common data it depends on: the
/// insert locks their entry points (rule 4) although it locks the object
/// before the object exists, so a deleter of the referenced effector waits
/// for the inserter instead of counting its uncommitted reference.
#[test]
fn insert_locks_the_entry_points_its_object_references() {
    let mgr = TransactionManager::over_store(
        populated_store(),
        Authorization::allow_all(),
        ProtocolKind::Proposed,
    );
    let e9 = ObjectKey::from("e9");
    let t = mgr.begin(TxnKind::Short);
    t.insert("effectors", tup(vec![("eff_id", Value::str("e9")), ("tool", Value::str("x"))]))
        .unwrap();
    t.commit().unwrap();

    let t1 = mgr.begin(TxnKind::Short);
    let cell = tup(vec![
        ("cell_id", Value::str("c2")),
        ("c_objects", set(vec![])),
        (
            "robots",
            list(vec![tup(vec![
                ("robot_id", Value::str("r9")),
                ("trajectory", Value::str("t9")),
                ("effectors", set(vec![Value::reference("effectors", "e9")])),
            ])]),
        ),
    ]);
    t1.insert("cells", cell).unwrap();
    let entry = InstanceTarget::object("effectors", e9.clone());
    let entry = mgr.engine().resource_for(&entry).unwrap();
    assert_eq!(mgr.lock_manager().held_mode(t1.id(), &entry), colock_lockmgr::LockMode::X);

    let t2 = mgr.begin(TxnKind::Short);
    t2.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
    let err = t2.delete("effectors", &e9).unwrap_err();
    assert!(err.is_would_block(), "{err:?}");
    t1.abort().unwrap();
    // The reference never committed: nothing keeps e9 alive.
    t2.delete("effectors", &e9).unwrap();
    t2.commit().unwrap();
    assert!(!mgr.store().contains("effectors", &e9));
}

#[test]
fn checkout_takes_long_locks_that_survive_crash() {
    let mgr = manager(ProtocolKind::Proposed);
    let journal = Arc::new(Journal::<ResourcePath>::new());
    assert!(mgr.attach_journal(journal.clone()));
    let t = mgr.begin(TxnKind::Long);
    let copy = t.checkout(&robot("r1"), AccessMode::Update).unwrap();
    assert_eq!(copy.field("robot_id"), Some(&Value::str("r1")));

    // Simulate a crash: replay the journal into a fresh table.
    let replayed = Journal::<ResourcePath>::replay(&journal.contents()).unwrap();
    assert_eq!(replayed.owners(), vec![t.id()], "check-out must have produced long locks");
    let fresh = colock_lockmgr::LockManager::new();
    fresh.install_recovered(t.id(), replayed.entries.into_iter().map(|(r, _, m)| (r, m)));
    // The robot's X lock survived.
    let resource = mgr.engine().resource_for(&robot("r1")).unwrap();
    assert_eq!(fresh.held_mode(t.id(), &resource), colock_lockmgr::LockMode::X);
    t.commit().unwrap();
}

#[test]
fn checkin_requires_checkout() {
    let mgr = manager(ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Long);
    let err = t.checkin(&trajectory("r1"), Value::str("x")).unwrap_err();
    assert!(matches!(err, colock_txn::TxnError::NotCheckedOut(_)));
    // Proper flow: checkout, modify, checkin, commit.
    let _copy = t.checkout(&trajectory("r1"), AccessMode::Update).unwrap();
    t.checkin(&trajectory("r1"), Value::str("t1-station")).unwrap();
    t.commit().unwrap();
    let check = mgr.begin(TxnKind::Short);
    assert_eq!(check.read(&trajectory("r1")).unwrap(), Value::str("t1-station"));
    check.commit().unwrap();
}

#[test]
fn drop_without_commit_aborts() {
    let mgr = manager(ProtocolKind::Proposed);
    {
        let t = mgr.begin(TxnKind::Short);
        t.update(&trajectory("r1"), Value::str("leaked")).unwrap();
        // dropped here
    }
    assert_eq!(mgr.active_count(), 0);
    let t = mgr.begin(TxnKind::Short);
    assert_eq!(t.read(&trajectory("r1")).unwrap(), Value::str("t1"), "drop must roll back");
    t.commit().unwrap();
}

#[test]
fn tuple_level_and_naive_protocols_also_work_end_to_end() {
    for kind in [ProtocolKind::TupleLevel, ProtocolKind::NaiveDag, ProtocolKind::ProposedRule4] {
        let mgr = manager(kind);
        let t = mgr.begin(TxnKind::Short);
        t.update(&trajectory("r1"), Value::str("t1-x")).unwrap();
        t.commit().unwrap();
        let t = mgr.begin(TxnKind::Short);
        assert_eq!(t.read(&trajectory("r1")).unwrap(), Value::str("t1-x"), "{kind:?}");
        t.commit().unwrap();
    }
}

// ---- semantic element operations ------------------------------------------

fn robots_container() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").attr("robots")
}

fn new_robot(id: &str) -> Value {
    tup(vec![
        ("robot_id", Value::str(id)),
        ("trajectory", Value::str("t-new")),
        ("effectors", set(vec![])),
    ])
}

fn robot_ids(container: &Value) -> Vec<String> {
    container
        .elements()
        .unwrap()
        .iter()
        .map(|r| match r.field("robot_id") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("robot without id: {other:?}"),
        })
        .collect()
}

#[test]
fn concurrent_element_inserters_commute_under_semantic_modes() {
    let mgr = manager(ProtocolKind::Proposed);
    let t1 = mgr.begin(TxnKind::Short);
    let t2 = mgr.begin(TxnKind::Short);
    // Try-policy: any lock conflict surfaces as WouldBlock instead of
    // wedging the single test thread.
    t2.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
    t1.insert_element(&robots_container(), new_robot("r3")).unwrap();
    // t1 still holds Insert on the container and X on its new element; a
    // second inserter of a *different* element gets in without waiting.
    t2.insert_element(&robots_container(), new_robot("r4")).unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();
    let t = mgr.begin(TxnKind::Short);
    assert_eq!(robot_ids(&t.read(&robots_container()).unwrap()), ["r1", "r2", "r3", "r4"]);
    t.commit().unwrap();
}

#[test]
fn semantic_ablation_serializes_element_inserters() {
    let mgr = manager(ProtocolKind::Proposed);
    mgr.set_semantic(false);
    let t1 = mgr.begin(TxnKind::Short);
    let t2 = mgr.begin(TxnKind::Short);
    t2.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
    t1.insert_element(&robots_container(), new_robot("r3")).unwrap();
    // Classical fallback X-locks the whole container: the second inserter
    // conflicts even though the elements are distinct.
    let err = t2.insert_element(&robots_container(), new_robot("r4")).unwrap_err();
    assert!(err.is_would_block(), "{err}");
    t1.commit().unwrap();
    t2.abort().unwrap();
}

#[test]
fn concurrent_element_delete_and_insert_compose_at_commit() {
    let mgr = manager(ProtocolKind::Proposed);
    let t1 = mgr.begin(TxnKind::Short);
    let t2 = mgr.begin(TxnKind::Short);
    t2.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
    t1.delete_element(&robot("r1")).unwrap();
    t2.insert_element(&robots_container(), new_robot("r3")).unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();
    let t = mgr.begin(TxnKind::Short);
    assert_eq!(robot_ids(&t.read(&robots_container()).unwrap()), ["r2", "r3"]);
    t.commit().unwrap();
}

#[test]
fn concurrent_deleters_do_not_lose_each_others_splice() {
    // Regression: delete_element used to read the whole container, splice in
    // memory, and write the container back under only an element X lock —
    // two deleters of distinct robots could silently resurrect each other's
    // victim. The splice now happens element-granular under the store latch.
    let mgr = manager(ProtocolKind::Proposed);
    let t1 = mgr.begin(TxnKind::Short);
    let t2 = mgr.begin(TxnKind::Short);
    t2.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
    t1.delete_element(&robot("r1")).unwrap();
    t2.delete_element(&robot("r2")).unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();
    let t = mgr.begin(TxnKind::Short);
    assert!(robot_ids(&t.read(&robots_container()).unwrap()).is_empty());
    t.commit().unwrap();
}

#[test]
fn member_probe_runs_beside_an_uncommitted_inserter() {
    let mgr = manager(ProtocolKind::Proposed);
    let t1 = mgr.begin(TxnKind::Short);
    t1.insert_element(&robots_container(), new_robot("r3")).unwrap();
    let t2 = mgr.begin(TxnKind::Short);
    t2.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
    // Member on the container is compatible with t1's Insert; the probe of
    // an untouched element proceeds.
    let r1 = t2.member_element(&robot("r1")).unwrap();
    assert_eq!(r1.field("robot_id"), Some(&Value::str("r1")));
    // Probing the not-yet-committed element hits its X lock.
    let err = t2.member_element(&robot("r3")).unwrap_err();
    assert!(err.is_would_block(), "{err}");
    t1.abort().unwrap();
    t2.commit().unwrap();
}

#[test]
fn abort_rolls_back_element_insert_and_delete() {
    let mgr = manager(ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Short);
    t.insert_element(&robots_container(), new_robot("r3")).unwrap();
    t.delete_element(&robot("r1")).unwrap();
    assert_eq!(robot_ids(&t.read(&robots_container()).unwrap()), ["r2", "r3"]);
    t.abort().unwrap();
    let t2 = mgr.begin(TxnKind::Short);
    assert_eq!(robot_ids(&t2.read(&robots_container()).unwrap()), ["r1", "r2"]);
    t2.commit().unwrap();
}

#[test]
fn snapshot_reader_never_sees_a_half_committed_element_storm() {
    let mgr = manager(ProtocolKind::Proposed);
    let reader = mgr.begin_readonly();
    let t = mgr.begin(TxnKind::Short);
    t.insert_element(&robots_container(), new_robot("r3")).unwrap();
    // Pinned before the writer committed: still the original two robots.
    assert_eq!(robot_ids(&reader.snapshot_read(&robots_container()).unwrap()), ["r1", "r2"]);
    t.commit().unwrap();
    assert_eq!(robot_ids(&reader.snapshot_read(&robots_container()).unwrap()), ["r1", "r2"]);
    reader.commit().unwrap();
    let after = mgr.begin_readonly();
    assert_eq!(
        robot_ids(&after.snapshot_read(&robots_container()).unwrap()),
        ["r1", "r2", "r3"]
    );
    after.commit().unwrap();
}
