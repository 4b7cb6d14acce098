//! End-to-end: the paper's Fig. 3 queries parsed, planned and executed over
//! a populated store, with the lock behaviour of §4.4.2.2.

mod common;

use colock_core::authorization::{Authorization, Right};
use colock_core::optimizer::Optimizer;
use colock_nf2::value::build::tup;
use colock_nf2::{ObjectKey, Value};
use colock_query::exec::{run, ExecOutcome};
use colock_storage::Store;
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use common::populated;
use std::sync::Arc;

fn manager() -> TransactionManager {
    common::manager(populated(), common::engineer_authz())
}

const Q1: &str =
    "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ";
const Q2: &str = "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE";
const Q3: &str = "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE";

fn run_in_txn(mgr: &TransactionManager, q: &str) -> ExecOutcome {
    let t = mgr.begin(TxnKind::Short);
    let out = run(&t, q, &Optimizer::default()).unwrap();
    t.commit().unwrap();
    out
}

#[test]
fn q1_returns_all_c_objects_of_c1() {
    let mgr = manager();
    let out = run_in_txn(&mgr, Q1);
    assert_eq!(out.rows.len(), 5);
    assert_eq!(out.rows[0].field("obj_name"), Some(&Value::str("part1")));
}

#[test]
fn q2_returns_robot_r1_with_x_lock() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let out = run(&t, Q2, &Optimizer::default()).unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].field("robot_id"), Some(&Value::str("r1")));
    // The X lock on robot r1 and S entry locks on e1/e2 are held (Fig. 7).
    let lm = mgr.lock_manager();
    let engine = mgr.engine();
    let r1 = engine
        .resource_for(&colock_core::InstanceTarget::object("cells", "c1").elem("robots", "r1"))
        .unwrap();
    assert_eq!(lm.held_mode(t.id(), &r1), colock_lockmgr::LockMode::X);
    let e1 = engine
        .resource_for(&colock_core::InstanceTarget::object("effectors", "e1"))
        .unwrap();
    assert_eq!(lm.held_mode(t.id(), &e1), colock_lockmgr::LockMode::S);
    assert_eq!(out.entry_points_locked, 2);
    t.commit().unwrap();
}

#[test]
fn q2_and_q3_interleave_in_one_schedule() {
    let mgr = manager();
    let t2 = mgr.begin(TxnKind::Short);
    let t3 = mgr.begin(TxnKind::Short);
    let o2 = run(&t2, Q2, &Optimizer::default()).unwrap();
    let o3 = run(&t3, Q3, &Optimizer::default()).unwrap();
    assert_eq!(o2.rows.len(), 1);
    assert_eq!(o3.rows.len(), 1);
    t2.commit().unwrap();
    t3.commit().unwrap();
}

#[test]
fn q1_and_q2_interleave() {
    let mgr = manager();
    let t1 = mgr.begin(TxnKind::Short);
    let t2 = mgr.begin(TxnKind::Short);
    run(&t1, Q1, &Optimizer::default()).unwrap();
    run(&t2, Q2, &Optimizer::default()).unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();
}

#[test]
fn update_statement_changes_trajectory() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let out = run(
        &t,
        "UPDATE r.trajectory = 'vertical' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2'",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.updated, 1);
    t.commit().unwrap();
    let check = run_in_txn(&mgr, Q3);
    assert_eq!(check.rows[0].field("trajectory"), Some(&Value::str("vertical")));
}

#[test]
fn non_key_predicate_filters_rows() {
    let mgr = manager();
    let out = run_in_txn(
        &mgr,
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.trajectory = 't2' FOR READ",
    );
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].field("robot_id"), Some(&Value::str("r2")));
}

#[test]
fn full_scan_uses_relation_granule_when_large() {
    let mgr = manager();
    // With cardinality stats present and a tiny θ, a full scan escalates to
    // one relation lock.
    let t = mgr.begin(TxnKind::Short);
    let out = run(&t, "SELECT c FROM c IN cells FOR READ", &Optimizer::new(2.0)).unwrap();
    assert_eq!(out.rows.len(), 2);
    let cells = mgr
        .engine()
        .resource_for(&colock_core::InstanceTarget::relation("cells"))
        .unwrap();
    assert_eq!(
        mgr.lock_manager().held_mode(t.id(), &cells),
        colock_lockmgr::LockMode::IS,
        "without cardinality stats only per-object locks (intent on relation)"
    );
    t.commit().unwrap();

    // Recompute stats → the optimizer sees cardinality 2 ≥ θ=2 and plans a
    // relation lock.
    let with_stats = Arc::new(colock_storage::stats::catalog_with_stats(mgr.store()));
    let store2 = Arc::new(Store::new(Arc::clone(&with_stats)));
    // Repopulate under the stats-bearing catalog.
    for snap in ["effectors", "cells"] {
        for (k, v) in mgr.store().snapshot(snap).unwrap().objects() {
            let _ = k;
            store2.insert(snap, v).unwrap();
        }
    }
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let mgr2 = TransactionManager::over_store(store2, authz, ProtocolKind::Proposed);
    let t = mgr2.begin(TxnKind::Short);
    run(&t, "SELECT c FROM c IN cells FOR READ", &Optimizer::new(2.0)).unwrap();
    let cells = mgr2
        .engine()
        .resource_for(&colock_core::InstanceTarget::relation("cells"))
        .unwrap();
    assert_eq!(mgr2.lock_manager().held_mode(t.id(), &cells), colock_lockmgr::LockMode::S);
    t.commit().unwrap();
}

#[test]
fn delete_element_removes_robot_without_touching_effectors() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let out = run(
        &t,
        "DELETE r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' AND r.robot_id = 'r1'",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.deleted, 1);
    // §4.5: deleting the robot takes NO locks on the effectors library.
    let e1 = mgr
        .engine()
        .resource_for(&colock_core::InstanceTarget::object("effectors", "e1"))
        .unwrap();
    assert_eq!(mgr.lock_manager().held_mode(t.id(), &e1), colock_lockmgr::LockMode::NL);
    t.commit().unwrap();
    let left = run_in_txn(
        &mgr,
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' FOR READ",
    );
    assert_eq!(left.rows.len(), 1);
    assert_eq!(left.rows[0].field("robot_id"), Some(&Value::str("r2")));
}

#[test]
fn delete_object_statement() {
    let mgr = TransactionManager::over_store(populated(), Authorization::allow_all(), ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Short);
    // e9 unreferenced.
    t.insert("effectors", tup(vec![("eff_id", Value::str("e9")), ("tool", Value::str("x"))]))
        .unwrap();
    t.commit().unwrap();
    let t = mgr.begin(TxnKind::Short);
    let out = run(
        &t,
        "DELETE e FROM e IN effectors WHERE e.eff_id = 'e9'",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.deleted, 1);
    t.commit().unwrap();
    assert!(!mgr.store().contains("effectors", &ObjectKey::from("e9")));
}

#[test]
fn rollback_of_query_updates() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    run(
        &t,
        "UPDATE r.trajectory = 'zzz' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1'",
        &Optimizer::default(),
    )
    .unwrap();
    t.abort().unwrap();
    let check = run_in_txn(&mgr, Q2);
    assert_eq!(check.rows[0].field("trajectory"), Some(&Value::str("t1")));
}

#[test]
fn insert_statement_via_api() {
    let mgr = TransactionManager::over_store(populated(), Authorization::allow_all(), ProtocolKind::Proposed);
    let t = mgr.begin(TxnKind::Short);
    let stmt = colock_query::Statement::Insert {
        relation: "effectors".into(),
        value: tup(vec![("eff_id", Value::str("e7")), ("tool", Value::str("probe"))]),
    };
    let out = colock_query::exec::run_statement(&t, stmt, &Optimizer::default()).unwrap();
    assert_eq!(out.updated, 1);
    t.commit().unwrap();
    assert!(mgr.store().contains("effectors", &ObjectKey::from("e7")));
}

#[test]
fn scan_update_with_six_lets_siblings_be_read() {
    // An unkeyed UPDATE takes SIX on the robots subtree and X only on the
    // matched element; a reader of an *untouched* sibling robot proceeds.
    let mgr = manager();
    let t1 = mgr.begin(TxnKind::Short);
    let out = run(
        &t1,
        "UPDATE r.trajectory = 'patched' FROM c IN cells, r IN c.robots \
         WHERE c.cell_id = 'c1' AND r.trajectory = 't1'",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.updated, 1);
    let robots = mgr
        .engine()
        .resource_for(&colock_core::InstanceTarget::object("cells", "c1").attr("robots"))
        .unwrap();
    assert_eq!(
        mgr.lock_manager().held_mode(t1.id(), &robots),
        colock_lockmgr::LockMode::SIX,
        "scan-update holds SIX on the subtree"
    );

    // A second transaction reads the untouched robot r2 concurrently.
    let t2 = mgr.begin(TxnKind::Short);
    let r2 = colock_core::InstanceTarget::object("cells", "c1").elem("robots", "r2");
    assert!(t2.try_lock(&r2, colock_core::AccessMode::Read).is_ok());
    // But the patched robot r1 is X-protected.
    let r1 = colock_core::InstanceTarget::object("cells", "c1").elem("robots", "r1");
    assert!(t2.try_lock(&r1, colock_core::AccessMode::Read).is_err());
    t2.abort().unwrap();
    t1.commit().unwrap();
}
