//! Tests of the language extensions beyond Fig. 3: projection lists,
//! COUNT(*), and INSERT literal syntax.

mod common;

use colock_core::authorization::Authorization;
use colock_core::optimizer::Optimizer;
use colock_nf2::{ObjectKey, Value};
use colock_query::exec::run;
use colock_query::{parse, QueryError, Statement};
use colock_txn::{TransactionManager, TxnKind};

fn manager() -> TransactionManager {
    common::manager(common::extensions_store(), Authorization::allow_all())
}

#[test]
fn multi_projection_builds_tuple_rows() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let out = run(
        &t,
        "SELECT o.obj_id, o.obj_name FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 3);
    let first = &out.rows[0];
    assert_eq!(first.field("o.obj_id"), Some(&Value::str("o1")));
    assert_eq!(first.field("o.obj_name"), Some(&Value::str("nut")));
    t.commit().unwrap();
}

#[test]
fn count_star_returns_single_int() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let out = run(
        &t,
        "SELECT COUNT(*) FROM c IN cells, o IN c.c_objects WHERE o.obj_name = 'nut' FOR READ",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.rows, vec![Value::Int(2)]);
    t.commit().unwrap();
}

#[test]
fn count_star_zero_matches() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let out = run(
        &t,
        "SELECT COUNT(*) FROM c IN cells WHERE c.cell_id = 'nope' FOR READ",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.rows, vec![Value::Int(0)]);
    t.commit().unwrap();
}

#[test]
fn insert_literal_syntax_roundtrips() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let out = run(
        &t,
        "INSERT INTO effectors VALUES (eff_id: 'e9', tool: 'laser')",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.updated, 1);
    t.commit().unwrap();
    assert!(mgr.store().contains("effectors", &ObjectKey::from("e9")));
    let t2 = mgr.begin(TxnKind::Short);
    let check = run(
        &t2,
        "SELECT e.tool FROM e IN effectors WHERE e.eff_id = 'e9' FOR READ",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(check.rows, vec![Value::str("laser")]);
    t2.commit().unwrap();
}

#[test]
fn insert_parse_errors() {
    assert!(matches!(
        parse("INSERT effectors VALUES (a: 1)"),
        Err(QueryError::Parse { .. })
    ));
    assert!(matches!(
        parse("INSERT INTO effectors VALUES (a 1)"),
        Err(QueryError::Parse { .. })
    ));
    assert!(matches!(
        parse("INSERT INTO effectors VALUES ()"),
        Err(QueryError::Parse { .. })
    ));
}

#[test]
fn insert_type_mismatch_rejected_at_execution() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let err = run(
        &t,
        "INSERT INTO effectors VALUES (eff_id: 'e8', tool: 42)",
        &Optimizer::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("mismatch"), "{err}");
    t.abort().unwrap();
}

#[test]
fn count_parse_shape() {
    let s = parse("SELECT COUNT(*) FROM c IN cells FOR READ").unwrap();
    let Statement::Select(q) = s else { panic!() };
    assert!(q.count);
    assert_eq!(q.projections.len(), 1);
}

#[test]
fn projection_list_parse_shape() {
    let s = parse("SELECT r.robot_id, r.trajectory FROM c IN cells, r IN c.robots FOR READ")
        .unwrap();
    let Statement::Select(q) = s else { panic!() };
    assert!(!q.count);
    assert_eq!(q.projections.len(), 2);
}

#[test]
fn mixed_projection_of_var_and_attr() {
    let mgr = manager();
    let t = mgr.begin(TxnKind::Short);
    let out = run(
        &t,
        "SELECT r, r.trajectory FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' FOR READ",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 1);
    let row = &out.rows[0];
    assert!(row.field("r").unwrap().field("robot_id").is_some());
    assert_eq!(row.field("r.trajectory"), Some(&Value::str("t1")));
    t.commit().unwrap();
}
