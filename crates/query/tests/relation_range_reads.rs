//! An attribute read through a relation-range variable locks what it reads.
//! `SELECT e.tool FROM e IN effectors WHERE …` plans an Elements S lock on
//! `effectors.tool`; the executor must take it on every bound effector, or
//! the read sees another transaction's uncommitted update.

mod common;

use colock_core::authorization::Authorization;
use colock_core::optimizer::Optimizer;
use colock_lockmgr::WaitPolicy;
use colock_nf2::Value;
use colock_query::exec::run;
use colock_txn::{TransactionManager, TxnKind};

const READ: &str = "SELECT e.tool FROM e IN effectors WHERE e.eff_id = 'e1' FOR READ";

#[test]
fn a_relation_range_attribute_read_does_not_see_an_uncommitted_update() {
    let mgr: TransactionManager = common::manager(common::populated(), Authorization::allow_all());
    let writer = mgr.begin(TxnKind::Short);
    let wrote = run(
        &writer,
        "UPDATE e.tool = 'dirty' FROM e IN effectors WHERE e.eff_id = 'e1'",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(wrote.updated, 1);

    // The writer's X on e1's tool stands in the way of the reader's S.
    let reader = mgr.begin(TxnKind::Short);
    reader.set_wait_policy(WaitPolicy::Try);
    match run(&reader, READ, &Optimizer::default()) {
        Err(e) => assert!(e.to_string().contains("would block"), "unexpected error: {e}"),
        Ok(out) => panic!("read an uncommitted value without a lock: {:?}", out.rows),
    }
    reader.abort().unwrap();

    // Once the writer aborts, the read sees the committed value.
    writer.abort().unwrap();
    let reader = mgr.begin(TxnKind::Short);
    let out = run(&reader, READ, &Optimizer::default()).unwrap();
    assert_eq!(out.rows, [Value::str("grip")]);
    reader.commit().unwrap();
}
