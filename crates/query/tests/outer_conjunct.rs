//! The one place conjunct placement changes a lock set: an outer non-key
//! conjunct that rejects an outer row is evaluated as soon as that row
//! binds, so the row's inner element locks are never requested. Evaluating
//! the whole WHERE clause on complete rows took them first and then
//! discarded the rows.
//!
//! The only test in its binary: it reads the process-wide trace ring.

mod common;

use colock_core::optimizer::Optimizer;
use colock_lockmgr::WaitPolicy;
use colock_nf2::Value;
use colock_query::exec::run;
use colock_txn::TxnKind;

#[test]
fn a_rejected_outer_row_takes_no_inner_locks_and_the_trace_stays_clean() {
    let mgr = common::manager(common::populated(), common::engineer_authz());
    colock_trace::enable();
    let mark = colock_trace::current_seq();

    // `c.cell_id > 'c1'` is no key predicate: the scan binds c1 and c2,
    // S-locks the `cell_id` the conjunct reads on each, and the conjunct
    // rejects c1 before its robots are iterated.
    let reader = mgr.begin(TxnKind::Short);
    let out = run(
        &reader,
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id > 'c1' AND r.robot_id = 'r1' FOR UPDATE",
        &Optimizer::default(),
    )
    .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].field("robot_id"), Some(&Value::str("r1")));
    let mut held = Vec::new();
    mgr.lock_manager().for_each_grant(|r, txn, mode, _| {
        if txn == reader.id() {
            held.push(format!("{r} {mode}"));
        }
    });
    held.sort();
    assert_eq!(
        held,
        [
            "db:db1 IX",
            "db:db1/seg:seg1 IX",
            "db:db1/seg:seg1/rel:cells IX",
            "db:db1/seg:seg1/rel:cells/obj:c1 IS",
            "db:db1/seg:seg1/rel:cells/obj:c1/cell_id S",
            "db:db1/seg:seg1/rel:cells/obj:c2 IX",
            "db:db1/seg:seg1/rel:cells/obj:c2/cell_id S",
            "db:db1/seg:seg1/rel:cells/obj:c2/robots IX",
            "db:db1/seg:seg1/rel:cells/obj:c2/robots/[r1] X",
            "db:db1/seg:seg2 IS",
            "db:db1/seg:seg2/rel:effectors IS",
            "db:db1/seg:seg2/rel:effectors/obj:e1 S",
            "db:db1/seg:seg2/rel:effectors/obj:e2 S",
        ],
        "c1's robot r1 is not locked"
    );

    // So a writer of c1's r1 runs beside the reader without waiting.
    let writer = mgr.begin(TxnKind::Short);
    writer.set_wait_policy(WaitPolicy::Try);
    let wrote = run(
        &writer,
        "UPDATE r.trajectory = 'moved' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1'",
        &Optimizer::default(),
    )
    .expect("c1's robot is free");
    assert_eq!(wrote.updated, 1);
    writer.commit().unwrap();
    reader.commit().unwrap();

    let events = colock_trace::events_since_in(mark, &[mgr.trace_instance()]).unwrap();
    if let Err(e) = colock_check::verify_trace(mgr.store().catalog(), &events) {
        panic!("{e}");
    }
}
