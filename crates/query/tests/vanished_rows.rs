//! A row that disappears while the executor waits for its lock is skipped:
//! under two-phase locking the serial outcome is "no such row", not an
//! error. The scan lists a pending insert's key, blocks on the inserter's X
//! lock, and the inserter aborts.

mod common;

use colock_core::authorization::Authorization;
use colock_core::optimizer::Optimizer;
use colock_core::InstanceTarget;
use colock_nf2::value::build::tup;
use colock_nf2::Value;
use colock_query::exec::{run, ExecOutcome};
use colock_query::{analyze::analyze, parse, plan_locks};
use colock_txn::{TransactionManager, TxnKind};
use std::time::{Duration, Instant};

/// Runs `stmt` in a second transaction while a first one holds an
/// uncommitted insert of effector `e9`; the first aborts once the second
/// waits on `e9`. Returns the second's outcome.
fn scan_past_an_aborted_insert(stmt: &str) -> ExecOutcome {
    let mgr: TransactionManager = common::manager(common::populated(), Authorization::allow_all());
    let catalog = mgr.store().catalog().clone();
    let parsed = parse(stmt).unwrap();
    let analysis = analyze(&catalog, &parsed).unwrap();
    let plan = plan_locks(&catalog, parsed, analysis, &Optimizer::default()).unwrap();
    assert!(
        plan.explain().contains("Object ") && plan.explain().contains(" on effectors.<root>"),
        "the scan must lock per object:\n{}",
        plan.explain()
    );
    let e9 = mgr.engine().resource_for(&InstanceTarget::object("effectors", "e9")).unwrap();

    let inserter = mgr.begin(TxnKind::Short);
    inserter
        .insert("effectors", tup(vec![("eff_id", Value::str("e9")), ("tool", Value::str("laser"))]))
        .unwrap();
    std::thread::scope(|s| {
        let scanner = s.spawn(|| {
            let txn = mgr.begin(TxnKind::Short);
            let out = run(&txn, stmt, &Optimizer::default());
            txn.commit().unwrap();
            out
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while mgr.lock_manager().waiter_count(&e9) == 0 {
            assert!(Instant::now() < deadline, "the scan never waited on e9");
            std::thread::sleep(Duration::from_millis(1));
        }
        inserter.abort().unwrap();
        scanner.join().unwrap().expect("a vanished row is skipped, not an error")
    })
}

#[test]
fn a_select_skips_a_row_whose_insert_aborted_while_it_waited() {
    let out = scan_past_an_aborted_insert("SELECT e FROM e IN effectors FOR READ");
    let ids: Vec<_> = out.rows.iter().map(|r| r.field("eff_id").unwrap().to_string()).collect();
    assert_eq!(ids, ["\"e1\"", "\"e2\"", "\"e3\""]);
}

#[test]
fn a_delete_skips_a_row_whose_insert_aborted_while_it_waited() {
    let out = scan_past_an_aborted_insert("DELETE e FROM e IN effectors WHERE e.tool = 'none'");
    assert_eq!(out.deleted, 0);
}
