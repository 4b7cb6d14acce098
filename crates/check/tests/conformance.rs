//! Mutation-style conformance tests.
//!
//! Each `mutant_*` test drives the *real* lock manager (or emits exactly the
//! events a broken lock manager would emit) in a way that violates one
//! §4.4.2 protocol rule, and asserts that the linter reports exactly the
//! expected typed violation. The `conformant_*` tests run unmodified engine
//! paths and assert the linter stays silent — together they show the checks
//! are neither vacuous nor trigger-happy.
//!
//! Each test traces into a buffer of its own, so tests run side by side.

use colock_check::{Linter, ViolationKind};
use colock_core::authorization::{Authorization, Right};
use colock_core::fixtures::fig1_catalog;
use colock_core::resource::{PathStep, ResourcePath};
use colock_core::{AccessMode, InstanceTarget};
use colock_lockmgr::{LockManager, LockMode, LockRequestOptions, TxnId};
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::{ObjectKey, Value};
use colock_storage::Store;
use colock_trace::{self as trace, Event, EventKind, RuleTag, TraceBuffer};
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::Arc;

/// A fresh trace buffer, switched on.
fn traced() -> Arc<TraceBuffer> {
    let buf = Arc::new(TraceBuffer::with_capacity(1 << 12));
    buf.enable();
    buf
}

/// A lock manager tracing into a fresh buffer of its own.
fn traced_lm() -> LockManager<ResourcePath> {
    let lm = LockManager::new();
    lm.attach_trace(traced());
    lm
}

/// Everything `buf` recorded.
fn window(buf: &TraceBuffer) -> Vec<Event> {
    buf.events_since(0).expect("window kept")
}

fn kinds(report: &colock_check::LintReport) -> Vec<ViolationKind> {
    report.violations.iter().map(|v| v.kind).collect()
}

fn cells_object(key: &str) -> ResourcePath {
    ResourcePath::database("db1")
        .child(PathStep::Segment("seg1".into()))
        .child(PathStep::Relation("cells".into()))
        .child(PathStep::Object(ObjectKey::from(key)))
}

fn begin_short(buf: &TraceBuffer, txn: TxnId) {
    buf.emit(|| Event::new(EventKind::TxnBegin, txn.0).detail("short"));
}

#[test]
fn mutant_skipping_ancestor_intents_is_caught() {
    // A broken protocol layer that grabs the explicit target lock
    // without first intent-locking the path above it (rules 1/2).
    let lm = traced_lm();
    let txn = TxnId(7001);
    begin_short(lm.trace(), txn);
    {
        let _rule = trace::rule_scope(RuleTag::Target);
        lm.acquire(txn, cells_object("c1"), LockMode::X, LockRequestOptions::default()).unwrap();
    }
    let report = Linter::with_catalog(&fig1_catalog()).lint(&window(lm.trace()));
    assert_eq!(kinds(&report), vec![ViolationKind::MissingAncestorIntent], "{}", report.render());
    assert!(report.violations[0].detail.contains("db:db1"), "{}", report.violations[0]);
}

#[test]
fn mutant_releasing_mid_growth_is_caught() {
    // A broken engine that releases during the growing phase of a short
    // transaction and then keeps acquiring (two-phase discipline).
    let lm = traced_lm();
    let txn = TxnId(7002);
    let db = ResourcePath::database("db1");
    begin_short(lm.trace(), txn);
    let scope = trace::rule_scope(RuleTag::AncestorIntent);
    lm.acquire(txn, db.clone(), LockMode::IX, LockRequestOptions::default()).unwrap();
    lm.release(txn, &db);
    lm.acquire(txn, db, LockMode::IX, LockRequestOptions::default()).unwrap();
    drop(scope);
    let report = Linter::with_catalog(&fig1_catalog()).lint(&window(lm.trace()));
    assert_eq!(kinds(&report), vec![ViolationKind::AcquireAfterRelease], "{}", report.render());
}

#[test]
fn mutant_downgrading_conversion_is_caught() {
    // The real lock manager only converts along `join`; emit the exact
    // event stream a lock manager with a downgrade bug would produce.
    let (txn, buf) = (TxnId(7003), traced());
    begin_short(&buf, txn);
    buf.emit(|| {
        Event::new(EventKind::Grant, txn.0)
            .resource("db:db1")
            .mode("X")
            .rule(RuleTag::Target)
            .detail("immediate")
    });
    buf.emit(|| {
        Event::new(EventKind::Conversion, txn.0).resource("db:db1").mode("S").detail("X -> S")
    });
    let report = Linter::with_catalog(&fig1_catalog()).lint(&window(&buf));
    assert_eq!(kinds(&report), vec![ViolationKind::IllegalConversion], "{}", report.render());
}

#[test]
fn mutant_releasing_root_before_leaf_is_caught() {
    // A broken early-release path that walks root-to-leaf (rule 5
    // demands leaf-to-root before EOT).
    let lm = traced_lm();
    let txn = TxnId(7004);
    let db = ResourcePath::database("db1");
    let seg = db.clone().child(PathStep::Segment("seg1".into()));
    lm.trace().emit(|| Event::new(EventKind::TxnBegin, txn.0).detail("long"));
    let scope = trace::rule_scope(RuleTag::AncestorIntent);
    lm.acquire(txn, db.clone(), LockMode::IX, LockRequestOptions::default()).unwrap();
    lm.acquire(txn, seg.clone(), LockMode::IX, LockRequestOptions::default()).unwrap();
    drop(scope);
    lm.release(txn, &db);
    lm.release(txn, &seg);
    lm.trace().emit(|| Event::new(EventKind::TxnReleaseEarly, txn.0).resource(format!("{seg:?}")));
    let report = Linter::with_catalog(&fig1_catalog()).lint(&window(lm.trace()));
    assert_eq!(kinds(&report), vec![ViolationKind::ReleaseOrder], "{}", report.render());
    assert_eq!(report.violations[0].resource, "db:db1");
}

#[test]
fn mutant_detector_without_victim_is_caught() {
    // A detector that reports a live cycle and never resolves it. The
    // later lock-manager event proves the stream continued past the
    // detection with no victim in between.
    let buf = traced();
    buf.emit(|| Event::new(EventKind::DeadlockDetected, 0).detail("T3, T8"));
    buf.emit(|| Event::new(EventKind::Release, 9001).resource("r").mode("X"));
    let report = Linter::new().lint(&window(&buf));
    assert_eq!(kinds(&report), vec![ViolationKind::MissingVictim], "{}", report.render());
}

// --- conformant engine paths must lint clean -----------------------------

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
                    list(vec![tup(vec![
                        ("robot_id", Value::str("r1")),
                        ("trajectory", Value::str("t1")),
                        (
                            "effectors",
                            set(vec![
                                Value::reference("effectors", "e1"),
                                Value::reference("effectors", "e2"),
                            ]),
                        ),
                    ])]),
                ),
            ]),
        )
        .unwrap();
    store
}

fn robot(r: &str) -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", r)
}

#[test]
fn conformant_short_txns_lint_clean() {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let store = populated_store();
    let linter = Linter::with_catalog(store.catalog());
    let mgr = TransactionManager::over_store(store, authz, ProtocolKind::Proposed);
    mgr.attach_trace(traced());

    // Update with downward propagation into the shared effectors
    // (rule 4′ weakens their entry points to S), then read them back.
    let t = mgr.begin(TxnKind::Short);
    t.update(&robot("r1").attr("trajectory"), Value::str("t9")).unwrap();
    t.read(&robot("r1")).unwrap();
    t.commit().unwrap();

    // An aborting reader.
    let t = mgr.begin(TxnKind::Short);
    t.read(&InstanceTarget::object("effectors", "e1")).unwrap();
    t.abort().unwrap();

    let events = window(mgr.trace());
    let report = linter.lint(&events);
    assert!(report.is_clean(), "{}", report.render_with_context(&events));
    assert!(report.grants_checked > 0, "linter saw no grants — tracing broken?");
    assert_eq!(report.txns_checked, 2);
}

#[test]
fn conformant_long_txn_with_early_release_lints_clean() {
    let store = populated_store();
    let linter = Linter::with_catalog(store.catalog());
    let mgr =
        TransactionManager::over_store(store, Authorization::allow_all(), ProtocolKind::Proposed);
    mgr.attach_trace(traced());

    let t = mgr.begin(TxnKind::Long);
    let value = t.checkout(&robot("r1"), AccessMode::Update).unwrap();
    t.checkin(&robot("r1"), value).unwrap();
    t.release_early(&robot("r1")).unwrap();
    t.commit().unwrap();

    let events = window(mgr.trace());
    let report = linter.lint(&events);
    assert!(report.is_clean(), "{}", report.render_with_context(&events));
}
