//! Mutation-style conformance tests.
//!
//! Each `mutant_*` test drives the *real* lock manager (or emits exactly the
//! events a broken lock manager would emit) in a way that violates one
//! §4.4.2 protocol rule, and asserts that the linter reports exactly the
//! expected typed violation. The `conformant_*` tests run unmodified engine
//! paths and assert the linter stays silent — together they show the checks
//! are neither vacuous nor trigger-happy.
//!
//! Tests run side by side on the one trace ring: each reads back only the
//! events of its own manager instance (its synthetic events carry the same
//! id) with `events_since_in`.

use colock_check::{Linter, ViolationKind};
use colock_core::authorization::{Authorization, Right};
use colock_core::fixtures::fig1_catalog;
use colock_core::resource::{PathStep, ResourcePath};
use colock_core::{AccessMode, InstanceTarget};
use colock_lockmgr::{LockManager, LockMode, LockRequestOptions, TxnId};
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::{ObjectKey, Value};
use colock_storage::Store;
use colock_trace::{self as trace, Event, EventKind, RuleTag};
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::Arc;

/// Enables tracing and hands the caller the sequence mark to read from.
fn traced<T>(f: impl FnOnce(u64) -> T) -> T {
    trace::enable();
    f(trace::current_seq())
}

/// The events `instance` emitted since `mark`.
fn window(mark: u64, instance: u64) -> Vec<Event> {
    trace::events_since_in(mark, &[instance]).expect("window kept")
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

fn begin_short(instance: u64, txn: TxnId) {
    trace::emit(|| Event::new(EventKind::TxnBegin, txn.0).instance(instance).detail("short"));
}

#[test]
fn mutant_skipping_ancestor_intents_is_caught() {
    traced(|mark| {
        // A broken protocol layer that grabs the explicit target lock
        // without first intent-locking the path above it (rules 1/2).
        let lm: LockManager<ResourcePath> = LockManager::new();
        let txn = TxnId(7001);
        begin_short(lm.trace_instance(), txn);
        {
            let _rule = trace::rule_scope(RuleTag::Target);
            lm.acquire(txn, cells_object("c1"), LockMode::X, LockRequestOptions::default())
                .unwrap();
        }
        let report = Linter::with_catalog(&fig1_catalog()).lint(&window(mark, lm.trace_instance()));
        assert_eq!(kinds(&report), vec![ViolationKind::MissingAncestorIntent], "{}", report.render());
        assert!(report.violations[0].detail.contains("db:db1"), "{}", report.violations[0]);
    });
}

#[test]
fn mutant_releasing_mid_growth_is_caught() {
    traced(|mark| {
        // A broken engine that releases during the growing phase of a short
        // transaction and then keeps acquiring (two-phase discipline).
        let lm: LockManager<ResourcePath> = LockManager::new();
        let txn = TxnId(7002);
        let db = ResourcePath::database("db1");
        begin_short(lm.trace_instance(), txn);
        let scope = trace::rule_scope(RuleTag::AncestorIntent);
        lm.acquire(txn, db.clone(), LockMode::IX, LockRequestOptions::default()).unwrap();
        lm.release(txn, &db);
        lm.acquire(txn, db, LockMode::IX, LockRequestOptions::default()).unwrap();
        drop(scope);
        let report = Linter::with_catalog(&fig1_catalog()).lint(&window(mark, lm.trace_instance()));
        assert_eq!(kinds(&report), vec![ViolationKind::AcquireAfterRelease], "{}", report.render());
    });
}

#[test]
fn mutant_downgrading_conversion_is_caught() {
    traced(|mark| {
        // The real lock manager only converts along `join`; emit the exact
        // event stream a lock manager with a downgrade bug would produce.
        let (txn, instance) = (TxnId(7003), trace::next_instance());
        begin_short(instance, txn);
        trace::emit(|| {
            Event::new(EventKind::Grant, txn.0)
                .instance(instance)
                .resource("db:db1")
                .mode("X")
                .rule(RuleTag::Target)
                .detail("immediate")
        });
        trace::emit(|| {
            Event::new(EventKind::Conversion, txn.0)
                .instance(instance)
                .resource("db:db1")
                .mode("S")
                .detail("X -> S")
        });
        let report = Linter::with_catalog(&fig1_catalog()).lint(&window(mark, instance));
        assert_eq!(kinds(&report), vec![ViolationKind::IllegalConversion], "{}", report.render());
    });
}

#[test]
fn mutant_releasing_root_before_leaf_is_caught() {
    traced(|mark| {
        // A broken early-release path that walks root-to-leaf (rule 5
        // demands leaf-to-root before EOT).
        let lm: LockManager<ResourcePath> = LockManager::new();
        let txn = TxnId(7004);
        let db = ResourcePath::database("db1");
        let seg = db.clone().child(PathStep::Segment("seg1".into()));
        let instance = lm.trace_instance();
        trace::emit(|| Event::new(EventKind::TxnBegin, txn.0).instance(instance).detail("long"));
        let scope = trace::rule_scope(RuleTag::AncestorIntent);
        lm.acquire(txn, db.clone(), LockMode::IX, LockRequestOptions::default()).unwrap();
        lm.acquire(txn, seg.clone(), LockMode::IX, LockRequestOptions::default()).unwrap();
        drop(scope);
        lm.release(txn, &db);
        lm.release(txn, &seg);
        trace::emit(|| {
            Event::new(EventKind::TxnReleaseEarly, txn.0)
                .instance(instance)
                .resource(format!("{seg:?}"))
        });
        let report = Linter::with_catalog(&fig1_catalog()).lint(&window(mark, instance));
        assert_eq!(kinds(&report), vec![ViolationKind::ReleaseOrder], "{}", report.render());
        assert_eq!(report.violations[0].resource, "db:db1");
    });
}

#[test]
fn mutant_detector_without_victim_is_caught() {
    traced(|mark| {
        // A detector that reports a live cycle and never resolves it. The
        // later lock-manager event proves the stream continued past the
        // detection with no victim in between.
        let instance = trace::next_instance();
        trace::emit(|| {
            Event::new(EventKind::DeadlockDetected, 0).instance(instance).detail("T3, T8")
        });
        trace::emit(|| {
            Event::new(EventKind::Release, 9001).instance(instance).resource("r").mode("X")
        });
        let report = Linter::new().lint(&window(mark, instance));
        assert_eq!(kinds(&report), vec![ViolationKind::MissingVictim], "{}", report.render());
    });
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
    traced(|mark| {
        let mut authz = Authorization::allow_all();
        authz.set_relation_default("effectors", Right::Read);
        let store = populated_store();
        let linter = Linter::with_catalog(store.catalog());
        let mgr = TransactionManager::over_store(store, authz, ProtocolKind::Proposed);

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

        let events = window(mark, mgr.trace_instance());
        let report = linter.lint(&events);
        assert!(report.is_clean(), "{}", report.render_with_context(&events));
        assert!(report.grants_checked > 0, "linter saw no grants — tracing broken?");
        assert_eq!(report.txns_checked, 2);
    });
}

#[test]
fn conformant_long_txn_with_early_release_lints_clean() {
    traced(|mark| {
        let store = populated_store();
        let linter = Linter::with_catalog(store.catalog());
        let mgr =
            TransactionManager::over_store(store, Authorization::allow_all(), ProtocolKind::Proposed);

        let t = mgr.begin(TxnKind::Long);
        let value = t.checkout(&robot("r1"), AccessMode::Update).unwrap();
        t.checkin(&robot("r1"), value).unwrap();
        t.release_early(&robot("r1")).unwrap();
        t.commit().unwrap();

        let events = window(mark, mgr.trace_instance());
        let report = linter.lint(&events);
        assert!(report.is_clean(), "{}", report.render_with_context(&events));
    });
}
