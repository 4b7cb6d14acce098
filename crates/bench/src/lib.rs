#![forbid(unsafe_code)]
//! Shared experiment machinery for the figure/experiment binaries and the
//! Criterion benches. Every table printed by a binary in `src/bin/` is
//! recorded (paper statement vs measured shape) in `EXPERIMENTS.md`.

use colock_check::{CertifyReport, Certifier, LintReport, Linter};
use colock_core::authorization::{Authorization, Right};
use colock_nf2::Catalog;
use colock_sim::{build_cells_store, CellsConfig};
use colock_trace::Event;
use colock_txn::{ProtocolKind, TransactionManager};
use std::sync::Arc;

/// The standard rights of the paper's running example: everyone may update
/// cells, nobody may update the effectors library (Fig. 7's assumption).
pub fn standard_authz() -> Authorization {
    let mut a = Authorization::allow_all();
    a.set_relation_default("effectors", Right::Read);
    a
}

/// Rights matrix where the library is writable by everyone (used to contrast
/// rule 4 against rule 4′).
pub fn writable_library_authz() -> Authorization {
    Authorization::allow_all()
}

/// Builds a transaction manager over a fresh cells store.
pub fn cells_manager(cfg: &CellsConfig, protocol: ProtocolKind) -> Arc<TransactionManager> {
    Arc::new(TransactionManager::over_store(build_cells_store(cfg), standard_authz(), protocol))
}

/// Builds a manager with a writable effectors library.
pub fn cells_manager_writable(cfg: &CellsConfig, protocol: ProtocolKind) -> Arc<TransactionManager> {
    Arc::new(TransactionManager::over_store(
        build_cells_store(cfg),
        writable_library_authz(),
        protocol,
    ))
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Checks one harness's trace window: lints it against the §4.4.2 rules and
/// certifies it conflict-serializable, panicking with the rendered timeline
/// on either failure. A certification failure first saves the trace to the
/// temp dir for `colock_check --certify <file>`.
pub fn check_trace(label: &str, catalog: &Catalog, events: &[Event]) -> (LintReport, CertifyReport) {
    let lint = Linter::with_catalog(catalog).lint(events);
    assert!(lint.is_clean(), "{label}: protocol violations:\n{}", lint.render_with_context(events));
    let cert = Certifier::new().certify(events);
    if !cert.is_clean() {
        let path = std::env::temp_dir().join("colock_certify_fail.trace");
        let lines: String = events.iter().map(|e| format!("{}\n", e.to_line())).collect();
        let saved = std::fs::write(&path, lines).map(|_| path.display().to_string());
        panic!(
            "{label}: not conflict-serializable (trace saved: {saved:?}):\n{}",
            cert.render_with_context(events)
        );
    }
    (lint, cert)
}

/// Runs the built-in contention demo shared by `trace_explain` and
/// `colock_check --self-test`: two well-behaved transactions (a reader and
/// an updater) followed by a forced two-transaction deadlock — two threads
/// X-lock whole cells in opposite order with a barrier between first and
/// second acquisition, so the second requests close a waits-for cycle and
/// the detector must abort one of them.
///
/// Enables tracing and returns exactly the events this demo produced.
pub fn contention_demo() -> Vec<colock_trace::Event> {
    use colock_core::{AccessMode, InstanceTarget};
    use colock_txn::TxnKind;
    use std::sync::Barrier;

    colock_trace::enable();
    let mark = colock_trace::current_seq();

    let cfg = CellsConfig { n_cells: 2, c_objects_per_cell: 4, ..Default::default() };
    let mgr = cells_manager(&cfg, ProtocolKind::Proposed);

    let reader = mgr.begin(TxnKind::Short);
    reader
        .lock(&InstanceTarget::object("cells", "c1").elem("robots", "r1"), AccessMode::Read)
        .expect("read lock");
    reader.commit().expect("commit");
    let writer = mgr.begin(TxnKind::Short);
    writer
        .lock(&InstanceTarget::object("cells", "c2"), AccessMode::Update)
        .expect("update lock");
    writer.commit().expect("commit");

    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for (mine, theirs) in [("c1", "c2"), ("c2", "c1")] {
            let mgr = &mgr;
            let barrier = &barrier;
            scope.spawn(move || {
                let txn = mgr.begin(TxnKind::Short);
                txn.lock(&InstanceTarget::object("cells", mine), AccessMode::Update)
                    .expect("first lock is uncontended");
                barrier.wait();
                match txn.lock(&InstanceTarget::object("cells", theirs), AccessMode::Update) {
                    Ok(_) => txn.commit().expect("commit"),
                    Err(e) if e.is_deadlock() => txn.abort().expect("abort"),
                    Err(e) => panic!("unexpected lock failure: {e}"),
                }
            });
        }
    });

    colock_trace::events_since(mark)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_authz_locks_down_effectors() {
        let a = standard_authz();
        assert!(!a.can_modify(colock_lockmgr::TxnId(1), "effectors"));
        assert!(a.can_modify(colock_lockmgr::TxnId(1), "cells"));
    }

    #[test]
    fn managers_construct() {
        let cfg = CellsConfig { n_cells: 1, c_objects_per_cell: 2, ..Default::default() };
        let m = cells_manager(&cfg, ProtocolKind::Proposed);
        assert_eq!(m.store().len("cells").unwrap(), 1);
    }
}
