#![forbid(unsafe_code)]
//! Shared experiment machinery for the paper's figures and claims
//! ([`paper`]), the experiment binaries and the benches. Every table they
//! print is recorded (paper statement vs measured shape) in
//! `EXPERIMENTS.md`.

use colock_core::authorization::{Authorization, Right};
use colock_sim::{build_cells_store, CellsConfig};
use colock_trace::{Event, TraceBuffer};
use colock_txn::{ProtocolKind, TransactionManager};
use std::sync::Arc;

pub mod paper;

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

/// Runs the built-in contention demo of `colock_check`: two well-behaved
/// transactions (a reader and an updater) followed by a forced
/// two-transaction deadlock — two transactions X-lock one whole cell each,
/// then two threads request the other's cell, so the second requests close
/// a waits-for cycle and the detector must abort one of them.
///
/// The demo's manager traces into a buffer of its own, so the result is
/// exactly the demo's events and the waits-for DOTs its detector exported,
/// whatever else the process traces meanwhile.
pub fn contention_demo() -> (Vec<Event>, Vec<String>) {
    use colock_core::{AccessMode, InstanceTarget};
    use colock_txn::TxnKind;

    let cfg = CellsConfig { n_cells: 2, c_objects_per_cell: 4, ..Default::default() };
    let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
    let trace = Arc::new(TraceBuffer::with_capacity(1 << 12));
    trace.enable();
    mgr.attach_trace(Arc::clone(&trace));

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

    // Each of two transactions X-locks one cell, then each asks for the
    // other's on a thread of its own. A first lock that is not granted at
    // once fails the demo rather than leaving a thread waiting forever.
    let first = |cell| {
        let txn = mgr.begin(TxnKind::Short);
        txn.try_lock(&InstanceTarget::object("cells", cell), AccessMode::Update)
            .expect("first lock is uncontended");
        txn
    };
    let crossed = [(first("c1"), "c2"), (first("c2"), "c1")];
    std::thread::scope(|scope| {
        for (txn, theirs) in crossed {
            scope.spawn(move || {
                match txn.lock(&InstanceTarget::object("cells", theirs), AccessMode::Update) {
                    Ok(_) => txn.commit().expect("commit"),
                    Err(e) if e.is_deadlock() => txn.abort().expect("abort"),
                    Err(e) => panic!("unexpected lock failure: {e}"),
                }
            });
        }
    });

    (trace.events_since(0).expect("the demo fits the buffer"), trace.deadlock_dots())
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
