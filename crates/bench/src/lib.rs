#![forbid(unsafe_code)]
//! Shared experiment machinery for the paper's figures and claims
//! ([`paper`]), the experiment and stress binaries and the benches. Every
//! table they print is recorded (paper statement vs measured shape) in
//! `EXPERIMENTS.md`.

use colock_check::{CertifyReport, LintReport};
use colock_core::authorization::{Authorization, Right};
use colock_nf2::Catalog;
use colock_sim::{build_cells_store, CellsConfig};
use colock_trace::{Event, TraceBuffer};
use colock_txn::{ProtocolKind, TransactionManager};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

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

/// Reads the events `trace` recorded since `mark`, then lints and
/// certifies them ([`colock_check::verify_trace`]); panics naming `label`
/// with the offending timelines, or when the buffer overwrote the window.
pub fn verify_window(
    label: &str,
    catalog: &Catalog,
    trace: &TraceBuffer,
    mark: u64,
) -> (LintReport, CertifyReport) {
    let events = trace.events_since(mark).unwrap_or_else(|e| panic!("{label}: {e}"));
    colock_check::verify_trace(catalog, &events).unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// Rounds a soak harness runs: `COLOCK_STRESS_ROUNDS`, default 100 000 —
/// effectively until interrupted (the gate sets a small bound).
pub fn stress_rounds() -> u64 {
    std::env::var("COLOCK_STRESS_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000)
}

/// A round that runs longer than this is reported as a stall.
const STALL: Duration = Duration::from_secs(8);

/// The soak loop of the stress harnesses, with tracing on. Each of
/// [`stress_rounds`] rounds builds its manager with `setup(round)`, turns
/// its trace buffer on, runs `run(round, &mgr)` (the round's work and its
/// invariants, returning the line to print) and then lints and certifies
/// the manager's trace window.
/// A watchdog thread prints the lock table of a round still running after
/// 8 s, twice, 2 s apart, and parks the process for inspection.
pub fn soak(
    mut setup: impl FnMut(u64) -> Arc<TransactionManager>,
    mut run: impl FnMut(u64, &Arc<TransactionManager>) -> String,
) {
    // The running round, its start, and its manager.
    let watched = Arc::new(Mutex::new((0, Instant::now(), None::<Arc<TransactionManager>>)));
    let watchdog = Arc::clone(&watched);
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_secs(1));
        let (round, mgr) = match &*watchdog.lock().unwrap_or_else(PoisonError::into_inner) {
            (round, since, Some(mgr)) if since.elapsed() > STALL => (*round, Arc::clone(mgr)),
            _ => continue,
        };
        for dump in 1..=2 {
            eprintln!("=== STALL at round {round} (dump {dump}) ===");
            eprintln!("{}", mgr.lock_manager().debug_dump());
            std::thread::sleep(Duration::from_secs(2));
        }
        eprintln!("=== parked for inspection (pid {}) ===", std::process::id());
        loop {
            std::thread::sleep(Duration::from_secs(60));
        }
    });
    for round in 0..stress_rounds() {
        let mgr = setup(round);
        *watched.lock().unwrap_or_else(PoisonError::into_inner) =
            (round, Instant::now(), Some(Arc::clone(&mgr)));
        mgr.trace().enable();
        let mark = mgr.trace().next_seq();
        let line = run(round, &mgr);
        let label = format!("round {round}");
        verify_window(&label, mgr.store().catalog(), mgr.trace(), mark);
        println!("{label} {line}");
    }
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
