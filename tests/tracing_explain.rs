//! Full-stack observability check: with tracing on, a threaded contended run
//! must yield a non-empty trace-explain timeline for every committed
//! transaction, and the wait histograms in the metrics must account for the
//! run's waits.

use colock::sim::{run_threads, CellsConfig, QueryMix, ThreadConfig};
use colock::trace::explain::{render_timeline, timeline};
use colock::trace::{EventKind, TraceBuffer};
use colock::txn::{ProtocolKind, TransactionManager};
use std::sync::Arc;

fn standard_authz() -> colock::core::Authorization {
    let mut a = colock::core::Authorization::allow_all();
    a.set_relation_default("effectors", colock::core::authorization::Right::Read);
    a
}

#[test]
fn every_committed_txn_has_a_nonempty_timeline() {
    let cells = CellsConfig { n_cells: 2, c_objects_per_cell: 8, ..Default::default() };
    let store = colock::sim::build_cells_store(&cells);
    let mgr = Arc::new(TransactionManager::over_store(
        store,
        standard_authz(),
        ProtocolKind::Proposed,
    ));
    let trace = Arc::new(TraceBuffer::with_capacity(1 << 14));
    trace.enable();
    mgr.attach_trace(Arc::clone(&trace));
    let cfg = ThreadConfig {
        workers: 4,
        txns_per_worker: 5,
        ops_per_txn: 3,
        mix: QueryMix::update_heavy(),
        seed: 7,
        cells,
        readonly_pct: 0,
    };
    let report = run_threads(&mgr, &cfg);
    assert_eq!(report.metrics.committed, 20);

    let events = trace.events_since(0).unwrap();
    let lines = timeline(&events);

    // Every transaction that committed has a timeline, and it explains more
    // than the bare begin/commit bracket (locks were taken and annotated).
    let committed: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::TxnCommit)
        .map(|e| e.txn)
        .collect();
    assert_eq!(committed.len() as u64, report.metrics.committed);
    for txn in &committed {
        let tl = lines.get(txn).unwrap_or_else(|| panic!("no timeline for committed txn {txn}"));
        assert!(tl.len() > 2, "timeline of txn {txn} is trivial: {tl:?}");
    }

    // The rendering names every committed transaction.
    let rendered = render_timeline(&lines);
    for txn in &committed {
        assert!(rendered.contains(&format!("== txn {txn} ==")), "txn {txn} missing");
    }

    // If anything waited, the per-resource histograms saw it too.
    let waits = events.iter().filter(|e| e.kind == EventKind::Wait).count();
    let histogram_total = report.metrics.total_wait_hist().count();
    assert!(
        histogram_total as usize <= waits,
        "histograms ({histogram_total}) cannot exceed raw waits ({waits})"
    );
    if waits > 0 {
        // Grants always follow waits in this run (nobody times out), so at
        // least the waits of committed transactions resolve into buckets.
        assert!(histogram_total > 0, "waits occurred but no histogram entries");
    }
}
