//! Stress harness: hammers the multithreaded driver with varied-seed
//! engineering-mix workloads and watchdogs every round — the tool that
//! exposed the lock manager's lost-grant and invisible-positional-block
//! bugs (see DESIGN.md §5). Every round's trace is linted and certified.
//! Ablation by round number: every fifth round (1, 6, 11, …) runs with the
//! fast path off. Runs `COLOCK_STRESS_ROUNDS` rounds (default 100000 —
//! effectively until interrupted; CI sets a small bound); prints a
//! lock-table dump and parks if any round stalls for more than 8 seconds.

use colock_bench::{cells_manager, check_trace};
use colock_sim::{run_threads, CellsConfig, QueryMix, ThreadConfig};
use colock_txn::ProtocolKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    colock_trace::enable();
    let cells = CellsConfig {
        n_cells: 4, c_objects_per_cell: 40, robots_per_cell: 4,
        n_effectors: 6, effectors_per_robot: 2, ..Default::default()
    };
    let rounds: u64 = std::env::var("COLOCK_STRESS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100000);
    let round_counter = Arc::new(AtomicU64::new(0));
    for round in 0..rounds {
        round_counter.store(round, Ordering::Relaxed);
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        let ablation = if round % 5 == 1 {
            mgr.lock_manager().set_fastpath(false);
            "fastpath off"
        } else {
            "defaults"
        };
        let cfg = ThreadConfig {
            workers: 4, txns_per_worker: 8, ops_per_txn: 3,
            mix: QueryMix::engineering(), seed: round, cells,
            readonly_pct: 0,
        };
        // Watchdog: if this round takes >8s, dump the lock table and abort.
        let mgr2 = Arc::clone(&mgr);
        let rc = Arc::clone(&round_counter);
        let watchdog = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(8));
            if rc.load(Ordering::Relaxed) == round {
                eprintln!("=== STALL at round {round} (dump 1) ===");
                eprintln!("{}", mgr2.lock_manager().debug_dump());
                std::thread::sleep(std::time::Duration::from_secs(2));
                eprintln!("=== STALL at round {round} (dump 2) ===");
                eprintln!("{}", mgr2.lock_manager().debug_dump());
                eprintln!("=== parked for inspection (pid {}) ===", std::process::id());
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(60));
                }
            }
        });
        let mark = colock_trace::current_seq();
        let r = run_threads(&mgr, &cfg);
        drop(watchdog);
        let events = colock_trace::events_since(mark);
        check_trace(&format!("round {round}"), mgr.store().catalog(), &events);
        // Fast-path bookkeeping must balance every round: each gate entry is
        // exactly one CAS publication or one shard-mutex fallback, and the
        // summary words must re-derive from the (now quiescent) shard maps.
        let stats = mgr.lock_manager().stats().snapshot();
        assert_eq!(
            stats.fastpath_hits + stats.fastpath_fallbacks,
            stats.intent_acquires,
            "round {round}: fast-path gate identity broken: {stats:?}"
        );
        if let Err(e) = mgr.lock_manager().check_summary_consistency() {
            panic!("round {round}: summary words inconsistent: {e}");
        }
        println!(
            "round {round} ({ablation}): committed={} deadlocks={} fastpath={}/{}",
            r.metrics.committed, r.metrics.deadlock_aborts,
            stats.fastpath_hits, stats.intent_acquires
        );
    }
}
