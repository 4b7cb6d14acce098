//! Read-mostly stress harness for the multiversion overlay: varied-seed
//! rounds of the threaded driver with a large read-only fraction racing the
//! engineering mix's checkouts and updates. Every round's trace is linted
//! (including the snapshot rules) and certified. Every fifth round (1, 6,
//! 11, …) runs the MVCC-off ablation: readers fall back to S locks and must
//! still complete, now through the lock table. Runs `COLOCK_STRESS_ROUNDS`
//! rounds (default 100000 — effectively until interrupted; CI sets a small
//! bound) with the same 8-second stall watchdog as `stress_lockmgr`.

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
        let mvcc = round % 5 != 1;
        mgr.set_mvcc(mvcc);
        let cfg = ThreadConfig {
            workers: 4, txns_per_worker: 8, ops_per_txn: 3,
            mix: QueryMix::engineering(), seed: round, cells,
            readonly_pct: 70,
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
        let stats = mgr.lock_manager().stats().snapshot();
        // Overlay invariants, per round: with MVCC on, every snapshot read
        // bypassed the lock table (and at 70% read-only some must exist);
        // with the ablation nothing is ever elided. Either way the table
        // drains to empty and chains stay GC-bounded.
        if mvcc {
            assert!(
                stats.reads_elided > 0,
                "round {round}: no snapshot reads despite readonly_pct=70"
            );
            assert_eq!(
                r.metrics.reader_waits.count(),
                stats.reads_elided,
                "round {round}: reader histogram disagrees with reads_elided"
            );
        } else {
            assert_eq!(stats.reads_elided, 0, "round {round}: ablation elided a read");
        }
        assert_eq!(mgr.lock_manager().table_size(), 0, "round {round}: lock table not drained");
        println!(
            "round {round} (mvcc {}): committed={} deadlocks={} elided={} pruned={}",
            if mvcc { "on" } else { "off" },
            r.metrics.committed, r.metrics.deadlock_aborts,
            stats.reads_elided, mgr.store().versions_pruned()
        );
    }
}
