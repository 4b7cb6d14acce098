//! Read-mostly stress harness for the multiversion overlay: varied-seed
//! rounds of the threaded driver with a large read-only fraction racing the
//! engineering mix's checkouts and updates. Every round's trace is linted
//! (including the snapshot rules) and certified. Every fifth round (1, 6,
//! 11, …) runs the MVCC-off ablation: readers fall back to S locks and must
//! still complete, now through the lock table. Runs `COLOCK_STRESS_ROUNDS`
//! rounds (default 100000 — effectively until interrupted; CI sets a small
//! bound) in [`colock_bench::soak`]'s loop, with its 8-second stall
//! watchdog.

use colock_bench::{cells_manager, soak};
use colock_sim::{run_threads, CellsConfig, QueryMix, ThreadConfig};
use colock_txn::ProtocolKind;

fn main() {
    let cells = CellsConfig {
        n_cells: 4, c_objects_per_cell: 40, robots_per_cell: 4,
        n_effectors: 6, effectors_per_robot: 2, ..Default::default()
    };
    soak(
        |round| {
            let mgr = cells_manager(&cells, ProtocolKind::Proposed);
            mgr.set_mvcc(round % 5 != 1);
            mgr
        },
        |round, mgr| {
            let cfg = ThreadConfig {
                workers: 4, txns_per_worker: 8, ops_per_txn: 3,
                mix: QueryMix::engineering(), seed: round, cells,
                readonly_pct: 70,
            };
            let r = run_threads(mgr, &cfg);
            let stats = mgr.lock_manager().stats().snapshot();
            // Overlay invariants, per round: with MVCC on, every snapshot read
            // bypassed the lock table (and at 70% read-only some must exist);
            // with the ablation nothing is ever elided. Either way the table
            // drains to empty and chains stay GC-bounded.
            let mvcc = mgr.mvcc_enabled();
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
            format!(
                "(mvcc {}): committed={} deadlocks={} elided={} pruned={}",
                if mvcc { "on" } else { "off" },
                r.metrics.committed, r.metrics.deadlock_aborts,
                stats.reads_elided, mgr.store().versions_pruned()
            )
        },
    );
}
