//! Stress harness: hammers the multithreaded driver with varied-seed
//! engineering-mix workloads and watchdogs every round — the tool that
//! exposed the lock manager's lost-grant and invisible-positional-block
//! bugs (see DESIGN.md §5). Every round's trace is linted and certified.
//! Ablation by round number: every fifth round (1, 6, 11, …) runs with the
//! fast path off. Runs `COLOCK_STRESS_ROUNDS` rounds in
//! [`colock_bench::soak`]'s loop (default 100000 — effectively until
//! interrupted; CI sets a small bound), which dumps the lock table and
//! parks if a round stalls for more than 8 seconds.

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
            mgr.lock_manager().set_fastpath(round % 5 != 1);
            mgr
        },
        |round, mgr| {
            let cfg = ThreadConfig {
                workers: 4, txns_per_worker: 8, ops_per_txn: 3,
                mix: QueryMix::engineering(), seed: round, cells,
                readonly_pct: 0,
            };
            let r = run_threads(mgr, &cfg);
            // Fast-path bookkeeping must balance every round: each gate entry
            // is exactly one CAS publication or one shard-mutex fallback, and
            // the summary words must re-derive from the (now quiescent) shard
            // maps.
            let stats = mgr.lock_manager().stats().snapshot();
            assert_eq!(
                stats.fastpath_hits + stats.fastpath_fallbacks,
                stats.intent_acquires,
                "round {round}: fast-path gate identity broken: {stats:?}"
            );
            if let Err(e) = mgr.lock_manager().check_summary_consistency() {
                panic!("round {round}: summary words inconsistent: {e}");
            }
            let ablation =
                if mgr.lock_manager().fastpath_enabled() { "defaults" } else { "fastpath off" };
            format!(
                "({ablation}): committed={} deadlocks={} fastpath={}/{}",
                r.metrics.committed, r.metrics.deadlock_aborts,
                stats.fastpath_hits, stats.intent_acquires
            )
        },
    );
}
