//! E8 (extension) — de-escalation: "the efficient release of locks
//! ('de-escalation')" is listed in §5 as future work; we implement and
//! measure it. A transaction holding a coarse subtree lock trades it for
//! element locks on just the data it still needs, un-blocking waiters for
//! the rest of the subtree.

use colock_bench::cells_manager;
use colock_core::{AccessMode, InstanceTarget, LockCtx};
use colock_sim::metrics::Table;
use colock_sim::CellsConfig;
use colock_txn::{ProtocolKind, TxnKind};

fn main() {
    println!("E8 — de-escalation (paper future work, implemented)\n");
    let mut table = Table::new(&[
        "robots", "kept", "others unblocked before", "others unblocked after",
    ]);
    for n_robots in [4usize, 8, 16] {
        let cfg = CellsConfig {
            n_cells: 1,
            robots_per_cell: n_robots,
            c_objects_per_cell: 5,
            ..Default::default()
        };
        let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
        let holder = mgr.begin(TxnKind::Short);
        let robots = InstanceTarget::object("cells", "c1").attr("robots");
        holder.lock(&robots, AccessMode::Read).unwrap();

        // Before de-escalation: every robot is blocked for updaters.
        let unblocked_before = count_free_robots(&mgr, n_robots);

        // De-escalate: keep only robot r1.
        let keep = [InstanceTarget::object("cells", "c1").elem("robots", "r1")];
        let cx = LockCtx::new(mgr.lock_manager(), holder.id(), &**mgr.store(), mgr.authorization());
        mgr.engine().deescalate(&cx, &robots, &keep).unwrap();
        let unblocked_after = count_free_robots(&mgr, n_robots);
        holder.commit().unwrap();

        table.row(vec![
            n_robots.to_string(),
            "1".to_string(),
            unblocked_before.to_string(),
            unblocked_after.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!("expected shape: before de-escalation 0 robots are updatable by other");
    println!("transactions; after it all but the kept one are — the coarse lock's");
    println!("concurrency cost is recovered without giving up the retained data.");

}

/// How many robots a second transaction could X-lock right now.
fn count_free_robots(mgr: &colock_txn::TransactionManager, n: usize) -> usize {
    let mut free = 0;
    for i in 0..n {
        let probe = mgr.begin(TxnKind::Short);
        let target = InstanceTarget::object("cells", "c1").elem("robots", format!("r{}", i + 1));
        if probe.try_lock(&target, AccessMode::Update).is_ok() {
            free += 1;
        }
        probe.abort().unwrap();
    }
    free
}
