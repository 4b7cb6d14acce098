//! E8 (extension) — de-escalation: "the efficient release of locks
//! ('de-escalation')" is listed in §5 as future work; we implement and
//! measure it. A transaction holding a coarse subtree lock trades it for
//! element locks on just the data it still needs, un-blocking waiters for
//! the rest of the subtree.

use colock_bench::cells_manager;
use colock_core::optimizer::Optimizer;
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

    // Part 2: *when* to de-escalate, decided adaptively. The static policy
    // never trades its coarse lock back; the adaptive one watches the PR 3
    // wait histograms of the resource it holds and de-escalates once the
    // measured tail is hot (Optimizer::deescalation_advised).
    println!("\nadaptive de-escalation from measured waits (Optimizer::deescalation_advised):");
    colock_trace::enable();
    let n_robots = 8usize;
    let cfg = CellsConfig {
        n_cells: 1,
        robots_per_cell: n_robots,
        c_objects_per_cell: 5,
        ..Default::default()
    };

    // Observation window: a coarse holder makes 8 rival element-updaters
    // queue ~8ms each, then commits — the resolved waits land in the trace.
    let mark = colock_trace::current_seq();
    {
        let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
        let robots = InstanceTarget::object("cells", "c1").attr("robots");
        let holder = mgr.begin(TxnKind::Short);
        holder.lock(&robots, AccessMode::Read).unwrap();
        std::thread::scope(|scope| {
            for r in 1..=8usize {
                let mgr = &mgr;
                scope.spawn(move || {
                    let rival = mgr.begin(TxnKind::Short);
                    let t = InstanceTarget::object("cells", "c1").elem("robots", format!("r{r}"));
                    rival.lock(&t, AccessMode::Update).unwrap();
                    rival.commit().unwrap();
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(8));
            holder.commit().unwrap();
        });
    }
    let mut measured = colock_trace::WaitHistogram::default();
    for (_, h) in colock_trace::wait_histograms(&colock_trace::events_since(mark)) {
        measured.merge(&h);
    }
    let quiet = colock_trace::WaitHistogram::default();

    let mut t2 = Table::new(&["policy", "waits seen", "p99 (us)", "advised", "robots free while held"]);
    for (policy, hist) in [("static", &quiet), ("adaptive", &measured)] {
        let advised = Optimizer::deescalation_advised(hist);
        let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
        let robots = InstanceTarget::object("cells", "c1").attr("robots");
        let holder = mgr.begin(TxnKind::Short);
        holder.lock(&robots, AccessMode::Read).unwrap();
        if advised {
            let keep = [InstanceTarget::object("cells", "c1").elem("robots", "r1")];
            let cx =
                LockCtx::new(mgr.lock_manager(), holder.id(), &**mgr.store(), mgr.authorization());
            mgr.engine().deescalate(&cx, &robots, &keep).unwrap();
        }
        let free = count_free_robots(&mgr, n_robots);
        holder.commit().unwrap();
        t2.row(vec![
            policy.to_string(),
            hist.count().to_string(),
            hist.quantile_us(0.99).to_string(),
            advised.to_string(),
            free.to_string(),
        ]);
    }
    print!("{}", t2.render());
    println!();
    println!("expected shape: the static policy holds its subtree lock to commit (0");
    println!("robots free); the adaptive one reads the measured hot tail, trades the");
    println!("coarse lock for the one element it still needs, and frees the rest.");
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
