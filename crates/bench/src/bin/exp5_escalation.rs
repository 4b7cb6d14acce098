//! E5 — anticipation of lock escalations (§4.5, \[HDKS89\]).
//!
//! Two updaters each touch many c_objects of the *same* cell. The
//! *anticipating* optimizer requests one subtree X lock up front (the second
//! updater waits; no deadlock). The *reactive* strategy takes element locks
//! one by one and escalates when the count crosses θ — two interleaved
//! escalators deadlock, one aborts. Also: lock-request counts per strategy
//! as the accessed fraction grows.

use colock_bench::cells_manager;
use colock_core::optimizer::Optimizer;
use colock_core::{AccessMode, InstanceTarget, LockCtx};
use colock_lockmgr::LockMode;
use colock_sim::metrics::Table;
use colock_sim::CellsConfig;
use colock_txn::{ProtocolKind, TxnKind};

fn main() {
    println!("E5 — anticipated vs reactive lock escalation\n");

    // Part 1: lock-request counts for one reader of k elements, θ = 16.
    let mut t1 = Table::new(&["elements", "strategy", "locks", "escalations"]);
    for k in [4usize, 16, 64, 256] {
        let cfg = CellsConfig { n_cells: 1, c_objects_per_cell: 256, ..Default::default() };
        // Anticipating: the optimizer turns k >= θ (or >= half the set) into
        // one subtree lock.
        let opt = Optimizer::new(16.0);
        let plan = opt.plan(
            mgr_catalog(&cfg),
            &[colock_core::optimizer::AccessEstimate {
                relation: "cells".into(),
                path: colock_nf2::AttrPath::parse("c_objects"),
                access: AccessMode::Read,
                objects_expected: 1.0,
                elems_expected: k as f64,
            }],
        );
        let anticipated_locks = match plan.locks[0].granularity {
            colock_core::optimizer::Granularity::Subtree
            | colock_core::optimizer::Granularity::Relation
            | colock_core::optimizer::Granularity::Object => 1usize,
            colock_core::optimizer::Granularity::Elements => k,
        };
        t1.row(vec![
            k.to_string(),
            "anticipated".to_string(),
            // +4 for the intent chain db/seg/rel/obj.
            (anticipated_locks + 4).to_string(),
            plan.anticipated_escalations.to_string(),
        ]);

        // Reactive: element locks, then an escalation once k crosses θ.
        let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
        let t = mgr.begin(TxnKind::Short);
        let mut locks = 0usize;
        let mut escalations = 0u64;
        for i in 0..k.min(16) {
            let target = InstanceTarget::object("cells", "c1")
                .elem("c_objects", format!("c1-o{i}"));
            locks += t.lock(&target, AccessMode::Read).unwrap().lock_count();
        }
        if k > 16 {
            // Escalate: coarse lock + release of the element locks.
            let coarse = InstanceTarget::object("cells", "c1").attr("c_objects");
            let cx = LockCtx::new(mgr.lock_manager(), t.id(), &**mgr.store(), mgr.authorization());
            let (report, released) = mgr.engine().escalate(&cx, &coarse, LockMode::S).unwrap();
            locks += report.lock_count() + released; // work done, then undone
            escalations += 1;
        }
        t.commit().unwrap();
        t1.row(vec![k.to_string(), "reactive".to_string(), locks.to_string(), escalations.to_string()]);
    }
    print!("{}", t1.render());

    // Part 2: deadlock behaviour of two concurrent updaters of one cell.
    println!("\ntwo concurrent whole-set updaters of the same cell:");
    let mut t2 = Table::new(&["strategy", "deadlocks", "both finished"]);
    // Anticipated: both request the subtree X up front; pure queueing.
    {
        let cfg = CellsConfig { n_cells: 1, c_objects_per_cell: 32, ..Default::default() };
        let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
        let a = mgr.begin(TxnKind::Short);
        let coarse = InstanceTarget::object("cells", "c1").attr("c_objects");
        a.lock(&coarse, AccessMode::Update).unwrap();
        let b = mgr.begin(TxnKind::Short);
        let blocked = b.try_lock(&coarse, AccessMode::Update).is_err();
        a.commit().unwrap();
        let ok = b.lock(&coarse, AccessMode::Update).is_ok();
        b.commit().unwrap();
        t2.row(vec![
            "anticipated".into(),
            "0".into(),
            format!("{} (second waited: {})", ok, blocked),
        ]);
    }
    // Reactive: both take element locks from opposite ends, then escalate →
    // upgrade deadlock; the younger aborts.
    {
        let cfg = CellsConfig { n_cells: 1, c_objects_per_cell: 32, ..Default::default() };
        let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
        let a = mgr.begin(TxnKind::Short);
        let b = mgr.begin(TxnKind::Short);
        for i in 0..8 {
            a.lock(
                &InstanceTarget::object("cells", "c1").elem("c_objects", format!("c1-o{i}")),
                AccessMode::Update,
            )
            .unwrap();
            b.lock(
                &InstanceTarget::object("cells", "c1").elem("c_objects", format!("c1-o{}", 31 - i)),
                AccessMode::Update,
            )
            .unwrap();
        }
        let coarse = InstanceTarget::object("cells", "c1").attr("c_objects");
        // Both now escalate; A blocks on B's elements, B's attempt closes the
        // cycle and B (younger) is chosen as the victim.
        let a_res = a.try_lock(&coarse, AccessMode::Update);
        let b_res = b.try_lock(&coarse, AccessMode::Update);
        let conflicted = a_res.is_err() && b_res.is_err();
        b.abort().unwrap();
        let a_after = a.lock(&coarse, AccessMode::Update).is_ok();
        a.commit().unwrap();
        t2.row(vec![
            "reactive".into(),
            if conflicted { "1 (cross-blocked; victim aborted)" } else { "0" }.into(),
            a_after.to_string(),
        ]);
    }
    print!("{}", t2.render());
    println!();
    println!("expected shape (paper): anticipation avoids run-time escalations and");
    println!("their deadlocks — 'lock escalations … cause immense run-time overhead,");
    println!("and increase highly the probability for deadlocks' (§4.5).");

    // Part 3: the hot-HoLU insert storm — semantic Insert modes vs the
    // classical protocol. N writers insert distinct robots into ONE
    // set-valued HoLU; classically each insert X-locks the container and
    // the storm serializes, with the semantic modes the inserters commute.
    println!("\nhot-HoLU insert storm (distinct-element inserts into one set):");
    let mut t3 =
        Table::new(&["writers", "mode", "committed", "txns/s", "vs 1 writer", "lock waits"]);
    let mut baselines: [f64; 2] = [0.0, 0.0];
    for &writers in &[1usize, 2, 4, 8] {
        for (mi, (label, semantic)) in
            [("semantic", true), ("classical", false)].into_iter().enumerate()
        {
            let cfg = CellsConfig {
                n_cells: 1, c_objects_per_cell: 4, robots_per_cell: 2,
                n_effectors: 4, effectors_per_robot: 1, ..Default::default()
            };
            let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
            mgr.set_semantic(semantic);
            let per_worker = 200usize;
            let container = InstanceTarget::object("cells", "c1").attr("robots");
            let started = std::time::Instant::now();
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let mgr = &mgr;
                    let container = &container;
                    scope.spawn(move || {
                        for i in 0..per_worker {
                            let t = mgr.begin(TxnKind::Short);
                            t.insert_element(container, storm_robot(w, i)).unwrap();
                            t.commit().unwrap();
                        }
                    });
                }
            });
            let committed = writers * per_worker;
            let rate = committed as f64 / started.elapsed().as_secs_f64();
            if writers == 1 {
                baselines[mi] = rate;
            }
            t3.row(vec![
                writers.to_string(),
                label.to_string(),
                committed.to_string(),
                format!("{rate:.0}"),
                format!("{:.2}x", rate / baselines[mi]),
                mgr.lock_manager().stats().snapshot().waits.to_string(),
            ]);
        }
    }
    print!("{}", t3.render());
    println!();
    println!("expected shape: semantic Insert modes never block — the `lock waits`");
    println!("column stays 0 however many writers pile on, so on a multi-core host");
    println!("committed txns/s grows near-linearly with the writer count.");
    println!("Classically every insert X-locks the container: each added writer");
    println!("queues (one wait per insert beyond the first in flight) and the");
    println!("storm is fully serialized. On a single-core host the waits column");
    println!("is the machine-independent signal; wall-clock speedup is bounded");
    println!("at 1x there regardless of locking.");
    println!("this host: {} core(s).", std::thread::available_parallelism().map_or(1, |n| n.get()));

}

fn storm_robot(worker: usize, i: usize) -> colock_nf2::Value {
    use colock_nf2::value::build::{set, tup};
    use colock_nf2::Value;
    tup(vec![
        ("robot_id", Value::str(format!("w{worker}-i{i}"))),
        ("trajectory", Value::str(format!("storm-{worker}-{i}"))),
        ("effectors", set(Vec::new())),
    ])
}

fn mgr_catalog(cfg: &CellsConfig) -> &'static colock_nf2::Catalog {
    // Build once and leak: the optimizer only needs cardinalities.
    let store = colock_sim::build_cells_store(cfg);
    let catalog = (**store.catalog()).clone();
    Box::leak(Box::new(catalog))
}
