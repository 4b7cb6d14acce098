//! Stress harness: the hot-HoLU insert storm — the acceptance workload of
//! the semantic commutativity modes.
//!
//! Every round, `WORKERS` writer threads each run `INSERTS` short
//! transactions that insert one *distinct* robot into the same set-valued
//! HoLU (`cells/c1.robots`). With the semantic modes on (the default), each
//! inserter announces `Insert` on the container and X on only its own
//! element, so the whole storm commutes in the lock table; with them off
//! (every fourth round: 1, 5, 9, …) every insert X-locks the container and
//! the storm fully serializes. Every fourth round (3, 7, 11, …) runs with
//! the adaptive contention policy on. Every configuration must be *correct*
//! — the round asserts every inserted element is present exactly once, no
//! transaction survives, and the summary words still re-derive — the
//! difference is purely concurrency (measured in E5's scaling table).
//!
//! The entire round's trace is linted against the §4.4.2 rules (the linter
//! knows the semantic modes' parent-intent rules) and certified.
//!
//! Runs `COLOCK_STRESS_ROUNDS` rounds (default 100000 — effectively until
//! interrupted; CI sets a small bound) with a stall watchdog like
//! `stress_lockmgr`.

use colock_bench::{cells_manager, check_trace};
use colock_core::InstanceTarget;
use colock_nf2::value::build::{set, tup};
use colock_nf2::Value;
use colock_sim::CellsConfig;
use colock_txn::{ProtocolKind, TxnKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Writer threads per round.
const WORKERS: usize = 4;
/// Inserts per writer per round into the one hot container.
const INSERTS: usize = 16;

fn robot(worker: usize, i: usize) -> Value {
    tup(vec![
        ("robot_id", Value::str(format!("w{worker}-i{i}"))),
        ("trajectory", Value::str(format!("storm-{worker}-{i}"))),
        ("effectors", set(Vec::new())),
    ])
}

fn main() {
    colock_trace::enable();
    let rounds: u64 =
        std::env::var("COLOCK_STRESS_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(100000);
    let cells = CellsConfig {
        n_cells: 1,
        c_objects_per_cell: 4,
        robots_per_cell: 2,
        n_effectors: 4,
        effectors_per_robot: 1,
        ..Default::default()
    };
    let round_counter = Arc::new(AtomicU64::new(0));
    for round in 0..rounds {
        round_counter.store(round, Ordering::Relaxed);
        let mark = colock_trace::current_seq();
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        let ablation = match round % 4 {
            1 => {
                mgr.set_semantic(false);
                "semantic off"
            }
            3 => {
                mgr.lock_manager().adaptive().enable();
                "adaptive on"
            }
            _ => "defaults",
        };

        // Watchdog: if this round takes >8s, dump the lock table and park.
        let mgr2 = Arc::clone(&mgr);
        let rc = Arc::clone(&round_counter);
        let watchdog = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(8));
            if rc.load(Ordering::Relaxed) == round {
                eprintln!("=== STALL at round {round} ===");
                eprintln!("{}", mgr2.lock_manager().debug_dump());
                eprintln!("=== parked for inspection (pid {}) ===", std::process::id());
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(60));
                }
            }
        });

        let container = InstanceTarget::object("cells", "c1").attr("robots");
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let mgr = &mgr;
                let container = &container;
                scope.spawn(move || {
                    for i in 0..INSERTS {
                        let t = mgr.begin(TxnKind::Short);
                        t.insert_element(container, robot(w, i))
                            .expect("storm insert must succeed");
                        t.commit().expect("storm commit must succeed");
                    }
                });
            }
        });
        let elapsed = started.elapsed();
        drop(watchdog);

        // Correctness, semantic or not: every element present exactly once.
        let t = mgr.begin(TxnKind::Short);
        let members = match t.read(&container).expect("read back the container") {
            Value::Set(es) | Value::List(es) => es,
            other => panic!("robots is not a collection: {other:?}"),
        };
        t.commit().expect("verify commit");
        let expected = cells.robots_per_cell + WORKERS * INSERTS;
        assert_eq!(members.len(), expected, "round {round}: lost or duplicated inserts");
        assert_eq!(mgr.active_count(), 0, "round {round}: transactions survived");
        if let Err(e) = mgr.lock_manager().check_summary_consistency() {
            panic!("round {round}: summary words inconsistent: {e}");
        }

        let events = colock_trace::events_since(mark);
        check_trace(&format!("round {round}"), mgr.store().catalog(), &events);
        println!(
            "round {round} ({ablation}): {} inserts in {:.1}ms ({:.0}/s)",
            WORKERS * INSERTS,
            elapsed.as_secs_f64() * 1000.0,
            (WORKERS * INSERTS) as f64 / elapsed.as_secs_f64(),
        );
    }
    println!("stress_insert_storm: ok");
}
