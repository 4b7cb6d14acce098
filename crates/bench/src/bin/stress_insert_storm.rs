//! Stress harness: the hot-HoLU insert storm — the acceptance workload of
//! the semantic commutativity modes.
//!
//! Every round, `WORKERS` writer threads each run `INSERTS` short
//! transactions that insert one *distinct* robot into the same set-valued
//! HoLU (`cells/c1.robots`). With the semantic modes on (the default), each
//! inserter announces `Insert` on the container and X on only its own
//! element, so the whole storm commutes in the lock table; with them off
//! (every third round: 1, 4, 7, …) every insert X-locks the container and
//! the storm fully serializes. Every configuration must be *correct*
//! — the round asserts every inserted element is present exactly once, no
//! transaction survives, and the summary words still re-derive — the
//! difference is purely concurrency (measured in E5's scaling table).
//!
//! The entire round's trace is linted against the §4.4.2 rules (the linter
//! knows the semantic modes' parent-intent rules) and certified.
//!
//! Runs `COLOCK_STRESS_ROUNDS` rounds (default 100000 — effectively until
//! interrupted; CI sets a small bound) in [`colock_bench::soak`]'s loop,
//! with its 8-second stall watchdog.

use colock_bench::{cells_manager, soak};
use colock_core::InstanceTarget;
use colock_nf2::value::build::{set, tup};
use colock_nf2::Value;
use colock_sim::CellsConfig;
use colock_txn::{ProtocolKind, TxnKind};

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
    let cells = CellsConfig {
        n_cells: 1,
        c_objects_per_cell: 4,
        robots_per_cell: 2,
        n_effectors: 4,
        effectors_per_robot: 1,
        ..Default::default()
    };
    soak(
        |round| {
            let mgr = cells_manager(&cells, ProtocolKind::Proposed);
            mgr.set_semantic(round % 3 != 1);
            mgr
        },
        |round, mgr| {
            let container = InstanceTarget::object("cells", "c1").attr("robots");
            let started = std::time::Instant::now();
            std::thread::scope(|scope| {
                for w in 0..WORKERS {
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
            let ablation = if mgr.semantic_enabled() { "defaults" } else { "semantic off" };
            format!(
                "({ablation}): {} inserts in {:.1}ms ({:.0}/s)",
                WORKERS * INSERTS,
                elapsed.as_secs_f64() * 1000.0,
                (WORKERS * INSERTS) as f64 / elapsed.as_secs_f64(),
            )
        },
    );
    println!("stress_insert_storm: ok");
}
