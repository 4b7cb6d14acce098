//! The hot-HoLU insert storm, the acceptance workload of the semantic
//! commutativity modes.
//!
//! Every round, `WORKERS` writer threads each run `INSERTS` short
//! transactions that insert one *distinct* robot into the same set-valued
//! HoLU (`cells/c1.robots`). With the semantic modes on (the default), each
//! inserter announces `Insert` on the container and X on only its own
//! element, so the storm commutes in the lock table; with them off (every
//! third round: 1, 4, 7, …) every insert X-locks the container and the
//! storm serializes. Both must be correct: every inserted element is present
//! exactly once, no transaction survives, the summary words re-derive, and
//! the round's trace lints against the §4.4.2 rules (the linter knows the
//! semantic modes' parent-intent rules) and certifies. The difference is
//! concurrency only (E5's scaling table).
//!
//! `COLOCK_STRESS_ROUNDS` sets the rounds (default 2); `scripts/check.sh`
//! runs 30 in release.

use colock_core::authorization::{Authorization, Right};
use colock_core::InstanceTarget;
use colock_nf2::value::build::{set, tup};
use colock_nf2::Value;
use colock_sim::{build_cells_store, CellsConfig};
use colock_testkit::{soak_round, stress_rounds};
use colock_trace::TraceBuffer;
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::Arc;
use std::time::Duration;

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

#[test]
fn hot_holu_insert_storm_keeps_every_insert() {
    let cells = CellsConfig {
        n_cells: 1,
        c_objects_per_cell: 4,
        robots_per_cell: 2,
        n_effectors: 4,
        effectors_per_robot: 1,
        ..Default::default()
    };
    let container = InstanceTarget::object("cells", "c1").attr("robots");
    for round in 0..stress_rounds(2) {
        let mut authz = Authorization::allow_all();
        authz.set_relation_default("effectors", Right::Read);
        let mgr = Arc::new(TransactionManager::over_store(
            build_cells_store(&cells),
            authz,
            ProtocolKind::Proposed,
        ));
        let trace = Arc::new(TraceBuffer::with_capacity(1 << 14));
        trace.enable();
        mgr.attach_trace(Arc::clone(&trace));
        mgr.set_semantic(round % 3 != 1);
        let label = format!(
            "round {round} ({})",
            if mgr.semantic_enabled() {
                "defaults"
            } else {
                "semantic off"
            }
        );

        let (storm, stalled, target) = (Arc::clone(&mgr), Arc::clone(&mgr), container.clone());
        soak_round(
            &label,
            Duration::from_secs(60),
            move || stalled.lock_manager().debug_dump(),
            move || {
                std::thread::scope(|scope| {
                    for w in 0..WORKERS {
                        let (mgr, target) = (&storm, &target);
                        scope.spawn(move || {
                            for i in 0..INSERTS {
                                let t = mgr.begin(TxnKind::Short);
                                t.insert_element(target, robot(w, i))
                                    .expect("storm insert must succeed");
                                t.commit().expect("storm commit must succeed");
                            }
                        });
                    }
                })
            },
        );

        // Correctness, semantic or not: every element present exactly once.
        let t = mgr.begin(TxnKind::Short);
        let members = match t.read(&container).expect("read back the container") {
            Value::Set(es) | Value::List(es) => es,
            other => panic!("robots is not a collection: {other:?}"),
        };
        t.commit().expect("verify commit");
        assert_eq!(
            members.len(),
            cells.robots_per_cell + WORKERS * INSERTS,
            "{label}: lost or duplicated inserts"
        );
        assert_eq!(mgr.active_count(), 0, "{label}: transactions survived");
        if let Err(e) = mgr.lock_manager().check_summary_consistency() {
            panic!("{label}: summary words inconsistent: {e}");
        }
        let events = trace
            .events_since(0)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        if let Err(e) = colock_check::verify_trace(mgr.store().catalog(), &events) {
            panic!("{label}: {e}");
        }
    }
}
