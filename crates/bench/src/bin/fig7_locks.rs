//! F7 — Fig. 7: the exact lock sets held by queries Q2 and Q3, and their
//! concurrent execution under rule 4′ although both touch effector e2.

use colock_core::fixtures::{fig1_catalog, fig6_source};
use colock_core::{
    Authorization, InstanceTarget, LockCtx, ProtocolEngine, ProtocolKind, ProtocolOptions, Right,
};
use colock_lockmgr::{LockManager, LockMode, TxnId};
use std::sync::Arc;

fn main() {
    let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
    let lm = LockManager::new();
    let src = fig6_source();
    // Fig. 7 assumption: neither Q2 nor Q3 may update relation "effectors".
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);

    let q2 = InstanceTarget::object("cells", "c1").elem("robots", "r1");
    let q3 = InstanceTarget::object("cells", "c1").elem("robots", "r2");

    println!("Figure 7 — Complex Object \"c1\" and the locks held by Q2 and Q3\n");

    let t2 = TxnId(2);
    let r2 = engine
        .lock(&LockCtx::new(&lm, t2, &src, &authz), ProtocolKind::Proposed, &q2, LockMode::X)
        .expect("Q2 locks");
    println!("locks acquired by Q2 (X on robot r1), in request order:");
    print!("{}", r2.render());

    let t3 = TxnId(3);
    let try_lock = ProtocolOptions::default().try_lock();
    let r3 = engine
        .lock(
            &LockCtx { opts: try_lock, ..LockCtx::new(&lm, t3, &src, &authz) },
            ProtocolKind::Proposed,
            &q3,
            LockMode::X,
        )
        .expect("Q3 must not block although both queries touch effector e2 (rule 4')");
    println!("\nlocks acquired by Q3 (X on robot r2), in request order:");
    print!("{}", r3.render());

    println!("\ncombined lock table in Fig. 7 style:");
    print!(
        "{}",
        colock_core::graph::display::render_held_locks(&lm, &[(t2, "Q2"), (t3, "Q3")])
    );

    println!("\nboth transactions hold S on the shared effector e2:");
    let e2 = engine
        .resource_for(&InstanceTarget::object("effectors", "e2"))
        .unwrap();
    for (txn, mode) in lm.holders(&e2) {
        println!("  {txn}: {mode}");
    }
    println!("\nQ2 and Q3 run concurrently under rule 4' — reproduced.");

    // Contrast: plain rule 4 serializes them.
    let lm2 = LockManager::new();
    let permissive = Authorization::allow_all();
    engine
        .lock(
            &LockCtx::new(&lm2, t2, &src, &permissive),
            ProtocolKind::ProposedRule4,
            &q2,
            LockMode::X,
        )
        .unwrap();
    let blocked = engine
        .lock(
            &LockCtx { opts: try_lock, ..LockCtx::new(&lm2, t3, &src, &permissive) },
            ProtocolKind::ProposedRule4,
            &q3,
            LockMode::X,
        )
        .is_err();
    println!("under plain rule 4 the same pair serializes on e2: {blocked}");
}
