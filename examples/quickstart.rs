//! Quickstart: build the paper's Fig. 1 schema, derive the lock graph, and
//! watch the proposed protocol lock robot `r1` for update — including the
//! implicit downward propagation onto the shared effectors (rule 4′).
//!
//! Run with: `cargo run --example quickstart`

use colock::core::authorization::{Authorization, Right};
use colock::core::fixtures::{fig1_catalog, fig6_source};
use colock::core::graph::display::object_graph_tree;
use colock::core::{InstanceTarget, LockCtx, ProtocolEngine, ProtocolKind, ProtocolOptions};
use colock::lockmgr::{LockManager, LockMode, TxnId};
use std::sync::Arc;

fn main() {
    // 1. Catalog (validated schema + statistics) and the derived
    //    object-specific lock graph (Fig. 5).
    let catalog = Arc::new(fig1_catalog());
    let engine = ProtocolEngine::new(Arc::clone(&catalog));
    println!("object-specific lock graph (derived from the schema):\n");
    print!("{}", object_graph_tree(engine.graph()));

    // 2. Rights: the effectors library is read-only for everyone.
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);

    // 3. Lock robot r1 of cell c1 for update (the paper's query Q2).
    let lm = LockManager::new();
    let src = fig6_source(); // cell c1 with robots r1 {e1,e2}, r2 {e2,e3}
    let q2 = InstanceTarget::object("cells", "c1").elem("robots", "r1");
    let cx = LockCtx::new(&lm, TxnId(2), &src, &authz);
    let report = engine.lock(&cx, ProtocolKind::Proposed, &q2, LockMode::X).expect("locking Q2");

    println!("\nlocks acquired for Q2 (update robot r1), in request order:");
    print!("{}", report.render());
    println!(
        "\n{} entry points of inner units were locked by downward propagation.",
        report.entry_points_locked
    );

    // 4. A second updater on robot r2 runs concurrently although both use
    //    effector e2 — rule 4' locks the shared effectors in S only.
    let q3 = InstanceTarget::object("cells", "c1").elem("robots", "r2");
    let cx3 = LockCtx { txn: TxnId(3), opts: ProtocolOptions::default().try_lock(), ..cx };
    let ok = engine.lock(&cx3, ProtocolKind::Proposed, &q3, LockMode::X).is_ok();
    println!("second updater (robot r2) runs concurrently: {ok}");
}
