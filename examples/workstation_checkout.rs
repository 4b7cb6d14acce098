//! Workstation–server environment (§1, §3.1): a long transaction checks out
//! one robot to a workstation, survives a (simulated) server crash thanks to
//! persistent long locks, modifies the private copy and checks it back in —
//! while readers of the cell's other parts keep working throughout.
//!
//! Run with: `cargo run --example workstation_checkout`

use colock::core::authorization::{Authorization, Right};
use colock::core::{AccessMode, InstanceTarget, ResourcePath};
use colock::lockmgr::{Journal, LockManager};
use colock::nf2::Value;
use colock::sim::{build_cells_store, CellsConfig};
use colock::txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::Arc;

fn main() {
    let store = build_cells_store(&CellsConfig::default());
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let mgr = TransactionManager::over_store(store, authz, ProtocolKind::Proposed);
    // Long locks are journaled before they are acknowledged.
    let journal = Arc::new(Journal::<ResourcePath>::new());
    mgr.attach_journal(journal.clone());

    // 1. The workstation user starts a LONG transaction and checks out
    //    robot r1 of cell c1 for update.
    let station = mgr.begin(TxnKind::Long);
    let robot = InstanceTarget::object("cells", "c1").elem("robots", "r1");
    let copy = station.checkout(&robot, AccessMode::Update).unwrap();
    println!(
        "checked out robot {} (trajectory {})",
        copy.field("robot_id").unwrap(),
        copy.field("trajectory").unwrap()
    );

    // 2. Meanwhile a colleague reads the parts of the same cell — the
    //    sub-object granule means no blocking.
    let reader = mgr.begin(TxnKind::Short);
    let parts = InstanceTarget::object("cells", "c1").attr("c_objects");
    let ok = reader.try_lock(&parts, AccessMode::Read).is_ok();
    println!("concurrent part reader proceeds during the checkout: {ok}");
    reader.commit().unwrap();

    // 3. The server "crashes". Long locks survive in the journal; short
    //    locks do not (§3.1). A fresh lock table re-installs the replay.
    let replayed = Journal::<ResourcePath>::replay(&journal.contents()).unwrap();
    println!("crash! the journal holds {} long lock(s)", replayed.entries.len());
    let recovered: LockManager<ResourcePath> = LockManager::new();
    recovered.install_recovered(station.id(), replayed.entries.into_iter().map(|(r, _, m)| (r, m)));
    let resource = mgr.engine().resource_for(&robot).unwrap();
    println!(
        "after recovery the workstation still holds {} on the robot",
        recovered.held_mode(station.id(), &resource)
    );

    // 4. Back online: the user modifies the private copy and checks it in.
    let mut new_robot = copy.clone();
    *new_robot.field_mut("trajectory").unwrap() = Value::str("station-edited");
    station.checkin(&robot, new_robot).unwrap();
    station.commit().unwrap();
    println!("checked in; locks released");

    // 5. Everyone sees the new trajectory.
    let verify = mgr.begin(TxnKind::Short);
    let v = verify.read(&robot.clone().attr("trajectory")).unwrap();
    println!("trajectory after check-in: {v}");
    verify.commit().unwrap();
}
