//! Acceptance tests: the paper's §4.6 claims, each asserted end-to-end —
//! these are the machine-checked versions of the experiment tables in
//! `EXPERIMENTS.md`.

use colock::core::authorization::{Authorization, Right};
use colock::core::{AccessMode, InstanceTarget};
use colock::sim::driver::ticks::TickConfig;
use colock::sim::{build_cells_store, CellsConfig, Op, TickDriver};
use colock::txn::{ProtocolKind, TransactionManager, TxnKind};

fn manager(cfg: &CellsConfig, protocol: ProtocolKind) -> TransactionManager {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    TransactionManager::over_store(build_cells_store(cfg), authz, protocol)
}

fn writable_manager(cfg: &CellsConfig, protocol: ProtocolKind) -> TransactionManager {
    TransactionManager::over_store(build_cells_store(cfg), Authorization::allow_all(), protocol)
}

/// §4.6 advantage 1: lock granules within the hierarchy solve the
/// granule-oriented problem — Q1 ∥ Q2 interleave under the proposed
/// technique, not under whole-object locking, and the proposed lock count
/// does not grow with the object.
#[test]
fn advantage1_granules_within_hierarchy() {
    let mut proposed_counts = Vec::new();
    for n in [10usize, 1000] {
        let cfg = CellsConfig { n_cells: 1, c_objects_per_cell: n, ..Default::default() };

        let mgr = manager(&cfg, ProtocolKind::Proposed);
        let t = mgr.begin(TxnKind::Short);
        let (target, access) = Op::ReadParts { cell: 0 }.target();
        proposed_counts.push(t.lock(&target, access).unwrap().granted);
        t.commit().unwrap();

        let driver_p = manager(&cfg, ProtocolKind::Proposed);
        let out = TickDriver::new(&driver_p, TickConfig::default()).run(vec![
            vec![vec![Op::ReadParts { cell: 0 }, Op::ReadParts { cell: 0 }]],
            vec![vec![Op::UpdateRobot { cell: 0, robot: 0 }]],
        ]);
        assert_eq!(out.metrics.blocked_ticks, 0, "proposed interleaves at n={n}");

        let driver_w = manager(&cfg, ProtocolKind::WholeObject);
        let out = TickDriver::new(&driver_w, TickConfig::default()).run(vec![
            vec![vec![Op::ReadParts { cell: 0 }, Op::ReadParts { cell: 0 }]],
            vec![vec![Op::UpdateRobot { cell: 0, robot: 0 }]],
        ]);
        assert!(out.metrics.blocked_ticks > 0, "whole-object serializes at n={n}");
    }
    assert_eq!(proposed_counts[0], proposed_counts[1], "proposed lock count size-independent");
}

/// §4.6 advantage 2: acceptable overhead to lock common data exclusively —
/// the proposed footprint for X on a shared effector is flat while the
/// naive DAG grows with the sharing degree.
#[test]
fn advantage2_cheap_exclusive_common_data() {
    let mut naive = Vec::new();
    let mut proposed = Vec::new();
    for n_cells in [2usize, 16] {
        let cfg = CellsConfig {
            n_cells,
            n_effectors: 4,
            effectors_per_robot: 2,
            c_objects_per_cell: 5,
            ..Default::default()
        };
        for (kind, out) in
            [(ProtocolKind::NaiveDag, &mut naive), (ProtocolKind::Proposed, &mut proposed)]
        {
            let mgr = writable_manager(&cfg, kind);
            let t = mgr.begin(TxnKind::Short);
            let report =
                t.lock(&InstanceTarget::object("effectors", "e1"), AccessMode::Update).unwrap();
            out.push((report.granted, report.scan_cost));
            t.commit().unwrap();
        }
    }
    assert!(naive[1].0 > naive[0].0, "naive lock count grows: {naive:?}");
    assert!(naive[1].1 > naive[0].1, "naive scan cost grows: {naive:?}");
    assert_eq!(proposed[0].0, proposed[1].0, "proposed stays flat: {proposed:?}");
    assert_eq!(proposed[0].1, 0, "proposed needs no reverse scan");
}

/// §4.6 advantage 3: visibility of implicit locks — from-the-side X on a
/// shared effector conflicts with a robot updater's entry-point lock.
#[test]
fn advantage3_from_the_side_visibility() {
    let cfg = CellsConfig { n_effectors: 4, ..Default::default() };
    // Relaxed naive: anomaly possible (T2 not blocked).
    let mgr = writable_manager(&cfg, ProtocolKind::NaiveRelaxed);
    let t1 = mgr.begin(TxnKind::Short);
    t1.lock(
        &InstanceTarget::object("cells", "c1").elem("robots", "r1"),
        AccessMode::Update,
    )
    .unwrap();
    let shared = first_effector_of_r1(&mgr);
    let t2 = mgr.begin(TxnKind::Short);
    assert!(
        t2.try_lock(&InstanceTarget::object("effectors", shared.clone()), AccessMode::Update).is_ok(),
        "relaxed naive misses the conflict"
    );
    t2.abort().unwrap();
    t1.commit().unwrap();

    // Proposed: conflict visible.
    let mgr = writable_manager(&cfg, ProtocolKind::Proposed);
    let t1 = mgr.begin(TxnKind::Short);
    t1.lock(
        &InstanceTarget::object("cells", "c1").elem("robots", "r1"),
        AccessMode::Update,
    )
    .unwrap();
    let shared = first_effector_of_r1(&mgr);
    let t2 = mgr.begin(TxnKind::Short);
    assert!(
        t2.try_lock(&InstanceTarget::object("effectors", shared), AccessMode::Update).is_err(),
        "proposed protocol must detect the from-the-side conflict"
    );
    t2.abort().unwrap();
    t1.commit().unwrap();
}

fn first_effector_of_r1(mgr: &TransactionManager) -> colock::nf2::ObjectKey {
    let robot = mgr
        .store()
        .get_at(
            "cells",
            &colock::nf2::ObjectKey::from("c1"),
            &[colock::core::TargetStep::elem("robots", "r1")],
        )
        .unwrap();
    let mut refs = Vec::new();
    robot.collect_refs(&mut refs);
    refs[0].key.clone()
}

/// §4.6 advantage 4: least-restrictive locking of common data — two robot
/// updaters without library rights share S entry locks (Fig. 7).
#[test]
fn advantage4_least_restrictive_modes() {
    let cfg = CellsConfig { n_effectors: 2, effectors_per_robot: 2, ..Default::default() };
    let mgr = manager(&cfg, ProtocolKind::Proposed);
    let t2 = mgr.begin(TxnKind::Short);
    let t3 = mgr.begin(TxnKind::Short);
    t2.lock(&InstanceTarget::object("cells", "c1").elem("robots", "r1"), AccessMode::Update)
        .unwrap();
    assert!(
        t3.try_lock(&InstanceTarget::object("cells", "c1").elem("robots", "r2"), AccessMode::Update)
            .is_ok(),
        "rule 4' lets both updaters run"
    );
    t2.commit().unwrap();
    t3.commit().unwrap();

    // Plain rule 4 serializes the very same pair.
    let mgr = manager(&cfg, ProtocolKind::ProposedRule4);
    let t2 = mgr.begin(TxnKind::Short);
    let t3 = mgr.begin(TxnKind::Short);
    t2.lock(&InstanceTarget::object("cells", "c1").elem("robots", "r1"), AccessMode::Update)
        .unwrap();
    assert!(
        t3.try_lock(&InstanceTarget::object("cells", "c1").elem("robots", "r2"), AccessMode::Update)
            .is_err(),
        "plain rule 4 must serialize on the shared effector"
    );
    t2.commit().unwrap();
    t3.abort().unwrap();
}

/// §4.6 advantage 6/7: strict phase separation — the query-specific lock
/// graph is computed before execution and reused; execution then only
/// requests the stored granules.
#[test]
fn advantage6_phase_separation() {
    use colock::core::optimizer::Optimizer;
    use colock::query::{analyze::analyze, parse, plan::plan_locks};
    let cfg = CellsConfig::default();
    let mgr = manager(&cfg, ProtocolKind::Proposed);
    let catalog = mgr.store().catalog().clone();
    let stmt = parse(
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE",
    )
    .unwrap();
    let analysis = analyze(&catalog, &stmt).unwrap();
    let plan = plan_locks(&catalog, stmt, analysis, &Optimizer::default()).unwrap();
    // The same plan executes repeatedly (construction happened once).
    for _ in 0..3 {
        let t = mgr.begin(TxnKind::Short);
        let out = colock::query::exec::execute(&t, &plan).unwrap();
        assert_eq!(out.rows.len(), 1);
        t.commit().unwrap();
    }
}

/// §4.6 disadvantage 2 bound: for disjoint objects accessed as a whole the
/// proposed protocol degenerates to the traditional one — identical lock
/// counts (no penalty in our realization).
#[test]
fn disadvantage2_disjoint_degenerates_to_traditional() {
    let cfg = CellsConfig { effectors_per_robot: 0, ..Default::default() };
    let mut counts = Vec::new();
    for protocol in [ProtocolKind::Proposed, ProtocolKind::WholeObject] {
        let mgr = manager(&cfg, protocol);
        let t = mgr.begin(TxnKind::Short);
        let report =
            t.lock(&InstanceTarget::object("cells", "c1"), AccessMode::Update).unwrap();
        counts.push(report.granted);
        t.commit().unwrap();
    }
    assert_eq!(counts[0], counts[1]);
}
