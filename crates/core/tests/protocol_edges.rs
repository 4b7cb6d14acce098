//! Edge cases of the protocol engine: explicit intent modes, SIX, deep
//! targets, early release, plan/access alignment, error paths.

use colock_core::authorization::{Authorization, Right};
use colock_core::fixtures::{fig1_catalog, fig6_source, StaticSource};
use colock_core::optimizer::{AccessEstimate, Optimizer};
use colock_core::{
    AccessMode, InstanceTarget, LockCtx, ProtocolEngine, ProtocolError, ProtocolKind,
    ProtocolOptions, ResourcePath,
};
use colock_lockmgr::{Journal, LockError, LockManager, LockMode, TxnId};
use colock_testkit::{CrashPoint, FaultPlan};
use colock_nf2::AttrPath;
use std::sync::Arc;

fn setup() -> (ProtocolEngine, LockManager<ResourcePath>, StaticSource) {
    (ProtocolEngine::new(Arc::new(fig1_catalog())), LockManager::new(), fig6_source())
}

fn res_robot(r: &str) -> ResourcePath {
    ResourcePath::database("db1")
        .segment("seg1")
        .relation("cells")
        .object("c1")
        .attr("robots")
        .elem(r)
}

#[test]
fn explicit_is_lock_takes_only_intents() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let target = InstanceTarget::object("cells", "c1").attr("robots");
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &target,
            LockMode::IS,
        )
        .unwrap();
    // IS is an intent: no downward propagation, no entry points.
    assert_eq!(report.entry_points_locked, 0);
    for (_, m) in &report.acquired {
        assert_eq!(*m, LockMode::IS);
    }
}

#[test]
fn explicit_ix_enables_later_fine_x() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let txn = TxnId(1);
    let holu = InstanceTarget::object("cells", "c1").attr("robots");
    engine
        .lock(&LockCtx::new(&lm, txn, &src, &authz), ProtocolKind::Proposed, &holu, LockMode::IX)
        .unwrap();
    // Now X one robot under the held IX.
    let robot = InstanceTarget::object("cells", "c1").elem("robots", "r1");
    engine
        .lock(&LockCtx::new(&lm, txn, &src, &authz), ProtocolKind::Proposed, &robot, LockMode::X)
        .unwrap();
    assert_eq!(lm.held_mode(txn, &res_robot("r1")), LockMode::X);
}

#[test]
fn six_lock_propagates_like_x_under_rule4() {
    // SIX = read everything + intent to update parts: downward propagation
    // must protect entry points like an X request would.
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let target = InstanceTarget::object("cells", "c1");
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::ProposedRule4,
            &target,
            LockMode::SIX,
        )
        .unwrap();
    assert_eq!(report.entry_points_locked, 3);
    let e1 = ResourcePath::database("db1").segment("seg2").relation("effectors").object("e1");
    assert_eq!(lm.held_mode(TxnId(1), &e1), LockMode::X);
}

#[test]
fn six_lock_respects_rule4_prime() {
    let (engine, lm, src) = setup();
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let target = InstanceTarget::object("cells", "c1");
    engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &target,
            LockMode::SIX,
        )
        .unwrap();
    let e1 = ResourcePath::database("db1").segment("seg2").relation("effectors").object("e1");
    assert_eq!(lm.held_mode(TxnId(1), &e1), LockMode::S);
}

#[test]
fn deep_blu_target_locks_full_chain() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let traj = InstanceTarget::object("cells", "c1").elem("robots", "r1").attr("trajectory");
    engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &traj,
            LockMode::X,
        )
        .unwrap();
    // Every prefix carries IX; the BLU carries X.
    let blu = res_robot("r1").attr("trajectory");
    assert_eq!(lm.held_mode(TxnId(1), &blu), LockMode::X);
    for anc in blu.ancestors() {
        assert_eq!(lm.held_mode(TxnId(1), &anc), LockMode::IX, "on {anc}");
    }
}

#[test]
fn ref_set_target_propagates_only_its_own_refs() {
    // Locking robot r1's effectors set S must propagate to e1/e2 but not e3.
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let effs = InstanceTarget::object("cells", "c1").elem("robots", "r1").attr("effectors");
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &effs,
            LockMode::S,
        )
        .unwrap();
    assert_eq!(report.entry_points_locked, 2);
    let e3 = ResourcePath::database("db1").segment("seg2").relation("effectors").object("e3");
    assert_eq!(lm.held_mode(TxnId(1), &e3), LockMode::NL);
}

#[test]
fn early_release_keeps_shared_ancestors() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let txn = TxnId(1);
    for r in ["r1", "r2"] {
        engine
            .lock(
                &LockCtx::new(&lm, txn, &src, &authz),
                ProtocolKind::Proposed,
                &InstanceTarget::object("cells", "c1").elem("robots", r),
                LockMode::S,
            )
            .unwrap();
    }
    let released = engine
        .release_target_early(&lm, txn, &InstanceTarget::object("cells", "c1").elem("robots", "r1"))
        .unwrap();
    assert_eq!(released, 1, "only the leaf: ancestors still guard r2");
    assert_eq!(lm.held_mode(txn, &res_robot("r1")), LockMode::NL);
    assert_eq!(lm.held_mode(txn, &res_robot("r2")), LockMode::S);
    let robots = res_robot("r1").parent().unwrap();
    assert_eq!(lm.held_mode(txn, &robots), LockMode::IS);
}

#[test]
fn early_release_collapses_unneeded_chain() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let txn = TxnId(1);
    let target = InstanceTarget::object("cells", "c1").elem("robots", "r1");
    engine
        .lock(
            &LockCtx {
                opts: ProtocolOptions { deref_refs: false, ..ProtocolOptions::default() },
                ..LockCtx::new(&lm, txn, &src, &authz)
            },
            ProtocolKind::Proposed,
            &target,
            LockMode::S,
        )
        .unwrap();
    let released = engine.release_target_early(&lm, txn, &target).unwrap();
    // Leaf + the five ancestors (db/seg/rel/obj/robots): nothing else held.
    assert_eq!(released, 6);
    assert_eq!(lm.table_size(), 0);
}

#[test]
fn unknown_relation_is_reported() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let err = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &InstanceTarget::object("ghosts", "g1"),
            LockMode::S,
        )
        .unwrap_err();
    assert_eq!(err, ProtocolError::UnknownRelation("ghosts".to_string()));
}

#[test]
fn optimizer_plan_is_parallel_to_accesses() {
    // The executor zips plan.locks with analysis.accesses — the optimizer
    // must emit exactly one planned lock per estimate, in order.
    let catalog = fig1_catalog();
    let estimates = vec![
        AccessEstimate::keyed("cells", "robots", AccessMode::Update),
        AccessEstimate {
            relation: "cells".into(),
            path: AttrPath::parse("c_objects"),
            access: AccessMode::Read,
            objects_expected: 1.0,
            elems_expected: 100.0,
        },
        AccessEstimate::keyed("effectors", "tool", AccessMode::Read),
    ];
    let plan = Optimizer::default().plan(&catalog, &estimates);
    assert_eq!(plan.locks.len(), estimates.len());
    for (planned, est) in plan.locks.iter().zip(&estimates) {
        assert_eq!(planned.relation, est.relation);
    }
}

#[test]
fn report_mode_of_joins_repeated_grants() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let txn = TxnId(1);
    let mut report = engine
        .lock(
            &LockCtx::new(&lm, txn, &src, &authz),
            ProtocolKind::Proposed,
            &InstanceTarget::object("cells", "c1").attr("robots"),
            LockMode::IS,
        )
        .unwrap();
    let second = engine
        .lock(
            &LockCtx::new(&lm, txn, &src, &authz),
            ProtocolKind::Proposed,
            &InstanceTarget::object("cells", "c1").attr("robots"),
            LockMode::IX,
        )
        .unwrap();
    report.merge(second);
    let robots = res_robot("r1").parent().unwrap();
    assert_eq!(report.mode_of(&robots), Some(LockMode::IX.join(LockMode::IS)));
    assert!(report.mode_of(&res_robot("r9")).is_none());
}

#[test]
fn naive_dag_on_non_common_data_equals_relaxed() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let target = InstanceTarget::object("cells", "c1").elem("robots", "r1");
    let naive = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::NaiveDag,
            &target,
            LockMode::X,
        )
        .unwrap();
    let lm2: LockManager<ResourcePath> = LockManager::new();
    let relaxed = engine
        .lock(
            &LockCtx::new(&lm2, TxnId(1), &src, &authz),
            ProtocolKind::NaiveRelaxed,
            &target,
            LockMode::X,
        )
        .unwrap();
    assert_eq!(naive.lock_count(), relaxed.lock_count());
    assert_eq!(naive.scan_cost, 0);
}

#[test]
fn whole_object_relation_target_locks_relation_plus_commons() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::WholeObject,
            &InstanceTarget::relation("cells"),
            LockMode::S,
        )
        .unwrap();
    let cells = ResourcePath::database("db1").segment("seg1").relation("cells");
    assert_eq!(lm.held_mode(TxnId(1), &cells), LockMode::S);
    // All three effectors coarsely locked too.
    let locked_effectors = report
        .acquired
        .iter()
        .filter(|(r, m)| r.relation_name() == Some("effectors") && *m == LockMode::S && r.object_key().is_some())
        .count();
    assert_eq!(locked_effectors, 3);
}

#[test]
fn tuple_level_subtree_scopes_to_elements_below() {
    let (engine, lm, src) = setup();
    let authz = Authorization::allow_all();
    let robots = InstanceTarget::object("cells", "c1").attr("robots");
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::TupleLevel,
            &robots,
            LockMode::S,
        )
        .unwrap();
    // 2 robot tuples + 3 referenced effector objects (e1, e2, e3).
    let tuple_locks = report
        .acquired
        .iter()
        .filter(|(_, m)| *m == LockMode::S)
        .count();
    assert_eq!(tuple_locks, 5, "{}", report.render());
}

/// `lm`'s grants flagged long, in a replay's order (owner, mode, resource).
fn long_grants(lm: &LockManager<ResourcePath>) -> Vec<(ResourcePath, TxnId, LockMode)> {
    let mut grants = Vec::new();
    lm.for_each_grant(|r, txn, mode, long| {
        if long {
            grants.push((r.clone(), txn, mode));
        }
    });
    grants.sort_by_cached_key(|g| (g.1, g.2, format!("{:?}", g.0)));
    grants
}

/// A long `lock` call is one lock-manager request: its grants reach the
/// journal as one grant set when it returns — also when it fails midway,
/// since the grants made before the error stay held.
#[test]
fn a_long_lock_call_journals_one_grant_set_even_when_it_fails() {
    let (engine, lm, src) = setup();
    let journal = Arc::new(Journal::<ResourcePath>::new());
    assert!(lm.attach_journal(journal.clone()));
    let authz = Authorization::allow_all();
    let long = ProtocolOptions { long: true, ..ProtocolOptions::default() };
    let robot = |r: &str| InstanceTarget::object("cells", "c1").elem("robots", r);

    let t1 = LockCtx { opts: long, ..LockCtx::new(&lm, TxnId(1), &src, &authz) };
    let report = engine.lock(&t1, ProtocolKind::Proposed, &robot("r1"), LockMode::X).unwrap();
    assert!(report.acquired.len() > 5, "{report:?}");
    assert_eq!(journal.appends(), 1, "one record for {} locks", report.acquired.len());
    let replayed = Journal::<ResourcePath>::replay(&journal.contents()).unwrap();
    assert_eq!(replayed.entries, long_grants(&lm));

    // t3 holds e3 exclusively, so t2's long X on r2 fails at that entry
    // point under the try policy — after its ancestors and r2 are granted.
    let e3 = InstanceTarget::object("effectors", "e3");
    let t3 = LockCtx::new(&lm, TxnId(3), &src, &authz);
    engine.lock(&t3, ProtocolKind::Proposed, &e3, LockMode::X).unwrap();
    let t2 = LockCtx { opts: long.try_lock(), ..LockCtx::new(&lm, TxnId(2), &src, &authz) };
    let err = engine.lock(&t2, ProtocolKind::Proposed, &robot("r2"), LockMode::X).unwrap_err();
    assert!(matches!(err, ProtocolError::Lock(LockError::WouldBlock { .. })), "{err:?}");
    assert_eq!(journal.appends(), 2);
    let replayed = Journal::<ResourcePath>::replay(&journal.contents()).unwrap();
    assert_eq!(replayed.entries, long_grants(&lm));
    assert!(replayed.owners().contains(&TxnId(2)), "t2's partial grants are durable");
}

/// A crash at the request's flush fails the `lock` call, and the medium
/// holds none of that request's locks.
#[test]
fn a_crash_at_the_flush_fails_the_lock_call_and_replay_holds_none_of_it() {
    for point in [CrashPoint::BeforeAppend, CrashPoint::MidRecord] {
        let (engine, lm, src) = setup();
        let journal = Arc::new(Journal::<ResourcePath>::new());
        lm.attach_journal(journal.clone());
        let authz = Authorization::allow_all();
        let long = ProtocolOptions { long: true, ..ProtocolOptions::default() };
        let cx = |t| LockCtx { opts: long, ..LockCtx::new(&lm, TxnId(t), &src, &authz) };
        let robot = |r: &str| InstanceTarget::object("cells", "c1").elem("robots", r);
        engine.lock(&cx(1), ProtocolKind::Proposed, &robot("r1"), LockMode::S).unwrap();
        journal.arm(FaultPlan::crash_at(point, 1));
        let err = engine.lock(&cx(2), ProtocolKind::Proposed, &robot("r2"), LockMode::S);
        assert_eq!(err.unwrap_err(), ProtocolError::Lock(LockError::Crashed), "{point:?}");
        let replayed = Journal::<ResourcePath>::replay(&journal.contents()).unwrap();
        assert_eq!(replayed.owners(), vec![TxnId(1)], "{point:?}");
        assert_eq!(replayed.dropped_tail, usize::from(point == CrashPoint::MidRecord));
    }
}
