//! Integration tests comparing the proposed protocol against the three
//! baselines — executable versions of the §3 problem statements.

use colock_core::authorization::{Authorization, Right};
use colock_core::fixtures::{fig1_catalog, fig6_source_with, StaticSource};
use colock_core::protocol::{
    InstanceTarget, LockCtx, ProtocolEngine, ProtocolKind, ProtocolOptions, TxnLockCache,
};
use colock_core::resource::ResourcePath;
use colock_lockmgr::{LockManager, LockMode, TxnId};
use std::sync::Arc;

fn setup(n_objects: usize) -> (ProtocolEngine, LockManager<ResourcePath>, StaticSource) {
    (
        ProtocolEngine::new(Arc::new(fig1_catalog())),
        LockManager::new(),
        fig6_source_with(n_objects),
    )
}

fn q1() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").attr("c_objects")
}

fn q2() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", "r1")
}

#[test]
fn granule_problem_whole_object_serializes_q1_q2() {
    // §3.2.1: "locking 'cells' objects as a whole would serialize Q1 and Q2
    // unnecessarily."
    let (engine, lm, src) = setup(10);
    let authz = Authorization::allow_all();
    engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::WholeObject,
            &q1(),
            LockMode::S,
        )
        .unwrap();
    let r = engine.lock(
        &LockCtx {
            opts: ProtocolOptions::default().try_lock(),
            ..LockCtx::new(&lm, TxnId(2), &src, &authz)
        },
        ProtocolKind::WholeObject,
        &q2(),
        LockMode::X,
    );
    assert!(r.is_err(), "whole-object locking must serialize Q1/Q2");
}

#[test]
fn granule_problem_proposed_runs_q1_q2_concurrently() {
    let (engine, lm, src) = setup(10);
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &q1(),
            LockMode::S,
        )
        .unwrap();
    let r = engine.lock(
        &LockCtx {
            opts: ProtocolOptions::default().try_lock(),
            ..LockCtx::new(&lm, TxnId(2), &src, &authz)
        },
        ProtocolKind::Proposed,
        &q2(),
        LockMode::X,
    );
    assert!(r.is_ok(), "{r:?}");
}

#[test]
fn tuple_level_lock_count_grows_with_data() {
    // §3.2.1: "one cell may contain hundreds of c_objects" — tuple-level
    // locking pays per element; the proposed technique pays O(depth).
    let authz = Authorization::allow_all();
    let mut counts = Vec::new();
    for n in [10usize, 100] {
        let (engine, lm, src) = setup(n);
        let whole_cell = InstanceTarget::object("cells", "c1");
        let report = engine
            .lock(
                &LockCtx::new(&lm, TxnId(1), &src, &authz),
                ProtocolKind::TupleLevel,
                &whole_cell,
                LockMode::S,
            )
            .unwrap();
        counts.push(report.lock_count());
    }
    assert!(counts[1] > counts[0] + 80, "tuple locks must scale with elements: {counts:?}");

    // The proposed protocol on the same access: constant-size footprint.
    let (engine, lm, src) = setup(100);
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &InstanceTarget::object("cells", "c1"),
            LockMode::S,
        )
        .unwrap();
    assert!(
        report.lock_count() <= 10,
        "proposed footprint must stay small, got {}",
        report.lock_count()
    );
}

#[test]
fn naive_dag_x_on_shared_data_pays_reverse_scan() {
    // §3.2.2: to X-lock an effector, the naive protocol must find and lock
    // every robot referencing it.
    let (engine, lm, src) = setup(2);
    let authz = Authorization::allow_all();
    let e2 = InstanceTarget::object("effectors", "e2");
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::NaiveDag,
            &e2,
            LockMode::X,
        )
        .unwrap();
    assert!(report.scan_cost >= 1, "reverse scan must be paid");
    // Both referencing robots are IX-locked, with their full chains.
    let r1 = ResourcePath::database("db1")
        .segment("seg1")
        .relation("cells")
        .object("c1")
        .attr("robots")
        .elem("r1");
    let r2 = r1.parent().unwrap().elem("r2");
    assert_eq!(lm.held_mode(TxnId(1), &r1), LockMode::IX);
    assert_eq!(lm.held_mode(TxnId(1), &r2), LockMode::IX);

    // The proposed protocol does the same job with no reverse scan.
    let (engine2, lm2, src2) = setup(2);
    let report2 = engine2
        .lock(
            &LockCtx::new(&lm2, TxnId(1), &src2, &authz),
            ProtocolKind::Proposed,
            &e2,
            LockMode::X,
        )
        .unwrap();
    assert_eq!(report2.scan_cost, 0);
    assert!(report2.lock_count() < report.lock_count());
}

#[test]
fn naive_dag_misses_from_the_side_conflicts() {
    // §3.2.2 defect 2: T1 X-locks robot r1 believing e1/e2 are implicitly
    // locked; T2 X-locks e2 directly via the naive protocol — no conflict is
    // detected, although T1 may be reading e2 through r1. The proposed
    // protocol detects it (see fig7.rs::from_the_side_conflict_is_detected).
    let (engine, lm, src) = setup(2);
    let authz = Authorization::allow_all();
    engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::NaiveDag,
            &q2(),
            LockMode::X,
        )
        .unwrap();
    // T2 X-locks e2 via naive protocol *without* the all-parents rule being
    // able to see T1 (T1 holds no lock on e2 or on effectors at all).
    let e2_mode = lm.held_mode(TxnId(1), &ResourcePath::database("db1").segment("seg2").relation("effectors").object("e2"));
    assert_eq!(e2_mode, LockMode::NL, "naive protocol leaves shared data unlocked");
}

#[test]
fn proposed_handles_nested_common_data_transitively() {
    // assemblies -> parts -> materials: downward propagation must cross
    // superunit boundaries transitively.
    use colock_nf2::builder::{DatabaseBuilder, RelationBuilder};
    use colock_nf2::types::shorthand::*;
    use colock_nf2::{Catalog, ObjectRef};

    let schema = DatabaseBuilder::new("db")
        .segment("s")
        .relation(
            RelationBuilder::new("assemblies", "s")
                .attr("asm_id", str_())
                .attr("parts", set(ref_("parts")))
                .finish(),
        )
        .relation(
            RelationBuilder::new("parts", "s")
                .attr("part_id", str_())
                .attr("material", ref_("materials"))
                .finish(),
        )
        .relation(RelationBuilder::new("materials", "s").attr("mat_id", str_()).finish())
        .finish()
        .unwrap();
    let engine = ProtocolEngine::new(Arc::new(Catalog::new(schema).unwrap()));
    let lm = LockManager::new();
    let mut src = StaticSource::new();
    src.add_object("assemblies", "a1");
    src.add_object("parts", "p1");
    src.add_object("materials", "m1");
    src.add_ref("assemblies", "a1", vec![colock_core::TargetStep::attr("parts")], ObjectRef::new("parts", "p1"));
    src.add_ref("parts", "p1", vec![colock_core::TargetStep::attr("material")], ObjectRef::new("materials", "m1"));

    let authz = Authorization::allow_all();
    let t = TxnId(1);
    engine
        .lock(
            &LockCtx::new(&lm, t, &src, &authz),
            ProtocolKind::Proposed,
            &InstanceTarget::object("assemblies", "a1"),
            LockMode::S,
        )
        .unwrap();
    let p1 = ResourcePath::database("db").segment("s").relation("parts").object("p1");
    let m1 = ResourcePath::database("db").segment("s").relation("materials").object("m1");
    assert_eq!(lm.held_mode(t, &p1), LockMode::S, "part entry point locked");
    assert_eq!(lm.held_mode(t, &m1), LockMode::S, "nested material entry point locked");
}

#[test]
fn diamond_shared_ref_locked_once() {
    // r1 and r2 both use e2: downward propagation must lock e2 exactly once
    // (visited-set), not fail or double-count.
    let (engine, lm, src) = setup(2);
    let authz = Authorization::allow_all();
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &InstanceTarget::object("cells", "c1"),
            LockMode::S,
        )
        .unwrap();
    let e2 = ResourcePath::database("db1").segment("seg2").relation("effectors").object("e2");
    let grants: Vec<_> = report.acquired.iter().filter(|(r, _)| r == &e2).collect();
    assert_eq!(grants.len(), 1, "e2 locked exactly once");
    assert_eq!(report.entry_points_locked, 3); // e1, e2, e3
    let _ = lm;
}

#[test]
fn unauthorized_access_is_rejected_before_locking() {
    let (engine, lm, src) = setup(2);
    let authz = Authorization::allow_all();
    authz.grant(TxnId(7), "cells", Right::Read);
    let r = engine.lock(
        &LockCtx::new(&lm, TxnId(7), &src, &authz),
        ProtocolKind::Proposed,
        &q2(),
        LockMode::X,
    );
    assert!(matches!(r, Err(colock_core::ProtocolError::Unauthorized { .. })));
    assert!(lm.locks_of(TxnId(7)).is_empty(), "no locks must be taken");
}

#[test]
fn relation_granule_lock_propagates_over_all_objects() {
    let (engine, lm, src) = setup(2);
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let rel = InstanceTarget::relation("cells");
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(1), &src, &authz),
            ProtocolKind::Proposed,
            &rel,
            LockMode::S,
        )
        .unwrap();
    // Relation S lock + downward propagation to all 3 effectors.
    assert_eq!(report.entry_points_locked, 3);
    let cells = ResourcePath::database("db1").segment("seg1").relation("cells");
    assert_eq!(lm.held_mode(TxnId(1), &cells), LockMode::S);
}

/// What one txn ends up with after locking the robots container and then the
/// shared effector `e2` under `protocol` in `mode`: the concatenated
/// `acquired` lists and the sorted `locks_of` inventory.
type Footprint = (Vec<(ResourcePath, LockMode)>, Vec<(ResourcePath, LockMode, bool)>);

fn footprint(protocol: ProtocolKind, mode: LockMode, cached: bool) -> Footprint {
    let (engine, lm, src) = setup(2);
    let authz = Authorization::allow_all();
    let cache = TxnLockCache::new();
    let cx = LockCtx { cache: cached.then_some(&cache), ..LockCtx::new(&lm, TxnId(1), &src, &authz) };
    let mut acquired = Vec::new();
    for target in [q2().attr("effectors"), InstanceTarget::object("effectors", "e2")] {
        acquired.extend(engine.lock(&cx, protocol, &target, mode).unwrap().acquired);
    }
    let mut held = lm.locks_of(cx.txn);
    held.sort();
    (acquired, held)
}

#[test]
fn one_entry_point_serves_every_protocol_mode_and_cache_setting() {
    use LockMode::{Insert, IS, IX, S, SIX, X};
    for protocol in ProtocolKind::ALL {
        let baseline =
            !matches!(protocol, ProtocolKind::Proposed | ProtocolKind::ProposedRule4);
        for (mode, access_class) in [(IS, S), (IX, X), (S, S), (X, X), (SIX, X), (Insert, X)] {
            let what = format!("{} in {mode}", protocol.name());
            // (i) + (ii): the cache answers requests, it never changes them.
            let plain = footprint(protocol, mode, false);
            assert_eq!(plain, footprint(protocol, mode, true), "cache changed {what}");
            assert!(!plain.0.is_empty(), "{what} locked nothing");
            // (iii): a baseline has no intent or semantic requests from
            // above; it takes the S/X of the mode's access class.
            if baseline {
                assert_eq!(plain, footprint(protocol, access_class, false), "fallback of {what}");
            }
        }

        // (iv): a write-class mode without the modify right is refused
        // before any lock is requested.
        let (engine, lm, src) = setup(2);
        let authz = Authorization::allow_all();
        authz.grant(TxnId(7), "cells", Right::Read);
        let cx = LockCtx::new(&lm, TxnId(7), &src, &authz);
        let refused = engine.lock(&cx, protocol, &q2().attr("effectors"), Insert);
        assert!(
            matches!(refused, Err(colock_core::ProtocolError::Unauthorized { .. })),
            "{}: {refused:?}",
            protocol.name()
        );
        assert!(lm.locks_of(cx.txn).is_empty(), "{}: no locks must be taken", protocol.name());
    }
}
