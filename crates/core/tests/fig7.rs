//! Integration test: exact reproduction of Fig. 7 — the locks held by
//! queries Q2 and Q3, and their concurrent execution under rule 4′.

use colock_core::authorization::{Authorization, Right};
use colock_core::fixtures::{fig1_catalog, fig6_source};
use colock_core::protocol::{
    InstanceTarget, LockCtx, ProtocolEngine, ProtocolKind, ProtocolOptions,
};
use colock_core::resource::ResourcePath;
use colock_lockmgr::{LockManager, LockMode, TxnId};
use std::sync::Arc;

fn setup() -> (ProtocolEngine, LockManager<ResourcePath>, colock_core::fixtures::StaticSource, Authorization)
{
    let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
    let lm = LockManager::new();
    let src = fig6_source();
    // Fig. 7's assumption: "neither Q2 nor Q3 have the right to update
    // relation effectors".
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    (engine, lm, src, authz)
}

fn res(parts: &str) -> ResourcePath {
    // tiny helper: "seg1/cells/c1" etc. under db1.
    let mut p = ResourcePath::database("db1");
    for (i, part) in parts.split('/').enumerate() {
        p = match i {
            0 => p.segment(part),
            1 => p.relation(part),
            2 => p.object(part),
            _ => {
                if let Some(stripped) = part.strip_prefix('[') {
                    p.elem(stripped.trim_end_matches(']'))
                } else {
                    p.attr(part)
                }
            }
        };
    }
    p
}

/// Q2 (Fig. 3): `SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id =
/// 'c1' AND r.robot_id = 'r1' FOR UPDATE`.
fn q2_target() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", "r1")
}

/// Q3 (Fig. 3): same shape, robot `r2`.
fn q3_target() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", "r2")
}

#[test]
fn q2_lock_set_matches_fig7() {
    let (engine, lm, src, authz) = setup();
    let t2 = TxnId(2);
    engine
        .lock(
            &LockCtx::new(&lm, t2, &src, &authz),
            ProtocolKind::Proposed,
            &q2_target(),
            LockMode::X,
        )
        .unwrap();

    // Fig. 7, column Q2.
    let expect = [
        (ResourcePath::database("db1"), LockMode::IX),
        (res("seg1"), LockMode::IX),
        (res("seg1/cells"), LockMode::IX),
        (res("seg1/cells/c1"), LockMode::IX),
        (res("seg1/cells/c1/robots"), LockMode::IX),
        (res("seg1/cells/c1/robots/[r1]"), LockMode::X),
        (res("seg2"), LockMode::IS),
        (res("seg2/effectors"), LockMode::IS),
        (res("seg2/effectors/e1"), LockMode::S),
        (res("seg2/effectors/e2"), LockMode::S),
    ];
    for (resource, mode) in expect {
        assert_eq!(lm.held_mode(t2, &resource), mode, "wrong mode on {resource}");
    }
    // And nothing on robot r2, effector e3, or c_objects.
    assert_eq!(lm.held_mode(t2, &res("seg1/cells/c1/robots/[r2]")), LockMode::NL);
    assert_eq!(lm.held_mode(t2, &res("seg2/effectors/e3")), LockMode::NL);
    assert_eq!(lm.held_mode(t2, &res("seg1/cells/c1/c_objects")), LockMode::NL);
}

#[test]
fn q3_lock_set_matches_fig7() {
    let (engine, lm, src, authz) = setup();
    let t3 = TxnId(3);
    engine
        .lock(
            &LockCtx::new(&lm, t3, &src, &authz),
            ProtocolKind::Proposed,
            &q3_target(),
            LockMode::X,
        )
        .unwrap();
    let expect = [
        (ResourcePath::database("db1"), LockMode::IX),
        (res("seg1"), LockMode::IX),
        (res("seg1/cells"), LockMode::IX),
        (res("seg1/cells/c1"), LockMode::IX),
        (res("seg1/cells/c1/robots"), LockMode::IX),
        (res("seg1/cells/c1/robots/[r2]"), LockMode::X),
        (res("seg2"), LockMode::IS),
        (res("seg2/effectors"), LockMode::IS),
        (res("seg2/effectors/e2"), LockMode::S),
        (res("seg2/effectors/e3"), LockMode::S),
    ];
    for (resource, mode) in expect {
        assert_eq!(lm.held_mode(t3, &resource), mode, "wrong mode on {resource}");
    }
    assert_eq!(lm.held_mode(t3, &res("seg2/effectors/e1")), LockMode::NL);
}

#[test]
fn q2_and_q3_run_concurrently_under_rule4_prime() {
    // "Rule 4' allows Q2 and Q3 to run concurrently, although both queries
    // touch effector 'e2'."
    let (engine, lm, src, authz) = setup();
    let t2 = TxnId(2);
    let t3 = TxnId(3);
    engine
        .lock(
            &LockCtx::new(&lm, t2, &src, &authz),
            ProtocolKind::Proposed,
            &q2_target(),
            LockMode::X,
        )
        .unwrap();
    let r = engine.lock(
        &LockCtx {
            opts: ProtocolOptions::default().try_lock(),
            ..LockCtx::new(&lm, t3, &src, &authz)
        },
        ProtocolKind::Proposed,
        &q3_target(),
        LockMode::X,
    );
    assert!(r.is_ok(), "Q3 must not block: {r:?}");
    // Both hold S on the shared effector e2.
    assert_eq!(lm.held_mode(t2, &res("seg2/effectors/e2")), LockMode::S);
    assert_eq!(lm.held_mode(t3, &res("seg2/effectors/e2")), LockMode::S);
}

#[test]
fn without_rule4_prime_q2_and_q3_serialize_on_e2() {
    // Under plain rule 4 both updaters X-lock every referenced effector —
    // they collide on e2 even though neither may modify effectors.
    let (engine, lm, src, _) = setup();
    // Plain rule 4 ignores rights; use allow-all to let X propagate.
    let authz = Authorization::allow_all();
    let t2 = TxnId(2);
    let t3 = TxnId(3);
    engine
        .lock(
            &LockCtx::new(&lm, t2, &src, &authz),
            ProtocolKind::ProposedRule4,
            &q2_target(),
            LockMode::X,
        )
        .unwrap();
    let r = engine.lock(
        &LockCtx {
            opts: ProtocolOptions::default().try_lock(),
            ..LockCtx::new(&lm, t3, &src, &authz)
        },
        ProtocolKind::ProposedRule4,
        &q3_target(),
        LockMode::X,
    );
    assert!(r.is_err(), "plain rule 4 must serialize Q2/Q3 on e2");
}

#[test]
fn report_renders_fig7_annotations() {
    let (engine, lm, src, authz) = setup();
    let report = engine
        .lock(
            &LockCtx::new(&lm, TxnId(2), &src, &authz),
            ProtocolKind::Proposed,
            &q2_target(),
            LockMode::X,
        )
        .unwrap();
    let text = report.render();
    assert!(text.contains("rel:cells: IX"), "{text}");
    assert!(text.contains("[r1]: X"), "{text}");
    assert!(text.contains("rel:effectors: IS"), "{text}");
    assert!(text.contains("obj:e1: S"), "{text}");
    assert_eq!(report.entry_points_locked, 2);
}

#[test]
fn updating_an_effector_directly_locks_its_superunit() {
    // A transaction WITH update rights on effectors X-locks e1 directly:
    // upward propagation covers db1 / seg2 / effectors (IX), then X on e1.
    let (engine, lm, src, _) = setup();
    let authz = Authorization::allow_all();
    let t = TxnId(5);
    let target = InstanceTarget::object("effectors", "e1");
    engine
        .lock(&LockCtx::new(&lm, t, &src, &authz), ProtocolKind::Proposed, &target, LockMode::X)
        .unwrap();
    assert_eq!(lm.held_mode(t, &ResourcePath::database("db1")), LockMode::IX);
    assert_eq!(lm.held_mode(t, &res("seg2")), LockMode::IX);
    assert_eq!(lm.held_mode(t, &res("seg2/effectors")), LockMode::IX);
    assert_eq!(lm.held_mode(t, &res("seg2/effectors/e1")), LockMode::X);
}

#[test]
fn from_the_side_conflict_is_detected() {
    // T_a updates robot r1 (S-locks e1/e2 downward). T_b, with update rights
    // on effectors, tries to X-lock e2 directly ("from the side") — the
    // proposed protocol makes the conflict visible at the entry point.
    let (engine, lm, src, authz) = setup();
    let ta = TxnId(10);
    engine
        .lock(
            &LockCtx::new(&lm, ta, &src, &authz),
            ProtocolKind::Proposed,
            &q2_target(),
            LockMode::X,
        )
        .unwrap();

    let authz_b = Authorization::allow_all();
    authz_b.grant(TxnId(11), "effectors", Right::Update);
    let r = engine.lock(
        &LockCtx {
            opts: ProtocolOptions::default().try_lock(),
            ..LockCtx::new(&lm, TxnId(11), &src, &authz_b)
        },
        ProtocolKind::Proposed,
        &InstanceTarget::object("effectors", "e2"),
        LockMode::X,
    );
    assert!(r.is_err(), "X on e2 must conflict with Q2's S entry lock");
}

#[test]
fn read_of_unrelated_cell_part_is_unaffected() {
    // Q1 (read all c_objects of c1) and Q2 (update robot r1) touch different
    // parts: under the proposed technique they coexist.
    let (engine, lm, src, authz) = setup();
    let t1 = TxnId(1);
    let t2 = TxnId(2);
    engine
        .lock(
            &LockCtx::new(&lm, t2, &src, &authz),
            ProtocolKind::Proposed,
            &q2_target(),
            LockMode::X,
        )
        .unwrap();
    let q1 = InstanceTarget::object("cells", "c1").attr("c_objects");
    let r = engine.lock(
        &LockCtx {
            opts: ProtocolOptions::default().try_lock(),
            ..LockCtx::new(&lm, t1, &src, &authz)
        },
        ProtocolKind::Proposed,
        &q1,
        LockMode::S,
    );
    assert!(r.is_ok(), "Q1 and Q2 must run concurrently: {r:?}");
}
