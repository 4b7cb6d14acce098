//! Property-based tests: lock-graph derivation invariants over random
//! schemas, and protocol invariants over random instances.

use colock_core::authorization::Authorization;
use colock_core::fixtures::StaticSource;
use colock_core::graph::derive::derive_from_schema;
use colock_core::{
    Category, InstanceTarget, LockCtx, ProtocolEngine, ProtocolKind, TargetStep, TxnLockCache,
    Units,
};
use colock_lockmgr::{LockManager, LockMode, TxnId};
use colock_nf2::builder::{DatabaseBuilder, RelationBuilder};
use colock_nf2::types::shorthand as ty;
use colock_nf2::{AttrType, Catalog, DatabaseSchema, ObjectRef};
use colock_testkit::prop::{pick_weighted, vec_of};
use colock_testkit::{ensure, ensure_eq, forall, Rng};
use std::sync::Arc;

/// Random attribute type of bounded depth (no refs — added separately).
fn attr_type(rng: &mut Rng, depth: u32) -> AttrType {
    let leaf = |rng: &mut Rng| match rng.gen_range(0..4u32) {
        0 => ty::str_(),
        1 => ty::int_(),
        2 => ty::real_(),
        _ => ty::bool_(),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match pick_weighted(rng, &[3, 1, 1, 1]) {
        0 => leaf(rng),
        1 => ty::set(attr_type(rng, depth - 1)),
        2 => ty::list(attr_type(rng, depth - 1)),
        _ => {
            let ts = vec_of(rng, 1..3, |rng| attr_type(rng, depth - 1));
            ty::tuple(
                ts.into_iter()
                    .enumerate()
                    .map(|(i, t)| ty::attr(&format!("g{i}"), t))
                    .collect(),
            )
        }
    }
}

/// Random two-relation schema: `top` references `lib` via 0..3 ref
/// attributes, plus random extra attributes.
fn schema(rng: &mut Rng) -> DatabaseSchema {
    let top_attrs = vec_of(rng, 1..4, |rng| attr_type(rng, 2));
    let lib_attrs = vec_of(rng, 0..3, |rng| attr_type(rng, 1));
    let n_refs = rng.gen_range(0usize..3);
    let mut top = RelationBuilder::new("top", "s1").attr("top_id", ty::str_());
    for (i, t) in top_attrs.into_iter().enumerate() {
        top = top.attr(format!("a{i}"), t);
    }
    for i in 0..n_refs {
        top = top.attr(format!("r{i}"), ty::ref_("lib"));
    }
    let mut lib = RelationBuilder::new("lib", "s2").attr("lib_id", ty::str_());
    for (i, t) in lib_attrs.into_iter().enumerate() {
        lib = lib.attr(format!("b{i}"), t);
    }
    DatabaseBuilder::new("db")
        .segment("s1")
        .segment("s2")
        .relation(top.finish())
        .relation(lib.finish())
        .finish()
        .expect("generated schema valid")
}

#[derive(Debug, Clone)]
struct Db(DatabaseSchema);

colock_testkit::no_shrink!(Db);

#[test]
fn derivation_invariants() {
    forall!(cases: 64, |rng| Db(schema(rng)), |Db(db)| {
        let g = derive_from_schema(db);
        // Every node except the database root has exactly one solid parent,
        // and is listed among that parent's children.
        for n in g.nodes() {
            if n.id == g.db_node() {
                ensure!(n.parent.is_none());
            } else {
                let p = n.parent.expect("non-root has parent");
                ensure!(g.node(p).children.contains(&n.id));
            }
        }
        // BLUs are leaves; only BLUs carry dashed edges; dashed targets are
        // registered relations.
        for n in g.nodes() {
            if n.category == Category::Blu {
                ensure!(n.children.is_empty(), "{} has children", n.name);
            }
            if let Some(t) = &n.ref_target {
                ensure_eq!(n.category, Category::Blu);
                ensure!(g.relation_node(t).is_some());
            }
        }
        // Ancestor chains terminate at the database node.
        for n in g.nodes() {
            let anc = g.ancestors(n.id);
            if n.id != g.db_node() {
                ensure_eq!(anc[0], g.db_node());
            }
        }
        Ok(())
    });
}

#[test]
fn units_invariants() {
    forall!(cases: 64, |rng| Db(schema(rng)), |Db(db)| {
        let catalog = Catalog::new(db.clone()).unwrap();
        let g = derive_from_schema(db);
        let units = Units::new(&g, &catalog);
        ensure!(units.units_are_disjoint());
        // If top references lib, lib's CO node is an entry point and its
        // superunit chain is db -> s2 -> lib.
        if db.relation("top").unwrap().direct_ref_targets().contains(&"lib") {
            let ep = units.entry_point("lib").expect("lib is common data");
            ensure!(units.is_entry_point(ep));
            let chain = units.superunit_chain("lib");
            ensure_eq!(chain.len(), 3);
        } else {
            ensure!(units.entry_point("lib").is_none());
        }
        Ok(())
    });
}

#[test]
fn proposed_protocol_lock_sets_obey_parent_rule() {
    forall!(
        cases: 64,
        |rng| (Db(schema(rng)), rng.gen_range(1usize..4)),
        |(Db(db), n_objects)| {
            let n_objects = *n_objects;
            // Build a tiny instance: each top object references every lib object.
            let catalog = Arc::new(Catalog::new(db.clone()).unwrap());
            let engine = ProtocolEngine::new(Arc::clone(&catalog));
            let lm = LockManager::new();
            let mut src = StaticSource::new();
            let has_refs = !db.relation("top").unwrap().direct_ref_targets().is_empty();
            for i in 0..n_objects {
                src.add_object("lib", format!("l{i}"));
                src.add_object("top", format!("t{i}"));
                if has_refs {
                    for j in 0..n_objects {
                        src.add_ref(
                            "top",
                            format!("t{i}"),
                            vec![TargetStep::attr("r0")],
                            ObjectRef::new("lib", format!("l{j}")),
                        );
                    }
                }
            }
            let txn = TxnId(1);
            let authz = Authorization::allow_all();
            let cx = LockCtx::new(&lm, txn, &src, &authz);
            let t0 = InstanceTarget::object("top", "t0");
            let report = engine.lock(&cx, ProtocolKind::Proposed, &t0, LockMode::X).unwrap();

            // Cache on ≡ cache off: on a fresh table, the same request with a
            // per-transaction cache grants the same locks in the same order
            // and leaves the same inventory.
            let (lm_cached, cache) = (LockManager::new(), TxnLockCache::new());
            let cached = LockCtx { lm: &lm_cached, cache: Some(&cache), ..cx };
            let with_cache = engine.lock(&cached, ProtocolKind::Proposed, &t0, LockMode::X).unwrap();
            ensure_eq!(with_cache.acquired, report.acquired);
            let sorted = |mut held: Vec<_>| {
                held.sort();
                held
            };
            ensure_eq!(sorted(lm_cached.locks_of(txn)), sorted(lm.locks_of(txn)));

            // Rule check: for every held non-root lock, the parent resource is
            // held in (at least) the required intent mode by the same txn.
            for (resource, mode, _) in lm.locks_of(txn) {
                if let Some(parent) = resource.parent() {
                    let held = lm.held_mode(txn, &parent);
                    let needed = mode.required_parent_intent();
                    ensure!(
                        held.covers(needed),
                        "parent {parent} holds {held}, needs {needed} (child {resource}: {mode})"
                    );
                }
            }
            // Downward propagation reached every referenced lib object.
            if has_refs {
                ensure_eq!(report.entry_points_locked as usize, n_objects);
                for j in 0..n_objects {
                    let lib = engine
                        .resource_for(&InstanceTarget::object("lib", format!("l{j}")))
                        .unwrap();
                    ensure_eq!(lm.held_mode(txn, &lib), LockMode::X);
                }
            } else {
                ensure_eq!(report.entry_points_locked, 0);
            }
            Ok(())
        }
    );
}
