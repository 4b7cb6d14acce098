//! Fixtures shared by the query crate's integration tests.
#![allow(dead_code)]

use colock_core::authorization::{Authorization, Right};
use colock_core::fixtures::fig1_catalog;
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::Value;
use colock_sim::{build_cells_store, CellsConfig};
use colock_storage::Store;
use colock_txn::{ProtocolKind, TransactionManager};
use std::sync::Arc;

/// The Fig. 3 database: effectors e1–e3, cells c1 and c2 with five
/// c_objects each and robots r1 (effectors e1, e2) and r2 (e2, e3).
pub fn populated() -> Arc<Store> {
    let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
    for (e, t) in [("e1", "grip"), ("e2", "weld"), ("e3", "drill")] {
        store
            .insert("effectors", tup(vec![("eff_id", Value::str(e)), ("tool", Value::str(t))]))
            .unwrap();
    }
    for c in ["c1", "c2"] {
        store
            .insert(
                "cells",
                tup(vec![
                    ("cell_id", Value::str(c)),
                    (
                        "c_objects",
                        set((1..=5)
                            .map(|i| {
                                tup(vec![
                                    ("obj_id", Value::str(format!("{c}o{i}"))),
                                    ("obj_name", Value::str(format!("part{i}"))),
                                ])
                            })
                            .collect()),
                    ),
                    (
                        "robots",
                        list(vec![
                            robot("r1", "t1", &["e1", "e2"]),
                            robot("r2", "t2", &["e2", "e3"]),
                        ]),
                    ),
                ]),
            )
            .unwrap();
    }
    store
}

/// The language-extension database: effectors e1, e2 and one cell c1 with
/// c_objects nut, bolt, nut and robot r1 (effector e1).
pub fn extensions_store() -> Arc<Store> {
    let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
    for (e, t) in [("e1", "grip"), ("e2", "weld")] {
        store
            .insert("effectors", tup(vec![("eff_id", Value::str(e)), ("tool", Value::str(t))]))
            .unwrap();
    }
    let c_object = |id: &str, name: &str| {
        tup(vec![("obj_id", Value::str(id)), ("obj_name", Value::str(name))])
    };
    store
        .insert(
            "cells",
            tup(vec![
                ("cell_id", Value::str("c1")),
                (
                    "c_objects",
                    set(vec![c_object("o1", "nut"), c_object("o2", "bolt"), c_object("o3", "nut")]),
                ),
                ("robots", list(vec![robot("r1", "t1", &["e1"])])),
            ]),
        )
        .unwrap();
    store
}

fn robot(id: &str, trajectory: &str, effectors: &[&str]) -> Value {
    tup(vec![
        ("robot_id", Value::str(id)),
        ("trajectory", Value::str(trajectory)),
        ("effectors", set(effectors.iter().map(|e| Value::reference("effectors", *e)).collect())),
    ])
}

/// The `fig7_queries` database: 2 cells × 200 c_objects × 4 robots, 4
/// effectors, 2 per robot, with measured catalog statistics.
pub fn fig7_store() -> Arc<Store> {
    build_cells_store(&CellsConfig {
        n_cells: 2,
        c_objects_per_cell: 200,
        robots_per_cell: 4,
        n_effectors: 4,
        effectors_per_robot: 2,
        seed: 42,
    })
}

/// The engineers' rights: everything updatable except the shared effectors
/// library.
pub fn engineer_authz() -> Authorization {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    authz
}

/// A manager over `store` running the proposed protocol.
pub fn manager(store: Arc<Store>, authz: Authorization) -> TransactionManager {
    TransactionManager::over_store(store, authz, ProtocolKind::Proposed)
}
