//! What every statement locks, pinned: each statement of `end_to_end.rs`
//! and `extensions.rs` and the five `fig7_queries` statement shapes, with
//! its rows, its counters and the transaction's held set afterwards
//! (resource, mode, long flag, read with `LockManager::for_each_grant`).
//!
//! The expected text is `tests/golden/lock_sets.txt`. On a mismatch the
//! test writes `tests/golden/lock_sets.actual` beside it and fails; a change
//! that means to lock differently replaces the golden with that file and
//! says why.

mod common;

use colock_core::authorization::{Authorization, Right};
use colock_core::optimizer::Optimizer;
use colock_query::exec::run;
use colock_query::{analyze::analyze, parse, plan_locks};
use colock_storage::Store;
use colock_txn::{Transaction, TransactionManager, TxnKind};
use std::fmt::Write;
use std::path::Path;
use std::sync::Arc;

/// One pinned case: statements run in order in one short transaction on a
/// fresh manager, after `setup` statements committed in one before it.
struct Case {
    name: &'static str,
    store: fn() -> Arc<Store>,
    authz: fn() -> Authorization,
    theta: f64,
    librarian: bool,
    setup: &'static [&'static str],
    stmts: &'static [&'static str],
}

const E2E: Case = Case {
    name: "",
    store: common::populated,
    authz: common::engineer_authz,
    theta: 16.0,
    librarian: false,
    setup: &[],
    stmts: &[],
};

const EXT: Case = Case { store: common::extensions_store, authz: Authorization::allow_all, ..E2E };

const FIG7: Case = Case { store: common::fig7_store, ..E2E };

fn populated_with_stats() -> Arc<Store> {
    let staging = common::populated();
    let store = Arc::new(Store::new(Arc::new(colock_storage::stats::catalog_with_stats(&staging))));
    for rel in ["effectors", "cells"] {
        for (_, v) in staging.snapshot(rel).unwrap().objects() {
            store.insert(rel, v).unwrap();
        }
    }
    store
}

const CASES: &[Case] = &[
    // end_to_end.rs
    Case {
        name: "e2e_q1",
        stmts: &["SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ"],
        ..E2E
    },
    Case {
        name: "e2e_q2",
        stmts: &["SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE"],
        ..E2E
    },
    Case {
        name: "e2e_q3",
        stmts: &["SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE"],
        ..E2E
    },
    Case {
        name: "e2e_update_trajectory",
        stmts: &["UPDATE r.trajectory = 'vertical' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2'"],
        ..E2E
    },
    Case {
        name: "e2e_non_key_predicate",
        stmts: &["SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.trajectory = 't2' FOR READ"],
        ..E2E
    },
    Case {
        name: "e2e_full_scan_without_stats",
        theta: 2.0,
        stmts: &["SELECT c FROM c IN cells FOR READ"],
        ..E2E
    },
    Case {
        name: "e2e_full_scan_with_stats",
        store: populated_with_stats,
        theta: 2.0,
        stmts: &["SELECT c FROM c IN cells FOR READ"],
        ..E2E
    },
    Case {
        name: "e2e_delete_element",
        stmts: &["DELETE r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' AND r.robot_id = 'r1'"],
        ..E2E
    },
    Case {
        name: "e2e_remaining_robots",
        stmts: &["SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' FOR READ"],
        ..E2E
    },
    Case {
        name: "e2e_delete_object",
        authz: Authorization::allow_all,
        setup: &["INSERT INTO effectors VALUES (eff_id: 'e9', tool: 'x')"],
        stmts: &["DELETE e FROM e IN effectors WHERE e.eff_id = 'e9'"],
        ..E2E
    },
    Case {
        name: "e2e_update_then_rollback",
        stmts: &["UPDATE r.trajectory = 'zzz' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1'"],
        ..E2E
    },
    Case {
        name: "e2e_insert",
        authz: Authorization::allow_all,
        stmts: &["INSERT INTO effectors VALUES (eff_id: 'e7', tool: 'probe')"],
        ..E2E
    },
    Case {
        name: "e2e_scan_update_six",
        stmts: &["UPDATE r.trajectory = 'patched' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.trajectory = 't1'"],
        ..E2E
    },
    // extensions.rs
    Case {
        name: "ext_multi_projection",
        stmts: &["SELECT o.obj_id, o.obj_name FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ"],
        ..EXT
    },
    Case {
        name: "ext_count_star",
        stmts: &["SELECT COUNT(*) FROM c IN cells, o IN c.c_objects WHERE o.obj_name = 'nut' FOR READ"],
        ..EXT
    },
    Case {
        name: "ext_count_star_zero",
        stmts: &["SELECT COUNT(*) FROM c IN cells WHERE c.cell_id = 'nope' FOR READ"],
        ..EXT
    },
    Case {
        name: "ext_insert_literal",
        stmts: &["INSERT INTO effectors VALUES (eff_id: 'e9', tool: 'laser')"],
        ..EXT
    },
    Case {
        name: "ext_read_inserted",
        setup: &["INSERT INTO effectors VALUES (eff_id: 'e9', tool: 'laser')"],
        stmts: &["SELECT e.tool FROM e IN effectors WHERE e.eff_id = 'e9' FOR READ"],
        ..EXT
    },
    Case {
        name: "ext_insert_type_mismatch",
        stmts: &["INSERT INTO effectors VALUES (eff_id: 'e8', tool: 42)"],
        ..EXT
    },
    Case {
        name: "ext_mixed_projection",
        stmts: &["SELECT r, r.trajectory FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' FOR READ"],
        ..EXT
    },
    // The fig7_queries statement shapes, on its database.
    Case {
        name: "fig7_q1_read_c_objects",
        stmts: &["SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c2' FOR READ"],
        ..FIG7
    },
    Case {
        name: "fig7_q2_select_update_robot",
        stmts: &[
            "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r3' FOR UPDATE",
            "UPDATE r.trajectory = 'w0-7' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r3'",
        ],
        ..FIG7
    },
    Case {
        name: "fig7_q3_update_trajectory",
        stmts: &["UPDATE r.trajectory = 'w1-2' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' AND r.robot_id = 'r4'"],
        ..FIG7
    },
    Case {
        name: "fig7_effector_read",
        stmts: &["SELECT e FROM e IN effectors WHERE e.eff_id = 'e2' FOR READ"],
        ..FIG7
    },
    Case {
        name: "fig7_effector_update",
        librarian: true,
        stmts: &["UPDATE e.tool = 'w0-9' FROM e IN effectors WHERE e.eff_id = 'e3'"],
        ..FIG7
    },
];

/// Rows are printed in full up to this many; longer results print the
/// first few and an FNV-1a digest of all of them.
const ROWS_IN_FULL: usize = 8;

fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The transaction's grants, one sorted line each.
fn held_set(mgr: &TransactionManager, txn: &Transaction<'_>) -> Vec<String> {
    let mut held = Vec::new();
    mgr.lock_manager().for_each_grant(|r, t, mode, long| {
        if t == txn.id() {
            held.push(format!("{r} {mode}{}", if long { " long" } else { "" }));
        }
    });
    held.sort();
    held
}

fn render(case: &Case, out: &mut String) {
    let mgr = common::manager((case.store)(), (case.authz)());
    let optimizer = Optimizer::new(case.theta);
    if !case.setup.is_empty() {
        let t = mgr.begin(TxnKind::Short);
        for s in case.setup {
            run(&t, s, &optimizer).unwrap();
        }
        t.commit().unwrap();
    }
    let txn = mgr.begin(TxnKind::Short);
    if case.librarian {
        mgr.authorization().grant(txn.id(), "effectors", Right::Update);
    }
    let _ = writeln!(out, "== {}", case.name);
    for text in case.stmts {
        let _ = writeln!(out, "stmt: {text}");
        if let Ok(stmt) = parse(text) {
            let catalog = mgr.store().catalog().clone();
            if let Ok(analysis) = analyze(&catalog, &stmt) {
                let plan = plan_locks(&catalog, stmt, analysis, &optimizer).unwrap();
                for line in plan.explain().lines() {
                    let _ = writeln!(out, "  | {line}");
                }
            }
        }
        match run(&txn, text, &optimizer) {
            Ok(o) => {
                let _ = writeln!(
                    out,
                    "rows: {}  updated: {}  deleted: {}  lock_requests: {}  entry_points_locked: {}",
                    o.rows.len(),
                    o.updated,
                    o.deleted,
                    o.lock_requests,
                    o.entry_points_locked
                );
                let all: Vec<String> = o.rows.iter().map(ToString::to_string).collect();
                let shown = if all.len() > ROWS_IN_FULL { 3 } else { all.len() };
                for row in &all[..shown] {
                    let _ = writeln!(out, "  {row}");
                }
                if shown < all.len() {
                    let _ = writeln!(
                        out,
                        "  … {} more; digest of all {:016x}",
                        all.len() - shown,
                        fnv(&all.join("\n"))
                    );
                }
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        }
    }
    let _ = writeln!(out, "held:");
    for line in held_set(&mgr, &txn) {
        let _ = writeln!(out, "  {line}");
    }
    txn.abort().unwrap();
}

#[test]
fn every_statement_locks_what_the_golden_says() {
    let mut actual = String::new();
    for case in CASES {
        render(case, &mut actual);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let golden = std::fs::read_to_string(dir.join("lock_sets.txt")).unwrap_or_default();
    if golden != actual {
        std::fs::write(dir.join("lock_sets.actual"), &actual).unwrap();
        let first = golden
            .lines()
            .zip(actual.lines())
            .position(|(g, a)| g != a)
            .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
        panic!(
            "lock sets differ from tests/golden/lock_sets.txt (first at line {}); \
             the actual text is in tests/golden/lock_sets.actual",
            first + 1
        );
    }
}
