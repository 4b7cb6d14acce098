//! F3 — Fig. 3: queries Q1, Q2 and Q3 parsed and analyzed; the analysis
//! shows which attributes each accesses and in which mode (§4.1 step 1).

use colock_core::fixtures::fig1_catalog;
use colock_core::optimizer::Optimizer;
use colock_query::plan::plan_locks;
use colock_query::{analyze::analyze, parse};

const QUERIES: [(&str, &str); 3] = [
    (
        "Q1",
        "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ",
    ),
    (
        "Q2",
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE",
    ),
    (
        "Q3",
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE",
    ),
];

fn main() {
    let catalog = fig1_catalog();
    for (name, text) in QUERIES {
        println!("{name}: {text}");
        let stmt = parse(text).expect("parse");
        let a = analyze(&catalog, &stmt).expect("analyze");
        for r in &a.ranges {
            println!(
                "  range {:>2} in {}.{} key={:?} pinned={:?}",
                r.var,
                r.relation,
                r.path,
                r.key_attr(&catalog),
                r.key_predicate.as_ref().map(|k| k.to_string()),
            );
        }
        for acc in &a.accesses {
            println!(
                "  access var={} path={} mode={:?} whole_element={}",
                acc.var, acc.path, acc.mode, acc.whole_element
            );
        }
        let plan = plan_locks(&catalog, stmt.clone(), a, &Optimizer::default()).expect("plan");
        for line in plan.explain().lines() {
            println!("  | {line}");
        }
        println!();
    }
    println!("Q1 and Q2 access different parts of complex object c1 ->");
    println!("no conflict at the logical level; they could run simultaneously (§3.2.1).");
}
