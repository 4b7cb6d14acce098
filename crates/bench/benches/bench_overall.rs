//! Companion to E6 plus the §4.6 disadvantage-1 measurement:
//! the once-per-query analysis/planning overhead of the proposed technique.

use colock_bench::cells_manager;
use colock_core::optimizer::Optimizer;
use colock_query::{analyze::analyze, parse, plan::plan_locks};
use colock_sim::{run_threads, CellsConfig, QueryMix, ThreadConfig};
use colock_testkit::BenchHarness;
use colock_txn::{ProtocolKind, TxnKind};

const Q2: &str = "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE";
const Q1: &str = "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ";
/// Fig. 7's Q3 as `fig7_queries` sends it: one trajectory update.
const Q3_FIG7: &str = "UPDATE r.trajectory = 'w0-1' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' AND r.robot_id = 'r3'";

fn bench_mixed_throughput(h: &mut BenchHarness) {
    let mut group = h.group("e6_mixed_throughput");
    let cells = CellsConfig {
        n_cells: 4,
        c_objects_per_cell: 40,
        robots_per_cell: 4,
        n_effectors: 6,
        effectors_per_robot: 2,
        ..Default::default()
    };
    for protocol in [
        ProtocolKind::Proposed,
        ProtocolKind::ProposedRule4,
        ProtocolKind::WholeObject,
        ProtocolKind::TupleLevel,
    ] {
        group.bench(&format!("engineering_mix/{}", protocol.name()), |b| {
            b.iter(|| {
                let mgr = cells_manager(&cells, protocol);
                let cfg = ThreadConfig {
                    workers: 4,
                    txns_per_worker: 8,
                    ops_per_txn: 3,
                    mix: QueryMix::engineering(),
                    seed: 9,
                    cells,
                    readonly_pct: 0,
                };
                run_threads(&mgr, &cfg)
            });
        });
    }
    group.finish();
}

/// §4.6 disadvantage 1: "some additional but small overhead to determine
/// (only once) the object- and query-specific lock graph before the
/// execution of a query". Measured: parse+analyze+plan vs full execution.
fn bench_plan_overhead(h: &mut BenchHarness) {
    let mut group = h.group("disadvantage1_plan_overhead");
    let cells = CellsConfig::default();
    let mgr = cells_manager(&cells, ProtocolKind::Proposed);
    let catalog = mgr.store().catalog().clone();
    group.bench("parse_analyze_plan_q2", |b| {
        b.iter(|| {
            let stmt = parse(Q2).unwrap();
            let a = analyze(&catalog, &stmt).unwrap();
            plan_locks(&catalog, stmt, a, &Optimizer::default()).unwrap()
        });
    });
    group.bench("full_execution_q2", |b| {
        b.iter(|| {
            let t = mgr.begin(TxnKind::Short);
            let out = colock_query::exec::run(&t, Q2, &Optimizer::default()).unwrap();
            t.commit().unwrap();
            out
        });
    });
    // Fig. 7's Q1 on the `fig7_queries` database: all 200 c_objects of a
    // cell under one subtree S lock, so the cost is the row loop's.
    let fig7 = cells_manager(
        &CellsConfig {
            n_cells: 2,
            c_objects_per_cell: 200,
            robots_per_cell: 4,
            n_effectors: 4,
            effectors_per_robot: 2,
            seed: 42,
        },
        ProtocolKind::Proposed,
    );
    let fig7_catalog = fig7.store().catalog().clone();
    for (name, stmt) in
        [("parse_analyze_plan_q1_fig7", Q1), ("parse_analyze_plan_q3_fig7", Q3_FIG7)]
    {
        group.bench(name, |b| {
            b.iter(|| {
                let parsed = parse(stmt).unwrap();
                let a = analyze(&fig7_catalog, &parsed).unwrap();
                plan_locks(&fig7_catalog, parsed, a, &Optimizer::default()).unwrap()
            });
        });
    }
    group.bench("full_execution_q1_fig7", |b| {
        b.iter(|| {
            let t = fig7.begin(TxnKind::Short);
            let out = colock_query::exec::run(&t, Q1, &Optimizer::default()).unwrap();
            t.commit().unwrap();
            out
        });
    });
    group.finish();
}

fn main() {
    let mut h = BenchHarness::new();
    bench_mixed_throughput(&mut h);
    bench_plan_overhead(&mut h);
}
