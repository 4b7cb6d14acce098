//! The paper's figures (F1–F7) and the deterministic evaluated claims
//! (E1–E4, E6–E10), each as the text it prints. [`PAPER`] is the one list
//! of them: the `paper` binary prints an entry, and the root package's
//! `tests/goldens.rs` compares every entry with `tests/golden/<name>.txt`.
//! Everything here runs on fixed seeds, the deterministic tick driver or a
//! single thread, so each text is the same on every run and every host.
//! `EXPERIMENTS.md` records each text with its paper statement and shape
//! check.

use crate::{cells_manager, cells_manager_writable, f1, standard_authz};
use colock_core::authorization::Authorization;
use colock_core::fixtures::{fig1_catalog, fig1_schema, fig6_source};
use colock_core::graph::display::{concept_graph_text, object_graph_tree, render_held_locks};
use colock_core::optimizer::Optimizer;
use colock_core::{
    derive_lock_graph, AccessMode, Category, ConceptGraph, InstanceTarget, LockCtx, ProtocolEngine,
    ProtocolOptions, ResourcePath, Right, Units,
};
use colock_lockmgr::{LockManager, LockMode, TxnId};
use colock_nf2::display::database_tree;
use colock_nf2::{ObjectKey, Value};
use colock_query::plan::plan_locks;
use colock_query::{analyze::analyze, parse};
use colock_sim::consistency::{run_scripted, HOp};
use colock_sim::driver::ticks::TickConfig;
use colock_sim::metrics::Table;
use colock_sim::workload::chain::{build_chain_store, level_key, level_relation, ChainConfig};
use colock_sim::{build_cells_store, CellsConfig, Op, OpGenerator, QueryMix, TickDriver};
use colock_testkit::Rng;
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::fmt::{self, Write};
use std::sync::Arc;

/// Renders one artifact's text.
pub type Render = fn() -> String;

/// Every artifact, by name, with the function that renders its text.
pub const PAPER: &[(&str, Render)] = &[
    ("fig1_schema", || text(fig1)),
    ("fig2_systemr_graphs", || text(fig2)),
    ("fig3_queries", || text(fig3)),
    ("fig4_general_graph", || text(fig4)),
    ("fig5_object_graph", || text(fig5)),
    ("fig6_units", || text(fig6)),
    ("fig7_locks", || text(fig7)),
    ("exp1_granule", || text(exp1)),
    ("exp2_shared_xlock", || text(exp2)),
    ("exp3_from_the_side", || text(exp3)),
    ("exp4_rule4prime", || text(exp4)),
    ("exp6_overall", || text(exp6)),
    ("exp7_checkout", || text(exp7)),
    ("exp8_deescalation", || text(exp8)),
    ("exp9_depth_benefit", || text(exp9)),
    ("exp10_serializability", || text(exp10)),
];

fn text(body: fn(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    body(&mut out).expect("writing to a String cannot fail");
    out
}

/// F1 — Fig. 1: the schema of the relations `cells` and `effectors`.
fn fig1(o: &mut String) -> fmt::Result {
    let schema = fig1_schema();
    writeln!(o, "Figure 1 — Non-Disjoint, Non-Recursive Complex Objects")?;
    writeln!(o, "schema of the relations \"cells\" and \"effectors\"\n")?;
    write!(o, "{}", database_tree(&schema))?;
    writeln!(o)?;
    writeln!(
        o,
        "common-data relations: {:?}",
        schema.common_data_relations().iter().map(|r| &r.name).collect::<Vec<_>>()
    )?;
    writeln!(
        o,
        "top-level relations:   {:?}",
        schema.unreferenced_relations().iter().map(|r| &r.name).collect::<Vec<_>>()
    )
}

/// F2 — Fig. 2: the System R (a) and XSQL (b) lock graphs, and the check
/// that both are special cases of the general lock graph (§4.2).
fn fig2(o: &mut String) -> fmt::Result {
    writeln!(o, "Figure 2 (a) — Lock graph (DAG) of System R\n")?;
    write!(o, "{}", concept_graph_text(&ConceptGraph::system_r()))?;
    writeln!(o, "\nFigure 2 (b) — Lock graph of XSQL (complex objects added)\n")?;
    write!(o, "{}", concept_graph_text(&ConceptGraph::xsql()))?;
    writeln!(o)?;
    writeln!(o, "System R graph acyclic: {}", ConceptGraph::system_r().solid_part_is_acyclic())?;
    writeln!(
        o,
        "System R is a special case of the general graph: {}",
        ConceptGraph::system_r().is_special_case_of_general()
    )?;
    writeln!(
        o,
        "XSQL is a special case of the general graph:     {}",
        ConceptGraph::xsql().is_special_case_of_general()
    )
}

/// F3 — Fig. 3: queries Q1, Q2 and Q3 parsed and analyzed; the analysis
/// shows which attributes each accesses and in which mode (§4.1 step 1).
fn fig3(o: &mut String) -> fmt::Result {
    const QUERIES: [(&str, &str); 3] = [
        ("Q1", "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ"),
        (
            "Q2",
            "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE",
        ),
        (
            "Q3",
            "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE",
        ),
    ];
    let catalog = fig1_catalog();
    for (name, query) in QUERIES {
        writeln!(o, "{name}: {query}")?;
        let stmt = parse(query).expect("parse");
        let a = analyze(&catalog, &stmt).expect("analyze");
        for r in &a.ranges {
            writeln!(
                o,
                "  range {:>2} in {}.{} key={:?} pinned={:?}",
                r.var,
                r.relation,
                r.path,
                r.key_attr(&catalog),
                r.key_predicate.as_ref().map(|k| k.to_string()),
            )?;
        }
        for acc in &a.accesses {
            writeln!(
                o,
                "  access var={} path={} mode={:?} whole_element={}",
                acc.var, acc.path, acc.mode, acc.whole_element
            )?;
        }
        let plan = plan_locks(&catalog, stmt.clone(), a, &Optimizer::default()).expect("plan");
        for line in plan.explain().lines() {
            writeln!(o, "  | {line}")?;
        }
        writeln!(o)?;
    }
    writeln!(o, "Q1 and Q2 access different parts of complex object c1 ->")?;
    writeln!(o, "no conflict at the logical level; they could run simultaneously (§3.2.1).")
}

/// F4 — Fig. 4: the general lock graph for disjoint and non-disjoint
/// complex objects.
fn fig4(o: &mut String) -> fmt::Result {
    writeln!(o, "Figure 4 — General Lock Graph for Disjoint and Non-Disjoint Complex Objects\n")?;
    write!(o, "{}", concept_graph_text(&ConceptGraph::general()))?;
    writeln!(o)?;
    writeln!(o, "HeLU: heterogeneous lockable unit (complex tuple)")?;
    writeln!(o, "HoLU: homogeneous lockable unit (set / list)")?;
    writeln!(o, "BLU:  basic lockable unit (atomic attribute or reference)")?;
    writeln!(o)?;
    writeln!(o, "solid edge  --> : composition within non-shared data")?;
    writeln!(o, "dashed edge - ->: reference to common data (entry into an inner unit)")
}

/// F5 — Fig. 5: the object-specific lock graph of `cells` and its common
/// data (`effectors`), derived from the schema by the rules of §4.3.
fn fig5(o: &mut String) -> fmt::Result {
    let catalog = fig1_catalog();
    let graph = derive_lock_graph(&catalog);
    writeln!(o, "Figure 5 — Object-Specific Lock Graph: \"cells\" and its common data\n")?;
    write!(o, "{}", object_graph_tree(&graph))?;
    writeln!(o)?;
    let mut counts = std::collections::BTreeMap::new();
    for n in graph.nodes() {
        *counts.entry(format!("{}", n.category)).or_insert(0usize) += 1;
    }
    writeln!(o, "node counts by category: {counts:?}")?;
    let helu = graph.nodes().iter().filter(|n| n.category == Category::HeLU).count();
    writeln!(o, "HeLU nodes (complex tuples): {helu}")?;
    writeln!(
        o,
        "dashed edges from cells: {:?} (ref BLU -> entry point)",
        graph.dashed_targets("cells")
    )
}

/// F6 — Fig. 6: outer unit, inner units, entry points and superunits of
/// complex object "cell c1".
fn fig6(o: &mut String) -> fmt::Result {
    let catalog = fig1_catalog();
    let graph = derive_lock_graph(&catalog);
    let units = Units::new(&graph, &catalog);
    writeln!(o, "Figure 6 — Units of complex object \"cell c1\"\n")?;
    writeln!(o, "outer unit \"cells\" (nodes):")?;
    for id in units.unit_nodes("cells") {
        writeln!(o, "  {}", graph.node(id).name)?;
    }
    writeln!(o, "\ninner unit \"effectors\" (nodes):")?;
    for id in units.unit_nodes("effectors") {
        writeln!(o, "  {}", graph.node(id).name)?;
    }
    let ep = units.entry_point("effectors").expect("entry point");
    writeln!(o, "\nentry point of the inner unit: {}", graph.node(ep).name)?;
    writeln!(o, "superunit chain of the entry point (immediate parents up to the database):")?;
    for id in units.superunit_chain("effectors") {
        writeln!(o, "  {}", graph.node(id).name)?;
    }
    writeln!(o, "\nunits are disjoint: {}", units.units_are_disjoint())?;
    writeln!(
        o,
        "entry points reachable from \"cells\": {:?}",
        units.entry_points_below("cells").iter().map(|(rel, _)| rel.clone()).collect::<Vec<_>>()
    )
}

/// F7 — Fig. 7: the exact lock sets held by queries Q2 and Q3, and their
/// concurrent execution under rule 4′ although both touch effector e2.
fn fig7(o: &mut String) -> fmt::Result {
    let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
    let lm = LockManager::new();
    let src = fig6_source();
    // Fig. 7 assumption: neither Q2 nor Q3 may update relation "effectors".
    let authz = standard_authz();
    let q2 = InstanceTarget::object("cells", "c1").elem("robots", "r1");
    let q3 = InstanceTarget::object("cells", "c1").elem("robots", "r2");

    writeln!(o, "Figure 7 — Complex Object \"c1\" and the locks held by Q2 and Q3\n")?;
    let t2 = TxnId(2);
    let r2 = engine
        .lock(&LockCtx::new(&lm, t2, &src, &authz), ProtocolKind::Proposed, &q2, LockMode::X)
        .expect("Q2 locks");
    writeln!(o, "locks acquired by Q2 (X on robot r1), in request order:")?;
    write!(o, "{}", r2.render())?;

    let t3 = TxnId(3);
    let try_lock = ProtocolOptions::default().try_lock();
    let r3 = engine
        .lock(
            &LockCtx { opts: try_lock, ..LockCtx::new(&lm, t3, &src, &authz) },
            ProtocolKind::Proposed,
            &q3,
            LockMode::X,
        )
        .expect("Q3 must not block although both queries touch effector e2 (rule 4')");
    writeln!(o, "\nlocks acquired by Q3 (X on robot r2), in request order:")?;
    write!(o, "{}", r3.render())?;

    writeln!(o, "\ncombined lock table in Fig. 7 style:")?;
    write!(o, "{}", render_held_locks(&lm, &[(t2, "Q2"), (t3, "Q3")]))?;

    writeln!(o, "\nboth transactions hold S on the shared effector e2:")?;
    let e2 = engine.resource_for(&InstanceTarget::object("effectors", "e2")).unwrap();
    for (txn, mode) in lm.holders(&e2) {
        writeln!(o, "  {txn}: {mode}")?;
    }
    writeln!(o, "\nQ2 and Q3 run concurrently under rule 4' — reproduced.")?;

    // Contrast: plain rule 4 serializes them.
    let lm2 = LockManager::new();
    let permissive = Authorization::allow_all();
    engine
        .lock(
            &LockCtx::new(&lm2, t2, &src, &permissive),
            ProtocolKind::ProposedRule4,
            &q2,
            LockMode::X,
        )
        .unwrap();
    let blocked = engine
        .lock(
            &LockCtx { opts: try_lock, ..LockCtx::new(&lm2, t3, &src, &permissive) },
            ProtocolKind::ProposedRule4,
            &q3,
            LockMode::X,
        )
        .is_err();
    writeln!(o, "under plain rule 4 the same pair serializes on e2: {blocked}")
}

/// E1 — the granule-oriented problem (§3.2.1). Whole-object locking
/// serializes Q1 ∥ Q2 although they touch different parts of cell c1;
/// tuple-level locking's lock count grows with the cell; the proposed
/// granules interleave at O(depth) locks. Per cell size and protocol: Q1's
/// locks, and whether Q1 ∥ Q2 interleave on the tick driver.
fn exp1(o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "E1 — granule-oriented problem: Q1 (read parts) vs Q2 (update robot) on one cell\n"
    )?;
    let mut table =
        Table::new(&["c_objects", "protocol", "locks(Q1)", "blocked", "ticks", "interleaves"]);
    for n in [10usize, 50, 100, 500, 1000] {
        let cfg = CellsConfig {
            n_cells: 1,
            c_objects_per_cell: n,
            robots_per_cell: 4,
            ..Default::default()
        };
        for protocol in [ProtocolKind::Proposed, ProtocolKind::WholeObject, ProtocolKind::TupleLevel] {
            let mgr = cells_manager(&cfg, protocol);
            // Lock footprint of Q1 alone.
            let t = mgr.begin(TxnKind::Short);
            let (target, access) = Op::ReadParts { cell: 0 }.target();
            let locks = t.lock(&target, access).expect("Q1 locks").lock_count();
            t.commit().unwrap();

            // Interleaving of Q1 ∥ Q2 under the deterministic driver.
            let out = TickDriver::new(&mgr, TickConfig::default()).run(vec![
                vec![vec![Op::ReadParts { cell: 0 }, Op::ReadParts { cell: 0 }]],
                vec![vec![Op::UpdateRobot { cell: 0, robot: 0 }]],
            ]);
            table.row(vec![
                n.to_string(),
                protocol.name().to_string(),
                locks.to_string(),
                out.metrics.blocked_ticks.to_string(),
                out.metrics.total_ticks.to_string(),
                (out.metrics.blocked_ticks == 0).to_string(),
            ]);
        }
    }
    writeln!(o, "{}", table.render())?;
    writeln!(o, "expected shape (paper): whole-object never interleaves; tuple-level")?;
    writeln!(o, "interleaves but its lock count grows linearly with c_objects; the")?;
    writeln!(o, "proposed technique interleaves at a small, size-independent lock count.")
}

/// E2 — the protocol-oriented problem, part 1 (§3.2.2): to X-lock a shared
/// effector the naive DAG protocol must find (reverse scan) and IX-lock
/// every robot referencing it; the proposed protocol locks the entry point
/// with its superunit only. Sweeps the sharing degree.
fn exp2(o: &mut String) -> fmt::Result {
    writeln!(o, "E2 — X-lock on a shared effector: naive DAG vs proposed\n")?;
    let mut table =
        Table::new(&["cells", "sharing", "protocol", "locks", "scanned_objs", "entry_pts"]);
    for n_cells in [1usize, 2, 4, 8, 16, 32] {
        let cfg = CellsConfig {
            n_cells,
            c_objects_per_cell: 10,
            robots_per_cell: 4,
            n_effectors: 4,
            effectors_per_robot: 2,
            ..Default::default()
        };
        for protocol in [ProtocolKind::NaiveDag, ProtocolKind::Proposed] {
            let mgr = cells_manager_writable(&cfg, protocol);
            let t = mgr.begin(TxnKind::Short);
            let target = InstanceTarget::object("effectors", "e1");
            let report = t.lock(&target, AccessMode::Update).expect("X on e1");
            table.row(vec![
                n_cells.to_string(),
                format!("{:.1}", cfg.sharing_degree()),
                protocol.name().to_string(),
                report.lock_count().to_string(),
                report.scan_cost.to_string(),
                report.entry_points_locked.to_string(),
            ]);
            t.commit().unwrap();
        }
    }
    writeln!(o, "{}", table.render())?;
    writeln!(o, "expected shape (paper): naive-DAG lock count and scan cost grow with")?;
    writeln!(o, "the number of referencing robots (sharing degree x cells); the proposed")?;
    writeln!(o, "protocol stays flat — 'an acceptable overhead to lock common data")?;
    writeln!(o, "exclusively' (§4.6 advantage 2).")
}

/// E3 — the protocol-oriented problem, part 2 (§3.2.2): from-the-side
/// access to common data. T1 X-locks robot r1; under the relaxed naive
/// protocol the effectors r1 uses are only implicitly locked, so T2 X-locks
/// one directly and updates it, and T1's repeated read differs (a degree-3
/// violation). The proposed entry-point locks make T2 block.
fn exp3(o: &mut String) -> fmt::Result {
    writeln!(o, "E3 — from-the-side access to common data\n")?;
    let mut table = Table::new(&["protocol", "T2 X(e) blocked", "T1 sees stable reads", "anomaly"]);
    for protocol in [ProtocolKind::NaiveRelaxed, ProtocolKind::NaiveDag, ProtocolKind::Proposed] {
        let cfg = CellsConfig { n_cells: 2, n_effectors: 4, ..Default::default() };
        let mgr = cells_manager_writable(&cfg, protocol);
        let store = mgr.store().clone();

        // T1 locks robot r1 of c1 for update and reads one of its effectors.
        let t1 = mgr.begin(TxnKind::Short);
        let robot = InstanceTarget::object("cells", "c1").elem("robots", "r1");
        t1.lock(&robot, AccessMode::Update).unwrap();
        let robot_val = store.get_at("cells", &ObjectKey::from("c1"), &robot.steps).unwrap();
        let mut refs = Vec::new();
        robot_val.collect_refs(&mut refs);
        let eff_ref = refs[0].clone();
        let read1 = store.get(&eff_ref.relation, &eff_ref.key).unwrap();

        // T2 updates that effector directly, from the side.
        let t2 = mgr.begin(TxnKind::Short);
        let e_target = InstanceTarget::object("effectors", eff_ref.key.clone());
        let blocked = t2.try_lock(&e_target, AccessMode::Update).is_err();
        if blocked {
            t2.abort().unwrap();
        } else {
            t2.update(&e_target.clone().attr("tool"), Value::str("SIDE-WRITE")).unwrap();
            t2.commit().unwrap();
        }

        // T1 re-reads (degree 3: must be identical).
        let stable = read1 == store.get(&eff_ref.relation, &eff_ref.key).unwrap();
        t1.commit().unwrap();
        table.row(vec![
            protocol.name().to_string(),
            blocked.to_string(),
            stable.to_string(),
            (!stable).to_string(),
        ]);
    }
    writeln!(o, "{}", table.render())?;
    writeln!(o, "expected shape (paper): the relaxed naive protocol (all-parents rule")?;
    writeln!(o, "given up) does not detect the conflict -> T1's repeated read changes,")?;
    writeln!(o, "an inconsistency; the full naive protocol detects it but only at the")?;
    writeln!(o, "price of the E2 reverse-scan; the proposed protocol detects it via the")?;
    writeln!(o, "explicit entry-point lock (§3.2.2, §4.6 advantage 3).")
}

/// E4 — the authorization-oriented problem (§3.2.3, rule 4′). Robot
/// updaters without update rights on the effectors library: under plain
/// rule 4 each X-locks the shared effectors and they serialize; under rule
/// 4′ they S-lock them and run concurrently (Fig. 7's Q2 ∥ Q3
/// generalized). Sweeps the number of concurrent updaters.
fn exp4(o: &mut String) -> fmt::Result {
    writeln!(o, "E4 — rule 4 vs rule 4': concurrent robot updaters sharing effectors\n")?;
    let mut table =
        Table::new(&["updaters", "protocol", "ticks", "blocked", "deadlocks", "thr/ktick"]);
    for workers in [2usize, 4, 8, 16] {
        let cfg = CellsConfig {
            n_cells: workers,
            robots_per_cell: 2,
            n_effectors: 2, // heavy sharing: everyone touches the same library
            effectors_per_robot: 2,
            c_objects_per_cell: 5,
            ..Default::default()
        };
        for protocol in [ProtocolKind::Proposed, ProtocolKind::ProposedRule4] {
            let mgr = cells_manager(&cfg, protocol);
            // Worker w updates robots of its own cell (disjoint robots,
            // shared effectors), three ops per transaction so the robot and
            // effector locks are held across ticks.
            let scripts: Vec<Vec<Vec<Op>>> = (0..workers)
                .map(|w| {
                    (0..5)
                        .map(|i| {
                            vec![
                                Op::UpdateRobot { cell: w, robot: i % cfg.robots_per_cell },
                                Op::ReadParts { cell: w },
                                Op::UpdateRobot { cell: w, robot: (i + 1) % cfg.robots_per_cell },
                            ]
                        })
                        .collect()
                })
                .collect();
            let out = TickDriver::new(&mgr, TickConfig::default()).run(scripts);
            table.row(vec![
                workers.to_string(),
                protocol.name().to_string(),
                out.metrics.total_ticks.to_string(),
                out.metrics.blocked_ticks.to_string(),
                out.metrics.deadlock_aborts.to_string(),
                format!("{:.0}", out.metrics.throughput_per_kilotick()),
            ]);
        }
    }
    writeln!(o, "{}", table.render())?;
    writeln!(o, "expected shape (paper): rule 4' shows no blocking (all updaters share")?;
    writeln!(o, "S entry locks); plain rule 4 serializes on the X-locked effectors, so")?;
    writeln!(o, "blocked ticks grow with the updater count — 'can drastically increase")?;
    writeln!(o, "the degree of concurrency' (§3.2.3).")
}

/// E6 — overall comparison (§4.6): throughput and overhead of the four
/// techniques over mixed workloads, plus disadvantage 2 measured.
fn exp6(o: &mut String) -> fmt::Result {
    writeln!(o, "E6 — overall: mixed workloads under four lock techniques\n")?;
    for (mix_name, mix) in [
        ("engineering", QueryMix::engineering()),
        ("read-only", QueryMix::read_only()),
        ("update-heavy", QueryMix::update_heavy()),
    ] {
        writeln!(o, "mix = {mix_name}:")?;
        let mut table = Table::new(&[
            "protocol", "committed", "ticks", "thr/ktick", "blocked", "deadlocks",
            "locks/txn", "locks/attempt", "conflict_tests", "max_table", "reads_elided",
        ]);
        for protocol in [
            ProtocolKind::Proposed,
            ProtocolKind::ProposedRule4,
            ProtocolKind::WholeObject,
            ProtocolKind::TupleLevel,
        ] {
            let cfg = CellsConfig {
                n_cells: 4,
                c_objects_per_cell: 40,
                robots_per_cell: 4,
                n_effectors: 6,
                effectors_per_robot: 2,
                ..Default::default()
            };
            let mgr = cells_manager(&cfg, protocol);
            // All-read transactions ride the multiversion overlay: they show
            // up in `reads_elided` instead of the lock columns.
            let driver =
                TickDriver::new(&mgr, TickConfig { snapshot_readers: true, ..Default::default() });
            let mut gen = OpGenerator::new(cfg, mix, 1234);
            let scripts: Vec<Vec<Vec<Op>>> =
                (0..8).map(|_| (0..8).map(|_| gen.next_txn(3)).collect()).collect();
            let m = driver.run(scripts).metrics;
            table.row(vec![
                protocol.name().to_string(),
                m.committed.to_string(),
                m.total_ticks.to_string(),
                format!("{:.0}", m.throughput_per_kilotick()),
                m.blocked_ticks.to_string(),
                m.deadlock_aborts.to_string(),
                f1(m.locks_per_txn()),
                f1(m.locks_per_attempt()),
                m.locks.conflict_tests.to_string(),
                m.locks.max_table_entries.to_string(),
                m.locks.reads_elided.to_string(),
            ]);
        }
        writeln!(o, "{}", table.render())?;
    }

    // Disadvantage 2 (§4.6): extra overhead when only *disjoint* complex
    // objects are exclusively accessed — the proposed technique still walks
    // its deeper granule chain.
    writeln!(o, "disadvantage check — disjoint-only exclusive access (no references):")?;
    let mut table = Table::new(&["protocol", "locks per whole-cell X"]);
    for protocol in [ProtocolKind::Proposed, ProtocolKind::WholeObject] {
        // Fully disjoint objects: no robot references an effector.
        let cfg = CellsConfig { n_cells: 2, effectors_per_robot: 0, ..Default::default() };
        let mgr = cells_manager(&cfg, protocol);
        let t = mgr.begin(TxnKind::Short);
        let report = t.lock(&InstanceTarget::object("cells", "c1"), AccessMode::Update).unwrap();
        table.row(vec![protocol.name().to_string(), report.lock_count().to_string()]);
        t.commit().unwrap();
    }
    writeln!(o, "{}", table.render())?;
    writeln!(o, "expected shape (paper): the proposed technique wins on throughput for")?;
    writeln!(o, "partial accesses (esp. update-heavy, shared data) while whole-object")?;
    writeln!(o, "wins slightly on per-lock overhead when objects are disjoint and always")?;
    writeln!(o, "accessed as a whole — exactly §4.6's advantages 1-4 / disadvantage 2.")?;
    writeln!(o, "On disjoint objects the proposed protocol degenerates to the")?;
    writeln!(o, "traditional one (§4.4.2.1), so the lock counts above coincide.")
}

/// E7 — long transactions and check-out/check-in (§1, §3.1). A robot
/// check-out under whole-object locking blocks readers of the cell's parts
/// for the whole hold time; under the proposed granules it blocks only the
/// robot. Snapshot readers acquire no locks under either protocol. Sweeps
/// the hold time with locking and with snapshot readers.
fn exp7(o: &mut String) -> fmt::Result {
    writeln!(o, "E7 — workstation check-out: long locks vs readers of other parts\n")?;
    let mut table = Table::new(&[
        "hold_ticks", "protocol", "readers", "ticks", "blocked", "reader p99", "reads elided",
    ]);
    for hold in [10u64, 50, 200] {
        for protocol in [ProtocolKind::Proposed, ProtocolKind::WholeObject] {
            for snapshot in [false, true] {
                let cfg = CellsConfig { n_cells: 2, c_objects_per_cell: 20, ..Default::default() };
                let mgr = cells_manager(&cfg, protocol);
                // Readers always run as read-only transactions; the overlay
                // toggle decides whether they snapshot-read or S-lock.
                mgr.set_mvcc(snapshot);
                let driver = TickDriver::new(
                    &mgr,
                    TickConfig {
                        hold_ticks_after_checkout: hold,
                        snapshot_readers: true,
                        ..Default::default()
                    },
                );
                // Worker 0 checks out a robot of cell 0 and holds it; workers
                // 1..4 read the *parts* of cell 0 repeatedly.
                let mut scripts: Vec<Vec<Vec<Op>>> =
                    vec![vec![vec![Op::CheckoutRobot { cell: 0, robot: 0 }]]];
                for _ in 0..3 {
                    scripts.push(vec![vec![Op::ReadParts { cell: 0 }]; 3]);
                }
                let m = driver.run(scripts).metrics;
                table.row(vec![
                    hold.to_string(),
                    protocol.name().to_string(),
                    if snapshot { "snapshot" } else { "locking" }.to_string(),
                    m.total_ticks.to_string(),
                    m.blocked_ticks.to_string(),
                    format!("{} ticks", m.reader_waits.quantile_us(0.99)),
                    m.locks.reads_elided.to_string(),
                ]);
            }
        }
    }
    writeln!(o, "{}", table.render())?;
    writeln!(o, "expected shape (paper): under whole-object locking the locking readers")?;
    writeln!(o, "stall for the whole hold time (blocked ~ 3 readers x hold); under the")?;
    writeln!(o, "proposed technique the robot check-out never blocks part readers —")?;
    writeln!(o, "'long locks on coarse granules may unnecessarily block a large amount")?;
    writeln!(o, "of data for a long time' (§3.2.1). Snapshot readers sidestep the")?;
    writeln!(o, "trade-off: under either protocol `blocked` is 0 and reader p99 is the")?;
    writeln!(o, "histogram's lowest bucket [0, 2), because they read committed versions")?;
    writeln!(o, "and never enter the lock table at all.")
}

/// E8 (extension) — de-escalation, listed in §5 as future work: a
/// transaction holding a coarse subtree lock trades it for element locks
/// on the data it still needs, un-blocking waiters for the rest.
fn exp8(o: &mut String) -> fmt::Result {
    writeln!(o, "E8 — de-escalation (paper future work, implemented)\n")?;
    let mut table =
        Table::new(&["robots", "kept", "others unblocked before", "others unblocked after"]);
    for n_robots in [4usize, 8, 16] {
        let cfg = CellsConfig {
            n_cells: 1,
            robots_per_cell: n_robots,
            c_objects_per_cell: 5,
            ..Default::default()
        };
        let mgr = cells_manager(&cfg, ProtocolKind::Proposed);
        let holder = mgr.begin(TxnKind::Short);
        let robots = InstanceTarget::object("cells", "c1").attr("robots");
        holder.lock(&robots, AccessMode::Read).unwrap();

        // Before de-escalation: every robot is blocked for updaters.
        let unblocked_before = count_free_robots(&mgr, n_robots);

        // De-escalate: keep only robot r1.
        let keep = [InstanceTarget::object("cells", "c1").elem("robots", "r1")];
        let cx = LockCtx::new(mgr.lock_manager(), holder.id(), &**mgr.store(), mgr.authorization());
        mgr.engine().deescalate(&cx, &robots, &keep).unwrap();
        let unblocked_after = count_free_robots(&mgr, n_robots);
        holder.commit().unwrap();

        table.row(vec![
            n_robots.to_string(),
            "1".to_string(),
            unblocked_before.to_string(),
            unblocked_after.to_string(),
        ]);
    }
    writeln!(o, "{}", table.render())?;
    writeln!(o, "expected shape: before de-escalation 0 robots are updatable by other")?;
    writeln!(o, "transactions; after it all but the kept one are — the coarse lock's")?;
    writeln!(o, "concurrency cost is recovered without giving up the retained data.")
}

/// How many of robots `r1..=rn` of cell c1 a second transaction could
/// X-lock right now.
fn count_free_robots(mgr: &TransactionManager, n: usize) -> usize {
    (1..=n)
        .filter(|i| {
            let probe = mgr.begin(TxnKind::Short);
            let target = InstanceTarget::object("cells", "c1").elem("robots", format!("r{i}"));
            let free = probe.try_lock(&target, AccessMode::Update).is_ok();
            probe.abort().unwrap();
            free
        })
        .count()
}

/// E9 — the closing claim (§5): "The deeper complex objects are structured
/// and/or the more abundant common data exist … the higher the benefit of
/// the proposed technique promises to be." Sweeps the nesting depth of
/// common data (`top → lib1 → … → libD`): the cost of X-locking the deepest
/// shared object (naive DAG vs proposed), and the blocking surface an
/// updater of a `top` object leaves on the chain (rule 4 vs rule 4′).
fn exp9(o: &mut String) -> fmt::Result {
    writeln!(o, "E9 — benefit grows with nesting depth (§5 closing claim)\n")?;
    let mut t1 = Table::new(&["depth", "naive locks", "naive scans", "proposed locks", "ratio"]);
    let mut t2 =
        Table::new(&["depth", "rule", "X entry locks", "S entry locks", "second updater ok"]);
    for depth in [1usize, 2, 4, 8] {
        let store = build_chain_store(&ChainConfig { depth, objects_per_level: 6 });
        let engine = ProtocolEngine::new(Arc::clone(store.catalog()));
        let authz = Authorization::allow_all();
        let x_lock = |protocol,
                      authz: &Authorization,
                      lm: &LockManager<ResourcePath>,
                      target: &InstanceTarget| {
            engine.lock(&LockCtx::new(lm, TxnId(1), &*store, authz), protocol, target, LockMode::X)
        };

        // Part 1: X on the deepest object.
        let deepest = InstanceTarget::object(level_relation(depth), level_key(depth, 0));
        let naive = x_lock(ProtocolKind::NaiveDag, &authz, &LockManager::new(), &deepest).unwrap();
        let proposed =
            x_lock(ProtocolKind::Proposed, &authz, &LockManager::new(), &deepest).unwrap();
        t1.row(vec![
            depth.to_string(),
            naive.lock_count().to_string(),
            naive.scan_cost.to_string(),
            proposed.lock_count().to_string(),
            format!("{:.1}x", naive.lock_count() as f64 / proposed.lock_count() as f64),
        ]);

        // Part 2: updater of a top object — blocking surface on the chain.
        let rules = [("4'", ProtocolKind::Proposed), ("4", ProtocolKind::ProposedRule4)];
        for (rule, protocol) in rules {
            // Under 4' the libraries are non-modifiable for the updater.
            let mut a = Authorization::allow_all();
            if rule == "4'" {
                for level in 1..=depth {
                    a.set_relation_default(level_relation(level), Right::Read);
                }
            }
            let lm = LockManager::new();
            let report = x_lock(protocol, &a, &lm, &InstanceTarget::object("top", level_key(0, 0)))
                .unwrap();
            let entries = |mode| {
                report
                    .acquired
                    .iter()
                    .filter(|(r, m)| *m == mode && r.relation_name() != Some("top"))
                    .count()
            };
            // The interesting second transaction is a reader of the shared
            // chain object the updater's column reaches.
            let reader_ok = engine
                .lock(
                    &LockCtx {
                        opts: ProtocolOptions::default().try_lock(),
                        ..LockCtx::new(&lm, TxnId(2), &*store, &a)
                    },
                    protocol,
                    &InstanceTarget::object(level_relation(1), level_key(1, 0)),
                    LockMode::S,
                )
                .is_ok();
            t2.row(vec![
                depth.to_string(),
                rule.to_string(),
                entries(LockMode::X).to_string(),
                entries(LockMode::S).to_string(),
                reader_ok.to_string(),
            ]);
        }
    }
    writeln!(o, "{}", t1.render())?;
    writeln!(o, "{}", t2.render())?;
    writeln!(o, "expected shape (paper §5): the naive/proposed cost ratio for exclusive")?;
    writeln!(o, "locks on deep shared data grows with depth; under rule 4' the updater")?;
    writeln!(o, "leaves only S locks on the chain (readers proceed at any depth), while")?;
    writeln!(o, "rule 4 X-locks every level (readers blocked) — the deeper the nesting,")?;
    writeln!(o, "the larger the proposed technique's advantage.")
}

/// E10 — serializability audit: 100 random concurrent histories per
/// protocol, each checked for conflict-serializability. The proposed
/// technique and the correct baselines score 0 violations; the relaxed
/// naive protocol (§3.2.2, all-parents rule given up) does not.
fn exp10(o: &mut String) -> fmt::Result {
    writeln!(o, "E10 — serializability audit over random concurrent histories\n")?;
    let cfg = CellsConfig {
        n_cells: 2,
        c_objects_per_cell: 2,
        robots_per_cell: 3,
        n_effectors: 3,
        effectors_per_robot: 2,
        seed: 5,
    };
    let seeds = 100u64;
    let mut table = Table::new(&["protocol", "histories", "serializable", "violations"]);
    for protocol in [
        ProtocolKind::Proposed,
        ProtocolKind::ProposedRule4,
        ProtocolKind::WholeObject,
        ProtocolKind::TupleLevel,
        ProtocolKind::NaiveDag,
        ProtocolKind::NaiveRelaxed,
    ] {
        let ok = (0..seeds)
            .filter(|&seed| {
                let mgr = TransactionManager::over_store(
                    build_cells_store(&cfg),
                    Authorization::allow_all(),
                    protocol,
                );
                let mut rng = Rng::seed_from_u64(seed);
                let scripts: Vec<Vec<HOp>> = (0..4)
                    .map(|_| {
                        (0..4)
                            .map(|_| {
                                let cell = rng.gen_range(0..cfg.n_cells);
                                let robot = rng.gen_range(0..cfg.robots_per_cell);
                                let effector = rng.gen_range(0..cfg.n_effectors);
                                match rng.gen_range(0..4) {
                                    0 => HOp::ReadRobot { cell, robot },
                                    1 => HOp::WriteRobot { cell, robot },
                                    2 => HOp::WriteEffector { effector },
                                    _ => HOp::ReadEffectorViaRobot { cell, robot },
                                }
                            })
                            .collect()
                    })
                    .collect();
                run_scripted(&mgr, scripts).check().is_ok()
            })
            .count();
        table.row(vec![
            protocol.name().to_string(),
            seeds.to_string(),
            ok.to_string(),
            (seeds - ok as u64).to_string(),
        ]);
    }
    writeln!(o, "{}", table.render())?;
    writeln!(o, "expected shape: every protocol with visible locks on common data")?;
    writeln!(o, "scores 100/100 serializable; the relaxed naive protocol — implicit")?;
    writeln!(o, "locks invisible from the side (§3.2.2) — produces violations.")
}
