//! Work ledger: exact counts pinned as budgets — heap allocations of the
//! resource-identity operations on the lock path, of Fig. 7 statements and
//! of building the mix database, and long-lock journal records per
//! transaction.
//!
//! A count is the same on every host and every run, so a change that adds
//! an allocation or a record to one of these operations fails here on any
//! machine. The budgets are a ratchet: lower one when a change removes
//! work; raise one only with the reason recorded in `CHANGES.md`.
//!
//! The counting allocator needs `unsafe` (`GlobalAlloc` is an unsafe
//! trait). An integration test is its own crate, so the library crates keep
//! their `#![forbid(unsafe_code)]`.

use colock::core::authorization::{Authorization, Right};
use colock::core::fixtures::fig1_catalog;
use colock::core::{AccessMode, InstanceTarget, Optimizer, ProtocolEngine, ResourcePath};
use colock::lockmgr::Journal;
use colock::nf2::Value;
use colock::query;
use colock::sim::{build_cells_store, CellsConfig};
use colock::txn::{ProtocolKind, TransactionManager, TxnKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// [`System`], counting the allocations of the thread being measured (the
/// harness runs tests on several threads; only the caller's count).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count is a const-initialised
// thread-local `Cell` without a destructor, so bumping it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread;
/// its result is dropped outside the count.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The mixes' write target: `cells[c1].robots[r1].trajectory`, seven steps
/// from the database down.
fn trajectory() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", "r1").attr("trajectory")
}

#[test]
fn resource_views_allocate_nothing_but_the_ancestor_list() {
    let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
    let path: ResourcePath = engine.resource_for(&trajectory()).unwrap();
    assert_eq!(path.len(), 7);

    assert_eq!(allocations(|| path.clone()).0, 0, "clone");
    assert_eq!(allocations(|| path.parent()).0, 0, "parent");
    assert_eq!(allocations(|| path.object_prefix()).0, 0, "object_prefix");
    let (n, ancestors) = allocations(|| path.ancestors());
    assert_eq!(ancestors.len(), 6);
    assert_eq!(n, 1, "ancestors: the returned Vec only");
}

/// Resolving the trajectory target: one `String` per named step (database,
/// segment, relation, object key, `robots`, element key, `trajectory`),
/// the step vector, the spine's `Arc` and its prefix-hash slice.
const RESOLVE_TRAJECTORY_BUDGET: u64 = 10;

#[test]
fn resolving_a_trajectory_target_stays_within_budget() {
    let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
    let target = trajectory();
    engine.resource_for(&target).unwrap();
    let (n, path) = allocations(|| engine.resource_for(&target).unwrap());
    assert_eq!(path.to_string(), "db:db1/seg:seg1/rel:cells/obj:c1/robots/[r1]/trajectory");
    assert_eq!(n, RESOLVE_TRAJECTORY_BUDGET, "resource_for allocations changed: edit the budget");
}

/// Journal records of one long check-out → check-in → commit: one grant
/// set for the check-out request, one release-all at commit (§3.1 asks for
/// durable long locks, not a record per lock).
const LONG_TXN_RECORDS: u64 = 2;

#[test]
fn a_long_transaction_writes_two_journal_records_and_others_none() {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let store = build_cells_store(&CellsConfig::default());
    let mgr = TransactionManager::over_store(store, authz, ProtocolKind::Proposed);
    let journal = Arc::new(Journal::new());
    assert!(mgr.attach_journal(Arc::clone(&journal)));
    let robot = InstanceTarget::object("cells", "c1").elem("robots", "r1");
    let records = |f: &dyn Fn()| {
        let before = journal.appends();
        f();
        journal.appends() - before
    };

    let long = records(&|| {
        let txn = mgr.begin(TxnKind::Long);
        let copy = txn.checkout(&robot, AccessMode::Update).unwrap();
        txn.checkin(&robot, copy).unwrap();
        txn.commit().unwrap();
    });
    assert_eq!(long, LONG_TXN_RECORDS, "records per long transaction changed: edit the budget");

    let short_write = records(&|| {
        let txn = mgr.begin(TxnKind::Short);
        let target = trajectory();
        txn.read(&target).unwrap();
        txn.update(&target, Value::str("moved")).unwrap();
        txn.commit().unwrap();
    });
    assert_eq!(short_write, 0, "a short write journals nothing");

    let snapshot_read = records(&|| {
        let txn = mgr.begin_readonly();
        txn.snapshot_read(&trajectory()).unwrap();
        txn.commit().unwrap();
    });
    assert_eq!(snapshot_read, 0, "a snapshot read journals nothing");
    assert!(Journal::<ResourcePath>::replay(&journal.contents()).unwrap().entries.is_empty());
}

/// The `fig7_queries` database: 2 cells × 200 c_objects × 4 robots.
fn fig7_manager() -> TransactionManager {
    cells_manager(200)
}

/// The `fig7_queries` database with `c_objects` c_objects per cell.
fn cells_manager(c_objects: usize) -> TransactionManager {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let cells = CellsConfig {
        n_cells: 2,
        c_objects_per_cell: c_objects,
        robots_per_cell: 4,
        n_effectors: 4,
        effectors_per_robot: 2,
        seed: 42,
    };
    TransactionManager::over_store(build_cells_store(&cells), authz, ProtocolKind::Proposed)
}

/// Allocations of `colock_query::execute` for `stmt` in a fresh short
/// transaction; parse, analysis and plan happen outside the count.
fn execute_allocations(mgr: &TransactionManager, stmt: &str) -> u64 {
    let catalog = mgr.store().catalog();
    let parsed = query::parse(stmt).unwrap();
    let analysis = query::analyze::analyze(catalog, &parsed).unwrap();
    let plan = query::plan_locks(catalog, parsed, analysis, &Optimizer::default()).unwrap();
    let execute = || {
        let txn = mgr.begin(TxnKind::Short);
        let (n, out) = allocations(|| query::execute(&txn, &plan).unwrap());
        drop(out);
        txn.abort().unwrap();
        n
    };
    execute(); // warms the lock table
    execute()
}

/// Fig. 7's Q1: all 200 c_objects of one cell under one subtree S lock.
/// The rows bind by reference and build no instance target, and the
/// result shares the cell's `c_objects` container, so what is left is the
/// compiled plan, the one subtree lock and the result's one run. It was 39
/// while the result was a `Vec<Value>` grown row by row.
const FIG7_Q1_BUDGET: u64 = 31;
/// Q2's read half: one robot, X on the element, S on its two effectors.
/// It was 75 while each bound row was pushed onto a row vector.
const FIG7_Q2_SELECT_BUDGET: u64 = 73;
/// Q3: one trajectory update (70 with the row vector).
const FIG7_Q3_BUDGET: u64 = 68;

const FIG7_Q1: &str = "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ";

#[test]
fn fig7_statements_execute_within_budget() {
    let mgr = fig7_manager();
    let q1 = execute_allocations(&mgr, FIG7_Q1);
    let q2 = execute_allocations(
        &mgr,
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE",
    );
    let q3 = execute_allocations(
        &mgr,
        "UPDATE r.trajectory = 'w0-1' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' AND r.robot_id = 'r3'",
    );
    assert_eq!(
        (q1, q2, q3),
        (FIG7_Q1_BUDGET, FIG7_Q2_SELECT_BUDGET, FIG7_Q3_BUDGET),
        "execute allocations (Q1, Q2-select, Q3) changed: edit the budgets"
    );
}

/// Q1's result shares the container it read, and its subtree S lock finds
/// no reference to propagate to in the schema of `c_objects`, so nothing
/// Q1 allocates grows with the rows it returns.
#[test]
fn fig7_q1_execute_allocations_do_not_grow_with_rows() {
    let at = |c_objects| execute_allocations(&cells_manager(c_objects), FIG7_Q1);
    assert_eq!(at(200), at(800));
}

/// The five statement shapes `fig7_queries` sends, with the literals it
/// draws: Q1, Q2's SELECT, Q3 (also Q2's UPDATE), the effector read and
/// the effector update.
const FIG7_SHAPES: [(&str, &str); 5] = [
    ("q1", FIG7_Q1),
    (
        "q2_select",
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE",
    ),
    (
        "q3",
        "UPDATE r.trajectory = 'w0-1' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c2' AND r.robot_id = 'r3'",
    ),
    ("effector_read", "SELECT e FROM e IN effectors WHERE e.eff_id = 'e1' FOR READ"),
    ("effector_update", "UPDATE e.tool = 'w0-2' FROM e IN effectors WHERE e.eff_id = 'e2'"),
];

/// Parse / analysis / plan allocations of each shape, in `FIG7_SHAPES`
/// order (§4.6 disadvantage 1, the front end every statement pays).
/// Lexing allocates nothing. Parsing makes the AST's names, path vectors,
/// literals and condition boxes; a range variable shares the name of the
/// target it repeats, a path's variable that of its range. Analysis makes
/// the ranges' and accesses' paths, the pinned keys and the optimizer
/// estimates (Q1's with the catalog's cardinality estimate); the plan is
/// the optimizer's. The totals were 86, 91, 106, 42 and 55 while the lexer
/// owned its tokens and the analysis copied names and paths. A catalog
/// estimate borrows the relation's statistics and builds one prefix string.
const FIG7_FRONT_END_BUDGETS: [(u64, u64, u64); 5] =
    [(10, 12, 5), (15, 12, 5), (17, 14, 7), (7, 5, 2), (9, 9, 5)];

#[test]
fn fig7_statements_parse_analyze_and_plan_within_budget() {
    let mgr = fig7_manager();
    let catalog = mgr.store().catalog();
    let optimizer = Optimizer::default();
    let counts: Vec<(&str, (u64, u64, u64))> = FIG7_SHAPES
        .iter()
        .map(|&(name, stmt)| {
            let (parse, parsed) = allocations(|| query::parse(stmt).unwrap());
            let (analyze, analysis) =
                allocations(|| query::analyze::analyze(catalog, &parsed).unwrap());
            let (plan, planned) =
                allocations(|| query::plan_locks(catalog, parsed, analysis, &optimizer).unwrap());
            drop(planned);
            (name, (parse, analyze, plan))
        })
        .collect();
    let budgets: Vec<(&str, (u64, u64, u64))> =
        FIG7_SHAPES.iter().map(|&(name, _)| name).zip(FIG7_FRONT_END_BUDGETS).collect();
    assert_eq!(counts, budgets, "(parse, analyze, plan) allocations changed: edit the budgets");
}

/// Building the mix database (`CellsConfig { n_cells: 8, c_objects_per_cell:
/// 8, .. }`, the repo benchmark's `parallel_disjoint` and `embedded_mix`
/// database): the generated values, the stats-bearing catalog and the one
/// populated store; then the manager over it (lock manager, protocol
/// engine, rights). What a set-up repetition of the benchmark allocates
/// besides the journal. The store was 2 557 while the catalog statistics
/// were measured on a second, staging store.
const MIX_STORE_BUDGET: u64 = 2_390;
const MIX_MANAGER_BUDGET: u64 = 128;

#[test]
fn building_the_mix_store_and_manager_stays_within_budget() {
    let cells = CellsConfig { n_cells: 8, c_objects_per_cell: 8, ..CellsConfig::default() };
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let (store_allocs, store) = allocations(|| build_cells_store(&cells));
    let (manager_allocs, mgr) =
        allocations(|| TransactionManager::over_store(store, authz, ProtocolKind::Proposed));
    assert_eq!(mgr.store().len("cells").unwrap(), 8);
    assert_eq!(store_allocs, MIX_STORE_BUDGET, "mix store allocations changed: edit the budget");
    assert_eq!(manager_allocs, MIX_MANAGER_BUDGET, "manager allocations changed: edit the budget");
}
