//! The interleaving explorer over the real engine: the lock table's yield
//! points, the cooperative scheduler and a per-schedule lint + certify
//! replay, on five small scenarios. Every schedule reads back only its own
//! manager's trace events, so the scenarios run beside the rest of the
//! suite.
//!
//! The storm and the deadlock scenario run `STORM_SCHEDULES` schedules by
//! default; `COLOCK_EXPLORE_MAX_SCHEDULES` (and the other
//! [`ExploreConfig::with_env`] knobs) raise the budget for a longer sweep,
//! e.g. `COLOCK_EXPLORE_MAX_SCHEDULES=600 cargo test --release -p
//! colock-sim --test explore -- --nocapture` (what `scripts/check.sh`
//! runs). Each test prints what it explored.

use colock_core::authorization::Authorization;
use colock_core::{AccessMode, InstanceTarget};
use colock_nf2::value::build::{set, tup};
use colock_nf2::Value;
use colock_sim::{build_cells_store, CellsConfig};
use colock_testkit::explore::{explore, Explorable, ExploreConfig};
use colock_txn::{ProtocolKind, Transaction, TransactionManager, TxnKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn small_cells() -> CellsConfig {
    CellsConfig {
        n_cells: 2,
        c_objects_per_cell: 2,
        robots_per_cell: 1,
        n_effectors: 2,
        effectors_per_robot: 1,
        ..Default::default()
    }
}

fn manager(cfg: &CellsConfig) -> Arc<TransactionManager> {
    Arc::new(TransactionManager::over_store(
        build_cells_store(cfg),
        Authorization::allow_all(),
        ProtocolKind::Proposed,
    ))
}

/// Schedules the storm and the deadlock scenario explore unless the
/// environment raises the budget.
const STORM_SCHEDULES: usize = 64;

/// The storm's and the deadlock scenario's bounds.
fn budget() -> ExploreConfig {
    ExploreConfig { max_schedules: STORM_SCHEDULES, ..ExploreConfig::default() }.with_env()
}

/// Lints and certifies the events `mgr` traced since `mark`.
fn verify_trace(mgr: &TransactionManager, mark: u64) -> Result<(), String> {
    let events = colock_trace::events_since_in(mark, &[mgr.trace_instance()])
        .map_err(|e| e.to_string())?;
    colock_check::verify_trace(mgr.store().catalog(), &events).map(drop)
}

/// Writers in the hot container's storm.
const INSERTERS: usize = 3;

/// `INSERTERS` writers inserting distinct robots into the same container:
/// every schedule must commit them all, grow the container by one member
/// per inserter (none lost, none duplicated), and lint and certify clean.
struct InsertStorm {
    mgr: Option<Arc<TransactionManager>>,
    mark: u64,
}

fn robots_of_c1(mgr: &TransactionManager) -> Result<usize, String> {
    let t = mgr.begin(TxnKind::Short);
    let container = InstanceTarget::object("cells", "c1").attr("robots");
    let members = match t.read(&container).map_err(|e| e.to_string())? {
        Value::Set(es) | Value::List(es) => es.len(),
        other => return Err(format!("robots is not a collection: {other:?}")),
    };
    t.commit().map_err(|e| e.to_string())?;
    Ok(members)
}

impl Explorable for InsertStorm {
    fn reset(&mut self) {
        self.mark = colock_trace::current_seq();
        self.mgr = Some(manager(&small_cells()));
    }

    fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
        let mgr = self.mgr.as_ref().expect("reset ran").clone();
        (0..INSERTERS)
            .map(|w| {
                let mgr = Arc::clone(&mgr);
                Box::new(move || {
                    let container = InstanceTarget::object("cells", "c1").attr("robots");
                    let robot = tup(vec![
                        ("robot_id", Value::str(format!("t-w{w}"))),
                        ("trajectory", Value::str("t")),
                        ("effectors", set(Vec::new())),
                    ]);
                    let t = mgr.begin(TxnKind::Short);
                    t.insert_element(&container, robot).expect("insert");
                    t.commit().expect("commit");
                }) as Box<dyn FnOnce() + Send + 'static>
            })
            .collect()
    }

    fn check(&mut self) -> Result<(), String> {
        let mgr = self.mgr.take().expect("reset ran");
        if mgr.active_count() != 0 {
            return Err("transactions survived".into());
        }
        // The storm's own read of the container goes into the window too.
        let members = robots_of_c1(&mgr)?;
        let expected = small_cells().robots_per_cell + INSERTERS;
        if members != expected {
            return Err(format!("lost or duplicated inserts: {members} != {expected}"));
        }
        verify_trace(&mgr, self.mark)
    }

    fn rescue(&self) {
        if let Some(mgr) = &self.mgr {
            mgr.lock_manager().begin_drain();
        }
    }
}

#[test]
fn explored_insert_schedules_certify_clean() {
    colock_trace::enable();
    let cfg = budget();
    let mut scenario = InsertStorm { mgr: None, mark: 0 };
    let report = explore(&cfg, &mut scenario);
    println!("storm ({INSERTERS} inserters): {report}");
    if let Some(f) = &report.failure {
        panic!("schedule failed:\n{f}");
    }
    assert!(report.is_clean(), "{report}");
    assert!(
        report.distinct_schedules >= cfg.max_schedules.min(500) || !report.truncated,
        "the storm explored too few schedules: {report}"
    );
}

/// A short writer reads and then updates a robot's trajectory — an IS chain,
/// then an IX chain whose links convert the optimistic IS grants in one CAS
/// each — while a reader S-locks that robot's cell object. The reader's S
/// seals the object's slot and drains whatever optimistic intent the writer
/// holds there: before, between or after the conversion. Every schedule
/// must commit both, lint and certify clean, and leave consistent summary
/// words and an empty table.
struct ConvertAgainstDrain {
    mgr: Option<Arc<TransactionManager>>,
    mark: u64,
}

impl Explorable for ConvertAgainstDrain {
    fn reset(&mut self) {
        self.mark = colock_trace::current_seq();
        self.mgr = Some(manager(&small_cells()));
    }

    fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
        let mgr = self.mgr.as_ref().expect("reset ran").clone();
        let cell = InstanceTarget::object("cells", "c1");
        let trajectory = cell.clone().elem("robots", "r1").attr("trajectory");
        let writer = {
            let mgr = Arc::clone(&mgr);
            Box::new(move || {
                let t = mgr.begin(TxnKind::Short);
                let old = t.read(&trajectory).expect("read");
                t.update(&trajectory, old).expect("update");
                t.commit().expect("writer commit");
            }) as Box<dyn FnOnce() + Send + 'static>
        };
        let reader = Box::new(move || {
            let t = mgr.begin(TxnKind::Short);
            t.lock(&cell, AccessMode::Read).expect("reader lock");
            t.commit().expect("reader commit");
        }) as Box<dyn FnOnce() + Send + 'static>;
        vec![writer, reader]
    }

    fn check(&mut self) -> Result<(), String> {
        let mgr = self.mgr.take().expect("reset ran");
        if mgr.active_count() != 0 {
            return Err("transactions survived".into());
        }
        let lm = mgr.lock_manager();
        if lm.table_size() != 0 || lm.grant_count() != 0 {
            return Err(format!("locks left behind:\n{}", lm.debug_dump()));
        }
        lm.check_summary_consistency()?;
        verify_trace(&mgr, self.mark)
    }

    fn rescue(&self) {
        if let Some(mgr) = &self.mgr {
            mgr.lock_manager().begin_drain();
        }
    }
}

#[test]
fn explored_conversions_against_drains_certify_clean() {
    colock_trace::enable();
    let mut scenario = ConvertAgainstDrain { mgr: None, mark: 0 };
    let report = explore(&ExploreConfig::default(), &mut scenario);
    println!("conversion against drain: {report}");
    if let Some(f) = &report.failure {
        panic!("schedule failed:\n{f}");
    }
    assert!(report.is_clean(), "{report}");
    assert!(!report.truncated, "the schedule space must be exhausted: {report}");
    assert!(report.distinct_schedules >= 2, "only one schedule explored: {report}");
}

/// Opposite-order X locks: the explorer must reach the deadlock and see it
/// resolved (one victim, one survivor) in every schedule that closes it.
struct OppositeOrder {
    mgr: Option<Arc<TransactionManager>>,
    mark: u64,
    outcomes: Arc<(AtomicU64, AtomicU64)>, // (committed, deadlock aborts)
    deadlock_schedules: u64,
}

impl Explorable for OppositeOrder {
    fn reset(&mut self) {
        self.mark = colock_trace::current_seq();
        self.mgr = Some(manager(&small_cells()));
        self.outcomes.0.store(0, Ordering::Relaxed);
        self.outcomes.1.store(0, Ordering::Relaxed);
    }

    fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
        let mgr = self.mgr.as_ref().expect("reset ran").clone();
        [("c1", "c2"), ("c2", "c1")]
            .into_iter()
            .map(|(first, second)| {
                let mgr = Arc::clone(&mgr);
                let outcomes = Arc::clone(&self.outcomes);
                Box::new(move || {
                    let t = mgr.begin(TxnKind::Short);
                    let a = InstanceTarget::object("cells", first);
                    let b = InstanceTarget::object("cells", second);
                    let locked = t
                        .lock(&a, AccessMode::Update)
                        .and_then(|_| t.lock(&b, AccessMode::Update));
                    match locked {
                        Ok(_) => {
                            t.commit().expect("survivor commit");
                            outcomes.0.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_deadlock() => {
                            let _ = t.abort();
                            outcomes.1.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected lock failure: {e}"),
                    }
                }) as Box<dyn FnOnce() + Send + 'static>
            })
            .collect()
    }

    fn check(&mut self) -> Result<(), String> {
        let mgr = self.mgr.take().expect("reset ran");
        let committed = self.outcomes.0.load(Ordering::Relaxed);
        let aborted = self.outcomes.1.load(Ordering::Relaxed);
        if committed + aborted != 2 || committed == 0 {
            return Err(format!("not live: {committed} committed, {aborted} aborted"));
        }
        if aborted > 0 {
            self.deadlock_schedules += 1;
        }
        if mgr.active_count() != 0 {
            return Err("transactions survived".into());
        }
        verify_trace(&mgr, self.mark)
    }

    fn rescue(&self) {
        if let Some(mgr) = &self.mgr {
            mgr.lock_manager().begin_drain();
        }
    }
}

#[test]
fn explored_deadlocks_are_resolved_and_certify_clean() {
    colock_trace::enable();
    let cfg = budget();
    let mut scenario = OppositeOrder {
        mgr: None,
        mark: 0,
        outcomes: Arc::new((AtomicU64::new(0), AtomicU64::new(0))),
        deadlock_schedules: 0,
    };
    let report = explore(&cfg, &mut scenario);
    println!("deadlock: {report}; {} schedules closed the cycle", scenario.deadlock_schedules);
    if let Some(f) = &report.failure {
        panic!("schedule failed:\n{f}");
    }
    assert!(report.is_clean(), "{report}");
    assert!(report.distinct_schedules >= 2, "the deadlock scenario barely explored: {report}");
    assert!(
        scenario.deadlock_schedules > 0,
        "no explored schedule closed the cycle, so the scenario proves nothing: {report}"
    );
}

/// An inserter that aborts races a reader that can reach the new object
/// or element before it is locked: a full-range scan (`Store::keys`, then
/// an S lock and a read per key, the way a query's relation range runs),
/// or a member probe (Member on the container commutes with the
/// inserter's Insert). No schedule may hand the reader what was inserted:
/// it never committed, so reading it is a dirty read — one the certifier
/// cannot see, because no lock event covers it.
struct InsertAgainstRead {
    mgr: Option<Arc<TransactionManager>>,
    mark: u64,
    /// Inserts one object or element, then aborts.
    insert: fn(&Transaction),
    /// Whether the reader saw the inserted object or element.
    read_new: fn(&TransactionManager, &Transaction) -> bool,
    dirty_reads: Arc<AtomicU64>,
}

impl Explorable for InsertAgainstRead {
    fn reset(&mut self) {
        self.mark = colock_trace::current_seq();
        self.mgr = Some(manager(&small_cells()));
        self.dirty_reads.store(0, Ordering::Relaxed);
    }

    fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
        let mgr = self.mgr.as_ref().expect("reset ran").clone();
        let insert = self.insert;
        let inserter = {
            let mgr = Arc::clone(&mgr);
            Box::new(move || {
                let t = mgr.begin(TxnKind::Short);
                insert(&t);
                t.abort().expect("abort");
            }) as Box<dyn FnOnce() + Send + 'static>
        };
        let (read_new, dirty_reads) = (self.read_new, Arc::clone(&self.dirty_reads));
        let reader = Box::new(move || {
            let t = mgr.begin(TxnKind::Short);
            if read_new(&mgr, &t) {
                dirty_reads.fetch_add(1, Ordering::Relaxed);
            }
            t.commit().expect("reader commit");
        }) as Box<dyn FnOnce() + Send + 'static>;
        vec![inserter, reader]
    }

    fn check(&mut self) -> Result<(), String> {
        let mgr = self.mgr.take().expect("reset ran");
        if self.dirty_reads.load(Ordering::Relaxed) != 0 {
            return Err("the reader saw the uncommitted insert".into());
        }
        if mgr.active_count() != 0 {
            return Err("transactions survived".into());
        }
        verify_trace(&mgr, self.mark)
    }

    fn rescue(&self) {
        if let Some(mgr) = &self.mgr {
            mgr.lock_manager().begin_drain();
        }
    }
}

fn explore_insert_against(
    insert: fn(&Transaction),
    read_new: fn(&TransactionManager, &Transaction) -> bool,
) {
    colock_trace::enable();
    let dirty_reads = Arc::new(AtomicU64::new(0));
    let mut scenario = InsertAgainstRead { mgr: None, mark: 0, insert, read_new, dirty_reads };
    let report = explore(&ExploreConfig::default(), &mut scenario);
    println!("insert against read: {report}");
    if let Some(f) = &report.failure {
        panic!("schedule failed:\n{f}");
    }
    assert!(report.is_clean(), "{report}");
    assert!(!report.truncated, "the schedule space must be exhausted: {report}");
}

#[test]
fn explored_scans_never_read_an_uncommitted_insert() {
    explore_insert_against(
        |t| {
            let effector = tup(vec![("eff_id", Value::str("e-new")), ("tool", Value::str("t"))]);
            t.insert("effectors", effector).expect("insert");
        },
        |mgr, t| {
            // A key whose object vanished before the S lock was granted (the
            // inserter aborted) fails to read; that is no dirty read.
            mgr.store().keys("effectors").expect("relation exists").into_iter().any(|key| {
                let read = t.read(&InstanceTarget::object("effectors", key.clone()));
                read.is_ok() && key == "e-new".into()
            })
        },
    );
}

#[test]
fn explored_member_probes_never_read_an_uncommitted_element() {
    explore_insert_against(
        |t| {
            let robot = tup(vec![
                ("robot_id", Value::str("r-new")),
                ("trajectory", Value::str("t")),
                ("effectors", set(Vec::new())),
            ]);
            let container = InstanceTarget::object("cells", "c1").attr("robots");
            t.insert_element(&container, robot).expect("insert element");
        },
        |_, t| t.member_element(&InstanceTarget::object("cells", "c1").elem("robots", "r-new")).is_ok(),
    );
}
