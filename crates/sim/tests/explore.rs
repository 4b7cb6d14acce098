//! Tier-1 integration of the interleaving explorer: small, bounded
//! versions of the `stress_explore` scenarios so the gate proves the
//! lock-table yield points, the cooperative scheduler, and the per-schedule
//! certifier replay work together. The unbounded sweep lives in the
//! `stress_explore` harness.

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

fn verify_trace(mgr: &TransactionManager, mark: u64) -> Result<(), String> {
    let events = colock_trace::events_since(mark);
    let lint = colock_check::Linter::with_catalog(mgr.store().catalog()).lint(&events);
    if !lint.is_clean() {
        return Err(format!("protocol violations:\n{}", lint.render()));
    }
    let cert = colock_check::Certifier::new().certify(&events);
    if !cert.is_clean() {
        return Err(format!("not serializable:\n{}", cert.render_with_context(&events)));
    }
    Ok(())
}

/// Two writers inserting distinct robots into the same container: every
/// schedule must commit both and certify conflict-serializable.
struct TwoInserters {
    mgr: Option<Arc<TransactionManager>>,
    mark: u64,
}

impl Explorable for TwoInserters {
    fn reset(&mut self) {
        self.mark = colock_trace::current_seq();
        self.mgr = Some(manager(&small_cells()));
    }

    fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
        let mgr = self.mgr.as_ref().expect("reset ran").clone();
        (0..2)
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
    let cfg = ExploreConfig { max_schedules: 64, ..ExploreConfig::default() };
    let mut scenario = TwoInserters { mgr: None, mark: 0 };
    let report = explore(&cfg, &mut scenario);
    if let Some(f) = &report.failure {
        panic!("schedule failed:\n{f}");
    }
    assert!(report.is_clean(), "{report}");
    assert!(report.distinct_schedules >= 2, "only one schedule explored: {report}");
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
    let cfg = ExploreConfig { max_schedules: 64, ..ExploreConfig::default() };
    let mut scenario = OppositeOrder {
        mgr: None,
        mark: 0,
        outcomes: Arc::new((AtomicU64::new(0), AtomicU64::new(0))),
        deadlock_schedules: 0,
    };
    let report = explore(&cfg, &mut scenario);
    if let Some(f) = &report.failure {
        panic!("schedule failed:\n{f}");
    }
    assert!(report.is_clean(), "{report}");
    assert!(
        scenario.deadlock_schedules > 0,
        "no explored schedule reached the deadlock: {report}"
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
