//! Differential equivalence harness for the optimistic intent fast path.
//!
//! The same seeded workload is executed twice through the full stack
//! (protocol engine → lock manager → storage): once with the summary-word
//! fast path enabled, once forced down the classic shard-mutex path. The
//! two runs must be *observationally identical* — same commit/abort sets,
//! same read/write history, same final storage state — and both must
//! produce traces the protocol conformance linter accepts, plus summary
//! words that re-derive cleanly from the shard maps. Divergence shrinks the
//! workload (drop scripts, then drop operations) toward a minimal
//! counterexample.
//!
//! The scripted driver is single-threaded and deterministic, so any
//! difference between the runs is the fast path changing an admission
//! decision — exactly the bug class this harness exists to catch.

use colock_check::Linter;
use colock_core::authorization::Authorization;
use colock_core::{InstanceTarget, TargetStep};
use colock_sim::consistency::{run_scripted, History, HOp};
use colock_sim::{build_cells_store, CellsConfig};
use colock_testkit::prop::Shrink;
use colock_testkit::{ensure, ensure_eq, forall, Rng};
use colock_trace::TraceBuffer;
use colock_txn::{ProtocolKind, TransactionManager};
use std::sync::Arc;

fn cfg() -> CellsConfig {
    CellsConfig {
        n_cells: 2,
        c_objects_per_cell: 2,
        robots_per_cell: 3,
        n_effectors: 3,
        effectors_per_robot: 2,
        seed: 5,
    }
}

fn random_scripts(seed: u64, workers: usize, ops: usize, c: &CellsConfig) -> Vec<Vec<HOp>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..workers)
        .map(|_| {
            (0..ops)
                .map(|_| {
                    let cell = rng.gen_range(0..c.n_cells);
                    let robot = rng.gen_range(0..c.robots_per_cell);
                    let effector = rng.gen_range(0..c.n_effectors);
                    match rng.gen_range(0..4) {
                        0 => HOp::ReadRobot { cell, robot },
                        1 => HOp::WriteRobot { cell, robot },
                        2 => HOp::WriteEffector { effector },
                        _ => HOp::ReadEffectorViaRobot { cell, robot },
                    }
                })
                .collect()
        })
        .collect()
}

/// A multi-worker workload. Unlike the opaque serializability workloads,
/// this one shrinks: divergence drops whole scripts first, then single
/// operations, homing in on the smallest schedule that still diverges.
#[derive(Debug, Clone)]
struct Workload(Vec<Vec<HOp>>);

impl Shrink for Workload {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..self.0.len() {
            let mut v = self.0.clone();
            v.remove(i);
            if !v.is_empty() {
                out.push(Workload(v));
            }
        }
        for i in 0..self.0.len() {
            for j in 0..self.0[i].len() {
                let mut v = self.0.clone();
                v[i].remove(j);
                if v[i].is_empty() {
                    v.remove(i);
                }
                if !v.is_empty() {
                    out.push(Workload(v));
                }
            }
        }
        out
    }
}

/// Everything observable about one run, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    committed: Vec<u64>,
    aborted: Vec<u64>,
    history: String,
    storage: String,
}

fn observe(history: &History, mgr: &TransactionManager) -> Observation {
    let mut committed: Vec<u64> = history.committed.iter().map(|t| t.0).collect();
    let mut aborted: Vec<u64> = history.aborted.iter().map(|t| t.0).collect();
    committed.sort_unstable();
    aborted.sort_unstable();
    Observation {
        committed,
        aborted,
        history: format!("{:?}", history.events),
        storage: storage_fingerprint(mgr),
    }
}

/// Final values of every item the workload can touch: all robot
/// trajectories and all effector tools.
fn storage_fingerprint(mgr: &TransactionManager) -> String {
    use std::fmt::Write;
    let c = cfg();
    let store = mgr.store();
    let mut out = String::new();
    for cell in 0..c.n_cells {
        for robot in 0..c.robots_per_cell {
            let v = store
                .get_at(
                    "cells",
                    &CellsConfig::cell_key(cell),
                    &[
                        TargetStep::elem("robots", CellsConfig::robot_key(robot)),
                        TargetStep::attr("trajectory"),
                    ],
                )
                .expect("robot trajectory");
            let _ = writeln!(out, "cells/{cell}/robots/{robot}/trajectory = {v:?}");
        }
    }
    for e in 0..c.n_effectors {
        let v = store
            .get_at("effectors", &CellsConfig::effector_key(e), &[TargetStep::attr("tool")])
            .expect("effector tool");
        let _ = writeln!(out, "effectors/{e}/tool = {v:?}");
    }
    out
}

/// A manager over a fresh store, tracing into a buffer of its own.
fn traced_manager() -> TransactionManager {
    let mgr = TransactionManager::over_store(
        build_cells_store(&cfg()),
        Authorization::allow_all(),
        ProtocolKind::Proposed,
    );
    let trace = Arc::new(TraceBuffer::with_capacity(1 << 14));
    trace.enable();
    mgr.attach_trace(trace);
    mgr
}

/// Runs the workload once on a fresh store with the fast path forced on or
/// off, lints the trace window its manager produced, and re-derives the
/// summary words.
fn run_one(w: &Workload, fastpath: bool) -> Result<Observation, String> {
    let mgr = traced_manager();
    mgr.lock_manager().set_fastpath(fastpath);
    let history = run_scripted(&mgr, w.0.clone());
    let events = mgr.trace().events_since(0).map_err(|e| e.to_string())?;
    let report = Linter::with_catalog(mgr.store().catalog()).lint(&events);
    if !report.violations.is_empty() {
        return Err(format!("fastpath={fastpath}: trace not lint-clean:\n{}", report.render()));
    }
    mgr.lock_manager()
        .check_summary_consistency()
        .map_err(|e| format!("fastpath={fastpath}: summary inconsistent: {e}"))?;
    let stats = mgr.lock_manager().stats().snapshot();
    if stats.intent_acquires != stats.fastpath_hits + stats.fastpath_fallbacks {
        return Err(format!("fastpath={fastpath}: gate identity broken: {stats:?}"));
    }
    if !fastpath && stats.intent_acquires != 0 {
        return Err(format!("disabled gate still counted: {stats:?}"));
    }
    Ok(observe(&history, &mgr))
}

#[test]
fn optimistic_and_pessimistic_paths_are_observationally_equivalent() {
    let c = cfg();
    forall!(cases: 24, |rng| Workload(random_scripts(rng.next_u64(), 4, 4, &c)), |w: &Workload| {
        let optimistic = run_one(w, true)?;
        let pessimistic = run_one(w, false)?;
        ensure_eq!(optimistic.committed, pessimistic.committed, "commit sets diverge");
        ensure_eq!(optimistic.aborted, pessimistic.aborted, "abort sets diverge");
        ensure!(
            optimistic.history == pessimistic.history,
            "histories diverge:\n  fast: {}\n  slow: {}",
            optimistic.history,
            pessimistic.history
        );
        ensure!(
            optimistic.storage == pessimistic.storage,
            "final storage diverges:\n  fast:\n{}\n  slow:\n{}",
            optimistic.storage,
            pessimistic.storage
        );
        Ok(())
    });
}

/// Runs the writer workload, then a quiesced read-only transaction over
/// every item the workload can touch — once through the multiversion
/// overlay, once through the S-locking fallback. Returns the writer-phase
/// observation, the reader-phase results, and the `reads_elided` delta of
/// the reader phase. Both phases must be lint-clean (the snapshot rules
/// check the reader trace: no lock events from "readonly" transactions,
/// no snapshot reads outside them).
fn run_mvcc(w: &Workload, mvcc: bool) -> Result<(Observation, String, u64), String> {
    use std::fmt::Write;
    let mgr = traced_manager();
    mgr.set_mvcc(mvcc);
    let history = run_scripted(&mgr, w.0.clone());
    let writer_obs = observe(&history, &mgr);

    let c = cfg();
    let before = mgr.lock_manager().stats().snapshot();
    let reader = mgr.begin_readonly();
    let mut results = String::new();
    for cell in 0..c.n_cells {
        for robot in 0..c.robots_per_cell {
            let t = InstanceTarget::object("cells", CellsConfig::cell_key(cell))
                .elem("robots", CellsConfig::robot_key(robot))
                .attr("trajectory");
            let v = reader.snapshot_read(&t).map_err(|e| format!("mvcc={mvcc}: {e}"))?;
            let _ = writeln!(results, "{t} = {v:?}");
        }
    }
    for e in 0..c.n_effectors {
        let t = InstanceTarget::object("effectors", CellsConfig::effector_key(e)).attr("tool");
        let v = reader.snapshot_read(&t).map_err(|e| format!("mvcc={mvcc}: {e}"))?;
        let _ = writeln!(results, "{t} = {v:?}");
    }
    reader.commit().map_err(|e| format!("mvcc={mvcc}: reader commit: {e}"))?;
    let elided = mgr.lock_manager().stats().snapshot().since(&before).reads_elided;

    let events = mgr.trace().events_since(0).map_err(|e| e.to_string())?;
    let report = Linter::with_catalog(mgr.store().catalog()).lint(&events);
    if !report.violations.is_empty() {
        return Err(format!("mvcc={mvcc}: trace not lint-clean:\n{}", report.render()));
    }
    Ok((writer_obs, results, elided))
}

/// The multiversion overlay must be invisible to writers and to reader
/// *results*: seeded workloads with a read-only phase produce identical
/// commit/abort sets, histories, final storage, and reader values whether
/// snapshots or S locks serve the reads. Only the mechanism differs —
/// every overlay read is lock-elided, every fallback read is not.
#[test]
fn mvcc_overlay_and_locking_reads_are_observationally_equivalent() {
    let c = cfg();
    forall!(cases: 16, |rng| Workload(random_scripts(rng.next_u64(), 4, 4, &c)), |w: &Workload| {
        let (on_obs, on_reads, on_elided) = run_mvcc(w, true)?;
        let (off_obs, off_reads, off_elided) = run_mvcc(w, false)?;
        ensure_eq!(on_obs, off_obs, "writer phase diverges under MVCC");
        ensure!(
            on_reads == off_reads,
            "reader results diverge:\n  mvcc:\n{}\n  locking:\n{}",
            on_reads,
            off_reads
        );
        let expected = (cfg().n_cells * cfg().robots_per_cell + cfg().n_effectors) as u64;
        ensure_eq!(on_elided, expected, "every overlay read must elide its lock");
        ensure_eq!(off_elided, 0, "fallback readers must go through the lock table");
        Ok(())
    });
}

#[test]
fn equivalence_holds_under_write_heavy_contention() {
    // Write-heavy single-cell workloads maximize drains, conversions and
    // aborted victims — the paths must still agree event for event.
    let c = CellsConfig { n_cells: 1, ..cfg() };
    forall!(cases: 12, |rng| {
        let mut scripts = random_scripts(rng.next_u64(), 3, 3, &c);
        for s in &mut scripts {
            s.push(HOp::WriteRobot { cell: 0, robot: 0 });
        }
        Workload(scripts)
    }, |w: &Workload| {
        let optimistic = run_one(w, true)?;
        let pessimistic = run_one(w, false)?;
        ensure_eq!(optimistic, pessimistic, "write-heavy divergence");
        Ok(())
    });
}
