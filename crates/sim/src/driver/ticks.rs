//! Deterministic tick-based scheduler.
//!
//! Every simulated transaction advances at most one operation per tick, in
//! round-robin order; an operation that cannot get its locks (try-lock
//! returns would-block) retries on the next tick and the blocked tick is
//! counted. If a full round passes with every active transaction blocked,
//! the youngest is aborted and restarted — deterministic deadlock
//! resolution. Identical seeds → identical schedules → identical metrics,
//! which is what the experiment tables are built from.

use crate::metrics::Metrics;
use crate::workload::mix::Op;
use colock_core::AccessMode;
use colock_testkit::Rng;
use colock_txn::{TransactionManager, Transaction, TxnKind};

/// Configuration of a tick run.
#[derive(Debug, Clone, Copy)]
pub struct TickConfig {
    /// Transactions each worker must commit before the run ends.
    pub txns_per_worker: usize,
    /// Extra ticks a checkout (long transaction) holds its locks.
    pub hold_ticks_after_checkout: u64,
    /// Safety valve: abort the run after this many ticks.
    pub max_ticks: u64,
    /// Seed of the deadlock-abort backoff jitter. A constant rest period
    /// lets two workers that deadlock, back off, and restart in lockstep
    /// deadlock again on the same tick forever; jitter breaks the symmetry
    /// while identical seeds keep runs reproducible.
    pub jitter_seed: u64,
    /// Run all-read scripts as read-only snapshot transactions: they begin
    /// via [`TransactionManager::begin_readonly`] and read through the
    /// multiversion overlay instead of S locks. Per-read blocked-tick counts
    /// land in [`Metrics::reader_waits`] (always 0 while MVCC is on — the
    /// whole point; under the MVCC-off ablation they lock and wait).
    pub snapshot_readers: bool,
}

impl Default for TickConfig {
    fn default() -> Self {
        TickConfig {
            txns_per_worker: 10,
            hold_ticks_after_checkout: 0,
            max_ticks: 1_000_000,
            jitter_seed: 0x5EED,
            snapshot_readers: false,
        }
    }
}

/// Outcome classification of one worker script (used by tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOutcome {
    /// All transactions committed.
    Completed,
    /// Run hit the tick limit first.
    TimedOut,
}

/// Report of one tick run.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// Aggregate metrics.
    pub metrics: Metrics,
    /// Outcome.
    pub outcome: ScriptOutcome,
}

enum Step {
    Do(Op),
    Hold(u64),
}

struct Worker<'m> {
    txn: Option<Transaction<'m>>,
    scripts: Vec<Vec<Op>>,
    script_idx: usize,
    step_idx: usize,
    steps: Vec<Step>,
    committed: usize,
    blocked_now: bool,
    /// Backoff after a deadlock abort: the worker rests until this tick so
    /// the surviving transactions can drain the cycle (prevents the
    /// restart-and-reblock livelock).
    sleep_until: u64,
    /// Current transaction is a read-only snapshot transaction.
    readonly: bool,
    /// Ticks the current operation has spent blocked (flushed into
    /// `Metrics::reader_waits` when a read-only op finally succeeds).
    op_blocked: u64,
}

/// The deterministic driver.
pub struct TickDriver<'m> {
    mgr: &'m TransactionManager,
    cfg: TickConfig,
}

impl<'m> TickDriver<'m> {
    /// Creates a driver over a manager.
    pub fn new(mgr: &'m TransactionManager, cfg: TickConfig) -> Self {
        TickDriver { mgr, cfg }
    }

    /// Runs the given per-worker scripts (`scripts[w][t]` = ops of worker
    /// `w`'s `t`-th transaction) to completion and reports metrics.
    pub fn run(&self, scripts: Vec<Vec<Vec<Op>>>) -> TickReport {
        let start_stats = self.mgr.lock_manager().stats().snapshot();
        let start_scans = self.mgr.store().scan_visits();
        let mut metrics = Metrics::default();
        let mut workers: Vec<Worker<'m>> = scripts
            .into_iter()
            .map(|scripts| Worker {
                txn: None,
                scripts,
                script_idx: 0,
                step_idx: 0,
                steps: Vec::new(),
                committed: 0,
                blocked_now: false,
                sleep_until: 0,
                readonly: false,
                op_blocked: 0,
            })
            .collect();

        let mut jitter = Rng::seed_from_u64(self.cfg.jitter_seed);
        let mut tick: u64 = 0;
        loop {
            if tick >= self.cfg.max_ticks {
                metrics.total_ticks = tick;
                metrics.locks = self
                    .mgr
                    .lock_manager()
                    .stats()
                    .snapshot()
                    .since(&start_stats);
                metrics.scan_visits = self.mgr.store().scan_visits() - start_scans;
                for w in &mut workers {
                    if let Some(t) = w.txn.take() {
                        let _ = t.abort();
                    }
                }
                return TickReport { metrics, outcome: ScriptOutcome::TimedOut };
            }
            let mut all_done = true;
            let mut any_progress = false;
            let mut any_active = false;
            for w in workers.iter_mut() {
                if w.script_idx >= w.scripts.len() {
                    continue;
                }
                all_done = false;
                if tick < w.sleep_until {
                    // Resting after a deadlock abort: neither active nor
                    // progressing, so a persisting cycle among the others is
                    // still detected below.
                    continue;
                }
                any_active = true;
                if self.step_worker(w, tick, &mut metrics) {
                    any_progress = true;
                }
            }
            if all_done {
                break;
            }
            if !any_progress && any_active {
                // Every awake worker blocked: abort the youngest txn and put
                // its worker to sleep so the cycle can drain.
                self.resolve_stall(&mut workers, &mut metrics, tick, &mut jitter);
            }
            tick += 1;
        }
        metrics.total_ticks = tick;
        metrics.locks = self.mgr.lock_manager().stats().snapshot().since(&start_stats);
        metrics.scan_visits = self.mgr.store().scan_visits() - start_scans;
        TickReport { metrics, outcome: ScriptOutcome::Completed }
    }

    /// Advances one worker by one step; returns `true` on progress.
    fn step_worker(&self, w: &mut Worker<'m>, tick: u64, metrics: &mut Metrics) -> bool {
        if w.txn.is_none() {
            let script = &w.scripts[w.script_idx];
            let long = script
                .iter()
                .any(|op| matches!(op, Op::CheckoutCell { .. } | Op::CheckoutRobot { .. }));
            w.readonly = self.cfg.snapshot_readers
                && script.iter().all(|op| op.target().1 == AccessMode::Read);
            w.txn = Some(if w.readonly {
                self.mgr.begin_readonly()
            } else {
                self.mgr.begin(if long { TxnKind::Long } else { TxnKind::Short })
            });
            w.op_blocked = 0;
            w.steps = script
                .iter()
                .flat_map(|op| {
                    let mut v = vec![Step::Do(op.clone())];
                    if matches!(op, Op::CheckoutCell { .. } | Op::CheckoutRobot { .. })
                        && self.cfg.hold_ticks_after_checkout > 0
                    {
                        v.push(Step::Hold(self.cfg.hold_ticks_after_checkout));
                    }
                    v
                })
                .collect();
            w.step_idx = 0;
        }
        let txn = w.txn.as_ref().expect("txn just ensured");
        match &mut w.steps[w.step_idx] {
            Step::Hold(remaining) => {
                *remaining -= 1;
                if *remaining == 0 {
                    w.step_idx += 1;
                }
                // Holding is progress (the txn is deliberately idle).
                w.blocked_now = false;
                self.maybe_finish(w, metrics);
                true
            }
            Step::Do(op) => {
                let (target, access) = op.target();
                if w.readonly {
                    return match txn.try_snapshot_read(&target) {
                        Ok(_) => {
                            metrics.reader_waits.record(w.op_blocked);
                            w.op_blocked = 0;
                            w.step_idx += 1;
                            w.blocked_now = false;
                            self.maybe_finish(w, metrics);
                            true
                        }
                        Err(e) if e.is_would_block() => {
                            // Only the S-locking ablation can get here: a
                            // snapshot read never blocks.
                            metrics.blocked_ticks += 1;
                            w.op_blocked += 1;
                            w.blocked_now = true;
                            false
                        }
                        Err(_) => {
                            w.op_blocked = 0;
                            w.step_idx += 1;
                            w.blocked_now = false;
                            self.maybe_finish(w, metrics);
                            true
                        }
                    };
                }
                match txn.try_lock(&target, access) {
                    Ok(_) => {
                        if let Some((t, v)) = op.update_payload(tick) {
                            // The data touch; locks are already held.
                            txn.update(&t, v).expect("update under held lock");
                        }
                        w.step_idx += 1;
                        w.blocked_now = false;
                        self.maybe_finish(w, metrics);
                        true
                    }
                    Err(e) if e.is_would_block() => {
                        metrics.blocked_ticks += 1;
                        w.blocked_now = true;
                        false
                    }
                    Err(_) => {
                        // Unauthorized or storage error: skip this op.
                        w.step_idx += 1;
                        w.blocked_now = false;
                        self.maybe_finish(w, metrics);
                        true
                    }
                }
            }
        }
    }

    fn maybe_finish(&self, w: &mut Worker<'m>, metrics: &mut Metrics) {
        if w.step_idx >= w.steps.len() {
            if let Some(t) = w.txn.take() {
                t.commit().expect("commit");
            }
            metrics.committed += 1;
            w.committed += 1;
            w.script_idx += 1;
        }
    }

    fn resolve_stall(
        &self,
        workers: &mut [Worker<'m>],
        metrics: &mut Metrics,
        tick: u64,
        jitter: &mut Rng,
    ) {
        let base = workers.len() as u64 + 2;
        let backoff = base + jitter.gen_range(0..base);
        // Youngest = highest TxnId among blocked actives.
        let victim = workers
            .iter_mut()
            .filter(|w| w.blocked_now && w.txn.is_some() && tick >= w.sleep_until)
            .max_by_key(|w| w.txn.as_ref().map(|t| t.id()).expect("txn present"));
        if let Some(w) = victim {
            if let Some(t) = w.txn.take() {
                let _ = t.abort();
            }
            metrics.deadlock_aborts += 1;
            w.step_idx = 0; // restart the same script after the backoff
            w.blocked_now = false;
            w.op_blocked = 0;
            w.sleep_until = tick + backoff;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::cells::{build_cells_store, CellsConfig};
    use colock_core::authorization::{Authorization, Right};
    use colock_txn::ProtocolKind;

    fn manager(protocol: ProtocolKind) -> TransactionManager {
        let store = build_cells_store(&CellsConfig::default());
        let mut authz = Authorization::allow_all();
        authz.set_relation_default("effectors", Right::Read);
        TransactionManager::over_store(store, authz, protocol)
    }

    #[test]
    fn disjoint_updates_finish_without_blocking() {
        let mgr = manager(ProtocolKind::Proposed);
        let driver = TickDriver::new(&mgr, TickConfig::default());
        let scripts = vec![
            vec![vec![Op::UpdateRobot { cell: 0, robot: 0 }]],
            vec![vec![Op::UpdateRobot { cell: 0, robot: 1 }]],
        ];
        let report = driver.run(scripts);
        assert_eq!(report.outcome, ScriptOutcome::Completed);
        assert_eq!(report.metrics.committed, 2);
        assert_eq!(report.metrics.blocked_ticks, 0);
        assert_eq!(report.metrics.deadlock_aborts, 0);
    }

    #[test]
    fn whole_object_blocks_where_proposed_does_not() {
        let scripts = || {
            vec![
                vec![vec![Op::ReadParts { cell: 0 }, Op::ReadParts { cell: 0 }]],
                vec![vec![Op::UpdateRobot { cell: 0, robot: 0 }]],
            ]
        };
        let mgr_p = manager(ProtocolKind::Proposed);
        let p = TickDriver::new(&mgr_p, TickConfig::default()).run(scripts());
        let mgr_w = manager(ProtocolKind::WholeObject);
        let w = TickDriver::new(&mgr_w, TickConfig::default()).run(scripts());
        assert_eq!(p.metrics.blocked_ticks, 0, "proposed: no blocking");
        assert!(w.metrics.blocked_ticks > 0, "whole-object must block");
    }

    #[test]
    fn deadlock_is_resolved_and_run_completes() {
        let mgr = manager(ProtocolKind::Proposed);
        let driver = TickDriver::new(&mgr, TickConfig::default());
        // Classic crossing order on two robots.
        let scripts = vec![
            vec![vec![
                Op::UpdateRobot { cell: 0, robot: 0 },
                Op::UpdateRobot { cell: 0, robot: 1 },
            ]],
            vec![vec![
                Op::UpdateRobot { cell: 0, robot: 1 },
                Op::UpdateRobot { cell: 0, robot: 0 },
            ]],
        ];
        let report = driver.run(scripts);
        assert_eq!(report.outcome, ScriptOutcome::Completed);
        assert_eq!(report.metrics.committed, 2);
        assert!(report.metrics.deadlock_aborts >= 1);
    }

    #[test]
    fn determinism_same_seeded_scripts_same_metrics() {
        let run = || {
            let mgr = manager(ProtocolKind::Proposed);
            let driver = TickDriver::new(&mgr, TickConfig::default());
            let mut gen = crate::workload::mix::OpGenerator::new(
                CellsConfig::default(),
                crate::workload::mix::QueryMix::engineering(),
                99,
            );
            let scripts: Vec<Vec<Vec<Op>>> =
                (0..4).map(|_| (0..5).map(|_| gen.next_txn(3)).collect()).collect();
            driver.run(scripts).metrics
        };
        let a = run();
        let b = run();
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.blocked_ticks, b.blocked_ticks);
        assert_eq!(a.total_ticks, b.total_ticks);
        assert_eq!(a.deadlock_aborts, b.deadlock_aborts);
    }

    /// With `snapshot_readers` on, an all-read script rides the multiversion
    /// overlay and finishes instantly even while a long checkout holds the
    /// whole cell under X — the exact scenario that blocks for the full hold
    /// period in `hold_ticks_stretch_checkouts` below.
    #[test]
    fn snapshot_readers_never_wait_behind_checkouts() {
        let mgr = manager(ProtocolKind::Proposed);
        let cfg = TickConfig {
            hold_ticks_after_checkout: 10,
            snapshot_readers: true,
            ..Default::default()
        };
        let driver = TickDriver::new(&mgr, cfg);
        let scripts = vec![
            vec![vec![Op::CheckoutCell { cell: 0 }]],
            vec![vec![Op::ReadRobot { cell: 0, robot: 0 }, Op::ReadParts { cell: 0 }]],
        ];
        let report = driver.run(scripts);
        assert_eq!(report.metrics.committed, 2);
        assert_eq!(report.metrics.blocked_ticks, 0, "snapshot reads never block");
        assert_eq!(report.metrics.reader_waits.count(), 2);
        assert_eq!(report.metrics.reader_waits.max_us(), 0);
        assert_eq!(report.metrics.locks.reads_elided, 2);
        // The ablation turns the same scripts back into waiting S readers.
        mgr.set_mvcc(false);
        let driver = TickDriver::new(&mgr, cfg);
        let report = driver.run(vec![
            vec![vec![Op::CheckoutCell { cell: 0 }]],
            vec![vec![Op::ReadRobot { cell: 0, robot: 0 }, Op::ReadParts { cell: 0 }]],
        ]);
        assert_eq!(report.metrics.committed, 2);
        assert!(report.metrics.blocked_ticks >= 8, "{}", report.metrics.blocked_ticks);
        assert!(report.metrics.reader_waits.max_us() >= 8);
        assert_eq!(report.metrics.locks.reads_elided, 0);
    }

    #[test]
    fn hold_ticks_stretch_checkouts() {
        let mgr = manager(ProtocolKind::Proposed);
        let cfg = TickConfig { hold_ticks_after_checkout: 10, ..Default::default() };
        let driver = TickDriver::new(&mgr, cfg);
        let scripts = vec![
            vec![vec![Op::CheckoutCell { cell: 0 }]],
            vec![vec![Op::ReadRobot { cell: 0, robot: 0 }]],
        ];
        let report = driver.run(scripts);
        assert_eq!(report.metrics.committed, 2);
        // The reader must have been blocked for roughly the hold period.
        assert!(report.metrics.blocked_ticks >= 8, "{}", report.metrics.blocked_ticks);
    }
}
