//! Real multithreaded driver: wall-clock throughput over the blocking lock
//! manager.

use crate::metrics::Metrics;
use crate::workload::cells::CellsConfig;
use crate::workload::mix::{OpGenerator, QueryMix};
use colock_testkit::Rng;
use colock_trace::WaitHistogram;
use colock_txn::{TransactionManager, TxnKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Configuration of a threaded run.
#[derive(Debug, Clone, Copy)]
pub struct ThreadConfig {
    /// Worker threads.
    pub workers: usize,
    /// Transactions each worker commits.
    pub txns_per_worker: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Operation mix.
    pub mix: QueryMix,
    /// Base RNG seed (worker `w` uses `seed + w`).
    pub seed: u64,
    /// Workload shape (for drawing op parameters).
    pub cells: CellsConfig,
    /// Percentage (0–100) of transactions run as read-only snapshot
    /// transactions: they draw from [`QueryMix::read_only`], begin via
    /// [`TransactionManager::begin_readonly`], and read through the
    /// multiversion overlay (or S locks when MVCC is disabled). Their
    /// per-read wall-clock latency lands in [`Metrics::reader_waits`].
    pub readonly_pct: u8,
}

impl Default for ThreadConfig {
    fn default() -> Self {
        ThreadConfig {
            workers: 4,
            txns_per_worker: 25,
            ops_per_txn: 3,
            mix: QueryMix::engineering(),
            seed: 1,
            cells: CellsConfig::default(),
            readonly_pct: 0,
        }
    }
}

/// Report of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadReport {
    /// Aggregate metrics (wall_ms set; ticks unused).
    pub metrics: Metrics,
    /// Committed transactions per second.
    pub throughput_per_sec: f64,
}

/// Runs the workload on real threads; deadlock victims abort and retry until
/// every worker has committed its quota.
pub fn run_threads(mgr: &Arc<TransactionManager>, cfg: &ThreadConfig) -> ThreadReport {
    let start_stats = mgr.lock_manager().stats().snapshot();
    let start_scans = mgr.store().scan_visits();
    // When tracing is on, remember where the event stream stood so the
    // histograms below cover exactly this run.
    let trace_start = mgr.trace().next_seq();
    let deadlocks = AtomicU64::new(0);
    let committed = AtomicU64::new(0);
    let reader_hist = Mutex::new(WaitHistogram::default());
    let started = Instant::now();

    thread::scope(|scope| {
        for w in 0..cfg.workers {
            let mgr = Arc::clone(mgr);
            let deadlocks = &deadlocks;
            let committed = &committed;
            let reader_hist = &reader_hist;
            let cfg = *cfg;
            scope.spawn(move || {
                let mut gen = OpGenerator::new(cfg.cells, cfg.mix, cfg.seed + w as u64);
                // Readers draw from an independent stream so turning them on
                // (or off) never perturbs the writer workload of a seed.
                let mut ro_gen = OpGenerator::new(
                    cfg.cells,
                    QueryMix::read_only(),
                    cfg.seed ^ 0x5eed_0000 ^ w as u64,
                );
                let mut ro_rng = Rng::seed_from_u64(cfg.seed.wrapping_mul(31) + w as u64);
                let mut local_hist = WaitHistogram::default();
                let mut done = 0usize;
                while done < cfg.txns_per_worker {
                    if cfg.readonly_pct > 0
                        && ro_rng.gen_range(0..100u32) < cfg.readonly_pct as u32
                    {
                        let ops = ro_gen.next_txn(cfg.ops_per_txn);
                        let txn = mgr.begin_readonly();
                        let mut failed = false;
                        for op in &ops {
                            let (target, _) = op.target();
                            let t0 = Instant::now();
                            match txn.snapshot_read(&target) {
                                Err(e) if e.is_deadlock() => {
                                    // Only possible on the S-locking fallback
                                    // path (MVCC off); retry like a writer.
                                    deadlocks.fetch_add(1, Ordering::Relaxed);
                                    failed = true;
                                    break;
                                }
                                // Unauthorized/absent targets still cost a
                                // read attempt; the txn continues.
                                _ => local_hist.record(t0.elapsed().as_micros() as u64),
                            }
                        }
                        if failed {
                            let _ = txn.abort();
                            continue;
                        }
                        txn.commit().expect("commit");
                        committed.fetch_add(1, Ordering::Relaxed);
                        done += 1;
                        continue;
                    }
                    let ops = gen.next_txn(cfg.ops_per_txn);
                    let long = ops
                        .iter()
                        .any(|o| matches!(o, crate::workload::mix::Op::CheckoutCell { .. } | crate::workload::mix::Op::CheckoutRobot { .. }));
                    let txn =
                        mgr.begin(if long { TxnKind::Long } else { TxnKind::Short });
                    let mut failed = false;
                    for (i, op) in ops.iter().enumerate() {
                        let (target, access) = op.target();
                        match txn.lock(&target, access) {
                            Ok(_) => {
                                if let Some((t, v)) = op.update_payload(i as u64) {
                                    if txn.update(&t, v).is_err() {
                                        failed = true;
                                        break;
                                    }
                                }
                            }
                            Err(e) if e.is_deadlock() => {
                                deadlocks.fetch_add(1, Ordering::Relaxed);
                                failed = true;
                                break;
                            }
                            Err(_) => {
                                // Unauthorized op: skip it, txn continues.
                            }
                        }
                    }
                    if failed {
                        let _ = txn.abort();
                        continue; // retry with a fresh transaction
                    }
                    txn.commit().expect("commit");
                    committed.fetch_add(1, Ordering::Relaxed);
                    done += 1;
                }
                if local_hist.count() > 0 {
                    reader_hist.lock().unwrap().merge(&local_hist);
                }
            });
        }
    });

    let elapsed = started.elapsed();
    // Histograms are a measurement, so a window the ring overwrote in part
    // still yields what it kept.
    let events = if mgr.trace().is_enabled() {
        mgr.trace().kept_since(trace_start)
    } else {
        Vec::new()
    };
    let wait_hists = if events.is_empty() {
        Default::default()
    } else {
        colock_trace::wait_histograms(&events)
    };
    let metrics = Metrics {
        committed: committed.load(Ordering::Relaxed),
        deadlock_aborts: deadlocks.load(Ordering::Relaxed),
        blocked_ticks: 0,
        total_ticks: 0,
        wall_ms: elapsed.as_millis() as u64,
        locks: mgr.lock_manager().stats().snapshot().since(&start_stats),
        scan_visits: mgr.store().scan_visits() - start_scans,
        wait_hists,
        reader_waits: reader_hist.into_inner().unwrap(),
    };
    let throughput = metrics.committed as f64 / elapsed.as_secs_f64().max(1e-9);
    ThreadReport { metrics, throughput_per_sec: throughput }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::cells::build_cells_store;
    use colock_core::authorization::{Authorization, Right};
    use colock_trace::TraceBuffer;
    use colock_txn::ProtocolKind;

    fn cells_manager(protocol: ProtocolKind) -> Arc<TransactionManager> {
        let store = build_cells_store(&CellsConfig::default());
        let mut authz = Authorization::allow_all();
        authz.set_relation_default("effectors", Right::Read);
        Arc::new(TransactionManager::over_store(store, authz, protocol))
    }

    #[test]
    fn threaded_run_commits_quota() {
        let mgr = cells_manager(ProtocolKind::Proposed);
        let cfg = ThreadConfig { workers: 4, txns_per_worker: 10, ..Default::default() };
        let report = run_threads(&mgr, &cfg);
        assert_eq!(report.metrics.committed, 40);
        assert!(report.throughput_per_sec > 0.0);
        // Everything released at the end.
        assert_eq!(mgr.lock_manager().table_size(), 0);
    }

    /// Attaches a fresh buffer of `capacity` slots, switched on, to `mgr`.
    fn trace_into(mgr: &TransactionManager, capacity: usize) -> Arc<TraceBuffer> {
        let trace = Arc::new(TraceBuffer::with_capacity(capacity));
        trace.enable();
        assert!(mgr.attach_trace(Arc::clone(&trace)));
        trace
    }

    /// Lints and certifies what `mgr` traced, and checks the window saw
    /// grants and commits.
    fn verify_window(mgr: &TransactionManager, label: &str) {
        let events = mgr.trace().events_since(0).unwrap_or_else(|e| panic!("{label}: {e}"));
        let (lint, cert) = colock_check::verify_trace(mgr.store().catalog(), &events)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(lint.grants_checked > 0, "{label}: no grants seen");
        assert!(cert.txns_committed > 0, "{label}: no committed txns certified");
    }

    /// Seeded random workloads must produce protocol-conformant traces
    /// under every shipped protocol — the linter stays silent — and every
    /// trace must certify conflict-serializable (acyclic conflict graph).
    #[test]
    fn random_workloads_lint_clean() {
        for (seed, protocol) in
            [(1, ProtocolKind::Proposed), (7, ProtocolKind::Proposed), (42, ProtocolKind::WholeObject)]
        {
            let mgr = cells_manager(protocol);
            trace_into(&mgr, 1 << 14);
            let cfg = ThreadConfig { workers: 4, txns_per_worker: 8, seed, ..Default::default() };
            run_threads(&mgr, &cfg);
            verify_window(&mgr, &format!("seed {seed} {protocol:?}"));
        }
    }

    /// Two managers traced at the same time in one process number their
    /// transactions alike (both have a T1); each one's buffer must hold its
    /// own events only and lint and certify clean. The second manager
    /// records more events than the first one's buffer holds while the
    /// first window is open, and cannot evict any of it.
    #[test]
    fn concurrent_managers_each_verify_clean() {
        let mgrs = [cells_manager(ProtocolKind::Proposed), cells_manager(ProtocolKind::Proposed)];
        let (small, large) = (trace_into(&mgrs[0], 1 << 12), trace_into(&mgrs[1], 1 << 15));
        thread::scope(|scope| {
            for (i, mgr) in mgrs.iter().enumerate() {
                scope.spawn(move || {
                    let txns_per_worker = if i == 0 { 12 } else { 120 };
                    let cfg = ThreadConfig {
                        workers: 2,
                        txns_per_worker,
                        seed: 3 + i as u64,
                        ..Default::default()
                    };
                    run_threads(mgr, &cfg);
                });
            }
        });
        assert!(large.next_seq() > small.capacity() as u64, "the flood outgrew the small buffer");
        for (i, mgr) in mgrs.iter().enumerate() {
            verify_window(mgr, &format!("manager {i}"));
        }
        let of_kind = |trace: &TraceBuffer, kind| -> Vec<u64> {
            let events = trace.events_since(0).expect("window kept");
            events.iter().filter(|e| e.kind == kind).map(|e| e.txn).collect()
        };
        use colock_trace::EventKind::{TxnBegin, TxnCommit};
        let (a, b) = (of_kind(&small, TxnBegin), of_kind(&large, TxnBegin));
        assert!(a.contains(&1) && b.contains(&1), "both managers begin a T1: {a:?} / {b:?}");
        assert_eq!(of_kind(&small, TxnCommit).len(), 24, "the small buffer holds foreign commits");
        assert_eq!(of_kind(&large, TxnCommit).len(), 240, "the large buffer holds foreign commits");
    }

    /// Read-mostly runs commit their quota, route every snapshot read past
    /// the lock table, and record per-read latencies — with and without the
    /// multiversion overlay (the ablation falls back to S locks).
    #[test]
    fn read_mostly_run_elides_locks_and_records_reader_waits() {
        let mgr = cells_manager(ProtocolKind::Proposed);
        let cfg = ThreadConfig {
            workers: 4,
            txns_per_worker: 10,
            readonly_pct: 60,
            ..Default::default()
        };
        let report = run_threads(&mgr, &cfg);
        assert_eq!(report.metrics.committed, 40);
        assert!(report.metrics.locks.reads_elided > 0, "no snapshot reads happened");
        assert_eq!(report.metrics.reader_waits.count(), report.metrics.locks.reads_elided);
        assert_eq!(mgr.lock_manager().table_size(), 0);

        // Ablation: same shape, overlay off — readers lock instead.
        mgr.set_mvcc(false);
        let report = run_threads(&mgr, &cfg);
        assert_eq!(report.metrics.committed, 40);
        assert_eq!(report.metrics.locks.reads_elided, 0);
        assert!(report.metrics.reader_waits.count() > 0);
        assert_eq!(mgr.lock_manager().table_size(), 0);
    }

    #[test]
    fn update_heavy_mix_still_completes_under_all_protocols() {
        for protocol in [ProtocolKind::Proposed, ProtocolKind::WholeObject, ProtocolKind::TupleLevel] {
            let mgr = cells_manager(protocol);
            let cfg = ThreadConfig {
                workers: 3,
                txns_per_worker: 5,
                mix: QueryMix::update_heavy(),
                ..Default::default()
            };
            let report = run_threads(&mgr, &cfg);
            assert_eq!(report.metrics.committed, 15, "{protocol:?}");
        }
    }
}

#[cfg(test)]
mod liveness_tests {
    use super::*;
    use crate::workload::cells::build_cells_store;
    use colock_core::authorization::{Authorization, Right};
    use colock_txn::ProtocolKind;
    use std::sync::Arc;

    /// Regression test for the stale-victim deadlock hang: under the
    /// engineering mix (checkouts + upgrades + shared-data propagation) a
    /// waits-for cycle could be detected but left unresolved when the chosen
    /// victim's waiter had already been granted; the snapshot detector (run
    /// on every enqueue with all shards locked) and next-youngest fallback
    /// now guarantee progress. Sweep several seeds — before the fix this
    /// hung within a handful of varied-seed rounds.
    #[test]
    fn engineering_mix_liveness_across_seeds() {
        let cells = CellsConfig {
            n_cells: 4,
            c_objects_per_cell: 40,
            robots_per_cell: 4,
            n_effectors: 6,
            effectors_per_robot: 2,
            ..Default::default()
        };
        for seed in 0..12 {
            let store = build_cells_store(&cells);
            let mut authz = Authorization::allow_all();
            authz.set_relation_default("effectors", Right::Read);
            let mgr = Arc::new(TransactionManager::over_store(
                store,
                authz,
                ProtocolKind::Proposed,
            ));
            let cfg = ThreadConfig {
                workers: 4,
                txns_per_worker: 4,
                ops_per_txn: 3,
                mix: QueryMix::engineering(),
                seed,
                cells,
                readonly_pct: 0,
            };
            let report = run_threads(&mgr, &cfg);
            assert_eq!(report.metrics.committed, 16, "seed {seed}");
            assert_eq!(mgr.lock_manager().table_size(), 0, "seed {seed}");
        }
    }
}
