//! `LockStats` keeps one counter cell per thread slot. What every reader
//! sees is the merged view: counters summed exactly over the cells, marks
//! their maximum; `reset` clears every cell, not only the caller's; and
//! `since` is unchanged by the split.

use colock_lockmgr::{LockManager, LockMode, LockRequestOptions, LockStats, StatsSnapshot, TxnId};
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: u64 = 6;
const BUMPS: u64 = 5_000;

#[test]
fn snapshots_sum_counters_and_max_marks_across_threads() {
    let stats = Arc::new(LockStats::default());
    LockStats::add(&stats.requests, 7);
    let before = stats.snapshot();
    let start = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (stats, start) = (Arc::clone(&stats), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                for i in 0..BUMPS {
                    LockStats::bump(&stats.requests);
                    LockStats::add(&stats.conflict_tests, t);
                    LockStats::raise(&stats.max_table_entries, t * 100 + i % 50);
                }
                LockStats::raise(&stats.max_locks_per_txn, t + 1);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("bumping thread");
    }

    let s = stats.snapshot();
    assert_eq!(s.requests, 7 + THREADS * BUMPS, "every bump counted once");
    assert_eq!(s.conflict_tests, BUMPS * (0..THREADS).sum::<u64>());
    assert_eq!(s.max_table_entries, (THREADS - 1) * 100 + 49, "the highest mark of any thread");
    assert_eq!(s.max_locks_per_txn, THREADS);
    assert_eq!(s.waits, 0);

    // `since` differences counters and keeps the later marks.
    let d = s.since(&before);
    assert_eq!(d.requests, THREADS * BUMPS);
    assert_eq!(d.max_table_entries, s.max_table_entries);

    // The calling thread never bumped most of these cells; reset clears
    // them all.
    stats.reset();
    assert_eq!(stats.snapshot(), StatsSnapshot::default());
}

#[test]
fn the_gate_identity_holds_after_a_two_thread_run() {
    let lm: Arc<LockManager<String>> = Arc::new(LockManager::new());
    let start = Arc::new(Barrier::new(2));
    let rounds = 2_000u64;
    let handles: Vec<_> = (0..2u64)
        .map(|w| {
            let (lm, start) = (Arc::clone(&lm), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                for i in 0..rounds {
                    let txn = TxnId(1 + w + 2 * i);
                    let opts = LockRequestOptions::default();
                    lm.acquire(txn, "db".to_string(), LockMode::IX, opts).expect("root intent");
                    lm.acquire(txn, format!("db/t{w}"), LockMode::IX, opts).expect("own intent");
                    lm.acquire(txn, format!("db/t{w}/{}", i % 8), LockMode::X, opts)
                        .expect("own leaf");
                    assert_eq!(lm.release_all(txn), 3);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("locking thread");
    }
    let s = lm.stats().snapshot();
    assert_eq!(s.requests, 2 * 3 * rounds, "one request per acquire");
    assert_eq!(s.releases, 2 * 3 * rounds, "one release per held lock");
    assert!(s.intent_acquires > 0, "intent requests enter the fast-path gate: {s:?}");
    assert_eq!(
        s.fastpath_hits + s.fastpath_fallbacks,
        s.intent_acquires,
        "gate identity over the merged cells: {s:?}"
    );
    assert_eq!(s.waits, 0, "disjoint leaves never wait");
    assert_eq!(lm.table_size(), 0);
}
