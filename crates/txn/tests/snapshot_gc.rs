//! Snapshot pins against version GC. Two threads loop `begin_readonly` +
//! `snapshot_read` while a third commits writes and runs `gc_versions`
//! after every one. A read-only transaction pins its timestamp under its
//! pin stripe's lock and GC computes its watermark with every stripe
//! locked, so no prune can drop the version a pinned snapshot reads: no
//! snapshot read may fail, and each must see exactly the version its pin
//! names — not an older one, not a newer one.

use colock_core::authorization::Authorization;
use colock_core::fixtures::fig1_catalog;
use colock_core::InstanceTarget;
use colock_nf2::value::build::tup;
use colock_nf2::Value;
use colock_storage::Store;
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// How long the three threads race.
const RACE: Duration = Duration::from_millis(1500);

fn counter(k: u64) -> Value {
    Value::Str(k.to_string())
}

#[test]
fn gc_never_prunes_a_pinned_snapshot() {
    let store = Arc::new(Store::new(Arc::new(fig1_catalog())));
    store
        .insert("effectors", tup(vec![("eff_id", Value::str("e1")), ("tool", counter(0))]))
        .expect("seed the counter");
    // The counter's k-th committed value is k, committed at `base + k`.
    let base = store.clock().stable();
    let mgr = Arc::new(TransactionManager::over_store(
        store,
        Authorization::allow_all(),
        ProtocolKind::Proposed,
    ));
    mgr.set_gc_every(0);
    let tool = InstanceTarget::object("effectors", "e1").attr("tool");
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(3));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (mgr, tool, stop, start) =
                (Arc::clone(&mgr), tool.clone(), Arc::clone(&stop), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let txn = mgr.begin_readonly();
                    let ts = txn.snapshot_ts().expect("MVCC is on");
                    let seen = txn
                        .snapshot_read(&tool)
                        .unwrap_or_else(|e| panic!("snapshot read at pin {ts} failed: {e}"));
                    assert_eq!(seen, counter(ts - base), "the version pin {ts} names");
                    txn.commit().expect("read-only commit");
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let writer = {
        let (mgr, tool, stop, start) =
            (Arc::clone(&mgr), tool.clone(), Arc::clone(&stop), Arc::clone(&start));
        thread::spawn(move || {
            start.wait();
            let mut k = 0;
            while !stop.load(Ordering::Relaxed) {
                k += 1;
                let txn = mgr.begin(TxnKind::Short);
                txn.update(&tool, counter(k)).expect("the only writer never waits");
                txn.commit().expect("writer commit");
                mgr.gc_versions();
            }
            k
        })
    };

    let t0 = Instant::now();
    while t0.elapsed() < RACE {
        thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let commits = writer.join().expect("writer");
    let reads: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(commits > 0 && reads > 0, "{commits} commits, {reads} reads");
    assert_eq!(mgr.active_count(), 0);
    // Nothing pinned any more: the chain is pruned to its last version.
    mgr.gc_versions();
    assert_eq!(mgr.store().version_entries("effectors").expect("relation"), 1);
}
