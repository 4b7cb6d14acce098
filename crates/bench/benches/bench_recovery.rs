//! Crash-recovery constant factors: the journal append a long-lock grant
//! pays, a whole check-out's lock set journaled through the lock manager
//! (one and two threads), cold-medium replay, and bulk lock
//! re-installation.

use colock_core::ResourcePath;
use colock_lockmgr::{
    Journal, JournalOp, JournalSink, LockManager, LockMode, LockRequestOptions, TxnId,
};
use colock_testkit::{black_box, BenchHarness};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// A medium with `n` grants from 16 owners, every other one released, so
/// replay exercises the fold (insert + remove), not just inserts.
fn medium_with(n: u64) -> String {
    let journal: Journal<u64> = Journal::new();
    for i in 0..n {
        journal.record(JournalOp::Grant, TxnId(1 + i % 16), &i, LockMode::X).unwrap();
    }
    for i in (0..n).step_by(2) {
        journal.record(JournalOp::Release, TxnId(1 + i % 16), &i, LockMode::X).unwrap();
    }
    journal.contents()
}

/// The long lock set of a robot check-out in cell `cell`: IX on the five
/// ancestors, X on the robot, IS on the library's two ancestors below the
/// database and S on one effector — nine locks, the mix's check-out shape.
fn checkout_lockset(cell: usize) -> Vec<(ResourcePath, LockMode)> {
    let robot = ResourcePath::database("db1")
        .segment("seg1")
        .relation("cells")
        .object(format!("c{cell}"))
        .attr("robots")
        .elem("r1");
    let effector = ResourcePath::database("db1")
        .segment("seg2")
        .relation("effectors")
        .object(format!("e{cell}"));
    let mut set: Vec<_> = robot.ancestors().into_iter().map(|a| (a, LockMode::IX)).collect();
    set.push((robot, LockMode::X));
    set.extend(effector.ancestors().into_iter().skip(1).map(|a| (a, LockMode::IS)));
    set.push((effector, LockMode::S));
    set
}

/// One check-out request of `set` for `txn`, then its end of transaction.
fn checkout_and_release(
    lm: &LockManager<ResourcePath>,
    txn: TxnId,
    set: &[(ResourcePath, LockMode)],
) {
    let mut request = lm.request(txn);
    for (resource, mode) in set {
        request.acquire(resource.clone(), *mode, LockRequestOptions::long()).unwrap();
    }
    request.finish().unwrap();
    black_box(lm.release_all(txn));
}

/// A lock manager with a journal attached.
fn journaled_manager() -> Arc<LockManager<ResourcePath>> {
    let lm = Arc::new(LockManager::new());
    assert!(lm.attach_journal(Arc::new(Journal::<ResourcePath>::new())));
    lm
}

fn bench_recovery(h: &mut BenchHarness) {
    let mut group = h.group("recovery");
    group.bench("journal_append_grant", |b| {
        let journal: Journal<u64> = Journal::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            journal.record(JournalOp::Grant, TxnId(1), black_box(&i), LockMode::X).unwrap();
        });
    });
    group.bench("journal_grant_release_cycle", |b| {
        // Steady state: four owners, each releasing its previous lock before
        // granting the next, so at most four locks are live.
        let journal: Journal<u64> = Journal::new();
        let mut i = 0u64;
        b.iter(|| {
            let owner = TxnId(1 + i % 4);
            if i >= 4 {
                journal.record(JournalOp::Release, owner, black_box(&(i - 4)), LockMode::X).unwrap();
            }
            journal.record(JournalOp::Grant, owner, black_box(&i), LockMode::X).unwrap();
            i += 1;
        });
    });
    group.bench("checkout_lockset_unjournaled", |b| {
        // The same check-out without a journal: the lock table's share.
        let lm: LockManager<ResourcePath> = LockManager::new();
        let set = checkout_lockset(1);
        let mut txn = 0u64;
        b.iter(|| {
            txn += 1;
            checkout_and_release(&lm, TxnId(txn), &set);
        });
    });
    group.bench("journal_checkout_lockset", |b| {
        let lm = journaled_manager();
        let set = checkout_lockset(1);
        assert_eq!(set.len(), 9);
        let mut txn = 0u64;
        b.iter(|| {
            txn += 1;
            checkout_and_release(&lm, TxnId(txn), &set);
        });
    });
    group.bench("journal_checkout_lockset_t2", |b| {
        // The measured thread's cost per check-out while a second thread
        // runs the same loop on another cell (shared ancestors, one journal).
        let lm = journaled_manager();
        let stop = Arc::new(AtomicBool::new(false));
        let peer = {
            let (lm, stop) = (Arc::clone(&lm), Arc::clone(&stop));
            thread::spawn(move || {
                let set = checkout_lockset(2);
                let mut txn = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    txn += 2;
                    checkout_and_release(&lm, TxnId(txn), &set);
                }
            })
        };
        let set = checkout_lockset(1);
        let mut txn = 1u64;
        b.iter(|| {
            txn += 2;
            checkout_and_release(&lm, TxnId(txn), &set);
        });
        stop.store(true, Ordering::Relaxed);
        peer.join().unwrap();
    });
    group.bench("replay_1500_records", |b| {
        let medium = medium_with(1_000);
        b.iter(|| Journal::<u64>::replay(black_box(&medium)).unwrap());
    });
    group.bench("reinstall_500_locks", |b| {
        let recovered = Journal::<u64>::replay(&medium_with(1_000)).unwrap();
        b.iter(|| {
            let lm: LockManager<u64> = LockManager::new();
            for (resource, txn, mode) in &recovered.entries {
                lm.install_recovered(*txn, [(*resource, *mode)]);
            }
            black_box(lm.table_size())
        });
    });
    group.finish();
}

fn main() {
    let mut h = BenchHarness::new();
    bench_recovery(&mut h);
}
