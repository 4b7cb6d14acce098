//! Crash-recovery constant factors: the write-ahead append a long-lock
//! grant pays, cold-medium replay, and bulk lock re-installation.

use colock_lockmgr::{Journal, JournalOp, JournalSink, LockManager, LockMode, TxnId};
use colock_testkit::{black_box, BenchHarness};

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
    group.bench("replay_1500_records", |b| {
        let medium = medium_with(1_000);
        b.iter(|| Journal::<u64>::replay(black_box(&medium)).unwrap());
    });
    group.bench("reinstall_500_locks", |b| {
        let recovered = Journal::<u64>::replay(&medium_with(1_000)).unwrap();
        b.iter(|| {
            let lm: LockManager<u64> = LockManager::new();
            for (resource, txn, mode) in &recovered.entries {
                lm.install_recovered(*txn, *resource, *mode);
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
