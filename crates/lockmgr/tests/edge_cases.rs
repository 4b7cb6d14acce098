//! Edge cases of the lock table: SIX semantics, multi-party deadlocks,
//! queue hygiene after timeouts, recovery interplay.

use colock_lockmgr::{
    AcquireOutcome, Journal, LockError, LockManager, LockMode, LockRequestOptions, TxnId,
    WaitPolicy,
};
use colock_testkit::wait_until;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

type Mgr = LockManager<&'static str>;

fn t(n: u64) -> TxnId {
    TxnId(n)
}

#[test]
fn six_coexists_with_is_only() {
    let m = Mgr::new();
    m.acquire(t(1), "r", LockMode::SIX, LockRequestOptions::default()).unwrap();
    // IS is compatible with SIX.
    assert!(m.acquire(t(2), "r", LockMode::IS, LockRequestOptions::try_lock()).is_ok());
    // IX, S, SIX, X are not.
    for mode in [LockMode::IX, LockMode::S, LockMode::SIX, LockMode::X] {
        let r = m.acquire(t(3), "r", mode, LockRequestOptions::try_lock());
        assert!(r.is_err(), "{mode} must conflict with SIX");
    }
}

#[test]
fn s_plus_ix_conversion_yields_six() {
    let m = Mgr::new();
    m.acquire(t(1), "r", LockMode::S, LockRequestOptions::default()).unwrap();
    m.acquire(t(1), "r", LockMode::IX, LockRequestOptions::default()).unwrap();
    assert_eq!(m.held_mode(t(1), &"r"), LockMode::SIX);
    // And SIX → X is a further upgrade.
    m.acquire(t(1), "r", LockMode::X, LockRequestOptions::default()).unwrap();
    assert_eq!(m.held_mode(t(1), &"r"), LockMode::X);
}

#[test]
fn three_party_deadlock_detected() {
    let m = Arc::new(Mgr::new());
    m.acquire(t(1), "a", LockMode::X, LockRequestOptions::default()).unwrap();
    m.acquire(t(2), "b", LockMode::X, LockRequestOptions::default()).unwrap();
    m.acquire(t(3), "c", LockMode::X, LockRequestOptions::default()).unwrap();
    // 1 -> b, 2 -> c block; 3 -> a closes the 3-cycle.
    let m1 = Arc::clone(&m);
    let h1 = thread::spawn(move || m1.acquire(t(1), "b", LockMode::X, LockRequestOptions::default()));
    let m2 = Arc::clone(&m);
    let h2 = thread::spawn(move || m2.acquire(t(2), "c", LockMode::X, LockRequestOptions::default()));
    // Deterministic: wait for both edges 1→b and 2→c to be in the queues
    // before closing the cycle (no timing assumptions).
    wait_until(WAIT, || m.waiter_count(&"b") == 1 && m.waiter_count(&"c") == 1);
    let r3 = m.acquire(t(3), "a", LockMode::X, LockRequestOptions::default());
    match r3 {
        Err(LockError::Deadlock { victim, cycle }) => {
            assert_eq!(victim, t(3), "youngest in the cycle");
            assert!(cycle.len() >= 2, "{cycle:?}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    m.release_all(t(3));
    // The other two finish once the chain unwinds.
    m.release_all(t(1)); // releases "a"; h1 still waits on "b"
    let r2 = h2.join().unwrap();
    // t2 obtains "c"? It already held c; it waited for... (t2 -> c is its own
    // next resource) — after t3 aborted, c is free of t3; t2's request was
    // for "c" which t3 held.
    assert!(r2.is_ok());
    m.release_all(t(2));
    assert!(h1.join().unwrap().is_ok());
    m.release_all(t(1));
    assert_eq!(m.table_size(), 0);
}

#[test]
fn timeout_leaves_queue_functional() {
    let m = Mgr::new();
    m.acquire(t(1), "r", LockMode::X, LockRequestOptions::default()).unwrap();
    let opts = LockRequestOptions {
        policy: WaitPolicy::BlockTimeout(Duration::from_millis(30)),
        long: false,
    };
    assert_eq!(m.acquire(t(2), "r", LockMode::S, opts), Err(LockError::Timeout));
    // After the holder releases, a fresh request succeeds immediately.
    m.release(t(1), &"r");
    assert_eq!(
        m.acquire(t(2), "r", LockMode::S, LockRequestOptions::default()).unwrap(),
        AcquireOutcome::Granted { waited: false }
    );
}

#[test]
fn release_of_unheld_resource_is_false() {
    let m = Mgr::new();
    assert!(!m.release(t(1), &"never"));
    m.acquire(t(1), "r", LockMode::S, LockRequestOptions::default()).unwrap();
    assert!(!m.release(t(2), &"r"), "other txn's release must not drop the lock");
    assert_eq!(m.held_mode(t(1), &"r"), LockMode::S);
}

#[test]
fn release_all_of_unknown_txn_is_zero() {
    let m = Mgr::new();
    assert_eq!(m.release_all(t(77)), 0);
}

#[test]
fn locks_of_reports_modes_and_long_flags() {
    let m = Mgr::new();
    m.acquire(t(1), "a", LockMode::S, LockRequestOptions::long()).unwrap();
    m.acquire(t(1), "b", LockMode::IX, LockRequestOptions::default()).unwrap();
    let mut locks = m.locks_of(t(1));
    locks.sort_by_key(|(r, _, _)| *r);
    assert_eq!(locks, vec![("a", LockMode::S, true), ("b", LockMode::IX, false)]);
}

#[test]
fn waiters_are_woken_in_fifo_order() {
    let m = Arc::new(Mgr::new());
    m.acquire(t(1), "r", LockMode::X, LockRequestOptions::default()).unwrap();
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for i in 2..=4u64 {
        let m2 = Arc::clone(&m);
        let order = Arc::clone(&order);
        handles.push(thread::spawn(move || {
            m2.acquire(t(i), "r", LockMode::X, LockRequestOptions::default()).unwrap();
            order.lock().unwrap().push(i);
            m2.release(t(i), &"r");
        }));
        // Queue position is arrival order: wait until this waiter is enqueued
        // before spawning the next one (deterministic, no sleeps).
        wait_until(WAIT, || m.waiter_count(&"r") == (i - 1) as usize);
    }
    m.release(t(1), &"r");
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), vec![2, 3, 4]);
}

/// A "crash": replays `journal` into a brand-new manager, one owner at a
/// time (replayed entries are sorted by owner).
fn recover_into_fresh(journal: &Journal<String>) -> LockManager<String> {
    let fresh = LockManager::new();
    let replayed = Journal::<String>::replay(&journal.contents()).unwrap();
    for owner in replayed.entries.chunk_by(|a, b| a.1 == b.1) {
        fresh.install_recovered(owner[0].1, owner.iter().map(|(r, _, m)| (r.clone(), *m)));
    }
    fresh
}

fn journaled() -> (LockManager<String>, Arc<Journal<String>>) {
    let m = LockManager::new();
    let journal = Arc::new(Journal::new());
    assert!(m.attach_journal(journal.clone()));
    (m, journal)
}

#[test]
fn recovered_long_locks_participate_in_new_conflicts() {
    let (m, journal) = journaled();
    m.acquire(t(1), "cell".into(), LockMode::X, LockRequestOptions::long()).unwrap();
    m.acquire(t(1), "tmp".into(), LockMode::S, LockRequestOptions::default()).unwrap();

    let fresh = recover_into_fresh(&journal);
    // The restored lock conflicts; the non-long one is gone.
    assert!(fresh.acquire(t(2), "cell".into(), LockMode::S, LockRequestOptions::try_lock()).is_err());
    assert!(fresh.acquire(t(2), "tmp".into(), LockMode::X, LockRequestOptions::try_lock()).is_ok());
    // The owner can continue where it left off (upgrade is a no-op).
    assert_eq!(
        fresh.acquire(t(1), "cell".into(), LockMode::X, LockRequestOptions::default()).unwrap(),
        AcquireOutcome::AlreadyHeld
    );
}

#[test]
fn captured_image_survives_crash() {
    let (m, journal) = journaled();
    m.acquire(t(1), "a".to_string(), LockMode::X, LockRequestOptions::long()).unwrap();
    m.acquire(t(2), "b".to_string(), LockMode::S, LockRequestOptions::long()).unwrap();
    m.acquire(t(2), "scratch".to_string(), LockMode::X, LockRequestOptions::default()).unwrap();
    let replayed = Journal::<String>::replay(&journal.contents()).unwrap();
    assert_eq!(replayed.entries.len(), 2, "short lock must not be journaled");

    // "Crash": recover into a brand-new manager and check the long locks are
    // live again (install_recovered under the hood) while short ones are gone.
    let fresh = recover_into_fresh(&journal);
    assert_eq!(fresh.held_mode(t(1), &"a".to_string()), LockMode::X);
    assert_eq!(fresh.held_mode(t(2), &"b".to_string()), LockMode::S);
    assert_eq!(fresh.held_mode(t(2), &"scratch".to_string()), LockMode::NL);
    assert!(fresh
        .acquire(t(3), "a".to_string(), LockMode::S, LockRequestOptions::try_lock())
        .is_err());
}

#[test]
fn stats_wait_counter_increments() {
    let m = Arc::new(Mgr::new());
    m.acquire(t(1), "r", LockMode::X, LockRequestOptions::default()).unwrap();
    let m2 = Arc::clone(&m);
    let h = thread::spawn(move || {
        m2.acquire(t(2), "r", LockMode::S, LockRequestOptions::default()).unwrap()
    });
    wait_until(WAIT, || m.waiter_count(&"r") == 1);
    m.release(t(1), &"r");
    h.join().unwrap();
    let s = m.stats().snapshot();
    assert_eq!(s.waits, 1);
    assert!(s.immediate_grants >= 1);
}

#[test]
fn intent_locks_never_conflict_with_each_other() {
    let m = Mgr::new();
    for (i, mode) in [LockMode::IS, LockMode::IX, LockMode::IS, LockMode::IX]
        .into_iter()
        .enumerate()
    {
        m.acquire(t(i as u64 + 1), "db", mode, LockRequestOptions::try_lock()).unwrap();
    }
    assert_eq!(m.holders(&"db").len(), 4);
}

#[test]
fn queue_drain_reaches_waiters_behind_compatible_grants() {
    // Regression: two compatible waiters queued behind an X holder. On
    // release, the first is granted; the scan must re-run so the second —
    // compatible with the first — is granted in the same drain, not lost.
    let m = Arc::new(Mgr::new());
    m.acquire(t(1), "r", LockMode::X, LockRequestOptions::default()).unwrap();
    let m2 = Arc::clone(&m);
    let h2 = thread::spawn(move || m2.acquire(t(2), "r", LockMode::IS, LockRequestOptions::default()));
    wait_until(WAIT, || m.waiter_count(&"r") == 1);
    let m3 = Arc::clone(&m);
    let h3 = thread::spawn(move || m3.acquire(t(3), "r", LockMode::IS, LockRequestOptions::default()));
    wait_until(WAIT, || m.waiter_count(&"r") == 2);
    m.release(t(1), &"r");
    // Both IS waiters must be granted promptly (well under the 50ms
    // re-detection epoch — the drain itself must deliver them).
    assert!(h2.join().unwrap().is_ok());
    assert!(h3.join().unwrap().is_ok());
    assert_eq!(m.held_mode(t(2), &"r"), LockMode::IS);
    assert_eq!(m.held_mode(t(3), &"r"), LockMode::IS);
}

#[test]
fn conversion_behind_a_queued_reader_is_not_co_granted() {
    // Regression: queue [S (t2), X conversion (t3, holds IS)] behind an IX
    // holder. When the holder leaves, one pass used to approve both against
    // the same stale granted group — the conversion ignores the queue, the
    // reader ahead of it only sees t3's old IS — and X and S were co-granted.
    // Every grant is now installed before the next waiter is judged.
    let m = Arc::new(Mgr::new());
    m.acquire(t(1), "r", LockMode::IX, LockRequestOptions::default()).unwrap();
    m.acquire(t(3), "r", LockMode::IS, LockRequestOptions::default()).unwrap();
    let m2 = Arc::clone(&m);
    let h2 = thread::spawn(move || m2.acquire(t(2), "r", LockMode::S, LockRequestOptions::default()));
    wait_until(WAIT, || m.waiter_count(&"r") == 1);
    let m3 = Arc::clone(&m);
    let h3 = thread::spawn(move || m3.acquire(t(3), "r", LockMode::X, LockRequestOptions::default()));
    wait_until(WAIT, || m.waiter_count(&"r") == 2);
    m.release_all(t(1));
    // Conversions go first: t3 gets its X, t2's S keeps waiting behind it.
    assert!(h3.join().unwrap().is_ok());
    assert_eq!(m.holders(&"r"), vec![(t(3), LockMode::X)]);
    assert_eq!(m.waiter_count(&"r"), 1);
    m.release_all(t(3));
    assert!(h2.join().unwrap().is_ok());
    assert_eq!(m.holders(&"r"), vec![(t(2), LockMode::S)]);
    m.release_all(t(2));
    assert_eq!(m.table_size(), 0);
}

#[test]
fn queue_drain_stops_at_incompatible_waiter() {
    // The fixpoint must still respect FIFO: [S, X, S] behind an X holder
    // drains only the first S; the X (and the S behind it) keep waiting.
    let m = Arc::new(Mgr::new());
    m.acquire(t(1), "r", LockMode::X, LockRequestOptions::default()).unwrap();
    let spawn_wait = |id: u64, mode: LockMode, m: &Arc<Mgr>| {
        let m = Arc::clone(m);
        thread::spawn(move || m.acquire(t(id), "r", mode, LockRequestOptions::default()))
    };
    let h2 = spawn_wait(2, LockMode::S, &m);
    wait_until(WAIT, || m.waiter_count(&"r") == 1);
    let h3 = spawn_wait(3, LockMode::X, &m);
    wait_until(WAIT, || m.waiter_count(&"r") == 2);
    let h4 = spawn_wait(4, LockMode::S, &m);
    wait_until(WAIT, || m.waiter_count(&"r") == 3);
    m.release(t(1), &"r");
    assert!(h2.join().unwrap().is_ok());
    // t3 and t4 are still queued — the drain must have stopped at the X.
    wait_until(WAIT, || m.waiter_count(&"r") == 2);
    assert_eq!(m.held_mode(t(3), &"r"), LockMode::NL, "X must still wait behind t2's S");
    assert_eq!(m.held_mode(t(4), &"r"), LockMode::NL, "trailing S must not overtake the X");
    m.release(t(2), &"r");
    assert!(h3.join().unwrap().is_ok());
    m.release(t(3), &"r");
    assert!(h4.join().unwrap().is_ok());
    m.release_all(t(4));
}

#[test]
fn compatible_waiter_passes_blocked_compatible_predecessor() {
    // Regression for the second stall: queue [S (blocked by IX holder), IS].
    // IS is compatible with both the IX grant and the S predecessor; it must
    // be granted rather than parked positionally forever (it contributes no
    // waits-for edges, so leaving it parked deadlocks invisibly).
    let m = Arc::new(Mgr::new());
    m.acquire(t(1), "r", LockMode::IX, LockRequestOptions::default()).unwrap();
    // t2 queues S behind an X-ish conflict (S vs IX incompatible).
    let m2 = Arc::clone(&m);
    let h2 = thread::spawn(move || m2.acquire(t(2), "r", LockMode::S, LockRequestOptions::default()));
    wait_until(WAIT, || m.waiter_count(&"r") == 1);
    // t3's IS is compatible with IX and with the waiting S: immediate grant.
    let r3 = m.acquire(t(3), "r", LockMode::IS, LockRequestOptions::try_lock());
    assert!(r3.is_ok(), "IS must not be blocked positionally: {r3:?}");
    m.release(t(3), &"r");
    m.release(t(1), &"r");
    assert!(h2.join().unwrap().is_ok());
    m.release_all(t(2));
}

#[test]
fn queued_compatible_waiter_is_granted_on_queue_evolution() {
    // Same situation arising through queue evolution: [X, S, IS] behind an S
    // holder; the X leaves (timeout) — the S and IS must BOTH be granted even
    // though S is first and IS sits behind it.
    let m = Arc::new(Mgr::new());
    m.acquire(t(1), "r", LockMode::S, LockRequestOptions::default()).unwrap();
    let m2 = Arc::clone(&m);
    let h2 = thread::spawn(move || {
        m2.acquire(
            t(2),
            "r",
            LockMode::X,
            LockRequestOptions { policy: WaitPolicy::BlockTimeout(Duration::from_millis(80)), long: false },
        )
    });
    wait_until(WAIT, || m.waiter_count(&"r") == 1);
    let m3 = Arc::clone(&m);
    let h3 = thread::spawn(move || m3.acquire(t(3), "r", LockMode::S, LockRequestOptions::default()));
    wait_until(WAIT, || m.waiter_count(&"r") == 2);
    let m4 = Arc::clone(&m);
    let h4 = thread::spawn(move || m4.acquire(t(4), "r", LockMode::IS, LockRequestOptions::default()));
    // t2's X times out; t3 (S) and t4 (IS) must both be granted.
    assert_eq!(h2.join().unwrap(), Err(LockError::Timeout));
    assert!(h3.join().unwrap().is_ok());
    assert!(h4.join().unwrap().is_ok());
    assert_eq!(m.held_mode(t(3), &"r"), LockMode::S);
    assert_eq!(m.held_mode(t(4), &"r"), LockMode::IS);
}

#[test]
fn seeded_deadlock_storm_picks_youngest_victim_and_makes_progress() {
    // Barrier-stepped storm: four threads repeatedly close a four-party
    // waits-for ring over a seeded permutation of four resources. Each cycle
    // round has exactly one deadlock, and the victim must be the youngest
    // transaction in the ring (rule: youngest-victim selection). Progress is
    // enforced by the runner's watchdog plus the per-round grant cascade:
    // after the victim aborts, every survivor's blocked request is granted.
    use colock_testkit::{lockstep, Rng};

    const THREADS: usize = 4;
    const CYCLES: usize = 12;
    const RES: [&str; 4] = ["a", "b", "c", "d"];
    let seed = colock_testkit::prop::seed_from_env().unwrap_or(0xC0_10C6);

    let m = Arc::new(Mgr::new());
    let deadlocks = Arc::new(Mutex::new(Vec::new()));
    let m2 = Arc::clone(&m);
    let dl = Arc::clone(&deadlocks);
    lockstep(THREADS, CYCLES * 2, Duration::from_secs(60), move |tid, step| {
        let k = step / 2;
        // Seeded ring layout for cycle k — every thread derives the same
        // permutation, so the shape is deterministic for a given seed.
        let mut perm = [0usize, 1, 2, 3];
        Rng::seed_from_u64(seed ^ k as u64).shuffle(&mut perm);
        // Rotate which thread is youngest so every position gets a turn.
        let rank = (tid + k) % THREADS;
        let txn = TxnId(1 + (k * THREADS + rank) as u64);
        if step % 2 == 0 {
            // Phase A: everyone takes X on its own ring slot — no conflicts.
            m2.acquire(txn, RES[perm[tid]], LockMode::X, LockRequestOptions::default())
                .unwrap();
        } else {
            // Phase B: everyone requests its successor's slot, closing the
            // ring. Exactly the youngest transaction must be chosen as
            // victim; the survivors are granted as the abort cascades.
            let next = RES[perm[(tid + 1) % THREADS]];
            match m2.acquire(txn, next, LockMode::X, LockRequestOptions::default()) {
                Ok(_) => {
                    assert_ne!(
                        rank,
                        THREADS - 1,
                        "the youngest txn {txn} must have been picked as victim"
                    );
                }
                Err(LockError::Deadlock { victim, cycle }) => {
                    assert_eq!(victim, txn, "the victim is always the txn receiving the error");
                    assert_eq!(
                        rank,
                        THREADS - 1,
                        "an older txn {txn} was aborted instead of the youngest"
                    );
                    assert_eq!(cycle.len(), THREADS, "the full ring must be reported");
                    assert_eq!(
                        victim,
                        *cycle.iter().max().unwrap(),
                        "victim must be the youngest member of {cycle:?}"
                    );
                    dl.lock().unwrap().push((k, victim));
                }
                Err(e) => panic!("unexpected lock error: {e}"),
            }
            m2.release_all(txn);
        }
    });
    // Every cycle round produced exactly one deadlock, in order.
    let events = deadlocks.lock().unwrap();
    assert_eq!(events.len(), CYCLES, "one deadlock per ring round: {events:?}");
    assert_eq!(m.table_size(), 0, "storm must drain the lock table completely");
}

#[test]
fn cross_shard_deadlock_storm_picks_youngest_victim() {
    // The storm above may land all four resources on one shard by accident of
    // hashing; this variant *constructs* four resources with pairwise
    // distinct shard indices, so every edge of the waits-for ring crosses a
    // shard boundary and only the snapshot detector (which locks all shards)
    // can see the cycle. Semantics must be identical: exactly one deadlock
    // per ring round, youngest member as victim, full drain.
    use colock_testkit::{lockstep, Rng};
    use std::collections::HashSet;

    const THREADS: usize = 4;
    const CYCLES: usize = 8;
    let seed = colock_testkit::prop::seed_from_env().unwrap_or(0x5AAD_C0DE);

    let m: Arc<LockManager<String>> = Arc::new(LockManager::new());
    assert!(m.shard_count() >= THREADS, "need one shard per ring slot");
    let mut res: Vec<String> = Vec::new();
    let mut used: HashSet<usize> = HashSet::new();
    let mut i = 0u64;
    while res.len() < THREADS {
        let cand = format!("res{i}");
        if used.insert(m.shard_index(&cand)) {
            res.push(cand);
        }
        i += 1;
    }
    let res: Arc<Vec<String>> = Arc::new(res);

    let deadlocks = Arc::new(Mutex::new(Vec::new()));
    let m2 = Arc::clone(&m);
    let dl = Arc::clone(&deadlocks);
    let res2 = Arc::clone(&res);
    lockstep(THREADS, CYCLES * 2, Duration::from_secs(60), move |tid, step| {
        let k = step / 2;
        let mut perm = [0usize, 1, 2, 3];
        Rng::seed_from_u64(seed ^ k as u64).shuffle(&mut perm);
        let rank = (tid + k) % THREADS;
        let txn = TxnId(1 + (k * THREADS + rank) as u64);
        if step % 2 == 0 {
            m2.acquire(txn, res2[perm[tid]].clone(), LockMode::X, LockRequestOptions::default())
                .unwrap();
        } else {
            let next = res2[perm[(tid + 1) % THREADS]].clone();
            match m2.acquire(txn, next, LockMode::X, LockRequestOptions::default()) {
                Ok(_) => {
                    assert_ne!(rank, THREADS - 1, "the youngest txn {txn} must be the victim");
                }
                Err(LockError::Deadlock { victim, cycle }) => {
                    assert_eq!(victim, txn);
                    assert_eq!(rank, THREADS - 1, "an older txn {txn} was aborted");
                    assert_eq!(cycle.len(), THREADS, "the full cross-shard ring: {cycle:?}");
                    assert_eq!(victim, *cycle.iter().max().unwrap());
                    dl.lock().unwrap().push((k, victim));
                }
                Err(e) => panic!("unexpected lock error: {e}"),
            }
            m2.release_all(txn);
        }
    });
    let events = deadlocks.lock().unwrap();
    assert_eq!(events.len(), CYCLES, "one deadlock per ring round: {events:?}");
    assert_eq!(m.table_size(), 0);
    assert!(m.stats().snapshot().detector_runs >= CYCLES as u64);
}

#[test]
fn counters_stay_consistent_across_shards() {
    // grant_count / waiter_count / table_size are assembled shard by shard;
    // they must agree with what was actually installed when the resources
    // span many shards.
    use std::collections::HashSet;

    let m: Arc<LockManager<String>> = Arc::new(LockManager::new());
    const TXNS: u64 = 8;
    const RES_PER_TXN: u64 = 6;
    for txn in 1..=TXNS {
        for j in 0..RES_PER_TXN {
            m.acquire(TxnId(txn), format!("t{txn}-r{j}"), LockMode::X, LockRequestOptions::default())
                .unwrap();
        }
        m.acquire(TxnId(txn), "shared".to_string(), LockMode::S, LockRequestOptions::default())
            .unwrap();
    }
    // The disjoint resources must actually exercise several shards.
    let spread: HashSet<usize> = (1..=TXNS)
        .flat_map(|t| (0..RES_PER_TXN).map(move |j| format!("t{t}-r{j}")))
        .map(|r| m.shard_index(&r))
        .collect();
    assert!(spread.len() > 1, "test resources all hashed to one shard");

    assert_eq!(m.grant_count() as u64, TXNS * (RES_PER_TXN + 1));
    assert_eq!(m.table_size() as u64, TXNS * RES_PER_TXN + 1);
    for txn in 1..=TXNS {
        for j in 0..RES_PER_TXN {
            assert_eq!(m.waiter_count(&format!("t{txn}-r{j}")), 0);
        }
    }

    // A blocked X on the shared resource is visible as exactly one waiter
    // and must not disturb the grant count.
    let m2 = Arc::clone(&m);
    let h = thread::spawn(move || {
        m2.acquire(TxnId(99), "shared".to_string(), LockMode::X, LockRequestOptions::default())
    });
    wait_until(WAIT, || m.waiter_count(&"shared".to_string()) == 1);
    assert_eq!(m.grant_count() as u64, TXNS * (RES_PER_TXN + 1));

    for txn in 1..=TXNS {
        assert_eq!(m.release_all(TxnId(txn)) as u64, RES_PER_TXN + 1);
    }
    assert!(h.join().unwrap().is_ok());
    assert_eq!(m.grant_count(), 1, "only the late X remains");
    m.release_all(TxnId(99));
    assert_eq!(m.table_size(), 0);
    assert_eq!(m.grant_count(), 0);
}
