//! Deterministic coverage for the optimistic intent fast path.
//!
//! The summary-word CAS has no scheduler to lean on, so these tests force
//! the interesting interleavings directly: the manager's test probe runs a
//! competing writer *between* an optimist's validate and its CAS (exactly
//! one retry; retry exhaustion), threads race optimistic intents against
//! exclusive acquire/release cycles and optimistic IS → IX conversions
//! against share traffic, intent conversions are checked exhaustively to
//! match the shard-mutex path, and escalations/releases over outstanding
//! optimistic grants are checked to drain into the shard map and leave the
//! summary words consistent (re-derived from the maps by
//! `check_summary_consistency`).
//!
//! Two seeded properties pin the folds of the lock table: a chain acquired
//! link by link and through `acquire_intent_chain` is the same request
//! sequence (outcomes, stats, trace), and the three release entry points
//! retire a mixed inventory identically.
//!
//! The only trace assertion here reads each manager's own events back
//! (`events_since_in`); lint assertions stay with `tracing.rs` and the
//! check crate.

use colock_lockmgr::table::MAX_FASTPATH_ATTEMPTS;
use colock_lockmgr::{
    AcquireOutcome, LockError, LockManager, LockMode, LockRequestOptions, TxnId,
};
use colock_testkit::prop::vec_of;
use colock_testkit::{ensure, ensure_eq, forall, run_threads};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Mgr = LockManager<&'static str>;

fn t(n: u64) -> TxnId {
    TxnId(n)
}

fn short() -> LockRequestOptions {
    LockRequestOptions::default()
}

/// A writer bumps the slot version between the optimist's validate and its
/// CAS: the publication must lose exactly once, revalidate, and then win.
#[test]
fn forced_cas_conflict_retries_once_then_succeeds() {
    let mgr = Arc::new(Mgr::new());
    let fired = Arc::new(AtomicBool::new(false));
    let inner = Arc::clone(&mgr);
    let flag = Arc::clone(&fired);
    // The probe acts as a transaction on another stripe (TxnId 2 vs the
    // optimist's TxnId 1) and only while the slot has zero optimistic
    // counts, as the probe contract requires.
    mgr.set_fastpath_probe(Some(Box::new(move || {
        if flag.swap(true, Ordering::SeqCst) {
            return;
        }
        inner.acquire(t(2), "res", LockMode::X, short()).unwrap();
        assert!(inner.release(t(2), &"res"));
    })));

    let out = mgr.acquire(t(1), "res", LockMode::IS, short()).unwrap();
    assert_eq!(out, AcquireOutcome::Granted { waited: false });
    mgr.set_fastpath_probe(None);
    assert!(fired.load(Ordering::SeqCst), "probe must have interfered");

    let s = mgr.stats().snapshot();
    assert_eq!(s.fastpath_retries, 1, "exactly one lost CAS");
    assert_eq!(s.fastpath_hits, 1, "second attempt must win");
    assert_eq!(s.fastpath_fallbacks, 0);
    assert_eq!(s.intent_acquires, 1);
    mgr.check_summary_consistency().unwrap();
    assert!(mgr.release(t(1), &"res"));
    mgr.check_summary_consistency().unwrap();
}

/// A writer interferes on *every* validate: the optimist exhausts its CAS
/// budget, falls back to the shard-mutex path, and still gets the lock.
#[test]
fn retry_exhaustion_falls_back_to_the_mutex_path() {
    let mgr = Arc::new(Mgr::new());
    let inner = Arc::clone(&mgr);
    mgr.set_fastpath_probe(Some(Box::new(move || {
        inner.acquire(t(2), "res", LockMode::X, short()).unwrap();
        assert!(inner.release(t(2), &"res"));
    })));

    let out = mgr.acquire(t(1), "res", LockMode::IS, short()).unwrap();
    assert_eq!(out, AcquireOutcome::Granted { waited: false });
    mgr.set_fastpath_probe(None);

    let s = mgr.stats().snapshot();
    assert_eq!(s.fastpath_retries, u64::from(MAX_FASTPATH_ATTEMPTS));
    assert_eq!(s.fastpath_fallbacks, 1);
    assert_eq!(s.fastpath_hits, 0);
    assert_eq!(s.intent_acquires, 1);
    assert_eq!(s.intent_acquires, s.fastpath_hits + s.fastpath_fallbacks);
    // The fallback grant is a real shard-map entry, not an optimistic one.
    assert_eq!(mgr.table_size(), 1);
    assert_eq!(mgr.holders(&"res"), vec![(t(1), LockMode::IS)]);
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)), 1);
    mgr.check_summary_consistency().unwrap();
}

/// Optimistic IS grants race concurrent X acquire/release cycles on one
/// resource. Every interleaving must preserve mutual exclusion bookkeeping:
/// afterwards the table is empty, the summary words re-derive cleanly, and
/// the gate identity `hits + fallbacks == intent_acquires` holds.
#[test]
fn optimistic_grants_race_concurrent_exclusive_traffic() {
    let mgr = Arc::new(Mgr::new());
    let rounds = 200;
    let m = Arc::clone(&mgr);
    run_threads(8, Duration::from_secs(60), move |tid| {
        let txn = t(tid as u64 + 1);
        for _ in 0..rounds {
            if tid % 2 == 0 {
                m.acquire(txn, "hot", LockMode::IS, short()).unwrap();
            } else {
                m.acquire(txn, "hot", LockMode::X, short()).unwrap();
            }
            assert!(m.release(txn, &"hot"));
        }
    });
    assert_eq!(mgr.table_size(), 0);
    assert_eq!(mgr.grant_count(), 0);
    let s = mgr.stats().snapshot();
    assert_eq!(
        s.fastpath_hits + s.fastpath_fallbacks,
        s.intent_acquires,
        "gate identity must hold under races: {s:?}"
    );
    assert!(s.intent_acquires >= 4 * rounds, "every IS request enters the gate");
    mgr.check_summary_consistency().unwrap();
}

/// Converting one's own optimistic grant (IS → IX) is a gate hit: one CAS
/// moves it from the IS lane to the IX lane, and the grant stays out of the
/// shard map.
#[test]
fn conversion_of_an_optimistic_grant_stays_on_the_fast_path() {
    let mgr = Mgr::new();
    mgr.acquire(t(1), "r", LockMode::IS, short()).unwrap();
    let s = mgr.stats().snapshot();
    assert_eq!((s.fastpath_hits, s.fastpath_fallbacks), (1, 0));
    assert_eq!(mgr.table_size(), 0, "optimistic grant has no shard entry");

    let out = mgr.acquire(t(1), "r", LockMode::IX, short()).unwrap();
    assert_eq!(out, AcquireOutcome::Granted { waited: false });
    let s = mgr.stats().snapshot();
    assert_eq!((s.fastpath_hits, s.fastpath_fallbacks), (2, 0), "conversion is a gate hit");
    assert_eq!(s.conversions, 1);
    assert_eq!(s.intent_acquires, s.fastpath_hits + s.fastpath_fallbacks);
    assert_eq!(mgr.held_mode(t(1), &"r"), LockMode::IX);
    assert_eq!(mgr.table_size(), 0, "converted grant is still optimistic");
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)), 1);
    mgr.check_summary_consistency().unwrap();
}

/// The intent modes: the ones an optimistic grant can hold or convert to.
const INTENTS: [LockMode; 5] =
    [LockMode::IS, LockMode::IX, LockMode::Member, LockMode::Insert, LockMode::Delete];

/// What one run of [`conversion_case`] observed.
#[derive(Debug, PartialEq)]
struct ConversionOutcome {
    /// The conversion request's outcome; `WouldBlock` holders sorted.
    outcome: Result<AcquireOutcome, LockError>,
    held: LockMode,
    holders: Vec<(TxnId, LockMode)>,
    conversions: u64,
}

/// `own` takes `held`, and another transaction takes `other` (`(mode, after)`:
/// before or after `own`), every request `try_lock`; then `own` requests
/// `requested`. Returns what the conversion saw and whether the table stayed
/// empty through it.
fn conversion_case(
    fastpath: bool,
    held: LockMode,
    requested: LockMode,
    other: Option<(LockMode, bool)>,
) -> Result<(ConversionOutcome, bool), String> {
    let (own, rival) = (t(1), t(2));
    let m = Mgr::new();
    m.set_fastpath(fastpath);
    let rival_takes = |after: bool| {
        if let Some((mode, a)) = other {
            if a == after {
                let _ = m.acquire(rival, "r", mode, LockRequestOptions::try_lock());
            }
        }
    };
    rival_takes(false);
    let _ = m.acquire(own, "r", held, LockRequestOptions::try_lock());
    rival_takes(true);
    let outcome = match m.acquire(own, "r", requested, LockRequestOptions::try_lock()) {
        Err(LockError::WouldBlock { mut holders }) => {
            holders.sort_unstable();
            Err(LockError::WouldBlock { holders })
        }
        other => other,
    };
    let mut holders = m.holders(&"r");
    holders.sort_unstable();
    let seen = ConversionOutcome {
        outcome,
        held: m.held_mode(own, &"r"),
        holders,
        conversions: m.stats().snapshot().conversions,
    };
    let stayed_optimistic = m.table_size() == 0;
    m.check_summary_consistency()?;
    m.release_all(own);
    m.release_all(rival);
    if m.table_size() != 0 || m.grant_count() != 0 {
        return Err(format!("locks left behind:\n{}", m.debug_dump()));
    }
    m.check_summary_consistency()?;
    Ok((seen, stayed_optimistic))
}

/// Exhaustive equivalence of the optimistic conversion: for every held
/// intent × requested intent × another transaction's hold (none, or any mode
/// taken before or after), the fast path on and off give the same outcome
/// (the same `WouldBlock` holders), the same held mode and holders, and the
/// same `conversions`, with summary words that re-derive cleanly.
#[test]
fn optimistic_conversions_match_the_shard_mutex_path() {
    let others = std::iter::once(None).chain(
        LockMode::ALL.into_iter().flat_map(|m| [Some((m, false)), Some((m, true))]),
    );
    let others: Vec<_> = others.collect();
    let mut gate_conversions = 0;
    for held in INTENTS {
        for requested in INTENTS {
            for &other in &others {
                let case = format!("held {held}, requested {requested}, other {other:?}");
                let (on, optimistic) = conversion_case(true, held, requested, other)
                    .unwrap_or_else(|e| panic!("{case}, fast path on: {e}"));
                let (off, _) = conversion_case(false, held, requested, other)
                    .unwrap_or_else(|e| panic!("{case}, fast path off: {e}"));
                assert_eq!(on, off, "{case}");
                if optimistic && on.conversions == 1 {
                    gate_conversions += 1;
                }
            }
        }
    }
    assert!(gate_conversions > 0, "no case converted on the gate");
}

/// Converters go IS → IX on `"hot"` while readers take S on it. IX and S
/// conflict, so an in-critical-section count per side proves they are never
/// held at once; afterwards the table is empty, the summary words re-derive
/// cleanly and the gate identity holds.
#[test]
fn optimistic_conversions_race_concurrent_share_traffic() {
    let mgr = Arc::new(Mgr::new());
    let inside = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]); // [IX, S]
    let rounds = 200;
    let (m, inside2) = (Arc::clone(&mgr), Arc::clone(&inside));
    run_threads(8, Duration::from_secs(60), move |tid| {
        let txn = t(tid as u64 + 1);
        let (mine, theirs) = if tid % 2 == 0 { (0, 1) } else { (1, 0) };
        for _ in 0..rounds {
            if mine == 0 {
                m.acquire(txn, "hot", LockMode::IS, short()).unwrap();
                m.acquire(txn, "hot", LockMode::IX, short()).unwrap();
            } else {
                m.acquire(txn, "hot", LockMode::S, short()).unwrap();
            }
            inside2[mine].fetch_add(1, Ordering::SeqCst);
            assert_eq!(inside2[theirs].load(Ordering::SeqCst), 0, "IX and S held at once");
            inside2[mine].fetch_sub(1, Ordering::SeqCst);
            assert_eq!(m.release_all(txn), 1);
        }
    });
    assert_eq!((mgr.table_size(), mgr.grant_count()), (0, 0));
    let s = mgr.stats().snapshot();
    assert_eq!(
        s.fastpath_hits + s.fastpath_fallbacks,
        s.intent_acquires,
        "gate identity must hold under races: {s:?}"
    );
    assert_eq!(s.conversions, 4 * rounds, "every converter round converts once");
    mgr.check_summary_consistency().unwrap();
}

/// A pessimistic S decision over a slot with outstanding optimistic intent
/// grants drains them into the shard map first, so its compatibility check
/// sees the whole granted group; a later X conversion attempt then conflicts
/// with the drained grant like any real one.
#[test]
fn share_decision_drains_outstanding_optimistic_grants() {
    let mgr = Mgr::new();
    mgr.acquire(t(1), "r", LockMode::IS, short()).unwrap();
    mgr.acquire(t(2), "r", LockMode::IS, short()).unwrap();
    assert_eq!(mgr.stats().snapshot().fastpath_hits, 2);
    assert_eq!(mgr.table_size(), 0);

    // t2 escalates its own IS to S: seals, drains both optimists, converts.
    mgr.acquire(t(2), "r", LockMode::S, short()).unwrap();
    let s = mgr.stats().snapshot();
    assert_eq!(s.fastpath_drains, 1);
    assert_eq!(s.conversions, 1);
    let mut holders = mgr.holders(&"r");
    holders.sort();
    assert_eq!(holders, vec![(t(1), LockMode::IS), (t(2), LockMode::S)]);
    assert_eq!(mgr.table_size(), 1);
    mgr.check_summary_consistency().unwrap();

    // The drained IS grant of t1 now conflicts like a real one.
    let err = mgr.acquire(t(1), "r", LockMode::X, LockRequestOptions::try_lock()).unwrap_err();
    match err {
        LockError::WouldBlock { holders } => assert_eq!(holders, vec![t(2)]),
        other => panic!("expected WouldBlock, got {other:?}"),
    }
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)) + mgr.release_all(t(2)), 2);
    assert_eq!(mgr.table_size(), 0);
    mgr.check_summary_consistency().unwrap();
}

/// Escalating one's own optimistic IX straight to X: the exclusive decision
/// seals and drains its *own* optimistic grant before deciding, so the
/// conversion is granted and the summary word records one exclusive holder.
#[test]
fn own_escalation_from_optimistic_intent_to_exclusive() {
    let mgr = Mgr::new();
    mgr.acquire(t(1), "r", LockMode::IX, short()).unwrap();
    let out = mgr.acquire(t(1), "r", LockMode::X, short()).unwrap();
    assert_eq!(out, AcquireOutcome::Granted { waited: false });
    let s = mgr.stats().snapshot();
    assert_eq!(s.fastpath_drains, 1, "exclusive decision must drain own grant");
    assert_eq!(s.conversions, 1);
    assert_eq!(mgr.held_mode(t(1), &"r"), LockMode::X);
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)), 1);
    mgr.check_summary_consistency().unwrap();
}

/// Releasing an optimistic grant early (before any drain) retracts it from
/// the summary word without ever touching the shard map.
#[test]
fn release_early_of_an_optimistic_grant_clears_the_summary() {
    let mgr = Mgr::new();
    mgr.acquire(t(1), "a", LockMode::IS, short()).unwrap();
    mgr.acquire(t(1), "b", LockMode::IX, short()).unwrap();
    assert_eq!(mgr.grant_count(), 2);
    assert_eq!(mgr.table_size(), 0);

    assert!(mgr.release(t(1), &"a"));
    assert_eq!(mgr.grant_count(), 1);
    assert_eq!(mgr.table_size(), 0, "optimistic release never creates shard entries");
    mgr.check_summary_consistency().unwrap();

    assert_eq!(mgr.release_all(t(1)), 1);
    assert_eq!(mgr.grant_count(), 0);
    assert_eq!(mgr.stats().snapshot().releases, 2);
    mgr.check_summary_consistency().unwrap();
}

/// `release_short` drops optimistic grants alongside real short ones and
/// keeps long locks (which never ride the fast path).
#[test]
fn release_short_drops_optimistic_grants_and_keeps_long_locks() {
    let mgr = Mgr::new();
    mgr.acquire(t(1), "a", LockMode::IX, LockRequestOptions::long()).unwrap();
    mgr.acquire(t(1), "b", LockMode::IS, short()).unwrap();
    mgr.acquire(t(1), "c", LockMode::S, short()).unwrap();
    let s = mgr.stats().snapshot();
    assert_eq!((s.fastpath_hits, s.intent_acquires), (1, 1), "long IX skips the gate");

    assert_eq!(mgr.release_short(t(1)), 2);
    assert_eq!(mgr.locks_of(t(1)), vec![("a", LockMode::IX, true)]);
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)), 1);
    mgr.check_summary_consistency().unwrap();
}

/// A covered re-request is answered from the inventory without entering the
/// fast-path accounting: `intent_acquires` counts decisions, not lookups.
#[test]
fn covered_re_request_skips_the_gate_counters() {
    let mgr = Mgr::new();
    mgr.acquire(t(1), "r", LockMode::IS, short()).unwrap();
    let out = mgr.acquire(t(1), "r", LockMode::IS, short()).unwrap();
    assert_eq!(out, AcquireOutcome::AlreadyHeld);
    let s = mgr.stats().snapshot();
    assert_eq!(s.requests, 2);
    assert_eq!(s.intent_acquires, 1);
    assert_eq!((s.fastpath_hits, s.fastpath_fallbacks), (1, 0));
    mgr.check_summary_consistency().unwrap();
}

/// Disabling the fast path at runtime sends intents down the classic path:
/// the gate is never entered and grants are real shard entries.
#[test]
fn runtime_toggle_disables_the_gate() {
    let mgr = Mgr::new();
    assert!(mgr.fastpath_enabled());
    mgr.set_fastpath(false);
    assert!(!mgr.fastpath_enabled());
    mgr.acquire(t(1), "r", LockMode::IS, short()).unwrap();
    let s = mgr.stats().snapshot();
    assert_eq!(s.intent_acquires, 0, "disabled gate counts nothing");
    assert_eq!(mgr.table_size(), 1);
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)), 1);

    mgr.set_fastpath(true);
    mgr.acquire(t(1), "r", LockMode::IS, short()).unwrap();
    assert_eq!(mgr.stats().snapshot().fastpath_hits, 1);
    assert_eq!(mgr.table_size(), 0);
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)), 1);
}

/// The batched chain call answers every compatible link optimistically,
/// repeats as AlreadyHeld, and its grants behave like per-call acquires.
#[test]
fn chain_batches_compatible_links() {
    let mgr = Mgr::new();
    let chain = ["db", "seg", "rel"];
    let out = mgr.acquire_intent_chain(t(1), &chain, LockMode::IX, short()).unwrap();
    assert_eq!(out, vec![AcquireOutcome::Granted { waited: false }; 3]);
    let s = mgr.stats().snapshot();
    assert_eq!((s.intent_acquires, s.fastpath_hits), (3, 3));
    assert_eq!(mgr.table_size(), 0, "whole chain published optimistically");

    let again = mgr.acquire_intent_chain(t(1), &chain, LockMode::IX, short()).unwrap();
    assert_eq!(again, vec![AcquireOutcome::AlreadyHeld; 3]);
    let s = mgr.stats().snapshot();
    assert_eq!(s.intent_acquires, 3, "covered links skip the gate counters");
    assert_eq!(s.requests, 6);
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)), 3);
    mgr.check_summary_consistency().unwrap();
}

/// A mid-chain conflict under `try_lock` errors out but keeps the grants of
/// earlier links — exactly like the equivalent sequence of single acquires.
#[test]
fn chain_conflict_keeps_earlier_links() {
    let mgr = Mgr::new();
    mgr.acquire(t(2), "seg", LockMode::S, short()).unwrap();
    let err = mgr
        .acquire_intent_chain(t(3), &["db", "seg", "rel"], LockMode::IX, LockRequestOptions::try_lock())
        .unwrap_err();
    assert!(matches!(err, LockError::WouldBlock { .. }), "got {err:?}");
    assert_eq!(mgr.held_mode(t(3), &"db"), LockMode::IX);
    assert_eq!(mgr.held_mode(t(3), &"seg"), LockMode::NL);
    assert_eq!(mgr.held_mode(t(3), &"rel"), LockMode::NL);
    let s = mgr.stats().snapshot();
    assert_eq!(s.intent_acquires, s.fastpath_hits + s.fastpath_fallbacks);
    assert_eq!(s.fastpath_fallbacks, 1, "the conflicting link fell back");
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(3)) + mgr.release_all(t(2)), 2);
    mgr.check_summary_consistency().unwrap();
}

/// Long chains never ride the fast path: every link becomes a real,
/// journaled-eligible shard grant.
#[test]
fn long_chains_take_the_pessimistic_loop() {
    let mgr = Mgr::new();
    let out = mgr
        .acquire_intent_chain(t(1), &["db", "seg", "rel"], LockMode::IX, LockRequestOptions::long())
        .unwrap();
    assert_eq!(out, vec![AcquireOutcome::Granted { waited: false }; 3]);
    let s = mgr.stats().snapshot();
    assert_eq!(s.intent_acquires, 0);
    assert_eq!(mgr.table_size(), 3);
    for r in ["db", "seg", "rel"] {
        assert_eq!(mgr.locks_of(t(1)).iter().filter(|(k, _, long)| *k == r && *long).count(), 1);
    }
    mgr.check_summary_consistency().unwrap();
    assert_eq!(mgr.release_all(t(1)), 3);
    mgr.check_summary_consistency().unwrap();
}

/// Concurrent chains over a shared ancestor prefix: all optimistic, no
/// shard entries, and the summary stays consistent after interleaved
/// releases.
#[test]
fn concurrent_chains_share_ancestors_optimistically() {
    let mgr = Arc::new(Mgr::new());
    let m = Arc::clone(&mgr);
    run_threads(6, Duration::from_secs(60), move |tid| {
        let txn = t(tid as u64 + 1);
        let leaf: &'static str = ["l0", "l1", "l2", "l3", "l4", "l5"][tid];
        for _ in 0..100 {
            m.acquire_intent_chain(txn, &["db", "seg", leaf], LockMode::IS, short()).unwrap();
            assert_eq!(m.release_all(txn), 3);
        }
    });
    let s = mgr.stats().snapshot();
    assert_eq!(s.intent_acquires, s.fastpath_hits + s.fastpath_fallbacks);
    assert_eq!(mgr.grant_count(), 0);
    mgr.check_summary_consistency().unwrap();
}

/// The retry counter is monotone evidence of real contention: two optimists
/// racing the same slot version can lose a CAS but must never lose a grant.
#[test]
fn racing_optimists_never_lose_grants() {
    let mgr = Arc::new(Mgr::new());
    let granted = Arc::new(AtomicU64::new(0));
    let m = Arc::clone(&mgr);
    let g = Arc::clone(&granted);
    run_threads(8, Duration::from_secs(60), move |tid| {
        let txn = t(tid as u64 + 1);
        for _ in 0..250 {
            match m.acquire(txn, "slot", LockMode::IS, short()).unwrap() {
                AcquireOutcome::Granted { .. } => {
                    g.fetch_add(1, Ordering::Relaxed);
                }
                AcquireOutcome::AlreadyHeld => panic!("fresh acquire cannot be held"),
            }
            assert!(m.release(txn, &"slot"));
        }
    });
    assert_eq!(granted.load(Ordering::Relaxed), 8 * 250);
    let s = mgr.stats().snapshot();
    assert_eq!(s.intent_acquires, 8 * 250);
    assert_eq!(s.intent_acquires, s.fastpath_hits + s.fastpath_fallbacks);
    mgr.check_summary_consistency().unwrap();
}

const MODES: [LockMode; 5] = [LockMode::IS, LockMode::IX, LockMode::S, LockMode::SIX, LockMode::X];

/// `(resource, mode index)` pairs.
type Holds = Vec<(u8, u8)>;

/// The trace events of `txn` in `window`, stripped of everything that tells
/// two runs of the same requests apart (sequence, timestamp, the id itself).
/// `m`'s events since `mark`, with the fields that differ between two
/// managers doing the same thing cleared.
fn events_of(m: &LockManager<u8>, mark: u64) -> Vec<colock_trace::Event> {
    let mut events =
        colock_trace::events_since_in(mark, &[m.trace_instance()]).expect("window kept");
    for e in &mut events {
        (e.seq, e.t_us, e.txn, e.instance) = (0, 0, 0, 0);
    }
    events
}

/// One fold of the table: a chain acquired link by link through `acquire`
/// and the same chain through `acquire_intent_chain` are the same request
/// sequence — same outcomes (or the same error at the same link, earlier
/// grants kept), same stats, same trace — for chains mixing fresh,
/// already-held and conversion links, against another transaction's
/// conflicting holds, with the fast path on and off.
#[test]
fn chain_equals_link_by_link_acquires() {
    // The two managers under comparison act as `own[0]` and `own[1]`.
    let (own, other) = ([t(7_100_001), t(7_100_002)], t(7_100_003));
    colock_trace::enable();
    forall!(
        cases: 128,
        |rng| {
            // Per link: the resource, and what `own` already holds on it
            // (0 = nothing, else MODES[n - 1]); then the other txn's holds.
            let link = |rng: &mut colock_testkit::Rng| (rng.gen_range(0u8..10), rng.gen_range(0u8..6));
            let held = |rng: &mut colock_testkit::Rng| (rng.gen_range(0u8..10), rng.gen_range(0u8..5));
            (rng.gen_range(0u8..2), vec_of(rng, 1..7, link), vec_of(rng, 0..4, held))
        },
        |(mode, links, others): &(u8, Holds, Holds)| {
            let mode = MODES[*mode as usize];
            let chain: Vec<u8> = links.iter().map(|&(r, _)| r).collect();
            for fastpath in [true, false] {
                let prepared = |own: TxnId| {
                    let m: LockManager<u8> = LockManager::new();
                    m.set_fastpath(fastpath);
                    for &(r, held) in others {
                        let _ = m.acquire(other, r, MODES[held as usize], LockRequestOptions::try_lock());
                    }
                    for &(r, held) in links.iter().filter(|l| l.1 != 0) {
                        let mode = MODES[held as usize - 1];
                        let _ = m.acquire(own, r, mode, LockRequestOptions::try_lock());
                    }
                    m
                };
                let (single, batched) = (prepared(own[0]), prepared(own[1]));
                let mark = colock_trace::current_seq();
                let by_link: Result<Vec<_>, _> = chain
                    .iter()
                    .map(|&r| single.acquire(own[0], r, mode, LockRequestOptions::try_lock()))
                    .collect();
                let by_chain =
                    batched.acquire_intent_chain(own[1], &chain, mode, LockRequestOptions::try_lock());
                let (by_link_events, by_chain_events) =
                    (events_of(&single, mark), events_of(&batched, mark));

                ensure_eq!(by_chain, by_link, "outcomes (fastpath {fastpath})");
                ensure_eq!(by_chain_events, by_link_events, "trace (fastpath {fastpath})");
                ensure!(!by_link_events.is_empty(), "the trace window must have caught the chain");
                ensure_eq!(batched.stats().snapshot(), single.stats().snapshot());
                let inventory = |m: &LockManager<u8>, own: TxnId| {
                    let mut locks = m.locks_of(own);
                    locks.sort_by_key(|l| l.0);
                    locks
                };
                ensure_eq!(inventory(&batched, own[1]), inventory(&single, own[0]));
                for (m, own) in [(&single, own[0]), (&batched, own[1])] {
                    m.check_summary_consistency()?;
                    m.release_all(own);
                    m.release_all(other);
                    ensure_eq!(m.table_size(), 0);
                    m.check_summary_consistency()?;
                }
            }
            Ok(())
        }
    );
}

/// The other fold: releasing a mixed optimistic / real / long inventory
/// leaf to root through `release`, through `release_short` + `release_all`,
/// and through `release_all` alone retires the same locks — same counts,
/// same `releases` stat, an empty table, and summary words that re-derive
/// cleanly and admit the fast path again on every resource.
#[test]
fn three_release_paths_retire_the_same_inventory() {
    let (own, other, probe) = (t(1), t(2), t(3));
    forall!(
        cases: 128,
        // Per resource: how `own` holds it, and whether `other` shares it.
        |rng| vec_of(rng, 1..9, |rng| (rng.gen_range(0u8..7), rng.gen_range(0u8..2))),
        |kinds: &Vec<(u8, u8)>| {
            let prepared = || {
                let m: LockManager<u8> = LockManager::new();
                for (r, &(kind, shared)) in kinds.iter().enumerate() {
                    let (mode, fastpath, opts) = match kind {
                        0 => (LockMode::IS, true, short()),
                        1 => (LockMode::IX, true, short()),
                        2 => (LockMode::IX, false, short()),
                        3 => (LockMode::S, true, short()),
                        4 => (LockMode::X, true, short()),
                        5 => (LockMode::IX, true, LockRequestOptions::long()),
                        _ => (LockMode::X, true, LockRequestOptions::long()),
                    };
                    m.set_fastpath(fastpath);
                    m.acquire(own, r as u8, mode, opts).unwrap();
                    m.set_fastpath(true);
                    if shared == 1 {
                        let _ = m.acquire(other, r as u8, LockMode::IS, LockRequestOptions::try_lock());
                    }
                }
                m
            };
            let n = kinds.len();

            let one_by_one = prepared();
            let released = (0..n as u8).rev().filter(|r| one_by_one.release(own, r)).count();
            ensure_eq!(released, n, "release, leaf to root");

            let short_then_all = prepared();
            let shorts = short_then_all.release_short(own);
            ensure_eq!(shorts, kinds.iter().filter(|k| k.0 < 5).count(), "release_short");
            ensure_eq!(shorts + short_then_all.release_all(own), n, "release_short + release_all");

            let all_at_once = prepared();
            ensure_eq!(all_at_once.release_all(own), n, "release_all");

            let releases = all_at_once.stats().snapshot().releases;
            for m in [&one_by_one, &short_then_all, &all_at_once] {
                ensure_eq!(m.stats().snapshot().releases, releases);
                ensure!(m.locks_of(own).is_empty(), "inventory left behind");
                m.release_all(other);
                ensure_eq!((m.table_size(), m.grant_count()), (0, 0));
                m.check_summary_consistency()?;
                // All-zero words: every resource admits an optimistic IX again.
                let hits = m.stats().snapshot().fastpath_hits;
                for r in 0..n as u8 {
                    m.acquire(probe, r, LockMode::IX, short()).unwrap();
                }
                ensure_eq!(m.stats().snapshot().fastpath_hits - hits, n as u64);
                ensure_eq!(m.release_all(probe), n);
                m.check_summary_consistency()?;
            }
            Ok(())
        }
    );
}
