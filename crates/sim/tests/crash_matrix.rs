//! Crash-matrix property test for §3.1's durability claim: "long locks
//! survive system crashes".
//!
//! A fixed workstation script (4 stations check out one robot each, edit,
//! half of them check in) is swept against a matrix of injected crashes —
//! every append `CrashPoint` × several seeded journal-append positions. A
//! second sweep adds a churn station (check-out/check-in cycles beside the
//! live long locks, enough history for several journal checkpoints) and
//! crashes in the middle of a checkpoint (`CrashPoint::MidCompaction`).
//! After each crash the server is rebuilt over the same store and recovers
//! from the old journal medium. The invariant: every long lock *acknowledged* before
//! the crash is either fully recovered under its original owner or was
//! cleanly released by an acknowledged check-in — never half-present, never
//! leaked past a full round of post-crash aborts. Every third round (1, 4,
//! 7, …) runs both servers with the fast path off. Every cycle is traced,
//! and the crashed and the recovered server's events together are linted
//! against the §4.4.2 rules and certified: recovered grants, probes and the
//! post-recovery sweep must all be conformant. After every cycle each
//! server's journal medium is within `CHECKPOINT_FLOOR + 2 × live bytes`.
//!
//! Knobs: `COLOCK_CRASH_SEED` seeds the position schedule,
//! `COLOCK_RECOVERY_ROUNDS` sets the rounds per crash point (default 4;
//! `scripts/check.sh` runs 15 in release with `--nocapture`, and each
//! sweep prints what it recovered).

use colock_core::authorization::{Authorization, Right};
use colock_core::{AccessMode, InstanceTarget, ResourcePath};
use colock_lockmgr::persistent::CHECKPOINT_FLOOR;
use colock_lockmgr::{Journal, TxnId};
use colock_nf2::Value;
use colock_sim::{build_cells_store, CellsConfig, Workstation};
use colock_storage::Store;
use colock_testkit::{CrashPoint, FaultPlan, Rng};
use colock_trace::TraceBuffer;
use colock_txn::{ProtocolKind, RecoveryReport, TransactionManager, TxnKind};
use std::sync::Arc;

const STATIONS: usize = 4;

/// Check-out/check-in cycles of the churn station in the `MidCompaction`
/// sweep: a few checkpoints' worth of journal history (each cycle writes
/// one grant set and one release-all).
const CHURN_CYCLES: usize = 750;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn server(
    store: &Arc<Store>,
    fastpath: bool,
    trace: &Arc<TraceBuffer>,
) -> (TransactionManager, Arc<Journal<ResourcePath>>) {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let mgr = TransactionManager::over_store(Arc::clone(store), authz, ProtocolKind::Proposed);
    mgr.attach_trace(Arc::clone(trace));
    mgr.lock_manager().set_fastpath(fastpath);
    let journal = Arc::new(Journal::<ResourcePath>::new());
    assert!(mgr.attach_journal(Arc::clone(&journal)));
    (mgr, journal)
}

fn robot(cell: usize) -> InstanceTarget {
    InstanceTarget::object("cells", format!("c{}", cell + 1)).elem("robots", "r1")
}

/// The churn station's robot: no station's target, same cell as ws0's.
fn churn_robot() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", "r2")
}

/// Per-workstation outcome of one scripted run, as seen by the *client*:
/// only operations whose acknowledgement arrived before the crash count.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// Checkout acknowledged, no check-in yet: the long lock is durable.
    HoldsLock(TxnId),
    /// Check-in (commit) acknowledged: everything released durably.
    CheckedIn,
    /// The crash hit before any acknowledgement for this station.
    Unacknowledged,
}

struct CellRun {
    outcomes: Vec<Outcome>,
    medium: String,
    appends: u64,
    crashed: bool,
    checkpoints: u64,
    /// Appends before the last churn cycle that wrote a checkpoint: a
    /// `MidCompaction` plan at any position up to here fires in the script.
    compaction_window: u64,
}

/// Runs the fixed script against a fresh server over `store`, with an
/// optional armed fault plan and `churn` churn cycles after the check-outs,
/// leaking every open session at the end (the crash). Returns what each
/// station knows plus the surviving medium.
fn run_script(
    store: &Arc<Store>,
    plan: Option<FaultPlan>,
    churn: usize,
    fastpath: bool,
    trace: &Arc<TraceBuffer>,
) -> CellRun {
    let (mgr, journal) = server(store, fastpath, trace);
    if let Some(p) = plan {
        journal.arm(p);
    }
    let mut stations: Vec<Workstation<'_>> =
        (0..STATIONS).map(|i| Workstation::connect(&mgr, format!("ws{i}"))).collect();
    let mut outcomes = vec![Outcome::Unacknowledged; STATIONS];
    let mut churner = Workstation::connect(&mgr, "churn");
    let mut compaction_window = 0;

    'script: {
        for i in 0..STATIONS {
            let ok = stations[i].checkout(&robot(i), AccessMode::Update).is_ok();
            if mgr.journal_crashed() || !ok {
                break 'script;
            }
            // Acked: this station durably holds its long lock (the real
            // session id is filled in at crash time below).
            outcomes[i] = Outcome::HoldsLock(TxnId(0));
            stations[i]
                .edit(&robot(i), |v| {
                    *v.field_mut("trajectory").unwrap() = Value::str(format!("edited-{i}"));
                })
                .unwrap();
        }
        for _ in 0..churn {
            let (appends, checkpoints) = (journal.appends(), journal.checkpoints());
            let ok = churner.checkout(&churn_robot(), AccessMode::Update).is_ok()
                && churner.checkin_all().is_ok();
            if mgr.journal_crashed() || !ok {
                break 'script;
            }
            if journal.checkpoints() > checkpoints {
                compaction_window = appends;
            }
        }
        // Half the stations check in before the crash window closes.
        for i in 0..STATIONS / 2 {
            let ok = stations[i].checkin_all().is_ok();
            if mgr.journal_crashed() || !ok {
                outcomes[i] = Outcome::Unacknowledged;
                break 'script;
            }
            outcomes[i] = Outcome::CheckedIn;
        }
    }
    // Crash: leak whatever is still open, then tear the server down.
    churner.crash();
    for (i, ws) in stations.iter_mut().enumerate() {
        match (ws.crash(), outcomes[i]) {
            (Some(id), Outcome::HoldsLock(_)) => outcomes[i] = Outcome::HoldsLock(id),
            (None, Outcome::HoldsLock(_)) => outcomes[i] = Outcome::Unacknowledged,
            _ => {}
        }
    }
    assert_bounded(&journal, "crashed server");
    CellRun {
        outcomes,
        medium: journal.contents(),
        appends: journal.appends(),
        crashed: journal.crashed(),
        checkpoints: journal.checkpoints(),
        compaction_window,
    }
}

/// The medium stays within the checkpoint bound; only a crash in the
/// middle of a due checkpoint leaves it over, with the old text.
fn assert_bounded(journal: &Journal<ResourcePath>, label: &str) {
    let (len, live) = (journal.contents().len(), journal.live_bytes());
    if journal.crash_point() == Some(CrashPoint::MidCompaction) {
        assert!(len > CHECKPOINT_FLOOR.max(2 * live), "{label}: crashed checkpoint was not due");
    } else {
        assert!(len <= CHECKPOINT_FLOOR + 2 * live, "{label}: medium {len} B, live {live} B");
    }
}

/// Recovers a fresh server from `run`'s medium and checks the invariant.
/// Returns the recovery report.
fn check_recovery(
    store: &Arc<Store>,
    run: &CellRun,
    label: &str,
    fastpath: bool,
    trace: &Arc<TraceBuffer>,
) -> RecoveryReport {
    let (mgr, journal) = server(store, fastpath, trace);
    let report = mgr.recover(&run.medium).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(report.dropped_tail <= 1, "{label}: at most the torn record drops");

    for (i, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            Outcome::HoldsLock(id) => {
                // Durably granted → fully recovered: the owner is back and
                // its X lock still excludes everyone else.
                assert!(report.owners.contains(id), "{label}: ws{i} owner lost");
                let probe = mgr.begin(TxnKind::Short);
                assert!(
                    probe.try_lock(&robot(i), AccessMode::Update).is_err(),
                    "{label}: ws{i}'s recovered lock does not exclude"
                );
                probe.abort().unwrap();
            }
            Outcome::CheckedIn => {
                // Durably released → cleanly gone: lockable immediately.
                let probe = mgr.begin(TxnKind::Short);
                assert!(
                    probe.try_lock(&robot(i), AccessMode::Update).is_ok(),
                    "{label}: ws{i} checked in but its lock survived"
                );
                probe.commit().unwrap();
            }
            Outcome::Unacknowledged => {
                // No ack: either fully recovered or cleanly absent — both
                // legal. The half-present case is caught below: an owner
                // that cannot be resumed or a lock no abort releases.
            }
        }
    }

    // Every recovered owner must be adoptable: resumable and abortable.
    for owner in &report.owners {
        let resumed = mgr
            .resume(*owner)
            .unwrap_or_else(|e| panic!("{label}: {owner:?} not resumable: {e}"));
        resumed.abort().unwrap_or_else(|e| panic!("{label}: {owner:?} abort failed: {e}"));
    }
    // After the final sweep nothing may linger: no leaked locks, no ghosts.
    assert_eq!(mgr.lock_manager().table_size(), 0, "{label}: leaked locks");
    assert_eq!(mgr.active_count(), 0, "{label}: leaked txn states");
    let probe = mgr.begin(TxnKind::Short);
    probe
        .try_lock(&churn_robot(), AccessMode::Update)
        .unwrap_or_else(|e| panic!("{label}: churn target still blocked: {e}"));
    probe.commit().unwrap();
    for i in 0..STATIONS {
        let probe = mgr.begin(TxnKind::Short);
        probe
            .try_lock(&robot(i), AccessMode::Update)
            .unwrap_or_else(|e| panic!("{label}: ws{i} target still blocked: {e}"));
        probe.commit().unwrap();
    }
    assert_bounded(&journal, label);
    report
}

/// One traced crash/recovery cycle on a fresh store: the script, a crash
/// at `plan` (none for a control), recovery, and the lint + certify of both
/// servers' events, which go to one buffer. The certifier reads a
/// transaction id the recovered server begins again as a new incarnation.
fn cycle(
    plan: Option<FaultPlan>,
    churn: usize,
    fastpath: bool,
    label: &str,
) -> (CellRun, RecoveryReport) {
    // Fresh store per cycle: recovered data must not leak across.
    let store = build_cells_store(&CellsConfig::default());
    let trace = Arc::new(TraceBuffer::with_capacity(colock_trace::DEFAULT_CAPACITY));
    trace.enable();
    let run = run_script(&store, plan, churn, fastpath, &trace);
    let report = check_recovery(&store, &run, label, fastpath, &trace);
    let events = trace.events_since(0).unwrap_or_else(|e| panic!("{label}: {e}"));
    colock_check::verify_trace(store.catalog(), &events).unwrap_or_else(|e| panic!("{label}: {e}"));
    (run, report)
}

/// Sweeps `rounds` crashes at `point`, each at a seeded append position in
/// `1..=window`, every third round with the fast path off; prints a
/// summary line.
fn sweep(point: CrashPoint, churn: usize, window: u64, rounds: u64, rng: &mut Rng) {
    let (mut owners, mut locks, mut torn, mut slow) = (0, 0, 0, 0);
    for round in 0..rounds {
        let fastpath = round % 3 != 1;
        slow += u64::from(!fastpath);
        let nth = rng.gen_range(1..window + 1);
        let label = format!("{point}@{nth} round {round} (fast path {fastpath})");
        let (run, report) = cycle(Some(FaultPlan::crash_at(point, nth)), churn, fastpath, &label);
        assert!(run.crashed, "{label}: the plan must fire within the script");
        owners += report.owners.len();
        locks += report.locks;
        torn += report.dropped_tail;
    }
    println!(
        "{point}: {rounds} rounds ({slow} with the fast path off), {owners} owners / {locks} locks \
         recovered, {torn} torn tails; every cycle linted and certified"
    );
}

#[test]
fn crash_matrix_every_point_every_position_recovers_exactly() {
    let seed = env_u64("COLOCK_CRASH_SEED", 0xC0_10CC);
    let rounds = env_u64("COLOCK_RECOVERY_ROUNDS", 4);

    // Dry run (no fault): learn the append count the script produces, and
    // verify the no-crash control — acked state only, nothing dropped.
    let (dry, _) = cycle(None, 0, true, "control");
    assert!(!dry.crashed);
    assert!(dry.appends > 0, "script must journal long locks");

    let mut rng = Rng::seed_from_u64(seed);
    for point in CrashPoint::ALL {
        sweep(point, 0, dry.appends, rounds, &mut rng);
    }
}

#[test]
fn crash_matrix_mid_compaction_recovers_exactly() {
    let seed = env_u64("COLOCK_CRASH_SEED", 0xC0_10CC);
    let rounds = env_u64("COLOCK_RECOVERY_ROUNDS", 4);

    // Dry run: the churn compacts the journal several times beside the
    // stations' live long locks, and the compacted medium recovers them.
    let (dry, _) = cycle(None, CHURN_CYCLES, true, "compacted control");
    assert!(!dry.crashed);
    assert!(dry.checkpoints >= 3, "churn wrote {} checkpoints", dry.checkpoints);

    // A checkpoint follows every position in the window.
    let mut rng = Rng::seed_from_u64(seed ^ 0xC0_4AC7);
    sweep(CrashPoint::MidCompaction, CHURN_CYCLES, dry.compaction_window, rounds, &mut rng);
}
