//! Bounded fault-injection stress for the crash-recovery path: repeats the
//! check-out / edit / check-in cycle with a seeded crash injected at a
//! random journal append, rebuilds the server from the surviving medium,
//! and checks §3.1's invariant — every acknowledged long lock is either
//! fully recovered under its owner or was durably released; nothing is
//! half-present and nothing leaks past a post-crash sweep. A last sweep
//! adds a churn station whose check-out/check-in cycles make the journal
//! checkpoint several times, and crashes in the middle of a checkpoint.
//! After every cycle the journal medium must be within
//! `CHECKPOINT_FLOOR + 2 × live bytes`.
//!
//! Knobs: `COLOCK_CRASH_SEED` (schedule seed, default 0xC010CC) and
//! `COLOCK_RECOVERY_ROUNDS` (rounds per crash point, default 25). Every
//! third round (1, 4, 7, …) runs both servers with the fast path off. Every
//! crash/recovery cycle is traced, linted against the §4.4.2 rules and
//! certified — recovered grants, probes and the post-recovery sweep must all
//! be conformant.

use colock_bench::check_trace;
use colock_core::authorization::{Authorization, Right};
use colock_core::{AccessMode, InstanceTarget, ResourcePath};
use colock_lockmgr::persistent::CHECKPOINT_FLOOR;
use colock_lockmgr::{Journal, TxnId};
use colock_nf2::Value;
use colock_sim::{build_cells_store, CellsConfig, Workstation};
use colock_storage::Store;
use colock_testkit::{CrashPoint, FaultPlan, Rng};
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::Arc;

const STATIONS: usize = 4;

/// Churn cycles per run in the mid-compaction sweep: several checkpoints.
const CHURN_CYCLES: usize = 250;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn server(store: &Arc<Store>, fastpath: bool) -> (TransactionManager, Arc<Journal<ResourcePath>>) {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let mgr = TransactionManager::over_store(Arc::clone(store), authz, ProtocolKind::Proposed);
    mgr.lock_manager().set_fastpath(fastpath);
    let journal = Arc::new(Journal::<ResourcePath>::new());
    assert!(mgr.attach_journal(Arc::clone(&journal)));
    (mgr, journal)
}

fn robot(cell: usize) -> InstanceTarget {
    InstanceTarget::object("cells", format!("c{}", cell + 1)).elem("robots", "r1")
}

/// The churn station's robot: no station's target.
fn churn_robot() -> InstanceTarget {
    InstanceTarget::object("cells", "c1").elem("robots", "r2")
}

/// What one crashed cycle left behind.
struct Cycle {
    medium: String,
    /// Acked-holding stations and their session ids.
    held: Vec<(usize, TxnId)>,
    /// Stations whose check-in was acked.
    checked_in: Vec<usize>,
    appends: u64,
    crashed: bool,
    checkpoints: u64,
    /// Appends before the last churn cycle that wrote a checkpoint: a
    /// mid-compaction crash planned up to here fires within the cycle.
    compaction_window: u64,
}

/// The medium must stay within the checkpoint bound; only a crash in the
/// middle of a due checkpoint leaves it over, with the old text.
fn assert_bounded(journal: &Journal<ResourcePath>, label: &str) {
    let (len, live) = (journal.contents().len(), journal.live_bytes());
    if journal.crash_point() == Some(CrashPoint::MidCompaction) {
        assert!(len > CHECKPOINT_FLOOR.max(2 * live), "{label}: crashed checkpoint was not due");
    } else {
        assert!(len <= CHECKPOINT_FLOOR + 2 * live, "{label}: medium {len} B, live {live} B");
    }
}

/// Runs one crashed cycle with `churn` churn cycles after the check-outs.
fn run_cycle(store: &Arc<Store>, plan: Option<FaultPlan>, churn: usize, fastpath: bool) -> Cycle {
    let (mgr, journal) = server(store, fastpath);
    if let Some(p) = plan {
        journal.arm(p);
    }
    let mut stations: Vec<Workstation<'_>> =
        (0..STATIONS).map(|i| Workstation::connect(&mgr, format!("ws{i}"))).collect();
    let mut churner = Workstation::connect(&mgr, "churn");
    let mut compaction_window = 0;
    let mut holding = [false; STATIONS];
    let mut checked_in = Vec::new();
    'script: {
        for (i, ws) in stations.iter_mut().enumerate() {
            let ok = ws.checkout(&robot(i), AccessMode::Update).is_ok();
            if mgr.journal_crashed() || !ok {
                break 'script;
            }
            holding[i] = true;
            ws.edit(&robot(i), |v| {
                *v.field_mut("trajectory").unwrap() = Value::str(format!("edited-{i}"));
            })
            .expect("edit of update checkout");
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
        for (i, ws) in stations.iter_mut().enumerate().take(STATIONS / 2) {
            let ok = ws.checkin_all().is_ok();
            if mgr.journal_crashed() || !ok {
                holding[i] = false;
                break 'script;
            }
            holding[i] = false;
            checked_in.push(i);
        }
    }
    churner.crash();
    let mut held = Vec::new();
    for (i, ws) in stations.iter_mut().enumerate() {
        if let (Some(id), true) = (ws.crash(), holding[i]) {
            held.push((i, id));
        }
    }
    assert_bounded(&journal, "crashed server");
    Cycle {
        medium: journal.contents(),
        held,
        checked_in,
        appends: journal.appends(),
        crashed: journal.crashed(),
        checkpoints: journal.checkpoints(),
        compaction_window,
    }
}

fn check(store: &Arc<Store>, cycle: &Cycle, fastpath: bool) -> (usize, usize, usize) {
    let Cycle { medium, held, checked_in, .. } = cycle;
    let (mgr, journal) = server(store, fastpath);
    let report = mgr.recover(medium).expect("medium must replay");
    assert!(report.dropped_tail <= 1, "more than the torn record dropped");
    for (i, id) in held {
        assert!(report.owners.contains(id), "acked holder ws{i} lost");
        let probe = mgr.begin(TxnKind::Short);
        assert!(probe.try_lock(&robot(*i), AccessMode::Update).is_err(), "ws{i} lock gone");
        probe.abort().expect("probe abort");
    }
    for i in checked_in {
        let probe = mgr.begin(TxnKind::Short);
        assert!(probe.try_lock(&robot(*i), AccessMode::Update).is_ok(), "ws{i} lock survived check-in");
        probe.commit().expect("probe commit");
    }
    for owner in &report.owners {
        mgr.resume(*owner).expect("recovered owner resumable").abort().expect("abortable");
    }
    let probe = mgr.begin(TxnKind::Short);
    assert!(probe.try_lock(&churn_robot(), AccessMode::Update).is_ok(), "churn robot leaked");
    probe.commit().expect("probe commit");
    assert_eq!(mgr.lock_manager().table_size(), 0, "leaked locks after sweep");
    assert_eq!(mgr.active_count(), 0, "leaked txn states after sweep");
    assert_bounded(&journal, "recovered server");
    (report.owners.len(), report.locks, report.dropped_tail)
}

fn main() {
    let seed = env_u64("COLOCK_CRASH_SEED", 0xC0_10CC);
    let rounds = env_u64("COLOCK_RECOVERY_ROUNDS", 25);
    colock_trace::enable();

    // Dry run: learn the append budget and verify the no-crash control.
    let store = build_cells_store(&CellsConfig::default());
    let mark = colock_trace::current_seq();
    let control = run_cycle(&store, None, 0, true);
    check(&store, &control, true);
    // The linter treats a re-begun transaction id as a fresh incarnation, so
    // the pre-crash server and the recovery server may share one window.
    check_trace("control cycle", store.catalog(), &colock_trace::events_since(mark));
    let appends = control.appends;
    println!("control: {appends} appends, {} holders recovered, clean sweep", control.held.len());

    // A second control with churn: the window the mid-compaction sweep
    // draws its crash positions from.
    let store = build_cells_store(&CellsConfig::default());
    let mark = colock_trace::current_seq();
    let churned = run_cycle(&store, None, CHURN_CYCLES, true);
    check(&store, &churned, true);
    check_trace("churn control cycle", store.catalog(), &colock_trace::events_since(mark));
    assert!(churned.checkpoints >= 3, "churn wrote {} checkpoints", churned.checkpoints);
    println!(
        "churn control: {} appends, {} checkpoints, medium {} B, clean sweep",
        churned.appends,
        churned.checkpoints,
        churned.medium.len()
    );

    let mut rng = Rng::seed_from_u64(seed);
    let sweeps = CrashPoint::ALL.map(|p| (p, 0, appends)).into_iter().chain([(
        CrashPoint::MidCompaction,
        CHURN_CYCLES,
        churned.compaction_window,
    )]);
    for (point, churn, window) in sweeps {
        let (mut owners, mut locks, mut torn, mut slow) = (0, 0, 0, 0);
        for round in 0..rounds {
            let fastpath = round % 3 != 1;
            slow += u64::from(!fastpath);
            let store = build_cells_store(&CellsConfig::default());
            let nth = rng.gen_range(1..window + 1);
            let mark = colock_trace::current_seq();
            let cycle = run_cycle(&store, Some(FaultPlan::crash_at(point, nth)), churn, fastpath);
            assert!(cycle.crashed, "{point}@{nth}: the plan must fire within the cycle");
            let (o, l, t) = check(&store, &cycle, fastpath);
            let label = format!("{point} round {round} (fastpath {fastpath})");
            check_trace(&label, store.catalog(), &colock_trace::events_since(mark));
            owners += o;
            locks += l;
            torn += t;
        }
        println!(
            "{point}: {rounds} rounds ({slow} with the fast path off), {owners} owners / {locks} \
             locks recovered, {torn} torn tails, 0 violations"
        );
    }
    println!("stress_recovery: all invariants held (seed {seed:#x}, {rounds} rounds/point)");
}
