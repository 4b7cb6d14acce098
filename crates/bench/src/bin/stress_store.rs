//! Stress harness for the structure-shared store: concurrent sub-object
//! writers on ONE relation, racing snapshot readers and version GC.
//!
//! Every round, `WORKERS` writer threads run `OPS` seeded transactions each
//! against one shared manager. Half of them bump the writer's *own* counter,
//! kept in its own robot's `trajectory` in `cells[c1]` AND `cells[c2]` — so
//! all writers work on disjoint elements of the same two objects, each
//! object under one store latch stripe, and every commit is a two-object
//! version install across two stripes.
//! The other half bump a counter in a *shared* effector (`tool`), which
//! serializes the writers on its X lock. One transaction in eight writes
//! `dirty` and aborts. Meanwhile `READERS` threads take `begin_readonly`
//! snapshots in a loop and every writer calls `gc_versions` now and then.
//!
//! Checked every round:
//! * **no lost update** — after the join, every counter equals the number
//!   of commits its writers counted;
//! * **every snapshot is a committed prefix** — within one snapshot a
//!   writer's two copies agree (the install is atomic), no value is ahead
//!   of a transaction its writer has begun, nothing `dirty` shows, no
//!   counter ever goes back from one snapshot to the next, and a snapshot
//!   taken after the writers finished shows the final state;
//! * **chains stay bounded** — after a final GC every chain is one entry;
//! * the lock table drains and no transaction survives.
//!
//! Every round's trace is linted and certified. Runs
//! `COLOCK_STRESS_ROUNDS` rounds (default 100000 — effectively until
//! interrupted; the gate sets a small bound).

use colock_bench::{cells_manager_writable, stress_rounds, verify_window};
use colock_core::{AccessMode, InstanceTarget};
use colock_nf2::Value;
use colock_sim::CellsConfig;
use colock_testkit::Rng;
use colock_txn::{ProtocolKind, Transaction, TransactionManager, TxnKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const WORKERS: usize = 4;
const READERS: usize = 2;
const OPS: u64 = 200;
const EFFECTORS: usize = 4;

/// Writer `w`'s own counter: its robot's trajectory in cell `cell`.
fn own_counter(cell: usize, w: usize) -> InstanceTarget {
    InstanceTarget::object("cells", CellsConfig::cell_key(cell))
        .elem("robots", CellsConfig::robot_key(w))
        .attr("trajectory")
}

fn shared_counter(j: usize) -> InstanceTarget {
    InstanceTarget::object("effectors", CellsConfig::effector_key(j)).attr("tool")
}

fn num(k: u64) -> Value {
    Value::Str(k.to_string())
}

fn counter_of(v: &Value) -> u64 {
    match v {
        Value::Str(s) => s.parse().unwrap_or_else(|_| panic!("uncommitted write visible: {s:?}")),
        other => panic!("counter is not a string: {other:?}"),
    }
}

fn read_counter(t: &Transaction<'_>, target: &InstanceTarget) -> u64 {
    counter_of(&t.read(target).expect("counter read"))
}

/// Commits each writer counted: its own counter, and per shared effector.
#[derive(Default)]
struct Committed {
    own: u64,
    shared: [u64; EFFECTORS],
}

fn writer(mgr: &TransactionManager, w: usize, seed: u64, begun: &AtomicU64) -> Committed {
    let mut rng = Rng::seed_from_u64(seed);
    let mut done = Committed::default();
    for op in 0..OPS {
        let abort = rng.gen_range(0..8u32) == 0;
        let t = mgr.begin(TxnKind::Short);
        if rng.gen_bool(0.5) {
            let k = done.own + 1;
            begun.store(k, Ordering::Release);
            let new = if abort { Value::str("dirty") } else { num(k) };
            for cell in 0..2 {
                t.update(&own_counter(cell, w), new.clone()).expect("own robots never conflict");
            }
            done.own += u64::from(!abort);
        } else {
            let j = rng.gen_range(0..EFFECTORS);
            let target = shared_counter(j);
            // One conflicting lock per transaction: waits, never a cycle.
            t.lock(&target, AccessMode::Update).expect("X on the shared effector");
            let k = read_counter(&t, &target) + 1;
            let new = if abort { Value::str("dirty") } else { num(k) };
            t.update(&target, new).expect("update under X");
            done.shared[j] += u64::from(!abort);
        }
        if abort {
            t.abort().expect("abort");
        } else {
            t.commit().expect("commit");
        }
        if op % 32 == 31 {
            mgr.gc_versions();
        }
    }
    done
}

/// What one snapshot shows: every writer's own counter, every shared one.
type View = ([u64; WORKERS], [u64; EFFECTORS]);

/// Takes snapshots until one was begun after `writers_done`; returns it.
fn reader(mgr: &TransactionManager, begun: &[AtomicU64], writers_done: &AtomicBool) -> View {
    let mut last: View = Default::default();
    loop {
        let final_pass = writers_done.load(Ordering::Acquire);
        let t = mgr.begin_readonly();
        let mut view: View = Default::default();
        for (w, begun) in begun.iter().enumerate() {
            let (a, b) = (read_counter(&t, &own_counter(0, w)), read_counter(&t, &own_counter(1, w)));
            assert_eq!(a, b, "writer {w}: a snapshot tore a two-object commit");
            let started = begun.load(Ordering::Acquire);
            assert!(a <= started, "writer {w}: snapshot shows {a}, only {started} begun");
            view.0[w] = a;
        }
        for (j, shared) in view.1.iter_mut().enumerate() {
            *shared = read_counter(&t, &shared_counter(j));
        }
        t.commit().expect("read-only commit");
        let monotone = view.0.iter().zip(&last.0).chain(view.1.iter().zip(&last.1)).all(|(n, l)| n >= l);
        assert!(monotone, "a later snapshot went back: {last:?} then {view:?}");
        last = view;
        if final_pass {
            return last;
        }
    }
}

fn main() {
    // A round traces ~76k events, more than the default ring holds; the
    // window of a whole round must fit, or its check fails.
    if std::env::var_os("COLOCK_TRACE_CAP").is_none() {
        std::env::set_var("COLOCK_TRACE_CAP", "131072");
    }
    colock_trace::enable();
    let rounds = stress_rounds();
    let cells = CellsConfig {
        n_cells: 2,
        c_objects_per_cell: 40,
        robots_per_cell: WORKERS,
        n_effectors: EFFECTORS,
        effectors_per_robot: 2,
        ..Default::default()
    };
    for round in 0..rounds {
        let mark = colock_trace::current_seq();
        let mgr = cells_manager_writable(&cells, ProtocolKind::Proposed);

        // Counters start at 0 (the generated store holds free-form strings).
        let t = mgr.begin(TxnKind::Short);
        for w in 0..WORKERS {
            for cell in 0..2 {
                t.update(&own_counter(cell, w), num(0)).expect("zero an own counter");
            }
        }
        for j in 0..EFFECTORS {
            t.update(&shared_counter(j), num(0)).expect("zero a shared counter");
        }
        t.commit().expect("set-up commit");

        let begun: Vec<AtomicU64> = (0..WORKERS).map(|_| AtomicU64::new(0)).collect();
        let writers_done = AtomicBool::new(false);
        let started = std::time::Instant::now();
        let (committed, views) = std::thread::scope(|scope| {
            let (mgr, begun, writers_done) = (&*mgr, &begun, &writers_done);
            let readers: Vec<_> =
                (0..READERS).map(|_| scope.spawn(move || reader(mgr, begun, writers_done))).collect();
            let writers: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let seed = round * WORKERS as u64 + w as u64;
                    scope.spawn(move || writer(mgr, w, seed, &begun[w]))
                })
                .collect();
            let committed: Vec<Committed> =
                writers.into_iter().map(|h| h.join().expect("writer panicked")).collect();
            writers_done.store(true, Ordering::Release);
            let views: Vec<View> =
                readers.into_iter().map(|h| h.join().expect("reader panicked")).collect();
            (committed, views)
        });
        let elapsed = started.elapsed();

        // No lost update: the final state is exactly the counted commits …
        let mut expected: View = Default::default();
        for (w, c) in committed.iter().enumerate() {
            expected.0[w] = c.own;
            for j in 0..EFFECTORS {
                expected.1[j] += c.shared[j];
            }
        }
        let t = mgr.begin(TxnKind::Short);
        for w in 0..WORKERS {
            for cell in 0..2 {
                let got = read_counter(&t, &own_counter(cell, w));
                assert_eq!(got, expected.0[w], "round {round}: writer {w} lost an update in cell {cell}");
            }
        }
        for j in 0..EFFECTORS {
            let got = read_counter(&t, &shared_counter(j));
            assert_eq!(got, expected.1[j], "round {round}: effector {j} lost an update");
        }
        t.commit().expect("verify commit");
        // … and so is every snapshot begun after the writers finished.
        for view in &views {
            assert_eq!(view, &expected, "round {round}: a final snapshot misses commits");
        }

        assert_eq!(mgr.active_count(), 0, "round {round}: transactions survived");
        assert_eq!(mgr.lock_manager().table_size(), 0, "round {round}: lock table not drained");
        mgr.gc_versions();
        let store = mgr.store();
        for (relation, objects) in [("cells", cells.n_cells), ("effectors", EFFECTORS)] {
            let entries = store.version_entries(relation).expect("known relation");
            assert_eq!(entries, objects, "round {round}: {relation} chains not pruned to one entry each");
        }

        verify_window(&format!("round {round}"), store.catalog(), mark, &[mgr.trace_instance()]);
        if round % 10 == 0 {
            let commits: u64 = expected.0.iter().chain(&expected.1).sum();
            println!(
                "round {round}: {commits} commits of {} txns in {:.1}ms, {} versions installed, {} pruned",
                WORKERS as u64 * OPS,
                elapsed.as_secs_f64() * 1000.0,
                store.versions_installed(),
                store.versions_pruned(),
            );
        }
    }
}
