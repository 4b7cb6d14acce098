//! The structure-shared store under concurrent sub-object writers on ONE
//! relation, racing snapshot readers and version GC.
//!
//! Every round, `WORKERS` writer threads run `OPS` seeded transactions each
//! against one shared manager. Half of them bump the writer's *own* counter,
//! kept in its own robot's `trajectory` in `cells[c1]` AND `cells[c2]`: all
//! writers work on disjoint elements of the same two objects, each object
//! under one store latch stripe, and every commit is a two-object version
//! install across two stripes. The other half bump a counter in a *shared*
//! effector (`tool`), which serializes the writers on its X lock. One
//! transaction in eight writes `dirty` and aborts. Meanwhile `READERS`
//! threads take `begin_readonly` snapshots in a loop, and every writer calls
//! `gc_versions` now and then.
//!
//! Checked every round:
//! * **no lost update**: after the join, every counter equals the number
//!   of commits its writers counted;
//! * **every snapshot is a committed prefix**: within one snapshot a
//!   writer's two copies agree (the install is atomic), no value is ahead
//!   of a transaction its writer has begun, nothing `dirty` shows, no
//!   counter ever goes back from one snapshot to the next, and a snapshot
//!   taken after the writers finished shows the final state;
//! * **chains stay bounded**: after a final GC every chain is one entry;
//! * the lock table drains, no transaction survives, and the round's trace
//!   lints and certifies.
//!
//! `COLOCK_STRESS_ROUNDS` sets the rounds (default 1); `scripts/check.sh`
//! runs 40 in release.

use colock_core::authorization::Authorization;
use colock_core::{AccessMode, InstanceTarget};
use colock_nf2::Value;
use colock_sim::{build_cells_store, CellsConfig};
use colock_testkit::{soak_round, stress_rounds, Rng};
use colock_trace::TraceBuffer;
use colock_txn::{ProtocolKind, Transaction, TransactionManager, TxnKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

fn read_counter(t: &Transaction<'_>, target: &InstanceTarget) -> u64 {
    match t.read(target).expect("counter read") {
        Value::Str(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("uncommitted write visible: {s:?}")),
        other => panic!("counter is not a string: {other:?}"),
    }
}

/// What one snapshot shows, or what the writers committed: every writer's
/// own counter, every shared one.
type View = ([u64; WORKERS], [u64; EFFECTORS]);

/// Writer `w`'s transactions; returns its commits as a [`View`] (its own
/// counter, and per shared effector).
fn writer(mgr: &TransactionManager, w: usize, seed: u64, begun: &AtomicU64) -> View {
    let mut rng = Rng::seed_from_u64(seed);
    let mut done: View = Default::default();
    for op in 0..OPS {
        let abort = rng.gen_range(0..8u32) == 0;
        let t = mgr.begin(TxnKind::Short);
        if rng.gen_bool(0.5) {
            let k = done.0[w] + 1;
            begun.store(k, Ordering::Release);
            let new = if abort { Value::str("dirty") } else { num(k) };
            for cell in 0..2 {
                t.update(&own_counter(cell, w), new.clone())
                    .expect("own robots never conflict");
            }
            done.0[w] += u64::from(!abort);
        } else {
            let j = rng.gen_range(0..EFFECTORS);
            let target = shared_counter(j);
            // One conflicting lock per transaction: waits, never a cycle.
            t.lock(&target, AccessMode::Update)
                .expect("X on the shared effector");
            let k = read_counter(&t, &target) + 1;
            t.update(&target, if abort { Value::str("dirty") } else { num(k) })
                .expect("update under X");
            done.1[j] += u64::from(!abort);
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

/// Takes snapshots until one was begun after `writers_done`; returns it.
fn reader(mgr: &TransactionManager, begun: &[AtomicU64], writers_done: &AtomicBool) -> View {
    let mut last: View = Default::default();
    loop {
        let final_pass = writers_done.load(Ordering::Acquire);
        let t = mgr.begin_readonly();
        let mut view: View = Default::default();
        for (w, begun) in begun.iter().enumerate() {
            let (a, b) = (
                read_counter(&t, &own_counter(0, w)),
                read_counter(&t, &own_counter(1, w)),
            );
            assert_eq!(a, b, "writer {w}: a snapshot tore a two-object commit");
            let started = begun.load(Ordering::Acquire);
            assert!(
                a <= started,
                "writer {w}: snapshot shows {a}, only {started} begun"
            );
            view.0[w] = a;
        }
        for (j, shared) in view.1.iter_mut().enumerate() {
            *shared = read_counter(&t, &shared_counter(j));
        }
        t.commit().expect("read-only commit");
        let monotone = view
            .0
            .iter()
            .zip(&last.0)
            .chain(view.1.iter().zip(&last.1))
            .all(|(n, l)| n >= l);
        assert!(
            monotone,
            "a later snapshot went back: {last:?} then {view:?}"
        );
        last = view;
        if final_pass {
            return last;
        }
    }
}

/// The writers and readers of one round on `mgr`: what the writers
/// committed (summed) and each reader's final snapshot.
fn storm(mgr: &TransactionManager, round: u64) -> (View, Vec<View>) {
    let begun: Vec<AtomicU64> = (0..WORKERS).map(|_| AtomicU64::new(0)).collect();
    let writers_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (begun, writers_done) = (&begun, &writers_done);
        let readers: Vec<_> = (0..READERS)
            .map(|_| scope.spawn(move || reader(mgr, begun, writers_done)))
            .collect();
        let writers: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || writer(mgr, w, round * WORKERS as u64 + w as u64, &begun[w]))
            })
            .collect();
        let mut committed: View = Default::default();
        for h in writers {
            let (own, shared) = h.join().expect("writer panicked");
            for (sum, n) in committed
                .0
                .iter_mut()
                .zip(own)
                .chain(committed.1.iter_mut().zip(shared))
            {
                *sum += n;
            }
        }
        writers_done.store(true, Ordering::Release);
        (
            committed,
            readers
                .into_iter()
                .map(|h| h.join().expect("reader panicked"))
                .collect(),
        )
    })
}

#[test]
fn sub_object_writers_snapshots_and_gc_lose_nothing() {
    let cells = CellsConfig {
        n_cells: 2,
        c_objects_per_cell: 40,
        robots_per_cell: WORKERS,
        n_effectors: EFFECTORS,
        effectors_per_robot: 2,
        ..Default::default()
    };
    for round in 0..stress_rounds(1) {
        let label = format!("round {round}");
        let mgr = Arc::new(TransactionManager::over_store(
            build_cells_store(&cells),
            Authorization::allow_all(),
            ProtocolKind::Proposed,
        ));
        // A round traces ~76k events; the window of a whole round must fit.
        let trace = Arc::new(TraceBuffer::with_capacity(131_072));
        trace.enable();
        mgr.attach_trace(Arc::clone(&trace));

        // Counters start at 0 (the generated store holds free-form strings).
        let t = mgr.begin(TxnKind::Short);
        for w in 0..WORKERS {
            for cell in 0..2 {
                t.update(&own_counter(cell, w), num(0))
                    .expect("zero an own counter");
            }
        }
        for j in 0..EFFECTORS {
            t.update(&shared_counter(j), num(0))
                .expect("zero a shared counter");
        }
        t.commit().expect("set-up commit");

        let (run, stalled) = (Arc::clone(&mgr), Arc::clone(&mgr));
        let (expected, views) = soak_round(
            &label,
            Duration::from_secs(60),
            move || stalled.lock_manager().debug_dump(),
            move || storm(&run, round),
        );

        // No lost update: the final state is exactly the counted commits …
        let t = mgr.begin(TxnKind::Short);
        for w in 0..WORKERS {
            for cell in 0..2 {
                let got = read_counter(&t, &own_counter(cell, w));
                assert_eq!(
                    got, expected.0[w],
                    "{label}: writer {w} lost an update in cell {cell}"
                );
            }
        }
        for j in 0..EFFECTORS {
            assert_eq!(
                read_counter(&t, &shared_counter(j)),
                expected.1[j],
                "{label}: effector {j} lost an update"
            );
        }
        t.commit().expect("verify commit");
        // … and so is every snapshot begun after the writers finished.
        for view in &views {
            assert_eq!(view, &expected, "{label}: a final snapshot misses commits");
        }

        assert_eq!(mgr.active_count(), 0, "{label}: transactions survived");
        assert_eq!(
            mgr.lock_manager().table_size(),
            0,
            "{label}: lock table not drained"
        );
        mgr.gc_versions();
        for (relation, objects) in [("cells", cells.n_cells), ("effectors", EFFECTORS)] {
            let entries = mgr
                .store()
                .version_entries(relation)
                .expect("known relation");
            assert_eq!(
                entries, objects,
                "{label}: {relation} chains not pruned to one entry each"
            );
        }
        let events = trace
            .events_since(0)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        if let Err(e) = colock_check::verify_trace(mgr.store().catalog(), &events) {
            panic!("{label}: {e}");
        }
    }
}
