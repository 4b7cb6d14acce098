//! Per-layer scaling on disjoint objects: how much of a second thread each
//! layer of the engine keeps.
//!
//! For each operation below, T threads (T = 1, then 2) each loop over the
//! robots of their own cells of the mix database (8 cells × 4 robots, the
//! repo benchmark's `parallel_disjoint` shape: thread `w` of `n` takes the
//! cells with index ≡ `w` mod `n`), so no two threads ever touch one object
//! and no lock request can wait. The manager runs the production
//! configuration (`Proposed`, effectors read-only, journal attached, MVCC,
//! fast path and semantic modes on). Whatever the second thread loses here
//! is physical sharing inside the engine, not data contention.
//!
//! Operations: private work (arithmetic over the thread's own buffer, no
//! engine call: the host's ceiling); empty begin + commit; lock-only (an
//! update lock on a trajectory, no data touched); locking read; snapshot
//! read; short write (read, update, commit); long check-out + check-in of a
//! robot; and a bare `Store::get_at` of a trajectory (no transaction at
//! all).
//!
//! Each (operation, T) cell runs `COLOCK_BENCH_MS` milliseconds (default
//! 300) on a fresh manager, three times; the table shows the median rate in
//! operations per second, the 2-thread ÷ 1-thread ratio, and that ratio
//! over the private-work ratio of the same run: what a layer keeps of what
//! the host gives a second thread at all (two vCPUs may share one core).
//! Every operation must succeed (the binary panics otherwise); the rates
//! are printed, not checked.
//!
//! ```text
//! cargo run --release -p colock-bench --bin disjoint_scaling
//! ```

use colock_bench::cells_manager;
use colock_core::{AccessMode, InstanceTarget};
use colock_lockmgr::Journal;
use colock_nf2::Value;
use colock_sim::CellsConfig;
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const REPS: usize = 3;

/// The mix database of the repo benchmark.
fn mix_cells() -> CellsConfig {
    CellsConfig { n_cells: 8, c_objects_per_cell: 8, ..CellsConfig::default() }
}

#[derive(Clone, Copy)]
enum Op {
    PrivateWork,
    Empty,
    LockOnly,
    LockingRead,
    SnapshotRead,
    ShortWrite,
    LongCheckout,
    StoreGetAt,
}

const OPS: [(Op, &str); 8] = [
    (Op::PrivateWork, "private work"),
    (Op::Empty, "empty begin + commit"),
    (Op::LockOnly, "lock-only txn"),
    (Op::LockingRead, "locking read txn"),
    (Op::SnapshotRead, "snapshot-read txn"),
    (Op::ShortWrite, "short write txn"),
    (Op::LongCheckout, "long check-out/check-in"),
    (Op::StoreGetAt, "Store::get_at"),
];

/// The robots (and their trajectories) thread `w` of `n` works on.
fn own_robots(w: usize, n: usize) -> Vec<(InstanceTarget, InstanceTarget)> {
    let cfg = mix_cells();
    (0..cfg.n_cells)
        .filter(|c| c % n == w)
        .flat_map(|c| {
            (0..cfg.robots_per_cell).map(move |r| {
                let robot = InstanceTarget::object("cells", CellsConfig::cell_key(c))
                    .elem("robots", CellsConfig::robot_key(r));
                (robot.clone(), robot.attr("trajectory"))
            })
        })
        .collect()
}

fn manager() -> Arc<TransactionManager> {
    let mgr = cells_manager(&mix_cells(), ProtocolKind::Proposed);
    mgr.set_mvcc(true);
    mgr.set_semantic(true);
    mgr.lock_manager().set_fastpath(true);
    assert!(mgr.attach_journal(Arc::new(Journal::new())), "fresh manager has no journal");
    mgr
}

/// Words of a thread's private buffer: 4 KiB, cache resident.
const PRIVATE_WORDS: usize = 512;

/// One operation on `robot` / its trajectory `traj`, or on the thread's
/// `private` buffer.
fn run_op(
    mgr: &TransactionManager,
    op: Op,
    robot: &InstanceTarget,
    traj: &InstanceTarget,
    private: &mut [u64],
) {
    match op {
        Op::PrivateWork => {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for word in private.iter_mut() {
                h = (h ^ *word).wrapping_mul(0x0100_0000_01b3);
                *word = h;
            }
            black_box(h);
        }
        Op::Empty => mgr.begin(TxnKind::Short).commit().expect("empty commit"),
        Op::LockOnly => {
            let txn = mgr.begin(TxnKind::Short);
            black_box(txn.lock(traj, AccessMode::Update).expect("lock"));
            txn.commit().expect("commit");
        }
        Op::LockingRead => {
            let txn = mgr.begin(TxnKind::Short);
            black_box(txn.read(traj).expect("read"));
            txn.commit().expect("commit");
        }
        Op::SnapshotRead => {
            let txn = mgr.begin_readonly();
            black_box(txn.snapshot_read(traj).expect("snapshot read"));
            txn.commit().expect("commit");
        }
        Op::ShortWrite => {
            let txn = mgr.begin(TxnKind::Short);
            let v = txn.read(traj).expect("read");
            let n = match &v {
                Value::Str(s) => s.parse::<u64>().unwrap_or(0),
                _ => 0,
            };
            txn.update(traj, Value::Str((n + 1).to_string())).expect("update");
            txn.commit().expect("commit");
        }
        Op::LongCheckout => {
            let txn = mgr.begin(TxnKind::Long);
            let copy = txn.checkout(robot, AccessMode::Update).expect("check-out");
            txn.checkin(robot, copy).expect("check-in");
            txn.commit().expect("commit");
        }
        Op::StoreGetAt => {
            let key = traj.object.as_ref().expect("object target");
            black_box(mgr.store().get_at(&traj.relation, key, &traj.steps).expect("get_at"));
        }
    }
}

/// Operations per second of `threads` threads running `op` for `budget`.
fn rate(op: Op, threads: usize, budget: Duration) -> f64 {
    let mgr = manager();
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|w| {
            let (mgr, stop, start) = (Arc::clone(&mgr), Arc::clone(&stop), Arc::clone(&start));
            thread::spawn(move || {
                let robots = own_robots(w, threads);
                let mut private = vec![w as u64; PRIVATE_WORDS];
                start.wait();
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (robot, traj) = &robots[done as usize % robots.len()];
                    run_op(&mgr, op, robot, traj, &mut private);
                    done += 1;
                }
                done
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    thread::sleep(budget);
    stop.store(true, Ordering::Relaxed);
    let done: u64 = handles.into_iter().map(|h| h.join().expect("worker panicked")).sum();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(mgr.active_count(), 0, "every transaction finished");
    assert_eq!(mgr.lock_manager().stats().snapshot().waits, 0, "disjoint objects never wait");
    done as f64 / elapsed
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let ms: u64 = std::env::var("COLOCK_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let budget = Duration::from_millis(ms);
    println!(
        "disjoint_scaling: mix database ({} cells), {ms} ms per run, median of {REPS}, {} CPUs",
        mix_cells().n_cells,
        thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "{:<26} {:>12} {:>12} {:>8} {:>10}",
        "operation", "1T ops/s", "2T ops/s", "2T÷1T", "÷ ceiling"
    );
    let mut ceiling = None;
    for (op, name) in OPS {
        let one = median((0..REPS).map(|_| rate(op, 1, budget)).collect());
        let two = median((0..REPS).map(|_| rate(op, 2, budget)).collect());
        let scaling = two / one;
        let ceiling = *ceiling.get_or_insert(scaling);
        println!("{name:<26} {one:>12.0} {two:>12.0} {scaling:>8.2} {:>10.2}", scaling / ceiling);
    }
}
