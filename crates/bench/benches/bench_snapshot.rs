//! Multiversion overlay costs: the snapshot-read path, the timestamp
//! pin/unpin of a read-only transaction, the chain walk as versions pile
//! up, and the writer-side commit that installs them.

use colock_bench::cells_manager;
use colock_core::{AccessMode, InstanceTarget, ResourcePath};
use colock_lockmgr::{LockManager, LockMode, LockRequestOptions, TxnId};
use colock_nf2::Value;
use colock_sim::CellsConfig;
use colock_testkit::{black_box, BenchHarness};
use colock_txn::{ProtocolKind, TxnKind};

fn robot_trajectory() -> InstanceTarget {
    InstanceTarget::object("cells", CellsConfig::cell_key(0))
        .elem("robots", CellsConfig::robot_key(0))
        .attr("trajectory")
}

fn bench_snapshot_read(h: &mut BenchHarness) {
    let cells = CellsConfig { n_cells: 2, c_objects_per_cell: 8, ..Default::default() };
    let mut group = h.group("snapshot_read");
    group.bench("snapshot_read_hot", |b| {
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        let reader = mgr.begin_readonly();
        let target = robot_trajectory();
        b.iter(|| reader.snapshot_read(black_box(&target)).unwrap());
    });
    group.bench("snapshot_read_64_version_chain", |b| {
        // An unpruned 64-entry chain on the hot object: the visibility scan
        // has to walk past every version newer than the pinned snapshot.
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        mgr.set_gc_every(0);
        let reader = mgr.begin_readonly();
        let target = robot_trajectory();
        for i in 0..64 {
            let w = mgr.begin(TxnKind::Short);
            w.update(&target, Value::str(format!("t{i}"))).unwrap();
            w.commit().unwrap();
        }
        b.iter(|| reader.snapshot_read(black_box(&target)).unwrap());
    });
    group.bench("begin_commit_readonly", |b| {
        // Pure transaction overhead of a snapshot reader: timestamp pin at
        // begin, unpin at commit, no reads.
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        b.iter(|| mgr.begin_readonly().commit().unwrap());
    });
    group.bench("locking_read_covered", |b| {
        // The ablation's repeat-read cost: the S lock is already held, so
        // this is a covered reacquire plus the same tree walk.
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        mgr.set_mvcc(false);
        let reader = mgr.begin_readonly();
        let target = robot_trajectory();
        b.iter(|| reader.snapshot_read(black_box(&target)).unwrap());
    });
    group.bench("txn_get_put_locks", |b| {
        // The locks of a GET/PUT pair through `Transaction`: S on the
        // trajectory, then X on it (six ancestor intents each), then commit.
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        let target = robot_trajectory();
        b.iter(|| {
            let w = mgr.begin(TxnKind::Short);
            w.lock(black_box(&target), AccessMode::Read).unwrap();
            w.lock(black_box(&target), AccessMode::Update).unwrap();
            w.commit().unwrap();
        });
    });
    group.bench("lm_get_put_locks", |b| {
        // The same grants on the bare lock manager, the floor of the row
        // above: an IS chain and S, an IX chain and X, then release_all.
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        let path = mgr.engine().resource_for(&robot_trajectory()).unwrap();
        let chain: Vec<ResourcePath> = path.ancestors();
        let lm: LockManager<ResourcePath> = LockManager::new();
        let opts = LockRequestOptions::default();
        let mut id = 0;
        b.iter(|| {
            id += 1;
            let txn = TxnId(id);
            lm.acquire_intent_chain(txn, black_box(&chain), LockMode::IS, opts).unwrap();
            lm.acquire(txn, path.clone(), LockMode::S, opts).unwrap();
            lm.acquire_intent_chain(txn, &chain, LockMode::IX, opts).unwrap();
            lm.acquire(txn, path.clone(), LockMode::X, opts).unwrap();
            lm.release_all(txn);
        });
    });
    group.bench("update_commit_installs_version", |b| {
        // Writer-side price of the overlay: every committing update also
        // composes a patch from its undo log and installs one version.
        let mgr = cells_manager(&cells, ProtocolKind::Proposed);
        let target = robot_trajectory();
        b.iter(|| {
            let w = mgr.begin(TxnKind::Short);
            w.update(&target, black_box(Value::str("t"))).unwrap();
            w.commit().unwrap();
        });
    });
    group.finish();
}

fn main() {
    let mut h = BenchHarness::new();
    bench_snapshot_read(&mut h);
}
