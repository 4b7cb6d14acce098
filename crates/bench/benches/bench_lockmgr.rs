//! Raw lock-manager operations — the constant factors underneath every
//! protocol comparison.

use colock_lockmgr::{LockManager, LockMode, LockRequestOptions, TxnId};
use colock_testkit::{black_box, BenchHarness};

fn bench_acquire_release(h: &mut BenchHarness) {
    let mut group = h.group("lockmgr");
    group.bench("acquire_release_x", |b| {
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        b.iter(|| {
            lm.acquire(txn, black_box(42), LockMode::X, LockRequestOptions::default()).unwrap();
            lm.release(txn, &42);
        });
    });
    group.bench("reentrant_covered_acquire", |b| {
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        lm.acquire(txn, 42, LockMode::X, LockRequestOptions::default()).unwrap();
        b.iter(|| {
            lm.acquire(txn, black_box(42), LockMode::S, LockRequestOptions::default()).unwrap()
        });
    });
    group.bench("shared_group_of_8", |b| {
        let lm: LockManager<u64> = LockManager::new();
        for i in 0..8 {
            lm.acquire(TxnId(i), 7, LockMode::S, LockRequestOptions::default()).unwrap();
        }
        let txn = TxnId(99);
        b.iter(|| {
            lm.acquire(txn, black_box(7), LockMode::S, LockRequestOptions::default()).unwrap();
            lm.release(txn, &7);
        });
    });
    group.bench("conversion_s_to_x", |b| {
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        b.iter(|| {
            lm.acquire(txn, 1, LockMode::S, LockRequestOptions::default()).unwrap();
            lm.acquire(txn, 1, LockMode::X, LockRequestOptions::default()).unwrap();
            lm.release(txn, &1);
        });
    });
    group.bench("chain_of_6_intents", |b| {
        // The cost of one proposed-protocol chain: db/seg/rel/obj/holu/elem.
        // Uses the batched chain call exactly like the protocol engine does;
        // with the fast path on, the five intents are one summary-word
        // publication each under a single stripe critical section.
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        let ancestors: Vec<u64> = (0..5).collect();
        b.iter(|| {
            lm.acquire_intent_chain(txn, black_box(&ancestors), LockMode::IX, LockRequestOptions::default())
                .unwrap();
            lm.acquire(txn, 5, LockMode::X, LockRequestOptions::default()).unwrap();
            lm.release_all(txn);
        });
    });
    group.finish();
}

/// The optimistic-vs-pessimistic ablation: the same 5-intent ancestor chain
/// through the summary-word CAS (per-acquire and batched) and forced down
/// the shard-mutex path, plus the read-then-update chain pair whose IX links
/// are conversions of the IS ones.
fn bench_optimistic_ablation(h: &mut BenchHarness) {
    let mut group = h.group("optimistic");
    group.bench("chain_fastpath_gate", |b| {
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        b.iter(|| {
            for r in 0..5u64 {
                lm.acquire(txn, black_box(r), LockMode::IX, LockRequestOptions::default()).unwrap();
            }
            lm.release_all(txn);
        });
    });
    group.bench("chain_fastpath_batched", |b| {
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        let ancestors: Vec<u64> = (0..5).collect();
        b.iter(|| {
            lm.acquire_intent_chain(txn, black_box(&ancestors), LockMode::IX, LockRequestOptions::default())
                .unwrap();
            lm.release_all(txn);
        });
    });
    group.bench("chain_is_then_ix", |b| {
        // The mix's short write: read (IS chain + S leaf), then update (IX
        // chain + X leaf) of the same leaf — every IX link converts an IS.
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        let ancestors: Vec<u64> = (0..5).collect();
        b.iter(|| {
            for (intent, leaf) in [(LockMode::IS, LockMode::S), (LockMode::IX, LockMode::X)] {
                lm.acquire_intent_chain(txn, black_box(&ancestors), intent, LockRequestOptions::default())
                    .unwrap();
                lm.acquire(txn, 5, leaf, LockRequestOptions::default()).unwrap();
            }
            lm.release_all(txn);
        });
    });
    group.bench("chain_pessimistic", |b| {
        let lm: LockManager<u64> = LockManager::new();
        lm.set_fastpath(false);
        let txn = TxnId(1);
        let ancestors: Vec<u64> = (0..5).collect();
        b.iter(|| {
            lm.acquire_intent_chain(txn, black_box(&ancestors), LockMode::IX, LockRequestOptions::default())
                .unwrap();
            lm.release_all(txn);
        });
    });
    group.finish();
}

/// Costs of the semantic commutativity modes (Insert/Delete/Member): the
/// conflict rows equal IX/IX/IS, so none of these may cost more than the
/// classical intents they stand in for.
fn bench_semantic_modes(h: &mut BenchHarness) {
    let mut group = h.group("semantic");
    group.bench("insert_acquire_release", |b| {
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        b.iter(|| {
            lm.acquire(txn, black_box(42), LockMode::Insert, LockRequestOptions::default())
                .unwrap();
            lm.release(txn, &42);
        });
    });
    group.bench("commuting_inserters_of_8", |b| {
        // Eight concurrent inserters hold Insert on the hot container; a
        // ninth joins and leaves — the semantic analogue of
        // shared_group_of_8, except every holder is a *writer*.
        let lm: LockManager<u64> = LockManager::new();
        for i in 0..8 {
            lm.acquire(TxnId(i), 7, LockMode::Insert, LockRequestOptions::default()).unwrap();
        }
        let txn = TxnId(99);
        b.iter(|| {
            lm.acquire(txn, black_box(7), LockMode::Insert, LockRequestOptions::default())
                .unwrap();
            lm.release(txn, &7);
        });
    });
    group.bench("member_beside_inserters", |b| {
        // A membership probe joining a container full of active inserters:
        // Member's row is IS, Insert's is IX — compatible, no queueing.
        let lm: LockManager<u64> = LockManager::new();
        for i in 0..8 {
            lm.acquire(TxnId(i), 7, LockMode::Insert, LockRequestOptions::default()).unwrap();
        }
        let txn = TxnId(99);
        b.iter(|| {
            lm.acquire(txn, black_box(7), LockMode::Member, LockRequestOptions::default())
                .unwrap();
            lm.release(txn, &7);
        });
    });
    group.bench("semantic_element_insert_chain", |b| {
        // The full protocol shape of one element insert: 4 classical
        // intents (db/seg/rel/obj), Insert on the container, X on the
        // element — what `Transaction::insert_element` pays per call.
        let lm: LockManager<u64> = LockManager::new();
        let txn = TxnId(1);
        let ancestors: Vec<u64> = (0..4).collect();
        b.iter(|| {
            lm.acquire_intent_chain(txn, black_box(&ancestors), LockMode::IX, LockRequestOptions::default())
                .unwrap();
            lm.acquire(txn, 4, LockMode::Insert, LockRequestOptions::default()).unwrap();
            lm.acquire(txn, 5, LockMode::X, LockRequestOptions::default()).unwrap();
            lm.release_all(txn);
        });
    });
    group.finish();
}

fn main() {
    let mut h = BenchHarness::new();
    bench_acquire_release(&mut h);
    bench_optimistic_ablation(&mut h);
    bench_semantic_modes(&mut h);
}
