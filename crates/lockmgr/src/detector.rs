//! Snapshot deadlock detection over the cross-shard waits-for graph.
//!
//! Every waits-for edge is created by an enqueue, so detection triggered at
//! enqueue time is complete: after publishing its wait entry (and dropping
//! its shard lock) the enqueuing thread runs the detector, which locks all
//! shards in canonical order, builds a consistent snapshot of the waits-for
//! graph from the blocking relation (`queue.rs` — the same function that
//! decides grants), and repeatedly extracts cycles. For each cycle the
//! youngest markable member is stamped as victim and woken through its
//! resource's condvar. There is no polling loop and no background thread.

use crate::stats::LockStats;
use crate::table::{LockManager, Resource, ShardGuard};
use crate::txnid::TxnId;
use colock_testkit::explore;
use colock_trace::{self as trace, Event, EventKind};
use std::collections::HashMap;

impl<R: Resource> LockManager<R> {
    /// Snapshot deadlock detector.
    ///
    /// Locks every shard in ascending index order (the canonical order — the
    /// only code path that holds more than one shard), builds the waits-for
    /// graph from the queues, and resolves cycles to fixpoint: each detected
    /// cycle has its youngest markable member stamped as victim and woken
    /// through its own resource's condvar. Only live waiters have edges, so
    /// a marked victim immediately breaks its cycle and concurrent enqueuers
    /// re-detecting the same ring find nothing — exactly one victim per
    /// cycle.
    pub(crate) fn run_detector(&self) {
        LockStats::bump(&self.stats.detector_runs);
        let mut guards: Vec<ShardGuard<'_, R>> =
            (0..self.shards.len()).map(|i| self.shard_locked(i)).collect();
        let traced = trace::is_enabled();
        loop {
            // Snapshot: waits-for edges plus each waiter's location. When
            // tracing is on, the same pass collects labelled edges for the
            // DOT export (untraced runs skip the string formatting).
            let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
            let mut locs: HashMap<TxnId, (usize, R)> = HashMap::new();
            let mut wf_edges: Vec<trace::WaitEdge> = Vec::new();
            for (si, shard) in guards.iter().enumerate() {
                for (r, state) in &shard.resources {
                    // Runnable or already condemned waiters have no outgoing
                    // edges (stale edges would fabricate cycles).
                    for (pos, w) in state.waiting.iter().enumerate().filter(|(_, w)| w.live()) {
                        let blockers: Vec<TxnId> =
                            state.blockers(w.txn, w.mode, w.conversion, pos, &mut 0).collect();
                        if traced {
                            wf_edges.extend(blockers.iter().map(|b| trace::WaitEdge {
                                waiter: w.txn.0,
                                holder: b.0,
                                resource: format!("{r:?}"),
                                mode: w.mode.to_string(),
                            }));
                        }
                        edges.insert(w.txn, blockers);
                        locs.insert(w.txn, (si, r.clone()));
                    }
                }
            }
            let Some(cycle) = find_cycle_snapshot(&edges) else {
                break;
            };
            LockStats::bump(&self.stats.deadlocks);
            let members_detail =
                cycle.iter().map(|t| format!("T{}", t.0)).collect::<Vec<_>>().join(", ");
            // Youngest member (max TxnId) dies; if its waiter is stale
            // (granted meanwhile), fall back to the next youngest so a real
            // cycle is never left standing.
            let mut members = cycle.clone();
            members.sort_unstable();
            let mut marked = false;
            for &victim in members.iter().rev() {
                let Some((vsi, vres)) = locs.get(&victim) else {
                    continue;
                };
                let Some(state) = guards[*vsi].resources.get_mut(vres) else {
                    continue;
                };
                let Some(w) = state.waiting.iter_mut().find(|w| w.txn == victim && w.live())
                else {
                    continue;
                };
                w.victim = Some(cycle.clone());
                // The detection event goes out only once a victim is
                // actually marked, so every DeadlockDetected is followed by
                // exactly one VictimChosen (stale cycles carry the `stale`
                // marker instead — see below).
                trace::emit(|| {
                    Event::new(EventKind::DeadlockDetected, 0)
                        .instance(self.trace_instance())
                        .detail(members_detail.clone())
                });
                let h = Self::hash_of(vres);
                self.trace_lock(EventKind::VictimChosen, victim, h, w.mode, vres, "");
                if traced {
                    let graph = trace::WaitsForGraph {
                        edges: std::mem::take(&mut wf_edges),
                        cycle: cycle.iter().map(|t| t.0).collect(),
                        victim: Some(victim.0),
                    };
                    trace::record_deadlock_dot(graph.to_dot());
                }
                // The victim is a blocked waiter, so it installed the
                // condvar before sleeping.
                explore::note_wakeup(victim.0);
                if let Some(cond) = &state.cond {
                    LockStats::bump(&self.stats.wakeups);
                    cond.notify_all();
                }
                marked = true;
                break;
            }
            if !marked {
                // Every member turned runnable between snapshot and marking;
                // nothing to do (and nothing left to loop on). The cycle is
                // still recorded, marked `stale` so trace consumers know no
                // victim was (or needed to be) chosen.
                trace::emit(|| {
                    Event::new(EventKind::DeadlockDetected, 0)
                        .instance(self.trace_instance())
                        .resource("stale")
                        .detail(members_detail.clone())
                });
                break;
            }
        }
    }
}

/// DFS over the snapshot waits-for graph. Tries every waiting txn (in sorted
/// order, for determinism) as the cycle anchor and returns the first cycle
/// found as a list of txns (first == last omitted).
fn find_cycle_snapshot(edges: &HashMap<TxnId, Vec<TxnId>>) -> Option<Vec<TxnId>> {
    fn dfs(
        edges: &HashMap<TxnId, Vec<TxnId>>,
        node: TxnId,
        start: TxnId,
        path: &mut Vec<TxnId>,
        visited: &mut HashMap<TxnId, bool>, // false = open, true = done
    ) -> Option<Vec<TxnId>> {
        path.push(node);
        visited.insert(node, false);
        if let Some(blockers) = edges.get(&node) {
            for &b in blockers {
                if b == start {
                    return Some(path.clone());
                }
                if visited.contains_key(&b) {
                    continue; // on path (cycle not via start) or exhausted
                }
                if let Some(c) = dfs(edges, b, start, path, visited) {
                    return Some(c);
                }
            }
        }
        visited.insert(node, true);
        path.pop();
        None
    }

    let mut starts: Vec<TxnId> = edges.keys().copied().collect();
    starts.sort_unstable();
    for &start in &starts {
        let mut path = Vec::new();
        let mut visited = HashMap::new();
        if let Some(c) = dfs(edges, start, start, &mut path, &mut visited) {
            return Some(c);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::error::LockError;
    use crate::mode::LockMode::*;
    use crate::table::tests::{t, Mgr, WAIT};
    use crate::table::LockRequestOptions;
    use colock_testkit::wait_until;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn deadlock_detected_youngest_aborts() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "b", X, LockRequestOptions::default()).unwrap();
        // t1 waits for b.
        let m1 = Arc::clone(&m);
        let h1 = thread::spawn(move || m1.acquire(t(1), "b", X, LockRequestOptions::default()));
        wait_until(WAIT, || m.waiter_count(&"b") == 1);
        // t2 requests a -> cycle {1,2}; victim = youngest = t2 (the requester).
        let err = m.acquire(t(2), "a", X, LockRequestOptions::default()).unwrap_err();
        match err {
            LockError::Deadlock { victim, .. } => assert_eq!(victim, t(2)),
            e => panic!("expected deadlock, got {e:?}"),
        }
        // After t2 aborts, t1 proceeds.
        m.release_all(t(2));
        assert!(h1.join().unwrap().is_ok());
        assert_eq!(m.stats().snapshot().deadlocks, 1);
    }

    #[test]
    fn deadlock_victim_can_be_the_waiting_txn() {
        // t2 (younger) waits first; then t1's request closes the cycle and
        // t2 must be chosen and woken as victim.
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "b", X, LockRequestOptions::default()).unwrap();
        let m2 = Arc::clone(&m);
        let h2 = thread::spawn(move || m2.acquire(t(2), "a", X, LockRequestOptions::default()));
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        let m1 = Arc::clone(&m);
        let h1 = thread::spawn(move || m1.acquire(t(1), "b", X, LockRequestOptions::default()));
        let r2 = h2.join().unwrap();
        match r2 {
            Err(LockError::Deadlock { victim, .. }) => assert_eq!(victim, t(2)),
            other => panic!("expected t2 victim, got {other:?}"),
        }
        m.release_all(t(2));
        assert!(h1.join().unwrap().is_ok());
    }

    #[test]
    fn upgrade_deadlock_between_two_readers() {
        let m = Arc::new(Mgr::new());
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "a", S, LockRequestOptions::default()).unwrap();
        let m1 = Arc::clone(&m);
        let h1 = thread::spawn(move || m1.acquire(t(1), "a", X, LockRequestOptions::default()));
        wait_until(WAIT, || m.waiter_count(&"a") == 1);
        let r2 = m.acquire(t(2), "a", X, LockRequestOptions::default());
        // One of the two must die (the younger: t2).
        match r2 {
            Err(LockError::Deadlock { victim, .. }) => assert_eq!(victim, t(2)),
            other => panic!("expected deadlock, got {other:?}"),
        }
        m.release_all(t(2));
        assert!(h1.join().unwrap().is_ok());
    }
}
