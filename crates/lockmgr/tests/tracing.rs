//! Integration test for the observability layer: a forced two-transaction
//! deadlock must leave exactly one `DeadlockDetected` + `VictimChosen` pair
//! in the trace and export a waits-for DOT graph naming both transactions.

use colock_lockmgr::{LockError, LockManager, LockMode, LockRequestOptions, TxnId};
use colock_testkit::wait_until;
use colock_trace::{EventKind, TraceBuffer};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

#[test]
fn forced_deadlock_traces_one_detection_and_valid_dot() {
    let m = Arc::new(LockManager::<&'static str>::new());
    let trace = Arc::new(TraceBuffer::with_capacity(1 << 10));
    trace.enable();
    m.attach_trace(Arc::clone(&trace));
    let x = LockMode::X;
    m.acquire(TxnId(1), "a", x, LockRequestOptions::default()).unwrap();
    m.acquire(TxnId(2), "b", x, LockRequestOptions::default()).unwrap();

    // T1 waits for b, then T2's request for a closes the cycle {T1, T2};
    // the detector must kill the youngest (T2, the requester here).
    let m1 = Arc::clone(&m);
    let h1 = thread::spawn(move || m1.acquire(TxnId(1), "b", x, LockRequestOptions::default()));
    wait_until(WAIT, || m.waiter_count(&"b") == 1);
    let err = m.acquire(TxnId(2), "a", x, LockRequestOptions::default()).unwrap_err();
    let LockError::Deadlock { victim, .. } = err else {
        panic!("expected deadlock, got {err:?}");
    };
    assert_eq!(victim, TxnId(2));
    m.release_all(TxnId(2));
    h1.join().unwrap().unwrap();
    m.release_all(TxnId(1));

    let events = trace.events_since(0).unwrap();
    let detections: Vec<_> =
        events.iter().filter(|e| e.kind == EventKind::DeadlockDetected).collect();
    let victims: Vec<_> = events.iter().filter(|e| e.kind == EventKind::VictimChosen).collect();
    assert_eq!(detections.len(), 1, "exactly one detection: {events:#?}");
    assert_eq!(victims.len(), 1, "exactly one victim: {events:#?}");
    assert!(detections[0].detail.contains("T1") && detections[0].detail.contains("T2"));
    assert_eq!(victims[0].txn, 2);
    assert_eq!(victims[0].resource, "\"a\"");

    // The waiting, wakeup and grant-after-wait events of T1 are all there.
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::Wait && e.txn == 1 && e.resource == "\"b\""));
    assert!(events.iter().any(|e| e.kind == EventKind::Wakeup && e.txn == 1));
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::Grant && e.txn == 1 && e.detail == "after-wait"));

    // The exported DOT names both transactions and marks the victim.
    let dots = trace.deadlock_dots();
    assert_eq!(dots.len(), 1, "one cycle → one DOT export");
    let dot = &dots[0];
    assert!(dot.starts_with("digraph waits_for {"), "{dot}");
    assert!(dot.contains("\"T1\"") && dot.contains("\"T2\""), "{dot}");
    assert!(dot.contains("(victim)"), "{dot}");
    assert!(dot.trim_end().ends_with('}'), "{dot}");
}
