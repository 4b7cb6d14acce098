//! Concurrency testing: predicate waits with timeouts, a watchdogged
//! multi-thread runner and a barrier-stepped (lockstep) driver. Exhaustive
//! interleaving search lives in [`crate::explore`].
//!
//! The seed tests used `thread::sleep(30ms)` to "wait" for another thread
//! to reach a state — racy under load and slow everywhere. The primitives
//! here replace that pattern:
//!
//! * [`wait_until`] polls an observable predicate and fails loudly on
//!   timeout instead of silently racing,
//! * [`run_threads`] joins a thread group with a deadline, so a stuck
//!   waiter turns into a test failure (with the stuck thread ids) rather
//!   than a hung CI job,
//! * [`lockstep`] rendezvouses N threads at a barrier between rounds, so
//!   every round's operations are genuinely concurrent,
//! * [`soak_round`] runs one round of a soak test under [`run_threads`]'
//!   deadline and says what the round was stuck on; [`stress_rounds`] is
//!   the one round budget (`COLOCK_STRESS_ROUNDS`) of every soak test.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Polls `pred` (every millisecond) until it holds, panicking after
/// `timeout`. Returns the elapsed time on success.
pub fn wait_until(timeout: Duration, pred: impl Fn() -> bool) -> Duration {
    let start = Instant::now();
    loop {
        if pred() {
            return start.elapsed();
        }
        if start.elapsed() >= timeout {
            panic!("wait_until: predicate still false after {timeout:?}");
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// Runs `f(tid)` on `n` threads and joins them all within `timeout`.
///
/// Panics (listing the stuck thread ids) when the group does not finish in
/// time; re-raises the first worker panic otherwise. Results are returned
/// in thread-id order.
pub fn run_threads<T, F>(n: usize, timeout: Duration, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<usize>();
    let mut handles = Vec::with_capacity(n);
    for tid in 0..n {
        let f = Arc::clone(&f);
        let tx = tx.clone();
        let handle = thread::Builder::new()
            .name(format!("stress-{tid}"))
            .spawn(move || {
                let out = panic::catch_unwind(AssertUnwindSafe(|| f(tid)));
                // Signal completion (even on panic) so the watchdog can
                // attribute failures precisely.
                let _ = tx.send(tid);
                match out {
                    Ok(v) => v,
                    Err(payload) => panic::resume_unwind(payload),
                }
            })
            .expect("spawn stress thread");
        handles.push(handle);
    }
    drop(tx);

    let deadline = Instant::now() + timeout;
    let mut finished = vec![false; n];
    for _ in 0..n {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(remaining) {
            Ok(tid) => finished[tid] = true,
            Err(_) => {
                let stuck: Vec<usize> = finished
                    .iter()
                    .enumerate()
                    .filter(|(_, &done)| !done)
                    .map(|(tid, _)| tid)
                    .collect();
                panic!("run_threads: {stuck:?} still running after {timeout:?}");
            }
        }
    }
    handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(v) => v,
            Err(payload) => panic::resume_unwind(payload),
        })
        .collect()
}

/// Barrier-stepped runner: `n` threads execute `rounds` rounds of
/// `f(tid, round)`, all rendezvousing at a barrier *before* each round.
///
/// Every round's calls are therefore genuinely concurrent — the pattern
/// the lock-table wait/deadlock tests need ("all four transactions request
/// their second lock at once"). Panics on timeout like [`run_threads`].
pub fn lockstep<F>(n: usize, rounds: usize, timeout: Duration, f: F)
where
    F: Fn(usize, usize) + Send + Sync + 'static,
{
    let barrier = Arc::new(Barrier::new(n));
    run_threads(n, timeout, move |tid| {
        for round in 0..rounds {
            barrier.wait();
            f(tid, round);
        }
    });
}

/// Rounds a soak test runs: `COLOCK_STRESS_ROUNDS` if set (the gate runs
/// each soak test in release with a larger budget), `default` otherwise.
pub fn stress_rounds(default: u64) -> u64 {
    std::env::var("COLOCK_STRESS_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Runs one soak round `f` on a thread of its own under [`run_threads`]'
/// deadline. A round still running after `timeout` fails with `label` and
/// `dump()` (say, the lock table) in the panic message; a panic inside the
/// round is re-raised as is.
pub fn soak_round<T, F>(label: &str, timeout: Duration, dump: impl FnOnce() -> String, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let f = Mutex::new(Some(f));
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        run_threads(1, timeout, move |_| {
            let f = f.lock().unwrap_or_else(PoisonError::into_inner).take();
            f.expect("a soak round runs once")()
        })
    }));
    match run {
        Ok(mut out) => out.pop().expect("one thread, one result"),
        Err(payload) => {
            let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
            if msg.starts_with("run_threads:") {
                panic!("{label}: stalled ({msg})\n{}", dump());
            }
            panic::resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn wait_until_observes_progress() {
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flag);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            f2.store(1, Ordering::SeqCst);
        });
        wait_until(Duration::from_secs(2), || flag.load(Ordering::SeqCst) == 1);
        h.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "wait_until")]
    fn wait_until_times_out() {
        wait_until(Duration::from_millis(10), || false);
    }

    #[test]
    fn run_threads_returns_in_tid_order() {
        let out = run_threads(8, Duration::from_secs(5), |tid| tid * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    #[should_panic(expected = "still running")]
    fn run_threads_watchdog_fires() {
        run_threads(2, Duration::from_millis(20), |tid| {
            if tid == 1 {
                thread::sleep(Duration::from_secs(1));
            }
        });
    }

    #[test]
    fn run_threads_propagates_worker_panic() {
        let err = std::panic::catch_unwind(|| {
            run_threads(2, Duration::from_secs(5), |tid| {
                if tid == 0 {
                    panic!("worker zero failed");
                }
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "worker zero failed");
    }

    #[test]
    fn soak_round_returns_or_reports_the_stall_with_its_dump() {
        assert_eq!(soak_round("quick", Duration::from_secs(5), String::new, || 7), 7);
        let err = panic::catch_unwind(|| {
            soak_round("round 3", Duration::from_millis(20), || "table: T1 waits".into(), || {
                thread::sleep(Duration::from_secs(1))
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("round 3: stalled") && msg.ends_with("table: T1 waits"), "{msg}");
    }

    #[test]
    fn lockstep_rounds_are_aligned() {
        // Every thread observes that no thread is a full round ahead when
        // it leaves the barrier.
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        let c = Arc::clone(&counters);
        lockstep(4, 10, Duration::from_secs(10), move |tid, round| {
            c[tid].store(round + 1, Ordering::SeqCst);
            for other in c.iter() {
                let r = other.load(Ordering::SeqCst);
                assert!(r >= round && r <= round + 1, "round skew: {r} vs {round}");
            }
        });
    }
}
