//! The closed loop every workload runs: one thread per client, each sending
//! its next transaction only after the previous one committed.
//!
//! A retryable failure (deadlock victim, lock timeout, admission `BUSY`)
//! aborts, backs off exactly as `loadgen` does (seeded 1–8 ms jitter, server
//! hint honoured) and retries the same transaction; latency runs from the
//! first attempt's start to the commit acknowledgement. Any other error
//! fails the run.

use crate::gen::Class;
use colock_testkit::Backoff;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Floor applied to a server backoff hint (mirrors
/// `colock_server::session::BACKOFF_FLOOR_MS` without linking the server
/// into the in-process workloads).
const BACKOFF_FLOOR_MS: u64 = 5;

/// Why an attempt did not commit.
#[derive(Debug)]
pub struct Failure {
    /// Contention or admission refusal: abort, back off, retry.
    pub retryable: bool,
    /// The refusal was admission control's `BUSY`.
    pub busy: bool,
    /// Server backoff hint, if one came with the refusal.
    pub hint_ms: Option<u64>,
    /// The error text (reported when not retryable).
    pub message: String,
}

/// The calls the benchmark records spans around. One enum for all workloads;
/// the layer a span belongs to is the workload's driver boundary (`Client`
/// verbs, `Transaction` calls, `colock_query` stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `BEGIN` / `begin` / `begin_readonly`.
    Begin,
    /// `GET` / `read` / `snapshot_read`.
    Read,
    /// `PUT` / `update`.
    Update,
    /// `CHECKOUT` / `checkout`.
    Checkout,
    /// `CHECKIN` / `checkin`.
    Checkin,
    /// `COMMIT` / `commit`.
    Commit,
    /// `ABORT` / `abort` after a failed attempt.
    Abort,
    /// `colock_query::parse`.
    Parse,
    /// `colock_query::analyze::analyze`.
    Analyze,
    /// `colock_query::plan_locks`.
    Plan,
    /// `colock_query::execute`.
    Exec,
    /// The fixed think time of a long check-out (not a layer).
    Think,
}

impl Call {
    /// Number of variants (array sizing).
    pub const COUNT: usize = 12;

    /// All variants, indexable by `call as usize`.
    pub const ALL: [Call; Call::COUNT] = [
        Call::Begin,
        Call::Read,
        Call::Update,
        Call::Checkout,
        Call::Checkin,
        Call::Commit,
        Call::Abort,
        Call::Parse,
        Call::Analyze,
        Call::Plan,
        Call::Exec,
        Call::Think,
    ];

    /// Lower-case name for span files.
    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "begin",
            Call::Read => "read",
            Call::Update => "update",
            Call::Checkout => "checkout",
            Call::Checkin => "checkin",
            Call::Commit => "commit",
            Call::Abort => "abort",
            Call::Parse => "parse",
            Call::Analyze => "analyze",
            Call::Plan => "plan",
            Call::Exec => "exec",
            Call::Think => "think",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    /// Index into [`Tracer::txns`] of the transaction span that caused it.
    pub parent: u32,
    /// Which call.
    pub call: Call,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// End, ns since the run epoch.
    pub end_ns: u64,
}

/// One recorded transaction (first attempt's start to commit).
#[derive(Debug, Clone, Copy)]
pub struct TxnSpan {
    /// Manager-assigned transaction id of the committing attempt — the
    /// identifier all spans of one transaction share.
    pub txn_id: u64,
    /// Latency class.
    pub class: Class,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// End, ns since the run epoch.
    pub end_ns: u64,
    /// Attempts it took (1 = no retry).
    pub attempts: u32,
}

/// Per-client span recorder. Off, [`Tracer::time`] is a branch and a call;
/// on, it adds two clock reads and a `Vec` push.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    current_id: u64,
    /// Transaction spans, in commit order.
    pub txns: Vec<TxnSpan>,
    /// Call spans.
    pub calls: Vec<CallSpan>,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            on: false,
            current_id: 0,
            txns: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// A recorder that is on from the start, for replaying a stream by hand
    /// (the solo replay the probes take turns with).
    pub(crate) fn recording() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::new(Instant::now())
        }
    }

    /// Runs one solo attempt of `runner` at stream position `pos` as a
    /// whole transaction span. A solo client has nobody to conflict with,
    /// so a failure of any kind is an error.
    pub(crate) fn solo_txn(&mut self, runner: &mut dyn Runner, pos: usize) -> Result<(), String> {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        runner
            .attempt(pos, self)
            .map_err(|f| format!("solo replay at {pos}: {}", f.message))?;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (txn_id, class) = (self.current_id, runner.class(pos));
        self.txns.push(TxnSpan {
            txn_id,
            class,
            start_ns,
            end_ns,
            attempts: 1,
        });
        Ok(())
    }

    /// Whether spans are being recorded for the current transaction.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording a span around it when spans are on.
    #[inline]
    pub fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.calls.push(CallSpan {
            parent: self.txns.len() as u32,
            call,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records the id the manager gave the current attempt.
    #[inline]
    pub fn txn_id(&mut self, id: u64) {
        if self.on {
            self.current_id = id;
        }
    }
}

/// One client's transaction stream executor.
pub trait Runner: Send {
    /// Latency class of stream position `pos`.
    fn class(&self, pos: usize) -> Class;
    /// Runs stream position `pos` once, begin to commit. On failure the
    /// attempt has already been aborted when this returns.
    fn attempt(&mut self, pos: usize, tracer: &mut Tracer) -> Result<(), Failure>;
}

/// One committed transaction's latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Commit acknowledgement, ns since the run epoch.
    pub end_ns: u64,
    /// First attempt's start to commit acknowledgement, ns.
    pub lat_ns: u64,
    /// Latency class.
    pub class: Class,
}

/// What one client recorded.
pub struct ClientLog {
    /// Samples of transactions that committed after the warm-up.
    pub samples: Vec<Sample>,
    /// Spans (empty unless the run had a traced window).
    pub tracer: Tracer,
    /// End time (ns since the run epoch) of every attempt that did not
    /// commit; the committed ones are in `samples`.
    pub failed_attempts: Vec<u64>,
    /// `BUSY` refusals among the failed attempts.
    pub busy_refusals: u64,
    /// Transactions committed in all phases, warm-up included.
    pub committed_total: u64,
}

/// How long the clients run and when spans are on.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Time-bounded: discard `warmup`, then measure for `plain` with spans
    /// off and for `traced` with spans on, back to back.
    Timed {
        /// Discarded lead-in.
        warmup: Duration,
        /// Measured with spans off (the whole window of a plain run).
        plain: Duration,
        /// Measured with spans on (zero in a plain run).
        traced: Duration,
    },
    /// Count-bounded: the client commits exactly `txns` transactions from
    /// the start of its stream, all measured, spans off.
    Count {
        /// Transactions per client.
        txns: u64,
    },
}

impl Plan {
    /// Run-epoch offsets (ns) at which the counters are read: the end of
    /// the warm-up, the end of the plain part and (if there is one) the end
    /// of the traced part; empty for a counted plan.
    pub fn marks_ns(&self) -> Vec<u64> {
        match self {
            Plan::Timed {
                warmup,
                plain,
                traced,
            } => {
                let mut marks = vec![*warmup, *warmup + *plain];
                if !traced.is_zero() {
                    marks.push(*warmup + *plain + *traced);
                }
                marks.iter().map(|d| d.as_nanos() as u64).collect()
            }
            Plan::Count { .. } => Vec::new(),
        }
    }

    /// Whether a transaction starting at `start_ns` records spans.
    fn spans_on(&self, start_ns: u64) -> bool {
        match self {
            Plan::Timed {
                warmup,
                plain,
                traced,
            } => !traced.is_zero() && start_ns >= (*warmup + *plain).as_nanos() as u64,
            Plan::Count { .. } => false,
        }
    }
}

fn client_loop(
    runner: &mut dyn Runner,
    plan: Plan,
    epoch: Instant,
    backoff_seed: u64,
    stop: &AtomicBool,
) -> Result<ClientLog, String> {
    let mut log = ClientLog {
        samples: Vec::with_capacity(1 << 20),
        tracer: Tracer::new(epoch),
        failed_attempts: Vec::new(),
        busy_refusals: 0,
        committed_total: 0,
    };
    let (warmup_ns, end_ns, max_txns) = match plan {
        Plan::Timed {
            warmup,
            plain,
            traced,
        } => (
            warmup.as_nanos() as u64,
            (warmup + plain + traced).as_nanos() as u64,
            u64::MAX,
        ),
        Plan::Count { txns } => (0, u64::MAX, txns),
    };
    let mut backoff = Backoff::new(backoff_seed, 1, 8);
    let mut now_ns = epoch.elapsed().as_nanos() as u64;
    let mut pos = 0;
    while now_ns < end_ns && log.committed_total < max_txns && !stop.load(Ordering::Relaxed) {
        let start_ns = now_ns;
        log.tracer.on = plan.spans_on(start_ns);
        let class = runner.class(pos);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match runner.attempt(pos, &mut log.tracer) {
                Ok(()) => break,
                Err(f) if f.retryable => {
                    log.failed_attempts.push(epoch.elapsed().as_nanos() as u64);
                    log.busy_refusals += u64::from(f.busy);
                    let hinted = f.hint_ms.map_or(0, |ms| ms.max(BACKOFF_FLOOR_MS));
                    let ms = hinted + backoff.next_delay();
                    if ms > 0 {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    if stop.load(Ordering::Relaxed) {
                        return Ok(log);
                    }
                }
                Err(f) => {
                    stop.store(true, Ordering::Relaxed);
                    return Err(format!(
                        "non-retryable error at stream position {pos}: {}",
                        f.message
                    ));
                }
            }
        }
        backoff.reset();
        now_ns = epoch.elapsed().as_nanos() as u64;
        log.committed_total += 1;
        if now_ns >= warmup_ns {
            log.samples.push(Sample {
                end_ns: now_ns,
                lat_ns: now_ns - start_ns,
                class,
            });
        }
        if log.tracer.on {
            let txn_id = log.tracer.current_id;
            log.tracer.txns.push(TxnSpan {
                txn_id,
                class,
                start_ns,
                end_ns: now_ns,
                attempts,
            });
        }
        pos += 1;
    }
    Ok(log)
}

/// What [`run_clients`] hands back: every runner with its log, and the
/// observations with the run-epoch time (ns) each was taken at.
pub type Finished<R, M> = (Vec<(R, ClientLog)>, Vec<(u64, M)>);

/// Runs one runner per client thread under `plan`. `observe()` is called on
/// the calling thread at every mark of the plan ([`Plan::marks_ns`]) while the clients run; its results come back in
/// order.
///
/// Returns the runners (for the correctness gate), their logs and the
/// observations, or the first non-retryable error.
pub fn run_clients<R: Runner, M>(
    runners: Vec<R>,
    plan: Plan,
    seed: u64,
    mut observe: impl FnMut() -> M,
) -> Result<Finished<R, M>, String> {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(runners.len() + 1);
    let epoch_cell = std::sync::OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = runners
            .into_iter()
            .enumerate()
            .map(|(i, mut runner)| {
                let (stop, barrier, epoch_cell) = (&stop, &barrier, &epoch_cell);
                scope.spawn(move || {
                    barrier.wait();
                    let epoch = *epoch_cell
                        .get()
                        .expect("epoch is set before the barrier opens");
                    let log = client_loop(&mut runner, plan, epoch, seed ^ i as u64, stop);
                    log.map(|log| (runner, log))
                })
            })
            .collect();
        let epoch = Instant::now();
        epoch_cell.set(epoch).expect("set once");
        barrier.wait();
        let marks_ns = plan.marks_ns();
        let mut marks = Vec::with_capacity(marks_ns.len());
        for at in marks_ns {
            let due = epoch + Duration::from_nanos(at);
            // A failed client stops the others; do not sit out the window.
            while Instant::now() < due && !stop.load(Ordering::Relaxed) {
                let left = due.saturating_duration_since(Instant::now());
                std::thread::sleep(left.min(Duration::from_millis(50)));
            }
            marks.push((epoch.elapsed().as_nanos() as u64, observe()));
        }
        let mut out = Vec::new();
        let mut first_err = None;
        for h in handles {
            match h.join().expect("client thread panicked") {
                Ok(pair) => out.push(pair),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok((out, marks)),
            Some(e) => Err(e),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_on_in_the_traced_part_only() {
        let ms = Duration::from_millis;
        let plain = Plan::Timed {
            warmup: ms(10),
            plain: ms(100),
            traced: Duration::ZERO,
        };
        assert_eq!(plain.marks_ns(), [10_000_000, 110_000_000]);
        assert!(!plain.spans_on(50_000_000) && !plain.spans_on(110_000_000));
        let traced = Plan::Timed {
            warmup: ms(10),
            plain: ms(40),
            traced: ms(40),
        };
        assert_eq!(traced.marks_ns(), [10_000_000, 50_000_000, 90_000_000]);
        assert!(!traced.spans_on(49_999_999) && traced.spans_on(50_000_000));
        let counted = Plan::Count { txns: 5 };
        assert!(counted.marks_ns().is_empty() && !counted.spans_on(0));
    }
}
