//! Deterministic interleaving explorer: a cooperative scheduler plus a
//! DPOR-style schedule enumerator for small multi-threaded scenarios.
//!
//! # What this is
//!
//! Stress harnesses shake the lock manager with wall-clock races; this
//! module instead *enumerates* thread interleavings of a 2–4-transaction
//! scenario, one schedule per run, so every explored ordering can be
//! replayed and checked (e.g. replaying the trace of each run through the
//! serializability certifier). The scheduler serializes the scenario's
//! threads at **operation granularity**: an instrumented code path (the
//! lock table) calls [`yield_point`] at the top of each externally-visible
//! operation, and the scheduler decides which parked thread runs next.
//!
//! # Hook contract (instrumented code calls these)
//!
//! * [`yield_point`] — "I am about to start an operation". Parks the
//!   calling thread until the scheduler picks it. The label closure
//!   describes the operation and the resources it touches (see *Conflict
//!   labels* below); it is only invoked for threads that are part of an
//!   active exploration, so the disabled cost is one relaxed atomic load
//!   and a branch — the same discipline as `colock_trace::emit`.
//! * [`before_block`] — "transaction `txn` on this thread is about to park
//!   on a condition variable". Non-blocking: the scheduler stops waiting
//!   for this thread and picks another runnable one.
//! * [`after_block`] — "this thread woke from its condition variable and is
//!   re-evaluating". Non-blocking; marks the thread busy so the scheduler
//!   waits for it to reach a stable state before the next decision.
//! * [`note_wakeup`] — "the operation I am running just made transaction
//!   `txn` runnable" (a grant installed for a parked waiter, or a deadlock
//!   victim marked). Non-blocking; tells the scheduler the blocked thread
//!   owning `txn` is in flight again.
//!
//! `before_block`/`after_block`/`note_wakeup` may be called while the
//! instrumented code holds its own internal mutexes: they only update
//! scheduler state and never park, so the lock order is always
//! *engine lock → scheduler lock* and cannot deadlock. [`yield_point`]
//! parks, so it must only be placed where the caller holds no engine lock
//! (operation entry points).
//!
//! # Quiescence
//!
//! The scheduler takes the next decision only when every participant is in
//! a **stable** state: parked at a yield point, parked on an engine condvar
//! (announced via `before_block`), or finished. A thread woken by
//! `note_wakeup` is *in flight* until it either reaches its next yield
//! point or re-announces `before_block`; the scheduler waits it out. This
//! makes a schedule a pure function of the decision sequence: with the same
//! forced prefix the same enabled sets reappear, which the explorer
//! verifies on every replay (divergences are counted and surface in the
//! report — a correct integration keeps them at zero).
//!
//! # Exploration (persistent sets, depth bound)
//!
//! The explorer does a depth-first search over decision prefixes,
//! re-executing the scenario from scratch for each schedule (stateless
//! model checking). Pruning is DPOR-flavoured: after each run it scans the
//! executed steps, and for each step `s` finds the *most recent* earlier
//! step of a different thread whose label conflicts with `s`; the thread of
//! `s` is added to the **backtrack set** of the decision point before that
//! earlier step (all enabled threads, if the thread of `s` was not enabled
//! there). Only decision points whose backtrack sets still hold untried
//! choices are revisited. Two steps conflict when their resource token sets
//! intersect (`*` is a wildcard that conflicts with everything). The
//! analysis is conservative — no vector clocks, so it may schedule
//! equivalent interleavings more than once — but it never *skips* a
//! reachable operation ordering within the depth bound: a choice is only
//! pruned when no conflicting pair justifies it, and commuting steps by
//! definition reach the same state in either order.
//!
//! Decisions beyond the depth bound (`COLOCK_EXPLORE_DEPTH`) are taken
//! with the default policy (lowest participant index) and grow no
//! backtrack points, bounding the search tree.
//!
//! # Liveness
//!
//! If no participant is runnable, none is in flight, and not all are done,
//! the scenario is **stuck**: some thread parked on a condvar that nothing
//! will ever signal (a lost wakeup — exactly the bug class the explorer
//! exists to catch) or a deadlock the detector failed to resolve. The run
//! is recorded as stuck, the scenario's [`Explorable::rescue`] hook is
//! invoked to unpark the engine's waiters (e.g. `begin_drain`), and the
//! scheduler switches to free-running so the process can finish instead of
//! hanging. A wall-clock guard does the same if a run makes no progress
//! for `COLOCK_EXPLORE_HANG_MS` milliseconds.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Number of active explorations in the process (hook fast-gate).
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Whether any exploration is active in this process. One relaxed load —
/// instrumented code may use it to skip label construction entirely.
#[inline(always)]
pub fn exploring() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

thread_local! {
    /// The scheduler this thread participates in, and its slot index.
    static SLOT: RefCell<Option<(Arc<Sched>, usize)>> = const { RefCell::new(None) };
}

fn my_slot() -> Option<(Arc<Sched>, usize)> {
    SLOT.with(|s| s.borrow().clone())
}

/// Instrumentation: the calling thread is about to start an operation.
/// Parks until the scheduler picks this thread. `label` describes the
/// operation as `"op|resource|resource|..."`; resource tokens drive the
/// conflict relation (`*` conflicts with everything, an empty list with
/// nothing). No-op for threads outside an active exploration.
#[inline(always)]
pub fn yield_point(label: impl FnOnce() -> String) {
    if exploring() {
        yield_point_slow(label());
    }
}

/// Out-of-line continuation of [`yield_point`]: keeps the thread-local
/// lookup and park machinery off instrumented hot paths (only the gate
/// load and a cold branch are inlined at each call site).
#[cold]
#[inline(never)]
fn yield_point_slow(label: String) {
    if let Some((sched, me)) = my_slot() {
        sched.park_at_yield(me, label);
    }
}

/// Instrumentation: transaction `txn` on the calling thread is about to
/// park on an engine condition variable. Non-blocking. Safe to call with
/// engine locks held.
#[inline]
pub fn before_block(txn: u64) {
    if !exploring() {
        return;
    }
    if let Some((sched, me)) = my_slot() {
        sched.on_before_block(me, txn);
    }
}

/// Instrumentation: the calling thread woke from its engine condition
/// variable and is re-evaluating. Non-blocking. Safe with engine locks
/// held.
#[inline]
pub fn after_block(txn: u64) {
    if !exploring() {
        return;
    }
    if let Some((sched, me)) = my_slot() {
        sched.on_after_block(me, txn);
    }
}

/// Instrumentation: the calling thread's operation just made transaction
/// `txn` runnable (installed a grant for a parked waiter, marked a
/// deadlock victim). Non-blocking. Safe with engine locks held.
#[inline]
pub fn note_wakeup(txn: u64) {
    if !exploring() {
        return;
    }
    if let Some((sched, _)) = my_slot() {
        sched.on_note_wakeup(txn);
    }
}

/// A scenario the explorer can re-run once per schedule.
pub trait Explorable {
    /// Builds fresh state for one run (new lock table, trace mark, ...).
    fn reset(&mut self);
    /// The per-thread bodies for this run, one per participant. Vector
    /// order is the participant index order (also the scheduler's
    /// tie-break order). Called once per run, after [`Explorable::reset`].
    fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>>;
    /// Verifies the run after every thread finished (e.g. replay the trace
    /// through the certifier). An `Err` is recorded and stops exploration.
    fn check(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Called when a run is stuck (see module docs): unpark the engine's
    /// waiters so the process can finish (e.g. `begin_drain`).
    fn rescue(&self) {}
}

/// Exploration bounds. [`ExploreConfig::with_env`] reads
/// `COLOCK_EXPLORE_DEPTH`, `COLOCK_EXPLORE_MAX_SCHEDULES` and
/// `COLOCK_EXPLORE_HANG_MS`.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Decision points at index >= `depth` are default-scheduled and grow
    /// no backtrack points.
    pub depth: usize,
    /// Stop after this many schedules even if backtrack points remain.
    pub max_schedules: usize,
    /// Declare a run hung after this long without reaching quiescence.
    pub hang: Duration,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { depth: 48, max_schedules: 4096, hang: Duration::from_secs(10) }
    }
}

impl ExploreConfig {
    /// These bounds with `COLOCK_EXPLORE_DEPTH`,
    /// `COLOCK_EXPLORE_MAX_SCHEDULES` and `COLOCK_EXPLORE_HANG_MS`
    /// overrides applied: a test keeps a small budget of its own, and a
    /// longer sweep raises it from the environment.
    pub fn with_env(self) -> Self {
        let mut cfg = self;
        if let Some(d) = env_usize("COLOCK_EXPLORE_DEPTH") {
            cfg.depth = d;
        }
        if let Some(m) = env_usize("COLOCK_EXPLORE_MAX_SCHEDULES") {
            cfg.max_schedules = m;
        }
        if let Some(ms) = env_usize("COLOCK_EXPLORE_HANG_MS") {
            cfg.hang = Duration::from_millis(ms as u64);
        }
        cfg
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// What the exploration did.
#[derive(Debug, Default)]
pub struct ExploreReport {
    /// Completed runs (one schedule each).
    pub runs: usize,
    /// Distinct decision sequences among them.
    pub distinct_schedules: usize,
    /// Deepest decision index reached in any run.
    pub max_depth: usize,
    /// Runs that hit a stuck state (lost wakeup / unresolved deadlock).
    pub stuck_runs: usize,
    /// Runs whose replayed prefix produced a different enabled set than
    /// the recording (a determinism bug in the scenario or integration).
    pub diverged_runs: usize,
    /// Runs the wall-clock hang guard had to abort.
    pub hung_runs: usize,
    /// Exploration ended because a bound was hit, not because the
    /// schedule space was exhausted.
    pub truncated: bool,
    /// First scenario check failure, if any (stops exploration).
    pub failure: Option<String>,
}

impl ExploreReport {
    /// No stuck, hung or diverged runs and no check failure.
    pub fn is_clean(&self) -> bool {
        self.stuck_runs == 0
            && self.hung_runs == 0
            && self.diverged_runs == 0
            && self.failure.is_none()
    }
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs, {} distinct schedules, max depth {}{}{}{}{}{}",
            self.runs,
            self.distinct_schedules,
            self.max_depth,
            if self.truncated { ", truncated" } else { ", exhaustive" },
            if self.stuck_runs > 0 { " [STUCK RUNS]" } else { "" },
            if self.hung_runs > 0 { " [HUNG RUNS]" } else { "" },
            if self.diverged_runs > 0 { " [DIVERGED]" } else { "" },
            if self.failure.is_some() { " [CHECK FAILED]" } else { "" },
        )
    }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum PState {
    /// Executing (chosen, or in flight after a wakeup).
    Busy,
    /// Parked at a yield point, ready to be chosen.
    AtYield(String),
    /// Parked on an engine condvar; not runnable until `note_wakeup`.
    Blocked,
    /// Thread body finished.
    Done,
}

#[derive(Debug, Clone)]
struct RunDecision {
    enabled: Vec<usize>,
    chosen: usize,
    label: String,
}

#[derive(Debug, Default)]
struct SchedInner {
    state: Vec<PState>,
    /// The participant the scheduler has dispatched, until it stabilizes.
    running: Option<usize>,
    /// Blocked transaction id -> participant, for `note_wakeup`.
    txn_owner: HashMap<u64, usize>,
    /// Forced choice prefix for this run (participant indices).
    forced: Vec<usize>,
    decisions: Vec<RunDecision>,
    /// Replay of the forced prefix saw a different enabled set.
    diverged: bool,
    /// All non-done participants blocked with nothing in flight.
    stuck: bool,
    /// Threads run without scheduling (after stuck/hang, to finish).
    free_run: bool,
}

struct Sched {
    m: Mutex<SchedInner>,
    /// Scheduler waits here for quiescence.
    cv_sched: Condvar,
    /// Workers wait here to be chosen.
    cv_work: Condvar,
}

impl Sched {
    fn new(participants: usize, forced: Vec<usize>) -> Self {
        Sched {
            m: Mutex::new(SchedInner {
                state: vec![PState::Busy; participants],
                forced,
                ..Default::default()
            }),
            cv_sched: Condvar::new(),
            cv_work: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedInner> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn park_at_yield(&self, me: usize, label: String) {
        let mut inner = self.lock();
        if inner.free_run {
            return;
        }
        inner.state[me] = PState::AtYield(label);
        if inner.running == Some(me) {
            inner.running = None;
        }
        self.cv_sched.notify_all();
        while inner.running != Some(me) && !inner.free_run {
            inner = self.cv_work.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        inner.state[me] = PState::Busy;
    }

    fn on_before_block(&self, me: usize, txn: u64) {
        let mut inner = self.lock();
        inner.state[me] = PState::Blocked;
        inner.txn_owner.insert(txn, me);
        if inner.running == Some(me) {
            inner.running = None;
        }
        self.cv_sched.notify_all();
    }

    fn on_after_block(&self, me: usize, txn: u64) {
        let mut inner = self.lock();
        inner.state[me] = PState::Busy;
        inner.txn_owner.remove(&txn);
        self.cv_sched.notify_all();
    }

    fn on_note_wakeup(&self, txn: u64) {
        let mut inner = self.lock();
        if let Some(&p) = inner.txn_owner.get(&txn) {
            if inner.state[p] == PState::Blocked {
                inner.state[p] = PState::Busy;
            }
        }
        self.cv_sched.notify_all();
    }

    fn on_done(&self, me: usize) {
        let mut inner = self.lock();
        inner.state[me] = PState::Done;
        if inner.running == Some(me) {
            inner.running = None;
        }
        self.cv_sched.notify_all();
    }

    /// Drives one run to completion on the calling thread. Returns once
    /// every participant is done.
    fn drive(&self, depth: usize, hang: Duration, rescue: &dyn Fn()) -> RunRecord {
        let mut hung = false;
        let mut inner = self.lock();
        loop {
            // Quiescence: nothing dispatched, nothing in flight.
            let deadline = Instant::now() + hang;
            loop {
                let busy = inner.running.is_some() || inner.state.contains(&PState::Busy);
                if !busy || inner.free_run {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    // No stable state in `hang`: a participant is stuck
                    // outside the scheduler's model. Free-run and rescue.
                    hung = true;
                    inner.free_run = true;
                    self.cv_work.notify_all();
                    drop(inner);
                    rescue();
                    inner = self.lock();
                    break;
                }
                let (g, _) = self
                    .cv_sched
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                inner = g;
            }
            if inner.state.iter().all(|s| *s == PState::Done) {
                break;
            }
            if inner.free_run {
                // Stuck/hung: just wait for the threads to finish.
                let (g, _) = self
                    .cv_sched
                    .wait_timeout(inner, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                inner = g;
                continue;
            }
            let enabled: Vec<usize> = inner
                .state
                .iter()
                .enumerate()
                .filter_map(|(i, s)| matches!(s, PState::AtYield(_)).then_some(i))
                .collect();
            if enabled.is_empty() {
                // Everybody left is parked on an engine condvar and no
                // wakeup is in flight: a lost wakeup or unresolved
                // deadlock. Record, rescue, free-run to completion.
                inner.stuck = true;
                inner.free_run = true;
                self.cv_work.notify_all();
                drop(inner);
                rescue();
                inner = self.lock();
                continue;
            }
            let di = inner.decisions.len();
            let chosen = match inner.forced.get(di) {
                Some(&want) if enabled.contains(&want) => want,
                Some(_) => {
                    // Same prefix must reproduce the same enabled set; a
                    // miss means the integration is nondeterministic.
                    inner.diverged = true;
                    enabled[0]
                }
                None => {
                    let _ = depth; // decisions beyond `depth` still use the
                                   // default policy; the explorer just adds
                                   // no backtrack points for them.
                    enabled[0]
                }
            };
            let label = match &inner.state[chosen] {
                PState::AtYield(l) => l.clone(),
                _ => unreachable!("chosen from enabled"),
            };
            inner.decisions.push(RunDecision { enabled, chosen, label });
            inner.running = Some(chosen);
            self.cv_work.notify_all();
        }
        RunRecord {
            decisions: inner.decisions.clone(),
            stuck: inner.stuck,
            diverged: inner.diverged,
            hung,
        }
    }
}

struct RunRecord {
    decisions: Vec<RunDecision>,
    stuck: bool,
    diverged: bool,
    hung: bool,
}

/// Clears this thread's participant slot (and marks it done) even if the
/// thread body panics.
struct SlotGuard {
    sched: Arc<Sched>,
    me: usize,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.sched.on_done(self.me);
        SLOT.with(|s| *s.borrow_mut() = None);
    }
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

/// One decision point in the persistent search tree.
struct Node {
    enabled: Vec<usize>,
    chosen: usize,
    label: String,
    /// Choices already explored from this prefix.
    done: BTreeSet<usize>,
    /// Choices that must be explored (DPOR persistent set).
    backtrack: BTreeSet<usize>,
}

/// `"op|res|res"` labels conflict when their resource token sets intersect
/// (`*` matches everything, an empty set nothing).
fn labels_conflict(a: &str, b: &str) -> bool {
    let toks = |s: &str| -> Vec<String> {
        s.split('|').skip(1).filter(|t| !t.is_empty()).map(str::to_string).collect()
    };
    let (ta, tb) = (toks(a), toks(b));
    if ta.is_empty() || tb.is_empty() {
        return false;
    }
    if ta.iter().any(|t| t == "*") || tb.iter().any(|t| t == "*") {
        return true;
    }
    let set: HashSet<&str> = ta.iter().map(String::as_str).collect();
    tb.iter().any(|t| set.contains(t.as_str()))
}

/// Runs `scenario` under every schedule the bounded DPOR search reaches,
/// checking each run. See the module docs for the exploration strategy.
pub fn explore<S: Explorable>(cfg: &ExploreConfig, scenario: &mut S) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut path: Vec<Node> = Vec::new();
    let mut forced: Vec<usize> = Vec::new();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();

    ACTIVE.fetch_add(1, Ordering::Relaxed);
    loop {
        scenario.reset();
        let bodies = scenario.threads();
        let sched = Arc::new(Sched::new(bodies.len(), forced.clone()));
        let record = std::thread::scope(|scope| {
            for (i, body) in bodies.into_iter().enumerate() {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    SLOT.with(|s| *s.borrow_mut() = Some((Arc::clone(&sched), i)));
                    let _guard = SlotGuard { sched: Arc::clone(&sched), me: i };
                    yield_point(|| "start|".to_string());
                    body();
                });
            }
            sched.drive(cfg.depth, cfg.hang, &|| scenario.rescue())
        });

        report.runs += 1;
        report.max_depth = report.max_depth.max(record.decisions.len());
        if record.stuck {
            report.stuck_runs += 1;
        }
        if record.hung {
            report.hung_runs += 1;
        }
        if record.diverged {
            report.diverged_runs += 1;
        }
        seen.insert(record.decisions.iter().map(|d| d.chosen).collect());
        if let Err(e) = scenario.check() {
            report.failure = Some(e);
            break;
        }
        if record.stuck || record.hung || record.diverged {
            // The tree beyond this point is unreliable; stop here with the
            // evidence in the report.
            break;
        }

        // Merge this run into the persistent tree. The prefix up to
        // `forced.len()` already has nodes; everything after is new.
        for (i, d) in record.decisions.iter().enumerate() {
            if let Some(node) = path.get_mut(i) {
                node.chosen = d.chosen;
                node.done.insert(d.chosen);
                node.backtrack.insert(d.chosen);
                node.label = d.label.clone();
            } else {
                path.push(Node {
                    enabled: d.enabled.clone(),
                    chosen: d.chosen,
                    label: d.label.clone(),
                    done: BTreeSet::from([d.chosen]),
                    backtrack: BTreeSet::from([d.chosen]),
                });
            }
        }
        path.truncate(record.decisions.len());

        // DPOR backtrack analysis: for each step, the most recent earlier
        // step of another thread it conflicts with gets a backtrack entry.
        for k in 0..path.len() {
            let (who, label) = (path[k].chosen, path[k].label.clone());
            for m in (0..k).rev() {
                if path[m].chosen != who && labels_conflict(&path[m].label, &label) {
                    if m < cfg.depth {
                        if path[m].enabled.contains(&who) {
                            path[m].backtrack.insert(who);
                        } else {
                            let all: Vec<usize> = path[m].enabled.clone();
                            path[m].backtrack.extend(all);
                        }
                    }
                    break;
                }
            }
        }

        if report.runs >= cfg.max_schedules {
            report.truncated = true;
            break;
        }

        // Deepest decision point with an untried backtrack choice.
        let next = (0..path.len().min(cfg.depth)).rev().find_map(|j| {
            path[j].backtrack.difference(&path[j].done).next().copied().map(|c| (j, c))
        });
        match next {
            Some((j, c)) => {
                path[j].done.insert(c);
                forced = path[..j].iter().map(|n| n.chosen).collect();
                forced.push(c);
                path.truncate(j + 1);
            }
            None => {
                report.truncated |= path.len() > cfg.depth;
                break;
            }
        }
    }
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    report.distinct_schedules = seen.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Two threads appending to a shared log under conflicting labels: the
    /// explorer must reach every interleaving of [1,2] against [3].
    struct LogScenario {
        log: Arc<StdMutex<Vec<u8>>>,
        outcomes: Arc<StdMutex<HashSet<Vec<u8>>>>,
    }

    impl Explorable for LogScenario {
        fn reset(&mut self) {
            self.log.lock().unwrap().clear();
        }
        fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
            let (a, b) = (Arc::clone(&self.log), Arc::clone(&self.log));
            vec![
                Box::new(move || {
                    yield_point(|| "push|r".into());
                    a.lock().unwrap().push(1);
                    yield_point(|| "push|r".into());
                    a.lock().unwrap().push(2);
                }),
                Box::new(move || {
                    yield_point(|| "push|r".into());
                    b.lock().unwrap().push(3);
                }),
            ]
        }
        fn check(&mut self) -> Result<(), String> {
            let log = self.log.lock().unwrap().clone();
            let pos1 = log.iter().position(|&v| v == 1);
            let pos2 = log.iter().position(|&v| v == 2);
            if pos1 >= pos2 {
                return Err(format!("program order violated: {log:?}"));
            }
            self.outcomes.lock().unwrap().insert(log);
            Ok(())
        }
    }

    #[test]
    fn explores_every_interleaving_of_conflicting_steps() {
        let outcomes = Arc::new(StdMutex::new(HashSet::new()));
        let mut scenario = LogScenario {
            log: Arc::new(StdMutex::new(Vec::new())),
            outcomes: Arc::clone(&outcomes),
        };
        let report = explore(&ExploreConfig::default(), &mut scenario);
        assert!(report.is_clean(), "{report}");
        assert!(!report.truncated, "{report}");
        let outcomes = outcomes.lock().unwrap();
        let want: HashSet<Vec<u8>> =
            [vec![1, 2, 3], vec![1, 3, 2], vec![3, 1, 2]].into_iter().collect();
        assert_eq!(*outcomes, want, "missed interleavings ({report})");
        assert!(report.distinct_schedules >= 3, "{report}");
    }

    /// Non-conflicting labels must not blow up the schedule count: two
    /// threads touching disjoint resources need exactly one schedule.
    struct DisjointScenario;

    impl Explorable for DisjointScenario {
        fn reset(&mut self) {}
        fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
            vec![
                Box::new(|| yield_point(|| "op|a".into())),
                Box::new(|| yield_point(|| "op|b".into())),
            ]
        }
    }

    #[test]
    fn commuting_steps_are_not_branched_on() {
        let report = explore(&ExploreConfig::default(), &mut DisjointScenario);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.runs, 1, "{report}");
    }

    /// A lost wakeup: one thread parks forever, nothing signals it. The
    /// scheduler must detect the stuck state and run the rescue hook
    /// instead of hanging the process.
    struct StuckScenario {
        gate: Arc<(StdMutex<bool>, Condvar)>,
    }

    impl Explorable for StuckScenario {
        fn reset(&mut self) {
            *self.gate.0.lock().unwrap() = false;
        }
        fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
            let gate = Arc::clone(&self.gate);
            vec![Box::new(move || {
                yield_point(|| "wait|r".into());
                before_block(7);
                let mut open = gate.0.lock().unwrap();
                while !*open {
                    open = gate.1.wait(open).unwrap();
                }
                after_block(7);
            })]
        }
        fn rescue(&self) {
            *self.gate.0.lock().unwrap() = true;
            self.gate.1.notify_all();
        }
    }

    #[test]
    fn stuck_runs_are_detected_and_rescued() {
        let mut scenario =
            StuckScenario { gate: Arc::new((StdMutex::new(false), Condvar::new())) };
        let report = explore(&ExploreConfig::default(), &mut scenario);
        assert_eq!(report.stuck_runs, 1, "{report}");
        assert!(!report.is_clean());
    }

    /// A blocked thread woken via `note_wakeup` re-enters the schedule:
    /// the consumer must observe the value the producer published.
    struct HandoffScenario {
        cell: Arc<(StdMutex<Option<u8>>, Condvar)>,
        got: Arc<StdMutex<Vec<u8>>>,
    }

    impl Explorable for HandoffScenario {
        fn reset(&mut self) {
            *self.cell.0.lock().unwrap() = None;
            self.got.lock().unwrap().clear();
        }
        fn threads(&mut self) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
            let cell_c = Arc::clone(&self.cell);
            let cell_p = Arc::clone(&self.cell);
            let got = Arc::clone(&self.got);
            vec![
                Box::new(move || {
                    yield_point(|| "recv|c".into());
                    let mut slot = cell_c.0.lock().unwrap();
                    while slot.is_none() {
                        before_block(1);
                        slot = cell_c.1.wait(slot).unwrap();
                        after_block(1);
                    }
                    got.lock().unwrap().push(slot.take().unwrap());
                }),
                Box::new(move || {
                    yield_point(|| "send|c".into());
                    *cell_p.0.lock().unwrap() = Some(42);
                    note_wakeup(1);
                    cell_p.1.notify_all();
                }),
            ]
        }
        fn check(&mut self) -> Result<(), String> {
            let got = self.got.lock().unwrap();
            if *got != vec![42] {
                return Err(format!("handoff lost: {got:?}"));
            }
            Ok(())
        }
    }

    #[test]
    fn wakeups_resume_blocked_participants() {
        let mut scenario = HandoffScenario {
            cell: Arc::new((StdMutex::new(None), Condvar::new())),
            got: Arc::new(StdMutex::new(Vec::new())),
        };
        let report = explore(&ExploreConfig::default(), &mut scenario);
        assert!(report.is_clean(), "{report}");
        // Both orders at the first decision (recv first -> block -> send,
        // and send first -> recv finds the value) must be explored.
        assert!(report.distinct_schedules >= 2, "{report}");
    }

    #[test]
    fn conflict_labels() {
        assert!(labels_conflict("a|r1", "b|r1"));
        assert!(!labels_conflict("a|r1", "b|r2"));
        assert!(labels_conflict("a|*", "b|r2"));
        assert!(!labels_conflict("start|", "b|r2"));
        assert!(labels_conflict("a|r1|r2", "b|r2|r3"));
    }

    #[test]
    fn config_defaults() {
        let cfg = ExploreConfig::default();
        assert_eq!(cfg.depth, 48);
        assert!(cfg.max_schedules >= 500);
    }
}
