#![forbid(unsafe_code)]
//! Structured lock-event tracing for the `colock` workspace.
//!
//! The crate provides (see DESIGN.md §6 for the full schema):
//!
//! * [`Event`] / [`EventKind`] / [`RuleTag`] — the structured record every
//!   instrumented code path emits, tagged with the §4.4.2 protocol rule
//!   that caused it,
//! * [`TraceBuffer`] — a fixed-capacity, overwrite-oldest ring buffer with
//!   a lock-free monotonic sequence counter,
//! * a process-global buffer behind an on/off switch ([`enable`],
//!   [`disable`], [`emit`]) that compiles down to one relaxed atomic load
//!   and a branch when tracing is off,
//! * instance-scoped reads ([`next_instance`], [`events_since_in`]): every
//!   lock manager stamps its events with an id of its own, so two managers
//!   traced at once in one process read back only their own events,
//! * [`WaitHistogram`] / [`wait_histograms`] — per-resource wait-time
//!   distributions with power-of-two buckets,
//! * [`WaitsForGraph`] — DOT export of the waits-for graph the deadlock
//!   detector saw,
//! * [`explain`] — replay of a captured trace into per-txn timelines.
//!
//! # Enabling tracing
//!
//! Tracing is off by default and costs one branch per instrumentation
//! point. Turn it on programmatically or from the environment:
//!
//! ```
//! colock_trace::enable();
//! let mark = colock_trace::current_seq();
//! // ... run transactions ...
//! let events = colock_trace::events_since(mark);
//! colock_trace::disable();
//! ```
//!
//! A process that traces several managers at once reads each one's window
//! with [`events_since_in`] and the ids its managers were stamped with.

#![warn(missing_docs)]

mod buffer;
mod dot;
mod event;
pub mod explain;
mod hist;

pub use buffer::{TraceBuffer, WindowOverwritten};
pub use dot::{dot_escape, dot_unescape, WaitEdge, WaitsForGraph};
pub use event::{Event, EventKind, ParseError, RuleTag};
pub use hist::{wait_histograms, WaitHistogram, BUCKETS};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global switch. `Relaxed` is enough: the only consequence of a stale
/// read is one dropped or one extra event around the toggle.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Source of lock-manager instance ids; 0 means "no instance".
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// Default capacity of the global buffer (overridable with
/// `COLOCK_TRACE_CAP` before first use).
pub const DEFAULT_CAPACITY: usize = 65_536;

static GLOBAL: OnceLock<TraceBuffer> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Most recent deadlock DOT exports (newest last), capped.
static DEADLOCK_DOTS: Mutex<Vec<String>> = Mutex::new(Vec::new());
const DOT_KEEP: usize = 16;

fn global() -> &'static TraceBuffer {
    GLOBAL.get_or_init(|| {
        let cap = std::env::var("COLOCK_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        TraceBuffer::with_capacity(cap)
    })
}

/// Microseconds since the process's trace epoch (first call).
fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Turns the global trace on.
pub fn enable() {
    // Pin the epoch before the first event so timestamps start near zero.
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the global trace off (buffered events are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the global trace is on.
///
/// ```
/// colock_trace::disable();
/// assert!(!colock_trace::is_enabled());
/// ```
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables tracing when the `COLOCK_TRACE` environment variable is set to
/// anything but `0`/`off`/empty. Returns whether tracing ended up enabled.
pub fn enable_from_env() -> bool {
    match std::env::var("COLOCK_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" && v != "off" => {
            enable();
            true
        }
        _ => is_enabled(),
    }
}

/// Records the event built by `make` into the global buffer — if tracing
/// is on. The closure keeps all construction cost (mode/resource
/// formatting, allocation) off the disabled path, which is one relaxed
/// load and a branch.
///
/// ```
/// use colock_trace::{Event, EventKind};
/// colock_trace::enable();
/// let mark = colock_trace::current_seq();
/// colock_trace::emit(|| Event::new(EventKind::TxnBegin, 42).detail("short"));
/// let events = colock_trace::events_since(mark);
/// assert_eq!(events.last().unwrap().txn, 42);
/// colock_trace::disable();
/// ```
#[inline]
pub fn emit(make: impl FnOnce() -> Event) {
    if !is_enabled() {
        return;
    }
    let mut e = make();
    e.t_us = now_us();
    if e.rule == RuleTag::None {
        e.rule = current_rule();
    }
    global().record(e);
}

/// Sequence number the next event will get. Capture before a run, then
/// pass to [`events_since`] to scope a snapshot to that run.
pub fn current_seq() -> u64 {
    global().next_seq()
}

/// Sorted copy of the buffered events with `seq >= since`.
pub fn events_since(since: u64) -> Vec<Event> {
    global().events_since(since)
}

/// The buffered events with `seq >= since` that one of `instances`
/// emitted, sorted — one manager's (or one crash/recovery cycle's
/// managers') window, whatever else the process traces meanwhile. Fails
/// when the ring has overwritten part of the window.
///
/// ```
/// use colock_trace::{Event, EventKind};
/// colock_trace::enable();
/// let (mine, theirs) = (colock_trace::next_instance(), colock_trace::next_instance());
/// let mark = colock_trace::current_seq();
/// colock_trace::emit(|| Event::new(EventKind::TxnBegin, 1).instance(mine));
/// colock_trace::emit(|| Event::new(EventKind::TxnBegin, 1).instance(theirs));
/// let window = colock_trace::events_since_in(mark, &[mine]).unwrap();
/// assert_eq!(window.len(), 1);
/// assert_eq!(window[0].instance, mine);
/// ```
pub fn events_since_in(since: u64, instances: &[u64]) -> Result<Vec<Event>, WindowOverwritten> {
    global().events_since_in(since, instances)
}

/// A fresh lock-manager instance id for [`Event::instance`], never 0 and
/// never handed out twice in a process.
pub fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// Sorted copy of every buffered event.
pub fn snapshot() -> Vec<Event> {
    global().snapshot()
}

/// Clears the global buffer and the stored deadlock DOT exports (the
/// sequence counter keeps counting).
pub fn clear() {
    global().clear();
    DEADLOCK_DOTS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Stores a deadlock DOT export (keeps the most recent few).
pub fn record_deadlock_dot(dot: String) {
    let mut dots = DEADLOCK_DOTS.lock().unwrap_or_else(|e| e.into_inner());
    if dots.len() >= DOT_KEEP {
        dots.remove(0);
    }
    dots.push(dot);
}

/// The stored deadlock DOT exports, oldest first.
pub fn deadlock_dots() -> Vec<String> {
    DEADLOCK_DOTS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

thread_local! {
    static CURRENT_RULE: Cell<RuleTag> = const { Cell::new(RuleTag::None) };
}

/// The protocol-rule tag in scope on this thread (set by [`rule_scope`]).
pub fn current_rule() -> RuleTag {
    CURRENT_RULE.with(|c| c.get())
}

/// RAII guard restoring the previous thread-local rule tag on drop.
/// Returned by [`rule_scope`].
pub struct RuleScope {
    prev: RuleTag,
}

impl Drop for RuleScope {
    fn drop(&mut self) {
        CURRENT_RULE.with(|c| c.set(self.prev));
    }
}

/// Sets the thread-local rule tag for the lifetime of the returned guard.
/// Lock-manager events emitted while the guard lives inherit the tag, so
/// protocol code can annotate *why* it locks without threading a parameter
/// through every layer.
///
/// ```
/// use colock_trace::{current_rule, rule_scope, RuleTag};
/// assert_eq!(current_rule(), RuleTag::None);
/// {
///     let _g = rule_scope(RuleTag::EntryPoint);
///     assert_eq!(current_rule(), RuleTag::EntryPoint);
/// }
/// assert_eq!(current_rule(), RuleTag::None);
/// ```
pub fn rule_scope(tag: RuleTag) -> RuleScope {
    let prev = CURRENT_RULE.with(|c| c.replace(tag));
    RuleScope { prev }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one process; keep them in a single #[test]
    // so cargo's parallel test runner cannot interleave enable/disable.
    #[test]
    fn global_switch_scopes_and_dots() {
        // The env gate's "absent" path leaves the switch as it was; the
        // "on" path is covered by examples setting COLOCK_TRACE themselves.
        std::env::remove_var("COLOCK_TRACE");
        disable();
        assert!(!enable_from_env());

        // Disabled: emit is a no-op and the closure must not run.
        let mark = current_seq();
        emit(|| panic!("must not construct when disabled"));
        assert_eq!(current_seq(), mark);

        // Enabled: events flow, rule scopes nest and restore.
        enable();
        let mark = current_seq();
        {
            let _outer = rule_scope(RuleTag::Target);
            emit(|| Event::new(EventKind::Request, 1).resource("a"));
            {
                let _inner = rule_scope(RuleTag::AncestorIntent);
                emit(|| Event::new(EventKind::Request, 1).resource("b"));
            }
            emit(|| Event::new(EventKind::Request, 1).resource("c"));
        }
        // An explicit tag on the event wins over the scope.
        emit(|| Event::new(EventKind::Grant, 1).rule(RuleTag::Recovered));
        disable();

        let events = events_since(mark);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].rule, RuleTag::Target);
        assert_eq!(events[1].rule, RuleTag::AncestorIntent);
        assert_eq!(events[2].rule, RuleTag::Target);
        assert_eq!(events[3].rule, RuleTag::Recovered);
        // Timestamps are monotone non-decreasing in seq order.
        for w in events.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }

        record_deadlock_dot("digraph waits_for {}".into());
        assert!(deadlock_dots().last().unwrap().starts_with("digraph"));
        for i in 0..(DOT_KEEP + 3) {
            record_deadlock_dot(format!("g{i}"));
        }
        let dots = deadlock_dots();
        assert_eq!(dots.len(), DOT_KEEP);
        assert_eq!(dots.last().unwrap(), &format!("g{}", DOT_KEEP + 2));
    }
}
