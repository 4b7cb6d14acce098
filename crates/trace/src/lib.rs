#![forbid(unsafe_code)]
//! Structured lock-event tracing for the `colock` workspace.
//!
//! The crate provides (see DESIGN.md §6 for the full schema):
//!
//! * [`Event`] / [`EventKind`] / [`RuleTag`] — the structured record every
//!   instrumented code path emits, tagged with the §4.4.2 protocol rule
//!   that caused it,
//! * [`TraceBuffer`] — a fixed-capacity, overwrite-oldest ring buffer with
//!   a lock-free monotonic sequence counter, its own on/off switch and its
//!   own deadlock DOT exports. A lock manager traces into the buffer
//!   attached to it, so its window holds its own events only;
//! * the process's default buffer, for managers with none attached, behind
//!   free functions ([`enable`], [`disable`], [`emit`], [`current_seq`],
//!   [`events_since`], [`deadlock_dots`]); its ring is built by its first
//!   event, and an emit into it while it is off is one relaxed atomic load
//!   and a branch,
//! * [`WaitHistogram`] / [`wait_histograms`] — per-resource wait-time
//!   distributions with power-of-two buckets,
//! * [`WaitsForGraph`] — DOT export of the waits-for graph the deadlock
//!   detector saw,
//! * [`explain`] — replay of a captured trace into per-txn timelines.
//!
//! # Enabling tracing
//!
//! Tracing is off by default and costs one branch per instrumentation
//! point. Turn a buffer on, attach it to a manager, and read its window:
//!
//! ```
//! use colock_trace::{Event, EventKind, TraceBuffer};
//! let buf = TraceBuffer::with_capacity(1 << 12);
//! buf.enable();
//! let mark = buf.next_seq();
//! // ... attach `buf` to a lock manager and run transactions ...
//! # buf.emit(|| Event::new(EventKind::TxnBegin, 1));
//! let events = buf.events_since(mark).expect("window kept");
//! # assert_eq!(events.len(), 1);
//! ```
//!
//! Binaries that trace one manager at a time use the default buffer, which
//! `COLOCK_TRACE` can switch on ([`enable_from_env`]).

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
use std::sync::OnceLock;
use std::time::Instant;

/// Default capacity of the default buffer (overridable with
/// `COLOCK_TRACE_CAP` before its first event).
pub const DEFAULT_CAPACITY: usize = 65_536;

static DEFAULT: TraceBuffer = TraceBuffer::sized(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn default_capacity() -> usize {
    let cap = std::env::var("COLOCK_TRACE_CAP").ok().and_then(|v| v.parse().ok());
    cap.unwrap_or(DEFAULT_CAPACITY).max(2).next_power_of_two()
}

/// Microseconds since the process's trace epoch (first call).
fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The buffer of every lock manager with none attached.
pub fn default_buffer() -> &'static TraceBuffer {
    &DEFAULT
}

/// Turns the default buffer on.
pub fn enable() {
    DEFAULT.enable();
}

/// Turns the default buffer off (buffered events are kept).
pub fn disable() {
    DEFAULT.disable();
}

/// Whether the default buffer is on.
#[inline]
pub fn is_enabled() -> bool {
    DEFAULT.is_enabled()
}

/// Turns the default buffer on when the `COLOCK_TRACE` environment variable
/// is set to anything but `0`/`off`/empty. Returns whether it ended up on.
pub fn enable_from_env() -> bool {
    match std::env::var("COLOCK_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" && v != "off" => {
            enable();
            true
        }
        _ => is_enabled(),
    }
}

/// Records the event built by `make` into the default buffer — if it is
/// on ([`TraceBuffer::emit`]).
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
    DEFAULT.emit(make);
}

/// Sequence number the default buffer's next event will get. Capture
/// before a run, then pass to [`events_since`] to scope a snapshot to that
/// run.
pub fn current_seq() -> u64 {
    DEFAULT.next_seq()
}

/// What the default buffer kept of the events with `seq >= since`
/// ([`TraceBuffer::kept_since`]).
pub fn events_since(since: u64) -> Vec<Event> {
    DEFAULT.kept_since(since)
}

/// The default buffer's deadlock DOT exports, oldest first.
pub fn deadlock_dots() -> Vec<String> {
    DEFAULT.deadlock_dots()
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

    #[test]
    fn env_gate_leaves_the_switch_when_unset() {
        // The "on" path is covered by examples setting COLOCK_TRACE
        // themselves; the test binary never turns the default buffer on.
        std::env::remove_var("COLOCK_TRACE");
        assert!(!enable_from_env());
        let mark = current_seq();
        emit(|| panic!("must not construct when disabled"));
        assert_eq!(current_seq(), mark);
    }
}
