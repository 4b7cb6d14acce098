//! Fixed-capacity ring buffer of [`Event`]s with a lock-free sequence
//! counter: the sink a lock manager traces into.
//!
//! Writers claim a slot with one `fetch_add` on an `AtomicU64` and then take
//! the *per-slot* mutex to store the event; two writers only ever contend on
//! a slot mutex when the buffer has wrapped a full lap between their claims,
//! so the common path is one uncontended atomic plus one uncontended lock.
//! The oldest event is overwritten when the buffer is full, which means a
//! snapshot of a long run has a *gap*: sequence numbers start above zero and
//! are contiguous from there (modulo in-flight writers). The ring is built
//! by the first record: reading the mark of an idle buffer allocates nothing.

use crate::event::{Event, RuleTag};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Deadlock DOT exports a buffer keeps (the most recent ones).
const DOT_KEEP: usize = 16;

/// A read whose window the ring has partly overwritten: linting what is
/// left would judge transactions by half their events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowOverwritten {
    /// Events this buffer recorded since the window's mark.
    pub recorded: u64,
    /// Ring capacity: how many of them it kept.
    pub capacity: usize,
}

impl fmt::Display for WindowOverwritten {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace buffer kept only the last {} of the {} events recorded since the mark; \
             give it more slots (COLOCK_TRACE_CAP for the default buffer) or shorten the window",
            self.capacity, self.recorded
        )
    }
}

impl std::error::Error for WindowOverwritten {}

/// A fixed-capacity, overwrite-oldest ring buffer of trace events, with
/// its own on/off switch and deadlock DOT exports.
///
/// ```
/// use colock_trace::{Event, EventKind, TraceBuffer};
/// let buf = TraceBuffer::with_capacity(4);
/// for i in 0..6 {
///     buf.record(Event::new(EventKind::Request, i));
/// }
/// let snap = buf.kept_since(0);
/// // Capacity 4: the two oldest events were overwritten.
/// assert_eq!(snap.len(), 4);
/// assert_eq!(snap[0].seq, 2);
/// assert_eq!(snap[3].seq, 5);
/// ```
pub struct TraceBuffer {
    /// The ring, built by the first record.
    slots: OnceLock<Box<[Mutex<Option<Event>>]>>,
    /// Slots to build: a power of two, or 0 for `COLOCK_TRACE_CAP`.
    capacity: usize,
    next: AtomicU64,
    /// `Relaxed` is enough: the only consequence of a stale read is one
    /// dropped or one extra event around the toggle.
    enabled: AtomicBool,
    /// Most recent deadlock DOT exports, newest last.
    dots: Mutex<Vec<String>>,
}

impl TraceBuffer {
    /// Creates a buffer holding at least `capacity` events (rounded up to a
    /// power of two, minimum 2), switched off.
    pub fn with_capacity(capacity: usize) -> TraceBuffer {
        TraceBuffer::sized(capacity.max(2).next_power_of_two())
    }

    /// `capacity` 0 reads `COLOCK_TRACE_CAP` when the ring is built.
    pub(crate) const fn sized(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            slots: OnceLock::new(),
            capacity,
            next: AtomicU64::new(0),
            enabled: AtomicBool::new(false),
            dots: Mutex::new(Vec::new()),
        }
    }

    fn ring(&self) -> &[Mutex<Option<Event>>] {
        self.slots.get_or_init(|| {
            let cap = if self.capacity == 0 { crate::default_capacity() } else { self.capacity };
            (0..cap).map(|_| Mutex::new(None)).collect()
        })
    }

    /// Number of slots (builds the ring).
    pub fn capacity(&self) -> usize {
        self.ring().len()
    }

    /// Turns tracing into this buffer on.
    pub fn enable(&self) {
        // Pins the epoch before the first event: timestamps start near 0.
        crate::now_us();
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns tracing into this buffer off (recorded events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether this buffer is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records the event built by `make` — if this buffer is on — stamped
    /// with its time and, unless it names one, the thread's rule tag
    /// ([`crate::rule_scope`]). The closure keeps all construction cost
    /// (mode/resource formatting, allocation) off the disabled path, which
    /// is one relaxed load and a branch.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if !self.is_enabled() {
            return;
        }
        let mut e = make();
        e.t_us = crate::now_us();
        if e.rule == RuleTag::None {
            e.rule = crate::current_rule();
        }
        self.record(e);
    }

    /// Sequence number the *next* recorded event will receive; equivalently,
    /// the count of events ever recorded. Never builds the ring.
    pub fn next_seq(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Records an event as given, stamping its `seq`, and returns that
    /// sequence number — whether or not the buffer is on. Overwrites the
    /// oldest event once the buffer is full.
    pub fn record(&self, mut event: Event) -> u64 {
        let seq = self.next.fetch_add(1, Ordering::AcqRel);
        event.seq = seq;
        let ring = self.ring();
        let slot = &ring[seq as usize & (ring.len() - 1)];
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        // A slow writer from a previous lap may land after a faster writer
        // from a later lap; keep the newer event.
        if guard.as_ref().is_none_or(|old| old.seq < seq) {
            *guard = Some(event);
        }
        seq
    }

    /// Copies out the events with `seq >= since`, sorted by sequence
    /// number: the window opened by a [`TraceBuffer::next_seq`] mark. Fails
    /// when the ring has overwritten part of the window instead of
    /// returning what is left of it.
    ///
    /// ```
    /// use colock_trace::{Event, EventKind, TraceBuffer};
    /// let buf = TraceBuffer::with_capacity(4);
    /// buf.record(Event::new(EventKind::Request, 1));
    /// let mark = buf.next_seq();
    /// buf.record(Event::new(EventKind::Grant, 2));
    /// assert_eq!(buf.events_since(mark).unwrap().len(), 1);
    /// for i in 0..4 {
    ///     buf.record(Event::new(EventKind::Grant, i));
    /// }
    /// assert!(buf.events_since(mark).is_err());
    /// ```
    pub fn events_since(&self, since: u64) -> Result<Vec<Event>, WindowOverwritten> {
        let out = self.kept_since(since);
        // Read after the copy: a slot of the window can only have been
        // overwritten by a writer that claimed its seq one lap later.
        let recorded = self.next_seq().saturating_sub(since);
        match self.slots.get() {
            Some(ring) if recorded > ring.len() as u64 => {
                Err(WindowOverwritten { recorded, capacity: ring.len() })
            }
            _ => Ok(out),
        }
    }

    /// Copies out what the ring still holds of the events with
    /// `seq >= since`, sorted: all of the window, or its newest part.
    pub fn kept_since(&self, since: u64) -> Vec<Event> {
        let Some(ring) = self.slots.get() else {
            return Vec::new();
        };
        let mut out: Vec<Event> = ring
            .iter()
            .filter_map(|s| {
                s.lock().unwrap_or_else(|e| e.into_inner()).as_ref().filter(|e| e.seq >= since).cloned()
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Stores a deadlock DOT export (keeps the most recent few).
    pub fn record_deadlock_dot(&self, dot: String) {
        let mut dots = self.dots.lock().unwrap_or_else(|e| e.into_inner());
        if dots.len() >= DOT_KEEP {
            dots.remove(0);
        }
        dots.push(dot);
    }

    /// The stored deadlock DOT exports, oldest first.
    pub fn deadlock_dots(&self) -> Vec<String> {
        self.dots.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(TraceBuffer::with_capacity(0).capacity(), 2);
        assert_eq!(TraceBuffer::with_capacity(5).capacity(), 8);
        assert_eq!(TraceBuffer::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn wraparound_keeps_newest_and_sorts() {
        let buf = TraceBuffer::with_capacity(8);
        for i in 0..27 {
            buf.record(Event::new(EventKind::Request, i));
        }
        let snap = buf.kept_since(0);
        assert_eq!(snap.len(), 8);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (19..27).collect::<Vec<u64>>());
        assert_eq!(buf.next_seq(), 27);
    }

    #[test]
    fn events_since_scopes_a_run() {
        let buf = TraceBuffer::with_capacity(64);
        buf.record(Event::new(EventKind::Request, 1));
        let mark = buf.next_seq();
        buf.record(Event::new(EventKind::Grant, 2));
        let run = buf.events_since(mark).unwrap();
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].txn, 2);
    }

    #[test]
    fn emit_obeys_the_switch_and_stamps_the_rule_in_scope() {
        use crate::rule_scope;
        let buf = TraceBuffer::with_capacity(16);
        buf.emit(|| panic!("must not construct when disabled"));
        assert_eq!(buf.next_seq(), 0);
        assert!(buf.slots.get().is_none(), "an idle buffer builds no ring");

        buf.enable();
        {
            let _outer = rule_scope(RuleTag::Target);
            buf.emit(|| Event::new(EventKind::Request, 1).resource("a"));
            {
                let _inner = rule_scope(RuleTag::AncestorIntent);
                buf.emit(|| Event::new(EventKind::Request, 1).resource("b"));
            }
            buf.emit(|| Event::new(EventKind::Request, 1).resource("c"));
        }
        // An explicit tag on the event wins over the scope.
        buf.emit(|| Event::new(EventKind::Grant, 1).rule(RuleTag::Recovered));
        buf.disable();
        buf.emit(|| panic!("must not construct when disabled"));

        let events = buf.events_since(0).unwrap();
        let rules: Vec<RuleTag> = events.iter().map(|e| e.rule).collect();
        assert_eq!(
            rules,
            [RuleTag::Target, RuleTag::AncestorIntent, RuleTag::Target, RuleTag::Recovered]
        );
        // Timestamps are monotone non-decreasing in seq order.
        for w in events.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }
    }

    #[test]
    fn deadlock_dots_keep_the_most_recent() {
        let buf = TraceBuffer::with_capacity(2);
        buf.record_deadlock_dot("digraph waits_for {}".into());
        assert!(buf.deadlock_dots()[0].starts_with("digraph"));
        for i in 0..(DOT_KEEP + 3) {
            buf.record_deadlock_dot(format!("g{i}"));
        }
        let dots = buf.deadlock_dots();
        assert_eq!(dots.len(), DOT_KEEP);
        assert_eq!(dots.last().unwrap(), &format!("g{}", DOT_KEEP + 2));
    }

    #[test]
    fn concurrent_recording_yields_unique_monotonic_seqnos() {
        use std::sync::Arc;
        let buf = Arc::new(TraceBuffer::with_capacity(1 << 12));
        let threads = 8;
        let per = 250;
        colock_testkit::stress::run_threads(threads, std::time::Duration::from_secs(30), {
            let buf = Arc::clone(&buf);
            move |t| {
                for i in 0..per {
                    buf.record(Event::new(EventKind::Request, (t * per + i) as u64));
                }
            }
        });
        let snap = buf.kept_since(0);
        assert_eq!(snap.len(), threads * per);
        // Unique and strictly increasing after the sort == no duplicated seq.
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(buf.next_seq(), (threads * per) as u64);
    }
}
