//! Fixed-capacity ring buffer of [`Event`]s with a lock-free sequence
//! counter.
//!
//! Writers claim a slot with one `fetch_add` on an `AtomicU64` and then take
//! the *per-slot* mutex to store the event; two writers only ever contend on
//! a slot mutex when the buffer has wrapped a full lap between their claims,
//! so the common path is one uncontended atomic plus one uncontended lock.
//! The oldest event is overwritten when the buffer is full, which means a
//! snapshot of a long run has a *gap*: sequence numbers start above zero and
//! are contiguous from there (modulo in-flight writers).

use crate::event::Event;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A scoped read whose window the ring has partly overwritten: linting
/// what is left would judge transactions by half their events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowOverwritten {
    /// Events recorded since the window's mark, every instance together.
    pub recorded: u64,
    /// Ring capacity: how many of them it kept.
    pub capacity: usize,
}

impl fmt::Display for WindowOverwritten {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace ring kept only the last {} of the {} events recorded since the mark; \
             raise COLOCK_TRACE_CAP or shorten the window",
            self.capacity, self.recorded
        )
    }
}

impl std::error::Error for WindowOverwritten {}

/// A fixed-capacity, overwrite-oldest ring buffer of trace events.
///
/// ```
/// use colock_trace::{Event, EventKind, TraceBuffer};
/// let buf = TraceBuffer::with_capacity(4);
/// for i in 0..6 {
///     buf.record(Event::new(EventKind::Request, i));
/// }
/// let snap = buf.snapshot();
/// // Capacity 4: the two oldest events were overwritten.
/// assert_eq!(snap.len(), 4);
/// assert_eq!(snap[0].seq, 2);
/// assert_eq!(snap[3].seq, 5);
/// ```
pub struct TraceBuffer {
    slots: Box<[Mutex<Option<Event>>]>,
    mask: u64,
    next: AtomicU64,
}

impl TraceBuffer {
    /// Creates a buffer holding at least `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> TraceBuffer {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<Mutex<Option<Event>>> = (0..cap).map(|_| Mutex::new(None)).collect();
        TraceBuffer { slots: slots.into_boxed_slice(), mask: cap as u64 - 1, next: AtomicU64::new(0) }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sequence number the *next* recorded event will receive; equivalently,
    /// the count of events ever recorded.
    pub fn next_seq(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Records an event, stamping its `seq`, and returns that sequence
    /// number. Overwrites the oldest event once the buffer is full.
    pub fn record(&self, mut event: Event) -> u64 {
        let seq = self.next.fetch_add(1, Ordering::AcqRel);
        event.seq = seq;
        let slot = &self.slots[(seq & self.mask) as usize];
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        // A slow writer from a previous lap may land after a faster writer
        // from a later lap; keep the newer event.
        if guard.as_ref().is_none_or(|old| old.seq < seq) {
            *guard = Some(event);
        }
        seq
    }

    /// Copies out the currently-buffered events, sorted by sequence number.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events_since(0)
    }

    /// Copies out buffered events with `seq >= since`, sorted by sequence
    /// number. Use [`TraceBuffer::next_seq`] before a run to scope a
    /// snapshot to that run.
    pub fn events_since(&self, since: u64) -> Vec<Event> {
        self.collect(|e| e.seq >= since)
    }

    /// Like [`TraceBuffer::events_since`], keeping only the events stamped
    /// with one of `instances`. Fails when the ring has overwritten part of
    /// the window instead of returning what is left of it.
    ///
    /// ```
    /// use colock_trace::{Event, EventKind, TraceBuffer};
    /// let buf = TraceBuffer::with_capacity(4);
    /// let mark = buf.next_seq();
    /// buf.record(Event::new(EventKind::Request, 1).instance(7));
    /// buf.record(Event::new(EventKind::Request, 1).instance(8));
    /// assert_eq!(buf.events_since_in(mark, &[7]).unwrap().len(), 1);
    /// for i in 0..4 {
    ///     buf.record(Event::new(EventKind::Grant, i).instance(8));
    /// }
    /// assert!(buf.events_since_in(mark, &[7]).is_err());
    /// ```
    pub fn events_since_in(
        &self,
        since: u64,
        instances: &[u64],
    ) -> Result<Vec<Event>, WindowOverwritten> {
        let out = self.collect(|e| e.seq >= since && instances.contains(&e.instance));
        // Read after the copy: a slot of the window can only have been
        // overwritten by a writer that claimed its seq one lap later.
        let recorded = self.next_seq().saturating_sub(since);
        if recorded > self.capacity() as u64 {
            return Err(WindowOverwritten { recorded, capacity: self.capacity() });
        }
        Ok(out)
    }

    fn collect(&self, keep: impl Fn(&Event) -> bool) -> Vec<Event> {
        let mut out: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|s| {
                s.lock().unwrap_or_else(|e| e.into_inner()).as_ref().filter(|e| keep(e)).cloned()
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Empties every slot. The sequence counter keeps counting (so seqnos
    /// stay monotonic across clears).
    pub fn clear(&self) {
        for s in self.slots.iter() {
            *s.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
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
        let snap = buf.snapshot();
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
        let run = buf.events_since(mark);
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].txn, 2);
    }

    #[test]
    fn clear_keeps_counter_monotonic() {
        let buf = TraceBuffer::with_capacity(4);
        buf.record(Event::new(EventKind::Request, 1));
        buf.clear();
        assert!(buf.snapshot().is_empty());
        let seq = buf.record(Event::new(EventKind::Request, 2));
        assert_eq!(seq, 1);
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
        let snap = buf.snapshot();
        assert_eq!(snap.len(), threads * per);
        // Unique and strictly increasing after the sort == no duplicated seq.
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(buf.next_seq(), (threads * per) as u64);
    }
}
