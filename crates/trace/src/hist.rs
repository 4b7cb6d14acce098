//! Power-of-two-bucket wait-time histograms, built from `Wait`→`Grant`
//! event pairs.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;

/// Number of buckets: bucket `i` counts waits in `[2^i, 2^(i+1))` µs
/// (bucket 0 also absorbs sub-microsecond waits, the last bucket absorbs
/// everything ≥ 2^31 µs ≈ 36 min).
pub const BUCKETS: usize = 32;

/// A histogram of wait durations with power-of-two microsecond buckets.
///
/// ```
/// use colock_trace::WaitHistogram;
/// let mut h = WaitHistogram::default();
/// h.record(3);    // 2–4 µs  → bucket 1
/// h.record(700);  // 512–1024 µs → bucket 9
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.max_us(), 700);
/// assert!(h.render("rel:cells").contains("<1024µs"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitHistogram {
    /// Per-bucket counts; see [`BUCKETS`] for the bucket boundaries.
    pub buckets: [u64; BUCKETS],
    /// Total waits recorded.
    pub count: u64,
    /// Sum of all recorded wait durations, µs.
    pub total_us: u64,
    /// Longest recorded wait, µs.
    pub max_us: u64,
}

/// Bucket index for a duration in microseconds.
fn bucket_of(us: u64) -> usize {
    (us.max(1).ilog2() as usize).min(BUCKETS - 1)
}

impl WaitHistogram {
    /// Records one wait of `us` microseconds.
    pub fn record(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &WaitHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Total waits recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean wait in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    /// Longest recorded wait in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Nearest-rank quantile in microseconds: the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th wait, clamped to [`WaitHistogram::max_us`]
    /// (so the p100 of a histogram is exact, and low quantiles are bounded
    /// by the bucket resolution). Returns 0 when empty.
    ///
    /// ```
    /// use colock_trace::WaitHistogram;
    /// let mut h = WaitHistogram::default();
    /// for us in [3, 3, 3, 700] {
    ///     h.record(us);
    /// }
    /// assert_eq!(h.quantile_us(0.50), 4);    // bucket [2,4)
    /// assert_eq!(h.quantile_us(0.99), 700);  // bucket [512,1024) clamped to max
    /// assert_eq!(WaitHistogram::default().quantile_us(0.99), 0);
    /// ```
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let hi = if i + 1 >= 64 { u64::MAX } else { 1u64 << (i + 1) };
                // Clamp to the observed maximum only when one was recorded:
                // a histogram whose samples all landed in bucket 0 without
                // raising `max_us` (e.g. a single 0µs wait, or hand-built
                // bucket counts) must still report the bucket's upper bound
                // rather than collapsing every quantile to 0.
                return if self.max_us > 0 { hi.min(self.max_us) } else { hi };
            }
        }
        self.max_us
    }

    /// Renders an ASCII histogram titled with `label`: one `lo–hi  count
    /// bar` line per non-empty bucket plus a summary line.
    pub fn render(&self, label: &str) -> String {
        let mut out = format!(
            "{label}: {} waits, mean {}µs, max {}µs\n",
            self.count,
            self.mean_us(),
            self.max_us
        );
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let hi = 1u64 << (i + 1);
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            out.push_str(&format!("  {:>9} {:>6}  {}\n", format!("<{hi}µs"), n, bar));
        }
        out
    }
}

/// Pairs each `Wait` event with the requester's next `Grant` on the same
/// resource and accumulates the elapsed time into a per-resource histogram.
///
/// Waits that never resolve inside the event window (timeouts, deadlock
/// victims, buffer wraparound) are dropped. Events must be sorted by `seq`,
/// as [`crate::TraceBuffer::kept_since`] returns them.
///
/// ```
/// use colock_trace::{wait_histograms, Event, EventKind};
/// let mut w = Event::new(EventKind::Wait, 1).resource("r");
/// w.t_us = 100;
/// let mut g = Event::new(EventKind::Grant, 1).resource("r");
/// g.seq = 1;
/// g.t_us = 350;
/// let hists = wait_histograms(&[w, g]);
/// assert_eq!(hists["r"].count(), 1);
/// assert_eq!(hists["r"].mean_us(), 250);
/// ```
pub fn wait_histograms(events: &[Event]) -> BTreeMap<String, WaitHistogram> {
    let mut pending: BTreeMap<(u64, &str), u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, WaitHistogram> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::Wait => {
                pending.insert((e.txn, e.resource.as_str()), e.t_us);
            }
            EventKind::Grant => {
                if let Some(start) = pending.remove(&(e.txn, e.resource.as_str())) {
                    hists
                        .entry(e.resource.clone())
                        .or_default()
                        .record(e.t_us.saturating_sub(start));
                }
            }
            _ => {}
        }
    }
    hists
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = WaitHistogram::default();
        a.record(10);
        let mut b = WaitHistogram::default();
        b.record(1000);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_us(), 1000);
        assert_eq!(a.total_us, 1012);
    }

    #[test]
    fn quantiles_track_distribution() {
        let mut h = WaitHistogram::default();
        // 90 fast waits (~8µs) and 10 slow ones (~5000µs).
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(5000);
        }
        assert_eq!(h.quantile_us(0.50), 16); // bucket [8,16)
        assert_eq!(h.quantile_us(0.90), 16);
        assert_eq!(h.quantile_us(0.95), 5000); // bucket [4096,8192) clamped to max
        assert_eq!(h.quantile_us(0.99), 5000);
        assert_eq!(h.quantile_us(1.0), 5000);
        // Quantiles survive a merge.
        let mut all = WaitHistogram::default();
        all.merge(&h);
        assert_eq!(all.quantile_us(0.99), h.quantile_us(0.99));
    }

    #[test]
    fn quantile_of_single_sample_is_exact() {
        let mut h = WaitHistogram::default();
        h.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 42);
        }
    }

    #[test]
    fn quantile_boundaries() {
        // Empty histogram: every quantile is 0.
        let empty = WaitHistogram::default();
        assert_eq!(empty.quantile_us(0.0), 0);
        assert_eq!(empty.quantile_us(1.0), 0);

        // A single 0µs wait lands in bucket 0 ([0,2)µs) without raising
        // max_us; q=1.0 must report the bucket's upper bound, not 0.
        let mut h = WaitHistogram::default();
        h.record(0);
        assert_eq!(h.quantile_us(0.0), 2);
        assert_eq!(h.quantile_us(1.0), 2);

        // Hand-built single-bucket counts (max_us never set, as a merge of
        // raw bucket data would produce): same rule, upper bound of the
        // populated bucket.
        let mut raw = WaitHistogram::default();
        raw.buckets[3] = 5; // [8,16)µs
        raw.count = 5;
        assert_eq!(raw.quantile_us(1.0), 16);
        assert_eq!(raw.quantile_us(0.0), 16);

        // q=0.0 on a multi-bucket histogram is the first sample's bucket.
        let mut multi = WaitHistogram::default();
        multi.record(3);
        multi.record(700);
        assert_eq!(multi.quantile_us(0.0), 4);
        assert_eq!(multi.quantile_us(1.0), 700);
        // Out-of-range q is clamped.
        assert_eq!(multi.quantile_us(-1.0), 4);
        assert_eq!(multi.quantile_us(2.0), 700);
    }

    #[test]
    fn unresolved_waits_are_dropped() {
        let mut w = Event::new(EventKind::Wait, 9).resource("r");
        w.t_us = 5;
        let hists = wait_histograms(&[w]);
        assert!(hists.is_empty());
    }
}
