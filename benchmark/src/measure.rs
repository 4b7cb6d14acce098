//! End-to-end metrics from the samples and counters of a plain run.
//!
//! Every figure is taken over the whole measured window: nothing is left out
//! for being slow. A version-GC pass, a detector run, a back-off sleep or a
//! lock convoy is part of what a user waits for, so it is part of the number.
//! What the host adds on top is left to the comparison across runs (medians
//! and quartiles of ten runs and more, see the README).

use crate::drive::ClientLog;
use crate::gen::Class;
use crate::run::{Measured, Metrics, SampleCounts};
use crate::spec::{Workload, END_TO_END};
use crate::stats::{percentile_sorted, quantile, TooFewSamples};

/// Ascending latencies (ns) of every sample of `class` (all classes if
/// `None`) that committed in `[from, to)`.
pub(crate) fn window_latencies(
    logs: &[ClientLog],
    (from, to): (u64, u64),
    class: Option<Class>,
) -> Vec<u64> {
    let mut latencies: Vec<u64> = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| (from..to).contains(&s.end_ns))
        .filter(|s| class.is_none_or(|want| want == s.class))
        .map(|s| s.lat_ns)
        .collect();
    latencies.sort_unstable();
    latencies
}

/// The exact p50 and p99 (µs) of ascending latencies (ns).
pub(crate) fn p50_p99_us(sorted: &[u64]) -> Result<(f64, f64), TooFewSamples> {
    let us = |q| percentile_sorted(sorted, q).map(|ns| ns as f64 / 1000.0);
    Ok((us(0.50)?, us(0.99)?))
}

/// Committed transactions `peak_rss_mb` is stated at, per workload: about
/// what the reference host commits in the time the driver measures.
fn rss_reference_txns(workload: Workload) -> f64 {
    match workload {
        Workload::ServedMix => 300_000.0,
        Workload::EmbeddedMix => 800_000.0,
        Workload::ParallelDisjoint => 500_000.0,
        Workload::Fig7Queries => 70_000.0,
    }
}

/// `peak_rss_mb`: the peak resident set (`VmHWM`) at the end of the warm-up
/// plus its growth over the measured window, scaled to
/// [`rss_reference_txns`] commits.
///
/// The in-memory journal grows with every long transaction, so the peak at
/// the end of a *timed* run is mostly a count of how many transactions the
/// run got through: a faster system would report more memory. Stated at a
/// fixed amount of work it compares like with like, and set-up, journal and
/// version-chain growth still all show.
fn peak_rss_at_reference(workload: Workload, measured: &Measured, commits: usize) -> f64 {
    let first = &measured.marks[0].1;
    let last = &measured.marks.last().expect("a timed run has marks").1;
    let growth = last.peak_rss_mb - first.peak_rss_mb;
    first.peak_rss_mb + growth * rss_reference_txns(workload) / commits.max(1) as f64
}

/// Every end-to-end metric of a plain run, and the samples behind the
/// percentiles.
pub(crate) fn end_to_end(
    workload: Workload,
    measured: &Measured,
    setup_times: &[f64],
) -> Result<(Metrics, SampleCounts), String> {
    let window = measured.window();
    let commits = measured.commits();
    if commits == 0 {
        return Err("the measured window committed nothing".into());
    }
    let seconds = (window.1 - window.0) as f64 / 1e9;
    let first = &measured.marks[0].1;
    let last = &measured.marks.last().expect("a timed run has marks").1;
    let cpu_us = (last.cpu - first.cpu).as_micros() as f64;

    let mut counts = SampleCounts::new();
    let mut class = |name: &'static str, class: Option<Class>| -> Result<(f64, f64), String> {
        let latencies = window_latencies(&measured.logs, window, class);
        counts.push((name, latencies.len()));
        p50_p99_us(&latencies).map_err(|e| format!("{name} latency: {e}"))
    };
    let (txn_p50, txn_p99) = class("txn", None)?;
    let (write_p50, write_p99) = class("write", Some(Class::Write))?;
    let (long_p50, long_p99) = class("long", Some(Class::Long))?;
    let values = [
        quantile(setup_times, 0.5),
        commits as f64 / seconds,
        txn_p50,
        txn_p99,
        write_p50,
        write_p99,
        long_p50,
        long_p99,
        cpu_us / commits as f64,
        peak_rss_at_reference(workload, measured, commits),
    ];
    Ok((
        END_TO_END.iter().map(|m| m.name).zip(values).collect(),
        counts,
    ))
}
