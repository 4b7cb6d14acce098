//! Per-layer metrics from a traced run: the spans of the traced window, the
//! solo replay, the replay probes and the counters read at the marks.

use crate::drive::{ClientLog, Tracer};
use crate::env::{Env, Served};
use crate::gen::{Class, Targets};
use crate::measure::{p50_p99_us, window_latencies};
use crate::mix::mix_probe_txn;
use crate::probe::{budget, fig7_probe_txns, run_probes, Boundary, ProbeTxn, Probes, SpanStats};
use crate::run::{
    build_runners, cells_of, FinalState, Load, Measured, Metrics, RunConfig, Runners, Streams,
};
use crate::spec::{Workload, PER_LAYER};
use std::sync::Arc;

/// Transactions of client 0's stream replayed solo and through the probes.
/// Fixed per workload so the counts derived from them repeat.
fn replay_len(workload: Workload) -> usize {
    match workload {
        Workload::ServedMix => 3_000,
        Workload::EmbeddedMix | Workload::ParallelDisjoint => 12_000,
        Workload::Fig7Queries => 2_000,
    }
}

/// Cost of a disabled `colock_trace::emit`, ns — the floor every
/// instrumented path pays.
fn disabled_emit_ns() -> f64 {
    const N: u64 = 20_000_000;
    assert!(!colock_trace::is_enabled(), "measured with tracing off");
    let t0 = std::time::Instant::now();
    for i in 0..N {
        colock_trace::emit(|| {
            colock_trace::Event::new(colock_trace::EventKind::TxnBegin, std::hint::black_box(i))
        });
        std::hint::black_box(i);
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

fn span_lines(workload: Workload, logs: &[ClientLog]) -> Vec<String> {
    /// Transactions written per client; the statistics use all of them.
    const KEEP: usize = 20_000;
    let layer = match workload {
        Workload::ServedMix => "client",
        Workload::Fig7Queries => "query",
        _ => "txn",
    };
    let mut lines = Vec::new();
    for (client, log) in logs.iter().enumerate() {
        let keep = log.tracer.txns.len().min(KEEP);
        for (i, t) in log.tracer.txns[..keep].iter().enumerate() {
            lines.push(format!(
                r#"{{"span":"txn","client":{client},"seq":{i},"txn":{},"class":"{:?}","start_ns":{},"end_ns":{},"attempts":{}}}"#,
                t.txn_id, t.class, t.start_ns, t.end_ns, t.attempts
            ));
        }
        for c in log
            .tracer
            .calls
            .iter()
            .filter(|c| (c.parent as usize) < keep)
        {
            let parent = &log.tracer.txns[c.parent as usize];
            lines.push(format!(
                r#"{{"span":"{layer}.{}","client":{client},"parent_seq":{},"txn":{},"start_ns":{},"end_ns":{}}}"#,
                c.call.name(), c.parent, parent.txn_id, c.start_ns, c.end_ns
            ));
        }
    }
    lines
}

/// The first [`replay_len`] transactions of client 0's stream, on a fresh
/// system: replayed solo with spans on, taking turns with the probes.
/// Returns the solo spans and the probes' times and counts.
fn replay(cfg: &RunConfig, targets: &Arc<Targets>) -> Result<(SpanStats, Probes), String> {
    let workload = cfg.workload;
    let cells = cells_of(workload);
    let is_served = workload == Workload::ServedMix;
    let env = Env::new(&cells);
    let mut served = is_served.then(|| Served::start(&env, 1));
    let load = Load {
        workload,
        seed: cfg.seed,
        runners: 1,
        clients: workload.clients(),
        stream_len: replay_len(workload),
    };
    let streams = load.generate(targets);
    // Client 0's stream in probe form, before the runner takes it.
    let txns: Vec<ProbeTxn> = match &streams {
        Streams::Mix(s) => s[0].iter().map(|&t| mix_probe_txn(t, targets)).collect(),
        Streams::Fig7(s) => fig7_probe_txns(&cells, targets, &s[0]),
    };
    let mut built = build_runners(streams, &env, served.as_mut(), targets);
    let mut tracer = Tracer::recording();
    let probes = run_probes(&cells, &txns, is_served, |i| {
        tracer.solo_txn(built.first_mut(), i)
    });
    if let (Runners::Served(r), Some(served)) = (built, served.as_mut()) {
        // The connection goes back for the shutdown.
        served.clients.extend(r.into_iter().map(|r| r.client));
    }
    if let Some(s) = served {
        s.stop();
    }
    Ok((SpanStats::from_tracers([&tracer]), probes?))
}

/// Every per-layer metric of a traced run, and its span lines.
pub(crate) fn per_layer(
    cfg: &RunConfig,
    targets: &Arc<Targets>,
    measured: &Measured,
    admission_peak: f64,
) -> Result<(Metrics, Vec<String>), String> {
    let workload = cfg.workload;
    let loaded = SpanStats::from_tracers(measured.logs.iter().map(|l| &l.tracer));
    if loaded.txns == 0 {
        return Err("the traced window committed nothing".into());
    }
    let (solo, probes) = replay(cfg, targets)?;
    let boundary = match workload {
        Workload::ServedMix => Boundary::Served,
        Workload::Fig7Queries => Boundary::Query,
        _ => Boundary::Embedded,
    };
    let b = budget(boundary, &loaded, &solo, &probes);

    // Counts: deltas over the whole window per transaction committed in it.
    let window = measured.window();
    let before = &measured.marks[0].1;
    let after = &measured.marks.last().expect("a timed run has marks").1;
    let commits = measured.commits().max(1) as f64;
    let lock = after.lock.since(&before.lock);
    let per_txn = |n: u64| n as f64 / commits;
    let per_ktxn = |n: u64| n as f64 * 1000.0 / commits;
    let failed = measured.failed() as f64;
    // Throughput of the plain and of the traced part of the window.
    let tps = |from: u64, to: u64| measured.commits_in(from, to) as f64 * 1e9 / (to - from) as f64;
    let switch = measured.marks[1].0;
    let (plain_tps, traced_tps) = (tps(window.0, switch), tps(switch, window.1));

    // The demoted read-class latencies, over the whole window.
    let reads = window_latencies(&measured.logs, window, Some(Class::Read));
    let (read_p50, read_p99) = p50_p99_us(&reads).map_err(|e| format!("read latency: {e}"))?;

    let probed = probes.txns.max(1) as f64;
    let (statements, rows) = match &measured.state {
        FinalState::Literals {
            statements, rows, ..
        } => (*statements, *rows),
        FinalState::Counters { .. } => (0, 0),
    };
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };

    let mut out: Metrics = b.self_us.clone();
    out.extend([
        ("failed_share", failed / (commits + failed)),
        ("read_p50_us", read_p50),
        ("read_p99_us", read_p99),
        ("server.requests_per_txn", probes.requests as f64 / probed),
        ("server.bytes_per_txn", probes.wire_bytes as f64 / probed),
        ("server.admission_peak", admission_peak),
        (
            "server.busy_refusals",
            measured.logs.iter().map(|l| l.busy_refusals).sum::<u64>() as f64,
        ),
        ("query.rows_per_stmt", ratio(rows, statements)),
        ("txn.retries_per_commit", loaded.retries_per_commit),
        ("txn.interference_us", b.interference_us),
        ("core.locks_per_txn", probes.locks as f64 / probed),
        (
            "core.entry_point_locks_per_txn",
            probes.entry_points as f64 / probed,
        ),
        (
            "core.weakened_locks_per_txn",
            probes.weakened as f64 / probed,
        ),
        ("lockmgr.requests_per_txn", per_txn(lock.requests)),
        (
            "lockmgr.conflict_tests_per_txn",
            per_txn(lock.conflict_tests),
        ),
        ("lockmgr.waits_per_txn", per_txn(lock.waits)),
        ("lockmgr.wakeups_per_txn", per_txn(lock.wakeups)),
        ("lockmgr.deadlocks_per_ktxn", per_ktxn(lock.deadlocks)),
        (
            "lockmgr.detector_runs_per_ktxn",
            per_ktxn(lock.detector_runs),
        ),
        (
            "lockmgr.fastpath_hit_ratio",
            ratio(lock.fastpath_hits, lock.intent_acquires),
        ),
        (
            "lockmgr.fastpath_retries_per_ktxn",
            per_ktxn(lock.fastpath_retries),
        ),
        (
            "lockmgr.fastpath_drains_per_ktxn",
            per_ktxn(lock.fastpath_drains),
        ),
        ("lockmgr.reads_elided_per_txn", per_txn(lock.reads_elided)),
        ("lockmgr.max_table_entries", lock.max_table_entries as f64),
        (
            "lockmgr.journal_appends_per_txn",
            per_txn(after.journal_appends - before.journal_appends),
        ),
        (
            "lockmgr.journal_bytes_per_txn",
            per_txn(after.journal_bytes - before.journal_bytes),
        ),
        (
            "storage.versions_installed_per_txn",
            per_txn(after.versions_installed - before.versions_installed),
        ),
        (
            "storage.versions_pruned_per_txn",
            per_txn(after.versions_pruned - before.versions_pruned),
        ),
        (
            "storage.scan_visits_per_txn",
            per_txn(after.scan_visits - before.scan_visits),
        ),
        (
            "storage.value_bytes_per_read",
            ratio(probes.read_bytes, probes.reads),
        ),
        ("trace.disabled_emit_ns", disabled_emit_ns()),
        ("budget.coverage", b.coverage),
        (
            "tracing.overhead_share",
            if plain_tps > 0.0 {
                (plain_tps - traced_tps) / plain_tps
            } else {
                0.0
            },
        ),
    ]);
    // Report in the order BENCHMARK.json lists them.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = out
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not computed", m.name))
                .1;
            (m.name, value)
        })
        .collect();
    Ok((metrics, span_lines(workload, &measured.logs)))
}
