//! The fixed names of the benchmark: workloads and metrics.
//!
//! `BENCHMARK.json` at the repo root lists the same names with the same
//! units and bounds (`tests/spec.rs` checks the two agree); every later issue
//! refers to these names.

/// One of the four closed-loop workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E14's mix over loopback TCP through `Server::start` and `Client`.
    ServedMix,
    /// The same stream issued in-process by one thread.
    EmbeddedMix,
    /// The same mix on `nproc` threads, each confined to its own cells.
    ParallelDisjoint,
    /// The paper's Fig. 7 scenario through the `query` crate on a
    /// non-disjoint hot set.
    Fig7Queries,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ServedMix,
        Workload::EmbeddedMix,
        Workload::ParallelDisjoint,
        Workload::Fig7Queries,
    ];

    /// The workloads `BENCHMARK.json` lists, i.e. the ones a driver gates
    /// later changes on: all but `embedded_mix`.
    ///
    /// One thread of pure CPU-bound work runs at the speed of the core it is
    /// on, and in rough hours the reference host gives a lone busy vCPU one
    /// of two speeds some 1.6x apart, in spells of about a minute: ten
    /// whole-window `embedded_mix` runs then spread over 34% in `txn_per_s`
    /// and 40-50% in the latencies, beyond the largest bound a metric may
    /// have, while the multi-threaded workloads (mostly cache-line transfers
    /// and wake-ups) spread over 2-12%. `embedded_mix` stays in the suite for
    /// its counts, which repeat exactly, and its per-layer budget;
    /// `parallel_disjoint` runs the same engine code and is the gate for it.
    pub const GATED: [Workload; 3] = [
        Workload::ServedMix,
        Workload::ParallelDisjoint,
        Workload::Fig7Queries,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedMix => "served_mix",
            Workload::EmbeddedMix => "embedded_mix",
            Workload::ParallelDisjoint => "parallel_disjoint",
            Workload::Fig7Queries => "fig7_queries",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServedMix => "E14 mix over loopback TCP, nproc closed-loop connections locking disjoint robots (no attempt can fail): the server crate does most of the work; the operator's headline",
            Workload::EmbeddedMix => "the same stream in-process on one thread: bypasses server, loads core/lockmgr/storage/txn; no waits, counts repeat exactly",
            Workload::ParallelDisjoint => "the same mix on nproc threads confined to disjoint cells: no logical conflict, so any loss against embedded_mix is physical sharing",
            Workload::Fig7Queries => "the paper's Fig. 7 queries via the query crate on a non-disjoint hot set: blocking lock path, large values, the only workload entering query",
        }
    }

    /// Client threads this workload drives on this host.
    pub fn clients(self) -> usize {
        match self {
            Workload::EmbeddedMix => 1,
            _ => crate::sys::client_count(),
        }
    }
}

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric name with its unit and direction; end-to-end metrics also carry
/// the share of the parent's median by which they may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Fixed name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only; 0 for per-layer).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported per workload with spans off, each over the
/// whole measured window.
///
/// Three of the issue's thirteen are reported per layer instead:
///
/// * `failed_share` is 0 on every workload (each is built so that no
///   attempt can fail) and a bounded metric may never be 0; every result
///   line carries the `failed` and `attempted` counts it is made of.
/// * `read_p50_us` and `read_p99_us` spread too widely on the reference host
///   (ten-run quartile spread 21% for `read_p99_us` on `served_mix`, where a
///   read is three ~15 µs round trips and the tail is the kernel's wake-up
///   latency, and 21% for `read_p50_us` on `fig7_queries`): within a fifth of
///   the largest bound a metric may have. Demoted, as the issue's
///   `--selfcheck` item provides; reads still count in `txn_p50_us` and
///   `txn_p99_us`.
///
/// The bounds of the time-based metrics are 0.25, not the issue's 0.10: ten
/// runs of one commit spread over up to 12% on the reference host (see the
/// README), and a bound should be some three times the spread.
pub const END_TO_END: [MetricSpec; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("txn_per_s", "1/s", Higher, 0.25),
    e2e("txn_p50_us", "us", Lower, 0.25),
    e2e("txn_p99_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("write_p99_us", "us", Lower, 0.25),
    e2e("long_p50_us", "us", Lower, 0.25),
    e2e("long_p99_us", "us", Lower, 0.25),
    e2e("cpu_us_per_txn", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Per-layer metrics (layer = crate), from the run with spans on and the
/// replay probes. `_us` values are means per committed transaction.
pub const PER_LAYER: [MetricSpec; 52] = [
    layer("failed_share", "share", Lower),
    layer("read_p50_us", "us", Lower),
    layer("read_p99_us", "us", Lower),
    layer("server.transport_us", "us", Lower),
    layer("server.frame_us", "us", Lower),
    layer("server.wire_us", "us", Lower),
    layer("server.session_us", "us", Lower),
    layer("server.requests_per_txn", "count", Lower),
    layer("server.bytes_per_txn", "bytes", Lower),
    layer("server.admission_peak", "count", Lower),
    layer("server.busy_refusals", "count", Lower),
    layer("query.parse_us", "us", Lower),
    layer("query.analyze_us", "us", Lower),
    layer("query.plan_us", "us", Lower),
    layer("query.exec_us", "us", Lower),
    layer("query.rows_per_stmt", "count", Lower),
    layer("txn.begin_us", "us", Lower),
    layer("txn.op_us", "us", Lower),
    layer("txn.commit_us", "us", Lower),
    layer("txn.abort_us", "us", Lower),
    layer("txn.retries_per_commit", "ratio", Lower),
    layer("txn.interference_us", "us", Lower),
    layer("core.resolve_us", "us", Lower),
    layer("core.protocol_us", "us", Lower),
    layer("core.locks_per_txn", "count", Lower),
    layer("core.entry_point_locks_per_txn", "count", Lower),
    layer("core.weakened_locks_per_txn", "count", Higher),
    layer("lockmgr.acquire_us", "us", Lower),
    layer("lockmgr.requests_per_txn", "count", Lower),
    layer("lockmgr.conflict_tests_per_txn", "count", Lower),
    layer("lockmgr.waits_per_txn", "count", Lower),
    layer("lockmgr.wakeups_per_txn", "count", Lower),
    layer("lockmgr.deadlocks_per_ktxn", "count", Lower),
    layer("lockmgr.detector_runs_per_ktxn", "count", Lower),
    layer("lockmgr.fastpath_hit_ratio", "ratio", Higher),
    layer("lockmgr.fastpath_retries_per_ktxn", "count", Lower),
    layer("lockmgr.fastpath_drains_per_ktxn", "count", Lower),
    layer("lockmgr.reads_elided_per_txn", "count", Higher),
    layer("lockmgr.max_table_entries", "count", Lower),
    layer("lockmgr.journal_append_us", "us", Lower),
    layer("lockmgr.journal_appends_per_txn", "count", Lower),
    layer("lockmgr.journal_bytes_per_txn", "bytes", Lower),
    layer("storage.read_us", "us", Lower),
    layer("storage.write_us", "us", Lower),
    layer("storage.install_us", "us", Lower),
    layer("storage.versions_installed_per_txn", "count", Lower),
    layer("storage.versions_pruned_per_txn", "count", Higher),
    layer("storage.scan_visits_per_txn", "count", Lower),
    layer("storage.value_bytes_per_read", "bytes", Lower),
    layer("trace.disabled_emit_ns", "ns", Lower),
    layer("budget.coverage", "ratio", Higher),
    layer("tracing.overhead_share", "share", Lower),
];

/// Looks a metric up in either list.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
/// 4 + 22 × 3 runs of about 40 s each plus two builds of under a minute
/// stay inside the driver's 3420 s.
pub const RUN_SECONDS: u32 = 36;

/// The text of `BENCHMARK.json`: the contract the driver checks the
/// benchmark against, generated from the lists above so the two cannot
/// drift (`tests/spec.rs` compares the committed file to this).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let list = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&list(
        Workload::GATED
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name(),
                    w.why()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}
