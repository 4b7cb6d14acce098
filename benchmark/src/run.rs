//! One benchmark run: set-up, closed loop, correctness gate, metrics.

use crate::drive::{run_clients, ClientLog, Plan, Runner};
use crate::env::{timed_setup, Env, Served};
use crate::fig7::Fig7Runner;
use crate::gen::{self, Targets};
use crate::layers::per_layer;
use crate::measure::end_to_end;
use crate::mix::{counter_of, mix_probe_txn, EmbeddedRunner, MixStream, ServedRunner};
use crate::probe::{lock_counts, ProbeTxn};
use crate::spec::Workload;
use crate::sys;
use colock_lockmgr::StatsSnapshot;
use colock_nf2::Value;
use colock_sim::CellsConfig;
use std::sync::Arc;
use std::time::Duration;

/// Stream positions generated per mix client (wraps if a run outlasts it).
const MIX_STREAM_LEN: usize = 1 << 21;
/// Stream positions generated per Fig. 7 client.
const FIG7_STREAM_LEN: usize = 1 << 17;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Measured seconds (`--seconds`).
    pub seconds: f64,
    /// Record spans and run the replay probes (per-layer metrics) instead of
    /// the end-to-end measurement.
    pub trace: bool,
}

/// `(metric name, value)` pairs, in `BENCHMARK.json` order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Latency samples behind each class's percentiles, `(class name, count)`.
pub type SampleCounts = Vec<(&'static str, usize)>;

/// A finished run.
pub struct RunOutput {
    /// `(metric name, value)`: every end-to-end metric for a plain run,
    /// every per-layer metric for a traced one.
    pub metrics: Metrics,
    /// Attempts that ended in the measured window: commits plus `failed`.
    pub attempted: u64,
    /// Attempts in the measured window that did not commit (deadlock
    /// victims, lock timeouts, `BUSY` refusals; each was retried).
    pub failed: u64,
    /// Latency samples behind each class's percentiles.
    pub sample_counts: SampleCounts,
    /// Span lines (`trace-<workload>.jsonl`), traced runs only.
    pub span_lines: Vec<String>,
}

/// Counters read at every mark while the clients run.
#[derive(Debug, Clone)]
pub(crate) struct Observation {
    pub(crate) cpu: Duration,
    pub(crate) peak_rss_mb: f64,
    pub(crate) lock: StatsSnapshot,
    pub(crate) versions_installed: u64,
    pub(crate) versions_pruned: u64,
    pub(crate) scan_visits: u64,
    pub(crate) journal_appends: u64,
    pub(crate) journal_bytes: u64,
}

pub(crate) fn observe(env: &Env) -> Observation {
    let store = env.manager.store();
    Observation {
        cpu: sys::process_cpu(),
        peak_rss_mb: sys::peak_rss_mb(),
        lock: env.manager.lock_manager().stats().snapshot(),
        versions_installed: store.versions_installed(),
        versions_pruned: store.versions_pruned(),
        scan_visits: store.scan_visits(),
        journal_appends: env.journal.appends(),
        journal_bytes: env.journal_bytes(),
    }
}

/// The database a workload runs over.
pub(crate) fn cells_of(workload: Workload) -> CellsConfig {
    match workload {
        Workload::Fig7Queries => gen::fig7_cells(),
        _ => gen::mix_cells(),
    }
}

fn plan_of(cfg: &RunConfig) -> Plan {
    let secs = |s: f64| Duration::from_secs_f64(s);
    if cfg.trace {
        // 80% of `--seconds` under load, the first half of it with spans
        // off (what `tracing.overhead_share` compares the traced half
        // with); the rest is left to the replay probes.
        Plan::Timed {
            warmup: secs(cfg.seconds.min(10.0) * 0.1),
            plain: secs(cfg.seconds * 0.4),
            traced: secs(cfg.seconds * 0.4),
        }
    } else {
        Plan::Timed {
            warmup: secs(cfg.seconds.min(10.0) * 0.2),
            plain: secs(cfg.seconds),
            traced: Duration::ZERO,
        }
    }
}

/// What the correctness gate needs from the runners after the run.
pub(crate) enum FinalState {
    /// Mix workloads: short write transactions committed.
    Counters { committed_writes: u64 },
    /// Fig. 7: per client, per write slot, the last committed literal.
    Literals {
        last_writes: Vec<Vec<Option<Arc<str>>>>,
        statements: u64,
        rows: u64,
    },
}

/// What a closed-loop run leaves behind.
pub(crate) struct Measured {
    /// Per client: samples and spans.
    pub(crate) logs: Vec<ClientLog>,
    /// Counters read at every mark of the plan, with the time (ns since the
    /// run epoch) they were read.
    pub(crate) marks: Vec<(u64, Observation)>,
    /// What the correctness gate checks the store against.
    pub(crate) state: FinalState,
}

impl Measured {
    /// The measured window `[from, to)`, ns since the run epoch: first mark
    /// to last.
    pub(crate) fn window(&self) -> (u64, u64) {
        let last = self.marks.last().expect("a timed run has marks");
        (self.marks[0].0, last.0)
    }

    /// Transactions that committed in `[from, to)`.
    pub(crate) fn commits_in(&self, from: u64, to: u64) -> usize {
        let samples = self.logs.iter().flat_map(|l| &l.samples);
        samples.filter(|s| (from..to).contains(&s.end_ns)).count()
    }

    /// Transactions that committed in the measured window.
    pub(crate) fn commits(&self) -> usize {
        let (from, to) = self.window();
        self.commits_in(from, to)
    }

    /// Attempts that ended in the measured window without committing.
    pub(crate) fn failed(&self) -> usize {
        let (from, to) = self.window();
        let ends = self.logs.iter().flat_map(|l| &l.failed_attempts);
        ends.filter(|t| (from..to).contains(t)).count()
    }
}

fn split<R: Runner>(pairs: Vec<(R, ClientLog)>) -> (Vec<R>, Vec<ClientLog>) {
    pairs.into_iter().unzip()
}

/// Which clients to run: the first `runners` of the workload's `clients`
/// (`runners < clients` is the solo replay), each on a pre-generated stream
/// of `stream_len` positions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Load {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    pub(crate) runners: usize,
    pub(crate) clients: usize,
    pub(crate) stream_len: usize,
}

/// The pre-generated transaction streams of a [`Load`], one per runner.
pub(crate) enum Streams {
    /// The E14 mix.
    Mix(Vec<Vec<gen::MixTxn>>),
    /// Fig. 7 queries.
    Fig7(Vec<Vec<gen::Fig7Txn>>),
}

impl Load {
    /// Generates the streams (`clients` decides which cells a
    /// `parallel_disjoint` thread is confined to).
    pub(crate) fn generate(&self, targets: &Targets) -> Streams {
        let Load {
            workload,
            seed,
            runners,
            clients,
            stream_len,
        } = *self;
        if workload == Workload::Fig7Queries {
            let cells = gen::fig7_cells();
            return Streams::Fig7(
                (0..runners)
                    .map(|c| gen::fig7_stream(seed, c, stream_len, &cells))
                    .collect(),
            );
        }
        let cells = gen::mix_cells().n_cells;
        Streams::Mix(
            (0..runners)
                .map(|c| {
                    let (allowed, skew) = match workload {
                        Workload::ParallelDisjoint => (gen::disjoint_cells(c, clients, cells), 0),
                        _ => ((0..cells).collect(), gen::MIX_SKEW_PCT),
                    };
                    let mut stream = gen::mix_stream(seed, c, stream_len, targets, &allowed, skew);
                    if workload == Workload::ServedMix {
                        // Clients lock disjoint robots: no attempt can fail.
                        let total = targets.robot.len();
                        for t in stream.iter_mut().filter(|t| t.class != gen::Class::Read) {
                            t.slot = gen::own_slot(t.slot as usize, c, clients, total) as u16;
                        }
                    }
                    stream
                })
                .collect(),
        )
    }
}

/// The runners of one workload, one per client thread.
pub(crate) enum Runners<'a> {
    /// `served_mix`.
    Served(Vec<ServedRunner<'a>>),
    /// `embedded_mix`, `parallel_disjoint`.
    Embedded(Vec<EmbeddedRunner<'a>>),
    /// `fig7_queries`.
    Fig7(Vec<Fig7Runner<'a>>),
}

impl Runners<'_> {
    /// The first client's runner.
    pub(crate) fn first_mut(&mut self) -> &mut dyn Runner {
        match self {
            Runners::Served(r) => &mut r[0],
            Runners::Embedded(r) => &mut r[0],
            Runners::Fig7(r) => &mut r[0],
        }
    }
}

/// Builds the runners of `streams` over an already set-up system. A served
/// workload's connections move out of `served` into the runners.
pub(crate) fn build_runners<'a>(
    streams: Streams,
    env: &'a Env,
    served: Option<&mut Served>,
    targets: &'a Targets,
) -> Runners<'a> {
    let streams = match streams {
        Streams::Fig7(streams) => {
            let slots = targets.robot.len() + targets.tool.len();
            return Runners::Fig7(
                streams
                    .into_iter()
                    .map(|stream| Fig7Runner {
                        manager: &env.manager,
                        targets,
                        optimizer: colock_core::Optimizer::default(),
                        stream,
                        last_write: vec![None; slots],
                        statements: 0,
                        rows: 0,
                    })
                    .collect(),
            );
        }
        Streams::Mix(streams) => streams.into_iter().map(|stream| MixStream {
            targets,
            stream,
            committed_writes: 0,
        }),
    };
    match served {
        Some(served) => Runners::Served(
            std::mem::take(&mut served.clients)
                .into_iter()
                .zip(streams)
                .map(|(client, mix)| ServedRunner { client, mix })
                .collect(),
        ),
        None => Runners::Embedded(
            streams
                .map(|mix| EmbeddedRunner {
                    manager: &env.manager,
                    mix,
                })
                .collect(),
        ),
    }
}

/// Runs one client per stream under `plan`.
pub(crate) fn drive(
    streams: Streams,
    seed: u64,
    plan: Plan,
    env: &Env,
    mut served: Option<&mut Served>,
    targets: &Arc<Targets>,
) -> Result<Measured, String> {
    let observe = || observe(env);
    let built = build_runners(streams, env, served.as_deref_mut(), targets);
    // What a mix run leaves behind, whichever driver ran it.
    let mix_measured = |streams: Vec<MixStream<'_>>, logs, marks| Measured {
        logs,
        marks,
        state: FinalState::Counters {
            committed_writes: streams.iter().map(|s| s.committed_writes).sum(),
        },
    };
    match built {
        Runners::Fig7(runners) => {
            let (pairs, marks) = run_clients(runners, plan, seed, observe)?;
            let (mut runners, logs) = split(pairs);
            let state = FinalState::Literals {
                statements: runners.iter().map(|r| r.statements).sum(),
                rows: runners.iter().map(|r| r.rows).sum(),
                last_writes: runners
                    .iter_mut()
                    .map(|r| std::mem::take(&mut r.last_write))
                    .collect(),
            };
            Ok(Measured { logs, marks, state })
        }
        Runners::Served(runners) => {
            let (pairs, marks) = run_clients(runners, plan, seed, observe)?;
            let (runners, logs) = split(pairs);
            // The connections go back to the served system for its shutdown.
            let served = served.expect("served runners come from a served system");
            let mut streams = Vec::new();
            for r in runners {
                served.clients.push(r.client);
                streams.push(r.mix);
            }
            Ok(mix_measured(streams, logs, marks))
        }
        Runners::Embedded(runners) => {
            let (pairs, marks) = run_clients(runners, plan, seed, observe)?;
            let (runners, logs) = split(pairs);
            Ok(mix_measured(
                runners.into_iter().map(|r| r.mix).collect(),
                logs,
                marks,
            ))
        }
    }
}

/// The correctness gate: outputs are right and nothing leaked. A failed
/// check fails the run; no metric is printed.
pub(crate) fn gate(
    workload: Workload,
    env: &Env,
    targets: &Targets,
    measured: &Measured,
    stragglers: Option<usize>,
) -> Result<(), String> {
    let mgr = &env.manager;
    let store = mgr.store();
    let value_at = |t: &colock_core::InstanceTarget| -> Result<Value, String> {
        let key = t.object.as_ref().expect("stream targets name an object");
        store
            .get_at(&t.relation, key, &t.steps)
            .map_err(|e| format!("final read of {t}: {e}"))
    };
    match &measured.state {
        FinalState::Counters { committed_writes } => {
            // Lost-update check: every short write bumped one counter.
            let mut sum = 0u64;
            for t in &targets.trajectory {
                sum += counter_of(&value_at(t)?);
            }
            if sum != *committed_writes {
                return Err(format!(
                    "lost update: final counters sum to {sum}, {committed_writes} write transactions committed"
                ));
            }
        }
        FinalState::Literals { last_writes, .. } => {
            // Each target holds the last committed write of some client.
            let robots = targets.trajectory.len();
            for slot in 0..robots + targets.tool.len() {
                let candidates: Vec<&str> = last_writes
                    .iter()
                    .filter_map(|c| c[slot].as_deref())
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let t = if slot < robots {
                    &targets.trajectory[slot]
                } else {
                    &targets.tool[slot - robots]
                };
                match value_at(t)? {
                    Value::Str(s) if candidates.contains(&s.as_str()) => {}
                    other => {
                        return Err(format!(
                            "lost update: {t} ends as {other:?}, no client's last committed write ({candidates:?})"
                        ))
                    }
                }
            }
        }
    }
    if mgr.active_count() != 0 {
        return Err(format!(
            "{} transaction(s) still active",
            mgr.active_count()
        ));
    }
    let lm = mgr.lock_manager();
    if lm.table_size() != 0 {
        return Err(format!(
            "lock table holds {} resource(s) after the run",
            lm.table_size()
        ));
    }
    lm.check_summary_consistency()
        .map_err(|e| format!("summary words inconsistent: {e}"))?;
    let s = lm.stats().snapshot();
    if s.fastpath_hits + s.fastpath_fallbacks != s.intent_acquires {
        return Err(format!(
            "fast-path accounting: {} hits + {} fallbacks != {} intent acquires",
            s.fastpath_hits, s.fastpath_fallbacks, s.intent_acquires
        ));
    }
    if let Some(n) = stragglers.filter(|&n| n > 0) {
        return Err(format!(
            "server drain had to close {n} straggler session(s)"
        ));
    }
    if workload == Workload::EmbeddedMix {
        // One client and no timers: nothing may fail or wait.
        let failed: usize = measured.logs.iter().map(|l| l.failed_attempts.len()).sum();
        if failed != 0 || s.waits != 0 {
            return Err(format!(
                "embedded_mix had {failed} failed attempt(s) and {} lock wait(s)",
                s.waits
            ));
        }
    }
    Ok(())
}

/// Stream positions a timed run of `workload` pre-generates per client
/// (it wraps if a run outlasts them).
fn stream_len(workload: Workload) -> usize {
    match workload {
        Workload::Fig7Queries => FIG7_STREAM_LEN,
        _ => MIX_STREAM_LEN,
    }
}

/// Runs one workload once.
pub fn run_workload(cfg: &RunConfig) -> Result<RunOutput, String> {
    let workload = cfg.workload;
    let clients = workload.clients();
    let cells = cells_of(workload);
    let targets = Arc::new(Targets::new(&cells));
    let served_clients = (workload == Workload::ServedMix).then_some(clients);

    let (env, mut served, setup_times) = timed_setup(&cells, served_clients);
    // The load generator's own preparation, outside `setup_s`.
    let load = Load {
        workload,
        seed: cfg.seed,
        runners: clients,
        clients,
        stream_len: stream_len(workload),
    };
    let streams = load.generate(&targets);
    let measured = drive(
        streams,
        cfg.seed,
        plan_of(cfg),
        &env,
        served.as_mut(),
        &targets,
    )?;

    let admission_peak = match served.as_mut() {
        Some(s) => s.clients[0]
            .stats()
            .map_err(|e| format!("STATS: {e}"))?
            .into_iter()
            .find(|(name, _)| name == "txns.inflight_peak")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0.0),
        None => 0.0,
    };
    let stragglers = served.map(Served::stop);
    gate(workload, &env, &targets, &measured, stragglers)?;

    let failed = measured.failed() as u64;
    let attempted = measured.commits() as u64 + failed;
    let (metrics, sample_counts, span_lines) = if cfg.trace {
        let (metrics, span_lines) = per_layer(cfg, &targets, &measured, admission_peak)?;
        (metrics, Vec::new(), span_lines)
    } else {
        let (metrics, sample_counts) = end_to_end(workload, &measured, &setup_times)?;
        (metrics, sample_counts, Vec::new())
    };
    Ok(RunOutput {
        metrics,
        attempted,
        failed,
        sample_counts,
        span_lines,
    })
}

/// The count metrics of a count-bounded `embedded_mix` run: exactly `txns`
/// transactions of the seed's stream on one thread. With one client and no
/// timers these repeat exactly for a seed (`tests/determinism.rs`).
pub fn embedded_counts(seed: u64, txns: u64) -> Result<Metrics, String> {
    let workload = Workload::EmbeddedMix;
    let cells = cells_of(workload);
    let targets = Arc::new(Targets::new(&cells));
    let env = Env::new(&cells);
    let before = observe(&env);
    let plan = Plan::Count { txns };
    let load = Load {
        workload,
        seed,
        runners: 1,
        clients: 1,
        stream_len: txns as usize,
    };
    let streams = load.generate(&targets);
    let probe_txns: Vec<ProbeTxn> = match &streams {
        Streams::Mix(s) => s[0].iter().map(|&t| mix_probe_txn(t, &targets)).collect(),
        Streams::Fig7(_) => unreachable!("embedded_mix runs the mix"),
    };
    let measured = drive(streams, seed, plan, &env, None, &targets)?;
    gate(workload, &env, &targets, &measured, None)?;
    let after = observe(&env);
    let lock = after.lock.since(&before.lock);
    let (locks, _, _) = lock_counts(&cells, &probe_txns);
    let per_txn = |n: u64| n as f64 / txns as f64;
    Ok(vec![
        ("core.locks_per_txn", per_txn(locks)),
        ("lockmgr.requests_per_txn", per_txn(lock.requests)),
        (
            "lockmgr.conflict_tests_per_txn",
            per_txn(lock.conflict_tests),
        ),
        (
            "lockmgr.journal_appends_per_txn",
            per_txn(after.journal_appends - before.journal_appends),
        ),
        (
            "storage.versions_installed_per_txn",
            per_txn(after.versions_installed - before.versions_installed),
        ),
    ])
}
