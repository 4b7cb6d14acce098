//! E14 — closed-loop load generator for the TCP serving layer.
//!
//! Starts an in-process server over the standard cells environment, opens
//! `COLOCK_LOAD_SESSIONS` real loopback connections (default 1000), and
//! drives them from `COLOCK_LOAD_WORKERS` closed-loop worker threads: each
//! worker round-robins its share of sessions, running one transaction at a
//! time and recording the end-to-end latency (BEGIN to COMMIT acknowledged,
//! over the socket) in a `WaitHistogram`.
//!
//! Transaction mix (percentages of `COLOCK_LOAD_TXNS`, default 2000 total):
//! - 30 %: `BEGIN READONLY` + snapshot `GET` — never waits on long locks
//!   (the multiversion overlay).
//! - 20 %: `BEGIN LONG` + `CHECKOUT` / `CHECKIN` of a robot — durable long
//!   locks over the wire.
//! - remainder: short read-modify-write of a robot trajectory.
//!
//! 20 % of transactions go to cell 1 — a hot spot. Retryable refusals
//! (deadlock victim, admission BUSY, lock timeout) abort the attempt and
//! retry on the same session, as a closed-loop client would.
//!
//! The entire served window is traced, then linted against the §4.4.2 rules
//! and certified at the end.

use colock_bench::{f1, verify_window};
use colock_core::authorization::{Authorization, Right};
use colock_core::AccessMode;
use colock_nf2::Value;
use colock_server::client::Client;
use colock_server::session::{AdmissionPolicy, BACKOFF_FLOOR_MS};
use colock_server::wire::{parse_target, BeginKind, Role};
use colock_server::{Server, ServerConfig};
use colock_sim::{build_cells_store, CellsConfig};
use colock_testkit::{Backoff, Rng};
use colock_trace::WaitHistogram;
use colock_txn::{ProtocolKind, TransactionManager};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Percent of transactions that are read-only snapshot reads.
const READONLY_PCT: u64 = 30;
/// Percent of transactions that check a robot out and back in.
const CHECKOUT_PCT: u64 = 20;
/// Percent of transactions pinned to the cell-1 hot spot.
const SKEW_PCT: u64 = 20;

struct LoadConfig {
    sessions: usize,
    workers: usize,
    txns: u64,
    cells: usize,
    seed: u64,
}

struct WorkerReport {
    hist: WaitHistogram,
    committed: u64,
    retries: u64,
}

fn run_worker(
    addr: std::net::SocketAddr,
    cfg: &LoadConfig,
    worker_id: usize,
    budget: &AtomicU64,
) -> WorkerReport {
    let my_sessions = (cfg.sessions / cfg.workers).max(1);
    let mut clients: Vec<Client> = (0..my_sessions)
        .map(|i| {
            Client::connect(addr, &format!("lg-{worker_id}-{i}"), Role::Engineer)
                .expect("loadgen connect")
        })
        .collect();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ (worker_id as u64).wrapping_mul(0x9E37_79B9));
    // Retry pacing: deadlock/timeout retries draw pure jitter; admission
    // refusals additionally honor the server's hint, floored so a 0-ms (or
    // missing) hint can never turn the workers into a tight retry herd.
    let mut backoff = Backoff::new(cfg.seed ^ (worker_id as u64), 1, 8);
    let mut hist = WaitHistogram::default();
    let mut committed = 0u64;
    let mut retries = 0u64;
    let mut next = 0usize;

    while budget.fetch_sub(1, Ordering::Relaxed) as i64 > 0 {
        let slot = next % clients.len();
        let c = &mut clients[slot];
        next += 1;
        let cell = if rng.gen_range(0..100u64) < SKEW_PCT {
            1
        } else {
            rng.gen_range(0..cfg.cells) + 1
        };
        let robot = rng.gen_range(0..4usize) + 1;
        let draw = rng.gen_range(0..100u64);
        let started = Instant::now();
        let outcome = if draw < READONLY_PCT {
            run_readonly(c, cell, robot)
        } else if draw < READONLY_PCT + CHECKOUT_PCT {
            run_checkout(c, cell, robot)
        } else {
            run_rmw(c, cell, robot)
        };
        match outcome {
            Ok(()) => {
                hist.record(started.elapsed().as_micros() as u64);
                committed += 1;
                backoff.reset();
            }
            Err(e) => {
                // Closed loop: clean up and retry on this session later.
                let _ = c.abort();
                retries += 1;
                if !e.is_retryable() {
                    panic!("non-retryable server error in loadgen: {e}");
                }
                let hinted = match &e {
                    colock_server::client::ClientError::Server {
                        backoff_ms: Some(ms), ..
                    } => Some((*ms).max(BACKOFF_FLOOR_MS)),
                    _ => None,
                };
                let ms = hinted.unwrap_or(0) + backoff.next_delay();
                if ms > 0 {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                budget.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    for c in &mut clients {
        c.quit();
    }
    WorkerReport { hist, committed, retries }
}

type Outcome = Result<(), colock_server::client::ClientError>;

fn traj(cell: usize, robot: usize) -> colock_core::InstanceTarget {
    parse_target(&format!("rel:cells/obj:c{cell}/attr:robots/elem:r{robot}/attr:trajectory"))
        .expect("static target")
}

fn robot_target(cell: usize, robot: usize) -> colock_core::InstanceTarget {
    parse_target(&format!("rel:cells/obj:c{cell}/attr:robots/elem:r{robot}")).expect("static")
}

fn run_readonly(c: &mut Client, cell: usize, robot: usize) -> Outcome {
    c.begin(BeginKind::ReadOnly)?;
    c.get(&traj(cell, robot))?;
    c.commit()
}

fn run_checkout(c: &mut Client, cell: usize, robot: usize) -> Outcome {
    c.begin(BeginKind::Long)?;
    let target = robot_target(cell, robot);
    let copy = c.checkout(&target, AccessMode::Update)?;
    c.checkin(&target, copy)?;
    c.commit()
}

fn run_rmw(c: &mut Client, cell: usize, robot: usize) -> Outcome {
    c.begin(BeginKind::Short)?;
    let target = traj(cell, robot);
    let v = c.get(&target)?;
    let text = match v {
        Value::Str(s) => s,
        other => colock_server::client::value_text(&other),
    };
    c.put(&target, Value::str(format!("{}+", text.chars().take(24).collect::<String>())))?;
    c.commit()
}

fn main() {
    colock_trace::enable();
    let cfg = LoadConfig {
        sessions: env("COLOCK_LOAD_SESSIONS", 1000),
        workers: env("COLOCK_LOAD_WORKERS", 8),
        txns: env("COLOCK_LOAD_TXNS", 2000),
        cells: env("COLOCK_CELLS", 8),
        seed: env("COLOCK_SEED", 42),
    };

    let store = build_cells_store(&CellsConfig {
        n_cells: cfg.cells,
        c_objects_per_cell: 8,
        ..Default::default()
    });
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let manager =
        Arc::new(TransactionManager::over_store(store, authz, ProtocolKind::Proposed));
    let server = Server::start(
        manager,
        ServerConfig {
            max_sessions: cfg.sessions + 64,
            max_inflight: 256,
            admission: AdmissionPolicy::Queue,
            lock_wait: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let mark = colock_trace::current_seq();

    let budget = AtomicU64::new(cfg.txns);
    let started = Instant::now();
    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let cfg = &cfg;
                let budget = &budget;
                scope.spawn(move || run_worker(addr, cfg, w, budget))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).collect()
    });
    let elapsed = started.elapsed();

    let mut hist = WaitHistogram::default();
    let (mut committed, mut retries) = (0u64, 0u64);
    for r in &reports {
        hist.merge(&r.hist);
        committed += r.committed;
        retries += r.retries;
    }
    let sessions_served = cfg.workers * (cfg.sessions / cfg.workers).max(1);

    println!("# E14: served throughput over loopback TCP (closed loop)");
    println!(
        "sessions={} workers={} mix: {}% readonly / {}% checkout / {}% rmw, skew {}% to cell 1",
        sessions_served, cfg.workers, READONLY_PCT, CHECKOUT_PCT,
        100 - READONLY_PCT - CHECKOUT_PCT, SKEW_PCT
    );
    println!(
        "| committed | retries | txns/s | p50 (us) | p99 (us) | p999 (us) | mean (us) |"
    );
    println!("|---|---|---|---|---|---|---|");
    println!(
        "| {committed} | {retries} | {} | {} | {} | {} | {} |",
        f1(committed as f64 / elapsed.as_secs_f64()),
        hist.quantile_us(0.50),
        hist.quantile_us(0.99),
        hist.quantile_us(0.999),
        hist.mean_us(),
    );

    let manager = Arc::clone(server.manager());
    let stragglers = server.drain(Duration::from_secs(5));
    assert_eq!(stragglers, 0, "loadgen sessions must drain cleanly");
    assert_eq!(manager.active_count(), 0, "no transactions may survive the drain");
    assert!(committed + retries >= cfg.txns, "budget fully consumed");

    let (lint, cert) =
        verify_window("served trace", manager.store().catalog(), mark, &[manager.trace_instance()]);
    println!(
        "lint: {} events, {} grants checked, 0 violations",
        lint.events_seen, lint.grants_checked
    );
    println!(
        "certify: {} committed txn(s), {} edge(s), conflict graph acyclic",
        cert.txns_committed, cert.edges
    );
    println!("loadgen: ok");
}
