//! System set-up: what `setup_s` times.
//!
//! Every manager runs the production configuration of `colock_server`:
//! `ProtocolKind::Proposed`, effectors read-only for engineers (rule 4′), an
//! in-memory `Journal` attached, MVCC / fast path / semantic modes on,
//! `colock_trace` off.

use colock_core::authorization::{Authorization, Right};
use colock_core::ResourcePath;
use colock_lockmgr::Journal;
use colock_server::session::AdmissionPolicy;
use colock_server::wire::Role;
use colock_server::{Client, Server, ServerConfig};
use colock_sim::{build_cells_store, CellsConfig};
use colock_txn::{ProtocolKind, TransactionManager};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request lock-wait budget, as `loadgen` configures its server. The
/// in-process workloads give their transactions the same budget.
pub const LOCK_WAIT: Duration = Duration::from_secs(2);

/// The engineers' rights matrix: everything updatable except the shared
/// effectors library.
pub fn engineer_authz() -> Authorization {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    authz
}

/// A manager over a fresh cells store with a journal attached.
pub struct Env {
    /// The transaction manager (production configuration).
    pub manager: Arc<TransactionManager>,
    /// Its long-lock journal.
    pub journal: Arc<Journal<ResourcePath>>,
}

impl Env {
    /// Builds store, manager and journal.
    pub fn new(cells: &CellsConfig) -> Env {
        let manager = Arc::new(TransactionManager::over_store(
            build_cells_store(cells),
            engineer_authz(),
            ProtocolKind::Proposed,
        ));
        // The defaults, pinned so a stray COLOCK_NO_* variable in the
        // caller's environment cannot change what is measured.
        manager.set_mvcc(true);
        manager.set_semantic(true);
        manager.lock_manager().set_fastpath(true);
        let journal = Arc::new(Journal::new());
        assert!(
            manager.attach_journal(Arc::clone(&journal)),
            "fresh manager has no journal"
        );
        Env { manager, journal }
    }

    /// Bytes on the journal medium.
    pub fn journal_bytes(&self) -> u64 {
        self.journal.medium().lock().expect("journal medium").len() as u64
    }
}

/// A served [`Env`]: the server plus one connected client per load thread.
pub struct Served {
    /// The running server.
    pub server: Server,
    /// One engineer connection per client thread.
    pub clients: Vec<Client>,
}

impl Served {
    /// Starts a loopback server over `env` and connects `clients` sessions.
    pub fn start(env: &Env, clients: usize) -> Served {
        let server = Server::start(
            Arc::clone(&env.manager),
            ServerConfig {
                max_sessions: clients + 64,
                max_inflight: 256,
                admission: AdmissionPolicy::Queue,
                lock_wait: LOCK_WAIT,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        let addr = server.addr();
        let clients = (0..clients)
            .map(|i| {
                Client::connect(addr, &format!("bench-{i}"), Role::Engineer)
                    .expect("connect to the benchmark's own server")
            })
            .collect();
        Served { server, clients }
    }

    /// Quits every client and drains the server; returns the sessions the
    /// drain had to close forcibly (must be 0).
    pub fn stop(mut self) -> usize {
        for c in &mut self.clients {
            c.quit();
        }
        drop(self.clients);
        self.server.drain(Duration::from_secs(5))
    }
}

/// Set-up repetitions per run; `setup_s` is their median. About a second
/// of them: the reference host runs a lone thread at one of two speeds some
/// 1.5x apart in spells of 0.1 s and longer (the first 0.2 s after an idle
/// second are often the slower), and a short series sits in one spell.
pub const SETUP_REPS: usize = 1201;

/// Sets the system up [`SETUP_REPS`] times — store, manager, journal and,
/// when `served_clients` is given, server and connections — and keeps the
/// last repetition. Returns the wall time (s) of every repetition.
///
/// Only the system is timed: the load generator's streams are built
/// afterwards, outside it. One repetition is a quarter of a millisecond to a
/// millisecond of allocation, thread spawns and connects.
pub fn timed_setup(
    cells: &CellsConfig,
    served_clients: Option<usize>,
) -> (Env, Option<Served>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<(Env, Option<Served>)> = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous repetition down outside the timed part.
        if let Some((_, Some(served))) = last.take() {
            served.stop();
        }
        let t0 = Instant::now();
        let env = Env::new(cells);
        let served = served_clients.map(|n| Served::start(&env, n));
        times.push(t0.elapsed().as_secs_f64());
        last = Some((env, served));
    }
    let (env, served) = last.expect("SETUP_REPS > 0");
    (env, served, times)
}
