//! The thread-per-connection TCP listener (PROTOCOL.md §1, §7).
//!
//! One OS thread accepts; each admitted connection gets its own thread
//! running the frame-read → [`crate::session::Session::handle`] → frame-write
//! loop. Sockets carry a short read timeout so every session thread wakes a
//! few times a second to check the idle clock and the drain flag without
//! needing an async runtime — the whole layer is `std`-only.
//!
//! Shutdown comes in two flavours:
//!
//! - [`Server::drain`] — graceful. The listener stops accepting, the lock
//!   manager starts refusing *parked* waiters (granted locks are untouched),
//!   and every session is told to wrap up: short transactions abort, long
//!   transactions are leaked so their durable long locks stay journaled and
//!   §3.1 recovery re-adopts them at the next start. Sessions that do not
//!   finish within the drain budget are closed anyway.
//! - [`Server::kill`] — simulated crash. Connections are severed with no
//!   protocol goodbye and *nothing* is released: exactly the state a real
//!   crash leaves on the medium, which is what the loopback kill/restart
//!   test feeds back through recovery.

use crate::frame::{encode_frame, FrameError, FrameReader};
use crate::session::{AdmissionGate, AdmissionPolicy, CloseReason, Reply, Session, SessionTable};
use crate::wire::{ErrorCode, Response};
use colock_txn::TransactionManager;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a session thread wakes to check idle/drain state.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Server tunables. [`ServerConfig::from_lookup`] parses the `COLOCK_*`
/// settings documented in the README.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`COLOCK_LISTEN`, default `127.0.0.1:0` = ephemeral).
    pub listen: String,
    /// Session-table capacity (`COLOCK_MAX_SESSIONS`, default 4096).
    pub max_sessions: usize,
    /// In-flight transaction bound (`COLOCK_MAX_INFLIGHT`, default 256).
    pub max_inflight: usize,
    /// Over-limit `BEGIN` policy (`COLOCK_ADMISSION`: `queue` | `refuse`).
    pub admission: AdmissionPolicy,
    /// How long a queued `BEGIN` may wait before being refused.
    pub queue_budget: Duration,
    /// Idle-session timeout; `None` disables (`COLOCK_IDLE_TIMEOUT` seconds,
    /// default disabled).
    pub idle_timeout: Option<Duration>,
    /// Graceful-drain budget (`COLOCK_DRAIN_TIMEOUT` seconds, default 5).
    pub drain_timeout: Duration,
    /// Per-request lock-wait budget handed to every transaction.
    pub lock_wait: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            max_sessions: 4096,
            max_inflight: 256,
            admission: AdmissionPolicy::Queue,
            queue_budget: Duration::from_millis(500),
            idle_timeout: None,
            drain_timeout: Duration::from_secs(5),
            lock_wait: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by the `COLOCK_*` settings that `lookup` returns
    /// (`colock_server` looks them up in its environment). Unparsable values
    /// fall back silently — a server must come up even with a typo.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> ServerConfig {
        let parse = |name: &str| lookup(name).and_then(|v| v.parse::<u64>().ok());
        let mut cfg = ServerConfig::default();
        if let Some(v) = lookup("COLOCK_LISTEN") {
            cfg.listen = v;
        }
        if let Some(v) = parse("COLOCK_MAX_SESSIONS") {
            cfg.max_sessions = v as usize;
        }
        if let Some(v) = parse("COLOCK_MAX_INFLIGHT") {
            cfg.max_inflight = v as usize;
        }
        if let Some(p) = lookup("COLOCK_ADMISSION").as_deref().and_then(AdmissionPolicy::parse) {
            cfg.admission = p;
        }
        if let Some(v) = parse("COLOCK_IDLE_TIMEOUT") {
            cfg.idle_timeout = Some(Duration::from_secs(v));
        }
        if let Some(v) = parse("COLOCK_DRAIN_TIMEOUT") {
            cfg.drain_timeout = Duration::from_secs(v);
        }
        cfg
    }
}

struct Shared {
    manager: Arc<TransactionManager>,
    table: Arc<SessionTable>,
    gate: Arc<AdmissionGate>,
    draining: Arc<AtomicBool>,
    /// Kill switch: sever connections with no goodbye (crash simulation).
    killed: AtomicBool,
    idle_timeout: Option<Duration>,
    lock_wait: Duration,
    /// Connections ever accepted (STAT `server.accepted` via sessions table;
    /// kept for the drain log line).
    accepted: AtomicU64,
}

/// A running server. Dropping it kills it (crash semantics); call
/// [`Server::drain`] first for a graceful stop.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the accept thread, returns immediately.
    pub fn start(manager: Arc<TransactionManager>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            manager,
            table: Arc::new(SessionTable::new(cfg.max_sessions)),
            gate: AdmissionGate::new(cfg.max_inflight, cfg.admission, cfg.queue_budget),
            draining: Arc::new(AtomicBool::new(false)),
            killed: AtomicBool::new(false),
            idle_timeout: cfg.idle_timeout,
            lock_wait: cfg.lock_wait,
            accepted: AtomicU64::new(0),
        });
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_workers = Arc::clone(&workers);
        let accept_thread = std::thread::Builder::new()
            .name("colock-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_workers))
            .expect("spawn accept thread");
        Ok(Server { shared, addr, accept_thread: Some(accept_thread), workers })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Open sessions right now.
    pub fn session_count(&self) -> usize {
        self.shared.table.open_count()
    }

    /// The manager this server fronts.
    pub fn manager(&self) -> &Arc<TransactionManager> {
        &self.shared.manager
    }

    /// Graceful drain: stop accepting, refuse new `BEGIN`s, wake parked lock
    /// waiters, give in-flight sessions up to the budget to finish, then
    /// close stragglers (short txns abort, long txns leak their journaled
    /// locks for recovery). Returns the number of sessions that had to be
    /// closed forcibly.
    pub fn drain(mut self, budget: Duration) -> usize {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.manager.lock_manager().begin_drain();
        self.stop_accepting();
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline && self.shared.table.open_count() > 0 {
            std::thread::sleep(POLL_TICK / 2);
        }
        let stragglers = self.shared.table.open_count();
        // Sever remaining connections; their session threads abort/leak as
        // they notice (worker join below waits for that).
        self.shared.killed.store(true, Ordering::SeqCst);
        self.join_workers();
        self.shared.manager.lock_manager().end_drain();
        stragglers
    }

    /// Simulated crash: sever every connection with no goodbye and release
    /// nothing. Long locks stay on the journal medium exactly as a real
    /// crash would leave them; §3.1 recovery decides their fate.
    pub fn kill(mut self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.stop_accepting();
        self.join_workers();
    }

    fn stop_accepting(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }

    fn join_workers(&self) {
        let handles: Vec<_> = {
            let mut ws = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            ws.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.stop_accepting();
        self.join_workers();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) || shared.killed.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("colock-session".into())
            .spawn(move || serve_connection(stream, conn_shared));
        if let Ok(h) = handle {
            let mut ws = workers.lock().unwrap_or_else(PoisonError::into_inner);
            // Reap the threads of connections that already ended, so a
            // churning client population does not pile them up until
            // shutdown (joining a finished thread returns at once).
            for ended in ws.extract_if(.., |w| w.is_finished()) {
                let _ = ended.join();
            }
            ws.push(h);
        }
    }
}

/// Writes one reply's frames; `false` on a dead socket.
fn write_reply(stream: &mut TcpStream, reply: &Reply) -> bool {
    let mut out = String::new();
    for frame in &reply.frames {
        out.push_str(&encode_frame(&frame.encode()));
    }
    stream.write_all(out.as_bytes()).is_ok() && stream.flush().is_ok()
}

fn refuse(mut stream: TcpStream, response: Response) {
    let _ = stream.write_all(encode_frame(&response.encode()).as_bytes());
}

fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    // Short read timeout = the poll tick for idle/drain checks.
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);

    let manager = Arc::clone(&shared.manager);
    let mut session = match Session::open(
        &manager,
        Arc::clone(&shared.table),
        Arc::clone(&shared.gate),
        Arc::clone(&shared.draining),
        shared.lock_wait,
        peer,
    ) {
        Ok(s) => s,
        Err(response) => {
            refuse(stream, response);
            return;
        }
    };

    let Ok(mut writer) = stream.try_clone() else {
        session.close(CloseReason::Disconnect);
        return;
    };
    let mut reader = FrameReader::new(stream);
    let mut last_activity = Instant::now();

    loop {
        if shared.killed.load(Ordering::SeqCst) {
            // Crash semantics when a kill is in progress, graceful close
            // when this is the tail end of a drain (long txns leak either
            // way; the distinction is only the trace reason).
            let reason = if shared.draining.load(Ordering::SeqCst) {
                CloseReason::Drain
            } else {
                CloseReason::Disconnect
            };
            session.close(reason);
            return;
        }
        if shared.draining.load(Ordering::SeqCst) && !session.in_txn() {
            // Drain: sessions with no open transaction are closed eagerly;
            // in-txn sessions get until the drain budget to finish.
            session.close(CloseReason::Drain);
            let _ = write_reply(
                &mut writer,
                &Reply {
                    frames: vec![Response::err(ErrorCode::ShuttingDown, "server is draining")],
                    close: true,
                },
            );
            return;
        }
        if let Some(limit) = shared.idle_timeout {
            if last_activity.elapsed() > limit && !session.in_txn() {
                session.close(CloseReason::IdleTimeout);
                let _ = write_reply(
                    &mut writer,
                    &Reply {
                        frames: vec![Response::err(ErrorCode::IdleTimeout, "session idle too long")],
                        close: true,
                    },
                );
                return;
            }
        }
        let payload = match reader.read_frame() {
            Ok(Some(p)) => p,
            Ok(None) => {
                session.close(CloseReason::Disconnect);
                return;
            }
            Err(e) if e.is_timeout() => continue,
            Err(e) => {
                // Torn stream: report if the socket still works, then drop.
                let code = match &e {
                    FrameError::Oversized { .. } => ErrorCode::Oversized,
                    _ => ErrorCode::BadFrame,
                };
                let _ = write_reply(
                    &mut writer,
                    &Reply { frames: vec![Response::err(code, e.to_string())], close: true },
                );
                session.close(CloseReason::Disconnect);
                return;
            }
        };
        last_activity = Instant::now();
        let reply = match crate::wire::Request::parse(&payload) {
            Ok(req) => session.handle(req),
            Err(e) => {
                let code = match &e {
                    crate::wire::WireError::BadCommand(_) => ErrorCode::BadCommand,
                    crate::wire::WireError::BadRecord(_) => ErrorCode::BadFrame,
                    crate::wire::WireError::BadArg { .. } => ErrorCode::BadArg,
                };
                Reply { frames: vec![Response::err(code, e.to_string())], close: false }
            }
        };
        let close = reply.close;
        if !write_reply(&mut writer, &reply) || close {
            session.close(CloseReason::Disconnect);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn config(pairs: &[(&str, &str)]) -> ServerConfig {
        let vars: HashMap<String, String> =
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        ServerConfig::from_lookup(|k| vars.get(k).cloned())
    }

    #[test]
    fn timeouts_are_seconds() {
        let cfg = config(&[("COLOCK_DRAIN_TIMEOUT", "7"), ("COLOCK_IDLE_TIMEOUT", "3")]);
        assert_eq!(cfg.drain_timeout, Duration::from_secs(7));
        assert_eq!(cfg.idle_timeout, Some(Duration::from_secs(3)));
    }

    #[test]
    fn unparsable_values_fall_back_to_defaults() {
        let cfg = config(&[
            ("COLOCK_DRAIN_TIMEOUT", "5000ms"),
            ("COLOCK_MAX_SESSIONS", "many"),
            ("COLOCK_ADMISSION", "maybe"),
        ]);
        let default = ServerConfig::default();
        assert_eq!(cfg.drain_timeout, default.drain_timeout);
        assert_eq!(cfg.max_sessions, default.max_sessions);
        assert_eq!(cfg.admission, default.admission);
        assert_eq!(cfg.idle_timeout, None);
    }

    #[test]
    fn finished_session_threads_are_reaped_on_accept() {
        use crate::client::Client;
        use crate::wire::Role;
        use colock_sim::{build_cells_store, CellsConfig};
        let store = build_cells_store(&CellsConfig { n_cells: 1, ..Default::default() });
        let mgr = TransactionManager::over_store(
            store,
            colock_core::authorization::Authorization::allow_all(),
            colock_txn::ProtocolKind::Proposed,
        );
        let server = Server::start(Arc::new(mgr), ServerConfig::default()).expect("bind");
        for i in 0..50 {
            let mut c = Client::connect(server.addr(), &format!("churn{i}"), Role::Engineer)
                .expect("connect");
            c.quit();
            colock_testkit::wait_until(Duration::from_secs(5), || server.session_count() == 0);
        }
        // Each accept reaps every ended connection's thread: what is left is
        // at most the last few, still on their way out.
        let kept = server.workers.lock().unwrap().len();
        assert!(kept <= 4, "{kept} session threads kept after 50 connections");
    }

    #[test]
    fn admission_refuse_is_honoured() {
        assert_eq!(config(&[("COLOCK_ADMISSION", "refuse")]).admission, AdmissionPolicy::Refuse);
    }
}
