//! End-to-end tests over real loopback TCP: server + blocking clients,
//! admission control, drain semantics, lint-clean served traces under the
//! E14 mix, and §3.1 durability across a server kill and restart.

use colock_core::authorization::{Authorization, Right};
use colock_core::{AccessMode, ResourcePath};
use colock_lockmgr::{Journal, TxnId};
use colock_nf2::Value;
use colock_server::client::{Client, ClientError};
use colock_server::session::{AdmissionPolicy, BACKOFF_FLOOR_MS};
use colock_server::wire::{parse_target, BeginKind, ErrorCode, Role};
use colock_server::{Server, ServerConfig};
use colock_sim::{build_cells_store, CellsConfig};
use colock_storage::Store;
use colock_testkit::{stress_rounds, Backoff, Rng};
use colock_trace::TraceBuffer;
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn manager() -> Arc<TransactionManager> {
    manager_over(build_cells_store(&CellsConfig { n_cells: 4, c_objects_per_cell: 8, ..Default::default() }))
}

fn manager_over(store: Arc<Store>) -> Arc<TransactionManager> {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    Arc::new(TransactionManager::over_store(store, authz, ProtocolKind::Proposed))
}

/// Lints and certifies `trace` from `mark` on against `mgr`'s schema.
fn verify_window(label: &str, mgr: &TransactionManager, trace: &TraceBuffer, mark: u64) {
    let events = trace.events_since(mark).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(!events.is_empty(), "{label}: nothing traced");
    if let Err(e) = colock_check::verify_trace(mgr.store().catalog(), &events) {
        panic!("{label}: {e}");
    }
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(manager(), cfg).expect("bind loopback")
}

/// A server whose manager traces into a buffer of its own, switched on.
fn traced_server() -> (Server, Arc<TraceBuffer>) {
    let mgr = manager();
    let trace = Arc::new(TraceBuffer::with_capacity(1 << 14));
    trace.enable();
    mgr.attach_trace(Arc::clone(&trace));
    (Server::start(mgr, ServerConfig::default()).expect("bind loopback"), trace)
}

#[test]
fn full_conversation_over_tcp() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), "e2e", Role::Engineer).expect("connect");

    c.begin(BeginKind::Short).expect("begin");
    let traj = parse_target("rel:cells/obj:c2/attr:robots/elem:r1/attr:trajectory").unwrap();
    let before = c.get(&traj).expect("get");
    assert_eq!(before, Value::str("traj-c2-r0"));
    c.put(&traj, Value::str("traj-new")).expect("put");
    assert_eq!(c.get(&traj).expect("get"), Value::str("traj-new"));
    c.commit().expect("commit");

    // Conversational check-out / check-in under a long transaction.
    c.begin(BeginKind::Long).expect("begin long");
    let robot = parse_target("rel:cells/obj:c2/attr:robots/elem:r1").unwrap();
    let copy = c.checkout(&robot, AccessMode::Update).expect("checkout");
    c.checkin(&robot, copy).expect("checkin");
    c.commit().expect("commit long");

    let stats = c.stats().expect("stats");
    assert!(stats.iter().any(|(n, _)| n == "lock.requests"));
    c.quit();
    assert_eq!(server.manager().active_count(), 0);
    server.kill();
}

#[test]
fn unauthorized_role_is_refused_over_tcp() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), "rdr", Role::Reader).expect("connect");
    c.begin(BeginKind::Short).expect("begin");
    let traj = parse_target("rel:cells/obj:c1/attr:robots/elem:r1/attr:trajectory").unwrap();
    let err = c.put(&traj, Value::str("nope")).expect_err("reader must not update");
    assert_eq!(err.code(), Some(ErrorCode::Unauthorized));
    c.abort().expect("abort");
    c.quit();
    server.kill();
}

#[test]
fn session_limit_turns_connections_away() {
    let cfg = ServerConfig { max_sessions: 2, ..Default::default() };
    let server = start(cfg);
    let _a = Client::connect(server.addr(), "a", Role::Engineer).expect("a");
    let _b = Client::connect(server.addr(), "b", Role::Engineer).expect("b");
    let err = Client::connect(server.addr(), "c", Role::Engineer).expect_err("table is full");
    assert_eq!(err.code(), Some(ErrorCode::SessionLimit));
    server.kill();
}

#[test]
fn admission_refusal_carries_a_backoff_hint() {
    let cfg = ServerConfig {
        max_inflight: 1,
        admission: AdmissionPolicy::Refuse,
        ..Default::default()
    };
    let server = start(cfg);
    let mut a = Client::connect(server.addr(), "a", Role::Engineer).expect("a");
    let mut b = Client::connect(server.addr(), "b", Role::Engineer).expect("b");
    a.begin(BeginKind::Short).expect("first slot");
    let err = b.begin(BeginKind::Short).expect_err("gate is full");
    assert_eq!(err.code(), Some(ErrorCode::Busy));
    assert!(err.is_retryable());
    match err {
        colock_server::client::ClientError::Server { backoff_ms, .. } => {
            assert!(backoff_ms.is_some(), "BUSY must hint a backoff")
        }
        other => panic!("{other}"),
    }
    a.commit().expect("commit");
    b.begin(BeginKind::Short).expect("slot freed");
    b.abort().expect("abort");
    server.kill();
}

#[test]
fn pipelined_requests_answer_in_order() {
    use colock_server::wire::{Request, Response};
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.addr(), "pipe", Role::Engineer).expect("connect");
    // Fire BEGIN + GET + COMMIT without reading any response.
    let traj = parse_target("rel:cells/obj:c3/attr:robots/elem:r2/attr:trajectory").unwrap();
    c.send(&Request::Begin { kind: BeginKind::Short }).expect("send");
    c.send(&Request::Get { target: traj }).expect("send");
    c.send(&Request::Commit).expect("send");
    let first = c.recv().expect("begin reply");
    assert!(matches!(first, Response::Ok(ref f) if f[0].starts_with('T')), "{first:?}");
    let second = c.recv().expect("get reply");
    assert!(matches!(second, Response::Ok(ref f) if f[0] == "s:traj-c3-r1"), "{second:?}");
    assert!(matches!(c.recv().expect("commit reply"), Response::Ok(_)));
    c.quit();
    server.kill();
}

#[test]
fn drain_refuses_new_work_and_leaks_long_locks() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    let mgr = Arc::clone(server.manager());

    // A long transaction checks out a robot, then its client disconnects.
    let robot = parse_target("rel:cells/obj:c1/attr:robots/elem:r1").unwrap();
    let txn = {
        let mut c = Client::connect(addr, "designer", Role::Engineer).expect("connect");
        let txn = c.begin(BeginKind::Long).expect("begin long");
        c.checkout(&robot, AccessMode::Update).expect("checkout");
        txn
        // dropped without QUIT: the server leaks the long txn
    };
    // Give the server a beat to notice the disconnect.
    std::thread::sleep(Duration::from_millis(300));
    let stragglers = server.drain(Duration::from_secs(2));
    assert_eq!(stragglers, 0, "disconnected sessions must not block the drain");

    // The long lock survived the drain: a rival against the same manager
    // still conflicts, and resume() can finish the conversation.
    {
        let rival = mgr.begin(colock_txn::TxnKind::Short);
        rival.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
        let err = rival.lock(&robot, AccessMode::Update).unwrap_err();
        assert!(err.is_would_block(), "{err}");
        rival.abort().unwrap();
    }
    let resumed = mgr.resume(txn).expect("re-adopt the long txn");
    resumed.commit().expect("finish the conversation");
}

#[test]
fn served_traces_lint_clean() {
    let (server, trace) = traced_server();
    for i in 0..4 {
        let mut c = Client::connect(server.addr(), "lintgen", Role::Engineer).expect("connect");
        c.begin(if i % 2 == 0 { BeginKind::Short } else { BeginKind::Long }).expect("begin");
        let cell = (i % 4) + 1;
        let traj =
            parse_target(&format!("rel:cells/obj:c{cell}/attr:robots/elem:r1/attr:trajectory"))
                .unwrap();
        let v = c.get(&traj).expect("get");
        c.put(&traj, v).expect("put");
        c.commit().expect("commit");
        c.quit();
    }
    verify_window("served trace", server.manager(), &trace, 0);
    server.kill();

    // The E14 mix, concurrently (the repo benchmark's `served_mix` runs it
    // at full scale): SESSIONS connections driven by LOAD_THREADS
    // closed-loop threads; retryable refusals abort and retry on the same
    // session. Every request must be served or retryable, the sessions
    // drain, and the whole served window lints and certifies.
    let store = build_cells_store(&CellsConfig { n_cells: LOAD_CELLS, c_objects_per_cell: 8, ..Default::default() });
    let mgr = manager_over(store);
    // Room for the window: about 30 events per transaction, retries
    // included, and two per session.
    let trace = Arc::new(TraceBuffer::with_capacity(LOAD_TXNS as usize * 64 + SESSIONS * 2));
    trace.enable();
    mgr.attach_trace(Arc::clone(&trace));
    let cfg = ServerConfig {
        max_sessions: SESSIONS + 64,
        max_inflight: 256,
        admission: AdmissionPolicy::Queue,
        lock_wait: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::start(mgr, cfg).expect("bind loopback");
    let budget = AtomicU64::new(LOAD_TXNS);
    let (addr, budget) = (server.addr(), &budget);
    let (committed, retries) = std::thread::scope(|scope| {
        let threads: Vec<_> =
            (0..LOAD_THREADS).map(|w| scope.spawn(move || load_thread(addr, w, budget))).collect();
        threads.into_iter().map(|h| h.join().expect("load thread")).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    let mgr = Arc::clone(server.manager());
    assert_eq!(server.drain(Duration::from_secs(5)), 0, "sessions must drain cleanly");
    assert_eq!(mgr.active_count(), 0, "no transaction may survive the drain");
    assert!(committed + retries >= LOAD_TXNS, "budget fully consumed");
    verify_window("served load", &mgr, &trace, 0);
    println!("served load: {committed} committed, {retries} retries over {SESSIONS} sessions");
}

/// The E14 load's scale: sessions, driving threads and transactions.
const SESSIONS: usize = 40;
const LOAD_THREADS: usize = 4;
const LOAD_TXNS: u64 = 300;
/// Cells of the load's store; the mix draws robots r1–r4 of each.
const LOAD_CELLS: usize = 8;
/// The mix: percent read-only snapshot reads, percent check-out/check-in
/// (the rest are read-modify-writes), and percent pinned to cell 1.
const READONLY_PCT: u64 = 30;
const CHECKOUT_PCT: u64 = 20;
const SKEW_PCT: u64 = 20;

/// One closed-loop load thread: round-robins its share of sessions, one
/// transaction at a time, until the shared budget is spent; returns its
/// commits and retries.
fn load_thread(addr: std::net::SocketAddr, w: usize, budget: &AtomicU64) -> (u64, u64) {
    let mut clients: Vec<Client> = (0..SESSIONS / LOAD_THREADS)
        .map(|i| Client::connect(addr, &format!("lg-{w}-{i}"), Role::Engineer).expect("connect"))
        .collect();
    let mut rng = Rng::seed_from_u64(42 ^ (w as u64).wrapping_mul(0x9E37_79B9));
    // Deadlock and timeout retries draw pure jitter; admission refusals
    // also honour the server's hint, floored so a 0 ms hint cannot make a
    // tight retry herd.
    let mut backoff = Backoff::new(42 ^ w as u64, 1, 8);
    let (mut committed, mut retries) = (0, 0);
    let mut next = 0;
    while budget.fetch_sub(1, Ordering::Relaxed) as i64 > 0 {
        let c = &mut clients[next % (SESSIONS / LOAD_THREADS)];
        next += 1;
        let cell = if rng.gen_range(0..100u64) < SKEW_PCT { 1 } else { rng.gen_range(0..LOAD_CELLS) + 1 };
        let robot = format!("rel:cells/obj:c{cell}/attr:robots/elem:r{}", rng.gen_range(0..4usize) + 1);
        let draw = rng.gen_range(0..100u64);
        let outcome = if draw < READONLY_PCT {
            snapshot_read(c, &robot)
        } else if draw < READONLY_PCT + CHECKOUT_PCT {
            checkout_checkin(c, &robot)
        } else {
            read_modify_write(c, &robot)
        };
        match outcome {
            Ok(()) => {
                committed += 1;
                backoff.reset();
            }
            Err(e) => {
                let _ = c.abort();
                retries += 1;
                assert!(e.is_retryable(), "non-retryable server error: {e}");
                let hinted = match &e {
                    ClientError::Server { backoff_ms: Some(ms), .. } => (*ms).max(BACKOFF_FLOOR_MS),
                    _ => 0,
                };
                std::thread::sleep(Duration::from_millis(hinted + backoff.next_delay()));
                budget.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    for c in &mut clients {
        c.quit();
    }
    (committed, retries)
}

fn snapshot_read(c: &mut Client, robot: &str) -> Result<(), ClientError> {
    c.begin(BeginKind::ReadOnly)?;
    c.get(&parse_target(&format!("{robot}/attr:trajectory")).unwrap())?;
    c.commit()
}

fn checkout_checkin(c: &mut Client, robot: &str) -> Result<(), ClientError> {
    c.begin(BeginKind::Long)?;
    let target = parse_target(robot).unwrap();
    let copy = c.checkout(&target, AccessMode::Update)?;
    c.checkin(&target, copy)?;
    c.commit()
}

fn read_modify_write(c: &mut Client, robot: &str) -> Result<(), ClientError> {
    c.begin(BeginKind::Short)?;
    let target = parse_target(&format!("{robot}/attr:trajectory")).unwrap();
    let text = match c.get(&target)? {
        Value::Str(s) => s,
        other => colock_server::client::value_text(&other),
    };
    c.put(&target, Value::str(format!("{}+", text.chars().take(24).collect::<String>())))?;
    c.commit()
}

/// §3.1 end to end over reconnecting TCP clients, each round
/// (`COLOCK_STRESS_ROUNDS`, default 1):
/// 1. a server with a durable long-lock journal serves `STATIONS` clients
///    that each `BEGIN LONG` and `CHECKOUT` a robot, noting their acked ids;
/// 2. the server is killed: connections sever, nothing is released;
/// 3. a new manager over the same store recovers the surviving journal
///    medium, and must re-adopt every acked long lock: a rival update
///    still blocks, it is not re-granted;
/// 4. a new server starts; the clients reconnect, `RESUME`, re-check-out,
///    `CHECKIN` and `COMMIT`, and a stale `RESUME` is refused;
/// 5. nothing survives, the table is empty, the sessions drain, and the
///    crashed and the recovered server's events (one buffer) lint and
///    certify.
#[test]
fn killed_server_recovers_every_acked_long_lock_for_resume() {
    const STATIONS: usize = 4;
    let robot = |i: usize| parse_target(&format!("rel:cells/obj:c{}/attr:robots/elem:r1", i + 1)).unwrap();
    for round in 0..stress_rounds(1) {
        let store = build_cells_store(&CellsConfig { n_cells: STATIONS, c_objects_per_cell: 8, ..Default::default() });
        let medium = Arc::new(Mutex::new(String::new()));
        let trace = Arc::new(TraceBuffer::with_capacity(1 << 14));
        trace.enable();
        let journaled = || {
            let mgr = manager_over(Arc::clone(&store));
            mgr.attach_trace(Arc::clone(&trace));
            assert!(mgr.attach_journal(Arc::new(Journal::<ResourcePath>::over_medium(Arc::clone(&medium)))));
            mgr
        };

        // Serve, check out long locks, then crash.
        let server = Server::start(journaled(), ServerConfig::default()).expect("bind");
        let mut acked: Vec<TxnId> = Vec::new();
        let mut clients: Vec<Client> = (0..STATIONS)
            .map(|i| Client::connect(server.addr(), &format!("ws{i}"), Role::Engineer).expect("connect"))
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            acked.push(c.begin(BeginKind::Long).expect("begin long"));
            c.checkout(&robot(i), AccessMode::Update).expect("checkout acked");
        }
        server.kill();
        drop(clients);

        // Recover from the surviving medium.
        let surviving = medium.lock().unwrap().clone();
        let mgr = journaled();
        let report = mgr.recover(&surviving).expect("journal must replay");
        for (i, txn) in acked.iter().enumerate() {
            assert!(report.owners.contains(txn), "round {round}: ws{i}'s acked long lock ({txn:?}) not re-adopted");
            let rival = mgr.begin(TxnKind::Short);
            rival.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
            let err = rival.lock(&robot(i), AccessMode::Update).unwrap_err();
            assert!(err.is_would_block(), "round {round}: ws{i}'s lock lost in the crash: {err}");
            rival.abort().expect("rival abort");
        }

        // Serve again: the clients reconnect and finish their conversations.
        let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).expect("rebind");
        for (i, txn) in acked.iter().enumerate() {
            let mut c = Client::connect(server.addr(), &format!("ws{i}-rc"), Role::Engineer).expect("reconnect");
            c.resume(*txn).expect("resume the re-adopted txn");
            // The private copy died with the workstation's session; the
            // re-adopted long lock grants the re-checkout at once.
            let copy = c.checkout(&robot(i), AccessMode::Update).expect("re-checkout");
            c.checkin(&robot(i), copy).expect("checkin");
            c.commit().expect("commit");
            c.quit();
        }
        let mut c = Client::connect(server.addr(), "stale", Role::Engineer).expect("connect");
        let err = c.resume(acked[0]).expect_err("a finished txn must not resume");
        assert!(matches!(err.code(), Some(ErrorCode::UnknownTxn | ErrorCode::NotActive)), "{err}");
        c.quit();
        assert_eq!(mgr.active_count(), 0, "round {round}: txn states leaked");
        assert_eq!(mgr.lock_manager().table_size(), 0, "round {round}: locks leaked");
        assert_eq!(server.drain(Duration::from_secs(2)), 0, "round {round}: sessions must drain");
        verify_window(&format!("round {round}"), &mgr, &trace, 0);
    }
}

#[test]
fn trace_streams_only_its_own_servers_events() {
    let servers = [traced_server().0, traced_server().0];
    let mut clients: Vec<Client> = servers
        .iter()
        .map(|s| Client::connect(s.addr(), "tracer", Role::Engineer).expect("connect"))
        .collect();
    // Each server's first transaction is its T1, on a cell of its own.
    for (c, cell) in clients.iter_mut().zip([1, 3]) {
        c.begin(BeginKind::Short).expect("begin");
        let traj =
            parse_target(&format!("rel:cells/obj:c{cell}/attr:robots/elem:r1/attr:trajectory"))
                .unwrap();
        c.get(&traj).expect("get");
        c.commit().expect("commit");
    }
    for (c, (mine, theirs)) in clients.iter_mut().zip([("obj:c1", "obj:c3"), ("obj:c3", "obj:c1")]) {
        let lines = c.trace().expect("trace");
        assert!(lines.iter().any(|l| l.contains(mine)), "own events missing: {lines:#?}");
        assert!(!lines.iter().any(|l| l.contains(theirs)), "the other server's events: {lines:#?}");
        c.quit();
    }
    for s in servers {
        s.kill();
    }
}
