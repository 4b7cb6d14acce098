//! End-to-end tests over real loopback TCP: server + blocking clients,
//! admission control, drain semantics, and lint-clean served traces.

use colock_core::authorization::{Authorization, Right};
use colock_core::AccessMode;
use colock_nf2::Value;
use colock_server::client::Client;
use colock_server::session::AdmissionPolicy;
use colock_server::wire::{parse_target, BeginKind, ErrorCode, Role};
use colock_server::{Server, ServerConfig};
use colock_sim::{build_cells_store, CellsConfig};
use colock_trace::TraceBuffer;
use colock_txn::{ProtocolKind, TransactionManager};
use std::sync::Arc;
use std::time::Duration;

fn manager() -> Arc<TransactionManager> {
    let cfg = CellsConfig { n_cells: 4, c_objects_per_cell: 8, ..Default::default() };
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    Arc::new(TransactionManager::over_store(build_cells_store(&cfg), authz, ProtocolKind::Proposed))
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
    let mgr = server.manager();
    let events = trace.events_since(0).unwrap();
    assert!(!events.is_empty());
    if let Err(e) = colock_check::verify_trace(mgr.store().catalog(), &events) {
        panic!("served trace: {e}");
    }
    server.kill();
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
