//! Kill-and-restart stress for the serving layer: proves §3.1 durability
//! end to end over reconnecting TCP clients.
//!
//! Each round:
//! 1. start a server over a shared store with a durable long-lock journal;
//! 2. a handful of clients `BEGIN LONG` and `CHECKOUT` a robot each, over
//!    real loopback connections, and note their acknowledged txn ids;
//! 3. `kill()` the server — connections sever with no goodbye, nothing is
//!    released (crash semantics);
//! 4. build a *new* manager over the same store, replay the surviving
//!    journal medium through `recover()`, start a *new* server on it;
//! 5. the clients reconnect, `RESUME` their transactions, verify a rival
//!    update still blocks (the long lock was re-adopted, not re-granted),
//!    then `CHECKIN` and `COMMIT`;
//! 6. assert every acknowledged long lock was re-adopted and the table
//!    sweeps clean.
//!
//! Knob: `COLOCK_SERVER_ROUNDS` (default 5). Every round's trace window is
//! linted and certified.

use colock_bench::verify_window;
use colock_core::authorization::{Authorization, Right};
use colock_core::{AccessMode, ResourcePath};
use colock_lockmgr::Journal;
use colock_server::client::Client;
use colock_server::wire::{parse_target, BeginKind, ErrorCode, Role};
use colock_server::{Server, ServerConfig};
use colock_sim::{build_cells_store, CellsConfig};
use colock_storage::Store;
use colock_txn::{ProtocolKind, TransactionManager, TxnKind};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 4;

fn env<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn manager_over(
    store: &Arc<Store>,
    medium: &Arc<Mutex<String>>,
) -> Arc<TransactionManager> {
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let mgr = Arc::new(TransactionManager::over_store(
        Arc::clone(store),
        authz,
        ProtocolKind::Proposed,
    ));
    let journal = Arc::new(Journal::<ResourcePath>::over_medium(Arc::clone(medium)));
    assert!(mgr.attach_journal(journal));
    mgr
}

fn robot(i: usize) -> colock_core::InstanceTarget {
    parse_target(&format!("rel:cells/obj:c{}/attr:robots/elem:r1", i + 1)).expect("static")
}

fn main() {
    let rounds: u64 = env("COLOCK_SERVER_ROUNDS", 5);
    colock_trace::enable();

    for round in 0..rounds {
        let store = build_cells_store(&CellsConfig {
            n_cells: CLIENTS.max(4),
            c_objects_per_cell: 8,
            ..Default::default()
        });
        let medium = Arc::new(Mutex::new(String::new()));
        let mark = colock_trace::current_seq();

        // ---- Phase 1: serve, check out long locks, then crash. ----
        let mgr1 = manager_over(&store, &medium);
        let server = Server::start(mgr1, ServerConfig::default()).expect("bind");
        let addr = server.addr();
        let mut acked: Vec<(usize, colock_lockmgr::TxnId)> = Vec::new();
        {
            let mut clients: Vec<Client> = (0..CLIENTS)
                .map(|i| Client::connect(addr, &format!("ws{i}"), Role::Engineer).expect("connect"))
                .collect();
            for (i, c) in clients.iter_mut().enumerate() {
                let txn = c.begin(BeginKind::Long).expect("begin long");
                c.checkout(&robot(i), AccessMode::Update).expect("checkout acked");
                acked.push((i, txn));
            }
            server.kill(); // crash: no goodbyes, nothing released
        }

        // ---- Phase 2: recover from the surviving medium, serve again. ----
        let surviving = medium.lock().expect("medium").clone();
        let mgr2 = manager_over(&store, &medium);
        let report = mgr2.recover(&surviving).expect("journal must replay");
        for (i, txn) in &acked {
            assert!(
                report.owners.contains(txn),
                "round {round}: acked long lock of ws{i} ({txn:?}) not re-adopted",
            );
        }
        let server2 = Server::start(Arc::clone(&mgr2), ServerConfig::default()).expect("rebind");
        let addr2 = server2.addr();

        // Rival updates must still block: the locks were re-adopted.
        for (i, _) in &acked {
            let rival = mgr2.begin(TxnKind::Short);
            rival.set_wait_policy(colock_lockmgr::WaitPolicy::Try);
            let err = rival.lock(&robot(*i), AccessMode::Update).unwrap_err();
            assert!(err.is_would_block(), "round {round}: ws{i} lock lost in crash: {err}");
            rival.abort().expect("rival abort");
        }

        // ---- Phase 3: clients reconnect and finish their conversations. ----
        for (i, txn) in &acked {
            let mut c =
                Client::connect(addr2, &format!("ws{i}-rc"), Role::Engineer).expect("reconnect");
            c.resume(*txn).expect("resume re-adopted txn");
            // The private copy was volatile workstation state and died with
            // the crash; the re-adopted long lock makes this re-checkout an
            // immediate grant (no new conflict is possible).
            let copy = c.checkout(&robot(*i), AccessMode::Update).expect("re-checkout");
            c.checkin(&robot(*i), copy).expect("checkin");
            c.commit().expect("commit");
            c.quit();
        }
        // A stale RESUME must now be refused.
        {
            let mut c = Client::connect(addr2, "stale", Role::Engineer).expect("connect");
            let err = c.resume(acked[0].1).expect_err("finished txn must not resume");
            assert!(
                matches!(err.code(), Some(ErrorCode::UnknownTxn | ErrorCode::NotActive)),
                "{err}"
            );
            c.quit();
        }
        assert_eq!(mgr2.active_count(), 0, "round {round}: txn states leaked");
        assert_eq!(mgr2.lock_manager().table_size(), 0, "round {round}: locks leaked");
        let stragglers = server2.drain(Duration::from_secs(2));
        assert_eq!(stragglers, 0);

        // The crashed and the recovered server's events: one window of the
        // default buffer both managers trace into.
        let trace = colock_trace::default_buffer();
        verify_window(&format!("round {round}"), store.catalog(), trace, mark);
        println!(
            "round {round}: {} long locks crashed, {} re-adopted, resumed and committed over TCP",
            acked.len(),
            report.owners.len(),
        );
    }
    println!("stress_server: §3.1 held over {rounds} kill/restart round(s)");
}
