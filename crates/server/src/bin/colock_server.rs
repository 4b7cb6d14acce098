//! Standalone colock server over the paper's standard cells environment.
//!
//! Builds the Fig. 1 robot-cells store (`COLOCK_CELLS`/`COLOCK_OBJECTS`/…
//! size knobs), attaches a durable long-lock journal, and serves the wire
//! protocol until stdin closes — at which point it drains gracefully and,
//! if `COLOCK_JOURNAL` names a file, saves the journal so the next start
//! re-adopts surviving long locks (§3.1 recovery).
//!
//! Prints `LISTENING <addr>` on stdout once the socket is bound so scripts
//! (and `scripts/check.sh`) can discover an ephemeral port.

use colock_core::authorization::{Authorization, Right};
use colock_lockmgr::persistent::Journal;
use colock_server::{Server, ServerConfig};
use colock_sim::{build_cells_store, CellsConfig};
use colock_txn::{ProtocolKind, TransactionManager};
use std::io::BufRead;
use std::sync::{Arc, Mutex};

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    colock_trace::enable_from_env();
    let cfg = ServerConfig::from_lookup(|k| std::env::var(k).ok());

    let cells = CellsConfig {
        n_cells: env_parse("COLOCK_CELLS", 8),
        c_objects_per_cell: env_parse("COLOCK_OBJECTS", 32),
        ..Default::default()
    };
    let mut authz = Authorization::allow_all();
    authz.set_relation_default("effectors", Right::Read);
    let manager = Arc::new(TransactionManager::over_store(
        build_cells_store(&cells),
        authz,
        ProtocolKind::Proposed,
    ));

    // Durable long locks: an in-memory journal medium, seeded from (and
    // saved back to) COLOCK_JOURNAL when set, so long locks survive a
    // graceful restart of this process too.
    let journal_path = std::env::var("COLOCK_JOURNAL").ok();
    let medium = Arc::new(Mutex::new(String::new()));
    if let Some(path) = &journal_path {
        if let Ok(text) = std::fs::read_to_string(path) {
            *medium.lock().expect("fresh medium") = text;
        }
    }
    let seed = medium.lock().expect("fresh medium").clone();
    let journal = Arc::new(Journal::over_medium(Arc::clone(&medium)));
    manager.attach_journal(Arc::clone(&journal));
    if !seed.is_empty() {
        match manager.recover(&seed) {
            Ok(report) => eprintln!(
                "recovered {} long-lock owner(s) from {}",
                report.owners.len(),
                journal_path.as_deref().unwrap_or("journal"),
            ),
            Err(e) => eprintln!("journal replay failed ({e}); starting clean"),
        }
    }

    let drain_budget = cfg.drain_timeout;
    let server = match Server::start(manager, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("LISTENING {}", server.addr());

    // Serve until stdin closes (or a line saying "drain" arrives); that is
    // the graceful-shutdown signal scripts can deliver portably.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line.as_deref().map(str::trim) {
            Ok("drain") | Err(_) => break,
            _ => {}
        }
    }
    let stragglers = server.drain(drain_budget);
    if stragglers > 0 {
        eprintln!("drain budget expired with {stragglers} session(s) still open");
    }
    if let Some(path) = &journal_path {
        let text = medium.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("journal save failed: {e}");
        }
    }
}
