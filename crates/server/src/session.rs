//! Per-connection session machinery (PROTOCOL.md §3.1).
//!
//! Three pieces live here, all shared-state-only (no I/O — the socket loop
//! is in [`crate::server`]):
//!
//! - [`SessionTable`] — the bounded registry of open sessions. A connection
//!   that cannot get a slot is turned away with `SESSION_LIMIT` before it
//!   costs anything.
//! - [`AdmissionGate`] — bounds transactions *in flight* (between `BEGIN`
//!   and `COMMIT`/`ABORT`), independently of how many sessions are merely
//!   connected. Thousands of conversational sessions may sit idle while
//!   only a bounded number hold locks. Over-limit `BEGIN`s either queue
//!   (bounded wait) or are refused with a backoff hint, per
//!   [`AdmissionPolicy`].
//! - [`Session`] — the request executor: a small state machine
//!   (`HELLO` → ready ⇄ in-txn → closed) that maps each [`Request`] to
//!   transaction-manager calls and produces the [`Response`] frames to
//!   write back.
//!
//! Role-based rights mirror the paper's standard environment (§2.4/rule 4′):
//! a `reader` may update nothing, an `engineer` may update cells but not the
//! shared effectors library, a `librarian` may update the library too. The
//! grants are installed per transaction at `BEGIN`/`RESUME` and retracted
//! automatically when the transaction finishes.

use crate::wire::{
    encode_target, encode_value, map_txn_error, BeginKind, ErrorCode, Request, Response, Role,
};
use colock_core::authorization::Right;
use colock_core::InstanceTarget;
use colock_trace::{Event, EventKind};
use colock_txn::{Transaction, TransactionManager, TxnKind};
use colock_lockmgr::WaitPolicy;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Server-assigned session identifier (monotonic, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

/// What the table remembers about one open session.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Client-announced name (from `HELLO`).
    pub name: String,
    /// Peer address.
    pub peer: String,
}

struct TableInner {
    next: u64,
    open: HashMap<u64, SessionInfo>,
    peak: usize,
}

/// Bounded registry of open sessions.
pub struct SessionTable {
    max: usize,
    inner: Mutex<TableInner>,
}

impl SessionTable {
    /// A table admitting at most `max` concurrent sessions.
    pub fn new(max: usize) -> SessionTable {
        SessionTable {
            max: max.max(1),
            inner: Mutex::new(TableInner { next: 1, open: HashMap::new(), peak: 0 }),
        }
    }

    /// Claims a slot. `None` means the table is full.
    pub fn try_open(&self, info: SessionInfo) -> Option<SessionId> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.open.len() >= self.max {
            return None;
        }
        let id = inner.next;
        inner.next += 1;
        inner.open.insert(id, info);
        inner.peak = inner.peak.max(inner.open.len());
        Some(SessionId(id))
    }

    /// Releases a slot.
    pub fn close(&self, id: SessionId) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.open.remove(&id.0);
    }

    /// Currently open sessions.
    pub fn open_count(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).open.len()
    }

    /// High-water mark of concurrently open sessions.
    pub fn peak(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).peak
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.max
    }
}

/// What to do with a `BEGIN` that exceeds the in-flight bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Park the `BEGIN` (bounded wait) until a slot frees; refuse only if
    /// the wait budget runs out.
    #[default]
    Queue,
    /// Refuse immediately with a backoff hint.
    Refuse,
}

impl AdmissionPolicy {
    /// Parses the `COLOCK_ADMISSION` values `queue` / `refuse`.
    pub fn parse(s: &str) -> Option<AdmissionPolicy> {
        match s {
            "queue" => Some(AdmissionPolicy::Queue),
            "refuse" => Some(AdmissionPolicy::Refuse),
            _ => None,
        }
    }
}

struct GateInner {
    inflight: usize,
    peak: usize,
}

/// Minimum backoff hint, in milliseconds. A refused `BEGIN` told "retry in
/// 0 ms" comes straight back, and under load *every* shed client does — the
/// hint must shed the herd, so it never drops below this floor.
pub const BACKOFF_FLOOR_MS: u64 = 5;

/// Bounds transactions in flight across all sessions.
pub struct AdmissionGate {
    max: usize,
    policy: AdmissionPolicy,
    queue_budget: Duration,
    inner: Mutex<GateInner>,
    freed: Condvar,
    /// Jitter source for refusal hints: consecutive refusals draw from
    /// doubling windows (spreading a sustained herd), and every freed slot
    /// resets the exponent.
    hint: Mutex<colock_testkit::Backoff>,
}

/// RAII in-flight slot: dropping it (transaction finished) frees the slot
/// and wakes one queued `BEGIN`.
pub struct Permit {
    gate: Arc<AdmissionGate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut inner = self.gate.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.inflight = inner.inflight.saturating_sub(1);
        drop(inner);
        // A freed slot means the overload is draining: refusal hints may
        // start over from the floor window.
        self.gate.hint.lock().unwrap_or_else(PoisonError::into_inner).reset();
        self.gate.freed.notify_one();
    }
}

impl AdmissionGate {
    /// A gate admitting at most `max` in-flight transactions; queued
    /// `BEGIN`s wait at most `queue_budget`.
    pub fn new(max: usize, policy: AdmissionPolicy, queue_budget: Duration) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate {
            max: max.max(1),
            policy,
            queue_budget,
            inner: Mutex::new(GateInner { inflight: 0, peak: 0 }),
            freed: Condvar::new(),
            // Fixed seed: hint schedules are part of the deterministic replay.
            hint: Mutex::new(colock_testkit::Backoff::new(0x0ADB_0FF5, 8, 96)),
        })
    }

    /// Tries to claim an in-flight slot. `Err(backoff_ms)` asks the client
    /// to retry after the hinted delay.
    pub fn admit(self: &Arc<Self>) -> Result<Permit, u64> {
        let deadline = Instant::now() + self.queue_budget;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if inner.inflight < self.max {
                inner.inflight += 1;
                inner.peak = inner.peak.max(inner.inflight);
                return Ok(Permit { gate: Arc::clone(self) });
            }
            if self.policy == AdmissionPolicy::Refuse {
                return Err(self.backoff_hint_ms());
            }
            // The remaining budget is recomputed on *every* pass, and an
            // exhausted budget refuses before re-parking: a wakeup — spurious
            // or stolen — landing at or past the deadline must not turn into
            // a zero-length `wait_timeout`, which returns immediately and
            // busy-spins this loop for as long as the gate stays full.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(self.backoff_hint_ms());
            }
            let (guard, _timeout) = self
                .freed
                .wait_timeout(inner, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    fn backoff_hint_ms(&self) -> u64 {
        // Floor plus seeded full jitter: the floor keeps refused clients from
        // returning instantly in a tight herd, the doubling jitter window
        // (reset whenever a slot frees) spreads a sustained overload out.
        let mut hint = self.hint.lock().unwrap_or_else(PoisonError::into_inner);
        BACKOFF_FLOOR_MS + hint.next_delay()
    }

    /// Transactions currently in flight.
    pub fn inflight(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).inflight
    }

    /// High-water mark of in-flight transactions.
    pub fn peak(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).peak
    }
}

/// Frames to write back for one request, plus whether the connection should
/// close after writing them.
pub struct Reply {
    /// Response frames, in order.
    pub frames: Vec<Response>,
    /// Close the connection after writing.
    pub close: bool,
}

impl Reply {
    fn one(r: Response) -> Reply {
        Reply { frames: vec![r], close: false }
    }

    fn closing(r: Response) -> Reply {
        Reply { frames: vec![r], close: true }
    }
}

/// Why a session ended (recorded in the `session-close` trace event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Client sent `QUIT`.
    Quit,
    /// Client closed the connection (or the stream tore).
    Disconnect,
    /// Idle timeout exceeded.
    IdleTimeout,
    /// Server is shutting down.
    Drain,
}

impl CloseReason {
    fn as_str(self) -> &'static str {
        match self {
            CloseReason::Quit => "quit",
            CloseReason::Disconnect => "disconnect",
            CloseReason::IdleTimeout => "idle-timeout",
            CloseReason::Drain => "drain",
        }
    }
}

/// The per-connection request executor.
///
/// Owns the session's open transaction (at most one — the protocol is
/// strictly conversational) and its admission permit. The lifetime ties the
/// open transaction to the manager borrow held by the connection thread.
pub struct Session<'m> {
    mgr: &'m TransactionManager,
    table: Arc<SessionTable>,
    gate: Arc<AdmissionGate>,
    draining: Arc<AtomicBool>,
    lock_wait: Duration,
    id: SessionId,
    peer: String,
    name: String,
    role: Role,
    greeted: bool,
    /// Trace sequence at session open; `EXPLAIN`/`TRACE` stream from here.
    mark: u64,
    /// Ids of every transaction this session ran (newest last).
    txns: Vec<u64>,
    txn: Option<Transaction<'m>>,
    permit: Option<Permit>,
    closed: bool,
}

impl<'m> Session<'m> {
    /// Claims a session slot and emits the `session-open` trace event.
    /// `Err` carries the refusal frame to write before hanging up.
    pub fn open(
        mgr: &'m TransactionManager,
        table: Arc<SessionTable>,
        gate: Arc<AdmissionGate>,
        draining: Arc<AtomicBool>,
        lock_wait: Duration,
        peer: String,
    ) -> Result<Session<'m>, Response> {
        if draining.load(Ordering::SeqCst) {
            return Err(Response::err(ErrorCode::ShuttingDown, "server is draining"));
        }
        let info = SessionInfo { name: String::new(), peer: peer.clone() };
        let id = table.try_open(info).ok_or_else(|| {
            Response::err(
                ErrorCode::SessionLimit,
                format!("session table full ({} slots)", table.capacity()),
            )
        })?;
        let mark = colock_trace::current_seq();
        colock_trace::emit(|| {
            Event::new(EventKind::SessionOpen, 0)
                .instance(mgr.trace_instance())
                .detail(format!("sid={} peer={}", id.0, peer))
        });
        Ok(Session {
            mgr,
            table,
            gate,
            draining,
            lock_wait,
            id,
            peer,
            name: String::new(),
            role: Role::default(),
            greeted: false,
            mark,
            txns: Vec::new(),
            txn: None,
            permit: None,
            closed: false,
        })
    }

    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Whether a transaction is open (used by the drain loop).
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Executes one request.
    pub fn handle(&mut self, req: Request) -> Reply {
        if !self.greeted {
            return self.handle_hello(req);
        }
        match req {
            Request::Hello { .. } => Reply::one(Response::err(
                ErrorCode::BadCommand,
                "HELLO already exchanged on this session",
            )),
            Request::Begin { kind } => self.begin(kind),
            Request::Resume { txn } => self.resume(txn),
            Request::Get { target } => self.with_txn(|txn| {
                let value = if txn.kind() == TxnKind::ReadOnly {
                    txn.snapshot_read(&target)?
                } else {
                    txn.read(&target)?
                };
                Ok(vec![encode_value(&value)])
            }),
            Request::Put { target, value } => self.with_txn(|txn| match &target.object {
                Some(_) => {
                    txn.update(&target, value)?;
                    Ok(vec![])
                }
                None => {
                    let key = txn.insert(&target.relation, value)?;
                    let created = InstanceTarget { object: Some(key), ..target };
                    Ok(vec![encode_target(&created)])
                }
            }),
            Request::Del { target } => self.with_txn(|txn| {
                match (&target.object, target.steps.last()) {
                    (None, _) => Err(colock_txn::TxnError::Storage(
                        colock_storage::StorageError::BadTarget(
                            "DEL needs an object or element target".into(),
                        ),
                    )),
                    (Some(_), Some(step)) if step.elem.is_some() => {
                        txn.delete_element(&target)?;
                        Ok(vec![])
                    }
                    (Some(key), None) => {
                        txn.delete(&target.relation, key)?;
                        Ok(vec![])
                    }
                    (Some(_), Some(_)) => Err(colock_txn::TxnError::Storage(
                        colock_storage::StorageError::BadTarget(
                            "DEL of a whole attribute is not supported; PUT a new value".into(),
                        ),
                    )),
                }
            }),
            Request::Checkout { target, access } => self.with_txn(|txn| {
                let value = txn.checkout(&target, access)?;
                Ok(vec![encode_value(&value)])
            }),
            Request::Checkin { target, value } => self.with_txn(|txn| {
                txn.checkin(&target, value)?;
                Ok(vec![])
            }),
            Request::Commit => self.finish(true),
            Request::Abort => self.finish(false),
            Request::Explain => self.explain(),
            Request::Trace => self.trace(),
            Request::Stats => self.stats(),
            Request::Quit => {
                self.close(CloseReason::Quit);
                Reply::closing(Response::ok0())
            }
        }
    }

    fn handle_hello(&mut self, req: Request) -> Reply {
        match req {
            Request::Hello { name, version, role } => {
                if version != crate::wire::PROTOCOL_VERSION {
                    self.close(CloseReason::Disconnect);
                    return Reply::closing(Response::err(
                        ErrorCode::VersionMismatch,
                        format!(
                            "client speaks v{version}, server speaks v{}",
                            crate::wire::PROTOCOL_VERSION
                        ),
                    ));
                }
                self.greeted = true;
                self.name = name;
                self.role = role;
                Reply::one(Response::Ok(vec![
                    format!("sid={}", self.id.0),
                    format!("v{}", crate::wire::PROTOCOL_VERSION),
                    self.role.to_string(),
                ]))
            }
            other => Reply::closing(Response::err(
                ErrorCode::BadCommand,
                format!("expected HELLO, got {other:?}"),
            )),
        }
    }

    /// Installs this session's role rights for one transaction (retracted
    /// automatically by the manager when the transaction finishes). The
    /// relation names are the paper's standard environment: `cells` is the
    /// private design data, `effectors` the shared library.
    fn apply_role(&self, txn: colock_lockmgr::TxnId) {
        let authz = self.mgr.authorization();
        match self.role {
            Role::Reader => {
                authz.grant(txn, "cells", Right::Read);
                authz.grant(txn, "effectors", Right::Read);
            }
            Role::Engineer => {} // the defaults: cells Update, effectors Read
            Role::Librarian => {
                authz.grant(txn, "effectors", Right::Update);
            }
        }
    }

    fn begin(&mut self, kind: BeginKind) -> Reply {
        if self.txn.is_some() {
            return Reply::one(Response::err(
                ErrorCode::TxnOpen,
                "a transaction is already open on this session",
            ));
        }
        if self.draining.load(Ordering::SeqCst) {
            return Reply::one(Response::err(ErrorCode::ShuttingDown, "server is draining"));
        }
        let permit = match self.gate.admit() {
            Ok(p) => p,
            Err(backoff_ms) => {
                return Reply::one(Response::Err {
                    code: ErrorCode::Busy,
                    message: format!("{} transactions in flight", self.gate.inflight()),
                    backoff_ms: Some(backoff_ms),
                });
            }
        };
        let txn = match kind {
            BeginKind::Short => self.mgr.begin(TxnKind::Short),
            BeginKind::Long => self.mgr.begin(TxnKind::Long),
            BeginKind::ReadOnly => self.mgr.begin_readonly(),
        };
        txn.set_wait_policy(WaitPolicy::BlockTimeout(self.lock_wait));
        self.apply_role(txn.id());
        self.txns.push(txn.id().0);
        let id = txn.id().0;
        self.txn = Some(txn);
        self.permit = Some(permit);
        Reply::one(Response::Ok(vec![format!("T{id}")]))
    }

    fn resume(&mut self, id: colock_lockmgr::TxnId) -> Reply {
        if self.txn.is_some() {
            return Reply::one(Response::err(
                ErrorCode::TxnOpen,
                "a transaction is already open on this session",
            ));
        }
        let permit = match self.gate.admit() {
            Ok(p) => p,
            Err(backoff_ms) => {
                return Reply::one(Response::Err {
                    code: ErrorCode::Busy,
                    message: format!("{} transactions in flight", self.gate.inflight()),
                    backoff_ms: Some(backoff_ms),
                });
            }
        };
        match self.mgr.resume(id) {
            Ok(txn) => {
                txn.set_wait_policy(WaitPolicy::BlockTimeout(self.lock_wait));
                self.apply_role(txn.id());
                self.txns.push(txn.id().0);
                self.txn = Some(txn);
                self.permit = Some(permit);
                Reply::one(Response::Ok(vec![format!("T{}", id.0)]))
            }
            Err(e) => {
                drop(permit);
                let (code, message) = map_txn_error(&e);
                Reply::one(Response::err(code, message))
            }
        }
    }

    /// Runs a data operation against the open transaction, mapping errors to
    /// `ERR` frames. Errors that mean the transaction is dead (deadlock
    /// victim, pending victim, drain refusal) abort it server-side so the
    /// client can `BEGIN` again immediately.
    fn with_txn(
        &mut self,
        op: impl FnOnce(&Transaction<'m>) -> Result<Vec<String>, colock_txn::TxnError>,
    ) -> Reply {
        let Some(txn) = &self.txn else {
            return Reply::one(Response::err(ErrorCode::NoTxn, "no transaction open; BEGIN first"));
        };
        match op(txn) {
            Ok(fields) => Reply::one(Response::Ok(fields)),
            Err(e) => {
                let fatal = e.is_deadlock()
                    || e.is_draining()
                    || matches!(
                        &e,
                        colock_txn::TxnError::Protocol(colock_core::protocol::ProtocolError::Lock(
                            colock_lockmgr::LockError::VictimPending(_)
                        ))
                    );
                let (code, message) = map_txn_error(&e);
                if fatal {
                    if let Some(t) = self.txn.take() {
                        let _ = t.abort();
                    }
                    self.permit = None;
                }
                Reply::one(Response::err(code, message))
            }
        }
    }

    fn finish(&mut self, commit: bool) -> Reply {
        let Some(txn) = self.txn.take() else {
            return Reply::one(Response::err(ErrorCode::NoTxn, "no transaction open"));
        };
        let result = if commit { txn.commit() } else { txn.abort() };
        self.permit = None;
        match result {
            Ok(()) => Reply::one(Response::ok0()),
            Err(e) => {
                let (code, message) = map_txn_error(&e);
                Reply::one(Response::err(code, message))
            }
        }
    }

    fn explain(&mut self) -> Reply {
        let mine: Vec<_> = colock_trace::events_since(self.mark)
            .into_iter()
            .filter(|e| e.instance == self.mgr.trace_instance() && self.txns.contains(&e.txn))
            .collect();
        let tl = colock_trace::explain::timeline(&mine);
        let rendered = colock_trace::explain::render_timeline(&tl);
        let mut frames: Vec<Response> = rendered
            .lines()
            .filter(|l| !l.is_empty())
            .map(|l| Response::Event(l.to_string()))
            .collect();
        let n = frames.len() as u64;
        frames.push(Response::End(n));
        Reply { frames, close: false }
    }

    fn trace(&mut self) -> Reply {
        let events = colock_trace::events_since(self.mark);
        let mut frames: Vec<Response> =
            events.iter().map(|e| Response::Event(e.to_line())).collect();
        let n = frames.len() as u64;
        frames.push(Response::End(n));
        Reply { frames, close: false }
    }

    fn stats(&mut self) -> Reply {
        let s = self.mgr.lock_manager().stats().snapshot();
        let pairs: Vec<(&str, u64)> = vec![
            ("lock.requests", s.requests),
            ("lock.immediate_grants", s.immediate_grants),
            ("lock.waits", s.waits),
            ("lock.conversions", s.conversions),
            ("lock.conflict_tests", s.conflict_tests),
            ("lock.deadlocks", s.deadlocks),
            ("lock.releases", s.releases),
            ("lock.detector_runs", s.detector_runs),
            ("lock.wakeups", s.wakeups),
            ("lock.max_table_entries", s.max_table_entries),
            ("lock.max_locks_per_txn", s.max_locks_per_txn),
            ("lock.intent_acquires", s.intent_acquires),
            ("lock.fastpath_hits", s.fastpath_hits),
            ("lock.fastpath_retries", s.fastpath_retries),
            ("lock.fastpath_fallbacks", s.fastpath_fallbacks),
            ("lock.fastpath_drains", s.fastpath_drains),
            ("lock.reads_elided", s.reads_elided),
            ("sessions.open", self.table.open_count() as u64),
            ("sessions.peak", self.table.peak() as u64),
            ("txns.active", self.mgr.active_count() as u64),
            ("txns.inflight", self.gate.inflight() as u64),
            ("txns.inflight_peak", self.gate.peak() as u64),
        ];
        let mut frames: Vec<Response> = pairs
            .into_iter()
            .map(|(name, value)| Response::Stat { name: name.into(), value: value.to_string() })
            .collect();
        let n = frames.len() as u64;
        frames.push(Response::End(n));
        Reply { frames, close: false }
    }

    /// Ends the session: a short or read-only transaction still open is
    /// aborted; a long transaction is *leaked* — its durable long locks stay
    /// journaled on the medium, exactly the paper's conversational scenario,
    /// and a later `RESUME` (or §3.1 crash recovery) re-adopts them.
    pub fn close(&mut self, reason: CloseReason) {
        if self.closed {
            return;
        }
        self.closed = true;
        if let Some(txn) = self.txn.take() {
            if txn.kind() == TxnKind::Long {
                txn.leak();
            } else {
                let _ = txn.abort();
            }
        }
        self.permit = None;
        self.table.close(self.id);
        colock_trace::emit(|| {
            Event::new(EventKind::SessionClose, 0)
                .instance(self.mgr.trace_instance())
                .detail(format!("sid={} peer={} reason={}", self.id.0, self.peer, reason.as_str()))
        });
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.close(CloseReason::Disconnect);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_target;
    use colock_core::authorization::Authorization;
    use colock_core::AccessMode;
    use colock_nf2::Value;
    use colock_sim::{build_cells_store, CellsConfig};
    use colock_txn::{ProtocolKind, TransactionManager};

    fn manager() -> Arc<TransactionManager> {
        let cfg = CellsConfig { n_cells: 2, c_objects_per_cell: 4, ..Default::default() };
        let mut authz = Authorization::allow_all();
        authz.set_relation_default("effectors", Right::Read);
        Arc::new(TransactionManager::over_store(
            build_cells_store(&cfg),
            authz,
            ProtocolKind::Proposed,
        ))
    }

    fn harness() -> (Arc<TransactionManager>, Arc<SessionTable>, Arc<AdmissionGate>) {
        (
            manager(),
            Arc::new(SessionTable::new(8)),
            AdmissionGate::new(8, AdmissionPolicy::Refuse, Duration::from_millis(50)),
        )
    }

    fn session<'m>(
        mgr: &'m TransactionManager,
        table: &Arc<SessionTable>,
        gate: &Arc<AdmissionGate>,
    ) -> Session<'m> {
        let mut s = Session::open(
            mgr,
            Arc::clone(table),
            Arc::clone(gate),
            Arc::new(AtomicBool::new(false)),
            Duration::from_secs(2),
            "test".into(),
        )
        .expect("slot");
        let reply = s.handle(Request::Hello {
            name: "t".into(),
            version: crate::wire::PROTOCOL_VERSION,
            role: Role::Engineer,
        });
        assert!(matches!(reply.frames[0], Response::Ok(_)));
        s
    }

    fn ok_fields(reply: Reply) -> Vec<String> {
        match reply.frames.into_iter().next().expect("one frame") {
            Response::Ok(fs) => fs,
            other => panic!("expected OK, got {other:?}"),
        }
    }

    #[test]
    fn get_put_commit_roundtrip() {
        let (mgr, table, gate) = harness();
        let mut s = session(&mgr, &table, &gate);
        assert!(matches!(s.handle(Request::Begin { kind: BeginKind::Short }).frames[0], Response::Ok(_)));
        let t = parse_target("rel:cells/obj:c1/attr:robots/elem:r1/attr:trajectory").unwrap();
        let before = ok_fields(s.handle(Request::Get { target: t.clone() }));
        assert_eq!(before, vec!["s:traj-c1-r0".to_string()]);
        s.handle(Request::Put { target: t.clone(), value: Value::str("renamed") });
        assert_eq!(ok_fields(s.handle(Request::Get { target: t })), vec!["s:renamed".to_string()]);
        assert!(matches!(s.handle(Request::Commit).frames[0], Response::Ok(_)));
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn data_verbs_require_a_transaction() {
        let (mgr, table, gate) = harness();
        let mut s = session(&mgr, &table, &gate);
        let t = parse_target("rel:cells/obj:c1").unwrap();
        match &s.handle(Request::Get { target: t }).frames[0] {
            Response::Err { code, .. } => assert_eq!(*code, ErrorCode::NoTxn),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reader_role_cannot_update() {
        let (mgr, table, gate) = harness();
        let mut s = session(&mgr, &table, &gate);
        s.role = Role::Reader;
        s.handle(Request::Begin { kind: BeginKind::Short });
        let t = parse_target("rel:cells/obj:c1/attr:robots/elem:r1/attr:trajectory").unwrap();
        match &s.handle(Request::Put { target: t, value: Value::str("x") }).frames[0] {
            Response::Err { code, .. } => assert_eq!(*code, ErrorCode::Unauthorized),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn librarian_may_update_the_library_engineer_may_not() {
        let (mgr, table, gate) = harness();
        let t = parse_target("rel:effectors/obj:e1/attr:tool").unwrap();

        let mut eng = session(&mgr, &table, &gate);
        eng.handle(Request::Begin { kind: BeginKind::Short });
        match &eng.handle(Request::Put { target: t.clone(), value: Value::str("x") }).frames[0] {
            Response::Err { code, .. } => assert_eq!(*code, ErrorCode::Unauthorized),
            other => panic!("{other:?}"),
        }
        eng.handle(Request::Abort);

        let mut lib = session(&mgr, &table, &gate);
        lib.role = Role::Librarian;
        lib.handle(Request::Begin { kind: BeginKind::Short });
        assert!(matches!(
            lib.handle(Request::Put { target: t, value: Value::str("x") }).frames[0],
            Response::Ok(_)
        ));
        lib.handle(Request::Commit);
    }

    #[test]
    fn session_table_is_bounded() {
        let table = SessionTable::new(2);
        let a = table.try_open(SessionInfo { name: "a".into(), peer: "p".into() }).unwrap();
        let _b = table.try_open(SessionInfo { name: "b".into(), peer: "p".into() }).unwrap();
        assert!(table.try_open(SessionInfo { name: "c".into(), peer: "p".into() }).is_none());
        table.close(a);
        assert!(table.try_open(SessionInfo { name: "c".into(), peer: "p".into() }).is_some());
        assert_eq!(table.peak(), 2);
    }

    #[test]
    fn refuse_gate_sheds_excess_begins_with_backoff() {
        let (mgr, table, _) = harness();
        let gate = AdmissionGate::new(1, AdmissionPolicy::Refuse, Duration::from_millis(10));
        let mut a = session(&mgr, &table, &gate);
        let mut b = session(&mgr, &table, &gate);
        a.handle(Request::Begin { kind: BeginKind::Short });
        match &b.handle(Request::Begin { kind: BeginKind::Short }).frames[0] {
            Response::Err { code, backoff_ms, .. } => {
                assert_eq!(*code, ErrorCode::Busy);
                let hint = backoff_ms.expect("BUSY must hint a backoff");
                assert!(
                    hint >= BACKOFF_FLOOR_MS,
                    "a 0-ms hint turns shed clients into a tight retry herd: got {hint}"
                );
            }
            other => panic!("{other:?}"),
        }
        a.handle(Request::Commit);
        assert!(matches!(b.handle(Request::Begin { kind: BeginKind::Short }).frames[0], Response::Ok(_)));
        b.handle(Request::Abort);
    }

    #[test]
    fn backoff_hints_never_drop_below_the_floor_and_stay_jittered() {
        let gate = AdmissionGate::new(1, AdmissionPolicy::Refuse, Duration::from_millis(1));
        let _held = gate.admit().expect("first slot");
        let hints: Vec<u64> =
            (0..64).map(|_| gate.admit().err().expect("gate is full")).collect();
        assert!(hints.iter().all(|&h| h >= BACKOFF_FLOOR_MS), "{hints:?}");
        // Full jitter, not a constant: consecutive refusals must not all
        // agree (64 identical draws from a ≥8-wide window ≈ impossible).
        assert!(hints.windows(2).any(|w| w[0] != w[1]), "{hints:?}");
    }

    #[test]
    fn spurious_notify_storm_refuses_at_the_budget_instead_of_spinning() {
        // Regression: a wakeup landing at/past the deadline used to feed a
        // zero-length `wait_timeout`, so a notify storm could spin the admit
        // loop while the gate stayed full. Staged deterministically: the
        // waiter parks behind a full gate, then the main thread fires
        // spurious notifies (nothing ever frees a slot) well past the
        // waiter's budget; the waiter must come back refused, promptly.
        let gate = AdmissionGate::new(1, AdmissionPolicy::Queue, Duration::from_millis(40));
        let held = gate.admit().expect("fill the gate");
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                barrier.wait(); // stage 1: both sides ready
                let started = Instant::now();
                let refused = gate.admit();
                (refused.err(), started.elapsed())
            });
            barrier.wait();
            // Spurious-notify storm for 4× the wait budget.
            let storm_ends = Instant::now() + Duration::from_millis(160);
            while Instant::now() < storm_ends {
                gate.freed.notify_all();
                std::thread::yield_now();
            }
            let (hint, elapsed) = waiter.join().expect("waiter");
            let hint = hint.expect("gate stayed full: the BEGIN must be refused");
            assert!(hint >= BACKOFF_FLOOR_MS, "refusal must carry a floored hint: {hint}");
            assert!(
                elapsed < Duration::from_millis(160),
                "waiter must refuse when its budget runs out, not spin while notified: {elapsed:?}"
            );
        });
        drop(held);
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn disconnect_leaks_long_txn_and_resume_readopts() {
        let (mgr, table, gate) = harness();
        let t = parse_target("rel:cells/obj:c1").unwrap();
        let txn_id;
        {
            let mut s = session(&mgr, &table, &gate);
            let fields = ok_fields(s.handle(Request::Begin { kind: BeginKind::Long }));
            txn_id = fields[0].trim_start_matches('T').parse::<u64>().unwrap();
            assert!(matches!(
                s.handle(Request::Checkout { target: t.clone(), access: AccessMode::Update })
                    .frames[0],
                Response::Ok(_)
            ));
            s.close(CloseReason::Disconnect);
        }
        // The long lock survived the disconnect: a rival update still blocks.
        {
            let rival = mgr.begin(TxnKind::Short);
            rival.set_wait_policy(WaitPolicy::Try);
            let err = rival.lock(&t, AccessMode::Update).unwrap_err();
            assert!(err.is_would_block(), "{err}");
            rival.abort().unwrap();
        }
        // A new session resumes the conversation and finishes it.
        let mut s = session(&mgr, &table, &gate);
        assert!(matches!(
            s.handle(Request::Resume { txn: colock_lockmgr::TxnId(txn_id) }).frames[0],
            Response::Ok(_)
        ));
        let current = ok_fields(s.handle(Request::Get { target: t.clone() })).remove(0);
        let value = crate::wire::parse_value(&current).unwrap();
        assert!(matches!(
            s.handle(Request::Checkin { target: t, value }).frames[0],
            Response::Ok(_)
        ));
        assert!(matches!(s.handle(Request::Commit).frames[0], Response::Ok(_)));
    }

    #[test]
    fn deadlock_victim_is_aborted_server_side() {
        let (mgr, table, gate) = harness();
        let c1 = parse_target("rel:cells/obj:c1").unwrap();
        let c2 = parse_target("rel:cells/obj:c2").unwrap();
        let mut a = session(&mgr, &table, &gate);
        let mut b = session(&mgr, &table, &gate);
        a.handle(Request::Begin { kind: BeginKind::Short });
        b.handle(Request::Begin { kind: BeginKind::Short });
        assert!(matches!(
            a.handle(Request::Checkout { target: c1.clone(), access: AccessMode::Update }).frames[0],
            Response::Ok(_)
        ));
        assert!(matches!(
            b.handle(Request::Checkout { target: c2.clone(), access: AccessMode::Update }).frames[0],
            Response::Ok(_)
        ));
        std::thread::scope(|scope| {
            // A parks on c2 while b (the younger transaction) closes the
            // cycle on c1 and is chosen as victim.
            let t = scope.spawn(move || {
                a.handle(Request::Checkout { target: c2, access: AccessMode::Update })
            });
            std::thread::sleep(Duration::from_millis(100));
            let reply = b.handle(Request::Checkout { target: c1, access: AccessMode::Update });
            match &reply.frames[0] {
                Response::Err { code, .. } => assert_eq!(*code, ErrorCode::Deadlock),
                other => panic!("expected deadlock, got {other:?}"),
            }
            // The victim transaction was aborted server-side: the session is
            // free to BEGIN again without an explicit ABORT.
            assert!(!b.in_txn());
            let survivor = t.join().unwrap();
            assert!(matches!(survivor.frames[0], Response::Ok(_)));
        });
    }

    #[test]
    fn quit_closes_and_frees_the_slot() {
        let (mgr, table, gate) = harness();
        let mut s = session(&mgr, &table, &gate);
        let before = table.open_count();
        let reply = s.handle(Request::Quit);
        assert!(reply.close);
        assert_eq!(table.open_count(), before - 1);
    }

    #[test]
    fn explain_and_trace_stream_with_end_counts() {
        colock_trace::enable();
        let (mgr, table, gate) = harness();
        let mut s = session(&mgr, &table, &gate);
        s.handle(Request::Begin { kind: BeginKind::Short });
        s.handle(Request::Get { target: parse_target("rel:cells/obj:c1/attr:robots/elem:r1/attr:trajectory").unwrap() });
        s.handle(Request::Commit);
        let reply = s.handle(Request::Explain);
        let Some(Response::End(n)) = reply.frames.last() else { panic!("no END") };
        assert_eq!(*n as usize, reply.frames.len() - 1);
        assert!(*n > 0, "timeline should mention the txn");
        let reply = s.handle(Request::Trace);
        let Some(Response::End(n)) = reply.frames.last() else { panic!("no END") };
        assert!(*n > 0);
    }

    #[test]
    fn stats_include_sessions_and_lock_counters() {
        let (mgr, table, gate) = harness();
        let mut s = session(&mgr, &table, &gate);
        let reply = s.handle(Request::Stats);
        let names: Vec<String> = reply
            .frames
            .iter()
            .filter_map(|f| match f {
                Response::Stat { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"lock.requests".to_string()));
        assert!(names.contains(&"sessions.open".to_string()));
        assert!(matches!(reply.frames.last(), Some(Response::End(_))));
    }
}
