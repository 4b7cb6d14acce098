//! Replay probes: self time below the driver's own call boundary.
//!
//! The spans of a run only see the calls the driver makes. To split those
//! calls by layer, client 0's stream is replayed **single-threaded** into
//! each lower layer's *public* API on identical inputs, each probe against
//! its own fresh copy of the database and all of them taking turns every
//! few milliseconds (so they share the host's weather):
//!
//! | probe | calls | gives |
//! |---|---|---|
//! | resolve | `ProtocolEngine::resource_for` + `ResourcePath::ancestors` | `core.resolve_us` |
//! | protocol | `lock_proposed_mode_cached` on a private empty table | inclusive core |
//! | lockmgr | the protocol probe's `LockReport`s on a fresh `LockManager` + `release_all` | `lockmgr.acquire_us` |
//! | journal | `JournalSink::record` per long grant / release | `lockmgr.journal_append_us` |
//! | storage | `get_at` / `get_at_snapshot` / `get`, `update_at_pending`, `install_version` | `storage.*_us` |
//! | txn | the same steps through `Transaction` | inclusive txn |
//! | session | the same requests through `Session::handle`, frames and records over memory | inclusive session, `server.frame_us`, `server.wire_us` |
//!
//! A layer's self time is its probe minus the probes of the layers it calls
//! ([`budget`]). What this cannot see: time a layer spends *because another
//! thread interferes* (cache-line and mutex sharing, lock waits) — that lands
//! in `txn.interference_us`, not in the layer.

use crate::drive::{Call, Tracer};
use crate::env::{engineer_authz, Env};
use crate::gen::{Fig7Body, Fig7Txn, Targets};
use colock_core::authorization::Right;
use colock_core::{
    InstanceTarget, PathStep, ProtocolEngine, ProtocolOptions, ResourcePath, TargetStep,
    TxnLockCache,
};
use colock_lockmgr::{
    Journal, JournalOp, JournalSink, LockManager, LockMode, LockRequestOptions, TxnId, WaitPolicy,
};
use colock_nf2::{ObjectKey, Value};
use colock_server::frame::{encode_frame, FrameReader};
use colock_server::session::{AdmissionGate, AdmissionPolicy, Session, SessionTable};
use colock_server::wire::{parse_value, BeginKind, Request, Response, Role, PROTOCOL_VERSION};
use colock_sim::{build_cells_store, CellsConfig};
use colock_storage::VersionPatch;
use colock_txn::TxnKind;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One step of a transaction as the layers below the driver see it.
#[derive(Debug, Clone)]
pub enum Step {
    /// `Transaction::read`: S lock + `get_at`.
    Read(InstanceTarget),
    /// `Transaction::snapshot_read`: `get_at_snapshot`, no lock.
    SnapRead(InstanceTarget),
    /// `Transaction::update`: X lock + `update_at_pending`.
    Update(InstanceTarget, Value),
    /// `Transaction::checkout` for update: long X lock + `get_at`.
    Checkout(InstanceTarget),
    /// `Transaction::checkin` of the value the last read step returned.
    CheckinLast(InstanceTarget),
    /// `Transaction::lock_with_mode_blocking` (what the query executor
    /// issues for a planned lock).
    Lock(InstanceTarget, LockMode),
    /// `Store::get` of a whole object (what the query executor binds a
    /// relation range to) — storage only, no transaction call.
    GetObject(&'static str, ObjectKey),
}

/// A transaction in probe form.
#[derive(Debug, Clone)]
pub struct ProbeTxn {
    /// Short, long or read-only.
    pub kind: TxnKind,
    /// Runs with librarian rights.
    pub librarian: bool,
    /// Its steps, in order.
    pub steps: Vec<Step>,
}

impl Step {
    /// The lock request this step makes, if any: target, mode, long.
    fn lock_op(&self, kind: TxnKind) -> Option<(&InstanceTarget, LockMode, bool)> {
        let long = kind == TxnKind::Long;
        match self {
            Step::Read(t) => Some((t, LockMode::S, long)),
            Step::Update(t, _) => Some((t, LockMode::X, long)),
            Step::Checkout(t) => Some((t, LockMode::X, true)),
            Step::Lock(t, m) => Some((t, *m, long)),
            Step::SnapRead(_) | Step::CheckinLast(_) | Step::GetObject(..) => None,
        }
    }
}

/// Totals (ns over all probed transactions) and counts from the probes.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Transactions probed.
    pub txns: u64,
    /// `resource_for` + `ancestors`.
    pub resolve_ns: u64,
    /// `lock_proposed_mode_cached` calls on the private table.
    pub protocol_ns: u64,
    /// Lock-report replay on a fresh `LockManager`: acquisitions.
    pub lockmgr_acquire_ns: u64,
    /// Lock-report replay: `release_all`.
    pub lockmgr_release_ns: u64,
    /// Journal records for long grants.
    pub journal_grant_ns: u64,
    /// Journal records for long releases.
    pub journal_release_ns: u64,
    /// `get_at` / `get_at_snapshot` on targets.
    pub read_ns: u64,
    /// `Store::get` of whole objects (query executor bindings).
    pub object_read_ns: u64,
    /// `update_at_pending`.
    pub write_ns: u64,
    /// `CommitClock::commit` + `install_version`.
    pub install_ns: u64,
    /// `begin` / `begin_readonly` through the manager.
    pub txn_begin_ns: u64,
    /// Steps the driver issues as `Transaction` calls itself.
    pub txn_direct_ns: u64,
    /// Steps the query executor issues (`Lock`, and `Update` in a
    /// transaction that has `Lock` steps).
    pub txn_query_ns: u64,
    /// `commit` through the manager.
    pub txn_commit_ns: u64,
    /// `Session::handle` of every request.
    pub session_ns: u64,
    /// `encode_frame` + `FrameReader::read_frame` over memory.
    pub frame_ns: u64,
    /// `Request`/`Response` `encode` + `parse`, value codec.
    pub wire_ns: u64,
    /// Requests sent (one response each).
    pub requests: u64,
    /// Frame bytes in both directions.
    pub wire_bytes: u64,
    /// Granted, non-redundant lock requests in the lock reports.
    pub locks: u64,
    /// Entry points locked by downward propagation.
    pub entry_points: u64,
    /// Entry points rule 4′ weakened from X to S.
    pub weakened: u64,
    /// Storage reads made.
    pub reads: u64,
    /// Bytes of the values those reads returned.
    pub read_bytes: u64,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Approximate in-memory payload of a value: string bytes plus 8 per
/// number/reference key, summed over the tree.
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Str(s) => s.len() as u64,
        Value::Int(_) | Value::Real(_) => 8,
        Value::Bool(_) => 1,
        Value::Set(es) | Value::List(es) => es.iter().map(value_bytes).sum(),
        Value::Tuple(fs) => fs
            .iter()
            .map(|(n, v)| n.len() as u64 + value_bytes(v))
            .sum(),
        Value::Ref(r) => r.relation.len() as u64 + 8,
    }
}

/// What one lock request acquired, in acquisition order.
struct LockOpReport {
    acquired: Vec<(ResourcePath, LockMode)>,
    long: bool,
}

/// Resolve and protocol probes over a private, empty lock table.
struct CoreProbe {
    store: Arc<colock_storage::Store>,
    engine: ProtocolEngine,
    authz: colock_core::Authorization,
    lm: LockManager<ResourcePath>,
}

impl CoreProbe {
    fn new(cells: &CellsConfig) -> CoreProbe {
        let store = build_cells_store(cells);
        let engine = ProtocolEngine::new(Arc::clone(store.catalog()));
        CoreProbe {
            store,
            engine,
            authz: engineer_authz(),
            lm: LockManager::new(),
        }
    }

    /// One pass of `t`'s lock requests through the engine; the table is
    /// empty again afterwards. `keep` collects the lock reports.
    fn pass(
        &self,
        id: TxnId,
        t: &ProbeTxn,
        mut keep: Option<&mut Vec<(colock_core::LockReport, LockMode, bool)>>,
    ) -> u64 {
        if t.librarian {
            self.authz.grant(id, "effectors", Right::Update);
        }
        let cache = TxnLockCache::new();
        let t0 = Instant::now();
        for (target, mode, long) in t.steps.iter().filter_map(|s| s.lock_op(t.kind)) {
            let opts = ProtocolOptions {
                long,
                wait: WaitPolicy::Block,
                ..Default::default()
            };
            let report = self
                .engine
                .lock_proposed_mode_cached(
                    &self.lm,
                    id,
                    &*self.store,
                    &self.authz,
                    target,
                    mode,
                    opts,
                    Some(&cache),
                )
                .expect("a private table never conflicts");
            if let Some(kept) = keep.as_deref_mut() {
                kept.push((report, mode, long));
            }
        }
        let elapsed = ns(t0);
        self.lm.release_all(id);
        self.authz.retract(id);
        elapsed
    }

    /// Probes one transaction; returns its lock reports for the lockmgr and
    /// journal probes.
    fn step(&self, id: TxnId, t: &ProbeTxn, p: &mut Probes) -> Vec<LockOpReport> {
        let t0 = Instant::now();
        for (target, _, _) in t.steps.iter().filter_map(|s| s.lock_op(t.kind)) {
            let resource = self
                .engine
                .resource_for(target)
                .expect("stream targets name known relations");
            black_box(resource.ancestors());
        }
        p.resolve_ns += ns(t0);

        // Two passes over the same (emptied in between) private table: the
        // first keeps the lock reports, the second is the timed one and
        // drops each report at once, as `Transaction` does — a kept report
        // would turn the next allocation into a cold one.
        let mut kept = Vec::new();
        self.pass(id, t, Some(&mut kept));
        p.protocol_ns += self.pass(id, t, None);

        kept.into_iter()
            .map(|(report, mode, long)| {
                p.locks += report.lock_count() as u64;
                p.entry_points += report.entry_points_locked;
                if matches!(mode, LockMode::X | LockMode::SIX) {
                    p.weakened += report
                        .acquired
                        .iter()
                        .filter(|(r, m)| {
                            *m == LockMode::S
                                && r.relation_name()
                                    .is_some_and(|rel| self.engine.is_common(rel))
                        })
                        .count() as u64;
                }
                LockOpReport {
                    acquired: report.acquired,
                    long,
                }
            })
            .collect()
    }
}

/// Replays lock reports on a fresh lock manager (no journal attached: the
/// journal probe times that part).
fn lockmgr_step(lm: &LockManager<ResourcePath>, id: TxnId, ops: &[LockOpReport], p: &mut Probes) {
    enum Segment {
        Chain(Vec<ResourcePath>, LockMode),
        Single(ResourcePath, LockMode),
    }
    // Consecutive intents of one mode were one `acquire_intent_chain` call
    // (the ancestor chain); anything else a single `acquire`.
    let prepared: Vec<(Vec<Segment>, LockRequestOptions)> = ops
        .iter()
        .map(|op| {
            let mut segments: Vec<Segment> = Vec::new();
            for (r, m) in &op.acquired {
                match segments.last_mut() {
                    Some(Segment::Chain(chain, mode)) if m.is_intent() && mode == m => {
                        chain.push(r.clone());
                    }
                    _ if m.is_intent() => segments.push(Segment::Chain(vec![r.clone()], *m)),
                    _ => segments.push(Segment::Single(r.clone(), *m)),
                }
            }
            (
                segments,
                LockRequestOptions {
                    policy: WaitPolicy::Block,
                    long: op.long,
                },
            )
        })
        .collect();
    let t0 = Instant::now();
    for (segments, opts) in prepared {
        for s in segments {
            match s {
                Segment::Chain(chain, mode) => {
                    black_box(lm.acquire_intent_chain(id, &chain, mode, opts))
                        .expect("a fresh table never conflicts");
                }
                Segment::Single(r, mode) => {
                    black_box(lm.acquire(id, r, mode, opts))
                        .expect("a fresh table never conflicts");
                }
            }
        }
    }
    p.lockmgr_acquire_ns += ns(t0);
    let t0 = Instant::now();
    black_box(lm.release_all(id));
    p.lockmgr_release_ns += ns(t0);
}

/// One journal record per long grant and per long release, as the lock
/// manager writes them.
fn journal_step(journal: &Journal<ResourcePath>, id: TxnId, ops: &[LockOpReport], p: &mut Probes) {
    let long: Vec<&(ResourcePath, LockMode)> = ops
        .iter()
        .filter(|op| op.long)
        .flat_map(|op| &op.acquired)
        .collect();
    if long.is_empty() {
        return;
    }
    let t0 = Instant::now();
    for (r, m) in &long {
        journal
            .record(JournalOp::Grant, id, r, *m)
            .expect("no fault plan armed");
    }
    p.journal_grant_ns += ns(t0);
    let t0 = Instant::now();
    for (r, m) in &long {
        journal
            .record(JournalOp::Release, id, r, *m)
            .expect("no fault plan armed");
    }
    p.journal_release_ns += ns(t0);
}

fn key_of(target: &InstanceTarget) -> &ObjectKey {
    target
        .object
        .as_ref()
        .expect("stream targets name an object")
}

/// Storage probe: the reads, pending writes and version installs of the
/// stream, straight on a fresh store.
struct StorageProbe {
    store: Arc<colock_storage::Store>,
    installs: u64,
}

impl StorageProbe {
    /// `TransactionManager`'s default GC cadence.
    const GC_EVERY: u64 = 64;

    fn step(&mut self, t: &ProbeTxn, p: &mut Probes) {
        let store = &*self.store;
        let read = |v: Value, p: &mut Probes| {
            p.reads += 1;
            p.read_bytes += value_bytes(&v);
            v
        };
        let ts = store.clock().stable();
        let mut last: Option<Value> = None;
        let mut written: Vec<&InstanceTarget> = Vec::new();
        for step in &t.steps {
            match step {
                Step::Read(target) | Step::Checkout(target) => {
                    let t0 = Instant::now();
                    let v = store.get_at(&target.relation, key_of(target), &target.steps);
                    p.read_ns += ns(t0);
                    last = Some(read(v.expect("stream reads exist"), p));
                }
                Step::SnapRead(target) => {
                    let t0 = Instant::now();
                    let v =
                        store.get_at_snapshot(&target.relation, key_of(target), &target.steps, ts);
                    p.read_ns += ns(t0);
                    last = Some(read(v.expect("stream reads exist"), p));
                }
                Step::GetObject(relation, key) => {
                    let t0 = Instant::now();
                    let v = store.get(relation, key);
                    p.object_read_ns += ns(t0);
                    read(v.expect("stream objects exist"), p);
                }
                Step::Update(target, _) | Step::CheckinLast(target) => {
                    let value = match step {
                        Step::Update(_, value) => value.clone(),
                        _ => last.clone().expect("a check-in follows its check-out"),
                    };
                    let t0 = Instant::now();
                    let before = store.update_at_pending(
                        &target.relation,
                        key_of(target),
                        &target.steps,
                        value,
                    );
                    p.write_ns += ns(t0);
                    black_box(before.expect("stream writes fit the schema"));
                    written.push(target);
                }
                Step::Lock(..) => {}
            }
        }
        if written.is_empty() {
            return;
        }
        // One patch per touched object, as `commit_patches` composes.
        let mut patches: Vec<(&InstanceTarget, Vec<Vec<TargetStep>>)> = Vec::new();
        for w in written {
            match patches
                .iter_mut()
                .find(|(t, _)| t.relation == w.relation && t.object == w.object)
            {
                Some((_, paths)) => paths.push(w.steps.clone()),
                None => patches.push((w, vec![w.steps.clone()])),
            }
        }
        let patches: Vec<(&InstanceTarget, VersionPatch)> = patches
            .into_iter()
            .map(|(t, paths)| (t, VersionPatch::Paths(paths)))
            .collect();
        let t0 = Instant::now();
        store.clock().commit(|ts| {
            for (t, patch) in &patches {
                store
                    .install_version(&t.relation, key_of(t), ts, patch)
                    .expect("written objects exist");
            }
        });
        p.install_ns += ns(t0);
        // The manager prunes version chains every `gc_every` writer commits
        // (its own self time); without it the chains here would outgrow the
        // cache the real store stays in.
        self.installs += 1;
        if self.installs.is_multiple_of(Self::GC_EVERY) {
            store.prune_versions(store.clock().stable());
        }
    }
}

/// Transaction probe: the same steps through `Transaction`, solo.
fn txn_step(env: &Env, t: &ProbeTxn, p: &mut Probes) {
    let mgr = &*env.manager;
    let t0 = Instant::now();
    let txn = match t.kind {
        TxnKind::ReadOnly => mgr.begin_readonly(),
        kind => mgr.begin(kind),
    };
    p.txn_begin_ns += ns(t0);
    if t.librarian {
        mgr.authorization()
            .grant(txn.id(), "effectors", Right::Update);
    }
    let from_query = t.steps.iter().any(|s| matches!(s, Step::Lock(..)));
    let mut last: Option<Value> = None;
    for step in &t.steps {
        let t0 = Instant::now();
        match step {
            Step::Read(target) => last = Some(txn.read(target).expect("solo read")),
            Step::SnapRead(target) => {
                last = Some(txn.snapshot_read(target).expect("solo snapshot read"));
            }
            Step::Update(target, value) => {
                txn.update(target, value.clone()).expect("solo update");
            }
            Step::Checkout(target) => {
                let v = txn.checkout(target, colock_core::AccessMode::Update);
                last = Some(v.expect("solo check-out"));
            }
            Step::CheckinLast(target) => {
                let value = last.clone().expect("a check-in follows its check-out");
                txn.checkin(target, value).expect("solo check-in");
            }
            Step::Lock(target, mode) => {
                black_box(
                    txn.lock_with_mode_blocking(target, *mode)
                        .expect("solo lock"),
                );
            }
            Step::GetObject(..) => continue,
        }
        if from_query {
            p.txn_query_ns += ns(t0);
        } else {
            p.txn_direct_ns += ns(t0);
        }
    }
    let t0 = Instant::now();
    txn.commit().expect("solo commit");
    p.txn_commit_ns += ns(t0);
}

/// In-memory byte pipe: the session probe writes frames in and a persistent
/// `FrameReader` reads them out, like the per-connection reader it mimics.
#[derive(Clone, Default)]
struct MemPipe(Rc<RefCell<VecDeque<u8>>>);

impl std::io::Read for MemPipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().read(buf)
    }
}

/// Session probe: every request of the stream encoded, framed, read back,
/// parsed, handled by an in-process `Session`, and the reply taken the same
/// way back.
struct SessionProbe<'e> {
    session: Session<'e>,
    pipe: MemPipe,
    reader: FrameReader<MemPipe>,
}

impl<'e> SessionProbe<'e> {
    fn new(env: &'e Env) -> SessionProbe<'e> {
        let table = Arc::new(SessionTable::new(8));
        let gate = AdmissionGate::new(256, AdmissionPolicy::Queue, Duration::from_millis(500));
        let session = Session::open(
            &env.manager,
            table,
            gate,
            Arc::new(AtomicBool::new(false)),
            crate::env::LOCK_WAIT,
            "probe".into(),
        )
        .unwrap_or_else(|_| panic!("a fresh session table has room"));
        let pipe = MemPipe::default();
        let reader = FrameReader::new(pipe.clone());
        let mut probe = SessionProbe {
            session,
            pipe,
            reader,
        };
        // HELLO is connection set-up, not part of a transaction.
        probe.exchange(
            Request::Hello {
                name: "probe".into(),
                version: PROTOCOL_VERSION,
                role: Role::Engineer,
            },
            &mut Probes::default(),
        );
        probe
    }

    /// Frames `payload` into the pipe and reads it back out.
    fn through_frame(&mut self, payload: &str, p: &mut Probes) -> String {
        let t0 = Instant::now();
        let frame = encode_frame(payload);
        self.pipe.0.borrow_mut().extend(frame.as_bytes());
        let back = self
            .reader
            .read_frame()
            .expect("well-formed frame")
            .expect("frame present");
        p.frame_ns += ns(t0);
        p.wire_bytes += frame.len() as u64;
        back
    }

    /// One request and its reply; returns the `OK` fields.
    fn exchange(&mut self, req: Request, p: &mut Probes) -> Vec<String> {
        let t0 = Instant::now();
        let payload = req.encode();
        p.wire_ns += ns(t0);
        let payload = self.through_frame(&payload, p);
        let t0 = Instant::now();
        let req = Request::parse(&payload).expect("own encoding parses");
        p.wire_ns += ns(t0);
        let t0 = Instant::now();
        let reply = self.session.handle(req);
        p.session_ns += ns(t0);
        p.requests += 1;
        let mut fields = Vec::new();
        for response in &reply.frames {
            let t0 = Instant::now();
            let payload = response.encode();
            p.wire_ns += ns(t0);
            let payload = self.through_frame(&payload, p);
            let t0 = Instant::now();
            let parsed = Response::parse(&payload).expect("own encoding parses");
            p.wire_ns += ns(t0);
            match parsed {
                Response::Ok(f) => fields = f,
                other => panic!("solo request refused: {other:?}"),
            }
        }
        fields
    }

    fn step(&mut self, t: &ProbeTxn, p: &mut Probes) {
        let value_of = |fields: Vec<String>, p: &mut Probes| -> Value {
            let t0 = Instant::now();
            let v = parse_value(&fields[0]).expect("own encoding parses");
            p.wire_ns += ns(t0);
            v
        };
        let kind = match t.kind {
            TxnKind::Short => BeginKind::Short,
            TxnKind::Long => BeginKind::Long,
            TxnKind::ReadOnly => BeginKind::ReadOnly,
        };
        self.exchange(Request::Begin { kind }, p);
        let mut last: Option<Value> = None;
        for step in &t.steps {
            match step {
                Step::Read(target) | Step::SnapRead(target) => {
                    let f = self.exchange(
                        Request::Get {
                            target: target.clone(),
                        },
                        p,
                    );
                    last = Some(value_of(f, p));
                }
                Step::Update(target, value) => {
                    self.exchange(
                        Request::Put {
                            target: target.clone(),
                            value: value.clone(),
                        },
                        p,
                    );
                }
                Step::Checkout(target) => {
                    let access = colock_core::AccessMode::Update;
                    let f = self.exchange(
                        Request::Checkout {
                            target: target.clone(),
                            access,
                        },
                        p,
                    );
                    last = Some(value_of(f, p));
                }
                Step::CheckinLast(target) => {
                    let value = last.clone().expect("a check-in follows its check-out");
                    self.exchange(
                        Request::Checkin {
                            target: target.clone(),
                            value,
                        },
                        p,
                    );
                }
                Step::Lock(..) | Step::GetObject(..) => {
                    unreachable!("the wire protocol has no such verb; mix streams never emit it")
                }
            }
        }
        self.exchange(Request::Commit, p);
    }
}

/// Transactions each probe handles before the next probe takes its turn.
const TURN: usize = 256;

/// Runs every probe over `txns`, taking turns: `solo(i)` (the driver's own
/// solo replay of transaction `i`) for [`TURN`] transactions, then each
/// probe for the same transactions, each on its own fresh database, and so
/// on. A turn is a few milliseconds, so all the numbers a self time is
/// subtracted from come from the same moment of host weather; it is also
/// long enough that each probe runs warm, as the layers do under load
/// (taking turns after every single transaction made every probe, and the
/// solo replay, run 10–20% colder than the loaded run they explain).
/// `served` adds the session probe.
pub fn run_probes(
    cells: &CellsConfig,
    txns: &[ProbeTxn],
    served: bool,
    mut solo: impl FnMut(usize) -> Result<(), String>,
) -> Result<Probes, String> {
    let mut p = Probes {
        txns: txns.len() as u64,
        ..Probes::default()
    };
    let core = CoreProbe::new(cells);
    let lockmgr: LockManager<ResourcePath> = LockManager::new();
    let journal: Journal<ResourcePath> = Journal::new();
    let mut storage = StorageProbe {
        store: build_cells_store(cells),
        installs: 0,
    };
    let txn_env = Env::new(cells);
    let session_env = served.then(|| Env::new(cells));
    let mut session = session_env.as_ref().map(SessionProbe::new);
    for (turn, batch) in txns.chunks(TURN).enumerate() {
        let first = turn * TURN;
        let id = |i: usize| TxnId((first + i) as u64 + 1);
        for i in 0..batch.len() {
            solo(first + i)?;
        }
        let reports: Vec<Vec<LockOpReport>> = batch
            .iter()
            .enumerate()
            .map(|(i, t)| core.step(id(i), t, &mut p))
            .collect();
        for (i, ops) in reports.iter().enumerate() {
            lockmgr_step(&lockmgr, id(i), ops, &mut p);
        }
        for (i, ops) in reports.iter().enumerate() {
            journal_step(&journal, id(i), ops, &mut p);
        }
        for t in batch {
            storage.step(t, &mut p);
        }
        for t in batch {
            txn_step(&txn_env, t, &mut p);
        }
        if let Some(session) = session.as_mut() {
            for t in batch {
                session.step(t, &mut p);
            }
        }
    }
    Ok(p)
}

/// The lock counts of the protocol probe alone (no timing): granted
/// non-redundant lock requests, entry points locked, entry points rule 4′
/// weakened — totals over `txns`.
pub fn lock_counts(cells: &CellsConfig, txns: &[ProbeTxn]) -> (u64, u64, u64) {
    let mut p = Probes::default();
    let core = CoreProbe::new(cells);
    for (i, t) in txns.iter().enumerate() {
        core.step(TxnId(i as u64 + 1), t, &mut p);
    }
    (p.locks, p.entry_points, p.weakened)
}

// ---------------------------------------------------------------------------
// Fig. 7: probe transactions from lock footprints
// ---------------------------------------------------------------------------

/// The lock target a resource path names.
fn target_of(resource: &ResourcePath) -> InstanceTarget {
    let mut target: Option<InstanceTarget> = None;
    let mut steps = resource.steps().iter().peekable();
    while let Some(step) = steps.next() {
        match step {
            PathStep::Relation(r) => target = Some(InstanceTarget::relation(r.clone())),
            PathStep::Object(k) => {
                target.as_mut().expect("object below a relation").object = Some(k.clone());
            }
            PathStep::Attr(a) => {
                let elem = match steps.peek() {
                    Some(PathStep::Elem(k)) => {
                        steps.next();
                        Some(k.clone())
                    }
                    _ => None,
                };
                target
                    .as_mut()
                    .expect("attribute below an object")
                    .steps
                    .push(TargetStep {
                        attr: a.clone(),
                        elem,
                    });
            }
            PathStep::Database(_) | PathStep::Segment(_) | PathStep::Elem(_) => {}
        }
    }
    target.expect("lock footprints never hold a bare database or segment in a data mode")
}

/// Derives the probe form of a Fig. 7 stream.
///
/// What a statement locks is the planner's decision, so it is observed, not
/// assumed: the stream is run solo, statement by statement, and the growth
/// of the transaction's lock footprint (`LockManager::locks_of`) after each
/// statement gives that statement's lock requests. Entry points locked by
/// downward propagation are not requests of their own: a footprint entry
/// already covered after replaying the earlier ones on a private table is
/// dropped.
pub fn fig7_probe_txns(
    cells: &CellsConfig,
    targets: &Targets,
    stream: &[Fig7Txn],
) -> Vec<ProbeTxn> {
    let env = Env::new(cells);
    let mgr = &*env.manager;
    let optimizer = colock_core::Optimizer::default();
    // Private table for telling requests from propagated entry points.
    let engine = mgr.engine();
    let private: LockManager<ResourcePath> = LockManager::new();
    let robots = targets.robot.len();
    let mut out = Vec::with_capacity(stream.len());
    for t in stream {
        let (stmts, librarian) = match &t.body {
            Fig7Body::Checkout { slot } => {
                let robot = targets.robot[*slot].clone();
                out.push(ProbeTxn {
                    kind: TxnKind::Long,
                    librarian: false,
                    steps: vec![Step::Checkout(robot.clone()), Step::CheckinLast(robot)],
                });
                continue;
            }
            Fig7Body::Query { stmts, librarian } => (stmts, *librarian),
        };
        let txn = mgr.begin(TxnKind::Short);
        let id = txn.id();
        if librarian {
            mgr.authorization().grant(id, "effectors", Right::Update);
        }
        let cache = TxnLockCache::new();
        let mut held: HashMap<ResourcePath, LockMode> = HashMap::new();
        let mut steps = Vec::new();
        for s in stmts {
            colock_query::exec::run(&txn, &s.text, &optimizer).expect("solo statement");
            let mut grown: Vec<(ResourcePath, LockMode)> = mgr
                .lock_manager()
                .locks_of(id)
                .into_iter()
                .filter(|(r, m, _)| {
                    !matches!(m, LockMode::IS | LockMode::IX) && held.get(r) != Some(m)
                })
                .map(|(r, m, _)| (r, m))
                .collect();
            // Root-to-leaf, private data before the shared library, so
            // propagation from a request covers its entry points first.
            grown.sort_by_key(|(r, _)| {
                (
                    r.relation_name().is_some_and(|rel| engine.is_common(rel)),
                    r.len(),
                )
            });
            for (r, m) in grown {
                held.insert(r.clone(), m);
                if private.held_mode(id, &r).covers(m) {
                    continue;
                }
                let target = target_of(&r);
                engine
                    .lock_proposed_mode_cached(
                        &private,
                        id,
                        &**mgr.store(),
                        mgr.authorization(),
                        &target,
                        m,
                        ProtocolOptions::default(),
                        Some(&cache),
                    )
                    .expect("a private table never conflicts");
                steps.push(Step::Lock(target, m));
            }
            let (relation, index) = s.object;
            let key = match relation {
                "cells" => CellsConfig::cell_key(index),
                _ => CellsConfig::effector_key(index),
            };
            steps.push(Step::GetObject(relation, key));
            if let Some(w) = &s.write {
                let target = if w.slot < robots {
                    targets.trajectory[w.slot].clone()
                } else {
                    targets.tool[w.slot - robots].clone()
                };
                steps.push(Step::Update(target, Value::str(&*w.literal)));
            }
        }
        private.release_all(id);
        txn.commit().expect("solo commit");
        out.push(ProbeTxn {
            kind: TxnKind::Short,
            librarian,
            steps,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Span statistics and the budget
// ---------------------------------------------------------------------------

/// Mean time per committed transaction spent in each driver call, and the
/// mean transaction span, over the spans of one or more clients.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Committed transactions.
    pub txns: u64,
    /// Mean ns per committed transaction, indexed by `Call as usize`.
    pub call_ns: [f64; Call::COUNT],
    /// Mean transaction span, ns.
    pub span_ns: f64,
    /// Mean attempts per committed transaction, minus one.
    pub retries_per_commit: f64,
}

impl SpanStats {
    /// Plain means over every span the clients recorded.
    pub fn from_tracers<'a>(tracers: impl IntoIterator<Item = &'a Tracer>) -> SpanStats {
        let mut s = SpanStats::default();
        let (mut attempts, mut span_ns) = (0u64, 0u64);
        let mut call_ns = [0u64; Call::COUNT];
        for tracer in tracers {
            let txns = &tracer.txns;
            s.txns += txns.len() as u64;
            attempts += txns.iter().map(|t| u64::from(t.attempts)).sum::<u64>();
            span_ns += txns.iter().map(|t| t.end_ns - t.start_ns).sum::<u64>();
            // Calls of an attempt still in flight when the run ended have no
            // transaction span to belong to.
            for c in tracer
                .calls
                .iter()
                .filter(|c| (c.parent as usize) < txns.len())
            {
                call_ns[c.call as usize] += c.end_ns - c.start_ns;
            }
        }
        if s.txns == 0 {
            return s;
        }
        let n = s.txns as f64;
        s.span_ns = span_ns as f64 / n;
        s.call_ns = call_ns.map(|total| total as f64 / n);
        s.retries_per_commit = attempts as f64 / n - 1.0;
        s
    }

    fn call(&self, c: Call) -> f64 {
        self.call_ns[c as usize]
    }

    fn calls(&self, cs: &[Call]) -> f64 {
        cs.iter().map(|&c| self.call(c)).sum()
    }
}

/// Which boundary the driver's spans sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// `Client` verb round trips over TCP.
    Served,
    /// `Transaction` calls.
    Embedded,
    /// `colock_query` stages (plus `Transaction` calls for check-outs).
    Query,
}

/// Self time per layer, µs per committed transaction, and the coverage of
/// the measured transaction span they add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// `(metric name, µs)` for every `_us` self-time metric.
    pub self_us: Vec<(&'static str, f64)>,
    /// `Σ self_us ÷ mean loaded transaction span`.
    pub coverage: f64,
    /// Mean loaded span − mean solo span, µs.
    pub interference_us: f64,
}

/// `whole − parts`, never negative: a probe can overshoot the span it is
/// subtracted from by measurement noise, and a layer cannot take negative
/// time.
fn remainder(whole: f64, parts: &[f64]) -> f64 {
    (whole - parts.iter().sum::<f64>()).max(0.0)
}

/// Splits the driver's spans into per-layer self times.
///
/// `loaded` are the spans of the measured (multi-client) traced window,
/// `solo` those of the same stream replayed by one client, `p` the replay
/// probes. Each layer's self time is its inclusive time minus the inclusive
/// time of the layers it calls; what is left of the socket round trip after
/// the in-process session, frame and wire probes is `server.transport_us`.
pub fn budget(boundary: Boundary, loaded: &SpanStats, solo: &SpanStats, p: &Probes) -> Budget {
    let n = p.txns.max(1) as f64;
    let per_txn = |total_ns: u64| total_ns as f64 / n;
    const VERBS: [Call; 6] = [
        Call::Begin,
        Call::Read,
        Call::Update,
        Call::Checkout,
        Call::Checkin,
        Call::Commit,
    ];
    const OPS: [Call; 4] = [Call::Read, Call::Update, Call::Checkout, Call::Checkin];

    // Lower layers, straight from their probes.
    let resolve = per_txn(p.resolve_ns);
    let lockmgr_acquire = per_txn(p.lockmgr_acquire_ns);
    let lockmgr_release = per_txn(p.lockmgr_release_ns);
    let journal = per_txn(p.journal_grant_ns + p.journal_release_ns);
    let read = per_txn(p.read_ns + p.object_read_ns);
    let write = per_txn(p.write_ns);
    let install = per_txn(p.install_ns);
    let protocol = remainder(per_txn(p.protocol_ns), &[lockmgr_acquire, resolve]);

    // What the transaction layer calls during operations and at commit.
    let below_ops = [
        per_txn(p.protocol_ns),
        per_txn(p.journal_grant_ns),
        per_txn(p.read_ns),
        write,
    ];
    let below_commit = [install, lockmgr_release, per_txn(p.journal_release_ns)];

    // The transaction layer's inclusive times: the driver's own spans when
    // it calls `Transaction` itself, the transaction probe otherwise.
    let (txn_begin, txn_ops, txn_commit) = match boundary {
        Boundary::Embedded => (
            solo.call(Call::Begin),
            solo.calls(&OPS),
            solo.call(Call::Commit),
        ),
        Boundary::Query => (
            solo.call(Call::Begin),
            per_txn(p.txn_query_ns + p.txn_direct_ns),
            solo.call(Call::Commit),
        ),
        Boundary::Served => (
            per_txn(p.txn_begin_ns),
            per_txn(p.txn_direct_ns),
            per_txn(p.txn_commit_ns),
        ),
    };

    let mut self_us: Vec<(&'static str, f64)> = Vec::new();
    let mut push = |name, ns: f64| self_us.push((name, ns / 1000.0));

    let session = per_txn(p.session_ns);
    let (frame, wire) = (per_txn(p.frame_ns), per_txn(p.wire_ns));
    let served = boundary == Boundary::Served;
    push(
        "server.transport_us",
        if served {
            remainder(loaded.calls(&VERBS), &[session, frame, wire])
        } else {
            0.0
        },
    );
    push("server.frame_us", frame);
    push("server.wire_us", wire);
    push(
        "server.session_us",
        if served {
            remainder(session, &[txn_begin, txn_ops, txn_commit])
        } else {
            0.0
        },
    );

    push("query.parse_us", solo.call(Call::Parse));
    push("query.analyze_us", solo.call(Call::Analyze));
    push("query.plan_us", solo.call(Call::Plan));
    push(
        "query.exec_us",
        remainder(
            solo.call(Call::Exec),
            &[per_txn(p.txn_query_ns), per_txn(p.object_read_ns)],
        ),
    );

    push("txn.begin_us", txn_begin);
    push("txn.op_us", remainder(txn_ops, &below_ops));
    push("txn.commit_us", remainder(txn_commit, &below_commit));
    push("txn.abort_us", loaded.call(Call::Abort));

    push("core.resolve_us", resolve);
    push("core.protocol_us", protocol);
    push("lockmgr.acquire_us", lockmgr_acquire + lockmgr_release);
    push("lockmgr.journal_append_us", journal);
    push("storage.read_us", read);
    push("storage.write_us", write);
    push("storage.install_us", install);

    let total_us: f64 = self_us.iter().map(|(_, us)| us).sum();
    let span_us = loaded.span_ns / 1000.0;
    Budget {
        coverage: if span_us > 0.0 {
            total_us / span_us
        } else {
            0.0
        },
        interference_us: (loaded.span_ns - solo.span_ns) / 1000.0,
        self_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(span_ns: f64, calls: &[(Call, f64)]) -> SpanStats {
        let mut s = SpanStats {
            txns: 100,
            span_ns,
            ..SpanStats::default()
        };
        for &(c, ns) in calls {
            s.call_ns[c as usize] = ns;
        }
        s
    }

    #[test]
    fn self_times_are_never_negative_and_coverage_is_their_sum() {
        // A probe that overshoots the span it is subtracted from (protocol
        // probe 9 µs against a 5 µs read span) must clamp to 0, not go
        // negative and hide time elsewhere.
        let solo = stats(
            20_000.0,
            &[
                (Call::Begin, 1_000.0),
                (Call::Read, 5_000.0),
                (Call::Commit, 4_000.0),
            ],
        );
        let loaded = stats(25_000.0, &[(Call::Abort, 500.0)]);
        let p = Probes {
            txns: 1,
            resolve_ns: 1_000,
            protocol_ns: 9_000,
            lockmgr_acquire_ns: 2_000,
            lockmgr_release_ns: 1_000,
            read_ns: 500,
            install_ns: 1_500,
            ..Probes::default()
        };
        let b = budget(Boundary::Embedded, &loaded, &solo, &p);
        assert!(
            b.self_us.iter().all(|(_, us)| *us >= 0.0),
            "{:?}",
            b.self_us
        );
        let get = |name| b.self_us.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("txn.op_us"), 0.0);
        assert_eq!(get("txn.begin_us"), 1.0);
        // commit 4 µs − install 1.5 − release 1 = 1.5
        assert!((get("txn.commit_us") - 1.5).abs() < 1e-9);
        // protocol 9 − lockmgr acquire 2 − resolve 1 = 6
        assert!((get("core.protocol_us") - 6.0).abs() < 1e-9);
        assert!((get("lockmgr.acquire_us") - 3.0).abs() < 1e-9);
        assert_eq!(get("server.transport_us"), 0.0);
        let sum: f64 = b.self_us.iter().map(|(_, us)| us).sum();
        assert!((b.coverage - sum / 25.0).abs() < 1e-12);
        assert!((b.interference_us - 5.0).abs() < 1e-12);
    }

    #[test]
    fn served_budget_accounts_for_the_whole_round_trip() {
        // Round trips 300 µs; session 60, frame 5, wire 15 → transport 220.
        // Session 60 − txn inclusive (5 + 20 + 15) → session self 20.
        let loaded = stats(
            310_000.0,
            &[
                (Call::Begin, 80_000.0),
                (Call::Read, 120_000.0),
                (Call::Commit, 100_000.0),
            ],
        );
        let solo = stats(290_000.0, &[]);
        let p = Probes {
            txns: 1,
            session_ns: 60_000,
            frame_ns: 5_000,
            wire_ns: 15_000,
            txn_begin_ns: 5_000,
            txn_direct_ns: 20_000,
            txn_commit_ns: 15_000,
            protocol_ns: 8_000,
            lockmgr_acquire_ns: 3_000,
            resolve_ns: 1_000,
            read_ns: 2_000,
            ..Probes::default()
        };
        let b = budget(Boundary::Served, &loaded, &solo, &p);
        let get = |name| b.self_us.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("server.transport_us") - 220.0).abs() < 1e-9);
        assert!((get("server.session_us") - 20.0).abs() < 1e-9);
        // Nothing clamped, so the self times add up to the round trips.
        let sum: f64 = b.self_us.iter().map(|(_, us)| us).sum();
        assert!((sum - 300.0).abs() < 1e-9, "{sum}");
        assert!((b.coverage - 300.0 / 310.0).abs() < 1e-12);
    }

    #[test]
    fn resource_paths_turn_back_into_targets() {
        let t = InstanceTarget::object("cells", "c1")
            .elem("robots", "r2")
            .attr("trajectory");
        assert_eq!(target_of(&t.resource("db1", "seg1")), t);
        let rel = InstanceTarget::relation("effectors");
        assert_eq!(target_of(&rel.resource("db1", "seg2")), rel);
        let holu = InstanceTarget::object("cells", "c2").attr("c_objects");
        assert_eq!(target_of(&holu.resource("db1", "seg1")), holu);
    }
}
