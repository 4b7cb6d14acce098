//! Shared protocol machinery: the one locking entry point, its context, the
//! node step and reference-closure walk the protocol bodies share, lock
//! reports and error mapping.

use crate::authorization::Authorization;
use crate::graph::derive::derive_lock_graph;
use crate::graph::object::DbLockGraph;
use crate::protocol::target::{AccessMode, InstanceSource, InstanceTarget};
use crate::resource::ResourcePath;
use colock_lockmgr::{
    AcquireOutcome, LockError, LockManager, LockMode, LockRequestOptions, Request, TxnId,
    WaitPolicy,
};
use colock_trace::{rule_scope, RuleTag};
use colock_nf2::{Catalog, ObjectRef};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Errors raised by protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Underlying lock manager error (would-block, deadlock, timeout).
    Lock(LockError),
    /// Unknown relation in a target.
    UnknownRelation(String),
    /// The transaction lacks the right the access needs (checked before any
    /// lock is requested).
    Unauthorized {
        /// The requesting transaction.
        txn: TxnId,
        /// The relation whose right is missing.
        relation: String,
        /// The access that was attempted.
        access: AccessMode,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Lock(e) => write!(f, "lock error: {e}"),
            ProtocolError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            ProtocolError::Unauthorized { txn, relation, access } => {
                write!(f, "{txn} lacks {access:?} right on `{relation}`")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<LockError> for ProtocolError {
    fn from(e: LockError) -> Self {
        ProtocolError::Lock(e)
    }
}

/// Options controlling protocol behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolOptions {
    /// Use rule 4′ (authorization-aware downward propagation) instead of
    /// rule 4. [`ProtocolEngine::lock`] sets it from its [`ProtocolKind`];
    /// only escalation and the benchmark forwarder still read the caller's.
    pub rule4_prime: bool,
    /// Wait policy passed to the lock manager.
    pub wait: WaitPolicy,
    /// Request long locks (check-out).
    pub long: bool,
    /// Whether accessing a reference implies accessing the referenced data
    /// (the default, §4.5). Operations that provably never dereference —
    /// e.g. deleting a robot without touching its effectors — may disable
    /// downward propagation entirely ("no locks on common data are necessary
    /// at all", §4.5).
    pub deref_refs: bool,
}

impl Default for ProtocolOptions {
    fn default() -> Self {
        ProtocolOptions { rule4_prime: true, wait: WaitPolicy::Block, long: false, deref_refs: true }
    }
}

impl ProtocolOptions {
    /// Non-blocking variant (used by the deterministic scheduler).
    pub fn try_lock(self) -> Self {
        ProtocolOptions { wait: WaitPolicy::Try, ..self }
    }
}

/// Record of the locks a protocol run acquired, in acquisition order.
#[derive(Debug, Clone, Default)]
pub struct LockReport {
    /// `(resource, mode)` per granted (non-redundant) request.
    pub acquired: Vec<(ResourcePath, LockMode)>,
    /// Requests answered `AlreadyHeld` (covered by an earlier lock).
    pub redundant: u64,
    /// Requests that had to wait.
    pub waited: u64,
    /// Complex objects visited by reverse scans (naive-DAG baseline only).
    pub scan_cost: u64,
    /// Entry points locked by downward propagation.
    pub entry_points_locked: u64,
}

impl LockReport {
    /// Number of lock-table touching requests (granted, non-redundant).
    pub fn lock_count(&self) -> usize {
        self.acquired.len()
    }

    /// Renders the report like Fig. 7 annotations: `resource: MODE` lines.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (r, m) in &self.acquired {
            let _ = writeln!(out, "{r}: {m}");
        }
        out
    }

    /// The mode acquired on a resource in this run, if any (join of all
    /// grants on it).
    pub fn mode_of(&self, resource: &ResourcePath) -> Option<LockMode> {
        self.acquired.iter().filter(|(r, _)| r == resource).map(|(_, m)| *m).reduce(LockMode::join)
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: LockReport) {
        self.acquired.extend(other.acquired);
        self.redundant += other.redundant;
        self.waited += other.waited;
        self.scan_cost += other.scan_cost;
        self.entry_points_locked += other.entry_points_locked;
    }
}

/// The protocol engine: catalog + derived lock graph + common-data set.
///
/// One engine serves all protocols; each protocol is a method (see the
/// sibling modules). The engine is immutable and shared between transactions.
pub struct ProtocolEngine {
    catalog: Arc<Catalog>,
    graph: DbLockGraph,
    common: HashSet<String>,
    db_name: String,
}

impl ProtocolEngine {
    /// Builds an engine (derives the object-specific lock graphs).
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let graph = derive_lock_graph(&catalog);
        let common = catalog
            .schema()
            .common_data_relations()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        let db_name = catalog.schema().name.clone();
        ProtocolEngine { catalog, graph, common, db_name }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The derived lock graph.
    pub fn graph(&self) -> &DbLockGraph {
        &self.graph
    }

    /// Whether a relation holds common data.
    pub fn is_common(&self, relation: &str) -> bool {
        self.common.contains(relation)
    }

    /// The segment of a relation.
    pub fn segment_of(&self, relation: &str) -> Result<&str, ProtocolError> {
        self.catalog
            .schema()
            .relation(relation)
            .map(|r| r.segment.as_str())
            .map_err(|_| ProtocolError::UnknownRelation(relation.to_string()))
    }

    /// The instance resource for a target.
    pub fn resource_for(&self, target: &InstanceTarget) -> Result<ResourcePath, ProtocolError> {
        let seg = self.segment_of(&target.relation)?;
        Ok(target.resource(&self.db_name, seg))
    }
}

/// Per-transaction cache of locks already obtained, letting the protocol
/// paths answer "is this request covered?" without a lock-table round-trip.
///
/// Rules 1–5 re-request the same database/segment/relation intention locks
/// on *every* access; before this cache each re-request paid a shard lock
/// just to be told `AlreadyHeld`. An entry `(mode, long)` means the
/// transaction holds at least `mode` on the resource, as a long lock if
/// `long` is set. A request is covered only when the cached mode covers the
/// requested one **and** the cached entry is long if the request is —
/// a long request over a short cached entry must go to the table, otherwise
/// `release_short` would strand long leaf locks without their ancestor
/// intents.
///
/// The cache is owned by the transaction handle — one thread, so no lock —
/// and dropped at EOT, so invalidation is automatic; early (pre-EOT)
/// releases must call [`TxnLockCache::clear`].
#[derive(Debug, Default)]
pub struct TxnLockCache {
    held: RefCell<HashMap<ResourcePath, (LockMode, bool)>>,
}

impl TxnLockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a request for `mode` (long if `long`) is covered by a cached
    /// lock. Admissibility is `satisfies_parent_intent`, not bare `covers`: a
    /// held semantic Insert/Delete answers an IX ancestor requirement without
    /// a conversion — upgrading the container to IX would re-serialize the
    /// commuting inserters the semantic mode exists to keep parallel.
    pub fn covers(&self, resource: &ResourcePath, mode: LockMode, long: bool) -> bool {
        self.held
            .borrow()
            .get(resource)
            .map(|&(m, l)| m.satisfies_parent_intent(mode) && (l || !long))
            .unwrap_or(false)
    }

    /// Records a lock obtained from the table (joins modes, widens short to
    /// long).
    pub fn record(&self, resource: &ResourcePath, mode: LockMode, long: bool) {
        let mut held = self.held.borrow_mut();
        let entry = held.entry(resource.clone()).or_insert((LockMode::NL, false));
        entry.0 = entry.0.join(mode);
        entry.1 = entry.1 || long;
    }

    /// Forgets everything — required after any early (pre-EOT) release.
    pub fn clear(&self) {
        self.held.borrow_mut().clear();
    }
}

/// Which lock protocol a request runs under: the paper's (§4.4.2) or one of
/// the baselines it is evaluated against (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The paper's protocol with rule 4′.
    Proposed,
    /// The paper's protocol with plain rule 4 (no authorization cooperation).
    ProposedRule4,
    /// XSQL-style whole-object locking.
    WholeObject,
    /// System R tuple-level locking.
    TupleLevel,
    /// Naive traditional DAG on non-disjoint data.
    NaiveDag,
    /// Naive DAG with the all-parents rule given up (§3.2.2): cheap X on
    /// shared data, but from-the-side conflicts go undetected.
    NaiveRelaxed,
}

impl ProtocolKind {
    /// All protocol kinds (for sweeps).
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Proposed,
        ProtocolKind::ProposedRule4,
        ProtocolKind::WholeObject,
        ProtocolKind::TupleLevel,
        ProtocolKind::NaiveDag,
        ProtocolKind::NaiveRelaxed,
    ];

    /// Short display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Proposed => "proposed(4')",
            ProtocolKind::ProposedRule4 => "proposed(4)",
            ProtocolKind::WholeObject => "whole-object",
            ProtocolKind::TupleLevel => "tuple-level",
            ProtocolKind::NaiveDag => "naive-dag",
            ProtocolKind::NaiveRelaxed => "naive-relaxed",
        }
    }

    /// The proposed protocol as [`ProtocolOptions::rule4_prime`] selects it
    /// (for the callers that still choose rule 4 vs 4′ through the options).
    pub(crate) fn proposed(opts: ProtocolOptions) -> Self {
        if opts.rule4_prime { ProtocolKind::Proposed } else { ProtocolKind::ProposedRule4 }
    }
}

/// What is bound once per transaction and stays fixed across its lock
/// requests: lock table, requester, data source, rights, options and the
/// optional per-transaction lock cache. Only the target and the mode vary
/// per call to [`ProtocolEngine::lock`].
#[derive(Clone, Copy)]
pub struct LockCtx<'a> {
    /// The lock table all protocols drive.
    pub lm: &'a LockManager<ResourcePath>,
    /// The requesting transaction.
    pub txn: TxnId,
    /// Where references and tuples under a target are discovered.
    pub src: &'a dyn InstanceSource,
    /// The rights matrix (authorization check, rule 4′).
    pub authz: &'a Authorization,
    /// Wait policy, long locks, dereference semantics.
    pub opts: ProtocolOptions,
    /// Per-transaction cache of locks already obtained, if any.
    pub cache: Option<&'a TxnLockCache>,
}

impl<'a> LockCtx<'a> {
    /// A context with default options and no cache; override either with
    /// struct-update syntax (`LockCtx { opts, ..cx }`).
    pub fn new(
        lm: &'a LockManager<ResourcePath>,
        txn: TxnId,
        src: &'a dyn InstanceSource,
        authz: &'a Authorization,
    ) -> Self {
        LockCtx { lm, txn, src, authz, opts: ProtocolOptions::default(), cache: None }
    }
}

impl ProtocolEngine {
    /// Locks `target` in `mode` for `cx.txn` under `protocol` and returns the
    /// lock report — the one entry point of every protocol.
    ///
    /// The proposed protocol honours the exact mode (IS/IX/S/SIX/X and the
    /// semantic Insert/Delete/Member); the baselines have no notion of intent
    /// requests from above and take the S/X of the mode's access class.
    /// Authorization is checked before any lock is requested. `protocol`
    /// decides rule 4 vs 4′; [`ProtocolOptions::rule4_prime`] is overridden.
    ///
    /// The call is one lock-manager [`Request`]: its long grants are
    /// journaled as one grant set before it returns, `Ok` or `Err`, and a
    /// journal crash there is `LockError::Crashed` whatever the walk did.
    pub fn lock(
        &self,
        cx: &LockCtx<'_>,
        protocol: ProtocolKind,
        target: &InstanceTarget,
        mode: LockMode,
    ) -> Result<LockReport, ProtocolError> {
        // Write-side modes are exactly those whose parents must announce IX:
        // semantic Insert/Delete sit *below* IX in the lattice yet authorize
        // mutation, so `covers(IX)` would misclassify them as reads.
        let (txn, relation) = (cx.txn, &target.relation);
        let (access, authorized) = if mode.required_parent_intent() == LockMode::IX {
            (AccessMode::Update, cx.authz.can_modify(txn, relation))
        } else {
            (AccessMode::Read, cx.authz.can_read(txn, relation))
        };
        if !authorized {
            return Err(ProtocolError::Unauthorized { txn, relation: relation.clone(), access });
        }

        let rule4_prime = protocol == ProtocolKind::Proposed;
        let mut ctx = Ctx {
            cx: LockCtx { opts: ProtocolOptions { rule4_prime, ..cx.opts }, ..*cx },
            report: LockReport::default(),
            request: cx.lm.request(txn),
        };
        let coarse = LockMode::from(access);
        let walked = match protocol {
            ProtocolKind::Proposed | ProtocolKind::ProposedRule4 => {
                self.proposed(&mut ctx, target, mode)
            }
            ProtocolKind::WholeObject => self.whole_object(&mut ctx, target, coarse),
            ProtocolKind::TupleLevel => self.tuple_level(&mut ctx, target, coarse),
            ProtocolKind::NaiveDag => self.naive_dag(&mut ctx, target, coarse, true),
            ProtocolKind::NaiveRelaxed => self.naive_dag(&mut ctx, target, coarse, false),
        };
        ctx.request.finish()?;
        walked.map(|()| ctx.report)
    }

    /// Exists only for the frozen `benchmark/` crate, which calls it
    /// positionally; the next `[benchmark]` PR deletes it. Use
    /// [`ProtocolEngine::lock`].
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn lock_proposed_mode_cached(
        &self,
        lm: &LockManager<ResourcePath>,
        txn: TxnId,
        src: &dyn InstanceSource,
        authz: &Authorization,
        target: &InstanceTarget,
        mode: LockMode,
        opts: ProtocolOptions,
        cache: Option<&TxnLockCache>,
    ) -> Result<LockReport, ProtocolError> {
        let cx = LockCtx { lm, txn, src, authz, opts, cache };
        self.lock(&cx, ProtocolKind::proposed(opts), target, mode)
    }
}

/// One unit of a reference-closure walk: the object to visit, the mode to
/// lock it in, and the rule that asks for it.
pub(crate) type Work = (ObjectRef, LockMode, RuleTag);

/// Every object of `refs`, to be locked in `mode` under `tag`.
pub(crate) fn work_for(refs: Vec<ObjectRef>, mode: LockMode, tag: RuleTag) -> Vec<Work> {
    refs.into_iter().map(|r| (r, mode, tag)).collect()
}

/// Mutable per-call state of a protocol body: the bound [`LockCtx`], the
/// accumulating report and the lock-manager request every lock of the call
/// goes through.
pub(crate) struct Ctx<'a> {
    pub cx: LockCtx<'a>,
    pub report: LockReport,
    pub request: Request<'a, ResourcePath>,
}

impl Ctx<'_> {
    fn request_opts(&self) -> LockRequestOptions {
        LockRequestOptions { policy: self.cx.opts.wait, long: self.cx.opts.long }
    }

    /// Whether the per-transaction cache covers the request; a hit is
    /// answered as redundant without touching the lock table at all.
    fn covered(&mut self, resource: &ResourcePath, mode: LockMode) -> bool {
        let hit = self.cx.cache.is_some_and(|c| c.covers(resource, mode, self.cx.opts.long));
        if hit {
            self.report.redundant += 1;
        }
        hit
    }

    /// Books one lock-table answer in the report and the cache; `true` for a
    /// fresh grant (the caller appends it to `report.acquired`).
    fn book(&mut self, resource: &ResourcePath, mode: LockMode, outcome: AcquireOutcome) -> bool {
        let granted = match outcome {
            AcquireOutcome::Granted { waited } => {
                self.report.waited += u64::from(waited);
                true
            }
            AcquireOutcome::AlreadyHeld => {
                self.report.redundant += 1;
                false
            }
        };
        if let Some(cache) = self.cx.cache {
            // A long request is answered only once the table's grant is long
            // (a covering short grant is widened), so either outcome is
            // cached with the request's flag.
            cache.record(resource, mode, self.cx.opts.long);
        }
        granted
    }

    /// Acquires `mode` on `resource`, recording the outcome.
    pub(crate) fn acquire(
        &mut self,
        resource: &ResourcePath,
        mode: LockMode,
    ) -> Result<(), ProtocolError> {
        if self.covered(resource, mode) {
            return Ok(());
        }
        let opts = self.request_opts();
        let outcome = self.request.acquire(resource.clone(), mode, opts)?;
        if self.book(resource, mode, outcome) {
            self.report.acquired.push((resource.clone(), mode));
        }
        Ok(())
    }

    /// Acquires intent locks on every proper ancestor of `resource`,
    /// root-to-leaf (rule 5), as required by rules 1–4. Trace events emitted
    /// under here carry the [`RuleTag::AncestorIntent`] tag.
    ///
    /// The cache-missing ancestors go to the lock manager as one batch
    /// ([`LockManager::acquire_intent_chain`]): compatible links share a
    /// single optimistic fast-path section instead of taking one shard mutex
    /// each, which is what makes deep chains cheap.
    fn acquire_ancestor_intents(
        &mut self,
        resource: &ResourcePath,
        mode: LockMode,
    ) -> Result<(), ProtocolError> {
        let _rule = rule_scope(RuleTag::AncestorIntent);
        let intent = mode.required_parent_intent();
        let mut chain = resource.ancestors();
        chain.retain(|anc| !self.covered(anc, intent));
        if chain.is_empty() {
            return Ok(());
        }
        let opts = self.request_opts();
        let outcomes = self.request.acquire_intent_chain(&chain, intent, opts)?;
        for (anc, outcome) in chain.into_iter().zip(outcomes) {
            if self.book(&anc, intent, outcome) {
                self.report.acquired.push((anc, intent));
            }
        }
        Ok(())
    }

    /// The node step every protocol shares: intent locks on all ancestors of
    /// `resource` (root-to-leaf — this is the implicit upward propagation
    /// when the node is an entry point, whose chain passes through its
    /// superunit: database, segment, relation), then `mode` on the node
    /// itself, traced under `tag`.
    pub(crate) fn lock_node(
        &mut self,
        resource: &ResourcePath,
        mode: LockMode,
        tag: RuleTag,
    ) -> Result<(), ProtocolError> {
        self.acquire_ancestor_intents(resource, mode)?;
        let _rule = rule_scope(tag);
        self.acquire(resource, mode)
    }

    /// The reference-closure walk every protocol shares: pops an object off
    /// `work`, skips it if it was already visited in a covering mode, and
    /// otherwise hands it — in the join of the modes it was reached in — to
    /// `visit`, which locks whatever the protocol locks per object and
    /// returns the objects to continue with (depth-first, last pushed first).
    pub(crate) fn walk<V>(&mut self, mut work: Vec<Work>, mut visit: V) -> Result<(), ProtocolError>
    where
        V: FnMut(&mut Self, &InstanceTarget, LockMode, RuleTag) -> Result<Vec<Work>, ProtocolError>,
    {
        let mut visited: HashMap<ObjectRef, LockMode> = HashMap::new();
        while let Some((r, mode, tag)) = work.pop() {
            let joined = match visited.get(&r) {
                Some(prev) if prev.covers(mode) => continue,
                Some(prev) => prev.join(mode),
                None => mode,
            };
            let object = InstanceTarget::object(&r.relation, r.key.clone());
            visited.insert(r, joined);
            work.extend(visit(self, &object, joined, tag)?);
        }
        Ok(())
    }
}
