//! The lock table: the [`LockManager`] struct and its public API.
//!
//! The table is generic over the resource key `R`; the protocol layer of
//! `colock-core` instantiates it with hierarchical instance paths so that
//! "lock granules within the structure of complex objects" (§4.2) are plain
//! resources here. Each mechanism lives in its own module, all as plain
//! `impl LockManager` blocks:
//!
//! * `summary.rs` — the mode-summary word codec, `slot_update`, the seal,
//! * `fastpath.rs` — the optimistic intent gate, seal-and-drain, the
//!   validated class reservation, desaturation, the summary re-derivation,
//! * `queue.rs` — `ResourceState`, the blocking relation, the shard-mutex
//!   decision, `process_queue`, waiting,
//! * `detector.rs` — the snapshot deadlock detector,
//! * `inventory.rs` — the per-transaction inventories and every release.
//!
//! # Sharding and lock order
//!
//! The table is striped `N` ways (default 16): a resource hashes to one
//! shard, and each shard owns its own mutex, so requests on unrelated
//! resources never serialize on a common lock. Every per-resource state
//! additionally carries its own condvar — releases and victim verdicts wake
//! only the waiters of *that* resource, not the whole table (no
//! thundering-herd `notify_all`).
//!
//! Per-transaction lock inventories live in separate *txn stripes* keyed by
//! transaction id. The locking hierarchy is strict and acyclic:
//!
//! 1. shard mutexes, always in ascending shard-index order (single-resource
//!    operations lock exactly one; only the deadlock detector locks all),
//! 2. at most one txn-stripe mutex, only ever acquired *inside* a shard
//!    critical section (leaf level) or on its own.
//!
//! No path locks a shard while holding a stripe and no path locks two
//! stripes, so the manager's own locks cannot deadlock. Every acquisition of
//! those mutexes recovers from poisoning (one policy, DESIGN.md §5).
//!
//! The long-lock journal's mutexes sit outside this hierarchy: a journal
//! record is only ever written with no shard locked (debug builds count the
//! `ShardGuard`s each thread holds and the journal asserts zero).

#[cfg(doc)]
use crate::error::LockError;
use crate::inventory::{TxnStripe, TXN_STRIPES};
use crate::mode::LockMode;
use crate::pad::CachePadded;
use crate::persistent::JournalSink;
use crate::queue::ShardInner;
use crate::request::Request;
use crate::stats::LockStats;
use crate::txnid::TxnId;
use crate::Result;
use colock_trace::{self as trace, Event, EventKind, TraceBuffer};
#[cfg(debug_assertions)]
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Multiply-rotate hasher (the `rustc-hash` idiom) for every placement
/// decision and hot map in the table. Placement hashes on each acquire and
/// release were the largest constant factor on the intent chain; SipHash's
/// DoS resistance buys nothing for an in-process table keyed by internal
/// resource ids.
#[derive(Default)]
pub struct FastHasher(u64);

impl FastHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                tail |= u64::from(b) << (8 * i);
            }
            self.add(tail);
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Hot maps (shard resources, txn inventories) keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Marker trait for lock-table resource keys.
pub trait Resource: Eq + Hash + Clone + fmt::Debug {}
impl<T: Eq + Hash + Clone + fmt::Debug> Resource for T {}

/// How to behave when a request cannot be granted immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Fail with [`LockError::WouldBlock`] instead of waiting.
    Try,
    /// Wait (with deadlock detection) until granted.
    Block,
    /// Wait, but at most this long.
    BlockTimeout(Duration),
}

/// Options for one acquire call.
#[derive(Debug, Clone, Copy)]
pub struct LockRequestOptions {
    /// Wait behaviour.
    pub policy: WaitPolicy,
    /// Whether the resulting lock is a *long lock* (survives simulated
    /// shutdowns via [`crate::persistent`]).
    pub long: bool,
}

impl Default for LockRequestOptions {
    fn default() -> Self {
        LockRequestOptions { policy: WaitPolicy::Block, long: false }
    }
}

impl LockRequestOptions {
    /// Non-blocking request.
    pub fn try_lock() -> Self {
        LockRequestOptions { policy: WaitPolicy::Try, long: false }
    }

    /// Long-lock request.
    pub fn long() -> Self {
        LockRequestOptions { policy: WaitPolicy::Block, long: true }
    }
}

/// Result of a successful acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Lock granted now (possibly after waiting; `waited` reports which).
    Granted {
        /// Whether the request had to wait before being granted.
        waited: bool,
    },
    /// The transaction already held the resource in a covering mode.
    AlreadyHeld,
}
/// Default number of lock-table shards.
const DEFAULT_SHARDS: usize = 16;

/// Mode-summary slots per shard. A slot aggregates every resource whose hash
/// lands on it; collisions are only ever conservative (they can force a
/// fallback, never a wrong grant).
pub(crate) const SLOTS_PER_SHARD: usize = 64;

/// Bound on lost-CAS revalidations before an optimistic publication gives up
/// and takes the shard-mutex path.
pub const MAX_FASTPATH_ATTEMPTS: u32 = 4;

/// Test instrumentation hook run between an optimistic publication's
/// validate and its CAS.
type FastpathProbe = Box<dyn FnMut() + Send>;

/// The manager's one poison policy: recover the guard and continue, so a
/// panicking thread never cascades into every later acquire (DESIGN.md §5
/// states why that is sound).
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(debug_assertions)]
thread_local! {
    /// Shard guards this thread holds (debug builds only).
    static HELD_SHARDS: Cell<usize> = const { Cell::new(0) };
}

/// How many lock-table shard guards the calling thread holds — the journal
/// asserts zero before every append.
#[cfg(debug_assertions)]
pub(crate) fn held_shard_guards() -> usize {
    HELD_SHARDS.with(Cell::get)
}

/// One held shard as the thread's count sees it: counted while alive in
/// debug builds, a zero-sized nothing in release builds.
struct HeldShard(());

impl HeldShard {
    fn new() -> Self {
        #[cfg(debug_assertions)]
        HELD_SHARDS.with(|n| n.set(n.get() + 1));
        HeldShard(())
    }
}

#[cfg(debug_assertions)]
impl Drop for HeldShard {
    fn drop(&mut self) {
        HELD_SHARDS.with(|n| n.set(n.get() - 1));
    }
}

/// A locked shard.
pub(crate) struct ShardGuard<'a, R: Resource> {
    guard: MutexGuard<'a, ShardInner<R>>,
    held: HeldShard,
}

impl<'a, R: Resource> ShardGuard<'a, R> {
    /// Parks on `cond` (at most `timeout`), the shard unlocked meanwhile,
    /// and hands the re-acquired guard back, poisoned or not.
    pub(crate) fn park(self, cond: &Condvar, timeout: Option<Duration>) -> Self {
        let ShardGuard { guard, held } = self;
        drop(held);
        let guard = match timeout {
            Some(t) => recover(cond.wait_timeout(guard, t)).0,
            None => recover(cond.wait(guard)),
        };
        ShardGuard { guard, held: HeldShard::new() }
    }
}

impl<R: Resource> Deref for ShardGuard<'_, R> {
    type Target = ShardInner<R>;
    fn deref(&self) -> &ShardInner<R> {
        &self.guard
    }
}

impl<R: Resource> DerefMut for ShardGuard<'_, R> {
    fn deref_mut(&mut self) -> &mut ShardInner<R> {
        &mut self.guard
    }
}

/// The lock manager.
///
/// ```
/// use colock_lockmgr::{LockManager, LockMode, LockRequestOptions, TxnId};
///
/// let lm: LockManager<&str> = LockManager::new();
/// let (t1, t2) = (TxnId(1), TxnId(2));
/// // Multi-granularity: t1 IX on the relation, X on one tuple.
/// lm.acquire(t1, "cells", LockMode::IX, LockRequestOptions::default()).unwrap();
/// lm.acquire(t1, "cells/c1", LockMode::X, LockRequestOptions::default()).unwrap();
/// // t2 can still IS the relation, but not read t1's tuple.
/// assert!(lm.acquire(t2, "cells", LockMode::IS, LockRequestOptions::try_lock()).is_ok());
/// assert!(lm.acquire(t2, "cells/c1", LockMode::S, LockRequestOptions::try_lock()).is_err());
/// lm.release_all(t1);
/// assert!(lm.acquire(t2, "cells/c1", LockMode::S, LockRequestOptions::try_lock()).is_ok());
/// ```
pub struct LockManager<R: Resource> {
    /// Shard mutexes, each on lines of its own.
    pub(crate) shards: Box<[CachePadded<Mutex<ShardInner<R>>>]>,
    pub(crate) shard_mask: usize,
    pub(crate) stripes: Box<[TxnStripe<R>]>,
    /// Resources currently present across all shards (kept as an atomic so
    /// the `max_table_entries` high-water mark needs no cross-shard lock).
    /// Padded: it is written on every table insert and removal, and the
    /// read-mostly words every request reads must not share its line.
    pub(crate) live_resources: CachePadded<AtomicU64>,
    pub(crate) stats: LockStats,
    /// Durable long-lock journal: a request's long grants are on it before
    /// the request is acknowledged. `None` until attached; short-lock
    /// operations never consult it, so the hot path stays journal-free.
    journal: OnceLock<Arc<dyn JournalSink<R>>>,
    /// Mode-summary words, `shards * SLOTS_PER_SHARD` of them: the slot
    /// index embeds the shard index, so same slot ⟹ same shard mutex.
    pub(crate) summaries: Box<[AtomicU64]>,
    /// Whether the optimistic intent fast path is on (default: on).
    fastpath: AtomicBool,
    /// Set by [`LockManager::begin_drain`]: parked waiters are woken and
    /// refused with [`LockError::Draining`] so shutdown never sleeps behind
    /// a blocked lock request. Granted locks are unaffected.
    pub(crate) draining: AtomicBool,
    /// Cheap flag checked on the publication path; the probe mutex is only
    /// touched when armed.
    pub(crate) probe_armed: AtomicBool,
    /// Test probe run between validate and CAS (deterministic interleaving
    /// tests force version bumps there).
    fastpath_probe: Mutex<Option<FastpathProbe>>,
    /// Where this manager traces: the default buffer until one is attached.
    trace: OnceLock<Arc<TraceBuffer>>,
}

impl<R: Resource> Default for LockManager<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Resource> LockManager<R> {
    /// Creates an empty lock manager with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty lock manager striped `n` ways (`n` is rounded up to
    /// a power of two, minimum 1). `with_shards(1)` degenerates to a single
    /// global table — useful as an ablation baseline in benchmarks.
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        LockManager {
            shards: (0..n).map(|_| CachePadded::new(Mutex::new(ShardInner::default()))).collect(),
            shard_mask: n - 1,
            stripes: (0..TXN_STRIPES)
                .map(|_| CachePadded::new(Mutex::new(FastMap::default())))
                .collect(),
            live_resources: CachePadded::new(AtomicU64::new(0)),
            stats: LockStats::default(),
            journal: OnceLock::new(),
            summaries: (0..n * SLOTS_PER_SHARD).map(|_| AtomicU64::new(0)).collect(),
            fastpath: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            probe_armed: AtomicBool::new(false),
            fastpath_probe: Mutex::new(None),
            trace: OnceLock::new(),
        }
    }

    /// Attaches the buffer this manager traces into; first wins (else `false`).
    pub fn attach_trace(&self, buf: Arc<TraceBuffer>) -> bool {
        self.trace.set(buf).is_ok()
    }

    /// The buffer this manager traces into.
    #[inline(always)]
    pub fn trace(&self) -> &TraceBuffer {
        self.trace.get().map_or(trace::default_buffer(), Arc::as_ref)
    }

    /// Whether the optimistic intent fast path is currently enabled.
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath.load(Ordering::Relaxed)
    }

    /// Enables or disables the optimistic fast path at runtime (ablations,
    /// differential tests). Outstanding optimistic grants stay valid either
    /// way: the pessimistic path always drains them before deciding against
    /// them.
    pub fn set_fastpath(&self, on: bool) {
        self.fastpath.store(on, Ordering::Relaxed);
    }

    /// Starts draining for shutdown: every parked waiter is woken and its
    /// blocked `acquire` returns [`LockError::Draining`]; blocking requests
    /// issued while the flag is set fail the same way the moment they would
    /// park. Granted locks (including durable long locks) are untouched —
    /// the caller decides whether to release or journal-and-leak them.
    /// Reversed by [`LockManager::end_drain`].
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Wake every parked waiter so each one observes the flag under its
        // shard mutex and returns. Locking shard-by-shard is fine: a waiter
        // that parks after we pass its shard re-checks the flag before
        // sleeping and never blocks.
        for si in 0..self.shards.len() {
            for state in self.shard_locked(si).resources.values() {
                if let Some(cond) = &state.cond {
                    cond.notify_all();
                }
            }
        }
    }

    /// Clears the drain flag so blocking requests park normally again
    /// (a server restart without process restart).
    pub fn end_drain(&self) {
        self.draining.store(false, Ordering::SeqCst);
    }

    /// Whether [`LockManager::begin_drain`] is in effect.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Installs (or clears) a test probe invoked between an optimistic
    /// publication's validate and its CAS — deterministic interleaving tests
    /// force a version bump in exactly that window. The probe runs with the
    /// caller's txn stripe held: it must only act as transactions owned by
    /// *other* stripes, and only while no optimistic grants are outstanding
    /// on the probed slot (a drain would block on the held stripe) — a
    /// converting optimist's own grant is always outstanding there.
    pub fn set_fastpath_probe(&self, probe: Option<FastpathProbe>) {
        self.probe_armed.store(probe.is_some(), Ordering::Relaxed);
        *self.probe_locked() = probe;
    }

    /// Locks the test-probe slot (see [`LockManager::set_fastpath_probe`]).
    pub(crate) fn probe_locked(&self) -> MutexGuard<'_, Option<FastpathProbe>> {
        recover(self.fastpath_probe.lock())
    }

    /// Attaches the durable long-lock journal. From then on the long
    /// grants, conversions and widenings of a [`Request`] are staged in the
    /// inventory and written as one grant set when it finishes, before the
    /// caller is acknowledged (a plain [`LockManager::acquire`] is a request
    /// of one); [`LockManager::release_all`] writes one release-all for a
    /// transaction that held long locks, and a single-lock release of a
    /// long lock one release record. Every record is written with no shard
    /// locked. At most one journal per manager: returns `false` (and changes
    /// nothing) if one is already attached.
    pub fn attach_journal(&self, sink: Arc<dyn JournalSink<R>>) -> bool {
        self.journal.set(sink).is_ok()
    }

    /// The attached journal, if any.
    pub(crate) fn journal(&self) -> Option<&dyn JournalSink<R>> {
        self.journal.get().map(|j| &**j)
    }

    /// Whether a journal is attached.
    pub fn has_journal(&self) -> bool {
        self.journal.get().is_some()
    }

    /// Statistics counters.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Number of shards the table is striped into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `resource` hashes to. Exposed so tests can construct
    /// resource sets that provably land on distinct (or identical) shards.
    pub fn shard_index(&self, resource: &R) -> usize {
        self.shard_of(Self::hash_of(resource))
    }

    /// The one hash every placement decision derives from: low bits pick the
    /// shard, bits 32+ pick the summary slot within it.
    pub(crate) fn hash_of(resource: &R) -> u64 {
        let mut h = FastHasher::default();
        resource.hash(&mut h);
        h.finish()
    }

    pub(crate) fn shard_of(&self, h: u64) -> usize {
        (h as usize) & self.shard_mask
    }

    /// Global index of the summary slot for hash `h`. Embeds the shard
    /// index, so two resources sharing a slot always share a shard mutex.
    pub(crate) fn slot_index_from_hash(&self, h: u64) -> usize {
        self.shard_of(h) * SLOTS_PER_SHARD + ((h >> 32) as usize & (SLOTS_PER_SHARD - 1))
    }

    pub(crate) fn slot_from_hash(&self, h: u64) -> &AtomicU64 {
        &self.summaries[self.slot_index_from_hash(h)]
    }

    /// Locks one shard.
    pub(crate) fn shard_locked(&self, idx: usize) -> ShardGuard<'_, R> {
        ShardGuard { guard: recover(self.shards[idx].lock()), held: HeldShard::new() }
    }

    /// Records one lock event about `resource` — if its buffer is on. The
    /// disabled path is the buffer lookup, one relaxed load and a branch; the
    /// mode, resource and `detail` are only formatted out of line.
    #[inline(always)]
    pub(crate) fn trace_lock(
        &self,
        kind: EventKind,
        txn: TxnId,
        h: u64,
        mode: LockMode,
        resource: &R,
        detail: impl fmt::Display,
    ) {
        if self.trace().is_enabled() {
            self.record_lock_event(kind, txn, h, mode, resource, &detail);
        }
    }

    #[cold]
    #[inline(never)]
    fn record_lock_event(
        &self,
        kind: EventKind,
        txn: TxnId,
        h: u64,
        mode: LockMode,
        resource: &R,
        detail: &dyn fmt::Display,
    ) {
        self.trace().emit(|| {
            Event::new(kind, txn.0)
                .shard(self.shard_of(h) as u32)
                .mode(mode.to_string())
                .resource(format!("{resource:?}"))
                .detail(detail.to_string())
        });
    }

    /// All `(txn, mode)` grants on `resource` — the shard map's real grants
    /// plus any optimistic fast-path grants, which live only in the
    /// inventories.
    pub fn holders(&self, resource: &R) -> Vec<(TxnId, LockMode)> {
        let mut out: Vec<(TxnId, LockMode)> = self
            .shard_locked(self.shard_index(resource))
            .resources
            .get(resource)
            .map(|s| s.granted.iter().map(|g| (g.txn, g.mode)).collect())
            .unwrap_or_default();
        self.walk_optimistic(|txn, r, e| {
            if r == resource {
                out.push((txn, e.mode));
            }
            true
        });
        out
    }

    /// Number of resources currently present in the table.
    pub fn table_size(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard_locked(i).resources.len()).sum()
    }

    /// Total number of grant entries currently held: real grants in the
    /// table plus optimistic fast-path grants in the inventories.
    pub fn grant_count(&self) -> usize {
        let mut n = 0;
        self.for_each_grant(|_, _, _, _| n += 1);
        n
    }

    /// Number of *ungranted* waiters queued on `resource`. Lets tests (and
    /// stall diagnostics) observe "txn N is enqueued" directly instead of
    /// sleeping and hoping the scheduler got there.
    pub fn waiter_count(&self, resource: &R) -> usize {
        self.shard_locked(self.shard_index(resource))
            .resources
            .get(resource)
            .map(|s| s.waiting.iter().filter(|w| !w.granted).count())
            .unwrap_or(0)
    }

    /// Renders the full lock-table state (holders, waiters, wait targets) —
    /// for diagnostics and stall post-mortems.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for si in 0..self.shards.len() {
            let shard = self.shard_locked(si);
            for (r, state) in &shard.resources {
                let _ = writeln!(out, "resource {r:?} [shard {si}]:");
                for g in &state.granted {
                    let _ = writeln!(out, "  granted {} {} long={}", g.txn, g.mode, g.long);
                }
                for w in &state.waiting {
                    let _ = writeln!(
                        out,
                        "  waiting {} {} conv={} granted={} victim={}",
                        w.txn,
                        w.mode,
                        w.conversion,
                        w.granted,
                        w.victim.is_some()
                    );
                }
            }
        }
        self.walk_optimistic(|txn, r, e| {
            let _ = writeln!(out, "optimistic {txn} {} on {r:?}", e.mode);
            true
        });
        out
    }

    /// Iterates over every grant — real grants in the table, then optimistic
    /// fast-path grants from the inventories (always short, so persistence
    /// snapshots never capture them).
    pub fn for_each_grant(&self, mut f: impl FnMut(&R, TxnId, LockMode, bool)) {
        for si in 0..self.shards.len() {
            let shard = self.shard_locked(si);
            for (r, state) in &shard.resources {
                for g in &state.granted {
                    f(r, g.txn, g.mode, g.long);
                }
            }
        }
        self.walk_optimistic(|txn, r, e| {
            f(r, txn, e.mode, false);
            true
        });
    }

    /// Whether a request may enter the optimistic gate at all: short intent
    /// requests only, and only while the fast path is on.
    pub(crate) fn gate_open(&self, mode: LockMode, opts: LockRequestOptions) -> bool {
        mode.is_intent() && !opts.long && self.fastpath.load(Ordering::Relaxed)
    }

    /// Acquires (or converts to) `mode` on `resource` for `txn`: a request
    /// of one lock ([`Request::acquire`], then [`Request::finish`]).
    pub fn acquire(
        &self,
        txn: TxnId,
        resource: R,
        mode: LockMode,
        opts: LockRequestOptions,
    ) -> Result<AcquireOutcome> {
        let mut request = self.request(txn);
        let outcome = request.acquire(resource, mode, opts);
        request.finish().and(outcome)
    }

    /// Acquires `mode` on every resource of `chain`: a request of one chain
    /// ([`Request::acquire_intent_chain`], then [`Request::finish`]).
    pub fn acquire_intent_chain(
        &self,
        txn: TxnId,
        chain: &[R],
        mode: LockMode,
        opts: LockRequestOptions,
    ) -> Result<Vec<AcquireOutcome>> {
        let mut outcomes = Vec::with_capacity(chain.len());
        let mut request = self.request(txn);
        let done = request.acquire_intent_chain(chain, mode, opts, |o| outcomes.push(o));
        request.finish().and(done).map(|()| outcomes)
    }

    /// Opens a request for `txn`: the journal boundary of one protocol
    /// call, however many locks it takes.
    pub fn request(&self, txn: TxnId) -> Request<'_, R> {
        Request::new(self, txn)
    }

    /// Installs one owner's recovered long locks directly (crash recovery)
    /// and journals them as one grant set, if a journal is attached: a
    /// recovered lock is as durable as a fresh one, so a second crash
    /// before its release must find it again.
    pub fn install_recovered(&self, txn: TxnId, locks: impl IntoIterator<Item = (R, LockMode)>) {
        for (resource, mode) in locks {
            let h = Self::hash_of(&resource);
            let mut shard = self.shard_locked(self.shard_of(h));
            // Recovery is cold: seal and drain unconditionally, keeping the
            // summary publication a single step regardless of the mode.
            let seal = self.seal_and_drain(&mut shard, self.slot_index_from_hash(h));
            let (prev, absorbed) = self.install_grant(&mut shard, txn, &resource, mode, true, h);
            self.publish_grant(self.slot_from_hash(h), Some(seal), prev, prev.join(mode), absorbed);
            let _rule = trace::rule_scope(trace::RuleTag::Recovered);
            self.trace_lock(EventKind::Grant, txn, h, mode, &resource, "recovered");
        }
        // A crashed journal fails nothing here: the frozen medium is what a
        // restart replays.
        let _ = self.flush_staged(txn);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::LockError;
    use crate::mode::LockMode::*;

    pub(crate) type Mgr = LockManager<&'static str>;

    /// Generous bound for "the other thread is enqueued" waits; the
    /// predicates normally flip within microseconds.
    pub(crate) const WAIT: Duration = Duration::from_secs(5);

    pub(crate) fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn grant_and_reentrant_acquire() {
        let m = Mgr::new();
        assert_eq!(
            m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap(),
            AcquireOutcome::Granted { waited: false }
        );
        assert_eq!(
            m.acquire(t(1), "a", IS, LockRequestOptions::default()).unwrap(),
            AcquireOutcome::AlreadyHeld
        );
        assert_eq!(m.held_mode(t(1), &"a"), S);
    }

    #[test]
    fn compatible_modes_share() {
        let m = Mgr::new();
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(3), "a", IS, LockRequestOptions::default()).unwrap();
        assert_eq!(m.holders(&"a").len(), 3);
    }

    #[test]
    fn incompatible_try_lock_reports_holders() {
        let m = Mgr::new();
        m.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        let err = m.acquire(t(2), "a", S, LockRequestOptions::try_lock()).unwrap_err();
        assert_eq!(err, LockError::WouldBlock { holders: vec![t(1)] });
    }

    #[test]
    fn conversion_upgrades_mode() {
        let m = Mgr::new();
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(1), "a", IX, LockRequestOptions::default()).unwrap();
        assert_eq!(m.held_mode(t(1), &"a"), SIX);
        // Still a single grant entry.
        assert_eq!(m.holders(&"a").len(), 1);
    }

    #[test]
    fn stats_count_requests_and_tables() {
        let m = Mgr::new();
        m.acquire(t(1), "a", S, LockRequestOptions::default()).unwrap();
        m.acquire(t(2), "b", S, LockRequestOptions::default()).unwrap();
        let s = m.stats().snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.immediate_grants, 2);
        assert_eq!(s.max_table_entries, 2);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: LockManager<&str> = LockManager::with_shards(5);
        assert_eq!(m.shard_count(), 8);
        let m1: LockManager<&str> = LockManager::with_shards(0);
        assert_eq!(m1.shard_count(), 1);
        // The single-shard table still works end to end.
        m1.acquire(t(1), "a", X, LockRequestOptions::default()).unwrap();
        assert_eq!(m1.shard_index(&"anything"), 0);
        m1.release_all(t(1));
        assert_eq!(m1.table_size(), 0);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let m: LockManager<String> = LockManager::new();
        for i in 0..64 {
            let r = format!("res{i}");
            let s1 = m.shard_index(&r);
            assert_eq!(s1, m.shard_index(&r), "hashing must be deterministic");
            assert!(s1 < m.shard_count());
        }
    }
}
