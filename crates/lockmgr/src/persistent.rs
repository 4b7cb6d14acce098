//! Persistence of *long locks* across simulated shutdowns and crashes.
//!
//! §3.1: "Complex objects which are checked-out by a user on a workstation
//! get a long lock. In contrast to traditional short locks, long locks must
//! survive system shutdowns and system crashes." The [`Journal`] is what
//! survives: a **checksummed, versioned log** of long-lock records, each
//! durable before the request it covers is acknowledged. A long request's
//! whole grant set is one `grantset` record, written when the request
//! ends; a transaction's end is one `releaseall`. Replaying the log after a
//! crash yields exactly the set of long locks that were durably granted
//! ([`Recovered`]); a torn final record (the crash struck mid-write) is
//! truncated and reported via [`Recovered::dropped_tail`], never silently
//! re-adopted — for a grant set that means all of it or none. Its
//! checkpoint is the live long-lock set in the journal's own format, so
//! there is one persisted format, and
//! [`LockManager::install_recovered`](crate::LockManager::install_recovered)
//! re-installs a replay into a fresh lock manager.
//!
//! Short locks — by design — are never journaled.
//!
//! # Journal format
//!
//! Line-oriented ([`colock_testkit::codec`]): a `colock-journal v2` header,
//! then one record per line, escaped fields separated by tabs:
//!
//! ```text
//! grantset   \t owner (\t resource \t mode)… \t crc
//! releaseall \t owner \t crc
//! op         \t resource \t owner \t mode \t crc      (op: grant, convert, release)
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the record text up to (excluding) the
//! crc's own tab, in lowercase hex. A `grantset` joins each mode into the
//! owner's lock on that resource (the lock manager writes the joined mode,
//! so the join is the mode written); `releaseall` drops every lock of the
//! owner. The three single-lock records are the v1 format, still written
//! by [`JournalSink::record`] and by a single-lock release: `grant` and
//! `convert` join the mode in, `release` removes the lock. Replay rules:
//!
//! * a record whose line is complete and whose CRC verifies is applied,
//! * empty lines are skipped,
//! * a trailing run of damaged records (torn line without a newline, CRC
//!   mismatch, unparseable fields) is truncated and counted in
//!   [`Recovered::dropped_tail`] — those operations were never acknowledged,
//! * damage *followed by* valid records is not a torn tail but medium
//!   corruption: replay refuses with a [`JournalError`] rather than guess.
//!
//! A `colock-journal v1` medium (single-lock records only) still replays. A
//! journal opened over one rewrites the header to v2 before it appends, so
//! an older binary refuses the medium ([`JournalError::BadHeader`]) instead
//! of truncating a `grantset` it cannot parse as a torn tail.
//!
//! # Checkpoints
//!
//! Appending alone would grow the medium with the journal's history, not
//! with what it protects. A journal therefore keeps a *live index*: the
//! replay fold itself, owner → its long locks, updated in the same critical
//! section as each append. A `releaseall` removes an owner in O(1); the
//! locks a record adds key the index by ranges of the record's own line,
//! so an append allocates per record, never per lock. When the medium
//! exceeds `max(`[`CHECKPOINT_FLOOR`]`, 2 × live bytes)`, the journal writes
//! a **checkpoint** — the header plus one `grantset` line per live owner,
//! sorted — on the side and swaps it in with one assignment. A checkpoint
//! is itself a journal that replays to the same set, so the format and
//! every reader are unchanged, and the medium stays within
//! `CHECKPOINT_FLOOR + 2 × live bytes` after every append at amortised O(1)
//! cost per record.

use crate::mode::LockMode;
use crate::table::{FastMap, Resource};
use crate::txnid::TxnId;
use colock_testkit::codec::{self, CodecError, FieldCodec};
use colock_testkit::fault::{CrashPoint, FaultPlan};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Header line of the journal format, newline included (what a healthy
/// medium — and every checkpoint — starts with).
const JOURNAL_HEADER: &str = "colock-journal v2\n";

/// Header of a v1 medium: single-lock records only. Replayed as is; a
/// journal opened over it rewrites it to [`JOURNAL_HEADER`] (same length).
const JOURNAL_HEADER_V1: &str = "colock-journal v1\n";

/// Medium size up to which a journal never checkpoints, whatever its live
/// set: compaction is amortised against at least this much history. The
/// medium holds at most `CHECKPOINT_FLOOR + 2 ×` [`Journal::live_bytes`]
/// after any completed append.
pub const CHECKPOINT_FLOOR: usize = 64 * 1024;

/// Sorts `(resource, owner, mode)` triples into the one deterministic order
/// of a replay. The resource must participate: one owner holding several
/// long locks in the same mode would otherwise come out in hash-iteration
/// order.
fn sort_entries<R: fmt::Debug>(entries: &mut [(R, TxnId, LockMode)]) {
    entries.sort_by_cached_key(|a| (a.1, a.2, format!("{:?}", a.0)));
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ----- journal --------------------------------------------------------------

/// One journaled single-lock operation (the v1 records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// A new long grant (owner did not hold the resource).
    Grant,
    /// A conversion of an existing long lock; the recorded mode is the
    /// conversion *target* (already the join of held and requested).
    Convert,
    /// The long lock was released.
    Release,
}

impl JournalOp {
    fn as_str(self) -> &'static str {
        match self {
            JournalOp::Grant => "grant",
            JournalOp::Convert => "convert",
            JournalOp::Release => "release",
        }
    }

    fn parse(s: &str) -> Option<JournalOp> {
        match s {
            "grant" => Some(JournalOp::Grant),
            "convert" => Some(JournalOp::Convert),
            "release" => Some(JournalOp::Release),
            _ => None,
        }
    }
}

impl fmt::Display for JournalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Record names of the two set records.
const GRANT_SET: &str = "grantset";
const RELEASE_ALL: &str = "releaseall";

/// The journal's simulated medium crashed during an append (fault
/// injection): the operation was not acknowledged and the whole system must
/// be treated as down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCrash {
    /// Where in the append the crash struck.
    pub point: CrashPoint,
}

/// Where the lock manager writes long-lock records. Implemented by
/// [`Journal`]; a trait so the manager stays decoupled from the medium and
/// tests can substitute their own sink. Every method appends one record;
/// `Err` means the medium crashed mid-append and the operation must not be
/// acknowledged to the caller.
pub trait JournalSink<R>: Send + Sync {
    /// Appends one single-lock record.
    fn record(
        &self,
        op: JournalOp,
        txn: TxnId,
        resource: &R,
        mode: LockMode,
    ) -> Result<(), JournalCrash>;

    /// Appends one grant set: `txn` holds each resource long in (at least)
    /// the given mode, its joined mode there. Replay applies all of it or,
    /// torn, none.
    fn record_grant_set(&self, txn: TxnId, locks: &[(R, LockMode)]) -> Result<(), JournalCrash>;

    /// Appends one release-all: `txn` holds no long lock any more.
    fn record_release_all(&self, txn: TxnId) -> Result<(), JournalCrash>;
}

/// Replay failure: the journal text is damaged in a way a single torn-tail
/// crash cannot explain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Missing or unrecognized header (wrong version, not a journal).
    BadHeader(String),
    /// A non-tail record failed its CRC check.
    BadCrc {
        /// 1-based line number of the damaged record.
        line: usize,
    },
    /// A non-tail record failed to decode.
    Codec {
        /// 1-based line number of the damaged record.
        line: usize,
        /// The underlying decode failure.
        err: CodecError,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadHeader(h) => write!(f, "bad journal header: {h:?}"),
            JournalError::BadCrc { line } => {
                write!(f, "journal line {line}: CRC mismatch (not at tail)")
            }
            JournalError::Codec { line, err } => write!(f, "journal line {line}: {err}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Outcome of a journal replay: the long locks that were durably granted at
/// crash time, plus what had to be dropped from the torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered<R> {
    /// Surviving `(resource, owner, mode)` long locks, sorted by owner,
    /// then mode, then resource.
    pub entries: Vec<(R, TxnId, LockMode)>,
    /// Complete, checksummed records that were applied.
    pub records: usize,
    /// Damaged records truncated from the tail (torn line, bad CRC) — these
    /// operations were in flight at the crash and were never acknowledged.
    pub dropped_tail: usize,
}

impl<R> Recovered<R> {
    /// Distinct owners among the surviving locks, ascending.
    pub fn owners(&self) -> Vec<TxnId> {
        let mut owners: Vec<TxnId> = self.entries.iter().map(|e| e.1).collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    }
}

/// Checksummed long-lock journal over a simulated durable medium (an
/// `Arc<Mutex<String>>` that outlives the lock manager, the way a disk
/// outlives a process).
///
/// Writes are acknowledged only after the record is fully on the medium; a
/// [`FaultPlan`] can crash the medium before/after/mid-way through any
/// append or in the middle of a checkpoint, after which the journal is
/// frozen ([`Journal::crashed`]) and all further appends fail.
/// [`Journal::replay`] turns the surviving text back into the set of
/// durably-granted long locks. Checkpoints (module docs) keep the medium
/// proportional to the live long locks.
pub struct Journal<R> {
    medium: Arc<Mutex<String>>,
    /// The live index. Lock order: this mutex, then the medium's — so the
    /// index and the medium change together.
    live: Mutex<LiveSet>,
    /// Whether the medium replayed when the journal was opened over it. A
    /// medium [`Journal::replay`] refuses is appended to but never
    /// compacted — a checkpoint would drop what the index could not read —
    /// so its journal keeps no index either.
    compactable: bool,
    /// Cheap flag checked on every append; the plan mutex is only touched
    /// while a plan is armed.
    armed: AtomicBool,
    plan: Mutex<Option<FaultPlan>>,
    crashed: AtomicBool,
    crash_point: Mutex<Option<CrashPoint>>,
    appends: AtomicU64,
    bytes_appended: AtomicU64,
    checkpoints: AtomicU64,
    _resource: PhantomData<fn(R) -> R>,
}

impl<R> fmt::Debug for Journal<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("appends", &self.appends())
            .field("checkpoints", &self.checkpoints())
            .field("crashed", &self.crashed())
            .finish()
    }
}

impl<R: Resource + FieldCodec> Default for Journal<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> Journal<R> {
    /// The shared medium (survives the crash of the journal's owner). A
    /// checkpoint replaces its text in place, so holders see the compacted
    /// journal.
    pub fn medium(&self) -> Arc<Mutex<String>> {
        Arc::clone(&self.medium)
    }

    /// A copy of the medium's current text.
    pub fn contents(&self) -> String {
        locked(&self.medium).clone()
    }

    /// Arms a one-shot crash plan. Replaces any previous plan.
    pub fn arm(&self, plan: FaultPlan) {
        *locked(&self.plan) = Some(plan);
        self.armed.store(true, Ordering::Release);
    }

    /// Whether an armed crash has fired; once true, the journal is frozen.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// The crash point of the fired plan, if any.
    pub fn crash_point(&self) -> Option<CrashPoint> {
        *locked(&self.crash_point)
    }

    /// Append attempts so far (including the crashing one) — a fault-free
    /// dry run uses this to size an exhaustive crash sweep.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Record bytes this journal has appended, newlines and torn prefixes
    /// included. Monotonic, unlike the medium's length, which a checkpoint
    /// shrinks: per-operation journal volume is a difference of this.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended.load(Ordering::Relaxed)
    }

    /// Checkpoints written so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Bytes of the live lines (newlines included) — what a checkpoint
    /// written now would hold after its header.
    pub fn live_bytes(&self) -> usize {
        locked(&self.live).bytes
    }

    /// The error every append of a frozen journal returns.
    fn frozen(&self) -> JournalCrash {
        JournalCrash { point: self.crash_point().unwrap_or(CrashPoint::BeforeAppend) }
    }

    /// Freezes the journal at `point`: this and every later append fail.
    fn freeze(&self, point: CrashPoint) -> JournalCrash {
        *locked(&self.crash_point) = Some(point);
        self.crashed.store(true, Ordering::Release);
        JournalCrash { point }
    }

    /// Replaces the medium's text by the checkpoint of `live` — built on
    /// the side, swapped in with one assignment (the in-memory write-temp +
    /// rename). A `MidCompaction` crash strikes before the swap and leaves
    /// the old text.
    fn checkpoint(&self, live: &LiveSet, medium: &mut String) -> Result<(), JournalCrash> {
        if self.armed.load(Ordering::Acquire)
            && locked(&self.plan).as_ref().is_some_and(FaultPlan::on_checkpoint)
        {
            return Err(self.freeze(CrashPoint::MidCompaction));
        }
        *medium = live.checkpoint();
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends one encoded record (no newline) and applies `change` to the
    /// live index in the same critical section. No caller may hold a lock
    /// table shard: debug builds assert it, so every test run checks that
    /// the journal's mutexes never nest inside a shard's.
    fn append(&self, line: String, change: Change) -> Result<(), JournalCrash> {
        #[cfg(debug_assertions)]
        assert_eq!(crate::table::held_shard_guards(), 0, "journal append under a shard lock");
        if self.crashed() {
            return Err(self.frozen());
        }
        let mut live = locked(&self.live);
        if self.crashed() {
            // A concurrent append froze the journal while this one encoded.
            return Err(self.frozen());
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        let fired = if self.armed.load(Ordering::Acquire) {
            locked(&self.plan).as_ref().and_then(FaultPlan::on_append)
        } else {
            None
        };
        let mut medium = locked(&self.medium);
        let written = match fired {
            Some(CrashPoint::BeforeAppend) => 0,
            Some(CrashPoint::MidRecord) => {
                // Torn write: a prefix of the record, no newline.
                let cut = line.len() * 2 / 3;
                let cut = (0..=cut).rev().find(|&i| line.is_char_boundary(i)).unwrap_or(0);
                medium.push_str(&line[..cut]);
                cut
            }
            _ => {
                medium.push_str(&line);
                medium.push('\n');
                let written = line.len() + 1;
                if self.compactable {
                    live.apply(line, change);
                }
                written
            }
        };
        self.bytes_appended.fetch_add(written as u64, Ordering::Relaxed);
        if let Some(point) = fired {
            return Err(self.freeze(point));
        }
        if self.compactable && medium.len() > CHECKPOINT_FLOOR.max(2 * live.bytes) {
            self.checkpoint(&live, &mut medium)?;
        }
        Ok(())
    }
}

impl<R: Resource + FieldCodec> Journal<R> {
    /// A journal over a fresh empty medium. Allocates the header only; the
    /// live index grows with the first long lock.
    pub fn new() -> Self {
        Self::over_medium(Arc::new(Mutex::new(String::new())))
    }

    /// A journal over an existing medium: writes the header if the medium is
    /// empty; otherwise seeds the live index by replaying what is there —
    /// so a checkpoint keeps the surviving locks of a previous incarnation —
    /// and appends after it. A v1 header is rewritten to v2 first (the v1
    /// body is a v2 body). A medium that does not replay is appended to but
    /// never compacted.
    pub fn over_medium(medium: Arc<Mutex<String>>) -> Self {
        let (live, compactable) = {
            let mut m = locked(&medium);
            if m.starts_with(JOURNAL_HEADER_V1) {
                m.replace_range(..JOURNAL_HEADER.len(), JOURNAL_HEADER);
            }
            if m.is_empty() {
                m.push_str(JOURNAL_HEADER);
                (LiveSet::default(), true)
            } else {
                match LiveSet::fold::<R>(&m) {
                    Ok((live, _, _)) => (live, true),
                    Err(_) => (LiveSet::default(), false),
                }
            }
        };
        Journal {
            medium,
            live: Mutex::new(live),
            compactable,
            armed: AtomicBool::new(false),
            plan: Mutex::new(None),
            crashed: AtomicBool::new(false),
            crash_point: Mutex::new(None),
            appends: AtomicU64::new(0),
            bytes_appended: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            _resource: PhantomData,
        }
    }

    /// Writes a checkpoint now, whatever the medium's size — lets tests
    /// compact at arbitrary points of a stream.
    #[cfg(test)]
    pub(crate) fn compact_now(&self) -> Result<(), JournalCrash> {
        let live = locked(&self.live);
        if self.crashed() {
            return Err(self.frozen());
        }
        self.checkpoint(&live, &mut locked(&self.medium))
    }

    /// The live index's locks, in [`Recovered::entries`] order.
    #[cfg(test)]
    pub(crate) fn live_entries(&self) -> Vec<(R, TxnId, LockMode)> {
        locked(&self.live).entries()
    }

    /// Replays journal text into the set of durably-granted long locks.
    ///
    /// See the module docs for the truncate-vs-refuse rules. The only damage
    /// a single crash can produce — a trailing run of torn/unchecksummed
    /// records — is dropped and counted; anything else is an error.
    pub fn replay(text: &str) -> Result<Recovered<R>, JournalError> {
        let (mut live, records, dropped_tail) = LiveSet::fold::<R>(text)?;
        Ok(Recovered { entries: live.entries(), records, dropped_tail })
    }
}

impl<R: Resource + FieldCodec> JournalSink<R> for Journal<R> {
    fn record(
        &self,
        op: JournalOp,
        txn: TxnId,
        resource: &R,
        mode: LockMode,
    ) -> Result<(), JournalCrash> {
        if self.crashed() {
            return Err(self.frozen());
        }
        // Encode outside the critical section; the line then moves into the
        // live index.
        let (line, field) = encode_line(op, |out| resource.write_field(out), txn, mode);
        self.append(line, Change::Lock(op, txn, mode, field))
    }

    fn record_grant_set(&self, txn: TxnId, locks: &[(R, LockMode)]) -> Result<(), JournalCrash> {
        if self.crashed() {
            return Err(self.frozen());
        }
        let mut line = String::with_capacity(64 + 64 * locks.len());
        begin_grant_set(&mut line, txn);
        for (resource, mode) in locks {
            push_lock(&mut line, |out| resource.write_field(out), *mode);
        }
        push_crc(&mut line, 0);
        self.append(line, Change::Set(txn))
    }

    fn record_release_all(&self, txn: TxnId) -> Result<(), JournalCrash> {
        if self.crashed() {
            return Err(self.frozen());
        }
        let mut line = String::with_capacity(32);
        line.push_str(RELEASE_ALL);
        line.push('\t');
        txn.write_field(&mut line);
        push_crc(&mut line, 0);
        self.append(line, Change::ReleaseAll(txn))
    }
}

/// Encodes one single-lock record line (no newline), byte for byte the
/// `codec::encode_record` of the four fields plus `\t` and the CRC;
/// `resource` appends the escaped resource field. Returns the line and the
/// range of that field in it, which is how the live index identifies the
/// resource.
fn encode_line(
    op: JournalOp,
    resource: impl FnOnce(&mut String),
    owner: TxnId,
    mode: LockMode,
) -> (String, Range<usize>) {
    let mut line = String::with_capacity(128);
    line.push_str(op.as_str());
    line.push('\t');
    let start = line.len();
    resource(&mut line);
    let field = start..line.len();
    line.push('\t');
    owner.write_field(&mut line);
    line.push('\t');
    mode.write_field(&mut line);
    push_crc(&mut line, 0);
    (line, field)
}

/// Appends `grantset \t owner` — the start of a grant-set record.
fn begin_grant_set(out: &mut String, owner: TxnId) {
    out.push_str(GRANT_SET);
    out.push('\t');
    owner.write_field(out);
}

/// Appends one `\t resource \t mode` pair of a grant set; `resource`
/// appends the escaped resource field.
fn push_lock(out: &mut String, resource: impl FnOnce(&mut String), mode: LockMode) {
    out.push('\t');
    resource(out);
    out.push('\t');
    mode.write_field(out);
}

/// Ends the record that starts at `out[start..]`: `\t` and its CRC as eight
/// lowercase hex digits.
fn push_crc(out: &mut String, start: usize) {
    let crc = codec::crc32(&out.as_bytes()[start..]);
    out.push('\t');
    // `{crc:08x}` without the formatter.
    out.extend((0..8).rev().map(|i| char::from_digit((crc >> (4 * i)) & 0xF, 16).unwrap_or('0')));
}

/// The `(resource field range, mode)` pairs of a grant-set line this
/// journal encoded: escaped fields hold no raw tab, so the line's tabs
/// delimit them.
fn grant_set_locks(line: &str) -> impl Iterator<Item = (Range<usize>, LockMode)> + '_ {
    let mut tabs = line.match_indices('\t').map(|(i, _)| i);
    // Past `grantset` and the owner.
    let mut start = tabs.nth(1).map_or(line.len(), |i| i + 1);
    std::iter::from_fn(move || {
        let (field_end, mode_end) = (tabs.next()?, tabs.next()?);
        let mode = LockMode::from_field(&line[field_end + 1..mode_end])
            .expect("a grant set this journal encoded");
        let field = start..field_end;
        start = mode_end + 1;
        Some((field, mode))
    })
}

/// Checkpoint-line bytes an owner costs beyond its locks: `grantset`, the
/// owner field, the CRC with its tab, and the newline.
fn owner_bytes(owner: TxnId) -> usize {
    let digits = owner.0.checked_ilog10().map_or(1, |d| d as usize + 1);
    GRANT_SET.len() + 1 + digits + 1 + 8 + 1
}

/// Checkpoint-line bytes of one `\t resource \t mode` pair.
fn lock_bytes(field: &str, mode: LockMode) -> usize {
    2 + field.len() + mode.name().len()
}

/// What one appended record does to the live index.
enum Change {
    /// A single-lock record; the range locates the escaped resource field
    /// in the record's line.
    Lock(JournalOp, TxnId, LockMode, Range<usize>),
    /// A grant set (its line lists the locks).
    Set(TxnId),
    /// A release-all.
    ReleaseAll(TxnId),
}

/// A resource's canonical escaped field: a range of the record line that
/// stated it — a single-lock record's own line, or a grant set's, shared by
/// every lock of the set. Hashes and compares as its text, so the index is
/// probed with a plain `&str`.
struct Field {
    line: Line,
    range: Range<usize>,
}

enum Line {
    One(String),
    Set(Arc<String>),
}

impl Field {
    fn as_str(&self) -> &str {
        let line = match &self.line {
            Line::One(line) => line,
            Line::Set(line) => &**line,
        };
        &line[self.range.clone()]
    }
}

impl Borrow<str> for Field {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for Field {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for Field {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Field {}

/// The replay fold: owner → its long locks, each at its joined mode.
/// [`Journal::replay`] folds a medium's text through it once; a [`Journal`]
/// keeps one current with every append, and a checkpoint is one grant-set
/// line per owner.
///
/// A resource is identified by its escaped field text — the canonical
/// `write_field` encoding, which is injective — found inside the record
/// line itself, so an append neither clones a resource nor allocates a key.
#[derive(Default)]
struct LiveSet {
    owners: FastMap<TxnId, LiveOwner>,
    /// Bytes of the checkpoint's lines, newlines included.
    bytes: usize,
}

struct LiveOwner {
    /// The owner's one grant-set line while it has had no other record —
    /// a check-out — kept whole, so the append indexes nothing per lock.
    /// Any other record of the owner indexes it into `locks` first.
    set: Option<String>,
    locks: FastMap<Field, LockMode>,
    /// Bytes of this owner's checkpoint line, newline included.
    bytes: usize,
}

impl LiveSet {
    /// Applies one record whose text (no newline) is `line`. An owner's
    /// whole-kept grant set is indexed before any other record of it.
    fn apply(&mut self, line: String, change: Change) {
        match change {
            Change::ReleaseAll(owner) => {
                if let Some(o) = self.owners.remove(&owner) {
                    self.bytes -= o.bytes;
                }
            }
            Change::Set(owner) if !self.owners.contains_key(&owner) => {
                // A checkpoint writes the same pairs in another order: the
                // line's length is the owner's.
                let bytes = line.len() + 1;
                self.bytes += bytes;
                let locks = FastMap::default();
                self.owners.insert(owner, LiveOwner { set: Some(line), locks, bytes });
            }
            Change::Set(owner) => {
                self.index(owner);
                self.join_set(owner, line);
            }
            Change::Lock(JournalOp::Release, owner, _, field) => {
                self.index(owner);
                self.release(owner, &line[field]);
            }
            Change::Lock(_, owner, mode, range) => {
                self.index(owner);
                self.join(owner, Field { line: Line::One(line), range }, mode);
            }
        }
    }

    /// Joins every lock of grant-set `line` into `owner`'s.
    fn join_set(&mut self, owner: TxnId, line: String) {
        let line = Arc::new(line);
        for (range, mode) in grant_set_locks(&line) {
            self.join(owner, Field { line: Line::Set(Arc::clone(&line)), range }, mode);
        }
    }

    /// Indexes `owner`'s whole-kept grant set per lock, if it has one.
    fn index(&mut self, owner: TxnId) {
        let Some(o) = self.owners.get_mut(&owner) else {
            return;
        };
        if let Some(line) = o.set.take() {
            self.bytes -= o.bytes;
            self.owners.remove(&owner);
            self.join_set(owner, line);
        }
    }

    /// Joins `mode` into `owner`'s lock on `field`.
    fn join(&mut self, owner: TxnId, field: Field, mode: LockMode) {
        let total = &mut self.bytes;
        let o = self.owners.entry(owner).or_insert_with(|| {
            *total += owner_bytes(owner);
            LiveOwner { set: None, locks: FastMap::default(), bytes: owner_bytes(owner) }
        });
        let before = o.bytes;
        match o.locks.get_mut(field.as_str()) {
            Some(held) => {
                let joined = held.join(mode);
                o.bytes = o.bytes + joined.name().len() - held.name().len();
                *held = joined;
            }
            None => {
                o.bytes += lock_bytes(field.as_str(), mode);
                o.locks.insert(field, mode);
            }
        }
        *total = *total + o.bytes - before;
    }

    /// Removes `owner`'s lock on `field`, and the owner with its last lock.
    fn release(&mut self, owner: TxnId, field: &str) {
        let Some(o) = self.owners.get_mut(&owner) else {
            return;
        };
        let Some((f, mode)) = o.locks.remove_entry(field) else {
            return;
        };
        let freed = lock_bytes(f.as_str(), mode);
        o.bytes -= freed;
        self.bytes -= freed;
        if o.locks.is_empty() {
            self.bytes -= o.bytes;
            self.owners.remove(&owner);
        }
    }

    /// The header plus one grant-set line per owner, ordered by owner, its
    /// locks by field text — a journal that replays to this set.
    fn checkpoint(&self) -> String {
        let mut owners: Vec<(&TxnId, &LiveOwner)> = self.owners.iter().collect();
        owners.sort_unstable_by_key(|(owner, _)| **owner);
        // Room for the history up to the next checkpoint.
        let mut text = String::with_capacity(CHECKPOINT_FLOOR.max(2 * self.bytes) + 1024);
        text.push_str(JOURNAL_HEADER);
        let mut locks: Vec<(&str, LockMode)> = Vec::new();
        for (&owner, o) in owners {
            locks.clear();
            match &o.set {
                Some(line) => locks.extend(grant_set_locks(line).map(|(f, m)| (&line[f], m))),
                None => locks.extend(o.locks.iter().map(|(f, m)| (f.as_str(), *m))),
            }
            locks.sort_unstable_by_key(|&(f, _)| f);
            let start = text.len();
            begin_grant_set(&mut text, owner);
            for &(field, mode) in &locks {
                push_lock(&mut text, |out| out.push_str(field), mode);
            }
            push_crc(&mut text, start);
            text.push('\n');
        }
        text
    }

    /// The live locks as `(resource, owner, mode)`, in capture order.
    fn entries<R: Resource + FieldCodec>(&mut self) -> Vec<(R, TxnId, LockMode)> {
        let owners: Vec<TxnId> = self.owners.keys().copied().collect();
        for owner in owners {
            self.index(owner);
        }
        let mut entries: Vec<(R, TxnId, LockMode)> = self
            .owners
            .iter()
            .flat_map(|(&owner, o)| o.locks.iter().map(move |(f, &mode)| (f, owner, mode)))
            .map(|(f, owner, mode)| {
                let resource = codec::unescape(f.as_str())
                    .ok()
                    .and_then(|f| R::from_field(&f).ok())
                    .expect("a live field is the canonical field of a decoded resource");
                (resource, owner, mode)
            })
            .collect();
        sort_entries(&mut entries);
        entries
    }

    /// Folds journal text: the live set, the records applied and the
    /// damaged records dropped from the tail.
    fn fold<R: FieldCodec>(text: &str) -> Result<(Self, usize, usize), JournalError> {
        let Some(body) =
            text.strip_prefix(JOURNAL_HEADER).or_else(|| text.strip_prefix(JOURNAL_HEADER_V1))
        else {
            let first = text.lines().next().unwrap_or("");
            return Err(JournalError::BadHeader(first.to_string()));
        };

        // Split the body into line units, remembering whether each is
        // newline-terminated (only the last can fail to be).
        let terminated = body.is_empty() || body.ends_with('\n');
        let segs: Vec<&str> = body.split('\n').collect();
        let mut units: Vec<(usize, &str, bool)> = segs
            .iter()
            .enumerate()
            .map(|(i, &seg)| (i + 2, seg, terminated || i + 1 < segs.len()))
            .collect();
        if terminated {
            units.pop(); // the empty sentinel after the final newline
        }

        // Decode every unit; damaged units are only tolerated as a
        // contiguous run at the tail.
        let mut decoded: Vec<Unit<R>> = Vec::with_capacity(units.len());
        for &(lineno, seg, complete) in &units {
            if seg.is_empty() {
                decoded.push(Unit::Skip);
                continue;
            }
            if !complete {
                // Torn write: no newline ever made it to the medium.
                decoded.push(Unit::Bad(JournalError::Codec {
                    line: lineno,
                    err: CodecError::BadHeader("unterminated record".to_string()),
                }));
                continue;
            }
            decoded.push(decode_journal_line(lineno, seg));
        }
        let last_ok = decoded
            .iter()
            .rposition(|u| matches!(u, Unit::Ok(..)))
            .map(|i| i + 1)
            .unwrap_or(0);
        let dropped_tail =
            decoded[last_ok..].iter().filter(|u| matches!(u, Unit::Bad(_))).count();
        // Any damage *before* the last valid record is not a torn tail.
        for u in &decoded[..last_ok] {
            if let Unit::Bad(e) = u {
                return Err(e.clone());
            }
        }

        // Each record is applied as this journal would have written it:
        // re-encoding keys a hand-written spelling of a resource (`007` for
        // `7`) under its canonical field.
        let mut live = LiveSet::default();
        let mut records = 0usize;
        for u in &decoded[..last_ok] {
            let Unit::Ok(record) = u else {
                continue;
            };
            records += 1;
            let (line, change) = record.encode();
            live.apply(line, change);
        }
        Ok((live, records, dropped_tail))
    }
}

/// One decoded record.
enum Record<R> {
    Lock(JournalOp, R, TxnId, LockMode),
    Set(TxnId, Vec<(R, LockMode)>),
    ReleaseAll(TxnId),
}

impl<R: FieldCodec> Record<R> {
    /// Parses a record's unescaped fields (CRC already stripped).
    fn parse(fields: &[String]) -> Result<Self, CodecError> {
        match fields[0].as_str() {
            GRANT_SET => {
                if fields.len() < 4 || !fields.len().is_multiple_of(2) {
                    return Err(CodecError::BadArity { got: fields.len(), want: 4 });
                }
                let locks = fields[2..]
                    .chunks(2)
                    .map(|p| -> Result<(R, LockMode), CodecError> {
                        Ok((R::from_field(&p[0])?, LockMode::from_field(&p[1])?))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Record::Set(TxnId::from_field(&fields[1])?, locks))
            }
            RELEASE_ALL => {
                codec::expect_arity(fields, 2)?;
                Ok(Record::ReleaseAll(TxnId::from_field(&fields[1])?))
            }
            op => {
                codec::expect_arity(fields, 4)?;
                let op = JournalOp::parse(op).ok_or_else(|| CodecError::BadField {
                    field: op.to_string(),
                    expected: "journal op",
                })?;
                let resource = R::from_field(&fields[1])?;
                let owner = TxnId::from_field(&fields[2])?;
                Ok(Record::Lock(op, resource, owner, LockMode::from_field(&fields[3])?))
            }
        }
    }

    /// The record's canonical line and its change to the live index.
    fn encode(&self) -> (String, Change) {
        match self {
            Record::Lock(op, r, owner, mode) => {
                let (line, field) = encode_line(*op, |out| r.write_field(out), *owner, *mode);
                (line, Change::Lock(*op, *owner, *mode, field))
            }
            Record::Set(owner, locks) => {
                let mut line = String::new();
                begin_grant_set(&mut line, *owner);
                for (r, mode) in locks {
                    push_lock(&mut line, |out| r.write_field(out), *mode);
                }
                push_crc(&mut line, 0);
                (line, Change::Set(*owner))
            }
            Record::ReleaseAll(owner) => (String::new(), Change::ReleaseAll(*owner)),
        }
    }
}

enum Unit<R> {
    Skip,
    Ok(Record<R>),
    Bad(JournalError),
}

fn decode_journal_line<R: FieldCodec>(lineno: usize, seg: &str) -> Unit<R> {
    let Some((payload, crc_text)) = seg.rsplit_once('\t') else {
        return Unit::Bad(JournalError::Codec {
            line: lineno,
            err: CodecError::BadArity { got: 1, want: 5 },
        });
    };
    let Ok(crc) = u32::from_str_radix(crc_text, 16) else {
        return Unit::Bad(JournalError::BadCrc { line: lineno });
    };
    if codec::crc32(payload.as_bytes()) != crc {
        return Unit::Bad(JournalError::BadCrc { line: lineno });
    }
    match codec::decode_record(payload).and_then(|fields| Record::parse(&fields)) {
        Ok(record) => Unit::Ok(record),
        Err(err) => Unit::Bad(JournalError::Codec { line: lineno, err }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{AcquireOutcome, LockManager, LockRequestOptions};
    use crate::LockError;
    use colock_testkit::prop::{pick_weighted, vec_of};
    use colock_testkit::{ensure, ensure_eq, forall, no_shrink, Rng};
    use LockMode::*;

    /// `mgr`'s grants flagged long, in replay order: what a replay of its
    /// journal must equal.
    fn long_grants<R: Resource>(mgr: &LockManager<R>) -> Vec<(R, TxnId, LockMode)> {
        let mut entries = Vec::new();
        mgr.for_each_grant(|r, txn, mode, long| {
            if long {
                entries.push((r.clone(), txn, mode));
            }
        });
        sort_entries(&mut entries);
        entries
    }

    /// A manager journaling into a fresh journal, and the journal.
    fn journaled(shards: usize) -> (LockManager<String>, Arc<J>) {
        let mgr = LockManager::with_shards(shards);
        let j = Arc::new(J::new());
        assert!(mgr.attach_journal(j.clone()));
        (mgr, j)
    }

    #[test]
    fn long_locks_survive_crash_short_locks_do_not() {
        let (mgr, j) = journaled(16);
        let t1 = TxnId(1);
        mgr.acquire(t1, "cell_c1".into(), X, LockRequestOptions::long()).unwrap();
        mgr.acquire(t1, "scratch".into(), S, LockRequestOptions::default()).unwrap();

        let rec = J::replay(&j.contents()).unwrap();
        assert_eq!(rec.entries.len(), 1);

        // "Crash": a brand-new lock manager.
        let recovered: LockManager<String> = LockManager::new();
        recovered.install_recovered(t1, rec.entries.into_iter().map(|(r, _, m)| (r, m)));
        assert_eq!(recovered.held_mode(t1, &"cell_c1".to_string()), X);
        assert_eq!(recovered.held_mode(t1, &"scratch".to_string()), NL);

        // The restored lock still excludes others.
        let err = recovered
            .acquire(TxnId(2), "cell_c1".into(), S, LockRequestOptions::try_lock())
            .unwrap_err();
        assert!(matches!(err, LockError::WouldBlock { .. }));
    }

    #[test]
    fn empty_image_for_short_only_table() {
        let (mgr, j) = journaled(16);
        mgr.acquire(TxnId(1), "a".into(), S, LockRequestOptions::default()).unwrap();
        assert_eq!(j.appends(), 0);
        assert!(long_grants(&mgr).is_empty());
    }

    #[test]
    fn conversion_of_long_lock_stays_long() {
        let (mgr, j) = journaled(16);
        let t1 = TxnId(1);
        mgr.acquire(t1, "a".into(), S, LockRequestOptions::long()).unwrap();
        mgr.acquire(t1, "a".into(), X, LockRequestOptions::default()).unwrap();
        assert_eq!(long_grants(&mgr), vec![("a".to_string(), t1, X)]);
        assert_eq!(J::replay(&j.contents()).unwrap().entries, long_grants(&mgr));
    }

    #[test]
    fn capture_order_is_deterministic_for_same_mode_locks() {
        // Regression: the sort key used to be (owner, mode) only, so two
        // same-mode locks of one txn came out in shard-iteration order and
        // replays of equal sets could differ.
        let t1 = TxnId(1);
        let resources = ["cells/c1", "cells/c2", "lib/e9", "zz/last", "aa/first"];
        // Different tables and insertion orders (different shard and
        // journal order) must replay to identical entries.
        let replay = |shards: usize, order: &mut dyn Iterator<Item = &&str>| {
            let (mgr, j) = journaled(shards);
            for r in order {
                mgr.acquire(t1, r.to_string(), X, LockRequestOptions::long()).unwrap();
            }
            J::replay(&j.contents()).unwrap().entries
        };
        let a = replay(16, &mut resources.iter());
        assert_eq!(a, replay(4, &mut resources.iter().rev()));
        let mut sorted = a.clone();
        sorted.sort_by_cached_key(|a| (a.1, a.2, format!("{:?}", a.0)));
        assert_eq!(a, sorted, "entries must come out fully sorted");
    }

    // ----- journal ---------------------------------------------------------

    use colock_testkit::fault::{CrashPoint, FaultPlan};
    use std::sync::Arc;

    type J = Journal<String>;

    fn grant(j: &J, t: u64, r: &str, m: LockMode) -> Result<(), JournalCrash> {
        j.record(JournalOp::Grant, TxnId(t), &r.to_string(), m)
    }

    #[test]
    fn journal_replay_roundtrips_grants_conversions_releases() {
        let j = J::new();
        grant(&j, 1, "cells/c1", X).unwrap();
        grant(&j, 1, "db", IX).unwrap();
        grant(&j, 2, "cells/c2", S).unwrap();
        j.record(JournalOp::Convert, TxnId(2), &"cells/c2".to_string(), X).unwrap();
        j.record(JournalOp::Release, TxnId(1), &"db".to_string(), IX).unwrap();
        let rec = J::replay(&j.contents()).unwrap();
        assert_eq!(rec.records, 5);
        assert_eq!(rec.dropped_tail, 0);
        assert_eq!(
            rec.entries,
            vec![
                ("cells/c1".to_string(), TxnId(1), X),
                ("cells/c2".to_string(), TxnId(2), X),
            ]
        );
        assert_eq!(rec.owners(), vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn journal_grant_then_release_nets_to_empty() {
        let j = J::new();
        grant(&j, 7, "a", X).unwrap();
        j.record(JournalOp::Release, TxnId(7), &"a".to_string(), X).unwrap();
        let rec = J::replay(&j.contents()).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(rec.records, 2);
    }

    #[test]
    fn journal_empty_medium_replays_to_nothing() {
        let j = J::new();
        let rec = J::replay(&j.contents()).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(rec.records, 0);
        assert_eq!(rec.dropped_tail, 0);
    }

    #[test]
    fn journal_rejects_wrong_header_version() {
        for text in ["", "colock-journal v3\n", "colock-long-locks v1\n", "garbage"] {
            let err = J::replay(text).unwrap_err();
            assert!(matches!(err, JournalError::BadHeader(_)), "{text:?} -> {err:?}");
        }
    }

    #[test]
    fn journal_skips_interleaved_empty_lines() {
        let j = J::new();
        grant(&j, 1, "a", S).unwrap();
        j.medium().lock().unwrap().push('\n');
        grant(&j, 2, "b", X).unwrap();
        let text = j.contents();
        let rec = J::replay(&text).unwrap();
        assert_eq!(rec.records, 2);
        assert_eq!(rec.entries.len(), 2);
    }

    #[test]
    fn journal_truncated_final_record_is_dropped_and_reported() {
        let j = J::new();
        grant(&j, 1, "a", X).unwrap();
        grant(&j, 2, "b", S).unwrap();
        let mut text = j.contents();
        // Tear the final record: lose the newline and half the bytes.
        let torn = text.trim_end_matches('\n').len() - 7;
        text.truncate(torn);
        let rec = J::replay(&text).unwrap();
        assert_eq!(rec.records, 1);
        assert_eq!(rec.dropped_tail, 1);
        assert_eq!(rec.entries, vec![("a".to_string(), TxnId(1), X)]);
    }

    #[test]
    fn journal_bad_crc_at_tail_truncates_but_mid_file_refuses() {
        let j = J::new();
        grant(&j, 1, "a", X).unwrap();
        grant(&j, 2, "b", S).unwrap();
        let good = j.contents();

        // Flip a payload byte of the *last* record: torn tail, truncated.
        let mut tail_damaged = good.clone();
        let flip_at = tail_damaged.rfind("\tS\t").expect("mode field of last record") + 1;
        tail_damaged.replace_range(flip_at..flip_at + 1, "X");
        let rec = J::replay(&tail_damaged).unwrap();
        assert_eq!(rec.dropped_tail, 1);
        assert_eq!(rec.entries, vec![("a".to_string(), TxnId(1), X)]);

        // Same damage on the *first* record (valid record after it): refuse.
        let mut mid_damaged = good.clone();
        let flip_at = mid_damaged.find("\tX\t").expect("mode field of first record") + 1;
        mid_damaged.replace_range(flip_at..flip_at + 1, "S");
        let err = J::replay(&mid_damaged).unwrap_err();
        assert_eq!(err, JournalError::BadCrc { line: 2 });
    }

    #[test]
    fn journal_unparseable_mid_file_record_refuses() {
        let j = J::new();
        grant(&j, 1, "a", X).unwrap();
        let mut text = j.contents();
        text.push_str("not\ta\tvalid\trecord\tdeadbeef\n");
        grant(&j, 2, "b", S).unwrap();
        text.push_str(j.contents().lines().last().unwrap());
        text.push('\n');
        let err = J::replay(&text).unwrap_err();
        assert!(matches!(err, JournalError::BadCrc { line: 3 } | JournalError::Codec { line: 3, .. }),
            "{err:?}");
    }

    #[test]
    fn journal_crash_points_freeze_the_medium() {
        for point in CrashPoint::ALL {
            let j = J::new();
            grant(&j, 1, "a", X).unwrap();
            j.arm(FaultPlan::crash_at(point, 1));
            let err = grant(&j, 2, "b", S).unwrap_err();
            assert_eq!(err.point, point);
            assert!(j.crashed());
            assert_eq!(j.crash_point(), Some(point));
            // Frozen: later appends fail, the medium no longer changes.
            let before = j.contents();
            assert!(grant(&j, 3, "c", S).is_err());
            assert_eq!(j.contents(), before);

            // Replay of the surviving medium: first grant always survives;
            // the crashed append survives exactly when it hit AfterAppend.
            let rec = J::replay(&j.contents()).unwrap();
            match point {
                CrashPoint::BeforeAppend => {
                    assert_eq!(rec.entries.len(), 1);
                    assert_eq!(rec.dropped_tail, 0);
                }
                CrashPoint::AfterAppend => {
                    assert_eq!(rec.entries.len(), 2);
                    assert_eq!(rec.dropped_tail, 0);
                }
                CrashPoint::MidRecord => {
                    assert_eq!(rec.entries.len(), 1);
                    assert_eq!(rec.dropped_tail, 1, "torn record must be counted");
                }
                CrashPoint::MidCompaction => unreachable!("not an append crash point"),
            }
        }
    }

    #[test]
    fn manager_journal_tracks_long_locks_write_ahead() {
        let mgr: LockManager<String> = LockManager::new();
        let j = Arc::new(J::new());
        assert!(mgr.attach_journal(j.clone()));
        assert!(!mgr.attach_journal(j.clone()), "second attach must be refused");

        mgr.acquire(TxnId(1), "cells/c1".into(), X, LockRequestOptions::long()).unwrap();
        // Short locks never touch the journal.
        mgr.acquire(TxnId(1), "scratch".into(), S, LockRequestOptions::default()).unwrap();
        mgr.acquire(TxnId(2), "cells/c2".into(), S, LockRequestOptions::long()).unwrap();
        // A short-flagged conversion of an already-long lock is still
        // journaled: the surviving mode after a crash must be X, not S.
        mgr.acquire(TxnId(2), "cells/c2".into(), X, LockRequestOptions::default()).unwrap();
        mgr.release(TxnId(1), &"cells/c1".to_string());

        let rec = J::replay(&j.contents()).unwrap();
        assert_eq!(rec.entries, vec![("cells/c2".to_string(), TxnId(2), X)]);
        // The journal's view agrees with a live capture.
        assert_eq!(long_grants(&mgr), rec.entries);
        // release_all journals the long release too.
        mgr.release_all(TxnId(2));
        assert!(J::replay(&j.contents()).unwrap().entries.is_empty());
    }

    #[test]
    fn crashed_journal_fails_the_acquire_and_replay_holds_nothing() {
        for point in [CrashPoint::BeforeAppend, CrashPoint::MidRecord] {
            let mgr: LockManager<String> = LockManager::new();
            let j = Arc::new(J::new());
            mgr.attach_journal(j.clone());
            j.arm(FaultPlan::crash_at(point, 1));
            let err = mgr
                .acquire(TxnId(1), "cells/c1".into(), X, LockRequestOptions::long())
                .unwrap_err();
            assert_eq!(err, LockError::Crashed);
            assert!(j.crashed());
            // Durable before acknowledged: the grant was installed, but the
            // caller was told it failed, and the medium does not hold it.
            assert!(J::replay(&j.contents()).unwrap().entries.is_empty(), "{point:?}");
        }
    }

    #[test]
    fn a_request_journals_its_long_grants_as_one_set_and_eot_as_one_record() {
        let mgr: LockManager<String> = LockManager::new();
        let j = Arc::new(J::new());
        mgr.attach_journal(j.clone());
        let (t1, long) = (TxnId(1), LockRequestOptions::long());
        mgr.acquire(t1, "cells/c0".into(), S, long).unwrap();
        assert_eq!(j.appends(), 1);
        let mut rq = mgr.request(t1);
        let chain: Vec<String> = ["db", "seg", "cells"].map(String::from).to_vec();
        rq.acquire_intent_chain(&chain, IX, long, |_| {}).unwrap();
        rq.acquire("cells/c1".into(), X, long).unwrap();
        // A conversion and a widening of locks the request took itself, and
        // one of an earlier request's lock, all in the same set.
        rq.acquire("cells/c1".into(), S, long).unwrap();
        rq.acquire("db".into(), S, long).unwrap();
        rq.acquire("cells/c0".into(), X, LockRequestOptions::default()).unwrap();
        // A short lock is not staged, and a short request that stages
        // nothing writes nothing.
        rq.acquire("notes".into(), X, LockRequestOptions::default()).unwrap();
        assert_eq!(j.appends(), 1, "nothing is written before the request ends");
        rq.finish().unwrap();
        assert_eq!(j.appends(), 2);
        let text = j.contents();
        let set = text.lines().last().unwrap();
        assert!(set.starts_with("grantset\t1\t"), "{set}");
        assert_eq!(set.split('\t').count(), 3 + 2 * 5, "five locks, each once: {set}");
        assert!(set.contains("\tdb\tSIX\t") && set.contains("\tcells/c0\tX\t"), "{set}");
        let rec = J::replay(&text).unwrap();
        assert_eq!(rec.entries, long_grants(&mgr));
        assert_eq!(rec.records, 2);
        mgr.request(t1).finish().unwrap();
        assert_eq!(j.appends(), 2, "an empty request writes nothing");

        mgr.release_all(t1);
        assert_eq!(j.appends(), 3);
        assert!(j.contents().lines().last().unwrap().starts_with("releaseall\t1\t"));
        assert!(J::replay(&j.contents()).unwrap().entries.is_empty());
        // A transaction without long locks ends without a record.
        mgr.acquire(TxnId(2), "notes".into(), X, LockRequestOptions::default()).unwrap();
        mgr.release_all(TxnId(2));
        assert_eq!(j.appends(), 3);
    }

    #[test]
    fn a_torn_grant_set_drops_whole() {
        let mgr: LockManager<String> = LockManager::new();
        let j = Arc::new(J::new());
        mgr.attach_journal(j.clone());
        mgr.acquire(TxnId(1), "kept".into(), X, LockRequestOptions::long()).unwrap();
        j.arm(FaultPlan::crash_at(CrashPoint::MidRecord, 1));
        let mut rq = mgr.request(TxnId(2));
        for r in ["a", "b", "c", "d"] {
            rq.acquire(r.into(), X, LockRequestOptions::long()).unwrap();
        }
        assert_eq!(rq.finish(), Err(LockError::Crashed));
        let text = j.contents();
        assert!(!text.ends_with('\n'), "the set was torn mid-line");
        assert!(text.lines().last().unwrap().contains("\ta\t"), "the tear kept a prefix");
        let rec = J::replay(&text).unwrap();
        assert_eq!(rec.dropped_tail, 1);
        assert_eq!(rec.entries, vec![("kept".to_string(), TxnId(1), X)], "none of the set");
    }

    #[test]
    fn over_a_v1_medium_the_header_becomes_v2() {
        let (record, _) = encode_line(JournalOp::Grant, |o| o.push('a'), TxnId(1), X);
        let v1 = format!("{JOURNAL_HEADER_V1}{record}\n");
        let j = J::over_medium(Arc::new(Mutex::new(v1.clone())));
        assert_eq!(j.contents(), format!("{JOURNAL_HEADER}{}", &v1[JOURNAL_HEADER_V1.len()..]));
        assert_eq!(J::replay(&v1).unwrap().entries, J::replay(&j.contents()).unwrap().entries);
        j.record_grant_set(TxnId(2), &[("b".to_string(), S)]).unwrap();
        assert_eq!(J::replay(&j.contents()).unwrap().entries.len(), 2);
    }

    #[test]
    fn journal_resource_with_tabs_and_newlines_roundtrips() {
        let j = J::new();
        let nasty = "cells\tc1\nweird\\name".to_string();
        j.record(JournalOp::Grant, TxnId(5), &nasty, SIX).unwrap();
        let rec = J::replay(&j.contents()).unwrap();
        assert_eq!(rec.entries, vec![(nasty, TxnId(5), SIX)]);
    }

    #[test]
    fn mid_compaction_crash_leaves_the_old_text_and_freezes() {
        let j = J::new();
        grant(&j, 1, "a", X).unwrap();
        grant(&j, 2, "b", S).unwrap();
        j.arm(FaultPlan::crash_at(CrashPoint::MidCompaction, 1));
        // A dead record, so the checkpoint would differ from the text.
        j.record(JournalOp::Release, TxnId(2), &"b".to_string(), S).unwrap();
        let before = j.contents();
        let err = j.compact_now().unwrap_err();
        assert_eq!(err.point, CrashPoint::MidCompaction);
        assert_eq!(j.crash_point(), Some(CrashPoint::MidCompaction));
        assert_eq!(j.contents(), before, "the swap never happened");
        assert_eq!(j.checkpoints(), 0);
        assert!(grant(&j, 3, "c", S).is_err(), "frozen");
        assert_eq!(J::replay(&before).unwrap().records, 3);
    }

    #[test]
    fn checkpoint_is_the_header_plus_one_sorted_grant_set_per_owner() {
        let j = J::new();
        grant(&j, 2, "b", S).unwrap();
        grant(&j, 1, "z", IS).unwrap();
        j.record_grant_set(TxnId(1), &[("a".to_string(), X), ("z".to_string(), IX)]).unwrap();
        j.record_grant_set(TxnId(3), &[("c".to_string(), S)]).unwrap();
        j.record(JournalOp::Release, TxnId(2), &"b".to_string(), S).unwrap();
        j.record_release_all(TxnId(3)).unwrap();
        let before = J::replay(&j.contents()).unwrap();
        j.compact_now().unwrap();
        let text = j.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "colock-journal v2");
        // Owners ascending, their locks by field text, at the joined mode.
        assert!(lines[1].starts_with("grantset\t1\ta\tX\tz\tIX\t"), "{text}");
        assert_eq!(lines.len(), 2);
        assert_eq!(text.len(), JOURNAL_HEADER.len() + j.live_bytes());
        assert_eq!(J::replay(&text).unwrap().entries, before.entries);
        // The journal keeps appending after the checkpoint.
        grant(&j, 3, "c", S).unwrap();
        assert_eq!(J::replay(&j.contents()).unwrap().entries.len(), 3);
    }

    #[test]
    fn fold_keeps_the_join_when_a_record_states_less() {
        // Hand-written v1 text whose later records do not restate the join:
        // the checkpoint must still replay to what the text replays to.
        let mut text = concat!("colock-journal v1", "\n").to_string();
        for (op, mode) in [(JournalOp::Grant, X), (JournalOp::Convert, S)] {
            text.push_str(&encode_line(op, |out| out.push('a'), TxnId(1), mode).0);
            text.push('\n');
        }
        for (op, mode) in [(JournalOp::Grant, S), (JournalOp::Grant, IX)] {
            text.push_str(&encode_line(op, |out| out.push('b'), TxnId(1), mode).0);
            text.push('\n');
        }
        let medium = Arc::new(Mutex::new(text.clone()));
        let j = J::over_medium(Arc::clone(&medium));
        j.compact_now().unwrap();
        let replayed = J::replay(&j.contents()).unwrap().entries;
        assert_eq!(replayed, J::replay(&text).unwrap().entries);
        assert_eq!(replayed, vec![("b".to_string(), TxnId(1), SIX), ("a".to_string(), TxnId(1), X)]);
    }

    #[test]
    fn a_grant_set_naming_a_resource_twice_replays_the_join() {
        // Never written by the lock manager, but well-formed: the set joins
        // both modes, kept whole or indexed, and so does its checkpoint.
        let mut line = String::new();
        begin_grant_set(&mut line, TxnId(4));
        for (r, mode) in [('a', S), ('b', IS), ('a', IX)] {
            push_lock(&mut line, |out| out.push(r), mode);
        }
        push_crc(&mut line, 0);
        let text = format!("{JOURNAL_HEADER}{line}\n");
        let want = vec![("b".to_string(), TxnId(4), IS), ("a".to_string(), TxnId(4), SIX)];
        assert_eq!(J::replay(&text).unwrap().entries, want);
        let j = J::over_medium(Arc::new(Mutex::new(text)));
        j.compact_now().unwrap();
        assert_eq!(j.contents().len(), JOURNAL_HEADER.len() + j.live_bytes());
        assert_eq!(J::replay(&j.contents()).unwrap().entries, want);
        assert_eq!(j.live_entries(), want);
    }

    #[test]
    fn fold_keys_resources_by_value_not_spelling() {
        // `007` and `7` are one resource to replay; the index must agree, and
        // a checkpoint must keep the record under the canonical spelling.
        let mut text = JOURNAL_HEADER.to_string();
        for (op, spelling) in [(JournalOp::Grant, "007"), (JournalOp::Grant, "9")] {
            text.push_str(&encode_line(op, |out| out.push_str(spelling), TxnId(1), X).0);
            text.push('\n');
        }
        text.push_str(&encode_line(JournalOp::Release, |out| out.push('7'), TxnId(1), X).0);
        text.push('\n');
        let j: Journal<u64> = Journal::over_medium(Arc::new(Mutex::new(text.clone())));
        assert_eq!(Journal::<u64>::replay(&text).unwrap().entries, vec![(9, TxnId(1), X)]);
        assert_eq!(j.live_entries(), vec![(9, TxnId(1), X)]);
        j.compact_now().unwrap();
        assert_eq!(Journal::<u64>::replay(&j.contents()).unwrap().entries, vec![(9, TxnId(1), X)]);
    }

    #[test]
    fn live_bytes_track_joins_releases_and_release_alls() {
        // After every record, a checkpoint written now is exactly the header
        // plus the live bytes.
        let j = J::new();
        let check = |j: &J| {
            let live = j.live_bytes();
            j.compact_now().unwrap();
            assert_eq!(j.contents().len(), JOURNAL_HEADER.len() + live, "{}", j.contents());
        };
        j.record_grant_set(TxnId(7), &[("a".to_string(), IS), ("b\tc".to_string(), S)]).unwrap();
        check(&j);
        j.record(JournalOp::Convert, TxnId(7), &"a".to_string(), SIX).unwrap();
        check(&j);
        grant(&j, 1_000_000, "a", X).unwrap();
        check(&j);
        j.record(JournalOp::Release, TxnId(7), &"a".to_string(), SIX).unwrap();
        check(&j);
        j.record_release_all(TxnId(7)).unwrap();
        check(&j);
        j.record(JournalOp::Release, TxnId(1_000_000), &"a".to_string(), X).unwrap();
        assert_eq!(j.live_bytes(), 0);
        check(&j);
    }

    #[test]
    fn over_medium_seeds_the_index_and_never_compacts_a_refused_medium() {
        let old = J::new();
        grant(&old, 1, "kept", X).unwrap();
        grant(&old, 2, "gone", S).unwrap();
        old.record(JournalOp::Release, TxnId(2), &"gone".to_string(), S).unwrap();
        let j = J::over_medium(old.medium());
        j.compact_now().unwrap();
        assert_eq!(
            J::replay(&j.contents()).unwrap().entries,
            vec![("kept".to_string(), TxnId(1), X)],
            "a checkpoint keeps the previous incarnation's surviving locks"
        );

        // Damage followed by a valid record: replay refuses, so no
        // checkpoint may ever replace the text, however long it grows.
        let mut corrupt = old.contents();
        corrupt.insert_str(JOURNAL_HEADER.len(), "garbage\tdeadbeef\n");
        let j = J::over_medium(Arc::new(Mutex::new(corrupt.clone())));
        for i in 0..2_000 {
            grant(&j, 9, &format!("r{i}"), S).unwrap();
        }
        assert!(j.contents().starts_with(&corrupt));
        assert_eq!(j.checkpoints(), 0);
    }

    #[test]
    fn long_request_over_a_covering_short_grant_widens_and_journals_it() {
        for fast in [true, false] {
            let mgr: LockManager<String> = LockManager::new();
            mgr.set_fastpath(fast);
            let j = Arc::new(J::new());
            mgr.attach_journal(j.clone());
            let t1 = TxnId(1);
            // Short grants: an intent (optimistic with the fast path on) and an S.
            mgr.acquire(t1, "db".into(), IX, LockRequestOptions::default()).unwrap();
            mgr.acquire(t1, "cells/c1".into(), S, LockRequestOptions::default()).unwrap();
            assert_eq!(j.appends(), 0);
            // Long requests they cover: still AlreadyHeld, but now long and
            // journaled before acknowledged — once each.
            for (r, m) in [("db", IS), ("db", IX), ("cells/c1", S), ("cells/c1", IS)] {
                let out = mgr.acquire(t1, r.into(), m, LockRequestOptions::long()).unwrap();
                assert_eq!(out, AcquireOutcome::AlreadyHeld, "fast={fast} {r} {m}");
            }
            assert_eq!(j.appends(), 2, "fast={fast}");
            assert!(mgr.locks_of(t1).iter().all(|l| l.2), "fast={fast}: all widened");
            let rec = J::replay(&j.contents()).unwrap();
            assert_eq!(rec.entries.len(), 2);
            assert_eq!(rec.entries, long_grants(&mgr));
            // Widened grants survive the end of the session.
            assert_eq!(mgr.release_short(t1), 0);
            assert_eq!(mgr.held_mode(t1, &"db".to_string()), IX);
            // …and still exclude: the long IX blocks another owner's S.
            let err = mgr.acquire(TxnId(2), "db".into(), S, LockRequestOptions::try_lock());
            assert!(matches!(err, Err(LockError::WouldBlock { .. })), "fast={fast}");
            mgr.check_summary_consistency().unwrap();
            assert_eq!(mgr.release_all(t1), 2);
            assert!(J::replay(&j.contents()).unwrap().entries.is_empty());
            assert_eq!(mgr.table_size(), 0);
            mgr.check_summary_consistency().unwrap();
        }
    }

    #[test]
    fn hundred_thousand_cycles_stay_within_the_bound() {
        let j = J::new();
        let mut held: [Option<String>; 4] = Default::default();
        let medium = j.medium();
        for i in 0..100_000u64 {
            let owner = i % 4;
            if let Some(r) = held[owner as usize].take() {
                j.record(JournalOp::Release, TxnId(owner + 1), &r, X).unwrap();
            }
            let r = format!("cells/c{i}");
            j.record(JournalOp::Grant, TxnId(owner + 1), &r, X).unwrap();
            held[owner as usize] = Some(r);
            let len = medium.lock().unwrap().len();
            assert!(len <= CHECKPOINT_FLOOR + 2 * j.live_bytes(), "cycle {i}: {len} bytes");
        }
        // ≈ 6.5 MB of records went through a medium that never held 66 KB.
        assert!(j.checkpoints() >= 90, "{} checkpoints", j.checkpoints());
        assert!(j.bytes_appended() > 90 * CHECKPOINT_FLOOR as u64);
        assert_eq!(J::replay(&j.contents()).unwrap().entries, j.live_entries());
        assert_eq!(j.live_entries().len(), 4);
    }

    #[derive(Debug, Clone)]
    enum Step {
        Acquire { txn: u64, resource: usize, mode: LockMode, long: bool },
        /// Several acquires through one request (one grant set).
        Request { txn: u64, locks: Vec<(usize, LockMode)>, long: bool },
        Release { txn: u64, resource: usize },
        ReleaseAll { txn: u64 },
        ReleaseShort { txn: u64 },
        Compact,
    }

    no_shrink!(Step);

    const RESOURCES: [&str; 4] = ["db", "cells/c1", "lib/e\t2", "cells/c2"];

    fn step(rng: &mut Rng) -> Step {
        let txn = rng.gen_range(1u64..4);
        let resource = rng.gen_range(0..RESOURCES.len());
        let mode = |rng: &mut Rng| *rng.choose(&LockMode::ALL).unwrap();
        match pick_weighted(rng, &[8, 3, 3, 1, 1, 1]) {
            0 => Step::Acquire { txn, resource, mode: mode(rng), long: rng.gen_bool(0.6) },
            1 => Step::Request {
                txn,
                locks: vec_of(rng, 1..5, |rng| (rng.gen_range(0..RESOURCES.len()), mode(rng))),
                long: rng.gen_bool(0.6),
            },
            2 => Step::Release { txn, resource },
            3 => Step::ReleaseAll { txn },
            4 => Step::ReleaseShort { txn },
            _ => Step::Compact,
        }
    }

    /// At every step of a random stream the journal text, the live index and
    /// the manager's long grants agree, and every checkpoint replays to what
    /// the text it replaced replayed to.
    #[test]
    fn index_text_and_manager_agree_through_random_checkpoints() {
        forall!(cases: 128, |rng| (rng.gen_bool(0.5), vec_of(rng, 1..80, step)),
            |(fast, steps): &(bool, Vec<Step>)| {
            let mgr: LockManager<String> = LockManager::new();
            mgr.set_fastpath(*fast);
            let j = Arc::new(J::new());
            mgr.attach_journal(j.clone());
            for (i, s) in steps.iter().enumerate() {
                match *s {
                    Step::Acquire { txn, resource, mode, long } => {
                        let opts = LockRequestOptions { long, ..LockRequestOptions::try_lock() };
                        match mgr.acquire(TxnId(txn), RESOURCES[resource].into(), mode, opts) {
                            Ok(_) | Err(LockError::WouldBlock { .. }) => {}
                            Err(e) => ensure!(false, "step {i}: unexpected {e}"),
                        }
                    }
                    Step::Request { txn, ref locks, long } => {
                        let mut rq = mgr.request(TxnId(txn));
                        let opts = LockRequestOptions { long, ..LockRequestOptions::try_lock() };
                        for &(resource, mode) in locks {
                            match rq.acquire(RESOURCES[resource].into(), mode, opts) {
                                Ok(_) | Err(LockError::WouldBlock { .. }) => {}
                                Err(e) => ensure!(false, "step {i}: unexpected {e}"),
                            }
                        }
                        rq.finish().map_err(|e| format!("step {i}: {e}"))?;
                    }
                    Step::Release { txn, resource } => {
                        mgr.release(TxnId(txn), &RESOURCES[resource].to_string());
                    }
                    Step::ReleaseAll { txn } => {
                        mgr.release_all(TxnId(txn));
                    }
                    Step::ReleaseShort { txn } => {
                        mgr.release_short(TxnId(txn));
                    }
                    Step::Compact => {
                        let old = j.contents();
                        j.compact_now().unwrap();
                        let new = j.contents();
                        ensure_eq!(
                            J::replay(&old).unwrap().entries,
                            J::replay(&new).unwrap().entries,
                            "step {i}: checkpoint changed the replayed set"
                        );
                        ensure_eq!(new.len(), JOURNAL_HEADER.len() + j.live_bytes());
                    }
                }
                let text = j.contents();
                let replayed = J::replay(&text).map_err(|e| format!("step {i}: {e}"))?.entries;
                ensure_eq!(replayed, j.live_entries(), "step {i}: text vs live index");
                ensure_eq!(
                    replayed,
                    long_grants(&mgr),
                    "step {i}: text vs the manager's long grants"
                );
                ensure!(text.len() <= CHECKPOINT_FLOOR + 2 * j.live_bytes());
            }
            Ok(())
        });
    }
}
