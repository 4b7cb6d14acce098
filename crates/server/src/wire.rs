//! Typed requests, responses, error codes and the text codecs for lock
//! targets and NF² values (PROTOCOL.md §3–§5).
//!
//! A frame payload is one `colock-testkit` codec record: tab-separated,
//! backslash-escaped fields. The first field of a request is the verb; of a
//! response, `OK`, `ERR`, `EVENT`, `STAT` or `END`. Targets and values have
//! their own single-field text syntaxes (percent-escaped, so they survive
//! the record codec untouched) defined in [`encode_target`] /
//! [`parse_target`] and [`encode_value`] / [`parse_value`].

use colock_core::protocol::ProtocolError;
use colock_core::{AccessMode, InstanceTarget};
use colock_lockmgr::{LockError, TxnId};
use colock_nf2::value::build;
use colock_nf2::{ObjectKey, Value};
use colock_storage::StorageError;
use colock_testkit::codec::{decode_record, encode_record};
use colock_txn::TxnError;
use std::fmt;

/// Protocol version spoken by this build; `HELLO` carries the client's and
/// the server refuses mismatches (PROTOCOL.md §7).
pub const PROTOCOL_VERSION: u32 = 1;

/// Wire-level parse failure (distinct from [`crate::frame::FrameError`]:
/// the frame was intact, its contents were not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The record could not be decoded (bad escapes).
    BadRecord(String),
    /// Unknown verb or response head.
    BadCommand(String),
    /// A verb got the wrong argument count or a malformed argument.
    BadArg {
        /// The verb.
        verb: String,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadRecord(s) => write!(f, "undecodable record: {s}"),
            WireError::BadCommand(v) => write!(f, "unknown command {v:?}"),
            WireError::BadArg { verb, reason } => write!(f, "bad argument to {verb}: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

fn bad_arg(verb: &str, reason: impl Into<String>) -> WireError {
    WireError::BadArg { verb: verb.to_string(), reason: reason.into() }
}

/// Session role announced at `HELLO`; decides the rule 4′ rights granted to
/// every transaction the session begins (PROTOCOL.md §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// May read everything, update nothing.
    Reader,
    /// May update cells; the effectors library stays read-only (the paper's
    /// standard environment — rule 4′ weakens entry-point locks on it).
    #[default]
    Engineer,
    /// May also update the effectors library (rule 4′ ≡ rule 4 for it).
    Librarian,
}

impl Role {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Reader => "reader",
            Role::Engineer => "engineer",
            Role::Librarian => "librarian",
        }
    }

    /// Inverse of [`Role::as_str`].
    pub fn parse(s: &str) -> Option<Role> {
        Some(match s {
            "reader" => Role::Reader,
            "engineer" => Role::Engineer,
            "librarian" => Role::Librarian,
            _ => return None,
        })
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Transaction kind requested by `BEGIN` (PROTOCOL.md §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BeginKind {
    /// Conventional short transaction.
    #[default]
    Short,
    /// Long (conversational) transaction: its explicit locks are durable
    /// long locks and survive a server crash.
    Long,
    /// Read-only snapshot transaction (multiversion overlay).
    ReadOnly,
}

/// One client request (PROTOCOL.md §3 lists each with examples).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `HELLO <name> <version> [role]` — first frame on every connection.
    Hello {
        /// Client-chosen display name (shows up in session traces).
        name: String,
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Announced role.
        role: Role,
    },
    /// `BEGIN [LONG|READONLY]`.
    Begin {
        /// Requested kind.
        kind: BeginKind,
    },
    /// `GET <target>` — read the subvalue at a lock target.
    Get {
        /// The target.
        target: InstanceTarget,
    },
    /// `PUT <target> <value>` — update the subvalue (or insert a fresh
    /// complex object when the target names only a relation).
    Put {
        /// The target.
        target: InstanceTarget,
        /// New value.
        value: Value,
    },
    /// `DEL <target>` — delete a complex object or one set/list element.
    Del {
        /// The target.
        target: InstanceTarget,
    },
    /// `CHECKOUT <target> [READ|UPDATE]` — long lock + private copy.
    Checkout {
        /// The target.
        target: InstanceTarget,
        /// Check-out access (default `UPDATE`).
        access: AccessMode,
    },
    /// `CHECKIN <target> <value>` — write the modified copy back.
    Checkin {
        /// The target (must have been checked out).
        target: InstanceTarget,
        /// Modified value.
        value: Value,
    },
    /// `COMMIT`.
    Commit,
    /// `ABORT`.
    Abort,
    /// `RESUME <txnid>` — re-attach to a long transaction that survived a
    /// disconnect or a server crash (after §3.1 recovery re-adopted it).
    Resume {
        /// The transaction to re-attach.
        txn: TxnId,
    },
    /// `EXPLAIN` — stream the rendered lock timeline of this session's
    /// transactions since the session opened.
    Explain,
    /// `TRACE` — stream raw trace-event lines since the session opened.
    Trace,
    /// `STATS` — stream server and lock-manager counters.
    Stats,
    /// `QUIT` — close the session cleanly.
    Quit,
}

impl Request {
    /// Encodes to one record payload (frame it with
    /// [`crate::frame::encode_frame`]).
    pub fn encode(&self) -> String {
        let fields: Vec<String> = match self {
            Request::Hello { name, version, role } => {
                vec!["HELLO".into(), name.clone(), version.to_string(), role.to_string()]
            }
            Request::Begin { kind } => match kind {
                BeginKind::Short => vec!["BEGIN".into()],
                BeginKind::Long => vec!["BEGIN".into(), "LONG".into()],
                BeginKind::ReadOnly => vec!["BEGIN".into(), "READONLY".into()],
            },
            Request::Get { target } => vec!["GET".into(), encode_target(target)],
            Request::Put { target, value } => {
                vec!["PUT".into(), encode_target(target), encode_value(value)]
            }
            Request::Del { target } => vec!["DEL".into(), encode_target(target)],
            Request::Checkout { target, access } => vec![
                "CHECKOUT".into(),
                encode_target(target),
                match access {
                    AccessMode::Read => "READ".into(),
                    AccessMode::Update => "UPDATE".into(),
                },
            ],
            Request::Checkin { target, value } => {
                vec!["CHECKIN".into(), encode_target(target), encode_value(value)]
            }
            Request::Commit => vec!["COMMIT".into()],
            Request::Abort => vec!["ABORT".into()],
            Request::Resume { txn } => vec!["RESUME".into(), txn.0.to_string()],
            Request::Explain => vec!["EXPLAIN".into()],
            Request::Trace => vec!["TRACE".into()],
            Request::Stats => vec!["STATS".into()],
            Request::Quit => vec!["QUIT".into()],
        };
        encode_record(&fields)
    }

    /// Parses one record payload.
    pub fn parse(payload: &str) -> Result<Request, WireError> {
        let fields =
            decode_record(payload).map_err(|e| WireError::BadRecord(e.to_string()))?;
        let verb = fields.first().map(String::as_str).unwrap_or("");
        let args = &fields[1.min(fields.len())..];
        let arity = |want: &[usize]| -> Result<(), WireError> {
            if want.contains(&args.len()) {
                Ok(())
            } else {
                Err(bad_arg(verb, format!("got {} argument(s)", args.len())))
            }
        };
        match verb {
            "HELLO" => {
                arity(&[2, 3])?;
                let version = args[1]
                    .parse::<u32>()
                    .map_err(|_| bad_arg(verb, format!("bad version {:?}", args[1])))?;
                let role = match args.get(2) {
                    None => Role::default(),
                    Some(r) => Role::parse(r)
                        .ok_or_else(|| bad_arg(verb, format!("unknown role {r:?}")))?,
                };
                Ok(Request::Hello { name: args[0].clone(), version, role })
            }
            "BEGIN" => {
                arity(&[0, 1])?;
                let kind = match args.first().map(String::as_str) {
                    None => BeginKind::Short,
                    Some("LONG") => BeginKind::Long,
                    Some("READONLY") => BeginKind::ReadOnly,
                    Some(other) => return Err(bad_arg(verb, format!("unknown kind {other:?}"))),
                };
                Ok(Request::Begin { kind })
            }
            "GET" => {
                arity(&[1])?;
                Ok(Request::Get { target: parse_target(&args[0])? })
            }
            "PUT" => {
                arity(&[2])?;
                Ok(Request::Put { target: parse_target(&args[0])?, value: parse_value(&args[1])? })
            }
            "DEL" => {
                arity(&[1])?;
                Ok(Request::Del { target: parse_target(&args[0])? })
            }
            "CHECKOUT" => {
                arity(&[1, 2])?;
                let access = match args.get(1).map(String::as_str) {
                    None | Some("UPDATE") => AccessMode::Update,
                    Some("READ") => AccessMode::Read,
                    Some(other) => return Err(bad_arg(verb, format!("unknown access {other:?}"))),
                };
                Ok(Request::Checkout { target: parse_target(&args[0])?, access })
            }
            "CHECKIN" => {
                arity(&[2])?;
                Ok(Request::Checkin {
                    target: parse_target(&args[0])?,
                    value: parse_value(&args[1])?,
                })
            }
            "COMMIT" => arity(&[0]).map(|_| Request::Commit),
            "ABORT" => arity(&[0]).map(|_| Request::Abort),
            "RESUME" => {
                arity(&[1])?;
                let id = args[0]
                    .trim_start_matches('T')
                    .parse::<u64>()
                    .map_err(|_| bad_arg(verb, format!("bad txn id {:?}", args[0])))?;
                Ok(Request::Resume { txn: TxnId(id) })
            }
            "EXPLAIN" => arity(&[0]).map(|_| Request::Explain),
            "TRACE" => arity(&[0]).map(|_| Request::Trace),
            "STATS" => arity(&[0]).map(|_| Request::Stats),
            "QUIT" => arity(&[0]).map(|_| Request::Quit),
            other => Err(WireError::BadCommand(other.to_string())),
        }
    }
}

/// Machine-readable error class carried by every `ERR` response
/// (PROTOCOL.md §6 tabulates each with its source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unframeable or undecodable request.
    BadFrame,
    /// Unknown verb, or a verb illegal in the current session state.
    BadCommand,
    /// Malformed argument (target/value syntax, arity).
    BadArg,
    /// Frame exceeded [`crate::frame::FRAME_MAX`].
    Oversized,
    /// Protocol version mismatch at `HELLO`.
    VersionMismatch,
    /// Session table full — retry against another server.
    SessionLimit,
    /// Admission control refused `BEGIN`; retry after the hinted backoff.
    Busy,
    /// Server is draining; no new work.
    ShuttingDown,
    /// Session closed after exceeding the idle timeout.
    IdleTimeout,
    /// No transaction open (data verb outside `BEGIN`…`COMMIT`).
    NoTxn,
    /// A transaction is already open on this session.
    TxnOpen,
    /// Target does not exist.
    NotFound,
    /// Target or value does not fit the schema.
    BadTarget,
    /// The session's role forbids the access (rule 4′ rights check).
    Unauthorized,
    /// Non-blocking request would have waited.
    WouldBlock,
    /// This transaction was chosen as deadlock victim; it has been aborted.
    Deadlock,
    /// Lock wait exceeded the server's per-request budget.
    LockTimeout,
    /// Transaction was victimized earlier and must abort.
    Victim,
    /// The long-lock journal crashed; grant unacknowledged.
    Crashed,
    /// Lock manager is draining for shutdown.
    Draining,
    /// Transaction not active (committed, aborted, or never begun).
    NotActive,
    /// Lock request after release (strict 2PL violation).
    TwoPhase,
    /// `CHECKIN` of a target that was never checked out.
    NotCheckedOut,
    /// Write or lock on a read-only snapshot transaction.
    ReadOnly,
    /// `RESUME` of an id the manager does not know.
    UnknownTxn,
    /// Journal replay failed during recovery.
    Recovery,
    /// Internal error (storage invariant broke mid-request).
    Internal,
}

impl ErrorCode {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "BAD_FRAME",
            ErrorCode::BadCommand => "BAD_COMMAND",
            ErrorCode::BadArg => "BAD_ARG",
            ErrorCode::Oversized => "OVERSIZED",
            ErrorCode::VersionMismatch => "VERSION_MISMATCH",
            ErrorCode::SessionLimit => "SESSION_LIMIT",
            ErrorCode::Busy => "BUSY",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::IdleTimeout => "IDLE_TIMEOUT",
            ErrorCode::NoTxn => "NO_TXN",
            ErrorCode::TxnOpen => "TXN_OPEN",
            ErrorCode::NotFound => "NOT_FOUND",
            ErrorCode::BadTarget => "BAD_TARGET",
            ErrorCode::Unauthorized => "UNAUTHORIZED",
            ErrorCode::WouldBlock => "WOULD_BLOCK",
            ErrorCode::Deadlock => "DEADLOCK",
            ErrorCode::LockTimeout => "LOCK_TIMEOUT",
            ErrorCode::Victim => "VICTIM",
            ErrorCode::Crashed => "CRASHED",
            ErrorCode::Draining => "DRAINING",
            ErrorCode::NotActive => "NOT_ACTIVE",
            ErrorCode::TwoPhase => "TWO_PHASE",
            ErrorCode::NotCheckedOut => "NOT_CHECKED_OUT",
            ErrorCode::ReadOnly => "READ_ONLY",
            ErrorCode::UnknownTxn => "UNKNOWN_TXN",
            ErrorCode::Recovery => "RECOVERY",
            ErrorCode::Internal => "INTERNAL",
        }
    }

    /// Inverse of [`ErrorCode::as_str`].
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ALL_ERROR_CODES.iter().copied().find(|c| c.as_str() == s)
    }

    /// Whether the client may retry the whole transaction (transient
    /// contention rather than a caller bug).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Busy
                | ErrorCode::WouldBlock
                | ErrorCode::Deadlock
                | ErrorCode::LockTimeout
                | ErrorCode::Victim
        )
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Every error code (PROTOCOL.md §6 must list exactly these).
pub const ALL_ERROR_CODES: &[ErrorCode] = &[
    ErrorCode::BadFrame,
    ErrorCode::BadCommand,
    ErrorCode::BadArg,
    ErrorCode::Oversized,
    ErrorCode::VersionMismatch,
    ErrorCode::SessionLimit,
    ErrorCode::Busy,
    ErrorCode::ShuttingDown,
    ErrorCode::IdleTimeout,
    ErrorCode::NoTxn,
    ErrorCode::TxnOpen,
    ErrorCode::NotFound,
    ErrorCode::BadTarget,
    ErrorCode::Unauthorized,
    ErrorCode::WouldBlock,
    ErrorCode::Deadlock,
    ErrorCode::LockTimeout,
    ErrorCode::Victim,
    ErrorCode::Crashed,
    ErrorCode::Draining,
    ErrorCode::NotActive,
    ErrorCode::TwoPhase,
    ErrorCode::NotCheckedOut,
    ErrorCode::ReadOnly,
    ErrorCode::UnknownTxn,
    ErrorCode::Recovery,
    ErrorCode::Internal,
];

/// Maps a transaction-layer error onto its wire code and message.
pub fn map_txn_error(e: &TxnError) -> (ErrorCode, String) {
    let code = match e {
        TxnError::Protocol(ProtocolError::Lock(l)) => match l {
            LockError::WouldBlock { .. } => ErrorCode::WouldBlock,
            LockError::Deadlock { .. } => ErrorCode::Deadlock,
            LockError::Timeout => ErrorCode::LockTimeout,
            LockError::VictimPending(_) => ErrorCode::Victim,
            LockError::UnknownTxn(_) => ErrorCode::UnknownTxn,
            LockError::Crashed => ErrorCode::Crashed,
            LockError::Draining => ErrorCode::Draining,
        },
        TxnError::Protocol(ProtocolError::UnknownRelation(_)) => ErrorCode::BadTarget,
        TxnError::Protocol(ProtocolError::Unauthorized { .. }) => ErrorCode::Unauthorized,
        TxnError::Storage(s) => match s {
            StorageError::UnknownRelation(_) | StorageError::UnknownObject { .. } => {
                ErrorCode::NotFound
            }
            _ => ErrorCode::BadTarget,
        },
        TxnError::NotActive(_) => ErrorCode::NotActive,
        TxnError::TwoPhaseViolation(_) => ErrorCode::TwoPhase,
        TxnError::NotCheckedOut(_) => ErrorCode::NotCheckedOut,
        TxnError::Recovery(_) => ErrorCode::Recovery,
        TxnError::ReadOnlyTxn(_) => ErrorCode::ReadOnly,
    };
    (code, e.to_string())
}

/// One server response (PROTOCOL.md §4). `EVENT`/`STAT` frames stream ahead
/// of a closing `END`; everything else is a single frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the fields depend on the verb (txn id, value, …).
    Ok(Vec<String>),
    /// Failure.
    Err {
        /// Error class.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
        /// Suggested client backoff (admission control only).
        backoff_ms: Option<u64>,
    },
    /// One streamed trace line (`TRACE`) or timeline line (`EXPLAIN`).
    Event(String),
    /// One streamed counter (`STATS`).
    Stat {
        /// Counter name.
        name: String,
        /// Counter value.
        value: String,
    },
    /// End of a stream; counts the `EVENT`/`STAT` frames that preceded it.
    End(u64),
}

impl Response {
    /// Shorthand for a field-less success.
    pub fn ok0() -> Response {
        Response::Ok(Vec::new())
    }

    /// Shorthand for an error without backoff hint.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Err { code, message: message.into(), backoff_ms: None }
    }

    /// Encodes to one record payload.
    pub fn encode(&self) -> String {
        let fields: Vec<String> = match self {
            Response::Ok(fs) => {
                let mut v = vec!["OK".to_string()];
                v.extend(fs.iter().cloned());
                v
            }
            Response::Err { code, message, backoff_ms } => {
                let mut v = vec!["ERR".to_string(), code.to_string(), message.clone()];
                if let Some(ms) = backoff_ms {
                    v.push(ms.to_string());
                }
                v
            }
            Response::Event(line) => vec!["EVENT".to_string(), line.clone()],
            Response::Stat { name, value } => {
                vec!["STAT".to_string(), name.clone(), value.clone()]
            }
            Response::End(n) => vec!["END".to_string(), n.to_string()],
        };
        encode_record(&fields)
    }

    /// Parses one record payload.
    pub fn parse(payload: &str) -> Result<Response, WireError> {
        let fields =
            decode_record(payload).map_err(|e| WireError::BadRecord(e.to_string()))?;
        let head = fields.first().map(String::as_str).unwrap_or("");
        match head {
            "OK" => Ok(Response::Ok(fields[1..].to_vec())),
            "ERR" => {
                if fields.len() < 3 || fields.len() > 4 {
                    return Err(bad_arg("ERR", format!("got {} field(s)", fields.len())));
                }
                let code = ErrorCode::parse(&fields[1])
                    .ok_or_else(|| bad_arg("ERR", format!("unknown code {:?}", fields[1])))?;
                let backoff_ms = match fields.get(3) {
                    None => None,
                    Some(ms) => Some(
                        ms.parse::<u64>()
                            .map_err(|_| bad_arg("ERR", format!("bad backoff {ms:?}")))?,
                    ),
                };
                Ok(Response::Err { code, message: fields[2].clone(), backoff_ms })
            }
            "EVENT" => {
                if fields.len() != 2 {
                    return Err(bad_arg("EVENT", format!("got {} field(s)", fields.len())));
                }
                Ok(Response::Event(fields[1].clone()))
            }
            "STAT" => {
                if fields.len() != 3 {
                    return Err(bad_arg("STAT", format!("got {} field(s)", fields.len())));
                }
                Ok(Response::Stat { name: fields[1].clone(), value: fields[2].clone() })
            }
            "END" => {
                if fields.len() != 2 {
                    return Err(bad_arg("END", format!("got {} field(s)", fields.len())));
                }
                let n = fields[1]
                    .parse::<u64>()
                    .map_err(|_| bad_arg("END", format!("bad count {:?}", fields[1])))?;
                Ok(Response::End(n))
            }
            other => Err(WireError::BadCommand(other.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// Target codec (PROTOCOL.md §5.1)
// ---------------------------------------------------------------------------

/// Percent-escapes the characters that delimit target and value syntax.
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => out.push_str("%25"),
            '/' => out.push_str("%2F"),
            ':' => out.push_str("%3A"),
            ',' => out.push_str("%2C"),
            '(' => out.push_str("%28"),
            ')' => out.push_str("%29"),
            '{' => out.push_str("%7B"),
            '}' => out.push_str("%7D"),
            '[' => out.push_str("%5B"),
            ']' => out.push_str("%5D"),
            '=' => out.push_str("%3D"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_name`]. Each `%XX` is one byte, so a run of escapes
/// decodes as UTF-8 (`caf%C3%A9` is `café`); bytes that are not UTF-8 are a
/// `BadArg`. `XX` is exactly two ASCII hex digits: no sign, and no
/// multi-byte character.
fn unescape_name(text: &str) -> Result<String, WireError> {
    let bad = |reason: String| WireError::BadArg { verb: "target".into(), reason };
    let hex = |b: u8| char::from(b).to_digit(16);
    let mut out = Vec::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'%' {
            out.push(bytes[i]);
            i += 1;
            continue;
        }
        let escape = bytes
            .get(i + 1..i + 3)
            .ok_or_else(|| bad(format!("dangling percent escape in {text:?}")))?;
        let (Some(high), Some(low)) = (hex(escape[0]), hex(escape[1])) else {
            let escape = String::from_utf8_lossy(escape);
            return Err(bad(format!("bad percent escape %{escape} in {text:?}")));
        };
        out.push((high * 16 + low) as u8);
        i += 3;
    }
    String::from_utf8(out).map_err(|_| bad(format!("percent escapes in {text:?} are not UTF-8")))
}

fn encode_key(tag: &str, key: &ObjectKey) -> String {
    match key {
        ObjectKey::Str(s) => format!("{tag}:{}", escape_name(s)),
        ObjectKey::Int(i) => format!("{tag}#{i}"),
    }
}

fn parse_key(tag: &str, step: &str) -> Result<Option<ObjectKey>, WireError> {
    if let Some(rest) = step.strip_prefix(&format!("{tag}#")) {
        let i = rest.parse::<i64>().map_err(|_| WireError::BadArg {
            verb: "target".into(),
            reason: format!("bad integer key {rest:?}"),
        })?;
        return Ok(Some(ObjectKey::Int(i)));
    }
    if let Some(rest) = step.strip_prefix(&format!("{tag}:")) {
        return Ok(Some(ObjectKey::Str(unescape_name(rest)?)));
    }
    Ok(None)
}

/// Encodes an [`InstanceTarget`] in the tagged-step syntax the persisted
/// `ResourcePath` codec uses, relation-rooted:
/// `rel:cells/obj:c1/attr:robots/elem:r1`. Integer keys swap `:` for `#`
/// (`obj#7`); names are percent-escaped.
///
/// ```
/// use colock_core::InstanceTarget;
/// let t = InstanceTarget::object("cells", "c1").elem("robots", "r1");
/// assert_eq!(colock_server::wire::encode_target(&t), "rel:cells/obj:c1/attr:robots/elem:r1");
/// ```
pub fn encode_target(t: &InstanceTarget) -> String {
    let mut out = format!("rel:{}", escape_name(&t.relation));
    if let Some(k) = &t.object {
        out.push('/');
        out.push_str(&encode_key("obj", k));
        for s in &t.steps {
            out.push_str(&format!("/attr:{}", escape_name(&s.attr)));
            if let Some(e) = &s.elem {
                out.push('/');
                out.push_str(&encode_key("elem", e));
            }
        }
    }
    out
}

/// Parses the [`encode_target`] syntax. Leading `db:`/`seg:` steps are
/// accepted and ignored (the engine re-derives placement from the catalog),
/// so a path printed by the trace layer can be pasted back as a target.
pub fn parse_target(text: &str) -> Result<InstanceTarget, WireError> {
    let bad = |reason: String| WireError::BadArg { verb: "target".into(), reason };
    let mut relation: Option<String> = None;
    let mut object: Option<ObjectKey> = None;
    let mut steps: Vec<colock_core::TargetStep> = Vec::new();
    let mut pending_attr: Option<String> = None;

    for seg in text.split('/') {
        if seg.starts_with("db:") || seg.starts_with("seg:") {
            if relation.is_some() {
                return Err(bad(format!("misplaced placement step {seg:?}")));
            }
            continue;
        }
        if let Some(rest) = seg.strip_prefix("rel:") {
            if relation.is_some() {
                return Err(bad(format!("second relation step {seg:?}")));
            }
            relation = Some(unescape_name(rest)?);
            continue;
        }
        if relation.is_none() {
            return Err(bad(format!("target must start with rel: (got {seg:?})")));
        }
        if let Some(k) = parse_key("obj", seg)? {
            if object.is_some() || !steps.is_empty() || pending_attr.is_some() {
                return Err(bad(format!("misplaced object step {seg:?}")));
            }
            object = Some(k);
            continue;
        }
        if let Some(rest) = seg.strip_prefix("attr:") {
            if object.is_none() {
                return Err(bad(format!("attribute step {seg:?} before any object step")));
            }
            if let Some(a) = pending_attr.take() {
                steps.push(colock_core::TargetStep::attr(a));
            }
            pending_attr = Some(unescape_name(rest)?);
            continue;
        }
        if let Some(k) = parse_key("elem", seg)? {
            let attr = pending_attr
                .take()
                .ok_or_else(|| bad(format!("element step {seg:?} without attribute")))?;
            steps.push(colock_core::TargetStep { attr, elem: Some(k) });
            continue;
        }
        return Err(bad(format!("unknown step {seg:?}")));
    }
    if let Some(a) = pending_attr.take() {
        steps.push(colock_core::TargetStep::attr(a));
    }
    let relation = relation.ok_or_else(|| bad("empty target".into()))?;
    Ok(InstanceTarget { relation, object, steps })
}

// ---------------------------------------------------------------------------
// Value codec (PROTOCOL.md §5.2)
// ---------------------------------------------------------------------------

/// Encodes an NF² [`Value`] as a single field of tagged text:
/// atoms `s:`/`i:`/`r:`/`b:`, references `ref:rel:s:key` (or `ref:rel:i:7`),
/// `{a,b}` sets, `[a,b]` lists, `(name=value,...)` tuples. Strings and names
/// are percent-escaped, so the syntax characters never collide with data.
///
/// ```
/// use colock_nf2::Value;
/// use colock_nf2::value::build::tup;
/// let v = tup(vec![("tool", Value::str("gripper"))]);
/// assert_eq!(colock_server::wire::encode_value(&v), "(tool=s:gripper)");
/// ```
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("s:{}", escape_name(s)),
        Value::Int(i) => format!("i:{i}"),
        Value::Real(r) => format!("r:{r}"),
        Value::Bool(b) => format!("b:{b}"),
        Value::Ref(r) => {
            let key = match &r.key {
                ObjectKey::Str(s) => format!("s:{}", escape_name(s)),
                ObjectKey::Int(i) => format!("i:{i}"),
            };
            format!("ref:{}:{key}", escape_name(&r.relation))
        }
        Value::Set(es) => {
            format!("{{{}}}", es.iter().map(encode_value).collect::<Vec<_>>().join(","))
        }
        Value::List(es) => {
            format!("[{}]", es.iter().map(encode_value).collect::<Vec<_>>().join(","))
        }
        Value::Tuple(fs) => format!(
            "({})",
            fs.iter()
                .map(|(n, v)| format!("{}={}", escape_name(n), encode_value(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// Parses the [`encode_value`] syntax (recursive descent).
pub fn parse_value(text: &str) -> Result<Value, WireError> {
    let mut p = ValueParser { text, pos: 0 };
    let v = p.value()?;
    if p.pos != text.len() {
        return Err(p.err(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

struct ValueParser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> ValueParser<'a> {
    fn err(&self, reason: String) -> WireError {
        WireError::BadArg { verb: "value".into(), reason }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn eat(&mut self, c: char) -> Result<(), WireError> {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(self.err(format!("expected {c:?} at byte {} of {:?}", self.pos, self.text)))
        }
    }

    /// Reads a run of non-delimiter characters ( `,` `)` `}` `]` `=` end it).
    fn run(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if matches!(c, ',' | ')' | '}' | ']' | '=') {
                break;
            }
            self.pos += c.len_utf8();
        }
        &self.text[start..self.pos]
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.peek() {
            Some('{') => self.sequence('{', '}').map(build::set),
            Some('[') => self.sequence('[', ']').map(build::list),
            Some('(') => self.tuple(),
            Some(_) => self.atom(),
            None => Err(self.err("empty value".into())),
        }
    }

    fn sequence(&mut self, open: char, close: char) -> Result<Vec<Value>, WireError> {
        self.eat(open)?;
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            self.eat(close)?;
            return Ok(out);
        }
        loop {
            out.push(self.value()?);
            match self.peek() {
                Some(',') => self.eat(',')?,
                Some(c) if c == close => {
                    self.eat(close)?;
                    return Ok(out);
                }
                _ => return Err(self.err(format!("unterminated sequence in {:?}", self.text))),
            }
        }
    }

    fn tuple(&mut self) -> Result<Value, WireError> {
        self.eat('(')?;
        let mut fields = Vec::new();
        if self.peek() == Some(')') {
            self.eat(')')?;
            return Ok(Value::Tuple(fields.into()));
        }
        loop {
            let name = unescape_name(self.run())?;
            self.eat('=')?;
            let v = self.value()?;
            fields.push((name.into(), v));
            match self.peek() {
                Some(',') => self.eat(',')?,
                Some(')') => {
                    self.eat(')')?;
                    return Ok(Value::Tuple(fields.into()));
                }
                _ => return Err(self.err(format!("unterminated tuple in {:?}", self.text))),
            }
        }
    }

    fn atom(&mut self) -> Result<Value, WireError> {
        let run = self.run();
        if let Some(rest) = run.strip_prefix("s:") {
            return Ok(Value::Str(unescape_name(rest)?));
        }
        if let Some(rest) = run.strip_prefix("i:") {
            return rest
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("bad integer {rest:?}")));
        }
        if let Some(rest) = run.strip_prefix("r:") {
            return rest
                .parse::<f64>()
                .map(Value::Real)
                .map_err(|_| self.err(format!("bad real {rest:?}")));
        }
        if let Some(rest) = run.strip_prefix("b:") {
            return match rest {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                _ => Err(self.err(format!("bad boolean {rest:?}"))),
            };
        }
        if let Some(rest) = run.strip_prefix("ref:") {
            // rel : (s:key | i:int) — the relation may itself contain an
            // escaped colon, so split at the *last* unambiguous key tag.
            if let Some(idx) = rest.rfind(":s:") {
                let relation = unescape_name(&rest[..idx])?;
                let key = ObjectKey::Str(unescape_name(&rest[idx + 3..])?);
                return Ok(Value::Ref(colock_nf2::ObjectRef { relation, key }));
            }
            if let Some(idx) = rest.rfind(":i:") {
                let relation = unescape_name(&rest[..idx])?;
                let key = rest[idx + 3..]
                    .parse::<i64>()
                    .map(ObjectKey::Int)
                    .map_err(|_| self.err(format!("bad reference key in {run:?}")))?;
                return Ok(Value::Ref(colock_nf2::ObjectRef { relation, key }));
            }
            return Err(self.err(format!("bad reference {run:?}")));
        }
        Err(self.err(format!("unknown atom {run:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_nf2::value::build::{list, set, tup};

    #[test]
    fn target_roundtrip() {
        for t in [
            InstanceTarget::relation("cells"),
            InstanceTarget::object("cells", "c1"),
            InstanceTarget::object("cells", "c1").attr("robots"),
            InstanceTarget::object("cells", "c1").elem("robots", "r1").attr("trajectory"),
            InstanceTarget::object("parts", ObjectKey::Int(7)).elem("subparts", ObjectKey::Int(-2)),
            InstanceTarget::object("weird/rel", "a:b%c").attr("x=y"),
        ] {
            let text = encode_target(&t);
            assert_eq!(parse_target(&text).unwrap(), t, "{text}");
        }
    }

    #[test]
    fn target_accepts_placement_prefix() {
        let t = parse_target("db:db1/seg:seg1/rel:cells/obj:c1").unwrap();
        assert_eq!(t, InstanceTarget::object("cells", "c1"));
    }

    #[test]
    fn target_rejects_malformed_paths() {
        for bad in [
            "",
            "cells",
            "obj:c1",
            "rel:cells/elem:r1",
            "rel:cells/rel:cells",
            "rel:cells/obj:c1/obj:c2",
            "rel:cells/attr:robots",
            "rel:cells/obj:c1/db:d",
            "rel:cells/obj#notanint",
            "rel:cells/obj:c1/bogus:x",
            "rel:ce%zzlls",
        ] {
            assert!(parse_target(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn value_roundtrip() {
        let hostile = "a,b=c(d)e{f}g[h]i:j%k";
        for v in [
            Value::str(""),
            Value::str(hostile),
            Value::Int(-42),
            Value::Real(2.5),
            Value::Bool(true),
            Value::reference("effectors", "e1"),
            Value::Ref(colock_nf2::ObjectRef {
                relation: "pa:rts".into(),
                key: ObjectKey::Int(9),
            }),
            set(vec![]),
            list(vec![Value::Int(1), Value::Int(2)]),
            tup(vec![]),
            tup(vec![
                ("robot_id", Value::str("r1")),
                ("trajectory", Value::str(hostile)),
                (
                    "effectors",
                    set(vec![Value::reference("effectors", "e1"), Value::reference("effectors", "e2")]),
                ),
            ]),
            list(vec![set(vec![tup(vec![("k", Value::str("v"))])])]),
        ] {
            let text = encode_value(&v);
            assert_eq!(parse_value(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn value_rejects_malformed_text() {
        for bad in ["", "x:1", "i:ten", "r:x", "b:maybe", "{i:1", "(a=i:1", "(a)", "i:1garbage,", "ref:only"] {
            assert!(parse_value(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn request_roundtrip_every_command() {
        let t = InstanceTarget::object("cells", "c1").elem("robots", "r1");
        let v = tup(vec![("trajectory", Value::str("traj-9"))]);
        for req in [
            Request::Hello { name: "demo".into(), version: PROTOCOL_VERSION, role: Role::Librarian },
            Request::Begin { kind: BeginKind::Short },
            Request::Begin { kind: BeginKind::Long },
            Request::Begin { kind: BeginKind::ReadOnly },
            Request::Get { target: t.clone() },
            Request::Put { target: t.clone(), value: v.clone() },
            Request::Del { target: t.clone() },
            Request::Checkout { target: t.clone(), access: AccessMode::Read },
            Request::Checkout { target: t.clone(), access: AccessMode::Update },
            Request::Checkin { target: t.clone(), value: v },
            Request::Commit,
            Request::Abort,
            Request::Resume { txn: TxnId(17) },
            Request::Explain,
            Request::Trace,
            Request::Stats,
            Request::Quit,
        ] {
            let payload = req.encode();
            assert_eq!(Request::parse(&payload).unwrap(), req, "{payload}");
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Ok(vec!["T7".into()]),
            Response::ok0(),
            Response::err(ErrorCode::Deadlock, "deadlock: victim T2"),
            Response::Err { code: ErrorCode::Busy, message: "full".into(), backoff_ms: Some(25) },
            Response::Event("1\t2\tgrant\t3\t0\tX\ttarget\tr\timmediate".into()),
            Response::Stat { name: "requests".into(), value: "512".into() },
            Response::End(12),
        ] {
            let payload = resp.encode();
            assert_eq!(Response::parse(&payload).unwrap(), resp, "{payload}");
        }
    }

    #[test]
    fn error_codes_roundtrip_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in ALL_ERROR_CODES {
            assert!(seen.insert(c.as_str()), "duplicate wire name {}", c.as_str());
            assert_eq!(ErrorCode::parse(c.as_str()), Some(*c));
        }
    }

    #[test]
    fn unknown_verbs_and_bad_arity_are_typed() {
        assert!(matches!(Request::parse("FROB"), Err(WireError::BadCommand(_))));
        assert!(matches!(Request::parse("GET"), Err(WireError::BadArg { .. })));
        assert!(matches!(Request::parse("COMMIT\textra"), Err(WireError::BadArg { .. })));
        assert!(matches!(Request::parse("HELLO\tx\tnotanumber"), Err(WireError::BadArg { .. })));
    }
}
