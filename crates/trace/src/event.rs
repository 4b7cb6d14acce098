//! The structured event record and its two enums: what happened
//! ([`EventKind`]) and which protocol rule caused it ([`RuleTag`]).

use colock_testkit::codec::{escape_into, unescape};
use std::fmt::{self, Write as _};

/// Why a trace line failed to parse. The conformance linter consumes trace
/// files, so a torn or corrupted line must surface as a typed error rather
/// than being silently skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line does not have the nine tab-separated fields of
    /// [`Event::to_line`].
    FieldCount {
        /// How many fields the line actually had.
        got: usize,
    },
    /// A numeric header field (`seq`, `t_us`, `txn`, `shard`) did not parse.
    BadNumber {
        /// Which field was malformed.
        field: &'static str,
        /// The offending text.
        value: String,
    },
    /// The `kind` field names no [`EventKind`].
    UnknownKind(String),
    /// The `rule` field names no [`RuleTag`].
    UnknownRule(String),
    /// A payload field (`mode`, `resource`, `detail`) contains an
    /// incomplete or unknown backslash escape — the classic symptom of a
    /// line torn mid-write.
    BadEscape {
        /// Which field was malformed.
        field: &'static str,
        /// The offending (still escaped) text.
        value: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::FieldCount { got } => {
                write!(f, "expected 9 tab-separated fields, got {got}")
            }
            ParseError::BadNumber { field, value } => {
                write!(f, "field `{field}` is not a number: {value:?}")
            }
            ParseError::UnknownKind(s) => write!(f, "unknown event kind {s:?}"),
            ParseError::UnknownRule(s) => write!(f, "unknown rule tag {s:?}"),
            ParseError::BadEscape { field, value } => {
                write!(f, "field `{field}` has a bad escape sequence: {value:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Inverse of the escaping in [`Event::to_line`]; a dangling or unknown
/// escape is a [`ParseError::BadEscape`] naming `field`.
fn unescape_field(s: &str, field: &'static str) -> Result<String, ParseError> {
    unescape(s).map_err(|_| ParseError::BadEscape { field, value: s.to_string() })
}

/// What happened, from the lock manager's or transaction manager's point of
/// view.
///
/// The first eight variants are emitted by `colock-lockmgr`; the `Txn*`
/// variants by `colock-txn`. Every variant is documented in DESIGN.md §6
/// together with the field conventions of the events that carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EventKind {
    /// A lock was requested (emitted before the grant/wait decision).
    #[default]
    Request,
    /// A lock was granted. `detail` distinguishes `immediate`,
    /// `already-held`, `after-wait`, `recovered`, and `fastpath`
    /// (optimistic summary-word CAS) grants.
    Grant,
    /// The requester enqueued as a waiter and is about to block.
    Wait,
    /// The lock manager granted a parked waiter and signalled its condvar.
    /// The matching [`EventKind::Grant`] is emitted by the woken thread.
    Wakeup,
    /// The request is an upgrade of a mode the transaction already holds
    /// (e.g. S→X). Followed by a `Grant` or `Wait` for the joined mode.
    Conversion,
    /// The snapshot detector found a waits-for cycle. `txn` is 0; `detail`
    /// lists the cycle members. Exactly one per detected cycle, immediately
    /// followed by its [`EventKind::VictimChosen`] — unless every member
    /// turned runnable between snapshot and marking, in which case the event
    /// carries `resource = "stale"` and no victim follows.
    DeadlockDetected,
    /// The youngest markable member of a detected cycle was chosen as the
    /// victim; `txn` is the victim.
    VictimChosen,
    /// A granted lock was removed from the table.
    Release,
    /// A transaction began (`detail` holds its kind, `short`/`long`).
    TxnBegin,
    /// A transaction committed.
    TxnCommit,
    /// A transaction aborted (voluntarily or as a deadlock victim).
    TxnAbort,
    /// A long transaction released its target subtree early (paper §4.4.2
    /// rule 5 shrinking phase).
    TxnReleaseEarly,
    /// A long transaction was re-adopted after a crash: journal replay found
    /// its surviving long locks and recovery re-created its state (`detail`
    /// holds the lock count).
    TxnRecovered,
    /// A read-only snapshot transaction read a target through the
    /// multiversion overlay without acquiring any lock (`detail` holds the
    /// snapshot timestamp).
    SnapshotRead,
    /// A server session was admitted (`colock-server`). `txn` is 0 — a
    /// session is not a transaction; the session id and peer address travel
    /// in `detail`, so the conformance linter ignores these events.
    SessionOpen,
    /// A server session ended (QUIT, idle timeout, error, or drain).
    /// `txn` is 0; `detail` holds the session id and the close reason.
    SessionClose,
}

impl EventKind {
    /// Stable short name used in the wire format and explain output.
    ///
    /// ```
    /// assert_eq!(colock_trace::EventKind::DeadlockDetected.as_str(), "deadlock");
    /// ```
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Request => "request",
            EventKind::Grant => "grant",
            EventKind::Wait => "wait",
            EventKind::Wakeup => "wakeup",
            EventKind::Conversion => "conversion",
            EventKind::DeadlockDetected => "deadlock",
            EventKind::VictimChosen => "victim",
            EventKind::Release => "release",
            EventKind::TxnBegin => "begin",
            EventKind::TxnCommit => "commit",
            EventKind::TxnAbort => "abort",
            EventKind::TxnReleaseEarly => "release-early",
            EventKind::TxnRecovered => "recovered",
            EventKind::SnapshotRead => "snapshot-read",
            EventKind::SessionOpen => "session-open",
            EventKind::SessionClose => "session-close",
        }
    }

    /// Inverse of [`EventKind::as_str`]; `None` for unknown names.
    ///
    /// ```
    /// use colock_trace::EventKind;
    /// assert_eq!(EventKind::parse("wakeup"), Some(EventKind::Wakeup));
    /// assert_eq!(EventKind::parse("nope"), None);
    /// ```
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "request" => EventKind::Request,
            "grant" => EventKind::Grant,
            "wait" => EventKind::Wait,
            "wakeup" => EventKind::Wakeup,
            "conversion" => EventKind::Conversion,
            "deadlock" => EventKind::DeadlockDetected,
            "victim" => EventKind::VictimChosen,
            "release" => EventKind::Release,
            "begin" => EventKind::TxnBegin,
            "commit" => EventKind::TxnCommit,
            "abort" => EventKind::TxnAbort,
            "release-early" => EventKind::TxnReleaseEarly,
            "recovered" => EventKind::TxnRecovered,
            "snapshot-read" => EventKind::SnapshotRead,
            "session-open" => EventKind::SessionOpen,
            "session-close" => EventKind::SessionClose,
            _ => return None,
        })
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which §4.4.2 protocol rule (or engine mechanism) produced a lock request.
///
/// The proposed protocol of the paper locks a lot more than the target the
/// caller named — ancestor intents, entry points of referenced subobjects,
/// weakened entry locks under rule 4′. The tag travels with every event the
/// lock manager emits so `trace-explain` can say *why* each lock exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuleTag {
    /// No protocol context (direct `LockManager` call, tests, recovery).
    #[default]
    None,
    /// The lock the caller asked for, on the named target (rules 3 and 4,
    /// first half: explicit lock on the root of the requested subtree).
    Target,
    /// Implicit upward propagation: an intent lock on an ancestor of the
    /// target, acquired root-to-leaf before the target lock (rules 1, 2 and
    /// 5: every superunit of a locked unit carries an intent).
    AncestorIntent,
    /// Implicit downward propagation: a lock on the entry point of a
    /// referenced (shared or non-disjoint) subobject (rules 3 and 4, second
    /// half: S/X on the target propagates to entry points of inner units).
    EntryPoint,
    /// Rule 4′: the entry-point lock was weakened from X to S because the
    /// authorization environment forbids modifying the referenced relation.
    EntryPointNonModifiable,
    /// The naive-DAG comparison protocol's reverse scan that locks all
    /// parents of a shared unit before locking the unit itself.
    AllParentsScan,
    /// The whole-object comparison protocol's single coarse lock at the
    /// object (or relation) root.
    WholeObject,
    /// The tuple-level comparison protocol's per-tuple ancestor intents.
    TupleIntent,
    /// The tuple-level comparison protocol's lock on one tuple.
    Tuple,
    /// Lock taken (or re-taken) by the escalation/de-escalation optimizer,
    /// not by a protocol rule.
    Escalation,
    /// Lock re-installed by recovery (`install_recovered`).
    Recovered,
}

impl RuleTag {
    /// Stable short name used in the wire format and explain output.
    ///
    /// ```
    /// assert_eq!(colock_trace::RuleTag::AncestorIntent.as_str(), "ancestor-intent");
    /// ```
    pub fn as_str(self) -> &'static str {
        match self {
            RuleTag::None => "-",
            RuleTag::Target => "target",
            RuleTag::AncestorIntent => "ancestor-intent",
            RuleTag::EntryPoint => "entry-point",
            RuleTag::EntryPointNonModifiable => "entry-point-nonmod",
            RuleTag::AllParentsScan => "all-parents-scan",
            RuleTag::WholeObject => "whole-object",
            RuleTag::TupleIntent => "tuple-intent",
            RuleTag::Tuple => "tuple",
            RuleTag::Escalation => "escalation",
            RuleTag::Recovered => "recovered",
        }
    }

    /// Inverse of [`RuleTag::as_str`]; `None` for unknown names.
    ///
    /// ```
    /// use colock_trace::RuleTag;
    /// assert_eq!(RuleTag::parse("entry-point-nonmod"), Some(RuleTag::EntryPointNonModifiable));
    /// ```
    pub fn parse(s: &str) -> Option<RuleTag> {
        Some(match s {
            "-" => RuleTag::None,
            "target" => RuleTag::Target,
            "ancestor-intent" => RuleTag::AncestorIntent,
            "entry-point" => RuleTag::EntryPoint,
            "entry-point-nonmod" => RuleTag::EntryPointNonModifiable,
            "all-parents-scan" => RuleTag::AllParentsScan,
            "whole-object" => RuleTag::WholeObject,
            "tuple-intent" => RuleTag::TupleIntent,
            "tuple" => RuleTag::Tuple,
            "escalation" => RuleTag::Escalation,
            "recovered" => RuleTag::Recovered,
            _ => return None,
        })
    }

    /// One-line human explanation, phrased against the paper's §4.4.2 rules.
    /// Used verbatim by `trace-explain`.
    ///
    /// ```
    /// assert!(colock_trace::RuleTag::Target.describe().contains("rules 3/4"));
    /// ```
    pub fn describe(self) -> &'static str {
        match self {
            RuleTag::None => "no protocol context (direct lock-manager call)",
            RuleTag::Target => "explicit lock on the requested target (rules 3/4, first half)",
            RuleTag::AncestorIntent => {
                "implicit upward propagation: intent on a superunit of the target (rules 1/2/5)"
            }
            RuleTag::EntryPoint => {
                "implicit downward propagation: lock on the entry point of a referenced inner unit (rules 3/4, second half)"
            }
            RuleTag::EntryPointNonModifiable => {
                "rule 4': entry-point lock weakened to S because the subject may not modify the referenced relation"
            }
            RuleTag::AllParentsScan => {
                "naive-DAG comparison protocol: reverse scan locking every parent of a shared unit"
            }
            RuleTag::WholeObject => {
                "whole-object comparison protocol: one coarse lock at the object root"
            }
            RuleTag::TupleIntent => {
                "tuple-level comparison protocol: ancestor intent for a single tuple"
            }
            RuleTag::Tuple => "tuple-level comparison protocol: lock on one tuple",
            RuleTag::Escalation => "lock escalation/de-escalation optimizer, not a protocol rule",
            RuleTag::Recovered => "lock re-installed by recovery",
        }
    }
}

impl fmt::Display for RuleTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One traced occurrence: a fixed header (sequence number, microsecond
/// timestamp, kind, transaction) plus stringly-typed context fields, so the
/// crate depends on no other engine crate.
///
/// Events are built with the consuming setters and serialized with
/// [`Event::to_line`] / [`Event::parse_line`]:
///
/// ```
/// use colock_trace::{Event, EventKind, RuleTag};
/// let e = Event::new(EventKind::Grant, 3)
///     .shard(5)
///     .mode("IX")
///     .rule(RuleTag::AncestorIntent)
///     .resource("db:db1/rel:cells")
///     .detail("immediate");
/// let parsed = Event::parse_line(&e.to_line()).unwrap();
/// assert_eq!(parsed, e);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Event {
    /// Monotonic sequence number, assigned by the ring buffer at record
    /// time (0 until recorded). Gaps after wraparound are expected.
    pub seq: u64,
    /// Microseconds since the process's trace epoch (first buffer use).
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Raw transaction id (`TxnId.0`); 0 when no single txn applies.
    pub txn: u64,
    /// Lock-table shard index, or 0 for non-lockmgr events.
    pub shard: u32,
    /// Lock mode as printed by `LockMode`'s `Display` (empty when n/a).
    pub mode: String,
    /// Protocol rule that caused the request (see [`RuleTag`]).
    pub rule: RuleTag,
    /// Resource key, `Debug`-formatted (empty when n/a).
    pub resource: String,
    /// Free-form qualifier (grant path, cycle members, txn kind, ...).
    pub detail: String,
}

impl Event {
    /// Starts an event of the given kind for the given raw txn id.
    pub fn new(kind: EventKind, txn: u64) -> Event {
        Event { kind, txn, ..Event::default() }
    }

    /// Sets the lock-table shard index.
    pub fn shard(mut self, shard: u32) -> Event {
        self.shard = shard;
        self
    }

    /// Sets the lock mode string.
    pub fn mode(mut self, mode: impl Into<String>) -> Event {
        self.mode = mode.into();
        self
    }

    /// Sets the protocol-rule tag.
    pub fn rule(mut self, rule: RuleTag) -> Event {
        self.rule = rule;
        self
    }

    /// Sets the resource key string.
    pub fn resource(mut self, resource: impl Into<String>) -> Event {
        self.resource = resource.into();
        self
    }

    /// Sets the free-form detail string.
    pub fn detail(mut self, detail: impl Into<String>) -> Event {
        self.detail = detail.into();
        self
    }

    /// Serializes to one tab-separated line:
    /// `seq  t_us  kind  txn  shard  mode  rule  resource  detail`.
    ///
    /// Tabs, newlines, carriage returns and backslashes inside the payload
    /// fields (`mode`, `resource`, `detail`) are backslash-escaped with the
    /// workspace's line codec ([`colock_testkit::codec`]) so the round-trip
    /// through [`Event::parse_line`] is lossless.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{}\t{}\t{}\t{}\t{}\t",
            self.seq, self.t_us, self.kind, self.txn, self.shard
        );
        escape_into(&self.mode, &mut line);
        let _ = write!(line, "\t{}\t", self.rule);
        escape_into(&self.resource, &mut line);
        line.push('\t');
        escape_into(&self.detail, &mut line);
        line
    }

    /// Parses a line produced by [`Event::to_line`]; malformed input yields
    /// a typed [`ParseError`] naming the defect, so consumers (the
    /// conformance linter in particular) can distinguish a torn line from
    /// an empty stream.
    ///
    /// ```
    /// use colock_trace::{Event, ParseError};
    /// assert!(matches!(
    ///     Event::parse_line("not an event"),
    ///     Err(ParseError::FieldCount { got: 1 })
    /// ));
    /// ```
    pub fn parse_line(line: &str) -> Result<Event, ParseError> {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 9 {
            return Err(ParseError::FieldCount { got: fields.len() });
        }
        let number = |field: &'static str, value: &str| {
            value
                .parse::<u64>()
                .map_err(|_| ParseError::BadNumber { field, value: value.to_string() })
        };
        let seq = number("seq", fields[0])?;
        let t_us = number("t_us", fields[1])?;
        let kind = EventKind::parse(fields[2])
            .ok_or_else(|| ParseError::UnknownKind(fields[2].to_string()))?;
        let txn = number("txn", fields[3])?;
        let shard = number("shard", fields[4])? as u32;
        let mode = unescape_field(fields[5], "mode")?;
        let rule = RuleTag::parse(fields[6])
            .ok_or_else(|| ParseError::UnknownRule(fields[6].to_string()))?;
        let resource = unescape_field(fields[7], "resource")?;
        let detail = unescape_field(fields[8], "detail")?;
        Ok(Event { seq, t_us, kind, txn, shard, mode, rule, resource, detail })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for k in [
            EventKind::Request,
            EventKind::Grant,
            EventKind::Wait,
            EventKind::Wakeup,
            EventKind::Conversion,
            EventKind::DeadlockDetected,
            EventKind::VictimChosen,
            EventKind::Release,
            EventKind::TxnBegin,
            EventKind::TxnCommit,
            EventKind::TxnAbort,
            EventKind::TxnReleaseEarly,
            EventKind::TxnRecovered,
            EventKind::SnapshotRead,
            EventKind::SessionOpen,
            EventKind::SessionClose,
        ] {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
    }

    #[test]
    fn rule_roundtrip() {
        for r in [
            RuleTag::None,
            RuleTag::Target,
            RuleTag::AncestorIntent,
            RuleTag::EntryPoint,
            RuleTag::EntryPointNonModifiable,
            RuleTag::AllParentsScan,
            RuleTag::WholeObject,
            RuleTag::TupleIntent,
            RuleTag::Tuple,
            RuleTag::Escalation,
            RuleTag::Recovered,
        ] {
            assert_eq!(RuleTag::parse(r.as_str()), Some(r));
            assert!(!r.describe().is_empty());
        }
    }

    #[test]
    fn line_roundtrip_is_lossless_for_hostile_payloads() {
        // Tabs, newlines, carriage returns and backslashes in payload
        // fields must survive the wire format verbatim.
        let e = Event::new(EventKind::Wait, 7)
            .mode("S\\X")
            .resource("a\tb\\c")
            .detail("c\nd\re\\\\f");
        let line = e.to_line();
        assert_eq!(line.matches('\t').count(), 8, "payload tabs must be escaped");
        assert!(!line.contains('\n'), "payload newlines must be escaped");
        let parsed = Event::parse_line(&line).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn line_bytes_are_pinned() {
        // The trace file format: a change here breaks every stored trace.
        let e = Event::new(EventKind::Wait, 7)
            .shard(2)
            .mode("S\\X")
            .rule(RuleTag::EntryPoint)
            .resource("a\tb\\c")
            .detail("c\nd\re\\\\f");
        assert_eq!(
            e.to_line(),
            "0\t0\twait\t7\t2\tS\\\\X\tentry-point\ta\\tb\\\\c\tc\\nd\\re\\\\\\\\f"
        );
    }

    #[test]
    fn torn_lines_yield_typed_errors() {
        let good = Event::new(EventKind::Grant, 3)
            .mode("IX")
            .resource("db:db1/rel:cells")
            .detail("immediate")
            .to_line();
        // Truncation (torn write) drops fields.
        let torn = &good[..good.rfind('\t').unwrap()];
        assert_eq!(Event::parse_line(torn), Err(ParseError::FieldCount { got: 8 }));
        // A raw (unescaped) tab inside a payload field changes the count.
        let extra = good.replace("immediate", "imme\tdiate");
        assert_eq!(Event::parse_line(&extra), Err(ParseError::FieldCount { got: 10 }));
        // A dangling escape at end-of-line is rejected, not silently eaten.
        let dangling = format!("{}\\", good);
        assert!(matches!(
            Event::parse_line(&dangling),
            Err(ParseError::BadEscape { field: "detail", .. })
        ));
        // Unknown enum names are typed too.
        let bad_kind = good.replace("grant", "grunt");
        assert_eq!(Event::parse_line(&bad_kind), Err(ParseError::UnknownKind("grunt".into())));
        let bad_rule = good.replacen("\t-\t", "\trule9\t", 1);
        assert_eq!(Event::parse_line(&bad_rule), Err(ParseError::UnknownRule("rule9".into())));
        let bad_seq = format!("x{good}");
        assert!(matches!(
            Event::parse_line(&bad_seq),
            Err(ParseError::BadNumber { field: "seq", .. })
        ));
    }
}
