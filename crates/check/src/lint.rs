//! Protocol conformance linting over recorded traces.
//!
//! The linter replays a `colock-trace` event stream (a live ring drain or a
//! parsed `to_line` file) and checks the §4.4.2 protocol rules against what
//! the engine actually did:
//!
//! - **Rules 1/2** — before a transaction's explicit lock is granted, every
//!   ancestor up to the database node holds a mode covering the required
//!   intent (`required_parent_intent` of the granted mode).
//! - **Rules 3/4** — entry-point grants land exactly on the object root of a
//!   common-data relation and follow an already-held non-intent lock (the
//!   dereferenced source); rule 4′ grants are weakened to S.
//! - **Conversions** — every conversion moves up the mode lattice (the
//!   target covers the stated held mode) and the stated held mode matches
//!   the replayed lock table.
//! - **Rule 5 / two-phase discipline** — short transactions acquire no new
//!   lock after their first release (long transactions, recovery re-adoption
//!   and optimizer escalation are the documented exceptions); early releases
//!   proceed leaf-to-root within the release run preceding each
//!   `TxnReleaseEarly` marker.
//! - **Deadlock handling** — every detected cycle is followed by exactly one
//!   victim drawn from its members; stale detections (`resource = "stale"`)
//!   expect none.
//!
//! The linter is deliberately tolerant of ring wraparound: per-transaction
//! checks run only for transactions whose `TxnBegin`/`TxnRecovered` event is
//! inside the slice, and a trailing cycle whose victim fell outside the
//! window is not reported.

use colock_lockmgr::LockMode;
use colock_nf2::Catalog;
use colock_trace::{explain, Event, EventKind, RuleTag};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The protocol rule a trace violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An explicit lock was granted while an ancestor lacked the required
    /// intent mode (rules 1/2).
    MissingAncestorIntent,
    /// An entry-point-tagged grant landed on a node that is not the object
    /// root of a common-data relation (§4.3).
    EntryPointMisplaced,
    /// A rule-4′ entry-point grant was not weakened to S.
    EntryPointNotWeakened,
    /// An entry-point grant arrived before the transaction held any
    /// non-intent lock (nothing could have been dereferenced yet).
    EntryPointBeforeTarget,
    /// A conversion moved down the mode lattice, or its stated held mode
    /// disagrees with the replayed lock table.
    IllegalConversion,
    /// A short transaction acquired a lock after its first release
    /// (two-phase discipline, rule 5).
    AcquireAfterRelease,
    /// An early-release run freed an ancestor before one of its descendants
    /// (rule 5: leaf-to-root).
    ReleaseOrder,
    /// A victim was chosen that does not answer the preceding detected
    /// cycle (wrong member, or no cycle at all).
    UnmatchedVictim,
    /// A detected cycle was never answered by a victim.
    MissingVictim,
    /// An event carried a field the linter could not interpret (e.g. an
    /// unknown lock mode) — the trace itself is damaged.
    MalformedEvent,
    /// A snapshot (read-only MVCC) transaction appeared in a lock-manager
    /// event: snapshot readers must never enter the lock table, wait, or
    /// release anything.
    SnapshotTxnLocked,
    /// A `SnapshotRead` event was emitted by a transaction that did not
    /// begin as a snapshot reader — a writer (or locking reader) bypassing
    /// the lock protocol through the version chains.
    SnapshotReadOutsideSnapshotTxn,
    /// Two transactions held incompatible non-intent modes on the same
    /// resource at once — the manager granted through a conflict. With
    /// semantic container modes this is where an element-key collision
    /// surfaces: commuting `Insert`/`Insert` grants are clean, but an
    /// `Insert` and a `Member` touching the same element key materialize as
    /// X and S on the element resource, which must never overlap.
    ConflictingGrants,
    /// A semantic container mode (Member/Insert/Delete) was granted on an
    /// attribute whose schema does not admit it
    /// (`Catalog::admits_semantic_modes` is false): without a derivable
    /// element key, "distinct elements commute" is unenforceable and the
    /// planner must fall back to classical IS/IX.
    SemanticModeNotAdmitted,
}

impl ViolationKind {
    /// Stable short name used in rendered reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::MissingAncestorIntent => "missing-ancestor-intent",
            ViolationKind::EntryPointMisplaced => "entry-point-misplaced",
            ViolationKind::EntryPointNotWeakened => "entry-point-not-weakened",
            ViolationKind::EntryPointBeforeTarget => "entry-point-before-target",
            ViolationKind::IllegalConversion => "illegal-conversion",
            ViolationKind::AcquireAfterRelease => "acquire-after-release",
            ViolationKind::ReleaseOrder => "release-order",
            ViolationKind::UnmatchedVictim => "unmatched-victim",
            ViolationKind::MissingVictim => "missing-victim",
            ViolationKind::MalformedEvent => "malformed-event",
            ViolationKind::SnapshotTxnLocked => "snapshot-txn-locked",
            ViolationKind::SnapshotReadOutsideSnapshotTxn => "snapshot-read-outside-snapshot-txn",
            ViolationKind::ConflictingGrants => "conflicting-grants",
            ViolationKind::SemanticModeNotAdmitted => "semantic-mode-not-admitted",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One protocol violation, anchored to the event that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that was broken.
    pub kind: ViolationKind,
    /// The offending transaction (0 for detector-level violations).
    pub txn: u64,
    /// Sequence number of the exposing event.
    pub seq: u64,
    /// The resource involved, if any.
    pub resource: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] T{} seq={}", self.kind, self.txn, self.seq)?;
        if !self.resource.is_empty() {
            write!(f, " {}", self.resource)?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// Result of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every violation, in trace order.
    pub violations: Vec<Violation>,
    /// Events examined.
    pub events_seen: usize,
    /// Transactions whose begin/recovery marker was inside the slice (only
    /// these are checked).
    pub txns_checked: usize,
    /// Grant events replayed against the rules.
    pub grants_checked: usize,
    /// Detected deadlock cycles paired with victims.
    pub deadlocks_checked: usize,
}

impl LintReport {
    /// Whether the trace passed every check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One line per violation plus a summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        let _ = writeln!(
            out,
            "checked {} event(s), {} txn(s), {} grant(s), {} deadlock(s): {} violation(s)",
            self.events_seen,
            self.txns_checked,
            self.grants_checked,
            self.deadlocks_checked,
            self.violations.len()
        );
        out
    }

    /// [`LintReport::render`] followed by the explain timeline of each
    /// offending transaction, so a violation can be read in context.
    pub fn render_with_context(&self, events: &[Event]) -> String {
        use std::fmt::Write;
        let mut out = self.render();
        let mut shown: HashSet<u64> = HashSet::new();
        for v in &self.violations {
            if !shown.insert(v.txn) {
                continue;
            }
            let scoped: Vec<Event> = events
                .iter()
                .filter(|e| e.txn == v.txn || involves_txn(e, v.txn))
                .cloned()
                .collect();
            if scoped.is_empty() {
                continue;
            }
            let _ = writeln!(out, "--- timeline of T{} ---", v.txn);
            out.push_str(&explain::render_timeline(&explain::timeline(&scoped)));
        }
        out
    }
}

/// Events emitted by the lock manager itself (under a shard lock), as
/// opposed to transaction-layer markers.
fn is_lockmgr_kind(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Request
            | EventKind::Grant
            | EventKind::Wait
            | EventKind::Wakeup
            | EventKind::Conversion
            | EventKind::DeadlockDetected
            | EventKind::VictimChosen
            | EventKind::Release
    )
}

/// Detector events carry txn 0 but mention cycle members in their detail.
pub(crate) fn involves_txn(e: &Event, txn: u64) -> bool {
    matches!(e.kind, EventKind::DeadlockDetected) && parse_cycle(&e.detail).contains(&txn)
}

/// Parses a detector cycle detail such as `"T3, T8"`.
fn parse_cycle(detail: &str) -> Vec<u64> {
    detail
        .split(',')
        .filter_map(|p| p.trim().trim_start_matches('T').parse().ok())
        .collect()
}

pub(crate) fn parse_mode(s: &str) -> Option<LockMode> {
    Some(match s {
        "NL" => LockMode::NL,
        "IS" => LockMode::IS,
        "MB" => LockMode::Member,
        "IN" => LockMode::Insert,
        "DL" => LockMode::Delete,
        "IX" => LockMode::IX,
        "S" => LockMode::S,
        "SIX" => LockMode::SIX,
        "X" => LockMode::X,
        _ => return None,
    })
}

/// Strict ancestors of a rendered [`ResourcePath`], root first: for
/// `a/b/c` yields `a` then `a/b`.
///
/// [`ResourcePath`]: colock_core::resource::ResourcePath
pub(crate) fn strict_ancestors(resource: &str) -> impl Iterator<Item = &str> {
    resource
        .char_indices()
        .filter(|&(_, c)| c == '/')
        .map(move |(i, _)| &resource[..i])
}

pub(crate) fn is_strict_ancestor(a: &str, b: &str) -> bool {
    b.len() > a.len() && b.as_bytes()[a.len()] == b'/' && b.starts_with(a)
}

/// `Some(relation)` when `resource` is the object root `db:…/seg:…/rel:R/obj:…`.
fn object_root_relation(resource: &str) -> Option<&str> {
    let comps: Vec<&str> = resource.split('/').collect();
    if comps.len() == 4
        && comps[0].starts_with("db:")
        && comps[1].starts_with("seg:")
        && comps[2].starts_with("rel:")
        && comps[3].starts_with("obj:")
    {
        Some(&comps[2][4..])
    } else {
        None
    }
}

/// Replayed per-transaction lock state.
#[derive(Default)]
struct TxnState {
    long: bool,
    /// Begun as a snapshot reader (`TxnBegin` detail `readonly`); the
    /// locking fallback begins as `readonly-locking` and is *not* snapshot.
    snapshot: bool,
    held: HashMap<String, LockMode>,
    released_any: bool,
    /// Contiguous run of this transaction's `Release` events, pending a
    /// possible `TxnReleaseEarly` marker.
    release_run: Vec<(u64, String)>,
}

/// Walks an attribute type tree collecting every dotted attribute path
/// (element components contribute no step) whose type admits the semantic
/// container modes.
fn collect_semantic_paths(
    relation: &str,
    path: &str,
    ty: &colock_nf2::AttrType,
    out: &mut HashSet<(String, String)>,
) {
    use colock_nf2::AttrType;
    match ty {
        AttrType::Set(inner) | AttrType::List(inner) => {
            if ty.admits_semantic_modes() {
                out.insert((relation.to_string(), path.to_string()));
            }
            // Element tuples continue the dotted path below the container
            // (`robots.effectors`): resources address them via `[key]`
            // components, which carry no path step.
            collect_semantic_paths(relation, path, inner, out);
        }
        AttrType::Tuple(fields) => {
            for f in fields {
                let child = if path.is_empty() {
                    f.name.clone()
                } else {
                    format!("{path}.{}", f.name)
                };
                collect_semantic_paths(relation, &child, &f.ty, out);
            }
        }
        _ => {}
    }
}

/// `Some((relation, dotted attr path))` for a resource naming an attribute
/// inside a complex object: `db:…/seg:…/rel:R/obj:…/a/[e]/b` maps to
/// `(R, "a.b")` (attribute steps print bare in the path syntax, elements
/// as `[key]`). `None` when the resource names no relation or no attribute
/// below the object (a semantic grant there is malformed by construction).
fn semantic_target(resource: &str) -> Option<(&str, String)> {
    let mut relation = None;
    let mut in_object = false;
    let mut path = String::new();
    for comp in resource.split('/') {
        if let Some(r) = comp.strip_prefix("rel:") {
            relation = Some(r);
        } else if comp.starts_with("obj:") {
            in_object = true;
        } else if in_object && !comp.starts_with('[') && !comp.is_empty() {
            // A bare component below the object is an attribute step;
            // `[key]` components are set/list elements and contribute no
            // schema path step (`AttrPath` skips them the same way).
            if !path.is_empty() {
                path.push('.');
            }
            path.push_str(comp);
        }
    }
    match (relation, path.is_empty()) {
        (Some(r), false) => Some((r, path)),
        _ => None,
    }
}

/// The conformance linter. Construct with [`Linter::with_catalog`] when the
/// schema is known (enables the entry-point placement and semantic-mode
/// admission checks) or [`Linter::new`] for schema-free linting.
#[derive(Debug, Clone, Default)]
pub struct Linter {
    common: Option<HashSet<String>>,
    /// `(relation, dotted attr path)` pairs whose schema admits the
    /// semantic container modes; `None` disables the admission check.
    semantic_admitted: Option<HashSet<(String, String)>>,
}

impl Linter {
    /// A schema-free linter: all checks except entry-point placement and
    /// semantic-mode admission.
    pub fn new() -> Self {
        Linter::default()
    }

    /// A linter that knows the catalog's common-data relations and which
    /// attribute paths admit the semantic container modes.
    pub fn with_catalog(catalog: &Catalog) -> Self {
        let mut l = Self::with_common_data(
            catalog.schema().common_data_relations().iter().map(|r| r.name.clone()),
        );
        let mut admitted = HashSet::new();
        for rel in &catalog.schema().relations {
            for attr in &rel.attributes {
                collect_semantic_paths(&rel.name, &attr.name, &attr.ty, &mut admitted);
            }
        }
        l.semantic_admitted = Some(admitted);
        l
    }

    /// A linter with an explicit common-data relation set.
    pub fn with_common_data<I: IntoIterator<Item = String>>(relations: I) -> Self {
        Linter { common: Some(relations.into_iter().collect()), semantic_admitted: None }
    }

    /// Replays `events` (which must be in sequence order, as produced by the
    /// ring or a trace file) and reports every protocol violation.
    pub fn lint(&self, events: &[Event]) -> LintReport {
        let mut report = LintReport { events_seen: events.len(), ..Default::default() };

        // Pass 1: transactions whose lifetime start is inside the slice.
        // Anything else may have acquired locks before the window opened
        // (ring wraparound), so per-transaction checks would false-positive.
        let began: HashSet<u64> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TxnBegin | EventKind::TxnRecovered))
            .map(|e| e.txn)
            .collect();
        report.txns_checked = began.len();

        // Pass 2: chronological replay of per-transaction state.
        //
        // `holders` replays the cross-transaction grant table for the
        // conflicting-grants check. Only *non-intent* modes participate:
        // their grant and release events are emitted under the owning shard
        // mutex, so their trace order is their lock order. Optimistic intent
        // grants can migrate into the shard map without a trace event (the
        // drain), so replaying intents here would false-positive.
        let mut txns: HashMap<u64, TxnState> = HashMap::new();
        let mut holders: HashMap<String, Vec<(u64, LockMode)>> = HashMap::new();
        for e in events {
            if e.txn == 0 {
                continue;
            }
            match e.kind {
                // A fresh incarnation of the id invalidates any holdings a
                // previous (possibly killed) incarnation left untraced.
                EventKind::TxnBegin => {
                    for hs in holders.values_mut() {
                        hs.retain(|&(t, _)| t != e.txn);
                    }
                }
                EventKind::Grant => {
                    if let Some(mode) = parse_mode(&e.mode) {
                        if !mode.is_intent() && mode != LockMode::NL {
                            let hs = holders.entry(e.resource.clone()).or_default();
                            for &(other, held) in hs.iter() {
                                if other != e.txn && !mode.compatible(held) {
                                    report.violations.push(Violation {
                                        kind: ViolationKind::ConflictingGrants,
                                        txn: e.txn,
                                        seq: e.seq,
                                        resource: e.resource.clone(),
                                        detail: format!(
                                            "{} granted while T{other} holds {held}",
                                            e.mode
                                        ),
                                    });
                                }
                            }
                            hs.retain(|&(t, _)| t != e.txn);
                            hs.push((e.txn, mode));
                        }
                    }
                }
                EventKind::Release => {
                    if let Some(hs) = holders.get_mut(&e.resource) {
                        hs.retain(|&(t, _)| t != e.txn);
                    }
                }
                _ => {}
            }
            if !began.contains(&e.txn) {
                continue;
            }
            let state = txns.entry(e.txn).or_default();
            match e.kind {
                // A fresh begin starts a new incarnation of the id: managers
                // number transactions independently, so a trace spanning a
                // server restart (e.g. a crash/recovery cycle) legitimately
                // re-uses ids. State from the previous incarnation must not
                // leak into the new one.
                EventKind::TxnBegin => {
                    *state = TxnState {
                        long: e.detail == "long",
                        snapshot: e.detail == "readonly",
                        ..Default::default()
                    }
                }
                EventKind::TxnRecovered => state.long = true,
                // Lock-free reads are checked, not silently exempt: the pair
                // of rules below makes "snapshot readers acquire zero locks"
                // and "only snapshot readers use the version chains"
                // machine-verified properties of every trace.
                EventKind::SnapshotRead if !state.snapshot => {
                    report.violations.push(Violation {
                        kind: ViolationKind::SnapshotReadOutsideSnapshotTxn,
                        txn: e.txn,
                        seq: e.seq,
                        resource: e.resource.clone(),
                        detail: format!(
                            "snapshot read ({}) from a transaction not begun readonly",
                            e.detail
                        ),
                    });
                }
                kind if state.snapshot && is_lockmgr_kind(kind) => {
                    report.violations.push(Violation {
                        kind: ViolationKind::SnapshotTxnLocked,
                        txn: e.txn,
                        seq: e.seq,
                        resource: e.resource.clone(),
                        detail: format!(
                            "snapshot transaction in a {} event (readers must elide all locks)",
                            kind.as_str()
                        ),
                    });
                }
                EventKind::Grant => {
                    report.grants_checked += 1;
                    state.release_run.clear();
                    self.check_grant(e, state, &mut report);
                }
                EventKind::Conversion => {
                    state.release_run.clear();
                    check_conversion(e, state, &mut report);
                }
                EventKind::Release => {
                    state.held.remove(&e.resource);
                    state.released_any = true;
                    state.release_run.push((e.seq, e.resource.clone()));
                }
                EventKind::TxnReleaseEarly => {
                    check_release_order(e, state, &mut report);
                    state.release_run.clear();
                }
                _ => state.release_run.clear(),
            }
        }

        // Pass 3: pair detected cycles with victims, across the whole slice.
        self.check_deadlocks(events, &mut report);
        report
    }

    fn check_grant(&self, e: &Event, state: &mut TxnState, report: &mut LintReport) {
        let Some(mode) = parse_mode(&e.mode) else {
            report.violations.push(Violation {
                kind: ViolationKind::MalformedEvent,
                txn: e.txn,
                seq: e.seq,
                resource: e.resource.clone(),
                detail: format!("grant with unknown mode `{}`", e.mode),
            });
            return;
        };
        let recovered = e.rule == RuleTag::Recovered || e.detail == "recovered";

        // Semantic container modes are schema-gated: Member/Insert/Delete
        // are only sound on set/list attributes with a derivable element key
        // (`admits_semantic_modes`), because commuting distinct-element
        // operations requires the element resources those keys name.
        if mode.is_semantic() {
            if let Some(admitted) = &self.semantic_admitted {
                let target = semantic_target(&e.resource);
                let ok = target
                    .as_ref()
                    .is_some_and(|(r, p)| admitted.contains(&(r.to_string(), p.clone())));
                if !ok {
                    report.violations.push(Violation {
                        kind: ViolationKind::SemanticModeNotAdmitted,
                        txn: e.txn,
                        seq: e.seq,
                        resource: e.resource.clone(),
                        detail: match target {
                            Some((r, p)) => format!(
                                "{} on `{p}` of relation `{r}`, which does not admit \
                                 semantic modes",
                                e.mode
                            ),
                            None => format!(
                                "{} on a resource that names no container attribute",
                                e.mode
                            ),
                        },
                    });
                }
            }
        }

        // Two-phase discipline. Long transactions span sessions (their short
        // locks come and go around the persistent long locks), recovery
        // re-installs without a growing phase, `already-held` grants add no
        // lock, and the escalation optimizer trades lock grain mid-txn by
        // design — everything else must not grow after shrinking.
        if !state.long
            && state.released_any
            && !recovered
            && e.detail != "already-held"
            && e.rule != RuleTag::Escalation
        {
            report.violations.push(Violation {
                kind: ViolationKind::AcquireAfterRelease,
                txn: e.txn,
                seq: e.seq,
                resource: e.resource.clone(),
                detail: format!("{} granted after the transaction already released", e.mode),
            });
        }

        // Rules 1/2: ancestors hold the required intent before the grant.
        let proposed_rule = matches!(
            e.rule,
            RuleTag::Target
                | RuleTag::AncestorIntent
                | RuleTag::EntryPoint
                | RuleTag::EntryPointNonModifiable
        );
        if proposed_rule && !recovered {
            let need = mode.required_parent_intent();
            for anc in strict_ancestors(&e.resource) {
                let held = state.held.get(anc).copied().unwrap_or(LockMode::NL);
                // `satisfies_parent_intent`, not bare `covers`: a semantic
                // Insert/Delete on the container announces descendant writes
                // just as loudly as IX (identical conflict rows), so an
                // element X under it needs no IX conversion.
                if !held.satisfies_parent_intent(need) {
                    report.violations.push(Violation {
                        kind: ViolationKind::MissingAncestorIntent,
                        txn: e.txn,
                        seq: e.seq,
                        resource: e.resource.clone(),
                        detail: format!(
                            "ancestor `{anc}` holds {held}, but {} on the target requires {need}",
                            e.mode
                        ),
                    });
                    break;
                }
            }
        }

        // Rules 3/4 second half: entry-point grants.
        if matches!(e.rule, RuleTag::EntryPoint | RuleTag::EntryPointNonModifiable) && !recovered {
            if let Some(common) = &self.common {
                match object_root_relation(&e.resource) {
                    Some(rel) if common.contains(rel) => {}
                    Some(rel) => report.violations.push(Violation {
                        kind: ViolationKind::EntryPointMisplaced,
                        txn: e.txn,
                        seq: e.seq,
                        resource: e.resource.clone(),
                        detail: format!("`{rel}` is not a common-data relation"),
                    }),
                    None => report.violations.push(Violation {
                        kind: ViolationKind::EntryPointMisplaced,
                        txn: e.txn,
                        seq: e.seq,
                        resource: e.resource.clone(),
                        detail: "not an object root".into(),
                    }),
                }
            }
            if !state.held.values().any(|m| !m.is_intent() && *m != LockMode::NL) {
                report.violations.push(Violation {
                    kind: ViolationKind::EntryPointBeforeTarget,
                    txn: e.txn,
                    seq: e.seq,
                    resource: e.resource.clone(),
                    detail: "no non-intent lock held yet, nothing could have been dereferenced"
                        .into(),
                });
            }
            if e.rule == RuleTag::EntryPointNonModifiable && mode != LockMode::S {
                report.violations.push(Violation {
                    kind: ViolationKind::EntryPointNotWeakened,
                    txn: e.txn,
                    seq: e.seq,
                    resource: e.resource.clone(),
                    detail: format!("rule 4′ requires S on a non-modifiable entry point, got {mode}"),
                });
            }
        }

        state.held.insert(e.resource.clone(), mode);
    }

    fn check_deadlocks(&self, events: &[Event], report: &mut LintReport) {
        let dv: Vec<&Event> = events
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::DeadlockDetected | EventKind::VictimChosen)
            })
            .collect();
        let mut i = 0;
        while i < dv.len() {
            let e = dv[i];
            if e.kind == EventKind::VictimChosen {
                // A leading victim may pair with a detection before the
                // window; anywhere else it is an orphan.
                if i > 0 {
                    report.violations.push(Violation {
                        kind: ViolationKind::UnmatchedVictim,
                        txn: e.txn,
                        seq: e.seq,
                        resource: e.resource.clone(),
                        detail: "victim without a preceding detected cycle".into(),
                    });
                }
                i += 1;
                continue;
            }
            // A stale detection expects no victim (every member turned
            // runnable between snapshot and marking).
            if e.resource == "stale" {
                i += 1;
                continue;
            }
            report.deadlocks_checked += 1;
            match dv.get(i + 1) {
                Some(v) if v.kind == EventKind::VictimChosen => {
                    let cycle = parse_cycle(&e.detail);
                    if !cycle.contains(&v.txn) {
                        report.violations.push(Violation {
                            kind: ViolationKind::UnmatchedVictim,
                            txn: v.txn,
                            seq: v.seq,
                            resource: v.resource.clone(),
                            detail: format!("victim T{} is not in the cycle [{}]", v.txn, e.detail),
                        });
                    }
                    i += 2;
                }
                Some(_) => {
                    report.violations.push(Violation {
                        kind: ViolationKind::MissingVictim,
                        txn: 0,
                        seq: e.seq,
                        resource: e.resource.clone(),
                        detail: format!("cycle [{}] was never resolved", e.detail),
                    });
                    i += 1;
                }
                None => {
                    // Only flag a trailing unanswered cycle when a later
                    // *lock-manager* event proves the stream continued: the
                    // detector emits the victim while still holding every
                    // shard lock, so any lock event past the detection must
                    // have been emitted after the victim (had there been
                    // one). Transaction-layer events don't establish that
                    // ordering — they can slip between detection and victim.
                    let continued = events
                        .iter()
                        .any(|ev| ev.seq > e.seq && is_lockmgr_kind(ev.kind));
                    if continued {
                        report.violations.push(Violation {
                            kind: ViolationKind::MissingVictim,
                            txn: 0,
                            seq: e.seq,
                            resource: e.resource.clone(),
                            detail: format!("cycle [{}] was never resolved", e.detail),
                        });
                    }
                    i += 1;
                }
            }
        }
    }
}

fn check_conversion(e: &Event, state: &mut TxnState, report: &mut LintReport) {
    // Conversion detail is `"{held} -> {target}"`; the mode field carries
    // the target.
    let parsed = e.detail.split_once(" -> ").and_then(|(h, t)| {
        Some((parse_mode(h.trim())?, parse_mode(t.trim())?))
    });
    let Some((stated_held, target)) = parsed else {
        report.violations.push(Violation {
            kind: ViolationKind::MalformedEvent,
            txn: e.txn,
            seq: e.seq,
            resource: e.resource.clone(),
            detail: format!("conversion with unreadable detail `{}`", e.detail),
        });
        return;
    };
    if !target.covers(stated_held) {
        report.violations.push(Violation {
            kind: ViolationKind::IllegalConversion,
            txn: e.txn,
            seq: e.seq,
            resource: e.resource.clone(),
            detail: format!("{stated_held} -> {target} moves down the mode lattice"),
        });
    }
    if let Some(&tracked) = state.held.get(&e.resource) {
        if tracked != stated_held {
            report.violations.push(Violation {
                kind: ViolationKind::IllegalConversion,
                txn: e.txn,
                seq: e.seq,
                resource: e.resource.clone(),
                detail: format!(
                    "conversion claims {stated_held} held, but the trace shows {tracked}"
                ),
            });
        }
    }
}

fn check_release_order(e: &Event, state: &mut TxnState, report: &mut LintReport) {
    // Rule 5: within the release run answered by this marker, a descendant
    // must go before its ancestor (leaf-to-root).
    let run = &state.release_run;
    for (i, (seq, anc)) in run.iter().enumerate() {
        for (_, desc) in &run[i + 1..] {
            if is_strict_ancestor(anc, desc) {
                report.violations.push(Violation {
                    kind: ViolationKind::ReleaseOrder,
                    txn: e.txn,
                    seq: *seq,
                    resource: anc.clone(),
                    detail: format!("released before its descendant `{desc}` (rule 5)"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind, txn: u64) -> Event {
        let mut e = Event::new(kind, txn);
        e.seq = seq;
        e
    }

    fn grant(seq: u64, txn: u64, resource: &str, mode: &str, rule: RuleTag) -> Event {
        let mut e = ev(seq, EventKind::Grant, txn).resource(resource).mode(mode).detail("immediate");
        e.rule = rule;
        e
    }

    #[test]
    fn ancestor_helpers() {
        let r = "db:d/seg:s/rel:r/obj:k";
        let ancs: Vec<&str> = strict_ancestors(r).collect();
        assert_eq!(ancs, vec!["db:d", "db:d/seg:s", "db:d/seg:s/rel:r"]);
        assert!(is_strict_ancestor("db:d/seg:s", r));
        assert!(!is_strict_ancestor(r, r));
        assert!(!is_strict_ancestor("db:d/seg:sx", "db:d/seg:s/rel:r"));
        assert_eq!(object_root_relation(r), Some("r"));
        assert_eq!(object_root_relation("db:d/seg:s/rel:r"), None);
        assert_eq!(object_root_relation("db:d/seg:s/rel:r/obj:k/a"), None);
    }

    #[test]
    fn clean_hierarchical_txn_passes() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d", "IX", RuleTag::AncestorIntent),
            grant(3, 7, "db:d/seg:s", "IX", RuleTag::AncestorIntent),
            grant(4, 7, "db:d/seg:s/rel:r", "IX", RuleTag::AncestorIntent),
            grant(5, 7, "db:d/seg:s/rel:r/obj:k", "X", RuleTag::Target),
            ev(6, EventKind::Release, 7).resource("db:d/seg:s/rel:r/obj:k").mode("X"),
            ev(7, EventKind::Release, 7).resource("db:d").mode("IX"),
            ev(8, EventKind::TxnCommit, 7),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.txns_checked, 1);
        assert_eq!(report.grants_checked, 4);
    }

    /// Managers number transactions independently, so a trace spanning a
    /// server restart re-uses ids: the first incarnation's releases must not
    /// count as the second incarnation's shrinking phase.
    #[test]
    fn re_begun_txn_id_starts_a_fresh_incarnation() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d", "X", RuleTag::Target),
            ev(3, EventKind::Release, 7).resource("db:d").mode("X"),
            ev(4, EventKind::TxnCommit, 7),
            // Same id under a fresh manager (post-restart).
            ev(5, EventKind::TxnBegin, 7).detail("short"),
            grant(6, 7, "db:d", "X", RuleTag::Target),
            ev(7, EventKind::Release, 7).resource("db:d").mode("X"),
            ev(8, EventKind::TxnCommit, 7),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn missing_intent_is_flagged_with_offending_ancestor() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d/seg:s/rel:r/obj:k", "X", RuleTag::Target),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::MissingAncestorIntent);
        assert!(v.detail.contains("`db:d` holds NL"), "{}", v.detail);
    }

    #[test]
    fn weak_ancestor_mode_is_flagged() {
        // IS on the chain does not license an X below (needs IX).
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d", "IS", RuleTag::AncestorIntent),
            grant(3, 7, "db:d/seg:s", "IS", RuleTag::AncestorIntent),
            grant(4, 7, "db:d/seg:s/rel:r", "IS", RuleTag::AncestorIntent),
            grant(5, 7, "db:d/seg:s/rel:r/obj:k", "X", RuleTag::Target),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::MissingAncestorIntent);
    }

    #[test]
    fn unbegun_txns_are_not_checked() {
        // Same stream as above, but no TxnBegin in the window: wraparound
        // tolerance means no false positive.
        let events = vec![grant(2, 7, "db:d/seg:s/rel:r/obj:k", "X", RuleTag::Target)];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean());
        assert_eq!(report.txns_checked, 0);
    }

    #[test]
    fn untagged_grants_are_exempt_from_ancestor_checks() {
        let mut g = grant(2, 7, "db:d/seg:s/rel:r/obj:k", "X", RuleTag::None);
        g.rule = RuleTag::None;
        let events = vec![ev(1, EventKind::TxnBegin, 7).detail("short"), g];
        assert!(Linter::new().lint(&events).is_clean());
    }

    #[test]
    fn downgrade_conversion_is_flagged() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            ev(2, EventKind::Conversion, 7).resource("r").mode("S").detail("X -> S"),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::IllegalConversion);
    }

    #[test]
    fn conversion_held_mismatch_is_flagged() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d", "IS", RuleTag::AncestorIntent),
            ev(3, EventKind::Conversion, 7).resource("db:d").mode("SIX").detail("IX -> SIX"),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].detail.contains("trace shows IS"));
    }

    #[test]
    fn short_txn_acquire_after_release_is_flagged() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d", "IX", RuleTag::AncestorIntent),
            ev(3, EventKind::Release, 7).resource("db:d").mode("IX"),
            grant(4, 7, "db:d", "IX", RuleTag::AncestorIntent),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::AcquireAfterRelease);
    }

    /// A grant carrying the `fastpath` detail (optimistic summary-word CAS)
    /// is a normal grant to the linter: it satisfies ancestor-intent checks
    /// exactly like a shard-mutex grant and needs no exemption class.
    #[test]
    fn fastpath_grants_are_ordinary_grants() {
        let fast = |seq, txn, resource: &str, mode: &str, rule| {
            let mut e =
                ev(seq, EventKind::Grant, txn).resource(resource).mode(mode).detail("fastpath");
            e.rule = rule;
            e
        };
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            fast(2, 7, "db:d", "IX", RuleTag::AncestorIntent),
            fast(3, 7, "db:d/seg:s", "IX", RuleTag::AncestorIntent),
            fast(4, 7, "db:d/seg:s/rel:r", "IX", RuleTag::AncestorIntent),
            grant(5, 7, "db:d/seg:s/rel:r/obj:k", "X", RuleTag::Target),
            ev(6, EventKind::Release, 7).resource("db:d/seg:s/rel:r/obj:k").mode("X"),
            ev(7, EventKind::TxnCommit, 7),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.grants_checked, 4);
    }

    /// ... and being optimistic buys no indulgence: a fastpath grant inside
    /// a short transaction's shrinking phase is still two-phase breakage.
    #[test]
    fn fastpath_grant_after_release_is_still_flagged() {
        let mut g = ev(4, EventKind::Grant, 7).resource("db:d").mode("IX").detail("fastpath");
        g.rule = RuleTag::AncestorIntent;
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d", "IX", RuleTag::AncestorIntent),
            ev(3, EventKind::Release, 7).resource("db:d").mode("IX"),
            g,
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::AcquireAfterRelease);
    }

    #[test]
    fn long_txns_may_grow_after_releasing() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 9).detail("long"),
            grant(2, 9, "db:d", "IX", RuleTag::AncestorIntent),
            ev(3, EventKind::Release, 9).resource("db:d").mode("IX"),
            grant(4, 9, "db:d", "IX", RuleTag::AncestorIntent),
        ];
        assert!(Linter::new().lint(&events).is_clean());
    }

    #[test]
    fn early_release_must_go_leaf_to_root() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 9).detail("long"),
            grant(2, 9, "db:d", "IX", RuleTag::AncestorIntent),
            grant(3, 9, "db:d/seg:s", "IX", RuleTag::AncestorIntent),
            ev(4, EventKind::Release, 9).resource("db:d").mode("IX"),
            ev(5, EventKind::Release, 9).resource("db:d/seg:s").mode("IX"),
            ev(6, EventKind::TxnReleaseEarly, 9).resource("db:d/seg:s"),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::ReleaseOrder);
        assert_eq!(report.violations[0].resource, "db:d");
    }

    #[test]
    fn eot_release_order_is_unconstrained() {
        // The same root-before-leaf order, but at EOT (no marker): rule 5
        // allows any order at end of transaction.
        let events = vec![
            ev(1, EventKind::TxnBegin, 9).detail("short"),
            grant(2, 9, "db:d", "IX", RuleTag::AncestorIntent),
            grant(3, 9, "db:d/seg:s", "IX", RuleTag::AncestorIntent),
            ev(4, EventKind::Release, 9).resource("db:d").mode("IX"),
            ev(5, EventKind::Release, 9).resource("db:d/seg:s").mode("IX"),
            ev(6, EventKind::TxnCommit, 9),
        ];
        assert!(Linter::new().lint(&events).is_clean());
    }

    #[test]
    fn deadlock_without_victim_is_flagged() {
        let events = vec![
            ev(1, EventKind::DeadlockDetected, 0).detail("T3, T8"),
            ev(2, EventKind::Release, 3).resource("r").mode("X"),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::MissingVictim);
    }

    #[test]
    fn trailing_deadlock_followed_only_by_txn_markers_is_tolerated() {
        // A commit marker can slip between detection and victim (it needs no
        // shard lock), so it does not prove the victim is missing.
        let events = vec![
            ev(1, EventKind::DeadlockDetected, 0).detail("T3, T8"),
            ev(2, EventKind::TxnCommit, 5),
        ];
        assert!(Linter::new().lint(&events).is_clean());
    }

    #[test]
    fn trailing_deadlock_at_window_edge_is_tolerated() {
        let events = vec![ev(1, EventKind::DeadlockDetected, 0).detail("T3, T8")];
        assert!(Linter::new().lint(&events).is_clean());
    }

    #[test]
    fn victim_outside_cycle_is_flagged() {
        let events = vec![
            ev(1, EventKind::DeadlockDetected, 0).detail("T3, T8"),
            ev(2, EventKind::VictimChosen, 9).resource("r"),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::UnmatchedVictim);
    }

    #[test]
    fn stale_detection_expects_no_victim() {
        let events = vec![
            ev(1, EventKind::DeadlockDetected, 0).resource("stale").detail("T3, T8"),
            ev(2, EventKind::TxnCommit, 3),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.deadlocks_checked, 0);
    }

    #[test]
    fn matched_deadlock_and_victim_pass() {
        let events = vec![
            ev(1, EventKind::DeadlockDetected, 0).detail("T3, T8"),
            ev(2, EventKind::VictimChosen, 8).resource("r"),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.deadlocks_checked, 1);
    }

    #[test]
    fn entry_point_checks_use_the_common_data_set() {
        let lint = Linter::with_common_data(["effectors".to_string()]);
        // Well-formed: deref from a held X, entry point on the object root.
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d/seg:s/rel:cells/obj:c1", "X", RuleTag::Target),
            grant(3, 7, "db:d/seg:s2/rel:effectors/obj:e1", "X", RuleTag::EntryPoint),
        ];
        // (Ancestor intents elided via RuleTag granularity: use None tags.)
        let mut events = events;
        events[1].rule = RuleTag::None;
        events[2].rule = RuleTag::EntryPoint;
        let report = lint.lint(&events);
        let kinds: Vec<ViolationKind> = report.violations.iter().map(|v| v.kind).collect();
        // The entry-point grant itself still undergoes the ancestor check.
        assert_eq!(kinds, vec![ViolationKind::MissingAncestorIntent]);

        // Misplaced: entry tag on a non-common relation and a non-root.
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d/seg:s/rel:cells/obj:c1", "X", RuleTag::None),
            {
                let mut g = grant(3, 7, "db:d/seg:s/rel:cells/obj:c2", "X", RuleTag::EntryPoint);
                g.rule = RuleTag::EntryPoint;
                g
            },
        ];
        let report = lint.lint(&events);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::EntryPointMisplaced));
    }

    #[test]
    fn rule4_prime_entry_point_must_be_s() {
        let lint = Linter::with_common_data(["effectors".to_string()]);
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d/seg:s/rel:cells/obj:c1", "X", RuleTag::None),
            {
                let mut g = grant(
                    3,
                    7,
                    "db:d/seg:s2/rel:effectors/obj:e1",
                    "X",
                    RuleTag::EntryPointNonModifiable,
                );
                g.rule = RuleTag::EntryPointNonModifiable;
                g
            },
        ];
        let report = lint.lint(&events);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::EntryPointNotWeakened));
    }

    #[test]
    fn clean_snapshot_txn_passes() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("readonly"),
            ev(2, EventKind::SnapshotRead, 7).resource("cells[c1]").detail("ts=4"),
            ev(3, EventKind::SnapshotRead, 7).resource("cells[c1].robots[r1]").detail("ts=4"),
            ev(4, EventKind::TxnCommit, 7),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn snapshot_txn_acquiring_a_lock_is_flagged() {
        for kind in [EventKind::Request, EventKind::Grant, EventKind::Wait, EventKind::Release] {
            let events = vec![
                ev(1, EventKind::TxnBegin, 7).detail("readonly"),
                ev(2, kind, 7).resource("db:d").mode("S"),
            ];
            let report = Linter::new().lint(&events);
            assert_eq!(report.violations.len(), 1, "kind {kind:?}");
            assert_eq!(report.violations[0].kind, ViolationKind::SnapshotTxnLocked);
        }
    }

    #[test]
    fn snapshot_read_from_locking_txn_is_flagged() {
        for begin_detail in ["short", "long", "readonly-locking"] {
            let events = vec![
                ev(1, EventKind::TxnBegin, 7).detail(begin_detail),
                ev(2, EventKind::SnapshotRead, 7).resource("cells[c1]").detail("ts=4"),
            ];
            let report = Linter::new().lint(&events);
            assert_eq!(report.violations.len(), 1, "begin {begin_detail}");
            assert_eq!(
                report.violations[0].kind,
                ViolationKind::SnapshotReadOutsideSnapshotTxn
            );
        }
    }

    /// The MVCC-off fallback reader begins `readonly-locking` and
    /// reads through ordinary S locks — that is legal, not a violation.
    #[test]
    fn readonly_locking_fallback_may_lock() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("readonly-locking"),
            grant(2, 7, "db:d", "IS", RuleTag::AncestorIntent),
            ev(3, EventKind::Release, 7).resource("db:d").mode("IS"),
            ev(4, EventKind::TxnCommit, 7),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
    }

    /// Ring-wraparound tolerance extends to the snapshot rules: a lock event
    /// from a txn whose begin is outside the window is not flagged.
    #[test]
    fn snapshot_rules_skip_unbegun_txns() {
        let events = vec![ev(2, EventKind::SnapshotRead, 7).resource("cells[c1]").detail("ts=4")];
        assert!(Linter::new().lint(&events).is_clean());
    }

    #[test]
    fn render_with_context_appends_timelines() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d/seg:s/rel:r/obj:k", "X", RuleTag::Target),
        ];
        let report = Linter::new().lint(&events);
        let rendered = report.render_with_context(&events);
        assert!(rendered.contains("missing-ancestor-intent"));
        assert!(rendered.contains("timeline of T7"));
    }

    /// A semantic Insert on the container licenses an element X below it
    /// without an IX conversion (`satisfies_parent_intent`): the protocol's
    /// commutativity win must lint clean.
    #[test]
    fn semantic_insert_licenses_element_x_below() {
        let obj = "db:d/seg:s/rel:r/obj:k";
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d", "IX", RuleTag::AncestorIntent),
            grant(3, 7, "db:d/seg:s", "IX", RuleTag::AncestorIntent),
            grant(4, 7, "db:d/seg:s/rel:r", "IX", RuleTag::AncestorIntent),
            grant(5, 7, obj, "IX", RuleTag::AncestorIntent),
            grant(6, 7, &format!("{obj}/attr:members"), "IN", RuleTag::AncestorIntent),
            grant(7, 7, &format!("{obj}/attr:members/elem:9"), "X", RuleTag::Target),
            ev(8, EventKind::TxnCommit, 7),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
    }

    /// A Member grant on the container does *not* license element writes —
    /// it reads like IS, so an X below still demands a write intent.
    #[test]
    fn member_does_not_license_element_x() {
        let obj = "db:d/seg:s/rel:r/obj:k";
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d", "IX", RuleTag::AncestorIntent),
            grant(3, 7, "db:d/seg:s", "IX", RuleTag::AncestorIntent),
            grant(4, 7, "db:d/seg:s/rel:r", "IX", RuleTag::AncestorIntent),
            grant(5, 7, obj, "IX", RuleTag::AncestorIntent),
            grant(6, 7, &format!("{obj}/attr:members"), "MB", RuleTag::AncestorIntent),
            grant(7, 7, &format!("{obj}/attr:members/elem:9"), "X", RuleTag::Target),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1, "{}", report.render());
        assert_eq!(report.violations[0].kind, ViolationKind::MissingAncestorIntent);
    }

    /// Mutation test: a manager granting an Insert and a Member that touch
    /// the *same element key* hands out X and S on the same element
    /// resource concurrently — the linter must flag the collision.
    #[test]
    fn conflicting_insert_member_on_same_element_key_is_flagged() {
        let obj = "db:d/seg:s/rel:r/obj:k";
        let elem = format!("{obj}/attr:members/elem:9");
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            ev(2, EventKind::TxnBegin, 8).detail("short"),
            grant(3, 7, obj, "IN", RuleTag::None),
            grant(4, 8, obj, "MB", RuleTag::None),
            // T7 inserts element 9 (X), the buggy manager then grants T8's
            // membership probe (S) on the same element while X is live.
            grant(5, 7, &elem, "X", RuleTag::None),
            grant(6, 8, &elem, "S", RuleTag::None),
        ];
        let report = Linter::new().lint(&events);
        let kinds: Vec<ViolationKind> = report.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec![ViolationKind::ConflictingGrants], "{}", report.render());
        assert!(report.violations[0].detail.contains("T7 holds X"), "{}", report.render());
    }

    /// Commuting Inserts on the same container with *distinct* element keys
    /// lint clean: the container grants commute and the element X locks are
    /// disjoint.
    #[test]
    fn commuting_inserts_on_distinct_elements_lint_clean() {
        let obj = "db:d/seg:s/rel:r/obj:k";
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            ev(2, EventKind::TxnBegin, 8).detail("short"),
            grant(3, 7, obj, "IN", RuleTag::None),
            grant(4, 8, obj, "IN", RuleTag::None),
            grant(5, 7, &format!("{obj}/attr:members/elem:1"), "X", RuleTag::None),
            grant(6, 8, &format!("{obj}/attr:members/elem:2"), "X", RuleTag::None),
            ev(7, EventKind::Release, 7).resource(format!("{obj}/attr:members/elem:1")).mode("X"),
            ev(8, EventKind::Release, 8).resource(format!("{obj}/attr:members/elem:2")).mode("X"),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
    }

    fn semantic_catalog() -> Catalog {
        use colock_nf2::types::shorthand::*;
        use colock_nf2::{DatabaseBuilder, RelationBuilder};
        let db = DatabaseBuilder::new("d")
            .segment("s")
            .relation(
                RelationBuilder::new("cells", "s")
                    .attr("cell_id", str_())
                    // Keyed tuple elements: admits semantic modes.
                    .attr("objs", set(tuple(vec![attr("obj_id", str_()), attr("nm", str_())])))
                    // Real elements carry no derivable key: rejected.
                    .attr("scores", set(real_()))
                    .finish(),
            )
            .finish()
            .expect("schema validates");
        Catalog::new(db).expect("catalog builds")
    }

    /// Mutation case for the PR 9 planner contract: a semantic mode used on
    /// an attribute whose schema `admits_semantic_modes` rejects must be
    /// flagged — on every semantic mode — while an admitted path stays clean
    /// and a schema-free linter leaves admission unchecked.
    #[test]
    fn semantic_mode_on_non_admitting_schema_is_flagged() {
        let linter = Linter::with_catalog(&semantic_catalog());
        let ok = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d/seg:s/rel:cells/obj:k/objs", "IN", RuleTag::None),
        ];
        let report = linter.lint(&ok);
        assert!(report.is_clean(), "{}", report.render());
        for mode in ["MB", "IN", "DL"] {
            let bad = vec![
                ev(1, EventKind::TxnBegin, 7).detail("short"),
                grant(2, 7, "db:d/seg:s/rel:cells/obj:k/scores", mode, RuleTag::None),
            ];
            let report = linter.lint(&bad);
            let kinds: Vec<ViolationKind> =
                report.violations.iter().map(|v| v.kind).collect();
            assert_eq!(
                kinds,
                vec![ViolationKind::SemanticModeNotAdmitted],
                "{mode}: {}",
                report.render()
            );
            assert!(report.violations[0].detail.contains("scores"), "{}", report.render());
            // Schema-free linting cannot check admission.
            assert!(Linter::new().lint(&bad).is_clean());
        }
        // A semantic grant that names no container attribute at all.
        let bad = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "db:d/seg:s/rel:cells/obj:k", "IN", RuleTag::None),
        ];
        let report = linter.lint(&bad);
        assert_eq!(report.violations.len(), 1, "{}", report.render());
        assert_eq!(report.violations[0].kind, ViolationKind::SemanticModeNotAdmitted);
    }

    /// The dotted path skips `elem:` components: a nested container below a
    /// keyed element is resolved as `objs.inner`, not flagged as unknown.
    #[test]
    fn semantic_admission_resolves_through_element_components() {
        use colock_nf2::types::shorthand::*;
        use colock_nf2::{DatabaseBuilder, RelationBuilder};
        let db = DatabaseBuilder::new("d")
            .segment("s")
            .relation(
                RelationBuilder::new("cells", "s")
                    .attr("cell_id", str_())
                    .attr(
                        "objs",
                        set(tuple(vec![
                            attr("obj_id", str_()),
                            attr("tags", set(str_())),   // admitted (string elements)
                            attr("weights", list(real_())), // rejected (no key)
                        ])),
                    )
                    .finish(),
            )
            .finish()
            .expect("schema validates");
        let linter = Linter::with_catalog(&Catalog::new(db).expect("catalog builds"));
        let base = "db:d/seg:s/rel:cells/obj:k/objs/[e1]";
        let ok = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, &format!("{base}/tags"), "IN", RuleTag::None),
        ];
        assert!(linter.lint(&ok).is_clean(), "{}", linter.lint(&ok).render());
        let bad = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, &format!("{base}/weights"), "DL", RuleTag::None),
        ];
        let report = linter.lint(&bad);
        assert_eq!(report.violations.len(), 1, "{}", report.render());
        assert_eq!(report.violations[0].kind, ViolationKind::SemanticModeNotAdmitted);
        assert!(report.violations[0].detail.contains("objs.weights"), "{}", report.render());
    }

    /// Mutation case for rules 1/2 over the semantic row: an `Insert` on the
    /// container requires IX-strength intent on every ancestor — an IS chain
    /// (or a bare chain) must be flagged, an IX chain passes, and a sibling
    /// `Insert` on the *parent* container satisfies the requirement too
    /// (`satisfies_parent_intent`).
    #[test]
    fn insert_without_parent_ix_is_flagged() {
        let container = "db:d/seg:s/rel:r/obj:k/members";
        let chain = |m: &str, seq0: u64| {
            vec![
                grant(seq0, 7, "db:d", m, RuleTag::AncestorIntent),
                grant(seq0 + 1, 7, "db:d/seg:s", m, RuleTag::AncestorIntent),
                grant(seq0 + 2, 7, "db:d/seg:s/rel:r", m, RuleTag::AncestorIntent),
                grant(seq0 + 3, 7, "db:d/seg:s/rel:r/obj:k", m, RuleTag::AncestorIntent),
            ]
        };
        // IS ancestors do not license an Insert below.
        let mut events = vec![ev(1, EventKind::TxnBegin, 7).detail("short")];
        events.extend(chain("IS", 2));
        events.push(grant(6, 7, container, "IN", RuleTag::Target));
        let report = Linter::new().lint(&events);
        let kinds: Vec<ViolationKind> = report.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec![ViolationKind::MissingAncestorIntent], "{}", report.render());
        assert!(report.violations[0].detail.contains("requires IX"), "{}", report.render());

        // No ancestor intent at all is flagged at the database root.
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, container, "IN", RuleTag::Target),
        ];
        let report = Linter::new().lint(&events);
        assert_eq!(report.violations.len(), 1, "{}", report.render());
        assert_eq!(report.violations[0].kind, ViolationKind::MissingAncestorIntent);
        assert!(report.violations[0].detail.contains("`db:d` holds NL"), "{}", report.render());

        // An IX chain licenses it.
        let mut events = vec![ev(1, EventKind::TxnBegin, 7).detail("short")];
        events.extend(chain("IX", 2));
        events.push(grant(6, 7, container, "IN", RuleTag::Target));
        assert!(Linter::new().lint(&events).is_clean());

        // A semantic Insert on the parent container announces descendant
        // writes as loudly as IX: an element X below needs no conversion.
        let mut events = vec![ev(1, EventKind::TxnBegin, 7).detail("short")];
        events.extend(chain("IX", 2));
        events.push(grant(6, 7, container, "IN", RuleTag::Target));
        events.push(grant(7, 7, &format!("{container}/[9]"), "X", RuleTag::Target));
        assert!(Linter::new().lint(&events).is_clean());
    }

    /// Sequential reuse of a resource by incompatible modes is clean as long
    /// as the release separates them — and a re-begun incarnation drops any
    /// holdings its killed predecessor never released.
    #[test]
    fn conflicting_grants_respects_releases_and_incarnations() {
        let events = vec![
            ev(1, EventKind::TxnBegin, 7).detail("short"),
            grant(2, 7, "r", "X", RuleTag::None),
            ev(3, EventKind::Release, 7).resource("r").mode("X"),
            ev(4, EventKind::TxnBegin, 8).detail("short"),
            grant(5, 8, "r", "X", RuleTag::None),
            // T8 is killed (no release traced); its re-begun incarnation
            // must not leave a phantom X behind.
            ev(6, EventKind::TxnBegin, 8).detail("short"),
            grant(7, 8, "q", "S", RuleTag::None),
            ev(8, EventKind::TxnBegin, 9).detail("short"),
            grant(9, 9, "r", "X", RuleTag::None),
        ];
        let report = Linter::new().lint(&events);
        assert!(report.is_clean(), "{}", report.render());
    }
}
