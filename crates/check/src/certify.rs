//! Trace serializability certification.
//!
//! The [`lint`](crate::lint) module replays the §4.4.2 protocol rules per
//! transaction; this module proves the property those rules exist for:
//! **conflict serializability of the whole trace**. It reconstructs the
//! serialization (conflict) graph from a recorded event stream and runs
//! cycle detection — an acyclic graph certifies the run equivalent to some
//! serial order, independently of *how* the engine scheduled it.
//!
//! # Edge rules
//!
//! Nodes are committed transaction incarnations (a `TxnBegin` re-using an id
//! starts a new incarnation; aborted or unfinished transactions are excluded,
//! as classical serializability theory prescribes — their effects are undone).
//! Grants open per-`(txn, resource)` lock *instances*, releases close them, a
//! conversion re-grant closes the old instance and opens one in the joined
//! mode. Two instances of different transactions **conflict** when their
//! lock-mode footprints collide under the multi-granularity interpretation:
//!
//! - equal resource: the modes are incompatible (`!m1.compatible(m2)`);
//! - strict ancestor A over descendant D: the ancestor's *implicit*
//!   descendant mode collides (`!mA.implicit_descendant().compatible(mD)`) —
//!   S/SIX imply S below, X implies X below, intents imply nothing. This is
//!   exactly why distinct-element `Insert`/`Insert` grants on one container
//!   commute (no edge: `Insert` implies nothing below and the element X
//!   locks land on different paths), while a same-element collision
//!   materializes as X-vs-S on that element's path and produces an edge.
//!
//! A conflict where the earlier instance was released before the later grant
//! orders the two transactions (edge *earlier → later*). Instances still
//! open at the later grant *overlap*, and fall into three cases:
//!
//! - the prior holder had already entered its **release phase** (its first
//!   release precedes the grant and none of its grants follow that first
//!   release): `release_all` at commit drops locks shard by shard, so a
//!   conflicting grant can legally land between the holder's ancestor-intent
//!   releases and its remaining descendant releases. The holder is past its
//!   lock point, so the overlap is ordered *prior → new*. Conversion
//!   closures do not count as releases here — a conversion ends the
//!   old-mode instance while the lock is still held, squarely inside the
//!   growing phase (the engine guarantees the other half of the evidence:
//!   an optimistic release is traced *before* the summary decrement that
//!   admits a rival, so a traced first release never lags the grants it
//!   enabled);
//! - **optimistic** (fast-path) instances publish by summary CAS and emit
//!   their `Grant` events outside any ordering with a rival's pessimistic
//!   decision, so their trace positions are unreliable against conflicting
//!   grants; the overlap adds only the *earlier → later* edge. That is an
//!   under-approximation (it can miss a cycle a truly broken fast path
//!   would create, never invent one), and the differential suite covers
//!   the fast path independently;
//! - any other pessimistic overlap means the manager granted **through a
//!   live conflict**: edges are added in *both* directions, forcing a cycle
//!   (a certification failure — this is how a broken compatibility matrix,
//!   e.g. write skew under commuting semantic modes, is caught even when
//!   every per-transaction rule holds).
//!
//! # MVCC reads
//!
//! Snapshot readers never appear in the lock table, so lock instances cannot
//! order them. They are ordered by **version timestamp** instead: a
//! `SnapshotRead` at snapshot ts *T* of an object root takes a reads-from
//! edge from every committed writer of that root whose commit ts ≤ *T*. No
//! anti-dependency edge is drawn to later writers the reader did not
//! observe: the snapshot protocol serializes the reader before them by
//! construction, and adding only reads-from edges leaves readers with no
//! outgoing edges at all — a snapshot reader can never be part of a cycle,
//! which is precisely PR 7's zero-wait guarantee restated graph-side.
//!
//! # Cooperative (rule 5) cycles
//!
//! Long transactions release targets early by design (§4.4.2 rule 5): the
//! paper trades strict serializability for cooperative design sessions.
//! A cycle whose members include a long (or crash-recovered, or
//! before-window) transaction is therefore reported as a **cooperative
//! advisory**, not a violation; only cycles made entirely of short and
//! snapshot transactions fail certification.

use crate::lint::{involves_txn, is_strict_ancestor, strict_ancestors};
use colock_lockmgr::LockMode;
use colock_trace::{dot_escape, explain, Event, EventKind};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::ops::Bound;

/// One committed transaction incarnation — a node of the conflict graph.
///
/// Managers number transactions independently, so a trace spanning a server
/// restart legitimately re-uses ids; each `TxnBegin` after the first bumps
/// the incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnNode {
    /// Raw transaction id as traced.
    pub txn: u64,
    /// 0 for the first appearance of the id inside the window.
    pub incarnation: u32,
}

impl fmt::Display for TxnNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.incarnation == 0 {
            write!(f, "T{}", self.txn)
        } else {
            write!(f, "T{}#{}", self.txn, self.incarnation)
        }
    }
}

/// How a node's transaction was begun — decides cycle classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeClass {
    /// Begun `short` or `readonly-locking` inside the window: full 2PL.
    Short,
    /// Begun `long`, or crash-recovered: rule 5 early release applies.
    Long,
    /// Begun `readonly` (MVCC snapshot reader): zero locks.
    Snapshot,
    /// Began before the window opened — its early history is unknown, so a
    /// cycle through it cannot be blamed on the engine.
    Unknown,
}

/// One conflict-graph edge, anchored to the event that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictEdge {
    /// Serialized-before endpoint.
    pub from: TxnNode,
    /// Serialized-after endpoint.
    pub to: TxnNode,
    /// Sequence number of the grant / read that created the edge.
    pub seq: u64,
    /// Human-readable conflict description.
    pub why: String,
}

/// A strongly connected component of size ≥ 2: a serialization cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictCycle {
    /// The cycle members, ascending.
    pub members: Vec<TxnNode>,
    /// Whether a long / recovered / before-window member makes this a rule 5
    /// cooperative advisory rather than a violation.
    pub cooperative: bool,
    /// Every recorded edge between two members, by `seq`.
    pub edges: Vec<ConflictEdge>,
}

impl ConflictCycle {
    /// Graphviz rendering of the cycle: members as red ellipses (orange for
    /// cooperative advisories), one labelled edge per recorded conflict.
    pub fn to_dot(&self) -> String {
        let color = if self.cooperative { "orange" } else { "red" };
        let mut out = String::from("digraph conflict_cycle {\n  rankdir=LR;\n");
        for m in &self.members {
            out.push_str(&format!("  \"{m}\" [color={color}];\n"));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
                e.from,
                e.to,
                dot_escape(&e.why)
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Result of a certification run.
#[derive(Debug, Clone, Default)]
pub struct CertifyReport {
    /// Events examined.
    pub events_seen: usize,
    /// Committed transaction incarnations (conflict-graph nodes).
    pub txns_committed: usize,
    /// Grant events replayed into lock instances.
    pub grants_replayed: usize,
    /// Snapshot reads ordered by version timestamp.
    pub reads_checked: usize,
    /// Distinct conflict edges between committed nodes.
    pub edges: usize,
    /// Events whose mode/detail could not be interpreted.
    pub malformed: usize,
    /// Every strongly connected component of size ≥ 2, violations first.
    pub cycles: Vec<ConflictCycle>,
}

impl CertifyReport {
    /// Whether the trace is conflict serializable (no non-cooperative
    /// cycle). Cooperative advisories do not fail certification.
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
    }

    /// Cycles made entirely of short/snapshot transactions: real
    /// serializability violations.
    pub fn violations(&self) -> impl Iterator<Item = &ConflictCycle> {
        self.cycles.iter().filter(|c| !c.cooperative)
    }

    /// Rule 5 cooperative cycles (long / recovered / before-window member).
    pub fn advisories(&self) -> impl Iterator<Item = &ConflictCycle> {
        self.cycles.iter().filter(|c| c.cooperative)
    }

    /// One line per cycle plus a summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for c in &self.cycles {
            let kind = if c.cooperative { "cooperative cycle" } else { "VIOLATION" };
            let members =
                c.members.iter().map(|m| m.to_string()).collect::<Vec<_>>().join(", ");
            let _ = writeln!(out, "[{kind}] cycle of {{{members}}}:");
            for e in c.edges.iter().take(16) {
                let _ = writeln!(out, "  {} -> {} (seq={}): {}", e.from, e.to, e.seq, e.why);
            }
            if c.edges.len() > 16 {
                let _ = writeln!(out, "  … {} more edge(s)", c.edges.len() - 16);
            }
        }
        let _ = writeln!(
            out,
            "certified {} event(s): {} committed txn(s), {} grant(s), {} snapshot read(s), \
             {} edge(s): {} violation(s), {} cooperative cycle(s)",
            self.events_seen,
            self.txns_committed,
            self.grants_replayed,
            self.reads_checked,
            self.edges,
            self.violations().count(),
            self.advisories().count(),
        );
        out
    }

    /// [`CertifyReport::render`] followed by, per violating cycle, the
    /// explain timeline of its members and the DOT export — a cycle can be
    /// read in full context.
    pub fn render_with_context(&self, events: &[Event]) -> String {
        use std::fmt::Write;
        let mut out = self.render();
        for c in self.cycles.iter().filter(|c| !c.cooperative) {
            let ids: HashSet<u64> = c.members.iter().map(|m| m.txn).collect();
            let scoped: Vec<Event> = events
                .iter()
                .filter(|e| ids.contains(&e.txn) || ids.iter().any(|&t| involves_txn(e, t)))
                .cloned()
                .collect();
            let members =
                c.members.iter().map(|m| m.to_string()).collect::<Vec<_>>().join(", ");
            let _ = writeln!(out, "--- timeline of cycle {{{members}}} ---");
            out.push_str(&explain::render_timeline(&explain::timeline(&scoped)));
            out.push_str(&c.to_dot());
        }
        out
    }
}

/// All nine modes, indexable by [`mode_idx`].
const MODES: [LockMode; 9] = [
    LockMode::NL,
    LockMode::IS,
    LockMode::Member,
    LockMode::Insert,
    LockMode::Delete,
    LockMode::IX,
    LockMode::S,
    LockMode::SIX,
    LockMode::X,
];

fn mode_idx(m: LockMode) -> usize {
    match m {
        LockMode::NL => 0,
        LockMode::IS => 1,
        LockMode::Member => 2,
        LockMode::Insert => 3,
        LockMode::Delete => 4,
        LockMode::IX => 5,
        LockMode::S => 6,
        LockMode::SIX => 7,
        LockMode::X => 8,
    }
}

/// One granted lock instance: the half-open `[grant, release)` life of a
/// `(txn, resource, mode)` holding.
#[derive(Debug, Clone)]
struct Instance {
    node: TxnNode,
    optimistic: bool,
    seq: u64,
    release_seq: Option<u64>,
    /// The instance ended because its owner converted to a stronger mode
    /// (the lock itself is still held): not evidence of a shrinking phase,
    /// so [`resolve_overlaps`] must ignore it when locating the owner's
    /// first real release.
    converted: bool,
}

/// Per-resource instance store, bucketed by mode so a new grant only scans
/// buckets whose mode can actually conflict with it.
#[derive(Default)]
struct ResSlot {
    by_mode: [Vec<u32>; 9],
}

/// `Some(first-four-components)` when `resource` sits at or below an object
/// root `db:…/seg:…/rel:…/obj:…`.
fn object_root(resource: &str) -> Option<&str> {
    let mut slashes = resource.char_indices().filter(|&(_, c)| c == '/');
    let (a, b, c) = (slashes.next()?, slashes.next()?, slashes.next()?);
    let end = slashes.next().map(|(i, _)| i).unwrap_or(resource.len());
    let comps = [&resource[..a.0], &resource[a.0 + 1..b.0], &resource[b.0 + 1..c.0]];
    if comps[0].starts_with("db:")
        && comps[1].starts_with("seg:")
        && comps[2].starts_with("rel:")
        && resource[c.0 + 1..end].starts_with("obj:")
    {
        Some(&resource[..end])
    } else {
        None
    }
}

/// Parses a `ts=N` event detail.
fn parse_ts(detail: &str) -> Option<u64> {
    detail.strip_prefix("ts=")?.parse().ok()
}

/// The serializability certifier. See the [module docs](self) for the edge
/// rules it applies.
///
/// ```
/// use colock_check::Certifier;
/// use colock_trace::{Event, EventKind};
/// let mut events = vec![
///     Event::new(EventKind::TxnBegin, 1).detail("short"),
///     Event::new(EventKind::Grant, 1).mode("X").resource("r").detail("immediate"),
///     Event::new(EventKind::Release, 1).mode("X").resource("r"),
///     Event::new(EventKind::TxnCommit, 1),
///     Event::new(EventKind::TxnBegin, 2).detail("short"),
///     Event::new(EventKind::Grant, 2).mode("X").resource("r").detail("immediate"),
///     Event::new(EventKind::Release, 2).mode("X").resource("r"),
///     Event::new(EventKind::TxnCommit, 2),
/// ];
/// for (i, e) in events.iter_mut().enumerate() {
///     e.seq = i as u64;
/// }
/// let report = Certifier::new().certify(&events);
/// assert!(report.is_clean());
/// assert_eq!(report.edges, 1); // T1 → T2 on r
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Certifier;

impl Certifier {
    /// Constructs a certifier.
    pub fn new() -> Self {
        Certifier
    }

    /// Reconstructs the conflict graph of `events` (sequence-ordered, as the
    /// ring or a trace file produces them) and reports every cycle.
    pub fn certify(&self, events: &[Event]) -> CertifyReport {
        let mut report = CertifyReport { events_seen: events.len(), ..Default::default() };

        let mut incarnation: HashMap<u64, u32> = HashMap::new();
        let mut class: HashMap<TxnNode, NodeClass> = HashMap::new();
        let mut committed: HashMap<TxnNode, Option<u64>> = HashMap::new();
        let mut instances: Vec<Instance> = Vec::new();
        let mut slots: BTreeMap<String, ResSlot> = BTreeMap::new();
        // Open instance index per (txn, resource) — one incarnation of an id
        // is ever live at a time.
        let mut open: HashMap<u64, HashMap<String, u32>> = HashMap::new();
        let mut edges: HashMap<(TxnNode, TxnNode), (u64, String)> = HashMap::new();
        // Pessimistic overlaps parked until the whole trace is read; see
        // `resolve_overlaps`.
        let mut overlaps: HashMap<(TxnNode, TxnNode), (u64, String)> = HashMap::new();
        // (reader, object root, snapshot ts, seq).
        let mut snap_reads: Vec<(TxnNode, String, u64, u64)> = Vec::new();

        let node_of = |inc: &HashMap<u64, u32>, txn: u64| TxnNode {
            txn,
            incarnation: inc.get(&txn).copied().unwrap_or(0),
        };

        for e in events {
            if e.txn == 0 {
                continue; // detector-level events carry no owner
            }
            match e.kind {
                EventKind::TxnBegin => {
                    // A re-begun id is a fresh incarnation: close whatever
                    // the previous one still had open (a killed server may
                    // never have traced its releases).
                    let fresh = !incarnation.contains_key(&e.txn);
                    if let Some(prior) = open.remove(&e.txn) {
                        for (_, idx) in prior {
                            instances[idx as usize].release_seq = Some(e.seq);
                        }
                    }
                    let inc = incarnation.entry(e.txn).or_insert(0);
                    if !fresh {
                        *inc += 1;
                    }
                    let cls = match e.detail.as_str() {
                        "long" => NodeClass::Long,
                        "readonly" => NodeClass::Snapshot,
                        _ => NodeClass::Short,
                    };
                    class.insert(TxnNode { txn: e.txn, incarnation: *inc }, cls);
                }
                EventKind::TxnRecovered => {
                    incarnation.entry(e.txn).or_insert(0);
                    class.insert(node_of(&incarnation, e.txn), NodeClass::Long);
                }
                EventKind::Grant => {
                    let Some(mode) = LockMode::parse(&e.mode) else {
                        report.malformed += 1;
                        continue;
                    };
                    if e.detail == "already-held" || mode == LockMode::NL {
                        continue; // no new rights were granted
                    }
                    incarnation.entry(e.txn).or_insert(0);
                    let node = node_of(&incarnation, e.txn);
                    report.grants_replayed += 1;
                    // A re-grant on a held resource is a conversion: the old
                    // instance ends here and the joined mode starts a new
                    // one, so a later conflict is attributed to the phase
                    // that actually overlapped it.
                    if let Some(idx) =
                        open.get_mut(&e.txn).and_then(|m| m.remove(&e.resource))
                    {
                        instances[idx as usize].release_seq = Some(e.seq);
                        instances[idx as usize].converted = true;
                    }
                    let optimistic = e.detail == "fastpath";
                    scan_conflicts(
                        &mut edges, &mut overlaps, &instances, &slots, node, &e.resource,
                        mode, optimistic, e.seq,
                    );
                    let idx = instances.len() as u32;
                    instances.push(Instance {
                        node,
                        optimistic,
                        seq: e.seq,
                        release_seq: None,
                        converted: false,
                    });
                    slots
                        .entry(e.resource.clone())
                        .or_default()
                        .by_mode[mode_idx(mode)]
                        .push(idx);
                    open.entry(e.txn).or_default().insert(e.resource.clone(), idx);
                }
                EventKind::Release => {
                    if let Some(idx) =
                        open.get_mut(&e.txn).and_then(|m| m.remove(&e.resource))
                    {
                        instances[idx as usize].release_seq = Some(e.seq);
                    }
                }
                EventKind::SnapshotRead => {
                    incarnation.entry(e.txn).or_insert(0);
                    let node = node_of(&incarnation, e.txn);
                    report.reads_checked += 1;
                    match (parse_ts(&e.detail), object_root(&e.resource)) {
                        (Some(ts), Some(root)) => {
                            snap_reads.push((node, root.to_string(), ts, e.seq));
                        }
                        (None, _) => report.malformed += 1,
                        // A read above object level resolves no version
                        // chain; nothing to order.
                        (_, None) => {}
                    }
                }
                EventKind::TxnCommit => {
                    incarnation.entry(e.txn).or_insert(0);
                    committed.insert(node_of(&incarnation, e.txn), parse_ts(&e.detail));
                }
                _ => {}
            }
        }

        resolve_overlaps(&mut edges, overlaps, &instances);

        // MVCC reads-from edges: index committed version-installing writers
        // by the object roots their X instances cover, then order each
        // snapshot read against them by timestamp.
        if !snap_reads.is_empty() {
            let mut by_root: HashMap<&str, HashMap<TxnNode, u64>> = HashMap::new();
            // X locks above object level (escalation) cover every object of
            // the subtree; matched by prefix below.
            let mut broad: Vec<(&str, TxnNode, u64)> = Vec::new();
            for (resource, slot) in &slots {
                for &idx in &slot.by_mode[mode_idx(LockMode::X)] {
                    let inst = &instances[idx as usize];
                    let Some(&Some(ts)) = committed.get(&inst.node) else {
                        continue;
                    };
                    match object_root(resource) {
                        Some(root) => {
                            by_root.entry(root).or_default().insert(inst.node, ts);
                        }
                        None => broad.push((resource.as_str(), inst.node, ts)),
                    }
                }
            }
            for (reader, root, snap_ts, seq) in &snap_reads {
                let writers = by_root.get(root.as_str()).into_iter().flatten();
                let broad_writers = broad
                    .iter()
                    .filter(|(r, _, _)| is_strict_ancestor(r, root))
                    .map(|(_, w, ts)| (w, ts));
                for (w, ts) in writers.chain(broad_writers) {
                    if w.txn == reader.txn || *ts > *snap_ts {
                        continue; // unobserved later version: no anti-dependency
                    }
                    edges.entry((*w, *reader)).or_insert_with(|| {
                        (*seq, format!("reads-from {root}: version ts={ts} ≤ snapshot ts={snap_ts}"))
                    });
                }
            }
        }

        // Graph over committed nodes only.
        let mut nodes: Vec<TxnNode> = committed.keys().copied().collect();
        nodes.sort_unstable();
        report.txns_committed = nodes.len();
        let idx_of: HashMap<TxnNode, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut kept_edges: Vec<((TxnNode, TxnNode), (u64, String))> = Vec::new();
        for ((a, b), info) in edges {
            if let (Some(&ia), Some(&ib)) = (idx_of.get(&a), idx_of.get(&b)) {
                adj[ia].push(ib);
                kept_edges.push(((a, b), info));
            }
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        report.edges = kept_edges.len();

        for scc in tarjan_sccs(&adj) {
            if scc.len() < 2 {
                continue;
            }
            let mut members: Vec<TxnNode> = scc.iter().map(|&i| nodes[i]).collect();
            members.sort_unstable();
            let member_set: HashSet<TxnNode> = members.iter().copied().collect();
            let cooperative = members.iter().any(|m| {
                !matches!(
                    class.get(m).copied().unwrap_or(NodeClass::Unknown),
                    NodeClass::Short | NodeClass::Snapshot
                )
            });
            let mut cycle_edges: Vec<ConflictEdge> = kept_edges
                .iter()
                .filter(|((a, b), _)| member_set.contains(a) && member_set.contains(b))
                .map(|((from, to), (seq, why))| ConflictEdge {
                    from: *from,
                    to: *to,
                    seq: *seq,
                    why: why.clone(),
                })
                .collect();
            cycle_edges.sort_unstable_by_key(|e| e.seq);
            report.cycles.push(ConflictCycle { members, cooperative, edges: cycle_edges });
        }
        report.cycles.sort_by_key(|c| (c.cooperative, c.members.clone()));
        report
    }
}

/// Records every conflict between a new grant and the recorded instances,
/// applying the edge-direction rules from the [module docs](self).
/// Non-optimistic overlaps cannot be oriented until the whole trace is read
/// (the prior holder may already be inside its commit release), so they are
/// parked in `overlaps` and resolved by [`resolve_overlaps`].
#[allow(clippy::too_many_arguments)]
fn scan_conflicts(
    edges: &mut HashMap<(TxnNode, TxnNode), (u64, String)>,
    overlaps: &mut HashMap<(TxnNode, TxnNode), (u64, String)>,
    instances: &[Instance],
    slots: &BTreeMap<String, ResSlot>,
    node: TxnNode,
    resource: &str,
    mode: LockMode,
    optimistic: bool,
    seq: u64,
) {
    let mut add = |prior: &Instance, prior_res: &str, prior_eff: LockMode, new_eff: LockMode| {
        if prior.node == node {
            return;
        }
        let released = prior.release_seq.is_some();
        let why = move || format!("{prior_eff}@{prior_res} vs {new_eff}@{resource}");
        if released || prior.optimistic || optimistic {
            // Ordered (or optimistic release lag): earlier → later only.
            let reason = if released { "released before" } else { "optimistic overlap" };
            edges
                .entry((prior.node, node))
                .or_insert_with(|| (seq, format!("{} ({reason})", why())));
        } else {
            // Two pessimistic instances holding incompatible footprints at
            // once: either the prior holder is mid-way through its commit
            // release (legal, ordered) or the manager granted through a
            // live conflict (a violation). Decided at the end of the trace.
            overlaps.entry((prior.node, node)).or_insert_with(|| (seq, why()));
        }
    };

    // Equal resource: direct incompatibility.
    if let Some(slot) = slots.get(resource) {
        for (mi, bucket) in MODES.iter().zip(&slot.by_mode) {
            if mode.compatible(*mi) {
                continue;
            }
            for &idx in bucket {
                add(&instances[idx as usize], resource, *mi, mode);
            }
        }
    }
    // Ancestors: their implicit descendant mode reaches down to this grant.
    for anc in strict_ancestors(resource) {
        if let Some(slot) = slots.get(anc) {
            for (mi, bucket) in MODES.iter().zip(&slot.by_mode) {
                let eff = mi.implicit_descendant();
                if eff == LockMode::NL || eff.compatible(mode) {
                    continue;
                }
                for &idx in bucket {
                    add(&instances[idx as usize], anc, eff, mode);
                }
            }
        }
    }
    // Descendants: only S/SIX/X grants reach below themselves.
    let eff = mode.implicit_descendant();
    if eff != LockMode::NL {
        let prefix = format!("{resource}/");
        let from = Bound::Excluded(resource.to_string());
        for (res, slot) in slots.range::<String, _>((from, Bound::Unbounded)) {
            if !res.starts_with(&prefix) {
                break;
            }
            for (mi, bucket) in MODES.iter().zip(&slot.by_mode) {
                if eff.compatible(*mi) {
                    continue;
                }
                for &idx in bucket {
                    add(&instances[idx as usize], res, *mi, eff);
                }
            }
        }
    }
}

/// Orients the parked pessimistic overlaps once the whole trace is known.
///
/// `release_all` at commit walks the shards one at a time, so another
/// transaction can legally be granted a conflicting lock in the window where
/// the finishing holder has dropped its ancestor intents but not yet a
/// remaining descendant instance. That overlap is ordered, not broken: the
/// holder is past its lock point (2PL shrinking phase), every one of its
/// accesses happened before the new grant, so the edge is *prior → new*.
/// The rule demands real two-phase evidence — the prior node's first release
/// must precede the grant **and** no grant of the prior node may follow its
/// first release. Any other pessimistic overlap means the manager granted
/// through a live conflict, and edges both ways force the cycle into the
/// report (this is what catches write skew under a broken matrix).
fn resolve_overlaps(
    edges: &mut HashMap<(TxnNode, TxnNode), (u64, String)>,
    overlaps: HashMap<(TxnNode, TxnNode), (u64, String)>,
    instances: &[Instance],
) {
    if overlaps.is_empty() {
        return;
    }
    // (first release seq, last grant seq) per node, from the instance table.
    let mut phase: HashMap<TxnNode, (u64, u64)> = HashMap::new();
    for inst in instances {
        let e = phase.entry(inst.node).or_insert((u64::MAX, 0));
        e.1 = e.1.max(inst.seq);
        if let Some(r) = inst.release_seq {
            // A conversion closes the old-mode instance while the lock is
            // still held (growing phase) — only real releases bound the
            // shrinking phase.
            if !inst.converted {
                e.0 = e.0.min(r);
            }
        }
    }
    // Deterministic resolution order (HashMap iteration is not).
    let mut parked: Vec<((TxnNode, TxnNode), (u64, String))> = overlaps.into_iter().collect();
    parked.sort_unstable_by_key(|a| (a.1 .0, a.0));
    for ((prior, new), (seq, why)) in parked {
        let (first_release, last_grant) = phase.get(&prior).copied().unwrap_or((u64::MAX, 0));
        if first_release <= seq && last_grant <= first_release {
            edges
                .entry((prior, new))
                .or_insert_with(|| (seq, format!("{why} (commit-release overlap)")));
        } else {
            for (a, b) in [(prior, new), (new, prior)] {
                edges
                    .entry((a, b))
                    .or_insert_with(|| (seq, format!("{why} (unserializable overlap)")));
            }
        }
    }
}

/// Iterative Tarjan strongly-connected-components (recursion-free: conflict
/// chains in a long trace can be thousands of nodes deep).
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut sccs = Vec::new();
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, child)) = frames.last() {
            if child == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if child < adj[v].len() {
                frames.last_mut().expect("frame present").1 += 1;
                let w = adj[v][child];
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("SCC stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linter;

    fn ev(seq: u64, kind: EventKind, txn: u64) -> Event {
        let mut e = Event::new(kind, txn);
        e.seq = seq;
        e.t_us = seq;
        e
    }

    fn begin(seq: u64, txn: u64, kind: &str) -> Event {
        ev(seq, EventKind::TxnBegin, txn).detail(kind)
    }

    fn grant(seq: u64, txn: u64, resource: &str, mode: &str) -> Event {
        ev(seq, EventKind::Grant, txn).mode(mode).resource(resource).detail("immediate")
    }

    fn release(seq: u64, txn: u64, resource: &str, mode: &str) -> Event {
        ev(seq, EventKind::Release, txn).mode(mode).resource(resource)
    }

    fn commit(seq: u64, txn: u64) -> Event {
        ev(seq, EventKind::TxnCommit, txn)
    }

    const OBJ_C: &str = "db:d/seg:s/rel:r/obj:c";
    const OBJ_D: &str = "db:d/seg:s/rel:r/obj:d";

    #[test]
    fn sequential_conflicts_are_acyclic() {
        let events = vec![
            begin(0, 1, "short"),
            grant(1, 1, OBJ_C, "X"),
            release(2, 1, OBJ_C, "X"),
            commit(3, 1),
            begin(4, 2, "short"),
            grant(5, 2, OBJ_C, "X"),
            release(6, 2, OBJ_C, "X"),
            commit(7, 2),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.edges, 1);
        assert_eq!(report.txns_committed, 2);
    }

    /// The tentpole mutation test: write skew under a broken compatibility
    /// matrix that grants a semantic `Insert` alongside an `S` on the same
    /// container. Each transaction reads one container (S) and inserts into
    /// the other; all four grants co-held. Every per-transaction rule holds
    /// (proper 2PL, no ancestor requirement broken, `Insert` is an intent so
    /// the linter's conflicting-grants replay skips it) — the rule linter
    /// passes, the certifier must not.
    #[test]
    fn write_skew_caught_by_certifier_but_not_linter() {
        let cs = format!("{OBJ_C}/items");
        let ds = format!("{OBJ_D}/items");
        let ce = format!("{cs}/[k1]");
        let de = format!("{ds}/[k2]");
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            // T1 reads C, T2 reads D.
            grant(2, 1, OBJ_C, "S"),
            grant(3, 2, OBJ_D, "S"),
            // Broken matrix: each inserts into the container the other is
            // reading, while the S locks are still held.
            grant(4, 1, &ds, "IN"),
            grant(5, 2, &cs, "IN"),
            grant(6, 1, &de, "X"),
            grant(7, 2, &ce, "X"),
            release(8, 1, &de, "X"),
            release(9, 1, &ds, "IN"),
            release(10, 1, OBJ_C, "S"),
            commit(11, 1),
            release(12, 2, &ce, "X"),
            release(13, 2, &cs, "IN"),
            release(14, 2, OBJ_D, "S"),
            commit(15, 2),
        ];
        let lint = Linter::new().lint(&events);
        assert!(lint.is_clean(), "linter must pass this trace:\n{}", lint.render());
        let report = Certifier::new().certify(&events);
        assert!(!report.is_clean(), "certifier must flag write skew:\n{}", report.render());
        let cycle = report.violations().next().expect("one violating cycle");
        assert_eq!(
            cycle.members,
            vec![
                TxnNode { txn: 1, incarnation: 0 },
                TxnNode { txn: 2, incarnation: 0 }
            ]
        );
        // The context rendering names both directions and exports DOT.
        let ctx = report.render_with_context(&events);
        assert!(ctx.contains("digraph conflict_cycle"), "{ctx}");
        assert!(ctx.contains("== txn 1 =="), "{ctx}");
    }

    /// `release_all` at commit drops locks shard by shard: a rival grant in
    /// the window between the holder's ancestor releases and its remaining
    /// descendant releases overlaps but is ordered, not a violation.
    #[test]
    fn commit_release_overlap_is_ordered_not_cyclic() {
        let elem = format!("{OBJ_C}/robots/[r2]");
        let traj = format!("{elem}/trajectory");
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            grant(2, 1, &elem, "X"),
            grant(3, 1, &traj, "X"),
            // T1 commits: release_all happens to visit the element's shard
            // before the trajectory's.
            release(4, 1, &elem, "X"),
            // Rival grant lands in the window — T1 still holds X on the
            // trajectory below, but is past its lock point.
            grant(5, 2, &elem, "S"),
            release(6, 1, &traj, "X"),
            commit(7, 1),
            release(8, 2, &elem, "S"),
            commit(9, 2),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "shrinking-phase overlap must certify:\n{}", report.render());
        assert_eq!(report.edges, 1, "single ordered T1 → T2 edge expected");
    }

    /// A conversion closes the old-mode instance mid-growth; that closure
    /// must not count as the holder's first release, or any converting
    /// transaction would lose the commit-release excuse and a legal
    /// shrinking-phase overlap would read as a cycle.
    #[test]
    fn conversion_does_not_forfeit_commit_release_excuse() {
        let elem = format!("{OBJ_C}/robots/[r2]");
        let traj = format!("{elem}/trajectory");
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            grant(2, 1, &elem, "S"),
            // S → X conversion: the S instance is closed here while the
            // lock stays held — still the growing phase.
            grant(3, 1, &elem, "X"),
            grant(4, 1, &traj, "X"),
            // T1 commits; release_all drops the element before the
            // trajectory below it.
            release(5, 1, &elem, "X"),
            grant(6, 2, &elem, "S"),
            release(7, 1, &traj, "X"),
            commit(8, 1),
            release(9, 2, &elem, "S"),
            commit(10, 2),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "converting holder must keep the excuse:\n{}", report.render());
        assert_eq!(report.edges, 1, "single ordered T1 → T2 edge expected");
    }

    /// The release-phase excuse requires real two-phase evidence: a holder
    /// that grants *after* its first release is not shrinking, and its
    /// overlap stays bidirectional (certification failure).
    #[test]
    fn overlap_after_non_two_phase_release_still_flagged() {
        let elem = format!("{OBJ_C}/robots/[r2]");
        let traj = format!("{elem}/trajectory");
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            grant(2, 1, &elem, "X"),
            release(3, 1, &elem, "X"),
            // T1 acquires again after releasing: 2PL is broken, so its
            // release phase proves nothing about ordering.
            grant(4, 1, &traj, "X"),
            grant(5, 2, &traj, "S"),
            release(6, 1, &traj, "X"),
            commit(7, 1),
            release(8, 2, &traj, "S"),
            commit(9, 2),
        ];
        let report = Certifier::new().certify(&events);
        assert!(!report.is_clean(), "non-two-phase overlap must fail:\n{}", report.render());
    }

    #[test]
    fn distinct_element_inserts_commute() {
        let cs = format!("{OBJ_C}/items");
        let e1 = format!("{cs}/[a]");
        let e2 = format!("{cs}/[b]");
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            grant(2, 1, &cs, "IN"),
            grant(3, 2, &cs, "IN"),
            grant(4, 1, &e1, "X"),
            grant(5, 2, &e2, "X"),
            release(6, 1, &e1, "X"),
            release(7, 1, &cs, "IN"),
            commit(8, 1),
            release(9, 2, &e2, "X"),
            release(10, 2, &cs, "IN"),
            commit(11, 2),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.edges, 0, "distinct-element inserters must not be ordered");
    }

    #[test]
    fn same_element_collision_produces_a_cycle() {
        let cs = format!("{OBJ_C}/items");
        let e1 = format!("{cs}/[k]");
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            grant(2, 1, &cs, "IN"),
            grant(3, 2, &cs, "MB"),
            // Same element key: X and S overlap — a broken element-key
            // protocol let both through.
            grant(4, 1, &e1, "X"),
            grant(5, 2, &e1, "S"),
            release(6, 1, &e1, "X"),
            release(7, 1, &cs, "IN"),
            commit(8, 1),
            release(9, 2, &e1, "S"),
            release(10, 2, &cs, "MB"),
            commit(11, 2),
        ];
        let report = Certifier::new().certify(&events);
        assert!(!report.is_clean(), "{}", report.render());
    }

    #[test]
    fn long_transaction_cycles_are_cooperative_advisories() {
        // T1 (long) releases its target early (rule 5), T2 writes it, then
        // T1 writes something T2 read earlier: a cycle, but cooperative.
        let events = vec![
            begin(0, 1, "long"),
            begin(1, 2, "short"),
            grant(2, 2, OBJ_D, "S"),
            grant(3, 1, OBJ_C, "X"),
            release(4, 1, OBJ_C, "X"), // rule 5 early release
            grant(5, 2, OBJ_C, "X"),   // T1 → T2
            release(6, 2, OBJ_C, "X"),
            release(7, 2, OBJ_D, "S"),
            commit(8, 2),
            grant(9, 1, OBJ_D, "X"), // T2 → T1
            release(10, 1, OBJ_D, "X"),
            commit(11, 1),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "cooperative cycles must not fail:\n{}", report.render());
        assert_eq!(report.advisories().count(), 1);
        let adv = report.advisories().next().expect("advisory");
        assert!(adv.cooperative);
        // The same shape between two short transactions IS a violation.
        let mut broken = events.clone();
        broken[0] = begin(0, 1, "short");
        let report = Certifier::new().certify(&broken);
        assert!(!report.is_clean());
    }

    #[test]
    fn snapshot_reads_take_reads_from_edges_only() {
        let events = vec![
            begin(0, 1, "short"),
            grant(1, 1, OBJ_C, "X"),
            release(2, 1, OBJ_C, "X"),
            ev(3, EventKind::TxnCommit, 1).detail("ts=5"),
            begin(4, 3, "readonly"),
            ev(5, EventKind::SnapshotRead, 3).resource(OBJ_C).detail("ts=7"),
            commit(6, 3),
            begin(7, 2, "short"),
            grant(8, 2, OBJ_C, "X"),
            release(9, 2, OBJ_C, "X"),
            ev(10, EventKind::TxnCommit, 2).detail("ts=9"),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.reads_checked, 1);
        // W1 (ts=5 ≤ 7) → reader, plus W1 → W2 on the lock conflict. No
        // anti-dependency edge to the unobserved W2 (ts=9 > 7).
        assert_eq!(report.edges, 2, "{}", report.render());
    }

    #[test]
    fn optimistic_release_lag_does_not_invent_cycles() {
        let rel = "db:d/seg:s/rel:r";
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            // T1's fast-path IX: its release event lags past T2's grant.
            ev(2, EventKind::Grant, 1).mode("IX").resource(rel).detail("fastpath"),
            grant(3, 2, rel, "X"), // appears to overlap the optimistic IX
            release(4, 1, rel, "IX"),
            commit(5, 1),
            release(6, 2, rel, "X"),
            commit(7, 2),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.edges, 1); // directed T1 → T2 only
    }

    #[test]
    fn pessimistic_overlap_is_flagged() {
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            grant(2, 1, OBJ_C, "X"),
            grant(3, 2, OBJ_C, "X"), // granted through the conflict
            release(4, 1, OBJ_C, "X"),
            commit(5, 1),
            release(6, 2, OBJ_C, "X"),
            commit(7, 2),
        ];
        let report = Certifier::new().certify(&events);
        assert!(!report.is_clean(), "{}", report.render());
    }

    #[test]
    fn conversion_regrant_segments_instances() {
        // T1's S phase overlaps T2's S (compatible); T1 only converts to X
        // after T2 released. Without conversion segmentation the X instance
        // would appear to span T2's S and invent a cycle.
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            grant(2, 1, OBJ_C, "S"),
            grant(3, 2, OBJ_C, "S"),
            release(4, 2, OBJ_C, "S"),
            commit(5, 2),
            ev(6, EventKind::Conversion, 1).mode("X").resource(OBJ_C).detail("S -> X"),
            grant(7, 1, OBJ_C, "X"),
            release(8, 1, OBJ_C, "X"),
            commit(9, 1),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "{}", report.render());
        // Only the ordered T2 → T1 edge (S released before the X re-grant).
        assert_eq!(report.edges, 1, "{}", report.render());
    }

    #[test]
    fn aborted_transactions_are_not_nodes() {
        let events = vec![
            begin(0, 1, "short"),
            begin(1, 2, "short"),
            grant(2, 1, OBJ_C, "X"),
            grant(3, 2, OBJ_C, "X"), // overlap — but T2 aborts
            release(4, 2, OBJ_C, "X"),
            ev(5, EventKind::TxnAbort, 2),
            release(6, 1, OBJ_C, "X"),
            commit(7, 1),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.txns_committed, 1);
        assert_eq!(report.edges, 0);
    }

    #[test]
    fn rebegun_ids_are_separate_incarnations() {
        let events = vec![
            begin(0, 1, "short"),
            grant(1, 1, OBJ_C, "X"),
            release(2, 1, OBJ_C, "X"),
            commit(3, 1),
            begin(4, 1, "short"), // same id, new incarnation
            grant(5, 1, OBJ_C, "X"),
            release(6, 1, OBJ_C, "X"),
            commit(7, 1),
        ];
        let report = Certifier::new().certify(&events);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.txns_committed, 2);
        assert_eq!(report.edges, 1); // T1 → T1#1
    }

    #[test]
    fn object_root_extraction() {
        assert_eq!(object_root("db:d/seg:s/rel:r/obj:k"), Some("db:d/seg:s/rel:r/obj:k"));
        assert_eq!(
            object_root("db:d/seg:s/rel:r/obj:k/a/[e]"),
            Some("db:d/seg:s/rel:r/obj:k")
        );
        assert_eq!(object_root("db:d/seg:s/rel:r"), None);
        assert_eq!(object_root("db:d"), None);
    }
}
