//! Lockable resources: hierarchical instance paths.
//!
//! The paper's lockable units are *instances* of lock-graph nodes: Fig. 7
//! locks "cell c1", "robot r1", "effector e2" — concrete subobjects, not
//! schema nodes. We identify such an instance by the path from the database
//! root down to it: database, segment, relation, complex object (by key),
//! then alternating attribute steps (naming HoLU/HeLU/BLU schema nodes) and
//! element steps (naming set/list elements by their key).
//!
//! `ResourcePath` is the key type of the lock table; every prefix of a path
//! is itself a lockable ancestor, which makes the root-to-leaf lock chains of
//! the protocol (rule 5) a simple prefix walk.

use colock_nf2::ObjectKey;
use colock_testkit::codec::{self, CodecError, FieldCodec};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One step of an instance path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathStep {
    /// The database node.
    Database(String),
    /// A segment of the database.
    Segment(String),
    /// A relation within a segment.
    Relation(String),
    /// A complex object of the relation, by key.
    Object(ObjectKey),
    /// An attribute node (HoLU/HeLU/BLU) within the current (sub)tuple.
    Attr(String),
    /// An element of a set/list, by element key.
    Elem(ObjectKey),
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStep::Database(s) => write!(f, "db:{s}"),
            PathStep::Segment(s) => write!(f, "seg:{s}"),
            PathStep::Relation(s) => write!(f, "rel:{s}"),
            PathStep::Object(k) => write!(f, "obj:{k}"),
            PathStep::Attr(s) => write!(f, "{s}"),
            PathStep::Elem(k) => write!(f, "[{k}]"),
        }
    }
}

/// A hierarchical instance path identifying one lockable unit.
///
/// A path is a view — the first `len` steps — of a shared, immutable
/// `Spine`. Every prefix's identity hash is computed once, when the spine
/// is built, so `clone`, [`parent`](Self::parent),
/// [`ancestors`](Self::ancestors) and [`object_prefix`](Self::object_prefix)
/// only bump a refcount, and hashing a path into the lock table writes one
/// cached `u64`. Equality, ordering and hashing depend on the steps alone,
/// never on which spine backs a view.
#[derive(Clone)]
pub struct ResourcePath {
    spine: Arc<Spine>,
    /// Number of steps of `spine` this path covers (≥ 1).
    len: usize,
}

/// The steps of the path a spine was built for, and per prefix its hash.
struct Spine {
    steps: Box<[PathStep]>,
    /// `hashes[i]` identifies `steps[..=i]`: [`prefix_hash`] folded over the
    /// steps, so equal step slices hash equal on any spine.
    hashes: Box<[u64]>,
}

/// FNV-1a over the bytes a step's derived `Hash` writes: deterministic (no
/// per-process seed), so a prefix hashes the same on every spine that
/// spells it. It is not the lock table's `FastHasher` because that one is
/// private to `colock-lockmgr`, and exporting it would widen the lock
/// manager's API; std's seedless SipHash would serve, but costs a locking
/// read about a quarter more on `bench_snapshot`.
struct StepHasher(u64);

impl Hasher for StepHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The hash of a prefix ending in `step`, given the hash of the prefix
/// before it (`None` at the database). The splitmix64 finaliser spreads
/// every input bit over the low bits, which pick the lock-table shard.
fn prefix_hash(before: Option<u64>, step: &PathStep) -> u64 {
    let mut h = StepHasher(before.unwrap_or(0xcbf2_9ce4_8422_2325));
    step.hash(&mut h);
    let mut z = h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `Debug` delegates to `Display` (`db:db1/seg:seg1/rel:cells/...`): the
/// lock table formats resource keys with `{:?}` in diagnostics and trace
/// events, and the path syntax is the readable form.
impl fmt::Debug for ResourcePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Views of one spine with the same length are equal without a look at the
/// steps; across spines, the cached hashes reject almost every mismatch
/// before the step slices are compared.
impl PartialEq for ResourcePath {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.spells_start_of(other)
    }
}

impl Eq for ResourcePath {}

impl Hash for ResourcePath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash_value());
    }
}

impl PartialOrd for ResourcePath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ResourcePath {
    fn cmp(&self, other: &Self) -> Ordering {
        self.steps().cmp(other.steps())
    }
}

impl ResourcePath {
    /// The database root resource.
    pub fn database(name: impl Into<String>) -> Self {
        Self::from_steps(vec![PathStep::Database(name.into())])
    }

    /// Builds a path from raw steps (must start with `Database`), hashing
    /// every prefix once.
    pub fn from_steps(steps: Vec<PathStep>) -> Self {
        debug_assert!(matches!(steps.first(), Some(PathStep::Database(_))));
        let mut hashes = Vec::with_capacity(steps.len());
        for step in &steps {
            hashes.push(prefix_hash(hashes.last().copied(), step));
        }
        let len = steps.len();
        ResourcePath {
            spine: Arc::new(Spine { steps: steps.into_boxed_slice(), hashes: hashes.into() }),
            len,
        }
    }

    /// The view of this path's first `len` steps, sharing its spine.
    fn prefix(&self, len: usize) -> ResourcePath {
        ResourcePath { spine: Arc::clone(&self.spine), len }
    }

    /// Whether `other`'s first `self.len` steps (it must have as many) are
    /// `self`'s: a shared spine decides at once, otherwise the cached prefix
    /// hashes, then the steps.
    fn spells_start_of(&self, other: &ResourcePath) -> bool {
        Arc::ptr_eq(&self.spine, &other.spine)
            || (other.spine.hashes[self.len - 1] == self.hash_value()
                && other.spine.steps[..self.len] == *self.steps())
    }

    /// The cached identity hash of this path.
    fn hash_value(&self) -> u64 {
        self.spine.hashes[self.len - 1]
    }

    /// The steps of this path.
    pub fn steps(&self) -> &[PathStep] {
        &self.spine.steps[..self.len]
    }

    /// Extends by one step (a new spine: the steps are copied).
    pub fn child(&self, step: PathStep) -> Self {
        let mut steps = Vec::with_capacity(self.len + 1);
        steps.extend_from_slice(self.steps());
        steps.push(step);
        Self::from_steps(steps)
    }

    /// Convenience: segment child.
    pub fn segment(&self, name: impl Into<String>) -> Self {
        self.child(PathStep::Segment(name.into()))
    }

    /// Convenience: relation child.
    pub fn relation(&self, name: impl Into<String>) -> Self {
        self.child(PathStep::Relation(name.into()))
    }

    /// Convenience: complex-object child.
    pub fn object(&self, key: impl Into<ObjectKey>) -> Self {
        self.child(PathStep::Object(key.into()))
    }

    /// Convenience: attribute child.
    pub fn attr(&self, name: impl Into<String>) -> Self {
        self.child(PathStep::Attr(name.into()))
    }

    /// Convenience: element child.
    pub fn elem(&self, key: impl Into<ObjectKey>) -> Self {
        self.child(PathStep::Elem(key.into()))
    }

    /// The parent resource (one step shorter), or `None` at the database.
    pub fn parent(&self) -> Option<ResourcePath> {
        (self.len > 1).then(|| self.prefix(self.len - 1))
    }

    /// All proper ancestors, root first (database, segment, …).
    pub fn ancestors(&self) -> Vec<ResourcePath> {
        (1..self.len).map(|n| self.prefix(n)).collect()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &ResourcePath) -> bool {
        other.len >= self.len && self.spells_start_of(other)
    }

    /// The relation name on this path, if the path descends into one.
    pub fn relation_name(&self) -> Option<&str> {
        self.steps().iter().find_map(|s| match s {
            PathStep::Relation(r) => Some(r.as_str()),
            _ => None,
        })
    }

    /// The complex-object key on this path, if any.
    pub fn object_key(&self) -> Option<&ObjectKey> {
        self.steps().iter().find_map(|s| match s {
            PathStep::Object(k) => Some(k),
            _ => None,
        })
    }

    /// The prefix of this path ending at the complex-object step, if present.
    pub fn object_prefix(&self) -> Option<ResourcePath> {
        let idx = self.steps().iter().position(|s| matches!(s, PathStep::Object(_)))?;
        Some(self.prefix(idx + 1))
    }

    /// The attribute steps after the complex-object step (schema path within
    /// the object, ignoring element keys).
    pub fn attr_steps(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut past_object = false;
        for s in self.steps() {
            match s {
                PathStep::Object(_) => past_object = true,
                PathStep::Attr(a) if past_object => out.push(a.as_str()),
                _ => {}
            }
        }
        out
    }
}

impl fmt::Display for ResourcePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps().iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

// ----- persistence ----------------------------------------------------------
//
// The long-lock journal (`colock-lockmgr`'s `persistent` module) needs the
// lock table's key type to round-trip through a single record field. The
// encoding is the `Display` syntax made unambiguous: each step gets an
// explicit tag (`attr` steps print bare in `Display`), integer object keys
// are tagged `#` so `Str("42")` and `Int(42)` stay distinct, and `%` / `/`
// inside names are percent-escaped so the step separator can never be
// forged by data.

/// Appends `name` with `%` and `/` percent-escaped for the persisted path
/// syntax, passing the runs in between through `plain` — a bare push for
/// the field text, the codec's escape for a journal record.
fn push_name(name: &str, out: &mut String, plain: fn(&str, &mut String)) {
    let mut rest = name;
    while let Some(i) = rest.find(['%', '/']) {
        plain(&rest[..i], out);
        out.push_str(if rest.as_bytes()[i] == b'%' { "%25" } else { "%2F" });
        rest = &rest[i + 1..];
    }
    plain(rest, out);
}

/// Reverses [`push_name`]'s percent escapes.
fn unescape_name(text: &str) -> Result<String, CodecError> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let pair: String = chars.by_ref().take(2).collect();
        match pair.as_str() {
            "25" => out.push('%'),
            "2F" | "2f" => out.push('/'),
            _ => {
                return Err(CodecError::BadField {
                    field: text.to_string(),
                    expected: "percent-escaped path name",
                })
            }
        }
    }
    Ok(out)
}

/// Appends `step`'s persisted syntax to `out`, names through `plain` (see
/// [`push_name`]).
fn push_step(step: &PathStep, out: &mut String, plain: fn(&str, &mut String)) {
    let (tag, name) = match step {
        PathStep::Database(s) => ("db:", s),
        PathStep::Segment(s) => ("seg:", s),
        PathStep::Relation(s) => ("rel:", s),
        PathStep::Attr(s) => ("attr:", s),
        PathStep::Object(ObjectKey::Str(s)) => ("obj:", s),
        PathStep::Elem(ObjectKey::Str(s)) => ("elem:", s),
        PathStep::Object(ObjectKey::Int(i)) => {
            let _ = write!(out, "obj#{i}");
            return;
        }
        PathStep::Elem(ObjectKey::Int(i)) => {
            let _ = write!(out, "elem#{i}");
            return;
        }
    };
    out.push_str(tag);
    push_name(name, out, plain);
}

impl ResourcePath {
    /// Appends the persisted path syntax, `/`-separated, names through
    /// `plain`.
    fn push_field(&self, out: &mut String, plain: fn(&str, &mut String)) {
        for (i, step) in self.steps().iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            push_step(step, out, plain);
        }
    }
}

fn parse_step(seg: &str) -> Result<PathStep, CodecError> {
    let bad = || CodecError::BadField { field: seg.to_string(), expected: "resource path step" };
    if let Some(rest) = seg.strip_prefix("db:") {
        return Ok(PathStep::Database(unescape_name(rest)?));
    }
    if let Some(rest) = seg.strip_prefix("seg:") {
        return Ok(PathStep::Segment(unescape_name(rest)?));
    }
    if let Some(rest) = seg.strip_prefix("rel:") {
        return Ok(PathStep::Relation(unescape_name(rest)?));
    }
    if let Some(rest) = seg.strip_prefix("attr:") {
        return Ok(PathStep::Attr(unescape_name(rest)?));
    }
    if let Some(rest) = seg.strip_prefix("obj#") {
        return rest.parse().map(|i| PathStep::Object(ObjectKey::Int(i))).map_err(|_| bad());
    }
    if let Some(rest) = seg.strip_prefix("obj:") {
        return Ok(PathStep::Object(ObjectKey::Str(unescape_name(rest)?)));
    }
    if let Some(rest) = seg.strip_prefix("elem#") {
        return rest.parse().map(|i| PathStep::Elem(ObjectKey::Int(i))).map_err(|_| bad());
    }
    if let Some(rest) = seg.strip_prefix("elem:") {
        return Ok(PathStep::Elem(ObjectKey::Str(unescape_name(rest)?)));
    }
    Err(bad())
}

impl FieldCodec for ResourcePath {
    fn to_field(&self) -> String {
        let mut out = String::new();
        self.push_field(&mut out, |run, out| out.push_str(run));
        out
    }

    fn write_field(&self, out: &mut String) {
        self.push_field(out, codec::escape_into);
    }

    fn from_field(field: &str) -> Result<Self, CodecError> {
        let steps: Vec<PathStep> =
            field.split('/').map(parse_step).collect::<Result<_, _>>()?;
        if !matches!(steps.first(), Some(PathStep::Database(_))) {
            return Err(CodecError::BadField {
                field: field.to_string(),
                expected: "resource path starting at db:",
            });
        }
        Ok(ResourcePath::from_steps(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn robot_r1() -> ResourcePath {
        ResourcePath::database("db1")
            .segment("seg1")
            .relation("cells")
            .object("c1")
            .attr("robots")
            .elem("r1")
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(robot_r1().to_string(), "db:db1/seg:seg1/rel:cells/obj:c1/robots/[r1]");
    }

    #[test]
    fn ancestors_are_all_prefixes_root_first() {
        let p = robot_r1();
        let anc = p.ancestors();
        assert_eq!(anc.len(), 5);
        assert_eq!(anc[0], ResourcePath::database("db1"));
        assert_eq!(anc[4], p.parent().unwrap());
        for a in &anc {
            assert!(a.is_prefix_of(&p));
            assert!(!p.is_prefix_of(a));
        }
    }

    #[test]
    fn relation_and_object_extraction() {
        let p = robot_r1();
        assert_eq!(p.relation_name(), Some("cells"));
        assert_eq!(p.object_key(), Some(&ObjectKey::Str("c1".into())));
        assert_eq!(
            p.object_prefix().unwrap().to_string(),
            "db:db1/seg:seg1/rel:cells/obj:c1"
        );
        assert_eq!(p.attr_steps(), vec!["robots"]);
    }

    #[test]
    fn database_has_no_parent() {
        assert!(ResourcePath::database("db1").parent().is_none());
        assert!(ResourcePath::database("db1").ancestors().is_empty());
    }

    #[test]
    fn paths_are_value_types() {
        let a = robot_r1();
        let b = robot_r1();
        assert_eq!(a, b);
        let c = a.child(PathStep::Attr("trajectory".into()));
        assert_ne!(a, c);
        assert!(a.is_prefix_of(&c));
        assert_eq!(c.attr_steps(), vec!["robots", "trajectory"]);
    }

    #[test]
    fn field_codec_roundtrips_typical_paths() {
        for p in [
            ResourcePath::database("db1"),
            robot_r1(),
            robot_r1().attr("trajectory"),
            ResourcePath::database("db1").segment("seg1").relation("lib").object(ObjectKey::Int(42)),
        ] {
            let field = p.to_field();
            assert_eq!(ResourcePath::from_field(&field).unwrap(), p, "{field}");
        }
    }

    #[test]
    fn field_codec_distinguishes_int_and_string_keys() {
        let base = ResourcePath::database("db1").segment("s").relation("r");
        let by_int = base.object(ObjectKey::Int(42));
        let by_str = base.object(ObjectKey::Str("42".into()));
        assert_ne!(by_int, by_str);
        assert_ne!(by_int.to_field(), by_str.to_field());
        assert_eq!(ResourcePath::from_field(&by_int.to_field()).unwrap(), by_int);
        assert_eq!(ResourcePath::from_field(&by_str.to_field()).unwrap(), by_str);
    }

    #[test]
    fn field_codec_escapes_separators_in_names() {
        let nasty = ResourcePath::database("d%b")
            .segment("se/g")
            .relation("r%2Fel")
            .object("k/e%y")
            .attr("a/t%tr");
        let field = nasty.to_field();
        assert_eq!(ResourcePath::from_field(&field).unwrap(), nasty, "{field}");
    }

    #[test]
    fn write_field_is_the_escaped_field_text_byte_for_byte() {
        // Both strings were produced by the `format!`/`join` encoder this
        // one-buffer encoder replaced; journals on disk depend on them.
        let nasty = ResourcePath::database("d%b\t1")
            .segment("se/g")
            .relation("r%2Fel")
            .object("k/e%y\n")
            .attr("a/t%tr\\")
            .elem(ObjectKey::Int(-7))
            .attr("\u{fc}\r");
        let field = "db:d%25b\t1/seg:se%2Fg/rel:r%252Fel/obj:k%2Fe%25y\n/attr:a%2Ft%25tr\\\
                     /elem#-7/attr:\u{fc}\r";
        assert_eq!(nasty.to_field(), field);
        let mut written = String::from("op\t");
        nasty.write_field(&mut written);
        let escaped = "db:d%25b\\t1/seg:se%2Fg/rel:r%252Fel/obj:k%2Fe%25y\\n/attr:a%2Ft%25tr\\\\\
                       /elem#-7/attr:\u{fc}\\r";
        assert_eq!(written, format!("op\t{escaped}"));
        assert_eq!(written["op\t".len()..], codec::escape(field));
        let mut plain = String::new();
        robot_r1().write_field(&mut plain);
        assert_eq!(plain, robot_r1().to_field());
    }

    #[test]
    fn field_codec_rejects_garbage() {
        for bad in [
            "",
            "seg:s/db:d",             // does not start at the database
            "db:d/unknown:x",         // unknown step tag
            "db:d/obj#notanint",      // int tag with non-int key
            "db:d/seg:a%GGb",         // malformed percent escape
            "db:d/seg:trunc%2",       // truncated percent escape
        ] {
            assert!(ResourcePath::from_field(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn elem_keys_distinguish_resources() {
        let r1 = robot_r1();
        let r2 = ResourcePath::database("db1")
            .segment("seg1")
            .relation("cells")
            .object("c1")
            .attr("robots")
            .elem("r2");
        assert_ne!(r1, r2);
        assert_eq!(r1.parent(), r2.parent());
    }
}
