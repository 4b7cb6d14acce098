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
use std::iter;
use std::sync::{Arc, OnceLock};

/// One step of an instance path. The defaults are the owned step; the
/// engine also builds paths from steps with borrowed names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathStep<S = String, K = ObjectKey> {
    /// The database node.
    Database(S),
    /// A segment of the database.
    Segment(S),
    /// A relation within a segment.
    Relation(S),
    /// A complex object of the relation, by key.
    Object(K),
    /// An attribute node (HoLU/HeLU/BLU) within the current (sub)tuple.
    Attr(S),
    /// An element of a set/list, by element key.
    Elem(K),
}

/// A step borrowing its names, what paths are built from and read back as.
/// `str` hashes and orders as `String` does and [`KeyRef`] as `ObjectKey`,
/// so the derived `Hash` and `Ord` are the owned step's.
pub(crate) type StepRef<'a> = PathStep<&'a str, KeyRef<'a>>;

/// A borrowed [`ObjectKey`] (the same variants in the same order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum KeyRef<'a> {
    Str(&'a str),
    Int(i64),
}

impl<'a> From<&'a ObjectKey> for KeyRef<'a> {
    fn from(key: &'a ObjectKey) -> Self {
        match key {
            ObjectKey::Str(s) => KeyRef::Str(s),
            ObjectKey::Int(i) => KeyRef::Int(*i),
        }
    }
}

impl fmt::Display for KeyRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyRef::Str(s) => f.write_str(s),
            KeyRef::Int(i) => write!(f, "{i}"),
        }
    }
}

impl<S: fmt::Display, K: fmt::Display> fmt::Display for PathStep<S, K> {
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

impl<S, K> PathStep<S, K> {
    /// The same step, its names mapped through `s` and its keys through `k`.
    fn map<'a, T, L>(&'a self, s: impl FnOnce(&'a S) -> T, k: impl FnOnce(&'a K) -> L) -> PathStep<T, L> {
        match self {
            PathStep::Database(x) => PathStep::Database(s(x)),
            PathStep::Segment(x) => PathStep::Segment(s(x)),
            PathStep::Relation(x) => PathStep::Relation(s(x)),
            PathStep::Object(x) => PathStep::Object(k(x)),
            PathStep::Attr(x) => PathStep::Attr(s(x)),
            PathStep::Elem(x) => PathStep::Elem(k(x)),
        }
    }
}

impl PathStep {
    pub(crate) fn borrowed(&self) -> StepRef<'_> {
        self.map(String::as_str, KeyRef::from)
    }
}

impl KeyRef<'_> {
    fn owned(self) -> ObjectKey {
        match self {
            KeyRef::Str(s) => ObjectKey::Str(s.to_string()),
            KeyRef::Int(i) => ObjectKey::Int(i),
        }
    }
}

impl<'a> StepRef<'a> {
    /// The step's string name (its key's, if a string key; else empty).
    fn name(self) -> &'a str {
        match self {
            PathStep::Database(s) | PathStep::Segment(s) | PathStep::Relation(s) | PathStep::Attr(s) => s,
            PathStep::Object(KeyRef::Str(s)) | PathStep::Elem(KeyRef::Str(s)) => s,
            PathStep::Object(KeyRef::Int(_)) | PathStep::Elem(KeyRef::Int(_)) => "",
        }
    }

    /// The step without its string name.
    fn shape(self) -> Shape {
        self.map(|_| (), |k| if let KeyRef::Int(i) = *k { Some(i) } else { None })
    }

    fn owned(self) -> PathStep {
        self.map(|s| s.to_string(), |k| k.owned())
    }
}

/// A step's kind, and its key if that is an integer: what a spine keeps per
/// step besides the name. Comparing shapes compares no string; two empty
/// `&str` compare through `memcmp`, at ~170 ns a call on some x86 hosts.
type Shape = PathStep<(), Option<i64>>;

impl Shape {
    /// The step of this shape named `name`.
    fn named(self, name: &str) -> StepRef<'_> {
        self.map(|_| name, |k| k.map_or(KeyRef::Str(name), KeyRef::Int))
    }
}

/// A hierarchical instance path identifying one lockable unit.
///
/// A path is a view — the first `len` steps — of a shared, immutable
/// `Spine`, which holds every step's name in one string and, per step, the
/// identity hash of the prefix it ends. Building one makes three
/// allocations whatever the depth (the spine, its names and its step
/// table); `clone`, [`parent`](Self::parent) and
/// [`object_prefix`](Self::object_prefix) only bump a refcount, and hashing
/// a path into the lock table writes one cached `u64`. Equality, ordering
/// and hashing depend on the steps alone, never on which spine backs a view.
#[derive(Clone)]
pub struct ResourcePath {
    spine: Arc<Spine>,
    /// Number of steps of `spine` this path covers (≥ 1).
    len: usize,
}

struct Spine {
    /// The steps' string names, back to back.
    names: String,
    /// Per step: its shape, where its name ends in `names`, and
    /// [`prefix_hash`] of the prefix it ends — so equal step prefixes have
    /// equal nodes on any spine.
    nodes: Vec<(Shape, usize, u64)>,
    /// The steps as owned values, built by the first [`ResourcePath::steps`].
    steps: OnceLock<Box<[PathStep]>>,
}

impl Spine {
    /// Step `i`, its name borrowed from `names`.
    fn step(&self, i: usize) -> StepRef<'_> {
        let start = i.checked_sub(1).map_or(0, |j| self.nodes[j].1);
        let (shape, end, _) = self.nodes[i];
        shape.named(&self.names[start..end])
    }
}

/// FNV-1a over the bytes a step's derived `Hash` writes: deterministic (no
/// per-process seed), so a prefix hashes the same on every spine that
/// spells it. It is not the lock table's `FastHasher`, which folds whole
/// words: the shards resources land on would move. std's seedless SipHash
/// would serve, but costs a locking read about a quarter more on
/// `bench_snapshot`.
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
fn prefix_hash(before: Option<u64>, step: StepRef<'_>) -> u64 {
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
/// before the step tables and names are compared.
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
        self.refs().cmp(other.refs())
    }
}

impl ResourcePath {
    /// The database root resource.
    pub fn database(name: impl Into<String>) -> Self {
        Self::from_refs(iter::once(PathStep::Database(name.into().as_str())))
    }

    /// Builds a path from raw steps (must start with `Database`).
    pub fn from_steps(steps: Vec<PathStep>) -> Self {
        Self::from_refs(steps.iter().map(PathStep::borrowed))
    }

    /// Builds a path from borrowed steps (the first a `Database`) on a new
    /// spine, hashing each prefix once; its buffers are sized in a first
    /// pass over `steps`.
    pub(crate) fn from_refs<'a>(steps: impl Iterator<Item = StepRef<'a>> + Clone) -> Self {
        debug_assert!(matches!(steps.clone().next(), Some(PathStep::Database(_))));
        let size = steps.clone().fold((0, 0), |(b, n), s| (b + s.name().len(), n + 1));
        let mut spine =
            Spine { names: String::with_capacity(size.0), nodes: Vec::with_capacity(size.1), steps: OnceLock::new() };
        for step in steps {
            spine.names.push_str(step.name());
            let hash = prefix_hash(spine.nodes.last().map(|n| n.2), step);
            spine.nodes.push((step.shape(), spine.names.len(), hash));
        }
        ResourcePath { spine: Arc::new(spine), len: size.1 }
    }

    /// The view of this path's first `len` steps, sharing its spine.
    pub(crate) fn prefix(&self, len: usize) -> ResourcePath {
        ResourcePath { spine: Arc::clone(&self.spine), len }
    }

    /// Whether `other`'s first `self.len` steps (it must have as many) are
    /// `self`'s: a shared spine decides at once, otherwise the cached prefix
    /// hashes, then the step tables and the names.
    fn spells_start_of(&self, other: &ResourcePath) -> bool {
        let (n, nodes) = (self.len, &self.spine.nodes);
        Arc::ptr_eq(&self.spine, &other.spine)
            || (other.spine.nodes[n - 1].2 == self.hash_value()
                && other.spine.nodes[..n] == nodes[..n]
                && other.spine.names[..nodes[n - 1].1] == self.spine.names[..nodes[n - 1].1])
    }

    /// The cached identity hash of this path.
    fn hash_value(&self) -> u64 {
        self.spine.nodes[self.len - 1].2
    }

    /// The steps of this path, borrowing their names from the spine.
    pub(crate) fn refs(&self) -> impl Iterator<Item = StepRef<'_>> + Clone {
        (0..self.len).map(|i| self.spine.step(i))
    }

    /// The steps of this path as owned values, built once per spine (the
    /// lock path reads the borrowed steps instead).
    pub fn steps(&self) -> &[PathStep] {
        let spine = &*self.spine;
        &spine.steps.get_or_init(|| (0..spine.nodes.len()).map(|i| spine.step(i).owned()).collect())[..self.len]
    }

    /// Extends by one step (a new spine: the steps are copied).
    pub fn child(&self, step: PathStep) -> Self {
        Self::from_refs(self.refs().chain(iter::once(step.borrowed())))
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
        self.prefixes().collect()
    }

    /// The proper prefixes, root first, as views of this spine.
    pub(crate) fn prefixes(&self) -> impl Iterator<Item = ResourcePath> + '_ {
        (1..self.len).map(|n| self.prefix(n))
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
        self.refs().find_map(|s| match s {
            PathStep::Relation(r) => Some(r),
            _ => None,
        })
    }

    /// The complex-object key on this path, if any.
    pub fn object_key(&self) -> Option<ObjectKey> {
        self.refs().find_map(|s| match s {
            PathStep::Object(k) => Some(k.owned()),
            _ => None,
        })
    }

    /// The prefix of this path ending at the complex-object step, if present.
    pub fn object_prefix(&self) -> Option<ResourcePath> {
        let idx = self.refs().position(|s| matches!(s, PathStep::Object(_)))?;
        Some(self.prefix(idx + 1))
    }
}

impl fmt::Display for ResourcePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.refs().enumerate() {
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
fn push_step(step: StepRef<'_>, out: &mut String, plain: fn(&str, &mut String)) {
    let (tag, key) = match step {
        PathStep::Database(s) => ("db:", KeyRef::Str(s)),
        PathStep::Segment(s) => ("seg:", KeyRef::Str(s)),
        PathStep::Relation(s) => ("rel:", KeyRef::Str(s)),
        PathStep::Attr(s) => ("attr:", KeyRef::Str(s)),
        PathStep::Object(k) => ("obj:", k),
        PathStep::Elem(k) => ("elem:", k),
    };
    match key {
        KeyRef::Str(name) => {
            out.push_str(tag);
            push_name(name, out, plain);
        }
        KeyRef::Int(i) => {
            let _ = write!(out, "{}#{i}", &tag[..tag.len() - 1]);
        }
    }
}

impl ResourcePath {
    /// Appends the persisted path syntax, `/`-separated, names through
    /// `plain`.
    fn push_field(&self, out: &mut String, plain: fn(&str, &mut String)) {
        for (i, step) in self.refs().enumerate() {
            if i > 0 {
                out.push('/');
            }
            push_step(step, out, plain);
        }
    }
}

fn parse_step(seg: &str) -> Result<PathStep, CodecError> {
    let bad = || CodecError::BadField { field: seg.to_string(), expected: "resource path step" };
    let at = seg.find([':', '#']).ok_or_else(bad)?;
    let (tag, int, rest) = (&seg[..at], seg.as_bytes()[at] == b'#', &seg[at + 1..]);
    let key = || match int {
        true => rest.parse().map(ObjectKey::Int).map_err(|_| bad()),
        false => unescape_name(rest).map(ObjectKey::Str),
    };
    Ok(match (tag, int) {
        ("db", false) => PathStep::Database(unescape_name(rest)?),
        ("seg", false) => PathStep::Segment(unescape_name(rest)?),
        ("rel", false) => PathStep::Relation(unescape_name(rest)?),
        ("attr", false) => PathStep::Attr(unescape_name(rest)?),
        ("obj", _) => PathStep::Object(key()?),
        ("elem", _) => PathStep::Elem(key()?),
        _ => return Err(bad()),
    })
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

    /// FNV-1a over the plain byte stream of `PathStep`'s derived `Hash`,
    /// the definition the lock table's placement was built on.
    fn reference_hashes(steps: &[PathStep]) -> Vec<u64> {
        struct Bytes(Vec<u8>);
        impl Hasher for Bytes {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        let mut prefix = None;
        steps
            .iter()
            .map(|step| {
                let mut bytes = Bytes(Vec::new());
                step.hash(&mut bytes);
                let mut h = StepHasher(prefix.unwrap_or(0xcbf2_9ce4_8422_2325));
                h.write(&bytes.0);
                let mut z = h.finish();
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                prefix = Some(z ^ (z >> 31));
                prefix.unwrap()
            })
            .collect()
    }

    #[test]
    fn prefix_hashes_are_fnv_over_the_derived_step_hash() {
        let p = robot_r1().attr("trajectory").elem(ObjectKey::Int(-7)).child(PathStep::Object(ObjectKey::Int(3)));
        let cached: Vec<u64> = (1..=p.len()).map(|n| p.prefix(n).hash_value()).collect();
        assert_eq!(cached, reference_hashes(p.steps()));
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
        assert_eq!(p.object_key(), Some(ObjectKey::Str("c1".into())));
        assert_eq!(
            p.object_prefix().unwrap().to_string(),
            "db:db1/seg:seg1/rel:cells/obj:c1"
        );
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
        assert_eq!(c.parent(), Some(a));
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
