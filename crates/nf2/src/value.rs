//! Instance values of the extended NF² model, validated against schemas.

use crate::error::Nf2Error;
use crate::schema::{DatabaseSchema, RelationSchema};
use crate::types::{AtomicType, AttrType, Attribute};
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// Key of a complex object within its relation (the value of the relation's
/// key attribute). Only atomic values can be keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectKey {
    /// String key (e.g. `"c1"`, `"e2"`).
    Str(String),
    /// Integer key.
    Int(i64),
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKey::Str(s) => f.write_str(s),
            ObjectKey::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> Self {
        ObjectKey::Str(s.to_string())
    }
}

impl From<String> for ObjectKey {
    fn from(s: String) -> Self {
        ObjectKey::Str(s)
    }
}

impl From<i64> for ObjectKey {
    fn from(i: i64) -> Self {
        ObjectKey::Int(i)
    }
}

/// A reference to a complex object of a relation ("common data", §2).
///
/// The paper makes no assumption about the implementation of references (key
/// values, surrogates \[MeLo83\], …); we use `(relation, key)` pairs, which is
/// the key-value variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectRef {
    /// Target relation name.
    pub relation: String,
    /// Key of the referenced complex object.
    pub key: ObjectKey,
}

impl ObjectRef {
    /// Creates a reference.
    pub fn new(relation: impl Into<String>, key: impl Into<ObjectKey>) -> Self {
        ObjectRef { relation: relation.into(), key: key.into() }
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "->{}[{}]", self.relation, self.key)
    }
}

/// A tuple field name. Shared, so copying a tuple node copies no name.
pub type Name = Arc<str>;

/// Borrowed view of an element key: what [`ObjectKey`] owns, compared
/// without cloning the string. Variant order matches `ObjectKey`'s, so both
/// sort alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KeyRef<'a> {
    Str(&'a str),
    Int(i64),
}

impl KeyRef<'_> {
    fn to_key(self) -> ObjectKey {
        match self {
            KeyRef::Str(s) => ObjectKey::Str(s.to_string()),
            KeyRef::Int(i) => ObjectKey::Int(i),
        }
    }
}

impl<'a> From<&'a ObjectKey> for KeyRef<'a> {
    fn from(k: &'a ObjectKey) -> Self {
        match k {
            ObjectKey::Str(s) => KeyRef::Str(s),
            ObjectKey::Int(i) => KeyRef::Int(*i),
        }
    }
}

/// An attribute value.
///
/// The interior of a composite value is **shared**: `Set`/`List`/`Tuple`
/// hold their children behind an [`Arc`], so `clone` is O(1) for them and a
/// clone shares every subtree with its origin. Mutation goes through
/// [`Value::field_mut`] / [`Value::elements_mut`], which copy a node only if
/// it is shared (`Arc::make_mut`): writing below a clone copies the spine
/// from the root to the touched node — one node per level, each as wide as
/// its fan-out — and leaves every untouched sibling shared with the origin,
/// which never observes the write.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// String value.
    Str(String),
    /// Integer value.
    Int(i64),
    /// Real value.
    Real(f64),
    /// Boolean value.
    Bool(bool),
    /// Set of values of one type. For sets of tuples, elements are identified
    /// by their key attribute; for sets of atomic values, by the value itself.
    Set(Arc<Vec<Value>>),
    /// Ordered list of values of one type.
    List(Arc<Vec<Value>>),
    /// Complex tuple: `(attribute name, value)` pairs in schema order.
    Tuple(Arc<Vec<(Name, Value)>>),
    /// Reference to a complex object of another relation.
    Ref(ObjectRef),
}

impl Value {
    /// Short builder for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Short builder for references.
    pub fn reference(relation: impl Into<String>, key: impl Into<ObjectKey>) -> Self {
        Value::Ref(ObjectRef::new(relation, key))
    }

    /// The field of a tuple value by attribute name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Tuple(fields) => fields.iter().find(|(n, _)| &**n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable field of a tuple value. Copies the tuple node first if it is
    /// shared with another value (its fields stay shared); a miss copies
    /// nothing.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut Value> {
        match self {
            Value::Tuple(fields) => {
                let i = fields.iter().position(|(n, _)| &**n == name)?;
                Some(&mut Arc::make_mut(fields)[i].1)
            }
            _ => None,
        }
    }

    /// The elements of a set or list value.
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Set(es) | Value::List(es) => Some(es),
            _ => None,
        }
    }

    /// Mutable elements of a set or list value. Copies the container node
    /// first if it is shared with another value (its elements stay shared).
    pub fn elements_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Set(es) | Value::List(es) => Some(Arc::make_mut(es)),
            _ => None,
        }
    }

    /// Whether `self` and `other` are the same composite node in memory —
    /// one is an unmodified clone of the other. Atomic values own their
    /// payload and never share.
    pub fn shares_with(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Set(a), Value::Set(b)) | (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b),
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn key_ref(&self) -> Option<KeyRef<'_>> {
        match self {
            Value::Str(s) => Some(KeyRef::Str(s)),
            Value::Int(i) => Some(KeyRef::Int(*i)),
            _ => None,
        }
    }

    fn element_key_ref(&self, elem_ty: &AttrType) -> Option<KeyRef<'_>> {
        match (self, elem_ty) {
            (Value::Tuple(_), AttrType::Tuple(fields)) => {
                let key_attr = fields.iter().find(|a| a.key)?;
                self.field(&key_attr.name)?.key_ref()
            }
            _ => self.key_ref(),
        }
    }

    /// Converts an atomic value to an [`ObjectKey`], if possible.
    pub fn as_key(&self) -> Option<ObjectKey> {
        self.key_ref().map(KeyRef::to_key)
    }

    /// Whether this atomic value is the key `key` (`as_key() == Some(key)`
    /// without building the key).
    pub fn is_key(&self, key: &ObjectKey) -> bool {
        self.key_ref() == Some(key.into())
    }

    /// For a tuple value with a `key` attribute flagged in `fields`, extracts
    /// the element key; for an atomic value, the value itself.
    pub fn element_key(&self, elem_ty: &AttrType) -> Option<ObjectKey> {
        self.element_key_ref(elem_ty).map(KeyRef::to_key)
    }

    /// Whether this element carries the key `key`
    /// (`element_key(elem_ty) == Some(key)` without building the key).
    pub fn has_element_key(&self, elem_ty: &AttrType, key: &ObjectKey) -> bool {
        self.element_key_ref(elem_ty) == Some(key.into())
    }

    /// Collects all [`ObjectRef`]s contained anywhere in this value.
    ///
    /// This is the "scan over all the existing references" of §4.4.2.1: the
    /// protocol discovers entry points of dependent inner units from the data
    /// it accesses anyway — no backward pointers are needed.
    pub fn collect_refs<'a>(&'a self, out: &mut Vec<&'a ObjectRef>) {
        match self {
            Value::Ref(r) => out.push(r),
            Value::Set(es) | Value::List(es) => {
                for e in es.iter() {
                    e.collect_refs(out);
                }
            }
            Value::Tuple(fields) => {
                for (_, v) in fields.iter() {
                    v.collect_refs(out);
                }
            }
            _ => {}
        }
    }

    /// Counts the basic (atomic/ref) leaves of this value — a proxy for how
    /// many tuple-level locks a finest-granularity protocol would take.
    pub fn leaf_count(&self) -> usize {
        match self {
            Value::Set(es) | Value::List(es) => es.iter().map(Value::leaf_count).sum(),
            Value::Tuple(fields) => fields.iter().map(|(_, v)| v.leaf_count()).sum(),
            _ => 1,
        }
    }

    /// Type checks this value against `ty`; `path` names the value in error
    /// messages (it is formatted only if the check fails).
    pub fn check_type(&self, ty: &AttrType, path: impl fmt::Display) -> Result<()> {
        self.check_at(ty, At::Root(&path))
    }

    fn check_at(&self, ty: &AttrType, at: At<'_>) -> Result<()> {
        let mismatch = |found: &str| {
            Err(Nf2Error::TypeMismatch {
                path: at.to_string(),
                expected: ty.to_string(),
                found: found.to_string(),
            })
        };
        match (self, ty) {
            (Value::Str(_), AttrType::Atomic(AtomicType::Str)) => Ok(()),
            (Value::Int(_), AttrType::Atomic(AtomicType::Int)) => Ok(()),
            (Value::Real(_), AttrType::Atomic(AtomicType::Real)) => Ok(()),
            (Value::Bool(_), AttrType::Atomic(AtomicType::Bool)) => Ok(()),
            (Value::Ref(r), AttrType::Ref(target)) => {
                if &r.relation == target {
                    Ok(())
                } else {
                    mismatch(&format!("ref<{}>", r.relation))
                }
            }
            (Value::Set(es), AttrType::Set(elem)) => {
                let mut keys = Vec::with_capacity(es.len());
                for (i, e) in es.iter().enumerate() {
                    e.check_at(elem, At::Elem(&at, i))?;
                    if let Some(k) = e.element_key_ref(elem) {
                        keys.push(k);
                    }
                }
                keys.sort_unstable();
                if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
                    return Err(Nf2Error::DuplicateSetKey {
                        path: at.to_string(),
                        key: w[0].to_key().to_string(),
                    });
                }
                Ok(())
            }
            (Value::List(es), AttrType::List(elem)) => {
                for (i, e) in es.iter().enumerate() {
                    e.check_at(elem, At::Elem(&at, i))?;
                }
                Ok(())
            }
            (Value::Tuple(vals), AttrType::Tuple(fields)) => check_fields(vals, fields, at, ty),
            (v, _) => mismatch(kind_name(v)),
        }
    }

    /// Validates this value as a complex object of `relation` and returns its
    /// key.
    pub fn check_object(&self, relation: &RelationSchema) -> Result<ObjectKey> {
        let at = At::Root(&relation.name);
        // What `relation.tuple_type()` displays, built only if an error reports it.
        let expected = fmt::from_fn(|f| write!(f, "{}", relation.tuple_type()));
        match self {
            Value::Tuple(vals) => check_fields(vals, relation.fields(), at, &expected)?,
            v => {
                return Err(Nf2Error::TypeMismatch {
                    path: at.to_string(),
                    expected: expected.to_string(),
                    found: kind_name(v).to_string(),
                })
            }
        }
        let key_attr = relation
            .key_attribute()
            .ok_or_else(|| Nf2Error::MissingKey(relation.name.clone()))?;
        self.field(&key_attr.name)
            .and_then(Value::as_key)
            .ok_or_else(|| Nf2Error::MissingKey(relation.name.clone()))
    }

    /// Verifies that every reference inside this value resolves against some
    /// relation in `schema` (existence of the *target object* is checked by
    /// the storage layer, which knows the extension).
    pub fn check_ref_relations(&self, schema: &DatabaseSchema) -> Result<()> {
        let mut refs = Vec::new();
        self.collect_refs(&mut refs);
        for r in refs {
            schema.relation(&r.relation)?;
        }
        Ok(())
    }
}

/// Where a checked value sits below the value `check_type` was called on: a
/// chain through the recursion's stack frames, so the path text is built only
/// when an error reports it.
#[derive(Clone, Copy)]
enum At<'a> {
    Root(&'a dyn fmt::Display),
    Field(&'a At<'a>, &'a str),
    Elem(&'a At<'a>, usize),
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            At::Root(path) => path.fmt(f),
            At::Field(parent, name) => write!(f, "{parent}.{name}"),
            At::Elem(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// Checks a tuple's `(name, value)` pairs against the tuple type's fields;
/// `expected` displays that type.
fn check_fields(
    vals: &[(Name, Value)],
    fields: &[Attribute],
    at: At<'_>,
    expected: impl fmt::Display,
) -> Result<()> {
    if vals.len() != fields.len() {
        return Err(Nf2Error::TypeMismatch {
            path: at.to_string(),
            expected: expected.to_string(),
            found: format!("tuple of {} fields", vals.len()),
        });
    }
    for ((name, v), f) in vals.iter().zip(fields) {
        if **name != *f.name {
            return Err(Nf2Error::BadPath { path: at.to_string(), step: name.to_string() });
        }
        v.check_at(&f.ty, At::Field(&at, name))?;
    }
    Ok(())
}

fn kind_name(v: &Value) -> &'static str {
    match v {
        Value::Str(_) => "str",
        Value::Int(_) => "int",
        Value::Real(_) => "real",
        Value::Bool(_) => "bool",
        Value::Set(_) => "set",
        Value::List(_) => "list",
        Value::Tuple(_) => "tuple",
        Value::Ref(_) => "ref",
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Set(es) => {
                write!(f, "{{")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
            Value::List(es) => {
                write!(f, "[")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Value::Tuple(fields) => {
                write!(f, "(")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, ")")
            }
            Value::Ref(r) => write!(f, "{r}"),
        }
    }
}

/// Builder helpers for tuple values.
pub mod build {
    use super::*;

    /// Builds a tuple value from `(name, value)` pairs.
    pub fn tup(fields: Vec<(&str, Value)>) -> Value {
        Value::Tuple(Arc::new(fields.into_iter().map(|(n, v)| (n.into(), v)).collect()))
    }

    /// Builds a set value.
    pub fn set(elems: Vec<Value>) -> Value {
        Value::Set(Arc::new(elems))
    }

    /// Builds a list value.
    pub fn list(elems: Vec<Value>) -> Value {
        Value::List(Arc::new(elems))
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::types::shorthand::{self, attr, int_, ref_, str_};

    fn robot_ty() -> AttrType {
        shorthand::tuple(vec![
            attr("robot_id", str_()),
            attr("trajectory", str_()),
            attr("effectors", shorthand::set(ref_("effectors"))),
        ])
    }

    fn robot(id: &str, effs: &[&str]) -> Value {
        tup(vec![
            ("robot_id", Value::str(id)),
            ("trajectory", Value::str(format!("t{id}"))),
            (
                "effectors",
                set(effs.iter().map(|e| Value::reference("effectors", *e)).collect()),
            ),
        ])
    }

    #[test]
    fn well_typed_robot_checks() {
        assert!(robot("r1", &["e1", "e2"]).check_type(&robot_ty(), "robots").is_ok());
    }

    #[test]
    fn wrong_atomic_type_rejected() {
        let v = tup(vec![
            ("robot_id", Value::Int(3)),
            ("trajectory", Value::str("t")),
            ("effectors", set(vec![])),
        ]);
        assert!(matches!(
            v.check_type(&robot_ty(), "robots").unwrap_err(),
            Nf2Error::TypeMismatch { .. }
        ));
    }

    #[test]
    fn wrong_ref_target_rejected() {
        let v = tup(vec![
            ("robot_id", Value::str("r1")),
            ("trajectory", Value::str("t")),
            ("effectors", set(vec![Value::reference("cells", "c1")])),
        ]);
        let err = v.check_type(&robot_ty(), "robots").unwrap_err();
        assert!(matches!(err, Nf2Error::TypeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn misnamed_field_rejected() {
        let v = tup(vec![
            ("robotid", Value::str("r1")),
            ("trajectory", Value::str("t")),
            ("effectors", set(vec![])),
        ]);
        assert!(matches!(
            v.check_type(&robot_ty(), "robots").unwrap_err(),
            Nf2Error::BadPath { .. }
        ));
    }

    #[test]
    fn duplicate_set_keys_rejected() {
        let ty = shorthand::set(robot_ty());
        let v = set(vec![robot("r1", &[]), robot("r1", &[])]);
        assert!(matches!(
            v.check_type(&ty, "robots").unwrap_err(),
            Nf2Error::DuplicateSetKey { .. }
        ));
    }

    #[test]
    fn collect_refs_traverses_everything() {
        let v = robot("r1", &["e1", "e2"]);
        let mut refs = Vec::new();
        v.collect_refs(&mut refs);
        let keys: Vec<String> = refs.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(keys, vec!["e1", "e2"]);
    }

    #[test]
    fn leaf_count_counts_blu_instances() {
        // robot_id + trajectory + 2 refs = 4 leaves
        assert_eq!(robot("r1", &["e1", "e2"]).leaf_count(), 4);
        assert_eq!(Value::Int(1).leaf_count(), 1);
        assert_eq!(set(vec![]).leaf_count(), 0);
    }

    #[test]
    fn field_accessors() {
        let mut v = robot("r1", &[]);
        assert_eq!(v.field("robot_id"), Some(&Value::str("r1")));
        *v.field_mut("trajectory").unwrap() = Value::str("new");
        assert_eq!(v.field("trajectory"), Some(&Value::str("new")));
        assert!(v.field("nope").is_none());
        assert!(Value::Int(1).field("x").is_none());
    }

    #[test]
    fn element_key_for_tuples_and_atoms() {
        let r = robot("r7", &[]);
        assert_eq!(r.element_key(&robot_ty()), Some(ObjectKey::Str("r7".into())));
        assert_eq!(Value::Int(5).element_key(&int_()), Some(ObjectKey::Int(5)));
        assert_eq!(set(vec![]).element_key(&int_()), None);
        // The comparing forms agree with the building ones.
        assert!(r.has_element_key(&robot_ty(), &ObjectKey::from("r7")));
        assert!(!r.has_element_key(&robot_ty(), &ObjectKey::from("r8")));
        assert!(Value::Int(5).is_key(&ObjectKey::Int(5)));
        assert!(!Value::str("5").is_key(&ObjectKey::Int(5)));
        assert!(!set(vec![]).is_key(&ObjectKey::Int(5)));
    }

    #[test]
    fn a_clone_shares_until_written() {
        let original = robot("r1", &["e1"]);
        let mut copy = original.clone();
        assert!(copy.shares_with(&original));
        // A missed lookup copies nothing.
        assert!(copy.field_mut("nope").is_none());
        assert!(copy.shares_with(&original));
        *copy.field_mut("trajectory").unwrap() = Value::str("new");
        assert!(!copy.shares_with(&original));
        assert_eq!(original.field("trajectory"), Some(&Value::str("tr1")));
        // The untouched field is still the original's node.
        assert!(copy.field("effectors").unwrap().shares_with(original.field("effectors").unwrap()));
        // Atomic values own their payload.
        assert!(!Value::Int(1).shares_with(&Value::Int(1)));
    }

    #[test]
    fn display_is_compact() {
        let v = tup(vec![("a", Value::Int(1)), ("b", set(vec![Value::Int(2)]))]);
        assert_eq!(v.to_string(), "(a: 1, b: {2})");
        assert_eq!(Value::reference("effectors", "e1").to_string(), "->effectors[e1]");
    }

    #[test]
    fn object_key_orderings() {
        assert!(ObjectKey::from("a") < ObjectKey::from("b"));
        assert!(ObjectKey::from(1i64) < ObjectKey::from(2i64));
        assert_eq!(ObjectKey::from("x").to_string(), "x");
    }
}
