//! The extended NF² type system (§2 of the paper).
//!
//! Attribute values may be atomic, *homogeneously structured* (a set or a
//! list — data of the same type), or *heterogeneously structured* (a complex
//! tuple — data of different types). A reference (`ref`) is an atomic value
//! that points to a complex object of another relation ("common data").
//! The HoLU/HeLU/BLU distinction of the general lock graph (Fig. 4) is derived
//! from exactly this classification.

use std::fmt;

/// Atomic (leaf) data types without inner structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicType {
    /// Strings (`str` in Fig. 1).
    Str,
    /// Integers (`int` in Fig. 1).
    Int,
    /// Reals.
    Real,
    /// Booleans.
    Bool,
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomicType::Str => "str",
            AtomicType::Int => "int",
            AtomicType::Real => "real",
            AtomicType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// The type of an attribute value in the extended NF² model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrType {
    /// An atomic attribute without inner structure.
    Atomic(AtomicType),
    /// A *set* of elements of one type — homogeneously structured (`S` in
    /// Fig. 1). Sets of tuples are keyed by the element tuple's key attribute.
    Set(Box<AttrType>),
    /// A *list* of elements of one type — homogeneously structured and
    /// ordered (`L` in Fig. 1; e.g. the `robots` list ordered by `robot_id`).
    List(Box<AttrType>),
    /// A *(complex) tuple* — heterogeneously structured (`T` in Fig. 1).
    Tuple(Vec<Attribute>),
    /// A reference to common data: always references a complex object of the
    /// named relation, never a part of one (§2). The implementation of
    /// references (key values, surrogates, …) is deliberately opaque; we use
    /// surrogate keys (see [`crate::value::ObjectRef`]).
    Ref(String),
}

impl AttrType {
    /// `true` for types whose lockable-unit image is a BLU (derivation rule 4;
    /// references are BLUs with a dashed edge, Fig. 4).
    pub fn is_basic(&self) -> bool {
        matches!(self, AttrType::Atomic(_) | AttrType::Ref(_))
    }

    /// `true` for homogeneously structured types (derivation rules 1 and 2).
    pub fn is_homogeneous(&self) -> bool {
        matches!(self, AttrType::Set(_) | AttrType::List(_))
    }

    /// `true` for heterogeneously structured types (derivation rule 3).
    pub fn is_heterogeneous(&self) -> bool {
        matches!(self, AttrType::Tuple(_))
    }

    /// The element type of a set or list, if any.
    pub fn element(&self) -> Option<&AttrType> {
        match self {
            AttrType::Set(e) | AttrType::List(e) => Some(e),
            _ => None,
        }
    }

    /// For a set/list whose elements carry a *derivable element key*, the
    /// element type. Atomic `str`/`int` elements are self-keyed; tuple
    /// elements need a key field of `str`/`int` (the `_id` convention of
    /// Fig. 1). Elements without such a key — reals, bools, refs, nested
    /// containers, keyless tuples — cannot be addressed individually, so
    /// their container gets `None`.
    pub fn keyed_element(&self) -> Option<&AttrType> {
        let elem = self.element()?;
        let keyable = match elem {
            AttrType::Atomic(AtomicType::Str | AtomicType::Int) => true,
            AttrType::Tuple(fields) => fields
                .iter()
                .any(|a| a.key && matches!(a.ty, AttrType::Atomic(AtomicType::Str | AtomicType::Int))),
            _ => false,
        };
        keyable.then_some(elem)
    }

    /// Whether this HoLU admits the semantic commutativity lock modes
    /// (Insert/Delete/Member): set- and list-valued attributes whose
    /// elements are addressable by a derivable key. Two inserts of distinct
    /// keys commute on such a container, and same-key collisions materialize
    /// as classical locks on the element resource named by that key.
    pub fn admits_semantic_modes(&self) -> bool {
        self.keyed_element().is_some()
    }

    /// The fields of a tuple type, if any.
    pub fn fields(&self) -> Option<&[Attribute]> {
        match self {
            AttrType::Tuple(fs) => Some(fs),
            _ => None,
        }
    }

    /// The target relation of a reference type, if any.
    pub fn ref_target(&self) -> Option<&str> {
        match self {
            AttrType::Ref(t) => Some(t),
            _ => None,
        }
    }

    /// Whether a reference sits anywhere in this type: only then can an
    /// instance of it hold an entry point of a lower inner unit (a dashed
    /// edge, Fig. 5). Walks the type tree and allocates nothing.
    pub fn holds_ref(&self) -> bool {
        match self {
            AttrType::Atomic(_) => false,
            AttrType::Ref(_) => true,
            AttrType::Set(e) | AttrType::List(e) => e.holds_ref(),
            AttrType::Tuple(fs) => fs.iter().any(|a| a.ty.holds_ref()),
        }
    }

    /// Collects the names of all relations referenced anywhere below this
    /// type (used for recursion and target validation).
    pub fn collect_ref_targets<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            AttrType::Atomic(_) => {}
            AttrType::Ref(t) => out.push(t),
            AttrType::Set(e) | AttrType::List(e) => e.collect_ref_targets(out),
            AttrType::Tuple(fs) => {
                for a in fs {
                    a.ty.collect_ref_targets(out);
                }
            }
        }
    }

    /// Depth of the type tree: atomic/ref = 1, containers add 1.
    pub fn depth(&self) -> usize {
        match self {
            AttrType::Atomic(_) | AttrType::Ref(_) => 1,
            AttrType::Set(e) | AttrType::List(e) => 1 + e.depth(),
            AttrType::Tuple(fs) => 1 + fs.iter().map(|a| a.ty.depth()).max().unwrap_or(0),
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrType::Atomic(a) => write!(f, "{a}"),
            AttrType::Set(e) => write!(f, "S<{e}>"),
            AttrType::List(e) => write!(f, "L<{e}>"),
            AttrType::Tuple(fs) => {
                write!(f, "T(")?;
                for (i, a) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {}", a.name, a.ty)?;
                }
                write!(f, ")")
            }
            AttrType::Ref(t) => write!(f, "ref<{t}>"),
        }
    }
}

/// A named attribute of a tuple type or relation.
///
/// Following Fig. 1, an attribute whose name ends in `_id` is treated as a key
/// attribute by convention; [`Attribute::key`] can also be set explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (added to each node of the schema tree in Fig. 1).
    pub name: String,
    /// The attribute's type.
    pub ty: AttrType,
    /// Whether this attribute is a key of the enclosing tuple.
    pub key: bool,
}

impl Attribute {
    /// Creates a non-key attribute.
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        let name = name.into();
        let key = name.ends_with("_id");
        Attribute { name, ty, key }
    }

    /// Creates an attribute and marks it as key.
    pub fn key(name: impl Into<String>, ty: AttrType) -> Self {
        Attribute { name: name.into(), ty, key: true }
    }
}

/// Convenience constructors mirroring Fig. 1 notation.
pub mod shorthand {
    use super::*;

    /// `str` atomic type.
    pub fn str_() -> AttrType {
        AttrType::Atomic(AtomicType::Str)
    }
    /// `int` atomic type.
    pub fn int_() -> AttrType {
        AttrType::Atomic(AtomicType::Int)
    }
    /// `real` atomic type.
    pub fn real_() -> AttrType {
        AttrType::Atomic(AtomicType::Real)
    }
    /// `bool` atomic type.
    pub fn bool_() -> AttrType {
        AttrType::Atomic(AtomicType::Bool)
    }
    /// `S<element>` set type.
    pub fn set(e: AttrType) -> AttrType {
        AttrType::Set(Box::new(e))
    }
    /// `L<element>` list type.
    pub fn list(e: AttrType) -> AttrType {
        AttrType::List(Box::new(e))
    }
    /// `T(fields…)` tuple type.
    pub fn tuple(fields: Vec<Attribute>) -> AttrType {
        AttrType::Tuple(fields)
    }
    /// `ref<relation>` reference type.
    pub fn ref_(target: impl Into<String>) -> AttrType {
        AttrType::Ref(target.into())
    }
    /// Attribute shorthand.
    pub fn attr(name: &str, ty: AttrType) -> Attribute {
        Attribute::new(name, ty)
    }
}

#[cfg(test)]
mod tests {
    use super::shorthand::*;
    use super::*;

    #[test]
    fn classification_matches_derivation_rules() {
        assert!(str_().is_basic());
        assert!(ref_("effectors").is_basic());
        assert!(set(str_()).is_homogeneous());
        assert!(list(int_()).is_homogeneous());
        assert!(tuple(vec![attr("a", str_())]).is_heterogeneous());
        assert!(!tuple(vec![]).is_basic());
    }

    #[test]
    fn semantic_mode_admission_requires_a_derivable_element_key() {
        // Self-keyed atomic elements and keyed tuple elements qualify.
        assert!(set(str_()).admits_semantic_modes());
        assert!(list(int_()).admits_semantic_modes());
        assert!(set(tuple(vec![attr("robot_id", str_()), attr("t", real_())])).admits_semantic_modes());
        // No derivable key: reals, refs, nested containers, keyless tuples.
        assert!(!set(real_()).admits_semantic_modes());
        assert!(!set(ref_("effectors")).admits_semantic_modes());
        assert!(!list(set(str_())).admits_semantic_modes());
        assert!(!set(tuple(vec![attr("name", str_())])).admits_semantic_modes());
        // A key field must itself be keyable (bool keys carry no ObjectKey).
        assert!(!set(tuple(vec![Attribute::key("flag", bool_())])).admits_semantic_modes());
        // Non-containers never admit semantic modes.
        assert!(!str_().admits_semantic_modes());
        assert!(!tuple(vec![attr("a_id", str_())]).admits_semantic_modes());
    }

    #[test]
    fn id_suffix_convention_marks_keys() {
        assert!(Attribute::new("cell_id", str_()).key);
        assert!(!Attribute::new("cell", str_()).key);
        assert!(Attribute::key("name", str_()).key);
    }

    #[test]
    fn collect_ref_targets_finds_nested_refs() {
        let t = set(tuple(vec![
            attr("robot_id", str_()),
            attr("effectors", set(ref_("effectors"))),
            attr("aux", list(ref_("tools"))),
        ]));
        let mut targets = Vec::new();
        t.collect_ref_targets(&mut targets);
        assert_eq!(targets, vec!["effectors", "tools"]);
    }

    #[test]
    fn holds_ref_looks_below_the_type_itself() {
        assert!(ref_("effectors").holds_ref());
        assert!(!str_().holds_ref());
        assert!(!set(tuple(vec![attr("obj_id", str_()), attr("obj_name", str_())])).holds_ref());
        // A reference nested in a set of tuples is found.
        let robots = list(tuple(vec![
            attr("robot_id", str_()),
            attr("effectors", set(ref_("effectors"))),
        ]));
        assert!(robots.holds_ref());
        assert!(!robots.element().unwrap().fields().unwrap()[0].ty.holds_ref());
    }

    #[test]
    fn depth_counts_nesting_levels() {
        assert_eq!(str_().depth(), 1);
        assert_eq!(set(str_()).depth(), 2);
        let robots = list(tuple(vec![
            attr("robot_id", str_()),
            attr("effectors", set(ref_("effectors"))),
        ]));
        // list -> tuple -> set -> ref
        assert_eq!(robots.depth(), 4);
    }

    #[test]
    fn display_round_trips_shape() {
        let t = tuple(vec![attr("obj_id", str_()), attr("sizes", set(int_()))]);
        assert_eq!(t.to_string(), "T(obj_id: str, sizes: S<int>)");
        assert_eq!(list(ref_("effectors")).to_string(), "L<ref<effectors>>");
    }

    #[test]
    fn element_and_fields_accessors() {
        let s = set(int_());
        assert_eq!(s.element(), Some(&int_()));
        assert!(s.fields().is_none());
        let t = tuple(vec![attr("a", int_())]);
        assert_eq!(t.fields().unwrap().len(), 1);
        assert!(t.element().is_none());
        assert_eq!(ref_("x").ref_target(), Some("x"));
        assert_eq!(int_().ref_target(), None);
    }
}
