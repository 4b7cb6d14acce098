//! Navigation of NF² values along instance-target steps.
//!
//! A [`TargetStep`] names an attribute and optionally one element of a
//! set/list by key; navigation needs the schema to extract element keys
//! (sets of tuples are keyed by their key attribute).

use colock_core::TargetStep;
use colock_nf2::{AttrType, ObjectKey, RelationSchema, Value};

/// The type one step leads to, borrowed from the schema: the attribute's
/// type (stepping through set/list constructors like `AttrPath` resolution
/// does), or its element type for an elem step. `cur` is the type the step
/// starts from; `None` is the relation's own tuple.
fn step_type<'s>(
    relation: &'s RelationSchema,
    cur: Option<&'s AttrType>,
    step: &TargetStep,
) -> Option<&'s AttrType> {
    let attr_ty = match cur {
        None => &relation.attribute(&step.attr)?.ty,
        Some(ty) => colock_nf2::path::resolve_step(ty, &step.attr)?,
    };
    if step.elem.is_some() {
        attr_ty.element()
    } else {
        Some(attr_ty)
    }
}

/// Navigates `value` (an object of `relation`) along `steps`, returning the
/// referenced subvalue. An elem step selects one element of a set/list; a
/// bare attr step selects the whole attribute value.
pub fn navigate<'v>(
    relation: &RelationSchema,
    value: &'v Value,
    steps: &[TargetStep],
) -> Option<&'v Value> {
    let mut cur = value;
    let mut cur_ty = None;
    for step in steps {
        let ty = step_type(relation, cur_ty, step)?;
        cur = cur.field(&step.attr)?;
        if let Some(key) = &step.elem {
            cur = find_element(cur, ty, key)?;
        }
        cur_ty = Some(ty);
    }
    Some(cur)
}

/// Mutable navigation; same semantics as [`navigate`]. Every node on the way
/// that is shared with another value is copied first (`Value::field_mut` /
/// `Value::elements_mut`), so the caller may write through the result
/// without any other holder of the object seeing it; the siblings of the
/// path stay shared.
pub fn navigate_mut<'v>(
    relation: &RelationSchema,
    value: &'v mut Value,
    steps: &[TargetStep],
) -> Option<&'v mut Value> {
    let mut cur = value;
    let mut cur_ty = None;
    for step in steps {
        let ty = step_type(relation, cur_ty, step)?;
        cur = cur.field_mut(&step.attr)?;
        if let Some(key) = &step.elem {
            let at = element_position(cur, ty, key)?;
            cur = cur.elements_mut()?.get_mut(at)?;
        }
        cur_ty = Some(ty);
    }
    Some(cur)
}

fn element_position(container: &Value, elem_ty: &AttrType, key: &ObjectKey) -> Option<usize> {
    container.elements()?.iter().position(|e| e.has_element_key(elem_ty, key))
}

/// Finds a set/list element by key.
pub fn find_element<'v>(container: &'v Value, elem_ty: &AttrType, key: &ObjectKey) -> Option<&'v Value> {
    container.elements()?.iter().find(|e| e.has_element_key(elem_ty, key))
}

/// Removes the element with `key` from a set/list value, returning its
/// position and before-image (the position lets a rollback re-insert a list
/// element where it was).
pub fn remove_element(
    container: &mut Value,
    elem_ty: &AttrType,
    key: &ObjectKey,
) -> Option<(usize, Value)> {
    let idx = element_position(container, elem_ty, key)?;
    Some((idx, container.elements_mut()?.remove(idx)))
}

/// The attribute type at the end of `steps` (elem steps resolve to the
/// element type), borrowed from the schema. `None` for a path that does not
/// resolve and for the empty path: the object itself has no `AttrType` of
/// its own (its fields are [`RelationSchema::fields`]).
pub fn path_type<'s>(relation: &'s RelationSchema, steps: &[TargetStep]) -> Option<&'s AttrType> {
    let mut cur_ty = None;
    for step in steps {
        cur_ty = Some(step_type(relation, cur_ty, step)?);
    }
    cur_ty
}

/// The steps of the container an elem step selects from (`…robots[r1]` →
/// `…robots`); `None` if `steps` does not end in an elem step.
pub fn container_steps(steps: &[TargetStep]) -> Option<Vec<TargetStep>> {
    let (last, prefix) = steps.split_last()?;
    last.elem.as_ref()?;
    let mut container = prefix.to_vec();
    container.push(TargetStep::attr(last.attr.clone()));
    Some(container)
}

/// Enumerates the element keys of the set/list at the end of `steps`.
pub fn element_keys(
    relation: &RelationSchema,
    value: &Value,
    steps: &[TargetStep],
) -> Vec<ObjectKey> {
    let elements = navigate(relation, value, steps).and_then(Value::elements);
    let elem_ty = path_type(relation, steps).and_then(AttrType::element);
    match (elements, elem_ty) {
        (Some(es), Some(ty)) => es.iter().filter_map(|e| e.element_key(ty)).collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_nf2::builder::RelationBuilder;
    use colock_nf2::types::shorthand::*;
    use colock_nf2::value::build::{list as vlist, set as vset, tup};

    fn cells_schema() -> RelationSchema {
        RelationBuilder::new("cells", "seg1")
            .attr("cell_id", str_())
            .attr(
                "robots",
                list(tuple(vec![
                    attr("robot_id", str_()),
                    attr("trajectory", str_()),
                    attr("effectors", set(ref_("effectors"))),
                ])),
            )
            .finish()
    }

    fn c1() -> Value {
        tup(vec![
            ("cell_id", Value::str("c1")),
            (
                "robots",
                vlist(vec![
                    tup(vec![
                        ("robot_id", Value::str("r1")),
                        ("trajectory", Value::str("t1")),
                        ("effectors", vset(vec![Value::reference("effectors", "e1")])),
                    ]),
                    tup(vec![
                        ("robot_id", Value::str("r2")),
                        ("trajectory", Value::str("t2")),
                        ("effectors", vset(vec![])),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn navigate_to_attr_and_elem() {
        let schema = cells_schema();
        let v = c1();
        let robots = navigate(&schema, &v, &[TargetStep::attr("robots")]).unwrap();
        assert_eq!(robots.elements().unwrap().len(), 2);
        let r2 = navigate(&schema, &v, &[TargetStep::elem("robots", "r2")]).unwrap();
        assert_eq!(r2.field("trajectory"), Some(&Value::str("t2")));
        let traj = navigate(
            &schema,
            &v,
            &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
        )
        .unwrap();
        assert_eq!(traj, &Value::str("t1"));
    }

    #[test]
    fn navigate_missing_elem_is_none() {
        let schema = cells_schema();
        let v = c1();
        assert!(navigate(&schema, &v, &[TargetStep::elem("robots", "r9")]).is_none());
        assert!(navigate(&schema, &v, &[TargetStep::attr("nope")]).is_none());
    }

    #[test]
    fn navigate_mut_allows_in_place_update() {
        let schema = cells_schema();
        let mut v = c1();
        let traj = navigate_mut(
            &schema,
            &mut v,
            &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
        )
        .unwrap();
        *traj = Value::str("new");
        assert_eq!(
            navigate(&schema, &v, &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")]),
            Some(&Value::str("new"))
        );
    }

    #[test]
    fn element_keys_of_robots() {
        let schema = cells_schema();
        let v = c1();
        let keys = element_keys(&schema, &v, &[TargetStep::attr("robots")]);
        assert_eq!(keys, vec![ObjectKey::from("r1"), ObjectKey::from("r2")]);
    }

    #[test]
    fn element_keys_of_non_container_is_empty() {
        let schema = cells_schema();
        let v = c1();
        assert!(element_keys(&schema, &v, &[TargetStep::elem("robots", "r1")]).is_empty());
    }
}
