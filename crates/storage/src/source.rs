//! [`InstanceSource`] implementation: the store feeds the lock protocols.

use crate::navigate;
use crate::store::Store;
use colock_core::{InstanceSource, InstanceTarget, ReverseScan, TargetStep};
use colock_nf2::{AttrType, Attribute, Name, ObjectKey, ObjectRef, Value};

impl InstanceSource for Store {
    fn refs_under(&self, target: &InstanceTarget) -> Vec<ObjectRef> {
        let Some(key) = &target.object else {
            return self.refs_in_relation(&target.relation);
        };
        let Ok(schema) = self.catalog().schema().relation(&target.relation) else {
            return Vec::new();
        };
        // An entry point sits only behind a reference edge of the schema
        // (Fig. 5): a target whose type holds no `Ref` anywhere below it has
        // none, and its object is neither latched nor walked.
        let holds_ref = match navigate::path_type(schema, &target.steps) {
            Some(ty) => ty.holds_ref(),
            None => target.steps.is_empty() && schema.holds_ref(),
        };
        if !holds_ref {
            return Vec::new();
        }
        self.with_object(&target.relation, key, |obj| {
            navigate::navigate(schema, obj, &target.steps)
                .map(|sub| {
                    let mut refs = Vec::new();
                    sub.collect_refs(&mut refs);
                    refs.into_iter().cloned().collect()
                })
                .unwrap_or_default()
        })
        .unwrap_or_default()
    }

    fn refs_in_relation(&self, relation: &str) -> Vec<ObjectRef> {
        if !self.catalog().schema().relation(relation).is_ok_and(|r| r.holds_ref()) {
            return Vec::new();
        }
        let Ok(keys) = self.keys(relation) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for key in keys {
            let _ = self.with_object(relation, &key, |obj| {
                let mut refs = Vec::new();
                obj.collect_refs(&mut refs);
                out.extend(refs.into_iter().cloned());
            });
        }
        out
    }

    fn tuples_under(&self, target: &InstanceTarget) -> Vec<InstanceTarget> {
        let Some(key) = &target.object else {
            return Vec::new();
        };
        let Ok(schema) = self.catalog().schema().relation(&target.relation) else {
            return Vec::new();
        };
        self.with_object(&target.relation, key, |obj| {
            let mut out = Vec::new();
            // The object's root tuple counts once when the whole object (or a
            // heterogeneous top) is targeted.
            if target.steps.is_empty() {
                out.push(InstanceTarget::object(&target.relation, key.clone()));
            }
            let Some(sub) = navigate::navigate(schema, obj, &target.steps) else {
                return out;
            };
            let (relation, steps) = (&target.relation, &target.steps);
            match navigate::path_type(schema, steps) {
                Some(ty) => collect_element_tuples(relation, key, steps, sub, ty, &mut out),
                None if steps.is_empty() => {
                    collect_field_tuples(relation, key, steps, sub, schema.fields(), &mut out)
                }
                None => {}
            }
            out
        })
        .unwrap_or_default()
    }

    fn referencing_objects(&self, relation: &str, key: &ObjectKey) -> ReverseScan {
        let mut scan = ReverseScan::default();
        let schema = self.catalog().schema();
        for rel in &schema.relations {
            if !rel.direct_ref_targets().contains(&relation) {
                continue;
            }
            let Ok(keys) = self.keys(&rel.name) else {
                continue;
            };
            for obj_key in keys {
                scan.objects_scanned += 1;
                let _ = self.with_object(&rel.name, &obj_key, |obj| {
                    let Value::Tuple(fields) = obj else { return };
                    let mut search = RefSearch {
                        relation: &rel.name,
                        obj_key: &obj_key,
                        wanted: (relation, key),
                        prefix: Vec::new(),
                        out: &mut scan.referencing,
                    };
                    search.fields(fields, rel.fields());
                });
            }
        }
        self.bump_scan_visits(scan.objects_scanned);
        scan
    }

    fn object_keys(&self, relation: &str) -> Vec<ObjectKey> {
        self.keys(relation).unwrap_or_default()
    }
}

/// Collects the basic element tuples in `value` (of type `ty`) as lock
/// targets: each element of each set/list, recursively.
fn collect_element_tuples(
    relation: &str,
    obj_key: &ObjectKey,
    prefix: &[TargetStep],
    value: &Value,
    ty: &AttrType,
    out: &mut Vec<InstanceTarget>,
) {
    match ty {
        AttrType::Tuple(fields) => {
            collect_field_tuples(relation, obj_key, prefix, value, fields, out)
        }
        AttrType::Set(elem) | AttrType::List(elem) => {
            let Some(es) = value.elements() else {
                return;
            };
            for e in es {
                let Some(k) = e.element_key(elem) else {
                    continue;
                };
                let mut p = prefix.to_vec();
                // Replace the trailing bare attr step with an elem step.
                if let Some(last) = p.last_mut() {
                    if last.elem.is_none() {
                        last.elem = Some(k.clone());
                    }
                }
                out.push(InstanceTarget {
                    relation: relation.to_string(),
                    object: Some(obj_key.clone()),
                    steps: p.clone(),
                });
                collect_element_tuples(relation, obj_key, &p, e, elem, out);
            }
        }
        _ => {}
    }
}

/// The tuple arm of [`collect_element_tuples`], over a borrowed field list
/// (a tuple type's, or the relation's own).
fn collect_field_tuples(
    relation: &str,
    obj_key: &ObjectKey,
    prefix: &[TargetStep],
    value: &Value,
    fields: &[Attribute],
    out: &mut Vec<InstanceTarget>,
) {
    for f in fields {
        if let Some(v) = value.field(&f.name) {
            let mut p = prefix.to_vec();
            p.push(TargetStep::attr(&f.name));
            collect_element_tuples(relation, obj_key, &p, v, &f.ty, out);
        }
    }
}

/// Walks one object looking for references to `wanted`, recording the path
/// of the innermost enclosing element (or the object itself).
struct RefSearch<'a> {
    relation: &'a str,
    obj_key: &'a ObjectKey,
    wanted: (&'a str, &'a ObjectKey),
    prefix: Vec<TargetStep>,
    out: &'a mut Vec<InstanceTarget>,
}

impl RefSearch<'_> {
    fn fields(&mut self, fields: &[(Name, Value)], fts: &[Attribute]) {
        for ((name, v), ft) in fields.iter().zip(fts) {
            debug_assert_eq!(**name, *ft.name);
            self.prefix.push(TargetStep::attr(&**name));
            self.value(v, &ft.ty);
            self.prefix.pop();
        }
    }

    fn value(&mut self, value: &Value, ty: &AttrType) {
        match (value, ty) {
            (Value::Ref(r), _) if (r.relation.as_str(), &r.key) == self.wanted => {
                // Cut at the last element step: the referencing *subobject*.
                let cut = self
                    .prefix
                    .iter()
                    .rposition(|s| s.elem.is_some())
                    .map(|i| i + 1)
                    .unwrap_or(0);
                self.out.push(InstanceTarget {
                    relation: self.relation.to_string(),
                    object: Some(self.obj_key.clone()),
                    steps: self.prefix[..cut].to_vec(),
                });
            }
            (Value::Tuple(fields), AttrType::Tuple(fts)) => self.fields(fields, fts),
            (Value::Set(es), AttrType::Set(elem)) | (Value::List(es), AttrType::List(elem)) => {
                for e in es.iter() {
                    let k = e.element_key(elem);
                    if let Some(last) = self.prefix.last_mut() {
                        last.elem = k;
                    }
                    self.value(e, elem);
                    if let Some(last) = self.prefix.last_mut() {
                        last.elem = None;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::fixtures::fig1_catalog;
    use colock_nf2::value::build::*;
    use std::sync::Arc;

    fn populated() -> Store {
        let s = Store::new(Arc::new(fig1_catalog()));
        for (e, t) in [("e1", "grip"), ("e2", "weld"), ("e3", "drill")] {
            s.insert(
                "effectors",
                tup(vec![("eff_id", Value::str(e)), ("tool", Value::str(t))]),
            )
            .unwrap();
        }
        s.insert(
            "cells",
            tup(vec![
                ("cell_id", Value::str("c1")),
                (
                    "c_objects",
                    set(vec![
                        tup(vec![("obj_id", Value::str("o1")), ("obj_name", Value::str("n1"))]),
                        tup(vec![("obj_id", Value::str("o2")), ("obj_name", Value::str("n2"))]),
                    ]),
                ),
                (
                    "robots",
                    list(vec![
                        tup(vec![
                            ("robot_id", Value::str("r1")),
                            ("trajectory", Value::str("t1")),
                            (
                                "effectors",
                                set(vec![
                                    Value::reference("effectors", "e1"),
                                    Value::reference("effectors", "e2"),
                                ]),
                            ),
                        ]),
                        tup(vec![
                            ("robot_id", Value::str("r2")),
                            ("trajectory", Value::str("t2")),
                            (
                                "effectors",
                                set(vec![
                                    Value::reference("effectors", "e2"),
                                    Value::reference("effectors", "e3"),
                                ]),
                            ),
                        ]),
                    ]),
                ),
            ]),
        )
        .unwrap();
        s
    }

    #[test]
    fn refs_under_robot() {
        let s = populated();
        let t = InstanceTarget::object("cells", "c1").elem("robots", "r1");
        let refs: Vec<String> = s.refs_under(&t).iter().map(|r| r.key.to_string()).collect();
        assert_eq!(refs, vec!["e1", "e2"]);
    }

    #[test]
    fn refs_under_whole_object_and_relation() {
        let s = populated();
        assert_eq!(s.refs_under(&InstanceTarget::object("cells", "c1")).len(), 4);
        assert_eq!(s.refs_in_relation("cells").len(), 4);
        assert!(s.refs_in_relation("effectors").is_empty());
    }

    #[test]
    fn tuples_under_counts_elements_and_root() {
        let s = populated();
        let all = s.tuples_under(&InstanceTarget::object("cells", "c1"));
        // root + 2 c_objects + 2 robots = 5 (effector refs are not tuples)
        assert_eq!(all.len(), 5, "{all:?}");
        let names: Vec<String> = all.iter().map(|t| t.to_string()).collect();
        assert!(names.contains(&"cells[c1]".to_string()));
        assert!(names.contains(&"cells[c1].c_objects[o2]".to_string()));
        assert!(names.contains(&"cells[c1].robots[r2]".to_string()));
    }

    #[test]
    fn tuples_under_subtree_only() {
        let s = populated();
        let robots = s.tuples_under(&InstanceTarget::object("cells", "c1").attr("robots"));
        assert_eq!(robots.len(), 2);
    }

    #[test]
    fn reverse_scan_finds_both_robots_for_e2() {
        let s = populated();
        let scan = s.referencing_objects("effectors", &ObjectKey::from("e2"));
        let who: Vec<String> = scan.referencing.iter().map(|t| t.to_string()).collect();
        assert_eq!(who, vec!["cells[c1].robots[r1]", "cells[c1].robots[r2]"]);
        assert_eq!(scan.objects_scanned, 1);
        assert_eq!(s.scan_visits(), 1);
    }

    #[test]
    fn reverse_scan_cost_grows_with_relation_size() {
        let s = populated();
        for i in 2..=20 {
            s.insert(
                "cells",
                tup(vec![
                    ("cell_id", Value::str(format!("c{i}"))),
                    ("c_objects", set(vec![])),
                    ("robots", list(vec![])),
                ]),
            )
            .unwrap();
        }
        let scan = s.referencing_objects("effectors", &ObjectKey::from("e1"));
        assert_eq!(scan.objects_scanned, 20, "every cell must be visited");
        assert_eq!(scan.referencing.len(), 1);
    }

    #[test]
    fn object_keys_lists_relation() {
        let s = populated();
        assert_eq!(s.object_keys("effectors").len(), 3);
        assert!(s.object_keys("missing").is_empty());
    }
}
