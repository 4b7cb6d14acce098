//! Property-based and concurrency tests of the store.

use colock_core::fixtures::fig1_catalog;
use colock_core::{InstanceSource, InstanceTarget, TargetStep};
use colock_nf2::builder::{DatabaseBuilder, RelationBuilder};
use colock_nf2::types::shorthand::{attr, list as list_, ref_, set as set_, str_, tuple};
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::{AttrType, Attribute, Catalog, ObjectKey, ObjectRef, Value};
use colock_storage::navigate::navigate;
use colock_storage::{StorageError, Store};
use colock_testkit::prop::string_of;
use colock_testkit::{ensure, ensure_eq, forall, run_threads, Rng};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn store() -> Store {
    Store::new(Arc::new(fig1_catalog()))
}

fn effector(id: &str, tool: &str) -> Value {
    tup(vec![("eff_id", Value::str(id)), ("tool", Value::str(tool))])
}

fn cell(id: &str, n_objects: usize, robots: &[(&str, &str)]) -> Value {
    tup(vec![
        ("cell_id", Value::str(id)),
        (
            "c_objects",
            set((0..n_objects)
                .map(|i| {
                    tup(vec![
                        ("obj_id", Value::str(format!("{id}-o{i}"))),
                        ("obj_name", Value::str(format!("n{i}"))),
                    ])
                })
                .collect()),
        ),
        (
            "robots",
            list(robots
                .iter()
                .map(|(rid, traj)| {
                    tup(vec![
                        ("robot_id", Value::str(*rid)),
                        ("trajectory", Value::str(*traj)),
                        ("effectors", set(vec![])),
                    ])
                })
                .collect()),
        ),
    ])
}

#[test]
fn insert_get_identity() {
    forall!(
        cases: 64,
        |rng| (rng.gen_range(0usize..20), string_of(rng, "abcdefghijklmnopqrstuvwxyz", 1..11)),
        |(n, tool): &(usize, String)| {
            let s = store();
            s.insert("effectors", effector("e1", tool)).unwrap();
            s.insert("cells", cell("c1", *n, &[("r1", "t1")])).unwrap();
            let v = s.get("cells", &ObjectKey::from("c1")).unwrap();
            ensure_eq!(v.field("c_objects").unwrap().elements().unwrap().len(), *n);
            let e = s.get("effectors", &ObjectKey::from("e1")).unwrap();
            ensure_eq!(e.field("tool"), Some(&Value::str(tool.clone())));
            Ok(())
        }
    );
}

#[test]
fn update_at_then_get_at_roundtrip() {
    forall!(
        cases: 64,
        |rng| string_of(rng, "abcdefghijklmnopqrstuvwxyz0123456789 ", 0..21),
        |traj: &String| {
            let s = store();
            s.insert("cells", cell("c1", 2, &[("r1", "t1"), ("r2", "t2")])).unwrap();
            let steps = vec![TargetStep::elem("robots", "r2"), TargetStep::attr("trajectory")];
            s.update_at("cells", &ObjectKey::from("c1"), &steps, Value::str(traj.clone())).unwrap();
            let got = s.get_at("cells", &ObjectKey::from("c1"), &steps).unwrap();
            ensure_eq!(got, Value::str(traj.clone()));
            // The sibling robot is untouched.
            let other = s
                .get_at(
                    "cells",
                    &ObjectKey::from("c1"),
                    &[TargetStep::elem("robots", "r1"), TargetStep::attr("trajectory")],
                )
                .unwrap();
            ensure_eq!(other, Value::str("t1"));
            Ok(())
        }
    );
}

#[test]
fn restore_is_inverse_of_update() {
    forall!(
        cases: 64,
        |rng| (
            string_of(rng, "abcdefghijklmnopqrstuvwxyz", 1..9),
            string_of(rng, "abcdefghijklmnopqrstuvwxyz", 1..9),
        ),
        |(before_tool, after_tool): &(String, String)| {
            let s = store();
            s.insert("effectors", effector("e1", before_tool)).unwrap();
            let key = ObjectKey::from("e1");
            let image = s.update("effectors", &key, effector("e1", after_tool)).unwrap();
            s.restore("effectors", &key, Some(image)).unwrap();
            let v = s.get("effectors", &key).unwrap();
            ensure_eq!(v.field("tool"), Some(&Value::str(before_tool.clone())));
            Ok(())
        }
    );
}

#[test]
fn count_referencers_matches_reality() {
    forall!(
        cases: 64,
        |rng| (rng.gen_range(1usize..6), rng.gen_range(0usize..6)),
        |&(n_robots, used)| {
            let s = store();
            s.insert("effectors", effector("e1", "t")).unwrap();
            let used = used.min(n_robots);
            let robots: Vec<Value> = (0..n_robots)
                .map(|i| {
                    let refs = if i < used {
                        set(vec![Value::reference("effectors", "e1")])
                    } else {
                        set(vec![])
                    };
                    tup(vec![
                        ("robot_id", Value::str(format!("r{i}"))),
                        ("trajectory", Value::str("t")),
                        ("effectors", refs),
                    ])
                })
                .collect();
            s.insert(
                "cells",
                tup(vec![
                    ("cell_id", Value::str("c1")),
                    ("c_objects", set(vec![])),
                    ("robots", list(robots)),
                ]),
            )
            .unwrap();
            ensure_eq!(s.count_referencers("effectors", &ObjectKey::from("e1")).unwrap(), used);
            let deletion = s.delete("effectors", &ObjectKey::from("e1"));
            if used > 0 {
                let still_referenced =
                    matches!(deletion, Err(StorageError::StillReferenced { .. }));
                ensure!(still_referenced);
            } else {
                ensure!(deletion.is_ok());
            }
            Ok(())
        }
    );
}

#[test]
fn concurrent_readers_and_writers_do_not_corrupt() {
    let s = Arc::new(store());
    for i in 0..8 {
        s.insert("effectors", effector(&format!("e{i}"), "t0")).unwrap();
    }
    let s2 = Arc::clone(&s);
    run_threads(4, Duration::from_secs(30), move |w| {
        for round in 0..50 {
            let key = ObjectKey::from(format!("e{}", (w + round) % 8));
            if w % 2 == 0 {
                let _ = s2.update(
                    "effectors",
                    &key,
                    effector(&key.to_string(), &format!("t{round}")),
                );
            } else {
                let v = s2.get("effectors", &key).unwrap();
                assert!(v.field("tool").is_some());
            }
        }
    });
    // All objects intact and typed.
    for i in 0..8 {
        let v = s.get("effectors", &ObjectKey::from(format!("e{i}"))).unwrap();
        assert_eq!(v.field("eff_id"), Some(&Value::str(format!("e{i}"))));
    }
}

#[test]
fn snapshot_consistent_under_writes() {
    let s = Arc::new(store());
    for i in 0..4 {
        s.insert("effectors", effector(&format!("e{i}"), "start")).unwrap();
    }
    let writer = {
        let s = Arc::clone(&s);
        thread::spawn(move || {
            for round in 0..100 {
                for i in 0..4 {
                    let _ = s.update(
                        "effectors",
                        &ObjectKey::from(format!("e{i}")),
                        effector(&format!("e{i}"), &format!("r{round}")),
                    );
                }
            }
        })
    };
    for _ in 0..50 {
        let snap = s.snapshot("effectors").unwrap();
        assert_eq!(snap.objects().len(), 4);
    }
    writer.join().unwrap();
}

/// The `snapshot_is_deep` isolation guarantee as a property: a snapshot
/// handle taken at any point materializes the same objects every time, no
/// matter how many concurrent writers commit after it.
#[test]
fn snapshot_handle_is_stable_under_concurrent_writers() {
    let s = Arc::new(store());
    for i in 0..4 {
        s.insert("effectors", effector(&format!("e{i}"), "start")).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for i in 0..4 {
                    let _ = s.update(
                        "effectors",
                        &ObjectKey::from(format!("e{i}")),
                        effector(&format!("e{i}"), &format!("r{round}")),
                    );
                }
                round += 1;
            }
        })
    };
    for _ in 0..25 {
        let snap = s.snapshot("effectors").unwrap();
        let first = snap.objects();
        assert_eq!(first.len(), 4);
        // Re-materializing the same handle later gives the same bytes,
        // regardless of the writer's progress in between.
        for _ in 0..5 {
            assert_eq!(snap.objects(), first);
            assert_eq!(snap.keys().len(), 4);
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
    // GC with no active snapshots collapses the chains back to one entry
    // per object without disturbing the live state.
    s.prune_versions(s.clock().stable());
    assert_eq!(s.version_entries("effectors").unwrap(), 4);
    for i in 0..4 {
        assert!(s.get("effectors", &ObjectKey::from(format!("e{i}"))).is_ok());
    }
}

/// A schema whose references sit in a *set* of tuples, one list deeper:
/// `stations(station_id, bays: S<T(bay_id, tools: L<ref<effectors>>,
/// notes: S<str>)>, labels: L<str>)`.
fn stations_store() -> Store {
    let schema = DatabaseBuilder::new("db2")
        .segment("seg1")
        .segment("seg2")
        .relation(
            RelationBuilder::new("stations", "seg1")
                .attr("station_id", str_())
                .attr(
                    "bays",
                    set_(tuple(vec![
                        attr("bay_id", str_()),
                        attr("tools", list_(ref_("effectors"))),
                        attr("notes", set_(str_())),
                    ])),
                )
                .attr("labels", list_(str_()))
                .finish(),
        )
        .relation(
            RelationBuilder::new("effectors", "seg2")
                .attr("eff_id", str_())
                .attr("tool", str_())
                .finish(),
        )
        .finish()
        .unwrap();
    let s = Store::new(Arc::new(Catalog::new(schema).unwrap()));
    for e in ["e1", "e2", "e3"] {
        s.insert("effectors", effector(e, "t")).unwrap();
    }
    for (id, bays) in [("s1", 3), ("s2", 0), ("s3", 2)] {
        let bays = (0..bays)
            .map(|b| {
                let tools = (0..b).map(|t| Value::reference("effectors", format!("e{}", t + 1)));
                tup(vec![
                    ("bay_id", Value::str(format!("b{b}"))),
                    ("tools", list(tools.collect())),
                    ("notes", set(vec![Value::str("n1"), Value::str("n2")])),
                ])
            })
            .collect();
        s.insert(
            "stations",
            tup(vec![
                ("station_id", Value::str(id)),
                ("bays", set(bays)),
                ("labels", list(vec![Value::str("l1")])),
            ]),
        )
        .unwrap();
    }
    s
}

/// The Fig. 1 database: two cells whose robots share effectors, one
/// without robots.
fn cells_store() -> Store {
    let s = store();
    for e in ["e1", "e2", "e3"] {
        s.insert("effectors", effector(e, "t")).unwrap();
    }
    let robot = |id: &str, effs: &[&str]| {
        tup(vec![
            ("robot_id", Value::str(id)),
            ("trajectory", Value::str("t")),
            ("effectors", set(effs.iter().map(|e| Value::reference("effectors", *e)).collect())),
        ])
    };
    let cells = [
        ("c1", vec![robot("r1", &["e1", "e2"]), robot("r2", &["e2", "e3"])]),
        ("c2", vec![robot("r1", &[]), robot("r2", &["e3"])]),
        ("c3", vec![]),
    ];
    for (id, robots) in cells {
        let mut c = cell(id, 3, &[]);
        *c.field_mut("robots").unwrap() = list(robots);
        s.insert("cells", c).unwrap();
    }
    s
}

/// A random target of `relation`: the relation, an object (present or
/// not), or a path below one that steps into attributes — also through a
/// set or list, which names no value — and into elements by a key the
/// data holds or one it does not.
fn random_target(rng: &mut Rng, store: &Store, relation: &str) -> InstanceTarget {
    if rng.gen_range(0..8) == 0 {
        return InstanceTarget::relation(relation);
    }
    let keys = store.keys(relation).unwrap();
    let key = match rng.choose(&keys) {
        Some(k) if rng.gen_range(0..8) != 0 => k.clone(),
        _ => ObjectKey::from("absent"),
    };
    let schema = store.catalog().schema().relation(relation).unwrap();
    let object = store.get(relation, &key).ok();
    let mut target = InstanceTarget::object(relation, key);
    let mut fields: &[Attribute] = schema.fields();
    let mut value = object.as_ref();
    while !fields.is_empty() && rng.gen_range(0..4) != 0 {
        let a = rng.choose(fields).unwrap();
        let field = value.and_then(|v| v.field(&a.name));
        let ty = match a.ty.keyed_element() {
            Some(elem) if rng.gen_bool(0.6) => {
                let present = field.and_then(Value::elements).unwrap_or_default();
                let element = rng.choose(present).filter(|_| rng.gen_range(0..6) != 0);
                let key = element.and_then(|e| e.element_key(elem));
                let key = key.unwrap_or(ObjectKey::from("absent"));
                target = target.elem(&a.name, key);
                value = element;
                elem
            }
            _ => {
                target = target.attr(&a.name);
                value = field;
                &a.ty
            }
        };
        fields = match ty {
            AttrType::Set(e) | AttrType::List(e) => e.fields(),
            other => other.fields(),
        }
        .unwrap_or_default();
    }
    target
}

/// What `refs_under` returns without the schema prune: the stored
/// instance at the target, walked.
fn walked_refs(store: &Store, target: &InstanceTarget) -> Vec<ObjectRef> {
    let collect = |v: &Value| {
        let mut refs = Vec::new();
        v.collect_refs(&mut refs);
        refs.into_iter().cloned().collect::<Vec<_>>()
    };
    let schema = store.catalog().schema().relation(&target.relation).unwrap();
    match &target.object {
        None => store
            .keys(&target.relation)
            .unwrap()
            .iter()
            .flat_map(|k| store.with_object(&target.relation, k, collect).unwrap())
            .collect(),
        Some(k) => store
            .with_object(&target.relation, k, |obj| {
                navigate(schema, obj, &target.steps).map(collect).unwrap_or_default()
            })
            .unwrap_or_default(),
    }
}

/// A target of the database at index `db` of the property's stores.
#[derive(Debug, Clone)]
struct PruneCase {
    db: usize,
    target: InstanceTarget,
}
colock_testkit::no_shrink!(PruneCase);

/// §4.4.2's downward propagation skips a target whose schema type holds no
/// reference; on every target it must still find exactly the references
/// the stored instance holds there.
#[test]
fn pruned_refs_under_equals_the_walked_instance() {
    let stores = [
        (cells_store(), ["cells", "effectors"]),
        (stations_store(), ["stations", "effectors"]),
    ];
    forall!(
        cases: 512,
        |rng| {
            let db = rng.gen_range(0..stores.len());
            let (store, relations) = &stores[db];
            let relation = *rng.choose(relations).unwrap();
            PruneCase { db, target: random_target(rng, store, relation) }
        },
        |PruneCase { db, target }: &PruneCase| {
            let store = &stores[*db].0;
            let walked = walked_refs(store, target);
            ensure_eq!(store.refs_under(target), walked, "{target}");
            if target.object.is_none() {
                ensure_eq!(store.refs_in_relation(&target.relation), walked);
            }
            Ok(())
        }
    );
}

/// A reference two containers down, in a list inside a *set of tuples*, is
/// found from every target above it; the reference-free parts beside it are
/// pruned to nothing.
#[test]
fn refs_nested_in_a_set_of_tuples_are_found() {
    let s = stations_store();
    let keys = |t: InstanceTarget| -> Vec<String> {
        s.refs_under(&t).iter().map(|r| r.key.to_string()).collect()
    };
    let s1 = InstanceTarget::object("stations", "s1");
    assert_eq!(keys(s1.clone()), ["e1", "e1", "e2"]);
    assert_eq!(keys(s1.clone().attr("bays")), ["e1", "e1", "e2"]);
    assert_eq!(keys(s1.clone().elem("bays", "b2")), ["e1", "e2"]);
    assert_eq!(keys(s1.clone().elem("bays", "b2").attr("tools")), ["e1", "e2"]);
    assert_eq!(keys(InstanceTarget::relation("stations")).len(), 4);
    assert!(keys(s1.clone().elem("bays", "b2").attr("notes")).is_empty());
    assert!(keys(s1.attr("labels")).is_empty());
    assert!(keys(InstanceTarget::relation("effectors")).is_empty());
}
