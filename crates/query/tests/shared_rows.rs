//! A SELECT's [`Rows`] share the stored containers their element rows
//! were read from: a kept result must stay the version its statement read,
//! and read like the `Vec<Value>` it stands for.

mod common;

use colock_core::optimizer::Optimizer;
use colock_core::InstanceTarget;
use colock_nf2::value::build::tup;
use colock_nf2::{ObjectKey, Value};
use colock_query::exec::run;
use colock_query::Rows;
use colock_txn::{TransactionManager, TxnKind};

const Q1: &str = "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ";

fn manager() -> TransactionManager {
    common::manager(common::populated(), common::engineer_authz())
}

fn select(mgr: &TransactionManager, q: &str) -> Rows {
    let t = mgr.begin(TxnKind::Short);
    let rows = run(&t, q, &Optimizer::default()).unwrap().rows;
    t.commit().unwrap();
    rows
}

fn names(rows: &Rows) -> Vec<&str> {
    rows.iter()
        .map(|r| match r.field("obj_name") {
            Some(Value::Str(name)) => name.as_str(),
            other => panic!("obj_name {other:?}"),
        })
        .collect()
}

/// Fig. 7's Q1 keeps its rows; another transaction then commits an update
/// of one of those c_objects and an insert into the same set. Copy-on-write
/// copies the shared container for the writer, so the kept rows read what
/// they read.
#[test]
fn kept_rows_stay_the_version_they_read() {
    let mgr = manager();
    let kept = select(&mgr, Q1);
    let read = ["part1", "part2", "part3", "part4", "part5"];
    assert_eq!(names(&kept), read);

    let c1 = InstanceTarget::object("cells", "c1");
    let t = mgr.begin(TxnKind::Short);
    t.update(&c1.clone().elem("c_objects", "c1o2").attr("obj_name"), Value::str("renamed"))
        .unwrap();
    let new = tup(vec![("obj_id", Value::str("c1o6")), ("obj_name", Value::str("part6"))]);
    assert_eq!(t.insert_element(&c1.attr("c_objects"), new).unwrap(), ObjectKey::from("c1o6"));
    t.commit().unwrap();

    assert_eq!(kept.len(), 5);
    assert_eq!(names(&kept), read);
    assert_eq!(kept[1].field("obj_id"), Some(&Value::str("c1o2")));
    let now = select(&mgr, Q1);
    assert_eq!(names(&now), ["part1", "renamed", "part3", "part4", "part5", "part6"]);
}

/// `Rows` compare, index and iterate like the materialised `Vec<Value>`:
/// one shared run (Q1), runs broken by a filter, rows of two containers,
/// and computed rows.
#[test]
fn rows_read_like_the_materialised_vec() {
    let mgr = manager();
    let cells = |c: &str| {
        let cell = mgr.store().get("cells", &ObjectKey::from(c)).unwrap();
        cell.field("c_objects").unwrap().elements().unwrap().to_vec()
    };
    let (c1, c2) = (cells("c1"), cells("c2"));
    let odd = |c: &[Value]| c.iter().step_by(2).cloned().collect::<Vec<_>>();
    let cases: [(&str, Vec<Value>); 4] = [
        (Q1, c1.clone()),
        (
            "SELECT o FROM c IN cells, o IN c.c_objects WHERE o.obj_name = 'part1' OR o.obj_name = 'part3' OR o.obj_name = 'part5' FOR READ",
            [odd(&c1), odd(&c2)].concat(),
        ),
        ("SELECT o FROM c IN cells, o IN c.c_objects FOR READ", [c1.clone(), c2].concat()),
        (
            "SELECT o.obj_name FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ",
            c1.iter().map(|o| o.field("obj_name").unwrap().clone()).collect(),
        ),
    ];
    for (q, want) in cases {
        let rows = select(&mgr, q);
        assert_eq!(rows, want, "{q}");
        assert_eq!(rows, want[..], "{q}");
        assert_eq!(rows.to_vec(), want, "{q}");
        assert_eq!(rows.len(), want.len(), "{q}");
        assert_eq!(rows.iter().len(), want.len(), "{q}");
        assert!((0..want.len()).all(|i| rows[i] == want[i]), "{q}");
        assert!((&rows).into_iter().eq(&want), "{q}");
        assert_eq!(format!("{rows:?}"), format!("{want:?}"), "{q}");
        assert_eq!(rows.clone(), rows, "{q}");
    }
}
