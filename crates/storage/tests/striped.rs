//! Property: the latch-striped store answers every whole-relation read
//! exactly as one ordered map per relation would — same keys, same values,
//! same key order — through inserts, pending inserts, deletes, updates,
//! pending updates, version installs, rollbacks and pruning, for string
//! and integer keys alike. The model is a `BTreeMap` of live values plus a
//! `BTreeMap` of version chains. Replay a failure with the
//! `COLOCK_TEST_SEED` it prints.

use colock_core::TargetStep;
use colock_nf2::builder::{DatabaseBuilder, RelationBuilder};
use colock_nf2::types::shorthand::*;
use colock_nf2::value::build::tup;
use colock_nf2::{Catalog, ObjectKey, Value};
use colock_storage::{Store, VersionPatch};
use colock_testkit::prop::{string_of, vec_of};
use colock_testkit::{ensure, ensure_eq, forall, Rng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `named` is keyed by strings, `numbered` by integers.
const RELATIONS: [&str; 2] = ["named", "numbered"];

fn catalog() -> Catalog {
    let schema = DatabaseBuilder::new("db")
        .segment("s")
        .relation(
            RelationBuilder::new("named", "s").key_attr("name", str_()).attr("v", int_()).finish(),
        )
        .relation(
            RelationBuilder::new("numbered", "s").key_attr("num", int_()).attr("v", int_()).finish(),
        )
        .finish()
        .expect("valid schema");
    Catalog::new(schema).expect("valid catalog")
}

fn object(rel: usize, key: &ObjectKey, v: i64) -> Value {
    let key_value = match key {
        ObjectKey::Str(s) => Value::str(s.clone()),
        ObjectKey::Int(i) => Value::Int(*i),
    };
    tup(vec![(if rel == 0 { "name" } else { "num" }, key_value), ("v", Value::Int(v))])
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, ObjectKey, i64),
    InsertPending(usize, ObjectKey, i64),
    Delete(usize, ObjectKey),
    Update(usize, ObjectKey, i64),
    UpdatePending(usize, ObjectKey, i64),
    Install(usize, ObjectKey),
    RollBackInsert(usize, ObjectKey),
    /// Prune at the stable timestamp minus this many commits.
    Prune(u64),
}

#[derive(Debug, Clone)]
struct Ops(Vec<Op>);

colock_testkit::no_shrink!(Ops);

fn key(rng: &mut Rng, rel: usize) -> ObjectKey {
    if rel == 0 {
        ObjectKey::Str(string_of(rng, "abc12", 1..4))
    } else {
        ObjectKey::Int(rng.gen_range(-20i64..20))
    }
}

fn ops(rng: &mut Rng) -> Ops {
    Ops(vec_of(rng, 1..80, |rng| {
        let rel = rng.gen_range(0usize..2);
        let k = key(rng, rel);
        let v = rng.gen_range(0i64..1000);
        match rng.gen_range(0u32..10) {
            0..=2 => Op::Insert(rel, k, v),
            3 => Op::InsertPending(rel, k, v),
            4 => Op::Delete(rel, k),
            5 => Op::Update(rel, k, v),
            6 => Op::UpdatePending(rel, k, v),
            7 => Op::Install(rel, k),
            8 => Op::RollBackInsert(rel, k),
            _ => Op::Prune(rng.gen_range(0u64..6)),
        }
    }))
}

/// One relation of the model.
#[derive(Default)]
struct Model {
    live: BTreeMap<ObjectKey, Value>,
    chains: BTreeMap<ObjectKey, Vec<(u64, Option<Value>)>>,
}

impl Model {
    fn commit(&mut self, key: &ObjectKey, ts: u64, image: Option<Value>) {
        self.chains.entry(key.clone()).or_default().push((ts, image));
    }

    fn visible(&self, ts: u64) -> Vec<(ObjectKey, Value)> {
        self.chains
            .iter()
            .filter_map(|(k, chain)| {
                let (_, image) = chain.iter().rev().find(|(t, _)| *t <= ts)?;
                Some((k.clone(), image.clone()?))
            })
            .collect()
    }

    fn prune(&mut self, watermark: u64) {
        self.chains.retain(|_, chain| {
            let keep_from = chain.iter().rposition(|(t, _)| *t <= watermark).unwrap_or(0);
            chain.drain(..keep_from);
            !(chain.len() == 1 && chain[0].0 <= watermark && chain[0].1.is_none())
        });
    }
}

/// Applies `op` to store and model; the store must succeed exactly when the
/// model says the operation is valid.
fn apply(store: &Store, models: &mut [Model; 2], op: &Op) -> Result<(), String> {
    let v_step = [TargetStep::attr("v")];
    let ts = store.clock().stable() + 1;
    match op {
        Op::Insert(rel, k, v) | Op::InsertPending(rel, k, v) => {
            let model = &mut models[*rel];
            let value = object(*rel, k, *v);
            let ok = if matches!(op, Op::Insert(..)) {
                store.insert(RELATIONS[*rel], value.clone()).is_ok()
            } else {
                store.insert_pending(RELATIONS[*rel], k.clone(), value.clone()).is_ok()
            };
            ensure_eq!(ok, !model.live.contains_key(k), "{op:?}");
            if ok {
                if matches!(op, Op::Insert(..)) {
                    model.commit(k, ts, Some(value.clone()));
                }
                model.live.insert(k.clone(), value);
            }
        }
        Op::Delete(rel, k) => {
            let model = &mut models[*rel];
            let ok = store.delete(RELATIONS[*rel], k).is_ok();
            ensure_eq!(ok, model.live.contains_key(k), "{op:?}");
            if ok {
                model.live.remove(k);
                model.commit(k, ts, None);
            }
        }
        Op::Update(rel, k, v) | Op::UpdatePending(rel, k, v) => {
            let model = &mut models[*rel];
            let (rel_name, new) = (RELATIONS[*rel], Value::Int(*v));
            let ok = if matches!(op, Op::Update(..)) {
                store.update_at(rel_name, k, &v_step, new).is_ok()
            } else {
                store.update_at_pending(rel_name, k, &v_step, new).is_ok()
            };
            ensure_eq!(ok, model.live.contains_key(k), "{op:?}");
            if ok {
                let value = object(*rel, k, *v);
                if matches!(op, Op::Update(..)) {
                    model.commit(k, ts, Some(value.clone()));
                }
                model.live.insert(k.clone(), value);
            }
        }
        Op::Install(rel, k) => {
            let model = &mut models[*rel];
            let ok = store
                .clock()
                .commit(|ts| store.install_version(RELATIONS[*rel], k, ts, &VersionPatch::Full))
                .is_ok();
            ensure_eq!(ok, model.live.contains_key(k), "{op:?}");
            // The clock ticks whether or not the install found the object.
            if let (true, Some(value)) = (ok, model.live.get(k).cloned()) {
                model.commit(k, ts, Some(value));
            }
        }
        Op::RollBackInsert(rel, k) => {
            store.restore(RELATIONS[*rel], k, None).map_err(|e| e.to_string())?;
            models[*rel].live.remove(k);
        }
        Op::Prune(back) => {
            let watermark = store.clock().stable().saturating_sub(*back);
            store.prune_versions(watermark);
            for model in models.iter_mut() {
                model.prune(watermark);
            }
        }
    }
    Ok(())
}

/// Every whole-relation read (and the per-key reads) against the model.
fn compare(store: &Store, models: &[Model; 2]) -> Result<(), String> {
    let stable = store.clock().stable();
    for (rel, model) in models.iter().enumerate() {
        let name = RELATIONS[rel];
        let live_keys: Vec<ObjectKey> = model.live.keys().cloned().collect();
        ensure_eq!(store.keys(name).unwrap(), live_keys, "keys of {name}");
        ensure_eq!(store.len(name).unwrap(), model.live.len(), "len of {name}");
        for (k, v) in &model.live {
            ensure_eq!(&store.get(name, k).unwrap(), v, "live {name}[{k}]");
            ensure!(store.contains(name, k), "contains {name}[{k}]");
        }
        let entries: usize = model.chains.values().map(Vec::len).sum();
        ensure_eq!(store.version_entries(name).unwrap(), entries, "version entries of {name}");
        for ts in 0..=stable {
            let visible = model.visible(ts);
            let keys: Vec<ObjectKey> = visible.iter().map(|(k, _)| k.clone()).collect();
            ensure_eq!(store.keys_at(name, ts).unwrap(), keys, "keys_at({ts}) of {name}");
            for (k, _) in &visible {
                ensure!(store.contains_at(name, k, ts), "contains_at({ts}) {name}[{k}]");
            }
        }
        let snap = store.snapshot(name).unwrap();
        let visible = model.visible(stable);
        ensure_eq!(snap.objects(), visible, "snapshot objects of {name}");
        ensure_eq!(snap.len(), visible.len(), "snapshot len of {name}");
        let keys: Vec<ObjectKey> = visible.iter().map(|(k, _)| k.clone()).collect();
        ensure_eq!(snap.keys(), keys, "snapshot keys of {name}");
        for (k, v) in &visible {
            ensure_eq!(snap.get(k), Some(v.clone()), "snapshot get {name}[{k}]");
        }
        ensure_eq!(store.count_referencers(name, &ObjectKey::Int(0)).unwrap(), 0);
    }
    Ok(())
}

#[test]
fn striped_relations_read_like_one_ordered_map() {
    forall!(cases: 128, ops, |Ops(ops): &Ops| {
        let store = Store::new(Arc::new(catalog()));
        let mut models = [Model::default(), Model::default()];
        for op in ops {
            apply(&store, &mut models, op)?;
            compare(&store, &models)?;
        }
        Ok(())
    });
}
