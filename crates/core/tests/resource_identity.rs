//! Property: a `ResourcePath` view (`parent`, `ancestors`, `object_prefix`)
//! shares its spine with the path it came from, yet is indistinguishable
//! from a path built afresh from the same steps — in equality, both hashes
//! the engine uses, ordering, and every text form, the persisted field
//! included. Replay a failure with the `COLOCK_TEST_SEED` it prints.

use colock_core::{PathStep, ResourcePath};
use colock_lockmgr::LockManager;
use colock_nf2::ObjectKey;
use colock_testkit::codec::FieldCodec;
use colock_testkit::prop::{string_of, vec_of};
use colock_testkit::{ensure, ensure_eq, forall, Rng};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Random steps of one path: a database step, then up to eight steps of
/// any kind. Names and keys come from a tiny alphabet (separators and
/// escapes included) so that distinct paths often share prefixes, and
/// string keys are often digits so `Str("42")` meets `Int(42)`.
#[derive(Debug, Clone)]
struct Steps(Vec<PathStep>);

colock_testkit::no_shrink!(Steps);

fn name(rng: &mut Rng) -> String {
    string_of(rng, "ab4/%", 0..3)
}

fn key(rng: &mut Rng) -> ObjectKey {
    if rng.gen_bool(0.5) {
        ObjectKey::Int(rng.gen_range(0i64..3))
    } else {
        ObjectKey::Str(string_of(rng, "0123", 1..2))
    }
}

fn steps(rng: &mut Rng) -> Steps {
    let mut steps = vec![PathStep::Database(name(rng))];
    steps.extend(vec_of(rng, 0..9, |rng| match rng.gen_range(0u32..6) {
        0 => PathStep::Segment(name(rng)),
        1 => PathStep::Relation(name(rng)),
        2 => PathStep::Object(key(rng)),
        3 | 4 => PathStep::Attr(name(rng)),
        _ => PathStep::Elem(key(rng)),
    }));
    Steps(steps)
}

fn default_hash(p: &ResourcePath) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

fn written_field(p: &ResourcePath) -> String {
    let mut out = String::new();
    p.write_field(&mut out);
    out
}

/// `view` and `fresh` must be one resource to every observer.
fn same_resource(
    lm: &LockManager<ResourcePath>,
    view: &ResourcePath,
    fresh: &ResourcePath,
) -> Result<(), String> {
    ensure!(view == fresh, "{view} != fresh {fresh}");
    ensure!(fresh == view, "fresh {fresh} != {view}");
    ensure_eq!(default_hash(view), default_hash(fresh));
    ensure_eq!(lm.shard_index(view), lm.shard_index(fresh));
    ensure_eq!(view.cmp(fresh), Ordering::Equal);
    ensure_eq!(view.to_string(), fresh.to_string());
    ensure_eq!(view.to_field(), fresh.to_field());
    ensure_eq!(written_field(view), written_field(fresh));
    ensure_eq!(view.len(), fresh.len());
    ensure!(view.is_prefix_of(fresh) && fresh.is_prefix_of(view));
    Ok(())
}

/// The other spelling of a key: `Int(n)` ↔ `Str("n")` (when it parses).
fn respelled(k: &ObjectKey) -> Option<ObjectKey> {
    match k {
        ObjectKey::Int(i) => Some(ObjectKey::Str(i.to_string())),
        ObjectKey::Str(s) => s.parse().ok().map(ObjectKey::Int),
    }
}

#[test]
fn views_are_indistinguishable_from_fresh_paths() {
    let lm: LockManager<ResourcePath> = LockManager::new();
    forall!(cases: 512, steps, |Steps(steps)| {
        let path = ResourcePath::from_steps(steps.clone());
        let fresh = |n: usize| ResourcePath::from_steps(steps[..n].to_vec());
        same_resource(&lm, &path, &fresh(steps.len()))?;
        same_resource(&lm, &path.clone(), &path)?;

        let ancestors = path.ancestors();
        ensure_eq!(ancestors.len(), steps.len() - 1);
        for (i, anc) in ancestors.iter().enumerate() {
            same_resource(&lm, anc, &fresh(i + 1))?;
            ensure!(anc != &path && anc.is_prefix_of(&path) && !path.is_prefix_of(anc));
            ensure_eq!(anc.cmp(&path), Ordering::Less);
        }
        match path.parent() {
            Some(parent) => same_resource(&lm, &parent, &fresh(steps.len() - 1))?,
            None => ensure_eq!(steps.len(), 1),
        }
        let object_at = steps.iter().position(|s| matches!(s, PathStep::Object(_)));
        match (path.object_prefix(), object_at) {
            (Some(prefix), Some(i)) => same_resource(&lm, &prefix, &fresh(i + 1))?,
            (None, None) => {}
            (got, want) => return Err(format!("object_prefix {got:?} vs step index {want:?}")),
        }
        Ok(())
    });
}

#[test]
fn paths_differing_in_one_step_are_distinct() {
    forall!(cases: 512, |rng| (steps(rng), steps(rng)), |(Steps(a), Steps(b))| {
        let (pa, pb) = (ResourcePath::from_steps(a.clone()), ResourcePath::from_steps(b.clone()));
        // Identity is the step sequence, whatever the spines.
        ensure_eq!(pa == pb, a == b);
        ensure_eq!(pa.cmp(&pb), a.cmp(b));
        if a == b {
            ensure_eq!(default_hash(&pa), default_hash(&pb));
        }

        // Only the last step differs: a sibling, or the same key respelled.
        let mut sibling = a.clone();
        let last = sibling.last_mut().expect("never empty");
        let changed = match last {
            PathStep::Database(s)
            | PathStep::Segment(s)
            | PathStep::Relation(s)
            | PathStep::Attr(s) => {
                s.push('x');
                true
            }
            PathStep::Object(k) | PathStep::Elem(k) => match respelled(k) {
                Some(other) => {
                    *k = other;
                    true
                }
                None => false,
            },
        };
        if changed {
            let ps = ResourcePath::from_steps(sibling);
            ensure!(pa != ps, "{pa} must differ from {ps}");
            ensure!(ps != pa, "{ps} must differ from {pa}");
            ensure!(pa.cmp(&ps) != Ordering::Equal);
            ensure!(pa.to_field() != ps.to_field());
            ensure_eq!(pa.parent(), ps.parent());
        }
        Ok(())
    });
}
