//! Reference-chain workload: common data nested to configurable depth.
//!
//! `top → lib1 → lib2 → … → libD`: each relation's objects reference one
//! object of the next level. §5's closing claim — "the deeper complex
//! objects are structured and/or the more abundant common data exist …
//! the higher the benefit of the proposed technique promises to be" — is
//! measured over this workload (experiment E9).

use colock_nf2::builder::{DatabaseBuilder, RelationBuilder};
use colock_nf2::types::shorthand::{ref_, str_};
use colock_nf2::value::build::tup;
use colock_nf2::{Catalog, DatabaseSchema, ObjectKey, Value};
use colock_storage::Store;
use std::sync::Arc;

/// Parameters of the chain database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Number of library levels below `top` (depth 0 = disjoint objects).
    pub depth: usize,
    /// Objects per relation.
    pub objects_per_level: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig { depth: 3, objects_per_level: 4 }
    }
}

/// Relation name of level `i` (level 0 is `top`).
pub fn level_relation(i: usize) -> String {
    if i == 0 {
        "top".to_string()
    } else {
        format!("lib{i}")
    }
}

/// Object key `j` of any level.
pub fn level_key(level: usize, j: usize) -> ObjectKey {
    ObjectKey::Str(format!("L{level}o{j}"))
}

/// The chain schema for a given depth.
pub fn chain_schema(cfg: &ChainConfig) -> DatabaseSchema {
    let mut db = DatabaseBuilder::new("chaindb").segment("s");
    for level in (0..=cfg.depth).rev() {
        let name = level_relation(level);
        let mut rel = RelationBuilder::new(&name, "s").attr(format!("{name}_id"), str_());
        rel = rel.attr("payload", str_());
        if level < cfg.depth {
            rel = rel.attr("next", ref_(level_relation(level + 1)));
        }
        db = db.relation(rel.finish());
    }
    db.finish().expect("chain schema valid")
}

/// Builds the populated chain store: object `j` of level `i` references
/// object `j` of level `i+1` (so every chain is `depth` long).
pub fn build_chain_store(cfg: &ChainConfig) -> Arc<Store> {
    let catalog = Arc::new(Catalog::new(chain_schema(cfg)).expect("catalog"));
    let store = Arc::new(Store::new(catalog));
    for level in (0..=cfg.depth).rev() {
        let name = level_relation(level);
        for j in 0..cfg.objects_per_level {
            let mut fields = vec![
                (format!("{name}_id"), Value::str(level_key(level, j).to_string())),
                ("payload".to_string(), Value::str(format!("data-{level}-{j}"))),
            ];
            if level < cfg.depth {
                fields.push((
                    "next".to_string(),
                    Value::reference(level_relation(level + 1), level_key(level + 1, j).to_string()),
                ));
            }
            store
                .insert(&name, tup(fields.iter().map(|(n, v)| (n.as_str(), v.clone())).collect()))
                .expect("insert chain object");
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use colock_core::authorization::Authorization;
    use colock_core::{InstanceTarget, LockCtx, ProtocolEngine, ProtocolKind};
    use colock_lockmgr::{LockManager, LockMode, TxnId};

    #[test]
    fn schema_depth_matches_config() {
        let cfg = ChainConfig { depth: 4, objects_per_level: 2 };
        let schema = chain_schema(&cfg);
        assert_eq!(schema.relations.len(), 5);
        let common: Vec<String> =
            schema.common_data_relations().iter().map(|r| r.name.clone()).collect();
        assert_eq!(common.len(), 4, "{common:?}");
    }

    #[test]
    fn reading_top_locks_the_whole_chain() {
        let cfg = ChainConfig { depth: 3, objects_per_level: 2 };
        let store = build_chain_store(&cfg);
        let engine = ProtocolEngine::new(Arc::clone(store.catalog()));
        let lm = LockManager::new();
        let report = engine
            .lock(
                &LockCtx::new(&lm, TxnId(1), &*store, &Authorization::allow_all()),
                ProtocolKind::Proposed,
                &InstanceTarget::object("top", level_key(0, 0)),
                LockMode::S,
            )
            .unwrap();
        // One entry point per level below top.
        assert_eq!(report.entry_points_locked, 3);
    }

    #[test]
    fn depth_zero_is_fully_disjoint() {
        let cfg = ChainConfig { depth: 0, objects_per_level: 3 };
        let store = build_chain_store(&cfg);
        assert!(store.catalog().schema().common_data_relations().is_empty());
    }
}
