//! The part-library workload: *nested* common data (§2: "Common data may
//! again contain common data"). Assemblies reference parts; parts reference
//! materials — two levels of inner units, exercising transitive downward
//! propagation.

use colock_nf2::builder::{DatabaseBuilder, RelationBuilder};
use colock_nf2::types::shorthand::{self, real_, ref_, str_};
use colock_nf2::value::build::{set, tup};
use colock_nf2::{Catalog, DatabaseSchema, ObjectKey, Value};
use colock_storage::stats::catalog_with_stats;
use colock_storage::Store;
use colock_testkit::Rng;
use std::sync::Arc;

/// Parameters of the part-library database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartLibConfig {
    /// Number of assemblies.
    pub n_assemblies: usize,
    /// Parts referenced per assembly.
    pub parts_per_assembly: usize,
    /// Size of the parts library.
    pub n_parts: usize,
    /// Size of the materials library.
    pub n_materials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PartLibConfig {
    fn default() -> Self {
        PartLibConfig {
            n_assemblies: 8,
            parts_per_assembly: 5,
            n_parts: 20,
            n_materials: 4,
            seed: 7,
        }
    }
}

/// The part-library schema: `assemblies -> parts -> materials`.
pub fn partlib_schema() -> DatabaseSchema {
    DatabaseBuilder::new("plant")
        .segment("design")
        .segment("library")
        .relation(
            RelationBuilder::new("assemblies", "design")
                .attr("asm_id", str_())
                .attr("name", str_())
                .attr("parts", shorthand::set(ref_("parts")))
                .finish(),
        )
        .relation(
            RelationBuilder::new("parts", "library")
                .attr("part_id", str_())
                .attr("weight", real_())
                .attr("material", ref_("materials"))
                .finish(),
        )
        .relation(
            RelationBuilder::new("materials", "library")
                .attr("mat_id", str_())
                .attr("density", real_())
                .finish(),
        )
        .finish()
        .expect("partlib schema")
}

/// Part key by index.
pub fn part_key(i: usize) -> ObjectKey {
    ObjectKey::Str(format!("p{}", i + 1))
}

/// Assembly key by index.
pub fn assembly_key(i: usize) -> ObjectKey {
    ObjectKey::Str(format!("a{}", i + 1))
}

/// Material key by index.
pub fn material_key(i: usize) -> ObjectKey {
    ObjectKey::Str(format!("m{}", i + 1))
}

/// Builds a populated store with measured statistics.
pub fn build_partlib_store(cfg: &PartLibConfig) -> Arc<Store> {
    let base = Arc::new(Catalog::new(partlib_schema()).expect("schema"));
    let staging = Store::new(base);
    let mut rng = Rng::seed_from_u64(cfg.seed);

    for m in 0..cfg.n_materials {
        staging
            .insert(
                "materials",
                tup(vec![
                    ("mat_id", Value::str(material_key(m).to_string())),
                    ("density", Value::Real(1.0 + m as f64)),
                ]),
            )
            .expect("material");
    }
    for p in 0..cfg.n_parts {
        let m = rng.gen_range(0..cfg.n_materials);
        staging
            .insert(
                "parts",
                tup(vec![
                    ("part_id", Value::str(part_key(p).to_string())),
                    ("weight", Value::Real(0.1 * (p + 1) as f64)),
                    ("material", Value::reference("materials", material_key(m).to_string())),
                ]),
            )
            .expect("part");
    }
    for a in 0..cfg.n_assemblies {
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < cfg.parts_per_assembly.min(cfg.n_parts) {
            let p = rng.gen_range(0..cfg.n_parts);
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        staging
            .insert(
                "assemblies",
                tup(vec![
                    ("asm_id", Value::str(assembly_key(a).to_string())),
                    ("name", Value::str(format!("assembly-{a}"))),
                    (
                        "parts",
                        set(chosen
                            .into_iter()
                            .map(|p| Value::reference("parts", part_key(p).to_string()))
                            .collect()),
                    ),
                ]),
            )
            .expect("assembly");
    }

    let catalog = Arc::new(catalog_with_stats(&staging));
    let store = Arc::new(Store::new(catalog));
    for rel in ["materials", "parts", "assemblies"] {
        for (_, v) in staging.snapshot(rel).expect("snapshot").objects() {
            store.insert(rel, v).expect("reinsert");
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
    fn schema_has_two_levels_of_common_data() {
        let schema = partlib_schema();
        let common: Vec<_> = schema.common_data_relations().iter().map(|r| r.name.clone()).collect();
        assert_eq!(common, vec!["parts", "materials"]);
    }

    #[test]
    fn reading_an_assembly_locks_parts_and_materials() {
        let store = build_partlib_store(&PartLibConfig::default());
        let engine = ProtocolEngine::new(Arc::clone(store.catalog()));
        let lm = LockManager::new();
        let report = engine
            .lock(
                &LockCtx::new(&lm, TxnId(1), &*store, &Authorization::allow_all()),
                ProtocolKind::Proposed,
                &InstanceTarget::object("assemblies", assembly_key(0)),
                LockMode::S,
            )
            .unwrap();
        // 5 parts + their (≤5 distinct) materials, all S-locked.
        assert!(report.entry_points_locked >= 6, "{}", report.entry_points_locked);
        let any_material = report
            .acquired
            .iter()
            .any(|(r, m)| r.relation_name() == Some("materials") && *m == LockMode::S && r.object_key().is_some());
        assert!(any_material, "materials entry points locked:\n{}", report.render());
    }

    #[test]
    fn build_deterministic() {
        let a = build_partlib_store(&PartLibConfig::default());
        let b = build_partlib_store(&PartLibConfig::default());
        assert_eq!(
            a.snapshot("assemblies").unwrap().objects(),
            b.snapshot("assemblies").unwrap().objects()
        );
    }
}
