//! The catalog: schema plus statistical information.
//!
//! §4.5: "the lock granules and the corresponding lock modes are determined
//! automatically from a query and additional *structural and statistical
//! information*". The catalog is that structural + statistical information:
//! it owns the database schema and per-attribute cardinality statistics used
//! by the escalation-anticipation optimizer, and it is what the concurrency
//! control manager consults to find the immediate parents of an entry point
//! (§4.4.2.1: "all immediate parents of an entry point … can be determined
//! with help of catalog information").

use crate::error::Nf2Error;
use crate::path::{resolve_step, AttrPath};
use crate::schema::DatabaseSchema;
use crate::Result;
use std::collections::HashMap;

/// Statistics about one homogeneously structured attribute (set/list).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrStats {
    /// Average number of elements of the set/list per parent instance.
    pub avg_cardinality: f64,
}

impl Default for AttrStats {
    fn default() -> Self {
        // A deliberately neutral default; workloads override it.
        AttrStats { avg_cardinality: 10.0 }
    }
}

/// Statistics about one relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelationStats {
    /// Number of complex objects in the relation.
    pub cardinality: u64,
    /// Per-path statistics for homogeneous attributes (`robots`,
    /// `c_objects`, `robots.effectors`, …).
    pub attrs: HashMap<String, AttrStats>,
}

impl RelationStats {
    /// Statistics for a homogeneous attribute path (`robots.effectors`),
    /// with default fallback.
    pub fn attr(&self, path: &str) -> AttrStats {
        self.attrs.get(path).copied().unwrap_or_default()
    }

    /// Records statistics for an attribute path.
    pub fn set_attr(&mut self, path: &str, avg_cardinality: f64) {
        self.attrs.insert(path.to_string(), AttrStats { avg_cardinality });
    }
}

/// The catalog: validated schema plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    schema: DatabaseSchema,
    stats: HashMap<String, RelationStats>,
}

impl Catalog {
    /// Creates a catalog over a validated schema with empty statistics.
    pub fn new(schema: DatabaseSchema) -> Result<Self> {
        let schema = schema.validate()?;
        Ok(Catalog { schema, stats: HashMap::new() })
    }

    /// The schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Statistics of a relation, if any were recorded.
    pub fn relation_stats(&self, relation: &str) -> Option<&RelationStats> {
        self.stats.get(relation)
    }

    /// Mutable statistics entry for a relation.
    pub fn relation_stats_mut(&mut self, relation: &str) -> &mut RelationStats {
        self.stats.entry(relation.to_string()).or_default()
    }

    /// Estimated number of element instances reachable at `path` within one
    /// complex object of `relation` (product of set/list cardinalities of
    /// every homogeneous constructor on the way).
    pub fn estimated_instances(&self, relation: &str, path: &AttrPath) -> Result<f64> {
        let rel = self.schema.relation(relation)?;
        let stats = self.relation_stats(relation);
        let mut count = 1.0;
        // One walk: the type at each step, and the step's prefix
        // (`robots`, `robots.effectors`) as the key of its statistics.
        let mut prefix = String::new();
        let mut ty = None;
        for step in path.steps() {
            if !prefix.is_empty() {
                prefix.push('.');
            }
            prefix.push_str(step);
            let next = match ty {
                None => &rel
                    .attribute(step)
                    .ok_or_else(|| Nf2Error::UnknownAttribute {
                        relation: rel.name.clone(),
                        attribute: step.clone(),
                    })?
                    .ty,
                Some(ty) => resolve_step(ty, step)
                    .ok_or_else(|| Nf2Error::BadPath { path: prefix.clone(), step: step.clone() })?,
            };
            if next.is_homogeneous() {
                count *= stats.map_or_else(AttrStats::default, |s| s.attr(&prefix)).avg_cardinality;
            }
            ty = Some(next);
        }
        Ok(count)
    }

    /// Records per-path average cardinalities measured from actual data; used
    /// by the storage layer to keep the optimizer honest.
    pub fn record_cardinality(&mut self, relation: &str, path: &str, avg: f64) {
        self.relation_stats_mut(relation).set_attr(path, avg);
    }

    /// Whether the attribute at `path` within `relation` admits the semantic
    /// commutativity lock modes (Insert/Delete/Member): a set/list HoLU whose
    /// elements carry a derivable key. The planner consults this before
    /// emitting a semantic container mode instead of plain IX/IS.
    pub fn admits_semantic_modes(&self, relation: &str, path: &AttrPath) -> Result<bool> {
        let rel = self.schema.relation(relation)?;
        Ok(path.resolve(rel)?.admits_semantic_modes())
    }

    /// Whether `relation` holds common data (is referenced by some relation).
    pub fn is_common_data(&self, relation: &str) -> bool {
        self.schema
            .common_data_relations()
            .iter()
            .any(|r| r.name == relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DatabaseBuilder, RelationBuilder};
    use crate::types::shorthand::*;

    fn catalog() -> Catalog {
        let db = DatabaseBuilder::new("db1")
            .segment("seg1")
            .segment("seg2")
            .relation(
                RelationBuilder::new("effectors", "seg2")
                    .attr("eff_id", str_())
                    .attr("tool", str_())
                    .finish(),
            )
            .relation(
                RelationBuilder::new("cells", "seg1")
                    .attr("cell_id", str_())
                    .attr(
                        "c_objects",
                        set(tuple(vec![attr("obj_id", str_()), attr("obj_name", str_())])),
                    )
                    .attr(
                        "robots",
                        list(tuple(vec![
                            attr("robot_id", str_()),
                            attr("trajectory", str_()),
                            attr("effectors", set(ref_("effectors"))),
                        ])),
                    )
                    .finish(),
            )
            .finish()
            .unwrap();
        Catalog::new(db).unwrap()
    }

    #[test]
    fn estimated_instances_multiplies_cardinalities() {
        let mut c = catalog();
        c.record_cardinality("cells", "robots", 4.0);
        c.record_cardinality("cells", "robots.effectors", 3.0);
        // one trajectory per robot, 4 robots
        let t = c.estimated_instances("cells", &AttrPath::parse("robots.trajectory")).unwrap();
        assert_eq!(t, 4.0);
        // 4 robots × 3 effector-refs
        let e = c.estimated_instances("cells", &AttrPath::parse("robots.effectors")).unwrap();
        assert_eq!(e, 12.0);
        // a scalar at the top costs 1
        let id = c.estimated_instances("cells", &AttrPath::parse("cell_id")).unwrap();
        assert_eq!(id, 1.0);
    }

    #[test]
    fn default_stats_are_neutral() {
        let c = catalog();
        let got = c.estimated_instances("cells", &AttrPath::parse("robots")).unwrap();
        assert_eq!(got, AttrStats::default().avg_cardinality);
    }

    #[test]
    fn common_data_detection() {
        let c = catalog();
        assert!(c.is_common_data("effectors"));
        assert!(!c.is_common_data("cells"));
    }

    #[test]
    fn semantic_admission_resolves_through_the_schema() {
        let c = catalog();
        // Keyed tuple elements (obj_id, robot_id) admit semantic modes.
        assert!(c.admits_semantic_modes("cells", &AttrPath::parse("c_objects")).unwrap());
        assert!(c.admits_semantic_modes("cells", &AttrPath::parse("robots")).unwrap());
        // Ref elements have no derivable key; scalars are not containers.
        assert!(!c.admits_semantic_modes("cells", &AttrPath::parse("robots.effectors")).unwrap());
        assert!(!c.admits_semantic_modes("cells", &AttrPath::parse("cell_id")).unwrap());
        assert!(c.admits_semantic_modes("nope", &AttrPath::parse("x")).is_err());
    }

    #[test]
    fn unknown_relation_errors() {
        let c = catalog();
        assert!(c.estimated_instances("nope", &AttrPath::parse("x")).is_err());
        assert!(c.relation_stats("nope").is_none());
    }

    #[test]
    fn bad_paths_error_at_the_first_bad_step() {
        let c = catalog();
        assert!(matches!(
            c.estimated_instances("cells", &AttrPath::parse("nope.x")),
            Err(Nf2Error::UnknownAttribute { attribute, .. }) if attribute == "nope"
        ));
        assert!(matches!(
            c.estimated_instances("cells", &AttrPath::parse("robots.nope.x")),
            Err(Nf2Error::BadPath { path, step }) if path == "robots.nope" && step == "nope"
        ));
    }
}
