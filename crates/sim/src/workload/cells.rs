//! The manufacturing-cells workload (Fig. 1): cells with c_objects and
//! robots; robots share effectors from a library ("one effector may be used
//! (shared) by different robots", §2).

use colock_core::fixtures::fig1_schema;
use colock_nf2::value::build::{list, set, tup};
use colock_nf2::{Catalog, ObjectKey, Value};
use colock_storage::stats::catalog_with_object_stats;
use colock_storage::Store;
use colock_testkit::Rng;
use std::sync::Arc;

/// Parameters of the cells/effectors database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellsConfig {
    /// Number of cells.
    pub n_cells: usize,
    /// c_objects per cell (the paper: "one cell may contain hundreds").
    pub c_objects_per_cell: usize,
    /// Robots per cell.
    pub robots_per_cell: usize,
    /// Size of the effectors library.
    pub n_effectors: usize,
    /// Effector references per robot (sharing degree rises as
    /// `n_cells * robots_per_cell * effectors_per_robot / n_effectors`).
    pub effectors_per_robot: usize,
    /// RNG seed for reference assignment.
    pub seed: u64,
}

impl Default for CellsConfig {
    fn default() -> Self {
        CellsConfig {
            n_cells: 4,
            c_objects_per_cell: 50,
            robots_per_cell: 4,
            n_effectors: 8,
            effectors_per_robot: 2,
            seed: 42,
        }
    }
}

impl CellsConfig {
    /// Average number of robots sharing one effector.
    pub fn sharing_degree(&self) -> f64 {
        (self.n_cells * self.robots_per_cell * self.effectors_per_robot) as f64
            / self.n_effectors.max(1) as f64
    }

    /// Cell key by index.
    pub fn cell_key(i: usize) -> ObjectKey {
        ObjectKey::Str(format!("c{}", i + 1))
    }

    /// Robot key by index (robot ids are per-cell: `r1`, `r2`, …).
    pub fn robot_key(i: usize) -> ObjectKey {
        ObjectKey::Str(format!("r{}", i + 1))
    }

    /// Effector key by index.
    pub fn effector_key(i: usize) -> ObjectKey {
        ObjectKey::Str(format!("e{}", i + 1))
    }
}

/// Builds a populated store (with measured catalog statistics) for the
/// configuration. Deterministic for a given seed.
pub fn build_cells_store(cfg: &CellsConfig) -> Arc<Store> {
    let base = Catalog::new(fig1_schema()).expect("fig1 schema");
    let mut rng = Rng::seed_from_u64(cfg.seed);

    let mut effectors = Vec::with_capacity(cfg.n_effectors);
    for e in 0..cfg.n_effectors {
        let key = CellsConfig::effector_key(e);
        let effector = tup(vec![
            ("eff_id", Value::str(key.to_string())),
            ("tool", Value::str(format!("tool-{e}"))),
        ]);
        effectors.push((key, effector));
    }
    let mut cells = Vec::with_capacity(cfg.n_cells);
    for c in 0..cfg.n_cells {
        let key = CellsConfig::cell_key(c);
        let cell_id = key.to_string();
        let c_objects: Vec<Value> = (0..cfg.c_objects_per_cell)
            .map(|o| {
                tup(vec![
                    ("obj_id", Value::str(format!("{cell_id}-o{o}"))),
                    ("obj_name", Value::str(format!("part-{o}"))),
                ])
            })
            .collect();
        let robots: Vec<Value> = (0..cfg.robots_per_cell)
            .map(|r| {
                let mut chosen: Vec<usize> = Vec::new();
                while chosen.len() < cfg.effectors_per_robot.min(cfg.n_effectors) {
                    let e = rng.gen_range(0..cfg.n_effectors);
                    if !chosen.contains(&e) {
                        chosen.push(e);
                    }
                }
                tup(vec![
                    ("robot_id", Value::str(CellsConfig::robot_key(r).to_string())),
                    ("trajectory", Value::str(format!("traj-{cell_id}-r{r}"))),
                    (
                        "effectors",
                        set(chosen
                            .into_iter()
                            .map(|e| {
                                Value::reference(
                                    "effectors",
                                    CellsConfig::effector_key(e).to_string(),
                                )
                            })
                            .collect()),
                    ),
                ])
            })
            .collect();
        let cell = tup(vec![
            ("cell_id", Value::str(cell_id)),
            ("c_objects", set(c_objects)),
            ("robots", list(robots)),
        ]);
        cells.push((key, cell));
    }

    // A stats-bearing catalog, so the §4.5 optimizer sees real
    // cardinalities, measured on the values before the one store is built.
    let (effectors, cells) = (in_key_order(effectors), in_key_order(cells));
    let catalog =
        catalog_with_object_stats(&base, &[("effectors", &effectors), ("cells", &cells)]);
    let store = Arc::new(Store::new(Arc::new(catalog)));
    for (rel, objects) in [("effectors", effectors), ("cells", cells)] {
        for v in objects {
            store.insert(rel, v).expect("insert");
        }
    }
    store
}

/// The values of `objects` sorted by key: the order a load from a
/// key-ordered scan inserts them in, so each object commits at the same
/// timestamp whatever order they were generated in.
fn in_key_order(mut objects: Vec<(ObjectKey, Value)>) -> Vec<Value> {
    objects.sort_by(|a, b| a.0.cmp(&b.0));
    objects.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let cfg = CellsConfig::default();
        let a = build_cells_store(&cfg);
        let b = build_cells_store(&cfg);
        assert_eq!(
            a.snapshot("cells").unwrap().objects(),
            b.snapshot("cells").unwrap().objects()
        );
    }

    #[test]
    fn cardinalities_match_config() {
        let cfg = CellsConfig { n_cells: 3, c_objects_per_cell: 7, ..Default::default() };
        let s = build_cells_store(&cfg);
        assert_eq!(s.len("cells").unwrap(), 3);
        assert_eq!(s.len("effectors").unwrap(), cfg.n_effectors);
        let cat = s.catalog();
        assert_eq!(cat.relation_stats("cells").unwrap().cardinality, 3);
        let c_objects = cat
            .estimated_instances("cells", &colock_nf2::AttrPath::parse("c_objects"))
            .unwrap();
        assert_eq!(c_objects, 7.0);
    }

    #[test]
    fn sharing_degree_formula() {
        let cfg = CellsConfig {
            n_cells: 4,
            robots_per_cell: 4,
            effectors_per_robot: 2,
            n_effectors: 8,
            ..Default::default()
        };
        assert_eq!(cfg.sharing_degree(), 4.0);
    }

    #[test]
    fn every_robot_has_distinct_effectors() {
        let cfg = CellsConfig::default();
        let s = build_cells_store(&cfg);
        for (_, cell) in s.snapshot("cells").unwrap().objects() {
            for robot in cell.field("robots").unwrap().elements().unwrap() {
                let effs = robot.field("effectors").unwrap().elements().unwrap();
                let mut keys: Vec<String> = effs.iter().map(|e| e.to_string()).collect();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(keys.len(), cfg.effectors_per_robot);
            }
        }
    }
}
