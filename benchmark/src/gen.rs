//! Seeded transaction streams, generated before the clock starts.
//!
//! Nothing here runs inside a timed region: the drivers index into the
//! pre-built targets and statement strings. The same `(seed, client)` always
//! yields the same stream.

use colock_core::InstanceTarget;
use colock_sim::CellsConfig;
use colock_testkit::Rng;
use std::sync::Arc;

/// Latency class of a transaction (the `read_*` / `write_*` / `long_*`
/// metric families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Read-only snapshot transaction, Q1, effector read.
    Read = 0,
    /// Short read-modify-write, Q2, Q3, effector update.
    Write = 1,
    /// Check-out → check-in → commit (think time included).
    Long = 2,
}

impl Class {
    /// All classes, indexable by `class as usize`.
    pub const ALL: [Class; 3] = [Class::Read, Class::Write, Class::Long];
}

/// Per-client seed: the workload seed mixed with the client index the way
/// `loadgen` does.
fn client_seed(seed: u64, client: usize) -> u64 {
    seed ^ (client as u64).wrapping_mul(0x9E37_79B9)
}

/// The pre-built lock targets of a cells database, indexed `cell * robots +
/// robot` (both 0-based) and by effector index.
pub struct Targets {
    robots_per_cell: usize,
    /// `cells[c].robots[r].trajectory`
    pub trajectory: Vec<InstanceTarget>,
    /// `cells[c].robots[r]`
    pub robot: Vec<InstanceTarget>,
    /// `effectors[e].tool`
    pub tool: Vec<InstanceTarget>,
}

impl Targets {
    /// Builds every target of the database `cfg` describes.
    pub fn new(cfg: &CellsConfig) -> Targets {
        let mut trajectory = Vec::new();
        let mut robot = Vec::new();
        for c in 0..cfg.n_cells {
            for r in 0..cfg.robots_per_cell {
                let t = InstanceTarget::object("cells", CellsConfig::cell_key(c))
                    .elem("robots", CellsConfig::robot_key(r));
                trajectory.push(t.clone().attr("trajectory"));
                robot.push(t);
            }
        }
        let tool = (0..cfg.n_effectors)
            .map(|e| InstanceTarget::object("effectors", CellsConfig::effector_key(e)).attr("tool"))
            .collect();
        Targets {
            robots_per_cell: cfg.robots_per_cell,
            trajectory,
            robot,
            tool,
        }
    }

    /// Index of `(cell, robot)` into [`Targets::trajectory`] / [`Targets::robot`].
    pub fn slot(&self, cell: usize, robot: usize) -> usize {
        cell * self.robots_per_cell + robot
    }
}

// ---------------------------------------------------------------------------
// E14 mix (served_mix, embedded_mix, parallel_disjoint)
// ---------------------------------------------------------------------------

/// Shape of the mix workloads' database: E14's 8 cells × 8 c_objects.
pub fn mix_cells() -> CellsConfig {
    CellsConfig {
        n_cells: 8,
        c_objects_per_cell: 8,
        ..CellsConfig::default()
    }
}

/// Share of read-only transactions, percent (E14).
pub const MIX_READONLY_PCT: u64 = 30;
/// Share of long check-out transactions, percent (E14).
pub const MIX_LONG_PCT: u64 = 20;
/// Share of transactions redirected to cell 1, percent (E14).
pub const MIX_SKEW_PCT: u64 = 20;

/// One transaction of the mix: its class and the robot it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixTxn {
    /// Read = `BEGIN READONLY`+`GET`; Long = check-out/check-in of the
    /// robot; Write = `GET`/`PUT` of the trajectory counter.
    pub class: Class,
    /// Index into [`Targets::trajectory`] / [`Targets::robot`].
    pub slot: u16,
}

/// Generates `len` mix transactions for `client`, drawing cells from `cells`
/// (0-based indices) with `skew_pct` percent redirected to `cells[0]`.
pub fn mix_stream(
    seed: u64,
    client: usize,
    len: usize,
    targets: &Targets,
    cells: &[usize],
    skew_pct: u64,
) -> Vec<MixTxn> {
    let mut rng = Rng::seed_from_u64(client_seed(seed, client));
    (0..len)
        .map(|_| {
            let cell = if rng.gen_range(0..100u64) < skew_pct {
                cells[0]
            } else {
                cells[rng.gen_range(0..cells.len())]
            };
            let robot = rng.gen_range(0..targets.robots_per_cell);
            let draw = rng.gen_range(0..100u64);
            let class = if draw < MIX_READONLY_PCT {
                Class::Read
            } else if draw < MIX_READONLY_PCT + MIX_LONG_PCT {
                Class::Long
            } else {
                Class::Write
            };
            MixTxn {
                class,
                slot: targets.slot(cell, robot) as u16,
            }
        })
        .collect()
}

/// The slot client `w` of `n` locks in place of `slot` in `served_mix`: the
/// one ≡ `w` (mod `n`) in `slot`'s run of `n` consecutive slots (the same
/// cell for 1, 2 or 4 clients, so the skew stays), wrapping to slot `w` past
/// the last of the `total`.
///
/// No two clients then ever lock the same robot, so no attempt can end as a
/// deadlock victim: a driver compares the `failed` counts of two sets of runs
/// and takes any surplus for a regression, and which S→X upgrades of two
/// clients collide on one trajectory is the scheduler's choice, not the
/// seed's. Snapshot reads take no locks and go anywhere.
pub fn own_slot(slot: usize, w: usize, n: usize, total: usize) -> usize {
    let own = slot - slot % n + w;
    if own < total {
        own
    } else {
        w
    }
}

/// The cells thread `w` of `n` may touch in `parallel_disjoint`: those with
/// index ≡ `w` (mod `n`), so no two threads ever share a cell.
pub fn disjoint_cells(w: usize, n: usize, total: usize) -> Vec<usize> {
    (0..total).filter(|c| c % n == w).collect()
}

// ---------------------------------------------------------------------------
// Fig. 7 queries
// ---------------------------------------------------------------------------

/// Shape of the `fig7_queries` database: a small non-disjoint hot set with
/// large HoLUs — 2 cells × 200 c_objects × 4 robots, 4 effectors, 2 per
/// robot (sharing degree 4).
pub fn fig7_cells() -> CellsConfig {
    CellsConfig {
        n_cells: 2,
        c_objects_per_cell: 200,
        robots_per_cell: 4,
        n_effectors: 4,
        effectors_per_robot: 2,
        seed: 42,
    }
}

/// Think time a long check-out holds its robot for.
pub const FIG7_THINK: std::time::Duration = std::time::Duration::from_millis(2);

/// A write a statement performs: which slot of the final-state check it
/// lands in and the unique literal it stores.
#[derive(Debug, Clone)]
pub struct Fig7Write {
    /// `0..robots` = trajectory of that robot slot; `robots..` = tool of
    /// effector `slot - robots`.
    pub slot: usize,
    /// The stored literal, unique per `(client, stream position)`.
    pub literal: Arc<str>,
}

/// One HDBL statement with what the probes and the final-state check need to
/// know about it.
#[derive(Debug, Clone)]
pub struct Fig7Stmt {
    /// The statement text handed to `colock_query`.
    pub text: Arc<str>,
    /// Relation and 0-based object index the statement's root range binds.
    pub object: (&'static str, usize),
    /// The update it performs, if any.
    pub write: Option<Fig7Write>,
}

/// What a Fig. 7 transaction does.
#[derive(Debug, Clone)]
pub enum Fig7Body {
    /// One or two statements through the query pipeline.
    Query {
        /// The statements, in order.
        stmts: Vec<Fig7Stmt>,
        /// Runs with librarian rights (may update `effectors`).
        librarian: bool,
    },
    /// Long check-out of `Targets::robot[slot]`, held for [`FIG7_THINK`].
    Checkout {
        /// Robot slot.
        slot: usize,
    },
}

/// One transaction of the Fig. 7 stream.
#[derive(Debug, Clone)]
pub struct Fig7Txn {
    /// Latency class.
    pub class: Class,
    /// What it does.
    pub body: Fig7Body,
}

/// Mix shares of `fig7_queries`, percent, in draw order.
pub const FIG7_SHARES: [(&str, u64); 6] = [
    ("q1_read_c_objects", 40),
    ("q2_select_update_robot", 20),
    ("q3_update_trajectory", 20),
    ("effector_read", 5),
    ("effector_update", 5),
    ("long_checkout", 10),
];

/// Generates `len` Fig. 7 transactions for `client`.
pub fn fig7_stream(seed: u64, client: usize, len: usize, cfg: &CellsConfig) -> Vec<Fig7Txn> {
    let mut rng = Rng::seed_from_u64(client_seed(seed, client));
    let robots = cfg.n_cells * cfg.robots_per_cell;
    // Statements without a literal are shared between stream positions.
    let q1: Vec<Arc<str>> = (0..cfg.n_cells)
        .map(|c| {
            format!(
                "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = '{}' FOR READ",
                CellsConfig::cell_key(c)
            )
            .into()
        })
        .collect();
    let robot_where = |c: usize, r: usize| {
        format!(
            "FROM c IN cells, r IN c.robots WHERE c.cell_id = '{}' AND r.robot_id = '{}'",
            CellsConfig::cell_key(c),
            CellsConfig::robot_key(r)
        )
    };
    let q2_select: Vec<Arc<str>> = (0..robots)
        .map(|s| {
            let (c, r) = (s / cfg.robots_per_cell, s % cfg.robots_per_cell);
            format!("SELECT r {} FOR UPDATE", robot_where(c, r)).into()
        })
        .collect();
    let eff_read: Vec<Arc<str>> = (0..cfg.n_effectors)
        .map(|e| {
            format!(
                "SELECT e FROM e IN effectors WHERE e.eff_id = '{}' FOR READ",
                CellsConfig::effector_key(e)
            )
            .into()
        })
        .collect();

    (0..len)
        .map(|pos| {
            let draw = rng.gen_range(0..100u64);
            let cell = rng.gen_range(0..cfg.n_cells);
            let robot = rng.gen_range(0..cfg.robots_per_cell);
            let eff = rng.gen_range(0..cfg.n_effectors);
            let slot = cell * cfg.robots_per_cell + robot;
            let literal: Arc<str> = format!("w{client}-{pos}").into();
            let update_trajectory = || Fig7Stmt {
                text: format!(
                    "UPDATE r.trajectory = '{literal}' {}",
                    robot_where(cell, robot)
                )
                .into(),
                object: ("cells", cell),
                write: Some(Fig7Write {
                    slot,
                    literal: Arc::clone(&literal),
                }),
            };
            let query = |stmts| Fig7Body::Query {
                stmts,
                librarian: false,
            };
            let mut cut = 0;
            let mut below = |share: u64| {
                cut += share;
                draw < cut
            };
            if below(FIG7_SHARES[0].1) {
                let stmt = Fig7Stmt {
                    text: Arc::clone(&q1[cell]),
                    object: ("cells", cell),
                    write: None,
                };
                Fig7Txn {
                    class: Class::Read,
                    body: query(vec![stmt]),
                }
            } else if below(FIG7_SHARES[1].1) {
                let select = Fig7Stmt {
                    text: Arc::clone(&q2_select[slot]),
                    object: ("cells", cell),
                    write: None,
                };
                Fig7Txn {
                    class: Class::Write,
                    body: query(vec![select, update_trajectory()]),
                }
            } else if below(FIG7_SHARES[2].1) {
                Fig7Txn {
                    class: Class::Write,
                    body: query(vec![update_trajectory()]),
                }
            } else if below(FIG7_SHARES[3].1) {
                let stmt = Fig7Stmt {
                    text: Arc::clone(&eff_read[eff]),
                    object: ("effectors", eff),
                    write: None,
                };
                Fig7Txn {
                    class: Class::Read,
                    body: query(vec![stmt]),
                }
            } else if below(FIG7_SHARES[4].1) {
                let stmt = Fig7Stmt {
                    text: format!(
                        "UPDATE e.tool = '{literal}' FROM e IN effectors WHERE e.eff_id = '{}'",
                        CellsConfig::effector_key(eff)
                    )
                    .into(),
                    object: ("effectors", eff),
                    write: Some(Fig7Write {
                        slot: robots + eff,
                        literal: Arc::clone(&literal),
                    }),
                };
                Fig7Txn {
                    class: Class::Write,
                    body: Fig7Body::Query {
                        stmts: vec![stmt],
                        librarian: true,
                    },
                }
            } else {
                Fig7Txn {
                    class: Class::Long,
                    body: Fig7Body::Checkout { slot },
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_seed_and_client() {
        let t = Targets::new(&mix_cells());
        let all: Vec<usize> = (0..8).collect();
        let a = mix_stream(42, 0, 1000, &t, &all, MIX_SKEW_PCT);
        assert_eq!(a, mix_stream(42, 0, 1000, &t, &all, MIX_SKEW_PCT));
        assert_ne!(a, mix_stream(43, 0, 1000, &t, &all, MIX_SKEW_PCT));
        assert_ne!(a, mix_stream(42, 1, 1000, &t, &all, MIX_SKEW_PCT));
    }

    #[test]
    fn disjoint_cells_partition_the_database() {
        let mut seen = Vec::new();
        for w in 0..3 {
            seen.extend(disjoint_cells(w, 3, 8));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        let t = Targets::new(&mix_cells());
        let mine = disjoint_cells(1, 2, 8);
        for txn in mix_stream(7, 1, 500, &t, &mine, 0) {
            assert_eq!((txn.slot as usize / 4) % 2, 1, "thread 1 left its cells");
        }
    }

    #[test]
    fn own_slots_are_disjoint_between_clients() {
        for n in 1..=8 {
            for slot in 0..32 {
                for w in 0..n {
                    let own = own_slot(slot, w, n, 32);
                    assert!(own < 32 && own % n == w, "{slot} -> {own} for {w} of {n}");
                }
            }
        }
        // With 2 clients a robot is swapped for its neighbour in the cell.
        assert_eq!(own_slot(7, 0, 2, 32), 6);
        assert_eq!(own_slot(6, 1, 2, 32), 7);
        assert_eq!(own_slot(5, 0, 1, 32), 5);
    }

    #[test]
    fn fig7_shares_sum_to_one_hundred() {
        assert_eq!(FIG7_SHARES.iter().map(|s| s.1).sum::<u64>(), 100);
    }
}
