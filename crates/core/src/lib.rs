#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # `colock-core` — the paper's lock technique
//!
//! Implementation of Herrmann, Dadam, Küspert, Roman, Schlageter: *"A Lock
//! Technique for Disjoint and Non-Disjoint Complex Objects"* (EDBT 1990).
//!
//! The crate provides, mirroring the paper's §4:
//!
//! * [`graph`] — the general lock graph (Fig. 4), object-specific lock
//!   graphs derived from NF² schemas by the derivation rules of §4.3
//!   (Fig. 5), and the unit structure — outer/inner units, entry points,
//!   superunits — of §4.4.1 (Fig. 6);
//! * [`resource`] — hierarchical instance paths: the lockable units at the
//!   instance level ("cell c1", "robot r1", "effector e2" of Fig. 7);
//! * [`authorization`] — the access-rights matrix that rule 4′ consults;
//! * [`protocol`] — the proposed lock protocol (§4.4.2, rules 1–5 and 4′)
//!   with implicit upward and downward propagation, plus the three baseline
//!   protocols the paper discusses: XSQL whole-object locking, System R
//!   tuple-level locking and the naive DAG protocol on shared data;
//! * [`optimizer`] — determination of "optimal" lock requests (§4.5) by
//!   anticipation of lock escalations, producing query-specific lock plans;
//!   plus de-escalation (paper's future work, implemented as an extension).
//!
//! ## Quick start
//!
//! ```
//! use colock_core::authorization::Authorization;
//! use colock_core::fixtures::{fig1_catalog, fig6_source};
//! use colock_core::protocol::{InstanceTarget, LockCtx, ProtocolEngine, ProtocolKind};
//! use colock_lockmgr::{LockManager, LockMode, TxnId};
//! use std::sync::Arc;
//!
//! let engine = ProtocolEngine::new(Arc::new(fig1_catalog()));
//! let lm = LockManager::new();
//! let src = fig6_source();
//! let mut authz = Authorization::allow_all();
//! authz.set_relation_default("effectors", colock_core::authorization::Right::Read);
//!
//! // Q2 of the paper: update robot r1 of cell c1.
//! let q2 = InstanceTarget::object("cells", "c1").elem("robots", "r1");
//! let cx = LockCtx::new(&lm, TxnId(2), &src, &authz);
//! let report = engine.lock(&cx, ProtocolKind::Proposed, &q2, LockMode::X).unwrap();
//! // Robot r1 is X-locked; the shared effectors e1/e2 are S-locked via
//! // implicit downward propagation under rule 4'.
//! assert!(report.render().contains("[r1]: X"));
//! ```

pub mod authorization;
pub mod fixtures;
pub mod graph;
pub mod optimizer;
pub mod protocol;
pub mod resource;

pub use authorization::{Authorization, Right};
pub use graph::{derive_lock_graph, Category, ConceptGraph, DbLockGraph, NodeId, Units};
pub use optimizer::{AccessEstimate, Granularity, LockPlan, Optimizer, PlannedLock};
pub use protocol::{
    AccessMode, InstanceSource, InstanceTarget, LockCounts, LockCtx, LockReport, ProtocolEngine, ProtocolError,
    ProtocolKind, ProtocolOptions, ReverseScan, TargetStep, TxnLockCache,
};
pub use resource::{PathStep, ResourcePath};
