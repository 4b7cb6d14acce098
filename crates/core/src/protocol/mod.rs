//! Lock protocols: the paper's proposed protocol (§4.4.2) and the baselines
//! it is evaluated against (§3).
//!
//! | Protocol | Paper role |
//! |---|---|
//! | [`proposed`] | §4.4.2 rules 1–5 with implicit upward/downward propagation; rule 4′ optional |
//! | [`whole_object`] | XSQL-style: complex objects locked as a whole incl. common data (§3.1/\[HaLo82\]) |
//! | [`tuple_level`] | System R tuple locking: every basic element tuple locked individually (§3.2.1) |
//! | [`naive_dag`] | straightforward DAG application to non-disjoint objects (§3.2.2): reverse-scan all parents for X on shared data; no downward propagation, so implicit locks stay invisible from the side |
//!
//! All of them are reached through one entry point,
//! [`ProtocolEngine::lock`], which selects the body by [`ProtocolKind`], and
//! drive the same [`colock_lockmgr::LockManager`] keyed by
//! [`crate::resource::ResourcePath`], so their lock footprints and conflict
//! behaviour are directly comparable.

pub mod engine;
pub mod naive_dag;
pub mod proposed;
pub mod target;
pub mod tuple_level;
pub mod whole_object;

pub use engine::{
    LockCounts, LockCtx, LockReport, ProtocolEngine, ProtocolError, ProtocolKind, ProtocolOptions, TxnLockCache,
};
pub use target::{AccessMode, InstanceSource, InstanceTarget, ReverseScan, TargetStep};
