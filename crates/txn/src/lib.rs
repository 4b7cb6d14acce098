#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # `colock-txn` — transactions over the lock technique
//!
//! Transaction substrate tying the pieces together: a [`TransactionManager`]
//! owns the lock manager, protocol engine, store and authorization matrix,
//! and hands out [`Transaction`] handles that
//!
//! * lock before access using a configurable [`ProtocolKind`] (the proposed
//!   technique or one of the paper's baselines — the experiment harness swaps
//!   them),
//! * enforce **strict two-phase locking**: all locks are held to end of
//!   transaction (early release is possible leaf-to-root per rule 5, after
//!   which the transaction may not grow again),
//! * guarantee degree-3 consistency (§1: "multiple reads of the same data
//!   during one transaction lead to the same result" \[GLPT76\]) — S locks held
//!   to EOT make repeated reads stable,
//! * keep an undo log of before-images so aborts (including deadlock
//!   victims) roll back cleanly,
//! * support **long transactions** and **check-out/check-in** (§1, §3.1):
//!   checked-out subobjects get long locks that survive a simulated system
//!   crash (see `colock-lockmgr::persistent`).

pub mod error;
pub mod manager;
pub mod transaction;
pub mod undo;

pub use error::TxnError;
pub use colock_core::ProtocolKind;
pub use manager::{RecoveryReport, TransactionManager};
pub use transaction::{Transaction, TxnKind};
pub use undo::UndoRecord;

/// Result alias.
pub type Result<T> = std::result::Result<T, TxnError>;
