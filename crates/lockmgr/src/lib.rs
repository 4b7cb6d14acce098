#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # `colock-lockmgr` — a transaction-oriented multi-granularity lock manager
//!
//! This crate implements the lock-manager substrate underneath the paper's
//! protocol: the classic Gray/Lorie/Putzolu/Traiger multi-granularity lock
//! modes **IS, IX, S, SIX, X** (\[GLP75\], \[GLPT76\]) with
//!
//! * a lock table keyed by arbitrary resource identifiers (the protocol layer
//!   uses hierarchical instance paths),
//! * FIFO wait queues with conversion (upgrade) priority,
//! * waits-for-graph deadlock detection with youngest-victim selection,
//! * *long locks* (§3.1/\[KSUW85\]): locks flagged long survive a simulated
//!   system shutdown/crash via the [`persistent`] journal (crash-safe,
//!   checksummed, checkpointed to the live set),
//! * detailed statistics (lock-table entries, conflict tests, waits,
//!   deadlocks) — the quantities the paper's qualitative evaluation (§4.6)
//!   argues about; the experiment harness measures them.
//!
//! Locks here are *transaction-oriented* (§1): they are held until explicitly
//! released, normally at end-of-transaction; action-oriented (latch-style)
//! locks are out of scope, exactly as in the paper.

mod detector;
pub mod error;
mod fastpath;
mod inventory;
pub mod mode;
pub mod persistent;
pub mod pad;
mod queue;
mod request;
pub mod stats;
mod summary;
pub mod table;
pub mod txnid;

pub use error::LockError;
pub use mode::LockMode;
pub use pad::CachePadded;
pub use persistent::{Journal, JournalCrash, JournalError, JournalOp, JournalSink, Recovered};
pub use stats::{LockStats, StatsSnapshot};
pub use request::Request;
pub use table::{AcquireOutcome, LockManager, LockRequestOptions, WaitPolicy};
pub use txnid::{TxnId, TxnIdGen};

/// Result alias for lock operations.
pub type Result<T> = std::result::Result<T, LockError>;
