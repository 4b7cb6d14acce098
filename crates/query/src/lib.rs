#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # `colock-query` — an HDBL-flavoured query language
//!
//! The paper's queries (Fig. 3) are written in "a query language which is an
//! extension of SQL" — essentially HDBL, the Heidelberg Database Language of
//! AIM-P. This crate implements the subset the paper uses, plus updates and
//! deletes:
//!
//! ```text
//! SELECT o FROM c IN cells, o IN c.c_objects
//!   WHERE c.cell_id = 'c1' FOR READ
//!
//! SELECT r FROM c IN cells, r IN c.robots
//!   WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE
//!
//! UPDATE r.trajectory = 'vertical' FROM c IN cells, r IN c.robots
//!   WHERE c.cell_id = 'c1' AND r.robot_id = 'r2'
//!
//! DELETE r FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r1'
//! ```
//!
//! The pipeline follows §4.1 exactly:
//!
//! 1. [`parser`] — text → AST,
//! 2. [`analyze`] — which attributes are accessed, which kind of access,
//! 3. [`plan`] — "optimal" lock requests via the escalation-anticipating
//!    optimizer; the result is the *query-specific lock graph*,
//! 4. [`exec`] — execution: locks are requested from the lock manager using
//!    the stored granule/mode information, then the data is accessed.

pub mod analyze;
pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod rows;

pub use analyze::{Analysis, BoundRange};
pub use ast::{Comparison, Condition, Operand, Query, RangeDecl, Statement};
pub use error::QueryError;
pub use exec::{execute, ExecOutcome, Row};
pub use parser::parse;
pub use plan::{plan_locks, QueryPlan};
pub use rows::Rows;

/// Result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
