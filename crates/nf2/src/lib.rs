#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # `colock-nf2` — the extended NF² data model
//!
//! The lock technique of Herrmann et al. (EDBT 1990) is defined over a data
//! model that supports *disjoint, non-recursive* as well as *non-disjoint,
//! non-recursive* complex objects. The paper uses the **extended NF² data
//! model with an additional reference concept** (§1, §2): an attribute of a
//! relation may again be table-valued (a *set* or a *list*), tuple-valued
//! (a *complex tuple*), atomic, or a *reference to common data*. Data that may
//! be shared are stored in relations of their own, so a reference always
//! targets a complex object of a relation, never a part of one (§2).
//!
//! This crate provides:
//! * [`AttrType`] / [`Attribute`] — the schema type system (Fig. 1),
//! * [`RelationSchema`] / [`DatabaseSchema`] — schema objects with validation
//!   (non-recursiveness, reference targets, key attributes),
//! * [`Value`] — instance values, validated against the schema,
//! * [`AttrPath`] — schema-level paths such as `cells.robots.trajectory`,
//! * [`Catalog`] — the catalog used by lock-graph derivation and by the
//!   "optimal" lock-request optimizer (cardinality statistics per attribute).
//!
//! The running example throughout the workspace is the paper's Fig. 1 schema
//! of manufacturing `cells` and the shared `effectors` library; it is built in
//! `colock-sim` and reproduced by the `fig1_schema` binary.

pub mod builder;
pub mod catalog;
pub mod display;
pub mod error;
pub mod path;
pub mod schema;
pub mod types;
pub mod value;

pub use builder::{DatabaseBuilder, RelationBuilder};
pub use catalog::{AttrStats, Catalog, RelationStats};
pub use error::Nf2Error;
pub use path::AttrPath;
pub use schema::{DatabaseSchema, RelationSchema, SegmentSchema};
pub use types::{AtomicType, AttrType, Attribute};
pub use value::{Name, ObjectKey, ObjectRef, Value};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Nf2Error>;
