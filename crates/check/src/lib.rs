//! Independent conformance checking for the colock workspace.
//!
//! The engine crates *implement* the paper's lock technique; this crate
//! *verifies* them, from the outside, using only public artifacts:
//!
//! - [`static_check`] analyzes a derived object-specific lock graph offline —
//!   tree structure, Fig. 5 derivation conformance, §4.3 unit/entry-point
//!   soundness, and the algebraic laws of the compatibility matrix.
//! - [`lint`] replays a recorded trace (live ring drain or parsed trace
//!   file) and checks the §4.4.2 protocol rules 1–5 against what the engine
//!   actually did, reporting typed [`Violation`]s.
//!
//! Neither path touches engine internals, so a bug in the engine cannot hide
//! itself from its own checker. The stress binaries and the sim tests drain
//! the trace ring through the linter and the [`certify`] certifier after
//! every run; `cargo run --bin colock_check` lints trace files offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod lint;
pub mod static_check;

pub use certify::{Certifier, CertifyReport, ConflictCycle, ConflictEdge, TxnNode};
pub use lint::{LintReport, Linter, Violation, ViolationKind};
pub use static_check::{check_graph, check_matrix, check_schema, CheckError, StaticReport};

use colock_nf2::Catalog;
use colock_trace::Event;

/// Lints one trace window against the §4.4.2 rules (with `catalog`'s
/// schema), then certifies it conflict-serializable — the check every
/// harness runs on what it traced. The error names the first failure and
/// renders the offending transactions' timelines.
pub fn verify_trace(
    catalog: &Catalog,
    events: &[Event],
) -> Result<(LintReport, CertifyReport), String> {
    let lint = Linter::with_catalog(catalog).lint(events);
    if !lint.is_clean() {
        return Err(format!("protocol violations:\n{}", lint.render_with_context(events)));
    }
    let cert = Certifier::new().certify(events);
    if !cert.is_clean() {
        return Err(format!("not conflict-serializable:\n{}", cert.render_with_context(events)));
    }
    Ok((lint, cert))
}
