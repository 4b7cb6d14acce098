#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # `colock-benchmark` — the repo benchmark
//!
//! Four closed-loop workloads, ten bounded end-to-end metrics (the
//! `END_TO_END` list of [`spec`]) and an outside-in per-layer budget for a
//! served transaction. `BENCHMARK.json` at
//! the repo root is the contract; `README.md` next to this crate explains
//! who each metric is for and how self times are derived.
//!
//! Everything here calls only the *public* API of the `colock-*` crates and
//! records its spans from its own files.

pub mod check;
pub mod drive;
pub mod env;
pub mod fig7;
pub mod gen;
mod layers;
mod measure;
pub mod mix;
pub mod probe;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
