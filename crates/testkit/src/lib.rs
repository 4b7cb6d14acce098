//! Hermetic, zero-dependency test substrate for the colock workspace.
//!
//! The tier-1 gate of this repository must run on a machine with **no
//! network**: nothing here (or anywhere in the workspace) may pull a
//! registry crate. This crate replaces the five external dependencies the
//! seed leaned on:
//!
//! * [`rng`] — a seedable SplitMix64 / xoshiro256++ PRNG with the
//!   `gen_range` / `shuffle` / `choose` surface the simulation workloads
//!   and bench binaries use (replaces `rand`),
//! * [`prop`] — a minimal property-testing harness ([`forall!`]) with case
//!   counts, failing-seed reporting and integer/vec/string shrinking
//!   (replaces `proptest`),
//! * [`stress`] — a watchdogged multi-thread runner, a barrier-stepped
//!   driver, predicate waits with timeouts (replaces the
//!   `thread::sleep`-and-hope pattern) and the soak tests' deadlined round,
//! * [`explore`] — a DPOR interleaving explorer that runs real engine
//!   threads one chosen schedule at a time,
//! * [`bench`](mod@bench) — a micro-bench timer (warmup + N iterations,
//!   min/median/p99, JSON lines on stdout — replaces `criterion`),
//! * [`codec`] — a small hand-rolled line-oriented encode/decode (plus a
//!   CRC-32) used by `colock-lockmgr`'s long-lock persistence (replaces
//!   `serde`),
//! * [`fault`] — deterministic crash-point injection ([`FaultPlan`]): crash a
//!   durable medium before/after/mid-way through its *n*-th append, driven by
//!   the seeded PRNG, so recovery tests can sweep every crash of a schedule,
//! * [`backoff`] — exponential backoff with seeded full jitter for retry
//!   loops that must not re-collide in lock-step.
//!
//! Reproducing a property-test failure: every failure report prints the
//! per-case seed; re-run with `COLOCK_TEST_SEED=<seed>` to replay that case
//! first, deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod bench;
pub mod codec;
pub mod explore;
pub mod fault;
pub mod prop;
pub mod rng;
pub mod stress;

pub use backoff::Backoff;
pub use bench::{black_box, BenchHarness};
pub use explore::{Explorable, ExploreConfig, ExploreReport};
pub use fault::{CrashPoint, FaultPlan};
pub use prop::{run_forall, Config, Shrink};
pub use rng::Rng;
pub use stress::{lockstep, run_threads, soak_round, stress_rounds, wait_until};
