//! Zero-dependency TCP serving layer for the colock engine.
//!
//! Everything before this crate ran in-process: a benchmark thread held an
//! `Arc<TransactionManager>` and called it directly. This crate puts the
//! same manager behind a socket so the paper's *conversational* usage — a
//! designer checks out a cell, disconnects, comes back tomorrow — can be
//! exercised end to end over real connections:
//!
//! - [`frame`] — length-prefixed framing (`<len> SP <payload> LF`),
//!   PROTOCOL.md §2;
//! - [`wire`] — typed requests/responses, error codes, and the text codecs
//!   for lock targets and NF² values, PROTOCOL.md §3–§6;
//! - [`session`] — the per-connection state machine, roles feeding rule 4′
//!   authorization, the bounded session table and admission control,
//!   PROTOCOL.md §3.1;
//! - [`server`] — the thread-per-connection listener, idle timeouts and
//!   graceful drain (long locks are journaled, not released, so §3.1
//!   recovery re-adopts them after restart);
//! - [`client`] — a small blocking client used by the repo benchmark, the
//!   loopback tests and `colock_client --demo`.
//!
//! The wire protocol is text over TCP on purpose: you can drive a server
//! with `nc` (see README "Run the server"), and every frame payload is a
//! `colock-testkit` codec record, the same format the trace and journal
//! layers already use. The full specification lives in `docs/PROTOCOL.md`;
//! rustdoc here documents the *implementation*, the markdown documents the
//! *contract*.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;
pub mod session;
pub mod wire;

pub use client::Client;
pub use server::{Server, ServerConfig};
