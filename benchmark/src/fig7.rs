//! Driver of `fig7_queries`: the paper's own scenario through the `query`
//! crate on a non-disjoint hot set.
//!
//! Every update stores a literal unique to its `(client, stream position)`;
//! the correctness gate checks that each target ends holding the *last*
//! committed write of some client (a lost or resurrected update cannot).

use crate::drive::{Call, Failure, Runner, Tracer};
use crate::env::LOCK_WAIT;
use crate::gen::{Class, Fig7Body, Fig7Txn, Targets, FIG7_THINK};
use crate::mix::txn_failure;
use colock_core::authorization::Right;
use colock_core::{AccessMode, Optimizer};
use colock_lockmgr::WaitPolicy;
use colock_query::{QueryError, Statement};
use colock_txn::{Transaction, TransactionManager, TxnKind};
use std::hint::black_box;
use std::sync::Arc;

/// Query errors carry the lock error as text; this is the text of the
/// retryable ones (`LockError`'s `Display`).
fn query_failure(e: &QueryError) -> Failure {
    let message = e.to_string();
    let retryable = ["deadlock", "timed out", "would block"]
        .iter()
        .any(|s| message.contains(s));
    Failure {
        retryable,
        busy: false,
        hint_ms: None,
        message,
    }
}

/// One `fig7_queries` client.
pub struct Fig7Runner<'a> {
    /// The shared manager.
    pub manager: &'a TransactionManager,
    /// Pre-built targets.
    pub targets: &'a Targets,
    /// The §4.5 optimizer (default threshold, as the query tests use).
    pub optimizer: Optimizer,
    /// This client's pre-generated transactions (wraps if exhausted).
    pub stream: Vec<Fig7Txn>,
    /// Per write slot, the literal of this client's last committed write.
    pub last_write: Vec<Option<Arc<str>>>,
    /// Statements that ran to completion (in committed and aborted attempts
    /// alike).
    pub statements: u64,
    /// Rows those statements returned.
    pub rows: u64,
}

/// Runs one statement; with spans on, stage by stage (the body of
/// `colock_query::exec::run`), otherwise through `run` itself. Returns the
/// rows it produced.
fn statement(
    txn: &Transaction<'_>,
    optimizer: &Optimizer,
    text: &str,
    tr: &mut Tracer,
) -> Result<u64, QueryError> {
    let outcome = if tr.on() {
        let catalog = Arc::clone(txn.manager().store().catalog());
        let stmt: Statement = tr.time(Call::Parse, || colock_query::parse(text))?;
        let analysis = tr.time(Call::Analyze, || {
            colock_query::analyze::analyze(&catalog, &stmt)
        })?;
        let plan = tr.time(Call::Plan, || {
            colock_query::plan_locks(&catalog, stmt, analysis, optimizer)
        })?;
        tr.time(Call::Exec, || colock_query::execute(txn, &plan))?
    } else {
        colock_query::exec::run(txn, text, optimizer)?
    };
    let rows = outcome.rows.len() as u64;
    black_box(outcome);
    Ok(rows)
}

impl Runner for Fig7Runner<'_> {
    fn class(&self, pos: usize) -> Class {
        self.stream[pos % self.stream.len()].class
    }

    fn attempt(&mut self, pos: usize, tr: &mut Tracer) -> Result<(), Failure> {
        let Fig7Runner {
            manager: mgr,
            targets,
            optimizer,
            stream,
            last_write,
            statements,
            rows,
        } = self;
        let body = &stream[pos % stream.len()].body;
        let long = matches!(body, Fig7Body::Checkout { .. });
        let txn = tr.time(Call::Begin, || {
            mgr.begin(if long { TxnKind::Long } else { TxnKind::Short })
        });
        tr.txn_id(txn.id().0);
        txn.set_wait_policy(WaitPolicy::BlockTimeout(LOCK_WAIT));
        let ops: Result<(), Failure> = (|| match body {
            Fig7Body::Query { stmts, librarian } => {
                if *librarian {
                    // What a librarian session's BEGIN does (rule 4′ rights).
                    mgr.authorization()
                        .grant(txn.id(), "effectors", Right::Update);
                }
                for s in stmts {
                    *rows +=
                        statement(&txn, optimizer, &s.text, tr).map_err(|e| query_failure(&e))?;
                    *statements += 1;
                }
                Ok(())
            }
            Fig7Body::Checkout { slot } => {
                let target = &targets.robot[*slot];
                let copy = tr
                    .time(Call::Checkout, || txn.checkout(target, AccessMode::Update))
                    .map_err(|e| txn_failure(&e))?;
                tr.time(Call::Think, || std::thread::sleep(FIG7_THINK));
                tr.time(Call::Checkin, || txn.checkin(target, copy))
                    .map_err(|e| txn_failure(&e))
            }
        })();
        match ops {
            Ok(()) => {
                tr.time(Call::Commit, || txn.commit())
                    .map_err(|e| txn_failure(&e))?;
                if let Fig7Body::Query { stmts, .. } = body {
                    for w in stmts.iter().filter_map(|s| s.write.as_ref()) {
                        last_write[w.slot] = Some(Arc::clone(&w.literal));
                    }
                }
                Ok(())
            }
            Err(f) => {
                let _ = tr.time(Call::Abort, || txn.abort());
                Err(f)
            }
        }
    }
}
