//! Drivers of the E14 mix: over TCP (`served_mix`) and straight into the
//! `TransactionManager` (`embedded_mix`, `parallel_disjoint`).
//!
//! Every short write is a read-modify-write of a per-trajectory counter, so
//! the sum of the final counters must equal the committed write transactions
//! (the lost-update check of the correctness gate).

use crate::drive::{Call, Failure, Runner, Tracer};
use crate::env::LOCK_WAIT;
use crate::gen::{Class, MixTxn, Targets};
use crate::probe::{ProbeTxn, Step};
use colock_core::AccessMode;
use colock_lockmgr::{LockError, WaitPolicy};
use colock_nf2::Value;
use colock_server::client::ClientError;
use colock_server::wire::{BeginKind, ErrorCode};
use colock_server::Client;
use colock_txn::{TransactionManager, TxnError, TxnKind};
use std::hint::black_box;

/// The counter a trajectory holds: its text as a number, 0 for the
/// non-numeric value the store is built with.
pub fn counter_of(v: &Value) -> u64 {
    match v {
        Value::Str(s) => s.parse().unwrap_or(0),
        _ => 0,
    }
}

fn bumped(v: &Value) -> Value {
    Value::Str((counter_of(v) + 1).to_string())
}

/// Classifies an in-process transaction error the way the wire protocol's
/// `ErrorCode::is_retryable` does.
pub fn txn_failure(e: &TxnError) -> Failure {
    use colock_core::ProtocolError::Lock;
    let retryable = matches!(
        e,
        TxnError::Protocol(Lock(
            LockError::Deadlock { .. }
                | LockError::Timeout
                | LockError::VictimPending(_)
                | LockError::WouldBlock { .. }
        ))
    );
    Failure {
        retryable,
        busy: false,
        hint_ms: None,
        message: e.to_string(),
    }
}

/// The probe form of a mix transaction (what the `Transaction` calls it
/// makes are, whichever driver issues it).
pub fn mix_probe_txn(t: MixTxn, targets: &Targets) -> ProbeTxn {
    let slot = t.slot as usize;
    let traj = || targets.trajectory[slot].clone();
    let robot = || targets.robot[slot].clone();
    match t.class {
        Class::Read => ProbeTxn {
            kind: TxnKind::ReadOnly,
            librarian: false,
            steps: vec![Step::SnapRead(traj())],
        },
        Class::Write => ProbeTxn {
            kind: TxnKind::Short,
            librarian: false,
            steps: vec![
                Step::Read(traj()),
                Step::Update(traj(), Value::str("123456")),
            ],
        },
        Class::Long => ProbeTxn {
            kind: TxnKind::Long,
            librarian: false,
            steps: vec![Step::Checkout(robot()), Step::CheckinLast(robot())],
        },
    }
}

/// Stream bookkeeping shared by both mix drivers.
pub struct MixStream<'a> {
    /// Pre-built targets.
    pub targets: &'a Targets,
    /// This client's pre-generated transactions (wraps if exhausted).
    pub stream: Vec<MixTxn>,
    /// Short write transactions committed so far.
    pub committed_writes: u64,
}

impl MixStream<'_> {
    fn at(&self, pos: usize) -> MixTxn {
        self.stream[pos % self.stream.len()]
    }
}

// ---------------------------------------------------------------------------
// served_mix
// ---------------------------------------------------------------------------

/// One `served_mix` client: a connection and its stream.
pub struct ServedRunner<'a> {
    /// The connection (one per client).
    pub client: Client,
    /// Its stream.
    pub mix: MixStream<'a>,
}

impl Runner for ServedRunner<'_> {
    fn class(&self, pos: usize) -> Class {
        self.mix.at(pos).class
    }

    fn attempt(&mut self, pos: usize, tr: &mut Tracer) -> Result<(), Failure> {
        let t = self.mix.at(pos);
        let slot = t.slot as usize;
        let (c, targets) = (&mut self.client, self.mix.targets);
        let result: Result<(), ClientError> = (|| {
            match t.class {
                Class::Read => {
                    let id = tr.time(Call::Begin, || c.begin(BeginKind::ReadOnly))?;
                    tr.txn_id(id.0);
                    black_box(tr.time(Call::Read, || c.get(&targets.trajectory[slot]))?);
                }
                Class::Write => {
                    let id = tr.time(Call::Begin, || c.begin(BeginKind::Short))?;
                    tr.txn_id(id.0);
                    let target = &targets.trajectory[slot];
                    let v = tr.time(Call::Read, || c.get(target))?;
                    let next = bumped(&v);
                    tr.time(Call::Update, || c.put(target, next))?;
                }
                Class::Long => {
                    let id = tr.time(Call::Begin, || c.begin(BeginKind::Long))?;
                    tr.txn_id(id.0);
                    let target = &targets.robot[slot];
                    let copy =
                        tr.time(Call::Checkout, || c.checkout(target, AccessMode::Update))?;
                    tr.time(Call::Checkin, || c.checkin(target, copy))?;
                }
            }
            tr.time(Call::Commit, || c.commit())
        })();
        match result {
            Ok(()) => {
                self.mix.committed_writes += u64::from(t.class == Class::Write);
                Ok(())
            }
            Err(e) => {
                // Closed loop: clean up and retry on this session.
                let _ = tr.time(Call::Abort, || c.abort());
                Err(Failure {
                    retryable: e.is_retryable(),
                    busy: e.code() == Some(ErrorCode::Busy),
                    hint_ms: match &e {
                        ClientError::Server { backoff_ms, .. } => *backoff_ms,
                        _ => None,
                    },
                    message: e.to_string(),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// embedded_mix / parallel_disjoint
// ---------------------------------------------------------------------------

/// One in-process client: the manager and its stream.
pub struct EmbeddedRunner<'a> {
    /// The shared manager.
    pub manager: &'a TransactionManager,
    /// Its stream.
    pub mix: MixStream<'a>,
}

impl Runner for EmbeddedRunner<'_> {
    fn class(&self, pos: usize) -> Class {
        self.mix.at(pos).class
    }

    fn attempt(&mut self, pos: usize, tr: &mut Tracer) -> Result<(), Failure> {
        let t = self.mix.at(pos);
        let slot = t.slot as usize;
        let (mgr, targets) = (self.manager, self.mix.targets);
        let txn = tr.time(Call::Begin, || match t.class {
            Class::Read => mgr.begin_readonly(),
            Class::Write => mgr.begin(TxnKind::Short),
            Class::Long => mgr.begin(TxnKind::Long),
        });
        tr.txn_id(txn.id().0);
        // What a served session does at BEGIN: a bounded lock wait.
        txn.set_wait_policy(WaitPolicy::BlockTimeout(LOCK_WAIT));
        let ops: Result<(), TxnError> = (|| {
            match t.class {
                Class::Read => {
                    black_box(
                        tr.time(Call::Read, || txn.snapshot_read(&targets.trajectory[slot]))?,
                    );
                }
                Class::Write => {
                    let target = &targets.trajectory[slot];
                    let v = tr.time(Call::Read, || txn.read(target))?;
                    let next = bumped(&v);
                    tr.time(Call::Update, || txn.update(target, next))?;
                }
                Class::Long => {
                    let target = &targets.robot[slot];
                    let copy =
                        tr.time(Call::Checkout, || txn.checkout(target, AccessMode::Update))?;
                    tr.time(Call::Checkin, || txn.checkin(target, copy))?;
                }
            }
            Ok(())
        })();
        match ops {
            Ok(()) => {
                tr.time(Call::Commit, || txn.commit())
                    .map_err(|e| txn_failure(&e))?;
                self.mix.committed_writes += u64::from(t.class == Class::Write);
                Ok(())
            }
            Err(e) => {
                let _ = tr.time(Call::Abort, || txn.abort());
                Err(txn_failure(&e))
            }
        }
    }
}
