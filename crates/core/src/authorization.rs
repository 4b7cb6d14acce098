//! The authorization component (§3.2.3, rule 4′).
//!
//! "A close cooperation of the concurrency control component and the
//! authorization component (which administrates the access rights of all
//! transactions (users)) can drastically increase the degree of concurrency."
//! A unit is called a *(non-)modifiable unit* of a transaction if the
//! transaction has (not) the right to modify it (§4.4.1). Rule 4′ uses this:
//! during downward propagation under an X request, entry points of
//! non-modifiable inner units are locked S instead of X.
//!
//! Per-transaction rights are interior-mutable behind an `RwLock` so a
//! long-lived shared `Arc<Authorization>` (the transaction manager holds one)
//! can be updated by a serving layer: `colock-server` grants a session's
//! rights at `BEGIN` and retracts them at end of transaction, giving each
//! connection its own rule 4′ environment without rebuilding the manager.
//! While no transaction holds an override — the common case — checks and
//! retractions skip that lock: a count of the transactions with overrides,
//! changed only under its write lock, reads zero.

use colock_lockmgr::TxnId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock};

/// Access right of a transaction on a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Right {
    /// No access.
    Deny,
    /// Read-only access.
    Read,
    /// Read and update access.
    #[default]
    Update,
}

/// Access-rights matrix: per-transaction overrides over a default right.
///
/// The default is `Update` (every transaction may do everything), which makes
/// rule 4′ degenerate to rule 4 unless rights are restricted — matching the
/// paper, where the benefit appears exactly when transactions lack update
/// rights on common data (e.g. the effectors library).
#[derive(Debug, Default)]
pub struct Authorization {
    default_right: Right,
    /// `(txn) -> (relation -> right)`. Interior-mutable: grants arrive while
    /// the matrix is shared behind an `Arc` (per-session contexts).
    txn_rights: RwLock<HashMap<TxnId, HashMap<String, Right>>>,
    /// Transactions with an entry in `txn_rights`; changed only under its
    /// write lock. A transaction's grants happen before its own checks and
    /// its retraction, so while this reads zero it has no entry and neither
    /// needs the lock.
    overriding: AtomicUsize,
    /// Relation-wide defaults (apply to all txns without specific override).
    relation_defaults: HashMap<String, Right>,
}

impl Clone for Authorization {
    fn clone(&self) -> Self {
        let txn_rights = self.txn_rights.read().unwrap_or_else(PoisonError::into_inner).clone();
        Authorization {
            default_right: self.default_right,
            overriding: AtomicUsize::new(txn_rights.len()),
            txn_rights: RwLock::new(txn_rights),
            relation_defaults: self.relation_defaults.clone(),
        }
    }
}

impl Authorization {
    /// Everything allowed (rule 4′ ≡ rule 4).
    pub fn allow_all() -> Self {
        Authorization::default()
    }

    /// Sets the global default right.
    pub fn with_default(mut self, right: Right) -> Self {
        self.default_right = right;
        self
    }

    /// Sets the default right for one relation (e.g. `effectors` read-only
    /// for everyone).
    pub fn set_relation_default(&mut self, relation: impl Into<String>, right: Right) {
        self.relation_defaults.insert(relation.into(), right);
    }

    /// Grants a specific right to one transaction on one relation. Takes
    /// `&self`: the matrix may already be shared (sessions grant through the
    /// manager's `Arc`).
    pub fn grant(&self, txn: TxnId, relation: impl Into<String>, right: Right) {
        let mut rights = self.txn_rights.write().unwrap_or_else(PoisonError::into_inner);
        let overrides = rights.entry(txn).or_insert_with(|| {
            self.overriding.fetch_add(1, Ordering::Relaxed);
            HashMap::new()
        });
        overrides.insert(relation.into(), right);
    }

    /// Drops every per-transaction override of `txn` (end of transaction —
    /// ids are never reused, so keeping them would leak).
    pub fn retract(&self, txn: TxnId) {
        if self.overriding.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut rights = self.txn_rights.write().unwrap_or_else(PoisonError::into_inner);
        if rights.remove(&txn).is_some() {
            self.overriding.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The effective right of `txn` on `relation`.
    pub fn right(&self, txn: TxnId, relation: &str) -> Right {
        if self.overriding.load(Ordering::Relaxed) > 0 {
            if let Some(r) = self
                .txn_rights
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&txn)
                .and_then(|m| m.get(relation))
            {
                return *r;
            }
        }
        if let Some(r) = self.relation_defaults.get(relation) {
            return *r;
        }
        self.default_right
    }

    /// Whether `txn` may modify (units of) `relation`.
    pub fn can_modify(&self, txn: TxnId, relation: &str) -> bool {
        self.right(txn, relation) >= Right::Update
    }

    /// Whether `txn` may read `relation`.
    pub fn can_read(&self, txn: TxnId, relation: &str) -> bool {
        self.right(txn, relation) >= Right::Read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_allows_everything() {
        let a = Authorization::allow_all();
        assert!(a.can_modify(TxnId(1), "effectors"));
        assert!(a.can_read(TxnId(1), "effectors"));
    }

    #[test]
    fn relation_default_restricts_all_txns() {
        let mut a = Authorization::allow_all();
        a.set_relation_default("effectors", Right::Read);
        assert!(!a.can_modify(TxnId(1), "effectors"));
        assert!(a.can_read(TxnId(1), "effectors"));
        assert!(a.can_modify(TxnId(1), "cells"));
    }

    #[test]
    fn txn_grant_overrides_relation_default() {
        let mut a = Authorization::allow_all();
        a.set_relation_default("effectors", Right::Read);
        a.grant(TxnId(9), "effectors", Right::Update);
        assert!(a.can_modify(TxnId(9), "effectors"));
        assert!(!a.can_modify(TxnId(8), "effectors"));
    }

    #[test]
    fn deny_blocks_read_too() {
        let a = Authorization::allow_all();
        a.grant(TxnId(2), "cells", Right::Deny);
        assert!(!a.can_read(TxnId(2), "cells"));
        assert!(!a.can_modify(TxnId(2), "cells"));
    }

    #[test]
    fn retract_restores_defaults() {
        let mut a = Authorization::allow_all();
        a.set_relation_default("effectors", Right::Read);
        a.grant(TxnId(4), "effectors", Right::Update);
        assert!(a.can_modify(TxnId(4), "effectors"));
        a.retract(TxnId(4));
        assert!(!a.can_modify(TxnId(4), "effectors"));
        assert!(a.can_read(TxnId(4), "effectors"));
    }

    #[test]
    fn grants_work_through_shared_references() {
        use std::sync::Arc;
        let a = Arc::new(Authorization::allow_all().with_default(Right::Read));
        let b = Arc::clone(&a);
        b.grant(TxnId(3), "cells", Right::Update);
        assert!(a.can_modify(TxnId(3), "cells"));
        let c = (*a).clone();
        assert!(c.can_modify(TxnId(3), "cells"));
    }

    #[test]
    fn rights_are_ordered() {
        assert!(Right::Update > Right::Read);
        assert!(Right::Read > Right::Deny);
    }
}
