//! Transaction identifiers.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A transaction identifier. Ids are totally ordered; a smaller id means an
/// *older* transaction (used for youngest-victim deadlock resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl colock_testkit::codec::FieldCodec for TxnId {
    fn to_field(&self) -> String {
        self.0.to_string()
    }

    fn write_field(&self, out: &mut String) {
        self.0.write_field(out);
    }

    fn from_field(field: &str) -> Result<Self, colock_testkit::codec::CodecError> {
        u64::from_field(field).map(TxnId)
    }
}

/// Monotonic generator for transaction ids.
#[derive(Debug, Default)]
pub struct TxnIdGen {
    next: AtomicU64,
}

impl TxnIdGen {
    /// Creates a generator starting at 1.
    pub fn new() -> Self {
        TxnIdGen { next: AtomicU64::new(1) }
    }

    /// Allocates the next id.
    pub fn next(&self) -> TxnId {
        TxnId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Raises the generator so it never re-issues `id` or anything below it.
    /// Recovery calls this with the highest surviving journal owner: a fresh
    /// post-crash `begin()` must not collide with a re-adopted transaction.
    pub fn ensure_above(&self, id: TxnId) {
        self.next.fetch_max(id.0 + 1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic() {
        let g = TxnIdGen::new();
        let a = g.next();
        let b = g.next();
        assert!(a < b);
        assert_eq!(a.to_string(), "T1");
    }

    #[test]
    fn ensure_above_skips_recovered_ids() {
        let g = TxnIdGen::new();
        g.ensure_above(TxnId(41));
        assert_eq!(g.next(), TxnId(42));
        // Lowering is a no-op.
        g.ensure_above(TxnId(5));
        assert_eq!(g.next(), TxnId(43));
    }
}
