//! Lock modes and the multi-granularity compatibility/supremum matrices.
//!
//! The paper uses the System R modes (§3.1): **IS** and **IX** grant the right
//! to lock a descendant in S/X; **S** and **X** lock a subtree for shared or
//! exclusive use. We additionally provide **SIX** (= S + IX), the standard
//! supremum of S and IX from \[GLPT76\], so that lock conversions have a least
//! upper bound, and **NL** as the neutral element.
//!
//! # Semantic commutativity modes (DESIGN.md §13)
//!
//! On set- and list-valued HoLUs the classical lattice over-serializes:
//! two transactions inserting *distinct* elements into the same set commute,
//! yet whole-container X locks force them into a queue. Following the
//! operation-commutativity derivation of *Semantic Lock* we refine the intent
//! modes for containers:
//!
//! * **Member** — membership probe / single-element read intent. Conflict row
//!   identical to IS (container-level conflicts only with X).
//! * **Insert** — single-element insert intent. Conflict row identical to IX:
//!   compatible with every intent (two Inserts commute at container level)
//!   but not with whole-container S/SIX/X readers, which keeps phantom
//!   protection intact.
//! * **Delete** — single-element delete intent; same row as Insert.
//!
//! Element-key conflicts (Insert vs Member of the *same* element) are not
//! encoded in the container mode — they materialize as classical S/X locks on
//! the element sub-resource underneath, exactly like rule 1–4 descend.
//! Because the semantic rows equal the IS/IX rows, the summary-word classes
//! and the optimistic fast path generalize: Member rides the IS lane,
//! Insert/Delete the IX lane (see [`LockMode::fastpath_lane`]).

use std::fmt;

/// Multi-granularity lock modes ordered by increasing strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockMode {
    /// No lock (neutral element; never stored in the table).
    NL,
    /// Intention share: intends S/IS locks further down.
    IS,
    /// Semantic membership intent on a set/list HoLU: intends an S lock on
    /// one element. Conflict row = IS.
    Member,
    /// Semantic insert intent on a set/list HoLU: intends an X lock on one
    /// *new* element. Conflict row = IX; two Inserts commute.
    Insert,
    /// Semantic delete intent on a set/list HoLU: intends an X lock on one
    /// existing element. Conflict row = IX.
    Delete,
    /// Intention exclusive: intends any lock further down.
    IX,
    /// Share: the subtree may be read; implicitly S-locks all descendants.
    S,
    /// Share + intention exclusive.
    SIX,
    /// Exclusive: the subtree may be read and written.
    X,
}

impl LockMode {
    /// All real modes (excluding NL), weakest first.
    pub const ALL: [LockMode; 8] = [
        LockMode::IS,
        LockMode::Member,
        LockMode::Insert,
        LockMode::Delete,
        LockMode::IX,
        LockMode::S,
        LockMode::SIX,
        LockMode::X,
    ];

    /// Compatibility matrix: \[GLPT76\] extended by the semantic rows.
    /// Symmetric. `MB`/`IN`/`DL` share the IS/IX/IX rows respectively.
    ///
    /// ```text
    ///        IS   MB   IN   DL   IX   S    SIX  X
    ///   IS   +    +    +    +    +    +    +    -
    ///   MB   +    +    +    +    +    +    +    -
    ///   IN   +    +    +    +    +    -    -    -
    ///   DL   +    +    +    +    +    -    -    -
    ///   IX   +    +    +    +    +    -    -    -
    ///   S    +    +    -    -    -    +    -    -
    ///   SIX  +    +    -    -    -    -    -    -
    ///   X    -    -    -    -    -    -    -    -
    /// ```
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (NL, _) | (_, NL) => true,
            // The read-intent row (IS and Member): everything but X.
            (IS | Member, X) | (X, IS | Member) => false,
            (IS | Member, _) | (_, IS | Member) => true,
            // The write-intent row (IX, Insert, Delete): intents only.
            (IX | Insert | Delete, IX | Insert | Delete) => true,
            (IX | Insert | Delete, _) | (_, IX | Insert | Delete) => false,
            (S, S) => true,
            (S, _) | (_, S) => false,
            _ => false, // SIX/X vs SIX/X
        }
    }

    /// Least upper bound in the mode lattice (used for lock conversion).
    ///
    /// Hasse diagram of the enlarged lattice:
    ///
    /// ```text
    ///                X
    ///                |
    ///               SIX
    ///              /   \
    ///             S     IX
    ///              \   / | \
    ///              Member Insert Delete
    ///                 \   |   /
    ///                    IS
    ///                    |
    ///                    NL
    /// ```
    ///
    /// (Member sits below both S and IX; Insert and Delete below IX only —
    /// mixing any two distinct write intents, or Member with a write intent,
    /// joins to IX; `join(IX, S) = SIX` as in \[GLPT76\].)
    pub fn join(self, other: LockMode) -> LockMode {
        use LockMode::*;
        match (self, other) {
            (NL, m) | (m, NL) => m,
            (IS, m) | (m, IS) => m,
            (X, _) | (_, X) => X,
            (SIX, _) | (_, SIX) => SIX,
            // S absorbs Member, joins any write intent to SIX.
            (S, S) | (S, Member) | (Member, S) => S,
            (S, _) | (_, S) => SIX,
            // IX absorbs every semantic intent.
            (IX, _) | (_, IX) => IX,
            (Member, Member) => Member,
            (Insert, Insert) => Insert,
            (Delete, Delete) => Delete,
            // Distinct semantic intents escalate to the classical IX.
            (Member | Insert | Delete, Member | Insert | Delete) => IX,
        }
    }

    /// `true` iff `self` grants at least the rights of `needed`
    /// (lattice order; e.g. X covers S, SIX covers IX, every mode covers NL).
    pub fn covers(self, needed: LockMode) -> bool {
        self.join(needed) == self
    }

    /// Whether this is a pure intention mode (locks nothing itself). The
    /// semantic container modes are refined intents: they grant element
    /// rights below, never access to the container value itself.
    pub fn is_intent(self) -> bool {
        matches!(
            self,
            LockMode::IS | LockMode::IX | LockMode::Member | LockMode::Insert | LockMode::Delete
        )
    }

    /// Whether this is one of the semantic commutativity modes.
    pub fn is_semantic(self) -> bool {
        matches!(self, LockMode::Member | LockMode::Insert | LockMode::Delete)
    }

    /// Whether this mode allows reading the locked subtree itself.
    pub fn allows_read(self) -> bool {
        matches!(self, LockMode::S | LockMode::SIX | LockMode::X)
    }

    /// Whether this mode allows writing the locked subtree itself.
    pub fn allows_write(self) -> bool {
        matches!(self, LockMode::X)
    }

    /// The intention mode required on ancestors before requesting `self`
    /// (protocol rules 1–4: S/IS need IS on parents, X/IX need IX; the
    /// semantic modes inherit the requirement of the classical row they
    /// refine — Member needs IS above, Insert/Delete need IX).
    pub fn required_parent_intent(self) -> LockMode {
        match self {
            LockMode::NL => LockMode::NL,
            LockMode::IS | LockMode::S | LockMode::Member => LockMode::IS,
            LockMode::IX
            | LockMode::SIX
            | LockMode::X
            | LockMode::Insert
            | LockMode::Delete => LockMode::IX,
        }
    }

    /// Whether holding `self` on an ancestor satisfies a protocol requirement
    /// for `required` intent there, *without a conversion*. This is coverage
    /// plus the semantic refinement: Insert/Delete conflict exactly like IX,
    /// so a descendant element-X under a container held in Insert needs no
    /// upgrade of the container to IX (which would serialize the inserters
    /// the semantic mode exists to keep parallel). Member covers IS outright.
    pub fn satisfies_parent_intent(self, required: LockMode) -> bool {
        self.covers(required)
            || (required == LockMode::IX
                && matches!(self, LockMode::Insert | LockMode::Delete))
    }

    /// Whether grants in this mode are counted in the *share class* of the
    /// lock table's mode-summary words: S and SIX — the modes whose presence
    /// excludes optimistic IX publication but still admits IS.
    pub fn is_share_class(self) -> bool {
        matches!(self, LockMode::S | LockMode::SIX)
    }

    /// Whether grants in this mode are counted in the *exclusive class* of
    /// the summary words: X alone — its presence excludes every optimistic
    /// intent. Intent modes belong to neither class (two intents never
    /// conflict), which is what makes the optimistic fast path sound.
    pub fn is_exclusive_class(self) -> bool {
        matches!(self, LockMode::X)
    }

    /// The classical intent whose optimistic fast-path lane this mode
    /// publishes on: Member rides the IS (read-intent) lane, Insert/Delete
    /// the IX (write-intent) lane — sound because each lane's modes are
    /// mutually compatible and share one conflict row. `None` for
    /// non-intent modes (they never take the fast path).
    pub fn fastpath_lane(self) -> Option<LockMode> {
        match self {
            LockMode::IS | LockMode::Member => Some(LockMode::IS),
            LockMode::IX | LockMode::Insert | LockMode::Delete => Some(LockMode::IX),
            _ => None,
        }
    }

    /// The mode a descendant is *implicitly* locked in when an ancestor holds
    /// `self` on the same path: S and SIX imply S below; X implies X below.
    /// Intents (classical and semantic) imply nothing.
    pub fn implicit_descendant(self) -> LockMode {
        match self {
            LockMode::S | LockMode::SIX => LockMode::S,
            LockMode::X => LockMode::X,
            _ => LockMode::NL,
        }
    }
}

impl LockMode {
    /// The mode's short name — its `Display` text and its persisted field.
    pub(crate) fn name(self) -> &'static str {
        match self {
            LockMode::NL => "NL",
            LockMode::IS => "IS",
            LockMode::IX => "IX",
            LockMode::S => "S",
            LockMode::SIX => "SIX",
            LockMode::X => "X",
            LockMode::Member => "MB",
            LockMode::Insert => "IN",
            LockMode::Delete => "DL",
        }
    }

    /// Inverse of the `Display` name — the one parser of a mode field, for
    /// the journal and the trace checkers alike; `None` for unknown names.
    ///
    /// ```
    /// use colock_lockmgr::LockMode;
    /// assert_eq!(LockMode::parse("SIX"), Some(LockMode::SIX));
    /// assert_eq!(LockMode::parse("MB"), Some(LockMode::Member));
    /// assert_eq!(LockMode::parse("Q"), None);
    /// ```
    pub fn parse(name: &str) -> Option<LockMode> {
        std::iter::once(LockMode::NL).chain(LockMode::ALL).find(|m| m.name() == name)
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl colock_testkit::codec::FieldCodec for LockMode {
    fn to_field(&self) -> String {
        self.to_string()
    }

    fn write_field(&self, out: &mut String) {
        out.push_str(self.name());
    }

    fn from_field(field: &str) -> Result<Self, colock_testkit::codec::CodecError> {
        LockMode::parse(field).ok_or_else(|| colock_testkit::codec::CodecError::BadField {
            field: field.to_string(),
            expected: "LockMode",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::LockMode::*;
    use super::*;

    const MATRIX: [(LockMode, LockMode, bool); 36] = [
        (IS, IS, true),
        (IS, Member, true),
        (IS, Insert, true),
        (IS, Delete, true),
        (IS, IX, true),
        (IS, S, true),
        (IS, SIX, true),
        (IS, X, false),
        (Member, Member, true),
        (Member, Insert, true),
        (Member, Delete, true),
        (Member, IX, true),
        (Member, S, true),
        (Member, SIX, true),
        (Member, X, false),
        (Insert, Insert, true),
        (Insert, Delete, true),
        (Insert, IX, true),
        (Insert, S, false),
        (Insert, SIX, false),
        (Insert, X, false),
        (Delete, Delete, true),
        (Delete, IX, true),
        (Delete, S, false),
        (Delete, SIX, false),
        (Delete, X, false),
        (IX, IX, true),
        (IX, S, false),
        (IX, SIX, false),
        (IX, X, false),
        (S, S, true),
        (S, SIX, false),
        (S, X, false),
        (SIX, SIX, false),
        (SIX, X, false),
        (X, X, false),
    ];

    #[test]
    fn compatibility_matches_glpt76_plus_semantic_rows() {
        for &(a, b, want) in &MATRIX {
            assert_eq!(a.compatible(b), want, "{a} vs {b}");
            assert_eq!(b.compatible(a), want, "symmetry {b} vs {a}");
        }
        // The test table is exhaustive over the upper triangle.
        assert_eq!(MATRIX.len(), LockMode::ALL.len() * (LockMode::ALL.len() + 1) / 2);
    }

    #[test]
    fn semantic_rows_equal_their_classical_rows() {
        // The soundness argument for the fast-path lanes and the summary
        // classes rests on exactly this: Member conflicts like IS,
        // Insert/Delete conflict like IX.
        for m in LockMode::ALL {
            assert_eq!(Member.compatible(m), IS.compatible(m), "MB vs {m}");
            assert_eq!(Insert.compatible(m), IX.compatible(m), "IN vs {m}");
            assert_eq!(Delete.compatible(m), IX.compatible(m), "DL vs {m}");
        }
    }

    #[test]
    fn nl_is_compatible_with_everything() {
        for m in LockMode::ALL {
            assert!(NL.compatible(m));
            assert!(m.compatible(NL));
        }
    }

    fn all_with_nl() -> Vec<LockMode> {
        let mut v = vec![NL];
        v.extend(LockMode::ALL);
        v
    }

    #[test]
    fn join_is_commutative_idempotent_with_nl_identity() {
        let all = all_with_nl();
        for &a in &all {
            assert_eq!(a.join(NL), a);
            assert_eq!(a.join(a), a);
            for &b in &all {
                assert_eq!(a.join(b), b.join(a), "{a} join {b}");
            }
        }
    }

    #[test]
    fn join_is_associative() {
        let all = all_with_nl();
        for &a in &all {
            for &b in &all {
                for &c in &all {
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)), "({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn join_of_s_and_ix_is_six() {
        assert_eq!(S.join(IX), SIX);
        assert_eq!(IX.join(S), SIX);
    }

    #[test]
    fn semantic_joins_follow_the_hasse_diagram() {
        assert_eq!(Member.join(Insert), IX);
        assert_eq!(Insert.join(Delete), IX);
        assert_eq!(Member.join(Delete), IX);
        assert_eq!(Member.join(S), S);
        assert_eq!(Member.join(IX), IX);
        assert_eq!(Insert.join(IX), IX);
        assert_eq!(Insert.join(S), SIX);
        assert_eq!(Delete.join(S), SIX);
        assert_eq!(Insert.join(IS), Insert);
        assert_eq!(Member.join(IS), Member);
        assert_eq!(Delete.join(SIX), SIX);
        assert_eq!(Member.join(X), X);
    }

    #[test]
    fn covers_is_lattice_order() {
        assert!(X.covers(S) && X.covers(IX) && X.covers(SIX) && X.covers(IS));
        assert!(SIX.covers(S) && SIX.covers(IX) && SIX.covers(IS));
        assert!(!S.covers(IX) && !IX.covers(S));
        assert!(S.covers(IS) && IX.covers(IS));
        // Semantic modes sit between IS and S/IX.
        assert!(Member.covers(IS) && Insert.covers(IS) && Delete.covers(IS));
        assert!(S.covers(Member) && IX.covers(Member));
        assert!(IX.covers(Insert) && IX.covers(Delete));
        assert!(!Insert.covers(Member) && !Member.covers(Insert));
        assert!(!Insert.covers(Delete) && !Delete.covers(Insert));
        assert!(!S.covers(Insert) && !Member.covers(S));
        for m in LockMode::ALL {
            assert!(m.covers(NL) && m.covers(m));
        }
    }

    #[test]
    fn stronger_mode_conflicts_with_superset_of_weaker() {
        // monotonicity: for all c: b covers a and b compatible c => a
        // compatible c (strength only removes compatibility).
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                if b.covers(a) {
                    for c in LockMode::ALL {
                        if b.compatible(c) {
                            assert!(a.compatible(c), "{a} <= {b} but {a} !~ {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parent_intents_follow_protocol_rules() {
        assert_eq!(S.required_parent_intent(), IS);
        assert_eq!(IS.required_parent_intent(), IS);
        assert_eq!(Member.required_parent_intent(), IS);
        assert_eq!(X.required_parent_intent(), IX);
        assert_eq!(IX.required_parent_intent(), IX);
        assert_eq!(SIX.required_parent_intent(), IX);
        assert_eq!(Insert.required_parent_intent(), IX);
        assert_eq!(Delete.required_parent_intent(), IX);
    }

    #[test]
    fn parent_intent_is_monotone() {
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                if b.covers(a) {
                    assert!(
                        b.required_parent_intent().covers(a.required_parent_intent()),
                        "{a} <= {b} but intents not ordered"
                    );
                }
            }
        }
    }

    #[test]
    fn satisfies_parent_intent_refines_covers() {
        // Coverage always satisfies…
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                if a.covers(b) {
                    assert!(a.satisfies_parent_intent(b), "{a} covers {b}");
                }
            }
        }
        // …and the only extra admissions are the write intents standing in
        // for IX (their conflict row is IX's row, so no third transaction
        // can distinguish them from a real IX holder).
        assert!(Insert.satisfies_parent_intent(IX));
        assert!(Delete.satisfies_parent_intent(IX));
        assert!(Member.satisfies_parent_intent(IS));
        assert!(!Member.satisfies_parent_intent(IX));
        assert!(!Insert.satisfies_parent_intent(S));
        assert!(!IS.satisfies_parent_intent(IX));
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                if a.satisfies_parent_intent(b) && !a.covers(b) {
                    assert!(matches!(a, Insert | Delete) && b == IX, "{a} for {b}");
                }
            }
        }
    }

    #[test]
    fn implicit_descendant_modes() {
        assert_eq!(S.implicit_descendant(), S);
        assert_eq!(SIX.implicit_descendant(), S);
        assert_eq!(X.implicit_descendant(), X);
        assert_eq!(IX.implicit_descendant(), NL);
        assert_eq!(IS.implicit_descendant(), NL);
        assert_eq!(Member.implicit_descendant(), NL);
        assert_eq!(Insert.implicit_descendant(), NL);
        assert_eq!(Delete.implicit_descendant(), NL);
    }

    #[test]
    fn summary_classes_agree_with_the_matrix() {
        // The summary word admits an optimistic intent iff the compatibility
        // matrix does: the IS lane conflicts exactly with the exclusive
        // class, the IX lane with both classes. Derived, so a matrix change
        // cannot silently break the fast path's admission test.
        for m in LockMode::ALL {
            assert_eq!(IS.compatible(m), !m.is_exclusive_class(), "IS vs {m}");
            assert_eq!(
                IX.compatible(m),
                !m.is_exclusive_class() && !m.is_share_class(),
                "IX vs {m}"
            );
        }
        // Every lane member conflicts exactly like its lane's classical row.
        for m in LockMode::ALL {
            if let Some(lane) = m.fastpath_lane() {
                for o in LockMode::ALL {
                    assert_eq!(m.compatible(o), lane.compatible(o), "{m} lane {lane} vs {o}");
                }
            }
        }
        // The two classes partition the non-intent modes.
        for m in LockMode::ALL {
            assert_eq!(m.is_share_class() || m.is_exclusive_class(), !m.is_intent());
            assert!(!(m.is_share_class() && m.is_exclusive_class()));
        }
    }

    #[test]
    fn fastpath_lanes_cover_exactly_the_intents() {
        for m in LockMode::ALL {
            assert_eq!(m.fastpath_lane().is_some(), m.is_intent(), "{m}");
        }
        assert_eq!(Member.fastpath_lane(), Some(IS));
        assert_eq!(Insert.fastpath_lane(), Some(IX));
        assert_eq!(Delete.fastpath_lane(), Some(IX));
        assert_eq!(IS.fastpath_lane(), Some(IS));
        assert_eq!(IX.fastpath_lane(), Some(IX));
    }

    #[test]
    fn read_write_predicates() {
        assert!(S.allows_read() && !S.allows_write());
        assert!(X.allows_read() && X.allows_write());
        assert!(SIX.allows_read() && !SIX.allows_write());
        assert!(!IS.allows_read() && !IX.allows_read());
        assert!(IS.is_intent() && IX.is_intent() && !S.is_intent() && !SIX.is_intent());
        // Semantic modes are intents: no access to the container itself.
        for m in [Member, Insert, Delete] {
            assert!(m.is_intent() && m.is_semantic());
            assert!(!m.allows_read() && !m.allows_write());
        }
        assert!(!IS.is_semantic() && !IX.is_semantic() && !X.is_semantic());
    }

    #[test]
    fn codec_roundtrips_all_modes() {
        use colock_testkit::codec::FieldCodec;
        let mut all = vec![NL];
        all.extend(LockMode::ALL);
        for m in all {
            assert_eq!(LockMode::from_field(&m.to_field()).unwrap(), m);
            let mut written = String::new();
            m.write_field(&mut written);
            assert_eq!(written, m.to_field());
        }
        assert!(LockMode::from_field("QQ").is_err());
    }
}
