//! The journal's on-medium format is a compatibility contract: a v1 text
//! written before checkpoints existed (`fixtures/journal_v1.txt`, produced
//! by [`fixed_stream`] with the `format!`/`join` encoder the one-buffer
//! encoder replaced) must replay to the same locks, and the same stream
//! must still produce that text's body byte for byte, now under a v2
//! header, while it stays below the checkpoint threshold.

use colock_lockmgr::persistent::CHECKPOINT_FLOOR;
use colock_lockmgr::LockMode::{self, *};
use colock_lockmgr::{Journal, JournalOp, JournalSink, TxnId};
use std::collections::HashMap;

const FIXTURE: &str = include_str!("fixtures/journal_v1.txt");

const NAMES: [&str; 8] = [
    "db:db1",
    "cells/c1",
    "lib/e\t2",
    "weird\\name\nline",
    "pct%2F/slash",
    "\u{fc}n\u{ef}code/\u{df}",
    "cr\rhere",
    "",
];
const MODES: [LockMode; 8] = [IS, IX, S, SIX, X, Member, Insert, Delete];

/// Grants, conversions (recording the join, as the lock manager does) and
/// releases by five owners over resource names that exercise every escape.
fn fixed_stream(j: &Journal<String>) {
    let mut held: HashMap<(u64, usize), LockMode> = HashMap::new();
    let mut record = |op: JournalOp, owner: u64, i: usize, mode: LockMode| {
        let mode = match op {
            JournalOp::Release => held.remove(&(owner, i)).expect("held"),
            _ => {
                let m = held.get(&(owner, i)).map_or(mode, |h| h.join(mode));
                held.insert((owner, i), m);
                m
            }
        };
        j.record(op, TxnId(owner), &NAMES[i].to_string(), mode).unwrap();
    };
    let owners = [1u64, 2, 3, 4, 90_000_000_007];
    for (k, &owner) in owners.iter().enumerate() {
        for i in 0..NAMES.len() {
            if (k + i) % 3 != 0 {
                record(JournalOp::Grant, owner, i, MODES[(k * 3 + i) % MODES.len()]);
            }
        }
    }
    for i in 0..NAMES.len() {
        if (1 + i) % 3 != 0 {
            record(JournalOp::Convert, 2, i, X);
        }
    }
    for i in (0..NAMES.len()).filter(|i| i % 2 == 0 && i % 3 != 0) {
        record(JournalOp::Release, 1, i, NL);
    }
    for i in (0..NAMES.len()).filter(|i| (2 + i) % 3 != 0) {
        record(JournalOp::Release, 3, i, NL);
    }
    record(JournalOp::Grant, 3, 1, S);
    record(JournalOp::Convert, 3, 1, IX);
}

#[test]
fn the_fixed_stream_still_writes_the_v1_text_byte_for_byte() {
    let j: Journal<String> = Journal::new();
    fixed_stream(&j);
    assert!(FIXTURE.len() < CHECKPOINT_FLOOR);
    assert_eq!(j.checkpoints(), 0);
    // A fresh journal's header is v2; the v1 records after it are the
    // fixture's body, byte for byte.
    assert_eq!(
        j.contents().strip_prefix("colock-journal v2\n"),
        FIXTURE.strip_prefix("colock-journal v1\n")
    );
    assert_eq!(j.bytes_appended() as usize, FIXTURE.len() - "colock-journal v1\n".len());
}

#[test]
fn the_v1_fixture_replays_to_the_same_locks() {
    let rec = Journal::<String>::replay(FIXTURE).unwrap();
    assert_eq!((rec.records, rec.dropped_tail), (42, 0));
    // Captured by replaying the fixture before checkpoints existed.
    let want: Vec<(&str, u64, LockMode)> = vec![
        ("\u{fc}n\u{ef}code/\u{df}", 1, Member),
        ("", 1, Delete),
        ("cells/c1", 1, IX),
        ("", 2, X),
        ("cells/c1", 2, X),
        ("cr\rhere", 2, X),
        ("db:db1", 2, X),
        ("pct%2F/slash", 2, X),
        ("weird\\name\nline", 2, X),
        ("cells/c1", 3, SIX),
        ("", 4, IS),
        ("pct%2F/slash", 4, Member),
        ("\u{fc}n\u{ef}code/\u{df}", 4, Insert),
        ("cells/c1", 4, S),
        ("lib/e\t2", 4, SIX),
        ("pct%2F/slash", 90_000_000_007, IS),
        ("cells/c1", 90_000_000_007, Member),
        ("weird\\name\nline", 90_000_000_007, Delete),
        ("cr\rhere", 90_000_000_007, S),
        ("", 90_000_000_007, SIX),
        ("db:db1", 90_000_000_007, X),
    ];
    let want: Vec<(String, TxnId, LockMode)> =
        want.into_iter().map(|(r, t, m)| (r.to_string(), TxnId(t), m)).collect();
    assert_eq!(rec.entries, want);

    // A journal opened over the fixture keeps those locks through a
    // checkpoint, and the checkpoint is a v2 text.
    let j: Journal<String> = Journal::over_medium(std::sync::Arc::new(
        std::sync::Mutex::new(FIXTURE.to_string()),
    ));
    let mut i = 0u64;
    while j.checkpoints() == 0 {
        let r = format!("churn{i}");
        j.record(JournalOp::Grant, TxnId(7), &r, S).unwrap();
        j.record(JournalOp::Release, TxnId(7), &r, S).unwrap();
        i += 1;
    }
    let text = j.contents();
    assert!(text.starts_with("colock-journal v2\n") && text.len() < FIXTURE.len());
    assert_eq!(Journal::<String>::replay(&text).unwrap().entries, want);
}
