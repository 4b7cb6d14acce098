//! The v2 records are a compatibility contract too: the grant sets and
//! release-alls of [`fixed_stream`] — over the v1 test's escape-heavy
//! resource names, beside a few v1 records — must write
//! `fixtures/journal_v2.txt` byte for byte, every line must be the generic
//! record codec of its fields plus a verifying CRC, and the text must
//! replay to what the stream left held.

use colock_lockmgr::persistent::CHECKPOINT_FLOOR;
use colock_lockmgr::LockMode::{self, *};
use colock_lockmgr::{Journal, JournalOp, JournalSink, TxnId};
use colock_testkit::codec;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("fixtures/journal_v2.txt");

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

type Held = BTreeMap<(u64, &'static str), LockMode>;

/// Grant sets by five owners (one of them twice, joining modes as the lock
/// manager does), a single-lock release, and release-alls; returns what
/// the stream leaves held.
fn fixed_stream(j: &Journal<String>) -> Held {
    let mut held = Held::new();
    let mut grant_set = |owner: u64, pick: &dyn Fn(usize) -> Option<LockMode>| {
        let set: Vec<(String, LockMode)> = (0..NAMES.len())
            .filter_map(|i| {
                let mode = pick(i)?;
                let joined = held.get(&(owner, NAMES[i])).map_or(mode, |h| h.join(mode));
                held.insert((owner, NAMES[i]), joined);
                Some((NAMES[i].to_string(), joined))
            })
            .collect();
        j.record_grant_set(TxnId(owner), &set).unwrap();
    };
    let owners = [1u64, 2, 3, 4, 90_000_000_007];
    for (k, &owner) in owners.iter().enumerate() {
        grant_set(owner, &|i| ((k + i) % 3 != 0).then_some(MODES[(k * 3 + i) % MODES.len()]));
    }
    grant_set(2, &|i| (i % 2 == 1).then_some(X));
    j.record(JournalOp::Release, TxnId(1), &NAMES[1].to_string(), IX).unwrap();
    held.remove(&(1, NAMES[1]));
    for owner in [3, 90_000_000_007] {
        j.record_release_all(TxnId(owner)).unwrap();
        held.retain(|&(o, _), _| o != owner);
    }
    held
}

#[test]
fn the_fixed_stream_writes_the_v2_text_byte_for_byte() {
    let j: Journal<String> = Journal::new();
    fixed_stream(&j);
    assert!(FIXTURE.len() < CHECKPOINT_FLOOR);
    assert_eq!(j.checkpoints(), 0);
    assert_eq!(j.contents(), FIXTURE);
}

#[test]
fn every_v2_line_is_the_generic_codec_of_its_fields() {
    let body = FIXTURE.strip_prefix("colock-journal v2\n").expect("v2 header");
    let mut ops = Vec::new();
    for line in body.lines() {
        let (payload, crc) = line.rsplit_once('\t').expect("a crc field");
        assert_eq!(format!("{:08x}", codec::crc32(payload.as_bytes())), crc, "{line}");
        let fields = codec::decode_record(payload).unwrap();
        assert_eq!(codec::encode_record(&fields), payload, "{line}");
        ops.push(fields[0].clone());
    }
    let count = |op: &str| ops.iter().filter(|o| *o == op).count();
    assert_eq!((count("grantset"), count("releaseall"), count("release")), (6, 2, 1));
}

#[test]
fn the_v2_fixture_replays_to_what_the_stream_left_held() {
    let held = fixed_stream(&Journal::new());
    let rec = Journal::<String>::replay(FIXTURE).unwrap();
    assert_eq!((rec.records, rec.dropped_tail), (9, 0));
    let mut got: Vec<(u64, String, LockMode)> =
        rec.entries.into_iter().map(|(r, t, m)| (t.0, r, m)).collect();
    got.sort();
    let want: Vec<(u64, String, LockMode)> =
        held.into_iter().map(|((t, r), m)| (t, r.to_string(), m)).collect();
    assert_eq!(got, want);
    assert_eq!(want.iter().filter(|e| e.0 == 2).count(), 7, "owner 2's two sets merged");
}
