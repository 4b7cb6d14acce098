//! Property tests for the wire codecs (PROTOCOL.md §2–§5): randomly
//! generated requests, responses, targets and values must survive
//! encode → frame → unframe → parse bit-exactly, under arbitrary read
//! chunking, and malformed bytes must be refused with a typed error.

use colock_core::InstanceTarget;
use colock_lockmgr::TxnId;
use colock_nf2::value::build;
use colock_nf2::{ObjectKey, Value};
use colock_server::frame::{encode_frame, FrameError, FrameReader, FRAME_MAX};
use colock_server::wire::{
    encode_target, encode_value, parse_target, parse_txn_id, parse_value, BeginKind, ErrorCode,
    Request, Response, Role, ALL_ERROR_CODES, PROTOCOL_VERSION,
};
use colock_testkit::Rng;
use std::io::Cursor;
use std::sync::Arc;

/// Name pool with every delimiter the codecs must escape.
const NAMES: &[&str] = &[
    "cells",
    "robots",
    "eff",
    "a b c",
    "with:colon",
    "per%cent",
    "sla/sh",
    "br[ack]ets",
    "pa(ren)s",
    "cur{ly}",
    "eq=comma,",
    "tab\tand\nnewline",
    "unicode-ü-λ",
];

fn rand_name(rng: &mut Rng) -> String {
    NAMES[rng.gen_range(0..NAMES.len())].to_string()
}

fn rand_key(rng: &mut Rng) -> ObjectKey {
    if rng.gen_range(0..2) == 0 {
        ObjectKey::Str(rand_name(rng))
    } else {
        ObjectKey::Int(rng.gen_range(0..2_000_000) as i64 - 1_000_000)
    }
}

fn rand_target(rng: &mut Rng) -> InstanceTarget {
    let mut t = InstanceTarget::object(rand_name(rng), rand_key(rng));
    for _ in 0..rng.gen_range(0..3) {
        if rng.gen_range(0..2) == 0 {
            t = t.attr(rand_name(rng));
        } else {
            t = t.elem(rand_name(rng), rand_key(rng));
        }
    }
    t
}

fn rand_value(rng: &mut Rng, depth: usize) -> Value {
    let pick = if depth == 0 { rng.gen_range(0..5) } else { rng.gen_range(0..8) };
    match pick {
        0 => Value::Str(rand_name(rng)),
        1 => Value::Int(rng.gen_range(0..2_000_000) as i64 - 1_000_000),
        2 => Value::Real(rng.gen_range(0..1_000_000) as f64 / 128.0),
        3 => Value::Bool(rng.gen_range(0..2) == 0),
        4 => Value::Ref(colock_nf2::ObjectRef { relation: rand_name(rng), key: rand_key(rng) }),
        5 => build::set((0..rng.gen_range(0..4)).map(|_| rand_value(rng, depth - 1)).collect()),
        6 => build::list((0..rng.gen_range(0..4)).map(|_| rand_value(rng, depth - 1)).collect()),
        _ => Value::Tuple(Arc::new(
            (0..rng.gen_range(0..4))
                .map(|_| (rand_name(rng).into(), rand_value(rng, depth - 1)))
                .collect(),
        )),
    }
}

fn rand_request(rng: &mut Rng) -> Request {
    match rng.gen_range(0..12) {
        0 => Request::Hello {
            name: rand_name(rng),
            version: PROTOCOL_VERSION,
            role: [Role::Reader, Role::Engineer, Role::Librarian][rng.gen_range(0..3)],
        },
        1 => Request::Begin {
            kind: [BeginKind::Short, BeginKind::Long, BeginKind::ReadOnly][rng.gen_range(0..3)],
        },
        2 => Request::Get { target: rand_target(rng) },
        3 => Request::Put { target: rand_target(rng), value: rand_value(rng, 2) },
        4 => Request::Del { target: rand_target(rng) },
        5 => Request::Checkout {
            target: rand_target(rng),
            access: [colock_core::AccessMode::Read, colock_core::AccessMode::Update]
                [rng.gen_range(0..2)],
        },
        6 => Request::Checkin { target: rand_target(rng), value: rand_value(rng, 2) },
        7 => Request::Commit,
        8 => Request::Abort,
        9 => Request::Resume { txn: TxnId(rng.gen_range(0..1_000_000) as u64) },
        10 => match rng.gen_range(0..3) {
            0 => Request::Explain,
            1 => Request::Trace,
            _ => Request::Stats,
        },
        _ => Request::Quit,
    }
}

#[test]
fn random_targets_roundtrip() {
    let mut rng = Rng::seed_from_u64(11);
    for _ in 0..2000 {
        let t = rand_target(&mut rng);
        let text = encode_target(&t);
        assert_eq!(parse_target(&text).expect(&text), t, "{text}");
    }
}

/// A run of percent escapes is UTF-8 bytes, not one Latin-1 char each;
/// escapes that are not UTF-8 are refused, and ASCII escapes are unchanged.
#[test]
fn percent_escapes_decode_as_utf8_bytes() {
    let key = |text: &str| parse_target(text).unwrap().object;
    assert_eq!(key("rel:cells/obj:caf%C3%A9"), Some(ObjectKey::Str("café".into())));
    assert_eq!(key("rel:cells/obj:caf\u{e9}"), Some(ObjectKey::Str("café".into())));
    assert_eq!(key("rel:cells/obj:a%2Fb%25c%3A"), Some(ObjectKey::Str("a/b%c:".into())));
    for bad in ["rel:cells/obj:%FF", "rel:cells/obj:caf%C3", "rel:cells/obj:%C3%28"] {
        let err = parse_target(bad).expect_err(bad);
        assert!(err.to_string().contains("not UTF-8"), "{bad}: {err}");
    }
    assert_eq!(parse_value("s:caf%C3%A9").unwrap(), Value::str("café"));
    assert!(parse_value("s:%FF").is_err());
}

/// An escape is exactly two uppercase hex digits: a sign is not a digit, a
/// multi-byte character after one digit is a bad escape, not a dangling one,
/// and lowercase hex, which the encoder never writes, is refused
/// (PROTOCOL.md §5). Every uppercase escape decodes.
#[test]
fn percent_escapes_take_two_hex_digits_only() {
    for bad in ["%+1", "%+F", "%-1", "%a\u{e9}", "%\u{e9}", "x%g0"] {
        let text = format!("rel:cells/obj:{bad}");
        let err = parse_target(&text).expect_err(&text);
        assert!(err.to_string().contains("bad percent escape"), "{text}: {err}");
        assert!(parse_value(&format!("s:{bad}")).is_err(), "{bad}");
    }
    for dangling in ["%", "%a", "ab%F"] {
        let text = format!("rel:cells/obj:{dangling}");
        let err = parse_target(&text).expect_err(&text);
        assert!(err.to_string().contains("dangling"), "{text}: {err}");
    }
    let key = |text: &str| parse_target(&format!("rel:cells/obj:{text}")).unwrap().object;
    for byte in 0..=0x7fu8 {
        let want = Some(ObjectKey::Str(char::from(byte).to_string()));
        assert_eq!(key(&format!("%{byte:02X}")), want);
    }
}

/// `%5E` is `^`; its lowercase spelling `%5e` is not an escape the protocol
/// has, in a target or in a value.
#[test]
fn lowercase_percent_escapes_are_refused() {
    assert_eq!(
        parse_target("rel:cells/obj:%5E").unwrap().object,
        Some(ObjectKey::Str("^".into()))
    );
    for bad in ["%5e", "%2f", "%c3%a9", "%C3%a9"] {
        let text = format!("rel:cells/obj:{bad}");
        let err = parse_target(&text).expect_err(&text);
        assert!(err.to_string().contains("bad percent escape"), "{text}: {err}");
        assert!(parse_value(&format!("s:{bad}")).is_err(), "{bad}");
    }
}

/// `RESUME` takes a transaction id with at most one `T` (PROTOCOL.md §3),
/// and so does the client reading `OK T<txnid>`: `T17` and `17` are T17.
#[test]
fn a_txn_id_has_at_most_one_t() {
    assert_eq!(parse_txn_id("T17"), Some(TxnId(17)));
    assert_eq!(parse_txn_id("17"), Some(TxnId(17)));
    for bad in ["TT17", "t17", "+17", "T+17", "T", "", "T1 7", "T-1", "T18446744073709551616"] {
        assert_eq!(parse_txn_id(bad), None, "{bad:?}");
    }
    assert_eq!(Request::parse("RESUME\tT17").unwrap(), Request::Resume { txn: TxnId(17) });
    assert_eq!(Request::parse("RESUME\t17").unwrap(), Request::Resume { txn: TxnId(17) });
    let err = Request::parse("RESUME\tTT17").unwrap_err();
    assert!(err.to_string().contains("bad txn id"), "{err}");
}

#[test]
fn random_values_roundtrip() {
    let mut rng = Rng::seed_from_u64(13);
    for _ in 0..2000 {
        let v = rand_value(&mut rng, 3);
        let text = encode_value(&v);
        assert_eq!(parse_value(&text).expect(&text), v, "{text}");
    }
}

#[test]
fn random_requests_roundtrip_through_frames() {
    let mut rng = Rng::seed_from_u64(17);
    for round in 0..400 {
        // A pipelined batch of requests in one byte stream, read back with a
        // random chunk size (1 = byte-at-a-time resumption).
        let batch: Vec<Request> = (0..rng.gen_range(1..6)).map(|_| rand_request(&mut rng)).collect();
        let mut bytes = String::new();
        for req in &batch {
            bytes.push_str(&encode_frame(&req.encode()));
        }
        let chunk = rng.gen_range(1..64);
        let mut reader = FrameReader::with_chunk(Cursor::new(bytes.into_bytes()), chunk);
        for req in &batch {
            let payload = reader.read_frame().expect("frame").expect("payload");
            assert_eq!(&Request::parse(&payload).expect(&payload), req, "round {round}");
        }
        assert!(reader.read_frame().expect("eof").is_none());
    }
}

#[test]
fn every_error_code_roundtrips_in_responses() {
    for code in ALL_ERROR_CODES {
        let resp = Response::Err {
            code: *code,
            message: format!("demo {code}"),
            backoff_ms: if code == &ErrorCode::Busy { Some(25) } else { None },
        };
        let payload = resp.encode();
        assert_eq!(Response::parse(&payload).unwrap(), resp, "{payload}");
    }
}

#[test]
fn malformed_length_prefixes_are_refused() {
    for bad in [
        "x5 HELLO\n",
        " 5 HELLO\n",
        "5x HELLO\n",
        "+5 HELLO\n",
        "-5 HELLO\n",
        "0x5 HELLO\n",
        "123456789 HELLO\n", // too many digits
        "\n",
        " \n",
    ] {
        let mut r = FrameReader::new(Cursor::new(bad.as_bytes().to_vec()));
        let err = r.read_frame().unwrap_err();
        assert!(matches!(err, FrameError::BadLength(_)), "{bad:?} -> {err}");
    }
}

#[test]
fn truncated_frames_are_refused() {
    for bad in ["5", "5 ", "5 HE", "5 HELL"] {
        let mut r = FrameReader::new(Cursor::new(bad.as_bytes().to_vec()));
        let err = r.read_frame().unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }), "{bad:?} -> {err}");
    }
}

#[test]
fn lying_lengths_are_caught_by_the_terminator() {
    // Shorter and longer than the actual payload, respectively.
    for bad in ["3 HELLO\n", "7 HELLO\nX"] {
        let mut r = FrameReader::new(Cursor::new(bad.as_bytes().to_vec()));
        assert!(r.read_frame().is_err(), "{bad:?} should not parse");
    }
}

#[test]
fn oversized_frames_are_refused_from_the_prefix_alone() {
    let bad = format!("{} x\n", FRAME_MAX + 1);
    let mut r = FrameReader::new(Cursor::new(bad.into_bytes()));
    let err = r.read_frame().unwrap_err();
    assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
}

#[test]
fn interleaved_partial_reads_keep_frame_boundaries() {
    // Two frames split at every possible byte boundary: the reader must
    // produce the same two payloads regardless of where the split lands.
    let stream = format!("{}{}", encode_frame("GET\trel:cells"), encode_frame("COMMIT"));
    for split in 1..stream.len() {
        let first = &stream[..split];
        let second = &stream[split..];
        let joined: Vec<u8> = first.bytes().chain(second.bytes()).collect();
        let mut r = FrameReader::with_chunk(Cursor::new(joined), split.max(1));
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("GET\trel:cells"), "split {split}");
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("COMMIT"), "split {split}");
        assert!(r.read_frame().unwrap().is_none());
    }
}

#[test]
fn random_garbage_never_panics_the_parsers() {
    let mut rng = Rng::seed_from_u64(23);
    for _ in 0..3000 {
        let len = rng.gen_range(0..40);
        let garbage: String = (0..len).map(|_| char::from(rng.gen_range(0x20u8..0x7f))).collect();
        // Any result is fine; panics are not.
        let _ = Request::parse(&garbage);
        let _ = Response::parse(&garbage);
        let _ = parse_target(&garbage);
        let _ = parse_value(&garbage);
    }
}
