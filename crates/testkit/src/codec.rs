//! A small hand-rolled, line-oriented encode/decode — the workspace's
//! replacement for `serde` where bytes actually hit a medium (the long-lock
//! journal in `colock-lockmgr`, trace lines in `colock-trace`).
//!
//! Format: one *record* per line; a record is tab-separated *fields*; a
//! field is escaped UTF-8 (`\\`, `\t`, `\n`, `\r` are backslash-escaped).
//! The format is trivially greppable, diffable and append-friendly, which
//! is all a crash-survivable journal needs.
//!
//! ```
//! use colock_testkit::codec::{decode_record, encode_record, FieldCodec};
//!
//! let line = encode_record(&["cells/c1".to_string(), 7u64.to_field(), "X".into()]);
//! let fields = decode_record(&line).unwrap();
//! assert_eq!(fields[0], "cells/c1");
//! assert_eq!(u64::from_field(&fields[1]).unwrap(), 7);
//! ```

use std::fmt::{self, Write as _};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A field could not be parsed as the requested type.
    BadField {
        /// The offending field text.
        field: String,
        /// The type it failed to parse as.
        expected: &'static str,
    },
    /// A backslash escape was malformed or dangling.
    BadEscape(String),
    /// A record had the wrong number of fields.
    BadArity {
        /// Fields found.
        got: usize,
        /// Fields required.
        want: usize,
    },
    /// A document header/trailer was missing or unrecognized.
    BadHeader(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadField { field, expected } => {
                write!(f, "field {field:?} is not a valid {expected}")
            }
            CodecError::BadEscape(s) => write!(f, "malformed escape in {s:?}"),
            CodecError::BadArity { got, want } => {
                write!(f, "record has {got} fields, expected {want}")
            }
            CodecError::BadHeader(s) => write!(f, "bad header: {s:?}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Escapes one field (backslash, tab, newline, carriage return).
pub fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    escape_into(field, &mut out);
    out
}

/// Appends the escaped form of `field` to `out` — [`escape`] without the
/// allocation, for encoders that build a whole record in one buffer.
pub fn escape_into(field: &str, out: &mut String) {
    let mut rest = field;
    while let Some(i) = rest.find(['\\', '\t', '\n', '\r']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Reverses [`escape`].
pub fn unescape(field: &str) -> Result<String, CodecError> {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return Err(CodecError::BadEscape(field.to_string())),
        }
    }
    Ok(out)
}

/// Encodes fields into one record line (no trailing newline).
pub fn encode_record<S: AsRef<str>>(fields: &[S]) -> String {
    fields
        .iter()
        .map(|f| escape(f.as_ref()))
        .collect::<Vec<_>>()
        .join("\t")
}

/// Decodes one record line back into its fields.
pub fn decode_record(line: &str) -> Result<Vec<String>, CodecError> {
    line.split('\t').map(unescape).collect()
}

/// Checks a decoded record for an exact field count.
pub fn expect_arity(fields: &[String], want: usize) -> Result<(), CodecError> {
    if fields.len() == want {
        Ok(())
    } else {
        Err(CodecError::BadArity { got: fields.len(), want })
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
/// the long-lock journal stamps on every record so torn or bit-rotted tails
/// are detected at replay rather than re-adopted as locks.
///
/// Slicing-by-8: eight bytes per step through eight tables, so a step is
/// eight independent lookups instead of a chain of eight dependent ones.
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][usize::from(c[4])]
            ^ T[2][usize::from(c[5])]
            ^ T[1][usize::from(c[6])]
            ^ T[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = T[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `T[0]` is the byte-at-a-time table; `T[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Types that encode to / decode from a single record field.
pub trait FieldCodec: Sized {
    /// The field text of this value (must survive [`escape`]/[`unescape`]).
    fn to_field(&self) -> String;
    /// Parses the field text back.
    fn from_field(field: &str) -> Result<Self, CodecError>;
    /// Appends the *escaped* field text to `out`: byte for byte
    /// `escape(&self.to_field())`. Hot encoders override it to skip the
    /// intermediate strings.
    fn write_field(&self, out: &mut String) {
        escape_into(&self.to_field(), out);
    }
}

impl FieldCodec for String {
    fn to_field(&self) -> String {
        self.clone()
    }
    fn write_field(&self, out: &mut String) {
        escape_into(self, out);
    }
    fn from_field(field: &str) -> Result<Self, CodecError> {
        Ok(field.to_string())
    }
}

macro_rules! impl_field_codec_parse {
    ($($t:ty => $name:literal),* $(,)?) => {$(
        impl FieldCodec for $t {
            fn to_field(&self) -> String {
                self.to_string()
            }
            fn from_field(field: &str) -> Result<Self, CodecError> {
                field.parse().map_err(|_| CodecError::BadField {
                    field: field.to_string(),
                    expected: $name,
                })
            }
            fn write_field(&self, out: &mut String) {
                // Digits, signs and `true`/`NaN`/`inf` need no escaping.
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

impl_field_codec_parse! {
    u8 => "u8", u16 => "u16", u32 => "u32", u64 => "u64", usize => "usize",
    i8 => "i8", i16 => "i16", i32 => "i32", i64 => "i64", isize => "isize",
    bool => "bool", f64 => "f64",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip_on_nasty_strings() {
        for s in ["", "plain", "a\tb", "a\nb\r", "back\\slash", "\\t literal", "mixed\t\\\n"] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "{s:?}");
        }
    }

    #[test]
    fn escape_into_maps_each_special_char() {
        // Reference: the char-by-char mapping the format defines.
        let reference = |s: &str| -> String {
            s.chars()
                .map(|c| match c {
                    '\\' => "\\\\".to_string(),
                    '\t' => "\\t".to_string(),
                    '\n' => "\\n".to_string(),
                    '\r' => "\\r".to_string(),
                    other => other.to_string(),
                })
                .collect()
        };
        for s in ["", "plain", "a\tb", "a\nb\r", "back\\slash", "\\t literal", "\u{fc}\t\u{df}\\"] {
            let mut out = String::from("prefix|");
            escape_into(s, &mut out);
            assert_eq!(out, format!("prefix|{}", reference(s)), "{s:?}");
        }
    }

    #[test]
    fn write_field_matches_escaped_to_field() {
        fn check<T: FieldCodec>(v: T) {
            let mut out = String::new();
            v.write_field(&mut out);
            assert_eq!(out, escape(&v.to_field()));
        }
        check("tab\there\\".to_string());
        check(u64::MAX);
        check(-42i64);
        check(true);
        check(f64::NAN);
    }

    #[test]
    fn record_roundtrip_preserves_field_boundaries() {
        let fields = vec!["a\tb".to_string(), "".to_string(), "c\\nd".to_string()];
        let line = encode_record(&fields);
        assert!(!line.contains('\n'));
        assert_eq!(decode_record(&line).unwrap(), fields);
    }

    #[test]
    fn dangling_escape_is_an_error() {
        assert!(matches!(unescape("oops\\"), Err(CodecError::BadEscape(_))));
        assert!(matches!(unescape("bad\\x"), Err(CodecError::BadEscape(_))));
    }

    #[test]
    fn numeric_fields_roundtrip() {
        assert_eq!(u64::from_field(&u64::MAX.to_field()).unwrap(), u64::MAX);
        assert_eq!(i64::from_field(&(-42i64).to_field()).unwrap(), -42);
        assert!(bool::from_field("true").unwrap());
        assert!(u64::from_field("not-a-number").is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Reference values for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Single-bit damage is detected.
        assert_ne!(crc32(b"grant\tcells/c1\t7\tX"), crc32(b"grant\tcells/c1\t7\tS"));
    }

    #[test]
    fn crc32_matches_the_bytewise_definition_at_every_alignment() {
        let bytewise = |bytes: &[u8]| {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                }
            }
            !crc
        };
        let data: Vec<u8> =
            (0u32..300).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), bytewise(&data[start..end]), "{start}..{end}");
            }
        }
    }

    #[test]
    fn arity_check() {
        let f = decode_record("a\tb").unwrap();
        assert!(expect_arity(&f, 2).is_ok());
        assert_eq!(expect_arity(&f, 3), Err(CodecError::BadArity { got: 2, want: 3 }));
    }
}
