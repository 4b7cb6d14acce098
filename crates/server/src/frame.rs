//! Length-prefixed framing (PROTOCOL.md §2).
//!
//! One frame is `<len> SP <payload> LF`: the payload's byte length in ASCII
//! decimal, one space, the payload, one newline. The payload is a
//! `colock-testkit` codec record (tab-separated, backslash-escaped fields),
//! which guarantees it never contains a raw newline — so the terminator
//! doubles as a cheap resynchronization check: a frame whose `len`th payload
//! byte is not followed by `\n` means the stream is torn and the connection
//! must be dropped.
//!
//! The explicit length prefix is what makes pipelining safe: a reader can
//! sit on a buffer holding three and a half requests and peel off exactly
//! three without guessing where records end.

use std::fmt;
use std::io::{self, Read};

/// Hard cap on payload bytes per frame. A `PUT` carrying a whole checked-out
/// cell stays far below this; anything larger is a protocol error
/// ([`FrameError::Oversized`]), not a buffering problem.
pub const FRAME_MAX: usize = 1 << 20;

/// Maximum digits in the length prefix (enough for [`FRAME_MAX`]).
const LEN_DIGITS_MAX: usize = 8;

/// Framing failure. Everything except [`FrameError::Io`] is fatal for the
/// connection: after a malformed prefix or a missing terminator there is no
/// reliable way to find the next frame boundary.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error. `WouldBlock`/`TimedOut` are retryable (the
    /// reader keeps any partial frame buffered); everything else is fatal.
    Io(io::Error),
    /// The length prefix is not `<digits> SP` (or is absurdly long).
    BadLength(String),
    /// The declared payload length exceeds [`FRAME_MAX`].
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes the frame still needed.
        missing: usize,
    },
    /// The byte after the payload is not `\n` — the declared length lied.
    BadTerminator,
    /// The payload is not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadLength(s) => write!(f, "malformed length prefix {s:?}"),
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {FRAME_MAX}-byte cap")
            }
            FrameError::Truncated { missing } => {
                write!(f, "stream ended mid-frame ({missing} bytes missing)")
            }
            FrameError::BadTerminator => f.write_str("frame not terminated by newline"),
            FrameError::NotUtf8 => f.write_str("frame payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Whether this error is a retryable read timeout rather than a torn
    /// stream (the session loop's idle tick).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

/// Encodes one payload as a wire frame: `<len> SP <payload> LF`.
///
/// ```
/// assert_eq!(colock_server::frame::encode_frame("HELLO"), "5 HELLO\n");
/// ```
pub fn encode_frame(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "codec records never contain raw newlines");
    format!("{} {}\n", payload.len(), payload)
}

/// Incremental frame reader over any byte stream.
///
/// Keeps its own buffer so a read timeout mid-frame loses nothing: the next
/// [`FrameReader::read_frame`] call resumes where the stream paused. Multiple
/// pipelined frames read in one syscall are handed out one at a time.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// The one buffer every socket read lands in before it is appended to
    /// `buf`; its length is the read size (small to exercise resumption in
    /// tests).
    chunk: Box<[u8]>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self::with_chunk(inner, 4096)
    }

    /// Wraps a byte stream with a custom read-chunk size (tests).
    pub fn with_chunk(inner: R, chunk: usize) -> Self {
        FrameReader { inner, buf: Vec::new(), chunk: vec![0u8; chunk.max(1)].into() }
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads the next complete frame's payload. `Ok(None)` is clean EOF (no
    /// partial frame pending). Retryable timeouts surface as
    /// [`FrameError::Io`] with the partial frame still buffered.
    pub fn read_frame(&mut self) -> Result<Option<String>, FrameError> {
        loop {
            if let Some(parsed) = self.try_parse()? {
                return Ok(Some(parsed));
            }
            match self.inner.read(&mut self.chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    // We know the frame is incomplete (try_parse said so).
                    return Err(FrameError::Truncated { missing: self.missing_bytes() });
                }
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Whether a partial frame is sitting in the buffer.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to peel one frame off the front of the buffer. `Ok(None)` means
    /// "need more bytes".
    fn try_parse(&mut self) -> Result<Option<String>, FrameError> {
        let Some((len, header)) = self.parse_prefix()? else {
            return Ok(None);
        };
        if len > FRAME_MAX {
            return Err(FrameError::Oversized { len });
        }
        let total = header + len + 1; // prefix + payload + '\n'
        if self.buf.len() < total {
            return Ok(None);
        }
        if self.buf[header + len] != b'\n' {
            return Err(FrameError::BadTerminator);
        }
        let payload = std::str::from_utf8(&self.buf[header..header + len])
            .map_err(|_| FrameError::NotUtf8)?
            .to_string();
        self.buf.drain(..total);
        Ok(Some(payload))
    }

    /// Parses `<digits> SP` at the buffer front. Returns `(len, header_len)`
    /// where `header_len` includes the space; `Ok(None)` means the prefix is
    /// not complete yet.
    fn parse_prefix(&self) -> Result<Option<(usize, usize)>, FrameError> {
        let mut digits = 0usize;
        for (i, b) in self.buf.iter().enumerate() {
            match b {
                b'0'..=b'9' => {
                    digits += 1;
                    if digits > LEN_DIGITS_MAX {
                        return Err(self.bad_length());
                    }
                }
                b' ' if digits > 0 => {
                    let text = std::str::from_utf8(&self.buf[..i]).expect("digits are ASCII");
                    let len =
                        text.parse::<usize>().map_err(|_| self.bad_length())?;
                    return Ok(Some((len, i + 1)));
                }
                _ => return Err(self.bad_length()),
            }
        }
        Ok(None)
    }

    fn bad_length(&self) -> FrameError {
        let upto = self.buf.len().min(24);
        FrameError::BadLength(String::from_utf8_lossy(&self.buf[..upto]).into_owned())
    }

    /// Bytes still missing from the currently buffered partial frame (best
    /// effort; 1 when even the prefix is incomplete).
    fn missing_bytes(&self) -> usize {
        match self.parse_prefix() {
            Ok(Some((len, header))) => (header + len + 1).saturating_sub(self.buf.len()),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(bytes: &[u8]) -> FrameReader<Cursor<Vec<u8>>> {
        FrameReader::new(Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn roundtrip_single_frame() {
        let f = encode_frame("BEGIN\tLONG");
        let mut r = reader(f.as_bytes());
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("BEGIN\tLONG"));
        assert!(r.read_frame().unwrap().is_none());
    }

    #[test]
    fn empty_payload_is_legal() {
        let mut r = reader(b"0 \n");
        assert_eq!(r.read_frame().unwrap().as_deref(), Some(""));
    }

    #[test]
    fn pipelined_frames_come_out_one_at_a_time() {
        let mut bytes = String::new();
        for p in ["GET\ta", "GET\tb", "COMMIT"] {
            bytes.push_str(&encode_frame(p));
        }
        let mut r = reader(bytes.as_bytes());
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("GET\ta"));
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("GET\tb"));
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("COMMIT"));
        assert!(r.read_frame().unwrap().is_none());
    }

    #[test]
    fn tiny_chunks_resume_mid_frame() {
        let f = encode_frame("HELLO\tloadgen\t1\tengineer");
        let mut r = FrameReader::with_chunk(Cursor::new(f.clone().into_bytes()), 1);
        assert_eq!(r.read_frame().unwrap().as_deref(), Some("HELLO\tloadgen\t1\tengineer"));
    }

    #[test]
    fn bad_prefixes_are_rejected() {
        for bad in ["x5 HELLO\n", " 5 HELLO\n", "5x HELLO\n", "-3 a\n", "999999999 x\n"] {
            let err = reader(bad.as_bytes()).read_frame().unwrap_err();
            assert!(matches!(err, FrameError::BadLength(_)), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn oversized_declared_length_is_refused_before_buffering() {
        let prefix = format!("{} ", FRAME_MAX + 1);
        let err = reader(prefix.as_bytes()).read_frame().unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
    }

    #[test]
    fn truncated_frame_is_detected_at_eof() {
        let err = reader(b"10 HELLO").read_frame().unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }), "{err}");
    }

    #[test]
    fn wrong_length_is_caught_by_the_terminator_check() {
        // Payload says 3 bytes but 5 were written before the newline.
        let err = reader(b"3 HELLO\n").read_frame().unwrap_err();
        assert!(matches!(err, FrameError::BadTerminator), "{err}");
    }

    #[test]
    fn non_utf8_payload_is_refused() {
        let mut bytes = b"2 ".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let err = reader(&bytes).read_frame().unwrap_err();
        assert!(matches!(err, FrameError::NotUtf8), "{err}");
    }
}
