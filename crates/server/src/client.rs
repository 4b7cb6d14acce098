//! A small blocking client over the wire protocol.
//!
//! This is the client the repo benchmark's `served_mix`, the loopback
//! tests and `colock_client` use: one [`Client`] per connection, one request in
//! flight at a time (the typed helpers like [`Client::get`] hide the
//! frame/record plumbing). It deliberately stays as thin as the protocol —
//! no retries, no pooling — so the harnesses above it control those knobs.

use crate::frame::{encode_frame, FrameError, FrameReader};
use crate::wire::{
    encode_target, encode_value, parse_txn_id, parse_value, BeginKind, ErrorCode, Request, Response,
    Role, WireError, PROTOCOL_VERSION,
};
use colock_core::{AccessMode, InstanceTarget};
use colock_lockmgr::TxnId;
use colock_nf2::Value;
use std::fmt;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure: transport, framing, or a server `ERR`.
#[derive(Debug)]
pub enum ClientError {
    /// Socket / connect failure.
    Io(std::io::Error),
    /// Framing failure (torn stream).
    Frame(FrameError),
    /// The response did not parse or was not the expected shape.
    Wire(WireError),
    /// The server answered `ERR`.
    Server {
        /// Error class.
        code: ErrorCode,
        /// Server message.
        message: String,
        /// Backoff hint, when the server gave one.
        backoff_ms: Option<u64>,
    },
    /// The server closed the connection mid-exchange.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message, .. } => write!(f, "server error {code}: {message}"),
            ClientError::Disconnected => f.write_str("server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server error code, when this is a server `ERR`.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Whether retrying the whole transaction makes sense (contention,
    /// admission refusal — not a caller bug).
    pub fn is_retryable(&self) -> bool {
        self.code().is_some_and(ErrorCode::is_retryable)
    }
}

/// Blocking connection to a colock server.
pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client").field("peer", &self.writer.peer_addr().ok()).finish()
    }
}

impl Client {
    /// Connects and performs the `HELLO` exchange.
    pub fn connect(
        addr: impl ToSocketAddrs,
        name: &str,
        role: Role,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        let mut client = Client { reader: FrameReader::new(stream), writer };
        client.request_ok(&Request::Hello {
            name: name.into(),
            version: PROTOCOL_VERSION,
            role,
        })?;
        Ok(client)
    }

    /// Sets the socket read timeout (for harnesses that must not hang).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.writer.write_all(encode_frame(&req.encode()).as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one response frame.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let payload = match self.reader.read_frame() {
            Ok(Some(p)) => p,
            Ok(None) => return Err(ClientError::Disconnected),
            Err(e) => return Err(ClientError::Frame(e)),
        };
        Response::parse(&payload).map_err(ClientError::Wire)
    }

    /// Sends a request and insists on a single `OK`, returning its fields.
    pub fn request_ok(&mut self, req: &Request) -> Result<Vec<String>, ClientError> {
        self.send(req)?;
        match self.recv()? {
            Response::Ok(fields) => Ok(fields),
            Response::Err { code, message, backoff_ms } => {
                Err(ClientError::Server { code, message, backoff_ms })
            }
            other => Err(ClientError::Wire(WireError::BadCommand(format!("{other:?}")))),
        }
    }

    /// Sends a streaming request and collects `EVENT`/`STAT` frames up to
    /// `END`.
    pub fn request_stream(&mut self, req: &Request) -> Result<Vec<Response>, ClientError> {
        self.send(req)?;
        let mut out = Vec::new();
        loop {
            match self.recv()? {
                Response::End(_) => return Ok(out),
                Response::Err { code, message, backoff_ms } => {
                    return Err(ClientError::Server { code, message, backoff_ms })
                }
                frame => out.push(frame),
            }
        }
    }

    /// `BEGIN`; returns the transaction id.
    pub fn begin(&mut self, kind: BeginKind) -> Result<TxnId, ClientError> {
        let fields = self.request_ok(&Request::Begin { kind })?;
        parse_txn_field(fields.first())
    }

    /// `RESUME <txn>`.
    pub fn resume(&mut self, txn: TxnId) -> Result<(), ClientError> {
        self.request_ok(&Request::Resume { txn }).map(|_| ())
    }

    /// `GET`; returns the decoded value.
    pub fn get(&mut self, target: &InstanceTarget) -> Result<Value, ClientError> {
        let fields = self.request_ok(&Request::Get { target: target.clone() })?;
        parse_value_field(fields.first())
    }

    /// `PUT` on an existing target.
    pub fn put(&mut self, target: &InstanceTarget, value: Value) -> Result<(), ClientError> {
        self.request_ok(&Request::Put { target: target.clone(), value }).map(|_| ())
    }

    /// `PUT` on a bare relation target: inserts and returns the new
    /// object's target text.
    pub fn insert(&mut self, relation: &str, value: Value) -> Result<String, ClientError> {
        let target = InstanceTarget::relation(relation);
        let fields = self.request_ok(&Request::Put { target, value })?;
        fields.into_iter().next().ok_or(ClientError::Disconnected)
    }

    /// `DEL`.
    pub fn del(&mut self, target: &InstanceTarget) -> Result<(), ClientError> {
        self.request_ok(&Request::Del { target: target.clone() }).map(|_| ())
    }

    /// `CHECKOUT`; returns the checked-out value.
    pub fn checkout(
        &mut self,
        target: &InstanceTarget,
        access: AccessMode,
    ) -> Result<Value, ClientError> {
        let fields = self.request_ok(&Request::Checkout { target: target.clone(), access })?;
        parse_value_field(fields.first())
    }

    /// `CHECKIN`.
    pub fn checkin(&mut self, target: &InstanceTarget, value: Value) -> Result<(), ClientError> {
        self.request_ok(&Request::Checkin { target: target.clone(), value }).map(|_| ())
    }

    /// `COMMIT`.
    pub fn commit(&mut self) -> Result<(), ClientError> {
        self.request_ok(&Request::Commit).map(|_| ())
    }

    /// `ABORT`.
    pub fn abort(&mut self) -> Result<(), ClientError> {
        self.request_ok(&Request::Abort).map(|_| ())
    }

    /// `EXPLAIN`; returns the rendered timeline lines.
    pub fn explain(&mut self) -> Result<Vec<String>, ClientError> {
        Ok(self
            .request_stream(&Request::Explain)?
            .into_iter()
            .filter_map(|f| match f {
                Response::Event(line) => Some(line),
                _ => None,
            })
            .collect())
    }

    /// `TRACE`; returns the raw event lines.
    pub fn trace(&mut self) -> Result<Vec<String>, ClientError> {
        Ok(self
            .request_stream(&Request::Trace)?
            .into_iter()
            .filter_map(|f| match f {
                Response::Event(line) => Some(line),
                _ => None,
            })
            .collect())
    }

    /// `STATS`; returns `(name, value)` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        Ok(self
            .request_stream(&Request::Stats)?
            .into_iter()
            .filter_map(|f| match f {
                Response::Stat { name, value } => Some((name, value)),
                _ => None,
            })
            .collect())
    }

    /// `QUIT` (best effort — the server may already be gone).
    pub fn quit(&mut self) {
        let _ = self.request_ok(&Request::Quit);
    }
}

fn parse_txn_field(field: Option<&String>) -> Result<TxnId, ClientError> {
    let text = field.ok_or(ClientError::Disconnected)?;
    parse_txn_id(text)
        .ok_or_else(|| ClientError::Wire(WireError::BadCommand(format!("bad txn id {text:?}"))))
}

fn parse_value_field(field: Option<&String>) -> Result<Value, ClientError> {
    let text = field.ok_or(ClientError::Disconnected)?;
    parse_value(text).map_err(ClientError::Wire)
}

/// Re-export so callers can build targets without importing `colock-core`.
pub use crate::wire::parse_target;

/// Convenience: encodes a target for display (mirrors [`parse_target`]).
pub fn target_text(target: &InstanceTarget) -> String {
    encode_target(target)
}

/// Convenience: encodes a value for display (mirrors
/// [`crate::wire::parse_value`]).
pub fn value_text(value: &Value) -> String {
    encode_value(value)
}
