//! The client of the serving layer.
//!
//! [`Client`] is one TCP connection speaking v2 frames: every request
//! carries a request id, many may be in flight, and replies are matched
//! back to their ids however the server ordered them ([`Client::submit`] /
//! [`Client::wait`] / [`Client::poll_reply`]). The blocking calls
//! ([`Client::call`], [`Client::request_raw`] and the typed helpers such as
//! [`Client::protect`]) submit one request and wait for its reply, the
//! simplest way to script the server from tests, benches or other
//! processes. v1 frames stay part of the protocol (`docs/PROTOCOL.md`);
//! a raw v1 requester writes them with [`crate::protocol::encode_frame`].

use crate::json;
use crate::protocol::{
    encode_frame, Command, FrameError, FrameReader, ReadStep, Request, Response,
    DEFAULT_MAX_FRAME_LEN,
};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Errors from a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing or reading failed.
    Io(io::Error),
    /// The response frame was unreadable.
    Frame(String),
    /// The server closed the connection before replying.
    ConnectionClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(m) => write!(f, "bad response frame: {m}"),
            ClientError::ConnectionClosed => write!(f, "the server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other.to_string()),
        }
    }
}

/// A connection to a serving-layer endpoint, speaking v2 frames.
///
/// [`submit`](Client::submit) writes a request and returns its id
/// immediately, so many requests can be in flight at once;
/// [`wait`](Client::wait) blocks until that id's reply arrives (parking any
/// other replies read along the way); [`poll_reply`](Client::poll_reply)
/// hands back *any* one ready reply within a timeout — the shape a
/// throughput driver wants. [`call`](Client::call) and the typed helpers
/// are `submit` then `wait`: one request, one blocking reply.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
    pending: usize,
    /// Replies read while waiting for a different id, parked by id.
    parked: BTreeMap<u64, Response>,
    /// The read timeout currently installed on the socket, so repeated
    /// polls with the same timeout skip the syscall.
    installed_timeout: Option<Duration>,
}

/// Another name for [`Client`], which callers that pipeline (such as the
/// `perfbench` harness) still use.
pub type PipelinedClient = Client;

impl Client {
    /// Connect to the server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            next_id: 0,
            pending: 0,
            parked: BTreeMap::new(),
            installed_timeout: None,
        })
    }

    /// Requests submitted whose replies have not been handed back yet.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Write one request frame and return the id its reply will carry.
    /// Does not wait for anything: call again to pipeline.
    pub fn submit(&mut self, request: &Request) -> Result<u64, ClientError> {
        self.submit_raw(&request.encode())
    }

    /// Write a raw payload as a v2 frame (the escape hatch for deliberately
    /// malformed requests) and return its request id.
    pub fn submit_raw(&mut self, payload: &[u8]) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stream.write_all(&encode_frame(Some(id), payload)?)?;
        self.pending = self.pending.saturating_add(1);
        Ok(id)
    }

    /// Block until the reply for `id` arrives. Replies for other ids read
    /// along the way are parked for their own `wait`/`poll_reply` calls. A
    /// reply frame without an id (the server's `oversized-frame` and
    /// `connection-limit` refusals, sent as v1 frames before it closes the
    /// connection) answers this call.
    pub fn wait(&mut self, id: u64) -> Result<Response, ClientError> {
        loop {
            if let Some(response) = self.parked.remove(&id) {
                self.pending = self.pending.saturating_sub(1);
                return Ok(response);
            }
            match self.read_reply(None)? {
                Some((Some(got), response)) => {
                    self.parked.insert(got, response);
                }
                Some((None, response)) => {
                    self.pending = self.pending.saturating_sub(1);
                    return Ok(response);
                }
                None => {}
            }
        }
    }

    /// Hand back any one ready reply, waiting up to `timeout` (which must
    /// be non-zero) for the wire. `Ok(None)` means nothing completed in
    /// time — in-flight requests stay in flight.
    pub fn poll_reply(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(u64, Response)>, ClientError> {
        if let Some(id) = self.parked.keys().next().copied() {
            if let Some(response) = self.parked.remove(&id) {
                self.pending = self.pending.saturating_sub(1);
                return Ok(Some((id, response)));
            }
        }
        match self.read_reply(Some(timeout))? {
            Some((Some(id), response)) => {
                self.pending = self.pending.saturating_sub(1);
                Ok(Some((id, response)))
            }
            Some((None, _)) => Err(ClientError::Frame("reply frame carries no request id".into())),
            None => Ok(None),
        }
    }

    /// Send a raw frame payload and read its reply. This is the escape
    /// hatch tests use to send deliberately malformed requests.
    pub fn request_raw(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        let id = self.submit_raw(payload)?;
        self.wait(id)
    }

    /// Send a request and read its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.request_raw(&request.encode())
    }

    /// `protect` a CSV table. On success the response carries the release id
    /// in `release` and the protected CSV as its body.
    pub fn protect(&mut self, table_csv: &str) -> Result<Response, ClientError> {
        self.call(&Request::new(Command::Protect).body(table_csv))
    }

    /// `protect` with an explicit binning mode.
    pub fn protect_mode(
        &mut self,
        table_csv: &str,
        per_attribute: bool,
    ) -> Result<Response, ClientError> {
        self.call(
            &Request::new(Command::Protect)
                .param("per-attribute", per_attribute.to_string())
                .body(table_csv),
        )
    }

    /// `protect-for` an original CSV table: create the release and return
    /// the fingerprinted copy for `recipient`.
    pub fn protect_for(
        &mut self,
        recipient: &str,
        table_csv: &str,
    ) -> Result<Response, ClientError> {
        self.call(&Request::new(Command::ProtectFor).param("recipient", recipient).body(table_csv))
    }

    /// `protect-for` against an existing release: fingerprint the released
    /// (binned) CSV for one more recipient.
    pub fn protect_for_release(
        &mut self,
        release: &str,
        recipient: &str,
        released_csv: &str,
    ) -> Result<Response, ClientError> {
        self.call(
            &Request::new(Command::ProtectFor)
                .param("release", release)
                .param("recipient", recipient)
                .body(released_csv),
        )
    }

    /// `list-recipients` registered for `release`.
    pub fn list_recipients(&mut self, release: &str) -> Result<Response, ClientError> {
        self.call(&Request::new(Command::ListRecipients).param("release", release))
    }

    /// `resolve-leaker`: rank the recipients of `release` against a leaked
    /// CSV table; the reply's `leaker` field names the best match.
    pub fn resolve_leaker(
        &mut self,
        release: &str,
        leaked_csv: &str,
    ) -> Result<Response, ClientError> {
        self.call(&Request::new(Command::ResolveLeaker).param("release", release).body(leaked_csv))
    }

    /// `detect` the mark of `release` in a suspect CSV table.
    pub fn detect(&mut self, release: &str, suspect_csv: &str) -> Result<Response, ClientError> {
        self.call(&Request::new(Command::Detect).param("release", release).body(suspect_csv))
    }

    /// `embed` the retained mark of `release` into an already-binned CSV.
    pub fn embed(&mut self, release: &str, binned_csv: &str) -> Result<Response, ClientError> {
        self.call(&Request::new(Command::Embed).param("release", release).body(binned_csv))
    }

    /// Run the ownership-dispute protocol over a disputed CSV table.
    pub fn resolve_ownership(
        &mut self,
        release: &str,
        disputed_csv: &str,
    ) -> Result<Response, ClientError> {
        self.call(
            &Request::new(Command::ResolveOwnership).param("release", release).body(disputed_csv),
        )
    }

    /// Liveness probe; the reply carries server statistics.
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.call(&Request::new(Command::Ping))
    }

    /// Read one reply frame and its request id (`None` on a v1 frame).
    /// `timeout: None` blocks until a frame or an error; `Some(t)` returns
    /// `Ok(None)` on a timeout tick, keeping any partial frame for the next
    /// call.
    fn read_reply(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<(Option<u64>, Response)>, ClientError> {
        if self.installed_timeout != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.installed_timeout = timeout;
        }
        loop {
            match self.reader.step(&mut self.stream, DEFAULT_MAX_FRAME_LEN) {
                Ok(ReadStep::Frame(frame)) => {
                    let response = Response::decode(&frame.payload)
                        .map_err(|e| ClientError::Frame(e.to_string()))?;
                    return Ok(Some((frame.request_id, response)));
                }
                Ok(ReadStep::Idle) => {
                    if timeout.is_some() {
                        return Ok(None);
                    }
                    // No timeout installed: Idle cannot normally occur; keep
                    // reading rather than spin up to the caller.
                }
                Ok(ReadStep::Eof) => return Err(ClientError::ConnectionClosed),
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Convenience accessors shared by tests and benches.
impl Response {
    /// The release id of a `protect` reply.
    pub fn release_id(&self) -> Option<String> {
        json::get_str(&self.json, "release")
    }

    /// A numeric field of the JSON report.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        json::get_f64(&self.json, key)
    }

    /// An integer field of the JSON report.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        json::get_u64(&self.json, key)
    }

    /// A boolean field of the JSON report.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        json::get_bool(&self.json, key)
    }

    /// A string field of the JSON report.
    pub fn str_field(&self, key: &str) -> Option<String> {
        json::get_str(&self.json, key)
    }

    /// A string-array field of the JSON report (e.g. `recipients`,
    /// `ranking`).
    pub fn str_array_field(&self, key: &str) -> Option<Vec<String>> {
        json::get_str_array(&self.json, key)
    }

    /// The error message of an error reply.
    pub fn message(&self) -> Option<String> {
        json::get_str(&self.json, "message")
    }
}
