//! The length-framed wire protocol of the serving layer.
//!
//! The normative specification of everything below — frame layout,
//! request-id semantics, pipelining and ordering rules, backpressure, the
//! command and error-code catalogue — is `docs/PROTOCOL.md`; this module is
//! its reference implementation.
//!
//! Every message — request or response — travels as one **frame**: a 4-byte
//! big-endian prefix followed by the frame's contents. Frames keep the
//! stream self-synchronizing (a reader always knows where the next message
//! starts) and let the server reject oversized submissions *before*
//! buffering them. Two frame encodings share the stream, distinguished by
//! the prefix's most-significant bit:
//!
//! * **v1** (bit clear): the low 31 bits are the payload length, and the
//!   payload follows directly. A v1 requester must keep at most one request
//!   in flight per connection — replies carry no correlation id.
//! * **v2** (bit set): the low 31 bits are the payload length, and an
//!   8-byte big-endian **request id** sits between the prefix and the
//!   payload. A v2 client may pipeline many requests on one connection; the
//!   server echoes each request's id on its reply frame, and replies may
//!   arrive **out of order**.
//!
//! A request payload is UTF-8 text: one header line, then the body.
//!
//! ```text
//! protect per-attribute=true\n
//! ssn,age,zip_code,doctor,symptom,prescription\n
//! 000-00-0001,34,10301,...\n
//! ```
//!
//! The header names the command (`protect`, `protect-for`, `embed`,
//! `detect`, `list-recipients`, `resolve-ownership`, `resolve-leaker`,
//! `ping`) plus space-separated `key=value` parameters;
//! the body — everything after the first newline — is a CSV table in the
//! exact format the rest of the framework reads and writes.
//!
//! A response payload mirrors the shape: one line of JSON (the report — see
//! [`crate::json`]), then an optional CSV body (the protected release for
//! `protect`/`embed`). The JSON always carries `"status":"ok"` or
//! `"status":"error"` with a machine-readable `"code"` from [`ErrorCode`] —
//! malformed input yields a structured reply, never a dropped connection.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// Upper bound accepted for a frame payload unless the server configures its
/// own (16 MiB — roughly a 100k-row CSV submission).
// medlint::allow(checked-framing, const arithmetic is evaluated and overflow-checked at compile time)
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The protocol version this implementation speaks. Reported by `ping` as
/// `"protocol"` so clients can negotiate before pipelining.
pub const PROTOCOL_VERSION: u64 = 2;

/// The most-significant bit of the 4-byte frame prefix: set on v2 frames,
/// which carry an 8-byte request id between the prefix and the payload.
pub const V2_FLAG: u32 = 1 << 31;

/// The largest payload length encodable in a frame prefix (the low 31
/// bits). [`DEFAULT_MAX_FRAME_LEN`] is far below this; the bound matters
/// only for servers configured with an enormous `max_frame_len`.
// medlint::allow(checked-framing, const arithmetic is evaluated and overflow-checked at compile time)
pub const MAX_ENCODABLE_LEN: u32 = V2_FLAG - 1;

/// The commands a request header can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Bin + watermark the CSV body; the server retains the release state
    /// and replies with a release id, the embedding report and the release
    /// CSV.
    Protect,
    /// Fingerprint a copy for `recipient=<name>`. Without `release=<id>`,
    /// bins the CSV body into a new release first; with it, fingerprints a
    /// further copy of the stored release from the original CSV body. The
    /// recipient's mark is derived from the owner key (recipient name as
    /// derivation label), registered durably, and embedded; the reply
    /// carries the release id, the embedding report and the recipient's
    /// copy.
    ProtectFor,
    /// Re-embed the retained mark of `release=<id>` into the (already
    /// binned) CSV body; replies with the embedding report and the marked
    /// CSV.
    Embed,
    /// Detect the mark of `release=<id>` in the (possibly attacked) CSV
    /// body; replies with the detection report and the mark loss.
    Detect,
    /// List the registered recipients of `release=<id>`; replies with the
    /// recipient names in registration order.
    ListRecipients,
    /// Run the §5.4 dispute protocol for `release=<id>` over the CSV body;
    /// replies with the court's verdict.
    ResolveOwnership,
    /// Trace the leaker of `release=<id>`: detect the fingerprint bits in
    /// the (possibly attacked) CSV body and rank the release's recipients
    /// by agreement; replies with the ranking and the top match. An
    /// optional `suspects=<a,b,...>` restricts the candidate set.
    ResolveLeaker,
    /// Liveness probe; replies with server statistics.
    Ping,
    /// Hold a worker for `ms=<n>` milliseconds. Only honored when the server
    /// was built with `debug_hooks` (integration tests use it to fill the
    /// queue deterministically); otherwise an unknown command.
    Sleep,
    /// Panic inside the handler — with `poison=store`, while holding the
    /// release-store lock. Only honored when the server was built with
    /// `debug_hooks` (integration tests use it to prove one panicking
    /// worker cannot cascade into poisoned-mutex failures on unrelated
    /// connections); otherwise an unknown command.
    Panic,
}

impl Command {
    /// The header spelling of the command.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Protect => "protect",
            Command::ProtectFor => "protect-for",
            Command::Embed => "embed",
            Command::Detect => "detect",
            Command::ListRecipients => "list-recipients",
            Command::ResolveOwnership => "resolve-ownership",
            Command::ResolveLeaker => "resolve-leaker",
            Command::Ping => "ping",
            Command::Sleep => "sleep",
            Command::Panic => "panic",
        }
    }

    fn parse(name: &str) -> Option<Command> {
        Some(match name {
            "protect" => Command::Protect,
            "protect-for" => Command::ProtectFor,
            "embed" => Command::Embed,
            "detect" => Command::Detect,
            "list-recipients" => Command::ListRecipients,
            "resolve-ownership" => Command::ResolveOwnership,
            "resolve-leaker" => Command::ResolveLeaker,
            "ping" => Command::Ping,
            "sleep" => Command::Sleep,
            "panic" => Command::Panic,
            _ => return None,
        })
    }
}

/// A parsed request: command, `key=value` parameters, CSV body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The command named by the header line.
    pub command: Command,
    /// The header's `key=value` parameters.
    pub params: BTreeMap<String, String>,
    /// The body (a CSV table for the data-carrying commands; may be empty).
    pub body: String,
}

impl Request {
    /// A request with no parameters and no body.
    pub fn new(command: Command) -> Request {
        Request { command, params: BTreeMap::new(), body: String::new() }
    }

    /// Add a `key=value` parameter. Keys and values must not contain spaces
    /// or newlines (they live on the header line).
    pub fn param(mut self, key: &str, value: impl Into<String>) -> Request {
        self.params.insert(key.to_string(), value.into());
        self
    }

    /// Attach a CSV body.
    pub fn body(mut self, body: impl Into<String>) -> Request {
        self.body = body.into();
        self
    }

    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut header = self.command.name().to_string();
        for (k, v) in &self.params {
            header.push(' ');
            header.push_str(k);
            header.push('=');
            header.push_str(v);
        }
        header.push('\n');
        let mut out = header.into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// Parse a frame payload into a request.
    pub fn parse(payload: &[u8]) -> Result<Request, RequestError> {
        Request::from_payload(payload.to_vec())
    }

    /// Parse an owned frame payload into a request whose body is the
    /// payload's own buffer: the header line is cut off its front, so a
    /// large CSV body is never copied into a second allocation.
    pub(crate) fn from_payload(payload: Vec<u8>) -> Result<Request, RequestError> {
        let mut text = String::from_utf8(payload).map_err(|_| RequestError::NotUtf8)?;
        // The header line and its newline; the body is the rest.
        let header_end = text.find('\n').map_or(text.len(), |newline| newline.saturating_add(1));
        let mut words = text.get(..header_end).unwrap_or_default().split_whitespace();
        let name = words.next().ok_or(RequestError::EmptyHeader)?;
        let command =
            Command::parse(name).ok_or_else(|| RequestError::UnknownCommand(name.to_string()))?;
        let mut params = BTreeMap::new();
        for word in words {
            let (k, v) = word
                .split_once('=')
                .ok_or_else(|| RequestError::MalformedParameter(word.to_string()))?;
            params.insert(k.to_string(), v.to_string());
        }
        text.drain(..header_end);
        Ok(Request { command, params, body: text })
    }
}

/// Why a request payload could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The payload is not UTF-8.
    NotUtf8,
    /// The header line is empty.
    EmptyHeader,
    /// The header names no known command.
    UnknownCommand(String),
    /// A header word is not `key=value`.
    MalformedParameter(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::NotUtf8 => write!(f, "request payload is not UTF-8"),
            RequestError::EmptyHeader => write!(f, "request header line is empty"),
            RequestError::UnknownCommand(c) => write!(f, "unknown command: {c}"),
            RequestError::MalformedParameter(w) => {
                write!(f, "header word is not key=value: {w}")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Machine-readable error codes carried in `"code"` of an error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request payload could not be parsed (not UTF-8, empty header,
    /// malformed parameter).
    BadRequest,
    /// The header named no known command.
    UnknownCommand,
    /// The frame announced a payload larger than the server accepts.
    OversizedFrame,
    /// The server is at its configured connection limit and refused this
    /// connection; retry later or against another endpoint.
    ConnectionLimit,
    /// The CSV body could not be parsed.
    MalformedCsv,
    /// The bounded request queue is full; retry later.
    QueueFull,
    /// The request waited in the queue past its deadline.
    Timeout,
    /// A required parameter is missing or unparsable.
    MissingParameter,
    /// The named release id is not in the server's store.
    UnknownRelease,
    /// The named release carries no ownership proof, so the §5.4 dispute
    /// protocol cannot run (protect with `mark-from-statistic` enabled).
    NoOwnershipProof,
    /// The named release has no registered recipients, so there is no
    /// candidate set for `resolve-leaker` to rank.
    NoRecipients,
    /// A named recipient (e.g. in `suspects=`) is not registered for the
    /// release.
    UnknownRecipient,
    /// The protection engine rejected the submission.
    Engine,
    /// The durable release store could not persist or sync the release, or
    /// a stored record did not read back with a valid checksum.
    Storage,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownCommand => "unknown-command",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::ConnectionLimit => "connection-limit",
            ErrorCode::MalformedCsv => "malformed-csv",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::Timeout => "timeout",
            ErrorCode::MissingParameter => "missing-parameter",
            ErrorCode::UnknownRelease => "unknown-release",
            ErrorCode::NoOwnershipProof => "no-ownership-proof",
            ErrorCode::NoRecipients => "no-recipients",
            ErrorCode::UnknownRecipient => "unknown-recipient",
            ErrorCode::Engine => "engine",
            ErrorCode::Storage => "storage",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }
}

/// A decoded response: the JSON report line plus the optional CSV body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The JSON report (first line of the payload).
    pub json: String,
    /// The CSV body, when the command returns a table.
    pub body: Option<String>,
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.json.clone().into_bytes();
        out.push(b'\n');
        if let Some(body) = &self.body {
            out.extend_from_slice(body.as_bytes());
        }
        out
    }

    /// Append this response to `out` as one frame, with the v2 prefix when
    /// `request_id` is present: the bytes of
    /// `encode_frame(request_id, &self.encode())`, written straight into
    /// `out` without building the payload or the frame first. Errs, leaving
    /// `out` as it was, when the payload exceeds the 31-bit frame bound.
    pub(crate) fn encode_frame_into(
        &self,
        request_id: Option<u64>,
        out: &mut Vec<u8>,
    ) -> io::Result<()> {
        let body = self.body.as_deref().unwrap_or_default();
        let payload_len = self.json.len().checked_add(1).and_then(|l| l.checked_add(body.len()));
        write_frame_prefix(out, request_id, payload_len)?;
        out.extend_from_slice(self.json.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(body.as_bytes());
        Ok(())
    }

    /// Decode a frame payload (header line = JSON, rest = body).
    pub fn decode(payload: &[u8]) -> Result<Response, RequestError> {
        let text = std::str::from_utf8(payload).map_err(|_| RequestError::NotUtf8)?;
        let (json, body) = match text.split_once('\n') {
            Some((j, b)) => (j.to_string(), (!b.is_empty()).then(|| b.to_string())),
            None => (text.to_string(), None),
        };
        Ok(Response { json, body })
    }

    /// True when the report carries `"status":"ok"`.
    pub fn is_ok(&self) -> bool {
        crate::json::get_str(&self.json, "status").as_deref() == Some("ok")
    }

    /// The error code of an error reply.
    pub fn code(&self) -> Option<String> {
        crate::json::get_str(&self.json, "code")
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer announced a payload longer than `max_len`.
    Oversized {
        /// The announced payload length.
        len: usize,
        /// The reader's limit.
        max: usize,
    },
    /// The stream ended mid-frame.
    Truncated,
    /// An I/O error other than a read timeout.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated => write!(f, "stream ended in the middle of a frame"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: the payload plus the request id when the frame used
/// the v2 encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The 8-byte request id of a v2 frame; `None` for a v1 frame.
    pub request_id: Option<u64>,
    /// The frame payload.
    pub payload: Vec<u8>,
}

/// Write one v1 frame (length prefix + payload, no request id).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(None, payload)?)?;
    w.flush()
}

/// Write one v2 frame (length prefix with [`V2_FLAG`], 8-byte request id,
/// payload).
pub fn write_frame_v2(w: &mut impl Write, request_id: u64, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(Some(request_id), payload)?)?;
    w.flush()
}

/// Encode a frame into one contiguous buffer — the prefix (with the v2 flag
/// when a request id is present), the id, the payload. The server's I/O
/// core appends these to per-connection write buffers; clients write them
/// straight to the socket.
pub fn encode_frame(request_id: Option<u64>, payload: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(payload.len().saturating_add(12));
    write_frame_prefix(&mut out, request_id, Some(payload.len()))?;
    out.extend_from_slice(payload);
    Ok(out)
}

/// Append the prefix of a frame whose payload is `payload_len` bytes (`None`
/// when that length overflowed): the length, with the v2 flag and the id
/// when a request id is present. Errs, appending nothing, past the 31-bit
/// bound.
fn write_frame_prefix(
    out: &mut Vec<u8>,
    request_id: Option<u64>,
    payload_len: Option<usize>,
) -> io::Result<()> {
    let len = payload_len
        .and_then(|l| u32::try_from(l).ok())
        .filter(|&l| l <= MAX_ENCODABLE_LEN)
        .ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds 31-bit length")
    })?;
    match request_id {
        None => out.extend_from_slice(&len.to_be_bytes()),
        Some(id) => {
            out.extend_from_slice(&(len | V2_FLAG).to_be_bytes());
            out.extend_from_slice(&id.to_be_bytes());
        }
    }
    Ok(())
}

/// One step of the incremental frame reader.
#[derive(Debug)]
pub enum ReadStep {
    /// A complete frame.
    Frame(Frame),
    /// The peer closed the stream cleanly (EOF between frames).
    Eof,
    /// A read timeout (or `WouldBlock` on a non-blocking stream) fired with
    /// the frame still incomplete; the partial state is kept — call `step`
    /// again.
    Idle,
}

/// An incremental frame reader that survives read timeouts and non-blocking
/// sockets.
///
/// The server's I/O core owns non-blocking sockets, so any read can return
/// `WouldBlock` after *part* of a frame arrived. The reader keeps the
/// partial prefix/id/payload across calls so no bytes are lost and the
/// stream never desynchronizes. It decodes both frame encodings: a prefix
/// with [`V2_FLAG`] set is followed by an 8-byte request id.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_read: usize,
    id: [u8; 8],
    id_read: usize,
    in_id: bool,
    request_id: Option<u64>,
    payload: Vec<u8>,
    payload_read: usize,
    in_payload: bool,
}

impl FrameReader {
    /// A reader with no partial state.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// True when no frame is partially read (safe to stop reading).
    pub fn is_clean(&self) -> bool {
        self.header_read == 0 && !self.in_id && !self.in_payload
    }

    /// Decode the completed 4-byte prefix: enforce the length limit, then
    /// move to the id (v2) or payload (v1) phase.
    fn begin_body(&mut self, max_len: usize) -> Result<(), FrameError> {
        let word = u32::from_be_bytes(self.header);
        let v2 = word & V2_FLAG != 0;
        let len = usize::try_from(word & MAX_ENCODABLE_LEN)
            .map_err(|_| FrameError::Oversized { len: usize::MAX, max: max_len })?;
        if len > max_len {
            return Err(FrameError::Oversized { len, max: max_len });
        }
        self.payload = vec![0; len];
        self.payload_read = 0;
        self.request_id = None;
        if v2 {
            self.in_id = true;
            self.id_read = 0;
        } else {
            self.in_payload = true;
        }
        Ok(())
    }

    /// Read until a frame completes, EOF, or a read timeout.
    pub fn step(&mut self, r: &mut impl Read, max_len: usize) -> Result<ReadStep, FrameError> {
        loop {
            if self.header_read < 4 && !self.in_id && !self.in_payload {
                // medlint::allow(no-panic, header_read < 4 by the branch condition)
                match r.read(&mut self.header[self.header_read..]) {
                    Ok(0) => {
                        return if self.header_read == 0 {
                            Ok(ReadStep::Eof)
                        } else {
                            Err(FrameError::Truncated)
                        };
                    }
                    Ok(n) => {
                        self.header_read = self.header_read.saturating_add(n);
                        if self.header_read == 4 {
                            self.begin_body(max_len)?;
                        }
                    }
                    Err(e) if is_timeout(&e) => return Ok(ReadStep::Idle),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(FrameError::Io(e)),
                }
            } else if self.in_id {
                debug_assert!(self.id_read < 8);
                // medlint::allow(no-panic, id_read < 8 whenever in_id is set)
                match r.read(&mut self.id[self.id_read..]) {
                    Ok(0) => return Err(FrameError::Truncated),
                    Ok(n) => {
                        self.id_read = self.id_read.saturating_add(n);
                        if self.id_read == 8 {
                            self.request_id = Some(u64::from_be_bytes(self.id));
                            self.in_id = false;
                            self.in_payload = true;
                        }
                    }
                    Err(e) if is_timeout(&e) => return Ok(ReadStep::Idle),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(FrameError::Io(e)),
                }
            } else if self.payload_read == self.payload.len() {
                let payload = std::mem::take(&mut self.payload);
                let request_id = self.request_id;
                *self = FrameReader::new();
                return Ok(ReadStep::Frame(Frame { request_id, payload }));
            } else {
                // medlint::allow(no-panic, payload_read < payload.len() by the branch condition above)
                match r.read(&mut self.payload[self.payload_read..]) {
                    Ok(0) => return Err(FrameError::Truncated),
                    Ok(n) => self.payload_read = self.payload_read.saturating_add(n),
                    Err(e) if is_timeout(&e) => return Ok(ReadStep::Idle),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(FrameError::Io(e)),
                }
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Read one frame from a blocking stream (no timeout installed).
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<Frame>, FrameError> {
    let mut reader = FrameReader::new();
    loop {
        match reader.step(r, max_len)? {
            ReadStep::Frame(frame) => return Ok(Some(frame)),
            ReadStep::Eof => return Ok(None),
            // Without a read timeout installed `Idle` cannot occur, but a
            // caller that installed one anyway just keeps waiting.
            ReadStep::Idle => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::new(Command::Detect).param("release", "r3").body("ssn,age\n1,2\n");
        let parsed = Request::parse(&req.encode()).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.params["release"], "r3");
        assert_eq!(parsed.body, "ssn,age\n1,2\n");
    }

    #[test]
    fn the_body_is_everything_after_the_first_newline() {
        assert_eq!(Request::from_payload(b"ping".to_vec()), Ok(Request::new(Command::Ping)));
        let request = Request::from_payload(b"protect  k=5 \n\nrow\n".to_vec()).unwrap();
        assert_eq!(request, Request::new(Command::Protect).param("k", "5").body("\nrow\n"));
    }

    #[test]
    fn responses_encode_into_a_buffer_as_encode_frame_gives_them() {
        let responses = [
            Response { json: "{\"status\":\"ok\"}".into(), body: Some("a,b\n1,2\n".into()) },
            Response { json: "{\"status\":\"error\"}".into(), body: None },
            Response { json: String::new(), body: Some(String::new()) },
        ];
        for request_id in [None, Some(0), Some(42), Some(u64::MAX)] {
            let mut out = b"earlier frames".to_vec();
            let mut expected = out.clone();
            for response in &responses {
                response.encode_frame_into(request_id, &mut out).unwrap();
                expected.extend(encode_frame(request_id, &response.encode()).unwrap());
            }
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn request_parse_rejects_garbage() {
        assert_eq!(Request::parse(&[0xff, 0xfe]), Err(RequestError::NotUtf8));
        assert_eq!(Request::parse(b""), Err(RequestError::EmptyHeader));
        assert_eq!(Request::parse(b"  \nbody"), Err(RequestError::EmptyHeader));
        assert_eq!(
            Request::parse(b"nuke everything\n"),
            Err(RequestError::UnknownCommand("nuke".to_string()))
        );
        assert_eq!(
            Request::parse(b"detect releaser3\n"),
            Err(RequestError::MalformedParameter("releaser3".to_string()))
        );
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response { json: "{\"status\":\"ok\"}".into(), body: Some("a,b\n1,2\n".into()) };
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded, resp);
        assert!(decoded.is_ok());
        let bare =
            Response { json: "{\"status\":\"error\",\"code\":\"timeout\"}".into(), body: None };
        let decoded = Response::decode(&bare.encode()).unwrap();
        assert_eq!(decoded.body, None);
        assert_eq!(decoded.code().as_deref(), Some("timeout"));
    }

    #[test]
    fn frames_roundtrip_and_enforce_the_limit() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let frame = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(frame, Frame { request_id: None, payload: b"hello".to_vec() });
        let frame = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(frame, Frame { request_id: None, payload: Vec::new() });
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());

        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 100]).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, 64) {
            Err(FrameError::Oversized { len: 100, max: 64 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn v2_frames_carry_request_ids_and_mix_with_v1() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 7, b"first").unwrap();
        write_frame(&mut buf, b"legacy").unwrap();
        write_frame_v2(&mut buf, u64::MAX, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let frame = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(frame, Frame { request_id: Some(7), payload: b"first".to_vec() });
        let frame = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(frame, Frame { request_id: None, payload: b"legacy".to_vec() });
        let frame = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(frame, Frame { request_id: Some(u64::MAX), payload: Vec::new() });
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn v2_oversized_frames_are_detected_with_the_id_still_readable() {
        // The length limit is enforced from the prefix alone, before the
        // payload is buffered; the id bytes were not yet consumed, so the
        // reader reports the announced length faithfully.
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 42, &[7u8; 100]).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, 64) {
            Err(FrameError::Oversized { len: 100, max: 64 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn v2_truncated_id_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 42, b"payload").unwrap();
        buf.truncate(8); // prefix + half the id
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor, 1024), Err(FrameError::Truncated)));
    }

    #[test]
    fn encode_frame_rejects_payloads_beyond_the_31_bit_bound() {
        // Can't allocate 2 GiB in a unit test; rely on the length check
        // rejecting a fake oversized slice via the u32 conversion path by
        // checking the boundary constant instead.
        assert_eq!(MAX_ENCODABLE_LEN, 0x7fff_ffff);
        assert!(encode_frame(Some(1), b"ok").is_ok());
    }

    #[test]
    fn truncated_streams_are_errors_not_hangs() {
        // Header cut short.
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut cursor, 1024), Err(FrameError::Truncated)));
        // Payload cut short.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor, 1024), Err(FrameError::Truncated)));
    }

    #[test]
    fn frame_reader_survives_split_reads() {
        // Feed the frame one byte at a time through a reader that returns
        // WouldBlock between bytes, as a timeout-polled socket would.
        struct Trickle {
            data: Vec<u8>,
            at: usize,
            ready: bool,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.at >= self.data.len() {
                    return Ok(0);
                }
                if !self.ready {
                    self.ready = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
                }
                self.ready = false;
                buf[0] = self.data[self.at];
                self.at += 1;
                Ok(1)
            }
        }
        let mut framed = Vec::new();
        write_frame(&mut framed, b"split me").unwrap();
        let mut trickle = Trickle { data: framed, at: 0, ready: false };
        let mut reader = FrameReader::new();
        let mut idles = 0;
        loop {
            match reader.step(&mut trickle, 1024).unwrap() {
                ReadStep::Frame(f) => {
                    assert_eq!(f.payload, b"split me");
                    assert_eq!(f.request_id, None);
                    break;
                }
                ReadStep::Idle => idles += 1,
                ReadStep::Eof => panic!("hit EOF before the frame completed"),
            }
        }
        assert!(idles > 0, "the trickle reader must have reported idle steps");
        assert!(reader.is_clean());

        // The same byte-at-a-time stream, v2: the id survives splitting too.
        let mut framed = Vec::new();
        write_frame_v2(&mut framed, 0xDEAD_BEEF_u64, b"split v2").unwrap();
        let mut trickle = Trickle { data: framed, at: 0, ready: false };
        let mut reader = FrameReader::new();
        loop {
            match reader.step(&mut trickle, 1024).unwrap() {
                ReadStep::Frame(f) => {
                    assert_eq!(f.payload, b"split v2");
                    assert_eq!(f.request_id, Some(0xDEAD_BEEF_u64));
                    break;
                }
                ReadStep::Idle => continue,
                ReadStep::Eof => panic!("hit EOF before the v2 frame completed"),
            }
        }
        assert!(reader.is_clean());
    }
}
