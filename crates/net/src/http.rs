//! Minimal HTTP/1.1 message framing.
//!
//! Implements exactly what the planning protocol needs — request-line
//! and header parsing, `Content-Length` **and** `Transfer-Encoding:
//! chunked` body framing, keep-alive negotiation, and response
//! rendering (plain or chunked) — with hard limits on every
//! attacker-controlled dimension (request-line length, header count
//! and size, body size, chunk-size line length).
//!
//! There is one request parser, the incremental [`RequestParser`].
//! The event loop that both front ends ([`Server`](crate::Server) and
//! [`Router`](crate::Router)) run feeds it from each connection's read
//! buffer: it consumes whatever bytes have arrived, holds partial state
//! (including half-received lines, so a byte-trickling peer costs O(1)
//! per byte, not a head re-scan), and yields a [`Request`] the moment
//! the final byte lands. A request cut off by the peer simply stays
//! incomplete; ending the connection is the loop's business.
//!
//! Transfer codings other than `chunked` remain a typed error the
//! front ends map to `501`.

/// Longest accepted request line or header line, in bytes (the body
/// limit is configurable via [`NetConfig`](crate::NetConfig); the head
/// limits are fixed protocol constants).
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// Longest accepted chunk-size line (hex digits + optional extension).
const MAX_CHUNK_LINE_BYTES: usize = 256;

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query), as received.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The raw body (chunked bodies arrive here already de-chunked).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default yes, `Connection: close` / HTTP/1.0 no).
    pub keep_alive: bool,
    /// Whether the request arrived over HTTP/1.1 (as opposed to 1.0).
    /// Chunked *responses* are only legal toward a 1.1 peer, which is
    /// why this is carried separately from the keep-alive resolution.
    pub http11: bool,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed, mapped by the front ends onto a
/// status code + [`ErrorReply`](qrm_wire::ErrorReply).
#[derive(Debug)]
pub enum HttpError {
    /// The request line is malformed or not HTTP/1.x.
    BadRequestLine,
    /// A header line is malformed.
    BadHeader,
    /// The request line or a header exceeds [`MAX_LINE_BYTES`], or
    /// there are more than [`MAX_HEADERS`] headers.
    HeadersTooLarge,
    /// `Content-Length` is present but not a valid integer.
    BadContentLength,
    /// The declared (or chunk-accumulated) body length exceeds the
    /// server's limit.
    BodyTooLarge {
        /// The limit that was exceeded (bytes).
        limit: usize,
    },
    /// A body-carrying method arrived without `Content-Length` or
    /// `Transfer-Encoding: chunked`.
    LengthRequired,
    /// The request uses a `Transfer-Encoding` other than `chunked`.
    UnsupportedTransferEncoding,
    /// Chunked framing is malformed: a bad chunk-size line, a missing
    /// chunk terminator, or `Transfer-Encoding` conflicting with
    /// `Content-Length` (the request-smuggling shape, refused
    /// outright).
    BadChunk,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader => write!(f, "malformed header"),
            HttpError::HeadersTooLarge => write!(f, "request head exceeds limits"),
            HttpError::BadContentLength => write!(f, "invalid content-length"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::LengthRequired => write!(f, "content-length required"),
            HttpError::UnsupportedTransferEncoding => {
                write!(
                    f,
                    "unsupported transfer-encoding; use chunked or content-length"
                )
            }
            HttpError::BadChunk => write!(f, "malformed chunked body"),
        }
    }
}

impl std::error::Error for HttpError {}

/// How the body after a request head is framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyFraming {
    /// No body follows the head.
    None,
    /// A `Content-Length` body of exactly this many bytes.
    Length(usize),
    /// A `Transfer-Encoding: chunked` body.
    Chunked,
}

/// Parses and validates a request line into `(method, path, http11)`.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequestLine);
    };
    if method.is_empty() || path.is_empty() {
        return Err(HttpError::BadRequestLine);
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequestLine),
    };
    Ok((method.to_string(), path.to_string(), http11))
}

/// Parses one header line into a `(lower-case name, value)` pair.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::BadHeader);
    };
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Applies the head-level framing rules: keep-alive negotiation,
/// transfer-coding vs content-length resolution (conflicts are the
/// smuggling shape and refused), and the body-limit check for declared
/// lengths.
fn finish_head(request: &mut Request, max_body_bytes: usize) -> Result<BodyFraming, HttpError> {
    if let Some(connection) = request.header("connection") {
        if connection.eq_ignore_ascii_case("close") {
            request.keep_alive = false;
        } else if connection.eq_ignore_ascii_case("keep-alive") {
            request.keep_alive = true;
        }
    }
    let chunked = match request.header("transfer-encoding") {
        Some(value) if value.eq_ignore_ascii_case("chunked") => true,
        Some(_) => return Err(HttpError::UnsupportedTransferEncoding),
        None => false,
    };
    let content_length = match request.header("content-length") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| HttpError::BadContentLength)?,
        ),
        None => None,
    };
    if chunked {
        if content_length.is_some() {
            return Err(HttpError::BadChunk);
        }
        return Ok(BodyFraming::Chunked);
    }
    match content_length {
        Some(length) if length > max_body_bytes => Err(HttpError::BodyTooLarge {
            limit: max_body_bytes,
        }),
        Some(length) => Ok(BodyFraming::Length(length)),
        None if request.method == "POST" || request.method == "PUT" => {
            Err(HttpError::LengthRequired)
        }
        None => Ok(BodyFraming::None),
    }
}

/// Parses a chunk-size line: hex digits, optionally followed by a
/// `;extension` (ignored, per RFC 9112).
fn parse_chunk_size(line: &str) -> Result<usize, HttpError> {
    let digits = line.split(';').next().unwrap_or("").trim();
    if digits.is_empty() || digits.len() > 16 {
        return Err(HttpError::BadChunk);
    }
    usize::from_str_radix(digits, 16).map_err(|_| HttpError::BadChunk)
}

/// Where the incremental parser currently is inside a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParsePhase {
    /// Waiting for (or mid-way through) the request line.
    RequestLine,
    /// Reading header lines.
    Headers,
    /// Reading a `Content-Length` body; `usize` bytes remain.
    FixedBody(usize),
    /// Reading a chunk-size line.
    ChunkSize,
    /// Reading chunk data; `usize` bytes remain.
    ChunkData(usize),
    /// Expecting the CRLF after a chunk's data.
    ChunkEnd,
    /// Reading (and discarding) trailer lines after the zero chunk.
    Trailers,
}

/// The incremental request parser the front ends' event loop feeds.
///
/// Feed it whatever bytes have arrived via [`advance`](Self::advance);
/// it consumes them into internal state and returns a [`Request`] as
/// soon as one is complete, leaving any pipelined follow-up bytes in
/// the buffer. All limits ([`MAX_LINE_BYTES`], [`MAX_HEADERS`], the
/// body cap) are enforced **as bytes arrive**, so an oversized or
/// malformed request is refused at the earliest byte that proves the
/// violation — a slowloris peer cannot buy time by withholding the
/// rest.
///
/// After a request is returned the parser resets itself for the next
/// request on the same connection.
#[derive(Debug)]
pub struct RequestParser {
    phase: ParsePhase,
    /// Partial-line accumulator (request line, headers, chunk sizes,
    /// trailers) — carried across `advance` calls so a byte-trickled
    /// head costs O(1) per byte.
    line: Vec<u8>,
    /// Whether any byte of the current request has been consumed.
    started: bool,
    method: String,
    path: String,
    http11: bool,
    /// Resolved keep-alive decision, parked while the body streams.
    keep_alive: bool,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    trailer_count: usize,
}

impl Default for RequestParser {
    fn default() -> Self {
        RequestParser::new()
    }
}

impl RequestParser {
    /// A parser positioned at the start of a request.
    pub fn new() -> RequestParser {
        RequestParser {
            phase: ParsePhase::RequestLine,
            line: Vec::new(),
            started: false,
            method: String::new(),
            path: String::new(),
            http11: false,
            keep_alive: false,
            headers: Vec::new(),
            body: Vec::new(),
            trailer_count: 0,
        }
    }

    /// Whether any byte of the current request has been consumed —
    /// the event loop's boundary between `KeepAliveIdle` (idle
    /// timeout) and `Reading*` (total request deadline).
    pub fn started(&self) -> bool {
        self.started
    }

    /// Whether the head is complete and the parser is inside the body
    /// (the `ReadingBody` half of the connection state machine).
    pub fn reading_body(&self) -> bool {
        matches!(
            self.phase,
            ParsePhase::FixedBody(_)
                | ParsePhase::ChunkSize
                | ParsePhase::ChunkData(_)
                | ParsePhase::ChunkEnd
                | ParsePhase::Trailers
        )
    }

    /// Consumes as many bytes from the front of `buf` as the current
    /// request needs. Returns `Ok(Some(request))` the moment a request
    /// completes — consumed bytes are drained from `buf`, pipelined
    /// leftovers stay — or `Ok(None)` when more bytes are needed
    /// (`buf` is then fully consumed).
    ///
    /// # Errors
    ///
    /// Typed framing violations, at the earliest byte that proves
    /// them; the connection's stream position is unknown afterwards,
    /// so the caller must answer (best-effort) and close.
    pub fn advance(
        &mut self,
        buf: &mut Vec<u8>,
        max_body_bytes: usize,
    ) -> Result<Option<Request>, HttpError> {
        let mut consumed = 0;
        let result = self.advance_inner(buf, max_body_bytes, &mut consumed);
        buf.drain(..consumed);
        result
    }

    fn advance_inner(
        &mut self,
        buf: &[u8],
        max_body_bytes: usize,
        consumed: &mut usize,
    ) -> Result<Option<Request>, HttpError> {
        while *consumed < buf.len() {
            self.started = true;
            match self.phase {
                ParsePhase::RequestLine | ParsePhase::Headers | ParsePhase::Trailers => {
                    let Some(line) = self.take_line(buf, consumed)? else {
                        return Ok(None);
                    };
                    if let Some(request) = self.consume_head_line(line, max_body_bytes)? {
                        return Ok(Some(request));
                    }
                }
                ParsePhase::ChunkSize => {
                    let Some(line) = self.take_chunk_line(buf, consumed)? else {
                        return Ok(None);
                    };
                    let size = parse_chunk_size(&line)?;
                    if size == 0 {
                        self.trailer_count = 0;
                        self.phase = ParsePhase::Trailers;
                    } else {
                        if self.body.len().saturating_add(size) > max_body_bytes {
                            return Err(HttpError::BodyTooLarge {
                                limit: max_body_bytes,
                            });
                        }
                        self.phase = ParsePhase::ChunkData(size);
                    }
                }
                ParsePhase::ChunkData(remaining) => {
                    let take = remaining.min(buf.len() - *consumed);
                    self.body
                        .extend_from_slice(&buf[*consumed..*consumed + take]);
                    *consumed += take;
                    if take == remaining {
                        self.phase = ParsePhase::ChunkEnd;
                    } else {
                        self.phase = ParsePhase::ChunkData(remaining - take);
                        return Ok(None);
                    }
                }
                ParsePhase::ChunkEnd => {
                    let Some(line) = self.take_chunk_line(buf, consumed)? else {
                        return Ok(None);
                    };
                    if !line.is_empty() {
                        return Err(HttpError::BadChunk);
                    }
                    self.phase = ParsePhase::ChunkSize;
                }
                ParsePhase::FixedBody(remaining) => {
                    let take = remaining.min(buf.len() - *consumed);
                    self.body
                        .extend_from_slice(&buf[*consumed..*consumed + take]);
                    *consumed += take;
                    if take == remaining {
                        return Ok(Some(self.complete()));
                    }
                    self.phase = ParsePhase::FixedBody(remaining - take);
                    return Ok(None);
                }
            }
        }
        Ok(None)
    }

    /// Accumulates bytes into the line buffer until `\n`; returns the
    /// finished line (terminator stripped, UTF-8 checked) or `None` if
    /// the terminator has not arrived yet.
    fn take_line(&mut self, buf: &[u8], consumed: &mut usize) -> Result<Option<String>, HttpError> {
        while *consumed < buf.len() {
            let byte = buf[*consumed];
            *consumed += 1;
            if byte == b'\n' {
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
                let line = std::mem::take(&mut self.line);
                return match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(if self.phase == ParsePhase::RequestLine {
                        HttpError::BadRequestLine
                    } else {
                        HttpError::BadHeader
                    }),
                };
            }
            if self.line.len() >= MAX_LINE_BYTES {
                return Err(HttpError::HeadersTooLarge);
            }
            self.line.push(byte);
        }
        Ok(None)
    }

    /// Like [`take_line`](Self::take_line) but with the (much tighter)
    /// chunk-line cap and a chunk-flavoured error.
    fn take_chunk_line(
        &mut self,
        buf: &[u8],
        consumed: &mut usize,
    ) -> Result<Option<String>, HttpError> {
        while *consumed < buf.len() {
            let byte = buf[*consumed];
            *consumed += 1;
            if byte == b'\n' {
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
                let line = std::mem::take(&mut self.line);
                return match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(HttpError::BadChunk),
                };
            }
            if self.line.len() >= MAX_CHUNK_LINE_BYTES {
                return Err(HttpError::BadChunk);
            }
            self.line.push(byte);
        }
        Ok(None)
    }

    /// Processes one completed head-section line (request line, header,
    /// or trailer) and advances the phase; returns the finished request
    /// when the line completes one.
    fn consume_head_line(
        &mut self,
        line: String,
        max_body_bytes: usize,
    ) -> Result<Option<Request>, HttpError> {
        match self.phase {
            ParsePhase::RequestLine => {
                // Tolerate (and skip) blank line(s) before the request
                // line, per RFC 9112 §2.2 — a sloppy client's stray
                // CRLF after a request body must not 400 the next
                // pipelined request.
                if line.is_empty() {
                    return Ok(None);
                }
                let (method, path, http11) = parse_request_line(&line)?;
                self.method = method;
                self.path = path;
                self.http11 = http11;
                self.phase = ParsePhase::Headers;
                Ok(None)
            }
            ParsePhase::Headers => {
                if !line.is_empty() {
                    if self.headers.len() >= MAX_HEADERS {
                        return Err(HttpError::HeadersTooLarge);
                    }
                    self.headers.push(parse_header_line(&line)?);
                    return Ok(None);
                }
                // End of head: decide the body framing.
                let mut request = Request {
                    method: std::mem::take(&mut self.method),
                    path: std::mem::take(&mut self.path),
                    headers: std::mem::take(&mut self.headers),
                    body: Vec::new(),
                    keep_alive: self.http11,
                    http11: self.http11,
                };
                match finish_head(&mut request, max_body_bytes)? {
                    BodyFraming::None => {
                        self.reset();
                        Ok(Some(request))
                    }
                    BodyFraming::Length(0) => {
                        self.reset();
                        Ok(Some(request))
                    }
                    BodyFraming::Length(length) => {
                        // Park the head while the body streams in.
                        self.method = request.method;
                        self.path = request.path;
                        self.headers = request.headers;
                        self.keep_alive = request.keep_alive;
                        self.phase = ParsePhase::FixedBody(length);
                        Ok(None)
                    }
                    BodyFraming::Chunked => {
                        self.method = request.method;
                        self.path = request.path;
                        self.headers = request.headers;
                        self.keep_alive = request.keep_alive;
                        self.phase = ParsePhase::ChunkSize;
                        Ok(None)
                    }
                }
            }
            ParsePhase::Trailers => {
                if line.is_empty() {
                    return Ok(Some(self.complete()));
                }
                self.trailer_count += 1;
                if self.trailer_count > MAX_HEADERS {
                    return Err(HttpError::HeadersTooLarge);
                }
                parse_header_line(&line)?;
                Ok(None)
            }
            _ => unreachable!("consume_head_line is only called in head phases"),
        }
    }

    /// Builds the finished request from parked head state + body and
    /// resets for the next request.
    fn complete(&mut self) -> Request {
        // Keep-alive was already resolved in `finish_head` and parked
        // in `self.keep_alive` while the body streamed.
        let request = Request {
            method: std::mem::take(&mut self.method),
            path: std::mem::take(&mut self.path),
            headers: std::mem::take(&mut self.headers),
            body: std::mem::take(&mut self.body),
            keep_alive: self.keep_alive,
            http11: self.http11,
        };
        self.reset();
        request
    }

    fn reset(&mut self) {
        self.phase = ParsePhase::RequestLine;
        self.line.clear();
        self.started = false;
        self.method.clear();
        self.path.clear();
        self.http11 = false;
        self.keep_alive = false;
        self.headers.clear();
        self.body.clear();
        self.trailer_count = 0;
    }
}

/// The reason phrase for the status codes the front ends emit.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders a complete response with `Content-Length` framing and a
/// `Connection` header reflecting `keep_alive`.
pub fn render_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
        reason(status),
        body.len(),
    )
    .into_bytes()
}

/// Chunk payload size used by [`render_chunked_response`].
pub const RESPONSE_CHUNK_BYTES: usize = 64 << 10;

/// Renders a response with `Transfer-Encoding: chunked` framing —
/// [`RESPONSE_CHUNK_BYTES`]-sized chunks, a zero terminator, no
/// trailers. Only valid towards HTTP/1.1 peers (1.0 predates chunking).
pub fn render_chunked_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ntransfer-encoding: chunked\r\nconnection: {connection}\r\n\r\n",
        reason(status),
    )
    .into_bytes();
    for chunk in body.as_bytes().chunks(RESPONSE_CHUNK_BYTES) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` handed to the parser as one whole buffer.
    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        RequestParser::new().advance(&mut raw.as_bytes().to_vec(), 1024)
    }

    /// Drives the parser over `raw` in `step`-byte slices, returning the
    /// first request that completes.
    fn parse_incremental(raw: &[u8], step: usize) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        let mut buf = Vec::new();
        for piece in raw.chunks(step.max(1)) {
            buf.extend_from_slice(piece);
            if let Some(request) = parser.advance(&mut buf, 1024)? {
                return Ok(Some(request));
            }
        }
        Ok(None)
    }

    #[test]
    fn parses_a_post_with_body() {
        let request = parse("POST /v1/batch HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/batch");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body, b"body");
        assert!(request.keep_alive);
    }

    #[test]
    fn connection_and_version_drive_keep_alive() {
        let closed = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!closed.keep_alive);
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!old.keep_alive);
        let old_ka = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn eof_between_requests_is_clean() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_typed() {
        assert!(matches!(
            parse("GARBAGE\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            parse("GET / HTTP/2.0\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon\r\n\r\n"),
            Err(HttpError::BadHeader)
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadContentLength)
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::BodyTooLarge { limit: 1024 })
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"),
            Err(HttpError::UnsupportedTransferEncoding)
        ));
        // A truncated head is merely incomplete: a peer that stops
        // mid-request is the event loop's to reap, not a framing error.
        assert!(matches!(parse("GET / HTTP/1.1\r\nHost: x"), Ok(None)));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert!(matches!(parse(&long), Err(HttpError::HeadersTooLarge)));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "x: y\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(parse(&many), Err(HttpError::HeadersTooLarge)));
    }

    #[test]
    fn chunked_bodies_decode_at_any_split() {
        let raw = "POST /v1/batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                   4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let request = parse(raw).unwrap().unwrap();
        assert_eq!(request.body, b"Wikipedia");
        for step in [1, 3, raw.len()] {
            let request = parse_incremental(raw.as_bytes(), step).unwrap().unwrap();
            assert_eq!(request.body, b"Wikipedia", "step {step}");
        }
    }

    #[test]
    fn chunk_extensions_and_trailers_are_tolerated() {
        let raw = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                   4;name=value\r\nWiki\r\n0\r\nx-trailer: ignored\r\n\r\n";
        let request = parse(raw).unwrap().unwrap();
        assert_eq!(request.body, b"Wiki");
        let request = parse_incremental(raw.as_bytes(), 2).unwrap().unwrap();
        assert_eq!(request.body, b"Wiki");
    }

    #[test]
    fn chunked_violations_are_typed() {
        // Bad size line.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"),
            Err(HttpError::BadChunk)
        ));
        // Missing chunk terminator.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWikiX\r\n0\r\n\r\n"),
            Err(HttpError::BadChunk)
        ));
        // Content-Length + chunked = smuggling shape.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadChunk)
        ));
        // Cumulative chunk size over the body limit fails at the size
        // line that proves it, before the data arrives.
        let over = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfffff\r\n";
        assert!(matches!(
            parse(over),
            Err(HttpError::BodyTooLarge { limit: 1024 })
        ));
        assert!(matches!(
            parse_incremental(over.as_bytes(), 1),
            Err(HttpError::BodyTooLarge { limit: 1024 })
        ));
    }

    #[test]
    fn byte_at_a_time_parse_matches_whole_buffer_parse() {
        let raw = "POST /v1/batch HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let whole = parse(raw).unwrap().unwrap();
        let trickled = parse_incremental(raw.as_bytes(), 1).unwrap().unwrap();
        assert_eq!(whole, trickled);
    }

    #[test]
    fn incremental_parser_leaves_pipelined_bytes_and_resets() {
        let mut parser = RequestParser::new();
        let mut buf =
            Vec::from("GET /v1/stats HTTP/1.1\r\n\r\nGET /v1/healthz HTTP/1.1\r\n\r\n".as_bytes());
        let first = parser.advance(&mut buf, 1024).unwrap().unwrap();
        assert_eq!(first.path, "/v1/stats");
        assert!(!buf.is_empty(), "second request still buffered");
        assert!(!parser.started(), "parser reset between requests");
        let second = parser.advance(&mut buf, 1024).unwrap().unwrap();
        assert_eq!(second.path, "/v1/healthz");
        assert!(buf.is_empty());
    }

    #[test]
    fn incremental_parser_tracks_phases() {
        let mut parser = RequestParser::new();
        assert!(!parser.started());
        let mut buf = Vec::from("POST / HTT".as_bytes());
        assert!(parser.advance(&mut buf, 1024).unwrap().is_none());
        assert!(parser.started());
        assert!(!parser.reading_body());
        let mut buf = Vec::from("P/1.1\r\nContent-Length: 4\r\n\r\nbo".as_bytes());
        assert!(parser.advance(&mut buf, 1024).unwrap().is_none());
        assert!(parser.reading_body());
        let mut buf = Vec::from("dy".as_bytes());
        let request = parser.advance(&mut buf, 1024).unwrap().unwrap();
        assert_eq!(request.body, b"body");
        assert!(!parser.started());
    }

    #[test]
    fn oversized_line_fails_incrementally_before_terminator() {
        let mut parser = RequestParser::new();
        let mut buf = vec![b'a'; MAX_LINE_BYTES + 1];
        assert!(matches!(
            parser.advance(&mut buf, 1024),
            Err(HttpError::HeadersTooLarge)
        ));
    }

    #[test]
    fn renders_framed_responses() {
        let text = String::from_utf8(render_response(200, "{\"a\":1}", true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 7\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn every_emitted_status_has_a_reason_phrase() {
        // Every status either route table (server or router) or the
        // framing-error mapping can send.
        for status in [200, 400, 401, 404, 405, 411, 413, 422, 500, 501, 502, 503] {
            assert_ne!(reason(status), "Unknown", "status {status}");
        }
    }

    #[test]
    fn renders_chunked_responses() {
        let body = "x".repeat(RESPONSE_CHUNK_BYTES + 3);
        let out = render_chunked_response(200, &body, true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(!text.contains("content-length"));
        assert!(text.contains(&format!("{:x}\r\n", RESPONSE_CHUNK_BYTES)));
        assert!(text.contains("\r\n3\r\nxxx\r\n"));
        assert!(text.ends_with("\r\n0\r\n\r\n"));
    }
}
