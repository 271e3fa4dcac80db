//! The blocking HTTP client for the planning protocol.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use qrm_server::{BatchReport, ServiceStats, SubmitBatch};
use qrm_wire::{ErrorReply, FromJson, RouterStats, ToJson, WireError};

use crate::Health;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or socket failure (after any reconnect attempt).
    Io(std::io::Error),
    /// The server answered with a non-2xx status and (when it sent
    /// one) a decoded [`ErrorReply`].
    Http {
        /// The response status code.
        status: u16,
        /// The decoded error payload, if the body was one.
        reply: Option<ErrorReply>,
    },
    /// The response violated HTTP framing.
    Protocol(String),
    /// The response body did not decode as the expected type.
    Wire(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "connection failed: {err}"),
            ClientError::Http {
                status,
                reply: Some(reply),
            } => write!(f, "server returned {status}: {reply}"),
            ClientError::Http {
                status,
                reply: None,
            } => write!(f, "server returned {status}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Wire(err) => write!(f, "undecodable response: {err}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

/// A blocking keep-alive client for one planning server.
///
/// Connects lazily on the first call and reuses the connection across
/// calls. A request that dies on a **reused** connection before any
/// response byte arrives — the send fails, or the server closes the
/// socket bytes-free (the idle keep-alive close race) — transparently
/// reconnects and retries once. Failures after the request was
/// delivered and the server started (or may still be) working — a
/// read timeout, a half-written response — are reported as-is and
/// never retried.
///
/// Duplicate-execution caveat: the bytes-free-close retry assumes the
/// server answers every request it reads — `qrm_net::Server` upholds
/// this by construction (even a panicking handler replies `500`). A
/// third-party server that accepts a submission and then closes
/// without responding could see it twice.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    read_timeout: Duration,
    max_response_bytes: usize,
    /// Full `Authorization` header value (e.g. `Bearer <token>`), sent
    /// verbatim on every request when set.
    authorization: Option<String>,
}

impl Client {
    /// Creates a client for `addr` (`"host:port"`). No connection is
    /// made until the first request.
    pub fn connect(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            stream: None,
            read_timeout: Duration::from_secs(60),
            max_response_bytes: 256 << 20,
            authorization: None,
        }
    }

    /// Attaches a bearer token sent as `Authorization: Bearer <token>`
    /// on every request, for servers running with
    /// [`NetConfig::auth_token`](crate::NetConfig::auth_token) set.
    #[must_use]
    pub fn with_auth_token(self, token: impl Into<String>) -> Client {
        self.with_authorization(format!("Bearer {}", token.into()))
    }

    /// Attaches a raw `Authorization` header value, forwarded verbatim
    /// on every request. This is the relay form of
    /// [`with_auth_token`](Self::with_auth_token): the router uses it
    /// to pass an incoming request's credential through to its backend
    /// unchanged, whatever the scheme.
    #[must_use]
    pub fn with_authorization(mut self, value: impl Into<String>) -> Client {
        self.authorization = Some(value.into());
        self
    }

    /// Replaces the largest accepted response body (default 256 MiB).
    /// A response declaring more is rejected with a
    /// [`ClientError::Protocol`] **before** anything is allocated — a
    /// hostile or misdirected endpoint must not be able to OOM the
    /// client with one `content-length` header.
    #[must_use]
    pub fn with_max_response_bytes(mut self, limit: usize) -> Client {
        self.max_response_bytes = limit;
        self
    }

    /// Replaces the per-response read timeout (default 60 s — batch
    /// planning is CPU-bound server-side and can take a while under
    /// load). A response that does not arrive in time fails the call
    /// with [`ClientError::Io`] of kind
    /// [`TimedOut`](std::io::ErrorKind::TimedOut), and the request is
    /// never resubmitted.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Client {
        self.read_timeout = timeout;
        self
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Submits a batch and decodes the report.
    ///
    /// The decoded [`BatchReport::reports`] is **bit-identical** to an
    /// in-process `PlanService::submit` of the same request — the wire
    /// adds transport, never behaviour (`tests/net_service.rs`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Http`] carries the server's typed error
    /// (unknown planner, invalid spec, over-limit spec…); transport
    /// and decode failures map to the other variants.
    pub fn submit(&mut self, request: &SubmitBatch) -> Result<BatchReport, ClientError> {
        let body = request.to_json();
        let response = self.request("POST", "/v1/batch", Some(&body))?;
        Ok(BatchReport::from_json(&response)?)
    }

    /// Fetches the service's stats snapshot.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        let response = self.request("GET", "/v1/stats", None)?;
        Ok(ServiceStats::from_json(&response)?)
    }

    /// Liveness probe: the service's status and registered planners.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn healthz(&mut self) -> Result<Health, ClientError> {
        let response = self.request("GET", "/v1/healthz", None)?;
        Ok(Health::from_json(&response)?)
    }

    /// Fetches a router front end's routing snapshot
    /// (`GET /v1/router/stats` — only routers serve this path; a plain
    /// backend answers 404).
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn router_stats(&mut self) -> Result<RouterStats, ClientError> {
        let response = self.request("GET", "/v1/router/stats", None)?;
        Ok(RouterStats::from_json(&response)?)
    }

    /// Sends one `POST` and returns **whatever** response came back —
    /// any status, body undecoded — classifying failures by the fact
    /// relays and failover hinge on: whether the request *provably
    /// never reached service*. This is the router's relay primitive;
    /// typed client calls should prefer [`submit`](Self::submit).
    ///
    /// The same safe-retry rules as [`submit`](Self::submit) apply
    /// (a stale reused connection retries once; nothing else does).
    ///
    /// # Errors
    ///
    /// [`RelayError`] with `provably_unaccepted = true` when the
    /// connect/send failed or the server closed bytes-free — the caller
    /// may safely try another backend. `false` means the server may be
    /// (or have been) working on the request; re-sending it anywhere
    /// could execute it twice.
    pub fn post_classified(&mut self, path: &str, body: &str) -> Result<RawResponse, RelayError> {
        match self.exchange("POST", path, Some(body)) {
            Ok((status, body)) => Ok(RawResponse { status, body }),
            Err(attempt) => Err(RelayError {
                provably_unaccepted: attempt.request_not_taken,
                error: attempt.error,
            }),
        }
    }

    /// Sends one request, retrying once on a stale reused connection,
    /// and returns the body of a 2xx response.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<String, ClientError> {
        let (status, response) = self.exchange(method, path, body).map_err(|a| a.error)?;
        if (200..300).contains(&status) {
            Ok(response)
        } else {
            Err(ClientError::Http {
                status,
                reply: ErrorReply::from_json(&response).ok(),
            })
        }
    }

    /// Sends one request and returns `(status, body)` of whatever
    /// response arrived, applying the safe-retry rule: retry once only
    /// when a **reused** connection died *before the server can have
    /// accepted the request* — the send itself failed, or the socket
    /// was already closed (clean EOF with zero response bytes: the idle
    /// keep-alive close race). Anything later — a read timeout while
    /// the server is still planning, a torn response — must NOT
    /// resubmit a non-idempotent batch.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), Attempt> {
        let reused = self.stream.is_some();
        match self.try_exchange(method, path, body) {
            Err(attempt) if attempt.request_not_taken && reused => {
                self.stream = None;
                self.try_exchange(method, path, body)
            }
            outcome => outcome,
        }
    }

    fn try_exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), Attempt> {
        if self.stream.is_none() {
            let connect = || -> std::io::Result<TcpStream> {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_read_timeout(Some(self.read_timeout))?;
                stream.set_nodelay(true)?;
                Ok(stream)
            };
            // A connect failure is trivially retry-safe, but on a
            // fresh attempt there is nothing to retry onto.
            let stream = connect().map_err(|e| Attempt::not_taken(e.into()))?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");

        let body = body.unwrap_or("");
        let auth = match &self.authorization {
            Some(value) => format!("authorization: {value}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\n{auth}content-length: {}\r\n\r\n",
            self.addr,
            body.len(),
        );
        let send = |reader: &mut BufReader<TcpStream>| -> std::io::Result<()> {
            let stream = reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body.as_bytes())?;
            stream.flush()
        };
        if let Err(err) = send(reader) {
            // The request never went out whole: safe to resubmit.
            self.stream = None;
            return Err(Attempt::not_taken(err.into()));
        }

        match Self::read_response(reader, self.max_response_bytes) {
            Ok((status, keep_alive, response_body)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok((status, response_body))
            }
            Err(attempt) => {
                self.stream = None;
                Err(attempt)
            }
        }
    }

    /// Parses `status line + headers + content-length body` into
    /// `(status, keep_alive, body)`. The error carries whether the
    /// failure proves the server never took the request (clean EOF
    /// before any response byte).
    fn read_response(
        reader: &mut BufReader<TcpStream>,
        max_response_bytes: usize,
    ) -> Result<(u16, bool, String), Attempt> {
        let mut status_line = String::new();
        match reader.read_line(&mut status_line) {
            // Clean close with zero response bytes: the server shut
            // the idle connection before this request arrived.
            Ok(0) => {
                return Err(Attempt::not_taken(ClientError::Protocol(
                    "connection closed".to_string(),
                )))
            }
            // A read error (e.g. timeout) proves nothing — the server
            // may be mid-plan. Never retry on this path.
            Err(err) => return Err(Attempt::read_failed(err)),
            Ok(_) => {}
        }
        let mut parts = status_line.trim_end().splitn(3, ' ');
        let (Some(version), Some(status), _) = (parts.next(), parts.next(), parts.next()) else {
            return Err(Attempt::taken(ClientError::Protocol(
                "malformed status line".to_string(),
            )));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(Attempt::taken(ClientError::Protocol(format!(
                "bad version {version:?}"
            ))));
        }
        let status: u16 = status
            .parse()
            .map_err(|_| Attempt::taken(ClientError::Protocol(format!("bad status {status:?}"))))?;

        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        let mut keep_alive = true;
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    return Err(Attempt::taken(ClientError::Protocol(
                        "truncated headers".to_string(),
                    )))
                }
                Err(err) => return Err(Attempt::read_failed(err)),
                Ok(_) => {}
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(Attempt::taken(ClientError::Protocol(format!(
                    "malformed header {line:?}"
                ))));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = Some(value.parse().map_err(|_| {
                    Attempt::taken(ClientError::Protocol("bad content-length".to_string()))
                })?);
            } else if name == "transfer-encoding" {
                if !value.eq_ignore_ascii_case("chunked") {
                    return Err(Attempt::taken(ClientError::Protocol(format!(
                        "unsupported transfer-encoding {value:?}"
                    ))));
                }
                chunked = true;
            } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            }
        }
        let body = if chunked {
            Self::read_chunked_body(reader, max_response_bytes)?
        } else {
            let length = content_length.ok_or_else(|| {
                Attempt::taken(ClientError::Protocol("missing content-length".to_string()))
            })?;
            if length > max_response_bytes {
                return Err(Attempt::taken(ClientError::Protocol(format!(
                    "response of {length} bytes exceeds the client's {max_response_bytes}-byte limit"
                ))));
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body).map_err(Attempt::read_failed)?;
            body
        };
        let body = String::from_utf8(body).map_err(|_| {
            Attempt::taken(ClientError::Protocol(
                "response body is not UTF-8".to_string(),
            ))
        })?;
        Ok((status, keep_alive, body))
    }

    /// Decodes a `Transfer-Encoding: chunked` response body. Once any
    /// chunk byte has been read the request was certainly taken, so
    /// every failure here is `Attempt::taken`.
    fn read_chunked_body(
        reader: &mut BufReader<TcpStream>,
        max_response_bytes: usize,
    ) -> Result<Vec<u8>, Attempt> {
        let protocol = |what: &str| Attempt::taken(ClientError::Protocol(what.to_string()));
        let mut body = Vec::new();
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => return Err(protocol("truncated chunked body")),
                Err(err) => return Err(Attempt::read_failed(err)),
                Ok(_) => {}
            }
            let size_str = line.trim_end().split(';').next().unwrap_or("");
            let size =
                usize::from_str_radix(size_str, 16).map_err(|_| protocol("bad chunk size"))?;
            if body.len().saturating_add(size) > max_response_bytes {
                return Err(protocol("chunked response exceeds the client's limit"));
            }
            if size > 0 {
                let start = body.len();
                body.resize(start + size, 0);
                reader
                    .read_exact(&mut body[start..])
                    .map_err(Attempt::read_failed)?;
            }
            // Chunk data (and the final size line) end with CRLF; after
            // the zero-size chunk this doubles as the trailer-section
            // terminator (the server sends no trailers).
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf).map_err(Attempt::read_failed)?;
            if &crlf != b"\r\n" {
                return Err(protocol("missing chunk terminator"));
            }
            if size == 0 {
                return Ok(body);
            }
        }
    }
}

/// One attempt's failure plus the fact that matters for retry safety:
/// whether the failure proves the server never took the request.
struct Attempt {
    error: ClientError,
    /// `true` only when the request provably never reached service:
    /// the connect/send failed, or the server closed the connection
    /// without emitting a single response byte.
    request_not_taken: bool,
}

impl Attempt {
    fn not_taken(error: ClientError) -> Attempt {
        Attempt {
            error,
            request_not_taken: true,
        }
    }

    fn taken(error: ClientError) -> Attempt {
        Attempt {
            error,
            request_not_taken: false,
        }
    }

    /// A read of the response failed: the request was taken. The socket
    /// blocks with `SO_RCVTIMEO` set, so a `WouldBlock` (the platform's
    /// `EAGAIN`) can only mean the read timeout expired, and is reported
    /// as `TimedOut`.
    fn read_failed(err: std::io::Error) -> Attempt {
        let err = if err.kind() == std::io::ErrorKind::WouldBlock {
            std::io::Error::new(std::io::ErrorKind::TimedOut, "response read timed out")
        } else {
            err
        };
        Attempt::taken(err.into())
    }
}

/// A response relayed verbatim by [`Client::post_classified`]: the
/// status and body exactly as the server sent them, whatever the
/// status class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawResponse {
    /// The HTTP status code.
    pub status: u16,
    /// The response body, undecoded.
    pub body: String,
}

/// A failed [`Client::post_classified`] exchange, carrying the one fact
/// failover safety hinges on.
#[derive(Debug)]
pub struct RelayError {
    /// The underlying failure.
    pub error: ClientError,
    /// `true` only when the failure *proves* the server never took the
    /// request (connect/send failure, or a bytes-free close): the
    /// request may safely be sent elsewhere. `false` means the server
    /// may be — or may have been — executing it, and re-sending could
    /// execute it twice.
    pub provably_unaccepted: bool,
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.provably_unaccepted {
            write!(f, "{} (request provably unaccepted)", self.error)
        } else {
            write!(f, "{} (request may have been taken)", self.error)
        }
    }
}

impl std::error::Error for RelayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}
