//! A hand-rolled, hardened subset of HTTP/1.1 — the daemon's wire
//! framing.
//!
//! The workspace builds fully offline, so the daemon speaks a minimal
//! dialect instead of pulling in a server stack: JSON bodies,
//! `Content-Length` framing only, HTTP/1.1 keep-alive and pipelining.
//! What the parser lacks in generality it makes up in paranoia — every
//! limit is explicit and every malformed or truncated input comes back
//! as a typed [`HttpError`] (which the daemon turns into a structured
//! JSON error response), never a panic:
//!
//! - request line and each header line are capped at
//!   [`MAX_LINE_BYTES`]; total header count at [`MAX_HEADERS`];
//! - bodies are capped at [`MAX_BODY_BYTES`] and must match their
//!   `Content-Length` exactly — a peer that closes mid-frame gets a
//!   truncation error, not a hang or a partial parse;
//! - `Transfer-Encoding: chunked` is rejected up front rather than
//!   mis-framed.
//!
//! The parser is *sans-IO*: [`RequestParser`] consumes whatever bytes
//! the transport produced and yields zero or more complete requests, so
//! the non-blocking daemon event loop, the deterministic loopback
//! simulator and the fuzz tests all drive the exact same byte-level
//! code path — a socket is just one more byte source.

/// Longest accepted request/header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// Request target, e.g. `/v1/studies/demo/results`.
    pub path: String,
    /// Decoded body (empty when the request has none).
    pub body: String,
    /// Whether the peer asked to close the connection after this
    /// request (`Connection: close`, or an HTTP/1.0 request without
    /// `keep-alive`). HTTP/1.1 defaults to keep-alive.
    pub close: bool,
    /// The bearer token presented via `authorization: Bearer <token>`
    /// (`None` when absent or not a bearer scheme — the tenant registry
    /// decides whether that is a 401).
    pub bearer: Option<String>,
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed framing or a violated limit; the message is safe to
    /// echo back to the client.
    BadRequest(String),
    /// Body longer than [`MAX_BODY_BYTES`].
    PayloadTooLarge(String),
    /// The peer closed the connection before sending a full request.
    Truncated(String),
}

impl HttpError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::PayloadTooLarge(_) => 413,
            HttpError::Truncated(_) => 400,
        }
    }

    /// The error detail.
    pub fn message(&self) -> &str {
        match self {
            HttpError::BadRequest(m) | HttpError::PayloadTooLarge(m) | HttpError::Truncated(m) => m,
        }
    }
}

/// The head of a request whose body is still streaming in.
#[derive(Debug, Clone)]
struct Head {
    method: String,
    path: String,
    content_length: usize,
    close: bool,
    bearer: Option<String>,
}

/// Incremental request parser: feed it transport bytes as they arrive,
/// pull complete requests out. One parser per connection; pipelined
/// requests simply queue up in the buffer and come out one
/// [`RequestParser::next_request`] at a time.
///
/// After the first error the parser is dead — framing is unrecoverable
/// once a frame boundary is lost, so the connection must answer the
/// error and close (exactly what the engine does).
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    head: Option<Head>,
    dead: bool,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Appends transport bytes. Ignored once the parser is dead.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.dead {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Whether a request is partially buffered (the connection is
    /// mid-frame, so an EOF or a deadline here is an error, not an
    /// idle close).
    pub fn mid_request(&self) -> bool {
        !self.dead && (self.head.is_some() || !self.buf.is_empty())
    }

    /// Pulls the next complete request out of the buffer.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns an [`HttpError`] on any framing violation: malformed
    /// request line or header, missing/overlong/duplicated
    /// `Content-Length`, chunked encoding, or a violated size limit.
    /// The error is fatal: every later call returns `Ok(None)`.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        if self.dead {
            return Ok(None);
        }
        if self.head.is_none() {
            match self.parse_head() {
                Ok(Some(head)) => self.head = Some(head),
                Ok(None) => return Ok(None),
                Err(e) => {
                    self.dead = true;
                    return Err(e);
                }
            }
        }
        let head = self.head.as_ref().expect("head parsed above");
        if self.buf.len() < head.content_length {
            return Ok(None);
        }
        let head = self.head.take().expect("present");
        let body_bytes: Vec<u8> = self.buf.drain(..head.content_length).collect();
        let body = match String::from_utf8(body_bytes) {
            Ok(b) => b,
            Err(_) => {
                self.dead = true;
                return Err(HttpError::BadRequest("body is not UTF-8".into()));
            }
        };
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            body,
            close: head.close,
            bearer: head.bearer,
        }))
    }

    /// The error (if any) that an EOF at this point in the stream
    /// represents: `None` between requests (a clean close), a
    /// [`HttpError::Truncated`] mid-head or mid-body.
    pub fn eof_error(&self) -> Option<HttpError> {
        if self.dead {
            return None;
        }
        if let Some(head) = &self.head {
            return Some(HttpError::Truncated(format!(
                "body truncated at {} of {} bytes",
                self.buf.len(),
                head.content_length
            )));
        }
        if !self.buf.is_empty() {
            return Some(HttpError::Truncated("connection closed mid-line".into()));
        }
        None
    }

    /// Parses the head (request line + headers) if the buffer holds all
    /// of it. On success the head bytes are consumed from the buffer.
    fn parse_head(&mut self) -> Result<Option<Head>, HttpError> {
        // Walk complete lines; the head ends at the first empty line.
        let mut lines: Vec<String> = Vec::new();
        let mut offset = 0usize;
        let head_end = loop {
            let Some(nl) = self.buf[offset..].iter().position(|&b| b == b'\n') else {
                // No terminator yet: either the peer is slow or the line
                // is already over budget.
                if self.buf.len() - offset > MAX_LINE_BYTES {
                    return Err(HttpError::BadRequest(format!(
                        "line longer than {MAX_LINE_BYTES} bytes"
                    )));
                }
                return Ok(None);
            };
            if nl > MAX_LINE_BYTES {
                return Err(HttpError::BadRequest(format!(
                    "line longer than {MAX_LINE_BYTES} bytes"
                )));
            }
            let mut line = &self.buf[offset..offset + nl];
            while line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            offset += nl + 1;
            if line.is_empty() {
                break offset;
            }
            // One request line + the header cap.
            if lines.len() > MAX_HEADERS {
                return Err(HttpError::BadRequest(format!(
                    "more than {MAX_HEADERS} headers"
                )));
            }
            let text = std::str::from_utf8(line)
                .map_err(|_| HttpError::BadRequest("line is not UTF-8".into()))?;
            lines.push(text.to_string());
        };

        let head = Self::parse_head_lines(&lines)?;
        self.buf.drain(..head_end);
        Ok(Some(head))
    }

    fn parse_head_lines(lines: &[String]) -> Result<Head, HttpError> {
        let request_line = lines.first().map(String::as_str).unwrap_or_default();
        let mut parts = request_line.split_ascii_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
            _ => {
                return Err(HttpError::BadRequest(format!(
                    "malformed request line {request_line:?}"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadRequest(format!(
                "unsupported protocol version {version:?}"
            )));
        }
        if !path.starts_with('/') {
            return Err(HttpError::BadRequest(format!(
                "request target {path:?} must be an absolute path"
            )));
        }

        let mut content_length: Option<usize> = None;
        // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
        let mut close = version == "HTTP/1.0";
        let mut bearer: Option<String> = None;
        for line in &lines[1..] {
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            match name.as_str() {
                "content-length" => {
                    let n: usize = value.parse().map_err(|_| {
                        HttpError::BadRequest(format!("content-length {value:?} is not a length"))
                    })?;
                    if let Some(prev) = content_length {
                        if prev != n {
                            return Err(HttpError::BadRequest(
                                "conflicting content-length headers".into(),
                            ));
                        }
                    }
                    if n > MAX_BODY_BYTES {
                        return Err(HttpError::PayloadTooLarge(format!(
                            "body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                        )));
                    }
                    content_length = Some(n);
                }
                "transfer-encoding" => {
                    return Err(HttpError::BadRequest(
                        "transfer-encoding is not supported; send content-length".into(),
                    ));
                }
                "connection" => {
                    let v = value.to_ascii_lowercase();
                    if v.contains("close") {
                        close = true;
                    } else if v.contains("keep-alive") {
                        close = false;
                    }
                }
                "authorization" => {
                    // Only the bearer scheme is understood; anything
                    // else is equivalent to no token (the registry
                    // answers 401, not the parser).
                    if let Some((scheme, token)) = value.split_once(' ') {
                        if scheme.eq_ignore_ascii_case("bearer") && !token.trim().is_empty() {
                            bearer = Some(token.trim().to_string());
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(Head {
            method,
            path,
            content_length: content_length.unwrap_or(0),
            close,
            bearer,
        })
    }
}

/// One-shot convenience over [`RequestParser`]: parses exactly one
/// request from a complete byte slice (the historical
/// one-request-per-connection path, kept for the fuzz tests and the
/// simulator's single-request helper).
///
/// # Errors
///
/// Returns an [`HttpError`] on any framing violation, including a frame
/// that is still incomplete at the end of the slice (truncation).
pub fn parse_request_bytes(raw: &[u8]) -> Result<Request, HttpError> {
    let mut parser = RequestParser::new();
    parser.feed(raw);
    match parser.next_request()? {
        Some(req) => Ok(req),
        None => Err(parser
            .eof_error()
            .unwrap_or_else(|| HttpError::Truncated("connection closed mid-request".into()))),
    }
}

/// A response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `content-type` header value. Every body in the API is JSON
    /// except the Prometheus exposition at `/metrics`.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (the Prometheus exposition format is
    /// `text/plain; version=0.0.4`). Framing is unchanged — replies are
    /// still `content-length`-delimited — so keep-alive clients and
    /// [`ResponseParser`] handle it like any other body.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// A structured JSON error response:
    /// `{"error": {"status": S, "message": "..."}}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\": {{\"status\": {status}, \"message\": {}}}}}\n",
                tuna_stats::json::quote(message)
            ),
        )
    }

    /// A structured JSON refusal with a machine-readable reason slug:
    /// `{"error": {"status": S, "reason": "...", "message": "..."}}` —
    /// what auth (401/403) and admission control (429) answer with, so
    /// clients can branch on `reason` instead of parsing prose.
    pub fn refusal(status: u16, reason: &str, message: &str) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\": {{\"status\": {status}, \"reason\": {}, \"message\": {}}}}}\n",
                tuna_stats::json::quote(reason),
                tuna_stats::json::quote(message)
            ),
        )
    }

    /// The canonical response for a framing-level [`HttpError`].
    pub fn of_http_error(e: &HttpError) -> Self {
        Response::error(e.status(), e.message())
    }

    /// Reason phrase for the status line.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response to wire bytes, advertising whether the
    /// server will keep the connection open afterwards.
    pub fn to_wire(&self, keep_alive: bool) -> Vec<u8> {
        format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{}",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
            self.body
        )
        .into_bytes()
    }

    /// Serializes the response to wire bytes with `connection: close` —
    /// the historical one-request-per-connection framing.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_wire(false)
    }
}

/// Builds the wire bytes of a request, choosing the connection
/// disposition — the client side of [`RequestParser`], shared by
/// `tuna-ctl` and the loopback simulator.
pub fn request_bytes_with(method: &str, path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    request_bytes_auth(method, path, body, keep_alive, None)
}

/// [`request_bytes_with`] plus an optional bearer token
/// (`authorization: Bearer <token>`) — the client side of a
/// tenant-authenticated daemon.
pub fn request_bytes_auth(
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
    token: Option<&str>,
) -> Vec<u8> {
    let auth = match token {
        Some(t) => format!("authorization: Bearer {t}\r\n"),
        None => String::new(),
    };
    format!(
        "{method} {path} HTTP/1.1\r\nhost: tunad\r\ncontent-type: application/json\r\n{auth}content-length: {}\r\nconnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes()
}

/// Builds one-shot (`connection: close`) request bytes.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    request_bytes_with(method, path, body, false)
}

/// Splits a raw response into `(status, body)` — the client side of
/// [`Response::to_bytes`] for a one-shot connection where the body runs
/// to EOF.
///
/// # Errors
///
/// Returns a message when the bytes do not form a full response.
pub fn parse_response(raw: &[u8]) -> Result<(u16, String), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response lacks a header/body separator")?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    Ok((status, body.to_string()))
}

/// One response decoded off a keep-alive connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body (exactly `content-length` bytes).
    pub body: String,
    /// Whether the server advertised it will keep the connection open.
    pub keep_alive: bool,
}

/// Incremental response parser — the client mirror of
/// [`RequestParser`], so `tuna-ctl`'s persistent connection and the
/// pipelining tests can frame responses by `content-length` instead of
/// waiting for EOF.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// A parser with an empty buffer.
    pub fn new() -> Self {
        ResponseParser::default()
    }

    /// Appends transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a response is partially buffered.
    pub fn mid_response(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pulls the next complete response out of the buffer; `Ok(None)`
    /// when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed response framing (bad status
    /// line, missing or unparsable `content-length`).
    pub fn next_response(&mut self) -> Result<Option<WireResponse>, String> {
        let sep = b"\r\n\r\n";
        let Some(head_end) = self
            .buf
            .windows(sep.len())
            .position(|w| w == sep)
            .map(|p| p + sep.len())
        else {
            if self.buf.len() > MAX_LINE_BYTES * (MAX_HEADERS + 2) {
                return Err("response head exceeds every sane limit".into());
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let status_line = head.lines().next().unwrap_or_default();
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
        let mut content_length: Option<usize> = None;
        let mut keep_alive = true;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad content-length {value:?}"))?,
                    );
                }
                "connection" => {
                    keep_alive = !value.trim().eq_ignore_ascii_case("close");
                }
                _ => {}
            }
        }
        let n = content_length.ok_or("response lacks a content-length")?;
        if self.buf.len() < head_end + n {
            return Ok(None);
        }
        let body = String::from_utf8(self.buf[head_end..head_end + n].to_vec())
            .map_err(|_| "response body is not UTF-8".to_string())?;
        self.buf.drain(..head_end + n);
        Ok(Some(WireResponse {
            status,
            body,
            keep_alive,
        }))
    }
}

/// Splits a byte stream of consecutive keep-alive responses (as a
/// pipelined connection produces) into `(status, body)` pairs.
///
/// # Errors
///
/// Returns a message on malformed framing or a trailing partial
/// response.
pub fn split_responses(raw: &[u8]) -> Result<Vec<(u16, String)>, String> {
    let mut parser = ResponseParser::new();
    parser.feed(raw);
    let mut out = Vec::new();
    while let Some(resp) = parser.next_response()? {
        out.push((resp.status, resp.body));
    }
    if parser.mid_response() {
        return Err("trailing partial response".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        parse_request_bytes(raw)
    }

    #[test]
    fn roundtrip_request() {
        let raw = request_bytes("POST", "/v1/studies", "{\"name\": \"x\"}");
        let req = parse(&raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/studies");
        assert_eq!(req.body, "{\"name\": \"x\"}");
        assert!(req.close, "request_bytes frames connection: close");
        let keep = request_bytes_with("GET", "/healthz", "", true);
        assert!(!parse(&keep).unwrap().close);
    }

    #[test]
    fn get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
        let old = parse(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(old.close, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = b"POST /v1/studies HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"partial\":";
        match parse(raw) {
            Err(HttpError::Truncated(m)) => assert!(m.contains("truncated"), "{m}"),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let raw = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse(raw.as_bytes()) {
            Err(e) => assert_eq!(e.status(), 413),
            Ok(r) => panic!("accepted {r:?}"),
        }
    }

    #[test]
    fn chunked_encoding_is_rejected() {
        let raw = b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        let e = parse(raw).unwrap_err();
        assert!(e.message().contains("transfer-encoding"), "{e:?}");
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut parser = RequestParser::new();
        parser.feed(&request_bytes_with("GET", "/a", "", true));
        parser.feed(&request_bytes_with("POST", "/b", "{\"x\": 1}", true));
        parser.feed(&request_bytes_with("GET", "/c", "", false));
        let a = parser.next_request().unwrap().unwrap();
        let b = parser.next_request().unwrap().unwrap();
        let c = parser.next_request().unwrap().unwrap();
        assert_eq!((a.path.as_str(), a.close), ("/a", false));
        assert_eq!((b.path.as_str(), b.body.as_str()), ("/b", "{\"x\": 1}"));
        assert_eq!((c.path.as_str(), c.close), ("/c", true));
        assert!(parser.next_request().unwrap().is_none());
        assert!(!parser.mid_request());
        assert!(parser.eof_error().is_none(), "clean close between frames");
    }

    #[test]
    fn byte_at_a_time_feeding_parses_identically() {
        let raw = request_bytes_with("POST", "/v1/studies", "{\"name\": \"drip\"}", true);
        let mut parser = RequestParser::new();
        let mut got = None;
        for b in &raw {
            parser.feed(std::slice::from_ref(b));
            if let Some(req) = parser.next_request().unwrap() {
                got = Some(req);
            }
        }
        let req = got.expect("parsed by the final byte");
        assert_eq!(req.body, "{\"name\": \"drip\"}");
    }

    #[test]
    fn parser_is_dead_after_an_error() {
        let mut parser = RequestParser::new();
        parser.feed(b"BROKEN\r\n\r\n");
        assert!(parser.next_request().is_err());
        parser.feed(&request_bytes("GET", "/healthz", ""));
        assert!(
            parser.next_request().unwrap().is_none(),
            "dead parsers stay dead"
        );
        assert!(parser.eof_error().is_none());
    }

    #[test]
    fn mid_head_eof_is_truncation() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /healthz HTTP/1.1\r\nhost: x");
        assert!(parser.next_request().unwrap().is_none());
        assert!(parser.mid_request());
        match parser.eof_error() {
            Some(HttpError::Truncated(_)) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_response() {
        let resp = Response::json(201, "{\"ok\": true}");
        let (status, body) = parse_response(&resp.to_bytes()).unwrap();
        assert_eq!(status, 201);
        assert_eq!(body, "{\"ok\": true}");
    }

    #[test]
    fn keep_alive_responses_split_by_content_length() {
        let mut raw = Response::json(200, "{\"a\": 1}").to_wire(true);
        raw.extend(Response::json(404, "{\"b\": 2}").to_wire(true));
        raw.extend(Response::json(200, "{\"c\": 3}").to_wire(false));
        let parts = split_responses(&raw).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], (200, "{\"a\": 1}".to_string()));
        assert_eq!(parts[1], (404, "{\"b\": 2}".to_string()));
        assert_eq!(parts[2], (200, "{\"c\": 3}".to_string()));

        let mut parser = ResponseParser::new();
        parser.feed(&Response::json(200, "x").to_wire(false));
        let resp = parser.next_response().unwrap().unwrap();
        assert!(!resp.keep_alive);
    }

    #[test]
    fn bearer_tokens_are_extracted() {
        let raw = request_bytes_auth("GET", "/v1/studies", "", true, Some("s3cret"));
        assert_eq!(parse(&raw).unwrap().bearer.as_deref(), Some("s3cret"));
        // No header, a non-bearer scheme, or an empty token all read as
        // "no token" — the registry turns that into a 401.
        assert_eq!(parse(&request_bytes("GET", "/x", "")).unwrap().bearer, None);
        let basic = parse(b"GET /x HTTP/1.1\r\nauthorization: Basic dXNlcg==\r\n\r\n").unwrap();
        assert_eq!(basic.bearer, None);
        let empty = parse(b"GET /x HTTP/1.1\r\nauthorization: Bearer  \r\n\r\n").unwrap();
        assert_eq!(empty.bearer, None);
        let mixed = parse(b"GET /x HTTP/1.1\r\nAuthorization: bearer tok\r\n\r\n").unwrap();
        assert_eq!(mixed.bearer.as_deref(), Some("tok"));
    }

    #[test]
    fn refusals_carry_a_reason_slug() {
        let resp = Response::refusal(429, "cell-budget", "over budget");
        assert_eq!(resp.reason(), "Too Many Requests");
        let v = tuna_stats::json::parse(&resp.body).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("status").and_then(|s| s.as_f64()), Some(429.0));
        assert_eq!(
            err.get("reason").and_then(|r| r.as_str()),
            Some("cell-budget")
        );
        assert_eq!(
            err.get("message").and_then(|m| m.as_str()),
            Some("over budget")
        );
        assert_eq!(Response::json(401, "").reason(), "Unauthorized");
        assert_eq!(Response::json(403, "").reason(), "Forbidden");
    }

    #[test]
    fn error_responses_are_structured_json() {
        let resp = Response::error(400, "bad \"thing\"");
        let v = tuna_stats::json::parse(&resp.body).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("status").and_then(|s| s.as_f64()), Some(400.0));
        assert_eq!(
            err.get("message").and_then(|m| m.as_str()),
            Some("bad \"thing\"")
        );
    }

    #[test]
    fn shed_statuses_have_reasons() {
        for (status, reason) in [
            (408, "Request Timeout"),
            (429, "Too Many Requests"),
            (503, "Service Unavailable"),
        ] {
            assert_eq!(Response::json(status, "").reason(), reason);
        }
    }
}
