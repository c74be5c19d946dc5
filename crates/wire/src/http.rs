//! An HTTP/1.1 subset: framing, headers, handler trait.
//!
//! Every service in the world — Play Store frontend, offer walls,
//! attribution postbacks, the honey-app collector — speaks this
//! protocol, and the monitoring proxy parses it out of intercepted
//! plaintext ("we parse the HTTP responses that are intercepted by the
//! mitmproxy", §4.1). The subset is deliberately strict:
//!
//! * request line + headers + `Content-Length`-delimited body
//!   (no chunked transfer, no HTTP/2);
//! * CRLF line endings, case-insensitive header names;
//! * incremental parsing (a message split across deliveries
//!   reassembles), with hard caps on header and body sizes.
//!
//! Two parsing tiers share one grammar:
//!
//! * [`Request::parse`]/[`Response::parse`] build owned messages;
//!   [`Request::parse_bytes`]/[`Response::parse_bytes`] do the same but
//!   keep the body as a slice of the caller's shared delivery slab.
//! * [`RequestView`]/[`ResponseView`] borrow *everything* — header
//!   names, values and body are slices into the input buffer, with no
//!   `String` per header — which is what the monitor's intercept
//!   parsers use on the per-crawl-day hot path.

use bytes::{BufMut, Bytes, BytesMut};
use iiscope_netsim::PeerInfo;
use iiscope_types::{Error, Result, SimTime};
use std::fmt;

/// Maximum accepted header block (16 KiB).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted body (8 MiB) — an APK download is the largest
/// object in the study.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Request methods used by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

impl Method {
    fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }

    fn parse(s: &str) -> Result<Method> {
        match s {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            other => Err(Error::Decode(format!("unsupported method {other:?}"))),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Ordered, case-insensitive header map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers(Vec<(String, String)>);

impl Headers {
    /// Empty header set.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Appends a header (duplicates allowed, like real HTTP).
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.0.push((name.into(), value.into()));
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Replaces every occurrence of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.0.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.insert(name, value.into());
    }

    /// Iterates over all `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Request target as sent (path plus optional `?query`).
    pub target: String,
    /// Headers.
    pub headers: Headers,
    /// Body bytes — a shared slab; parsed requests keep a slice of the
    /// delivery buffer rather than a copy.
    pub body: Bytes,
}

impl Request {
    /// Builds a GET request for `target`.
    pub fn get(target: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            target: target.into(),
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// Builds a POST with a body.
    pub fn post(target: impl Into<String>, body: impl Into<Bytes>) -> Request {
        Request {
            method: Method::Post,
            target: target.into(),
            headers: Headers::new(),
            body: body.into(),
        }
    }

    /// The path component (target up to `?`).
    pub fn path(&self) -> &str {
        path_of(&self.target)
    }

    /// Decoded query parameters, in order of appearance.
    pub fn query(&self) -> Vec<(String, String)> {
        query_of(&self.target)
    }

    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<String> {
        query_param_of(&self.target, key)
    }

    /// Serializes onto the end of `out` (sets `Content-Length`).
    pub fn encode_into(&self, out: &mut BytesMut) {
        out.reserve(64 + self.body.len());
        out.put_slice(self.method.as_str().as_bytes());
        out.put_u8(b' ');
        out.put_slice(self.target.as_bytes());
        out.put_slice(b" HTTP/1.1\r\n");
        encode_headers(out, &self.headers, self.body.len());
        out.put_slice(&self.body);
    }

    /// Serializes to wire bytes (sets `Content-Length`).
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(64 + self.body.len());
        self.encode_into(&mut out);
        out.freeze()
    }

    /// Attempts to parse one request from the front of `buf`.
    ///
    /// Returns `Ok(None)` if incomplete, `Ok(Some((req, consumed)))` on
    /// success, and `Err` on malformed or oversized input. The body is
    /// copied out of `buf`; prefer [`Request::parse_bytes`] when the
    /// input is already a shared slab.
    pub fn parse(buf: &[u8]) -> Result<Option<(Request, usize)>> {
        let parsed = RequestView::parse(buf)?;
        Ok(parsed.map(|(view, consumed)| (view.to_owned(Bytes::copy_from_slice), consumed)))
    }

    /// Like [`Request::parse`], but the parsed body is a zero-copy
    /// slice of `buf`'s allocation.
    pub fn parse_bytes(buf: &Bytes) -> Result<Option<(Request, usize)>> {
        let parsed = RequestView::parse(buf)?;
        Ok(parsed.map(|(view, consumed)| {
            let body = buf.slice(consumed - view.body.len()..consumed);
            (view.to_owned(move |_| body), consumed)
        }))
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers.
    pub headers: Headers,
    /// Body bytes — a shared slab; parsed responses keep a slice of the
    /// delivery buffer rather than a copy.
    pub body: Bytes,
}

impl Response {
    /// A bare response with the given status.
    pub fn status(status: u16) -> Response {
        Response {
            status,
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// 200 with a JSON body and content type.
    pub fn ok_json(value: &crate::Json) -> Response {
        let mut r = Response::status(200);
        r.headers.set("Content-Type", "application/json");
        r.body = value.to_bytes();
        r
    }

    /// 200 with a plain-text body.
    pub fn ok_text(text: impl Into<String>) -> Response {
        let mut r = Response::status(200);
        r.headers.set("Content-Type", "text/plain");
        r.body = text.into().into();
        r
    }

    /// 200 with opaque bytes (APK downloads).
    pub fn ok_bytes(bytes: impl Into<Bytes>, content_type: &str) -> Response {
        let mut r = Response::status(200);
        r.headers.set("Content-Type", content_type);
        r.body = bytes.into();
        r
    }

    /// 404.
    pub fn not_found() -> Response {
        Response::status(404)
    }

    /// Canonical reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        reason_of(self.status)
    }

    /// True for 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Body interpreted as UTF-8 (lossy). Allocates; the parse paths
    /// that only need to *read* text should use [`Response::body_str`].
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Body as borrowed UTF-8 — no copy.
    pub fn body_str(&self) -> Result<&str> {
        std::str::from_utf8(&self.body).map_err(|_| Error::Decode("body is not utf-8".into()))
    }

    /// Body parsed as JSON.
    pub fn body_json(&self) -> Result<crate::Json> {
        Ok(crate::Json::parse(self.body_str()?)?)
    }

    /// Serializes onto the end of `out` (sets `Content-Length`).
    pub fn encode_into(&self, out: &mut BytesMut) {
        // Header-only responses on the serve hot path (404s, the
        // 400/408/413/431 reject statuses) have a fixed wire image —
        // one pre-encoded slice instead of line-by-line assembly.
        if self.headers.is_empty() && self.body.is_empty() {
            if let Some(wire) = preencoded_empty(self.status) {
                out.put_slice(wire);
                return;
            }
        }
        out.reserve(64 + self.body.len());
        if let Some(line) = preencoded_status_line(self.status) {
            out.put_slice(line);
        } else if (100..1000).contains(&self.status) {
            out.put_slice(b"HTTP/1.1 ");
            let status_buf = [
                b'0' + (self.status / 100) as u8,
                b'0' + (self.status / 10 % 10) as u8,
                b'0' + (self.status % 10) as u8,
            ];
            out.put_slice(&status_buf);
            out.put_u8(b' ');
            out.put_slice(self.reason().as_bytes());
            out.put_slice(b"\r\n");
        } else {
            // Out-of-range codes never occur in the world but keep the
            // encoder total.
            return self.encode_into_slow(out);
        }
        encode_headers(out, &self.headers, self.body.len());
        out.put_slice(&self.body);
    }

    fn encode_into_slow(&self, out: &mut BytesMut) {
        out.put_slice(format!("{} {}\r\n", self.status, self.reason()).as_bytes());
        encode_headers(out, &self.headers, self.body.len());
        out.put_slice(&self.body);
    }

    /// Serializes to wire bytes (sets `Content-Length`).
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(64 + self.body.len());
        self.encode_into(&mut out);
        out.freeze()
    }

    /// Attempts to parse one response from the front of `buf`
    /// (same contract as [`Request::parse`]).
    pub fn parse(buf: &[u8]) -> Result<Option<(Response, usize)>> {
        let parsed = ResponseView::parse(buf)?;
        Ok(parsed.map(|(view, consumed)| (view.to_owned(Bytes::copy_from_slice), consumed)))
    }

    /// Like [`Response::parse`], but the parsed body is a zero-copy
    /// slice of `buf`'s allocation.
    pub fn parse_bytes(buf: &Bytes) -> Result<Option<(Response, usize)>> {
        let parsed = ResponseView::parse(buf)?;
        Ok(parsed.map(|(view, consumed)| {
            let body = buf.slice(consumed - view.body.len()..consumed);
            (view.to_owned(move |_| body), consumed)
        }))
    }
}

// ---------------------------------------------------------------------
// Borrowed views — the monitor's intercept-parsing fast path.
// ---------------------------------------------------------------------

/// Borrowed header list: names and values are slices into the input
/// buffer; the only allocation is the backing `Vec` of pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderView<'a>(Vec<(&'a str, &'a str)>);

impl<'a> HeaderView<'a> {
    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(_, v)| v)
    }

    /// Iterates over all `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        self.0.iter().copied()
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn to_headers(&self) -> Headers {
        let mut h = Headers::new();
        for (n, v) in self.iter() {
            h.insert(n, v);
        }
        h
    }
}

/// A fully-borrowed parsed request: target, headers and body are
/// slices into the delivery buffer.
#[derive(Debug, Clone)]
pub struct RequestView<'a> {
    /// Method.
    pub method: Method,
    /// Request target as sent.
    pub target: &'a str,
    /// Borrowed headers.
    pub headers: HeaderView<'a>,
    /// Borrowed body.
    pub body: &'a [u8],
}

impl<'a> RequestView<'a> {
    /// Parses one request from the front of `buf` without copying any
    /// of it (same completeness contract as [`Request::parse`]).
    pub fn parse(buf: &'a [u8]) -> Result<Option<(RequestView<'a>, usize)>> {
        let Some((head, body_start)) = split_head(buf)? else {
            return Ok(None);
        };
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let method = Method::parse(parts.next().unwrap_or(""))?;
        let target = parts
            .next()
            .filter(|t| !t.is_empty())
            .ok_or_else(|| Error::Decode("missing request target".into()))?;
        if parts.next() != Some("HTTP/1.1") {
            return Err(Error::Decode("bad HTTP version".into()));
        }
        let headers = parse_header_views(lines)?;
        match read_body_range(buf, body_start, &headers)? {
            Some(consumed) => Ok(Some((
                RequestView {
                    method,
                    target,
                    headers,
                    body: &buf[body_start..consumed],
                },
                consumed,
            ))),
            None => Ok(None),
        }
    }

    /// The path component (target up to `?`).
    pub fn path(&self) -> &'a str {
        path_of(self.target)
    }

    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<String> {
        query_param_of(self.target, key)
    }

    fn to_owned(&self, make_body: impl FnOnce(&[u8]) -> Bytes) -> Request {
        Request {
            method: self.method,
            target: self.target.to_string(),
            headers: self.headers.to_headers(),
            body: make_body(self.body),
        }
    }
}

/// A fully-borrowed parsed response.
#[derive(Debug, Clone)]
pub struct ResponseView<'a> {
    /// Status code.
    pub status: u16,
    /// Borrowed headers.
    pub headers: HeaderView<'a>,
    /// Borrowed body.
    pub body: &'a [u8],
}

impl<'a> ResponseView<'a> {
    /// Parses one response from the front of `buf` without copying any
    /// of it (same completeness contract as [`Response::parse`]).
    pub fn parse(buf: &'a [u8]) -> Result<Option<(ResponseView<'a>, usize)>> {
        let Some((head, body_start)) = split_head(buf)? else {
            return Ok(None);
        };
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.splitn(3, ' ');
        if parts.next() != Some("HTTP/1.1") {
            return Err(Error::Decode("bad HTTP version".into()));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::Decode("bad status code".into()))?;
        let headers = parse_header_views(lines)?;
        match read_body_range(buf, body_start, &headers)? {
            Some(consumed) => Ok(Some((
                ResponseView {
                    status,
                    headers,
                    body: &buf[body_start..consumed],
                },
                consumed,
            ))),
            None => Ok(None),
        }
    }

    /// True for 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Body as borrowed UTF-8 — no copy.
    pub fn body_str(&self) -> Result<&'a str> {
        std::str::from_utf8(self.body).map_err(|_| Error::Decode("body is not utf-8".into()))
    }

    fn to_owned(&self, make_body: impl FnOnce(&[u8]) -> Bytes) -> Response {
        Response {
            status: self.status,
            headers: self.headers.to_headers(),
            body: make_body(self.body),
        }
    }
}

// ---------------------------------------------------------------------
// Shared grammar.
// ---------------------------------------------------------------------

fn path_of(target: &str) -> &str {
    match target.split_once('?') {
        Some((p, _)) => p,
        None => target,
    }
}

fn query_of(target: &str) -> Vec<(String, String)> {
    let raw = match target.split_once('?') {
        Some((_, q)) => q,
        None => return Vec::new(),
    };
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (pct_decode(k), pct_decode(v)),
            None => (pct_decode(kv), String::new()),
        })
        .collect()
}

fn query_param_of(target: &str, key: &str) -> Option<String> {
    let raw = match target.split_once('?') {
        Some((_, q)) => q,
        None => return None,
    };
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k, v),
            None => (kv, ""),
        })
        .find(|&(k, _)| pct_decode(k) == key)
        .map(|(_, v)| pct_decode(v))
}

fn reason_of(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        302 => "Found",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Pre-encoded status line (`HTTP/1.1 <code> <reason>\r\n`) for every
/// status in [`Response::reason`]'s table. Byte-identical to the
/// general encoder's output (asserted by tests); `None` for codes
/// outside the table, which fall back to the assembling path.
pub fn preencoded_status_line(status: u16) -> Option<&'static [u8]> {
    Some(match status {
        200 => b"HTTP/1.1 200 OK\r\n".as_slice(),
        204 => b"HTTP/1.1 204 No Content\r\n",
        302 => b"HTTP/1.1 302 Found\r\n",
        400 => b"HTTP/1.1 400 Bad Request\r\n",
        401 => b"HTTP/1.1 401 Unauthorized\r\n",
        403 => b"HTTP/1.1 403 Forbidden\r\n",
        404 => b"HTTP/1.1 404 Not Found\r\n",
        408 => b"HTTP/1.1 408 Request Timeout\r\n",
        413 => b"HTTP/1.1 413 Payload Too Large\r\n",
        429 => b"HTTP/1.1 429 Too Many Requests\r\n",
        431 => b"HTTP/1.1 431 Request Header Fields Too Large\r\n",
        500 => b"HTTP/1.1 500 Internal Server Error\r\n",
        503 => b"HTTP/1.1 503 Service Unavailable\r\n",
        _ => return None,
    })
}

/// Pre-encoded complete wire image for a header-less, body-less
/// response — the socket server's 404 and reject fast paths (400, 408,
/// 413, 431 and friends) are exactly these. Byte-identical to encoding
/// `Response::status(status)` the long way (asserted by tests).
pub fn preencoded_empty(status: u16) -> Option<&'static [u8]> {
    Some(match status {
        200 => b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n".as_slice(),
        204 => b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
        302 => b"HTTP/1.1 302 Found\r\nContent-Length: 0\r\n\r\n",
        400 => b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n",
        401 => b"HTTP/1.1 401 Unauthorized\r\nContent-Length: 0\r\n\r\n",
        403 => b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n",
        404 => b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
        408 => b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n\r\n",
        413 => b"HTTP/1.1 413 Payload Too Large\r\nContent-Length: 0\r\n\r\n",
        429 => b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n",
        431 => b"HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Length: 0\r\n\r\n",
        500 => b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n",
        503 => b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
        _ => return None,
    })
}

/// Seconds a shed client is told to back off (`Retry-After`).
pub const SHED_RETRY_AFTER_SECS: u32 = 1;

/// The load-shed response: `503 Service Unavailable` carrying a
/// `Retry-After` back-off hint. Overload gates answer with this —
/// flow control, not an error — so clients can distinguish "try again
/// shortly" from a correctness failure.
pub fn shed_503() -> Response {
    let mut r = Response::status(503);
    r.headers
        .set("Retry-After", SHED_RETRY_AFTER_SECS.to_string());
    r
}

/// Pre-encoded complete wire image of [`shed_503`] — the pre-parse
/// shed path writes this slice straight to the socket, spending no
/// encoder work on a connection it is turning away. Byte-identical to
/// `shed_503().encode()` (asserted by tests).
pub const SHED_503_WIRE: &[u8] =
    b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n";

/// Parse-error message for a header block past [`MAX_HEADER_BYTES`]
/// (the single spelling [`status_for_parse_error`] keys off).
const ERR_HEADER_TOO_LARGE: &str = "header block too large";
/// Parse-error message for a declared body past [`MAX_BODY_BYTES`].
const ERR_BODY_TOO_LARGE: &str = "body too large";

/// Maps a request parse error to the status a transport-owning server
/// (the real-socket front-end) answers before closing the connection:
/// `431` for an oversized header block, `413` for an oversized body,
/// `400` for anything else. The in-sim engine paths keep answering a
/// uniform `400` — this mapping exists only for external clients, so
/// the simulation's byte streams are untouched.
pub fn status_for_parse_error(e: &Error) -> u16 {
    match e {
        Error::Decode(msg) if msg == ERR_HEADER_TOO_LARGE => 431,
        Error::Decode(msg) if msg == ERR_BODY_TOO_LARGE => 413,
        _ => 400,
    }
}

fn encode_headers(out: &mut BytesMut, headers: &Headers, body_len: usize) {
    for (n, v) in headers.iter() {
        if n.eq_ignore_ascii_case("Content-Length") {
            continue;
        }
        out.put_slice(n.as_bytes());
        out.put_slice(b": ");
        out.put_slice(v.as_bytes());
        out.put_slice(b"\r\n");
    }
    out.put_slice(b"Content-Length: ");
    // Stack-formatted digits: the per-response `to_string` allocation
    // was measurable on the serve hot path.
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut n = body_len;
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put_slice(&digits[i..]);
    out.put_slice(b"\r\n\r\n");
}

/// Finds the end of the header block. Returns the head as UTF-8 text
/// plus the byte offset where the body starts.
fn split_head(buf: &[u8]) -> Result<Option<(&str, usize)>> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n");
    match end {
        None if buf.len() > MAX_HEADER_BYTES => Err(Error::Decode(ERR_HEADER_TOO_LARGE.into())),
        None => Ok(None),
        Some(pos) if pos > MAX_HEADER_BYTES => Err(Error::Decode(ERR_HEADER_TOO_LARGE.into())),
        Some(pos) => {
            let head = std::str::from_utf8(&buf[..pos])
                .map_err(|_| Error::Decode("headers are not utf-8".into()))?;
            Ok(Some((head, pos + 4)))
        }
    }
}

fn parse_header_views<'a>(lines: impl Iterator<Item = &'a str>) -> Result<HeaderView<'a>> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| Error::Decode(format!("malformed header line {line:?}")))?;
        headers.push((name.trim(), value.trim()));
    }
    Ok(HeaderView(headers))
}

/// Validates `Content-Length` (this is the single authoritative check —
/// downstream consumers must not re-derive it) and returns the total
/// consumed length when the body is fully buffered.
fn read_body_range(
    buf: &[u8],
    body_start: usize,
    headers: &HeaderView<'_>,
) -> Result<Option<usize>> {
    let len: usize = match headers.get("Content-Length") {
        Some(v) => v
            .parse()
            .map_err(|_| Error::Decode(format!("bad Content-Length {v:?}")))?,
        None => 0,
    };
    if len > MAX_BODY_BYTES {
        return Err(Error::Decode(ERR_BODY_TOO_LARGE.into()));
    }
    if buf.len() < body_start + len {
        return Ok(None);
    }
    Ok(Some(body_start + len))
}

fn pct_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Context passed to request handlers.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx {
    /// The connecting client.
    pub peer: PeerInfo,
    /// Time of the request.
    pub now: SimTime,
}

/// A request handler — what each simulated service implements.
pub trait Handler: Send + Sync {
    /// Produces the response for one request.
    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Response;

    /// A response this handler has already materialized for `req`, if
    /// it keeps a cache. Admission layers use the probe to exempt
    /// cache hits from load shedding (a hit is cheaper to serve than
    /// to turn away); handlers without a cache keep the default.
    fn cached(&self, _req: &Request, _ctx: &RequestCtx) -> Option<Response> {
        None
    }
}

impl<F> Handler for F
where
    F: Fn(&Request, &RequestCtx) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Response {
        self(req, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;

    #[test]
    fn request_round_trip() {
        let mut req = Request::post("/v1/telemetry?device=7", b"{\"ok\":true}".to_vec());
        req.headers.insert("Host", "collector.iiscope.net");
        let wire = req.encode();
        let (parsed, consumed) = Request::parse(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.path(), "/v1/telemetry");
        assert_eq!(parsed.query_param("device").as_deref(), Some("7"));
        assert_eq!(parsed.body, req.body);
        assert_eq!(parsed.headers.get("host"), Some("collector.iiscope.net"));
    }

    #[test]
    fn response_round_trip_json() {
        let body = Json::obj([("offers", Json::arr([Json::Int(1)]))]);
        let resp = Response::ok_json(&body);
        let wire = resp.encode();
        let (parsed, consumed) = Response::parse(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert!(parsed.is_success());
        assert_eq!(parsed.body_json().unwrap(), body);
        assert_eq!(parsed.headers.get("content-type"), Some("application/json"));
    }

    #[test]
    fn parse_bytes_shares_the_input_slab() {
        let resp = Response::ok_text("zero copy body");
        let wire = resp.encode();
        let (parsed, _) = Response::parse_bytes(&wire).unwrap().unwrap();
        assert_eq!(parsed.body, b"zero copy body");
        assert!(
            parsed.body.shares_allocation(&wire),
            "body must be a slice of the wire buffer"
        );
        let req = Request::post("/a", b"req body".to_vec());
        let rwire = req.encode();
        let (rparsed, _) = Request::parse_bytes(&rwire).unwrap().unwrap();
        assert!(rparsed.body.shares_allocation(&rwire));
    }

    #[test]
    fn views_borrow_headers_and_body() {
        let mut resp = Response::ok_text("view body");
        resp.headers.insert("X-Custom", "yes");
        let wire = resp.encode();
        let (view, consumed) = ResponseView::parse(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(view.status, 200);
        assert_eq!(view.headers.get("x-custom"), Some("yes"));
        assert_eq!(view.body, b"view body");
        assert_eq!(view.body_str().unwrap(), "view body");

        let req = Request::get("/offers?affiliate=com.cash.app&page=2");
        let rwire = req.encode();
        let (rview, _) = RequestView::parse(&rwire).unwrap().unwrap();
        assert_eq!(rview.path(), "/offers");
        assert_eq!(
            rview.query_param("affiliate").as_deref(),
            Some("com.cash.app")
        );
        assert_eq!(rview.query_param("page").as_deref(), Some("2"));
        assert_eq!(rview.query_param("missing"), None);
    }

    #[test]
    fn incremental_parse_waits_for_body() {
        let req = Request::post("/x", vec![b'a'; 10]);
        let wire = req.encode();
        assert!(Request::parse(&wire[..wire.len() - 1]).unwrap().is_none());
        assert!(Request::parse(&wire[..10]).unwrap().is_none());
        assert!(Request::parse(&wire).unwrap().is_some());
        assert!(RequestView::parse(&wire[..wire.len() - 1])
            .unwrap()
            .is_none());
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let a = Request::get("/a").encode();
        let b = Request::get("/b").encode();
        let mut both = a.to_vec();
        both.extend_from_slice(&b);
        let (first, consumed) = Request::parse(&both).unwrap().unwrap();
        assert_eq!(first.target, "/a");
        assert_eq!(consumed, a.len());
        let (second, _) = Request::parse(&both[consumed..]).unwrap().unwrap();
        assert_eq!(second.target, "/b");
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(Request::parse(b"BREW /pot HTTP/1.1\r\n\r\n").is_err());
        assert!(Request::parse(b"GET /x HTTP/2\r\n\r\n").is_err());
        assert!(Request::parse(b"GET  HTTP/1.1\r\n\r\n").is_err());
        assert!(Response::parse(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(Request::parse(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        let huge = format!(
            "GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(Request::parse(huge.as_bytes()).is_err());
        assert!(RequestView::parse(huge.as_bytes()).is_err());
    }

    #[test]
    fn oversized_headers_rejected_even_incomplete() {
        let big = vec![b'a'; MAX_HEADER_BYTES + 10];
        assert!(Request::parse(&big).is_err());
    }

    #[test]
    fn query_decoding() {
        let req = Request::get("/wall?country=US&desc=Install+%26+Register&flag");
        let q = req.query();
        assert_eq!(q[0], ("country".into(), "US".into()));
        assert_eq!(q[1], ("desc".into(), "Install & Register".into()));
        assert_eq!(q[2], ("flag".into(), String::new()));
        assert_eq!(Request::get("/plain").query(), Vec::new());
        assert_eq!(
            req.query_param("desc").as_deref(),
            Some("Install & Register")
        );
    }

    #[test]
    fn headers_case_insensitive_set_get() {
        let mut h = Headers::new();
        h.insert("X-Token", "a");
        h.insert("x-token", "b");
        assert_eq!(h.get("X-TOKEN"), Some("a"));
        h.set("X-Token", "c");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("x-token"), Some("c"));
    }

    #[test]
    fn preencoded_images_match_the_assembling_encoder() {
        // Every status with a named reason phrase has a pre-encoded
        // status line and empty-response image; both must be
        // byte-identical to what the general path assembles.
        let named = [
            200, 204, 302, 400, 401, 403, 404, 408, 413, 429, 431, 500, 503,
        ];
        for status in named {
            let line = preencoded_status_line(status).unwrap_or_else(|| panic!("line {status}"));
            let assembled = format!("HTTP/1.1 {status} {}\r\n", reason_of(status));
            assert_eq!(line, assembled.as_bytes(), "status line {status}");

            let wire = preencoded_empty(status).unwrap_or_else(|| panic!("empty {status}"));
            let assembled = format!(
                "HTTP/1.1 {status} {}\r\nContent-Length: 0\r\n\r\n",
                reason_of(status)
            );
            assert_eq!(wire, assembled.as_bytes(), "empty response {status}");
            // And the fast path inside encode_into emits the same.
            assert_eq!(wire, &Response::status(status).encode()[..]);
        }
        // Codes outside the table fall back and stay total.
        assert!(preencoded_status_line(418).is_none());
        assert!(preencoded_empty(418).is_none());
        assert_eq!(
            &Response::status(418).encode()[..],
            b"HTTP/1.1 418 Unknown\r\nContent-Length: 0\r\n\r\n"
        );
    }

    #[test]
    fn shed_image_matches_the_assembling_encoder() {
        // The overload fast path writes SHED_503_WIRE verbatim; it
        // must be exactly what encoding the shed response produces.
        assert_eq!(&shed_503().encode()[..], SHED_503_WIRE);
        let (resp, consumed) = Response::parse(SHED_503_WIRE).unwrap().unwrap();
        assert_eq!(consumed, SHED_503_WIRE.len());
        assert_eq!(resp.status, 503);
        assert_eq!(
            resp.headers.get("Retry-After"),
            Some(SHED_RETRY_AFTER_SECS.to_string().as_str())
        );
        assert!(resp.body.is_empty());
    }

    #[test]
    fn content_length_digits_cover_all_magnitudes() {
        for len in [0usize, 1, 9, 10, 99, 100, 12345, 1_000_000] {
            let resp = Response::ok_bytes(vec![b'x'; len], "application/octet-stream");
            let wire = resp.encode();
            let text = String::from_utf8_lossy(&wire);
            assert!(
                text.contains(&format!("Content-Length: {len}\r\n")),
                "{len}"
            );
            let (parsed, consumed) = Response::parse(&wire).unwrap().unwrap();
            assert_eq!(consumed, wire.len());
            assert_eq!(parsed.body.len(), len);
        }
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(Response::status(200).reason(), "OK");
        assert_eq!(Response::status(429).reason(), "Too Many Requests");
        assert_eq!(
            Response::status(431).reason(),
            "Request Header Fields Too Large"
        );
        assert_eq!(Response::status(413).reason(), "Payload Too Large");
        assert_eq!(Response::status(999).reason(), "Unknown");
        assert!(!Response::not_found().is_success());
    }

    #[test]
    fn parse_errors_classify_for_socket_servers() {
        let oversized_headers = Request::parse(&vec![b'a'; MAX_HEADER_BYTES + 10]).unwrap_err();
        assert_eq!(status_for_parse_error(&oversized_headers), 431);
        let huge_body = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let oversized_body = Request::parse(huge_body.as_bytes()).unwrap_err();
        assert_eq!(status_for_parse_error(&oversized_body), 413);
        let garbage = Request::parse(b"NONSENSE\r\n\r\n").unwrap_err();
        assert_eq!(status_for_parse_error(&garbage), 400);
    }
}
