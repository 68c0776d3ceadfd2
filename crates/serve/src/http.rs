//! A minimal HTTP/1.1 subset over `std::net` streams.
//!
//! Supports exactly what the service needs: `Content-Length` bodies, an
//! 8 KiB header cap, a 1 MiB body cap, and persistent connections.
//! HTTP/1.1 requests default to keep-alive (`Connection: close` opts
//! out); HTTP/1.0 requests default to close (`Connection: keep-alive`
//! opts in). Requests on one connection are handled strictly in order —
//! a client may pipeline (write several requests before reading), and
//! responses come back in request order with `Content-Length` framing.
//! Chunked transfer encoding and continuation lines are rejected or
//! ignored by design.
//!
//! Bytes a client sends beyond the current request's body (the next
//! pipelined request) are preserved in the caller-owned `carry` buffer
//! and consumed by the next [`read_request`] call; they are never
//! silently dropped. [`read_request`] reads from any [`Read`], so the
//! parser is tested on in-memory byte streams cut at arbitrary points.

use std::io::{self, Read, Write};
use std::sync::Arc;

use dls_experiments::json::put_str;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path (query string stripped), body, and the
/// connection disposition it asked for.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request path without any `?query` suffix.
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by a `Connection` header).
    pub keep_alive: bool,
}

impl Request {
    /// Body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Malformed request line/headers, or over a size cap; the given
    /// status and message should be written back, then the connection
    /// closed (framing can no longer be trusted).
    Bad(u16, String),
    /// The socket failed or timed out mid-request; nothing can be
    /// written.
    Io(io::Error),
    /// The peer closed the connection cleanly between requests (no
    /// buffered or partial request bytes). Not an error on a keep-alive
    /// connection — just the end of it.
    Closed,
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read one request from the stream. `carry` holds bytes already read
/// past the previous request's body (pipelined input); on return it holds
/// the bytes past *this* request's body. Pass the same buffer for every
/// request on a connection. The caller is responsible for setting read
/// timeouts on the stream beforehand.
pub fn read_request(stream: &mut impl Read, carry: &mut Vec<u8>) -> Result<Request, ReadError> {
    let too_large = || ReadError::Bad(431, "request head exceeds 8 KiB".into());
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 1024];
    // The cap counts the head's bytes before the blank line, however the
    // reads split them: a head within the cap has ended before `buf`
    // holds the cap plus the blank line's four bytes.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES + 4 {
            return Err(too_large());
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(ReadError::Closed);
            }
            return Err(ReadError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before request head",
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(too_large());
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Bad(400, "request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Bad(400, "empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Bad(400, "missing request target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    // HTTP/1.1 defaults to persistent connections; everything else (1.0,
    // or no version token at all) defaults to close.
    let mut keep_alive = parts.next() == Some("HTTP/1.1");

    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Bad(400, "invalid Content-Length".into()))?;
                // Differing values make the body's framing ambiguous: a
                // proxy that honours another one would frame a different
                // body (request smuggling). RFC 9112 §6.3 requires a 400;
                // identical repeats are allowed (RFC 9110 §8.6).
                if content_length.is_some_and(|prev| prev != length) {
                    return Err(ReadError::Bad(
                        400,
                        "conflicting Content-Length headers".into(),
                    ));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(ReadError::Bad(
                    501,
                    "transfer encodings are not supported".into(),
                ));
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::Bad(413, "request body exceeds 1 MiB".into()));
    }

    let body_start = head_end + 4;
    let total = body_start + content_length;
    while buf.len() < total {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ReadError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf[body_start..total].to_vec();
    // Anything past this request's body is the start of the next
    // pipelined request — keep it for the next read_request call.
    carry.extend_from_slice(&buf[total..]);

    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The declared `Content-Length` of a raw request head (everything before
/// the blank line), if present and parseable. Used by the load-shedding
/// path to drain exactly the body the client is sending before
/// responding.
pub(crate) fn declared_content_length(head: &[u8]) -> usize {
    let Ok(head) = std::str::from_utf8(head) else {
        return 0;
    };
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                return value.trim().parse().unwrap_or(0);
            }
        }
    }
    0
}

/// The service's API version tag: sent as the `X-API-Version` header on
/// every response and as the `api_version` field of every JSON body.
/// Endpoints are also reachable under a `/v1/...` path prefix; see
/// `docs/SERVICE.md` for the stability contract.
pub const API_VERSION: &str = "v1";

/// Stable machine-readable error code for an HTTP failure status. Part of
/// the v1 error contract: clients dispatch on `code`, not on the
/// free-form `error` text.
pub fn error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        413 => "payload_too_large",
        422 => "unprocessable",
        431 => "headers_too_large",
        501 => "not_implemented",
        503 => "unavailable",
        _ => "internal",
    }
}

/// The reason phrase of the status line: one per status the service
/// sends.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// One response: the status, the content type, the body, and any extra
/// header lines. A body is shared, not copied, with the caches and the
/// job table that serve it again.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code; the reason phrase follows from it.
    pub status: u16,
    /// The `Content-Type` header's value.
    pub content_type: &'static str,
    /// The body.
    pub body: Arc<String>,
    /// Extra header lines, each ended by CRLF.
    pub headers: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Arc<String>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            headers: String::new(),
        }
    }

    /// A `200 OK` response of another content type.
    pub fn text(content_type: &'static str, body: String) -> Self {
        Response {
            content_type,
            ..Response::json(200, body)
        }
    }

    /// The unified JSON error body (v1 contract):
    /// `{"api_version", "code", "error", "detail"}`. `code` is the stable
    /// slug of the status ([`error_code`]), `error` the one-line message,
    /// and `detail` is always `null`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::with_capacity(72 + message.len());
        put_str(&mut body, r#"{"api_version":"#, API_VERSION);
        put_str(&mut body, r#","code":"#, error_code(status));
        put_str(&mut body, r#","error":"#, message);
        body.push_str(r#","detail":null}"#);
        Response::json(status, body)
    }

    /// Add the header line `name: value`.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        for part in [name, ": ", value, "\r\n"] {
            self.headers.push_str(part);
        }
        self
    }

    /// Write the response and flush. `keep_alive` selects the
    /// `Connection` header; every other byte is the same either way. The
    /// answer to a `HEAD` request (`head_only`) ends after its headers,
    /// whose `Content-Length` still counts the body it leaves out
    /// (RFC 9110 §9.3.2).
    pub fn write(
        &self,
        stream: &mut impl Write,
        keep_alive: bool,
        head_only: bool,
    ) -> io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut wire = Vec::with_capacity(160 + self.headers.len() + self.body.len());
        let _ = write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\nX-API-Version: {API_VERSION}\r\n{}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            self.headers,
        );
        // One write: head + body in separate segments would trip the
        // Nagle / delayed-ACK interaction (~40 ms per response).
        if !head_only {
            wire.extend_from_slice(self.body.as_bytes());
        }
        stream.write_all(&wire)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::TcpStream;

    #[test]
    fn response_head_follows_from_the_status() {
        let mut wire = Vec::new();
        let response = Response::error(503, "queue \"full\"").header("Retry-After", "1");
        response.write(&mut wire, false, false).unwrap();
        let mut head_only = Vec::new();
        response.write(&mut head_only, false, true).unwrap();
        let body =
            r#"{"api_version":"v1","code":"unavailable","error":"queue \"full\"","detail":null}"#;
        let head = format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\nX-API-Version: v1\r\n\
             Retry-After: 1\r\n\r\n",
            body.len()
        );
        assert_eq!(String::from_utf8(head_only).unwrap(), head);
        assert_eq!(String::from_utf8(wire).unwrap(), head + body);
    }

    #[test]
    fn finds_head_boundary() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn declared_content_length_parses_head() {
        assert_eq!(
            declared_content_length(b"POST /x HTTP/1.1\r\nContent-Length: 42\r\nHost: a"),
            42
        );
        assert_eq!(
            declared_content_length(b"POST /x HTTP/1.1\r\ncontent-length:7"),
            7
        );
        assert_eq!(declared_content_length(b"GET / HTTP/1.1\r\nHost: a"), 0);
        assert_eq!(
            declared_content_length(b"POST /x HTTP/1.1\r\nContent-Length: nope"),
            0
        );
    }

    #[test]
    fn pipelined_requests_round_trip_through_carry() {
        // Two requests written back-to-back: the first read must stop at
        // the first body's end and leave the second request in `carry`.
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcPOST /b HTTP/1.1\r\nConnection: close\r\nContent-Length: 2\r\n\r\nxy";
        // Drive the parser through a loopback socket so the real
        // `read_request` path (TcpStream reads) is exercised.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(wire).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut carry = Vec::new();

        let first = read_request(&mut stream, &mut carry).expect("first request");
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"abc");
        assert!(first.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(carry.starts_with(b"POST /b"), "second request preserved");

        let second = read_request(&mut stream, &mut carry).expect("second request");
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"xy");
        assert!(!second.keep_alive, "Connection: close honored");
        assert!(carry.is_empty());

        // The peer is done writing; a further read sees a clean close.
        writer.join().unwrap();
        match read_request(&mut stream, &mut carry) {
            Err(ReadError::Closed) => {}
            other => panic!("expected clean close, got {other:?}"),
        }
    }

    /// SplitMix64: builds each case's input from its proptest seed (the
    /// vendored proptest has no collection strategies).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    /// A reader that hands its bytes out in slices of random size, from
    /// one byte up to all that is left or fits the caller's buffer
    /// (log-uniform, so single bytes and full buffers are both common).
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        mix: Mix,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let left = (self.data.len() - self.pos).min(buf.len());
            if left == 0 {
                return Ok(0);
            }
            let most = (1usize << self.mix.range(0, 11)).min(left);
            let n = self.mix.range(1, most);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// One `read_request` outcome, in a form that compares.
    #[derive(Debug, PartialEq)]
    enum Parsed {
        Request {
            method: String,
            path: String,
            body: Vec<u8>,
            keep_alive: bool,
        },
        Bad(u16),
        Io(io::ErrorKind),
        Closed,
    }

    /// Read requests off `stream` up to and including the first error.
    fn parse_all(stream: &mut impl Read) -> Vec<Parsed> {
        let mut carry = Vec::new();
        let mut out = Vec::new();
        loop {
            let parsed = match read_request(stream, &mut carry) {
                Ok(r) => Parsed::Request {
                    method: r.method,
                    path: r.path,
                    body: r.body,
                    keep_alive: r.keep_alive,
                },
                Err(ReadError::Bad(status, _)) => Parsed::Bad(status),
                Err(ReadError::Io(e)) => Parsed::Io(e.kind()),
                Err(ReadError::Closed) => Parsed::Closed,
            };
            let done = !matches!(parsed, Parsed::Request { .. });
            out.push(parsed);
            if done {
                return out;
            }
        }
    }

    /// A well-formed request (random method and path, with or without a
    /// query and a `Connection` header, a body of up to 2 KiB) and what
    /// it must parse to.
    fn well_formed(mix: &mut Mix) -> (Vec<u8>, Parsed) {
        let method = ["GET", "POST", "PUT", "DELETE"][mix.range(0, 3)];
        let mut path = String::new();
        for _ in 0..mix.range(1, 3) {
            path.push('/');
            for _ in 0..mix.range(0, 8) {
                path.push(char::from(b'a' + mix.range(0, 25) as u8));
            }
        }
        let query = match mix.range(0, 1) {
            0 => String::new(),
            _ => format!("?q={}", mix.range(0, 999)),
        };
        let (connection, keep_alive) = match mix.range(0, 2) {
            0 => ("", true),
            1 => ("Connection: close\r\n", false),
            _ => ("Connection: keep-alive\r\n", true),
        };
        let len = mix.range(0, 2048);
        let body = mix.bytes(len);
        let mut wire = format!(
            "{method} {path}{query} HTTP/1.1\r\nHost: test\r\n{connection}Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        let parsed = Parsed::Request {
            method: method.into(),
            path,
            body,
            keep_alive,
        };
        (wire, parsed)
    }

    /// Arbitrary input: random bytes (mostly not UTF-8), a request whose
    /// head is near or over the 8 KiB cap, or a run of request-shaped
    /// fragments and junk.
    fn arbitrary(mix: &mut Mix) -> Vec<u8> {
        match mix.range(0, 2) {
            0 => {
                let len = mix.range(0, 12 * 1024);
                mix.bytes(len)
            }
            1 => {
                let mut wire = b"POST /plan HTTP/1.1\r\nX-Pad: ".to_vec();
                let pad = mix.range(MAX_HEAD_BYTES - 512, MAX_HEAD_BYTES + 1536);
                wire.resize(pad, b'a');
                wire.extend_from_slice(b"\r\nContent-Length: 3\r\n\r\nabc");
                wire
            }
            _ => {
                const PARTS: [&[u8]; 12] = [
                    b"GET / HTTP/1.1",
                    b"POST /simulate HTTP/1.0",
                    b"\r\n",
                    b"\r\n\r\n",
                    b"Content-Length: 5",
                    b"Content-Length: 99999999",
                    b"Content-Length: x",
                    b"Connection: close",
                    b"Transfer-Encoding: chunked",
                    b"\xff\xfe",
                    b" ",
                    b"",
                ];
                let mut wire = Vec::new();
                for _ in 0..mix.range(0, 40) {
                    if mix.range(0, 3) == 0 {
                        let len = mix.range(0, 16);
                        wire.extend(mix.bytes(len));
                    } else {
                        wire.extend_from_slice(PARTS[mix.range(0, PARTS.len() - 1)]);
                    }
                }
                wire
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pipelined well-formed requests parse to what was sent, the
        /// same from one whole read as from slices of random size.
        #[test]
        fn pipelined_requests_parse_the_same_however_they_arrive(seed in 0u64..u64::MAX) {
            let mut mix = Mix(seed);
            let mut wire = Vec::new();
            let mut expected = Vec::new();
            for _ in 0..mix.range(1, 4) {
                let (bytes, parsed) = well_formed(&mut mix);
                wire.extend_from_slice(&bytes);
                expected.push(parsed);
            }
            expected.push(Parsed::Closed);
            prop_assert_eq!(&parse_all(&mut wire.as_slice()), &expected);
            let mut trickle = Trickle { data: wire, pos: 0, mix };
            prop_assert_eq!(&parse_all(&mut trickle), &expected);
        }

        /// Arbitrary bytes end in a request or a `ReadError`, never a
        /// panic, and how they are cut into reads does not change which.
        #[test]
        fn arbitrary_bytes_parse_the_same_however_they_arrive(seed in 0u64..u64::MAX) {
            let mut mix = Mix(seed);
            let wire = arbitrary(&mut mix);
            let whole = parse_all(&mut wire.as_slice());
            let mut trickle = Trickle { data: wire, pos: 0, mix };
            prop_assert_eq!(parse_all(&mut trickle), whole);
        }
    }
}
