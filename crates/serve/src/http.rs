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
//! silently dropped.

use std::io::{self, Read, Write};
use std::net::TcpStream;

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
    /// status/reason should be written back, then the connection closed
    /// (framing can no longer be trusted).
    Bad(u16, &'static str, String),
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
pub fn read_request(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Result<Request, ReadError> {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::Bad(
                431,
                "Request Header Fields Too Large",
                "request head exceeds 8 KiB".into(),
            ));
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

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Bad(400, "Bad Request", "request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Bad(400, "Bad Request", "empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Bad(400, "Bad Request", "missing request target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    // HTTP/1.1 defaults to persistent connections; everything else (1.0,
    // or no version token at all) defaults to close.
    let mut keep_alive = parts.next() == Some("HTTP/1.1");

    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let length = value.trim().parse().map_err(|_| {
                    ReadError::Bad(400, "Bad Request", "invalid Content-Length".into())
                })?;
                // Differing values make the body's framing ambiguous: a
                // proxy that honours another one would frame a different
                // body (request smuggling). RFC 9112 §6.3 requires a 400;
                // identical repeats are allowed (RFC 9110 §8.6).
                if content_length.is_some_and(|prev| prev != length) {
                    return Err(ReadError::Bad(
                        400,
                        "Bad Request",
                        "conflicting Content-Length headers".into(),
                    ));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(ReadError::Bad(
                    501,
                    "Not Implemented",
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
        return Err(ReadError::Bad(
            413,
            "Payload Too Large",
            "request body exceeds 1 MiB".into(),
        ));
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

/// The unified JSON error body (v1 contract):
/// `{"api_version", "code", "error", "detail"}`. `code` is the stable
/// machine-readable slug for the status, `error` the one-line human
/// message, `detail` an optional longer hint (`null` when absent).
pub fn error_body(status: u16, message: &str, detail: Option<&str>) -> String {
    let escape = dls_experiments::json::json_escape;
    let detail = match detail {
        Some(d) => format!("\"{}\"", escape(d)),
        None => "null".to_string(),
    };
    format!(
        "{{\"api_version\":\"{API_VERSION}\",\"code\":\"{}\",\"error\":\"{}\",\"detail\":{detail}}}",
        error_code(status),
        escape(message)
    )
}

/// Write a complete response and flush. `extra_headers` lines must be
/// pre-formatted without the trailing CRLF (e.g. `"Retry-After: 1"`).
/// `keep_alive` selects the `Connection` header; the status line, body,
/// and every other header are byte-identical either way.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[&str],
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\nX-API-Version: {API_VERSION}\r\n",
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write: head + body in separate segments would trip the
    // Nagle / delayed-ACK interaction (~40 ms per response).
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    stream.flush()
}

/// Convenience: the unified JSON error body (see [`error_body`]) with the
/// given status.
pub fn write_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    message: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response(
        stream,
        status,
        reason,
        "application/json",
        error_body(status, message, None).as_bytes(),
        &[],
        keep_alive,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
