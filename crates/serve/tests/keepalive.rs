//! Keep-alive, pipelining, response-cache, engine-slot and shutdown tests
//! against a real listening server.
//!
//! The load-bearing contract: a response's *body* is byte-identical
//! whether the request arrived on a fresh connection, a reused keep-alive
//! connection, or pipelined behind another request — and whether it was
//! computed by the engine or served from the response cache.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use dls_serve::{Server, ServerConfig};

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_bound: 64,
        cache_capacity: 16,
        sim_cache_capacity: 16,
        shards: 2,
        keep_alive_timeout_ms: 2_000,
        max_events: 10_000_000,
        handler_delay_ms: 0,
        job_capacity: 8,
        ..ServerConfig::default()
    }
}

const PLAN: &str = r#"{"platform": {"homogeneous": {"n": 8, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "scheduler": {"kind": "umr"}, "w_total": 1000}"#;

const SIMULATE: &str = r#"{"platform": {"homogeneous": {"n": 8, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "w_total": 1000,
    "error_model": {"kind": "normal", "error": 0.3},
    "run": {"scheduler": {"kind": "rumr", "error_estimate": 0.3}, "seed": 7, "reps": 2}}"#;

fn request_head(method: &str, path: &str, body_len: usize, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {body_len}\r\n{connection}\r\n"
    )
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    stream
        .write_all(request_head(method, path, body.len(), close).as_bytes())
        .unwrap();
    stream.write_all(body.as_bytes()).unwrap();
}

/// Read one response head (through its blank line) off the stream and
/// return its status, head text and `Content-Length`. `carry` holds bytes
/// already read past the previous response (pipelined responses arrive
/// back-to-back); on return it holds the bytes past this head.
fn read_head(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, usize) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(carry[..head_end].to_vec()).expect("utf8 head");
    carry.drain(..head_end + 4);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_length: usize = head
        .split("\r\n")
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header");
    (status, head, content_length)
}

/// Read exactly one `Content-Length`-framed response off the stream;
/// `carry` works as in [`read_head`].
fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
    let (status, head, content_length) = read_head(stream, carry);
    let mut chunk = [0u8; 4096];
    while carry.len() < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(carry.drain(..content_length).collect()).expect("utf8 body");
    (status, head, body)
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// One close-per-request exchange (the baseline the keep-alive responses
/// are compared against).
fn close_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    let mut stream = connect(addr);
    send(&mut stream, method, path, body, true);
    let mut carry = Vec::new();
    let response = read_framed(&mut stream, &mut carry);
    // The server promised to close: no trailing bytes, then EOF.
    assert!(carry.is_empty(), "unsolicited bytes after the response");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    response
}

#[test]
fn sequential_keep_alive_matches_close_per_request() {
    let server = Server::start(config()).expect("server binds");
    let addr = server.addr;

    // Baselines on dedicated connections.
    let (_, _, plan_baseline) = close_request(addr, "POST", "/plan", PLAN);
    let (_, _, sim_baseline) = close_request(addr, "POST", "/simulate", SIMULATE);
    let (_, _, health_baseline) = close_request(addr, "GET", "/healthz", "");

    // The same three requests over ONE connection.
    let mut stream = connect(addr);
    let mut carry = Vec::new();
    for (method, path, body, baseline) in [
        ("POST", "/plan", PLAN, &plan_baseline),
        ("POST", "/simulate", SIMULATE, &sim_baseline),
        ("GET", "/healthz", "", &health_baseline),
    ] {
        send(&mut stream, method, path, body, false);
        let (status, head, got) = read_framed(&mut stream, &mut carry);
        assert_eq!(status, 200, "{path}: {got}");
        assert!(
            head.contains("Connection: keep-alive"),
            "{path} head: {head}"
        );
        assert_eq!(&got, baseline, "{path}: keep-alive body differs");
    }

    // Opting out mid-connection is honored.
    send(&mut stream, "GET", "/healthz", "", true);
    let (status, head, _) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "head: {head}");
    assert!(carry.is_empty(), "unsolicited bytes after the response");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");
    server.shutdown();
}

/// The answer to `HEAD` is its status line and headers only (RFC 9110
/// §9.3.2), so the next response on the connection starts right after
/// them. No endpoint serves `HEAD`: a known path answers 405, an unknown
/// one 404, each with the `Content-Length` of the error body it omits.
#[test]
fn head_response_has_no_body_on_keep_alive() {
    let server = Server::start(config()).expect("server binds");
    let mut stream = connect(server.addr);
    let mut carry = Vec::new();
    for (path, want) in [("/v1/plan", 405), ("/nowhere", 404), ("/healthz", 405)] {
        send(&mut stream, "HEAD", path, "", false);
        let (status, head, content_length) = read_head(&mut stream, &mut carry);
        assert_eq!(status, want, "HEAD {path}: {head}");
        assert!(content_length > 0, "HEAD {path}: {head}");
        assert!(
            head.contains("Connection: keep-alive"),
            "HEAD {path}: {head}"
        );
        send(&mut stream, "GET", "/healthz", "", false);
        let (status, _, body) = read_framed(&mut stream, &mut carry);
        assert_eq!(
            (status, body.as_str()),
            (200, "ok\n"),
            "GET after HEAD {path}"
        );
    }
    assert!(carry.is_empty(), "bytes beyond the last response");
    server.shutdown();
}

#[test]
fn pipelined_requests_get_in_order_byte_identical_responses() {
    let server = Server::start(config()).expect("server binds");
    let addr = server.addr;
    let (_, _, sim_baseline) = close_request(addr, "POST", "/simulate", SIMULATE);
    let (_, _, plan_baseline) = close_request(addr, "POST", "/plan", PLAN);

    // Three requests written back-to-back before reading anything.
    let mut stream = connect(addr);
    let mut wire = Vec::new();
    for (method, path, body) in [
        ("POST", "/simulate", SIMULATE),
        ("POST", "/plan", PLAN),
        ("POST", "/simulate", SIMULATE),
    ] {
        wire.extend_from_slice(request_head(method, path, body.len(), false).as_bytes());
        wire.extend_from_slice(body.as_bytes());
    }
    stream.write_all(&wire).unwrap();

    // Responses come back in request order, each correctly framed; one
    // carry threads the reads because the framed responses arrive
    // back-to-back on the wire.
    let mut carry = Vec::new();
    let (status, _, first) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200, "{first}");
    assert_eq!(first, sim_baseline);
    let (status, _, second) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200, "{second}");
    assert_eq!(second, plan_baseline);
    let (status, _, third) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200, "{third}");
    assert_eq!(third, sim_baseline);
    assert!(carry.is_empty(), "bytes beyond the third response");
    server.shutdown();
}

#[test]
fn malformed_second_request_answers_then_closes() {
    let server = Server::start(config()).expect("server binds");
    let mut stream = connect(server.addr);

    let mut carry = Vec::new();
    send(&mut stream, "GET", "/healthz", "", false);
    let (status, _, body) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    // A request line with no target: framing can no longer be trusted, so
    // the server must answer 400 with Connection: close and drop the
    // connection.
    stream.write_all(b"BOGUS\r\n\r\n").unwrap();
    let (status, head, body) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 400, "{body}");
    assert!(head.contains("Connection: close"), "head: {head}");
    assert!(body.contains("\"error\""));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must be closed after a 400");
    server.shutdown();
}

#[test]
fn duplicate_content_lengths_must_agree() {
    let server = Server::start(config()).expect("server binds");
    let addr = server.addr;
    let head = |first: usize, second: usize| {
        format!(
            "POST /plan HTTP/1.1\r\nHost: test\r\nContent-Length: {first}\r\n\
             Content-Length: {second}\r\n\r\n"
        )
    };

    // Identical repeats frame one body unambiguously: served as usual.
    let (_, _, baseline) = close_request(addr, "POST", "/plan", PLAN);
    let mut stream = connect(addr);
    let mut wire = head(PLAN.len(), PLAN.len()).into_bytes();
    wire.extend_from_slice(PLAN.as_bytes());
    stream.write_all(&wire).unwrap();
    let mut carry = Vec::new();
    let (status, _, body) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, baseline);

    // Conflicting values: a proxy honouring the other one would frame a
    // different body (request smuggling), so the head alone earns a 400
    // and a closed connection. The body is never sent, so the server's
    // close leaves no unread bytes behind to turn into a reset.
    let mut stream = connect(addr);
    stream
        .write_all(head(PLAN.len(), PLAN.len() - 1).as_bytes())
        .unwrap();
    let (status, head, body) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 400, "{body}");
    assert!(head.contains("Connection: close"), "head: {head}");
    assert!(body.contains("conflicting Content-Length"), "{body}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must be closed after a 400");
    server.shutdown();
}

#[test]
fn response_cache_serves_byte_identical_hits_across_connections() {
    let server = Server::start(config()).expect("server binds");
    let addr = server.addr;

    // Three connections, same request: first computes (miss), the rest
    // are served from the response cache — byte-identical, flagged, and
    // counted, regardless of which worker/shard pair handled the miss.
    let (status, head, first) = close_request(addr, "POST", "/simulate", SIMULATE);
    assert_eq!(status, 200, "{first}");
    assert!(head.contains("X-Sim-Cache: miss"), "head: {head}");
    for _ in 0..2 {
        let (status, head, body) = close_request(addr, "POST", "/simulate", SIMULATE);
        assert_eq!(status, 200);
        assert!(head.contains("X-Sim-Cache: hit"), "head: {head}");
        assert_eq!(body, first, "cache hit must be byte-identical");
    }
    assert_eq!(server.metrics().sim_cache_hits(), 2);

    // The counters are on /metrics too.
    let (_, _, metrics) = close_request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("dls_serve_sim_cache_hits_total 2"),
        "{metrics}"
    );
    assert!(metrics.contains("dls_serve_sim_cache_evictions_total 0"));
    server.shutdown();
}

#[test]
fn retired_queue_key_is_ignored() {
    // `config.queue` used to pick the engine's event-queue backend. The
    // engine now has one queue and the decoder no longer reads the key,
    // so a client that still sends it gets the same bytes from the same
    // cache entry.
    let with_key = SIMULATE.replace(
        "\"reps\": 2}",
        "\"reps\": 2, \"config\": {\"queue\": \"heap\"}}",
    );
    assert_ne!(with_key, SIMULATE);

    // Computed both ways (response cache off): byte-identical bodies.
    let server = Server::start(ServerConfig {
        sim_cache_capacity: 0,
        ..config()
    })
    .expect("server binds");
    let (status, _, computed) = close_request(server.addr, "POST", "/v1/simulate", &with_key);
    assert_eq!(status, 200, "{computed}");
    let (_, _, baseline) = close_request(server.addr, "POST", "/v1/simulate", SIMULATE);
    assert_eq!(computed, baseline);
    server.shutdown();

    // Cache on: the keyed request fills the entry the plain one hits, so
    // both canonicalize to the same cache key.
    let server = Server::start(config()).expect("server binds");
    let (status, head, first) = close_request(server.addr, "POST", "/v1/simulate", &with_key);
    assert_eq!(status, 200, "{first}");
    assert!(head.contains("X-Sim-Cache: miss"), "head: {head}");
    let (status, head, second) = close_request(server.addr, "POST", "/v1/simulate", SIMULATE);
    assert_eq!(status, 200, "{second}");
    assert!(head.contains("X-Sim-Cache: hit"), "head: {head}");
    assert_eq!(second, first);
    server.shutdown();
}

#[test]
fn engine_slots_bound_concurrent_simulate_runs() {
    // The handler delay stands in for engine time inside a slot: with one
    // slot, two engine runs sent at once on two connections take turns;
    // with two slots they overlap. Cache off, so both reach the engine.
    const DELAY: Duration = Duration::from_millis(400);
    for (shards, by_slot) in [(1, vec![(0, 2)]), (2, vec![(0, 1), (1, 1)])] {
        let server = Server::start(ServerConfig {
            sim_cache_capacity: 0,
            shards,
            handler_delay_ms: DELAY.as_millis() as u64,
            ..config()
        })
        .expect("server binds");
        let addr = server.addr;
        let both_connected = Arc::new(Barrier::new(3));
        let clients: Vec<_> = (0..2)
            .map(|seed| {
                let body = SIMULATE.replace("\"seed\": 7", &format!("\"seed\": {seed}"));
                let both_connected = Arc::clone(&both_connected);
                thread::spawn(move || {
                    let mut stream = connect(addr);
                    both_connected.wait();
                    send(&mut stream, "POST", "/simulate", &body, true);
                    read_framed(&mut stream, &mut Vec::new()).0
                })
            })
            .collect();
        both_connected.wait();
        let start = Instant::now();
        for client in clients {
            assert_eq!(client.join().unwrap(), 200);
        }
        let elapsed = start.elapsed();
        if shards == 1 {
            assert!(
                elapsed >= 2 * DELAY,
                "one slot ran two at once: {elapsed:?}"
            );
        } else {
            assert!(elapsed < 2 * DELAY, "two slots took turns: {elapsed:?}");
        }
        let runs = server.metrics().shard_requests();
        assert_eq!(
            runs.into_iter().collect::<Vec<_>>(),
            by_slot,
            "{shards} slots"
        );
        let (_, _, metrics) = close_request(addr, "GET", "/metrics", "");
        for (slot, runs) in by_slot {
            let line = format!("dls_serve_shard_requests_total{{shard=\"{slot}\"}} {runs}");
            assert!(metrics.contains(&line), "{metrics}");
        }
        server.shutdown();
    }
}

#[test]
fn a_run_in_flight_at_shutdown_is_answered_with_connection_close() {
    // The request asked to keep the connection; shutdown starts once its
    // engine run holds a slot, while it sleeps in the handler delay. The
    // run finishes, and its answer is the connection's last.
    let server = Server::start(ServerConfig {
        sim_cache_capacity: 0,
        handler_delay_ms: 600,
        ..config()
    })
    .expect("server binds");
    let mut stream = connect(server.addr);
    send(&mut stream, "POST", "/simulate", SIMULATE, false);
    while server.metrics().shard_requests().is_empty() {
        thread::sleep(Duration::from_millis(5));
    }
    server.request_shutdown();
    let mut carry = Vec::new();
    let (status, head, body) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Connection: close"), "head: {head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(
        carry.is_empty() && rest.is_empty(),
        "bytes after the last answer"
    );
    server.join();
}

#[test]
fn audits_are_counted_before_the_next_response() {
    // An analytic answer's audit runs after its response is written and
    // before the connection's next request is read: once the response to
    // the next request arrives, the audit and its verdict are counted.
    // The hook makes every audit diverge, so the verdicts show too.
    let server = Server::start(ServerConfig {
        fastpath_audit_pct: 100,
        fastpath_divergence_inject: true,
        ..config()
    })
    .expect("server binds");
    let eligible = r#"{"platform": {"homogeneous": {"n": 8, "ratio": 1.5,
        "comp_latency": 0.2, "net_latency": 0.1}},
        "w_total": 1000,
        "run": {"scheduler": {"kind": "umr"}, "seed": 3, "reps": 2}}"#;
    let mut stream = connect(server.addr);
    let mut carry = Vec::new();
    for (path, body) in [("/plan", PLAN), ("/simulate", eligible)] {
        send(&mut stream, "POST", path, body, false);
        let (status, head, response) = read_framed(&mut stream, &mut carry);
        assert_eq!(status, 200, "{path}: {response}");
        assert!(head.contains("X-Answer-Source: analytic"), "{path}: {head}");
    }
    send(&mut stream, "GET", "/healthz", "", false);
    let (status, _, _) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200);
    let m = server.metrics();
    assert_eq!(m.fastpath_audited_total(), 2);
    assert_eq!(m.fastpath_divergences_total(), 2);
    drop(stream);
    server.shutdown();
}
