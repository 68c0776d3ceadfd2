//! End-to-end tests against a real listening server (ephemeral ports,
//! plain `TcpStream` client).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dls_serve::{Server, ServerConfig};
use rumr::FastPathMiss;

fn start(config: ServerConfig) -> dls_serve::server::ServerHandle {
    Server::start(config).expect("server binds")
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_bound: 64,
        cache_capacity: 16,
        // Response cache off here so these tests exercise the engine path
        // every time; tests/keepalive.rs covers the cache explicitly.
        sim_cache_capacity: 0,
        shards: 2,
        keep_alive_timeout_ms: 2_000,
        max_events: 10_000_000,
        handler_delay_ms: 0,
        job_capacity: 8,
        ..ServerConfig::default()
    }
}

fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).expect("utf8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (head, body) = text.split_once("\r\n\r\n").expect("blank line");
    (status, head.to_string(), body.to_string())
}

const PLAN: &str = r#"{"platform": {"homogeneous": {"n": 8, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "scheduler": {"kind": "umr"}, "w_total": 1000}"#;

const SIMULATE: &str = r#"{"platform": {"homogeneous": {"n": 8, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "w_total": 1000,
    "error_model": {"kind": "normal", "error": 0.3},
    "run": {"scheduler": {"kind": "rumr", "error_estimate": 0.3}, "seed": 7, "reps": 2}}"#;

#[test]
fn healthz_and_metrics_respond() {
    let server = start(quiet_config());
    let (status, _, body) = request(server.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    let (status, _, body) = request(server.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("dls_serve_plan_cache_hits_total"));
    assert!(body.contains("dls_serve_queue_depth"));
    server.shutdown();
}

#[test]
fn plan_caches_and_reports_hits() {
    let server = start(quiet_config());
    let (status, head, first) = request(server.addr, "POST", "/plan", PLAN);
    assert_eq!(status, 200, "body: {first}");
    assert!(head.contains("X-Plan-Cache: miss"));
    assert!(first.contains("\"schedule\""));
    assert!(first.contains("\"predicted\""));

    // Same plan, different field order: cache hit, identical body.
    let reordered = r#"{"w_total": 1000, "scheduler": {"kind": "umr"},
        "platform": {"homogeneous": {"ratio": 1.5, "n": 8,
        "net_latency": 0.1, "comp_latency": 0.2}}}"#;
    let (status, head, second) = request(server.addr, "POST", "/plan", reordered);
    assert_eq!(status, 200);
    assert!(head.contains("X-Plan-Cache: hit"), "head: {head}");
    assert_eq!(first, second);
    assert_eq!(server.metrics().cache_hits(), 1);
    server.shutdown();
}

#[test]
fn simulate_is_deterministic_per_seed() {
    let server = start(quiet_config());
    let (status, _, first) = request(server.addr, "POST", "/simulate", SIMULATE);
    assert_eq!(status, 200, "body: {first}");
    assert!(first.contains("\"mean_makespan\""));
    assert!(first.contains("\"audit_findings\":[]"), "body: {first}");

    let (status, _, second) = request(server.addr, "POST", "/simulate", SIMULATE);
    assert_eq!(status, 200);
    assert_eq!(first, second, "same request must be byte-identical");

    // Priming the plan cache and re-simulating must not change the bytes:
    // a prototype-served run is pinned equal to a fresh solve.
    let plan = SIMULATE.replace(
        r#""error_model": {"kind": "normal", "error": 0.3},
    "run": {"scheduler": {"kind": "rumr", "error_estimate": 0.3}, "seed": 7, "reps": 2}"#,
        r#""scheduler": {"kind": "rumr", "error_estimate": 0.3}"#,
    );
    let (status, _, _) = request(server.addr, "POST", "/plan", &plan);
    assert_eq!(status, 200);
    let (status, _, third) = request(server.addr, "POST", "/simulate", SIMULATE);
    assert_eq!(status, 200);
    assert_eq!(first, third, "cached prototype changed the simulation");

    // A different seed must change the body.
    let different = SIMULATE.replace("\"seed\": 7", "\"seed\": 8");
    let (status, _, other) = request(server.addr, "POST", "/simulate", &different);
    assert_eq!(status, 200);
    assert_ne!(first, other);
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx() {
    let server = start(quiet_config());
    let cases = [
        ("POST", "/plan", "{not json", 400),
        ("POST", "/plan", "{}", 400),
        (
            "POST",
            "/plan",
            r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
                "comp_latency": 0.2, "net_latency": 0.1}},
                "scheduler": {"kind": "warp"}, "w_total": 100}"#,
            400,
        ),
        ("POST", "/simulate", "[]", 400),
        ("GET", "/plan", "", 405),
        ("POST", "/healthz", "", 405),
        ("PUT", "/plan", "", 405),
        ("DELETE", "/simulate", "", 405),
        ("PUT", "/healthz", "", 405),
        ("DELETE", "/metrics", "", 405),
        ("GET", "/nope", "", 404),
    ];
    for (method, path, body, expected) in cases {
        let (status, _, response) = request(server.addr, method, path, body);
        assert_eq!(status, expected, "{method} {path}: {response}");
        assert!(
            response.contains("\"error\""),
            "{method} {path}: {response}"
        );
    }
    server.shutdown();
}

/// Whether `line` is an exposition sample, `name{label="value",…} number`,
/// with no quote or backslash inside a label value.
fn is_sample(line: &str) -> bool {
    let ident = |s: &str| {
        !s.is_empty()
            && !s.starts_with(|c: char| c.is_ascii_digit())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let Some((series, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let (name, labels) = match series.split_once('{') {
        None => (series, ""),
        Some((name, rest)) => match rest.strip_suffix('}') {
            Some(labels) if !labels.is_empty() => (name, labels),
            _ => return false,
        },
    };
    value.parse::<f64>().is_ok()
        && ident(name)
        && (labels.is_empty()
            || labels.split(',').all(|pair| match pair.split_once('=') {
                Some((key, v)) => {
                    ident(key)
                        && v.len() >= 2
                        && v.starts_with('"')
                        && v.ends_with('"')
                        && !v[1..v.len() - 1].contains(['"', '\\'])
                }
                None => false,
            }))
}

#[test]
fn metrics_labels_come_from_the_route_table() {
    let server = start(quiet_config());
    for i in 0..100 {
        let (status, _, _) = request(server.addr, "GET", &format!("/unknown-{i}"), "");
        assert_eq!(status, 404);
    }
    let (status, _, _) = request(server.addr, "GET", "/x\"y", "");
    assert_eq!(status, 404);
    // A wrong method counts under the path's own label.
    let (status, _, _) = request(server.addr, "PUT", "/v1/plan", "");
    assert_eq!(status, 405);
    let (status, _, _) = request(server.addr, "DELETE", "/jobs/0", "");
    assert_eq!(status, 405);
    let (_, _, metrics) = request(server.addr, "GET", "/metrics", "");
    let series: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("dls_serve_requests_total{"))
        .collect();
    assert_eq!(
        series,
        [
            "dls_serve_requests_total{endpoint=\"/jobs/{id}\",status=\"405\"} 1",
            "dls_serve_requests_total{endpoint=\"/plan\",status=\"405\"} 1",
            "dls_serve_requests_total{endpoint=\"other\",status=\"404\"} 101",
        ]
    );
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        assert!(is_sample(line), "not an exposition sample: {line}");
    }
    assert!(!is_sample(
        "dls_serve_requests_total{endpoint=\"/x\"y\",status=\"404\"} 1"
    ));
    server.shutdown();
}

#[test]
fn full_queue_sheds_load_with_503() {
    // One worker, queue bound 1, slow handler: concurrent requests must
    // overflow the queue and get 503 + Retry-After from the acceptor.
    let server = start(ServerConfig {
        workers: 1,
        queue_bound: 1,
        handler_delay_ms: 300,
        ..quiet_config()
    });
    let addr = server.addr;
    let results: Vec<(u16, String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(move || request(addr, "GET", "/healthz", "")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let statuses: Vec<u16> = results.iter().map(|r| r.0).collect();
    let n503 = statuses.iter().filter(|&&s| s == 503).count();
    let n200 = statuses.iter().filter(|&&s| s == 200).count();
    assert!(n503 >= 1, "expected backpressure, got {statuses:?}");
    assert!(
        n200 >= 1,
        "some requests should still succeed: {statuses:?}"
    );
    assert_eq!(server.metrics().rejected_total(), n503 as u64);

    // Every rejection carries a Retry-After header.
    for (status, head, _) in &results {
        if *status == 503 {
            assert!(
                head.contains("Retry-After:"),
                "503 without Retry-After: {head}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn non_finite_numbers_map_to_422() {
    let server = start(quiet_config());
    // `1e999` is syntactically valid JSON but overflows f64 to infinity;
    // it must be rejected as unprocessable wherever it appears.
    let cases = [
        (
            "/plan",
            PLAN.replace("\"w_total\": 1000", "\"w_total\": 1e999"),
        ),
        ("/plan", PLAN.replace("1.5", "1e999")),
        (
            "/simulate",
            SIMULATE.replace("\"w_total\": 1000", "\"w_total\": -1e999"),
        ),
        ("/simulate", SIMULATE.replace("0.3", "1e999")),
    ];
    for (path, body) in cases {
        let (status, _, response) = request(server.addr, "POST", path, &body);
        assert_eq!(status, 422, "{path} {body}: {response}");
        assert!(response.contains("\"error\""), "{path}: {response}");
    }
    // NaN/Infinity literals are not JSON at all — still a plain 400.
    let (status, _, _) = request(
        server.addr,
        "POST",
        "/plan",
        &PLAN.replace("\"w_total\": 1000", "\"w_total\": NaN"),
    );
    assert_eq!(status, 400);
    let (status, _, _) = request(server.addr, "POST", "/plan", "{not json");
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn plan_reports_robustness_floors() {
    let server = start(quiet_config());
    let (status, _, body) = request(server.addr, "POST", "/plan", PLAN);
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"robustness\":{\"analytic_lower_bound\":"));
    assert!(body.contains("\"worst_case\":["));
    assert!(body.contains("adversarial(fraction=0.25,slowdown=1.5)"));
    assert!(body.contains("adversarial(fraction=0.25,slowdown=2)"));
    server.shutdown();
}

#[test]
fn simulate_reports_robustness_under_revealed_speeds() {
    let server = start(quiet_config());
    // No speed block: no robustness section.
    let (status, _, plain) = request(server.addr, "POST", "/simulate", SIMULATE);
    assert_eq!(status, 200, "body: {plain}");
    assert!(!plain.contains("\"robustness\""));

    let revealed = SIMULATE.replace(
        "\"error_model\"",
        r#""speeds": {"kind": "adversarial", "fraction": 0.25, "slowdown": 2.0},
        "error_model""#,
    );
    let (status, _, body) = request(server.addr, "POST", "/simulate", &revealed);
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"robustness\":{\"ratio\":"), "body: {body}");
    assert!(body.contains("\"clairvoyant_makespan\""));
    assert!(body.contains("\"audit_findings\":[]"), "body: {body}");
    // Every reported ratio must be >= 1.
    for piece in body.split("\"ratio\":").skip(1) {
        let ratio: f64 = piece
            .split(&[',', '}'][..])
            .next()
            .unwrap()
            .parse()
            .expect("ratio is a number");
        assert!(ratio >= 1.0 - 1e-9, "ratio {ratio} in {body}");
    }
    server.shutdown();
}

const JOBS: &str = r#"{"platform": {"homogeneous": {"n": 6, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "policy": "fair_share", "seed": 5,
    "jobs": [
      {"release": 0, "size": 400, "scheduler": {"kind": "factoring"}},
      {"release": 30, "size": 200, "scheduler": {"kind": "factoring"}},
      {"release": 60, "size": 100, "scheduler": {"kind": "umr"}}
    ]}"#;

#[test]
fn jobs_submit_poll_result_lifecycle() {
    let server = start(quiet_config());
    let (status, head, body) = request(server.addr, "POST", "/jobs", JOBS);
    assert_eq!(status, 202, "body: {body}");
    assert!(head.contains("Location: /jobs/0"), "head: {head}");
    assert!(body.contains("\"id\":0"));

    // Poll until the runner thread finishes it.
    let mut result = String::new();
    for _ in 0..400 {
        let (status, _, body) = request(server.addr, "GET", "/jobs/0", "");
        assert_eq!(status, 200, "body: {body}");
        if body.contains("\"status\":\"done\"") {
            result = body;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!result.is_empty(), "job never finished");
    assert!(result.contains("\"policy\":\"fair_share\""), "{result}");
    assert!(result.contains("\"fairness\""), "{result}");
    assert!(result.contains("\"stretch\""), "{result}");
    assert!(result.contains("\"audit_findings\":[]"), "{result}");

    // Polls of a finished job are byte-identical.
    let (_, _, again) = request(server.addr, "GET", "/jobs/0", "");
    assert_eq!(result, again);

    let (status, _, list) = request(server.addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert!(list.contains("{\"id\":0,\"status\":\"done\"}"), "{list}");

    let (status, _, _) = request(server.addr, "GET", "/jobs/99", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(server.addr, "GET", "/jobs/abc", "");
    assert_eq!(status, 400);
    let (status, _, _) = request(server.addr, "DELETE", "/jobs/0", "");
    assert_eq!(status, 405);
    let (status, _, _) = request(server.addr, "POST", "/jobs", "{}");
    assert_eq!(status, 400);
    let (status, _, _) = request(
        server.addr,
        "POST",
        "/jobs",
        &JOBS.replace("\"size\": 400", "\"size\": 1e999"),
    );
    assert_eq!(status, 422);
    server.shutdown();
}

#[test]
fn jobs_table_full_sheds_load_with_503() {
    let server = start(ServerConfig {
        job_capacity: 0,
        ..quiet_config()
    });
    let (status, head, _) = request(server.addr, "POST", "/jobs", JOBS);
    assert_eq!(status, 503);
    assert!(head.contains("Retry-After:"), "head: {head}");
    server.shutdown();
}

#[test]
fn event_limit_maps_to_422() {
    let server = start(ServerConfig {
        max_events: 50, // far below what any real run needs
        ..quiet_config()
    });
    let (status, _, body) = request(server.addr, "POST", "/simulate", SIMULATE);
    assert_eq!(status, 422, "body: {body}");
    assert!(body.contains("event limit"));
    server.shutdown();
}

/// An error-free, declared-speed, default-transport run of a scheduler
/// with an exact oracle: the analytic fast path answers it.
const ELIGIBLE_SIMULATE: &str = r#"{"platform": {"homogeneous": {"n": 8, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "w_total": 1000,
    "run": {"scheduler": {"kind": "umr"}, "seed": 3, "reps": 2}}"#;

#[test]
fn v1_aliases_and_version_markers() {
    let server = start(quiet_config());
    // Every endpoint answers identically under the /v1 prefix, and every
    // response carries the X-API-Version header.
    let (status, head, body) = request(server.addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert!(head.contains("X-API-Version: v1"), "head: {head}");
    assert_eq!(body, "ok\n");

    let (s1, _, unversioned) = request(server.addr, "POST", "/plan", PLAN);
    let (s2, head, versioned) = request(server.addr, "POST", "/v1/plan", PLAN);
    assert_eq!((s1, s2), (200, 200), "bodies: {unversioned} / {versioned}");
    assert_eq!(unversioned, versioned, "aliases must serve the same bytes");
    assert!(head.contains("X-API-Version: v1"), "head: {head}");
    // The prefix is stripped before the cache, so aliases share keys.
    assert_eq!(server.metrics().cache_hits(), 1);
    assert!(versioned.contains("\"api_version\":\"v1\""), "{versioned}");

    let (status, _, sim) = request(server.addr, "POST", "/v1/simulate", SIMULATE);
    assert_eq!(status, 200, "body: {sim}");
    assert!(sim.contains("\"api_version\":\"v1\""), "{sim}");

    let (status, _, jobs) = request(server.addr, "GET", "/v1/jobs", "");
    assert_eq!(status, 200);
    assert!(jobs.contains("\"api_version\":\"v1\""), "{jobs}");

    // Errors carry both markers as well.
    let (status, head, err) = request(server.addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    assert!(head.contains("X-API-Version: v1"), "head: {head}");
    assert!(err.contains("\"api_version\":\"v1\""), "{err}");
    server.shutdown();
}

#[test]
fn errors_use_the_unified_payload_shape() {
    let server = start(quiet_config());
    let non_finite = SIMULATE.replace("\"w_total\": 1000", "\"w_total\": 1e999");
    let cases: [(&str, &str, &str, u16, &str); 9] = [
        ("POST", "/plan", "{not json", 400, "bad_request"),
        ("GET", "/plan", "", 405, "method_not_allowed"),
        ("PUT", "/plan", "", 405, "method_not_allowed"),
        ("DELETE", "/simulate", "", 405, "method_not_allowed"),
        ("PUT", "/healthz", "", 405, "method_not_allowed"),
        ("DELETE", "/metrics", "", 405, "method_not_allowed"),
        ("GET", "/nope", "", 404, "not_found"),
        ("POST", "/simulate", &non_finite, 422, "unprocessable"),
        ("GET", "/jobs/99", "", 404, "not_found"),
    ];
    for (method, path, body, expected, code) in cases {
        let (status, _, response) = request(server.addr, method, path, body);
        assert_eq!(status, expected, "{method} {path}: {response}");
        assert!(
            response.starts_with("{\"api_version\":\"v1\",\"code\":\""),
            "{method} {path}: {response}"
        );
        assert!(
            response.contains(&format!("\"code\":\"{code}\"")),
            "{method} {path}: {response}"
        );
        assert!(
            response.contains("\"error\":\""),
            "{method} {path}: {response}"
        );
        assert!(
            response.contains("\"detail\":null"),
            "{method} {path}: {response}"
        );
    }
    // Shed-load 503s (acceptor and job table) share the shape; the job
    // table is the easy one to force deterministically.
    let full = start(ServerConfig {
        job_capacity: 0,
        ..quiet_config()
    });
    let (status, _, response) = request(full.addr, "POST", "/jobs", JOBS);
    assert_eq!(status, 503);
    assert!(
        response.starts_with("{\"api_version\":\"v1\",\"code\":\"unavailable\""),
        "{response}"
    );
    full.shutdown();
    server.shutdown();
}

#[test]
fn fastpath_answers_eligible_requests_analytically() {
    let server = start(ServerConfig {
        fastpath_audit_pct: 100,
        ..quiet_config()
    });
    // Eligible /simulate: analytic source, one run per requested seed.
    let (status, head, body) = request(server.addr, "POST", "/simulate", ELIGIBLE_SIMULATE);
    assert_eq!(status, 200, "body: {body}");
    assert!(head.contains("X-Answer-Source: analytic"), "head: {head}");
    assert!(body.contains("\"source\":\"analytic\""), "{body}");
    assert!(body.contains("\"seed\":3"), "{body}");
    assert!(body.contains("\"seed\":4"), "{body}");
    assert!(body.contains("\"mean_makespan\""), "{body}");

    // /plan of a scheduler with an exact oracle: analytic, with the
    // oracle's round timeline in place of the per-event schedule.
    let (status, head, plan) = request(server.addr, "POST", "/plan", PLAN);
    assert_eq!(status, 200, "body: {plan}");
    assert!(head.contains("X-Answer-Source: analytic"), "head: {head}");
    assert!(plan.contains("\"source\":\"analytic\""), "{plan}");
    assert!(plan.contains("\"schedule\":[]"), "{plan}");
    assert!(plan.contains("\"rounds\":[{\"round\":0"), "{plan}");
    assert!(plan.contains("\"predicted\":{\"kind\":\"exact\""), "{plan}");

    // Cache hits replay the analytic source marker.
    let (_, head, _) = request(server.addr, "POST", "/plan", PLAN);
    assert!(head.contains("X-Plan-Cache: hit"), "head: {head}");
    assert!(head.contains("X-Answer-Source: analytic"), "head: {head}");

    // The noisy RUMR request is ineligible and stays on the engine path.
    let (status, head, body) = request(server.addr, "POST", "/simulate", SIMULATE);
    assert_eq!(status, 200, "body: {body}");
    assert!(head.contains("X-Answer-Source: engine"), "head: {head}");
    assert!(body.contains("\"source\":\"engine\""), "{body}");

    // 100% sampling audited both analytic answers, and the engine agreed
    // with the closed forms every time.
    let m = server.metrics();
    assert_eq!(m.fastpath_analytic_total(), 2);
    assert_eq!(m.fastpath_audited_total(), 2);
    assert_eq!(
        m.fastpath_divergences_total(),
        0,
        "engine disagreed with oracle"
    );
    assert!(m.fastpath_engine_total() >= 1);

    let (_, _, metrics) = request(server.addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("dls_serve_fastpath_analytic_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dls_serve_fastpath_divergence_total 0"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn fastpath_audit_sampling_zero_disables_the_audit() {
    let server = start(ServerConfig {
        fastpath_audit_pct: 0,
        ..quiet_config()
    });
    let (status, _, body) = request(server.addr, "POST", "/simulate", ELIGIBLE_SIMULATE);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(server.metrics().fastpath_analytic_total(), 1);
    assert_eq!(server.metrics().fastpath_audited_total(), 0);
    server.shutdown();
}

#[test]
fn fastpath_divergence_injection_fires_the_counter() {
    // The test hook perturbs every audited engine re-run, proving a real
    // disagreement would be caught and counted — the CI gate greps this
    // counter at 100% sampling.
    let server = start(ServerConfig {
        fastpath_audit_pct: 100,
        fastpath_divergence_inject: true,
        ..quiet_config()
    });
    let (status, _, _) = request(server.addr, "POST", "/simulate", ELIGIBLE_SIMULATE);
    assert_eq!(status, 200);
    let (status, _, _) = request(server.addr, "POST", "/plan", PLAN);
    assert_eq!(status, 200);
    let m = server.metrics();
    assert_eq!(m.fastpath_audited_total(), 2);
    assert_eq!(m.fastpath_divergences_total(), 2);
    let (_, _, metrics) = request(server.addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("dls_serve_fastpath_divergence_total 2"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn fastpath_audit_engine_errors_are_not_divergences() {
    // The analytic /plan needs no engine run, but its audit re-run hits
    // the event cap: the answer is still served, and the failed audit
    // counts as an audit error, not as a disagreement with the oracle.
    let server = start(ServerConfig {
        fastpath_audit_pct: 100,
        max_events: 5,
        ..quiet_config()
    });
    let (status, head, body) = request(server.addr, "POST", "/plan", PLAN);
    assert_eq!(status, 200, "body: {body}");
    assert!(head.contains("X-Answer-Source: analytic"), "head: {head}");
    let m = server.metrics();
    assert_eq!(m.fastpath_audited_total(), 1);
    assert_eq!(m.fastpath_audit_errors_total(), 1);
    assert_eq!(m.fastpath_divergences_total(), 0);
    let (_, _, metrics) = request(server.addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("dls_serve_fastpath_audit_errors_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dls_serve_fastpath_divergence_total 0"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn fastpath_analytic_answer_matches_the_engine() {
    // Cross-check over the wire: the analytic makespan for an eligible
    // run must agree with what the engine reports for the same physics
    // when the fast path is sidestepped.
    let server = start(ServerConfig {
        fastpath_audit_pct: 100,
        ..quiet_config()
    });
    let (status, _, analytic) = request(server.addr, "POST", "/simulate", ELIGIBLE_SIMULATE);
    assert_eq!(status, 200, "body: {analytic}");
    let analytic_makespan = extract_num(&analytic, "\"mean_makespan\":");

    // Same scenario with a vanishing error model: engine path (the error
    // model is present, so the fast path declines), same physics.
    let engine_req = ELIGIBLE_SIMULATE.replace(
        "\"w_total\": 1000,",
        "\"w_total\": 1000, \"error_model\": {\"kind\": \"normal\", \"error\": 0.0},",
    );
    let (status, head, engine) = request(server.addr, "POST", "/simulate", &engine_req);
    assert_eq!(status, 200, "body: {engine}");
    assert!(head.contains("X-Answer-Source: engine"), "head: {head}");
    let engine_makespan = extract_num(&engine, "\"mean_makespan\":");
    let rel = (analytic_makespan - engine_makespan).abs() / engine_makespan;
    assert!(
        rel < 1e-6,
        "analytic {analytic_makespan} vs engine {engine_makespan} (rel {rel})"
    );
    assert_eq!(server.metrics().fastpath_divergences_total(), 0);
    server.shutdown();
}

fn extract_num(body: &str, key: &str) -> f64 {
    body.split(key)
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {body}"))
}

#[test]
fn fastpath_misses_are_counted_by_reason() {
    let server = start(quiet_config());
    // A noisy /simulate is declined for its prediction errors.
    let (status, _, body) = request(server.addr, "POST", "/simulate", SIMULATE);
    assert_eq!(status, 200, "body: {body}");
    // MI-3 with latencies: its oracle claims only a lower bound.
    let mi = PLAN.replace(r#"{"kind": "umr"}"#, r#"{"kind": "mi", "installments": 3}"#);
    let (status, head, body) = request(server.addr, "POST", "/plan", &mi);
    assert_eq!(status, 200, "body: {body}");
    assert!(head.contains("X-Answer-Source: engine"), "head: {head}");
    // GSS has no oracle at all.
    let gss = PLAN.replace(r#"{"kind": "umr"}"#, r#"{"kind": "gss"}"#);
    let (status, head, body) = request(server.addr, "POST", "/plan", &gss);
    assert_eq!(status, 200, "body: {body}");
    assert!(head.contains("X-Answer-Source: engine"), "head: {head}");

    let m = server.metrics();
    assert_eq!(m.fastpath_miss_total(FastPathMiss::PredictionErrors), 1);
    assert_eq!(m.fastpath_miss_total(FastPathMiss::InexactOracle), 1);
    assert_eq!(m.fastpath_miss_total(FastPathMiss::NoOracle), 1);
    assert_eq!(m.fastpath_engine_total(), 3);
    let (_, _, metrics) = request(server.addr, "GET", "/metrics", "");
    for line in [
        "dls_serve_fastpath_miss_total{reason=\"prediction_errors\"} 1",
        "dls_serve_fastpath_miss_total{reason=\"inexact_oracle\"} 1",
        "dls_serve_fastpath_miss_total{reason=\"no_oracle\"} 1",
        "dls_serve_fastpath_miss_total{reason=\"faults\"} 0",
        "dls_serve_fastpath_engine_total 3",
    ] {
        assert!(metrics.lines().any(|l| l == line), "{line} in {metrics}");
    }
    server.shutdown();
}

#[test]
fn planner_rejections_of_ineligible_runs_come_from_the_engine_path() {
    // The fast path runs no planner for a noisy run, so the MI planner's
    // refusal of zero installments surfaces from the shard, with the same
    // 400 as ever, and the request counts as an engine answer.
    let server = start(quiet_config());
    let bad = SIMULATE.replace(
        r#"{"kind": "rumr", "error_estimate": 0.3}"#,
        r#"{"kind": "mi", "installments": 0}"#,
    );
    let (status, _, body) = request(server.addr, "POST", "/simulate", &bad);
    assert_eq!(status, 400, "body: {body}");
    assert_eq!(body, ZERO_INSTALLMENTS_BODY);
    assert_eq!(
        server
            .metrics()
            .fastpath_miss_total(FastPathMiss::PredictionErrors),
        1
    );
    // The same request without noise is eligible: its planner runs on
    // the fast path, and the refusal is identical.
    let eligible = bad
        .replace(r#""error": 0.3"#, r#""error": 0"#)
        .replace(r#"{"kind": "normal""#, r#"{"kind": "none""#);
    let (status, _, body) = request(server.addr, "POST", "/simulate", &eligible);
    assert_eq!(status, 400, "body: {body}");
    assert_eq!(body, ZERO_INSTALLMENTS_BODY);
    server.shutdown();
}

/// The 400 body for an MI run with zero installments, on either path.
const ZERO_INSTALLMENTS_BODY: &str = "{\"api_version\":\"v1\",\"code\":\"bad_request\",\
    \"error\":\"planner: MI planner: installment count must be >= 1\",\"detail\":null}";
