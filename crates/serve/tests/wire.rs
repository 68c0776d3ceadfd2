//! Every served byte, pinned: a fixed request set goes over one
//! keep-alive connection to an in-process server, and one FNV-1a digest
//! covers each response's status line, every header but `Connection`,
//! and its body.
//!
//! The set covers all 13 scheduler kinds on `/plan` and on error-free and
//! noisy `/simulate`, over a Table 1 platform, a cLat = 0 platform and an
//! explicit heterogeneous one; revealed speeds; faults with recovery;
//! plan- and sim-cache hits; a finished and a failed `/jobs` set and the
//! job list; and one request per error. `/metrics` is left out: its
//! latencies differ from run to run.
//!
//! A change that moves a served byte on purpose recomputes the constant:
//! run this test with `-- --nocapture` on the parent and on the change,
//! diff the per-response lines, and name every moved response in the
//! change's notes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dls_serve::{Server, ServerConfig};
use rumr::fnv1a;

const PLATFORMS: [&str; 3] = [
    r#"{"homogeneous": {"n": 8, "ratio": 1.5, "comp_latency": 0.2, "net_latency": 0.1}}"#,
    r#"{"homogeneous": {"n": 6, "ratio": 1.7, "comp_latency": 0, "net_latency": 0.2}}"#,
    r#"{"workers": [
        {"speed": 1.5, "bandwidth": 12.25, "comp_latency": 0.3, "net_latency": 0.1},
        {"speed": 0.75, "bandwidth": 9, "comp_latency": 0, "net_latency": 0.2},
        {"speed": 1, "bandwidth": 10, "comp_latency": 0.2, "net_latency": 0.1},
        {"speed": 2, "bandwidth": 15, "comp_latency": 0.1, "net_latency": 0.05}]}"#,
];

const KINDS: [&str; 13] = [
    r#"{"kind": "rumr", "error_estimate": 0.2}"#,
    r#"{"kind": "het_rumr"}"#,
    r#"{"kind": "umr"}"#,
    r#"{"kind": "mi", "installments": 3}"#,
    r#"{"kind": "factoring"}"#,
    r#"{"kind": "fsc", "error": 0.2}"#,
    r#"{"kind": "equal_static"}"#,
    r#"{"kind": "self_scheduling", "unit": 25}"#,
    r#"{"kind": "het_umr"}"#,
    r#"{"kind": "adaptive_rumr"}"#,
    r#"{"kind": "one_round"}"#,
    r#"{"kind": "gss"}"#,
    r#"{"kind": "tss"}"#,
];

const NOISE: &str = r#""error_model": {"kind": "normal", "error": 0.2}, "#;

const JOBS: &str = r#"{"platform": {"homogeneous": {"n": 6, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "policy": "fair_share", "seed": 5,
    "jobs": [
      {"release": 0, "size": 400, "scheduler": {"kind": "factoring"}},
      {"release": 30, "size": 200, "scheduler": {"kind": "factoring"}},
      {"release": 60, "size": 100, "scheduler": {"kind": "umr"}}
    ]}"#;

fn plan(platform: &str, kind: &str) -> String {
    format!(r#"{{"platform": {platform}, "scheduler": {kind}, "w_total": 1000}}"#)
}

fn simulate(platform: &str, noise: &str, run: &str) -> String {
    format!(r#"{{"platform": {platform}, "w_total": 1000, {noise}"run": {run}}}"#)
}

fn run(kind: &str) -> String {
    format!(r#"{{"scheduler": {kind}, "seed": 3, "reps": 2}}"#)
}

/// The fixed request set, in order: method, path, body.
fn requests() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let mut out: Vec<(&str, &str, Vec<u8>)> = Vec::new();
    let mut post = |path, body: String| out.push(("POST", path, body.into_bytes()));
    for platform in PLATFORMS {
        for kind in KINDS {
            post("/plan", plan(platform, kind));
            post("/simulate", simulate(platform, "", &run(kind)));
            post("/simulate", simulate(platform, NOISE, &run(kind)));
        }
    }
    let [table1, clat0, het] = PLATFORMS;
    // Cache hits: a repeated plan (another field order, and the /v1
    // spelling), a repeated noisy run, and a repeated analytic run.
    post(
        "/plan",
        format!(
            r#"{{"w_total": 1000, "scheduler": {}, "platform": {table1}}}"#,
            KINDS[2]
        ),
    );
    post("/v1/plan", plan(het, KINDS[8]));
    post("/simulate", simulate(clat0, NOISE, &run(KINDS[0])));
    post("/simulate", simulate(table1, "", &run(KINDS[2])));
    // Revealed speeds, on an analytic kind and a robust one.
    for (platform, kind) in [(table1, KINDS[2]), (het, KINDS[1]), (clat0, KINDS[4])] {
        let speeds = r#""speeds": {"kind": "adversarial", "fraction": 0.25, "slowdown": 2}, "#;
        post("/simulate", simulate(platform, speeds, &run(kind)));
    }
    post(
        "/simulate",
        simulate(
            table1,
            r#""speeds": {"kind": "stochastic", "spread": 0.3, "seed": 9}, "#,
            &run(KINDS[0]),
        ),
    );
    // Faults with recovery.
    for kind in [KINDS[3], KINDS[4]] {
        post(
            "/simulate",
            simulate(
                table1,
                "",
                &format!(
                    r#"{{"scheduler": {kind}, "seed": 4, "reps": 2, "recovery": true,
                    "config": {{"faults": {{"kind": "poisson", "mttf": 200, "mttr": 10,
                    "horizon": 4000, "seed": 5}}}}}}"#
                ),
            ),
        );
    }
    post(
        "/simulate",
        simulate(
            het,
            "",
            r#"{"scheduler": {"kind": "factoring"}, "recovery": {"factor": 2.5,
            "divergence_threshold": 0.4},
            "config": {"faults": {"kind": "plan", "events": [
              {"time": 30, "worker": 1, "action": "down"},
              {"time": 45, "worker": 1, "action": "up"}]}}}"#,
        ),
    );
    // One of each error.
    out.push(("POST", "/plan", b"{\"w_total\": \xff\xfe}".to_vec()));
    let mut post = |path, body: String| out.push(("POST", path, body.into_bytes()));
    post("/simulate", "{not json".into());
    post("/plan", plan(table1, KINDS[2]).replace("1000", "1e999"));
    post(
        "/simulate",
        simulate(table1, NOISE, &run(r#"{"kind": "mi", "installments": 0}"#)),
    );
    post(
        "/simulate",
        simulate(
            table1,
            NOISE,
            r#"{"scheduler": {"kind": "factoring"}, "config": {"max_events": 50}}"#,
        ),
    );
    out.push(("GET", "/jobs/abc", Vec::new()));
    out.push(("GET", "/jobs/99", Vec::new()));
    out.push(("GET", "/nope", Vec::new()));
    out.push(("GET", "/plan", Vec::new()));
    out.push(("GET", "/healthz", Vec::new()));
    out.push(("GET", "/v1/healthz", Vec::new()));
    out
}

/// Write one request, head and body in a single `write`: written apart,
/// the body waits on the server's delayed ACK.
fn send(stream: &mut TcpStream, method: &str, path: &str, body: &[u8]) {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire).unwrap();
}

/// Read one `Content-Length`-framed response: its pinned text (status
/// line, headers but `Connection`, blank line, body) and its status.
fn receive(stream: &mut TcpStream) -> (Vec<u8>, u16) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "closed mid-head");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).expect("UTF-8 head");
    let mut pinned = Vec::new();
    let mut length = 0;
    for line in head.trim_end().split("\r\n") {
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            length = v.parse().expect("Content-Length");
        }
        if !line.starts_with("Connection: ") {
            pinned.extend_from_slice(line.as_bytes());
            pinned.extend_from_slice(b"\r\n");
        }
    }
    pinned.extend_from_slice(b"\r\n");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).unwrap();
    pinned.extend_from_slice(&body);
    let status = head[9..12].parse().expect("status");
    (pinned, status)
}

/// Poll `/jobs/{id}` until the job has finished, and return the final
/// response.
fn finished_job(stream: &mut TcpStream, id: usize) -> (Vec<u8>, u16) {
    let path = format!("/jobs/{id}");
    for _ in 0..2000 {
        send(stream, "GET", &path, b"");
        let (pinned, status) = receive(stream);
        let text = String::from_utf8_lossy(&pinned);
        if status != 200 || text.contains("\"status\":\"done\"") {
            return (pinned, status);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("job {id} never finished");
}

#[test]
fn served_bytes_are_pinned() {
    let server = Server::start(ServerConfig {
        workers: 2,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server binds");
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut transcript = Vec::new();
    let mut pin = |label: &str, (pinned, status): (Vec<u8>, u16)| {
        println!("{label} {status} {:016x}", fnv1a(&pinned));
        transcript.extend_from_slice(&pinned);
    };
    let requests = requests();
    for (i, (method, path, body)) in requests.iter().enumerate() {
        send(&mut stream, method, path, body);
        pin(&format!("{i} {method} {path}"), receive(&mut stream));
    }
    let failed = JOBS.replace(
        "\"seed\": 5,",
        "\"seed\": 5, \"config\": {\"max_events\": 50},",
    );
    for body in [JOBS, failed.as_str()] {
        send(&mut stream, "POST", "/jobs", body.as_bytes());
        pin("POST /jobs", receive(&mut stream));
    }
    for id in 0..2 {
        pin(&format!("GET /jobs/{id}"), finished_job(&mut stream, id));
    }
    send(&mut stream, "GET", "/jobs", b"");
    pin("GET /jobs", receive(&mut stream));
    assert_eq!(requests.len(), 139);
    assert_eq!(fnv1a(&transcript), 0x9734_3cd7_7d20_9d7f);
    drop(stream);
    server.shutdown();
}
