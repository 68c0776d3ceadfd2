//! Load generator and acceptance checker for `dls-serve`.
//!
//! Speaks persistent HTTP/1.1 by default (one connection per backend per
//! thread, responses framed by `Content-Length`); `--close` reverts to
//! close-per-request, which is also how you demonstrate 503 backpressure
//! (keep-alive connections occupy workers instead of filling the accept
//! queue). `--addr` takes a comma-separated backend list; requests are
//! routed by a consistent hash of the request body (64 virtual nodes per
//! backend), so identical requests always land on the same process and
//! its caches stay hot.
//!
//! Modes:
//!
//! * default: open-loop mixed workload (`/plan` repeats to drive cache
//!   hits, fixed-seed `/simulate` pairs to check determinism,
//!   speed-revelation `/simulate` runs that must report robustness ratios
//!   ≥ 1, `/healthz` probes) at a fixed arrival rate; latency is measured
//!   from each request's *scheduled* start so queueing shows up rather
//!   than being absorbed. Verifies the service contract (zero unexpected
//!   5xx, byte-identical repeats, clean audits, cache hits on `/metrics`,
//!   cross-process determinism when several backends are given) and, with
//!   `--max-p99-ms`, gates on tail latency.
//! * `--cache-demo`: closed-loop warm-vs-cold `/simulate` throughput on
//!   one backend; passes when the warm (response-cache-served) rate is at
//!   least `--min-speedup` × the cold (unique-seed) rate.
//! * `--scale-demo`: closed-loop unique-seed `/simulate` throughput on
//!   backend 1 alone vs spread over all backends; passes when the
//!   aggregate rate is at least `--min-scale` × the single-process rate.
//!   Run the backends with `--shards 1 --sim-cache 0` so the comparison
//!   measures engine throughput, not cache or intra-process parallelism.
//! * `--fastpath-demo`: closed-loop cache-busting `/plan` throughput on
//!   one backend, analytic fast path (umr) vs engine path (rumr); checks
//!   the `X-Answer-Source` body markers and passes when the analytic rate
//!   is at least `--min-fastpath-speedup` × the engine rate. Run the
//!   backend with `--fastpath-audit-pct 0` for a clean comparison.
//!
//! Exit status 0 iff every check passes.
//!
//! Flags: `--addr HOST:PORT[,HOST:PORT...]` `--requests N` `--threads N`
//! `--rate RPS` `--quick` `--expect-503` `--close` `--max-p99-ms MS`
//! `--cache-demo` `--min-speedup X` `--scale-demo` `--min-scale X`
//! `--fastpath-demo` `--min-fastpath-speedup X` `--demo-requests N`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Consistent-hash routing
// ---------------------------------------------------------------------------

fn ring_hash(key: &[u8]) -> u64 {
    let mut h = rumr::fnv1a(key);
    // Finalizer: raw FNV has weak avalanche on short, near-identical
    // keys (vnode labels, bodies differing in one seed digit), which
    // skews ring arcs badly.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

const VNODES: u32 = 256;

/// A hash ring over the backend list: 256 virtual nodes per backend, a
/// key routes to the first vnode at or after its hash (wrapping).
fn build_ring(addrs: &[String]) -> Vec<(u64, usize)> {
    let mut ring: Vec<(u64, usize)> = Vec::with_capacity(addrs.len() * VNODES as usize);
    for (i, addr) in addrs.iter().enumerate() {
        for v in 0..VNODES {
            ring.push((ring_hash(format!("{addr}#{v}").as_bytes()), i));
        }
    }
    ring.sort_unstable();
    ring
}

fn route(ring: &[(u64, usize)], key: &[u8]) -> usize {
    let h = ring_hash(key);
    match ring.binary_search_by(|&(v, _)| v.cmp(&h)) {
        Ok(i) => ring[i].1,
        Err(i) if i < ring.len() => ring[i].1,
        Err(_) => ring[0].1,
    }
}

// ---------------------------------------------------------------------------
// HTTP client (keep-alive by default)
// ---------------------------------------------------------------------------

/// A per-thread client holding one persistent connection per backend.
struct Client<'a> {
    addrs: &'a [String],
    conns: Vec<Option<TcpStream>>,
    keep_alive: bool,
}

impl<'a> Client<'a> {
    fn new(addrs: &'a [String], keep_alive: bool) -> Self {
        Client {
            addrs,
            conns: addrs.iter().map(|_| None).collect(),
            keep_alive,
        }
    }

    /// Issue one request to backend `idx`. A failed attempt on a *reused*
    /// connection (the server may have reaped it idle) gets one retry on a
    /// fresh connection; a failure on a fresh connection is reported.
    fn request(
        &mut self,
        idx: usize,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, String)> {
        let reused = self.conns[idx].is_some();
        match self.try_request(idx, method, path, body) {
            Ok(r) => Ok(r),
            Err(e) => {
                self.conns[idx] = None;
                if reused {
                    self.try_request(idx, method, path, body)
                } else {
                    Err(e)
                }
            }
        }
    }

    fn try_request(
        &mut self,
        idx: usize,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, String)> {
        if self.conns[idx].is_none() {
            let stream = TcpStream::connect(&self.addrs[idx])?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            let _ = stream.set_nodelay(true);
            self.conns[idx] = Some(stream);
        }
        let stream = self.conns[idx].as_mut().expect("just connected");
        let connection = if self.keep_alive {
            ""
        } else {
            "Connection: close\r\n"
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n{connection}\r\n",
            self.addrs[idx],
            body.len()
        );
        let result = (|| {
            stream.write_all(head.as_bytes())?;
            stream.write_all(body.as_bytes())?;
            read_response(stream)
        })();
        match result {
            Ok((status, body, close)) => {
                if close || !self.keep_alive {
                    self.conns[idx] = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.conns[idx] = None;
                Err(e)
            }
        }
    }
}

/// Read one `Content-Length`-framed response; returns (status, body,
/// server asked to close).
fn read_response(stream: &mut TcpStream) -> io::Result<(u16, String, bool)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    let total = head_end + 4 + content_length;
    while buf.len() < total {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Ok((status, body, close))
}

// ---------------------------------------------------------------------------
// Request bodies
// ---------------------------------------------------------------------------

const PLAN_BODY: &str = r#"{"platform": {"homogeneous": {"n": 10, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "scheduler": {"kind": "rumr", "error_estimate": 0.3},
    "w_total": 1000}"#;

const SIM_BODY: &str = r#"{"platform": {"homogeneous": {"n": 10, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "w_total": 1000,
    "error_model": {"kind": "normal", "error": 0.3},
    "run": {"scheduler": {"kind": "rumr", "error_estimate": 0.3}, "seed": 42}}"#;

/// Speed-revelation scenario: plans on declared rates, executes against an
/// adversary that slows a quarter of the workers 2×. The response must
/// carry per-run robustness reports with ratio ≥ 1.
const SIM_SPEEDS_BODY: &str = r#"{"platform": {"homogeneous": {"n": 10, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "w_total": 1000,
    "error_model": {"kind": "normal", "error": 0.3},
    "speeds": {"kind": "adversarial", "fraction": 0.25, "slowdown": 2.0},
    "run": {"scheduler": {"kind": "rumr", "error_estimate": 0.3}, "seed": 42}}"#;

/// Heavier `/simulate` used by the demos: 3 reps so engine time dominates
/// connection overhead.
const SIM_DEMO_BODY: &str = r#"{"platform": {"homogeneous": {"n": 10, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "w_total": 1000,
    "error_model": {"kind": "normal", "error": 0.3},
    "run": {"scheduler": {"kind": "rumr", "error_estimate": 0.3}, "seed": 42, "reps": 3}}"#;

/// Fast-path demo bodies: the same platform and workload, once under a
/// scheduler with an exact oracle (UMR — answered analytically) and once
/// under one without (RUMR — must run the engine with a full trace).
const PLAN_FAST_BODY: &str = r#"{"platform": {"homogeneous": {"n": 32, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "scheduler": {"kind": "umr"},
    "w_total": 200000}"#;

const PLAN_ENGINE_BODY: &str = r#"{"platform": {"homogeneous": {"n": 32, "ratio": 1.5,
    "comp_latency": 0.2, "net_latency": 0.1}},
    "scheduler": {"kind": "rumr", "error_estimate": 0.3},
    "w_total": 200000}"#;

static NEXT_SEED: AtomicU64 = AtomicU64::new(1_000_000);
static NEXT_W: AtomicU64 = AtomicU64::new(0);

/// A plan-cache-busting variant of `body`: a workload nobody has asked
/// for before, so every request reaches the resolver (or the engine)
/// instead of the plan cache.
fn unique_w_body(body: &str) -> String {
    let k = NEXT_W.fetch_add(1, Ordering::Relaxed);
    body.replace(
        "\"w_total\": 200000",
        &format!("\"w_total\": {}", 200_000 + k),
    )
}

/// A cache-busting variant of `body`: a seed nobody has used before, so
/// the canonical request — and therefore the response-cache key — is
/// fresh.
fn unique_seed_body(body: &str) -> String {
    let seed = NEXT_SEED.fetch_add(1, Ordering::Relaxed);
    body.replace("\"seed\": 42", &format!("\"seed\": {seed}"))
}

// ---------------------------------------------------------------------------
// Closed-loop throughput measurement (demo modes)
// ---------------------------------------------------------------------------

/// Run `threads × per_thread` POST requests to `path` as fast as they
/// complete, routing each by its body over `addrs`. Returns (successful
/// responses, elapsed seconds, request failures).
fn closed_loop(
    addrs: &[String],
    keep_alive: bool,
    threads: usize,
    per_thread: usize,
    path: &str,
    make_body: &(dyn Fn() -> String + Sync),
) -> (usize, f64, usize) {
    let ring = build_ring(addrs);
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut client = Client::new(addrs, keep_alive);
                for _ in 0..per_thread {
                    let body = make_body();
                    let idx = route(&ring, body.as_bytes());
                    match client.request(idx, "POST", path, &body) {
                        Ok((200, _)) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    (
        ok.load(Ordering::Relaxed) as usize,
        start.elapsed().as_secs_f64(),
        failed.load(Ordering::Relaxed) as usize,
    )
}

fn run_cache_demo(
    addrs: &[String],
    keep_alive: bool,
    threads: usize,
    per_thread: usize,
    min_speedup: f64,
) -> bool {
    let one = &addrs[..1];
    let mut client = Client::new(one, keep_alive);
    // Prime the response cache with the warm body.
    if !matches!(
        client.request(0, "POST", "/simulate", SIM_DEMO_BODY),
        Ok((200, _))
    ) {
        println!("  [FAIL] cache demo: priming request failed");
        return false;
    }
    let (warm_ok, warm_secs, warm_err) =
        closed_loop(one, keep_alive, threads, per_thread, "/simulate", &|| {
            SIM_DEMO_BODY.to_string()
        });
    let (cold_ok, cold_secs, cold_err) =
        closed_loop(one, keep_alive, threads, per_thread, "/simulate", &|| {
            unique_seed_body(SIM_DEMO_BODY)
        });
    let warm_rate = warm_ok as f64 / warm_secs.max(1e-9);
    let cold_rate = cold_ok as f64 / cold_secs.max(1e-9);
    let speedup = warm_rate / cold_rate.max(1e-9);
    println!(
        "cache demo: warm {warm_rate:.0} req/s vs cold {cold_rate:.0} req/s → {speedup:.1}x \
         ({warm_err}+{cold_err} failures)"
    );
    let ok = warm_err == 0
        && cold_err == 0
        && warm_ok == threads.max(1) * per_thread
        && speedup >= min_speedup;
    println!(
        "  [{}] warm-cache /simulate throughput >= {min_speedup:.1}x cold",
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

fn run_scale_demo(
    addrs: &[String],
    keep_alive: bool,
    threads: usize,
    per_thread: usize,
    min_scale: f64,
) -> bool {
    if addrs.len() < 2 {
        println!("  [FAIL] scale demo needs at least two --addr backends");
        return false;
    }
    let (single_ok, single_secs, single_err) = closed_loop(
        &addrs[..1],
        keep_alive,
        threads,
        per_thread,
        "/simulate",
        &|| unique_seed_body(SIM_DEMO_BODY),
    );
    let (all_ok, all_secs, all_err) =
        closed_loop(addrs, keep_alive, threads, per_thread, "/simulate", &|| {
            unique_seed_body(SIM_DEMO_BODY)
        });
    let single_rate = single_ok as f64 / single_secs.max(1e-9);
    let all_rate = all_ok as f64 / all_secs.max(1e-9);
    let scale = all_rate / single_rate.max(1e-9);
    println!(
        "scale demo: 1 process {single_rate:.0} req/s vs {} processes {all_rate:.0} req/s → {scale:.2}x \
         ({single_err}+{all_err} failures)",
        addrs.len()
    );
    let ok = single_err == 0 && all_err == 0 && scale >= min_scale;
    println!(
        "  [{}] multi-process /simulate throughput >= {min_scale:.2}x single process",
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

/// Closed-loop analytic-vs-engine `/plan` throughput on one backend.
/// Every body carries a fresh workload so the plan cache never answers;
/// the fast-path (UMR, exact oracle) rate must be at least
/// `min_fastpath_speedup` × the engine-path (RUMR, full trace) rate.
/// Run the backend with `--fastpath-audit-pct 0` for a clean comparison —
/// sampled audits bill engine runs to the analytic side.
fn run_fastpath_demo(
    addrs: &[String],
    keep_alive: bool,
    threads: usize,
    per_thread: usize,
    min_fastpath_speedup: f64,
) -> bool {
    let one = &addrs[..1];
    let mut client = Client::new(one, keep_alive);
    // The source markers must hold before throughput means anything.
    let fast_marked = matches!(
        client.request(0, "POST", "/plan", &unique_w_body(PLAN_FAST_BODY)),
        Ok((200, body)) if body.contains("\"source\":\"analytic\"")
    );
    println!(
        "  [{}] umr /plan answered analytically",
        if fast_marked { "ok" } else { "FAIL" }
    );
    let engine_marked = matches!(
        client.request(0, "POST", "/plan", &unique_w_body(PLAN_ENGINE_BODY)),
        Ok((200, body)) if body.contains("\"source\":\"engine\"")
    );
    println!(
        "  [{}] rumr /plan answered by the engine",
        if engine_marked { "ok" } else { "FAIL" }
    );
    if !(fast_marked && engine_marked) {
        return false;
    }
    let (fast_ok, fast_secs, fast_err) =
        closed_loop(one, keep_alive, threads, per_thread, "/plan", &|| {
            unique_w_body(PLAN_FAST_BODY)
        });
    let (eng_ok, eng_secs, eng_err) =
        closed_loop(one, keep_alive, threads, per_thread, "/plan", &|| {
            unique_w_body(PLAN_ENGINE_BODY)
        });
    let fast_rate = fast_ok as f64 / fast_secs.max(1e-9);
    let eng_rate = eng_ok as f64 / eng_secs.max(1e-9);
    let speedup = fast_rate / eng_rate.max(1e-9);
    println!(
        "fastpath demo: analytic {fast_rate:.0} req/s vs engine {eng_rate:.0} req/s → \
         {speedup:.1}x ({fast_err}+{eng_err} failures)"
    );
    let ok = fast_err == 0
        && eng_err == 0
        && fast_ok == threads.max(1) * per_thread
        && eng_ok == threads.max(1) * per_thread
        && speedup >= min_fastpath_speedup;
    println!(
        "  [{}] analytic /plan throughput >= {min_fastpath_speedup:.1}x engine path",
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

// ---------------------------------------------------------------------------
// Mixed-load mode
// ---------------------------------------------------------------------------

struct Outcome {
    latency: f64,
    status: u16,
    kind: usize,
    body: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: load_gen --addr HOST:PORT[,HOST:PORT...] [--requests N] [--threads N] \
         [--rate RPS] [--quick] [--expect-503] [--close] [--max-p99-ms MS] \
         [--cache-demo] [--min-speedup X] [--scale-demo] [--min-scale X] \
         [--fastpath-demo] [--min-fastpath-speedup X] [--demo-requests N]"
    );
    std::process::exit(2)
}

fn main() {
    let mut addr_arg = String::new();
    let mut requests: usize = 200;
    let mut threads: usize = 4;
    let mut rate: f64 = 200.0;
    let mut expect_503 = false;
    let mut keep_alive = true;
    let mut max_p99_ms: Option<f64> = None;
    let mut cache_demo = false;
    let mut scale_demo = false;
    let mut fastpath_demo = false;
    let mut min_speedup = 2.0;
    let mut min_scale = 1.3;
    let mut min_fastpath_speedup = 5.0;
    let mut demo_requests: usize = 25;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--addr" => addr_arg = value(&mut i),
            "--requests" => requests = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rate" => rate = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--quick" => {
                requests = 40;
                threads = 4;
                rate = 100.0;
            }
            "--expect-503" => expect_503 = true,
            "--close" => keep_alive = false,
            "--max-p99-ms" => max_p99_ms = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--cache-demo" => cache_demo = true,
            "--scale-demo" => scale_demo = true,
            "--fastpath-demo" => fastpath_demo = true,
            "--min-speedup" => min_speedup = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--min-scale" => min_scale = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--min-fastpath-speedup" => {
                min_fastpath_speedup = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--demo-requests" => demo_requests = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let addrs: Vec<String> = addr_arg
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.is_empty() {
        usage();
    }

    if cache_demo {
        let ok = run_cache_demo(&addrs, keep_alive, threads, demo_requests, min_speedup);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if scale_demo {
        let ok = run_scale_demo(&addrs, keep_alive, threads, demo_requests, min_scale);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if fastpath_demo {
        let ok = run_fastpath_demo(
            &addrs,
            keep_alive,
            threads,
            demo_requests,
            min_fastpath_speedup,
        );
        std::process::exit(if ok { 0 } else { 1 });
    }

    let ring = build_ring(&addrs);
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(requests));
    let errors = AtomicU64::new(0);
    let next: AtomicU64 = AtomicU64::new(0);
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / rate.max(1.0));

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut client = Client::new(&addrs, keep_alive);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= requests {
                        return;
                    }
                    // Open loop: request i is *scheduled* at start + i·interval;
                    // latency includes any time it spent waiting to be sent.
                    let scheduled = start + interval * i as u32;
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let kind = i % 5;
                    let (method, path, body) = match kind {
                        0 | 1 => ("POST", "/plan", PLAN_BODY),
                        2 => ("POST", "/simulate", SIM_BODY),
                        3 => ("POST", "/simulate", SIM_SPEEDS_BODY),
                        _ => ("GET", "/healthz", ""),
                    };
                    // Bodied requests route by content (cache affinity);
                    // healthz probes rotate over the backends.
                    let idx = if body.is_empty() {
                        i % addrs.len()
                    } else {
                        route(&ring, body.as_bytes())
                    };
                    match client.request(idx, method, path, body) {
                        Ok((status, body)) => outcomes.lock().unwrap().push(Outcome {
                            latency: scheduled.elapsed().as_secs_f64(),
                            status,
                            kind,
                            body,
                        }),
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let outcomes = outcomes.into_inner().unwrap();
    let mut latencies: Vec<f64> = outcomes.iter().map(|o| o.latency).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    let p99_ms = pct(0.99) * 1e3;
    println!(
        "load_gen: {} responses in {elapsed:.2}s ({:.1} req/s), p50 {:.1} ms, p99 {p99_ms:.1} ms",
        outcomes.len(),
        outcomes.len() as f64 / elapsed.max(1e-9),
        pct(0.50) * 1e3,
    );
    let mut by_status: std::collections::BTreeMap<u16, usize> = std::collections::BTreeMap::new();
    for o in &outcomes {
        *by_status.entry(o.status).or_insert(0) += 1;
    }
    for (status, count) in &by_status {
        println!("  status {status}: {count}");
    }

    // --- Acceptance checks -------------------------------------------------
    let mut failed = false;
    let mut check = |name: &str, ok: bool, detail: String| {
        println!("  [{}] {name}{detail}", if ok { "ok" } else { "FAIL" });
        failed |= !ok;
    };

    let io_errors = errors.load(Ordering::Relaxed);
    check(
        "all requests answered",
        io_errors == 0,
        format!(" ({io_errors} I/O errors)"),
    );

    let n5xx = outcomes
        .iter()
        .filter(|o| o.status >= 500 && o.status != 503)
        .count();
    check("zero 5xx", n5xx == 0, format!(" ({n5xx} seen)"));
    let n503 = outcomes.iter().filter(|o| o.status == 503).count();
    if expect_503 {
        check(
            "503 backpressure observed",
            n503 > 0,
            format!(" ({n503} rejections)"),
        );
    } else {
        check(
            "no 503 under nominal load",
            n503 == 0,
            format!(" ({n503} seen)"),
        );
    }

    if let Some(bound) = max_p99_ms {
        check(
            "p99 within bound",
            p99_ms <= bound,
            format!(" ({p99_ms:.1} ms <= {bound:.0} ms)"),
        );
    }

    let sims: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.kind == 2 && o.status == 200)
        .collect();
    if sims.len() >= 2 {
        let identical = sims.windows(2).all(|w| w[0].body == w[1].body);
        check(
            "identical /simulate requests → byte-identical bodies",
            identical,
            String::new(),
        );
    } else if !expect_503 {
        check(
            "at least two successful /simulate responses",
            false,
            format!(" ({} seen)", sims.len()),
        );
    }
    let speed_sims: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.kind == 3 && o.status == 200)
        .collect();
    if !speed_sims.is_empty() {
        let robust = speed_sims.iter().all(|o| {
            o.body.contains("\"robustness\":{\"ratio\":")
                && o.body.split("\"ratio\":").skip(1).all(|piece| {
                    piece
                        .split(&[',', '}'][..])
                        .next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .is_some_and(|r| r >= 1.0 - 1e-9)
                })
        });
        check(
            "speed-revelation runs report robustness ratio >= 1",
            robust,
            String::new(),
        );
    } else if !expect_503 {
        check(
            "at least one successful speed-revelation /simulate",
            false,
            " (0 seen)".to_string(),
        );
    }

    let clean_audit = sims
        .iter()
        .chain(&speed_sims)
        .all(|o| o.body.contains("\"audit_findings\":[]"));
    check("no audit findings", clean_audit, String::new());

    // Cross-process determinism: every backend must produce the same bytes
    // for the same fixed-seed request.
    if addrs.len() >= 2 {
        let mut probe = Client::new(&addrs, keep_alive);
        let bodies: Vec<Option<String>> = (0..addrs.len())
            .map(
                |idx| match probe.request(idx, "POST", "/simulate", SIM_BODY) {
                    Ok((200, body)) => Some(body),
                    _ => None,
                },
            )
            .collect();
        let all_ok = bodies.iter().all(Option::is_some);
        let identical = all_ok && bodies.windows(2).all(|w| w[0] == w[1]);
        check(
            "same request → byte-identical bodies across processes",
            identical,
            String::new(),
        );
    }

    // Metrics scrape, summed over every backend.
    let mut probe = Client::new(&addrs, keep_alive);
    let mut plan_hits = 0u64;
    let mut sim_hits = 0u64;
    let mut sim_misses = 0u64;
    let mut scrape_ok = true;
    for idx in 0..addrs.len() {
        match probe.request(idx, "GET", "/metrics", "") {
            Ok((200, metrics)) => {
                let grab = |prefix: &str| -> u64 {
                    metrics
                        .lines()
                        .find_map(|l| l.strip_prefix(prefix))
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0)
                };
                plan_hits += grab("dls_serve_plan_cache_hits_total ");
                sim_hits += grab("dls_serve_sim_cache_hits_total ");
                sim_misses += grab("dls_serve_sim_cache_misses_total ");
            }
            _ => scrape_ok = false,
        }
    }
    check("metrics scrape", scrape_ok, String::new());
    check(
        "plan cache hit ratio > 0",
        plan_hits > 0,
        format!(" ({plan_hits} hits)"),
    );
    // Only meaningful when the response cache is enabled (a disabled cache
    // never counts hits or misses).
    if sim_hits + sim_misses > 0 && sims.len() >= 2 {
        check(
            "sim response cache hit ratio > 0",
            sim_hits > 0,
            format!(" ({sim_hits} hits / {sim_misses} misses)"),
        );
    }

    std::process::exit(if failed { 1 } else { 0 });
}
