//! `serve_engine` and `serve_analytic`: HTTP load on an in-process
//! `dls-serve`, started with `Server::start`.
//!
//! Each run has two phases on a seeded request pool:
//! 1. set-up (timed five times, median reported): generate the pool,
//!    start the server, send a fixed warm-up prefix of the pool;
//! 2. load cycles until `--seconds` is used up, each a closed-loop segment
//!    (two keep-alive clients send back to back: `ops_per_s`,
//!    `cpu_us_per_op`) and then an open-loop segment of one whole pass over
//!    the pool at a fixed offered rate on two keep-alive connections, each
//!    request timed from its scheduled send (`latency_p50_ms`,
//!    `latency_p99_ms`).
//!
//! Afterwards every distinct response is checked in-process (see
//! [`verify`]); a traced run also replays part of the pool through the
//! library calls the server makes, with a span around each.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dls_experiments::json::{parse_json, Json};
use dls_numerics::rng::SeedDeriver;
use dls_serve::server::ServerHandle;
use dls_serve::{PlanRequest, Server, ServerConfig, SimulateRequest};
use rumr::{ErrorModel, FastPath, FastPathAnswer, RepColumns, RunSpec, Scenario, TraceMode};

use crate::http::{Conn, Response};
use crate::layers::{kind_label, set_plan_and_engine, Layers};
use crate::mix::{self, Endpoint, Mix, Req};
use crate::report::{
    median, per_block_percentile, percentile, replayed_percentile, rusage, set_idle_priority,
    thread_cpu_seconds, wilson_upper, Outcome,
};
use crate::trace::Tracer;
use crate::Args;

/// Client threads and connections: the box's two cores.
const CLIENTS: usize = 2;
const SETUPS: usize = 5;
/// Least share of `--seconds` given to the closed loop.
const CLOSED_SHARE: f64 = 0.3;
/// Sequential `/healthz` probes on an idle server in the traced run.
const HEALTHZ_PROBES: usize = 200;
/// Stand-in latency (ms) of a failed or refused open-loop request: it
/// misses every limit.
const MISSED_MS: f64 = 1e9;

/// Per-mix constants.
struct Profile {
    /// Distinct-or-repeated requests in the pool; the phases wrap around.
    pool: usize,
    /// Pool prefix sent during set-up.
    warmup: usize,
    /// Offered open-loop rate, requests per second.
    rate: f64,
    /// Distinct pool requests replayed in the traced pass.
    replay: usize,
}

fn profile(mix: Mix) -> Profile {
    match mix {
        Mix::Engine => Profile {
            pool: 1_000,
            warmup: 200,
            rate: 200.0,
            replay: 400,
        },
        Mix::Analytic => Profile {
            pool: 2_000,
            warmup: 400,
            rate: 750.0,
            replay: 1_000,
        },
    }
}

/// How `--seconds` splits into alternating closed and open segments: each
/// open segment is one whole pass over the pool at the offered rate (or
/// what fits, when the run is shorter than a pass), and the closed
/// segments share the rest, at least `CLOSED_SHARE` of the run.
struct Cycles {
    count: usize,
    closed_for: Duration,
    open_requests: usize,
}

impl Cycles {
    fn new(seconds: f64, p: &Profile) -> Self {
        let open_for = seconds * (1.0 - CLOSED_SHARE);
        let pass = p.pool as f64 / p.rate;
        if open_for < pass {
            return Cycles {
                count: 1,
                closed_for: Duration::from_secs_f64(seconds * CLOSED_SHARE),
                open_requests: ((open_for * p.rate).round() as usize).max(1),
            };
        }
        let count = (open_for / pass).floor() as usize;
        Cycles {
            count,
            closed_for: Duration::from_secs_f64((seconds - count as f64 * pass) / count as f64),
            open_requests: p.pool,
        }
    }
}

fn workload_name(mix: Mix) -> &'static str {
    match mix {
        Mix::Engine => "serve_engine",
        Mix::Analytic => "serve_analytic",
    }
}

/// Workers cover every client connection plus the metrics scraper; shards
/// are pinned rather than derived from the core count.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        shards: 2,
        ..ServerConfig::default()
    }
}

/// The engine configuration `/simulate` runs: metrics on, audit on, the
/// server's event cap.
fn effective(spec: &RunSpec) -> RunSpec {
    let mut spec = spec.clone();
    spec.config.trace_mode = TraceMode::MetricsOnly;
    spec.config.audit = true;
    spec.config.max_events = spec.config.max_events.min(server_config().max_events);
    spec
}

fn hash_of(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// One response as a client saw it.
struct Rec {
    idx: usize,
    /// HTTP status; 0 when the exchange failed.
    status: u16,
    latency_ns: u64,
    late_ns: u64,
    bytes: usize,
}

/// What one client thread saw.
#[derive(Default)]
struct Log {
    recs: Vec<Rec>,
    /// First 200 body per pool origin, with its hash.
    firsts: HashMap<usize, (u64, String)>,
    /// Origins whose repeated responses were not byte-identical.
    inconsistent: HashSet<usize>,
}

impl Log {
    fn record(
        &mut self,
        pool: &[mix::Req],
        idx: usize,
        result: io::Result<Response>,
        latency: Duration,
        late: Duration,
    ) {
        let (status, bytes) = match result {
            Ok(resp) if resp.status == 200 => {
                let bytes = resp.body.len();
                let origin = pool[idx].origin;
                let h = hash_of(&resp.body);
                match self.firsts.get(&origin) {
                    Some((first, _)) if *first != h => {
                        self.inconsistent.insert(origin);
                    }
                    Some(_) => {}
                    None => {
                        self.firsts.insert(origin, (h, resp.body));
                    }
                }
                (200, bytes)
            }
            Ok(resp) => (resp.status, resp.body.len()),
            Err(_) => (0, 0),
        };
        self.recs.push(Rec {
            idx,
            status,
            latency_ns: latency.as_nanos() as u64,
            late_ns: late.as_nanos() as u64,
            bytes,
        });
    }
}

/// Send one pool request, reconnecting after a failed exchange.
fn send(conn: &mut Option<Conn>, addr: SocketAddr, req: &Req) -> io::Result<Response> {
    if conn.is_none() {
        *conn = Some(Conn::connect(addr)?);
    }
    let (method, path) = req.endpoint.method_and_path();
    let result = conn
        .as_mut()
        .expect("connected above")
        .request(method, path, &req.body);
    if result.is_err() {
        *conn = None;
    }
    result
}

/// Run `phase` while `CLIENTS` idle-priority threads keep the CPUs out of
/// their idle state; returns its result and the CPU seconds the spinners
/// used. On a VM, waking a halted vCPU waits for the host's scheduler —
/// 0.1 to 5 ms on the 2-vCPU machine this was tuned on, changing with the
/// neighbours' load from one second to the next — and that wait otherwise
/// dominates open-loop latency. `SCHED_IDLE` threads run only when no
/// other thread wants their CPU, so they take no CPU time from the
/// workload.
fn keep_awake<T>(phase: impl FnOnce() -> T) -> (T, f64) {
    /// Stops the spinners even when `phase` panics, so the scope can join.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let spinners: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    if !set_idle_priority() {
                        return 0.0;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    thread_cpu_seconds()
                })
            })
            .collect();
        let guard = Stop(&stop);
        let out = phase();
        drop(guard);
        let cpu = spinners
            .into_iter()
            .map(|h| h.join().expect("spinner thread panicked"))
            .sum();
        (out, cpu)
    })
}

/// Closed loop: one connection per client log sends pool requests back to
/// back from `start` until `duration` has passed, appending to its log.
/// Returns the wall time.
fn closed_loop(
    addr: SocketAddr,
    pool: &[Req],
    start: usize,
    duration: Duration,
    logs: &mut [Log],
) -> f64 {
    let next = AtomicUsize::new(start);
    let t0 = Instant::now();
    let deadline = t0 + duration;
    std::thread::scope(|scope| {
        for log in logs.iter_mut() {
            let next = &next;
            scope.spawn(move || {
                let mut conn = None;
                while Instant::now() < deadline {
                    let idx = next.fetch_add(1, Ordering::Relaxed) % pool.len();
                    let t = Instant::now();
                    let result = send(&mut conn, addr, &pool[idx]);
                    log.record(pool, idx, result, t.elapsed(), Duration::ZERO);
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Open loop: `n` requests from pool index `start` on; request `j` is due
/// `j / rate` seconds after the start; client `k` sends requests
/// `j ≡ k (mod clients)` on its own connection, no earlier than due, and
/// appends to log `k`. Latency is measured from the due time, so a request
/// that waits behind a slow one on its connection is charged the wait.
/// Lateness is the generator's own lag: how long after both the due time
/// and the connection's previous response it actually sent.
fn open_loop(addr: SocketAddr, pool: &[Req], start: usize, rate: f64, n: usize, logs: &mut [Log]) {
    let clients = logs.len();
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for (k, log) in logs.iter_mut().enumerate() {
            scope.spawn(move || {
                let mut conn = None;
                let mut free = t0;
                for j in (k..n).step_by(clients) {
                    let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let idx = (start + j) % pool.len();
                    let result = send(&mut conn, addr, &pool[idx]);
                    log.record(pool, idx, result, due.elapsed(), sent - due.max(free));
                    free = Instant::now();
                }
            });
        }
    });
}

/// `GET /metrics`, parsed into `series → value`.
fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let body = Conn::connect(addr)
        .and_then(|mut c| c.request("GET", "/v1/metrics", ""))
        .map(|r| r.body)
        .unwrap_or_default();
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `/metrics` scraped before and after one closed-loop segment.
type Scrapes = (HashMap<String, f64>, HashMap<String, f64>);

/// Mean server handling time (µs) of `endpoint` within the scraped spans.
fn handler_us(spans: &[Scrapes], endpoint: &str) -> f64 {
    let get = |m: &HashMap<String, f64>, what: &str| {
        m.get(&format!(
            "dls_serve_request_seconds_{what}{{endpoint=\"{endpoint}\"}}"
        ))
        .copied()
        .unwrap_or(0.0)
    };
    let delta = |what: &str| -> f64 {
        spans
            .iter()
            .map(|(before, after)| get(after, what) - get(before, what))
            .sum()
    };
    let count = delta("count");
    if count > 0.0 {
        delta("sum") / count * 1e6
    } else {
        0.0
    }
}

/// Set-up: generate the pool, start the server, send the warm-up prefix on
/// two connections. Returns the pool, the live server and the number of
/// warm-up requests that did not get a 200.
fn set_up(mix: Mix, seed: u64, p: &Profile) -> (Vec<Req>, ServerHandle, usize) {
    let pool = mix::generate(mix, SeedDeriver::new(seed).child(mix as u64).seed(), p.pool);
    let server = Server::start(server_config()).expect("server binds a loopback port");
    let addr = server.addr;
    let next = AtomicUsize::new(0);
    let (bad, _) = keep_awake(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut conn = None;
                        let mut bad = 0;
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= p.warmup {
                                return bad;
                            }
                            match send(&mut conn, addr, &pool[idx]) {
                                Ok(r) if r.status == 200 => {}
                                _ => bad += 1,
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up thread panicked"))
                .sum::<usize>()
        })
    });
    (pool, server, bad)
}

pub fn run(args: &Args, process_start: Instant, mix: Mix) -> Outcome {
    let name = workload_name(mix);
    let p = profile(mix);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    let mut warmup_bad = 0;
    for i in 0..SETUPS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (pool, server, bad) = set_up(mix, args.seed, &p);
        setups.push(start.elapsed().as_secs_f64());
        warmup_bad += bad;
        if let Some((_, old)) = live.replace((pool, server)) {
            old.shutdown();
        }
    }
    let (pool, server) = live.expect("at least one set-up");
    let addr = server.addr;

    // Closed and open segments alternate, so both load phases sample the
    // machine over the whole run rather than one stretch of it each: the
    // speed of this kind of shared VM drifts by tens of percent over a few
    // seconds.
    let cycles = Cycles::new(args.seconds, &p);
    let new_logs = || (0..CLIENTS).map(|_| Log::default()).collect::<Vec<_>>();
    let (mut closed, mut open) = (new_logs(), new_logs());
    let sent = |logs: &[Log]| logs.iter().map(|l| l.recs.len()).sum::<usize>();
    let (mut closed_wall, mut closed_cpu) = (0.0, 0.0);
    let mut spans = Vec::with_capacity(cycles.count);
    // Open-loop latency (ms) of every request with its segment and pool
    // index; failed or refused requests miss every limit.
    let mut latencies: Vec<(u64, usize, f64)> = Vec::new();
    let mut next = p.warmup;
    for segment in 0..cycles.count {
        let before = scrape(addr);
        let (cpu0, _) = rusage();
        let sent_before = sent(&closed);
        let (wall, spin_cpu) =
            keep_awake(|| closed_loop(addr, &pool, next, cycles.closed_for, &mut closed));
        closed_cpu += rusage().0 - cpu0 - spin_cpu;
        spans.push((before, scrape(addr)));
        closed_wall += wall;
        next += sent(&closed) - sent_before;
        let from: Vec<usize> = open.iter().map(|l| l.recs.len()).collect();
        keep_awake(|| open_loop(addr, &pool, next, p.rate, cycles.open_requests, &mut open));
        next += cycles.open_requests;
        for (log, from) in open.iter().zip(from) {
            latencies.extend(log.recs[from..].iter().map(|r| {
                let ms = if r.status == 200 {
                    r.latency_ns as f64 / 1e6
                } else {
                    MISSED_MS
                };
                (segment as u64, r.idx, ms)
            }));
        }
    }
    let closed_ops = sent(&closed);

    // Output checks over every response of both phases.
    let logs: Vec<&Log> = closed.iter().chain(&open).collect();
    let checks = check(&pool, &logs);
    let mut late_ms: Vec<f64> = open
        .iter()
        .flat_map(|l| &l.recs)
        .map(|r| r.late_ns as f64 / 1e6)
        .collect();
    late_ms.sort_by(f64::total_cmp);
    let (late_p99, late_max) = (
        percentile(&late_ms, 0.99),
        late_ms.last().copied().unwrap_or(0.0),
    );
    eprintln!(
        "{name}: seed {} — {} cycles; closed loop {closed_ops} responses in {closed_wall:.2} s; open loop {} requests at {} req/s, generator late p99 {late_p99:.3} ms, max {late_max:.3} ms{}",
        args.seed,
        cycles.count,
        late_ms.len(),
        p.rate,
        if late_p99 > 1.0 { " — GENERATOR FELL BEHIND" } else { "" }
    );
    eprintln!(
        "{name}: {} attempted, {} failed, {} refused, {} wrong, {} oracle-claim misses; {} distinct bodies, {} with a bad answer",
        checks.attempted,
        checks.failed,
        checks.refused,
        checks.wrong,
        checks.oracle_misses,
        checks.distinct,
        checks.bad_distinct
    );
    if warmup_bad > 0 {
        eprintln!("{name}: {warmup_bad} warm-up requests did not get a 200");
    }
    let correct = checks.wrong == 0 && warmup_bad == 0;

    let metrics = if args.trace {
        let mut layers = Layers::default();
        closed_loop_layers(&mut layers, &pool, &closed, &spans);
        layers.set("load_gen.late_p99_ms", late_p99);
        layers.set("load_gen.late_max_ms", late_max);
        traced(
            &mut layers,
            &pool,
            &p,
            &server,
            process_start,
            name,
            args.seed,
        );
        layers.into_metrics()
    } else {
        // Every open-loop segment is a whole pass over the pool, so each
        // pool request is sent once per segment. Its latency is its fastest
        // send, and the percentiles are taken over the pool's requests:
        // the figure does not follow which heavy requests a window happened
        // to catch, nor which sends the host's interference happened to
        // hit.
        let by_segment: Vec<(u64, f64)> = latencies.iter().map(|&(s, _, ms)| (s, ms)).collect();
        let by_request: Vec<(usize, f64)> = latencies.iter().map(|&(_, r, ms)| (r, ms)).collect();
        eprintln!(
            "{name}: {} open-loop latency samples, {} requests sent {} times; p99 per segment (ms): {}",
            latencies.len(),
            cycles.open_requests,
            cycles.count,
            per_block_percentile(&by_segment, 0.99)
                .iter()
                .map(|ms| format!("{ms:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let (_, peak_mib) = rusage();
        vec![
            ("setup_s".into(), median(&mut setups), "s"),
            ("ops_per_s".into(), closed_ops as f64 / closed_wall, "ops/s"),
            (
                "cpu_us_per_op".into(),
                closed_cpu * 1e6 / closed_ops.max(1) as f64,
                "us",
            ),
            (
                "latency_p50_ms".into(),
                replayed_percentile(&by_request, MISSED_MS, 0.50),
                "ms",
            ),
            (
                "latency_p99_ms".into(),
                replayed_percentile(&by_request, MISSED_MS, 0.99),
                "ms",
            ),
            (
                "error_ratio".into(),
                wilson_upper(checks.bad_distinct, checks.distinct),
                "ratio",
            ),
            ("peak_rss_mb".into(), peak_mib, "MiB"),
        ]
    };
    server.shutdown();
    Outcome {
        correct,
        attempted: checks.attempted,
        failed: checks.failed + checks.refused,
        metrics,
    }
}

/// Tallies of the output checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    /// Failed exchanges and unexpected statuses.
    failed: u64,
    /// 503 answers (backpressure).
    refused: u64,
    /// 200 answers that are not what the library computes in-process, or
    /// that differ from an earlier answer to the same body.
    wrong: u64,
    /// Analytic answers that miss the oracle's stated tolerance against an
    /// engine run.
    oracle_misses: u64,
    /// Distinct request bodies sent.
    distinct: u64,
    /// Distinct bodies with at least one failed, refused or incorrect
    /// answer.
    bad_distinct: u64,
}

/// Verdict on one distinct response.
enum Verdict {
    Ok,
    /// An analytic answer outside the oracle's tolerance of the engine:
    /// the relative residual.
    OracleMiss(f64),
    Wrong(String),
}

fn check(pool: &[Req], logs: &[&Log]) -> Checks {
    // Byte identity across connections, then one body per origin.
    let mut firsts: HashMap<usize, (u64, &str)> = HashMap::new();
    let mut inconsistent: HashSet<usize> = HashSet::new();
    for log in logs {
        inconsistent.extend(&log.inconsistent);
        for (&origin, (h, body)) in &log.firsts {
            match firsts.get(&origin) {
                Some((first, _)) if first != h => {
                    inconsistent.insert(origin);
                }
                Some(_) => {}
                None => {
                    firsts.insert(origin, (*h, body.as_str()));
                }
            }
        }
    }
    let work: Vec<(usize, &str)> = firsts.iter().map(|(&o, &(_, b))| (o, b)).collect();
    let next = AtomicUsize::new(0);
    let verdicts: HashMap<usize, Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(origin, body)) = work.get(i) else {
                            return out;
                        };
                        out.push((origin, verify(&pool[origin], body)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });

    let mut checks = Checks::default();
    let mut misses: Vec<(usize, f64)> = Vec::new();
    for (&origin, verdict) in &verdicts {
        match verdict {
            Verdict::Ok => {}
            Verdict::OracleMiss(residual) => misses.push((origin, *residual)),
            Verdict::Wrong(why) => {
                eprintln!(
                    "WRONG answer to pool request {origin}: {why}\n  request: {}",
                    pool[origin].body
                );
            }
        }
    }
    for &origin in &inconsistent {
        eprintln!(
            "WRONG: repeated request {origin} got different bodies\n  request: {}",
            pool[origin].body
        );
    }
    misses.sort_by_key(|m| m.0);
    for (origin, residual) in &misses {
        let body = firsts[origin].1;
        let head: String = body.chars().take(160).collect();
        eprintln!(
            "ORACLE MISS: analytic answer off the engine by {residual:.3e} (claimed tolerance 1e-6)\n  request: {}\n  response ({} bytes): {head}...",
            pool[*origin].body,
            body.len()
        );
    }
    // Per distinct body: was any of its answers bad?
    let mut bad_by_origin: HashMap<usize, bool> = HashMap::new();
    for log in logs {
        for r in &log.recs {
            checks.attempted += 1;
            let origin = pool[r.idx].origin;
            let good = match r.status {
                // Every 200 body's origin has a stored first body, so a
                // verdict.
                200 => match &verdicts[&origin] {
                    _ if inconsistent.contains(&origin) => {
                        checks.wrong += 1;
                        false
                    }
                    Verdict::Ok => true,
                    Verdict::OracleMiss(_) => {
                        checks.oracle_misses += 1;
                        false
                    }
                    Verdict::Wrong(_) => {
                        checks.wrong += 1;
                        false
                    }
                },
                503 => {
                    checks.refused += 1;
                    false
                }
                _ => {
                    checks.failed += 1;
                    false
                }
            };
            *bad_by_origin.entry(origin).or_default() |= !good;
        }
    }
    checks.distinct = bad_by_origin.len() as u64;
    checks.bad_distinct = bad_by_origin.values().filter(|&&bad| bad).count() as u64;
    checks
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::num)
        .ok_or_else(|| format!("response has no number '{key}'"))
}

fn same_bits(served: f64, local: f64, what: &str) -> Result<(), String> {
    if served.to_bits() == local.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: served {served}, in-process {local}"))
    }
}

/// Judge an analytic answer against an error-free engine makespan.
fn oracle_verdict(answer: &FastPathAnswer, simulated: f64) -> Verdict {
    if answer.agrees_with(simulated) {
        Verdict::Ok
    } else {
        Verdict::OracleMiss(answer.residual(simulated))
    }
}

/// Check one distinct response against an in-process recomputation:
/// engine answers must equal a fresh `Scenario::execute` of the decoded
/// request bit for bit, with no audit findings and robustness ratios
/// ≥ 1; analytic answers must equal the in-process fast-path answer bit
/// for bit and are then judged against an engine run at the oracle's
/// stated tolerance.
fn verify(req: &Req, body: &str) -> Verdict {
    let result = match req.endpoint {
        Endpoint::Healthz if body == "ok\n" => Ok(Verdict::Ok),
        Endpoint::Healthz => Err(format!("healthz body {body:?}")),
        Endpoint::Plan => verify_plan(&req.body, body),
        Endpoint::Simulate => verify_simulate(&req.body, body),
    };
    result.unwrap_or_else(Verdict::Wrong)
}

fn verify_plan(request: &str, response: &str) -> Result<Verdict, String> {
    let plan = PlanRequest::from_json_str(request).map_err(|e| e.to_string())?;
    let v = parse_json(response)?;
    let makespan = num(&v, "makespan")?;
    let scenario = Scenario {
        platform: plan.platform.clone(),
        w_total: plan.w_total,
        error_model: ErrorModel::None,
        cost_profile: None,
        temporal_noise: None,
    };
    let decision = FastPath::resolve_kind(&scenario, &RunSpec::new(plan.kind), plan.kind)
        .map_err(|e| e.to_string())?;
    match (v.get("source").and_then(Json::str), decision.analytic()) {
        (Some("analytic"), Some(answer)) => {
            same_bits(makespan, answer.makespan, "analytic /plan makespan")?;
            let spec = RunSpec::new(plan.kind).trace_mode(TraceMode::MetricsOnly);
            let simulated = scenario.execute(&spec).map_err(|e| e.to_string())?.makespan;
            Ok(oracle_verdict(answer, simulated))
        }
        (Some("engine"), None) => {
            let spec = RunSpec::new(plan.kind)
                .trace_mode(TraceMode::Full)
                .max_events(server_config().max_events);
            let r = scenario.execute(&spec).map_err(|e| e.to_string())?;
            same_bits(makespan, r.makespan, "engine /plan makespan")?;
            if num(&v, "num_chunks")? != r.num_chunks as f64 {
                return Err(format!("num_chunks differs from {}", r.num_chunks));
            }
            Ok(Verdict::Ok)
        }
        (source, local) => Err(format!(
            "served source {source:?}, in-process fast path {}",
            if local.is_some() {
                "analytic"
            } else {
                "engine"
            }
        )),
    }
}

fn verify_simulate(request: &str, response: &str) -> Result<Verdict, String> {
    let sim = SimulateRequest::from_json_str(request).map_err(|e| e.to_string())?;
    let v = parse_json(response)?;
    let runs = v
        .get("runs")
        .and_then(Json::arr)
        .ok_or("response has no 'runs'")?;
    if runs.len() as u64 != sim.spec.reps {
        return Err(format!("{} runs for {} reps", runs.len(), sim.spec.reps));
    }
    let decision = FastPath::resolve(&sim.scenario, &sim.spec).map_err(|e| e.to_string())?;
    let spec = effective(&sim.spec);
    match (v.get("source").and_then(Json::str), decision.analytic()) {
        (Some("analytic"), Some(answer)) => {
            for run in runs {
                same_bits(
                    num(run, "makespan")?,
                    answer.makespan,
                    "analytic /simulate makespan",
                )?;
            }
            let simulated = sim
                .scenario
                .execute(&spec.reps(1))
                .map_err(|e| e.to_string())?
                .makespan;
            Ok(oracle_verdict(answer, simulated))
        }
        (Some("engine"), None) => {
            for (i, run) in runs.iter().enumerate() {
                let seed = spec.seed + i as u64;
                let r = sim
                    .scenario
                    .execute(&spec.clone().seed(seed).reps(1))
                    .map_err(|e| e.to_string())?;
                same_bits(
                    num(run, "makespan")?,
                    r.makespan,
                    "engine /simulate makespan",
                )?;
                if run
                    .get("audit_findings")
                    .and_then(Json::arr)
                    .is_none_or(|f| !f.is_empty())
                {
                    return Err(format!("run {i} has audit findings"));
                }
                if spec.config.speeds.is_active() {
                    let ratio = run
                        .get("robustness")
                        .map(|r| num(r, "ratio"))
                        .ok_or("no robustness for revealed speeds")??;
                    if ratio.is_nan() || ratio < 1.0 {
                        return Err(format!("run {i} robustness ratio {ratio} < 1"));
                    }
                }
            }
            Ok(Verdict::Ok)
        }
        (source, local) => Err(format!(
            "served source {source:?}, in-process fast path {}",
            if local.is_some() {
                "analytic"
            } else {
                "engine"
            }
        )),
    }
}

/// Counters of a replay pass.
#[derive(Default)]
struct Replay {
    resolves: u64,
    analytic: u64,
    runs: u64,
    plan_keys: HashSet<String>,
}

/// Replay the first `count` distinct non-health requests of the pool
/// through the calls the server makes for them, with a span around each.
fn replay(pool: &[Req], count: usize, t: &mut Tracer) -> Replay {
    let mut stats = Replay::default();
    let distinct = pool
        .iter()
        .enumerate()
        .filter(|(i, r)| r.origin == *i && r.endpoint != Endpoint::Healthz)
        .take(count);
    for (idx, req) in distinct {
        let id = idx as u64;
        match req.endpoint {
            Endpoint::Simulate => replay_simulate(t, id, &req.body, &mut stats),
            Endpoint::Plan => replay_plan(t, id, &req.body, &mut stats),
            Endpoint::Healthz => {}
        }
    }
    stats
}

/// `/simulate`: decode, keys, fast-path resolve, and for engine answers the
/// prototype, a runner, the audited repetition batch and the robustness
/// twins. The same batch then runs once more with the trace off and no
/// audit, outside the request span, for the audit overhead.
fn replay_simulate(t: &mut Tracer, id: u64, body: &str, stats: &mut Replay) {
    let engine_path = t.span("serve.request", "simulate", id, |t| {
        let sim = t
            .span("serve.api.decode", "simulate", id, |_| {
                SimulateRequest::from_json_str(body)
            })
            .expect("pool requests decode");
        t.span("serve.api.key", "simulate", id, |_| {
            black_box((sim.canonical(), sim.scenario_key(), sim.plan_key()));
        });
        let label = kind_label(&sim.spec.kind);
        stats.resolves += 1;
        let decision = t
            .span("core.fastpath.resolve", label, id, |_| {
                FastPath::resolve(&sim.scenario, &sim.spec)
            })
            .expect("pool requests resolve");
        if decision.analytic().is_some() {
            stats.analytic += 1;
            return None;
        }
        let prototype = t
            .span("sched.plan", label, id, |_| {
                sim.spec
                    .kind
                    .prototype(&sim.scenario.platform, sim.scenario.w_total)
            })
            .expect("pool requests plan");
        stats.plan_keys.insert(sim.plan_key());
        let spec = effective(&sim.spec).with_prototype(prototype);
        {
            let mut runner = t.span("core.runner_setup", "", id, |_| {
                sim.scenario.runner(spec.config.clone())
            });
            let workers = sim.scenario.platform.num_workers();
            let cols = t.counted("simcore.engine", label, id, |_| {
                let mut cols = RepColumns::with_capacity(spec.reps as usize, workers);
                runner
                    .execute_batch(&spec, &mut cols)
                    .expect("pool requests run");
                let events = cols.total_events();
                (cols, events)
            });
            stats.runs += cols.len() as u64;
            if spec.config.speeds.is_active() {
                for (seed, &m) in spec.seeds().zip(&cols.makespan) {
                    t.span("core.robustness", label, id, |_| {
                        black_box(runner.scenario().robustness(&spec, seed, m))
                    });
                }
            }
        }
        Some((sim, spec, label))
    });
    if let Some((sim, mut spec, label)) = engine_path {
        spec.config.trace_mode = TraceMode::Off;
        spec.config.audit = false;
        let mut runner = sim.scenario.runner(spec.config.clone());
        let mut cols =
            RepColumns::with_capacity(spec.reps as usize, sim.scenario.platform.num_workers());
        t.span("simcore.engine.off", label, id, |_| {
            runner
                .execute_batch(&spec, &mut cols)
                .expect("pool requests run")
        });
    }
}

/// `/plan`: decode, key, prototype, fast-path resolve, and for engine
/// answers the full-trace run.
fn replay_plan(t: &mut Tracer, id: u64, body: &str, stats: &mut Replay) {
    t.span("serve.request", "plan", id, |t| {
        let plan = t
            .span("serve.api.decode", "plan", id, |_| {
                PlanRequest::from_json_str(body)
            })
            .expect("pool requests decode");
        let key = t.span("serve.api.key", "plan", id, |_| plan.cache_key());
        let label = kind_label(&plan.kind);
        let prototype = t
            .span("sched.plan", label, id, |_| {
                plan.kind.prototype(&plan.platform, plan.w_total)
            })
            .expect("pool requests plan");
        stats.plan_keys.insert(key);
        let scenario = Scenario {
            platform: plan.platform.clone(),
            w_total: plan.w_total,
            error_model: ErrorModel::None,
            cost_profile: None,
            temporal_noise: None,
        };
        stats.resolves += 1;
        let decision = t
            .span("core.fastpath.resolve", label, id, |_| {
                FastPath::resolve_kind(&scenario, &RunSpec::new(plan.kind), plan.kind)
            })
            .expect("pool requests resolve");
        if decision.analytic().is_some() {
            stats.analytic += 1;
            return;
        }
        let spec = RunSpec::new(plan.kind)
            .trace_mode(TraceMode::Full)
            .max_events(server_config().max_events)
            .with_prototype(prototype);
        t.counted("simcore.engine", label, id, |_| {
            let r = scenario.execute(&spec).expect("pool requests run");
            let events = r.events;
            (r, events)
        });
        stats.runs += 1;
    });
}

/// The closed loop as the clients saw it, per endpoint: mean response
/// size, server handling time from `/metrics` scrapes around each closed
/// segment, and the client latency beyond it.
fn closed_loop_layers(layers: &mut Layers, pool: &[Req], closed: &[Log], spans: &[Scrapes]) {
    for (endpoint, label, path) in [
        (Endpoint::Plan, "plan", "/plan"),
        (Endpoint::Simulate, "simulate", "/simulate"),
    ] {
        let recs: Vec<&Rec> = closed
            .iter()
            .flat_map(|l| &l.recs)
            .filter(|r| pool[r.idx].endpoint == endpoint && r.status == 200)
            .collect();
        if recs.is_empty() {
            continue;
        }
        let n = recs.len() as f64;
        let bytes = recs.iter().map(|r| r.bytes as f64).sum::<f64>() / n;
        let client_us = recs.iter().map(|r| r.latency_ns as f64).sum::<f64>() / n / 1e3;
        let handler = handler_us(spans, path);
        layers.set(format!("serve.api.response_bytes.{label}"), bytes);
        layers.set(format!("serve.server.handler_us.{label}"), handler);
        layers.set(format!("serve.wait_us.{label}"), client_us - handler);
    }
}

/// The traced part of a serving run: replay passes with spans off and on,
/// `/healthz` probes, and the server's own counters.
fn traced(
    layers: &mut Layers,
    pool: &[Req],
    p: &Profile,
    server: &ServerHandle,
    origin: Instant,
    name: &str,
    seed: u64,
) {
    // Untraced, traced, untraced again: the overhead compares the traced
    // pass with the mean of the two around it.
    let mut off = Tracer::new(false, origin);
    let t = Instant::now();
    replay(pool, p.replay, &mut off);
    let mut untraced = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true, origin);
    let t = Instant::now();
    let stats = replay(pool, p.replay, &mut tracer);
    let traced = t.elapsed().as_secs_f64();
    let t = Instant::now();
    replay(pool, p.replay, &mut off);
    untraced = (untraced + t.elapsed().as_secs_f64()) / 2.0;

    set_plan_and_engine(
        layers,
        &tracer,
        "serve.request",
        stats.plan_keys.len(),
        stats.runs,
    );
    layers.set(
        "core.fastpath.resolve_us",
        tracer.mean_us("core.fastpath.resolve", None),
    );
    if stats.resolves > 0 {
        layers.set(
            "core.fastpath.analytic_ratio",
            stats.analytic as f64 / stats.resolves as f64,
        );
    }
    layers.set(
        "core.robustness_us",
        tracer.mean_us("core.robustness", None),
    );
    let twinned: HashSet<u64> = tracer
        .named("simcore.engine.off")
        .map(|s| s.request)
        .collect();
    let audited_ns: u64 = tracer
        .named("simcore.engine")
        .filter(|s| twinned.contains(&s.request))
        .map(|s| s.dur_ns())
        .sum();
    let off_ns = tracer.total_ns("simcore.engine.off");
    if off_ns > 0 {
        layers.set(
            "simcore.audit_overhead_ratio",
            audited_ns as f64 / off_ns as f64,
        );
    }
    layers.set(
        "serve.api.decode_us",
        tracer.mean_us("serve.api.decode", None),
    );
    layers.set("serve.api.key_us", tracer.mean_us("serve.api.key", None));
    layers.set("trace.overhead_ratio", traced / untraced);

    // HTTP framing alone: sequential health checks on an idle server.
    let (mut rtts_us, _) = keep_awake(|| {
        let mut rtts_us = Vec::with_capacity(HEALTHZ_PROBES);
        if let Ok(mut conn) = Conn::connect(server.addr) {
            for _ in 0..HEALTHZ_PROBES {
                let t = Instant::now();
                if conn.request("GET", "/v1/healthz", "").is_ok() {
                    rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        rtts_us
    });
    layers.set("serve.http.healthz_rtt_us", median(&mut rtts_us));

    let m = server.metrics();
    layers.set("serve.fastpath.audited", m.fastpath_audited_total() as f64);
    layers.set(
        "serve.fastpath.divergences",
        m.fastpath_divergences_total() as f64,
    );
    layers.set("serve.server.rejected", m.rejected_total() as f64);
    layers.set("serve.server.accept_errors", m.accept_errors_total() as f64);
    let shards = m.shard_requests();
    let routed: u64 = shards.values().sum();
    if routed > 0 {
        let max = shards.values().copied().max().unwrap_or(0);
        layers.set("serve.shard.max_share", max as f64 / routed as f64);
    }
    let last = scrape(server.addr);
    let get = |k: &str| last.get(k).copied().unwrap_or(0.0);
    layers.set(
        "serve.cache.plan_hit_ratio",
        get("dls_serve_plan_cache_hit_ratio"),
    );
    layers.set(
        "serve.cache.sim_hit_ratio",
        get("dls_serve_sim_cache_hit_ratio"),
    );
    layers.set(
        "serve.cache.evictions",
        get("dls_serve_plan_cache_evictions_total") + get("dls_serve_sim_cache_evictions_total"),
    );
    if let Err(e) = tracer.finish(&crate::spans_path(name, seed)) {
        eprintln!("{name}: could not write spans: {e}");
    }
}
