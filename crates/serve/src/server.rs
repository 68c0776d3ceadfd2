//! The service itself: acceptor, bounded queue, worker pool, engine
//! shards, handlers.
//!
//! Connection flow: a blocking acceptor thread pushes accepted sockets
//! into a bounded queue guarded by a mutex + condvar. When the queue is at
//! its bound the acceptor answers `503 Service Unavailable` with a
//! `Retry-After` header itself — load never reaches the workers. Accept
//! failures are counted on `/metrics` and retried with exponential
//! backoff; shutdown wakes the blocked acceptor with a loopback connect.
//!
//! Each worker thread pops a connection and serves *all* of its requests:
//! HTTP/1.1 connections are persistent by default (see [`crate::http`]),
//! so a worker stays with its connection until the client closes it, sends
//! `Connection: close`, goes idle past the keep-alive timeout, or sends
//! something malformed. A keep-alive connection therefore occupies a
//! worker for its lifetime — size `workers` at or above the number of
//! concurrent client connections you expect to serve. When a request is
//! answered analytically and sampled for the DES audit, the worker runs
//! the audit after writing the response and before reading the
//! connection's next request (or closing it).
//!
//! `/simulate` execution happens on engine shards, not on HTTP workers:
//! each decoded request is routed by a stable hash of its scenario
//! (platform + workload + error model) to one of `shards` dedicated
//! threads, each owning a warm borrowing [`rumr::ScenarioRunner`].
//! Same-scenario requests always land on the same shard and reuse its
//! engine allocations (`run_reusing`), no matter which connection or
//! worker carried them. Before dispatching, the worker consults the
//! `/simulate` response cache (canonical request → response body —
//! sound because responses are byte-deterministic in the canonical
//! request); hits are served on the spot with `X-Sim-Cache: hit`.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dls_experiments::json::{json_escape, json_num};
use rumr::sim::{SimError, TraceEvent};
use rumr::{
    FastPath, FastPathAnswer, FastPathDecision, MultiRunResult, Prediction, RepColumns,
    RobustnessReport, RoundTiming, RunError, Scenario, SimResult, SpeedModel, TraceMode,
};

use crate::api::{ApiError, JobsRequest, PlanRequest, SimulateRequest};
use crate::cache::{CachedPlan, PlanCache, SimCache};
use crate::http::{self, read_request, write_error, write_response, ReadError, Request};
use crate::metrics::Metrics;
use crate::shard::{shard_index, Outcome, Reply, ShardJob, ShardPool};
use crate::sync::{lock, wait_timeout};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests. A keep-alive connection occupies
    /// a worker for its lifetime, so size this at or above the expected
    /// number of concurrent connections.
    pub workers: usize,
    /// Bound on the connection queue; beyond it the acceptor sheds load
    /// with 503s.
    pub queue_bound: usize,
    /// Plan cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// `/simulate` response cache capacity (entries); 0 disables it.
    pub sim_cache_capacity: usize,
    /// Engine shards executing `/simulate`; 0 picks one per available
    /// core (capped at 8).
    pub shards: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub keep_alive_timeout_ms: u64,
    /// Hard cap on `max_events` for `/simulate` (the request timeout knob:
    /// runs hitting it get a 422).
    pub max_events: u64,
    /// Artificial per-request delay (test hook for exercising
    /// backpressure deterministically). 0 in production.
    pub handler_delay_ms: u64,
    /// Bound on not-yet-finished `/jobs` submissions; beyond it `POST
    /// /jobs` sheds load with 503s.
    pub job_capacity: usize,
    /// Sampled-DES-audit rate: the percentage of analytic fast-path
    /// answers re-run through the engine and cross-checked against the
    /// oracle tolerance. `0` disables the audit, `>= 100` audits every
    /// analytic answer. An audit runs on the worker that wrote the answer,
    /// after the response is written and before the connection's next
    /// request is read, so a client sees its counters once it has the
    /// connection's next response (or EOF after `Connection: close`).
    /// Finished audits are counted on `/metrics`
    /// (`dls_serve_fastpath_audited_total`), divergences apart
    /// (`dls_serve_fastpath_divergence_total`, fatal in CI), and so are
    /// audit runs the engine could not finish
    /// (`dls_serve_fastpath_audit_errors_total`).
    pub fastpath_audit_pct: u32,
    /// Test hook: perturb every audited engine re-run so it disagrees
    /// with the analytic answer, proving the divergence counter fires.
    /// Never set in production.
    pub fastpath_divergence_inject: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_bound: 64,
            cache_capacity: 128,
            sim_cache_capacity: 256,
            shards: 0,
            keep_alive_timeout_ms: 5_000,
            max_events: 50_000_000,
            handler_delay_ms: 0,
            job_capacity: 32,
            fastpath_audit_pct: 10,
            fastpath_divergence_inject: false,
        }
    }
}

/// State of one submitted multi-load job set.
enum JobState {
    /// Accepted, waiting for the runner thread. Holds the decoded request
    /// until the run starts.
    Queued(Box<JobsRequest>),
    /// The runner thread is executing it.
    Running,
    /// Finished; the rendered result JSON is served verbatim on every
    /// subsequent poll.
    Done(String),
    /// The run failed; polls answer with this status and message.
    Failed(u16, String),
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued(_) => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(..) => "failed",
        }
    }

    fn is_open(&self) -> bool {
        matches!(self, JobState::Queued(_) | JobState::Running)
    }
}

/// The `/jobs` registry: submissions live here from `POST /jobs` until
/// (long after) completion; entries are never evicted while the server
/// runs, so job ids are stable poll targets.
#[derive(Default)]
struct JobStore {
    entries: Vec<JobState>,
    run_queue: VecDeque<usize>,
}

struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    cache: PlanCache,
    sim_cache: SimCache,
    shards: ShardPool,
    config: ServerConfig,
    addr: std::net::SocketAddr,
    jobs: Mutex<JobStore>,
    jobs_available: Condvar,
}

/// A running server: spawn with [`Server::start`], stop with
/// [`ServerHandle::shutdown`].
pub struct Server;

/// Handle to a running server.
pub struct ServerHandle {
    /// The actually-bound address (resolves ephemeral ports).
    pub addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting. Returns once the listener is live.
    pub fn start(mut config: ServerConfig) -> io::Result<ServerHandle> {
        if config.shards == 0 {
            config.shards = thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shards = config.shards;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::new(),
            cache: PlanCache::new(config.cache_capacity),
            sim_cache: SimCache::new(config.sim_cache_capacity),
            shards: ShardPool::new(shards),
            config,
            addr,
            jobs: Mutex::new(JobStore::default()),
            jobs_available: Condvar::new(),
        });

        let mut threads = Vec::with_capacity(workers + shards + 2);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("dls-serve-accept".into())
                    .spawn(move || accept_loop(listener, &shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("dls-serve-jobs".into())
                    .spawn(move || jobs_loop(&shared))?,
            );
        }
        for i in 0..shared.shards.len() {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("dls-serve-shard-{i}"))
                    .spawn(move || shard_loop(&shared, i))?,
            );
        }
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("dls-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// Service metrics (shared with the `/metrics` endpoint).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Signal shutdown and wait for the acceptor, shards and workers to
    /// drain queued work and exit.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Ask the server to stop without waiting (signal-handler safe path is
    /// in the binary; this is the programmatic one).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        self.shared.jobs_available.notify_all();
        self.shared.shards.notify_all();
        wake_acceptor(self.shared.addr);
    }

    /// Block until every thread has exited.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Unblock an acceptor sitting in `accept()` by connecting to it. The
/// acceptor re-checks the shutdown flag after every accept, so the dummy
/// connection is dropped without being served.
fn wake_acceptor(addr: std::net::SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_millis(250));
}

/// Blocking accept loop. Accept failures (fd exhaustion, aborted
/// connections) are counted on `/metrics` and retried with exponential
/// backoff instead of being silently swallowed in a busy poll.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    let mut backoff = Duration::from_millis(10);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_millis(10);
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Likely the wake-up connect from shutdown; either way
                    // we are done serving.
                    drop(stream);
                    shared.available.notify_all();
                    return;
                }
                let mut queue = lock(&shared.queue);
                if queue.len() >= shared.config.queue_bound {
                    drop(queue);
                    reject(shared, stream);
                } else {
                    queue.push_back(stream);
                    shared.metrics.enqueued();
                    drop(queue);
                    shared.available.notify_one();
                }
            }
            Err(_) => {
                shared.metrics.accept_error();
                if shared.shutdown.load(Ordering::SeqCst) {
                    shared.available.notify_all();
                    return;
                }
                thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    }
}

/// Shed one connection with `503 Service Unavailable`. The client's
/// request bytes — head *and* the body its `Content-Length` declares —
/// are drained first: closing a socket with unread data sends an RST
/// that can destroy the response before the client reads it.
fn reject(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.rejected();
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut seen: Vec<u8> = Vec::with_capacity(256);
    let mut buf = [0u8; 1024];
    // Read until the blank line ending the head.
    while http::find_head_end(&seen).is_none() && seen.len() < http::MAX_HEAD_BYTES {
        match io::Read::read(&mut stream, &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => seen.extend_from_slice(&buf[..n]),
        }
    }
    // Then the declared body, which the client may still be writing.
    if let Some(head_end) = http::find_head_end(&seen) {
        let declared = http::declared_content_length(&seen[..head_end]);
        let total = (head_end + 4).saturating_add(declared.min(http::MAX_BODY_BYTES));
        while seen.len() < total {
            match io::Read::read(&mut stream, &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => seen.extend_from_slice(&buf[..n]),
            }
        }
    }
    let body = http::error_body(503, "request queue full", None);
    let _ = write_response(
        &mut stream,
        503,
        "Service Unavailable",
        "application/json",
        body.as_bytes(),
        &["Retry-After: 1"],
        false,
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

fn pop_connection(shared: &Shared) -> Option<TcpStream> {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(stream) = queue.pop_front() {
            shared.metrics.dequeued();
            return Some(stream);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain-then-exit: queue is empty and we are shutting down.
            return None;
        }
        queue = wait_timeout(&shared.available, queue, Duration::from_millis(50));
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(stream) = pop_connection(shared) {
        handle_connection(shared, stream);
    }
}

/// Serve every request on one connection, in order, until the client
/// closes it, opts out of keep-alive, goes idle past the timeout, or
/// sends something malformed (after which framing cannot be trusted, so
/// the error response carries `Connection: close` and the socket is
/// dropped).
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let idle = Duration::from_millis(shared.config.keep_alive_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(idle));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Don't let Nagle hold a response segment hostage to the client's
    // delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    loop {
        let request = match read_request(&mut stream, &mut carry) {
            Ok(r) => r,
            Err(ReadError::Bad(status, reason, msg)) => {
                let start = Instant::now();
                let _ = write_error(&mut stream, status, reason, &msg, false);
                shared
                    .metrics
                    .observe("bad", status, start.elapsed().as_secs_f64());
                return;
            }
            // Timeout/reset mid-request, or a clean close between
            // requests: nothing (more) to serve.
            Err(ReadError::Io(_)) | Err(ReadError::Closed) => return,
        };
        let keep = request.keep_alive;
        // The answer is written and observed; its sampled audit runs now,
        // before the next request is read or the connection closes.
        if let Some(audit) = handle_request(shared, &mut stream, request) {
            audit_analytic(shared, audit);
        }
        if !keep || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Route one request. `/simulate` decodes here and dispatches to an
/// engine shard; everything else is handled inline. `/plan` and
/// `/simulate` hand back the audit of an analytic answer sampled for one,
/// for the caller to run once the response is out.
///
/// Every endpoint is also reachable under the `/v1` path prefix (the
/// versioned spelling of the same contract — see `docs/SERVICE.md`); the
/// prefix is stripped before dispatch so both spellings share handlers,
/// metrics labels, and cache keys.
fn handle_request(shared: &Shared, stream: &mut TcpStream, mut request: Request) -> Option<Audit> {
    if let Some(rest) = request.path.strip_prefix("/v1") {
        if rest.is_empty() {
            request.path = "/".into();
        } else if rest.starts_with('/') {
            request.path = rest.to_string();
        }
    }
    let keep = request.keep_alive;
    if request.method == "POST" && request.path == "/simulate" {
        let start = Instant::now();
        let body = match request.body_str() {
            Some(b) => b,
            None => {
                respond_400(shared, stream, &request, "body is not UTF-8", start, keep);
                return None;
            }
        };
        return match SimulateRequest::from_json_str(body) {
            Ok(sim) => handle_simulate(shared, stream, Box::new(sim), keep),
            Err(e) => {
                respond_bad_body(shared, stream, &request, &e, start, keep);
                None
            }
        };
    }
    if request.method == "POST" && request.path == "/plan" {
        let start = Instant::now();
        let (status, audit) = handle_plan(shared, stream, &request, keep);
        shared
            .metrics
            .observe("/plan", status, start.elapsed().as_secs_f64());
        return audit;
    }
    handle_simple(shared, stream, &request, keep);
    None
}

/// Manual scenario equality ([`Scenario`] has no `PartialEq`: cost
/// profiles hold closures). Cost-profile / temporal-noise scenarios never
/// arrive over the wire, so platform + workload + error model decide.
fn same_scenario(a: &Scenario, b: &Scenario) -> bool {
    a.w_total == b.w_total
        && a.error_model == b.error_model
        && a.platform.workers() == b.platform.workers()
        && a.cost_profile.is_none()
        && b.cost_profile.is_none()
        && a.temporal_noise.is_none()
        && b.temporal_noise.is_none()
}

fn respond_400(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    msg: &str,
    start: Instant,
    keep: bool,
) {
    let _ = write_error(stream, 400, "Bad Request", msg, keep);
    shared
        .metrics
        .observe(&request.path, 400, start.elapsed().as_secs_f64());
}

/// Answer a request whose body failed to decode. Non-finite numbers
/// (e.g. `1e999`, which is syntactically valid JSON but overflows f64 to
/// infinity) can never describe a simulation, so they get `422
/// Unprocessable Entity`; everything else is a plain `400`.
fn respond_bad_body(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    error: &ApiError,
    start: Instant,
    keep: bool,
) {
    let status = if error.is_non_finite() { 422 } else { 400 };
    let reason = if status == 422 {
        "Unprocessable Entity"
    } else {
        "Bad Request"
    };
    let _ = write_error(stream, status, reason, &error.0, keep);
    shared
        .metrics
        .observe(&request.path, status, start.elapsed().as_secs_f64());
}

/// The engine configuration `/simulate` actually runs: metrics on, audit
/// on, `max_events` clamped to the server cap.
fn effective_config(shared: &Shared, spec: &rumr::RunSpec) -> rumr::SimConfig {
    let mut config = spec.config.clone();
    config.trace_mode = TraceMode::MetricsOnly;
    config.audit = true;
    config.max_events = config.max_events.min(shared.config.max_events);
    config
}

fn test_delay(shared: &Shared) {
    if shared.config.handler_delay_ms > 0 {
        thread::sleep(Duration::from_millis(shared.config.handler_delay_ms));
    }
}

/// Routes everything except `/simulate` (which goes through the shards)
/// and `/plan` (whose analytic answers may carry an audit).
fn handle_simple(shared: &Shared, stream: &mut TcpStream, request: &Request, keep: bool) {
    let start = Instant::now();
    let status = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            test_delay(shared);
            let _ = write_response(stream, 200, "OK", "text/plain", b"ok\n", &[], keep);
            200
        }
        ("GET", "/metrics") => {
            let mut body = shared.metrics.render();
            append_eviction_metrics(shared, &mut body);
            let _ = write_response(
                stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                body.as_bytes(),
                &[],
                keep,
            );
            200
        }
        ("POST", "/jobs") => {
            let status = handle_jobs_submit(shared, stream, request, keep);
            shared
                .metrics
                .observe("/jobs", status, start.elapsed().as_secs_f64());
            return;
        }
        ("GET", "/jobs") => {
            let status = handle_jobs_list(shared, stream, keep);
            shared
                .metrics
                .observe("/jobs", status, start.elapsed().as_secs_f64());
            return;
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let status = handle_jobs_poll(shared, stream, &request.path["/jobs/".len()..], keep);
            // One metrics label for every id — polling must not blow up
            // the per-path series.
            shared
                .metrics
                .observe("/jobs/{id}", status, start.elapsed().as_secs_f64());
            return;
        }
        (_, path) if path == "/jobs" || path.starts_with("/jobs/") => {
            let _ = write_error(
                stream,
                405,
                "Method Not Allowed",
                "wrong method for endpoint",
                keep,
            );
            405
        }
        ("GET", "/plan" | "/simulate") | ("POST", "/healthz" | "/metrics") => {
            let _ = write_error(
                stream,
                405,
                "Method Not Allowed",
                "wrong method for endpoint",
                keep,
            );
            405
        }
        _ => {
            let _ = write_error(stream, 404, "Not Found", "no such endpoint", keep);
            404
        }
    };
    shared
        .metrics
        .observe(&request.path, status, start.elapsed().as_secs_f64());
}

/// The cache eviction counters live on the caches, not in [`Metrics`];
/// the `/metrics` handler stitches them into the exposition here.
fn append_eviction_metrics(shared: &Shared, body: &mut String) {
    use std::fmt::Write as _;
    body.push_str("# HELP dls_serve_plan_cache_evictions_total Plan cache LRU evictions.\n");
    body.push_str("# TYPE dls_serve_plan_cache_evictions_total counter\n");
    let _ = writeln!(
        body,
        "dls_serve_plan_cache_evictions_total {}",
        shared.cache.evictions()
    );
    body.push_str(
        "# HELP dls_serve_sim_cache_evictions_total Simulate response cache LRU evictions.\n",
    );
    body.push_str("# TYPE dls_serve_sim_cache_evictions_total counter\n");
    let _ = writeln!(
        body,
        "dls_serve_sim_cache_evictions_total {}",
        shared.sim_cache.evictions()
    );
}

/// `POST /plan`: canonical-key cache lookup, else solve the planner once
/// on an error-free full-trace run and cache prototype + body. Returns the
/// status and, for a freshly solved analytic answer sampled for it, the
/// audit to run after the response.
fn handle_plan(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    keep: bool,
) -> (u16, Option<Audit>) {
    test_delay(shared);
    let body = match request.body_str() {
        Some(b) => b,
        None => {
            let _ = write_error(stream, 400, "Bad Request", "body is not UTF-8", keep);
            return (400, None);
        }
    };
    let plan = match PlanRequest::from_json_str(body) {
        Ok(p) => p,
        Err(e) if e.is_non_finite() => {
            let _ = write_error(stream, 422, "Unprocessable Entity", &e.0, keep);
            return (422, None);
        }
        Err(e) => {
            let _ = write_error(stream, 400, "Bad Request", &e.0, keep);
            return (400, None);
        }
    };
    let key = plan.cache_key();
    if let Some(cached) = shared.cache.get(&key) {
        shared.metrics.cache_hit();
        let source = format!("X-Answer-Source: {}", cached.source);
        let _ = write_response(
            stream,
            200,
            "OK",
            "application/json",
            cached.body.as_bytes(),
            &["X-Plan-Cache: hit", &source],
            keep,
        );
        return (200, None);
    }
    shared.metrics.cache_miss();
    match build_plan(shared, &plan, &key) {
        Ok((cached, audit)) => {
            let body = cached.body.clone();
            let source = format!("X-Answer-Source: {}", cached.source);
            shared.cache.insert(key, Arc::new(cached));
            let _ = write_response(
                stream,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                &["X-Plan-Cache: miss", &source],
                keep,
            );
            (200, audit)
        }
        Err((status, reason, msg)) => {
            let _ = write_error(stream, status, reason, &msg, keep);
            (status, None)
        }
    }
}

type PlanFailure = (u16, &'static str, String);

/// Solve a `/plan` request: the planner runs once, and its prototype
/// serves every later step. The oracle derived from it decides the
/// analytic fast path when it makes an exact claim — the error-free,
/// declared-speed plan run is exactly the deterministic model-conforming
/// case the closed forms answer — with the full-trace engine run as
/// fallback, whose body reports the same oracle's prediction. A
/// configurable sample of analytic answers is cross-checked against the
/// engine (the sampled DES audit): such an answer comes back with its
/// [`Audit`], which the caller runs after writing the response.
fn build_plan(
    shared: &Shared,
    plan: &PlanRequest,
    key: &str,
) -> Result<(CachedPlan, Option<Audit>), PlanFailure> {
    let prototype = plan
        .kind
        .prototype(&plan.platform, plan.w_total)
        .map_err(|e| (400u16, "Bad Request", format!("planner: {e}")))?;
    let oracle = prototype.oracle(&plan.platform, plan.w_total);
    let scenario = Scenario {
        platform: plan.platform.clone(),
        w_total: plan.w_total,
        error_model: rumr::ErrorModel::None,
        cost_profile: None,
        temporal_noise: None,
    };
    let miss = match FastPath::decide(oracle.as_deref()) {
        FastPathDecision::Analytic(answer) => {
            shared.metrics.fastpath_analytic();
            let body = plan_body_analytic(plan, &answer);
            let audit =
                FastPath::audit_due(|| key, shared.config.fastpath_audit_pct).then(|| Audit {
                    spec: rumr::RunSpec::new(plan.kind)
                        .max_events(shared.config.max_events)
                        .with_prototype(prototype.clone()),
                    scenario,
                    answer,
                });
            let cached = CachedPlan {
                prototype,
                body,
                source: "analytic",
            };
            return Ok((cached, audit));
        }
        FastPathDecision::Engine(miss) => miss,
    };
    shared.metrics.fastpath_miss(miss);
    let spec = rumr::RunSpec::new(plan.kind)
        .trace_mode(TraceMode::Full)
        .max_events(shared.config.max_events)
        .with_prototype(prototype.clone());
    let result = scenario.execute(&spec).map_err(|e| match e {
        RunError::Sim(SimError::EventLimitExceeded) => (
            422u16,
            "Unprocessable Entity",
            "plan simulation exceeded the event limit".to_string(),
        ),
        other => (500u16, "Internal Server Error", other.to_string()),
    })?;
    let prediction = oracle.map(|o| o.makespan());
    let cached = CachedPlan {
        prototype,
        body: plan_body(plan, &result, prediction),
        source: "engine",
    };
    Ok((cached, None))
}

/// The sampled DES audit of one analytic answer: the scenario, the spec
/// carrying the solved prototype, and the answer to check. The handler
/// hands it back, and [`handle_connection`] runs it once the response is
/// written.
struct Audit {
    scenario: Scenario,
    spec: rumr::RunSpec,
    answer: FastPathAnswer,
}

/// The sampled DES audit: re-run an analytic answer through the engine
/// and count a divergence when the simulated makespan falls outside the
/// oracle's stated tolerance. A run the engine cannot finish (the event
/// limit, say) has no makespan to compare; it counts as an audit error.
/// The audit is counted, with its wall time, only once it has finished.
fn audit_analytic(shared: &Shared, audit: Audit) {
    let start = Instant::now();
    match audit.scenario.execute(&audit.spec.reps(1)) {
        Ok(result) => {
            let simulated = if shared.config.fastpath_divergence_inject {
                result.makespan * 2.0
            } else {
                result.makespan
            };
            if !audit.answer.agrees_with(simulated) {
                shared.metrics.fastpath_divergence();
            }
        }
        Err(_) => shared.metrics.fastpath_audit_error(),
    }
    shared.metrics.fastpath_audited(start.elapsed());
}

fn plan_body(plan: &PlanRequest, result: &SimResult, prediction: Option<Prediction>) -> String {
    let mut body = String::with_capacity(1024);
    body.push_str("{\"api_version\":\"");
    body.push_str(http::API_VERSION);
    body.push_str("\",\"source\":\"engine\",\"schedule\":[");
    if let Some(trace) = &result.trace {
        let mut first = true;
        for event in trace.events() {
            if let TraceEvent::SendStart {
                worker,
                chunk,
                time,
            } = event
            {
                if !first {
                    body.push(',');
                }
                first = false;
                body.push_str(&format!(
                    "{{\"worker\":{worker},\"chunk\":{},\"send_time\":{}}}",
                    json_num(*chunk),
                    json_num(*time)
                ));
            }
        }
    }
    body.push_str("],\"rounds\":null,\"makespan\":");
    body.push_str(&json_num(result.makespan));
    body.push_str(",\"num_chunks\":");
    body.push_str(&result.num_chunks.to_string());
    body.push_str(",\"scheduler\":\"");
    body.push_str(&json_escape(&plan.kind.label()));
    body.push_str("\",\"predicted\":");
    match prediction {
        Some(Prediction::Exact { makespan, .. }) => {
            body.push_str(&format!(
                "{{\"kind\":\"exact\",\"makespan\":{}}}",
                json_num(makespan)
            ));
        }
        Some(Prediction::LowerBound { makespan, .. }) => {
            body.push_str(&format!(
                "{{\"kind\":\"lower_bound\",\"makespan\":{}}}",
                json_num(makespan)
            ));
        }
        Some(Prediction::Unavailable) | None => body.push_str("null"),
    }
    body.push_str(",\"robustness\":");
    body.push_str(&plan_robustness(plan));
    body.push('}');
    body
}

/// The analytic `/plan` body: same shape as the engine body, but the
/// makespan is the oracle closed form, the per-event `schedule` array is
/// empty (no trace exists — the per-round `rounds` timeline replaces it
/// where the model pins one), and `num_chunks` is `null`.
fn plan_body_analytic(plan: &PlanRequest, answer: &FastPathAnswer) -> String {
    let mut body = String::with_capacity(1024);
    body.push_str("{\"api_version\":\"");
    body.push_str(http::API_VERSION);
    body.push_str("\",\"source\":\"analytic\",\"schedule\":[],\"rounds\":");
    body.push_str(&rounds_json(answer.rounds.as_deref()));
    body.push_str(",\"makespan\":");
    body.push_str(&json_num(answer.makespan));
    body.push_str(",\"num_chunks\":null,\"scheduler\":\"");
    body.push_str(&json_escape(&plan.kind.label()));
    body.push_str("\",\"predicted\":");
    body.push_str(&format!(
        "{{\"kind\":\"exact\",\"makespan\":{}}}",
        json_num(answer.makespan)
    ));
    body.push_str(",\"robustness\":");
    body.push_str(&plan_robustness(plan));
    body.push('}');
    body
}

/// Render an oracle round timeline as JSON (`null` when the model does
/// not pin per-round instants, e.g. the heterogeneous UMR oracle).
fn rounds_json(rounds: Option<&[RoundTiming]>) -> String {
    let Some(rounds) = rounds else {
        return "null".to_string();
    };
    let mut out = String::with_capacity(64 * rounds.len() + 2);
    out.push('[');
    for (i, r) in rounds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"round\":{},\"chunk\":{},\"dispatch_start\":{},\"dispatch_end\":{},\
             \"first_finish\":{},\"last_finish\":{}}}",
            r.round,
            json_num(r.chunk),
            json_num(r.dispatch_start),
            json_num(r.dispatch_end),
            json_num(r.first_finish),
            json_num(r.last_finish)
        ));
    }
    out.push(']');
    out
}

/// The `/plan` response's robustness section: the analytic makespan lower
/// bound on the declared platform, plus oracle lower bounds under
/// worst-case revealed speeds — what no schedule can beat if an
/// adversary slows a quarter of the workers by 1.5× / 2× after the plan
/// is committed. Clients can compare a realized makespan against these
/// floors without replanning.
fn plan_robustness(plan: &PlanRequest) -> String {
    let declared = plan.platform.makespan_lower_bound(plan.w_total);
    let mut body = format!("{{\"analytic_lower_bound\":{}", json_num(declared));
    body.push_str(",\"worst_case\":[");
    for (i, slowdown) in [1.5f64, 2.0].iter().enumerate() {
        let model = SpeedModel::Adversarial {
            fraction: 0.25,
            slowdown: *slowdown,
        };
        let bound = model
            .realized_platform(&plan.platform)
            .map(|p| p.makespan_lower_bound(plan.w_total))
            .expect("adversarial factors are floored, so the platform stays valid");
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"speeds\":\"{}\",\"analytic_lower_bound\":{}}}",
            json_escape(&model.label()),
            json_num(bound)
        ));
    }
    body.push_str("]}");
    body
}

/// `POST /jobs`: accept a multi-load job set for asynchronous execution.
/// Answers `202 Accepted` with the job id to poll; a full job table
/// (too many unfinished submissions) sheds load with 503 + Retry-After,
/// mirroring the connection queue.
fn handle_jobs_submit(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    keep: bool,
) -> u16 {
    test_delay(shared);
    let body = match request.body_str() {
        Some(b) => b,
        None => {
            let _ = write_error(stream, 400, "Bad Request", "body is not UTF-8", keep);
            return 400;
        }
    };
    let jobs_request = match JobsRequest::from_json_str(body) {
        Ok(r) => r,
        Err(e) if e.is_non_finite() => {
            let _ = write_error(stream, 422, "Unprocessable Entity", &e.0, keep);
            return 422;
        }
        Err(e) => {
            let _ = write_error(stream, 400, "Bad Request", &e.0, keep);
            return 400;
        }
    };
    let id = {
        let mut store = lock(&shared.jobs);
        let open = store.entries.iter().filter(|e| e.is_open()).count();
        if open >= shared.config.job_capacity {
            drop(store);
            let body = http::error_body(503, "job table full", None);
            let _ = write_response(
                stream,
                503,
                "Service Unavailable",
                "application/json",
                body.as_bytes(),
                &["Retry-After: 1"],
                keep,
            );
            return 503;
        }
        let id = store.entries.len();
        store.entries.push(JobState::Queued(Box::new(jobs_request)));
        store.run_queue.push_back(id);
        id
    };
    shared.jobs_available.notify_one();
    let body = format!(
        "{{\"api_version\":\"{}\",\"id\":{id},\"status\":\"queued\"}}",
        http::API_VERSION
    );
    let _ = write_response(
        stream,
        202,
        "Accepted",
        "application/json",
        body.as_bytes(),
        &[&format!("Location: /jobs/{id}")],
        keep,
    );
    202
}

/// `GET /jobs`: id + status of every submission, in submission order.
fn handle_jobs_list(shared: &Shared, stream: &mut TcpStream, keep: bool) -> u16 {
    let store = lock(&shared.jobs);
    let mut body = format!("{{\"api_version\":\"{}\",\"jobs\":[", http::API_VERSION);
    for (id, entry) in store.entries.iter().enumerate() {
        if id > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"id\":{id},\"status\":\"{}\"}}", entry.label()));
    }
    drop(store);
    body.push_str("]}");
    let _ = write_response(
        stream,
        200,
        "OK",
        "application/json",
        body.as_bytes(),
        &[],
        keep,
    );
    200
}

/// `GET /jobs/{id}`: poll one submission. Unfinished jobs answer their
/// status; finished jobs answer the stored result (or failure) verbatim,
/// so repeated polls are byte-identical.
fn handle_jobs_poll(shared: &Shared, stream: &mut TcpStream, id_str: &str, keep: bool) -> u16 {
    let Ok(id) = id_str.parse::<usize>() else {
        let _ = write_error(
            stream,
            400,
            "Bad Request",
            "job id must be an integer",
            keep,
        );
        return 400;
    };
    let store = lock(&shared.jobs);
    let Some(entry) = store.entries.get(id) else {
        drop(store);
        let _ = write_error(stream, 404, "Not Found", "no such job", keep);
        return 404;
    };
    match entry {
        JobState::Queued(_) | JobState::Running => {
            let body = format!(
                "{{\"api_version\":\"{}\",\"id\":{id},\"status\":\"{}\"}}",
                http::API_VERSION,
                entry.label()
            );
            drop(store);
            let _ = write_response(
                stream,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                &[],
                keep,
            );
            200
        }
        JobState::Done(body) => {
            let body = body.clone();
            drop(store);
            let _ = write_response(
                stream,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                &[],
                keep,
            );
            200
        }
        JobState::Failed(status, msg) => {
            let (status, msg) = (*status, msg.clone());
            drop(store);
            let reason = match status {
                400 => "Bad Request",
                422 => "Unprocessable Entity",
                _ => "Internal Server Error",
            };
            let _ = write_error(stream, status, reason, &msg, keep);
            status
        }
    }
}

/// The `/jobs` runner thread: pops queued submissions and executes them
/// one at a time (multi-load runs are long; the HTTP workers only submit
/// and poll). Exits when shutdown is signalled and the queue is drained.
fn jobs_loop(shared: &Shared) {
    loop {
        let (id, request) = {
            let mut store = lock(&shared.jobs);
            loop {
                if let Some(id) = store.run_queue.pop_front() {
                    let taken = std::mem::replace(&mut store.entries[id], JobState::Running);
                    let JobState::Queued(request) = taken else {
                        unreachable!("run queue holds only queued jobs");
                    };
                    break (id, request);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                store = wait_timeout(&shared.jobs_available, store, Duration::from_millis(50));
            }
        };
        let outcome = run_jobs(shared, id, &request);
        let mut store = lock(&shared.jobs);
        store.entries[id] = match outcome {
            Ok(body) => JobState::Done(body),
            Err((status, msg)) => JobState::Failed(status, msg),
        };
    }
}

/// Execute one submission; the run needs a full trace so the job-level
/// audit can check cross-job master exclusivity.
fn run_jobs(shared: &Shared, id: usize, request: &JobsRequest) -> Result<String, (u16, String)> {
    let mut spec = request.spec.clone();
    spec.config.trace_mode = TraceMode::Full;
    spec.config.audit = true;
    spec.config.max_events = spec.config.max_events.min(shared.config.max_events);
    match request.scenario.execute_jobs(&spec) {
        Ok(result) => Ok(jobs_body(id, &spec, &result)),
        Err(RunError::Build(e)) => Err((400, format!("planner: {e}"))),
        Err(RunError::Sim(SimError::EventLimitExceeded)) => Err((
            422,
            "simulation exceeded the event limit (raise max_events or shrink the run)".into(),
        )),
        Err(e) => Err((500, e.to_string())),
    }
}

fn jobs_body(id: usize, spec: &rumr::MultiRunSpec, result: &MultiRunResult) -> String {
    let mut body = String::with_capacity(1024);
    body.push_str(&format!(
        "{{\"api_version\":\"{}\",\"id\":{id},\"status\":\"done\",\"policy\":\"{}\",\"makespan\":{},\"num_chunks\":{},\"jobs\":[",
        http::API_VERSION,
        spec.policy.label(),
        json_num(result.sim.makespan),
        result.sim.num_chunks
    ));
    for (i, j) in result.jobs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"job\":{},\"release\":{},\"size\":{},\"first_dispatch\":{},\"completion\":{},\
             \"response\":{},\"stretch\":{},\"lower_bound\":{},\"dispatched\":{},\
             \"completed\":{},\"lost\":{}}}",
            j.job,
            json_num(j.release),
            json_num(j.size),
            j.first_dispatch.map_or("null".to_string(), json_num),
            j.completion.map_or("null".to_string(), json_num),
            j.response.map_or("null".to_string(), json_num),
            j.stretch.map_or("null".to_string(), json_num),
            json_num(j.lower_bound),
            json_num(j.dispatched),
            json_num(j.completed),
            json_num(j.lost)
        ));
    }
    let f = &result.fairness;
    body.push_str(&format!(
        "],\"fairness\":{{\"completed_jobs\":{},\"max_stretch\":{},\"mean_stretch\":{},\"jain_index\":{}}}",
        f.completed_jobs,
        json_num(f.max_stretch),
        json_num(f.mean_stretch),
        json_num(f.jain_index)
    ));
    body.push_str(",\"audit_findings\":[");
    let engine_findings = result.sim.audit.as_deref().unwrap_or(&[]);
    for (i, finding) in engine_findings
        .iter()
        .chain(result.job_audit.iter())
        .enumerate()
    {
        if i > 0 {
            body.push(',');
        }
        body.push('"');
        body.push_str(&json_escape(&finding.to_string()));
        body.push('"');
    }
    body.push_str("]}");
    body
}

/// `POST /simulate`: answer eligible runs from the analytic fast path,
/// else serve from the response cache if possible, else dispatch to the
/// scenario's engine shard and relay its outcome. Returns the audit of an
/// analytic answer sampled for one.
fn handle_simulate(
    shared: &Shared,
    stream: &mut TcpStream,
    mut sim: Box<SimulateRequest>,
    keep: bool,
) -> Option<Audit> {
    let start = Instant::now();
    // Analytic fast path: deterministic model-conforming runs with an
    // exact oracle skip the cache and the shards entirely. An ineligible
    // run costs only the eligibility checks here; an eligible one solves
    // its planner once, and a run the oracle cannot answer takes that
    // prototype to the shard. Build errors fall through: the shard
    // produces the identical planner 400 the engine path always has.
    if let Ok((decision, prototype)) =
        FastPath::resolve_planned(&sim.scenario, &sim.spec, sim.spec.kind)
    {
        match decision {
            FastPathDecision::Analytic(answer) => {
                shared.metrics.fastpath_analytic();
                test_delay(shared);
                let body = simulate_body_analytic(&sim.spec, &answer);
                let _ = write_response(
                    stream,
                    200,
                    "OK",
                    "application/json",
                    body.as_bytes(),
                    &["X-Answer-Source: analytic"],
                    keep,
                );
                shared
                    .metrics
                    .observe("/simulate", 200, start.elapsed().as_secs_f64());
                // Only the audit needs the sampling key, so it is rendered
                // behind the write, and only at a rate that depends on it.
                if !FastPath::audit_due(|| sim.canonical(), shared.config.fastpath_audit_pct) {
                    return None;
                }
                let SimulateRequest { scenario, mut spec } = *sim;
                spec.config = effective_config(shared, &spec);
                spec.prototype = prototype;
                return Some(Audit {
                    scenario,
                    spec,
                    answer,
                });
            }
            FastPathDecision::Engine(miss) => {
                shared.metrics.fastpath_miss(miss);
                sim.spec.prototype = prototype;
            }
        }
    }
    // Every key below is composed around this one render of the platform.
    let keys = sim.keys();
    let cache_on = shared.config.sim_cache_capacity > 0;
    let key = if cache_on {
        let key = keys.canonical();
        if let Some(body) = shared.sim_cache.get(&key) {
            shared.metrics.sim_cache_hit();
            let _ = write_response(
                stream,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                &["X-Sim-Cache: hit", "X-Answer-Source: engine"],
                keep,
            );
            shared
                .metrics
                .observe("/simulate", 200, start.elapsed().as_secs_f64());
            return None;
        }
        shared.metrics.sim_cache_miss();
        Some(key)
    } else {
        None
    };

    let idx = shard_index(&keys.scenario_key(), shared.shards.len());
    let plan_key = sim.spec.prototype.is_none().then(|| keys.plan_key());
    shared.metrics.observe_shard(idx);
    let reply = Arc::new(Reply::default());
    shared.shards.submit(
        idx,
        ShardJob {
            sim,
            plan_key,
            reply: Arc::clone(&reply),
        },
    );
    let status = match reply.wait(&shared.shutdown) {
        Some(outcome) => {
            if outcome.status == 200 {
                if let Some(key) = key {
                    shared.sim_cache.insert(key, Arc::new(outcome.body.clone()));
                }
                let headers: &[&str] = if cache_on {
                    &["X-Sim-Cache: miss", "X-Answer-Source: engine"]
                } else {
                    &["X-Answer-Source: engine"]
                };
                let _ = write_response(
                    stream,
                    200,
                    "OK",
                    "application/json",
                    outcome.body.as_bytes(),
                    headers,
                    keep,
                );
            } else {
                let _ = write_response(
                    stream,
                    outcome.status,
                    outcome.reason,
                    "application/json",
                    outcome.body.as_bytes(),
                    &[],
                    keep,
                );
            }
            outcome.status
        }
        None => {
            let _ = write_error(
                stream,
                503,
                "Service Unavailable",
                "server is shutting down",
                false,
            );
            503
        }
    };
    shared
        .metrics
        .observe("/simulate", status, start.elapsed().as_secs_f64());
    None
}

/// One engine shard: pops its queue and keeps a warm runner alive across
/// same-scenario streaks (which, thanks to affinity routing, is every
/// consecutive pair of jobs that share a scenario).
fn shard_loop(shared: &Shared, idx: usize) {
    let mut pending: Option<ShardJob> = None;
    loop {
        let job = match pending.take() {
            Some(j) => j,
            None => match shared.shards.pop(idx, &shared.shutdown) {
                Some(j) => j,
                None => return,
            },
        };
        pending = shard_streak(shared, idx, job);
    }
}

/// Execute `job` and then keep pulling this shard's queue while jobs
/// decode to the same scenario; returns the first non-matching job so the
/// caller can start a new streak (new runner) around it.
fn shard_streak(shared: &Shared, idx: usize, job: ShardJob) -> Option<ShardJob> {
    let scenario = job.sim.scenario.clone();
    let mut runner = scenario.runner(effective_config(shared, &job.sim.spec));
    let reply = Arc::clone(&job.reply);
    reply.set(simulate_outcome(shared, job, &mut runner));
    loop {
        let job = shared.shards.pop(idx, &shared.shutdown)?;
        if same_scenario(&scenario, &job.sim.scenario) {
            let reply = Arc::clone(&job.reply);
            reply.set(simulate_outcome(shared, job, &mut runner));
        } else {
            return Some(job);
        }
    }
}

/// Run one `/simulate` request on the shard's warm runner and produce the
/// outcome the HTTP worker will write.
fn simulate_outcome(
    shared: &Shared,
    job: ShardJob,
    runner: &mut rumr::ScenarioRunner<'_>,
) -> Outcome {
    // On the shard so it emulates engine time: serialized per shard
    // (cache hits skip it), parallel across shards and processes.
    test_delay(shared);
    let mut spec = job.sim.spec;
    // Reuse a cached prototype when /plan has already solved this
    // (platform, workload, scheduler) triple.
    if let Some(cached) = job.plan_key.and_then(|key| shared.cache.get(&key)) {
        spec.prototype = Some(cached.prototype.clone());
    }
    spec.config = effective_config(shared, &spec);

    match run_reps(runner, &spec) {
        Ok(cols) => {
            // Per-run robustness reports when the request revealed speeds:
            // the clairvoyant twins are planned once on the realized
            // platform, which every repetition shares.
            let robustness: Vec<RobustnessReport> = match runner.scenario().clairvoyant(&spec) {
                Some(twins) => spec
                    .seeds()
                    .zip(cols.makespan.iter())
                    .map(|(seed, &m)| twins.report(seed, m))
                    .collect(),
                None => Vec::new(),
            };
            Outcome {
                status: 200,
                reason: "OK",
                body: simulate_body(&spec, &cols, &robustness),
            }
        }
        Err(RunError::Build(e)) => Outcome {
            status: 400,
            reason: "Bad Request",
            body: http::error_body(400, &format!("planner: {e}"), None),
        },
        Err(RunError::Sim(SimError::EventLimitExceeded)) => Outcome {
            status: 422,
            reason: "Unprocessable Entity",
            body: http::error_body(
                422,
                "simulation exceeded the event limit (raise max_events or shrink the run)",
                None,
            ),
        },
        Err(e) => Outcome {
            status: 500,
            reason: "Internal Server Error",
            body: http::error_body(500, &e.to_string(), None),
        },
    }
}

/// Execute the spec's whole repetition batch as one arena-backed
/// column pass on the shard's warm runner: one scheduler prototype solve
/// and zero per-repetition result allocations, instead of the old
/// execute-per-seed loop.
fn run_reps(
    runner: &mut rumr::ScenarioRunner<'_>,
    spec: &rumr::RunSpec,
) -> Result<RepColumns, RunError> {
    let workers = runner.scenario().platform.num_workers();
    let mut cols = RepColumns::with_capacity(spec.reps as usize, workers);
    runner.execute_batch(spec, &mut cols)?;
    Ok(cols)
}

fn simulate_body(
    spec: &rumr::RunSpec,
    cols: &RepColumns,
    robustness: &[RobustnessReport],
) -> String {
    let mut body = String::with_capacity(512);
    body.push_str("{\"api_version\":\"");
    body.push_str(http::API_VERSION);
    body.push_str("\",\"source\":\"engine\",\"runs\":[");
    for i in 0..cols.len() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"seed\":{},\"makespan\":{},\"num_chunks\":{},\"completed_work\":{},\"conservation_residual\":{}",
            spec.seed + i as u64,
            json_num(cols.makespan[i]),
            cols.num_chunks[i],
            json_num(cols.completed_work[i]),
            json_num(cols.conservation_residual(i))
        ));
        if let Some(m) = &cols.metrics[i] {
            body.push_str(&format!(
                ",\"metrics\":{{\"trace_events\":{},\"link_utilization\":{},\"num_gaps\":{}}}",
                m.trace_events,
                json_num(m.link_utilization(cols.makespan[i])),
                m.num_gaps
            ));
        }
        if let Some(rb) = robustness.get(i) {
            body.push_str(&format!(
                ",\"robustness\":{{\"ratio\":{},\"clairvoyant_makespan\":{},\"replanned_makespan\":{},\"analytic_lower_bound\":{}}}",
                json_num(rb.ratio),
                json_num(rb.clairvoyant_makespan),
                rb.replanned_makespan.map_or("null".to_string(), json_num),
                json_num(rb.analytic_lower_bound)
            ));
        }
        body.push_str(",\"audit_findings\":[");
        if let Some(findings) = &cols.audit[i] {
            for (j, f) in findings.iter().enumerate() {
                if j > 0 {
                    body.push(',');
                }
                body.push('"');
                body.push_str(&json_escape(&f.to_string()));
                body.push('"');
            }
        }
        body.push_str("]}");
    }
    body.push_str(&format!(
        "],\"mean_makespan\":{},\"scheduler\":\"{}\"}}",
        json_num(cols.mean_makespan()),
        json_escape(&spec.kind.label())
    ));
    body
}

/// The analytic `/simulate` body: same top-level shape as the engine
/// body, one `runs` entry per requested seed. The run is deterministic —
/// that is what made it eligible — so every entry carries the same
/// closed-form makespan, `completed_work` is the oracle's planned total,
/// the conservation residual is identically zero, and the engine-only
/// fields (`num_chunks`, `metrics`) are absent.
fn simulate_body_analytic(spec: &rumr::RunSpec, answer: &FastPathAnswer) -> String {
    let mut body = String::with_capacity(256);
    body.push_str("{\"api_version\":\"");
    body.push_str(http::API_VERSION);
    body.push_str("\",\"source\":\"analytic\",\"runs\":[");
    for (i, seed) in spec.seeds().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"seed\":{seed},\"makespan\":{},\"completed_work\":{},\
             \"conservation_residual\":0,\"audit_findings\":[]}}",
            json_num(answer.makespan),
            json_num(answer.planned_work)
        ));
    }
    body.push_str(&format!(
        "],\"mean_makespan\":{},\"scheduler\":\"{}\"}}",
        json_num(answer.makespan),
        json_escape(&spec.kind.label())
    ));
    body
}
