//! The service itself: acceptor, bounded queue, worker pool, engine
//! slots, handlers.
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
//! Every engine run happens on the worker that decoded its request: an
//! engine `/plan`, an audit, and an engine `/simulate`. The last first
//! consults the `/simulate` response cache (canonical request → response
//! body — sound because responses are byte-deterministic in the canonical
//! request), whose hits are served on the spot with `X-Sim-Cache: hit`;
//! a miss runs inside one of `shards` engine slots, which bound how many
//! `/simulate` engine runs happen at once.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dls_experiments::json::{put_int, put_num, put_opt, put_str};
use rumr::sim::{InvariantFinding, SimError, TraceEvent};
use rumr::{
    FastPath, FastPathAnswer, FastPathDecision, MetricsSummary, MultiRunResult, Prediction,
    RobustnessReport, RunError, Scenario, SimResult, SpeedModel, TraceMode,
};

use crate::api::{ApiError, JobsRequest, PlanRequest, SimulateRequest};
use crate::cache::{CachedPlan, PlanCache, SimCache};
use crate::http::{self, read_request, ReadError, Request, Response, API_VERSION};
use crate::metrics::Metrics;
use crate::shard::EngineSlots;
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
    /// Engine slots: how many `/simulate` engine runs may happen at once,
    /// each on the worker that decoded its request; 0 picks one per
    /// available core (capped at 8). Engine `/plan` runs and audits do
    /// not take a slot.
    pub shards: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub keep_alive_timeout_ms: u64,
    /// Hard cap on `max_events` for `/simulate` (the request timeout knob:
    /// runs hitting it get a 422).
    pub max_events: u64,
    /// Artificial per-request delay (test hook for exercising
    /// backpressure deterministically). An engine `/simulate` sleeps it
    /// inside its engine slot, so it stands in for engine time. 0 in
    /// production.
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
    /// Finished: every later poll answers this response verbatim, the
    /// result or the error the run failed with.
    Finished(Response),
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued(_) => "queued",
            JobState::Running => "running",
            JobState::Finished(r) if r.status == 200 => "done",
            JobState::Finished(_) => "failed",
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
    slots: EngineSlots,
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
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::new(),
            cache: PlanCache::new(config.cache_capacity),
            sim_cache: SimCache::new(config.sim_cache_capacity),
            slots: EngineSlots::new(config.shards),
            config,
            addr,
            jobs: Mutex::new(JobStore::default()),
            jobs_available: Condvar::new(),
        });

        let mut threads = Vec::with_capacity(workers + 2);
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

    /// Signal shutdown and wait for the acceptor, the `/jobs` runner and
    /// the workers to drain queued work and exit.
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
    let _ = Response::error(503, "request queue full")
        .header("Retry-After", "1")
        .write(&mut stream, false, false);
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

/// Work a handler leaves for after its response is written: the sampled
/// DES audit of an analytic answer.
type After = Box<dyn FnOnce(&Shared)>;

/// Serve every request on one connection, in order, until the client
/// closes it, opts out of keep-alive, goes idle past the timeout, or
/// sends something malformed (after which framing cannot be trusted, so
/// the error response carries `Connection: close` and the socket is
/// dropped). Each response is written and observed here, in one place
/// (without its body for a `HEAD` request); then the handler's after-work
/// runs, before the connection's next request is read or it closes.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let idle = Duration::from_millis(shared.config.keep_alive_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(idle));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Don't let Nagle hold a response segment hostage to the client's
    // delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    loop {
        let read = read_request(&mut stream, &mut carry);
        let start = Instant::now();
        let (label, response, after, keep, head_only) = match read {
            Ok(request) => {
                let (path, label) = endpoint(&request.path);
                let (response, after) = route(shared, &request, path, label);
                let head_only = request.method == "HEAD";
                (label, response, after, request.keep_alive, head_only)
            }
            Err(ReadError::Bad(status, msg)) => {
                ("bad", Response::error(status, &msg), None, false, false)
            }
            // Timeout/reset mid-request, or a clean close between
            // requests: nothing (more) to serve.
            Err(ReadError::Io(_) | ReadError::Closed) => return,
        };
        // Once shutdown has begun, this answer is the connection's last.
        let keep = keep && !shared.shutdown.load(Ordering::SeqCst);
        let _ = response.write(&mut stream, keep, head_only);
        shared
            .metrics
            .observe(label, response.status, start.elapsed().as_secs_f64());
        if let Some(after) = after {
            after(shared);
        }
        if !keep || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// A request path with its `/v1` prefix stripped (the versioned spelling
/// of the same contract — see `docs/SERVICE.md`), so both spellings share
/// handlers, metrics labels and cache keys; and the path's metrics label,
/// one of a fixed set, so no request text ever names a series.
fn endpoint(path: &str) -> (&str, &'static str) {
    let path = match path.strip_prefix("/v1") {
        Some("") => "/",
        Some(rest) if rest.starts_with('/') => rest,
        _ => path,
    };
    let label = match path {
        "/plan" => "/plan",
        "/simulate" => "/simulate",
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/jobs" => "/jobs",
        _ if path.starts_with("/jobs/") => "/jobs/{id}",
        _ => "other",
    };
    (path, label)
}

/// Answer one request by its method and endpoint label: 404 for an
/// unknown path, 405 for a wrong method on a known one. `/plan` and
/// `/simulate` may leave an audit for after the write.
fn route(
    shared: &Shared,
    request: &Request,
    path: &str,
    label: &'static str,
) -> (Response, Option<After>) {
    let response = match (request.method.as_str(), label) {
        ("POST", "/plan") => return handle_plan(shared, request),
        ("POST", "/simulate") => return handle_simulate(shared, request),
        ("GET", "/healthz") => {
            test_delay(shared);
            Response::text("text/plain", "ok\n".into())
        }
        ("GET", "/metrics") => Response::text(
            "text/plain; version=0.0.4",
            shared
                .metrics
                .render(shared.cache.evictions(), shared.sim_cache.evictions()),
        ),
        ("POST", "/jobs") => handle_jobs_submit(shared, request),
        ("GET", "/jobs") => handle_jobs_list(shared),
        ("GET", "/jobs/{id}") => handle_jobs_poll(shared, &path["/jobs/".len()..]),
        (_, "other") => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "wrong method for endpoint"),
    };
    (response, None)
}

/// Decode a request body: 400 for a body that is not UTF-8 or does not
/// decode, 422 for one with a non-finite number (`1e999` is valid JSON
/// but overflows f64 to infinity, so it can never describe a run).
fn decode<T>(request: &Request, parse: fn(&str) -> Result<T, ApiError>) -> Result<T, Response> {
    let body = request
        .body_str()
        .ok_or_else(|| Response::error(400, "body is not UTF-8"))?;
    parse(body).map_err(|e| Response::error(if e.is_non_finite() { 422 } else { 400 }, &e.0))
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

/// The error response for a run the engine could not finish.
fn run_error(error: &RunError) -> Response {
    match error {
        RunError::Build(e) => Response::error(400, &format!("planner: {e}")),
        RunError::Sim(SimError::EventLimitExceeded) => Response::error(
            422,
            "simulation exceeded the event limit (raise max_events or shrink the run)",
        ),
        e => Response::error(500, &e.to_string()),
    }
}

/// `POST /plan`: canonical-key cache lookup, else solve the planner once
/// on an error-free full-trace run and cache the body.
fn handle_plan(shared: &Shared, request: &Request) -> (Response, Option<After>) {
    test_delay(shared);
    let plan = match decode(request, PlanRequest::from_json_str) {
        Ok(plan) => plan,
        Err(response) => return (response, None),
    };
    let key = plan.cache_key();
    let (cached, hit, after) = match shared.cache.get(&key) {
        Some(cached) => {
            shared.metrics.cache_hit();
            (cached, "hit", None)
        }
        None => {
            shared.metrics.cache_miss();
            match build_plan(shared, &plan, &key) {
                Ok((cached, after)) => {
                    let cached = Arc::new(cached);
                    shared.cache.insert(key, Arc::clone(&cached));
                    (cached, "miss", after)
                }
                Err(response) => return (response, None),
            }
        }
    };
    let response = Response::json(200, Arc::clone(&cached.body))
        .header("X-Plan-Cache", hit)
        .header("X-Answer-Source", cached.source);
    (response, after)
}

/// Solve a `/plan` request: the planner runs once, and its prototype
/// serves every later step. The oracle derived from it decides the
/// analytic fast path when it makes an exact claim — the error-free,
/// declared-speed plan run is exactly the deterministic model-conforming
/// case the closed forms answer — with the full-trace engine run as
/// fallback, whose body reports the same oracle's prediction. A
/// configurable sample of analytic answers is cross-checked against the
/// engine (the sampled DES audit): such an answer comes back with its
/// audit, which runs after the response is written.
fn build_plan(
    shared: &Shared,
    plan: &PlanRequest,
    key: &str,
) -> Result<(CachedPlan, Option<After>), Response> {
    let prototype = plan
        .kind
        .prototype(&plan.platform, plan.w_total)
        .map_err(|e| Response::error(400, &format!("planner: {e}")))?;
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
            let body = plan_body(plan, PlanAnswer::Analytic(&answer));
            let after = FastPath::audit_due(|| key, shared.config.fastpath_audit_pct).then(|| {
                let spec = rumr::RunSpec::new(plan.kind)
                    .max_events(shared.config.max_events)
                    .with_prototype(prototype);
                Box::new(move |shared: &Shared| audit_analytic(shared, &scenario, spec, &answer))
                    as After
            });
            let cached = CachedPlan {
                body: Arc::new(body),
                source: "analytic",
            };
            return Ok((cached, after));
        }
        FastPathDecision::Engine(miss) => miss,
    };
    shared.metrics.fastpath_miss(miss);
    let spec = rumr::RunSpec::new(plan.kind)
        .trace_mode(TraceMode::Full)
        .max_events(shared.config.max_events)
        .with_prototype(prototype);
    let result = scenario.execute(&spec).map_err(|e| match e {
        RunError::Sim(SimError::EventLimitExceeded) => {
            Response::error(422, "plan simulation exceeded the event limit")
        }
        other => Response::error(500, &other.to_string()),
    })?;
    let prediction = oracle.map(|o| o.makespan());
    let cached = CachedPlan {
        body: Arc::new(plan_body(plan, PlanAnswer::Engine(&result, prediction))),
        source: "engine",
    };
    Ok((cached, None))
}

/// The sampled DES audit: re-run an analytic answer through the engine
/// and count a divergence when the simulated makespan falls outside the
/// oracle's stated tolerance. A run the engine cannot finish (the event
/// limit, say) has no makespan to compare; it counts as an audit error.
/// The audit is counted, with its wall time, only once it has finished.
fn audit_analytic(
    shared: &Shared,
    scenario: &Scenario,
    spec: rumr::RunSpec,
    answer: &FastPathAnswer,
) {
    let start = Instant::now();
    match scenario.execute(&spec.reps(1)) {
        Ok(result) => {
            let simulated = if shared.config.fastpath_divergence_inject {
                result.makespan * 2.0
            } else {
                result.makespan
            };
            if !answer.agrees_with(simulated) {
                shared.metrics.fastpath_divergence();
            }
        }
        Err(_) => shared.metrics.fastpath_audit_error(),
    }
    shared.metrics.fastpath_audited(start.elapsed());
}

/// Where a `/plan` answer came from.
enum PlanAnswer<'a> {
    /// A full-trace engine run, and its oracle's prediction.
    Engine(&'a SimResult, Option<Prediction>),
    /// The oracle's closed form.
    Analytic(&'a FastPathAnswer),
}

/// The `/plan` body, the same shape from either source. An engine answer
/// lists the trace's sends in `schedule` and has null `rounds`. An
/// analytic answer has an empty `schedule`, the oracle's per-round
/// timeline in `rounds` (null where the model pins none, e.g. het-UMR)
/// and a null `num_chunks`.
fn plan_body(plan: &PlanRequest, answer: PlanAnswer<'_>) -> String {
    let (source, trace, rounds, makespan, num_chunks, predicted) = match answer {
        PlanAnswer::Engine(result, predicted) => (
            "engine",
            result.trace.as_ref(),
            None,
            result.makespan,
            Some(result.num_chunks as f64),
            predicted,
        ),
        PlanAnswer::Analytic(answer) => (
            "analytic",
            None,
            answer.rounds.as_deref(),
            answer.makespan,
            None,
            Some(answer.prediction),
        ),
    };
    let mut out = String::with_capacity(1024);
    put_str(&mut out, r#"{"api_version":"#, API_VERSION);
    put_str(&mut out, r#","source":"#, source);
    out.push_str(r#","schedule":["#);
    let sends = trace
        .into_iter()
        .flat_map(|t| t.events())
        .filter_map(|e| match e {
            TraceEvent::SendStart {
                worker,
                chunk,
                time,
            } => Some((*worker, *chunk, *time)),
            _ => None,
        });
    for (i, (worker, chunk, time)) in sends.enumerate() {
        if i > 0 {
            out.push(',');
        }
        put_int(&mut out, r#"{"worker":"#, worker as u64);
        put_num(&mut out, r#","chunk":"#, chunk);
        put_num(&mut out, r#","send_time":"#, time);
        out.push('}');
    }
    out.push_str(r#"],"rounds":"#);
    match rounds {
        None => out.push_str("null"),
        Some(rounds) => {
            out.push('[');
            for (i, r) in rounds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                put_int(&mut out, r#"{"round":"#, r.round as u64);
                put_num(&mut out, r#","chunk":"#, r.chunk);
                put_num(&mut out, r#","dispatch_start":"#, r.dispatch_start);
                put_num(&mut out, r#","dispatch_end":"#, r.dispatch_end);
                put_num(&mut out, r#","first_finish":"#, r.first_finish);
                put_num(&mut out, r#","last_finish":"#, r.last_finish);
                out.push('}');
            }
            out.push(']');
        }
    }
    put_num(&mut out, r#","makespan":"#, makespan);
    put_opt(&mut out, r#","num_chunks":"#, num_chunks);
    put_str(&mut out, r#","scheduler":"#, &plan.kind.label());
    let predicted = match predicted {
        Some(Prediction::Exact { makespan, .. }) => Some(("exact", makespan)),
        Some(Prediction::LowerBound { makespan, .. }) => Some(("lower_bound", makespan)),
        Some(Prediction::Unavailable) | None => None,
    };
    match predicted {
        Some((kind, makespan)) => {
            put_str(&mut out, r#","predicted":{"kind":"#, kind);
            put_num(&mut out, r#","makespan":"#, makespan);
            out.push('}');
        }
        None => out.push_str(r#","predicted":null"#),
    }
    // The robustness section: the analytic makespan lower bound on the
    // declared platform, plus the lower bounds under worst-case revealed
    // speeds — what no schedule can beat if an adversary slows a quarter
    // of the workers by 1.5× / 2× after the plan is committed. Clients can
    // compare a realized makespan against these floors without
    // replanning.
    let declared = plan.platform.makespan_lower_bound(plan.w_total);
    put_num(
        &mut out,
        r#","robustness":{"analytic_lower_bound":"#,
        declared,
    );
    out.push_str(r#","worst_case":["#);
    for (i, slowdown) in [1.5f64, 2.0].into_iter().enumerate() {
        let model = SpeedModel::Adversarial {
            fraction: 0.25,
            slowdown,
        };
        let bound = model
            .realized_platform(&plan.platform)
            .map(|p| p.makespan_lower_bound(plan.w_total))
            .expect("adversarial factors are floored, so the platform stays valid");
        if i > 0 {
            out.push(',');
        }
        put_str(&mut out, r#"{"speeds":"#, &model.label());
        put_num(&mut out, r#","analytic_lower_bound":"#, bound);
        out.push('}');
    }
    out.push_str("]}}");
    out
}

/// Append the `audit_findings` array, each finding as a JSON string.
fn put_findings<'a>(out: &mut String, findings: impl Iterator<Item = &'a InvariantFinding>) {
    out.push_str(r#","audit_findings":["#);
    for (i, finding) in findings.enumerate() {
        if i > 0 {
            out.push(',');
        }
        put_str(out, "", &finding.to_string());
    }
    out.push(']');
}

/// `POST /jobs`: accept a multi-load job set for asynchronous execution.
/// Answers `202 Accepted` with the job id to poll; a full job table
/// (too many unfinished submissions) sheds load with 503 + Retry-After,
/// mirroring the connection queue.
fn handle_jobs_submit(shared: &Shared, request: &Request) -> Response {
    test_delay(shared);
    let jobs_request = match decode(request, JobsRequest::from_json_str) {
        Ok(r) => r,
        Err(response) => return response,
    };
    let id = {
        let mut store = lock(&shared.jobs);
        let open = store.entries.iter().filter(|e| e.is_open()).count();
        if open >= shared.config.job_capacity {
            return Response::error(503, "job table full").header("Retry-After", "1");
        }
        let id = store.entries.len();
        store.entries.push(JobState::Queued(Box::new(jobs_request)));
        store.run_queue.push_back(id);
        id
    };
    shared.jobs_available.notify_one();
    Response::json(202, job_status(id, "queued")).header("Location", &format!("/jobs/{id}"))
}

/// The body that answers for a job not yet finished.
fn job_status(id: usize, status: &str) -> String {
    let mut body = String::with_capacity(48);
    put_str(&mut body, r#"{"api_version":"#, API_VERSION);
    put_int(&mut body, r#","id":"#, id as u64);
    put_str(&mut body, r#","status":"#, status);
    body.push('}');
    body
}

/// `GET /jobs`: id + status of every submission, in submission order.
fn handle_jobs_list(shared: &Shared) -> Response {
    let mut body = String::with_capacity(64);
    put_str(&mut body, r#"{"api_version":"#, API_VERSION);
    body.push_str(r#","jobs":["#);
    for (id, entry) in lock(&shared.jobs).entries.iter().enumerate() {
        if id > 0 {
            body.push(',');
        }
        put_int(&mut body, r#"{"id":"#, id as u64);
        put_str(&mut body, r#","status":"#, entry.label());
        body.push('}');
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `GET /jobs/{id}`: poll one submission. Unfinished jobs answer their
/// status; finished jobs answer the stored response verbatim, so repeated
/// polls are byte-identical.
fn handle_jobs_poll(shared: &Shared, id: &str) -> Response {
    let Ok(id) = id.parse::<usize>() else {
        return Response::error(400, "job id must be an integer");
    };
    match lock(&shared.jobs).entries.get(id) {
        None => Response::error(404, "no such job"),
        Some(JobState::Finished(response)) => response.clone(),
        Some(entry) => Response::json(200, job_status(id, entry.label())),
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
        let response = run_jobs(shared, id, &request);
        lock(&shared.jobs).entries[id] = JobState::Finished(response);
    }
}

/// Execute one submission; the run needs a full trace so the job-level
/// audit can check cross-job master exclusivity.
fn run_jobs(shared: &Shared, id: usize, request: &JobsRequest) -> Response {
    let mut spec = request.spec.clone();
    spec.config.trace_mode = TraceMode::Full;
    spec.config.audit = true;
    spec.config.max_events = spec.config.max_events.min(shared.config.max_events);
    match request.scenario.execute_jobs(&spec) {
        Ok(result) => Response::json(200, jobs_body(id, &spec, &result)),
        Err(e) => run_error(&e),
    }
}

fn jobs_body(id: usize, spec: &rumr::MultiRunSpec, result: &MultiRunResult) -> String {
    let mut out = String::with_capacity(1024);
    put_str(&mut out, r#"{"api_version":"#, API_VERSION);
    put_int(&mut out, r#","id":"#, id as u64);
    put_str(&mut out, r#","status":"#, "done");
    put_str(&mut out, r#","policy":"#, spec.policy.label());
    put_num(&mut out, r#","makespan":"#, result.sim.makespan);
    put_int(&mut out, r#","num_chunks":"#, result.sim.num_chunks as u64);
    out.push_str(r#","jobs":["#);
    for (i, j) in result.jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put_int(&mut out, r#"{"job":"#, j.job as u64);
        put_num(&mut out, r#","release":"#, j.release);
        put_num(&mut out, r#","size":"#, j.size);
        put_opt(&mut out, r#","first_dispatch":"#, j.first_dispatch);
        put_opt(&mut out, r#","completion":"#, j.completion);
        put_opt(&mut out, r#","response":"#, j.response);
        put_opt(&mut out, r#","stretch":"#, j.stretch);
        put_num(&mut out, r#","lower_bound":"#, j.lower_bound);
        put_num(&mut out, r#","dispatched":"#, j.dispatched);
        put_num(&mut out, r#","completed":"#, j.completed);
        put_num(&mut out, r#","lost":"#, j.lost);
        out.push('}');
    }
    let f = &result.fairness;
    put_int(
        &mut out,
        r#"],"fairness":{"completed_jobs":"#,
        f.completed_jobs as u64,
    );
    put_num(&mut out, r#","max_stretch":"#, f.max_stretch);
    put_num(&mut out, r#","mean_stretch":"#, f.mean_stretch);
    put_num(&mut out, r#","jain_index":"#, f.jain_index);
    out.push('}');
    let engine_findings = result.sim.audit.as_deref().unwrap_or(&[]);
    put_findings(&mut out, engine_findings.iter().chain(&result.job_audit));
    out.push('}');
    out
}

/// `POST /simulate`: answer eligible runs from the analytic fast path,
/// else serve from the response cache if possible, else run the engine
/// here, inside an engine slot. An analytic answer leaves its sampling
/// decision, and the audit if sampled, for after the write.
fn handle_simulate(shared: &Shared, request: &Request) -> (Response, Option<After>) {
    let mut sim = match decode(request, SimulateRequest::from_json_str) {
        Ok(sim) => sim,
        Err(response) => return (response, None),
    };
    // Analytic fast path: deterministic model-conforming runs with an
    // exact oracle skip the cache and the engine entirely. An ineligible
    // run costs only the eligibility checks here; an eligible one solves
    // its planner once, and a run the oracle cannot answer takes that
    // prototype to the engine. Build errors fall through: the engine run
    // produces the identical planner 400 the engine path always has.
    if let Ok((decision, prototype)) =
        FastPath::resolve_planned(&sim.scenario, &sim.spec, sim.spec.kind)
    {
        match decision {
            FastPathDecision::Analytic(answer) => {
                shared.metrics.fastpath_analytic();
                test_delay(shared);
                // The run is deterministic — that is what made it
                // eligible — so every seed's row is the closed form.
                let runs = sim.spec.seeds().map(|seed| RunRow {
                    seed,
                    makespan: answer.makespan,
                    num_chunks: None,
                    completed_work: answer.planned_work,
                    conservation_residual: 0.0,
                    metrics: None,
                    robustness: None,
                    findings: &[],
                });
                let body = simulate_body(&sim.spec, "analytic", answer.makespan, runs);
                let response = Response::json(200, body).header("X-Answer-Source", "analytic");
                let pct = shared.config.fastpath_audit_pct;
                let after: After = Box::new(move |shared: &Shared| {
                    // Only the audit needs the sampling key, so it is
                    // rendered behind the write, and only at a rate that
                    // depends on it.
                    if FastPath::audit_due(|| sim.canonical(), pct) {
                        let SimulateRequest { scenario, mut spec } = sim;
                        spec.config = effective_config(shared, &spec);
                        spec.prototype = prototype;
                        audit_analytic(shared, &scenario, spec, &answer);
                    }
                });
                return (response, Some(after));
            }
            FastPathDecision::Engine(miss) => {
                shared.metrics.fastpath_miss(miss);
                sim.spec.prototype = prototype;
            }
        }
    }
    let key = (shared.config.sim_cache_capacity > 0).then(|| sim.canonical());
    if let Some(key) = &key {
        if let Some(body) = shared.sim_cache.get(key) {
            shared.metrics.sim_cache_hit();
            let response = Response::json(200, body)
                .header("X-Sim-Cache", "hit")
                .header("X-Answer-Source", "engine");
            return (response, None);
        }
        shared.metrics.sim_cache_miss();
    }
    let mut response = simulate_engine(shared, sim);
    if response.status == 200 {
        if let Some(key) = key {
            shared.sim_cache.insert(key, Arc::clone(&response.body));
            response = response.header("X-Sim-Cache", "miss");
        }
        response = response.header("X-Answer-Source", "engine");
    }
    (response, None)
}

/// Run one `/simulate` request's repetition batch through the engine,
/// inside an engine slot, and produce its response.
fn simulate_engine(shared: &Shared, sim: SimulateRequest) -> Response {
    let slot = shared.slots.acquire();
    shared.metrics.observe_shard(slot.index);
    // Inside the slot so it stands in for engine time: at most `shards`
    // delays at once per process (cache hits skip it).
    test_delay(shared);
    let SimulateRequest { scenario, mut spec } = sim;
    spec.config = effective_config(shared, &spec);
    let cols = match scenario.execute_batch(&spec) {
        Ok(cols) => cols,
        Err(e) => return run_error(&e),
    };
    // Per-run robustness reports when the request revealed speeds: the
    // clairvoyant twins are planned once on the realized platform, which
    // every repetition shares.
    let robustness: Vec<RobustnessReport> = match scenario.clairvoyant(&spec) {
        Some(twins) => spec
            .seeds()
            .zip(cols.makespan.iter())
            .map(|(seed, &m)| twins.report(seed, m))
            .collect(),
        None => Vec::new(),
    };
    let runs = (0..cols.len()).map(|i| RunRow {
        seed: spec.seed + i as u64,
        makespan: cols.makespan[i],
        num_chunks: Some(cols.num_chunks[i]),
        completed_work: cols.completed_work[i],
        conservation_residual: cols.conservation_residual(i),
        metrics: cols.metrics[i].as_ref(),
        robustness: robustness.get(i),
        findings: cols.audit[i].as_deref().unwrap_or(&[]),
    });
    Response::json(
        200,
        simulate_body(&spec, "engine", cols.mean_makespan(), runs),
    )
}

/// One `runs` entry of a `/simulate` body. A closed-form row has no chunk
/// count, metrics, robustness report or findings.
struct RunRow<'a> {
    seed: u64,
    makespan: f64,
    num_chunks: Option<usize>,
    completed_work: f64,
    conservation_residual: f64,
    metrics: Option<&'a MetricsSummary>,
    robustness: Option<&'a RobustnessReport>,
    findings: &'a [InvariantFinding],
}

/// The `/simulate` body, the same shape from the engine and from the
/// closed form: one `runs` entry per requested seed.
fn simulate_body<'a>(
    spec: &rumr::RunSpec,
    source: &str,
    mean_makespan: f64,
    runs: impl Iterator<Item = RunRow<'a>>,
) -> String {
    let mut out = String::with_capacity(512);
    put_str(&mut out, r#"{"api_version":"#, API_VERSION);
    put_str(&mut out, r#","source":"#, source);
    out.push_str(r#","runs":["#);
    for (i, run) in runs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        put_int(&mut out, r#"{"seed":"#, run.seed);
        put_num(&mut out, r#","makespan":"#, run.makespan);
        if let Some(n) = run.num_chunks {
            put_int(&mut out, r#","num_chunks":"#, n as u64);
        }
        put_num(&mut out, r#","completed_work":"#, run.completed_work);
        put_num(
            &mut out,
            r#","conservation_residual":"#,
            run.conservation_residual,
        );
        if let Some(m) = run.metrics {
            put_int(&mut out, r#","metrics":{"trace_events":"#, m.trace_events);
            put_num(
                &mut out,
                r#","link_utilization":"#,
                m.link_utilization(run.makespan),
            );
            put_int(&mut out, r#","num_gaps":"#, m.num_gaps as u64);
            out.push('}');
        }
        if let Some(rb) = run.robustness {
            put_num(&mut out, r#","robustness":{"ratio":"#, rb.ratio);
            put_num(
                &mut out,
                r#","clairvoyant_makespan":"#,
                rb.clairvoyant_makespan,
            );
            put_opt(&mut out, r#","replanned_makespan":"#, rb.replanned_makespan);
            put_num(
                &mut out,
                r#","analytic_lower_bound":"#,
                rb.analytic_lower_bound,
            );
            out.push('}');
        }
        put_findings(&mut out, run.findings.iter());
        out.push('}');
    }
    put_num(&mut out, r#"],"mean_makespan":"#, mean_makespan);
    put_str(&mut out, r#","scheduler":"#, &spec.kind.label());
    out.push('}');
    out
}
