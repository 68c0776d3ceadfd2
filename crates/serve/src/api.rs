//! The service's JSON request/response codec.
//!
//! Everything the wire speaks maps onto the core types: a `/plan` body
//! decodes to a [`PlanRequest`], a `/simulate` body to a
//! [`SimulateRequest`] (a [`Scenario`] plus a [`RunSpec`]).
//!
//! Decoders are tolerant of omitted optional fields (they fall back to the
//! same defaults the Rust builders use) and strict about types: a field of
//! the wrong JSON type is a 400, not a silent default.
//!
//! The service's cache keys and shard route are canonical texts of the
//! decoded request in its explicit form (defaults filled in, the
//! `homogeneous` shorthand expanded): the bytes [`Json::canonical`] writes
//! for that document, keys sorted and no whitespace. The `write_*`
//! functions below write that text straight from the decoded values, with
//! the fields already in sorted order and every number through
//! [`put_num`]. The tests pin it byte for byte against a JSON-tree
//! reference, and check that decoding it gives the request back.

use dls_experiments::json::{parse_json, put_bool, put_num, put_opt, Json};
use rumr::sim::FaultAction;
use rumr::{
    ErrorModel, FaultModel, FaultPlan, HomogeneousParams, MultiJob, MultiPolicy, MultiRunSpec,
    Platform, PoissonFaults, RecoveryConfig, RumrConfig, RunSpec, Scenario, SchedulerKind,
    SimConfig, SpeedModel, TraceMode, WorkerSpec,
};

/// A request the codec rejected, with a human-readable reason (the server
/// returns it in a 400 body).
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError(pub String);

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ApiError {}

/// The exact message produced when a request body contains a non-finite
/// number. The server maps this — and only this — decode failure to `422
/// Unprocessable Entity`: the body is well-formed JSON (syntactically
/// fine, hence not a 400) but can never describe a valid simulation.
pub const NON_FINITE_MSG: &str = "request contains a non-finite number (NaN or infinity overflow)";

impl ApiError {
    /// True when the request was rejected for containing non-finite
    /// numbers; the server answers 422 instead of 400.
    pub fn is_non_finite(&self) -> bool {
        self.0 == NON_FINITE_MSG
    }
}

/// Parse a request body and reject it wholesale if any number anywhere in
/// it is non-finite (JSON has no NaN/inf literals, but `1e999` parses to
/// f64 infinity), before any field reaches `SimConfig` or the platform.
fn parse_finite_json(body: &str) -> Result<Json, ApiError> {
    let v = parse_json(body).map_err(ApiError)?;
    if !v.all_finite() {
        return err(NON_FINITE_MSG);
    }
    Ok(v)
}

fn err<T>(msg: impl Into<String>) -> Result<T, ApiError> {
    Err(ApiError(msg.into()))
}

fn num_field(obj: &Json, key: &str) -> Result<f64, ApiError> {
    match obj.get(key) {
        Some(v) => v
            .num()
            .ok_or_else(|| ApiError(format!("field '{key}' must be a number"))),
        None => err(format!("missing field '{key}'")),
    }
}

fn opt_num_field(obj: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .num()
            .map(Some)
            .ok_or_else(|| ApiError(format!("field '{key}' must be a number or null"))),
    }
}

fn usize_field_or(obj: &Json, key: &str, default: usize) -> Result<usize, ApiError> {
    match opt_num_field(obj, key)? {
        None => Ok(default),
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= usize::MAX as f64 => Ok(x as usize),
        Some(_) => err(format!("field '{key}' must be a non-negative integer")),
    }
}

fn u64_field_or(obj: &Json, key: &str, default: u64) -> Result<u64, ApiError> {
    match opt_num_field(obj, key)? {
        None => Ok(default),
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Ok(x as u64),
        Some(_) => err(format!("field '{key}' must be a non-negative integer")),
    }
}

fn bool_field_or(obj: &Json, key: &str, default: bool) -> Result<bool, ApiError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .bool()
            .ok_or_else(|| ApiError(format!("field '{key}' must be a boolean"))),
    }
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    match obj.get(key) {
        Some(v) => v
            .str()
            .ok_or_else(|| ApiError(format!("field '{key}' must be a string"))),
        None => err(format!("missing field '{key}'")),
    }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// Append a RUMR-family scheduler with its full configuration.
fn write_rumr(out: &mut String, kind: &str, c: &RumrConfig) {
    put_bool(out, r#"{"error_aware_bound":"#, c.error_aware_bound);
    put_opt(out, r#","error_estimate":"#, c.error_estimate);
    put_num(out, r#","factor":"#, c.factor);
    out.push_str(r#","kind":""#);
    out.push_str(kind);
    put_bool(out, r#"","out_of_order":"#, c.out_of_order);
    put_opt(out, r#","phase1_fraction":"#, c.phase1_fraction);
    out.push('}');
}

fn decode_rumr_config(v: &Json) -> Result<RumrConfig, ApiError> {
    let defaults = RumrConfig::default();
    Ok(RumrConfig {
        error_estimate: opt_num_field(v, "error_estimate")?,
        phase1_fraction: opt_num_field(v, "phase1_fraction")?,
        out_of_order: bool_field_or(v, "out_of_order", defaults.out_of_order)?,
        factor: opt_num_field(v, "factor")?.unwrap_or(defaults.factor),
        error_aware_bound: bool_field_or(v, "error_aware_bound", defaults.error_aware_bound)?,
    })
}

/// Append a [`SchedulerKind`], `{"kind":"...",...params}`. RUMR variants
/// always carry their full configuration so the text is self-contained.
fn write_scheduler(out: &mut String, kind: &SchedulerKind) {
    match kind {
        SchedulerKind::Rumr(c) => write_rumr(out, "rumr", c),
        SchedulerKind::HetRumr(c) => write_rumr(out, "het_rumr", c),
        SchedulerKind::Umr => out.push_str(r#"{"kind":"umr"}"#),
        SchedulerKind::Mi { installments } => {
            put_num(out, r#"{"installments":"#, *installments as f64);
            out.push_str(r#","kind":"mi"}"#);
        }
        SchedulerKind::Factoring => out.push_str(r#"{"kind":"factoring"}"#),
        SchedulerKind::Fsc { error } => {
            put_num(out, r#"{"error":"#, *error);
            out.push_str(r#","kind":"fsc"}"#);
        }
        SchedulerKind::EqualStatic => out.push_str(r#"{"kind":"equal_static"}"#),
        SchedulerKind::SelfScheduling { unit } => {
            put_num(out, r#"{"kind":"self_scheduling","unit":"#, *unit);
            out.push('}');
        }
        SchedulerKind::HetUmr => out.push_str(r#"{"kind":"het_umr"}"#),
        SchedulerKind::AdaptiveRumr => out.push_str(r#"{"kind":"adaptive_rumr"}"#),
        SchedulerKind::OneRound => out.push_str(r#"{"kind":"one_round"}"#),
        SchedulerKind::Gss => out.push_str(r#"{"kind":"gss"}"#),
        SchedulerKind::Tss => out.push_str(r#"{"kind":"tss"}"#),
    }
}

/// Decode a scheduler object, `{"kind": "...", ...params}`.
pub fn decode_scheduler(v: &Json) -> Result<SchedulerKind, ApiError> {
    match str_field(v, "kind")? {
        "rumr" => Ok(SchedulerKind::Rumr(decode_rumr_config(v)?)),
        "het_rumr" => Ok(SchedulerKind::HetRumr(decode_rumr_config(v)?)),
        "umr" => Ok(SchedulerKind::Umr),
        "mi" => Ok(SchedulerKind::Mi {
            installments: usize_field_or(v, "installments", 2)?,
        }),
        "factoring" => Ok(SchedulerKind::Factoring),
        "fsc" => Ok(SchedulerKind::Fsc {
            error: num_field(v, "error")?,
        }),
        "equal_static" => Ok(SchedulerKind::EqualStatic),
        "self_scheduling" => Ok(SchedulerKind::SelfScheduling {
            unit: num_field(v, "unit")?,
        }),
        "het_umr" => Ok(SchedulerKind::HetUmr),
        "adaptive_rumr" => Ok(SchedulerKind::AdaptiveRumr),
        "one_round" => Ok(SchedulerKind::OneRound),
        "gss" => Ok(SchedulerKind::Gss),
        "tss" => Ok(SchedulerKind::Tss),
        other => err(format!("unknown scheduler kind '{other}'")),
    }
}

// ---------------------------------------------------------------------------
// Platform and error model
// ---------------------------------------------------------------------------

/// Append a platform as its explicit worker list, `{"workers":[...]}`
/// (the `homogeneous` request shorthand expands to this).
///
/// A worker whose five fields have the same bits as the previous
/// worker's repeats that worker's text instead of rendering its numbers
/// again, so an N-worker homogeneous platform costs one worker render.
/// Bits, not `==`: `0.0` and `-0.0` are equal but print differently.
fn write_platform(out: &mut String, platform: &Platform) {
    let workers = platform.workers();
    out.push_str(r#"{"workers":["#);
    let mut text = String::new();
    let mut last = None;
    for (i, w) in workers.iter().enumerate() {
        let bits = [
            w.speed,
            w.bandwidth,
            w.comp_latency,
            w.net_latency,
            w.transfer_latency,
        ]
        .map(f64::to_bits);
        if last != Some(bits) {
            text.clear();
            write_worker(&mut text, w);
            last = Some(bits);
        }
        if i == 0 {
            // Exact for a homogeneous platform.
            out.reserve(workers.len() * (text.len() + 1) + 2);
        } else {
            out.push(',');
        }
        out.push_str(&text);
    }
    out.push_str("]}");
}

fn write_worker(out: &mut String, w: &WorkerSpec) {
    put_num(out, r#"{"bandwidth":"#, w.bandwidth);
    put_num(out, r#","comp_latency":"#, w.comp_latency);
    put_num(out, r#","net_latency":"#, w.net_latency);
    put_num(out, r#","speed":"#, w.speed);
    put_num(out, r#","transfer_latency":"#, w.transfer_latency);
    out.push('}');
}

/// Decode a platform: either `{"workers": [...]}` (explicit) or
/// `{"homogeneous": {"n", "ratio", "comp_latency", "net_latency"}}` (the
/// paper's Table 1 shorthand: speed 1, bandwidth `ratio·n`).
pub fn decode_platform(v: &Json) -> Result<Platform, ApiError> {
    if let Some(h) = v.get("homogeneous") {
        let n = usize_field_or(h, "n", 0)?;
        if n == 0 {
            return err("homogeneous platform needs 'n' >= 1");
        }
        let params = HomogeneousParams::table1(
            n,
            num_field(h, "ratio")?,
            num_field(h, "comp_latency")?,
            num_field(h, "net_latency")?,
        );
        return params
            .build()
            .map_err(|e| ApiError(format!("platform: {e}")));
    }
    let workers = v
        .get("workers")
        .and_then(Json::arr)
        .ok_or_else(|| ApiError("platform needs 'workers' (array) or 'homogeneous'".into()))?;
    let specs = workers
        .iter()
        .map(|w| {
            Ok(WorkerSpec {
                speed: num_field(w, "speed")?,
                bandwidth: num_field(w, "bandwidth")?,
                comp_latency: num_field(w, "comp_latency")?,
                net_latency: num_field(w, "net_latency")?,
                transfer_latency: opt_num_field(w, "transfer_latency")?.unwrap_or(0.0),
            })
        })
        .collect::<Result<Vec<_>, ApiError>>()?;
    Platform::new(specs).map_err(|e| ApiError(format!("platform: {e}")))
}

/// Append an error model, `{"error":x,"kind":"..."}` (no `error` for
/// `none`).
fn write_error_model(out: &mut String, model: &ErrorModel) {
    let (kind, error) = match model {
        ErrorModel::None => return out.push_str(r#"{"kind":"none"}"#),
        ErrorModel::TruncatedNormal { error } => ("normal", *error),
        ErrorModel::TruncatedNormalInverse { error } => ("inverse", *error),
        ErrorModel::Uniform { error } => ("uniform", *error),
    };
    put_num(out, r#"{"error":"#, error);
    out.push_str(r#","kind":""#);
    out.push_str(kind);
    out.push_str(r#""}"#);
}

/// Decode an error model; a missing `error` field means 0 and `kind:
/// "none"` ignores it.
pub fn decode_error_model(v: &Json) -> Result<ErrorModel, ApiError> {
    let error = opt_num_field(v, "error")?.unwrap_or(0.0);
    match str_field(v, "kind")? {
        "none" => Ok(ErrorModel::None),
        "normal" => Ok(ErrorModel::TruncatedNormal { error }),
        "inverse" => Ok(ErrorModel::TruncatedNormalInverse { error }),
        "uniform" => Ok(ErrorModel::Uniform { error }),
        other => err(format!("unknown error model '{other}'")),
    }
}

// ---------------------------------------------------------------------------
// Faults, recovery, SimConfig, RunSpec
// ---------------------------------------------------------------------------

fn fault_action_name(action: FaultAction) -> &'static str {
    match action {
        FaultAction::Down => "down",
        FaultAction::Up => "up",
        FaultAction::LinkDrop => "link_drop",
    }
}

fn decode_fault_action(s: &str) -> Result<FaultAction, ApiError> {
    match s {
        "down" => Ok(FaultAction::Down),
        "up" => Ok(FaultAction::Up),
        "link_drop" => Ok(FaultAction::LinkDrop),
        other => err(format!("unknown fault action '{other}'")),
    }
}

/// Append a fault model as a tagged object (`kind`: `none` / `plan` /
/// `poisson`).
fn write_fault_model(out: &mut String, model: &FaultModel) {
    match model {
        FaultModel::None => out.push_str(r#"{"kind":"none"}"#),
        FaultModel::Plan(plan) => {
            out.push_str(r#"{"events":["#);
            for (i, e) in plan.events().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(r#"{"action":""#);
                out.push_str(fault_action_name(e.action));
                put_num(out, r#"","time":"#, e.time);
                put_num(out, r#","worker":"#, e.worker as f64);
                out.push('}');
            }
            out.push_str(r#"],"kind":"plan"}"#);
        }
        FaultModel::Poisson(p) => {
            put_num(out, r#"{"horizon":"#, p.horizon);
            put_opt(out, r#","kind":"poisson","link_mtbf":"#, p.link_mtbf);
            put_num(out, r#","mttf":"#, p.mttf);
            put_opt(out, r#","mttr":"#, p.mttr);
            put_num(out, r#","seed":"#, p.seed as f64);
            out.push('}');
        }
    }
}

/// Decode a fault model: `{"kind": "none"}`, `{"kind": "plan", "events":
/// [{"time", "worker", "action"}, ...]}` or `{"kind": "poisson", "mttf",
/// "horizon", "mttr"?, "link_mtbf"?, "seed"?}`.
pub fn decode_fault_model(v: &Json) -> Result<FaultModel, ApiError> {
    match str_field(v, "kind")? {
        "none" => Ok(FaultModel::None),
        "plan" => {
            let events = v
                .get("events")
                .and_then(Json::arr)
                .ok_or_else(|| ApiError("fault plan needs 'events' array".into()))?;
            let mut plan = FaultPlan::new();
            for e in events {
                let time = num_field(e, "time")?;
                if !(time.is_finite() && time >= 0.0) {
                    return err("fault time must be finite and non-negative");
                }
                plan = plan.add(
                    time,
                    usize_field_or(e, "worker", usize::MAX)?,
                    decode_fault_action(str_field(e, "action")?)?,
                );
            }
            Ok(FaultModel::Plan(plan))
        }
        "poisson" => {
            let mttf = num_field(v, "mttf")?;
            let horizon = num_field(v, "horizon")?;
            if !(mttf.is_finite() && mttf > 0.0 && horizon.is_finite() && horizon > 0.0) {
                return err("poisson faults need finite positive 'mttf' and 'horizon'");
            }
            Ok(FaultModel::Poisson(PoissonFaults {
                mttf,
                mttr: opt_num_field(v, "mttr")?,
                link_mtbf: opt_num_field(v, "link_mtbf")?,
                horizon,
                seed: u64_field_or(v, "seed", 0)?,
            }))
        }
        other => err(format!("unknown fault model '{other}'")),
    }
}

/// Append a recovery policy with all fields explicit.
fn write_recovery(out: &mut String, r: &RecoveryConfig) {
    put_num(out, r#"{"backoff_factor":"#, r.backoff_factor);
    let samples = f64::from(r.divergence_min_samples);
    put_num(out, r#","divergence_min_samples":"#, samples);
    put_opt(out, r#","divergence_threshold":"#, r.divergence_threshold);
    put_num(out, r#","factor":"#, r.factor);
    put_num(out, r#","initial_backoff":"#, r.initial_backoff);
    put_num(out, r#","min_chunk":"#, r.min_chunk);
    out.push('}');
}

/// Decode a recovery policy; missing fields take the Rust defaults, and
/// the literal `true` selects the defaults wholesale.
pub fn decode_recovery(v: &Json) -> Result<RecoveryConfig, ApiError> {
    if v.bool() == Some(true) {
        return Ok(RecoveryConfig::default());
    }
    let d = RecoveryConfig::default();
    let divergence_threshold = opt_num_field(v, "divergence_threshold")?;
    if let Some(t) = divergence_threshold {
        if !(t.is_finite() && t > 0.0) {
            return err("recovery divergence_threshold must be positive and finite");
        }
    }
    let divergence_min_samples = usize_field_or(
        v,
        "divergence_min_samples",
        d.divergence_min_samples as usize,
    )?;
    if divergence_min_samples == 0 || divergence_min_samples > u32::MAX as usize {
        return err("recovery divergence_min_samples must be in 1..=2^32-1");
    }
    Ok(RecoveryConfig {
        initial_backoff: opt_num_field(v, "initial_backoff")?.unwrap_or(d.initial_backoff),
        backoff_factor: opt_num_field(v, "backoff_factor")?.unwrap_or(d.backoff_factor),
        factor: opt_num_field(v, "factor")?.unwrap_or(d.factor),
        min_chunk: opt_num_field(v, "min_chunk")?.unwrap_or(d.min_chunk),
        divergence_threshold,
        divergence_min_samples: divergence_min_samples as u32,
    })
}

/// Append a speed-revelation model as a tagged object (`kind`:
/// `declared` / `stochastic` / `sandbag` / `adversarial`).
fn write_speed_model(out: &mut String, model: &SpeedModel) {
    match *model {
        SpeedModel::Declared => out.push_str(r#"{"kind":"declared"}"#),
        SpeedModel::Stochastic { spread, seed } => {
            put_num(out, r#"{"kind":"stochastic","seed":"#, seed as f64);
            put_num(out, r#","spread":"#, spread);
            out.push('}');
        }
        SpeedModel::Sandbagged {
            fraction,
            slowdown,
            seed,
        } => {
            put_num(out, r#"{"fraction":"#, fraction);
            put_num(out, r#","kind":"sandbag","seed":"#, seed as f64);
            put_num(out, r#","slowdown":"#, slowdown);
            out.push('}');
        }
        SpeedModel::Adversarial { fraction, slowdown } => {
            put_num(out, r#"{"fraction":"#, fraction);
            put_num(out, r#","kind":"adversarial","slowdown":"#, slowdown);
            out.push('}');
        }
    }
}

/// Decode a speed-revelation model: `{"kind": "declared"}`,
/// `{"kind": "stochastic", "spread", "seed"?}`, `{"kind": "sandbag",
/// "fraction", "slowdown", "seed"?}` or `{"kind": "adversarial",
/// "fraction", "slowdown"}`.
pub fn decode_speed_model(v: &Json) -> Result<SpeedModel, ApiError> {
    let model = match str_field(v, "kind")? {
        "declared" | "identity" => SpeedModel::Declared,
        "stochastic" => SpeedModel::Stochastic {
            spread: num_field(v, "spread")?,
            seed: u64_field_or(v, "seed", 0)?,
        },
        "sandbag" => SpeedModel::Sandbagged {
            fraction: num_field(v, "fraction")?,
            slowdown: num_field(v, "slowdown")?,
            seed: u64_field_or(v, "seed", 0)?,
        },
        "adversarial" => SpeedModel::Adversarial {
            fraction: num_field(v, "fraction")?,
            slowdown: num_field(v, "slowdown")?,
        },
        other => return err(format!("unknown speed model '{other}'")),
    };
    // Validate ranges here (client input must not reach the engine's
    // panicking asserts).
    let ok = match model {
        SpeedModel::Declared => true,
        SpeedModel::Stochastic { spread, .. } => spread.is_finite() && (0.0..1.0).contains(&spread),
        SpeedModel::Sandbagged {
            fraction, slowdown, ..
        }
        | SpeedModel::Adversarial { fraction, slowdown } => {
            fraction.is_finite()
                && (0.0..=1.0).contains(&fraction)
                && slowdown.is_finite()
                && slowdown >= 1.0
        }
    };
    if !ok {
        return err("speed model parameters out of range (spread in [0,1), fraction in [0,1], slowdown >= 1)");
    }
    Ok(model)
}

fn trace_mode_name(mode: TraceMode) -> &'static str {
    match mode {
        TraceMode::Off => "off",
        TraceMode::MetricsOnly => "metrics",
        TraceMode::Full => "full",
    }
}

fn decode_trace_mode(s: &str) -> Result<TraceMode, ApiError> {
    match s {
        "off" => Ok(TraceMode::Off),
        "metrics" => Ok(TraceMode::MetricsOnly),
        "full" => Ok(TraceMode::Full),
        other => err(format!("unknown trace mode '{other}'")),
    }
}

/// Append an engine configuration with every field explicit.
fn write_sim_config(out: &mut String, c: &SimConfig) {
    put_bool(out, r#"{"audit":"#, c.audit);
    out.push_str(r#","faults":"#);
    write_fault_model(out, &c.faults);
    let sends = c.max_concurrent_sends as f64;
    put_num(out, r#","max_concurrent_sends":"#, sends);
    put_num(out, r#","max_events":"#, c.max_events as f64);
    put_num(out, r#","output_ratio":"#, c.output_ratio);
    out.push_str(r#","speeds":"#);
    write_speed_model(out, &c.speeds);
    out.push_str(r#","trace_mode":""#);
    out.push_str(trace_mode_name(c.trace_mode));
    put_opt(out, r#"","uplink_capacity":"#, c.uplink_capacity);
    out.push('}');
}

/// Decode an engine configuration; missing fields take
/// [`SimConfig::default`].
pub fn decode_sim_config(v: &Json) -> Result<SimConfig, ApiError> {
    let d = SimConfig::default();
    let trace_mode = match v.get("trace_mode") {
        None | Some(Json::Null) => d.trace_mode,
        Some(t) => decode_trace_mode(
            t.str()
                .ok_or_else(|| ApiError("field 'trace_mode' must be a string".into()))?,
        )?,
    };
    Ok(SimConfig {
        trace_mode,
        max_events: u64_field_or(v, "max_events", d.max_events)?,
        max_concurrent_sends: usize_field_or(v, "max_concurrent_sends", d.max_concurrent_sends)?,
        uplink_capacity: opt_num_field(v, "uplink_capacity")?,
        output_ratio: opt_num_field(v, "output_ratio")?.unwrap_or(d.output_ratio),
        faults: match v.get("faults") {
            None | Some(Json::Null) => FaultModel::None,
            Some(f) => decode_fault_model(f)?,
        },
        audit: bool_field_or(v, "audit", d.audit)?,
        speeds: match v.get("speeds") {
            None | Some(Json::Null) => SpeedModel::Declared,
            Some(s) => decode_speed_model(s)?,
        },
    })
}

/// Append a [`RunSpec`] (without any attached prototype — that is
/// derived state, not wire state).
fn write_run_spec(out: &mut String, spec: &RunSpec) {
    out.push_str(r#"{"config":"#);
    write_sim_config(out, &spec.config);
    out.push_str(r#","recovery":"#);
    match &spec.recovery {
        Some(r) => write_recovery(out, r),
        None => out.push_str("null"),
    }
    put_num(out, r#","reps":"#, spec.reps as f64);
    out.push_str(r#","scheduler":"#);
    write_scheduler(out, &spec.kind);
    put_num(out, r#","seed":"#, spec.seed as f64);
    out.push('}');
}

/// Decode a [`RunSpec`]; `seed` defaults to 0, `reps` to 1, `config` to
/// the engine defaults and `recovery` to off.
pub fn decode_run_spec(v: &Json) -> Result<RunSpec, ApiError> {
    let scheduler = v
        .get("scheduler")
        .ok_or_else(|| ApiError("run spec needs a 'scheduler'".into()))?;
    let reps = u64_field_or(v, "reps", 1)?;
    if reps == 0 {
        return err("field 'reps' must be >= 1");
    }
    let mut spec = RunSpec::new(decode_scheduler(scheduler)?)
        .seed(u64_field_or(v, "seed", 0)?)
        .reps(reps);
    if let Some(c) = v.get("config") {
        if *c != Json::Null {
            spec = spec.config(decode_sim_config(c)?);
        }
    }
    match v.get("recovery") {
        None | Some(Json::Null) | Some(Json::Bool(false)) => {}
        Some(r) => spec = spec.recovering(decode_recovery(r)?),
    }
    Ok(spec)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A decoded `POST /plan` body: plan `scheduler` for `w_total` units on
/// `platform`.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The star platform to plan for.
    pub platform: Platform,
    /// Total divisible workload (units).
    pub w_total: f64,
    /// The scheduling algorithm.
    pub kind: SchedulerKind,
}

impl PlanRequest {
    /// Decode a request body.
    pub fn from_json_str(body: &str) -> Result<Self, ApiError> {
        let v = parse_finite_json(body)?;
        let w_total = num_field(&v, "w_total")?;
        if !(w_total.is_finite() && w_total > 0.0) {
            return err("'w_total' must be finite and positive");
        }
        Ok(PlanRequest {
            platform: decode_platform(
                v.get("platform")
                    .ok_or_else(|| ApiError("missing field 'platform'".into()))?,
            )?,
            w_total,
            kind: decode_scheduler(
                v.get("scheduler")
                    .ok_or_else(|| ApiError("missing field 'scheduler'".into()))?,
            )?,
        })
    }

    /// The canonicalized request — two requests meaning the same plan (any
    /// field order, the homogeneous shorthand expanded) produce the same
    /// string. This is the plan cache key.
    pub fn cache_key(&self) -> String {
        let mut platform = String::new();
        write_platform(&mut platform, &self.platform);
        plan_key(&platform, &self.kind, self.w_total)
    }
}

/// The plan cache key of a (platform, scheduler, workload) triple, given
/// the platform's canonical text:
/// `{"platform":...,"scheduler":...,"w_total":...}`.
fn plan_key(platform: &str, kind: &SchedulerKind, w_total: f64) -> String {
    let mut out = String::new();
    out.push_str(r#"{"platform":"#);
    out.push_str(platform);
    out.push_str(r#","scheduler":"#);
    write_scheduler(&mut out, kind);
    put_num(&mut out, r#","w_total":"#, w_total);
    out.push('}');
    out
}

/// A scenario's canonical text around the platform's canonical text, with
/// the run spec when one is given:
/// `{"error_model":...,"platform":...,"run":...,"w_total":...}` is the
/// whole `/simulate` request, and without `run` it is the shard route.
fn scenario_text(scenario: &Scenario, platform: &str, run: Option<&RunSpec>) -> String {
    let mut out = String::new();
    out.push_str(r#"{"error_model":"#);
    write_error_model(&mut out, &scenario.error_model);
    out.push_str(r#","platform":"#);
    out.push_str(platform);
    if let Some(spec) = run {
        out.push_str(r#","run":"#);
        write_run_spec(&mut out, spec);
    }
    put_num(&mut out, r#","w_total":"#, scenario.w_total);
    out.push('}');
    out
}

/// A decoded `POST /simulate` body: a full scenario plus the [`RunSpec`]
/// to execute on it.
#[derive(Debug, Clone)]
pub struct SimulateRequest {
    /// Platform + workload + error model.
    pub scenario: Scenario,
    /// What to run.
    pub spec: RunSpec,
}

impl SimulateRequest {
    /// Decode a request body.
    pub fn from_json_str(body: &str) -> Result<Self, ApiError> {
        let v = parse_finite_json(body)?;
        let w_total = num_field(&v, "w_total")?;
        if !(w_total.is_finite() && w_total > 0.0) {
            return err("'w_total' must be finite and positive");
        }
        let platform = decode_platform(
            v.get("platform")
                .ok_or_else(|| ApiError("missing field 'platform'".into()))?,
        )?;
        let error_model = match v.get("error_model") {
            None | Some(Json::Null) => ErrorModel::None,
            Some(m) => decode_error_model(m)?,
        };
        let mut spec = decode_run_spec(
            v.get("run")
                .ok_or_else(|| ApiError("missing field 'run'".into()))?,
        )?;
        // A top-level speed-revelation block, parallel to `error_model`
        // (also accepted inside `run.config.speeds`; the top level wins).
        if let Some(s) = v.get("speeds") {
            if *s != Json::Null {
                spec.config.speeds = decode_speed_model(s)?;
            }
        }
        Ok(SimulateRequest {
            scenario: Scenario {
                platform,
                w_total,
                error_model,
                cost_profile: None,
                temporal_noise: None,
            },
            spec,
        })
    }

    /// Canonicalized request body (cache/debug identity; `/simulate`
    /// responses are deterministic in this string).
    pub fn canonical(&self) -> String {
        self.keys().canonical()
    }

    /// The canonicalized *scenario* (platform + workload + error model,
    /// without the run spec) — the engine-shard routing key. Two requests
    /// that run on the same engine state produce the same string, so
    /// affinity routing sends them to the same shard.
    pub fn scenario_key(&self) -> String {
        self.keys().scenario_key()
    }

    /// The plan-cache key of this request's (platform, workload,
    /// scheduler) triple — `/simulate` uses it to reuse a prototype planned
    /// by an earlier `/plan`.
    pub fn plan_key(&self) -> String {
        self.keys().plan_key()
    }

    /// Render the platform's canonical text once, for composing any of
    /// the request's three keys. The platform is the bulk of every key,
    /// so a caller that needs more than one key should hold one
    /// [`SimulateKeys`].
    pub fn keys(&self) -> SimulateKeys<'_> {
        let mut platform = String::new();
        write_platform(&mut platform, &self.scenario.platform);
        SimulateKeys {
            request: self,
            platform,
        }
    }
}

/// The canonical keys of one `/simulate` request, composed around one
/// render of its platform (see [`SimulateRequest::keys`]). Each key is
/// byte-identical to the canonical form of its whole document.
#[derive(Debug)]
pub struct SimulateKeys<'a> {
    request: &'a SimulateRequest,
    platform: String,
}

impl SimulateKeys<'_> {
    /// [`SimulateRequest::canonical`]: the `/simulate` response cache key.
    pub fn canonical(&self) -> String {
        let r = self.request;
        scenario_text(&r.scenario, &self.platform, Some(&r.spec))
    }

    /// [`SimulateRequest::scenario_key`]: the shard routing key.
    pub fn scenario_key(&self) -> String {
        scenario_text(&self.request.scenario, &self.platform, None)
    }

    /// [`SimulateRequest::plan_key`]: the plan cache key.
    pub fn plan_key(&self) -> String {
        let r = self.request;
        plan_key(&self.platform, &r.spec.kind, r.scenario.w_total)
    }
}

/// A decoded `POST /jobs` body: a platform + error model shared by every
/// job, an arbitration policy, and the job list (each with its own
/// release time, size, scheduler and optional recovery policy).
#[derive(Debug, Clone)]
pub struct JobsRequest {
    /// Platform + error model (the scenario's `w_total` is the jobs'
    /// total work; `execute_jobs` ignores it).
    pub scenario: Scenario,
    /// Jobs × policy × seed × engine configuration.
    pub spec: MultiRunSpec,
}

impl JobsRequest {
    /// Decode a request body:
    ///
    /// ```json
    /// {"platform": {...}, "error_model": {...}?, "policy": "fifo"?,
    ///  "seed": 0?, "config": {...}?,
    ///  "jobs": [{"release": 0, "size": 400, "scheduler": {...},
    ///            "recovery": {...}?}, ...]}
    /// ```
    pub fn from_json_str(body: &str) -> Result<Self, ApiError> {
        let v = parse_finite_json(body)?;
        let platform = decode_platform(
            v.get("platform")
                .ok_or_else(|| ApiError("missing field 'platform'".into()))?,
        )?;
        let error_model = match v.get("error_model") {
            None | Some(Json::Null) => ErrorModel::None,
            Some(m) => decode_error_model(m)?,
        };
        let policy = match v.get("policy") {
            None | Some(Json::Null) => MultiPolicy::FifoExclusive,
            Some(p) => {
                let name = p
                    .str()
                    .ok_or_else(|| ApiError("field 'policy' must be a string".into()))?;
                MultiPolicy::parse(name).ok_or_else(|| {
                    ApiError(format!(
                        "unknown policy '{name}' (expected fifo, round_robin or fair_share)"
                    ))
                })?
            }
        };
        let mut spec = MultiRunSpec::new(policy).seed(u64_field_or(&v, "seed", 0)?);
        if let Some(c) = v.get("config") {
            if *c != Json::Null {
                spec = spec.config(decode_sim_config(c)?);
            }
        }
        let jobs = v
            .get("jobs")
            .and_then(Json::arr)
            .ok_or_else(|| ApiError("missing field 'jobs' (array)".into()))?;
        if jobs.is_empty() {
            return err("'jobs' must contain at least one job");
        }
        for j in jobs {
            let release = opt_num_field(j, "release")?.unwrap_or(0.0);
            if !(release.is_finite() && release >= 0.0) {
                return err("job 'release' must be finite and non-negative");
            }
            let size = num_field(j, "size")?;
            if !(size.is_finite() && size > 0.0) {
                return err("job 'size' must be finite and positive");
            }
            let kind = decode_scheduler(
                j.get("scheduler")
                    .ok_or_else(|| ApiError("each job needs a 'scheduler'".into()))?,
            )?;
            let mut job = MultiJob::new(release, size, kind);
            match j.get("recovery") {
                None | Some(Json::Null) | Some(Json::Bool(false)) => {}
                Some(r) => job = job.recovering(decode_recovery(r)?),
            }
            spec = spec.job(job);
        }
        let w_total = spec.total_work();
        Ok(JobsRequest {
            scenario: Scenario {
                platform,
                w_total,
                error_model,
                cost_profile: None,
                temporal_noise: None,
            },
            spec,
        })
    }
}

/// The JSON-tree encoders the key writers replaced: the canonical text of
/// each tree ([`Json::canonical`]) is the definition the writers must
/// match byte for byte.
#[cfg(test)]
mod reference {
    use super::*;

    fn opt_json_num(x: Option<f64>) -> Json {
        match x {
            Some(v) => Json::Num(v),
            None => Json::Null,
        }
    }

    pub(super) fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn rumr_config_fields(c: &RumrConfig) -> Vec<(&'static str, Json)> {
        vec![
            ("error_estimate", opt_json_num(c.error_estimate)),
            ("phase1_fraction", opt_json_num(c.phase1_fraction)),
            ("out_of_order", Json::Bool(c.out_of_order)),
            ("factor", Json::Num(c.factor)),
            ("error_aware_bound", Json::Bool(c.error_aware_bound)),
        ]
    }

    /// Encode a [`SchedulerKind`] as `{"kind": "...", ...params}`. RUMR
    /// variants always carry their full configuration so the encoding is
    /// self-contained.
    pub(super) fn encode_scheduler(kind: &SchedulerKind) -> Json {
        let mut fields: Vec<(&str, Json)>;
        match kind {
            SchedulerKind::Rumr(c) => {
                fields = vec![("kind", Json::Str("rumr".into()))];
                fields.extend(rumr_config_fields(c));
            }
            SchedulerKind::HetRumr(c) => {
                fields = vec![("kind", Json::Str("het_rumr".into()))];
                fields.extend(rumr_config_fields(c));
            }
            SchedulerKind::Umr => fields = vec![("kind", Json::Str("umr".into()))],
            SchedulerKind::Mi { installments } => {
                fields = vec![
                    ("kind", Json::Str("mi".into())),
                    ("installments", Json::Num(*installments as f64)),
                ]
            }
            SchedulerKind::Factoring => fields = vec![("kind", Json::Str("factoring".into()))],
            SchedulerKind::Fsc { error } => {
                fields = vec![
                    ("kind", Json::Str("fsc".into())),
                    ("error", Json::Num(*error)),
                ]
            }
            SchedulerKind::EqualStatic => fields = vec![("kind", Json::Str("equal_static".into()))],
            SchedulerKind::SelfScheduling { unit } => {
                fields = vec![
                    ("kind", Json::Str("self_scheduling".into())),
                    ("unit", Json::Num(*unit)),
                ]
            }
            SchedulerKind::HetUmr => fields = vec![("kind", Json::Str("het_umr".into()))],
            SchedulerKind::AdaptiveRumr => {
                fields = vec![("kind", Json::Str("adaptive_rumr".into()))]
            }
            SchedulerKind::OneRound => fields = vec![("kind", Json::Str("one_round".into()))],
            SchedulerKind::Gss => fields = vec![("kind", Json::Str("gss".into()))],
            SchedulerKind::Tss => fields = vec![("kind", Json::Str("tss".into()))],
        }
        obj(fields)
    }

    /// Encode a platform as its explicit worker list (the canonical form; the
    /// `homogeneous` request shorthand expands to this).
    pub(super) fn encode_platform(platform: &Platform) -> Json {
        let workers = platform
            .workers()
            .iter()
            .map(|w| {
                obj(vec![
                    ("speed", Json::Num(w.speed)),
                    ("bandwidth", Json::Num(w.bandwidth)),
                    ("comp_latency", Json::Num(w.comp_latency)),
                    ("net_latency", Json::Num(w.net_latency)),
                    ("transfer_latency", Json::Num(w.transfer_latency)),
                ])
            })
            .collect();
        obj(vec![("workers", Json::Arr(workers))])
    }

    /// Encode an error model as `{"kind": "...", "error": x}`.
    pub(super) fn encode_error_model(model: &ErrorModel) -> Json {
        let (kind, error) = match model {
            ErrorModel::None => ("none", None),
            ErrorModel::TruncatedNormal { error } => ("normal", Some(*error)),
            ErrorModel::TruncatedNormalInverse { error } => ("inverse", Some(*error)),
            ErrorModel::Uniform { error } => ("uniform", Some(*error)),
        };
        let mut fields = vec![("kind", Json::Str(kind.into()))];
        if let Some(e) = error {
            fields.push(("error", Json::Num(e)));
        }
        obj(fields)
    }

    fn encode_fault_action(action: FaultAction) -> Json {
        Json::Str(
            match action {
                FaultAction::Down => "down",
                FaultAction::Up => "up",
                FaultAction::LinkDrop => "link_drop",
            }
            .into(),
        )
    }

    /// Encode a fault model as a tagged object (`kind`: `none` / `plan` /
    /// `poisson`).
    pub(super) fn encode_fault_model(model: &FaultModel) -> Json {
        match model {
            FaultModel::None => obj(vec![("kind", Json::Str("none".into()))]),
            FaultModel::Plan(plan) => {
                let events = plan
                    .events()
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("time", Json::Num(e.time)),
                            ("worker", Json::Num(e.worker as f64)),
                            ("action", encode_fault_action(e.action)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("kind", Json::Str("plan".into())),
                    ("events", Json::Arr(events)),
                ])
            }
            FaultModel::Poisson(p) => obj(vec![
                ("kind", Json::Str("poisson".into())),
                ("mttf", Json::Num(p.mttf)),
                ("mttr", opt_json_num(p.mttr)),
                ("link_mtbf", opt_json_num(p.link_mtbf)),
                ("horizon", Json::Num(p.horizon)),
                ("seed", Json::Num(p.seed as f64)),
            ]),
        }
    }

    /// Encode a recovery policy with all fields explicit.
    pub(super) fn encode_recovery(r: &RecoveryConfig) -> Json {
        obj(vec![
            ("initial_backoff", Json::Num(r.initial_backoff)),
            ("backoff_factor", Json::Num(r.backoff_factor)),
            ("factor", Json::Num(r.factor)),
            ("min_chunk", Json::Num(r.min_chunk)),
            (
                "divergence_threshold",
                r.divergence_threshold.map_or(Json::Null, Json::Num),
            ),
            (
                "divergence_min_samples",
                Json::Num(r.divergence_min_samples as f64),
            ),
        ])
    }

    /// Encode a speed-revelation model as a tagged object (`kind`: `declared`
    /// / `stochastic` / `sandbag` / `adversarial`).
    pub(super) fn encode_speed_model(model: &SpeedModel) -> Json {
        match *model {
            SpeedModel::Declared => obj(vec![("kind", Json::Str("declared".into()))]),
            SpeedModel::Stochastic { spread, seed } => obj(vec![
                ("kind", Json::Str("stochastic".into())),
                ("spread", Json::Num(spread)),
                ("seed", Json::Num(seed as f64)),
            ]),
            SpeedModel::Sandbagged {
                fraction,
                slowdown,
                seed,
            } => obj(vec![
                ("kind", Json::Str("sandbag".into())),
                ("fraction", Json::Num(fraction)),
                ("slowdown", Json::Num(slowdown)),
                ("seed", Json::Num(seed as f64)),
            ]),
            SpeedModel::Adversarial { fraction, slowdown } => obj(vec![
                ("kind", Json::Str("adversarial".into())),
                ("fraction", Json::Num(fraction)),
                ("slowdown", Json::Num(slowdown)),
            ]),
        }
    }

    /// Encode an engine configuration with every field explicit.
    pub(super) fn encode_sim_config(c: &SimConfig) -> Json {
        obj(vec![
            (
                "trace_mode",
                Json::Str(trace_mode_name(c.trace_mode).into()),
            ),
            ("max_events", Json::Num(c.max_events as f64)),
            (
                "max_concurrent_sends",
                Json::Num(c.max_concurrent_sends as f64),
            ),
            ("uplink_capacity", opt_json_num(c.uplink_capacity)),
            ("output_ratio", Json::Num(c.output_ratio)),
            ("faults", encode_fault_model(&c.faults)),
            ("audit", Json::Bool(c.audit)),
            ("speeds", encode_speed_model(&c.speeds)),
        ])
    }

    /// Encode a [`RunSpec`] (without any attached prototype — that is derived
    /// state, not wire state).
    pub(super) fn encode_run_spec(spec: &RunSpec) -> Json {
        obj(vec![
            ("scheduler", encode_scheduler(&spec.kind)),
            ("seed", Json::Num(spec.seed as f64)),
            ("reps", Json::Num(spec.reps as f64)),
            ("config", encode_sim_config(&spec.config)),
            (
                "recovery",
                match &spec.recovery {
                    Some(r) => encode_recovery(r),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use rumr::FaultPlan;

    fn round_trip_spec(spec: &RunSpec) {
        let encoded = encode_run_spec(spec);
        let canonical = encoded.canonical();
        let reparsed = parse_json(&canonical).expect("canonical form parses");
        let decoded = decode_run_spec(&reparsed).expect("decodes");
        assert_eq!(&decoded, spec, "round trip changed the spec");
        // Canonicalization is a fixed point: re-encoding the decoded spec
        // yields the identical canonical string.
        assert_eq!(encode_run_spec(&decoded).canonical(), canonical);
    }

    #[test]
    fn run_spec_round_trips_unchanged() {
        // The pinned case: a spec exercising every optional field.
        let spec = RunSpec::new(SchedulerKind::Rumr(RumrConfig {
            error_estimate: Some(0.25),
            phase1_fraction: Some(0.7),
            out_of_order: false,
            factor: 1.5,
            error_aware_bound: false,
        }))
        .seed(42)
        .reps(3)
        .trace_mode(TraceMode::MetricsOnly)
        .max_events(1_000_000)
        .faults(FaultModel::Plan(
            FaultPlan::new()
                .crash_recover(60.0, 2, 15.0)
                .link_drop(80.0, 1),
        ))
        .recovering(RecoveryConfig {
            initial_backoff: 2.0,
            backoff_factor: 3.0,
            factor: 2.5,
            min_chunk: 0.5,
            divergence_threshold: Some(0.4),
            divergence_min_samples: 5,
        });
        round_trip_spec(&spec);

        // And the all-defaults spec for every scheduler kind.
        for kind in [
            SchedulerKind::Rumr(RumrConfig::default()),
            SchedulerKind::Umr,
            SchedulerKind::Mi { installments: 4 },
            SchedulerKind::Factoring,
            SchedulerKind::Fsc { error: 0.3 },
            SchedulerKind::EqualStatic,
            SchedulerKind::SelfScheduling { unit: 5.0 },
            SchedulerKind::HetUmr,
            SchedulerKind::AdaptiveRumr,
            SchedulerKind::HetRumr(RumrConfig::with_known_error(0.2)),
            SchedulerKind::OneRound,
            SchedulerKind::Gss,
            SchedulerKind::Tss,
        ] {
            round_trip_spec(&RunSpec::new(kind).seed(7));
        }

        // Poisson faults round-trip too.
        round_trip_spec(
            &RunSpec::new(SchedulerKind::Umr).faults(FaultModel::Poisson(PoissonFaults {
                mttf: 60.0,
                mttr: Some(15.0),
                link_mtbf: None,
                horizon: 2000.0,
                seed: 11,
            })),
        );
    }

    #[test]
    fn canonical_string_is_pinned() {
        // Schema drift guard: the exact canonical bytes of a minimal spec.
        let spec = RunSpec::new(SchedulerKind::Umr);
        assert_eq!(
            encode_run_spec(&spec).canonical(),
            "{\"config\":{\"audit\":false,\"faults\":{\"kind\":\"none\"},\
             \"max_concurrent_sends\":1,\"max_events\":50000000,\"output_ratio\":0,\
             \"speeds\":{\"kind\":\"declared\"},\
             \"trace_mode\":\"off\",\"uplink_capacity\":null},\
             \"recovery\":null,\"reps\":1,\"scheduler\":{\"kind\":\"umr\"},\"seed\":0}"
        );
    }

    #[test]
    fn plan_request_canonicalization_unifies_spellings() {
        let explicit = PlanRequest::from_json_str(
            r#"{"w_total": 1000, "scheduler": {"kind": "umr"},
                "platform": {"workers": [
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1},
                  {"speed": 1, "bandwidth": 15, "comp_latency": 0.2, "net_latency": 0.1}
                ]}}"#,
        )
        .unwrap();
        let shorthand = PlanRequest::from_json_str(
            r#"{"platform": {"homogeneous": {"n": 10, "ratio": 1.5,
                "comp_latency": 0.2, "net_latency": 0.1}},
                "scheduler": {"kind": "umr"}, "w_total": 1000}"#,
        )
        .unwrap();
        assert_eq!(explicit.cache_key(), shorthand.cache_key());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(PlanRequest::from_json_str("not json").is_err());
        assert!(PlanRequest::from_json_str("{}").is_err());
        assert!(PlanRequest::from_json_str(
            r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
                "comp_latency": 0.1, "net_latency": 0.1}},
                "scheduler": {"kind": "warp_drive"}, "w_total": 100}"#
        )
        .is_err());
        assert!(SimulateRequest::from_json_str(
            r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
                "comp_latency": 0.1, "net_latency": 0.1}},
                "w_total": -5, "run": {"scheduler": {"kind": "umr"}}}"#
        )
        .is_err());
        // reps = 0 is invalid, not a panic.
        assert!(SimulateRequest::from_json_str(
            r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
                "comp_latency": 0.1, "net_latency": 0.1}},
                "w_total": 100,
                "run": {"scheduler": {"kind": "umr"}, "reps": 0}}"#
        )
        .is_err());
    }

    #[test]
    fn jobs_request_decodes_and_validates() {
        let body = r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
            "comp_latency": 0.2, "net_latency": 0.1}},
            "policy": "round_robin", "seed": 3,
            "jobs": [
              {"release": 0, "size": 400, "scheduler": {"kind": "factoring"}},
              {"size": 200, "scheduler": {"kind": "umr"}, "recovery": true}
            ]}"#;
        let req = JobsRequest::from_json_str(body).expect("decodes");
        assert_eq!(req.spec.policy, MultiPolicy::RoundRobin);
        assert_eq!(req.spec.seed, 3);
        assert_eq!(req.spec.jobs.len(), 2);
        assert_eq!(req.spec.jobs[1].release, 0.0, "release defaults to 0");
        assert!(req.spec.jobs[1].recovery.is_some());
        assert_eq!(req.scenario.w_total, 600.0);

        // Bad inputs refuse with a message, never panic.
        for bad in [
            r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
                "comp_latency": 0.2, "net_latency": 0.1}}, "jobs": []}"#,
            r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
                "comp_latency": 0.2, "net_latency": 0.1}},
                "jobs": [{"release": -1, "size": 10, "scheduler": {"kind": "umr"}}]}"#,
            r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
                "comp_latency": 0.2, "net_latency": 0.1}},
                "jobs": [{"size": 10, "scheduler": {"kind": "umr"}}],
                "policy": "lifo"}"#,
            r#"{"platform": {"homogeneous": {"n": 4, "ratio": 1.5,
                "comp_latency": 0.2, "net_latency": 0.1}},
                "jobs": [{"size": 1e999, "scheduler": {"kind": "umr"}}]}"#,
        ] {
            assert!(JobsRequest::from_json_str(bad).is_err(), "{bad}");
        }
    }

    /// The three keys as the canonical form of one whole document each:
    /// the definition the composed keys must match byte for byte.
    fn whole_document_keys(r: &SimulateRequest) -> [String; 3] {
        let platform = || ("platform", encode_platform(&r.scenario.platform));
        let w_total = || ("w_total", Json::Num(r.scenario.w_total));
        let error_model = || ("error_model", encode_error_model(&r.scenario.error_model));
        [
            obj(vec![
                platform(),
                w_total(),
                error_model(),
                ("run", encode_run_spec(&r.spec)),
            ])
            .canonical(),
            obj(vec![platform(), w_total(), error_model()]).canonical(),
            obj(vec![
                platform(),
                ("scheduler", encode_scheduler(&r.spec.kind)),
                w_total(),
            ])
            .canonical(),
        ]
    }

    #[test]
    fn composed_keys_match_whole_document_canonical_forms() {
        let platforms = [
            r#"{"homogeneous": {"n": 6, "ratio": 1.5, "comp_latency": 0.2, "net_latency": 0.1}}"#,
            r#"{"workers": [
                {"speed": 1.5, "bandwidth": 12.25, "comp_latency": 0.3, "net_latency": 0.1},
                {"speed": 0.75, "bandwidth": 9, "comp_latency": 0, "net_latency": 0.2,
                 "transfer_latency": 0.05}]}"#,
        ];
        let error_models = [
            "null",
            r#"{"kind": "none"}"#,
            r#"{"kind": "normal", "error": 0.3}"#,
            r#"{"kind": "inverse", "error": 0.2}"#,
            r#"{"kind": "uniform", "error": 0.125}"#,
        ];
        let extras = [
            "",
            r#", "speeds": {"kind": "adversarial", "fraction": 0.25, "slowdown": 2}"#,
            r#", "speeds": {"kind": "stochastic", "spread": 0.3, "seed": 9}"#,
            r#", "speeds": {"kind": "sandbag", "fraction": 0.5, "slowdown": 1.5, "seed": 2}"#,
        ];
        let runs = [
            r#"{"scheduler": {"kind": "umr"}}"#,
            r#"{"scheduler": {"kind": "rumr", "error_estimate": 0.3}, "seed": 7, "reps": 3}"#,
            r#"{"scheduler": {"kind": "mi", "installments": 2}, "recovery": true,
                "config": {"faults": {"kind": "poisson", "mttf": 200, "mttr": 10,
                "horizon": 4000, "seed": 5}, "trace_mode": "metrics"}}"#,
            r#"{"scheduler": {"kind": "factoring"}, "recovery": {"factor": 2.5,
                "divergence_threshold": 0.4},
                "config": {"faults": {"kind": "plan", "events": [
                  {"time": 30, "worker": 1, "action": "down"},
                  {"time": 45, "worker": 1, "action": "up"}]},
                  "speeds": {"kind": "declared"}, "max_concurrent_sends": 2}}"#,
            r#"{"scheduler": {"kind": "het_rumr", "phase1_fraction": 0.8}, "seed": 11}"#,
        ];
        let mut checked = 0;
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for platform in platforms {
            for error_model in error_models {
                for extra in extras {
                    for run in runs {
                        let body = format!(
                            r#"{{"platform": {platform}, "w_total": 1234.5,
                                "error_model": {error_model}{extra}, "run": {run}}}"#
                        );
                        let r = SimulateRequest::from_json_str(&body)
                            .unwrap_or_else(|e| panic!("{body}: {e}"));
                        let keys = r.keys();
                        let [canonical, scenario, plan] = whole_document_keys(&r);
                        assert_eq!(keys.canonical(), canonical, "{body}");
                        assert_eq!(keys.scenario_key(), scenario, "{body}");
                        assert_eq!(keys.plan_key(), plan, "{body}");
                        assert_eq!(r.canonical(), canonical, "{body}");
                        assert_eq!(r.scenario_key(), scenario, "{body}");
                        assert_eq!(r.plan_key(), plan, "{body}");
                        // /simulate shares the plan cache with the /plan
                        // body naming the same triple.
                        let scheduler = parse_json(run).unwrap();
                        let plan_body = format!(
                            r#"{{"scheduler": {}, "w_total": 1234.5, "platform": {platform}}}"#,
                            scheduler.get("scheduler").unwrap().canonical()
                        );
                        let plan_request = PlanRequest::from_json_str(&plan_body).unwrap();
                        assert_eq!(plan_request.cache_key(), plan, "{plan_body}");
                        // FNV-1a over every key, each ended by a newline.
                        for key in [
                            keys.canonical(),
                            keys.scenario_key(),
                            keys.plan_key(),
                            plan_request.cache_key(),
                        ] {
                            for b in key.bytes().chain([b'\n']) {
                                digest =
                                    (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                            }
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 2 * 5 * 4 * 5);
        // The digest of the same keys as the JSON-tree encoders wrote them.
        assert_eq!(digest, 0xfb63_60e8_c7a0_be65);
    }

    /// Numbers whose text is easy to get wrong: both zeros, subnormals,
    /// the smallest normal, huge magnitudes, and integers at and above
    /// 2^53 where `{}` switches to rounded digits.
    const EDGE_NUMS: [f64; 12] = [
        0.0,
        -0.0,
        5e-324,
        1e-310,
        f64::MIN_POSITIVE,
        1e300,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        18_446_744_073_709_551_616.0,
        1e21,
        0.1,
        0.300_000_000_000_000_04,
    ];

    const EDGE_INTS: [u64; 8] = [
        0,
        1,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[(0..items.len()).generate(rng)]
    }

    /// An edge number, or a log-uniform magnitude from 1e-300 to 1e300
    /// of either sign.
    fn any_num(rng: &mut TestRng) -> f64 {
        if proptest::bool::ANY.generate(rng) {
            return pick(rng, &EDGE_NUMS);
        }
        let x = 10f64.powf((-300.0..300.0).generate(rng));
        if proptest::bool::ANY.generate(rng) {
            -x
        } else {
            x
        }
    }

    /// A non-negative number; `-0.0` stays `-0.0`.
    fn nonneg_num(rng: &mut TestRng) -> f64 {
        let x = any_num(rng);
        if x < 0.0 {
            -x
        } else {
            x
        }
    }

    fn positive_num(rng: &mut TestRng) -> f64 {
        let x = nonneg_num(rng);
        if x == 0.0 {
            1.0
        } else {
            x
        }
    }

    fn opt_num(rng: &mut TestRng) -> Option<f64> {
        proptest::bool::ANY.generate(rng).then(|| any_num(rng))
    }

    /// An edge integer, a small one or any `u64`.
    fn any_int(rng: &mut TestRng) -> u64 {
        match (0..3).generate(rng) {
            0 => pick(rng, &EDGE_INTS),
            1 => (0u64..1000).generate(rng),
            _ => (0..u64::MAX).generate(rng),
        }
    }

    fn any_worker(rng: &mut TestRng) -> WorkerSpec {
        WorkerSpec {
            speed: positive_num(rng),
            bandwidth: positive_num(rng),
            comp_latency: nonneg_num(rng),
            net_latency: nonneg_num(rng),
            transfer_latency: nonneg_num(rng),
        }
    }

    /// 1–64 workers: runs of bit-identical copies, fresh workers, and
    /// pairs that differ only in the sign of a zero latency.
    fn any_platform(rng: &mut TestRng) -> Platform {
        let n = (1usize..=64).generate(rng);
        let mut workers = vec![any_worker(rng)];
        while workers.len() < n {
            let last = *workers.last().unwrap();
            match (0..3).generate(rng) {
                0 => {
                    let run = (1usize..=8).generate(rng);
                    workers.extend(std::iter::repeat_n(last, run));
                }
                1 => {
                    let field = (0..3).generate(rng);
                    let with = |zero: f64| {
                        let mut w = last;
                        match field {
                            0 => w.comp_latency = zero,
                            1 => w.net_latency = zero,
                            _ => w.transfer_latency = zero,
                        }
                        w
                    };
                    let (a, b) = if proptest::bool::ANY.generate(rng) {
                        (0.0, -0.0)
                    } else {
                        (-0.0, 0.0)
                    };
                    workers.extend([with(a), with(b)]);
                }
                _ => workers.push(any_worker(rng)),
            }
        }
        workers.truncate(n);
        Platform::new(workers).unwrap()
    }

    fn any_rumr_config(rng: &mut TestRng) -> RumrConfig {
        RumrConfig {
            error_estimate: opt_num(rng),
            phase1_fraction: opt_num(rng),
            out_of_order: proptest::bool::ANY.generate(rng),
            factor: any_num(rng),
            error_aware_bound: proptest::bool::ANY.generate(rng),
        }
    }

    fn any_scheduler(rng: &mut TestRng) -> SchedulerKind {
        match (0..13).generate(rng) {
            0 => SchedulerKind::Rumr(any_rumr_config(rng)),
            1 => SchedulerKind::HetRumr(any_rumr_config(rng)),
            2 => SchedulerKind::Umr,
            3 => SchedulerKind::Mi {
                installments: any_int(rng) as usize,
            },
            4 => SchedulerKind::Factoring,
            5 => SchedulerKind::Fsc {
                error: any_num(rng),
            },
            6 => SchedulerKind::EqualStatic,
            7 => SchedulerKind::SelfScheduling { unit: any_num(rng) },
            8 => SchedulerKind::HetUmr,
            9 => SchedulerKind::AdaptiveRumr,
            10 => SchedulerKind::OneRound,
            11 => SchedulerKind::Gss,
            _ => SchedulerKind::Tss,
        }
    }

    fn any_error_model(rng: &mut TestRng) -> ErrorModel {
        let error = any_num(rng);
        match (0..4).generate(rng) {
            0 => ErrorModel::None,
            1 => ErrorModel::TruncatedNormal { error },
            2 => ErrorModel::TruncatedNormalInverse { error },
            _ => ErrorModel::Uniform { error },
        }
    }

    fn any_faults(rng: &mut TestRng) -> FaultModel {
        match (0..3).generate(rng) {
            0 => FaultModel::None,
            1 => {
                let mut plan = FaultPlan::new();
                for _ in 0..(0..6).generate(rng) {
                    let action = pick(
                        rng,
                        &[FaultAction::Down, FaultAction::Up, FaultAction::LinkDrop],
                    );
                    plan = plan.add(nonneg_num(rng), any_int(rng) as usize, action);
                }
                FaultModel::Plan(plan)
            }
            _ => FaultModel::Poisson(PoissonFaults {
                mttf: any_num(rng),
                mttr: opt_num(rng),
                link_mtbf: opt_num(rng),
                horizon: any_num(rng),
                seed: any_int(rng),
            }),
        }
    }

    fn any_speeds(rng: &mut TestRng) -> SpeedModel {
        let (fraction, slowdown, seed) = (any_num(rng), any_num(rng), any_int(rng));
        match (0..4).generate(rng) {
            0 => SpeedModel::Declared,
            1 => SpeedModel::Stochastic {
                spread: fraction,
                seed,
            },
            2 => SpeedModel::Sandbagged {
                fraction,
                slowdown,
                seed,
            },
            _ => SpeedModel::Adversarial { fraction, slowdown },
        }
    }

    fn any_recovery(rng: &mut TestRng) -> RecoveryConfig {
        RecoveryConfig {
            initial_backoff: any_num(rng),
            backoff_factor: any_num(rng),
            factor: any_num(rng),
            min_chunk: any_num(rng),
            divergence_threshold: opt_num(rng),
            divergence_min_samples: any_int(rng) as u32,
        }
    }

    fn any_run_spec(rng: &mut TestRng) -> RunSpec {
        let mut spec = RunSpec::new(any_scheduler(rng));
        spec.seed = any_int(rng);
        spec.reps = any_int(rng);
        spec.config = SimConfig {
            trace_mode: pick(
                rng,
                &[TraceMode::Off, TraceMode::MetricsOnly, TraceMode::Full],
            ),
            max_events: any_int(rng),
            max_concurrent_sends: any_int(rng) as usize,
            uplink_capacity: opt_num(rng),
            output_ratio: any_num(rng),
            faults: any_faults(rng),
            audit: proptest::bool::ANY.generate(rng),
            speeds: any_speeds(rng),
        };
        spec.recovery = proptest::bool::ANY.generate(rng).then(|| any_recovery(rng));
        spec
    }

    /// Any `/simulate` request the types can hold, valid or not for a
    /// run: the keys are written before anything checks the values.
    struct AnyRequest;

    impl Strategy for AnyRequest {
        type Value = SimulateRequest;

        fn generate(&self, rng: &mut TestRng) -> SimulateRequest {
            SimulateRequest {
                scenario: Scenario {
                    platform: any_platform(rng),
                    w_total: any_num(rng),
                    error_model: any_error_model(rng),
                    cost_profile: None,
                    temporal_noise: None,
                },
                spec: any_run_spec(rng),
            }
        }
    }

    /// Every key, as the request's methods, [`SimulateKeys`] and the
    /// `/plan` request naming the same triple write it, against the
    /// reference's whole-document canonical forms.
    fn check_keys(r: &SimulateRequest) -> Result<(), TestCaseError> {
        let [canonical, scenario, plan] = whole_document_keys(r);
        let keys = r.keys();
        prop_assert_eq!(&r.canonical(), &canonical);
        prop_assert_eq!(&keys.canonical(), &canonical);
        prop_assert_eq!(&r.scenario_key(), &scenario);
        prop_assert_eq!(&keys.scenario_key(), &scenario);
        prop_assert_eq!(&r.plan_key(), &plan);
        prop_assert_eq!(&keys.plan_key(), &plan);
        let plan_request = PlanRequest {
            platform: r.scenario.platform.clone(),
            w_total: r.scenario.w_total,
            kind: r.spec.kind,
        };
        prop_assert_eq!(&plan_request.cache_key(), &plan);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The key writers produce the JSON reference's bytes for any
        /// request: every scheduler kind, error model, fault model and
        /// speed model, with or without recovery, edge numbers anywhere.
        #[test]
        fn written_keys_match_the_json_reference(r in AnyRequest) {
            check_keys(&r)?;
        }
    }

    #[test]
    fn seeds_of_two_to_the_64_decode_saturated_and_key_like_the_reference() {
        let two_64 = "18446744073709551616";
        for speeds in [
            format!(r#"{{"kind": "stochastic", "spread": 0.25, "seed": {two_64}}}"#),
            format!(r#"{{"kind": "sandbag", "fraction": 0.5, "slowdown": 2, "seed": {two_64}}}"#),
        ] {
            let body = format!(
                r#"{{"platform": {{"homogeneous": {{"n": 3, "ratio": 1.5,
                    "comp_latency": 0, "net_latency": 0.1}}}},
                    "w_total": 100, "speeds": {speeds},
                    "run": {{"scheduler": {{"kind": "umr"}}, "seed": {two_64},
                      "recovery": true,
                      "config": {{"faults": {{"kind": "poisson", "mttf": 50,
                        "horizon": 500, "seed": {two_64}}}}}}}}}"#
            );
            let r = SimulateRequest::from_json_str(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(r.spec.seed, u64::MAX);
            let FaultModel::Poisson(faults) = &r.spec.config.faults else {
                panic!("{body}: not poisson");
            };
            assert_eq!(faults.seed, u64::MAX);
            let (SpeedModel::Stochastic { seed, .. } | SpeedModel::Sandbagged { seed, .. }) =
                r.spec.config.speeds
            else {
                panic!("{body}: not seeded");
            };
            assert_eq!(seed, u64::MAX);
            check_keys(&r).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(
                r.canonical()
                    .matches(r#""seed":18446744073709552000"#)
                    .count(),
                3
            );
        }
    }
}
