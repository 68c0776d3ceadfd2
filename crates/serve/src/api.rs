//! The service's JSON request/response codec.
//!
//! Everything the wire speaks maps onto the core types: a `/plan` body
//! decodes to a [`PlanRequest`], a `/simulate` body to a
//! [`SimulateRequest`] (a [`Scenario`] plus a [`RunSpec`]). Encoding and
//! decoding are inverses over the supported surface, and
//! [`Json::canonical`] of an encoded request is the service's cache key —
//! the pinned round-trip tests in this module keep that contract honest.
//!
//! Decoders are tolerant of omitted optional fields (they fall back to the
//! same defaults the Rust builders use) and strict about types: a field of
//! the wrong JSON type is a 400, not a silent default.

use dls_experiments::json::{parse_json, Json};
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

fn opt_json_num(x: Option<f64>) -> Json {
    match x {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

fn rumr_config_fields(c: &RumrConfig) -> Vec<(&'static str, Json)> {
    vec![
        ("error_estimate", opt_json_num(c.error_estimate)),
        ("phase1_fraction", opt_json_num(c.phase1_fraction)),
        ("out_of_order", Json::Bool(c.out_of_order)),
        ("factor", Json::Num(c.factor)),
        ("error_aware_bound", Json::Bool(c.error_aware_bound)),
    ]
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

/// Encode a [`SchedulerKind`] as `{"kind": "...", ...params}`. RUMR
/// variants always carry their full configuration so the encoding is
/// self-contained.
pub fn encode_scheduler(kind: &SchedulerKind) -> Json {
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
        SchedulerKind::AdaptiveRumr => fields = vec![("kind", Json::Str("adaptive_rumr".into()))],
        SchedulerKind::OneRound => fields = vec![("kind", Json::Str("one_round".into()))],
        SchedulerKind::Gss => fields = vec![("kind", Json::Str("gss".into()))],
        SchedulerKind::Tss => fields = vec![("kind", Json::Str("tss".into()))],
    }
    obj(fields)
}

/// Decode a scheduler object (see [`encode_scheduler`] for the shape).
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

/// Encode a platform as its explicit worker list (the canonical form; the
/// `homogeneous` request shorthand expands to this).
pub fn encode_platform(platform: &Platform) -> Json {
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

/// Encode an error model as `{"kind": "...", "error": x}`.
pub fn encode_error_model(model: &ErrorModel) -> Json {
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

fn decode_fault_action(s: &str) -> Result<FaultAction, ApiError> {
    match s {
        "down" => Ok(FaultAction::Down),
        "up" => Ok(FaultAction::Up),
        "link_drop" => Ok(FaultAction::LinkDrop),
        other => err(format!("unknown fault action '{other}'")),
    }
}

/// Encode a fault model as a tagged object (`kind`: `none` / `plan` /
/// `poisson`).
pub fn encode_fault_model(model: &FaultModel) -> Json {
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

/// Decode a fault model (see [`encode_fault_model`]).
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

/// Encode a recovery policy with all fields explicit.
pub fn encode_recovery(r: &RecoveryConfig) -> Json {
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

/// Encode a speed-revelation model as a tagged object (`kind`: `declared`
/// / `stochastic` / `sandbag` / `adversarial`).
pub fn encode_speed_model(model: &SpeedModel) -> Json {
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

/// Decode a speed-revelation model (see [`encode_speed_model`]).
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

/// Encode an engine configuration with every field explicit.
pub fn encode_sim_config(c: &SimConfig) -> Json {
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

/// Encode a [`RunSpec`] (without any attached prototype — that is derived
/// state, not wire state).
pub fn encode_run_spec(spec: &RunSpec) -> Json {
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
        obj(vec![
            ("platform", encode_platform(&self.platform)),
            ("scheduler", encode_scheduler(&self.kind)),
            ("w_total", Json::Num(self.w_total)),
        ])
        .canonical()
    }
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
        obj(vec![
            ("platform", encode_platform(&self.scenario.platform)),
            ("w_total", Json::Num(self.scenario.w_total)),
            (
                "error_model",
                encode_error_model(&self.scenario.error_model),
            ),
            ("run", encode_run_spec(&self.spec)),
        ])
        .canonical()
    }

    /// The canonicalized *scenario* (platform + workload + error model,
    /// without the run spec) — the engine-shard routing key. Two requests
    /// that run on the same engine state produce the same string, so
    /// affinity routing sends them to the same shard.
    pub fn scenario_key(&self) -> String {
        obj(vec![
            ("platform", encode_platform(&self.scenario.platform)),
            ("w_total", Json::Num(self.scenario.w_total)),
            (
                "error_model",
                encode_error_model(&self.scenario.error_model),
            ),
        ])
        .canonical()
    }

    /// The plan-cache key of this request's (platform, workload,
    /// scheduler) triple — `/simulate` uses it to reuse a prototype planned
    /// by an earlier `/plan`.
    pub fn plan_key(&self) -> String {
        PlanRequest {
            platform: self.scenario.platform.clone(),
            w_total: self.scenario.w_total,
            kind: self.spec.kind,
        }
        .cache_key()
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
