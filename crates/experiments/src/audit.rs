//! Conformance audit: differential + analytic checking of the pinned suite.
//!
//! [`run_audit`] drives every pinned benchmark case
//! ([`pinned_cases`], 16 of them) through the full
//! configuration cross-product
//!
//! > {Off, MetricsOnly, Full} trace mode × {fresh build, prototype clone}
//!
//! with the engine's streaming [`InvariantChecker`](rumr::sim::InvariantChecker)
//! enabled, and checks three independent layers:
//!
//! 1. **Differential**: every configuration must produce *bit-identical*
//!    results to the reference configuration (Off / fresh) at equal seed —
//!    the first divergent metric is reported.
//! 2. **Invariants**: zero streaming invariant findings in every run; under
//!    `Full` the stored trace must also replay clean through
//!    [`Trace::validate`](rumr::sim::Trace::validate).
//! 3. **Analytic oracles**: each planner's closed-form prediction
//!    ([`SchedulerKind::oracle`]) must account for the full workload, and —
//!    on an error-free twin of the scenario — the simulated makespan must
//!    sit within the model's stated tolerance (exactly for UMR/one-round,
//!    never below the bound for MI), with UMR additionally pinned
//!    round-by-round against its dispatch/finish timeline.
//!
//! The `audit` binary wraps this as a CLI and exits non-zero on any
//! finding; CI runs it in quick mode.

use std::fmt;

use rumr::sim::TraceEvent;
use rumr::{
    ErrorModel, FaultModel, Prediction, RecoveryConfig, RunSpec, SchedulerKind, SimConfig,
    SimResult, TraceMode,
};

use crate::json::json_escape;
use crate::snapshot::{pinned_cases, pinned_faults, CaseSpec};

/// Repetitions per configuration in standard mode.
pub const DEFAULT_REPS: u64 = 5;
/// Repetitions per configuration in `--quick` mode (CI smoke).
pub const QUICK_REPS: u64 = 2;

/// What [`run_audit`] runs.
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// Seeds per (case, configuration) pair.
    pub reps: u64,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions { reps: DEFAULT_REPS }
    }
}

impl AuditOptions {
    /// The CI smoke configuration: [`QUICK_REPS`] seeds.
    pub fn quick() -> Self {
        AuditOptions { reps: QUICK_REPS }
    }
}

/// The audit layer a finding came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A configuration produced different results than the reference
    /// configuration at the same seed.
    Divergence,
    /// The streaming invariant checker flagged the run.
    Invariant,
    /// A `Full`-mode run's stored trace did not replay clean.
    TraceViolation,
    /// The planner's oracle does not account for the workload it was given.
    OracleAccounting,
    /// The error-free simulated makespan fell outside the model's stated
    /// tolerance.
    OracleResidual,
    /// An error-free run did not land on the model's per-round timeline.
    OracleTimeline,
    /// A run that should succeed returned an error.
    RunFailure,
}

impl FindingKind {
    /// Stable lowercase tag used in the JSON report.
    pub fn tag(&self) -> &'static str {
        match self {
            FindingKind::Divergence => "divergence",
            FindingKind::Invariant => "invariant",
            FindingKind::TraceViolation => "trace_violation",
            FindingKind::OracleAccounting => "oracle_accounting",
            FindingKind::OracleResidual => "oracle_residual",
            FindingKind::OracleTimeline => "oracle_timeline",
            FindingKind::RunFailure => "run_failure",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One discrepancy surfaced by the audit.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// Pinned case name (`<platform>/<scheduler>/<fault regime>`).
    pub case: String,
    /// Configuration label (`<trace mode>/<fresh|proto>`, or `oracle` for
    /// analytic findings).
    pub config: String,
    /// Seed of the offending run (0 for per-case findings).
    pub seed: u64,
    /// Audit layer that fired.
    pub kind: FindingKind,
    /// What exactly diverged, with values.
    pub detail: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} @ {} seed {}: {}",
            self.kind, self.case, self.config, self.seed, self.detail
        )
    }
}

/// Outcome of a full audit sweep.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Pinned cases audited.
    pub cases: usize,
    /// Configurations per case (trace mode × fresh/proto).
    pub configs_per_case: usize,
    /// Seeds per configuration.
    pub reps: u64,
    /// Total simulation runs executed.
    pub runs: u64,
    /// Every discrepancy found (empty = conforming).
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// True when the audit surfaced nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serialize as a small JSON document (no serde; mirrors the snapshot
    /// module's hand-rolled emission).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cases\": {},\n", self.cases));
        out.push_str(&format!(
            "  \"configs_per_case\": {},\n",
            self.configs_per_case
        ));
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str(&format!("  \"runs\": {},\n", self.runs));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kind\": \"{}\", \"case\": \"{}\", \"config\": \"{}\", \"seed\": {}, \"detail\": \"{}\"}}{}\n",
                f.kind.tag(),
                json_escape(&f.case),
                json_escape(&f.config),
                f.seed,
                json_escape(&f.detail),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The per-run metrics whose bit patterns must be identical across every
/// configuration. `Vec`-free so a reference sweep stays cheap to store.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Signature {
    makespan: u64,
    dispatched: u64,
    completed: u64,
    lost: u64,
    outstanding: u64,
    num_chunks: usize,
    events: u64,
}

impl Signature {
    fn of(r: &SimResult) -> Self {
        Signature {
            makespan: r.makespan.to_bits(),
            dispatched: r.dispatched_work.to_bits(),
            completed: r.completed_work().to_bits(),
            lost: r.lost_work.to_bits(),
            outstanding: r.outstanding_work.to_bits(),
            num_chunks: r.num_chunks,
            events: r.events,
        }
    }

    /// First differing metric against `other`, as `(name, self, other)`
    /// rendered for humans.
    fn first_divergence(&self, other: &Signature) -> Option<String> {
        let f = |bits: u64| f64::from_bits(bits);
        if self.makespan != other.makespan {
            return Some(format!(
                "makespan {} vs reference {}",
                f(self.makespan),
                f(other.makespan)
            ));
        }
        if self.dispatched != other.dispatched {
            return Some(format!(
                "dispatched_work {} vs reference {}",
                f(self.dispatched),
                f(other.dispatched)
            ));
        }
        if self.completed != other.completed {
            return Some(format!(
                "completed_work {} vs reference {}",
                f(self.completed),
                f(other.completed)
            ));
        }
        if self.lost != other.lost {
            return Some(format!(
                "lost_work {} vs reference {}",
                f(self.lost),
                f(other.lost)
            ));
        }
        if self.outstanding != other.outstanding {
            return Some(format!(
                "outstanding_work {} vs reference {}",
                f(self.outstanding),
                f(other.outstanding)
            ));
        }
        if self.num_chunks != other.num_chunks {
            return Some(format!(
                "num_chunks {} vs reference {}",
                self.num_chunks, other.num_chunks
            ));
        }
        if self.events != other.events {
            return Some(format!(
                "events {} vs reference {}",
                self.events, other.events
            ));
        }
        None
    }
}

fn config_for(spec: &CaseSpec, mode: TraceMode) -> SimConfig {
    SimConfig {
        trace_mode: mode,
        faults: if spec.faulty {
            pinned_faults()
        } else {
            FaultModel::None
        },
        audit: true,
        ..SimConfig::default()
    }
}

/// Run one case under one configuration for one seed, fresh or via a
/// prototype clone. Returns `Err(detail)` on a run failure.
fn run_one(spec: &CaseSpec, mode: TraceMode, proto: bool, seed: u64) -> Result<SimResult, String> {
    let config = config_for(spec, mode);
    let mut runner = spec.scenario.runner(config.clone());
    let mut run = RunSpec::new(spec.kind).seed(seed).config(config);
    if spec.faulty {
        run = run.recovering(RecoveryConfig::default());
    }
    if proto {
        let prototype = runner.prototype(&spec.kind).map_err(|e| e.to_string())?;
        run = run.with_prototype(prototype);
    }
    runner.execute(&run).map_err(|e| e.to_string())
}

fn mode_label(mode: TraceMode) -> &'static str {
    match mode {
        TraceMode::Off => "off",
        TraceMode::MetricsOnly => "metrics",
        TraceMode::Full => "full",
    }
}

/// Audit one case: reference sweep, differential cross-product, invariant
/// findings, trace cross-check. Appends findings; returns runs executed.
fn audit_case(spec: &CaseSpec, options: &AuditOptions, findings: &mut Vec<AuditFinding>) -> u64 {
    let mut runs = 0u64;
    // Reference: Off / fresh.
    let mut reference = Vec::with_capacity(options.reps as usize);
    for seed in 0..options.reps {
        match run_one(spec, TraceMode::Off, false, seed) {
            Ok(r) => {
                runs += 1;
                collect_run_findings(spec, "off/fresh", seed, &r, findings);
                reference.push(Some(Signature::of(&r)));
            }
            Err(detail) => {
                findings.push(AuditFinding {
                    case: spec.name.clone(),
                    config: "off/fresh".into(),
                    seed,
                    kind: FindingKind::RunFailure,
                    detail,
                });
                reference.push(None);
            }
        }
    }

    for mode in [TraceMode::Off, TraceMode::MetricsOnly, TraceMode::Full] {
        for proto in [false, true] {
            if mode == TraceMode::Off && !proto {
                continue; // the reference itself
            }
            let config = format!(
                "{}/{}",
                mode_label(mode),
                if proto { "proto" } else { "fresh" }
            );
            for seed in 0..options.reps {
                let r = match run_one(spec, mode, proto, seed) {
                    Ok(r) => r,
                    Err(detail) => {
                        findings.push(AuditFinding {
                            case: spec.name.clone(),
                            config: config.clone(),
                            seed,
                            kind: FindingKind::RunFailure,
                            detail,
                        });
                        continue;
                    }
                };
                runs += 1;
                collect_run_findings(spec, &config, seed, &r, findings);
                if let Some(Some(reference)) = reference.get(seed as usize) {
                    if let Some(detail) = Signature::of(&r).first_divergence(reference) {
                        findings.push(AuditFinding {
                            case: spec.name.clone(),
                            config: config.clone(),
                            seed,
                            kind: FindingKind::Divergence,
                            detail,
                        });
                    }
                }
            }
        }
    }
    runs
}

/// Per-run checks shared by every configuration: streaming invariant
/// findings, and (under `Full`) a clean replay of the stored trace.
fn collect_run_findings(
    spec: &CaseSpec,
    config: &str,
    seed: u64,
    r: &SimResult,
    findings: &mut Vec<AuditFinding>,
) {
    match &r.audit {
        Some(list) => {
            for f in list {
                findings.push(AuditFinding {
                    case: spec.name.clone(),
                    config: config.to_string(),
                    seed,
                    kind: FindingKind::Invariant,
                    detail: f.to_string(),
                });
            }
        }
        None => findings.push(AuditFinding {
            case: spec.name.clone(),
            config: config.to_string(),
            seed,
            kind: FindingKind::Invariant,
            detail: "audit was requested but the engine returned no findings list".into(),
        }),
    }
    if let Some(trace) = &r.trace {
        for v in trace.validate(spec.scenario.platform.num_workers()) {
            findings.push(AuditFinding {
                case: spec.name.clone(),
                config: config.to_string(),
                seed,
                kind: FindingKind::TraceViolation,
                detail: v.to_string(),
            });
        }
    }
}

/// Analytic-oracle checks for one case: work accounting always; makespan
/// residual and (for UMR) the round timeline on an error-free twin.
/// Fault-free cases only — a faulty run's makespan is not the model's.
fn audit_oracle(spec: &CaseSpec, findings: &mut Vec<AuditFinding>) -> u64 {
    let oracle = match spec
        .kind
        .oracle(&spec.scenario.platform, spec.scenario.w_total)
    {
        Ok(Some(o)) => o,
        Ok(None) => return 0,
        Err(e) => {
            findings.push(AuditFinding {
                case: spec.name.clone(),
                config: "oracle".into(),
                seed: 0,
                kind: FindingKind::RunFailure,
                detail: format!("oracle construction failed: {e}"),
            });
            return 0;
        }
    };

    let w = spec.scenario.w_total;
    if (oracle.planned_work() - w).abs() > 1e-6 * w.abs().max(1.0) {
        findings.push(AuditFinding {
            case: spec.name.clone(),
            config: "oracle".into(),
            seed: 0,
            kind: FindingKind::OracleAccounting,
            detail: format!(
                "{} plan accounts for {} of {} workload units",
                oracle.name(),
                oracle.planned_work(),
                w
            ),
        });
    }
    if spec.faulty {
        return 0;
    }

    // Error-free twin: same platform/workload, no prediction error, no
    // faults — the regime the closed forms describe.
    let mut twin = spec.scenario.clone();
    twin.error_model = ErrorModel::None;
    let config = SimConfig {
        trace_mode: TraceMode::Full,
        audit: true,
        ..SimConfig::default()
    };
    let run = RunSpec::new(spec.kind).config(config.clone());
    let result = match twin.runner(config).execute(&run) {
        Ok(r) => r,
        Err(e) => {
            findings.push(AuditFinding {
                case: spec.name.clone(),
                config: "oracle".into(),
                seed: 0,
                kind: FindingKind::RunFailure,
                detail: format!("error-free twin failed: {e}"),
            });
            return 0;
        }
    };

    let prediction = oracle.makespan();
    if !prediction.within(result.makespan) {
        let (residual, tol) = (
            prediction.residual(result.makespan).unwrap_or(f64::NAN),
            prediction.tolerance().unwrap_or(f64::NAN),
        );
        findings.push(AuditFinding {
            case: spec.name.clone(),
            config: "oracle".into(),
            seed: 0,
            kind: FindingKind::OracleResidual,
            detail: format!(
                "{} predicted {:?}, simulated {} (residual {residual:e} > tol {tol:e})",
                oracle.name(),
                prediction,
                result.makespan
            ),
        });
    }

    // UMR's timeline is pinned per round: worker 0's j-th compute end is
    // first_finish[j], the last worker's is last_finish[j]. (Other oracles
    // either publish no timeline here — MI withdraws it when latencies are
    // non-zero — or their timeline semantics differ.)
    if matches!(spec.kind, SchedulerKind::Umr) {
        if let (Some(timeline), Some(trace)) = (oracle.round_timeline(), &result.trace) {
            let n = spec.scenario.platform.num_workers();
            let ends = |worker: usize| -> Vec<f64> {
                trace
                    .events()
                    .iter()
                    .filter_map(|e| match *e {
                        TraceEvent::ComputeEnd {
                            worker: w, time, ..
                        } if w == worker => Some(time),
                        _ => None,
                    })
                    .collect()
            };
            let first = ends(0);
            let last = ends(n - 1);
            let mut check = |label: &str, observed: &[f64], predicted: &dyn Fn(usize) -> f64| {
                if observed.len() != timeline.len() {
                    findings.push(AuditFinding {
                        case: spec.name.clone(),
                        config: "oracle".into(),
                        seed: 0,
                        kind: FindingKind::OracleTimeline,
                        detail: format!(
                            "{label}: {} compute ends vs {} predicted rounds",
                            observed.len(),
                            timeline.len()
                        ),
                    });
                    return;
                }
                for (j, &t) in observed.iter().enumerate() {
                    let p = predicted(j);
                    if (t - p).abs() > 1e-6 * p.abs().max(1.0) {
                        findings.push(AuditFinding {
                            case: spec.name.clone(),
                            config: "oracle".into(),
                            seed: 0,
                            kind: FindingKind::OracleTimeline,
                            detail: format!("{label} round {j}: finished {t} vs predicted {p}"),
                        });
                    }
                }
            };
            check("first worker", &first, &|j| timeline[j].first_finish);
            check("last worker", &last, &|j| timeline[j].last_finish);
        }
    }

    // Internal consistency: an Exact prediction with a timeline must end
    // the timeline exactly at the predicted makespan.
    if let (Some(timeline), Prediction::Exact { makespan, .. }) =
        (oracle.round_timeline(), oracle.makespan())
    {
        if let Some(last) = timeline.last() {
            if (last.last_finish - makespan).abs() > 1e-9 * makespan.abs().max(1.0) {
                findings.push(AuditFinding {
                    case: spec.name.clone(),
                    config: "oracle".into(),
                    seed: 0,
                    kind: FindingKind::OracleTimeline,
                    detail: format!(
                        "timeline ends at {} but the model predicts {makespan}",
                        last.last_finish
                    ),
                });
            }
        }
    }
    1
}

/// Run the full conformance audit over the pinned suite.
pub fn run_audit(options: &AuditOptions) -> AuditReport {
    let cases = pinned_cases();
    let mut findings = Vec::new();
    let mut runs = 0u64;
    for spec in &cases {
        runs += audit_case(spec, options, &mut findings);
        runs += audit_oracle(spec, &mut findings);
    }
    AuditReport {
        cases: cases.len(),
        configs_per_case: 3 * 2,
        reps: options.reps,
        runs,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_divergence_reports_first_metric() {
        let a = Signature {
            makespan: 1.0f64.to_bits(),
            dispatched: 2.0f64.to_bits(),
            completed: 2.0f64.to_bits(),
            lost: 0,
            outstanding: 0,
            num_chunks: 3,
            events: 10,
        };
        assert!(a.first_divergence(&a).is_none());
        let mut b = a;
        b.events = 11;
        assert!(a.first_divergence(&b).unwrap().contains("events"));
        let mut c = a;
        c.makespan = 1.5f64.to_bits();
        c.events = 11;
        // Makespan is checked first.
        assert!(a.first_divergence(&c).unwrap().contains("makespan"));
    }

    #[test]
    fn report_json_roundtrips_the_shape() {
        let report = AuditReport {
            cases: 16,
            configs_per_case: 6,
            reps: 2,
            runs: 100,
            findings: vec![AuditFinding {
                case: "homogeneous/umr/fault-free".into(),
                config: "off/fresh".into(),
                seed: 1,
                kind: FindingKind::Divergence,
                detail: "makespan \"x\" vs y".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"kind\": \"divergence\""));
        assert!(json.contains("makespan \\\"x\\\" vs y"));
        let clean = AuditReport {
            findings: Vec::new(),
            ..report
        };
        assert!(clean.to_json().contains("\"clean\": true"));
    }

    #[test]
    fn single_case_audit_is_clean() {
        // One fault-free pinned case through the full machinery.
        let cases = pinned_cases();
        let spec = cases
            .iter()
            .find(|c| c.name == "homogeneous/umr/fault-free")
            .unwrap();
        let mut findings = Vec::new();
        let runs = audit_case(spec, &AuditOptions { reps: 1 }, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(runs, 1 + 5); // reference + (3 modes × 2 builds − reference)
        audit_oracle(spec, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn faulty_case_audit_is_clean() {
        let cases = pinned_cases();
        let spec = cases
            .iter()
            .find(|c| c.name == "homogeneous/factoring/faulty")
            .unwrap();
        let mut findings = Vec::new();
        audit_case(spec, &AuditOptions { reps: 1 }, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn finding_display_is_informative() {
        let f = AuditFinding {
            case: "c".into(),
            config: "off/fresh".into(),
            seed: 3,
            kind: FindingKind::OracleResidual,
            detail: "d".into(),
        };
        let s = format!("{f}");
        assert!(s.contains("oracle_residual") && s.contains("seed 3"), "{s}");
    }
}
