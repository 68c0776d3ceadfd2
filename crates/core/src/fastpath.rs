//! Analytic fast path: answer eligible runs from the oracle closed forms.
//!
//! RUMR's multi-round analysis gives closed-form makespans, and the
//! oracles of [`SchedulerKind::oracle`] reproduce them to
//! [`dls_sched::oracle::EXACT_REL_TOL`]. When a run is *deterministic and
//! model-conforming* — no prediction errors, no faults, declared speeds,
//! the paper's serial-send transport — an [`Prediction::Exact`] oracle
//! already knows the engine's answer, so the discrete-event simulation is
//! pure overhead. [`FastPath::resolve`] encodes exactly that eligibility
//! gate and returns the analytic answer, or the precise reason the engine
//! must run instead.
//!
//! The service layer routes `/plan` and eligible `/simulate` requests
//! through this resolver and cross-checks a configurable sample of
//! analytic answers against a real engine run (the *sampled DES audit*);
//! [`FastPath::audit_due`] is the deterministic sampling decision, and
//! [`FastPathAnswer::agrees_with`] the comparison, both kept here so the
//! tests pin them without a running server.

use dls_sched::{Oracle, Prediction, RoundTiming};
use dls_sim::ErrorModel;

use crate::kind::{BuildError, SchedulerKind, SchedulerPrototype};
use crate::scenario::{RunSpec, Scenario};

/// Why the analytic fast path declined a run and deferred to the engine.
///
/// Every variant names the first eligibility condition that failed; the
/// service counts it on `/metrics` as
/// `dls_serve_fastpath_miss_total{reason="…"}` (see
/// [`FastPathMiss::label`]) rather than in response bodies (the engine
/// fallback is transparent to clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathMiss {
    /// The scenario applies prediction errors; only the engine knows how
    /// the perturbed run unfolds.
    PredictionErrors,
    /// A fault model is active.
    Faults,
    /// A speed-revelation model is active (realized ≠ declared rates).
    RevealedSpeeds,
    /// A trace-driven cost profile replaces the analytic cost model.
    CostProfile,
    /// Temporally correlated noise is configured.
    TemporalNoise,
    /// The fault-recovery wrapper is requested; its backoff behaviour is
    /// engine-defined even on a fault-free run.
    Recovery,
    /// The transport deviates from the paper's serial-send, input-only
    /// model the closed forms assume (concurrent sends, shared uplink, or
    /// output returns).
    NonDefaultTransport,
    /// The scheduler kind has no oracle at all.
    NoOracle,
    /// The oracle exists but claims only a lower bound, not an exact
    /// makespan (e.g. MI with latencies, RUMR's accounting oracle).
    InexactOracle,
}

impl FastPathMiss {
    /// Every variant, in declaration order (`ALL[m as usize] == m`).
    pub const ALL: [FastPathMiss; 9] = [
        FastPathMiss::PredictionErrors,
        FastPathMiss::Faults,
        FastPathMiss::RevealedSpeeds,
        FastPathMiss::CostProfile,
        FastPathMiss::TemporalNoise,
        FastPathMiss::Recovery,
        FastPathMiss::NonDefaultTransport,
        FastPathMiss::NoOracle,
        FastPathMiss::InexactOracle,
    ];

    /// The variant's snake_case name, as used for metric labels.
    pub fn label(self) -> &'static str {
        match self {
            FastPathMiss::PredictionErrors => "prediction_errors",
            FastPathMiss::Faults => "faults",
            FastPathMiss::RevealedSpeeds => "revealed_speeds",
            FastPathMiss::CostProfile => "cost_profile",
            FastPathMiss::TemporalNoise => "temporal_noise",
            FastPathMiss::Recovery => "recovery",
            FastPathMiss::NonDefaultTransport => "non_default_transport",
            FastPathMiss::NoOracle => "no_oracle",
            FastPathMiss::InexactOracle => "inexact_oracle",
        }
    }
}

impl std::fmt::Display for FastPathMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FastPathMiss::PredictionErrors => "prediction errors active",
            FastPathMiss::Faults => "fault model active",
            FastPathMiss::RevealedSpeeds => "speed revelation active",
            FastPathMiss::CostProfile => "trace-driven cost profile",
            FastPathMiss::TemporalNoise => "temporal noise active",
            FastPathMiss::Recovery => "recovery wrapper requested",
            FastPathMiss::NonDefaultTransport => "non-default transport model",
            FastPathMiss::NoOracle => "scheduler has no oracle",
            FastPathMiss::InexactOracle => "oracle prediction is not exact",
        })
    }
}

/// The resolver's verdict: answer analytically, or run the engine (and
/// why).
#[derive(Debug, Clone)]
pub enum FastPathDecision {
    /// The closed form answers this run.
    Analytic(FastPathAnswer),
    /// The engine must run; the payload is the first failed condition.
    Engine(FastPathMiss),
}

impl FastPathDecision {
    /// The analytic answer, if the fast path took the run.
    pub fn analytic(&self) -> Option<&FastPathAnswer> {
        match self {
            FastPathDecision::Analytic(a) => Some(a),
            FastPathDecision::Engine(_) => None,
        }
    }
}

/// An analytic answer produced without running the engine.
#[derive(Debug, Clone)]
pub struct FastPathAnswer {
    /// The oracle's short planner name (`"UMR"`, `"UMR-het"`, …).
    pub oracle: &'static str,
    /// The exact-makespan claim ([`Prediction::Exact`] by construction).
    pub prediction: Prediction,
    /// Closed-form makespan (the `makespan` of `prediction`).
    pub makespan: f64,
    /// Total workload units the plan accounts for.
    pub planned_work: f64,
    /// Per-round dispatch/finish instants where the model pins them.
    pub rounds: Option<Vec<RoundTiming>>,
}

impl FastPathAnswer {
    /// Does an engine-simulated makespan confirm this answer? True when
    /// the simulated value lies within the oracle's stated relative
    /// tolerance — the sampled-DES-audit acceptance test.
    pub fn agrees_with(&self, simulated_makespan: f64) -> bool {
        self.prediction.within(simulated_makespan)
    }

    /// Relative residual `|simulated − analytic| / analytic` of an engine
    /// cross-check (see [`Prediction::residual`]).
    pub fn residual(&self, simulated_makespan: f64) -> f64 {
        self.prediction
            .residual(simulated_makespan)
            .expect("an Exact prediction always has a residual")
    }
}

/// The analytic fast-path resolver (stateless; all methods are
/// associated functions).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastPath;

impl FastPath {
    /// Check every eligibility condition *except* oracle availability:
    /// `Ok(())` when the run is deterministic and model-conforming, the
    /// first failed condition otherwise. Order is fixed (scenario checks,
    /// then spec checks) so misses are stable across calls.
    pub fn eligibility(scenario: &Scenario, spec: &RunSpec) -> Result<(), FastPathMiss> {
        if scenario.error_model != ErrorModel::None {
            return Err(FastPathMiss::PredictionErrors);
        }
        if scenario.cost_profile.is_some() {
            return Err(FastPathMiss::CostProfile);
        }
        if scenario.temporal_noise.is_some() {
            return Err(FastPathMiss::TemporalNoise);
        }
        if spec.config.faults.is_active() {
            return Err(FastPathMiss::Faults);
        }
        if spec.config.speeds.is_active() {
            return Err(FastPathMiss::RevealedSpeeds);
        }
        if spec.recovery.is_some() {
            return Err(FastPathMiss::Recovery);
        }
        if spec.config.max_concurrent_sends != 1
            || spec.config.uplink_capacity.is_some()
            || spec.config.output_ratio != 0.0
        {
            return Err(FastPathMiss::NonDefaultTransport);
        }
        Ok(())
    }

    /// Resolve a run: the analytic answer when every eligibility condition
    /// holds and the scheduler's oracle makes an exact claim, otherwise
    /// the engine verdict with the first failed condition.
    ///
    /// # Errors
    ///
    /// [`BuildError`] when the inputs are invalid. An ineligible run is
    /// checked only against the uniform [`crate::PlanError`] refusals every
    /// kind shares (no planner runs for a run the engine must take);
    /// planner-specific rejections of such a run surface when the engine
    /// builds the scheduler. An eligible run reports any rejection of its
    /// planner, the same one [`SchedulerKind::build`] would produce.
    pub fn resolve(scenario: &Scenario, spec: &RunSpec) -> Result<FastPathDecision, BuildError> {
        Self::resolve_kind(scenario, spec, spec.kind)
    }

    /// [`FastPath::resolve`] with the scheduler kind given explicitly
    /// (used when the spec is synthesized, e.g. `/plan` requests).
    pub fn resolve_kind(
        scenario: &Scenario,
        spec: &RunSpec,
        kind: SchedulerKind,
    ) -> Result<FastPathDecision, BuildError> {
        Ok(Self::resolve_planned(scenario, spec, kind)?.0)
    }

    /// [`FastPath::resolve_kind`], also handing back the prototype it
    /// solved to decide an eligible run (`None` for an ineligible one,
    /// which solves nothing). A caller that goes on to run the engine
    /// attaches it with [`RunSpec::with_prototype`] instead of solving
    /// again.
    pub fn resolve_planned(
        scenario: &Scenario,
        spec: &RunSpec,
        kind: SchedulerKind,
    ) -> Result<(FastPathDecision, Option<SchedulerPrototype>), BuildError> {
        if let Err(miss) = Self::eligibility(scenario, spec) {
            kind.validate(scenario.w_total)?;
            return Ok((FastPathDecision::Engine(miss), None));
        }
        let prototype = kind.prototype(&scenario.platform, scenario.w_total)?;
        let oracle = prototype.oracle(&scenario.platform, scenario.w_total);
        Ok((Self::decide(oracle.as_deref()), Some(prototype)))
    }

    /// Decide an eligible run from its scheduler's oracle: the analytic
    /// answer when the oracle claims an exact makespan, the engine
    /// otherwise.
    pub fn decide(oracle: Option<&dyn Oracle>) -> FastPathDecision {
        let Some(oracle) = oracle else {
            return FastPathDecision::Engine(FastPathMiss::NoOracle);
        };
        let prediction = oracle.makespan();
        let Prediction::Exact { makespan, .. } = prediction else {
            return FastPathDecision::Engine(FastPathMiss::InexactOracle);
        };
        FastPathDecision::Analytic(FastPathAnswer {
            oracle: oracle.name(),
            prediction,
            makespan,
            planned_work: oracle.planned_work(),
            rounds: oracle.round_timeline(),
        })
    }

    /// Deterministic sampling decision for the DES audit: should the
    /// answer keyed by `key()` be cross-checked at a sampling rate of
    /// `pct` percent? Hashes the key (FNV-1a) so the decision is a pure
    /// function of the request — identical requests are always either
    /// both audited or both not, preserving response determinism — while
    /// distinct requests spread uniformly over the percentage buckets.
    /// `pct >= 100` audits everything, `0` nothing; at those two rates
    /// the decision does not depend on the key, so `key` is not called.
    pub fn audit_due<K: AsRef<str>>(key: impl FnOnce() -> K, pct: u32) -> bool {
        if pct >= 100 {
            return true;
        }
        if pct == 0 {
            return false;
        }
        (fnv1a(key().as_ref().as_bytes()) % 100) < u64::from(pct)
    }
}

/// The 64-bit FNV-1a hash of `bytes`: the audit sample, the service's
/// shard routes and its load generator's ring all hash with it, so a
/// route or a sample depends only on the key's bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sim::{FaultModel, FaultPlan, SimConfig, SpeedModel};

    fn exact_scenario() -> Scenario {
        Scenario::table1(10, 1.5, 0.2, 0.1, 0.0)
    }

    #[test]
    fn umr_resolves_analytically_and_matches_engine() {
        let s = exact_scenario();
        let spec = RunSpec::new(SchedulerKind::Umr);
        let decision = FastPath::resolve(&s, &spec).unwrap();
        let answer = decision.analytic().expect("UMR is exact");
        assert_eq!(answer.oracle, "UMR");
        assert!(answer.rounds.is_some(), "UMR pins its round timeline");
        let engine = s.execute(&spec).unwrap();
        assert!(
            answer.agrees_with(engine.makespan),
            "analytic {} vs engine {} (residual {})",
            answer.makespan,
            engine.makespan,
            answer.residual(engine.makespan)
        );
    }

    #[test]
    fn misses_name_the_first_failed_condition() {
        let spec = RunSpec::new(SchedulerKind::Umr);
        let noisy = Scenario::table1(10, 1.5, 0.2, 0.1, 0.3);
        assert_eq!(
            FastPath::eligibility(&noisy, &spec),
            Err(FastPathMiss::PredictionErrors)
        );

        let s = exact_scenario();
        let faulty = spec
            .clone()
            .faults(FaultModel::Plan(FaultPlan::new().crash(10.0, 1)));
        assert_eq!(
            FastPath::eligibility(&s, &faulty),
            Err(FastPathMiss::Faults)
        );
        matches_miss(&s, &faulty, FastPathMiss::Faults);

        let revealed = spec.clone().speeds(SpeedModel::Adversarial {
            fraction: 0.5,
            slowdown: 2.0,
        });
        matches_miss(&s, &revealed, FastPathMiss::RevealedSpeeds);

        let recovering = spec.clone().recovering(Default::default());
        matches_miss(&s, &recovering, FastPathMiss::Recovery);

        let concurrent = spec.clone().config(SimConfig {
            max_concurrent_sends: 4,
            ..Default::default()
        });
        matches_miss(&s, &concurrent, FastPathMiss::NonDefaultTransport);

        // No oracle at all → engine, even though the run is deterministic.
        let no_oracle = RunSpec::new(SchedulerKind::EqualStatic);
        matches_miss(&s, &no_oracle, FastPathMiss::NoOracle);

        // An oracle that only lower-bounds (MI with latencies) → engine.
        let mi = RunSpec::new(SchedulerKind::Mi { installments: 3 });
        matches_miss(&s, &mi, FastPathMiss::InexactOracle);
    }

    fn matches_miss(s: &Scenario, spec: &RunSpec, want: FastPathMiss) {
        match FastPath::resolve(s, spec).unwrap() {
            FastPathDecision::Engine(miss) => assert_eq!(miss, want),
            FastPathDecision::Analytic(_) => panic!("expected engine verdict {want:?}"),
        }
    }

    #[test]
    fn all_lists_every_miss_in_declaration_order() {
        for (i, miss) in FastPathMiss::ALL.into_iter().enumerate() {
            assert_eq!(miss as usize, i, "{miss:?}");
        }
        let labels: std::collections::BTreeSet<&str> =
            FastPathMiss::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), FastPathMiss::ALL.len(), "labels are distinct");
    }

    #[test]
    fn invalid_workload_fails_identically_on_both_paths() {
        let mut s = exact_scenario();
        s.w_total = -1.0;
        let spec = RunSpec::new(SchedulerKind::Umr);
        assert!(FastPath::resolve(&s, &spec).is_err());
        // Ineligible runs still surface the uniform refusals, not a miss.
        let mut noisy = Scenario::table1(10, 1.5, 0.2, 0.1, 0.3);
        noisy.w_total = -1.0;
        assert!(FastPath::resolve(&noisy, &spec).is_err());
    }

    #[test]
    fn only_eligible_runs_solve_their_planner() {
        let no_installments = RunSpec::new(SchedulerKind::Mi { installments: 0 });
        // Eligible: the planner runs, and its rejection is the error.
        assert!(matches!(
            FastPath::resolve(&exact_scenario(), &no_installments),
            Err(BuildError::Mi(_))
        ));
        // Ineligible: no planner runs, so the engine path reports it.
        let noisy = Scenario::table1(10, 1.5, 0.2, 0.1, 0.3);
        let (decision, prototype) =
            FastPath::resolve_planned(&noisy, &no_installments, no_installments.kind).unwrap();
        assert!(matches!(
            decision,
            FastPathDecision::Engine(FastPathMiss::PredictionErrors)
        ));
        assert!(prototype.is_none());
        // An eligible miss hands back the prototype it solved.
        let mi = RunSpec::new(SchedulerKind::Mi { installments: 3 });
        let (decision, prototype) =
            FastPath::resolve_planned(&exact_scenario(), &mi, mi.kind).unwrap();
        assert!(matches!(
            decision,
            FastPathDecision::Engine(FastPathMiss::InexactOracle)
        ));
        assert!(prototype.is_some());
    }

    #[test]
    fn audit_sampling_is_deterministic_and_bounded() {
        assert!(FastPath::audit_due(|| "anything", 100));
        assert!(FastPath::audit_due(|| "anything", 250));
        assert!(!FastPath::audit_due(|| "anything", 0));
        // The endpoints settle without rendering the key.
        let unrendered = || -> String { panic!("key rendered at a settled rate") };
        assert!(FastPath::audit_due(unrendered, 100));
        assert!(!FastPath::audit_due(unrendered, 0));
        // Deterministic: the same key always lands in the same bucket.
        for key in ["a", "b", "request-body-42"] {
            assert_eq!(
                FastPath::audit_due(|| key, 50),
                FastPath::audit_due(|| key, 50)
            );
        }
        // Monotone in pct: once sampled at p, sampled at every p' > p.
        for i in 0..64 {
            let key = format!("req-{i}");
            let mut prev = false;
            for pct in [1, 10, 25, 50, 75, 99, 100] {
                let now = FastPath::audit_due(|| &key, pct);
                assert!(now || !prev, "sampling must be monotone in pct");
                prev = now;
            }
        }
        // Roughly uniform: at 50% a few thousand keys split near half.
        let hits = (0..4000)
            .filter(|i| FastPath::audit_due(|| format!("key-{i}"), 50))
            .count();
        assert!((1600..=2400).contains(&hits), "50% sampled {hits}/4000");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
