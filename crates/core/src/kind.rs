//! Algorithm selection: a serializable-ish enum naming every scheduler in
//! the suite, with a uniform factory.
//!
//! The experiment harness, examples and benches all pick algorithms through
//! [`SchedulerKind`], so a simulation run is fully described by
//! (platform, workload, error model, kind, seed).

use std::any::Any;
use std::fmt;

use dls_sched::{
    AdaptiveConfig, AdaptiveRumr, EqualSingleRound, Factoring, FactoringOracle, Fsc, Gss, HetRumr,
    HetUmr, HetUmrOracle, MiError, MiOracle, MultiInstallment, OneRound, OneRoundOracle, Oracle,
    Rumr, RumrConfig, RumrOracle, Tss, Umr, UmrError, UmrOracle, UnitSelfScheduling,
};
use dls_sim::{Platform, Scheduler};

/// Every scheduling algorithm available in the suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// RUMR (the paper's contribution) with the given configuration.
    Rumr(RumrConfig),
    /// Plain UMR (phase-1 algorithm alone).
    Umr,
    /// Multi-installment with `x` installments (MI-x).
    Mi {
        /// Number of installments `x`.
        installments: usize,
    },
    /// Factoring (Hummel '92), error-unaware minimum chunk bound.
    Factoring,
    /// Fixed-size chunking with the given error estimate for its chunk-size
    /// formula.
    Fsc {
        /// Estimated error magnitude (σ of unit execution time).
        error: f64,
    },
    /// One round of equal static chunks.
    EqualStatic,
    /// Unit-granularity self-scheduling.
    SelfScheduling {
        /// Chunk size in workload units.
        unit: f64,
    },
    /// Heterogeneous UMR with resource selection.
    HetUmr,
    /// Adaptive RUMR: estimates the error online (no a-priori estimate) and
    /// switches to its factoring phase when the measurements warrant it —
    /// the paper's §6 future-work design.
    AdaptiveRumr,
    /// Heterogeneous RUMR: the two-phase robust scheduler on heterogeneous
    /// platforms (speed-weighted phase-2 factoring).
    HetRumr(RumrConfig),
    /// Latency-aware optimal single round (Rosenberg '01 style).
    OneRound,
    /// Guided self-scheduling (Polychronopoulos & Kuck '87).
    Gss,
    /// Trapezoid self-scheduling (Tzen & Ni '93).
    Tss,
}

impl SchedulerKind {
    /// The paper's original RUMR with a known error magnitude.
    pub fn rumr_known_error(error: f64) -> Self {
        SchedulerKind::Rumr(RumrConfig::with_known_error(error))
    }

    /// The fixed-split ablation variant RUMR_p (Fig. 6).
    pub fn rumr_fixed_fraction(p: f64, error: Option<f64>) -> Self {
        SchedulerKind::Rumr(RumrConfig::with_fixed_fraction(p, error))
    }

    /// The in-order phase-1 ablation variant (Fig. 7).
    pub fn rumr_plain_phase1(error: f64) -> Self {
        let mut cfg = RumrConfig::with_known_error(error);
        cfg.out_of_order = false;
        SchedulerKind::Rumr(cfg)
    }

    /// Display label used in tables and reports.
    pub fn label(&self) -> String {
        match self {
            SchedulerKind::Rumr(cfg) => {
                let mut s = String::from("RUMR");
                if let Some(p) = cfg.phase1_fraction {
                    s.push_str(&format!("_{:.0}", p * 100.0));
                }
                if !cfg.out_of_order {
                    s.push_str("-plain");
                }
                s
            }
            SchedulerKind::Umr => "UMR".into(),
            SchedulerKind::Mi { installments } => format!("MI-{installments}"),
            SchedulerKind::Factoring => "Factoring".into(),
            SchedulerKind::Fsc { .. } => "FSC".into(),
            SchedulerKind::EqualStatic => "EqualStatic".into(),
            SchedulerKind::SelfScheduling { .. } => "SelfSched".into(),
            SchedulerKind::HetUmr => "UMR-het".into(),
            SchedulerKind::AdaptiveRumr => "RUMR-adaptive".into(),
            SchedulerKind::HetRumr(_) => "RUMR-het".into(),
            SchedulerKind::OneRound => "OneRound".into(),
            SchedulerKind::Gss => "GSS".into(),
            SchedulerKind::Tss => "TSS".into(),
        }
    }

    /// Instantiate the scheduler for a platform and workload.
    ///
    /// # Errors
    ///
    /// [`BuildError`] when the algorithm's planner rejects the inputs (e.g.
    /// homogeneous-only algorithms on a heterogeneous platform).
    pub fn build(
        &self,
        platform: &Platform,
        w_total: f64,
    ) -> Result<Box<dyn Scheduler>, BuildError> {
        Ok(self.prototype(platform, w_total)?.into_inner())
    }

    /// Uniform upfront refusal of inputs no planner can accept. Some
    /// planners historically `panic!`ed on these (the pull-based ones
    /// assert rather than solve), so without this gate the failure mode
    /// depended on the kind; now every kind refuses the same way, with a
    /// typed [`PlanError`].
    pub(crate) fn validate(&self, w_total: f64) -> Result<(), PlanError> {
        if !w_total.is_finite() || w_total <= 0.0 {
            return Err(PlanError::InvalidWorkload { w_total });
        }
        match *self {
            SchedulerKind::SelfScheduling { unit } if !unit.is_finite() || unit <= 0.0 => {
                Err(PlanError::InvalidParameter {
                    param: "unit",
                    value: unit,
                })
            }
            SchedulerKind::Fsc { error } if !error.is_finite() || error < 0.0 => {
                Err(PlanError::InvalidParameter {
                    param: "error",
                    value: error,
                })
            }
            SchedulerKind::Rumr(c) | SchedulerKind::HetRumr(c)
                if !(c.factor.is_finite() && c.factor > 1.0) =>
            {
                Err(PlanError::InvalidParameter {
                    param: "factor",
                    value: c.factor,
                })
            }
            _ => Ok(()),
        }
    }

    /// Build a reusable [`SchedulerPrototype`]: the planner runs once, and
    /// [`SchedulerPrototype::fresh`] stamps out initial-state schedulers by
    /// cloning. For precalculated algorithms (UMR, RUMR, MI, heterogeneous
    /// variants) this removes the per-repetition solve from repetition
    /// loops; the clones behave bit-identically to [`SchedulerKind::build`].
    ///
    /// # Errors
    ///
    /// Same as [`SchedulerKind::build`].
    pub fn prototype(
        &self,
        platform: &Platform,
        w_total: f64,
    ) -> Result<SchedulerPrototype, BuildError> {
        self.validate(w_total)?;
        let proto: Box<dyn CloneScheduler> = match *self {
            SchedulerKind::Rumr(cfg) => Box::new(Rumr::new(platform, w_total, cfg)?),
            SchedulerKind::Umr => Box::new(Umr::new(platform, w_total)?),
            SchedulerKind::Mi { installments } => {
                Box::new(MultiInstallment::new(platform, w_total, installments)?)
            }
            SchedulerKind::Factoring => Box::new(Factoring::new(platform, w_total)),
            SchedulerKind::Fsc { error } => Box::new(Fsc::new(platform, w_total, error)),
            SchedulerKind::EqualStatic => Box::new(EqualSingleRound::new(platform, w_total)),
            SchedulerKind::SelfScheduling { unit } => {
                Box::new(UnitSelfScheduling::with_unit(w_total, unit))
            }
            SchedulerKind::HetUmr => Box::new(HetUmr::new(platform, w_total)?),
            SchedulerKind::AdaptiveRumr => Box::new(AdaptiveRumr::new(
                platform,
                w_total,
                AdaptiveConfig::default(),
            )?),
            SchedulerKind::HetRumr(cfg) => Box::new(HetRumr::new(platform, w_total, cfg)?),
            SchedulerKind::OneRound => Box::new(OneRound::new(platform, w_total)?),
            SchedulerKind::Gss => Box::new(Gss::new(platform, w_total)),
            SchedulerKind::Tss => Box::new(Tss::new(platform, w_total)),
        };
        Ok(SchedulerPrototype { proto })
    }

    /// Build the analytic [`Oracle`] for this algorithm on the given
    /// platform and workload: solve the planner once
    /// ([`SchedulerKind::prototype`]) and derive the oracle from it
    /// ([`SchedulerPrototype::oracle`]), so oracle and scheduler agree by
    /// construction.
    ///
    /// Returns `Ok(None)` for algorithms without a checkable closed form
    /// (FSC, the equal/self-scheduling baselines, adaptive and
    /// heterogeneous RUMR, GSS, TSS).
    ///
    /// # Errors
    ///
    /// [`BuildError`] when the planner rejects the inputs, exactly as
    /// [`SchedulerKind::build`] would.
    pub fn oracle(
        &self,
        platform: &Platform,
        w_total: f64,
    ) -> Result<Option<Box<dyn Oracle>>, BuildError> {
        Ok(self.prototype(platform, w_total)?.oracle(platform, w_total))
    }
}

/// Object-safe cloning bridge: lets a boxed prototype produce fresh
/// `Box<dyn Scheduler>` copies without exposing `Clone` on the public
/// [`Scheduler`] trait.
trait CloneScheduler: Scheduler + Send + Sync {
    fn clone_scheduler(&self) -> Box<dyn Scheduler>;
    fn clone_prototype(&self) -> Box<dyn CloneScheduler>;
    fn into_scheduler(self: Box<Self>) -> Box<dyn Scheduler>;
    fn as_any(&self) -> &dyn Any;
}

impl<T: Scheduler + Clone + Send + Sync + 'static> CloneScheduler for T {
    fn clone_scheduler(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    fn clone_prototype(&self) -> Box<dyn CloneScheduler> {
        Box::new(self.clone())
    }

    fn into_scheduler(self: Box<Self>) -> Box<dyn Scheduler> {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A pre-planned scheduler in its initial state. Created by
/// [`SchedulerKind::prototype`]; every [`SchedulerPrototype::fresh`] call
/// clones it, so the (possibly expensive) planning work is paid once per
/// (platform, workload, kind) instead of once per run.
pub struct SchedulerPrototype {
    proto: Box<dyn CloneScheduler>,
}

impl SchedulerPrototype {
    /// A fresh scheduler in the prototype's initial state.
    pub fn fresh(&self) -> Box<dyn Scheduler> {
        self.proto.clone_scheduler()
    }

    /// Consume the prototype, yielding its scheduler directly (no clone).
    pub fn into_inner(self) -> Box<dyn Scheduler> {
        self.proto.into_scheduler()
    }

    /// The analytic [`Oracle`] of the plan this prototype already solved,
    /// for the `platform` and `w_total` it was planned on: no planner runs
    /// again. `None` for algorithms without a checkable closed form (see
    /// [`SchedulerKind::oracle`]).
    pub fn oracle(&self, platform: &Platform, w_total: f64) -> Option<Box<dyn Oracle>> {
        let planner = self.proto.as_any();
        if let Some(umr) = planner.downcast_ref::<Umr>() {
            return Some(Box::new(UmrOracle::new(umr.schedule().clone())));
        }
        if let Some(rumr) = planner.downcast_ref::<Rumr>() {
            return Some(Box::new(RumrOracle::new(rumr, platform)));
        }
        if let Some(mi) = planner.downcast_ref::<MultiInstallment>() {
            return Some(Box::new(MiOracle::new(mi.schedule().clone(), platform)));
        }
        if planner.is::<Factoring>() {
            return Some(Box::new(FactoringOracle::from_platform(platform, w_total)));
        }
        if let Some(het) = planner.downcast_ref::<HetUmr>() {
            return Some(Box::new(HetUmrOracle::new(het.schedule().clone())));
        }
        if let Some(one) = planner.downcast_ref::<OneRound>() {
            return Some(Box::new(OneRoundOracle::new(one.schedule().clone())));
        }
        None
    }
}

impl Clone for SchedulerPrototype {
    fn clone(&self) -> Self {
        SchedulerPrototype {
            proto: self.proto.clone_prototype(),
        }
    }
}

impl fmt::Debug for SchedulerPrototype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchedulerPrototype({})", self.proto.name())
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A typed refusal shared by every scheduler kind: the inputs are invalid
/// regardless of which planner runs. Historically some pull-based planners
/// `panic!`ed on these while the solver-based ones returned errors; the
/// uniform upfront check makes refusal the contract for all kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// The total workload is non-finite or non-positive.
    InvalidWorkload {
        /// The offending workload.
        w_total: f64,
    },
    /// A kind-specific numeric parameter is out of range.
    InvalidParameter {
        /// Name of the offending parameter (e.g. `"unit"`).
        param: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InvalidWorkload { w_total } => {
                write!(f, "workload {w_total} must be finite and positive")
            }
            PlanError::InvalidParameter { param, value } => {
                write!(f, "parameter {param} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A scheduler could not be constructed for the given inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Error from the UMR/RUMR planners.
    Umr(UmrError),
    /// Error from the multi-installment planner.
    Mi(MiError),
    /// Uniform upfront refusal (invalid workload or parameter), before
    /// any planner runs.
    Plan(PlanError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Umr(e) => write!(f, "UMR planner: {e}"),
            BuildError::Mi(e) => write!(f, "MI planner: {e}"),
            BuildError::Plan(e) => write!(f, "invalid plan inputs: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Umr(e) => Some(e),
            BuildError::Mi(e) => Some(e),
            BuildError::Plan(e) => Some(e),
        }
    }
}

impl From<UmrError> for BuildError {
    fn from(e: UmrError) -> Self {
        BuildError::Umr(e)
    }
}

impl From<MiError> for BuildError {
    fn from(e: MiError) -> Self {
        BuildError::Mi(e)
    }
}

impl From<PlanError> for BuildError {
    fn from(e: PlanError) -> Self {
        BuildError::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sim::HomogeneousParams;

    fn platform() -> Platform {
        HomogeneousParams::table1(8, 1.5, 0.2, 0.2).build().unwrap()
    }

    #[test]
    fn every_kind_builds_on_table1_platform() {
        let p = platform();
        let kinds = [
            SchedulerKind::rumr_known_error(0.3),
            SchedulerKind::Umr,
            SchedulerKind::Mi { installments: 3 },
            SchedulerKind::Factoring,
            SchedulerKind::Fsc { error: 0.3 },
            SchedulerKind::EqualStatic,
            SchedulerKind::SelfScheduling { unit: 10.0 },
            SchedulerKind::HetUmr,
            SchedulerKind::AdaptiveRumr,
            SchedulerKind::HetRumr(RumrConfig::with_known_error(0.3)),
            SchedulerKind::OneRound,
            SchedulerKind::Gss,
            SchedulerKind::Tss,
        ];
        for kind in kinds {
            let s = kind
                .build(&p, 1000.0)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SchedulerKind::Umr.label(), "UMR");
        assert_eq!(SchedulerKind::Mi { installments: 2 }.label(), "MI-2");
        assert_eq!(SchedulerKind::rumr_known_error(0.3).label(), "RUMR");
        assert_eq!(
            SchedulerKind::rumr_fixed_fraction(0.8, None).label(),
            "RUMR_80"
        );
        assert_eq!(SchedulerKind::rumr_plain_phase1(0.2).label(), "RUMR-plain");
        assert_eq!(format!("{}", SchedulerKind::Factoring), "Factoring");
    }

    #[test]
    fn oracles_agree_with_their_planners() {
        let p = platform();
        // Closed-form kinds: oracle exists and accounts for the workload.
        let closed = [
            SchedulerKind::Umr,
            SchedulerKind::rumr_known_error(0.3),
            SchedulerKind::Mi { installments: 3 },
            SchedulerKind::Factoring,
            SchedulerKind::HetUmr,
            SchedulerKind::OneRound,
        ];
        for kind in closed {
            let oracle = kind
                .oracle(&p, 1000.0)
                .unwrap_or_else(|e| panic!("{kind}: {e}"))
                .unwrap_or_else(|| panic!("{kind}: expected an oracle"));
            assert!(
                (oracle.planned_work() - 1000.0).abs() < 1e-6 * 1000.0,
                "{kind}: planned {} vs 1000",
                oracle.planned_work()
            );
        }
        // Dynamic kinds: no oracle, but no error either.
        for kind in [
            SchedulerKind::Fsc { error: 0.3 },
            SchedulerKind::Gss,
            SchedulerKind::Tss,
            SchedulerKind::AdaptiveRumr,
        ] {
            assert!(kind.oracle(&p, 1000.0).unwrap().is_none(), "{kind}");
        }
        // Planner failures surface as BuildError, same as build().
        assert!(SchedulerKind::Umr.oracle(&p, -1.0).is_err());
    }

    #[test]
    fn build_errors_propagate() {
        let p = platform();
        // Invalid workloads are refused uniformly, before any planner
        // runs, for every kind.
        let e = match SchedulerKind::Umr.build(&p, -1.0) {
            Err(e) => e,
            Ok(_) => panic!("expected a build error"),
        };
        assert!(matches!(
            e,
            BuildError::Plan(PlanError::InvalidWorkload { .. })
        ));
        assert!(!format!("{e}").is_empty());

        let e = match (SchedulerKind::Mi { installments: 0 }).build(&p, 100.0) {
            Err(e) => e,
            Ok(_) => panic!("expected a build error"),
        };
        assert!(matches!(e, BuildError::Mi(MiError::ZeroInstallments)));
    }

    #[test]
    fn invalid_parameters_are_refused_not_panicked() {
        let p = platform();
        let e = match (SchedulerKind::SelfScheduling { unit: 0.0 }).build(&p, 100.0) {
            Err(e) => e,
            Ok(_) => panic!("expected a build error"),
        };
        assert!(matches!(
            e,
            BuildError::Plan(PlanError::InvalidParameter { param: "unit", .. })
        ));
        let e = match (SchedulerKind::Fsc { error: f64::NAN }).build(&p, 100.0) {
            Err(e) => e,
            Ok(_) => panic!("expected a build error"),
        };
        assert!(matches!(
            e,
            BuildError::Plan(PlanError::InvalidParameter { param: "error", .. })
        ));
        let slow = RumrConfig {
            factor: 0.5,
            ..RumrConfig::default()
        };
        for kind in [SchedulerKind::Rumr(slow), SchedulerKind::HetRumr(slow)] {
            let Err(e) = kind.build(&p, 100.0) else {
                panic!("expected a build error");
            };
            assert!(matches!(
                e,
                BuildError::Plan(PlanError::InvalidParameter {
                    param: "factor",
                    ..
                })
            ));
        }
        // Oracles share the same gate.
        assert!(SchedulerKind::Factoring.oracle(&p, f64::INFINITY).is_err());
    }
}
