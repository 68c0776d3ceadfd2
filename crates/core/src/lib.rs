//! # rumr — Robust scheduling for divisible workloads
//!
//! A production-quality Rust implementation of **RUMR** (Robust Uniform
//! Multi-Round, Yang & Casanova, HPDC 2003), together with every algorithm
//! and substrate its evaluation depends on:
//!
//! * a discrete-event master–worker platform simulator with the paper's
//!   latency model and prediction-error injection ([`dls_sim`], re-exported
//!   as [`sim`]);
//! * UMR, RUMR, multi-installment (MI-x), Factoring, FSC and baseline
//!   schedulers ([`dls_sched`], re-exported as [`sched`]);
//! * a uniform experiment API: [`Scenario`] × [`SchedulerKind`] × seed.
//!
//! # Quickstart
//!
//! ```
//! use rumr::{RunSpec, Scenario, SchedulerKind};
//!
//! // 20 workers, B = 1.8·N, cLat = 0.3 s, nLat = 0.1 s, 25 % prediction error.
//! let scenario = Scenario::table1(20, 1.8, 0.3, 0.1, 0.25);
//!
//! let rumr = scenario
//!     .execute(&RunSpec::new(SchedulerKind::rumr_known_error(0.25)).seed(42))
//!     .unwrap();
//! let umr = scenario.execute(&RunSpec::new(SchedulerKind::Umr).seed(42)).unwrap();
//!
//! println!("RUMR: {:.2} s, UMR: {:.2} s", rumr.makespan, umr.makespan);
//! assert!(rumr.makespan > 0.0 && umr.makespan > 0.0);
//! ```
//!
//! Deterministic, model-conforming runs of schedulers with an exact
//! analytic oracle can skip the simulation entirely — see
//! [`FastPath`]:
//!
//! ```
//! use rumr::{FastPath, RunSpec, Scenario, SchedulerKind};
//!
//! let scenario = Scenario::table1(20, 1.8, 0.3, 0.1, 0.0); // error-free
//! let spec = RunSpec::new(SchedulerKind::Umr);
//! let decision = FastPath::resolve(&scenario, &spec).unwrap();
//! let answer = decision.analytic().expect("UMR's oracle is exact");
//! let engine = scenario.execute(&spec).unwrap();
//! assert!(answer.agrees_with(engine.makespan));
//! ```
//!
//! # Picking an algorithm
//!
//! * Predictions reliable (`error ≈ 0`): [`SchedulerKind::Umr`] — optimal
//!   multi-round overlap, automatically chosen round count.
//! * Predictions noisy, magnitude known: `SchedulerKind::rumr_known_error`
//!   — UMR's overlap for the bulk of the workload, factoring for the tail.
//! * Magnitude unknown: `SchedulerKind::Rumr(RumrConfig::default())` — the
//!   80/20 split the paper's §5.2.1 recommends.
//! * No predictions at all: [`SchedulerKind::Factoring`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fastpath;
pub mod kind;
pub mod multirun;
pub mod scenario;

pub use fastpath::{fnv1a, FastPath, FastPathAnswer, FastPathDecision, FastPathMiss};
pub use kind::{BuildError, PlanError, SchedulerKind, SchedulerPrototype};
pub use multirun::{MultiJob, MultiRunResult, MultiRunSpec};
pub use scenario::{Clairvoyant, RobustnessReport, RunError, RunSpec, Scenario, ScenarioRunner};

pub use dls_sched as sched;
pub use dls_sched::{
    MultiLoadScheduler, MultiPolicy, Oracle, Prediction, Recovering, RecoveryConfig, RoundTiming,
    RumrConfig, UmrInputs, UmrSchedule,
};
pub use dls_sim as sim;
pub use dls_sim::{
    ErrorModel, EventCounts, FairnessSummary, FaultModel, FaultPlan, HomogeneousParams, JobMetrics,
    JobSet, JobSetError, JobSpec, MetricsSummary, Platform, PlatformError, PoissonFaults,
    RealizedSpeeds, RepColumns, SimConfig, SimResult, SpeedModel, TraceMetrics, TraceMode,
    WorkerSpec,
};
