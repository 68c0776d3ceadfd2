//! Scenario definition and simulation entry points.
//!
//! A [`Scenario`] bundles everything that defines one experimental setting —
//! platform, workload, and error model — so a single run is fully determined
//! by (scenario, algorithm, seed). This is the API the experiment harness,
//! the examples and downstream users drive.
//!
//! All execution flows through one unified request type, [`RunSpec`]: build
//! a spec once (scheduler kind, seed, engine configuration, optional fault
//! recovery, optional pre-planned prototype) and hand it to
//! [`Scenario::execute`] for a one-shot run, [`ScenarioRunner::execute`]
//! for allocation-free repetition loops, or
//! [`ScenarioRunner::execute_batch`] to run a whole repetition batch
//! through one engine pass into reused [`RepColumns`] buffers.

use dls_sched::recovery::{Recovering, RecoveryConfig};
use dls_sim::{
    simulate, CostProfile, Engine, ErrorInjector, ErrorModel, FaultModel, Platform, RepColumns,
    Scheduler, SimConfig, SimError, SimResult, SpeedModel, TraceMode, WorkerSpec,
};

use crate::kind::{BuildError, SchedulerKind, SchedulerPrototype};

/// A complete, self-contained description of what to run: which scheduler,
/// under which engine configuration, from which seed, for how many
/// repetitions, with or without fault recovery.
///
/// Built fluently:
///
/// ```
/// use rumr::{RunSpec, Scenario, SchedulerKind};
/// use rumr::sim::TraceMode;
///
/// let scenario = Scenario::table1(10, 1.5, 0.2, 0.2, 0.3);
/// let spec = RunSpec::new(SchedulerKind::rumr_known_error(0.3))
///     .seed(42)
///     .trace_mode(TraceMode::MetricsOnly);
/// let result = scenario.execute(&spec).unwrap();
/// assert!(result.makespan > 0.0);
/// ```
///
/// A spec with a [`SchedulerPrototype`] attached
/// ([`RunSpec::with_prototype`]) stamps out pre-planned schedulers instead
/// of re-running the planner per execution; results are bit-identical
/// either way. Equality ([`PartialEq`]) deliberately ignores the prototype:
/// it is derived planning state for `kind` on some platform, not part of
/// the request's identity.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Scheduling algorithm to run.
    pub kind: SchedulerKind,
    /// Base RNG seed; repetition `i` runs with `seed + i`.
    pub seed: u64,
    /// Number of seeded repetitions for [`Scenario::execute_mean`]
    /// (single-run entry points use only `seed`). Must be ≥ 1.
    pub reps: u64,
    /// Engine configuration (trace mode, fault model, speed model, …).
    pub config: SimConfig,
    /// When set, the scheduler is wrapped in the fault-recovery layer
    /// ([`Recovering`]) with this policy.
    pub recovery: Option<RecoveryConfig>,
    /// Optional pre-planned scheduler (see [`SchedulerKind::prototype`]):
    /// executions clone it instead of re-running the planner.
    pub prototype: Option<SchedulerPrototype>,
}

impl RunSpec {
    /// A spec for `kind` with seed 0, one repetition, the default engine
    /// configuration, no recovery and no prototype.
    pub fn new(kind: SchedulerKind) -> Self {
        RunSpec {
            kind,
            seed: 0,
            reps: 1,
            config: SimConfig::default(),
            recovery: None,
            prototype: None,
        }
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the repetition count (seeds `seed..seed + reps`).
    ///
    /// # Panics
    ///
    /// Panics if `reps == 0`.
    pub fn reps(mut self, reps: u64) -> Self {
        assert!(reps > 0, "need at least one repetition");
        self.reps = reps;
        self
    }

    /// Replace the whole engine configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the observability level of the run.
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.config.trace_mode = mode;
        self
    }

    /// Set the runaway-scheduler event limit.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.config.max_events = max_events;
        self
    }

    /// Set the fault model.
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.config.faults = faults;
        self
    }

    /// Set the declared-vs-realized speed model: the engine executes at
    /// the realized rates while the scheduler keeps planning on the
    /// declared platform. [`SpeedModel::Declared`] (the default) is a
    /// strict no-op.
    pub fn speeds(mut self, speeds: SpeedModel) -> Self {
        self.config.speeds = speeds;
        self
    }

    /// Wrap the scheduler in the fault-recovery layer with this policy.
    pub fn recovering(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Attach a pre-planned prototype; executions clone it instead of
    /// re-running the planner. The prototype must have been planned for
    /// the same `kind` and the platform/workload the spec will run on.
    pub fn with_prototype(mut self, prototype: SchedulerPrototype) -> Self {
        self.prototype = Some(prototype);
        self
    }

    /// The repetition seeds, `seed..seed + reps`.
    pub fn seeds(&self) -> std::ops::Range<u64> {
        self.seed..self.seed + self.reps
    }

    /// A fresh scheduler instance for this spec: a clone of the attached
    /// prototype when present, otherwise a new build of `kind`.
    pub fn instantiate(
        &self,
        platform: &Platform,
        w_total: f64,
    ) -> Result<Box<dyn Scheduler>, BuildError> {
        match &self.prototype {
            Some(proto) => Ok(proto.fresh()),
            None => self.kind.build(platform, w_total),
        }
    }
}

impl PartialEq for RunSpec {
    /// Request identity: everything except the (derived) prototype.
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.seed == other.seed
            && self.reps == other.reps
            && self.config == other.config
            && self.recovery == other.recovery
    }
}

/// How much a run lost to planning on declared rather than realized rates
/// (speed-robust scheduling's price of non-clairvoyance).
///
/// Produced by [`Clairvoyant::report`]. The *clairvoyant* reference is
/// the better of (a) a twin run whose planner saw the realized platform
/// and (b) the realized run itself — the realized execution is one
/// schedule a clairvoyant planner could have emitted, so taking the min
/// makes `ratio ≥ 1` hold by construction (up to float noise) even when
/// the replanning twin happens to do worse.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Makespan of the run that planned on declared rates but executed at
    /// realized ones.
    pub realized_makespan: f64,
    /// Best clairvoyant twin makespan (same seed, planner fed the
    /// realized platform): the minimum over the same-kind twin and a
    /// heterogeneity-aware [`SchedulerKind::HetUmr`] twin, skipping twins
    /// that cannot be built on the realized platform (e.g.
    /// homogeneous-only UMR after a heterogeneous revelation). `None`
    /// when no twin builds at all.
    pub replanned_makespan: Option<f64>,
    /// The clairvoyant reference: `min(replanned, realized)`.
    pub clairvoyant_makespan: f64,
    /// Robustness ratio `realized / clairvoyant` (≥ 1).
    pub ratio: f64,
    /// Analytic makespan lower bound of the *realized* platform
    /// ([`Platform::makespan_lower_bound`]): no error-free schedule,
    /// clairvoyant or not, can beat it. A noisy run can land below it
    /// when prediction errors happen to speed chunks up.
    pub analytic_lower_bound: f64,
}

/// The clairvoyant twins of a run under revealed speeds, planned once on
/// the realized platform (see [`Scenario::clairvoyant`]).
#[derive(Debug, Clone)]
pub struct Clairvoyant {
    /// The scenario with the realized platform in place of the declared
    /// one.
    scenario: Scenario,
    /// The twins that built, each with its solved prototype attached.
    twins: Vec<RunSpec>,
    /// The twins' engine configuration: the spec's, with declared speeds.
    config: SimConfig,
    /// [`RobustnessReport::analytic_lower_bound`].
    analytic_lower_bound: f64,
}

impl Clairvoyant {
    /// The robustness report of the repetition at `seed`, whose run on
    /// declared-rate plans took `realized_makespan`.
    ///
    /// The clairvoyant reference is the minimum of both twins (run at the
    /// same seed) and `realized_makespan`: the realized run is itself
    /// clairvoyant-achievable, which keeps the ratio ≥ 1 by construction.
    /// A twin whose run fails is skipped.
    pub fn report(&self, seed: u64, realized_makespan: f64) -> RobustnessReport {
        let mut runner = self.scenario.runner(self.config.clone());
        let replanned_makespan = self
            .twins
            .iter()
            .filter_map(|t| runner.execute_at(t, seed).ok())
            .map(|r| r.makespan)
            .fold(None, |best: Option<f64>, m| {
                Some(best.map_or(m, |b| b.min(m)))
            });
        let clairvoyant_makespan = match replanned_makespan {
            Some(m) => m.min(realized_makespan),
            None => realized_makespan,
        };
        let ratio = if clairvoyant_makespan > 0.0 {
            realized_makespan / clairvoyant_makespan
        } else {
            1.0
        };
        RobustnessReport {
            realized_makespan,
            replanned_makespan,
            clairvoyant_makespan,
            ratio,
            analytic_lower_bound: self.analytic_lower_bound,
        }
    }
}

/// One experimental setting: platform + workload + error model.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The computing platform.
    pub platform: Platform,
    /// Total divisible workload, in units.
    pub w_total: f64,
    /// Prediction-error model applied during execution.
    pub error_model: ErrorModel,
    /// Optional trace-driven cost profile: computation times are scaled by
    /// the actual per-unit costs of the chunk's range (§6's "traces from
    /// real applications"), with `error_model` acting as platform noise on
    /// top. `None` uses the pure distribution model of the paper's
    /// evaluation.
    pub cost_profile: Option<CostProfile>,
    /// Optional temporally correlated per-worker load noise (tests the
    /// paper's §4.1 stationarity assumption). `None` keeps errors i.i.d.
    pub temporal_noise: Option<dls_sim::TemporalNoise>,
}

impl Scenario {
    /// A scenario on the paper's Table 1 homogeneous grid: `N = n` workers,
    /// `S = 1`, `B = ratio·n`, `W = 1000`, `tLat = 0`, truncated-normal
    /// errors of the given magnitude.
    pub fn table1(n: usize, ratio: f64, comp_latency: f64, net_latency: f64, error: f64) -> Self {
        let platform = dls_sim::HomogeneousParams::table1(n, ratio, comp_latency, net_latency)
            .build()
            .expect("Table 1 parameters are valid");
        Scenario {
            platform,
            w_total: 1000.0,
            error_model: if error > 0.0 {
                ErrorModel::TruncatedNormal { error }
            } else {
                ErrorModel::None
            },
            cost_profile: None,
            temporal_noise: None,
        }
    }

    /// A pinned heterogeneous star platform: worker speeds, link rates and
    /// latencies vary deterministically with the worker index (no RNG), so
    /// runs on it are bit-for-bit reproducible. Used by the benchmark
    /// snapshot suite and the golden-value regression tests.
    pub fn heterogeneous_demo(n: usize, error: f64) -> Self {
        assert!(n >= 1, "need at least one worker");
        let workers = (0..n)
            .map(|i| {
                let f = i as f64 / n as f64;
                WorkerSpec {
                    speed: 0.6 + 1.2 * f,
                    bandwidth: 1.5 * n as f64 * (0.5 + f),
                    comp_latency: 0.1 + 0.2 * f,
                    net_latency: 0.1,
                    transfer_latency: 0.0,
                }
            })
            .collect();
        let platform = Platform::new(workers).expect("demo platform is valid");
        Scenario {
            platform,
            w_total: 1000.0,
            error_model: if error > 0.0 {
                ErrorModel::TruncatedNormal { error }
            } else {
                ErrorModel::None
            },
            cost_profile: None,
            temporal_noise: None,
        }
    }

    /// The error magnitude of the scenario's error model.
    pub fn error(&self) -> f64 {
        self.error_model.magnitude()
    }

    /// A reusable runner over this scenario: one [`Engine`] whose buffers
    /// (event heap, ledger, worker queues, transfer pool) persist across
    /// runs, so repetition loops stop paying per-run allocation. Used by
    /// the sweep harness; results are bit-identical to
    /// [`Scenario::execute`].
    pub fn runner(&self, config: SimConfig) -> ScenarioRunner<'_> {
        let engine = Engine::new(
            &self.platform,
            ErrorInjector::new(ErrorModel::None, 0),
            config.clone(),
        );
        ScenarioRunner {
            scenario: self,
            engine,
            config,
        }
    }

    /// Run one simulation as described by `spec` (the unified entry point).
    ///
    /// Builds a fresh engine; for repetition loops prefer
    /// [`ScenarioRunner::execute`], which reuses one. Results are
    /// bit-identical between the two.
    pub fn execute(&self, spec: &RunSpec) -> Result<SimResult, RunError> {
        let mut scheduler = spec.instantiate(&self.platform, self.w_total)?;
        match spec.recovery {
            Some(recovery) => {
                let mut wrapped = Recovering::with_config(scheduler, recovery)
                    .with_declared_rates(divergence_rates(&self.platform, &recovery));
                Ok(simulate(
                    &self.platform,
                    &mut wrapped,
                    self.injector(spec.seed),
                    spec.config.clone(),
                )?)
            }
            None => Ok(simulate(
                &self.platform,
                scheduler.as_mut(),
                self.injector(spec.seed),
                spec.config.clone(),
            )?),
        }
    }

    /// Mean makespan over the spec's repetitions (seeds
    /// [`RunSpec::seeds`]), via one reused engine.
    ///
    /// # Panics
    ///
    /// Panics if `spec.reps == 0`.
    pub fn execute_mean(&self, spec: &RunSpec) -> Result<f64, RunError> {
        assert!(spec.reps > 0, "need at least one repetition");
        let mut runner = self.runner(spec.config.clone());
        let mut cols = RepColumns::new();
        runner.execute_batch(spec, &mut cols)?;
        Ok(cols.mean_makespan())
    }

    /// Run the spec's whole repetition batch (seeds [`RunSpec::seeds`])
    /// through one engine pass and return the results as column buffers —
    /// see [`ScenarioRunner::execute_batch`], which this wraps with a
    /// fresh runner and fresh columns.
    pub fn execute_batch(&self, spec: &RunSpec) -> Result<RepColumns, RunError> {
        let mut runner = self.runner(spec.config.clone());
        let mut cols = RepColumns::with_capacity(spec.reps as usize, self.platform.num_workers());
        runner.execute_batch(spec, &mut cols)?;
        Ok(cols)
    }

    /// Measure how much `spec`'s run at `seed` lost to planning blind:
    /// re-run with the planner fed the *realized* platform of
    /// `spec.config.speeds` (same seed, same error model, same faults and
    /// recovery policy — only the plan-time knowledge changes) and compare
    /// makespans.
    ///
    /// A one-shot [`Scenario::clairvoyant`] plus [`Clairvoyant::report`];
    /// to report on several repetitions of one spec, plan the twins once
    /// with [`Scenario::clairvoyant`] and report per seed.
    ///
    /// `realized_makespan` is the makespan the caller already obtained by
    /// executing `spec` at `seed`. Returns `None` when the spec's speed
    /// model is [`SpeedModel::Declared`] — there is nothing to reveal, so
    /// no robustness question to ask.
    pub fn robustness(
        &self,
        spec: &RunSpec,
        seed: u64,
        realized_makespan: f64,
    ) -> Option<RobustnessReport> {
        Some(self.clairvoyant(spec)?.report(seed, realized_makespan))
    }

    /// Plan `spec`'s clairvoyant twins on the realized platform of
    /// `spec.config.speeds`. The realized platform does not depend on the
    /// repetition seed, so one [`Clairvoyant`] reports on every
    /// repetition of the spec.
    ///
    /// Two clairvoyant twins compete for the reference: the same scheduler
    /// kind replanned on realized rates, and a [`SchedulerKind::HetUmr`]
    /// twin. The second matters because most of the paper's planners are
    /// homogeneous (they either refuse to build on a heterogeneous
    /// realized platform, or size chunks without looking at per-worker
    /// speeds, reproducing the blind plan exactly) — without a
    /// heterogeneity-aware twin the reference would degenerate to the
    /// realized makespan itself and every ratio would read 1. Twins that
    /// cannot be built on the realized platform are skipped.
    ///
    /// The spec's attached prototype (if any) is not used for the twins:
    /// it was planned against declared rates, and the twins' whole point
    /// is to plan against realized ones. Returns `None` when the speed
    /// model is [`SpeedModel::Declared`].
    pub fn clairvoyant(&self, spec: &RunSpec) -> Option<Clairvoyant> {
        let speeds = spec.config.speeds;
        if !speeds.is_active() {
            return None;
        }
        let platform = speeds
            .realized_platform(&self.platform)
            .expect("realized factors are floored, so the platform stays valid");
        let analytic_lower_bound = platform.makespan_lower_bound(self.w_total);
        let mut twin = spec.clone().reps(1).speeds(SpeedModel::Declared);
        twin.prototype = None;
        let config = twin.config.clone();
        let mut het_twin = twin.clone();
        het_twin.kind = SchedulerKind::HetUmr;
        let twins = [twin, het_twin]
            .into_iter()
            .filter_map(|t| {
                let prototype = t.kind.prototype(&platform, self.w_total).ok()?;
                Some(t.with_prototype(prototype))
            })
            .collect();
        Some(Clairvoyant {
            scenario: Scenario {
                platform,
                ..self.clone()
            },
            twins,
            config,
            analytic_lower_bound,
        })
    }

    /// The scenario's seeded error injector.
    pub(crate) fn injector(&self, seed: u64) -> ErrorInjector {
        let mut injector = match &self.cost_profile {
            Some(profile) => ErrorInjector::with_profile(self.error_model, seed, profile.clone()),
            None => ErrorInjector::new(self.error_model, seed),
        };
        if let Some(noise) = self.temporal_noise {
            injector = injector.with_temporal_noise(noise);
        }
        injector
    }
}

/// Repeated-run handle created by [`Scenario::runner`]. Holds one engine
/// and resets it between runs instead of rebuilding it, eliminating
/// per-repetition allocation in sweep and benchmark loops.
pub struct ScenarioRunner<'a> {
    scenario: &'a Scenario,
    engine: Engine<'a>,
    config: SimConfig,
}

impl ScenarioRunner<'_> {
    /// Run one simulation as described by `spec`, reusing the engine's
    /// buffers (the unified entry point; bit-identical to
    /// [`Scenario::execute`]).
    ///
    /// The engine is rebuilt only when `spec.config` differs from the
    /// configuration of the previous run, so homogeneous repetition loops
    /// stay allocation-free.
    pub fn execute(&mut self, spec: &RunSpec) -> Result<SimResult, RunError> {
        self.execute_at(spec, spec.seed)
    }

    /// [`ScenarioRunner::execute`] with the seed overridden — the
    /// sequential repetition-loop primitive (one scheduler instantiation
    /// and one engine pass per call). Prefer
    /// [`ScenarioRunner::execute_batch`] for whole batches.
    pub fn execute_at(&mut self, spec: &RunSpec, seed: u64) -> Result<SimResult, RunError> {
        self.ensure_config(spec);
        let mut scheduler = spec.instantiate(&self.scenario.platform, self.scenario.w_total)?;
        self.engine.reset(self.scenario.injector(seed));
        match spec.recovery {
            Some(rc) => {
                let mut wrapped = Recovering::with_config(scheduler, rc)
                    .with_declared_rates(divergence_rates(&self.scenario.platform, &rc));
                Ok(self.engine.run_reusing(&mut wrapped)?)
            }
            None => Ok(self.engine.run_reusing(scheduler.as_mut())?),
        }
    }

    /// Run the spec's whole repetition batch (seeds [`RunSpec::seeds`])
    /// through one engine pass, appending one column row per repetition to
    /// `cols`.
    ///
    /// Two structural savings over calling [`ScenarioRunner::execute`] in
    /// a loop, with bit-identical results (pinned by the batch-equivalence
    /// tests):
    ///
    /// * the planner runs **once per batch** — repetitions stamp out
    ///   clones of one prototype (the spec's own, when attached) instead
    ///   of re-planning per seed;
    /// * per-repetition result vectors land in the reused, batch-sized
    ///   [`RepColumns`] buffers instead of fresh allocations
    ///   ([`Engine::run_reusing_into`]).
    ///
    /// `cols` may already hold rows (batches append), as long as they are
    /// for the same worker count.
    pub fn execute_batch(&mut self, spec: &RunSpec, cols: &mut RepColumns) -> Result<(), RunError> {
        self.ensure_config(spec);
        let planned;
        let proto = match &spec.prototype {
            Some(p) => p,
            None => {
                planned = spec
                    .kind
                    .prototype(&self.scenario.platform, self.scenario.w_total)?;
                &planned
            }
        };
        cols.reserve(spec.reps as usize, self.scenario.platform.num_workers());
        for seed in spec.seeds() {
            self.engine.reset(self.scenario.injector(seed));
            let mut scheduler = proto.fresh();
            match spec.recovery {
                Some(rc) => {
                    let mut wrapped = Recovering::with_config(scheduler, rc)
                        .with_declared_rates(divergence_rates(&self.scenario.platform, &rc));
                    self.engine.run_reusing_into(&mut wrapped, cols)?;
                }
                None => self.engine.run_reusing_into(scheduler.as_mut(), cols)?,
            }
        }
        Ok(())
    }

    /// Rebuild the engine when `spec.config` differs from the previous
    /// run's configuration (homogeneous repetition loops stay
    /// allocation-free).
    fn ensure_config(&mut self, spec: &RunSpec) {
        if spec.config != self.config {
            self.config = spec.config.clone();
            let scenario = self.scenario;
            self.engine = Engine::new(
                &scenario.platform,
                ErrorInjector::new(ErrorModel::None, 0),
                spec.config.clone(),
            );
        }
    }

    /// Pre-plan a scheduler for this runner's scenario (see
    /// [`SchedulerKind::prototype`]). Pair with
    /// [`RunSpec::with_prototype`] in repetition loops to pay the planner
    /// cost once instead of per run.
    pub fn prototype(&self, kind: &SchedulerKind) -> Result<SchedulerPrototype, RunError> {
        Ok(kind.prototype(&self.scenario.platform, self.scenario.w_total)?)
    }

    /// The scenario this runner simulates.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Current event-queue storage footprint (see
    /// [`Engine::debug_queue_capacity`]). Test instrumentation only.
    #[doc(hidden)]
    pub fn debug_queue_capacity(&self) -> usize {
        self.engine.debug_queue_capacity()
    }
}

/// Declared per-worker `(comp_latency, speed)` for the recovery layer's
/// divergence check — empty (and free) when the check is disabled.
pub(crate) fn divergence_rates(platform: &Platform, recovery: &RecoveryConfig) -> Vec<(f64, f64)> {
    if recovery.divergence_threshold.is_some() {
        platform
            .workers()
            .iter()
            .map(|w| (w.comp_latency, w.speed))
            .collect()
    } else {
        Vec::new()
    }
}

/// Error running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The scheduler could not be constructed.
    Build(BuildError),
    /// The simulation failed (scheduler bug surfaced by the engine).
    Sim(SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Build(e) => write!(f, "build: {e}"),
            RunError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Build(e) => Some(e),
            RunError::Sim(e) => Some(e),
        }
    }
}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        RunError::Build(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_scenario_shape() {
        let s = Scenario::table1(20, 1.8, 0.3, 0.9, 0.2);
        assert_eq!(s.platform.num_workers(), 20);
        assert!((s.platform.worker(0).bandwidth - 36.0).abs() < 1e-12);
        assert_eq!(s.w_total, 1000.0);
        assert!((s.error() - 0.2).abs() < 1e-12);

        let exact = Scenario::table1(10, 1.5, 0.1, 0.1, 0.0);
        assert_eq!(exact.error_model, ErrorModel::None);
    }

    #[test]
    fn run_and_determinism() {
        let s = Scenario::table1(10, 1.5, 0.2, 0.2, 0.3);
        let kind = SchedulerKind::rumr_known_error(0.3);
        let a = s.execute(&RunSpec::new(kind).seed(7)).unwrap();
        let b = s.execute(&RunSpec::new(kind).seed(7)).unwrap();
        assert_eq!(a.makespan, b.makespan);
        let c = s.execute(&RunSpec::new(kind).seed(8)).unwrap();
        assert_ne!(a.makespan, c.makespan);
        assert!((a.completed_work() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn traced_run_validates() {
        let s = Scenario::table1(8, 1.4, 0.1, 0.3, 0.25);
        let spec = RunSpec::new(SchedulerKind::Factoring)
            .seed(1)
            .trace_mode(TraceMode::Full);
        let r = s.execute(&spec).unwrap();
        let trace = r.trace.expect("trace recorded");
        assert!(trace.validate(8).is_empty());
    }

    #[test]
    fn mean_makespan_averages() {
        let s = Scenario::table1(5, 1.5, 0.1, 0.1, 0.4);
        let kind = SchedulerKind::Factoring;
        let mean = s.execute_mean(&RunSpec::new(kind).reps(5)).unwrap();
        let manual: f64 = (0..5)
            .map(|seed| s.execute(&RunSpec::new(kind).seed(seed)).unwrap().makespan)
            .sum::<f64>()
            / 5.0;
        assert!((mean - manual).abs() < 1e-12);
    }

    #[test]
    fn concurrency_helps_on_latency_bound_platform() {
        let s = Scenario::table1(10, 1.5, 0.2, 0.8, 0.2);
        let kind = SchedulerKind::Factoring;
        let capacity = Some(s.platform.worker(0).bandwidth);
        let at_sends = |max_sends: usize| {
            let spec = RunSpec::new(kind).seed(3).config(SimConfig {
                max_concurrent_sends: max_sends,
                uplink_capacity: capacity,
                ..Default::default()
            });
            s.execute(&spec).unwrap().makespan
        };
        let serial = at_sends(1);
        let conc = at_sends(4);
        assert!(
            conc < serial,
            "4 concurrent sends should beat serial at nLat = 0.8: {conc} vs {serial}"
        );
    }

    #[test]
    fn output_ratio_through_scenario_config() {
        let s = Scenario::table1(6, 1.5, 0.1, 0.1, 0.0);
        let cfg = SimConfig {
            output_ratio: 0.5,
            ..Default::default()
        };
        let r = s
            .execute(&RunSpec::new(SchedulerKind::Umr).config(cfg))
            .unwrap();
        assert!((r.returned_work - 500.0).abs() < 1e-6);
        let base = s.execute(&RunSpec::new(SchedulerKind::Umr)).unwrap();
        assert!(r.makespan > base.makespan);
    }

    #[test]
    fn temporal_noise_through_scenario() {
        use dls_sim::TemporalNoise;
        let mut s = Scenario::table1(8, 1.5, 0.1, 0.1, 0.0);
        s.temporal_noise = Some(TemporalNoise {
            rho: 0.9,
            sigma: 0.4,
        });
        let spec = RunSpec::new(SchedulerKind::Factoring).seed(1);
        let a = s.execute(&spec).unwrap();
        let b = s.execute(&spec).unwrap();
        assert_eq!(a.makespan, b.makespan, "temporal noise must be seeded");
        let mut plain = s.clone();
        plain.temporal_noise = None;
        let c = plain.execute(&spec).unwrap();
        assert_ne!(a.makespan, c.makespan);
        assert!((a.completed_work() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn recovery_completes_what_plain_loses() {
        use dls_sim::FaultPlan;
        // Crash-stop worker 2 mid-run. Raw UMR keeps feeding the corpse
        // and loses its work; the recovery wrapper redispatches every lost
        // unit and still finishes the whole workload.
        let s = Scenario::table1(6, 1.5, 0.2, 0.2, 0.0);
        let faults = FaultModel::Plan(FaultPlan::new().crash(60.0, 2));
        let raw = s
            .execute(
                &RunSpec::new(SchedulerKind::Umr)
                    .seed(1)
                    .faults(faults.clone()),
            )
            .unwrap();
        assert!(raw.lost_work > 0.0, "crash at t=60 must destroy work");
        assert!(raw.completed_work() < 1000.0 - 1e-6);

        let cfg = SimConfig {
            faults,
            trace_mode: TraceMode::Full,
            ..Default::default()
        };
        let rec = s
            .execute(
                &RunSpec::new(SchedulerKind::rumr_known_error(0.0))
                    .seed(1)
                    .config(cfg)
                    .recovering(RecoveryConfig::default()),
            )
            .unwrap();
        assert!(
            (rec.completed_work() - 1000.0).abs() < 1e-6,
            "recovering RUMR must complete everything: {}",
            rec.completed_work()
        );
        assert!(rec.redispatched_work > 0.0);
        assert!(rec.conservation_residual().abs() < 1e-6);
        assert!(rec.trace.unwrap().validate(6).is_empty());
    }

    #[test]
    fn fault_free_recovering_run_matches_plain() {
        // With no faults the wrapper is a strict pass-through.
        let s = Scenario::table1(10, 1.5, 0.2, 0.2, 0.3);
        let kind = SchedulerKind::rumr_known_error(0.3);
        let plain = s.execute(&RunSpec::new(kind).seed(42)).unwrap();
        let wrapped = s
            .execute(
                &RunSpec::new(kind)
                    .seed(42)
                    .recovering(RecoveryConfig::default()),
            )
            .unwrap();
        assert_eq!(plain.makespan.to_bits(), wrapped.makespan.to_bits());
        assert_eq!(plain.num_chunks, wrapped.num_chunks);
    }

    #[test]
    fn errors_are_reported() {
        let s = Scenario::table1(5, 1.5, 0.1, 0.1, 0.0);
        let bad = Scenario { w_total: -3.0, ..s };
        let e = bad.execute(&RunSpec::new(SchedulerKind::Umr)).unwrap_err();
        assert!(matches!(e, RunError::Build(_)));
        assert!(!format!("{e}").is_empty());
    }

    /// Field-by-field bit-identity of the batched pass against the
    /// sequential repetition loop, across noisy, faulty-recovering and
    /// metered configurations.
    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        use dls_sim::FaultPlan;
        let noisy = Scenario::table1(8, 1.5, 0.2, 0.2, 0.3);
        let faulty_cfg = SimConfig {
            faults: FaultModel::Plan(FaultPlan::new().crash(40.0, 2)),
            trace_mode: TraceMode::MetricsOnly,
            audit: true,
            ..Default::default()
        };
        let specs = [
            RunSpec::new(SchedulerKind::rumr_known_error(0.3))
                .seed(5)
                .reps(4),
            RunSpec::new(SchedulerKind::Factoring)
                .seed(9)
                .reps(3)
                .trace_mode(TraceMode::MetricsOnly),
            RunSpec::new(SchedulerKind::rumr_known_error(0.3))
                .seed(2)
                .reps(3)
                .config(faulty_cfg)
                .recovering(RecoveryConfig::default()),
        ];
        for spec in &specs {
            let cols = noisy.execute_batch(spec).unwrap();
            assert_eq!(cols.len(), spec.reps as usize);
            let mut runner = noisy.runner(spec.config.clone());
            for (i, seed) in spec.seeds().enumerate() {
                let seq = runner.execute_at(spec, seed).unwrap();
                assert_eq!(seq.makespan.to_bits(), cols.makespan[i].to_bits());
                assert_eq!(seq.num_chunks, cols.num_chunks[i]);
                assert_eq!(
                    seq.dispatched_work.to_bits(),
                    cols.dispatched_work[i].to_bits()
                );
                assert_eq!(seq.events, cols.events[i]);
                assert_eq!(seq.lost_work.to_bits(), cols.lost_work[i].to_bits());
                assert_eq!(seq.lost_chunks, cols.lost_chunks[i]);
                assert_eq!(
                    seq.completed_work().to_bits(),
                    cols.completed_work[i].to_bits()
                );
                assert_eq!(seq.per_worker_work, cols.per_worker_work_of(i));
                assert_eq!(seq.per_worker_busy, cols.per_worker_busy_of(i));
                assert_eq!(seq.lost_ranges, cols.lost_ranges_of(i));
                assert_eq!(
                    seq.metrics.map(|m| m.trace_events),
                    cols.metrics[i].as_ref().map(|m| m.trace_events)
                );
                assert_eq!(
                    seq.audit.map(|a| a.len()),
                    cols.audit[i].as_ref().map(|a| a.len())
                );
            }
        }
    }

    /// A reused column batch keeps its allocations across `clear`:
    /// the second batch of the same shape must not grow any buffer.
    #[test]
    fn batch_buffers_are_reused_across_batches() {
        let s = Scenario::table1(6, 1.5, 0.1, 0.1, 0.2);
        let spec = RunSpec::new(SchedulerKind::Factoring).seed(1).reps(5);
        let mut runner = s.runner(spec.config.clone());
        let mut cols = RepColumns::with_capacity(5, 6);
        runner.execute_batch(&spec, &mut cols).unwrap();
        let caps = (
            cols.makespan.capacity(),
            cols.per_worker_work.capacity(),
            cols.per_worker_busy.capacity(),
            cols.events.capacity(),
        );
        cols.clear();
        runner.execute_batch(&spec, &mut cols).unwrap();
        assert_eq!(cols.len(), 5);
        assert_eq!(
            caps,
            (
                cols.makespan.capacity(),
                cols.per_worker_work.capacity(),
                cols.per_worker_busy.capacity(),
                cols.events.capacity(),
            ),
            "warm batch must not reallocate its columns"
        );
    }

    #[test]
    fn runspec_builder_and_equality() {
        let spec = RunSpec::new(SchedulerKind::Umr)
            .seed(9)
            .reps(4)
            .trace_mode(TraceMode::MetricsOnly);
        assert_eq!(spec.seeds(), 9..13);

        // Equality ignores the prototype.
        let s = Scenario::table1(5, 1.5, 0.1, 0.1, 0.0);
        let proto = SchedulerKind::Umr
            .prototype(&s.platform, s.w_total)
            .unwrap();
        let with_proto = spec.clone().with_prototype(proto);
        assert_eq!(spec, with_proto);
        assert_ne!(spec, spec.clone().seed(10));
    }

    #[test]
    fn robustness_none_without_revelation() {
        let s = Scenario::table1(6, 1.5, 0.1, 0.1, 0.2);
        let spec = RunSpec::new(SchedulerKind::Factoring).seed(3);
        let r = s.execute(&spec).unwrap();
        assert!(s.robustness(&spec, 3, r.makespan).is_none());
    }

    #[test]
    fn robustness_ratio_at_least_one_under_adversary() {
        let s = Scenario::heterogeneous_demo(8, 0.2);
        let spec = RunSpec::new(SchedulerKind::Factoring)
            .seed(5)
            .speeds(SpeedModel::Adversarial {
                fraction: 0.25,
                slowdown: 2.0,
            });
        let realized = s.execute(&spec).unwrap();
        let report = s.robustness(&spec, 5, realized.makespan).unwrap();
        assert!(report.ratio >= 1.0 - 1e-9, "ratio {}", report.ratio);
        assert!(report.clairvoyant_makespan <= realized.makespan + 1e-12);
        assert!(report.analytic_lower_bound <= report.clairvoyant_makespan + 1e-9);
        assert!(report.replanned_makespan.is_some());

        // Degrading the fastest workers must actually hurt: the realized
        // run is slower than the trusting-regime run on declared rates.
        let trusting = s
            .execute(&spec.clone().speeds(SpeedModel::Declared))
            .unwrap();
        assert!(realized.makespan > trusting.makespan);
    }

    #[test]
    fn robustness_het_twin_rescues_homogeneous_planners() {
        // UMR demands a homogeneous platform, so its same-kind twin
        // cannot be built after a heterogeneous revelation — the
        // HetUmr twin must step in as the clairvoyant reference, and it
        // must expose that the blind run genuinely lost time.
        let s = Scenario::table1(8, 1.5, 0.2, 0.2, 0.0);
        let spec = RunSpec::new(SchedulerKind::Umr)
            .seed(1)
            .speeds(SpeedModel::Adversarial {
                fraction: 0.5,
                slowdown: 2.0,
            });
        let realized = s.execute(&spec).unwrap();
        let report = s.robustness(&spec, 1, realized.makespan).unwrap();
        let replanned = report.replanned_makespan.expect("HetUmr twin builds");
        assert!(replanned < realized.makespan);
        assert!(report.ratio > 1.0, "ratio {}", report.ratio);
        assert_eq!(report.clairvoyant_makespan, replanned);
    }

    #[test]
    fn declared_speed_model_is_bit_identical_to_default() {
        let s = Scenario::heterogeneous_demo(10, 0.3);
        let kind = SchedulerKind::Factoring;
        let base = s.execute(&RunSpec::new(kind).seed(11)).unwrap();
        let gated = s
            .execute(&RunSpec::new(kind).seed(11).speeds(SpeedModel::Declared))
            .unwrap();
        assert_eq!(base.makespan.to_bits(), gated.makespan.to_bits());
        assert_eq!(base.num_chunks, gated.num_chunks);
    }

    #[test]
    fn runner_execute_rebuilds_engine_on_config_change() {
        let s = Scenario::table1(6, 1.5, 0.1, 0.1, 0.2);
        let kind = SchedulerKind::Factoring;
        let mut runner = s.runner(SimConfig::default());
        let plain = runner.execute(&RunSpec::new(kind).seed(3)).unwrap();
        assert!(plain.metrics.is_none());

        // Same runner, different config: engine must be rebuilt with
        // metrics enabled, and results must match a fresh scenario run.
        let spec = RunSpec::new(kind)
            .seed(3)
            .trace_mode(TraceMode::MetricsOnly);
        let metered = runner.execute(&spec).unwrap();
        assert!(metered.metrics.is_some());
        assert_eq!(plain.makespan.to_bits(), metered.makespan.to_bits());

        let fresh = s.execute(&spec).unwrap();
        assert_eq!(metered.makespan.to_bits(), fresh.makespan.to_bits());
    }
}
