//! Multi-load runs: several divisible loads arbitrated on one scenario.
//!
//! This is the multi-load counterpart of [`RunSpec`](crate::RunSpec): a
//! [`MultiRunSpec`] names the jobs (release, size, per-job scheduler kind,
//! optional per-job recovery), the arbitration [`MultiPolicy`], a seed and
//! an engine configuration; [`Scenario::execute_jobs`] builds one inner
//! scheduler per job, arbitrates them through a
//! [`MultiLoadScheduler`], and returns the
//! engine result together with per-job [`JobMetrics`], a
//! [`FairnessSummary`], and the job-level audit findings from
//! [`MultiJobChecker`] (per-job work conservation, release-time
//! compliance, cross-job master exclusivity).
//!
//! The execution path deliberately mirrors the single-load one — same
//! error injector construction, same `simulate` entry — so a
//! [`MultiRunSpec::from_job_set`] with a single job released at 0 is
//! bit-identical to the corresponding [`RunSpec`](crate::RunSpec) run.

use dls_sched::{MultiLoadScheduler, MultiPolicy, Recovering, RecoveryConfig};
use dls_sim::invariants::{InvariantFinding, JobLedgerEntry, MultiJobChecker};
use dls_sim::jobs::JobSet;
use dls_sim::metrics::{FairnessSummary, JobMetrics};
use dls_sim::trace::TraceEvent;
use dls_sim::{simulate, SimConfig, SimResult, TraceMode};

use crate::kind::{BuildError, PlanError, SchedulerKind};
use crate::scenario::{RunError, Scenario};

/// One job of a [`MultiRunSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiJob {
    /// Simulation time the job becomes available for dispatch.
    pub release: f64,
    /// Total workload units.
    pub size: f64,
    /// Scheduling algorithm planning this job's chunks.
    pub kind: SchedulerKind,
    /// Optional per-job fault-recovery wrapper.
    pub recovery: Option<RecoveryConfig>,
}

impl MultiJob {
    /// A job of `size` units released at `release`, scheduled by `kind`,
    /// no recovery wrapper.
    pub fn new(release: f64, size: f64, kind: SchedulerKind) -> Self {
        MultiJob {
            release,
            size,
            kind,
            recovery: None,
        }
    }

    /// Wrap this job's scheduler in the fault-recovery layer.
    pub fn recovering(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }
}

/// A complete multi-load run description: jobs × policy × seed × engine
/// configuration. Build with [`MultiRunSpec::new`] +
/// [`MultiRunSpec::job`], or [`MultiRunSpec::from_job_set`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRunSpec {
    /// The jobs, in submission order (FIFO-exclusive serves this order).
    pub jobs: Vec<MultiJob>,
    /// Arbitration policy for the shared master.
    pub policy: MultiPolicy,
    /// RNG seed for the scenario's error injector.
    pub seed: u64,
    /// Engine configuration. `max_concurrent_sends` must stay 1: the
    /// job-attribution mirrors assume the paper's serial master.
    pub config: SimConfig,
}

impl MultiRunSpec {
    /// An empty spec with the given policy, seed 0 and the default engine
    /// configuration.
    pub fn new(policy: MultiPolicy) -> Self {
        MultiRunSpec {
            jobs: Vec::new(),
            policy,
            seed: 0,
            config: SimConfig::default(),
        }
    }

    /// Every job of `set` scheduled by the same `kind` under `policy`.
    pub fn from_job_set(set: &JobSet, kind: SchedulerKind, policy: MultiPolicy) -> Self {
        let mut spec = MultiRunSpec::new(policy);
        for j in set.jobs() {
            spec.jobs.push(MultiJob::new(j.release, j.size, kind));
        }
        spec
    }

    /// Append a job (builder style).
    pub fn job(mut self, job: MultiJob) -> Self {
        self.jobs.push(job);
        self
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the engine configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the observability level of the run.
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.config.trace_mode = mode;
        self
    }

    /// Set the fault model.
    pub fn faults(mut self, faults: dls_sim::FaultModel) -> Self {
        self.config.faults = faults;
        self
    }

    /// Set the declared-vs-realized speed model.
    pub fn speeds(mut self, speeds: dls_sim::SpeedModel) -> Self {
        self.config.speeds = speeds;
        self
    }

    /// Total workload across jobs.
    pub fn total_work(&self) -> f64 {
        self.jobs.iter().map(|j| j.size).sum()
    }

    /// Typed upfront validation: at least one job, valid releases and
    /// sizes, serial master.
    fn validate(&self) -> Result<(), PlanError> {
        if self.jobs.is_empty() {
            return Err(PlanError::InvalidParameter {
                param: "jobs",
                value: 0.0,
            });
        }
        if self.config.max_concurrent_sends != 1 {
            return Err(PlanError::InvalidParameter {
                param: "max_concurrent_sends",
                value: self.config.max_concurrent_sends as f64,
            });
        }
        for j in &self.jobs {
            if !j.release.is_finite() || j.release < 0.0 {
                return Err(PlanError::InvalidParameter {
                    param: "release",
                    value: j.release,
                });
            }
            if !j.size.is_finite() || j.size <= 0.0 {
                return Err(PlanError::InvalidWorkload { w_total: j.size });
            }
        }
        Ok(())
    }
}

/// Everything a multi-load run produced.
#[derive(Debug, Clone)]
pub struct MultiRunResult {
    /// The raw engine result (global makespan, chunk counts, trace,
    /// engine-level audit findings, …).
    pub sim: SimResult,
    /// Per-job completion metrics, in job order.
    pub jobs: Vec<JobMetrics>,
    /// Cross-job fairness summary (max/mean stretch, Jain's index).
    pub fairness: FairnessSummary,
    /// Job-level audit findings from [`MultiJobChecker`]: per-job work
    /// conservation, release-time compliance, and — when a full trace was
    /// recorded — cross-job master exclusivity. Empty = clean.
    pub job_audit: Vec<InvariantFinding>,
}

impl MultiRunResult {
    /// Engine-level plus job-level audit finding count.
    pub fn total_audit_findings(&self) -> usize {
        self.sim.audit.as_deref().map_or(0, <[_]>::len) + self.job_audit.len()
    }
}

/// Relative tolerance for "this job's completed work covers its size".
const COMPLETION_REL_TOL: f64 = 1e-6;

impl Scenario {
    /// Run a multi-load simulation on this scenario's platform and error
    /// model. The scenario's `w_total` is ignored — each job carries its
    /// own size; everything else (platform, error model, cost profile,
    /// temporal noise) applies exactly as in single-load runs.
    ///
    /// # Errors
    ///
    /// [`RunError::Build`] for invalid specs (no jobs, non-serial master,
    /// bad release/size, a kind that rejects the platform);
    /// [`RunError::Sim`] when the engine fails.
    pub fn execute_jobs(&self, spec: &MultiRunSpec) -> Result<MultiRunResult, RunError> {
        spec.validate().map_err(BuildError::from)?;

        let mut multi = MultiLoadScheduler::new(spec.policy);
        for j in &spec.jobs {
            let inner = j.kind.build(&self.platform, j.size)?;
            match j.recovery {
                Some(rc) => {
                    let wrapped = Recovering::with_config(inner, rc).with_declared_rates(
                        crate::scenario::divergence_rates(&self.platform, &rc),
                    );
                    multi.push_job(j.release, j.size, Box::new(wrapped));
                }
                None => multi.push_job(j.release, j.size, inner),
            }
        }

        let sim = simulate(
            &self.platform,
            &mut multi,
            self.injector(spec.seed),
            spec.config.clone(),
        )?;

        let reports = multi.reports();
        let jobs: Vec<JobMetrics> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let lower_bound = self.platform.makespan_lower_bound(r.size);
                let completed_fully = r.completed >= r.size * (1.0 - COMPLETION_REL_TOL);
                let completion = r.settled.filter(|_| completed_fully);
                let response = completion.map(|c| c - r.release);
                JobMetrics {
                    job: i,
                    release: r.release,
                    size: r.size,
                    first_dispatch: r.first_dispatch,
                    completion,
                    response,
                    stretch: response.map(|t| t / lower_bound),
                    lower_bound,
                    dispatched: r.dispatched,
                    completed: r.completed,
                    lost: r.lost,
                }
            })
            .collect();
        let fairness = FairnessSummary::from_jobs(&jobs);

        // Job-level audit: dispatches straight from the arbiter's log;
        // master-occupation intervals job-tagged by zipping the trace's
        // SendStart/SendEnd pairs with the log (the master is serial, so
        // the k-th SendStart is the k-th logged dispatch).
        let mut checker = MultiJobChecker::new(reports.iter().map(|r| r.release).collect());
        for d in multi.dispatch_log() {
            checker.observe_dispatch(d.job, d.time, d.chunk);
        }
        if let Some(trace) = &sim.trace {
            let mut k = 0usize;
            let mut open: Option<f64> = None;
            for e in trace.events() {
                match *e {
                    TraceEvent::SendStart { time, .. } => open = Some(time),
                    TraceEvent::SendEnd { time, .. } => {
                        if let (Some(start), Some(d)) = (open.take(), multi.dispatch_log().get(k)) {
                            checker.observe_send_interval(d.job, start, time);
                        }
                        k += 1;
                    }
                    _ => {}
                }
            }
        }
        let ledgers: Vec<JobLedgerEntry> = reports
            .iter()
            .map(|r| JobLedgerEntry {
                dispatched: r.dispatched,
                completed: r.completed,
                lost: r.lost,
            })
            .collect();
        let scale = spec.total_work().max(1.0);
        let gave_up = sim.outstanding_work.abs() > 1e-6 * scale;
        let job_audit = checker.finalize(&ledgers, gave_up);

        Ok(MultiRunResult {
            sim,
            jobs,
            fairness,
            job_audit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sim::jobs::JobSpec;

    fn scenario() -> Scenario {
        Scenario::table1(6, 1.5, 0.2, 0.2, 0.2)
    }

    fn audited(mut config: SimConfig) -> SimConfig {
        config.audit = true;
        config.trace_mode = TraceMode::Full;
        config
    }

    #[test]
    fn spec_validation_is_typed() {
        let s = scenario();
        let empty = MultiRunSpec::new(MultiPolicy::FifoExclusive);
        assert!(matches!(
            s.execute_jobs(&empty),
            Err(RunError::Build(BuildError::Plan(_)))
        ));

        let bad_release = MultiRunSpec::new(MultiPolicy::FifoExclusive).job(MultiJob::new(
            -1.0,
            100.0,
            SchedulerKind::Factoring,
        ));
        assert!(matches!(
            s.execute_jobs(&bad_release),
            Err(RunError::Build(BuildError::Plan(
                PlanError::InvalidParameter {
                    param: "release",
                    ..
                }
            )))
        ));

        let mut concurrent = MultiRunSpec::new(MultiPolicy::FifoExclusive).job(MultiJob::new(
            0.0,
            100.0,
            SchedulerKind::Factoring,
        ));
        concurrent.config.max_concurrent_sends = 2;
        assert!(matches!(
            s.execute_jobs(&concurrent),
            Err(RunError::Build(BuildError::Plan(
                PlanError::InvalidParameter {
                    param: "max_concurrent_sends",
                    ..
                }
            )))
        ));
    }

    #[test]
    fn three_jobs_complete_with_clean_audit() {
        let s = scenario();
        for policy in MultiPolicy::ALL {
            let spec = MultiRunSpec::new(policy)
                .job(MultiJob::new(0.0, 400.0, SchedulerKind::Factoring))
                .job(MultiJob::new(30.0, 200.0, SchedulerKind::Factoring))
                .job(MultiJob::new(60.0, 100.0, SchedulerKind::Factoring))
                .seed(7)
                .config(audited(SimConfig::default()));
            let r = s.execute_jobs(&spec).unwrap_or_else(|e| {
                panic!("{}: {e}", policy.label());
            });
            assert_eq!(r.jobs.len(), 3);
            assert!(r.job_audit.is_empty(), "{:?}", r.job_audit);
            assert_eq!(r.sim.audit.as_deref(), Some(&[][..]));
            for j in &r.jobs {
                assert!(
                    (j.completed - j.size).abs() < 1e-6 * j.size,
                    "job {} under-completed: {} of {}",
                    j.job,
                    j.completed,
                    j.size
                );
                let response = j.response.expect("job completed");
                assert!(
                    response >= j.lower_bound - 1e-9,
                    "job {} response {response} beats the analytic bound {}",
                    j.job,
                    j.lower_bound
                );
                assert!(j.stretch.unwrap() >= 1.0 - 1e-9);
                assert!(j.completion.unwrap() >= j.release);
            }
            assert_eq!(r.fairness.completed_jobs, 3);
            assert!(r.fairness.jain_index > 0.0 && r.fairness.jain_index <= 1.0 + 1e-12);
            // The global makespan dominates the oracle-style set bound.
            let set = JobSet::new(
                spec.jobs
                    .iter()
                    .map(|j| JobSpec::new(j.release, j.size))
                    .collect(),
            )
            .unwrap();
            assert!(r.sim.makespan >= set.makespan_lower_bound(&s.platform) - 1e-9);
        }
    }

    #[test]
    fn staggered_release_respects_release_times() {
        let s = scenario();
        let spec = MultiRunSpec::new(MultiPolicy::RoundRobin)
            .job(MultiJob::new(0.0, 100.0, SchedulerKind::Factoring))
            .job(MultiJob::new(200.0, 100.0, SchedulerKind::Factoring))
            .config(audited(SimConfig::default()));
        let r = s.execute_jobs(&spec).unwrap();
        assert!(r.job_audit.is_empty(), "{:?}", r.job_audit);
        // Job 1 cannot start before its release, even on an idle platform.
        assert!(r.jobs[1].first_dispatch.unwrap() >= 200.0 - 1e-9);
        // The idle gap between job 0's end and job 1's release must not
        // deadlock (this exercises Decision::WaitUntil + Event::Timer).
        assert!(r.sim.makespan > 200.0);
    }
}
