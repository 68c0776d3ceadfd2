//! Multi-load invariant battery: concurrent tenants on one platform.
//!
//! Property tests over (arrival family × arbitration policy): every
//! audited run must come back with zero findings from
//! BOTH checkers (the engine's streaming `InvariantChecker` and the
//! job-level `MultiJobChecker` — per-job work conservation, release-time
//! compliance, cross-job master exclusivity), every job must finish all
//! its work, and every completed job must dominate its oracle-style
//! analytic lower bound (stretch ≥ 1). A refusal sweep pins the
//! panic-vs-refusal contract: invalid inputs get a typed `PlanError`
//! from every scheduler kind, never a panic. A pass-through property pins
//! that a single job released at 0 is the single-load `RunSpec` run, bit
//! for bit.

use proptest::prelude::*;
use rumr::{
    FaultModel, FaultPlan, JobSet, MultiJob, MultiPolicy, MultiRunSpec, PlanError, RumrConfig,
    RunSpec, Scenario, SchedulerKind, SimConfig, SpeedModel, TraceMode,
};

const EPS: f64 = 1e-9;
const WORK_TOL: f64 = 1e-6;

/// One arrival family per selector: adversarial simultaneous release,
/// Poisson arrivals, or bursty arrivals (bursts separated by an idle gap
/// wide enough to exercise `Decision::WaitUntil` timers).
fn job_set(family: usize, n: usize, seed: u64, mean_size: f64, gap: f64) -> JobSet {
    match family % 3 {
        0 => {
            let sizes: Vec<f64> = (0..n).map(|i| mean_size * (1.0 + 0.5 * i as f64)).collect();
            JobSet::simultaneous(&sizes).expect("sizes are positive")
        }
        1 => JobSet::poisson(n, gap, mean_size, seed),
        _ => JobSet::bursty(2, n.div_ceil(2), 4.0 * gap, mean_size, seed),
    }
}

fn audited() -> SimConfig {
    SimConfig {
        trace_mode: TraceMode::Full,
        audit: true,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for every arrival family and policy, an
    /// audited multi-load run is clean — no engine findings,
    /// no job-level findings, all work delivered, every response at or
    /// above the analytic floor.
    #[test]
    fn audited_runs_are_clean_and_dominate_bounds(
        family in 0usize..3,
        n in 2usize..=5,
        workers in 3usize..=8,
        seed in 0u64..1000,
        mean_size in 120.0f64..300.0,
        gap in 30.0f64..90.0,
        error in 0.0f64..0.5,
    ) {
        let scenario = Scenario::table1(workers, 1.5, 0.2, 0.2, error);
        let set = job_set(family, n, seed, mean_size, gap);
        for policy in MultiPolicy::ALL {
            let spec = MultiRunSpec::from_job_set(&set, SchedulerKind::Factoring, policy)
                .seed(seed)
                .config(audited());
            let result = scenario.execute_jobs(&spec).unwrap();
            let what = format!("family {family}/{}", policy.label());

            prop_assert_eq!(
                result.sim.audit.as_deref(),
                Some(&[][..]),
                "{}: engine audit findings",
                &what
            );
            prop_assert!(
                result.job_audit.is_empty(),
                "{}: job audit findings: {:?}",
                &what,
                result.job_audit
            );
            for j in &result.jobs {
                // Per-job work conservation: everything dispatched on
                // the job's behalf is completed (no faults here), and
                // the job's full size was delivered.
                prop_assert!(
                    (j.completed - j.size).abs() <= WORK_TOL * j.size,
                    "{} job {}: completed {} of {}",
                    &what, j.job, j.completed, j.size
                );
                prop_assert!(
                    (j.dispatched - j.completed - j.lost).abs() <= WORK_TOL * j.size,
                    "{} job {}: ledger leak",
                    &what, j.job
                );
                prop_assert!(j.first_dispatch.unwrap() >= j.release - EPS,
                    "{} job {}: dispatched before release", &what, j.job);
                // Response dominates the oracle-style lower bound.
                let response = j.response.unwrap();
                prop_assert!(
                    response >= j.lower_bound - EPS,
                    "{} job {}: response {} beats bound {}",
                    &what, j.job, response, j.lower_bound
                );
                prop_assert!(j.stretch.unwrap() >= 1.0 - EPS);
            }
            prop_assert!(
                result.sim.makespan >= set.makespan_lower_bound(&scenario.platform) - EPS,
                "{}: set makespan beats the whole-set bound",
                &what
            );
            prop_assert_eq!(result.fairness.completed_jobs, set.len());
        }
    }

    /// Different inner planners per job (the service's mixed-tenant case)
    /// stay clean too, including under prediction error.
    #[test]
    fn mixed_planners_are_clean(
        workers in 3usize..=8,
        seed in 0u64..1000,
        error in 0.0f64..0.4,
        release_gap in 10.0f64..80.0,
    ) {
        let scenario = Scenario::table1(workers, 1.8, 0.3, 0.1, error);
        for policy in MultiPolicy::ALL {
            let spec = MultiRunSpec::new(policy)
                .job(MultiJob::new(0.0, 400.0, SchedulerKind::rumr_known_error(error)))
                .job(MultiJob::new(release_gap, 250.0, SchedulerKind::Factoring))
                .job(MultiJob::new(2.0 * release_gap, 120.0, SchedulerKind::Gss))
                .seed(seed)
                .config(audited());
            let result = scenario.execute_jobs(&spec).unwrap();
            prop_assert!(result.job_audit.is_empty(), "{}: {:?}", policy.label(), result.job_audit);
            prop_assert_eq!(result.sim.audit.as_deref(), Some(&[][..]));
            for j in &result.jobs {
                prop_assert!((j.completed - j.size).abs() <= WORK_TOL * j.size);
                prop_assert!(j.stretch.unwrap() >= 1.0 - EPS);
            }
        }
    }

    /// The multi-load layer is a strict pass-through for a single job
    /// released at 0: `Scenario::execute_jobs` with a one-job set is the
    /// same computation as the single-load `RunSpec` path — identical
    /// makespan bits, chunk count, trace events and metrics — for every
    /// scheduler kind under every arbitration policy.
    #[test]
    fn single_job_jobset_matches_runspec(
        workers in 2usize..=8,
        error in 0.0f64..0.6,
        w_total in 100.0f64..400.0,
        seed in 0u64..1000,
    ) {
        let mut scenario = Scenario::table1(workers, 1.5, 0.2, 0.2, error);
        scenario.w_total = w_total;
        let config = SimConfig {
            trace_mode: TraceMode::Full,
            ..Default::default()
        };
        for kind in [
            SchedulerKind::rumr_known_error(error),
            SchedulerKind::AdaptiveRumr,
            SchedulerKind::HetRumr(RumrConfig::with_known_error(error)),
            SchedulerKind::Umr,
            SchedulerKind::HetUmr,
            SchedulerKind::Mi { installments: 2 },
            SchedulerKind::OneRound,
            SchedulerKind::Factoring,
            SchedulerKind::Fsc { error },
            SchedulerKind::Gss,
            SchedulerKind::Tss,
            SchedulerKind::EqualStatic,
            SchedulerKind::SelfScheduling { unit: 10.0 },
        ] {
            let single = scenario
                .execute(&RunSpec::new(kind).seed(seed).config(config.clone()))
                .unwrap();
            for policy in MultiPolicy::ALL {
                let spec = MultiRunSpec::new(policy)
                    .job(MultiJob::new(0.0, w_total, kind))
                    .seed(seed)
                    .config(config.clone());
                let multi = scenario.execute_jobs(&spec).unwrap();
                let what = format!("{kind:?}/{}", policy.label());
                prop_assert_eq!(
                    multi.sim.makespan.to_bits(),
                    single.makespan.to_bits(),
                    "{}: makespan",
                    &what
                );
                prop_assert_eq!(multi.sim.num_chunks, single.num_chunks, "{}: chunks", &what);
                prop_assert!(
                    multi.sim.trace.as_ref().map(|t| t.events())
                        == single.trace.as_ref().map(|t| t.events()),
                    "{}: traces differ",
                    &what
                );
                prop_assert!(multi.sim.metrics == single.metrics, "{}: metrics differ", &what);
                prop_assert!(multi.job_audit.is_empty(), "{}: {:?}", &what, multi.job_audit);
                prop_assert_eq!(
                    multi.jobs[0].completion.map(f64::to_bits),
                    Some(single.makespan.to_bits()),
                    "{}: completion is not the makespan",
                    &what
                );
            }
        }
    }
}

/// Faulty multi-load runs with per-job recovery: the job-level ledger
/// must balance (dispatched = completed + lost per job), every job must
/// still deliver its full size, and both audits stay clean.
#[test]
fn faulty_run_with_recovery_conserves_per_job_work() {
    let scenario = Scenario::table1(6, 1.5, 0.2, 0.2, 0.2);
    let faults = FaultModel::Plan(FaultPlan::new().crash_recover(8.0, 1, 6.0));
    for policy in MultiPolicy::ALL {
        let mut config = audited();
        config.faults = faults.clone();
        let recovery = rumr::RecoveryConfig::default();
        let spec = MultiRunSpec::new(policy)
            .job(MultiJob::new(0.0, 300.0, SchedulerKind::Factoring).recovering(recovery))
            .job(MultiJob::new(20.0, 200.0, SchedulerKind::Factoring).recovering(recovery))
            .seed(11)
            .config(config);
        let result = scenario.execute_jobs(&spec).unwrap();
        assert!(
            result.job_audit.is_empty(),
            "{}: {:?}",
            policy.label(),
            result.job_audit
        );
        assert_eq!(result.sim.audit.as_deref(), Some(&[][..]));
        for j in &result.jobs {
            assert!(
                (j.completed - j.size).abs() <= WORK_TOL * j.size,
                "{} job {}: completed {} of {} (lost {})",
                policy.label(),
                j.job,
                j.completed,
                j.size,
                j.lost
            );
            assert!(
                (j.dispatched - j.completed - j.lost).abs() <= WORK_TOL * j.size,
                "{} job {}: ledger leak",
                policy.label(),
                j.job
            );
            assert!(j.stretch.unwrap() >= 1.0 - EPS);
        }
    }
}

/// Speed revelation composes with the multi-load layer: realized rates
/// slower than declared stretch responses but never break the audits or
/// the (declared-platform-free) conservation ledger.
#[test]
fn speed_revelation_composes_with_multi_load() {
    let scenario = Scenario::table1(8, 1.5, 0.2, 0.2, 0.0);
    let mut config = audited();
    config.speeds = SpeedModel::Adversarial {
        fraction: 0.25,
        slowdown: 2.0,
    };
    let spec = MultiRunSpec::new(MultiPolicy::RoundRobin)
        .job(MultiJob::new(0.0, 300.0, SchedulerKind::Factoring))
        .job(MultiJob::new(25.0, 150.0, SchedulerKind::Factoring))
        .seed(3)
        .config(config);
    let result = scenario.execute_jobs(&spec).unwrap();
    assert!(result.job_audit.is_empty(), "{:?}", result.job_audit);
    assert_eq!(result.sim.audit.as_deref(), Some(&[][..]));
    for j in &result.jobs {
        assert!((j.completed - j.size).abs() <= WORK_TOL * j.size);
        // The declared-platform bound still holds: realized speeds are
        // only ever slower.
        assert!(j.stretch.unwrap() >= 1.0 - EPS);
    }
}

/// The panic-vs-refusal contract: refusal-inducing inputs produce a typed
/// [`PlanError`] from every scheduler kind — uniformly, never a panic and
/// never a kind-dependent failure mode.
#[test]
fn invalid_inputs_refuse_with_typed_errors_for_every_kind() {
    let platform = Scenario::table1(4, 1.5, 0.2, 0.2, 0.0).platform;
    let kinds = [
        SchedulerKind::Rumr(RumrConfig::default()),
        SchedulerKind::Umr,
        SchedulerKind::Mi { installments: 2 },
        SchedulerKind::Factoring,
        SchedulerKind::Fsc { error: 0.2 },
        SchedulerKind::EqualStatic,
        SchedulerKind::SelfScheduling { unit: 10.0 },
        SchedulerKind::HetUmr,
        SchedulerKind::AdaptiveRumr,
        SchedulerKind::HetRumr(RumrConfig::default()),
        SchedulerKind::OneRound,
        SchedulerKind::Gss,
        SchedulerKind::Tss,
    ];
    for kind in kinds {
        for w in [0.0, -10.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = match kind.build(&platform, w) {
                Err(e) => e,
                Ok(_) => panic!("{kind:?} on w={w}: must refuse"),
            };
            assert!(
                matches!(e, rumr::BuildError::Plan(PlanError::InvalidWorkload { .. })),
                "{kind:?} on w={w}: wrong error {e}"
            );
            assert!(kind.prototype(&platform, w).is_err(), "{kind:?} prototype");
            assert!(kind.oracle(&platform, w).is_err(), "{kind:?} oracle");
        }
    }
    // Parameterized kinds refuse their own bad parameters the same way.
    for (kind, param) in [
        (SchedulerKind::SelfScheduling { unit: 0.0 }, "unit"),
        (SchedulerKind::SelfScheduling { unit: f64::NAN }, "unit"),
        (SchedulerKind::Fsc { error: f64::NAN }, "error"),
        (SchedulerKind::Fsc { error: -0.5 }, "error"),
    ] {
        let e = match kind.build(&platform, 100.0) {
            Err(e) => e,
            Ok(_) => panic!("{kind:?}: must refuse"),
        };
        match e {
            rumr::BuildError::Plan(PlanError::InvalidParameter { param: p, .. }) => {
                assert_eq!(p, param, "{kind:?}")
            }
            other => panic!("{kind:?}: wrong error {other}"),
        }
    }
}

/// Multi-load spec validation is typed too: bad releases/sizes and a
/// non-serial master refuse before any planner runs.
#[test]
fn multi_spec_validation_refuses_typed() {
    let scenario = Scenario::table1(4, 1.5, 0.2, 0.2, 0.0);
    let bad_specs = [
        MultiRunSpec::new(MultiPolicy::FifoExclusive),
        MultiRunSpec::new(MultiPolicy::RoundRobin).job(MultiJob::new(
            f64::NAN,
            100.0,
            SchedulerKind::Umr,
        )),
        MultiRunSpec::new(MultiPolicy::FairShare).job(MultiJob::new(0.0, -5.0, SchedulerKind::Umr)),
        MultiRunSpec::new(MultiPolicy::FifoExclusive).job(MultiJob::new(
            0.0,
            f64::INFINITY,
            SchedulerKind::Umr,
        )),
    ];
    for spec in bad_specs {
        match scenario.execute_jobs(&spec) {
            Err(rumr::RunError::Build(rumr::BuildError::Plan(_))) => {}
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
}
