//! Cross-crate integration tests: every scheduler running end-to-end on the
//! simulator, checked for conservation, trace validity, and agreement with
//! the analytic models.

use rumr::{RumrConfig, RunSpec, Scenario, SchedulerKind, TraceMode};

fn all_kinds(error: f64) -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::rumr_known_error(error),
        SchedulerKind::Rumr(RumrConfig::default()),
        SchedulerKind::rumr_plain_phase1(error),
        SchedulerKind::rumr_fixed_fraction(0.7, Some(error)),
        SchedulerKind::Umr,
        SchedulerKind::Mi { installments: 1 },
        SchedulerKind::Mi { installments: 3 },
        SchedulerKind::Factoring,
        SchedulerKind::Fsc { error },
        SchedulerKind::EqualStatic,
        SchedulerKind::SelfScheduling { unit: 20.0 },
        SchedulerKind::HetUmr,
    ]
}

#[test]
fn every_scheduler_conserves_workload_and_validates() {
    for (n, r, clat, nlat, error) in [
        (10, 1.5, 0.2, 0.1, 0.0),
        (10, 1.5, 0.2, 0.1, 0.3),
        (20, 1.2, 0.0, 0.6, 0.5),
        (5, 2.0, 1.0, 1.0, 0.15),
    ] {
        let scenario = Scenario::table1(n, r, clat, nlat, error);
        for kind in all_kinds(error) {
            let result = scenario
                .execute(&RunSpec::new(kind).seed(11).trace_mode(TraceMode::Full))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(
                (result.completed_work() - 1000.0).abs() < 1e-6,
                "{kind} on N={n} r={r} cLat={clat} nLat={nlat} e={error}: completed {}",
                result.completed_work()
            );
            let trace = result.trace.expect("trace recorded");
            let violations = trace.validate(n);
            assert!(
                violations.is_empty(),
                "{kind}: trace violations {violations:?}"
            );
            assert!(result.makespan > 0.0);
            // Physical floor: total workload must cross the master's link.
            let lb = scenario.platform.makespan_lower_bound(1000.0);
            // Effective durations can undershoot predictions by the error
            // distribution's support, so scale the bound accordingly.
            let slack = 1.0 - 4.0 * error;
            if slack > 0.0 {
                assert!(
                    result.makespan > lb * slack * 0.5,
                    "{kind}: makespan {} below physical floor {}",
                    result.makespan,
                    lb
                );
            }
        }
    }
}

/// A Table 1 star keeps `O(N)` events pending: at most one computation end
/// per worker plus the one transfer's setup and pool check (`tLat = 0`, so
/// an arrival fires at the instant its send ends). Peaks measured over the
/// full Table 1 grid for the paper's competitors reach exactly `N + 2`.
#[test]
fn pending_event_depth_is_linear_in_workers() {
    for n in [10, 30, 50] {
        for (r, clat, nlat) in [(1.2, 0.0, 0.0), (1.6, 0.3, 0.6), (2.0, 1.0, 1.0)] {
            for error in [0.0, 0.3] {
                let scenario = Scenario::table1(n, r, clat, nlat, error);
                for kind in all_kinds(error) {
                    let spec = RunSpec::new(kind)
                        .seed(5)
                        .trace_mode(TraceMode::MetricsOnly);
                    let result = scenario.execute(&spec).unwrap();
                    let peak = result.metrics.unwrap().event_counts.peak_pending;
                    assert!(
                        (1..=n as u64 + 2).contains(&peak),
                        "{kind} on N={n} r={r} cLat={clat} nLat={nlat} e={error}: peak {peak}"
                    );
                }
            }
        }
    }
}

#[test]
fn rumr_equals_umr_without_error_everywhere() {
    for (n, r, clat, nlat) in [
        (10, 1.5, 0.3, 0.3),
        (15, 1.3, 0.0, 0.8),
        (30, 2.0, 0.7, 0.0),
    ] {
        let scenario = Scenario::table1(n, r, clat, nlat, 0.0);
        let rumr = scenario
            .execute(&RunSpec::new(SchedulerKind::rumr_known_error(0.0)))
            .unwrap();
        let umr = scenario.execute(&RunSpec::new(SchedulerKind::Umr)).unwrap();
        assert_eq!(rumr.num_chunks, umr.num_chunks);
        assert!((rumr.makespan - umr.makespan).abs() < 1e-9);
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let scenario = Scenario::table1(12, 1.7, 0.4, 0.2, 0.35);
    for kind in all_kinds(0.35) {
        let a = scenario.execute(&RunSpec::new(kind).seed(99)).unwrap();
        let b = scenario.execute(&RunSpec::new(kind).seed(99)).unwrap();
        assert_eq!(a.makespan, b.makespan, "{kind} not deterministic");
        assert_eq!(a.num_chunks, b.num_chunks);
    }
}

#[test]
fn umr_simulation_matches_analytic_makespan() {
    use rumr::{UmrInputs, UmrSchedule};
    for (n, r, clat, nlat) in [(10, 1.5, 0.4, 0.2), (25, 1.9, 0.1, 0.6)] {
        let scenario = Scenario::table1(n, r, clat, nlat, 0.0);
        let inputs = UmrInputs::from_platform(&scenario.platform, 1000.0).unwrap();
        let schedule = UmrSchedule::solve(inputs).unwrap();
        let result = scenario.execute(&RunSpec::new(SchedulerKind::Umr)).unwrap();
        let predicted = schedule.predicted_makespan();
        assert!(
            (result.makespan - predicted).abs() < 1e-6 * predicted,
            "sim {} vs analytic {}",
            result.makespan,
            predicted
        );
    }
}

#[test]
fn robustness_ordering_at_high_error() {
    // The paper's central claim, at one representative low-latency point:
    // with large prediction errors, RUMR beats plain UMR on average, and
    // both beat the naive static split.
    let error = 0.45;
    let scenario = Scenario::table1(20, 1.6, 0.2, 0.1, error);
    let reps = 40;
    let rumr = scenario
        .execute_mean(&RunSpec::new(SchedulerKind::rumr_known_error(error)).reps(reps))
        .unwrap();
    let umr = scenario
        .execute_mean(&RunSpec::new(SchedulerKind::Umr).seed(1000).reps(reps))
        .unwrap();
    let eq = scenario
        .execute_mean(
            &RunSpec::new(SchedulerKind::EqualStatic)
                .seed(2000)
                .reps(reps),
        )
        .unwrap();
    assert!(
        rumr < umr,
        "RUMR {rumr} should beat UMR {umr} at error {error}"
    );
    assert!(umr < eq, "UMR {umr} should beat EqualStatic {eq}");
}

#[test]
fn performance_ordering_without_error() {
    // With exact predictions on a latency-laden platform, UMR (and RUMR,
    // which equals it) must beat the one-round and self-scheduling
    // baselines.
    let scenario = Scenario::table1(10, 1.4, 0.4, 0.3, 0.0);
    let umr = scenario
        .execute(&RunSpec::new(SchedulerKind::Umr))
        .unwrap()
        .makespan;
    let mi1 = scenario
        .execute(&RunSpec::new(SchedulerKind::Mi { installments: 1 }))
        .unwrap()
        .makespan;
    let eq = scenario
        .execute(&RunSpec::new(SchedulerKind::EqualStatic))
        .unwrap()
        .makespan;
    let selfs = scenario
        .execute(&RunSpec::new(SchedulerKind::SelfScheduling { unit: 10.0 }))
        .unwrap()
        .makespan;
    assert!(umr < mi1, "UMR {umr} vs MI-1 {mi1}");
    assert!(umr < eq, "UMR {umr} vs EqualStatic {eq}");
    assert!(umr < selfs, "UMR {umr} vs SelfSched {selfs}");
}

#[test]
fn workload_crate_plugs_into_scheduling() {
    use dls_workloads::{DivisibleApp, ImageFeatureExtraction};
    let image = ImageFeatureExtraction::generate(40, 25, 6, 3.0, 5);
    let platform = rumr::HomogeneousParams::table1(8, 1.5, 0.2, 0.1)
        .build()
        .unwrap();
    let scenario = image.scenario(platform);
    let result = scenario
        .execute(&RunSpec::new(image.recommended()).seed(3))
        .unwrap();
    assert!((result.completed_work() - image.total_units()).abs() < 1e-6);
}

#[test]
fn uniform_error_model_behaves_like_normal() {
    // The paper: "we also ran all the experiments under a uniformly
    // distributed error model, but our results were essentially similar."
    let error = 0.4;
    let mut normal_scenario = Scenario::table1(15, 1.6, 0.3, 0.2, error);
    let mut uniform_scenario = normal_scenario.clone();
    normal_scenario.error_model = rumr::ErrorModel::TruncatedNormal { error };
    uniform_scenario.error_model = rumr::ErrorModel::Uniform { error };
    let kind = SchedulerKind::rumr_known_error(error);
    let reps = 40;
    let spec = RunSpec::new(kind).reps(reps);
    let a = normal_scenario.execute_mean(&spec).unwrap();
    let b = uniform_scenario.execute_mean(&spec).unwrap();
    let ratio = a / b;
    assert!(
        (0.9..1.1).contains(&ratio),
        "normal {a} vs uniform {b}: ratio {ratio}"
    );
}
