//! Audit-subsystem properties: the streaming invariant checker passes
//! every legitimate run and the analytic oracles bound every error-free
//! makespan — across random scenarios and all scheduler kinds — while a
//! corrupted event stream reliably trips the checker.

use proptest::prelude::*;
use rumr::sim::{InvariantChecker, InvariantKind, LostStage, TraceEvent, WorkLedger};
use rumr::{
    FaultModel, FaultPlan, Prediction, RunSpec, Scenario, SchedulerKind, SimConfig, TraceMode,
};

/// Random-but-sane Table-1-style scenario (kept small for debug builds).
fn scenario_strategy() -> impl Strategy<Value = (Scenario, f64)> {
    (
        2usize..=8,       // workers
        1.1f64..=3.0,     // bandwidth ratio
        0.0f64..=0.8,     // cLat
        0.0f64..=0.8,     // nLat
        0.0f64..=0.6,     // error
        100.0f64..=400.0, // workload
    )
        .prop_map(|(n, ratio, clat, nlat, error, w)| {
            let mut s = Scenario::table1(n, ratio, clat, nlat, error);
            s.w_total = w;
            (s, error)
        })
}

fn kinds(error: f64) -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::rumr_known_error(error),
        SchedulerKind::AdaptiveRumr,
        SchedulerKind::HetRumr(rumr::RumrConfig::with_known_error(error)),
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
    ]
}

fn audited(mode: TraceMode, faults: FaultModel) -> SimConfig {
    SimConfig {
        trace_mode: mode,
        faults,
        audit: true,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scheduler kind, audited under `MetricsOnly` (no stored
    /// trace): the streaming checker must return zero findings, fault-free
    /// and under a crash/recover fault plan.
    #[test]
    fn audited_runs_have_zero_findings(
        (scenario, error) in scenario_strategy(),
        seed in 0u64..1000,
    ) {
        let n = scenario.platform.num_workers();
        let plans = [
            FaultModel::None,
            FaultModel::Plan(
                FaultPlan::new()
                    .crash_recover(10.0, n / 2, 15.0)
                    .crash(18.0, 0),
            ),
        ];
        for faults in plans {
            for kind in kinds(error) {
                let r = scenario
                    .execute(
                        &RunSpec::new(kind)
                            .seed(seed)
                            .config(audited(TraceMode::MetricsOnly, faults.clone())),
                    )
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                prop_assert!(r.trace.is_none(), "{kind}: MetricsOnly stores no trace");
                let findings = r.audit.as_ref().expect("audit was enabled");
                prop_assert!(
                    findings.is_empty(),
                    "{kind} ({faults:?}): {findings:?}"
                );
            }
        }
    }

    /// On an error-free run every closed-form oracle must hold: the plan
    /// accounts for the whole workload, and the simulated makespan matches
    /// an exact model within its tolerance / never beats a lower bound.
    #[test]
    fn oracles_bound_error_free_runs(
        (mut scenario, _) in scenario_strategy(),
        seed in 0u64..1000,
    ) {
        scenario.error_model = rumr::ErrorModel::None;
        let w = scenario.w_total;
        for kind in kinds(0.0) {
            let oracle = match kind.oracle(&scenario.platform, w) {
                Ok(Some(o)) => o,
                Ok(None) => continue,
                Err(e) => panic!("{kind}: oracle construction failed: {e}"),
            };
            prop_assert!(
                (oracle.planned_work() - w).abs() <= 1e-6 * w,
                "{kind}: plan accounts for {} of {w}",
                oracle.planned_work()
            );
            let r = scenario
                .execute(
                    &RunSpec::new(kind)
                        .seed(seed)
                        .config(audited(TraceMode::Off, FaultModel::None)),
                )
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let prediction = oracle.makespan();
            prop_assert!(
                prediction.within(r.makespan),
                "{kind}: simulated {} vs {:?} (residual {:?})",
                r.makespan,
                prediction,
                prediction.residual(r.makespan)
            );
            if let Prediction::Unavailable = prediction {
                // Dynamic plans: accounting was the whole check.
                continue;
            }
        }
    }
}

/// Broken-engine fixture: corrupting a legitimate event stream in
/// characteristic ways must trip the checker — this is the proof that the
/// zero-findings property above is not vacuous.
#[test]
fn corrupted_streams_trip_the_checker() {
    // A legitimate two-worker stream (mirrors the engine's serial sends).
    let good = [
        TraceEvent::SendStart {
            worker: 0,
            chunk: 5.0,
            time: 0.0,
        },
        TraceEvent::SendEnd {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        },
        TraceEvent::Arrival {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        },
        TraceEvent::SendStart {
            worker: 1,
            chunk: 5.0,
            time: 1.0,
        },
        TraceEvent::ComputeStart {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        },
        TraceEvent::SendEnd {
            worker: 1,
            chunk: 5.0,
            time: 2.0,
        },
        TraceEvent::Arrival {
            worker: 1,
            chunk: 5.0,
            time: 2.0,
        },
        TraceEvent::ComputeStart {
            worker: 1,
            chunk: 5.0,
            time: 2.0,
        },
        TraceEvent::ComputeEnd {
            worker: 0,
            chunk: 5.0,
            time: 6.0,
        },
        TraceEvent::ComputeEnd {
            worker: 1,
            chunk: 5.0,
            time: 7.0,
        },
    ];
    let ledger = WorkLedger {
        dispatched: 10.0,
        completed: 10.0,
        lost: 0.0,
        outstanding: 0.0,
    };

    // Sanity: the uncorrupted stream is clean.
    let mut checker = InvariantChecker::new(2, 1);
    for e in &good {
        checker.observe(e);
    }
    assert!(checker.finalize(ledger).is_empty());

    // Each corruption (drop one load-bearing event) must produce at least
    // one finding of the expected kind.
    let corruptions: [(usize, InvariantKind); 4] = [
        (1, InvariantKind::MasterOccupation), // SendEnd dropped → overlap
        (2, InvariantKind::Causality),        // Arrival dropped → compute w/o chunk
        (4, InvariantKind::SerialCompute),    // ComputeStart dropped → end w/o start
        (8, InvariantKind::LedgerMismatch),   // ComputeEnd dropped → stream ≠ ledger
    ];
    for (drop, expected) in corruptions {
        let mut checker = InvariantChecker::new(2, 1);
        for (i, e) in good.iter().enumerate() {
            if i != drop {
                checker.observe(e);
            }
        }
        let findings = checker.finalize(ledger);
        assert!(
            findings.iter().any(|f| f.kind == expected),
            "dropping event {drop} should produce {expected:?}, got {findings:?}"
        );
    }

    // A phantom loss (stage never reached) and an engine whose ledger
    // disagrees with its own stream are also caught.
    let mut checker = InvariantChecker::new(2, 1);
    for e in &good {
        checker.observe(e);
    }
    checker.observe(&TraceEvent::ChunkLost {
        worker: 0,
        chunk: 5.0,
        stage: LostStage::Queued,
        time: 8.0,
    });
    let findings = checker.finalize(WorkLedger {
        dispatched: 10.0,
        completed: 10.0,
        lost: 0.0,
        outstanding: 0.0,
    });
    assert!(
        findings.iter().any(|f| f.kind == InvariantKind::Causality),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.kind == InvariantKind::LedgerMismatch),
        "lost 5.0 in the stream but ledger says 0: {findings:?}"
    );
}

/// Regression: a transfer-pool residue just above the completion epsilon
/// whose send time is below half an ulp of the clock (MI-3 at t ≈ 133, a
/// leftover of ~1.1e-9 units at rate ~7.7e4) used to queue its completion
/// check at exactly `now`, integrate zero progress and spin until the
/// event limit. It must complete like any drained transfer.
#[test]
fn sub_ulp_transfer_residue_completes() {
    let scenario = Scenario::table1(50, 1.6, 0.0, 1.0, 0.45);
    let spec = RunSpec::new(SchedulerKind::Mi { installments: 3 })
        .seed(11102451)
        .config(audited(TraceMode::MetricsOnly, FaultModel::None));
    let result = scenario.execute(&spec).expect("run terminates");
    assert_eq!(result.num_chunks, 150);
    assert_eq!(result.events, 600);
    assert_eq!(result.audit.as_deref(), Some(&[][..]));
}
