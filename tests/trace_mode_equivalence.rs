//! Trace-mode equivalence: observability must be free of behavior.
//!
//! The engine's `TraceMode` decides how much a run records, and the sweep
//! harness leans on `Off` for throughput — so these properties pin that
//! `Off` and `MetricsOnly` produce *bit-identical* results to `Full` for
//! every scheduler kind, with and without injected faults, across random
//! scenarios. Any divergence means recording leaked into simulation logic.
//! The runner-reuse tests at the end pin the same for the buffer-reusing
//! repetition path the sweep and the snapshot drive.

use proptest::prelude::*;
use rumr::{
    FaultModel, FaultPlan, PoissonFaults, RecoveryConfig, RunSpec, Scenario, SchedulerKind,
    SimConfig, SimResult, TraceMode,
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
    ]
}

fn config(mode: TraceMode, faults: &FaultModel) -> SimConfig {
    SimConfig {
        trace_mode: mode,
        faults: faults.clone(),
        ..Default::default()
    }
}

/// Compare every field of the result that describes *what happened* (as
/// opposed to what was recorded) bit-for-bit.
fn assert_results_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{label}: makespan differs: {} vs {}",
        a.makespan,
        b.makespan
    );
    assert_eq!(a.num_chunks, b.num_chunks, "{label}: num_chunks");
    assert_eq!(a.events, b.events, "{label}: event count");
    assert_eq!(
        a.dispatched_work.to_bits(),
        b.dispatched_work.to_bits(),
        "{label}: dispatched_work"
    );
    assert_eq!(
        a.lost_work.to_bits(),
        b.lost_work.to_bits(),
        "{label}: lost_work"
    );
    assert_eq!(a.lost_chunks, b.lost_chunks, "{label}: lost_chunks");
    assert_eq!(
        a.redispatched_work.to_bits(),
        b.redispatched_work.to_bits(),
        "{label}: redispatched_work"
    );
    assert_eq!(
        a.outstanding_work.to_bits(),
        b.outstanding_work.to_bits(),
        "{label}: outstanding_work"
    );
    assert_eq!(
        a.returned_work.to_bits(),
        b.returned_work.to_bits(),
        "{label}: returned_work"
    );
    assert_eq!(
        a.per_worker_work.len(),
        b.per_worker_work.len(),
        "{label}: worker count"
    );
    for (w, (x, y)) in a.per_worker_work.iter().zip(&b.per_worker_work).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: per_worker_work[{w}]");
    }
    for (w, (x, y)) in a.per_worker_busy.iter().zip(&b.per_worker_busy).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: per_worker_busy[{w}]");
    }
    assert_eq!(
        a.lost_ranges.len(),
        b.lost_ranges.len(),
        "{label}: lost_ranges"
    );
    for (i, ((s1, l1), (s2, l2))) in a.lost_ranges.iter().zip(&b.lost_ranges).enumerate() {
        assert_eq!(
            s1.to_bits(),
            s2.to_bits(),
            "{label}: lost_ranges[{i}].start"
        );
        assert_eq!(l1.to_bits(), l2.to_bits(), "{label}: lost_ranges[{i}].len");
    }
}

/// The incremental summaries of `MetricsOnly` and `Full` must agree too —
/// they are computed by the same code paths on the same event sequence.
fn assert_summaries_identical(a: &SimResult, b: &SimResult, label: &str) {
    let (ma, mb) = (
        a.metrics.as_ref().expect("summary recorded"),
        b.metrics.as_ref().expect("summary recorded"),
    );
    assert_eq!(ma.trace_events, mb.trace_events, "{label}: trace_events");
    assert_eq!(
        ma.link_busy.to_bits(),
        mb.link_busy.to_bits(),
        "{label}: link_busy"
    );
    assert_eq!(ma.num_gaps, mb.num_gaps, "{label}: num_gaps");
    for (w, (x, y)) in ma.per_worker_gap.iter().zip(&mb.per_worker_gap).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: per_worker_gap[{w}]");
    }
}

fn fault_plans(n: usize) -> Vec<FaultModel> {
    vec![
        FaultModel::None,
        // Crash one worker mid-run, recover it later, and drop another's
        // link once — exercises loss, recovery, and redispatch paths.
        FaultModel::Plan(
            FaultPlan::new()
                .crash_recover(10.0, n / 2, 15.0)
                .crash(18.0, 0),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Off` and `MetricsOnly` are bit-identical to `Full` for every
    /// scheduler kind, fault-free and under a crash/recover `FaultPlan`.
    #[test]
    fn trace_modes_never_change_results(
        (scenario, error) in scenario_strategy(),
        seed in 0u64..1000,
    ) {
        let n = scenario.platform.num_workers();
        for faults in fault_plans(n) {
            for kind in kinds(error) {
                let run = |mode: TraceMode| {
                    scenario
                        .execute(&RunSpec::new(kind).seed(seed).config(config(mode, &faults)))
                        .unwrap_or_else(|e| panic!("{kind}: {e}"))
                };
                let full = run(TraceMode::Full);
                let metrics_only = run(TraceMode::MetricsOnly);
                let off = run(TraceMode::Off);

                let label = format!("{kind} ({faults:?})");
                assert_results_identical(&off, &full, &label);
                assert_results_identical(&metrics_only, &full, &label);
                assert_summaries_identical(&metrics_only, &full, &label);
                prop_assert!(off.metrics.is_none(), "{label}: Off must not record a summary");
                prop_assert!(off.trace.is_none(), "{label}: Off must not record a trace");
                prop_assert!(metrics_only.trace.is_none(), "{label}: MetricsOnly must not record a trace");
                prop_assert!(full.trace.is_some(), "{label}: Full must record a trace");
            }
        }
    }

    /// Same property through the recovery wrapper (the path the faulty
    /// benchmark cases and the degradation sweep use).
    #[test]
    fn trace_modes_never_change_recovering_results(
        (scenario, error) in scenario_strategy(),
        seed in 0u64..1000,
    ) {
        let n = scenario.platform.num_workers();
        let faults = FaultModel::Plan(FaultPlan::new().crash_recover(8.0, n - 1, 12.0));
        let kind = SchedulerKind::rumr_known_error(error);
        let run = |mode: TraceMode| {
            scenario
                .execute(
                    &RunSpec::new(kind)
                        .seed(seed)
                        .config(config(mode, &faults))
                        .recovering(RecoveryConfig::default()),
                )
                .unwrap_or_else(|e| panic!("{kind}: {e}"))
        };
        let full = run(TraceMode::Full);
        let metrics_only = run(TraceMode::MetricsOnly);
        let off = run(TraceMode::Off);
        assert_results_identical(&off, &full, "recovering");
        assert_results_identical(&metrics_only, &full, "recovering");
        assert_summaries_identical(&metrics_only, &full, "recovering");
    }
}

/// The buffer-reusing runner and prototype path must also be bit-identical
/// to fresh builds — the sweep rides on this.
#[test]
fn runner_and_prototype_match_fresh_runs() {
    let scenario = Scenario::table1(10, 1.5, 0.2, 0.2, 0.3);
    let kind = SchedulerKind::rumr_known_error(0.3);
    let mut runner = scenario.runner(SimConfig::default());
    let proto = runner.prototype(&kind).unwrap();
    let spec = RunSpec::new(kind);
    let stamped_spec = spec.clone().with_prototype(proto);
    for seed in 0..20 {
        let fresh = scenario.execute(&spec.clone().seed(seed)).unwrap();
        let reused = runner.execute_at(&spec, seed).unwrap();
        let stamped = runner.execute_at(&stamped_spec, seed).unwrap();
        assert_results_identical(&reused, &fresh, "runner vs fresh");
        assert_results_identical(&stamped, &fresh, "prototype vs fresh");
    }
}

/// The event queue's storage must reach a fixed point under
/// `reset`/`run_reusing`: after warm-up reps size the heap, 100 further
/// repetitions of the same scenario may not grow it.
#[test]
fn event_queue_reset_reuse_does_not_grow() {
    let scenario = Scenario::table1(20, 1.6, 0.3, 0.2, 0.3);
    let kind = SchedulerKind::rumr_known_error(0.3);
    let cfg = SimConfig {
        faults: FaultModel::Poisson(PoissonFaults {
            mttf: 60.0,
            mttr: Some(15.0),
            link_mtbf: None,
            horizon: 2000.0,
            seed: 11,
        }),
        ..SimConfig::default()
    };
    let mut runner = scenario.runner(cfg.clone());
    let proto = runner.prototype(&kind).unwrap();
    let spec = RunSpec::new(kind)
        .config(cfg)
        .recovering(RecoveryConfig::default())
        .with_prototype(proto);
    // Warm-up: the first runs grow the heap to the run's peak depth, and
    // `reset` keeps that capacity.
    for _ in 0..3 {
        runner.execute_at(&spec, 7).unwrap();
    }
    let warm = runner.debug_queue_capacity();
    assert!(warm > 0, "probe must report event-queue storage");
    for rep in 0..100 {
        runner.execute_at(&spec, 7).unwrap();
        assert_eq!(
            runner.debug_queue_capacity(),
            warm,
            "event-queue storage grew at rep {rep}"
        );
    }
}

/// A spec with a pre-planned prototype attached is bit-identical to one
/// that plans per run — the snapshot's faulty cases lean on it to hoist
/// the planner out of the timed loop.
#[test]
fn recovering_prototype_matches_fresh_builds() {
    let scenario = Scenario::heterogeneous_demo(20, 0.3);
    let kind = SchedulerKind::HetUmr;
    let faults = FaultModel::Poisson(PoissonFaults {
        mttf: 60.0,
        mttr: Some(15.0),
        link_mtbf: None,
        horizon: 2000.0,
        seed: 11,
    });
    let cfg = SimConfig {
        faults,
        ..SimConfig::default()
    };
    let mut runner = scenario.runner(cfg.clone());
    let proto = runner.prototype(&kind).unwrap();
    let plain = RunSpec::new(kind)
        .config(cfg)
        .recovering(RecoveryConfig::default());
    let stamped_spec = plain.clone().with_prototype(proto);
    for seed in 0..10 {
        let fresh = runner.execute_at(&plain, seed).unwrap();
        let stamped = runner.execute_at(&stamped_spec, seed).unwrap();
        assert_eq!(
            fresh.makespan.to_bits(),
            stamped.makespan.to_bits(),
            "seed {seed}: prototype path changed the makespan"
        );
        assert_eq!(fresh.events, stamped.events, "seed {seed}: event count");
    }
}
