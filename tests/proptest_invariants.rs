//! Property-based invariants over random platforms, workloads, and error
//! magnitudes: conservation, trace validity, schedule structure.

use proptest::prelude::*;
use rumr::{RunSpec, Scenario, SchedulerKind, TraceMode};

/// Random-but-sane Table-1-style scenario. Kept small so the full property
/// suite runs quickly in debug builds.
fn scenario_strategy() -> impl Strategy<Value = (Scenario, f64)> {
    (
        2usize..=8,      // workers
        1.1f64..=3.0,    // bandwidth ratio
        0.0f64..=1.0,    // cLat
        0.0f64..=1.0,    // nLat
        0.0f64..=0.6,    // error
        50.0f64..=400.0, // workload
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
        SchedulerKind::Mi { installments: 2 },
        SchedulerKind::OneRound,
        SchedulerKind::Factoring,
        SchedulerKind::Fsc { error },
        SchedulerKind::Gss,
        SchedulerKind::Tss,
        SchedulerKind::EqualStatic,
    ]
}

/// MI's conditions (`crates/sched/src/mi.rs`), each within 1e-12 of its
/// own terms: no worker idles between installments, all finish the last
/// one together, and the chunks, each a positive normal f64, sum to `w`.
fn mi_conditions_hold(
    s: &rumr::sched::MiSchedule,
    speed: f64,
    bandwidth: f64,
    w: f64,
) -> Result<(), TestCaseError> {
    let c = s.chunks();
    let x = c.len();
    let n = c[0].len();
    let holds = |lhs: f64, rhs: f64| (lhs - rhs).abs() <= 1e-12 * (lhs + rhs);
    for j in 0..x {
        for i in 0..n {
            if j + 1 < x {
                let sent: f64 = c[j][i + 1..].iter().chain(&c[j + 1][..=i]).sum();
                prop_assert!(
                    holds(c[j][i] / speed, sent / bandwidth),
                    "no-idle ({j},{i}): {} vs {}",
                    c[j][i] / speed,
                    sent / bandwidth
                );
            } else if i + 1 < n {
                let next = c[j][i + 1];
                prop_assert!(
                    holds(c[j][i] / speed, next / bandwidth + next / speed),
                    "equal finish ({j},{i}): {} vs {}",
                    c[j][i] / speed,
                    next / bandwidth + next / speed
                );
            }
        }
    }
    for &chunk in c.iter().flatten() {
        prop_assert!(chunk.is_normal() && chunk > 0.0, "chunk {chunk}");
    }
    let total: f64 = c.iter().flatten().sum();
    prop_assert!((total - w).abs() <= 1e-12 * w, "sum {total} vs {w}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every scheduler processes exactly the workload it was given, and the
    /// execution trace satisfies the platform's physical invariants.
    #[test]
    fn conservation_and_valid_traces((scenario, error) in scenario_strategy(), seed in 0u64..1000) {
        for kind in kinds(error) {
            let result = scenario
                .execute(&RunSpec::new(kind).seed(seed).trace_mode(TraceMode::Full))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            prop_assert!(
                (result.completed_work() - scenario.w_total).abs() < 1e-6 * scenario.w_total,
                "{} completed {} of {}", kind, result.completed_work(), scenario.w_total
            );
            let n = scenario.platform.num_workers();
            let trace = result.trace.expect("trace recorded");
            let violations = trace.validate(n);
            prop_assert!(violations.is_empty(), "{}: {:?}", kind, violations);
        }
    }

    /// Makespan is invariant under re-running with the same seed and is
    /// finite and positive.
    #[test]
    fn determinism((scenario, error) in scenario_strategy(), seed in 0u64..1000) {
        let kind = SchedulerKind::rumr_known_error(error);
        let a = scenario.execute(&RunSpec::new(kind).seed(seed)).unwrap().makespan;
        let b = scenario.execute(&RunSpec::new(kind).seed(seed)).unwrap().makespan;
        prop_assert_eq!(a, b);
        prop_assert!(a.is_finite() && a > 0.0);
    }

    /// RUMR with error estimate 0 is exactly UMR.
    #[test]
    fn rumr_zero_error_is_umr((scenario, _) in scenario_strategy()) {
        let mut s = scenario;
        s.error_model = rumr::ErrorModel::None;
        let a = s.execute(&RunSpec::new(SchedulerKind::rumr_known_error(0.0))).unwrap();
        let b = s.execute(&RunSpec::new(SchedulerKind::Umr)).unwrap();
        prop_assert_eq!(a.num_chunks, b.num_chunks);
        prop_assert!((a.makespan - b.makespan).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation and trace validity hold under the concurrent-transfer
    /// and output-data engine extensions too.
    #[test]
    fn extensions_conserve_and_validate(
        (scenario, error) in scenario_strategy(),
        seed in 0u64..500,
        max_sends in 1usize..=4,
        output_pct in 0u8..=100,
        capped in proptest::bool::ANY,
    ) {
        use rumr::SimConfig;
        let capacity = capped.then(|| scenario.platform.worker(0).bandwidth * 0.8);
        let config = SimConfig {
            trace_mode: TraceMode::Full,
            max_concurrent_sends: max_sends,
            uplink_capacity: capacity,
            output_ratio: output_pct as f64 / 100.0,
            ..Default::default()
        };
        for kind in [SchedulerKind::rumr_known_error(error), SchedulerKind::Factoring] {
            let result = scenario
                .execute(&RunSpec::new(kind).seed(seed).config(config.clone()))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            prop_assert!(
                (result.completed_work() - scenario.w_total).abs() < 1e-6 * scenario.w_total,
                "{}: completed {}", kind, result.completed_work()
            );
            let expected_returns = scenario.w_total * output_pct as f64 / 100.0;
            prop_assert!(
                (result.returned_work - expected_returns).abs() < 1e-6 * scenario.w_total.max(1.0),
                "{}: returned {} of {}", kind, result.returned_work, expected_returns
            );
            let n = scenario.platform.num_workers();
            let trace = result.trace.expect("trace recorded");
            let violations = trace.validate_with_concurrency(n, max_sends);
            prop_assert!(violations.is_empty(), "{}: {:?}", kind, violations);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under seeded Poisson faults the work ledger balances exactly —
    /// dispatched = completed + lost + outstanding — and the trace (with
    /// its fault events) still satisfies every platform invariant. Runs
    /// both the raw scheduler (under-completes on crash-stop) and the
    /// recovery wrapper. Debug builds additionally exercise the engine's
    /// internal conservation `debug_assert` on every one of these runs.
    #[test]
    fn fault_conservation_and_valid_traces(
        (scenario, error) in scenario_strategy(),
        seed in 0u64..500,
        fault_seed in 0u64..500,
        mttf in 20.0f64..=200.0,
        recover in proptest::bool::ANY,
        wrap in proptest::bool::ANY,
    ) {
        use rumr::{FaultModel, PoissonFaults, RecoveryConfig, SimConfig};
        let faults = if recover {
            PoissonFaults::crash_recovery(mttf, mttf / 4.0, 20_000.0, fault_seed)
        } else {
            PoissonFaults::crash_stop(mttf, 20_000.0, fault_seed)
        };
        let config = SimConfig {
            trace_mode: TraceMode::Full,
            faults: FaultModel::Poisson(faults),
            ..Default::default()
        };
        let kind = SchedulerKind::rumr_known_error(error);
        let mut spec = RunSpec::new(kind).seed(seed).config(config);
        if wrap {
            spec = spec.recovering(RecoveryConfig::default());
        }
        let result = scenario.execute(&spec).unwrap_or_else(|e| panic!("{e}"));
        prop_assert!(
            result.conservation_residual().abs() <= 1e-6 * result.dispatched_work.abs().max(1.0),
            "ledger residual {} (dispatched {}, lost {}, outstanding {})",
            result.conservation_residual(), result.dispatched_work,
            result.lost_work, result.outstanding_work
        );
        prop_assert!(
            result.completed_work() <= scenario.w_total * (1.0 + 1e-6),
            "completed more than the workload: {}", result.completed_work()
        );
        let n = scenario.platform.num_workers();
        let trace = result.trace.expect("trace recorded");
        let violations = trace.validate(n);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The UMR chunk sequence satisfies the uniform-round recursion and the
    /// workload constraint for arbitrary valid inputs.
    #[test]
    fn umr_schedule_structure(
        n in 2usize..=32,
        ratio in 1.05f64..=3.0,
        clat in 0.0f64..=2.0,
        nlat in 0.0f64..=2.0,
        w in 10.0f64..=5000.0,
    ) {
        use rumr::{UmrInputs, UmrSchedule};
        let platform = rumr::HomogeneousParams::table1(n, ratio, clat, nlat).build().unwrap();
        let inputs = UmrInputs::from_platform(&platform, w).unwrap();
        let schedule = UmrSchedule::solve(inputs).unwrap();
        let chunks = schedule.round_chunks();
        prop_assert!(!chunks.is_empty());
        // All chunks strictly positive.
        for &c in chunks {
            prop_assert!(c > 0.0, "non-positive chunk in {:?}", chunks);
        }
        // Conservation.
        let total: f64 = chunks.iter().sum::<f64>() * n as f64;
        prop_assert!((total - w).abs() < 1e-6 * w, "sum {} vs {}", total, w);
        // Uniform-round recursion between consecutive rounds (the last
        // round absorbs the floating-point residual, so skip the final
        // pair's check when M > 1 only if it was adjusted; tolerance covers
        // it).
        let theta = inputs.theta();
        let eta = inputs.eta();
        for w2 in chunks.windows(2).take(chunks.len().saturating_sub(2)) {
            let expected = theta * w2[0] + eta;
            prop_assert!(
                (w2[1] - expected).abs() < 1e-6 * (1.0 + expected.abs()),
                "recursion violated: {} -> {} (expected {})", w2[0], w2[1], expected
            );
        }
    }

    /// Factoring chunk sequences are non-increasing and conserve workload.
    #[test]
    fn factoring_sequence_structure(
        n in 1usize..=32,
        w in 1.0f64..=5000.0,
        factor in 1.2f64..=4.0,
        min_chunk in 0.5f64..=20.0,
    ) {
        use dls_sched::{ChunkSource, FactoringSource};
        let mut source = FactoringSource::new(w, n, factor, min_chunk);
        let mut chunks = Vec::new();
        while let Some(c) = source.next_chunk() {
            prop_assert!(c > 0.0);
            chunks.push(c);
            prop_assert!(chunks.len() < 100_000, "sequence does not terminate");
        }
        let total: f64 = chunks.iter().sum();
        prop_assert!((total - w).abs() < 1e-6 * w.max(1.0));
        // Non-increasing, except that the final balanced batch (at most n
        // chunks) may bounce back up: it splits the remainder into the
        // largest bound-respecting chunk count, so its chunks land in
        // [bound, 2·bound) and can overshoot an opening chunk that was
        // already near the bound.
        let body = chunks.len().saturating_sub(n);
        for pair in chunks[..body.max(1)].windows(2) {
            prop_assert!(pair[1] <= pair[0] + 1e-9, "increasing chunks: {:?}", pair);
        }
        let floor = min_chunk.max(1.0);
        if let Some(&first) = chunks.first() {
            for &c in &chunks[body..] {
                prop_assert!(
                    c <= first.max(2.0 * floor) + 1e-9,
                    "tail chunk {} above first {} and above 2x the {} floor",
                    c, first, floor
                );
            }
        }
    }

    /// Pinned regression (from the checked-in proptest seed file): this
    /// parameter combination once produced an increasing chunk pair in the
    /// factoring tail. Kept as an explicit test so the case survives even
    /// if the regression file is pruned.
    #[test]
    fn factoring_regression_n6(_x in 0u8..1) {
        use dls_sched::{ChunkSource, FactoringSource};
        let (n, w, factor, min_chunk) = (6usize, 933.3110134737071f64, 1.2f64, 0.5f64);
        let mut source = FactoringSource::new(w, n, factor, min_chunk);
        let mut chunks = Vec::new();
        while let Some(c) = source.next_chunk() {
            prop_assert!(c > 0.0);
            chunks.push(c);
            prop_assert!(chunks.len() < 100_000);
        }
        let total: f64 = chunks.iter().sum();
        prop_assert!((total - w).abs() < 1e-6 * w);
        let body = chunks.len().saturating_sub(n);
        for pair in chunks[..body.max(1)].windows(2) {
            prop_assert!(pair[1] <= pair[0] + 1e-9, "increasing chunks: {:?}", pair);
        }
    }

    /// The RUMR phase split always partitions the workload and respects the
    /// paper's boundary rules.
    #[test]
    fn phase_split_partitions(
        w in 1.0f64..=10_000.0,
        n in 1usize..=64,
        clat in 0.0f64..=2.0,
        nlat in 0.0f64..=2.0,
        error in 0.0f64..=2.0,
    ) {
        use rumr::sched::{phase_split, RumrConfig};
        let cfg = RumrConfig::with_known_error(error);
        let split = phase_split(w, n, clat, nlat, &cfg);
        prop_assert!(split.w1 >= 0.0 && split.w2 >= 0.0);
        prop_assert!((split.w1 + split.w2 - w).abs() < 1e-9 * w);
        if error <= 0.0 {
            prop_assert_eq!(split.w2, 0.0);
        }
        if error >= 1.0 {
            prop_assert_eq!(split.w1, 0.0);
        }
        // The threshold rule: a non-empty phase 2 amortizes one round of
        // empty-chunk overhead per worker.
        if error > 0.0 && error < 1.0 && split.w2 > 0.0 {
            prop_assert!(split.w2 / n as f64 >= clat + nlat * n as f64 - 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every Table 1 platform gets the MI-x it asks for, at any workload,
    /// and the plan holds MI's conditions.
    #[test]
    fn mi_solves_every_table1_input(
        n in 1usize..=200,
        ratio in 1.0f64..=2.0,
        x in 1usize..=8,
        log_w in -3.0f64..=9.0,
    ) {
        let platform = rumr::HomogeneousParams::table1(n, ratio, 0.0, 0.0).build().unwrap();
        let w = 10f64.powf(log_w);
        match rumr::sched::MiSchedule::solve(&platform, w, x) {
            Ok(s) => mi_conditions_hold(&s, 1.0, ratio * n as f64, w)?,
            Err(e) => {
                let inputs = format!("n={n} ratio={ratio} x={x} w={w}");
                return Err(TestCaseError::fail(format!("{inputs}: {e}")));
            }
        }
    }

    /// On homogeneous platforms with S/B over seven decades, every plan MI
    /// returns satisfies each no-idle and equal-finish equation and the
    /// workload; a refusal is only ever `Infeasible`.
    #[test]
    fn mi_schedule_structure(
        n in 1usize..=200,
        log_s_over_b in -6.0f64..=1.0,
        log_speed in -1.0f64..=1.0,
        x in 1usize..=8,
        log_w in -3.0f64..=9.0,
    ) {
        let speed = 10f64.powf(log_speed);
        let bandwidth = speed / 10f64.powf(log_s_over_b);
        let spec = rumr::WorkerSpec {
            speed,
            bandwidth,
            comp_latency: 0.0,
            net_latency: 0.0,
            transfer_latency: 0.0,
        };
        let platform = rumr::Platform::homogeneous(n, spec).unwrap();
        let w = 10f64.powf(log_w);
        match rumr::sched::MiSchedule::solve(&platform, w, x) {
            Ok(s) => mi_conditions_hold(&s, speed, bandwidth, w)?,
            Err(rumr::sched::MiError::Infeasible { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        }
    }
}
