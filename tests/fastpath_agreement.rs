//! Analytic fast path vs engine: the agreement battery.
//!
//! [`FastPath::resolve`] claims that for deterministic, model-conforming
//! runs the oracle closed forms already know the engine's answer. These
//! tests pin that claim across every scheduler kind: whenever the
//! resolver takes a run, the engine must agree
//! within the oracle's stated tolerance; whenever it declines, the reason
//! must be the first failed eligibility condition.

use dls_sched::{
    FactoringOracle, HetUmr, HetUmrOracle, MiOracle, MultiInstallment, OneRound, OneRoundOracle,
    Oracle, Prediction, Rumr, RumrOracle, Umr, UmrOracle,
};
use proptest::prelude::*;
use rumr::{
    FastPath, FastPathDecision, FastPathMiss, Platform, RumrConfig, RunSpec, Scenario,
    SchedulerKind, WorkerSpec,
};

/// Every scheduler kind the service can be asked for (all 13 variants).
fn all_kinds(error: f64) -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::rumr_known_error(error),
        SchedulerKind::Umr,
        SchedulerKind::Mi { installments: 2 },
        SchedulerKind::Factoring,
        SchedulerKind::Fsc { error },
        SchedulerKind::EqualStatic,
        SchedulerKind::SelfScheduling { unit: 20.0 },
        SchedulerKind::HetUmr,
        SchedulerKind::AdaptiveRumr,
        SchedulerKind::HetRumr(RumrConfig::with_known_error(error)),
        SchedulerKind::OneRound,
        SchedulerKind::Gss,
        SchedulerKind::Tss,
    ]
}

/// Random-but-sane error-free Table-1-style scenario (the fast path's
/// home turf; heterogeneous platforms get their own spot test because
/// the homogeneous-only planners reject them at build time).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        2usize..=8,       // workers
        1.1f64..=3.0,     // bandwidth ratio
        0.0f64..=0.8,     // cLat
        0.0f64..=0.8,     // nLat
        100.0f64..=400.0, // workload
    )
        .prop_map(|(n, ratio, clat, nlat, w)| {
            let mut s = Scenario::table1(n, ratio, clat, nlat, 0.0);
            s.w_total = w;
            s
        })
}

/// A Table 1 platform (`skew == 0`) or a heterogeneous star whose worker
/// speeds, links and latencies spread with `skew`, plus a workload.
fn platform_strategy() -> impl Strategy<Value = (Platform, f64)> {
    (
        2usize..=8,       // workers
        1.1f64..=3.0,     // bandwidth ratio
        0.0f64..=0.8,     // cLat
        0.0f64..=0.8,     // nLat
        100.0f64..=400.0, // workload
        0u32..3,          // 0: homogeneous
        0.1f64..=1.0,     // heterogeneity skew
    )
        .prop_map(|(n, ratio, clat, nlat, w, shape, skew)| {
            let skew = if shape == 0 { 0.0 } else { skew };
            let workers = (0..n)
                .map(|i| {
                    let f = i as f64 / n as f64;
                    let speed = 1.0 + skew * (f - 0.5);
                    WorkerSpec {
                        speed,
                        bandwidth: ratio * n as f64 * speed * (1.0 + skew * (0.5 - f) * 0.5),
                        comp_latency: clat * (1.0 + skew * f),
                        net_latency: nlat,
                        transfer_latency: 0.0,
                    }
                })
                .collect();
            (Platform::new(workers).expect("valid platform"), w)
        })
}

/// The reference oracle: a fresh planner solve wrapped in the kind's
/// oracle type, with no prototype involved. `None` for kinds without an
/// oracle and for planners that reject the inputs.
fn fresh_planner_oracle(kind: SchedulerKind, p: &Platform, w: f64) -> Option<Box<dyn Oracle>> {
    Some(match kind {
        SchedulerKind::Umr => Box::new(UmrOracle::new(Umr::new(p, w).ok()?.schedule().clone())),
        SchedulerKind::Rumr(cfg) => Box::new(RumrOracle::new(&Rumr::new(p, w, cfg).ok()?, p)),
        SchedulerKind::Mi { installments } => {
            let mi = MultiInstallment::new(p, w, installments).ok()?;
            Box::new(MiOracle::new(mi.schedule().clone(), p))
        }
        SchedulerKind::Factoring => Box::new(FactoringOracle::from_platform(p, w)),
        SchedulerKind::HetUmr => Box::new(HetUmrOracle::new(
            HetUmr::new(p, w).ok()?.schedule().clone(),
        )),
        SchedulerKind::OneRound => Box::new(OneRoundOracle::new(
            OneRound::new(p, w).ok()?.schedule().clone(),
        )),
        _ => return None,
    })
}

/// A prediction as (variant, makespan bits, tolerance bits).
fn prediction_bits(p: Prediction) -> (u8, Option<u64>, Option<u64>) {
    let variant = match p {
        Prediction::Exact { .. } => 0,
        Prediction::LowerBound { .. } => 1,
        Prediction::Unavailable => 2,
    };
    (
        variant,
        p.makespan().map(f64::to_bits),
        p.tolerance().map(f64::to_bits),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An oracle derived from a solved prototype is bit-identical to one
    /// built around a fresh planner solve, for the six oracle kinds; the
    /// other seven kinds have none.
    #[test]
    fn prototype_oracles_match_fresh_planner_oracles(
        (platform, w) in platform_strategy(),
        error in 0.0f64..=0.5,
    ) {
        let mut with_oracle = 0;
        for kind in all_kinds(error).into_iter().chain([
            SchedulerKind::Mi { installments: 4 },
            SchedulerKind::rumr_fixed_fraction(0.6, None),
        ]) {
            // Homogeneous-only planners refuse heterogeneous platforms;
            // that refusal is the prototype's, tested elsewhere.
            let Ok(prototype) = kind.prototype(&platform, w) else { continue };
            let derived = prototype.oracle(&platform, w);
            let fresh = fresh_planner_oracle(kind, &platform, w);
            match (derived, fresh) {
                (None, None) => {}
                (Some(derived), Some(fresh)) => {
                    with_oracle += 1;
                    prop_assert_eq!(derived.name(), fresh.name(), "{}", kind);
                    prop_assert_eq!(
                        prediction_bits(derived.makespan()),
                        prediction_bits(fresh.makespan()),
                        "{}",
                        kind
                    );
                    prop_assert_eq!(
                        derived.planned_work().to_bits(),
                        fresh.planned_work().to_bits(),
                        "{}",
                        kind
                    );
                    prop_assert_eq!(derived.round_timeline(), fresh.round_timeline(), "{}", kind);
                    // The kind's own oracle is the derived one.
                    let via_kind = kind
                        .oracle(&platform, w)
                        .unwrap_or_else(|e| panic!("{kind}: {e}"))
                        .expect("an oracle kind");
                    prop_assert_eq!(
                        prediction_bits(via_kind.makespan()),
                        prediction_bits(fresh.makespan()),
                        "{}",
                        kind
                    );
                }
                (derived, fresh) => {
                    return Err(TestCaseError::fail(format!(
                        "{kind}: derived oracle {} but fresh {}",
                        derived.is_some(),
                        fresh.is_some()
                    )))
                }
            }
        }
        // Factoring and HetUmr build on every platform.
        prop_assert!(with_oracle >= 2, "only {} oracle kinds built", with_oracle);
    }

    /// Whenever the fast path answers, the engine agrees — for all 13
    /// scheduler kinds.
    #[test]
    fn analytic_answers_agree_with_the_engine(
        scenario in scenario_strategy(),
        seed in 0u64..1000,
    ) {
        for kind in all_kinds(0.0) {
            let spec = RunSpec::new(kind).seed(seed);
            let decision = FastPath::resolve(&scenario, &spec)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let Some(answer) = decision.analytic() else { continue };
            let engine = scenario
                .execute(&spec)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            prop_assert!(
                answer.agrees_with(engine.makespan),
                "{}: analytic {} vs engine {} (residual {})",
                kind,
                answer.makespan,
                engine.makespan,
                answer.residual(engine.makespan)
            );
            prop_assert!(
                (answer.planned_work - engine.completed_work()).abs()
                    <= 1e-6 * scenario.w_total,
                "{}: planned {} vs completed {}",
                kind,
                answer.planned_work,
                engine.completed_work()
            );
        }
    }

    /// Every noisy scenario is declined, and with the right reason: the
    /// eligibility order pins `PredictionErrors` as the first check.
    #[test]
    fn noisy_runs_always_go_to_the_engine(
        scenario in scenario_strategy(),
        error in 0.05f64..=0.6,
    ) {
        let mut noisy = scenario;
        noisy.error_model = rumr::ErrorModel::TruncatedNormal { error };
        for kind in all_kinds(error) {
            match FastPath::resolve(&noisy, &RunSpec::new(kind))
                .unwrap_or_else(|e| panic!("{kind}: {e}"))
            {
                FastPathDecision::Engine(miss) => {
                    prop_assert_eq!(miss, FastPathMiss::PredictionErrors, "{}", kind)
                }
                FastPathDecision::Analytic(_) => {
                    return Err(TestCaseError::fail(format!("{kind} took a noisy run")))
                }
            }
        }
    }

    /// The sampling decision is a pure function of the key: across random
    /// keys it respects the 0/100 endpoints and is monotone in `pct`.
    #[test]
    fn audit_sampling_is_monotone_for_random_keys(key_seed in 0u64..u64::MAX) {
        let key = format!("{{\"w_total\":{},\"seed\":{}}}", key_seed % 10_000, key_seed);
        prop_assert!(FastPath::audit_due(|| &key, 100));
        prop_assert!(!FastPath::audit_due(|| &key, 0));
        let mut prev = false;
        for pct in [1u32, 5, 20, 50, 80, 99, 100] {
            let now = FastPath::audit_due(|| &key, pct);
            prop_assert!(now || !prev, "sampling not monotone at {}% for {:?}", pct, key);
            prev = now;
        }
    }
}

/// The exact-oracle schedulers must actually take the fast path on the
/// paper's Table 1 platform — the resolver is useless if it always
/// declines.
#[test]
fn exact_oracles_resolve_analytically() {
    let s = Scenario::table1(10, 1.5, 0.2, 0.1, 0.0);
    for kind in [
        SchedulerKind::Umr,
        SchedulerKind::HetUmr,
        SchedulerKind::OneRound,
    ] {
        let decision = FastPath::resolve(&s, &RunSpec::new(kind)).unwrap();
        assert!(
            decision.analytic().is_some(),
            "{kind} should resolve analytically"
        );
    }
    // MI's oracle is exact only latency-free; with latencies it claims a
    // lower bound and the resolver must decline.
    let latency_free = Scenario::table1(10, 1.5, 0.0, 0.0, 0.0);
    let mi = RunSpec::new(SchedulerKind::Mi { installments: 3 });
    assert!(FastPath::resolve(&latency_free, &mi)
        .unwrap()
        .analytic()
        .is_some());
    match FastPath::resolve(&s, &mi).unwrap() {
        FastPathDecision::Engine(miss) => assert_eq!(miss, FastPathMiss::InexactOracle),
        FastPathDecision::Analytic(_) => panic!("MI with latencies is not exact"),
    }
}

/// Heterogeneous platforms: HetUmr resolves analytically and agrees with
/// the engine; the oracle-less heterogeneous schedulers decline.
#[test]
fn heterogeneous_fastpath_agrees() {
    let s = Scenario::heterogeneous_demo(12, 0.0);
    let spec = RunSpec::new(SchedulerKind::HetUmr);
    let decision = FastPath::resolve(&s, &spec).unwrap();
    let answer = decision.analytic().expect("HetUmr is exact");
    let engine = s.execute(&spec).unwrap();
    assert!(
        answer.agrees_with(engine.makespan),
        "analytic {} vs engine {} (residual {})",
        answer.makespan,
        engine.makespan,
        answer.residual(engine.makespan)
    );
    for kind in [
        SchedulerKind::Gss,
        SchedulerKind::Tss,
        SchedulerKind::HetRumr(RumrConfig::with_known_error(0.0)),
    ] {
        match FastPath::resolve(&s, &RunSpec::new(kind)).unwrap() {
            FastPathDecision::Engine(miss) => assert_eq!(miss, FastPathMiss::NoOracle, "{kind}"),
            FastPathDecision::Analytic(_) => panic!("{kind} has no oracle"),
        }
    }
}
