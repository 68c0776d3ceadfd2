//! Speed-revelation properties.
//!
//! Planners commit to a schedule knowing only *declared* worker rates; the
//! engine executes at *realized* rates drawn by a [`SpeedModel`]. Two
//! repo-level contracts follow:
//!
//! * the robustness ratio — realized makespan over the clairvoyant
//!   reference replanned on realized rates — is ≥ 1 for every scheduler
//!   kind and every revelation profile;
//! * the `Declared` model is inert: it draws nothing from the RNG, so runs
//!   are **bit-for-bit** identical to runs with no speed model configured,
//!   and the pinned golden makespans still hold with it switched on.

use proptest::prelude::*;
use rumr::{
    FaultModel, FaultPlan, RecoveryConfig, RobustnessReport, RumrConfig, RunSpec, Scenario,
    SchedulerKind, SimConfig, SpeedModel, TraceMode,
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
    ]
}

fn profile_strategy() -> impl Strategy<Value = SpeedModel> {
    (
        0u64..3,       // which profile family
        0.01f64..=0.9, // stochastic spread
        0.1f64..=1.0,  // slowed fraction
        1.1f64..=4.0,  // slowdown factor
        0u64..1000,    // revelation seed
    )
        .prop_map(|(family, spread, fraction, slowdown, seed)| match family {
            0 => SpeedModel::Stochastic { spread, seed },
            1 => SpeedModel::Sandbagged {
                fraction,
                slowdown,
                seed,
            },
            _ => SpeedModel::Adversarial { fraction, slowdown },
        })
}

/// The report of the repetition at `seed`, with each clairvoyant twin
/// planned fresh on the realized platform (no prototype) and run on a
/// fresh engine.
fn fresh_twins_report(
    scenario: &Scenario,
    spec: &RunSpec,
    seed: u64,
    realized_makespan: f64,
) -> RobustnessReport {
    let platform = spec
        .config
        .speeds
        .realized_platform(&scenario.platform)
        .unwrap();
    let clairvoyant = Scenario {
        platform,
        ..scenario.clone()
    };
    let twin = RunSpec {
        prototype: None,
        ..spec.clone().seed(seed).reps(1).speeds(SpeedModel::Declared)
    };
    let het_twin = RunSpec {
        kind: SchedulerKind::HetUmr,
        ..twin.clone()
    };
    let replanned_makespan = [twin, het_twin]
        .iter()
        .filter_map(|t| clairvoyant.execute(t).ok())
        .map(|r| r.makespan)
        .reduce(f64::min);
    let clairvoyant_makespan =
        replanned_makespan.map_or(realized_makespan, |m| m.min(realized_makespan));
    RobustnessReport {
        realized_makespan,
        replanned_makespan,
        clairvoyant_makespan,
        ratio: realized_makespan / clairvoyant_makespan,
        analytic_lower_bound: clairvoyant.platform.makespan_lower_bound(scenario.w_total),
    }
}

fn report_bits(r: &RobustnessReport) -> [Option<u64>; 5] {
    [
        Some(r.realized_makespan.to_bits()),
        r.replanned_makespan.map(f64::to_bits),
        Some(r.clairvoyant_makespan.to_bits()),
        Some(r.ratio.to_bits()),
        Some(r.analytic_lower_bound.to_bits()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ratio ≥ 1 (up to float noise) for every scheduler kind, for any
    /// revelation profile: the clairvoyant
    /// reference can never be beaten by the blind run it explains.
    #[test]
    fn robustness_ratio_is_at_least_one(
        (scenario, error) in scenario_strategy(),
        profile in profile_strategy(),
        seed in 0u64..1000,
    ) {
        for kind in kinds(error) {
            let spec = RunSpec::new(kind)
                .seed(seed)
                .speeds(profile);
            let realized = scenario
                .execute(&spec)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let report = scenario
                .robustness(&spec, seed, realized.makespan)
                .expect("profile is active");
            prop_assert!(
                report.ratio.is_finite() && report.ratio >= 1.0 - 1e-9,
                "{kind} ({}): ratio {}",
                profile.label(),
                report.ratio
            );
            prop_assert!(
                report.clairvoyant_makespan <= realized.makespan + 1e-12,
                "{kind}: reference above the realized run"
            );
            prop_assert!(
                report.analytic_lower_bound.is_finite() && report.analytic_lower_bound > 0.0,
                "{kind}: bad analytic bound {}",
                report.analytic_lower_bound
            );
            // Twins planned once report every repetition's exact bits,
            // also when the engine configuration and recovery matter.
            let faulty = spec
                .clone()
                .faults(FaultModel::Plan(FaultPlan::new().crash_recover(20.0, 0, 15.0)))
                .recovering(RecoveryConfig::default());
            for spec in [spec, faulty] {
                let twins = scenario.clairvoyant(&spec).expect("profile is active");
                for rep_seed in seed..seed + 3 {
                    let Ok(realized) = scenario.execute(&spec.clone().seed(rep_seed)) else {
                        continue;
                    };
                    prop_assert_eq!(
                        report_bits(&twins.report(rep_seed, realized.makespan)),
                        report_bits(&fresh_twins_report(&scenario, &spec, rep_seed, realized.makespan)),
                        "{} ({}) seed {}",
                        kind,
                        profile.label(),
                        rep_seed
                    );
                }
            }
        }
    }

    /// On error-free runs the analytic lower bound of the realized
    /// platform floors the clairvoyant reference (noise can beat the
    /// nominal-rate bound; determinism cannot).
    #[test]
    fn analytic_bound_floors_error_free_runs(
        (mut scenario, _) in scenario_strategy(),
        profile in profile_strategy(),
        seed in 0u64..1000,
    ) {
        scenario.error_model = rumr::ErrorModel::None;
        for kind in kinds(0.0) {
            let spec = RunSpec::new(kind).seed(seed).speeds(profile);
            let realized = scenario
                .execute(&spec)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let report = scenario
                .robustness(&spec, seed, realized.makespan)
                .expect("profile is active");
            prop_assert!(
                report.analytic_lower_bound <= report.clairvoyant_makespan + 1e-9,
                "{kind} ({}): clairvoyant {} beats the analytic bound {}",
                profile.label(),
                report.clairvoyant_makespan,
                report.analytic_lower_bound
            );
        }
    }

    /// `Declared` is bit-for-bit inert: same makespan bits, same event
    /// count, byte-identical full traces as a spec with no speed model.
    #[test]
    fn declared_profile_is_bit_identical(
        (scenario, error) in scenario_strategy(),
        seed in 0u64..1000,
    ) {
        let config = SimConfig {
            trace_mode: TraceMode::Full,
            ..Default::default()
        };
        for kind in kinds(error) {
            let base = scenario
                .execute(&RunSpec::new(kind).seed(seed).config(config.clone()))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let gated = scenario
                .execute(
                    &RunSpec::new(kind)
                        .seed(seed)
                        .config(config.clone())
                        .speeds(SpeedModel::Declared),
                )
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            prop_assert_eq!(base.makespan.to_bits(), gated.makespan.to_bits());
            prop_assert_eq!(base.num_chunks, gated.num_chunks);
            prop_assert_eq!(base.events, gated.events);
            let (bt, gt) = (
                base.trace.as_ref().expect("Full records a trace"),
                gated.trace.as_ref().expect("Full records a trace"),
            );
            prop_assert_eq!(bt.events().len(), gt.events().len());
            for (i, (a, b)) in bt.events().iter().zip(gt.events()).enumerate() {
                let (da, db) = (format!("{a:?}"), format!("{b:?}"));
                prop_assert_eq!(da, db, "{} trace event {} differs", kind, i);
            }
        }
    }
}

/// The golden makespan pins from `golden_makespan.rs` hold verbatim with
/// `SpeedModel::Declared` configured explicitly — the revelation machinery
/// adds zero RNG draws to the trusted path.
#[test]
fn golden_pins_hold_with_declared_speeds() {
    let s = Scenario::table1(10, 1.5, 0.2, 0.2, 0.3);
    let cases: [(SchedulerKind, u64, u64, usize); 6] = [
        (
            SchedulerKind::rumr_known_error(0.3),
            1,
            0x405db99083535599,
            111,
        ),
        (
            SchedulerKind::rumr_known_error(0.3),
            42,
            0x405d4f22e1bfb2a9,
            111,
        ),
        (
            SchedulerKind::rumr_known_error(0.3),
            20030623,
            0x405d1fdd4888ce5c,
            111,
        ),
        (SchedulerKind::Umr, 1, 0x40604bfbb7ef18ec, 90),
        (SchedulerKind::Umr, 42, 0x405e2f0564bee54a, 90),
        (SchedulerKind::Umr, 20030623, 0x405f679799aa810e, 90),
    ];
    for (kind, seed, bits, chunks) in cases {
        let r = s
            .execute(&RunSpec::new(kind).seed(seed).speeds(SpeedModel::Declared))
            .unwrap();
        assert_eq!(
            r.makespan.to_bits(),
            bits,
            "{kind} seed {seed}: got {} ({:#x})",
            r.makespan,
            r.makespan.to_bits()
        );
        assert_eq!(r.num_chunks, chunks, "{kind} seed {seed} chunk count");
    }
}
